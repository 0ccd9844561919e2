//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics untraced, the per-layer metrics traced. Lines before it are
//! notes for a human reader (every metric by name, closure rows).

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match perfbench::parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                perfbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out = perfbench::run(&args);
    for p in &out.problems {
        println!("FAILED {p}");
    }
    for n in &out.notes {
        println!("{n}");
    }
    for (name, v) in &out.metrics {
        println!("  {name} = {v}");
    }
    println!(
        "  error_rate = {} ({} failed of {} attempted)",
        out.error_rate(),
        out.failed,
        out.attempted
    );
    match perfbench::result_line(&out, args.trace) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
