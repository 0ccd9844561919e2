//! The repository benchmark: three workloads that drive the COR-RMI
//! system only through its public entry points, check their outputs
//! against references independent of the code under test, and report
//! end-to-end metrics (untraced run) or per-layer metrics (traced run).
//!
//! Every workload reports every metric of both lists, so the metric set
//! is the same whichever workload a run measures; `BENCHMARK.json` at the
//! repository root states, per workload, what its operations are.
//!
//! Run with
//! `cargo run --release --offline --manifest-path perfbench/Cargo.toml --
//!  --workload serve-tcp --seed 1 --seconds 30 --trace 0`.

pub mod compile;
pub mod json;
pub mod list;
pub mod probes;
pub mod procfs;
pub mod runtime;
pub mod serve;
pub mod spans;
pub mod stats;

use std::collections::BTreeMap;

/// The end-to-end metrics, printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_us", "us"),
    ("hi_p50_us", "us"),
    ("peak_rps", "1/s"),
    ("calls_per_s", "1/s"),
];

/// The per-layer metrics, printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("p99_us", "us"),
    ("hi_p99_us", "us"),
    ("compile_ms_p50", "ms"),
    ("compile_ms_p99", "ms"),
    ("error_rate", "ratio"),
    ("ir.parse_us", "us"),
    ("ir.resolve_us", "us"),
    ("ir.lower_us", "us"),
    ("ir.opt_us", "us"),
    ("ir.ssa_us", "us"),
    ("ir.parse_mb_per_s", "MB/s"),
    ("ir.instrs_lowered", "count"),
    ("ir.instrs_opt", "count"),
    ("analysis.points_to_us", "us"),
    ("analysis.module_us", "us"),
    ("analysis.heap_nodes", "count"),
    ("analysis.sites", "count"),
    ("analysis.acyclic_frac", "ratio"),
    ("analysis.reusable_frac", "ratio"),
    ("codegen.plans_us", "us"),
    ("codegen.ser_us", "us"),
    ("codegen.deser_us", "us"),
    ("codegen.marshal_us_mean", "us"),
    ("codegen.unmarshal_us_mean", "us"),
    ("wire.bytes_per_call", "B"),
    ("wire.type_info_bytes_per_call", "B"),
    ("wire.cycle_lookups_per_call", "count"),
    ("heap.allocs_per_call", "count"),
    ("heap.reused_per_call", "count"),
    ("heap.reuse_frac", "ratio"),
    ("heap.gc_runs", "count"),
    ("net.tcp_pingpong_us", "us"),
    ("net.channel_pingpong_us", "us"),
    ("net.wire_us_per_msg", "us"),
    ("net.rx_cpu_us_per_call", "us"),
    ("vm.call_us_mean", "us"),
    ("vm.queue_us_mean", "us"),
    ("vm.invoke_us_mean", "us"),
    ("vm.rtt_us_mean", "us"),
    ("vm.residual_us", "us"),
    ("vm.wakeups_per_call", "count"),
    ("vm.drain_cpu_us_per_call", "us"),
    ("vm.worker_cpu_us_per_call", "us"),
    ("vm.runq_wait_us_per_call", "us"),
    ("vm.pool_hit_frac", "ratio"),
    ("obs.sampler_cpu_pct", "%"),
    ("obs.overhead_pct", "%"),
    ("loadgen.late_us_p50", "us"),
    ("loadgen.late_us_p99", "us"),
    ("bench.trace_overhead_pct", "%"),
];

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["serve-tcp", "list-rmi", "compile-corpus"];

/// Everything one run measured, before the catalog picks what to print.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: BTreeMap<String, f64>,
    /// Operations attempted: requests, calls, compiles and output checks.
    pub attempted: u64,
    /// Attempted operations that failed or produced a wrong result.
    pub failed: u64,
    /// One line per failure, printed before the result line.
    pub problems: Vec<String>,
    /// Human-readable lines (closure rows, phase summaries) printed
    /// before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Count one checked operation; a failed check records `problem`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(problem());
            }
        }
    }

    /// Fold `n` operations of which `bad` failed.
    pub fn count(&mut self, n: u64, bad: u64, problem: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 && self.problems.len() < 20 {
            self.problems.push(problem());
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Command-line options; all four are required.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val.clone()),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (expected one of {WORKLOADS:?})"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The result line: the catalog's metrics for this kind of run, in
/// catalog order. A metric the workload did not produce is a benchmark
/// bug, reported as an error rather than printed as a made-up value.
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let catalog = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(catalog.len());
    for &(name, unit) in catalog {
        let v = *outcome.metrics.get(name).ok_or_else(|| format!("metric {name} not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        metrics.push((name, v, unit));
    }
    Ok(json::result_object(outcome.failed == 0, outcome.attempted.max(1), outcome.failed, &metrics))
}

/// Seed for one named stream of a run: every phase draws from its own
/// splitmix64 stream so changing one phase's length leaves the others'
/// inputs unchanged.
pub fn stream_seed(seed: u64, stream: &str) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for b in stream.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    splitmix64(&mut h)
}

pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Run one workload end to end.
pub fn run(args: &Args) -> Outcome {
    let steal0 = procfs::cpu_steal();
    let mut out = match args.workload.as_str() {
        "serve-tcp" => serve::run(args),
        "list-rmi" => list::run(args),
        "compile-corpus" => compile::run(args),
        other => unreachable!("workload {other} passed parse_args"),
    };
    out.set("peak_rss_mb", procfs::peak_rss_mb());
    // A busy host steals vCPU time from this machine and every timing
    // of the run is slower for it; reported so a slow run can be told
    // from a slow program.
    let pct = procfs::steal_share(steal0, procfs::cpu_steal()) * 100.0;
    out.notes.push(format!("host: {pct:.1}% of CPU time stolen by the hypervisor during the run"));
    let rate = out.error_rate();
    out.set("error_rate", rate);
    out
}
