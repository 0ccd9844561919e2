//! Self-tests of the benchmark's own arithmetic and plumbing: percentile
//! math, seed determinism, the closure row, the result line's JSON, and
//! agreement between the metric catalog and `BENCHMARK.json`.

use std::time::Instant;

use perfbench::json::{self, Json};
use perfbench::spans::Spans;
use perfbench::stats::{median, quantile, Closure};
use perfbench::{parse_args, result_line, Outcome, END_TO_END, PER_LAYER, WORKLOADS};

#[test]
fn quantiles_of_known_samples() {
    let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
    v.reverse();
    assert_eq!(median(&mut v), Some(50.5));
    assert!((quantile(&mut v, 0.99).unwrap() - 99.01).abs() < 1e-9);
    assert_eq!(quantile(&mut v, 0.0), Some(1.0));
    assert_eq!(quantile(&mut v, 1.0), Some(100.0));
    assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&mut [7.0]), Some(7.0));
    assert_eq!(median(&mut []), None);
}

#[test]
fn rounds_rates_and_quietest() {
    use perfbench::stats::{quietest, round_rates};
    // Three rounds of two phases each.
    let phases = [(100.0, 1.0), (300.0, 1.0), (10.0, 1.0), (10.0, 2.0), (150.0, 1.0), (250.0, 1.0)];
    assert_eq!(round_rates(&phases, 3), [200.0, 20.0 / 3.0, 200.0]);
    assert!(round_rates(&[], 3).is_empty());
    // The least-stolen third of the rounds, least first; never none.
    assert_eq!(quietest(&[0.20, 0.01, 0.05, 0.30, 0.02, 0.10]), [1, 4]);
    assert_eq!(quietest(&[0.5]), [0]);
    assert!(quietest(&[]).is_empty());
}

#[test]
fn same_seed_same_schedule_and_corpus() {
    let a = perfbench::serve::schedule(7, "lo0", 1000.0, 1.0);
    let b = perfbench::serve::schedule(7, "lo0", 1000.0, 1.0);
    assert_eq!(a, b);
    assert_eq!(a.len(), 1000);
    assert_ne!(a.arrivals_us, perfbench::serve::schedule(8, "lo0", 1000.0, 1.0).arrivals_us);
    assert_ne!(a.arrivals_us, perfbench::serve::schedule(7, "lo1", 1000.0, 1.0).arrivals_us);

    let c = perfbench::compile::corpus(7);
    assert_eq!(c, perfbench::compile::corpus(7));
    assert_ne!(c, perfbench::compile::corpus(8));
    assert_eq!(c.len(), 5 + perfbench::compile::GENERATED);
    for app in ["linked_list", "array2d", "lu", "superopt", "webserver"] {
        assert!(c.iter().any(|(n, _)| n == app), "{app} is in every corpus");
    }

    for seed in 0..50 {
        let r = perfbench::list::reps_for(seed);
        assert_eq!(r, perfbench::list::reps_for(seed));
        assert!((8..=12).contains(&r));
    }
}

#[test]
fn closure_states_the_residual() {
    let c = Closure { measured_us: 100.0, parts: vec![("marshal", 30.0), ("wire", 20.5)] };
    assert_eq!(c.named_us(), 50.5);
    assert_eq!(c.residual_us(), 49.5);
    assert_eq!(c.named_us() + c.residual_us(), c.measured_us);
    let row = c.render("w");
    assert!(row.contains("measured 100.00"), "{row}");
    assert!(row.contains("residual 49.50 (49.5% unattributed)"), "{row}");

    // Over-attribution shows as a negative residual, not as zero.
    let over = Closure { measured_us: 10.0, parts: vec![("invoke", 12.0)] };
    assert_eq!(over.residual_us(), -2.0);
}

#[test]
fn result_line_round_trips_through_json() {
    let mut out = Outcome::default();
    for (i, (name, _)) in END_TO_END.iter().chain(PER_LAYER).enumerate() {
        out.set(name, 1.0 / 3.0 + i as f64 * 1234.5678e-3);
    }
    out.check(true, String::new);
    out.check(false, || "one failure".into());
    for trace in [false, true] {
        let line = result_line(&out, trace).expect("every metric present");
        assert!(!line.contains('\n'));
        let parsed = json::parse(&line).expect("the result line is JSON");
        let Json::Obj(top) = &parsed else { panic!("not an object") };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(2.0));
        assert_eq!(parsed.get("failed").and_then(Json::as_f64), Some(1.0));
        let Some(Json::Obj(metrics)) = parsed.get("metrics") else { panic!("no metrics") };
        let catalog = if trace { PER_LAYER } else { END_TO_END };
        assert_eq!(metrics.len(), catalog.len());
        for (name, unit) in catalog {
            let m = &metrics[*name];
            // Every digit survives: the value parses back bit-exact.
            assert_eq!(m.get("value").and_then(Json::as_f64), Some(out.metrics[*name]));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(*unit));
        }
    }
    out.metrics.remove("p50_us");
    assert!(result_line(&out, false).is_err(), "a missing metric is an error, not a made-up value");
}

#[test]
fn json_escapes_parse_back() {
    let s = "quote \" backslash \\ newline \n tab \u{1} é";
    assert_eq!(json::parse(&json::escape(s)), Ok(Json::Str(s.to_string())));
    assert!(json::parse("{\"a\": 1, \"a\": 2}").is_err());
    assert!(json::parse("[1, 2").is_err());
}

/// The catalog in the code and the one in `BENCHMARK.json` must agree:
/// names, units, order and the workload list.
#[test]
fn catalog_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(a)) => a.clone(),
        _ => panic!("{key} is a list"),
    };
    let names = |key: &str| -> Vec<(String, String)> {
        list(key)
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).unwrap().to_string();
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("").to_string();
                (name, unit)
            })
            .collect()
    };
    let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(names("end_to_end"), own(END_TO_END));
    assert_eq!(names("per_layer"), own(PER_LAYER));
    let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
    assert_eq!(workloads, WORKLOADS);
    let setup = list("end_to_end")
        .into_iter()
        .find(|m| m.get("name") == Some(&Json::Str("setup_s".into())));
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).unwrap();
    let max = list("end_to_end").iter().map(bound).fold(0.0, f64::max);
    assert_eq!(
        bound(&setup.expect("setup_s is an end-to-end metric")),
        max,
        "setup_s has the largest bound"
    );
}

#[test]
fn args_are_checked() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = parse_args(&argv("--workload list-rmi --seed 3 --seconds 24 --trace 1")).unwrap();
    assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("list-rmi", 3, 24.0, true));
    for bad in [
        "--workload nope --seed 3 --seconds 2 --trace 0",
        "--workload list-rmi --seed x --seconds 2 --trace 0",
        "--workload list-rmi --seed 3 --seconds 0 --trace 0",
        "--workload list-rmi --seed 3 --seconds 2 --trace 2",
        "--workload list-rmi --seed 3 --seconds 2",
        "--workload list-rmi --seed 3 --seconds 2 --trace",
    ] {
        assert!(parse_args(&argv(bad)).is_err(), "{bad}");
    }
}

#[test]
fn proc_task_files_parse_and_group() {
    let t = perfbench::procfs::parse_task(
        "6137356 712087 5\n",
        "Name:\tbash\nvoluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t1\n",
    )
    .unwrap();
    assert_eq!((t.cpu_ns, t.wait_ns, t.wakeups), (6_137_356, 712_087, 17));
    assert!(perfbench::procfs::parse_task("", "").is_none());
    use perfbench::procfs::group_of;
    assert_eq!(group_of("corm-drain"), "drain");
    assert_eq!(group_of("corm-worker"), "worker");
    assert_eq!(group_of("corm-tcp-rx-1-t"), "rx"); // comm is cut at 15 bytes
    assert_eq!(group_of("corm-sampler"), "sampler");
    assert_eq!(group_of("perfbench"), "other");
    assert!(perfbench::procfs::peak_rss_mb() > 0.0);
}

#[test]
fn spans_nest_merge_and_switch_off() {
    let epoch = Instant::now();
    let mut a = Spans::new(true, epoch, 1);
    let outer = a.enter("outer");
    a.time("inner", || ());
    a.exit(outer, 42);
    assert_eq!(a.spans.len(), 2);
    assert_eq!(a.spans[1].parent, 0);
    assert_eq!(a.spans[0].req, 42);
    assert!(a.spans[0].end_ns >= a.spans[1].end_ns);

    let mut b = Spans::new(true, epoch, 2);
    let o = b.enter("b-outer");
    b.time("b-inner", || ());
    b.exit(o, 0);
    a.absorb(b);
    assert_eq!(a.spans.len(), 4);
    assert_eq!(a.spans[3].parent, 2, "parents are re-based on merge");

    let mut off = Spans::new(false, epoch, 3);
    let o = off.enter("x");
    off.exit(o, 1);
    assert!(off.spans.is_empty());
}
