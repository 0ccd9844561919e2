//! `list-rmi`: `linked_list.mp`'s MiniParty `main` sends 100-node lists
//! (the paper's Table 1 size) to a remote `Foo` on the channel
//! transport, closed loop, under `OptConfig::ALL`.

use std::time::{Duration, Instant};

use corm::{Cluster, Compiled, OptConfig, RunOptions};
use corm_apps::{oracle, LINKED_LIST};
use corm_vm::interp::Interp;

use crate::probes::{self, Graph};
use crate::runtime::{self, Window};
use crate::spans::Spans;
use crate::stats::{mean, median, quantile, ratio, round_rates, Rounds};
use crate::{Args, Outcome};

/// List length: the paper's Table 1 size.
pub const ELEMS: i64 = 100;
pub const MACHINES: usize = 2;
/// Set-ups per run; the median is reported.
const SETUPS: usize = 5;
/// Compiles of the workload's own program for `compile_ms_*`.
const COMPILES: usize = 200;

/// Lists each `main` sends, drawn from the seed in 8..=12. Each `main`
/// also makes one `check()` RMI, so it issues `reps + 1` RMIs.
pub fn reps_for(seed: u64) -> i64 {
    8 + (crate::stream_seed(seed, "reps") % 5) as i64
}

pub fn run_options(reps: i64, obs: bool) -> RunOptions {
    RunOptions {
        machines: MACHINES,
        args: vec![ELEMS, reps],
        flight_capacity: if obs { corm::DEFAULT_FLIGHT_CAPACITY } else { 0 },
        timeline_interval_us: if obs { corm::DEFAULT_TIMELINE_INTERVAL_US } else { 0 },
        ..RunOptions::default()
    }
}

/// One closed-loop phase: per-`main` durations and the gaps between them.
#[derive(Default)]
pub struct Phase {
    pub op_us: Vec<f64>,
    pub gap_us: Vec<f64>,
    pub errors: Vec<String>,
    pub rmis: u64,
    pub wall_s: f64,
}

/// `callers` threads each run `main` back to back until `dur` elapses.
pub fn drive(
    cluster: &Cluster,
    c: &Compiled,
    callers: usize,
    dur: Duration,
    traced: bool,
    epoch: Instant,
    spans: &mut Spans,
) -> Phase {
    let rpcs = || cluster.rt.obs.cluster_snapshot().remote_rpcs;
    let before = rpcs();
    let start = Instant::now();
    let deadline = start + dur;
    let main = c.module.main;
    let results: Vec<(Phase, Spans)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..callers)
            .map(|t| {
                let rt = cluster.rt.clone();
                s.spawn(move || {
                    let mut sp = Spans::new(traced, epoch, 20 + t as u32);
                    let mut mine = Phase::default();
                    let mut prev = Instant::now();
                    while Instant::now() < deadline {
                        let t0 = Instant::now();
                        mine.gap_us.push((t0 - prev).as_secs_f64() * 1e6);
                        let open = sp.enter("vm.run_function");
                        let r = Interp::new(rt.clone(), 0).run_function(main, Vec::new());
                        sp.exit(open, 0);
                        prev = Instant::now();
                        mine.op_us.push((prev - t0).as_secs_f64() * 1e6);
                        if let Err(e) = r {
                            mine.errors.push(e.to_string());
                        }
                    }
                    (mine, sp)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("caller thread panicked")).collect()
    });
    let mut phase = Phase { wall_s: start.elapsed().as_secs_f64(), ..Phase::default() };
    for (mine, sp) in results {
        phase.op_us.extend(mine.op_us);
        phase.gap_us.extend(mine.gap_us);
        phase.errors.extend(mine.errors);
        spans.absorb(sp);
    }
    phase.rmis = rpcs() - before;
    phase
}

impl Phase {
    /// Per-RMI latency of every `main`: its duration over its RMIs.
    pub fn per_call_us(&self, reps: i64) -> Vec<f64> {
        self.op_us.iter().map(|us| us / (reps + 1) as f64).collect()
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut spans = Spans::new(args.trace, epoch, 0);
    let reps = reps_for(args.seed);
    let compiled = crate::compile::own_program(&mut out, LINKED_LIST.source, COMPILES, &mut spans);

    let opts = run_options(reps, true);
    let mut setup = Vec::new();
    let mut kept = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let started = corm::compile(LINKED_LIST.source, OptConfig::ALL)
            .map_err(|e| e.to_string())
            .and_then(|c| runtime::start_cluster(&c, &opts, &mut spans).map(|cl| (c, cl)));
        setup.push(t.elapsed().as_secs_f64());
        match started {
            Ok(k) if i + 1 == SETUPS => kept = Some(k),
            Ok((_, cl)) => {
                runtime::finish(&mut out, cl, &mut spans);
            }
            Err(e) => {
                out.check(false, || format!("set-up: {e}"));
                return out;
            }
        }
    }
    out.set("setup_s", median(&mut setup).unwrap_or(0.0));
    let (c, cluster) = kept.expect("the last set-up is kept");

    // Interleaved rounds of one caller (lo) and two (hi), so a slow
    // stretch of the host lands on both alike (see `Rounds`); a traced
    // run adds an untraced one-caller phase to every round to measure
    // the spans' own cost. Unlike serve-tcp, one cluster serves all
    // rounds: spreading them over several moved no figure here and made
    // peak RSS depend on when each cluster's garbage was collected.
    let mut rounds = Rounds::new(args.seconds);
    let half = Duration::from_secs_f64(rounds.slot(args.seconds) / 2.0);
    let window = Window::open(&cluster);
    let mut phases: Vec<(&str, Phase)> = Vec::new();
    for _ in 0..rounds.n {
        rounds.begin();
        if args.trace {
            phases.push(("lo-plain", drive(&cluster, &c, 1, half / 2, false, epoch, &mut spans)));
            phases.push(("lo", drive(&cluster, &c, 1, half / 2, true, epoch, &mut spans)));
        } else {
            phases.push(("lo", drive(&cluster, &c, 1, half, false, epoch, &mut spans)));
        }
        phases.push(("hi", drive(&cluster, &c, 2, half, args.trace, epoch, &mut spans)));
        rounds.end();
    }
    let delta = window.close(&cluster);
    let outcome = runtime::finish(&mut out, cluster, &mut spans);

    // Every `main` prints the list sum once; the oracle computes it on
    // the host.
    let mains: usize = phases.iter().map(|p| p.1.op_us.len()).sum();
    let expected = oracle::linked_list_output(ELEMS, reps);
    let good = outcome.output.lines().filter(|l| format!("{l}\n") == expected).count();
    for (_, p) in &phases {
        out.count(p.op_us.len() as u64, p.errors.len() as u64, || p.errors.join("; "));
    }
    out.check(good == mains && outcome.output.lines().count() == mains, || {
        format!("{good} of {mains} mains printed the oracle's {expected:?}")
    });

    let of = |name: &'static str| phases.iter().filter(move |p| p.0 == name).map(|p| &p.1);
    let per_round_p50 = |name: &'static str| {
        let v: Vec<f64> =
            of(name).map(|p| median(&mut p.per_call_us(reps)).unwrap_or(0.0)).collect();
        rounds.quiet_median(&v)
    };
    let pooled =
        |name: &'static str| of(name).flat_map(|p| p.per_call_us(reps)).collect::<Vec<f64>>();
    out.set("p50_us", per_round_p50("lo"));
    out.set("hi_p50_us", per_round_p50("hi"));
    out.set("p99_us", quantile(&mut pooled("lo"), 0.99).unwrap_or(0.0));
    out.set("hi_p99_us", quantile(&mut pooled("hi"), 0.99).unwrap_or(0.0));
    let peak: Vec<f64> = of("hi").map(|p| ratio(p.rmis as f64, p.wall_s)).collect();
    out.set("peak_rps", rounds.quiet_median(&peak));
    let ops: Vec<(f64, f64)> = phases.iter().map(|p| (p.1.rmis as f64, p.1.wall_s)).collect();
    out.set("calls_per_s", rounds.quiet_median(&round_rates(&ops, rounds.n)));
    let (rmis, wall) = ops.iter().fold((0.0, 0.0), |a, p| (a.0 + p.0, a.1 + p.1));
    let mut gaps: Vec<f64> = phases.iter().flat_map(|p| p.1.gap_us.iter().copied()).collect();
    out.set("loadgen.late_us_p50", median(&mut gaps).unwrap_or(0.0));
    out.set("loadgen.late_us_p99", quantile(&mut gaps, 0.99).unwrap_or(0.0));
    let count = |name: &'static str| of(name).map(|p| p.op_us.len()).sum::<usize>();
    out.notes.push(format!(
        "list-rmi: {MACHINES} machines over channel, {reps} lists of {ELEMS} per main; \
         lo 1 caller {} mains, hi 2 callers {} mains, {rmis} RMIs in {wall:.2} s",
        count("lo"),
        count("hi"),
    ));
    out.notes.push(rounds.note());

    if args.trace {
        let mut pct: Vec<f64> = of("lo-plain")
            .zip(of("lo"))
            .map(|(a, b)| {
                let (m0, m1) = (mean(&a.op_us).unwrap_or(0.0), mean(&b.op_us).unwrap_or(0.0));
                ratio(m1 - m0, m0) * 100.0
            })
            .collect();
        out.set("bench.trace_overhead_pct", median(&mut pct).unwrap_or(0.0));
        let op_total: f64 = phases.iter().flat_map(|p| p.1.op_us.iter()).sum();
        let measured = op_total / delta.calls.max(1) as f64;
        let probe = probes::NetProbe::measure(delta.frame_bytes(), &mut spans);
        delta.report(&mut out, measured, &probe);
        out.notes.push(delta.closure(measured).render("list-rmi"));
        probes::serializer_probe(&mut out, &compiled, Graph::List(ELEMS as usize), &mut spans);
        let on: Vec<&Phase> = of("lo-plain").collect();
        obs_overhead(&mut out, &compiled, reps, &on, half / 2, epoch);
        runtime::write_spans(&spans, &args.workload, args.seed);
    }
    out
}

/// `obs.overhead_pct`: the untraced one-caller phases again on a cluster
/// with the flight recorder and timeline sampler off, against the
/// default-on run's, by the median of per-round mean `main` times.
fn obs_overhead(
    out: &mut Outcome,
    c: &Compiled,
    reps: i64,
    on: &[&Phase],
    dur: Duration,
    epoch: Instant,
) {
    let mut quiet = Spans::new(false, epoch, 0);
    let cluster = match runtime::start_cluster(c, &run_options(reps, false), &mut quiet) {
        Ok(cluster) => cluster,
        Err(e) => return out.check(false, || format!("obs-off set-up: {e}")),
    };
    let mut m_off = Vec::new();
    for _ in on {
        let off = drive(&cluster, c, 1, dur, false, epoch, &mut quiet);
        out.count(off.op_us.len() as u64, off.errors.len() as u64, || off.errors.join("; "));
        m_off.extend(mean(&off.op_us));
    }
    runtime::finish(out, cluster, &mut quiet);
    let mut m_on: Vec<f64> = on.iter().filter_map(|p| mean(&p.op_us)).collect();
    let (off, on) = (median(&mut m_off).unwrap_or(0.0), median(&mut m_on).unwrap_or(0.0));
    out.set("obs.overhead_pct", ratio(on - off, off) * 100.0);
}
