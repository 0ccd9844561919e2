//! The compiler pipeline driven pass by pass, and the `compile-corpus`
//! workload: the five paper apps plus seeded `corm_fuzz` programs,
//! compiled under `OptConfig::ALL` with no runtime in the timed region.

use std::sync::Arc;
use std::time::{Duration, Instant};

use corm::{Compiled, OptConfig};
use corm_analysis::cycles::CycleOptions;
use corm_analysis::{analyze_module, analyze_points_to, AnalysisOptions};
use corm_apps::ALL_APPS;
use corm_ir::{lower_program, opt::optimize_module, parse_program, resolve_program, ssa};

use crate::runtime;
use crate::spans::Spans;
use crate::stats::{mean, median, quantile, ratio, Rounds};
use crate::{stream_seed, Args, Outcome};

/// Seeded programs in the corpus, next to the five paper apps.
pub const GENERATED: usize = 200;

/// What a compiled program looks like to the layer metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Facts {
    pub src_bytes: u64,
    pub instrs_lowered: u64,
    pub instrs_opt: u64,
    pub heap_nodes: u64,
    pub sites: u64,
    /// Cycle verdicts proven acyclic / verdicts taken.
    pub acyclic: (u64, u64),
    /// Reference arguments and returns proven reusable / those checked.
    pub reusable: (u64, u64),
}

impl std::ops::AddAssign for Facts {
    fn add_assign(&mut self, o: Facts) {
        self.src_bytes += o.src_bytes;
        self.instrs_lowered += o.instrs_lowered;
        self.instrs_opt += o.instrs_opt;
        self.heap_nodes += o.heap_nodes;
        self.sites += o.sites;
        self.acyclic.0 += o.acyclic.0;
        self.acyclic.1 += o.acyclic.1;
        self.reusable.0 += o.reusable.0;
        self.reusable.1 += o.reusable.1;
    }
}

fn instr_count(m: &corm_ir::Module) -> u64 {
    m.funcs.iter().flat_map(|f| &f.blocks).map(|b| b.instrs.len() as u64).sum()
}

/// Remote call sites of `c` that got no marshal plan.
pub fn unplanned_sites(c: &Compiled) -> u64 {
    c.module
        .remote_call_sites()
        .filter(|cs| cs.method.is_some() && c.plans.plan(cs.id).is_none())
        .count() as u64
}

/// `corm::compile`, one public pass at a time, each inside its own span.
/// The passes and their order are exactly `corm::compile`'s.
pub fn compile_passes(
    src: &str,
    config: OptConfig,
    spans: &mut Spans,
) -> Result<(Compiled, Facts), String> {
    let whole = spans.enter("compile");
    let ast = spans.time("ir.parse", || parse_program(src)).map_err(|e| e.to_string())?;
    let resolved = spans.time("ir.resolve", || resolve_program(&ast)).map_err(|e| e.to_string())?;
    let mut module =
        spans.time("ir.lower", || lower_program(&resolved)).map_err(|e| e.to_string())?;
    let instrs_lowered = instr_count(&module);
    spans.time("ir.opt", || optimize_module(&mut module));
    let instrs_opt = instr_count(&module);
    let options = AnalysisOptions {
        cycle: CycleOptions { assume_acyclic_self_lists: config.list_extension },
    };
    let analysis = spans.time("analysis.module", || analyze_module(&module, options));
    let plans =
        spans.time("codegen.plans", || corm_codegen::generate_plans(&module, &analysis, config));
    spans.exit(whole, 0);

    let mut facts = Facts {
        src_bytes: src.len() as u64,
        instrs_lowered,
        instrs_opt,
        heap_nodes: analysis.points_to.graph.nodes.len() as u64,
        sites: analysis.sites.len() as u64,
        ..Facts::default()
    };
    for info in analysis.sites.values() {
        let meth = module.table.method(info.method);
        if !meth.params.is_empty() {
            facts.acyclic.1 += 1;
            facts.acyclic.0 += u64::from(!info.args_may_cycle);
        }
        if info.ret_shape.is_some() {
            facts.acyclic.1 += 1;
            facts.acyclic.0 += u64::from(!info.ret_may_cycle);
        }
        for (i, p) in meth.params.iter().enumerate() {
            if p.is_ref() {
                facts.reusable.1 += 1;
                facts.reusable.0 += u64::from(info.arg_reusable.get(i).copied().unwrap_or(false));
            }
        }
        if meth.ret.is_ref() {
            facts.reusable.1 += 1;
            facts.reusable.0 += u64::from(info.ret_reusable);
        }
    }
    let compiled = Compiled {
        module: Arc::new(module),
        analysis: Arc::new(analysis),
        plans: Arc::new(plans),
        config,
    };
    Ok((compiled, facts))
}

/// SSA construction and points-to on their own, each in a span. They
/// also run inside `analyze_module`; timing them apart gives their share.
pub fn time_ssa_and_points_to(c: &Compiled, spans: &mut Spans) {
    let s = spans.time("ir.ssa", || ssa::build_module_ssa(&c.module));
    let pt = spans.time("analysis.points_to", || analyze_points_to(&c.module, &s));
    std::hint::black_box(pt.graph.nodes.len());
}

/// Per-program layer metrics from the spans of the traced compiles and
/// the facts summed over the same compiles.
pub fn layer_metrics(out: &mut Outcome, spans: &Spans, facts: &Facts) {
    let parses = spans.durations_us("ir.parse");
    let n = parses.len().max(1) as f64;
    for (metric, span) in [
        ("ir.parse_us", "ir.parse"),
        ("ir.resolve_us", "ir.resolve"),
        ("ir.lower_us", "ir.lower"),
        ("ir.opt_us", "ir.opt"),
        ("ir.ssa_us", "ir.ssa"),
        ("analysis.points_to_us", "analysis.points_to"),
        ("analysis.module_us", "analysis.module"),
        ("codegen.plans_us", "codegen.plans"),
    ] {
        out.set(metric, spans.mean_us(span));
    }
    let parse_s: f64 = parses.iter().sum::<f64>() / 1e6;
    out.set("ir.parse_mb_per_s", ratio(facts.src_bytes as f64 / 1e6, parse_s));
    out.set("ir.instrs_lowered", facts.instrs_lowered as f64 / n);
    out.set("ir.instrs_opt", facts.instrs_opt as f64 / n);
    out.set("analysis.heap_nodes", facts.heap_nodes as f64 / n);
    out.set("analysis.sites", facts.sites as f64 / n);
    out.set("analysis.acyclic_frac", ratio(facts.acyclic.0 as f64, facts.acyclic.1 as f64));
    out.set("analysis.reusable_frac", ratio(facts.reusable.0 as f64, facts.reusable.1 as f64));
}

/// Compile one workload's own program `samples` times for the
/// `compile_ms_*` metrics (outside set-up and the timed region) and,
/// when traced, its layer metrics.
pub fn own_program(out: &mut Outcome, src: &str, samples: usize, spans: &mut Spans) -> Compiled {
    let mut ms = Vec::with_capacity(samples);
    let mut facts = Facts::default();
    let mut last = None;
    for _ in 0..samples {
        let t = Instant::now();
        let (c, f) = if spans.is_on() {
            compile_passes(src, OptConfig::ALL, spans).expect("the workload's program compiles")
        } else {
            let c = corm::compile(src, OptConfig::ALL).expect("the workload's program compiles");
            (c, Facts::default())
        };
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        facts += f;
        out.check(unplanned_sites(&c) == 0, || "a remote call site got no plan".into());
        last = Some(c);
    }
    let c = last.expect("at least one compile");
    if spans.is_on() {
        time_ssa_and_points_to(&c, spans);
        layer_metrics(out, spans, &facts);
    }
    out.set("compile_ms_p50", median(&mut ms).unwrap_or(0.0));
    out.set("compile_ms_p99", quantile(&mut ms, 0.99).unwrap_or(0.0));
    c
}

/// The corpus for `seed`: the five paper apps, then `GENERATED` seeded
/// programs, in a seeded order.
pub fn corpus(seed: u64) -> Vec<(String, String)> {
    let mut progs: Vec<(String, String)> =
        ALL_APPS.iter().map(|a| (a.name.to_string(), a.source.to_string())).collect();
    let gen_seed = stream_seed(seed, "corpus");
    for i in 0..GENERATED as u64 {
        let mut rng = corm_fuzz::gen::iter_rng(gen_seed, i);
        progs.push((format!("gen{i}"), corm_fuzz::gen_spec(&mut rng).render()));
    }
    // Fisher-Yates with the run's own stream.
    let mut st = stream_seed(seed, "order");
    for i in (1..progs.len()).rev() {
        let j = (crate::splitmix64(&mut st) % (i as u64 + 1)) as usize;
        progs.swap(i, j);
    }
    progs
}

/// One compile phase, merged over its threads.
#[derive(Default)]
struct Phase {
    latency_us: Vec<f64>,
    /// Gap between a thread's previous compile ending and the next
    /// starting: how late the closed loop issued its next operation.
    late_us: Vec<f64>,
    failed: Vec<String>,
    facts: Facts,
    wall_s: f64,
}

/// Compile the corpus round-robin on `threads` threads until `dur`
/// elapses, starting thread `t` at offset `t * len / threads`.
fn compile_phase(
    progs: &[(String, String)],
    threads: usize,
    dur: Duration,
    traced: bool,
    epoch: Instant,
    spans: &mut Spans,
) -> Phase {
    let start = Instant::now();
    let deadline = start + dur;
    let results: Vec<(Phase, Spans)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let mut log = Phase::default();
                    let mut spans = Spans::new(traced, epoch, 100 + t as u32);
                    let mut k = t * progs.len() / threads;
                    let mut prev_end = Instant::now();
                    while Instant::now() < deadline {
                        let (name, src) = &progs[k % progs.len()];
                        k += 1;
                        let t0 = Instant::now();
                        log.late_us.push((t0 - prev_end).as_secs_f64() * 1e6);
                        let res = if traced {
                            compile_passes(src, OptConfig::ALL, &mut spans)
                        } else {
                            corm::compile(src, OptConfig::ALL)
                                .map(|c| (c, Facts::default()))
                                .map_err(|e| e.to_string())
                        };
                        prev_end = Instant::now();
                        log.latency_us.push((prev_end - t0).as_secs_f64() * 1e6);
                        match res {
                            Ok((c, f)) => {
                                log.facts += f;
                                if unplanned_sites(&c) > 0 {
                                    log.failed.push(format!("{name}: remote site without plan"));
                                }
                                std::hint::black_box(&c);
                            }
                            Err(e) => log.failed.push(format!("{name}: {e}")),
                        }
                    }
                    (log, spans)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("compile thread panicked")).collect()
    });
    let mut phase = Phase { wall_s: start.elapsed().as_secs_f64(), ..Phase::default() };
    for (log, sp) in results {
        phase.latency_us.extend(log.latency_us);
        phase.late_us.extend(log.late_us);
        phase.failed.extend(log.failed);
        phase.facts += log.facts;
        spans.absorb(sp);
    }
    phase
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut spans = Spans::new(args.trace, epoch, 0);

    // Set-up: generate the corpus and compile every program once (the
    // allocator and caches warm up; a program that does not compile is
    // an error). Repeated, and the median reported.
    let mut setup = Vec::new();
    let mut progs = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        progs = corpus(args.seed);
        for (_, src) in &progs {
            std::hint::black_box(corm::compile(src, OptConfig::ALL).ok());
        }
        setup.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&mut setup).unwrap_or(0.0));

    // Interleaved rounds of one compiling thread (lo) and two (hi); a
    // traced run adds an untraced one-thread phase to every round to
    // measure the spans' own cost. Rounds cover different slices of the
    // corpus, so figures pool all rounds instead of taking the quietest
    // (compiling wakes no threads, and the host's steal barely moves it).
    let mut rounds = Rounds::new(args.seconds);
    let half = Duration::from_secs_f64(rounds.slot(args.seconds) / 2.0);
    let mut phases: Vec<(&str, Phase)> = Vec::new();
    for _ in 0..rounds.n {
        rounds.begin();
        if args.trace {
            phases.push(("lo-plain", compile_phase(&progs, 1, half / 2, false, epoch, &mut spans)));
            phases.push(("lo", compile_phase(&progs, 1, half / 2, true, epoch, &mut spans)));
        } else {
            phases.push(("lo", compile_phase(&progs, 1, half, false, epoch, &mut spans)));
        }
        phases.push(("hi", compile_phase(&progs, 2, half, args.trace, epoch, &mut spans)));
        rounds.end();
    }

    let mut facts = Facts::default();
    for (_, p) in &phases {
        out.count(p.latency_us.len() as u64, p.failed.len() as u64, || p.failed.join("; "));
        facts += p.facts;
    }
    let of = |name: &'static str| phases.iter().filter(move |p| p.0 == name).map(|p| &p.1);
    let pooled = |name: &'static str| {
        of(name).flat_map(|p| p.latency_us.iter().copied()).collect::<Vec<f64>>()
    };
    let mut all_ms: Vec<f64> =
        phases.iter().flat_map(|p| p.1.latency_us.iter().map(|us| us / 1e3)).collect();
    out.set("compile_ms_p50", median(&mut all_ms).unwrap_or(0.0));
    out.set("compile_ms_p99", quantile(&mut all_ms, 0.99).unwrap_or(0.0));
    let (mut lo, mut hi) = (pooled("lo"), pooled("hi"));
    out.set("p50_us", median(&mut lo).unwrap_or(0.0));
    out.set("hi_p50_us", median(&mut hi).unwrap_or(0.0));
    out.set("p99_us", quantile(&mut lo, 0.99).unwrap_or(0.0));
    out.set("hi_p99_us", quantile(&mut hi, 0.99).unwrap_or(0.0));
    let hi_wall: f64 = of("hi").map(|p| p.wall_s).sum();
    out.set("peak_rps", ratio(hi.len() as f64, hi_wall));
    let (ops, wall) =
        phases.iter().fold((0, 0.0), |a, p| (a.0 + p.1.latency_us.len(), a.1 + p.1.wall_s));
    out.set("calls_per_s", ratio(ops as f64, wall));
    let mut late: Vec<f64> = phases.iter().flat_map(|p| p.1.late_us.iter().copied()).collect();
    out.set("loadgen.late_us_p50", median(&mut late).unwrap_or(0.0));
    out.set("loadgen.late_us_p99", quantile(&mut late, 0.99).unwrap_or(0.0));
    let count = |name: &'static str| of(name).map(|p| p.latency_us.len()).sum::<usize>();
    out.notes.push(format!(
        "compile-corpus: {} programs; lo 1 thread {} compiles, \
         hi 2 threads {} compiles, {ops} compiles in {wall:.2} s",
        progs.len(),
        count("lo"),
        count("hi"),
    ));
    out.notes.push(format!(
        "rounds: figures pool all {} rounds (median round steal {:.1}%)",
        rounds.n,
        rounds.median_steal() * 100.0
    ));

    if args.trace {
        let mut pct: Vec<f64> = of("lo-plain")
            .zip(of("lo"))
            .map(|(a, b)| {
                let (m0, m1) =
                    (mean(&a.latency_us).unwrap_or(0.0), mean(&b.latency_us).unwrap_or(0.0));
                ratio(m1 - m0, m0) * 100.0
            })
            .collect();
        out.set("bench.trace_overhead_pct", median(&mut pct).unwrap_or(0.0));
        let mut quiet = Spans::new(false, epoch, 0);
        for (_, src) in &progs {
            if let Ok((c, _)) = compile_passes(src, OptConfig::ALL, &mut quiet) {
                time_ssa_and_points_to(&c, &mut spans);
            }
        }
        layer_metrics(&mut out, &spans, &facts);
    }

    // Outside the timed region: the five paper apps run once at quick
    // scale and must print their oracle output. These runs are also the
    // runtime this workload's runtime-layer metrics describe.
    runtime::oracle_runs(&mut out, &mut spans, args.trace);
    if args.trace {
        runtime::write_spans(&spans, &args.workload, args.seed);
    }
    out
}
