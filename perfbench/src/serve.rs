//! `serve-tcp`: the webserver's `Slave.getPage` served over the tcp
//! transport to the benchmark's own open-loop client, which times every
//! request from its intended arrival as `corm_vm::serve`'s client does,
//! but keeps the raw samples so percentiles are exact.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::time::{Duration, Instant};

use corm::{ArrivalSchedule, Cluster, Compiled, OptConfig, RunOptions, TransportKind, Value};
use corm_apps::WEBSERVER;
use corm_ir::{CallSiteId, MethodId};
use corm_vm::error::VmResult;
use corm_vm::interp::Interp;
use corm_vm::machine::MachineState;
use corm_vm::rmi;
use parking_lot::MutexGuard;

use crate::probes::{self, Graph};
use crate::runtime::{self, Delta, Window};
use crate::spans::Spans;
use crate::stats::{mean, median, quantile, ratio, round_rates, Rounds};
use crate::{stream_seed, Args, Outcome};

/// Machine 0 runs the clients, machines 1 and 2 one slave each.
pub const MACHINES: usize = 3;
/// Load-generating threads: one per CPU of the 2-vCPU machine the rates
/// were chosen on.
pub const CLIENTS: usize = 2;
/// Offered rates of the two open-loop phases.
pub const LO_RPS: f64 = 1000.0;
pub const HI_RPS: f64 = 2000.0;
/// `ServeOptions` defaults: a URL string out, a 16-int page back.
pub const NPAGES: i32 = 20;
pub const PAGE_SIZE: i32 = 16;
/// Clusters per run, each set up (the median set-up time is reported)
/// and then measured for an equal share of the rounds.
const CLUSTERS: usize = 5;
/// Compiles of the workload's own program for `compile_ms_*`.
const COMPILES: usize = 200;

pub fn run_options(obs: bool) -> RunOptions {
    RunOptions {
        machines: MACHINES,
        transport: TransportKind::Tcp,
        auto_gc: false,
        flight_capacity: if obs { corm::DEFAULT_FLIGHT_CAPACITY } else { 0 },
        timeline_interval_us: if obs { corm::DEFAULT_TIMELINE_INTERVAL_US } else { 0 },
        ..RunOptions::default()
    }
}

/// Java's `String.hashCode`, the route the in-language master uses.
pub fn java_hash(s: &str) -> i32 {
    s.chars().fold(0i32, |h, c| h.wrapping_mul(31).wrapping_add(c as i32))
}

/// A started service: slaves initialised, URLs pinned on machine 0.
pub struct Service {
    pub cluster: Cluster,
    slaves: Vec<Value>,
    urls: Vec<Value>,
    routes: Vec<usize>,
    call: (CallSiteId, MethodId),
    counter: (CallSiteId, MethodId),
    body_slot: usize,
}

/// Run `f` under the interpreter's machine lock as a registered VM
/// thread activity, the protocol `Interp::run_function` follows.
fn activity<T>(
    interp: &mut Interp,
    f: impl FnOnce(&mut Interp, &mut MutexGuard<'_, MachineState>) -> T,
) -> T {
    let machine = interp.machine.clone();
    let mut guard = machine.state.lock();
    guard.active_threads += 1;
    let out = f(interp, &mut guard);
    guard.active_threads -= 1;
    drop(guard);
    machine.cv.notify_all();
    out
}

/// One `remote_call_with_req` inside a span carrying its request id.
fn call(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    spans: &mut Spans,
    (site, method): (CallSiteId, MethodId),
    args: &[Value],
) -> VmResult<(Value, u64)> {
    let open = spans.enter("vm.remote_call");
    let r = rmi::remote_call_with_req(interp, guard, site, method, args, true, false);
    spans.exit(open, r.as_ref().map(|x| x.1).unwrap_or(0));
    r
}

/// Set-up: `Cluster::start`, clinits, one slave per serving machine and
/// its `init`, the URL table.
pub fn start(c: &Compiled, opts: &RunOptions, spans: &mut Spans) -> Result<Service, String> {
    let site = |method| runtime::plan_of(c, "Slave", method).map(|p| (p.site, p.method));
    let (init, call_site, counter) = (site("init")?, site("getPage")?, site("hitCount")?);
    let table = &c.module.table;
    let class = table.class_named("Slave").ok_or("no class Slave")?;
    let page = table.class_named("Page").ok_or("no class Page")?;
    let body = table.find_instance_field(page, "body").ok_or("Page has no body")?;
    let cluster = runtime::start_cluster(c, opts, spans)?;
    let nslaves = MACHINES - 1;
    let mut interp = Interp::new(cluster.rt.clone(), 0);
    let started = activity(&mut interp, |interp, guard| {
        let mut slaves = Vec::new();
        for s in 0..nslaves {
            let slave = spans
                .time("vm.new_remote", || rmi::new_remote(interp, guard, class, (s + 1) as u16))
                .map_err(|e| e.to_string())?;
            let args = [
                slave,
                Value::Int(NPAGES),
                Value::Int(PAGE_SIZE),
                Value::Int(s as i32),
                Value::Int(nslaves as i32),
            ];
            call(interp, guard, spans, init, &args).map_err(|e| e.to_string())?;
            slaves.push(slave);
        }
        let (mut urls, mut routes) = (Vec::new(), Vec::new());
        for pg in 0..NPAGES {
            let url = format!("/page/{pg}");
            routes.push(java_hash(&url).rem_euclid(nslaves as i32) as usize);
            let r = guard.heap.alloc_str(url);
            guard.heap.pin(r);
            urls.push(Value::Ref(r));
        }
        Ok((slaves, urls, routes))
    });
    match started {
        Ok((slaves, urls, routes)) => Ok(Service {
            cluster,
            slaves,
            urls,
            routes,
            call: call_site,
            counter,
            body_slot: table.field(body).slot,
        }),
        Err(e) => {
            cluster.finish(None);
            Err(e)
        }
    }
}

/// One request as the client saw it, ns since the phase started.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub intended_ns: u64,
    pub send_ns: u64,
    pub done_ns: u64,
}

impl Sample {
    pub fn latency_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.intended_ns) as f64 / 1e3
    }
    pub fn late_us(&self) -> f64 {
        self.send_ns.saturating_sub(self.intended_ns) as f64 / 1e3
    }
    pub fn service_us(&self) -> f64 {
        self.done_ns.saturating_sub(self.send_ns) as f64 / 1e3
    }
}

/// Open loop on a schedule, or closed loop for a duration.
pub enum Load<'a> {
    Open(&'a ArrivalSchedule),
    Closed { dur: Duration, pages: &'a [u32] },
}

/// What one phase measured.
#[derive(Default)]
pub struct Phase {
    pub samples: Vec<Sample>,
    pub failed: Vec<String>,
    pub wall_s: f64,
}

impl Phase {
    pub fn latencies(&self) -> Vec<f64> {
        self.samples.iter().map(Sample::latency_us).collect()
    }
}

impl Service {
    /// Drive one phase with `CLIENTS` threads claiming requests from a
    /// shared index, so a client stuck on a slow reply never strands
    /// later arrivals.
    pub fn drive(&self, load: &Load, traced: bool, epoch: Instant, spans: &mut Spans) -> Phase {
        let next = AtomicUsize::new(0);
        let start = Instant::now() + Duration::from_millis(1);
        let results: Vec<(Phase, Spans)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|t| {
                    let next = &next;
                    s.spawn(move || {
                        self.client(load, next, start, Spans::new(traced, epoch, 10 + t as u32))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let mut phase = Phase { wall_s: start.elapsed().as_secs_f64(), ..Phase::default() };
        for (mine, sp) in results {
            phase.samples.extend(mine.samples);
            phase.failed.extend(mine.failed);
            spans.absorb(sp);
        }
        phase
    }

    fn client(
        &self,
        load: &Load,
        next: &AtomicUsize,
        start: Instant,
        mut spans: Spans,
    ) -> (Phase, Spans) {
        let mut interp = Interp::new(self.cluster.rt.clone(), 0);
        let mut mine = Phase::default();
        let ns = |t: Instant| t.saturating_duration_since(start).as_nanos() as u64;
        loop {
            let k = next.fetch_add(1, Relaxed);
            let (intended, pg) = match load {
                Load::Open(s) => {
                    if k >= s.len() {
                        break;
                    }
                    let due = start + Duration::from_micros(s.arrivals_us[k]);
                    loop {
                        let now = Instant::now();
                        if now >= due {
                            break;
                        }
                        std::thread::sleep(due - now);
                    }
                    (due, s.pages[k] as usize % self.urls.len())
                }
                Load::Closed { dur, pages } => {
                    let now = Instant::now();
                    if now >= start + *dur {
                        break;
                    }
                    (now, pages[k % pages.len()] as usize % self.urls.len())
                }
            };
            let send = Instant::now();
            let args = [self.slaves[self.routes[pg]], self.urls[pg]];
            let (done, res, ok) = activity(&mut interp, |interp, guard| {
                let res = call(interp, guard, &mut spans, self.call, &args);
                let done = Instant::now();
                // Checked under the same lock, before a later reply can
                // be deserialized into the reused page: page `pg` holds
                // `pg, pg+1, ...` (webserver.mp's `new Page(pageSize, pg)`).
                let ok = match &res {
                    Ok((Value::Ref(p), _)) => match guard.heap.field(*p, self.body_slot) {
                        Ok(Value::Ref(b)) => {
                            let at = |i: usize| guard.heap.array_get(b, i).ok();
                            guard.heap.array_len(b).ok() == Some(PAGE_SIZE as usize)
                                && at(0) == Some(Value::Int(pg as i32))
                                && at(PAGE_SIZE as usize - 1)
                                    == Some(Value::Int(pg as i32 + PAGE_SIZE - 1))
                        }
                        _ => false,
                    },
                    _ => false,
                };
                (done, res, ok)
            });
            if !ok {
                mine.failed.push(format!("request {k} for page {pg}: {:?}", res.map(|r| r.0)));
            }
            mine.samples.push(Sample {
                intended_ns: ns(intended),
                send_ns: ns(send),
                done_ns: ns(done),
            });
        }
        (mine, spans)
    }

    /// Sum of every slave's `hitCount`, over the same RMI path.
    pub fn hits(&self, spans: &mut Spans) -> Result<i64, String> {
        let mut interp = Interp::new(self.cluster.rt.clone(), 0);
        activity(&mut interp, |interp, guard| {
            let mut total = 0;
            for &slave in &self.slaves {
                match call(interp, guard, spans, self.counter, &[slave]) {
                    Ok((Value::Long(n), _)) => total += n,
                    other => return Err(format!("hitCount returned {other:?}")),
                }
            }
            Ok(total)
        })
    }
}

/// The arrival schedule of one open-loop phase.
pub fn schedule(seed: u64, phase: &str, rate: f64, secs: f64) -> ArrivalSchedule {
    let n = (rate * secs).round().max(1.0) as usize;
    ArrivalSchedule::generate(stream_seed(seed, phase), rate, n, NPAGES as u32)
}

/// Fold a phase into the outcome's counts.
fn tally(out: &mut Outcome, name: &str, p: &Phase) {
    out.count(p.samples.len() as u64, p.failed.len() as u64, || {
        format!("{name}: {} failed, first: {}", p.failed.len(), p.failed[0])
    });
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut spans = Spans::new(args.trace, epoch, 0);
    let compiled = crate::compile::own_program(&mut out, WEBSERVER.source, COMPILES, &mut spans);

    // Set-up and measurement alternate: each of `CLUSTERS` clusters is
    // brought up (timed as set-up) and then serves its share of the
    // rounds. Two clusters of one process differ by up to a fifth in
    // latency and throughput (thread placement, socket state), so the
    // rounds are spread over several. Rounds interleave lo, hi and peak
    // so a slow stretch of the host lands on every phase alike (see
    // `Rounds`); a traced run adds an untraced lo phase to every round
    // to measure the spans' own cost.
    let opts = run_options(true);
    let mut rounds = Rounds::new(args.seconds);
    let slot = rounds.slot(args.seconds);
    let (lo_s, hi_s, peak_s) = (slot * 0.35, slot * 0.35, slot * 0.3);
    let mut setup = Vec::new();
    let mut delta = Delta::default();
    let mut phases: Vec<(&str, Phase)> = Vec::new();
    let mut lo_scheds = Vec::new();
    for k in 0..CLUSTERS {
        let t = Instant::now();
        let started = corm::compile(WEBSERVER.source, OptConfig::ALL)
            .map_err(|e| e.to_string())
            .and_then(|c| start(&c, &opts, &mut spans));
        setup.push(t.elapsed().as_secs_f64());
        let svc = match started {
            Ok(svc) => svc,
            Err(e) => {
                out.check(false, || format!("set-up: {e}"));
                return out;
            }
        };
        let window = Window::open(&svc.cluster);
        let first = phases.len();
        for r in k * rounds.n / CLUSTERS..(k + 1) * rounds.n / CLUSTERS {
            rounds.begin();
            let lo_sched = schedule(args.seed, &format!("lo{r}"), LO_RPS, lo_s);
            if args.trace {
                phases.push((
                    "lo-plain",
                    svc.drive(&Load::Open(&lo_sched), false, epoch, &mut spans),
                ));
            }
            phases.push(("lo", svc.drive(&Load::Open(&lo_sched), args.trace, epoch, &mut spans)));
            let hi_sched = schedule(args.seed, &format!("hi{r}"), HI_RPS, hi_s);
            phases.push(("hi", svc.drive(&Load::Open(&hi_sched), args.trace, epoch, &mut spans)));
            let pages = schedule(args.seed, &format!("peak{r}"), 1000.0, 1.0).pages;
            let peak = Load::Closed { dur: Duration::from_secs_f64(peak_s), pages: &pages };
            phases.push(("peak", svc.drive(&peak, args.trace, epoch, &mut spans)));
            lo_scheds.push(lo_sched);
            rounds.end();
        }
        // Every request must have reached a slave exactly once.
        let sent: usize = phases[first..].iter().map(|p| p.1.samples.len()).sum();
        let hits = svc.hits(&mut spans);
        out.check(hits == Ok(sent as i64), || {
            format!("slaves served {hits:?}, clients sent {sent}")
        });
        runtime::merge(&mut delta, window.close(&svc.cluster));
        runtime::finish(&mut out, svc.cluster, &mut spans);
    }
    out.set("setup_s", median(&mut setup).unwrap_or(0.0));

    for (name, p) in &phases {
        tally(&mut out, name, p);
    }
    let of = |name: &'static str| phases.iter().filter(move |p| p.0 == name).map(|p| &p.1);
    let per_round_p50 = |name: &'static str| {
        let v: Vec<f64> = of(name).map(|p| median(&mut p.latencies()).unwrap_or(0.0)).collect();
        rounds.quiet_median(&v)
    };
    let pooled = |name: &'static str| of(name).flat_map(|p| p.latencies()).collect::<Vec<f64>>();
    out.set("p50_us", per_round_p50("lo"));
    out.set("hi_p50_us", per_round_p50("hi"));
    out.set("p99_us", quantile(&mut pooled("lo"), 0.99).unwrap_or(0.0));
    out.set("hi_p99_us", quantile(&mut pooled("hi"), 0.99).unwrap_or(0.0));
    let peak_rps: Vec<f64> = of("peak").map(|p| ratio(p.samples.len() as f64, p.wall_s)).collect();
    out.set("peak_rps", rounds.quiet_median(&peak_rps));
    let ops: Vec<(f64, f64)> =
        phases.iter().map(|p| (p.1.samples.len() as f64, p.1.wall_s)).collect();
    out.set("calls_per_s", rounds.quiet_median(&round_rates(&ops, rounds.n)));
    let mut late: Vec<f64> =
        of("lo").chain(of("hi")).flat_map(|p| p.samples.iter().map(Sample::late_us)).collect();
    out.set("loadgen.late_us_p50", median(&mut late).unwrap_or(0.0));
    out.set("loadgen.late_us_p99", quantile(&mut late, 0.99).unwrap_or(0.0));
    let count = |name: &'static str| of(name).map(|p| p.samples.len()).sum::<usize>();
    out.notes.push(format!(
        "serve-tcp: {MACHINES} machines over tcp, {CLIENTS} clients; \
         lo {} req at {LO_RPS} rps, hi {} req at {HI_RPS} rps, peak closed loop {} req",
        count("lo"),
        count("hi"),
        count("peak"),
    ));
    out.notes.push(rounds.note());

    if args.trace {
        let mut pct: Vec<f64> = of("lo-plain")
            .zip(of("lo"))
            .map(|(a, b)| {
                let (m0, m1) = (median(&mut a.latencies()), median(&mut b.latencies()));
                ratio(m1.unwrap_or(0.0) - m0.unwrap_or(0.0), m0.unwrap_or(0.0)) * 100.0
            })
            .collect();
        out.set("bench.trace_overhead_pct", median(&mut pct).unwrap_or(0.0));
        let service: Vec<f64> =
            phases.iter().flat_map(|p| p.1.samples.iter().map(Sample::service_us)).collect();
        let measured = mean(&service).unwrap_or(0.0);
        let probe = probes::NetProbe::measure(delta.frame_bytes(), &mut spans);
        delta.report(&mut out, measured, &probe);
        out.notes.push(delta.closure(measured).render("serve-tcp"));
        probes::serializer_probe(&mut out, &compiled, Graph::Page(PAGE_SIZE as usize), &mut spans);
        let on: Vec<&Phase> = of("lo-plain").collect();
        obs_overhead(&mut out, &compiled, &lo_scheds, &on, epoch);
        runtime::write_spans(&spans, &args.workload, args.seed);
    }
    out
}

/// `obs.overhead_pct`: the untraced lo phases again on a cluster with the
/// flight recorder and timeline sampler off, against the default-on
/// run's, by the median of per-round p50s.
fn obs_overhead(
    out: &mut Outcome,
    c: &Compiled,
    scheds: &[ArrivalSchedule],
    on: &[&Phase],
    epoch: Instant,
) {
    let mut quiet = Spans::new(false, epoch, 0);
    let svc = match start(c, &run_options(false), &mut quiet) {
        Ok(svc) => svc,
        Err(e) => return out.check(false, || format!("obs-off set-up: {e}")),
    };
    let mut p_off = Vec::new();
    for s in scheds {
        let off = svc.drive(&Load::Open(s), false, epoch, &mut quiet);
        tally(out, "lo-obs-off", &off);
        p_off.extend(median(&mut off.latencies()));
    }
    runtime::finish(out, svc.cluster, &mut quiet);
    let mut p_on: Vec<f64> = on.iter().filter_map(|p| median(&mut p.latencies())).collect();
    let (off, on) = (median(&mut p_off).unwrap_or(0.0), median(&mut p_on).unwrap_or(0.0));
    out.set("obs.overhead_pct", ratio(on - off, off) * 100.0);
}
