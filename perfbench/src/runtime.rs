//! Runtime-layer metrics shared by the workloads: a measurement window
//! over the program's own counters and phase histograms plus the
//! threads' `/proc` times, the closure row, and the paper apps' oracle
//! runs.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::Instant;

use corm::{Cluster, Compiled, HistSnapshot, MarshalPlan, OptConfig, RunOptions, RunOutcome};
use corm_heap::HeapStats;
use corm_vm::interp::Interp;

use crate::procfs::{self, ThreadTimes};
use crate::spans::Spans;
use crate::stats::{ratio, Closure};
use crate::Outcome;

/// Bring a cluster up through the public entry points, each in a span.
pub fn start_cluster(
    compiled: &Compiled,
    opts: &RunOptions,
    spans: &mut Spans,
) -> Result<Cluster, String> {
    let cluster = spans.time("vm.cluster_start", || {
        Cluster::start(compiled.module.clone(), compiled.plans.clone(), opts)
    });
    if let Some(e) = spans.time("vm.run_clinits", || cluster.run_clinits()) {
        let msg = e.to_string();
        cluster.finish(Some(e));
        return Err(msg);
    }
    Ok(cluster)
}

/// The marshal plan of `class.method`'s remote call site (the lowest
/// site id when the program calls it from several places).
pub fn plan_of<'c>(c: &'c Compiled, class: &str, method: &str) -> Result<&'c MarshalPlan, String> {
    let table = &c.module.table;
    let cls = table.class_named(class).ok_or(format!("no class {class}"))?;
    let mid = table.find_method(cls, method).ok_or(format!("{class} has no {method}"))?;
    c.plans
        .sites
        .values()
        .filter(|p| p.method == mid)
        .min_by_key(|p| p.site.0)
        .ok_or(format!("no remote call site targets {class}.{method}"))
}

fn heap_stats(cluster: &Cluster) -> HeapStats {
    let mut h = HeapStats::default();
    for m in &cluster.rt.machines {
        let s = m.state.lock().heap.stats;
        h.allocs += s.allocs;
        h.deser_allocs += s.deser_allocs;
        h.gc_runs += s.gc_runs;
    }
    h
}

/// Sum of one phase histogram over every machine.
fn hist_sum(
    snap: &corm::MetricsSnapshot,
    pick: fn(&corm::MachineSnapshot) -> &HistSnapshot,
) -> (u64, u64) {
    snap.machines.iter().map(pick).fold((0, 0), |a, h| (a.0 + h.sum, a.1 + h.count))
}

/// Counters at the start of a measurement window.
pub struct Window {
    metrics: corm::MetricsSnapshot,
    heap: HeapStats,
    wire_ns: u64,
    threads: HashMap<u64, (String, ThreadTimes)>,
    t0: Instant,
}

/// What happened inside a window.
#[derive(Debug, Default, Clone)]
pub struct Delta {
    pub wall_s: f64,
    pub calls: u64,
    pub messages: u64,
    pub wire_bytes: u64,
    pub type_info_bytes: u64,
    pub cycle_lookups: u64,
    pub reused: u64,
    pub heap: HeapStats,
    pub wire_ns: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    /// (sum µs, count) per phase.
    pub marshal: (u64, u64),
    pub unmarshal: (u64, u64),
    pub queue: (u64, u64),
    pub invoke: (u64, u64),
    pub rtt: (u64, u64),
    pub payload: (u64, u64),
    pub threads: HashMap<&'static str, ThreadTimes>,
}

impl Window {
    pub fn open(cluster: &Cluster) -> Window {
        Window {
            metrics: cluster.rt.obs.snapshot(),
            heap: heap_stats(cluster),
            wire_ns: cluster.rt.net.measured_wire_ns_per_machine().iter().sum(),
            threads: procfs::sample(),
            t0: Instant::now(),
        }
    }

    /// Close the window. Call before `Cluster::finish`, while the
    /// cluster's threads are still alive to be read.
    pub fn close(self, cluster: &Cluster) -> Delta {
        let wall_s = self.t0.elapsed().as_secs_f64();
        let threads = procfs::delta_by_group(&self.threads, &procfs::sample());
        let now = cluster.rt.obs.snapshot();
        let heap = heap_stats(cluster);
        let wire_ns: u64 = cluster.rt.net.measured_wire_ns_per_machine().iter().sum();
        let (b, a) = (self.metrics.cluster_stats(), now.cluster_stats());
        let d = |p: fn(&corm::MachineSnapshot) -> &HistSnapshot| {
            let (x, y) = (hist_sum(&now, p), hist_sum(&self.metrics, p));
            (x.0 - y.0, x.1 - y.1)
        };
        let pool = |s: &corm::MetricsSnapshot| {
            s.machines.iter().fold((0, 0), |acc, m| (acc.0 + m.pool_hits, acc.1 + m.pool_misses))
        };
        let (ph, pm) = (pool(&now), pool(&self.metrics));
        Delta {
            wall_s,
            calls: a.remote_rpcs - b.remote_rpcs,
            messages: a.messages - b.messages,
            wire_bytes: a.wire_bytes - b.wire_bytes,
            type_info_bytes: a.type_info_bytes - b.type_info_bytes,
            cycle_lookups: a.cycle_lookups - b.cycle_lookups,
            reused: a.reused_objs - b.reused_objs,
            heap: HeapStats {
                allocs: heap.allocs - self.heap.allocs,
                deser_allocs: heap.deser_allocs - self.heap.deser_allocs,
                gc_runs: heap.gc_runs - self.heap.gc_runs,
                ..HeapStats::default()
            },
            wire_ns: wire_ns - self.wire_ns,
            pool_hits: ph.0 - pm.0,
            pool_misses: ph.1 - pm.1,
            marshal: d(|m| &m.marshal_us),
            unmarshal: d(|m| &m.unmarshal_us),
            queue: d(|m| &m.queue_us),
            invoke: d(|m| &m.invoke_us),
            rtt: d(|m| &m.rtt_us),
            payload: d(|m| &m.payload_bytes),
            threads,
        }
    }
}

impl Delta {
    /// Mean request payload, bytes: the frame size the network probes use.
    pub fn frame_bytes(&self) -> usize {
        ratio(self.payload.0 as f64, self.payload.1 as f64).round().max(1.0) as usize
    }

    fn group(&self, g: &str) -> ThreadTimes {
        self.threads.get(g).copied().unwrap_or_default()
    }

    /// The closure row: `measured_us` per call against the named layers
    /// the program's histograms and the wire measurement attribute.
    pub fn closure(&self, measured_us: f64) -> Closure {
        let c = self.calls.max(1) as f64;
        Closure {
            measured_us,
            parts: vec![
                ("marshal", self.marshal.0 as f64 / c),
                ("unmarshal", self.unmarshal.0 as f64 / c),
                ("queue", self.queue.0 as f64 / c),
                ("invoke", self.invoke.0 as f64 / c),
                ("wire", self.wire_ns as f64 / 1e3 / c),
            ],
        }
    }

    /// Runtime-layer metrics. `measured_us` is the per-call time the
    /// benchmark measured itself; `probe` supplies the wire and receive
    /// figures when the workload's transport has no wire to measure.
    pub fn report(&self, out: &mut Outcome, measured_us: f64, probe: &crate::probes::NetProbe) {
        let c = self.calls.max(1) as f64;
        let mean = |p: (u64, u64)| ratio(p.0 as f64, p.1 as f64);
        out.set("codegen.marshal_us_mean", mean(self.marshal));
        out.set("codegen.unmarshal_us_mean", mean(self.unmarshal));
        out.set("vm.queue_us_mean", mean(self.queue));
        out.set("vm.invoke_us_mean", mean(self.invoke));
        out.set("vm.rtt_us_mean", mean(self.rtt));
        let closure = self.closure(measured_us);
        out.set("vm.call_us_mean", measured_us);
        out.set("vm.residual_us", closure.residual_us());
        out.set("wire.bytes_per_call", self.wire_bytes as f64 / c);
        out.set("wire.type_info_bytes_per_call", self.type_info_bytes as f64 / c);
        out.set("wire.cycle_lookups_per_call", self.cycle_lookups as f64 / c);
        out.set("heap.allocs_per_call", self.heap.allocs as f64 / c);
        out.set("heap.reused_per_call", self.reused as f64 / c);
        out.set(
            "heap.reuse_frac",
            ratio(self.reused as f64, (self.reused + self.heap.deser_allocs) as f64),
        );
        out.set("heap.gc_runs", self.heap.gc_runs as f64);
        if self.wire_ns > 0 {
            out.set("net.wire_us_per_msg", self.wire_ns as f64 / 1e3 / self.messages.max(1) as f64);
            out.set("net.rx_cpu_us_per_call", self.group("rx").cpu_ns as f64 / 1e3 / c);
        } else {
            out.set("net.wire_us_per_msg", probe.wire_us_per_msg);
            out.set("net.rx_cpu_us_per_call", probe.rx_cpu_us_per_rtt);
        }
        out.set("net.tcp_pingpong_us", probe.tcp_us);
        out.set("net.channel_pingpong_us", probe.channel_us);
        let all = procfs::total(&self.threads);
        out.set("vm.wakeups_per_call", all.wakeups as f64 / c);
        out.set("vm.runq_wait_us_per_call", all.wait_ns as f64 / 1e3 / c);
        out.set("vm.drain_cpu_us_per_call", self.group("drain").cpu_ns as f64 / 1e3 / c);
        out.set("vm.worker_cpu_us_per_call", self.group("worker").cpu_ns as f64 / 1e3 / c);
        out.set(
            "vm.pool_hit_frac",
            ratio(self.pool_hits as f64, (self.pool_hits + self.pool_misses) as f64),
        );
        out.set(
            "obs.sampler_cpu_pct",
            ratio(self.group("sampler").cpu_ns as f64 / 1e9, self.wall_s) * 100.0,
        );
    }
}

/// Merge two windows' deltas (the oracle runs are five clusters).
pub fn merge(a: &mut Delta, b: Delta) {
    a.wall_s += b.wall_s;
    a.calls += b.calls;
    a.messages += b.messages;
    a.wire_bytes += b.wire_bytes;
    a.type_info_bytes += b.type_info_bytes;
    a.cycle_lookups += b.cycle_lookups;
    a.reused += b.reused;
    a.heap.allocs += b.heap.allocs;
    a.heap.deser_allocs += b.heap.deser_allocs;
    a.heap.gc_runs += b.heap.gc_runs;
    a.wire_ns += b.wire_ns;
    a.pool_hits += b.pool_hits;
    a.pool_misses += b.pool_misses;
    for (x, y) in [
        (&mut a.marshal, b.marshal),
        (&mut a.unmarshal, b.unmarshal),
        (&mut a.queue, b.queue),
        (&mut a.invoke, b.invoke),
        (&mut a.rtt, b.rtt),
        (&mut a.payload, b.payload),
    ] {
        x.0 += y.0;
        x.1 += y.1;
    }
    for (g, t) in b.threads {
        *a.threads.entry(g).or_default() += t;
    }
}

/// Finish a cluster inside a span and turn a run error into a problem.
pub fn finish(out: &mut Outcome, cluster: Cluster, spans: &mut Spans) -> RunOutcome {
    let outcome = spans.time("vm.finish", || cluster.finish(None));
    out.check(outcome.error.is_none(), || format!("run error: {:?}", outcome.error));
    outcome
}

/// The five paper apps at quick scale, each on a 2-machine channel
/// cluster, checked against their host-side oracles. In a traced run
/// they also yield the runtime-layer metrics of `compile-corpus`, whose
/// timed region has no runtime.
pub fn oracle_runs(out: &mut Outcome, spans: &mut Spans, traced: bool) {
    let mut total = Delta::default();
    let mut main_us = 0.0;
    for app in corm_apps::ALL_APPS {
        let compiled = app.compile(OptConfig::ALL);
        let opts = RunOptions {
            machines: app.machines,
            args: app.quick_args.to_vec(),
            ..RunOptions::default()
        };
        let cluster = match start_cluster(&compiled, &opts, spans) {
            Ok(c) => c,
            Err(e) => {
                out.check(false, || format!("{}: {e}", app.name));
                continue;
            }
        };
        let window = Window::open(&cluster);
        let t = Instant::now();
        let open = spans.enter("vm.run_function");
        let res = Interp::new(cluster.rt.clone(), 0).run_function(compiled.module.main, Vec::new());
        spans.exit(open, 0);
        main_us += t.elapsed().as_secs_f64() * 1e6;
        out.check(res.is_ok(), || format!("{}: {:?}", app.name, res.as_ref().err()));
        merge(&mut total, window.close(&cluster));
        let outcome = finish(out, cluster, spans);
        let expected = app.expected_output(app.quick_args, app.machines);
        out.check(outcome.output == expected, || {
            format!("{}: output {:?} != oracle {:?}", app.name, outcome.output, expected)
        });
    }
    if traced {
        let probe = crate::probes::NetProbe::measure(total.frame_bytes(), spans);
        // Per-call time here is the apps' whole run divided by their
        // RMIs, so the residual includes the apps' own computation.
        total.report(out, main_us / total.calls.max(1) as f64, &probe);
        let list = corm_apps::LINKED_LIST.compile(OptConfig::ALL);
        crate::probes::serializer_probe(out, &list, crate::probes::Graph::List(100), spans);
        obs_overhead_oracle(out);
    }
}

/// `obs.overhead_pct` for `compile-corpus`: linked_list at paper scale
/// with the flight recorder and timeline off against the defaults,
/// interleaved.
fn obs_overhead_oracle(out: &mut Outcome) {
    let app = corm_apps::LINKED_LIST;
    let compiled = app.compile(OptConfig::ALL);
    let mut walls = [Vec::new(), Vec::new()];
    for i in 0..6 {
        let on = i % 2 == 0;
        let opts = RunOptions {
            args: app.default_args.to_vec(),
            flight_capacity: if on { corm::DEFAULT_FLIGHT_CAPACITY } else { 0 },
            timeline_interval_us: if on { corm::DEFAULT_TIMELINE_INTERVAL_US } else { 0 },
            ..RunOptions::default()
        };
        let t = Instant::now();
        let o = corm::run(&compiled, opts);
        walls[usize::from(on)].push(t.elapsed().as_secs_f64());
        out.check(o.error.is_none(), || format!("linked_list: {:?}", o.error));
    }
    let off = crate::stats::median(&mut walls[0]).unwrap_or(0.0);
    let on = crate::stats::median(&mut walls[1]).unwrap_or(0.0);
    out.set("obs.overhead_pct", ratio(on - off, off) * 100.0);
}

/// Where a traced run writes its spans: inside the benchmark's own
/// directory (ignored by git).
pub fn write_spans(spans: &Spans, workload: &str, seed: u64) {
    let path: PathBuf =
        [env!("CARGO_MANIFEST_DIR"), "out", &format!("{workload}-seed{seed}.trace.json")]
            .iter()
            .collect();
    match spans.write_chrome(&path) {
        Ok(()) => eprintln!(
            "spans: {} kept, {} dropped -> {}",
            spans.spans.len(),
            spans.dropped,
            path.display()
        ),
        Err(e) => eprintln!("spans: cannot write {}: {e}", path.display()),
    }
}
