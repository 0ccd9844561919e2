//! Observability-layer integration tests: trace causality (every RMI's
//! send/handle/return share one cluster-unique request id), per-machine
//! timestamp monotonicity, agreement of the per-machine counter shards
//! with the cluster snapshot, and well-formedness of the Chrome
//! trace-event export.

use std::collections::{HashMap, HashSet};

use corm::{
    compile_and_run, to_chrome_trace, MetricsRegistry, OptConfig, RunOptions, RunOutcome,
    TraceEvent, TraceKind,
};
use proptest::prelude::*;

/// A workload with both scalar round-trips and an object-graph payload,
/// so marshal/unmarshal phases and type-info bytes all show up.
fn list_program(elems: usize) -> String {
    format!(
        r#"
        class Node {{
            Node next; int v;
            Node(Node n, int v) {{ this.next = n; this.v = v; }}
        }}
        remote class Worker {{
            int bump(int x) {{ return x + 1; }}
            int sum(Node n) {{
                if (n == null) {{ return 0; }}
                return n.v + sum(n.next);
            }}
        }}
        class M {{
            static void main() {{
                Worker w = new Worker() @ 1;
                int i = 0;
                int acc = 0;
                while (i < 6) {{ acc = acc + w.bump(i); i = i + 1; }}
                Node list = null;
                int j = 0;
                while (j < {elems}) {{ list = new Node(list, j); j = j + 1; }}
                acc = acc + w.sum(list);
                System.println(Str.fromLong(acc));
            }}
        }}
        "#
    )
}

fn traced_run(src: &str, machines: usize, cfg: OptConfig) -> RunOutcome {
    let opts = RunOptions { machines, echo: false, trace: true, ..Default::default() };
    let out = compile_and_run(src, cfg, opts).expect("compile failed");
    assert!(out.error.is_none(), "runtime error: {:?}", out.error);
    out
}

/// Every `RmiSend` must have a `Handle` on the target machine with the
/// same request id, and (unless one-way) an `RmiReturn` back on the
/// sending machine. Request ids of distinct sends never collide.
fn assert_causality(events: &[TraceEvent]) {
    let mut seen_reqs: HashSet<u64> = HashSet::new();
    let handles: HashMap<u64, u16> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::Handle { req, .. } => Some((req, e.machine)),
            _ => None,
        })
        .collect();
    let returns: HashMap<u64, u16> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::RmiReturn { req, .. } => Some((req, e.machine)),
            _ => None,
        })
        .collect();
    let mut sends = 0;
    for e in events {
        if let TraceKind::RmiSend { req, to, oneway, .. } = e.kind {
            sends += 1;
            assert!(seen_reqs.insert(req), "request id {req} minted twice");
            assert_eq!(
                handles.get(&req),
                Some(&to),
                "send req {req} has no Handle on target machine {to}"
            );
            if !oneway {
                assert_eq!(
                    returns.get(&req),
                    Some(&e.machine),
                    "send req {req} has no RmiReturn on machine {}",
                    e.machine
                );
            }
        }
    }
    assert!(sends > 0, "workload produced no remote calls");
    // No orphans in the other direction either.
    for req in handles.keys() {
        assert!(seen_reqs.contains(req), "Handle req {req} without a matching RmiSend");
    }
    for req in returns.keys() {
        assert!(seen_reqs.contains(req), "RmiReturn req {req} without a matching RmiSend");
    }
}

/// Per machine, timestamps never go backwards when events are replayed
/// in recording (seq) order.
fn assert_monotone_per_machine(events: &[TraceEvent]) {
    let mut by_machine: HashMap<u16, Vec<&TraceEvent>> = HashMap::new();
    for e in events {
        by_machine.entry(e.machine).or_default().push(e);
    }
    for (m, mut evs) in by_machine {
        evs.sort_by_key(|e| e.seq);
        for pair in evs.windows(2) {
            assert!(
                pair[0].t_us <= pair[1].t_us,
                "machine {m}: t_us regressed between seq {} ({} us) and seq {} ({} us)",
                pair[0].seq,
                pair[0].t_us,
                pair[1].seq,
                pair[1].t_us
            );
        }
    }
}

fn assert_shards_sum_to_cluster(out: &RunOutcome) {
    assert_eq!(
        out.metrics.cluster_stats(),
        out.stats,
        "per-machine counter shards must fold to the cluster snapshot"
    );
    for (i, m) in out.metrics.machines.iter().enumerate() {
        assert!(
            m.stats.type_info_bytes <= m.stats.wire_bytes,
            "machine {i}: type_info_bytes {} > wire_bytes {}",
            m.stats.type_info_bytes,
            m.stats.wire_bytes
        );
    }
}

#[test]
fn send_handle_return_link_by_request_id() {
    let out = traced_run(&list_program(5), 2, OptConfig::ALL);
    assert_eq!(out.output, "31\n");
    assert_causality(&out.trace);
}

#[test]
fn causality_holds_for_every_table_config() {
    for (name, cfg) in OptConfig::TABLE_ROWS {
        let out = traced_run(&list_program(4), 2, cfg);
        assert_causality(&out.trace);
        assert_monotone_per_machine(&out.trace);
        assert!(!out.trace.is_empty(), "[{name}] expected a non-empty trace");
    }
}

#[test]
fn per_machine_timestamps_are_monotone_in_seq_order() {
    let out = traced_run(&list_program(6), 3, OptConfig::ALL);
    assert_monotone_per_machine(&out.trace);
    // seq ids are cluster-global and unique.
    let mut seqs: Vec<u64> = out.trace.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), out.trace.len(), "duplicate seq numbers in trace");
}

#[test]
fn machine_shards_sum_to_cluster_snapshot() {
    for (_, cfg) in OptConfig::TABLE_ROWS {
        let out = traced_run(&list_program(5), 2, cfg);
        assert_shards_sum_to_cluster(&out);
    }
}

/// Each run builds its own registry: two identical back-to-back runs
/// must report identical counters — any bleed-through (a shared or
/// unreset registry) would double the second run's numbers. The explicit
/// `MetricsRegistry::reset` covers harnesses that do hold one registry
/// across measured sections.
#[test]
fn metrics_are_scoped_per_run_with_no_bleed_through() {
    let src = list_program(5);
    let first = traced_run(&src, 2, OptConfig::ALL);
    let second = traced_run(&src, 2, OptConfig::ALL);
    assert_eq!(
        first.metrics.cluster_stats(),
        second.metrics.cluster_stats(),
        "counters leaked between runs"
    );
    assert_eq!(first.stats, second.stats);
    for (a, b) in first.metrics.machines.iter().zip(&second.metrics.machines) {
        assert_eq!(a.stats, b.stats, "per-machine shards leaked between runs");
    }
    // And an explicitly reused registry comes back to zero on reset —
    // including the serving-side metrics (queue phase, request
    // lifecycle counters) that a long-running `corm serve` touches.
    use std::sync::atomic::Ordering::Relaxed;
    let reg = MetricsRegistry::new(2);
    reg.machine(0).rtt_us.record(7);
    reg.machine(0).queue_us.record(13);
    reg.machine(1).requests_started.fetch_add(3, Relaxed);
    reg.machine(1).requests_completed.fetch_add(2, Relaxed);
    reg.machine(1).in_flight.fetch_add(1, Relaxed);
    reg.site(1).calls.fetch_add(1, Relaxed);
    // ... and the timeline plane (DESIGN §15): reactor/queue/pool
    // gauges, sample rings and health findings must all clear too.
    reg.machine(0).reactor_frames_enqueued.fetch_add(5, Relaxed);
    reg.machine(0).reactor_flush_batches.fetch_add(2, Relaxed);
    reg.machine(0).reactor_flush_size.fetch_add(1, Relaxed);
    reg.machine(0).reactor_flush_deadline.fetch_add(1, Relaxed);
    reg.machine(0).reactor_queued_bytes.fetch_add(512, Relaxed);
    reg.machine(0).reactor_conns_queued.fetch_add(1, Relaxed);
    reg.machine(0).reactor_batch_bytes.record(256);
    reg.machine(0).reactor_loop_us.record(40);
    reg.machine(1).pool_outstanding.fetch_add(2, Relaxed);
    reg.machine(1).serve_queue_depth.fetch_add(4, Relaxed);
    // ... and the reply-path counter a serving run accumulates.
    reg.machine(0).stale_replies.fetch_add(2, Relaxed);
    reg.timeline().push(0, corm::TimelineSample { t_us: 10, started: 3, ..Default::default() });
    reg.timeline().record_health(corm::HealthEvent {
        t_us: 10,
        machine: 1,
        kind: corm::HealthKind::Stall,
        value: 3,
    });
    assert!(!reg.timeline().is_empty(0));
    reg.reset();
    assert_eq!(reg.cluster_snapshot(), corm::StatsSnapshot::default());
    assert!(reg.snapshot().sites.is_empty());
    for m in &reg.snapshot().machines {
        assert_eq!(m.queue_us.count, 0, "queue histogram leaked across reset");
        assert_eq!(m.requests_started, 0);
        assert_eq!(m.requests_completed, 0);
        assert_eq!(m.in_flight, 0, "in-flight gauge leaked across reset");
        assert_eq!(m.reactor_frames_enqueued, 0, "reactor counter leaked across reset");
        assert_eq!(m.reactor_flush_batches, 0);
        assert_eq!(m.reactor_flush_size + m.reactor_flush_deadline + m.reactor_flush_idle, 0);
        assert_eq!(m.reactor_queued_bytes, 0, "reactor gauge leaked across reset");
        assert_eq!(m.reactor_conns_queued, 0);
        assert_eq!(m.reactor_batch_bytes.count, 0, "reactor histogram leaked across reset");
        assert_eq!(m.reactor_loop_us.count, 0);
        assert_eq!(m.pool_outstanding, 0, "pool ledger gauge leaked across reset");
        assert_eq!(m.serve_queue_depth, 0, "serve queue gauge leaked across reset");
        assert_eq!(m.stale_replies, 0, "stale-reply counter leaked across reset");
    }
    assert!(reg.timeline().is_empty(0), "timeline rings leaked across reset");
    assert!(reg.timeline().health_events().is_empty(), "health findings leaked across reset");
    assert_eq!(reg.timeline().doc().total_samples(), 0);
}

#[test]
fn chrome_trace_export_is_wellformed() {
    let out = traced_run(&list_program(5), 2, OptConfig::ALL);
    let json = to_chrome_trace(&out.trace);

    assert!(json.starts_with(r#"{"displayTimeUnit":"ms","traceEvents":["#));
    assert!(json.ends_with("]}"));
    // Required trace-event fields are present.
    for field in [r#""ph":"#, r#""ts":"#, r#""pid":"#, r#""tid":"#, r#""name":"#] {
        assert!(json.contains(field), "missing {field} in export");
    }
    // One process-name metadata record per machine.
    assert!(json.contains(r#""name":"machine 0""#));
    assert!(json.contains(r#""name":"machine 1""#));
    // Async begin/end pairs are balanced, so Perfetto will load the file.
    assert_eq!(
        json.matches(r#""ph":"b""#).count(),
        json.matches(r#""ph":"e""#).count(),
        "unbalanced async begin/end pairs"
    );
    // Braces balance (the export is hand-rolled, not serde-generated).
    let depth = json.chars().fold(0i64, |d, c| match c {
        '{' => d + 1,
        '}' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "unbalanced braces in chrome trace JSON");
}

/// The flight recorder (DESIGN §11) is on by default: a plain run —
/// no opts beyond the workload — ends with a clean dump whose event
/// windows carry the send/handle/return triple of every remote call.
#[test]
fn flight_recorder_is_on_by_default() {
    let out = traced_run(&list_program(5), 2, OptConfig::ALL);
    assert_eq!(out.flight.reason, "ok");
    assert!(out.flight.failing_reqs.is_empty());
    assert!(out.flight.total_events() > 0, "default run recorded no flight events");
    let kinds: HashSet<(u16, &str)> = out
        .flight
        .machines
        .iter()
        .flat_map(|(m, evs)| evs.iter().map(move |e| (*m, e.kind.name())))
        .collect();
    assert!(kinds.contains(&(0, "send")), "caller machine missing send events");
    assert!(kinds.contains(&(1, "handle")), "callee machine missing handle events");
    assert!(kinds.contains(&(0, "return")), "caller machine missing return events");
    // The dump renders as balanced JSON with the channel transport tag.
    let json = corm::render_flight_json(&out.flight);
    assert!(json.contains(r#""reason": "ok""#));
    assert!(json.contains(r#""transport": "channel""#));
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The trace invariants hold for arbitrary list sizes and cluster
    /// sizes, under the full optimizer configuration.
    #[test]
    fn trace_invariants_hold_for_arbitrary_workloads(
        elems in 1usize..8,
        machines in 2usize..4,
    ) {
        let out = traced_run(&list_program(elems), machines, OptConfig::ALL);
        assert_causality(&out.trace);
        assert_monotone_per_machine(&out.trace);
        assert_shards_sum_to_cluster(&out);
        let cluster = out.metrics.cluster_stats();
        prop_assert!(cluster.type_info_bytes <= cluster.wire_bytes);
        prop_assert_eq!(out.metrics.machines.len(), machines);
    }
}
