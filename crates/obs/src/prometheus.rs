//! Prometheus text-exposition rendering of a [`MetricsSnapshot`].
//!
//! Naming conventions (documented in DESIGN.md):
//!
//! * every series is prefixed `corm_`;
//! * per-machine series carry a `machine="<id>"` label, per-call-site
//!   series a `site="<id>"` label;
//! * counters end in `_total`, histograms follow the standard
//!   `_bucket{le=...}` / `_sum` / `_count` triple with cumulative
//!   log2 buckets;
//! * time histograms are in microseconds (`_microseconds`), size
//!   histograms in bytes (`_bytes`).

use std::fmt::Write;

use crate::hist::{bucket_le, HistSnapshot};
use crate::metrics::MetricsSnapshot;

fn counter(out: &mut String, name: &str, help: &str, series: &[(String, u64)]) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} counter");
    for (labels, v) in series {
        let _ = writeln!(out, "{name}{{{labels}}} {v}");
    }
}

fn gauge(out: &mut String, name: &str, help: &str, series: &[(String, u64)]) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    for (labels, v) in series {
        let _ = writeln!(out, "{name}{{{labels}}} {v}");
    }
}

fn histogram(out: &mut String, name: &str, help: &str, series: &[(String, HistSnapshot)]) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    for (labels, h) in series {
        let mut cum = 0u64;
        for (i, &c) in h.buckets.iter().enumerate() {
            cum += c;
            // Skip interior zero-count buckets to keep the exposition
            // readable; always emit the +Inf bucket.
            match bucket_le(i) {
                Some(le) if c > 0 => {
                    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"{le}\"}} {cum}");
                }
                Some(_) => {}
                None => {
                    let _ = writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cum}");
                }
            }
        }
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum);
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count);
    }
    // Derived quantile gauges: log-linear buckets are sparse, so
    // dashboards would otherwise need histogram_quantile over coarse
    // data. Empty series report nothing (a 0 would read as a real
    // latency).
    for (q, suffix) in [(0.5, "p50"), (0.99, "p99"), (0.999, "p999")] {
        let qname = format!("{name}_{suffix}");
        let _ = writeln!(out, "# HELP {qname} {help} ({suffix} upper bound, derived)");
        let _ = writeln!(out, "# TYPE {qname} gauge");
        for (labels, h) in series {
            if h.count > 0 {
                let _ = writeln!(out, "{qname}{{{labels}}} {}", h.quantile(q));
            }
        }
    }
}

/// Render the registry snapshot as a Prometheus text exposition.
pub fn render_prometheus(m: &MetricsSnapshot) -> String {
    let mut out = String::new();

    let per_machine = |f: &dyn Fn(&corm_wire::StatsSnapshot) -> u64| -> Vec<(String, u64)> {
        m.machines
            .iter()
            .enumerate()
            .map(|(i, ms)| (format!("machine=\"{i}\""), f(&ms.stats)))
            .collect()
    };

    counter(
        &mut out,
        "corm_local_rpcs_total",
        "RMIs whose target lived on the calling machine",
        &per_machine(&|s| s.local_rpcs),
    );
    counter(
        &mut out,
        "corm_remote_rpcs_total",
        "RMIs that crossed machines",
        &per_machine(&|s| s.remote_rpcs),
    );
    counter(
        &mut out,
        "corm_reused_objects_total",
        "Objects recycled by the reuse caches",
        &per_machine(&|s| s.reused_objs),
    );
    counter(
        &mut out,
        "corm_cycle_lookups_total",
        "Cycle-table lookups in (de)serializers",
        &per_machine(&|s| s.cycle_lookups),
    );
    counter(
        &mut out,
        "corm_ser_invocations_total",
        "Dynamic serializer-routine invocations",
        &per_machine(&|s| s.ser_invocations),
    );
    counter(
        &mut out,
        "corm_wire_bytes_total",
        "Payload bytes sent onto the simulated network",
        &per_machine(&|s| s.wire_bytes),
    );
    counter(
        &mut out,
        "corm_type_info_bytes_total",
        "Dynamic type-information bytes within wire bytes",
        &per_machine(&|s| s.type_info_bytes),
    );
    counter(
        &mut out,
        "corm_messages_total",
        "Network messages sent",
        &per_machine(&|s| s.messages),
    );
    counter(
        &mut out,
        "corm_deser_bytes_total",
        "Bytes allocated by deserialization",
        &per_machine(&|s| s.deser_bytes),
    );
    counter(
        &mut out,
        "corm_deser_allocs_total",
        "Objects allocated by deserialization",
        &per_machine(&|s| s.deser_allocs),
    );

    // Auditor activity (RunOptions::audit): checks performed by the
    // shadow cycle table and violations that poisoned the run.
    let audit_checks: Vec<(String, u64)> = m
        .machines
        .iter()
        .enumerate()
        .map(|(i, ms)| (format!("machine=\"{i}\""), ms.audit_checks))
        .collect();
    counter(
        &mut out,
        "corm_audit_checks_total",
        "Shadow cycle-table checks performed by the runtime auditor",
        &audit_checks,
    );
    let audit_poisons: Vec<(String, u64)> = m
        .machines
        .iter()
        .enumerate()
        .map(|(i, ms)| (format!("machine=\"{i}\""), ms.audit_poisons))
        .collect();
    counter(
        &mut out,
        "corm_audit_poisons_total",
        "Reuse-cache values poisoned by the auditor before reclamation",
        &audit_poisons,
    );

    // Sender-side marshal-buffer pool (DESIGN §12).
    let per_machine_pool =
        |f: &dyn Fn(&crate::metrics::MachineSnapshot) -> u64| -> Vec<(String, u64)> {
            m.machines
                .iter()
                .enumerate()
                .map(|(i, ms)| (format!("machine=\"{i}\""), f(ms)))
                .collect()
        };
    counter(
        &mut out,
        "corm_pool_hits_total",
        "Marshal-buffer checkouts served by a recycled buffer",
        &per_machine_pool(&|ms| ms.pool_hits),
    );
    counter(
        &mut out,
        "corm_pool_misses_total",
        "Marshal-buffer checkouts that allocated (includes cold misses)",
        &per_machine_pool(&|ms| ms.pool_misses),
    );
    gauge(
        &mut out,
        "corm_pool_resident_bytes",
        "Buffer capacity currently parked in the marshal pool",
        &per_machine_pool(&|ms| ms.pool_resident_bytes),
    );

    let per_machine_hist =
        |f: &dyn Fn(&crate::metrics::MachineSnapshot) -> HistSnapshot| -> Vec<(String, HistSnapshot)> {
            m.machines
                .iter()
                .enumerate()
                .map(|(i, ms)| (format!("machine=\"{i}\""), f(ms)))
                .collect()
        };

    histogram(
        &mut out,
        "corm_rmi_rtt_microseconds",
        "Caller-observed RMI round-trip time",
        &per_machine_hist(&|ms| ms.rtt_us),
    );
    histogram(
        &mut out,
        "corm_marshal_microseconds",
        "Argument-marshal time at calling sites",
        &per_machine_hist(&|ms| ms.marshal_us),
    );
    histogram(
        &mut out,
        "corm_unmarshal_microseconds",
        "Unmarshal time (args and returns)",
        &per_machine_hist(&|ms| ms.unmarshal_us),
    );
    histogram(
        &mut out,
        "corm_invoke_microseconds",
        "Served user-method execution time",
        &per_machine_hist(&|ms| ms.invoke_us),
    );
    histogram(
        &mut out,
        "corm_queue_microseconds",
        "Server-side queueing delay between packet arrival and worker pickup",
        &per_machine_hist(&|ms| ms.queue_us),
    );
    histogram(
        &mut out,
        "corm_rmi_payload_bytes",
        "Request payload size",
        &per_machine_hist(&|ms| ms.payload_bytes),
    );

    // Serving throughput/goodput counters and the in-flight gauge.
    counter(
        &mut out,
        "corm_requests_started_total",
        "Two-way RMIs started (throughput)",
        &per_machine_pool(&|ms| ms.requests_started),
    );
    counter(
        &mut out,
        "corm_requests_completed_total",
        "Two-way RMIs completed successfully (goodput)",
        &per_machine_pool(&|ms| ms.requests_completed),
    );
    gauge(
        &mut out,
        "corm_in_flight_requests",
        "Two-way RMIs currently awaiting a reply",
        &per_machine_pool(&|ms| ms.in_flight),
    );

    // Dispatch (DESIGN §17): requests run as upcalls on the drain thread
    // and the upcalls that had to give the mailbox to a new drainer.
    counter(
        &mut out,
        "corm_upcalls_total",
        "Requests run as upcalls on the drain thread instead of the worker pool",
        &per_machine_pool(&|ms| ms.upcalls),
    );
    counter(
        &mut out,
        "corm_upcall_handoffs_total",
        "Upcalls that handed the mailbox to a fresh drain thread",
        &per_machine_pool(&|ms| ms.upcall_handoffs),
    );

    // Lossy-transport protocol counters and the VM's reply cache
    // (DESIGN §16): retransmissions land on the sender, suppressed
    // duplicates on the receiver; the reply cache deduplicates
    // re-executed invocations above the transport.
    counter(
        &mut out,
        "corm_lossy_retransmits_total",
        "Datagram copies re-sent by the lossy transport's retransmission timers",
        &per_machine_pool(&|ms| ms.lossy_retransmits),
    );
    counter(
        &mut out,
        "corm_lossy_dups_suppressed_total",
        "Duplicate datagram copies discarded (or flagged) by the receiver",
        &per_machine_pool(&|ms| ms.lossy_dups_suppressed),
    );
    counter(
        &mut out,
        "corm_reply_cache_hits_total",
        "Duplicate invocations answered from the server-side reply cache",
        &per_machine_pool(&|ms| ms.reply_cache_hits),
    );
    counter(
        &mut out,
        "corm_reply_cache_evictions_total",
        "Reply-cache entries evicted by the FIFO bound",
        &per_machine_pool(&|ms| ms.reply_cache_evictions),
    );
    counter(
        &mut out,
        "corm_stale_replies_total",
        "Replies dropped because their call was no longer waiting (duplicate or failed)",
        &per_machine_pool(&|ms| ms.stale_replies),
    );

    // Reactor coalescing and queue-depth series (DESIGN §14/§15): the
    // per-flush batch histogram plus flush-reason counters expose how
    // adaptive batching behaves under load, and the occupancy gauges
    // feed the timeline sampler and `corm top`.
    counter(
        &mut out,
        "corm_reactor_frames_enqueued_total",
        "Frames appended to reactor per-connection output buffers",
        &per_machine_pool(&|ms| ms.reactor_frames_enqueued),
    );
    counter(
        &mut out,
        "corm_reactor_flush_batches_total",
        "Coalesced writev flushes issued by the reactor",
        &per_machine_pool(&|ms| ms.reactor_flush_batches),
    );
    counter(
        &mut out,
        "corm_reactor_flush_size_total",
        "Reactor flushes triggered by the batch-size threshold",
        &per_machine_pool(&|ms| ms.reactor_flush_size),
    );
    counter(
        &mut out,
        "corm_reactor_flush_deadline_total",
        "Reactor flushes triggered by the coalescing deadline",
        &per_machine_pool(&|ms| ms.reactor_flush_deadline),
    );
    counter(
        &mut out,
        "corm_reactor_flush_idle_total",
        "Reactor flushes issued inline on an otherwise idle connection",
        &per_machine_pool(&|ms| ms.reactor_flush_idle),
    );
    gauge(
        &mut out,
        "corm_reactor_queued_bytes",
        "Bytes currently buffered in reactor output queues",
        &per_machine_pool(&|ms| ms.reactor_queued_bytes),
    );
    gauge(
        &mut out,
        "corm_reactor_conns_queued",
        "Connections with a non-empty reactor output buffer",
        &per_machine_pool(&|ms| ms.reactor_conns_queued),
    );
    gauge(
        &mut out,
        "corm_serve_queue_depth",
        "Requests accepted by the drain loop awaiting a worker",
        &per_machine_pool(&|ms| ms.serve_queue_depth),
    );
    gauge(
        &mut out,
        "corm_pool_outstanding",
        "Marshal buffers checked out and not yet returned",
        &per_machine_pool(&|ms| ms.pool_outstanding),
    );
    histogram(
        &mut out,
        "corm_reactor_batch_bytes",
        "Bytes written per fully drained reactor flush",
        &per_machine_hist(&|ms| ms.reactor_batch_bytes),
    );
    histogram(
        &mut out,
        "corm_reactor_loop_microseconds",
        "Reactor event-loop iteration latency",
        &per_machine_hist(&|ms| ms.reactor_loop_us),
    );

    let site_calls: Vec<(String, u64)> =
        m.sites.iter().map(|s| (format!("site=\"{}\"", s.site), s.calls)).collect();
    counter(&mut out, "corm_site_calls_total", "RMIs issued per remote call site", &site_calls);
    let site_rtt: Vec<(String, HistSnapshot)> =
        m.sites.iter().map(|s| (format!("site=\"{}\"", s.site), s.rtt_us)).collect();
    histogram(
        &mut out,
        "corm_site_rtt_microseconds",
        "Round-trip time per remote call site",
        &site_rtt,
    );
    let site_bytes: Vec<(String, HistSnapshot)> =
        m.sites.iter().map(|s| (format!("site=\"{}\"", s.site), s.payload_bytes)).collect();
    histogram(
        &mut out,
        "corm_site_payload_bytes",
        "Request payload size per remote call site",
        &site_bytes,
    );

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use corm_wire::RmiStats;

    #[test]
    fn exposition_has_machine_and_site_series() {
        let reg = MetricsRegistry::new(2);
        RmiStats::bump(&reg.machine(0).stats.remote_rpcs, 4);
        reg.machine(0).rtt_us.record(100);
        let site = reg.site(7);
        site.calls.fetch_add(4, std::sync::atomic::Ordering::Relaxed);
        site.rtt_us.record(100);

        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE corm_remote_rpcs_total counter"));
        assert!(text.contains(r#"corm_remote_rpcs_total{machine="0"} 4"#));
        assert!(text.contains(r#"corm_remote_rpcs_total{machine="1"} 0"#));
        assert!(text.contains("# TYPE corm_rmi_rtt_microseconds histogram"));
        // 100 lands in the [96,111] log-linear sub-bucket.
        assert!(text.contains(r#"corm_rmi_rtt_microseconds_bucket{machine="0",le="111"} 1"#));
        assert!(text.contains(r#"corm_rmi_rtt_microseconds_bucket{machine="0",le="+Inf"} 1"#));
        assert!(text.contains(r#"corm_rmi_rtt_microseconds_sum{machine="0"} 100"#));
        assert!(text.contains(r#"corm_site_calls_total{site="7"} 4"#));
        assert!(text.contains(r#"corm_site_rtt_microseconds_count{site="7"} 1"#));
    }

    #[test]
    fn audit_counters_are_exposed() {
        let reg = MetricsRegistry::new(2);
        reg.machine(1).audit_checks.fetch_add(9, std::sync::atomic::Ordering::Relaxed);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE corm_audit_checks_total counter"));
        assert!(text.contains(r#"corm_audit_checks_total{machine="1"} 9"#));
        assert!(text.contains(r#"corm_audit_checks_total{machine="0"} 0"#));
        assert!(text.contains("# TYPE corm_audit_poisons_total counter"));
        assert!(text.contains(r#"corm_audit_poisons_total{machine="1"} 0"#));
    }

    #[test]
    fn pool_series_are_exposed() {
        let reg = MetricsRegistry::new(2);
        reg.machine(0).pool_hits.fetch_add(12, std::sync::atomic::Ordering::Relaxed);
        reg.machine(0).pool_misses.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
        reg.machine(1).pool_resident_bytes.fetch_add(8192, std::sync::atomic::Ordering::Relaxed);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE corm_pool_hits_total counter"));
        assert!(text.contains(r#"corm_pool_hits_total{machine="0"} 12"#));
        assert!(text.contains(r#"corm_pool_hits_total{machine="1"} 0"#));
        assert!(text.contains("# TYPE corm_pool_misses_total counter"));
        assert!(text.contains(r#"corm_pool_misses_total{machine="0"} 2"#));
        // resident bytes can shrink, so it is a gauge, not a counter
        assert!(text.contains("# TYPE corm_pool_resident_bytes gauge"));
        assert!(text.contains(r#"corm_pool_resident_bytes{machine="1"} 8192"#));
    }

    #[test]
    fn quantile_gauges_follow_each_histogram() {
        let reg = MetricsRegistry::new(2);
        for _ in 0..99 {
            reg.machine(0).rtt_us.record(100); // bucket le=111
        }
        reg.machine(0).rtt_us.record(100_000); // bucket le=114687
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE corm_rmi_rtt_microseconds_p50 gauge"));
        assert!(text.contains(r#"corm_rmi_rtt_microseconds_p50{machine="0"} 111"#));
        assert!(text.contains(r#"corm_rmi_rtt_microseconds_p99{machine="0"} 111"#));
        // p999 of 100 observations is the single 100 ms outlier.
        assert!(text.contains("# TYPE corm_rmi_rtt_microseconds_p999 gauge"));
        assert!(text.contains(r#"corm_rmi_rtt_microseconds_p999{machine="0"} 114687"#));
        // machine 1 recorded nothing: no gauge line rather than a fake 0
        assert!(!text.contains(r#"corm_rmi_rtt_microseconds_p50{machine="1"}"#));
        // every histogram family gets the derived gauges
        for fam in [
            "corm_marshal_microseconds",
            "corm_queue_microseconds",
            "corm_rmi_payload_bytes",
            "corm_site_rtt_microseconds",
        ] {
            assert!(text.contains(&format!("# TYPE {fam}_p50 gauge")), "{fam}");
            assert!(text.contains(&format!("# TYPE {fam}_p99 gauge")), "{fam}");
            assert!(text.contains(&format!("# TYPE {fam}_p999 gauge")), "{fam}");
        }
    }

    #[test]
    fn reactor_and_queue_series_are_exposed() {
        let reg = MetricsRegistry::new(2);
        let m0 = reg.machine(0);
        m0.reactor_frames_enqueued.fetch_add(20, std::sync::atomic::Ordering::Relaxed);
        m0.reactor_flush_batches.fetch_add(5, std::sync::atomic::Ordering::Relaxed);
        m0.reactor_flush_size.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
        m0.reactor_flush_deadline.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        m0.reactor_flush_idle.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
        m0.reactor_queued_bytes.fetch_add(4096, std::sync::atomic::Ordering::Relaxed);
        m0.reactor_conns_queued.fetch_add(3, std::sync::atomic::Ordering::Relaxed);
        m0.serve_queue_depth.fetch_add(11, std::sync::atomic::Ordering::Relaxed);
        m0.pool_outstanding.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
        m0.reactor_batch_bytes.record(8192);
        m0.reactor_loop_us.record(250);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE corm_reactor_frames_enqueued_total counter"));
        assert!(text.contains(r#"corm_reactor_frames_enqueued_total{machine="0"} 20"#));
        assert!(text.contains(r#"corm_reactor_frames_enqueued_total{machine="1"} 0"#));
        assert!(text.contains(r#"corm_reactor_flush_batches_total{machine="0"} 5"#));
        // the three reason counters partition flush_batches
        assert!(text.contains(r#"corm_reactor_flush_size_total{machine="0"} 2"#));
        assert!(text.contains(r#"corm_reactor_flush_deadline_total{machine="0"} 1"#));
        assert!(text.contains(r#"corm_reactor_flush_idle_total{machine="0"} 2"#));
        // occupancy can shrink: gauges, not counters
        assert!(text.contains("# TYPE corm_reactor_queued_bytes gauge"));
        assert!(text.contains(r#"corm_reactor_queued_bytes{machine="0"} 4096"#));
        assert!(text.contains("# TYPE corm_reactor_conns_queued gauge"));
        assert!(text.contains(r#"corm_reactor_conns_queued{machine="0"} 3"#));
        assert!(text.contains("# TYPE corm_serve_queue_depth gauge"));
        assert!(text.contains(r#"corm_serve_queue_depth{machine="0"} 11"#));
        assert!(text.contains("# TYPE corm_pool_outstanding gauge"));
        assert!(text.contains(r#"corm_pool_outstanding{machine="0"} 2"#));
        assert!(text.contains("# TYPE corm_reactor_batch_bytes histogram"));
        assert!(text.contains(r#"corm_reactor_batch_bytes_count{machine="0"} 1"#));
        assert!(text.contains(r#"corm_reactor_batch_bytes_sum{machine="0"} 8192"#));
        assert!(text.contains("# TYPE corm_reactor_loop_microseconds histogram"));
        assert!(text.contains(r#"corm_reactor_loop_microseconds_count{machine="0"} 1"#));
    }

    #[test]
    fn serving_series_are_exposed() {
        let reg = MetricsRegistry::new(2);
        reg.machine(0).queue_us.record(50);
        reg.machine(0).requests_started.fetch_add(7, std::sync::atomic::Ordering::Relaxed);
        reg.machine(0).requests_completed.fetch_add(6, std::sync::atomic::Ordering::Relaxed);
        reg.machine(0).in_flight.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE corm_queue_microseconds histogram"));
        assert!(text.contains(r#"corm_queue_microseconds_count{machine="0"} 1"#));
        assert!(text.contains("# TYPE corm_requests_started_total counter"));
        assert!(text.contains(r#"corm_requests_started_total{machine="0"} 7"#));
        assert!(text.contains(r#"corm_requests_completed_total{machine="0"} 6"#));
        // in-flight can shrink: gauge, not counter
        assert!(text.contains("# TYPE corm_in_flight_requests gauge"));
        assert!(text.contains(r#"corm_in_flight_requests{machine="0"} 1"#));
        assert!(text.contains(r#"corm_in_flight_requests{machine="1"} 0"#));
    }

    #[test]
    fn lossy_and_reply_cache_series_are_exposed() {
        let reg = MetricsRegistry::new(2);
        reg.machine(0).lossy_retransmits.fetch_add(5, std::sync::atomic::Ordering::Relaxed);
        reg.machine(1).lossy_dups_suppressed.fetch_add(3, std::sync::atomic::Ordering::Relaxed);
        reg.machine(1).reply_cache_hits.fetch_add(2, std::sync::atomic::Ordering::Relaxed);
        reg.machine(1).reply_cache_evictions.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        reg.machine(0).stale_replies.fetch_add(4, std::sync::atomic::Ordering::Relaxed);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE corm_lossy_retransmits_total counter"));
        assert!(text.contains(r#"corm_lossy_retransmits_total{machine="0"} 5"#));
        assert!(text.contains(r#"corm_lossy_retransmits_total{machine="1"} 0"#));
        assert!(text.contains("# TYPE corm_lossy_dups_suppressed_total counter"));
        assert!(text.contains(r#"corm_lossy_dups_suppressed_total{machine="1"} 3"#));
        assert!(text.contains("# TYPE corm_reply_cache_hits_total counter"));
        assert!(text.contains(r#"corm_reply_cache_hits_total{machine="1"} 2"#));
        assert!(text.contains("# TYPE corm_reply_cache_evictions_total counter"));
        assert!(text.contains(r#"corm_reply_cache_evictions_total{machine="1"} 1"#));
        assert!(text.contains("# TYPE corm_stale_replies_total counter"));
        assert!(text.contains(r#"corm_stale_replies_total{machine="0"} 4"#));
        assert!(text.contains(r#"corm_stale_replies_total{machine="1"} 0"#));
    }

    #[test]
    fn upcall_series_are_exposed_per_machine() {
        let reg = MetricsRegistry::new(2);
        reg.machine(1).upcalls.fetch_add(5, std::sync::atomic::Ordering::Relaxed);
        reg.machine(1).upcall_handoffs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE corm_upcalls_total counter"));
        assert!(text.contains(r#"corm_upcalls_total{machine="0"} 0"#));
        assert!(text.contains(r#"corm_upcalls_total{machine="1"} 5"#));
        assert!(text.contains("# TYPE corm_upcall_handoffs_total counter"));
        assert!(text.contains(r#"corm_upcall_handoffs_total{machine="1"} 1"#));
    }

    #[test]
    fn bucket_le_labels_stay_cumulative_and_sorted() {
        // Satellite guard for the log-linear layout: the `le` labels of
        // one rendered histogram must be strictly increasing and the
        // counts cumulative, ending in +Inf == count.
        let reg = MetricsRegistry::new(1);
        for v in [0, 3, 4, 5, 97, 100, 111, 112, 5_000, 1u64 << 33] {
            reg.machine(0).rtt_us.record(v);
        }
        let text = render_prometheus(&reg.snapshot());
        let mut les: Vec<u64> = Vec::new();
        let mut counts: Vec<u64> = Vec::new();
        let mut inf_count = None;
        for line in text.lines() {
            if let Some(rest) =
                line.strip_prefix("corm_rmi_rtt_microseconds_bucket{machine=\"0\",le=\"")
            {
                let (le, tail) = rest.split_once('"').unwrap();
                let count: u64 = tail.trim_start_matches('}').trim().parse().unwrap();
                if le == "+Inf" {
                    inf_count = Some(count);
                } else {
                    les.push(le.parse().unwrap());
                    counts.push(count);
                }
            }
        }
        assert!(les.len() >= 5, "expected several occupied buckets: {les:?}");
        assert!(les.windows(2).all(|w| w[0] < w[1]), "le labels must be sorted: {les:?}");
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "counts must be cumulative: {counts:?}");
        assert_eq!(inf_count, Some(10), "+Inf bucket equals the observation count");
        // 97, 100 and 111 share the [96,111] sub-bucket; 112 opens the
        // adjacent [112,127] one — distinctions the pure-log2 layout
        // collapsed into a single [64,127] bucket.
        assert!(text.contains(r#"le="111""#));
        assert!(text.contains(r#"le="127""#));
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let reg = MetricsRegistry::new(1);
        for v in [1, 2, 4, 8, 1000, 100000] {
            reg.machine(0).rtt_us.record(v);
        }
        let text = render_prometheus(&reg.snapshot());
        let mut last = 0u64;
        for line in text.lines() {
            if line.starts_with("corm_rmi_rtt_microseconds_bucket") {
                let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
                assert!(v >= last, "cumulative counts must be monotone: {line}");
                last = v;
            }
        }
        assert_eq!(last, 6, "+Inf bucket equals the count");
    }
}
