//! The sharded metrics registry.
//!
//! The seed implementation kept one cluster-global [`RmiStats`] that
//! every machine bumped; this registry shards the same counters per
//! machine (each machine's RMI path bumps only its own cache-local
//! shard) and adds latency/size histograms, plus per-call-site scopes.
//! [`MetricsRegistry::cluster_snapshot`] sums the shards back into the
//! exact [`StatsSnapshot`] the paper's tables are printed from — the
//! aggregation is bit-identical to the old global counters.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use corm_wire::{RmiStats, StatsSnapshot};
use parking_lot::Mutex;

use crate::hist::{HistSnapshot, Log2Histogram};
use crate::timeline::TimelineState;

/// One machine's metrics shard: the Tables 4/6/8 counters plus the
/// phase-latency and payload-size distributions observed on it.
#[derive(Debug, Default)]
pub struct MachineMetrics {
    /// The paper's counters, scoped to this machine.
    pub stats: RmiStats,
    /// Caller-observed RMI round-trip time, µs.
    pub rtt_us: Log2Histogram,
    /// Argument-marshal time at calling sites, µs.
    pub marshal_us: Log2Histogram,
    /// Unmarshal time (args on the serving side, returns on the calling
    /// side), µs.
    pub unmarshal_us: Log2Histogram,
    /// User-method execution time on the serving side, µs.
    pub invoke_us: Log2Histogram,
    /// Server-side queueing delay: time an incoming request spent
    /// between the drain loop enqueuing it and a worker dequeuing it, µs.
    /// The missing piece of the marshal/wire/unmarshal/invoke split under
    /// load — on a saturated machine it dominates the round trip.
    pub queue_us: Log2Histogram,
    /// Request payload bytes leaving this machine.
    pub payload_bytes: Log2Histogram,
    /// Two-way RMIs started from this machine (throughput numerator).
    pub requests_started: AtomicU64,
    /// Two-way RMIs completed successfully from this machine (goodput).
    pub requests_completed: AtomicU64,
    /// Two-way RMIs currently awaiting a reply (gauge: incremented at
    /// send, decremented when the reply is consumed or fails).
    pub in_flight: AtomicU64,
    /// Shadow-table cycle-freedom checks performed by the runtime auditor
    /// on this machine (`RunOptions::audit`). Zero when auditing is off.
    pub audit_checks: AtomicU64,
    /// Reuse-cache values (primitive slots, array elements, strings)
    /// poisoned by the auditor on this machine before deserialization
    /// reclaimed them. Zero when auditing is off; a healthy build
    /// overwrites every poisoned slot from the wire.
    pub audit_poisons: AtomicU64,
    /// Marshal-buffer pool checkouts served by a recycled buffer.
    pub pool_hits: AtomicU64,
    /// Pool checkouts that had to allocate (includes cold misses).
    pub pool_misses: AtomicU64,
    /// The subset of `pool_misses` that built the pool's working set: the
    /// first allocations for a (site, lane) key up to the per-key
    /// retention cap. `pool_misses - pool_cold_misses` is the
    /// steady-state miss count the alloc gate budgets at zero.
    pub pool_cold_misses: AtomicU64,
    /// Bytes of buffer capacity currently parked in this machine's pool
    /// shard (a gauge: grows on put, shrinks on checkout).
    pub pool_resident_bytes: AtomicU64,
    /// Pool-ledger entries currently outstanding: buffers checked out
    /// under a request id and not yet returned or abandoned (a gauge —
    /// monotone growth is the pool-leak health signature).
    pub pool_outstanding: AtomicU64,
    /// Requests parked in this machine's serve queue: enqueued by the
    /// drain loop, not yet picked up by a worker (a gauge). Upcalls never
    /// enter the queue.
    pub serve_queue_depth: AtomicU64,
    /// Requests the drain loop ran itself, as upcalls, instead of handing
    /// them to the worker pool (DESIGN §17).
    pub upcalls: AtomicU64,
    /// Upcalls that passed their step budget (or, without audit, reached
    /// a blocking operation) and handed the mailbox to a fresh drain
    /// thread.
    pub upcall_handoffs: AtomicU64,
    /// Reactor frames appended to this machine's append-buffers.
    /// Mirrors the reactor core's internal counter so the sampler and
    /// Prometheus exposition see it without reaching into corm-net.
    pub reactor_frames_enqueued: AtomicU64,
    /// Coalesced reactor batches fully flushed from this machine.
    pub reactor_flush_batches: AtomicU64,
    /// Flushes triggered by the size threshold (`flush_bytes`).
    pub reactor_flush_size: AtomicU64,
    /// Flushes triggered by the deadline sweep (`flush_deadline`).
    pub reactor_flush_deadline: AtomicU64,
    /// Inline flushes on an idle/cold connection (not under load).
    pub reactor_flush_idle: AtomicU64,
    /// Bytes sitting in this machine's reactor append-buffers awaiting
    /// flush (a gauge: append-buffer occupancy).
    pub reactor_queued_bytes: AtomicU64,
    /// Connections from this machine with frames queued (a gauge:
    /// per-connection outstanding-work population).
    pub reactor_conns_queued: AtomicU64,
    /// Per-flush batch size, bytes (recorded when a batch fully drains).
    pub reactor_batch_bytes: Log2Histogram,
    /// Reactor event-loop iteration latency, µs (wake to park). Shard
    /// index is the reactor thread index, which is always a valid
    /// machine index (the pool never outnumbers the machines).
    pub reactor_loop_us: Log2Histogram,
    /// Lossy backend: datagram copies this machine re-sent because no
    /// ack arrived before the retransmission timer fired. Charged to the
    /// *sending* machine's shard; zero on the reliable backends.
    pub lossy_retransmits: AtomicU64,
    /// Lossy backend: received datagram copies discarded as duplicates
    /// (sequence number already delivered or already buffered). Charged
    /// to the *receiving* machine's shard.
    pub lossy_dups_suppressed: AtomicU64,
    /// Server-side reply cache: requests answered from the cache instead
    /// of being re-executed — each hit is a duplicate invocation that
    /// at-most-once semantics suppressed above the transport.
    pub reply_cache_hits: AtomicU64,
    /// Reply-cache entries evicted by the capacity bound before any
    /// duplicate consulted them.
    pub reply_cache_evictions: AtomicU64,
    /// Replies that arrived for a call no longer waiting — a duplicate
    /// copy, or one landing after `PeerGone` failed the call — and were
    /// dropped.
    pub stale_replies: AtomicU64,
}

/// Per-call-site metrics (cluster-wide scope: a site's calls may
/// originate on any machine).
#[derive(Debug, Default)]
pub struct SiteMetrics {
    pub calls: AtomicU64,
    pub rtt_us: Log2Histogram,
    pub payload_bytes: Log2Histogram,
}

/// The cluster's metrics: one shard per machine, fixed at cluster
/// creation, plus a lazily-populated per-call-site table.
#[derive(Debug)]
pub struct MetricsRegistry {
    machines: Vec<MachineMetrics>,
    sites: Mutex<HashMap<u32, Arc<SiteMetrics>>>,
    timeline: TimelineState,
}

impl MetricsRegistry {
    pub fn new(machines: usize) -> Self {
        MetricsRegistry {
            machines: (0..machines).map(|_| MachineMetrics::default()).collect(),
            sites: Mutex::new(HashMap::new()),
            timeline: TimelineState::new(machines),
        }
    }

    /// The registry's timeline plane: per-machine sample rings filled by
    /// the background sampler plus the run's health findings (DESIGN §15).
    pub fn timeline(&self) -> &TimelineState {
        &self.timeline
    }

    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// The shard for `machine`. Hot path: no locking.
    #[inline]
    pub fn machine(&self, machine: u16) -> &MachineMetrics {
        &self.machines[machine as usize]
    }

    /// The per-site scope for `site`, created on first use.
    pub fn site(&self, site: u32) -> Arc<SiteMetrics> {
        self.sites.lock().entry(site).or_default().clone()
    }

    /// Sum the per-machine shards into the cluster-global snapshot —
    /// the exact quantity the seed's single `RmiStats` produced.
    pub fn cluster_snapshot(&self) -> StatsSnapshot {
        self.machines.iter().fold(StatsSnapshot::default(), |acc, m| acc + m.stats.snapshot())
    }

    /// Zero every counter, histogram, and per-site scope. A registry is
    /// normally scoped to a single run (each `run_program` builds its
    /// own), so this exists for harnesses that hold one registry across
    /// several measured sections and must guarantee no bleed-through.
    /// Callers must quiesce the cluster first — reset is not atomic with
    /// respect to concurrent recorders.
    pub fn reset(&self) {
        for m in &self.machines {
            m.stats.reset();
            m.rtt_us.reset();
            m.marshal_us.reset();
            m.unmarshal_us.reset();
            m.invoke_us.reset();
            m.queue_us.reset();
            m.payload_bytes.reset();
            m.requests_started.store(0, Ordering::Relaxed);
            m.requests_completed.store(0, Ordering::Relaxed);
            m.in_flight.store(0, Ordering::Relaxed);
            m.audit_checks.store(0, Ordering::Relaxed);
            m.audit_poisons.store(0, Ordering::Relaxed);
            m.pool_hits.store(0, Ordering::Relaxed);
            m.pool_misses.store(0, Ordering::Relaxed);
            m.pool_cold_misses.store(0, Ordering::Relaxed);
            m.pool_resident_bytes.store(0, Ordering::Relaxed);
            m.pool_outstanding.store(0, Ordering::Relaxed);
            m.serve_queue_depth.store(0, Ordering::Relaxed);
            m.upcalls.store(0, Ordering::Relaxed);
            m.upcall_handoffs.store(0, Ordering::Relaxed);
            m.reactor_frames_enqueued.store(0, Ordering::Relaxed);
            m.reactor_flush_batches.store(0, Ordering::Relaxed);
            m.reactor_flush_size.store(0, Ordering::Relaxed);
            m.reactor_flush_deadline.store(0, Ordering::Relaxed);
            m.reactor_flush_idle.store(0, Ordering::Relaxed);
            m.reactor_queued_bytes.store(0, Ordering::Relaxed);
            m.reactor_conns_queued.store(0, Ordering::Relaxed);
            m.reactor_batch_bytes.reset();
            m.reactor_loop_us.reset();
            m.lossy_retransmits.store(0, Ordering::Relaxed);
            m.lossy_dups_suppressed.store(0, Ordering::Relaxed);
            m.reply_cache_hits.store(0, Ordering::Relaxed);
            m.reply_cache_evictions.store(0, Ordering::Relaxed);
            m.stale_replies.store(0, Ordering::Relaxed);
        }
        self.sites.lock().clear();
        self.timeline.clear();
    }

    /// Plain-value copy of one machine shard, lock-free. The sampler
    /// calls this every tick, so it deliberately skips the site table
    /// (which would take the `sites` mutex).
    pub fn machine_snapshot(&self, machine: u16) -> MachineSnapshot {
        let m = &self.machines[machine as usize];
        MachineSnapshot {
            stats: m.stats.snapshot(),
            rtt_us: m.rtt_us.snapshot(),
            marshal_us: m.marshal_us.snapshot(),
            unmarshal_us: m.unmarshal_us.snapshot(),
            invoke_us: m.invoke_us.snapshot(),
            queue_us: m.queue_us.snapshot(),
            payload_bytes: m.payload_bytes.snapshot(),
            requests_started: m.requests_started.load(Ordering::Relaxed),
            requests_completed: m.requests_completed.load(Ordering::Relaxed),
            in_flight: m.in_flight.load(Ordering::Relaxed),
            audit_checks: m.audit_checks.load(Ordering::Relaxed),
            audit_poisons: m.audit_poisons.load(Ordering::Relaxed),
            pool_hits: m.pool_hits.load(Ordering::Relaxed),
            pool_misses: m.pool_misses.load(Ordering::Relaxed),
            pool_cold_misses: m.pool_cold_misses.load(Ordering::Relaxed),
            pool_resident_bytes: m.pool_resident_bytes.load(Ordering::Relaxed),
            pool_outstanding: m.pool_outstanding.load(Ordering::Relaxed),
            serve_queue_depth: m.serve_queue_depth.load(Ordering::Relaxed),
            upcalls: m.upcalls.load(Ordering::Relaxed),
            upcall_handoffs: m.upcall_handoffs.load(Ordering::Relaxed),
            reactor_frames_enqueued: m.reactor_frames_enqueued.load(Ordering::Relaxed),
            reactor_flush_batches: m.reactor_flush_batches.load(Ordering::Relaxed),
            reactor_flush_size: m.reactor_flush_size.load(Ordering::Relaxed),
            reactor_flush_deadline: m.reactor_flush_deadline.load(Ordering::Relaxed),
            reactor_flush_idle: m.reactor_flush_idle.load(Ordering::Relaxed),
            reactor_queued_bytes: m.reactor_queued_bytes.load(Ordering::Relaxed),
            reactor_conns_queued: m.reactor_conns_queued.load(Ordering::Relaxed),
            reactor_batch_bytes: m.reactor_batch_bytes.snapshot(),
            reactor_loop_us: m.reactor_loop_us.snapshot(),
            lossy_retransmits: m.lossy_retransmits.load(Ordering::Relaxed),
            lossy_dups_suppressed: m.lossy_dups_suppressed.load(Ordering::Relaxed),
            reply_cache_hits: m.reply_cache_hits.load(Ordering::Relaxed),
            reply_cache_evictions: m.reply_cache_evictions.load(Ordering::Relaxed),
            stale_replies: m.stale_replies.load(Ordering::Relaxed),
        }
    }

    /// Plain-value copy of every scope, for rendering after a run.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let machines = (0..self.machines.len()).map(|m| self.machine_snapshot(m as u16)).collect();
        let mut sites: Vec<SiteSnapshot> = self
            .sites
            .lock()
            .iter()
            .map(|(&site, m)| SiteSnapshot {
                site,
                calls: m.calls.load(Ordering::Relaxed),
                rtt_us: m.rtt_us.snapshot(),
                payload_bytes: m.payload_bytes.snapshot(),
            })
            .collect();
        sites.sort_by_key(|s| s.site);
        MetricsSnapshot { machines, sites }
    }
}

/// Plain-value copy of one machine shard.
#[derive(Debug, Clone, Copy, Default)]
pub struct MachineSnapshot {
    pub stats: StatsSnapshot,
    pub rtt_us: HistSnapshot,
    pub marshal_us: HistSnapshot,
    pub unmarshal_us: HistSnapshot,
    pub invoke_us: HistSnapshot,
    pub queue_us: HistSnapshot,
    pub payload_bytes: HistSnapshot,
    pub requests_started: u64,
    pub requests_completed: u64,
    pub in_flight: u64,
    pub audit_checks: u64,
    pub audit_poisons: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub pool_cold_misses: u64,
    pub pool_resident_bytes: u64,
    pub pool_outstanding: u64,
    pub serve_queue_depth: u64,
    pub upcalls: u64,
    pub upcall_handoffs: u64,
    pub reactor_frames_enqueued: u64,
    pub reactor_flush_batches: u64,
    pub reactor_flush_size: u64,
    pub reactor_flush_deadline: u64,
    pub reactor_flush_idle: u64,
    pub reactor_queued_bytes: u64,
    pub reactor_conns_queued: u64,
    pub reactor_batch_bytes: HistSnapshot,
    pub reactor_loop_us: HistSnapshot,
    pub lossy_retransmits: u64,
    pub lossy_dups_suppressed: u64,
    pub reply_cache_hits: u64,
    pub reply_cache_evictions: u64,
    pub stale_replies: u64,
}

impl MachineSnapshot {
    /// Pool misses beyond the working-set build-up — the quantity
    /// `bench_gate --alloc-gate` requires to be zero for the paper apps.
    pub fn pool_steady_misses(&self) -> u64 {
        self.pool_misses.saturating_sub(self.pool_cold_misses)
    }
}

/// Plain-value copy of one call site's scope.
#[derive(Debug, Clone, Copy)]
pub struct SiteSnapshot {
    pub site: u32,
    pub calls: u64,
    pub rtt_us: HistSnapshot,
    pub payload_bytes: HistSnapshot,
}

/// Plain-value copy of the whole registry at one instant.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub machines: Vec<MachineSnapshot>,
    pub sites: Vec<SiteSnapshot>,
}

impl MetricsSnapshot {
    /// Cluster aggregate of the per-machine counter shards.
    pub fn cluster_stats(&self) -> StatsSnapshot {
        self.machines.iter().fold(StatsSnapshot::default(), |acc, m| acc + m.stats)
    }

    /// Cluster aggregate of one histogram across machines.
    pub fn cluster_hist(&self, f: impl Fn(&MachineSnapshot) -> &HistSnapshot) -> HistSnapshot {
        let mut out = HistSnapshot::default();
        for m in &self.machines {
            out.merge(f(m));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_sum_into_cluster_snapshot() {
        let reg = MetricsRegistry::new(3);
        RmiStats::bump(&reg.machine(0).stats.remote_rpcs, 2);
        RmiStats::bump(&reg.machine(1).stats.remote_rpcs, 3);
        RmiStats::bump(&reg.machine(2).stats.wire_bytes, 100);
        let snap = reg.cluster_snapshot();
        assert_eq!(snap.remote_rpcs, 5);
        assert_eq!(snap.wire_bytes, 100);
        let ms = reg.snapshot();
        assert_eq!(ms.cluster_stats(), snap);
    }

    #[test]
    fn site_scope_is_shared_across_lookups() {
        let reg = MetricsRegistry::new(1);
        reg.site(7).calls.fetch_add(1, Ordering::Relaxed);
        reg.site(7).calls.fetch_add(1, Ordering::Relaxed);
        reg.site(9).calls.fetch_add(1, Ordering::Relaxed);
        let snap = reg.snapshot();
        assert_eq!(snap.sites.len(), 2);
        assert_eq!(snap.sites[0].site, 7);
        assert_eq!(snap.sites[0].calls, 2);
        assert_eq!(snap.sites[1].calls, 1);
    }

    #[test]
    fn reset_clears_every_scope() {
        let reg = MetricsRegistry::new(2);
        RmiStats::bump(&reg.machine(0).stats.remote_rpcs, 4);
        reg.machine(1).rtt_us.record(10);
        reg.site(3).calls.fetch_add(1, Ordering::Relaxed);
        reg.reset();
        assert_eq!(reg.cluster_snapshot(), StatsSnapshot::default());
        let snap = reg.snapshot();
        assert!(snap.sites.is_empty(), "site scopes must be dropped");
        assert_eq!(snap.cluster_hist(|m| &m.rtt_us).count, 0);
    }

    #[test]
    fn reset_clears_serving_metrics() {
        // Regression guard for the serving-benchmark metrics: a second
        // measured section must not see the first one's queueing delays,
        // throughput counters or in-flight gauge.
        let reg = MetricsRegistry::new(2);
        reg.machine(0).queue_us.record(42);
        reg.machine(1).queue_us.record(7);
        reg.machine(0).requests_started.fetch_add(10, Ordering::Relaxed);
        reg.machine(0).requests_completed.fetch_add(9, Ordering::Relaxed);
        reg.machine(0).in_flight.fetch_add(1, Ordering::Relaxed);
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.cluster_hist(|m| &m.queue_us).count, 0);
        for m in &snap.machines {
            assert_eq!(m.requests_started, 0);
            assert_eq!(m.requests_completed, 0);
            assert_eq!(m.in_flight, 0);
        }
    }

    #[test]
    fn audit_counters_snapshot_and_reset() {
        let reg = MetricsRegistry::new(2);
        reg.machine(0).audit_checks.fetch_add(5, Ordering::Relaxed);
        reg.machine(1).audit_checks.fetch_add(2, Ordering::Relaxed);
        reg.machine(1).audit_poisons.fetch_add(1, Ordering::Relaxed);
        let snap = reg.snapshot();
        assert_eq!(snap.machines[0].audit_checks, 5);
        assert_eq!(snap.machines[1].audit_checks, 2);
        assert_eq!(snap.machines[1].audit_poisons, 1);
        reg.reset();
        let snap = reg.snapshot();
        assert_eq!(snap.machines.iter().map(|m| m.audit_checks).sum::<u64>(), 0);
        assert_eq!(snap.machines.iter().map(|m| m.audit_poisons).sum::<u64>(), 0);
    }

    #[test]
    fn pool_counters_snapshot_reset_and_steady_miss_math() {
        let reg = MetricsRegistry::new(2);
        reg.machine(0).pool_hits.fetch_add(10, Ordering::Relaxed);
        reg.machine(0).pool_misses.fetch_add(3, Ordering::Relaxed);
        reg.machine(0).pool_cold_misses.fetch_add(2, Ordering::Relaxed);
        reg.machine(1).pool_resident_bytes.fetch_add(4096, Ordering::Relaxed);
        let snap = reg.snapshot();
        assert_eq!(snap.machines[0].pool_hits, 10);
        assert_eq!(snap.machines[0].pool_misses, 3);
        assert_eq!(snap.machines[0].pool_cold_misses, 2);
        assert_eq!(snap.machines[0].pool_steady_misses(), 1);
        assert_eq!(snap.machines[1].pool_resident_bytes, 4096);
        assert_eq!(snap.machines[1].pool_steady_misses(), 0);
        reg.reset();
        let snap = reg.snapshot();
        for m in &snap.machines {
            assert_eq!(m.pool_hits + m.pool_misses + m.pool_resident_bytes, 0);
        }
    }

    #[test]
    fn reactor_and_queue_scopes_snapshot_and_reset() {
        let reg = MetricsRegistry::new(2);
        reg.machine(0).serve_queue_depth.fetch_add(3, Ordering::Relaxed);
        reg.machine(0).pool_outstanding.fetch_add(2, Ordering::Relaxed);
        reg.machine(1).reactor_frames_enqueued.fetch_add(10, Ordering::Relaxed);
        reg.machine(1).reactor_flush_batches.fetch_add(4, Ordering::Relaxed);
        reg.machine(1).reactor_flush_size.fetch_add(1, Ordering::Relaxed);
        reg.machine(1).reactor_flush_deadline.fetch_add(2, Ordering::Relaxed);
        reg.machine(1).reactor_flush_idle.fetch_add(1, Ordering::Relaxed);
        reg.machine(1).reactor_queued_bytes.fetch_add(512, Ordering::Relaxed);
        reg.machine(1).reactor_conns_queued.fetch_add(1, Ordering::Relaxed);
        reg.machine(1).reactor_batch_bytes.record(512);
        reg.machine(1).reactor_loop_us.record(40);
        reg.timeline().push(0, crate::timeline::TimelineSample::default());
        let snap = reg.snapshot();
        assert_eq!(snap.machines[0].serve_queue_depth, 3);
        assert_eq!(snap.machines[0].pool_outstanding, 2);
        assert_eq!(snap.machines[1].reactor_frames_enqueued, 10);
        assert_eq!(snap.machines[1].reactor_flush_batches, 4);
        assert_eq!(
            snap.machines[1].reactor_flush_size
                + snap.machines[1].reactor_flush_deadline
                + snap.machines[1].reactor_flush_idle,
            snap.machines[1].reactor_flush_batches,
            "flush reasons partition the batch count"
        );
        assert_eq!(snap.machines[1].reactor_queued_bytes, 512);
        assert_eq!(snap.machines[1].reactor_conns_queued, 1);
        assert_eq!(snap.machines[1].reactor_batch_bytes.count, 1);
        assert_eq!(snap.machines[1].reactor_loop_us.count, 1);
        assert_eq!(reg.timeline().len(0), 1);
        reg.reset();
        let snap = reg.snapshot();
        for m in &snap.machines {
            assert_eq!(
                m.serve_queue_depth
                    + m.pool_outstanding
                    + m.reactor_frames_enqueued
                    + m.reactor_flush_batches
                    + m.reactor_flush_size
                    + m.reactor_flush_deadline
                    + m.reactor_flush_idle
                    + m.reactor_queued_bytes
                    + m.reactor_conns_queued,
                0
            );
            assert_eq!(m.reactor_batch_bytes.count, 0);
            assert_eq!(m.reactor_loop_us.count, 0);
        }
        assert!(reg.timeline().is_empty(0), "reset drops the timeline rings");
    }

    #[test]
    fn lossy_and_reply_cache_counters_snapshot_and_reset() {
        let reg = MetricsRegistry::new(2);
        reg.machine(0).lossy_retransmits.fetch_add(4, Ordering::Relaxed);
        reg.machine(1).lossy_dups_suppressed.fetch_add(3, Ordering::Relaxed);
        reg.machine(1).reply_cache_hits.fetch_add(2, Ordering::Relaxed);
        reg.machine(1).reply_cache_evictions.fetch_add(1, Ordering::Relaxed);
        reg.machine(0).stale_replies.fetch_add(6, Ordering::Relaxed);
        let snap = reg.snapshot();
        assert_eq!(snap.machines[0].lossy_retransmits, 4);
        assert_eq!(snap.machines[1].lossy_dups_suppressed, 3);
        assert_eq!(snap.machines[1].reply_cache_hits, 2);
        assert_eq!(snap.machines[1].reply_cache_evictions, 1);
        assert_eq!(snap.machines[0].stale_replies, 6);
        reg.reset();
        let snap = reg.snapshot();
        for m in &snap.machines {
            assert_eq!(
                m.lossy_retransmits
                    + m.lossy_dups_suppressed
                    + m.reply_cache_hits
                    + m.reply_cache_evictions
                    + m.stale_replies,
                0
            );
        }
    }

    #[test]
    fn cluster_hist_merges_machines() {
        let reg = MetricsRegistry::new(2);
        reg.machine(0).rtt_us.record(10);
        reg.machine(1).rtt_us.record(20);
        let snap = reg.snapshot();
        let agg = snap.cluster_hist(|m| &m.rtt_us);
        assert_eq!(agg.count, 2);
        assert_eq!(agg.sum, 30);
    }

    #[test]
    fn merged_quantiles_stay_within_per_shard_extremes() {
        // Shards record very different ranges (a fast machine and a slow
        // one); the merged quantile must lie within the envelope of the
        // per-shard distributions, and between the per-shard quantiles
        // themselves (mixture quantiles interpolate their components).
        let reg = MetricsRegistry::new(3);
        for v in 10..60 {
            reg.machine(0).rtt_us.record(v); // fast shard
        }
        for v in 1_000..1_200 {
            reg.machine(1).rtt_us.record(v); // slow shard
        }
        // machine 2 records nothing — an idle shard must not drag the
        // merged quantiles toward zero.
        let snap = reg.snapshot();
        let merged = snap.cluster_hist(|m| &m.rtt_us);
        assert_eq!(merged.count, 250);
        let min_lower = snap.machines.iter().map(|m| m.rtt_us.min_lower()).filter(|&v| v > 0);
        let max_le = snap.machines.iter().map(|m| m.rtt_us.max_le()).max().unwrap();
        let envelope_lo = min_lower.min().unwrap();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let v = merged.quantile(q);
            assert!(v >= envelope_lo, "q{q}: {v} below every shard's minimum");
            assert!(v <= max_le, "q{q}: {v} above every shard's maximum");
            let per_shard: Vec<u64> = snap
                .machines
                .iter()
                .filter(|m| m.rtt_us.count > 0)
                .map(|m| m.rtt_us.quantile(q))
                .collect();
            let lo = *per_shard.iter().min().unwrap();
            let hi = *per_shard.iter().max().unwrap();
            assert!(v >= lo && v <= hi, "q{q}: merged {v} outside shard quantiles [{lo},{hi}]");
        }
        // Four fifths of the mass is in the slow shard, so the merged
        // tail must come from it.
        assert!(merged.quantile(0.999) >= 1_000);
    }
}
