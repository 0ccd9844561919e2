//! Transport abstraction between simulated machines.
//!
//! [`NetHandle`] is the VM-facing fabric: it does *all* statistics
//! accounting (message counts, wire bytes, modeled wire time) before
//! handing the packet to the selected [`Transport`] backend, so counters
//! and Tables 4/6/8 accounting are identical no matter what carries the
//! bytes. Four backends exist: the in-process channel fabric in this
//! module (the default), the loopback-TCP mesh in [`crate::tcp`], the
//! reactor mesh in [`crate::reactor`] and the lossy datagram fabric in
//! [`crate::lossy`].
//!
//! Every backend hands received packets to the target machine's
//! [`Inbox`]: the mailbox sender plus an optional [`ReplySink`]. With a
//! sink installed, a `Reply` completes its caller on the thread that
//! received it and never enters the mailbox (DESIGN §17).

use std::fmt;
use std::io;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use corm_obs::{FlightRecorder, MetricsRegistry};
use corm_wire::RmiStats;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};

use crate::cost::CostModel;
use crate::lossy::{LossSpec, LossyTransport};
use crate::packet::Packet;
use crate::reactor::{BatchConfig, ReactorTransport};
use crate::tcp::TcpTransport;

/// Why a receive could not produce a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// The sending side is gone (fabric torn down or every sender
    /// dropped). Distinct from "no packet yet" so the drain loop can
    /// tell shutdown from quiescence.
    Disconnected,
}

/// Receiving end of one machine's network interface. The VM's drain loop
/// owns this (GM-style single drainer).
pub trait Mailbox: Send {
    /// The machine this mailbox belongs to.
    fn machine(&self) -> u16;

    /// Block until the next packet arrives.
    fn recv(&self) -> Result<Packet, RecvError>;

    /// Non-blocking poll (the paper's "allow the runtime system to poll
    /// for messages while the GM-poll-thread remains blocked").
    /// `Ok(None)` means "no packet yet".
    fn try_recv(&self) -> Result<Option<Packet>, RecvError>;
}

/// Every machine's receive side, indexed by machine id — what transport
/// constructors hand to the VM.
pub type Mailboxes = Vec<Box<dyn Mailbox>>;

/// Where a machine's replies go instead of its mailbox. The VM installs
/// one per machine, so the thread that receives a reply — the sender's
/// own thread on the channel fabric, a reader or event-loop thread on
/// the sockets, the fabric thread on lossy — completes the waiting call
/// directly, without a hop through the drain loop.
pub trait ReplySink: Send + Sync {
    /// Complete request `req_id` with its serialized return value, or
    /// with the remote exception text `err`.
    fn reply(&self, req_id: u64, payload: Vec<u8>, err: Option<String>);
}

/// One reply sink per machine, indexed by machine id.
pub type ReplySinks = Vec<Arc<dyn ReplySink>>;

/// One machine's delivery handle, shared by every thread that receives
/// packets for it: replies go to the sink when one is installed, every
/// other packet (and every reply without a sink) to the mailbox.
#[derive(Clone)]
pub(crate) struct Inbox {
    tx: Sender<Packet>,
    sink: Option<Arc<dyn ReplySink>>,
}

impl Inbox {
    /// Hand `packet` to the machine. Returns `false` when the mailbox is
    /// gone (the machine was already torn down).
    pub(crate) fn deliver(&self, packet: Packet) -> bool {
        match (packet, &self.sink) {
            (Packet::Reply { req_id, payload, err }, Some(sink)) => {
                sink.reply(req_id, payload, err);
                true
            }
            (packet, _) => self.tx.send(packet).is_ok(),
        }
    }
}

/// One inbox and one mailbox per machine. `sinks`, when given, holds one
/// reply sink per machine.
pub(crate) fn inboxes(n: usize, sinks: Option<ReplySinks>) -> (Mailboxes, Vec<Inbox>) {
    let mut sinks = sinks.map(Vec::into_iter);
    let mut mailboxes: Mailboxes = Vec::with_capacity(n);
    let mut inboxes = Vec::with_capacity(n);
    for i in 0..n {
        let (tx, rx) = unbounded();
        let sink = sinks.as_mut().map(|s| s.next().expect("one reply sink per machine"));
        inboxes.push(Inbox { tx, sink });
        mailboxes.push(Box::new(QueueMailbox { machine: i as u16, rx }));
    }
    (mailboxes, inboxes)
}

/// The receive side every backend shares: the queue its inbox feeds.
struct QueueMailbox {
    machine: u16,
    rx: Receiver<Packet>,
}

impl Mailbox for QueueMailbox {
    fn machine(&self) -> u16 {
        self.machine
    }

    fn recv(&self) -> Result<Packet, RecvError> {
        self.rx.recv().map_err(|_| RecvError::Disconnected)
    }

    fn try_recv(&self) -> Result<Option<Packet>, RecvError> {
        match self.rx.try_recv() {
            Ok(p) => Ok(Some(p)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(RecvError::Disconnected),
        }
    }
}

/// A packet carrier: moves already-accounted packets between machines.
/// Implementations must preserve per-(sender, receiver) FIFO order —
/// the only ordering the VM relies on.
pub trait Transport: Send + Sync {
    fn kind(&self) -> TransportKind;

    fn machines(&self) -> usize;

    /// Deliver `packet` to `to`'s mailbox. A delivery to a machine whose
    /// drain loop already exited is silently dropped, matching a network
    /// whose peer powered down during shutdown.
    fn deliver(&self, from: u16, to: u16, packet: Packet);

    /// Wall-clock nanoseconds packets spent in flight to `machine`
    /// (send to receive), as measured by the backend. Zero for backends
    /// that deliver by moving a pointer.
    fn measured_wire_ns(&self, machine: u16) -> u64;

    /// Fault injection: `machine` dies abruptly (power cord pulled). Its
    /// carriers are cut without an orderly shutdown; subsequent deliveries
    /// to or from it are dropped, and every *other* machine receives
    /// [`Packet::PeerGone`] for it — the signal the VM drain loop turns
    /// into failed replies.
    fn sever(&self, machine: u16);

    /// Orderly teardown: close carriers and join I/O threads so drops
    /// never hang. Idempotent.
    fn shutdown(&self);
}

/// Which backend carries the packets. Selected at run time
/// (`corm run --transport channel|tcp`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process lock-free channels; wire transit is modeled only.
    #[default]
    Channel,
    /// Real loopback TCP mesh; wire transit is additionally measured.
    Tcp,
    /// Nonblocking loopback TCP mesh multiplexed over a small fixed
    /// reactor pool (O(threads), not O(peers)), with adaptive write
    /// coalescing. Wire transit is additionally measured.
    Reactor,
    /// Datagram fabric behind a deterministic, seed-driven fault shim
    /// (drop/duplicate/reorder/delay) with sequence numbers, capped-
    /// backoff retransmission and receiver-side dedup providing
    /// selectable invocation semantics (default at-most-once). Wire
    /// transit is additionally measured, once per logical frame.
    Lossy,
}

impl TransportKind {
    pub fn label(&self) -> &'static str {
        match self {
            TransportKind::Channel => "channel",
            TransportKind::Tcp => "tcp",
            TransportKind::Reactor => "reactor",
            TransportKind::Lossy => "lossy",
        }
    }
}

impl fmt::Display for TransportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for TransportKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "channel" => Ok(TransportKind::Channel),
            "tcp" => Ok(TransportKind::Tcp),
            "reactor" => Ok(TransportKind::Reactor),
            "lossy" => Ok(TransportKind::Lossy),
            other => {
                Err(format!("unknown transport {other:?} (expected channel|tcp|reactor|lossy)"))
            }
        }
    }
}

/// The original in-process fabric: the sending thread delivers straight
/// into the target's inbox.
pub struct ChannelTransport {
    inboxes: Vec<Inbox>,
    /// Machines killed by [`Transport::sever`]: packets to or from them
    /// are dropped, mirroring the TCP backend's cut streams.
    severed: std::sync::Mutex<std::collections::HashSet<u16>>,
}

impl ChannelTransport {
    pub fn new(n: usize) -> (Mailboxes, Arc<ChannelTransport>) {
        let (mailboxes, inboxes) = inboxes(n, None);
        (mailboxes, ChannelTransport::from_inboxes(inboxes))
    }

    /// The fabric over inboxes built by [`inboxes`].
    pub(crate) fn from_inboxes(inboxes: Vec<Inbox>) -> Arc<ChannelTransport> {
        Arc::new(ChannelTransport { inboxes, severed: Default::default() })
    }
}

impl Transport for ChannelTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Channel
    }

    fn machines(&self) -> usize {
        self.inboxes.len()
    }

    fn deliver(&self, from: u16, to: u16, packet: Packet) {
        // PeerGone must still reach the survivors of a sever, and
        // Shutdown is harness teardown (it stops the host-side service
        // threads even of a "dead" machine), not cluster traffic.
        if !matches!(packet, Packet::PeerGone { .. } | Packet::Shutdown) {
            let severed = self.severed.lock().unwrap();
            if severed.contains(&from) || severed.contains(&to) {
                return; // the dead machine neither sends nor receives
            }
        }
        self.inboxes[to as usize].deliver(packet);
    }

    fn measured_wire_ns(&self, _machine: u16) -> u64 {
        0
    }

    fn sever(&self, machine: u16) {
        if !self.severed.lock().unwrap().insert(machine) {
            return; // already dead; one PeerGone per death
        }
        for (i, inbox) in self.inboxes.iter().enumerate() {
            if i as u16 != machine {
                inbox.deliver(Packet::PeerGone { peer: machine });
            }
        }
    }

    fn shutdown(&self) {}
}

/// Shared sending fabric: any thread can send to any machine.
#[derive(Clone)]
pub struct NetHandle {
    transport: Arc<dyn Transport>,
    /// Sharded per-machine metrics; wire traffic is accounted to the
    /// *sending* machine's shard (per-machine sums equal the old
    /// cluster-global totals exactly).
    pub obs: Arc<MetricsRegistry>,
    pub cost: CostModel,
    /// Accumulated modeled wire time over all messages, in nanoseconds.
    modeled_ns: Arc<AtomicU64>,
}

impl NetHandle {
    /// Create the default (channel) fabric for `n` machines. Returns one
    /// mailbox per machine plus the shared send handle.
    pub fn new(n: usize, cost: CostModel, obs: Arc<MetricsRegistry>) -> (Mailboxes, NetHandle) {
        Self::with_kind(TransportKind::Channel, n, cost, obs)
            .expect("channel transport cannot fail to construct")
    }

    /// Create the fabric on the selected backend. TCP construction can
    /// fail (socket limits, no loopback) — channel never does.
    pub fn with_kind(
        kind: TransportKind,
        n: usize,
        cost: CostModel,
        obs: Arc<MetricsRegistry>,
    ) -> io::Result<(Mailboxes, NetHandle)> {
        Self::with_kind_config(kind, n, cost, obs, None, None, None)
    }

    /// [`NetHandle::with_kind`] plus backend configuration the VM owns:
    /// the seeded loss model for the lossy backend (`None` selects
    /// [`LossSpec::default`]), the flight recorder that retransmit /
    /// dup-suppression events land in (both ignored by the reliable
    /// backends), and one [`ReplySink`] per machine. Without sinks every
    /// reply reaches its target's mailbox.
    pub fn with_kind_config(
        kind: TransportKind,
        n: usize,
        cost: CostModel,
        obs: Arc<MetricsRegistry>,
        loss: Option<LossSpec>,
        flight: Option<Arc<FlightRecorder>>,
        sinks: Option<ReplySinks>,
    ) -> io::Result<(Mailboxes, NetHandle)> {
        debug_assert!(obs.num_machines() >= n, "registry must cover every machine");
        let (mailboxes, inboxes) = inboxes(n, sinks);
        let transport: Arc<dyn Transport> = match kind {
            TransportKind::Channel => ChannelTransport::from_inboxes(inboxes),
            TransportKind::Tcp => TcpTransport::from_inboxes(inboxes)?,
            // The reactor feeds its deep gauges (coalescing counters,
            // flush reasons, buffer occupancy, loop latency) into the
            // registry shards for the timeline sampler.
            TransportKind::Reactor => {
                ReactorTransport::from_inboxes(inboxes, BatchConfig::default(), Some(obs.clone()))?
            }
            TransportKind::Lossy => LossyTransport::from_inboxes(
                inboxes,
                loss.unwrap_or_default(),
                Some(obs.clone()),
                flight,
            ),
        };
        Ok((mailboxes, NetHandle { transport, obs, cost, modeled_ns: Arc::new(AtomicU64::new(0)) }))
    }

    pub fn kind(&self) -> TransportKind {
        self.transport.kind()
    }

    pub fn machines(&self) -> usize {
        self.transport.machines()
    }

    /// Send `packet` to `to`, accounting wire bytes and modeled time.
    /// Loopback sends (local RPCs) are delivered but cost nothing on the
    /// modeled wire. Accounting happens *before* the backend is invoked,
    /// so counters are backend-independent.
    pub fn send(&self, from: u16, to: u16, packet: Packet) {
        let bytes = packet.wire_bytes();
        if !matches!(packet, Packet::Shutdown | Packet::PeerGone { .. }) {
            let stats = &self.obs.machine(from).stats;
            RmiStats::bump(&stats.messages, 1);
            RmiStats::bump(&stats.wire_bytes, bytes);
            if from != to {
                self.modeled_ns.fetch_add(self.cost.message_ns(bytes), Ordering::Relaxed);
            }
        }
        self.transport.deliver(from, to, packet);
    }

    pub fn modeled_ns(&self) -> u64 {
        self.modeled_ns.load(Ordering::Relaxed)
    }

    /// Add modeled time from a non-message source (e.g. allocation costs).
    pub fn add_modeled_ns(&self, ns: u64) {
        self.modeled_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub fn reset_modeled(&self) {
        self.modeled_ns.store(0, Ordering::Relaxed);
    }

    /// Measured in-flight wall time for packets received by `machine`
    /// (zero on the channel backend).
    pub fn measured_wire_ns(&self, machine: u16) -> u64 {
        self.transport.measured_wire_ns(machine)
    }

    /// Per-machine measured wire time, indexed by receiving machine.
    pub fn measured_wire_ns_per_machine(&self) -> Vec<u64> {
        (0..self.machines()).map(|m| self.transport.measured_wire_ns(m as u16)).collect()
    }

    /// Fault injection: kill `machine` abruptly (see [`Transport::sever`]).
    /// Survivors observe `PeerGone`; packets touching the dead machine
    /// are dropped from then on.
    pub fn sever(&self, machine: u16) {
        self.transport.sever(machine);
    }

    /// Tear down the backend (close sockets, join I/O threads). Safe to
    /// call more than once; required before dropping a TCP fabric to
    /// guarantee no thread is left blocked.
    pub fn shutdown(&self) {
        self.transport.shutdown();
    }
}

/// Cluster-wide barrier backing the `Cluster.barrier()` builtin: exactly
/// one thread per machine participates (the paper's LU uses this
/// pattern — per-machine workers synchronizing between phases).
pub struct ClusterBarrier {
    inner: std::sync::Barrier,
}

impl ClusterBarrier {
    pub fn new(parties: usize) -> Self {
        ClusterBarrier { inner: std::sync::Barrier::new(parties) }
    }

    pub fn wait(&self) {
        self.inner.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(n: usize) -> (Mailboxes, NetHandle) {
        NetHandle::new(n, CostModel::default(), Arc::new(MetricsRegistry::new(n)))
    }

    fn fabric_of(kind: TransportKind, n: usize) -> (Mailboxes, NetHandle) {
        NetHandle::with_kind(kind, n, CostModel::default(), Arc::new(MetricsRegistry::new(n)))
            .expect("fabric construction")
    }

    const ALL_KINDS: [TransportKind; 4] =
        [TransportKind::Channel, TransportKind::Tcp, TransportKind::Reactor, TransportKind::Lossy];

    #[test]
    fn point_to_point_delivery() {
        for kind in ALL_KINDS {
            let (mailboxes, net) = fabric_of(kind, 2);
            net.send(
                0,
                1,
                Packet::Request {
                    req_id: 7,
                    from: 0,
                    site: 3,
                    target_obj: 9,
                    payload: vec![1, 2, 3],
                    oneway: false,
                },
            );
            match mailboxes[1].recv().unwrap() {
                Packet::Request { req_id, site, payload, .. } => {
                    assert_eq!(req_id, 7);
                    assert_eq!(site, 3);
                    assert_eq!(payload, vec![1, 2, 3]);
                }
                other => panic!("unexpected {other:?}"),
            }
            assert_eq!(mailboxes[0].try_recv().unwrap(), None);
            net.shutdown();
        }
    }

    #[test]
    fn stats_and_modeled_time_accumulate() {
        let (_mb, net) = fabric(2);
        net.send(0, 1, Packet::Reply { req_id: 1, payload: vec![0; 1000], err: None });
        let snap = net.obs.cluster_snapshot();
        assert_eq!(snap.messages, 1);
        assert_eq!(snap.wire_bytes, 1016);
        assert_eq!(net.modeled_ns(), net.cost.message_ns(1016));
        // Accounted to the sender's shard, not the receiver's.
        assert_eq!(net.obs.machine(0).stats.snapshot().messages, 1);
        assert_eq!(net.obs.machine(1).stats.snapshot().messages, 0);
    }

    #[test]
    fn stats_are_identical_across_backends() {
        let mut snaps = Vec::new();
        for kind in ALL_KINDS {
            let (mailboxes, net) = fabric_of(kind, 2);
            net.send(0, 1, Packet::Reply { req_id: 1, payload: vec![0; 1000], err: None });
            net.send(1, 1, Packet::NewRemote { req_id: 2, from: 1, class: 0 });
            // Wait for actual delivery so TCP reader threads are done.
            mailboxes[1].recv().unwrap();
            mailboxes[1].recv().unwrap();
            snaps.push((net.obs.cluster_snapshot(), net.modeled_ns()));
            net.shutdown();
        }
        for (i, snap) in snaps.iter().enumerate().skip(1) {
            assert_eq!(&snaps[0], snap, "accounting must not depend on the backend ({i})");
        }
    }

    #[test]
    fn loopback_counts_stats_but_not_wire_time() {
        let (_mb, net) = fabric(2);
        net.send(1, 1, Packet::Reply { req_id: 1, payload: vec![0; 100], err: None });
        assert_eq!(net.obs.cluster_snapshot().messages, 1);
        assert_eq!(net.modeled_ns(), 0, "local RPCs do not cross the wire");
    }

    #[test]
    fn disconnect_is_distinguished_from_empty() {
        let (mailboxes, net) = fabric(1);
        assert_eq!(mailboxes[0].try_recv().unwrap(), None, "empty, not disconnected");
        drop(net);
        assert_eq!(mailboxes[0].recv(), Err(RecvError::Disconnected));
        assert_eq!(mailboxes[0].try_recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn transport_kind_parses() {
        assert_eq!("channel".parse::<TransportKind>().unwrap(), TransportKind::Channel);
        assert_eq!("tcp".parse::<TransportKind>().unwrap(), TransportKind::Tcp);
        assert_eq!("reactor".parse::<TransportKind>().unwrap(), TransportKind::Reactor);
        assert_eq!("lossy".parse::<TransportKind>().unwrap(), TransportKind::Lossy);
        assert_eq!(TransportKind::Lossy.to_string(), "lossy");
        assert!("gm".parse::<TransportKind>().is_err());
        assert_eq!(TransportKind::Tcp.to_string(), "tcp");
        assert_eq!(TransportKind::Reactor.to_string(), "reactor");
        assert_eq!(TransportKind::default(), TransportKind::Channel);
    }

    #[test]
    fn sever_notifies_survivors_and_drops_dead_traffic() {
        for kind in ALL_KINDS {
            let (mailboxes, net) = fabric_of(kind, 3);
            net.sever(1);
            for mb in [&mailboxes[0], &mailboxes[2]] {
                match mb.recv().unwrap() {
                    Packet::PeerGone { peer } => assert_eq!(peer, 1, "{kind:?}"),
                    other => panic!("{kind:?}: unexpected {other:?}"),
                }
            }
            // Traffic toward the dead peer is dropped, never hangs...
            net.send(0, 1, Packet::Reply { req_id: 1, payload: vec![], err: None });
            // ...and survivors still talk to each other.
            net.send(0, 2, Packet::Reply { req_id: 2, payload: vec![], err: None });
            match mailboxes[2].recv().unwrap() {
                Packet::Reply { req_id, .. } => assert_eq!(req_id, 2, "{kind:?}"),
                other => panic!("{kind:?}: unexpected {other:?}"),
            }
            net.shutdown();
        }
    }

    #[test]
    fn channel_sever_is_idempotent() {
        let (mailboxes, net) = fabric_of(TransportKind::Channel, 2);
        net.sever(1);
        net.sever(1);
        match mailboxes[0].recv().unwrap() {
            Packet::PeerGone { peer } => assert_eq!(peer, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(mailboxes[0].try_recv().unwrap(), None, "exactly one PeerGone per death");
        net.shutdown();
    }

    /// One reply as a sink saw it: request id, payload, error text.
    type Got = (u64, Vec<u8>, Option<String>);

    /// Records every reply handed to it, for the routing tests.
    #[derive(Default)]
    struct Collect(std::sync::Mutex<Vec<Got>>);

    impl ReplySink for Collect {
        fn reply(&self, req_id: u64, payload: Vec<u8>, err: Option<String>) {
            self.0.lock().unwrap().push((req_id, payload, err));
        }
    }

    /// Poll until `sink` holds `n` replies; wire backends deliver on
    /// their own threads.
    fn await_replies(sink: &Collect, n: usize, kind: TransportKind) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while sink.0.lock().unwrap().len() < n {
            assert!(
                std::time::Instant::now() < deadline,
                "{kind:?}: replies never reached the sink"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn replies_reach_the_sink_and_everything_else_the_mailbox() {
        for kind in ALL_KINDS {
            let n = 3;
            let collectors: Vec<Arc<Collect>> = (0..n).map(|_| Arc::default()).collect();
            let sinks: ReplySinks =
                collectors.iter().map(|c| c.clone() as Arc<dyn ReplySink>).collect();
            let (mailboxes, net) = NetHandle::with_kind_config(
                kind,
                n,
                CostModel::default(),
                Arc::new(MetricsRegistry::new(n)),
                None,
                None,
                Some(sinks),
            )
            .expect("fabric construction");
            let request = Packet::Request {
                req_id: 4,
                from: 0,
                site: 1,
                target_obj: 2,
                payload: vec![5],
                oneway: false,
            };
            // Machine 1 gets a request, a reply (cross-machine and
            // loopback) and an allocation, in that order.
            net.send(0, 1, request.clone());
            net.send(0, 1, Packet::Reply { req_id: 8, payload: vec![1, 2], err: None });
            net.send(1, 1, Packet::Reply { req_id: 9, payload: vec![], err: Some("e".into()) });
            net.send(0, 1, Packet::NewRemote { req_id: 10, from: 0, class: 3 });
            assert_eq!(mailboxes[1].recv().unwrap(), request, "{kind:?}");
            assert_eq!(
                mailboxes[1].recv().unwrap(),
                Packet::NewRemote { req_id: 10, from: 0, class: 3 },
                "{kind:?}: a reply reached the mailbox"
            );
            await_replies(&collectors[1], 2, kind);
            let mut got = collectors[1].0.lock().unwrap().clone();
            got.sort();
            assert_eq!(got, vec![(8, vec![1, 2], None), (9, vec![], Some("e".into()))], "{kind:?}");
            // PeerGone is a mailbox packet too.
            net.sever(2);
            assert_eq!(mailboxes[1].recv().unwrap(), Packet::PeerGone { peer: 2 }, "{kind:?}");
            assert_eq!(mailboxes[1].try_recv().unwrap(), None, "{kind:?}");
            assert!(collectors[0].0.lock().unwrap().is_empty(), "{kind:?}: wrong machine's sink");
            net.shutdown();
        }
    }

    #[test]
    fn without_sinks_replies_reach_the_mailbox() {
        for kind in ALL_KINDS {
            let (mailboxes, net) = fabric_of(kind, 2);
            net.send(0, 1, Packet::Reply { req_id: 3, payload: vec![7], err: None });
            net.send(1, 1, Packet::Reply { req_id: 4, payload: vec![], err: None });
            // Two links, so either may land first.
            let mut got: Vec<u64> = (0..2)
                .map(|_| match mailboxes[1].recv().unwrap() {
                    Packet::Reply { req_id, .. } => req_id,
                    other => panic!("{kind:?}: unexpected {other:?}"),
                })
                .collect();
            got.sort();
            assert_eq!(got, vec![3, 4], "{kind:?}");
            net.shutdown();
        }
    }

    #[test]
    fn barrier_synchronizes() {
        let b = Arc::new(ClusterBarrier::new(2));
        let b2 = b.clone();
        let t = std::thread::spawn(move || {
            b2.wait();
        });
        b.wait();
        t.join().unwrap();
    }

    #[test]
    fn threaded_cross_send() {
        let (mut mailboxes, net) = fabric(2);
        let mb1 = mailboxes.remove(1);
        let net2 = net.clone();
        let t = std::thread::spawn(move || {
            let mut got = 0;
            while got < 100 {
                if let Ok(Packet::Request { req_id, from, .. }) = mb1.recv() {
                    net2.send(1, from, Packet::Reply { req_id, payload: vec![], err: None });
                    got += 1;
                }
            }
        });
        let mb0 = &mailboxes[0];
        for i in 0..100u64 {
            net.send(
                0,
                1,
                Packet::Request {
                    req_id: i,
                    from: 0,
                    site: 0,
                    target_obj: 0,
                    payload: vec![],
                    oneway: false,
                },
            );
            match mb0.recv().unwrap() {
                Packet::Reply { req_id, .. } => assert_eq!(req_id, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        t.join().unwrap();
    }
}
