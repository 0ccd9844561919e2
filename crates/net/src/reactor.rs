//! Reactor backend: the same loopback-TCP full mesh as [`crate::tcp`],
//! multiplexed over a *small fixed pool* of event-loop threads instead
//! of one reader thread per directed connection.
//!
//! The thread-per-peer mesh costs O(N²) threads cluster-wide (every
//! machine parks one OS thread per peer), which caps how far the
//! serving scenarios can scale. Here every stream is nonblocking and a
//! pool of at most [`MAX_REACTORS`] reactor threads — O(threads), not
//! O(peers) — owns a static partition of all inbound and outbound
//! connections. Multiple requests stay in flight per peer: frames carry
//! request ids end-to-end and the VM's reply sink matches replies by id
//! (`crates/vm/src/machine.rs`), so nothing here assumes call/reply
//! lockstep.
//!
//! **Adaptive batching (Nagle with a bounded deadline).** Each directed
//! connection owns one outbound byte buffer. A send appends a complete
//! frame ([`Packet::encode_frame_append`]) and then decides: on a cold
//! connection (fewer than `batch_after` sends in the current load
//! window) it flushes inline immediately, so request/reply latency under
//! light load matches the blocking backend. Under burst load the frame
//! is left in the buffer to coalesce with its successors, and the
//! reactor flushes the whole batch in one write when it exceeds
//! `flush_bytes` or when the oldest queued frame has waited
//! `flush_deadline` — the deadline bounds the latency a batched frame
//! can be charged, and it is what flushes the tail when the burst goes
//! idle. Frame timestamps are stamped at *enqueue*, so time spent parked
//! in the batch buffer is visible as measured wire time, not hidden.
//!
//! **Readiness.** There is no epoll in std and no external event
//! library in this build, so read-readiness is signaled in-process: the
//! cluster is simulated inside one process, and whichever thread flushes
//! bytes into a socket marks the receiving side's stream dirty and
//! unparks the reactor that owns it. A periodic full sweep (every
//! [`SWEEP`]) backstops lost hints and notices streams cut by
//! [`Transport::sever`]. A port to a real multi-host deployment would
//! swap the hint for epoll/kqueue registration without touching the
//! rest of the architecture.
//!
//! Failure semantics mirror the TCP backend exactly: a failed write
//! retires the connection, discards the batch, and reports
//! [`Packet::PeerGone`] to the *sender's* own mailbox; a stream dying
//! outside an orderly shutdown reports `PeerGone` to the receiver. A
//! coalesced batch torn by a peer kill therefore still fails every
//! pending call as an orderly remote error.

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use corm_obs::MetricsRegistry;

use crate::packet::Packet;
use crate::tcp::{lock, open_stream, HELLO_MAGIC, MAX_FRAME};
use crate::transport::{inboxes, Inbox, Mailboxes, Transport, TransportKind};

/// Hard cap on reactor threads, regardless of cluster size.
const MAX_REACTORS: usize = 4;

/// Period of the safety-net full sweep (and the longest a reactor
/// parks): catches hints lost to races and streams cut by `sever`.
const SWEEP: Duration = Duration::from_millis(10);

/// Retry interval when a flush hit socket backpressure (`WouldBlock`
/// with bytes still queued).
const BACKPRESSURE_RETRY: Duration = Duration::from_micros(100);

/// Blocking hello reads during bring-up get the same bound as TCP.
const HELLO_TIMEOUT: Duration = Duration::from_secs(10);

/// Knobs of the adaptive-Nagle heuristic. The defaults are what
/// `--transport reactor` runs; tests pin specific behaviors (coalescing,
/// deadline flush) by constructing [`ReactorTransport::with_config`]
/// with exaggerated values.
#[derive(Debug, Clone, Copy)]
pub struct BatchConfig {
    /// A batch this large is flushed immediately, even mid-burst.
    pub flush_bytes: usize,
    /// Longest a queued frame may wait before the reactor flushes it.
    pub flush_deadline: Duration,
    /// Sends within `window` after which a connection counts as "under
    /// load" and starts batching. `0` batches every send (pure Nagle).
    pub batch_after: u32,
    /// Width of the load-detection window.
    pub window: Duration,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            flush_bytes: 32 * 1024,
            flush_deadline: Duration::from_micros(200),
            batch_after: 8,
            window: Duration::from_micros(200),
        }
    }
}

/// Sending side of one (from → to) connection. The buffer holds whole
/// frames; `start` marks how far a partial flush got.
struct Outbound {
    buf: Vec<u8>,
    start: usize,
    /// When the oldest still-queued frame was enqueued; drives the
    /// flush deadline.
    queued_since: Option<Instant>,
    /// Load-detection window for the adaptive part of the heuristic.
    window_start: Option<Instant>,
    window_sends: u32,
    /// Set when a write failed or the peer was severed: the connection
    /// drops traffic from then on (PeerGone was already reported).
    dead: bool,
}

impl Outbound {
    fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

struct Conn {
    from: u16,
    to: u16,
    /// Index of the reactor thread that flushes this connection's
    /// deadline-due batches.
    owner: usize,
    stream: TcpStream,
    /// Advisory mirror of `out.pending() > 0`, so the reactor can skip
    /// idle connections without taking the lock. Mutated only under the
    /// `out` lock.
    has_queued: AtomicBool,
    out: Mutex<Outbound>,
}

/// Read-readiness hint for one inbound stream: set by whoever flushed
/// bytes toward it, cleared by the owning reactor before pumping.
struct Hint {
    dirty: Arc<AtomicBool>,
    owner: usize,
}

/// One inbound (peer → me) stream with its frame-reassembly buffer.
/// Owned exclusively by one reactor thread.
struct Inbound {
    stream: TcpStream,
    peer: u16,
    me: u16,
    acc: Vec<u8>,
    dirty: Arc<AtomicBool>,
    done: bool,
}

/// State shared between the transport handle and the reactor threads.
/// Kept separate from [`ReactorTransport`] so thread closures hold no
/// `Arc` cycle through the struct that joins them.
struct Core {
    epoch: Instant,
    cfg: BatchConfig,
    inboxes: Vec<Inbox>,
    measured_ns: Vec<AtomicU64>,
    shutting_down: AtomicBool,
    /// `hints[from][to]`: readiness of the (from → to) inbound stream on
    /// machine `to`'s side. Diagonal (and never-established) entries are
    /// `None`.
    hints: Vec<Vec<Option<Hint>>>,
    reactor_threads: OnceLock<Vec<Thread>>,
    /// Frames that entered an outbound buffer (coalescing denominator).
    frames_enqueued: AtomicU64,
    /// Fully drained flushes (coalescing numerator: under burst load
    /// many frames leave per batch, so this stays well below
    /// `frames_enqueued`).
    flush_batches: AtomicU64,
    /// Metrics registry for the deep gauges the timeline sampler reads
    /// (per-machine frames/batches/flush reasons, append-buffer
    /// occupancy, loop latency). `None` for transports built outside a
    /// cluster (unit tests): the internal counters above still work.
    obs: Option<Arc<MetricsRegistry>>,
}

/// Why a batch left the wire — the per-reason counters split the
/// flush_batches total three ways (size/deadline/idle).
#[derive(Debug, Clone, Copy)]
enum FlushReason {
    /// The batch crossed `flush_bytes`.
    Size,
    /// The oldest queued frame hit `flush_deadline` (includes the
    /// reactor's idle-tail sweep — both are deadline-driven).
    Deadline,
    /// Inline flush on a connection not under load (cold path: latency
    /// over coalescing).
    Idle,
}

impl Core {
    fn unpark(&self, owner: usize) {
        if let Some(threads) = self.reactor_threads.get() {
            threads[owner].unpark();
        }
    }

    /// Mark the (from → to) inbound stream dirty and wake its reactor.
    fn hint(&self, from: u16, to: u16) {
        if let Some(h) = &self.hints[from as usize][to as usize] {
            h.dirty.store(true, Ordering::Release);
            self.unpark(h.owner);
        }
    }

    /// Bookkeep a `has_queued` false→true transition (connection gained
    /// queued work). Call with `o` locked; returns the prior value.
    fn mark_queued(&self, conn: &Conn) -> bool {
        let was = conn.has_queued.swap(true, Ordering::AcqRel);
        if !was {
            if let Some(obs) = &self.obs {
                obs.machine(conn.from).reactor_conns_queued.fetch_add(1, Ordering::Relaxed);
            }
        }
        was
    }

    /// Bookkeep a `has_queued` true→false transition (buffer drained or
    /// dropped). Call with `o` locked.
    fn mark_drained(&self, conn: &Conn) {
        if conn.has_queued.swap(false, Ordering::AcqRel) {
            if let Some(obs) = &self.obs {
                obs.machine(conn.from).reactor_conns_queued.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Write as much of the batch as the socket accepts right now.
    /// Returns true if any bytes moved. Call with `o` locked.
    fn flush(&self, conn: &Conn, o: &mut Outbound, reason: FlushReason) -> bool {
        if o.dead || o.pending() == 0 {
            return false;
        }
        let start_before = o.start;
        let mut wrote = false;
        while o.start < o.buf.len() {
            match (&conn.stream).write(&o.buf[o.start..]) {
                Ok(0) => {
                    self.account_drained(conn, o.start - start_before);
                    self.retire(conn, o);
                    return wrote;
                }
                Ok(n) => {
                    o.start += n;
                    wrote = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.account_drained(conn, o.start - start_before);
                    self.retire(conn, o);
                    return wrote;
                }
            }
        }
        self.account_drained(conn, o.start - start_before);
        if o.pending() == 0 {
            let batch_bytes = o.buf.len();
            o.buf.clear();
            o.start = 0;
            o.queued_since = None;
            self.mark_drained(conn);
            self.flush_batches.fetch_add(1, Ordering::Relaxed);
            if let Some(obs) = &self.obs {
                let m = obs.machine(conn.from);
                m.reactor_flush_batches.fetch_add(1, Ordering::Relaxed);
                m.reactor_batch_bytes.record(batch_bytes as u64);
                let by_reason = match reason {
                    FlushReason::Size => &m.reactor_flush_size,
                    FlushReason::Deadline => &m.reactor_flush_deadline,
                    FlushReason::Idle => &m.reactor_flush_idle,
                };
                by_reason.fetch_add(1, Ordering::Relaxed);
            }
        } else {
            // Socket backpressure: the remainder stays queued for the
            // reactor, deadline unchanged (it tracks the oldest frame).
            if o.queued_since.is_none() {
                o.queued_since = Some(Instant::now());
            }
            if !self.mark_queued(conn) {
                self.unpark(conn.owner);
            }
        }
        if wrote {
            self.hint(conn.from, conn.to);
        }
        wrote
    }

    /// Shrink the sender's append-buffer occupancy gauge by the bytes a
    /// flush (or retirement) removed from the queue.
    fn account_drained(&self, conn: &Conn, bytes: usize) {
        if bytes > 0 {
            if let Some(obs) = &self.obs {
                obs.machine(conn.from)
                    .reactor_queued_bytes
                    .fetch_sub(bytes as u64, Ordering::Relaxed);
            }
        }
    }

    /// A write failed (or the stream was cut): drop the batch, kill the
    /// connection, and tell the *sender's* drain loop so pending calls
    /// toward this peer fail as orderly PeerGone instead of hanging.
    fn retire(&self, conn: &Conn, o: &mut Outbound) {
        o.dead = true;
        self.account_drained(conn, o.pending());
        o.buf.clear();
        o.start = 0;
        o.queued_since = None;
        self.mark_drained(conn);
        if !self.shutting_down.load(Ordering::SeqCst) {
            self.inboxes[conn.from as usize].deliver(Packet::PeerGone { peer: conn.to });
        }
    }
}

/// The reactor mesh. One instance carries the whole simulated cluster.
pub struct ReactorTransport {
    core: Arc<Core>,
    /// `conns[from][to]`: sending side of the (from → to) stream.
    /// Diagonal entries are `None` (loopback bypasses the socket).
    conns: Vec<Vec<Option<Arc<Conn>>>>,
    reactors: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// Reactor threads for an `n`-machine mesh: grows slowly with the
/// cluster, hard-capped at [`MAX_REACTORS`] — never O(peers).
fn pool_size(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (1 + n / 8).min(MAX_REACTORS)
    }
}

impl ReactorTransport {
    pub fn new(n: usize) -> io::Result<(Mailboxes, Arc<ReactorTransport>)> {
        Self::with_config_obs(n, BatchConfig::default(), None)
    }

    /// Build the mesh with explicit batching knobs (tests pin the
    /// heuristic's behaviors with exaggerated values).
    pub fn with_config(
        n: usize,
        cfg: BatchConfig,
    ) -> io::Result<(Mailboxes, Arc<ReactorTransport>)> {
        Self::with_config_obs(n, cfg, None)
    }

    /// Build the mesh wired to a metrics registry: the deep gauges
    /// (per-machine coalescing counters, flush reasons, append-buffer
    /// occupancy, loop latency) land in its shards for the timeline
    /// sampler and Prometheus exposition.
    pub fn with_obs(
        n: usize,
        obs: Arc<MetricsRegistry>,
    ) -> io::Result<(Mailboxes, Arc<ReactorTransport>)> {
        Self::with_config_obs(n, BatchConfig::default(), Some(obs))
    }

    fn with_config_obs(
        n: usize,
        cfg: BatchConfig,
        obs: Option<Arc<MetricsRegistry>>,
    ) -> io::Result<(Mailboxes, Arc<ReactorTransport>)> {
        let (mailboxes, inboxes) = inboxes(n, None);
        Ok((mailboxes, Self::from_inboxes(inboxes, cfg, obs)?))
    }

    /// The mesh over inboxes built by [`inboxes`], one per machine.
    pub(crate) fn from_inboxes(
        inboxes: Vec<Inbox>,
        cfg: BatchConfig,
        obs: Option<Arc<MetricsRegistry>>,
    ) -> io::Result<Arc<ReactorTransport>> {
        let n = inboxes.len();
        let epoch = Instant::now();
        let nthreads = pool_size(n);

        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            listeners.push(listener);
        }

        // Accept side: collect the n-1 inbound streams per machine (the
        // hello identifies the peer), made nonblocking once identified.
        // Unlike TCP, no thread is spawned per stream — the acceptor
        // threads end with construction.
        let mut acceptors = Vec::with_capacity(n);
        for (j, listener) in listeners.into_iter().enumerate() {
            acceptors.push(thread::Builder::new().name(format!("corm-reactor-accept-{j}")).spawn(
                move || -> io::Result<Vec<(u16, TcpStream)>> {
                    let mut streams = Vec::with_capacity(n.saturating_sub(1));
                    for _ in 0..n.saturating_sub(1) {
                        let (mut stream, _) = listener.accept()?;
                        stream.set_nodelay(true)?;
                        stream.set_read_timeout(Some(HELLO_TIMEOUT))?;
                        let mut hello = [0u8; 4];
                        stream.read_exact(&mut hello)?;
                        if hello[..2] != HELLO_MAGIC {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "bad transport hello",
                            ));
                        }
                        stream.set_nonblocking(true)?;
                        streams.push((u16::from_le_bytes([hello[2], hello[3]]), stream));
                    }
                    Ok(streams)
                },
            )?);
        }

        // Connect side: full mesh, skipping the diagonal. Connection k
        // (row-major) is flushed by reactor k % nthreads.
        let mut conns: Vec<Vec<Option<Arc<Conn>>>> = Vec::with_capacity(n);
        let mut connect_err = None;
        let mut k = 0usize;
        'mesh: for i in 0..n {
            let mut row = Vec::with_capacity(n);
            for (j, addr) in addrs.iter().enumerate() {
                if i == j {
                    row.push(None);
                    continue;
                }
                match open_stream(*addr, i as u16).and_then(|s| {
                    s.set_nonblocking(true)?;
                    Ok(s)
                }) {
                    Ok(stream) => {
                        row.push(Some(Arc::new(Conn {
                            from: i as u16,
                            to: j as u16,
                            owner: k % nthreads.max(1),
                            stream,
                            has_queued: AtomicBool::new(false),
                            out: Mutex::new(Outbound {
                                buf: Vec::new(),
                                start: 0,
                                queued_since: None,
                                window_start: None,
                                window_sends: 0,
                                dead: false,
                            }),
                        })));
                        k += 1;
                    }
                    Err(e) => {
                        connect_err = Some(e);
                        conns.push(row);
                        break 'mesh;
                    }
                }
            }
            conns.push(row);
        }

        // Partition the inbound streams over the pool and build the
        // hint table the senders use to signal readiness.
        let mut hints: Vec<Vec<Option<Hint>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        let mut buckets: Vec<Vec<Inbound>> = (0..nthreads).map(|_| Vec::new()).collect();
        let mut accept_err = None;
        let mut k = 0usize;
        for (j, acceptor) in acceptors.into_iter().enumerate() {
            match acceptor.join() {
                Ok(Ok(streams)) => {
                    for (peer, stream) in streams {
                        let owner = k % nthreads.max(1);
                        let dirty = Arc::new(AtomicBool::new(false));
                        hints[peer as usize][j] = Some(Hint { dirty: dirty.clone(), owner });
                        buckets[owner].push(Inbound {
                            stream,
                            peer,
                            me: j as u16,
                            acc: Vec::new(),
                            dirty,
                            done: false,
                        });
                        k += 1;
                    }
                }
                Ok(Err(e)) => accept_err = Some(e),
                Err(_) => accept_err = Some(io::Error::other("acceptor thread panicked")),
            }
        }

        let core = Arc::new(Core {
            epoch,
            cfg,
            inboxes,
            measured_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            shutting_down: AtomicBool::new(false),
            hints,
            reactor_threads: OnceLock::new(),
            frames_enqueued: AtomicU64::new(0),
            flush_batches: AtomicU64::new(0),
            obs,
        });

        let transport =
            Arc::new(ReactorTransport { core, conns, reactors: Mutex::new(Vec::new()) });
        if let Some(e) = connect_err.or(accept_err) {
            transport.shutdown();
            return Err(e);
        }

        // Spawn the pool: reactor r owns inbound bucket r plus every
        // conn with owner r.
        let mut handles = Vec::with_capacity(nthreads);
        for (r, bucket) in buckets.into_iter().enumerate() {
            let core = transport.core.clone();
            let owned: Vec<Arc<Conn>> = transport
                .conns
                .iter()
                .flatten()
                .flatten()
                .filter(|c| c.owner == r)
                .cloned()
                .collect();
            handles.push(
                thread::Builder::new()
                    .name(format!("corm-reactor-{r}"))
                    .spawn(move || reactor_loop(core, r, bucket, owned))?,
            );
        }
        let threads = handles.iter().map(|h| h.thread().clone()).collect();
        transport
            .core
            .reactor_threads
            .set(threads)
            .unwrap_or_else(|_| unreachable!("reactor pool registered twice"));
        *lock(&transport.reactors) = handles;
        Ok(transport)
    }

    /// Frames appended to outbound batch buffers so far (loopback
    /// deliveries excluded). With [`ReactorTransport::flush_batches`]
    /// this exposes the coalescing ratio the batching tests pin.
    pub fn frames_enqueued(&self) -> u64 {
        self.core.frames_enqueued.load(Ordering::Relaxed)
    }

    /// Completed batch flushes (buffer fully drained to the socket).
    pub fn flush_batches(&self) -> u64 {
        self.core.flush_batches.load(Ordering::Relaxed)
    }

    /// Abruptly cut every stream touching `machine` *without* raising
    /// the shutdown flag, simulating a crash. Survivors observe
    /// [`Packet::PeerGone`] when their inbound stream from the dead
    /// machine EOFs; queued batches toward it are discarded by the
    /// failing flush, which reports PeerGone to the sender.
    pub fn sever(&self, machine: u16) {
        let m = machine as usize;
        for row in &self.conns {
            for conn in row.iter().flatten() {
                if conn.from as usize == m || conn.to as usize == m {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                }
            }
        }
        // Wake the readers on both sides of every cut stream so the EOF
        // is noticed now, not at the next safety sweep.
        let n = self.core.inboxes.len();
        for other in 0..n {
            if other != m {
                self.core.hint(machine, other as u16);
                self.core.hint(other as u16, machine);
            }
        }
    }
}

impl Transport for ReactorTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Reactor
    }

    fn machines(&self) -> usize {
        self.core.inboxes.len()
    }

    fn deliver(&self, from: u16, to: u16, packet: Packet) {
        if from == to {
            // Loopback: local RPCs never touch the socket, matching the
            // cost model's zero wire time for them.
            self.core.inboxes[to as usize].deliver(packet);
            return;
        }
        let Some(conn) = self.conns[from as usize][to as usize].as_ref() else {
            return;
        };
        let core = &self.core;
        let mut o = lock(&conn.out);
        if o.dead {
            return;
        }
        // Stamp at enqueue: time a frame waits in the batch buffer is
        // charged to measured wire time, not silently dropped.
        let ts_ns = core.epoch.elapsed().as_nanos() as u64;
        let len_before = o.buf.len();
        if packet.encode_frame_append(ts_ns, &mut o.buf).is_err() {
            // Unencodable packet (oversized length field): the append
            // left the batch buffer untouched, so the already-coalesced
            // frames stay intact. Kill the connection like a failed
            // flush — the sender's drain loop sees an orderly PeerGone.
            drop(o);
            let _ = conn.stream.shutdown(Shutdown::Both);
            if !core.shutting_down.load(Ordering::SeqCst) {
                core.inboxes[from as usize].deliver(Packet::PeerGone { peer: to });
            }
            return;
        }
        core.frames_enqueued.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &core.obs {
            let m = obs.machine(from);
            m.reactor_frames_enqueued.fetch_add(1, Ordering::Relaxed);
            m.reactor_queued_bytes.fetch_add((o.buf.len() - len_before) as u64, Ordering::Relaxed);
        }

        let now = Instant::now();
        match o.window_start {
            Some(w) if now.duration_since(w) <= core.cfg.window => o.window_sends += 1,
            _ => {
                o.window_start = Some(now);
                o.window_sends = 1;
            }
        }
        let under_load = o.window_sends > core.cfg.batch_after;
        if !under_load || o.pending() >= core.cfg.flush_bytes {
            let reason = if o.pending() >= core.cfg.flush_bytes {
                FlushReason::Size
            } else {
                FlushReason::Idle
            };
            core.flush(conn, &mut o, reason);
        }
        if !o.dead && o.pending() > 0 {
            if o.queued_since.is_none() {
                o.queued_since = Some(now);
            }
            if !core.mark_queued(conn) {
                core.unpark(conn.owner);
            }
        }
    }

    fn measured_wire_ns(&self, machine: u16) -> u64 {
        self.core.measured_ns[machine as usize].load(Ordering::Relaxed)
    }

    fn sever(&self, machine: u16) {
        ReactorTransport::sever(self, machine);
    }

    fn shutdown(&self) {
        if self.core.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        for row in &self.conns {
            for conn in row.iter().flatten() {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
        if let Some(threads) = self.core.reactor_threads.get() {
            for t in threads {
                t.unpark();
            }
        }
        let handles = std::mem::take(&mut *lock(&self.reactors));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for ReactorTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One pool thread: flush owned outbound batches whose deadline (or
/// size threshold) is due, pump owned inbound streams that were hinted
/// dirty, full-sweep every [`SWEEP`] as a safety net, park in between.
fn reactor_loop(core: Arc<Core>, r: usize, mut inbound: Vec<Inbound>, conns: Vec<Arc<Conn>>) {
    let mut last_sweep = Instant::now();
    loop {
        if core.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let mut progress = false;
        let now = Instant::now();
        let mut next_due: Option<Instant> = None;
        let track = |d: Instant, next_due: &mut Option<Instant>| {
            *next_due = Some(next_due.map_or(d, |cur| cur.min(d)));
        };
        for conn in &conns {
            if !conn.has_queued.load(Ordering::Acquire) {
                continue;
            }
            let mut o = lock(&conn.out);
            if o.dead {
                continue;
            }
            if o.pending() == 0 {
                core.mark_drained(conn);
                continue;
            }
            let due = o.queued_since.map_or(now, |t| t + core.cfg.flush_deadline);
            if due <= now || o.pending() >= core.cfg.flush_bytes {
                let reason = if o.pending() >= core.cfg.flush_bytes {
                    FlushReason::Size
                } else {
                    FlushReason::Deadline
                };
                progress |= core.flush(conn, &mut o, reason);
                if !o.dead && o.pending() > 0 {
                    track(now + BACKPRESSURE_RETRY, &mut next_due);
                }
            } else {
                track(due, &mut next_due);
            }
        }

        let full = last_sweep.elapsed() >= SWEEP;
        if full {
            last_sweep = Instant::now();
        }
        for ib in &mut inbound {
            if ib.done {
                continue;
            }
            if ib.dirty.swap(false, Ordering::AcqRel) || full {
                progress |= pump(&core, ib);
            }
        }

        // Iteration latency (wake → this decision point): reactor r
        // records into machine shard r — an attribution approximation
        // (DESIGN §15), valid because the pool never outnumbers the
        // machines.
        if let Some(obs) = &core.obs {
            obs.machine(r as u16).reactor_loop_us.record(now.elapsed().as_micros() as u64);
        }

        if progress {
            continue;
        }
        let timeout = next_due
            .map(|d| d.saturating_duration_since(Instant::now()))
            .unwrap_or(SWEEP)
            .min(SWEEP);
        thread::park_timeout(timeout);
    }
}

/// Drain one inbound stream: read until `WouldBlock`, reassemble frames,
/// forward packets, account measured wire time. EOF, a corrupt frame,
/// or an I/O error outside an orderly shutdown reports the peer dead.
fn pump(core: &Core, ib: &mut Inbound) -> bool {
    let mut chunk = [0u8; 16 * 1024];
    let mut progress = false;
    loop {
        match (&ib.stream).read(&mut chunk) {
            Ok(0) => {
                finish(core, ib, true);
                return true;
            }
            Ok(n) => {
                progress = true;
                ib.acc.extend_from_slice(&chunk[..n]);
                if !drain_frames(core, ib) {
                    finish(core, ib, true);
                    return true;
                }
                if ib.done {
                    // Mailbox gone: machine already torn down.
                    return true;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                finish(core, ib, true);
                return true;
            }
        }
    }
    progress
}

/// Split complete frames out of the reassembly buffer. Returns false on
/// a corrupt stream.
fn drain_frames(core: &Core, ib: &mut Inbound) -> bool {
    let mut pos = 0;
    while ib.acc.len() - pos >= 4 {
        let len = u32::from_le_bytes(ib.acc[pos..pos + 4].try_into().unwrap()) as usize;
        if !(9..=MAX_FRAME).contains(&len) {
            return false;
        }
        if ib.acc.len() - pos < 4 + len {
            break;
        }
        match Packet::decode_body(&ib.acc[pos + 4..pos + 4 + len]) {
            Ok((packet, sent_ns)) => {
                let now_ns = core.epoch.elapsed().as_nanos() as u64;
                core.measured_ns[ib.me as usize]
                    .fetch_add(now_ns.saturating_sub(sent_ns), Ordering::Relaxed);
                if !core.inboxes[ib.me as usize].deliver(packet) {
                    finish(core, ib, false);
                    break;
                }
            }
            Err(_) => return false,
        }
        pos += 4 + len;
    }
    ib.acc.drain(..pos);
    true
}

fn finish(core: &Core, ib: &mut Inbound, peer_gone: bool) {
    if ib.done {
        return;
    }
    ib.done = true;
    if peer_gone && !core.shutting_down.load(Ordering::SeqCst) {
        core.inboxes[ib.me as usize].deliver(Packet::PeerGone { peer: ib.peer });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::RecvError;

    fn reply(req_id: u64, bytes: usize) -> Packet {
        Packet::Reply { req_id, payload: vec![7; bytes], err: None }
    }

    /// Bounded spin-wait that panics by name on timeout. Tests must
    /// never time out *silently* and fall through to their asserts:
    /// the resulting failure blames whatever counter happens to be
    /// checked next instead of the wait that actually gave up.
    fn spin_until(what: &str, limit: Duration, mut cond: impl FnMut() -> bool) {
        let deadline = Instant::now() + limit;
        while !cond() {
            assert!(Instant::now() < deadline, "timed out after {limit:?} waiting for {what}");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// Batch every send, with a deadline long enough for a test to
    /// observe frames parked in the buffer.
    fn always_batch(deadline: Duration) -> BatchConfig {
        BatchConfig {
            flush_bytes: 1 << 20,
            flush_deadline: deadline,
            batch_after: 0,
            window: Duration::from_secs(1),
        }
    }

    #[test]
    fn mesh_roundtrip_and_measured_time() {
        let (mailboxes, t) = ReactorTransport::new(3).unwrap();
        t.deliver(0, 2, reply(5, 4096));
        match mailboxes[2].recv().unwrap() {
            Packet::Reply { req_id, payload, .. } => {
                assert_eq!(req_id, 5);
                assert_eq!(payload.len(), 4096);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(t.measured_wire_ns(2) > 0, "cross-machine delivery is measured");
        assert_eq!(t.measured_wire_ns(0), 0);
        t.shutdown();
    }

    #[test]
    fn loopback_bypasses_socket_and_measurement() {
        let (mailboxes, t) = ReactorTransport::new(2).unwrap();
        t.deliver(1, 1, Packet::Shutdown);
        assert_eq!(mailboxes[1].recv().unwrap(), Packet::Shutdown);
        assert_eq!(t.measured_wire_ns(1), 0);
        assert_eq!(t.frames_enqueued(), 0, "loopback never enters a batch buffer");
        t.shutdown();
    }

    #[test]
    fn per_pair_fifo_order_is_preserved() {
        let (mailboxes, t) = ReactorTransport::new(2).unwrap();
        for i in 0..200u64 {
            t.deliver(0, 1, reply(i, 0));
        }
        for i in 0..200u64 {
            match mailboxes[1].recv().unwrap() {
                Packet::Reply { req_id, .. } => assert_eq!(req_id, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        t.shutdown();
    }

    #[test]
    fn pipelined_requests_do_not_wait_for_replies() {
        // Multiple outstanding requests per peer: all of them cross the
        // wire before any reply is produced — nothing in the transport
        // assumes call/reply lockstep.
        let (mailboxes, t) = ReactorTransport::new(2).unwrap();
        for i in 0..32u64 {
            t.deliver(
                0,
                1,
                Packet::Request {
                    req_id: i,
                    from: 0,
                    site: 1,
                    target_obj: 1,
                    payload: vec![],
                    oneway: false,
                },
            );
        }
        for i in 0..32u64 {
            match mailboxes[1].recv().unwrap() {
                Packet::Request { req_id, .. } => assert_eq!(req_id, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Replies flow back out of order — the id is the routing key.
        for i in (0..32u64).rev() {
            t.deliver(1, 0, reply(i, 0));
        }
        for i in (0..32u64).rev() {
            match mailboxes[0].recv().unwrap() {
                Packet::Reply { req_id, .. } => assert_eq!(req_id, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        t.shutdown();
    }

    #[test]
    fn shutdown_is_orderly_and_idempotent() {
        let (_mailboxes, t) = ReactorTransport::new(4).unwrap();
        t.shutdown();
        t.shutdown(); // second call is a no-op
                      // Drop also re-enters shutdown; none of this may hang.
    }

    #[test]
    fn severed_peer_surfaces_as_peer_gone() {
        let (mailboxes, t) = ReactorTransport::new(3).unwrap();
        t.sever(1);
        for mb in [&mailboxes[0], &mailboxes[2]] {
            match mb.recv().unwrap() {
                Packet::PeerGone { peer } => assert_eq!(peer, 1),
                other => panic!("unexpected {other:?}"),
            }
        }
        t.shutdown();
    }

    #[test]
    fn failed_write_to_killed_peer_reports_peer_gone_to_sender() {
        let (mailboxes, t) = ReactorTransport::new(2).unwrap();
        t.deliver(0, 1, reply(0, 1));
        assert!(matches!(mailboxes[1].recv().unwrap(), Packet::Reply { req_id: 0, .. }));
        t.sever(1);
        assert_eq!(mailboxes[0].recv().unwrap(), Packet::PeerGone { peer: 1 });
        // Keep sending into the dead stream: within a bounded number of
        // sends the write fails and the *sender* observes PeerGone.
        let mut sender_notified = false;
        for i in 0..64 {
            t.deliver(0, 1, reply(i, 1 << 16));
            if let Ok(Some(p)) = mailboxes[0].try_recv() {
                assert_eq!(p, Packet::PeerGone { peer: 1 });
                sender_notified = true;
                break;
            }
        }
        assert!(sender_notified, "sender never observed the failed write");
        // The dead connection drops traffic without duplicate reports.
        t.deliver(0, 1, Packet::Shutdown);
        assert_eq!(mailboxes[0].try_recv().unwrap(), None);
        t.shutdown();
    }

    #[test]
    fn orderly_shutdown_does_not_report_peer_gone() {
        let (mailboxes, t) = ReactorTransport::new(2).unwrap();
        t.shutdown();
        drop(t);
        assert_eq!(mailboxes[0].recv(), Err(RecvError::Disconnected));
        assert_eq!(mailboxes[1].recv(), Err(RecvError::Disconnected));
    }

    #[test]
    fn burst_of_small_frames_coalesces_into_few_batches() {
        let (mailboxes, t) =
            ReactorTransport::with_config(2, always_batch(Duration::from_millis(20))).unwrap();
        for i in 0..100u64 {
            t.deliver(0, 1, reply(i, 8));
        }
        for i in 0..100u64 {
            match mailboxes[1].recv().unwrap() {
                Packet::Reply { req_id, .. } => assert_eq!(req_id, i, "coalescing keeps FIFO"),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(t.frames_enqueued(), 100);
        assert!(
            t.flush_batches() < 50,
            "a 100-frame burst must coalesce, got {} batches",
            t.flush_batches()
        );
        t.shutdown();
    }

    #[test]
    fn queued_frame_flushes_on_deadline_not_immediately() {
        let (mailboxes, t) =
            ReactorTransport::with_config(2, always_batch(Duration::from_millis(80))).unwrap();
        t.deliver(0, 1, reply(9, 4));
        // Well before the deadline the frame is still parked in the
        // batch buffer (pure Nagle: batch_after = 0 defers every send).
        std::thread::sleep(Duration::from_millis(15));
        assert_eq!(mailboxes[1].try_recv().unwrap(), None, "flushed before the deadline");
        // ...but the deadline bounds the wait: the reactor flushes it
        // with no further sends on the connection.
        match mailboxes[1].recv().unwrap() {
            Packet::Reply { req_id, .. } => assert_eq!(req_id, 9),
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            t.measured_wire_ns(1) >= Duration::from_millis(40).as_nanos() as u64,
            "batch wait is charged to measured wire time"
        );
        t.shutdown();
    }

    #[test]
    fn idle_burst_tail_flushes_without_further_traffic() {
        // Flush-on-idle: a burst arms batching, the burst stops, and the
        // tail still arrives via the deadline — no later send needed.
        let cfg = BatchConfig {
            flush_bytes: 1 << 20,
            flush_deadline: Duration::from_millis(10),
            batch_after: 2,
            window: Duration::from_secs(1),
        };
        let (mailboxes, t) = ReactorTransport::with_config(2, cfg).unwrap();
        for i in 0..10u64 {
            t.deliver(0, 1, reply(i, 4));
        }
        for i in 0..10u64 {
            match mailboxes[1].recv().unwrap() {
                Packet::Reply { req_id, .. } => assert_eq!(req_id, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        t.shutdown();
    }

    #[test]
    fn torn_batch_fails_pending_as_orderly_peer_gone() {
        // Frames queued in a coalesced batch when the peer dies must not
        // strand their callers: the sender observes PeerGone (inbound
        // EOF now, failing flush later) and shutdown does not hang on
        // the discarded bytes.
        let (mailboxes, t) =
            ReactorTransport::with_config(3, always_batch(Duration::from_millis(500))).unwrap();
        for i in 0..5u64 {
            t.deliver(0, 1, reply(i, 64));
        }
        t.sever(1);
        assert_eq!(mailboxes[0].recv().unwrap(), Packet::PeerGone { peer: 1 });
        assert_eq!(mailboxes[2].recv().unwrap(), Packet::PeerGone { peer: 1 });
        // Survivors still talk, and teardown completes promptly even
        // though the batch toward the dead peer never drained.
        t.deliver(0, 2, reply(77, 0));
        match mailboxes[2].recv().unwrap() {
            Packet::Reply { req_id, .. } => assert_eq!(req_id, 77),
            other => panic!("unexpected {other:?}"),
        }
        t.shutdown();
    }

    #[test]
    fn registry_mirrors_coalescing_stats_and_buffer_gauges() {
        // The obs-wired constructor lands the same coalescing counters
        // in the sender's registry shard, splits flushes by reason, and
        // returns the append-buffer occupancy gauge to zero once
        // everything drains.
        let obs = Arc::new(MetricsRegistry::new(2));
        let (mailboxes, t) = ReactorTransport::with_obs(2, obs.clone()).unwrap();
        for i in 0..20u64 {
            t.deliver(0, 1, reply(i, 8));
        }
        for _ in 0..20u64 {
            mailboxes[1].recv().unwrap();
        }
        // Drain fully: wait for the deadline sweep to flush any tail. A
        // timed-out wait panics here by name instead of silently falling
        // through to the gauge asserts below, which would otherwise
        // report a confusing "queued_bytes != 0" counter mismatch.
        spin_until(
            "the deadline sweep to drain reactor_queued_bytes",
            Duration::from_secs(5),
            || {
                t.core.obs.as_ref().unwrap().machine(0).reactor_queued_bytes.load(Ordering::Relaxed)
                    == 0
            },
        );
        let m = obs.machine_snapshot(0);
        assert_eq!(m.reactor_frames_enqueued, t.frames_enqueued());
        assert_eq!(m.reactor_frames_enqueued, 20);
        assert_eq!(m.reactor_flush_batches, t.flush_batches());
        assert_eq!(
            m.reactor_flush_size + m.reactor_flush_deadline + m.reactor_flush_idle,
            m.reactor_flush_batches,
            "reasons partition the flush count"
        );
        assert_eq!(m.reactor_batch_bytes.count, m.reactor_flush_batches);
        assert!(m.reactor_batch_bytes.sum > 0);
        assert_eq!(m.reactor_queued_bytes, 0, "gauge returns to zero once drained");
        assert_eq!(m.reactor_conns_queued, 0);
        // The receiving machine sent nothing: its shard stays clean.
        let m1 = obs.machine_snapshot(1);
        assert_eq!(m1.reactor_frames_enqueued, 0);
        t.shutdown();
        assert!(
            obs.machine_snapshot(0).reactor_loop_us.count
                + obs.machine_snapshot(1).reactor_loop_us.count
                > 0,
            "reactor loop latency was recorded"
        );
    }

    #[test]
    fn pool_stays_small_as_the_mesh_grows() {
        assert_eq!(pool_size(1), 0);
        assert_eq!(pool_size(2), 1);
        assert_eq!(pool_size(8), 2);
        assert_eq!(pool_size(32), MAX_REACTORS);
        assert_eq!(pool_size(1000), MAX_REACTORS, "O(threads), not O(peers)");
    }
}
