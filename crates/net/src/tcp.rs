//! Real TCP backend: a full mesh of loopback connections between the
//! simulated machines.
//!
//! Every ordered pair (i, j), i ≠ j, gets a dedicated stream carrying
//! length-prefixed [`Packet`] frames, which preserves the per-(sender,
//! receiver) FIFO order the VM relies on — exactly what the dedicated
//! channel gives the in-process backend. Loopback sends bypass the
//! socket (modeled wire time is zero for local RPCs; measured time
//! matches). Each frame carries a send timestamp on the transport's
//! monotonic clock, letting the receiver accumulate *measured* wire
//! time next to the modeled [`crate::CostModel`] time.
//!
//! Shutdown discipline: [`Transport::shutdown`] raises a flag, half-
//! closes every stream (the FIN wakes blocked readers), then joins all
//! reader threads — so dropping the fabric can never hang. A reader
//! that sees its stream die *without* the flag raised reports
//! [`Packet::PeerGone`] to its machine's mailbox: that is how a crashed
//! peer becomes an orderly remote error instead of silent quiescence.
//!
//! Each reader reads through one reused 64 KiB buffer, so a single
//! `read` can yield a frame's length, its body and any frames queued
//! behind it; a frame that is whole in the buffer is decoded in place.

use std::io::{self, BufRead, BufReader, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use crate::packet::Packet;
use crate::transport::{inboxes, Inbox, Mailboxes, Transport, TransportKind};

/// Hello preamble: magic + the connecting machine's id, so the acceptor
/// knows which peer each inbound stream belongs to. Shared with the
/// reactor backend, which brings its mesh up the same way.
pub(crate) const HELLO_MAGIC: [u8; 2] = [0xC0, 0x4A];

/// Upper bound on a single frame; anything larger is treated as a
/// corrupt stream (the biggest real payloads are array messages well
/// under this). The bound is owned by the codec so the encoder refuses
/// to produce what the receivers here would reject.
pub(crate) use crate::packet::MAX_FRAME;

/// Blocked readers wake at least this often to check the shutdown flag
/// (the FIN from an orderly shutdown wakes them immediately anyway).
const READ_TIMEOUT: Duration = Duration::from_millis(250);

/// Per-connection receive buffer: one `read` fills it with as many
/// queued frames as the socket holds, up to this size.
const RX_BUFFER: usize = 64 * 1024;

/// A stalled peer gets this long before a write is abandoned.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

const CONNECT_ATTEMPTS: u32 = 10;
const CONNECT_BACKOFF_START: Duration = Duration::from_millis(1);

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Sending half of one (from → to) stream, with the per-peer frame
/// scratch the vectored send path reuses: every frame's length prefix +
/// header is built into `scratch` and the payload is sent straight from
/// the packet, so steady-state sends copy no body bytes and allocate
/// nothing.
struct WriterState {
    stream: TcpStream,
    scratch: Vec<u8>,
}

/// The TCP mesh. One instance carries the whole simulated cluster.
pub struct TcpTransport {
    /// Monotonic clock shared by send and receive sides; frame
    /// timestamps are nanoseconds since this epoch.
    epoch: Instant,
    /// `writers[from][to]`: the sending half of the (from → to) stream.
    /// Diagonal entries are `None` (loopback bypasses the socket).
    writers: Vec<Vec<Mutex<Option<WriterState>>>>,
    /// Loopback + PeerGone injection path into each machine.
    inboxes: Vec<Inbox>,
    /// Measured in-flight nanoseconds, indexed by receiving machine.
    measured_ns: Arc<Vec<AtomicU64>>,
    shutting_down: Arc<AtomicBool>,
    readers: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl TcpTransport {
    /// Bind one loopback listener per machine and build the full mesh.
    /// Connections use retry with exponential backoff; the constructor
    /// returns once every stream is established and every reader thread
    /// is running.
    pub fn new(n: usize) -> io::Result<(Mailboxes, Arc<TcpTransport>)> {
        let (mailboxes, inboxes) = inboxes(n, None);
        Ok((mailboxes, TcpTransport::from_inboxes(inboxes)?))
    }

    /// The mesh over inboxes built by [`inboxes`], one per machine.
    pub(crate) fn from_inboxes(inboxes: Vec<Inbox>) -> io::Result<Arc<TcpTransport>> {
        let n = inboxes.len();
        let epoch = Instant::now();
        let shutting_down = Arc::new(AtomicBool::new(false));
        let measured_ns: Arc<Vec<AtomicU64>> =
            Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());

        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addrs.push(listener.local_addr()?);
            listeners.push(listener);
        }

        // Accept side: each machine accepts n-1 inbound streams and
        // spawns one reader thread per peer. Acceptors finish during
        // construction, so only reader threads outlive it.
        let mut acceptors = Vec::with_capacity(n);
        for (j, listener) in listeners.into_iter().enumerate() {
            let inbox = inboxes[j].clone();
            let flag = shutting_down.clone();
            let measured = measured_ns.clone();
            acceptors.push(thread::Builder::new().name(format!("corm-tcp-accept-{j}")).spawn(
                move || -> io::Result<Vec<thread::JoinHandle<()>>> {
                    let mut handles = Vec::with_capacity(n.saturating_sub(1));
                    for _ in 0..n.saturating_sub(1) {
                        let (mut stream, _) = listener.accept()?;
                        stream.set_nodelay(true)?;
                        stream.set_read_timeout(Some(READ_TIMEOUT))?;
                        let mut hello = [0u8; 4];
                        stream.read_exact(&mut hello)?;
                        if hello[..2] != HELLO_MAGIC {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "bad transport hello",
                            ));
                        }
                        let peer = u16::from_le_bytes([hello[2], hello[3]]);
                        let inbox = inbox.clone();
                        let flag = flag.clone();
                        let measured = measured.clone();
                        handles.push(
                            thread::Builder::new()
                                .name(format!("corm-tcp-rx-{peer}-to-{j}"))
                                .spawn(move || {
                                    reader_loop(
                                        stream, peer, j as u16, inbox, flag, measured, epoch,
                                    )
                                })?,
                        );
                    }
                    Ok(handles)
                },
            )?);
        }

        // Connect side: full mesh, skipping the diagonal.
        let mut writers = Vec::with_capacity(n);
        let mut connect_err = None;
        'mesh: for i in 0..n {
            let mut row = Vec::with_capacity(n);
            for (j, addr) in addrs.iter().enumerate() {
                if i == j {
                    row.push(Mutex::new(None));
                    continue;
                }
                match open_stream(*addr, i as u16) {
                    Ok(stream) => {
                        row.push(Mutex::new(Some(WriterState { stream, scratch: Vec::new() })))
                    }
                    Err(e) => {
                        connect_err = Some(e);
                        writers.push(row);
                        break 'mesh;
                    }
                }
            }
            writers.push(row);
        }

        let mut readers = Vec::new();
        let mut accept_err = None;
        for acceptor in acceptors {
            match acceptor.join() {
                Ok(Ok(handles)) => readers.extend(handles),
                Ok(Err(e)) => accept_err = Some(e),
                Err(_) => accept_err = Some(io::Error::other("acceptor thread panicked")),
            }
        }

        let transport = Arc::new(TcpTransport {
            epoch,
            writers,
            inboxes,
            measured_ns,
            shutting_down,
            readers: Mutex::new(readers),
        });
        if let Some(e) = connect_err.or(accept_err) {
            // Best-effort teardown of whatever did come up, then fail.
            transport.shutdown();
            return Err(e);
        }
        Ok(transport)
    }

    /// Abruptly close every stream touching `machine` *without* raising
    /// the shutdown flag, simulating that machine crashing. Surviving
    /// machines observe [`Packet::PeerGone`]. Also exposed through
    /// [`Transport::sever`] for fault injection behind the trait object.
    pub fn sever(&self, machine: u16) {
        let m = machine as usize;
        for (i, row) in self.writers.iter().enumerate() {
            for (j, slot) in row.iter().enumerate() {
                if i == m || j == m {
                    if let Some(w) = lock(slot).as_ref() {
                        let _ = w.stream.shutdown(Shutdown::Both);
                    }
                }
            }
        }
    }
}

impl Transport for TcpTransport {
    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }

    fn machines(&self) -> usize {
        self.inboxes.len()
    }

    fn deliver(&self, from: u16, to: u16, packet: Packet) {
        if from == to {
            // Loopback: local RPCs never touch the socket, matching the
            // cost model's zero wire time for them.
            self.inboxes[to as usize].deliver(packet);
            return;
        }
        let mut guard = lock(&self.writers[from as usize][to as usize]);
        if let Some(w) = guard.as_mut() {
            // Zero-copy send: length prefix + frame header go into the
            // per-peer scratch (reused every send), the payload is sent
            // straight from the packet via one vectored write.
            let ts_ns = self.epoch.elapsed().as_nanos() as u64;
            // An unencodable packet (oversized length field) is treated
            // like a failed write: the VM's packets are all well under
            // MAX_FRAME, so this only fires on a corrupted payload, and
            // dropping the stream surfaces it as an orderly PeerGone.
            let sent = match packet.encode_frame_into(ts_ns, &mut w.scratch) {
                Ok(payload) => write_all_vectored(&mut w.stream, &w.scratch, payload).is_ok(),
                Err(_) => false,
            };
            if !sent {
                // The peer is gone (or stalled past the write timeout):
                // retire the stream and tell the *sender's* drain loop,
                // so its pending calls fail as orderly remote errors
                // instead of the packet being silently swallowed.
                *guard = None;
                if !self.shutting_down.load(Ordering::SeqCst) {
                    self.inboxes[from as usize].deliver(Packet::PeerGone { peer: to });
                }
            }
        }
    }

    fn measured_wire_ns(&self, machine: u16) -> u64 {
        self.measured_ns[machine as usize].load(Ordering::Relaxed)
    }

    fn sever(&self, machine: u16) {
        TcpTransport::sever(self, machine);
    }

    fn shutdown(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        for row in &self.writers {
            for slot in row {
                if let Some(w) = lock(slot).as_ref() {
                    let _ = w.stream.shutdown(Shutdown::Both);
                }
            }
        }
        let handles = std::mem::take(&mut *lock(&self.readers));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Write `head` then `tail` in full, preferring a single vectored
/// syscall per iteration. Handles partial writes (resuming mid-`head`
/// or mid-`tail`) and `Interrupted`; a zero-length write on a
/// non-empty buffer is reported as `WriteZero` so a half-closed stream
/// cannot spin forever.
fn write_all_vectored(stream: &mut TcpStream, head: &[u8], tail: &[u8]) -> io::Result<()> {
    let total = head.len() + tail.len();
    let mut written = 0;
    while written < total {
        let n = if written < head.len() {
            let bufs = [IoSlice::new(&head[written..]), IoSlice::new(tail)];
            stream.write_vectored(&bufs)
        } else {
            stream.write(&tail[written - head.len()..])
        };
        match n {
            Ok(0) => {
                return Err(io::Error::new(io::ErrorKind::WriteZero, "stream accepted no bytes"))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

pub(crate) fn open_stream(addr: SocketAddr, from: u16) -> io::Result<TcpStream> {
    let mut backoff = CONNECT_BACKOFF_START;
    let mut last_err = None;
    for attempt in 0..CONNECT_ATTEMPTS {
        if attempt > 0 {
            thread::sleep(backoff);
            backoff = backoff.saturating_mul(2);
        }
        match TcpStream::connect(addr) {
            Ok(mut stream) => {
                stream.set_nodelay(true)?;
                stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
                let mut hello = [0u8; 4];
                hello[..2].copy_from_slice(&HELLO_MAGIC);
                hello[2..].copy_from_slice(&from.to_le_bytes());
                stream.write_all(&hello)?;
                return Ok(stream);
            }
            Err(e) => last_err = Some(e),
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("connect failed")))
}

/// Read exactly `buf.len()` bytes. `Ok(false)` means a clean EOF (or an
/// orderly-shutdown timeout) arrived *before* any byte of this read;
/// mid-read termination is an error.
fn read_exact_or_eof(
    stream: &mut impl Read,
    buf: &mut [u8],
    shutting_down: &AtomicBool,
) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "mid-frame EOF"));
            }
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if shutting_down.load(Ordering::SeqCst) && filled == 0 {
                    return Ok(false);
                }
                // Idle between frames (or mid-frame stall): keep waiting.
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read and decode the next frame. `Ok(None)` is a clean EOF or an
/// orderly shutdown between frames; a mid-frame EOF, an out-of-bounds
/// length or an undecodable body is an error. A body already whole in
/// the receive buffer is decoded in place; any other is read into
/// `spill`, which keeps up to [`RX_BUFFER`] of capacity across frames.
fn read_frame(
    rx: &mut BufReader<TcpStream>,
    spill: &mut Vec<u8>,
    shutting_down: &AtomicBool,
) -> io::Result<Option<(Packet, u64)>> {
    let mut len_buf = [0u8; 4];
    if !read_exact_or_eof(rx, &mut len_buf, shutting_down)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if !(9..=MAX_FRAME).contains(&len) {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame length out of bounds"));
    }
    let corrupt = |e: corm_wire::WireError| io::Error::new(io::ErrorKind::InvalidData, e.0);
    if rx.buffer().len() >= len {
        let decoded = Packet::decode_body(&rx.buffer()[..len]).map_err(corrupt)?;
        rx.consume(len);
        return Ok(Some(decoded));
    }
    spill.clear();
    spill.resize(len, 0);
    if !read_exact_or_eof(rx, spill, shutting_down)? {
        return Ok(None);
    }
    let decoded = Packet::decode_body(spill).map_err(corrupt)?;
    if spill.capacity() > RX_BUFFER {
        *spill = Vec::new(); // an outsized frame's buffer is not kept per stream
    }
    Ok(Some(decoded))
}

/// Per-connection reader: reassembles frames from the (peer → me)
/// stream, stamps measured wire time, and delivers packets to the
/// machine's inbox. Any non-orderly termination of the stream is
/// reported as [`Packet::PeerGone`].
fn reader_loop(
    stream: TcpStream,
    peer: u16,
    me: u16,
    inbox: Inbox,
    shutting_down: Arc<AtomicBool>,
    measured_ns: Arc<Vec<AtomicU64>>,
    epoch: Instant,
) {
    let mut rx = BufReader::with_capacity(RX_BUFFER, stream);
    let mut spill = Vec::new();
    // A clean EOF, an orderly shutdown, a mid-frame EOF and a corrupt
    // frame all end the stream; only the flag tells them apart.
    while let Ok(Some((packet, sent_ns))) = read_frame(&mut rx, &mut spill, &shutting_down) {
        let now_ns = epoch.elapsed().as_nanos() as u64;
        measured_ns[me as usize].fetch_add(now_ns.saturating_sub(sent_ns), Ordering::Relaxed);
        if !inbox.deliver(packet) {
            return; // mailbox gone: machine already torn down
        }
    }
    if !shutting_down.load(Ordering::SeqCst) {
        inbox.deliver(Packet::PeerGone { peer });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::RecvError;

    #[test]
    fn mesh_roundtrip_and_measured_time() {
        let (mailboxes, t) = TcpTransport::new(3).unwrap();
        t.deliver(0, 2, Packet::Reply { req_id: 5, payload: vec![7; 4096], err: None });
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
        let (mailboxes, t) = TcpTransport::new(2).unwrap();
        t.deliver(1, 1, Packet::Shutdown);
        assert_eq!(mailboxes[1].recv().unwrap(), Packet::Shutdown);
        assert_eq!(t.measured_wire_ns(1), 0);
        t.shutdown();
    }

    #[test]
    fn per_pair_fifo_order_is_preserved() {
        let (mailboxes, t) = TcpTransport::new(2).unwrap();
        for i in 0..200u64 {
            t.deliver(0, 1, Packet::Reply { req_id: i, payload: vec![], err: None });
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
    fn frames_beyond_and_across_the_receive_buffer_arrive_intact() {
        // Small frames decode in place from the receive buffer; a frame
        // larger than the buffer, and frames straddling its end, take
        // the spill path. Contents and order must not depend on which.
        let (mailboxes, t) = TcpTransport::new(2).unwrap();
        let sizes: Vec<usize> =
            (0..40).map(|i| [3, 5000, 70_000, 1, RX_BUFFER * 3][i % 5]).collect();
        for (i, &len) in sizes.iter().enumerate() {
            let payload = (0..len).map(|b| (b + i) as u8).collect();
            t.deliver(0, 1, Packet::Reply { req_id: i as u64, payload, err: None });
        }
        for (i, &len) in sizes.iter().enumerate() {
            match mailboxes[1].recv().unwrap() {
                Packet::Reply { req_id, payload, .. } => {
                    assert_eq!(req_id, i as u64);
                    assert_eq!(payload.len(), len);
                    assert!(payload.iter().enumerate().all(|(b, &v)| v == (b + i) as u8));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        t.shutdown();
    }

    #[test]
    fn shutdown_is_orderly_and_idempotent() {
        let (_mailboxes, t) = TcpTransport::new(4).unwrap();
        t.shutdown();
        t.shutdown(); // second call is a no-op
                      // Drop also re-enters shutdown; none of this may hang.
    }

    #[test]
    fn severed_peer_surfaces_as_peer_gone() {
        let (mailboxes, t) = TcpTransport::new(3).unwrap();
        t.sever(1);
        // Machines 0 and 2 each observe exactly one dead peer: machine 1.
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
        let (mailboxes, t) = TcpTransport::new(2).unwrap();
        // Prove the stream works before the kill.
        t.deliver(0, 1, Packet::Reply { req_id: 0, payload: vec![1], err: None });
        assert!(matches!(mailboxes[1].recv().unwrap(), Packet::Reply { req_id: 0, .. }));
        // Kill machine 1 mid-stream (no shutdown flag raised), then drain
        // the reader-side notification machine 0's reader thread emits.
        t.sever(1);
        assert_eq!(mailboxes[0].recv().unwrap(), Packet::PeerGone { peer: 1 });
        // Keep sending into the dead stream. The kernel may buffer the
        // first post-FIN write, but within a bounded number of sends the
        // write fails and the *sender* observes PeerGone — the regression
        // this test pins is the old `let _ = stream.write_all(..)` that
        // swallowed the error and left callers waiting forever.
        let mut sender_notified = false;
        for i in 0..64 {
            t.deliver(0, 1, Packet::Reply { req_id: i, payload: vec![0; 1 << 16], err: None });
            if let Ok(Some(p)) = mailboxes[0].try_recv() {
                assert_eq!(p, Packet::PeerGone { peer: 1 });
                sender_notified = true;
                break;
            }
        }
        assert!(sender_notified, "sender never observed the failed write");
        // The dead stream is retired: further sends drop silently without
        // duplicate notifications.
        t.deliver(0, 1, Packet::Shutdown);
        assert_eq!(mailboxes[0].try_recv().unwrap(), None);
        t.shutdown();
    }

    #[test]
    fn orderly_shutdown_does_not_report_peer_gone() {
        let (mailboxes, t) = TcpTransport::new(2).unwrap();
        t.shutdown();
        // After an orderly shutdown the mailbox reports disconnection
        // (all reader senders dropped once the transport is dropped),
        // never a synthetic PeerGone.
        drop(t);
        assert_eq!(mailboxes[0].recv(), Err(RecvError::Disconnected));
        assert_eq!(mailboxes[1].recv(), Err(RecvError::Disconnected));
    }
}
