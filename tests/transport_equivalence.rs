//! Cross-transport equivalence: every app under every configuration
//! must behave identically whether packets move over the in-process
//! channel fabric, the real loopback-TCP mesh, the reactor fabric
//! (shared event loops with pipelining + adaptive batching), or the
//! lossy datagram fabric (seeded drop/duplicate/reorder faults healed
//! by at-most-once retransmission, DESIGN §16).
//!
//! All counter accounting happens in `NetHandle::send` before the
//! backend carries the packet, so for the poll-free apps
//! (`linked_list`, `array2d`, `webserver`) *every per-machine counter*
//! is asserted bit-equal. The polling apps (`lu`, `superopt`) keep
//! exact timing-free counters and tolerance-checked poll-affected ones
//! — see `corm_apps::equivalence` for the full classification.
//!
//! Tests are prefixed `tcp_` / `reactor_` / `lossy_` so CI can shard
//! the sweep across a backend matrix with a plain name filter.

use corm::{LossSpec, OptConfig, RunOptions, Semantics, TransportKind};
use corm_apps::equivalence::{assert_equivalent, run_under};
use corm_apps::{AppSpec, ALL_APPS, ARRAY2D, LINKED_LIST, LU, SUPEROPT, WEBSERVER};

fn check_all_configs(spec: &AppSpec, wire: TransportKind) {
    for (_, config) in OptConfig::TABLE_ROWS {
        assert_equivalent(spec, config, TransportKind::Channel, wire);
    }
}

macro_rules! invariance_tests {
    ($($name:ident => $spec:expr, $wire:expr;)*) => {
        $(
            #[test]
            fn $name() {
                check_all_configs(&$spec, $wire);
            }
        )*
    };
}

invariance_tests! {
    tcp_linked_list_is_transport_invariant => LINKED_LIST, TransportKind::Tcp;
    tcp_array2d_is_transport_invariant => ARRAY2D, TransportKind::Tcp;
    tcp_lu_is_transport_invariant => LU, TransportKind::Tcp;
    tcp_superopt_is_transport_invariant => SUPEROPT, TransportKind::Tcp;
    tcp_webserver_is_transport_invariant => WEBSERVER, TransportKind::Tcp;
    reactor_linked_list_is_transport_invariant => LINKED_LIST, TransportKind::Reactor;
    reactor_array2d_is_transport_invariant => ARRAY2D, TransportKind::Reactor;
    reactor_lu_is_transport_invariant => LU, TransportKind::Reactor;
    reactor_superopt_is_transport_invariant => SUPEROPT, TransportKind::Reactor;
    reactor_webserver_is_transport_invariant => WEBSERVER, TransportKind::Reactor;
    lossy_linked_list_is_transport_invariant => LINKED_LIST, TransportKind::Lossy;
    lossy_array2d_is_transport_invariant => ARRAY2D, TransportKind::Lossy;
    lossy_lu_is_transport_invariant => LU, TransportKind::Lossy;
    lossy_superopt_is_transport_invariant => SUPEROPT, TransportKind::Lossy;
    lossy_webserver_is_transport_invariant => WEBSERVER, TransportKind::Lossy;
}

fn output_matches_the_oracle(wire: TransportKind) {
    // Not only backend-vs-backend agreement: the wire run reproduces the
    // host-side oracle bit-for-bit, same as channel runs do elsewhere.
    for spec in ALL_APPS {
        let run = run_under(&spec, OptConfig::ALL, wire);
        assert_eq!(run.error, None, "{} errored under {wire}", spec.name);
        assert_eq!(
            run.output,
            spec.expected_output(spec.quick_args, spec.machines),
            "{} output diverged from the oracle under {wire}",
            spec.name
        );
        // A reliable carrier delivers each reply exactly once, to a call
        // still waiting for it.
        if wire != TransportKind::Lossy {
            assert_eq!(run.stale_replies, 0, "{} saw stale replies under {wire}", spec.name);
        }
    }
}

#[test]
fn channel_output_matches_the_oracle() {
    output_matches_the_oracle(TransportKind::Channel);
}

#[test]
fn tcp_output_matches_the_oracle() {
    output_matches_the_oracle(TransportKind::Tcp);
}

#[test]
fn reactor_output_matches_the_oracle() {
    output_matches_the_oracle(TransportKind::Reactor);
}

#[test]
fn lossy_output_matches_the_oracle() {
    output_matches_the_oracle(TransportKind::Lossy);
}

#[test]
fn lossy_at_most_once_is_exactly_once_under_seeded_faults() {
    // The acceptance gate in one test: under aggressive seeded loss the
    // at-most-once protocol must heal every fault below the VM, so a
    // poll-free app's output AND per-machine counters are bit-identical
    // to a channel run — zero double-executions, zero lost calls. The
    // lossy-plane counters prove the faults actually happened, and
    // `reply_cache_hits == 0` proves the transport (not the VM dedup
    // net) absorbed every duplicate: holdback delivery is already
    // exactly-once in order.
    let compiled = LINKED_LIST.compile(OptConfig::ALL);
    let mk = |transport, loss| {
        corm::run(
            &compiled,
            RunOptions {
                machines: LINKED_LIST.machines,
                args: LINKED_LIST.quick_args.to_vec(),
                transport,
                loss,
                ..Default::default()
            },
        )
    };
    let chan = mk(TransportKind::Channel, None);
    for rate in [0.05, 0.20] {
        let lossy = mk(TransportKind::Lossy, Some(LossSpec::seeded(0xFA11, rate)));
        assert!(lossy.error.is_none(), "rate {rate}: {:?}", lossy.error);
        assert_eq!(lossy.output, chan.output, "rate {rate}: output diverged");
        let mut faults = 0;
        for (m, (a, b)) in chan.metrics.machines.iter().zip(&lossy.metrics.machines).enumerate() {
            assert_eq!(a.stats, b.stats, "rate {rate}: machine {m} counters diverged");
            assert_eq!(b.reply_cache_hits, 0, "rate {rate}: at-most-once must dedup below the VM");
            faults += b.lossy_retransmits + b.lossy_dups_suppressed;
        }
        assert!(faults > 0, "rate {rate}: the seeded fault plan injected nothing");
    }
}

#[test]
fn lossy_at_least_once_dedups_in_the_vm_with_identical_output() {
    // Drop the transport-level holdback (at-least-once): duplicates now
    // reach the VM and the server-side reply cache must absorb them —
    // same output, `reply_cache_hits > 0`. Duplication only (no drops,
    // no reordering) keeps per-link FIFO intact, which is the only
    // ordering the VM relies on.
    let spec = LossSpec {
        dup_rate: 0.4,
        drop_rate: 0.0,
        reorder_rate: 0.0,
        jitter_us: 0,
        semantics: Semantics::AtLeastOnce,
        ..LossSpec::default()
    };
    let compiled = LINKED_LIST.compile(OptConfig::ALL);
    let out = corm::run(
        &compiled,
        RunOptions {
            machines: LINKED_LIST.machines,
            args: LINKED_LIST.quick_args.to_vec(),
            transport: TransportKind::Lossy,
            loss: Some(spec),
            ..Default::default()
        },
    );
    assert!(out.error.is_none(), "{:?}", out.error);
    assert_eq!(
        out.output,
        LINKED_LIST.expected_output(LINKED_LIST.quick_args, LINKED_LIST.machines),
        "duplicated requests must not change the program's output"
    );
    let hits: u64 = out.metrics.machines.iter().map(|m| m.reply_cache_hits).sum();
    assert!(hits > 0, "a 40% duplication rate must exercise the reply cache");
    // The cache re-sends the original reply to every duplicate request,
    // and those second copies find their call already completed.
    let stale: u64 = out.metrics.machines.iter().map(|m| m.stale_replies).sum();
    assert!(stale > 0, "re-sent replies must surface as stale replies");
}

#[test]
fn tcp_measures_wire_time_and_channel_does_not() {
    let tcp = run_under(&ARRAY2D, OptConfig::ALL, TransportKind::Tcp);
    assert!(tcp.measured_wire_ns > 0, "TCP must record real in-flight time");
    let chan = run_under(&ARRAY2D, OptConfig::ALL, TransportKind::Channel);
    assert_eq!(chan.measured_wire_ns, 0, "channel delivery is a pointer move");
}

#[test]
fn reactor_measures_wire_time_including_batch_wait() {
    // Frames are timestamped at *enqueue*, so time spent parked in a
    // coalescing buffer is charged to measured wire time too.
    let run = run_under(&ARRAY2D, OptConfig::ALL, TransportKind::Reactor);
    assert!(run.measured_wire_ns > 0, "reactor must record real in-flight time");
}

fn pool_checkouts_match(wire: TransportKind) {
    // The sender-side marshal-buffer pool keys on (call site, lane), so
    // for a deterministic poll-free app the number of checkouts a
    // machine performs (hits + misses) is a pure function of the
    // program — it cannot depend on the carrier. Both backends must
    // also be leak-free: zero steady-state misses at quick scale.
    //
    // `pool_resident_bytes` is deliberately NOT compared: the channel
    // backend moves the request `Vec` by pointer (capacity survives the
    // round trip) while the socket backends reconstruct exact-size
    // payloads on the read side, so parked capacity legitimately
    // differs.
    for spec in [&LINKED_LIST, &ARRAY2D, &WEBSERVER] {
        let compiled = spec.compile(OptConfig::ALL);
        let mut runs = Vec::new();
        for transport in [TransportKind::Channel, wire] {
            let out = corm::run(
                &compiled,
                RunOptions {
                    machines: spec.machines,
                    args: spec.quick_args.to_vec(),
                    transport,
                    ..Default::default()
                },
            );
            assert!(out.error.is_none(), "{} errored under {transport:?}", spec.name);
            runs.push(out);
        }
        let (chan, other) = (&runs[0], &runs[1]);
        for (m, (a, b)) in chan.metrics.machines.iter().zip(&other.metrics.machines).enumerate() {
            assert_eq!(
                a.pool_hits + a.pool_misses,
                b.pool_hits + b.pool_misses,
                "{} machine {m}: pool checkout count diverged across backends",
                spec.name
            );
            assert_eq!(
                a.pool_steady_misses(),
                0,
                "{} machine {m} leaks marshal buffers under channel",
                spec.name
            );
            assert_eq!(
                b.pool_steady_misses(),
                0,
                "{} machine {m} leaks marshal buffers under {wire}",
                spec.name
            );
        }
    }
}

#[test]
fn tcp_pool_checkouts_match_across_backends_for_poll_free_apps() {
    pool_checkouts_match(TransportKind::Tcp);
}

#[test]
fn reactor_pool_checkouts_match_across_backends_for_poll_free_apps() {
    pool_checkouts_match(TransportKind::Reactor);
}

#[test]
fn lossy_pool_checkouts_match_across_backends_for_poll_free_apps() {
    pool_checkouts_match(TransportKind::Lossy);
}

#[test]
fn modeled_time_is_backend_independent_for_poll_free_apps() {
    // Modeled wire time is a pure function of the (deterministic)
    // counters, so it cannot depend on the carrier.
    let compiled = ARRAY2D.compile(OptConfig::ALL);
    let mut modeled = Vec::new();
    for transport in
        [TransportKind::Channel, TransportKind::Tcp, TransportKind::Reactor, TransportKind::Lossy]
    {
        let out = corm::run(
            &compiled,
            RunOptions {
                machines: ARRAY2D.machines,
                args: ARRAY2D.quick_args.to_vec(),
                transport,
                ..Default::default()
            },
        );
        assert!(out.error.is_none());
        modeled.push(out.modeled);
    }
    assert_eq!(modeled[0], modeled[1], "tcp modeled time diverged");
    assert_eq!(modeled[0], modeled[2], "reactor modeled time diverged");
    assert_eq!(modeled[0], modeled[3], "lossy modeled time diverged");
}

// ----- upcall dispatch (DESIGN §17) ----------------------------------------
//
// Two-way requests at sites the analysis proves non-blocking run on the
// receiver's drain thread. These programs probe the edges of that model
// on every backend: a nested call back into the waiting caller's machine,
// a handler that spins until a *later* request frees it (only the step
// budget's mailbox hand-off lets that request in), and replies that land
// out of order at two callers parked on one machine.

fn run_upcall_program(src: &str, wire: TransportKind) -> corm::RunOutcome {
    let compiled = corm::compile(src, OptConfig::ALL).expect("upcall test program compiles");
    let out =
        corm::run(&compiled, RunOptions { machines: 2, transport: wire, ..Default::default() });
    assert_eq!(out.error, None, "{wire}");
    out
}

/// `relay` calls back into machine 0, so it may block and runs on a
/// worker; the nested `bump` is an upcall on machine 0's drain thread
/// while `main` is parked there waiting for `relay`.
const CALLBACK: &str = r#"
    remote class Home { int bump(int x) { return x + 1; } }
    remote class Away {
        Home home;
        void setHome(Home h) { this.home = h; }
        int relay(int x) { return this.home.bump(x) * 2; }
    }
    class M {
        static void main() {
            Home h = new Home() @ 0;
            Away a = new Away() @ 1;
            a.setHome(h);
            long s = 0;
            for (int i = 0; i < 50; i++) { s += a.relay(i); }
            System.println(Str.fromLong(s));
        }
    }
"#;

fn upcall_calling_back_into_the_caller_completes(wire: TransportKind) {
    let out = run_upcall_program(CALLBACK, wire);
    assert_eq!(out.output, "2550\n", "{wire}");
    // 50 nested bumps ran as upcalls on machine 0; setHome on machine 1.
    assert_eq!(out.metrics.machines[0].upcalls, 50, "{wire}");
    assert_eq!(out.metrics.machines[1].upcalls, 1, "{wire}: relay may block, so only setHome");
}

/// `spin` never blocks, so it starts as an upcall on machine 1's drain
/// thread — and only `raise`, a later request to the same machine, can
/// end it. `main` raises only after `isSpinning` answers true, which the
/// spinning drainer itself can never serve: the step budget must hand
/// the mailbox to a fresh drain thread.
const SPIN: &str = r#"
    remote class Flag {
        boolean up;
        boolean spinning;
        int spin() {
            this.spinning = true;
            int n = 0;
            while (!this.up) { n++; }
            return 1;
        }
        boolean isSpinning() { return this.spinning; }
        void raise() { this.up = true; }
    }
    remote class Waiter {
        int got;
        boolean done;
        void go(Flag f) { this.got = f.spin(); this.done = true; }
        boolean isDone() { return this.done; }
        int result() { return this.got; }
    }
    class M {
        static void main() {
            Flag f = new Flag() @ 1;
            Waiter w = new Waiter() @ 0;
            spawn w.go(f);
            while (!f.isSpinning()) { System.sleepMicros(100); }
            f.raise();
            while (!w.isDone()) { System.sleepMicros(100); }
            System.println(Str.fromLong(w.result()));
        }
    }
"#;

fn spinning_upcall_hands_off_the_mailbox_and_completes(wire: TransportKind) {
    let out = run_upcall_program(SPIN, wire);
    assert_eq!(out.output, "1\n", "{wire}");
    assert!(out.metrics.machines[1].upcall_handoffs >= 1, "{wire}: the spin never handed off");
}

/// Two callers parked on machine 0 with replies crossing: `slow` (it
/// sleeps, so a worker runs it) cannot return before `fast` (an upcall)
/// has run, so the later call's reply lands first — and each caller must
/// still get its own value.
const OUT_OF_ORDER: &str = r#"
    remote class Server {
        boolean slowStarted;
        boolean released;
        int slow(int x) {
            this.slowStarted = true;
            while (!this.released) { System.sleepMicros(100); }
            return x * 3;
        }
        boolean started() { return this.slowStarted; }
        int fast(int x) { this.released = true; return x * 2; }
    }
    remote class Client {
        int got;
        boolean done;
        void go(Server s) { this.got = s.slow(7); this.done = true; }
        boolean isDone() { return this.done; }
        int result() { return this.got; }
    }
    class M {
        static void main() {
            Server s = new Server() @ 1;
            Client c = new Client() @ 0;
            spawn c.go(s);
            while (!s.started()) { System.sleepMicros(100); }
            int fast = s.fast(5);
            while (!c.isDone()) { System.sleepMicros(100); }
            System.println(Str.fromLong(fast));
            System.println(Str.fromLong(c.result()));
        }
    }
"#;

fn out_of_order_replies_reach_their_own_callers(wire: TransportKind) {
    let out = run_upcall_program(OUT_OF_ORDER, wire);
    assert_eq!(out.output, "10\n21\n", "{wire}");
}

macro_rules! upcall_tests {
    ($($name:ident => $check:ident, $wire:expr;)*) => {
        $(
            #[test]
            fn $name() {
                $check($wire);
            }
        )*
    };
}

upcall_tests! {
    tcp_upcall_calling_back_into_the_caller_completes =>
        upcall_calling_back_into_the_caller_completes, TransportKind::Tcp;
    reactor_upcall_calling_back_into_the_caller_completes =>
        upcall_calling_back_into_the_caller_completes, TransportKind::Reactor;
    lossy_upcall_calling_back_into_the_caller_completes =>
        upcall_calling_back_into_the_caller_completes, TransportKind::Lossy;
    channel_upcall_calling_back_into_the_caller_completes =>
        upcall_calling_back_into_the_caller_completes, TransportKind::Channel;
    tcp_spinning_upcall_hands_off_the_mailbox_and_completes =>
        spinning_upcall_hands_off_the_mailbox_and_completes, TransportKind::Tcp;
    reactor_spinning_upcall_hands_off_the_mailbox_and_completes =>
        spinning_upcall_hands_off_the_mailbox_and_completes, TransportKind::Reactor;
    lossy_spinning_upcall_hands_off_the_mailbox_and_completes =>
        spinning_upcall_hands_off_the_mailbox_and_completes, TransportKind::Lossy;
    channel_spinning_upcall_hands_off_the_mailbox_and_completes =>
        spinning_upcall_hands_off_the_mailbox_and_completes, TransportKind::Channel;
    tcp_out_of_order_replies_reach_their_own_callers =>
        out_of_order_replies_reach_their_own_callers, TransportKind::Tcp;
    reactor_out_of_order_replies_reach_their_own_callers =>
        out_of_order_replies_reach_their_own_callers, TransportKind::Reactor;
    lossy_out_of_order_replies_reach_their_own_callers =>
        out_of_order_replies_reach_their_own_callers, TransportKind::Lossy;
    channel_out_of_order_replies_reach_their_own_callers =>
        out_of_order_replies_reach_their_own_callers, TransportKind::Channel;
}

// ----- replies complete on the receiving thread (DESIGN §17) ---------------
//
// Both machines call and serve at once: a spawned thread on machine 0
// calls `add` on machine 1 while a spawned thread on machine 1 calls
// `add` on machine 0. `add` is upcall-safe, so each drain thread serves
// requests while the replies to its own machine's caller land on the
// thread that receives them. `main` joins both callers through a queue
// (no polling), so every counter is a pure function of the program.

const CROSSFIRE: &str = r#"
    remote class Acc {
        long sum;
        int add(int x) { this.sum = this.sum + x; return x + 1; }
        long total() { return this.sum; }
    }
    remote class Done {
        Queue q;
        long got;
        void open() { this.q = new Queue(4); }
        void signal(long v) { this.got = this.got + v; this.q.put("done"); }
        void await() { Object o = this.q.take(); }
        long total() { return this.got; }
    }
    remote class Caller {
        void run(Acc peer, Done done, int n) {
            long s = 0;
            for (int i = 0; i < n; i++) { s += peer.add(i); }
            done.signal(s);
        }
    }
    class M {
        static void main() {
            Acc a0 = new Acc() @ 0;
            Acc a1 = new Acc() @ 1;
            Done d = new Done() @ 0;
            d.open();
            Caller c0 = new Caller() @ 0;
            Caller c1 = new Caller() @ 1;
            spawn c0.run(a1, d, 300);
            spawn c1.run(a0, d, 200);
            d.await();
            d.await();
            System.println(Str.fromLong(d.total()));
            System.println(Str.fromLong(a0.total()));
            System.println(Str.fromLong(a1.total()));
        }
    }
"#;

fn crossfire_matches_the_channel_run(wire: TransportKind) {
    let compiled = corm::compile(CROSSFIRE, OptConfig::ALL).expect("crossfire program compiles");
    let run = |transport| {
        let out = corm::run(&compiled, RunOptions { machines: 2, transport, ..Default::default() });
        assert_eq!(out.error, None, "{transport}");
        out
    };
    let (chan, other) = (run(TransportKind::Channel), run(wire));
    // sum(i + 1) over 0..300 and 0..200; each Acc sums its caller's i.
    assert_eq!(other.output, "65250\n19900\n44850\n", "{wire}");
    assert_eq!(other.output, chan.output, "{wire}");
    for (m, (a, b)) in chan.metrics.machines.iter().zip(&other.metrics.machines).enumerate() {
        assert_eq!(a.stats, b.stats, "{wire}: machine {m} counters diverged");
        assert_eq!(a.upcalls, b.upcalls, "{wire}: machine {m} upcalls diverged");
        assert_eq!(a.upcall_handoffs, b.upcall_handoffs, "{wire}: machine {m} hand-offs");
        assert_eq!(b.stale_replies, 0, "{wire}: machine {m} dropped a reply");
        assert_eq!(b.reply_cache_hits, 0, "{wire}: machine {m} re-executed a call");
    }
    // Each machine's drain thread served the other's calls as upcalls.
    assert!(other.metrics.machines[0].upcalls >= 200, "{wire}");
    assert!(other.metrics.machines[1].upcalls >= 300, "{wire}");
}

upcall_tests! {
    channel_crossfire_calls_match_the_channel_run =>
        crossfire_matches_the_channel_run, TransportKind::Channel;
    tcp_crossfire_calls_match_the_channel_run =>
        crossfire_matches_the_channel_run, TransportKind::Tcp;
    reactor_crossfire_calls_match_the_channel_run =>
        crossfire_matches_the_channel_run, TransportKind::Reactor;
    lossy_crossfire_calls_match_the_channel_run =>
        crossfire_matches_the_channel_run, TransportKind::Lossy;
}
