//! Isolated layer probes: `Serializer` calls on a workload's own graph,
//! and `NetHandle` round trips at a workload's frame size.

use std::sync::Arc;
use std::time::Instant;

use corm::{CostModel, MetricsRegistry, TransportKind, Value};
use corm_codegen::{SerNode, Serializer};
use corm_ir::{ClassId, Ty};
use corm_net::{NetHandle, Packet};
use corm_vm::machine::MachineState;
use corm_wire::{DeserTable, Message, RmiStats, SerCycleTable};

use crate::procfs;
use crate::spans::Spans;
use crate::stats::median;
use crate::Outcome;

/// Serializer round trips per probe.
const SER_ROUNDS: usize = 3000;
/// Network round trips per transport.
const NET_ROUNDS: usize = 3000;

/// The graph a workload's hot RMI carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Graph {
    /// `linked_list.mp`'s `Foo.send` argument: a list of `n` nodes.
    List(usize),
    /// `webserver.mp`'s `Slave.getPage` reply: a page of `n` ints.
    Page(usize),
}

fn slot(st: &corm_ir::ClassTable, class: ClassId, field: &str) -> usize {
    let f = st.find_instance_field(class, field).expect("field exists in the workload's program");
    st.field(f).slot
}

/// Build `graph` in `st`'s heap; returns the root and the plan node that
/// (de)serializes it.
fn build<'p>(
    c: &'p corm::Compiled,
    graph: Graph,
    st: &mut MachineState,
) -> (Value, &'p SerNode, bool, bool) {
    let table = &c.module.table;
    let plan_for = |class, method| {
        crate::runtime::plan_of(c, class, method).expect("the workload's program has the site")
    };
    match graph {
        Graph::List(n) => {
            let plan = plan_for("Foo", "send");
            let cls = table.class_named("LinkedList").expect("LinkedList class");
            let (next, value) = (slot(table, cls, "next"), slot(table, cls, "value"));
            let mut head = Value::Null;
            for i in 0..n {
                let o = st.alloc_zeroed(table, cls);
                st.heap.set_field(o, next, head).expect("fresh node");
                st.heap.set_field(o, value, Value::Int(i as i32)).expect("fresh node");
                head = Value::Ref(o);
            }
            (head, &plan.args[0], plan.args_cycle_table, plan.arg_reuse[0])
        }
        Graph::Page(n) => {
            let plan = plan_for("Slave", "getPage");
            let cls = table.class_named("Page").expect("Page class");
            let body = st.heap.alloc_array(&Ty::Int, n);
            for i in 0..n {
                st.heap.array_set(body, i, Value::Int(7 + i as i32)).expect("in bounds");
            }
            let page = st.alloc_zeroed(table, cls);
            st.heap
                .set_field(page, slot(table, cls, "body"), Value::Ref(body))
                .expect("fresh page");
            let node = plan.ret.as_ref().expect("getPage returns a page");
            (Value::Ref(page), node, plan.ret_cycle_table, plan.ret_reuse)
        }
    }
}

/// `codegen.ser_us` / `codegen.deser_us`: median isolated
/// `Serializer::serialize` and `Serializer::deserialize` on `graph`,
/// with the cycle table and reuse candidate the plan prescribes.
pub fn serializer_probe(out: &mut Outcome, c: &corm::Compiled, graph: Graph, spans: &mut Spans) {
    let mut src = MachineState::new(0);
    let (root, node, table, reuse) = build(c, graph, &mut src);
    let stats = RmiStats::default();
    let ser = Serializer::new(&c.plans, &c.module.table, &stats);
    let mut dst = MachineState::new(0);
    let mut prev = Value::Null;
    let (mut ser_us, mut deser_us) = (Vec::new(), Vec::new());
    let mut buf = Vec::new();
    for _ in 0..SER_ROUNDS {
        buf.clear();
        let mut msg = Message::from_bytes(std::mem::take(&mut buf));
        let mut ct = table.then(SerCycleTable::new);
        let open = spans.enter("codegen.serialize");
        let t = Instant::now();
        let r = ser.serialize(&src.heap, node, root, &mut ct, &mut msg);
        ser_us.push(t.elapsed().as_secs_f64() * 1e6);
        spans.exit(open, 0);
        out.check(r.is_ok(), || format!("serialize: {r:?}"));
        let mut reader = msg.reader();
        let mut dt = table.then(DeserTable::new);
        let candidate = if reuse { prev } else { Value::Null };
        let open = spans.enter("codegen.deserialize");
        let t = Instant::now();
        let r = ser.deserialize(&mut dst.heap, node, &mut reader, &mut dt, candidate);
        deser_us.push(t.elapsed().as_secs_f64() * 1e6);
        spans.exit(open, 0);
        match r {
            Ok(o) => prev = o.value,
            Err(e) => out.check(false, || format!("deserialize: {e:?}")),
        }
        out.check(reader.is_exhausted(), || "trailing bytes after deserialize".into());
        buf = msg.into_bytes();
    }
    out.set("codegen.ser_us", median(&mut ser_us).unwrap_or(0.0));
    out.set("codegen.deser_us", median(&mut deser_us).unwrap_or(0.0));
}

/// Isolated `NetHandle` round trips at one frame size.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetProbe {
    pub tcp_us: f64,
    pub channel_us: f64,
    /// Measured in-flight time per message on the tcp round trips.
    pub wire_us_per_msg: f64,
    /// CPU of the tcp receive threads per round trip.
    pub rx_cpu_us_per_rtt: f64,
}

impl NetProbe {
    pub fn measure(frame: usize, spans: &mut Spans) -> NetProbe {
        let (tcp_us, wire, rx) = pingpong(TransportKind::Tcp, frame, spans);
        let (channel_us, _, _) = pingpong(TransportKind::Channel, frame, spans);
        NetProbe { tcp_us, channel_us, wire_us_per_msg: wire, rx_cpu_us_per_rtt: rx }
    }
}

/// Median request/reply round trip between two machines with a bare
/// echo thread on the far side; returns (median µs, wire µs per message,
/// rx-thread CPU µs per round trip).
fn pingpong(kind: TransportKind, frame: usize, spans: &mut Spans) -> (f64, f64, f64) {
    let obs = Arc::new(MetricsRegistry::new(2));
    let (mut mailboxes, net) = NetHandle::with_kind(kind, 2, CostModel::default(), obs)
        .unwrap_or_else(|e| panic!("cannot bring up {kind} for the ping-pong probe: {e}"));
    let far = mailboxes.pop().expect("two mailboxes");
    let near = mailboxes.pop().expect("two mailboxes");
    let echo_net = net.clone();
    let echo = std::thread::spawn(move || loop {
        match far.recv() {
            Ok(Packet::Request { req_id, payload, .. }) => {
                echo_net.send(1, 0, Packet::Reply { req_id, payload, err: None })
            }
            Ok(Packet::Shutdown) | Err(_) => return,
            Ok(_) => {}
        }
    });
    let before = procfs::sample();
    let payload = vec![0x5Au8; frame];
    let mut rtt = Vec::with_capacity(NET_ROUNDS);
    for req_id in 0..NET_ROUNDS as u64 {
        let p = payload.clone();
        let open =
            spans.enter(if kind == TransportKind::Tcp { "net.tcp_rtt" } else { "net.channel_rtt" });
        let t = Instant::now();
        net.send(
            0,
            1,
            Packet::Request { req_id, from: 0, site: 0, target_obj: 0, payload: p, oneway: false },
        );
        loop {
            match near.recv() {
                Ok(Packet::Reply { .. }) => break,
                Ok(_) => continue,
                Err(_) => panic!("{kind} fabric closed during the ping-pong probe"),
            }
        }
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
        spans.exit(open, req_id);
    }
    let groups = procfs::delta_by_group(&before, &procfs::sample());
    let wire_ns = net.measured_wire_ns(0) + net.measured_wire_ns(1);
    net.send(1, 1, Packet::Shutdown);
    echo.join().expect("echo thread");
    net.shutdown();
    drop(near);
    let rx = groups.get("rx").map(|t| t.cpu_ns).unwrap_or(0);
    let n = NET_ROUNDS as f64;
    (median(&mut rtt).unwrap_or(0.0), wire_ns as f64 / 1e3 / (2.0 * n), rx as f64 / 1e3 / n)
}
