//! Upcall verdict: may a remote method's handler run on the receiving
//! machine's drain thread?
//!
//! Manta's RMI runs every request as an *upcall* from the single GM
//! receive thread. That is only safe when the handler never waits on
//! something the receive thread itself must deliver: a reply to a
//! nested remote call, a queue hand-off, a barrier partner. A handler is
//! **upcall-safe** when nothing reachable from it
//!
//! * makes a remote call or a `spawn`,
//! * allocates a remote object (`new R()` of a `remote class`), or
//! * calls `Queue.put`, `Queue.take`, `Cluster.barrier` or
//!   `System.sleepMicros`.
//!
//! Reachability follows static calls, constructors and every override a
//! virtual call may dispatch to (class-hierarchy analysis, as in the
//! heap analysis). The pass is linear in the call graph: one scan for
//! the functions that block directly, then one reverse breadth-first
//! walk that marks every function reaching them and remembers the next
//! hop, so a `may_block` verdict comes with its shortest witness chain.

use std::collections::{HashMap, VecDeque};

use corm_ir::{Builtin, CallTarget, FuncId, Instr, MethodId, Module};

use crate::provenance::Decision;

/// Why a function may block.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Reason {
    /// The function itself contains the blocking operation.
    Direct(String),
    /// The function calls `via`, which may block.
    Via(FuncId),
}

/// Per-function blocking facts for a whole module.
#[derive(Debug, Clone)]
pub struct UpcallAnalysis {
    reasons: Vec<Option<Reason>>,
}

/// The blocking operation an instruction performs, if any.
fn blocking_op(m: &Module, instr: &Instr) -> Option<String> {
    let method_name = |mid: MethodId| {
        let meth = m.table.method(mid);
        format!("{}.{}", m.table.class(meth.owner).name, meth.name)
    };
    match instr {
        Instr::Call { target: CallTarget::Remote(mid), .. } => {
            Some(format!("remote call {}", method_name(*mid)))
        }
        Instr::Call { target: CallTarget::Builtin(b), .. } => match b {
            Builtin::QueuePut => Some("Queue.put".into()),
            Builtin::QueueTake => Some("Queue.take".into()),
            Builtin::ClusterBarrier => Some("Cluster.barrier".into()),
            Builtin::SleepMicros => Some("System.sleepMicros".into()),
            _ => None,
        },
        Instr::Spawn { .. } => Some("spawn".into()),
        Instr::New { class, .. } if m.table.class(*class).is_remote => {
            Some(format!("remote new {}", m.table.class(*class).name))
        }
        _ => None,
    }
}

impl UpcallAnalysis {
    pub fn new(m: &Module) -> Self {
        let n = m.funcs.len();
        let mut reasons: Vec<Option<Reason>> = vec![None; n];
        let mut callers: Vec<Vec<FuncId>> = vec![Vec::new(); n];
        let mut overrides: HashMap<MethodId, Vec<FuncId>> = HashMap::new();
        let mut queue = VecDeque::new();

        for f in &m.funcs {
            let mut callees = Vec::new();
            for blk in &f.blocks {
                for instr in &blk.instrs {
                    if reasons[f.id.index()].is_none() {
                        if let Some(op) = blocking_op(m, instr) {
                            reasons[f.id.index()] = Some(Reason::Direct(op));
                        }
                    }
                    let Instr::Call { target, .. } = instr else { continue };
                    match *target {
                        CallTarget::Static(mid) | CallTarget::Ctor(mid) => {
                            callees.extend(m.func_of_method(mid));
                        }
                        CallTarget::Virtual { decl, vslot } => {
                            let targets = overrides.entry(decl).or_insert_with(|| {
                                let owner = m.table.method(decl).owner;
                                let mut t = Vec::new();
                                for c in m.table.subclasses_of(owner) {
                                    let vt = &m.table.class(c).vtable;
                                    if let Some(f) =
                                        vt.get(vslot as usize).and_then(|&i| m.func_of_method(i))
                                    {
                                        if !t.contains(&f) {
                                            t.push(f);
                                        }
                                    }
                                }
                                t
                            });
                            callees.extend(targets.iter().copied());
                        }
                        CallTarget::Remote(_) | CallTarget::Builtin(_) => {}
                    }
                }
            }
            callees.sort();
            callees.dedup();
            for g in callees {
                callers[g.index()].push(f.id);
            }
            if reasons[f.id.index()].is_some() {
                queue.push_back(f.id);
            }
        }

        // Reverse walk: every caller of a blocking function blocks, via
        // the first blocking callee that reached it (shortest chain).
        while let Some(g) = queue.pop_front() {
            for &f in &callers[g.index()] {
                if reasons[f.index()].is_none() {
                    reasons[f.index()] = Some(Reason::Via(g));
                    queue.push_back(f);
                }
            }
        }
        UpcallAnalysis { reasons }
    }

    /// The blocking operation `f` reaches and the call chain to it, e.g.
    /// `("Queue.put", ["Tester.submit"])`; `None` when `f` never blocks.
    pub fn witness(&self, m: &Module, f: FuncId) -> Option<(String, Vec<String>)> {
        let mut chain = Vec::new();
        let mut cur = f;
        loop {
            chain.push(m.func(cur).name.clone());
            match self.reasons[cur.index()].as_ref()? {
                Reason::Direct(op) => return Some((op.clone(), chain)),
                Reason::Via(next) => cur = *next,
            }
        }
    }

    /// Fact-level `dispatch` decision for a remote method whose handler
    /// body is `f`.
    pub fn decision(&self, m: &Module, f: FuncId) -> Decision {
        match self.witness(m, f) {
            Some((op, chain)) => Decision {
                aspect: "dispatch".into(),
                verdict: "may_block",
                rule: "reaches-blocking-op",
                witness: format!("may block: reaches {op} ({} -> {op})", chain.join(" -> ")),
            },
            None => Decision {
                aspect: "dispatch".into(),
                verdict: "non_blocking",
                rule: "no-blocking-reach",
                witness: format!(
                    "nothing reachable from {} makes a remote call, spawns, allocates a \
                     remote object or waits on a queue, barrier or sleep",
                    m.func(f).name
                ),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_ir::compile_frontend;

    fn handler(m: &Module, class: &str, method: &str) -> FuncId {
        let c = m.table.class_named(class).expect("class");
        let mid = m.table.find_method(c, method).expect("method");
        m.func_of_method(mid).expect("body")
    }

    fn verdict(src: &str, class: &str, method: &str) -> Decision {
        let m = compile_frontend(src).unwrap();
        let a = UpcallAnalysis::new(&m);
        a.decision(&m, handler(&m, class, method))
    }

    const SRC: &str = r#"
        class Shape { int area() { return 1; } }
        class Square extends Shape { int area() { Cluster.barrier(); return 4; } }
        class Circle extends Shape { int area() { return 3; } }
        class Caller { int go(Peer p) { return 0; } }
        class RemoteCaller extends Caller { int go(Peer p) { return p.ping(); } }
        remote class Peer { int ping() { return 1; } void poke() { } }
        class Helper {
            static int pure(int x) { return x + 1; }
            static int sleepy(int x) { System.sleepMicros(1); return x; }
            static int indirect(int x) { return Helper.sleepy(x); }
        }
        remote class R {
            Peer p;
            Queue q;
            int plain(int x) { return Helper.pure(x); }
            int viaStatic(int x) { return Helper.indirect(x); }
            int viaVirtual(Shape s) { return s.area(); }
            int viaVirtualRemote(Caller c) { return c.go(this.p); }
            void barrier() { Cluster.barrier(); }
            void sleeps() { System.sleepMicros(5); }
            int nested() { return this.p.ping(); }
            void spawns() { spawn this.p.poke(); }
            void allocates() { Peer q = new Peer(); }
            void puts(int x) { this.q.put(null); }
            int takes() { Object o = this.q.take(); return 0; }
            int recursive(int n) { if (n == 0) { return 0; } return this.recursive(n - 1); }
        }
        class M { static void main() { } }
    "#;

    #[test]
    fn pure_and_recursive_handlers_are_non_blocking() {
        for method in ["plain", "recursive", "ping"] {
            let class = if method == "ping" { "Peer" } else { "R" };
            let d = verdict(SRC, class, method);
            assert_eq!(d.verdict, "non_blocking", "{method}: {d}");
            assert_eq!(d.rule, "no-blocking-reach");
        }
    }

    #[test]
    fn every_blocking_operation_is_caught_directly() {
        for (method, op) in [
            ("nested", "remote call Peer.ping"),
            ("spawns", "spawn"),
            ("allocates", "remote new Peer"),
            ("puts", "Queue.put"),
            ("takes", "Queue.take"),
            ("barrier", "Cluster.barrier"),
            ("sleeps", "System.sleepMicros"),
        ] {
            let d = verdict(SRC, "R", method);
            assert_eq!(d.verdict, "may_block", "{method}");
            assert!(d.witness.contains(&format!("may block: reaches {op}")), "{method}: {d}");
        }
    }

    #[test]
    fn blocking_is_found_through_static_calls_and_virtual_overrides() {
        let d = verdict(SRC, "R", "viaStatic");
        assert_eq!(d.verdict, "may_block");
        assert!(d.witness.contains("System.sleepMicros"), "{d}");
        assert!(d.witness.contains("Helper.indirect -> Helper.sleepy"), "{d}");
        // Only one override of `area` blocks; the call may dispatch to it.
        let d = verdict(SRC, "R", "viaVirtual");
        assert_eq!(d.verdict, "may_block");
        assert!(d.witness.contains("Cluster.barrier"), "{d}");
        assert!(d.witness.contains("Square.area"), "{d}");
        let d = verdict(SRC, "R", "viaVirtualRemote");
        assert_eq!(d.verdict, "may_block");
        assert!(d.witness.contains("RemoteCaller.go -> remote call Peer.ping"), "{d}");
    }
}
