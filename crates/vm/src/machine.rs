//! Per-machine state: heap, statics, native queues, outstanding-reply
//! slots and the §3.3 reuse caches.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::thread::Thread;

use corm_heap::{Heap, ObjRef, Value};
use corm_ir::{CallSiteId, ClassId, ClassTable, Ty};
use corm_net::ReplySink;
use corm_obs::MetricsRegistry;
use parking_lot::{Condvar, Mutex};

use crate::error::{VmError, VmResult};

/// A native blocking queue (`Queue` builtin).
#[derive(Debug, Default)]
pub struct VmQueue {
    pub cap: usize,
    pub items: VecDeque<Value>,
}

/// One outstanding two-way RMI (DESIGN §17): the calling thread parks
/// on its own slot, and the thread that receives the reply fills it and
/// unparks exactly that thread — no other waiter on the machine wakes.
#[derive(Debug)]
pub struct ReplySlot {
    /// Machine the request went to — recorded so that when a peer dies,
    /// only calls aimed at it are failed.
    dest: u16,
    waiter: Thread,
    result: Mutex<Option<Result<Vec<u8>, String>>>,
}

impl ReplySlot {
    /// Park until the reply (or a failure) lands in this slot. Must run
    /// on the thread that registered the slot.
    pub fn wait(&self) -> Result<Vec<u8>, String> {
        loop {
            if let Some(r) = self.result.lock().take() {
                return r;
            }
            std::thread::park();
        }
    }

    fn fill(&self, result: Result<Vec<u8>, String>) {
        *self.result.lock() = Some(result);
        self.waiter.unpark();
    }
}

/// A machine's outstanding replies, keyed by request id. It sits beside
/// the machine lock, not under it, so completing a reply never waits for
/// the heap.
#[derive(Debug, Default)]
pub struct ReplyTable {
    slots: Mutex<HashMap<u64, Arc<ReplySlot>>>,
}

impl ReplyTable {
    /// Register the calling thread as the waiter for request `req`, sent
    /// to machine `dest`.
    pub fn register(&self, req: u64, dest: u16) -> Arc<ReplySlot> {
        let slot =
            Arc::new(ReplySlot { dest, waiter: std::thread::current(), result: Mutex::new(None) });
        self.slots.lock().insert(req, slot.clone());
        slot
    }

    /// Complete request `req` and wake its caller. Only a call still
    /// waiting may complete: a reply whose slot is gone (the caller
    /// already completed via an earlier copy, or a peer failure failed
    /// it) is stale and returns `false`.
    pub fn complete(&self, req: u64, result: Result<Vec<u8>, String>) -> bool {
        let slot = self.slots.lock().remove(&req);
        match slot {
            Some(slot) => {
                slot.fill(result);
                true
            }
            None => false,
        }
    }

    /// Fail every call waiting on `peer` (on anyone, when `peer` is
    /// `None`) with `why`, waking their callers. Returns the failed ids.
    pub fn fail(&self, peer: Option<u16>, why: &str) -> Vec<u64> {
        let mut slots = self.slots.lock();
        let failed: Vec<u64> = slots
            .iter()
            .filter(|(_, s)| peer.is_none_or(|p| s.dest == p))
            .map(|(&req, _)| req)
            .collect();
        for req in &failed {
            if let Some(slot) = slots.remove(req) {
                slot.fill(Err(why.to_string()));
            }
        }
        failed
    }

    /// Calls currently waiting for a reply.
    pub fn waiting(&self) -> usize {
        self.slots.lock().len()
    }
}

/// Bound of the per-machine reply cache (completed entries).
pub const REPLY_CACHE_CAP: usize = 128;

/// One entry of the server-side reply cache (DESIGN §16): what this
/// machine last did for a given `(caller, request id)`, so a duplicate
/// invocation — possible when the lossy transport runs in at-least-once
/// mode — is answered from the cache instead of re-executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CachedReply {
    /// The original invocation is still executing on another worker: the
    /// duplicate is dropped (at the transport level its datagram was
    /// already acknowledged; nobody re-asks at the VM level).
    InProgress,
    /// Completed one-way call: executed, nothing to resend.
    OneWay,
    /// The exact reply already sent: `(payload, error)`.
    Sent(Vec<u8>, Option<String>),
}

/// Everything a machine owns, guarded by one lock (the per-machine "big
/// lock"; blocking operations release it while they wait).
pub struct MachineState {
    pub heap: Heap,
    pub statics: Vec<Value>,
    pub queues: Vec<VmQueue>,
    /// Callee-side argument reuse caches: per call site and calling
    /// machine, one cached root per argument (the paper's `temp_arr`
    /// static, Fig. 13). Keying by caller as well keeps a site's local
    /// and remote callers from racing for one slot, so the reuse counts
    /// do not follow the thread interleaving.
    pub arg_cache: HashMap<(CallSiteId, u16), Vec<Value>>,
    /// Caller-side return-value reuse caches, per call site.
    pub ret_cache: HashMap<CallSiteId, Value>,
    pub next_req: u64,
    /// VM threads currently executing (or blocked) on this machine; GC is
    /// only safe when the requesting thread is alone.
    pub active_threads: usize,
    /// Allocated bytes at the last collection (auto-GC pacing).
    pub last_gc_bytes: u64,
    /// Interned string literals (pinned), keyed by `StrId`.
    pub lit_strings: HashMap<u32, ObjRef>,
    /// Server-side reply cache keyed by `(caller, request id)` —
    /// deduplicates re-executed calls under duplicate delivery (see
    /// [`CachedReply`]). Bounded by [`REPLY_CACHE_CAP`] completed
    /// entries, FIFO eviction.
    pub reply_cache: HashMap<(u16, u64), CachedReply>,
    /// FIFO eviction order of the *completed* `reply_cache` entries
    /// (in-progress markers are transient and never queued).
    pub reply_cache_order: VecDeque<(u16, u64)>,
}

impl MachineState {
    pub fn new(num_statics: usize) -> Self {
        Self::with_statics(vec![Value::Null; num_statics])
    }

    /// Per-type zero defaults for every static variable of `table`.
    pub fn static_defaults(table: &ClassTable) -> Vec<Value> {
        let mut defaults = vec![Value::Null; table.num_statics];
        for f in &table.fields {
            if let Some(sid) = f.static_id {
                defaults[sid.index()] = zero_value(&f.ty);
            }
        }
        defaults
    }

    pub fn with_statics(statics: Vec<Value>) -> Self {
        MachineState {
            heap: Heap::new(),
            statics,
            queues: Vec::new(),
            arg_cache: HashMap::new(),
            ret_cache: HashMap::new(),
            next_req: 1,
            active_threads: 0,
            last_gc_bytes: 0,
            lit_strings: HashMap::new(),
            reply_cache: HashMap::new(),
            reply_cache_order: VecDeque::new(),
        }
    }

    /// Consult the reply cache for `(from, req_id)`. A hit means this
    /// request was already executed (or is executing): the caller must
    /// not run it again. Misses atomically claim the slot with an
    /// [`CachedReply::InProgress`] marker so a concurrently-arriving
    /// duplicate cannot race into a second execution.
    pub fn reply_cache_claim(&mut self, from: u16, req_id: u64) -> Option<CachedReply> {
        match self.reply_cache.get(&(from, req_id)) {
            Some(entry) => Some(entry.clone()),
            None => {
                self.reply_cache.insert((from, req_id), CachedReply::InProgress);
                None
            }
        }
    }

    /// Replace the in-progress marker with the completed entry and
    /// enforce the bound. Returns the number of entries evicted.
    pub fn reply_cache_complete(&mut self, from: u16, req_id: u64, entry: CachedReply) -> u64 {
        debug_assert!(!matches!(entry, CachedReply::InProgress));
        self.reply_cache.insert((from, req_id), entry);
        self.reply_cache_order.push_back((from, req_id));
        let mut evicted = 0;
        while self.reply_cache_order.len() > REPLY_CACHE_CAP {
            if let Some(old) = self.reply_cache_order.pop_front() {
                self.reply_cache.remove(&old);
                evicted += 1;
            }
        }
        evicted
    }

    pub fn fresh_req_id(&mut self) -> u64 {
        let id = self.next_req;
        self.next_req += 1;
        id
    }

    /// Allocate a user-class instance with per-type zero defaults.
    pub fn alloc_zeroed(&mut self, table: &ClassTable, class: ClassId) -> ObjRef {
        let layout = &table.class(class).layout;
        let obj = self.heap.alloc_obj(class, layout.len());
        for (slot, &fid) in layout.iter().enumerate() {
            let v = zero_value(&table.field(fid).ty);
            // fresh objects always have valid slots
            self.heap.set_field(obj, slot, v).expect("fresh object slot");
        }
        obj
    }

    /// Update one reuse-cache slot, maintaining GC pins on the roots.
    pub fn set_arg_cache(
        &mut self,
        site: CallSiteId,
        caller: u16,
        idx: usize,
        nargs: usize,
        v: Value,
    ) {
        let slots =
            self.arg_cache.entry((site, caller)).or_insert_with(|| vec![Value::Null; nargs]);
        if slots.len() < nargs {
            slots.resize(nargs, Value::Null);
        }
        let old = std::mem::replace(&mut slots[idx], v);
        if let Value::Ref(r) = old {
            if old != v {
                self.heap.unpin(r);
            }
        }
        if let Value::Ref(r) = v {
            self.heap.pin(r);
        }
    }

    /// Take (and clear) a reuse candidate — Fig. 13's `temp_arr = null`
    /// guard against concurrent unmarshalers.
    pub fn take_arg_cache(&mut self, site: CallSiteId, caller: u16, idx: usize) -> Value {
        match self.arg_cache.get_mut(&(site, caller)) {
            Some(slots) if idx < slots.len() => std::mem::replace(&mut slots[idx], Value::Null),
            _ => Value::Null,
        }
    }

    pub fn set_ret_cache(&mut self, site: CallSiteId, v: Value) {
        let old = self.ret_cache.insert(site, v);
        if let Some(Value::Ref(r)) = old {
            if old != Some(v) {
                self.heap.unpin(r);
            }
        }
        if let Value::Ref(r) = v {
            self.heap.pin(r);
        }
    }

    pub fn take_ret_cache(&mut self, site: CallSiteId) -> Value {
        self.ret_cache.insert(site, Value::Null).unwrap_or(Value::Null)
    }

    // ----- native queues ----------------------------------------------------

    pub fn new_queue(&mut self, cap: usize) -> u32 {
        self.queues.push(VmQueue { cap: cap.max(1), items: VecDeque::new() });
        self.queues.len() as u32 - 1
    }

    pub fn queue(&mut self, id: u32) -> VmResult<&mut VmQueue> {
        self.queues
            .get_mut(id as usize)
            .ok_or_else(|| VmError::new(format!("bad queue handle {id}")))
    }

    /// GC roots outside thread frames: statics, queue contents and the
    /// heap pin set (exports + reuse caches are pinned).
    pub fn external_roots(&self) -> Vec<ObjRef> {
        let mut roots = Vec::new();
        for v in &self.statics {
            if let Value::Ref(r) = v {
                roots.push(*r);
            }
        }
        for q in &self.queues {
            for v in &q.items {
                if let Value::Ref(r) = v {
                    roots.push(*r);
                }
            }
        }
        roots
    }
}

/// One simulated machine: its state, the condvar `Queue` waiters block
/// on, and the outstanding-reply table (outside the state lock).
pub struct MachineShared {
    pub id: u16,
    pub state: Mutex<MachineState>,
    pub cv: Condvar,
    pub replies: ReplyTable,
}

impl MachineShared {
    pub fn new(id: u16, num_statics: usize) -> Self {
        Self::with_statics(id, vec![Value::Null; num_statics])
    }

    pub fn with_statics(id: u16, statics: Vec<Value>) -> Self {
        let mut state = MachineState::with_statics(statics);
        // Namespace request ids by machine so every RMI carries a
        // cluster-unique id (trace events of one call link across
        // machines by it). 48 bits of counter per machine.
        state.next_req = ((id as u64) << 48) + 1;
        MachineShared {
            id,
            state: Mutex::new(state),
            cv: Condvar::new(),
            replies: ReplyTable::default(),
        }
    }
}

/// A machine's reply sink (DESIGN §17): whichever thread receives a
/// reply for this machine completes the caller's slot and unparks it,
/// so no reply crosses the mailbox and the drain thread. It touches only
/// the reply table, never `state`, so a reply lands even while another
/// thread holds the heap lock.
pub(crate) struct ReplyRoute {
    pub(crate) machine: Arc<MachineShared>,
    pub(crate) obs: Arc<MetricsRegistry>,
}

impl ReplySink for ReplyRoute {
    fn reply(&self, req_id: u64, payload: Vec<u8>, err: Option<String>) {
        let result = match err {
            Some(e) => Err(e),
            None => Ok(payload),
        };
        // Stale replies (the caller already completed via an earlier
        // copy, or PeerGone failed it) find no slot — under at-least-once
        // semantics the server's reply cache re-sends replies — and are
        // dropped, counted.
        if !self.machine.replies.complete(req_id, result) {
            let shard = self.obs.machine(self.machine.id);
            shard.stale_replies.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// The zero/default value of a MiniParty type.
pub fn zero_value(ty: &Ty) -> Value {
    match ty {
        Ty::Bool => Value::Bool(false),
        Ty::Int => Value::Int(0),
        Ty::Long => Value::Long(0),
        Ty::Double => Value::Double(0.0),
        _ => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corm_ir::CallSiteId;

    #[test]
    fn queue_handles() {
        let mut st = MachineState::new(0);
        let q = st.new_queue(2);
        st.queue(q).unwrap().items.push_back(Value::Int(1));
        assert_eq!(st.queue(q).unwrap().items.len(), 1);
        assert!(st.queue(99).is_err());
    }

    #[test]
    fn arg_cache_pins_roots() {
        let mut st = MachineState::new(0);
        let o = st.heap.alloc_obj(corm_ir::OBJECT_CLASS, 0);
        st.set_arg_cache(CallSiteId(3), 1, 0, 2, Value::Ref(o));
        // pinned: survives GC with no roots
        let rep = st.heap.gc([]);
        assert_eq!(rep.live, 1);
        // replacing the slot unpins the old root
        let o2 = st.heap.alloc_obj(corm_ir::OBJECT_CLASS, 0);
        st.set_arg_cache(CallSiteId(3), 1, 0, 2, Value::Ref(o2));
        let rep = st.heap.gc([]);
        assert_eq!(rep.freed, 1);
    }

    #[test]
    fn take_cache_clears_slot() {
        let mut st = MachineState::new(0);
        let o = st.heap.alloc_obj(corm_ir::OBJECT_CLASS, 0);
        st.set_arg_cache(CallSiteId(1), 0, 1, 2, Value::Ref(o));
        assert_eq!(st.take_arg_cache(CallSiteId(1), 1, 1), Value::Null, "slots are per caller");
        assert_eq!(st.take_arg_cache(CallSiteId(1), 0, 1), Value::Ref(o));
        assert_eq!(st.take_arg_cache(CallSiteId(1), 0, 1), Value::Null);
    }

    #[test]
    fn reply_cache_claims_once_and_replays_the_completed_entry() {
        let mut st = MachineState::new(0);
        // First arrival claims the slot; the concurrent duplicate sees
        // the in-progress marker and must not execute.
        assert_eq!(st.reply_cache_claim(1, 7), None);
        assert_eq!(st.reply_cache_claim(1, 7), Some(CachedReply::InProgress));
        // Completion replaces the marker; later duplicates replay it.
        st.reply_cache_complete(1, 7, CachedReply::Sent(vec![1, 2], None));
        assert_eq!(st.reply_cache_claim(1, 7), Some(CachedReply::Sent(vec![1, 2], None)));
        // Interleaved callers with the same req id namespace don't alias:
        // the key is (caller, req id).
        assert_eq!(st.reply_cache_claim(2, 7), None);
        st.reply_cache_complete(2, 7, CachedReply::OneWay);
        assert_eq!(st.reply_cache_claim(2, 7), Some(CachedReply::OneWay));
        assert_eq!(st.reply_cache_claim(1, 7), Some(CachedReply::Sent(vec![1, 2], None)));
    }

    #[test]
    fn reply_cache_evicts_fifo_under_the_bound() {
        let mut st = MachineState::new(0);
        let mut evicted = 0;
        for i in 0..(REPLY_CACHE_CAP as u64 + 10) {
            assert_eq!(st.reply_cache_claim(1, i), None);
            evicted += st.reply_cache_complete(1, i, CachedReply::OneWay);
        }
        assert_eq!(evicted, 10, "everything past the cap is evicted");
        assert_eq!(st.reply_cache.len(), REPLY_CACHE_CAP);
        assert_eq!(st.reply_cache_order.len(), REPLY_CACHE_CAP);
        // The oldest entries are gone (a re-arrival would re-execute —
        // the cache is a bounded best-effort dedup, sized so that any
        // plausible retransmit window fits).
        assert_eq!(st.reply_cache_claim(1, 0), None);
        assert_eq!(st.reply_cache_claim(1, REPLY_CACHE_CAP as u64 + 9), Some(CachedReply::OneWay));
    }

    #[test]
    fn a_reply_wakes_only_its_own_caller_even_out_of_order() {
        let table = Arc::new(ReplyTable::default());
        let (tx, rx) = std::sync::mpsc::channel();
        let callers: Vec<_> = [10u64, 11]
            .into_iter()
            .map(|req| {
                let (table, tx) = (table.clone(), tx.clone());
                std::thread::spawn(move || {
                    let slot = table.register(req, 1);
                    tx.send(()).unwrap();
                    slot.wait()
                })
            })
            .collect();
        rx.recv().unwrap();
        rx.recv().unwrap();
        // Replies land in the reverse order of the calls.
        assert!(table.complete(11, Ok(vec![11])));
        assert!(table.complete(10, Ok(vec![10])));
        assert!(!table.complete(10, Ok(vec![0])), "a duplicate reply is stale");
        let got: Vec<_> = callers.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got, vec![Ok(vec![10]), Ok(vec![11])]);
        assert_eq!(table.waiting(), 0);
    }

    #[test]
    fn fail_pending_is_scoped_to_the_dead_peer() {
        let table = ReplyTable::default();
        let to1 = table.register(1, 1);
        let to2 = table.register(2, 2);
        assert_eq!(table.fail(Some(1), "peer machine 1 disconnected"), vec![1]);
        assert!(matches!(to1.wait(), Err(e) if e.contains('1')));
        assert_eq!(table.waiting(), 1, "a call to a live peer must keep waiting");
        assert!(table.complete(2, Ok(vec![9])));
        assert_eq!(to2.wait(), Ok(vec![9]));
    }

    #[test]
    fn fail_pending_without_peer_fails_everything_waiting() {
        let table = ReplyTable::default();
        let slots = [table.register(1, 1), table.register(2, 2)];
        let mut failed = table.fail(None, "transport disconnected");
        failed.sort();
        assert_eq!(failed, vec![1, 2]);
        for slot in slots {
            assert!(slot.wait().is_err());
        }
        assert!(!table.complete(1, Ok(Vec::new())), "a failed call cannot complete");
    }

    #[test]
    fn a_reply_completes_while_another_thread_holds_the_heap_lock() {
        let machine = Arc::new(MachineShared::new(0, 0));
        let route = ReplyRoute { machine: machine.clone(), obs: Arc::new(MetricsRegistry::new(1)) };
        let (tx, rx) = std::sync::mpsc::channel();
        let caller = {
            let machine = machine.clone();
            std::thread::spawn(move || {
                let slot = machine.replies.register(5, 1);
                tx.send(()).unwrap();
                slot.wait()
            })
        };
        rx.recv().unwrap();
        // Hold the heap lock for the whole delivery: completing the reply
        // must neither wait for it nor leave the caller parked.
        let held = machine.state.lock();
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            route.reply(5, vec![42], None);
            done_tx.send(()).unwrap();
        });
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("completing a reply waited for the heap lock");
        assert_eq!(caller.join().unwrap(), Ok(vec![42]), "the caller woke with its reply");
        drop(held);
    }

    #[test]
    fn a_reply_without_a_waiting_call_is_counted_stale() {
        let machine = Arc::new(MachineShared::new(1, 0));
        let obs = Arc::new(MetricsRegistry::new(2));
        let route = ReplyRoute { machine: machine.clone(), obs: obs.clone() };
        let slot = machine.replies.register(3, 0);
        route.reply(3, Vec::new(), Some("boom".into()));
        assert_eq!(slot.wait(), Err("boom".to_string()));
        route.reply(3, Vec::new(), None); // a duplicate copy
        route.reply(8, Vec::new(), None); // never asked for
        assert_eq!(obs.machine_snapshot(1).stale_replies, 2);
        assert_eq!(obs.machine_snapshot(0).stale_replies, 0);
    }

    #[test]
    fn external_roots_cover_statics_and_queues() {
        let mut st = MachineState::new(2);
        let a = st.heap.alloc_obj(corm_ir::OBJECT_CLASS, 0);
        let b = st.heap.alloc_obj(corm_ir::OBJECT_CLASS, 0);
        st.statics[0] = Value::Ref(a);
        let q = st.new_queue(4);
        st.queue(q).unwrap().items.push_back(Value::Ref(b));
        let roots = st.external_roots();
        assert!(roots.contains(&a) && roots.contains(&b));
    }
}
