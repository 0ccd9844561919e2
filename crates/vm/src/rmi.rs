//! The RMI dispatch path: marshal → send → unmarshal → invoke → reply,
//! with the paper's local-RPC cloning semantics and the §3.3 reuse
//! caches wired into (de)serialization.

use corm_codegen::{MarshalPlan, Serializer, ShadowCycleCheck, AUDIT_ERROR_PREFIX};
use corm_heap::{AllocAttribution, ObjRef, Value};
use corm_ir::{CallSiteId, ClassId, MethodId};
use corm_net::Packet;
use corm_obs::recorder::{
    FlightKind, FLAG_ARGS_CYCLE_TABLE, FLAG_ARG_REUSE, FLAG_ONEWAY, FLAG_POOL_HIT,
    FLAG_RET_CYCLE_TABLE, FLAG_RET_REUSE, FLAG_UPCALL, TRANSPORT_LOSSY,
};
use corm_wire::{DeserTable, Message, MessageReader, RmiStats, SerCycleTable};
use parking_lot::MutexGuard;

use crate::error::{VmError, VmResult};
use crate::interp::Interp;
use crate::machine::{CachedReply, MachineState};
use crate::pool::Lane;
use crate::runtime::{Drainer, Runtime, Upcall};
use crate::trace::{Phase, TraceKind};

/// Shadow table for the audit mode (DESIGN §10): created only when
/// auditing is on *and* the plan statically elided the real cycle table —
/// i.e. exactly when an unsound cycle-freedom verdict would otherwise go
/// unnoticed.
fn audit_shadow(rt: &Runtime, has_real_table: bool) -> Option<ShadowCycleCheck> {
    if rt.audit && !has_real_table {
        Some(ShadowCycleCheck::new())
    } else {
        None
    }
}

/// Fold a finished shadow table into the run's audit counters and the
/// machine's metrics shard (`corm_audit_checks_total`).
fn absorb_shadow(rt: &Runtime, my: u16, shadow: Option<ShadowCycleCheck>) {
    use std::sync::atomic::Ordering::Relaxed;
    if let Some(sh) = shadow {
        rt.audit_counters.shadow_tables.fetch_add(1, Relaxed);
        rt.audit_counters.shadow_checks.fetch_add(sh.checks, Relaxed);
        rt.obs.machine(my).audit_checks.fetch_add(sh.checks, Relaxed);
    }
}

/// The plan's applied verdicts packed as flight-recorder flags, so every
/// recorded event carries the config decisions in effect at its site.
fn plan_flags(plan: &MarshalPlan, oneway: bool) -> u8 {
    let mut f = 0;
    if plan.args_cycle_table {
        f |= FLAG_ARGS_CYCLE_TABLE;
    }
    if plan.ret_cycle_table {
        f |= FLAG_RET_CYCLE_TABLE;
    }
    if plan.arg_reuse.iter().any(|&b| b) {
        f |= FLAG_ARG_REUSE;
    }
    if plan.ret_reuse {
        f |= FLAG_RET_REUSE;
    }
    if oneway {
        f |= FLAG_ONEWAY;
    }
    f
}

/// Flight-recorder bit for a pooled-buffer checkout.
fn pool_flag(hit: bool) -> u8 {
    if hit {
        FLAG_POOL_HIT
    } else {
        0
    }
}

/// Unmarshal failures name their call site (the byte offsets inside the
/// [`corm_wire::WireError`] alone cannot say *whose* payload was short),
/// and analysis-audit errors additionally carry the site's provenance
/// via [`attach_provenance`].
fn unmarshal_context(plan: &MarshalPlan, site: CallSiteId, e: impl std::fmt::Display) -> VmError {
    attach_provenance(plan, site, format!("{e} (unmarshaling call site {})", site.0))
}

/// Cross-link an auditor failure back to the compile-time decision that
/// caused it: `analysis-audit` errors get the offending site's recorded
/// provenance (verdict, rule, witness) appended, so the report names the
/// exact analysis claim the runtime just contradicted.
fn attach_provenance(plan: &MarshalPlan, site: CallSiteId, e: impl std::fmt::Display) -> VmError {
    let msg = e.to_string();
    if msg.contains(AUDIT_ERROR_PREFIX) {
        VmError::new(format!(
            "{msg}\n  analysis provenance for call site {}:\n{}",
            site.0,
            plan.provenance.render("    ")
        ))
    } else {
        VmError::new(msg)
    }
}

/// The auditor's verdict on an upcall that reached a blocking operation:
/// the analysis claimed nothing reachable from the handler at `site`
/// blocks, and the runtime just contradicted it.
pub(crate) fn upcall_audit_error(rt: &Runtime, site: CallSiteId, op: &str) -> VmError {
    let msg = format!(
        "{AUDIT_ERROR_PREFIX}: upcall at call site {} reached blocking {op}, but the \
         analysis proved its handler non-blocking",
        site.0
    );
    match rt.plans.plan(site) {
        Some(plan) => attach_provenance(plan, site, msg),
        None => VmError::new(msg),
    }
}

/// Poison a reuse-cache hit before the deserializer reclaims it. A sound
/// reuse verdict makes this invisible (the cached graph is dead and every
/// reclaimed slot is overwritten from the wire); an unsound one lets a
/// surviving alias observe the sentinels, diverging the program output.
fn audit_poison(
    rt: &Runtime,
    my: u16,
    guard: &mut MutexGuard<'_, MachineState>,
    reuse: Value,
) -> Value {
    if rt.audit && !matches!(reuse, Value::Null) {
        use std::sync::atomic::Ordering::Relaxed;
        let n = corm_heap::poison_graph(&mut guard.heap, reuse);
        rt.audit_counters.poisoned_values.fetch_add(n, Relaxed);
        rt.obs.machine(my).audit_poisons.fetch_add(n, Relaxed);
    }
    reuse
}

/// Execute a remote (or local-RPC) call at `site`.
pub fn remote_call(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    site: CallSiteId,
    mid: MethodId,
    argv: &[Value],
    want_ret: bool,
    oneway: bool,
) -> VmResult<Value> {
    remote_call_with_req(interp, guard, site, mid, argv, want_ret, oneway).map(|(v, _)| v)
}

/// Like [`remote_call`], but also returns the minted request id, letting
/// drivers (the open-loop serving benchmark) correlate one call with its
/// flight-recorder and trace events — e.g. to tag SLO violators.
#[allow(clippy::too_many_arguments)]
pub fn remote_call_with_req(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    site: CallSiteId,
    mid: MethodId,
    argv: &[Value],
    _want_ret: bool,
    oneway: bool,
) -> VmResult<(Value, u64)> {
    let rt = interp.rt.clone();
    let plans = rt.plans.clone();
    let plan = plans
        .plan(site)
        .ok_or_else(|| VmError::new(format!("no marshal plan for call site {}", site.0)))?;
    debug_assert_eq!(plan.method, mid);

    let receiver = match argv[0] {
        Value::Remote(rr) => rr,
        Value::Null => {
            let name = &rt.module.table.method(mid).name;
            return Err(VmError::new(format!("null receiver calling remote {name}")));
        }
        other => return Err(VmError::new(format!("remote call on {other:?}"))),
    };

    // Mint the cluster-unique request id up front so the marshal phase
    // is already attributable to this RMI.
    let my = interp.machine_id();
    let req = guard.fresh_req_id();
    let shard = rt.obs.machine(my);

    // Marshal the arguments (Figure 1's `serialize_objects`). The
    // serializer bumps this machine's metrics shard.
    let ser = Serializer::new(&plans, &rt.module.table, &shard.stats);
    rt.trace_event(my, TraceKind::PhaseBegin { phase: Phase::Marshal, req, site: site.0 });
    let m0 = rt.start.elapsed();
    // One-way sends never see a reply, so their buffer could not return
    // to the pool; they get capacity-primed one-shot construction
    // instead (apps only spawn at startup). Everything else checks out
    // of the per-site pool and the buffer circulates back after the
    // reply is deserialized.
    let (buf, pool_hit) = if oneway {
        (Vec::with_capacity(plan.args_wire_size_hint), false)
    } else {
        // Checked out under the request id: with pipelined transports the
        // replies that return these buffers can land in any order, so the
        // pool's ledger — not completion order — decides the slot.
        rt.pool.checkout_for(my, req, site.0, Lane::Args, plan.args_wire_size_hint, shard)
    };
    let mut msg = Message::from_bytes(buf);
    let mut ct = if plan.args_cycle_table { Some(SerCycleTable::new()) } else { None };
    let mut shadow = audit_shadow(&rt, plan.args_cycle_table);
    for (i, node) in plan.args.iter().enumerate() {
        ser.serialize_audited(&guard.heap, node, argv[i + 1], &mut ct, &mut msg, &mut shadow)
            .map_err(|e| attach_provenance(plan, site, e))?;
    }
    absorb_shadow(&rt, my, shadow);
    shard.marshal_us.record((rt.start.elapsed() - m0).as_micros() as u64);
    rt.trace_event(my, TraceKind::PhaseEnd { phase: Phase::Marshal, req, site: site.0 });

    let site_scope = rt.obs.site(site.0);
    site_scope.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let payload_len = msg.as_bytes().len() as u64;
    site_scope.payload_bytes.record(payload_len);
    shard.payload_bytes.record(payload_len);

    if !oneway {
        shard.requests_started.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }
    let result = if receiver.machine == my {
        local_rpc(interp, guard, plan, &ser, site, req, receiver, msg, oneway, pool_hit)
    } else {
        wire_rpc(interp, guard, plan, &ser, site, req, receiver, msg, oneway, pool_hit)
    };
    if !oneway {
        if result.is_ok() {
            shard.requests_completed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        } else {
            // The buffer died with the failed call; retire its ledger
            // entry so the id can't alias a future check-in. (No-op when
            // the call already consumed the entry before failing.)
            rt.pool.abandon(my, req, shard);
        }
    }
    result.map(|v| (v, req))
}

/// "If the remote object ... is (accidentally) located on the same machine
/// as the invoking machine, the parameter and return value objects are
/// cloned" (§1). The clone goes through the same serializer programs and
/// reuse caches; only the wire transit is skipped.
#[allow(clippy::too_many_arguments)]
fn local_rpc(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    plan: &MarshalPlan,
    ser: &Serializer<'_>,
    site: CallSiteId,
    req: u64,
    receiver: corm_heap::RemoteRef,
    msg: Message,
    oneway: bool,
    pool_hit: bool,
) -> VmResult<Value> {
    let rt = interp.rt.clone();
    let my = interp.machine_id();
    let shard = rt.obs.machine(my);
    RmiStats::bump(&shard.stats.local_rpcs, 1);
    let t0 = rt.start.elapsed();
    rt.flight_event(
        my,
        FlightKind::Local,
        req,
        site.0,
        msg.as_bytes().len() as u32,
        my,
        plan_flags(plan, oneway) | pool_flag(pool_hit),
    );

    let reader_msg = msg;
    rt.trace_event(my, TraceKind::PhaseBegin { phase: Phase::Unmarshal, req, site: site.0 });
    let u0 = rt.start.elapsed();
    let vals = {
        let mut reader = reader_msg.reader();
        deserialize_args(&rt, my, guard, ser, plan, site, my, &mut reader)?
    };
    shard.unmarshal_us.record((rt.start.elapsed() - u0).as_micros() as u64);
    rt.trace_event(my, TraceKind::PhaseEnd { phase: Phase::Unmarshal, req, site: site.0 });
    // The clone is done with the request bytes; recycle them for the
    // site's next call (one-way buffers were never pooled).
    if !oneway {
        rt.pool.put_for(my, req, reader_msg.into_bytes(), shard);
    }

    let f = interp.func_of(plan.method)?;
    let mut args = vec![Value::Remote(receiver)];
    args.extend(vals.iter().copied());

    if oneway {
        // spawn on a local object: run on a fresh local thread
        let rt2 = rt.clone();
        let machine = interp.machine_id();
        let handle = crate::runtime::spawn_vm_thread("corm-local-spawn", move || {
            let mut i2 = Interp::new(rt2.clone(), machine);
            if let Err(e) = i2.run_function(f, args) {
                rt2.print(&format!("[machine {machine}] spawned rmi failed: {e}\n"));
            }
        });
        rt.spawned.lock().push(handle);
        return Ok(Value::Null);
    }

    rt.trace_event(my, TraceKind::PhaseBegin { phase: Phase::Invoke, req, site: site.0 });
    let i0 = rt.start.elapsed();
    let ret = interp.call_in(guard, f, args)?;
    shard.invoke_us.record((rt.start.elapsed() - i0).as_micros() as u64);
    rt.trace_event(my, TraceKind::PhaseEnd { phase: Phase::Invoke, req, site: site.0 });
    update_arg_caches(guard, plan, site, my, &vals);
    let end_us = rt.start.elapsed().as_micros() as u64;
    let us = end_us.saturating_sub(t0.as_micros() as u64);
    shard.rtt_us.record(us);
    rt.obs.site(site.0).rtt_us.record(us);
    rt.trace_event_at(my, end_us, TraceKind::LocalRpc { req, site: site.0, us });

    // Clone the return value through serialization as well. The clone
    // buffer pools on its own lane: return payloads have a different
    // steady-state size than request payloads.
    if plan.ret_ignored || plan.ret.is_none() {
        return Ok(Value::Null);
    }
    let node = plan.ret.as_ref().unwrap();
    let (rbuf, _ret_hit) = rt.pool.checkout(my, site.0, Lane::Ret, plan.ret_wire_size_hint, shard);
    let mut rmsg = Message::from_bytes(rbuf);
    let mut rct = if plan.ret_cycle_table { Some(SerCycleTable::new()) } else { None };
    let mut shadow = audit_shadow(&rt, plan.ret_cycle_table);
    ser.serialize_audited(&guard.heap, node, ret, &mut rct, &mut rmsg, &mut shadow)
        .map_err(|e| attach_provenance(plan, site, e))?;
    absorb_shadow(&rt, my, shadow);
    let ret_bytes = rmsg.into_bytes();
    let out = deserialize_ret(&rt, my, guard, ser, plan, site, &ret_bytes);
    rt.pool.put(my, site.0, Lane::Ret, ret_bytes, shard);
    out
}

#[allow(clippy::too_many_arguments)]
fn wire_rpc(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    plan: &MarshalPlan,
    ser: &Serializer<'_>,
    site: CallSiteId,
    req: u64,
    receiver: corm_heap::RemoteRef,
    msg: Message,
    oneway: bool,
    pool_hit: bool,
) -> VmResult<Value> {
    let rt = interp.rt.clone();
    let my = interp.machine_id();
    let shard = rt.obs.machine(my);
    RmiStats::bump(&shard.stats.remote_rpcs, 1);
    let t0 = rt.start.elapsed();

    let slot = (!oneway).then(|| {
        shard.in_flight.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        interp.machine.replies.register(req, receiver.machine)
    });
    let payload = msg.into_bytes();
    let net = rt.net.clone();
    let bytes = payload.len() as u64;
    let packet = Packet::Request {
        req_id: req,
        from: my,
        site: site.0,
        target_obj: receiver.obj.0,
        payload,
        oneway,
    };
    rt.trace_event(
        my,
        TraceKind::RmiSend { req, site: site.0, to: receiver.machine, bytes, oneway },
    );
    rt.flight_event(
        my,
        FlightKind::Send,
        req,
        site.0,
        bytes as u32,
        receiver.machine,
        plan_flags(plan, oneway) | pool_flag(pool_hit),
    );
    // Fault injection: the N-th request toward the victim pulls its power
    // cord *before* the packet goes out — the request is lost in flight
    // and the transport broadcasts `PeerGone` to the survivors.
    if let Some(fault) = rt.fault {
        if receiver.machine == fault.victim
            && rt.fault_sends.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1
                == fault.after_sends
        {
            rt.net.sever(fault.victim);
        }
    }
    // Send, then Figure 1's `wait(Machine 1)`: park on this call's own
    // reply slot with the machine lock released.
    let result = MutexGuard::unlocked(guard, || {
        net.send(my, receiver.machine, packet);
        slot.map(|s| s.wait())
    });
    let Some(result) = result else {
        return Ok(Value::Null); // one-way
    };
    shard.in_flight.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);

    match result {
        Err(remote_err) => {
            rt.flight_event(
                my,
                FlightKind::Fail,
                req,
                site.0,
                0,
                receiver.machine,
                plan_flags(plan, oneway) | pool_flag(pool_hit),
            );
            Err(VmError::new(format!("remote exception: {remote_err}")))
        }
        Ok(payload) => {
            let us = (rt.start.elapsed() - t0).as_micros() as u64;
            shard.rtt_us.record(us);
            rt.obs.site(site.0).rtt_us.record(us);
            rt.trace_event(
                my,
                TraceKind::RmiReturn { req, site: site.0, us, reply_bytes: payload.len() as u64 },
            );
            rt.flight_event(
                my,
                FlightKind::Return,
                req,
                site.0,
                payload.len() as u32,
                receiver.machine,
                plan_flags(plan, oneway) | pool_flag(pool_hit),
            );
            // The reply payload is the request buffer coming home: the
            // server reuses it for the return marshal (or clears it for
            // a bare ack), so checking it in here closes the per-site
            // recycling loop. On TCP the receiver decoded into a fresh
            // Vec, but the hit/miss accounting is identical either way.
            // Check-in goes through the request-id ledger: pipelined
            // replies can land out of order, and the ledger routes each
            // buffer back to the slot it was checked out of.
            if plan.ret_ignored || plan.ret.is_none() {
                rt.pool.put_for(my, req, payload, shard);
                return Ok(Value::Null);
            }
            rt.trace_event(
                my,
                TraceKind::PhaseBegin { phase: Phase::Unmarshal, req, site: site.0 },
            );
            let u0 = rt.start.elapsed();
            let out = deserialize_ret(&rt, my, guard, ser, plan, site, &payload);
            shard.unmarshal_us.record((rt.start.elapsed() - u0).as_micros() as u64);
            rt.trace_event(my, TraceKind::PhaseEnd { phase: Phase::Unmarshal, req, site: site.0 });
            rt.pool.put_for(my, req, payload, shard);
            out
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn deserialize_args(
    rt: &Runtime,
    my: u16,
    guard: &mut MutexGuard<'_, MachineState>,
    ser: &Serializer<'_>,
    plan: &MarshalPlan,
    site: CallSiteId,
    caller: u16,
    reader: &mut corm_wire::MessageReader<'_>,
) -> VmResult<Vec<Value>> {
    let mut dt = if plan.args_cycle_table { Some(DeserTable::new()) } else { None };
    let prev = guard.heap.set_attribution(AllocAttribution::Deserialization);
    let mut vals = Vec::with_capacity(plan.args.len());
    let mut total_reused = 0;
    let mut err = None;
    for (i, node) in plan.args.iter().enumerate() {
        let reuse =
            if plan.arg_reuse[i] { guard.take_arg_cache(site, caller, i) } else { Value::Null };
        let reuse = audit_poison(rt, my, guard, reuse);
        match ser.deserialize(&mut guard.heap, node, reader, &mut dt, reuse) {
            Ok(out) => {
                total_reused += out.reused;
                vals.push(out.value);
            }
            Err(e) => {
                err = Some(e);
                break;
            }
        }
    }
    guard.heap.set_attribution(prev);
    if let Some(e) = err {
        return Err(unmarshal_context(plan, site, e));
    }
    RmiStats::bump(&ser.stats.reused_objs, total_reused);
    Ok(vals)
}

/// After the invocation completes, stash the deserialized argument roots
/// for the next call of this unmarshaler from the same `caller` machine
/// (Fig. 13's `temp_arr = t`).
fn update_arg_caches(
    guard: &mut MutexGuard<'_, MachineState>,
    plan: &MarshalPlan,
    site: CallSiteId,
    caller: u16,
    vals: &[Value],
) {
    let n = plan.args.len();
    for (i, &reuse) in plan.arg_reuse.iter().enumerate() {
        if reuse {
            guard.set_arg_cache(site, caller, i, n, vals[i]);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn deserialize_ret(
    rt: &Runtime,
    my: u16,
    guard: &mut MutexGuard<'_, MachineState>,
    ser: &Serializer<'_>,
    plan: &MarshalPlan,
    site: CallSiteId,
    payload: &[u8],
) -> VmResult<Value> {
    let node = plan.ret.as_ref().expect("ret plan");
    // Read straight off the payload slice — the reply Vec stays with the
    // caller for pool check-in (the old path copied it into a fresh
    // Message here).
    let mut reader = MessageReader::new(payload);
    let mut dt = if plan.ret_cycle_table { Some(DeserTable::new()) } else { None };
    let reuse = if plan.ret_reuse { guard.take_ret_cache(site) } else { Value::Null };
    let reuse = audit_poison(rt, my, guard, reuse);
    let prev = guard.heap.set_attribution(AllocAttribution::Deserialization);
    let out = ser.deserialize(&mut guard.heap, node, &mut reader, &mut dt, reuse);
    guard.heap.set_attribution(prev);
    let out = out.map_err(|e| unmarshal_context(plan, site, e))?;
    RmiStats::bump(&ser.stats.reused_objs, out.reused);
    if plan.ret_reuse {
        guard.set_ret_cache(site, out.value);
    }
    Ok(out.value)
}

/// Instantiate a remote-class object on `target`.
pub fn new_remote(
    interp: &mut Interp,
    guard: &mut MutexGuard<'_, MachineState>,
    class: ClassId,
    target: u16,
) -> VmResult<Value> {
    let rt = interp.rt.clone();
    let my = interp.machine_id();
    if target == my {
        let obj = guard.alloc_zeroed(&rt.module.table, class);
        guard.heap.pin(obj); // exported
        return Ok(Value::Remote(corm_heap::RemoteRef { machine: my, obj, class }));
    }
    let req_id = guard.fresh_req_id();
    let slot = interp.machine.replies.register(req_id, target);
    let net = rt.net.clone();
    let result = MutexGuard::unlocked(guard, || {
        net.send(my, target, Packet::NewRemote { req_id, from: my, class: class.0 });
        slot.wait()
    });
    let payload = result.map_err(|e| VmError::new(format!("remote allocation failed: {e}")))?;
    let obj = ObjRef(u32::from_le_bytes(payload[..4].try_into().unwrap()));
    Ok(Value::Remote(corm_heap::RemoteRef { machine: target, obj, class }))
}

/// One request as the drain loop received it, on its way to whoever
/// runs the handler. Rides host-side only — the wire format is unchanged.
pub(crate) struct Incoming {
    pub req_id: u64,
    pub from: u16,
    pub site: u32,
    pub target_obj: u32,
    pub payload: Vec<u8>,
    pub oneway: bool,
    /// When the drainer received the request (µs since run start): the
    /// start of its queue phase.
    pub enq_us: u64,
    /// Chosen by [`crate::StallSpec`] to sleep before processing.
    pub stall: bool,
}

/// Server-side execution of one incoming request (Figure 1's
/// `Unmarshaler_Example.foo`). `drainer` is `Some` when the drain thread
/// runs the request as an upcall; it comes back unless the upcall handed
/// the mailbox to a fresh drain thread on the way.
pub(crate) fn handle_request(
    rt: &std::sync::Arc<Runtime>,
    my: u16,
    request: Incoming,
    drainer: Option<Drainer>,
) -> Option<Drainer> {
    let Incoming { req_id, from, site, target_obj, payload, oneway, enq_us, stall } = request;
    let plans = rt.plans.clone();
    let site = CallSiteId(site);
    let machine = rt.machine(my).clone();
    let mut interp = Interp::new(rt.clone(), my);
    let upcall = drainer.is_some();
    interp.upcall = drainer.map(|d| Upcall { site, drainer: Some(d) });
    let shard = rt.obs.machine(my);
    // Close the queue phase the drain loop opened: the time between the
    // drainer receiving this request and the handler starting is pure
    // waiting — the component that dominates round trips on a saturated
    // server. Closed before `t0` so the queue span ends no later than
    // the handle span begins.
    if enq_us > 0 {
        let now_us = rt.start.elapsed().as_micros() as u64;
        shard.queue_us.record(now_us.saturating_sub(enq_us));
        rt.trace_event(my, TraceKind::PhaseEnd { phase: Phase::Queue, req: req_id, site: site.0 });
    }
    // Reply-cache consult (DESIGN §16). Only the lossy transport can
    // deliver the same request twice (its at-least-once mode passes
    // duplicates up), so the reliable backends skip the cache entirely —
    // no per-RPC clone, no map traffic. A hit means this (caller,
    // request id) already executed or is executing: re-send the cached
    // reply if there is one, and never re-execute.
    let dedup = rt.transport_code == TRANSPORT_LOSSY;
    if dedup {
        let cached = machine.state.lock().reply_cache_claim(from, req_id);
        if let Some(cached) = cached {
            shard.reply_cache_hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if let CachedReply::Sent(payload, err) = cached {
                rt.net.send(my, from, Packet::Reply { req_id, payload, err });
            }
            return interp.upcall.and_then(|u| u.drainer);
        }
    }
    let t0 = rt.start.elapsed();
    // Stall injection (RunOptions::stall): model a slow server by putting
    // the chosen requests to sleep before any processing.
    if let Some(spec) = rt.stall.filter(|_| stall) {
        std::thread::sleep(std::time::Duration::from_micros(spec.stall_us));
    }
    let reused_before = shard.stats.snapshot().reused_objs;
    let request_bytes = payload.len() as u32;

    let result: VmResult<Vec<u8>> = (|| {
        let plan = plans
            .plan(site)
            .ok_or_else(|| VmError::new(format!("no unmarshal plan for site {}", site.0)))?;
        let ser = Serializer::new(&plans, &rt.module.table, &shard.stats);
        let mut guard = machine.state.lock();
        guard.active_threads += 1;

        let run = (|| {
            let msg = Message::from_bytes(payload);
            let mut reader = msg.reader();
            rt.trace_event(
                my,
                TraceKind::PhaseBegin { phase: Phase::Unmarshal, req: req_id, site: site.0 },
            );
            let u0 = rt.start.elapsed();
            let vals = deserialize_args(rt, my, &mut guard, &ser, plan, site, from, &mut reader)?;
            shard.unmarshal_us.record((rt.start.elapsed() - u0).as_micros() as u64);
            rt.trace_event(
                my,
                TraceKind::PhaseEnd { phase: Phase::Unmarshal, req: req_id, site: site.0 },
            );

            let meth = rt.module.table.method(plan.method);
            let this = Value::Remote(corm_heap::RemoteRef {
                machine: my,
                obj: ObjRef(target_obj),
                class: meth.owner,
            });
            let f = interp.func_of(plan.method)?;
            let mut args = vec![this];
            args.extend(vals.iter().copied());

            rt.trace_event(
                my,
                TraceKind::PhaseBegin { phase: Phase::Invoke, req: req_id, site: site.0 },
            );
            let i0 = rt.start.elapsed();
            let ret = interp.call_in(&mut guard, f, args)?;
            shard.invoke_us.record((rt.start.elapsed() - i0).as_micros() as u64);
            rt.trace_event(
                my,
                TraceKind::PhaseEnd { phase: Phase::Invoke, req: req_id, site: site.0 },
            );
            update_arg_caches(&mut guard, plan, site, from, &vals);

            // The request buffer becomes the reply payload: cleared for
            // a bare ack (zero payload bytes — `wire_bytes` accounting
            // is unchanged), or reused for the return-value marshal. On
            // the channel backend its capacity rides back to the caller,
            // closing the pool's recycling loop without any server-side
            // pool.
            let mut reply = msg.into_bytes();
            reply.clear();
            if oneway || plan.ret_ignored || plan.ret.is_none() {
                return Ok(reply); // bare ack
            }
            let node = plan.ret.as_ref().unwrap();
            let mut rmsg = Message::from_bytes(reply);
            let mut rct = if plan.ret_cycle_table { Some(SerCycleTable::new()) } else { None };
            let mut shadow = audit_shadow(rt, plan.ret_cycle_table);
            ser.serialize_audited(&guard.heap, node, ret, &mut rct, &mut rmsg, &mut shadow)
                .map_err(|e| attach_provenance(plan, site, e))?;
            absorb_shadow(rt, my, shadow);
            Ok(rmsg.into_bytes())
        })();

        guard.active_threads -= 1;
        run
    })();

    let end_us = rt.start.elapsed().as_micros() as u64;
    rt.trace_event_at(
        my,
        end_us,
        TraceKind::Handle {
            req: req_id,
            site: site.0,
            us: end_us.saturating_sub(t0.as_micros() as u64),
            reused: shard.stats.snapshot().reused_objs - reused_before,
        },
    );
    let mut flags = plans.plan(site).map(|p| plan_flags(p, oneway)).unwrap_or(0);
    if upcall {
        flags |= FLAG_UPCALL;
    }
    rt.flight_event(my, FlightKind::Handle, req_id, site.0, request_bytes, from, flags);
    if oneway {
        if dedup {
            let evicted =
                machine.state.lock().reply_cache_complete(from, req_id, CachedReply::OneWay);
            shard.reply_cache_evictions.fetch_add(evicted, std::sync::atomic::Ordering::Relaxed);
        }
        if let Err(e) = result {
            rt.print(&format!("[machine {my}] one-way request failed: {e}\n"));
        }
        return None;
    }
    let packet = match result {
        Ok(payload) => Packet::Reply { req_id, payload, err: None },
        Err(e) => Packet::Reply { req_id, payload: Vec::new(), err: Some(e.message) },
    };
    if dedup {
        if let Packet::Reply { payload, err, .. } = &packet {
            // Completed: replace the in-progress marker with the exact
            // reply so a later duplicate re-sends these bytes verbatim.
            let evicted = machine.state.lock().reply_cache_complete(
                from,
                req_id,
                CachedReply::Sent(payload.clone(), err.clone()),
            );
            shard.reply_cache_evictions.fetch_add(evicted, std::sync::atomic::Ordering::Relaxed);
        }
    }
    rt.net.send(my, from, packet);
    interp.upcall.and_then(|u| u.drainer)
}
