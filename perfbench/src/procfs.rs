//! Per-thread busy time, run-queue wait and wake-ups read from outside
//! the program: `/proc/self/task/*/{comm,schedstat,status}`, grouped by
//! the thread names the runtime gives its threads.

use std::collections::HashMap;

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadTimes {
    /// Time on a CPU, ns (schedstat field 1).
    pub cpu_ns: u64,
    /// Time runnable but waiting for a CPU, ns (schedstat field 2).
    pub wait_ns: u64,
    /// Voluntary context switches: the thread blocked and was woken.
    pub wakeups: u64,
}

impl std::ops::AddAssign for ThreadTimes {
    fn add_assign(&mut self, o: ThreadTimes) {
        self.cpu_ns += o.cpu_ns;
        self.wait_ns += o.wait_ns;
        self.wakeups += o.wakeups;
    }
}

/// The layer a thread belongs to, from its name.
pub fn group_of(comm: &str) -> &'static str {
    if comm.starts_with("corm-drain") {
        "drain"
    } else if comm.starts_with("corm-worker") {
        "worker"
    } else if comm.starts_with("corm-tcp-rx") {
        "rx"
    } else if comm.starts_with("corm-sampler") {
        "sampler"
    } else {
        "other"
    }
}

/// Parse one task's `schedstat` and `status` text.
pub fn parse_task(schedstat: &str, status: &str) -> Option<ThreadTimes> {
    let mut f = schedstat.split_whitespace();
    let cpu_ns = f.next()?.parse().ok()?;
    let wait_ns = f.next()?.parse().ok()?;
    let wakeups = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .and_then(|v| v.trim().parse().ok())?;
    Some(ThreadTimes { cpu_ns, wait_ns, wakeups })
}

/// Snapshot of every live thread of this process: tid → (name, times).
pub fn sample() -> HashMap<u64, (String, ThreadTimes)> {
    let mut out = HashMap::new();
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else { return out };
    for entry in dir.flatten() {
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        let p = entry.path();
        let read = |f: &str| std::fs::read_to_string(p.join(f)).ok();
        let (Some(comm), Some(sched), Some(status)) =
            (read("comm"), read("schedstat"), read("status"))
        else {
            continue; // the thread exited between listing and reading
        };
        if let Some(t) = parse_task(&sched, &status) {
            out.insert(tid, (comm.trim().to_string(), t));
        }
    }
    out
}

/// Per-group growth between two snapshots. Threads born after `before`
/// count from zero; threads gone by `after` are lost, so take `after`
/// before the cluster's threads are joined.
pub fn delta_by_group(
    before: &HashMap<u64, (String, ThreadTimes)>,
    after: &HashMap<u64, (String, ThreadTimes)>,
) -> HashMap<&'static str, ThreadTimes> {
    let mut out: HashMap<&'static str, ThreadTimes> = HashMap::new();
    for (tid, (comm, a)) in after {
        let b = before.get(tid).map(|x| x.1).unwrap_or_default();
        *out.entry(group_of(comm)).or_default() += ThreadTimes {
            cpu_ns: a.cpu_ns.saturating_sub(b.cpu_ns),
            wait_ns: a.wait_ns.saturating_sub(b.wait_ns),
            wakeups: a.wakeups.saturating_sub(b.wakeups),
        };
    }
    out
}

/// Sum over every group.
pub fn total(groups: &HashMap<&'static str, ThreadTimes>) -> ThreadTimes {
    let mut t = ThreadTimes::default();
    for v in groups.values() {
        t += *v;
    }
    t
}

/// The process's resident-set high-water mark, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Host CPU time (all CPUs) as `(stolen, total)` jiffies from the first
/// line of `/proc/stat`; steal is time the hypervisor ran someone else.
pub fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen between two [`cpu_steal`] readings (0 when
/// either is unavailable).
pub fn steal_share(a: Option<(u64, u64)>, b: Option<(u64, u64)>) -> f64 {
    match (a, b) {
        (Some(a), Some(b)) => crate::stats::ratio((b.0 - a.0) as f64, (b.1 - a.1) as f64),
        _ => 0.0,
    }
}
