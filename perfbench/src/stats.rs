//! Percentiles over raw samples and the closure arithmetic.
//!
//! Percentiles are always taken from raw per-operation samples. The
//! program's `Log2Histogram` has four sub-buckets per octave, so a
//! percentile read from it can be off by a quarter of its value; its
//! `sum / count` is exact and is used for means only.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples`, by linear interpolation
/// between the closest ranks. Sorts in place; `None` when empty.
pub fn quantile(samples: &mut [f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(samples[lo] + (samples[hi] - samples[lo]) * frac)
}

pub fn median(samples: &mut [f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// `a / b`, or 0 when nothing was attempted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Each round's operations per wall second. `phases` holds
/// `(operations, wall seconds)` of every phase in run order, the same
/// number of phases in each of the `rounds` rounds.
pub fn round_rates(phases: &[(f64, f64)], rounds: usize) -> Vec<f64> {
    let per_round = (phases.len() / rounds.max(1)).max(1);
    phases
        .chunks(per_round)
        .map(|r| ratio(r.iter().map(|p| p.0).sum(), r.iter().map(|p| p.1).sum()))
        .collect()
}

/// Share of rounds a figure is taken from: the ones the host disturbed
/// least.
pub const QUIET_SHARE: f64 = 1.0 / 3.0;

/// Indices of the `QUIET_SHARE` of rounds with the least steal (at
/// least one), least first.
pub fn quietest(steal: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..steal.len()).collect();
    idx.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    idx.truncate(((steal.len() as f64 * QUIET_SHARE).ceil() as usize).max(1));
    idx
}

/// Interleaved measurement rounds of about a second each, and the share
/// of CPU time the hypervisor stole during each. On a shared host the
/// steal comes and goes within seconds, and a stolen vCPU delays every
/// wake-up, so the figures are medians over the quietest rounds: the
/// program is compared with itself, not with its neighbours' load.
#[derive(Debug, Clone, Default)]
pub struct Rounds {
    pub n: usize,
    steal: Vec<f64>,
    start: Option<(u64, u64)>,
}

impl Rounds {
    pub fn new(seconds: f64) -> Rounds {
        Rounds { n: (seconds.round() as usize).clamp(2, 60), ..Rounds::default() }
    }

    /// Seconds of one round.
    pub fn slot(&self, seconds: f64) -> f64 {
        seconds / self.n as f64
    }

    pub fn begin(&mut self) {
        self.start = crate::procfs::cpu_steal();
    }

    pub fn end(&mut self) {
        self.steal.push(crate::procfs::steal_share(self.start, crate::procfs::cpu_steal()));
    }

    pub fn quiet(&self) -> Vec<usize> {
        quietest(&self.steal)
    }

    /// Median of per-round `values` over the quietest rounds.
    pub fn quiet_median(&self, values: &[f64]) -> f64 {
        let mut v: Vec<f64> = self.quiet().iter().filter_map(|&i| values.get(i).copied()).collect();
        median(&mut v).unwrap_or(0.0)
    }

    /// Median steal share over all rounds.
    pub fn median_steal(&self) -> f64 {
        median(&mut self.steal.clone()).unwrap_or(0.0)
    }

    pub fn note(&self) -> String {
        let q = self.quiet();
        let worst = q.iter().map(|&i| self.steal[i]).fold(0.0, f64::max);
        format!(
            "rounds: figures from the {} quietest of {} rounds (steal <= {:.1}%, median round {:.1}%)",
            q.len(),
            self.steal.len(),
            worst * 100.0,
            self.median_steal() * 100.0
        )
    }
}

/// One closure row: a per-call time measured from outside, split into
/// the named layers the program attributes, with the remainder stated as
/// the residual rather than dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Closure {
    pub measured_us: f64,
    pub parts: Vec<(&'static str, f64)>,
}

impl Closure {
    pub fn named_us(&self) -> f64 {
        self.parts.iter().map(|p| p.1).sum()
    }

    /// What the named layers leave unexplained (negative when they
    /// over-attribute, e.g. when phases overlap).
    pub fn residual_us(&self) -> f64 {
        self.measured_us - self.named_us()
    }

    pub fn render(&self, workload: &str) -> String {
        let mut s = format!("closure {workload}: measured {:.2} us/call =", self.measured_us);
        for (name, us) in &self.parts {
            s.push_str(&format!(" {name} {us:.2} +"));
        }
        let share = ratio(self.residual_us(), self.measured_us) * 100.0;
        s.push_str(&format!(" residual {:.2} ({share:.1}% unattributed)", self.residual_us()));
        s
    }
}
