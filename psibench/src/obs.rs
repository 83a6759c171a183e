//! Read-outs of the metrics psi-obs already exports, summed over labels.

use psi_obs::registry::Sample;
use psi_obs::HistSnapshot;
use std::collections::HashMap;

/// Every registered metric at one instant, keyed by name (label sets of one
/// name are summed or merged).
#[derive(Default)]
pub struct ObsSnap {
    counters: HashMap<&'static str, u64>,
    gauges: HashMap<&'static str, i64>,
    hists: HashMap<&'static str, HistSnapshot>,
}

pub fn snap() -> ObsSnap {
    let mut s = ObsSnap::default();
    for sample in psi_obs::registry().collect() {
        match sample {
            Sample::Counter(id, _, v) => *s.counters.entry(id.name).or_default() += v,
            Sample::Gauge(id, _, v) => *s.gauges.entry(id.name).or_default() += v,
            Sample::Histogram(id, _, h) => s.hists.entry(id.name).or_default().merge(&h),
        }
    }
    s
}

impl ObsSnap {
    /// Counter increase since `earlier` (0 for a metric never registered).
    pub fn counter_since(&self, earlier: &ObsSnap, name: &str) -> f64 {
        let now = self.counters.get(name).copied().unwrap_or(0);
        let then = earlier.counters.get(name).copied().unwrap_or(0);
        now.saturating_sub(then) as f64
    }

    /// Values a histogram recorded since `earlier`.
    pub fn hist_since(&self, earlier: &ObsSnap, name: &str) -> HistSnapshot {
        match (self.hists.get(name), earlier.hists.get(name)) {
            (Some(now), Some(then)) => now.delta(then),
            (Some(now), None) => now.clone(),
            _ => HistSnapshot::empty(),
        }
    }

    /// A gauge's level (0 when never registered).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }
}

/// Process usage and psi-obs deltas accrued over the traced slices of a
/// run (a traced run alternates untraced and traced slices).
#[derive(Default)]
pub struct TracedWindow {
    /// Wall time inside traced slices.
    pub wall_s: f64,
    /// Operations completed inside traced slices.
    pub ops: f64,
    /// CPU time and context switches inside traced slices.
    pub usage: crate::host::Usage,
    counters: HashMap<&'static str, f64>,
    hists: HashMap<&'static str, HistSnapshot>,
    open: Option<(std::time::Instant, crate::host::Usage, ObsSnap)>,
}

impl TracedWindow {
    pub fn begin(&mut self) {
        assert!(self.open.is_none(), "traced slices do not nest");
        let before = snap();
        self.open = Some((std::time::Instant::now(), crate::host::usage(), before));
    }

    pub fn end(&mut self, ops: f64) {
        let (t0, u0, before) = self.open.take().expect("end follows begin");
        self.wall_s += t0.elapsed().as_secs_f64();
        let du = crate::host::usage().since(&u0);
        self.usage.cpu_us += du.cpu_us;
        self.usage.ctx_switches += du.ctx_switches;
        self.ops += ops;
        let now = snap();
        for name in now.counters.keys() {
            *self.counters.entry(name).or_default() += now.counter_since(&before, name);
        }
        for name in now.hists.keys() {
            self.hists
                .entry(name)
                .or_default()
                .merge(&now.hist_since(&before, name));
        }
    }

    /// Add another closed window's figures to this one.
    pub fn absorb(&mut self, other: &TracedWindow) {
        assert!(other.open.is_none(), "an open window is absorbed");
        self.wall_s += other.wall_s;
        self.ops += other.ops;
        self.usage.cpu_us += other.usage.cpu_us;
        self.usage.ctx_switches += other.usage.ctx_switches;
        for (name, v) in &other.counters {
            *self.counters.entry(name).or_default() += v;
        }
        for (name, h) in &other.hists {
            self.hists.entry(name).or_default().merge(h);
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn hist(&self, name: &str) -> HistSnapshot {
        self.hists.get(name).cloned().unwrap_or_default()
    }

    /// `counter(name)` per thousand operations.
    pub fn per_kop(&self, name: &str) -> f64 {
        self.counter(name) / self.ops.max(1.0) * 1e3
    }
}
