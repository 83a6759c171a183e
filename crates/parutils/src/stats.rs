//! Lightweight instrumentation counters.
//!
//! The paper analyses its algorithms in the work–span and ideal-cache models
//! (§2.1). Absolute wall-clock numbers on a small machine are noisy, so the
//! ablation benchmarks additionally report *machine-independent proxies*:
//! how many points were moved, how many tree nodes were visited, how many
//! leaves were re-sorted, etc.
//!
//! The counter type itself now lives in `psi-obs` (re-exported here, so
//! existing call sites keep compiling): a cache-line-padded striped counter
//! whose `add` is one relaxed `fetch_add` on the calling thread's stripe —
//! cheap enough to leave enabled, precise enough for comparative ablation.
//! [`register_metrics`] catalogues the six process-global counters in the
//! ψ-obs [`MetricsRegistry`](psi_obs::MetricsRegistry) so they ride the
//! stats endpoint and `OP_STATS` alongside the serving-stack metrics.
//!
//! Tests that assert on these process-global counters should use
//! [`Counter::scoped`] — a same-thread delta capture — instead of raw
//! before/after snapshots, which race with every other test thread
//! touching the same counter.

pub use psi_obs::Counter;

/// Counters shared by the index implementations. Each index bumps the subset
/// that is meaningful for it; the ablation benches snapshot them around a
/// measured region via [`snapshot`]/[`delta`].
pub mod counters {
    use super::Counter;

    /// Points physically moved by sieve/scatter/sort passes (the cache-cost proxy).
    pub static POINTS_MOVED: Counter = Counter::new();
    /// Tree nodes visited by queries.
    pub static NODES_VISITED: Counter = Counter::new();
    /// Leaves whose points had to be (re-)sorted (the SPaC vs CPAM ablation signal).
    pub static LEAVES_SORTED: Counter = Counter::new();
    /// SFC codes computed: one per point, plus the digit sample of
    /// HybridSort's first pass (at most `n / 16` more for `n` points).
    pub static CODES_COMPUTED: Counter = Counter::new();
    /// Join/rebalance operations performed.
    pub static REBALANCES: Counter = Counter::new();
    /// Shared nodes copied on write (the persistent-snapshot cost proxy: a
    /// batch update against a snapshotted tree copies only the touched spine,
    /// so this stays O(log n + touched leaves) per batch, never O(n)).
    pub static NODES_COPIED: Counter = Counter::new();
}

/// Catalogue the six ablation counters in the process-global ψ-obs
/// registry (idempotent — call as often as convenient). The counters work
/// without this; registration only makes them visible to the exposition
/// endpoints.
pub fn register_metrics() {
    let r = psi_obs::registry();
    r.register_static_counter(
        "psi_index_points_moved_total",
        "points physically moved by sieve/scatter/sort passes",
        &counters::POINTS_MOVED,
    );
    r.register_static_counter(
        "psi_index_nodes_visited_total",
        "tree nodes visited by queries",
        &counters::NODES_VISITED,
    );
    r.register_static_counter(
        "psi_index_leaves_sorted_total",
        "leaves whose points were (re-)sorted",
        &counters::LEAVES_SORTED,
    );
    r.register_static_counter(
        "psi_index_codes_computed_total",
        "space-filling-curve codes computed",
        &counters::CODES_COMPUTED,
    );
    r.register_static_counter(
        "psi_index_rebalances_total",
        "join/rebalance operations performed",
        &counters::REBALANCES,
    );
    r.register_static_counter(
        "psi_index_nodes_copied_total",
        "shared nodes copied on write (persistent-snapshot cost proxy)",
        &counters::NODES_COPIED,
    );
}

/// A snapshot of all counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    pub points_moved: u64,
    pub nodes_visited: u64,
    pub leaves_sorted: u64,
    pub codes_computed: u64,
    pub rebalances: u64,
    pub nodes_copied: u64,
}

/// Read all counters.
pub fn snapshot() -> Snapshot {
    Snapshot {
        points_moved: counters::POINTS_MOVED.get(),
        nodes_visited: counters::NODES_VISITED.get(),
        leaves_sorted: counters::LEAVES_SORTED.get(),
        codes_computed: counters::CODES_COMPUTED.get(),
        rebalances: counters::REBALANCES.get(),
        nodes_copied: counters::NODES_COPIED.get(),
    }
}

/// Difference between two snapshots (later minus earlier, saturating).
pub fn delta(before: Snapshot, after: Snapshot) -> Snapshot {
    Snapshot {
        points_moved: after.points_moved.saturating_sub(before.points_moved),
        nodes_visited: after.nodes_visited.saturating_sub(before.nodes_visited),
        leaves_sorted: after.leaves_sorted.saturating_sub(before.leaves_sorted),
        codes_computed: after.codes_computed.saturating_sub(before.codes_computed),
        rebalances: after.rebalances.saturating_sub(before.rebalances),
        nodes_copied: after.nodes_copied.saturating_sub(before.nodes_copied),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.bump();
        c.add(9);
        assert_eq!(c.get(), 10);
        assert_eq!(c.take(), 10);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_is_thread_safe() {
        let c = Counter::new();
        rayon::scope(|s| {
            for _ in 0..8 {
                s.spawn(|_| {
                    for _ in 0..1000 {
                        c.bump();
                    }
                });
            }
        });
        assert_eq!(c.get(), 8000);
    }

    #[test]
    fn snapshot_delta() {
        let before = snapshot();
        counters::POINTS_MOVED.add(5);
        counters::LEAVES_SORTED.add(2);
        let after = snapshot();
        let d = delta(before, after);
        assert!(d.points_moved >= 5);
        assert!(d.leaves_sorted >= 2);
        assert_eq!(d.nodes_visited, after.nodes_visited - before.nodes_visited);
    }

    #[test]
    fn registration_is_idempotent_and_reads_through() {
        register_metrics();
        register_metrics();
        counters::REBALANCES.bump();
        let text = psi_obs::render_prometheus();
        assert!(text.contains("psi_index_rebalances_total"));
    }
}
