//! ψ-obs: the observability substrate of the serving stack.
//!
//! Every layer of the system — the work-stealing pool, the epoch-published
//! shards, the request coalescer, the WAL/checkpoint durability machinery
//! and the socket front-end — reports into this crate, and everything the
//! crate offers is hermetic: no external dependencies, in the spirit of
//! `crates/shims`.
//!
//! # Primitives
//!
//! * [`Counter`] — a monotonically increasing event count, striped across
//!   cache-line-padded shards so concurrent writers do not bounce one line.
//!   `add` is a single relaxed `fetch_add`; reads sum the stripes.
//! * [`Gauge`] — a signed instantaneous level (queue depth, open
//!   connections). One atomic; updates are rare relative to counters.
//! * [`Histogram`] — a lock-free log-bucketed latency histogram in the
//!   HDR style: power-of-two groups refined by 32 linear sub-buckets, so
//!   every recorded value lands in a bucket whose width is at most 1/32 of
//!   its magnitude (≤ 3.2 % relative error). [`Histogram::record`] is
//!   **wait-free**: one `fetch_add` on the bucket, one on the running sum,
//!   one `fetch_max` — no CAS loop, no lock, nothing that can spin.
//!   Snapshots are plain arrays that merge associatively and subtract to
//!   form deltas; quantiles (p50/p90/p99/p999/max) read out of the
//!   cumulative bucket walk.
//!
//! # Registry
//!
//! A process-global [`MetricsRegistry`] catalogues every metric under a
//! name plus a *static label set* (labels are fixed at registration:
//! `shard`, `op`, `transport`, …). Hot paths never touch the registry —
//! they hold the `Arc` (or a [`LazyCounter`]/[`LazyGauge`] static) obtained
//! once at startup; the registry's mutex guards registration and collection
//! only.
//!
//! # Events and slow queries
//!
//! [`event!`] appends a structured event (severity, target, message,
//! key/value fields) to a bounded in-memory ring; warnings and errors are
//! additionally printed to stderr by the default sink, which is what keeps
//! operator-facing messages greppable in logs. The slow-query log
//! ([`slowlog`]) is opt-in and threshold-gated: while disabled (the
//! default) the hot-path check is a single relaxed load, and it never
//! coordinates with the queries it observes.
//!
//! # Exposure
//!
//! [`render_prometheus`] serialises the whole registry as Prometheus-style
//! text (histograms as summaries: `{quantile="…"}` plus `_count`, `_sum`,
//! `_max`); the same text rides the wire inside the `OP_STATS` reply and
//! the `psi-netd --stats-addr` endpoint. Machine-readable reports go
//! through [`Json`], the workspace's one JSON writer and parser.

pub mod events;
pub mod expose;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod slowlog;

pub use events::{recent_events, Event, Severity};
pub use expose::{render_events, render_prometheus, SNAPSHOT_VERSION};
pub use json::Json;
pub use metrics::{bucket_bounds, bucket_index, Counter, Gauge, HistSnapshot, Histogram};
pub use registry::{
    counter, gauge, histogram, registry, LazyCounter, LazyGauge, LazyHistogram, MetricsRegistry,
};

/// Append a structured event to the ring (and stderr for `Warn`/`Error`).
///
/// Two forms:
///
/// ```
/// psi_obs::event!(Warn, "server", "WAL append failed ({})", "io error");
/// psi_obs::event!(
///     Info,
///     "server",
///     [("shard", 3), ("epoch", 17)],
///     "publish complete"
/// );
/// ```
///
/// The first argument is a [`Severity`] variant name; the second the
/// subsystem (`"server"`, `"net"`, `"wal"`, …); the optional bracketed list
/// carries key/value fields (values go through `ToString`); the rest is a
/// `format!` message.
#[macro_export]
macro_rules! event {
    ($sev:ident, $target:expr, [$(($k:expr, $v:expr)),* $(,)?], $($fmt:tt)+) => {
        $crate::events::emit(
            $crate::Severity::$sev,
            $target,
            format!($($fmt)+),
            vec![$(($k, $v.to_string())),*],
        )
    };
    ($sev:ident, $target:expr, $($fmt:tt)+) => {
        $crate::events::emit($crate::Severity::$sev, $target, format!($($fmt)+), Vec::new())
    };
}
