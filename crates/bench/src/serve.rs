//! Closed-loop serving benchmark: sweep client counts × write rates over
//! registry families through the `psi-server` subsystem (epoch-published
//! shards + request coalescer + spatial router).
//!
//! Each cell builds a server over a uniform 2-D dataset, spawns `clients`
//! closed-loop reader threads (each issuing `ops` queries — a kNN / kNN /
//! range-count / range-list round-robin — and measuring per-query latency)
//! while a writer publishes *move* batches (delete a slice, reinsert it) at
//! the cell's pacing. Recorded per cell: aggregate throughput, p50/p99
//! latency, batches published, and the achieved coalescing factor.
//!
//! The writer's move batches keep the live count invariant, so every cell
//! ends with a hard correctness check: after quiescing, the server must
//! hold exactly `n` points — a torn or lost batch fails the run.
//!
//! Usage: `cargo run --release -p psi-bench -- serve [flags]`, flags as in
//! [`USAGE`]; `--smoke` shrinks the sweep to a CI-friendly size.

use crate::flags::Flags;
use crate::{bench_json, write_json};
use psi::registry::{self, BuildOptions};
use psi::{PointI, RectI};
use psi_obs::Json;
use psi_server::{
    closed_loop, DurabilityConfig, FsyncPolicy, IndexFactory, LoadSpec, PsiServer, Router,
    ServeConfig,
};
use psi_workloads as workloads;
use std::sync::Arc;
use std::time::Instant;

const MAX_COORD: i64 = 1_000_000_000;

/// The universe the serve and net benchmarks draw their data from, and a
/// server's [`IndexFactory`] building `family` through the registry over it.
pub(crate) fn server_parts(family: &'static str) -> (RectI<2>, IndexFactory<i64, 2>) {
    let universe = workloads::universe::<2>(MAX_COORD);
    let opts = BuildOptions::with_universe(universe);
    let factory: IndexFactory<i64, 2> = Arc::new(move |pts: &[PointI<2>]| {
        registry::create::<2>(family, pts, &opts).expect("registry families all build")
    });
    (universe, factory)
}

/// The data, kNN queries and range rectangles of the serve and net
/// benchmarks.
pub(crate) fn server_workload(n: usize) -> (Vec<PointI<2>>, Vec<PointI<2>>, Vec<RectI<2>>) {
    let data = workloads::uniform::<2>(n, MAX_COORD, 42);
    let queries = workloads::ind_queries(&data, 512, 43);
    let rects = workloads::range_queries(&data, MAX_COORD, 50, 128, 44);
    (data, queries, rects)
}

/// Writer pacing per sweep point: `None` = read-only cell.
fn write_modes() -> Vec<(&'static str, Option<u64>)> {
    vec![
        ("read-only", None),
        ("paced-2ms", Some(2)),
        ("unpaced", Some(0)),
    ]
}

/// One closed-loop cell: printed, and returned as its `cells` row.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    family: &'static str,
    data: &[PointI<2>],
    queries: &[PointI<2>],
    rects: &[RectI<2>],
    clients: usize,
    ops: usize,
    (write_mode, write_every_ms): (&'static str, Option<u64>),
    shards: usize,
    coalesce: usize,
    k: usize,
) -> Json {
    let (universe, factory) = server_parts(family);
    let server = Arc::new(PsiServer::new(
        data,
        &universe,
        ServeConfig {
            shards,
            coalesce_max_batch: coalesce,
            writer_queue: 8,
            ..Default::default()
        },
        factory,
    ));
    let spec = LoadSpec {
        clients,
        ops_per_client: ops,
        k,
        // write_batch = 0 disables the writer (the read-only cells).
        write_batch: if write_every_ms.is_some() { 200 } else { 0 },
        write_every_ms: write_every_ms.unwrap_or(0),
    };
    let out = closed_loop(&server, data, queries, rects, &spec)
        .unwrap_or_else(|e| panic!("{family}: {e}"));
    println!(
        "{:<8} clients={:<2} write={:<9} {:>8.0} q/s  p50={:>7.3}ms p99={:>7.3}ms  batches={:<4} coalesce={:.1}x",
        family,
        clients,
        write_mode,
        out.throughput_qps,
        out.p50_ms,
        out.p99_ms,
        out.batches,
        out.coalesce_factor
    );
    Json::obj([
        ("clients", clients.into()),
        ("write_mode", write_mode.into()),
        ("ops", out.ops.into()),
        ("batches", out.batches.into()),
        ("elapsed_secs", out.elapsed_secs.into()),
        ("qps", out.throughput_qps.into()),
        ("p50_ms", out.p50_ms.into()),
        ("p99_ms", out.p99_ms.into()),
        ("coalesce_factor", out.coalesce_factor.into()),
    ])
}

/// Fewest rounds a publish-latency p99 is reported from: below that the
/// p99 is one of the few largest samples and moves severalfold from run to
/// run, so the cell reports `null`.
const P99_MIN_ROUNDS: usize = 1_000;

/// Publish latency: how long one epoch publication takes — the batch
/// applied in place to the live index, copying only the paths it reaches
/// because a reader's pin still shares them, then an O(1) snapshot swap.
fn publish_latency_cell(
    family: &'static str,
    data: &[PointI<2>],
    shards: usize,
    batch: usize,
    rounds: usize,
) -> Json {
    let (universe, factory) = server_parts(family);
    let cfg = ServeConfig {
        shards,
        ..Default::default()
    };
    let router = Router::new(&factory, data, &universe, &cfg, 0);
    let mut lat_ms: Vec<f64> = Vec::with_capacity(rounds);
    for r in 0..rounds {
        let span = &data[(r * batch) % (data.len() - batch)..][..batch];
        let moved: Vec<PointI<2>> = span.to_vec();
        // A reader pins the pre-publish epoch for the duration of the
        // publish, as a concurrent query would, so the publish path-copies.
        let pin = router.pin();
        let t = Instant::now();
        router.publish(&moved, &moved);
        lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(pin);
    }
    lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50_ms = lat_ms[rounds / 2];
    let mean_ms = lat_ms.iter().sum::<f64>() / rounds as f64;
    let p99_ms = (rounds >= P99_MIN_ROUNDS).then(|| lat_ms[rounds * 99 / 100]);
    let p99 = p99_ms.map_or("null".to_string(), |v| format!("{v:.4}"));
    println!(
        "publish  {family:<8} rounds={rounds:<4} p50_ms={p50_ms:.3} mean_ms={mean_ms:.3} p99_ms={p99}"
    );
    Json::obj([
        ("family", family.into()),
        ("batch", batch.into()),
        ("rounds", rounds.into()),
        ("p50_ms", p50_ms.into()),
        ("mean_ms", mean_ms.into()),
        ("p99_ms", p99_ms.into()),
    ])
}

/// The ROADMAP item-3 follow-up: what does each fsync policy cost? One
/// durable server per policy over a throwaway WAL directory, the same move
/// batches pushed through each, write throughput measured wall-clock and
/// fsync/append latency read back as snapshot deltas of the WAL's own
/// psi-obs histograms — the same series `OP_STATS` exposes live.
fn fsync_policy_cell(
    family: &'static str,
    data: &[PointI<2>],
    shards: usize,
    batch: usize,
    rounds: usize,
    policy: FsyncPolicy,
) -> Json {
    let dir = std::env::temp_dir().join(format!(
        "psi-bench-fsync-{}-{}",
        std::process::id(),
        policy.name()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (universe, factory) = server_parts(family);
    let server = Arc::new(PsiServer::new(
        data,
        &universe,
        ServeConfig {
            shards,
            writer_queue: 8,
            durability: Some(DurabilityConfig {
                dir: dir.clone(),
                fsync: policy,
            }),
            ..Default::default()
        },
        factory,
    ));
    // Resolve the WAL's registered series (idempotent: same name + labels
    // returns the same metric the WAL writer records into).
    let fsync_hist = psi_obs::histogram(
        "psi_wal_fsync_latency_ns",
        "wall time of one WAL flush+fsync to stable storage",
        &[],
    );
    let append_hist = psi_obs::histogram(
        "psi_wal_append_latency_ns",
        "wall time of one WAL batch append, fsync included when the policy demands it",
        &[],
    );
    let wal_bytes = psi_obs::counter(
        "psi_wal_bytes_written_total",
        "record bytes appended to WAL segments",
        &[],
    );
    let fsync_before = fsync_hist.snapshot();
    let append_before = append_hist.snapshot();
    let bytes_before = wal_bytes.get();
    let t = Instant::now();
    for r in 0..rounds {
        let lo = (r * batch) % (data.len() - batch);
        let slice = data[lo..lo + batch].to_vec();
        server.submit(slice.clone(), slice);
    }
    server.quiesce();
    let elapsed = t.elapsed().as_secs_f64();
    let batches = server.batches_applied();
    let fsync = fsync_hist.snapshot().delta(&fsync_before);
    let append = append_hist.snapshot().delta(&append_before);
    let bytes = wal_bytes.get() - bytes_before;
    let _ = std::fs::remove_dir_all(&dir);
    let us = |ns: u64| ns as f64 / 1e3;
    let batches_per_sec = batches as f64 / elapsed.max(1e-9);
    let wal_mib = bytes as f64 / (1024.0 * 1024.0);
    let (fsync_p50, fsync_p99) = (us(fsync.quantile(0.5)), us(fsync.quantile(0.99)));
    let (append_p50, append_p99) = (us(append.quantile(0.5)), us(append.quantile(0.99)));
    println!(
        "fsync    {:<12} {batches_per_sec:>7.0} batch/s  fsyncs={:<5} fsync p50={fsync_p50:.1}us p99={fsync_p99:.1}us  append p50={append_p50:.1}us p99={append_p99:.1}us  wal={wal_mib:.1}MiB",
        policy.name(),
        fsync.count(),
    );
    Json::obj([
        ("policy", policy.name().into()),
        ("batch", batch.into()),
        ("batches", batches.into()),
        ("elapsed_secs", elapsed.into()),
        ("batches_per_sec", batches_per_sec.into()),
        ("wal_mib", wal_mib.into()),
        ("fsyncs", fsync.count().into()),
        ("fsync_p50_us", fsync_p50.into()),
        ("fsync_p99_us", fsync_p99.into()),
        ("append_p50_us", append_p50.into()),
        ("append_p99_us", append_p99.into()),
    ])
}

/// The flags and their defaults.
pub const USAGE: &str =
    "psi-bench serve [--n 50000] [--ops 1500] [--shards 2] [--coalesce 64] [--out BENCH_serve.json] [--smoke]";

/// Run the sweep and write its file.
pub fn main(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, &["--smoke"])?;
    let mut n: usize = flags.get("--n", 50_000)?;
    let mut ops: usize = flags.get("--ops", 1_500)?;
    let shards: usize = flags.get("--shards", 2)?;
    let coalesce: usize = flags.get("--coalesce", 64)?;
    let out: String = flags.get("--out", "BENCH_serve.json".into())?;
    let smoke = flags.switch("--smoke");
    flags.finish()?;
    if smoke {
        n = n.min(8_000);
        ops = ops.min(200);
    }

    let families: &[&'static str] = if smoke {
        &["spac-h"]
    } else {
        &["spac-h", "p-orth", "pkd"]
    };
    let client_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let modes = if smoke {
        vec![("read-only", None), ("unpaced", Some(0))]
    } else {
        write_modes()
    };
    let k = 10;

    let (data, queries, rects) = server_workload(n);

    println!(
        "# psi-bench serve: n = {n}, ops/client = {ops}, shards = {shards}, coalesce = {coalesce}, machine threads = {}",
        rayon::current_num_threads()
    );
    let mut blocks: Vec<Json> = Vec::new();
    for &family in families {
        let mut cells: Vec<Json> = Vec::new();
        for &clients in client_counts {
            for &mode in &modes {
                cells.push(run_cell(
                    family, &data, &queries, &rects, clients, ops, mode, shards, coalesce, k,
                ));
            }
        }
        blocks.push(Json::obj([
            ("name", family.into()),
            ("cells", cells.into()),
        ]));
    }

    // Publish latency per family, same data and batch size.
    let publish_rounds = if smoke { 40 } else { P99_MIN_ROUNDS };
    let publish_batch = 200.min(n / 4);
    let publish_cells: Vec<Json> = ["pkd", "p-orth", "cpam-h"]
        .into_iter()
        .map(|family| publish_latency_cell(family, &data, shards, publish_batch, publish_rounds))
        .collect();

    // Fsync-policy sweep: the durability cost curve, measured through the
    // WAL's own psi-obs histograms.
    let fsync_rounds = if smoke { 30 } else { 150 };
    let fsync_batch = 200.min(n / 4);
    let fsync_cells: Vec<Json> = [
        FsyncPolicy::EveryBatch,
        FsyncPolicy::EveryN(4),
        FsyncPolicy::Os,
    ]
    .into_iter()
    .map(|policy| fsync_policy_cell("pkd", &data, shards, fsync_batch, fsync_rounds, policy))
    .collect();

    let doc = bench_json(
        "serve_closed_loop",
        [
            ("n", n.into()),
            ("ops_per_client", ops.into()),
            ("shards", shards.into()),
            ("coalesce_max_batch", coalesce.into()),
            ("k", k.into()),
            (
                "note",
                "closed-loop clients over psi-server (epoch snapshots + coalescer + shard router); \
                 move batches conserve the live count (checked); publish_latency times one \
                 path-copying publish per round, a reader pin held across each (p99 only from \
                 1000+ rounds, else null); fsync_sweep pushes identical move batches through a \
                 durable server per FsyncPolicy, latencies read from the WAL's psi-obs histograms"
                    .into(),
            ),
            ("publish_latency", publish_cells.into()),
            ("fsync_sweep", fsync_cells.into()),
            ("families", blocks.into()),
        ],
    );
    write_json(&out, &doc);
    Ok(())
}
