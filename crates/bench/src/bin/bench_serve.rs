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
//! hold exactly `n` points — a torn or lost batch fails the binary.
//!
//! Usage:
//! `cargo run --release -p psi-bench --bin bench_serve [-- --n 50000 --ops 2000 --shards 2 --out BENCH_serve.json --smoke]`
//!
//! `--smoke` shrinks the sweep to a CI-friendly size.

use psi::registry::{self, BuildOptions};
use psi::PointI;
use psi_server::{
    closed_loop, DurabilityConfig, FsyncPolicy, IndexFactory, LoadSpec, PsiServer, Router,
    ServeConfig,
};
use psi_workloads as workloads;
use std::sync::Arc;
use std::time::Instant;

const MAX_COORD: i64 = 1_000_000_000;

struct Cell {
    family: &'static str,
    clients: usize,
    write_mode: &'static str,
    ops: usize,
    batches: u64,
    elapsed: f64,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
    coalesce: f64,
}

/// Writer pacing per sweep point: `None` = read-only cell.
fn write_modes() -> Vec<(&'static str, Option<u64>)> {
    vec![
        ("read-only", None),
        ("paced-2ms", Some(2)),
        ("unpaced", Some(0)),
    ]
}

#[allow(clippy::too_many_arguments)]
fn run_cell(
    family: &'static str,
    data: &[PointI<2>],
    queries: &[PointI<2>],
    rects: &[psi_geometry::RectI<2>],
    clients: usize,
    ops: usize,
    write_every_ms: Option<u64>,
    shards: usize,
    coalesce: usize,
    k: usize,
) -> Cell {
    let universe = workloads::universe::<2>(MAX_COORD);
    let opts = BuildOptions::with_universe(universe);
    let factory: IndexFactory<i64, 2> = Arc::new(move |pts: &[PointI<2>]| {
        registry::create::<2>(family, pts, &opts).expect("registry families all build")
    });
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
    Cell {
        family,
        clients,
        write_mode: match write_every_ms {
            None => "read-only",
            Some(0) => "unpaced",
            Some(_) => "paced-2ms",
        },
        ops: out.ops,
        batches: out.batches,
        elapsed: out.elapsed_secs,
        qps: out.throughput_qps,
        p50_ms: out.p50_ms,
        p99_ms: out.p99_ms,
        coalesce: out.coalesce_factor,
    }
}

/// Publish latency: how long one epoch publication takes — the batch
/// applied in place to the live index, copying only the paths it reaches
/// because a reader's pin still shares them, then an O(1) snapshot swap.
struct PublishCell {
    family: &'static str,
    rounds: usize,
    p50_ms: f64,
    mean_ms: f64,
    /// Only from [`P99_MIN_ROUNDS`] rounds up: below that the p99 is one of
    /// the few largest samples and moves severalfold from run to run.
    p99_ms: Option<f64>,
}

/// Fewest rounds a publish-latency p99 is reported from.
const P99_MIN_ROUNDS: usize = 1_000;

fn publish_latency_cell(
    family: &'static str,
    data: &[PointI<2>],
    shards: usize,
    batch: usize,
    rounds: usize,
) -> PublishCell {
    let universe = workloads::universe::<2>(MAX_COORD);
    let opts = BuildOptions::with_universe(universe);
    let factory: IndexFactory<i64, 2> = Arc::new(move |pts: &[PointI<2>]| {
        registry::create::<2>(family, pts, &opts).expect("registry families all build")
    });
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
    PublishCell {
        family,
        rounds,
        p50_ms: lat_ms[rounds / 2],
        mean_ms: lat_ms.iter().sum::<f64>() / rounds as f64,
        p99_ms: (rounds >= P99_MIN_ROUNDS).then(|| lat_ms[rounds * 99 / 100]),
    }
}

/// The ROADMAP item-3 follow-up: what does each fsync policy cost? One
/// durable server per policy over a throwaway WAL directory, the same move
/// batches pushed through each, write throughput measured wall-clock and
/// fsync/append latency read back as snapshot deltas of the WAL's own
/// psi-obs histograms — the same series `OP_STATS` exposes live.
struct FsyncCell {
    policy: String,
    batches: u64,
    elapsed: f64,
    batches_per_sec: f64,
    wal_mib: f64,
    fsyncs: u64,
    fsync_p50_us: f64,
    fsync_p99_us: f64,
    append_p50_us: f64,
    append_p99_us: f64,
}

fn fsync_policy_cell(
    family: &'static str,
    data: &[PointI<2>],
    shards: usize,
    batch: usize,
    rounds: usize,
    policy: FsyncPolicy,
) -> FsyncCell {
    let dir = std::env::temp_dir().join(format!(
        "psi-bench-fsync-{}-{}",
        std::process::id(),
        policy.name()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let universe = workloads::universe::<2>(MAX_COORD);
    let opts = BuildOptions::with_universe(universe);
    let factory: IndexFactory<i64, 2> = Arc::new(move |pts: &[PointI<2>]| {
        registry::create::<2>(family, pts, &opts).expect("registry families all build")
    });
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
    FsyncCell {
        policy: policy.name(),
        batches,
        elapsed,
        batches_per_sec: batches as f64 / elapsed.max(1e-9),
        wal_mib: bytes as f64 / (1024.0 * 1024.0),
        fsyncs: fsync.count(),
        fsync_p50_us: us(fsync.quantile(0.5)),
        fsync_p99_us: us(fsync.quantile(0.99)),
        append_p50_us: us(append.quantile(0.5)),
        append_p99_us: us(append.quantile(0.99)),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut n = 50_000usize;
    let mut ops = 1_500usize;
    let mut shards = 2usize;
    let mut coalesce = 64usize;
    let mut out = "BENCH_serve.json".to_string();
    let mut smoke = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            flag if i + 1 < args.len() => {
                let value = &args[i + 1];
                match flag {
                    "--n" => n = value.parse().expect("--n expects an integer"),
                    "--ops" => ops = value.parse().expect("--ops expects an integer"),
                    "--shards" => shards = value.parse().expect("--shards expects an integer"),
                    "--coalesce" => {
                        coalesce = value.parse().expect("--coalesce expects an integer")
                    }
                    "--out" => out = value.clone(),
                    other => panic!("unknown flag {other:?}"),
                }
                i += 2;
            }
            other => panic!("unknown flag {other:?}"),
        }
    }
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

    let data = workloads::uniform::<2>(n, MAX_COORD, 42);
    let queries = workloads::ind_queries(&data, 512, 43);
    let rects = workloads::range_queries(&data, MAX_COORD, 50, 128, 44);

    println!(
        "# bench_serve: n = {n}, ops/client = {ops}, shards = {shards}, coalesce = {coalesce}, machine threads = {}",
        rayon::current_num_threads()
    );
    let mut blocks: Vec<String> = Vec::new();
    for &family in families {
        let mut cells: Vec<String> = Vec::new();
        for &clients in client_counts {
            for (_, pace) in &modes {
                let cell = run_cell(
                    family, &data, &queries, &rects, clients, ops, *pace, shards, coalesce, k,
                );
                println!(
                    "{:<8} clients={:<2} write={:<9} {:>8.0} q/s  p50={:>7.3}ms p99={:>7.3}ms  batches={:<4} coalesce={:.1}x",
                    cell.family,
                    cell.clients,
                    cell.write_mode,
                    cell.qps,
                    cell.p50_ms,
                    cell.p99_ms,
                    cell.batches,
                    cell.coalesce
                );
                cells.push(format!(
                    "        {{\"clients\": {}, \"write_mode\": \"{}\", \"ops\": {}, \
                     \"batches\": {}, \"elapsed_secs\": {:.4}, \"qps\": {:.1}, \
                     \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \"coalesce_factor\": {:.2}}}",
                    cell.clients,
                    cell.write_mode,
                    cell.ops,
                    cell.batches,
                    cell.elapsed,
                    cell.qps,
                    cell.p50_ms,
                    cell.p99_ms,
                    cell.coalesce
                ));
            }
        }
        blocks.push(format!(
            "    {{\n      \"name\": \"{}\",\n      \"cells\": [\n{}\n      ]\n    }}",
            family,
            cells.join(",\n")
        ));
    }

    // Publish latency per family, same data and batch size.
    let publish_rounds = if smoke { 40 } else { P99_MIN_ROUNDS };
    let publish_batch = 200.min(n / 4);
    let mut publish_cells: Vec<String> = Vec::new();
    for family in ["pkd", "p-orth", "cpam-h"] {
        let cell = publish_latency_cell(family, &data, shards, publish_batch, publish_rounds);
        let p99 = cell
            .p99_ms
            .map_or("null".to_string(), |v| format!("{v:.4}"));
        println!(
            "publish  {:<8} rounds={:<4} p50_ms={:.3} mean_ms={:.3} p99_ms={p99}",
            cell.family, cell.rounds, cell.p50_ms, cell.mean_ms
        );
        publish_cells.push(format!(
            "    {{\"family\": \"{}\", \"batch\": {}, \"rounds\": {}, \
             \"p50_ms\": {:.4}, \"mean_ms\": {:.4}, \"p99_ms\": {p99}}}",
            cell.family, publish_batch, cell.rounds, cell.p50_ms, cell.mean_ms
        ));
    }

    // Fsync-policy sweep: the durability cost curve, measured through the
    // WAL's own psi-obs histograms.
    let fsync_rounds = if smoke { 30 } else { 150 };
    let fsync_batch = 200.min(n / 4);
    let mut fsync_cells: Vec<String> = Vec::new();
    for policy in [
        FsyncPolicy::EveryBatch,
        FsyncPolicy::EveryN(4),
        FsyncPolicy::Os,
    ] {
        let cell = fsync_policy_cell("pkd", &data, shards, fsync_batch, fsync_rounds, policy);
        println!(
            "fsync    {:<12} {:>7.0} batch/s  fsyncs={:<5} fsync p50={:.1}us p99={:.1}us  append p50={:.1}us p99={:.1}us  wal={:.1}MiB",
            cell.policy,
            cell.batches_per_sec,
            cell.fsyncs,
            cell.fsync_p50_us,
            cell.fsync_p99_us,
            cell.append_p50_us,
            cell.append_p99_us,
            cell.wal_mib
        );
        fsync_cells.push(format!(
            "    {{\"policy\": \"{}\", \"batch\": {}, \"batches\": {}, \"elapsed_secs\": {:.4}, \
             \"batches_per_sec\": {:.1}, \"wal_mib\": {:.2}, \"fsyncs\": {}, \
             \"fsync_p50_us\": {:.2}, \"fsync_p99_us\": {:.2}, \
             \"append_p50_us\": {:.2}, \"append_p99_us\": {:.2}}}",
            cell.policy,
            fsync_batch,
            cell.batches,
            cell.elapsed,
            cell.batches_per_sec,
            cell.wal_mib,
            cell.fsyncs,
            cell.fsync_p50_us,
            cell.fsync_p99_us,
            cell.append_p50_us,
            cell.append_p99_us
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"serve_closed_loop\",\n  {},\n  \"n\": {},\n  \
         \"ops_per_client\": {},\n  \"shards\": {},\n  \"coalesce_max_batch\": {},\n  \"k\": {},\n  \
         \"note\": \"closed-loop clients over psi-server (epoch snapshots + coalescer + shard router); \
         move batches conserve the live count (checked); publish_latency times one path-copying publish per round, \
         a reader pin held across each (p99 only from 1000+ rounds, else null); \
         fsync_sweep pushes identical move batches through a durable server per FsyncPolicy, \
         latencies read from the WAL's psi-obs histograms\",\n  \
         \"publish_latency\": [\n{}\n  ],\n  \"fsync_sweep\": [\n{}\n  ],\n  \"families\": [\n{}\n  ]\n}}\n",
        psi_bench::host_meta_json(),
        n,
        ops,
        shards,
        coalesce,
        k,
        publish_cells.join(",\n"),
        fsync_cells.join(",\n"),
        blocks.join(",\n")
    );
    std::fs::write(&out, json).expect("failed to write benchmark output");
    println!("# wrote {out}");
}
