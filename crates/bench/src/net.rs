//! Connection-scale socket benchmark: drive 256–10 000 concurrent TCP
//! connections through the ψ-net wire protocol and record what the
//! coalescer does with a serving-scale flush window.
//!
//! Each cell binds a fresh [`NetServer`] on loopback over a uniform 2-D
//! dataset and runs the multiplexed fan-out driver
//! ([`psi_net::loadgen::fanout`]): every connection is its own closed loop
//! (one request in flight), so the server sees the full connection count
//! concurrently. Recorded per cell: aggregate throughput, p50/p99 latency
//! and the achieved coalescing factor.
//!
//! Every cell ends with a hard correctness check: the order-independent
//! FNV checksum over every socket reply must equal an in-process replay of
//! the identical request sequence through the coalescing handle — a
//! dropped, corrupted or mis-routed answer fails the run.
//!
//! The sweep is clamped to the process fd budget (a loopback connection
//! costs two descriptors in-process); clamping is logged, never silent.
//!
//! Usage: `cargo run --release -p psi-bench -- net [flags]`, flags as in
//! [`USAGE`]; `--smoke` shrinks the sweep to a CI-friendly size.

use crate::flags::Flags;
use crate::serve::{server_parts, server_workload};
use crate::{bench_json, write_json};
use psi::registry;
use psi::{PointI, RectI};
use psi_net::loadgen::{fanout, replay_checksum, FanoutSpec};
use psi_net::{fd_budget, loopback, NetConfig, NetServer};
use psi_obs::Json;
use psi_server::{PsiServer, ServeConfig};
use std::sync::Arc;

/// One fan-out cell: printed, and returned as its `cells` row.
#[allow(clippy::too_many_arguments)]
fn run_cell(
    family: &'static str,
    data: &[PointI<2>],
    queries: &[PointI<2>],
    rects: &[RectI<2>],
    connections: usize,
    spec_base: &FanoutSpec,
    shards: usize,
    coalesce: usize,
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
    let net = NetServer::spawn(Arc::clone(&server), loopback(), NetConfig::default())
        .expect("bind loopback");
    let spec = FanoutSpec {
        connections,
        ..spec_base.clone()
    };
    let out =
        fanout(net.addr(), queries, rects, &spec).unwrap_or_else(|e| panic!("x{connections}: {e}"));
    let (served, flushes) = server.coalesce_stats();
    let mut handle = server.client();
    let replay = replay_checksum(&mut handle, queries, rects, &spec);
    drop(handle);
    net.shutdown();
    assert_eq!(
        out.checksum, replay,
        "x{connections}: socket answers diverged from in-process replay"
    );
    let coalesce_factor = served as f64 / flushes.max(1) as f64;
    println!(
        "conns={:<5} {:>8.0} q/s  p50={:>8.3}ms p99={:>8.3}ms  coalesce={:.1}x  checksum={:016x} ok",
        out.connections, out.throughput_qps, out.p50_ms, out.p99_ms, coalesce_factor, out.checksum
    );
    Json::obj([
        ("connections", out.connections.into()),
        ("ops", out.ops.into()),
        ("elapsed_secs", out.elapsed_secs.into()),
        ("qps", out.throughput_qps.into()),
        ("p50_ms", out.p50_ms.into()),
        ("p99_ms", out.p99_ms.into()),
        ("coalesce_factor", coalesce_factor.into()),
        ("checksum", format!("{:016x}", out.checksum).into()),
        ("checksum_ok", true.into()),
    ])
}

/// The flags and their defaults.
pub const USAGE: &str = "psi-bench net [--n 50000] [--rounds 20] [--k 10] [--shards 2] \
    [--coalesce 64] [--workers 8] [--family spac-h] [--out BENCH_net.json] [--smoke]";

/// Run the sweep and write its file.
pub fn main(args: &[String]) -> Result<(), String> {
    let mut flags = Flags::parse(args, &["--smoke"])?;
    let mut n: usize = flags.get("--n", 50_000)?;
    let mut rounds: usize = flags.get("--rounds", 20)?;
    let k: usize = flags.get("--k", 10)?;
    let shards: usize = flags.get("--shards", 2)?;
    let coalesce: usize = flags.get("--coalesce", 64)?;
    let workers: usize = flags.get("--workers", 8)?;
    let family: String = flags.get("--family", "spac-h".into())?;
    let family = registry::resolve_name(&family)
        .ok_or_else(|| format!("invalid value {family:?} for --family"))?;
    let out: String = flags.get("--out", "BENCH_net.json".into())?;
    let smoke = flags.switch("--smoke");
    flags.finish()?;
    if smoke {
        n = n.min(8_000);
        rounds = rounds.min(5);
    }

    // A loopback connection costs two descriptors in this process (client
    // end + accepted end), plus headroom for listener/epoll/wakeup fds.
    let budget = fd_budget();
    let max_conns = (budget / 2).saturating_sub(64).max(1);
    let counts: &[usize] = if smoke {
        &[64, 256]
    } else {
        &[256, 1_000, 4_000, 10_000]
    };

    let (data, queries, rects) = server_workload(n);
    let spec_base = FanoutSpec {
        connections: 0,
        workers,
        rounds,
        k,
    };

    println!(
        "# psi-bench net: family = {family}, n = {n}, rounds/conn = {rounds}, shards = {shards}, \
         coalesce = {coalesce}, workers = {workers}, fd budget = {budget} (max {max_conns} conns)"
    );
    let mut cells: Vec<Json> = Vec::new();
    let mut done: Vec<usize> = Vec::new();
    for &want in counts {
        let connections = want.min(max_conns);
        if connections < want {
            println!("# clamped {want} -> {connections} connections (fd budget {budget})");
        }
        if done.contains(&connections) {
            continue;
        }
        done.push(connections);
        cells.push(run_cell(
            family,
            &data,
            &queries,
            &rects,
            connections,
            &spec_base,
            shards,
            coalesce,
        ));
    }

    let doc = bench_json(
        "net_fanout",
        [
            ("family", family.into()),
            ("n", n.into()),
            ("rounds_per_connection", rounds.into()),
            ("k", k.into()),
            ("shards", shards.into()),
            ("coalesce_max_batch", coalesce.into()),
            ("workers", workers.into()),
            ("fd_budget", budget.into()),
            (
                "note",
                "closed-loop fan-out over real loopback TCP (psi-net wire protocol); every \
                 connection has one request in flight, so conns = concurrent outstanding requests \
                 at the coalescer; checksum_ok = socket replies bit-identical to in-process replay"
                    .into(),
            ),
            ("cells", cells.into()),
        ],
    );
    write_json(&out, &doc);
    Ok(())
}
