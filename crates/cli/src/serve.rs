//! The concurrent serving phase of a scenario (`[serve]` section): replay a
//! declared client/writer mix through the `psi-server` subsystem and report
//! throughput and latency percentiles.
//!
//! The phase is **timing-only**: it runs after the deterministic schedule,
//! never contributes to golden text, and validates itself structurally —
//! the writer's batches *move* points (delete a slice, reinsert it), so the
//! live count after quiescing must equal the dataset size exactly; kNN
//! answers must come back well-formed (correct cardinality, sorted by
//! distance). Epoch atomicity itself is pinned down by the dedicated
//! `tests/serve_semantics.rs` battery.

use crate::scenario::{CoordKind, Scenario, ServeSpec, ServeTransport};
use psi::registry::{self, BuildOptions};
use psi::{HilbertCurve, MortonCurve, SfcCurve};
use psi_geometry::{Point, PointI, Rect};
use psi_net::client::WireClient;
use psi_net::wire::WireCoord;
use psi_net::{loopback, NetConfig, NetServer};
use psi_server::{
    closed_loop, closed_loop_with, IndexFactory, LoadSpec, PsiServer, QueryClient, ServeConfig,
    ServeCoord,
};
use psi_workloads as workloads;
use std::sync::Arc;

/// Measured outcome of a serving phase.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Family the phase ran on (canonical registry name).
    pub family: String,
    /// Shard count.
    pub shards: usize,
    /// Client transport (`inproc` or `evented`).
    pub transport: &'static str,
    /// Client threads.
    pub clients: usize,
    /// Total queries answered across all clients.
    pub ops: usize,
    /// Update batches the writer published.
    pub batches: u64,
    /// Wall-clock seconds of the client phase.
    pub elapsed_secs: f64,
    /// Queries per second (all clients combined).
    pub throughput_qps: f64,
    /// Median per-query latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-query latency, milliseconds.
    pub p99_ms: f64,
    /// Mean requests folded into one coalesced flush.
    pub coalesce_factor: f64,
    /// Flat metrics read-out of the psi-obs registry at phase end
    /// (`[serve] stats = on`, the default): one `(series, value)` pair per
    /// counter/gauge, three (`_count`/`_p50`/`_p99`) per histogram. Values
    /// are cumulative for the process, which for a scenario run means the
    /// phase that just finished plus its server construction.
    pub metrics: Option<Vec<(String, f64)>>,
}

/// Read every registered metric out of the psi-obs registry as flat
/// `(series, value)` pairs for the JSON report.
fn collect_metrics() -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for sample in psi_obs::registry().collect() {
        match sample {
            psi_obs::registry::Sample::Counter(id, _, v) => out.push((id.render(), v as f64)),
            psi_obs::registry::Sample::Gauge(id, _, v) => out.push((id.render(), v as f64)),
            psi_obs::registry::Sample::Histogram(id, _, snap) => {
                let base = id.render();
                out.push((format!("{base}_count"), snap.count() as f64));
                out.push((format!("{base}_p50"), snap.quantile(0.5) as f64));
                out.push((format!("{base}_p99"), snap.quantile(0.99) as f64));
            }
        }
    }
    out
}

/// Run the scenario's `[serve]` phase. `threads` mirrors `exec::run`: pin
/// the worker pool for the duration, or `None` for the global pool.
pub fn run_serve(sc: &Scenario, threads: Option<usize>) -> Result<ServeReport, String> {
    let Some(sv) = &sc.serve else {
        return Err(format!("scenario {:?} has no [serve] section", sc.name));
    };
    match threads {
        None => run_serve_inner(sc, sv),
        Some(0) => Err("--threads must be positive".to_string()),
        Some(t) => rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .map_err(|_| "failed to build worker pool".to_string())?
            .install(|| run_serve_inner(sc, sv)),
    }
}

fn run_serve_inner(sc: &Scenario, sv: &ServeSpec) -> Result<ServeReport, String> {
    match (sc.coords, sc.dims) {
        (CoordKind::I64, 2) => serve_i64::<2>(sc, sv),
        (CoordKind::I64, 3) => serve_i64::<3>(sc, sv),
        (CoordKind::F64, 2) => serve_f64::<2>(sc, sv),
        (CoordKind::F64, 3) => serve_f64::<3>(sc, sv),
        (_, d) => Err(format!("unsupported dims {d}")),
    }
}

/// The family the phase serves and its leaf override from the scenario.
fn serving_family(sc: &Scenario, sv: &ServeSpec) -> (&'static str, Option<usize>) {
    let family = sv.family.unwrap_or(sc.families[0].family);
    let leaf = sc
        .families
        .iter()
        .find(|f| f.family == family)
        .and_then(|f| f.leaf);
    (family, leaf)
}

fn serve_i64<const D: usize>(sc: &Scenario, sv: &ServeSpec) -> Result<ServeReport, String>
where
    HilbertCurve: SfcCurve<D>,
    MortonCurve: SfcCurve<D>,
{
    let (data, max_coord) = crate::exec::source_data_i64::<D>(sc)?;
    let universe = match sc.source {
        Some(_) => crate::datafile::derive_universe(&data, max_coord),
        None => workloads::universe::<D>(max_coord),
    };
    let (family, leaf) = serving_family(sc, sv);
    let mut opts = BuildOptions::with_universe(universe);
    opts.leaf_size = leaf;
    registry::create::<D>(family, &data[..0], &opts).map_err(|e| e.to_string())?;
    let factory: IndexFactory<i64, D> = Arc::new(move |pts: &[PointI<D>]| {
        registry::create::<D>(family, pts, &opts).expect("family validated above")
    });
    let queries = workloads::ind_queries(&data, 256, sc.seed ^ 0x61);
    let rects = workloads::range_queries(
        &data,
        max_coord,
        sc.queries.range_target.max(1),
        64,
        sc.seed ^ 0x62,
    );
    serve_typed(sc, sv, family, &data, &universe, &queries, &rects, factory)
}

fn to_f64_point<const D: usize>(p: &PointI<D>) -> Point<f64, D> {
    Point::new(p.coords.map(|c| c as f64))
}

fn serve_f64<const D: usize>(sc: &Scenario, sv: &ServeSpec) -> Result<ServeReport, String>
where
    HilbertCurve: SfcCurve<D>,
    MortonCurve: SfcCurve<D>,
{
    // Same integer-generated geometry as the executor's f64 path.
    let (idata, max_coord) = crate::exec::source_data_i64::<D>(sc)?;
    let data: Vec<Point<f64, D>> = idata.iter().map(to_f64_point).collect();
    let iuniverse = match sc.source {
        Some(_) => crate::datafile::derive_universe(&idata, max_coord),
        None => workloads::universe::<D>(max_coord),
    };
    let universe = Rect::from_corners(to_f64_point(&iuniverse.lo), to_f64_point(&iuniverse.hi));
    let (family, leaf) = serving_family(sc, sv);
    let mut opts = BuildOptions::with_universe(universe);
    opts.leaf_size = leaf;
    registry::create_f64::<D>(family, &data[..0], &opts).map_err(|e| e.to_string())?;
    let factory: IndexFactory<f64, D> = Arc::new(move |pts: &[Point<f64, D>]| {
        registry::create_f64::<D>(family, pts, &opts).expect("family validated above")
    });
    let queries: Vec<Point<f64, D>> = workloads::ind_queries(&idata, 256, sc.seed ^ 0x61)
        .iter()
        .map(to_f64_point)
        .collect();
    let rects: Vec<Rect<f64, D>> = workloads::range_queries(
        &idata,
        max_coord,
        sc.queries.range_target.max(1),
        64,
        sc.seed ^ 0x62,
    )
    .iter()
    .map(|r| Rect::from_corners(to_f64_point(&r.lo), to_f64_point(&r.hi)))
    .collect();
    serve_typed(sc, sv, family, &data, &universe, &queries, &rects, factory)
}

#[allow(clippy::too_many_arguments)]
fn serve_typed<T: ServeCoord + WireCoord, const D: usize>(
    sc: &Scenario,
    sv: &ServeSpec,
    family: &str,
    data: &[Point<T, D>],
    universe: &Rect<T, D>,
    queries: &[Point<T, D>],
    rects: &[Rect<T, D>],
    factory: IndexFactory<T, D>,
) -> Result<ServeReport, String> {
    let server = Arc::new(PsiServer::new(
        data,
        universe,
        ServeConfig {
            shards: sv.shards,
            coalesce_max_batch: sv.coalesce,
            writer_queue: 8,
            epoch_history: sv.epoch_history,
            epoch_history_bytes: sv.epoch_history_bytes,
            durability: sv
                .data_dir
                .as_ref()
                .map(|dir| psi_server::DurabilityConfig {
                    dir: dir.clone(),
                    fsync: sv.fsync,
                }),
        },
        factory,
    ));
    let spec = LoadSpec {
        clients: sv.clients,
        ops_per_client: sv.ops,
        k: sc.queries.ks.iter().copied().find(|&k| k > 0).unwrap_or(8),
        write_batch: sv.write_batch,
        write_every_ms: sv.write_every_ms,
    };
    // The socket transport puts a real TCP loopback (and the ψ-net wire
    // protocol) between the closed-loop clients and the coalescer; the
    // driver — and its conservation and answer-shape checks — is the same.
    let out = match sv.transport {
        ServeTransport::Inproc => closed_loop(&server, data, queries, rects, &spec),
        ServeTransport::Evented => {
            let net = NetServer::spawn(Arc::clone(&server), loopback(), NetConfig::default())
                .map_err(|e| format!("serve phase: bind loopback: {e}"))?;
            let addr = net.addr();
            let out = closed_loop_with(&server, data, queries, rects, &spec, |_| {
                let client: WireClient<T, D> =
                    WireClient::connect(addr).map_err(|e| e.to_string())?;
                Ok(Box::new(client) as Box<dyn QueryClient<T, D>>)
            });
            net.shutdown();
            out
        }
    }
    .map_err(|e| format!("serve phase: {e}"))?;
    // Time-travel sanity probe: when history is kept, the newest retained
    // epoch must agree with the live view — drift here means a publish
    // escaped the history log.
    let epoch = server.epoch();
    if let Some(past) = server.view_at(epoch) {
        let live = server.view().len();
        if past.len() != live {
            return Err(format!(
                "serve phase: epoch {epoch} snapshot holds {} points, live view holds {live}",
                past.len()
            ));
        }
    }
    Ok(ServeReport {
        family: family.to_string(),
        shards: sv.shards,
        transport: sv.transport.name(),
        clients: sv.clients,
        ops: out.ops,
        batches: out.batches,
        elapsed_secs: out.elapsed_secs,
        throughput_qps: out.throughput_qps,
        p50_ms: out.p50_ms,
        p99_ms: out.p99_ms,
        coalesce_factor: out.coalesce_factor,
        metrics: sv.stats.then(collect_metrics),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario;

    const SERVE: &str = "\
[scenario]
name = serve-test
seed = 9
[data]
distribution = uniform
n = 1500
max-coord = 100000
[indexes]
families = spac-h, brute-force
[queries]
k = 6
[serve]
clients = 2
ops = 60
shards = 2
write-batch = 50
write-every-ms = 0
coalesce = 16
";

    #[test]
    fn serve_phase_runs_and_conserves_points() {
        let sc = scenario::parse(SERVE).unwrap();
        let report = run_serve(&sc, None).unwrap();
        assert_eq!(report.family, "spac-h");
        assert_eq!(report.clients, 2);
        assert_eq!(report.ops, 120);
        assert_eq!(report.shards, 2);
        assert!(report.throughput_qps > 0.0);
        assert!(report.p99_ms >= report.p50_ms);
        assert!(report.coalesce_factor >= 1.0);
    }

    #[test]
    fn serve_phase_respects_family_and_threads() {
        let text = SERVE.replace("coalesce = 16", "coalesce = 16\nfamily = brute-force");
        let sc = scenario::parse(&text).unwrap();
        let report = run_serve(&sc, Some(1)).unwrap();
        assert_eq!(report.family, "brute-force");
        // No [serve] section is an error, not a silent no-op.
        let bare =
            scenario::parse("[scenario]\nname = x\n[data]\ndistribution = uniform\nn = 50\n")
                .unwrap();
        assert!(run_serve(&bare, None).is_err());
    }

    #[test]
    fn socket_transport_runs_the_serve_phase() {
        let text = SERVE.replace("coalesce = 16", "coalesce = 16\ntransport = evented");
        let sc = scenario::parse(&text).unwrap();
        let report = run_serve(&sc, None).unwrap();
        assert_eq!(report.transport, "evented");
        assert_eq!(report.ops, 120);
        assert!(report.coalesce_factor >= 1.0);
    }

    #[test]
    fn persistent_family_serves_with_epoch_history() {
        // An explicit history window exercises the time-travel sanity
        // probe in `serve_typed`.
        let text = SERVE
            .replace("families = spac-h, brute-force", "families = cpam-h")
            .replace("coalesce = 16", "coalesce = 16\nepoch-history = 4");
        let sc = scenario::parse(&text).unwrap();
        assert_eq!(sc.serve.as_ref().unwrap().epoch_history, 4);
        let report = run_serve(&sc, None).unwrap();
        assert_eq!(report.family, "cpam-h");
        assert_eq!(report.ops, 120);
        assert!(report.batches > 0, "writer must publish epochs");
    }

    #[test]
    fn f64_serve_phase_runs() {
        let text = SERVE
            .replace("max-coord = 100000", "max-coord = 100000\ncoords = f64")
            .replace("families = spac-h, brute-force", "families = pkd, zd");
        let sc = scenario::parse(&text).unwrap();
        let report = run_serve(&sc, None).unwrap();
        assert_eq!(report.family, "pkd");
        assert_eq!(report.ops, 120);
    }
}
