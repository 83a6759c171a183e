//! End-to-end observability smoke: spawn the real `psi-netd` binary with a
//! durable data dir and a metrics endpoint, push a loadgen burst plus a
//! write batch through the wire, then check that `OP_STATS` and the
//! `--stats-addr` plaintext endpoint report consistent,
//! nonzero values for the core series: per-op request latency, publish
//! latency, coalesce flushes, WAL fsync.

use psi_geometry::{Point, Rect};
use psi_net::client::WireClient;
use psi_net::loadgen::{fanout, FanoutSpec};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct Netd {
    child: Child,
    addr: SocketAddr,
    stats_addr: SocketAddr,
}

fn spawn_netd(extra: &[&str]) -> Netd {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_psi-netd"));
    cmd.args([
        "--addr",
        "127.0.0.1:0",
        "--stats-addr",
        "127.0.0.1:0",
        "--n",
        "3000",
        "--coalesce",
        "4",
    ])
    .args(extra)
    .stdin(Stdio::piped())
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    let mut child = cmd.spawn().expect("spawn psi-netd");
    let stdout = child.stdout.take().expect("piped stdout");
    let banner = BufReader::new(stdout)
        .lines()
        .next()
        .expect("banner line")
        .expect("banner read");
    let addr = banner
        .strip_prefix("listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("unparseable banner {banner:?}"));
    let stats_addr = banner
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("stats="))
        .and_then(|a| a.parse().ok())
        .unwrap_or_else(|| panic!("no stats= in banner {banner:?}"));
    Netd {
        child,
        addr,
        stats_addr,
    }
}

fn stop(mut netd: Netd) {
    drop(netd.child.stdin.take());
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match netd.child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "psi-netd exited with {status}");
                return;
            }
            None if Instant::now() > deadline => {
                let _ = netd.child.kill();
                panic!("psi-netd did not exit within 10s of stdin EOF");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// The value of the first exposition line starting with `prefix`.
fn series_value(text: &str, prefix: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("series {prefix:?} missing from:\n{text}"))
}

/// One curl-style GET against the plaintext endpoint; returns the body.
fn scrape(addr: SocketAddr) -> String {
    let mut s = TcpStream::connect(addr).expect("connect stats endpoint");
    s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut text = String::new();
    s.read_to_string(&mut text).expect("read scrape");
    assert!(text.starts_with("HTTP/1.0 200 OK\r\n"), "{text:?}");
    text.split_once("\r\n\r\n")
        .expect("header/body split")
        .1
        .to_string()
}

#[test]
fn stats_are_nonzero_and_consistent_across_exposures() {
    let world = Rect::from_corners(Point::new([0, 0]), Point::new([1_000_000, 1_000_000]));
    let dir = std::env::temp_dir().join(format!("psi-obs-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let netd = spawn_netd(&["--data-dir", dir.to_str().unwrap()]);

    // Loadgen burst: 8 closed-loop connections, 40 rounds each.
    let queries: Vec<Point<i64, 2>> = (0..16)
        .map(|i| Point::new([i * 50_000, 1_000_000 - i * 50_000]))
        .collect();
    let rects = vec![
        Rect::from_corners(Point::new([0, 0]), Point::new([200_000, 200_000])),
        Rect::from_corners(
            Point::new([400_000, 400_000]),
            Point::new([600_000, 600_000]),
        ),
    ];
    let spec = FanoutSpec {
        connections: 8,
        workers: 2,
        rounds: 40,
        k: 5,
    };
    let out = fanout(netd.addr, &queries, &rects, &spec).expect("loadgen burst");
    assert_eq!(out.ops, 8 * 40);

    // One write batch through the WAL, polled to publication so the
    // publish-latency and fsync series are guaranteed nonzero.
    let mut client: WireClient<i64, 2> = WireClient::connect(netd.addr).expect("connect");
    client
        .apply_batch(Vec::new(), vec![Point::new([7, 7]), Point::new([9, 9])])
        .expect("apply_batch");
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.range_count(&world).expect("range_count") != 3002 {
        assert!(Instant::now() < deadline, "write batch never published");
        std::thread::sleep(Duration::from_millis(5));
    }

    // Exposure 1: OP_STATS over the wire.
    let (version, text) = client.stats().expect("OP_STATS");
    assert_eq!(version, psi_obs::SNAPSHOT_VERSION);
    let knn_in = series_value(&text, "psi_net_frames_in_total{op=\"knn\"}");
    assert!(knn_in >= 2.0 * 40.0, "knn frames {knn_in}");
    assert!(
        series_value(
            &text,
            "psi_net_request_latency_ns{op=\"knn\",quantile=\"0.99\"}"
        ) > 0.0
    );
    assert!(
        series_value(
            &text,
            "psi_serve_publish_latency_ns{shard=\"0\",quantile=\"0.99\"}"
        ) > 0.0
    );
    assert!(series_value(&text, "psi_serve_flushes_total") > 0.0);
    assert!(series_value(&text, "psi_wal_fsync_latency_ns_count") > 0.0);
    assert!(series_value(&text, "psi_wal_bytes_written_total") > 0.0);
    assert!(series_value(&text, "psi_net_open_connections") >= 1.0);

    // Exposure 2: the plaintext endpoint. Counters are monotone, so the
    // later scrape must agree with (or exceed) the wire snapshot.
    let body = scrape(netd.stats_addr);
    let scraped_knn_in = series_value(&body, "psi_net_frames_in_total{op=\"knn\"}");
    assert!(
        scraped_knn_in >= knn_in,
        "scrape {scraped_knn_in} went backwards from wire {knn_in}"
    );
    assert!(series_value(&body, "psi_wal_fsync_latency_ns_count") > 0.0);
    assert!(series_value(&body, "psi_serve_flushes_total") > 0.0);

    drop(client);
    stop(netd);
    let _ = std::fs::remove_dir_all(&dir);
}
