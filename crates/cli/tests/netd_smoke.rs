//! End-to-end smoke for the `psi-netd` binary: spawn the real executable,
//! scrape the ephemeral port off its banner line, drive real TCP
//! connections against it, and check that closing stdin stops it cleanly.

use psi_geometry::{Point, Rect};
use psi_net::client::WireClient;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn spawn_netd(extra: &[&str]) -> (Child, SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_psi-netd"));
    cmd.args(["--addr", "127.0.0.1:0", "--n", "3000"])
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
    (child, addr)
}

fn wait_exit(mut child: Child) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                assert!(status.success(), "psi-netd exited with {status}");
                return;
            }
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("psi-netd did not exit within 10s of stdin EOF");
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

#[test]
fn netd_serves_tcp_and_stops_on_stdin_eof() {
    let (mut child, addr) = spawn_netd(&[]);
    let mut client: WireClient<i64, 2> = WireClient::connect(addr).expect("connect");
    assert_eq!(client.shards(), 2);
    let hits = client
        .knn(&Point::new([500_000, 500_000]), 7)
        .expect("knn over tcp");
    assert_eq!(hits.len(), 7);
    let total = client
        .range_count(&Rect::from_corners(
            Point::new([0, 0]),
            Point::new([1_000_000, 1_000_000]),
        ))
        .expect("range_count over tcp");
    assert_eq!(total, 3000);
    drop(client);
    drop(child.stdin.take());
    wait_exit(child);
}

/// psi-netd has one socket front-end: a transport flag is rejected as
/// unknown, not silently ignored.
#[test]
fn netd_rejects_bad_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_psi-netd"))
        .args(["--transport", "evented"])
        .output()
        .expect("run psi-netd");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag \"--transport\""), "{stderr}");
}

#[test]
fn netd_writes_survive_over_f64() {
    let (mut child, addr) = spawn_netd(&["--coords", "f64", "--shards", "3"]);
    let mut client: WireClient<f64, 2> = WireClient::connect(addr).expect("connect");
    assert_eq!(client.shards(), 3);
    let hits = client.knn(&Point::new([10.0, 10.0]), 4).expect("knn");
    assert_eq!(hits.len(), 4);
    // Move a point through the write path and make sure the daemon stays up.
    client
        .apply_batch(hits[..1].to_vec(), vec![Point::new([123.0, 456.0])])
        .expect("apply_batch over tcp");
    let n = client
        .range_count(&Rect::from_corners(
            Point::new([-1.0e12, -1.0e12]),
            Point::new([1.0e12, 1.0e12]),
        ))
        .expect("range_count");
    assert_eq!(n, 3000);
    drop(child.stdin.take());
    wait_exit(child);
}
