//! Fault-injection battery for `psi-netd` durability: SIGKILL the real
//! binary mid-write and require the restarted daemon to answer
//! checksum-equal to an offline replica replaying the same batch prefix;
//! then corrupt the on-disk state directly — WAL byte flips, torn tails,
//! damaged checkpoints — and require graceful degradation to an earlier
//! consistent epoch with a logged warning, never a panic.
//!
//! Everything runs through the real executable and real TCP, mirroring
//! `netd_smoke.rs`; the i64 2-d family probed is `cpam-h`, whose retained
//! epoch history (`epoch_bounds`) is the probe that tells us which prefix
//! of the submitted batches survived the kill.

use psi::registry::{self, BuildOptions, DynIndex};
use psi_geometry::{Point, PointI, Rect};
use psi_net::client::WireClient;
use psi_workloads::{self as workloads, Distribution};
use std::collections::HashSet;
use std::fs::{self, File};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const N: usize = 2000;
const MAX_COORD: i64 = 1_000_000;
const SEED: u64 = 42;
const FAMILY: &str = "cpam-h";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// Fresh per-test scratch root (no tempfile crate in the workspace).
fn scratch(label: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!("psi-durv-{}-{label}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(&root).expect("create scratch root");
    root
}

/// Spawn the real `psi-netd` over `data_dir`, capturing stderr to a file so
/// the corruption tests can assert on recovery warnings.
fn spawn_durable(data_dir: &Path, stderr_log: &Path) -> (Child, SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_psi-netd"));
    cmd.args(["--addr", "127.0.0.1:0", "--family", FAMILY])
        .args(["--n", &N.to_string(), "--seed", &SEED.to_string()])
        .arg("--data-dir")
        .arg(data_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(
            File::create(stderr_log).expect("create stderr log"),
        ));
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
    assert!(banner.ends_with("durable=every-batch"), "banner {banner:?}");
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

/// Block until the published epoch reaches `want` (acks confirm submission,
/// not publication, so every wire-level epoch assertion must poll).
fn wait_epoch(client: &mut WireClient<i64, 2>, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let hi = client
            .epoch_bounds()
            .expect("epoch_bounds")
            .map(|(_, hi)| hi)
            .unwrap_or(0);
        if hi >= want {
            return;
        }
        assert!(Instant::now() < deadline, "epoch {want} never published");
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn published_epoch(client: &mut WireClient<i64, 2>) -> u64 {
    client
        .epoch_bounds()
        .expect("epoch_bounds")
        .map(|(_, hi)| hi)
        .unwrap_or(0)
}

fn base_data() -> Vec<PointI<2>> {
    Distribution::Uniform.generate::<2>(N, MAX_COORD, SEED)
}

/// Deterministic insert stream, disjoint from the base dataset and from
/// itself, so a full-universe `range_count` pins down exactly how many
/// batches survived a crash.
fn fresh_points(count: usize, taken: &mut HashSet<[i64; 2]>) -> Vec<PointI<2>> {
    let mut out = Vec::with_capacity(count);
    let mut i: i64 = 0;
    while out.len() < count {
        let cand = [
            (i * 7919 + 13) % (MAX_COORD + 1),
            (i * 104_729 + 31) % (MAX_COORD + 1),
        ];
        if taken.insert(cand) {
            out.push(Point::new(cand));
        }
        i += 1;
    }
    out
}

fn full_universe() -> Rect<i64, 2> {
    Rect::from_corners(Point::new([0, 0]), Point::new([MAX_COORD; 2]))
}

/// Fixed query mix hashed the same way on both sides of the comparison.
/// Answer lists are sorted first: the daemon merges per-shard answers while
/// the replica is a single index, so only set equality is promised.
fn probe_mix() -> (Vec<PointI<2>>, Vec<Rect<i64, 2>>) {
    let queries = (0..8)
        .map(|i| Point::new([(i * 123_457) % MAX_COORD, (i * 654_321 + 99) % MAX_COORD]))
        .collect();
    let rects = (0..6)
        .map(|i| {
            let lo = Point::new([(i * 150_001) % MAX_COORD, (i * 90_007) % MAX_COORD]);
            let hi = Point::new([
                (lo.coords[0] + 120_000).min(MAX_COORD),
                (lo.coords[1] + 200_000).min(MAX_COORD),
            ]);
            Rect::from_corners(lo, hi)
        })
        .collect();
    (queries, rects)
}

fn hash_points(h: u64, mut pts: Vec<PointI<2>>) -> u64 {
    pts.sort_unstable();
    let mut h = fold(h, pts.len() as u64);
    for p in &pts {
        for c in p.coords {
            h = fold(h, c as u64);
        }
    }
    h
}

fn wire_checksum(client: &mut WireClient<i64, 2>) -> u64 {
    let (queries, rects) = probe_mix();
    let mut h = FNV_OFFSET;
    for q in &queries {
        h = hash_points(h, client.knn(q, 4).expect("knn"));
    }
    for r in &rects {
        h = fold(h, client.range_count(r).expect("range_count") as u64);
    }
    for r in &rects {
        h = hash_points(h, client.range_list(r).expect("range_list"));
    }
    h
}

fn replica_checksum(index: &dyn DynIndex<i64, 2>) -> u64 {
    let (queries, rects) = probe_mix();
    let mut h = FNV_OFFSET;
    for ans in index.knn_batch(&queries, 4) {
        h = hash_points(h, ans);
    }
    for c in index.range_count_batch(&rects) {
        h = fold(h, c as u64);
    }
    for list in index.range_list_batch(&rects) {
        h = hash_points(h, list);
    }
    h
}

fn build_replica(base: &[PointI<2>]) -> Box<dyn DynIndex<i64, 2>> {
    let opts = BuildOptions::with_universe(workloads::universe::<2>(MAX_COORD));
    registry::create::<2>(FAMILY, base, &opts).expect("replica build")
}

/// Newest generation number among `checkpoint-g<g>.psic` / `wal-g<g>.log`.
fn newest(dir: &Path, prefix: &str, suffix: &str) -> PathBuf {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in fs::read_dir(dir).expect("read data dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if let Some(g) = name
            .strip_prefix(prefix)
            .and_then(|r| r.strip_suffix(suffix))
            .and_then(|g| g.parse::<u64>().ok())
        {
            if best.as_ref().is_none_or(|(b, _)| g > *b) {
                best = Some((g, path.clone()));
            }
        }
    }
    best.unwrap_or_else(|| panic!("no {prefix}*{suffix} in {}", dir.display()))
        .1
}

/// SIGKILL mid-write: pace a few mixed batches to known epochs, then fire a
/// burst of single-insert batches and kill the daemon without waiting.
/// After restart, the daemon must hold exactly a prefix of the submitted
/// batches and answer the full probe mix checksum-equal to an offline
/// replica replaying that prefix.
#[test]
fn sigkill_mid_write_recovers_a_consistent_prefix() {
    const PACED: usize = 4;
    const BURST: usize = 32;

    let root = scratch("kill");
    let data_dir = root.join("data");
    let base = base_data();
    let mut taken: HashSet<[i64; 2]> = base.iter().map(|p| p.coords).collect();
    // Paced batch i deletes one base point and inserts two fresh ones
    // (net +1); burst batches are single fresh inserts (net +1).
    let paced_ins = fresh_points(2 * PACED, &mut taken);
    let burst_ins = fresh_points(BURST, &mut taken);

    let (mut child, addr) = spawn_durable(&data_dir, &root.join("stderr-0.log"));
    let mut client: WireClient<i64, 2> = WireClient::connect(addr).expect("connect");
    for i in 0..PACED {
        client
            .apply_batch(vec![base[i]], paced_ins[2 * i..2 * i + 2].to_vec())
            .expect("paced batch");
        wait_epoch(&mut client, (i + 1) as u64);
    }
    for p in &burst_ins {
        client.apply_batch(vec![], vec![*p]).expect("burst batch");
    }
    child.kill().expect("SIGKILL psi-netd");
    child.wait().expect("reap killed daemon");
    drop(client);

    let (mut child, addr) = spawn_durable(&data_dir, &root.join("stderr-1.log"));
    let mut client: WireClient<i64, 2> = WireClient::connect(addr).expect("reconnect");
    assert!(
        published_epoch(&mut client) >= PACED as u64,
        "paced batches were acknowledged as published before the kill"
    );
    let count = client.range_count(&full_universe()).expect("count");
    let survived = count
        .checked_sub(N + PACED)
        .unwrap_or_else(|| panic!("recovered count {count} below the paced floor"));
    assert!(
        survived <= BURST,
        "recovered count {count} exceeds submitted"
    );

    // Offline replica replays the same prefix batch-by-batch.
    let mut replica = build_replica(&base);
    for i in 0..PACED {
        replica.batch_delete(&base[i..i + 1]);
        replica.batch_insert(&paced_ins[2 * i..2 * i + 2]);
    }
    replica.batch_insert(&burst_ins[..survived]);
    assert_eq!(
        wire_checksum(&mut client),
        replica_checksum(&*replica),
        "recovered answers must checksum-equal the offline replay \
         ({survived}/{BURST} burst batches survived)"
    );

    drop(client);
    drop(child.stdin.take());
    wait_exit(child);
    let _ = fs::remove_dir_all(&root);
}

/// Boot a daemon over `data_dir`, apply `EPOCHS` paced single-insert
/// batches, shut down cleanly. Returns the insert stream for replays.
fn seed_epochs(root: &Path, data_dir: &Path, label: &str, epochs: usize) -> Vec<PointI<2>> {
    let base = base_data();
    let mut taken: HashSet<[i64; 2]> = base.iter().map(|p| p.coords).collect();
    let ins = fresh_points(epochs, &mut taken);
    let (mut child, addr) = spawn_durable(data_dir, &root.join(format!("stderr-{label}.log")));
    let mut client: WireClient<i64, 2> = WireClient::connect(addr).expect("connect");
    for (i, p) in ins.iter().enumerate() {
        client.apply_batch(vec![], vec![*p]).expect("seed batch");
        wait_epoch(&mut client, (i + 1) as u64);
    }
    drop(client);
    drop(child.stdin.take());
    wait_exit(child);
    ins
}

/// Reboot over `data_dir` and return `(published epoch, full count)`,
/// asserting the daemon stays up and answers queries.
fn reboot_and_probe(root: &Path, data_dir: &Path, label: &str) -> (u64, usize) {
    let (mut child, addr) = spawn_durable(data_dir, &root.join(format!("stderr-{label}.log")));
    let mut client: WireClient<i64, 2> = WireClient::connect(addr).expect("reconnect");
    let epoch = published_epoch(&mut client);
    let count = client.range_count(&full_universe()).expect("count");
    // The daemon must still serve reads after a degraded recovery.
    assert_eq!(client.knn(&Point::new([1, 1]), 3).expect("knn").len(), 3);
    drop(client);
    drop(child.stdin.take());
    wait_exit(child);
    (epoch, count)
}

fn stderr_contains(root: &Path, label: &str, needle: &str) -> bool {
    fs::read_to_string(root.join(format!("stderr-{label}.log")))
        .map(|s| s.contains(needle))
        .unwrap_or(false)
}

/// A flipped byte in the newest WAL record must cost exactly the records
/// from the flip onward — recovery warns and lands on the last epoch whose
/// record still passes its CRC.
#[test]
fn wal_byte_flip_degrades_to_the_last_valid_epoch() {
    const EPOCHS: usize = 6;
    let root = scratch("flip");
    let data_dir = root.join("data");
    seed_epochs(&root, &data_dir, "seed", EPOCHS);

    let wal = newest(&data_dir, "wal-g", ".log");
    let mut bytes = fs::read(&wal).expect("read wal");
    let at = bytes.len() - 5; // inside the final record's body
    bytes[at] ^= 0x40;
    fs::write(&wal, &bytes).expect("write corrupted wal");

    let (epoch, count) = reboot_and_probe(&root, &data_dir, "reboot");
    assert_eq!(
        epoch,
        (EPOCHS - 1) as u64,
        "exactly the flipped record is lost"
    );
    assert_eq!(count, N + EPOCHS - 1);
    assert!(
        stderr_contains(&root, "reboot", "recovery"),
        "degraded recovery must warn on stderr"
    );
    let _ = fs::remove_dir_all(&root);
}

/// A torn tail (partial final record, as left by a crash mid-append) must
/// be skipped silently-but-consistently: the daemon recovers every whole
/// record and keeps serving.
#[test]
fn wal_torn_tail_recovers_every_whole_record() {
    const EPOCHS: usize = 5;
    let root = scratch("torn");
    let data_dir = root.join("data");
    seed_epochs(&root, &data_dir, "seed", EPOCHS);

    let wal = newest(&data_dir, "wal-g", ".log");
    let len = fs::metadata(&wal).expect("stat wal").len();
    let file = File::options().write(true).open(&wal).expect("open wal");
    file.set_len(len - 3).expect("tear the tail");
    drop(file);

    let (epoch, count) = reboot_and_probe(&root, &data_dir, "reboot");
    assert_eq!(epoch, (EPOCHS - 1) as u64, "only the torn record is lost");
    assert_eq!(count, N + EPOCHS - 1);
    let _ = fs::remove_dir_all(&root);
}

/// A corrupted checkpoint must not take the WAL down with it: recovery
/// falls back to the previous generation's checkpoint and re-chains every
/// contiguous WAL segment, landing on the *full* pre-corruption state.
#[test]
fn checkpoint_corruption_falls_back_to_the_previous_generation() {
    const FIRST: usize = 3;
    const SECOND: usize = 2;
    let root = scratch("ckpt");
    let data_dir = root.join("data");
    // Two boot cycles: the second boot recovers epoch FIRST and writes a
    // fresh checkpoint generation, leaving the first generation behind
    // (keep-2 retention), then advances SECOND more epochs into its WAL.
    let ins = seed_epochs(&root, &data_dir, "seed-a", FIRST);
    {
        let base = base_data();
        let mut taken: HashSet<[i64; 2]> = base.iter().map(|p| p.coords).collect();
        let replay = fresh_points(FIRST + SECOND, &mut taken);
        assert_eq!(&replay[..FIRST], &ins[..], "insert stream is deterministic");
        let (mut child, addr) = spawn_durable(&data_dir, &root.join("stderr-seed-b.log"));
        let mut client: WireClient<i64, 2> = WireClient::connect(addr).expect("connect");
        wait_epoch(&mut client, FIRST as u64);
        for (i, p) in replay[FIRST..].iter().enumerate() {
            client
                .apply_batch(vec![], vec![*p])
                .expect("second-cycle batch");
            wait_epoch(&mut client, (FIRST + i + 1) as u64);
        }
        drop(client);
        drop(child.stdin.take());
        wait_exit(child);
    }

    let ckpt = newest(&data_dir, "checkpoint-g", ".psic");
    let mut bytes = fs::read(&ckpt).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&ckpt, &bytes).expect("write corrupted checkpoint");

    let (epoch, count) = reboot_and_probe(&root, &data_dir, "reboot");
    assert_eq!(
        epoch,
        (FIRST + SECOND) as u64,
        "older checkpoint + chained WAL segments rebuild the full state"
    );
    assert_eq!(count, N + FIRST + SECOND);
    assert!(
        stderr_contains(&root, "reboot", "recovery"),
        "checkpoint fallback must warn on stderr"
    );
    let _ = fs::remove_dir_all(&root);
}
