//! Batch write-ahead log: the redo log behind [`crate::PsiServer`]'s
//! durability (`data_dir` in [`crate::DurabilityConfig`]).
//!
//! Every batch the writer thread publishes is first appended here as one
//! **record**:
//!
//! ```text
//! ┌──────────┬────────────┬────────────┬───────────────────────────────┐
//! │ len: u32 │ epoch: u64 │ crc32: u32 │ body                          │
//! │ LE, counts epoch..body │ LE, over   │ [n_del: u32][n_ins: u32]      │
//! │          │            │ epoch+body │ [n_del points][n_ins points]  │
//! └──────────┴────────────┴────────────┴───────────────────────────────┘
//! ```
//!
//! Points are serialized with the workspace's shared 8-byte little-endian
//! coordinate codec ([`WireCoord`] — the same words the ψ-net wire protocol
//! carries, so `f64` NaN payloads and `-0.0` survive bit-for-bit). `epoch`
//! is the **global** router epoch the batch produced. The log stores whole
//! batches, not per-shard splits: stripe routing is a pure function of the
//! universe cuts recorded in the paired checkpoint, so replaying the global
//! sequence reproduces every shard's state at every epoch exactly.
//!
//! A segment file starts with a 16-byte header — magic, format version,
//! coordinate tag, dimensionality, and the **base epoch** (the checkpoint
//! watermark the segment continues from) — followed by records with strictly
//! consecutive epochs `base+1, base+2, …`.
//!
//! Reading is tolerant by design: a torn tail (partial final record — the
//! expected crash shape), a CRC mismatch, an out-of-bounds length prefix or
//! a non-consecutive epoch ends the scan at the last good record. The valid
//! prefix is returned together with a description of what was dropped;
//! nothing in this module panics on hostile bytes.

use psi_geometry::{Point, WireCoord};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Seek, Write};
use std::path::{Path, PathBuf};

/// Wall time of one [`WalWriter::append`] (encode + buffered write + any
/// fsync the policy demands).
static OBS_APPEND: psi_obs::LazyHistogram = psi_obs::LazyHistogram::new(
    "psi_wal_append_latency_ns",
    "wall time of one WAL batch append, fsync included when the policy demands it",
);
/// Wall time of each explicit flush-to-stable-storage (`sync_all`).
static OBS_FSYNC: psi_obs::LazyHistogram = psi_obs::LazyHistogram::new(
    "psi_wal_fsync_latency_ns",
    "wall time of one WAL flush+fsync to stable storage",
);
/// Record bytes handed to the WAL segment (headers excluded).
static OBS_BYTES: psi_obs::LazyCounter = psi_obs::LazyCounter::new(
    "psi_wal_bytes_written_total",
    "record bytes appended to WAL segments",
);

/// First bytes of every WAL segment: `b"PSIW"` as a little-endian u32.
pub const WAL_MAGIC: u32 = u32::from_le_bytes(*b"PSIW");
/// WAL format version.
pub const WAL_VERSION: u16 = 1;
/// Bytes of the segment header (magic + version + tag + dims + base epoch).
pub const WAL_HEADER: usize = 16;
/// Bytes of the record length prefix.
pub const REC_PREFIX: usize = 4;
/// Fixed record bytes after the length prefix (epoch + crc + two counts).
pub const REC_FIXED: usize = 8 + 4 + 4 + 4;
/// Hard cap on one record's declared length (256 MiB). The prefix is
/// untrusted input on recovery — a corrupt 4 GiB "record" must cost nothing.
pub const MAX_RECORD: usize = 1 << 28;

// ------------------------------------------------------------------- crc32

/// CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF`) — hand-rolled
/// table-driven implementation; the workspace builds without external crates.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// The CRC-32 of `bytes` (IEEE polynomial, as used by gzip/zip/PNG).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ------------------------------------------------------------ fsync policy

/// When the WAL writer flushes appended records to stable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended batch: an acknowledged-and-published
    /// batch is never lost to a crash. The durable default.
    #[default]
    EveryBatch,
    /// `fsync` after every `n` batches: bounded loss window, amortised cost.
    EveryN(u32),
    /// Never `fsync` explicitly — leave flushing to the OS page cache. A
    /// crash of the *process* loses nothing (the kernel holds the writes);
    /// a crash of the *machine* may lose the un-flushed tail.
    Os,
}

impl FsyncPolicy {
    /// Parse the config spelling: `every-batch`, `os`, or `every-N` for a
    /// positive batch count `N` (e.g. `every-8`).
    pub fn parse(s: &str) -> Option<FsyncPolicy> {
        match s {
            "every-batch" => Some(FsyncPolicy::EveryBatch),
            "os" => Some(FsyncPolicy::Os),
            _ => {
                let n: u32 = s.strip_prefix("every-")?.parse().ok()?;
                (n > 0).then_some(FsyncPolicy::EveryN(n))
            }
        }
    }

    /// The canonical config spelling ([`FsyncPolicy::parse`] inverse).
    pub fn name(&self) -> String {
        match self {
            FsyncPolicy::EveryBatch => "every-batch".to_string(),
            FsyncPolicy::EveryN(n) => format!("every-{n}"),
            FsyncPolicy::Os => "os".to_string(),
        }
    }
}

// ------------------------------------------------------------ record codec

/// One decoded WAL record: the batch that produced global `epoch`.
#[derive(Clone, Debug, PartialEq)]
pub struct WalRecord<T: WireCoord, const D: usize> {
    /// The global router epoch this batch published.
    pub epoch: u64,
    /// Deletions, applied before insertions (the `BatchDiff` contract).
    pub delete: Vec<Point<T, D>>,
    /// Insertions.
    pub insert: Vec<Point<T, D>>,
}

/// Why a record or segment failed to decode. Every variant is a normal
/// error value — hostile input never panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalError {
    /// Declared record length out of bounds (undershoots the fixed fields
    /// or exceeds [`MAX_RECORD`]).
    BadLength(usize),
    /// Not enough bytes for the declared length (torn tail).
    Truncated,
    /// Stored CRC disagrees with the recomputed one.
    BadCrc { stored: u32, computed: u32 },
    /// Body shape disagrees with its point counts.
    Malformed(&'static str),
    /// Segment header rejected (magic, version, or shape mismatch).
    BadHeader(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::BadLength(n) => write!(f, "record length {n} out of bounds"),
            WalError::Truncated => write!(f, "torn record (payload shorter than declared)"),
            WalError::BadCrc { stored, computed } => {
                write!(
                    f,
                    "crc mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            WalError::Malformed(what) => write!(f, "malformed record: {what}"),
            WalError::BadHeader(what) => write!(f, "bad segment header: {what}"),
        }
    }
}

impl std::error::Error for WalError {}

fn put_points<T: WireCoord, const D: usize>(out: &mut Vec<u8>, pts: &[Point<T, D>]) {
    out.reserve(pts.len() * D * 8);
    for p in pts {
        for c in p.coords {
            out.extend_from_slice(&c.to_wire());
        }
    }
}

/// Append one encoded record to `out`. The buffer is reusable across calls;
/// each call appends exactly one `[len][epoch][crc][body]` record.
pub fn encode_record<T: WireCoord, const D: usize>(
    epoch: u64,
    delete: &[Point<T, D>],
    insert: &[Point<T, D>],
    out: &mut Vec<u8>,
) {
    let body_len = 8 + (delete.len() + insert.len()) * D * 8;
    let at = out.len();
    out.extend_from_slice(&[0u8; REC_PREFIX]); // backpatched below
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // crc, backpatched below
    out.extend_from_slice(&(delete.len() as u32).to_le_bytes());
    out.extend_from_slice(&(insert.len() as u32).to_le_bytes());
    put_points(out, delete);
    put_points(out, insert);
    debug_assert_eq!(out.len() - at - REC_PREFIX - 12, body_len);
    let len = (out.len() - at - REC_PREFIX) as u32;
    out[at..at + REC_PREFIX].copy_from_slice(&len.to_le_bytes());
    // CRC covers the epoch and the body — everything the record claims —
    // but not itself or the length prefix (the length is validated
    // structurally: a wrong length fails the CRC anyway).
    let crc = {
        let epoch_bytes = &out[at + REC_PREFIX..at + REC_PREFIX + 8];
        let body = &out[at + REC_PREFIX + 12..];
        let mut buf = Vec::with_capacity(8 + body.len());
        buf.extend_from_slice(epoch_bytes);
        buf.extend_from_slice(body);
        crc32(&buf)
    };
    out[at + REC_PREFIX + 8..at + REC_PREFIX + 12].copy_from_slice(&crc.to_le_bytes());
}

/// Decode one record from the start of `buf`. Returns the record and the
/// total bytes it occupied (prefix included), so a reader can advance.
/// Never allocates more than `buf` can back — the length prefix and the
/// point counts are both validated against the bytes that actually arrived.
pub fn decode_record<T: WireCoord, const D: usize>(
    buf: &[u8],
) -> Result<(WalRecord<T, D>, usize), WalError> {
    if buf.len() < REC_PREFIX {
        return Err(WalError::Truncated);
    }
    let len = u32::from_le_bytes(buf[..REC_PREFIX].try_into().expect("4 bytes")) as usize;
    if !((REC_FIXED - REC_PREFIX)..=MAX_RECORD).contains(&len) {
        return Err(WalError::BadLength(len));
    }
    let total = REC_PREFIX + len;
    if buf.len() < total {
        return Err(WalError::Truncated);
    }
    let rec = &buf[REC_PREFIX..total];
    let epoch = u64::from_le_bytes(rec[..8].try_into().expect("8 bytes"));
    let stored = u32::from_le_bytes(rec[8..12].try_into().expect("4 bytes"));
    let body = &rec[12..];
    let computed = {
        let mut buf = Vec::with_capacity(8 + body.len());
        buf.extend_from_slice(&rec[..8]);
        buf.extend_from_slice(body);
        crc32(&buf)
    };
    if stored != computed {
        return Err(WalError::BadCrc { stored, computed });
    }
    let n_del = u32::from_le_bytes(body[..4].try_into().expect("4 bytes")) as usize;
    let n_ins = u32::from_le_bytes(body[4..8].try_into().expect("4 bytes")) as usize;
    let pts = &body[8..];
    let need = n_del
        .checked_add(n_ins)
        .and_then(|n| n.checked_mul(D * 8))
        .ok_or(WalError::Malformed("point counts overflow"))?;
    if need != pts.len() {
        return Err(WalError::Malformed(
            "point counts disagree with body length",
        ));
    }
    let read_points = |range: std::ops::Range<usize>| -> Vec<Point<T, D>> {
        pts[range.start * D * 8..range.end * D * 8]
            .chunks_exact(D * 8)
            .map(|chunk| {
                let mut coords = [T::ZERO; D];
                for (i, c) in coords.iter_mut().enumerate() {
                    *c = T::from_wire(chunk[i * 8..(i + 1) * 8].try_into().expect("8 bytes"));
                }
                Point::new(coords)
            })
            .collect()
    };
    Ok((
        WalRecord {
            epoch,
            delete: read_points(0..n_del),
            insert: read_points(n_del..n_del + n_ins),
        },
        total,
    ))
}

// ---------------------------------------------------------------- segments

fn encode_header<T: WireCoord, const D: usize>(base_epoch: u64) -> [u8; WAL_HEADER] {
    let mut h = [0u8; WAL_HEADER];
    h[..4].copy_from_slice(&WAL_MAGIC.to_le_bytes());
    h[4..6].copy_from_slice(&WAL_VERSION.to_le_bytes());
    h[6] = T::TAG;
    h[7] = D as u8;
    h[8..16].copy_from_slice(&base_epoch.to_le_bytes());
    h
}

/// Validate a segment header against this server's shape; returns the base
/// epoch the segment continues from.
pub fn decode_header<T: WireCoord, const D: usize>(buf: &[u8]) -> Result<u64, WalError> {
    if buf.len() < WAL_HEADER {
        return Err(WalError::BadHeader("shorter than the header".to_string()));
    }
    let magic = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"));
    if magic != WAL_MAGIC {
        return Err(WalError::BadHeader(format!("magic {magic:#010x}")));
    }
    let version = u16::from_le_bytes(buf[4..6].try_into().expect("2 bytes"));
    if version != WAL_VERSION {
        return Err(WalError::BadHeader(format!("version {version}")));
    }
    if buf[6] != T::TAG || buf[7] != D as u8 {
        return Err(WalError::BadHeader(format!(
            "shape: segment is tag {} dims {}, server serves tag {} dims {D}",
            buf[6],
            buf[7],
            T::TAG
        )));
    }
    Ok(u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")))
}

/// The readable contents of one WAL segment: the valid record prefix, plus
/// what (if anything) had to be dropped behind it.
pub struct WalSegment<T: WireCoord, const D: usize> {
    /// The checkpoint watermark the segment continues from.
    pub base_epoch: u64,
    /// Records with consecutive epochs `base_epoch + 1, base_epoch + 2, …`.
    pub records: Vec<WalRecord<T, D>>,
    /// `Some(description)` when a torn tail, CRC mismatch or epoch gap ended
    /// the scan early; the bytes after the last good record were dropped.
    pub dropped: Option<String>,
    /// File offset just past the last good record — where a writer resuming
    /// this segment must truncate to before appending.
    pub valid_len: u64,
}

/// Read a whole segment file, tolerating a damaged tail (see the module
/// docs). `Err` means the file is unusable outright (unreadable, or its
/// header is missing/alien); a damaged tail is *not* an error — the valid
/// prefix comes back in [`WalSegment::records`] with
/// [`WalSegment::dropped`] describing the loss.
pub fn read_segment<T: WireCoord, const D: usize>(path: &Path) -> Result<WalSegment<T, D>, String> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    let base_epoch =
        decode_header::<T, D>(&bytes).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut records = Vec::new();
    let mut pos = WAL_HEADER;
    let mut dropped = None;
    let mut expect = base_epoch + 1;
    while pos < bytes.len() {
        match decode_record::<T, D>(&bytes[pos..]) {
            Ok((rec, consumed)) => {
                if rec.epoch != expect {
                    dropped = Some(format!(
                        "epoch gap at offset {pos}: expected {expect}, found {} \
                         ({} trailing bytes dropped)",
                        rec.epoch,
                        bytes.len() - pos
                    ));
                    break;
                }
                expect += 1;
                pos += consumed;
                records.push(rec);
            }
            Err(e) => {
                dropped = Some(format!(
                    "{e} at offset {pos} ({} trailing bytes dropped)",
                    bytes.len() - pos
                ));
                break;
            }
        }
    }
    Ok(WalSegment {
        base_epoch,
        records,
        dropped,
        valid_len: pos as u64,
    })
}

// ------------------------------------------------------------------ writer

/// Appends batch records to one segment file under an fsync policy.
pub struct WalWriter<T: WireCoord, const D: usize> {
    out: BufWriter<File>,
    path: PathBuf,
    policy: FsyncPolicy,
    /// Batches appended since the last fsync (for [`FsyncPolicy::EveryN`]).
    unsynced: u32,
    buf: Vec<u8>,
    _marker: std::marker::PhantomData<Point<T, D>>,
}

impl<T: WireCoord, const D: usize> WalWriter<T, D> {
    /// Create a fresh segment at `path` (truncating any stale file) with
    /// `base_epoch` as its checkpoint watermark, header written and synced.
    pub fn create(path: &Path, base_epoch: u64, policy: FsyncPolicy) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut out = BufWriter::new(file);
        out.write_all(&encode_header::<T, D>(base_epoch))?;
        out.flush()?;
        // The header must be durable before the first record can claim to
        // be: a crash between the two must leave a readable empty segment.
        out.get_ref().sync_all()?;
        Ok(WalWriter {
            out,
            path: path.to_path_buf(),
            policy,
            unsynced: 0,
            buf: Vec::new(),
            _marker: std::marker::PhantomData,
        })
    }

    /// Reopen an existing segment for appending, first truncating it to
    /// `valid_len` (the readable prefix [`read_segment`] reported) so a torn
    /// tail from a previous crash can never corrupt the records behind it.
    pub fn resume(path: &Path, valid_len: u64, policy: FsyncPolicy) -> std::io::Result<Self> {
        let mut file = OpenOptions::new().write(true).open(path)?;
        file.set_len(valid_len)?;
        file.sync_all()?;
        file.seek(std::io::SeekFrom::Start(valid_len))?;
        Ok(WalWriter {
            out: BufWriter::new(file),
            path: path.to_path_buf(),
            policy,
            unsynced: 0,
            buf: Vec::new(),
            _marker: std::marker::PhantomData,
        })
    }

    /// The segment file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one batch record and apply the fsync policy. When this
    /// returns under [`FsyncPolicy::EveryBatch`], the record is on stable
    /// storage.
    pub fn append(
        &mut self,
        epoch: u64,
        delete: &[Point<T, D>],
        insert: &[Point<T, D>],
    ) -> std::io::Result<()> {
        let t0 = std::time::Instant::now();
        self.buf.clear();
        encode_record(epoch, delete, insert, &mut self.buf);
        self.out.write_all(&self.buf)?;
        OBS_BYTES.add(self.buf.len() as u64);
        match self.policy {
            FsyncPolicy::EveryBatch => self.flush_and_sync()?,
            FsyncPolicy::EveryN(n) => {
                self.unsynced += 1;
                if self.unsynced >= n {
                    self.flush_and_sync()?;
                    self.unsynced = 0;
                }
            }
            FsyncPolicy::Os => self.out.flush()?,
        }
        OBS_APPEND.record_duration(t0.elapsed());
        Ok(())
    }

    /// Flush and fsync whatever is buffered (checkpoint fences call this
    /// before recording their watermark).
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.flush_and_sync()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Flush the buffer and push it to stable storage, timing the whole
    /// flush+fsync into the fsync histogram.
    fn flush_and_sync(&mut self) -> std::io::Result<()> {
        let t0 = std::time::Instant::now();
        self.out.flush()?;
        self.out.get_ref().sync_all()?;
        OBS_FSYNC.record_duration(t0.elapsed());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psi_geometry::PointI;

    fn rec(epoch: u64, del: &[i64], ins: &[i64]) -> WalRecord<i64, 2> {
        WalRecord {
            epoch,
            delete: del.iter().map(|&v| Point::new([v, v * 2])).collect(),
            insert: ins.iter().map(|&v| Point::new([v, -v])).collect(),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn record_round_trips() {
        let r = rec(7, &[1, 2, 3], &[9]);
        let mut buf = Vec::new();
        encode_record(r.epoch, &r.delete, &r.insert, &mut buf);
        let (got, consumed) = decode_record::<i64, 2>(&buf).unwrap();
        assert_eq!(consumed, buf.len());
        assert_eq!(got, r);
        // Two records back to back decode sequentially.
        let r2 = rec(8, &[], &[4, 5]);
        encode_record(r2.epoch, &r2.delete, &r2.insert, &mut buf);
        let (first, n1) = decode_record::<i64, 2>(&buf).unwrap();
        let (second, n2) = decode_record::<i64, 2>(&buf[n1..]).unwrap();
        assert_eq!(first, r);
        assert_eq!(second, r2);
        assert_eq!(n1 + n2, buf.len());
    }

    #[test]
    fn corruption_is_detected_never_panics() {
        let r = rec(3, &[10, 20], &[30]);
        let mut clean = Vec::new();
        encode_record(r.epoch, &r.delete, &r.insert, &mut clean);

        // Truncation at every cut point: torn, bad length, or bad crc —
        // never Ok with wrong contents, never a panic.
        for cut in 0..clean.len() {
            match decode_record::<i64, 2>(&clean[..cut]) {
                Ok(_) => panic!("truncated record decoded at cut {cut}"),
                Err(WalError::Truncated | WalError::BadLength(_) | WalError::BadCrc { .. }) => {}
                Err(e) => panic!("unexpected error at cut {cut}: {e}"),
            }
        }
        // Single-byte flips anywhere: either the length bound trips or the
        // CRC catches it (a flipped count byte changes the CRC too).
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_record::<i64, 2>(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
        // A hostile length prefix must be rejected before allocation.
        let mut huge = clean.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            decode_record::<i64, 2>(&huge),
            Err(WalError::BadLength(u32::MAX as usize))
        );
    }

    #[test]
    fn fsync_policy_parses_and_round_trips() {
        assert_eq!(
            FsyncPolicy::parse("every-batch"),
            Some(FsyncPolicy::EveryBatch)
        );
        assert_eq!(FsyncPolicy::parse("os"), Some(FsyncPolicy::Os));
        assert_eq!(FsyncPolicy::parse("every-8"), Some(FsyncPolicy::EveryN(8)));
        assert_eq!(FsyncPolicy::parse("every-0"), None);
        assert_eq!(FsyncPolicy::parse("every-"), None);
        assert_eq!(FsyncPolicy::parse("always"), None);
        for p in [
            FsyncPolicy::EveryBatch,
            FsyncPolicy::EveryN(3),
            FsyncPolicy::Os,
        ] {
            assert_eq!(FsyncPolicy::parse(&p.name()), Some(p));
        }
    }

    #[test]
    fn segment_write_read_resume() {
        let dir = std::env::temp_dir().join(format!("psi-wal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal-seg.log");

        let mut w = WalWriter::<i64, 2>::create(&path, 5, FsyncPolicy::EveryN(2)).unwrap();
        for e in 6..=9u64 {
            let r = rec(e, &[e as i64], &[e as i64 + 100]);
            w.append(e, &r.delete, &r.insert).unwrap();
        }
        w.sync().unwrap();
        drop(w);

        let seg = read_segment::<i64, 2>(&path).unwrap();
        assert_eq!(seg.base_epoch, 5);
        assert_eq!(seg.records.len(), 4);
        assert!(seg.dropped.is_none());
        assert_eq!(seg.records.last().unwrap().epoch, 9);

        // Tear the tail mid-record: the valid prefix survives, the tear is
        // reported, and resuming truncates it away.
        let full = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(full - 7).unwrap();
        drop(f);
        let seg = read_segment::<i64, 2>(&path).unwrap();
        assert_eq!(seg.records.len(), 3, "torn final record dropped");
        assert!(seg.dropped.is_some());

        let mut w =
            WalWriter::<i64, 2>::resume(&path, seg.valid_len, FsyncPolicy::EveryBatch).unwrap();
        let r = rec(9, &[], &[1]);
        w.append(9, &r.delete, &r.insert).unwrap();
        drop(w);
        let seg = read_segment::<i64, 2>(&path).unwrap();
        assert_eq!(seg.records.len(), 4);
        assert!(seg.dropped.is_none());
        assert_eq!(seg.records.last().unwrap(), &r);

        // An epoch gap ends the scan at the gap.
        let mut w = WalWriter::<i64, 2>::resume(&path, seg.valid_len, FsyncPolicy::Os).unwrap();
        w.append(42, &[], &[PointI::<2>::new([1, 1])]).unwrap();
        w.sync().unwrap();
        drop(w);
        let seg = read_segment::<i64, 2>(&path).unwrap();
        assert_eq!(seg.records.len(), 4);
        assert!(seg.dropped.unwrap().contains("epoch gap"));

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn alien_headers_are_rejected() {
        assert!(decode_header::<i64, 2>(&[0u8; 3]).is_err());
        let mut h = encode_header::<i64, 2>(0).to_vec();
        h[0] ^= 1; // wrong magic
        assert!(matches!(
            decode_header::<i64, 2>(&h),
            Err(WalError::BadHeader(_))
        ));
        let h = encode_header::<f64, 2>(0);
        assert!(
            decode_header::<i64, 2>(&h).is_err(),
            "tag mismatch must be rejected"
        );
        let h = encode_header::<i64, 3>(0);
        assert!(
            decode_header::<i64, 2>(&h).is_err(),
            "dims mismatch must be rejected"
        );
    }
}
