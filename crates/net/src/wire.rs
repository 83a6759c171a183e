//! The ψ-net wire protocol: compact length-prefixed binary frames.
//!
//! Every message — request or reply, either direction — is one **frame**:
//!
//! ```text
//! ┌────────────┬───────────┬────────────┬─────────────────────────┐
//! │ len: u32   │ op: u8    │ req_id: u64│ body (op-specific)      │
//! │ LE, counts │ opcode    │ LE, echoed │                         │
//! │ op..body   │           │ in replies │                         │
//! └────────────┴───────────┴────────────┴─────────────────────────┘
//! ```
//!
//! All integers are little-endian. Coordinates travel as 8 bytes each:
//! `i64::to_le_bytes` or `f64::to_bits().to_le_bytes()`, per the coordinate
//! tag negotiated in the hello exchange ([`WireCoord::TAG`]). A connection
//! starts with exactly one `Hello` request carrying the protocol magic,
//! version, coordinate tag and dimensionality; the server answers `HelloOk`
//! (echoing its shape) or an `Error` frame and closes. After that, requests
//! may be pipelined freely — `req_id` is echoed in the matching reply, and
//! replies to *query* ops may arrive in a different order than the requests
//! were sent (the coalescer groups by op kind).
//!
//! Reply opcodes are the request opcode with the high bit set
//! ([`REPLY_BIT`]); [`OP_ERROR`] is the one reply that answers anything.
//! A frame whose declared length exceeds [`MAX_FRAME`] is rejected before
//! any allocation — the length prefix is attacker-controlled input, and a
//! 4 GiB "frame" must cost nothing.
//!
//! Encoding appends to a caller-owned `Vec<u8>` (reuse it across frames —
//! steady-state encoding allocates only when a reply outgrows the buffer)
//! and decoding borrows from the connection's read buffer; only the decoded
//! point vectors themselves are materialised.

use psi_geometry::{Point, Rect};

/// First bytes of every connection: `b"PSIN"` read as a little-endian u32.
pub const MAGIC: u32 = u32::from_le_bytes(*b"PSIN");
/// Protocol version this build speaks. Version 2 added the optional
/// "as of epoch" tag on query frames (a presence byte + u64 after the
/// operation's body) and the [`ERR_EPOCH`] error code.
pub const VERSION: u16 = 2;
/// Hard cap on the length prefix (16 MiB). Larger frames are a protocol
/// error; the limit bounds per-connection memory against hostile prefixes.
pub const MAX_FRAME: usize = 1 << 24;
/// Bytes of the length prefix.
pub const LEN_PREFIX: usize = 4;
/// Bytes of opcode + req_id that every payload starts with.
pub const PAYLOAD_HEADER: usize = 9;

/// Request opcodes.
pub const OP_HELLO: u8 = 0x01;
pub const OP_KNN: u8 = 0x10;
pub const OP_RANGE_COUNT: u8 = 0x11;
pub const OP_RANGE_LIST: u8 = 0x12;
pub const OP_EPOCH_BOUNDS: u8 = 0x13;
pub const OP_STATS: u8 = 0x14;
pub const OP_APPLY_BATCH: u8 = 0x20;
/// Set on a request opcode to form its success-reply opcode.
pub const REPLY_BIT: u8 = 0x80;
/// The error reply opcode (answers any request; closes the connection).
pub const OP_ERROR: u8 = 0xFF;

/// Error codes carried by [`Reply::Error`] frames.
pub const ERR_MAGIC: u16 = 1;
pub const ERR_VERSION: u16 = 2;
pub const ERR_SHAPE: u16 = 3;
pub const ERR_OPCODE: u16 = 4;
pub const ERR_MALFORMED: u16 = 5;
pub const ERR_TOO_LARGE: u16 = 6;
pub const ERR_HELLO_FIRST: u16 = 7;
pub const ERR_BUSY: u16 = 8;
/// The requested epoch is outside the server's retained history window.
/// Per-request failure — the connection stays open.
pub const ERR_EPOCH: u16 = 9;

/// Coordinate types that travel on the wire: 8 bytes little-endian each,
/// tagged so both ends agree on the interpretation during hello. The codec
/// itself lives in `psi-geometry` (re-exported here) so the server's WAL and
/// checkpoint formats serialize points with the same bit-exact contract.
pub use psi_geometry::WireCoord;

/// A decoded request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request<T: WireCoord, const D: usize> {
    /// Connection opener: magic + version + coordinate tag + dims.
    Hello { version: u16, coord: u8, dims: u8 },
    /// `k` nearest neighbours of a query point; `at` pins the answer to a
    /// retained global epoch (time travel), `None` means "current".
    Knn {
        q: Point<T, D>,
        k: u32,
        at: Option<u64>,
    },
    /// Number of stored points in the closed box (as of `at`, if given).
    RangeCount { rect: Rect<T, D>, at: Option<u64> },
    /// The stored points in the closed box (as of `at`, if given).
    RangeList { rect: Rect<T, D>, at: Option<u64> },
    /// The retained time-travel window: which epochs `at` may name. No body.
    EpochBounds,
    /// A live metrics snapshot of the serving process. No body.
    Stats,
    /// One update batch: deletions applied before insertions.
    ApplyBatch {
        delete: Vec<Point<T, D>>,
        insert: Vec<Point<T, D>>,
    },
}

impl<T: WireCoord, const D: usize> Request<T, D> {
    /// The request's wire opcode.
    pub fn opcode(&self) -> u8 {
        match self {
            Request::Hello { .. } => OP_HELLO,
            Request::Knn { .. } => OP_KNN,
            Request::RangeCount { .. } => OP_RANGE_COUNT,
            Request::RangeList { .. } => OP_RANGE_LIST,
            Request::EpochBounds => OP_EPOCH_BOUNDS,
            Request::Stats => OP_STATS,
            Request::ApplyBatch { .. } => OP_APPLY_BATCH,
        }
    }

    /// The canonical hello for this coordinate type and dimensionality.
    pub fn hello() -> Self {
        Request::Hello {
            version: VERSION,
            coord: T::TAG,
            dims: D as u8,
        }
    }
}

/// A decoded reply frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply<T: WireCoord, const D: usize> {
    /// Successful hello: the server's version, shape and shard count.
    HelloOk {
        version: u16,
        coord: u8,
        dims: u8,
        shards: u32,
    },
    /// kNN / range-list answer.
    Points(Vec<Point<T, D>>),
    /// Range-count answer.
    Count(u64),
    /// Epoch-bounds answer: `Some((oldest, newest))` retained epochs, or
    /// `None` when the server keeps no history (history disabled).
    EpochBounds(Option<(u64, u64)>),
    /// Batch accepted (enqueued to the writer; publication is asynchronous).
    BatchOk,
    /// Metrics snapshot: a schema version tag plus the Prometheus-style
    /// text rendering of every registered metric (see `psi_obs::expose`).
    Stats { version: u32, text: String },
    /// Typed failure. The server closes the connection after protocol
    /// errors; [`ERR_BUSY`] is the one retryable code.
    Error { code: u16, message: String },
}

/// Why a frame failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Declared length exceeds [`MAX_FRAME`] (or undershoots the header).
    BadLength(usize),
    /// Opcode not part of the protocol (in this direction).
    UnknownOpcode(u8),
    /// Payload shape disagrees with the opcode.
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadLength(n) => write!(f, "frame length {n} out of bounds"),
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// The error-frame code a server reports this failure as.
    pub fn code(&self) -> u16 {
        match self {
            WireError::BadLength(_) => ERR_TOO_LARGE,
            WireError::UnknownOpcode(_) => ERR_OPCODE,
            WireError::Malformed(_) => ERR_MALFORMED,
        }
    }
}

// ---------------------------------------------------------------- encoding

fn begin_frame(out: &mut Vec<u8>, opcode: u8, req_id: u64) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0u8; LEN_PREFIX]);
    out.push(opcode);
    out.extend_from_slice(&req_id.to_le_bytes());
    at
}

/// Backpatch the length prefix, enforcing [`MAX_FRAME`] on the *encode*
/// side: a frame the peer would reject as `BadLength` must never leave this
/// process (and a > 4 GiB body must not silently wrap the u32 prefix). On
/// failure the partial frame is rolled back, leaving `out` exactly as it was
/// before `begin_frame` — safe to reuse for the next message.
fn end_frame(out: &mut Vec<u8>, at: usize) -> Result<(), WireError> {
    let len = out.len() - at - LEN_PREFIX;
    if len > MAX_FRAME {
        out.truncate(at);
        return Err(WireError::BadLength(len));
    }
    out[at..at + LEN_PREFIX].copy_from_slice(&(len as u32).to_le_bytes());
    Ok(())
}

fn put_at(out: &mut Vec<u8>, at: &Option<u64>) {
    match at {
        Some(e) => {
            out.push(1);
            out.extend_from_slice(&e.to_le_bytes());
        }
        None => out.push(0),
    }
}

fn put_point<T: WireCoord, const D: usize>(out: &mut Vec<u8>, p: &Point<T, D>) {
    for c in p.coords {
        out.extend_from_slice(&c.to_wire());
    }
}

fn put_points<T: WireCoord, const D: usize>(out: &mut Vec<u8>, pts: &[Point<T, D>]) {
    out.reserve(pts.len() * D * 8);
    for p in pts {
        put_point(out, p);
    }
}

/// Append one encoded request frame to `out` (reusable across calls).
/// Fails — rolling `out` back to its previous length — when the body would
/// exceed [`MAX_FRAME`] (e.g. an `ApplyBatch` over ~16 MiB of points must
/// be chunked by the caller, not sent as a frame the peer will reject).
pub fn encode_request<T: WireCoord, const D: usize>(
    req: &Request<T, D>,
    req_id: u64,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let at = begin_frame(out, req.opcode(), req_id);
    match req {
        Request::Hello {
            version,
            coord,
            dims,
        } => {
            out.extend_from_slice(&MAGIC.to_le_bytes());
            out.extend_from_slice(&version.to_le_bytes());
            out.push(*coord);
            out.push(*dims);
        }
        Request::Knn { q, k, at: epoch } => {
            out.extend_from_slice(&k.to_le_bytes());
            put_point(out, q);
            put_at(out, epoch);
        }
        Request::RangeCount { rect, at: epoch } | Request::RangeList { rect, at: epoch } => {
            put_point(out, &rect.lo);
            put_point(out, &rect.hi);
            put_at(out, epoch);
        }
        Request::EpochBounds | Request::Stats => {}
        Request::ApplyBatch { delete, insert } => {
            out.extend_from_slice(&(delete.len() as u32).to_le_bytes());
            out.extend_from_slice(&(insert.len() as u32).to_le_bytes());
            put_points(out, delete);
            put_points(out, insert);
        }
    }
    end_frame(out, at)
}

/// Append one encoded reply frame to `out`. `reply_to` is the opcode of the
/// request being answered (success replies mirror it with [`REPLY_BIT`]
/// set; error replies always carry [`OP_ERROR`]). Fails — rolling `out`
/// back — when the reply body would exceed [`MAX_FRAME`] (a range-list
/// answer can outgrow the frame cap even when every request fit).
pub fn encode_reply<T: WireCoord, const D: usize>(
    reply: &Reply<T, D>,
    reply_to: u8,
    req_id: u64,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let opcode = match reply {
        Reply::Error { .. } => OP_ERROR,
        _ => reply_to | REPLY_BIT,
    };
    let at = begin_frame(out, opcode, req_id);
    match reply {
        Reply::HelloOk {
            version,
            coord,
            dims,
            shards,
        } => {
            out.extend_from_slice(&version.to_le_bytes());
            out.push(*coord);
            out.push(*dims);
            out.extend_from_slice(&shards.to_le_bytes());
        }
        Reply::Points(pts) => {
            out.extend_from_slice(&(pts.len() as u32).to_le_bytes());
            put_points(out, pts);
        }
        Reply::Count(c) => out.extend_from_slice(&c.to_le_bytes()),
        Reply::EpochBounds(bounds) => match bounds {
            Some((lo, hi)) => {
                out.push(1);
                out.extend_from_slice(&lo.to_le_bytes());
                out.extend_from_slice(&hi.to_le_bytes());
            }
            None => out.push(0),
        },
        Reply::BatchOk => {}
        Reply::Stats { version, text } => {
            out.extend_from_slice(&version.to_le_bytes());
            out.extend_from_slice(text.as_bytes());
        }
        Reply::Error { code, message } => {
            out.extend_from_slice(&code.to_le_bytes());
            out.extend_from_slice(message.as_bytes());
        }
    }
    end_frame(out, at)
}

// ---------------------------------------------------------------- decoding

/// Inspect the start of `buf` for one complete frame. Returns the total
/// frame size (prefix included) once enough bytes have arrived, `None` while
/// the frame is still incomplete, or an error for an out-of-bounds length
/// prefix — detected from the prefix alone, before buffering the body.
pub fn frame_size(buf: &[u8]) -> Result<Option<usize>, WireError> {
    if buf.len() < LEN_PREFIX {
        return Ok(None);
    }
    let len = u32::from_le_bytes(buf[..LEN_PREFIX].try_into().expect("4 bytes")) as usize;
    if !(PAYLOAD_HEADER..=MAX_FRAME).contains(&len) {
        return Err(WireError::BadLength(len));
    }
    if buf.len() < LEN_PREFIX + len {
        return Ok(None);
    }
    Ok(Some(LEN_PREFIX + len))
}

/// Little-endian reader over one frame payload.
struct Rd<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Rd<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Rd { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or(WireError::Malformed("payload shorter than declared"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn point<T: WireCoord, const D: usize>(&mut self) -> Result<Point<T, D>, WireError> {
        let mut coords = [T::ZERO; D];
        for c in coords.iter_mut() {
            *c = T::from_wire(self.take(8)?.try_into().unwrap());
        }
        Ok(Point::new(coords))
    }

    fn points<T: WireCoord, const D: usize>(
        &mut self,
        n: usize,
    ) -> Result<Vec<Point<T, D>>, WireError> {
        // The count field must be consistent with the bytes that actually
        // arrived — reserve only what the frame can hold, so a hostile
        // count cannot force a huge allocation before `take` fails.
        if n.checked_mul(D * 8)
            .is_none_or(|bytes| self.pos + bytes > self.buf.len())
        {
            return Err(WireError::Malformed("point count exceeds payload"));
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.point()?);
        }
        Ok(out)
    }

    fn rect<T: WireCoord, const D: usize>(&mut self) -> Result<Rect<T, D>, WireError> {
        let lo = self.point()?;
        let hi = self.point()?;
        Ok(Rect::from_corners(lo, hi))
    }

    /// The optional "as of epoch" tag: presence byte, then u64 if present.
    fn at(&mut self) -> Result<Option<u64>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(WireError::Malformed("bad epoch presence byte")),
        }
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

/// Decode one request payload (a complete frame minus its length prefix, as
/// delimited by [`frame_size`]). Returns the echoed request id alongside.
pub fn decode_request<T: WireCoord, const D: usize>(
    payload: &[u8],
) -> Result<(u64, Request<T, D>), WireError> {
    let mut rd = Rd::new(payload);
    let opcode = rd.u8()?;
    let req_id = rd.u64()?;
    let req = match opcode {
        OP_HELLO => {
            let magic = rd.u32()?;
            if magic != MAGIC {
                return Err(WireError::Malformed("bad magic"));
            }
            Request::Hello {
                version: rd.u16()?,
                coord: rd.u8()?,
                dims: rd.u8()?,
            }
        }
        OP_KNN => Request::Knn {
            k: rd.u32()?,
            q: rd.point()?,
            at: rd.at()?,
        },
        OP_RANGE_COUNT => Request::RangeCount {
            rect: rd.rect()?,
            at: rd.at()?,
        },
        OP_RANGE_LIST => Request::RangeList {
            rect: rd.rect()?,
            at: rd.at()?,
        },
        OP_EPOCH_BOUNDS => Request::EpochBounds,
        OP_STATS => Request::Stats,
        OP_APPLY_BATCH => {
            let n_del = rd.u32()? as usize;
            let n_ins = rd.u32()? as usize;
            Request::ApplyBatch {
                delete: rd.points(n_del)?,
                insert: rd.points(n_ins)?,
            }
        }
        other => return Err(WireError::UnknownOpcode(other)),
    };
    rd.finish()?;
    Ok((req_id, req))
}

/// Decode one reply payload. `Points` answers both kNN and range-list; the
/// request id tells the client which question this answers.
pub fn decode_reply<T: WireCoord, const D: usize>(
    payload: &[u8],
) -> Result<(u64, Reply<T, D>), WireError> {
    let mut rd = Rd::new(payload);
    let opcode = rd.u8()?;
    let req_id = rd.u64()?;
    let reply = match opcode {
        op if op == OP_HELLO | REPLY_BIT => Reply::HelloOk {
            version: rd.u16()?,
            coord: rd.u8()?,
            dims: rd.u8()?,
            shards: rd.u32()?,
        },
        op if op == OP_KNN | REPLY_BIT || op == OP_RANGE_LIST | REPLY_BIT => {
            let n = rd.u32()? as usize;
            Reply::Points(rd.points(n)?)
        }
        op if op == OP_RANGE_COUNT | REPLY_BIT => Reply::Count(rd.u64()?),
        op if op == OP_EPOCH_BOUNDS | REPLY_BIT => match rd.u8()? {
            0 => Reply::EpochBounds(None),
            1 => Reply::EpochBounds(Some((rd.u64()?, rd.u64()?))),
            _ => return Err(WireError::Malformed("bad epoch-bounds presence byte")),
        },
        op if op == OP_APPLY_BATCH | REPLY_BIT => Reply::BatchOk,
        op if op == OP_STATS | REPLY_BIT => {
            let version = rd.u32()?;
            let text = String::from_utf8_lossy(rd.take(payload.len() - rd.pos)?).into_owned();
            Reply::Stats { version, text }
        }
        OP_ERROR => {
            let code = rd.u16()?;
            let message = String::from_utf8_lossy(rd.take(payload.len() - rd.pos)?).into_owned();
            Reply::Error { code, message }
        }
        other => return Err(WireError::UnknownOpcode(other)),
    };
    rd.finish()?;
    Ok((req_id, reply))
}

/// Blocking frame reader (the client side's, and tests'): read exactly
/// one frame payload (opcode + req_id + body, prefix stripped) into `buf`.
/// Returns `Ok(false)` on a clean EOF at a frame boundary; mid-frame EOF
/// surfaces as `UnexpectedEof` and an out-of-bounds length prefix as
/// `InvalidData` wrapping the [`WireError`].
pub fn read_frame<R: std::io::Read>(r: &mut R, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    let mut prefix = [0u8; LEN_PREFIX];
    // Read the first byte separately so EOF between frames is a clean close,
    // not an error.
    loop {
        match r.read(&mut prefix[..1]) {
            Ok(0) => return Ok(false),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    r.read_exact(&mut prefix[1..])?;
    let len = u32::from_le_bytes(prefix) as usize;
    if !(PAYLOAD_HEADER..=MAX_FRAME).contains(&len) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            WireError::BadLength(len),
        ));
    }
    buf.clear();
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

/// Validate a client hello against this server's shape. `Ok` carries the
/// `HelloOk` to send back; `Err` carries the error reply (send, then close).
pub fn check_hello<T: WireCoord, const D: usize>(
    req: &Request<T, D>,
    shards: u32,
) -> Result<Reply<T, D>, Reply<T, D>> {
    let Request::Hello {
        version,
        coord,
        dims,
    } = req
    else {
        return Err(Reply::Error {
            code: ERR_HELLO_FIRST,
            message: "first frame must be hello".to_string(),
        });
    };
    if *version != VERSION {
        return Err(Reply::Error {
            code: ERR_VERSION,
            message: format!("server speaks version {VERSION}, client sent {version}"),
        });
    }
    if *coord != T::TAG || *dims != D as u8 {
        return Err(Reply::Error {
            code: ERR_SHAPE,
            message: format!(
                "server serves coord tag {} in {}-d, client asked for tag {coord} in {dims}-d",
                T::TAG,
                D
            ),
        });
    }
    Ok(Reply::HelloOk {
        version: VERSION,
        coord: T::TAG,
        dims: D as u8,
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request<T: WireCoord, const D: usize>(req: Request<T, D>, id: u64) {
        let mut buf = Vec::new();
        encode_request(&req, id, &mut buf).unwrap();
        let total = frame_size(&buf).unwrap().expect("complete frame");
        assert_eq!(total, buf.len());
        let (got_id, got) = decode_request::<T, D>(&buf[LEN_PREFIX..total]).unwrap();
        assert_eq!(got_id, id);
        assert_eq!(got, req);
    }

    fn round_trip_reply<T: WireCoord, const D: usize>(reply: Reply<T, D>, to: u8, id: u64) {
        let mut buf = Vec::new();
        encode_reply(&reply, to, id, &mut buf).unwrap();
        let total = frame_size(&buf).unwrap().expect("complete frame");
        assert_eq!(total, buf.len());
        let (got_id, got) = decode_reply::<T, D>(&buf[LEN_PREFIX..total]).unwrap();
        assert_eq!(got_id, id);
        assert_eq!(got, reply);
    }

    #[test]
    fn basic_round_trips() {
        round_trip_request(Request::<i64, 2>::hello(), 0);
        round_trip_request(
            Request::Knn {
                q: Point::new([-5i64, i64::MAX]),
                k: 17,
                at: None,
            },
            9,
        );
        round_trip_request(
            Request::Knn {
                q: Point::new([1i64, 2]),
                k: 3,
                at: Some(u64::MAX),
            },
            10,
        );
        round_trip_request(
            Request::RangeCount {
                rect: Rect::from_corners(Point::new([0.5f64, -1.0]), Point::new([2.0, 3.5])),
                at: None,
            },
            1,
        );
        round_trip_request(
            Request::RangeList {
                rect: Rect::from_corners(Point::new([0i64, 0]), Point::new([9, 9])),
                at: Some(42),
            },
            2,
        );
        round_trip_request(
            Request::ApplyBatch {
                delete: vec![Point::new([1i64, 2, 3])],
                insert: vec![Point::new([4, 5, 6]), Point::new([7, 8, 9])],
            },
            u64::MAX,
        );
        round_trip_reply(Reply::<i64, 2>::Count(12345), OP_RANGE_COUNT, 3);
        round_trip_reply(
            Reply::<f64, 3>::Points(vec![Point::new([0.0, -0.0, f64::MIN_POSITIVE])]),
            OP_KNN,
            4,
        );
        round_trip_request(Request::<i64, 2>::EpochBounds, 11);
        round_trip_request(Request::<i64, 2>::Stats, 14);
        round_trip_reply(
            Reply::<i64, 2>::Stats {
                version: 1,
                text: "psi_net_frames_in_total{op=\"knn\"} 7\n".to_string(),
            },
            OP_STATS,
            14,
        );
        round_trip_reply(
            Reply::<i64, 2>::EpochBounds(Some((3, 17))),
            OP_EPOCH_BOUNDS,
            12,
        );
        round_trip_reply(Reply::<i64, 2>::EpochBounds(None), OP_EPOCH_BOUNDS, 13);
        round_trip_reply(Reply::<i64, 2>::BatchOk, OP_APPLY_BATCH, 5);
        round_trip_reply(
            Reply::<i64, 2>::Error {
                code: ERR_BUSY,
                message: "writer queue full".to_string(),
            },
            OP_APPLY_BATCH,
            6,
        );
    }

    #[test]
    fn partial_frames_wait_and_oversized_prefixes_reject() {
        let mut buf = Vec::new();
        encode_request(&Request::<i64, 2>::hello(), 7, &mut buf).unwrap();
        for cut in 0..buf.len() {
            assert_eq!(frame_size(&buf[..cut]).unwrap(), None, "cut at {cut}");
        }
        // A length prefix beyond MAX_FRAME fails from the prefix alone.
        let huge = (MAX_FRAME as u32 + 1).to_le_bytes();
        assert_eq!(frame_size(&huge), Err(WireError::BadLength(MAX_FRAME + 1)));
        // ...and one shorter than the payload header is equally invalid.
        assert!(matches!(
            frame_size(&4u32.to_le_bytes()),
            Err(WireError::BadLength(4))
        ));
    }

    #[test]
    fn oversized_bodies_fail_to_encode_and_roll_back() {
        // A batch bigger than MAX_FRAME must be refused on the encode side
        // (the peer would reject it as BadLength), leaving the buffer
        // untouched — including any frames already queued in it.
        let too_many = MAX_FRAME / 16 + 1; // 2-d i64 points: 16 bytes each
        let big = vec![Point::new([7i64, 7]); too_many];
        let mut buf = Vec::new();
        encode_request(&Request::<i64, 2>::hello(), 1, &mut buf).unwrap();
        let queued = buf.len();
        let err = encode_request(
            &Request::ApplyBatch {
                delete: Vec::new(),
                insert: big.clone(),
            },
            2,
            &mut buf,
        )
        .unwrap_err();
        assert!(matches!(err, WireError::BadLength(n) if n > MAX_FRAME));
        assert_eq!(buf.len(), queued, "failed encode must roll back");
        // The surviving prefix is still exactly the queued hello frame.
        assert_eq!(frame_size(&buf).unwrap(), Some(queued));

        // Same guard on the reply side (a range-list answer can outgrow the
        // cap even when the request fit).
        let err =
            encode_reply(&Reply::<i64, 2>::Points(big), OP_RANGE_LIST, 3, &mut buf).unwrap_err();
        assert!(matches!(err, WireError::BadLength(n) if n > MAX_FRAME));
        assert_eq!(buf.len(), queued);

        // A body just under the cap still encodes and round-trips.
        let fits = vec![Point::new([1i64, 2]); 1_000];
        round_trip_request(
            Request::ApplyBatch {
                delete: fits.clone(),
                insert: fits,
            },
            4,
        );
    }

    #[test]
    fn malformed_payloads_reject() {
        // Unknown opcode.
        let mut buf = vec![0x42u8];
        buf.extend_from_slice(&1u64.to_le_bytes());
        assert_eq!(
            decode_request::<i64, 2>(&buf),
            Err(WireError::UnknownOpcode(0x42))
        );
        // Truncated kNN body.
        let mut buf = vec![OP_KNN];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&5u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 7]); // 7 of 16 coord bytes
        assert!(matches!(
            decode_request::<i64, 2>(&buf),
            Err(WireError::Malformed(_))
        ));
        // Batch count pointing past the payload: must fail without a huge
        // up-front allocation.
        let mut buf = vec![OP_APPLY_BATCH];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            decode_request::<i64, 2>(&buf),
            Err(WireError::Malformed(_))
        ));
        // Trailing garbage after a valid body.
        let mut buf = Vec::new();
        encode_request(
            &Request::<i64, 2>::Knn {
                q: Point::new([1, 2]),
                k: 3,
                at: None,
            },
            1,
            &mut buf,
        )
        .unwrap();
        buf.push(0xAB);
        let padded = (buf.len() - LEN_PREFIX) as u32;
        buf[..LEN_PREFIX].copy_from_slice(&padded.to_le_bytes());
        assert!(matches!(
            decode_request::<i64, 2>(&buf[LEN_PREFIX..]),
            Err(WireError::Malformed(_))
        ));
        // Epoch presence byte that is neither 0 nor 1.
        let mut buf = vec![OP_KNN];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&3u32.to_le_bytes());
        buf.extend_from_slice(&[0u8; 16]); // the 2-d point
        buf.push(7); // bad presence byte
        assert_eq!(
            decode_request::<i64, 2>(&buf),
            Err(WireError::Malformed("bad epoch presence byte"))
        );
        // Wrong magic in hello.
        let mut buf = vec![OP_HELLO];
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&[0, 2]);
        assert!(matches!(
            decode_request::<i64, 2>(&buf),
            Err(WireError::Malformed("bad magic"))
        ));
    }

    #[test]
    fn hello_negotiation() {
        let ok = check_hello::<i64, 2>(&Request::hello(), 4).unwrap();
        assert_eq!(
            ok,
            Reply::HelloOk {
                version: VERSION,
                coord: 0,
                dims: 2,
                shards: 4
            }
        );
        let bad_version = Request::<i64, 2>::Hello {
            version: VERSION + 1,
            coord: 0,
            dims: 2,
        };
        let Err(Reply::Error { code, .. }) = check_hello(&bad_version, 1) else {
            panic!("version mismatch must be rejected");
        };
        assert_eq!(code, ERR_VERSION);
        let bad_shape = Request::<i64, 2>::Hello {
            version: VERSION,
            coord: 1,
            dims: 3,
        };
        let Err(Reply::Error { code, .. }) = check_hello(&bad_shape, 1) else {
            panic!("shape mismatch must be rejected");
        };
        assert_eq!(code, ERR_SHAPE);
        let not_hello = Request::<i64, 2>::Knn {
            q: Point::new([0, 0]),
            k: 1,
            at: None,
        };
        let Err(Reply::Error { code, .. }) = check_hello(&not_hello, 1) else {
            panic!("non-hello first frame must be rejected");
        };
        assert_eq!(code, ERR_HELLO_FIRST);
    }
}
