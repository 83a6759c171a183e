//! The socket front-end: one reactor thread multiplexing every connection
//! over epoll, with a per-connection read/write buffer state machine and
//! one request dispatcher ([`Reactor::handle_request`]).
//!
//! The reactor never blocks on anything but `epoll_wait`:
//!
//! * **reads** drain the socket into the connection's read buffer, then peel
//!   complete frames off it (`wire::frame_size`); partial frames simply stay
//!   buffered until more bytes arrive,
//! * **query frames** are enqueued to the coalescer with a *callback*
//!   completion ([`psi_server::Completion::Callback`]) — the flusher thread
//!   encodes the reply, drops it into the shared outbox, and kicks the
//!   reactor through a wakeup socketpair; the reactor routes the bytes to
//!   the connection's write buffer on its next iteration,
//! * **writes** flush the write buffer until the socket would block, arming
//!   `EPOLLOUT` only while bytes remain (level-triggered, so interest must
//!   be explicit or the loop would spin).
//!
//! A connection stops reading when its client half-closes or sends a frame
//! that poisons it (answered with one error frame). It then stays open,
//! with no read interest, until every reply it owes — queued in its write
//! buffer or still in flight at the coalescer — has been written.
//!
//! Connections live in a slab indexed by the epoll token. Each slot carries
//! a **generation** that bumps on close: a coalescer callback for a
//! connection that died mid-flight delivers into the outbox tagged with the
//! old generation and is discarded on arrival, never mis-delivered to a
//! reused slot. This is what makes abrupt client disconnects (including the
//! malformed-input tests' mid-frame drops) leak-free: the flusher still
//! answers every queued request; the answers for dead connections just fall
//! on the floor.

use crate::epoll::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::obs::{net_obs, op_name};
use crate::wire::{
    check_hello, decode_request, encode_reply, frame_size, Reply, Request, WireCoord, WireError,
    ERR_BUSY, ERR_EPOCH, ERR_TOO_LARGE, LEN_PREFIX,
};
use crate::{Ctx, NetStats};
use psi_server::{Completion, QueryOp, QueryReply, ServeCoord};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const LISTENER_TOKEN: u64 = u64::MAX;
const WAKE_TOKEN: u64 = u64::MAX - 1;
/// Events decoded per `epoll_wait`.
const EVENT_BATCH: usize = 1024;
/// Socket read chunk.
const READ_CHUNK: usize = 64 * 1024;
/// A connection whose client stops reading gets this much buffered reply
/// before the reactor gives up on it.
const MAX_WBUF: usize = 1 << 26;

/// Replies encoded off-thread (by coalescer callbacks), awaiting routing
/// into their connection's write buffer: `(slot, generation, frame bytes)`.
type Outbox = Arc<Mutex<Vec<(usize, u64, Vec<u8>)>>>;
const OUTBOX_POISONED: &str = "outbox mutex poisoned: a coalescer callback panicked";

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Flushed-up-to offset into `wbuf`.
    wpos: usize,
    hello_done: bool,
    /// No more requests will be read (the client half-closed, or an error
    /// frame is queued): close once `wbuf` drains and `inflight` is 0.
    closing: bool,
    /// Queries submitted to the coalescer whose replies have not yet been
    /// routed into `wbuf`.
    inflight: usize,
    /// Current epoll interest mask.
    interest: u32,
}

struct Reactor<T: ServeCoord + WireCoord, const D: usize> {
    epoll: Epoll,
    ctx: Ctx<T, D>,
    stats: Arc<NetStats>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Per-slot generation, bumped on close; outlives the slot's occupants.
    gens: Vec<u64>,
    outbox: Outbox,
    wake_tx: Arc<UnixStream>,
}

/// Reactor entry point: runs until `stop`, then drops every connection.
pub(crate) fn run_evented<T: ServeCoord + WireCoord, const D: usize>(
    listener: TcpListener,
    ctx: Ctx<T, D>,
    stop: Arc<AtomicBool>,
    stats: Arc<NetStats>,
    wake_rx: UnixStream,
    wake_tx: UnixStream,
) {
    listener
        .set_nonblocking(true)
        .expect("listener nonblocking");
    wake_rx
        .set_nonblocking(true)
        .expect("wake socket nonblocking");
    let epoll = Epoll::new().expect("epoll_create1");
    epoll
        .add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)
        .expect("register listener");
    epoll
        .add(wake_rx.as_raw_fd(), EPOLLIN, WAKE_TOKEN)
        .expect("register wakeup");

    let mut r = Reactor {
        epoll,
        ctx,
        stats,
        conns: Vec::new(),
        free: Vec::new(),
        gens: Vec::new(),
        outbox: Arc::new(Mutex::new(Vec::new())),
        wake_tx: Arc::new(wake_tx),
    };
    let mut events = vec![EpollEvent { events: 0, data: 0 }; EVENT_BATCH];

    while !stop.load(Ordering::Relaxed) {
        let n = match r.epoll.wait(&mut events, 100) {
            Ok(n) => n,
            Err(_) => break,
        };
        for ev in &events[..n] {
            let (mask, token) = (ev.events, ev.data);
            match token {
                LISTENER_TOKEN => r.accept_ready(&listener),
                WAKE_TOKEN => {
                    drain_wake(&wake_rx);
                    r.drain_outbox();
                }
                slot => {
                    let idx = slot as usize;
                    if r.conns.get(idx).is_none_or(|c| c.is_none()) {
                        continue; // closed earlier in this same event batch
                    }
                    if mask & (EPOLLERR | EPOLLHUP) != 0 {
                        r.close(idx);
                        continue;
                    }
                    if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
                        r.read_ready(idx);
                    }
                    if mask & EPOLLOUT != 0 && r.conns[idx].is_some() {
                        r.flush(idx);
                    }
                }
            }
        }
    }

    for idx in 0..r.conns.len() {
        if r.conns[idx].is_some() {
            r.close(idx);
        }
    }
}

fn drain_wake(wake_rx: &UnixStream) {
    let mut sink = [0u8; 256];
    loop {
        match (&*wake_rx).read(&mut sink) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return, // WouldBlock: fully drained
        }
    }
}

impl<T: ServeCoord + WireCoord, const D: usize> Reactor<T, D> {
    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            let stream = match listener.accept() {
                Ok((s, _)) => s,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return, // transient (ECONNABORTED, EMFILE): retry on next readiness
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let idx = match self.free.pop() {
                Some(i) => i,
                None => {
                    self.conns.push(None);
                    self.gens.push(0);
                    self.conns.len() - 1
                }
            };
            let interest = EPOLLIN | EPOLLRDHUP;
            if self
                .epoll
                .add(stream.as_raw_fd(), interest, idx as u64)
                .is_err()
            {
                self.free.push(idx);
                continue;
            }
            self.conns[idx] = Some(Conn {
                stream,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                wpos: 0,
                hello_done: false,
                closing: false,
                inflight: 0,
                interest,
            });
            self.stats.accepted.fetch_add(1, Ordering::Relaxed);
            self.stats.open.fetch_add(1, Ordering::Relaxed);
            net_obs().open.inc();
        }
    }

    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].take() {
            self.epoll.delete(conn.stream.as_raw_fd());
            self.gens[idx] += 1; // invalidate in-flight callbacks
            self.free.push(idx);
            self.stats.open.fetch_sub(1, Ordering::Relaxed);
            net_obs().open.dec();
        }
    }

    /// Route off-thread-encoded replies into their connections' write
    /// buffers, discarding any whose connection died (generation mismatch).
    fn drain_outbox(&mut self) {
        let ready = std::mem::take(&mut *self.outbox.lock().expect(OUTBOX_POISONED));
        let mut touched: Vec<usize> = Vec::new();
        for (idx, gen, bytes) in ready {
            if self.gens.get(idx) != Some(&gen) {
                continue;
            }
            if let Some(conn) = self.conns[idx].as_mut() {
                conn.inflight -= 1;
                conn.wbuf.extend_from_slice(&bytes);
                if !touched.contains(&idx) {
                    touched.push(idx);
                }
            }
        }
        for idx in touched {
            self.flush(idx);
        }
    }

    fn read_ready(&mut self, idx: usize) {
        let mut chunk = [0u8; READ_CHUNK];
        let mut eof = false;
        {
            let conn = self.conns[idx].as_mut().expect("read on live conn");
            debug_assert!(!conn.closing, "a closing connection has no read interest");
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        eof = true;
                        break;
                    }
                    Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => return self.close(idx),
                }
            }
        }

        // Peel complete frames into owned requests, then handle them with
        // the connection borrow released (handlers write into `wbuf` and
        // enqueue to the coalescer). Each frame's decode instant rides along
        // so request latency covers decode to reply hand-off.
        let mut parsed: Vec<(u64, Request<T, D>, Instant)> = Vec::new();
        let mut poison: Option<WireError> = None;
        {
            let conn = self.conns[idx].as_mut().expect("parse on live conn");
            let mut pos = 0;
            loop {
                match frame_size(&conn.rbuf[pos..]) {
                    Ok(Some(total)) => {
                        match decode_request::<T, D>(&conn.rbuf[pos + LEN_PREFIX..pos + total]) {
                            Ok((req_id, req)) => {
                                net_obs().frame_in(req.opcode());
                                parsed.push((req_id, req, Instant::now()));
                            }
                            Err(e) => {
                                poison = Some(e);
                                break;
                            }
                        }
                        pos += total;
                    }
                    Ok(None) => break,
                    Err(e) => {
                        poison = Some(e);
                        break;
                    }
                }
            }
            conn.rbuf.drain(..pos);
        }

        for (req_id, req, t0) in parsed {
            self.handle_request(idx, req_id, req, t0);
            if self.conns[idx].as_ref().is_none_or(|c| c.closing) {
                break;
            }
        }
        if self.conns[idx].is_none() {
            return;
        }
        if let Some(e) = poison {
            self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            self.queue_reply(
                idx,
                &Reply::Error {
                    code: e.code(),
                    message: e.to_string(),
                },
                0,
                0,
            );
            self.stop_reading(idx);
        }
        if eof {
            // Clean or mid-frame EOF: nothing more will arrive, but the
            // replies already owed are still delivered before the close.
            self.stop_reading(idx);
        }
        self.flush(idx);
    }

    /// Read no further requests; [`Reactor::flush`] drops the read interest
    /// and closes once every owed reply is written.
    fn stop_reading(&mut self, idx: usize) {
        if let Some(conn) = self.conns[idx].as_mut() {
            conn.closing = true;
        }
    }

    /// The one request dispatcher. Queries go to the coalescer; everything
    /// else is answered inline on the reactor thread.
    fn handle_request(&mut self, idx: usize, req_id: u64, req: Request<T, D>, t0: Instant) {
        let opcode = req.opcode();
        let conn = self.conns[idx].as_mut().expect("live conn");
        if !conn.hello_done {
            match check_hello(&req, self.ctx.shards) {
                Ok(ok) => {
                    conn.hello_done = true;
                    self.answer_now(idx, &ok, opcode, req_id, t0, None);
                }
                Err(err) => {
                    self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    self.answer_now(idx, &err, opcode, req_id, t0, None);
                    self.stop_reading(idx);
                }
            }
            return;
        }
        // Slow-query log: build the shape before `req` is consumed, and only
        // while the log is enabled (one relaxed load).
        let slow_shape = (psi_obs::slowlog::threshold_ns() > 0).then(|| describe_request(&req));
        let reply = match req {
            // A repeated hello is answered idempotently (harmless, and it
            // lets clients re-verify the shape on a pooled connection).
            Request::Hello { .. } => match check_hello(&req, self.ctx.shards) {
                Ok(r) | Err(r) => r,
            },
            // One mutex-guarded peek at the history log: nothing worth a
            // coalescer round-trip.
            Request::EpochBounds => Reply::EpochBounds(self.ctx.server.router().epoch_bounds()),
            // Collection walks the registry under its mutex, but never
            // touches the serving path.
            Request::Stats => Reply::Stats {
                version: psi_obs::SNAPSHOT_VERSION,
                text: psi_obs::render_prometheus(),
            },
            Request::ApplyBatch { delete, insert } => {
                match self.ctx.server.try_submit(delete, insert) {
                    Ok(()) => Reply::BatchOk,
                    Err(_) => Reply::Error {
                        code: ERR_BUSY,
                        message: "update queue full, retry".to_string(),
                    },
                }
            }
            Request::Knn { k: 0, .. } => Reply::Points(Vec::new()),
            Request::Knn { q, k, at } => {
                let op = QueryOp::Knn(q, k as usize);
                return self.submit(idx, op, at, opcode, req_id, t0, slow_shape);
            }
            Request::RangeCount { rect, at } => {
                let op = QueryOp::RangeCount(rect);
                return self.submit(idx, op, at, opcode, req_id, t0, slow_shape);
            }
            Request::RangeList { rect, at } => {
                let op = QueryOp::RangeList(rect);
                return self.submit(idx, op, at, opcode, req_id, t0, slow_shape);
            }
        };
        self.answer_now(idx, &reply, opcode, req_id, t0, slow_shape);
    }

    /// Enqueue a query to the coalescer; its callback encodes the reply on
    /// the flusher thread and hands the frame to the reactor's outbox.
    #[allow(clippy::too_many_arguments)]
    fn submit(
        &mut self,
        idx: usize,
        op: QueryOp<T, D>,
        at: Option<u64>,
        opcode: u8,
        req_id: u64,
        t0: Instant,
        slow_shape: Option<String>,
    ) {
        let outbox = Arc::clone(&self.outbox);
        let wake = Arc::clone(&self.wake_tx);
        let gen = self.gens[idx];
        self.ctx.coalescer.submit_at(
            op,
            at,
            Completion::Callback(Box::new(move |answer| {
                let reply: Reply<T, D> = match answer {
                    QueryReply::Points(p) => Reply::Points(p),
                    QueryReply::Count(c) => Reply::Count(c as u64),
                    QueryReply::EpochGone => reply_epoch_gone(),
                };
                let mut bytes = Vec::new();
                encode_or_too_large(&reply, opcode, req_id, &mut bytes);
                // Latency ends at reply hand-off: the flusher finished the
                // query and the encoded frame is on its way to the reactor.
                record_latency(opcode, t0, slow_shape);
                outbox
                    .lock()
                    .expect(OUTBOX_POISONED)
                    .push((idx, gen, bytes));
                // A full wakeup pipe means a kick is already pending.
                let _ = (&*wake).write(&[1]);
            })),
        );
        self.conns[idx].as_mut().expect("live conn").inflight += 1;
    }

    /// Queue an inline reply and record its decode-to-hand-off latency.
    fn answer_now(
        &mut self,
        idx: usize,
        reply: &Reply<T, D>,
        opcode: u8,
        req_id: u64,
        t0: Instant,
        slow_shape: Option<String>,
    ) {
        self.queue_reply(idx, reply, opcode, req_id);
        record_latency(opcode, t0, slow_shape);
    }

    fn queue_reply(&mut self, idx: usize, reply: &Reply<T, D>, opcode: u8, req_id: u64) {
        let conn = self.conns[idx].as_mut().expect("live conn");
        encode_or_too_large(reply, opcode, req_id, &mut conn.wbuf);
    }

    /// Push buffered bytes out; set the epoll interest to match what
    /// remains; close a connection that stopped reading once it owes no
    /// more replies.
    fn flush(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => return self.close(idx),
                Ok(n) => conn.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => return self.close(idx),
            }
        }
        if conn.wpos == conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
        } else {
            if conn.wbuf.len() - conn.wpos > MAX_WBUF {
                return self.close(idx); // client stopped reading
            }
            // Reclaim flushed prefix occasionally so the buffer can't creep.
            if conn.wpos > (1 << 20) {
                conn.wbuf.drain(..conn.wpos);
                conn.wpos = 0;
            }
        }
        if conn.closing && conn.wbuf.is_empty() && conn.inflight == 0 {
            return self.close(idx);
        }
        // A connection that stopped reading drops its read interest:
        // level-triggered EOF readiness would otherwise spin the loop.
        let read = if conn.closing {
            0
        } else {
            EPOLLIN | EPOLLRDHUP
        };
        let write = if conn.wbuf.is_empty() { 0 } else { EPOLLOUT };
        self.set_interest(idx, read | write);
    }

    fn set_interest(&mut self, idx: usize, mask: u32) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if conn.interest != mask {
            conn.interest = mask;
            if self
                .epoll
                .modify(conn.stream.as_raw_fd(), mask, idx as u64)
                .is_err()
            {
                self.close(idx);
            }
        }
    }
}

/// Append `reply`'s frame to `out`. A reply that outgrows the frame cap
/// (e.g. a huge range-list) is replaced by a typed too-large error, so the
/// client still gets an answer for this `req_id` and the connection stays
/// open.
fn encode_or_too_large<T: WireCoord, const D: usize>(
    reply: &Reply<T, D>,
    opcode: u8,
    req_id: u64,
    out: &mut Vec<u8>,
) {
    // A failed encode rolls `out` back, so the substitute starts clean.
    if encode_reply(reply, opcode, req_id, out).is_ok() {
        net_obs().count_reply(opcode, reply);
    } else {
        let substitute = reply_too_large::<T, D>();
        encode_reply(&substitute, opcode, req_id, out).expect("error frames fit one frame");
        net_obs().count_reply(opcode, &substitute);
    }
}

/// Record a request's decode-to-hand-off latency, and its shape in the
/// slow-query log when the log is enabled and the threshold was crossed.
fn record_latency(opcode: u8, t0: Instant, slow_shape: Option<String>) {
    let dt = t0.elapsed();
    net_obs().request_latency(opcode).record_duration(dt);
    if let Some(shape) = slow_shape {
        psi_obs::slowlog::observe(op_name(opcode), dt.as_nanos() as u64, || shape);
    }
}

/// The slow-query-log shape of a request: enough detail to reproduce the
/// query's cost class (k, epoch pin, batch sizes) without logging payloads.
fn describe_request<T: WireCoord, const D: usize>(req: &Request<T, D>) -> String {
    match req {
        Request::Hello { .. } => "hello".to_string(),
        Request::Knn { k, at, .. } => match at {
            Some(e) => format!("k={k} at={e}"),
            None => format!("k={k}"),
        },
        Request::RangeCount { at, .. } | Request::RangeList { at, .. } => match at {
            Some(e) => format!("rect at={e}"),
            None => "rect".to_string(),
        },
        Request::EpochBounds => "epoch_bounds".to_string(),
        Request::Stats => "stats".to_string(),
        Request::ApplyBatch { delete, insert } => {
            format!("del={} ins={}", delete.len(), insert.len())
        }
    }
}

/// The error reply sent when an answer outgrows the frame cap.
fn reply_too_large<T: WireCoord, const D: usize>() -> Reply<T, D> {
    Reply::Error {
        code: ERR_TOO_LARGE,
        message: "reply exceeds the frame cap; narrow the query".to_string(),
    }
}

/// The error reply sent when a pinned epoch fell off the history window.
fn reply_epoch_gone<T: WireCoord, const D: usize>() -> Reply<T, D> {
    Reply::Error {
        code: ERR_EPOCH,
        message: "epoch outside the retained history window".to_string(),
    }
}
