//! ψ-net: the socket front-end for the ψ-serve subsystem.
//!
//! [`psi_server`](psi_server) serves queries to in-process clients through
//! coalescing handles; this crate puts that behind a TCP socket so the
//! serving path can be driven at realistic connection counts. It provides:
//!
//! * [`wire`] — the length-prefixed little-endian binary protocol (one
//!   module, shared verbatim by both sides of the connection),
//! * [`NetServer`] — one nonblocking epoll reactor thread (see [`epoll`])
//!   that multiplexes thousands of connections and dispatches every
//!   request in one place,
//! * [`client::WireClient`] — a blocking protocol client that also
//!   implements [`psi_server::QueryClient`], so `psi_server`'s closed-loop
//!   load generator can drive real sockets with the same conservation and
//!   shape checks it applies in-process,
//! * [`loadgen`] — a multiplexed fan-out driver for connection counts far
//!   beyond thread-per-client (thousands of connections per worker thread),
//!   with order-independent FNV answer checksums and an in-process replay
//!   to verify socket answers bit-for-bit.
//!
//! Query frames feed the server's [coalescer](psi_server::CoalesceHandle)
//! with a callback completion, so the reactor never blocks on the flusher:
//! that is what lets one reactor thread keep thousands of connections in
//! flight while the flusher turns them into large epoch-consistent batches.
//! Hello, epoch-bounds, stats and update frames (and `k = 0` kNN) are
//! answered inline on the reactor.

pub mod client;
pub mod epoll;
mod event_loop;
pub mod loadgen;
mod obs;
pub mod wire;

use psi_server::{CoalesceHandle, PsiServer, ServeCoord};
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use wire::WireCoord;

/// Configuration for [`NetServer::spawn`]. It has no fields: the server has
/// one transport and one query path. The parameter keeps `spawn`'s
/// signature stable for its callers, among them the repository benchmark
/// (`psibench`), which passes `NetConfig::default()`.
#[derive(Clone, Debug, Default)]
pub struct NetConfig {}

/// Everything the reactor needs to answer requests.
pub(crate) struct Ctx<T: ServeCoord + WireCoord, const D: usize> {
    pub server: Arc<PsiServer<T, D>>,
    pub coalescer: CoalesceHandle<T, D>,
    pub shards: u32,
}

/// Counters shared between the reactor thread and the [`NetServer`]
/// handle that outlives it.
#[derive(Default)]
pub(crate) struct NetStats {
    pub open: AtomicUsize,
    pub accepted: AtomicU64,
    /// Frames that failed to decode (protocol errors answered with an
    /// error frame and a close).
    pub protocol_errors: AtomicU64,
}

/// A running socket front-end. Dropping the handle (or calling
/// [`NetServer::shutdown`]) stops accepting, disconnects every client and
/// joins the reactor thread.
///
/// Shut the `NetServer` down **before** the [`PsiServer`] it fronts — the
/// reactor holds a coalescing handle, and a query arriving after the
/// server's flusher stopped would panic it.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// The reactor's wakeup writer (kicks it out of `epoll_wait` so it
    /// notices `stop`).
    wake: UnixStream,
    join: Option<JoinHandle<()>>,
    stats: Arc<NetStats>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port — the bound address is
    /// [`NetServer::addr`]) and serve `server` over it. The type parameters
    /// fix the connection shape: clients must hello with the matching
    /// coordinate tag and dimensionality.
    pub fn spawn<T: ServeCoord + WireCoord, const D: usize>(
        server: Arc<PsiServer<T, D>>,
        addr: SocketAddr,
        _cfg: NetConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let ctx = Ctx {
            coalescer: server.client(),
            shards: server.router().shard_count() as u32,
            server,
        };
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(NetStats::default());
        let (wake, wake_rx) = UnixStream::pair()?;
        wake.set_nonblocking(true)?;
        let join = {
            let stop = Arc::clone(&stop);
            let stats = Arc::clone(&stats);
            let wake_tx = wake.try_clone()?;
            std::thread::Builder::new()
                .name("psi-net-reactor".to_string())
                .spawn(move || {
                    event_loop::run_evented(listener, ctx, stop, stats, wake_rx, wake_tx)
                })?
        };
        Ok(NetServer {
            addr: local,
            stop,
            wake,
            join: Some(join),
            stats,
        })
    }

    /// The bound listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open.
    pub fn open_connections(&self) -> usize {
        self.stats.open.load(Ordering::Relaxed)
    }

    /// Connections accepted over the server's lifetime.
    pub fn accepted(&self) -> u64 {
        self.stats.accepted.load(Ordering::Relaxed)
    }

    /// Frames rejected as protocol errors over the server's lifetime.
    pub fn protocol_errors(&self) -> u64 {
        self.stats.protocol_errors.load(Ordering::Relaxed)
    }

    /// Stop accepting, disconnect all clients, join the reactor thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        use std::io::Write;
        // The reactor drains the wakeup socket every iteration; if the pipe
        // is full a wakeup is already pending, so WouldBlock is success here.
        let _ = (&self.wake).write(&[1]);
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.join.is_some() {
            self.stop_and_join();
        }
    }
}

/// The loopback address with an OS-assigned ephemeral port — the usual
/// `spawn` target for tests and benchmarks.
pub fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().expect("loopback literal parses")
}

/// The process's soft `RLIMIT_NOFILE` minus a safety margin of 64, used by
/// benchmarks to clamp connection sweeps. It does not subtract the
/// descriptors already open, so it is an upper bound on what more the
/// process could open, not a count of it.
pub fn fd_budget() -> usize {
    // /proc is the dependency-free way to read the soft limit on Linux.
    let soft = std::fs::read_to_string("/proc/self/limits")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("Max open files"))?
                .split_whitespace()
                .nth(3)?
                .parse::<usize>()
                .ok()
        })
        .unwrap_or(1024);
    soft.saturating_sub(64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fd_budget_is_sane() {
        let b = fd_budget();
        assert!(b >= 64, "fd budget {b} implausibly small");
    }
}
