//! ψ-net's metric handles: one process-global bundle of pre-resolved
//! counters, gauges and histograms, indexed by opcode slot so the per-frame
//! hot paths (decode, reply flush, callback completion) never touch the
//! registry mutex — each site is one or two relaxed atomic ops on an `Arc`
//! resolved once at first use.

use crate::wire::{
    Reply, WireCoord, ERR_BUSY, ERR_EPOCH, ERR_HELLO_FIRST, ERR_MAGIC, ERR_MALFORMED, ERR_OPCODE,
    ERR_SHAPE, ERR_TOO_LARGE, ERR_VERSION, OP_APPLY_BATCH, OP_EPOCH_BOUNDS, OP_ERROR, OP_HELLO,
    OP_KNN, OP_RANGE_COUNT, OP_RANGE_LIST, OP_STATS, REPLY_BIT,
};
use psi_obs::{Counter, Gauge, Histogram};
use std::sync::{Arc, OnceLock};

/// Opcodes that get their own `op` label value; anything else (a hostile or
/// future opcode) lands in the trailing `"other"` slot.
const OPS: [(u8, &str); 8] = [
    (OP_HELLO, "hello"),
    (OP_KNN, "knn"),
    (OP_RANGE_COUNT, "range_count"),
    (OP_RANGE_LIST, "range_list"),
    (OP_EPOCH_BOUNDS, "epoch_bounds"),
    (OP_APPLY_BATCH, "apply_batch"),
    (OP_STATS, "stats"),
    (OP_ERROR, "error"),
];

/// Error codes that get their own `code` label value (slot 0 is `"other"`).
const CODES: [(u16, &str); 9] = [
    (ERR_MAGIC, "magic"),
    (ERR_VERSION, "version"),
    (ERR_SHAPE, "shape"),
    (ERR_OPCODE, "opcode"),
    (ERR_MALFORMED, "malformed"),
    (ERR_TOO_LARGE, "too_large"),
    (ERR_HELLO_FIRST, "hello_first"),
    (ERR_BUSY, "busy"),
    (ERR_EPOCH, "epoch"),
];

/// The label spelling of a wire opcode (`"knn"`, `"apply_batch"`, …) —
/// shared with the slow-query log so both name ops the same way.
pub(crate) fn op_name(op: u8) -> &'static str {
    OPS.get(op_slot(op))
        .map(|&(_, name)| name)
        .unwrap_or("other")
}

/// Map a wire opcode (request or reply direction) to its label slot.
fn op_slot(op: u8) -> usize {
    let base = if op == OP_ERROR { op } else { op & !REPLY_BIT };
    OPS.iter()
        .position(|&(o, _)| o == base)
        .unwrap_or(OPS.len())
}

fn code_slot(code: u16) -> usize {
    CODES
        .iter()
        .position(|&(c, _)| c == code)
        .map(|i| i + 1)
        .unwrap_or(0)
}

/// The socket front-end's pre-resolved metric handles.
pub(crate) struct NetObs {
    /// Connections currently open.
    pub open: Arc<Gauge>,
    frames_in: Vec<Arc<Counter>>,
    frames_out: Vec<Arc<Counter>>,
    latency: Vec<Arc<Histogram>>,
    errors: Vec<Arc<Counter>>,
}

impl NetObs {
    fn new() -> NetObs {
        let per_op = |name: &'static str, help: &'static str| -> Vec<Arc<Counter>> {
            OPS.iter()
                .map(|&(_, op)| psi_obs::counter(name, help, &[("op", op)]))
                .chain(std::iter::once(psi_obs::counter(
                    name,
                    help,
                    &[("op", "other")],
                )))
                .collect()
        };
        NetObs {
            open: psi_obs::gauge(
                "psi_net_open_connections",
                "client connections currently open",
                &[],
            ),
            frames_in: per_op(
                "psi_net_frames_in_total",
                "request frames decoded, by opcode",
            ),
            frames_out: per_op(
                "psi_net_frames_out_total",
                "reply frames encoded for sending, by opcode",
            ),
            latency: OPS
                .iter()
                .map(|&(_, op)| {
                    psi_obs::histogram(
                        "psi_net_request_latency_ns",
                        "request latency from decode to reply hand-off, by opcode",
                        &[("op", op)],
                    )
                })
                .chain(std::iter::once(psi_obs::histogram(
                    "psi_net_request_latency_ns",
                    "request latency from decode to reply hand-off, by opcode",
                    &[("op", "other")],
                )))
                .collect(),
            errors: std::iter::once(psi_obs::counter(
                "psi_net_errors_total",
                "typed error replies sent, by error code",
                &[("code", "other")],
            ))
            .chain(CODES.iter().map(|&(_, code)| {
                psi_obs::counter(
                    "psi_net_errors_total",
                    "typed error replies sent, by error code",
                    &[("code", code)],
                )
            }))
            .collect(),
        }
    }

    /// Count one decoded request frame.
    #[inline]
    pub fn frame_in(&self, op: u8) {
        self.frames_in[op_slot(op)].bump();
    }

    /// The decode-to-reply latency histogram for requests with opcode `op`.
    #[inline]
    pub fn request_latency(&self, op: u8) -> &Histogram {
        &self.latency[op_slot(op)]
    }

    /// Count one reply frame headed out: the outgoing frame by its actual
    /// wire opcode, plus the typed-error series when the reply is an error.
    /// `reply_to` is the request opcode being answered.
    #[inline]
    pub fn count_reply<T: WireCoord, const D: usize>(&self, reply_to: u8, reply: &Reply<T, D>) {
        let out_op = match reply {
            Reply::Error { code, .. } => {
                self.errors[code_slot(*code)].bump();
                OP_ERROR
            }
            _ => reply_to | REPLY_BIT,
        };
        self.frames_out[op_slot(out_op)].bump();
    }
}

static NET_OBS: OnceLock<NetObs> = OnceLock::new();

/// The process-global handle bundle (resolved from the registry on first
/// use; every later call is one initialised-`OnceLock` load).
pub(crate) fn net_obs() -> &'static NetObs {
    NET_OBS.get_or_init(NetObs::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_slots_cover_both_directions() {
        assert_eq!(op_slot(OP_KNN), op_slot(OP_KNN | REPLY_BIT));
        assert_eq!(OPS[op_slot(OP_ERROR)].1, "error");
        assert_eq!(op_slot(0x42), OPS.len(), "unknown opcodes map to 'other'");
    }

    #[test]
    fn reply_counting_tracks_errors_by_code() {
        let obs = net_obs();
        let busy_before = obs.errors[code_slot(ERR_BUSY)].get();
        let err_frames_before = obs.frames_out[op_slot(OP_ERROR)].get();
        obs.count_reply(
            OP_APPLY_BATCH,
            &Reply::<i64, 2>::Error {
                code: ERR_BUSY,
                message: "full".to_string(),
            },
        );
        assert_eq!(obs.errors[code_slot(ERR_BUSY)].get(), busy_before + 1);
        assert_eq!(
            obs.frames_out[op_slot(OP_ERROR)].get(),
            err_frames_before + 1
        );

        let knn_before = obs.frames_out[op_slot(OP_KNN)].get();
        obs.count_reply(OP_KNN, &Reply::<i64, 2>::Points(Vec::new()));
        assert_eq!(obs.frames_out[op_slot(OP_KNN)].get(), knn_before + 1);
    }
}
