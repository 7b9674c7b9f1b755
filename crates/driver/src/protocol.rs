//! The coordinator ↔ worker wire protocol: length-prefixed binary frames
//! over the worker's stdin/stdout pipes.
//!
//! Every frame is a little-endian `u32` body length followed by the body; a
//! body starts with one tag byte selecting the [`Message`] variant. The
//! format is deliberately boring — fixed-width integers, length-prefixed
//! strings and arrays, no self-describing metadata — so the decoder can be
//! exhaustively bounds-checked: truncation, inflated counts, bad tags, and
//! trailing bytes are all [`DriverError::Protocol`] errors, never panics
//! and never unbounded allocations (`tests/protocol_roundtrip.rs` pins
//! this in the `snr-store` corruption-fuzz style). Both directions go
//! through [`snr_store::wire`]: its `Reader` bounds-checks every field, and
//! its `Writer` checks every length prefix, so an over-long field or body is
//! an error when the frame is written, never a wrapped `u32`.
//!
//! The conversation is strictly coordinator-driven:
//!
//! ```text
//! C → W   Init      segment paths + node-space sizes        (once)
//! W → C   InitOk                                            (once)
//! C → W   Phase     phase params + full link snapshot       (once, after InitOk)
//! C → W   Phase     phase params + link delta               (per phase)
//! C → W   Task      one contiguous row-range                (0+ per phase)
//! W → C   TaskDone  serialized SelectSink claims            (per task)
//! W → C   Stats     telemetry delta (spans/counters/events) (0+ per task)
//! W → C   WorkerError   fatal worker-side failure           (at most once)
//! C → W   Shutdown                                          (once)
//! ```
//!
//! The first `Phase` frame a worker sees is the self-healing half of the
//! handshake: instead of assuming a worker was present for every previous
//! phase delta, the coordinator answers each `InitOk` with the *complete*
//! accumulated link state plus the current phase parameters. A fresh
//! worker's `Linking` is empty, so folding that snapshot in like any delta
//! gives the coordinator's state. That makes the very same handshake serve
//! first launch, mid-phase respawn of a crashed worker, and
//! checkpoint-resume — a fresh process is always one frame away from the
//! replica state an uninterrupted worker would hold.

use crate::error::DriverError;
use snr_store::wire::{self, Reader, WireError, Writer};
use snr_telemetry::StatsDelta;
use std::io::{Read, Write};

/// Upper bound on one frame body. Claims frames scale with the candidate
/// rows of one task, far below this; anything larger is corruption and must
/// not turn into a giant allocation.
pub const MAX_FRAME: usize = 1 << 30;

/// One protocol frame body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Coordinator → worker: identity, node-space sizes, and the two
    /// whole-graph segment files the worker maps.
    Init {
        /// This worker's id (0-based).
        worker_id: u32,
        /// Copy-1 node-space size.
        n1: u64,
        /// Copy-2 node-space size.
        n2: u64,
        /// Path of the copy-1 segment.
        g1: String,
        /// Path of the copy-2 segment.
        g2: String,
    },
    /// Worker → coordinator: segments mapped, ready for phases.
    InitOk {
        /// Echoed worker id.
        worker_id: u32,
    },
    /// Coordinator → worker: arm a phase. The worker folds `links` into
    /// its resident `Linking` and rebuilds its `LinkCache`.
    Phase {
        /// 1-based phase number; 0 when a handshake completes before the
        /// first phase.
        phase: u32,
        /// Minimum degree of a candidate on either side.
        min_degree: u32,
        /// Selection threshold.
        threshold: u32,
        /// The link pairs inserted since the last phase (the seed set
        /// before phase 1). The frame that answers `InitOk` carries every
        /// link accumulated so far, seeds included, so a worker spawned
        /// mid-run (respawn, resume) starts from exactly the replica state
        /// an uninterrupted worker would hold.
        links: Vec<(u32, u32)>,
    },
    /// Coordinator → worker: score one contiguous row-range of the current
    /// phase.
    Task {
        /// Phase this task belongs to.
        phase: u32,
        /// Global id of the range's first row.
        first_node: u32,
        /// Number of rows in the range.
        node_count: u32,
    },
    /// Worker → coordinator: one finished row-range with its serialized
    /// `SelectSink` claims (see `snr_core::scoring::SinkClaims`).
    TaskDone {
        /// Phase the task belonged to.
        phase: u32,
        /// Echoed range start.
        first_node: u32,
        /// Echoed range length.
        node_count: u32,
        /// Encoded `SinkClaims`.
        claims: Vec<u8>,
    },
    /// Worker → coordinator: fatal worker-side failure (the worker exits
    /// after sending this).
    WorkerError {
        /// Human-readable failure description.
        message: String,
    },
    /// Coordinator → worker: exit cleanly.
    Shutdown,
    /// Worker → coordinator: the worker's telemetry delta since its last
    /// `Stats` frame (spans, counter increments, events). Sent after a
    /// `TaskDone` when the coordinator spawned the worker with
    /// `SNR_TELEMETRY=1`; purely observational — the coordinator folds it
    /// into its own telemetry registry and nothing about scheduling or
    /// merging reads it back.
    Stats {
        /// Reporting worker's id.
        worker_id: u32,
        /// The drained delta; span and event times are in the worker's own
        /// telemetry epoch.
        delta: StatsDelta,
    },
}

const TAG_INIT: u8 = 1;
const TAG_INIT_OK: u8 = 2;
const TAG_PHASE: u8 = 3;
const TAG_TASK: u8 = 4;
const TAG_TASK_DONE: u8 = 5;
const TAG_WORKER_ERROR: u8 = 6;
const TAG_SHUTDOWN: u8 = 7;
const TAG_STATS: u8 = 9;

fn string(r: &mut Reader<'_>) -> Result<String, DriverError> {
    String::from_utf8(r.bytes()?.to_vec())
        .map_err(|_| DriverError::Protocol("string field is not UTF-8".into()))
}

impl Message {
    /// Serializes the frame body (without the length prefix).
    ///
    /// # Panics
    ///
    /// If a string, byte field or list is longer than a `u32` prefix can
    /// carry. [`write_frame`], the path every frame on the pipe takes,
    /// checks this and fails with [`DriverError::Protocol`] instead.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_capped(wire::MAX_LEN).expect("frame fields fit their u32 length prefixes")
    }

    /// Serializes the frame body, rejecting any string, byte field or list
    /// longer than `max_len`.
    fn encode_capped(&self, max_len: usize) -> Result<Vec<u8>, DriverError> {
        let mut out = Vec::new();
        self.encode_fields(&mut Writer::with_max_len(&mut out, max_len))?;
        Ok(out)
    }

    fn encode_fields(&self, w: &mut Writer<'_>) -> Result<(), WireError> {
        match self {
            Message::Init { worker_id, n1, n2, g1, g2 } => {
                w.u8(TAG_INIT);
                w.u32(*worker_id);
                w.u64(*n1);
                w.u64(*n2);
                w.bytes(g1.as_bytes())?;
                w.bytes(g2.as_bytes())?;
            }
            Message::InitOk { worker_id } => {
                w.u8(TAG_INIT_OK);
                w.u32(*worker_id);
            }
            Message::Phase { phase, min_degree, threshold, links } => {
                w.u8(TAG_PHASE);
                for v in [phase, min_degree, threshold] {
                    w.u32(*v);
                }
                w.pairs(links)?;
            }
            Message::Task { phase, first_node, node_count } => {
                w.u8(TAG_TASK);
                for v in [phase, first_node, node_count] {
                    w.u32(*v);
                }
            }
            Message::TaskDone { phase, first_node, node_count, claims } => {
                w.u8(TAG_TASK_DONE);
                for v in [phase, first_node, node_count] {
                    w.u32(*v);
                }
                w.bytes(claims)?;
            }
            Message::WorkerError { message } => {
                w.u8(TAG_WORKER_ERROR);
                w.bytes(message.as_bytes())?;
            }
            Message::Shutdown => w.u8(TAG_SHUTDOWN),
            Message::Stats { worker_id, delta: StatsDelta { spans, counters, events } } => {
                w.u8(TAG_STATS);
                w.u32(*worker_id);
                w.len_prefix(spans.len())?;
                for (name, fields, start_us, dur_us) in spans {
                    w.bytes(name.as_bytes())?;
                    w.bytes(fields.as_bytes())?;
                    w.u64(*start_us);
                    w.u64(*dur_us);
                }
                w.len_prefix(counters.len())?;
                for (name, delta) in counters {
                    w.bytes(name.as_bytes())?;
                    w.u64(*delta);
                }
                w.len_prefix(events.len())?;
                for (name, fields, at_us) in events {
                    w.bytes(name.as_bytes())?;
                    w.bytes(fields.as_bytes())?;
                    w.u64(*at_us);
                }
            }
        }
        Ok(())
    }

    /// Parses one frame body. Every structural defect is a
    /// [`DriverError::Protocol`] — never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Message, DriverError> {
        let r = &mut Reader::new(bytes);
        let msg = match r.u8()? {
            TAG_INIT => Message::Init {
                worker_id: r.u32()?,
                n1: r.u64()?,
                n2: r.u64()?,
                g1: string(r)?,
                g2: string(r)?,
            },
            TAG_INIT_OK => Message::InitOk { worker_id: r.u32()? },
            TAG_PHASE => Message::Phase {
                phase: r.u32()?,
                min_degree: r.u32()?,
                threshold: r.u32()?,
                links: r.pairs()?,
            },
            TAG_TASK => {
                Message::Task { phase: r.u32()?, first_node: r.u32()?, node_count: r.u32()? }
            }
            TAG_TASK_DONE => Message::TaskDone {
                phase: r.u32()?,
                first_node: r.u32()?,
                node_count: r.u32()?,
                claims: r.bytes()?.to_vec(),
            },
            TAG_WORKER_ERROR => Message::WorkerError { message: string(r)? },
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_STATS => {
                let worker_id = r.u32()?;
                // Minimum element widths: a span is two string prefixes plus
                // two u64s (24 bytes), a counter is one prefix plus a u64
                // (12), an event two prefixes plus a u64 (16) — enough to
                // keep an inflated count from forcing a huge allocation.
                let n = r.count(24)?;
                let spans = (0..n)
                    .map(|_| Ok((string(r)?, string(r)?, r.u64()?, r.u64()?)))
                    .collect::<Result<_, DriverError>>()?;
                let n = r.count(12)?;
                let counters = (0..n)
                    .map(|_| Ok((string(r)?, r.u64()?)))
                    .collect::<Result<_, DriverError>>()?;
                let n = r.count(16)?;
                let events = (0..n)
                    .map(|_| Ok((string(r)?, string(r)?, r.u64()?)))
                    .collect::<Result<_, DriverError>>()?;
                Message::Stats { worker_id, delta: StatsDelta { spans, counters, events } }
            }
            t => return Err(DriverError::Protocol(format!("unknown frame tag {t}"))),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Writes one length-prefixed frame and flushes (pipes are the transport;
/// an unflushed frame is a deadlock). A body over [`MAX_FRAME`] bytes is a
/// [`DriverError::Protocol`] error and nothing is written.
pub fn write_frame<W: Write>(w: &mut W, msg: &Message) -> Result<(), DriverError> {
    write_frame_capped(w, msg, MAX_FRAME)
}

/// [`write_frame`] with every length — each field's and the body's — capped
/// at `max_len`.
fn write_frame_capped<W: Write>(
    w: &mut W,
    msg: &Message,
    max_len: usize,
) -> Result<(), DriverError> {
    let body = msg.encode_capped(max_len)?;
    let mut prefix = Vec::with_capacity(4);
    Writer::with_max_len(&mut prefix, max_len).len_prefix(body.len())?;
    w.write_all(&prefix)?;
    w.write_all(&body)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame. Returns `Ok(None)` on clean EOF at a
/// frame boundary (the peer closed the pipe); EOF mid-frame, an oversized
/// length, or a malformed body is an error.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Message>, DriverError> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut len_bytes[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(DriverError::Protocol("EOF inside frame length prefix".into()));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(DriverError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME {
        return Err(DriverError::Protocol(format!("frame length {len} exceeds {MAX_FRAME}")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => DriverError::Protocol("EOF inside frame body".into()),
        _ => DriverError::Io(e),
    })?;
    Message::decode(&body).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_over_a_pipe_buffer() {
        let msgs = vec![
            Message::Init {
                worker_id: 3,
                n1: 1_000,
                n2: 999,
                g1: "g1.snrs".into(),
                g2: "g2.snrs".into(),
            },
            Message::InitOk { worker_id: 3 },
            Message::Phase { phase: 1, min_degree: 2, threshold: 2, links: vec![(0, 5), (7, 7)] },
            Message::Task { phase: 1, first_node: 0, node_count: 500 },
            Message::TaskDone { phase: 1, first_node: 0, node_count: 500, claims: vec![1, 2, 3] },
            Message::Stats {
                worker_id: 3,
                delta: StatsDelta {
                    spans: vec![("task".into(), "phase=1 rows=500".into(), 10, 250)],
                    counters: vec![("scored_pairs".into(), 1234), ("tasks_completed".into(), 1)],
                    events: vec![("fault_fired".into(), "action=stall".into(), 99)],
                },
            },
            Message::WorkerError { message: "segment missing".into() },
            Message::Shutdown,
        ];
        // The exact bytes of each frame, length prefix included: a roundtrip
        // passes whenever encode and decode change together, these fail on
        // any change to the layout itself.
        let golden = [
            "2b0000000103000000e803000000000000e7030000000000000700000067312e736e72730700000067322e736e7273",
            "050000000203000000",
            "21000000030100000002000000020000000200000000000000050000000700000007000000",
            "0d000000040100000000000000f4010000",
            "14000000050100000000000000f401000003000000010203",
            "97000000090300000001000000040000007461736b1000000070686173653d3120726f77733d3530300a00000000000000fa00000000000000020000000c00000073636f7265645f7061697273d2040000000000000f0000007461736b735f636f6d706c657465640100000000000000010000000b0000006661756c745f66697265640c000000616374696f6e3d7374616c6c6300000000000000",
            "14000000060f0000007365676d656e74206d697373696e67",
            "0100000007",
        ];
        let mut pipe = Vec::new();
        for (m, expected) in msgs.iter().zip(golden) {
            let start = pipe.len();
            write_frame(&mut pipe, m).unwrap();
            assert_eq!(hex(&pipe[start..]), expected, "{m:?}");
        }
        let mut r = pipe.as_slice();
        for m in &msgs {
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(m));
        }
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF at the boundary");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut pipe = Vec::new();
        pipe.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut pipe.as_slice()).is_err());
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_rejected() {
        assert!(Message::decode(&[99]).is_err());
        assert!(Message::decode(&[]).is_err());
        let mut body = Message::Shutdown.encode();
        body.push(0);
        assert!(Message::decode(&body).is_err());
    }

    #[test]
    fn over_long_fields_and_bodies_are_clean_errors() {
        let mut pipe = Vec::new();
        // Byte fields and pair lists over the cap fail at their own prefix.
        let done = Message::TaskDone { phase: 1, first_node: 0, node_count: 1, claims: vec![0; 5] };
        let phase =
            Message::Phase { phase: 1, min_degree: 1, threshold: 2, links: vec![(0, 0); 5] };
        for msg in [&done, &phase] {
            let err = write_frame_capped(&mut pipe, msg, 4).unwrap_err();
            assert!(
                matches!(err, DriverError::Protocol(ref why) if why.contains("length 5")),
                "{err}"
            );
        }
        // A 13-byte body over a 12-byte cap fails at the frame prefix.
        let task = Message::Task { phase: 1, first_node: 0, node_count: 1 };
        let err = write_frame_capped(&mut pipe, &task, 12).unwrap_err();
        assert!(
            matches!(err, DriverError::Protocol(ref why) if why.contains("length 13")),
            "{err}"
        );
        assert!(pipe.is_empty(), "a rejected frame writes nothing");
        write_frame_capped(&mut pipe, &task, 13).unwrap();
        assert_eq!(read_frame(&mut pipe.as_slice()).unwrap(), Some(task));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }
}
