//! Property tests for the frame codec: encode→decode is the identity on
//! every message shape, and no truncation or byte corruption of a valid
//! frame can panic the decoder — corrupt input is an `Err`, never UB,
//! never an unbounded allocation (mirrors the `snr-store` segment
//! corruption-fuzz style).

use proptest::prelude::*;
use snr_driver::protocol::{read_frame, write_frame, Message};

/// Builds one message of each coordinator/worker shape from a handful of
/// drawn integers, cycling through the variants by `pick`.
fn build_message(pick: u32, a: u32, b: u32, pairs: Vec<(u32, u32)>) -> Message {
    match pick % 9 {
        0 => Message::Init {
            worker_id: a,
            n1: u64::from(b) + 1,
            n2: u64::from(a) + 1,
            g1: format!("/tmp/g1-{b}.snrs"),
            g2: format!("/tmp/g2-{a}.snrs"),
        },
        1 => Message::Init {
            worker_id: a,
            n1: u64::from(a),
            n2: u64::from(b),
            g1: pairs.iter().map(|(x, y)| format!("/{x}-{y}")).collect(),
            g2: String::new(),
        },
        2 => Message::InitOk { worker_id: a },
        3 => Message::Phase {
            phase: a,
            min_deg1: b,
            min_deg2: b.wrapping_add(1),
            threshold: a.wrapping_add(b),
            links_delta: pairs,
        },
        4 => Message::Task { phase: a, first_node: b, node_count: a ^ b },
        5 => Message::TaskDone {
            phase: a,
            first_node: b,
            node_count: a.wrapping_mul(3),
            claims: pairs.iter().flat_map(|&(x, y)| [x as u8, y as u8]).collect(),
        },
        6 => Message::Reinit {
            phase: a,
            min_deg1: b,
            min_deg2: b.wrapping_add(1),
            threshold: a.wrapping_add(b),
            links_full: pairs,
        },
        7 => Message::Stats {
            worker_id: a,
            spans: pairs
                .iter()
                .map(|&(x, y)| {
                    (format!("span-{x}"), format!("phase={y}"), u64::from(x), u64::from(y))
                })
                .collect(),
            counters: pairs.iter().map(|&(x, y)| (format!("c{x}"), u64::from(y))).collect(),
            events: pairs
                .iter()
                .map(|&(x, y)| (format!("e{x}"), String::new(), u64::from(y)))
                .collect(),
        },
        _ => Message::WorkerError { message: format!("worker {a} lost segment {b}") },
    }
}

proptest::proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn encode_decode_is_the_identity(
        pick in 0u32..9,
        ab in (0u32..u32::MAX, 0u32..u32::MAX),
        pairs in proptest::collection::vec((0u32..100_000, 0u32..100_000), 0..64),
    ) {
        let msg = build_message(pick, ab.0, ab.1, pairs);
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &msg).unwrap();
        write_frame(&mut pipe, &Message::Shutdown).unwrap();
        let mut r = pipe.as_slice();
        proptest::prop_assert_eq!(read_frame(&mut r).unwrap(), Some(msg));
        proptest::prop_assert_eq!(read_frame(&mut r).unwrap(), Some(Message::Shutdown));
        proptest::prop_assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn truncation_is_an_error_never_a_panic(
        pick in 0u32..9,
        ab in (0u32..5_000, 0u32..5_000),
        pairs in proptest::collection::vec((0u32..1_000, 0u32..1_000), 0..32),
        cut_knob in 0usize..10_000,
    ) {
        let msg = build_message(pick, ab.0, ab.1, pairs);
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &msg).unwrap();
        // Cut strictly inside the frame: every prefix must decode to a
        // clean protocol error (EOF mid-frame), not a panic and not Ok.
        let cut = cut_knob % pipe.len();
        let result = read_frame(&mut &pipe[..cut]);
        if cut == 0 {
            proptest::prop_assert!(matches!(result, Ok(None)), "empty pipe is clean EOF");
        } else {
            proptest::prop_assert!(result.is_err(), "truncation at {} of {} decoded", cut, pipe.len());
        }
    }

    #[test]
    fn byte_corruption_never_panics(
        pick in 0u32..9,
        ab in (0u32..5_000, 0u32..5_000),
        pairs in proptest::collection::vec((0u32..1_000, 0u32..1_000), 0..32),
        corrupt in (0usize..10_000, 1u32..256),
    ) {
        let msg = build_message(pick, ab.0, ab.1, pairs);
        let mut pipe = Vec::new();
        write_frame(&mut pipe, &msg).unwrap();
        let at = corrupt.0 % pipe.len();
        pipe[at] ^= corrupt.1 as u8;
        // A flipped byte may still decode (e.g. a changed phase number);
        // what it must never do is panic or allocate unboundedly. When the
        // length prefix grew, the frame ends early and must error.
        let _ = read_frame(&mut pipe.as_slice());
    }

    #[test]
    fn body_level_corruption_of_the_tag_is_rejected(
        pick in 0u32..9,
        ab in (0u32..5_000, 0u32..5_000),
        tag in 10u32..255,
    ) {
        let msg = build_message(pick, ab.0, ab.1, Vec::new());
        let mut body = msg.encode();
        body[0] = tag as u8;
        proptest::prop_assert!(Message::decode(&body).is_err(), "unknown tag {} accepted", tag);
    }
}
