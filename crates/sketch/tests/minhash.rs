//! Property tests for the sketch crate: MinHash must estimate Jaccard
//! similarity within statistical tolerance, banding must match a
//! brute-force reference and be deterministic across runs and build
//! strategies, and degenerate inputs (empty or singleton item sets) must
//! be handled, never panicked on.

use snr_sketch::{estimate_jaccard, propose_pairs, Banding, MinHasher, Proposals, SignatureSet};

/// Two sets with `shared` common items, `a_only` / `b_only` private items,
/// and true Jaccard `shared / (shared + a_only + b_only)`. Item values are
/// spread across disjoint ranges so overlap is exactly `shared`.
fn overlapping_sets(shared: u64, a_only: u64, b_only: u64) -> (Vec<u64>, Vec<u64>, f64) {
    let a: Vec<u64> = (0..shared).chain((0..a_only).map(|i| 1_000_000 + i)).collect();
    let b: Vec<u64> = (0..shared).chain((0..b_only).map(|i| 2_000_000 + i)).collect();
    let j = shared as f64 / (shared + a_only + b_only) as f64;
    (a, b, j)
}

proptest::proptest! {
    #[test]
    fn minhash_estimates_jaccard_within_tolerance(
        shared in 0u64..60,
        a_only in 0u64..60,
        b_only in 0u64..60,
        seed in 0u64..10_000,
    ) {
        let (a, b, true_j) = overlapping_sets(shared + 1, a_only, b_only);
        // k = 256 gives a standard error of at most 1/32; 5σ ≈ 0.16 keeps
        // the 64-case run far from a flaky failure while still catching a
        // broken hash family (which is off by ~0.5).
        let hasher = MinHasher::new(256, seed);
        let sig_a = hasher.signature(a.iter().copied()).expect("non-empty");
        let sig_b = hasher.signature(b.iter().copied()).expect("non-empty");
        let estimate = estimate_jaccard(&sig_a, &sig_b);
        assert!(
            (estimate - true_j).abs() < 0.16,
            "estimate {estimate} vs true {true_j} (shared={shared} a={a_only} b={b_only})"
        );
    }

    #[test]
    fn banding_is_deterministic_across_runs_and_build_strategies(
        bands in 1usize..12,
        rows in 1usize..5,
        n in 1usize..400,
        seed in 0u64..10_000,
    ) {
        let banding = Banding::new(bands, rows);
        let hasher = MinHasher::new(banding.k(), seed);
        let ids: Vec<u32> = (0..n as u32).collect();
        // Overlapping item sets so some proposals actually fire.
        let items = |id: u32, out: &mut Vec<u64>| {
            for i in 0..(id % 13) {
                out.push(u64::from(id / 7 + i));
            }
        };
        let left_seq = SignatureSet::build(&hasher, &ids, items);
        let left_par = SignatureSet::build_parallel(&hasher, &ids, items);
        assert_eq!(left_seq, left_par, "parallel signature build must be bit-identical");
        let right = SignatureSet::build(&hasher, &ids, |id, out| items(id.wrapping_add(3), out));
        let first = propose_pairs(&banding, &left_seq, &right);
        let second = propose_pairs(&banding, &left_par, &right);
        assert_eq!(first, second, "proposals must be identical across runs");
        // Sorted, deduplicated output is part of the contract.
        let mut sorted = first.pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(first.pairs, sorted);
    }

    #[test]
    fn empty_and_singleton_item_sets_never_panic(
        bands in 1usize..8,
        rows in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let banding = Banding::new(bands, rows);
        let hasher = MinHasher::new(banding.k(), seed);
        // Ids 0 and 2 have empty item sets; 1 and 3 are singletons.
        let items = |id: u32, out: &mut Vec<u64>| {
            if id % 2 == 1 {
                out.push(u64::from(id / 2));
            }
        };
        assert_eq!(hasher.signature(std::iter::empty()), None, "empty set has no signature");
        let left = SignatureSet::build(&hasher, &[0, 1], items);
        let right = SignatureSet::build_parallel(&hasher, &[2, 3], items);
        assert_eq!(left.len(), 1, "empty item sets are skipped, not sketched");
        assert_eq!(right.len(), 1);
        let proposals = propose_pairs(&banding, &left, &right);
        // The two singletons {0} and {1} are disjoint; they may only meet
        // through a band-key hash collision, which k=bands*rows independent
        // mix64 rounds make effectively impossible.
        assert!(proposals.pairs.is_empty(), "disjoint singletons proposed: {:?}", proposals.pairs);
        // Identical singletons always collide in every band.
        let twin = SignatureSet::build(&hasher, &[1], items);
        let hit = propose_pairs(&banding, &left, &twin);
        assert_eq!(hit.pairs, vec![(1, 1)]);
        assert_eq!(hit.raw_collisions, bands as u64);
    }
}

/// Fixed-size smoke version of the Jaccard property, reproducible without
/// the proptest driver.
#[test]
fn jaccard_estimate_tracks_known_overlaps() {
    let hasher = MinHasher::new(512, 42);
    for (shared, a_only, b_only) in [(50u64, 50, 50), (90, 10, 10), (5, 95, 95), (100, 0, 0)] {
        let (a, b, true_j) = overlapping_sets(shared, a_only, b_only);
        let sig_a = hasher.signature(a.iter().copied()).unwrap();
        let sig_b = hasher.signature(b.iter().copied()).unwrap();
        let estimate = estimate_jaccard(&sig_a, &sig_b);
        assert!((estimate - true_j).abs() < 0.1, "estimate {estimate} vs true {true_j}");
    }
}

/// The literal definition of banding: a left×right pair is proposed iff
/// its two signatures are equal on every row of some band, and
/// `raw_collisions` counts each (pair, agreeing band) once.
fn reference_proposals(banding: &Banding, left: &SignatureSet, right: &SignatureSet) -> Proposals {
    let rows = banding.rows();
    let mut out = Proposals::default();
    for (i, &lid) in left.ids().iter().enumerate() {
        for (j, &rid) in right.ids().iter().enumerate() {
            let (a, b) = (left.signature_at(i), right.signature_at(j));
            let agreeing = (0..banding.bands())
                .filter(|band| {
                    a[band * rows..(band + 1) * rows] == b[band * rows..(band + 1) * rows]
                })
                .count() as u64;
            out.raw_collisions += agreeing;
            if agreeing > 0 {
                out.pairs.push((lid, rid));
            }
        }
    }
    out.pairs.sort_unstable();
    out
}

proptest::proptest! {
    #[test]
    fn propose_pairs_matches_the_brute_force_reference(
        bands in 1usize..12,
        rows in 1usize..5,
        n in 1usize..60,
        shape in 0u32..3,
        reversed in 0u32..2,
        seed in 0u64..10_000,
    ) {
        let banding = Banding::new(bands, rows);
        let hasher = MinHasher::new(banding.k(), seed);
        // Sparse ids, ascending or descending: the output order must not
        // depend on the order the sets were built in.
        let mut ids: Vec<u32> = (0..n as u32).map(|i| 3 * i + 1).collect();
        if reversed == 1 {
            ids.reverse();
        }
        let (left, right) = match shape {
            // Few distinct overlapping sets: many identical signatures,
            // so both sides have multi-member clusters.
            0 => {
                let items = |id: u32, out: &mut Vec<u64>| {
                    out.extend((0..3).map(|j| u64::from(id % 5 + j)));
                };
                let right_items = |id: u32, out: &mut Vec<u64>| items(id / 2, out);
                (
                    SignatureSet::build(&hasher, &ids, items),
                    SignatureSet::build(&hasher, &ids, right_items),
                )
            }
            // Sliding windows: every signature distinct, neighbours close.
            1 => {
                let items = |id: u32, out: &mut Vec<u64>| {
                    out.extend((0..4).map(|j| u64::from(id + j)));
                };
                let right_items = |id: u32, out: &mut Vec<u64>| items(id + 2, out);
                (
                    SignatureSet::build(&hasher, &ids, items),
                    SignatureSet::build(&hasher, &ids, right_items),
                )
            }
            // One side has no signatures at all.
            _ => {
                let items = |id: u32, out: &mut Vec<u64>| out.push(u64::from(id));
                (
                    SignatureSet::build(&hasher, &ids, items),
                    SignatureSet::build(&hasher, &ids, |_, _| {}),
                )
            }
        };
        for (l, r) in [(&left, &right), (&right, &left)] {
            let proposals = propose_pairs(&banding, l, r);
            let reference = reference_proposals(&banding, l, r);
            assert_eq!(proposals.pairs, reference.pairs, "b={bands} r={rows} shape={shape}");
            assert_eq!(proposals.raw_collisions, reference.raw_collisions);
        }
    }
}
