//! Property tests for the sketch crate: MinHash must estimate Jaccard
//! similarity within statistical tolerance, banding must match a
//! brute-force band comparison of full signatures and be deterministic
//! across runs and build strategies, and degenerate inputs (empty or
//! singleton item sets) must be handled, never panicked on.

use snr_sketch::{propose_pairs, BandKeys, Banding, MinHasher};

/// Estimates the Jaccard similarity of the two sets behind `a` and `b`:
/// the fraction of agreeing signature components.
fn estimate_jaccard(a: &[u64], b: &[u64]) -> f64 {
    assert_eq!(a.len(), b.len(), "signatures must have equal length");
    a.iter().zip(b).filter(|(x, y)| x == y).count() as f64 / a.len() as f64
}

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
        n in 1usize..2_000,
        seed in 0u64..10_000,
    ) {
        let banding = Banding::new(bands, rows);
        let hasher = MinHasher::new(banding.k(), seed);
        let ids: Vec<u32> = (0..n as u32).collect();
        // Overlapping item sets so some proposals actually fire; every
        // 13th set is empty, so parallel pieces splice.
        let items = |id: u32, out: &mut Vec<u64>| {
            for i in 0..(id % 13) {
                out.push(u64::from(id / 7 + i));
            }
        };
        let left_seq = BandKeys::build(&hasher, &banding, &ids, items, false);
        let left_par = four_workers(|| BandKeys::build(&hasher, &banding, &ids, items, true));
        assert_eq!(left_seq, left_par, "parallel key build must be bit-identical");
        let right_items = |id: u32, out: &mut Vec<u64>| items(id.wrapping_add(3), out);
        let right = BandKeys::build(&hasher, &banding, &ids, right_items, false);
        let first = propose_pairs(left_seq, right.clone(), false);
        let second = four_workers(|| propose_pairs(left_par, right, true));
        assert_eq!(first, second, "proposals must be identical across runs and worker counts");
        // Sorted, deduplicated output is part of the contract.
        let pairs: Vec<(u32, u32)> = first.pairs().collect();
        let mut sorted = pairs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(pairs, sorted);
        assert_eq!(first.len(), pairs.len() as u64);
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
        let left = BandKeys::build(&hasher, &banding, &[0, 1], items, false);
        let right = BandKeys::build(&hasher, &banding, &[2, 3], items, true);
        assert_eq!(left.len(), 1, "empty item sets are skipped, not sketched");
        assert_eq!(right.len(), 1);
        let proposals = propose_pairs(left.clone(), right, false);
        // The two singletons {0} and {1} are disjoint; they may only meet
        // through a band-key hash collision, which k=bands*rows independent
        // mix64 rounds make effectively impossible.
        assert!(proposals.is_empty(), "disjoint singletons proposed: {proposals:?}");
        // Identical singletons always collide in every band.
        let twin = BandKeys::build(&hasher, &banding, &[1], items, false);
        let hit = propose_pairs(left, twin, true);
        assert_eq!(hit.pairs().collect::<Vec<_>>(), vec![(1, 1)]);
        assert_eq!(hit.raw_collisions, bands as u64);
    }
}

/// Runs `op` in a four-worker pool, so parallel builds split on any host.
fn four_workers<R: Send>(op: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap().install(op)
}

#[test]
fn identical_sets_have_identical_signatures() {
    let hasher = MinHasher::new(16, 7);
    let a = hasher.signature([3u64, 1, 4, 15]).unwrap();
    let b = hasher.signature([15u64, 4, 3, 1]).unwrap();
    assert_eq!(a, b, "signatures are order-independent");
    assert_eq!(estimate_jaccard(&a, &b), 1.0);
}

#[test]
fn disjoint_sets_mostly_disagree() {
    let hasher = MinHasher::new(64, 11);
    let a = hasher.signature((0..50).map(|i| i * 2)).unwrap();
    let b = hasher.signature((0..50).map(|i| i * 2 + 1)).unwrap();
    assert!(estimate_jaccard(&a, &b) < 0.2, "disjoint sets should rarely agree");
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

/// One side of a banding input: its ids and their item sets.
type Side = (Vec<u32>, fn(u32, &mut Vec<u64>));

/// The literal definition of banding, on full signatures: a left×right
/// pair is proposed iff `MinHasher::signature` of the two item sets are
/// equal on every row of some band, and the raw collision count counts
/// each (pair, agreeing band) once. It shares no code with the band-key
/// path. Returns `(pairs, raw_collisions)`.
fn reference_proposals(
    banding: &Banding,
    hasher: &MinHasher,
    left: &Side,
    right: &Side,
) -> (Vec<(u32, u32)>, u64) {
    let signatures = |(ids, items_of): &Side| -> Vec<(u32, Vec<u64>)> {
        ids.iter()
            .filter_map(|&id| {
                let mut items = Vec::new();
                items_of(id, &mut items);
                hasher.signature(items).map(|sig| (id, sig))
            })
            .collect()
    };
    let rows = banding.rows();
    let (mut pairs, mut raw) = (Vec::new(), 0u64);
    for (lid, a) in signatures(left) {
        for (rid, b) in signatures(right) {
            let agreeing = (0..banding.bands())
                .filter(|band| {
                    a[band * rows..(band + 1) * rows] == b[band * rows..(band + 1) * rows]
                })
                .count() as u64;
            raw += agreeing;
            if agreeing > 0 {
                pairs.push((lid, rid));
            }
        }
    }
    pairs.sort_unstable();
    (pairs, raw)
}

/// `propose_pairs` on band keys against [`reference_proposals`], both
/// ways round. Returns the reference.
fn check_against_reference(
    banding: &Banding,
    hasher: &MinHasher,
    left: &Side,
    right: &Side,
) -> (Vec<(u32, u32)>, u64) {
    let keys = |(ids, items_of): &Side| BandKeys::build(hasher, banding, ids, items_of, false);
    for (l, r, parallel) in [(left, right, false), (right, left, true)] {
        let proposals = propose_pairs(keys(l), keys(r), parallel);
        let reference = reference_proposals(banding, hasher, l, r);
        let label = format!("{banding:?}");
        assert_eq!(proposals.pairs().collect::<Vec<_>>(), reference.0, "{label}");
        assert_eq!(proposals.len(), reference.0.len() as u64, "{label}");
        assert_eq!(proposals.raw_collisions, reference.1, "{label}");
    }
    reference_proposals(banding, hasher, left, right)
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
        let (left, right): (Side, Side) = match shape {
            // Few distinct overlapping sets: many identical signatures,
            // so both sides have multi-member clusters.
            0 => (
                (ids.clone(), |id, out| out.extend((0..3).map(|j| u64::from(id % 5 + j)))),
                (ids, |id, out| out.extend((0..3).map(|j| u64::from(id / 2 % 5 + j)))),
            ),
            // Sliding windows: every signature distinct, neighbours close.
            1 => (
                (ids.clone(), |id, out| out.extend((0..4).map(|j| u64::from(id + j)))),
                (ids, |id, out| out.extend((0..4).map(|j| u64::from(id + 2 + j)))),
            ),
            // One side has no signatures at all.
            _ => ((ids.clone(), |id, out| out.push(u64::from(id))), (ids, |_, _| {})),
        };
        check_against_reference(&banding, &hasher, &left, &right);
    }
}

/// Sets sharing a large core with a few private items: proposed pairs
/// agree on some bands but not all, so the raw count sees partial
/// agreement. The left side's private
/// items repeat every 3 ids and the right side's every 4, so both sides
/// also have multi-member clusters.
#[test]
fn partial_band_agreement_matches_the_reference() {
    let banding = Banding::new(8, 2);
    let hasher = MinHasher::new(banding.k(), 0x5eed);
    let ids: Vec<u32> = (0..40).collect();
    let left: Side = (ids.clone(), |id, out| {
        out.extend(0..12u64);
        out.extend((0..3).map(|j| 100 + u64::from(id % 3) * 3 + j));
    });
    let right: Side = (ids, |id, out| {
        out.extend(0..12u64);
        out.extend((0..3).map(|j| 100 + u64::from(id % 4) * 2 + j));
    });
    let (pairs, raw) = check_against_reference(&banding, &hasher, &left, &right);
    let all = banding.bands() as u64 * pairs.len() as u64;
    assert!(!pairs.is_empty() && raw < all, "{} pairs, {raw} raw collisions", pairs.len());
}
