//! LSH banding: signature collisions → candidate pairs.
//!
//! A length-`k` MinHash signature is split into `b` bands of `r` rows
//! (`k = b·r`). Two nodes are proposed as a candidate pair iff they agree
//! on *all* `r` rows of at least one band, which happens with probability
//! `1 − (1 − J^r)^b` for Jaccard similarity `J` — the classic S-curve:
//! near-certain for similar pairs, vanishing for dissimilar ones. More
//! bands raise recall; more rows per band sharpen the filter.
//!
//! Proposal is *bipartite*: a left set and a right set of signatures are
//! bucketed band by band, and only left×right pairs within a bucket are
//! emitted (the matcher proposes copy-1 × copy-2 pairs, never pairs within
//! one copy). Output is sorted and duplicate-free, and identical across
//! runs and worker counts.
//!
//! [`propose_pairs`] runs in expected time linear in its input and
//! output, with no global comparison sort: the only sorts are of single
//! radix buckets (a few entries each) and of each left cluster's short
//! row. Every key it buckets on is a [`mix64`] output, so a radix
//! partition on a key's top bits spreads entries evenly:
//!
//! 1. **Clusters.** Each side is grouped by a chain hash of the full
//!    signature, radix-partitioned so equal hashes share a bucket.
//!    Identical signatures collide in every band, so banding one
//!    representative per cluster does their work once. Clusters are
//!    numbered in first-member order and stored as CSR; when every
//!    signature is distinct (the common case) each cluster is one node.
//! 2. **Band keys.** One pass over each representative's signature writes
//!    its `b` band keys, band-major.
//! 3. **Per-band join.** Bands run in parallel. Each band radix-partitions
//!    both sides' keys into the same buckets and joins bucket by bucket,
//!    emitting every colliding cluster pair.
//! 4. **Rows.** All bands' cluster pairs are counting-sorted by left
//!    cluster into rows of right ids; each short row is sorted and
//!    deduplicated, then repeated for every left id of its cluster, in
//!    ascending id order.
//!
//! A cluster pair is emitted once per band it agrees on, so step 3 emits
//! at most `b ×` the distinct cluster pairs, a bound reached only when
//! every colliding pair has identical signatures.

use crate::minhash::SignatureSet;
use rand::hash::mix64;
use rayon::prelude::*;

/// A `b × r` banding scheme over signatures of length `k = b·r`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Banding {
    bands: usize,
    rows: usize,
}

impl Banding {
    /// A scheme with `bands` bands of `rows` rows each. Both must be at
    /// least 1.
    pub fn new(bands: usize, rows: usize) -> Banding {
        assert!(bands >= 1 && rows >= 1, "banding needs at least one band and one row");
        Banding { bands, rows }
    }

    /// Number of bands `b`.
    pub fn bands(&self) -> usize {
        self.bands
    }

    /// Rows per band `r`.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Required signature length `k = b·r`.
    pub fn k(&self) -> usize {
        self.bands * self.rows
    }

    /// The band keys of each representative's signature, band-major:
    /// `keys[band * reps.len() + c]` folds band `band` of `reps[c]`'s
    /// signature through [`mix64`], from a per-band seed. Signatures
    /// agreeing on a whole band agree on its key; unequal bands collide
    /// only with hash-collision probability.
    fn band_keys(&self, set: &SignatureSet, reps: &[u32]) -> Vec<u64> {
        let n = reps.len();
        let seeds: Vec<u64> =
            (0..self.bands).map(|band| mix64(0x00B1_0C55 ^ band as u64)).collect();
        let mut keys = vec![0u64; self.bands * n];
        for (c, &rep) in reps.iter().enumerate() {
            let sig = set.signature_at(rep as usize);
            for (band, (rows, &seed)) in sig.chunks_exact(self.rows).zip(&seeds).enumerate() {
                keys[band * n + c] = rows.iter().fold(seed, |acc, &row| mix64(acc ^ row));
            }
        }
        keys
    }
}

/// Candidate pairs proposed by banded bucketing, plus the raw (pre-dedup)
/// collision count: the work the banding stage did. The matcher's blocked
/// phase adds it to the `lsh_band_collisions` telemetry counter, next to
/// `lsh_proposals`, so a trace shows banding's waste ratio.
///
/// A pair agreeing on several bands is found once per band, and the
/// per-band results are merged per left cluster. `raw_collisions` is at
/// most `b ×` the number of pairs, with equality only when every proposed
/// pair has identical signatures.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Proposals {
    /// Deduplicated `(left, right)` candidate pairs in ascending order.
    pub pairs: Vec<(u32, u32)>,
    /// Band-bucket collisions before deduplication (a pair agreeing on
    /// several bands is counted once per band).
    pub raw_collisions: u64,
}

/// The bucket of a uniform 64-bit key among `buckets`: its top bits, by
/// multiply-shift range reduction (no division, any bucket count).
#[inline]
fn bucket_of(key: u64, buckets: usize) -> usize {
    ((u128::from(key) * buckets as u128) >> 64) as usize
}

/// Stable counting sort of `items`, each tagged with its bucket below
/// `buckets`. Returns `(starts, sorted)`: bucket `b` holds
/// `sorted[starts[b]..starts[b + 1]]`, in input order. `items` is walked
/// twice, once to count and once to scatter.
fn counting_sort<T: Copy + Default>(
    buckets: usize,
    items: impl Iterator<Item = (usize, T)> + Clone,
) -> (Vec<u32>, Vec<T>) {
    // Counts land two slots up, so after the prefix sum `starts[b + 1]` is
    // bucket b's first slot; scattering advances it to bucket b's end,
    // which is bucket b + 1's first slot.
    let mut starts = vec![0u32; buckets + 2];
    for (b, _) in items.clone() {
        starts[b + 2] += 1;
    }
    for j in 1..starts.len() {
        starts[j] += starts[j - 1];
    }
    let mut sorted = vec![T::default(); starts[buckets + 1] as usize];
    for (b, item) in items {
        let slot = &mut starts[b + 1];
        sorted[*slot as usize] = item;
        *slot += 1;
    }
    starts.pop();
    (starts, sorted)
}

/// Radix-partitions `(keys[i], i)` by [`bucket_of`] into `buckets`
/// buckets, each in ascending `i`.
fn radix_partition(keys: &[u64], buckets: usize) -> (Vec<u32>, Vec<(u64, u32)>) {
    counting_sort(
        buckets,
        keys.iter().zip(0u32..).map(|(&key, i)| (bucket_of(key, buckets), (key, i))),
    )
}

/// One side's signatures grouped by *full* signature, numbered in
/// first-member order.
struct Clusters {
    /// `reps[c]`: the signature index of cluster `c`'s first member.
    reps: Vec<u32>,
    /// `of[i]`: the cluster of signature index `i`.
    of: Vec<u32>,
    /// Cluster `c`'s node ids, in index order, are
    /// `members[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    members: Vec<u32>,
}

impl Clusters {
    /// Groups a signature set by a 64-bit chain hash of the full
    /// signature. A hash collision merging two genuinely different
    /// signatures only *adds* proposals (callers verify proposals
    /// exactly), and at 64 bits it is vanishingly unlikely.
    fn of(set: &SignatureSet) -> Clusters {
        let n = set.len();
        // Chain hashes of the full signatures, four at a time: each chain
        // is a serial run of `k` mix64 calls, and interleaving four
        // independent chains hides their latency.
        let mut hashes = vec![0x51C7_C0DE_u64; n];
        for (block, hs) in hashes.chunks_mut(4).enumerate() {
            for row in 0..set.k() {
                for (j, h) in hs.iter_mut().enumerate() {
                    *h = mix64(*h ^ set.signature_at(block * 4 + j)[row]);
                }
            }
        }
        // first[i]: the lowest index whose signature hashes like i's. Equal
        // hashes share a bucket; sorting a bucket (a handful of entries)
        // puts each run of equal hashes behind its lowest index.
        let mut first: Vec<u32> = (0..n as u32).collect();
        let (starts, mut entries) = radix_partition(&hashes, n);
        for w in starts.windows(2) {
            let bucket = &mut entries[w[0] as usize..w[1] as usize];
            bucket.sort_unstable();
            for run in bucket.chunk_by(|a, b| a.0 == b.0) {
                for &(_, i) in &run[1..] {
                    first[i as usize] = run[0].1;
                }
            }
        }
        let mut reps = Vec::with_capacity(n);
        let mut of = vec![0u32; n];
        for i in 0..n {
            let f = first[i] as usize;
            if f == i {
                of[i] = reps.len() as u32;
                reps.push(i as u32);
            } else {
                of[i] = of[f];
            }
        }
        let ids = set.ids();
        let (starts, members) = if reps.len() == n {
            ((0..=n as u32).collect(), ids.to_vec())
        } else {
            counting_sort(reps.len(), of.iter().zip(ids).map(|(&c, &id)| (c as usize, id)))
        };
        Clusters { reps, of, starts, members }
    }

    fn len(&self) -> usize {
        self.reps.len()
    }

    fn members(&self, c: u32) -> &[u32] {
        &self.members[self.starts[c as usize] as usize..self.starts[c as usize + 1] as usize]
    }
}

/// Proposes left×right candidate pairs: for every band, left and right
/// signatures are bucketed by band key and each bucket emits its cross
/// product. Pairs are returned sorted and deduplicated. The module doc
/// describes the steps.
///
/// Both signature sets must have length `banding.k()` signatures, and
/// each side's ids must be distinct.
pub fn propose_pairs(banding: &Banding, left: &SignatureSet, right: &SignatureSet) -> Proposals {
    assert_eq!(left.k(), banding.k(), "left signatures must have length b*r");
    assert_eq!(right.k(), banding.k(), "right signatures must have length b*r");
    if left.is_empty() || right.is_empty() {
        return Proposals::default();
    }
    let (lc, rc) = (Clusters::of(left), Clusters::of(right));
    let (nl, nr) = (lc.len(), rc.len());
    let (l_keys, r_keys) = (banding.band_keys(left, &lc.reps), banding.band_keys(right, &rc.reps));
    let bands: Vec<usize> = (0..banding.bands()).collect();
    let per_band: Vec<Vec<(u32, u32)>> = bands
        .par_iter()
        .map(|&band| {
            // Both sides share one bucket count, so equal keys share a
            // bucket; about one entry per bucket on the larger side.
            let buckets = nl.max(nr);
            let (ls, le) = radix_partition(&l_keys[band * nl..(band + 1) * nl], buckets);
            let (rs, re) = radix_partition(&r_keys[band * nr..(band + 1) * nr], buckets);
            let mut hits = Vec::new();
            for bucket in 0..buckets {
                let rb = &re[rs[bucket] as usize..rs[bucket + 1] as usize];
                for &(key, l) in &le[ls[bucket] as usize..ls[bucket + 1] as usize] {
                    for &(_, r) in rb.iter().filter(|(rkey, _)| *rkey == key) {
                        hits.push((l, r));
                    }
                }
            }
            hits
        })
        .collect();
    // Rows: every hit's right ids under its left cluster (a counting sort
    // by left cluster), then each row sorted and deduplicated in place.
    // Distinct right clusters have disjoint ids, so deduplicating ids
    // deduplicates cluster pairs. The sort is written out here because a
    // hit expands to several ids: through `counting_sort`'s iterator it
    // measured about three times slower.
    let mut row_starts = vec![0usize; nl + 2];
    for &(l, r) in per_band.iter().flatten() {
        row_starts[l as usize + 2] += rc.members(r).len();
    }
    for j in 1..row_starts.len() {
        row_starts[j] += row_starts[j - 1];
    }
    let mut row_ids = vec![0u32; row_starts[nl + 1]];
    for &(l, r) in per_band.iter().flatten() {
        let slot = &mut row_starts[l as usize + 1];
        for &rid in rc.members(r) {
            row_ids[*slot] = rid;
            *slot += 1;
        }
    }
    drop(per_band);
    let mut raw_collisions = 0u64;
    let mut rows = vec![0usize; nl + 1];
    let mut len = 0;
    for c in 0..nl {
        let (start, end) = (row_starts[c], row_starts[c + 1]);
        raw_collisions += (lc.members(c as u32).len() * (end - start)) as u64;
        row_ids[start..end].sort_unstable();
        let mut prev = u64::MAX;
        for k in start..end {
            let rid = row_ids[k];
            row_ids[len] = rid;
            len += usize::from(u64::from(rid) != prev);
            prev = u64::from(rid);
        }
        rows[c + 1] = len;
    }
    // Expansion, left ids ascending (a linear pass when they already are).
    let mut order: Vec<u32> = (0..left.len() as u32).collect();
    order.sort_by_key(|&i| left.ids()[i as usize]);
    let row = |i: u32| {
        let c = lc.of[i as usize] as usize;
        &row_ids[rows[c]..rows[c + 1]]
    };
    let mut pairs = Vec::with_capacity(order.iter().map(|&i| row(i).len()).sum());
    for i in order {
        let lid = left.ids()[i as usize];
        pairs.extend(row(i).iter().map(|&rid| (lid, rid)));
    }
    Proposals { pairs, raw_collisions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHasher;

    fn sig_set(hasher: &MinHasher, sets: &[(u32, Vec<u64>)]) -> SignatureSet {
        let ids: Vec<u32> = sets.iter().map(|(id, _)| *id).collect();
        SignatureSet::build(hasher, &ids, |id, out| {
            out.extend(&sets.iter().find(|(i, _)| *i == id).unwrap().1);
        })
    }

    #[test]
    fn identical_sets_always_collide() {
        let banding = Banding::new(4, 2);
        let hasher = MinHasher::new(banding.k(), 5);
        let items: Vec<u64> = (0..20).collect();
        let left = sig_set(&hasher, &[(1, items.clone())]);
        let right = sig_set(&hasher, &[(9, items)]);
        let proposals = propose_pairs(&banding, &left, &right);
        assert_eq!(proposals.pairs, vec![(1, 9)]);
        // Identical signatures agree on every band.
        assert_eq!(proposals.raw_collisions, 4);
    }

    #[test]
    fn unrelated_sets_rarely_collide() {
        let banding = Banding::new(8, 4);
        let hasher = MinHasher::new(banding.k(), 6);
        let left = sig_set(&hasher, &[(0, (0..40).collect())]);
        let right = sig_set(&hasher, &[(0, (1_000..1_040).collect())]);
        assert!(propose_pairs(&banding, &left, &right).pairs.is_empty());
    }

    #[test]
    fn proposal_is_bipartite_sorted_and_deduplicated() {
        let banding = Banding::new(6, 1);
        let hasher = MinHasher::new(banding.k(), 7);
        let shared: Vec<u64> = (0..30).collect();
        // Two left nodes with the same items never propose each other.
        let left = sig_set(&hasher, &[(2, shared.clone()), (1, shared.clone())]);
        let right = sig_set(&hasher, &[(5, shared)]);
        let proposals = propose_pairs(&banding, &left, &right);
        assert_eq!(proposals.pairs, vec![(1, 5), (2, 5)]);
        assert!(proposals.raw_collisions >= proposals.pairs.len() as u64);
    }

    #[test]
    fn empty_sides_propose_nothing() {
        let banding = Banding::new(2, 2);
        let hasher = MinHasher::new(banding.k(), 8);
        let empty = sig_set(&hasher, &[]);
        let full = sig_set(&hasher, &[(3, vec![1, 2, 3])]);
        assert_eq!(propose_pairs(&banding, &empty, &full), Proposals::default());
        assert_eq!(propose_pairs(&banding, &full, &empty), Proposals::default());
    }

    /// The proposals of one small fixed input, recorded before banding
    /// dropped its comparison sorts. Left ids `3t..3t+2` and right ids
    /// `2t, 2t+1` share item sets, so both sides have multi-member
    /// clusters.
    #[test]
    fn proposals_are_pinned() {
        let banding = Banding::new(4, 2);
        let hasher = MinHasher::new(banding.k(), 7);
        let ids: Vec<u32> = (0..8).collect();
        let left = SignatureSet::build(&hasher, &ids, |id, out| {
            out.extend((0..4).map(|j| u64::from(id / 3 + j)));
        });
        let right = SignatureSet::build(&hasher, &ids, |id, out| {
            out.extend((0..4).map(|j| u64::from(id / 2 + j)));
        });
        let rows: [(u32, std::ops::RangeInclusive<u32>); 8] = [
            (0, 0..=3),
            (1, 0..=3),
            (2, 0..=3),
            (3, 0..=5),
            (4, 0..=5),
            (5, 0..=5),
            (6, 2..=5),
            (7, 2..=5),
        ];
        let expected: Vec<(u32, u32)> =
            rows.into_iter().flat_map(|(l, rs)| rs.map(move |r| (l, r))).collect();
        let proposals = propose_pairs(&banding, &left, &right);
        assert_eq!(proposals.pairs, expected);
        assert_eq!(proposals.raw_collisions, 106);
    }
}
