//! LSH banding: band-key collisions → candidate pairs.
//!
//! A length-`k` MinHash signature is split into `b` bands of `r` rows
//! (`k = b·r`). Two nodes are proposed as a candidate pair iff they agree
//! on *all* `r` rows of at least one band, which happens with probability
//! `1 − (1 − J^r)^b` for Jaccard similarity `J` — the classic S-curve:
//! near-certain for similar pairs, vanishing for dissimilar ones. More
//! bands raise recall; more rows per band sharpen the filter.
//!
//! Proposal is *bipartite*: a left set and a right set of nodes are
//! bucketed band by band, and only left×right pairs within a bucket are
//! emitted (the matcher proposes copy-1 × copy-2 pairs, never pairs within
//! one copy). Output is rows of ascending left id, each row's right ids
//! ascending and duplicate-free, identical across runs and worker counts.
//!
//! [`propose_pairs`] runs in expected time linear in its input and
//! output, with no global comparison sort: the only sorts are of single
//! radix buckets (a few entries each) and of each left cluster's short
//! row. Every key it buckets on is a [`mix64`] output, so a radix
//! partition on a key's top bits spreads entries evenly:
//!
//! 1. **Band keys.** Each node's band `i` is folded through [`mix64`],
//!    from a per-band seed, into one key as soon as the node is signed
//!    ([`BandKeys`]); no signature is stored. Equal bands give equal keys;
//!    unequal ones collide only with hash-collision probability.
//! 2. **Clusters.** Each side is grouped by a chain hash of a node's `b`
//!    keys, radix-partitioned so equal hashes share a bucket, numbered in
//!    first-member order and stored as CSR (one node per cluster when all
//!    keys differ, the common case). This is exact: a proposal is a
//!    left×right pair with an equal key in some band, so nodes with
//!    identical keys propose the same pairs, and one representative per
//!    cluster does their banding once. (A 64-bit chain-hash collision
//!    merging two key rows only *adds* proposals, which callers verify.)
//! 3. **Per-band join.** Bands run in parallel when asked. Each band
//!    gathers its key of every representative from the stored keys,
//!    radix-partitions both sides into the same buckets and joins bucket
//!    by bucket, emitting every colliding cluster pair.
//! 4. **Rows.** All bands' cluster pairs are counting-sorted by left
//!    cluster into rows of right ids; each short row is sorted and
//!    deduplicated, and stored once for all the left ids of its cluster.
//!
//! A cluster pair is emitted once per band it agrees on, so step 3 emits
//! at most `b ×` the distinct cluster pairs, a bound reached only when
//! every colliding pair has identical keys.

use crate::minhash::BandKeys;
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
}

/// Candidate pairs proposed by banded bucketing, as rows of ascending left
/// id, each row's right ids ascending and distinct (a row shared by a left
/// cluster's members is stored once), plus the raw (pre-dedup) collision
/// count: the work the banding stage did. The matcher's blocked phase adds
/// it to the `lsh_band_collisions` telemetry counter, next to
/// `lsh_proposals`, so a trace shows banding's waste ratio.
///
/// A pair agreeing on several bands is found once per band, and the
/// per-band results are merged per left cluster. `raw_collisions` is at
/// most `b ×` the number of pairs, with equality only when every proposed
/// pair has identical keys.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Proposals {
    /// `(left id, row)` of every left node with a non-empty row, in
    /// ascending left id.
    lefts: Vec<(u32, u32)>,
    /// Row `c`'s right ids are `rights[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    rights: Vec<u32>,
    /// Band-bucket collisions before deduplication (a pair agreeing on
    /// several bands is counted once per band).
    pub raw_collisions: u64,
}

impl Proposals {
    /// Number of proposed (deduplicated) pairs.
    pub fn len(&self) -> u64 {
        self.rows().map(|(_, rights)| rights.len() as u64).sum()
    }

    /// True if nothing was proposed.
    pub fn is_empty(&self) -> bool {
        self.lefts.is_empty()
    }

    /// The `i`-th row: its left id and its right ids.
    #[inline]
    pub fn row(&self, i: usize) -> (u32, &[u32]) {
        let (left, c) = self.lefts[i];
        (left, &self.rights[self.starts[c as usize]..self.starts[c as usize + 1]])
    }

    /// Every row (left ids with at least one proposal), ascending.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = (u32, &[u32])> + '_ {
        (0..self.lefts.len()).map(|i| self.row(i))
    }

    /// Every proposed `(left, right)` pair, in ascending order.
    pub fn pairs(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.rows().flat_map(|(left, rights)| rights.iter().map(move |&right| (left, right)))
    }
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
fn radix_partition(
    keys: impl Iterator<Item = u64> + Clone,
    buckets: usize,
) -> (Vec<u32>, Vec<(u64, u32)>) {
    counting_sort(buckets, keys.zip(0u32..).map(|(key, i)| (bucket_of(key, buckets), (key, i))))
}

/// One side's nodes grouped by their `b` band keys, numbered in
/// first-member order.
struct Clusters {
    /// `reps[c]`: the node index of cluster `c`'s first member.
    reps: Vec<u32>,
    /// `of[i]`: the cluster of node index `i`.
    of: Vec<u32>,
    /// Cluster `c`'s node ids, in index order, are
    /// `members[starts[c]..starts[c + 1]]`.
    starts: Vec<u32>,
    members: Vec<u32>,
}

impl Clusters {
    /// Groups a key set by a 64-bit chain hash of each node's band keys.
    /// A hash collision merging two different key rows only *adds*
    /// proposals (callers verify proposals exactly), and at 64 bits it is
    /// vanishingly unlikely.
    fn of(set: &BandKeys) -> Clusters {
        let n = set.len();
        // Chain hashes of the key rows, four at a time: each chain is a
        // serial run of `b` mix64 calls, and interleaving four independent
        // chains hides their latency.
        let mut hashes = vec![0x51C7_C0DE_u64; n];
        for (block, hs) in hashes.chunks_mut(4).enumerate() {
            for band in 0..set.banding().bands() {
                for (j, h) in hs.iter_mut().enumerate() {
                    *h = mix64(*h ^ set.keys_at(block * 4 + j)[band]);
                }
            }
        }
        // first[i]: the lowest index whose keys hash like i's. Equal
        // hashes share a bucket; sorting a bucket (a handful of entries)
        // puts each run of equal hashes behind its lowest index.
        let mut first: Vec<u32> = (0..n as u32).collect();
        let (starts, mut entries) = radix_partition(hashes.iter().copied(), n);
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

    fn members(&self, c: u32) -> &[u32] {
        &self.members[self.starts[c as usize] as usize..self.starts[c as usize + 1] as usize]
    }
}

/// Proposes left×right candidate pairs: for every band, left and right
/// nodes are bucketed by band key and each bucket emits its cross product.
/// The module doc describes the steps. Bands are joined in parallel only
/// when `parallel` is set; the key sets are released before the rows are
/// built. Both sets must share one [`Banding`], and each side's ids must be
/// distinct.
pub fn propose_pairs(left: BandKeys, right: BandKeys, parallel: bool) -> Proposals {
    assert_eq!(left.banding(), right.banding(), "both sides must share one banding");
    if left.is_empty() || right.is_empty() {
        return Proposals::default();
    }
    let (lc, rc) = (Clusters::of(&left), Clusters::of(&right));
    let (nl, nr) = (lc.reps.len(), rc.reps.len());
    let join = |&band: &usize| {
        // Both sides share one bucket count, so equal keys share a
        // bucket; about one entry per bucket on the larger side.
        let buckets = nl.max(nr);
        let l_keys = lc.reps.iter().map(|&i| left.keys_at(i as usize)[band]);
        let r_keys = rc.reps.iter().map(|&i| right.keys_at(i as usize)[band]);
        let (ls, le) = radix_partition(l_keys, buckets);
        let (rs, re) = radix_partition(r_keys, buckets);
        let mut hits: Vec<(u32, u32)> = Vec::new();
        for bucket in 0..buckets {
            let rb = &re[rs[bucket] as usize..rs[bucket + 1] as usize];
            for &(key, l) in &le[ls[bucket] as usize..ls[bucket + 1] as usize] {
                for &(_, r) in rb.iter().filter(|(rkey, _)| *rkey == key) {
                    hits.push((l, r));
                }
            }
        }
        hits
    };
    let bands: Vec<usize> = (0..left.banding().bands()).collect();
    let per_band: Vec<Vec<(u32, u32)>> = if parallel {
        bands.par_iter().map(join).collect()
    } else {
        bands.iter().map(join).collect()
    };
    let left_ids = left.into_ids();
    drop(right);
    // Rows: every hit's right ids under its left cluster (a counting sort
    // by left cluster), then each row sorted and deduplicated in place.
    // Distinct right clusters have disjoint ids, so deduplicating ids
    // deduplicates cluster pairs. The sort is written out here because a
    // hit expands to several ids: through `counting_sort`'s iterator it
    // measured about three times slower.
    let mut starts = vec![0usize; nl + 2];
    for &(l, r) in per_band.iter().flatten() {
        starts[l as usize + 2] += rc.members(r).len();
    }
    for j in 1..starts.len() {
        starts[j] += starts[j - 1];
    }
    let mut rights = vec![0u32; starts[nl + 1]];
    for &(l, r) in per_band.iter().flatten() {
        let slot = &mut starts[l as usize + 1];
        for &rid in rc.members(r) {
            rights[*slot] = rid;
            *slot += 1;
        }
    }
    drop(per_band);
    // Each row sorted and compacted in place to its distinct ids;
    // `starts[c + 1]` becomes row `c`'s end in the compacted ids.
    let (mut raw_collisions, mut start, mut len) = (0u64, 0, 0);
    for c in 0..nl {
        let end = starts[c + 1];
        raw_collisions += (lc.members(c as u32).len() * (end - start)) as u64;
        rights[start..end].sort_unstable();
        let mut prev = u64::MAX;
        for k in start..end {
            let rid = rights[k];
            rights[len] = rid;
            len += usize::from(u64::from(rid) != prev);
            prev = u64::from(rid);
        }
        (starts[c + 1], start) = (len, end);
    }
    starts.pop();
    rights.truncate(len);
    // Left ids with their cluster's row, empty rows left out, in ascending
    // id (a linear pass when they already are).
    let mut lefts: Vec<(u32, u32)> = left_ids.into_iter().zip(lc.of).collect();
    lefts.retain(|&(_, c)| starts[c as usize] < starts[c as usize + 1]);
    lefts.sort_unstable();
    Proposals { lefts, starts, rights, raw_collisions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minhash::MinHasher;

    fn keys(banding: &Banding, seed: u64, id: u32, items: &[u64]) -> BandKeys {
        let hasher = MinHasher::new(banding.k(), seed);
        BandKeys::build(&hasher, banding, &[id], |_, out| out.extend(items), false)
    }

    #[test]
    fn identical_sets_always_collide() {
        let banding = Banding::new(4, 2);
        let items: Vec<u64> = (0..20).collect();
        let proposals =
            propose_pairs(keys(&banding, 5, 1, &items), keys(&banding, 5, 9, &items), false);
        assert_eq!(proposals.pairs().collect::<Vec<_>>(), vec![(1, 9)]);
        // Identical sets agree on every band.
        assert_eq!(proposals.raw_collisions, 4);
    }

    #[test]
    fn unrelated_sets_rarely_collide() {
        let banding = Banding::new(8, 4);
        let (left, right): (Vec<u64>, Vec<u64>) = ((0..40).collect(), (1_000..1_040).collect());
        let proposals =
            propose_pairs(keys(&banding, 6, 0, &left), keys(&banding, 6, 0, &right), false);
        assert!(proposals.is_empty());
    }

    #[test]
    fn empty_sides_propose_nothing() {
        let banding = Banding::new(2, 2);
        let (empty, full) = (|| keys(&banding, 8, 0, &[]), || keys(&banding, 8, 3, &[1, 2, 3]));
        assert!(empty().is_empty());
        assert_eq!(propose_pairs(empty(), full(), false), Proposals::default());
        assert_eq!(propose_pairs(full(), empty(), false), Proposals::default());
    }

    #[test]
    fn proposal_is_bipartite_sorted_and_deduplicated() {
        let banding = Banding::new(6, 1);
        let hasher = MinHasher::new(banding.k(), 7);
        let shared = |_: u32, out: &mut Vec<u64>| out.extend(0..30);
        // Two left nodes with the same items never propose each other, and
        // share one stored row.
        let left = BandKeys::build(&hasher, &banding, &[2, 1], shared, false);
        let right = BandKeys::build(&hasher, &banding, &[5], shared, false);
        let proposals = propose_pairs(left, right, false);
        assert_eq!(proposals.pairs().collect::<Vec<_>>(), vec![(1, 5), (2, 5)]);
        assert_eq!(proposals.rights.len(), 1, "one row for the two-member cluster");
        assert_eq!(proposals.raw_collisions, 12);
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
        let items = |div: u32| {
            move |id: u32, out: &mut Vec<u64>| {
                out.extend((0..4).map(|j| u64::from(id / div + j)));
            }
        };
        let left = BandKeys::build(&hasher, &banding, &ids, items(3), false);
        let right = BandKeys::build(&hasher, &banding, &ids, items(2), false);
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
        let proposals = propose_pairs(left, right, false);
        assert_eq!(proposals.pairs().collect::<Vec<_>>(), expected);
        assert_eq!(proposals.len(), expected.len() as u64);
        assert_eq!(proposals.raw_collisions, 106);
    }
}
