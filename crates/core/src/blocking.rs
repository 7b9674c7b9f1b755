//! MinHash/LSH candidate blocking — the approximate filter in front of the
//! exact arena scorer.
//!
//! The exact phase scores every candidate copy-1 row against every eligible
//! copy-2 node reachable through a witness link; its cost is the full
//! witness-contribution sum `Σ_{(w1,w2)∈L} d1(w1)·d2(w2)`, and at R-MAT-20+
//! *generating* those pairs is the wall the ROADMAP flagged. This module
//! shrinks the scored set with a sketch:
//!
//! * A node's **witness-link set** is the set of link indices adjacent to
//!   it: `S1(u) = {k : w1_k ∈ N1(u)}` on the copy-1 side and
//!   `S2(v) = {k : w2_k ∈ N2(v)}` on the copy-2 side. The exact score is
//!   their intersection size, `score(u, v) = |S1(u) ∩ S2(v)|`, so pairs
//!   with a high score have high Jaccard similarity relative to their set
//!   sizes — exactly the pairs MinHash + LSH banding is built to find.
//! * Each candidate's row is decoded **once** into its witness-link list
//!   (link indices in [`Linking::pairs`] order), and each side's lists are
//!   kept as one CSR of `u32`. A list shorter than the threshold is
//!   dropped: such a node cannot reach `T` against any partner.
//! * Both sides' lists are sketched with the **same** `k = b·r` hash family
//!   ([`snr_sketch::MinHasher`]), signatures are banded, and colliding
//!   left×right pairs become proposals ([`snr_sketch::propose_pairs`]).
//! * Proposals are re-scored **exactly** by list intersection: each
//!   proposed row stamps `S1(u)` into a link-indexed array once, and each
//!   proposed `v` scores the stamped entries of `S2(v)`. Copy 2 is
//!   undirected and every proposed `v` is eligible, so this is the score
//!   the exact arena would give the pair. The `(v, score)` entries feed a
//!   [`SelectSink`], so every link the blocked phase emits carries its true
//!   witness count — blocking can miss pairs (bounded recall), never
//!   mis-score them.
//!
//! The blocked arm builds no [`LinkCache`]; only the adaptive gate does,
//! when its floor is above 0, to measure the exact scan and to run it on
//! light phases. The verify's work is the list entries it intersects (the
//! `lsh_verify_entries` counter), not the exact scan's bumps: the
//! whole-run benchmark's `core.bumps` on an LSH workload still reports
//! [`phase_mass`], the exact scan's work, which the blocked verify does
//! not do.
//!
//! Everything is deterministic: the hash family derives from the phase
//! seed, lists are decoded sequentially, signatures and verify are
//! bit-identical sequential or parallel, and
//! proposals arrive sorted and deduplicated — the blocked phase returns the
//! same links for the same inputs at any worker count.

use crate::linking::Linking;
use crate::scoring::{score_phase_cached, LinkCache, ScoreArena, SelectSink, PARALLEL_CUTOFF};
use rayon::prelude::*;
use snr_graph::{GraphView, NodeId};
pub use snr_sketch::Banding;
use snr_sketch::{propose_pairs, MinHasher, SignatureSet};

/// Slot of a node that is not a link endpoint.
const UNLINKED: u32 = u32::MAX;

/// Base seed of the per-phase sketch hash families. The algorithm XORs in
/// the iteration and bucket so consecutive phases re-draw their hash
/// functions, but the whole run stays a pure function of its inputs.
pub const DEFAULT_SKETCH_SEED: u64 = 0x534e_525f_534b_4554; // "SNR_SKET"

/// Default scored-pair floor below which an LSH-configured phase falls back
/// to the exact scan (see [`should_block`]). 2²⁶ ≈ 67M scored pairs — under
/// that, the exact scan's selection work runs in a couple of seconds at most
/// (~15 ns per entry) and the measured sketch + banding overhead plus the
/// cascade cost of the links blocking misses exceed what it saves. On the
/// R-MAT-18/19 calibration runs this floor blocks nothing at R-MAT-18
/// (whose largest phase scores ~51M pairs and where blocking measured as a
/// slight net loss) and exactly the two heavyweight phases at R-MAT-19
/// (76M and 172M scored pairs, a ~9% end-to-end win).
pub const DEFAULT_LSH_MASS_FLOOR: u64 = 1 << 26;

/// Minimum scored pairs *per candidate row* for blocking to pay: below
/// this, rows are cheap to scan exactly and the sketch is pure overhead.
const LSH_MASS_PER_ROW: u64 = 2048;

/// Number of candidate rows the scored-pair estimator scans.
const SCORED_SAMPLE_ROWS: usize = 256;

/// The exact phase's arena work on `candidates`, computed from the phase's
/// [`LinkCache`]: every candidate row `u` bumps once per entry of
/// `eligible_of(w1)` for each neighbor `w1` that is a link endpoint. This is
/// the *true* bump count of the scan — not an upper bound — at the cost of
/// one cache lookup per (candidate, neighbor) incidence, two to three
/// orders of magnitude cheaper than the scan itself.
pub fn phase_mass<G1>(g1: &G1, cache: &LinkCache, candidates: &[u32]) -> u64
where
    G1: GraphView,
{
    let mut mass = 0u64;
    for &u in candidates {
        for w1 in g1.neighbors_iter(NodeId(u)) {
            if let Some(vs) = cache.eligible_of(w1) {
                mass += vs.len() as u64;
            }
        }
    }
    mass
}

/// Strided-sample estimate of the exact phase's scored-pair count — the
/// number of distinct `(u, v)` entries its selection stage would process,
/// the quantity the gate's floors were calibrated on.
/// Scores every `ceil(n / 256)`-th candidate row through the cache (bumps
/// only, no sink) and extrapolates the rows' first-touch counts, their
/// scored pairs; deterministic,
/// and costs roughly `mass / 256` bumps — a fraction of a percent of the
/// scan it predicts on the phases where the prediction matters.
pub fn estimate_scored_pairs<G1>(g1: &G1, cache: &LinkCache, candidates: &[u32]) -> u64
where
    G1: GraphView,
{
    if candidates.is_empty() {
        return 0;
    }
    let stride = candidates.len().div_ceil(SCORED_SAMPLE_ROWS).max(1);
    // Only the first-touch counts are read, so the arena lists no rank.
    let mut arena = ScoreArena::new(cache.eligible_count(), u32::MAX);
    let mut rows = 0u64;
    let mut scored = 0u64;
    let mut i = 0usize;
    while i < candidates.len() {
        arena.score_row(g1, NodeId(candidates[i]), cache);
        scored += arena.scored() as u64;
        rows += 1;
        i += stride;
    }
    scored.saturating_mul(candidates.len() as u64) / rows.max(1)
}

/// Whether a phase with (estimated) `scored` pairs over `candidates` rows
/// should run the LSH-blocked path instead of the exact scan.
///
/// The exact arena costs a few nanoseconds per entry, so blocking only wins
/// on phases whose scan is *heavy* — in absolute terms (`mass_floor`) and
/// per row (`LSH_MASS_PER_ROW`): light phases pay the sketch + banding
/// overhead without enough scan to save. A `mass_floor` of 0 disables the
/// gate entirely (every phase blocks) — what the recall experiments use to
/// map the pure-blocking trade-off.
pub fn should_block(scored: u64, candidates: usize, mass_floor: u64) -> bool {
    mass_floor == 0
        || (scored >= mass_floor && scored >= LSH_MASS_PER_ROW.saturating_mul(candidates as u64))
}

/// One adaptively blocked phase. With a `mass_floor` above 0 it builds the
/// phase's [`LinkCache`], measures the exact scan's cost ([`phase_mass`] as
/// the quick bound, then [`estimate_scored_pairs`]), and runs the exact
/// scan on that cache for light phases (lossless and faster there). Heavy
/// phases, and every phase at a floor of 0, run the LSH-blocked pipeline
/// on witness-link lists; a floor of 0 builds no cache at all.
/// `candidates2` is only evaluated when the phase blocks, so the exact
/// fallback never pays for the copy-2 eligible scan.
///
/// # Panics
///
/// If `g2` is directed and the phase has links and candidates: both the
/// [`LinkCache`] and the list-intersection verify read copy-2 adjacency in
/// both directions.
#[allow(clippy::too_many_arguments)]
pub fn adaptive_lsh_phase<G1, G2, F>(
    g1: &G1,
    g2: &G2,
    links: &Linking,
    candidates1: &[u32],
    candidates2: F,
    min_deg2: usize,
    threshold: u32,
    banding: &Banding,
    seed: u64,
    mass_floor: u64,
    parallel: bool,
) -> (usize, Vec<(NodeId, NodeId)>)
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
    F: FnOnce() -> Vec<u32>,
{
    let n2 = g2.node_count();
    if links.is_empty() || candidates1.is_empty() {
        return (0, Vec::new());
    }
    assert!(!g2.is_directed(), "adaptive_lsh_phase needs an undirected copy-2 view");
    // Two-step gate: the exact bump mass is an upper bound on the scored-
    // pair count and cheap to compute, so it rejects light phases without
    // sampling; phases that pass it are gated on the sampled scored-pair
    // estimate — bump-heavy but entry-light hub phases (mass ≫ scored) stay
    // exact, which is where blocking loses.
    let cache = (mass_floor > 0).then(|| LinkCache::build_traced(g2, links, min_deg2));
    let blocked = cache.as_ref().is_none_or(|cache| {
        should_block(phase_mass(g1, cache, candidates1), candidates1.len(), mass_floor)
            && should_block(
                estimate_scored_pairs(g1, cache, candidates1),
                candidates1.len(),
                mass_floor,
            )
    });
    if blocked {
        snr_telemetry::Counter::LshGateSketch.add(1);
    } else {
        snr_telemetry::Counter::LshGateExact.add(1);
    }
    snr_telemetry::event!(
        "lsh_gate",
        verdict = if blocked { "sketch" } else { "exact" },
        rows = candidates1.len(),
    );
    if let Some(cache) = cache.filter(|_| !blocked) {
        // The exact arm scores on the cache the gate already built.
        return score_phase_cached(g1, &cache, n2, candidates1, parallel, || {
            SelectSink::new(n2, threshold)
        })
        .finish();
    }
    let candidates2 = candidates2();
    if candidates2.is_empty() {
        return (0, Vec::new());
    }
    lsh_phase(g1, g2, links, candidates1, &candidates2, threshold, banding, seed, parallel)
}

/// One blocked phase — the blocked arm of [`adaptive_lsh_phase`]: decode
/// both sides' witness-link lists, propose candidate pairs via
/// MinHash/LSH, verify them by list intersection, select mutual bests.
///
/// `candidates1` / `candidates2` are the phase's degree-eligible unlinked
/// nodes of each copy (ascending ids — what [`crate::scoring::CandidateCache`]
/// produces), so degree-bucket compatibility holds for every proposal by
/// construction. Returns `(scored_pairs, selected_pairs)` like
/// [`crate::scoring::fused_phase_on`], where `scored_pairs` counts the
/// proposed pairs with a non-zero exact score — the blocked counterpart of
/// the exact path's scored-pair statistic.
#[allow(clippy::too_many_arguments)]
fn lsh_phase<G1, G2>(
    g1: &G1,
    g2: &G2,
    links: &Linking,
    candidates1: &[u32],
    candidates2: &[u32],
    threshold: u32,
    banding: &Banding,
    seed: u64,
    parallel: bool,
) -> (usize, Vec<(NodeId, NodeId)>)
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let (left, right, signatures) = {
        let _span = snr_telemetry::span!(
            "sketch",
            left = candidates1.len(),
            right = candidates2.len(),
            k = banding.k(),
        );
        // Each endpoint → its link index, in `Linking::pairs` order: both
        // sides list (and sketch) the *same* link index universe.
        let mut slot1 = vec![UNLINKED; g1.node_count().max(links.g1_capacity())];
        let mut slot2 = vec![UNLINKED; g2.node_count().max(links.g2_capacity())];
        for (k, (w1, w2)) in links.pairs().enumerate() {
            slot1[w1.index()] = k as u32;
            slot2[w2.index()] = k as u32;
        }
        // A node scores at most |its witness-link set| against any partner,
        // so a list shorter than the threshold can never produce a
        // selectable link — such a row also cannot be any node's mutual
        // best or tie one (that would need a score ≥ the threshold), so
        // dropping it is exact-safe, not a recall trade. It is also the
        // performance linchpin: with a single-item set every signature
        // component hashes that one item, so all nodes sharing one popular
        // witness link would otherwise carry *identical* signatures,
        // collide in every band, and flood the proposal list with pairs
        // that can only verify below the threshold.
        let floor = threshold.max(1) as usize;
        let left = WitnessLists::decode(g1, candidates1, &slot1, floor);
        let right = WitnessLists::decode(g2, candidates2, &slot2, floor);
        drop((slot1, slot2));
        let hasher = MinHasher::new(banding.k(), seed);
        let signatures = (left.sign(&hasher, parallel), right.sign(&hasher, parallel));
        (left, right, signatures)
    };
    let proposals = {
        let _span = snr_telemetry::span!("band");
        propose_pairs(banding, &signatures.0, &signatures.1)
    };
    drop(signatures);
    snr_telemetry::Counter::LshProposals.add(proposals.pairs.len() as u64);
    snr_telemetry::Counter::LshBandCollisions.add(proposals.raw_collisions);
    let _span = snr_telemetry::span!("verify", proposals = proposals.pairs.len());
    if snr_telemetry::enabled() {
        let entries: usize = proposals.pairs.iter().map(|&(_, j)| right.list(j).len()).sum();
        snr_telemetry::Counter::LshVerifyEntries.add(entries as u64);
    }
    let verify = |pairs: &[(u32, u32)]| {
        verify_rows(&left, &right, pairs, links.len(), SelectSink::new(g2.node_count(), threshold))
    };
    let pairs = &proposals.pairs[..];
    if !parallel || pairs.len() < PARALLEL_CUTOFF {
        verify(pairs).finish()
    } else {
        let chunks = chunk_pairs_by_row(pairs, rayon::current_num_threads().max(1));
        let sinks: Vec<SelectSink> = chunks.par_iter().map(|chunk| verify(chunk)).collect();
        sinks
            .into_iter()
            .reduce(SelectSink::merge)
            .expect("proposal set is non-empty in the parallel branch")
            .finish()
    }
}

/// One side of a blocked phase: the witness-link list of every node whose
/// list reached the threshold, as one CSR. Proposals and signatures refer
/// to a node by its position `i` here; `ids` is ascending, so position
/// order is id order.
struct WitnessLists {
    /// The kept nodes, in input order.
    ids: Vec<u32>,
    /// `items[starts[i]..starts[i + 1]]` is `ids[i]`'s list.
    starts: Vec<usize>,
    /// Link indices of every kept node's linked neighbours, concatenated.
    items: Vec<u32>,
}

impl WitnessLists {
    /// Decodes each of `nodes`' rows once, mapping every neighbour through
    /// `slot` (link index or [`UNLINKED`]) and keeping the nodes whose
    /// list holds at least `floor` links. Each neighbour is written at the
    /// list's end and only a linked one advances it, so the decode has no
    /// branch on the link test. The decode is sequential on every backend:
    /// on the R-MAT-16 blocked phase a parallel decode measured within the
    /// run-to-run spread of this one.
    fn decode<G: GraphView>(g: &G, nodes: &[u32], slot: &[u32], floor: usize) -> WitnessLists {
        let mut out = WitnessLists { ids: Vec::new(), starts: vec![0], items: Vec::new() };
        let mut len = 0usize;
        for &x in nodes {
            let start = len;
            let end = start + g.degree(NodeId(x));
            if out.items.len() < end {
                out.items.resize(end, 0);
            }
            for w in g.neighbors_iter(NodeId(x)) {
                let k = slot[w.index()];
                out.items[len] = k;
                len += usize::from(k != UNLINKED);
            }
            if len - start >= floor {
                out.ids.push(x);
                out.starts.push(len);
            } else {
                len = start;
            }
        }
        out.items.truncate(len);
        out
    }

    /// The list at position `i`.
    #[inline]
    fn list(&self, i: u32) -> &[u32] {
        &self.items[self.starts[i as usize]..self.starts[i as usize + 1]]
    }

    /// The MinHash signature of every list, keyed by position.
    fn sign(&self, hasher: &MinHasher, parallel: bool) -> SignatureSet {
        let positions: Vec<u32> = (0..self.ids.len() as u32).collect();
        let items_of =
            |i: u32, out: &mut Vec<u64>| out.extend(self.list(i).iter().map(|&k| u64::from(k)));
        if parallel {
            SignatureSet::build_parallel(hasher, &positions, items_of)
        } else {
            SignatureSet::build(hasher, &positions, items_of)
        }
    }
}

/// Verifies the proposals `pairs` (positions into `left` × `right`, sorted
/// by `(i, j)`) into `sink`: each row stamps its list into a link-indexed
/// array once, and each proposed `j` scores the stamped entries of its
/// list. A row's stamp is its position plus one, unique within a call, so
/// the array is never cleared. `link_count` bounds every list entry.
fn verify_rows(
    left: &WitnessLists,
    right: &WitnessLists,
    pairs: &[(u32, u32)],
    link_count: usize,
    mut sink: SelectSink,
) -> SelectSink {
    let mut stamp_of = vec![0u32; link_count];
    for row in pairs.chunk_by(|a, b| a.0 == b.0) {
        let i = row[0].0;
        let stamp = i + 1;
        for &k in left.list(i) {
            stamp_of[k as usize] = stamp;
        }
        let stamp_of = &stamp_of;
        let entries = row.iter().map(|&(_, j)| {
            let score = right.list(j).iter().map(|&k| u32::from(stamp_of[k as usize] == stamp));
            (right.ids[j as usize], score.sum())
        });
        sink.row_entries(left.ids[i as usize], entries);
    }
    sink
}

/// Splits a `(u, v)`-sorted pair list into at most `workers` contiguous
/// chunks without splitting a `u` row across chunks (each row's best must
/// be computed by exactly one worker, like the exact path's row chunking).
fn chunk_pairs_by_row(pairs: &[(u32, u32)], workers: usize) -> Vec<&[(u32, u32)]> {
    let target = pairs.len().div_ceil(workers.max(1)).max(1);
    let mut chunks = Vec::new();
    let mut start = 0usize;
    while start < pairs.len() {
        let mut end = (start + target).min(pairs.len());
        while end < pairs.len() && pairs[end].0 == pairs[end - 1].0 {
            end += 1;
        }
        chunks.push(&pairs[start..end]);
        start = end;
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::mutual_best_pairs;
    use crate::scoring::{collect_candidates, fused_phase_on};
    use crate::witness::ScoreTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snr_graph::CsrGraph;
    use std::collections::{HashMap, HashSet};

    /// The blocked phase written out literally: witness-link sets as
    /// `HashSet`s, signed with the phase's hasher (a set smaller than the
    /// threshold gets no signature), banded by `propose_pairs`, every
    /// proposal scored by set intersection, and the non-zero scores
    /// selected by `mutual_best_pairs`.
    #[allow(clippy::too_many_arguments)]
    fn reference_blocked_phase(
        g1: &CsrGraph,
        g2: &CsrGraph,
        links: &Linking,
        c1: &[u32],
        c2: &[u32],
        threshold: u32,
        banding: &Banding,
        seed: u64,
    ) -> (usize, Vec<(NodeId, NodeId)>) {
        let link1: HashMap<NodeId, u32> =
            links.pairs().enumerate().map(|(k, (w1, _))| (w1, k as u32)).collect();
        let link2: HashMap<NodeId, u32> =
            links.pairs().enumerate().map(|(k, (_, w2))| (w2, k as u32)).collect();
        let sets = |g: &CsrGraph, nodes: &[u32], link: &HashMap<NodeId, u32>| {
            let set_of = |x: u32| -> HashSet<u32> {
                g.neighbors_iter(NodeId(x)).filter_map(|w| link.get(&w).copied()).collect()
            };
            nodes.iter().map(|&x| (x, set_of(x))).collect::<HashMap<u32, HashSet<u32>>>()
        };
        let (s1, s2) = (sets(g1, c1, &link1), sets(g2, c2, &link2));
        let hasher = MinHasher::new(banding.k(), seed);
        let sign = |nodes: &[u32], sets: &HashMap<u32, HashSet<u32>>| {
            SignatureSet::build(&hasher, nodes, |x, out| {
                if sets[&x].len() >= threshold as usize {
                    out.extend(sets[&x].iter().map(|&k| u64::from(k)));
                }
            })
        };
        let proposals = propose_pairs(banding, &sign(c1, &s1), &sign(c2, &s2));
        let mut table = ScoreTable::new();
        for (u, v) in proposals.pairs {
            let score = s1[&u].intersection(&s2[&v]).count() as u32;
            if score > 0 {
                table.insert((u, v), score);
            }
        }
        (table.len(), mutual_best_pairs(&table, threshold))
    }

    /// Hubs `0..6` linked to themselves in both copies; nodes `6..60` see
    /// hubs {0, 1, 2} (one shared list, so identical signatures: the
    /// clustered banding path), nodes `60..100` three consecutive hubs, and
    /// nodes `100..130` hub 0 alone (below every threshold above 1).
    fn duplicate_lists() -> (CsrGraph, Linking) {
        let mut edges = Vec::new();
        edges.extend((6..60).flat_map(|x| (0..3).map(move |h| (h, x))));
        edges.extend((60..100).flat_map(|x| (0..3).map(move |i| ((x + i) % 6, x))));
        edges.extend((100..130).map(|x| (0, x)));
        let g = CsrGraph::from_edges(130, &edges);
        let hubs: Vec<(NodeId, NodeId)> = (0..6).map(|h| (NodeId(h), NodeId(h))).collect();
        (g, Linking::with_seeds(130, 130, &hubs))
    }

    /// `adaptive_lsh_phase` on `CsrGraph` and on `CompactCsr`, asserted
    /// equal. The parallel run goes through a four-worker pool, so the
    /// signatures and the verify split into several chunks (and the verify
    /// merges several sinks) on any host.
    #[allow(clippy::too_many_arguments)]
    fn blocked_on_both_views(
        g1: &CsrGraph,
        g2: &CsrGraph,
        links: &Linking,
        c1: &[u32],
        c2: &[u32],
        d: usize,
        t: u32,
        banding: &Banding,
        seed: u64,
        floor: u64,
        parallel: bool,
    ) -> (usize, Vec<(NodeId, NodeId)>) {
        let (k1, k2) = (g1.compact(), g2.compact());
        let run = || {
            let csr = adaptive_lsh_phase(
                g1,
                g2,
                links,
                c1,
                || c2.to_vec(),
                d,
                t,
                banding,
                seed,
                floor,
                parallel,
            );
            let compact = adaptive_lsh_phase(
                &k1,
                &k2,
                links,
                c1,
                || c2.to_vec(),
                d,
                t,
                banding,
                seed,
                floor,
                parallel,
            );
            assert_eq!(csr, compact, "floor {floor} parallel {parallel}: csr vs compact");
            csr
        };
        if parallel {
            rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap().install(run)
        } else {
            run()
        }
    }

    /// A copy pair (`p`-deletion of `g`) with 10% of its true pairs seeded.
    fn seeded_pair(g: &CsrGraph, rng: &mut StdRng) -> (CsrGraph, CsrGraph, Linking) {
        use snr_sampling::independent::independent_deletion_symmetric;
        use snr_sampling::sample_seeds;
        let pair = independent_deletion_symmetric(g, 0.7, rng).unwrap();
        let seeds = sample_seeds(&pair, 0.1, rng).unwrap();
        let links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);
        (pair.g1, pair.g2, links)
    }

    /// The phase's unlinked copy-2 nodes of degree at least `d`.
    fn eligible2(g2: &CsrGraph, links: &Linking, d: usize) -> Vec<u32> {
        (0..g2.node_count() as u32)
            .filter(|&v| g2.degree(NodeId(v)) >= d && !links.is_linked_g2(NodeId(v)))
            .collect()
    }

    #[test]
    fn blocked_phase_matches_a_literal_reference() {
        use snr_generators::{gnp, preferential_attachment};
        let mut rng = StdRng::seed_from_u64(0xb10c);
        let mut cases = Vec::new();
        for (name, g) in [
            ("pa", preferential_attachment(1500, 6, &mut rng).unwrap()),
            ("er", gnp(1000, 0.015, &mut rng).unwrap()),
        ] {
            let (g1, g2, links) = seeded_pair(&g, &mut rng);
            cases.push((name, g1, g2, links));
        }
        let star = CsrGraph::from_edges(200, &(1..200).map(|v| (0, v)).collect::<Vec<_>>());
        let even: Vec<(NodeId, NodeId)> =
            (2..200).step_by(2).map(|v| (NodeId(v), NodeId(v))).collect();
        cases.push(("star", star.clone(), star, Linking::with_seeds(200, 200, &even)));
        let (dup, hubs) = duplicate_lists();
        cases.push(("duplicates", dup.clone(), dup, hubs));

        let (mut scored_total, mut links_total) = (0, 0);
        for (name, g1, g2, links) in &cases {
            for (d, t) in [(1usize, 1u32), (1, 2), (2, 3), (4, 2)] {
                let c1 = collect_candidates(g1, links, d);
                let c2 = eligible2(g2, links, d);
                for banding in [Banding::new(16, 2), Banding::new(4, 4)] {
                    let seed = DEFAULT_SKETCH_SEED ^ d as u64;
                    let expected =
                        reference_blocked_phase(g1, g2, links, &c1, &c2, t, &banding, seed);
                    scored_total += expected.0;
                    links_total += expected.1.len();
                    for parallel in [false, true] {
                        let label = format!("{name} d={d} t={t} {banding:?} parallel={parallel}");
                        let blocked = |floor| {
                            blocked_on_both_views(
                                g1, g2, links, &c1, &c2, d, t, &banding, seed, floor, parallel,
                            )
                        };
                        assert_eq!(blocked(0), expected, "{label}");
                        // A floor no phase reaches: the gate's exact arm.
                        let exact = fused_phase_on(g1, g2, links, &c1, d, t, parallel);
                        assert_eq!(blocked(u64::MAX), exact, "{label}: exact arm");
                    }
                }
            }
        }
        assert!(
            scored_total > 10_000 && links_total > 500,
            "{scored_total} scored, {links_total} links"
        );
    }

    /// A floor above 0 that the phase passes: the gate builds a
    /// `LinkCache`, measures the scan on it, and still blocks — the
    /// blocked arm must then ignore the cache and match the reference.
    #[test]
    fn a_phase_that_passes_the_gate_matches_the_reference() {
        // Dense enough that a candidate row's scan clears the per-row
        // minimum: ~200 neighbours a row, ~20 of them linked, each with
        // ~200 eligible partner neighbours among 4000 nodes.
        let mut rng = StdRng::seed_from_u64(0x9a7e);
        let g = snr_generators::gnp(4000, 0.08, &mut rng).unwrap();
        let (g1, g2, links) = seeded_pair(&g, &mut rng);
        let (d, t, floor) = (2usize, 2u32, 1u64);
        let c1: Vec<u32> = collect_candidates(&g1, &links, d).into_iter().take(48).collect();
        let c2 = eligible2(&g2, &links, d);
        let cache = LinkCache::build(&g2, &links, d);
        let (mass, scored) =
            (phase_mass(&g1, &cache, &c1), estimate_scored_pairs(&g1, &cache, &c1));
        assert!(
            should_block(mass, c1.len(), floor) && should_block(scored, c1.len(), floor),
            "the gate keeps this phase exact: mass {mass}, ~{scored} scored pairs"
        );
        let banding = Banding::new(16, 2);
        let expected =
            reference_blocked_phase(&g1, &g2, &links, &c1, &c2, t, &banding, DEFAULT_SKETCH_SEED);
        assert!(expected.0 > 1_000 && !expected.1.is_empty(), "{expected:?}");
        for parallel in [false, true] {
            let blocked = |floor| {
                blocked_on_both_views(
                    &g1,
                    &g2,
                    &links,
                    &c1,
                    &c2,
                    d,
                    t,
                    &banding,
                    DEFAULT_SKETCH_SEED,
                    floor,
                    parallel,
                )
            };
            assert_eq!(blocked(floor), expected, "floor {floor} parallel {parallel}");
        }
    }

    #[test]
    fn row_chunking_never_splits_a_row() {
        let pairs: Vec<(u32, u32)> =
            (0..10u32).flat_map(|u| (0..3u32).map(move |v| (u, v))).collect();
        for workers in 1..=8 {
            let chunks = chunk_pairs_by_row(&pairs, workers);
            let total: usize = chunks.iter().map(|c| c.len()).sum();
            assert_eq!(total, pairs.len());
            for w in chunks.windows(2) {
                let last_u = w[0].last().expect("chunks are non-empty").0;
                let first_u = w[1].first().expect("chunks are non-empty").0;
                assert!(last_u < first_u, "row {last_u} split across chunks");
            }
        }
    }

    #[test]
    fn mass_gate_blocks_only_heavy_phases() {
        // floor 0 = pure blocking: always block, regardless of mass.
        assert!(should_block(0, 10, 0));
        assert!(should_block(u64::MAX, 0, 0));
        // Below the absolute floor: exact.
        assert!(!should_block(999, 1, 1_000));
        // At the floor but too many rows for the per-row minimum: exact.
        assert!(!should_block(1_000_000, 1_000_000, 1_000));
        // Heavy in both senses: block.
        assert!(should_block(1_000_000, 10, 1_000));
    }

    #[test]
    fn phase_mass_counts_eligible_bumps_through_the_cache() {
        // g1: 0-1, 0-2; g2: path 0-1-2. Link (1, 0) and (2, 1).
        let g1 = snr_graph::CsrGraph::from_edges(3, &[(0, 1), (0, 2)]);
        let g2 = snr_graph::CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let links = Linking::with_seeds(3, 3, &[(NodeId(1), NodeId(0)), (NodeId(2), NodeId(1))]);
        let cache = LinkCache::build(&g2, &links, 1);
        // Row 0's neighbors 1 and 2 are both link endpoints. Partner of 1
        // is g2 node 0, whose only neighbor (1) is linked — 0 eligible
        // bumps; partner of 2 is g2 node 1, with the one unlinked eligible
        // neighbor 2 — 1 bump.
        assert_eq!(phase_mass(&g1, &cache, &[0]), 1);
        assert_eq!(phase_mass(&g1, &cache, &[]), 0);
    }

    /// The estimate counts a sampled row's scored pairs, whatever its arena
    /// lists: on up to 256 rows it samples every row and equals the exact
    /// count, and on one fixed larger phase its extrapolation is pinned.
    #[test]
    fn estimate_scored_pairs_counts_every_scored_pair_of_its_sample() {
        let mut rng = StdRng::seed_from_u64(0xe57);
        let g = snr_generators::preferential_attachment(3000, 6, &mut rng).unwrap();
        let (g1, g2, links) = seeded_pair(&g, &mut rng);
        let d = 2;
        let c1 = collect_candidates(&g1, &links, d);
        assert!(c1.len() > 4 * SCORED_SAMPLE_ROWS, "{} candidate rows", c1.len());
        let cache = LinkCache::build(&g2, &links, d);
        let rows = &c1[..SCORED_SAMPLE_ROWS];
        let exact = fused_phase_on(&g1, &g2, &links, rows, d, 2, false).0;
        assert_eq!(estimate_scored_pairs(&g1, &cache, rows), exact as u64);
        assert_eq!(estimate_scored_pairs(&g1, &cache, &c1), 23_106);
    }

    #[test]
    #[should_panic(expected = "undirected copy-2 view")]
    fn a_directed_copy_2_is_rejected_at_floor_0() {
        let mut b = snr_graph::GraphBuilder::directed(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        let g2 = b.build();
        let g1 = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let links = Linking::with_seeds(3, 3, &[(NodeId(1), NodeId(1))]);
        let banding = Banding::new(2, 2);
        adaptive_lsh_phase(&g1, &g2, &links, &[0, 2], || vec![0, 2], 1, 1, &banding, 0, 0, false);
    }

    #[test]
    fn empty_inputs_short_circuit() {
        let g = snr_graph::CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let links = Linking::new(3, 3);
        let banding = Banding::new(2, 2);
        let (scored, pairs) = adaptive_lsh_phase(
            &g,
            &g,
            &links,
            &[0, 1, 2],
            || vec![0, 1, 2],
            1,
            1,
            &banding,
            DEFAULT_SKETCH_SEED,
            0,
            false,
        );
        assert_eq!(scored, 0);
        assert!(pairs.is_empty());
    }
}
