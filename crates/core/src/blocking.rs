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
//! * Both sides are sketched with the **same** `k = b·r` hash family
//!   ([`snr_sketch::MinHasher`]), signatures are banded, and colliding
//!   left×right pairs become proposals ([`snr_sketch::propose_pairs`]).
//! * Proposals are re-scored **exactly** through the same
//!   [`LinkCache`] + [`ScoreArena`] walk as the unblocked path
//!   ([`crate::scoring::score_pair_list`]) and fed to a [`SelectSink`], so
//!   every link the blocked phase emits carries its true witness count —
//!   blocking can miss pairs (bounded recall), never mis-score them.
//!
//! Everything is deterministic: the hash family derives from the phase
//! seed, signature building is bit-identical sequential or parallel, and
//! proposals arrive sorted and deduplicated — the blocked phase returns the
//! same links for the same inputs at any worker count.

use crate::linking::Linking;
use crate::scoring::{
    score_pair_list, score_phase_cached, LinkCache, ScoreArena, SelectSink, PARALLEL_CUTOFF,
};
use rayon::prelude::*;
use snr_graph::{GraphView, NodeId};
pub use snr_sketch::Banding;
use snr_sketch::{propose_pairs, MinHasher, SignatureSet};

/// `slot` sentinel for copy-2 nodes that are not a link endpoint.
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
/// which is what blocking actually reduces (the verify stage re-pays the
/// row bumps of every proposed row, so bump mass alone cannot be saved).
/// Scores every `ceil(n / 256)`-th candidate row through the cache (bumps
/// only, no sink) and extrapolates the touched-entry count; deterministic,
/// and costs roughly `mass / 256` bumps — a fraction of a percent of the
/// scan it predicts on the phases where the prediction matters.
pub fn estimate_scored_pairs<G1>(g1: &G1, cache: &LinkCache, candidates: &[u32], n2: usize) -> u64
where
    G1: GraphView,
{
    if candidates.is_empty() {
        return 0;
    }
    let stride = candidates.len().div_ceil(SCORED_SAMPLE_ROWS).max(1);
    let mut arena = ScoreArena::new(n2);
    let mut rows = 0u64;
    let mut scored = 0u64;
    let mut i = 0usize;
    while i < candidates.len() {
        arena.score_row(g1, NodeId(candidates[i]), cache);
        scored += arena.touched().len() as u64;
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

/// One adaptively blocked phase: builds the phase's [`LinkCache`], measures
/// the exact scan's cost ([`phase_mass`] as the quick bound, then
/// [`estimate_scored_pairs`]), and either runs the exact scan on the
/// already-built cache (light phases — lossless and faster there) or the
/// LSH-blocked pipeline (entry-heavy phases, where candidate generation is
/// the wall). `candidates2` is only evaluated when the phase blocks, so the
/// exact fallback never pays for the copy-2 eligible scan.
///
/// # Panics
///
/// If `g2` is directed and the phase has links and candidates (see
/// [`LinkCache::build`]).
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
    let cache = LinkCache::build_traced(g2, links, min_deg2);
    // Two-step gate: the exact bump mass is an upper bound on the scored-
    // pair count and cheap to compute, so it rejects light phases without
    // sampling; phases that pass it are gated on the sampled scored-pair
    // estimate — bump-heavy but entry-light hub phases (mass ≫ scored) stay
    // exact, which is where blocking loses.
    let blocked = mass_floor == 0
        || (should_block(phase_mass(g1, &cache, candidates1), candidates1.len(), mass_floor)
            && should_block(
                estimate_scored_pairs(g1, &cache, candidates1, n2),
                candidates1.len(),
                mass_floor,
            ));
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
    if !blocked {
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
    lsh_phase_cached(
        g1,
        g2,
        links,
        &cache,
        candidates1,
        &candidates2,
        threshold,
        banding,
        seed,
        parallel,
    )
}

/// One blocked phase over the phase's [`LinkCache`] — the blocked arm of
/// [`adaptive_lsh_phase`]: propose candidate pairs via MinHash/LSH, verify
/// them exactly, select mutual bests.
///
/// `candidates1` / `candidates2` are the phase's degree-eligible unlinked
/// nodes of each copy (ascending ids — what [`crate::scoring::CandidateCache`]
/// produces), so degree-bucket compatibility holds for every proposal by
/// construction. Returns `(scored_pairs, selected_pairs)` like
/// [`crate::scoring::fused_phase_on`], where `scored_pairs` counts the
/// proposed pairs with a non-zero exact score — the blocked counterpart of
/// the exact path's scored-pair statistic.
#[allow(clippy::too_many_arguments)]
fn lsh_phase_cached<G1, G2>(
    g1: &G1,
    g2: &G2,
    links: &Linking,
    cache: &LinkCache,
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
    let n2 = g2.node_count();
    if candidates1.is_empty() || candidates2.is_empty() {
        return (0, Vec::new());
    }

    // Copy-2 endpoint → link index, in the same `Linking::pairs` order that
    // numbered the cache's copy-1 slots — both sides sketch the *same* link
    // index universe.
    let mut slot2 = vec![UNLINKED; links.g2_capacity()];
    for (k, (_, w2)) in links.pairs().enumerate() {
        slot2[w2.index()] = k as u32;
    }

    let hasher = MinHasher::new(banding.k(), seed);
    // A node scores at most |its witness-link set| against any partner, so
    // sets smaller than the threshold can never produce a selectable link —
    // below-threshold rows also cannot be any node's mutual best or tie one
    // (that would need a score ≥ the threshold), so dropping them here is
    // exact-safe, not a recall trade. It is also the performance linchpin:
    // with a single-item set every signature component hashes that one
    // item, so all nodes sharing one popular witness link would otherwise
    // carry *identical* signatures, collide in every band, and flood the
    // proposal list with pairs that can only verify below the threshold.
    let floor = threshold as usize;
    let left_items = |u: u32, out: &mut Vec<u64>| {
        for w1 in g1.neighbors_iter(NodeId(u)) {
            if let Some(k) = cache.link_slot(w1) {
                out.push(u64::from(k));
            }
        }
        if out.len() < floor {
            out.clear();
        }
    };
    let right_items = |v: u32, out: &mut Vec<u64>| {
        for w2 in g2.neighbors_iter(NodeId(v)) {
            if let Some(&k) = slot2.get(w2.index()) {
                if k != UNLINKED {
                    out.push(u64::from(k));
                }
            }
        }
        if out.len() < floor {
            out.clear();
        }
    };
    let (left, right) = {
        let _span = snr_telemetry::span!(
            "sketch",
            left = candidates1.len(),
            right = candidates2.len(),
            k = banding.k(),
        );
        if parallel {
            (
                SignatureSet::build_parallel(&hasher, candidates1, left_items),
                SignatureSet::build_parallel(&hasher, candidates2, right_items),
            )
        } else {
            (
                SignatureSet::build(&hasher, candidates1, left_items),
                SignatureSet::build(&hasher, candidates2, right_items),
            )
        }
    };
    let proposals = {
        let _span = snr_telemetry::span!("band");
        propose_pairs(banding, &left, &right)
    };
    snr_telemetry::Counter::LshProposals.add(proposals.pairs.len() as u64);
    snr_telemetry::Counter::LshBandCollisions.add(proposals.raw_collisions);
    let _span = snr_telemetry::span!("verify", proposals = proposals.pairs.len());
    verify_proposals(g1, cache, &proposals.pairs, n2, threshold, parallel)
}

/// Exactly scores a sorted, deduplicated proposal list and selects mutual
/// bests — the verification half of a blocked phase, also usable to
/// re-score an externally produced pair list.
pub fn verify_proposals<G1>(
    g1: &G1,
    cache: &LinkCache,
    pairs: &[(u32, u32)],
    n2: usize,
    threshold: u32,
    parallel: bool,
) -> (usize, Vec<(NodeId, NodeId)>)
where
    G1: GraphView + Sync,
{
    if !parallel || pairs.len() < PARALLEL_CUTOFF {
        let mut arena = ScoreArena::new(n2);
        let mut sink = SelectSink::new(n2, threshold);
        score_pair_list(g1, cache, pairs, &mut arena, &mut sink);
        sink.finish()
    } else {
        let chunks = chunk_pairs_by_row(pairs, rayon::current_num_threads().max(1));
        let sinks: Vec<SelectSink> = chunks
            .par_iter()
            .map(|chunk| {
                let mut arena = ScoreArena::new(n2);
                let mut sink = SelectSink::new(n2, threshold);
                score_pair_list(g1, cache, chunk, &mut arena, &mut sink);
                sink
            })
            .collect();
        sinks
            .into_iter()
            .reduce(SelectSink::merge)
            .expect("proposal set is non-empty in the parallel branch")
            .finish()
    }
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
