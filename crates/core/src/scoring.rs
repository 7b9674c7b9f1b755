//! The witness-scoring kernel: one phase of User-Matching, score and select
//! fused, on every executor.
//!
//! The oracle [`crate::witness::count_sequential`] materializes a global
//! `HashMap<(u32, u32), u32>` and pays one hash probe per witness
//! contribution, i.e. per element of `Σ_{(w1,w2)∈L} d1(w1)·d2(w2)`. The
//! kernel removes that probe with a data-layout change:
//!
//! * **Candidate-centric rows.** Instead of iterating links and scattering
//!   `(u, v)` contributions, we iterate the candidate copy-1 nodes `u`. Each
//!   row `score(u, ·)` depends only on `u`'s own neighborhood, so rows are
//!   independent: workers own disjoint sets of rows and the parallel path
//!   needs no merge of overlapping tables.
//! * **[`LinkCache`]** holds, once per phase, the threshold-filtered copy-2
//!   neighbor list of every linked pair `(w1, w2)` in one flat arena, and
//!   maps `w1` to its slice in O(1). Scoring a row is then a pure slice
//!   scan — no per-link block decoding (this is what closes the
//!   `CompactCsr` gap) and no hashing. The build decodes whichever side
//!   holds fewer adjacency entries: the linked rows, or, by transposition,
//!   the eligible ones ("degree at least `min_deg2` and not yet linked").
//! * **Rank space.** The build also gives the phase's eligible copy-2 nodes
//!   dense ranks, `⌊log₂ degree⌋` descending and then ascending id, and the
//!   lists hold ranks. Most bumps land on the few high-degree nodes, which
//!   now share the first cache lines of every arena and sink, and those are
//!   sized to the eligible count instead of `n2`. A rank-space sink is
//!   translated to node ids exactly once, at its executor's boundary (see
//!   below); ties abstain, so the relabelling changes no selection and no
//!   count.
//! * **`ScoreArena`** accumulates one row into a dense, generation-stamped
//!   scratch: one packed `u64` cell per rank holding
//!   `(stamp << 32) | score`, a first-touch count (the row's scored pairs)
//!   and the list of ranks whose score reached the threshold `T`. Starting
//!   a row is O(1) (bump the epoch), and a contribution is one
//!   read-modify-write of one cell — one random cache line per witness,
//!   where separate stamp and score arrays cost two.
//!   `ScoreArena::score_row` is the one row kernel every executor runs, and
//!   its bump is branch-free (see below).
//! * **[`SelectSink`]** receives each finished row and fuses mutual-best
//!   selection into row finalization — it keeps each row's argmax and a
//!   per-`v` running best, so the full score table is never materialized.
//!
//! The fused output is bit-for-bit identical to
//! `mutual_best_pairs(&count_sequential(..), t)`: per-row bests are exact
//! (each worker sees whole rows), and per-`v` bests merge with
//! `Best::merge`, which is associative, commutative, and preserves
//! tie-abstention across worker boundaries.
//!
//! # Threshold-filtered selection
//!
//! Only entries with a score of at least the threshold `T` can affect the
//! selection, so a row is reduced to what selection reads: its scored-pair
//! count and its entries scoring `≥ T`. `SelectSink::row` adds the arena's
//! first-touch count to `scored_pairs` and folds only the ranks the arena
//! listed into the row best and the per-`v` bests. This is exact:
//!
//! * a row claims only a strictly unique best with score `≥ T`, and every
//!   tie at such a maximum is also `≥ T`, so the row best and its
//!   uniqueness over the filtered entries equal those over the whole row;
//! * a claim `(u, v)` survives only if `u` is `v`'s strictly unique best,
//!   whose score is then `≥ T` too — entries below `T` can never change
//!   the best of a `v` that a claim points at. Bests of other `v` differ,
//!   but nothing reads them.
//!
//! The arena lists a rank at the bump that lifts its score to exactly `T`.
//! Scores grow by one per bump, so every rank that ends the row at `≥ T`
//! is listed exactly once, and no other; its final score is read from its
//! cell when the row is folded. The first-touch count is the number of
//! distinct ranks touched, which is the row's scored pairs whatever `T` is.
//! One arena thus means the same on every executor. The MapReduce map
//! ships exactly this, a row's count and listed entries, and the reduce
//! folds them through the same fold. LSH verification scores each proposal
//! in full and feeds the sink every `(v, score)` entry of a row; the sink
//! counts the non-zero ones and filters them to `≥ T` before the fold.
//!
//! # Branch-free bump and fold
//!
//! The hot loops carry no data-dependent branch, because the tests they
//! would make are close to coin flips: about half of all bumps are a row's
//! first touch of their cell, and most scored pairs fall below `T`.
//!
//! * `ScoreArena::bump` sets every cell to
//!   `max(cell, epoch << 32) + 1`. Stamps never exceed the epoch, so the
//!   cell is current iff it is at least `epoch << 32`: this adds one to a
//!   current score and starts a stale cell at `(epoch << 32) | 1`. It adds
//!   `old < epoch << 32`, a first touch, to the row's count. It writes `v`
//!   one past the end of the listed ranks on every bump and advances their
//!   length only when the new cell is exactly `(epoch << 32) | T`, so the
//!   list holds exactly the ranks that reached `T`, in the order they did.
//! * [`SelectSink`]'s filter for full rows (LSH verification) writes every
//!   entry of a row into a reused scratch buffer and advances the write
//!   position only for a score `≥ T`; the kept prefix is exactly the
//!   entries the filter above admits, in row order, and only it is folded
//!   into the bests.
//!
//! Both leave the same cells, lists, scored pairs and selections as a
//! branch on the same test would, so links and every work count are
//! exact.
//!
//! # One entry point per executor
//!
//! Each takes and returns copy-2 node ids; where it scores, it translates
//! from ranks once:
//!
//! * [`fused_phase_on`] — in-process, sequential or rayon (builds the
//!   phase's [`LinkCache`], then runs [`score_phase_cached`]);
//! * [`score_phase_cached`] — the same over a caller-built cache; the
//!   merged rank-space sink is absorbed into the caller's node-id sink.
//!   The adaptive blocking gate's exact arm runs it, and so does the
//!   distributed driver's worker on the candidate rows of its row range,
//!   before it ships the sink's [`SinkClaims`];
//! * [`mapreduce_fused_phase_on`] — one [`snr_mapreduce::Engine`] round;
//!   map tasks emit rows by node id, so the shuffle and reduce never see
//!   ranks;
//! * [`crate::blocking::adaptive_lsh_phase`] — LSH-blocked phases: the
//!   gate's exact arm runs [`score_phase_cached`]; the blocked arm scores
//!   its proposals by witness-link list intersection, without a
//!   [`LinkCache`], and feeds `(v, score)` entries to a [`SelectSink`].
//!
//! # The MapReduce round runs the same kernel
//!
//! [`mapreduce_fused_phase_on`] expresses one whole phase as a single
//! engine round built from the same pieces: map tasks score contiguous
//! chunks of candidate rows through the round's one [`LinkCache`] (each
//! linked neighbor list is built once per round, not decoded once per
//! contribution) and emit one already-aggregated record per non-empty
//! candidate *row* — a dense `u32` key, the row's scored-pair count and its
//! packed `(v, count)` entries at or above `T` — instead of one
//! `((u, v), 1)` record per *witness contribution*. That collapses the
//! shuffled record count by orders of magnitude (measured 938× at the
//! RMAT-16 witness pass). A row with no entry at `T` still ships its count,
//! so the record count is one per non-empty row. An entry takes 4 bytes
//! when every shipped entry of the row fits, else 8, and the entries below
//! `T`, about two thirds of the scored pairs at `T = 2` on R-MAT, are not
//! shipped at all. The shuffle is still charged 4 bytes per row plus 8 per
//! scored pair, so the charge over-counts the bytes held (the run files
//! hold under 5% of it in the `smoke spill` scenario). A task splits its
//! rows across the engine's workers, one `ScoreArena` per piece, and
//! concatenates the pieces' records in order: a round whose rows fit in
//! one task still uses every worker, and the records, spill decisions and
//! run files are those of one thread. The shuffle range-partitions by `u`,
//! so each reduce partition owns whole rows in ascending order; it adds
//! each row's count and folds its entries into a [`SelectSink`] as they
//! stream off the engine's k-way merge of its in-memory buckets and spill
//! runs — the MapReduce backend never materializes a global score table,
//! nor a whole partition's rows.

use crate::linking::Linking;
use crate::matching::Best;
use rayon::prelude::*;
use snr_graph::{GraphError, GraphView, NodeId};
use snr_mapreduce::partition::range_partition;
use snr_mapreduce::{Engine, EngineError, Groups, SpillCodec};
use snr_store::wire::{self, Reader, WireError, Writer};

/// Sentinel for a node that is not linked: in [`LinkCache::slot`] over
/// copy 1, and, unless eligible, in the build's copy-2 node states.
const NO_LINK: u32 = u32::MAX;

/// Number of rank groups: `usize::leading_zeros` of a degree, 0 to 64.
const GROUPS: usize = usize::BITS as usize + 1;

/// Copy-2 node state in [`LinkCache::build`] while ranks are counted: an
/// eligible node of rank group `g` holds `GROUP_MARK + g`. Link indices and
/// `l + rank` values stay below it.
const GROUP_MARK: u32 = NO_LINK - GROUPS as u32;

/// Minimum candidate-row (or, for LSH verification, proposal) count before
/// a parallel phase spawns workers.
pub(crate) const PARALLEL_CUTOFF: usize = 64;

/// Per-phase decoded-neighbor cache: for every link `(w1, w2)`, the
/// threshold-eligible neighbors of `w2`, in ascending id order, stored as
/// *ranks* in one flat arena.
///
/// During a phase the link set and the eligibility predicate ("degree at
/// least `min_deg2` and not yet linked") are fixed, so each link's list is
/// built once instead of once per copy-1 node adjacent to `w1` (for
/// `CompactCsr` that decode is a varint block walk).
///
/// The build gives the phase's eligible copy-2 nodes dense ranks
/// `0..eligible_count()`, ordered by `⌊log₂ degree⌋` descending, then by
/// ascending id. Most witness bumps land on the few high-degree nodes, so
/// their `ScoreArena` and [`SelectSink`] cells share the first cache
/// lines instead of spreading over all of copy 2, and the eligible nodes of
/// any power-of-two degree bound are a rank prefix. [`LinkCache::nodes`]
/// maps a rank back to its node; a rank-space sink crosses back to node
/// ids once, at its executor's boundary.
pub struct LinkCache {
    /// `slot[w1]` is the link index of `w1`, or [`NO_LINK`].
    slot: Vec<u32>,
    /// `offsets[k]..offsets[k + 1]` is link `k`'s slice of `targets`.
    offsets: Vec<u32>,
    /// Ranks of the eligible copy-2 neighbors of every link, concatenated.
    targets: Vec<u32>,
    /// `nodes[r]` is the copy-2 node of rank `r`.
    nodes: Vec<u32>,
    /// The copy-2 node count the cache was built against.
    n2: usize,
}

impl LinkCache {
    /// Ranks the eligible copy-2 nodes and builds the eligible neighbor
    /// lists of all current links as `(k, rank)` hits (the eligible node of
    /// that rank is in link `k`'s list), counting-sorted by link. The hits
    /// come from whichever side holds fewer adjacency entries: the *linked*
    /// rows (`Σ_{(w1,w2)∈L} d2(w2)`), each `w2` in link order giving a hit
    /// per eligible neighbor — smaller with few links and many eligible
    /// rows, as in an unbucketed first pass — or, by transposition, the
    /// *eligible* rows (`Σ_{eligible v} d2(v)`), each `v` in ascending id
    /// order giving a hit per linked neighbor. On undirected adjacency both
    /// give the same lists, in ascending node id order.
    ///
    /// Cost: `O(n1 + n2 + min(Σ_L d2(w2), Σ_eligible d2(v)))`. The slot
    /// array is sized by [`Linking::g1_capacity`], which bounds every `w1`
    /// the linking can contain (inserts are bounds-checked).
    ///
    /// # Panics
    ///
    /// If `g2` is directed (the transposition needs symmetric adjacency), or
    /// if the cache would hold more than `u32::MAX` targets.
    pub fn build<G2: GraphView>(g2: &G2, links: &Linking, min_deg2: usize) -> LinkCache {
        LinkCache::build_from(g2, links, min_deg2, |linked, eligible| linked > eligible)
    }

    /// [`LinkCache::build`], decoding the eligible rows iff `transpose`
    /// says so given the entry counts of the linked and the eligible rows.
    fn build_from<G2: GraphView>(
        g2: &G2,
        links: &Linking,
        min_deg2: usize,
        transpose: impl FnOnce(usize, usize) -> bool,
    ) -> LinkCache {
        assert!(!g2.is_directed(), "LinkCache::build needs an undirected copy-2 view");
        let (n2, l) = (g2.node_count(), links.len());
        let mut slot = vec![NO_LINK; links.g1_capacity()];
        // `state[v]` is copy-2 node `v`'s link index, its rank group mark
        // and then `l + rank` if eligible, or NO_LINK.
        let mut state = vec![NO_LINK; n2];
        let mut linked_entries = 0usize;
        for (k, (w1, w2)) in links.pairs().enumerate() {
            slot[w1.index()] = k as u32;
            state[w2.index()] = k as u32;
            linked_entries += g2.degree(w2);
        }
        // Group `g` holds the degrees with `g` leading zeros: `⌊log₂ d⌋`
        // descending, degree 0 last.
        let mut group_starts = [0u32; GROUPS + 1];
        let mut eligible_entries = 0usize;
        for (v, s) in state.iter_mut().enumerate() {
            let degree = g2.degree(NodeId(v as u32));
            if *s == NO_LINK && degree >= min_deg2 {
                let g = degree.leading_zeros() as usize;
                *s = GROUP_MARK + g as u32;
                group_starts[g + 1] += 1;
                eligible_entries += degree;
            }
        }
        for g in 1..=GROUPS {
            group_starts[g] += group_starts[g - 1];
        }
        // Ascending ids within a group: one pass hands out each group's
        // ranks in order.
        let eligible = group_starts[GROUPS];
        let mut nodes = vec![0u32; eligible as usize];
        for (v, s) in state.iter_mut().enumerate() {
            let g = s.wrapping_sub(GROUP_MARK) as usize;
            if g < GROUPS {
                let rank = group_starts[g];
                group_starts[g] += 1;
                nodes[rank as usize] = v as u32;
                *s = l as u32 + rank;
            }
        }
        // Each decoded entry writes a hit at `hits[len]` and only a kept one
        // advances `len`: no branch on the filter, one slot per entry.
        let transpose = transpose(linked_entries, eligible_entries);
        let mut hits =
            vec![(0u32, 0u32); if transpose { eligible_entries } else { linked_entries }];
        let mut len = 0usize;
        // The decode streams rows in order, while the scoring jumps rows.
        g2.advise_sequential();
        if !transpose {
            for (k, (_, w2)) in links.pairs().enumerate() {
                for v in g2.neighbors_iter(w2) {
                    // A link index wraps past every rank, NO_LINK too.
                    let rank = state[v.index()].wrapping_sub(l as u32);
                    hits[len] = (k as u32, rank);
                    len += usize::from(rank < eligible);
                }
            }
        } else {
            // A neighbor that is not linked maps to the scratch link `l`
            // (eligible states and NO_LINK are all at least `l`), whose hit
            // is dropped.
            let trash = l as u32;
            for v in 0..n2 as u32 {
                let rank = state[v as usize].wrapping_sub(trash);
                if rank >= eligible {
                    continue;
                }
                for w2 in g2.neighbors_iter(NodeId(v)) {
                    let k = state[w2.index()].min(trash);
                    hits[len] = (k, rank);
                    len += usize::from(k != trash);
                }
            }
        }
        g2.advise_random();
        // A stable counting sort by link: `k` counts at `offsets[k + 2]`;
        // after the prefix sum its cursor `offsets[k + 1]` runs from its
        // start to its end, the next link's start, leaving `offsets[..=l]`.
        let mut offsets = vec![0u32; l + 2];
        for &(k, _) in &hits[..len] {
            offsets[k as usize + 2] += 1;
        }
        prefix_sum_within(&mut offsets, u32::MAX);
        let mut targets = vec![0u32; len];
        for &(k, rank) in &hits[..len] {
            let cursor = &mut offsets[k as usize + 1];
            targets[*cursor as usize] = rank;
            *cursor += 1;
        }
        offsets.truncate(l + 1);
        LinkCache { slot, offsets, targets, nodes, n2 }
    }

    /// The same as [`LinkCache::build`]; the whole-run benchmark's traced
    /// re-drive (`perfbench/src/trace.rs`) calls it by this name.
    pub fn build_parallel<G2: GraphView>(g2: &G2, links: &Linking, min_deg2: usize) -> LinkCache {
        LinkCache::build(g2, links, min_deg2)
    }

    /// The ranks of the cached eligible copy-2 neighbors of `w1`'s link
    /// partner (see [`LinkCache::nodes`]), or `None` if `w1` is not linked.
    #[inline]
    pub fn eligible_of(&self, w1: NodeId) -> Option<&[u32]> {
        let k = *self.slot.get(w1.index())?;
        if k == NO_LINK {
            return None;
        }
        let lo = self.offsets[k as usize] as usize;
        let hi = self.offsets[k as usize + 1] as usize;
        Some(&self.targets[lo..hi])
    }

    /// Total number of cached eligible neighbors across all links.
    pub fn cached_targets(&self) -> usize {
        self.targets.len()
    }

    /// The rank → copy-2 node map: `nodes()[r]` is the eligible node of
    /// rank `r`.
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// The phase's eligible copy-2 node count: every rank is below it.
    pub fn eligible_count(&self) -> usize {
        self.nodes.len()
    }

    /// The phase's cache as the in-process executors build it, inside a
    /// `link_cache` telemetry span, adding the build time to
    /// [`snr_telemetry::Counter::CacheBuildMicros`].
    pub(crate) fn build_traced<G2: GraphView>(
        g2: &G2,
        links: &Linking,
        min_deg2: usize,
    ) -> LinkCache {
        let _span = snr_telemetry::span!("link_cache", links = links.len());
        let t = snr_telemetry::enabled().then(std::time::Instant::now);
        let cache = LinkCache::build(g2, links, min_deg2);
        if let Some(t) = t {
            snr_telemetry::Counter::CacheBuildMicros.add(t.elapsed().as_micros() as u64);
        }
        cache
    }
}

/// Turns `counts` into its inclusive prefix sums in place. A sum above
/// `limit` panics: the cache's offsets are `u32`, and a wrapped offset
/// would silently hand links the wrong targets.
fn prefix_sum_within(counts: &mut [u32], limit: u32) {
    let mut sum = 0u32;
    for count in counts {
        sum = sum
            .checked_add(*count)
            .filter(|&s| s <= limit)
            .unwrap_or_else(|| panic!("LinkCache offsets overflow their limit of {limit}"));
        *count = sum;
    }
}

/// Dense, generation-stamped scratch for accumulating one candidate row.
///
/// The arena scores in a [`LinkCache`]'s rank space: each eligible copy-2
/// node owns the packed cell `(stamp << 32) | score` at its rank, so an
/// arena is sized to the phase's eligible count and the high-degree nodes
/// that take most bumps share its first cache lines. [`ScoreArena::listed`]
/// and [`ScoreArena::get`] speak ranks; [`LinkCache::nodes`] maps them back.
/// The score is valid only where the stamp equals the current epoch. Bumping
/// the epoch invalidates the whole row in O(1), so the arena is reused
/// across every row of a phase without clearing, and a contribution reads
/// and writes exactly one cell.
///
/// A row yields what selection reads: its scored-pair count (the first
/// touches, [`ScoreArena::scored`]) and the ranks whose score reached the
/// phase threshold `T`, in the order they reached it. The bump is
/// branch-free: it sets the cell to `max(cell, epoch << 32) + 1`, counts a
/// first touch, and writes `v` past the end of the listed ranks, which
/// advance only when the new score is exactly `T` (see the module docs for
/// why this is exact).
pub(crate) struct ScoreArena {
    /// `(stamp << 32) | score` per rank.
    cells: Vec<u64>,
    epoch: u32,
    /// `T`, at least 1: a rank is listed when its score reaches it.
    threshold: u32,
    /// The current row's listed ranks are `listed[..len]`. The slots past
    /// `len` are scratch that every bump writes into. The buffer grows on
    /// demand to the longest row plus one cached neighbor list, not to `n2`
    /// up front.
    listed: Vec<u32>,
    len: usize,
    /// The current row's first touches: its scored pairs.
    scored: usize,
}

impl ScoreArena {
    /// An arena over `cells` ranks (at least the eligible count of every
    /// [`LinkCache`] it scores through) that lists the ranks scoring at
    /// least `threshold`. A threshold of 0 is clamped to 1, as in
    /// [`SelectSink::new`].
    pub fn new(cells: usize, threshold: u32) -> ScoreArena {
        ScoreArena {
            cells: vec![0; cells],
            epoch: 0,
            threshold: threshold.max(1),
            listed: Vec::new(),
            len: 0,
            scored: 0,
        }
    }

    /// Starts a new row, invalidating the previous one in O(1).
    #[inline]
    pub fn begin_row(&mut self) {
        self.len = 0;
        self.scored = 0;
        if self.epoch == u32::MAX {
            // One reset every 2^32 - 1 rows keeps the stamp test exact.
            self.cells.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// Adds one witness contribution for every rank in `vs` (once per
    /// occurrence), without a data-dependent branch.
    #[inline]
    pub fn bump(&mut self, vs: &[u32]) {
        // Each bump lists at most one rank, so one capacity check per slice
        // covers every write below.
        let need = self.len + vs.len();
        if self.listed.len() < need {
            self.grow(need);
        }
        let row = u64::from(self.epoch) << 32;
        let reached = row | u64::from(self.threshold);
        let cells = &mut self.cells[..];
        let listed = &mut self.listed[..];
        let (mut len, mut scored) = (self.len, self.scored);
        for &v in vs {
            let cell = &mut cells[v as usize];
            let old = *cell;
            // Stamps never exceed the epoch (a wrap clears every cell), so
            // the cell is current iff it is at least `row`: `max` keeps a
            // current cell and restarts a stale one at `row | 0`.
            let new = old.max(row) + 1;
            *cell = new;
            listed[len] = v;
            len += usize::from(new == reached);
            scored += usize::from(old < row);
        }
        self.len = len;
        self.scored = scored;
    }

    /// Grows the listed buffer to at least `need` slots, at least doubling
    /// it, so an arena grows a logarithmic number of times in its lifetime.
    #[cold]
    #[inline(never)]
    fn grow(&mut self, need: usize) {
        self.listed.resize(need.max(2 * self.listed.len()), 0);
    }

    /// The ranks scoring at least the threshold in the current row, in the
    /// order their scores reached it.
    #[inline]
    pub fn listed(&self) -> &[u32] {
        &self.listed[..self.len]
    }

    /// The number of distinct ranks the current row touched: its scored
    /// pairs.
    #[inline]
    pub fn scored(&self) -> usize {
        self.scored
    }

    /// The current row's score for rank `v`. Only meaningful for a rank the
    /// row touched.
    #[inline]
    pub fn get(&self, v: u32) -> u32 {
        self.cells[v as usize] as u32
    }

    /// The current row's score for rank `v`, or `None` if `v` was not touched
    /// this row, read from the stamp alone. Only valid after at least one
    /// [`ScoreArena::begin_row`].
    #[cfg(test)]
    pub fn current(&self, v: u32) -> Option<u32> {
        let cell = self.cells[v as usize];
        (cell >> 32 == u64::from(self.epoch)).then_some(cell as u32)
    }

    /// The row kernel: starts a new row and scores copy-1 node `row` of
    /// `g1` into it — one bump per cached eligible copy-2 neighbor (by rank)
    /// of every linked neighbor of `row`. Every executor scores rows through
    /// this loop; the finished row is read via [`ScoreArena::scored`],
    /// [`ScoreArena::listed`] and [`ScoreArena::get`].
    #[inline]
    pub fn score_row<G1: GraphView>(&mut self, g1: &G1, row: NodeId, cache: &LinkCache) {
        self.begin_row();
        for w1 in g1.neighbors_iter(row) {
            if let Some(vs) = cache.eligible_of(w1) {
                self.bump(vs);
            }
        }
    }
}

/// Consumer of finished candidate rows that fuses mutual-best selection
/// into row finalization.
///
/// Finishing a row adds its scored-pair count, computes its argmax (the
/// row is complete, so the strict-uniqueness flag is exact) and folds every
/// entry scoring at least the threshold into a dense per-`v` running best;
/// sub-threshold entries are only counted (see the module docs for why that
/// is exact). The full score table is never materialized. Sinks are
/// order-independent: rows arrive in ascending `u` order within a worker,
/// but per-worker sinks may [`SelectSink::merge`] in any order.
///
/// An arena row and a shuffled `RowRecord` already list only the entries
/// at or above the threshold, so they are folded as they come. A row given
/// as all its `(v, score)` entries (LSH verification) is first compacted
/// into a reused scratch buffer whose write position advances only for a
/// score `≥ T`, and only that kept prefix is folded.
///
/// The `v` axis is either copy-2 node ids (a sink from [`SelectSink::new`]
/// over `n2`, which every public entry point takes and returns) or a
/// [`LinkCache`]'s ranks (the executors' internal sinks over the eligible
/// count, fed from a `ScoreArena`); `absorb_ranked` folds the latter into
/// the former.
pub struct SelectSink {
    threshold: u32,
    /// Rows whose best entry met the threshold with a strictly unique
    /// score: `(u, best)` in ascending `u` order per worker.
    claims: Vec<(u32, Best)>,
    /// Running best partner for every copy-2 node (or rank) over the
    /// entries that met the threshold; `score == 0` means no such entry
    /// seen yet.
    best_v: Vec<Best>,
    /// Total number of non-zero `(u, v)` pairs seen (the `scored_pairs`
    /// phase statistic, kept identical to `ScoreTable::len`).
    scored_pairs: usize,
    /// Reused per-row buffer of the entries at or above the threshold, for
    /// [`SelectSink::row_entries`].
    kept: Vec<(u32, u32)>,
}

/// A running best that has seen no entry yet.
const NO_BEST: Best = Best { partner: NO_LINK, score: 0, unique: false };

/// The one row fold: folds row `u`'s entries scoring at least the
/// threshold, given in any order (the row best and per-`v` bests are
/// order-independent), into the row best and a sink's per-`v` bests, and
/// claims the row if its best is strictly unique. The caller counts the
/// row's scored pairs.
#[inline]
fn fold(
    claims: &mut Vec<(u32, Best)>,
    best_v: &mut [Best],
    u: u32,
    entries: impl Iterator<Item = (u32, u32)>,
) {
    let mut best = NO_BEST;
    for (v, score) in entries {
        best.consider(v, score);
        best_v[v as usize].consider(u, score);
    }
    // Every folded score is at least the threshold (>= 1), so a row with a
    // folded entry leaves `best` above `NO_BEST` and its flag exact.
    if best.unique {
        claims.push((u, best));
    }
}

/// Merges the running best `theirs` into `mine`; a side that has seen no
/// entry (score 0) yields the other.
fn merge_best(mine: &mut Best, theirs: Best) {
    if theirs.score > 0 {
        *mine = if mine.score > 0 { mine.merge(theirs) } else { theirs };
    }
}

impl SelectSink {
    /// A sink selecting pairs with at least `threshold` witnesses over `n2`
    /// copy-2 nodes. A threshold of 0 is clamped to 1, matching
    /// [`crate::matching::mutual_best_pairs`].
    pub fn new(n2: usize, threshold: u32) -> SelectSink {
        SelectSink {
            threshold: threshold.max(1),
            claims: Vec::new(),
            best_v: vec![NO_BEST; n2],
            scored_pairs: 0,
            kept: Vec::new(),
        }
    }

    /// Completes the selection: a claimed row `(u, v)` survives iff `u` is
    /// also `v`'s strictly-unique best. Returns the scored-pair count and
    /// the selected pairs in ascending `(u, v)` order — exactly
    /// `mutual_best_pairs(&table, threshold)`.
    pub fn finish(self) -> (usize, Vec<(NodeId, NodeId)>) {
        let mut out = Vec::new();
        for (u, b) in &self.claims {
            let bv = &self.best_v[b.partner as usize];
            // bv.partner == u implies bv.score == b.score >= threshold.
            if bv.unique && bv.partner == *u {
                out.push((NodeId(*u), NodeId(b.partner)));
            }
        }
        out.sort_unstable();
        (self.scored_pairs, out)
    }

    /// Consumes the row `arena` holds as row `u`'s scores: its first
    /// touches count as scored pairs, and its listed entries, those at or
    /// above the threshold, are folded. The arena must list at this sink's
    /// threshold. An empty row changes nothing (it would not appear in a
    /// sparse score table either).
    #[inline]
    pub(crate) fn row(&mut self, u: u32, arena: &ScoreArena) {
        debug_assert_eq!(arena.threshold, self.threshold, "the arena lists at another threshold");
        self.scored_pairs += arena.scored();
        let entries = arena.listed().iter().map(|&v| (v, arena.get(v)));
        fold(&mut self.claims, &mut self.best_v, u, entries);
    }

    /// Folds another worker's sink into this one. Workers score disjoint `u`
    /// rows but share the `v` axis; the per-`v` bests merge with the
    /// tie-abstaining, order-independent `Best::merge`.
    pub fn merge(mut self, mut other: SelectSink) -> SelectSink {
        self.scored_pairs += other.scored_pairs;
        self.claims.append(&mut other.claims);
        for (mine, theirs) in self.best_v.iter_mut().zip(other.best_v) {
            merge_best(mine, theirs);
        }
        self
    }

    /// Folds `ranked`, a sink over `cache`'s ranks, into this sink over
    /// copy-2 node ids: the one place a rank-space sink is translated. Each
    /// claim's partner and each per-rank best move to their node; the
    /// per-`v` bests merge as in [`SelectSink::merge`].
    pub(crate) fn absorb_ranked(&mut self, ranked: SelectSink, cache: &LinkCache) {
        let nodes = cache.nodes();
        self.scored_pairs += ranked.scored_pairs;
        self.claims.extend(
            ranked
                .claims
                .into_iter()
                .map(|(u, b)| (u, Best { partner: nodes[b.partner as usize], ..b })),
        );
        for (&v, theirs) in nodes.iter().zip(ranked.best_v) {
            merge_best(&mut self.best_v[v as usize], theirs);
        }
    }

    /// Consumes one complete row given as `(v, score)` entries, as LSH
    /// verification scores it. The caller must pass every non-zero entry of
    /// row `u` exactly once, in any order; zero-score entries may be mixed
    /// in and are ignored. Non-zero entries count as scored pairs; only
    /// those at or above the threshold are folded. An empty row changes
    /// nothing.
    #[inline]
    pub(crate) fn row_entries(
        &mut self,
        u: u32,
        entries: impl ExactSizeIterator<Item = (u32, u32)>,
    ) {
        if self.kept.len() < entries.len() {
            self.kept.resize(entries.len(), (0, 0));
        }
        // Branch-free compaction: every entry is written at `kept`, and
        // only one at or above the threshold (>= 1) moves past it.
        let (threshold, buf) = (self.threshold, &mut self.kept[..]);
        let mut kept = 0usize;
        let mut scored = 0usize;
        for (v, score) in entries {
            buf[kept] = (v, score);
            kept += usize::from(score >= threshold);
            scored += usize::from(score != 0);
        }
        self.scored_pairs += scored;
        fold(&mut self.claims, &mut self.best_v, u, self.kept[..kept].iter().copied());
    }

    /// Reduce-side entry point: consumes one shuffled row, adding its
    /// scored-pair count and folding its packed entries, which are those at
    /// or above the threshold, in either form.
    pub(crate) fn row_record(&mut self, u: u32, record: &RowRecord) {
        self.scored_pairs += record.scored as usize;
        let (claims, best_v) = (&mut self.claims, &mut self.best_v);
        match &record.entries {
            PackedRow::Narrow(entries) => {
                fold(claims, best_v, u, entries.iter().map(|&e| unpack_narrow(e)));
            }
            PackedRow::Wide(entries) => {
                fold(claims, best_v, u, entries.iter().map(|&e| unpack_entry(e)));
            }
        }
    }

    /// Extracts this sink's accumulated state as a serializable
    /// [`SinkClaims`] — what a distributed worker ships back to the
    /// coordinator instead of the sink itself.
    pub fn into_claims(self) -> SinkClaims {
        SinkClaims {
            scored_pairs: self.scored_pairs as u64,
            claims: self.claims.iter().map(|&(u, b)| (u, b.partner, b.score)).collect(),
            bests: self
                .best_v
                .iter()
                .enumerate()
                .filter(|(_, b)| b.score > 0)
                .map(|(v, b)| (v as u32, b.partner, b.score, b.unique))
                .collect(),
        }
    }

    /// Folds a worker's serialized claims into this sink — the wire-format
    /// counterpart of [`SelectSink::merge`]. Absorbing the [`SinkClaims`] of
    /// per-row-range sinks that together tile the candidate rows leaves this
    /// sink bit-identical to one that scored every row locally: claim order
    /// is irrelevant ([`SelectSink::finish`] sorts), `scored_pairs` is a
    /// plain sum, and the per-`v` bests merge with the associative,
    /// commutative, tie-abstaining `Best::merge`.
    ///
    /// Claims are validated before any state changes: a copy-2 id at or
    /// beyond this sink's `n2`, a claimed row or per-`v` best partner outside
    /// `rows` (the copy-1 rows the producing sink scored), or a claim or
    /// per-`v` best below this sink's threshold (sinks only fold entries at
    /// or above it, so no sink produces one) is rejected and the sink is left
    /// untouched, so a corrupt or mismatched payload can never poison the
    /// selection.
    pub fn absorb_claims(
        &mut self,
        claims: &SinkClaims,
        rows: std::ops::Range<u32>,
    ) -> Result<(), GraphError> {
        let n2 = self.best_v.len() as u32;
        let invalid = |what: String| Err(GraphError::InvalidParameter(what));
        for &(u, partner, score) in &claims.claims {
            if !rows.contains(&u) {
                return invalid(format!("sink claim row {u} outside the scored rows {rows:?}"));
            }
            if partner >= n2 {
                return invalid(format!("sink claim partner {partner} out of range (n2 = {n2})"));
            }
            if score < self.threshold {
                return invalid(format!(
                    "sink claim score {score} below threshold {}",
                    self.threshold
                ));
            }
        }
        for &(v, partner, score, _) in &claims.bests {
            if v >= n2 || !rows.contains(&partner) {
                return invalid(format!(
                    "per-v best ({v}, {partner}) out of range (n2 = {n2}, rows {rows:?})"
                ));
            }
            if score < self.threshold {
                return invalid(format!(
                    "per-v best for {v} has score {score} below threshold {}",
                    self.threshold
                ));
            }
        }
        self.scored_pairs += claims.scored_pairs as usize;
        // Claims are only ever pushed for strictly-unique row bests, so the
        // flag is not part of the wire format.
        self.claims.extend(
            claims
                .claims
                .iter()
                .map(|&(u, partner, score)| (u, Best { partner, score, unique: true })),
        );
        for &(v, partner, score, unique) in &claims.bests {
            merge_best(&mut self.best_v[v as usize], Best { partner, score, unique });
        }
        Ok(())
    }
}

/// Serialized image of a [`SelectSink`]'s accumulated state — the unit a
/// distributed worker ships back to the coordinator after scoring its
/// assigned row-range.
///
/// The wire format is a fixed-width little-endian layout:
///
/// ```text
/// scored_pairs: u64
/// claim_count:  u32, then per claim  (u, partner, score): 3 x u32
/// best_count:   u32, then per best   (v, partner, score): 3 x u32, unique: u8
/// ```
///
/// [`SinkClaims::decode`] rejects truncated, oversized, or malformed bytes
/// with [`GraphError::InvalidBinary`]; it never panics and never allocates
/// more than the input length implies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SinkClaims {
    scored_pairs: u64,
    /// Rows claimed by the worker: `(u, partner, score)`, unique by
    /// construction.
    claims: Vec<(u32, u32, u32)>,
    /// Non-empty per-`v` running bests: `(v, partner, score, unique)`.
    bests: Vec<(u32, u32, u32, bool)>,
}

/// Byte width of one encoded claim entry.
const CLAIM_WIDTH: usize = 12;
/// Byte width of one encoded per-`v` best entry.
const BEST_WIDTH: usize = 13;

fn invalid_claims(e: WireError) -> GraphError {
    GraphError::InvalidBinary(format!("sink claims: {e}"))
}

impl SinkClaims {
    /// Total `(u, v)` pairs the producing sink scored.
    pub fn scored_pairs(&self) -> u64 {
        self.scored_pairs
    }

    /// Serializes the claims into the fixed-width wire format.
    ///
    /// # Panics
    ///
    /// If either list holds more entries than a `u32` count can carry;
    /// [`SinkClaims::encode_capped`] fails cleanly instead.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_capped(wire::MAX_LEN).expect("claim lists fit their u32 counts")
    }

    /// Serializes the claims, failing with [`GraphError::InvalidBinary`]
    /// when either list holds more than `max_len` entries (pass
    /// [`wire::MAX_LEN`] for the format's own limit).
    pub fn encode_capped(&self, max_len: usize) -> Result<Vec<u8>, GraphError> {
        let mut out = Vec::with_capacity(
            16 + CLAIM_WIDTH * self.claims.len() + BEST_WIDTH * self.bests.len(),
        );
        let mut w = Writer::with_max_len(&mut out, max_len);
        w.u64(self.scored_pairs);
        w.len_prefix(self.claims.len()).map_err(invalid_claims)?;
        for &(u, partner, score) in &self.claims {
            w.u32(u);
            w.u32(partner);
            w.u32(score);
        }
        w.len_prefix(self.bests.len()).map_err(invalid_claims)?;
        for &(v, partner, score, unique) in &self.bests {
            w.u32(v);
            w.u32(partner);
            w.u32(score);
            w.u8(unique as u8);
        }
        Ok(out)
    }

    /// Parses the wire format back into claims. Any structural defect —
    /// truncation, counts that overrun the payload, a malformed uniqueness
    /// byte, trailing garbage — is an error, never a panic.
    pub fn decode(bytes: &[u8]) -> Result<SinkClaims, GraphError> {
        let read = |r: &mut Reader<'_>| {
            let scored_pairs = r.u64()?;
            let n = r.count(CLAIM_WIDTH)?;
            let claims = (0..n)
                .map(|_| Ok((r.u32()?, r.u32()?, r.u32()?)))
                .collect::<Result<_, WireError>>()?;
            let n = r.count(BEST_WIDTH)?;
            let bests = (0..n)
                .map(|_| Ok((r.u32()?, r.u32()?, r.u32()?, r.bool()?)))
                .collect::<Result<_, WireError>>()?;
            r.finish()?;
            Ok(SinkClaims { scored_pairs, claims, bests })
        };
        read(&mut Reader::new(bytes)).map_err(invalid_claims)
    }
}

/// Collects the phase's candidate copy-1 nodes: degree at least `min_deg1`
/// and not yet linked, in ascending id order — the uncached reference for
/// [`CandidateCache::eligible`].
pub fn collect_candidates<G1: GraphView>(g1: &G1, links: &Linking, min_deg1: usize) -> Vec<u32> {
    (0..g1.node_count() as u32)
        .filter(|&u| g1.degree(NodeId(u)) >= min_deg1 && !links.is_linked_g1(NodeId(u)))
        .collect()
}

/// Per-run cache of one graph side's degree structure, replacing the
/// per-phase full rescan of [`collect_candidates`].
///
/// Every phase of every iteration used to read the degree of *all* `n`
/// nodes again — `O(k · log D · n)` degree lookups, each a potential page
/// fault on an mmap-backed view. Degrees never change during a run, so this
/// cache reads them exactly once, grouping node ids by `⌊log₂ degree⌋`
/// (each group kept in ascending id order). A phase's eligible set is then
/// assembled from whole groups — only the split group of a non-power-of-two
/// `min_degree` ever re-reads a degree — filtered by the current link state.
///
/// [`CandidateCache::eligible`] returns exactly what [`collect_candidates`]
/// would (pinned by the equivalence tests), so cached and uncached phases
/// produce bit-identical links.
pub struct CandidateCache {
    /// `groups[j]` holds the node ids with `⌊log₂ degree⌋ == j`, ascending.
    groups: Vec<Vec<u32>>,
}

impl CandidateCache {
    /// Reads every node's degree once and groups ids by `⌊log₂ degree⌋`
    /// (degree-0 nodes are dropped — no `min_degree ≥ 1` can admit them).
    pub fn build<G: GraphView>(g: &G) -> CandidateCache {
        let mut groups: Vec<Vec<u32>> = Vec::new();
        for u in 0..g.node_count() as u32 {
            let d = g.degree(NodeId(u));
            if d == 0 {
                continue;
            }
            let j = (usize::BITS - 1 - d.leading_zeros()) as usize;
            if groups.len() <= j {
                groups.resize_with(j + 1, Vec::new);
            }
            groups[j].push(u);
        }
        CandidateCache { groups }
    }

    /// The ids with degree at least `min_degree` (≥ 1) for which
    /// `is_linked` is false, ascending — exactly
    /// [`collect_candidates`]' output for the matching side.
    ///
    /// Group `j` covers degrees `[2^j, 2^{j+1})`, so groups above
    /// `⌊log₂ min_degree⌋` qualify wholesale; only that boundary group needs
    /// a per-id degree check, and only when `min_degree` is not a power of
    /// two (the algorithm's buckets always are, so the check usually
    /// vanishes). `degree_of` is consulted for just that split group.
    pub fn eligible<L, D>(&self, min_degree: usize, is_linked: L, degree_of: D) -> Vec<u32>
    where
        L: Fn(u32) -> bool,
        D: Fn(u32) -> usize,
    {
        let min_degree = min_degree.max(1);
        let boundary = (usize::BITS - 1 - min_degree.leading_zeros()) as usize;
        let split = !min_degree.is_power_of_two();
        let mut out = Vec::new();
        for (j, group) in self.groups.iter().enumerate().skip(boundary) {
            for &u in group {
                if j == boundary && split && degree_of(u) < min_degree {
                    continue;
                }
                if !is_linked(u) {
                    out.push(u);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Splits the sorted candidate list into at most `workers` contiguous
/// chunks of equal length (the last may be shorter). Which chunking is
/// chosen never changes results: rows are scored independently and the
/// sinks merge order-independently.
fn chunk_candidates(candidates: &[u32], workers: usize) -> Vec<&[u32]> {
    candidates.chunks(candidates.len().div_ceil(workers.max(1)).max(1)).collect()
}

/// One exact in-process phase: witness scoring and mutual-best selection in
/// a single pass over `candidates` (ascending copy-1 ids, already
/// degree-eligible and unlinked — what [`CandidateCache::eligible`] or
/// [`collect_candidates`] return), without materializing a score table.
///
/// Builds the phase's [`LinkCache`] and runs [`score_phase_cached`] on it;
/// an empty `candidates` skips both. Returns `(scored_pairs, selected_pairs)`
/// where `scored_pairs` equals the length of the oracle table
/// `count_sequential(..)` and `selected_pairs` equals
/// `mutual_best_pairs(&table, threshold)` (ascending `(u, v)` order). This
/// is the phase `UserMatching` runs on the sequential and rayon backends.
///
/// # Panics
///
/// If `g2` is directed and `candidates` is not empty ([`LinkCache::build`]).
pub fn fused_phase_on<G1, G2>(
    g1: &G1,
    g2: &G2,
    links: &Linking,
    candidates: &[u32],
    min_deg2: usize,
    threshold: u32,
    parallel: bool,
) -> (usize, Vec<(NodeId, NodeId)>)
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    if candidates.is_empty() {
        return (0, Vec::new());
    }
    let n2 = g2.node_count();
    let cache = LinkCache::build_traced(g2, links, min_deg2);
    score_phase_cached(g1, &cache, n2, candidates, parallel, || SelectSink::new(n2, threshold))
        .finish()
}

/// Scores every candidate row through a caller-supplied [`LinkCache`] (and
/// `n2`, the copy-2 node count the cache was built against) into the sink
/// `make_sink` returns — lets a caller that needs the cache for its own
/// bookkeeping (the adaptive blocking gate) build it once and still run the
/// exact phase on it.
///
/// Rows are scored in the cache's rank space: every arena and per-worker
/// sink is sized to [`LinkCache::eligible_count`], not `n2`, and the merged
/// rank-space sink is translated into `make_sink`'s node-id sink once, at
/// the end. `parallel = false` scores every row on the calling thread;
/// `parallel = true` partitions the candidate rows across rayon workers
/// (each with a private arena and sink) and merges the per-worker sinks.
/// Both paths feed identical rows to identical sinks, so the result is the
/// same either way.
///
/// # Panics
///
/// If `n2` is not the copy-2 node count `cache` was built against.
pub fn score_phase_cached<G1, F>(
    g1: &G1,
    cache: &LinkCache,
    n2: usize,
    candidates: &[u32],
    parallel: bool,
    make_sink: F,
) -> SelectSink
where
    G1: GraphView + Sync,
    F: FnOnce() -> SelectSink,
{
    assert_eq!(n2, cache.n2, "score_phase_cached: n2 differs from the cache's copy 2");
    let mut sink = make_sink();
    let (eligible, threshold) = (cache.eligible_count(), sink.threshold);
    let score_rows = |rows: &[u32]| {
        let mut arena = ScoreArena::new(eligible, threshold);
        let mut ranked = SelectSink::new(eligible, threshold);
        for &u in rows {
            arena.score_row(g1, NodeId(u), cache);
            ranked.row(u, &arena);
        }
        ranked
    };
    let ranked = if !parallel || candidates.len() < PARALLEL_CUTOFF {
        score_rows(candidates)
    } else {
        // Contiguous chunks of candidate rows, chunked here rather than by
        // the scheduler, so
        // scratch memory stays O(chunks · eligible) (one arena + one sink
        // each) and the number of sink merges stays proportional to the
        // worker count, independent of how finely the underlying pool
        // slices work. Whole rows stay on one worker either way, and merge
        // order is fixed left-to-right (the sinks are order-independent
        // regardless).
        let workers = rayon::current_num_threads().max(1);
        let chunks = chunk_candidates(candidates, workers);
        let sinks: Vec<SelectSink> = chunks.par_iter().map(|chunk| score_rows(chunk)).collect();
        sinks
            .into_iter()
            .reduce(SelectSink::merge)
            .expect("candidate set is non-empty in the parallel branch")
    };
    sink.absorb_ranked(ranked, cache);
    sink
}

/// Packs a `(v, count)` score entry into one shuffle-friendly `u64`: the
/// copy-2 node id in the high half, the witness count in the low half.
/// Ordering packed entries orders them by `v` first.
#[inline]
pub(crate) fn pack_entry(v: u32, count: u32) -> u64 {
    ((v as u64) << 32) | count as u64
}

/// Inverse of [`pack_entry`].
#[inline]
pub(crate) fn unpack_entry(packed: u64) -> (u32, u32) {
    ((packed >> 32) as u32, packed as u32)
}

/// Bits of the witness count in a narrow entry ([`PackedRow::Narrow`]).
const NARROW_COUNT_BITS: u32 = 8;

/// Inverse of a narrow entry `v << 8 | count`.
#[inline]
fn unpack_narrow(packed: u32) -> (u32, u32) {
    (packed >> NARROW_COUNT_BITS, packed & ((1 << NARROW_COUNT_BITS) - 1))
}

/// The packed `(v, count)` entries of one shuffled row by copy-2 node id,
/// in 4 bytes each when every entry of the row fits, else in 8.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum PackedRow {
    /// Entries `v << 8 | count`: every `v` is below 2^24 and every count
    /// below 2^8.
    Narrow(Vec<u32>),
    /// Entries [`pack_entry`]`(v, count)`, for any other row.
    Wide(Vec<u64>),
}

impl PackedRow {
    /// Packs `entries`, narrow when every one of them fits.
    fn new(entries: impl Iterator<Item = (u32, u32)> + Clone) -> PackedRow {
        // One pass builds the narrow form and collects the bits that do
        // not fit; a row with any such bit is packed again, wide.
        let mut overflow = 0;
        let narrow = entries
            .clone()
            .map(|(v, count)| {
                overflow |= (v >> (32 - NARROW_COUNT_BITS)) | (count >> NARROW_COUNT_BITS);
                v << NARROW_COUNT_BITS | count
            })
            .collect();
        if overflow == 0 {
            PackedRow::Narrow(narrow)
        } else {
            PackedRow::Wide(entries.map(|(v, count)| pack_entry(v, count)).collect())
        }
    }

    /// Number of entries.
    fn len(&self) -> usize {
        match self {
            PackedRow::Narrow(entries) => entries.len(),
            PackedRow::Wide(entries) => entries.len(),
        }
    }
}

/// One shuffled score row: what selection reads of it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct RowRecord {
    /// The row's scored pairs: every `v` with a non-zero count, listed or
    /// not. At least `entries.len()`.
    scored: u32,
    /// The row's entries with a count of at least the phase threshold.
    entries: PackedRow,
}

/// One phase of User-Matching as a single MapReduce round on the arena
/// engine: whole-row mappers, packed shuffle, fused select reduce.
///
/// * **Map** — each task scores a contiguous chunk of the `candidates`
///   rows (ascending copy-1 ids, as for [`fused_phase_on`]) through the
///   round's one [`LinkCache`], built before the round and shared by every
///   task (in a real cluster the cache is the map-side join against the
///   broadcast link set). A task splits its rows into `engine.workers()`
///   contiguous pieces scored on rayon threads, each through its own
///   `ScoreArena` in the cache's rank space, and concatenates their
///   records in row order, so a round of one large task still uses every
///   worker and emits exactly what one thread would: one pre-aggregated
///   record per non-empty row, a dense `u32` key and a `RowRecord`: the
///   row's scored-pair count and its packed `(v, count)` entries with a
///   count of at least `threshold`, translated back to copy-2 node ids. A
///   row with no such entry still ships its count. A row whose every
///   shipped entry has `v < 2^24` and `count < 2^8` packs an entry in 4
///   bytes, any other row in 8 (`v` in the high half, `count` in the low).
///   The shuffle is charged 4 bytes per row (the key) plus 8 per scored
///   pair, shipped or not and whatever the form: `PackedRowCodec`'s
///   `bytes_of` charge, so the round's `shuffled_bytes` and its spill
///   decisions depend on neither.
/// * **Shuffle** — records are range-partitioned by `u`
///   ([`range_partition`]), so a reduce partition owns a contiguous row
///   range in ascending order. Over a spill budget the shuffle spills to
///   checksummed run files in `PackedRowCodec`'s format, each entry in
///   the width it is held in.
/// * **Reduce** — each partition adds each row's scored-pair count and
///   folds its entries into a [`SelectSink`] as they stream off the
///   engine's k-way merge of its buckets and spill runs ([`Groups`]); the
///   per-partition sinks merge exactly like the rayon backend's per-worker
///   sinks (`Best::merge` is associative and
///   tie-abstention-preserving), so no global score table is ever built.
///
/// Returns `(scored_pairs, selected_pairs)`, bit-for-bit identical to
/// [`fused_phase_on`] and therefore to
/// `mutual_best_pairs(&count_sequential(..), threshold)`. Where the paper
/// sketches this phase as 4 MapReduce rounds (score, best-per-`u`,
/// best-per-`v`, join), whole-row mappers + range partitioning collapse it
/// into one round per phase — `O(k log D)` rounds total.
///
/// # Errors
///
/// Fails with [`EngineError`] only when the engine carries a spill budget
/// and the round's spill I/O fails or a run file is corrupt; an engine
/// without a budget never returns `Err`.
///
/// # Panics
///
/// If `g2` is directed and `candidates` is not empty ([`LinkCache::build`]).
pub fn mapreduce_fused_phase_on<G1, G2>(
    engine: &Engine,
    g1: &G1,
    g2: &G2,
    links: &Linking,
    candidates: Vec<u32>,
    min_deg2: usize,
    threshold: u32,
) -> Result<(usize, Vec<(NodeId, NodeId)>), EngineError>
where
    G1: GraphView + Sync,
    G2: GraphView + Sync,
{
    let (n1, n2) = (g1.node_count(), g2.node_count());
    let parts = engine.workers();
    // One cache per round, shared by the map tasks (none without candidates).
    let cache = (!candidates.is_empty()).then(|| LinkCache::build(g2, links, min_deg2));
    let sinks: Vec<SelectSink> = engine.run(
        "witness-score",
        candidates,
        |chunk: &[u32]| {
            let cache = cache.as_ref().expect("a map task implies candidates");
            // The task's rows split across the engine's workers, the pieces'
            // records concatenated in row order: the task emits exactly the
            // records one thread would.
            let workers = if chunk.len() < PARALLEL_CUTOFF { 1 } else { parts };
            let pieces = chunk_candidates(chunk, workers);
            let scored: Vec<Vec<(u32, RowRecord)>> =
                pieces.par_iter().map(|rows| packed_rows(g1, cache, threshold, rows)).collect();
            scored.into_iter().flatten().collect()
        },
        move |&u: &u32| range_partition(u, n1, parts),
        |_, groups: &mut Groups<'_, u32, RowRecord>| {
            let mut sink = SelectSink::new(n2, threshold);
            for (u, records) in groups {
                let [row]: [RowRecord; 1] = records.try_into().expect(
                    "one record per row: each candidate row sits in exactly one map task, \
                     and packed_rows emits at most one record for it",
                );
                sink.row_record(u, &row);
            }
            sink
        },
        &PackedRowCodec,
    )?;
    let merged = sinks.into_iter().reduce(SelectSink::merge);
    Ok(merged.unwrap_or_else(|| SelectSink::new(n2, threshold)).finish())
}

/// Scores `rows` through `cache` on one task-local [`ScoreArena`] and
/// returns one shuffle record per non-empty row: the row's key, its
/// scored-pair count and its packed `(v, count)` entries at or above
/// `threshold` by copy-2 node id, so the shuffle and reduce never see
/// ranks.
fn packed_rows<G1: GraphView>(
    g1: &G1,
    cache: &LinkCache,
    threshold: u32,
    rows: &[u32],
) -> Vec<(u32, RowRecord)> {
    let nodes = cache.nodes();
    let mut arena = ScoreArena::new(cache.eligible_count(), threshold);
    let mut records = Vec::new();
    for &u in rows {
        arena.score_row(g1, NodeId(u), cache);
        if arena.scored() > 0 {
            let entries = arena.listed().iter().map(|&r| (nodes[r as usize], arena.get(r)));
            // A row's scored pairs are distinct eligible ranks, and ranks
            // are `u32`.
            let scored = arena.scored() as u32;
            records.push((u, RowRecord { scored, entries: PackedRow::new(entries) }));
        }
    }
    records
}

/// Record format of the packed-row shuffle.
///
/// A row is charged 4 bytes for its `u32` key plus 8 per scored pair: the
/// wide size of a record that shipped every scored pair. The charge is what
/// the spill budget and [`snr_mapreduce::RoundStats::shuffled_bytes`]
/// count, not what the row holds or encodes to; a record ships only its
/// entries at or above the phase threshold, in 4 or 8 bytes each, so the
/// charge counts scored pairs, not bytes held.
///
/// A spilled group is its dense `u32` key, a record count (one per row in
/// practice), and each record as its `u32` scored-pair count, a `u32` entry
/// count, a width byte (4 for [`PackedRow::Narrow`], 8 for
/// [`PackedRow::Wide`]) and the entries as held, little-endian — exactly
/// the in-memory `(u32, Vec<RowRecord>)` shape, so a round that spills to
/// disk reduces bit-identically to one that never did.
pub(crate) struct PackedRowCodec;

impl PackedRowCodec {
    /// [`SpillCodec::encode_group`] with every length prefix limited to
    /// `max_len` instead of the format's `u32` limit, so each guard can be
    /// tested at a small length.
    fn encode_group_capped(
        key: u32,
        values: &[RowRecord],
        out: &mut Vec<u8>,
        max_len: usize,
    ) -> Result<(), String> {
        let too_long = |e: WireError| format!("packed-row group: {e}");
        let mut w = Writer::with_max_len(out, max_len);
        w.u32(key);
        w.len_prefix(values.len()).map_err(too_long)?;
        for record in values {
            w.u32(record.scored);
            w.len_prefix(record.entries.len()).map_err(too_long)?;
            match &record.entries {
                PackedRow::Narrow(entries) => {
                    w.u8(4);
                    w.u32s(entries);
                }
                PackedRow::Wide(entries) => {
                    w.u8(8);
                    w.u64s(entries);
                }
            }
        }
        Ok(())
    }
}

impl SpillCodec<u32, RowRecord> for PackedRowCodec {
    fn bytes_of(&self, _key: &u32, record: &RowRecord) -> usize {
        4 + 8 * record.scored as usize
    }

    fn encode_group(
        &self,
        key: &u32,
        values: &[RowRecord],
        out: &mut Vec<u8>,
    ) -> Result<(), String> {
        PackedRowCodec::encode_group_capped(*key, values, out, wire::MAX_LEN)
    }

    fn decode_group(&self, bytes: &[u8]) -> Result<(u32, Vec<RowRecord>), String> {
        let wire = |e: WireError| format!("packed-row group: {e}");
        let mut r = Reader::new(bytes);
        let key = r.u32().map_err(wire)?;
        // A record is at least its scored-pair count, its entry count and
        // its width byte.
        let records = r.count(9).map_err(wire)?;
        let values = (0..records)
            .map(|_| {
                let scored = r.u32().map_err(wire)?;
                let len = r.u32().map_err(wire)?;
                if scored < len {
                    return Err(format!(
                        "packed-row group: {len} entries exceed the row's {scored} scored pairs"
                    ));
                }
                let entries = match r.u8().map_err(wire)? {
                    4 => r.u32s(len as usize).map(PackedRow::Narrow).map_err(wire),
                    8 => r.u64s(len as usize).map(PackedRow::Wide).map_err(wire),
                    width => Err(format!("packed-row group: entry width {width} is not 4 or 8")),
                }?;
                Ok(RowRecord { scored, entries })
            })
            .collect::<Result<_, String>>()?;
        r.finish().map_err(wire)?;
        Ok((key, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::mutual_best_pairs;
    use crate::witness::{count_brute_force, count_sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snr_generators::preferential_attachment;
    use snr_graph::CsrGraph;
    use snr_sampling::independent::independent_deletion_symmetric;
    use snr_sampling::sample_seeds;

    fn tiny_case() -> (CsrGraph, CsrGraph, Linking) {
        let g1 = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let g2 = CsrGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let links = Linking::with_seeds(5, 5, &[(NodeId(2), NodeId(2))]);
        (g1, g2, links)
    }

    fn pa_workload(seed: u64, n: usize, m: usize) -> (CsrGraph, CsrGraph, Linking) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = preferential_attachment(n, m, &mut rng).unwrap();
        let pair = independent_deletion_symmetric(&g, 0.6, &mut rng).unwrap();
        let seeds = sample_seeds(&pair, 0.12, &mut rng).unwrap();
        let links = Linking::with_seeds(pair.g1.node_count(), pair.g2.node_count(), &seeds);
        (pair.g1, pair.g2, links)
    }

    /// One exact in-process phase over the uncached candidate list.
    fn phase<G1, G2>(
        g1: &G1,
        g2: &G2,
        links: &Linking,
        min_deg1: usize,
        min_deg2: usize,
        threshold: u32,
        parallel: bool,
    ) -> (usize, Vec<(NodeId, NodeId)>)
    where
        G1: GraphView + Sync,
        G2: GraphView + Sync,
    {
        let candidates = collect_candidates(g1, links, min_deg1);
        fused_phase_on(g1, g2, links, &candidates, min_deg2, threshold, parallel)
    }

    /// The candidate rows of `rows` scored through `cache` into a fresh
    /// sink, as the distributed driver's worker scores one task.
    fn score_range(
        g1: &CsrGraph,
        cache: &LinkCache,
        links: &Linking,
        min_deg1: usize,
        threshold: u32,
        rows: std::ops::Range<u32>,
    ) -> SelectSink {
        let mut candidates = collect_candidates(g1, links, min_deg1);
        candidates.retain(|u| rows.contains(u));
        let n2 = cache.n2;
        score_phase_cached(g1, cache, n2, &candidates, false, || SelectSink::new(n2, threshold))
    }

    /// One MapReduce phase over the uncached candidate list.
    fn mapreduce_phase<G1, G2>(
        engine: &Engine,
        g1: &G1,
        g2: &G2,
        links: &Linking,
        min_deg1: usize,
        min_deg2: usize,
        threshold: u32,
    ) -> Result<(usize, Vec<(NodeId, NodeId)>), EngineError>
    where
        G1: GraphView + Sync,
        G2: GraphView + Sync,
    {
        let candidates = collect_candidates(g1, links, min_deg1);
        mapreduce_fused_phase_on(engine, g1, g2, links, candidates, min_deg2, threshold)
    }

    #[test]
    fn arena_rows_reset_in_constant_time() {
        let mut arena = ScoreArena::new(4, 2);
        arena.begin_row();
        arena.bump(&[1, 3, 1]);
        assert_eq!((arena.listed(), arena.scored()), (&[1][..], 2));
        assert_eq!(arena.get(1), 2);
        assert_eq!(arena.get(3), 1);
        arena.begin_row();
        assert!(arena.listed().is_empty());
        assert_eq!(arena.scored(), 0);
        arena.bump(&[1]);
        assert_eq!(arena.get(1), 1, "stale score must not leak across rows");
        assert_eq!((arena.listed(), arena.scored()), (&[][..], 1));
    }

    #[test]
    fn arena_epoch_wrap_clears_stamps() {
        let mut arena = ScoreArena::new(3, 1);
        arena.epoch = u32::MAX - 1;
        arena.begin_row(); // epoch == MAX
        arena.bump(&[0, 0, 0, 1]);
        assert_eq!((arena.get(0), arena.get(1)), (3, 1));
        assert_eq!(arena.cells[0], (u64::from(u32::MAX) << 32) | 3, "packed (stamp, score)");
        arena.begin_row(); // wraps: every cell cleared, epoch == 1
        assert_eq!(arena.epoch, 1);
        assert!(arena.cells.iter().all(|&c| c == 0), "a wrap must clear every packed cell");
        // Without the clear, node 0's stale cell (stamp MAX) would pass the
        // current-row test and its score 3 would leak into this row.
        assert_eq!(arena.current(0), None);
        assert_eq!(arena.current(1), None);
        arena.bump(&[0]);
        assert_eq!(arena.get(0), 1);
        assert_eq!(arena.current(1), None);
        assert_eq!((arena.listed(), arena.scored()), (&[0][..], 1));
    }

    /// Random bump sequences against a `HashMap` reference, over many rows
    /// of one arena so stale cells of earlier rows are always in play, at
    /// thresholds 1, 2 and 3: the listed ranks are exactly those scoring at
    /// least `T`, in the order their scores reached it, the scored-pair
    /// count is the number of distinct ranks touched, and `get`/`current`
    /// agree, whether a row arrives one node per `bump` or in random-length
    /// slices. Covers the epoch wrap at `u32::MAX` and a row touching every
    /// node, which grows the listed buffer to `n2` from an empty start.
    #[test]
    fn arena_matches_a_hashmap_reference_on_random_rows() {
        use rand::Rng;
        use std::collections::HashMap;
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for case in 0..60 {
            let n2 = rng.gen_range(1..=400usize);
            let t = 1 + case % 3;
            let mut arena = ScoreArena::new(n2, t);
            assert!(arena.listed.is_empty(), "the buffer is not sized to n2 up front");
            if case % 3 == 0 {
                // The wrap lands on the fourth row.
                arena.epoch = u32::MAX - 3;
            }
            for row in 0..24 {
                let bumps: Vec<u32> = if row % 8 == 5 {
                    // Every node, then a second pass over every third one.
                    (0..n2 as u32).rev().chain((0..n2 as u32).step_by(3)).collect()
                } else {
                    let len = rng.gen_range(0..=3 * n2);
                    (0..len).map(|_| rng.gen_range(0..n2 as u32)).collect()
                };
                arena.begin_row();
                let mut rest = &bumps[..];
                while !rest.is_empty() {
                    let most = if row % 2 == 0 { 1 } else { rest.len().min(9) };
                    let (head, tail) = rest.split_at(rng.gen_range(1..=most));
                    arena.bump(head);
                    rest = tail;
                }
                let mut crossings = Vec::new();
                let mut reference: HashMap<u32, u32> = HashMap::new();
                for &v in &bumps {
                    let score = reference.entry(v).or_insert(0);
                    *score += 1;
                    if *score == t {
                        crossings.push(v);
                    }
                }
                assert_eq!(arena.listed(), &crossings[..], "case {case} row {row} t={t}");
                assert_eq!(arena.scored(), reference.len(), "case {case} row {row} t={t}");
                for v in 0..n2 as u32 {
                    let expected = reference.get(&v).copied();
                    assert_eq!(arena.current(v), expected, "case {case} row {row} v {v}");
                    if let Some(score) = expected {
                        assert_eq!(arena.get(v), score);
                    }
                }
            }
        }
    }

    /// A phase result: `(scored_pairs, selected_pairs)`.
    type Selection = (usize, Vec<(NodeId, NodeId)>);

    /// Feeds hand-written rows to four sinks, one per entry point of the
    /// fold: `row` reads an arena listing at `t`, `row_entries` gets every
    /// entry of the row, reversed and mixed with zero-score entries (as the
    /// blocked verify may pass a proposal sharing no witness), and
    /// `row_record` gets the arena's scored-pair count and listed entries
    /// packed, once narrow and once wide. Asserts the four agree and
    /// returns their result next to the oracle selection on the same
    /// entries.
    fn select_rows(rows: &[(u32, &[u32])], n2: usize, t: u32) -> (Selection, Selection) {
        let mut arena = ScoreArena::new(n2, t);
        let [mut by_arena, mut by_entries, mut by_narrow, mut by_wide] =
            [(); 4].map(|_| SelectSink::new(n2, t));
        let mut table = crate::witness::ScoreTable::new();
        for &(u, bumps) in rows {
            arena.begin_row();
            arena.bump(bumps);
            for &v in bumps {
                *table.entry((u, v)).or_insert(0) += 1;
            }
            by_arena.row(u, &arena);
            let mut entries: Vec<(u32, u32)> =
                (0..n2 as u32).filter_map(|v| Some((v, arena.current(v)?))).collect();
            assert_eq!(entries.len(), arena.scored(), "row {u} t={t}");
            entries.reverse();
            let unscored = (0..n2 as u32).filter(|&v| arena.current(v).is_none()).map(|v| (v, 0));
            let mixed: Vec<(u32, u32)> = entries.iter().copied().chain(unscored).collect();
            by_entries.row_entries(u, mixed.into_iter());
            let listed: Vec<(u32, u32)> =
                arena.listed().iter().map(|&v| (v, arena.get(v))).collect();
            let scored = arena.scored() as u32;
            let narrow = PackedRow::new(listed.iter().copied());
            assert!(matches!(narrow, PackedRow::Narrow(_)), "small entries pack narrow");
            by_narrow.row_record(u, &RowRecord { scored, entries: narrow });
            let wide = listed.iter().map(|&(v, score)| pack_entry(v, score)).collect();
            by_wide.row_record(u, &RowRecord { scored, entries: PackedRow::Wide(wide) });
        }
        let got = by_arena.finish();
        assert_eq!(by_entries.finish(), got, "row_entries against row at t={t}");
        assert_eq!(by_narrow.finish(), got, "narrow row_record against row at t={t}");
        assert_eq!(by_wide.finish(), got, "wide row_record against row at t={t}");
        (got, (table.len(), mutual_best_pairs(&table, t)))
    }

    #[test]
    fn every_fold_entry_point_is_exact_around_the_threshold() {
        // Scores at T - 1, T and T + 1 for T = 3.
        let rows: &[(u32, &[u32])] = &[
            // Scores 2, 3, 4: claims node 3 at T + 1.
            (0, &[1, 1, 2, 2, 2, 3, 3, 3, 3]),
            // A tie at T: no claim.
            (1, &[4, 4, 4, 5, 5, 5]),
            // Only entries below T: counted, never folded.
            (2, &[6, 6, 7, 7]),
            // Node 3 again at T, below row 0's T + 1: (0, 3) survives.
            (3, &[3, 3, 3]),
            // Claims node 2 at T, but node 2 ties at T with row 0.
            (4, &[2, 2, 2]),
            // Claims node 8 at exactly T; node 9 at T - 1 is not folded.
            (5, &[8, 8, 8, 9, 9]),
            // Claims node 9 at T + 1, unchallenged above T.
            (6, &[9, 9, 9, 9]),
        ];
        let (got, expected) = select_rows(rows, 10, 3);
        assert_eq!(got, expected);
        let pairs = vec![(NodeId(0), NodeId(3)), (NodeId(5), NodeId(8)), (NodeId(6), NodeId(9))];
        assert_eq!(got, (12, pairs));
        for t in [0, 1, 2, 4, 5, u32::MAX] {
            let (got, expected) = select_rows(rows, 10, t);
            assert_eq!(got, expected, "t={t}");
        }
    }

    #[test]
    fn selection_handles_ties_at_and_maxima_below_the_threshold() {
        let rows: &[(u32, &[u32])] = &[
            // Row 0 ties at exactly T = 2: no claim.
            (0, &[1, 2, 1, 2]),
            // Row 1's maximum (1) is below T = 2: counted, never folded.
            (1, &[3, 4]),
            // Row 2: node 5 crosses T and keeps climbing; node 6 stays
            // below. Claims (2, 5).
            (2, &[5, 5, 6, 5, 5, 5]),
            // Row 3 also reaches node 5, but lower: (2, 5) stays unique.
            (3, &[5, 5]),
            // Rows 4 and 5 both score node 7 exactly at T: each claims it,
            // but 7's best is a tie at T, so neither pair survives.
            (4, &[7, 7]),
            (5, &[7, 7, 8]),
        ];
        let (got, expected) = select_rows(rows, 9, 2);
        assert_eq!(got, expected);
        assert_eq!(got, (10, vec![(NodeId(2), NodeId(5))]));
        for t in [1, 3, u32::MAX] {
            let (got, expected) = select_rows(rows, 9, t);
            assert_eq!(got, expected, "t={t}");
        }
    }

    #[test]
    fn empty_rows_are_a_no_op() {
        let mut sink = SelectSink::new(4, 2);
        sink.row_entries(0, std::iter::empty());
        sink.row_record(1, &RowRecord { scored: 0, entries: PackedRow::Narrow(Vec::new()) });
        sink.row_record(3, &RowRecord { scored: 0, entries: PackedRow::Wide(Vec::new()) });
        let mut arena = ScoreArena::new(4, 2);
        arena.begin_row();
        sink.row(2, &arena);
        assert!(sink.claims.is_empty());
        assert!(sink.best_v.iter().all(|b| b.score == 0));
        assert_eq!(sink.finish(), (0, vec![]));
    }

    /// The cache as a literal decode would build it: every link's `w2`
    /// neighbor list, in link order, filtered to the eligible entries.
    fn literal_decode<G2: GraphView>(g2: &G2, links: &Linking, d: usize) -> [Vec<u32>; 3] {
        let mut slot = vec![NO_LINK; links.g1_capacity()];
        let (mut offsets, mut targets) = (vec![0], Vec::new());
        for (k, (w1, w2)) in links.pairs().enumerate() {
            slot[w1.index()] = k as u32;
            let eligible = |v: &NodeId| g2.degree(*v) >= d && !links.is_linked_g2(*v);
            targets.extend(g2.neighbors_iter(w2).filter(eligible).map(|v| v.0));
            offsets.push(targets.len() as u32);
        }
        [slot, offsets, targets]
    }

    /// The cache's targets translated from ranks to copy-2 node ids.
    fn node_targets(cache: &LinkCache) -> Vec<u32> {
        cache.targets.iter().map(|&r| cache.nodes[r as usize]).collect()
    }

    /// Disjoint complete bipartite blocks K(1,2), K(2,4), K(4,8) and
    /// K(8,8) plus a path: every node's degree is exactly 1, 2, 4 or 8.
    fn power_of_two_degrees() -> CsrGraph {
        let mut edges = Vec::new();
        let mut next = 0u32;
        for (a, b) in [(1u32, 2u32), (2, 4), (4, 8), (8, 8)] {
            for i in 0..a {
                edges.extend((0..b).map(|j| (next + i, next + a + j)));
            }
            next += a + b;
        }
        edges.extend((next..next + 5).map(|v| (v, v + 1)));
        CsrGraph::from_edges(next as usize + 6, &edges)
    }

    #[test]
    fn link_cache_build_matches_a_literal_decode() {
        use rand::seq::SliceRandom;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x11ca);
        let star = CsrGraph::from_edges(40, &(1..40).map(|v| (0, v)).collect::<Vec<_>>());
        let graphs = [
            ("er", snr_generators::gnp(300, 0.03, &mut rng).unwrap()),
            ("pa", preferential_attachment(400, 5, &mut rng).unwrap()),
            ("star", star),
            ("2^j", power_of_two_degrees()),
        ];
        let dir = std::env::temp_dir().join(format!("snr-link-cache-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut transposed = [0usize; 2];
        for (name, g2) in &graphs {
            let n = g2.node_count();
            let path = dir.join(format!("{name}.snrs"));
            snr_store::write_segment_file(g2, &path).unwrap();
            let mmap = snr_store::MmapGraph::open(&path).unwrap();
            // Links pair copy-1 ids with shuffled copy-2 ids, so link order
            // (copy-1 order) differs from the order the build walks copy 2.
            let mut partners: Vec<u32> = (0..n as u32).collect();
            partners.shuffle(&mut rng);
            let pairs: Vec<(NodeId, NodeId)> =
                (0..n as u32).map(|i| (NodeId(i), NodeId(partners[i as usize]))).collect();
            let mut partial = |p| pairs.iter().copied().filter(|_| rng.gen_bool(p)).collect();
            let (sparse, dense): (Vec<_>, Vec<_>) = (partial(0.1), partial(0.7));
            let link_sets =
                [("empty", &[][..]), ("10%", &sparse[..]), ("70%", &dense[..]), ("all", &pairs)];
            for (set, seeds) in link_sets {
                let links = Linking::with_seeds(n, n, seeds);
                for d in [1usize, 2, 4, 8] {
                    let expected = literal_decode(g2, &links, d);
                    // Which decode the build picks: the linked rows unless
                    // the eligible rows hold fewer entries.
                    let linked: usize = links.pairs().map(|(_, w2)| g2.degree(w2)).sum();
                    let eligible: usize = (0..n as u32)
                        .map(NodeId)
                        .filter(|&v| g2.degree(v) >= d && !links.is_linked_g2(v))
                        .map(|v| g2.degree(v))
                        .sum();
                    transposed[usize::from(linked > eligible)] += 1;
                    let builds = [
                        ("csr", LinkCache::build(g2, &links, d)),
                        ("compact", LinkCache::build(&g2.compact(), &links, d)),
                        ("mmap", LinkCache::build(&mmap, &links, d)),
                    ];
                    for (view, cache) in builds {
                        let targets = node_targets(&cache);
                        let got = [cache.slot, cache.offsets, targets];
                        assert_eq!(got, expected, "{name} {set} links, d={d}, {view}");
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(transposed.iter().all(|&cases| cases > 0), "both decodes run: {transposed:?}");
    }

    /// The ranks are dense over exactly the eligible copy-2 nodes, ordered
    /// by `⌊log₂ degree⌋` descending and then by id (so every power-of-two
    /// degree bound's eligible set is a rank prefix), and the lists
    /// translate back to a literal decode's, whichever side the build
    /// decodes. Two isolated nodes put degree 0 in play at `min_deg2` 0.
    #[test]
    fn link_cache_ranks_eligible_nodes_by_degree_bucket_then_id() {
        let base = power_of_two_degrees();
        let n = base.node_count() + 2;
        let g2 = CsrGraph::from_edges(n, &edges_of(&base));
        let key = |v: u32| (g2.degree(NodeId(v)).leading_zeros(), v);
        // Every third copy-2 node is linked, to copy-1 nodes in reverse.
        let seeds: Vec<(NodeId, NodeId)> =
            (0..n as u32).step_by(3).map(|v| (NodeId(n as u32 - 1 - v), NodeId(v))).collect();
        let links = Linking::with_seeds(n, n, &seeds);
        for d in [0usize, 1, 3, 4, 8] {
            let eligible: Vec<u32> = (0..n as u32)
                .filter(|&v| g2.degree(NodeId(v)) >= d && !links.is_linked_g2(NodeId(v)))
                .collect();
            let expected = literal_decode(&g2, &links, d);
            for transpose in [false, true] {
                let cache = LinkCache::build_from(&g2, &links, d, |_, _| transpose);
                let case = format!("d={d} transpose={transpose}");
                assert_eq!(cache.eligible_count(), eligible.len(), "{case}");
                let mut ranked = cache.nodes().to_vec();
                ranked.sort_unstable();
                ranked.dedup();
                assert_eq!(
                    ranked, eligible,
                    "rank -> node is a bijection onto the eligible set, {case}"
                );
                assert!(
                    cache.nodes().windows(2).all(|w| key(w[0]) < key(w[1])),
                    "bucket descending, then id: {:?}, {case}",
                    cache.nodes()
                );
                for bound in [1usize, 2, 4, 8, 16] {
                    let prefix =
                        cache.nodes().iter().take_while(|&&v| g2.degree(NodeId(v)) >= bound);
                    let total = eligible.iter().filter(|&&v| g2.degree(NodeId(v)) >= bound).count();
                    assert_eq!(prefix.count(), total, "degree >= {bound} is a rank prefix, {case}");
                }
                assert!(cache.targets.iter().all(|&r| (r as usize) < eligible.len()), "{case}");
                let got = [cache.slot.clone(), cache.offsets.clone(), node_targets(&cache)];
                assert_eq!(got, expected, "{case}");
            }
        }
    }

    /// Every undirected edge of `g` once, as `(u, v)` with `u < v`.
    fn edges_of(g: &CsrGraph) -> Vec<(u32, u32)> {
        (0..g.node_count() as u32)
            .flat_map(|u| {
                g.neighbors_iter(NodeId(u)).filter(move |v| v.0 > u).map(move |v| (u, v.0))
            })
            .collect()
    }

    /// Copy 2 relabelled by `perm` (old id `v` becomes `perm[v]`), with the
    /// seeds' copy-2 ends moved along.
    fn relabel_copy2(
        g2: &CsrGraph,
        seeds: &[(NodeId, NodeId)],
        perm: &[u32],
    ) -> (CsrGraph, Vec<(NodeId, NodeId)>) {
        let edges: Vec<(u32, u32)> =
            edges_of(g2).into_iter().map(|(a, b)| (perm[a as usize], perm[b as usize])).collect();
        let seeds = seeds.iter().map(|&(u, v)| (u, NodeId(perm[v.index()]))).collect();
        (CsrGraph::from_edges(g2.node_count(), &edges), seeds)
    }

    /// One phase through every exact entry point: `fused_phase_on`
    /// sequential and on a 4-worker pool, `mapreduce_fused_phase_on` with no
    /// spill budget and a budget of 0, and tiled `score_range` plus
    /// `absorb_claims`. Asserts they agree and returns the result.
    fn every_exact_path(
        g1: &CsrGraph,
        g2: &CsrGraph,
        links: &Linking,
        d: usize,
        t: u32,
    ) -> Selection {
        let candidates = collect_candidates(g1, links, d);
        let expected = fused_phase_on(g1, g2, links, &candidates, d, t, false);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let pooled = pool.install(|| fused_phase_on(g1, g2, links, &candidates, d, t, true));
        assert_eq!(pooled, expected, "rayon d={d} t={t}");
        for budget in [None, Some(0)] {
            let engine = Engine::new(2).with_chunk_size(16).with_spill_budget(budget);
            let got = mapreduce_fused_phase_on(&engine, g1, g2, links, candidates.clone(), d, t);
            assert_eq!(got.unwrap(), expected, "mapreduce budget {budget:?} d={d} t={t}");
        }
        let (n1, n2) = (g1.node_count() as u32, g2.node_count());
        let cache = LinkCache::build(g2, links, d);
        let mut acc = SelectSink::new(n2, t);
        for start in (0..n1).step_by(23) {
            let end = (start + 23).min(n1);
            let sink = score_range(g1, &cache, links, d, t, start..end);
            acc.absorb_claims(&sink.into_claims(), start..end).unwrap();
        }
        assert_eq!(acc.finish(), expected, "tiled rows d={d} t={t}");
        expected
    }

    // Ties abstain, so no exact path may depend on copy-2 ids: after
    // relabelling copy 2 (and the seeds) by a random permutation, every
    // entry point selects the permuted pairs with the same `scored_pairs`.
    // Tie-heavy shapes (a star, duplicated rows, degrees exactly at 2^j)
    // run with identical copies.
    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]
        #[test]
        fn every_exact_path_is_invariant_under_relabelling_copy_2(
            family in 0usize..6,
            seed in 0u64..1_000_000,
        ) {
            use rand::seq::SliceRandom;
            use rand::Rng;
            let mut rng = StdRng::seed_from_u64(seed);
            let random = |g: CsrGraph, rng: &mut StdRng| {
                let pair = independent_deletion_symmetric(&g, 0.7, rng).unwrap();
                let seeds = sample_seeds(&pair, 0.2, rng).unwrap();
                (pair.g1, pair.g2, seeds)
            };
            let identical = |g: CsrGraph, rng: &mut StdRng| {
                let n = g.node_count() as u32;
                let seeds: Vec<(NodeId, NodeId)> =
                    (0..n).filter(|_| rng.gen_bool(0.3)).map(|v| (NodeId(v), NodeId(v))).collect();
                (g.clone(), g, seeds)
            };
            let (g1, g2, seeds) = match family {
                0 => random(preferential_attachment(150, 4, &mut rng).unwrap(), &mut rng),
                1 => random(snr_generators::gnp(150, 0.06, &mut rng).unwrap(), &mut rng),
                2 => {
                    let config = snr_generators::RmatConfig::graph500(7, 6);
                    random(snr_generators::rmat(&config, &mut rng).unwrap(), &mut rng)
                }
                3 => {
                    // Two stars sharing their leaves.
                    let edges: Vec<(u32, u32)> = (2..40).flat_map(|v| [(0, v), (1, v)]).collect();
                    identical(CsrGraph::from_edges(40, &edges), &mut rng)
                }
                4 => {
                    // Every node of a PA graph gets a twin with its row.
                    let g = preferential_attachment(60, 3, &mut rng).unwrap();
                    let edges: Vec<(u32, u32)> = (0..60u32)
                        .flat_map(|u| g.neighbors_iter(NodeId(u)).map(move |v| (u, v.0)))
                        .flat_map(|(u, v)| [(u, v), (u + 60, v)])
                        .collect();
                    identical(CsrGraph::from_edges(120, &edges), &mut rng)
                }
                _ => identical(power_of_two_degrees(), &mut rng),
            };
            let n2 = g2.node_count();
            let mut perm: Vec<u32> = (0..n2 as u32).collect();
            perm.shuffle(&mut rng);
            let (g2p, seeds_p) = relabel_copy2(&g2, &seeds, &perm);
            let links = Linking::with_seeds(g1.node_count(), n2, &seeds);
            let links_p = Linking::with_seeds(g1.node_count(), n2, &seeds_p);
            let mut selected = 0;
            for (d, t) in [(1usize, 1u32), (1, 2), (2, 2), (4, 3)] {
                let (scored, pairs) = every_exact_path(&g1, &g2, &links, d, t);
                selected += pairs.len();
                let mut moved: Vec<(NodeId, NodeId)> =
                    pairs.iter().map(|&(u, v)| (u, NodeId(perm[v.index()]))).collect();
                moved.sort_unstable();
                let got = every_exact_path(&g1, &g2p, &links_p, d, t);
                proptest::prop_assert_eq!(got, (scored, moved), "family {} seed {} d={} t={}", family, seed, d, t);
            }
            proptest::prop_assert!(selected > 0, "family {} seed {} selects nothing", family, seed);
        }
    }

    #[test]
    #[should_panic(expected = "undirected copy-2 view")]
    fn link_cache_build_rejects_a_directed_view() {
        let mut b = snr_graph::GraphBuilder::directed(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        let links = Linking::with_seeds(3, 3, &[(NodeId(1), NodeId(1))]);
        LinkCache::build(&b.build(), &links, 1);
    }

    #[test]
    fn a_phase_without_candidates_builds_no_cache() {
        // The build would panic on this directed copy 2.
        let g1 = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut b = snr_graph::GraphBuilder::directed(3);
        b.add_edge(NodeId(0), NodeId(1));
        let g2 = b.build();
        let links = Linking::with_seeds(3, 3, &[(NodeId(1), NodeId(1))]);
        for parallel in [false, true] {
            assert_eq!(fused_phase_on(&g1, &g2, &links, &[], 1, 1, parallel), (0, vec![]));
        }
    }

    #[test]
    fn prefix_sum_within_stops_at_its_limit() {
        let mut counts = [0u32, 0, 3, 4, 5];
        prefix_sum_within(&mut counts, 12);
        assert_eq!(counts, [0, 0, 3, 7, 12], "a total equal to the limit fits");
        for (counts, limit) in [(vec![3u32, 4, 5], 11), (vec![1, u32::MAX], u32::MAX)] {
            let mut counts = counts;
            let caught = std::panic::catch_unwind(move || prefix_sum_within(&mut counts, limit));
            assert!(caught.is_err(), "a sum past {limit} must panic");
        }
    }

    #[test]
    fn chunking_loses_no_rows() {
        let candidates: Vec<u32> = (0..1_000u32).filter(|u| u % 3 != 0).collect();
        for workers in [1usize, 2, 4, 13] {
            let chunks = chunk_candidates(&candidates, workers);
            assert!(chunks.len() <= workers, "workers={workers}");
            let flattened: Vec<u32> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(flattened, candidates, "workers={workers}");
        }
    }

    #[test]
    fn link_cache_maps_linked_nodes_to_filtered_neighbors() {
        let (_g1, g2, links) = tiny_case();
        let cache = LinkCache::build(&g2, &links, 2);
        let nodes_of = |w1| {
            cache
                .eligible_of(w1)
                .map(|rs| rs.iter().map(|&r| cache.nodes()[r as usize]).collect::<Vec<_>>())
        };
        // Node 2 is linked to 2; N2(2) = {1, 3}, both degree 2 and unlinked.
        assert_eq!(nodes_of(NodeId(2)), Some(vec![1u32, 3]));
        assert_eq!(cache.eligible_of(NodeId(0)), None, "unlinked node has no cache entry");
        assert_eq!(cache.cached_targets(), 2);
        // Raising the threshold filters the cached lists.
        let cache = LinkCache::build(&g2, &links, 3);
        assert_eq!(cache.eligible_of(NodeId(2)), Some(&[][..]));
    }

    #[test]
    fn score_row_matches_the_brute_force_row() {
        let (g1, g2, links) = pa_workload(19, 300, 5);
        let n2 = g2.node_count();
        for d in [1usize, 2, 4] {
            let oracle = count_brute_force(&g1, &g2, &links, d, d);
            let cache = LinkCache::build(&g2, &links, d);
            for t in [1u32, 2, 3] {
                let mut arena = ScoreArena::new(n2, t);
                let (mut scored, mut listed) = (0usize, 0usize);
                for u in collect_candidates(&g1, &links, d) {
                    arena.score_row(&g1, NodeId(u), &cache);
                    for &r in arena.listed() {
                        let v = cache.nodes()[r as usize];
                        assert_eq!(Some(&arena.get(r)), oracle.get(&(u, v)), "({u}, {v}) d={d}");
                    }
                    scored += arena.scored();
                    listed += arena.listed().len();
                }
                let at_t = oracle.values().filter(|&&score| score >= t).count();
                assert_eq!((scored, listed), (oracle.len(), at_t), "row entries at d={d} t={t}");
            }
        }
    }

    #[test]
    fn fused_phase_matches_unfused_pipeline() {
        let (g1, g2, links) = pa_workload(23, 400, 6);
        for d in [1usize, 2, 4] {
            for t in [1u32, 2, 3, u32::MAX] {
                let table = count_sequential(&g1, &g2, &links, d, d);
                let expected = mutual_best_pairs(&table, t);
                for parallel in [false, true] {
                    let (scored, pairs) = phase(&g1, &g2, &links, d, d, t, parallel);
                    assert_eq!(scored, table.len(), "scored_pairs d={d} t={t}");
                    assert_eq!(pairs, expected, "pairs d={d} t={t} parallel={parallel}");
                }
            }
        }
    }

    #[test]
    fn fused_phase_on_compact_and_mixed_representations() {
        let (g1, g2, links) = pa_workload(29, 350, 6);
        let (c1, c2) = (g1.compact(), g2.compact());
        let table = count_sequential(&g1, &g2, &links, 2, 2);
        let expected = mutual_best_pairs(&table, 2);
        for parallel in [false, true] {
            assert_eq!(phase(&c1, &c2, &links, 2, 2, 2, parallel).1, expected);
            assert_eq!(phase(&g1, &c2, &links, 2, 2, 2, parallel).1, expected);
            assert_eq!(phase(&c1, &g2, &links, 2, 2, 2, parallel).1, expected);
        }
    }

    #[test]
    fn fused_phase_clamps_threshold_zero_to_one() {
        let (g1, g2, links) = tiny_case();
        assert_eq!(
            phase(&g1, &g2, &links, 1, 1, 0, false),
            phase(&g1, &g2, &links, 1, 1, 1, false)
        );
    }

    #[test]
    fn empty_links_score_nothing() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let links = Linking::new(4, 4);
        let (scored, pairs) = phase(&g, &g.clone(), &links, 1, 1, 1, false);
        assert_eq!(scored, 0);
        assert!(pairs.is_empty());
    }

    #[test]
    fn empty_graphs_are_handled() {
        let g = CsrGraph::from_edges(0, &[]);
        let links = Linking::new(0, 0);
        let (scored, pairs) = phase(&g, &g.clone(), &links, 1, 1, 2, true);
        assert_eq!(scored, 0);
        assert!(pairs.is_empty());
    }

    #[test]
    fn packed_entries_roundtrip_and_sort_by_target() {
        assert_eq!(unpack_entry(pack_entry(7, 3)), (7, 3));
        assert_eq!(unpack_entry(pack_entry(u32::MAX, u32::MAX)), (u32::MAX, u32::MAX));
        let mut packed = [pack_entry(9, 1), pack_entry(2, 40), pack_entry(9, 2)];
        packed.sort_unstable();
        assert_eq!(packed.iter().map(|&e| unpack_entry(e).0).collect::<Vec<_>>(), [2, 9, 9]);
    }

    #[test]
    fn mapreduce_fused_phase_matches_sequential_fused_phase() {
        let (g1, g2, links) = pa_workload(41, 450, 6);
        for workers in [1usize, 3] {
            let engine = snr_mapreduce::Engine::new(workers).with_chunk_size(16);
            for d in [1usize, 2, 4] {
                for t in [1u32, 2, 3, u32::MAX] {
                    let expected = phase(&g1, &g2, &links, d, d, t, false);
                    let got = mapreduce_phase(&engine, &g1, &g2, &links, d, d, t).unwrap();
                    assert_eq!(got, expected, "workers={workers} d={d} t={t}");
                }
            }
        }
    }

    #[test]
    fn mapreduce_fused_phase_on_compact_and_mixed_representations() {
        let (g1, g2, links) = pa_workload(43, 400, 6);
        let (c1, c2) = (g1.compact(), g2.compact());
        let engine = snr_mapreduce::Engine::new(2).with_chunk_size(32);
        let expected = phase(&g1, &g2, &links, 2, 2, 2, false);
        assert_eq!(mapreduce_phase(&engine, &c1, &c2, &links, 2, 2, 2).unwrap(), expected);
        assert_eq!(mapreduce_phase(&engine, &g1, &c2, &links, 2, 2, 2).unwrap(), expected);
        assert_eq!(mapreduce_phase(&engine, &c1, &g2, &links, 2, 2, 2).unwrap(), expected);
    }

    #[test]
    fn mapreduce_fused_phase_handles_empty_inputs() {
        let engine = snr_mapreduce::Engine::new(2);
        let g = CsrGraph::from_edges(0, &[]);
        let links = Linking::new(0, 0);
        assert_eq!(mapreduce_phase(&engine, &g, &g.clone(), &links, 1, 1, 2).unwrap(), (0, vec![]));
        let (g1, g2, _) = tiny_case();
        let no_links = Linking::new(5, 5);
        assert_eq!(
            mapreduce_phase(&engine, &g1, &g2, &no_links, 1, 1, 1).unwrap(),
            (0, vec![]),
            "no links, no witnesses"
        );
    }

    #[test]
    fn range_scored_claims_reassemble_the_fused_selection() {
        let (g1, g2, links) = pa_workload(53, 400, 6);
        let n1 = g1.node_count() as u32;
        let n2 = g2.node_count();
        for (d, t) in [(1usize, 1u32), (2, 2), (4, 3)] {
            let expected = phase(&g1, &g2, &links, d, d, t, false);
            let cache = LinkCache::build(&g2, &links, d);
            let mut acc = SelectSink::new(n2, t);
            // Uneven tiling of the row space, each range scored by a fresh
            // sink whose claims make a wire round-trip before absorption.
            for start in (0..n1).step_by(97) {
                let end = (start + 97).min(n1);
                let sink = score_range(&g1, &cache, &links, d, t, start..end);
                let decoded = SinkClaims::decode(&sink.into_claims().encode()).unwrap();
                acc.absorb_claims(&decoded, start..end).unwrap();
            }
            assert_eq!(acc.finish(), expected, "d={d} t={t}");
        }
    }

    #[test]
    fn whole_graph_assigned_rows_match_fused_phase() {
        let (g1, g2, links) = pa_workload(59, 300, 5);
        let n1 = g1.node_count() as u32;
        let expected = phase(&g1, &g2, &links, 2, 2, 2, false);
        let cache = LinkCache::build(&g2, &links, 2);
        let sink = score_range(&g1, &cache, &links, 2, 2, 0..n1);
        assert_eq!(sink.finish(), expected);
    }

    #[test]
    fn sink_claims_decode_rejects_corruption() {
        let (g1, g2, links) = pa_workload(61, 250, 5);
        let cache = LinkCache::build(&g2, &links, 2);
        let n1 = g1.node_count() as u32;
        let claims = score_range(&g1, &cache, &links, 2, 2, 0..n1).into_claims();
        assert!(!claims.claims.is_empty(), "workload must produce claims");
        let bytes = claims.encode();
        assert_eq!(SinkClaims::decode(&bytes).unwrap(), claims);

        // Every truncation point fails cleanly.
        for cut in 0..bytes.len() {
            assert!(SinkClaims::decode(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
        // Trailing garbage fails.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(SinkClaims::decode(&extended).is_err());
        // A count field inflated past the payload fails without allocating.
        let mut inflated = bytes.clone();
        inflated[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(SinkClaims::decode(&inflated).is_err());
        // A non-boolean uniqueness byte fails.
        let mut bad_unique = bytes.clone();
        let last = bad_unique.len() - 1;
        bad_unique[last] = 7;
        assert!(SinkClaims::decode(&bad_unique).is_err());
    }

    #[test]
    fn absorb_claims_rejects_out_of_range_payloads() {
        let (g1, g2, links) = pa_workload(67, 250, 5);
        let n2 = g2.node_count();
        let cache = LinkCache::build(&g2, &links, 2);
        let n1 = g1.node_count() as u32;
        let claims = score_range(&g1, &cache, &links, 2, 2, 0..n1).into_claims();
        assert!(!claims.claims.is_empty());
        let rows = 0..g1.node_count() as u32;

        // A smaller sink rejects ids beyond its v-axis.
        let mut small = SelectSink::new(1, 2);
        assert!(small.absorb_claims(&claims, rows.clone()).is_err());
        // A stricter sink rejects claims below its threshold.
        let mut strict = SelectSink::new(n2, u32::MAX);
        assert!(strict.absorb_claims(&claims, rows.clone()).is_err());
        // Sinks fold only entries at or above their threshold, so every
        // shipped per-v best meets it ...
        assert!(claims.bests.iter().all(|&(_, _, score, _)| score >= 2));
        // ... and a per-v best below the threshold (or a zero score) is
        // rejected even when every claim is valid, leaving the sink as it was.
        for score in [0u32, 1] {
            let mut bad = claims.clone();
            bad.bests.push((0, 0, score, true));
            let mut sink = SelectSink::new(n2, 2);
            assert!(sink.absorb_claims(&bad, rows.clone()).is_err(), "per-v best score {score}");
            assert_eq!(sink.scored_pairs, 0, "a rejected payload must not change the sink");
            assert!(sink.claims.is_empty());
        }
        // A claim or a per-v best naming a row outside the scored range is
        // rejected the same way: the range's sink could not have produced it.
        let (u, _, _) = claims.claims[0];
        let mut bad_claim = claims.clone();
        bad_claim.claims.push((rows.end, 0, 2));
        let mut bad_best = claims.clone();
        bad_best.bests.push((0, rows.end, 2, true));
        for (bad, range) in
            [(&bad_claim, rows.clone()), (&bad_best, rows.clone()), (&claims, u + 1..rows.end)]
        {
            let mut sink = SelectSink::new(n2, 2);
            assert!(sink.absorb_claims(bad, range).is_err());
            assert_eq!(sink.scored_pairs, 0, "a rejected payload must not change the sink");
            assert!(sink.claims.is_empty() && sink.best_v.iter().all(|b| b.score == 0));
        }
        // The matching sink accepts them.
        let mut ok = SelectSink::new(n2, 2);
        ok.absorb_claims(&claims, rows).unwrap();
        assert_eq!(ok.finish(), phase(&g1, &g2, &links, 2, 2, 2, false));
    }

    #[test]
    fn candidate_cache_matches_collect_candidates() {
        let (g1, _g2, links) = pa_workload(71, 600, 5);
        let cache = CandidateCache::build(&g1);
        // Power-of-two bucket sizes (the algorithm's phases) and odd
        // min_degrees that force the boundary-group degree re-check.
        for d in [1usize, 2, 3, 4, 5, 7, 8, 13, 64, 1_000] {
            let expected = collect_candidates(&g1, &links, d);
            let got =
                cache.eligible(d, |u| links.is_linked_g1(NodeId(u)), |u| g1.degree(NodeId(u)));
            assert_eq!(got, expected, "min_degree={d}");
        }
        // An empty linking and a min_degree of 0 (clamped to 1) also agree.
        let no_links = Linking::new(g1.node_count(), g1.node_count());
        assert_eq!(
            cache.eligible(0, |u| no_links.is_linked_g1(NodeId(u)), |u| g1.degree(NodeId(u))),
            collect_candidates(&g1, &no_links, 1)
        );
    }

    #[test]
    fn phase_on_cached_candidates_is_bit_identical() {
        let (g1, g2, links) = pa_workload(73, 500, 6);
        let cache = CandidateCache::build(&g1);
        let engine = snr_mapreduce::Engine::new(2).with_chunk_size(32);
        for (d, t) in [(1usize, 1u32), (2, 2), (4, 3)] {
            let candidates =
                cache.eligible(d, |u| links.is_linked_g1(NodeId(u)), |u| g1.degree(NodeId(u)));
            let expected = phase(&g1, &g2, &links, d, d, t, false);
            for parallel in [false, true] {
                assert_eq!(
                    fused_phase_on(&g1, &g2, &links, &candidates, d, t, parallel),
                    expected,
                    "d={d} t={t} parallel={parallel}"
                );
            }
            assert_eq!(
                mapreduce_fused_phase_on(&engine, &g1, &g2, &links, candidates, d, t).unwrap(),
                expected,
                "mapreduce d={d} t={t}"
            );
        }
    }

    #[test]
    fn sink_claims_over_the_count_cap_are_clean_errors() {
        let claims = SinkClaims {
            scored_pairs: 9,
            claims: vec![(1, 2, 3); 3],
            bests: vec![(7, 8, 9, true)],
        };
        let err = claims.encode_capped(2).unwrap_err();
        assert!(
            matches!(err, GraphError::InvalidBinary(ref why) if why.contains("length 3")),
            "{err}"
        );
        assert_eq!(claims.encode_capped(3).unwrap(), claims.encode());
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact bytes of one `SinkClaims` payload and one packed-row spill
    /// group. Roundtrip tests pass whenever encode and decode change
    /// together; these fail on any change to the layout itself.
    #[test]
    fn claims_and_packed_row_bytes_are_pinned() {
        let claims = SinkClaims {
            scored_pairs: 0x0102_0304_0506,
            claims: vec![(1, 2, 3), (4, 5, 6)],
            bests: vec![(7, 8, 9, true), (10, 11, 12, false)],
        };
        let bytes = claims.encode();
        assert_eq!(hex(&bytes), "06050403020100000200000001000000020000000300000004000000050000000600000002000000070000000800000009000000010a0000000b0000000c00000000");
        assert_eq!(SinkClaims::decode(&bytes).unwrap(), claims);

        let group = vec![record(5, &[(3, 2), (9, 1)]), record(2, &[(1, 256)]), record(3, &[])];
        assert_eq!(group[0].entries, PackedRow::Narrow(vec![3 << 8 | 2, 9 << 8 | 1]));
        assert_eq!(group[1].entries, PackedRow::Wide(vec![pack_entry(1, 256)]));
        assert_eq!(group[2].entries, PackedRow::Narrow(vec![]));
        let mut out = Vec::new();
        PackedRowCodec.encode_group(&42, &group, &mut out).unwrap();
        assert_eq!(
            hex(&out),
            "2a0000000300000005000000020000000402030000010900000200000001000000080001000001000000030000000000000004"
        );
        assert_eq!(PackedRowCodec.decode_group(&out).unwrap(), (42, group.clone()));
        // The charge counts scored pairs, not the entries a record holds.
        let charged: Vec<usize> = group.iter().map(|r| PackedRowCodec.bytes_of(&42, r)).collect();
        assert_eq!(charged, [44, 20, 28]);
    }

    /// A shuffle record of `scored` scored pairs listing `entries`.
    fn record(scored: u32, entries: &[(u32, u32)]) -> RowRecord {
        RowRecord { scored, entries: PackedRow::new(entries.iter().copied()) }
    }

    /// A row's `(v, count)` entries, whichever form holds them.
    fn unpacked(row: &PackedRow) -> Vec<(u32, u32)> {
        match row {
            PackedRow::Narrow(entries) => entries.iter().map(|&e| unpack_narrow(e)).collect(),
            PackedRow::Wide(entries) => entries.iter().map(|&e| unpack_entry(e)).collect(),
        }
    }

    #[test]
    fn packed_row_lengths_over_the_cap_are_clean_errors() {
        let entries = record(3, &[(1, 1), (2, 1), (3, 1)]);
        let wide = RowRecord { scored: 1, entries: PackedRow::Wide(vec![pack_entry(1, 1)]) };
        let records = vec![wide; 3];
        for (what, group) in [("entry count", vec![entries]), ("record count", records)] {
            let err = PackedRowCodec::encode_group_capped(7, &group, &mut Vec::new(), 2)
                .expect_err("a length over the cap must fail");
            assert!(err.contains("length 3 exceeds the 2"), "{what}: {err}");
            let (mut capped, mut full) = (Vec::new(), Vec::new());
            PackedRowCodec::encode_group_capped(7, &group, &mut capped, 3).unwrap();
            PackedRowCodec.encode_group(&7, &group, &mut full).unwrap();
            assert_eq!(capped, full, "{what}: at the cap the bytes are the format's");
        }
    }

    /// Narrow-entry boundaries: `v` and `count` at and one past the
    /// largest value a 4-byte entry holds, next to small and huge values.
    const V_EDGES: [u32; 6] = [0, 1, (1 << 24) - 1, 1 << 24, 1 << 31, u32::MAX];
    const COUNT_EDGES: [u32; 5] = [1, 2, 255, 256, u32::MAX];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn packed_row_groups_mixing_both_forms_round_trip(
            key in 0u32..u32::MAX,
            rows in proptest::collection::vec(
                (proptest::collection::vec((0usize..6, 0usize..5), 0..5), 0u32..3),
                1..5,
            ),
        ) {
            let mut group = Vec::new();
            for (row, unlisted) in &rows {
                let entries: Vec<(u32, u32)> =
                    row.iter().map(|&(i, j)| (V_EDGES[i], COUNT_EDGES[j])).collect();
                let packed = PackedRow::new(entries.iter().copied());
                let fits = entries.iter().all(|&(v, count)| v < 1 << 24 && count < 1 << 8);
                proptest::prop_assert_eq!(matches!(packed, PackedRow::Narrow(_)), fits, "{:?}", entries);
                proptest::prop_assert_eq!(unpacked(&packed), entries);
                group.push(RowRecord { scored: row.len() as u32 + unlisted, entries: packed });
            }
            let mut out = Vec::new();
            PackedRowCodec.encode_group(&key, &group, &mut out).unwrap();
            proptest::prop_assert_eq!(PackedRowCodec.decode_group(&out).unwrap(), (key, group));
        }
    }

    #[test]
    fn every_byte_flip_and_truncation_of_a_packed_group_is_an_error_or_exact() {
        let group =
            vec![record(4, &[(3, 2), (9, 1)]), record(2, &[(1, 256), (7, 3)]), record(1, &[])];
        let mut pristine = Vec::new();
        PackedRowCodec.encode_group(&42, &group, &mut pristine).unwrap();
        // No checksum guards these bytes: a decode either fails or reads
        // a group that encodes back to exactly the bytes it came from.
        for i in 0..pristine.len() {
            for flip in [0x01, 0x5A, 0xFF] {
                let mut bytes = pristine.clone();
                bytes[i] ^= flip;
                if let Ok((key, rows)) = PackedRowCodec.decode_group(&bytes) {
                    let mut again = Vec::new();
                    PackedRowCodec.encode_group(&key, &rows, &mut again).unwrap();
                    assert_eq!(again, bytes, "byte {i} ^ {flip:#x} decoded inexactly");
                }
            }
        }
        for cut in 0..pristine.len() {
            assert!(PackedRowCodec.decode_group(&pristine[..cut]).is_err(), "cut at {cut}");
        }
        // The first record's width byte follows the key, the record count,
        // its scored-pair count and its entry count.
        let mut bad_width = pristine.clone();
        bad_width[16] = 5;
        let err = PackedRowCodec.decode_group(&bad_width).unwrap_err();
        assert!(err.contains("entry width 5"), "{err}");
        // A record listing more entries than it has scored pairs is refused:
        // the second record's count, 2, sits after the first record's 9 +
        // 8 bytes.
        for (offset, scored) in [(8, 1u32), (8, 0), (25, 1)] {
            let mut short = pristine.clone();
            short[offset..offset + 4].copy_from_slice(&scored.to_le_bytes());
            let err = PackedRowCodec.decode_group(&short).unwrap_err();
            assert!(err.contains("entries exceed the row's"), "count {scored} at {offset}: {err}");
        }
    }

    #[test]
    fn a_hub_row_over_255_witnesses_packs_wide_and_the_rest_narrow() {
        // A hub whose 300 seeded leaves give its row a count of 300 at the
        // hub itself, next to ten unseeded nodes `300 + i` sharing the
        // first `4 + i` leaves; one graph serves as both copies.
        let mut edges: Vec<(u32, u32)> = (1..=300).map(|leaf| (0, leaf)).collect();
        for i in 1..=10 {
            edges.extend((1..=4 + i).map(|leaf| (300 + i, leaf)));
        }
        let seeds: Vec<_> = (1..=300).map(|leaf| (NodeId(leaf), NodeId(leaf))).collect();
        let (g, links) = (CsrGraph::from_edges(311, &edges), Linking::with_seeds(311, 311, &seeds));
        let cache = LinkCache::build(&g, &links, 1);
        let rows = collect_candidates(&g, &links, 1);
        assert_eq!(rows, std::iter::once(0).chain(301..=310).collect::<Vec<u32>>());
        let table = count_brute_force(&g, &g, &links, 1, 1);
        // At T = 1 a record lists its whole row; at T = 6 row 301 (counts of
        // 5) ships only its count, and at T = 301 only the hub's count.
        for t in [1u32, 6, 301] {
            let records = packed_rows(&g, &cache, t, &rows);
            assert_eq!(records.len(), rows.len(), "t={t}");
            for (u, RowRecord { scored, entries }) in &records {
                let wide = *u == 0 && t <= 300;
                assert_eq!(matches!(entries, PackedRow::Wide(_)), wide, "row {u}: {entries:?}");
                let mut got = unpacked(entries);
                got.sort_unstable();
                let row: Vec<(u32, u32)> =
                    table.iter().filter(|((r, _), _)| r == u).map(|(&(_, v), &c)| (v, c)).collect();
                let mut expected: Vec<(u32, u32)> =
                    row.iter().copied().filter(|&(_, c)| c >= t).collect();
                expected.sort_unstable();
                assert_eq!(got, expected, "row {u} t={t}");
                assert_eq!(*scored as usize, row.len(), "row {u} t={t}");
            }
            assert_eq!(unpacked(&records[0].1.entries).contains(&(0, 300)), t <= 300);
        }
    }
}
