//! The benchmark's workloads and the inputs they generate from a seed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use snr_core::{Backend, CandidateSource, MatchingConfig};
use snr_generators::{preferential_attachment, rmat, RmatConfig};
use snr_graph::{CsrGraph, NodeId};
use snr_sampling::independent::independent_deletion_symmetric;
use snr_sampling::{sample_seeds, GroundTruth};

/// Threads or worker processes every workload's load comes from.
pub const WORKERS: usize = 2;

/// Spill budget of the out-of-core MapReduce workload.
pub const SPILL_BUDGET: u64 = 8 << 20;

/// The source graph a workload's two copies are sampled from.
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// R-MAT with Graph500 parameters and edge factor 16.
    Rmat { scale: u32 },
    /// Preferential attachment with `m` edges per arriving node.
    Pa { n: usize, m: usize },
}

/// How a workload stores the copies and executes the matcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    /// `CompactCsr` copies, `UserMatching` on `Backend::Rayon`, exact.
    Rayon,
    /// `MmapGraph` copies, `Backend::MapReduce` with a spill budget.
    MapReduceSpill,
    /// `ShardDriver` with worker subprocesses over mmap segments.
    Driver,
    /// `CompactCsr` copies, `Backend::Sequential` with LSH blocking.
    SequentialLsh { bands: usize, rows: usize },
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as passed to `--workload`.
    pub name: &'static str,
    /// Source graph.
    pub source: Source,
    /// Probability that a true pair is given as a seed link.
    pub seed_prob: f64,
    /// Iterations k.
    pub iterations: u32,
    /// Store and execution path.
    pub exec: Exec,
}

/// Edge survival probability of each copy (the Table 2 and Figure 2 shape).
pub const SURVIVAL: f64 = 0.5;

/// Minimum matching score T.
pub const THRESHOLD: u32 = 2;

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: &[Workload] = &[
    // The scoring kernel (hub-row bumps) and the LinkCache builds dominate;
    // MapReduce, the driver, sketching and mmap are all bypassed, so a
    // kernel change shows here and a shuffle or driver change must not.
    Workload {
        name: "rmat18-rayon",
        source: Source::Rmat { scale: 18 },
        seed_prob: 0.10,
        iterations: 1,
        exec: Exec::Rayon,
    },
    // Out of core: the graph is on disk and the shuffle spills, so shuffle,
    // spill and merge dominate while the same kernel runs in the map tasks.
    Workload {
        name: "rmat17-mr-spill",
        source: Source::Rmat { scale: 17 },
        seed_prob: 0.10,
        iterations: 1,
        exec: Exec::MapReduceSpill,
    },
    // Segment snapshots (in set-up), worker spawn, the broadcast/merge wire
    // protocol and per-phase checkpoints. Not among BENCHMARK.json's
    // workloads: the time budget of the gated runs goes to longer runs of
    // the other three. Run it by name when the driver changes.
    Workload {
        name: "rmat18-driver2",
        source: Source::Rmat { scale: 18 },
        seed_prob: 0.10,
        iterations: 1,
        exec: Exec::Driver,
    },
    // The only workload that reaches MinHash, banding and verify (the other
    // paths are exact), with many light phases; also the plain
    // single-thread run.
    Workload {
        name: "pa100k-lsh",
        source: Source::Pa { n: 100_000, m: 20 },
        seed_prob: 0.05,
        iterations: 2,
        exec: Exec::SequentialLsh { bands: 16, rows: 2 },
    },
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The matcher configuration the workload runs (the driver workload
    /// hands the same schedule to `DriverConfig::matching`).
    pub fn config(&self) -> MatchingConfig {
        let base =
            MatchingConfig::default().with_threshold(THRESHOLD).with_iterations(self.iterations);
        match self.exec {
            Exec::Rayon => base.with_backend(Backend::Rayon),
            Exec::MapReduceSpill => base.with_backend(Backend::MapReduce { workers: WORKERS }),
            Exec::Driver => base,
            Exec::SequentialLsh { bands, rows } => base
                .with_backend(Backend::Sequential)
                .with_candidates(CandidateSource::Lsh { bands, rows })
                .with_lsh_mass_floor(0),
        }
    }

    /// Whether the matcher is exact, so that a sequential run is its
    /// reference; blocked runs are checked against their own first call.
    pub fn is_exact(&self) -> bool {
        !matches!(self.exec, Exec::SequentialLsh { .. })
    }

    /// Threads (in-process) or worker processes (driver) the run uses.
    pub fn workers(&self) -> usize {
        match self.exec {
            Exec::SequentialLsh { .. } => 1,
            _ => WORKERS,
        }
    }

    /// Human-readable parameter list for the run manifest.
    pub fn parameters(&self) -> Vec<(&'static str, String)> {
        let mut out = match self.source {
            Source::Rmat { scale } => vec![(
                "graph",
                format!("rmat scale {scale} (graph500 a=0.57 b=0.19 c=0.19, edge factor 16)"),
            )],
            Source::Pa { n, m } => vec![("graph", format!("preferential attachment n={n} m={m}"))],
        };
        out.push(("survival", SURVIVAL.to_string()));
        out.push(("seed_prob", self.seed_prob.to_string()));
        out.push(("threshold", THRESHOLD.to_string()));
        out.push(("iterations", self.iterations.to_string()));
        let exec = match self.exec {
            Exec::Rayon => "CompactCsr, Backend::Rayon, exact candidates".to_string(),
            Exec::MapReduceSpill => format!(
                "MmapGraph, Backend::MapReduce {{ workers: {WORKERS} }}, spill budget {SPILL_BUDGET} B"
            ),
            Exec::Driver => format!(
                "ShardDriver, {WORKERS} worker processes, DriverStore::Mmap, default checkpoints and respawn budget"
            ),
            Exec::SequentialLsh { bands, rows } => format!(
                "CompactCsr, Backend::Sequential, lsh:{bands}x{rows} blocking, lsh_mass_floor 0"
            ),
        };
        out.push(("exec", exec));
        out
    }

    /// Generates the workload's inputs from `seed`: the same seed always
    /// gives the same copies, truth and seed links.
    pub fn generate(&self, seed: u64) -> Inputs {
        let tag = self.name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        let mut rng = StdRng::seed_from_u64(seed ^ tag);
        let g = match self.source {
            Source::Rmat { scale } => {
                rmat(&RmatConfig::graph500(scale, 16), &mut rng).expect("valid R-MAT parameters")
            }
            Source::Pa { n, m } => {
                preferential_attachment(n, m, &mut rng).expect("valid PA parameters")
            }
        };
        let pair = independent_deletion_symmetric(&g, SURVIVAL, &mut rng)
            .expect("valid survival probability");
        drop(g);
        let seeds = sample_seeds(&pair, self.seed_prob, &mut rng).expect("valid seed probability");
        let matchable = pair.matchable_nodes();
        Inputs { g1: pair.g1, g2: pair.g2, truth: pair.truth, seeds, matchable }
    }
}

/// One workload's generated inputs. The matcher sees only `g1`, `g2` and
/// `seeds`; `truth` and `matchable` are for scoring.
pub struct Inputs {
    /// First copy.
    pub g1: CsrGraph,
    /// Second copy (ids permuted).
    pub g2: CsrGraph,
    /// True correspondence.
    pub truth: GroundTruth,
    /// Seed links.
    pub seeds: Vec<(NodeId, NodeId)>,
    /// True pairs with degree at least 1 in both copies.
    pub matchable: usize,
}

impl Inputs {
    /// `|E1| + |E2|`.
    pub fn edges(&self) -> usize {
        self.g1.edge_count() + self.g2.edge_count()
    }
}
