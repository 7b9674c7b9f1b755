//! # snr-sampling
//!
//! Realization models: everything that turns one underlying "true" social
//! network into the **two observed copies** `G1`, `G2` that the
//! reconciliation algorithm sees, together with the ground truth needed to
//! score its output and the seed links that bootstrap it.
//!
//! The paper's model (§3.1) and evaluation (§5) use several such processes,
//! all implemented here:
//!
//! * [`independent`] — each edge of `E` survives in copy `i` independently
//!   with probability `s_i` (the model analysed in §4).
//! * [`cascade`] — copies grown by the independent-cascade process of
//!   Goldenberg et al. (the Figure 3 experiment).
//! * [`community`] — correlated deletion of whole communities of an
//!   affiliation network (the Table 4 experiment).
//! * [`time_slice`] — copies built from disjoint time periods of a temporal
//!   graph (the DBLP / Gowalla experiments of Table 5).
//! * [`attack`] — an adversary adds a malicious mirror of every user and
//!   befriends the victim's neighbors (the robustness-to-attack experiment).
//! * [`noise`] — extension: spurious edges present in a copy but not in the
//!   underlying graph (mentioned as a model generalization in §3.1).
//! * [`seeds`] — sampling of the initial identification links `L`, uniform
//!   (probability `l`) or degree-biased.
//!
//! Every realization is wrapped in a [`RealizationPair`]: the two copies with
//! *scrambled node ids* plus a [`GroundTruth`] table. Scrambling matters —
//! without it an algorithm could cheat by matching equal ids, and tests
//! would not catch it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod cascade;
pub mod community;
pub mod ground_truth;
pub mod independent;
pub mod noise;
pub mod realization;
pub mod seeds;
pub mod time_slice;

pub use ground_truth::GroundTruth;
pub use realization::RealizationPair;
pub use seeds::{sample_seeds, sample_seeds_degree_biased};
