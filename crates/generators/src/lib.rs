//! # snr-generators
//!
//! Synthetic network generators used as the *underlying "true" social
//! network* `G(V, E)` of the reconciliation model in Korula & Lattanzi
//! (VLDB 2014), plus the extra generator families needed to stand in for the
//! real-world datasets of the paper's evaluation (`snr_experiments::datasets`
//! documents each substitution).
//!
//! Implemented families:
//!
//! * [`erdos_renyi`] — `G(n, p)` and `G(n, m)` random graphs (§4.1 of the
//!   paper).
//! * [`preferential_attachment()`] — the Bollobás–Riordan formulation of the
//!   Barabási–Albert model the paper analyses in §4.2.
//! * [`affiliation`] — the Lattanzi–Sivakumar affiliation-network model used
//!   for the correlated-deletion experiment (Table 4).
//! * [`rmat()`] — the recursive R-MAT generator used for the scalability
//!   experiment (Table 2).
//! * [`watts_strogatz`] — the small-world model used in the robustness
//!   tests.
//! * [`temporal`] — timestamped variants used to emulate the DBLP / Gowalla
//!   odd–even time-slice experiments (Table 5).
//!
//! All generators are deterministic functions of an explicit [`rand::Rng`],
//! so every experiment in the workspace is reproducible from a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod affiliation;
pub mod erdos_renyi;
pub mod preferential_attachment;
pub mod rmat;
pub mod temporal;
pub mod watts_strogatz;

pub use affiliation::{AffiliationConfig, AffiliationNetwork};
pub use erdos_renyi::{gnm, gnp};
pub use preferential_attachment::preferential_attachment;
pub use rmat::{rmat, RmatConfig};
pub use temporal::TemporalGraph;

use snr_graph::GraphError;

/// Validates that a probability parameter lies in `[0, 1]`.
pub(crate) fn check_probability(name: &str, p: f64) -> Result<(), GraphError> {
    if !(0.0..=1.0).contains(&p) || p.is_nan() {
        Err(GraphError::InvalidParameter(format!("{name} = {p} must be a probability in [0, 1]")))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_probability_accepts_bounds() {
        assert!(check_probability("p", 0.0).is_ok());
        assert!(check_probability("p", 1.0).is_ok());
        assert!(check_probability("p", 0.5).is_ok());
    }

    #[test]
    fn check_probability_rejects_out_of_range() {
        assert!(check_probability("p", -0.1).is_err());
        assert!(check_probability("p", 1.1).is_err());
        assert!(check_probability("p", f64::NAN).is_err());
    }
}
