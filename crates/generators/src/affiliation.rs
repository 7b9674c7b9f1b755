//! Affiliation-network model (Lattanzi & Sivakumar, STOC 2009).
//!
//! The paper uses this model for its hardest synthetic experiment (Table 4):
//! a bipartite graph of users and *interests* (communities) is grown by a
//! preferential-attachment-like process, and two users are connected in the
//! social graph whenever they share an interest. The two observed copies are
//! then produced by deleting whole communities independently in each copy —
//! a highly correlated edge-deletion process that breaks the independence
//! assumptions of the analysis. We therefore expose not just the folded user
//! graph but the community memberships themselves, which `snr-sampling`
//! needs to implement that correlated deletion.

use rand::Rng;
use snr_graph::{CsrGraph, GraphBuilder, GraphError, NodeId};

/// Parameters of the affiliation-network generator.
#[derive(Clone, Debug)]
pub struct AffiliationConfig {
    /// Number of users (nodes of the folded social graph).
    pub users: usize,
    /// Number of communities (interests).
    pub communities: usize,
    /// Number of communities each user joins (preferentially by community
    /// size, mimicking the rich-get-richer affiliation growth).
    pub memberships_per_user: usize,
    /// Cap on how many co-members a user is linked to per community when the
    /// bipartite graph is folded. The real model connects all co-members,
    /// which is quadratic in community size; capping keeps the folded edge
    /// count near `users · memberships · cap` while preserving the
    /// community-correlated structure the experiment needs.
    pub fold_cap: usize,
}

impl Default for AffiliationConfig {
    fn default() -> Self {
        AffiliationConfig {
            users: 10_000,
            communities: 1_000,
            memberships_per_user: 4,
            fold_cap: 40,
        }
    }
}

/// An affiliation network: the folded user–user graph plus the community
/// memberships that generated it.
#[derive(Clone, Debug)]
pub struct AffiliationNetwork {
    /// Folded social graph over users.
    pub graph: CsrGraph,
    /// `communities[c]` lists the users belonging to community `c`.
    pub communities: Vec<Vec<NodeId>>,
    /// For each folded edge (canonical `src <= dst`), the community that
    /// created it. Used by the correlated-deletion realization model: an
    /// edge survives in a copy iff its community survives in that copy.
    pub edge_communities: Vec<(NodeId, NodeId, u32)>,
}

impl AffiliationNetwork {
    /// Generates an affiliation network.
    pub fn generate<R: Rng + ?Sized>(
        config: &AffiliationConfig,
        rng: &mut R,
    ) -> Result<Self, GraphError> {
        let AffiliationConfig { users, communities, memberships_per_user, fold_cap } = *config;
        if users == 0 || communities == 0 {
            return Err(GraphError::InvalidParameter(
                "affiliation model needs at least one user and one community".into(),
            ));
        }
        if memberships_per_user == 0 {
            return Err(GraphError::InvalidParameter("memberships_per_user must be >= 1".into()));
        }
        if fold_cap == 0 {
            return Err(GraphError::InvalidParameter("fold_cap must be >= 1".into()));
        }

        // --- Bipartite growth -------------------------------------------------
        // Users arrive one at a time and join `memberships_per_user` distinct
        // communities. Community choice is preferential: with probability
        // proportional to (current size + 1), via a repeated-endpoints list
        // seeded with one entry per community so empty communities can be
        // discovered.
        let mut membership: Vec<Vec<NodeId>> = vec![Vec::new(); communities];
        let mut community_endpoints: Vec<u32> = (0..communities as u32).collect();
        for u in 0..users as u32 {
            let mut joined = Vec::with_capacity(memberships_per_user);
            let mut guard = 0;
            while joined.len() < memberships_per_user && guard < 20 * memberships_per_user {
                guard += 1;
                let c = community_endpoints[rng.gen_range(0..community_endpoints.len())];
                if !joined.contains(&c) {
                    joined.push(c);
                    membership[c as usize].push(NodeId(u));
                    community_endpoints.push(c);
                }
            }
        }

        // --- Folding -----------------------------------------------------------
        // Within each community connect each member to up to `fold_cap`
        // other members (earlier members preferentially, which mirrors the
        // prototype-copying behaviour of the original model).
        let mut builder = GraphBuilder::undirected(users);
        let mut edge_communities = Vec::new();
        for (c, members) in membership.iter().enumerate() {
            for (i, &u) in members.iter().enumerate() {
                let count = i.min(fold_cap);
                if count == 0 {
                    continue;
                }
                // Link to `count` distinct earlier members chosen uniformly.
                let mut picked = std::collections::HashSet::with_capacity(count);
                while picked.len() < count {
                    let j = rng.gen_range(0..i);
                    picked.insert(j);
                }
                for j in picked {
                    let v = members[j];
                    builder.add_edge(u, v);
                    let (a, b) = if u.0 <= v.0 { (u, v) } else { (v, u) };
                    edge_communities.push((a, b, c as u32));
                }
            }
        }
        builder.ensure_nodes(users);

        Ok(AffiliationNetwork { graph: builder.build(), communities: membership, edge_communities })
    }

    /// Number of users.
    pub fn user_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of communities.
    pub fn community_count(&self) -> usize {
        self.communities.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_config() -> AffiliationConfig {
        AffiliationConfig { users: 2_000, communities: 200, memberships_per_user: 3, fold_cap: 20 }
    }

    #[test]
    fn rejects_degenerate_configs() {
        let mut rng = StdRng::seed_from_u64(0);
        let bad = AffiliationConfig { users: 0, ..small_config() };
        assert!(AffiliationNetwork::generate(&bad, &mut rng).is_err());
        let bad = AffiliationConfig { communities: 0, ..small_config() };
        assert!(AffiliationNetwork::generate(&bad, &mut rng).is_err());
        let bad = AffiliationConfig { memberships_per_user: 0, ..small_config() };
        assert!(AffiliationNetwork::generate(&bad, &mut rng).is_err());
        let bad = AffiliationConfig { fold_cap: 0, ..small_config() };
        assert!(AffiliationNetwork::generate(&bad, &mut rng).is_err());
    }

    #[test]
    fn every_user_joins_the_requested_number_of_communities() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = small_config();
        let net = AffiliationNetwork::generate(&cfg, &mut rng).unwrap();
        let mut per_user = vec![0usize; cfg.users];
        for members in &net.communities {
            for &u in members {
                per_user[u.index()] += 1;
            }
        }
        let complete = per_user.iter().filter(|&&c| c == cfg.memberships_per_user).count();
        // The rejection guard can very rarely fall short; essentially all
        // users must hit the target.
        assert!(complete as f64 > 0.99 * cfg.users as f64);
    }

    #[test]
    fn community_sizes_are_skewed() {
        let mut rng = StdRng::seed_from_u64(2);
        let net = AffiliationNetwork::generate(&small_config(), &mut rng).unwrap();
        let mut sizes: Vec<usize> = net.communities.iter().map(|c| c.len()).collect();
        sizes.sort_unstable();
        let max = *sizes.last().unwrap();
        let median = sizes[sizes.len() / 2];
        assert!(max >= 4 * median.max(1), "max {max} vs median {median}: not skewed");
    }

    #[test]
    fn edge_communities_reference_real_edges_and_communities() {
        let mut rng = StdRng::seed_from_u64(3);
        let net = AffiliationNetwork::generate(&small_config(), &mut rng).unwrap();
        assert!(!net.edge_communities.is_empty());
        for &(a, b, c) in net.edge_communities.iter().take(500) {
            assert!(net.graph.has_edge(a, b));
            assert!(a.0 <= b.0);
            let members = &net.communities[c as usize];
            assert!(members.contains(&a) && members.contains(&b));
        }
    }

    #[test]
    fn folded_graph_is_reasonably_dense() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = small_config();
        let net = AffiliationNetwork::generate(&cfg, &mut rng).unwrap();
        // Each user creates up to memberships * fold_cap edges (bounded by
        // earlier members); require a healthy fraction of users to have
        // degree above the membership count.
        let well_connected =
            net.graph.nodes().filter(|&v| net.graph.degree(v) >= cfg.memberships_per_user).count();
        assert!(well_connected as f64 > 0.8 * cfg.users as f64);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let n1 =
            AffiliationNetwork::generate(&small_config(), &mut StdRng::seed_from_u64(11)).unwrap();
        let n2 =
            AffiliationNetwork::generate(&small_config(), &mut StdRng::seed_from_u64(11)).unwrap();
        assert_eq!(n1.graph, n2.graph);
        assert_eq!(n1.communities, n2.communities);
    }
}
