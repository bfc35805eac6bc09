//! A small social-network generator for the *social position detection*
//! application that motivates simulation-based matching in the paper's
//! introduction (Brynielsson et al. \[8\]: finding nodes that occupy a
//! *position* — a pattern of relations — rather than exact subgraphs).
//!
//! The network has teams with leads and members, reporting lines,
//! cross-team collaborations and endorsements; the canonical "manager
//! position" pattern (someone who leads a team whose members report to
//! them) and "connector position" (someone collaborating across teams)
//! have non-trivial candidate sets under dual simulation.

use dualsim_graph::{GraphDb, GraphDbBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the social-network generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocialConfig {
    /// Number of teams.
    pub teams: usize,
    /// Members per team (excluding the lead).
    pub team_size: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SocialConfig {
    fn default() -> Self {
        SocialConfig {
            teams: 12,
            team_size: 8,
            seed: 23,
        }
    }
}

/// Generates the social network.
///
/// Predicates: `leads`, `member_of`, `reports_to`, `collaborates_with`,
/// `endorses`.
pub fn generate_social(cfg: &SocialConfig) -> GraphDb {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = GraphDbBuilder::new();
    let teams = cfg.teams.max(1);
    let mut people: Vec<String> = Vec::new();
    for t in 0..teams {
        let team = format!("team{t}");
        let lead = format!("lead{t}");
        b.add_triple(&lead, "leads", &team).unwrap();
        b.add_triple(&lead, "member_of", &team).unwrap();
        people.push(lead.clone());
        for m in 0..cfg.team_size {
            let person = format!("person{t}-{m}");
            b.add_triple(&person, "member_of", &team).unwrap();
            b.add_triple(&person, "reports_to", &lead).unwrap();
            // In-team collaboration chain keeps the team connected.
            if m > 0 {
                let peer = format!("person{t}-{}", m - 1);
                b.add_triple(&person, "collaborates_with", &peer).unwrap();
            }
            people.push(person);
        }
    }
    // Cross-team collaborations and endorsements.
    let n_cross = people.len();
    for _ in 0..n_cross {
        let a = &people[rng.gen_range(0..people.len())];
        let c = &people[rng.gen_range(0..people.len())];
        if a != c {
            b.add_triple(a, "collaborates_with", c).unwrap();
        }
    }
    for _ in 0..people.len() / 2 {
        let a = &people[rng.gen_range(0..people.len())];
        let c = &people[rng.gen_range(0..people.len())];
        if a != c {
            b.add_triple(a, "endorses", c).unwrap();
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_social(&SocialConfig::default());
        let b = generate_social(&SocialConfig::default());
        assert_eq!(
            a.triples().collect::<Vec<_>>(),
            b.triples().collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_team_has_a_lead_and_members() {
        let db = generate_social(&SocialConfig {
            teams: 4,
            team_size: 3,
            seed: 1,
        });
        let leads = db.label_id("leads").unwrap();
        let member = db.label_id("member_of").unwrap();
        assert_eq!(db.num_label_triples(leads), 4);
        assert_eq!(db.num_label_triples(member), 4 * 4, "leads are members too");
    }

    #[test]
    fn manager_position_has_matches() {
        use dualsim_core::{prune, SolverConfig};
        use dualsim_engine::{Engine, NestedLoopEngine};
        let db = generate_social(&SocialConfig::default());
        let q = dualsim_query::parse("{ ?m leads ?team . ?e member_of ?team . ?e reports_to ?m }")
            .unwrap();
        let results = NestedLoopEngine.evaluate(&db, &q);
        assert!(!results.is_empty());
        // The pruning keeps exactly the leadership subgraph plus the
        // member/reporting edges of managed teams.
        let report = prune(&db, &q, &SolverConfig::default());
        let pruned = NestedLoopEngine.evaluate(&report.pruned_db(&db), &q);
        assert_eq!(results, pruned);
        let collab = db.label_id("collaborates_with").unwrap();
        assert!(report.kept_triples(&db).iter().all(|t| t.p != collab));
    }
}
