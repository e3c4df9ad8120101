//! Top-k largest maximal quasi-cliques.
//!
//! A common downstream use of MQC enumeration (and a related-work problem the
//! paper discusses, Sanei-Mehri et al. [34, 35]) is to report only the `k`
//! *largest* maximal γ-quasi-cliques. Rather than enumerating with a small
//! size threshold and sorting, this module starts from an upper bound on the
//! largest possible QC size and lowers the threshold geometrically until `k`
//! maximal QCs have been found — every probe reuses the full DCFastQC
//! machinery, so each round is cheap when the threshold is high. One core
//! decomposition serves the size bound and every round's plan, and the
//! configured time limit is one budget for all rounds together.

use std::time::Instant;

use mqce_graph::core_decomp::core_decomposition;
use mqce_graph::{Graph, VertexId};

use crate::config::{MqceConfig, MqceParams, ParamError};
use crate::pipeline::run_pipeline;
use crate::session::Session;

/// Result of a top-k search.
#[derive(Clone, Debug, Default)]
pub struct TopKResult {
    /// The k largest maximal quasi-cliques found (largest first; ties broken
    /// lexicographically). May contain fewer than `k` entries if the graph has
    /// fewer maximal QCs of size ≥ 2.
    pub mqcs: Vec<Vec<VertexId>>,
    /// The size threshold the final enumeration ran with.
    pub final_theta: usize,
    /// Number of enumeration rounds performed.
    pub rounds: usize,
    /// Whether the time limit cut the search: the last round was cut short
    /// (or had no budget left), so `mqcs` may miss larger sets.
    pub timed_out: bool,
}

/// Upper bound on the size of any γ-quasi-clique for γ ≥ 0.5: `2ω + 1`, where
/// `ω` is the graph degeneracy (the bound the paper uses in Section 2.2).
pub fn max_qc_size_bound(g: &Graph) -> usize {
    2 * mqce_graph::core_decomp::degeneracy(g) + 1
}

/// Finds the `k` largest maximal γ-quasi-cliques (of size ≥ 2).
///
/// `base` supplies the algorithm/branching/time-limit configuration; its
/// `theta` is ignored (the search manages the threshold itself). Its time
/// limit bounds the whole search: each round gets what remains of it, and a
/// round that runs out stops the search with [`TopKResult::timed_out`] set.
pub fn find_largest_mqcs(
    g: &Graph,
    gamma: f64,
    k: usize,
    base: Option<MqceConfig>,
) -> Result<TopKResult, ParamError> {
    let start = Instant::now();
    let params = MqceParams::new(gamma, 2)?;
    let template = base.unwrap_or_else(Session::default_config);
    if k == 0 || g.num_vertices() == 0 {
        return Ok(TopKResult::default());
    }
    let deadline = template.time_limit.map(|limit| start + limit);

    let cores = core_decomposition(g);
    let mut theta = (2 * cores.degeneracy + 1).max(2);
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        let config = MqceConfig {
            params: MqceParams { theta, ..params },
            time_limit: deadline.map(|d| d.saturating_duration_since(Instant::now())),
            ..template
        };
        let result = run_pipeline(g, &cores, &config, 1);
        let timed_out = result.timed_out();
        if timed_out || result.mqcs.len() >= k || theta == 2 {
            let mut mqcs = result.mqcs;
            mqcs.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
            mqcs.truncate(k);
            return Ok(TopKResult {
                mqcs,
                final_theta: theta,
                rounds,
                timed_out,
            });
        }
        // Lower the threshold geometrically (but never below 2).
        theta = (theta / 2).max(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mqce_graph::generators::{planted_quasi_cliques, PlantedGroup};

    #[test]
    fn size_bound_holds_on_examples() {
        let g = Graph::complete(6);
        assert!(max_qc_size_bound(&g) >= 6);
        let p = Graph::path(10);
        assert_eq!(max_qc_size_bound(&p), 3);
    }

    #[test]
    fn finds_planted_groups_in_size_order() {
        let g = planted_quasi_cliques(
            60,
            0.01,
            &[
                PlantedGroup {
                    size: 12,
                    density: 1.0,
                },
                PlantedGroup {
                    size: 8,
                    density: 1.0,
                },
                PlantedGroup {
                    size: 6,
                    density: 1.0,
                },
            ],
            19,
        );
        let top = find_largest_mqcs(&g, 0.9, 2, None).unwrap();
        assert_eq!(top.mqcs.len(), 2);
        assert!(top.mqcs[0].len() >= top.mqcs[1].len());
        assert_eq!(top.mqcs[0], (0..12).collect::<Vec<_>>());
        assert_eq!(top.mqcs[1], (12..20).collect::<Vec<_>>());
    }

    #[test]
    fn k_larger_than_available() {
        let g = Graph::complete(5);
        let top = find_largest_mqcs(&g, 0.9, 10, None).unwrap();
        assert_eq!(top.mqcs.len(), 1);
        assert_eq!(top.mqcs[0], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn zero_k_and_empty_graph() {
        let g = Graph::complete(4);
        assert!(find_largest_mqcs(&g, 0.9, 0, None).unwrap().mqcs.is_empty());
        let empty = Graph::empty(0);
        assert!(find_largest_mqcs(&empty, 0.9, 3, None)
            .unwrap()
            .mqcs
            .is_empty());
    }

    #[test]
    fn invalid_gamma_is_rejected() {
        let g = Graph::complete(4);
        assert!(find_largest_mqcs(&g, 0.2, 1, None).is_err());
    }

    #[test]
    fn results_match_full_enumeration() {
        let g = Graph::paper_figure1();
        let top = find_largest_mqcs(&g, 0.6, 3, None).unwrap();
        let full = crate::pipeline::enumerate_mqcs_default(&g, 0.6, 2).unwrap();
        let mut by_size = full.mqcs.clone();
        by_size.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        assert_eq!(top.mqcs, by_size[..3.min(by_size.len())].to_vec());
        assert!(!top.timed_out);
    }

    #[test]
    fn time_limit_is_one_budget_across_rounds() {
        // A planted 40-clique lifts the size bound (θ starts at 79) while the
        // core reduction makes the first rounds trivial; below θ ≈ 20 the
        // dense random background makes every round far too big for the
        // budget. Each round used to restart the limit, so the real budget
        // was rounds × limit; now the whole search returns within the limit
        // plus the S2 grace.
        use crate::pipeline::S2_MIN_GRACE;
        use std::time::Duration;
        let g = planted_quasi_cliques(
            300,
            0.08,
            &[PlantedGroup {
                size: 40,
                density: 1.0,
            }],
            3,
        );
        let limit = Duration::from_millis(300);
        let config = MqceConfig::new(0.7, 2).unwrap().with_time_limit(limit);
        let start = Instant::now();
        let top = find_largest_mqcs(&g, 0.7, 1_000_000, Some(config)).unwrap();
        let elapsed = start.elapsed();
        assert!(top.timed_out, "the budget should have cut the search");
        assert!(top.rounds >= 3, "the search should need several rounds");
        // 10% of 300 ms clamps up to the minimum grace; allow the same again
        // for planning and scheduling slack on a loaded machine.
        assert!(
            elapsed < limit + 2 * S2_MIN_GRACE,
            "top-k took {elapsed:?} for a {limit:?} budget"
        );
        for mqc in &top.mqcs {
            assert!(crate::quasiclique::is_quasi_clique(&g, mqc, 0.7));
        }
    }
}
