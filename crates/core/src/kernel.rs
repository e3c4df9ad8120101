//! Kernel-expansion heuristic for finding large γ-quasi-cliques.
//!
//! The related work the paper discusses in Section 7 (Sanei-Mehri et al.,
//! "Mining Largest Maximal Quasi-Cliques") does not enumerate all MQCs;
//! instead it (1) mines *kernels* — quasi-cliques at a stricter threshold
//! `γ' > γ`, which are much faster to find — and (2) greedily expands each
//! kernel into a large γ-quasi-clique. The result is a *heuristic*: it
//! reports large γ-QCs quickly, but unlike [`crate::topk`] it cannot certify
//! that the very largest one was found.
//!
//! This module reimplements that approach on top of the DCFastQC machinery
//! so the trade-off can be measured: kernels come from a full (exact)
//! enumeration at `γ'`, and the expansion adds one vertex at a time, always
//! picking the candidate that keeps the γ-QC predicate satisfiable and
//! maximises the resulting minimum degree.

use std::collections::HashSet;

use mqce_graph::core_decomp::core_decomposition;
use mqce_graph::{Graph, VertexId};

use crate::config::{Algorithm, MqceConfig, ParamError};
use crate::pipeline::run_pipeline;
use crate::quasiclique::is_quasi_clique;
use crate::verify::find_single_vertex_extension;

/// Configuration of the kernel-expansion heuristic.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KernelConfig {
    /// Target density threshold γ of the quasi-cliques to report.
    pub gamma: f64,
    /// Stricter kernel threshold γ′ (must satisfy `gamma ≤ gamma_prime ≤ 1`).
    pub gamma_prime: f64,
    /// Minimum kernel size: only γ′-MQCs with at least this many vertices are
    /// expanded.
    pub min_kernel_size: usize,
    /// How many expanded quasi-cliques to report (largest first).
    pub k: usize,
}

impl KernelConfig {
    /// Creates a configuration, validating the thresholds.
    ///
    /// # Errors
    /// Returns an error if either threshold is outside `[0.5, 1]`, if
    /// `gamma_prime < gamma`, or if `min_kernel_size` is zero.
    pub fn new(
        gamma: f64,
        gamma_prime: f64,
        min_kernel_size: usize,
        k: usize,
    ) -> Result<Self, ParamError> {
        // Reuse the parameter validation for both thresholds.
        crate::config::MqceParams::new(gamma, min_kernel_size.max(1))?;
        crate::config::MqceParams::new(gamma_prime, min_kernel_size.max(1))?;
        if gamma_prime < gamma || min_kernel_size == 0 {
            return Err(ParamError::GammaOutOfRange(gamma_prime));
        }
        Ok(KernelConfig {
            gamma,
            gamma_prime,
            min_kernel_size,
            k,
        })
    }
}

/// Result of a kernel-expansion run.
#[derive(Clone, Debug, Default)]
pub struct KernelExpansionResult {
    /// The expanded γ-quasi-cliques, largest first (ties broken
    /// lexicographically), deduplicated, at most `k` of them. Each admits no
    /// single-vertex extension (a necessary condition for maximality).
    pub qcs: Vec<Vec<VertexId>>,
    /// Number of kernels (γ′-MQCs of size ≥ `min_kernel_size`) that were
    /// expanded.
    pub kernels: usize,
    /// Size of the largest kernel before expansion (0 if none).
    pub largest_kernel: usize,
}

/// Runs the kernel-expansion heuristic.
pub fn expand_kernels(
    g: &Graph,
    config: KernelConfig,
) -> Result<KernelExpansionResult, ParamError> {
    if config.k == 0 || g.num_vertices() == 0 {
        return Ok(KernelExpansionResult::default());
    }
    // Step 1: exact enumeration of the kernels at the stricter threshold.
    let kernel_config = MqceConfig::new(config.gamma_prime, config.min_kernel_size)?
        .with_algorithm(Algorithm::DcFastQc);
    let kernels = run_pipeline(g, &core_decomposition(g), &kernel_config, 1).mqcs;
    let largest_kernel = kernels.iter().map(Vec::len).max().unwrap_or(0);

    // Step 2: expand every kernel at the relaxed threshold.
    let mut expanded: Vec<Vec<VertexId>> = Vec::with_capacity(kernels.len());
    for kernel in &kernels {
        expanded.push(expand_one(g, kernel, config.gamma));
    }
    expanded.sort();
    expanded.dedup();
    expanded.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
    expanded.truncate(config.k);

    Ok(KernelExpansionResult {
        qcs: expanded,
        kernels: kernels.len(),
        largest_kernel,
    })
}

/// Greedily expands one kernel into a γ-quasi-clique that admits no further
/// single-vertex extension. The kernel itself must be a γ-QC (every γ′-QC
/// with γ′ ≥ γ is); the routine then repeatedly adds the extension vertex
/// that maximises the minimum degree of the grown set.
fn expand_one(g: &Graph, kernel: &[VertexId], gamma: f64) -> Vec<VertexId> {
    let mut current: Vec<VertexId> = kernel.to_vec();
    current.sort_unstable();
    debug_assert!(is_quasi_clique(g, &current, gamma));
    loop {
        // Collect every single-vertex extension and keep the best one.
        let members: HashSet<VertexId> = current.iter().copied().collect();
        let mut candidates: Vec<VertexId> = Vec::new();
        for &v in &current {
            for &u in g.neighbors(v) {
                if !members.contains(&u) && !candidates.contains(&u) {
                    candidates.push(u);
                }
            }
        }
        let mut best: Option<(usize, VertexId)> = None;
        let mut grown = Vec::with_capacity(current.len() + 1);
        for &w in &candidates {
            grown.clear();
            grown.extend_from_slice(&current);
            grown.push(w);
            if !is_quasi_clique(g, &grown, gamma) {
                continue;
            }
            let min_deg = grown
                .iter()
                .map(|&v| g.degree_in(v, &grown))
                .min()
                .unwrap_or(0);
            let key = (min_deg, w);
            if best.is_none_or(|(bd, bw)| key > (bd, bw)) {
                best = Some(key);
            }
        }
        match best {
            Some((_, w)) => {
                current.push(w);
                current.sort_unstable();
            }
            None => break,
        }
    }
    debug_assert!(find_single_vertex_extension(g, &current, gamma).is_none());
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::find_largest_mqcs;
    use mqce_graph::generators::{planted_quasi_cliques, PlantedGroup};

    #[test]
    fn config_validation() {
        assert!(KernelConfig::new(0.7, 0.9, 3, 5).is_ok());
        assert!(
            KernelConfig::new(0.9, 0.7, 3, 5).is_err(),
            "gamma' below gamma"
        );
        assert!(KernelConfig::new(0.3, 0.9, 3, 5).is_err());
        assert!(KernelConfig::new(0.7, 1.2, 3, 5).is_err());
        assert!(KernelConfig::new(0.7, 0.9, 0, 5).is_err());
    }

    #[test]
    fn expansion_grows_kernels_and_stays_a_qc() {
        // A planted 0.85-dense group of 12: kernels mined at γ' = 0.95 are
        // smaller; expansion at γ = 0.7 should recover something close to the
        // full group.
        let g = planted_quasi_cliques(
            60,
            0.02,
            &[PlantedGroup {
                size: 12,
                density: 0.9,
            }],
            5,
        );
        let config = KernelConfig::new(0.7, 0.95, 3, 4).unwrap();
        let result = expand_kernels(&g, config).unwrap();
        assert!(result.kernels > 0, "no kernels found");
        assert!(!result.qcs.is_empty());
        for qc in &result.qcs {
            assert!(is_quasi_clique(&g, qc, 0.7));
            assert!(find_single_vertex_extension(&g, qc, 0.7).is_none());
        }
        // The best expanded QC is at least as large as the largest kernel.
        assert!(result.qcs[0].len() >= result.largest_kernel);
        assert!(
            result.qcs[0].len() >= 10,
            "expansion too small: {}",
            result.qcs[0].len()
        );
    }

    #[test]
    fn heuristic_never_beats_exact_topk() {
        let g = planted_quasi_cliques(
            40,
            0.05,
            &[
                PlantedGroup {
                    size: 9,
                    density: 1.0,
                },
                PlantedGroup {
                    size: 6,
                    density: 1.0,
                },
            ],
            23,
        );
        let gamma = 0.8;
        let exact = find_largest_mqcs(&g, gamma, 1, None).unwrap();
        let heuristic = expand_kernels(&g, KernelConfig::new(gamma, 0.9, 3, 1).unwrap()).unwrap();
        let exact_best = exact.mqcs.first().map(Vec::len).unwrap_or(0);
        let heuristic_best = heuristic.qcs.first().map(Vec::len).unwrap_or(0);
        assert!(heuristic_best <= exact_best);
        // On this easy instance the heuristic should also find the planted group.
        assert!(heuristic_best >= 9);
    }

    #[test]
    fn degenerate_inputs() {
        let g = Graph::complete(5);
        let cfg = KernelConfig::new(0.8, 0.9, 2, 0).unwrap();
        assert!(expand_kernels(&g, cfg).unwrap().qcs.is_empty());
        let empty = Graph::empty(0);
        let cfg = KernelConfig::new(0.8, 0.9, 2, 3).unwrap();
        assert!(expand_kernels(&empty, cfg).unwrap().qcs.is_empty());
    }

    #[test]
    fn clique_is_returned_whole() {
        let g = Graph::complete(7);
        let cfg = KernelConfig::new(0.6, 0.9, 2, 2).unwrap();
        let result = expand_kernels(&g, cfg).unwrap();
        assert_eq!(result.qcs, vec![(0..7).collect::<Vec<_>>()]);
        assert_eq!(result.largest_kernel, 7);
    }
}
