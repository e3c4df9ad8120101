//! End-to-end MQCE pipeline: MQCE-S1 (branch-and-bound enumeration) feeding
//! a streaming MQCE-S2 maximality engine.
//!
//! There is one pipeline body, `run_pipeline`, behind
//! [`Session::run`](crate::session::Session::run) and the `&Graph`
//! conveniences: build the `DcPlan`, `execute` its anchors with one
//! maximality engine per worker (each subproblem's quasi-cliques are
//! streamed into the engine as they are produced, dropping duplicates and
//! dominated sets on arrival), merge the per-worker engines, and
//! `finalize` under whatever remains of the wall-clock budget — a run that
//! exhausts its time limit in S1 does not pay an unbounded post-hoc
//! filtering bill on hundreds of thousands of sets. The same module holds
//! the S2 merges the other paths share: the per-worker engine merge (also
//! used by shard workers) and the one `frontier_merge` behind incremental
//! updates and the shard coordinator.

use std::time::{Duration, Instant};

use mqce_graph::core_decomp::{core_decomposition, CoreDecomposition};
use mqce_graph::{Graph, VertexId};
use mqce_settrie::{MaximalityEngine, S2Outcome};

use crate::branch::SearchOutcome;
use crate::config::{Algorithm, MqceConfig, MqceParams};
use crate::dc::{run_dc_streaming, DcConfig, DcPlan, InnerAlgorithm};
use crate::fastqc::fastqc_whole_graph;
use crate::naive;
use crate::quickplus::quickplus_whole_graph;
use crate::scheduler::execute;
use crate::stats::{S2Stats, SearchStats, ThreadStats};

/// Minimum wall-clock slice MQCE-S2 is granted even when S1 consumed the
/// whole budget: without it a time-limited run whose S1 was cut off would
/// return no maximal sets at all.
pub(crate) const S2_MIN_GRACE: Duration = Duration::from_millis(100);

/// Upper bound on the S2 grace slice (10% of the time limit, clamped).
const S2_MAX_GRACE: Duration = Duration::from_secs(5);

/// Result of an end-to-end MQCE run.
#[derive(Clone, Debug, Default)]
pub struct MqceResult {
    /// The MQCE-S1 output: a set of quasi-cliques containing every maximal QC
    /// of size ≥ θ (possibly with non-maximal members). Sorted vertex sets.
    pub qcs: Vec<Vec<VertexId>>,
    /// The MQCE-S2 output: exactly the maximal quasi-cliques of size ≥ θ,
    /// sorted lexicographically. When [`S2Stats::timed_out`] is set this is
    /// a sound partial result (an antichain) rather than the full family.
    pub mqcs: Vec<Vec<VertexId>>,
    /// Statistics of the S1 search.
    pub stats: SearchStats,
    /// Per-worker counters of the work-stealing scheduler (empty for
    /// sequential runs): what each thread ran, stole and donated, and how
    /// its wall-clock split between busy and hungry.
    pub thread_stats: Vec<ThreadStats>,
    /// Statistics of the S2 maximality engine.
    pub s2: S2Stats,
    /// Wall-clock time of the MQCE-S1 window. For DC algorithms this
    /// includes the streaming S2 `add` probes that run inline with the
    /// search — that overlap is the point of the streaming engine, so the
    /// two stages no longer sum from disjoint measurements.
    pub s1_time: Duration,
    /// Wall-clock time spent in MQCE-S2 (the part not already overlapped
    /// with the search: merging and the final compaction).
    pub s2_time: Duration,
}

impl MqceResult {
    /// Whether the run hit its time limit in either stage (the MQC list may
    /// be incomplete).
    pub fn timed_out(&self) -> bool {
        self.stats.timed_out || self.s2.timed_out
    }

    /// Whether the maximality filtering stage specifically was cut off by
    /// the deadline (the MQC list is then a sound partial antichain).
    pub fn s2_timed_out(&self) -> bool {
        self.s2.timed_out
    }

    /// Sizes of the maximal quasi-cliques: `(min, max, mean)` — the
    /// `|H_min| / |H_max| / |H_avg|` columns of Table 1. Returns `None` when
    /// no MQC was found.
    pub fn mqc_size_stats(&self) -> Option<(usize, usize, f64)> {
        if self.mqcs.is_empty() {
            return None;
        }
        let min = self.mqcs.iter().map(Vec::len).min().unwrap();
        let max = self.mqcs.iter().map(Vec::len).max().unwrap();
        let mean = self.mqcs.iter().map(Vec::len).sum::<usize>() as f64 / self.mqcs.len() as f64;
        Some((min, max, mean))
    }
}

/// The `(inner algorithm, DC configuration)` pair of a DC-family algorithm,
/// `None` for algorithms without a divide-and-conquer decomposition.
pub(crate) fn dc_setup(config: &MqceConfig) -> Option<(InnerAlgorithm, DcConfig)> {
    match config.algorithm {
        Algorithm::DcFastQc => Some((
            InnerAlgorithm::FastQc(config.branching),
            DcConfig::paper_default().with_max_round(config.max_round),
        )),
        Algorithm::BasicDcFastQc => {
            Some((InnerAlgorithm::FastQc(config.branching), DcConfig::basic()))
        }
        Algorithm::QuickPlus => Some((InnerAlgorithm::QuickPlus, DcConfig::basic())),
        _ => None,
    }
}

/// MQCE-S1 for the algorithms without a DC decomposition: they produce
/// their outputs in one batch, which the caller feeds to S2 afterwards.
fn solve_whole_graph(g: &Graph, config: &MqceConfig, deadline: Option<Instant>) -> SearchOutcome {
    let params = config.params;
    match config.algorithm {
        Algorithm::FastQc => fastqc_whole_graph(g, params, config.branching, deadline),
        Algorithm::QuickPlusRaw => quickplus_whole_graph(g, params, deadline),
        Algorithm::Naive => {
            let outputs = naive::all_maximal_quasi_cliques(g, params);
            SearchOutcome {
                stats: SearchStats {
                    outputs: outputs.len() as u64,
                    ..Default::default()
                },
                outputs,
                thread_stats: Vec::new(),
            }
        }
        _ => unreachable!("DC algorithms are handled by dc_setup"),
    }
}

/// Streams `sets` into `engine`, polling the deadline every few hundred
/// sets. Returns `false` when the feed was cut short.
pub(crate) fn feed_sets(
    engine: &mut dyn MaximalityEngine,
    sets: &[Vec<VertexId>],
    deadline: Option<Instant>,
) -> bool {
    for (i, set) in sets.iter().enumerate() {
        if i.is_multiple_of(256) {
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    return false;
                }
            }
        }
        engine.add(set);
    }
    true
}

/// One fresh maximality engine per worker of a `threads`-worker execution.
pub(crate) fn worker_engines(
    config: &MqceConfig,
    threads: usize,
) -> Vec<Box<dyn MaximalityEngine>> {
    (0..threads.max(1))
        .map(|_| config.s2_backend.new_engine_with_model(config.s2_model))
        .collect()
}

/// Merges per-worker engines into the first: each other engine is drained
/// and its sets re-added, which re-probes them, so sets retained by one
/// worker but dominated by another worker's results are dropped here.
/// Returns the merged engine and whether the feed was cut short by
/// `deadline`.
pub(crate) fn merge_engines(
    engines: Vec<Box<dyn MaximalityEngine>>,
    deadline: Option<Instant>,
) -> (Box<dyn MaximalityEngine>, bool) {
    let mut engines = engines.into_iter();
    let mut engine = engines.next().expect("at least one engine to merge");
    let mut truncated = false;
    for mut other in engines {
        truncated |= !feed_sets(engine.as_mut(), &other.drain(), deadline);
    }
    (engine, truncated)
}

/// Merges two lexicographically sorted families into one sorted family.
fn merge_canonical(a: Vec<Vec<VertexId>>, b: Vec<Vec<VertexId>>) -> Vec<Vec<VertexId>> {
    if a.is_empty() {
        return b;
    }
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut a = a.into_iter().peekable();
    let mut b = b.into_iter().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => {
                if x <= y {
                    out.push(a.next().unwrap());
                } else {
                    out.push(b.next().unwrap());
                }
            }
            (Some(_), None) => out.push(a.next().unwrap()),
            (None, Some(_)) => out.push(b.next().unwrap()),
            (None, None) => break,
        }
    }
    out
}

/// The one frontier merge, shared by incremental updates and the shard
/// coordinator: both hold a union of set families in which only a small
/// *frontier* can interact, and restore exact maximality over the union
/// without pushing the rest through an engine.
///
/// `engine` holds the frontier sets; each of `interior` is a canonical
/// (lexicographically sorted) family of the remaining sets. The merge is
/// exact whenever every interior set is incomparable (under ⊆) with every
/// other set of the union: then any dominated set `S ⊊ T` of the union has
/// both `S` and `T` in the frontier, so compacting the engine removes
/// exactly the dominated sets, and splicing the interior antichains back in
/// canonical order yields exactly the maximal sets of the union.
///
/// The callers establish that condition with the same Property 2 argument:
/// a quasi-clique has diameter ≤ 2 (γ ≥ ½), so two comparable sets lie in
/// each other's anchors' closed two-hop balls, and a set classified interior
/// is one whose anchor's ball provably meets nothing of another part — for
/// an incremental update, a retained set disjoint from the dirty two-hop
/// closure; for shards, a set whose anchor's ball stays inside its shard's
/// rank range.
pub(crate) fn frontier_merge(
    engine: Box<dyn MaximalityEngine>,
    interior: Vec<Vec<Vec<VertexId>>>,
) -> S2Outcome {
    let mut outcome = engine.finish();
    for family in interior {
        outcome.mqcs = merge_canonical(std::mem::take(&mut outcome.mqcs), family);
    }
    outcome
}

/// Runs only MQCE-S1 with the configured algorithm, returning the raw set of
/// quasi-cliques (global vertex ids) and the search statistics. DC
/// algorithms plan from one core decomposition of `g`, exactly as
/// [`Session::run`](crate::session::Session::run) does from its cached one,
/// so the two report the same S1 counters.
pub fn solve_s1(g: &Graph, config: &MqceConfig) -> SearchOutcome {
    let deadline = config.time_limit.map(|limit| Instant::now() + limit);
    match dc_setup(config) {
        Some((inner, dc)) => run_dc_streaming(g, config.params, inner, dc, deadline, None),
        None => solve_whole_graph(g, config, deadline),
    }
}

/// The deadline MQCE-S2 compacts under: the pipeline deadline, but never
/// less than a small grace interval from now — 10% of the time limit,
/// clamped to `[100ms, 5s]` — so a run whose S1 was cut off still returns
/// the sets it can compact within the grace slice.
///
/// A zero time limit grants **no** grace: the caller asked for no work at
/// all (`--time-limit 0`, or a daemon request whose deadline had already
/// passed on arrival), so the run must return immediately with
/// `s2_timed_out = true` and an empty-but-sound partial result rather than
/// burn `S2_MIN_GRACE` and report an unflagged (falsely complete-looking)
/// empty answer.
pub(crate) fn s2_deadline(deadline: Option<Instant>, limit: Option<Duration>) -> Option<Instant> {
    deadline.map(|d| {
        let grace = match limit {
            Some(l) if l.is_zero() => Duration::ZERO,
            Some(l) => (l / 10).clamp(S2_MIN_GRACE, S2_MAX_GRACE),
            None => S2_MIN_GRACE,
        };
        d.max(Instant::now() + grace)
    })
}

/// Assembles the final [`MqceResult`]: compacts the engine under the
/// (already graced) S2 deadline and fills in the S2 statistics. `s2_start`
/// is when post-S1 S2 work began (feeding or merging included), so the
/// reported `s2_time` covers everything not overlapped with the search.
///
/// `merge_phase` says whether `engine` performed a cross-engine merge (the
/// parallel per-thread merge, the incremental frontier merge, the shard
/// coordinator merge) rather than the plain per-subproblem streaming pass:
/// its dispatch audit then lands in [`S2Stats::merge_decision`] instead of
/// [`S2Stats::decision`], so a merge-phase backend choice never overwrites
/// (or masquerades as) a per-subproblem one.
pub(crate) fn finalize(
    outcome: SearchOutcome,
    engine: Box<dyn MaximalityEngine>,
    feed_truncated: bool,
    s2_deadline: Option<Instant>,
    s1_time: Duration,
    s2_start: Instant,
    merge_phase: bool,
) -> MqceResult {
    let sets_streamed = outcome.outputs.len() as u64;
    let sets_retained = engine.live_len() as u64;
    // A zero-budget run reaches this point with its S2 deadline already in
    // the past; the compaction of whatever the engine holds (often nothing)
    // may complete before polling the deadline, so the expiry itself marks
    // the result as partial. Runs with a real budget start compaction with
    // (most of) the grace slice still ahead and do not trip this.
    let deadline_expired = s2_deadline.is_some_and(|d| Instant::now() >= d);
    let s2_out = engine.finish_with_deadline(s2_deadline);
    let s2_time = s2_start.elapsed();
    let mut qcs = outcome.outputs;
    qcs.sort();
    qcs.dedup();
    let (decision, merge_decision) = if merge_phase {
        (None, s2_out.decision)
    } else {
        (s2_out.decision, None)
    };
    MqceResult {
        qcs,
        mqcs: s2_out.mqcs,
        stats: outcome.stats,
        thread_stats: outcome.thread_stats,
        s2: S2Stats {
            backend: s2_out.backend.to_string(),
            sets_streamed,
            sets_retained,
            timed_out: s2_out.timed_out || feed_truncated || deadline_expired,
            decision,
            merge_decision,
        },
        s1_time,
        s2_time,
    }
}

/// The one pipeline body (S1 + streaming S2) behind
/// [`Session::run`](crate::session::Session::run) and the `&Graph` entry
/// points: plan from `cores` (the core decomposition of `g`), [`execute`]
/// on `threads` workers with one engine each, merge the engines, and
/// [`finalize`]. Algorithms without a DC decomposition run sequentially and
/// feed their batch output to S2 afterwards.
pub(crate) fn run_pipeline(
    g: &Graph,
    cores: &CoreDecomposition,
    config: &MqceConfig,
    threads: usize,
) -> MqceResult {
    let deadline = config.time_limit.map(|limit| Instant::now() + limit);
    let s1_start = Instant::now();
    let mut engines: Vec<Box<dyn MaximalityEngine>> = Vec::new();
    let outcome = match dc_setup(config) {
        Some((inner, dc)) => {
            let plan = DcPlan::from_cores(g, cores, config.params, dc);
            engines = worker_engines(config, threads);
            let streams = engines.iter_mut().map(|e| e.as_mut()).collect();
            execute(
                &plan,
                &plan.ordering,
                config.params,
                inner,
                dc,
                threads,
                deadline,
                streams,
            )
        }
        None => solve_whole_graph(g, config, deadline),
    };
    let s1_time = s1_start.elapsed();
    // The grace slice is granted exactly once, when post-S1 S2 work starts:
    // the feed (whole-graph algorithms) or the per-worker engine merge, then
    // the compaction, share it.
    let s2_start = Instant::now();
    let s2_dl = s2_deadline(deadline, config.time_limit);
    // A multi-worker merge is a merge phase: its dispatch audit is reported
    // apart from the per-subproblem one.
    let merge_phase = engines.len() > 1;
    let (engine, feed_truncated) = if engines.is_empty() {
        let mut engine = config.s2_backend.new_engine_with_model(config.s2_model);
        let fed = feed_sets(engine.as_mut(), &outcome.outputs, s2_dl);
        (engine, !fed)
    } else {
        merge_engines(engines, s2_dl)
    };
    finalize(
        outcome,
        engine,
        feed_truncated,
        s2_dl,
        s1_time,
        s2_start,
        merge_phase,
    )
}

/// Convenience wrapper: enumerate the maximal γ-quasi-cliques of size ≥ θ
/// using the paper's default algorithm (DCFastQC with Hybrid-SE branching)
/// on one thread — what `Session::open(g).params(..).run()` returns.
pub fn enumerate_mqcs_default(
    g: &Graph,
    gamma: f64,
    theta: usize,
) -> Result<MqceResult, crate::config::ParamError> {
    let config = MqceConfig::new(gamma, theta)?;
    Ok(run_pipeline(g, &core_decomposition(g), &config, 1))
}

/// Parameters bundle re-exported for callers that only run S1.
pub fn params(gamma: f64, theta: usize) -> Result<MqceParams, crate::config::ParamError> {
    MqceParams::new(gamma, theta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BranchingStrategy;
    use crate::prepared::PreparedGraph;
    use crate::session::Session;
    use mqce_graph::generators::{planted_quasi_cliques, PlantedGroup};

    fn session_run(g: &Graph, config: &MqceConfig) -> MqceResult {
        Session::open(g.clone()).config(*config).run()
    }

    fn session_run_threads(g: &Graph, config: &MqceConfig, threads: usize) -> MqceResult {
        Session::open(g.clone())
            .config(*config)
            .threads(threads)
            .run()
    }

    #[test]
    fn all_algorithms_agree_on_paper_graph() {
        let g = Graph::paper_figure1();
        for &gamma in &[0.5, 0.6, 0.9, 1.0] {
            for theta in 2..=3 {
                let reference = session_run(
                    &g,
                    &MqceConfig::new(gamma, theta)
                        .unwrap()
                        .with_algorithm(Algorithm::Naive),
                )
                .mqcs;
                for algo in [
                    Algorithm::DcFastQc,
                    Algorithm::FastQc,
                    Algorithm::BasicDcFastQc,
                    Algorithm::QuickPlus,
                    Algorithm::QuickPlusRaw,
                ] {
                    let result = session_run(
                        &g,
                        &MqceConfig::new(gamma, theta).unwrap().with_algorithm(algo),
                    );
                    assert_eq!(
                        result.mqcs, reference,
                        "algorithm {algo:?} disagrees at gamma={gamma} theta={theta}"
                    );
                    assert!(!result.timed_out());
                }
            }
        }
    }

    #[test]
    fn planted_groups_are_recovered() {
        // Two planted cliques of size 10 and 8 in a sparse background: with
        // γ = 0.9, θ = 7 the planted groups must appear inside the MQC list.
        let g = planted_quasi_cliques(
            80,
            0.02,
            &[
                PlantedGroup {
                    size: 10,
                    density: 1.0,
                },
                PlantedGroup {
                    size: 8,
                    density: 1.0,
                },
            ],
            77,
        );
        let result = enumerate_mqcs_default(&g, 0.9, 7).unwrap();
        let group1: Vec<VertexId> = (0..10).collect();
        let group2: Vec<VertexId> = (10..18).collect();
        let covers = |planted: &Vec<VertexId>| {
            result
                .mqcs
                .iter()
                .any(|mqc| planted.iter().all(|v| mqc.contains(v)))
        };
        assert!(covers(&group1), "planted 10-clique not recovered");
        assert!(covers(&group2), "planted 8-clique not recovered");
        assert!(result.s1_time >= Duration::ZERO);
        assert_eq!(result.stats.outputs_rejected, 0);
    }

    #[test]
    fn qcs_superset_of_mqcs() {
        let g = Graph::paper_figure1();
        let result = enumerate_mqcs_default(&g, 0.6, 3).unwrap();
        for mqc in &result.mqcs {
            assert!(result.qcs.contains(mqc));
        }
        assert!(result.qcs.len() >= result.mqcs.len());
    }

    #[test]
    fn size_stats() {
        let g = Graph::complete(5);
        let result = enumerate_mqcs_default(&g, 0.9, 2).unwrap();
        assert_eq!(result.mqc_size_stats(), Some((5, 5, 5.0)));
        let empty = enumerate_mqcs_default(&g, 0.9, 6).unwrap();
        assert_eq!(empty.mqc_size_stats(), None);
    }

    #[test]
    fn parallel_pipeline_matches_sequential() {
        use mqce_graph::generators::{planted_quasi_cliques, PlantedGroup};
        let g = planted_quasi_cliques(
            100,
            0.02,
            &[
                PlantedGroup {
                    size: 10,
                    density: 0.95,
                },
                PlantedGroup {
                    size: 8,
                    density: 1.0,
                },
            ],
            55,
        );
        for algo in [Algorithm::DcFastQc, Algorithm::QuickPlus, Algorithm::FastQc] {
            let config = MqceConfig::new(0.9, 6).unwrap().with_algorithm(algo);
            let sequential = session_run(&g, &config);
            let parallel = session_run_threads(&g, &config, 4);
            assert_eq!(parallel.mqcs, sequential.mqcs, "{algo:?}");
        }
    }

    #[test]
    fn time_limit_is_respected() {
        use mqce_graph::generators::erdos_renyi_gnm;
        let g = erdos_renyi_gnm(300, 6000, 5);
        let config = MqceConfig::new(0.5, 3)
            .unwrap()
            .with_algorithm(Algorithm::QuickPlusRaw)
            .with_time_limit(Duration::from_millis(50));
        let start = Instant::now();
        let result = session_run(&g, &config);
        // Either the search finished quickly or it was cut off close to the
        // limit; in no case may it run for many seconds.
        assert!(start.elapsed() < Duration::from_secs(20));
        let _ = result.timed_out();
    }

    #[test]
    fn s2_backends_agree_and_report_stats() {
        use crate::config::S2Backend;
        let g = Graph::paper_figure1();
        let reference = enumerate_mqcs_default(&g, 0.6, 3).unwrap().mqcs;
        for backend in [
            S2Backend::Auto,
            S2Backend::Inverted,
            S2Backend::Bitset,
            S2Backend::Extremal,
        ] {
            let result = session_run(
                &g,
                &MqceConfig::new(0.6, 3).unwrap().with_s2_backend(backend),
            );
            assert_eq!(result.mqcs, reference, "{backend:?}");
            assert!(!result.s2.timed_out);
            assert!(!result.s2.backend.is_empty());
            assert_eq!(result.s2.sets_streamed, result.stats.outputs);
            assert!(result.s2.sets_retained as usize >= result.mqcs.len());
            // Auto resolves to a concrete backend at finish time.
            if backend != S2Backend::Auto {
                assert_eq!(result.s2.backend, backend.name());
            } else {
                assert_ne!(result.s2.backend, "auto");
            }
        }
    }

    #[test]
    fn parallel_merge_agrees_across_s2_backends() {
        use crate::config::S2Backend;
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        let g = community_graph(
            CommunityGraphParams {
                n: 100,
                num_communities: 7,
                p_intra: 0.9,
                inter_degree: 1.5,
            },
            909,
        );
        let reference = session_run(&g, &MqceConfig::new(0.85, 5).unwrap()).mqcs;
        for backend in [S2Backend::Inverted, S2Backend::Bitset, S2Backend::Extremal] {
            let config = MqceConfig::new(0.85, 5).unwrap().with_s2_backend(backend);
            let parallel = session_run_threads(&g, &config, 4);
            assert_eq!(parallel.mqcs, reference, "{backend:?}");
            assert!(!parallel.s2.timed_out);
        }
    }

    #[test]
    fn zero_time_limit_returns_immediately_and_is_flagged() {
        // Regression: `s2_deadline` used to clamp the grace slice up to
        // S2_MIN_GRACE even for a zero budget, so `--time-limit 0` burned
        // 100ms of S2 work and reported `s2_timed_out = false` — an empty
        // answer indistinguishable from "this graph has no MQCs". A zero
        // budget must return promptly with the best-effort flag set.
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        let g = community_graph(
            CommunityGraphParams {
                n: 200,
                num_communities: 10,
                p_intra: 0.9,
                inter_degree: 2.0,
            },
            7,
        );
        for algo in [Algorithm::DcFastQc, Algorithm::FastQc] {
            let config = MqceConfig::new(0.85, 4)
                .unwrap()
                .with_algorithm(algo)
                .with_time_limit(Duration::ZERO);
            let start = Instant::now();
            let result = session_run(&g, &config);
            let elapsed = start.elapsed();
            assert!(result.s2_timed_out(), "{algo:?}: zero budget not flagged");
            assert!(result.timed_out(), "{algo:?}");
            assert!(result.mqcs.is_empty(), "{algo:?}");
            // Must not burn the 100ms grace slice; leave headroom for the
            // (budget-independent) plan preparation on slow CI machines.
            assert!(
                elapsed < S2_MIN_GRACE,
                "{algo:?}: zero budget took {elapsed:?}"
            );
        }
    }

    #[test]
    fn shared_pipeline_matches_owning_pipeline() {
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        let g = community_graph(
            CommunityGraphParams {
                n: 120,
                num_communities: 8,
                p_intra: 0.9,
                inter_degree: 1.5,
            },
            4242,
        );
        // The `&Graph` path (one fresh core decomposition) and a session
        // over a prepared graph (the cached one) plan identically: same
        // family and, sequentially, the same S1 counters.
        let prepared = std::sync::Arc::new(PreparedGraph::new(g.clone()));
        let cores = core_decomposition(&g);
        for algo in [
            Algorithm::DcFastQc,
            Algorithm::BasicDcFastQc,
            Algorithm::QuickPlus,
            Algorithm::FastQc,
        ] {
            let config = MqceConfig::new(0.85, 5).unwrap().with_algorithm(algo);
            let owning = run_pipeline(&g, &cores, &config, 1);
            let session = Session::open_prepared(prepared.clone()).config(config);
            let shared = session.run();
            assert_eq!(shared.mqcs, owning.mqcs, "{algo:?} shared != owning");
            assert_eq!(shared.stats.branches, owning.stats.branches, "{algo:?}");
            assert_eq!(shared.stats.outputs, owning.stats.outputs, "{algo:?}");
            let shared_par = session.threads(4).run();
            assert_eq!(shared_par.mqcs, owning.mqcs, "{algo:?} shared parallel");
        }
    }

    #[test]
    fn shared_pipeline_handles_empty_core() {
        // theta high enough that the core reduction empties the graph.
        let prepared = std::sync::Arc::new(PreparedGraph::new(Graph::path(10)));
        let config = MqceConfig::new(0.9, 5).unwrap();
        let result = Session::open_prepared(prepared).config(config).run();
        assert!(result.mqcs.is_empty());
        assert!(!result.timed_out());
    }

    #[test]
    fn branching_strategies_all_exact_on_community_graph() {
        use mqce_graph::generators::{community_graph, CommunityGraphParams};
        let g = community_graph(
            CommunityGraphParams {
                n: 60,
                num_communities: 5,
                p_intra: 0.85,
                inter_degree: 1.0,
            },
            2024,
        );
        let reference = session_run(
            &g,
            &MqceConfig::new(0.8, 5)
                .unwrap()
                .with_algorithm(Algorithm::DcFastQc),
        )
        .mqcs;
        for branching in [BranchingStrategy::SymSe, BranchingStrategy::Se] {
            let result = session_run(
                &g,
                &MqceConfig::new(0.8, 5)
                    .unwrap()
                    .with_algorithm(Algorithm::DcFastQc)
                    .with_branching(branching),
            );
            assert_eq!(result.mqcs, reference, "branching {branching:?} disagrees");
        }
    }
}
