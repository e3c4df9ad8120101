//! Integration tests for the work-stealing parallel DC driver: skewed
//! subproblem families (one planted giant community plus many tiny ones)
//! must produce exactly the sequential maximal family at every thread
//! count, intra-subproblem splitting must actually fire on the skewed
//! shape, and deadlines must stay sound while branches are being stolen.

use std::time::{Duration, Instant};

use mqce::core::dc::{run_dc_parallel, DcConfig, InnerAlgorithm};
use mqce::core::prelude::*;
use mqce::core::quasiclique::is_quasi_clique;
use mqce_graph::generators::{planted_quasi_cliques, PlantedGroup};
use mqce_graph::Graph;
use mqce_settrie::filter_maximal;

/// One sequential run through the session API.
fn session_run(g: &Graph, config: &MqceConfig) -> MqceResult {
    Session::open(g.clone()).config(*config).run()
}

/// One run through the session API on `threads` workers.
fn session_run_threads(g: &Graph, config: &MqceConfig, threads: usize) -> MqceResult {
    Session::open(g.clone())
        .config(*config)
        .threads(threads)
        .run()
}

/// Whether sorted set `a` is a subset of sorted set `b`.
fn is_sorted_subset(a: &[u32], b: &[u32]) -> bool {
    let mut it = b.iter();
    a.iter().all(|x| it.any(|y| y == x))
}

/// One heavy planted community and a tail of tiny ones: the shape where
/// whole-subproblem handout pins a single worker on the giant subproblem
/// while the rest go idle.
fn skewed_graph() -> Graph {
    let mut groups = vec![PlantedGroup {
        size: 26,
        density: 0.92,
    }];
    for _ in 0..10 {
        groups.push(PlantedGroup {
            size: 8,
            density: 1.0,
        });
    }
    planted_quasi_cliques(180, 0.015, &groups, 20240)
}

#[test]
fn skewed_family_parallel_matches_sequential_at_every_thread_count() {
    let g = skewed_graph();
    let config = MqceConfig::new(0.85, 6).unwrap().with_steal_granularity(1);
    let sequential = session_run(&g, &config);
    assert!(!sequential.timed_out());
    assert!(!sequential.mqcs.is_empty());
    for threads in [1, 2, 4] {
        let parallel = session_run_threads(&g, &config, threads);
        assert_eq!(
            parallel.mqcs, sequential.mqcs,
            "work-stealing driver differs from sequential at {threads} threads"
        );
        assert!(!parallel.timed_out());
        // Subproblem accounting is thread-count-invariant: every anchor
        // vertex is built exactly once no matter who runs it.
        assert_eq!(
            parallel.stats.dc_subproblems,
            sequential.stats.dc_subproblems
        );
        if threads > 1 {
            assert_eq!(parallel.thread_stats.len(), threads);
            let total: u64 = parallel.thread_stats.iter().map(|t| t.subproblems).sum();
            assert_eq!(total, parallel.stats.dc_subproblems);
        }
    }
}

#[test]
fn intra_subproblem_splitting_fires_on_a_single_giant_community() {
    // One dense community dominates the run: with 4 workers, three drain the
    // cheap tail quickly and go hungry, so the workers holding the heavy
    // subproblems donate branches. Whether a donation window opens in any
    // single run depends on OS scheduling (the deterministic coverage of the
    // branch-packaging itself lives in the scheduler's greedy-sink unit
    // test), so the run is repeated a few times; output equality is asserted
    // every time.
    let g = planted_quasi_cliques(
        80,
        0.01,
        &[PlantedGroup {
            size: 30,
            density: 0.9,
        }],
        7,
    );
    let p = MqceParams::new(0.85, 6).unwrap().with_steal_granularity(1);
    let sequential = run_dc_parallel(
        &g,
        p,
        InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
        DcConfig::paper_default(),
        1,
        None,
    );
    let expected = filter_maximal(&sequential.outputs);
    let mut seq_sorted = sequential.outputs.clone();
    seq_sorted.sort();
    seq_sorted.dedup();
    let mut donated_somewhere = false;
    for _attempt in 0..8 {
        let parallel = run_dc_parallel(
            &g,
            p,
            InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
            DcConfig::paper_default(),
            4,
            None,
        );
        assert_eq!(
            filter_maximal(&parallel.outputs),
            expected,
            "stolen split tasks changed the maximal family"
        );
        assert_eq!(
            parallel.stats.split_executed, parallel.stats.split_donated,
            "every donated branch must be executed exactly once"
        );
        // Raw S1 outputs may contain extra dominated sets from split points,
        // but never fewer than the sequential stream's distinct sets.
        let mut par_sorted = parallel.outputs;
        par_sorted.sort();
        par_sorted.dedup();
        assert!(seq_sorted
            .iter()
            .all(|s| par_sorted.binary_search(s).is_ok()));
        if parallel.stats.split_donated > 0 {
            donated_somewhere = true;
            break;
        }
    }
    assert!(
        donated_somewhere,
        "no branches were donated in any of 8 runs on the giant-community workload"
    );
}

#[test]
fn granularity_zero_disables_splitting_but_not_stealing() {
    let g = skewed_graph();
    let p = MqceParams::new(0.85, 6).unwrap().with_steal_granularity(0);
    let outcome = run_dc_parallel(
        &g,
        p,
        InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
        DcConfig::paper_default(),
        4,
        None,
    );
    assert_eq!(outcome.stats.split_donated, 0);
    assert_eq!(outcome.stats.split_executed, 0);
    let sequential = run_dc_parallel(
        &g,
        p,
        InnerAlgorithm::FastQc(BranchingStrategy::HybridSe),
        DcConfig::paper_default(),
        1,
        None,
    );
    assert_eq!(
        filter_maximal(&outcome.outputs),
        filter_maximal(&sequential.outputs)
    );
}

#[test]
fn quickplus_inner_survives_stealing() {
    // Smaller than the FastQC workloads: Quick+ has no worst-case guarantee
    // and would take tens of seconds on the full skewed graph.
    let mut groups = vec![PlantedGroup {
        size: 14,
        density: 0.95,
    }];
    for _ in 0..6 {
        groups.push(PlantedGroup {
            size: 7,
            density: 1.0,
        });
    }
    let g = planted_quasi_cliques(90, 0.015, &groups, 313);
    let config = MqceConfig::new(0.9, 5)
        .unwrap()
        .with_algorithm(Algorithm::QuickPlus)
        .with_steal_granularity(1);
    let sequential = session_run(&g, &config);
    let parallel = session_run_threads(&g, &config, 4);
    assert_eq!(parallel.mqcs, sequential.mqcs);
}

#[test]
fn parallel_matches_sequential_across_full_differential_grid() {
    // The γ × θ grid of the differential sweep, run through the work-stealing
    // driver (aggressive splitting) and compared cell by cell against the
    // sequential pipeline, on random, structured and degenerate graphs.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x57EA1);
    let mut graphs = vec![
        Graph::paper_figure1(),
        Graph::complete(7),
        Graph::star(6),
        Graph::empty(0),
        Graph::empty(4),
    ];
    for _ in 0..4 {
        let n = rng.gen_range(8..14);
        let p = rng.gen_range(0.2..0.85);
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                if rng.gen_bool(p) {
                    edges.push((u, v));
                }
            }
        }
        graphs.push(Graph::from_edges(n, &edges));
    }
    for (i, g) in graphs.iter().enumerate() {
        for &gamma in &[0.5, 0.7, 0.9, 1.0] {
            for theta in 2..=4 {
                let config = MqceConfig::new(gamma, theta)
                    .unwrap()
                    .with_steal_granularity(1);
                let sequential = session_run(g, &config);
                let parallel = session_run_threads(g, &config, 4);
                assert_eq!(
                    parallel.mqcs, sequential.mqcs,
                    "graph {i}: parallel differs at gamma={gamma} theta={theta}"
                );
            }
        }
    }
}

#[test]
fn deadline_under_stealing_returns_sound_partial_result_quickly() {
    // A workload far too big for 40 ms: the run must stop near the deadline
    // (S2 gets its bounded grace slice) and still return only valid, pairwise
    // incomparable quasi-cliques.
    let g = planted_quasi_cliques(
        220,
        0.03,
        &[
            PlantedGroup {
                size: 30,
                density: 0.95,
            },
            PlantedGroup {
                size: 24,
                density: 0.95,
            },
        ],
        99,
    );
    let config = MqceConfig::new(0.8, 5)
        .unwrap()
        .with_steal_granularity(1)
        .with_time_limit(Duration::from_millis(40));
    let start = Instant::now();
    let result = session_run_threads(&g, &config, 4);
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "deadline was not honoured under stealing"
    );
    for mqc in &result.mqcs {
        assert!(mqc.len() >= 5);
        assert!(
            is_quasi_clique(&g, mqc, 0.8),
            "invalid QC in partial result"
        );
    }
    for (i, a) in result.mqcs.iter().enumerate() {
        for (j, b) in result.mqcs.iter().enumerate() {
            assert!(
                i == j || !is_sorted_subset(a, b),
                "partial result is not an antichain: {a:?} ⊆ {b:?}"
            );
        }
    }
}
