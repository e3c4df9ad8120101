//! Integration tests for the MQCE-S2 maximality-engine subsystem: backend
//! equivalence against the quadratic reference, incremental-vs-batch
//! equivalence, engine merging, and deadline-aware compaction soundness.

use std::time::{Duration, Instant};

use mqce::prelude::*;
use mqce::settrie::{filter_maximal, filter_maximal_naive, filter_maximal_with, S2Backend};
use proptest::prelude::*;

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

/// `a ⊆ b` for sorted slices (local reference helper).
fn is_subset(a: &[u32], b: &[u32]) -> bool {
    let mut j = 0;
    for &x in a {
        while j < b.len() && b[j] < x {
            j += 1;
        }
        if j >= b.len() || b[j] != x {
            return false;
        }
        j += 1;
    }
    true
}

/// A deterministic overlapping family: subsets of a small universe with
/// enough duplication and containment to exercise every engine path.
fn overlapping_family(n: usize, universe: u32, seed: u64) -> Vec<Vec<u32>> {
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u32
    };
    (0..n)
        .map(|_| {
            let len = (next() % 9) as usize;
            (0..len).map(|_| next() % universe).collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every backend produces exactly the quadratic reference result on
    /// arbitrary overlapping set families.
    #[test]
    fn all_backends_match_naive(sets in proptest::collection::vec(
        proptest::collection::vec(0u32..20, 0..8), 0..40)) {
        let expected = filter_maximal_naive(&sets);
        for backend in S2Backend::concrete() {
            prop_assert_eq!(
                filter_maximal_with(&sets, backend),
                expected.clone(),
                "backend {}", backend.name()
            );
        }
        prop_assert_eq!(filter_maximal_with(&sets, S2Backend::Auto), expected);
    }

    /// Feeding a family incrementally (in arbitrary chunkings, like the DC
    /// driver does per subproblem) gives the same result as one batch.
    #[test]
    fn incremental_equals_batch(sets in proptest::collection::vec(
        proptest::collection::vec(0u32..15, 0..7), 0..30), chunk in 1usize..7) {
        let batch = filter_maximal(&sets);
        for backend in S2Backend::concrete() {
            let mut engine = backend.new_engine();
            for piece in sets.chunks(chunk) {
                for set in piece {
                    engine.add(set);
                }
            }
            prop_assert_eq!(engine.finish().mqcs, batch.clone(), "backend {}", backend.name());
        }
    }

    /// Merging two engines (the parallel driver's drain-and-re-add) equals
    /// filtering the concatenated family.
    #[test]
    fn merged_engines_equal_batch(
        left in proptest::collection::vec(proptest::collection::vec(0u32..12, 0..6), 0..20),
        right in proptest::collection::vec(proptest::collection::vec(0u32..12, 0..6), 0..20),
    ) {
        let mut all = left.clone();
        all.extend(right.iter().cloned());
        let expected = filter_maximal(&all);
        for backend in S2Backend::concrete() {
            let mut a = backend.new_engine();
            let mut b = backend.new_engine();
            for s in &left { a.add(s); }
            for s in &right { b.add(s); }
            for s in b.drain() { a.add(&s); }
            prop_assert_eq!(a.finish().mqcs, expected.clone(), "backend {}", backend.name());
        }
    }
}

/// Deadline-aware S2: an already-expired deadline must cut the compaction
/// short (flagged as timed out) while still returning an antichain — every
/// returned set is maximal with respect to the returned collection.
#[test]
fn expired_deadline_yields_sound_antichain() {
    let family = overlapping_family(15_000, 60, 3);
    for backend in S2Backend::concrete() {
        let mut engine = backend.new_engine();
        for s in &family {
            engine.add(s);
        }
        let start = Instant::now();
        // An already-expired deadline makes the timeout deterministic: the
        // compaction's first stride poll fires regardless of machine speed.
        let out = engine.finish_with_deadline(Some(Instant::now()));
        // The compaction polls the deadline every few hundred sets, so it
        // must come back quickly rather than completing the full pass.
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{}: deadline ignored",
            backend.name()
        );
        assert!(out.timed_out, "{}: expected a timeout", backend.name());
        for (i, a) in out.mqcs.iter().enumerate() {
            for (j, b) in out.mqcs.iter().enumerate() {
                assert!(
                    i == j || !is_subset(a, b),
                    "{}: partial result is not an antichain: {a:?} ⊆ {b:?}",
                    backend.name()
                );
            }
        }
    }
}

/// The partial result under a mid-flight deadline is always a subset of the
/// true maximal family (no fabricated sets, no dominated leftovers). Since
/// the full-Bayardo–Panda rework this holds for *every* backend: the
/// extremal pass probes each processed set against the whole family, so its
/// deadline cut keeps only globally maximal sets too.
#[test]
fn partial_result_is_subset_of_true_maximal_family() {
    let family = overlapping_family(8_000, 40, 11);
    let full = filter_maximal(&family);
    for backend in S2Backend::concrete() {
        let mut engine = backend.new_engine();
        for s in &family {
            engine.add(s);
        }
        let out = engine.finish_with_deadline(Some(Instant::now() + Duration::from_millis(2)));
        for set in &out.mqcs {
            assert!(
                full.binary_search(set).is_ok(),
                "{}: partial result contains non-maximal set {set:?}",
                backend.name()
            );
        }
    }
}

/// The end-to-end pipeline respects its wall-clock budget even when S1 emits
/// a large stream: S2 gets at most a bounded grace interval past the limit.
#[test]
fn pipeline_budget_is_not_blown_by_s2() {
    use mqce::graph::generators::erdos_renyi_gnm;
    let g = erdos_renyi_gnm(250, 5500, 5);
    let limit = Duration::from_millis(200);
    for backend in [S2Backend::Auto, S2Backend::Inverted] {
        let config = MqceConfig::new(0.5, 3)
            .unwrap()
            .with_algorithm(Algorithm::QuickPlusRaw)
            .with_s2_backend(backend)
            .with_time_limit(limit);
        let start = Instant::now();
        let result = session_run(&g, &config);
        // The bound is deliberately loose (S1's per-branch deadline polling
        // has its own granularity) but far below an unbounded S2 pass.
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "{:?}: pipeline ran {:?} on a 200ms budget",
            backend,
            start.elapsed()
        );
        // Whatever came back is an antichain.
        for (i, a) in result.mqcs.iter().enumerate() {
            for (j, b) in result.mqcs.iter().enumerate() {
                assert!(i == j || !is_subset(a, b), "{backend:?}: not an antichain");
            }
        }
    }
}

/// Pipeline equivalence across S2 backends on a real enumeration, both
/// sequential and parallel (merged per-thread engines).
#[test]
fn pipeline_backends_agree_sequential_and_parallel() {
    use mqce::graph::generators::{community_graph, CommunityGraphParams};
    let g = community_graph(
        CommunityGraphParams {
            n: 90,
            num_communities: 6,
            p_intra: 0.9,
            inter_degree: 2.0,
        },
        77,
    );
    let reference = session_run(&g, &MqceConfig::new(0.85, 5).unwrap());
    assert!(!reference.mqcs.is_empty());
    for backend in [
        S2Backend::Auto,
        S2Backend::Inverted,
        S2Backend::Bitset,
        S2Backend::Extremal,
    ] {
        let config = MqceConfig::new(0.85, 5).unwrap().with_s2_backend(backend);
        let sequential = session_run(&g, &config);
        assert_eq!(sequential.mqcs, reference.mqcs, "{backend:?} sequential");
        assert_eq!(
            sequential.s2.sets_streamed, reference.s2.sets_streamed,
            "{backend:?}: streamed-set accounting changed"
        );
        let parallel = session_run_threads(&g, &config, 3);
        assert_eq!(parallel.mqcs, reference.mqcs, "{backend:?} parallel");
    }
}

/// The exact regime the ROADMAP flagged as degenerate for the
/// pre-Bayardo–Panda extremal variant: a small universe whose element
/// frequencies concentrate (skewed heavy overlap), with real domination in
/// the stream. The prefix-sharing pass must agree with the streaming
/// inverted reference — exactly, across several universe sizes and skews.
#[test]
fn extremal_matches_inverted_on_small_universe_heavy_overlap() {
    let mut x = 0x5EEDu64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u32
    };
    for &(n, universe, max_len) in &[
        (6_000usize, 24u32, 10u32),
        (4_000, 60, 14),
        (2_500, 140, 20),
    ] {
        let family: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let len = 4 + next() % (max_len - 3);
                (0..len)
                    // min-of-two skews toward low ids: the concentrated
                    // element distribution of a dense community core.
                    .map(|_| (next() % universe).min(next() % universe))
                    .collect()
            })
            .collect();
        let mut inverted = S2Backend::Inverted.new_engine();
        let mut extremal = S2Backend::Extremal.new_engine();
        for s in &family {
            inverted.add(s);
            extremal.add(s);
        }
        let reference = inverted.finish().mqcs;
        assert_eq!(
            extremal.finish().mqcs,
            reference,
            "extremal diverges on n={n} universe={universe}"
        );
        // The shape is meaningful: heavy domination, not everything maximal.
        assert!(
            reference.len() < n,
            "family at universe={universe} has no domination"
        );
    }
}

/// The auto engine commits to the bitset backend on the INF'd-S1 shape
/// (small universe, heavy overlap) and still returns the exact family.
#[test]
fn auto_resolves_stress_shape_to_bitset() {
    let mut x = 0xABCDu64;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as u32
    };
    let family: Vec<Vec<u32>> = (0..6000)
        .map(|_| (0..14).map(|_| next() % 120).collect())
        .collect();
    let mut engine = S2Backend::Auto.new_engine();
    for s in &family {
        engine.add(s);
    }
    assert_eq!(engine.name(), "bitset");
    let out = engine.finish();
    assert_eq!(out.backend, "bitset");
    assert_eq!(out.mqcs, filter_maximal(&family));
}
