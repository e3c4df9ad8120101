//! The batch workloads (dense-communities, sparse-planted): the library
//! surface in process, plus the sharded `mqce` binary on the same file.
//!
//! Timed ops, interleaved by [`Schedule`]: load + prepare, `Session::run` at
//! 1 and 2 threads, `mqce enumerate --shards 2`, and chunks of the seeded
//! query/topk/update mix on one long-lived `Session`.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mqce_core::{find_largest_mqcs, MqceConfig, MqceResult, PreparedGraph, Session, UpdateOutcome};
use mqce_graph::delta::GraphDelta;
use mqce_graph::VertexId;

use crate::layers::{self, result_ok};
use crate::trace::Tracer;
use crate::util::{mean, median, ms_since, peak_rss_mb, quantile, Digest, Report};
use crate::workload::{containing, largest, Kind, MixGen, MixOp, MIN_QUERIES, TOPK_K};
use crate::Schedule;

/// Updates whose dirty-subproblem counts form the exact fingerprint.
pub const FINGERPRINT_UPDATES: usize = 8;
/// Timed seconds of one mix chunk.
const MIX_CHUNK_S: f64 = 0.5;
/// Every how many queries one answer is checked against the family.
const QUERY_CHECK_EVERY: usize = 8;

const SETUP: usize = 0;
const RUN_1T: usize = 1;
const RUN_2T: usize = 2;
const SHARDED: usize = 3;
const MIX: usize = 4;

/// The query/topk/update stream's state across chunks.
struct Mix {
    session: Session,
    gen: MixGen,
    deltas: Vec<GraphDelta>,
    outcomes: Vec<UpdateOutcome>,
    query_ms: Vec<f64>,
    topk_ms: Vec<f64>,
    update_ms: Vec<f64>,
    query_branches: Vec<f64>,
    rounds: Vec<f64>,
    queried: Vec<VertexId>,
    checked: usize,
    secs: f64,
}

impl Mix {
    /// Opens the session and seeds its incremental state with one update
    /// pair, untimed (the first update pays a full run).
    fn new(
        prepared: Arc<PreparedGraph>,
        config: MqceConfig,
        seed: u64,
        report: &mut Report,
    ) -> Mix {
        let mut mix = Mix {
            gen: MixGen::new(seed, 0, 1, prepared.graph(), false),
            session: Session::open_prepared(prepared).config(config),
            deltas: Vec::new(),
            outcomes: Vec::new(),
            query_ms: Vec::new(),
            topk_ms: Vec::new(),
            update_ms: Vec::new(),
            query_branches: Vec::new(),
            rounds: Vec::new(),
            queried: Vec::new(),
            checked: 0,
            secs: 0.0,
        };
        for _ in 0..2 {
            let delta = mix.gen.next_update();
            mix.outcomes.push(mix.session.update(&delta));
            mix.deltas.push(delta);
            report.op(true);
        }
        mix
    }

    /// Runs ops for `MIX_CHUNK_S` timed seconds; returns `(secs, queries)`.
    fn chunk(&mut self, tr: &mut Tracer, op: u64, report: &mut Report) -> (f64, usize) {
        let config = *self.session.current_config();
        let (secs0, queries0) = (self.secs, self.query_ms.len());
        while self.secs - secs0 < MIX_CHUNK_S {
            let next = self.gen.next();
            let t = Instant::now();
            match next {
                MixOp::Query(v) => {
                    let res = tr.span("op.query", op, || self.session.query(&[v]));
                    let ms = ms_since(t);
                    self.secs += ms / 1e3;
                    self.query_ms.push(ms);
                    let res = match res {
                        Ok(res) => res,
                        Err(e) => {
                            report.op(false);
                            report.check("op.query", false, e.to_string());
                            continue;
                        }
                    };
                    report.op(!res.s2_timed_out);
                    self.query_branches.push(res.stats.branches as f64);
                    self.queried.push(v);
                    if self.query_ms.len() % QUERY_CHECK_EVERY == 1 {
                        let family = self.session.family().expect("seeded");
                        let got = Digest::of(&res.mqcs);
                        let expected = Digest::of(&containing(family, v));
                        self.checked += 1;
                        if got != expected {
                            report.check(
                                "query.vs_family",
                                false,
                                format!("v={v}: {got} != {expected}"),
                            );
                        }
                    }
                }
                MixOp::TopK => {
                    let g = self.session.prepared().graph();
                    let gamma = config.params.gamma;
                    let res = tr.span("op.topk", op, || {
                        find_largest_mqcs(g, gamma, TOPK_K, Some(config))
                    });
                    let ms = ms_since(t);
                    self.secs += ms / 1e3;
                    self.topk_ms.push(ms);
                    match res {
                        Ok(top) => {
                            report.op(true);
                            self.rounds.push(top.rounds as f64);
                            let family = self.session.family().expect("seeded");
                            if family.len() >= TOPK_K && top.mqcs != largest(family, TOPK_K) {
                                report.check("topk.vs_family", false, "top-k differs".into());
                            }
                        }
                        Err(e) => {
                            report.op(false);
                            report.check("op.topk", false, e.to_string());
                        }
                    }
                }
                MixOp::Update(delta) => {
                    let outcome = tr.span("op.update", op, || self.session.update(&delta));
                    let ms = ms_since(t);
                    self.secs += ms / 1e3;
                    self.update_ms.push(ms);
                    report.op(true);
                    self.outcomes.push(outcome);
                    self.deltas.push(delta);
                }
            }
        }
        (self.secs - secs0, self.query_ms.len() - queries0)
    }
}

pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    mqce: &Path,
    work: &Path,
    tr: &mut Tracer,
    report: &mut Report,
) {
    let config = kind.config();
    let shares = kind.shares();
    let file = kind.write_input(work);
    let sharded_out = work.join(format!("sharded-{}-{seed}.out", kind.name()));

    let mut sched = Schedule::new(
        seconds,
        &[
            (shares.setup, 3),
            (shares.run, 3),
            (shares.run, 3),
            (shares.sharded, 1),
            (shares.mix, MIN_QUERIES),
        ],
    );
    let (mut setup_s, mut load_ms, mut build_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut prepared: Option<Arc<PreparedGraph>> = None;
    let mut run_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut first: [Option<MqceResult>; 2] = [None, None];
    let mut reference: Option<Digest> = None;
    let mut sharded_s = Vec::new();
    let mut mix: Option<Mix> = None;
    while let Some(slot) = sched.next() {
        let op = sched.op();
        match (slot, &prepared) {
            (SETUP, _) | (_, None) => {
                // Parse the edge list and build the prepared graph.
                let span = tr.begin("op.setup", op);
                let t = Instant::now();
                let (p, l, b) = layers::load_and_prepare(&file, tr, op);
                let secs = t.elapsed().as_secs_f64();
                tr.end(span);
                sched.record(SETUP, secs, 1);
                setup_s.push(secs);
                load_ms.push(l);
                build_ms.push(b);
                prepared.get_or_insert(p);
                report.op(true);
            }
            (RUN_1T | RUN_2T, Some(p)) => {
                let threads = slot;
                let session = Session::open_prepared(p.clone())
                    .config(config)
                    .threads(threads);
                let name = if threads == 1 {
                    "op.run_1t"
                } else {
                    "op.run_2t"
                };
                let t = Instant::now();
                let res = tr.span(name, op, || session.run());
                let secs = t.elapsed().as_secs_f64();
                sched.record(slot, secs, 1);
                run_s[threads - 1].push(secs);
                let digest = Digest::of(&res.mqcs);
                let expected = *reference.get_or_insert(digest);
                report.op(result_ok(&res));
                if digest != expected {
                    report.check(
                        &format!("family.run_{threads}t"),
                        false,
                        format!("{digest} != {expected}"),
                    );
                }
                first[threads - 1].get_or_insert(res);
            }
            (SHARDED, _) => match tr.span("op.sharded", op, || {
                layers::sharded_cli(mqce, &file, &config, &sharded_out)
            }) {
                Ok((secs, digest)) => {
                    sched.record(SHARDED, secs, 1);
                    sharded_s.push(secs);
                    report.op(true);
                    let expected = *reference.get_or_insert(digest);
                    if digest != expected {
                        report.check("family.sharded", false, format!("{digest} != {expected}"));
                    }
                }
                Err(e) => {
                    // Book the failure so the schedule does not retry it.
                    sched.record(SHARDED, f64::INFINITY, 1);
                    report.op(false);
                    report.check("op.sharded", false, e);
                }
            },
            (_, Some(p)) => {
                let m = mix.get_or_insert_with(|| Mix::new(p.clone(), config, seed, report));
                let (secs, queries) = m.chunk(tr, op, report);
                sched.record(MIX, secs, queries);
            }
        }
    }
    let prepared = prepared.expect("set-up ran");
    let reference = reference.expect("a run ran");
    let [run1, run2] = first.map(|r| r.expect("both thread counts ran"));
    let mut mix = mix.expect("the mix ran");
    report.check("family.runs_and_sharded", true, reference.to_string());
    report.check(
        "query.vs_family",
        true,
        format!("{} sampled queries", mix.checked),
    );

    report.metric("setup_s", median(&setup_s), "s");
    report.metric("enumerate_s", median(&run_s[0]), "s");
    report.metric("enumerate_2t_s", median(&run_s[1]), "s");
    report.metric("sharded_s", median(&sharded_s), "s");
    report.metric("update_ms", median(&mix.update_ms), "ms");
    report.metric("query_p50_ms", median(&mix.query_ms), "ms");
    report.metric("query_p99_ms", quantile(&mix.query_ms, 0.99), "ms");
    report.metric("topk_p50_ms", median(&mix.topk_ms), "ms");
    let ops = mix.query_ms.len() + mix.topk_ms.len() + mix.update_ms.len();
    report.metric("mixed_ops_per_s", ops as f64 / mix.secs, "1/s");
    for (name, n) in [
        ("setup_s", setup_s.len()),
        ("enumerate_s", run_s[0].len()),
        ("enumerate_2t_s", run_s[1].len()),
        ("sharded_s", sharded_s.len()),
        ("update_ms", mix.update_ms.len()),
        ("query_ms", mix.query_ms.len()),
        ("topk_ms", mix.topk_ms.len()),
    ] {
        report.samples.push((name.into(), n));
    }
    fingerprint_run(report, &run1);
    fingerprint_updates(report, &mix.outcomes);

    // After the updates the maintained family must equal a fresh run.
    let fresh = Session::open(mix.session.prepared().graph().clone())
        .config(config)
        .run();
    let fresh_digest = Digest::of(&fresh.mqcs);
    let maintained = Digest::of(mix.session.family().expect("seeded"));
    report.check(
        "family.updated_vs_fresh",
        fresh_digest == maintained,
        format!("{maintained} vs {fresh_digest}"),
    );
    drop(fresh);
    report.metric("peak_rss_mb", peak_rss_mb(None), "MB");

    if tr.enabled() {
        let op = sched.op();
        layers::report_load_layers(report, &file, &load_ms, &build_ms);
        layers::report_core_layers(
            report,
            tr,
            op,
            &prepared,
            &config,
            [&run1, &run2],
            reference,
        );
        layers::report_incremental_layers(report, &mix.outcomes);
        let sample: Vec<_> = mix.queried.iter().copied().take(512).collect();
        let g = mix.session.prepared().graph();
        let (u_ms, u_size) = layers::universe_replay(g, &sample, tr, op);
        report.layer("query.universe_ms", u_ms, "ms");
        report.layer("query.universe_size_p50", u_size, "count");
        report.layer(
            "query.branches_p99",
            quantile(&mix.query_branches, 0.99),
            "count",
        );
        // No daemon in process: no queue and no cache.
        report.layer("serve.queue_wait_ms_p50", 0.0, "ms");
        report.layer("serve.cache_hit_ratio", 0.0, "ratio");
        report.layer("serve.cache_evictions", 0.0, "count");
        report.layer("topk.rounds", mean(&mix.rounds), "count");
        let wal = work.join(format!("replay-{}-{seed}.wal", kind.name()));
        let deltas = std::mem::take(&mut mix.deltas);
        report.layer(
            "wal.append_ms_p50",
            layers::wal_replay(&deltas, &wal, tr, op),
            "ms",
        );
    }
}

/// Exact counters of a timed 1-thread run.
pub fn fingerprint_run(report: &mut Report, res: &MqceResult) {
    report.fingerprint.extend([
        ("fastqc.branches".to_string(), res.stats.branches),
        ("fastqc.outputs".to_string(), res.stats.outputs),
        ("mqcs".to_string(), res.mqcs.len() as u64),
        ("dc.subproblems".to_string(), res.stats.dc_subproblems),
    ]);
}

/// Exact dirty-subproblem count of the stream's first updates.
pub fn fingerprint_updates(report: &mut Report, outcomes: &[UpdateOutcome]) {
    let first = &outcomes[..outcomes.len().min(FINGERPRINT_UPDATES)];
    report.fingerprint.push((
        format!("incremental.dirty_first{}", first.len()),
        first.iter().map(|o| o.dirty_subproblems).sum(),
    ));
}
