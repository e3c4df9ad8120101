//! Operations shared by the workloads: the `mqce enumerate --shards 2`
//! process run, and the per-layer probes of a traced run. Each probe times
//! calls into one layer's public functions from outside.

use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mqce_cli::protocol::Request;
use mqce_core::dc::{run_dc_streaming, DcConfig, InnerAlgorithm};
use mqce_core::query::query_universe;
use mqce_core::{
    merge_shard_families, plan_shards, run_shard, MqceConfig, MqceResult, PreparedGraph,
    SearchStats, UpdateOutcome,
};
use mqce_graph::delta::GraphDelta;
use mqce_graph::{Graph, GraphSlice, VertexId, WriteAheadLog};
use mqce_settrie::{MaximalityEngine, S2Outcome};

use crate::proc::Proc;
use crate::trace::Tracer;
use crate::util::{mean, median, ms_since, quantile, Digest, Report};

/// Longest a single `mqce` child process may run before it is killed.
pub const CHILD_TIMEOUT: Duration = Duration::from_secs(150);

/// Runs `mqce enumerate FILE --shards 2 --print-sets`; returns the process
/// wall time in seconds and the digest of the printed family.
pub fn sharded_cli(
    mqce: &Path,
    file: &Path,
    config: &MqceConfig,
    out_path: &Path,
) -> Result<(f64, Digest), String> {
    let out = std::fs::File::create(out_path).map_err(|e| e.to_string())?;
    let mut cmd = Command::new(mqce);
    cmd.arg("enumerate")
        .arg(file)
        .args(["--gamma", &config.params.gamma.to_string()])
        .args(["--theta", &config.params.theta.to_string()])
        .args(["--shards", "2", "--print-sets"])
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(Stdio::null());
    let start = Instant::now();
    let mut child = Proc::spawn(cmd).map_err(|e| format!("spawn mqce: {e}"))?;
    let status = child.wait_timeout(CHILD_TIMEOUT);
    let secs = start.elapsed().as_secs_f64();
    drop(child);
    match status {
        None => return Err(format!("timed out after {secs:.1}s")),
        Some(s) if !s.success() => return Err(format!("exit status {s}")),
        Some(_) => {}
    }
    let text = std::fs::read_to_string(out_path).map_err(|e| e.to_string())?;
    if text.contains("WARNING") {
        return Err("best-effort result".to_string());
    }
    let family: Vec<Vec<VertexId>> = text
        .lines()
        .filter_map(|line| {
            line.split_whitespace()
                .map(|t| t.parse::<VertexId>().ok())
                .collect::<Option<Vec<_>>>()
                .filter(|set| !set.is_empty())
        })
        .collect();
    Ok((secs, Digest::of(&family)))
}

/// Whether a pipeline result is complete and clean (no deadline, no
/// contained panic, no rejected output).
pub fn result_ok(res: &MqceResult) -> bool {
    !res.timed_out() && res.stats.subproblem_panics == 0 && res.stats.outputs_rejected == 0
}

/// Timing wrapper over a [`MaximalityEngine`]: counts and times `add`.
struct TimedEngine {
    inner: Box<dyn MaximalityEngine>,
    add_calls: u64,
    retained: u64,
    add_time: Duration,
}

impl MaximalityEngine for TimedEngine {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn add(&mut self, set: &[u32]) -> bool {
        let t = Instant::now();
        let kept = self.inner.add(set);
        self.add_time += t.elapsed();
        self.add_calls += 1;
        self.retained += kept as u64;
        kept
    }

    fn live_len(&self) -> usize {
        self.inner.live_len()
    }

    fn drain(&mut self) -> Vec<Vec<u32>> {
        self.inner.drain()
    }

    fn finish_with_deadline(self: Box<Self>, deadline: Option<Instant>) -> S2Outcome {
        self.inner.finish_with_deadline(deadline)
    }
}

/// Records the load and prepare layers from the set-up's timings.
pub fn report_load_layers(report: &mut Report, file: &Path, load_ms: &[f64], build_ms: &[f64]) {
    let file_mb = std::fs::metadata(file).map(|m| m.len()).unwrap_or(0) as f64 / 1e6;
    report.layer("graph.load_ms", median(load_ms), "ms");
    report.layer(
        "graph.load_mb_per_s",
        file_mb / (median(load_ms) / 1e3),
        "MB/s",
    );
    report.layer("prepared.build_ms", median(build_ms), "ms");
}

/// Replays the DC driver and the shard pipeline on `prepared` and records
/// their layers with the counters of the timed runs (`runs`: 1 and 2
/// threads). Both replayed families must equal `reference`.
pub fn report_core_layers(
    report: &mut Report,
    tr: &mut Tracer,
    op: u64,
    prepared: &PreparedGraph,
    config: &MqceConfig,
    runs: [&MqceResult; 2],
    reference: Digest,
) {
    let replay = dc_replay(prepared.graph(), config, tr, op);
    report.check(
        "family.replay",
        replay.digest == reference,
        format!("{} vs {reference}", replay.digest),
    );
    report_search_layers(report, &runs[0].stats, &replay);
    report_scheduler_layers(report, runs[1]);
    let sharded = shard_layers(prepared, config, report, tr, op);
    report.check(
        "family.shard_layers",
        sharded == reference,
        format!("{sharded} vs {reference}"),
    );
}

/// What the sequential DC replay measured.
struct Replay {
    digest: Digest,
    stats: SearchStats,
    /// Wall time of `run_dc_streaming` (S1 with inline S2 `add`).
    window_ms: f64,
    add_ms: f64,
    add_calls: u64,
    retained: u64,
    finish_ms: f64,
}

/// Replays S1 + S2 through the public `dc::run_dc_streaming` with a timed
/// engine, splitting the S1 window into search and S2 `add` time.
fn dc_replay(g: &Graph, config: &MqceConfig, tr: &mut Tracer, op: u64) -> Replay {
    let inner = InnerAlgorithm::FastQc(config.branching);
    let dc = DcConfig::paper_default().with_max_round(config.max_round);
    let mut engine = TimedEngine {
        inner: config.s2_backend.new_engine_with_model(config.s2_model),
        add_calls: 0,
        retained: 0,
        add_time: Duration::ZERO,
    };
    let t = Instant::now();
    let outcome = tr.span("dc.run_dc_streaming", op, || {
        run_dc_streaming(g, config.params, inner, dc, None, Some(&mut engine))
    });
    let window_ms = ms_since(t);
    let (add_ms, add_calls, retained) = (
        engine.add_time.as_secs_f64() * 1e3,
        engine.add_calls,
        engine.retained,
    );
    let t = Instant::now();
    let s2 = tr.span("settrie.finish", op, || Box::new(engine).finish());
    let finish_ms = ms_since(t);
    Replay {
        digest: Digest::of(&s2.mqcs),
        stats: outcome.stats,
        window_ms,
        add_ms,
        add_calls,
        retained,
        finish_ms,
    }
}

/// Records the dc / fastqc / settrie layer metrics of a replay plus the
/// fastqc counters of the timed 1-thread run.
fn report_search_layers(report: &mut Report, timed: &SearchStats, replay: &Replay) {
    let s1_ms = (replay.window_ms - replay.add_ms).max(1e-6);
    let st = &replay.stats;
    report.layer("dc.subproblems", timed.dc_subproblems as f64, "count");
    report.layer(
        "dc.keep_ratio",
        timed.dc_vertices_after_pruning as f64 / timed.dc_vertices_before_pruning.max(1) as f64,
        "ratio",
    );
    report.layer("dc.s1_ms", s1_ms, "ms");
    report.layer(
        "dc.us_per_subproblem",
        s1_ms * 1e3 / st.dc_subproblems.max(1) as f64,
        "us",
    );
    report.layer("fastqc.branches", timed.branches as f64, "count");
    report.layer("fastqc.outputs", timed.outputs as f64, "count");
    report.layer(
        "fastqc.outputs_per_branch",
        timed.outputs as f64 / timed.branches.max(1) as f64,
        "ratio",
    );
    report.layer(
        "fastqc.pruned_by_condition",
        timed.pruned_by_condition as f64,
        "count",
    );
    report.layer(
        "fastqc.t1_terminations",
        timed.t1_terminations as f64,
        "count",
    );
    report.layer("fastqc.branches_per_ms", st.branches as f64 / s1_ms, "1/ms");
    report.layer("settrie.add_calls", replay.add_calls as f64, "count");
    report.layer("settrie.add_ms", replay.add_ms, "ms");
    report.layer(
        "settrie.retained_ratio",
        replay.retained as f64 / replay.add_calls.max(1) as f64,
        "ratio",
    );
    report.layer("settrie.finish_ms", replay.finish_ms, "ms");
    report
        .counters
        .push(("replay.branches".to_string(), st.branches));
}

/// Records the scheduler metrics of a 2-thread run.
fn report_scheduler_layers(report: &mut Report, res: &MqceResult) {
    let ts = &res.thread_stats;
    let busy_min = ts
        .iter()
        .map(|t| t.busy_fraction())
        .fold(f64::INFINITY, f64::min);
    report.layer(
        "scheduler.busy_frac_min",
        if ts.is_empty() { 1.0 } else { busy_min },
        "ratio",
    );
    report.layer(
        "scheduler.idle_ms",
        ts.iter().map(|t| t.idle_millis).sum(),
        "ms",
    );
    report.layer(
        "scheduler.steals",
        ts.iter().map(|t| t.steals).sum::<u64>() as f64,
        "count",
    );
    report.layer(
        "scheduler.splits_executed",
        ts.iter().map(|t| t.splits).sum::<u64>() as f64,
        "count",
    );
}

/// Replays the shard pipeline in process — `plan_shards`, slice
/// `encode`/`decode`, `run_shard` per shard, `merge_shard_families` —
/// timing each layer call. Returns the merged family's digest.
fn shard_layers(
    prepared: &PreparedGraph,
    config: &MqceConfig,
    report: &mut Report,
    tr: &mut Tracer,
    op: u64,
) -> Digest {
    let t = Instant::now();
    let plan = tr
        .span("shard.plan_shards", op, || plan_shards(prepared, config, 2))
        .expect("DCFastQC has a DC decomposition");
    let plan_ms = ms_since(t);
    let (mut bytes, mut encode_ms, mut decode_ms) = (0usize, 0.0, 0.0);
    let mut largest: Option<Request> = None;
    let mut run_ms = Vec::new();
    let mut branches = Vec::new();
    let mut families = Vec::new();
    for spec in &plan.shards {
        let t = Instant::now();
        let text = tr.span("shard.encode", op, || spec.slice.encode());
        encode_ms += ms_since(t);
        bytes += text.len();
        let t = Instant::now();
        let slice = tr
            .span("shard.decode", op, || GraphSlice::decode(&text))
            .expect("encoded slices decode");
        decode_ms += ms_since(t);
        // The coordinator ships the slice to its worker as one `shard_run`
        // protocol line; the workers run in parallel, so the largest line
        // is the one on the critical path.
        if largest
            .as_ref()
            .is_none_or(|r: &Request| r.slice.as_ref().map_or(0, String::len) < text.len())
        {
            largest = Some(Request {
                cmd: "shard_run".to_string(),
                gamma: config.params.gamma,
                theta: config.params.theta,
                slice: Some(text),
                anchors: spec.anchors.clone(),
                ranks: spec.rank.clone(),
                shard_id: spec.index,
                ..Request::default()
            });
        }
        let t = Instant::now();
        let family = tr.span("shard.run_shard", op, || {
            run_shard(&slice, &spec.anchors, &spec.rank, config, 1)
        });
        run_ms.push(ms_since(t));
        branches.push(family.stats.branches as f64);
        families.push(family.mqcs);
    }
    let req = largest.expect("at least one shard");
    let t = Instant::now();
    let line = tr.span("protocol.request_to_line", op, || req.to_line());
    let line_ms = ms_since(t);
    let t = Instant::now();
    let parsed = tr.span("protocol.request_parse", op, || Request::parse_line(&line));
    let parse_ms = ms_since(t);
    if let Err(e) = parsed {
        report.check("protocol.shard_run", false, e);
    }
    let t = Instant::now();
    let merged = tr.span("shard.merge", op, || {
        merge_shard_families(&plan, families, config)
    });
    let merge_ms = ms_since(t);
    let max_of = |v: &[f64]| v.iter().copied().fold(0.0, f64::max);
    report.layer("shard.plan_ms", plan_ms, "ms");
    report.layer("shard.slice_bytes", bytes as f64, "bytes");
    report.layer("shard.encode_ms", encode_ms, "ms");
    report.layer("shard.decode_ms", decode_ms, "ms");
    report.layer("shard.run_max_ms", max_of(&run_ms), "ms");
    report.layer("shard.imbalance", max_of(&run_ms) / mean(&run_ms), "ratio");
    report.layer(
        "shard.branch_imbalance",
        max_of(&branches) / mean(&branches).max(1e-9),
        "ratio",
    );
    report.layer("shard.merge_ms", merge_ms, "ms");
    report.layer("shard.request_line_ms", line_ms, "ms");
    report.layer("shard.request_parse_ms", parse_ms, "ms");
    Digest::of(&merged.mqcs)
}

/// Per-update means of the incremental layer's counters.
pub fn report_incremental_layers(report: &mut Report, outcomes: &[UpdateOutcome]) {
    let per = |f: &dyn Fn(&UpdateOutcome) -> f64| mean(&outcomes.iter().map(f).collect::<Vec<_>>());
    report.layer(
        "incremental.dirty_per_edge",
        per(&|o| o.dirty_subproblems as f64 / o.updates_applied.max(1) as f64),
        "count",
    );
    report.layer("incremental.retired", per(&|o| o.retired as f64), "count");
    report.layer(
        "incremental.core_changed",
        per(&|o| o.core_changed as f64),
        "count",
    );
}

/// Appends the delta stream to a fresh WAL file, timing each append
/// (checksum plus fsync). Returns the median append time in ms.
pub fn wal_replay(deltas: &[GraphDelta], path: &Path, tr: &mut Tracer, op: u64) -> f64 {
    let _ = std::fs::remove_file(path);
    let (mut wal, _) = WriteAheadLog::open(path).expect("open the replay WAL");
    let mut times = Vec::with_capacity(deltas.len());
    for delta in deltas {
        let t = Instant::now();
        tr.span("wal.append", op, || wal.append(delta))
            .expect("WAL append");
        times.push(ms_since(t));
    }
    drop(wal);
    let _ = std::fs::remove_file(path);
    median(&times)
}

/// Times `query_universe` for each vertex; returns `(median ms, p50 size)`.
pub fn universe_replay(g: &Graph, vertices: &[VertexId], tr: &mut Tracer, op: u64) -> (f64, f64) {
    let mut times = Vec::with_capacity(vertices.len());
    let mut sizes = Vec::with_capacity(vertices.len());
    for &v in vertices {
        let t = Instant::now();
        let u = tr.span("query.universe", op, || query_universe(g, &[v]));
        times.push(ms_since(t));
        sizes.push(u.len() as f64);
    }
    (median(&times), quantile(&sizes, 0.5))
}

/// Loads the edge list and prepares it, timing both layers.
pub fn load_and_prepare(file: &Path, tr: &mut Tracer, op: u64) -> (Arc<PreparedGraph>, f64, f64) {
    let t = Instant::now();
    let loaded = tr
        .span("graph.load_edge_list", op, || {
            mqce_graph::edge_list::load_edge_list(file)
        })
        .expect("the workload graph loads");
    let load_ms = ms_since(t);
    let t = Instant::now();
    let prepared = tr.span("prepared.new", op, || PreparedGraph::new(loaded.graph));
    let build_ms = ms_since(t);
    (Arc::new(prepared), load_ms, build_ms)
}
