//! The serve-mixed workload: `mqce serve` on the dense-communities file,
//! driven by one client process over two connections in a closed loop.
//!
//! The client keeps an in-process mirror `Session` on which it replays the
//! same update stream; at checkpoints between loop segments (both
//! connections idle) the daemon's `query` and `topk` answers are compared
//! with the mirror's maximal family.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use mqce_cli::protocol::{Request, Response};
use mqce_core::{MqceConfig, Session};
use mqce_graph::delta::GraphDelta;
use mqce_graph::VertexId;

use crate::batch::{fingerprint_run, fingerprint_updates, FINGERPRINT_UPDATES};
use crate::layers::{self, result_ok};
use crate::proc::Proc;
use crate::trace::Tracer;
use crate::util::{mean, median, ms_since, peak_rss_mb, quantile, Digest, Report, Rng};
use crate::workload::{containing, largest, Kind, MixGen, MixOp, MIN_QUERIES, TOPK_K};
use crate::Schedule;

/// Connections (client threads) of the closed loop.
const LANES: usize = 2;
/// Wall seconds of one loop segment; a checkpoint follows each.
const SEGMENT_S: f64 = 1.0;

const RUN_1T: usize = 0;
const RUN_2T: usize = 1;
const SHARDED: usize = 2;
const MIX: usize = 3;
/// Daemon start-ups measured for `setup_s`.
const SETUP_REPS: usize = 21;

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(port: u16) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(layers::CHILD_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        let mut line = req.to_line();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => Response::parse_line(reply.trim_end()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// A running daemon: the process (its group is killed on drop) and its
/// stdout, drained at shutdown.
struct Daemon {
    proc: Proc,
    stdout: BufReader<ChildStdout>,
    port: u16,
}

impl Daemon {
    fn spawn(mqce: &Path, file: &Path, wal: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(wal);
        let mut cmd = Command::new(mqce);
        cmd.arg("serve")
            .arg(file)
            .args(["--addr", "127.0.0.1:0", "--wal"])
            .arg(wal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut proc = Proc::spawn(cmd).map_err(|e| format!("spawn mqce serve: {e}"))?;
        let mut stdout = BufReader::new(proc.child_mut().stdout.take().expect("piped"));
        let mut line = String::new();
        stdout
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        // "listening        127.0.0.1:PORT (N vertices, M edges)"
        let port = line
            .split_whitespace()
            .nth(1)
            .and_then(|addr| addr.rsplit(':').next())
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?;
        Ok(Daemon { proc, stdout, port })
    }

    /// Connects and waits for the first `ping` answer.
    fn ping(&self) -> Result<Conn, String> {
        let start = Instant::now();
        loop {
            if let Ok(mut conn) = Conn::connect(self.port) {
                let ping = Request {
                    cmd: "ping".into(),
                    ..Request::default()
                };
                if conn.call(&ping).map(|r| r.ok).unwrap_or(false) {
                    return Ok(conn);
                }
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("daemon never answered ping".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn shutdown(mut self, mut conn: Conn) -> bool {
        let bye = Request {
            cmd: "shutdown".into(),
            ..Request::default()
        };
        let acked = conn.call(&bye).map(|r| r.ok).unwrap_or(false);
        drop(conn);
        let mut rest = String::new();
        let _ = std::io::Read::read_to_string(&mut self.stdout, &mut rest);
        acked && self.proc.wait_timeout(Duration::from_secs(15)).is_some()
    }
}

fn request(cmd: &str, config: &MqceConfig) -> Request {
    Request {
        cmd: cmd.into(),
        gamma: config.params.gamma,
        theta: config.params.theta,
        k: TOPK_K,
        sets: true,
        ..Request::default()
    }
}

fn mix_request(op: &MixOp, config: &MqceConfig) -> Request {
    match op {
        MixOp::Query(v) => Request {
            vertices: vec![*v],
            ..request("query", config)
        },
        MixOp::TopK => request("topk", config),
        MixOp::Update(delta) => Request {
            insert: delta.inserts().to_vec(),
            delete: delta.deletes().to_vec(),
            ..request("update", config)
        },
    }
}

/// Whether a response is a complete, successful answer.
fn answered(res: &Result<Response, String>) -> bool {
    matches!(res, Ok(r) if r.ok && !r.best_effort && !r.s2_timed_out)
}

/// One connection's state across loop segments.
struct Lane {
    conn: Conn,
    gen: MixGen,
    tracer: Tracer,
    lane: usize,
    ops: u64,
    /// `(client ms, daemon elapsed_ms)` per query.
    query: Vec<(f64, f64)>,
    topk: Vec<f64>,
    rounds: Vec<f64>,
    update: Vec<f64>,
    queried: Vec<VertexId>,
    /// Updates the daemon acknowledged this segment, in order.
    deltas: Vec<GraphDelta>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Lane {
    fn new(conn: Conn, gen: MixGen, tr: &Tracer, lane: usize) -> Lane {
        Lane {
            conn,
            gen,
            tracer: Tracer::new(tr.enabled(), tr.epoch()),
            lane,
            ops: 0,
            query: Vec::new(),
            topk: Vec::new(),
            rounds: Vec::new(),
            update: Vec::new(),
            queried: Vec::new(),
            deltas: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    fn run_segment(&mut self, config: &MqceConfig, until: Instant) -> f64 {
        let start = Instant::now();
        while Instant::now() < until {
            let op = self.gen.next();
            let req = mix_request(&op, config);
            self.ops += 1;
            let op_id = ((self.lane as u64 + 1) << 40) | self.ops;
            let t = Instant::now();
            let span = self.tracer.begin(
                match op {
                    MixOp::Query(_) => "op.query",
                    MixOp::TopK => "op.topk",
                    MixOp::Update(_) => "op.update",
                },
                op_id,
            );
            let res = self.conn.call(&req);
            self.tracer.end(span);
            let ms = ms_since(t);
            self.attempted += 1;
            if !answered(&res) {
                self.failed += 1;
                self.errors.push(match &res {
                    Ok(r) => format!("{}: {:?}", req.cmd, r.error),
                    Err(e) => format!("{}: {e}", req.cmd),
                });
                if res.is_err() {
                    break;
                }
                continue;
            }
            let res = res.expect("answered");
            match op {
                MixOp::Query(v) => {
                    self.query.push((ms, res.elapsed_ms));
                    self.queried.push(v);
                }
                MixOp::TopK => {
                    self.topk.push(ms);
                    self.rounds
                        .push(res.extra_num("rounds").unwrap_or(f64::NAN));
                }
                MixOp::Update(delta) => {
                    self.update.push(ms);
                    self.deltas.push(delta);
                }
            }
        }
        start.elapsed().as_secs_f64()
    }
}

pub fn run(
    seed: u64,
    seconds: f64,
    mqce: &Path,
    work: &Path,
    tr: &mut Tracer,
    report: &mut Report,
) {
    let kind = Kind::ServeMixed;
    let config = kind.config();
    let shares = kind.shares();
    let file = kind.write_input(work);
    let sharded_out = work.join(format!("sharded-serve-{seed}.out"));
    let base = mqce_graph::edge_list::load_edge_list(&file)
        .expect("the workload graph loads")
        .graph;

    // The mirror: the family of the generated graph, then a fixed probe of
    // single-edge update pairs (which also seeds its incremental state).
    let mut mirror = Session::open(base.clone()).config(config);
    let initial = mirror.run();
    let reference = Digest::of(&initial.mqcs);
    fingerprint_run(report, &initial);
    drop(initial);
    let mut probe = MixGen::new(seed ^ 0x7072_6f62, 0, 1, &base, false);
    let probe_outcomes: Vec<_> = (0..FINGERPRINT_UPDATES)
        .map(|_| mirror.update(&probe.next_update()))
        .collect();
    fingerprint_updates(report, &probe_outcomes);

    // Set-up: daemon start until the first ping answers; the last one stays.
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for i in 0..SETUP_REPS {
        let span = tr.begin("op.daemon_start", i as u64);
        let t = Instant::now();
        let wal = work.join(format!("serve-{seed}-{i}.wal"));
        let started = Daemon::spawn(mqce, &file, &wal).and_then(|d| d.ping().map(|conn| (d, conn)));
        let secs = t.elapsed().as_secs_f64();
        tr.end(span);
        report.op(started.is_ok());
        match started {
            Ok(started) => {
                setup_s.push(secs);
                if let Some((old, old_conn)) = daemon.replace(started) {
                    report.op(Daemon::shutdown(old, old_conn));
                }
            }
            Err(e) => {
                report.check("op.daemon_start", false, e);
                return;
            }
        }
    }
    let (daemon, mut conn) = daemon.expect("a daemon started");

    let mut lanes: Vec<Lane> = Vec::new();
    for lane in 0..LANES {
        match Conn::connect(daemon.port) {
            Ok(conn) => lanes.push(Lane::new(
                conn,
                MixGen::new(seed, lane, LANES, &base, true),
                tr,
                lane,
            )),
            Err(e) => {
                report.check("op.connect", false, e.to_string());
                return;
            }
        }
    }

    let mut sched = Schedule::new(
        seconds,
        &[
            (shares.run, 3),
            (shares.run, 3),
            (shares.sharded, 1),
            (shares.mix, MIN_QUERIES),
        ],
    );
    let mut run_s: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut sharded_s = Vec::new();
    let mut all_deltas: Vec<GraphDelta> = Vec::new();
    let (mut mix_s, mut segments) = (0.0, 0usize);
    let mut check_rng = Rng::new(seed ^ 0x6368_6b70);
    while let Some(slot) = sched.next() {
        let op = sched.op();
        match slot {
            RUN_1T | RUN_2T => {
                // Whole-family enumeration through the daemon.
                let req = Request {
                    threads: slot + 1,
                    no_cache: true,
                    ..request("enumerate", &config)
                };
                let t = Instant::now();
                let res = tr.span("op.enumerate", op, || conn.call(&req));
                let secs = t.elapsed().as_secs_f64();
                sched.record(slot, secs, 1);
                run_s[slot].push(secs);
                report.op(answered(&res));
                // Earlier segments may have left half an update pair applied:
                // the daemon's graph is the mirror's, not the generated one.
                let expected = Digest::of(mirror.family().expect("seeded"));
                let got = res.map(|r| Digest::of(r.mqcs.as_deref().unwrap_or(&[])));
                if got != Ok(expected) {
                    report.check(
                        "family.serve_enumerate",
                        false,
                        format!("{got:?} != {expected}"),
                    );
                }
            }
            SHARDED => match tr.span("op.sharded", op, || {
                layers::sharded_cli(mqce, &file, &config, &sharded_out)
            }) {
                Ok((secs, digest)) => {
                    sched.record(SHARDED, secs, 1);
                    sharded_s.push(secs);
                    report.op(true);
                    if digest != reference {
                        report.check("family.sharded", false, format!("{digest} != {reference}"));
                    }
                }
                Err(e) => {
                    sched.record(SHARDED, f64::INFINITY, 1);
                    report.op(false);
                    report.check("op.sharded", false, e);
                }
            },
            _ => {
                // One loop segment on every connection, then a checkpoint.
                let until = Instant::now() + Duration::from_secs_f64(SEGMENT_S);
                let queries0: usize = lanes.iter().map(|l| l.query.len()).sum();
                let span = tr.begin("op.mix_segment", op);
                let secs: Vec<f64> = std::thread::scope(|s| {
                    let handles: Vec<_> = lanes
                        .iter_mut()
                        .map(|lane| s.spawn(|| lane.run_segment(&config, until)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or(0.0))
                        .collect()
                });
                tr.end(span);
                let queries: usize = lanes.iter().map(|l| l.query.len()).sum::<usize>() - queries0;
                sched.record(MIX, mean(&secs), queries);
                mix_s += mean(&secs);
                segments += 1;
                let acked: Vec<GraphDelta> =
                    lanes.iter_mut().flat_map(|l| l.deltas.drain(..)).collect();
                checkpoint(
                    &mut mirror,
                    &acked,
                    &mut conn,
                    &config,
                    &mut check_rng,
                    report,
                );
                all_deltas.extend(acked);
            }
        }
    }
    report.check("query.vs_mirror", true, format!("{segments} checkpoints"));

    let mut q = Vec::new();
    let (mut topk, mut rounds, mut upd, mut queried) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for lane in lanes {
        report.attempted += lane.attempted;
        report.failed += lane.failed;
        for e in lane.errors.iter().take(3) {
            report.check("op.mix", false, e.clone());
        }
        q.extend(lane.query);
        topk.extend(lane.topk);
        rounds.extend(lane.rounds);
        upd.extend(lane.update);
        queried.extend(lane.queried);
        tr.absorb(lane.tracer);
    }
    let q_ms: Vec<f64> = q.iter().map(|p| p.0).collect();
    let ops = q.len() + topk.len() + upd.len();
    report.metric("setup_s", median(&setup_s), "s");
    report.metric("enumerate_s", median(&run_s[0]), "s");
    report.metric("enumerate_2t_s", median(&run_s[1]), "s");
    report.metric("sharded_s", median(&sharded_s), "s");
    report.metric("update_ms", median(&upd), "ms");
    report.metric("query_p50_ms", median(&q_ms), "ms");
    report.metric("query_p99_ms", quantile(&q_ms, 0.99), "ms");
    report.metric("topk_p50_ms", median(&topk), "ms");
    report.metric("mixed_ops_per_s", ops as f64 / mix_s, "1/s");
    for (name, n) in [
        ("setup_s", setup_s.len()),
        ("enumerate_s", run_s[0].len()),
        ("enumerate_2t_s", run_s[1].len()),
        ("sharded_s", sharded_s.len()),
        ("update_ms", upd.len()),
        ("query_ms", q.len()),
        ("topk_ms", topk.len()),
    ] {
        report.samples.push((name.into(), n));
    }

    // End state: daemon family == fresh in-process run == maintained mirror.
    let res = conn.call(&Request {
        no_cache: true,
        ..request("enumerate", &config)
    });
    report.op(answered(&res));
    let served = res
        .ok()
        .map(|r| Digest::of(r.mqcs.as_deref().unwrap_or(&[])));
    let fresh = Session::open(mirror.prepared().graph().clone())
        .config(config)
        .run();
    let fresh_digest = Digest::of(&fresh.mqcs);
    report.op(result_ok(&fresh));
    drop(fresh);
    let maintained = Digest::of(mirror.family().expect("seeded"));
    report.check(
        "family.served_vs_fresh",
        served == Some(fresh_digest) && maintained == fresh_digest,
        format!("served {served:?}, mirror {maintained}, fresh {fresh_digest}"),
    );
    let stats = conn.call(&Request {
        cmd: "ping".into(),
        ..Request::default()
    });
    report.metric("peak_rss_mb", peak_rss_mb(Some(daemon.proc.id())), "MB");
    let stat = |name: &str| {
        stats
            .as_ref()
            .ok()
            .and_then(|r| r.extra_num(name))
            .unwrap_or(f64::NAN)
    };
    let (hits, misses, evictions) = (
        stat("cache_hits"),
        stat("cache_misses"),
        stat("cache_evictions"),
    );
    let clean = daemon.shutdown(conn);
    report.op(clean);
    if !clean {
        report.check(
            "op.daemon_shutdown",
            false,
            "daemon did not exit cleanly".into(),
        );
    }

    if tr.enabled() {
        let op = sched.op();
        let (mut load_ms, mut build_ms) = (Vec::new(), Vec::new());
        let mut prepared = None;
        for _ in 0..3 {
            let (p, l, b) = layers::load_and_prepare(&file, tr, op);
            load_ms.push(l);
            build_ms.push(b);
            prepared = Some(p);
        }
        let prepared = prepared.expect("prepared");
        layers::report_load_layers(report, &file, &load_ms, &build_ms);
        let session = Session::open_prepared(prepared.clone()).config(config);
        let run1 = tr.span("op.run_1t", op, || session.run());
        let run2 = tr.span("op.run_2t", op, || session.threads(2).run());
        layers::report_core_layers(
            report,
            tr,
            op,
            &prepared,
            &config,
            [&run1, &run2],
            reference,
        );
        layers::report_incremental_layers(report, &probe_outcomes);
        // The query layer, replayed in process on the mirror graph.
        let sample: Vec<VertexId> = queried.iter().copied().take(512).collect();
        let (u_ms, u_size) = layers::universe_replay(mirror.prepared().graph(), &sample, tr, op);
        let branches: Vec<f64> = sample
            .iter()
            .take(256)
            .filter_map(|&v| mirror.query(&[v]).ok())
            .map(|r| r.stats.branches as f64)
            .collect();
        report.layer("query.universe_ms", u_ms, "ms");
        report.layer("query.universe_size_p50", u_size, "count");
        report.layer("query.branches_p99", quantile(&branches, 0.99), "count");
        let waits: Vec<f64> = q.iter().map(|(client, server)| client - server).collect();
        report.layer("serve.queue_wait_ms_p50", median(&waits), "ms");
        report.layer("serve.cache_hit_ratio", hits / (hits + misses), "ratio");
        report.layer("serve.cache_evictions", evictions, "count");
        report.layer("topk.rounds", mean(&rounds), "count");
        let wal = work.join(format!("replay-serve-{seed}.wal"));
        report.layer(
            "wal.append_ms_p50",
            layers::wal_replay(&all_deltas, &wal, tr, op),
            "ms",
        );
    }
}

/// Applies the updates the daemon acknowledged during a segment to the
/// mirror as one net delta (the lanes touch disjoint edges, so only each
/// edge's last update matters), then compares the daemon's `query` answers
/// for two vertices and its `topk` answer with the mirror's family.
fn checkpoint(
    mirror: &mut Session,
    acked: &[GraphDelta],
    conn: &mut Conn,
    config: &MqceConfig,
    rng: &mut Rng,
    report: &mut Report,
) {
    let mut last: BTreeMap<(VertexId, VertexId), bool> = BTreeMap::new();
    for delta in acked {
        for &e in delta.inserts() {
            last.insert(e, true);
        }
        for &e in delta.deletes() {
            last.insert(e, false);
        }
    }
    let g = mirror.prepared().graph();
    let (mut ins, mut del) = (Vec::new(), Vec::new());
    for ((u, v), insert) in last {
        if insert && !g.has_edge(u, v) {
            ins.push((u, v));
        } else if !insert && g.has_edge(u, v) {
            del.push((u, v));
        }
    }
    if !ins.is_empty() || !del.is_empty() {
        mirror.update(&GraphDelta::new(ins, del));
    }
    let family = mirror.family().expect("seeded");
    let n = mirror.prepared().graph().num_vertices();
    for v in [rng.below(n), rng.below(n)] {
        let v = v as VertexId;
        let res = conn.call(&Request {
            vertices: vec![v],
            no_cache: true,
            ..request("query", config)
        });
        report.op(answered(&res));
        let got = res
            .ok()
            .map(|r| Digest::of(r.mqcs.as_deref().unwrap_or(&[])));
        let expected = Digest::of(&containing(family, v));
        if got != Some(expected) {
            report.check(
                "query.vs_mirror",
                false,
                format!("v={v}: {got:?} != {expected}"),
            );
        }
    }
    let res = conn.call(&Request {
        no_cache: true,
        ..request("topk", config)
    });
    report.op(answered(&res));
    if family.len() >= TOPK_K
        && res.ok().and_then(|r| r.mqcs).as_deref() != Some(&largest(family, TOPK_K)[..])
    {
        report.check("topk.vs_mirror", false, "top-k differs".into());
    }
}
