//! The one DC executor: work stealing over a set of anchors.
//!
//! Every divide-and-conquer run goes through [`execute`]: a `Session`
//! enumeration at any thread count, an incremental update's dirty re-run, a
//! shard's rank range, and the `dc::run_dc_*` entry points. With one thread
//! the single worker runs on the calling thread, seeded in plan order — the
//! sequential loop of Algorithm 3 — and pays for no cost estimates, no split
//! sink and no spawned thread. With more, it is a classic work-stealing
//! design à la Chase–Lev, adapted to the vendored-only constraints (no
//! `crossbeam`): per-worker deques with a `Mutex`-backed queue behind a
//! lock-free atomic-length fast path, plus **cooperative intra-subproblem
//! splitting** so even a single giant subproblem parallelises:
//!
//! * **Seeding** — subproblems enter the deques in descending estimated
//!   cost, using the two-hop-pruned candidate-set size `|Γ²(v_i) ∩
//!   later-ranked|` from the DC plan as the estimate, so heavy subproblems
//!   start as early as possible (longest-job-first keeps the makespan tail
//!   short).
//! * **Stealing** — a worker pops from the front of its own deque (heaviest
//!   seed first) and steals from the back of a victim's.
//! * **Splitting** — busy searchers poll the scheduler's hungry-worker
//!   count at shallow branching frames (see
//!   [`SearchCtx`](crate::branch::SearchCtx)); when a worker is hungry, the
//!   searcher packages its untaken sibling branches as self-contained
//!   [`SplitTask`]s — a shared subgraph handle plus the branch's partial
//!   set and candidate list (exclusions are implicit: a vertex in neither
//!   is excluded) — and pushes them onto its own deque for thieves to take.
//!   Split tasks run in a fresh search context and can themselves split
//!   further, so one dense community keeps every worker fed.
//!
//! Splitting is *output-sound*: a stolen branch reproduces exactly the
//! outputs the donor's recursion would have produced from the same
//! `(S, C, D)` state, and the only divergence from the sequential run is
//! that the donor no longer learns whether a donated branch found a
//! quasi-clique, so the non-hereditary "additional step" may emit a few
//! extra *valid* (but dominated) quasi-cliques. The streaming MQCE-S2
//! engine drops those on arrival or at compaction, so the final maximal
//! family is identical to the sequential run's.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mqce_graph::bitset::AdjacencyMatrix;
use mqce_graph::{Graph, InducedSubgraph, VertexId};
use mqce_settrie::{MaximalityEngine, SetArena};

use crate::branch::{SearchOutcome, SearchScratch};
use crate::config::MqceParams;
use crate::dc::{build_subproblem_in, DcConfig, DcPlan, DcScratch, InnerAlgorithm};
use crate::fastqc::run_fastqc_in;
use crate::quickplus::run_quickplus_in;
use crate::stats::{SearchStats, ThreadStats};

/// Idle spins (yields) before the hungry wait loop starts sleeping.
const IDLE_SPINS_BEFORE_SLEEP: u32 = 64;

/// Sleep interval of the hungry wait loop once spinning gave up.
const IDLE_SLEEP: Duration = Duration::from_micros(50);

/// One untaken branch of a running search, expressed in the subproblem's
/// local vertex ids. The exclusion set is implicit: any vertex of the
/// subgraph in neither `s_init` nor `cand` is excluded, which is exactly the
/// `(S, C, D)` convention of [`SearchCtx`](crate::branch::SearchCtx), so the
/// request rebuilds the donor's branch state verbatim.
pub(crate) struct SplitRequest {
    /// The branch's partial set `S`.
    pub s_init: Vec<VertexId>,
    /// The branch's candidate set `C`.
    pub cand: Vec<VertexId>,
}

/// The donation hook a searcher polls while branching. Implemented by the
/// scheduler's per-subproblem sink; the searcher only sees this trait so
/// one-worker runs pay nothing.
pub(crate) trait SplitSink {
    /// Whether a hungry worker exists and `rest` untaken sibling branches
    /// are enough to be worth packaging (the `--steal-granularity` knob).
    fn want_split(&self, rest: usize) -> bool;

    /// Donates untaken branches of the current subproblem; they become
    /// stealable [`SplitTask`]s.
    fn donate(&self, branches: Vec<SplitRequest>);
}

/// The shared, immutable context of one DC subproblem: the induced subgraph
/// (local ids `0..n`), its optional bitset kernel, and the composed
/// local → original-graph id map. Split tasks hold this behind an [`Arc`] so
/// a stolen branch is self-contained wherever it runs.
pub(crate) struct SubShared {
    /// The pruned subproblem graph over local ids.
    pub graph: Graph,
    /// Optional packed adjacency kernel over the local ids.
    pub kernel: Option<AdjacencyMatrix>,
    /// `to_orig[local]` = vertex id in the *original* input graph
    /// (subgraph-local → reduced-graph → original, pre-composed).
    pub to_orig: Vec<VertexId>,
}

/// A stolen slice of one subproblem's search tree, run to completion by
/// whichever worker takes it.
pub(crate) struct SplitTask {
    /// Shared subproblem context.
    pub shared: Arc<SubShared>,
    /// Partial set of the donated branch (local ids).
    pub s_init: Vec<VertexId>,
    /// Candidate set of the donated branch (local ids).
    pub cand: Vec<VertexId>,
}

/// A unit of schedulable work.
enum Task {
    /// A whole per-vertex subproblem (index into the executed anchors).
    Root(usize),
    /// A donated slice of a running subproblem's search tree.
    Split(SplitTask),
}

/// One worker's deque: the split tasks donated onto its front, then the
/// root subproblems dealt to it (indices into the executed anchors, stored
/// heaviest-first). The owner pops from the front and thieves steal from the
/// back. Roots are kept apart as bare `u32` indices because a run deals out
/// one per anchor — tens of thousands on sparse graphs — and a full [`Task`]
/// per root would cost a large allocation for nothing. Both ends go through
/// the mutex, but the atomic length lets every reader skip empty deques
/// without touching the lock — the fast path that matters when most deques
/// are drained and workers scan for leftovers.
struct WorkerDeque {
    queue: Mutex<DequeParts>,
    len: AtomicUsize,
}

/// The two halves of a [`WorkerDeque`], front to back.
struct DequeParts {
    splits: VecDeque<SplitTask>,
    roots: VecDeque<u32>,
}

impl DequeParts {
    fn len(&self) -> usize {
        self.splits.len() + self.roots.len()
    }
}

impl WorkerDeque {
    fn new(roots: VecDeque<u32>) -> Self {
        WorkerDeque {
            len: AtomicUsize::new(roots.len()),
            queue: Mutex::new(DequeParts {
                splits: VecDeque::new(),
                roots,
            }),
        }
    }

    fn push_front(&self, split: SplitTask) {
        let mut q = self.queue.lock().expect("deque poisoned");
        q.splits.push_front(split);
        self.len.store(q.len(), Ordering::Release);
    }

    fn pop_front(&self) -> Option<Task> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.queue.lock().expect("deque poisoned");
        let task = match q.splits.pop_front() {
            Some(split) => Some(Task::Split(split)),
            None => q.roots.pop_front().map(|i| Task::Root(i as usize)),
        };
        self.len.store(q.len(), Ordering::Release);
        task
    }

    fn pop_back(&self) -> Option<Task> {
        if self.len.load(Ordering::Acquire) == 0 {
            return None;
        }
        let mut q = self.queue.lock().expect("deque poisoned");
        let task = match q.roots.pop_back() {
            Some(i) => Some(Task::Root(i as usize)),
            None => q.splits.pop_back().map(Task::Split),
        };
        self.len.store(q.len(), Ordering::Release);
        task
    }
}

/// The shared scheduler state of one execution.
struct Scheduler {
    deques: Vec<WorkerDeque>,
    /// Tasks pushed but not yet finished. Workers may exit when this hits 0;
    /// it is incremented *before* a donated task becomes visible so the
    /// count never under-reports.
    outstanding: AtomicUsize,
    /// Tasks currently sitting in deques (outstanding minus running). Kept
    /// so donation is demand-bounded: once the queues already hold enough
    /// work to feed every hungry worker, searchers stop donating instead of
    /// shredding their trees into far more tasks than there are thieves.
    queued: AtomicUsize,
    /// Number of workers currently failing to find work. Searchers poll this
    /// (through [`SplitSink::want_split`]) to decide when to donate.
    hungry: AtomicUsize,
    /// Minimum donatable-branch count before a split happens; 0 disables
    /// intra-subproblem splitting.
    granularity: usize,
}

impl Scheduler {
    /// A scheduler whose deques hold the root tasks `seeds` (indices into
    /// the executed anchors), dealt round-robin: each deque stays in `seeds`
    /// order, so with one worker the run follows `seeds` exactly.
    fn new(
        num_threads: usize,
        granularity: usize,
        seeds: impl ExactSizeIterator<Item = u32>,
    ) -> Self {
        let total = seeds.len();
        let mut roots: Vec<VecDeque<u32>> = (0..num_threads)
            .map(|_| VecDeque::with_capacity(total.div_ceil(num_threads)))
            .collect();
        for (k, idx) in seeds.enumerate() {
            roots[k % num_threads].push_back(idx);
        }
        Scheduler {
            deques: roots.into_iter().map(WorkerDeque::new).collect(),
            outstanding: AtomicUsize::new(total),
            queued: AtomicUsize::new(total),
            hungry: AtomicUsize::new(0),
            granularity,
        }
    }

    /// Pops the worker's own deque, falling back to stealing from the other
    /// workers (scanning from the next worker around the ring). Returns the
    /// task and whether it was stolen.
    fn find_task(&self, worker: usize) -> Option<(Task, bool)> {
        if let Some(task) = self.deques[worker].pop_front() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some((task, false));
        }
        let n = self.deques.len();
        for k in 1..n {
            if let Some(task) = self.deques[(worker + k) % n].pop_back() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some((task, true));
            }
        }
        None
    }

    fn donate(&self, worker: usize, shared: &Arc<SubShared>, branches: Vec<SplitRequest>) {
        self.outstanding.fetch_add(branches.len(), Ordering::SeqCst);
        self.queued.fetch_add(branches.len(), Ordering::SeqCst);
        for req in branches {
            self.deques[worker].push_front(SplitTask {
                shared: Arc::clone(shared),
                s_init: req.s_init,
                cand: req.cand,
            });
        }
    }

    fn work_remains(&self) -> bool {
        self.outstanding.load(Ordering::SeqCst) > 0
    }
}

/// The per-subproblem [`SplitSink`] a worker hands to its searcher.
struct SubSink<'a> {
    sched: &'a Scheduler,
    shared: Arc<SubShared>,
    worker: usize,
}

impl SplitSink for SubSink<'_> {
    fn want_split(&self, rest: usize) -> bool {
        if self.sched.granularity == 0 || rest < self.sched.granularity {
            return false;
        }
        // Donate only while demand outstrips the queued supply: hungry
        // workers scan every deque, so any queued task satisfies one of
        // them, and donating beyond that just shreds the donor's tree into
        // more context-rebuild overhead than there are thieves.
        let hungry = self.sched.hungry.load(Ordering::Relaxed);
        hungry > 0 && self.sched.queued.load(Ordering::Relaxed) < hungry
    }

    fn donate(&self, branches: Vec<SplitRequest>) {
        self.sched.donate(self.worker, &self.shared, branches);
    }
}

/// One anchor's cost estimate: the size of the two-hop-pruned candidate set
/// `|Γ²(v_i) ∩ later-ranked|` (what `build_subproblem` will materialise).
/// `tag` must be unique per call within one `stamp` array's lifetime so the
/// pass allocates nothing per vertex.
fn two_hop_estimate(plan: &DcPlan, stamp: &mut [u32], tag: u32, vi: VertexId) -> usize {
    let rg = &plan.reduced.graph;
    let my_rank = plan.rank[vi as usize];
    stamp[vi as usize] = tag;
    let mut count = 1usize;
    for &u in rg.neighbors(vi) {
        if stamp[u as usize] != tag {
            stamp[u as usize] = tag;
            if plan.rank[u as usize] >= my_rank {
                count += 1;
            }
        }
    }
    for &u in rg.neighbors(vi) {
        for &w in rg.neighbors(u) {
            if stamp[w as usize] != tag {
                stamp[w as usize] = tag;
                if plan.rank[w as usize] >= my_rank {
                    count += 1;
                }
            }
        }
    }
    count
}

/// Per-anchor cost estimates of `anchors` (the differential reference for
/// the parallel pass). The shard planner reuses it to cost-balance its
/// contiguous rank ranges.
pub(crate) fn subproblem_estimates(plan: &DcPlan, anchors: &[VertexId]) -> Vec<usize> {
    let mut stamp: Vec<u32> = vec![u32::MAX; plan.reduced.graph.num_vertices()];
    anchors
        .iter()
        .enumerate()
        .map(|(i, &vi)| two_hop_estimate(plan, &mut stamp, i as u32, vi))
        .collect()
}

/// Parallel variant of [`subproblem_estimates`]: the anchors are split into
/// one contiguous chunk per worker and each chunk runs on its own scoped
/// thread, reusing the epoch-stamped array of that worker's [`DcScratch`]
/// (the same array the subproblem builds will use). On very large graphs
/// this pass used to be a single-threaded serial section before the workers
/// even started.
///
/// Returns the estimates plus each worker's wall-clock milliseconds, which
/// the caller folds into the matching worker's [`ThreadStats`] busy time so
/// the per-thread accounting covers the whole parallel region.
fn subproblem_estimates_parallel(
    plan: &DcPlan,
    anchors: &[VertexId],
    num_threads: usize,
    scratches: &mut [DcScratch],
) -> (Vec<usize>, Vec<f64>) {
    let n = anchors.len();
    if num_threads <= 1 || n < 2 {
        let start = Instant::now();
        let estimates = subproblem_estimates(plan, anchors);
        return (estimates, vec![start.elapsed().as_secs_f64() * 1e3]);
    }
    let chunk_len = n.div_ceil(num_threads);
    let num_vertices = plan.reduced.graph.num_vertices();
    let results: Vec<(usize, Vec<usize>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = anchors
            .chunks(chunk_len)
            .enumerate()
            .zip(scratches.iter_mut())
            .map(|((k, chunk), scratch)| {
                let offset = k * chunk_len;
                scope.spawn(move || {
                    let start = Instant::now();
                    let estimates: Vec<usize> = chunk
                        .iter()
                        .map(|&vi| {
                            let (stamp, tag) = scratch.sub.stamp_epoch(num_vertices);
                            two_hop_estimate(plan, stamp, tag, vi)
                        })
                        .collect();
                    (offset, estimates, start.elapsed().as_secs_f64() * 1e3)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("estimate thread panicked"))
            .collect()
    });
    let mut estimates = vec![0usize; n];
    let mut millis = vec![0.0f64; num_threads];
    for (worker, (offset, chunk_estimates, elapsed)) in results.into_iter().enumerate() {
        estimates[offset..offset + chunk_estimates.len()].copy_from_slice(&chunk_estimates);
        millis[worker] = elapsed;
    }
    (estimates, millis)
}

/// What every worker of one execution reads: the plan, the anchors being
/// run, the search configuration and the deadline.
#[derive(Clone, Copy)]
struct Job<'a> {
    plan: &'a DcPlan,
    anchors: &'a [VertexId],
    params: MqceParams,
    inner: InnerAlgorithm,
    dc: DcConfig,
    deadline: Option<Instant>,
}

/// Runs the DC subproblems of `anchors` (plan-local ids, in plan order) on
/// `threads` workers and returns the merged S1 outcome. `engines` is either
/// empty (no streaming S2) or holds one maximality engine per worker: each
/// worker streams the outputs of everything it runs — whole subproblems and
/// stolen split tasks alike — into its own engine, and the caller merges the
/// engines afterwards.
///
/// With one thread the worker runs on the calling thread, seeded in plan
/// order, without the cost-estimate pass (it only balances load across
/// workers) and without a split sink: the same work in the same order as
/// the sequential loop of Algorithm 3, and no [`ThreadStats`]. With more,
/// the deques are seeded in descending estimated cost and per-thread
/// counters are reported.
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute<'e>(
    plan: &DcPlan,
    anchors: &[VertexId],
    params: MqceParams,
    inner: InnerAlgorithm,
    dc: DcConfig,
    threads: usize,
    deadline: Option<Instant>,
    engines: Vec<&mut (dyn MaximalityEngine + 'e)>,
) -> SearchOutcome {
    let threads = threads.max(1);
    assert!(
        engines.is_empty() || engines.len() == threads,
        "execute takes no engine or one engine per worker"
    );
    if anchors.is_empty() {
        return SearchOutcome::default();
    }
    let job = Job {
        plan,
        anchors,
        params,
        inner,
        dc,
        deadline,
    };
    let mut engines = engines.into_iter();
    if threads == 1 {
        let sched = Scheduler::new(1, params.steal_granularity, 0..anchors.len() as u32);
        let worker = Worker::new(&sched, 0, job, DcScratch::default(), engines.next());
        let (raw, stats, _) = worker.run();
        return SearchOutcome {
            outputs: raw.into_vecs(),
            stats,
            thread_stats: Vec::new(),
        };
    }

    // One reusable scratch per worker, threaded through the whole run: the
    // estimate pass below shares its stamp array, then each worker owns one
    // scratch for every subproblem and stolen split task it executes.
    let mut scratches: Vec<DcScratch> = (0..threads).map(|_| DcScratch::default()).collect();
    // The cost-estimate pass parallelises over the same worker count; its
    // per-chunk wall-clock is folded into the matching worker's busy time
    // below so ThreadStats covers the whole parallel region.
    let (estimates, estimate_millis) =
        subproblem_estimates_parallel(plan, anchors, threads, &mut scratches);
    let mut seeds: Vec<u32> = (0..anchors.len() as u32).collect();
    // Descending estimated cost; ties broken by anchor position so the
    // seeding is deterministic.
    seeds.sort_by(|&a, &b| {
        estimates[b as usize]
            .cmp(&estimates[a as usize])
            .then(a.cmp(&b))
    });
    let sched = Scheduler::new(threads, params.steal_granularity, seeds.into_iter());

    let sched_ref = &sched;
    let results: Vec<(SetArena, SearchStats, ThreadStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = scratches
            .into_iter()
            .enumerate()
            .map(|(id, scratch)| {
                let engine = engines.next();
                scope.spawn(move || Worker::new(sched_ref, id, job, scratch, engine).run())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    });

    let mut outcome = SearchOutcome::default();
    for (worker, (raw, stats, mut thread_stats)) in results.into_iter().enumerate() {
        thread_stats.busy_millis += estimate_millis.get(worker).copied().unwrap_or(0.0);
        outcome.stats.merge(&stats);
        outcome.outputs.extend(raw.into_vecs());
        outcome.thread_stats.push(thread_stats);
    }
    outcome
}

/// One worker of an execution: its scratch, its engine, and everything it
/// accumulates. Mapped outputs are packed into a flat arena and boxed only
/// once, when the run ends.
struct Worker<'a, 'e> {
    sched: &'a Scheduler,
    id: usize,
    job: Job<'a>,
    scratch: DcScratch,
    engine: Option<&'a mut (dyn MaximalityEngine + 'e)>,
    raw: SetArena,
    stats: SearchStats,
    thread_stats: ThreadStats,
}

impl<'a, 'e> Worker<'a, 'e> {
    fn new(
        sched: &'a Scheduler,
        id: usize,
        job: Job<'a>,
        scratch: DcScratch,
        engine: Option<&'a mut (dyn MaximalityEngine + 'e)>,
    ) -> Self {
        Worker {
            sched,
            id,
            job,
            scratch,
            engine,
            raw: SetArena::new(),
            stats: SearchStats::default(),
            thread_stats: ThreadStats {
                thread: id,
                ..Default::default()
            },
        }
    }

    /// Runs tasks until no work remains (or the deadline passes) and returns
    /// the worker's outputs and counters. Whatever wall-clock the worker did
    /// not spend hungry it spent executing tasks, so busy time is read off
    /// once at the end rather than timed per task.
    fn run(mut self) -> (SetArena, SearchStats, ThreadStats) {
        let sched = self.sched;
        let deadline = self.job.deadline;
        let start = Instant::now();
        loop {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                if sched.work_remains() {
                    self.stats.timed_out = true;
                }
                break;
            }
            match sched.find_task(self.id) {
                Some((task, stolen)) => {
                    if stolen {
                        self.thread_stats.steals += 1;
                        self.stats.tasks_stolen += 1;
                    }
                    self.run_task(task);
                    sched.outstanding.fetch_sub(1, Ordering::SeqCst);
                }
                None => {
                    if !sched.work_remains() {
                        break;
                    }
                    // Hungry: advertise it (searchers poll this to donate) and
                    // wait for work to appear or the run to end.
                    let hungry_since = Instant::now();
                    sched.hungry.fetch_add(1, Ordering::SeqCst);
                    let mut spins = 0u32;
                    loop {
                        if !sched.work_remains()
                            || sched
                                .deques
                                .iter()
                                .any(|d| d.len.load(Ordering::Acquire) > 0)
                            || deadline.is_some_and(|d| Instant::now() >= d)
                        {
                            break;
                        }
                        spins += 1;
                        if spins < IDLE_SPINS_BEFORE_SLEEP {
                            std::thread::yield_now();
                        } else {
                            std::thread::sleep(IDLE_SLEEP);
                        }
                    }
                    sched.hungry.fetch_sub(1, Ordering::SeqCst);
                    self.thread_stats.idle_millis += hungry_since.elapsed().as_secs_f64() * 1e3;
                }
            }
        }
        self.thread_stats.busy_millis =
            (start.elapsed().as_secs_f64() * 1e3 - self.thread_stats.idle_millis).max(0.0);
        (self.raw, self.stats, self.thread_stats)
    }

    fn run_task(&mut self, task: Task) {
        match task {
            Task::Root(idx) => {
                let Job {
                    plan,
                    anchors,
                    params,
                    dc,
                    ..
                } = self.job;
                let vi = anchors[idx];
                self.thread_stats.subproblems += 1;
                let Some((sub, local_vi)) =
                    build_subproblem_in(plan, vi, params, dc, &mut self.stats, &mut self.scratch)
                else {
                    return;
                };
                // Pre-compose local → original in place (both id maps are
                // sorted ascending, so the composition stays sorted) so split
                // tasks never need the plan.
                let InducedSubgraph {
                    graph,
                    to_global,
                    adjacency,
                } = sub;
                let mut to_orig = to_global;
                for r in to_orig.iter_mut() {
                    *r = plan.reduced.to_global[*r as usize];
                }
                let shared = Arc::new(SubShared {
                    graph,
                    kernel: adjacency,
                    to_orig,
                });
                // The pruned candidate list lives in the scratch; move it out
                // for the search (no copy) and put it back afterwards.
                let cand = std::mem::take(&mut self.scratch.cand);
                self.execute_branch(&shared, &[local_vi], &cand);
                self.scratch.cand = cand;
                // If no outstanding split task still holds the subproblem,
                // take its buffers back so the next build reuses them.
                if let Ok(sh) = Arc::try_unwrap(shared) {
                    self.scratch.sub.recycle_graph(sh.graph, sh.to_orig);
                }
            }
            Task::Split(split) => {
                self.thread_stats.splits += 1;
                self.stats.split_executed += 1;
                self.execute_branch(&split.shared, &split.s_init, &split.cand);
            }
        }
    }

    /// Runs the configured searcher on one branch of a subproblem (the whole
    /// subproblem when `s_init = [v_i]`) with the worker's reusable search
    /// scratch, maps the outputs to original-graph ids into the worker's
    /// flat arena, and streams them into the worker's engine.
    fn execute_branch(&mut self, shared: &Arc<SubShared>, s_init: &[VertexId], cand: &[VertexId]) {
        let Job {
            params,
            inner,
            deadline,
            ..
        } = self.job;
        // A lone worker has nobody to donate to: it runs without a sink.
        let sink = (self.sched.deques.len() > 1).then(|| SubSink {
            sched: self.sched,
            shared: Arc::clone(shared),
            worker: self.id,
        });
        let splitter = sink.as_ref().map(|s| s as &dyn SplitSink);
        let kernel = shared.kernel.as_ref();
        let search = &mut self.scratch.search;
        // Containment boundary: a panicking branch fails alone instead of
        // tearing down the whole enumeration — the serve daemon answers many
        // requests from one process and must outlive any single bad
        // subproblem. `AssertUnwindSafe` is sound because on panic everything
        // the closure mutated is discarded or already consistent: the search
        // scratch is replaced wholesale below, the worker arena and engine
        // are untouched until the searcher returns, and any branches donated
        // through the sink before the panic are self-contained tasks already
        // counted in `outstanding` (they run independently of this branch's
        // fate). `run` still decrements `outstanding` after this returns, so
        // containment never hangs the barrier.
        let anchor = s_init.first().map(|&l| shared.to_orig[l as usize]);
        let searched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(a) = anchor {
                if params.fail_anchor == Some(a) {
                    panic!("injected fault: searcher panic at anchor {a}");
                }
            }
            match inner {
                InnerAlgorithm::FastQc(branching) => run_fastqc_in(
                    &shared.graph,
                    kernel,
                    s_init,
                    cand,
                    params,
                    branching,
                    deadline,
                    splitter,
                    search,
                ),
                InnerAlgorithm::QuickPlus => run_quickplus_in(
                    &shared.graph,
                    kernel,
                    s_init,
                    cand,
                    params,
                    deadline,
                    splitter,
                    search,
                ),
            }
        }));
        let stats = match searched {
            Ok(stats) => stats,
            Err(_) => {
                self.stats.subproblem_panics += 1;
                self.stats.last_panicked_anchor = anchor;
                *search = SearchScratch::default();
                return;
            }
        };
        self.stats.merge(&stats);
        for i in 0..search.sets.len() {
            self.raw.begin();
            for &l in search.sets.get(i) {
                self.raw.push_elem(shared.to_orig[l as usize]);
            }
            let set = self.raw.commit_sorted();
            if let Some(engine) = self.engine.as_deref_mut() {
                engine.add(set);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BranchingStrategy, MqceParams};
    use crate::fastqc::run_fastqc_split;
    use crate::naive;
    use crate::quickplus::run_quickplus_split;
    use mqce_graph::core_decomp::core_decomposition;
    use mqce_settrie::filter_maximal;
    use std::cell::{Cell, RefCell};

    fn plan_for(g: &Graph, params: MqceParams, dc: DcConfig) -> DcPlan {
        DcPlan::from_cores(g, &core_decomposition(g), params, dc)
    }

    /// A sink that accepts every offered split: the searcher donates its
    /// untaken branches at the first opportunity of every shallow frame, so
    /// the test exercises the branch-packaging arithmetic of all branching
    /// strategies deterministically (no scheduling races involved).
    struct GreedySink {
        queue: RefCell<Vec<SplitRequest>>,
        donations: Cell<usize>,
    }

    impl GreedySink {
        fn new() -> Self {
            GreedySink {
                queue: RefCell::new(Vec::new()),
                donations: Cell::new(0),
            }
        }
    }

    impl SplitSink for GreedySink {
        fn want_split(&self, _rest: usize) -> bool {
            true
        }

        fn donate(&self, branches: Vec<SplitRequest>) {
            self.donations.set(self.donations.get() + branches.len());
            self.queue.borrow_mut().extend(branches);
        }
    }

    /// Runs a whole-graph search under greedy splitting and then drains the
    /// donated-task queue to completion (tasks may re-donate), returning the
    /// union of all outputs.
    fn run_with_greedy_splits(
        g: &Graph,
        params: MqceParams,
        branching: Option<BranchingStrategy>,
    ) -> (Vec<Vec<VertexId>>, usize) {
        let sink = GreedySink::new();
        let all: Vec<VertexId> = g.vertices().collect();
        let mut outputs = match branching {
            Some(b) => run_fastqc_split(g, None, &[], &all, params, b, None, &sink).outputs,
            None => run_quickplus_split(g, None, &[], &all, params, None, &sink).outputs,
        };
        loop {
            let task = sink.queue.borrow_mut().pop();
            let Some(task) = task else { break };
            let outcome = match branching {
                Some(b) => {
                    run_fastqc_split(g, None, &task.s_init, &task.cand, params, b, None, &sink)
                }
                None => run_quickplus_split(g, None, &task.s_init, &task.cand, params, None, &sink),
            };
            outputs.extend(outcome.outputs);
        }
        (outputs, sink.donations.get())
    }

    #[test]
    fn greedy_splitting_preserves_the_maximal_family() {
        let graphs = vec![
            Graph::paper_figure1(),
            Graph::complete(7),
            mqce_graph::generators::erdos_renyi_gnm(14, 50, 11),
        ];
        let strategies = [
            Some(BranchingStrategy::HybridSe),
            Some(BranchingStrategy::SymSe),
            Some(BranchingStrategy::Se),
            None, // Quick+
        ];
        let mut donations_by_strategy = [0usize; 4];
        for g in &graphs {
            for &gamma in &[0.5, 0.6, 0.9] {
                for theta in 2..=3 {
                    let params = MqceParams::new(gamma, theta).unwrap();
                    let expected = naive::all_maximal_quasi_cliques(g, params);
                    for (k, &branching) in strategies.iter().enumerate() {
                        let (outputs, donations) = run_with_greedy_splits(g, params, branching);
                        assert_eq!(
                            filter_maximal(&outputs),
                            expected,
                            "greedy splitting broke {branching:?} at gamma={gamma} theta={theta} \
                             on {} vertices",
                            g.num_vertices()
                        );
                        donations_by_strategy[k] += donations;
                    }
                }
            }
        }
        // Some (graph, γ, θ) combinations terminate without ever branching,
        // but over the whole grid every strategy must have donated work.
        for (k, &branching) in strategies.iter().enumerate() {
            assert!(
                donations_by_strategy[k] > 0,
                "{branching:?} never donated despite an always-hungry sink"
            );
        }
    }

    /// [`run_with_greedy_splits`] with one [`SearchScratch`] reused across
    /// the root search and every drained split task — exactly the lifetime a
    /// scheduler worker gives its scratch — instead of a fresh scratch per
    /// call. Returns the union of all outputs.
    fn run_with_greedy_splits_reused_scratch(
        g: &Graph,
        params: MqceParams,
        branching: Option<BranchingStrategy>,
    ) -> (Vec<Vec<VertexId>>, usize) {
        let sink = GreedySink::new();
        let all: Vec<VertexId> = g.vertices().collect();
        let mut scratch = SearchScratch::default();
        let mut outputs: Vec<Vec<VertexId>> = Vec::new();
        let run = |s_init: &[VertexId], cand: &[VertexId], scratch: &mut SearchScratch| {
            match branching {
                Some(b) => {
                    run_fastqc_in(g, None, s_init, cand, params, b, None, Some(&sink), scratch);
                }
                None => {
                    run_quickplus_in(g, None, s_init, cand, params, None, Some(&sink), scratch);
                }
            }
            scratch.sets.to_vecs()
        };
        outputs.extend(run(&[], &all, &mut scratch));
        loop {
            let task = sink.queue.borrow_mut().pop();
            let Some(task) = task else { break };
            outputs.extend(run(&task.s_init, &task.cand, &mut scratch));
        }
        (outputs, sink.donations.get())
    }

    #[test]
    fn forced_splits_with_reused_scratch_match_fresh_scratch() {
        // Differential half of the greedy-split test: under identical forced
        // splitting, a worker-lifetime scratch (reused across the root run
        // and every donated task) must reproduce the fresh-scratch raw
        // stream exactly. A buffer leaking state across a split boundary
        // would desynchronise the two runs.
        let g = mqce_graph::generators::erdos_renyi_gnm(14, 50, 11);
        let mut total_donations = 0usize;
        for &gamma in &[0.5, 0.6, 0.9] {
            for theta in 2..=3 {
                let params = MqceParams::new(gamma, theta).unwrap();
                for branching in [
                    Some(BranchingStrategy::HybridSe),
                    Some(BranchingStrategy::Se),
                    None,
                ] {
                    let (fresh, _) = run_with_greedy_splits(&g, params, branching);
                    let (reused, donations) =
                        run_with_greedy_splits_reused_scratch(&g, params, branching);
                    assert_eq!(
                        reused, fresh,
                        "reused scratch diverged for {branching:?} gamma={gamma} theta={theta}"
                    );
                    total_donations += donations;
                }
            }
        }
        // The differential is only meaningful if splits actually happened.
        assert!(total_donations > 0, "the greedy sink never forced a split");
    }

    #[test]
    fn parallel_estimates_match_sequential() {
        for (n, m, seed) in [(40usize, 160usize, 3u64), (120, 900, 8), (7, 10, 1)] {
            let g = mqce_graph::generators::erdos_renyi_gnm(n, m, seed);
            let params = MqceParams::new(0.9, 3).unwrap();
            let plan = plan_for(&g, params, DcConfig::paper_default());
            let sequential = subproblem_estimates(&plan, &plan.ordering);
            for threads in [1usize, 2, 3, 8, 64] {
                let mut scratches: Vec<DcScratch> =
                    (0..threads).map(|_| DcScratch::default()).collect();
                let (parallel, millis) =
                    subproblem_estimates_parallel(&plan, &plan.ordering, threads, &mut scratches);
                assert_eq!(parallel, sequential, "threads={threads} n={n}");
                // One timing slot per worker (a single slot when the
                // sequential path was taken), all finite and non-negative.
                assert!(millis.len() <= threads.max(1));
                assert!(millis.iter().all(|ms| ms.is_finite() && *ms >= 0.0));
            }
        }
    }

    #[test]
    fn estimates_match_subproblem_sizes() {
        let g = mqce_graph::generators::erdos_renyi_gnm(40, 160, 3);
        let params = MqceParams::new(0.9, 3).unwrap();
        let dc = DcConfig::paper_default();
        let plan = plan_for(&g, params, dc);
        let estimates = subproblem_estimates(&plan, &plan.ordering);
        let mut scratch = DcScratch::default();
        for (i, &vi) in plan.ordering.iter().enumerate() {
            let mut stats = SearchStats::default();
            let before = stats.dc_vertices_before_pruning;
            let _ = crate::dc::build_subproblem_in(&plan, vi, params, dc, &mut stats, &mut scratch);
            assert_eq!(
                estimates[i] as u64,
                stats.dc_vertices_before_pruning - before,
                "estimate mismatch at anchor {vi}"
            );
        }
    }

    #[test]
    fn work_stealing_contains_injected_searcher_panics() {
        let g = mqce_graph::generators::erdos_renyi_gnm(20, 95, 11);
        let dc = DcConfig::paper_default();
        let mut params = MqceParams::new(0.85, 3).unwrap();
        let plan = plan_for(&g, params, dc);

        // Find an anchor whose subproblem actually reaches the searcher.
        let mut scratch = DcScratch::default();
        let mut probe_stats = SearchStats::default();
        let anchor = plan
            .ordering
            .iter()
            .find_map(|&vi| {
                crate::dc::build_subproblem_in(
                    &plan,
                    vi,
                    params,
                    dc,
                    &mut probe_stats,
                    &mut scratch,
                )
                .map(|(sub, _)| {
                    scratch.sub.recycle(sub);
                    plan.reduced.to_global[vi as usize]
                })
            })
            .expect("no executing subproblem");
        params.fail_anchor = Some(anchor);

        // The run must complete (no hung barrier), contain the panic(s) —
        // donated splits of the poisoned subproblem share its anchor and may
        // re-panic on other workers — and keep every other subproblem's
        // outputs intact.
        let outcome = execute(
            &plan,
            &plan.ordering,
            params,
            InnerAlgorithm::QuickPlus,
            dc,
            3,
            None,
            Vec::new(),
        );
        assert!(outcome.stats.subproblem_panics >= 1);
        assert_eq!(outcome.stats.last_panicked_anchor, Some(anchor));
        assert!(!outcome.stats.timed_out);

        let expected = naive::all_maximal_quasi_cliques(&g, params);
        for h in &outcome.outputs {
            assert!(
                expected.iter().any(|e| h.iter().all(|v| e.contains(v))),
                "contained run produced a set outside the true family: {h:?}"
            );
        }
        let filtered = filter_maximal(&outcome.outputs);
        for e in expected.iter().filter(|e| !e.contains(&anchor)) {
            assert!(
                filtered.contains(e),
                "maximal QC {e:?} (not involving the panicked anchor) was lost"
            );
        }
    }
}
