//! `perfbench`: runs one workload of the mqce benchmark and prints its full
//! report as one JSON line. `run.py` builds this binary and `mqce`, drives
//! it, and turns the report into the benchmark's result line.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!           --mqce PATH/TO/mqce --work DIR
//! ```

mod batch;
mod layers;
mod proc;
mod serve;
mod trace;
mod util;
mod workload;

use std::path::PathBuf;
use std::time::Instant;

use trace::Tracer;
use util::Report;
use workload::Kind;

/// Interleaves a run's timed ops. Each op kind owns a share of the run's
/// seconds; the next op is always the kind furthest behind its share, so
/// every metric samples the whole run rather than one stretch of it (wall
/// time on a shared machine drifts within a run). The run ends once its
/// seconds are spent and every kind has run its minimum count.
pub struct Schedule {
    total: f64,
    start: Instant,
    slots: Vec<Slot>,
    next_op: u64,
}

struct Slot {
    share: f64,
    min: usize,
    spent: f64,
    count: usize,
}

impl Schedule {
    /// A schedule over `slots` (`(share, minimum count)`) starting now.
    pub fn new(total: f64, slots: &[(f64, usize)]) -> Self {
        Schedule {
            total,
            start: Instant::now(),
            slots: slots
                .iter()
                .map(|&(share, min)| Slot {
                    share,
                    min,
                    spent: 0.0,
                    count: 0,
                })
                .collect(),
            next_op: 0,
        }
    }

    /// The slot to run next, or `None` when the run is over.
    pub fn next(&self) -> Option<usize> {
        let limit = self.total * self.slots.iter().map(|s| s.share).sum::<f64>();
        let over = self.start.elapsed().as_secs_f64() >= limit;
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !over || s.count < s.min)
            .min_by(|(_, a), (_, b)| (a.spent / a.share).total_cmp(&(b.spent / b.share)))
            .map(|(i, _)| i)
    }

    /// Books `secs` of timed work and `count` units (runs, queries) to `slot`.
    pub fn record(&mut self, slot: usize, secs: f64, count: usize) {
        self.slots[slot].spent += secs;
        self.slots[slot].count += count;
    }

    /// A fresh op id for the trace.
    pub fn op(&mut self) -> u64 {
        self.next_op += 1;
        self.next_op
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload dense-communities|sparse-planted|serve-mixed --seed N \
         --seconds S --trace 0|1 --mqce PATH --work DIR"
    );
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .unwrap_or_else(|| usage(&format!("missing {flag}")))
    };
    let kind = Kind::parse(&get("--workload")).unwrap_or_else(|| usage("unknown workload"));
    let seed: u64 = get("--seed")
        .parse()
        .unwrap_or_else(|_| usage("bad --seed"));
    let seconds: f64 = get("--seconds")
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0)
        .unwrap_or_else(|| usage("bad --seconds"));
    let traced = match get("--trace").as_str() {
        "0" => false,
        "1" => true,
        _ => usage("--trace takes 0 or 1"),
    };
    let mqce = PathBuf::from(get("--mqce"));
    let work = PathBuf::from(get("--work"));
    std::fs::create_dir_all(&work).expect("create the work directory");

    let mut tracer = Tracer::new(traced, Instant::now());
    let mut report = Report::default();
    match kind {
        Kind::DenseCommunities | Kind::SparsePlanted => {
            batch::run(kind, seed, seconds, &mqce, &work, &mut tracer, &mut report)
        }
        Kind::ServeMixed => serve::run(seed, seconds, &mqce, &work, &mut tracer, &mut report),
    }
    if traced {
        let path = work.join(format!("trace-{}-{seed}.json", kind.name()));
        tracer.write(&path).expect("write the trace file");
        report.layer("trace.spans", tracer.len() as f64, "count");
        for (name, count, total_ms, self_ms) in tracer.summary() {
            eprintln!(
                "span {name:<24} n={count:<6} total={total_ms:>10.2}ms self={self_ms:>10.2}ms"
            );
        }
    }
    println!("{}", report.to_json(kind.name(), seed, traced));
}
