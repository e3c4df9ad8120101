//! Benchmark harness reproducing the paper's evaluation (Section 6).
//!
//! * [`datasets`] — the synthetic dataset suite standing in for the paper's
//!   real konect.cc graphs (see `DESIGN.md` §5 for the substitution
//!   rationale), plus the Erdős–Rényi family of the synthetic experiments.
//! * [`runner`] — measurement plumbing: run one algorithm configuration on
//!   one graph and record times, output counts and search statistics.
//! * [`alloc_stats`] — opt-in (`count-allocs` feature) counting global
//!   allocator whose event/peak-byte deltas become the `alloc_count` /
//!   `peak_alloc_bytes` columns of `BENCH_mqce.json`.
//! * [`experiments`] — one function per table/figure of the paper
//!   (Table 1, Figures 7–12, and the MAX_ROUND / shrinking / S2-cost
//!   "other experiments").
//! * [`fuzz`] — the offline structured differential fuzzer behind
//!   `experiments fuzz`: seeded arbitrary-but-valid instances run through
//!   every production configuration against the naive oracle, the
//!   incremental session, the update WAL, and the panic-containment
//!   boundary, with failing inputs minimised into replayable fixtures.
//! * [`protocol`] — the newline-JSON wire protocol of `mqce serve`, its
//!   client and the shard workers (re-exported as `mqce_cli::protocol`).
//!   It lives here, below the CLI, so the fuzzer can round-trip families
//!   through the same encoder and parser the daemon uses.
//!
//! The `experiments` binary drives these from the command line; the Criterion
//! benches in `benches/` cover the same sweeps in `cargo bench` form.

// `deny` rather than `forbid`: the counting global allocator in
// `alloc_stats` must implement `GlobalAlloc`, which is an unsafe trait; that
// one module carries an explicit `allow` and every other module stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc_stats;
pub mod datasets;
pub mod experiments;
pub mod fuzz;
pub mod protocol;
pub mod runner;
