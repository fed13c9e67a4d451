//! Host-time benchmark of the simulator itself.
//!
//! Three workloads drive the repository crates from outside, through
//! their public functions only:
//!
//! * [`fleet`] — seeded calibration sessions on the full SoC (fabric,
//!   flash, PCP/DMA, MCDS, DAP link with injected faults, obs export,
//!   static-envelope veto, aggregation);
//! * [`fuzz`] — the four-tier differential fuzzer over the corpus plus
//!   generated and mutated programs (many short programs, cold caches);
//! * [`kernels`] — long hot loops on the ISS fast path and the cached
//!   pipeline (the core tier in steady state, warm block caches).
//!
//! An untraced run measures the end-to-end metrics ([`E2E_METRICS`]).
//! A traced run replays the same work with host-time spans around every
//! layer call ([`spans`]) and reports the per-layer metrics
//! ([`LAYER_METRICS`]); the difference between the two is the tracing
//! overhead. Every run checks its workload's correctness oracle.

pub mod fleet;
pub mod fuzz;
pub mod host;
pub mod kernels;
pub mod spans;
pub(crate) mod tiers;

use std::time::{Duration, Instant};

use audo_common::events::StallReason;

/// End-to-end metrics every untraced run prints: `(name, unit)`.
///
/// The names are workload-neutral because every workload prints all of
/// them; `op` is one fleet shard, one fuzz case or one kernel run.
pub const E2E_METRICS: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"),
];

/// Per-layer metrics every traced run prints: `(name, unit)`. A layer
/// the workload does not exercise reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    // Accounting of the traced run itself.
    ("bench.traced_s", "s"),
    ("bench.untraced_s", "s"),
    ("bench.overhead_frac", "1"),
    ("bench.ops", "count"),
    ("host.peak_rss_mb", "MB"),
    // fleet
    ("ed.install_s", "s"),
    ("profiler.compile_s", "s"),
    ("ed.step_s", "s"),
    ("platform.soc_step_s", "s"),
    ("platform.soc_mcps", "Mcycles/s"),
    ("mcds.observe_s", "s"),
    ("mcds.trace_bytes", "bytes"),
    ("mcds.trace_lost_bytes", "bytes"),
    ("dap.pump_s", "s"),
    ("dap.finish_s", "s"),
    ("dap.transactions", "count"),
    ("dap.retries", "count"),
    ("dap.timeouts", "count"),
    ("dap.first_try_frac", "1"),
    ("mcds.decode_s", "s"),
    ("profiler.timeline_s", "s"),
    ("obs.export_s", "s"),
    ("analyze.check_s", "s"),
    ("analyze.vetoes", "count"),
    ("fleet.fold_s", "s"),
    ("fleet.unattributed_s", "s"),
    // fuzz
    ("fuzz.generate_s", "s"),
    ("asm.assemble_s", "s"),
    ("fuzz.check_s", "s"),
    ("fuzz.unattributed_s", "s"),
    // tricore tiers (fuzz split probe and kernels)
    ("tricore.iss_slow_s", "s"),
    ("tricore.iss_fast_s", "s"),
    ("tricore.pipe_uncached_s", "s"),
    ("tricore.pipe_cached_s", "s"),
    ("tricore.iss_fast_mips", "MIPS"),
    ("tricore.pipe_cached_mcps", "Mcycles/s"),
    ("tricore.iss_block_hit_frac", "1"),
    ("tricore.predecode_hit_frac", "1"),
    ("kernels.unattributed_s", "s"),
    // Simulated counts: repeat exactly for a given seed and op count.
    ("sim.cycles", "cycles"),
    ("sim.retired", "instrs"),
    ("sim.ipc", "instrs/cycle"),
    ("sim.stall_share.fetch", "1"),
    ("sim.stall_share.data", "1"),
    ("sim.stall_share.execute", "1"),
    ("sim.stall_share.branch", "1"),
    ("sim.stall_share.context", "1"),
    ("sim.stall_share.store_buffer", "1"),
    ("sim.stall_share.idle", "1"),
];

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-SoC calibration sessions.
    Fleet,
    /// Four-tier differential fuzzing.
    Fuzz,
    /// Long hot loops on the core tiers.
    Kernels,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Fleet, Workload::Fuzz, Workload::Kernels];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet => "fleet",
            Workload::Fuzz => "fuzz",
            Workload::Kernels => "kernels",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Oracle bookkeeping: operations attempted and failed, with the first
/// failure described well enough to reproduce it.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations (or whole-run checks) that failed.
    pub failed: u64,
    /// The first failure.
    pub first_failure: Option<String>,
}

impl Checks {
    /// Records one failed operation or check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }
}

/// What one run measured: oracle results plus named metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Oracle results.
    pub checks: Checks,
    /// `(name, value)`; units come from [`E2E_METRICS`] / [`LAYER_METRICS`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable per-layer table (traced runs only).
    pub table: String,
    /// Chrome trace of the traced run (traced runs only).
    pub chrome: String,
}

impl Outcome {
    /// The value recorded under `name`, if any.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub(crate) fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `sorted`, in the input unit.
#[must_use]
pub(crate) fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    // reason: p is in 0..=100 and len is a sample count, so the rank is
    // small and non-negative.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The timed loop of an untraced run: the same distinct operations run
/// over and over, and each keeps the fastest host time it took.
///
/// The host is shared: the same work runs up to 2× slower while
/// neighbours load it, in phases that last from seconds to a whole run,
/// so a median over a run moves with the phase the run fell in. Noise
/// only adds time, so the fastest of many repetitions of one operation
/// is its cost on an unloaded host, and a phase that leaves the host
/// quiet for even a moment per operation cannot move it. The set-up is
/// timed once before the loop and again between operations, outside
/// their timing, and reported as the median.
#[derive(Debug, Default)]
pub(crate) struct Timed {
    /// Fastest host latency of each distinct operation.
    pub best: Vec<Duration>,
    /// Per distinct unit of work that holds timed operations (a
    /// `run_fuzz` call): `(operations without a latency of their own,
    /// fastest time spent outside the timed operations)`.
    pub rest: Vec<(u64, Duration)>,
    /// Operations completed, repetitions included.
    pub ops: u64,
    /// Wall time of the whole timed loop.
    pub wall: Duration,
    /// Peak resident memory at the end of a traced run's passes.
    pub peak_rss_mb: f64,
    /// Host time of each set-up, seconds.
    pub setups: Vec<f64>,
}

/// Slot `id` of `v`, grown with `empty` as needed.
fn slot<T: Clone>(v: &mut Vec<T>, id: usize, empty: T) -> &mut T {
    if v.len() <= id {
        v.resize(id + 1, empty);
    }
    &mut v[id]
}

impl Timed {
    /// Runs one set-up, `build`, and records its host time.
    pub fn setup<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let v = std::hint::black_box(build());
        self.setups.push(t.elapsed().as_secs_f64());
        v
    }

    /// Records one run of distinct operation `id` that took `latency`.
    pub fn op(&mut self, id: usize, latency: Duration) {
        self.ops += 1;
        let best = slot(&mut self.best, id, Duration::MAX);
        *best = (*best).min(latency);
    }

    /// Records one run of distinct unit `id`: `ops` operations without a
    /// latency of their own, and `time` spent outside its timed
    /// operations.
    pub fn rest(&mut self, id: usize, ops: u64, time: Duration) {
        let r = slot(&mut self.rest, id, (0, Duration::MAX));
        *r = (ops, r.1.min(time));
    }

    /// The end-to-end metrics of [`E2E_METRICS`]: `ops_per_s` is the
    /// distinct operations over the sum of their fastest times (the
    /// units' rest included), the latency percentiles are taken over the
    /// distinct operations' fastest latencies, and `setup_s` is the
    /// median set-up.
    #[must_use]
    pub fn e2e_metrics(&self) -> Vec<(&'static str, f64)> {
        let wall: f64 = self
            .best
            .iter()
            .chain(self.rest.iter().map(|r| &r.1))
            .map(Duration::as_secs_f64)
            .sum();
        // reason: op counts are far below 2^53.
        #[allow(clippy::cast_precision_loss)]
        let ops = (self.best.len() as u64 + self.rest.iter().map(|r| r.0).sum::<u64>()) as f64;
        let mut best = self.best.clone();
        best.sort_unstable();
        let ms = |p| percentile(&best, p).as_secs_f64() * 1e3;
        vec![
            ("setup_s", median(&mut self.setups.clone())),
            ("ops_per_s", ops / wall.max(f64::MIN_POSITIVE)),
            ("op_ms_p50", ms(50.0)),
            ("op_ms_p99", ms(99.0)),
        ]
    }
}

/// Maps `f` over `0..n` on `workers` scoped threads and returns the
/// results in index order, so the output never depends on the worker
/// count.
pub(crate) fn par_map<T: Send>(
    n: usize,
    workers: usize,
    f: &(dyn Fn(usize) -> T + Sync),
) -> Vec<T> {
    let workers = workers.clamp(1, n.max(1));
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                s.spawn(move || {
                    (w..n)
                        .step_by(workers)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("benchmark worker panicked") {
                slots[i] = Some(v);
            }
        }
    });
    slots
        .into_iter()
        .map(|v| v.expect("every index mapped"))
        .collect()
}

/// Derives an independent 64-bit stream from `seed` (splitmix64).
#[must_use]
pub(crate) fn derive_seed(seed: u64, stream: u64) -> u64 {
    audo_fleet::derive::derive_stream(seed, stream)
}

/// `hits / lookups`, 0 when there were no lookups.
#[must_use]
// reason: lookup counts are far below 2^53.
#[allow(clippy::cast_precision_loss)]
pub(crate) fn frac((hits, total): (u64, u64)) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// The `sim.*` metrics of a set of pipeline runs.
#[must_use]
pub(crate) fn sim_counts(
    cycles: u64,
    retired: u64,
    stalls: &[u64; StallReason::COUNT],
) -> Vec<(&'static str, f64)> {
    const NAMES: [&str; StallReason::COUNT] = [
        "sim.stall_share.fetch",
        "sim.stall_share.data",
        "sim.stall_share.execute",
        "sim.stall_share.branch",
        "sim.stall_share.context",
        "sim.stall_share.store_buffer",
        "sim.stall_share.idle",
    ];
    // reason: cycle and instruction counts are far below 2^53.
    #[allow(clippy::cast_precision_loss)]
    let (c, r) = (cycles as f64, retired as f64);
    let per_cycle = |v: f64| if cycles == 0 { 0.0 } else { v / c };
    let mut out = vec![
        ("sim.cycles", c),
        ("sim.retired", r),
        ("sim.ipc", per_cycle(r)),
    ];
    for (reason, name) in StallReason::ALL.iter().zip(NAMES) {
        // reason: stall counts are far below 2^53.
        #[allow(clippy::cast_precision_loss)]
        out.push((name, per_cycle(stalls[reason.index()] as f64)));
    }
    out
}
