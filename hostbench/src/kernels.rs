//! `kernels`: long hot loops on the core tiers in steady state.
//!
//! Each of four micro kernels runs on the ISS fast path and on the
//! cached pipeline, over and over, so the block caches stay warm and the
//! work is dominated by the core tier alone — the opposite regime of
//! `fuzz`, which runs many short programs with cold caches on the same
//! `tricore` code. Neither the fabric nor MCDS is on this path.

use std::time::{Duration, Instant};

use audo_common::events::StallReason;
use audo_workloads::micro::{div_kernel, mac_kernel, random_mix, stream_copy};
use audo_workloads::Workload;

use crate::spans::{Breakdown, Tracer};
use crate::tiers::{run_iss, run_pipe, IssOut, PipeOut};
use crate::{derive_seed, frac, par_map, sim_counts, Checks, Outcome, Timed};

/// Retire budget of an ISS run (every kernel halts far below it).
const MAX_INSTRS: u64 = 50_000_000;

/// One kernel: the image the ISS fast path runs and the (shorter) image
/// the cached pipeline runs, sized so that every kernel run takes a few
/// milliseconds on either engine. Equal-cost runs keep the latency
/// percentiles off the gaps between kernels.
#[derive(Debug)]
pub(crate) struct Kernel {
    /// Kernel name.
    pub name: String,
    /// Image for the ISS fast path.
    pub iss: Workload,
    /// Image for the cached pipeline.
    pub pipe: Workload,
}

/// The kernel set of a run. Sizes are fixed, so every seed does a similar
/// amount of work; the seed picks `random_mix`'s instruction stream.
#[must_use]
pub(crate) fn build(seed: u64) -> Vec<Kernel> {
    let mix = derive_seed(seed, 1);
    let kernel = |iss: Workload, pipe: Workload| Kernel {
        name: iss.name.clone(),
        iss,
        pipe,
    };
    vec![
        kernel(mac_kernel(50_000), mac_kernel(12_000)),
        kernel(stream_copy(25_000), stream_copy(6_000)),
        kernel(div_kernel(50_000), div_kernel(5_000)),
        kernel(random_mix(mix, 400, 500), random_mix(mix, 400, 100)),
    ]
}

/// The two timed engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    IssFast,
    PipeCached,
}

/// One kernel run's result.
#[derive(Debug, Clone)]
enum RunOut {
    Iss(IssOut),
    Pipe(PipeOut),
}

/// Run `op` of a round: kernel `op / 2` on engine `op % 2`.
fn op_of(kernels: &[Kernel], op: usize) -> (&Kernel, Engine) {
    let engine = if op.is_multiple_of(2) {
        Engine::IssFast
    } else {
        Engine::PipeCached
    };
    (&kernels[op / 2], engine)
}

fn run_op(kernels: &[Kernel], op: usize) -> RunOut {
    let (k, engine) = op_of(kernels, op);
    match engine {
        Engine::IssFast => RunOut::Iss(run_iss(&k.iss.image, true, false, MAX_INSTRS)),
        Engine::PipeCached => RunOut::Pipe(run_pipe(&k.pipe.image, true, false, k.pipe.max_cycles)),
    }
}

/// The untimed slow references every timed run is checked against: the
/// ISS slow path on both images and the uncached pipeline.
struct Reference {
    iss: Vec<IssOut>,
    pipe_iss: Vec<IssOut>,
    pipe: Vec<PipeOut>,
}

fn reference(kernels: &[Kernel], checks: &mut Checks, seed: u64) -> Reference {
    let r = Reference {
        iss: kernels
            .iter()
            .map(|k| run_iss(&k.iss.image, false, false, MAX_INSTRS))
            .collect(),
        pipe_iss: kernels
            .iter()
            .map(|k| run_iss(&k.pipe.image, false, false, MAX_INSTRS))
            .collect(),
        pipe: kernels
            .iter()
            .map(|k| run_pipe(&k.pipe.image, false, false, k.pipe.max_cycles))
            .collect(),
    };
    for (i, k) in kernels.iter().enumerate() {
        let name = &k.name;
        for iss in [&r.iss[i], &r.pipe_iss[i]] {
            if let Some(e) = &iss.err {
                checks.fail(format!("kernels seed {seed}: {name} ISS slow path: {e}"));
            }
        }
        let (p, iss) = (&r.pipe[i], &r.pipe_iss[i]);
        if p.err.is_some() || !p.halted {
            checks.fail(format!(
                "kernels seed {seed}: {name} uncached pipeline did not halt ({:?})",
                p.err
            ));
        }
        if p.d != iss.state.d || p.a != iss.state.a || p.retired != iss.retired {
            checks.fail(format!(
                "kernels seed {seed}: {name} uncached pipeline registers/retired differ from the ISS"
            ));
        }
    }
    r
}

/// Checks one timed run against the references.
fn check_op(kernels: &[Kernel], r: &Reference, op: usize, out: &RunOut) -> Option<String> {
    let k = op / 2;
    let name = &kernels[k].name;
    match out {
        RunOut::Iss(o) => {
            let iss = &r.iss[k];
            if o.err.is_some() || o.state != iss.state || o.retired != iss.retired {
                return Some(format!(
                    "{name} on the ISS fast path: state/retired differ from the slow path \
                     (retired {} vs {}, error {:?})",
                    o.retired, iss.retired, o.err
                ));
            }
        }
        RunOut::Pipe(o) => {
            let (iss, pipe) = (&r.pipe_iss[k], &r.pipe[k]);
            if o.err.is_some() || !o.halted {
                return Some(format!(
                    "{name} on the cached pipeline did not halt ({:?})",
                    o.err
                ));
            }
            if o.d != iss.state.d || o.a != iss.state.a || o.retired != iss.retired {
                return Some(format!(
                    "{name} on the cached pipeline: registers/retired differ from the ISS"
                ));
            }
            if o.cycles != pipe.cycles || o.stats.stall_cycles != pipe.stats.stall_cycles {
                return Some(format!(
                    "{name} on the cached pipeline: {} cycles vs {} uncached",
                    o.cycles, pipe.cycles
                ));
            }
        }
    }
    None
}

/// The deterministic report of one round: simulated counts per run.
fn render(kernels: &[Kernel], round: &[RunOut]) -> String {
    let mut out = String::new();
    for (op, r) in round.iter().enumerate() {
        let (k, engine) = op_of(kernels, op);
        match r {
            RunOut::Iss(o) => out.push_str(&format!(
                "{} {engine:?} retired={} d={:08x?} a={:08x?}\n",
                k.name, o.retired, o.state.d, o.state.a
            )),
            RunOut::Pipe(o) => out.push_str(&format!(
                "{} {engine:?} cycles={} retired={} stalls={:?} d={:08x?}\n",
                k.name, o.cycles, o.retired, o.stats.stall_cycles, o.d
            )),
        }
    }
    out
}

/// One round of every run on `workers` threads, rendered.
#[must_use]
pub fn deterministic_report(seed: u64, workers: usize) -> String {
    let kernels = build(seed);
    let round = par_map(kernels.len() * 2, workers, &|op| run_op(&kernels, op));
    render(&kernels, &round)
}

/// Runs round `round` — every kernel on both engines — checking every
/// run. A kernel run is one distinct operation, repeated once per round;
/// the round's wall time adds to `timed.wall`. Returns the round's
/// results.
fn timed_round(
    kernels: &[Kernel],
    r: &Reference,
    round: usize,
    checks: &mut Checks,
    timed: &mut Timed,
) -> Vec<RunOut> {
    let round_start = Instant::now();
    let mut outs = Vec::with_capacity(kernels.len() * 2);
    for op in 0..kernels.len() * 2 {
        let t = Instant::now();
        let out = std::hint::black_box(run_op(kernels, op));
        let latency = t.elapsed();
        timed.op(op, latency);
        checks.attempted += 1;
        if let Some(msg) = check_op(kernels, r, op, &out) {
            checks.fail(format!("kernels round {round} op {op}: {msg}"));
        }
        outs.push(out);
    }
    timed.wall += round_start.elapsed();
    outs
}

/// The untraced run.
#[must_use]
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut timed = Timed::default();
    let kernels = timed.setup(|| build(seed));
    let mut checks = Checks::default();
    let r = reference(&kernels, &mut checks, seed);
    let budget = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    let first = timed_round(&kernels, &r, 0, &mut checks, &mut timed);
    let mut round = 1;
    while t0.elapsed() < budget {
        timed.setup(|| build(seed));
        timed_round(&kernels, &r, round, &mut checks, &mut timed);
        round += 1;
    }
    if render(&kernels, &first) != deterministic_report(seed, crate::host::nproc()) {
        checks.fail(format!(
            "kernels seed {seed}: deterministic report differs between repetitions/worker counts"
        ));
    }
    Outcome {
        metrics: timed.e2e_metrics(),
        checks,
        ..Outcome::default()
    }
}

/// Span → layer-metric map of the traced run.
const LAYERS: &[(&str, &str)] = &[
    ("tricore.iss_fast", "tricore.iss_fast_s"),
    ("tricore.pipe_cached", "tricore.pipe_cached_s"),
];

/// The traced run: each round untraced, then traced, alternating so both
/// passes see the same host load.
#[must_use]
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let kernels = build(seed);
    let mut checks = Checks::default();
    let r = reference(&kernels, &mut checks, seed);
    let mut untimed = Timed::default();
    let mut tr = Tracer::new();
    let (mut iss_retired, mut pipe_cycles) = (0u64, 0u64);
    let (mut blocks, mut predecode) = ((0u64, 0u64), (0u64, 0u64));
    let mut first = Vec::new();
    let budget = Duration::from_secs_f64(seconds * 2.0 / 3.0);
    let t0 = Instant::now();
    while first.is_empty() || t0.elapsed() < budget {
        let round = timed_round(&kernels, &r, 0, &mut checks, &mut untimed);
        if first.is_empty() {
            first = round;
        }
        tr.begin("kernels.round");
        for op in 0..kernels.len() * 2 {
            let (_, engine) = op_of(&kernels, op);
            let name = match engine {
                Engine::IssFast => "tricore.iss_fast",
                Engine::PipeCached => "tricore.pipe_cached",
            };
            let out = tr.span(name, || std::hint::black_box(run_op(&kernels, op)));
            match &out {
                RunOut::Iss(o) => {
                    iss_retired += o.retired;
                    blocks.0 += o.blocks.0;
                    blocks.1 += o.blocks.1;
                }
                RunOut::Pipe(o) => {
                    pipe_cycles += o.cycles;
                    predecode.0 += o.stats.predecode.hits;
                    predecode.1 += o.stats.predecode.hits + o.stats.predecode.misses;
                }
            }
            checks.attempted += 1;
            if let Some(msg) = check_op(&kernels, &r, op, &out) {
                checks.fail(format!("kernels traced op {op}: {msg}"));
            }
        }
        tr.end();
    }
    untimed.peak_rss_mb = crate::host::peak_rss_mb();
    let b = Breakdown::of(&tr, LAYERS);
    let pipes: Vec<&PipeOut> = first
        .iter()
        .filter_map(|o| match o {
            RunOut::Pipe(p) => Some(p),
            RunOut::Iss(_) => None,
        })
        .collect();
    let cycles: u64 = pipes.iter().map(|p| p.cycles).sum();
    let retired: u64 = pipes.iter().map(|p| p.retired).sum();
    let mut stalls = [0u64; StallReason::COUNT];
    for p in &pipes {
        for (s, v) in stalls.iter_mut().zip(p.stats.stall_cycles) {
            *s += v;
        }
    }
    let mut metrics = b.metrics(&untimed, "kernels.unattributed_s");
    // reason: instruction and cycle counts are far below 2^53.
    #[allow(clippy::cast_precision_loss)]
    metrics.extend([
        (
            "tricore.iss_fast_mips",
            iss_retired as f64 / b.get("tricore.iss_fast_s") / 1e6,
        ),
        (
            "tricore.pipe_cached_mcps",
            pipe_cycles as f64 / b.get("tricore.pipe_cached_s") / 1e6,
        ),
        ("tricore.iss_block_hit_frac", frac(blocks)),
        ("tricore.predecode_hit_frac", frac(predecode)),
    ]);
    metrics.extend(sim_counts(cycles, retired, &stalls));
    Outcome {
        table: b.table("kernels", "kernels.unattributed_s", MOVES),
        chrome: tr.chrome_json("hostbench kernels (host time)"),
        metrics,
        checks,
    }
}

/// Which end-to-end metric each layer should move.
const MOVES: &[(&str, &str)] = &[
    ("tricore.iss_fast_s", "ops_per_s (ISS half)"),
    ("tricore.pipe_cached_s", "ops_per_s (pipeline half)"),
    ("kernels.unattributed_s", "ops_per_s"),
];
