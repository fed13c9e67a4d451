//! `fuzz`: the four-tier differential fuzzer over the corpus plus
//! generated and mutated programs.
//!
//! Many short programs with cold decode caches: generator, assembler,
//! ISS slow/fast, pipeline uncached/cached, the encode/disassemble round
//! trip and the MCDS round trip. Never touches the fabric or the DAP.
//!
//! The untraced run calls `run_fuzz` back to back, cycling through
//! [`CALLS`] distinct calls so each case is timed many times, and times
//! each case through its schedule hook. The traced run builds every case from
//! outside instead — generate or mutate, assemble, `check_image` — and
//! must reproduce `run_fuzz`'s report byte for byte; a separate probe
//! then replays each program through the four tier entry points to split
//! the checker's time by tier.

use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use audo_asm::{load_corpus, CorpusEntry, Tiers};
use audo_common::events::StallReason;
use audo_fuzz::gen::{generate, injectable, mutate};
use audo_fuzz::rng::{case_seed, Rng};
use audo_fuzz::tiers::check_image;
use audo_fuzz::{
    run_fuzz, serial_schedule, CaseKind, CaseResult, CheckOptions, FuzzOptions, FuzzReport,
};
use audo_tricore::asm::assemble;
use audo_tricore::opcodes::{sample_instr, OPCODE_SPACE};

use crate::spans::{Breakdown, Tracer};
use crate::tiers::{run_iss, run_pipe};
use crate::{derive_seed, frac, par_map, sim_counts, Checks, Outcome, Timed};

/// Distinct `run_fuzz` calls a run cycles through (about 1.5 s of host
/// time per pass).
pub(crate) const CALLS: u64 = 8;

/// A case program with the tier set and retire budget it ran under.
type Program = (String, Tiers, u64);

/// Generated/mutated cases per `run_fuzz` call (after the corpus sweep).
pub(crate) const CASES_PER_CALL: u64 = 256;
/// Opcode slots every call must cover (of 87 sampleable).
pub(crate) const MIN_COVERED: usize = 86;

/// The corpus every call sweeps and mutates.
#[must_use]
pub(crate) fn corpus_dir() -> PathBuf {
    audo_asm::default_corpus_dir()
}

/// Options of call `call` of a run with `seed`: the fuzzer's default
/// retire budget, as its command line uses.
#[must_use]
pub(crate) fn options(seed: u64, call: u64) -> FuzzOptions {
    FuzzOptions {
        seed: derive_seed(seed, call),
        iterations: CASES_PER_CALL,
        round: 128,
        corpus_dir: Some(corpus_dir()),
        ..FuzzOptions::default()
    }
}

/// The report of call 0 on `workers` threads.
///
/// # Errors
///
/// Propagates corpus load failures.
pub fn deterministic_report(seed: u64, workers: usize) -> Result<String, String> {
    run_fuzz(&options(seed, 0), |n, case| par_map(n, workers, case))
        .map(|r| r.render())
        .map_err(|e| e.to_string())
}

/// Applies the oracle to one call's report.
fn check_report(seed: u64, call: u64, r: &FuzzReport, checks: &mut Checks) {
    let at = format!(
        "fuzz seed {seed} call {call} (session seed {:#x})",
        options(seed, call).seed
    );
    for d in &r.divergences {
        let case = d.index.map_or_else(
            || format!("corpus {}", d.kind),
            |i| format!("case {i} ({})", d.kind),
        );
        checks.fail(format!("{at}: {case}: {}", d.message));
    }
    let (covered, sampleable, uncovered) = r.coverage_counts();
    if covered < MIN_COVERED {
        checks.fail(format!(
            "{at}: opcode coverage {covered}/{sampleable} below {MIN_COVERED} (uncovered: {})",
            uncovered.join(" ")
        ));
    }
}

/// Calls `run_fuzz` round and round over calls `0..CALLS` until
/// `budget` has elapsed (each at least once), timing every case through
/// the schedule hook; each call is followed by a timed set-up.
/// Returns the first call's report and the number of cases that ran
/// into their retire budget: `(all, generated)`.
fn timed_calls(
    seed: u64,
    budget: Duration,
    checks: &mut Checks,
    timed: &mut Timed,
) -> (Option<String>, (u64, u64)) {
    let t0 = Instant::now();
    let mut first = None;
    let at_budget = Cell::new((0u64, 0u64));
    let calls = usize::try_from(CALLS).expect("small");
    let mut run = 0u64;
    while run < CALLS || t0.elapsed() < budget {
        let call = run % CALLS;
        let call_id = usize::try_from(call).expect("small");
        // The call's case latencies, in the order the cases run.
        let latencies = RefCell::new(Vec::new());
        let start = Instant::now();
        let result = run_fuzz(&options(seed, call), |n, case| {
            (0..n)
                .map(|i| {
                    let t = Instant::now();
                    let r = case(i);
                    latencies.borrow_mut().push(t.elapsed());
                    if r.retired >= r.max_instrs {
                        let (all, generated) = at_budget.get();
                        let g = u64::from(matches!(r.kind, CaseKind::Generated));
                        at_budget.set((all + 1, generated + g));
                    }
                    r
                })
                .collect()
        });
        let wall = start.elapsed();
        let latencies = latencies.into_inner();
        let in_cases: Duration = latencies.iter().sum();
        // Case `position` of call `call` is the same program on every pass
        // over the calls.
        for (position, latency) in latencies.into_iter().enumerate() {
            timed.op(position * calls + call_id, latency);
        }
        match result {
            Ok(r) => {
                let programs = r.iterations + r.corpus_programs as u64;
                // The corpus sweep and the fold between rounds.
                timed.rest(call_id, r.corpus_programs as u64, wall - in_cases);
                checks.attempted += programs;
                check_report(seed, call, &r, checks);
                if run == 0 {
                    first = Some(r.render());
                }
                if let Err(e) = timed.setup(|| load_corpus(&corpus_dir())) {
                    checks.fail(format!("fuzz seed {seed} call {call}: corpus: {e}"));
                }
            }
            Err(e) => {
                checks.attempted += 1;
                checks.fail(format!("fuzz seed {seed} call {call}: {e}"));
                break;
            }
        }
        run += 1;
    }
    timed.wall = t0.elapsed();
    (first, at_budget.get())
}

/// The untraced run.
#[must_use]
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut timed = Timed::default();
    let corpus = timed.setup(|| load_corpus(&corpus_dir()));
    let mut checks = Checks::default();
    if let Err(e) = corpus {
        checks.fail(format!("fuzz seed {seed}: corpus: {e}"));
        return Outcome {
            checks,
            ..Outcome::default()
        };
    }
    let (first, (at_budget, generated_at_budget)) = timed_calls(
        seed,
        Duration::from_secs_f64(seconds),
        &mut checks,
        &mut timed,
    );
    eprintln!(
        "hostbench: fuzz seed {seed}: {at_budget} of {} cases ran into their retire budget, \
         {generated_at_budget} of them generated (budget {})",
        timed.ops,
        FuzzOptions::default().max_instrs
    );
    match deterministic_report(seed, crate::host::nproc()) {
        Ok(again) if first.as_ref() == Some(&again) => {}
        _ => checks.fail(format!(
            "fuzz seed {seed}: call 0 report differs between repetitions/worker counts"
        )),
    }
    Outcome {
        metrics: timed.e2e_metrics(),
        checks,
        ..Outcome::default()
    }
}

/// Uncovered opcode slots the generator may chase — the hints
/// `run_fuzz` hands each round, recomputed from the public coverage.
fn injection_hints(union: &[u64; OPCODE_SPACE]) -> Vec<u8> {
    (0..OPCODE_SPACE)
        .filter_map(|idx| {
            let idx = u8::try_from(idx).expect("OPCODE_SPACE fits u8");
            if union[usize::from(idx)] > 0 {
                return None;
            }
            injectable(&sample_instr(idx)?).then_some(idx)
        })
        .collect()
}

/// Builds and checks case `index` from outside, under spans, the way
/// `run_fuzz` builds it internally.
fn replay_case(
    opts: &FuzzOptions,
    corpus: &[CorpusEntry],
    hints: &[u8],
    index: u64,
    tr: &mut Tracer,
) -> CaseResult {
    let cseed = case_seed(opts.seed, index);
    let (kind, source, tiers, max_instrs) = tr.span("fuzz.generate", || {
        if !corpus.is_empty() && index % 4 == 3 {
            let mut r = Rng::new(cseed);
            let len = u64::try_from(corpus.len()).expect("corpus size fits u64");
            let entry = &corpus[usize::try_from(r.below(len)).expect("index below corpus size")];
            let base = &entry.program.source;
            let chosen = (0..8u64)
                .find_map(|attempt| {
                    mutate(base, cseed.wrapping_add(attempt)).filter(|m| assemble(m).is_ok())
                })
                .unwrap_or_else(|| base.clone());
            (
                CaseKind::Mutated(entry.file_name.clone()),
                chosen,
                entry.program.tiers,
                entry.program.max_instrs.min(opts.max_instrs),
            )
        } else {
            (
                CaseKind::Generated,
                generate(cseed, hints),
                Tiers::All,
                opts.max_instrs,
            )
        }
    });
    let check = CheckOptions {
        max_instrs,
        fault: opts.fault,
        check_wcet: opts.check_wcet,
    };
    let image = tr.span("asm.assemble", || assemble(&source));
    let (divergence, errored, retired, coverage, stall_coverage) = match image {
        Ok(image) => {
            let rep = tr.span("fuzz.check", || check_image(&image, tiers, &check));
            (
                rep.divergence,
                rep.errored,
                rep.retired,
                rep.coverage,
                rep.stall_coverage,
            )
        }
        Err(e) => (
            Some(format!("case program does not assemble: {e}")),
            false,
            0,
            Box::new([0u64; OPCODE_SPACE]),
            [0; StallReason::COUNT],
        ),
    };
    CaseResult {
        index,
        kind,
        source,
        tiers,
        max_instrs,
        divergence,
        errored,
        retired,
        coverage,
        stall_coverage,
    }
}

/// One call of the traced run: `run_fuzz` with every case built by
/// [`replay_case`]. Returns the report and each case's program.
fn traced_call(
    opts: &FuzzOptions,
    corpus: &[CorpusEntry],
    baseline: &[u64; OPCODE_SPACE],
    tr: &mut Tracer,
) -> (Result<FuzzReport, String>, Vec<Program>) {
    let union = RefCell::new(Box::new(*baseline));
    let done = Cell::new(0u64);
    let programs = RefCell::new(Vec::new());
    let tr = RefCell::new(tr);
    tr.borrow_mut().begin("fuzz.session");
    let result = run_fuzz(opts, |n, _case| {
        let hints = injection_hints(&union.borrow());
        let base = done.get();
        let mut tr = tr.borrow_mut();
        let results: Vec<CaseResult> = (0..n as u64)
            .map(|i| {
                tr.begin("fuzz.case");
                let r = replay_case(opts, corpus, &hints, base + i, &mut tr);
                tr.end();
                r
            })
            .collect();
        let mut u = union.borrow_mut();
        for r in &results {
            for (slot, c) in u.iter_mut().zip(r.coverage.iter()) {
                *slot += c;
            }
            programs
                .borrow_mut()
                .push((r.source.clone(), r.tiers, r.max_instrs));
        }
        done.set(base + n as u64);
        results
    });
    tr.borrow_mut().end();
    (result.map_err(|e| e.to_string()), programs.into_inner())
}

/// Host time per tier of the split probe, plus the counters it reads.
#[derive(Debug, Default)]
struct TierSplit {
    secs: [f64; 4],
    iss_fast_retired: u64,
    pipe_cached_cycles: u64,
    blocks: (u64, u64),
    predecode: (u64, u64),
    cycles: u64,
    retired: u64,
    stalls: [u64; StallReason::COUNT],
}

/// Replays `programs` through the four tier entry points, one timer
/// each. `sim` selects the programs whose simulated counts are reported.
fn tier_split(programs: &[Program], sim: usize) -> TierSplit {
    let mut s = TierSplit::default();
    let timed = |secs: &mut f64, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        *secs += t.elapsed().as_secs_f64();
    };
    for (k, (source, tiers, max_instrs)) in programs.iter().enumerate() {
        let Ok(image) = assemble(source) else {
            continue;
        };
        let (mut slow, mut fast) = (None, None);
        timed(&mut s.secs[0], &mut || {
            slow = Some(run_iss(&image, false, true, *max_instrs))
        });
        timed(&mut s.secs[1], &mut || {
            fast = Some(run_iss(&image, true, true, *max_instrs))
        });
        let (slow, fast) = (slow.expect("ran"), fast.expect("ran"));
        s.iss_fast_retired += fast.retired;
        s.blocks.0 += fast.blocks.0;
        s.blocks.1 += fast.blocks.1;
        if slow.err.is_some() || fast.err.is_some() || *tiers == Tiers::IssOnly {
            continue;
        }
        let max_cycles = max_instrs.saturating_mul(40).saturating_add(10_000);
        let (mut pslow, mut pfast) = (None, None);
        timed(&mut s.secs[2], &mut || {
            pslow = Some(run_pipe(&image, false, true, max_cycles))
        });
        timed(&mut s.secs[3], &mut || {
            pfast = Some(run_pipe(&image, true, true, max_cycles))
        });
        let (pslow, pfast) = (pslow.expect("ran"), pfast.expect("ran"));
        s.pipe_cached_cycles += pfast.cycles;
        s.predecode.0 += pfast.stats.predecode.hits;
        s.predecode.1 += pfast.stats.predecode.hits + pfast.stats.predecode.misses;
        if k < sim {
            s.cycles += pslow.cycles;
            s.retired += pslow.retired;
            for (t, v) in s.stalls.iter_mut().zip(pslow.stats.stall_cycles) {
                *t += v;
            }
        }
    }
    s
}

/// Span → layer-metric map of the traced run.
const LAYERS: &[(&str, &str)] = &[
    ("fuzz.generate", "fuzz.generate_s"),
    ("asm.assemble", "asm.assemble_s"),
    ("fuzz.check", "fuzz.check_s"),
];

/// Which end-to-end metric each layer should move.
const MOVES: &[(&str, &str)] = &[
    ("fuzz.generate_s", "ops_per_s, op_ms_p99"),
    ("asm.assemble_s", "ops_per_s, op_ms_p99"),
    ("fuzz.check_s", "ops_per_s, op_ms_p99"),
    (
        "fuzz.unattributed_s",
        "ops_per_s (corpus sweep, report fold)",
    ),
];

/// The traced run: each call untraced, then replayed under spans,
/// alternating so both passes see the same host load; then the
/// tier-split probe.
#[must_use]
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut checks = Checks::default();
    let corpus = match load_corpus(&corpus_dir()) {
        Ok(c) => c,
        Err(e) => {
            checks.fail(format!("fuzz seed {seed}: corpus: {e}"));
            return Outcome {
                checks,
                ..Outcome::default()
            };
        }
    };
    // The corpus sweep's coverage seeds the first round's hints.
    let baseline = match run_fuzz(
        &FuzzOptions {
            iterations: 0,
            ..options(seed, 0)
        },
        serial_schedule,
    ) {
        Ok(r) => r.coverage,
        Err(e) => {
            checks.fail(format!("fuzz seed {seed}: corpus sweep: {e}"));
            return Outcome {
                checks,
                ..Outcome::default()
            };
        }
    };
    let mut untimed = Timed::default();
    let mut tr = Tracer::new();
    let mut programs = Vec::new();
    let mut first_call_cases = 0;
    let budget = Duration::from_secs_f64(seconds * 2.0 / 3.0);
    let t0 = Instant::now();
    let mut run = 0u64;
    while run == 0 || t0.elapsed() < budget {
        let call = run % CALLS;
        let opts = options(seed, call);
        let t = Instant::now();
        let untraced = run_fuzz(&opts, serial_schedule);
        untimed.wall += t.elapsed();
        let untraced = match untraced {
            Ok(r) => r,
            Err(e) => {
                checks.fail(format!("fuzz seed {seed} call {call}: {e}"));
                break;
            }
        };
        let programs_run = untraced.iterations + untraced.corpus_programs as u64;
        untimed.ops += programs_run;
        checks.attempted += programs_run;
        check_report(seed, call, &untraced, &mut checks);
        let (result, progs) = traced_call(&opts, &corpus, &baseline, &mut tr);
        match result {
            Ok(r) if r.render() == untraced.render() => {}
            Ok(_) => checks.fail(format!(
                "fuzz seed {seed} call {call}: traced replay report differs from run_fuzz"
            )),
            Err(e) => checks.fail(format!("fuzz seed {seed} call {call}: traced replay: {e}")),
        }
        if run == 0 {
            first_call_cases = progs.len();
        }
        programs.extend(progs);
        run += 1;
    }
    untimed.peak_rss_mb = crate::host::peak_rss_mb();
    let b = Breakdown::of(&tr, LAYERS);
    let split = tier_split(&programs, first_call_cases);
    let mut metrics = b.metrics(&untimed, "fuzz.unattributed_s");
    // reason: instruction and cycle counts are far below 2^53.
    #[allow(clippy::cast_precision_loss)]
    metrics.extend([
        ("tricore.iss_slow_s", split.secs[0]),
        ("tricore.iss_fast_s", split.secs[1]),
        ("tricore.pipe_uncached_s", split.secs[2]),
        ("tricore.pipe_cached_s", split.secs[3]),
        (
            "tricore.iss_fast_mips",
            split.iss_fast_retired as f64 / split.secs[1] / 1e6,
        ),
        (
            "tricore.pipe_cached_mcps",
            split.pipe_cached_cycles as f64 / split.secs[3] / 1e6,
        ),
        ("tricore.iss_block_hit_frac", frac(split.blocks)),
        ("tricore.predecode_hit_frac", frac(split.predecode)),
    ]);
    metrics.extend(sim_counts(split.cycles, split.retired, &split.stalls));
    let mut table = b.table("fuzz", "fuzz.unattributed_s", MOVES);
    table.push_str(&format!(
        "tier split probe (outside the sum): iss_slow {:.6} s, iss_fast {:.6} s, \
         pipe_uncached {:.6} s, pipe_cached {:.6} s over {} programs\n",
        split.secs[0],
        split.secs[1],
        split.secs[2],
        split.secs[3],
        programs.len()
    ));
    Outcome {
        table,
        chrome: tr.chrome_json("hostbench fuzz (host time)"),
        metrics,
        checks,
    }
}
