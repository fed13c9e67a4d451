//! `fleet`: seeded calibration sessions over all seven cohorts, with a
//! non-zero link fault rate and a 1-in-N miscalibration plant.
//!
//! This is the full-SoC path: fabric, flash, PCP/DMA, MCDS, DAP retries,
//! obs export, the analyze veto and aggregation. It never runs the ISS.
//!
//! An operation is one session run through `run_session`, the call
//! `FleetPlan::run_shard` makes per session. A run cycles through a fixed
//! set of sessions ([`session_set`]): the first [`PER_COHORT`] units of
//! every cohort plus one planted unit, so every seed runs the same cohort
//! mix (single-session latency is bimodal across cohorts, and a mix that
//! moved with the seed would move the percentiles with it) and each
//! session is timed many times. The traced run replays shards, each
//! session through the public calls `run_session` makes, with spans
//! around each, folds the samples the way `run_shard` does, and must
//! reproduce the shard outcome exactly.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use audo_analyze::predict::{self, CheckRow};
use audo_common::events::StallReason;
use audo_common::SimError;
use audo_dap::session::{DapSession, HostTool};
use audo_dap::FaultConfig;
use audo_ed::{EdConfig, EmulationDevice};
use audo_fleet::aggregate::CohortAggregate;
use audo_fleet::derive::{is_miscalibrated, vehicle_seed, VehicleSpec};
use audo_fleet::session::{run_session, veto_code, SessionSample, VetoRow, HOT_BLOCKS_PER_SESSION};
use audo_fleet::{fold, plan, FleetOptions, FleetPlan, ShardOutcome, VetoRecord};
use audo_mcds::msg::decode_stream_lossy_shifted_sized;
use audo_obs::{Histogram, Registry};
use audo_profiler::session::ToolLinkOptions;
use audo_profiler::spec::ProfileSpec;
use audo_profiler::timeline::Timeline;
use audo_profiler::Metric;

use crate::spans::{Breakdown, Tracer, CLOCK_SPAN};
use crate::{frac, par_map, sim_counts, Checks, Outcome, Timed};

/// Timed sessions per cohort (plus one planted unit): about 0.4 s of host
/// time per pass over the set.
pub const PER_COHORT: usize = 2;
/// Sessions [`session_set`] scans for its units.
const SCAN: u64 = 1 << 16;

/// Base link fault rate (each unit jitters it by `[0.5, 1.5)`).
pub(crate) const FAULT_RATE: f64 = 0.01;
/// One unit in this many runs the miscalibrated build.
pub(crate) const MISCALIBRATE: u64 = 64;
/// Sessions per shard: one timed operation.
pub(crate) const SHARD_SIZE: u64 = 4;
/// Sessions the deterministic report covers.
pub(crate) const REPORT_SESSIONS: u64 = 4 * SHARD_SIZE;

/// Fleet options of a run with `seed`. The session count is unbounded:
/// the timed loop runs shards until its time is up.
#[must_use]
pub fn options(seed: u64) -> FleetOptions {
    FleetOptions {
        sessions: u64::MAX,
        seed,
        fault_rate: FAULT_RATE,
        miscalibrate: Some(MISCALIBRATE),
        shard_size: SHARD_SIZE,
        ..FleetOptions::default()
    }
}

/// The plan of a run with `seed`, sized to the deterministic report.
#[must_use]
pub fn report_plan(seed: u64) -> FleetPlan {
    plan(FleetOptions {
        sessions: REPORT_SESSIONS,
        ..options(seed)
    })
}

/// Whether session `index` is a planted unit, derived independently of
/// the plan.
#[must_use]
pub fn planted(seed: u64, index: u64) -> bool {
    is_miscalibrated(vehicle_seed(seed, index), MISCALIBRATE)
}

/// The fleet report (text and JSON) of the first [`REPORT_SESSIONS`]
/// sessions, folded from their shards.
fn render(plan: &FleetPlan, shards: &[ShardOutcome]) -> Result<String, String> {
    let report = fold(plan, shards)?;
    Ok(format!("{}\n{}", report.to_text(), report.to_json()))
}

/// The report of `plan`'s sessions, its shards run on `workers` threads.
///
/// # Errors
///
/// Returns the first failed session.
pub fn deterministic_report(plan: &FleetPlan, workers: usize) -> Result<String, String> {
    let shards = par_map(plan.shard_count(), workers, &|s| plan.run_shard(s));
    render(plan, &shards)
}

/// Sessions `lo..hi` of shard `shard`.
fn shard_range(shard: usize) -> std::ops::Range<u64> {
    let lo = shard as u64 * SHARD_SIZE;
    lo..lo + SHARD_SIZE
}

/// The sessions a run with `plan` times, in index order: the first
/// [`PER_COHORT`] unplanted units of every cohort and the first planted
/// unit.
#[must_use]
pub fn session_set(plan: &FleetPlan) -> Vec<VehicleSpec> {
    let mut taken = vec![0; plan.cohorts.len()];
    let mut planted = false;
    let mut set = Vec::new();
    for index in 0..SCAN {
        let spec = plan.vehicle(index);
        let take = if spec.miscalibrated {
            !std::mem::replace(&mut planted, true)
        } else if taken[spec.cohort] < PER_COHORT {
            taken[spec.cohort] += 1;
            true
        } else {
            false
        };
        if take {
            set.push(spec);
        }
        if planted && taken.iter().all(|&n| n == PER_COHORT) {
            break;
        }
    }
    set
}

/// Applies the oracle to one session: it ran, and it was vetoed exactly
/// if it is planted.
fn check_session(
    seed: u64,
    spec: &VehicleSpec,
    sample: &Result<SessionSample, SimError>,
) -> Option<String> {
    let at = format!(
        "fleet seed {seed} session {} (unit seed {:#018x})",
        spec.index, spec.seed
    );
    match sample {
        Err(e) => Some(format!("{at}: {e}")),
        Ok(s) if s.vetoed != planted(seed, spec.index) => Some(format!(
            "{at}: vetoed={} but planted={} ({:?})",
            s.vetoed,
            planted(seed, spec.index),
            s.veto_rows
        )),
        Ok(_) => None,
    }
}

/// Applies the oracle to one shard: every session ran, and the vetoed
/// sessions are exactly the planted ones. Each wrong session counts.
fn check_shard(seed: u64, shard: usize, out: &ShardOutcome, checks: &mut Checks) {
    checks.attempted += SHARD_SIZE;
    if let Some((index, unit, e)) = &out.error {
        checks.fail(format!(
            "fleet seed {seed} session {index} (unit seed {unit:#018x}): {e}"
        ));
        return;
    }
    for index in shard_range(shard) {
        let vetoed = out.vetoes.iter().find(|v| v.index == index);
        if vetoed.is_some() != planted(seed, index) {
            checks.fail(format!(
                "fleet seed {seed} session {index} (unit seed {:#018x}): vetoed={} but planted={} ({:?})",
                vehicle_seed(seed, index),
                vetoed.is_some(),
                planted(seed, index),
                vetoed.map(|v| &v.rows)
            ));
        }
    }
}

/// Runs the sessions of `set` round and round until `budget` has elapsed
/// (each at least once), each run one operation and each pass over the
/// set followed by a timed set-up. Every repetition of a session must
/// return the sample its first run returned.
fn timed_sessions(
    plan: &FleetPlan,
    set: &[VehicleSpec],
    budget: Duration,
    checks: &mut Checks,
    timed: &mut Timed,
) {
    let seed = plan.opts.seed;
    let mut first = Vec::with_capacity(set.len());
    let t0 = Instant::now();
    let mut run = 0;
    while run < set.len() || t0.elapsed() < budget {
        let (id, spec) = (run % set.len(), &set[run % set.len()]);
        let t = Instant::now();
        let sample = run_session(&plan.cohorts[spec.cohort], &plan.rogue, spec, &plan.opts);
        let latency = t.elapsed();
        timed.op(id, latency);
        checks.attempted += 1;
        let rendered = format!("{sample:?}");
        if let Some(msg) = check_session(seed, spec, &sample) {
            checks.fail(msg);
        }
        if run < set.len() {
            first.push(rendered);
        } else if first[id] != rendered {
            checks.fail(format!(
                "fleet seed {seed} session {}: sample differs between repetitions",
                spec.index
            ));
        }
        if id + 1 == set.len() {
            timed.setup(|| audo_fleet::plan(options(seed)));
        }
        run += 1;
    }
    timed.wall = t0.elapsed();
}

/// Checks the deterministic report: the report's shards run one by one
/// against a repetition on `nproc` threads.
fn check_report(plan: &mut FleetPlan, checks: &mut Checks) {
    plan.opts.sessions = REPORT_SESSIONS;
    let shards: Vec<ShardOutcome> = (0..plan.shard_count()).map(|s| plan.run_shard(s)).collect();
    for (s, out) in shards.iter().enumerate() {
        check_shard(plan.opts.seed, s, out, checks);
    }
    let once = render(plan, &shards);
    if once.is_err() || once != deterministic_report(plan, crate::host::nproc()) {
        checks.fail(format!(
            "fleet seed {}: report of sessions 0..{REPORT_SESSIONS} differs between repetitions/worker counts",
            plan.opts.seed
        ));
    }
}

/// Shards the deterministic report needs from the timed loop.
fn report_shards() -> usize {
    usize::try_from(REPORT_SESSIONS / SHARD_SIZE).expect("small")
}

/// The untraced run.
#[must_use]
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut timed = Timed::default();
    let mut plan = timed.setup(|| plan(options(seed)));
    let mut checks = Checks::default();
    let set = session_set(&plan);
    timed_sessions(
        &plan,
        &set,
        Duration::from_secs_f64(seconds),
        &mut checks,
        &mut timed,
    );
    check_report(&mut plan, &mut checks);
    Outcome {
        metrics: timed.e2e_metrics(),
        checks,
        ..Outcome::default()
    }
}

/// Counters the traced replay reads at the layer boundaries.
#[derive(Debug, Default)]
pub struct Tally {
    trace_bytes: u64,
    trace_lost: u64,
    transactions: u64,
    frames_sent: u64,
    retries: u64,
    timeouts: u64,
    vetoes: u64,
    cycles: u64,
    retired: u64,
    stalls: [u64; StallReason::COUNT],
}

/// Replays session `spec` through the public calls `run_session` makes —
/// `EmulationDevice::new`, `install_ed`, `ProfileSpec::compile`,
/// `program_mcds`, the step/pump loop, `finish_drain`, the lossy stream
/// decode, `Timeline::from_messages`, `export_obs` and `predict::check` —
/// with a span around each. Per-cycle calls are summed into one span per
/// session per layer.
///
/// # Errors
///
/// Whatever the session itself returns; open spans are closed first.
pub fn replay_session(
    plan: &FleetPlan,
    spec: &VehicleSpec,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<SessionSample, SimError> {
    let r = replay_inner(plan, spec, tr, tally);
    if r.is_err() {
        tr.end_all();
    }
    r
}

/// A fresh device with session `spec`'s image installed (the planted
/// build for a miscalibrated unit), block profiling on, as
/// `run_session` sets it up.
fn installed_device(plan: &FleetPlan, spec: &VehicleSpec) -> Result<EmulationDevice, SimError> {
    let art = &plan.cohorts[spec.cohort];
    let workload = if spec.miscalibrated {
        &plan.rogue
    } else {
        &art.workload
    };
    let mut ed = EmulationDevice::new(art.config.clone(), EdConfig::default());
    workload.install_ed(&mut ed)?;
    ed.soc.tricore.set_profile_observation(true);
    Ok(ed)
}

#[allow(clippy::too_many_lines)] // reason: one linear replay of run_session + profile
fn replay_inner(
    plan: &FleetPlan,
    spec: &VehicleSpec,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Result<SessionSample, SimError> {
    let art = &plan.cohorts[spec.cohort];
    let mut ed = tr.span("ed.install", || installed_device(plan, spec))?;

    let profile_spec = ProfileSpec::new()
        .metric(Metric::Ipc, plan.opts.metric_window)
        .with_timestamp_shift(4);
    let faults = if spec.fault_rate > 0.0 {
        FaultConfig::uniform(spec.fault_rate, spec.seed)
    } else {
        FaultConfig::lossless()
    };
    let link = ToolLinkOptions {
        faults,
        ..ToolLinkOptions::default()
    };
    let max_cycles = art.budget.max(plan.rogue.max_cycles);
    let (probe_map, mut tool) = tr.span("profiler.compile", || {
        profile_spec.compile().map(|(mcds, probe_map)| {
            ed.program_mcds(mcds);
            let tool = HostTool::new(
                DapSession::new(link.dap.clone(), link.session.clone(), link.faults.clone()),
                link.policy,
            );
            (probe_map, tool)
        })
    })?;

    let mut obs = Registry::new();
    let start = ed.now();
    obs.begin_span("session", start.0);
    obs.begin_span("target.run", start.0);
    let mut produced = 0u64;
    let mut halted = false;
    tr.begin("target.run");
    let loop_start = tr.now_ns();
    let (mut step_ns, mut pump_ns, mut calls) = (0u64, 0u64, 0u64);
    let mut t = Instant::now();
    while ed.now().saturating_sub(start) < max_cycles {
        let step = ed.step();
        let t1 = Instant::now();
        let step = step?;
        produced += u64::from(step.trace_bytes);
        tool.pump(&mut ed);
        let t2 = Instant::now();
        step_ns += u64::try_from((t1 - t).as_nanos()).unwrap_or(u64::MAX);
        pump_ns += u64::try_from((t2 - t1).as_nanos()).unwrap_or(u64::MAX);
        calls += 1;
        t = t2;
        if step.halted {
            halted = true;
            break;
        }
    }
    let at = tr.summed("ed.step", loop_start, step_ns, calls);
    tr.summed("dap.pump", at, pump_ns, calls);
    tr.end();
    if !halted {
        return Err(SimError::LimitExceeded {
            what: "cycles",
            limit: max_cycles,
        });
    }
    let run_end = ed.now().0;
    obs.end_span(run_end);

    let (host_buf, stats) = tr.span("dap.finish", || {
        let link_before = tool.session.link().now().0;
        obs.begin_span("drain.finish", run_end);
        tool.finish_drain(&mut ed, link.finish_budget_cycles);
        let link_spent = tool.session.link().now().0.saturating_sub(link_before);
        obs.end_span(run_end + link_spent);
        let host_buf = tool.take_collected();
        tool.session.export_obs(&mut obs);
        (host_buf, *tool.session.stats())
    });

    let lost = ed.trace.lost();
    let mut msg_sizes = Vec::new();
    let (messages, _decode_error) = tr.span("mcds.decode", || {
        decode_stream_lossy_shifted_sized(&host_buf, profile_spec.timestamp_shift(), &mut msg_sizes)
    });
    let timeline = tr.span("profiler.timeline", || {
        Timeline::from_messages(&messages, &probe_map)
    });
    std::hint::black_box(&timeline);
    tr.span("obs.export", || {
        ed.export_obs(&mut obs);
        let mut size_hist = Histogram::default();
        for s in &msg_sizes {
            size_hist.record(*s as u64);
        }
        obs.observe_histogram("mcds.message_bytes", &size_hist);
        obs.sample("session.trace_bytes_produced", produced);
        obs.sample("session.trace_bytes_downloaded", host_buf.len() as u64);
        obs.sample("session.trace_bytes_lost", lost);
        obs.sample("session.messages_decoded", messages.len() as u64);
        let end = obs.stamped();
        obs.end_span(end);
    });
    let cycles = ed.now() - start;

    let (veto_rows, hot_blocks) = tr.span("analyze.check", || {
        let mut snapshot = BTreeMap::new();
        for (name, v) in obs.counters() {
            // reason: counter tallies are far below 2^53; exact in f64.
            #[allow(clippy::cast_precision_loss)]
            snapshot.insert(audo_obs::metrics_text::sanitize(name), v as f64);
        }
        for (name, v) in obs.gauges() {
            snapshot.insert(audo_obs::metrics_text::sanitize(name), v);
        }
        let rows = predict::check(&art.envelope, &snapshot);
        let mut veto_rows: Vec<VetoRow> = rows
            .iter()
            .filter(|r| !r.ok())
            .map(|r: &CheckRow| VetoRow {
                rate: r.name,
                code: veto_code(r.name),
                measured: r.measured.unwrap_or(f64::NAN),
                lo: r.lo,
                hi: r.hi,
            })
            .collect();
        let hot_blocks = ed.soc.tricore.block_profile().map_or_else(Vec::new, |p| {
            p.top_blocks(HOT_BLOCKS_PER_SESSION)
                .into_iter()
                .map(|(k, c)| (*k, *c))
                .collect::<Vec<_>>()
        });
        if art.envelope.block_cycles_ub > 0 {
            let irqs = ed.soc.irqs_taken;
            for (_, c) in &hot_blocks {
                let entries = c.executions + 1 + irqs;
                // reason: cycle tallies are far below 2^53; exact in f64.
                #[allow(clippy::cast_precision_loss)]
                let per_entry = c.cycles() as f64 / entries as f64;
                // reason: cycle tallies are far below 2^53; exact in f64.
                #[allow(clippy::cast_precision_loss)]
                let ub = art.envelope.block_cycles_ub as f64;
                if per_entry > ub {
                    veto_rows.push(VetoRow {
                        rate: "wcet_block_cycles",
                        code: veto_code("wcet_block_cycles"),
                        measured: per_entry,
                        lo: 0.0,
                        hi: ub,
                    });
                    break;
                }
            }
        }
        (veto_rows, hot_blocks)
    });

    let find_hist = |suffix: &str| {
        obs.histograms()
            .find(|(n, _)| n.ends_with(suffix))
            .map(|(_, h)| h.clone())
            .unwrap_or_default()
    };
    let sample = SessionSample {
        cycles,
        instructions: obs.counter("soc.tricore.instructions_retired"),
        trace_produced: produced,
        trace_lost: lost,
        link_retries: stats.retries,
        link_timeouts: stats.timeouts,
        link_truncated: stats.trace_truncated,
        dap_transaction_cycles: find_hist("dap.transaction_cycles"),
        mcds_message_bytes: find_hist("mcds.message_bytes"),
        vetoed: !veto_rows.is_empty(),
        veto_rows,
        hot_blocks,
    };
    tally.trace_bytes += produced;
    tally.trace_lost += lost;
    tally.transactions += stats.transactions;
    tally.frames_sent += stats.frames_sent;
    tally.retries += stats.retries;
    tally.timeouts += stats.timeouts;
    tally.vetoes += u64::from(sample.vetoed);
    if spec.index < REPORT_SESSIONS {
        tally.cycles += cycles;
        tally.retired += sample.instructions;
        for (t, v) in tally
            .stalls
            .iter_mut()
            .zip(ed.soc.tricore.stats().stall_cycles)
        {
            *t += v;
        }
    }
    Ok(sample)
}

/// Replays shard `shard` the way `FleetPlan::run_shard` runs it, with
/// every session through [`replay_session`] and the fold under a span.
pub(crate) fn replay_shard(
    plan: &FleetPlan,
    shard: usize,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> ShardOutcome {
    let mut out = ShardOutcome {
        cohorts: vec![CohortAggregate::default(); plan.cohorts.len()],
        vetoes: Vec::new(),
        cycles: 0,
        error: None,
    };
    for index in shard_range(shard) {
        let spec = plan.vehicle(index);
        tr.begin("fleet.session");
        let result = replay_session(plan, &spec, tr, tally);
        tr.end();
        match result {
            Ok(sample) => tr.span("fleet.fold", || {
                out.cycles += sample.cycles;
                if sample.vetoed {
                    out.vetoes.push(VetoRecord {
                        index,
                        seed: spec.seed,
                        cohort: spec.cohort,
                        rows: sample.veto_rows.clone(),
                    });
                }
                out.cohorts[spec.cohort].fold_session(&sample);
            }),
            Err(e) => {
                out.error = Some((index, spec.seed, e.to_string()));
                break;
            }
        }
    }
    out
}

/// Span → layer-metric map of the traced run.
const LAYERS: &[(&str, &str)] = &[
    ("ed.install", "ed.install_s"),
    ("profiler.compile", "profiler.compile_s"),
    ("ed.step", "ed.step_s"),
    ("dap.pump", "dap.pump_s"),
    ("dap.finish", "dap.finish_s"),
    ("mcds.decode", "mcds.decode_s"),
    ("profiler.timeline", "profiler.timeline_s"),
    ("obs.export", "obs.export_s"),
    ("analyze.check", "analyze.check_s"),
    ("fleet.fold", "fleet.fold_s"),
];

/// Which end-to-end metric each layer should move.
const MOVES: &[(&str, &str)] = &[
    ("ed.install_s", "op_ms_p50"),
    ("profiler.compile_s", "op_ms_p50"),
    ("ed.step_s", "ops_per_s"),
    ("dap.pump_s", "op_ms_p99"),
    ("dap.finish_s", "op_ms_p99"),
    ("mcds.decode_s", "ops_per_s"),
    ("profiler.timeline_s", "ops_per_s"),
    ("obs.export_s", "ops_per_s"),
    ("analyze.check_s", "ops_per_s"),
    ("fleet.fold_s", "ops_per_s"),
    ("fleet.unattributed_s", "ops_per_s"),
];

/// The bare-SoC probe of shard `shard`: each session's image run to halt
/// on a fresh device with no MCDS and no tool link. Returns
/// `(seconds, cycles)`.
fn soc_probe(plan: &FleetPlan, shard: usize) -> Result<(f64, u64), SimError> {
    let (mut secs, mut cycles) = (0.0, 0u64);
    for index in shard_range(shard) {
        let spec = plan.vehicle(index);
        let mut ed = installed_device(plan, &spec)?;
        let max_cycles = plan.cohorts[spec.cohort].budget.max(plan.rogue.max_cycles);
        let t = Instant::now();
        cycles += ed.soc.run_to_halt(max_cycles)?;
        secs += t.elapsed().as_secs_f64();
    }
    Ok((secs, cycles))
}

/// The traced run: each shard untraced, then replayed under spans (the
/// outcome must equal `run_shard`'s), then run on the bare-SoC probe
/// that splits `ed.step_s` into SoC and MCDS time, alternating so all
/// three passes see the same host load.
#[must_use]
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let plan = plan(options(seed));
    let mut checks = Checks::default();
    let mut untimed = Timed::default();
    let mut tr = Tracer::new();
    let mut tally = Tally::default();
    let (mut soc_s, mut soc_cycles) = (0.0, 0u64);
    let budget = Duration::from_secs_f64(seconds * 2.0 / 3.0);
    let t0 = Instant::now();
    let mut shard = 0;
    while shard < report_shards() || t0.elapsed() < budget {
        let t = Instant::now();
        let untraced = plan.run_shard(shard);
        untimed.wall += t.elapsed();
        untimed.ops += 1;
        check_shard(seed, shard, &untraced, &mut checks);
        tr.begin("fleet.shard");
        let replayed = replay_shard(&plan, shard, &mut tr, &mut tally);
        tr.end();
        if format!("{replayed:?}") != format!("{untraced:?}") {
            checks.fail(format!(
                "fleet seed {seed} shard {shard}: traced replay differs from run_shard"
            ));
        }
        match soc_probe(&plan, shard) {
            Ok((s, c)) => {
                soc_s += s;
                soc_cycles += c;
            }
            Err(e) => checks.fail(format!(
                "fleet seed {seed} shard {shard}: bare-SoC probe: {e}"
            )),
        }
        shard += 1;
    }
    untimed.peak_rss_mb = crate::host::peak_rss_mb();
    let b = Breakdown::of(&tr, LAYERS);
    let sessions = shard as u64 * SHARD_SIZE;
    let mut metrics = b.metrics(&untimed, "fleet.unattributed_s");
    // reason: byte, cycle and transaction counts are far below 2^53.
    #[allow(clippy::cast_precision_loss)]
    metrics.extend([
        ("platform.soc_step_s", soc_s),
        ("platform.soc_mcps", soc_cycles as f64 / soc_s / 1e6),
        ("mcds.observe_s", b.get("ed.step_s") - soc_s),
        ("mcds.trace_bytes", tally.trace_bytes as f64),
        ("mcds.trace_lost_bytes", tally.trace_lost as f64),
        ("dap.transactions", tally.transactions as f64),
        ("dap.retries", tally.retries as f64),
        ("dap.timeouts", tally.timeouts as f64),
        (
            "dap.first_try_frac",
            frac((tally.transactions, tally.frames_sent)),
        ),
        ("analyze.vetoes", tally.vetoes as f64),
    ]);
    metrics.extend(sim_counts(tally.cycles, tally.retired, &tally.stalls));
    let mut table = b.table("fleet", "fleet.unattributed_s", MOVES);
    let clock = tr.totals().get(CLOCK_SPAN).copied().unwrap_or_default();
    table.push_str(&format!(
        "clock reads in the step/pump loop (inside fleet.unattributed_s): {} x {:.1} ns = {:.6} s\n",
        clock.count,
        tr.read_ns(),
        clock.self_s
    ));
    table.push_str(&format!(
        "bare-SoC probe (outside the sum): platform.soc_step_s {soc_s:.6} s for the same \
         {} sessions; mcds.observe_s = ed.step_s - platform.soc_step_s = {:.6} s\n",
        sessions,
        b.get("ed.step_s") - soc_s
    ));
    Outcome {
        table,
        chrome: tr.chrome_json("hostbench fleet (host time)"),
        metrics,
        checks,
    }
}
