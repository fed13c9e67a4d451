//! Host-time benchmark: command-line entry point.
//!
//! ```text
//! hostbench --workload fleet|fuzz|kernels --seed N --seconds S --trace 0|1
//! ```
//!
//! Runs one workload for `S` seconds as a closed loop with one client on
//! one thread, checks the workload's correctness oracle, and prints one
//! JSON object as the last line of stdout:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! traced replay and prints the per-layer metrics, and writes a
//! host-time Chrome trace and a per-layer table under `hostbench/out/`.
//!
//! Exit codes: 0 ok, 1 an oracle failed (the result still prints, with
//! `"correct": false`, after a line naming the workload, seed and first
//! failing operation), 2 bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use hostbench::{fleet, fuzz, host, kernels, Outcome, Workload, E2E_METRICS, LAYER_METRICS};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(a: &Args) -> Outcome {
    match (a.workload, a.trace) {
        (Workload::Fleet, false) => fleet::run(a.seed, a.seconds),
        (Workload::Fleet, true) => fleet::run_traced(a.seed, a.seconds),
        (Workload::Fuzz, false) => fuzz::run(a.seed, a.seconds),
        (Workload::Fuzz, true) => fuzz::run_traced(a.seed, a.seconds),
        (Workload::Kernels, false) => kernels::run(a.seed, a.seconds),
        (Workload::Kernels, true) => kernels::run_traced(a.seed, a.seconds),
    }
}

/// Output directory for traces and tables (inside the benchmark's own
/// directory).
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_artifacts(a: &Args, o: &Outcome, fingerprint: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let stem = format!("{}-seed{}", a.workload.name(), a.seed);
    let table = dir.join(format!("{stem}-layers.txt"));
    std::fs::write(&table, format!("# host: {fingerprint}\n{}", o.table))
        .map_err(|e| format!("{}: {e}", table.display()))?;
    let trace = dir.join(format!("{stem}-host-trace.json"));
    std::fs::write(&trace, &o.chrome).map_err(|e| format!("{}: {e}", trace.display()))?;
    eprintln!(
        "hostbench: wrote {} and {}",
        table.display(),
        trace.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            eprintln!(
                "usage: hostbench --workload fleet|fuzz|kernels --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let fingerprint = host::fingerprint();
    let mut outcome = run(&args);
    let wanted = if args.trace {
        LAYER_METRICS
    } else {
        E2E_METRICS
    };
    if outcome.checks.failed == 0 {
        for (name, _) in wanted {
            match outcome.metric(name) {
                // A layer this workload does not exercise reads 0.
                None if args.trace => outcome.metrics.push((name, 0.0)),
                None => outcome
                    .checks
                    .fail(format!("metric {name} was not measured")),
                Some(v) if !v.is_finite() => {
                    outcome
                        .checks
                        .fail(format!("metric {name} is not finite ({v})"));
                }
                Some(_) => {}
            }
        }
    }
    if args.trace && outcome.checks.failed == 0 {
        eprint!("{}", outcome.table);
        if let Err(e) = write_artifacts(&args, &outcome, &fingerprint) {
            outcome.checks.fail(format!("writing trace artifacts: {e}"));
        }
    }
    let correct = outcome.checks.failed == 0;
    let metrics: Vec<String> = wanted
        .iter()
        .map(|(name, unit)| {
            let v = outcome
                .metric(name)
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!("# host: {fingerprint}");
    if let Some(first) = &outcome.checks.first_failure {
        let msg = format!(
            "FAILED workload {} seed {}: {} of {} operations failed; first: {first}",
            args.workload.name(),
            args.seed,
            outcome.checks.failed,
            outcome.checks.attempted
        );
        println!("# {msg}");
        eprintln!("hostbench: {msg}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.checks.attempted.max(outcome.checks.failed).max(1),
        outcome.checks.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
