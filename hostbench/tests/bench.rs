//! The benchmark's own checks: metric naming, determinism across worker
//! counts, and the exactness of the traced fleet replay.

use hostbench::spans::Tracer;
use hostbench::{fleet, fuzz, kernels, E2E_METRICS, LAYER_METRICS};

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// `"name": "…"` values between `from` and `to` in `text`.
fn names_between<'a>(text: &'a str, from: &str, to: &str) -> Vec<&'a str> {
    let start = text.find(from).expect("section present");
    let end = text[start..].find(to).map_or(text.len(), |e| start + e);
    text[start..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| &s[..s.find('"').expect("closing quote")])
        .collect()
}

#[test]
fn metric_names_are_well_formed_and_match_benchmark_json() {
    for (name, unit) in E2E_METRICS.iter().chain(LAYER_METRICS) {
        assert!(well_formed(name), "bad metric name {name:?}");
        assert!(
            !unit.is_empty()
                && unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {unit:?} of {name}"
        );
    }
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    let e2e: Vec<&str> = E2E_METRICS.iter().map(|m| m.0).collect();
    let layers: Vec<&str> = LAYER_METRICS.iter().map(|m| m.0).collect();
    assert_eq!(names_between(&json, "\"end_to_end\"", "\"per_layer\""), e2e);
    assert_eq!(names_between(&json, "\"per_layer\"", "]"), layers);
    let workloads = names_between(&json, "\"workloads\"", "]");
    assert_eq!(workloads, ["fleet", "fuzz", "kernels"]);
}

#[test]
fn deterministic_reports_match_at_one_and_many_workers() {
    let many = hostbench::host::nproc().max(2);
    let plan = fleet::report_plan(7);
    assert_eq!(
        fleet::deterministic_report(&plan, 1).unwrap(),
        fleet::deterministic_report(&plan, many).unwrap()
    );
    assert_eq!(
        fuzz::deterministic_report(7, 1).unwrap(),
        fuzz::deterministic_report(7, many).unwrap()
    );
    assert_eq!(
        kernels::deterministic_report(7, 1),
        kernels::deterministic_report(7, many)
    );
}

#[test]
fn traced_fleet_replay_equals_run_session() {
    let seed = 0x5EED;
    let plan = audo_fleet::plan(fleet::options(seed));
    let planted = (0..1_000)
        .find(|&i| fleet::planted(seed, i))
        .expect("a planted unit among the first 1000");
    assert!(plan.vehicle(planted).miscalibrated);
    let mut faulted = None;
    let mut tally = fleet::Tally::default();
    let mut tr = Tracer::new();
    // The planted unit first, then sessions until one hits link faults.
    for index in std::iter::once(planted).chain(0..40) {
        let spec = plan.vehicle(index);
        let direct = audo_fleet::session::run_session(
            &plan.cohorts[spec.cohort],
            &plan.rogue,
            &spec,
            &plan.opts,
        )
        .unwrap();
        let replayed = fleet::replay_session(&plan, &spec, &mut tr, &mut tally).unwrap();
        assert_eq!(
            format!("{direct:?}"),
            format!("{replayed:?}"),
            "session {index}"
        );
        if index == planted {
            assert!(replayed.vetoed, "the planted unit is vetoed");
        }
        if direct.link_retries > 0 {
            faulted = Some(index);
            break;
        }
    }
    assert!(
        faulted.is_some(),
        "a faulted-link unit among the sessions replayed"
    );
}

#[test]
fn timed_fleet_sessions_have_the_same_cohort_mix_for_every_seed() {
    for seed in 1..=10 {
        let plan = audo_fleet::plan(fleet::options(seed));
        let set = fleet::session_set(&plan);
        let planted: Vec<u64> = set
            .iter()
            .filter(|s| s.miscalibrated)
            .map(|s| s.index)
            .collect();
        assert_eq!(planted.len(), 1, "seed {seed}: one planted unit");
        assert!(fleet::planted(seed, planted[0]));
        for cohort in 0..plan.cohorts.len() {
            let n = set
                .iter()
                .filter(|s| !s.miscalibrated && s.cohort == cohort)
                .count();
            assert_eq!(n, fleet::PER_COHORT, "seed {seed} cohort {cohort}");
        }
    }
}
