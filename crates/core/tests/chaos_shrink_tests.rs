//! End-to-end proof that the chaos harness catches a real atomicity bug
//! and shrinks its fault schedule to a minimal reproducer.
//!
//! The seeded bug: `EVOLVE_CHAOS_GANG_NO_ROLLBACK` makes the scheduler
//! commit a partially placed gang instead of rolling back (see
//! `SchedulerFramework::place_gang`). This file lives alone in its own
//! test binary because the flag is read from the process environment at
//! scheduler construction; no other test must share the process.

use evolve_core::{ExperimentRunner, ManagerKind, RunConfig};
use evolve_sim::chaos::{plan_from_events, shrink_events};
use evolve_sim::{FaultEvent, FaultKind, OracleReport, Reproducer};
use evolve_types::{SimDuration, SimTime};
use evolve_workload::ScenarioSpec;

fn run_case(seed: u64, events: &[FaultEvent]) -> OracleReport {
    let mut spec = ScenarioSpec::builtin("interference").expect("builtin");
    spec.horizon = SimDuration::from_secs(150);
    spec.cluster.nodes = 8;
    let cfg = RunConfig::from_spec(&spec, ManagerKind::Evolve)
        .seed(seed)
        .record_series(false)
        .faults(plan_from_events(events))
        .oracle(true)
        .build();
    ExperimentRunner::new(cfg).run().oracle.expect("oracle was enabled")
}

/// The schedule the fuzzer would hand to the shrinker: one control stall
/// that actually provokes the bug (the backlog after the stall forces a
/// gang through the broken partial-placement path) plus three decoy
/// faults landing *after* the violation, which the shrinker must strip.
fn failing_schedule() -> Vec<FaultEvent> {
    vec![
        FaultEvent {
            at: SimTime::from_secs(67),
            kind: FaultKind::ControlStall { duration: SimDuration::from_secs(42) },
        },
        FaultEvent {
            at: SimTime::from_secs(140),
            kind: FaultKind::ScrapeBlackout { app: None, duration: SimDuration::from_secs(8) },
        },
        FaultEvent {
            at: SimTime::from_secs(142),
            kind: FaultKind::MetricNoise {
                app: None,
                duration: SimDuration::from_secs(6),
                cv: 0.2,
            },
        },
        FaultEvent {
            at: SimTime::from_secs(145),
            kind: FaultKind::ActuationDrop { duration: SimDuration::from_secs(4) },
        },
    ]
}

#[test]
fn seeded_gang_bug_is_caught_and_shrunk_to_a_tiny_reproducer() {
    std::env::set_var("EVOLVE_CHAOS_GANG_NO_ROLLBACK", "1");
    let seed = 95;
    let events = failing_schedule();

    // 1. The oracle catches the seeded bug as a gang-atomicity violation.
    let report = run_case(seed, &events);
    assert!(!report.is_clean(), "seeded bug not caught");
    assert!(
        report.failed_checks().iter().any(|c| c == "gang_atomicity"),
        "expected gang_atomicity, got {:?}",
        report.failed_checks()
    );

    // 2. ddmin shrinks the four-event schedule to at most three events
    //    (here: exactly the control stall).
    let minimal = shrink_events(&events, |cand| !run_case(seed, cand).is_clean());
    assert!(minimal.len() <= 3, "shrinker left {} events: {minimal:?}", minimal.len());
    assert!(
        minimal.iter().any(|ev| matches!(ev.kind, FaultKind::ControlStall { .. })),
        "the culprit stall was shrunk away: {minimal:?}"
    );

    // 3. The minimized schedule still reproduces, and survives the JSON
    //    reproducer round trip byte-for-byte.
    let shrunk_report = run_case(seed, &minimal);
    assert!(!shrunk_report.is_clean());
    let repro = Reproducer {
        seed,
        profile: "interference".to_string(),
        horizon: SimDuration::from_secs(150),
        nodes: 8,
        events: minimal,
        violation: shrunk_report.failed_checks().first().cloned().unwrap_or_default(),
    };
    let json = repro.to_json();
    let back = Reproducer::from_json(&json).expect("reproducer round trip");
    assert_eq!(back, repro);
    let replayed = run_case(back.seed, &back.events);
    assert!(!replayed.is_clean(), "reproducer did not replay the violation");
}
