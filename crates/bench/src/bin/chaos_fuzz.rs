//! **chaos_fuzz** — randomized fault-schedule fuzzing with automatic
//! shrinking (the FoundationDB simulation-testing loop; DESIGN.md
//! decision 12).
//!
//! Each case draws a seeded random fault schedule over a workload
//! profile, runs it through the normal [`RunConfig`] path with the
//! [`ChaosOracle`] invariant battery enabled, and — on any violation —
//! delta-debugs the schedule to a locally minimal reproducer, written as
//! deterministic JSON to `experiments_out/chaos_repro.json`.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin chaos_fuzz [runs]
//! cargo run --release -p evolve-bench --bin chaos_fuzz -- --replay experiments_out/chaos_repro.json
//! EVOLVE_SMOKE=1 …        # short horizon for CI smoke runs
//! EVOLVE_CHAOS_RUNS=500 … # fuzz budget without a CLI argument
//! ```
//!
//! Exit status: 0 when every case is clean (or a replay no longer
//! fails), 1 when a violation was found (fuzz) or reproduced (replay).

use std::path::Path;

use evolve::prelude::*;
use evolve_bench::{BenchArgs, BASE_SEED};
use evolve_sim::chaos::{plan_from_events, random_fault_events, shrink_events};
use evolve_types::SimDuration;

/// Workload profiles the fuzzer cycles through. Names are stored in the
/// reproducer, so keep them stable.
const PROFILES: [&str; 4] = ["single_diurnal", "headline", "interference", "overload"];

/// Resolves a profile name to its scenario spec, with the fuzz horizon.
fn spec_for(profile: &str, horizon: SimDuration) -> Option<ScenarioSpec> {
    let builtin = |name| ScenarioSpec::builtin(name).expect("builtin scenario");
    let mut spec = match profile {
        "single_diurnal" | "interference" => builtin(profile),
        "headline" => builtin("headline").scaled(0.2),
        "overload" => builtin("overload").scaled_loads(1.5),
        _ => return None,
    };
    spec.horizon = horizon;
    Some(spec)
}

/// The overload profile runs with its spec's capacity arbiter (that is
/// the code path it exists to fuzz) on the small reference cluster the
/// scenario is sized against; faults then push an already-saturated
/// arbiter through node losses and actuation failures.
fn profile_nodes(profile: &str, default_nodes: u32) -> u32 {
    if profile == "overload" {
        4
    } else {
        default_nodes
    }
}

/// Runs one oracle-enabled case and returns the oracle's report.
fn run_case(
    profile: &str,
    seed: u64,
    horizon: SimDuration,
    nodes: u32,
    events: &[FaultEvent],
) -> OracleReport {
    let mut spec = spec_for(profile, horizon).expect("known profile");
    spec.cluster.nodes = nodes as usize;
    let config = RunConfig::from_spec(&spec, ManagerKind::Evolve)
        .seed(seed)
        .record_series(false)
        .faults(plan_from_events(events))
        .oracle(true)
        .build();
    ExperimentRunner::new(config).run().oracle.expect("oracle was enabled")
}

/// Shrinks a failing schedule and writes the JSON reproducer; returns
/// the reproducer path.
fn minimize_and_write(
    profile: &str,
    seed: u64,
    horizon: SimDuration,
    nodes: u32,
    events: &[FaultEvent],
    violation: &str,
    out_dir: &Path,
) -> std::path::PathBuf {
    let minimal =
        shrink_events(events, |cand| !run_case(profile, seed, horizon, nodes, cand).is_clean());
    // The shrunk schedule may trip a different (earlier) check; record
    // what it actually fires now.
    let report = run_case(profile, seed, horizon, nodes, &minimal);
    let fired = report.failed_checks().first().cloned().unwrap_or_else(|| violation.to_string());
    let repro = Reproducer {
        seed,
        profile: profile.to_string(),
        horizon,
        nodes,
        events: minimal,
        violation: fired,
    };
    let _ = std::fs::create_dir_all(out_dir);
    let path = out_dir.join("chaos_repro.json");
    if let Err(err) = std::fs::write(&path, repro.to_json()) {
        eprintln!("warning: failed to write reproducer {}: {err}", path.display());
    }
    path
}

/// Replays a reproducer file; returns the process exit code.
fn replay(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("error: cannot read {path}: {err}");
            return 2;
        }
    };
    let repro = match Reproducer::from_json(&text) {
        Ok(r) => r,
        Err(err) => {
            eprintln!("error: {path} is not a valid reproducer: {err}");
            return 2;
        }
    };
    if spec_for(&repro.profile, repro.horizon).is_none() {
        eprintln!("error: unknown profile {:?}", repro.profile);
        return 2;
    }
    println!(
        "replaying {path}: profile={} seed={} nodes={} events={} (expected: {})",
        repro.profile,
        repro.seed,
        repro.nodes,
        repro.events.len(),
        repro.violation
    );
    let report = run_case(&repro.profile, repro.seed, repro.horizon, repro.nodes, &repro.events);
    if report.is_clean() {
        println!(
            "clean: the violation no longer reproduces ({} ticks checked)",
            report.ticks_checked
        );
        0
    } else {
        println!("reproduced {} violation(s):", report.total_violations);
        for v in &report.violations {
            println!("  [{}] {}: {}", v.at, v.check, v.detail);
        }
        1
    }
}

fn main() {
    let args = BenchArgs::parse(1);
    if let Some(i) = args.rest.iter().position(|a| a == "--replay") {
        let Some(path) = args.rest.get(i + 1) else {
            eprintln!("usage: chaos_fuzz --replay <file>");
            std::process::exit(2);
        };
        std::process::exit(replay(path));
    }

    let parse = |s: &str| s.trim().parse::<usize>().ok().filter(|n| *n > 0);
    let runs = args
        .explicit_count
        .or_else(|| std::env::var("EVOLVE_CHAOS_RUNS").ok().as_deref().and_then(parse))
        .unwrap_or(200);
    let horizon =
        if args.smoke { SimDuration::from_secs(240) } else { SimDuration::from_secs(600) };
    let nodes = 8u32;

    println!("chaos_fuzz: {runs} runs, horizon {}s, {nodes} nodes", horizon.as_secs_f64());
    let mut clean = 0usize;
    for i in 0..runs as u64 {
        let seed = BASE_SEED + i;
        let profile = PROFILES[(i % PROFILES.len() as u64) as usize];
        let case_nodes = profile_nodes(profile, nodes);
        let apps = spec_for(profile, horizon).expect("known profile").build().mix.len();
        let events = random_fault_events(seed, horizon, case_nodes as usize, apps, 5);
        let report = run_case(profile, seed, horizon, case_nodes, &events);
        if report.is_clean() {
            clean += 1;
            if (i + 1).is_multiple_of(25) {
                println!("  {}/{runs} clean", i + 1);
            }
            continue;
        }
        let fired = report.failed_checks().join(", ");
        println!(
            "violation after {clean} clean runs: profile={profile} seed={seed} checks=[{fired}]"
        );
        println!("shrinking {} events…", events.len());
        let path = minimize_and_write(
            profile,
            seed,
            horizon,
            case_nodes,
            &events,
            report.failed_checks().first().map_or("unknown", String::as_str),
            &args.out_dir,
        );
        println!("minimized reproducer written to {}", path.display());
        println!("replay with: chaos_fuzz --replay {}", path.display());
        std::process::exit(1);
    }
    println!("all {clean}/{runs} runs clean — no oracle violations");
}
