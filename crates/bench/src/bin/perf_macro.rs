//! **Macro benchmark and perf-regression gate.** Runs one of two profiles
//! end to end, reports the [`RunPerf`] block of each iteration, and
//! updates the machine-readable `BENCH.json` with the best observed
//! simulated-seconds-per-wall-second. When a committed baseline exists the
//! binary exits non-zero on a regression beyond the tolerance, which is
//! what CI's `perf-smoke` and `scale-smoke` jobs enforce.
//!
//! Profiles (selected with `EVOLVE_PERF_SCENARIO`):
//!
//! * `headline` (default) — the standard headline scenario (EVOLVE
//!   manager, 20 nodes, seed 42, series recording on — the same
//!   configuration every table regenerates).
//! * `scaled` — the T8 `cluster_scale` scenario (1 000 nodes full /
//!   250 smoke, static replica management, indexed scheduling), guarding
//!   the large-cluster regime the feasibility index exists for.
//!
//! Each profile writes its own block into `BENCH.json`; the other
//! profile's block is preserved, so CI jobs can update them independently.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin perf_macro [iters]
//! ```
//!
//! Environment:
//!
//! * `EVOLVE_SMOKE=1` — shorten the horizon (and the scaled cluster) for
//!   CI.
//! * `EVOLVE_PERF_SCENARIO` — `headline` (default) or `scaled`.
//! * `EVOLVE_PERF_BASELINE` — baseline JSON path (default
//!   `crates/bench/perf_baseline.json`).
//! * `EVOLVE_PERF_TOLERANCE` — allowed fractional regression (default
//!   `0.25`, i.e. fail below 75 % of the baseline throughput).
//! * `EVOLVE_PERF_GATE=off` — measure and emit BENCH.json but never fail,
//!   for hardware where the committed baseline is meaningless.
//! * `EVOLVE_BENCH_JSON` — output path (default `BENCH.json` in the
//!   working directory).

use evolve::prelude::*;
use evolve_bench::{BenchArgs, BASE_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name).ok().filter(|v| !v.trim().is_empty()).unwrap_or_else(|| default.into())
}

/// Minimal flat-JSON number lookup (`"key": 123.4`) — the vendored serde
/// is a no-op stub, so the baseline file is parsed by hand. Good enough
/// for the flat objects this repo commits.
fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extracts the balanced `{ … }` object following `"name":` — hand-rolled
/// for the same reason as [`json_number`]. Returns the block including its
/// braces. The blocks this binary writes contain no string-embedded
/// braces, so a plain depth counter suffices.
fn extract_block(text: &str, name: &str) -> Option<String> {
    let needle = format!("\"{name}\"");
    let rest = &text[text.find(&needle)? + needle.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    if !rest.starts_with('{') {
        return None;
    }
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(rest[..=i].to_string());
                }
            }
            _ => {}
        }
    }
    None
}

fn print_perf(label: &str, p: &RunPerf) {
    println!(
        "{label}: {:.1} sim-s/wall-s ({:.3}s wall, {} ticks, {} events, \
         peak {} running pods, {} fast-path metric records)",
        p.sim_secs_per_wall_sec,
        p.wall_secs,
        p.ticks,
        p.events,
        p.peak_running_pods,
        p.fast_metric_records,
    );
}

fn main() -> ExitCode {
    let args = BenchArgs::parse(3);
    // The positional count sets the number of timed iterations here (no
    // simulation RNG is involved, so there is no seed set to speak of).
    let iters = args.seed_count();
    let smoke = args.smoke;
    let profile = env_or("EVOLVE_PERF_SCENARIO", "headline");
    let scaled = match profile.as_str() {
        "headline" => false,
        "scaled" => true,
        other => {
            eprintln!("unknown EVOLVE_PERF_SCENARIO `{other}` (use `headline` or `scaled`)");
            return ExitCode::FAILURE;
        }
    };
    let mode = if smoke { "smoke" } else { "full" };
    let config = if scaled {
        let nodes = if smoke { 250 } else { 1_000 };
        let apps = if smoke { 10 } else { 40 };
        let horizon = SimDuration::from_mins(if smoke { 2 } else { 10 });
        let spec = ScenarioSpec::cluster_scale(nodes, apps, horizon);
        RunConfig::from_spec(&spec, ManagerKind::KubeStatic)
            .scheduler(SchedulerProfile::Evolve)
            .record_series(false)
    } else {
        let mut spec = ScenarioSpec::builtin("headline").expect("builtin scenario");
        if smoke {
            spec.horizon = SimDuration::from_mins(3);
        }
        RunConfig::from_spec(&spec, ManagerKind::Evolve)
    }
    .seed(BASE_SEED)
    .build();
    let sim_secs = config.scenario.horizon.as_secs_f64();
    eprintln!(
        "perf_macro: {profile} scenario, {mode} mode ({sim_secs:.0} sim-s), \
         seed {BASE_SEED}, best of {iters} iteration(s)"
    );

    // Best-of-N on wall time: the simulation itself is deterministic, so
    // iterations differ only by machine noise and the fastest one is the
    // least-perturbed measurement.
    let mut best: Option<RunPerf> = None;
    for i in 0..iters {
        let outcome = ExperimentRunner::new(config.clone()).run();
        print_perf(&format!("iter {}", i + 1), &outcome.perf);
        if best.is_none()
            || outcome.perf.sim_secs_per_wall_sec
                > best.as_ref().expect("checked").sim_secs_per_wall_sec
        {
            best = Some(outcome.perf);
        }
    }
    let best = best.expect("at least one iteration");
    print_perf("best", &best);

    // Regression gate against the committed baseline. Headline keeps its
    // historical key names; the scaled profile prefixes its own.
    let tolerance: f64 = env_or("EVOLVE_PERF_TOLERANCE", "0.25")
        .parse()
        .ok()
        .filter(|t| (0.0..1.0).contains(t))
        .unwrap_or(0.25);
    let gate_on = !env_or("EVOLVE_PERF_GATE", "on").eq_ignore_ascii_case("off");
    let baseline_path =
        PathBuf::from(env_or("EVOLVE_PERF_BASELINE", "crates/bench/perf_baseline.json"));
    let baseline_key = if scaled {
        format!("scaled_{mode}_sim_secs_per_wall_sec")
    } else {
        format!("{mode}_sim_secs_per_wall_sec")
    };
    let baseline = std::fs::read_to_string(&baseline_path)
        .ok()
        .and_then(|text| json_number(&text, &baseline_key));

    let (pass, verdict) = match baseline {
        Some(base) => {
            let floor = base * (1.0 - tolerance);
            let ok = best.sim_secs_per_wall_sec >= floor;
            let ratio = best.sim_secs_per_wall_sec / base;
            println!(
                "baseline({profile}/{mode}) {base:.1} sim-s/wall-s, floor {floor:.1} \
                 (tolerance {:.0}%), measured {:.1} ({ratio:.2}x) => {}",
                tolerance * 100.0,
                best.sim_secs_per_wall_sec,
                if ok { "PASS" } else { "REGRESSION" },
            );
            (ok, if ok { "pass" } else { "regression" })
        }
        None => {
            eprintln!("no baseline `{baseline_key}` in {} — gate skipped", baseline_path.display());
            (true, "no-baseline")
        }
    };

    // Machine-readable artifact for CI and for trend tracking: one block
    // per profile, the other profile's block carried over verbatim.
    let block = format!(
        "{{\n    \"scenario\": \"{}\",\n    \"mode\": \"{mode}\",\n    \"seed\": {BASE_SEED},\n    \
         \"iterations\": {iters},\n    \"sim_secs\": {sim_secs:.1},\n    \
         \"ticks\": {},\n    \"events\": {},\n    \"wall_secs\": {:.4},\n    \
         \"sim_secs_per_wall_sec\": {:.1},\n    \"peak_running_pods\": {},\n    \
         \"filter_evals\": {},\n    \"feasibility_probes\": {},\n    \
         \"score_evals\": {},\n    \"fast_metric_records\": {},\n    \"baseline_sim_secs_per_wall_sec\": {},\n    \
         \"tolerance\": {tolerance},\n    \"gate\": \"{}\",\n    \"verdict\": \"{verdict}\"\n  }}",
        config.scenario.name,
        best.ticks,
        best.events,
        best.wall_secs,
        best.sim_secs_per_wall_sec,
        best.peak_running_pods,
        best.filter_evals,
        best.feasibility_probes,
        best.score_evals,
        best.fast_metric_records,
        baseline.map_or_else(|| "null".into(), |b| format!("{b:.1}")),
        if gate_on { "on" } else { "off" },
    );
    let out_path = PathBuf::from(env_or("EVOLVE_BENCH_JSON", "BENCH.json"));
    let existing = std::fs::read_to_string(&out_path).unwrap_or_default();
    let other_name = if scaled { "headline" } else { "scaled" };
    let other = extract_block(&existing, other_name);
    let mut json = String::from("{\n  \"benchmark\": \"perf_macro\",\n");
    let (first, second) =
        if scaled { (other_name, profile.as_str()) } else { (profile.as_str(), other_name) };
    for name in [first, second] {
        let body = if name == profile { Some(&block) } else { other.as_ref() };
        if let Some(body) = body {
            json.push_str(&format!("  \"{name}\": {body},\n"));
        }
    }
    json.truncate(json.trim_end_matches(",\n").len());
    json.push_str("\n}\n");
    match std::fs::write(&out_path, &json) {
        Ok(()) => eprintln!("wrote {} ({profile} block)", out_path.display()),
        Err(err) => {
            eprintln!("could not write {}: {err}", out_path.display());
            return ExitCode::FAILURE;
        }
    }

    if !pass && gate_on {
        eprintln!("perf gate FAILED (set EVOLVE_PERF_GATE=off to ignore)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{extract_block, json_number};

    #[test]
    fn json_number_finds_flat_keys() {
        let text = "{\n  \"a\": 1.5,\n  \"full_sim_secs_per_wall_sec\": 3100,\n  \"b\": -2e3\n}";
        assert_eq!(json_number(text, "a"), Some(1.5));
        assert_eq!(json_number(text, "full_sim_secs_per_wall_sec"), Some(3100.0));
        assert_eq!(json_number(text, "b"), Some(-2000.0));
        assert_eq!(json_number(text, "missing"), None);
    }

    #[test]
    fn extract_block_returns_balanced_objects() {
        let text = "{\n  \"benchmark\": \"perf_macro\",\n  \"headline\": {\n    \"mode\": \
                    \"smoke\",\n    \"nested\": { \"x\": 1 }\n  },\n  \"scaled\": { \"y\": 2 }\n}";
        let headline = extract_block(text, "headline").expect("headline block");
        assert!(headline.starts_with('{') && headline.ends_with('}'));
        assert!(headline.contains("\"nested\": { \"x\": 1 }"));
        assert_eq!(extract_block(text, "scaled").as_deref(), Some("{ \"y\": 2 }"));
        assert_eq!(extract_block(text, "missing"), None);
        assert_eq!(extract_block("{ \"headline\": [1, 2] }", "headline"), None);
    }
}
