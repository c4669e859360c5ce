//! Scratch diagnostics: per-app allocation/usage traces on the headline
//! mix under EVOLVE.

use evolve::prelude::*;

fn main() {
    let spec = ScenarioSpec::builtin("headline").expect("builtin scenario");
    let outcome =
        ExperimentRunner::new(RunConfig::from_spec(&spec, ManagerKind::Evolve).seed(42).build())
            .run();
    println!("app summaries:");
    for a in &outcome.apps {
        println!(
            "  {:12} {:8} windows {:4} viol {:4} compl {:8} timeouts {:5}",
            a.name,
            a.world.to_string(),
            a.windows,
            a.violations,
            a.completions,
            a.timeouts
        );
    }
    // Mean alloc_cpu and replicas per app over the run.
    for i in 0..11u32 {
        let alloc = outcome.registry.series(&format!("app{i}/alloc_cpu"));
        let reps = outcome.registry.series(&format!("app{i}/replicas"));
        let p99 = outcome.registry.series(&format!("app{i}/p99_ms"));
        if let (Some(alloc), Some(reps)) = (alloc, reps) {
            let mean_alloc = alloc.mean().unwrap_or(0.0);
            let max_alloc = alloc.iter().map(|s| s.value).fold(0.0f64, f64::max);
            let mean_reps = reps.mean().unwrap_or(0.0);
            let max_reps = reps.iter().map(|s| s.value).fold(0.0f64, f64::max);
            let mean_p99 = p99.and_then(|s| s.mean()).unwrap_or(-1.0);
            println!(
                "app{i}: mean_alloc_cpu {mean_alloc:9.0} max {max_alloc:9.0} mean_reps {mean_reps:5.2} max_reps {max_reps:3.0} mean_p99 {mean_p99:8.1}"
            );
        }
    }
}
