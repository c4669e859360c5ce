//! **Simulator throughput** — events/second of the discrete-event engine
//! while serving an open-loop request stream, plus end-to-end
//! mini-experiment timing (the cost of regenerating a table cell).
//!
//! ```text
//! cargo bench -p evolve-bench --bench sim_throughput
//! ```

use criterion::{criterion_group, criterion_main, Criterion};
use evolve_core::{ExperimentRunner, ManagerKind, RunConfig};
use evolve_sim::{ClusterConfig, NodeShape, Simulation, SimulationConfig};
use evolve_types::SimTime;
use evolve_workload::ScenarioSpec;
use std::hint::black_box;

/// One two-replica service under constant load on `nodes` default nodes.
fn one_service(rate: f64, nodes: usize, horizon_secs: u64) -> ScenarioSpec {
    ScenarioSpec::from_toml_str(&format!(
        r#"
name = "mini"
horizon_secs = {horizon_secs}.0

[cluster]
nodes = {nodes}

[[service]]
name = "svc"
class = "rq"
demand = [20.0, 2.0, 0.2, 0.2]
demand_cv = 0.5
timeout_secs = 10.0
plo_p99_ms = 100.0
alloc = [2000.0, 2048.0, 50.0, 50.0]
replicas = 2

[service.load]
kind = "constant"
rate = {rate:?}
"#
    ))
    .expect("valid spec")
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    let mix = one_service(200.0, 2, 10).build().mix;
    group.bench_function("serve_10s_at_200rps", |b| {
        b.iter(|| {
            let mut sim = Simulation::new(
                SimulationConfig::default(),
                ClusterConfig::uniform(2, NodeShape::default()),
                &mix,
                7,
            );
            let pending: Vec<_> = sim.cluster().pending_pods().map(|p| p.id).collect();
            for pod in pending {
                let node = sim.cluster().nodes()[0].id();
                sim.bind_pod(pod, node).expect("binds");
            }
            sim.run_until(SimTime::from_secs(10));
            black_box(sim.events_processed())
        })
    });
    let spec = one_service(100.0, 3, 60);
    group.bench_function("mini_experiment_evolve_60s", |b| {
        b.iter(|| {
            let outcome = ExperimentRunner::new(
                RunConfig::from_spec(&spec, ManagerKind::Evolve)
                    .seed(7)
                    .record_series(false)
                    .build(),
            )
            .run();
            black_box(outcome.total_violation_rate())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
