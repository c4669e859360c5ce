//! The spec → run-configuration seam: `RunConfig::from_spec` takes the
//! cluster shape, arbiter and fault plan from the spec, and the spec
//! layer's defaults agree with the simulator's.

use evolve_core::{ManagerKind, RunConfig};
use evolve_sim::{FaultPlan, NodeShape};
use evolve_types::{ResourceVec, SimDuration, SimTime};
use evolve_workload::{FaultSpec, ScenarioSpec, DEFAULT_NODE_CAPACITY};

/// The spec layer's default node capacity is the simulator's: a spec
/// without `[cluster] node_capacity` is validated against exactly the
/// node the runner will build.
#[test]
fn spec_default_capacity_matches_the_simulators() {
    assert_eq!(DEFAULT_NODE_CAPACITY, NodeShape::default().capacity);
}

/// A builtin's file sections reach the config unchanged, and edits to
/// the spec before `from_spec` are the way to override them.
#[test]
fn from_spec_applies_cluster_arbiter_and_faults() {
    let mut spec = ScenarioSpec::builtin("overload").expect("builtin");
    let config = RunConfig::from_spec(&spec, ManagerKind::Evolve).build();
    assert_eq!(config.scenario.name, spec.name);
    assert_eq!(config.nodes, 4);
    assert_eq!(config.node_shape, NodeShape::default());
    assert!(config.arbiter.is_some(), "overload.toml carries the arbiter");
    assert!(config.faults.is_empty());

    let capacity = ResourceVec::new(32_000.0, 131_072.0, 1_000.0, 2_500.0);
    spec.cluster.nodes = 9;
    spec.cluster.node_capacity = Some(capacity);
    spec.arbiter = None;
    spec.faults = vec![FaultSpec::ControllerCrash { at: SimTime::from_secs(30) }];
    spec.horizon = SimDuration::from_mins(1);
    let config = RunConfig::from_spec(&spec, ManagerKind::KubeStatic).build();
    assert_eq!(config.nodes, 9);
    assert_eq!(config.node_shape.capacity, capacity);
    assert!(config.arbiter.is_none());
    assert_eq!(config.faults, FaultPlan::new().with_controller_crash(SimTime::from_secs(30)));
    assert_eq!(config.scenario.horizon, SimDuration::from_mins(1));
}
