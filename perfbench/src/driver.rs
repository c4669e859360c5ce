//! The benchmark's own copy of the fault-free run loop, built from the
//! public calls `ExperimentRunner::run` makes, so each call into a layer can
//! be timed from outside the program.
//!
//! The loop must stay step-for-step equal to the runner's: every run's
//! [`Fingerprint`] is compared against `ExperimentRunner` for the same seed,
//! and a mismatch counts the run as failed.

use std::time::Instant;

use evolve::control::{ClipReason, GrantDecision};
use evolve::core::{ResourceManager, RunConfig, RunOutcome, SchedulerProfile};
use evolve::scheduler::{FeasibilityIndex, RequeueBackoff, SchedulerFramework};
use evolve::sim::{ArbitrationCheck, ChaosOracle, ClusterConfig, Simulation, SimulationConfig};
use evolve::telemetry::trace::{SpanKind, SpanTrace, TraceEvent, TraceRing};
use evolve::telemetry::{MetricKey, MetricRegistry, UtilizationAccount};
use evolve::types::{PodId, ResourceVec, SimTime};
use evolve::workload::SamplingMode;

use crate::spans::{Layer, Recorder, SpanId};

/// The deterministic outcome of one run, as both the driver and
/// `ExperimentRunner` report it. Two runs of one seed must agree on every
/// field.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    /// Simulation clock at the end.
    pub end_time: SimTime,
    /// Engine events processed.
    pub events: u64,
    /// Successful bindings.
    pub bindings: u64,
    /// Successful preemptions.
    pub preemptions: u64,
    /// PLO windows evaluated, across apps.
    pub windows: u64,
    /// PLO windows in violation, across apps.
    pub violations: u64,
    /// Completions across apps.
    pub completions: u64,
    /// Timeouts across apps.
    pub timeouts: u64,
    /// Requests shed at admission across apps.
    pub shed_requests: u64,
    /// Batch/HPC jobs that finished.
    pub jobs_finished: usize,
    /// Time-weighted mean allocated share per resource.
    pub allocated_share: ResourceVec,
    /// Time-weighted mean used share per resource.
    pub used_share: ResourceVec,
    /// Failed in-place resizes.
    pub resize_failures: u64,
    /// Actuations suppressed by the retry backoff.
    pub suppressed_actuations: u64,
    /// Allocations the arbiter clipped.
    pub clipped_allocations: u64,
    /// Arbitration rounds that shed an app.
    pub shed_decisions: u64,
    /// Series samples recorded through interned keys.
    pub metric_records: u64,
    /// Decision-trace events pushed (retained plus evicted).
    pub trace_events: u64,
    /// Oracle violations, when the oracle ran.
    pub oracle_violations: Option<u64>,
}

impl Fingerprint {
    /// The fingerprint of an `ExperimentRunner` outcome.
    #[must_use]
    pub fn of_outcome(o: &RunOutcome) -> Self {
        Fingerprint {
            end_time: o.end_time,
            events: o.events,
            bindings: o.bindings,
            preemptions: o.preemptions,
            windows: o.total_windows(),
            violations: o.total_violations(),
            completions: o.apps.iter().map(|a| a.completions).sum(),
            timeouts: o.apps.iter().map(|a| a.timeouts).sum(),
            shed_requests: o.shed_requests,
            jobs_finished: o.jobs.iter().filter(|j| j.finished.is_some()).count(),
            allocated_share: o.utilization.allocated_share,
            used_share: o.utilization.used_share,
            resize_failures: o.resize_failures,
            suppressed_actuations: o.suppressed_actuations,
            clipped_allocations: o.clipped_allocations,
            shed_decisions: o.shed_decisions,
            metric_records: o.registry.fast_path_records(),
            trace_events: o.trace.len() as u64 + o.trace.dropped(),
            oracle_violations: o.oracle.as_ref().map(|r| r.total_violations),
        }
    }

    /// Names the first field on which `other` differs, or `None` when the
    /// two agree.
    #[must_use]
    pub fn first_difference(&self, other: &Fingerprint) -> Option<String> {
        if self == other {
            return None;
        }
        let (a, b) = (format!("{self:?}"), format!("{other:?}"));
        let differing = a
            .split(", ")
            .zip(b.split(", "))
            .find(|(x, y)| x != y)
            .map_or_else(|| a.clone(), |(x, y)| format!("{x} vs {y}"));
        Some(differing)
    }
}

/// Work counters only the driver can see.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Control ticks (tick 0, the initial placement pass, excluded).
    pub ticks: u64,
    /// Managed applications.
    pub apps: u64,
    /// Σ `AppWindow.arrivals` over all harvested windows.
    pub arrivals: u64,
    /// Legacy-thinning bailouts (zero under batched sampling).
    pub thinning_bailouts: u64,
    /// `bind_pod` plus `preempt_pod` calls.
    pub bind_calls: u64,
    /// Scheduling cycles.
    pub cycles: u64,
    /// Bindings the scheduler planned.
    pub planned: u64,
    /// Pods a cycle left unschedulable.
    pub unschedulable: u64,
    /// Feasibility-index probes.
    pub index_probes: u64,
    /// Filter-plugin invocations.
    pub filter_evals: u64,
    /// `UtilizationAccount::record` plus `record_key` calls.
    pub telemetry_records: u64,
    /// Decision-trace events evicted from the ring.
    pub trace_dropped: u64,
}

/// Everything one driver run produced.
#[derive(Debug, Clone)]
pub struct DriverRun {
    /// The outcome to compare against the runner and against reruns.
    pub fingerprint: Fingerprint,
    /// Driver-only work counters.
    pub counters: Counters,
    /// Simulated seconds covered.
    pub sim_secs: f64,
    /// Host seconds from construction to the final summaries.
    pub wall_secs: f64,
    /// Host nanoseconds of each control tick: advance, control, schedule
    /// and record.
    pub tick_ns: Vec<u64>,
}

/// The simulation `ExperimentRunner` builds for `cfg`.
#[must_use]
pub fn new_simulation(cfg: &RunConfig) -> Simulation {
    let sim_config = SimulationConfig { sampling: SamplingMode::Batched, ..Default::default() };
    let cluster = ClusterConfig::uniform(cfg.nodes, cfg.node_shape);
    Simulation::new(sim_config, cluster, &cfg.scenario.mix, cfg.seed)
}

/// The manager `ExperimentRunner` builds for `cfg`, arbiter included.
#[must_use]
pub fn new_manager(cfg: &RunConfig, sim: &Simulation) -> ResourceManager {
    let mut manager = ResourceManager::new(cfg.manager.clone(), sim);
    if let Some(arb) = cfg.arbiter {
        manager.set_arbiter(arb);
    }
    manager
}

/// The scheduler `ExperimentRunner` builds for `cfg`.
#[must_use]
pub fn new_scheduler(cfg: &RunConfig) -> SchedulerFramework {
    let framework = match cfg.scheduler {
        SchedulerProfile::KubeDefault => SchedulerFramework::kube_default(),
        SchedulerProfile::Evolve => SchedulerFramework::evolve_default(),
        SchedulerProfile::Binpack => SchedulerFramework::binpack(),
    };
    framework.with_index(cfg.indexed_scheduling)
}

/// Optional span recording: with no recorder every method only runs the
/// call, so the untraced loop pays nothing for tracing.
struct Tracer<'a> {
    rec: Option<&'a mut Recorder>,
}

impl Tracer<'_> {
    fn open(&mut self, layer: Layer, parent: Option<SpanId>, start: Instant) -> Option<SpanId> {
        self.rec.as_deref_mut().map(|r| r.open(layer, parent, start))
    }

    fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let (Some(r), Some(id)) = (self.rec.as_deref_mut(), id) {
            r.close(id, end);
        }
    }

    fn record(&mut self, layer: Layer, parent: Option<SpanId>, start: Instant, end: Instant) {
        if let Some(r) = self.rec.as_deref_mut() {
            r.record(layer, parent, start, end);
        }
    }

    fn span<T>(&mut self, layer: Layer, parent: Option<SpanId>, call: impl FnOnce() -> T) -> T {
        match self.rec.as_deref_mut() {
            None => call(),
            Some(r) => {
                let start = Instant::now();
                let out = call();
                r.record(layer, parent, start, Instant::now());
                out
            }
        }
    }
}

/// Series keys interned up front, as the runner does.
struct SeriesKeys {
    cluster: [MetricKey; 5],
    apps: Vec<AppKeys>,
}

struct AppKeys {
    p99_name: String,
    p99_ms: Option<MetricKey>,
    /// rate_rps, replicas, alloc_cpu, usage_cpu, timeouts.
    keys: [MetricKey; 5],
}

impl SeriesKeys {
    fn new(registry: &mut MetricRegistry, sim: &Simulation) -> Self {
        let cluster = [
            "cluster/allocated_cpu_share",
            "cluster/used_cpu_share",
            "cluster/pods_running",
            "cluster/pods_pending",
            "cluster/nodes_ready",
        ]
        .map(|name| registry.key(name));
        let apps = sim
            .apps()
            .iter()
            .map(|s| {
                let prefix = format!("app{}", s.id.raw());
                AppKeys {
                    p99_name: format!("{prefix}/p99_ms"),
                    p99_ms: None,
                    keys: ["rate_rps", "replicas", "alloc_cpu", "usage_cpu", "timeouts"]
                        .map(|m| registry.key(&format!("{prefix}/{m}"))),
                }
            })
            .collect();
        SeriesKeys { cluster, apps }
    }
}

/// Mutable state of one run, shared by the placement pass and the ticks.
struct Run<'a> {
    tr: Tracer<'a>,
    sim: Simulation,
    scheduler: SchedulerFramework,
    backoff: RequeueBackoff,
    index: FeasibilityIndex,
    trace: TraceRing,
    oracle: Option<ChaosOracle>,
    newly_bound: Vec<PodId>,
    bindings: u64,
    preemptions: u64,
    c: Counters,
}

impl Run<'_> {
    /// One scheduling cycle and its bindings.
    fn schedule_pass(&mut self, tick: Option<SpanId>) {
        let Run { tr, sim, scheduler, backoff, index, trace, .. } = self;
        let plan = tr.span(Layer::SchedCycle, tick, || {
            scheduler.schedule_cycle_carried(sim.cluster(), backoff, index, sim.now(), trace)
        });
        self.c.cycles += 1;
        self.c.planned += plan.bindings.len() as u64;
        self.c.unschedulable += plan.unschedulable.len() as u64;
        self.c.index_probes += plan.index_probes;
        self.c.filter_evals += plan.filter_evals;
        for victim in &plan.preemptions {
            self.c.bind_calls += 1;
            if self.tr.span(Layer::SimBind, tick, || self.sim.preempt_pod(*victim)).is_ok() {
                self.preemptions += 1;
            }
        }
        for (pod, node) in &plan.bindings {
            self.c.bind_calls += 1;
            if self.tr.span(Layer::SimBind, tick, || self.sim.bind_pod(*pod, *node)).is_ok() {
                self.bindings += 1;
                if self.oracle.is_some() {
                    self.newly_bound.push(*pod);
                }
            }
        }
    }

    /// The oracle checks the runner makes after every scheduling pass.
    fn check_oracle(&mut self, tick: Option<SpanId>, manager: &ResourceManager, at: SimTime) {
        let Run { tr, sim, trace, oracle, newly_bound, .. } = self;
        let Some(orc) = oracle.as_mut() else { return };
        tr.span(Layer::Oracle, tick, || {
            orc.check_gang_atomicity(sim, newly_bound);
            orc.check_tick(sim);
            orc.scan_trace(trace);
            if manager.last_arbitration().is_empty() {
                return;
            }
            let floor = manager.arbiter().map_or(0.5, |a| a.config().floor_fraction);
            let entries: Vec<ArbitrationCheck> = manager
                .last_arbitration()
                .iter()
                .map(|o| ArbitrationCheck {
                    app: o.app,
                    class: o.class,
                    requested: o.requested,
                    granted: o.granted,
                    shed: o.is_shed(),
                    slew_limited: matches!(
                        o.decision,
                        GrantDecision::Clipped(ClipReason::SlewLimited)
                    ),
                    below_floor: !(o.requested * floor).fits_within(&o.granted),
                    starvation_age: o.starvation_age,
                })
                .collect();
            orc.check_arbitration(at, &entries, sim.cluster().total_allocatable());
        });
    }
}

fn elapsed_ns(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.duration_since(from).as_nanos()).unwrap_or(u64::MAX)
}

/// Runs `cfg` to its horizon through public calls, recording a span per
/// call when `rec` is given.
///
/// # Panics
///
/// Panics when `cfg` injects faults or asks for legacy sampling: the
/// driver replays the fault-free loop only.
#[must_use]
pub fn run(cfg: &RunConfig, rec: Option<&mut Recorder>) -> DriverRun {
    assert!(cfg.faults.is_empty(), "the driver replays the fault-free loop only");
    assert!(!cfg.legacy_sampling, "the driver replays batched sampling only");
    let mut tr = Tracer { rec };
    let started = Instant::now();
    let run_span = tr.open(Layer::Run, None, started);

    let sim = tr.span(Layer::SimSetup, run_span, || new_simulation(cfg));
    let mut manager = new_manager(cfg, &sim);
    let mut registry = MetricRegistry::new();
    let mut util = UtilizationAccount::new(sim.cluster().total_allocatable());
    let mut keys = cfg.record_series.then(|| SeriesKeys::new(&mut registry, &sim));
    let mut r = Run {
        tr,
        scheduler: new_scheduler(cfg),
        backoff: RequeueBackoff::new(),
        index: FeasibilityIndex::new(),
        trace: TraceRing::new(cfg.trace.capacity),
        oracle: cfg.oracle.then(ChaosOracle::new),
        newly_bound: Vec::new(),
        bindings: 0,
        preemptions: 0,
        c: Counters { apps: sim.apps().len() as u64, ..Counters::default() },
        sim,
    };
    let (mut completions, mut timeouts, mut shed_requests) = (0u64, 0u64, 0u64);

    // Tick 0: the initial placement pass, so t=0 pods place immediately.
    let tick = r.tr.open(Layer::Tick, run_span, Instant::now());
    r.schedule_pass(tick);
    r.check_oracle(tick, &manager, SimTime::ZERO);
    r.tr.close(tick, Instant::now());

    let horizon = SimTime::ZERO + cfg.scenario.horizon;
    let mut window_start = SimTime::ZERO;
    let mut tick_ns = Vec::new();
    while window_start < horizon {
        r.c.ticks += 1;
        let tick_started = Instant::now();
        let tick = r.tr.open(Layer::Tick, run_span, tick_started);
        let tick_end = (window_start + cfg.control_interval).min(horizon);
        r.tr.span(Layer::SimRunUntil, tick, || r.sim.run_until(tick_end));
        let window_secs = (tick_end - window_start).as_secs_f64();

        let control_started = Instant::now();
        let windows = manager.tick_traced(&mut r.sim, window_secs, None, Some(&mut r.trace));
        let sched_started = Instant::now();
        r.tr.record(Layer::Control, tick, control_started, sched_started);
        r.trace.push(TraceEvent::Span(SpanTrace {
            tick: r.c.ticks,
            at: tick_end,
            kind: SpanKind::Control,
            wall_ns: elapsed_ns(control_started, sched_started),
        }));
        r.newly_bound.clear();
        r.schedule_pass(tick);
        let record_started = Instant::now();
        r.trace.push(TraceEvent::Span(SpanTrace {
            tick: r.c.ticks,
            at: tick_end,
            kind: SpanKind::Sched,
            wall_ns: elapsed_ns(sched_started, record_started),
        }));

        let record_span = r.tr.open(Layer::TelemetryRecord, tick, record_started);
        let mut used = ResourceVec::ZERO;
        for (_, w) in &windows {
            used += w.usage;
            r.c.arrivals += w.arrivals;
            completions += w.completions;
            timeouts += w.timeouts;
            shed_requests += w.shed_requests;
        }
        let snap = r.sim.snapshot();
        util.record(snap.at, snap.allocated, used.min(&snap.allocatable));
        r.c.telemetry_records += 1;
        let oracle_started = Instant::now();
        r.tr.close(record_span, oracle_started);
        r.check_oracle(tick, &manager, tick_end);
        let series_started = Instant::now();
        if let Some(keys) = keys.as_mut() {
            let t = snap.at;
            let a = snap.allocatable.cpu();
            let share = |x: f64| if a > 0.0 { x / a } else { 0.0 };
            let [alloc_share, used_share, running, pending, ready] = keys.cluster;
            registry.record_key(alloc_share, t, share(snap.allocated.cpu()));
            registry.record_key(used_share, t, share(used.cpu()));
            registry.record_key(running, t, f64::from(snap.pods_running));
            registry.record_key(pending, t, f64::from(snap.pods_pending));
            registry.record_key(ready, t, f64::from(snap.nodes_ready));
            for (app, w) in &windows {
                let k = &mut keys.apps[app.as_usize()];
                if let Some(p99) = w.p99_ms {
                    let key = *k.p99_ms.get_or_insert_with(|| registry.key(&k.p99_name));
                    registry.record_key(key, t, p99);
                }
                let [rate, replicas, alloc_cpu, usage_cpu, app_timeouts] = k.keys;
                registry.record_key(rate, t, w.arrivals as f64 / window_secs);
                registry.record_key(replicas, t, f64::from(w.running_replicas));
                registry.record_key(alloc_cpu, t, w.alloc.cpu());
                registry.record_key(usage_cpu, t, w.usage.cpu());
                registry.record_key(app_timeouts, t, w.timeouts as f64);
            }
        }
        let record_ended = Instant::now();
        r.tr.record(Layer::TelemetryRecord, tick, series_started, record_ended);
        r.trace.push(TraceEvent::Span(SpanTrace {
            tick: r.c.ticks,
            at: tick_end,
            kind: SpanKind::Record,
            wall_ns: elapsed_ns(record_started, record_ended),
        }));
        window_start = tick_end;
        let tick_ended = Instant::now();
        r.tr.close(tick, tick_ended);
        tick_ns.push(elapsed_ns(tick_started, tick_ended));
    }

    let utilization = util.finish(r.sim.now());
    let (mut windows, mut violations) = (0u64, 0u64);
    for status in r.sim.apps() {
        if let Some(t) = manager.tracker(status.id) {
            windows += t.windows();
            violations += t.violations();
        }
    }
    let jobs_finished = r.sim.job_outcomes().iter().filter(|j| j.finished.is_some()).count();
    let oracle_violations = r.oracle.take().map(|o| o.finish(&r.sim, &r.trace).total_violations);
    r.c.thinning_bailouts = r.sim.thinning_bailouts();
    r.c.telemetry_records += registry.fast_path_records();
    r.c.trace_dropped = r.trace.dropped();
    let ended = Instant::now();
    r.tr.close(run_span, ended);
    DriverRun {
        fingerprint: Fingerprint {
            end_time: r.sim.now(),
            events: r.sim.events_processed(),
            bindings: r.bindings,
            preemptions: r.preemptions,
            windows,
            violations,
            completions,
            timeouts,
            shed_requests,
            jobs_finished,
            allocated_share: utilization.allocated_share,
            used_share: utilization.used_share,
            resize_failures: manager.resize_failures(),
            suppressed_actuations: manager.suppressed_actuations(),
            clipped_allocations: manager.clipped_allocations(),
            shed_decisions: manager.shed_decisions(),
            metric_records: registry.fast_path_records(),
            trace_events: r.trace.len() as u64 + r.trace.dropped(),
            oracle_violations,
        },
        counters: r.c,
        sim_secs: r.sim.now().as_secs_f64(),
        wall_secs: ended.duration_since(started).as_secs_f64(),
        tick_ns,
    }
}
