//! FoundationDB-style chaos harness: a global invariant battery
//! ([`ChaosOracle`]), automatic fault-schedule shrinking ([`shrink_events`],
//! ddmin), and deterministic JSON reproducers ([`Reproducer`]).
//!
//! The oracle is *observational*: it reads the simulation, the cluster and
//! the decision trace between ticks and records violations instead of
//! panicking, so a fuzz driver can harvest a failing schedule, shrink it
//! to a minimal reproducer and write the reproducer to disk. All checks
//! are off unless a runner opts in, so the oracle costs nothing on the
//! headline path.

use std::collections::BTreeMap;

use evolve_telemetry::trace::{ActuationOutcome, TraceEvent, TraceRing, TraceSignal};
use evolve_types::{
    AppId, Error, JobId, NodeId, PodId, PriorityClass, ResourceVec, SimDuration, SimTime,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::engine::Simulation;
use crate::faults::{FaultEvent, FaultKind, FaultPlan};
use crate::pod::PodKind;

/// At most this many violations are stored verbatim; the rest only count.
const MAX_RECORDED: usize = 64;

/// Ticks an app may spend consecutively shed or below its grant floor
/// before [`ChaosOracle::check_arbitration`] flags unbounded starvation.
/// Chosen above any transient the fault battery can cause (node-crash
/// downtimes span tens of ticks; slew-limited ramp-back a handful) so a
/// firing means the arbiter genuinely wedged an app, not that overload
/// lasted a while.
const STARVATION_BOUND: u32 = 128;

/// One app's slice of an arbitration round, flattened to plain data so the
/// oracle never depends on control-crate types. Produced by the runner
/// from the capacity arbiter's outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbitrationCheck {
    /// The application.
    pub app: AppId,
    /// Its overload priority class.
    pub class: PriorityClass,
    /// Total allocation the app's controller requested.
    pub requested: ResourceVec,
    /// What the arbiter granted.
    pub granted: ResourceVec,
    /// `true` when the app was shed outright (no actuation).
    pub shed: bool,
    /// `true` when the grant was reduced only by the recovery slew limit,
    /// not by capacity pressure.
    pub slew_limited: bool,
    /// `true` when the grant sits below the starvation floor
    /// (`floor_fraction × requested`).
    pub below_floor: bool,
    /// Consecutive arbitrations spent shed or below the floor.
    pub starvation_age: u32,
}

/// One invariant violation observed by the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleViolation {
    /// Simulated time of the observation.
    pub at: SimTime,
    /// Stable name of the violated check (e.g. `"gang_atomicity"`).
    pub check: String,
    /// Human-readable description of what was observed.
    pub detail: String,
}

/// The oracle's verdict for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleReport {
    /// The first [`MAX_RECORDED`] violations, in observation order.
    pub violations: Vec<OracleViolation>,
    /// Total violations observed (may exceed `violations.len()`).
    pub total_violations: u64,
    /// How many per-tick check batteries ran.
    pub ticks_checked: u64,
}

impl OracleReport {
    /// `true` when no invariant was violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// The distinct check names that fired, sorted and deduplicated.
    #[must_use]
    pub fn failed_checks(&self) -> Vec<String> {
        let mut names: Vec<String> = self.violations.iter().map(|v| v.check.clone()).collect();
        names.sort();
        names.dedup();
        names
    }
}

/// The invariant battery, checked between control ticks and at end of
/// run. Cluster-side checks read the simulation directly; controller-side
/// checks (PID freeze, checkpoint equivalence) are fed by the runner via
/// [`ChaosOracle::scan_trace`] and [`ChaosOracle::record_violation`].
#[derive(Debug, Default)]
pub struct ChaosOracle {
    report: OracleReport,
    last_now: SimTime,
    /// First-seen rank set per gang job: the conservation baseline.
    gangs: BTreeMap<JobId, Vec<u32>>,
    /// `len + dropped` watermark of the trace ring at the last scan.
    trace_seen: u64,
    /// Scratch: non-terminal ranks per job, rebuilt each tick.
    live_ranks: BTreeMap<JobId, Vec<u32>>,
}

impl ChaosOracle {
    /// A fresh oracle with no observations.
    #[must_use]
    pub fn new() -> Self {
        ChaosOracle::default()
    }

    /// Records a violation found by an external check (runner-side
    /// batteries such as checkpoint→restore equivalence).
    pub fn record_violation(&mut self, at: SimTime, check: &str, detail: String) {
        self.report.total_violations += 1;
        if self.report.violations.len() < MAX_RECORDED {
            self.report.violations.push(OracleViolation { at, check: check.to_string(), detail });
        }
    }

    /// Runs the cluster-side battery: monotone time, per-node capacity
    /// conservation, no pods on unready nodes, and gang-pod conservation
    /// across evict+requeue cycles.
    pub fn check_tick(&mut self, sim: &Simulation) {
        let now = sim.now();
        self.report.ticks_checked += 1;
        if now < self.last_now {
            self.record_violation(
                now,
                "monotone_time",
                format!(
                    "time went backwards: {} -> {}",
                    self.last_now.as_secs_f64(),
                    now.as_secs_f64()
                ),
            );
        }
        self.last_now = now;
        for v in sim.cluster().invariant_violations() {
            self.record_violation(now, "capacity_conservation", v);
        }
        for node in sim.cluster().nodes() {
            if !node.is_ready() && !node.pods().is_empty() {
                self.record_violation(
                    now,
                    "unready_node_hosts_pods",
                    format!("unready node {} still hosts {} pods", node.id(), node.pods().len()),
                );
            }
        }
        self.check_gang_conservation(sim, now);
    }

    /// No rank pod may be lost or duplicated across evict+requeue: an
    /// unfinished gang's non-terminal rank set must equal the set seen
    /// when the gang was created; a finished gang's must be empty.
    fn check_gang_conservation(&mut self, sim: &Simulation, now: SimTime) {
        self.live_ranks.clear();
        let mut live = std::mem::take(&mut self.live_ranks);
        for pod in sim.cluster().pods() {
            if let PodKind::HpcRank { job, rank, .. } = pod.spec.kind {
                if !pod.phase.is_terminal() {
                    live.entry(job).or_default().push(rank);
                }
            }
        }
        for ranks in live.values_mut() {
            ranks.sort_unstable();
        }
        for (&job, ranks) in &live {
            if ranks.windows(2).any(|w| w[0] == w[1]) {
                self.record_violation(
                    now,
                    "gang_pod_duplicated",
                    format!("job {job:?} has duplicate live rank pods: {ranks:?}"),
                );
            }
            match self.gangs.get(&job) {
                None => {
                    self.gangs.insert(job, ranks.clone());
                }
                Some(expected) if expected != ranks => {
                    let detail = format!(
                        "job {job:?} live ranks {ranks:?} != expected {expected:?} (pod lost or leaked)"
                    );
                    self.record_violation(now, "gang_pod_conservation", detail);
                }
                Some(_) => {}
            }
        }
        self.live_ranks = live;
    }

    /// Gang atomicity: if the scheduler bound at least one member of a
    /// gang this cycle, no member of that gang may be left pending — a
    /// rollback must undo the whole placement or none of it.
    pub fn check_gang_atomicity(&mut self, sim: &Simulation, newly_bound: &[PodId]) {
        if newly_bound.is_empty() {
            return;
        }
        let now = sim.now();
        let mut touched: Vec<JobId> = Vec::new();
        for &pod in newly_bound {
            if let Ok(p) = sim.cluster().pod(pod) {
                if let PodKind::HpcRank { job, .. } = p.spec.kind {
                    if !touched.contains(&job) {
                        touched.push(job);
                    }
                }
            }
        }
        if touched.is_empty() {
            return;
        }
        for pod in sim.cluster().pods() {
            if let PodKind::HpcRank { job, rank, .. } = pod.spec.kind {
                if pod.is_pending() && touched.contains(&job) {
                    self.record_violation(
                        now,
                        "gang_atomicity",
                        format!("job {job:?} rank {rank} left pending after a cycle that bound gang members"),
                    );
                }
            }
        }
    }

    /// Scans trace events appended since the last scan for controller
    /// discipline: a decision must never be `Applied` on a stale or
    /// missing signal (the PID must freeze / hold instead).
    pub fn scan_trace(&mut self, trace: &TraceRing) {
        let total = trace.len() as u64 + trace.dropped();
        let new = usize::try_from(total - self.trace_seen).unwrap_or(usize::MAX).min(trace.len());
        self.trace_seen = total;
        for ev in trace.events().skip(trace.len() - new) {
            if let TraceEvent::Control(c) = ev {
                if c.signal != TraceSignal::Fresh && c.outcome == ActuationOutcome::Applied {
                    self.record_violation(
                        c.at,
                        "pid_freeze",
                        format!(
                            "app {:?} applied a decision on a {} signal at tick {}",
                            c.app,
                            c.signal.as_str(),
                            c.tick
                        ),
                    );
                }
            }
        }
    }

    /// Runs the arbitration battery over one round of grant outcomes:
    ///
    /// * **Capacity conservation** — the sum of all grants must fit
    ///   within ready capacity; the arbiter must never promise resources
    ///   the cluster does not have.
    /// * **No priority inversion** — a `Preemptible` app must not hold a
    ///   non-zero grant while any `Critical` app sits below its floor for
    ///   capacity reasons (a `Critical` app ramping back through the slew
    ///   limiter is self-inflicted and excluded).
    /// * **Bounded starvation** — no `Critical` app may stay shed or
    ///   below its floor for more than [`STARVATION_BOUND`] consecutive
    ///   arbitrations.
    pub fn check_arbitration(
        &mut self,
        at: SimTime,
        entries: &[ArbitrationCheck],
        ready_capacity: ResourceVec,
    ) {
        let granted_total: ResourceVec = entries.iter().map(|e| e.granted).sum();
        if !granted_total.fits_within(&ready_capacity) {
            self.record_violation(
                at,
                "arbiter_capacity_conservation",
                format!(
                    "granted total {granted_total:?} exceeds ready capacity {ready_capacity:?}"
                ),
            );
        }
        let critical_starved: Vec<&ArbitrationCheck> = entries
            .iter()
            .filter(|e| {
                e.class == PriorityClass::Critical && e.below_floor && !e.slew_limited && !e.shed
            })
            .collect();
        if !critical_starved.is_empty() {
            for e in entries {
                if e.class == PriorityClass::Preemptible
                    && !e.shed
                    && e.granted != ResourceVec::ZERO
                {
                    self.record_violation(
                        at,
                        "arbiter_priority_inversion",
                        format!(
                            "preemptible app {:?} holds a grant while critical app {:?} is below its floor",
                            e.app, critical_starved[0].app
                        ),
                    );
                }
            }
        }
        for e in entries {
            if e.class == PriorityClass::Critical && e.starvation_age > STARVATION_BOUND {
                self.record_violation(
                    at,
                    "arbiter_bounded_starvation",
                    format!(
                        "critical app {:?} starved for {} consecutive arbitrations (bound {})",
                        e.app, e.starvation_age, STARVATION_BOUND
                    ),
                );
            }
        }
    }

    /// Final battery: one last tick check plus the remaining trace
    /// suffix, then the report.
    #[must_use]
    pub fn finish(mut self, sim: &Simulation, trace: &TraceRing) -> OracleReport {
        self.check_tick(sim);
        self.scan_trace(trace);
        self.report
    }

    /// The report accumulated so far (the run keeps going).
    #[must_use]
    pub fn report(&self) -> &OracleReport {
        &self.report
    }
}

// ---------------------------------------------------------------------
// Fault-schedule shrinking (ddmin)
// ---------------------------------------------------------------------

/// Delta-debugs a failing fault schedule to a locally minimal one:
/// removes event chunks (halves first, then single events), then
/// repeatedly halves durations/lags/cycles. `still_fails` must return
/// `true` when the candidate schedule still reproduces the violation; it
/// is never called with an empty schedule.
pub fn shrink_events<F>(events: &[FaultEvent], mut still_fails: F) -> Vec<FaultEvent>
where
    F: FnMut(&[FaultEvent]) -> bool,
{
    let mut cur: Vec<FaultEvent> = events.to_vec();
    if cur.is_empty() {
        return cur;
    }
    // Phase 1+2: ddmin chunk removal, from halves down to single events.
    let mut chunk = cur.len().div_ceil(2).max(1);
    loop {
        let mut removed = false;
        let mut start = 0;
        while start < cur.len() && cur.len() > 1 {
            let end = (start + chunk).min(cur.len());
            let mut cand = Vec::with_capacity(cur.len() - (end - start));
            cand.extend_from_slice(&cur[..start]);
            cand.extend_from_slice(&cur[end..]);
            if !cand.is_empty() && still_fails(&cand) {
                cur = cand;
                removed = true;
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            if !removed {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
    // Phase 3: shorten durations (and lags / flap cycles) greedily.
    for i in 0..cur.len() {
        for _ in 0..32 {
            let Some(smaller) = halved_kind(&cur[i].kind) else {
                break;
            };
            let prev = std::mem::replace(&mut cur[i].kind, smaller);
            if !still_fails(&cur) {
                cur[i].kind = prev;
                break;
            }
        }
    }
    cur
}

/// The next smaller version of a fault, or `None` when it is already at
/// its floor (1 s durations, 1 flap cycle).
fn halved_kind(kind: &FaultKind) -> Option<FaultKind> {
    const FLOOR: SimDuration = SimDuration::from_secs(1);
    let halve = |d: SimDuration| -> Option<SimDuration> { (d > FLOOR).then(|| (d / 2).max(FLOOR)) };
    match *kind {
        FaultKind::NodeCrash { node, downtime: Some(d) } => {
            halve(d).map(|d| FaultKind::NodeCrash { node, downtime: Some(d) })
        }
        FaultKind::NodeCrash { .. } | FaultKind::ControllerCrash => None,
        FaultKind::ScrapeBlackout { app, duration } => {
            halve(duration).map(|duration| FaultKind::ScrapeBlackout { app, duration })
        }
        FaultKind::MetricNoise { app, duration, cv } => {
            halve(duration).map(|duration| FaultKind::MetricNoise { app, duration, cv })
        }
        FaultKind::ControlStall { duration } => {
            halve(duration).map(|duration| FaultKind::ControlStall { duration })
        }
        FaultKind::ActuationDrop { duration } => {
            halve(duration).map(|duration| FaultKind::ActuationDrop { duration })
        }
        FaultKind::ActuationDelay { duration, lag } => halve(duration)
            .map(|duration| FaultKind::ActuationDelay { duration, lag })
            .or_else(|| halve(lag).map(|lag| FaultKind::ActuationDelay { duration, lag })),
        FaultKind::ActuationPartial { duration, fraction } => {
            halve(duration).map(|duration| FaultKind::ActuationPartial { duration, fraction })
        }
        FaultKind::NodeFlap { node, cycles, period } => (cycles > 1)
            .then(|| FaultKind::NodeFlap { node, cycles: (cycles / 2).max(1), period })
            .or_else(|| halve(period).map(|period| FaultKind::NodeFlap { node, cycles, period })),
    }
}

/// Builds a scheduled-only plan from an event list (the shrinker and the
/// replay path both work on plain event lists).
///
/// # Panics
///
/// Panics when an event fails [`FaultKind::validate`]; shrunk events stay
/// valid by construction.
#[must_use]
pub fn plan_from_events(events: &[FaultEvent]) -> FaultPlan {
    events.iter().fold(FaultPlan::new(), |p, ev| p.with_event(ev.at, ev.kind.clone()))
}

// ---------------------------------------------------------------------
// Random fault-plan generation
// ---------------------------------------------------------------------

/// Draws a seeded random scheduled-only fault schedule over `[0,
/// horizon)`: every fault class including the actuation-path kinds, with
/// parameters scaled to the horizon. Deterministic in `seed`.
#[must_use]
pub fn random_fault_events(
    seed: u64,
    horizon: SimDuration,
    nodes: usize,
    apps: usize,
    max_events: usize,
) -> Vec<FaultEvent> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc4a0_5bad);
    let horizon_s = horizon.as_secs_f64().max(10.0) as u64;
    // The vendored rand stub exposes only `gen::<f64>()`/`gen_range_f64`;
    // integer ranges are derived from the uniform f64 draw.
    let uniform = |rng: &mut ChaCha8Rng, lo: u64, hi: u64| -> u64 {
        let hi = hi.max(lo + 1);
        (lo + (rng.gen::<f64>() * (hi - lo) as f64) as u64).min(hi - 1)
    };
    let count = uniform(&mut rng, 1, max_events.max(1) as u64 + 1) as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let at = SimTime::from_secs(uniform(&mut rng, 1, horizon_s));
        let dur = SimDuration::from_secs(uniform(&mut rng, 5, (horizon_s / 3).max(6)));
        let kind = match uniform(&mut rng, 0, 9) {
            0 => FaultKind::NodeCrash {
                node: NodeId::new(uniform(&mut rng, 0, nodes.max(1) as u64) as u32),
                downtime: if rng.gen_bool(0.8) { Some(dur) } else { None },
            },
            1 => FaultKind::ScrapeBlackout { app: None, duration: dur },
            2 => FaultKind::ScrapeBlackout {
                app: Some(AppId::new(uniform(&mut rng, 0, apps.max(1) as u64) as u32)),
                duration: dur,
            },
            3 => FaultKind::MetricNoise {
                app: None,
                duration: dur,
                cv: rng.gen_range_f64(0.05, 0.8),
            },
            4 => FaultKind::ControlStall { duration: dur },
            5 => FaultKind::ActuationDrop { duration: dur },
            6 => FaultKind::ActuationDelay {
                duration: dur,
                lag: SimDuration::from_secs(uniform(&mut rng, 1, 30)),
            },
            7 => {
                FaultKind::ActuationPartial { duration: dur, fraction: rng.gen_range_f64(0.1, 1.0) }
            }
            _ => FaultKind::NodeFlap {
                node: NodeId::new(uniform(&mut rng, 0, nodes.max(1) as u64) as u32),
                cycles: uniform(&mut rng, 1, 6) as u32,
                period: SimDuration::from_secs(uniform(&mut rng, 4, 40)),
            },
        };
        out.push(FaultEvent { at, kind });
    }
    out.sort_by_key(|ev| ev.at);
    out
}

// ---------------------------------------------------------------------
// Deterministic JSON reproducer
// ---------------------------------------------------------------------

/// A self-contained, replayable description of one failing fuzz case:
/// run the named profile with this seed and this fault schedule and the
/// named check fires.
#[derive(Debug, Clone, PartialEq)]
pub struct Reproducer {
    /// Run seed.
    pub seed: u64,
    /// Workload-profile name understood by the fuzz driver.
    pub profile: String,
    /// Run horizon.
    pub horizon: SimDuration,
    /// Cluster node count.
    pub nodes: u32,
    /// The (minimized) fault schedule.
    pub events: Vec<FaultEvent>,
    /// The check that fired (first failed check).
    pub violation: String,
}

impl Reproducer {
    /// Serializes to deterministic JSON: fixed key order, integral
    /// microsecond timestamps, no whitespace variance.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.events.len() * 96);
        s.push_str("{\"version\":1,\"seed\":");
        s.push_str(&self.seed.to_string());
        s.push_str(",\"profile\":\"");
        push_escaped(&mut s, &self.profile);
        s.push_str("\",\"horizon_us\":");
        s.push_str(&self.horizon.as_micros().to_string());
        s.push_str(",\"nodes\":");
        s.push_str(&self.nodes.to_string());
        s.push_str(",\"violation\":\"");
        push_escaped(&mut s, &self.violation);
        s.push_str("\",\"events\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            write_event(&mut s, ev);
        }
        s.push_str("]}");
        s
    }

    /// Parses a reproducer previously written by [`Reproducer::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on malformed JSON, an unsupported
    /// version, or an unknown fault kind.
    pub fn from_json(text: &str) -> Result<Self, Error> {
        let root = parse_json(text)?;
        let obj = root.as_obj("reproducer")?;
        if get_u64(obj, "version")? != 1 {
            return Err(Error::InvalidConfig("unsupported reproducer version".into()));
        }
        let events_json = get(obj, "events")?.as_arr("events")?;
        let mut events = Vec::with_capacity(events_json.len());
        for ev in events_json {
            events.push(parse_event(ev.as_obj("event")?)?);
        }
        Ok(Reproducer {
            seed: get_u64(obj, "seed")?,
            profile: get(obj, "profile")?.as_str("profile")?.to_string(),
            horizon: SimDuration::from_micros(get_u64(obj, "horizon_us")?),
            nodes: u32::try_from(get_u64(obj, "nodes")?)
                .map_err(|_| Error::InvalidConfig("nodes out of range".into()))?,
            events,
            violation: get(obj, "violation")?.as_str("violation")?.to_string(),
        })
    }
}

fn write_event(s: &mut String, ev: &FaultEvent) {
    use std::fmt::Write;
    let _ = write!(s, "{{\"at_us\":{},\"kind\":\"{}\"", ev.at.as_micros(), ev.kind.label());
    match &ev.kind {
        FaultKind::NodeCrash { node, downtime } => {
            let _ = write!(s, ",\"node\":{}", node.as_usize());
            match downtime {
                Some(d) => {
                    let _ = write!(s, ",\"downtime_us\":{}", d.as_micros());
                }
                None => s.push_str(",\"downtime_us\":null"),
            }
        }
        FaultKind::ScrapeBlackout { app, duration } => {
            write_app(s, *app);
            let _ = write!(s, ",\"duration_us\":{}", duration.as_micros());
        }
        FaultKind::MetricNoise { app, duration, cv } => {
            write_app(s, *app);
            let _ = write!(s, ",\"duration_us\":{},\"cv\":{cv}", duration.as_micros());
        }
        FaultKind::ControlStall { duration } | FaultKind::ActuationDrop { duration } => {
            let _ = write!(s, ",\"duration_us\":{}", duration.as_micros());
        }
        FaultKind::ControllerCrash => {}
        FaultKind::ActuationDelay { duration, lag } => {
            let _ = write!(
                s,
                ",\"duration_us\":{},\"lag_us\":{}",
                duration.as_micros(),
                lag.as_micros()
            );
        }
        FaultKind::ActuationPartial { duration, fraction } => {
            let _ = write!(s, ",\"duration_us\":{},\"fraction\":{fraction}", duration.as_micros());
        }
        FaultKind::NodeFlap { node, cycles, period } => {
            let _ = write!(
                s,
                ",\"node\":{},\"cycles\":{cycles},\"period_us\":{}",
                node.as_usize(),
                period.as_micros()
            );
        }
    }
    s.push('}');
}

fn write_app(s: &mut String, app: Option<AppId>) {
    use std::fmt::Write;
    match app {
        Some(a) => {
            let _ = write!(s, ",\"app\":{}", a.as_usize());
        }
        None => s.push_str(",\"app\":null"),
    }
}

fn parse_event(obj: &[(String, Json)]) -> Result<FaultEvent, Error> {
    let at = SimTime::ZERO + SimDuration::from_micros(get_u64(obj, "at_us")?);
    let kind_name = get(obj, "kind")?.as_str("kind")?;
    let dur = |key: &str| -> Result<SimDuration, Error> {
        Ok(SimDuration::from_micros(get_u64(obj, key)?))
    };
    let kind = match kind_name {
        "node_crash" => FaultKind::NodeCrash {
            node: NodeId::new(
                u32::try_from(get_u64(obj, "node")?)
                    .map_err(|_| Error::InvalidConfig("node id out of range".into()))?,
            ),
            downtime: match get(obj, "downtime_us")? {
                Json::Null => None,
                v => Some(SimDuration::from_micros(v.as_u64("downtime_us")?)),
            },
        },
        "scrape_blackout" => {
            FaultKind::ScrapeBlackout { app: parse_app(obj)?, duration: dur("duration_us")? }
        }
        "metric_noise" => FaultKind::MetricNoise {
            app: parse_app(obj)?,
            duration: dur("duration_us")?,
            cv: get(obj, "cv")?.as_f64("cv")?,
        },
        "control_stall" => FaultKind::ControlStall { duration: dur("duration_us")? },
        "controller_crash" => FaultKind::ControllerCrash,
        "actuation_drop" => FaultKind::ActuationDrop { duration: dur("duration_us")? },
        "actuation_delay" => {
            FaultKind::ActuationDelay { duration: dur("duration_us")?, lag: dur("lag_us")? }
        }
        "actuation_partial" => FaultKind::ActuationPartial {
            duration: dur("duration_us")?,
            fraction: get(obj, "fraction")?.as_f64("fraction")?,
        },
        "node_flap" => FaultKind::NodeFlap {
            node: NodeId::new(
                u32::try_from(get_u64(obj, "node")?)
                    .map_err(|_| Error::InvalidConfig("node id out of range".into()))?,
            ),
            cycles: u32::try_from(get_u64(obj, "cycles")?)
                .map_err(|_| Error::InvalidConfig("cycles out of range".into()))?,
            period: dur("period_us")?,
        },
        other => {
            return Err(Error::InvalidConfig(format!("unknown fault kind {other:?}")));
        }
    };
    kind.validate()?;
    Ok(FaultEvent { at, kind })
}

fn parse_app(obj: &[(String, Json)]) -> Result<Option<AppId>, Error> {
    match get(obj, "app")? {
        Json::Null => Ok(None),
        v => Ok(Some(AppId::new(
            u32::try_from(v.as_u64("app")?)
                .map_err(|_| Error::InvalidConfig("app id out of range".into()))?,
        ))),
    }
}

// ---------------------------------------------------------------------
// Minimal JSON (vendored serde is a stub, so the reproducer format is
// read and written by hand; deterministic output needs that anyway).
// ---------------------------------------------------------------------

/// A parsed JSON value (reproducer subset: no exponent-heavy floats
/// beyond what `f64::from_str` accepts, escapes limited to `\"`, `\\`,
/// `\n`, `\t`).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_obj(&self, what: &str) -> Result<&[(String, Json)], Error> {
        match self {
            Json::Obj(fields) => Ok(fields),
            _ => Err(Error::InvalidConfig(format!("{what} must be a JSON object"))),
        }
    }

    fn as_arr(&self, what: &str) -> Result<&[Json], Error> {
        match self {
            Json::Arr(items) => Ok(items),
            _ => Err(Error::InvalidConfig(format!("{what} must be a JSON array"))),
        }
    }

    fn as_str(&self, what: &str) -> Result<&str, Error> {
        match self {
            Json::Str(s) => Ok(s),
            _ => Err(Error::InvalidConfig(format!("{what} must be a JSON string"))),
        }
    }

    fn as_f64(&self, what: &str) -> Result<f64, Error> {
        match self {
            Json::Num(n) => Ok(*n),
            _ => Err(Error::InvalidConfig(format!("{what} must be a JSON number"))),
        }
    }

    fn as_u64(&self, what: &str) -> Result<u64, Error> {
        let n = self.as_f64(what)?;
        if n < 0.0 || n.fract() != 0.0 || n > 9.0e15 {
            return Err(Error::InvalidConfig(format!("{what} must be a non-negative integer")));
        }
        Ok(n as u64)
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Result<&'a Json, Error> {
    obj.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| Error::InvalidConfig(format!("missing field {key:?}")))
}

fn get_u64(obj: &[(String, Json)], key: &str) -> Result<u64, Error> {
    get(obj, key)?.as_u64(key)
}

fn parse_json(text: &str) -> Result<Json, Error> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::InvalidConfig(format!("trailing bytes at offset {pos}")));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), Error> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(Error::InvalidConfig(format!("expected {:?} at offset {}", ch as char, *pos)))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, Error> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                expect(b, pos, b':')?;
                fields.push((key, parse_value(b, pos)?));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => {
                        return Err(Error::InvalidConfig(format!("bad object at offset {}", *pos)))
                    }
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(Error::InvalidConfig(format!("bad array at offset {}", *pos))),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b'n') if b[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(b't') if b[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if b[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(_) => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&b[start..*pos])
                .map_err(|_| Error::InvalidConfig("non-utf8 number".into()))?;
            text.parse::<f64>()
                .map(Json::Num)
                .map_err(|_| Error::InvalidConfig(format!("bad number {text:?}")))
        }
        None => Err(Error::InvalidConfig("unexpected end of input".into())),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, Error> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    _ => {
                        return Err(Error::InvalidConfig(format!(
                            "unsupported escape at offset {}",
                            *pos
                        )))
                    }
                }
                *pos += 1;
            }
            c => {
                // Multi-byte UTF-8 passes through unchanged.
                let len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let end = (*pos + len).min(b.len());
                out.push_str(
                    std::str::from_utf8(&b[*pos..end])
                        .map_err(|_| Error::InvalidConfig("non-utf8 string".into()))?,
                );
                *pos = end;
            }
        }
    }
    Err(Error::InvalidConfig("unterminated string".into()))
}

fn push_escaped(s: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            '\n' => s.push_str("\\n"),
            '\t' => s.push_str("\\t"),
            c => s.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent { at: SimTime::from_secs(at), kind }
    }

    fn stall(at: u64, dur: u64) -> FaultEvent {
        ev(at, FaultKind::ControlStall { duration: SimDuration::from_secs(dur) })
    }

    #[test]
    fn shrinker_finds_single_culprit() {
        // The "bug" fires iff the schedule contains the stall at t=70.
        let events: Vec<FaultEvent> = (0..16).map(|i| stall(10 + i * 10, 20)).collect();
        let mut calls = 0u32;
        let minimal = shrink_events(&events, |cand| {
            calls += 1;
            cand.iter().any(|e| e.at == SimTime::from_secs(70))
        });
        assert_eq!(minimal.len(), 1);
        assert_eq!(minimal[0].at, SimTime::from_secs(70));
        assert!(calls < 200, "ddmin should need far fewer runs than 2^16");
    }

    #[test]
    fn shrinker_keeps_interacting_pair() {
        // The bug needs both t=30 and t=110 present.
        let events: Vec<FaultEvent> = (0..12).map(|i| stall(10 + i * 10, 40)).collect();
        let minimal = shrink_events(&events, |cand| {
            let has = |t: u64| cand.iter().any(|e| e.at == SimTime::from_secs(t));
            has(30) && has(110)
        });
        assert_eq!(minimal.len(), 2);
    }

    #[test]
    fn shrinker_halves_durations_to_the_floor() {
        let events = vec![stall(10, 64)];
        let minimal = shrink_events(&events, |_| true);
        assert_eq!(minimal.len(), 1);
        let FaultKind::ControlStall { duration } = minimal[0].kind else {
            panic!("kind changed");
        };
        assert_eq!(duration, SimDuration::from_secs(1));
    }

    #[test]
    fn reproducer_json_round_trips_every_kind() {
        let events = vec![
            ev(
                10,
                FaultKind::NodeCrash {
                    node: NodeId::new(1),
                    downtime: Some(SimDuration::from_secs(40)),
                },
            ),
            ev(11, FaultKind::NodeCrash { node: NodeId::new(2), downtime: None }),
            ev(
                20,
                FaultKind::ScrapeBlackout {
                    app: Some(AppId::new(3)),
                    duration: SimDuration::from_secs(15),
                },
            ),
            ev(25, FaultKind::ScrapeBlackout { app: None, duration: SimDuration::from_secs(5) }),
            ev(
                30,
                FaultKind::MetricNoise {
                    app: None,
                    duration: SimDuration::from_secs(30),
                    cv: 0.25,
                },
            ),
            ev(40, FaultKind::ControlStall { duration: SimDuration::from_secs(12) }),
            ev(45, FaultKind::ControllerCrash),
            ev(50, FaultKind::ActuationDrop { duration: SimDuration::from_secs(33) }),
            ev(
                60,
                FaultKind::ActuationDelay {
                    duration: SimDuration::from_secs(20),
                    lag: SimDuration::from_secs(7),
                },
            ),
            ev(
                70,
                FaultKind::ActuationPartial { duration: SimDuration::from_secs(18), fraction: 0.5 },
            ),
            ev(
                80,
                FaultKind::NodeFlap {
                    node: NodeId::new(0),
                    cycles: 4,
                    period: SimDuration::from_secs(10),
                },
            ),
        ];
        let repro = Reproducer {
            seed: 1234,
            profile: "service_hpc".to_string(),
            horizon: SimDuration::from_secs(600),
            nodes: 6,
            events,
            violation: "gang_atomicity".to_string(),
        };
        let json = repro.to_json();
        let parsed = Reproducer::from_json(&json).expect("round trip");
        assert_eq!(parsed, repro);
        // Deterministic: serializing again yields the same bytes.
        assert_eq!(parsed.to_json(), json);
    }

    #[test]
    fn reproducer_rejects_malformed_input() {
        assert!(Reproducer::from_json("").is_err());
        assert!(Reproducer::from_json("{}").is_err());
        assert!(Reproducer::from_json("{\"version\":2}").is_err());
        let good = Reproducer {
            seed: 1,
            profile: "p".to_string(),
            horizon: SimDuration::from_secs(60),
            nodes: 2,
            events: vec![stall(5, 10)],
            violation: "x".to_string(),
        }
        .to_json();
        assert!(Reproducer::from_json(&good[..good.len() - 1]).is_err(), "truncation detected");
        let bad_kind = good.replace("control_stall", "warp_core_breach");
        assert!(Reproducer::from_json(&bad_kind).is_err());
    }

    #[test]
    fn random_events_are_seed_deterministic_and_valid() {
        let horizon = SimDuration::from_secs(600);
        let a = random_fault_events(9, horizon, 6, 3, 12);
        let b = random_fault_events(9, horizon, 6, 3, 12);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() <= 12);
        for ev in &a {
            ev.kind.validate().expect("generated faults are valid");
            assert!(ev.at < SimTime::ZERO + horizon);
        }
        let c = random_fault_events(10, horizon, 6, 3, 12);
        assert_ne!(a, c, "different seeds draw different schedules");
        // The generated schedule builds a valid plan.
        let plan = plan_from_events(&a);
        assert!(plan.validate(horizon).is_ok());
    }

    #[test]
    fn oracle_reports_clean_on_untouched_cluster() {
        use crate::{ClusterConfig, NodeShape, Simulation, SimulationConfig};
        use evolve_workload::ScenarioSpec;
        let scenario = ScenarioSpec::builtin("single_diurnal").unwrap().build();
        let sim = Simulation::new(
            SimulationConfig::default(),
            ClusterConfig::uniform(4, NodeShape::default()),
            &scenario.mix,
            42,
        );
        let mut oracle = ChaosOracle::new();
        oracle.check_tick(&sim);
        let trace = TraceRing::new(64);
        let report = oracle.finish(&sim, &trace);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.ticks_checked, 2);
    }

    #[test]
    fn oracle_flags_applied_on_degraded_signal() {
        use evolve_telemetry::trace::ControlTrace;
        use evolve_types::ResourceVec;
        let mut trace = TraceRing::new(16);
        trace.push(TraceEvent::Control(ControlTrace {
            tick: 3,
            at: SimTime::from_secs(15),
            app: AppId::new(0),
            signal: TraceSignal::Stale,
            measured: None,
            rate_rps: 0.0,
            replicas: 2,
            per_replica: ResourceVec::ZERO,
            outcome: ActuationOutcome::Applied,
            resize_failures: 0,
            explain: None,
        }));
        let mut oracle = ChaosOracle::new();
        oracle.scan_trace(&trace);
        assert_eq!(oracle.report().total_violations, 1);
        assert_eq!(oracle.report().violations[0].check, "pid_freeze");
        // Rescanning must not double-count already-seen events.
        oracle.scan_trace(&trace);
        assert_eq!(oracle.report().total_violations, 1);
    }
}
