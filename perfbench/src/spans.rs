//! In-memory span recorder and the per-layer self-time table built from it.
//!
//! The benchmark's driver records one span around each public call it makes
//! into a layer. A span's self time is its duration minus the part of that
//! interval its child spans cover; summing self times per layer therefore
//! charges every host nanosecond of a traced run to exactly one layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The layer a span is charged to. The names are the per-layer metric
/// prefixes printed by the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// One simulated run, from construction to the final summaries.
    Run,
    /// `Simulation::new`.
    SimSetup,
    /// One control tick (tick 0 is the initial placement pass); its self
    /// time is the driver's own glue between layer calls.
    Tick,
    /// `Simulation::run_until`: the engine drain and workload sampling.
    SimRunUntil,
    /// `ResourceManager::tick_traced`: control, plus arbitration when an
    /// arbiter is installed.
    Control,
    /// `SchedulerFramework::schedule_cycle_carried`.
    SchedCycle,
    /// `Simulation::bind_pod` / `Simulation::preempt_pod`.
    SimBind,
    /// `snapshot`, `UtilizationAccount::record` and `record_key`.
    TelemetryRecord,
    /// The `ChaosOracle` checks.
    Oracle,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 9] = [
        Layer::Run,
        Layer::SimSetup,
        Layer::Tick,
        Layer::SimRunUntil,
        Layer::Control,
        Layer::SchedCycle,
        Layer::SimBind,
        Layer::TelemetryRecord,
        Layer::Oracle,
    ];

    /// The span name written to the span dump.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Run => "run",
            Layer::SimSetup => "sim.setup",
            Layer::Tick => "core.tick",
            Layer::SimRunUntil => "sim.run_until",
            Layer::Control => "control.tick",
            Layer::SchedCycle => "sched.cycle",
            Layer::SimBind => "sim.bind",
            Layer::TelemetryRecord => "telemetry.record",
            Layer::Oracle => "oracle.check",
        }
    }
}

/// Index of a span in its recorder.
pub type SpanId = usize;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer the call belongs to.
    pub layer: Layer,
    /// Host nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Host nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The enclosing span (the tick, or the run for tick spans).
    pub parent: Option<SpanId>,
    /// The run it belongs to, as returned by [`Recorder::begin_run`].
    pub run: usize,
}

/// Spans of every traced run, kept in memory until the benchmark ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    runs: Vec<String>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), runs: Vec::new() }
    }
}

impl Recorder {
    /// Starts a run named `<workload>/<seed>`; later spans belong to it.
    /// Returns its index into [`Recorder::per_run`].
    pub fn begin_run(&mut self, id: String) -> usize {
        self.runs.push(id);
        self.runs.len() - 1
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that is closed later with [`Recorder::close`], so its
    /// children can name it as their parent.
    pub fn open(&mut self, layer: Layer, parent: Option<SpanId>, start: Instant) -> SpanId {
        let start_ns = self.ns(start);
        let run = self.runs.len().saturating_sub(1);
        self.spans.push(Span { layer, start_ns, end_ns: start_ns, parent, run });
        self.spans.len() - 1
    }

    /// Closes a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: SpanId, end: Instant) {
        self.spans[id].end_ns = self.ns(end);
    }

    /// Records a finished span.
    pub fn record(&mut self, layer: Layer, parent: Option<SpanId>, start: Instant, end: Instant) {
        let id = self.open(layer, parent, start);
        self.close(id, end);
    }

    /// Per-run layer totals, in run order.
    #[must_use]
    pub fn per_run(&self) -> Vec<LayerTotals> {
        let mut out = vec![LayerTotals::default(); self.runs.len()];
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        for (i, span) in self.spans.iter().enumerate() {
            let total = span.end_ns - span.start_ns;
            let entry = out[span.run].layers.entry(span.layer).or_default();
            entry.calls += 1;
            entry.total_ns += total;
            entry.self_ns += total.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans as JSON lines: run id, layer, start, end and parent.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"run\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                self.runs[s.run],
                s.layer.name(),
                s.start_ns,
                s.end_ns,
            );
        }
        out
    }
}

/// Call count, total and self time of one layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCost {
    /// Spans recorded.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed self times.
    pub self_ns: u64,
}

/// Layer costs of one traced run.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Cost per layer; layers without spans are absent.
    pub layers: BTreeMap<Layer, LayerCost>,
}

impl LayerTotals {
    /// The cost of one layer (zero when it recorded nothing).
    #[must_use]
    pub fn get(&self, layer: Layer) -> LayerCost {
        self.layers.get(&layer).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = Recorder::default();
        assert_eq!(rec.begin_run("w/1".into()), 0);
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let tick = rec.open(Layer::Tick, None, at(0));
        rec.record(Layer::SimRunUntil, Some(tick), at(1), at(5));
        rec.record(Layer::Control, Some(tick), at(5), at(8));
        rec.close(tick, at(10));
        let totals = &rec.per_run()[0];
        assert_eq!(totals.get(Layer::Tick).total_ns, 10_000_000);
        assert_eq!(totals.get(Layer::Tick).self_ns, 3_000_000);
        assert_eq!(totals.get(Layer::SimRunUntil).self_ns, 4_000_000);
        assert_eq!(totals.get(Layer::Oracle).calls, 0);
        assert!(rec.to_jsonl().contains("\"name\":\"control.tick\""));
    }
}
