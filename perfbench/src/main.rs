//! End-to-end and per-layer benchmark of the EVOLVE simulator.
//!
//! ```text
//! cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload headline --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process, one thread. A closed batch loop runs the workload's seeds
//! back to back (each simulated run starts when the previous one ends)
//! until `--seconds` have passed, in whole rounds over the seed set. With
//! `--trace 0` the runs are untraced and the end-to-end metrics are
//! printed; with `--trace 1` every seed runs untraced and then traced, and
//! the per-layer metrics are printed. Every seed is finally run once more
//! through `ExperimentRunner`, and any disagreement counts as a failed run.
//! Every host time is scaled to a reference host speed by a probe timed
//! between the runs (see `probe.rs`).
//! The last line of standard output is one JSON object. See README.md.

mod driver;
mod heap;
mod probe;
mod spans;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use evolve::core::{ExperimentRunner, ManagerKind, RunConfig, SchedulerProfile};
use evolve::scheduler::FeasibilityIndex;
use evolve::workload::ScenarioSpec;

use driver::{DriverRun, Fingerprint};
use spans::{Layer, LayerTotals, Recorder};

/// One benchmark workload: a checked-in scenario spec plus the run
/// settings the spec does not carry.
#[derive(Debug)]
struct Workload {
    name: &'static str,
    /// File name under `perfbench/specs/`.
    spec: &'static str,
    /// Distinct seeds per round; the simulated quality metrics aggregate
    /// over exactly these runs, so they do not depend on host speed.
    seeds: u64,
    record_series: bool,
    oracle: bool,
}

/// Why each workload exists is recorded in README.md.
const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "headline",
        spec: "headline.toml",
        seeds: 8,
        record_series: true,
        oracle: false,
    },
    Workload {
        name: "scale_evolve",
        spec: "scale_evolve.toml",
        seeds: 2,
        record_series: false,
        oracle: false,
    },
    Workload {
        name: "overload",
        spec: "overload.toml",
        seeds: 8,
        record_series: false,
        oracle: true,
    },
];

/// Set-ups measured before each simulated run of the timed phase. Spread
/// over the whole phase, their median sees the same host as the runs do
/// rather than one burst at process start.
const SETUPS_PER_RUN: usize = 3;

#[derive(Debug)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn spec_path(w: &Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("specs").join(w.spec)
}

/// The run configuration, loaded only through `from_file` → `from_spec`.
fn config(w: &Workload, spec: &ScenarioSpec, seed: u64) -> RunConfig {
    RunConfig::from_spec(spec, ManagerKind::Evolve)
        .seed(seed)
        .scheduler(SchedulerProfile::Evolve)
        .record_series(w.record_series)
        .oracle(w.oracle)
        .build()
}

/// One set-up: spec parse, then construction of the simulation, manager,
/// scheduler and index. Returns (parse, construct) host seconds.
fn setup_once(w: &Workload, seed: u64) -> Result<(f64, f64), String> {
    let t0 = Instant::now();
    let spec = ScenarioSpec::from_file(spec_path(w)).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let cfg = config(w, &spec, seed);
    let sim = driver::new_simulation(&cfg);
    let manager = driver::new_manager(&cfg, &sim);
    let scheduler = driver::new_scheduler(&cfg);
    let index = FeasibilityIndex::new();
    let t2 = Instant::now();
    std::hint::black_box((&sim, &manager, &scheduler, &index));
    Ok((t1.duration_since(t0).as_secs_f64(), t2.duration_since(t1).as_secs_f64()))
}

/// Why a run counts as failed, or `Ok` when it passed every check.
fn check_run(
    expected: Option<&Fingerprint>,
    got: &Fingerprint,
    require_clean_oracle: bool,
) -> Result<(), String> {
    if let Some(diff) = expected.and_then(|e| e.first_difference(got)) {
        return Err(format!("outcome differs for the same seed: {diff}"));
    }
    if require_clean_oracle && got.oracle_violations != Some(0) {
        return Err(format!("oracle reported {:?} violations", got.oracle_violations));
    }
    Ok(())
}

/// Runs `call`, turning a panic into an error message.
fn guarded<T>(call: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(call)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())
    })
}

/// Median of a non-empty sample (0 for an empty one).
fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of a sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Host and source identity, printed with every result.
fn provenance(args: &Args, seeds: &[u64]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown (not a git checkout)".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let seeds = seeds.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
    format!(
        "{{\"nproc\":{nproc},\"cpu\":{},\"commit\":{},\"workload\":\"{}\",\"seed\":{},\
         \"seeds\":[{seeds}],\"run_seconds\":{},\"trace\":{}}}",
        json_str(&cpu),
        json_str(&commit),
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

/// One reported metric.
#[derive(Debug)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end metrics (`--trace 0`).
fn end_to_end_metrics(timed: &TimedPhase) -> Vec<Metric> {
    let mut ticks: Vec<f64> = timed
        .untraced
        .iter()
        .flat_map(|m| m.run.tick_ns.iter().map(|&ns| ns as f64 * m.scale))
        .collect();
    ticks.sort_by(f64::total_cmp);
    let round: Vec<&Fingerprint> = timed.first.iter().flatten().collect();
    let windows: u64 = round.iter().map(|f| f.windows).sum();
    let violations: u64 = round.iter().map(|f| f.violations).sum();
    let used_cpu: f64 = round.iter().map(|f| f.used_share.cpu()).sum();
    vec![
        // Summed over the whole timed phase rather than a median of runs:
        // host speed drifts, and a sum averages it where a median picks one
        // run.
        metric(
            "sim_s_per_wall_s",
            "sim-s/s",
            ratio(
                timed.untraced.iter().map(|m| m.run.sim_secs).sum(),
                timed.untraced.iter().map(|m| m.run.wall_secs * m.scale).sum(),
            ),
        ),
        metric("tick_ms_p50", "ms", percentile(&ticks, 0.5) / 1e6),
        metric("tick_ms_p90", "ms", percentile(&ticks, 0.9) / 1e6),
        metric("setup_s", "s", median(timed.setup_total.clone())),
        metric(
            "peak_heap_mib",
            "MiB",
            median(timed.heap_peaks.iter().map(|&b| b as f64 / (1024.0 * 1024.0)).collect()),
        ),
        metric("plo_violation_rate", "ratio", ratio(violations as f64, windows as f64)),
        metric("used_cpu_share", "ratio", ratio(used_cpu, round.len() as f64)),
    ]
}

/// A traced run with its span totals and host-speed scale.
type Traced<'a> = (&'a DriverRun, &'a LayerTotals, f64);

/// The per-layer metrics (`--trace 1`): times are medians over the traced
/// runs, scaled like the end-to-end ones; counts are means per run.
fn per_layer_metrics(timed: &TimedPhase, traced: &[Traced], failed_run_ratio: f64) -> Vec<Metric> {
    let spec_parse_ms = median(timed.setup_parse.iter().map(|s| s * 1e3).collect());
    let self_ns = |l: Layer, t: &LayerTotals| t.get(l).self_ns as f64;
    let ms = |l: Layer| median(traced.iter().map(|(_, t, s)| self_ns(l, t) * s / 1e6).collect());
    let per_run = |f: &dyn Fn(&DriverRun, &LayerTotals, f64) -> f64| {
        median(traced.iter().map(|&(r, t, s)| f(r, t, s)).collect())
    };
    let mean = |f: &dyn Fn(&DriverRun) -> f64| {
        ratio(traced.iter().map(|(r, _, _)| f(r)).sum(), traced.len() as f64)
    };
    vec![
        metric("workload.spec_parse_ms", "ms", spec_parse_ms),
        metric("workload.arrivals", "count", mean(&|r| r.counters.arrivals as f64)),
        metric(
            "workload.thinning_bailouts",
            "count",
            mean(&|r| r.counters.thinning_bailouts as f64),
        ),
        metric("sim.setup_ms", "ms", ms(Layer::SimSetup)),
        metric("sim.run_until_ms", "ms", ms(Layer::SimRunUntil)),
        metric("sim.events", "count", mean(&|r| r.fingerprint.events as f64)),
        metric(
            "sim.ns_per_event",
            "ns",
            per_run(&|r, t, s| {
                ratio(self_ns(Layer::SimRunUntil, t) * s, r.fingerprint.events as f64)
            }),
        ),
        metric("sim.bind_ms", "ms", ms(Layer::SimBind)),
        metric(
            "sim.bind_ok_ratio",
            "ratio",
            mean(&|r| {
                let ok = r.fingerprint.bindings + r.fingerprint.preemptions;
                ratio(ok as f64, r.counters.bind_calls as f64)
            }),
        ),
        metric("control.tick_ms", "ms", ms(Layer::Control)),
        metric(
            "control.us_per_app_tick",
            "us",
            per_run(&|r, t, s| {
                let app_ticks = (r.counters.ticks * r.counters.apps) as f64;
                ratio(self_ns(Layer::Control, t) * s / 1e3, app_ticks)
            }),
        ),
        metric(
            "control.suppressed_actuations",
            "count",
            mean(&|r| r.fingerprint.suppressed_actuations as f64),
        ),
        metric("control.resize_failures", "count", mean(&|r| r.fingerprint.resize_failures as f64)),
        metric(
            "arbiter.clipped_allocations",
            "count",
            mean(&|r| r.fingerprint.clipped_allocations as f64),
        ),
        metric("arbiter.shed_decisions", "count", mean(&|r| r.fingerprint.shed_decisions as f64)),
        metric("sched.cycle_ms", "ms", ms(Layer::SchedCycle)),
        metric("sched.cycles", "count", mean(&|r| r.counters.cycles as f64)),
        metric("sched.bindings", "count", mean(&|r| r.fingerprint.bindings as f64)),
        metric("sched.preemptions", "count", mean(&|r| r.fingerprint.preemptions as f64)),
        metric("sched.index_probes", "count", mean(&|r| r.counters.index_probes as f64)),
        metric("sched.filter_evals", "count", mean(&|r| r.counters.filter_evals as f64)),
        metric(
            "sched.probes_per_binding",
            "ratio",
            mean(&|r| ratio(r.counters.index_probes as f64, r.fingerprint.bindings as f64)),
        ),
        metric(
            "sched.placement_ratio",
            "ratio",
            mean(&|r| {
                let c = &r.counters;
                ratio(c.planned as f64, (c.planned + c.unschedulable) as f64)
            }),
        ),
        metric("telemetry.record_ms", "ms", ms(Layer::TelemetryRecord)),
        metric("telemetry.records", "count", mean(&|r| r.counters.telemetry_records as f64)),
        metric("trace.events", "count", mean(&|r| r.fingerprint.trace_events as f64)),
        metric("trace.dropped", "count", mean(&|r| r.counters.trace_dropped as f64)),
        metric("trace.overhead_ratio", "ratio", median(timed.overhead.clone())),
        metric("oracle.check_ms", "ms", ms(Layer::Oracle)),
        metric(
            "oracle.violations",
            "count",
            mean(&|r| r.fingerprint.oracle_violations.unwrap_or(0) as f64),
        ),
        metric("core.glue_ms", "ms", ms(Layer::Tick)),
        metric(
            "core.unattributed_share",
            "ratio",
            per_run(&|_, t, _| ratio(self_ns(Layer::Tick, t), t.get(Layer::Tick).total_ns as f64)),
        ),
        metric("run.failed_run_ratio", "ratio", failed_run_ratio),
        metric("run.ticks", "count", mean(&|r| r.counters.ticks as f64)),
    ]
}

/// The per-layer table: calls, total and self time per run, and each
/// layer's share of tick wall time. Times here are as measured, unscaled.
fn layer_table(traced: &[Traced]) -> String {
    let runs = traced.len().max(1) as f64;
    let tick_ns: f64 = traced.iter().map(|(_, t, _)| t.get(Layer::Tick).total_ns as f64).sum();
    let mut out = String::from(
        "layer              calls/run   total ms/run    self ms/run  share of tick time\n",
    );
    for layer in Layer::ALL {
        let (mut calls, mut total, mut own) = (0u64, 0u64, 0u64);
        for (_, t, _) in traced {
            let c = t.get(layer);
            calls += c.calls;
            total += c.total_ns;
            own += c.self_ns;
        }
        let share = match layer {
            Layer::Run | Layer::SimSetup => "-".to_string(),
            _ => format!("{:.2} %", 100.0 * ratio(own as f64, tick_ns)),
        };
        let _ = writeln!(
            out,
            "{:<18} {:>10.1} {:>14.3} {:>14.3}  {share}",
            layer.name(),
            calls as f64 / runs,
            total as f64 / runs / 1e6,
            own as f64 / runs / 1e6,
        );
    }
    out
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Attempted runs and one message per failed run.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

/// A run with the factor that scales its host times to the reference host
/// speed: [`probe::REFERENCE_NS`] over the mean probe time around the run.
#[derive(Debug)]
struct Measured {
    run: DriverRun,
    scale: f64,
}

/// Everything the timed phase produced.
#[derive(Debug, Default)]
struct TimedPhase {
    rounds: u32,
    secs: f64,
    untraced: Vec<Measured>,
    /// Traced runs with their recorder run index.
    traced: Vec<(usize, Measured)>,
    /// Traced sim-s/s over the untraced run of the same seed and round.
    overhead: Vec<f64>,
    /// Heap high-water mark of each untraced run, in bytes above the
    /// live heap when the run started.
    heap_peaks: Vec<usize>,
    /// The first outcome of each seed, which every later run must match.
    first: Vec<Option<Fingerprint>>,
    /// Scaled set-up seconds: spec parse, and parse plus construction.
    setup_parse: Vec<f64>,
    setup_total: Vec<f64>,
}

/// The closed loop: whole rounds over the seed set until `args.seconds`
/// have passed (at least two rounds untraced, so every seed runs twice).
/// The probe runs between every two simulated runs.
fn timed_phase(
    args: &Args,
    configs: &[RunConfig],
    recorder: &mut Recorder,
    tally: &mut Tally,
) -> TimedPhase {
    let w = args.workload;
    let mut out = TimedPhase { first: vec![None; configs.len()], ..TimedPhase::default() };
    let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let min_rounds = if args.trace { 1 } else { 2 };
    let mut probe_ns = probe::warm_up();
    let started = Instant::now();
    while out.rounds < min_rounds || started.elapsed().as_secs_f64() < args.seconds {
        out.rounds += 1;
        for (i, cfg) in configs.iter().enumerate() {
            let mut untraced_rate = None;
            let setup_scale = probe::REFERENCE_NS / probe_ns;
            for _ in 0..SETUPS_PER_RUN {
                match setup_once(w, cfg.seed) {
                    Ok((parse, construct)) => {
                        out.setup_parse.push(parse * setup_scale);
                        out.setup_total.push((parse + construct) * setup_scale);
                    }
                    Err(e) => {
                        tally.attempted += 1;
                        tally.failures.push(format!("seed {}: set-up: {e}", cfg.seed));
                    }
                }
            }
            for &with_spans in passes {
                tally.attempted += 1;
                let mut span_run = None;
                let heap_base = heap::live();
                heap::reset_peak();
                let result = guarded(|| {
                    if with_spans {
                        span_run = Some(recorder.begin_run(format!("{}/{}", w.name, cfg.seed)));
                        driver::run(cfg, Some(&mut *recorder))
                    } else {
                        driver::run(cfg, None)
                    }
                });
                let heap_peak = heap::peak().saturating_sub(heap_base);
                let probe_after = probe::time_ns();
                let scale = 2.0 * probe::REFERENCE_NS / (probe_ns + probe_after);
                probe_ns = probe_after;
                let run = match result {
                    Ok(run) => run,
                    Err(e) => {
                        tally.failures.push(format!("seed {}: panicked: {e}", cfg.seed));
                        continue;
                    }
                };
                if let Err(e) = check_run(out.first[i].as_ref(), &run.fingerprint, w.oracle) {
                    tally.failures.push(format!("seed {}: {e}", cfg.seed));
                }
                out.first[i].get_or_insert_with(|| run.fingerprint.clone());
                let rate = ratio(run.sim_secs, run.wall_secs * scale);
                let measured = Measured { run, scale };
                match span_run {
                    Some(id) => {
                        out.overhead.extend(untraced_rate.map(|u| rate / u));
                        out.traced.push((id, measured));
                    }
                    None => {
                        untraced_rate = Some(rate);
                        out.heap_peaks.push(heap_peak);
                        out.untraced.push(measured);
                    }
                }
            }
        }
    }
    out.secs = started.elapsed().as_secs_f64();
    out
}

/// Runs every seed once through `ExperimentRunner`, which must agree with
/// the driver. Returns the runner's sim-s/s.
fn reference_phase(
    w: &Workload,
    configs: &[RunConfig],
    first: &[Option<Fingerprint>],
    tally: &mut Tally,
) -> f64 {
    let (mut sim, mut wall) = (0.0, 0.0);
    for (cfg, expected) in configs.iter().zip(first) {
        tally.attempted += 1;
        match guarded(|| ExperimentRunner::new(cfg.clone()).run()) {
            Ok(outcome) => {
                sim += outcome.end_time.as_secs_f64();
                wall += outcome.perf.wall_secs;
                let fp = Fingerprint::of_outcome(&outcome);
                if let Err(e) = check_run(expected.as_ref(), &fp, w.oracle) {
                    tally.failures.push(format!("seed {} (ExperimentRunner): {e}", cfg.seed));
                }
            }
            Err(e) => {
                tally.failures.push(format!("seed {} (ExperimentRunner): panicked: {e}", cfg.seed));
            }
        }
    }
    ratio(sim, wall)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <headline|scale_evolve|overload> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let seeds: Vec<u64> =
        (0..w.seeds).map(|i| args.seed.wrapping_mul(1000).wrapping_add(i)).collect();
    let provenance = provenance(&args, &seeds);
    println!("provenance: {provenance}");

    let spec = match ScenarioSpec::from_file(spec_path(w)) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("error: cannot load {}: {e}", spec_path(w).display());
            return ExitCode::FAILURE;
        }
    };
    let configs: Vec<RunConfig> = seeds.iter().map(|&s| config(w, &spec, s)).collect();

    let mut recorder = Recorder::default();
    let mut tally = Tally::default();
    let timed = timed_phase(&args, &configs, &mut recorder, &mut tally);
    let runner_rate = reference_phase(w, &configs, &timed.first, &mut tally);

    let failed = tally.failures.len() as u64;
    let failed_ratio = ratio(failed as f64, tally.attempted as f64);
    let correct = failed == 0 && timed.first.iter().all(Option::is_some);
    for f in &tally.failures {
        println!("FAILED: {f}");
    }
    let ticks: usize = timed.untraced.iter().map(|m| m.run.tick_ns.len()).sum();
    let scales: Vec<f64> = timed.untraced.iter().map(|m| m.scale).collect();
    let unscaled_rate = ratio(
        timed.untraced.iter().map(|m| m.run.sim_secs).sum(),
        timed.untraced.iter().map(|m| m.run.wall_secs).sum(),
    );
    println!(
        "{}: {} rounds x {} seeds, {} untraced + {} traced runs in {:.2} s; \
         {ticks} control ticks timed untraced; median host-speed scale {:.4}; \
         unscaled {unscaled_rate:.1} sim-s/s; ExperimentRunner {runner_rate:.1} sim-s/s (unscaled); \
         failed {failed}/{} (failed_run_ratio {failed_ratio})",
        w.name,
        timed.rounds,
        configs.len(),
        timed.untraced.len(),
        timed.traced.len(),
        timed.secs,
        median(scales.clone()),
        tally.attempted,
    );

    let (metrics, table) = if args.trace {
        let totals = recorder.per_run();
        let paired: Vec<Traced> =
            timed.traced.iter().map(|(id, m)| (&m.run, &totals[*id], m.scale)).collect();
        let table = layer_table(&paired);
        print!("{table}");
        (per_layer_metrics(&timed, &paired, failed_ratio), Some(table))
    } else {
        (end_to_end_metrics(&timed), None)
    };
    let metrics = metrics_json(&metrics);

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let rates: Vec<String> =
        timed.untraced.iter().map(|m| ratio(m.run.sim_secs, m.run.wall_secs).to_string()).collect();
    let scales: Vec<String> = scales.iter().map(f64::to_string).collect();
    let failures: Vec<String> = tally.failures.iter().map(|f| json_str(f)).collect();
    let mut report = format!(
        "{{\"provenance\":{provenance},\"rounds\":{},\"ticks\":{ticks},\"attempted\":{},\
         \"failed\":{failed},\"failures\":[{}],\"untraced_sim_s_per_wall_s\":[{}],\"host_speed_scale\":[{}],\
         \"metrics\":{metrics}",
        timed.rounds,
        tally.attempted,
        failures.join(","),
        rates.join(","),
        scales.join(","),
    );
    if let Some(table) = &table {
        let _ = write!(report, ",\"layer_table\":{}", json_str(table));
    }
    report.push_str("}\n");
    let stem = format!("{}-trace{}", w.name, u8::from(args.trace));
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), report))
        .and_then(|()| {
            if args.trace {
                std::fs::write(out_dir.join(format!("{}-spans.jsonl", w.name)), recorder.to_jsonl())
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("warning: cannot write results under {}: {e}", out_dir.display());
    }

    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{metrics}}}",
        tally.attempted,
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_parses_and_declares_its_node_count() {
        for (w, nodes) in WORKLOADS.iter().zip([20, 1000, 4]) {
            let spec = ScenarioSpec::from_file(spec_path(w)).expect("spec parses");
            assert_eq!(spec.cluster.nodes, nodes, "{}", w.name);
            let cfg = config(w, &spec, 1);
            assert_eq!(cfg.nodes, nodes, "{}", w.name);
            assert_eq!(cfg.arbiter.is_some(), w.name == "overload", "{}", w.name);
            assert!(cfg.faults.is_empty(), "{}: the driver replays fault-free runs", w.name);
        }
    }

    #[test]
    fn perturbed_outcome_counts_as_failure() {
        let w = &WORKLOADS[2];
        let spec = ScenarioSpec::from_file(spec_path(w)).expect("spec parses");
        let mut cfg = config(w, &spec, 7);
        cfg.scenario.horizon = evolve::types::SimDuration::from_secs(30);
        let run = driver::run(&cfg, None);
        let fp = run.fingerprint;
        assert_eq!(check_run(Some(&fp), &fp, true), Ok(()));
        let mut perturbed = fp.clone();
        perturbed.events += 1;
        let err = check_run(Some(&fp), &perturbed, true).expect_err("perturbed outcome");
        assert!(err.contains("events"), "{err}");
        let mut dirty = fp.clone();
        dirty.oracle_violations = Some(1);
        assert!(check_run(None, &dirty, true).is_err());
        let reference = Fingerprint::of_outcome(&ExperimentRunner::new(cfg).run());
        assert_eq!(check_run(Some(&reference), &fp, true), Ok(()));
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let end_to_end = end_to_end_metrics(&TimedPhase::default());
        let per_layer = per_layer_metrics(&TimedPhase::default(), &[], 0.0);
        for m in end_to_end.iter().chain(&per_layer) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in &WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{}\"", w.name)), "{}", w.name);
        }
    }

    #[test]
    fn host_times_are_scaled_and_simulated_metrics_are_not() {
        let w = &WORKLOADS[2];
        let spec = ScenarioSpec::from_file(spec_path(w)).expect("spec parses");
        let mut cfg = config(w, &spec, 7);
        cfg.scenario.horizon = evolve::types::SimDuration::from_secs(30);
        let run = driver::run(&cfg, None);
        let phase = |scale: f64| TimedPhase {
            untraced: vec![Measured { run: run.clone(), scale }],
            first: vec![Some(run.fingerprint.clone())],
            setup_total: vec![0.001 * scale],
            ..TimedPhase::default()
        };
        let (unit, double) = (end_to_end_metrics(&phase(1.0)), end_to_end_metrics(&phase(2.0)));
        for (a, b) in unit.iter().zip(&double) {
            let want = match a.name {
                "sim_s_per_wall_s" => a.value / 2.0,
                "tick_ms_p50" | "tick_ms_p90" | "setup_s" => a.value * 2.0,
                _ => a.value,
            };
            assert!(
                (b.value - want).abs() <= 1e-9 * want.abs(),
                "{}: {} vs {want}",
                a.name,
                b.value
            );
        }
        assert!(probe::time_ns() > 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(median(vec![3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
