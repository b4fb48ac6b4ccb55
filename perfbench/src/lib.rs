//! # perfbench — the repository benchmark
//!
//! Runs one workload (see [`workloads::Workload`]) over the simulated
//! network, repeatedly, for a fixed wall-clock budget, and reports:
//!
//! * with tracing off ([`measure`]), the end-to-end metrics: set-up
//!   time and windows completed per wall second (medians over the
//!   repeats), peak RSS, and the deterministic simulated results;
//! * with tracing on ([`traced`]), the per-layer metrics: nclc stages,
//!   deploy, host set-up, time inside host-app callbacks, simulator
//!   self time, replayed per-window costs of split / encode / switch /
//!   reassembly / `_in_` kernel / scope emission, NCP-R counts, and how
//!   much of the run the replayed layers leave unexplained.
//!
//! Every repeat of a seed must reproduce the first repeat's simulated
//! results exactly; a mismatch clears `correct`.

pub mod calib;
pub mod probe;
pub mod replay;
pub mod rng;
pub mod workloads;

use probe::{Layer, Tracer};
use replay::{median, LayerCosts};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use workloads::{collect, run, setup, Inputs, SimResult};

/// Fewest measured repeats per run, whatever the time budget.
pub const MIN_REPEATS: usize = 3;

/// Replay repetitions per layer in a traced run.
pub const REPLAY_REPS: usize = 5;

/// One metric: name, value, unit.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The result of one benchmark run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every check outside per-operation failure counting held.
    pub correct: bool,
    /// Operations attempted over the first [`MIN_REPEATS`] measured
    /// repeats (pairs, in a traced run). Every later repeat must
    /// reproduce them exactly, so the count depends only on the seed,
    /// not on how many repeats the time budget allowed.
    pub attempted: u64,
    /// Of those, operations that failed their output check.
    pub failed: u64,
    /// The metrics.
    pub metrics: Vec<Metric>,
    /// Simulated results of the seed (identical across repeats).
    pub sim: SimResult,
    /// Measured repeats.
    pub repeats: usize,
    /// Per measured repeat, calibrated set-up seconds and windows per
    /// calibrated second (untraced runs only): `run.py` pools them
    /// across processes.
    pub per_repeat: Vec<(f64, f64)>,
    /// Per measured repeat, the wall times behind `per_repeat`, ns:
    /// set-up, run, and the mean of the two reference medians.
    pub raw: Vec<[u64; 3]>,
    /// Per-layer ledger lines (traced runs only): name, attributed ms.
    pub ledger: Vec<(&'static str, f64)>,
}

impl Report {
    /// The report as the one-line JSON object the benchmark prints
    /// last.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite number as JSON (non-finite values read 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Facts about the host a result was measured on, as a JSON object:
/// Simd-tier numbers are only comparable between like hosts.
pub fn host_facts() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let forced = std::env::var_os("NCVEC_FORCE_SCALAR").is_some_and(|v| v == "1");
    format!(
        "{{\"cores\": {cores}, \"avx2\": {avx2}, \"ncvec_force_scalar\": {forced}, \"ncvec_level\": \"{:?}\"}}",
        ncl_ir::ncvec::level()
    )
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `min / p25 / p50 / p75 / max` of `v`, for the run's stderr summary.
fn quartiles(v: &[f64]) -> String {
    let mut v = v.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    format!(
        "min {:.6} p25 {:.6} p50 {:.6} p75 {:.6} max {:.6}",
        at(0.0),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    )
}

/// Fraction `num / den` (0 when `den` is 0).
fn frac(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// One untraced, unmeasured repeat: lazy set-up (SIMD detection,
/// allocator growth) finishes before timing, and its simulated result
/// is the reference every measured repeat must reproduce.
fn warm_up(inputs: &Inputs) -> SimResult {
    let mut d = setup(inputs, None);
    run(&mut d);
    collect(inputs, &mut d)
}

/// Whether `inputs` is an AllReduce workload (every operation must
/// succeed there).
fn all_must_succeed(inputs: &Inputs) -> bool {
    matches!(inputs, Inputs::Allreduce { .. })
}

/// The end-to-end run: repeats the workload untraced for `budget`
/// (at least [`MIN_REPEATS`] times) after one warm-up repeat.
///
/// Times are reported in calibrated seconds: each repeat's set-up and
/// run wall times are scaled by [`calib::scale`] of the [`calib`]
/// reference timed around that run. Drift in the host's speed mostly
/// cancels; a change in the program's speed does not.
pub fn measure(inputs: &Inputs, budget: Duration) -> Report {
    let reference = warm_up(inputs);
    // Peak memory of one repeat, before the timed repeats (whose count
    // depends on the host's speed) can add allocator fragmentation.
    let peak_rss = peak_rss_mib();
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let (mut setups, mut rates) = (Vec::new(), Vec::new());
    let (mut wall_setups, mut wall_rates) = (Vec::new(), Vec::new());
    let mut raw = Vec::new();
    let start = Instant::now();
    while setups.len() < MIN_REPEATS || start.elapsed() < budget {
        let mut d = setup(inputs, None);
        let before = calib::reference_ns();
        let run_ns = run(&mut d);
        let after = calib::reference_ns();
        let r = collect(inputs, &mut d);
        correct &= r == reference;
        if setups.len() < MIN_REPEATS {
            attempted += r.attempted;
            failed += r.failed;
        }
        let reference_ns = (before + after) / 2;
        raw.push([d.setup.total_ns(), run_ns, reference_ns]);
        let scale = calib::scale(reference_ns as f64);
        let setup_ns = d.setup.total_ns() as f64;
        setups.push(setup_ns * scale / 1e9);
        rates.push(r.completed as f64 / (run_ns as f64 * scale / 1e9));
        wall_setups.push(setup_ns / 1e9);
        wall_rates.push(r.completed as f64 / (run_ns as f64 / 1e9));
    }
    if all_must_succeed(inputs) {
        correct &= failed == 0;
    }
    eprintln!("over {} repeats:", rates.len());
    eprintln!("  windows/s, calibrated: {}", quartiles(&rates));
    eprintln!("  windows/s, wall:       {}", quartiles(&wall_rates));
    eprintln!("  set-up s, calibrated:  {}", quartiles(&setups));
    eprintln!("  set-up s, wall:        {}", quartiles(&wall_setups));
    let sim = reference;
    let per_repeat = setups.iter().copied().zip(rates.iter().copied()).collect();
    let metrics = vec![
        Metric {
            name: "setup_s",
            value: median(setups.clone()),
            unit: "s",
        },
        Metric {
            name: "windows_per_s",
            value: median(rates),
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mib",
            value: peak_rss,
            unit: "MiB",
        },
        Metric {
            name: "sim_completion_us",
            value: sim.completion_ns as f64 / 1e3,
            unit: "sim_us",
        },
        Metric {
            name: "sim_get_p50_us",
            value: sim.latency_pct(50) as f64 / 1e3,
            unit: "sim_us",
        },
        Metric {
            name: "sim_get_p99_us",
            value: sim.latency_pct(99) as f64 / 1e3,
            unit: "sim_us",
        },
        Metric {
            name: "sim_get_samples",
            value: sim.latencies.len() as f64,
            unit: "count",
        },
        Metric {
            name: "wire_bytes_per_payload_byte",
            value: frac(sim.wire_bytes, sim.payload_bytes),
            unit: "B/B",
        },
        Metric {
            name: "cache_hit_frac",
            value: frac(sim.switch_answered, sim.switch_answerable),
            unit: "fraction",
        },
    ];
    Report {
        correct,
        attempted,
        failed,
        metrics,
        sim,
        repeats: setups.len(),
        per_repeat,
        raw,
        ledger: Vec::new(),
    }
}

/// What one traced repeat measured.
struct TracedRepeat {
    run_ns: u64,
    busy_ns: [u64; 2],
    calls: [u64; 2],
}

/// nclc stages reported per layer, in pipeline order.
const NCLC_STAGES: [&str; 7] = [
    "frontend", "lower", "optimize", "version", "lint", "estimate", "backend",
];

/// Lays a traced repeat's set-up out as spans: the compile stages (as
/// `CompiledProgram::timings` reports them, back to back), host-app
/// construction and deploy.
fn record_setup(tracer: &mut Tracer, t0: u64, d: &workloads::Deployed) {
    let parent = tracer.open_span();
    let s = &d.setup;
    let compile = tracer.span_at("nclc.compile".into(), "nclc", t0, s.compile_ns, parent);
    let mut at = t0;
    for (name, ns) in d.program.timings.spans() {
        tracer.span_at(format!("nclc.{name}").into(), "nclc", at, *ns, compile);
        at += ns;
    }
    let at = t0 + s.compile_ns;
    tracer.span_at(
        "runtime.host_setup".into(),
        "runtime",
        at,
        s.hosts_ns,
        parent,
    );
    tracer.span_at(
        "deploy".into(),
        "deploy",
        at + s.hosts_ns,
        s.deploy_ns,
        parent,
    );
}

/// The traced run: interleaves untraced and traced repeats (alternating
/// which goes first) for `budget` (at least [`MIN_REPEATS`] pairs),
/// then replays the last traced repeat's windows through each layer. Writes the first traced
/// repeat's spans to `trace_path` as a Chrome trace.
pub fn traced(inputs: &Inputs, budget: Duration, trace_path: Option<&std::path::Path>) -> Report {
    let reference = warm_up(inputs);
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut stage_ms: Vec<Vec<f64>> = vec![Vec::new(); NCLC_STAGES.len()];
    let (mut deploy_ms, mut hosts_ms) = (Vec::new(), Vec::new());
    let mut untraced_ns = Vec::new();
    let mut traced_reps: Vec<TracedRepeat> = Vec::new();
    let mut first_tracer: Option<Tracer> = None;
    let mut last: Option<workloads::Deployed> = None;
    let start = Instant::now();
    let mut pair = 0usize;
    while pair < MIN_REPEATS || start.elapsed() < budget {
        // Alternate which side of the pair runs first.
        let traced_first = pair % 2 == 1;
        for traced_turn in [traced_first, !traced_first] {
            let (r, setup_times, program_timings) = if traced_turn {
                let tracer = Rc::new(RefCell::new(Tracer::new()));
                let root = tracer.borrow_mut().open("repeat", "bench");
                let t0 = tracer.borrow().ns(Instant::now());
                let mut d = setup(inputs, Some(&tracer));
                record_setup(&mut tracer.borrow_mut(), t0, &d);
                let run_span = tracer.borrow_mut().open("netsim.run", "fabric");
                let run_ns = run(&mut d);
                tracer.borrow_mut().close(run_span);
                tracer.borrow_mut().close(root);
                let r = collect(inputs, &mut d);
                let out = (r, d.setup, d.program.timings.clone());
                let t = tracer.borrow();
                traced_reps.push(TracedRepeat {
                    run_ns,
                    busy_ns: t.busy_ns,
                    calls: t.calls,
                });
                drop(t);
                if first_tracer.is_none() {
                    // The probes inside `d` hold the other handles.
                    drop(d);
                    let log = Rc::try_unwrap(tracer).ok().expect("probes dropped");
                    first_tracer = Some(log.into_inner());
                } else {
                    last = Some(d);
                }
                out
            } else {
                let mut d = setup(inputs, None);
                untraced_ns.push(run(&mut d));
                let r = collect(inputs, &mut d);
                (r, d.setup, d.program.timings.clone())
            };
            correct &= r == reference;
            if pair < MIN_REPEATS {
                attempted += r.attempted;
                failed += r.failed;
            }
            for (i, stage) in NCLC_STAGES.iter().enumerate() {
                let ns = program_timings
                    .spans()
                    .iter()
                    .filter(|(n, _)| n == stage)
                    .map(|(_, ns)| *ns)
                    .sum::<u64>();
                stage_ms[i].push(ns as f64 / 1e6);
            }
            deploy_ms.push(setup_times.deploy_ns as f64 / 1e6);
            hosts_ms.push(setup_times.hosts_ns as f64 / 1e6);
        }
        pair += 1;
    }
    if all_must_succeed(inputs) {
        correct &= failed == 0;
    }

    let mut d = last.expect("MIN_REPEATS > 1 leaves a later traced repeat");
    let mut tracer = first_tracer.unwrap_or_default();
    let replay_span = tracer.open("replay", "bench");
    let costs = replay::replay(inputs, &mut d, REPLAY_REPS, Some(&mut tracer));
    tracer.close(replay_span);
    drop(d);
    correct &= costs.outputs_ok;

    let sim = reference;
    let ratios: Vec<f64> = traced_reps
        .iter()
        .zip(&untraced_ns)
        .map(|(t, &u)| t.run_ns as f64 / u as f64)
        .collect();
    let untraced_run_ns = median(untraced_ns.iter().map(|&n| n as f64).collect());
    let rt = Layer::Runtime as usize;
    let ap = Layer::Apps as usize;
    let busy_ms = |i: usize| {
        median(
            traced_reps
                .iter()
                .map(|t| t.busy_ns[i] as f64 / 1e6)
                .collect(),
        )
    };
    let per_call = |i: usize| {
        median(
            traced_reps
                .iter()
                .map(|t| t.busy_ns[i] as f64 / t.calls[i].max(1) as f64)
                .collect(),
        )
    };
    let fabric_self_ns: Vec<f64> = traced_reps
        .iter()
        .map(|t| t.run_ns.saturating_sub(t.busy_ns[0] + t.busy_ns[1]) as f64)
        .collect();
    let fabric_self_ms = median(fabric_self_ns.clone()) / 1e6;
    let calls = traced_reps.first().map_or([0; 2], |t| t.calls);

    let ledger = ledger(inputs, &sim, &costs);
    let attributed_ms: f64 = ledger.iter().map(|(_, ms)| ms).sum();
    let unattributed = 1.0 - attributed_ms / (untraced_run_ns / 1e6);

    if let Some(path) = trace_path {
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, tracer.chrome_json()) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }

    let mut metrics: Vec<Metric> = NCLC_STAGES
        .iter()
        .zip(&stage_ms)
        .map(|(stage, v)| Metric {
            name: nclc_metric_name(stage),
            value: median(v.clone()),
            unit: "ms",
        })
        .collect();
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let windows = sim.attempted;
    metrics.extend([
        m("deploy.ms", median(deploy_ms), "ms"),
        m("runtime.host_setup_ms", median(hosts_ms), "ms"),
        m("runtime.busy_ms", busy_ms(rt), "ms"),
        m("runtime.calls", calls[rt] as f64, "count"),
        m("runtime.ns_per_call", per_call(rt), "ns"),
        m("apps.busy_ms", busy_ms(ap), "ms"),
        m("apps.calls", calls[ap] as f64, "count"),
        m("netsim.events", sim.events as f64, "count"),
        m("fabric.self_ms", fabric_self_ms, "ms"),
        m(
            "fabric.ns_per_event",
            median(
                fabric_self_ns
                    .iter()
                    .map(|ns| ns / sim.events.max(1) as f64)
                    .collect(),
            ),
            "ns",
        ),
        m("c3.split_ns_per_window", costs.split_ns, "ns"),
        m("ncp.encode_ns_per_window", costs.encode_ns, "ns"),
        m("ncp.reassemble_ns_per_window", costs.reassemble_ns, "ns"),
        m(
            "exec.run_incoming_ns_per_window",
            costs.run_incoming_ns,
            "ns",
        ),
        m("switch.ns_per_window", costs.switch_ns, "ns"),
        m("nctel.emit_ns", costs.emit_ns, "ns"),
        m("ncpr.retransmits", sim.retransmits as f64, "count"),
        m(
            "ncpr.sends_per_window",
            frac(sim.data_frames, windows),
            "ratio",
        ),
        m("nctel.scope_events", sim.scope_events as f64, "count"),
        m("trace.unattributed_frac", unattributed, "fraction"),
        m("trace.overhead_frac", median(ratios) - 1.0, "fraction"),
    ]);
    Report {
        correct,
        attempted,
        failed,
        metrics,
        sim,
        repeats: traced_reps.len() + untraced_ns.len(),
        per_repeat: Vec::new(),
        raw: Vec::new(),
        ledger,
    }
}

fn nclc_metric_name(stage: &str) -> &'static str {
    match stage {
        "frontend" => "nclc.frontend_ms",
        "lower" => "nclc.lower_ms",
        "optimize" => "nclc.optimize_ms",
        "version" => "nclc.version_ms",
        "lint" => "nclc.lint_ms",
        "estimate" => "nclc.estimate_ms",
        _ => "nclc.backend_ms",
    }
}

/// Replayed time per layer over one run: the layer's replayed cost per
/// unit times the units the run did, in ms, largest first.
///
/// Units are counted at the layer boundaries of the run: the `_in_`
/// kernel runs once per window a worker admits. `NclHost`
/// splits the whole invocation once at launch and again for every
/// window it sends after start (the NCP-R release and retransmit path
/// re-splits from the application arrays), so `c3.split` is charged
/// `windows × (1 + sends after start)` per worker.
pub fn ledger(inputs: &Inputs, sim: &SimResult, c: &LayerCosts) -> Vec<(&'static str, f64)> {
    let (split_units, run_incoming_units, emit_units) = match inputs {
        Inputs::Allreduce { shape, .. } => {
            let resplits = sim.data_frames.saturating_sub(sim.frames_sent_at_start);
            (
                shape.windows() as u64 * (shape.workers as u64 + resplits),
                sim.frames_decoded,
                sim.scope_events,
            )
        }
        Inputs::Kvs { .. } => (0, 0, 0),
    };
    let rows = [
        ("c3.split", c.split_ns * split_units as f64),
        ("ncp.encode", c.encode_ns * sim.frames_sent as f64),
        ("switch", c.switch_ns * sim.switch_windows as f64),
        (
            "ncp.reassemble",
            c.reassemble_ns * sim.frames_decoded as f64,
        ),
        (
            "exec.run_incoming",
            c.run_incoming_ns * run_incoming_units as f64,
        ),
        ("nctel.emit", c.emit_ns * emit_units as f64),
    ];
    let mut out: Vec<(&'static str, f64)> = rows.iter().map(|&(n, ns)| (n, ns / 1e6)).collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}
