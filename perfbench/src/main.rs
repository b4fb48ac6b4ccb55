//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--loss-pattern <k>]`
//!
//! Runs one workload and prints, last on stdout, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
//! The line before it records the host, the seed, the simulated
//! results and each repeat's calibrated set-up time and rate. A traced run also writes its spans to
//! `.bench_out/trace-<workload>.json` (Chrome trace format) and
//! prints its layer ledger to stderr. `--loss-pattern` (default 0)
//! picks which of the seed's loss patterns a lossy workload runs.

use perfbench::workloads::{Inputs, Workload};
use perfbench::{host_facts, json_num, measure, traced};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    loss_pattern: u64,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut loss_pattern = 0;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or(format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            "--loss-pattern" => {
                loss_pattern = value
                    .parse()
                    .map_err(|_| format!("bad loss pattern {value}"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        loss_pattern,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <allreduce_wide|allreduce_reliable|kvs_zipf> \
                 --seed <n> --seconds <s> --trace <0|1> [--loss-pattern <k>]"
            );
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let inputs = Inputs::with_loss_pattern(args.workload.shape(), args.seed, args.loss_pattern);
    let budget = Duration::from_secs_f64(args.seconds);
    let report = if args.trace {
        let path = PathBuf::from(".bench_out").join(format!("trace-{name}.json"));
        let report = traced(&inputs, budget, Some(&path));
        let run_ms: f64 = report.ledger.iter().map(|(_, ms)| ms).sum();
        eprintln!(
            "layer ledger ({name}, seed {}): replayed ms per run",
            args.seed
        );
        for (layer, ms) in &report.ledger {
            eprintln!(
                "  {layer:<20} {ms:>10.3} ms  {:>5.1}% of replayed",
                100.0 * ms / run_ms.max(1e-9)
            );
        }
        eprintln!("  spans: {}", path.display());
        report
    } else {
        measure(&inputs, budget)
    };
    let sim = &report.sim;
    let top = report.ledger.first().map_or("", |(n, _)| n);
    let list = |f: fn(&(f64, f64)) -> f64| {
        let v: Vec<String> = report.per_repeat.iter().map(|r| json_num(f(r))).collect();
        v.join(", ")
    };
    println!(
        "{{\"host\": {}, \"workload\": \"{name}\", \"seed\": {}, \"loss_pattern\": {}, \"repeats\": {}, \
         \"failed_share\": {}, \"kvs_evictions\": {}, \"top_layer\": \"{top}\", \
         \"sim_fingerprint\": \"{:016x}\", \"sim_events\": {}, \"sim_retransmits\": {}, \
         \"setup_s_repeats\": [{}], \"windows_per_s_repeats\": [{}], \
         \"setup_run_reference_ns_repeats\": [{}]}}",
        host_facts(),
        args.seed,
        args.loss_pattern,
        report.repeats,
        json_num(sim.failed as f64 / sim.attempted.max(1) as f64),
        sim.evictions,
        sim.fingerprint,
        sim.events,
        sim.retransmits,
        list(|r| r.0),
        list(|r| r.1),
        report
            .raw
            .iter()
            .map(|r| format!("[{}, {}, {}]", r[0], r[1], r[2]))
            .collect::<Vec<_>>()
            .join(", "),
    );
    println!("{}", report.json());
    ExitCode::SUCCESS
}
