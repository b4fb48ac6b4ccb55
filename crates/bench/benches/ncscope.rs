//! E12 — ncscope flight recorder and diagnosis (DESIGN §4.10).
//! Two measurements:
//!
//! 1. **Event-log overhead gate** — the same reliable AllReduce run
//!    with the scope attached to every layer (full recording) vs
//!    detached. Scope emission costs zero *simulated* time by
//!    construction, so the honest cost is wall-clock: goodput =
//!    payload bytes / wall seconds. The two arms run as interleaved
//!    pairs, alternating which runs first, and the gate takes the
//!    median of the per-pair time ratios (budget ≤5%). Each run lasts
//!    ~80 ms, so one pair can swing by more than the budget; the median
//!    over many pairs does not. It is cross-checked against the
//!    isolated per-`emit` cost × events logged, which must fit the
//!    budget too.
//! 2. **Flight-recorder artifact** — kills exactly the `worker1 <->
//!    s1` link (deterministic full loss) under an armed recorder; the
//!    abandonment triggers a `delivery_timeout` snapshot at
//!    `target/e12-flight.json` (the CI artifact), which is parsed back
//!    and run through the diagnosis engine. The verdict must blame a
//!    worker1-side link from drop ground truth alone.

use ncl_bench::{paired_ratio, rule, run_allreduce_scoped};
use nctel::scope::{analysis, parse_flight, SnapshotReason};
use nctel::{Scope, ScopeEvent, WindowKey};
use netsim::LinkSpec;
use pisa::ResourceModel;
use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// Recording-off/recording-on pairs behind the overhead gate. Single
/// pairs spread by ~10% (quartiles) on a shared 2-core host; over 61
/// pairs the median's standard error is ~1%, well inside the 5% budget.
/// Runs last ~80 ms, so the gate takes about 10 s.
const PAIRS: usize = 61;

/// Median ns per [`Scope::emit`] into a fresh ring, the same capacity
/// the recording arm uses.
fn emit_ns() -> f64 {
    const N: u64 = 1 << 16;
    let mut samples: Vec<f64> = (0..9)
        .map(|_| {
            let scope = Scope::new(1 << 16);
            let t = Instant::now();
            for i in 0..N {
                let key = WindowKey::new((i % 4) as u16 + 1, 1, i as u32);
                scope.emit(i, key.sender, key, ScopeEvent::WindowSent { attempt: 0 });
            }
            black_box(&scope);
            t.elapsed().as_nanos() as f64 / N as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    // The E10 workload shape: small windows fit the default chip
    // profile alongside the NCP-R replay filter.
    let nworkers = 4usize;
    let elements = 4096usize;
    let win = 8usize;
    let link = LinkSpec::default();
    let model = ResourceModel::default();
    println!(
        "E12: ncscope — reliable AllReduce ({nworkers} workers, {elements} × int32, win {win})"
    );
    println!("arm A: recording off; arm B: scope attached to host/transport/sim\n");

    // Warm-up run (page in the allocator and compile caches); the
    // simulation is deterministic, so its completion time is the one
    // every run of either arm must reproduce.
    let warm = run_allreduce_scoped(nworkers, elements, win, link, vec![], 0.0, None, &model);
    let events = Cell::new(0u64);
    let timed = |scope: Option<&Scope>| {
        let t = Instant::now();
        let r = run_allreduce_scoped(nworkers, elements, win, link, vec![], 0.0, scope, &model);
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(
            r.completion, warm.completion,
            "recording must not perturb the simulation"
        );
        events.set(events.get().max(r.events_logged));
        secs
    };
    let pr = paired_ratio(PAIRS, || timed(None), || timed(Some(&Scope::new(1 << 16))));
    let events = events.get();
    let goodput = |secs: f64| warm.payload_bytes as f64 / secs / 1e6;
    let overhead = 100.0 * (pr.median - 1.0);
    // Cross-check: what the events cost in isolation, as a share of a
    // recording-off run.
    let emit_ns = emit_ns();
    let predicted = 100.0 * emit_ns * events as f64 / (pr.a_secs * 1e9);
    rule(66);
    println!(
        "{:>16} {:>14} {:>16} {:>12}",
        "arm", "median ms", "goodput MB/s", "events"
    );
    rule(66);
    println!(
        "{:>16} {:>14.2} {:>16.1} {:>12}",
        "recording off",
        pr.a_secs * 1e3,
        goodput(pr.a_secs),
        0
    );
    println!(
        "{:>16} {:>14.2} {:>16.1} {:>12}",
        "recording on",
        pr.b_secs * 1e3,
        goodput(pr.b_secs),
        events
    );
    rule(66);
    assert!(events > 0, "recording arm logged no events");
    println!(
        "\n{PAIRS} interleaved pairs: on/off ratio median {:.4} (quartiles {:.4}..{:.4})",
        pr.median, pr.quartiles.0, pr.quartiles.1
    );
    println!(
        "cross-check: isolated emit {emit_ns:.1} ns x {events} events = {predicted:.2}% of a \
         recording-off run"
    );
    println!("acceptance: full-recording goodput overhead = {overhead:.2}% (budget <= 5%)");
    assert!(
        overhead <= 5.0,
        "ncscope event-log overhead {overhead:.2}% exceeds the 5% budget"
    );
    assert!(
        predicted <= 5.0,
        "isolated emit cost predicts {predicted:.2}% overhead, over the 5% budget"
    );

    // --- Flight-recorder artifact: dead access link, armed recorder ---
    let scope = Scope::new(1 << 16);
    std::fs::create_dir_all("target").ok();
    scope.arm_recorder("target/e12-flight.json");
    let dead = LinkSpec {
        drop_every: 1, // every frame, both directions
        ..link
    };
    let r = run_allreduce_scoped(
        3,
        256,
        8,
        link,
        vec![("worker1".into(), "s1".into(), dead)],
        1.0,
        Some(&scope),
        &model,
    );
    assert!(r.abandoned > 0, "a dead access link must exhaust retries");
    assert!(
        scope.recorded() >= 1,
        "abandonment must trigger the flight recorder"
    );
    // Make the artifact carry the post-mortem state (the in-run
    // trigger fires at the *first* abandonment; re-snapshot on demand
    // so the CI artifact holds the full run).
    let doc = scope.flight_record(SnapshotReason::OnDemand, r.completion, None, &r.traces);
    let art = parse_flight(&doc).expect("artifact round-trips");
    let d = analysis::diagnose(
        &art.events,
        &art.traces,
        &analysis::DiagnosisConfig::default(),
    );
    println!(
        "\nflight recorder: killed worker1 <-> s1, {} abandoned",
        r.abandoned
    );
    print!("{}", d.render_report());
    let (lo, hi) = d.primary_loss_locus().expect("drop ground truth present");
    assert_eq!(lo, 1, "loss locus names worker1 (wire id 1), got h{lo}");
    assert!(
        hi & 0x8000 != 0,
        "loss locus names the switch side, got {hi:#x}"
    );
    println!(
        "wrote target/e12-flight.json ({} events, {} traces)",
        art.events.len(),
        art.traces.len()
    );
}
