//! E10 — NCP-R reliable window transport (DESIGN §4.7). Regenerates the
//! EXPERIMENTS.md §E10 tables: goodput/completion time across loss
//! rates, retransmission and replay-filter activity, and the headline
//! acceptance number — the goodput cost of turning reliability on at
//! 0% loss (budget: ≤15%).
//!
//! It also gates the host send path's linearity: on the paced and the
//! reliable path, the wall cost per window at 4096 windows per worker
//! must stay within 1.5× of the cost at 128.

use ncl_bench::{
    paired_ratio, run_allreduce_inc, run_allreduce_reliable, time_send_path, PairedRatio, SendPath,
};
use netsim::LinkSpec;

/// Windows per worker at the two sizes the linearity gate compares.
const SMALL_WINDOWS: usize = 128;
const LARGE_WINDOWS: usize = 4096;
/// Interleaved small/large pairs behind each linearity ratio.
const PAIRS: usize = 9;
/// Largest allowed per-window wall cost at `LARGE_WINDOWS` over the
/// cost at `SMALL_WINDOWS`. A send that re-split the whole invocation
/// (O(n) per window) measured ~20–30× here.
const LINEARITY_BOUND: f64 = 1.5;

/// Per-window wall cost ratio (large over small) of one send path, as
/// the median of `PAIRS` interleaved pairs. The small arm repeats its
/// run so both arms send the same number of windows per sample. Every
/// repeat must reproduce the simulated completion time and wire bytes.
fn linearity(path: SendPath, nworkers: usize, win: usize) -> PairedRatio {
    let arm = |windows: usize| {
        let reps = LARGE_WINDOWS / windows;
        let (_, completion, bytes) = time_send_path(path, nworkers, windows * win, win);
        move || {
            let mut secs = 0.0;
            for _ in 0..reps {
                let r = time_send_path(path, nworkers, windows * win, win);
                assert_eq!(
                    (r.1, r.2),
                    (completion, bytes),
                    "{path:?}: simulated results differ across repeats"
                );
                secs += r.0;
            }
            secs / (reps * nworkers * windows) as f64
        }
    };
    paired_ratio(PAIRS, arm(SMALL_WINDOWS), arm(LARGE_WINDOWS))
}

fn main() {
    let nworkers = 4usize;
    let elements = 4096usize;
    let win = 8usize;
    println!("E10: NCP-R — reliable AllReduce ({nworkers} workers, {elements} × int32, win {win})");
    println!("star topology; 10 Gb/s, 1 µs links; deterministic seeded loss\n");

    // Overhead at 0% loss: fire-and-forget vs NCP-R on the same clean
    // links. Goodput = result payload delivered / completion time.
    let base = run_allreduce_inc(nworkers, elements, win);
    let clean = run_allreduce_reliable(nworkers, elements, win, LinkSpec::default());
    let payload = clean.payload_bytes as f64;
    let gp_base = payload / base.completion as f64;
    let gp_rel = payload / clean.completion as f64;
    let overhead = 100.0 * (1.0 - gp_rel / gp_base);
    println!("-- reliability overhead at 0% loss --");
    println!(
        "{:>16} {:>12} {:>14} {:>12}",
        "arm", "compl µs", "wire KiB", "goodput Gb/s"
    );
    for (name, r_completion, r_wire) in [
        ("fire-and-forget", base.completion, base.bytes_on_wire),
        ("NCP-R", clean.completion, clean.bytes_on_wire),
    ] {
        println!(
            "{:>16} {:>12.1} {:>14.1} {:>12.3}",
            name,
            r_completion as f64 / 1000.0,
            r_wire as f64 / 1024.0,
            payload * 8.0 / r_completion as f64,
        );
    }
    println!(
        "goodput overhead: {overhead:.1}%  (budget ≤ 15%) — {}",
        if overhead <= 15.0 { "PASS" } else { "FAIL" }
    );
    assert_eq!(clean.retransmits, 0, "clean links must not retransmit");
    assert_eq!(clean.switch_dups, 0, "clean links must not replay");

    // Loss sweep: completion under adversarial links, exactly-once
    // enforced by the in-switch replay filter.
    println!("\n-- loss sweep (NCP-R, duplication every 6th, 30 µs reorder jitter) --");
    println!(
        "{:>8} {:>12} {:>10} {:>12} {:>12}",
        "loss %", "compl µs", "slowdown", "retransmits", "switch dups"
    );
    for loss in [0.0f64, 0.01, 0.05, 0.10] {
        let link = if loss == 0.0 {
            LinkSpec::default()
        } else {
            LinkSpec {
                loss,
                dup_every: 6,
                jitter_every: 5,
                jitter: 30_000,
                ..LinkSpec::default()
            }
        };
        let r = run_allreduce_reliable(nworkers, elements, win, link);
        println!(
            "{:>8.0} {:>12.1} {:>9.2}x {:>12} {:>12}",
            loss * 100.0,
            r.completion as f64 / 1000.0,
            r.completion as f64 / clean.completion as f64,
            r.retransmits,
            r.switch_dups,
        );
    }
    println!("\n-- send-path linearity (ns of wall time per window; {PAIRS} interleaved pairs) --");
    println!(
        "{:>12} {:>10} {:>10} {:>8} {:>14}",
        "path", SMALL_WINDOWS, LARGE_WINDOWS, "ratio", "quartiles"
    );
    for (name, path) in [
        ("paced 1 µs", SendPath::Paced(1_000)),
        ("NCP-R", SendPath::Reliable),
    ] {
        let pr = linearity(path, nworkers, win);
        let pass = pr.median <= LINEARITY_BOUND;
        println!(
            "{name:>12} {:>10.0} {:>10.0} {:>7.2}x {:>6.2}..{:<6.2} {}",
            pr.a_secs * 1e9,
            pr.b_secs * 1e9,
            pr.median,
            pr.quartiles.0,
            pr.quartiles.1,
            if pass { "PASS" } else { "FAIL" }
        );
        assert!(
            pass,
            "{name}: per-window cost grows {:.2}x from {SMALL_WINDOWS} to \
             {LARGE_WINDOWS} windows per worker (bound {LINEARITY_BOUND}x)",
            pr.median
        );
    }

    println!("\nShape check: at 0% loss NCP-R rides the response clock and");
    println!("costs almost nothing; under loss the completion tail is");
    println!("RTO/backoff-dominated (AllReduce is a barrier: one lost window");
    println!("stalls its whole slot). Every run still terminates with");
    println!("exactly-once switch execution — the replay filter absorbs the");
    println!("retransmit × duplication overlap.");
}
