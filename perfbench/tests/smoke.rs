//! Smoke runs of every workload at a quick shape: the output checks,
//! the determinism check, and the metric lists against BENCHMARK.json.

use perfbench::workloads::{collect, run, setup, Inputs, SimResult, Workload};
use perfbench::{measure, traced};
use std::time::Duration;

fn once(inputs: &Inputs) -> SimResult {
    let mut d = setup(inputs, None);
    run(&mut d);
    collect(inputs, &mut d)
}

fn smoke(w: Workload, seed: u64) -> Inputs {
    Inputs::new(w.smoke_shape(), seed)
}

/// The metric names listed under `section` in BENCHMARK.json.
fn listed(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

#[test]
fn allreduce_results_are_exact_sums_on_every_worker() {
    for w in [Workload::AllreduceWide, Workload::AllreduceReliable] {
        let r = once(&smoke(w, 1));
        assert!(r.attempted > 0, "{w:?}");
        assert_eq!(r.failed, 0, "{w:?}: a worker missed its sum or done_at");
        assert_eq!(r.completed, r.attempted, "{w:?}");
    }
}

#[test]
fn reliable_smoke_loses_and_recovers() {
    let r = once(&smoke(Workload::AllreduceReliable, 1));
    assert!(r.retransmits > 0, "the seeded loss must bite");
    assert!(r.scope_events > 0, "ncscope records");
    assert_eq!(r.failed, 0);
}

#[test]
fn kvs_counts_failures_against_attempts() {
    let inputs = smoke(Workload::KvsZipf, 1);
    let r = once(&inputs);
    let Inputs::Kvs { shape, .. } = &inputs else {
        unreachable!()
    };
    assert_eq!(r.attempted, (shape.clients * shape.ops_per_client) as u64);
    assert!(r.failed <= r.attempted);
    assert!(r.completed > 0 && r.completed <= r.attempted);
    assert!(r.switch_answered > 0, "the cache serves some GETs");
}

#[test]
fn same_seed_repeats_byte_identically() {
    for w in Workload::ALL {
        let inputs = smoke(w, 7);
        let a = once(&inputs);
        let b = once(&inputs);
        assert_eq!(a, b, "{w:?}: deterministic results differ between repeats");
    }
}

#[test]
fn another_seed_changes_kvs_keys_and_reliable_loss() {
    let (Inputs::Kvs { schedules: a, .. }, Inputs::Kvs { schedules: b, .. }) =
        (smoke(Workload::KvsZipf, 1), smoke(Workload::KvsZipf, 2))
    else {
        unreachable!()
    };
    assert_ne!(a, b, "the key stream follows the seed");
    assert_ne!(
        once(&smoke(Workload::KvsZipf, 1)).fingerprint,
        once(&smoke(Workload::KvsZipf, 2)).fingerprint
    );

    let loss = |seed| match smoke(Workload::AllreduceReliable, seed) {
        Inputs::Allreduce { drop_every, .. } => drop_every,
        Inputs::Kvs { .. } => unreachable!(),
    };
    assert_ne!(loss(1), loss(2), "the loss pattern follows the seed");
    // Delivery times do not depend on the array values, only on which
    // frames the links drop.
    assert_ne!(
        once(&smoke(Workload::AllreduceReliable, 1)).latencies,
        once(&smoke(Workload::AllreduceReliable, 2)).latencies
    );
}

#[test]
fn loss_pattern_changes_only_the_loss() {
    let shape = Workload::AllreduceReliable.smoke_shape();
    let (
        Inputs::Allreduce {
            data: d0,
            drop_every: l0,
            ..
        },
        Inputs::Allreduce {
            data: d1,
            drop_every: l1,
            ..
        },
    ) = (
        Inputs::with_loss_pattern(shape, 1, 0),
        Inputs::with_loss_pattern(shape, 1, 1),
    )
    else {
        unreachable!()
    };
    assert_eq!(d0, d1, "the arrays follow the seed alone");
    assert_ne!(l0, l1, "the loss follows the pattern");
    assert_eq!(
        once(&Inputs::new(shape, 1)).fingerprint,
        once(&Inputs::with_loss_pattern(shape, 1, 0)).fingerprint
    );
    for w in [Workload::AllreduceWide, Workload::KvsZipf] {
        assert_eq!(
            once(&Inputs::with_loss_pattern(w.smoke_shape(), 1, 0)).fingerprint,
            once(&Inputs::with_loss_pattern(w.smoke_shape(), 1, 5)).fingerprint,
            "{w:?} is lossless and ignores the pattern"
        );
    }
}

#[test]
fn measure_reports_every_end_to_end_metric() {
    let names = listed("end_to_end");
    assert!(names.contains(&"setup_s".to_string()));
    for w in Workload::ALL {
        let report = measure(&smoke(w, 3), Duration::ZERO);
        let got: Vec<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(got, names, "{w:?}");
        for m in &report.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{w:?}: {} = {}",
                m.name,
                m.value
            );
        }
        assert!(report.correct, "{w:?}");
        assert!(report
            .json()
            .starts_with("{\"correct\": true, \"attempted\": "));
    }
}

#[test]
fn traced_reports_every_per_layer_metric() {
    let names = listed("per_layer");
    for w in Workload::ALL {
        let report = traced(&smoke(w, 3), Duration::ZERO, None);
        let got: Vec<String> = report.metrics.iter().map(|m| m.name.to_string()).collect();
        assert_eq!(got, names, "{w:?}");
        assert!(report.metrics.iter().all(|m| m.value.is_finite()), "{w:?}");
        assert!(
            report.correct,
            "{w:?}: the replayed layers must reproduce the outputs"
        );
        assert!(!report.ledger.is_empty());
    }
}
