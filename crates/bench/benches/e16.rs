//! E16 — streaming SLO engine, anomaly detection, and auto-captured
//! incident reports (DESIGN §4.14, EXPERIMENTS §E16).
//!
//! Five fault campaigns drive the ncwatch engine against a two-tenant
//! paced AllReduce fabric:
//!
//! 1. **healthy control** — the watch rides a clean run end to end and
//!    must stay silent (zero false positives) at ≤ 2% goodput overhead
//!    versus the same run without a watch;
//! 2. **degrading link** — `worker1<->s1` starts dropping every other
//!    frame mid-run; the retransmit-rate SLO must fire within the tick
//!    budget and the auto-captured incident must name the *same* faulty
//!    link the offline ncscope diagnosis blames;
//! 3. **loss burst** — a bursty link under tenant `ar-b` from t=0,
//!    attributed to the right tenant and link;
//! 4. **over-quota tenant** — an admission rejection surfaces as a
//!    tick-0 incident carrying the machine-readable cost report;
//! 5. **upgrade drain** — an e14-style hitless upgrade mid-run fires
//!    nothing (an upgrade is not an incident).
//!
//! The degrading-link campaign runs twice: the two incident JSONL logs
//! must be byte-identical (same simulated run ⇒ same reports, same
//! content-hash ids). Writes `target/e16-metrics.json` and
//! `target/e16-incidents.jsonl` (bench cwd is the package root, so
//! both land under crates/bench/).

use c3::{HostId, NodeId, ScalarType, Value};
use ncl_bench::{paired_ratio, rule};
use ncl_core::apps::allreduce_source;
use ncl_core::deploy::{DeployOptions, SwitchBackend};
use ncl_core::{
    compile, CompileConfig, CompiledProgram, MultiDeployment, NclHost, OutInvocation, TenantDeploy,
    TypedArray,
};
use ncp::reliable::ReliableConfig;
use ncsched::{TenantQuota, TenantSpec};
use nctel::scope::analysis::{diagnose, DiagnosisConfig};
use nctel::{Scope, WindowTrace};
use ncwatch::{link_name, IncidentReport, Objective, SloSpec, WatchConfig};
use netsim::{CtrlOp, HostApp, LinkSpec};
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// Six workers, one switch: tenant `ar-a` on worker1-3, `ar-b` on
/// worker4-6.
const AND: &str = "hosts worker 6\nswitch s1\nlink worker* s1\n";
const DATA_LEN: usize = 256;
const WIN: usize = 4;
/// Pacing gap between windows, ns — stretches each run over many
/// evaluation ticks so the streaming engine sees a real time series.
const GAP: u64 = 1_500;
/// Watch evaluation cadence, simulated ns.
const TICK_NS: u64 = 4_000;
/// Degrading-link fault injection instant, ns.
const T_FAULT: u64 = 40_000;
/// Watched horizon, ns (generous; healthy runs finish well before).
const T_END: u64 = 600_000;
/// Detection-latency gate: first incident within this many ticks of
/// the fault.
const DETECT_BUDGET: u64 = 8;
/// Interleaved bare/watched pairs behind the (informational) healthy-run
/// wall-clock overhead.
const OVERHEAD_PAIRS: usize = 21;

fn ar_program(base: u16) -> CompiledProgram {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![WIN as u16]);
    cfg.masks.insert("result".into(), vec![WIN as u16]);
    cfg.kernel_id_base = base;
    compile(&allreduce_source(DATA_LEN, WIN), AND, &cfg).expect("allreduce compiles")
}

/// Paced AllReduce workers `lo..=hi` for one tenant: NCP-R on,
/// full-rate telemetry, scoped.
fn ar_apps(
    program: &CompiledProgram,
    lo: u16,
    hi: u16,
    scope: &Scope,
) -> HashMap<String, Box<dyn HostApp>> {
    let kid = program.kernel_ids["allreduce"];
    let n = hi - lo + 1;
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in lo..=hi {
        let mut host = NclHost::new(program);
        // A recovery clock scaled to the watched horizon: the stock 2ms
        // RTO would never fire inside the 600μs campaigns, hiding loss
        // from the retransmit-rate SLO entirely.
        host.enable_reliability(ReliableConfig {
            rto: 12_000,
            max_rto: 48_000,
            ..ReliableConfig::default()
        });
        host.enable_telemetry(1.0, 65_536);
        host.enable_scope(scope);
        let data: Vec<i32> = vec![w as i32; DATA_LEN];
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId((w - lo + 1) % n + lo)),
            start: 0,
            gap: GAP,
        })
        .expect("valid invocation");
        host.bind_incoming(
            program,
            "allreduce",
            "result",
            &[(ScalarType::I32, DATA_LEN), (ScalarType::Bool, 1)],
        )
        .expect("paired");
        host.done_on_flag(kid, 1);
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    apps
}

struct Fixture {
    dep: MultiDeployment,
    scope: Scope,
}

/// Builds the two-tenant fabric; `greedy` adds the over-quota tenant.
fn build(overrides: Vec<(String, String, LinkSpec)>, greedy: bool) -> Fixture {
    let scope = Scope::new(1 << 16);
    let pa = ar_program(0);
    let pb = ar_program(100);
    let mut tenants = vec![
        TenantDeploy {
            spec: TenantSpec::new("ar-a"),
            apps: ar_apps(&pa, 1, 3, &scope),
            program: pa,
        },
        TenantDeploy {
            spec: TenantSpec::new("ar-b"),
            apps: ar_apps(&pb, 4, 6, &scope),
            program: pb,
        },
    ];
    if greedy {
        tenants.push(TenantDeploy {
            spec: TenantSpec::with_quota("greedy", TenantQuota::new(0, usize::MAX, usize::MAX)),
            program: ar_program(300),
            apps: HashMap::new(),
        });
    }
    let opts = DeployOptions {
        backend: SwitchBackend::Simd,
        scope: Some(scope.clone()),
        link_overrides: overrides,
        ..DeployOptions::default()
    };
    let mut dep = ncl_core::deploy_tenants(tenants, opts).expect("structurally sound");
    for tenant in ["ar-a", "ar-b"] {
        let op = CtrlOp::RegWrite {
            name: "nworkers".into(),
            index: 0,
            value: Value::u32(3),
        };
        let mux = dep.mux_mut("s1").expect("s1 is multiplexed");
        assert!(mux.ctrl_for(tenant, &op), "{tenant}: nworkers write routed");
    }
    Fixture { dep, scope }
}

/// The campaign SLO set: a retransmit-rate ceiling and the
/// unknown-kernel guard per tenant.
fn watch_cfg() -> WatchConfig {
    let mut slos = Vec::new();
    for t in ["ar-a", "ar-b"] {
        slos.push(SloSpec::new(
            &format!("{t}.retransmit_rate"),
            t,
            Objective::RetransmitCeiling { max_per_mille: 250 },
        ));
        slos.push(SloSpec::new(
            &format!("{t}.unknown_kernel"),
            t,
            Objective::UnknownKernelZero,
        ));
    }
    WatchConfig {
        tick_ns: TICK_NS,
        slos,
        ..WatchConfig::default()
    }
}

fn total_acked(dep: &MultiDeployment) -> u64 {
    (1..=6u16)
        .map(|w| {
            dep.dep_host(w)
                .sender_stats()
                .expect("reliability on")
                .acked
        })
        .sum()
}

trait HostAt {
    fn dep_host(&self, w: u16) -> &NclHost;
}

impl HostAt for MultiDeployment {
    fn dep_host(&self, w: u16) -> &NclHost {
        self.net.host_app::<NclHost>(HostId(w)).expect("worker app")
    }
}

fn assert_sums(dep: &MultiDeployment, kid: u16, lo: u16, hi: u16, sum: i32) {
    for w in lo..=hi {
        let host = dep.dep_host(w);
        assert!(host.done_at.is_some(), "worker {w} never completed");
        let mem = host.memory(kid).expect("result memory");
        for i in 0..DATA_LEN {
            assert_eq!(mem.arrays[0][i], Value::i32(sum), "worker {w} elem {i}");
        }
    }
}

// ---------------------------------------------------------------- 1

struct HealthyRun {
    wall_ms: f64,
    goodput: u64,
    incidents: usize,
    ticks: u64,
}

/// One clean end-to-end run, with or without the watch attached.
fn run_healthy(with_watch: bool) -> HealthyRun {
    let Fixture { mut dep, scope } = build(Vec::new(), false);
    let t = Instant::now();
    let (incidents, ticks) = if with_watch {
        let mut fw = dep.watch(watch_cfg(), Some(scope));
        let fired = fw.run_watched(&mut dep.net, T_END);
        (fired.len(), fw.engine().ticks())
    } else {
        dep.net.run_until(T_END);
        (0, 0)
    };
    dep.net.run();
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    assert_sums(&dep, 1, 1, 3, 6);
    assert_sums(&dep, 101, 4, 6, 15);
    HealthyRun {
        wall_ms,
        goodput: total_acked(&dep),
        incidents,
        ticks,
    }
}

// ---------------------------------------------------------------- 2

struct DegradeRun {
    fault_tick: u64,
    detect_ticks: u64,
    suspected: String,
    offline_suspect: String,
    incidents: usize,
    jsonl: String,
}

/// The degrading-link campaign: clean until `T_FAULT`, then
/// `worker1<->s1` drops every other frame.
fn run_degrading(log_path: &str) -> DegradeRun {
    let Fixture { mut dep, scope } = build(Vec::new(), false);
    let mut fw = dep.watch(watch_cfg(), Some(scope.clone()));
    std::fs::remove_file(log_path).ok();
    fw.engine_mut().arm(log_path);

    let pre = fw.run_watched(&mut dep.net, T_FAULT);
    assert!(pre.is_empty(), "fired before the fault: {pre:?}");
    let fault_tick = fw.engine().ticks();
    let degraded = LinkSpec {
        drop_every: 2,
        ..LinkSpec::default()
    };
    assert!(
        dep.net
            .set_link_spec(dep.node("worker1"), dep.node("s1"), degraded),
        "link worker1<->s1 exists"
    );
    fw.run_watched(&mut dep.net, T_END);

    let incidents = fw.engine().incidents().to_vec();
    assert!(!incidents.is_empty(), "degrading link never detected");
    let first = &incidents[0];
    assert!(first.tick >= fault_tick, "incident precedes the fault");
    let detect_ticks = first.tick - fault_tick + 1;

    // The streaming verdict must agree with the offline workflow: feed
    // the same capture through `ncscope`'s diagnosis after the fact.
    let mut traces: Vec<WindowTrace> = Vec::new();
    for w in 1..=6u16 {
        let host = dep.net.host_app_mut::<NclHost>(HostId(w)).expect("worker");
        traces.extend(host.take_traces());
    }
    let offline = diagnose(
        &scope.decoded(),
        &traces,
        &DiagnosisConfig {
            expected_path: Vec::new(),
            deployed_versions: dep.deployed_versions(),
        },
    );
    let (lo, hi) = offline
        .primary_loss_locus()
        .expect("offline diagnosis finds the lossy link");
    let offline_suspect = format!("link {}", link_name(lo, hi));

    DegradeRun {
        fault_tick,
        detect_ticks,
        suspected: first.suspected.clone(),
        offline_suspect,
        incidents: incidents.len(),
        jsonl: std::fs::read_to_string(log_path).expect("armed log written"),
    }
}

// ---------------------------------------------------------------- 3

/// The loss-burst campaign: `worker4<->s1` bursts from t=0; the
/// incident must land on tenant `ar-b` and the right link.
fn run_loss_burst() -> IncidentReport {
    let burst = LinkSpec {
        drop_every: 4,
        burst_len: 2,
        ..LinkSpec::default()
    };
    let overrides = vec![("worker4".to_string(), "s1".to_string(), burst)];
    let Fixture { mut dep, scope } = build(overrides, false);
    let mut fw = dep.watch(watch_cfg(), Some(scope));
    fw.run_watched(&mut dep.net, T_END);
    let expected_link = format!(
        "link {}",
        link_name(dep.node("worker4").to_wire(), dep.node("s1").to_wire())
    );
    let hit = fw
        .engine()
        .incidents()
        .iter()
        .find(|i| i.tenant == "ar-b" && i.suspected == expected_link)
        .unwrap_or_else(|| {
            panic!(
                "no ar-b incident names {expected_link}; got {:?}",
                fw.engine()
                    .incidents()
                    .iter()
                    .map(|i| (&i.tenant, &i.suspected))
                    .collect::<Vec<_>>()
            )
        });
    hit.clone()
}

// ---------------------------------------------------------------- 4

/// The over-quota campaign: rejection at admission, incident at tick 0.
fn run_over_quota() -> IncidentReport {
    let Fixture { dep, scope } = build(Vec::new(), true);
    assert_eq!(dep.tenants(), vec!["ar-a", "ar-b"]);
    assert_eq!(dep.rejections.len(), 1, "exactly the greedy tenant");
    let fw = dep.watch(watch_cfg(), Some(scope));
    let incidents = fw.engine().incidents();
    assert_eq!(incidents.len(), 1, "one admission incident");
    let i = incidents[0].clone();
    assert_eq!((i.kind.as_str(), i.tick), ("admission", 0));
    assert_eq!(i.tenant, "greedy");
    assert!(i.exemplars[0].1.contains("\"budget\":\"tenant_quota\""));
    i
}

// ---------------------------------------------------------------- 5

/// The upgrade-drain campaign: a hitless e14-style upgrade under the
/// watch fires nothing.
fn run_upgrade() -> (u64, usize) {
    let Fixture { mut dep, scope } = build(Vec::new(), false);
    let mut fw = dep.watch(watch_cfg(), Some(scope));
    fw.run_watched(&mut dep.net, 20_000);
    let mut drain: BTreeSet<(u16, u32)> = BTreeSet::new();
    for w in 1..=3u16 {
        drain.extend(dep.dep_host(w).in_flight_keys());
    }
    let drain: Vec<(u16, u32)> = drain.into_iter().collect();
    let mut upgrade = dep
        .begin_upgrade("ar-a", &ar_program(0), drain.clone())
        .expect("upgrade admits");
    fw.run_watched(&mut dep.net, T_END);
    dep.net.run();
    assert_sums(&dep, 1, 1, 3, 6);
    assert_sums(&dep, 101, 4, 6, 15);
    for &(k, s) in &drain {
        upgrade.acked(k, s);
    }
    assert!(upgrade.is_complete(), "drain set fully acked");
    dep.finish_upgrade(&upgrade).expect("reclaims v1");
    (fw.engine().ticks(), fw.engine().incidents().len())
}

fn main() {
    println!("E16: streaming SLO engine, anomaly detection, auto-captured incidents");
    println!(
        "2 paced allreduce tenants, tick {TICK_NS}ns; degrade at t={T_FAULT}ns, \
         detection budget {DETECT_BUDGET} ticks\n"
    );

    // 1 — healthy control + overhead (median of interleaved pairs).
    let mut bare_goodput = 0;
    let mut watched = None;
    let pr = paired_ratio(
        OVERHEAD_PAIRS,
        || {
            let b = run_healthy(false);
            bare_goodput = b.goodput;
            b.wall_ms / 1e3
        },
        || {
            let w = run_healthy(true);
            assert_eq!(w.incidents, 0, "false positives on the healthy run");
            let secs = w.wall_ms / 1e3;
            watched = Some(w);
            secs
        },
    );
    let watched = watched.unwrap();
    assert!(
        watched.goodput * 50 >= bare_goodput * 49,
        "watch cost goodput: {} vs {bare_goodput}",
        watched.goodput
    );
    let (bare_ms, watched_ms) = (pr.a_secs * 1e3, pr.b_secs * 1e3);
    let wall_overhead_pct = (pr.median - 1.0) * 100.0;
    println!(
        "healthy control: {} windows acked, {} ticks, 0 incidents; \
         wall {watched_ms:.1}ms watched vs {bare_ms:.1}ms bare ({wall_overhead_pct:+.1}%, \
         median of {OVERHEAD_PAIRS} interleaved pairs, quartiles {:+.1}%..{:+.1}%)",
        watched.goodput,
        watched.ticks,
        (pr.quartiles.0 - 1.0) * 100.0,
        (pr.quartiles.1 - 1.0) * 100.0
    );

    // 2 — degrading link, twice for byte-identical reports.
    let d1 = run_degrading("target/e16-incidents.jsonl");
    let d2 = run_degrading("target/e16-incidents-rerun.jsonl");
    assert_eq!(
        d1.jsonl, d2.jsonl,
        "identical runs must mint byte-identical incident logs"
    );
    let byte_identical = d1.jsonl == d2.jsonl;
    assert_eq!(
        d1.suspected, d1.offline_suspect,
        "streaming verdict disagrees with offline ncscope diagnosis"
    );
    assert!(
        d1.detect_ticks <= DETECT_BUDGET,
        "detection took {} ticks (budget {DETECT_BUDGET})",
        d1.detect_ticks
    );
    println!(
        "degrading link: detected in {} tick(s) after fault (tick {}), suspected '{}' \
         == offline diagnosis; {} incident(s), byte-identical across reruns",
        d1.detect_ticks, d1.fault_tick, d1.suspected, d1.incidents
    );

    // 3 — loss burst under ar-b.
    let burst = run_loss_burst();
    println!(
        "loss burst: [{}] {} blamed '{}' (tenant {})",
        burst.kind, burst.source, burst.suspected, burst.tenant
    );

    // 4 — over-quota tenant.
    let adm = run_over_quota();
    println!(
        "over-quota: [{}] tick {} tenant {} → {}",
        adm.kind, adm.tick, adm.tenant, adm.suspected
    );

    // 5 — upgrade drain.
    let (upgrade_ticks, upgrade_incidents) = run_upgrade();
    assert_eq!(upgrade_incidents, 0, "a hitless upgrade is not an incident");
    println!("upgrade drain: {upgrade_ticks} ticks watched, 0 incidents (hitless)\n");

    rule(72);
    println!(
        "{:>16} {:>10} {:>12} {:>10} {:>10}",
        "campaign", "incidents", "detect", "gate", "status"
    );
    rule(72);
    println!(
        "{:>16} {:>10} {:>12} {:>10} {:>10}",
        "healthy", watched.incidents, "-", "0 false+", "pass"
    );
    println!(
        "{:>16} {:>10} {:>12} {:>10} {:>10}",
        "degrading-link",
        d1.incidents,
        format!("{} ticks", d1.detect_ticks),
        format!("<= {DETECT_BUDGET}"),
        "pass"
    );
    println!(
        "{:>16} {:>10} {:>12} {:>10} {:>10}",
        "loss-burst", 1, "-", "link named", "pass"
    );
    println!(
        "{:>16} {:>10} {:>12} {:>10} {:>10}",
        "over-quota", 1, "tick 0", "report", "pass"
    );
    println!(
        "{:>16} {:>10} {:>12} {:>10} {:>10}",
        "upgrade-drain", upgrade_incidents, "-", "0 fired", "pass"
    );
    rule(72);

    let json = format!(
        "{{\"experiment\":\"e16\",\"tick_ns\":{TICK_NS},\"detect_budget_ticks\":{DETECT_BUDGET},\
         \"healthy\":{{\"incidents\":{},\"ticks\":{},\"goodput\":{},\"goodput_bare\":{},\
         \"wall_ms_watched\":{:.3},\"wall_ms_bare\":{:.3},\"wall_overhead_pct\":{:.2}}},\
         \"degrading_link\":{{\"fault_tick\":{},\"detect_ticks\":{},\"incidents\":{},\
         \"suspected\":\"{}\",\"offline_suspect\":\"{}\",\"byte_identical_reruns\":{}}},\
         \"loss_burst\":{{\"tenant\":\"{}\",\"suspected\":\"{}\",\"source\":\"{}\"}},\
         \"over_quota\":{{\"tenant\":\"{}\",\"tick\":{},\"id\":\"{}\"}},\
         \"upgrade_drain\":{{\"ticks\":{},\"incidents\":{}}}}}\n",
        watched.incidents,
        watched.ticks,
        watched.goodput,
        bare_goodput,
        watched_ms,
        bare_ms,
        wall_overhead_pct,
        d1.fault_tick,
        d1.detect_ticks,
        d1.incidents,
        d1.suspected,
        d1.offline_suspect,
        byte_identical,
        burst.tenant,
        burst.suspected,
        burst.source,
        adm.tenant,
        adm.tick,
        adm.id,
        upgrade_ticks,
        upgrade_incidents,
    );
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/e16-metrics.json", &json).expect("write target/e16-metrics.json");
    println!("\nwrote target/e16-metrics.json ({} bytes)", json.len());
    println!(
        "wrote target/e16-incidents.jsonl ({} bytes)",
        d1.jsonl.len()
    );
}
