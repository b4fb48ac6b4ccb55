//! E14 — multi-tenant shared fabric: admission control, capacity
//! rejection, and a hitless kernel upgrade (DESIGN §4.12,
//! EXPERIMENTS §E14).
//!
//! Four tenants submit to one fabric: two AllReduce tenants, a
//! NetCache-style KVS tenant, and a deliberately over-quota tenant.
//! The ncsched admission controller admits the first three onto the
//! shared switch (one `TenantMux`, three datapaths) and rejects the
//! fourth with a machine-readable cost report naming the violated
//! budget. Mid-run, tenant `ar-a` is upgraded in place: the NCP-R
//! in-flight snapshot pins draining windows to v1 while fresh windows
//! run v2, and the per-hop version stamps in the window traces prove
//! no window executed the wrong version.
//!
//! Doubles as the CI acceptance gate: the whole scenario runs on both
//! software switch tiers (interp, simd) and must produce bit-identical
//! simulated results — same sums, same KVS hits, same window counts,
//! same drain size. Writes `target/e14-metrics.json`
//! (bench binaries run with cwd at the package root, so it lands
//! under crates/bench/).

use c3::{HostId, NodeId, ScalarType, Value};
use ncl_bench::{rule, Zipf};
use ncl_core::apps::{allreduce_source, kvs_source, KvsClient, KvsOp, KvsServer};
use ncl_core::deploy::{DeployOptions, SwitchBackend};
use ncl_core::{
    compile, CompileConfig, CompiledProgram, ControlPlane, MultiDeployment, NclHost, OutInvocation,
    TenantDeploy, TypedArray,
};
use ncsched::{BudgetKind, TenantQuota, TenantSpec};
use nctel::scope::analysis::{diagnose, DiagnosisConfig, WindowOutcome};
use nctel::scope::parse_flight;
use nctel::{Scope, SnapshotReason, WindowTrace};
use netsim::{CtrlOp, HostApp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

/// Six AllReduce workers, two KVS clients, one KVS server, one shared
/// switch. Host ids follow declaration order: workers 1-6, clients
/// 7-8, server 9.
const AND: &str = "hosts worker 6\nhosts client 2\nhost server\n\
                   switch s1\nlink worker* s1\nlink client* s1\nlink server s1\n";

const SERVER: u16 = 9;
const KVS_OPS: usize = 60;
const KVS_KEYS: u64 = 64;
const VAL_WORDS: usize = 8;
/// Sim time of the upgrade switchover, ns.
const T_UPGRADE: u64 = 2_000;

/// The shared chip model: the software tiers lift the Tofino-ish
/// defaults so three tenants fit one pipeline (stage packing is still
/// enforced — the greedy tenant's quota is what rejects it).
fn chip() -> pisa::ResourceModel {
    pisa::ResourceModel {
        stages: 64,
        ops_per_stage: 8192,
        phv_header_bytes: 1 << 14,
        phv_metadata_bytes: 1 << 14,
        ..pisa::ResourceModel::default()
    }
}

fn ar_program(base: u16) -> CompiledProgram {
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![4]);
    cfg.masks.insert("result".into(), vec![4]);
    cfg.kernel_id_base = base;
    cfg.model = chip();
    compile(&allreduce_source(16, 4), AND, &cfg).expect("allreduce compiles")
}

fn kvs_program(base: u16) -> CompiledProgram {
    let mut cfg = CompileConfig::default();
    cfg.masks
        .insert("query".into(), vec![1, VAL_WORDS as u16, 1]);
    cfg.kernel_id_base = base;
    cfg.model = chip();
    compile(&kvs_source(SERVER, KVS_KEYS as usize, VAL_WORDS), AND, &cfg).expect("kvs compiles")
}

/// AllReduce workers `lo..=hi` for one tenant, NCP-R on, full-rate
/// window telemetry so every hop record lands in a trace.
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
        host.enable_reliability(Default::default());
        host.enable_telemetry(1.0, 65_536);
        host.enable_scope(scope);
        let data: Vec<i32> = vec![w as i32; 16];
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId((w - lo + 1) % n + lo)),
            start: 0,
            gap: 0,
        })
        .expect("valid invocation");
        host.bind_incoming(
            program,
            "allreduce",
            "result",
            &[(ScalarType::I32, 16), (ScalarType::Bool, 1)],
        )
        .expect("paired");
        host.done_on_flag(kid, 1);
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    apps
}

/// Two Zipf-driven clients and the preloaded server — deterministic
/// schedules so every tier replays the same operation stream.
fn kvs_apps(program: &CompiledProgram) -> HashMap<String, Box<dyn HostApp>> {
    let kid = program.kernel_ids["query"];
    let zipf = Zipf::new(KVS_KEYS, 1.1);
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for c in 1..=2u16 {
        let mut rng = StdRng::seed_from_u64(c as u64 * 6271);
        let schedule: Vec<KvsOp> = (0..KVS_OPS)
            .map(|i| KvsOp {
                at: (i as u64) * 150_000 + c as u64 * 900,
                key: zipf.sample(&mut rng),
                put: rng.gen::<f64>() < 0.02,
            })
            .collect();
        apps.insert(
            format!("client{c}"),
            Box::new(KvsClient::new(
                NodeId::Host(HostId(SERVER)),
                HostId(SERVER),
                kid,
                VAL_WORDS,
                schedule,
            )),
        );
    }
    let control = ControlPlane::new(program.switch("s1").expect("kvs cache module"));
    let mut server = KvsServer::new(kid, VAL_WORDS, None, Some(control), KVS_KEYS as usize);
    for k in 1..=KVS_KEYS {
        server.store.insert(k, KvsClient::value_for(k, VAL_WORDS));
    }
    apps.insert("server".into(), Box::new(server));
    apps
}

fn set_nworkers(dep: &mut MultiDeployment, tenant: &str) {
    let op = CtrlOp::RegWrite {
        name: "nworkers".into(),
        index: 0,
        value: Value::u32(3),
    };
    let mux = dep.mux_mut("s1").expect("s1 is multiplexed");
    assert!(mux.ctrl_for(tenant, &op), "{tenant}: nworkers write routed");
}

fn assert_sums(dep: &MultiDeployment, kid: u16, lo: u16, hi: u16, sum: i32) {
    for w in lo..=hi {
        let host = dep.net.host_app::<NclHost>(HostId(w)).expect("worker app");
        assert!(host.done_at.is_some(), "worker {w} never completed");
        let mem = host.memory(kid).expect("result memory");
        for i in 0..16 {
            assert_eq!(mem.arrays[0][i], Value::i32(sum), "worker {w} elem {i}");
        }
    }
}

struct TierRun {
    backend: &'static str,
    wall_ms: f64,
    ncp_processed: u64,
    unknown_kernel: u64,
    drain: usize,
    traced: usize,
    wrong_version_hops: u64,
    stale_flagged: usize,
    abandoned: u64,
    kvs_gets: usize,
    kvs_server_ops: u64,
    kvs_hit_rate: f64,
    events_logged: u64,
    rejection_json: String,
}

/// One full scenario on one switch tier: deploy four tenants (one
/// rejected), upgrade `ar-a` mid-run, run to completion, verify
/// everything.
fn run_tier(backend: SwitchBackend, name: &'static str) -> TierRun {
    let scope = Scope::new(1 << 16);
    let pa = ar_program(0);
    let pb = ar_program(100);
    let pk = kvs_program(200);
    let tenants = vec![
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
        TenantDeploy {
            spec: TenantSpec::new("kvs"),
            apps: kvs_apps(&pk),
            program: pk,
        },
        // The greedy tenant: a valid program under a zero-stage quota.
        // Admission must reject it with a cost report, not an error.
        TenantDeploy {
            spec: TenantSpec::with_quota("greedy", TenantQuota::new(0, usize::MAX, usize::MAX)),
            program: ar_program(300),
            apps: HashMap::new(),
        },
    ];
    let opts = DeployOptions {
        backend,
        scope: Some(scope.clone()),
        model: chip(),
        ..DeployOptions::default()
    };
    let mut dep = ncl_core::deploy_tenants(tenants, opts).expect("structurally sound");

    // Admission: three in, one out, with the budget named.
    assert_eq!(dep.tenants(), vec!["ar-a", "ar-b", "kvs"]);
    assert_eq!(dep.rejections.len(), 1, "exactly the greedy tenant");
    let report = &dep.rejections[0];
    assert_eq!(report.tenant, "greedy");
    assert_eq!(report.budget, BudgetKind::TenantQuota);
    let rejection_json = report.render_json();
    assert!(rejection_json.contains("\"budget\":\"tenant_quota\""));
    assert!(rejection_json.contains("\"resource\":\"stages\""));

    set_nworkers(&mut dep, "ar-a");
    set_nworkers(&mut dep, "ar-b");
    let s1 = dep.switch("s1");
    dep.net
        .host_app_mut::<KvsServer>(HostId(SERVER))
        .expect("server")
        .cache_switch = Some(s1);

    // Run long enough for windows to be in flight, then upgrade ar-a.
    // The drain set is the union of every worker's NCP-R flight keys —
    // any window of a not-yet-retired seq keeps executing v1.
    dep.net.run_until(T_UPGRADE);
    let mut drain: BTreeSet<(u16, u32)> = BTreeSet::new();
    for w in 1..=3u16 {
        let host = dep.net.host_app::<NclHost>(HostId(w)).expect("worker");
        drain.extend(host.in_flight_keys());
    }
    let drain: Vec<(u16, u32)> = drain.into_iter().collect();
    let mut upgrade = dep
        .begin_upgrade("ar-a", &ar_program(0), drain.clone())
        .expect("upgrade admits");
    assert_eq!((upgrade.old_version, upgrade.new_version), (1, 2));
    let s1_wire = NodeId::Switch(s1).to_wire();
    assert_eq!(
        dep.deployed_versions()[&(s1_wire, 1)],
        2,
        "static version fact flips at switchover"
    );

    let t = Instant::now();
    let t_end = dep.net.run();
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;

    // Every tenant's results, untouched by its neighbours or the
    // upgrade: 1+2+3 = 6, 4+5+6 = 15, and byte-exact KVS values.
    assert_sums(&dep, 1, 1, 3, 6);
    assert_sums(&dep, 101, 4, 6, 15);
    let mut kvs_gets = 0usize;
    let mut kvs_hits = 0usize;
    for c in 1..=2u16 {
        let client = dep
            .net
            .host_app::<KvsClient>(HostId(6 + c))
            .expect("client");
        assert_eq!(client.corrupt, 0, "corrupt KVS responses");
        assert_eq!(client.outstanding(), 0, "unanswered KVS queries");
        for s in &client.samples {
            if !s.put {
                kvs_gets += 1;
                if s.from_cache {
                    kvs_hits += 1;
                }
            }
        }
    }
    let kvs_server_ops = dep
        .net
        .host_app::<KvsServer>(HostId(SERVER))
        .expect("server")
        .served;

    let stats = dep.net.switch_stats(s1).expect("switch stats");
    assert_eq!(stats.unknown_kernel, 0, "no window missed its tenant");

    // The hitless proof, from the per-hop version stamps: after the
    // switchover instant, v1 may only execute drained windows, and v2
    // may not appear before it. (`result` windows inherit the seq of
    // the `allreduce` window that produced them.)
    let mut traces: Vec<WindowTrace> = Vec::new();
    let mut abandoned = 0u64;
    for w in 1..=6u16 {
        let host = dep.net.host_app_mut::<NclHost>(HostId(w)).expect("worker");
        abandoned += host.sender_stats().expect("reliability on").abandoned;
        traces.extend(host.take_traces());
    }
    let in_drain = |kernel: u16, seq: u32| match kernel {
        1 | 2 => drain.contains(&(1, seq)),
        _ => false,
    };
    let mut wrong_version_hops = 0u64;
    for tr in &traces {
        for h in &tr.hops {
            if !(1..=2).contains(&h.kernel) {
                continue; // other tenants never change version
            }
            let wrong = (h.version == 2 && h.ticks_in < T_UPGRADE)
                || (h.version == 1 && h.ticks_in >= T_UPGRADE && !in_drain(h.kernel, tr.seq));
            if wrong {
                wrong_version_hops += 1;
            }
        }
    }
    assert_eq!(wrong_version_hops, 0, "a window executed the wrong version");
    assert_eq!(abandoned, 0, "NCP-R abandoned windows during the upgrade");

    // The ncscope diagnosis over the same evidence: no unknown-kernel
    // windows, nothing undelivered; windows flagged stale against the
    // *final* version facts are exactly the pre-switchover + drained
    // ones the hop scan already cleared.
    let diag = diagnose(
        &scope.decoded(),
        &traces,
        &DiagnosisConfig {
            expected_path: vec![s1_wire],
            deployed_versions: dep.deployed_versions(),
        },
    );
    assert!(diag.unknown_kernel.is_empty(), "{:?}", diag.unknown_kernel);
    assert!(
        diag.verdicts
            .iter()
            .all(|v| v.outcome != WindowOutcome::Abandoned),
        "diagnosis saw an abandoned window"
    );
    let stale_flagged = diag.verdicts.iter().filter(|v| v.stale_version).count();

    // Drain bookkeeping: the run retired every in-flight window; feed
    // the acks to the ticket and reclaim v1.
    for w in 1..=3u16 {
        let host = dep.net.host_app::<NclHost>(HostId(w)).expect("worker");
        assert!(
            host.in_flight_keys().is_empty(),
            "worker {w} still in flight"
        );
    }
    for &(k, s) in &drain {
        upgrade.acked(k, s);
    }
    assert!(upgrade.is_complete(), "drain set fully acked");
    dep.finish_upgrade(&upgrade).expect("reclaims v1");
    assert!(!dep.mux_mut("s1").expect("mux").is_draining("ar-a"));
    assert_eq!(dep.controller.tenant_version("ar-a"), Some(2));

    // Per-tenant series in the Prometheus export: one registry, every
    // host counter labeled with its owning tenant.
    let reg = nctel::Registry::new();
    dep.export_tenant_metrics(&reg);
    let prom = reg.render_prometheus();
    for tenant in ["ar-a", "ar-b"] {
        assert!(prom.contains(&format!("tenant=\"{tenant}\"")), "{prom}");
    }
    assert!(
        reg.counter_value("ncpr.sender.acked{tenant=\"ar-a\",host=\"worker1\"}")
            .expect("labeled series registered")
            > 0
    );

    // Flight-recorder round trip: the artifact parses back with the
    // run's events and traces intact.
    let flight = scope.flight_record(SnapshotReason::OnDemand, t_end, None, &traces);
    let artifact = parse_flight(&flight).expect("flight artifact parses");
    assert_eq!(artifact.traces.len(), traces.len());
    assert!(artifact.events_logged > 0);

    TierRun {
        backend: name,
        wall_ms,
        ncp_processed: stats.ncp_processed,
        unknown_kernel: stats.unknown_kernel,
        drain: drain.len(),
        traced: traces.len(),
        wrong_version_hops,
        stale_flagged,
        abandoned,
        kvs_gets,
        kvs_server_ops,
        kvs_hit_rate: kvs_hits as f64 / kvs_gets.max(1) as f64,
        events_logged: scope.logged(),
        rejection_json,
    }
}

fn main() {
    println!("E14: multi-tenant shared fabric — admission, rejection, hitless upgrade");
    println!(
        "4 tenants submitted (2x allreduce, 1x kvs, 1x over-quota); upgrade at t={T_UPGRADE}ns\n"
    );

    let runs = [
        run_tier(SwitchBackend::Interp, "interp"),
        run_tier(SwitchBackend::Simd, "simd"),
    ];

    rule(98);
    println!(
        "{:>9} {:>9} {:>8} {:>7} {:>7} {:>9} {:>6} {:>6} {:>9} {:>8} {:>9}",
        "tier",
        "ncp wins",
        "unknown",
        "drain",
        "traces",
        "wrong-ver",
        "stale",
        "gets",
        "srv ops",
        "hit",
        "wall ms"
    );
    rule(98);
    for r in &runs {
        println!(
            "{:>9} {:>9} {:>8} {:>7} {:>7} {:>9} {:>6} {:>6} {:>9} {:>7.2}% {:>9.1}",
            r.backend,
            r.ncp_processed,
            r.unknown_kernel,
            r.drain,
            r.traced,
            r.wrong_version_hops,
            r.stale_flagged,
            r.kvs_gets,
            r.kvs_server_ops,
            r.kvs_hit_rate * 100.0,
            r.wall_ms,
        );
    }
    rule(98);

    // Tier equivalence: the simulated outcome may not depend on the
    // switch execution tier.
    let base = &runs[0];
    for r in &runs[1..] {
        assert_eq!(
            r.ncp_processed, base.ncp_processed,
            "{}: window count",
            r.backend
        );
        assert_eq!(r.drain, base.drain, "{}: drain-set size", r.backend);
        assert_eq!(r.kvs_gets, base.kvs_gets, "{}: kvs gets", r.backend);
        assert_eq!(
            r.kvs_server_ops, base.kvs_server_ops,
            "{}: server load",
            r.backend
        );
        assert!(
            (r.kvs_hit_rate - base.kvs_hit_rate).abs() < 1e-12,
            "{}: hit rate",
            r.backend
        );
    }
    println!("\ntier equivalence: interp == simd on every simulated outcome");
    println!("rejection report: {}", base.rejection_json.trim_end());

    let tiers_json: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "{{\"tier\":\"{}\",\"ncp_processed\":{},\"unknown_kernel\":{},\"drain\":{},\
                 \"traces\":{},\"wrong_version_hops\":{},\"stale_flagged\":{},\"abandoned\":{},\
                 \"kvs_gets\":{},\"kvs_server_ops\":{},\"kvs_hit_rate\":{:.4},\
                 \"events_logged\":{},\"wall_ms\":{:.3}}}",
                r.backend,
                r.ncp_processed,
                r.unknown_kernel,
                r.drain,
                r.traced,
                r.wrong_version_hops,
                r.stale_flagged,
                r.abandoned,
                r.kvs_gets,
                r.kvs_server_ops,
                r.kvs_hit_rate,
                r.events_logged,
                r.wall_ms,
            )
        })
        .collect();
    let json = format!(
        "{{\"experiment\":\"e14\",\"tenants_submitted\":4,\"tenants_admitted\":3,\
         \"upgrade\":{{\"tenant\":\"ar-a\",\"old_version\":1,\"new_version\":2,\
         \"at_ns\":{T_UPGRADE},\"wrong_version_hops\":0}},\
         \"rejection\":{},\"tiers\":[{}]}}\n",
        base.rejection_json.trim_end(),
        tiers_json.join(",")
    );
    std::fs::create_dir_all("target").ok();
    std::fs::write("target/e14-metrics.json", &json).expect("write target/e14-metrics.json");
    println!("wrote target/e14-metrics.json ({} bytes)", json.len());
}
