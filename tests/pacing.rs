//! Paced invocations: `ncl::out` with a per-window gap spreads the
//! transmission in time (the knob that avoids incast at the aggregation
//! switch); results stay identical to blasting.

use ncl::core::apps::allreduce_source;
use ncl::core::control::ControlPlane;
use ncl::core::deploy::{deploy_opts, DeployOptions};
use ncl::core::nclc::{compile, CompileConfig};
use ncl::core::runtime::{NclHost, OutInvocation, TypedArray};
use ncl::model::{HostId, NodeId, ScalarType, Value};
use ncl::netsim::HostApp;
use std::collections::HashMap;

fn run(gap: u64) -> (u64, Vec<i64>) {
    let n = 3usize;
    let data_len = 64usize;
    let win = 8usize;
    let src = allreduce_source(data_len, win);
    let and = format!("hosts worker {n}\nswitch s1\nlink worker* s1\n");
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![win as u16]);
    cfg.masks.insert("result".into(), vec![win as u16]);
    let program = compile(&src, &and, &cfg).expect("compiles");
    let kid = program.kernel_ids["allreduce"];
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=n as u16 {
        let mut host = NclHost::new(&program);
        let data: Vec<i32> = vec![w as i32; data_len];
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data)],
            dest: NodeId::Host(HostId(w % n as u16 + 1)),
            start: 0,
            gap,
        })
        .unwrap();
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, data_len), (ScalarType::Bool, 1)],
        )
        .unwrap();
        host.done_on_flag(kid, 1);
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).expect("deploys");
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_pipeline_mut(s1).unwrap(),
        "nworkers",
        Value::u32(n as u32),
    );
    dep.net.run();
    let host = dep.net.host_app::<NclHost>(HostId(1)).unwrap();
    let done = host.done_at.expect("completes");
    let result: Vec<i64> = (0..data_len)
        .map(|i| host.memory(kid).unwrap().arrays[0][i].as_i128() as i64)
        .collect();
    (done, result)
}

#[test]
fn paced_and_blast_agree_on_results() {
    let (t_blast, r_blast) = run(0);
    let (t_paced, r_paced) = run(50_000); // 50 µs between windows
    assert_eq!(r_blast, r_paced, "pacing must not change the reduction");
    assert_eq!(r_blast, vec![1 + 2 + 3; 64]);
    // Pacing stretches completion by roughly (windows-1) × gap.
    assert!(
        t_paced > t_blast + 3 * 50_000,
        "pacing should stretch completion: {t_blast} → {t_paced}"
    );
}

#[test]
fn delayed_start_defers_first_packet() {
    let n = 2usize;
    let src = allreduce_source(16, 8);
    let and = format!("hosts worker {n}\nswitch s1\nlink worker* s1\n");
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![8]);
    cfg.masks.insert("result".into(), vec![8]);
    let program = compile(&src, &and, &cfg).expect("compiles");
    let kid = program.kernel_ids["allreduce"];
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    for w in 1..=n as u16 {
        let mut host = NclHost::new(&program);
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&[1; 16])],
            dest: NodeId::Host(HostId(w % n as u16 + 1)),
            start: 2_000_000, // 2 ms in
            gap: 0,
        })
        .unwrap();
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, 16), (ScalarType::Bool, 1)],
        )
        .unwrap();
        host.done_on_flag(kid, 1);
        apps.insert(format!("worker{w}"), Box::new(host));
    }
    let mut dep = deploy_opts(&program, apps, DeployOptions::default()).expect("deploys");
    let cp = ControlPlane::new(program.switch("s1").unwrap());
    let s1 = dep.switch("s1");
    cp.ctrl_wr(
        dep.net.switch_pipeline_mut(s1).unwrap(),
        "nworkers",
        Value::u32(n as u32),
    );
    dep.net.run();
    let done = dep
        .net
        .host_app::<NclHost>(HostId(1))
        .unwrap()
        .done_at
        .expect("completes");
    assert!(
        done >= 2_000_000,
        "completion {done} precedes the start time"
    );
}
