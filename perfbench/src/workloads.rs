//! The three workloads: inputs from the seed, set-up (compile, host
//! apps, deploy), the simulated run, and the output checks.

use crate::probe::{HostLog, Layer, Probe, Tracer};
use crate::rng::{SplitMix64, Zipf};
use c3::{HostId, NodeId, ScalarType, Value};
use ncl_core::apps::{allreduce_source, kvs_source, KvsClient, KvsOp, KvsServer};
use ncl_core::control::ControlPlane;
use ncl_core::deploy::{deploy_opts, DeployOptions, Deployment, SwitchBackend};
use ncl_core::nclc::{compile, CompileConfig, CompiledProgram, ReplayFilter};
use ncl_core::runtime::{NclHost, OutInvocation, TypedArray};
use ncp::ReliableConfig;
use netsim::{HostApp, LinkSpec, Time};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

/// A benchmark workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Fig. 4 AllReduce, wide windows, lossless links, no NCP-R.
    AllreduceWide,
    /// Fig. 4 AllReduce with NCP-R, the replay filter, ~1% loss,
    /// ncscope recording and full telemetry sampling.
    AllreduceReliable,
    /// Fig. 5 in-switch KVS cache under a Zipf key stream.
    KvsZipf,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::AllreduceWide,
        Workload::AllreduceReliable,
        Workload::KvsZipf,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AllreduceWide => "allreduce_wide",
            Workload::AllreduceReliable => "allreduce_reliable",
            Workload::KvsZipf => "kvs_zipf",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::AllreduceWide => Shape::Allreduce(AllreduceShape {
                workers: 4,
                elements: 64 * 1024,
                window: 256,
                reliable: false,
            }),
            Workload::AllreduceReliable => Shape::Allreduce(AllreduceShape {
                workers: 4,
                elements: 8 * 1024,
                window: 8,
                reliable: true,
            }),
            Workload::KvsZipf => Shape::Kvs(KvsShape {
                clients: 4,
                ops_per_client: 5000,
                keys: 10_000,
                skew: 0.99,
                put_frac: 0.05,
                val_words: 8,
                cache_slots: 64,
                gap: 150_000,
            }),
        }
    }

    /// A quick shape of the same workload, for the smoke tests: the
    /// same program, transport and checks on a fraction of the input
    /// (the reliable one keeps enough windows per link for the seeded
    /// loss to fire).
    pub fn smoke_shape(self) -> Shape {
        match self.shape() {
            Shape::Allreduce(s) => Shape::Allreduce(AllreduceShape {
                elements: s.elements / if s.reliable { 4 } else { 16 },
                ..s
            }),
            Shape::Kvs(s) => Shape::Kvs(KvsShape {
                ops_per_client: 500,
                ..s
            }),
        }
    }
}

/// An AllReduce shape.
#[derive(Clone, Copy, Debug)]
pub struct AllreduceShape {
    /// Workers (one host each).
    pub workers: usize,
    /// int32 elements per worker array.
    pub elements: usize,
    /// Elements per window.
    pub window: usize,
    /// NCP-R, replay filter, seeded loss, ncscope and telemetry on.
    pub reliable: bool,
}

impl AllreduceShape {
    /// Windows per worker.
    pub fn windows(&self) -> usize {
        self.elements / self.window
    }
}

/// A KVS shape.
#[derive(Clone, Copy, Debug)]
pub struct KvsShape {
    /// Client hosts.
    pub clients: usize,
    /// Operations each client issues.
    pub ops_per_client: usize,
    /// Keys `1..=keys`.
    pub keys: u64,
    /// Zipf exponent of the key stream.
    pub skew: f64,
    /// Share of operations that are PUTs.
    pub put_frac: f64,
    /// 32-bit words per value.
    pub val_words: usize,
    /// Switch cache slots.
    pub cache_slots: usize,
    /// Open-loop gap between one client's operations, simulated ns.
    pub gap: Time,
}

/// A workload shape.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// AllReduce.
    Allreduce(AllreduceShape),
    /// KVS.
    Kvs(KvsShape),
}

/// Everything the seed decides. Made once per process, before any
/// timing; the program only ever sees these values.
pub enum Inputs {
    /// AllReduce inputs.
    Allreduce {
        /// The shape.
        shape: AllreduceShape,
        /// Each worker's array.
        data: Vec<Vec<i32>>,
        /// The element-wise sum every worker must end with.
        expected: Vec<i32>,
        /// Per worker link, `drop_every` (0 = lossless).
        drop_every: Vec<u64>,
    },
    /// KVS inputs.
    Kvs {
        /// The shape.
        shape: KvsShape,
        /// Each client's open-loop schedule.
        schedules: Vec<Vec<KvsOp>>,
    },
}

impl Inputs {
    /// Draws the inputs of `shape` from `seed`, with loss pattern 0.
    pub fn new(shape: Shape, seed: u64) -> Self {
        Self::with_loss_pattern(shape, seed, 0)
    }

    /// Draws the inputs of `shape` from `seed`; a lossy shape draws its
    /// per-link loss from the seed's stream number `pattern`, so one
    /// seed names several loss patterns over the same arrays. Lossless
    /// shapes ignore `pattern`.
    pub fn with_loss_pattern(shape: Shape, seed: u64, pattern: u64) -> Self {
        match shape {
            Shape::Allreduce(shape) => {
                let data: Vec<Vec<i32>> = (0..shape.workers)
                    .map(|w| {
                        let mut rng = SplitMix64::new(seed, 1 + w as u64);
                        (0..shape.elements)
                            .map(|_| rng.range(0, 1 << 21) as i32 - (1 << 20))
                            .collect()
                    })
                    .collect();
                let mut expected = vec![0i32; shape.elements];
                for d in &data {
                    for (e, v) in expected.iter_mut().zip(d) {
                        *e = e.wrapping_add(*v);
                    }
                }
                // About 1% loss: every worker link drops every n-th
                // frame in each direction, n drawn per link from the
                // seed and the loss pattern.
                let mut rng = SplitMix64::new(seed, 1000 + pattern);
                let drop_every = (0..shape.workers)
                    .map(|_| {
                        if shape.reliable {
                            rng.range(90, 110)
                        } else {
                            0
                        }
                    })
                    .collect();
                Inputs::Allreduce {
                    shape,
                    data,
                    expected,
                    drop_every,
                }
            }
            Shape::Kvs(shape) => {
                let zipf = Zipf::new(shape.keys, shape.skew);
                let schedules = (1..=shape.clients as u64)
                    .map(|c| {
                        let mut rng = SplitMix64::new(seed, 2000 + c);
                        (0..shape.ops_per_client as u64)
                            .map(|i| KvsOp {
                                at: i * shape.gap + c * 900,
                                key: zipf.sample(&mut rng),
                                put: rng.next_f64() < shape.put_frac,
                            })
                            .collect()
                    })
                    .collect();
                Inputs::Kvs { shape, schedules }
            }
        }
    }
}

/// Wall time of the three set-up phases, ns.
#[derive(Clone, Copy, Default, Debug)]
pub struct SetupTimes {
    /// `nclc::compile`.
    pub compile_ns: u64,
    /// Host-app construction (`NclHost::new`/`out`/`bind_incoming`, or
    /// the KVS client schedules and the server's store).
    pub hosts_ns: u64,
    /// `deploy_opts` plus the control-plane writes the run needs.
    pub deploy_ns: u64,
}

impl SetupTimes {
    /// The whole set-up, ns.
    pub fn total_ns(&self) -> u64 {
        self.compile_ns + self.hosts_ns + self.deploy_ns
    }
}

/// A deployed, not yet run, workload.
pub struct Deployed {
    /// The compiled program.
    pub program: CompiledProgram,
    /// The simulated network.
    pub dep: Deployment,
    /// The switch's node id.
    pub s1: c3::SwitchId,
    /// The ncscope sink, when the workload records one.
    pub scope: Option<nctel::Scope>,
    /// Per wrapped host, what its probe saw.
    pub logs: Vec<Rc<RefCell<HostLog>>>,
    /// Set-up wall times.
    pub setup: SetupTimes,
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Compiles, builds the host apps and deploys. With a tracer, every
/// host app is wrapped so its callbacks are timed.
pub fn setup(inputs: &Inputs, tracer: Option<&Rc<RefCell<Tracer>>>) -> Deployed {
    match inputs {
        Inputs::Allreduce {
            shape,
            data,
            drop_every,
            ..
        } => setup_allreduce(shape, data, drop_every, tracer),
        Inputs::Kvs { shape, schedules } => setup_kvs(shape, schedules, tracer),
    }
}

fn allreduce_program(s: &AllreduceShape) -> (CompiledProgram, pisa::ResourceModel) {
    let src = allreduce_source(s.elements, s.window);
    let and = format!("hosts worker {}\nswitch s1\nlink worker* s1\n", s.workers);
    let mut cfg = CompileConfig::default();
    cfg.masks.insert("allreduce".into(), vec![s.window as u16]);
    cfg.masks.insert("result".into(), vec![s.window as u16]);
    // The chip model lifted as in `run_allreduce_e2e`: the benchmark
    // measures the software tiers, not chip fit.
    cfg.model.stages = 64;
    cfg.model.ops_per_stage = 8192;
    cfg.model.phv_header_bytes = 1 << 14;
    cfg.model.phv_metadata_bytes = 1 << 14;
    if s.reliable {
        cfg.replay_filters.insert(
            "allreduce".into(),
            ReplayFilter {
                senders: s.workers as u16,
                slots: s.windows() as u16,
            },
        );
    }
    let program = compile(&src, &and, &cfg).expect("allreduce compiles");
    (program, cfg.model)
}

/// The NCP-R transport of E10/E12: RTO a few times the loaded RTT and
/// an initial window deep enough to keep the switch busy.
fn reliable_config(windows: usize) -> ReliableConfig {
    ReliableConfig {
        filter_slots: windows,
        cwnd: 64,
        max_cwnd: 256,
        rto: 500_000,
        max_rto: 8_000_000,
        ..ReliableConfig::default()
    }
}

fn setup_allreduce(
    s: &AllreduceShape,
    data: &[Vec<i32>],
    drop_every: &[u64],
    tracer: Option<&Rc<RefCell<Tracer>>>,
) -> Deployed {
    let t = Instant::now();
    let (program, model) = allreduce_program(s);
    let compile_ns = elapsed_ns(t);

    let t = Instant::now();
    let kid = program.kernel_ids["allreduce"];
    let scope = s.reliable.then(|| nctel::Scope::new(1 << 16));
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    let mut logs = Vec::new();
    for w in 1..=s.workers as u16 {
        let mut host = NclHost::new(&program);
        host.out(OutInvocation {
            kernel: "allreduce".into(),
            arrays: vec![TypedArray::from_i32(&data[w as usize - 1])],
            dest: NodeId::Host(HostId(w % s.workers as u16 + 1)),
            start: 0,
            gap: 0,
        })
        .expect("valid invocation");
        host.bind_incoming(
            &program,
            "allreduce",
            "result",
            &[(ScalarType::I32, s.elements), (ScalarType::Bool, 1)],
        )
        .expect("paired kernels");
        host.done_on_flag(kid, 1);
        if let Some(scope) = &scope {
            host.enable_reliability(reliable_config(s.windows()));
            host.enable_telemetry(1.0, 65_536);
            host.enable_scope(scope);
        }
        let (probe, log) = Probe::new(
            host,
            Layer::Runtime,
            |h: &NclHost| h.windows_received,
            |h: &NclHost| h.windows_sent,
            tracer.cloned(),
        );
        logs.push(log);
        apps.insert(format!("worker{w}"), Box::new(probe));
    }
    let hosts_ns = elapsed_ns(t);

    let t = Instant::now();
    let link_overrides = drop_every
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(w, &n)| {
            let spec = LinkSpec {
                drop_every: n,
                ..LinkSpec::default()
            };
            (format!("worker{}", w + 1), "s1".to_string(), spec)
        })
        .collect();
    let opts = DeployOptions {
        link_overrides,
        backend: SwitchBackend::Simd,
        scope: scope.clone(),
        model,
        ..DeployOptions::default()
    };
    let mut dep = deploy_opts(&program, apps, opts).expect("allreduce deploys");
    let s1 = dep.switch("s1");
    let cp = ControlPlane::new(program.switch("s1").expect("s1 compiled"));
    let fp = dep.net.switch_fastpath_mut(s1).expect("fast path deployed");
    for op in cp.ctrl_wr_ops("nworkers", Value::u32(s.workers as u32)) {
        assert!(fp.ctrl(&op), "nworkers write lands");
    }
    let deploy_ns = elapsed_ns(t);
    Deployed {
        program,
        dep,
        s1,
        scope,
        logs,
        setup: SetupTimes {
            compile_ns,
            hosts_ns,
            deploy_ns,
        },
    }
}

fn setup_kvs(
    s: &KvsShape,
    schedules: &[Vec<KvsOp>],
    tracer: Option<&Rc<RefCell<Tracer>>>,
) -> Deployed {
    let t = Instant::now();
    let server_id = (s.clients + 1) as u16;
    let src = kvs_source(server_id, s.cache_slots, s.val_words);
    let and = format!(
        "hosts client {}\nswitch s1\nhost server\nlink client* s1\nlink server s1\n",
        s.clients
    );
    let mut cfg = CompileConfig::default();
    cfg.masks
        .insert("query".into(), vec![1, s.val_words as u16, 1]);
    let program = compile(&src, &and, &cfg).expect("kvs compiles");
    let compile_ns = elapsed_ns(t);

    let t = Instant::now();
    let kernel = program.kernel_ids["query"];
    let mut apps: HashMap<String, Box<dyn HostApp>> = HashMap::new();
    let mut logs = Vec::new();
    for (c, schedule) in (1..=s.clients as u16).zip(schedules) {
        let client = KvsClient::new(
            NodeId::Host(HostId(server_id)),
            HostId(server_id),
            kernel,
            s.val_words,
            schedule.clone(),
        );
        // Clients are always wrapped: the probe notes when each
        // operation is answered (the run's completion time).
        let (probe, log) = Probe::new(
            client,
            Layer::Apps,
            |c: &KvsClient| c.samples.len() as u64,
            |c: &KvsClient| c.samples.len() as u64 + c.outstanding() as u64,
            tracer.cloned(),
        );
        logs.push(log);
        let app: Box<dyn HostApp> = Box::new(probe);
        apps.insert(format!("client{c}"), app);
    }
    let control = ControlPlane::new(program.switch("s1").expect("s1 compiled"));
    let mut server = KvsServer::new(kernel, s.val_words, None, Some(control), s.cache_slots);
    for k in 1..=s.keys {
        server.store.insert(k, KvsClient::value_for(k, s.val_words));
    }
    let app: Box<dyn HostApp> = match tracer {
        Some(tr) => {
            let (probe, log) = Probe::new(
                server,
                Layer::Apps,
                |_: &KvsServer| 0,
                |s: &KvsServer| s.served,
                Some(tr.clone()),
            );
            logs.push(log);
            Box::new(probe)
        }
        None => Box::new(server),
    };
    apps.insert("server".into(), app);
    let hosts_ns = elapsed_ns(t);

    let t = Instant::now();
    let opts = DeployOptions {
        backend: SwitchBackend::Pisa,
        ..DeployOptions::default()
    };
    let mut dep = deploy_opts(&program, apps, opts).expect("kvs deploys");
    let s1 = dep.switch("s1");
    dep.net
        .host_app_mut::<KvsServer>(HostId(server_id))
        .expect("server")
        .cache_switch = Some(s1);
    let deploy_ns = elapsed_ns(t);
    Deployed {
        program,
        dep,
        s1,
        scope: None,
        logs,
        setup: SetupTimes {
            compile_ns,
            hosts_ns,
            deploy_ns,
        },
    }
}

/// The simulated results of one run: deterministic, so two runs of one
/// seed must agree on every field.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SimResult {
    /// Application operations attempted (result windows owed to
    /// workers, or KVS operations issued).
    pub attempted: u64,
    /// Attempted operations that failed their output check.
    pub failed: u64,
    /// Application windows completed (result windows delivered, or
    /// KVS operations answered).
    pub completed: u64,
    /// Simulated time the last operation completed, ns.
    pub completion_ns: Time,
    /// Per-operation simulated latency samples, sorted, ns: KVS GETs
    /// from issue to answer; AllReduce result windows from the offer
    /// at t = 0 to delivery.
    pub latencies: Vec<Time>,
    /// Bytes offered to links.
    pub wire_bytes: u64,
    /// Application payload bytes (arrays offered, or key + value per
    /// KVS operation).
    pub payload_bytes: u64,
    /// Operations answered from switch state (KVS cache hits; every
    /// aggregated AllReduce result window).
    pub switch_answered: u64,
    /// The base of `switch_answered` (GETs answered; result windows
    /// owed).
    pub switch_answerable: u64,
    /// Simulator events.
    pub events: u64,
    /// Windows the switch executed.
    pub switch_windows: u64,
    /// Frames hosts encoded and sent (data windows; KVS queries and
    /// responses).
    pub frames_sent: u64,
    /// Application data windows their origin sent, retransmissions
    /// included (worker windows; KVS queries).
    pub data_frames: u64,
    /// Frames hosts decoded (result windows; KVS queries at the server
    /// and answers at the clients).
    pub frames_decoded: u64,
    /// Frames hosts had sent when their `on_start` returned (AllReduce).
    pub frames_sent_at_start: u64,
    /// NCP-R retransmissions.
    pub retransmits: u64,
    /// ncscope events logged.
    pub scope_events: u64,
    /// KVS cache evictions.
    pub evictions: u64,
    /// FNV-1a over every result array / per-operation record.
    pub fingerprint: u64,
}

impl SimResult {
    /// Latency percentile `p` (0..=100), nearest rank below.
    pub fn latency_pct(&self, p: usize) -> Time {
        let n = self.latencies.len();
        if n == 0 {
            return 0;
        }
        self.latencies[(n - 1) * p / 100]
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Reads a finished run back and checks every output.
pub fn collect(inputs: &Inputs, d: &mut Deployed) -> SimResult {
    let stats = d.dep.net.stats();
    let switch_windows = d.dep.net.switch_stats(d.s1).map_or(0, |s| s.ncp_processed);
    let mut r = match inputs {
        Inputs::Allreduce {
            shape, expected, ..
        } => collect_allreduce(shape, expected, d),
        Inputs::Kvs { shape, .. } => collect_kvs(shape, d),
    };
    r.events = stats.events;
    r.wire_bytes = stats.bytes_sent;
    r.switch_windows = switch_windows;
    r.scope_events = d.scope.as_ref().map_or(0, |s| s.logged());
    r.latencies.sort_unstable();
    r
}

fn collect_allreduce(s: &AllreduceShape, expected: &[i32], d: &mut Deployed) -> SimResult {
    let kid = d.program.kernel_ids["allreduce"];
    let owed = s.windows() as u64;
    let mut r = SimResult {
        attempted: owed * s.workers as u64,
        payload_bytes: (s.workers * s.elements * 4) as u64,
        switch_answerable: owed * s.workers as u64,
        ..SimResult::default()
    };
    let mut fnv = Fnv::new();
    for w in 1..=s.workers as u16 {
        let host = d
            .dep
            .net
            .host_app::<NclHost>(HostId(w))
            .expect("worker app");
        let result: Vec<i32> = host
            .memory(kid)
            .map(|m| m.arrays[0].iter().map(|v| v.bits() as u32 as i32).collect())
            .unwrap_or_default();
        for v in &result {
            fnv.add(*v as u32 as u64);
        }
        let ok = host.done_at.is_some() && result == expected;
        if !ok {
            r.failed += owed;
        }
        r.completion_ns = r.completion_ns.max(host.done_at.unwrap_or(0));
        // A window reflected for another worker's retransmission can
        // arrive twice; completed windows count each sequence once.
        r.completed += host.windows_received.min(owed);
        r.switch_answered += host.windows_received.min(owed);
        r.frames_sent += host.windows_sent;
        r.data_frames += host.windows_sent;
        r.frames_decoded += host.windows_received;
        r.retransmits += host.sender_stats().map_or(0, |st| st.retransmits);
    }
    for log in &d.logs {
        let log = log.borrow();
        r.latencies.extend_from_slice(&log.completions);
        r.frames_sent_at_start += log.sent_at_start;
    }
    for t in &r.latencies {
        fnv.add(*t);
    }
    r.fingerprint = fnv.0;
    r
}

fn collect_kvs(s: &KvsShape, d: &mut Deployed) -> SimResult {
    let server_id = (s.clients + 1) as u16;
    let mut r = SimResult::default();
    let mut fnv = Fnv::new();
    for c in 1..=s.clients as u16 {
        let client = d
            .dep
            .net
            .host_app::<KvsClient>(HostId(c))
            .expect("client app");
        let issued = client.schedule.len() as u64;
        let answered = client.samples.len() as u64;
        r.attempted += issued;
        // A GET fails when it returns another key's value (`corrupt`)
        // or is never answered; a PUT fails when it is never acked.
        r.failed += client.corrupt + (issued - answered);
        r.completed += answered;
        r.frames_sent += issued;
        r.data_frames += issued;
        r.frames_decoded += answered;
        fnv.add(client.corrupt);
        for smp in &client.samples {
            fnv.add(smp.key);
            fnv.add(smp.latency);
            fnv.add(smp.put as u64 | (smp.from_cache as u64) << 1);
            if !smp.put {
                r.latencies.push(smp.latency);
                r.switch_answerable += 1;
                r.switch_answered += smp.from_cache as u64;
            }
        }
    }
    let server = d
        .dep
        .net
        .host_app::<KvsServer>(HostId(server_id))
        .expect("server app");
    r.frames_sent += server.served;
    r.frames_decoded += server.served;
    r.evictions = server.evictions;
    fnv.add(server.served);
    fnv.add(server.evictions);
    r.payload_bytes = r.attempted * (8 + 4 * s.val_words as u64);
    r.completion_ns = d
        .logs
        .iter()
        .filter_map(|log| log.borrow().completions.last().copied())
        .max()
        .unwrap_or(0);
    r.fingerprint = fnv.0;
    r
}

/// Runs the network to quiescence; returns its wall time, ns.
pub fn run(d: &mut Deployed) -> u64 {
    let t = Instant::now();
    d.dep.net.run();
    elapsed_ns(t)
}
