//! Per-layer replay costs. `deploy` owns the switch datapath and the
//! host runtime keeps its split, codec and `_in_` kernel private, so
//! each layer is timed by replaying the workload's own windows through
//! that layer's public function, in pipeline order: split → encode →
//! switch → reassemble → `_in_` kernel, plus one `Scope::emit` per
//! window.

use crate::probe::Tracer;
use crate::workloads::{AllreduceShape, Deployed, Inputs, KvsShape};
use c3::{Chunk, HostId, KernelId, NodeId, ScalarType, Value, Window};
use ncl_core::apps::{KvsClient, KvsOp};
use ncl_core::fastpath::FastPathSwitch;
use ncl_core::nclc::CompiledProgram;
use ncl_core::runtime::{kernel_runtimes, module_kernel, TypedArray};
use ncl_ir::{CompiledKernel, ExecScratch, HostMemory};
use ncp::codec::{encode_window, Reassembler};
use nctel::{Scope, ScopeEvent, WindowKey};
use std::hint::black_box;
use std::time::Instant;

/// Median wall cost of one unit of work in each layer, ns. A layer the
/// workload's windows cannot pass through reads 0.
#[derive(Clone, Copy, Default, Debug)]
pub struct LayerCosts {
    /// `WindowSpec::split`, per window produced.
    pub split_ns: f64,
    /// `encode_window`, per window.
    pub encode_ns: f64,
    /// `Reassembler::push`, per window delivered.
    pub reassemble_ns: f64,
    /// `CompiledKernel::run_incoming`, per window.
    pub run_incoming_ns: f64,
    /// `FastPathSwitch::process_window` or `pisa::Pipeline::process`,
    /// per window.
    pub switch_ns: f64,
    /// `Scope::emit`, per event.
    pub emit_ns: f64,
    /// Whether the replayed chain reproduced the expected outputs.
    pub outputs_ok: bool,
}

/// Median of `v` (0 when empty).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Times `f` on a fresh `prep()` input `reps` times (`reps` ≥ 1) and
/// returns the median ns per unit plus the last call's output; `f`
/// returns how many units it did and what it produced. Inputs and
/// outputs are made and dropped outside the timing. Each call is a span.
fn per_unit<T, R>(
    reps: usize,
    name: &'static str,
    tracer: &mut Option<&mut Tracer>,
    mut prep: impl FnMut() -> T,
    mut f: impl FnMut(T) -> (usize, R),
) -> (f64, R) {
    let mut v = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let input = prep();
        let start = Instant::now();
        let (units, out) = f(input);
        let end = Instant::now();
        if let Some(t) = tracer.as_deref_mut() {
            t.record(name, "replay", start, end);
        }
        v.push((end - start).as_nanos() as f64 / units.max(1) as f64);
        last = Some(out);
    }
    (median(v), last.expect("at least one repetition"))
}

/// Replays the workload's windows through every layer, `reps` times
/// each, on the set-up and run in `d`.
pub fn replay(
    inputs: &Inputs,
    d: &mut Deployed,
    reps: usize,
    tracer: Option<&mut Tracer>,
) -> LayerCosts {
    match inputs {
        Inputs::Allreduce {
            shape,
            data,
            expected,
            ..
        } => replay_allreduce(shape, data, expected, &d.program, reps, tracer),
        Inputs::Kvs { shape, schedules } => replay_kvs(shape, schedules, d, reps, tracer),
    }
}

fn emit_cost(keys: &[WindowKey], reps: usize, tracer: &mut Option<&mut Tracer>) -> f64 {
    per_unit(
        reps,
        "replay.nctel.emit",
        tracer,
        || Scope::new(1 << 16),
        |scope| {
            for (i, k) in keys.iter().enumerate() {
                scope.emit(
                    i as u64,
                    k.sender,
                    *k,
                    ScopeEvent::WindowSent { attempt: 0 },
                );
            }
            (keys.len(), scope)
        },
    )
    .0
}

fn replay_allreduce(
    s: &AllreduceShape,
    data: &[Vec<i32>],
    expected: &[i32],
    program: &CompiledProgram,
    reps: usize,
    mut tracer: Option<&mut Tracer>,
) -> LayerCosts {
    let runtimes = kernel_runtimes(program);
    let rt = &runtimes["allreduce"];
    let ext_total = program.checked.window_ext.size();
    let arrays: Vec<Vec<u8>> = data.iter().map(|d| TypedArray::from_i32(d).bytes).collect();
    let n = s.windows();
    let total = s.workers * n;

    // One worker's invocation at a time, split and dropped, as the
    // runtime does; the windows the later layers replay are split once
    // more outside the timing.
    let (split_ns, ()) = per_unit(
        reps,
        "replay.c3.split",
        &mut tracer,
        || (),
        |()| {
            for a in &arrays {
                black_box(rt.spec.split(&[&a[..]]).expect("validated arrays split"));
            }
            (total, ())
        },
    );
    let mut windows: Vec<Vec<Window>> = arrays
        .iter()
        .map(|a| rt.spec.split(&[&a[..]]).expect("validated arrays split"))
        .collect();
    // Tag each window as `NclHost` does before encoding it.
    for (w, ws) in windows.iter_mut().enumerate() {
        let host = HostId(w as u16 + 1);
        for win in ws {
            win.kernel = KernelId(rt.id);
            win.sender = host;
            win.from = NodeId::Host(host);
        }
    }

    let (encode_ns, frames) = per_unit(
        reps,
        "replay.ncp.encode",
        &mut tracer,
        || (),
        |()| {
            let frames: Vec<Vec<Vec<u8>>> = windows
                .iter()
                .map(|ws| ws.iter().map(|w| encode_window(w, ext_total)).collect())
                .collect();
            (total, frames)
        },
    );

    // Workers' windows reach the switch interleaved by sequence number.
    let (switch_ns, results) = per_unit(
        reps,
        "replay.switch",
        &mut tracer,
        || {
            let mut fp =
                FastPathSwitch::from_program_with(program, "s1", true).expect("s1 has a module");
            assert!(fp.ctrl_wr("nworkers", Value::u32(s.workers as u32)));
            fp
        },
        |mut fp| {
            let mut results = Vec::with_capacity(n);
            for seq in 0..n {
                for worker in &frames {
                    if let Some(v) = fp.process_window(&worker[seq]) {
                        if v.fwd_code == 2 {
                            results.push(v.payload);
                        }
                    }
                }
            }
            (total, results)
        },
    );

    let (reassemble_ns, delivered) = per_unit(
        reps,
        "replay.ncp.reassemble",
        &mut tracer,
        Reassembler::new,
        |mut ra| {
            let delivered: Vec<Window> = results
                .iter()
                .filter_map(|f| ra.push(f).ok().flatten())
                .collect();
            (results.len(), delivered)
        },
    );

    let kernel = module_kernel(&program.generic, "result").expect("_in_ kernel");
    let compiled = CompiledKernel::compile(&kernel);
    let ext = [(ScalarType::I32, s.elements), (ScalarType::Bool, 1)];
    let (run_incoming_ns, memory) = per_unit(
        reps,
        "replay.exec.run_incoming",
        &mut tracer,
        || (delivered.clone(), HostMemory::new(&ext), ExecScratch::new()),
        |(mut ws, mut mem, mut scratch)| {
            for w in &mut ws {
                compiled
                    .run_incoming(w, &mut mem, &mut scratch)
                    .expect("_in_ kernel runs");
            }
            (ws.len(), mem)
        },
    );
    let sums: Vec<i32> = memory.arrays[0]
        .iter()
        .map(|v| v.bits() as u32 as i32)
        .collect();
    let outputs_ok = delivered.len() == n
        && sums == expected
        && memory.arrays[1].first().is_some_and(|v| v.is_truthy());

    let keys: Vec<WindowKey> = (0..total)
        .map(|i| WindowKey::new((i % s.workers) as u16 + 1, rt.id, (i / s.workers) as u32))
        .collect();
    let emit_ns = emit_cost(&keys, reps, &mut tracer);
    LayerCosts {
        split_ns,
        encode_ns,
        reassemble_ns,
        run_incoming_ns,
        switch_ns,
        emit_ns,
        outputs_ok,
    }
}

/// The query window `KvsClient` sends for `op`.
fn query_window(kernel: u16, client: u16, seq: u32, op: &KvsOp, val_words: usize) -> Window {
    let val = if op.put {
        KvsClient::value_for(op.key, val_words)
    } else {
        vec![0; val_words]
    };
    let host = HostId(client);
    Window {
        kernel: KernelId(kernel),
        seq,
        sender: host,
        from: NodeId::Host(host),
        last: false,
        chunks: vec![
            Chunk {
                offset: 0,
                data: op.key.to_be_bytes().to_vec(),
            },
            Chunk {
                offset: 0,
                data: val.iter().flat_map(|v| v.to_be_bytes()).collect(),
            },
            Chunk {
                offset: 0,
                data: vec![op.put as u8],
            },
        ],
        ext: vec![],
    }
}

fn replay_kvs(
    s: &KvsShape,
    schedules: &[Vec<KvsOp>],
    d: &mut Deployed,
    reps: usize,
    mut tracer: Option<&mut Tracer>,
) -> LayerCosts {
    let program = &d.program;
    let kid = program.kernel_ids["query"];
    let runtimes = kernel_runtimes(program);
    let rt = &runtimes["query"];
    let windows: Vec<Window> = schedules
        .iter()
        .enumerate()
        .flat_map(|(c, ops)| {
            ops.iter()
                .enumerate()
                .map(move |(i, op)| query_window(kid, c as u16 + 1, i as u32, op, s.val_words))
        })
        .collect();

    // The KVS client builds its windows by hand; splitting the same
    // (key, value, update) arrays through the kernel's window spec is
    // what `ncl::out` would pay for them.
    let arrays: Vec<[Vec<u8>; 3]> = windows
        .iter()
        .map(|w| {
            [
                w.chunks[0].data.clone(),
                w.chunks[1].data.clone(),
                w.chunks[2].data.clone(),
            ]
        })
        .collect();
    let (split_ns, split) = per_unit(
        reps,
        "replay.c3.split",
        &mut tracer,
        || (),
        |()| {
            let split: Vec<Vec<Window>> = arrays
                .iter()
                .map(|a| {
                    rt.spec
                        .split(&[&a[0][..], &a[1][..], &a[2][..]])
                        .expect("query arrays split")
                })
                .collect();
            (arrays.len(), split)
        },
    );

    let (encode_ns, frames) = per_unit(
        reps,
        "replay.ncp.encode",
        &mut tracer,
        || (),
        |()| {
            let frames: Vec<Vec<u8>> = windows.iter().map(|w| encode_window(w, 0)).collect();
            (frames.len(), frames)
        },
    );

    // The switch as the run left it: the cache holds the run's hot set.
    let pipeline = d
        .dep
        .net
        .switch_pipeline_mut(d.s1)
        .expect("PISA switch")
        .clone();
    let (switch_ns, outputs) = per_unit(
        reps,
        "replay.switch",
        &mut tracer,
        || pipeline.clone(),
        |mut pipe| {
            let outputs: Vec<_> = frames.iter().filter_map(|f| pipe.process(f)).collect();
            (frames.len(), outputs)
        },
    );

    let (reassemble_ns, decoded) = per_unit(
        reps,
        "replay.ncp.reassemble",
        &mut tracer,
        Reassembler::new,
        |mut ra| {
            let decoded: Vec<Window> = frames
                .iter()
                .filter_map(|f| ra.push(f).ok().flatten())
                .collect();
            (frames.len(), decoded)
        },
    );
    let outputs_ok = split.iter().all(|ws| ws.len() == 1)
        && decoded.len() == frames.len()
        && outputs.len() == frames.len()
        && outputs.iter().any(|o| o.fwd_code == 1);

    let keys: Vec<WindowKey> = windows
        .iter()
        .map(|w| WindowKey::new(w.sender.0, kid, w.seq))
        .collect();
    let emit_ns = emit_cost(&keys, reps, &mut tracer);
    LayerCosts {
        split_ns,
        encode_ns,
        reassemble_ns,
        run_incoming_ns: 0.0,
        switch_ns,
        emit_ns,
        outputs_ok,
    }
}
