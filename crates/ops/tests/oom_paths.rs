//! Capacity tests: a plan or a parameter set that does not fit the
//! simulated device fails with a typed `WontFit`, once, before anything
//! runs — the memory-wall behaviour every OOM-dependent figure (4b, 16,
//! 17) rests on.

use echo_device::{DeviceSim, DeviceSpec};
use echo_graph::{ExecOptions, Executor, Graph, GraphError, NodeId, Result, StashPlan};
use echo_memory::{DeviceMemory, LayerKind, WontFit};
use echo_ops::{MeanAll, Mul};
use echo_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

/// loss = mean(x * w), plus a parameter `v` the loss never reads.
struct Model {
    graph: Arc<Graph>,
    x: NodeId,
    w: NodeId,
    v: NodeId,
    loss: NodeId,
}

fn model() -> Model {
    let mut g = Graph::new();
    let x = g.input("x", LayerKind::Other);
    let w = g.param("w", LayerKind::Rnn);
    let v = g.param("v", LayerKind::Output);
    let m = g.apply("m", Arc::new(Mul), &[x, w], LayerKind::Rnn);
    let loss = g.apply("loss", Arc::new(MeanAll), &[m], LayerKind::Output);
    let graph = Arc::new(g);
    Model {
        graph,
        x,
        w,
        v,
        loss,
    }
}

fn bindings(m: &Model, n: usize) -> HashMap<NodeId, Tensor> {
    HashMap::from([(m.x, Tensor::full(Shape::d1(n), 1.0))])
}

/// An executor on `mem` with `w` bound at width `n`.
fn executor(m: &Model, mem: DeviceMemory, n: usize) -> Executor {
    let mut exec = Executor::new(Arc::clone(&m.graph), StashPlan::stash_all(), mem);
    exec.bind_param(m.w, Tensor::full(Shape::d1(n), 0.5))
        .unwrap();
    exec
}

fn ample(m: &Model, n: usize) -> Executor {
    executor(m, DeviceMemory::with_overhead_model(1 << 30, 0, 0.0), n)
}

/// The planned peak of one training step at width `n`.
fn planned_peak(m: &Model, n: usize) -> u64 {
    let plan = ample(m, n).plan_for(&bindings(m, n), m.loss, ExecOptions::default());
    plan.unwrap().planned_peak_bytes()
}

fn step(exec: &mut Executor, m: &Model, n: usize) -> Result<echo_graph::IterationStats> {
    exec.train_step(&bindings(m, n), m.loss, ExecOptions::default(), None)
}

fn wont_fit<T: std::fmt::Debug>(result: Result<T>) -> WontFit {
    match result {
        Err(GraphError::WontFit(err)) => err,
        other => panic!("expected WontFit, got {other:?}"),
    }
}

#[test]
fn capacity_boundary_is_exact() {
    // A plan whose peak plus overheads fills the device runs; one byte
    // less capacity rejects it — when memoized, installed or inherited.
    let m = model();
    let peak = planned_peak(&m, 64);
    let needed = peak + 100 + peak / 4;
    let exact = DeviceMemory::with_overhead_model(needed, 100, 0.25);
    let mut exec = executor(&m, exact, 64);
    assert_eq!(step(&mut exec, &m, 64).unwrap().peak_bytes, peak);
    assert_eq!(exec.memory_report().nvidia_smi_bytes, needed);

    let short = DeviceMemory::with_overhead_model(needed - 1, 100, 0.25);
    let expected = WontFit {
        needed,
        capacity: needed - 1,
    };
    let mut exec = executor(&m, short, 64);
    assert_eq!(wont_fit(step(&mut exec, &m, 64)), expected);
    let mut parent = ample(&m, 64);
    let plan = parent.plan_for(&bindings(&m, 64), m.loss, ExecOptions::default());
    let plan = plan.unwrap();
    assert_eq!(wont_fit(exec.set_exec_plan(Arc::clone(&plan))), expected);
    parent.set_exec_plan(plan).unwrap();
    assert_eq!(wont_fit(parent.clone_replica(short)), expected);
}

#[test]
fn fragmentation_model_reduces_usable_capacity() {
    let m = model();
    let peak = planned_peak(&m, 64);
    let plain = DeviceMemory::with_overhead_model(peak, 0, 0.0);
    assert!(step(&mut executor(&m, plain, 64), &m, 64).is_ok());
    let context = DeviceMemory::with_overhead_model(peak, 1, 0.0);
    let fragmented = DeviceMemory::with_overhead_model(peak, 0, 0.25);
    for mem in [context, fragmented] {
        wont_fit(step(&mut executor(&m, mem, 64), &m, 64));
    }
    // A batch small enough for the shrunk space still runs.
    assert!(step(&mut executor(&m, fragmented, 16), &m, 16).is_ok());
}

#[test]
fn allocation_failure_leaves_state_consistent() {
    // A WontFit is raised before any kernel runs: nothing is projected,
    // nothing is memoized, parameter values and gradients are untouched.
    let m = model();
    let peak = planned_peak(&m, 64);
    let mut exec = executor(&m, DeviceMemory::with_overhead_model(peak - 1, 0, 0.0), 64);
    exec.grad_mut(m.w).unwrap().map_inplace(|_| 3.0);
    let (value, grad) = (
        exec.param(m.w).unwrap().clone(),
        exec.grad(m.w).unwrap().clone(),
    );
    let mut sim = DeviceSim::new(DeviceSpec::titan_xp());
    let opts = ExecOptions::default();
    wont_fit(exec.train_step(&bindings(&m, 64), m.loss, opts, Some(&mut sim)));
    sim.synchronize();
    assert_eq!(sim.api_stats().launch_calls, 0);
    assert_eq!(exec.param(m.w).unwrap().data(), value.data());
    assert_eq!(exec.grad(m.w).unwrap().data(), grad.data());
    assert_eq!(exec.plans_memoized(), 0);
}

#[test]
fn peak_survives_oom_attempts() {
    // An evaluation forward that fits, then a training step that does
    // not: the failed plan never counts, and the forward keeps running.
    let m = model();
    let eval = ample(&m, 64).plan_for_inference(&bindings(&m, 64), &[m.loss]);
    let peak = eval.unwrap().planned_peak_bytes();
    let mut exec = executor(&m, DeviceMemory::with_overhead_model(peak, 0, 0.0), 64);
    let opts = ExecOptions { training: false };
    exec.forward(&bindings(&m, 64), m.loss, opts, None).unwrap();
    let report = exec.memory_report();
    assert_eq!(report.peak_bytes, peak);
    wont_fit(step(&mut exec, &m, 64));
    assert_eq!(exec.memory_report(), report, "failed plans never count");
    exec.forward(&bindings(&m, 64), m.loss, opts, None).unwrap();
    assert_eq!(exec.memory_report(), report);
}

#[test]
fn capacity_zero_rejects_everything() {
    let m = model();
    let zero = DeviceMemory::with_overhead_model(0, 0, 0.0);
    let mut exec = Executor::new(Arc::clone(&m.graph), StashPlan::stash_all(), zero);
    let one = Tensor::full(Shape::d1(1), 0.5);
    let err = wont_fit(exec.bind_param(m.w, one));
    assert_eq!(
        err,
        WontFit {
            needed: 8,
            capacity: 0
        }
    );
    assert!(exec.param(m.w).is_none());
}

#[test]
fn parameters_over_capacity_fail_at_bind() {
    // With no plan cached, the parameter total alone decides: `w`
    // (value + gradient, 512 bytes) fits a 1000-byte device, `v` on top
    // of it does not — even though no plan reads `v`. Re-binding `w`
    // replaces its bytes.
    let m = model();
    let mut exec = executor(&m, DeviceMemory::with_overhead_model(1000, 0, 0.0), 64);
    let err = wont_fit(exec.bind_param(m.v, Tensor::full(Shape::d1(64), 0.5)));
    assert_eq!(
        err,
        WontFit {
            needed: 1024,
            capacity: 1000
        }
    );
    assert!(exec.param(m.v).is_none());
    exec.bind_param(m.w, Tensor::full(Shape::d1(64), 0.25))
        .unwrap();
    assert_eq!(exec.memory_report().peak_bytes, 512);
}

#[test]
fn unread_parameters_count_against_every_step() {
    // `w` and `v` each fit beside a step, both together do not — although
    // no plan reads `v`, the device holds it through every step.
    let m = model();
    let peak = planned_peak(&m, 64);
    let v = || Tensor::full(Shape::d1(16), 0.5);
    let v_bytes = 2 * 16 * 4;
    let expected = WontFit {
        needed: peak + v_bytes,
        capacity: peak + v_bytes - 1,
    };
    let short = DeviceMemory::with_overhead_model(peak + v_bytes - 1, 0, 0.0);
    // Bound first: the step's plan is rejected when it is memoized.
    let mut exec = executor(&m, short, 64);
    exec.bind_param(m.v, v()).unwrap();
    assert_eq!(wont_fit(step(&mut exec, &m, 64)), expected);
    // Bound after a step: the binding is rejected beside the cached plan.
    let mut exec = executor(&m, short, 64);
    step(&mut exec, &m, 64).unwrap();
    let report = exec.memory_report();
    assert_eq!(wont_fit(exec.bind_param(m.v, v())), expected);
    assert!(exec.param(m.v).is_none());
    assert_eq!(exec.memory_report(), report);
    // One byte more and the step runs, reporting `v` among its weights.
    let exact = DeviceMemory::with_overhead_model(peak + v_bytes, 0, 0.0);
    let mut exec = executor(&m, exact, 64);
    exec.bind_param(m.v, v()).unwrap();
    assert_eq!(step(&mut exec, &m, 64).unwrap().peak_bytes, peak + v_bytes);
    let report = exec.memory_report();
    assert_eq!(report.peak_bytes, peak + v_bytes);
    let v_key = (LayerKind::Output, echo_memory::DataStructureKind::Weight);
    assert!(report.peak_breakdown.contains(&(v_key, v_bytes)));
    assert_eq!(
        report.peak_breakdown.iter().map(|&(_, b)| b).sum::<u64>(),
        peak + v_bytes
    );
}
