//! Regression test for plan-fallback observability (own test binary: the
//! counters are process-global, and sharing a process with the library
//! tests would make "exactly once" racy).

use echo_graph::op::Saved;
use echo_graph::{
    plan_fallbacks, plans_built, ExecOptions, Executor, Graph, GraphError, KernelLaunch, Operator,
    Result, StashNeeds, StashPlan,
};
use echo_memory::{DeviceMemory, LayerKind};
use echo_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

/// loss = sum(x): one-op graph, enough to exercise the plan-match check.
#[derive(Debug)]
struct SumAll;

impl Operator for SumAll {
    fn name(&self) -> &str {
        "sum"
    }
    fn category(&self) -> echo_device::KernelCategory {
        echo_device::KernelCategory::Reduction
    }
    fn infer_shape(&self, _inputs: &[&Shape]) -> Result<Shape> {
        Ok(Shape::scalar())
    }
    fn forward(&self, inputs: &[&Tensor]) -> Result<(Tensor, Saved)> {
        Ok((Tensor::scalar(inputs[0].sum() as f32), Vec::new()))
    }
    fn backward(
        &self,
        inputs: &[Option<&Tensor>],
        _output: Option<&Tensor>,
        _saved: &[Tensor],
        dy: &Tensor,
    ) -> Result<Vec<Option<Tensor>>> {
        let x = inputs[0].expect("stash inputs");
        Ok(vec![Some(Tensor::full(x.shape().clone(), dy.data()[0]))])
    }
    fn stash(&self) -> StashNeeds {
        StashNeeds::INPUTS
    }
    fn forward_launches(&self, _i: &[&Shape], _o: &Shape) -> Vec<KernelLaunch> {
        Vec::new()
    }
    fn backward_launches(&self, _i: &[&Shape], _o: &Shape) -> Vec<KernelLaunch> {
        Vec::new()
    }
}

fn fresh(g: &Arc<Graph>) -> Executor {
    Executor::new(
        Arc::clone(g),
        StashPlan::stash_all(),
        DeviceMemory::with_overhead_model(1 << 30, 0, 0.0),
    )
}

#[test]
fn shape_mismatch_is_counted_once_and_replanned_once() {
    let mut g = Graph::new();
    let x = g.input("x", LayerKind::Other);
    let loss = g.apply("sum", Arc::new(SumAll), &[x], LayerKind::Output);
    let g = Arc::new(g);
    let mut exec = fresh(&g);
    let opts = ExecOptions::default();

    let planned = HashMap::from([(x, Tensor::full(Shape::d1(32), 1.0))]);
    let ep = exec.plan_for(&planned, loss, opts).unwrap();
    exec.set_exec_plan(ep).unwrap();

    // Matching steps neither count nor plan.
    let fallbacks = plan_fallbacks();
    let built = plans_built();
    for _ in 0..3 {
        exec.train_step(&planned, loss, opts, None).unwrap();
    }
    assert_eq!(plan_fallbacks(), fallbacks, "matched steps must not count");
    assert_eq!(plans_built(), built, "matched steps must not plan");

    // A different batch shape (the NMT bucketing case): the first step is
    // counted once — a train step runs a forward and a backward pass, but
    // it is one execution — and planned once. Every later step of that
    // shape hits the executor's memo: no count, no planning, and the same
    // bits as the oracle.
    let mismatched = HashMap::from([(x, Tensor::full(Shape::d1(64), 0.5))]);
    let (oracle_loss, _) =
        echo_graph::reference::train_step(&g, &HashMap::new(), &mismatched, loss).unwrap();
    for _ in 0..3 {
        let stats = exec.train_step(&mismatched, loss, opts, None).unwrap();
        assert_eq!(stats.loss.map(f32::to_bits), Some(oracle_loss.to_bits()));
        assert_eq!(
            plan_fallbacks(),
            fallbacks + 1,
            "one count per new signature"
        );
        assert_eq!(plans_built(), built + 1, "one plan per new signature");
    }
    assert_eq!(exec.plans_memoized(), 1);

    // The installed plan is still cached next to the memoized one.
    exec.train_step(&planned, loss, opts, None).unwrap();
    assert_eq!(
        (plan_fallbacks(), plans_built()),
        (fallbacks + 1, built + 1)
    );

    // The forward-only entry points are served by the step plans of their
    // shape — a forward pass is a prefix of the step.
    exec.forward(&mismatched, loss, opts, None).unwrap();
    exec.forward_many(&mismatched, &[loss], opts, None).unwrap();
    assert_eq!(
        (plan_fallbacks(), plans_built()),
        (fallbacks + 1, built + 1)
    );
    // A signature nothing cached serves (inference mode) observes the
    // fallback the same way: once.
    let infer = ExecOptions { training: false };
    for _ in 0..2 {
        exec.forward(&mismatched, loss, infer, None).unwrap();
        assert_eq!(
            (plan_fallbacks(), plans_built()),
            (fallbacks + 2, built + 2)
        );
    }

    // An executor nobody installed a plan on never counts: planning its
    // own signatures is how it runs by construction, not a fallback. The
    // same holds once `clear_exec_plan` has emptied the cache.
    let mut bare = fresh(&g);
    bare.train_step(&mismatched, loss, opts, None).unwrap();
    bare.train_step(&planned, loss, opts, None).unwrap();
    exec.clear_exec_plan();
    exec.train_step(&planned, loss, opts, None).unwrap();
    assert_eq!(plan_fallbacks(), fallbacks + 2);
    assert_eq!(plans_built(), built + 5);

    // A signature that cannot be planned — a binding is missing — is the
    // typed error, not a panic, and leaves the executor usable.
    let err = exec
        .train_step(&HashMap::new(), loss, opts, None)
        .unwrap_err();
    assert!(matches!(err, GraphError::MissingBinding { .. }), "{err}");
    let err = exec
        .stage_step(&HashMap::new(), &[loss], &[], &[x], opts, None)
        .unwrap_err();
    assert!(matches!(err, GraphError::MissingBinding { .. }), "{err}");
    exec.train_step(&planned, loss, opts, None).unwrap();
}
