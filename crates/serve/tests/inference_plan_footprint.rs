//! Acceptance: for the served model and shapes, the inference-mode plan
//! is strictly leaner than the training plan — smaller slot arena,
//! shorter launch table, lower planned peak — and the compiler
//! (`EchoCompiler::compile_inference` over the fused decode graph) reports
//! the same footprint the engine's plans carry.

use echo::{EchoCompiler, EchoConfig};
use echo_graph::{ExecOptions, Executor, StashPlan};
use echo_memory::DeviceMemory;
use echo_models::WordLmHyper;
use echo_rnn::LstmBackend;
use echo_serve::{Engine, ServeConfig};
use std::collections::HashMap;
use std::sync::Arc;

#[test]
fn inference_plans_are_strictly_leaner_than_training() {
    let hyper = WordLmHyper::tiny(33, LstmBackend::Default);
    let engine = Engine::start(hyper, 13, ServeConfig::default()).unwrap();
    let dec = engine.decoder();

    let mut exec = Executor::new(
        Arc::clone(&dec.graph),
        StashPlan::stash_all(),
        DeviceMemory::with_overhead_model(4 << 30, 0, 0.0),
    );
    dec.bind_params(&mut exec, 13).unwrap();

    for (i, inference) in engine.plans().iter().enumerate() {
        let batch = i + 1;
        let bindings = dec.symbolic_bindings(batch);
        // The training plan for the same graph, same shapes, same target
        // cone root (the logits).
        let training = exec
            .plan_for(&bindings, dec.logits, ExecOptions { training: true })
            .unwrap();
        assert!(training.training());
        assert!(!inference.training());
        assert!(
            inference.arena_bytes() < training.arena_bytes(),
            "B={batch}: inference arena {} must be strictly below training {}",
            inference.arena_bytes(),
            training.arena_bytes()
        );
        assert!(
            inference.launch_count() < training.launch_count(),
            "B={batch}: inference launches {} vs training {}",
            inference.launch_count(),
            training.launch_count()
        );
        assert!(
            inference.planned_peak_bytes() < training.planned_peak_bytes(),
            "B={batch}: inference peak {} vs training {}",
            inference.planned_peak_bytes(),
            training.planned_peak_bytes()
        );
    }
}

#[test]
fn compiler_front_end_reports_the_engine_plan_footprint() {
    let hyper = WordLmHyper::tiny(33, LstmBackend::Default);
    let engine = Engine::start(hyper, 13, ServeConfig::default()).unwrap();
    let dec = engine.decoder();

    let mut exec = Executor::new(
        Arc::clone(&dec.graph),
        StashPlan::stash_all(),
        DeviceMemory::with_overhead_model(4 << 30, 0, 0.0),
    );
    dec.bind_params(&mut exec, 13).unwrap();
    let param_shapes: HashMap<_, _> = exec
        .param_ids()
        .into_iter()
        .map(|id| (id, exec.param(id).unwrap().shape().clone()))
        .collect();

    let batch = 4;
    let compiled = EchoCompiler::new(EchoConfig::default())
        .compile_inference(
            &dec.fused_graph().unwrap(),
            &dec.symbolic_bindings(batch),
            &param_shapes,
            dec.outputs(),
        )
        .unwrap();
    let from_compiler = compiled.exec_plan.expect("compile_inference builds a plan");
    let from_engine = &engine.plans()[batch - 1];
    assert_eq!(from_compiler.arena_bytes(), from_engine.arena_bytes());
    assert_eq!(from_compiler.launch_count(), from_engine.launch_count());
    assert_eq!(
        compiled.report.planned_peak_bytes,
        Some(from_engine.planned_peak_bytes())
    );
}
