//! Ablation of §4.1.2's workspace sharing: the Echo plan with one shared
//! pool for all (structurally identical) attention segments versus one
//! pool per segment.
//!
//! With sharing, the recomputation scratch stays `O(B·T·H)` no matter how
//! many decoder steps exist; without it, every step retains its own
//! buffer and the workspace grows with `T` — the `O(B·T²·H)` spike the
//! paper warns would cancel the optimization.

use echo::{EchoCompiler, EchoConfig};
use echo_graph::Executor;
use echo_memory::{DataStructureKind, DeviceMemory, MemoryBreakdown};
use echo_models::{NmtHyper, NmtModel};
use echo_repro::{print_table, save_json};
use echo_rnn::LstmBackend;
use serde_json::json;
use std::sync::Arc;

fn run(share: bool, tgt_len: usize) -> (u64, u64) {
    let mut hyper = NmtHyper::zhu(LstmBackend::Default);
    hyper.src_len = 50;
    hyper.tgt_len = tgt_len;
    let model = NmtModel::build(hyper);
    let batch = 128usize;
    let bindings = model.symbolic_bindings(batch);
    let config = EchoConfig {
        share_workspace: share,
        ..EchoConfig::default()
    };
    let plan = EchoCompiler::new(config)
        .compile(
            &model.graph,
            &bindings,
            &model.param_shapes(),
            &[model.loss, model.logits],
        )
        .expect("compile")
        .plan;
    let mem = DeviceMemory::with_overhead_model(1 << 40, 0, 0.0);
    let mut exec = Executor::new(Arc::clone(&model.graph), plan, mem.clone());
    model.bind_param_shapes(&mut exec).expect("bind");
    exec.project(&bindings, &[model.loss], Some(model.loss), None)
        .expect("run");
    let ws = MemoryBreakdown::at_category_maxima(&mem).kind_bytes(DataStructureKind::Workspace);
    (mem.peak_bytes(), ws)
}

fn main() {
    let mut rows = Vec::new();
    let mut out = Vec::new();
    for tgt_len in [25usize, 50, 100] {
        let (peak_shared, ws_shared) = run(true, tgt_len);
        let (peak_solo, ws_solo) = run(false, tgt_len);
        rows.push(vec![
            tgt_len.to_string(),
            format!("{:.0}", ws_shared as f64 / 1e6),
            format!("{:.0}", ws_solo as f64 / 1e6),
            format!("{:.2}", peak_shared as f64 / 1e9),
            format!("{:.2}", peak_solo as f64 / 1e9),
        ]);
        out.push(json!({"tgt_len": tgt_len,
                        "workspace_shared_bytes": ws_shared,
                        "workspace_per_segment_bytes": ws_solo,
                        "peak_shared_bytes": peak_shared,
                        "peak_per_segment_bytes": peak_solo}));
    }
    print_table(
        "Ablation: workspace sharing across decoder steps (NMT, B=128)",
        &[
            "decoder steps",
            "shared ws MB",
            "per-segment ws MB",
            "peak shared GB",
            "peak per-seg GB",
        ],
        &rows,
    );
    println!(
        "\nWith sharing the workspace is one segment's size regardless of T\n\
         (O(B*T*H)); without it every decoder step retains a buffer and the\n\
         workspace grows linearly in T (the O(B*T^2*H) total the paper warns\n\
         about in §4.1.2)."
    );
    save_json("ablation_workspace", &out);
}
