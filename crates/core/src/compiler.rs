//! The Echo compiler front-end.

use crate::analysis::{infer_shapes_from, ShapeTable};
use crate::oshape::{build_plan, find_segments, OshapeConfig, SegmentInfo};
use crate::search::{SearchConfig, SearchReport, StashSearch};
use echo_graph::{
    partition_stages, ExecOptions, ExecPlan, Gir, Graph, GraphError, NodeId, PassTrace,
    StagePartition, StashPlan,
};
use echo_tensor::{Shape, Tensor};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Errors from compilation.
#[derive(Debug)]
#[non_exhaustive]
pub enum EchoError {
    /// Shape inference or plan validation failed.
    Graph(GraphError),
}

impl fmt::Display for EchoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EchoError::Graph(e) => write!(f, "echo compilation failed: {e}"),
        }
    }
}

impl std::error::Error for EchoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EchoError::Graph(e) => Some(e),
        }
    }
}

impl From<GraphError> for EchoError {
    fn from(e: GraphError) -> Self {
        EchoError::Graph(e)
    }
}

impl EchoError {
    /// Unwraps the underlying graph error (all current variants carry
    /// one).
    pub fn into_graph_error(self) -> GraphError {
        match self {
            EchoError::Graph(e) => e,
        }
    }
}

/// How the recomputation set is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum StashSelection {
    /// The paper's O-shape heuristic alone (ratio and size thresholds).
    #[default]
    Heuristic,
    /// Cost-model search over candidate stash sets
    /// ([`StashSearch`](crate::StashSearch)): every candidate is scored by
    /// its execution plan's exact planned peak, and the minimum wins
    /// subject to a recompute-FLOP budget. Needs concrete binding shapes
    /// and a target; without them compilation falls back to the heuristic.
    Search {
        /// Replay-FLOP budget as a multiplier over the FLOPs of one
        /// no-recompute training step.
        flop_budget: f64,
    },
}

/// Compiler configuration.
#[derive(Debug, Clone, Copy)]
pub struct EchoConfig {
    /// Enable the recomputation (partial-forward-propagation) pass.
    pub recompute: bool,
    /// O-shape detector tunables.
    pub oshape: OshapeConfig,
    /// Share one workspace pool between structurally identical segments
    /// (§4.1.2). Disable only for the ablation study.
    pub share_workspace: bool,
    /// Heuristic stash selection, or exact-cost search over stash sets.
    pub selection: StashSelection,
    /// Partition the graph into this many pipeline stages before stash
    /// selection (GPipe-style model parallelism; `1` disables).
    /// The partition is returned in [`CompiledPlan::partition`] and
    /// summarized in [`PassReport::stages`]; cuts never split a
    /// parameter's consumer span or a protected interface.
    pub pipeline_stages: usize,
}

impl Default for EchoConfig {
    fn default() -> Self {
        EchoConfig {
            recompute: true,
            oshape: OshapeConfig::default(),
            share_workspace: true,
            selection: StashSelection::Heuristic,
            pipeline_stages: 1,
        }
    }
}

impl EchoConfig {
    /// A configuration with the pass disabled (framework-default
    /// stash-everything behaviour) — the paper's baseline.
    pub fn baseline() -> Self {
        EchoConfig {
            recompute: false,
            ..EchoConfig::default()
        }
    }
}

/// Human/machine-readable summary of one discovered segment.
#[derive(Debug, Clone)]
pub struct SegmentReport {
    /// Names of the recomputed nodes.
    pub node_names: Vec<String>,
    /// Intermediate bytes freed from the feature-map footprint.
    pub intermediate_bytes: u64,
    /// Boundary input bytes that must stay stashed.
    pub boundary_bytes: u64,
    /// Shared workspace pool.
    pub pool: usize,
}

/// Per-pipeline-stage metrics recorded when
/// [`EchoConfig::pipeline_stages`] > 1.
#[derive(Debug, Clone)]
pub struct StageSummary {
    /// Stage index in `0..P`.
    pub index: usize,
    /// Operator nodes owned by the stage.
    pub ops: usize,
    /// Parameters owned by the stage.
    pub params: usize,
    /// Activation bytes sent across the cut to the next stage (0 for the
    /// last stage).
    pub send_bytes: u64,
}

/// What the pass did, with enough detail for EXPERIMENTS.md tables.
#[derive(Debug, Clone, Default)]
pub struct PassReport {
    /// One entry per accepted segment.
    pub segments: Vec<SegmentReport>,
    /// Static peak device bytes of the ahead-of-time execution plan, when
    /// one was built (requires concrete binding shapes and a target).
    pub planned_peak_bytes: Option<u64>,
    /// Number of reusable transient buffer slots in the execution plan.
    pub slot_count: Option<usize>,
    /// Stash-set search statistics (candidates explored, searched vs
    /// heuristic peak, recompute FLOPs), when
    /// [`StashSelection::Search`] ran.
    pub search: Option<SearchReport>,
    /// One trace per compile stage that ran, in execution order: stage
    /// partitioning (when requested), stash selection and lowering.
    pub passes: Vec<PassTrace>,
    /// Per-stage metrics of the pipeline partition, when one was
    /// requested ([`EchoConfig::pipeline_stages`] > 1).
    pub stages: Vec<StageSummary>,
}

impl PassReport {
    /// Total feature-map bytes the plan avoids stashing.
    pub fn total_saved_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.intermediate_bytes).sum()
    }

    /// Peak extra workspace the plan needs: the largest segment per pool
    /// (segments in one pool share one buffer).
    pub fn workspace_bytes(&self) -> u64 {
        let mut per_pool: HashMap<usize, u64> = HashMap::new();
        for s in &self.segments {
            let e = per_pool.entry(s.pool).or_default();
            *e = (*e).max(s.intermediate_bytes);
        }
        per_pool.values().sum()
    }

    /// Net footprint reduction (saved feature maps minus retained
    /// workspace).
    pub fn net_saved_bytes(&self) -> i64 {
        self.total_saved_bytes() as i64 - self.workspace_bytes() as i64
    }
}

impl fmt::Display for PassReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "echo pass: {} segments, {:.1} MiB feature maps -> {:.1} MiB workspace",
            self.segments.len(),
            self.total_saved_bytes() as f64 / (1 << 20) as f64,
            self.workspace_bytes() as f64 / (1 << 20) as f64,
        )?;
        if let (Some(peak), Some(slots)) = (self.planned_peak_bytes, self.slot_count) {
            writeln!(
                f,
                "  exec plan: {:.1} MiB planned peak, {slots} reusable slots",
                peak as f64 / (1 << 20) as f64,
            )?;
        }
        if let Some(s) = &self.search {
            writeln!(
                f,
                "  search: {} candidates, {:.1} MiB searched vs {:.1} MiB heuristic, \
                 {:.3} GFLOP replays (budget {:.3})",
                s.candidates_explored,
                s.searched_peak_bytes as f64 / (1 << 20) as f64,
                s.heuristic_peak_bytes as f64 / (1 << 20) as f64,
                s.recompute_flops as f64 / 1e9,
                s.budget_flops as f64 / 1e9,
            )?;
        }
        for (i, s) in self.segments.iter().enumerate() {
            writeln!(
                f,
                "  segment {i} (pool {}): {:?} [{} KiB / boundary {} KiB]",
                s.pool,
                s.node_names,
                s.intermediate_bytes >> 10,
                s.boundary_bytes >> 10
            )?;
        }
        for s in &self.stages {
            writeln!(
                f,
                "  stage {}: {} ops, {} params, {} KiB cut",
                s.index,
                s.ops,
                s.params,
                s.send_bytes >> 10,
            )?;
        }
        for p in &self.passes {
            writeln!(
                f,
                "  pass {}: {} rewrites, {:.0} us",
                p.pass, p.rewrites, p.wall_us
            )?;
        }
        Ok(())
    }
}

/// The result of compilation: an executor-ready plan plus the report.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    /// Stash policies for the executor.
    pub plan: StashPlan,
    /// What the pass found.
    pub report: PassReport,
    /// Ahead-of-time execution plan for training the first protected
    /// target with the compile-time binding shapes. `None` when compilation
    /// had no target or ran from a bare shape table
    /// ([`EchoCompiler::compile_with_shapes`]). Shareable across replicas.
    pub exec_plan: Option<Arc<ExecPlan>>,
    /// The pipeline-stage partition, when [`EchoConfig::pipeline_stages`]
    /// exceeds 1 and compilation ran a training pipeline.
    pub partition: Option<StagePartition>,
}

/// The Echo compiler.
///
/// # Example
///
/// ```
/// use echo::{EchoCompiler, EchoConfig};
/// use echo_models::{NmtHyper, NmtModel};
///
/// let model = NmtModel::build(NmtHyper::tiny(100, 90));
/// let compiled = EchoCompiler::new(EchoConfig::default()).compile(
///     &model.graph,
///     &model.symbolic_bindings(4),
///     &model.param_shapes(),
///     &[model.loss, model.logits],
/// )?;
/// assert_eq!(compiled.report.segments.len(), model.hyper.decoder_steps());
/// # Ok::<(), echo::EchoError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct EchoCompiler {
    config: EchoConfig,
}

impl EchoCompiler {
    /// Creates a compiler.
    pub fn new(config: EchoConfig) -> Self {
        EchoCompiler { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &EchoConfig {
        &self.config
    }

    /// Compiles for training: partitions into pipeline stages when
    /// asked, runs the O-shape (or searched) stash selection, then lowers
    /// to an execution plan when a target is given.
    ///
    /// `protected` nodes (execution targets such as the loss or logits)
    /// are never recomputed.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference, partitioning and plan-validation
    /// failures.
    pub fn compile(
        &self,
        graph: &Graph,
        bindings: &HashMap<NodeId, Tensor>,
        param_shapes: &HashMap<NodeId, Shape>,
        protected: &[NodeId],
    ) -> Result<CompiledPlan, EchoError> {
        let binding_shapes: HashMap<NodeId, Shape> = bindings
            .iter()
            .map(|(&id, t)| (id, t.shape().clone()))
            .collect();
        let shapes = infer_shapes_from(graph, &binding_shapes, param_shapes)?;
        let mut passes = Vec::new();

        // Pipeline-stage partitioning runs before stash selection: the
        // partition depends only on the graph structure, and the
        // per-stage stash plans are later derived from whatever plan this
        // compilation produces ([`StagePartition::stage_plans`]).
        let mut partition = None;
        let mut stage_summaries = Vec::new();
        if self.config.pipeline_stages > 1 {
            let start = Instant::now();
            let gir = Gir::from_graph(
                Arc::new(graph.clone()),
                &binding_shapes,
                param_shapes,
                protected,
            )?;
            let part = partition_stages(&gir, self.config.pipeline_stages)?;
            let cut_bytes = part.cut_bytes();
            stage_summaries = part
                .stages()
                .iter()
                .map(|sp| StageSummary {
                    index: sp.index,
                    ops: sp.owned_ops(),
                    params: sp.params.len(),
                    send_bytes: cut_bytes.get(sp.index).copied().unwrap_or(0),
                })
                .collect();
            passes.push(trace("stage-partition", self.config.pipeline_stages, start));
            partition = Some(part);
        }

        // Stash-selection stage. The exact-cost search needs a target (it
        // scores candidates by their lowered plans, so selection and
        // lowering run together inside it); without one it falls back to
        // the heuristic below.
        let start = Instant::now();
        if let (true, StashSelection::Search { flop_budget }, Some(_)) = (
            self.config.recompute,
            self.config.selection,
            protected.first(),
        ) {
            let outcome = StashSearch::new(SearchConfig {
                flop_budget,
                ..SearchConfig::default()
            })
            .run(
                graph,
                &shapes,
                &binding_shapes,
                param_shapes,
                protected,
                &self.config.oshape,
                self.config.share_workspace,
                ExecOptions::default(),
            )?;
            let mut report = self.report(graph, &outcome.segments);
            report.planned_peak_bytes = Some(outcome.exec_plan.planned_peak_bytes());
            report.slot_count = Some(outcome.exec_plan.slot_count());
            report.search = Some(outcome.report);
            passes.push(trace(
                "stash-select(search)+lower",
                report.segments.len(),
                start,
            ));
            report.passes = passes;
            report.stages = stage_summaries;
            return Ok(CompiledPlan {
                plan: outcome.plan,
                report,
                exec_plan: Some(outcome.exec_plan),
                partition,
            });
        }
        let (plan, mut report) = self.select_stash(graph, &shapes, protected, &mut passes);

        // Lowering stage: graph -> launch-level ExecPlan tables.
        let mut exec_plan = None;
        if let Some(&target) = protected.first() {
            let start = Instant::now();
            let lowered = ExecPlan::build(
                graph,
                &plan,
                ExecOptions::default(),
                &binding_shapes,
                param_shapes,
                target,
            )?;
            report.planned_peak_bytes = Some(lowered.planned_peak_bytes());
            report.slot_count = Some(lowered.slot_count());
            passes.push(trace("lower", lowered.launch_count(), start));
            exec_plan = Some(Arc::new(lowered));
        }
        report.passes = passes;
        report.stages = stage_summaries;
        Ok(CompiledPlan {
            plan,
            report,
            exec_plan,
            partition,
        })
    }

    /// Compiles and installs the plan into an executor in one step — the
    /// "recompile with Echo" entry point model code uses:
    ///
    /// ```
    /// use echo::{EchoCompiler, EchoConfig};
    /// use echo_graph::Executor;
    /// use echo_memory::DeviceMemory;
    /// use echo_models::{NmtHyper, NmtModel};
    /// use std::sync::Arc;
    ///
    /// let model = NmtModel::build(NmtHyper::tiny(100, 90));
    /// let mut exec = Executor::new(
    ///     Arc::clone(&model.graph),
    ///     echo_graph::StashPlan::stash_all(),
    ///     DeviceMemory::titan_xp(),
    /// );
    /// let report = EchoCompiler::new(EchoConfig::default()).attach(
    ///     &mut exec,
    ///     &model.symbolic_bindings(4),
    ///     &model.param_shapes(),
    ///     &[model.loss, model.logits],
    /// )?;
    /// assert!(!report.segments.is_empty());
    /// # Ok::<(), echo::EchoError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates shape-inference failures; on error the executor's plan is
    /// left untouched.
    pub fn attach(
        &self,
        exec: &mut crate::Executor,
        bindings: &HashMap<NodeId, Tensor>,
        param_shapes: &HashMap<NodeId, Shape>,
        protected: &[NodeId],
    ) -> Result<PassReport, EchoError> {
        let compiled = self.compile(exec.graph(), bindings, param_shapes, protected)?;
        exec.set_plan(compiled.plan);
        if let Some(exec_plan) = compiled.exec_plan {
            exec.set_exec_plan(exec_plan)?;
        }
        Ok(compiled.report)
    }

    /// Compiles an inference-mode execution plan over `outputs`.
    ///
    /// Serving has no backward pass, so the recomputation pass is moot
    /// (there is nothing to rematerialize *for*) and the stash plan is
    /// trivially stash-all with zero stash traffic: the resulting
    /// [`ExecPlan`] carries no backward schedule, no stash table and no
    /// gradient slots, which is why its slot arena and launch table are
    /// strictly smaller than the training plan's for the same graph and
    /// shapes. `outputs` is the full set of values a serving step needs —
    /// e.g. logits plus each layer's final recurrent state.
    ///
    /// # Errors
    ///
    /// Propagates shape-inference and plan-validation failures; `outputs`
    /// must be non-empty.
    pub fn compile_inference(
        &self,
        graph: &Graph,
        bindings: &HashMap<NodeId, Tensor>,
        param_shapes: &HashMap<NodeId, Shape>,
        outputs: &[NodeId],
    ) -> Result<CompiledPlan, EchoError> {
        let binding_shapes: HashMap<NodeId, Shape> = bindings
            .iter()
            .map(|(&id, t)| (id, t.shape().clone()))
            .collect();
        let start = Instant::now();
        let exec_plan = ExecPlan::build_inference(graph, &binding_shapes, param_shapes, outputs)?;
        let report = PassReport {
            planned_peak_bytes: Some(exec_plan.planned_peak_bytes()),
            slot_count: Some(exec_plan.slot_count()),
            passes: vec![trace("lower", exec_plan.launch_count(), start)],
            ..PassReport::default()
        };
        Ok(CompiledPlan {
            plan: StashPlan::stash_all(),
            report,
            exec_plan: Some(Arc::new(exec_plan)),
            partition: None,
        })
    }

    /// Compiles an inference plan and installs it into `exec` in one step
    /// — the serving counterpart of [`EchoCompiler::attach`].
    ///
    /// # Errors
    ///
    /// Propagates compilation failures; on error the executor is left
    /// untouched.
    pub fn attach_inference(
        &self,
        exec: &mut crate::Executor,
        bindings: &HashMap<NodeId, Tensor>,
        param_shapes: &HashMap<NodeId, Shape>,
        outputs: &[NodeId],
    ) -> Result<PassReport, EchoError> {
        let compiled = self.compile_inference(exec.graph(), bindings, param_shapes, outputs)?;
        exec.set_plan(compiled.plan);
        if let Some(exec_plan) = compiled.exec_plan {
            exec.set_exec_plan(exec_plan)?;
        }
        Ok(compiled.report)
    }

    /// Like [`EchoCompiler::compile`] but reusing an existing shape table
    /// and never lowering or partitioning (no execution plan is built).
    pub fn compile_with_shapes(
        &self,
        graph: &Graph,
        shapes: &ShapeTable,
        protected: &[NodeId],
    ) -> CompiledPlan {
        let mut passes = Vec::new();
        let (plan, mut report) = self.select_stash(graph, shapes, protected, &mut passes);
        report.passes = passes;
        CompiledPlan {
            plan,
            report,
            exec_plan: None,
            partition: None,
        }
    }

    /// The heuristic stash-selection stage both training entry points
    /// share: O-shape segments become a stash plan and its report (or
    /// stash-all when recomputation is off), traced into `passes`.
    fn select_stash(
        &self,
        graph: &Graph,
        shapes: &ShapeTable,
        protected: &[NodeId],
        passes: &mut Vec<PassTrace>,
    ) -> (StashPlan, PassReport) {
        let start = Instant::now();
        let (plan, report) = if self.config.recompute {
            let segments = find_segments(graph, shapes, &self.config.oshape, protected);
            let plan = build_plan(&segments, self.config.share_workspace);
            (plan, self.report(graph, &segments))
        } else {
            (StashPlan::stash_all(), PassReport::default())
        };
        passes.push(trace("stash-select", report.segments.len(), start));
        (plan, report)
    }

    fn report(&self, graph: &Graph, segments: &[SegmentInfo]) -> PassReport {
        PassReport {
            segments: segments
                .iter()
                .map(|s| SegmentReport {
                    node_names: s
                        .nodes
                        .iter()
                        .map(|&n| graph.nodes()[n.index()].name.clone())
                        .collect(),
                    intermediate_bytes: s.intermediate_bytes,
                    boundary_bytes: s.boundary_bytes,
                    pool: s.pool,
                })
                .collect(),
            planned_peak_bytes: None,
            slot_count: None,
            search: None,
            passes: Vec::new(),
            stages: Vec::new(),
        }
    }
}

/// A report entry for one compile stage that started at `start`.
fn trace(name: &str, rewrites: usize, start: Instant) -> PassTrace {
    PassTrace {
        pass: name.to_string(),
        rewrites,
        wall_us: start.elapsed().as_secs_f64() * 1e6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echo_graph::{ExecOptions, Executor, StashPolicy};
    use echo_memory::DeviceMemory;
    use echo_models::{NmtHyper, NmtModel};
    use std::sync::Arc;

    fn mem() -> DeviceMemory {
        DeviceMemory::with_overhead_model(8 << 30, 0, 0.0)
    }

    fn tiny_nmt() -> NmtModel {
        NmtModel::build(NmtHyper::tiny(120, 100))
    }

    #[test]
    fn pass_discovers_every_decoder_attention_segment() {
        let model = tiny_nmt();
        let compiled = EchoCompiler::new(EchoConfig::default())
            .compile(
                &model.graph,
                &model.symbolic_bindings(8),
                &model.param_shapes(),
                &[model.loss, model.logits],
            )
            .unwrap();
        assert_eq!(
            compiled.report.segments.len(),
            model.hyper.decoder_steps(),
            "one segment per decoder step:\n{}",
            compiled.report
        );
        // All segments share one workspace pool (identical structure).
        let pools: std::collections::HashSet<usize> =
            compiled.report.segments.iter().map(|s| s.pool).collect();
        assert_eq!(pools.len(), 1);
        // The discovered nodes are exactly the hand-identified scoring
        // interiors (broadcast-add, layernorm, tanh — the score vector
        // itself is small and stays stashed).
        for (seg, hand) in compiled
            .report
            .segments
            .iter()
            .zip(&model.attention_segments)
        {
            let hand_names: Vec<String> = hand
                .iter()
                .map(|&n| model.graph.nodes()[n.index()].name.clone())
                .collect();
            for name in &seg.node_names {
                assert!(
                    hand_names.contains(name),
                    "pass found unexpected node {name}; hand set {hand_names:?}"
                );
            }
            assert!(seg.node_names.len() >= 3, "{:?}", seg.node_names);
        }
    }

    #[test]
    fn baseline_config_stashes_everything() {
        let model = tiny_nmt();
        let compiled = EchoCompiler::new(EchoConfig::baseline())
            .compile(
                &model.graph,
                &model.symbolic_bindings(8),
                &model.param_shapes(),
                &[],
            )
            .unwrap();
        assert_eq!(compiled.plan.recompute_count(), 0);
        assert!(compiled.report.segments.is_empty());
    }

    #[test]
    fn compiled_plan_runs_bit_exact_and_smaller() {
        let model = tiny_nmt();
        let corpus = echo_data::ParallelCorpus::synthetic(
            echo_data::Vocab::new(120),
            echo_data::Vocab::new(100),
            40,
            4..=12,
            3,
        );
        let batches = echo_data::NmtBatch::bucketed(corpus.pairs(), 8);
        let compiled = EchoCompiler::new(EchoConfig::default())
            .compile(
                &model.graph,
                &model.bindings(&batches[0]),
                &model.param_shapes(),
                &[model.loss, model.logits],
            )
            .unwrap();

        let run = |plan: StashPlan| {
            let m = mem();
            let mut exec = Executor::new(Arc::clone(&model.graph), plan, m.clone());
            model.bind_params(&mut exec, 9).unwrap();
            let stats = exec
                .train_step(
                    &model.bindings(&batches[0]),
                    model.loss,
                    ExecOptions::default(),
                    None,
                )
                .unwrap();
            (stats, m.peak_bytes())
        };
        let (base, peak_base) = run(StashPlan::stash_all());
        let (opt, peak_opt) = run(compiled.plan.clone());
        assert_eq!(base.loss, opt.loss, "bit-exact training");
        assert!(opt.replays >= 1);
        assert!(
            peak_opt < peak_base,
            "compiled plan must shrink the footprint: {peak_opt} vs {peak_base}"
        );
        assert!(compiled.report.net_saved_bytes() > 0);
    }

    #[test]
    fn compile_builds_exec_plan_and_attach_installs_it() {
        let model = tiny_nmt();
        let bindings = model.symbolic_bindings(8);
        let compiled = EchoCompiler::new(EchoConfig::default())
            .compile(
                &model.graph,
                &bindings,
                &model.param_shapes(),
                &[model.loss, model.logits],
            )
            .unwrap();
        let exec_plan = compiled.exec_plan.as_ref().expect("plan built");
        assert_eq!(
            compiled.report.planned_peak_bytes,
            Some(exec_plan.planned_peak_bytes())
        );
        assert_eq!(compiled.report.slot_count, Some(exec_plan.slot_count()));
        assert!(exec_plan.slot_count() > 0);
        // Echo's planned peak sits strictly below the stash-all baseline's.
        let baseline = EchoCompiler::new(EchoConfig::baseline())
            .compile(
                &model.graph,
                &bindings,
                &model.param_shapes(),
                &[model.loss, model.logits],
            )
            .unwrap();
        assert!(
            compiled.report.planned_peak_bytes < baseline.report.planned_peak_bytes,
            "echo {:?} vs stash-all {:?}",
            compiled.report.planned_peak_bytes,
            baseline.report.planned_peak_bytes
        );
        // attach() wires the same plan into the executor.
        let mut exec = Executor::new(Arc::clone(&model.graph), StashPlan::stash_all(), mem());
        let report = EchoCompiler::new(EchoConfig::default())
            .attach(
                &mut exec,
                &bindings,
                &model.param_shapes(),
                &[model.loss, model.logits],
            )
            .unwrap();
        assert_eq!(
            report.planned_peak_bytes,
            compiled.report.planned_peak_bytes
        );
        let installed = exec.exec_plan().expect("attach installs exec plan");
        assert_eq!(
            installed.planned_peak_bytes(),
            exec_plan.planned_peak_bytes()
        );
        assert!(report.to_string().contains("exec plan:"));
    }

    #[test]
    fn inference_compile_is_leaner_and_attaches() {
        use echo_models::{WordLmDecoder, WordLmHyper};
        let dec = WordLmDecoder::build(WordLmHyper::tiny(29, echo_rnn::LstmBackend::Default));
        let bindings = dec.symbolic_bindings(4);
        let mut exec = Executor::new(Arc::clone(&dec.graph), StashPlan::stash_all(), mem());
        dec.bind_params(&mut exec, 3).unwrap();
        let param_shapes: HashMap<echo_graph::NodeId, echo_tensor::Shape> = exec
            .param_ids()
            .into_iter()
            .map(|id| (id, exec.param(id).unwrap().shape().clone()))
            .collect();
        let compiler = EchoCompiler::new(EchoConfig::default());
        let report = compiler
            .attach_inference(&mut exec, &bindings, &param_shapes, dec.outputs())
            .unwrap();
        let installed = exec.exec_plan().expect("attach installs the plan");
        assert!(!installed.training());
        assert_eq!(
            report.planned_peak_bytes,
            Some(installed.planned_peak_bytes())
        );
        // Training compilation of the same graph/shapes must plan a
        // strictly larger footprint than inference.
        let training = compiler
            .compile(&dec.graph, &bindings, &param_shapes, &[dec.logits])
            .unwrap();
        assert!(
            report.planned_peak_bytes < training.report.planned_peak_bytes,
            "inference {:?} vs training {:?}",
            report.planned_peak_bytes,
            training.report.planned_peak_bytes
        );
    }

    #[test]
    fn report_displays_summary() {
        let model = tiny_nmt();
        let compiled = EchoCompiler::new(EchoConfig::default())
            .compile(
                &model.graph,
                &model.symbolic_bindings(4),
                &model.param_shapes(),
                &[model.loss],
            )
            .unwrap();
        let text = compiled.report.to_string();
        assert!(text.contains("segments"));
        assert!(text.contains("attn_e0"));
        // Every recompute policy references a valid pool.
        for seg in &compiled.report.segments {
            let _ = seg.pool;
        }
        let policies_set = compiled.plan.recompute_count();
        assert!(policies_set >= compiled.report.segments.len() * 3);
        // Sanity: at least one node of segment 0 has Recompute policy.
        let first = model.attention_segments[0][0];
        assert!(matches!(
            compiled.plan.policy(first),
            StashPolicy::Recompute(_)
        ));
    }
}
