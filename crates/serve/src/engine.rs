//! The serving engine: bounded admission, worker threads, planned decode.
//!
//! ```text
//! generate(session, prompt, n) ──try_push──▶ worker queue ──scheduler──▶
//!   join running batch ──▶ per-step lane compaction ──infer_step──▶
//!   streamed tokens ──▶ leave on completion ──▶ Done
//! ```
//!
//! Sessions are partitioned across workers by session-id hash, so all
//! requests of one session execute on one worker in arrival order and its
//! state never crosses threads. Each worker owns a parameter *replica*
//! executor ([`Executor::clone_replica`]) whose step-persistent
//! [`TensorPool`](echo_memory::TensorPool) recycles decode-step storage
//! across requests. Every executor runs the fused decode graph
//! ([`WordLmDecoder::fused_graph`]): the same bits as the unfused graph
//! with fewer launches per step. The engine pre-builds one
//! inference-mode [`ExecPlan`] per batch size `1..=max_batch` from the
//! prototype and all replicas share them.
//!
//! One scheduler drives the decode loop ([`crate::scheduler`]): sessions
//! join and leave a *running* batch between decode steps; the batch never
//! drains to admit a newcomer and never waits to fill. Single-step
//! [`Engine::submit`] requests and [`Engine::generate`] streams are the
//! same job shape on that loop.
//!
//! Because the decode path is batch-invariant (see
//! [`echo_models::infer`]), none of these mechanics change a single bit
//! of any session's logits: batching, lane churn and eviction + re-warm
//! are all transparent.

use crate::queue::{BoundedQueue, Popped, PushError};
use crate::scheduler::{Job, Reply};
use crate::session::SessionCache;
use echo_graph::{ExecPlan, Executor, StashPlan};
use echo_memory::{DeviceMemory, TensorPoolStats};
use echo_models::{LmState, WordLmDecoder, WordLmHyper};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Inert stub: the continuous loop ([`crate::scheduler`]) is the only
/// scheduler. The enum and [`ServeConfig::mode`] exist only because
/// `bench/` (frozen while the wave batcher was removed) still names
/// them; the next `benchmark` PR drops both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Continuous in-flight batching: sessions join and leave a running
    /// batch between decode steps (lane compaction over the pre-built
    /// per-batch-size plans).
    #[default]
    Continuous,
}

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Largest lane count; plans are pre-built for every size up to it.
    /// The scheduler never waits to fill lanes — it admits whatever is
    /// queued between steps.
    pub max_batch: usize,
    /// Per-worker admission queue depth; pushes beyond it are rejected.
    pub queue_capacity: usize,
    /// Worker threads, each with its own parameter replica.
    pub workers: usize,
    /// Per-worker LRU session-state capacity.
    pub session_capacity: usize,
    /// Simulated device capacity per replica.
    pub mem_bytes: u64,
    /// Ignored (see [`BatchMode`]); dropped by the next `benchmark` PR.
    pub mode: BatchMode,
    /// Per-tenant cap on requests in flight (admitted but not finished);
    /// `0` disables quotas. Admission beyond the cap is rejected with
    /// [`ServeError::QuotaExceeded`] — reject, never block.
    pub tenant_inflight_limit: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            queue_capacity: 64,
            workers: 1,
            session_capacity: 256,
            mem_bytes: 4 << 30,
            mode: BatchMode::Continuous,
            tenant_inflight_limit: 0,
        }
    }
}

/// Why the engine could not take or finish a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The worker's admission queue is full — shed load and retry.
    Overloaded {
        /// The queue depth that was exceeded.
        capacity: usize,
    },
    /// The tenant already has its full quota of requests in flight.
    QuotaExceeded {
        /// The tenant that was refused.
        tenant: u64,
        /// Its in-flight cap.
        limit: usize,
    },
    /// The request itself is malformed (empty prompt, out-of-vocabulary
    /// token, zero-length generation).
    Invalid(String),
    /// A bounded wait elapsed before the engine answered
    /// ([`Ticket::wait_timeout`], [`StreamTicket::next_timeout`]).
    Timeout,
    /// The engine is shutting down; no new work is accepted.
    ShuttingDown,
    /// The decode step itself failed.
    Exec(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(f, "admission queue full (capacity {capacity})")
            }
            ServeError::QuotaExceeded { tenant, limit } => {
                write!(f, "tenant {tenant} already has {limit} requests in flight")
            }
            ServeError::Invalid(msg) => write!(f, "invalid request: {msg}"),
            ServeError::Timeout => write!(f, "timed out waiting for the engine"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::Exec(msg) => write!(f, "decode step failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One completed decode step for one session.
#[derive(Debug, Clone)]
pub struct StepOutput {
    /// Next-token logits, `vocab` long.
    pub logits: Vec<f32>,
    /// How many lanes the step ran with (observability only — the lane
    /// count never changes the bits).
    pub batch_size: usize,
}

impl StepOutput {
    /// Index of the highest logit — greedy decoding's next token.
    pub fn argmax(&self) -> u32 {
        let mut best = 0usize;
        for (i, &v) in self.logits.iter().enumerate() {
            if v > self.logits[best] {
                best = i;
            }
        }
        best as u32
    }
}

/// A multi-token generation request for [`Engine::generate`].
///
/// The engine consumes the whole `prompt` (prefill), then greedily
/// decodes `max_new_tokens` tokens, feeding each step's argmax back as
/// the next input. One [`StreamEvent::Token`] is emitted per generated
/// token, the first carrying the logits right after the prompt.
#[derive(Debug, Clone)]
pub struct GenRequest {
    /// Session this stream extends (state cached across requests).
    pub session: u64,
    /// Tenant for admission quotas (`0` = the default tenant).
    pub tenant: u64,
    /// Tokens to consume before the first emission; must be non-empty.
    pub prompt: Vec<u32>,
    /// Tokens to generate (= [`StreamEvent::Token`] events); minimum 1.
    pub max_new_tokens: usize,
}

impl GenRequest {
    /// A request for the default tenant.
    pub fn new(session: u64, prompt: Vec<u32>, max_new_tokens: usize) -> GenRequest {
        GenRequest {
            session,
            tenant: 0,
            prompt,
            max_new_tokens,
        }
    }

    /// Same request on behalf of `tenant`.
    pub fn with_tenant(mut self, tenant: u64) -> GenRequest {
        self.tenant = tenant;
        self
    }
}

/// One event on a generation stream.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// A generated token (greedy argmax), with its logits.
    Token {
        /// Position in the generated stream, `0..max_new_tokens`.
        index: usize,
        /// The argmax token.
        token: u32,
        /// The full next-token logits the argmax came from.
        logits: Vec<f32>,
        /// Lanes in the decode step that produced this token
        /// (observability only — never changes the bits).
        batch: usize,
    },
    /// The stream finished; no further events follow.
    Done {
        /// Tokens generated (equals the request's `max_new_tokens`
        /// unless the stream errored).
        generated: usize,
        /// Submit-to-done wall time.
        latency: Duration,
    },
    /// The stream failed; no further events follow.
    Error(ServeError),
}

/// A pending generation stream; events arrive in order and end with
/// [`StreamEvent::Done`] or [`StreamEvent::Error`].
pub struct StreamTicket {
    pub(crate) rx: BoundedQueue<StreamEvent>,
}

impl fmt::Debug for StreamTicket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamTicket").finish_non_exhaustive()
    }
}

impl StreamTicket {
    /// Blocks for the next event; `None` once the stream is exhausted
    /// (or the engine dropped it mid-shutdown).
    pub fn next(&self) -> Option<StreamEvent> {
        self.rx.pop_wait()
    }

    /// Blocks at most `timeout` for the next event.
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] if nothing arrived in time — the caller
    /// keeps the ticket and may retry or abandon the stream (a wedged
    /// worker must never wedge a front-end handler with it).
    pub fn next_timeout(&self, timeout: Duration) -> Result<Option<StreamEvent>, ServeError> {
        match self.rx.pop_deadline(Instant::now() + timeout) {
            Popped::Item(ev) => Ok(Some(ev)),
            Popped::Closed => Ok(None),
            Popped::TimedOut => Err(ServeError::Timeout),
        }
    }

    /// Non-blocking poll: an event if one is ready, [`Popped::TimedOut`]
    /// when the stream is momentarily idle, [`Popped::Closed`] when it is
    /// exhausted. Load generators juggle thousands of streams on one
    /// thread with this.
    pub fn poll(&self) -> Popped<StreamEvent> {
        self.rx.try_pop()
    }
}

/// A pending single-step response; [`wait`](Ticket::wait) blocks until
/// the worker executes the request's decode step.
pub struct Ticket {
    pub(crate) rx: BoundedQueue<Result<StepOutput, ServeError>>,
}

impl fmt::Debug for Ticket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Ticket").finish_non_exhaustive()
    }
}

impl Ticket {
    /// Blocks until the engine answers.
    ///
    /// # Errors
    ///
    /// [`ServeError::Exec`] if the decode step failed,
    /// [`ServeError::ShuttingDown`] if the engine dropped the request's
    /// reply channel without answering.
    pub fn wait(self) -> Result<StepOutput, ServeError> {
        match self.rx.pop_wait() {
            Some(result) => result,
            None => Err(ServeError::ShuttingDown),
        }
    }

    /// Blocks at most `timeout` for the answer.
    ///
    /// # Errors
    ///
    /// [`ServeError::Timeout`] if the engine has not answered in time —
    /// the ticket is consumed and the (eventual) reply discarded, so a
    /// wedged worker can never wedge a front-end handler.
    pub fn wait_timeout(self, timeout: Duration) -> Result<StepOutput, ServeError> {
        match self.rx.pop_deadline(Instant::now() + timeout) {
            Popped::Item(result) => result,
            Popped::Closed => Err(ServeError::ShuttingDown),
            Popped::TimedOut => Err(ServeError::Timeout),
        }
    }
}

/// Per-tenant in-flight accounting behind [`Engine::generate`]'s
/// admission check. `limit == 0` disables quotas entirely.
pub(crate) struct TenantLedger {
    limit: usize,
    inflight: Mutex<HashMap<u64, usize>>,
}

impl TenantLedger {
    fn new(limit: usize) -> TenantLedger {
        TenantLedger {
            limit,
            inflight: Mutex::new(HashMap::new()),
        }
    }

    /// Reserves one in-flight slot for `tenant`, or refuses.
    fn try_admit(&self, tenant: u64) -> bool {
        if self.limit == 0 {
            return true;
        }
        let mut map = self.inflight.lock().unwrap();
        let n = map.entry(tenant).or_insert(0);
        if *n >= self.limit {
            return false;
        }
        *n += 1;
        true
    }

    /// Returns `tenant`'s slot; called by workers when a request
    /// finishes (done or failed).
    pub(crate) fn release(&self, tenant: u64) {
        if self.limit == 0 {
            return;
        }
        let mut map = self.inflight.lock().unwrap();
        if let Some(n) = map.get_mut(&tenant) {
            *n = n.saturating_sub(1);
            if *n == 0 {
                map.remove(&tenant);
            }
        }
    }
}

/// A bounded reservoir of request completion latencies (submit → done),
/// in microseconds. Percentiles are computed over the most recent
/// `CAP` completions — a sliding window, which is what a live `STATS`
/// endpoint wants anyway.
pub(crate) struct LatencyRecorder {
    samples: Mutex<(Vec<u64>, usize)>,
}

const LATENCY_CAP: usize = 8192;

impl LatencyRecorder {
    fn new() -> LatencyRecorder {
        LatencyRecorder {
            samples: Mutex::new((Vec::new(), 0)),
        }
    }

    pub(crate) fn record(&self, latency: Duration) {
        let us = latency.as_micros().min(u128::from(u64::MAX)) as u64;
        let mut guard = self.samples.lock().unwrap();
        let (ring, next) = &mut *guard;
        if ring.len() < LATENCY_CAP {
            ring.push(us);
        } else {
            ring[*next] = us;
            *next = (*next + 1) % LATENCY_CAP;
        }
    }

    /// `(p50, p95, p99)` in microseconds over the current window.
    fn percentiles(&self) -> (f64, f64, f64) {
        let mut snapshot = self.samples.lock().unwrap().0.clone();
        if snapshot.is_empty() {
            return (0.0, 0.0, 0.0);
        }
        snapshot.sort_unstable();
        let pick = |p: f64| {
            let idx = ((p / 100.0) * (snapshot.len() - 1) as f64).round() as usize;
            snapshot[idx] as f64
        };
        (pick(50.0), pick(95.0), pick(99.0))
    }
}

/// Per-worker counters, published after every decode step.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct WorkerMetrics {
    pub(crate) completed: u64,
    pub(crate) max_batch: usize,
    pub(crate) steps: u64,
    pub(crate) lanes_stepped: u64,
    pub(crate) joins: u64,
    pub(crate) leaves: u64,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    pub(crate) evictions: u64,
    pub(crate) rewarms: u64,
    pub(crate) rewarm_tokens: u64,
    pub(crate) pool: TensorPoolStats,
}

/// Point-in-time engine counters from [`Engine::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Requests accepted into a queue.
    pub submitted: u64,
    /// Requests refused at admission (queue full).
    pub rejected: u64,
    /// Requests refused at admission (tenant over quota).
    pub quota_rejected: u64,
    /// Requests answered in full (single steps and whole generation
    /// streams each count once).
    pub completed: u64,
    /// Largest lane count observed in any step.
    pub max_batch_observed: usize,
    /// Decode steps executed.
    pub steps: u64,
    /// Total lanes across all decode steps; `/ steps` = occupancy.
    pub lanes_stepped: u64,
    /// Sessions that joined a running batch.
    pub joins: u64,
    /// Sessions that left a running batch.
    pub leaves: u64,
    /// Requests currently waiting in admission queues.
    pub queue_depth: usize,
    /// Session-state cache hits across workers.
    pub cache_hits: u64,
    /// Session-state cache misses (new or evicted sessions).
    pub cache_misses: u64,
    /// States evicted from the LRU caches.
    pub evictions: u64,
    /// Evicted sessions transparently re-warmed from history.
    pub rewarms: u64,
    /// Tokens replayed during re-warms.
    pub rewarm_tokens: u64,
    /// Decode-step buffer takes served by the workers' tensor pools.
    pub pool_takes: u64,
    /// Pool takes served without allocating (storage recycled across
    /// requests).
    pub pool_reuse_hits: u64,
    /// p50 of request completion latency, microseconds (sliding window).
    pub p50_us: f64,
    /// p95 of request completion latency, microseconds.
    pub p95_us: f64,
    /// p99 of request completion latency, microseconds.
    pub p99_us: f64,
}

impl EngineStats {
    /// Mean lanes per decode step — the occupancy the memory
    /// savings bought.
    pub fn occupancy(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            self.lanes_stepped as f64 / self.steps as f64
        }
    }

    /// Lane joins + leaves per decode step — how hard the batch churns.
    pub fn churn_per_step(&self) -> f64 {
        if self.steps == 0 {
            0.0
        } else {
            (self.joins + self.leaves) as f64 / self.steps as f64
        }
    }

    /// Session-cache hit rate over all lookups.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// The dynamic-batching inference engine. See the module docs for the
/// request path.
pub struct Engine {
    decoder: Arc<WordLmDecoder>,
    queues: Vec<BoundedQueue<Job>>,
    workers: Vec<JoinHandle<()>>,
    submitted: AtomicU64,
    rejected: AtomicU64,
    quota_rejected: AtomicU64,
    metrics: Arc<Vec<Mutex<WorkerMetrics>>>,
    ledger: Arc<TenantLedger>,
    latency: Arc<LatencyRecorder>,
    plans: Vec<Arc<ExecPlan>>,
    vocab: usize,
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.queues.len())
            .field("plans", &self.plans.len())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Builds and fuses the decode graph for `hyper`, binds parameters
    /// from `seed` (bit-identical to a training model drawn with the same
    /// seed), compiles inference plans for every batch size up to
    /// `config.max_batch`, and starts the worker threads.
    ///
    /// # Errors
    ///
    /// Propagates parameter-binding, planning and replica-cloning
    /// failures (e.g. the configured device memory cannot hold the
    /// parameters).
    pub fn start(hyper: WordLmHyper, seed: u64, config: ServeConfig) -> Result<Engine, ServeError> {
        let exec_err = |e: echo_graph::GraphError| ServeError::Exec(e.to_string());
        let decoder = Arc::new(WordLmDecoder::build(hyper));
        let mem = DeviceMemory::with_overhead_model(config.mem_bytes, 0, 0.0);
        // Node ids survive the fusion rewrite, so every decoder node id
        // (bindings, outputs, session state) works against the fused graph.
        let graph = decoder.fused_graph().map_err(exec_err)?;
        let mut proto = Executor::new(graph, StashPlan::stash_all(), mem);
        decoder.bind_params(&mut proto, seed).map_err(exec_err)?;

        let plans = (1..=config.max_batch.max(1))
            .map(|b| proto.plan_for_inference(&decoder.symbolic_bindings(b), decoder.outputs()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(exec_err)?;

        let workers = config.workers.max(1);
        let queues: Vec<BoundedQueue<Job>> = (0..workers)
            .map(|_| BoundedQueue::new(config.queue_capacity))
            .collect();
        let metrics: Arc<Vec<Mutex<WorkerMetrics>>> = Arc::new(
            (0..workers)
                .map(|_| Mutex::new(WorkerMetrics::default()))
                .collect(),
        );
        let ledger = Arc::new(TenantLedger::new(config.tenant_inflight_limit));
        let latency = Arc::new(LatencyRecorder::new());
        let mut handles = Vec::new();
        for (i, queue) in queues.iter().enumerate() {
            let exec = proto.clone_replica(mem).map_err(exec_err)?;
            let worker = Worker {
                decoder: Arc::clone(&decoder),
                plans: plans.clone(),
                queue: queue.clone(),
                cache: SessionCache::new(config.session_capacity),
                history: HashMap::new(),
                max_lanes: config.max_batch.max(1),
                metrics: Arc::clone(&metrics),
                ledger: Arc::clone(&ledger),
                latency: Arc::clone(&latency),
                slot: i,
                exec,
            };
            handles.push(
                std::thread::Builder::new()
                    .name(format!("echo-serve-{i}"))
                    .spawn(move || worker.run_continuous())
                    .expect("spawn worker thread"),
            );
        }

        Ok(Engine {
            decoder,
            queues,
            workers: handles,
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            quota_rejected: AtomicU64::new(0),
            metrics,
            ledger,
            latency,
            plans,
            vocab: hyper.vocab,
        })
    }

    /// The decode model this engine serves.
    pub fn decoder(&self) -> &WordLmDecoder {
        &self.decoder
    }

    /// The shared inference plans over the fused decode graph, one per
    /// batch size `1..=max_batch`.
    pub fn plans(&self) -> &[Arc<ExecPlan>] {
        &self.plans
    }

    /// Submits a generation stream: prefill `prompt`, then greedily
    /// decode `max_new_tokens` tokens, streaming each one. Requests of
    /// one session are answered in submission order; the stream's
    /// session occupies one lane of the running batch until it finishes.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] for a malformed request,
    /// [`ServeError::QuotaExceeded`] when the tenant is at its in-flight
    /// cap, [`ServeError::Overloaded`] when the session's worker queue
    /// is full, [`ServeError::ShuttingDown`] after shutdown began.
    pub fn generate(&self, request: GenRequest) -> Result<StreamTicket, ServeError> {
        if request.prompt.is_empty() {
            return Err(ServeError::Invalid("empty prompt".to_string()));
        }
        if request.max_new_tokens == 0 {
            return Err(ServeError::Invalid("max_new_tokens must be >= 1".into()));
        }
        self.check_vocab(&request.prompt)?;
        let rx = BoundedQueue::unbounded();
        let job = Job {
            session: request.session,
            tenant: request.tenant,
            prompt: request.prompt,
            max_new: request.max_new_tokens,
            reply: Reply::Stream(rx.clone()),
            submitted: Instant::now(),
        };
        self.enqueue(job)?;
        Ok(StreamTicket { rx })
    }

    /// Submits one token for `session` and returns a [`Ticket`] for the
    /// response (a single-step request on the default tenant). Requests
    /// of one session are answered in submission order.
    ///
    /// # Errors
    ///
    /// [`ServeError::Invalid`] for an out-of-vocabulary token,
    /// [`ServeError::Overloaded`] when the session's worker queue is full
    /// (backpressure by rejection — never by blocking), or
    /// [`ServeError::ShuttingDown`] after [`Engine::shutdown`] began.
    pub fn submit(&self, session: u64, token: u32) -> Result<Ticket, ServeError> {
        self.check_vocab(&[token])?;
        let rx = BoundedQueue::unbounded();
        let job = Job {
            session,
            tenant: 0,
            prompt: vec![token],
            max_new: 1,
            reply: Reply::Step(rx.clone()),
            submitted: Instant::now(),
        };
        self.enqueue(job)?;
        Ok(Ticket { rx })
    }

    /// Refuses tokens the embedding table has no row for, before anything
    /// is enqueued: an out-of-range index would fail the whole decode
    /// step, and with it every co-batched session's stream.
    fn check_vocab(&self, tokens: &[u32]) -> Result<(), ServeError> {
        match tokens.iter().find(|&&t| t as usize >= self.vocab) {
            Some(bad) => Err(ServeError::Invalid(format!(
                "token {bad} out of vocabulary ({})",
                self.vocab
            ))),
            None => Ok(()),
        }
    }

    fn enqueue(&self, job: Job) -> Result<(), ServeError> {
        let tenant = job.tenant;
        if !self.ledger.try_admit(tenant) {
            self.quota_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::QuotaExceeded {
                tenant,
                limit: self.ledger.limit,
            });
        }
        let queue = &self.queues[self.worker_of(job.session)];
        match queue.try_push(job) {
            Ok(()) => {
                self.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err((_, PushError::Full)) => {
                self.ledger.release(tenant);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServeError::Overloaded {
                    capacity: queue.capacity(),
                })
            }
            Err((_, PushError::Closed)) => {
                self.ledger.release(tenant);
                Err(ServeError::ShuttingDown)
            }
        }
    }

    /// Convenience: submit + wait in one call.
    ///
    /// # Errors
    ///
    /// As [`Engine::submit`] and [`Ticket::wait`].
    pub fn step(&self, session: u64, token: u32) -> Result<StepOutput, ServeError> {
        self.submit(session, token)?.wait()
    }

    /// The worker index `session` is pinned to.
    fn worker_of(&self, session: u64) -> usize {
        // Fibonacci hashing spreads consecutive ids across workers.
        (session.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % self.queues.len()
    }

    /// Aggregated engine counters.
    pub fn stats(&self) -> EngineStats {
        let (p50, p95, p99) = self.latency.percentiles();
        let mut stats = EngineStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            quota_rejected: self.quota_rejected.load(Ordering::Relaxed),
            queue_depth: self.queues.iter().map(BoundedQueue::len).sum(),
            p50_us: p50,
            p95_us: p95,
            p99_us: p99,
            ..EngineStats::default()
        };
        for slot in self.metrics.iter() {
            let m = slot.lock().unwrap();
            stats.max_batch_observed = stats.max_batch_observed.max(m.max_batch);
            stats.steps += m.steps;
            stats.lanes_stepped += m.lanes_stepped;
            stats.joins += m.joins;
            stats.leaves += m.leaves;
            stats.cache_hits += m.cache_hits;
            stats.cache_misses += m.cache_misses;
            stats.evictions += m.evictions;
            stats.rewarms += m.rewarms;
            stats.rewarm_tokens += m.rewarm_tokens;
            stats.pool_takes += m.pool.takes;
            stats.pool_reuse_hits += m.pool.reuse_hits;
            stats.completed += m.completed;
        }
        stats
    }

    /// Stops admission, drains every queued request, and joins the
    /// workers. Idempotent; also run by `Drop`.
    pub fn shutdown(&mut self) {
        for queue in &self.queues {
            queue.close();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

pub(crate) struct Worker {
    pub(crate) decoder: Arc<WordLmDecoder>,
    pub(crate) plans: Vec<Arc<ExecPlan>>,
    pub(crate) queue: BoundedQueue<Job>,
    pub(crate) cache: SessionCache,
    pub(crate) history: HashMap<u64, Vec<u32>>,
    /// Lane cap of the running batch (`ServeConfig::max_batch`, ≥ 1).
    pub(crate) max_lanes: usize,
    pub(crate) metrics: Arc<Vec<Mutex<WorkerMetrics>>>,
    pub(crate) ledger: Arc<TenantLedger>,
    pub(crate) latency: Arc<LatencyRecorder>,
    pub(crate) slot: usize,
    pub(crate) exec: Executor,
}

impl Worker {
    /// Copies cache / pool gauges into `local` and publishes it.
    pub(crate) fn publish(&mut self, local: &mut WorkerMetrics) {
        local.pool = self.exec.tensor_pool_stats();
        local.cache_hits = self.cache.hits();
        local.cache_misses = self.cache.misses();
        local.evictions = self.cache.evictions();
        *self.metrics[self.slot].lock().unwrap() = *local;
    }

    /// A session's current state: cache hit, or transparent re-warm by
    /// replaying its token history from zero (bit-identical to never
    /// having been evicted, by batch invariance).
    pub(crate) fn resolve_state(
        &mut self,
        session: u64,
        local: &mut WorkerMetrics,
    ) -> Result<LmState, ServeError> {
        if let Some(state) = self.cache.take(session) {
            return Ok(state);
        }
        let hyper = self.decoder.hyper;
        let mut state = LmState::zero(hyper.layers, hyper.hidden);
        let prefix = self.history.get(&session).cloned().unwrap_or_default();
        if !prefix.is_empty() {
            local.rewarms += 1;
            local.rewarm_tokens += prefix.len() as u64;
            self.install_plan(1);
            for &token in &prefix {
                let (_, next) = self
                    .decoder
                    .infer_step(&mut self.exec, &[token], std::slice::from_ref(&state))
                    .map_err(|e| ServeError::Exec(e.to_string()))?;
                state = next.into_iter().next().expect("one lane in, one out");
            }
        }
        Ok(state)
    }

    /// Installs the pre-built plan for batch size `b`.
    pub(crate) fn install_plan(&mut self, b: usize) {
        if let Some(plan) = self.plans.get(b - 1) {
            let _ = self.exec.set_exec_plan(Arc::clone(plan));
        }
    }
}

/// Greedy decoding's next token for a logits row.
pub(crate) fn argmax(logits: &[f32]) -> u32 {
    let mut best = 0usize;
    for (i, &v) in logits.iter().enumerate() {
        if v > logits[best] {
            best = i;
        }
    }
    best as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stalled-engine fixture: a ticket whose worker never answers.
    /// `wait_timeout` must hand control back instead of wedging the
    /// caller — the property the front end's handlers rely on.
    #[test]
    fn wait_timeout_returns_on_a_stalled_worker() {
        let stalled = Ticket {
            rx: BoundedQueue::unbounded(),
        };
        let t0 = Instant::now();
        match stalled.wait_timeout(Duration::from_millis(30)) {
            Err(ServeError::Timeout) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(t0.elapsed() >= Duration::from_millis(30));

        let stream = StreamTicket {
            rx: BoundedQueue::unbounded(),
        };
        match stream.next_timeout(Duration::from_millis(10)) {
            Err(ServeError::Timeout) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        // A stalled stream polls as momentarily idle, not exhausted.
        assert!(matches!(stream.poll(), Popped::TimedOut));
    }

    #[test]
    fn wait_timeout_delivers_an_answered_reply() {
        let rx = BoundedQueue::unbounded();
        rx.try_push(Ok(StepOutput {
            logits: vec![0.0, 2.0, 1.0],
            batch_size: 3,
        }))
        .unwrap();
        let ticket = Ticket { rx };
        let out = ticket.wait_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(out.argmax(), 1);
        assert_eq!(out.batch_size, 3);
    }

    #[test]
    fn tenant_ledger_admits_up_to_the_limit() {
        let ledger = TenantLedger::new(2);
        assert!(ledger.try_admit(7));
        assert!(ledger.try_admit(7));
        assert!(!ledger.try_admit(7), "third in-flight request refused");
        assert!(ledger.try_admit(8), "other tenants unaffected");
        ledger.release(7);
        assert!(ledger.try_admit(7), "slot freed on release");
    }

    #[test]
    fn latency_percentiles_are_ordered() {
        let rec = LatencyRecorder::new();
        for i in 1..=100u64 {
            rec.record(Duration::from_micros(i));
        }
        let (p50, p95, p99) = rec.percentiles();
        assert!(p50 <= p95 && p95 <= p99);
        assert!((p50 - 50.0).abs() <= 2.0, "p50 ~ 50us, got {p50}");
    }
}
