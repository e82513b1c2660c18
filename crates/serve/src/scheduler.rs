//! Continuous in-flight batching: sessions join and leave a *running*
//! batch between decode steps.
//!
//! A scheduler that drains a micro-batch fully before admitting the next
//! leaves a finished session's lane idle until the slowest stream ends,
//! makes a newly arrived session wait for the next batch, and has no way
//! to share a step between generation streams of different lengths. This
//! loop is the engine's only scheduler and does none of that:
//!
//! * **Join** — between any two decode steps, queued requests are
//!   admitted into free lanes (non-blocking: a running batch never waits
//!   for joiners; an *empty* engine blocks, burning no CPU).
//! * **Step** — all active lanes advance one token together, using the
//!   pre-built inference [`ExecPlan`](echo_graph::ExecPlan) for the
//!   *current* lane count ([`Engine::plans`](crate::Engine::plans)).
//! * **Leave** — lanes whose stream is finished retire immediately
//!   (state back to the cache, `Done` on the stream), and the remaining
//!   lanes *compact* down to a dense prefix so the next step runs the
//!   smallest matching plan.
//!
//! **Why compaction cannot change anyone's bits.** The decode path is
//! batch-invariant: every operator computes row `b` of its output from
//! row `b` of its inputs with a fixed per-element floating-point
//! sequence, so a session's logits depend only on its own token and
//! state — not on its lane index, the lane count, or which neighbors
//! come and go. A session's logit stream is therefore bit-identical
//! regardless of when its neighbors join or leave, which
//! `crates/serve/tests/continuous_bitexact.rs` pins against isolated
//! single-session decode under every matmul policy.
//!
//! One invariant makes batching composable with session state: **at most
//! one request per session in flight on the worker**. A second request for
//! an active session needs the state its predecessor is still
//! producing, so it parks in a per-session FIFO and joins when its
//! predecessor leaves.

use crate::engine::{argmax, ServeError, StepOutput, StreamEvent, Worker, WorkerMetrics};
use crate::queue::{BoundedQueue, Popped};
use echo_models::LmState;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

/// One admitted request, as the workers see it. Single-step submissions
/// and generation streams are the same job shape: a prompt to consume
/// and a number of tokens to emit.
pub(crate) struct Job {
    pub(crate) session: u64,
    pub(crate) tenant: u64,
    pub(crate) prompt: Vec<u32>,
    pub(crate) max_new: usize,
    pub(crate) reply: Reply,
    pub(crate) submitted: Instant,
}

/// Where a job's output goes: a one-shot step reply or an event stream.
pub(crate) enum Reply {
    /// A [`Ticket`](crate::Ticket): exactly one `StepOutput` (or error).
    Step(BoundedQueue<Result<StepOutput, ServeError>>),
    /// A [`StreamTicket`](crate::StreamTicket): `Token*` then `Done`.
    Stream(BoundedQueue<StreamEvent>),
}

impl Reply {
    /// Emits generated token `index` with its logits.
    pub(crate) fn token(&self, index: usize, logits: Vec<f32>, batch: usize) {
        match self {
            Reply::Step(q) => {
                let _ = q.try_push(Ok(StepOutput {
                    logits,
                    batch_size: batch,
                }));
            }
            Reply::Stream(q) => {
                let token = argmax(&logits);
                let _ = q.try_push(StreamEvent::Token {
                    index,
                    token,
                    logits,
                    batch,
                });
            }
        }
    }

    /// Ends the stream successfully and closes the channel.
    pub(crate) fn done(&self, generated: usize, latency: Duration) {
        if let Reply::Stream(q) = self {
            let _ = q.try_push(StreamEvent::Done { generated, latency });
        }
        self.close();
    }

    /// Ends the stream with an error and closes the channel.
    pub(crate) fn fail(&self, error: ServeError) {
        match self {
            Reply::Step(q) => {
                let _ = q.try_push(Err(error));
            }
            Reply::Stream(q) => {
                let _ = q.try_push(StreamEvent::Error(error));
            }
        }
        self.close();
    }

    fn close(&self) {
        match self {
            Reply::Step(q) => q.close(),
            Reply::Stream(q) => q.close(),
        }
    }
}

/// One lane of the running batch: a session mid-generation.
struct Lane {
    job: Job,
    state: LmState,
    /// Prompt tokens not yet consumed (prefill remainder).
    pending: VecDeque<u32>,
    /// The token this lane consumes on the next step.
    next: u32,
    /// Tokens emitted so far (`== job.max_new` means finished).
    emitted: usize,
}

impl Lane {
    /// Whether the next step is still consuming prompt (no emission).
    fn prefilling(&self) -> bool {
        !self.pending.is_empty()
    }
}

impl Worker {
    /// The continuous scheduler loop. Runs until the admission queue is
    /// closed *and* every admitted request — active, parked or still
    /// queued — has been answered: shutdown never drops accepted work.
    pub(crate) fn run_continuous(mut self) {
        let mut lanes: Vec<Lane> = Vec::new();
        // Jobs for sessions that already have a request in flight, FIFO
        // per session. They join when their predecessor leaves.
        let mut parked: HashMap<u64, VecDeque<Job>> = HashMap::new();
        let mut local = WorkerMetrics::default();
        let mut closed = false;

        loop {
            // ── Join ─────────────────────────────────────────────────
            while lanes.len() < self.max_lanes {
                if let Some(job) = unpark(&mut parked, &lanes) {
                    self.admit(job, &mut lanes, &mut local);
                    continue;
                }
                if lanes.is_empty() && !closed && parked.is_empty() {
                    // Idle engine: block for the next request, burning
                    // no CPU. (With parked jobs, unpark above always
                    // succeeds on an empty batch, so no deadlock here.)
                    match self.queue.pop_wait() {
                        Some(job) => self.intake(job, &mut lanes, &mut parked, &mut local),
                        None => closed = true,
                    }
                } else {
                    // Running batch: admit whatever is queued right now,
                    // but never wait for joiners.
                    match self.queue.try_pop() {
                        Popped::Item(job) => self.intake(job, &mut lanes, &mut parked, &mut local),
                        Popped::TimedOut => break,
                        Popped::Closed => {
                            closed = true;
                            break;
                        }
                    }
                }
            }

            if lanes.is_empty() {
                if closed && parked.is_empty() {
                    break; // fully drained
                }
                continue;
            }

            // ── Step ─────────────────────────────────────────────────
            let b = lanes.len();
            let tokens: Vec<u32> = lanes.iter().map(|l| l.next).collect();
            let states: Vec<LmState> = lanes
                .iter_mut()
                .map(|l| {
                    std::mem::replace(
                        &mut l.state,
                        LmState {
                            h: Vec::new(),
                            c: Vec::new(),
                        },
                    )
                })
                .collect();
            self.install_plan(b);
            match self.decoder.infer_step(&mut self.exec, &tokens, &states) {
                Ok((logits, next_states)) => {
                    local.steps += 1;
                    local.lanes_stepped += b as u64;
                    local.max_batch = local.max_batch.max(b);
                    for ((lane, lane_logits), state) in
                        lanes.iter_mut().zip(logits).zip(next_states)
                    {
                        self.history
                            .entry(lane.job.session)
                            .or_default()
                            .push(lane.next);
                        lane.state = state;
                        if let Some(p) = lane.pending.pop_front() {
                            lane.next = p; // prefill continues, no emission
                            continue;
                        }
                        let token = argmax(&lane_logits);
                        lane.job.reply.token(lane.emitted, lane_logits, b);
                        lane.emitted += 1;
                        lane.next = token;
                    }
                }
                Err(e) => {
                    // The whole step failed; every lane's stream errors
                    // and the batch resets.
                    let err = ServeError::Exec(e.to_string());
                    for lane in lanes.drain(..) {
                        local.leaves += 1;
                        self.ledger.release(lane.job.tenant);
                        lane.job.reply.fail(err.clone());
                    }
                    self.publish(&mut local);
                    continue;
                }
            }

            // ── Leave & compact ──────────────────────────────────────
            // `Vec::remove` shifts the survivors down in order: the next
            // step sees a dense lane prefix and can use the exact-size
            // plan. Order preservation is cosmetic (batch invariance),
            // but keeps per-session event interleaving intuitive.
            let mut i = 0;
            while i < lanes.len() {
                if lanes[i].emitted == lanes[i].job.max_new && !lanes[i].prefilling() {
                    let lane = lanes.remove(i);
                    local.leaves += 1;
                    local.completed += 1;
                    self.cache.put(lane.job.session, lane.state);
                    self.ledger.release(lane.job.tenant);
                    let latency = lane.job.submitted.elapsed();
                    self.latency.record(latency);
                    lane.job.reply.done(lane.emitted, latency);
                } else {
                    i += 1;
                }
            }

            self.publish(&mut local);
        }
    }

    /// Routes a freshly popped job: park it if its session already has a
    /// request in flight (active lane or earlier parked job), otherwise
    /// admit it into a lane.
    fn intake(
        &mut self,
        job: Job,
        lanes: &mut Vec<Lane>,
        parked: &mut HashMap<u64, VecDeque<Job>>,
        local: &mut WorkerMetrics,
    ) {
        let busy =
            lanes.iter().any(|l| l.job.session == job.session) || parked.contains_key(&job.session);
        if busy {
            parked.entry(job.session).or_default().push_back(job);
        } else {
            self.admit(job, lanes, local);
        }
    }

    /// Resolves the session's state (cache hit or bit-exact re-warm) and
    /// opens a lane for the job.
    fn admit(&mut self, mut job: Job, lanes: &mut Vec<Lane>, local: &mut WorkerMetrics) {
        let state = match self.resolve_state(job.session, local) {
            Ok(state) => state,
            Err(e) => {
                self.ledger.release(job.tenant);
                job.reply.fail(e);
                return;
            }
        };
        local.joins += 1;
        let mut pending: VecDeque<u32> = std::mem::take(&mut job.prompt).into();
        let next = pending.pop_front().expect("prompt validated non-empty");
        lanes.push(Lane {
            job,
            state,
            pending,
            next,
            emitted: 0,
        });
    }
}

/// The first parked job whose session is no longer active. FIFO within a
/// session is structural (`VecDeque`); across sessions the iteration
/// order is arbitrary, which is fine — parked jobs only compete when
/// lanes are free.
fn unpark(parked: &mut HashMap<u64, VecDeque<Job>>, lanes: &[Lane]) -> Option<Job> {
    let session = *parked
        .keys()
        .find(|s| !lanes.iter().any(|l| l.job.session == **s))?;
    let queue = parked.get_mut(&session).expect("key just found");
    let job = queue.pop_front().expect("parked queues are never empty");
    if queue.is_empty() {
        parked.remove(&session);
    }
    Some(job)
}
