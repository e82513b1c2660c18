//! The two serving workloads and the single-threaded load driver they
//! share (rule 6).

use super::train::mem;
use super::{construct_timed, Kind, Report, Run, Spec, Window};
use crate::gen::{self, Request};
use crate::trace::{SpanId, Tracer};
use echo_graph::{Executor, StashPlan};
use echo_models::{LmState, WordLmDecoder, WordLmHyper};
use echo_rnn::LstmBackend;
use echo_serve::{
    BatchMode, Engine, EngineStats, GenRequest, Popped, ServeConfig, StepOutput, StreamEvent,
    StreamTicket,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A request that is not `Done` this long after it was due has failed.
const DEADLINE: Duration = Duration::from_secs(30);
/// Sessions per window whose token streams are replayed in isolation.
const SAMPLED_SESSIONS: usize = 16;
pub const MAX_BATCH: usize = 8;

#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub hyper: WordLmHyper,
    pub prompt_len: usize,
    pub max_new_tokens: usize,
    /// Closed loop: this many clients, each sending its next request the
    /// moment its last one ends.
    pub clients: Option<usize>,
    /// Open loop: requests per second, whatever the engine does.
    pub rate: Option<f64>,
}

pub const TOY_CLOSED: Load = Load {
    hyper: WordLmHyper {
        vocab: 50,
        embed: 4,
        hidden: 4,
        layers: 8,
        seq_len: 1,
        backend: LstmBackend::Default,
    },
    prompt_len: 2,
    max_new_tokens: 24,
    clients: Some(MAX_BATCH),
    rate: None,
};

pub const WIDE_HYPER: WordLmHyper = WordLmHyper {
    vocab: 10_000,
    embed: 128,
    hidden: 256,
    layers: 2,
    seq_len: 1,
    backend: LstmBackend::CuDnn,
};

pub const WIDE_OPEN: Load = Load {
    hyper: WIDE_HYPER,
    prompt_len: 4,
    max_new_tokens: 24,
    clients: None,
    rate: Some(30.0),
};

pub fn config() -> ServeConfig {
    ServeConfig {
        max_batch: MAX_BATCH,
        workers: 1,
        queue_capacity: 256,
        mode: BatchMode::Continuous,
        ..ServeConfig::default()
    }
}

impl Load {
    pub fn requests(&self, seed: u64, count: usize) -> Vec<Request> {
        gen::requests(
            seed,
            self.hyper.vocab,
            count,
            self.prompt_len,
            self.max_new_tokens,
            self.rate,
        )
    }
}

/// Starts an engine and sends one warm-up request down every lane.
pub fn start(load: &Load, seed: u64, config: ServeConfig) -> Result<Engine, String> {
    let engine = Engine::start(load.hyper, gen::param_seed(seed), config)
        .map_err(|e| format!("Engine::start: {e}"))?;
    let mut warm = gen::requests(
        seed ^ 0x77,
        load.hyper.vocab,
        MAX_BATCH,
        load.prompt_len,
        load.max_new_tokens,
        None,
    );
    for (i, r) in warm.iter_mut().enumerate() {
        r.session = u64::MAX - i as u64;
    }
    let warmed = drive(
        &engine,
        &warm,
        Some(MAX_BATCH),
        &mut Tracer::new(false),
        0,
        false,
    );
    match warmed.window.first_failure {
        Some(e) => Err(format!("warm-up: {e}")),
        None => Ok(engine),
    }
}

struct Live {
    index: usize,
    ticket: StreamTicket,
    /// When the request was due (open loop) or sent (closed loop).
    t0: Instant,
    last_event: Instant,
    tokens: Vec<u32>,
    span: SpanId,
    token_span: SpanId,
    lane: u32,
    done: bool,
}

/// What one driven window produced beyond the [`Window`] itself.
pub struct Driven {
    pub window: Window,
    /// Token streams of the sampled requests, by request index.
    pub streams: HashMap<usize, Vec<u32>>,
    /// How late each open-loop request was sent, milliseconds.
    pub lateness_ms: Vec<f64>,
    /// `stats().queue_depth` at each admission (traced runs only).
    pub queue_depths: Vec<f64>,
}

/// Sends `requests` and consumes their streams on the calling thread.
///
/// The thread never spins: it blocks on the stream whose next token is
/// the last of the current decode step to arrive — among streams already
/// decoding, the one heard from longest ago — then drains every other
/// stream without blocking. A stream still queued or in prefill emits
/// nothing for several steps, so it is only blocked on when no stream is
/// decoding. The wait is cut short when an open-loop arrival falls due.
pub fn drive(
    engine: &Engine,
    requests: &[Request],
    clients: Option<usize>,
    tracer: &mut Tracer,
    sampled_sessions: usize,
    sample_stats: bool,
) -> Driven {
    // Keep the streams of this many requests, evenly spread.
    let sample_every = (requests.len() / sampled_sessions.max(1)).max(1);
    let mut out = Driven {
        window: Window::default(),
        streams: HashMap::new(),
        lateness_ms: Vec::new(),
        queue_depths: Vec::new(),
    };
    let mut live: Vec<Live> = Vec::new();
    let mut free_lanes: Vec<u32> = (0..64).rev().collect();
    let mut next = 0usize;
    let start = Instant::now();

    loop {
        // Admission.
        while let Some(req) = requests.get(next) {
            let now = Instant::now();
            let t0 = match clients {
                Some(c) if live.len() < c => now,
                Some(_) => break,
                None if start + req.due <= now => start + req.due,
                None => break,
            };
            next += 1;
            if clients.is_none() {
                out.lateness_ms.push((now - t0).as_secs_f64() * 1e3);
            }
            if sample_stats {
                out.queue_depths.push(engine.stats().queue_depth as f64);
            }
            let gen_request = GenRequest::new(req.session, req.prompt.clone(), req.max_new_tokens);
            match engine.generate(gen_request) {
                Ok(ticket) => {
                    let lane = free_lanes.pop().unwrap_or(64);
                    let span = tracer.open_at("serve.generate", None, next as u64 - 1, lane, t0);
                    let token_span =
                        tracer.open_at("serve.first_token", span, next as u64 - 1, lane, t0);
                    live.push(Live {
                        index: next - 1,
                        ticket,
                        t0,
                        last_event: t0,
                        tokens: Vec::with_capacity(req.max_new_tokens),
                        span,
                        token_span,
                        lane,
                        done: false,
                    });
                }
                Err(e) => out.window.fail(
                    start.elapsed().as_secs_f64(),
                    format!("request {} rejected: {e}", next - 1),
                ),
            }
        }

        if live.is_empty() {
            match requests.get(next) {
                None => break,
                Some(req) => {
                    std::thread::sleep((start + req.due).saturating_duration_since(Instant::now()));
                    continue;
                }
            }
        }

        // Block on one stream, bounded by the next arrival and by the
        // oldest live request's deadline.
        let pick = live
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.tokens.is_empty())
            .min_by_key(|(_, l)| l.last_event)
            .or_else(|| live.iter().enumerate().min_by_key(|(_, l)| l.t0))
            .map(|(i, _)| i)
            .expect("live is not empty");
        let now = Instant::now();
        let oldest = live.iter().map(|l| l.t0).min().expect("live is not empty");
        let mut wake = oldest + DEADLINE;
        if clients.is_none() {
            if let Some(req) = requests.get(next) {
                wake = wake.min(start + req.due);
            }
        }
        if let Ok(event) = live[pick]
            .ticket
            .next_timeout(wake.saturating_duration_since(now))
        {
            on_event(&mut live[pick], event, start, tracer, &mut out);
        }
        for l in live.iter_mut() {
            while !l.done {
                match l.ticket.poll() {
                    Popped::Item(event) => on_event(l, Some(event), start, tracer, &mut out),
                    Popped::Closed => on_event(l, None, start, tracer, &mut out),
                    Popped::TimedOut => break,
                }
            }
        }

        let now = Instant::now();
        live.retain_mut(|l| {
            if !l.done && now >= l.t0 + DEADLINE {
                fail(l, start, tracer, &mut out, "not Done within 30 s".into());
            }
            if l.done {
                if l.lane < 64 {
                    free_lanes.push(l.lane);
                }
                if sampled_sessions > 0 && l.index % sample_every == 0 {
                    out.streams.insert(l.index, std::mem::take(&mut l.tokens));
                }
            }
            !l.done
        });
    }
    out
}

fn fail(l: &mut Live, start: Instant, tracer: &mut Tracer, out: &mut Driven, why: String) {
    l.done = true;
    tracer.close(l.token_span);
    tracer.close(l.span);
    out.window.fail(
        start.elapsed().as_secs_f64(),
        format!("request {}: {why}", l.index),
    );
}

fn on_event(
    l: &mut Live,
    event: Option<StreamEvent>,
    start: Instant,
    tracer: &mut Tracer,
    out: &mut Driven,
) {
    let now = Instant::now();
    match event {
        Some(StreamEvent::Token { token, .. }) => {
            let ms = (now - l.last_event).as_secs_f64() * 1e3;
            if l.tokens.is_empty() {
                out.window.ttft_ms.push(ms);
            } else {
                out.window.gap_ms.push(ms);
            }
            tracer.close_at(l.token_span, now);
            l.token_span = tracer.open_at("serve.token", l.span, l.index as u64, l.lane, now);
            l.tokens.push(token);
            l.last_event = now;
        }
        Some(StreamEvent::Done { generated, .. }) => {
            l.done = true;
            // The span opened after the last token covers only the
            // engine's retirement of the lane.
            tracer.close_at(l.token_span, now);
            tracer.close_at(l.span, now);
            out.window.ends_s.push((now - start).as_secs_f64());
            out.window.tokens.push(generated as f64);
            out.window.latency_ms.push((now - l.t0).as_secs_f64() * 1e3);
        }
        Some(StreamEvent::Error(e)) => fail(l, start, tracer, out, format!("errored: {e}")),
        None => fail(l, start, tracer, out, "stream closed before Done".into()),
    }
}

/// Replays `request` alone, one lane at a time through
/// `WordLmDecoder::infer_step` on a private executor with no plan
/// installed, and returns the tokens greedy decoding yields.
fn replay(
    decoder: &WordLmDecoder,
    exec: &mut Executor,
    request: &Request,
) -> Result<Vec<u32>, String> {
    let mut state = LmState::zero(decoder.hyper.layers, decoder.hyper.hidden);
    let mut feed = request.prompt.clone();
    let mut tokens = Vec::with_capacity(request.max_new_tokens);
    let mut consumed = 0;
    while tokens.len() < request.max_new_tokens {
        let (mut logits, mut states) = decoder
            .infer_step(exec, &[feed[consumed]], std::slice::from_ref(&state))
            .map_err(|e| format!("infer_step: {e}"))?;
        state = states.pop().expect("one lane in, one state out");
        consumed += 1;
        if consumed == feed.len() {
            let token = StepOutput {
                logits: logits.pop().expect("one lane in, one row out"),
                batch_size: 1,
            }
            .argmax();
            tokens.push(token);
            feed.push(token);
        }
    }
    Ok(tokens)
}

/// Every sampled stream must equal its isolated B = 1 replay.
pub fn check_streams(
    name: &str,
    load: &Load,
    seed: u64,
    requests: &[Request],
    streams: &HashMap<usize, Vec<u32>>,
) -> Result<(), String> {
    if streams.is_empty() {
        return Err(format!("{name}: no session was sampled"));
    }
    let decoder = WordLmDecoder::build(load.hyper);
    let mut exec = Executor::new(Arc::clone(&decoder.graph), StashPlan::stash_all(), mem());
    decoder
        .bind_params(&mut exec, gen::param_seed(seed))
        .map_err(|e| format!("bind_params: {e}"))?;
    let mut sampled: Vec<_> = streams.iter().collect();
    sampled.sort();
    for (&index, got) in sampled {
        let want = replay(&decoder, &mut exec, &requests[index])?;
        same_stream(name, requests[index].session, got, &want)?;
    }
    Ok(())
}

/// A served stream against its isolated replay; the error names the
/// session and the first token that differs.
fn same_stream(name: &str, session: u64, got: &[u32], want: &[u32]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got.iter().zip(want).take_while(|(g, w)| g == w).count();
    Err(format!(
        "{name}: session {session} differs from its isolated replay at token {at}: \
         {:?} != {:?}",
        got.get(at),
        want.get(at)
    ))
}

pub fn planned_peak_bytes(engine: &Engine) -> u64 {
    engine
        .plans()
        .iter()
        .map(|p| p.planned_peak_bytes())
        .max()
        .unwrap_or(0)
}

/// The scheduler counters a window moved (what `occupancy()` and
/// `churn_per_step()` read); every other field is `after`'s.
pub fn stats_delta(before: &EngineStats, after: &EngineStats) -> EngineStats {
    EngineStats {
        steps: after.steps - before.steps,
        lanes_stepped: after.lanes_stepped - before.lanes_stepped,
        joins: after.joins - before.joins,
        leaves: after.leaves - before.leaves,
        ..*after
    }
}

pub fn run(spec: &Spec, run: &Run, tracer: &mut Tracer) -> Result<Report, String> {
    let name = spec.name;
    let load = match spec.kind {
        Kind::ServeToyClosed => TOY_CLOSED,
        Kind::ServeWideOpen => WIDE_OPEN,
        other => unreachable!("{other:?} is not a serving workload"),
    };
    let mut requests = Vec::new();
    let (mut engine, setups_s) = construct_timed(run.setups, || {
        requests = load.requests(run.seed, run.total_ops());
        start(&load, run.seed, config())
    })?;
    let peak_bytes = planned_peak_bytes(&engine);

    // A traced run drives ten short blocks; sample two sessions of each.
    let sampled = if run.trace { 2 } else { SAMPLED_SESSIONS };
    let before = engine.stats();
    let mut check = Ok(());
    let mut lateness_ms = Vec::new();
    let (mut window, mut traced) = run.measure(tracer, |ops, first, tracer| {
        // Each block's arrival schedule starts when the block does.
        let block: Vec<Request> = requests[first..first + ops]
            .iter()
            .map(|r| Request {
                due: r.due - requests[first].due,
                ..r.clone()
            })
            .collect();
        let driven = drive(&engine, &block, load.clients, tracer, sampled, false);
        if check.is_ok() {
            check = check_streams(name, &load, run.seed, &block, &driven.streams);
        }
        lateness_ms.extend(driven.lateness_ms);
        driven.window
    });
    let moved = stats_delta(&before, &engine.stats());
    engine.shutdown();
    let after = engine.stats();
    if check.is_ok() && after.rejected != 0 {
        check = Err(format!(
            "{name}: the engine rejected {} requests",
            after.rejected
        ));
    }
    window.peak_bytes = peak_bytes;
    if let Some(t) = &mut traced {
        t.peak_bytes = peak_bytes;
    }

    let mut notes = BTreeMap::new();
    notes.insert("steps", moved.steps as f64);
    notes.insert("occupancy", moved.occupancy());
    notes.insert("churn_per_step", moved.churn_per_step());
    if !lateness_ms.is_empty() {
        notes.insert(
            "generator_lateness_p90_ms",
            crate::stats::percentile(&crate::stats::sorted(&lateness_ms), 90.0),
        );
    }
    Ok(Report {
        window,
        traced,
        setups_s,
        check,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_expected_stream_fails_the_check_and_names_the_session() {
        let got = [7u32, 3, 3, 9];
        assert!(same_stream("serve_toy_closed", 5, &got, &got).is_ok());
        let err = same_stream("serve_toy_closed", 5, &got, &[7, 3, 4, 9]).unwrap_err();
        assert!(
            err.contains("serve_toy_closed")
                && err.contains("session 5")
                && err.contains("token 2"),
            "{err}"
        );
        // A stream cut short differs where it ends.
        let err = same_stream("serve_wide_open", 8, &got[..3], &got).unwrap_err();
        assert!(err.contains("token 3") && err.contains("None"), "{err}");
    }

    #[test]
    fn the_toy_engine_serves_what_an_isolated_replay_decodes() {
        let load = TOY_CLOSED;
        let requests = load.requests(3, 24);
        let mut engine = start(&load, 3, config()).unwrap();
        let driven = drive(
            &engine,
            &requests,
            load.clients,
            &mut Tracer::new(false),
            4,
            false,
        );
        engine.shutdown();
        assert_eq!((driven.window.attempted(), driven.window.failed), (24, 0));
        assert_eq!(driven.window.ttft_ms.len(), 24);
        assert_eq!(driven.window.gap_ms.len(), 24 * 23);
        assert_eq!(driven.streams.len(), 4);
        check_streams("serve_toy_closed", &load, 3, &requests, &driven.streams).unwrap();

        // The same streams against other prompts: the check must fail.
        let other = load.requests(4, 24);
        let err = check_streams("serve_toy_closed", &load, 3, &other, &driven.streams).unwrap_err();
        assert!(err.contains("differs from its isolated replay"), "{err}");
    }
}
