//! The production front end: a threaded newline-delimited-JSON TCP
//! server over the [`Engine`].
//!
//! Deliberately **no async runtime**: one accept thread plus one handler
//! thread per connection, with the same reject-not-block discipline as
//! the engine underneath — a connection beyond `max_connections` gets an
//! error line and an immediate close, and every engine wait is bounded
//! by [`Ticket::wait_timeout`] / [`StreamTicket::next_timeout`] so a
//! wedged worker can never wedge a handler.
//!
//! ## Protocol
//!
//! One JSON object per line in, one or more JSON objects per line out.
//!
//! ```text
//! → {"op":"generate","session":9,"prompt":[12,3],"max_new_tokens":4}
//! ← {"event":"token","session":9,"index":0,"token":31,"batch":3}
//! ← {"event":"token","session":9,"index":1,"token":8,"batch":2}
//! ← ...
//! ← {"event":"done","session":9,"generated":4,"latency_us":512}
//!
//! → {"op":"step","session":9,"token":31}
//! ← {"event":"token","session":9,"index":0,"token":8,"batch":1}
//!
//! → {"op":"stats"}          (or the bare line: STATS)
//! ← {"event":"stats","queue_depth":0,"occupancy":5.93,...}
//!
//! → {"op":"ping"}
//! ← {"event":"pong"}
//! ```
//!
//! `generate` takes optional `"tenant":N` (admission quotas) and
//! `"logits":true` (embed the full logits row in every token event —
//! floats are emitted with shortest-roundtrip formatting, so the stream
//! is bit-exact on the wire). Failures arrive as
//! `{"event":"error","code":"overloaded"|"quota"|"invalid"|"timeout"|
//! "shutting_down"|"exec","error":"..."}` and never tear down the
//! connection except on I/O errors and on a line longer than
//! [`MAX_LINE_BYTES`], which is answered `invalid` and then closed.

use crate::engine::{Engine, EngineStats, GenRequest, ServeError, StreamEvent};
use crate::wire::{escape, JsonValue, WireF32};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Longest request line, newline included. `generate`'s `prompt` is the
/// only long field; past this the handler answers `invalid` and closes
/// rather than buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Front-end configuration.
#[derive(Debug, Clone)]
pub struct FrontendConfig {
    /// Bind address; port 0 picks a free port (see
    /// [`Frontend::local_addr`]).
    pub addr: String,
    /// Concurrent connections beyond this are told `overloaded` and
    /// closed immediately — reject, never block.
    pub max_connections: usize,
    /// Longest a handler waits for the engine before answering
    /// `timeout` — the lid on a wedged worker.
    pub reply_timeout: Duration,
}

impl Default for FrontendConfig {
    fn default() -> Self {
        FrontendConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            reply_timeout: Duration::from_secs(5),
        }
    }
}

/// A running line-protocol server; dropping it stops the accept loop.
pub struct Frontend {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Frontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Frontend")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl Frontend {
    /// Binds `config.addr` and starts accepting connections against
    /// `engine`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configuration failures.
    pub fn start(engine: Arc<Engine>, config: FrontendConfig) -> std::io::Result<Frontend> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept so the loop can observe shutdown quickly.
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::Builder::new()
                .name("echo-frontend-accept".to_string())
                .spawn(move || {
                    while !shutdown.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                spawn_handler(
                                    stream,
                                    Arc::clone(&engine),
                                    &config,
                                    Arc::clone(&shutdown),
                                    Arc::clone(&live),
                                );
                            }
                            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(20)),
                        }
                    }
                })
                .expect("spawn accept thread")
        };

        Ok(Frontend {
            local_addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting connections and asks live handlers to wind down
    /// (each notices within its read-poll interval). Idempotent; also
    /// run by `Drop`.
    pub fn shutdown(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Frontend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Connection-count guard: decrements on drop so handler panics can't
/// leak slots.
struct ConnSlot(Arc<AtomicUsize>);

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn spawn_handler(
    stream: TcpStream,
    engine: Arc<Engine>,
    config: &FrontendConfig,
    shutdown: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
) {
    // Admission first: over the cap the client gets one error line and
    // an immediate close — the accept loop never stops accepting, so
    // rejection stays cheap and prompt.
    if live.fetch_add(1, Ordering::Relaxed) >= config.max_connections {
        let slot = ConnSlot(live);
        let mut stream = stream;
        let _ = writeln!(
            stream,
            "{{\"event\":\"error\",\"code\":\"overloaded\",\"error\":\"connection limit {}\"}}",
            config.max_connections
        );
        drop(slot);
        return;
    }
    let slot = ConnSlot(live);
    let reply_timeout = config.reply_timeout;
    let _ = std::thread::Builder::new()
        .name("echo-frontend-conn".to_string())
        .spawn(move || {
            let _slot = slot;
            let _ = handle_connection(stream, &engine, reply_timeout, &shutdown);
        });
}

fn handle_connection(
    stream: TcpStream,
    engine: &Engine,
    reply_timeout: Duration,
    shutdown: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    // Short read timeout: the handler polls the shutdown flag between
    // timeouts, so a quiet client cannot pin the thread past shutdown.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if shutdown.load(Ordering::Relaxed) {
            return Ok(());
        }
        // Never read past the cap, so an endless line costs one buffer.
        let budget = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        let read = reader.by_ref().take(budget).read_line(&mut line);
        if line.len() > MAX_LINE_BYTES {
            let message = format!("request line over {MAX_LINE_BYTES} bytes");
            write_error(&mut writer, None, "invalid", &message)?;
            return Ok(());
        }
        match read {
            Ok(0) => return Ok(()), // client closed
            Ok(_) => {
                let request = std::mem::take(&mut line);
                let request = request.trim();
                if request.is_empty() {
                    continue;
                }
                if !dispatch(request, engine, &mut writer, reply_timeout)? {
                    return Ok(());
                }
            }
            // Timeout with a partial line accumulated in `line`: keep
            // accumulating on the next pass.
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Ok(()),
        }
    }
}

/// Handles one request line; `Ok(false)` asks the caller to close.
fn dispatch(
    request: &str,
    engine: &Engine,
    writer: &mut TcpStream,
    reply_timeout: Duration,
) -> std::io::Result<bool> {
    if request.eq_ignore_ascii_case("stats") {
        write_stats(writer, &engine.stats())?;
        return Ok(true);
    }
    let parsed = match JsonValue::parse(request) {
        Ok(v) => v,
        Err(e) => {
            write_error(writer, None, "invalid", &format!("parse: {e}"))?;
            return Ok(true);
        }
    };
    match parsed.get("op").and_then(JsonValue::as_str) {
        Some("ping") => writeln!(writer, "{{\"event\":\"pong\"}}").map(|()| true),
        Some("stats") => write_stats(writer, &engine.stats()).map(|()| true),
        Some("quit") => Ok(false),
        Some("step") => {
            // A token beyond `u32` is refused like any other malformed
            // field, never wrapped into some in-range id.
            let (Some(session), Some(token)) = (
                parsed.get("session").and_then(JsonValue::as_u64),
                parsed
                    .get("token")
                    .and_then(JsonValue::as_u64)
                    .and_then(|t| u32::try_from(t).ok()),
            ) else {
                write_error(writer, None, "invalid", "step needs session and token")?;
                return Ok(true);
            };
            match engine
                .submit(session, token)
                .and_then(|t| t.wait_timeout(reply_timeout))
            {
                Ok(out) => {
                    let token = out.argmax();
                    writeln!(
                        writer,
                        "{{\"event\":\"token\",\"session\":{session},\"index\":0,\
                         \"token\":{token},\"batch\":{}}}",
                        out.batch_size
                    )?;
                }
                Err(e) => write_serve_error(writer, Some(session), &e)?,
            }
            Ok(true)
        }
        Some("generate") => {
            let (Some(session), Some(prompt)) = (
                parsed.get("session").and_then(JsonValue::as_u64),
                parsed.get("prompt").and_then(|p| p.as_tokens()),
            ) else {
                write_error(writer, None, "invalid", "generate needs session and prompt")?;
                return Ok(true);
            };
            let max_new = parsed
                .get("max_new_tokens")
                .and_then(JsonValue::as_u64)
                .unwrap_or(1) as usize;
            let tenant = parsed
                .get("tenant")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0);
            let with_logits = parsed
                .get("logits")
                .and_then(JsonValue::as_bool)
                .unwrap_or(false);
            let ticket = match engine
                .generate(GenRequest::new(session, prompt, max_new).with_tenant(tenant))
            {
                Ok(ticket) => ticket,
                Err(e) => {
                    write_serve_error(writer, Some(session), &e)?;
                    return Ok(true);
                }
            };
            loop {
                match ticket.next_timeout(reply_timeout) {
                    Ok(Some(StreamEvent::Token {
                        index,
                        token,
                        logits,
                        batch,
                    })) => {
                        if with_logits {
                            let row: Vec<String> =
                                logits.iter().map(|&x| WireF32(x).to_string()).collect();
                            writeln!(
                                writer,
                                "{{\"event\":\"token\",\"session\":{session},\
                                 \"index\":{index},\"token\":{token},\"batch\":{batch},\
                                 \"logits\":[{}]}}",
                                row.join(",")
                            )?;
                        } else {
                            writeln!(
                                writer,
                                "{{\"event\":\"token\",\"session\":{session},\
                                 \"index\":{index},\"token\":{token},\"batch\":{batch}}}"
                            )?;
                        }
                    }
                    Ok(Some(StreamEvent::Done { generated, latency })) => {
                        writeln!(
                            writer,
                            "{{\"event\":\"done\",\"session\":{session},\
                             \"generated\":{generated},\"latency_us\":{}}}",
                            latency.as_micros()
                        )?;
                        break;
                    }
                    Ok(Some(StreamEvent::Error(e))) => {
                        write_serve_error(writer, Some(session), &e)?;
                        break;
                    }
                    Ok(None) => {
                        write_serve_error(writer, Some(session), &ServeError::ShuttingDown)?;
                        break;
                    }
                    Err(e) => {
                        // The bounded wait elapsed: tell the client and
                        // abandon the stream — never hang the handler.
                        write_serve_error(writer, Some(session), &e)?;
                        break;
                    }
                }
            }
            Ok(true)
        }
        other => {
            write_error(
                writer,
                None,
                "invalid",
                &format!("unknown op {other:?} (try generate/step/stats/ping)"),
            )?;
            Ok(true)
        }
    }
}

fn error_code(e: &ServeError) -> &'static str {
    match e {
        ServeError::Overloaded { .. } => "overloaded",
        ServeError::QuotaExceeded { .. } => "quota",
        ServeError::Invalid(_) => "invalid",
        ServeError::Timeout => "timeout",
        ServeError::ShuttingDown => "shutting_down",
        ServeError::Exec(_) => "exec",
    }
}

fn write_serve_error(
    writer: &mut TcpStream,
    session: Option<u64>,
    e: &ServeError,
) -> std::io::Result<()> {
    write_error(writer, session, error_code(e), &e.to_string())
}

fn write_error(
    writer: &mut TcpStream,
    session: Option<u64>,
    code: &str,
    message: &str,
) -> std::io::Result<()> {
    match session {
        Some(s) => writeln!(
            writer,
            "{{\"event\":\"error\",\"session\":{s},\"code\":\"{code}\",\"error\":\"{}\"}}",
            escape(message)
        ),
        None => writeln!(
            writer,
            "{{\"event\":\"error\",\"code\":\"{code}\",\"error\":\"{}\"}}",
            escape(message)
        ),
    }
}

/// The `STATS` line: every [`EngineStats`] counter plus the derived
/// occupancy / churn / hit-rate gauges the dashboards want.
fn write_stats(writer: &mut TcpStream, s: &EngineStats) -> std::io::Result<()> {
    writeln!(
        writer,
        "{{\"event\":\"stats\",\
         \"submitted\":{},\"rejected\":{},\"quota_rejected\":{},\"completed\":{},\
         \"queue_depth\":{},\"steps\":{},\"lanes_stepped\":{},\"occupancy\":{:.4},\
         \"joins\":{},\"leaves\":{},\"churn_per_step\":{:.4},\
         \"max_batch_observed\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\"cache_hit_rate\":{:.4},\
         \"evictions\":{},\"rewarms\":{},\"rewarm_tokens\":{},\
         \"pool_takes\":{},\"pool_reuse_hits\":{},\
         \"p50_us\":{:.1},\"p95_us\":{:.1},\"p99_us\":{:.1}}}",
        s.submitted,
        s.rejected,
        s.quota_rejected,
        s.completed,
        s.queue_depth,
        s.steps,
        s.lanes_stepped,
        s.occupancy(),
        s.joins,
        s.leaves,
        s.churn_per_step(),
        s.max_batch_observed,
        s.cache_hits,
        s.cache_misses,
        s.cache_hit_rate(),
        s.evictions,
        s.rewarms,
        s.rewarm_tokens,
        s.pool_takes,
        s.pool_reuse_hits,
        s.p50_us,
        s.p95_us,
        s.p99_us,
    )
}
