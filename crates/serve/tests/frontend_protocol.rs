//! The line-protocol front end, end to end over real TCP: request
//! framing, streamed token events, wire-exact logits, the `STATS`
//! endpoint, per-tenant admission quotas, hostile request lines, and the
//! connection cap.

use echo_models::WordLmHyper;
use echo_rnn::LstmBackend;
use echo_serve::frontend::MAX_LINE_BYTES;
use echo_serve::{
    Engine, Frontend, FrontendConfig, GenRequest, JsonValue, ServeConfig, ServeError, StreamEvent,
};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 47;
const VOCAB: usize = 41;

fn hyper() -> WordLmHyper {
    WordLmHyper::tiny(VOCAB, LstmBackend::Default)
}

fn start(config: ServeConfig) -> (Arc<Engine>, Frontend) {
    let engine = Arc::new(Engine::start(hyper(), SEED, config).unwrap());
    let frontend = Frontend::start(Arc::clone(&engine), FrontendConfig::default()).unwrap();
    (engine, frontend)
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(frontend: &Frontend) -> Client {
        let writer = TcpStream::connect(frontend.local_addr()).unwrap();
        writer
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let reader = BufReader::new(writer.try_clone().unwrap());
        Client { writer, reader }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
    }

    fn recv(&mut self) -> JsonValue {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        assert!(!line.is_empty(), "server closed mid-conversation");
        JsonValue::parse(line.trim()).unwrap_or_else(|e| panic!("bad frame {line:?}: {e}"))
    }

    fn event(v: &JsonValue) -> &str {
        v.get("event").and_then(JsonValue::as_str).unwrap()
    }
}

#[test]
fn generate_streams_wire_exact_tokens_and_logits() {
    let (engine, frontend) = start(ServeConfig::default());

    // The same request straight through the engine, on a different
    // session (fresh state, same model) — the TCP stream must match it
    // token for token and logit for logit.
    let prompt = vec![5u32, 17, 2];
    let max_new = 6usize;
    let direct = engine
        .generate(GenRequest::new(1001, prompt.clone(), max_new))
        .unwrap();
    let mut want_tokens = Vec::new();
    let mut want_logits = Vec::new();
    while let Some(event) = direct.next() {
        match event {
            StreamEvent::Token { token, logits, .. } => {
                want_tokens.push(token);
                want_logits.push(logits);
            }
            StreamEvent::Done { .. } => break,
            StreamEvent::Error(e) => panic!("direct stream errored: {e}"),
        }
    }
    assert_eq!(want_tokens.len(), max_new);

    let mut client = Client::connect(&frontend);
    client.send(
        "{\"op\":\"generate\",\"session\":7,\"prompt\":[5,17,2],\
         \"max_new_tokens\":6,\"logits\":true}",
    );
    let mut got_tokens = Vec::new();
    let mut got_logits: Vec<Vec<f32>> = Vec::new();
    loop {
        let frame = client.recv();
        match Client::event(&frame) {
            "token" => {
                let index = frame.get("index").and_then(JsonValue::as_u64).unwrap();
                assert_eq!(index as usize, got_tokens.len(), "in-order delivery");
                assert_eq!(
                    frame.get("session").and_then(JsonValue::as_u64),
                    Some(7),
                    "events carry their session"
                );
                got_tokens.push(frame.get("token").and_then(JsonValue::as_u64).unwrap() as u32);
                let row = match frame.get("logits") {
                    Some(JsonValue::Arr(xs)) => xs
                        .iter()
                        .map(|x| x.as_f64().expect("numeric logit") as f32)
                        .collect::<Vec<f32>>(),
                    other => panic!("logits missing: {other:?}"),
                };
                got_logits.push(row);
            }
            "done" => {
                assert_eq!(
                    frame.get("generated").and_then(JsonValue::as_u64),
                    Some(max_new as u64)
                );
                break;
            }
            other => panic!("unexpected event {other}"),
        }
    }
    assert_eq!(got_tokens, want_tokens, "argmax stream matches the engine");
    // Shortest-roundtrip float formatting makes the wire bit-exact.
    for (step, (got, want)) in got_logits.iter().zip(&want_logits).enumerate() {
        assert_eq!(
            got, want,
            "token {step}: logits must round-trip bit-exactly"
        );
    }

    // A single step on the same connection continues the session.
    client.send("{\"op\":\"step\",\"session\":7,\"token\":3}");
    let frame = client.recv();
    assert_eq!(Client::event(&frame), "token");
    assert_eq!(frame.get("index").and_then(JsonValue::as_u64), Some(0));
}

#[test]
fn stats_endpoint_reports_service_counters() {
    let (engine, frontend) = start(ServeConfig::default());
    let mut client = Client::connect(&frontend);

    client.send("{\"op\":\"ping\"}");
    assert_eq!(Client::event(&client.recv()), "pong");

    client.send("{\"op\":\"generate\",\"session\":3,\"prompt\":[1,2],\"max_new_tokens\":4}");
    let mut frames = 0;
    loop {
        let frame = client.recv();
        if Client::event(&frame) == "done" {
            break;
        }
        frames += 1;
    }
    assert_eq!(frames, 4);

    // Bare `STATS` line and the JSON op must both answer.
    client.send("STATS");
    let stats = client.recv();
    assert_eq!(Client::event(&stats), "stats");
    for key in [
        "submitted",
        "completed",
        "queue_depth",
        "steps",
        "occupancy",
        "joins",
        "leaves",
        "churn_per_step",
        "cache_hit_rate",
        "evictions",
        "pool_reuse_hits",
        "p50_us",
        "p95_us",
        "p99_us",
    ] {
        assert!(stats.get(key).is_some(), "STATS is missing {key}");
    }
    assert!(stats.get("batches").is_none(), "no per-scheduler keys");
    assert!(stats.get("completed").and_then(JsonValue::as_u64) >= Some(1));
    assert!(stats.get("joins").and_then(JsonValue::as_u64) >= Some(1));
    assert!(stats.get("p99_us").and_then(JsonValue::as_f64).unwrap() > 0.0);

    client.send("{\"op\":\"stats\"}");
    assert_eq!(Client::event(&client.recv()), "stats");

    // Malformed and unknown requests answer with errors, and the
    // connection survives them.
    client.send("{not json");
    let err = client.recv();
    assert_eq!(Client::event(&err), "error");
    assert_eq!(err.get("code").and_then(JsonValue::as_str), Some("invalid"));
    client.send("{\"op\":\"warp\"}");
    assert_eq!(
        client.recv().get("code").and_then(JsonValue::as_str),
        Some("invalid")
    );
    client.send("{\"op\":\"generate\",\"session\":3,\"prompt\":[]}");
    assert_eq!(
        client.recv().get("code").and_then(JsonValue::as_str),
        Some("invalid")
    );
    client.send("{\"op\":\"ping\"}");
    assert_eq!(Client::event(&client.recv()), "pong");
    drop(engine);
}

#[test]
fn tenant_quota_rejects_over_the_wire() {
    let (engine, frontend) = start(ServeConfig {
        tenant_inflight_limit: 1,
        ..ServeConfig::default()
    });

    // Fill tenant 9's single in-flight slot with a long generation. The
    // ledger slot is taken synchronously at admission, so until this
    // stream finishes the tenant is at its cap.
    let long = engine
        .generate(GenRequest::new(500, vec![1], 2000).with_tenant(9))
        .unwrap();

    let mut client = Client::connect(&frontend);
    client.send(
        "{\"op\":\"generate\",\"session\":501,\"prompt\":[2],\
         \"max_new_tokens\":1,\"tenant\":9}",
    );
    let frame = client.recv();
    assert_eq!(Client::event(&frame), "error");
    assert_eq!(frame.get("code").and_then(JsonValue::as_str), Some("quota"));

    // Another tenant is unaffected.
    client.send(
        "{\"op\":\"generate\",\"session\":502,\"prompt\":[2],\
         \"max_new_tokens\":1,\"tenant\":8}",
    );
    assert_eq!(Client::event(&client.recv()), "token");
    assert_eq!(Client::event(&client.recv()), "done");

    while let Some(event) = long.next() {
        if matches!(event, StreamEvent::Done { .. }) {
            break;
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.quota_rejected, 1);
}

/// An out-of-vocabulary single step is refused at admission. It must
/// never reach the decode step: there it would fail the whole step, and
/// with it the stream of every session sharing the batch.
#[test]
fn out_of_vocabulary_step_is_invalid_and_spares_its_neighbours() {
    const LONG: usize = 4000;
    let (engine, frontend) = start(ServeConfig {
        tenant_inflight_limit: 1,
        ..ServeConfig::default()
    });
    let long = engine
        .generate(GenRequest::new(1, vec![1], LONG).with_tenant(9))
        .unwrap();
    let mut generated = 0usize;
    match long.next() {
        Some(StreamEvent::Token { .. }) => generated += 1,
        other => panic!("the neighbour stream never started: {other:?}"),
    }

    // While session 1 is mid-stream: a token far outside the embedding
    // table, one just outside it, and one that a 32-bit wrap would turn
    // into the valid token 3.
    let mut client = Client::connect(&frontend);
    for token in [4_000_000u64, VOCAB as u64, (1 << 32) + 3] {
        client.send(&format!(
            "{{\"op\":\"step\",\"session\":2,\"token\":{token}}}"
        ));
        let frame = client.recv();
        assert_eq!(Client::event(&frame), "error", "token {token}");
        assert_eq!(
            frame.get("code").and_then(JsonValue::as_str),
            Some("invalid"),
            "token {token}"
        );
    }
    assert!(matches!(
        engine.submit(2, VOCAB as u32),
        Err(ServeError::Invalid(_))
    ));
    // Nothing was enqueued and no quota slot taken: the default tenant's
    // single slot is still free for a valid step of the same session.
    client.send("{\"op\":\"step\",\"session\":2,\"token\":3}");
    assert_eq!(Client::event(&client.recv()), "token");

    loop {
        match long.next() {
            Some(StreamEvent::Token { .. }) => generated += 1,
            Some(StreamEvent::Done { generated: n, .. }) => {
                assert_eq!(n, LONG);
                break;
            }
            other => panic!("neighbour stream died after {generated} tokens: {other:?}"),
        }
    }
    assert_eq!(generated, LONG);

    // Quota and lanes are back to zero: tenant 9 is admitted again, and
    // once the workers publish, every join has its leave.
    let again = engine
        .generate(GenRequest::new(1, vec![2], 1).with_tenant(9))
        .unwrap();
    while let Some(event) = again.next() {
        assert!(!matches!(event, StreamEvent::Error(_)), "{event:?}");
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = engine.stats();
        if stats.completed == 3 && stats.joins == stats.leaves {
            break stats;
        }
        assert!(std::time::Instant::now() < deadline, "{stats:?}");
        std::thread::sleep(Duration::from_millis(2));
    };
    assert_eq!(stats.submitted, 3, "refused steps were never enqueued");
    assert_eq!((stats.joins, stats.leaves), (3, 3));
    assert_eq!(stats.quota_rejected + stats.rejected, 0);
}

/// One client's lines can cost that client its connection, never the
/// server: a nesting bomb is a parse error (not a stack overflow, which
/// would abort the process and every client with it), and an endless
/// line is refused at the cap instead of buffered without bound.
#[test]
fn hostile_lines_are_invalid_and_spare_the_server() {
    let engine = Arc::new(Engine::start(hyper(), SEED, ServeConfig::default()).unwrap());
    let frontend = Frontend::start(
        Arc::clone(&engine),
        FrontendConfig {
            max_connections: 1,
            ..FrontendConfig::default()
        },
    )
    .unwrap();

    let mut hostile = Client::connect(&frontend);
    hostile.send(&"[".repeat(200_000));
    let frame = hostile.recv();
    assert_eq!(
        frame.get("code").and_then(JsonValue::as_str),
        Some("invalid")
    );
    // Exactly one byte past the cap, so the server has read all of it
    // when it closes (unread input would turn the close into a reset).
    hostile
        .writer
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .unwrap();
    let frame = hostile.recv();
    assert_eq!(
        frame.get("code").and_then(JsonValue::as_str),
        Some("invalid")
    );
    let mut rest = String::new();
    assert_eq!(hostile.reader.read_line(&mut rest).unwrap(), 0, "closed");

    // With a cap of one connection, being admitted proves the hostile
    // connection's slot came back. Its handler frees the slot just after
    // the close, so listen before speaking: a refused connection is told
    // `overloaded` at once, an admitted one hears nothing.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        let mut client = Client::connect(&frontend);
        client
            .writer
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut line = String::new();
        match client.reader.read_line(&mut line) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                client
                    .writer
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                break client;
            }
            _ => assert!(line.contains("overloaded"), "{line:?}"),
        }
        assert!(Instant::now() < deadline, "the connection slot leaked");
        std::thread::sleep(Duration::from_millis(10));
    };
    client.send("{\"op\":\"ping\"}");
    assert_eq!(Client::event(&client.recv()), "pong");
    client.send("{\"op\":\"generate\",\"session\":4,\"prompt\":[1,2],\"max_new_tokens\":3}");
    for _ in 0..3 {
        assert_eq!(Client::event(&client.recv()), "token");
    }
    assert_eq!(Client::event(&client.recv()), "done");
}

#[test]
fn connection_cap_rejects_not_blocks() {
    let engine = Arc::new(Engine::start(hyper(), SEED, ServeConfig::default()).unwrap());
    let frontend = Frontend::start(
        Arc::clone(&engine),
        FrontendConfig {
            max_connections: 0,
            ..FrontendConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(&frontend);
    let frame = client.recv();
    assert_eq!(Client::event(&frame), "error");
    assert_eq!(
        frame.get("code").and_then(JsonValue::as_str),
        Some("overloaded")
    );
}
