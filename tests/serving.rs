//! Serving-layer integration: the shared artifact cache under real
//! concurrency, DDL-epoch races, and the TCP wire protocol end to end
//! with two sessions sharing one speculative artifact.

use serde_json::{parse, Value};
use specdb::core::{SpaceConfig, SpeculatorConfig};
use specdb::serve::{
    serve, Admission, BeginBuild, CompleteBuild, ServeConfig, ServerHandle, SessionId,
    SharedArtifactCache, MAX_REQUEST_LINE,
};
use specdb::sim::{build_base_db, DatasetSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// The cache's bookkeeping must stay coherent when many sessions
/// register, look up, lease, and collect concurrently: no lost entries,
/// no double-installs, and a final sweep that leaves the cache empty.
#[test]
fn artifact_cache_consistent_under_concurrent_register_lookup_drop() {
    const SESSIONS: SessionId = 8;
    const ROUNDS: usize = 200;
    let cache = SharedArtifactCache::new();
    std::thread::scope(|scope| {
        for sid in 0..SESSIONS {
            let cache = &cache;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    let key = format!("k{}", (round + sid as usize) % 4);
                    match cache.begin_build(&key, sid) {
                        BeginBuild::Started(ticket) => {
                            // Install immediately; the table name encodes
                            // the key so by_table stays consistent.
                            let verdict = cache.complete_build(ticket, format!("mv_{key}"));
                            assert!(matches!(
                                verdict,
                                CompleteBuild::Installed | CompleteBuild::Stale
                            ));
                        }
                        BeginBuild::InFlight => {}
                        BeginBuild::Ready(table) => {
                            cache.note_use(&table, sid);
                        }
                    }
                    cache.lookup(&key, sid);
                    cache.set_leases(sid, std::slice::from_ref(&key));
                    cache.set_leases(sid, &[]);
                    let _ = cache.collect_unleased();
                }
            });
        }
    });
    // Quiesced: every session abandons its leases and the sweep reaps
    // whatever survived the churn.
    for sid in 0..SESSIONS {
        cache.release_session(sid);
    }
    let _ = cache.collect_unleased();
    let stats = cache.stats();
    assert!(cache.is_empty(), "unleased artifacts must all be collected: {stats:?}");
    assert_eq!(stats.ready, 0);
    assert_eq!(stats.building, 0);
    assert!(stats.installed > 0, "the churn must install artifacts");
    // Installed artifacts leave the cache only through the GC sweep, so
    // on an empty cache the two tallies must balance exactly.
    assert_eq!(stats.installed, stats.collected, "{stats:?}");
}

/// A DDL-epoch bump racing an in-flight build must never install the
/// stale result, whatever the interleaving; a build completing *before*
/// the bump stays installed (ready artifacts are governed by leases,
/// not by the epoch — the wire protocol has no DDL verbs).
#[test]
fn epoch_invalidation_racing_in_flight_build_never_installs_stale() {
    // Deterministic orderings first.
    let cache = SharedArtifactCache::new();
    let ticket = match cache.begin_build("k", 1) {
        BeginBuild::Started(t) => t,
        other => panic!("expected Started, got {other:?}"),
    };
    cache.invalidate();
    assert_eq!(cache.complete_build(ticket, "mv_stale".into()), CompleteBuild::Stale);
    assert!(cache.is_empty(), "a stale build must leave no residue");

    // Now the actual race, across a range of interleavings.
    for delay_us in [0u64, 20, 100, 500] {
        let cache = SharedArtifactCache::new();
        let barrier = std::sync::Barrier::new(2);
        let verdict = std::thread::scope(|scope| {
            let builder = scope.spawn(|| {
                let ticket = match cache.begin_build("k", 1) {
                    BeginBuild::Started(t) => t,
                    other => panic!("expected Started, got {other:?}"),
                };
                barrier.wait();
                std::thread::sleep(Duration::from_micros(delay_us));
                cache.complete_build(ticket, "mv_k".into())
            });
            barrier.wait();
            cache.invalidate();
            builder.join().unwrap()
        });
        let stats = cache.stats();
        match verdict {
            CompleteBuild::Installed => {
                // The build won the race: it is visible and reusable.
                assert_eq!(stats.ready, 1, "{stats:?}");
                assert_eq!(cache.lookup("k", 2), Some("mv_k".into()));
            }
            CompleteBuild::Stale => {
                // The bump won: nothing installed, and a rebuild under
                // the new epoch succeeds.
                assert_eq!(stats.ready, 0, "{stats:?}");
                let t2 = match cache.begin_build("k", 1) {
                    BeginBuild::Started(t) => t,
                    other => panic!("expected Started, got {other:?}"),
                };
                assert_eq!(cache.complete_build(t2, "mv_k2".into()), CompleteBuild::Installed);
            }
        }
    }
}

/// A tiny line-protocol client. Like the server, it sends each line in
/// one write on a `TCP_NODELAY` socket, so neither side waits on the
/// other's delayed ACK.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to serve()");
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { writer: stream, reader }
    }

    fn reply(&mut self) -> Value {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read response");
        parse(reply.trim()).unwrap_or_else(|e| panic!("bad JSON {reply:?}: {e}"))
    }

    fn send(&mut self, line: &str) -> Value {
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("write request");
        let v = self.reply();
        assert_eq!(field(&v, "ok"), &Value::Bool(true), "{line} -> {v:?}");
        v
    }
}

/// A server on the tiny dataset whose sessions never speculate, so a
/// request costs only the wire and the edit itself.
fn quiet_server() -> ServerHandle {
    let db = build_base_db(&DatasetSpec::tiny()).unwrap();
    let space = SpaceConfig {
        histograms: false,
        indexes: false,
        materializations: false,
        selections_only: false,
        staging: false,
    };
    let speculator = SpeculatorConfig { space, predict: false, ..SpeculatorConfig::default() };
    serve(db, ServeConfig { speculator, ..ServeConfig::default() }).expect("bind")
}

fn field<'a>(v: &'a Value, name: &str) -> &'a Value {
    match v {
        Value::Object(pairs) => pairs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {name:?} in {v:?}")),
        other => panic!("expected object with {name:?}, got {other:?}"),
    }
}

fn as_u64(v: &Value) -> u64 {
    match v {
        Value::U64(u) => *u,
        Value::I64(i) => *i as u64,
        other => panic!("expected integer, got {other:?}"),
    }
}

/// Full wire-protocol round trip with two concurrent sessions: the
/// first session's speculative build serves the second session's GO as
/// a cross-session shared hit (the transcript in `docs/serving.md`).
#[test]
fn wire_protocol_serves_concurrent_sessions_with_shared_artifacts() {
    let db = build_base_db(&DatasetSpec::tiny()).unwrap();
    let handle = serve(db, ServeConfig::default()).expect("bind");
    let addr = handle.addr();

    let mut alice = Client::connect(addr);
    let connected = alice.send("CONNECT alice");
    assert_eq!(field(&connected, "name"), &Value::Str("alice".into()));
    alice.send("EDIT ADD_RELATION lineitem");
    let edited = alice.send("EDIT ADD_SELECTION lineitem l_quantity <= 2");
    assert_eq!(as_u64(field(&edited, "relations")), 1);
    assert_eq!(as_u64(field(&edited, "selections")), 1);

    // Think time: the speculative materialization runs on a background
    // thread. Pump benign no-op edits (re-adding the same relation) to
    // give the speculator decision points until the artifact is ready.
    let mut ready = 0;
    for _ in 0..500 {
        let stats = alice.send("STATS");
        ready = as_u64(field(field(&stats, "cache"), "ready"));
        if ready >= 1 {
            break;
        }
        alice.send("EDIT ADD_RELATION lineitem");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(ready >= 1, "alice's speculative build never installed");

    let go1 = alice.send("GO");
    let rows = as_u64(field(&go1, "rows"));
    assert!(rows > 0, "the crafted predicate must match rows");
    assert_eq!(field(&go1, "shared_hit"), &Value::Bool(false), "own build is not a shared hit");

    // Bob converges on the same question; his GO reads alice's artifact.
    let mut bob = Client::connect(addr);
    bob.send("CONNECT bob");
    bob.send("EDIT ADD_RELATION lineitem");
    bob.send("EDIT ADD_SELECTION lineitem l_quantity <= 2");
    let go2 = bob.send("GO");
    assert_eq!(as_u64(field(&go2, "rows")), rows, "same query, same answer");
    assert_eq!(
        field(&go2, "shared_hit"),
        &Value::Bool(true),
        "bob's plan must read alice's artifact: {go2:?}"
    );

    let stats = bob.send("STATS");
    assert_eq!(as_u64(field(&stats, "sessions")), 2);
    let cache = field(&stats, "cache");
    assert!(as_u64(field(cache, "shared_hits")) >= 1, "{stats:?}");
    assert!(as_u64(field(field(&stats, "session"), "queries")) >= 1);

    bob.send("QUIT");
    alice.send("QUIT");
    handle.shutdown();
}

/// An EDIT's round trip costs the edit, not a TCP timer. A reply
/// written in two segments on a socket without `TCP_NODELAY` waits for
/// the client's delayed ACK, which puts every round trip at about 44 ms
/// on Linux; the bound sits well below that floor.
#[test]
fn edit_round_trip_is_not_held_by_delayed_ack() {
    let handle = quiet_server();
    let mut client = Client::connect(handle.addr());
    client.send("CONNECT timer");
    let mut rtts: Vec<Duration> = (0..21)
        .map(|i| {
            let verb = if i % 2 == 0 { "ADD_RELATION" } else { "REMOVE_RELATION" };
            let sent = Instant::now();
            client.send(&format!("EDIT {verb} lineitem"));
            sent.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(median < Duration::from_millis(20), "median EDIT round trip {median:?}: {rtts:?}");
    client.send("QUIT");
    handle.shutdown();
}

/// An over-long request line gets one error reply; its bytes are
/// dropped and the next request on the same connection is served.
#[test]
fn over_long_line_gets_one_error_and_the_connection_stays_open() {
    let handle = quiet_server();
    let mut client = Client::connect(handle.addr());
    client.send("CONNECT long");
    let mut burst = vec![b'x'; 1 << 20];
    assert!(burst.len() > MAX_REQUEST_LINE);
    burst.extend_from_slice(b"\nEDIT ADD_RELATION lineitem\n");
    client.writer.write_all(&burst).expect("write the long line");
    let error = client.reply();
    assert_eq!(field(&error, "ok"), &Value::Bool(false), "{error:?}");
    assert!(
        matches!(field(&error, "error"), Value::Str(e) if e.contains("longer than")),
        "the error must name the line cap: {error:?}"
    );
    let edited = client.reply();
    assert_eq!(field(&edited, "ok"), &Value::Bool(true), "{edited:?}");
    assert_eq!(as_u64(field(&edited, "relations")), 1);
    client.send("QUIT");
    handle.shutdown();
}

/// Shutdown closes connections a client still holds open: their
/// sessions disconnect (releasing their leases) and the client reads
/// EOF.
#[test]
fn shutdown_closes_open_connections() {
    let handle = quiet_server();
    let manager = handle.manager().clone();
    let mut client = Client::connect(handle.addr());
    client.send("CONNECT lingering");
    client.send("EDIT ADD_RELATION lineitem");
    assert_eq!(manager.session_count(), 1);
    handle.shutdown();
    assert_eq!(manager.session_count(), 0, "shutdown must disconnect every session");
    let mut rest = String::new();
    assert_eq!(client.reader.read_line(&mut rest).expect("read after shutdown"), 0, "{rest:?}");
}

/// EDIT's `outstanding` is this session's build, not the fleet's: a
/// slot another session holds must not show up in it.
#[test]
fn edit_outstanding_reports_only_this_sessions_build() {
    let handle = quiet_server();
    assert_eq!(handle.manager().governor().admit(999, 1.0, "elsewhere"), Admission::Admit);
    let mut client = Client::connect(handle.addr());
    client.send("CONNECT idle");
    let edited = client.send("EDIT ADD_RELATION lineitem");
    assert_eq!(field(&edited, "outstanding"), &Value::Bool(false), "{edited:?}");
    client.send("QUIT");
    handle.shutdown();
}
