//! Two concurrent wire-protocol sessions sharing one speculative
//! artifact — the serving layer's headline demo.
//!
//! The example boots `specdb::serve::serve()` on a loopback port, then
//! scripts two line-protocol clients against it:
//!
//! 1. **alice** formulates `lineitem WHERE l_quantity <= 2` edit by
//!    edit. During her think time the speculator materializes the
//!    predicate on a background build thread (admitted by the fleet
//!    governor, installed into the shared artifact cache).
//! 2. **bob** converges on the same question. His GO never builds
//!    anything: the planner rewrites his query over alice's artifact
//!    and the response reports `"shared_hit": true`.
//!
//! Run it with:
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```
//!
//! The full protocol grammar is documented in `docs/serving.md`.

use serde_json::{parse, Value};
use specdb::serve::{serve, ServeConfig};
use specdb::sim::{build_base_db, DatasetSpec};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A minimal line-protocol client: one request line out, one JSON
/// response line back. Each request leaves in one write on a
/// `TCP_NODELAY` socket, so it is not held back waiting for an ACK.
struct Client {
    name: &'static str,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(name: &'static str, addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to serve()");
        stream.set_nodelay(true).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        let mut c = Client { name, writer: stream, reader };
        c.send(&format!("CONNECT {name}"));
        c
    }

    fn send(&mut self, line: &str) -> Value {
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("write request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read response");
        println!("  {:>5} > {line}", self.name);
        println!("  {:>5} < {}", self.name, reply.trim());
        let v = parse(reply.trim()).unwrap_or_else(|e| panic!("bad JSON for {line:?}: {e}"));
        assert_eq!(field(&v, "ok"), &Value::Bool(true), "{line} failed: {reply}");
        v
    }

    /// Quietly poll STATS until the shared cache holds a ready artifact.
    fn wait_for_artifact(&mut self) {
        for _ in 0..500 {
            let stats = self.send("STATS");
            if as_u64(field(field(&stats, "cache"), "ready")) >= 1 {
                return;
            }
            // A benign no-op edit gives the speculator another decision
            // point while the background build finishes.
            self.send("EDIT ADD_RELATION lineitem");
            std::thread::sleep(Duration::from_millis(20));
        }
        panic!("speculative build never installed");
    }
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

fn as_f64(v: &Value) -> f64 {
    match v {
        Value::F64(f) => *f,
        Value::U64(u) => *u as f64,
        Value::I64(i) => *i as f64,
        other => panic!("expected number, got {other:?}"),
    }
}

fn main() {
    println!("== specdb serve demo: two sessions, one speculative artifact ==\n");
    println!("building the base database...");
    let db = build_base_db(&DatasetSpec::tiny()).expect("base db");
    let handle = serve(db, ServeConfig::default()).expect("bind loopback listener");
    let addr = handle.addr();
    println!("serving on {addr}\n");

    println!("-- alice formulates the query; the speculator works in her think time --");
    let mut alice = Client::connect("alice", addr);
    alice.send("EDIT ADD_RELATION lineitem");
    alice.send("EDIT ADD_SELECTION lineitem l_quantity <= 2");
    alice.wait_for_artifact();
    let go1 = alice.send("GO");
    let rows = as_u64(field(&go1, "rows"));
    assert!(rows > 0, "the predicate must match rows");
    assert_eq!(field(&go1, "shared_hit"), &Value::Bool(false));
    println!("\nalice's GO answered {rows} rows from her own speculative build.\n");

    println!("-- bob asks the same question; his GO reuses alice's artifact --");
    let mut bob = Client::connect("bob", addr);
    bob.send("EDIT ADD_RELATION lineitem");
    bob.send("EDIT ADD_SELECTION lineitem l_quantity <= 2");
    let go2 = bob.send("GO");
    assert_eq!(as_u64(field(&go2, "rows")), rows, "same query, same answer");
    assert_eq!(
        field(&go2, "shared_hit"),
        &Value::Bool(true),
        "bob's plan must read alice's artifact"
    );
    println!("\nbob's GO answered {rows} rows as a cross-session shared hit.\n");

    let stats = bob.send("STATS");
    let cache = field(&stats, "cache");
    println!(
        "\nfleet: {} sessions, {} shared hit(s), cross-session reuse {:.0}%",
        as_u64(field(&stats, "sessions")),
        as_u64(field(cache, "shared_hits")),
        as_f64(field(cache, "cross_session_reuse")) * 100.0,
    );

    bob.send("QUIT");
    alice.send("QUIT");
    handle.shutdown();
    println!("\ndemo complete: the second session answered without building anything.");
}
