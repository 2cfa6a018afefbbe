//! The load generator's side of the `specdb-serve` wire protocol:
//! rendering trace edits as request lines, checking that a line parses
//! back to the edit it came from, and a blocking client connection.

use specdb_query::{CompareOp, EditOp, Selection};
use specdb_serve::{parse_request, Request};
use specdb_storage::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A reply slower than this counts as a timeout failure.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

fn op_token(op: CompareOp) -> &'static str {
    match op {
        CompareOp::Eq => "=",
        CompareOp::Ne => "!=",
        CompareOp::Lt => "<",
        CompareOp::Le => "<=",
        CompareOp::Gt => ">",
        CompareOp::Ge => ">=",
    }
}

/// A constant as the grammar writes it: integers bare, strings quoted.
/// Floats and NULL have no form of their own in the grammar; they are
/// sent as their plain text, which the server reads as a string (or an
/// integer, for a whole float) — the round-trip check counts them.
fn value_token(v: &Value) -> String {
    match v {
        Value::Int(i) => i.to_string(),
        Value::Float(f) => f.to_string(),
        Value::Str(s) => format!("'{s}'"),
        Value::Null => "NULL".into(),
    }
}

fn selection_tokens(s: &Selection) -> String {
    format!("{} {} {} {}", s.rel, s.pred.column, op_token(s.pred.op), value_token(&s.pred.value))
}

/// Render one trace edit as a request line (without the newline), in
/// the grammar documented in `specdb_serve::proto`.
pub fn render(op: &EditOp) -> String {
    match op {
        EditOp::AddRelation(t) => format!("EDIT ADD_RELATION {t}"),
        EditOp::RemoveRelation(t) => format!("EDIT REMOVE_RELATION {t}"),
        EditOp::AddSelection(s) => format!("EDIT ADD_SELECTION {}", selection_tokens(s)),
        EditOp::RemoveSelection(s) => format!("EDIT REMOVE_SELECTION {}", selection_tokens(s)),
        // The grammar keeps table, column and operator and replaces
        // only the constant; an update that changes more than that
        // cannot be written and fails the round trip.
        EditOp::UpdateSelection { old, new } => {
            format!(
                "EDIT UPDATE_SELECTION {} {}",
                selection_tokens(old),
                value_token(&new.pred.value)
            )
        }
        EditOp::AddJoin(j) => format!("EDIT ADD_JOIN {} {} {} {}", j.left, j.lcol, j.right, j.rcol),
        EditOp::RemoveJoin(j) => {
            format!("EDIT REMOVE_JOIN {} {} {} {}", j.left, j.lcol, j.right, j.rcol)
        }
        EditOp::AddProjection(t, c) => format!("EDIT ADD_PROJECTION {t} {c}"),
        EditOp::RemoveProjection(t, c) => format!("EDIT REMOVE_PROJECTION {t} {c}"),
        EditOp::Go => "GO".into(),
    }
}

/// The request the server should parse from `render(op)`.
fn expected(op: &EditOp) -> Request {
    match op {
        EditOp::Go => Request::Go,
        other => Request::Edit(other.clone()),
    }
}

/// Whether the server's own parser reads `line` back as `op`.
pub fn round_trips(op: &EditOp, line: &str) -> bool {
    parse_request(line) == Ok(expected(op))
}

/// The edit the server applies for `line` (GO included), if it parses.
pub fn as_parsed(line: &str) -> Option<EditOp> {
    match parse_request(line) {
        Ok(Request::Edit(op)) => Some(op),
        Ok(Request::Go) => Some(EditOp::Go),
        _ => None,
    }
}

/// One client connection: one request line out, one JSON line back.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    /// Connect with `TCP_NODELAY` set, so the client adds no stall of
    /// its own to a request.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn { stream, reader, buf: String::new() })
    }

    /// Send `line` in a single write and read the reply line.
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.buf.clear();
        self.buf.push_str(line);
        self.buf.push('\n');
        self.stream.write_all(self.buf.as_bytes())?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply)
    }
}

/// The fields of a reply line the benchmark reads.
#[derive(Debug, Default, Clone)]
pub struct Reply {
    /// The server's `ok` flag.
    pub ok: bool,
    /// GO: result row count.
    pub rows: Option<u64>,
    /// GO: virtual execution time in seconds.
    pub elapsed_secs: Option<f64>,
    /// GO: materialized views the plan read.
    pub used_views: Vec<String>,
    /// STATS: the session's counters, by name.
    pub session: Vec<(String, u64)>,
}

fn as_u64(v: &serde_json::Value) -> Option<u64> {
    match v {
        serde_json::Value::U64(u) => Some(*u),
        serde_json::Value::I64(i) => u64::try_from(*i).ok(),
        _ => None,
    }
}

fn as_f64(v: &serde_json::Value) -> Option<f64> {
    match v {
        serde_json::Value::F64(f) => Some(*f),
        other => as_u64(other).map(|u| u as f64),
    }
}

/// Parse a reply line; `None` when it is not a JSON object.
pub fn parse_reply(line: &str) -> Option<Reply> {
    let value = serde_json::parse(line.trim()).ok()?;
    let fields = value.as_object()?;
    let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
    Some(Reply {
        ok: matches!(get("ok"), Some(serde_json::Value::Bool(true))),
        rows: get("rows").and_then(as_u64),
        elapsed_secs: get("elapsed_secs").and_then(as_f64),
        used_views: get("used_views")
            .and_then(|v| v.as_array())
            .map(|a| a.iter().filter_map(|v| v.as_str().map(str::to_string)).collect())
            .unwrap_or_default(),
        session: get("session")
            .and_then(|v| v.as_object())
            .map(|o| o.iter().filter_map(|(k, v)| as_u64(v).map(|u| (k.clone(), u))).collect())
            .unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use specdb_query::{Join, Predicate};

    fn sel(col: &str, op: CompareOp, v: impl Into<Value>) -> Selection {
        Selection::new("orders", Predicate::new(col, op, v))
    }

    #[test]
    fn every_non_float_edit_round_trips() {
        let ops = vec![
            EditOp::AddRelation("customer".into()),
            EditOp::RemoveRelation("customer".into()),
            EditOp::AddSelection(sel("o_orderdate", CompareOp::Ge, 8000i64)),
            EditOp::AddSelection(sel("o_orderdate", CompareOp::Le, -3i64)),
            EditOp::AddSelection(sel("o_comment", CompareOp::Ne, "FRANCE")),
            EditOp::AddSelection(sel("o_comment", CompareOp::Eq, "Brand#12")),
            EditOp::AddSelection(sel("o_comment", CompareOp::Eq, "42")),
            EditOp::AddSelection(sel("o_orderpriority", CompareOp::Lt, 3i64)),
            EditOp::RemoveSelection(sel("o_orderpriority", CompareOp::Gt, 1i64)),
            EditOp::UpdateSelection {
                old: sel("o_orderdate", CompareOp::Gt, 7700i64),
                new: sel("o_orderdate", CompareOp::Gt, 9100i64),
            },
            EditOp::AddJoin(Join::new("orders", "o_custkey", "customer", "c_custkey")),
            EditOp::RemoveJoin(Join::new("lineitem", "l_orderkey", "orders", "o_orderkey")),
            EditOp::AddProjection("orders".into(), "o_totalprice".into()),
            EditOp::RemoveProjection("orders".into(), "o_totalprice".into()),
            EditOp::Go,
        ];
        for op in ops {
            let line = render(&op);
            assert!(round_trips(&op, &line), "{op:?} rendered as {line:?}");
            assert_eq!(as_parsed(&line), Some(op));
        }
    }

    #[test]
    fn edits_the_grammar_cannot_carry_are_counted_not_hidden() {
        // A float constant reaches the server as a string.
        let op = EditOp::AddSelection(sel("o_totalprice", CompareOp::Gt, 1234.5));
        let line = render(&op);
        assert_eq!(line, "EDIT ADD_SELECTION orders o_totalprice > 1234.5");
        assert!(!round_trips(&op, &line));
        let parsed = as_parsed(&line).expect("the line is still valid grammar");
        assert_eq!(parsed, EditOp::AddSelection(sel("o_totalprice", CompareOp::Gt, "1234.5")));
        // An update that changes the operator keeps the old one.
        let op = EditOp::UpdateSelection {
            old: sel("o_orderdate", CompareOp::Gt, 7700i64),
            new: sel("o_orderdate", CompareOp::Lt, 9100i64),
        };
        assert!(!round_trips(&op, &render(&op)));
    }

    #[test]
    fn replies_parse() {
        let go = parse_reply(
            r#"{"ok":true,"rows":17,"elapsed_secs":0.25,"used_views":["v1"],"shared_hit":false}"#,
        )
        .unwrap();
        assert!(go.ok);
        assert_eq!(go.rows, Some(17));
        assert_eq!(go.elapsed_secs, Some(0.25));
        assert_eq!(go.used_views, vec!["v1".to_string()]);
        let stats = parse_reply(r#"{"ok":true,"session":{"issued":3,"completed":1}}"#).unwrap();
        assert_eq!(stats.session, vec![("issued".into(), 3), ("completed".into(), 1)]);
        assert!(!parse_reply(r#"{"ok":false,"error":"x"}"#).unwrap().ok);
        assert!(parse_reply("garbage").is_none());
    }
}
