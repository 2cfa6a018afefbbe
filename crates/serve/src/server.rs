//! TCP front end: one connection = one session, line in, JSON line out.
//!
//! Every reply leaves in a single write of its JSON line with the `\n`
//! already appended, on a socket with `TCP_NODELAY` set. A reply split
//! over two writes would hold its second segment back (Nagle's
//! algorithm) until the client's delayed ACK of the first, some 40 ms
//! later on Linux.

use crate::manager::SessionManager;
use crate::proto::{
    parse_request, render, CancelResponse, ConnectResponse, EditResponse, ErrorResponse,
    GoResponse, Request, StatsResponse,
};
use crate::{GovernorConfig, SessionId};
use parking_lot::Mutex;
use specdb_core::SpeculatorConfig;
use specdb_exec::Database;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The longest request line the server reads, newline excluded. A
/// longer line gets one error reply; its bytes are discarded as they
/// arrive, never buffered, and the connection stays open.
pub const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks a free port (the default —
    /// `127.0.0.1:0`).
    pub addr: String,
    /// Speculator configuration handed to every session.
    pub speculator: SpeculatorConfig,
    /// Fleet-governor policy.
    pub governor: GovernorConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            speculator: SpeculatorConfig::default(),
            governor: GovernorConfig::default(),
        }
    }
}

/// A running server; dropping the handle does **not** stop it — call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: SocketAddr,
    manager: Arc<SessionManager>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Connections>>,
}

/// The open connections, each with a clone of its stream (so shutdown
/// can close it) and its handler thread.
#[derive(Default)]
struct Connections {
    next: u64,
    open: BTreeMap<u64, (TcpStream, JoinHandle<()>)>,
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The session manager behind the wire protocol.
    pub fn manager(&self) -> &Arc<SessionManager> {
        &self.manager
    }

    /// Stop accepting connections, close every open connection, and
    /// join the accept thread and every handler thread. When it
    /// returns, every session has been disconnected and its leases
    /// released; a client still connected reads EOF. A request already
    /// executing finishes first, and its reply is discarded.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(): wake it with a connection
        // of our own. Should that fail, leave the thread rather than
        // hang on it.
        if let (Ok(_), Some(h)) = (TcpStream::connect(self.addr), self.accept.take()) {
            let _ = h.join();
        }
        let open = std::mem::take(&mut self.connections.lock().open);
        for (stream, _) in open.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        for (_, handler) in open.into_values() {
            let _ = handler.join();
        }
    }
}

/// Serve `db` over TCP. Binds immediately and returns a handle with the
/// chosen port; sessions run until their client quits or the server
/// shuts down.
pub fn serve(db: Database, config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let manager = Arc::new(SessionManager::new(db, config.speculator, config.governor));
    let stop = Arc::new(AtomicBool::new(false));
    let connections = Arc::new(Mutex::new(Connections::default()));
    let accept = {
        let manager = Arc::clone(&manager);
        let stop = Arc::clone(&stop);
        let connections = Arc::clone(&connections);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let Ok(clone) = stream.try_clone() else { continue };
                // Registered under the lock the handler takes to
                // deregister, so its entry never outlives it.
                let mut conns = connections.lock();
                let id = conns.next;
                conns.next += 1;
                let handler = {
                    let manager = Arc::clone(&manager);
                    let connections = Arc::clone(&connections);
                    std::thread::spawn(move || {
                        handle_connection(&stream, &manager);
                        connections.lock().open.remove(&id);
                    })
                };
                conns.open.insert(id, (clone, handler));
            }
        })
    };
    Ok(ServerHandle { addr, manager, stop, accept: Some(accept), connections })
}

/// One request line as read off the wire.
enum Line {
    /// The client closed the connection (or it broke).
    Closed,
    /// A line of at most [`MAX_REQUEST_LINE`] bytes, in the caller's
    /// buffer without its `\n`.
    Request,
    /// A longer line; its bytes were discarded as they arrived.
    TooLong,
}

/// Read the next line into `line`. A last line without its `\n`
/// still counts, as with [`BufRead::lines`].
fn read_line(reader: &mut impl BufRead, line: &mut Vec<u8>) -> Line {
    line.clear();
    let mut too_long = false;
    loop {
        let buf = match reader.fill_buf() {
            Ok(buf) => buf,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Line::Closed,
        };
        let eof = buf.is_empty();
        let (end, found) = match buf.iter().position(|&b| b == b'\n') {
            Some(i) => (i, true),
            None => (buf.len(), false),
        };
        if too_long || line.len() + end > MAX_REQUEST_LINE {
            too_long = true;
            line.clear();
        } else {
            line.extend_from_slice(&buf[..end]);
        }
        reader.consume(end + usize::from(found));
        if eof && line.is_empty() && !too_long {
            return Line::Closed;
        }
        if found || eof {
            return if too_long { Line::TooLong } else { Line::Request };
        }
    }
}

fn handle_connection(stream: &TcpStream, manager: &SessionManager) {
    // Each reply is one write of a whole line, so nothing is gained by
    // Nagle's algorithm holding a segment back for an ACK.
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    let mut writer = stream;
    let mut session_id: Option<SessionId> = None;
    loop {
        let mut quit = false;
        let mut reply = match read_line(&mut reader, &mut line) {
            Line::Closed => break,
            Line::TooLong => {
                ErrorResponse::line(format!("request line longer than {MAX_REQUEST_LINE} bytes"))
            }
            Line::Request => match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => continue,
                Ok(text) => {
                    let request = parse_request(text);
                    quit = matches!(request, Ok(Request::Quit));
                    dispatch(request, manager, &mut session_id)
                }
                Err(_) => ErrorResponse::line("request is not UTF-8"),
            },
        };
        reply.push('\n');
        if writer.write_all(reply.as_bytes()).is_err() || quit {
            break;
        }
    }
    if let Some(id) = session_id {
        manager.disconnect(id);
    }
}

fn dispatch(
    request: Result<Request, String>,
    manager: &SessionManager,
    session_id: &mut Option<SessionId>,
) -> String {
    let request = match request {
        Ok(r) => r,
        Err(e) => return ErrorResponse::line(e),
    };
    match request {
        Request::Connect { name } => {
            if session_id.is_some() {
                return ErrorResponse::line("already connected");
            }
            let name = name.unwrap_or_else(|| "anon".into());
            let (id, _) = manager.connect(&name);
            *session_id = Some(id);
            render(&ConnectResponse { ok: true, session: id, name })
        }
        Request::Quit => render(&CancelResponse { ok: true, cancelled: false }),
        other => {
            let Some(id) = *session_id else {
                return ErrorResponse::line("not connected (send CONNECT first)");
            };
            let Some(session) = manager.session(id) else {
                return ErrorResponse::line("session closed");
            };
            let mut session = session.lock();
            match other {
                Request::Edit(op) => {
                    session.edit(op);
                    let g = session.partial();
                    render(&EditResponse {
                        ok: true,
                        relations: g.relations().count() as u64,
                        selections: g.selections().count() as u64,
                        joins: g.join_count() as u64,
                        outstanding: session.build_in_flight(),
                    })
                }
                Request::Go => match session.go() {
                    Ok(out) => render(&GoResponse {
                        ok: true,
                        rows: out.output.row_count,
                        elapsed_secs: out.output.elapsed.as_secs_f64(),
                        used_views: out.output.used_views.clone(),
                        shared_hit: out.shared_hit,
                    }),
                    Err(e) => ErrorResponse::line(format!("execution failed: {e}")),
                },
                Request::Cancel => {
                    let cancelled = session.cancel();
                    render(&CancelResponse { ok: true, cancelled })
                }
                Request::Stats => {
                    let fleet = manager.fleet_stats();
                    render(&StatsResponse {
                        ok: true,
                        session: session.stats(),
                        sessions: fleet.sessions,
                        governor: fleet.governor.into(),
                        cache: fleet.cache.into(),
                    })
                }
                Request::Connect { .. } | Request::Quit => unreachable!("handled above"),
            }
        }
    }
}
