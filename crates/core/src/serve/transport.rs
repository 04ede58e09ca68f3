//! Transports for the serving daemon: stdio, TCP, and Unix sockets.
//!
//! stdio is **sequential** — requests are answered in arrival order, one
//! at a time — which makes it deterministic and therefore what the CI
//! smoke test drives (a cold tune followed by a warm one must produce
//! exactly one miss then one hit, never a coalesced pair). The socket
//! transports are thread-per-connection: that is where concurrent
//! identical requests actually overlap and coalesce.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;

use crate::error::BarracudaError;

use super::Daemon;

/// Where the daemon listens, parsed from `--listen`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Listen {
    /// Requests on stdin, responses on stdout (sequential).
    Stdio,
    /// TCP socket, e.g. `tcp:127.0.0.1:7070`.
    Tcp(String),
    /// Unix-domain socket at a filesystem path.
    Unix(PathBuf),
}

impl Listen {
    /// Parse a `--listen` spec: `stdio`, `tcp:HOST:PORT`, `unix:PATH`.
    pub fn parse(spec: &str) -> Result<Listen, BarracudaError> {
        if spec == "stdio" {
            return Ok(Listen::Stdio);
        }
        if let Some(addr) = spec.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err(BarracudaError::Serve {
                    detail: "empty tcp address in --listen (use tcp:HOST:PORT)".to_string(),
                });
            }
            return Ok(Listen::Tcp(addr.to_string()));
        }
        if let Some(path) = spec.strip_prefix("unix:") {
            if path.is_empty() {
                return Err(BarracudaError::Serve {
                    detail: "empty unix path in --listen (use unix:PATH)".to_string(),
                });
            }
            return Ok(Listen::Unix(PathBuf::from(path)));
        }
        Err(BarracudaError::Serve {
            detail: format!("unknown --listen spec \"{spec}\" (stdio, tcp:HOST:PORT, unix:PATH)"),
        })
    }
}

/// Run the daemon over the given transport until shutdown (or EOF on
/// stdio). Prints the final metrics snapshot to stderr on the way out.
pub fn run(daemon: Arc<Daemon>, listen: &Listen) -> Result<(), BarracudaError> {
    match listen {
        Listen::Stdio => serve_stdio(&daemon),
        Listen::Tcp(addr) => serve_tcp(daemon, addr),
        Listen::Unix(path) => serve_unix(daemon, path),
    }
}

/// Sequential stdio loop: one request line in, one response line out,
/// flushed per response. Blank lines are ignored; EOF is a clean stop.
pub fn serve_stdio(daemon: &Daemon) -> Result<(), BarracudaError> {
    eprintln!("serve: ready (stdio)");
    let stdin = std::io::stdin();
    let mut out = std::io::stdout().lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| BarracudaError::Serve {
            detail: format!("stdin read failed: {e}"),
        })?;
        if line.trim().is_empty() {
            continue;
        }
        let outcome = daemon.handle_line(&line);
        if outcome.drop_connection {
            // Chaos: swallow the response line (stdio has no connection
            // to sever) — the work still happened and was persisted.
            eprintln!("serve: chaos dropped a response (stdio)");
        } else {
            writeln!(out, "{}", outcome.response).map_err(write_err)?;
            out.flush().map_err(write_err)?;
        }
        if outcome.shutdown {
            break;
        }
    }
    eprintln!("{}", daemon.snapshot());
    Ok(())
}

fn write_err(e: std::io::Error) -> BarracudaError {
    BarracudaError::Serve {
        detail: format!("response write failed: {e}"),
    }
}

/// Thread-per-connection loop over any accept-able listener. `wake` is
/// called after shutdown to unblock the (otherwise parked) acceptor by
/// connecting to ourselves.
fn serve_accept_loop<L, S>(
    daemon: Arc<Daemon>,
    accept: impl Fn(&L) -> std::io::Result<S>,
    listener: L,
    wake: impl Fn() + Send + Sync + 'static,
) -> Result<(), BarracudaError>
where
    S: std::io::Read + Write + Send + 'static,
{
    let wake = Arc::new(wake);
    let mut workers = Vec::new();
    while !daemon.is_shutdown() {
        let stream = match accept(&listener) {
            Ok(s) => s,
            Err(e) => {
                if daemon.is_shutdown() {
                    break;
                }
                eprintln!("serve: accept failed: {e}");
                continue;
            }
        };
        let daemon = Arc::clone(&daemon);
        let wake = Arc::clone(&wake);
        workers.push(std::thread::spawn(move || {
            serve_connection(&daemon, stream);
            if daemon.is_shutdown() {
                wake();
            }
        }));
    }
    for w in workers {
        let _ = w.join();
    }
    eprintln!("{}", daemon.snapshot());
    Ok(())
}

/// One connection: lines in, lines out, until EOF or shutdown.
fn serve_connection<S: std::io::Read + Write>(daemon: &Daemon, stream: S) {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        let outcome = daemon.handle_line(line.trim_end());
        if outcome.drop_connection {
            // Chaos: sever the connection instead of writing the
            // response. The request was fully processed and published;
            // only the delivery is lost.
            return;
        }
        let stream = reader.get_mut();
        if writeln!(stream, "{}", outcome.response)
            .and_then(|()| stream.flush())
            .is_err()
        {
            return;
        }
        if outcome.shutdown {
            return;
        }
    }
}

fn serve_tcp(daemon: Arc<Daemon>, addr: &str) -> Result<(), BarracudaError> {
    let listener = TcpListener::bind(addr).map_err(|e| BarracudaError::Serve {
        detail: format!("cannot bind tcp {addr}: {e}"),
    })?;
    serve_tcp_on(daemon, listener)
}

/// Serve on an already-bound TCP listener. Tests bind port 0 themselves
/// to learn the ephemeral port before handing the listener over.
pub fn serve_tcp_on(daemon: Arc<Daemon>, listener: TcpListener) -> Result<(), BarracudaError> {
    let local = listener.local_addr().map_err(|e| BarracudaError::Serve {
        detail: format!("cannot resolve bound address: {e}"),
    })?;
    eprintln!("serve: listening on tcp:{local}");
    serve_accept_loop(
        daemon,
        |l: &TcpListener| l.accept().map(|(s, _)| s),
        listener,
        move || {
            let _ = TcpStream::connect(local);
        },
    )
}

fn serve_unix(daemon: Arc<Daemon>, path: &PathBuf) -> Result<(), BarracudaError> {
    // A stale socket file from a previous run refuses the bind; remove
    // it (a live daemon would still hold the file open, but there is no
    // portable liveness probe — last writer wins, as with pid files).
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path).map_err(|e| BarracudaError::Serve {
        detail: format!("cannot bind unix socket {}: {e}", path.display()),
    })?;
    eprintln!("serve: listening on unix:{}", path.display());
    let wake_path = path.clone();
    let result = serve_accept_loop(
        daemon,
        |l: &UnixListener| l.accept().map(|(s, _)| s),
        listener,
        move || {
            let _ = UnixStream::connect(&wake_path);
        },
    );
    let _ = std::fs::remove_file(path);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_specs_parse() {
        assert_eq!(Listen::parse("stdio").unwrap(), Listen::Stdio);
        assert_eq!(
            Listen::parse("tcp:127.0.0.1:7070").unwrap(),
            Listen::Tcp("127.0.0.1:7070".to_string())
        );
        assert_eq!(
            Listen::parse("unix:/tmp/b.sock").unwrap(),
            Listen::Unix(PathBuf::from("/tmp/b.sock"))
        );
        for bad in ["", "tcp:", "unix:", "udp:1.2.3.4:5"] {
            let err = Listen::parse(bad).unwrap_err();
            assert_eq!(err.stage(), "serve", "spec {bad:?}");
        }
    }
}
