//! The socket layer: a `std::net` TCP daemon and line-protocol client.
//!
//! Deliberately thin: every received line goes straight through
//! [`Engine::submit_line`] — the same entry point the deterministic
//! replay drives — and the framed response (terminated by a lone `.`)
//! is written back verbatim. The daemon serves one connection at a
//! time (admissions mutate one engine; parallelism lives inside the
//! mapper via `noc-par`, not across requests) and returns from
//! [`Server::run`] once a `shutdown` command is applied.
//!
//! With a journal ([`Server::bind_with_journal`]) the daemon records
//! every request line *before* applying it and rebuilds its engine
//! from the journal on startup — see [`crate::journal`].
//!
//! The client side is hardened against a hung or flaky daemon:
//! [`Client::connect_to`] bounds the connect, [`Client::set_read_timeout`]
//! bounds each response read, and [`request`] wraps both in a bounded
//! retry loop with deterministic backoff.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::engine::{Engine, EngineConfig};
use crate::journal::{recover, Journal};
use crate::protocol::TERMINATOR;

/// The `nocd` daemon: a bound listener plus the admission engine.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    engine: Engine,
    journal: Option<Journal>,
}

impl Server {
    /// Binds to `127.0.0.1:port` (`0` = OS-assigned; read it back with
    /// [`Self::port`]).
    ///
    /// # Errors
    ///
    /// Bind failures, or an invalid engine configuration (reported as
    /// [`std::io::ErrorKind::InvalidInput`]).
    pub fn bind(cfg: EngineConfig, port: u16) -> std::io::Result<Server> {
        let engine = Engine::new(cfg)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        Ok(Server {
            listener,
            engine,
            journal: None,
        })
    }

    /// Binds like [`Self::bind`], but first rebuilds the engine from
    /// the journal at `journal_path` (created if absent) and records
    /// every subsequent request line there before applying it.
    ///
    /// # Errors
    ///
    /// As [`Self::bind`], plus journal open/replay failures.
    pub fn bind_with_journal(
        cfg: EngineConfig,
        port: u16,
        journal_path: impl AsRef<std::path::Path>,
    ) -> std::io::Result<Server> {
        let engine = recover(cfg, &journal_path)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let journal = Journal::open(&journal_path)?;
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        Ok(Server {
            listener,
            engine,
            journal: Some(journal),
        })
    }

    /// The bound port.
    ///
    /// # Errors
    ///
    /// As [`TcpListener::local_addr`].
    pub fn port(&self) -> std::io::Result<u16> {
        Ok(self.listener.local_addr()?.port())
    }

    /// Serves connections until a `shutdown` command is applied. Each
    /// request line is answered with its full framed response; a client
    /// disconnect just moves on to the next `accept`.
    ///
    /// # Errors
    ///
    /// Fatal listener failures (per-connection I/O errors only drop
    /// that connection).
    pub fn run(mut self) -> std::io::Result<()> {
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.serve_connection(stream).is_err() {
                continue;
            }
            if self.engine.is_shutdown() {
                return Ok(());
            }
        }
    }

    fn serve_connection(&mut self, stream: TcpStream) -> std::io::Result<()> {
        let mut writer = stream.try_clone()?;
        let reader = BufReader::new(stream);
        for line in reader.lines() {
            let line = line?;
            // Journal before applying: a request is durable before it
            // can mutate state.
            if let Some(journal) = &mut self.journal {
                journal.record(&line)?;
            }
            let response = self.engine.submit_line(&line);
            writer.write_all(response.as_bytes())?;
            writer.flush()?;
            if self.engine.is_shutdown() {
                break;
            }
        }
        Ok(())
    }
}

/// A blocking line-protocol client.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a running daemon.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        Client::from_stream(TcpStream::connect(addr)?)
    }

    /// Connects with a bound on the connect itself (`None` = blocking)
    /// and on every subsequent response read.
    ///
    /// # Errors
    ///
    /// Resolution and connection failures, including
    /// [`std::io::ErrorKind::TimedOut`] when the bound is exceeded.
    pub fn connect_to(
        addr: impl ToSocketAddrs,
        timeout: Option<Duration>,
    ) -> std::io::Result<Client> {
        let Some(timeout) = timeout else {
            return Client::connect(addr);
        };
        let mut last: Option<std::io::Error> = None;
        for resolved in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&resolved, timeout) {
                Ok(stream) => {
                    let mut client = Client::from_stream(stream)?;
                    client.set_read_timeout(Some(timeout))?;
                    return Ok(client);
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            )
        }))
    }

    fn from_stream(writer: TcpStream) -> std::io::Result<Client> {
        // Each request is one small write answered before the next is
        // sent; Nagle's algorithm would only delay it.
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { writer, reader })
    }

    /// Bounds every subsequent response read (`None` = blocking). A
    /// read that exceeds the bound fails with
    /// [`std::io::ErrorKind::WouldBlock`] / `TimedOut`.
    ///
    /// # Errors
    ///
    /// As [`TcpStream::set_read_timeout`].
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.writer.set_read_timeout(timeout)
    }

    /// Sends one request line, in a single write, and reads the full
    /// framed response (including the `.` terminator line), exactly as
    /// the engine produced it.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`std::io::ErrorKind::UnexpectedEof`] when the
    /// daemon closes before the terminator.
    pub fn send(&mut self, line: &str) -> std::io::Result<String> {
        let mut request = String::with_capacity(line.len() + 1);
        request.push_str(line);
        request.push('\n');
        self.writer.write_all(request.as_bytes())?;
        let mut response = String::new();
        loop {
            let mut chunk = String::new();
            if self.reader.read_line(&mut chunk)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed before response terminator",
                ));
            }
            let done = chunk.trim_end_matches('\n') == TERMINATOR;
            response.push_str(&chunk);
            if done {
                return Ok(response);
            }
        }
    }
}

/// Retry policy for [`request`]: a per-attempt timeout (connect and
/// read) plus bounded retries with deterministic linear backoff
/// (`backoff × attempt` before attempt *n+1* — no jitter, so a retry
/// schedule is reproducible).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-attempt connect/read bound; `None` = block forever.
    pub timeout: Option<Duration>,
    /// Retries after the first attempt (`0` = single attempt).
    pub retries: u32,
    /// Base backoff between attempts.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    /// One attempt, no timeout — the pre-hardening behavior.
    fn default() -> Self {
        RetryPolicy {
            timeout: None,
            retries: 0,
            backoff: Duration::from_millis(50),
        }
    }
}

/// Sends one request line over a fresh connection under `policy`,
/// retrying failed attempts (connect errors, timeouts, truncated
/// responses) up to `policy.retries` times.
///
/// # Errors
///
/// The last attempt's error once every attempt failed.
pub fn request(addr: SocketAddr, line: &str, policy: &RetryPolicy) -> std::io::Result<String> {
    let mut last: Option<std::io::Error> = None;
    for attempt in 0..=policy.retries {
        if attempt > 0 {
            std::thread::sleep(policy.backoff * attempt);
        }
        match Client::connect_to(addr, policy.timeout).and_then(|mut c| c.send(line)) {
            Ok(response) => return Ok(response),
            Err(e) => last = Some(e),
        }
    }
    Err(last.expect("at least one attempt runs"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A listener that accepts connections and then never replies —
    /// the failure mode the read timeout exists for.
    fn silent_server() -> (SocketAddr, mpsc::Sender<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let (tx, rx) = mpsc::channel::<()>();
        std::thread::spawn(move || {
            let mut held = Vec::new();
            loop {
                if let Ok((stream, _)) = listener.accept() {
                    held.push(stream);
                }
                if rx.try_recv().is_ok() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        (addr, tx)
    }

    #[test]
    fn read_timeout_bounds_a_silent_daemon() {
        let (addr, stop) = silent_server();
        let policy = RetryPolicy {
            timeout: Some(Duration::from_millis(60)),
            retries: 2,
            backoff: Duration::from_millis(5),
        };
        let started = std::time::Instant::now();
        let err = request(addr, "stats", &policy).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "expected a timeout, got {err:?}"
        );
        // Three bounded attempts, not a hang.
        assert!(started.elapsed() < Duration::from_secs(5));
        let _ = stop.send(());
    }

    #[test]
    fn connect_timeout_rejects_an_unbound_port() {
        // Bind-then-drop to get a port nothing listens on.
        let addr = {
            let l = TcpListener::bind(("127.0.0.1", 0)).unwrap();
            l.local_addr().unwrap()
        };
        let policy = RetryPolicy {
            timeout: Some(Duration::from_millis(60)),
            retries: 1,
            backoff: Duration::from_millis(1),
        };
        assert!(request(addr, "stats", &policy).is_err());
    }
}
