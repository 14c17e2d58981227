//! Driving a `gaps serve` daemon: spawn it, time its start-up, open
//! client connections, read `STATS`, and drain it.

use crate::clock::{now, secs_since, Duration};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::Barrier;

/// How long a client waits for any single reply before counting it as
/// lost.
pub const REPLY_DEADLINE: Duration = Duration::from_secs(10);

/// How long a drained daemon may take to exit before it is killed.
const EXIT_DEADLINE: Duration = Duration::from_secs(30);

/// Reconnect rounds before set-up gives up on a connection.
const MAX_CONNECT_ROUNDS: usize = 50;

/// A running `gaps serve --threads 2` on an ephemeral loopback port.
/// Dropping it kills and reaps the process if it is still running.
pub struct Daemon {
    child: Option<Child>,
    stderr: BufReader<ChildStderr>,
    /// `host:port` from the daemon's `listening on` banner.
    pub addr: String,
    /// Process id, for `/proc` reads.
    pub pid: u32,
}

impl Daemon {
    /// Start the daemon and wait for its first `PONG`; returns it with
    /// the elapsed set-up time in seconds.
    pub fn start(gaps: &Path) -> Result<(Daemon, f64), String> {
        let started = now();
        let mut child = Command::new(gaps)
            .args(["serve", "--listen", "127.0.0.1:0", "--threads"])
            .arg(crate::inputs::THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", gaps.display()))?;
        let pid = child.id();
        let stderr = child.stderr.take().expect("stderr is piped");
        let mut daemon = Daemon {
            child: Some(child),
            stderr: BufReader::new(stderr),
            addr: String::new(),
            pid,
        };
        let mut banner = String::new();
        daemon
            .stderr
            .read_line(&mut banner)
            .map_err(|e| format!("cannot read the daemon banner: {e}"))?;
        daemon.addr = banner
            .trim()
            .strip_prefix("listening on ")
            .ok_or_else(|| format!("unexpected daemon banner {banner:?}"))?
            .to_string();
        let mut conn = Conn::open(&daemon.addr)?;
        conn.ping()?;
        Ok((daemon, secs_since(started)))
    }

    /// Ask the daemon to drain over `conn` and wait for it to exit.
    pub fn drain(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.send(b"DRAIN\n")?;
        let reply = conn.read_reply()?;
        if reply != "DRAINING" {
            return Err(format!("DRAIN answered {reply:?}"));
        }
        self.wait_exit()
    }

    fn wait_exit(&mut self) -> Result<(), String> {
        let Some(mut child) = self.child.take() else {
            return Ok(());
        };
        let deadline = now() + EXIT_DEADLINE;
        loop {
            match child.try_wait() {
                Ok(Some(status)) => {
                    let mut rest = String::new();
                    let _ = self.stderr.read_to_string(&mut rest);
                    return if status.success() {
                        Ok(())
                    } else {
                        Err(format!("daemon exited with {status}: {rest}"))
                    };
                }
                Ok(None) if now() < deadline => std::thread::sleep(Duration::from_millis(5)),
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit after DRAIN".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Start and drain the daemon `reps` times; returns each set-up time.
pub fn setup_times(gaps: &Path, reps: usize) -> Result<Vec<f64>, String> {
    (0..reps)
        .map(|_| {
            let (daemon, secs) = Daemon::start(gaps)?;
            let mut conn = Conn::open(&daemon.addr)?;
            daemon.drain(&mut conn)?;
            Ok(secs)
        })
        .collect()
}

/// One client connection: a buffered read half and a write half.
pub struct Conn {
    /// Buffered read half.
    pub reader: BufReader<TcpStream>,
    /// Write half (same socket).
    pub writer: TcpStream,
}

impl Conn {
    /// Connect with `TCP_NODELAY` on the client side, so any Nagle
    /// delay measured is the daemon's.
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(REPLY_DEADLINE)))
            .map_err(|e| format!("socket options: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone socket: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Write raw bytes.
    pub fn send(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.writer
            .write_all(bytes)
            .map_err(|e| format!("write: {e}"))
    }

    /// Read one reply line (without its newline). EOF is an error.
    pub fn read_reply(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    /// `PING` → `PONG`.
    pub fn ping(&mut self) -> Result<(), String> {
        self.send(b"PING\n")?;
        match self.read_reply()?.as_str() {
            "PONG" => Ok(()),
            other => Err(format!("PING answered {other:?}")),
        }
    }

    /// Fetch and parse a `STATS` block into `key → value`.
    pub fn stats(&mut self) -> Result<BTreeMap<String, String>, String> {
        self.send(b"STATS\n")?;
        let mut rows = BTreeMap::new();
        loop {
            let line = self.read_reply()?;
            if line == "STATS end" {
                return Ok(rows);
            }
            if let Some(row) = line.strip_prefix("stat ") {
                if let Some((k, v)) = row.split_once(' ') {
                    rows.insert(k.to_string(), v.to_string());
                }
            }
        }
    }
}

/// Open `count` connections at the same instant, as independent clients
/// do, and confirm each with a `PING`. A connection that fails before
/// its first reply is opened again; the number of such drops is
/// returned beside the connections.
pub fn open_concurrently(addr: &str, count: usize) -> Result<(Vec<Conn>, u64), String> {
    let mut conns = Vec::with_capacity(count);
    let mut dropped = 0u64;
    for _ in 0..MAX_CONNECT_ROUNDS {
        let want = count - conns.len();
        if want == 0 {
            return Ok((conns, dropped));
        }
        let barrier = Barrier::new(want);
        let attempts: Vec<Result<Conn, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..want)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let mut conn = Conn::open(addr)?;
                        conn.ping()?;
                        Ok(conn)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("connect thread does not panic"))
                .collect()
        });
        for attempt in attempts {
            match attempt {
                Ok(conn) => conns.push(conn),
                Err(_) => dropped += 1,
            }
        }
    }
    Err(format!(
        "could not open {count} connections in {MAX_CONNECT_ROUNDS} rounds"
    ))
}

/// A numeric `STATS` row (0 when absent).
pub fn stat_f64(rows: &BTreeMap<String, String>, key: &str) -> f64 {
    rows.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
}
