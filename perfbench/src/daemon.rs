//! The `tamopt serve` process under test and the line-protocol client.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::Json;

/// A running `tamopt serve --listen 127.0.0.1:0 --threads 1`.
pub struct Daemon {
    child: Option<Child>,
    stdout: Option<BufReader<ChildStdout>>,
    pub addr: String,
    /// Spawn to the `{"listening": …}` line.
    pub setup: Duration,
}

/// The daemon's worker threads (`--threads`).
pub const DAEMON_THREADS: usize = 1;

impl Daemon {
    /// Spawns the daemon, its stderr going to `stderr_log`, and waits
    /// until it listens.
    pub fn start(bin: &Path, stderr_log: &Path) -> Result<Daemon, String> {
        let stderr =
            File::create(stderr_log).map_err(|e| format!("{}: {e}", stderr_log.display()))?;
        let start = Instant::now();
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0", "--threads"])
            .arg(DAEMON_THREADS.to_string())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut daemon = Daemon {
            child: Some(child),
            stdout: None,
            addr: String::new(),
            setup: Duration::ZERO,
        };
        loop {
            let mut line = String::new();
            let read = stdout.read_line(&mut line).map_err(|e| e.to_string())?;
            if read == 0 {
                return Err(format!(
                    "daemon exited before listening; see {}",
                    stderr_log.display()
                ));
            }
            if line.starts_with("{\"listening\"") {
                daemon.setup = start.elapsed();
                daemon.addr = Json::parse(line.trim_end())?
                    .get("listening")
                    .and_then(Json::as_str)
                    .ok_or("listening line without an address")?
                    .to_owned();
                break;
            }
        }
        daemon.stdout = Some(stdout);
        Ok(daemon)
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().expect("running").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or("no VmHWM in /proc status")?;
        Ok(kib / 1024.0)
    }

    /// Shuts the daemon down by closing its stdin, drains the final
    /// report and checks the exit status.
    pub fn stop(mut self) -> Result<(), String> {
        let mut child = self.child.take().expect("running");
        drop(child.stdin.take());
        let mut rest = String::new();
        let read = match self.stdout.take() {
            Some(mut stdout) => stdout.read_to_string(&mut rest).map(drop),
            None => Ok(()),
        };
        let status = child.wait().map_err(|e| e.to_string())?;
        read.map_err(|e| format!("daemon output: {e}"))?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
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

/// The resolution of blocking socket timeouts, with margin.
const COARSE_TIMER: Duration = Duration::from_millis(5);

/// Sleep between non-blocking reads close to a deadline.
const POLL_STEP: Duration = Duration::from_micros(100);

/// One client connection speaking the serve line protocol.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    /// The client id from the greeting.
    pub client: u64,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut conn = Conn {
            stream,
            buf: Vec::new(),
            client: 0,
        };
        let mut lines = Vec::new();
        conn.recv_until(Instant::now() + Duration::from_secs(10), &mut lines)
            .map_err(|e| e.to_string())?;
        let greeting = lines.first().ok_or("no greeting from the daemon")?;
        conn.client = Json::parse(greeting.1.trim_end())?
            .get("client")
            .and_then(Json::as_u64)
            .ok_or("greeting without a client id")?;
        Ok(conn)
    }

    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.stream.write_all(&bytes)
    }

    /// Waits until at least one line is complete or `deadline` passes,
    /// appending each complete line with its arrival time. Returns
    /// whether anything arrived; a closed connection is an error.
    pub fn recv_until(
        &mut self,
        deadline: Instant,
        out: &mut Vec<(Instant, String)>,
    ) -> io::Result<bool> {
        loop {
            if self.take_lines(Instant::now(), out) {
                return Ok(true);
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(false);
            }
            // Socket timeouts tick in scheduler jiffies (milliseconds),
            // so block only until shortly before the deadline and poll
            // the rest with fine-grained sleeps.
            let wait = deadline - now;
            let blocking = wait > COARSE_TIMER;
            if blocking {
                self.stream.set_read_timeout(Some(wait - COARSE_TIMER))?;
            }
            self.stream.set_nonblocking(!blocking)?;
            let mut chunk = [0u8; 16 * 1024];
            let read = self.stream.read(&mut chunk);
            if !blocking && matches!(&read, Err(e) if e.kind() == io::ErrorKind::WouldBlock) {
                std::thread::sleep(wait.min(POLL_STEP));
            }
            match read {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "daemon closed the connection",
                    ))
                }
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn take_lines(&mut self, at: Instant, out: &mut Vec<(Instant, String)>) -> bool {
        let mut found = false;
        while let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=end).collect();
            out.push((at, String::from_utf8_lossy(&line).into_owned()));
            found = true;
        }
        found
    }
}
