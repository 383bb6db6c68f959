//! Load generation against the daemon: a closed loop on one connection
//! and an open loop over two, one thread per connection.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use crate::daemon::Conn;
use crate::gen::{Action, Inputs, Op};
use crate::json::Json;

/// How long the load generator waits for outstanding replies after the
/// last send.
pub const DRAIN: Duration = Duration::from_secs(60);

/// One request sent to the daemon.
#[derive(Debug, Clone)]
pub struct Record {
    pub spec: usize,
    /// Whether a `cancel` for it followed at once.
    pub cancelled: bool,
    /// When it was due: the send time in the closed loop, the schedule
    /// slot in the open loop. Latency counts from here.
    pub due: Instant,
    /// Its outcome line and arrival time.
    pub reply: Option<(Instant, String)>,
}

impl Record {
    /// Milliseconds from due to reply.
    pub fn latency_ms(&self) -> Option<f64> {
        self.reply
            .as_ref()
            .map(|(at, _)| at.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }
}

/// A `stats` probe and its reply.
#[derive(Debug, Clone)]
pub struct Probe {
    pub client: u64,
    pub reply: Option<String>,
}

/// Everything one timed phase produced.
#[derive(Debug, Default)]
pub struct LoadLog {
    pub records: Vec<Record>,
    pub probes: Vec<Probe>,
    /// Open-loop lateness of every send, in milliseconds.
    pub late_ms: Vec<f64>,
    /// The timed phase's length: start to last reply.
    pub elapsed: Duration,
    /// Transport failures and unclaimed (error) replies.
    pub errors: Vec<String>,
}

impl LoadLog {
    fn absorb(&mut self, mut other: LoadLog) {
        self.records.append(&mut other.records);
        self.probes.append(&mut other.probes);
        self.late_ms.append(&mut other.late_ms);
        self.errors.append(&mut other.errors);
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

/// The reply's local request id, if it is an outcome line.
fn reply_id(text: &str) -> Option<u64> {
    Json::parse(text.trim_end())
        .ok()?
        .get("id")
        .and_then(Json::as_u64)
}

/// Sends each line after the previous one's reply on a connection that
/// has already submitted `offset` requests (ids are per connection).
pub fn closed_loop(conn: &mut Conn, lines: &[(usize, String)], offset: usize) -> LoadLog {
    let mut log = LoadLog::default();
    let start = Instant::now();
    let mut last = start;
    let mut got = Vec::new();
    for (i, (spec, line)) in lines.iter().enumerate() {
        let local = (offset + i) as u64;
        let due = Instant::now();
        log.records.push(Record {
            spec: *spec,
            cancelled: false,
            due,
            reply: None,
        });
        if let Err(e) = conn.send(line) {
            log.errors.push(format!("send: {e}"));
            break;
        }
        while log.errors.is_empty() && log.records[i].reply.is_none() {
            match conn.recv_until(due + DRAIN, &mut got) {
                Ok(true) => {}
                Ok(false) => log
                    .errors
                    .push(format!("no reply to `{line}` within {DRAIN:?}")),
                Err(e) => log.errors.push(format!("receive: {e}")),
            }
            for (at, text) in got.drain(..) {
                if reply_id(&text) == Some(local) {
                    last = at;
                    log.records[i].reply = Some((at, text));
                } else {
                    log.errors
                        .push(format!("unexpected reply: {}", text.trim_end()));
                }
            }
        }
        if !log.errors.is_empty() {
            break;
        }
    }
    log.elapsed = last - start;
    log
}

/// The cold-scan closed loop: whole rounds until `seconds` have passed,
/// so every run sends the same mix of shapes.
pub fn cold_rounds(conn: &mut Conn, inputs: &Inputs, seconds: f64) -> LoadLog {
    let start = Instant::now();
    let stop = start + Duration::from_secs_f64(seconds);
    let mut log = LoadLog::default();
    let mut sent = 0;
    for round in &inputs.rounds {
        if Instant::now() >= stop || !log.errors.is_empty() {
            break;
        }
        let lines: Vec<(usize, String)> = round
            .iter()
            .map(|&spec| (spec, inputs.specs[spec].line()))
            .collect();
        log.absorb(closed_loop(conn, &lines, sent));
        sent += lines.len();
    }
    log.elapsed = log
        .records
        .iter()
        .filter_map(|r| r.reply.as_ref().map(|(at, _)| *at - start))
        .max()
        .unwrap_or_default();
    log
}

/// Runs the open-loop schedule, one thread per connection; connection
/// `c` sends the ops with `op.conn == c`.
pub fn open_loop(conns: Vec<Conn>, inputs: &Inputs) -> LoadLog {
    let start = Instant::now() + Duration::from_millis(20);
    let logs: Vec<LoadLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(c, mut conn)| {
                let ops: Vec<Op> = inputs
                    .ops
                    .iter()
                    .filter(|op| op.conn == c)
                    .copied()
                    .collect();
                scope.spawn(move || open_conn(&mut conn, &ops, inputs, start))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut log = LoadLog::default();
    for part in logs {
        log.absorb(part);
    }
    log
}

fn open_conn(conn: &mut Conn, ops: &[Op], inputs: &Inputs, start: Instant) -> LoadLog {
    let mut log = LoadLog::default();
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let mut probes: VecDeque<usize> = VecDeque::new();
    let mut submitted = 0u64;
    let mut waiting = 0usize;
    let mut last = start;
    let mut next = 0;
    let mut drain_by = None;
    let mut got = Vec::new();
    let due_of = |op: &Op| start + Duration::from_secs_f64(op.due);
    while log.errors.is_empty() {
        let now = Instant::now();
        if let Some(op) = ops.get(next).filter(|op| due_of(op) <= now) {
            let due = due_of(op);
            log.late_ms.push((now - due).as_secs_f64() * 1e3);
            let sent = match op.action {
                Action::Stats => {
                    probes.push_back(log.probes.len());
                    log.probes.push(Probe {
                        client: conn.client,
                        reply: None,
                    });
                    conn.send("stats")
                }
                Action::Submit | Action::SubmitCancel => {
                    by_id.insert(submitted, log.records.len());
                    log.records.push(Record {
                        spec: op.spec,
                        cancelled: op.action == Action::SubmitCancel,
                        due,
                        reply: None,
                    });
                    let mut sent = conn.send(&inputs.specs[op.spec].line());
                    if op.action == Action::SubmitCancel && sent.is_ok() {
                        sent = conn.send(&format!("cancel {submitted}"));
                    }
                    submitted += 1;
                    sent
                }
            };
            if let Err(e) = sent {
                log.errors.push(format!("send: {e}"));
            }
            waiting += 1;
            next += 1;
            continue;
        }
        let wake = match ops.get(next) {
            Some(op) => due_of(op),
            None if waiting == 0 => break,
            None => *drain_by.get_or_insert(now + DRAIN),
        };
        if ops.get(next).is_none() && now >= wake {
            log.errors
                .push(format!("{waiting} replies outstanding after {DRAIN:?}"));
            break;
        }
        if let Err(e) = conn.recv_until(wake, &mut got) {
            log.errors.push(format!("receive: {e}"));
        }
        for (at, text) in got.drain(..) {
            let json = Json::parse(text.trim_end()).ok();
            // Outcome lines carry scan `stats` too; a stats reply has no id.
            let is_stats = json
                .as_ref()
                .is_some_and(|j| j.get("stats").is_some() && j.get("id").is_none());
            let record = json
                .as_ref()
                .and_then(|j| j.get("id").and_then(Json::as_u64))
                .and_then(|id| by_id.remove(&id));
            if let (true, Some(i)) = (is_stats, probes.front().copied()) {
                probes.pop_front();
                log.probes[i].reply = Some(text);
            } else if let Some(i) = record {
                log.records[i].reply = Some((at, text));
            } else {
                log.errors
                    .push(format!("unexpected reply: {}", text.trim_end()));
                continue;
            }
            waiting -= 1;
            last = at;
        }
    }
    log.elapsed = last.saturating_duration_since(start);
    log
}

#[cfg(test)]
mod tests {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    use super::*;
    use crate::gen::{generate, Workload};

    /// A stand-in daemon: greets, then answers every submission at once.
    fn echo_server() -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            writer
                .write_all(b"{\"protocol\": \"tamopt-serve\", \"v\": 1, \"client\": 0}\n")
                .unwrap();
            let mut id = 0;
            for line in BufReader::new(stream).lines() {
                let Ok(line) = line else { break };
                if line == "stats" || line.starts_with("cancel") {
                    continue;
                }
                writer
                    .write_all(format!("{{\"v\": 1, \"id\": {id}}}\n").as_bytes())
                    .unwrap();
                id += 1;
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time() {
        let (addr, server) = echo_server();
        let inputs = generate(Workload::WarmMix, 1, 1.0, "run");
        let ops: Vec<Op> = [0.0, 0.001]
            .iter()
            .map(|&due| Op {
                due,
                conn: 0,
                action: Action::Submit,
                spec: 0,
            })
            .collect();
        // The schedule started 100 ms ago: both sends are that late, and
        // their latency must include the wait.
        let start = Instant::now() - Duration::from_millis(100);
        let mut conn = Conn::connect(&addr).unwrap();
        let log = open_conn(&mut conn, &ops, &inputs, start);
        drop(conn);
        server.join().unwrap();
        assert!(log.errors.is_empty(), "{:?}", log.errors);
        assert_eq!(log.late_ms.len(), 2);
        assert!(
            log.late_ms.iter().all(|&late| late >= 99.0),
            "{:?}",
            log.late_ms
        );
        for record in &log.records {
            let latency = record.latency_ms().unwrap();
            assert!(
                latency >= 99.0,
                "latency {latency} ms ignores the late send"
            );
        }
    }
}
