//! `perfbench` — the repository benchmark. Drives a live
//! `tamopt serve --listen 127.0.0.1:0 --threads 1` with one seeded
//! workload, checks every answer, and prints the end-to-end metrics;
//! with `--trace 1` it instead runs the same requests in process with
//! a span around each layer call and prints the per-layer metrics.
//!
//! ```text
//! perfbench --workload <cold-scan|warm-mix> --seed <n>
//!           --seconds <s> --trace <0|1> --daemon <path to tamopt>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is
//! non-zero when any answer is wrong or missing.

mod daemon;
mod gen;
mod json;
mod load;
mod oracle;
mod stats;
mod trace;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use crate::daemon::{Conn, Daemon, DAEMON_THREADS};
use crate::gen::{Inputs, Rng, Workload, OPEN_CONNECTIONS};
use crate::load::{LoadLog, Record};
use crate::oracle::Answer;
use crate::stats::{describe, median, tail};

/// Daemon start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 31;

/// One in this many cold-scan answers is re-solved in process (every
/// warm answer is: the key set is small).
const COLD_SAMPLE: u64 = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut values: HashMap<String, String> = HashMap::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?;
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key.to_owned(), value);
    }
    let get = |key: &str| {
        values
            .get(key)
            .cloned()
            .ok_or_else(|| format!("missing --{key}"))
    };
    let seconds: f64 = get("seconds")?.parse().map_err(|_| "invalid --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_owned());
    }
    Ok(Args {
        workload: Workload::parse(&get("workload")?)?,
        seed: get("seed")?.parse().map_err(|_| "invalid --seed")?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_owned()),
        },
        daemon: PathBuf::from(get("daemon")?),
    })
}

/// A run's result: report lines, metrics and the operation tally.
#[derive(Default)]
struct Output {
    lines: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: usize,
    failures: Vec<String>,
}

impl Output {
    fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// In-process reference answers, solved once per spec.
#[derive(Default)]
struct References(HashMap<usize, Result<Vec<Answer>, String>>);

impl References {
    fn get(&mut self, inputs: &Inputs, spec: usize) -> Result<&Vec<Answer>, String> {
        self.0
            .entry(spec)
            .or_insert_with(|| oracle::reference(&inputs.specs[spec]))
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// Checks one reply: structure and recomputed time always, the
/// in-process re-solve when `compare` is set. A cancelled request
/// promises no optimum: a cancel that lands during the final exact
/// step cuts it short while the status stays `complete`.
fn verify(
    inputs: &Inputs,
    refs: &mut References,
    spec: usize,
    reply: Option<&str>,
    cancelled: bool,
    compare: bool,
) -> Result<(), String> {
    let line = reply.ok_or("no reply")?;
    let checked = oracle::check(line, &inputs.specs[spec], cancelled)?;
    if compare && !cancelled && checked.status == "complete" {
        oracle::agrees(&checked, refs.get(inputs, spec)?)?;
    }
    Ok(())
}

/// The end-to-end run against a live daemon.
fn end_to_end(args: &Args, inputs: &Inputs, dir: &str) -> Result<Output, String> {
    let mut out = Output::default();
    let mut refs = References::default();
    let workload = args.workload;

    // Set-up, several times over: spawn to listening. The last daemon
    // serves the run.
    let mut setups = Vec::new();
    let mut daemon = None;
    for rep in 0..SETUP_REPS {
        let rep_dir = format!("{dir}/rep{rep}");
        std::fs::create_dir_all(&rep_dir).map_err(|e| e.to_string())?;
        let started = Daemon::start(&args.daemon, Path::new(&format!("{rep_dir}/stderr.log")))?;
        setups.push(started.setup.as_secs_f64());
        if rep + 1 < SETUP_REPS {
            started.stop()?;
        } else {
            daemon = Some(started);
        }
    }
    let daemon = daemon.expect("at least one set-up");

    // Untimed warm-up: every warm key once per kind.
    if !inputs.warmup.is_empty() {
        let mut conn = Conn::connect(&daemon.addr)?;
        let lines: Vec<(usize, String)> = inputs
            .warmup
            .iter()
            .map(|&s| (s, inputs.specs[s].line()))
            .collect();
        let log = load::closed_loop(&mut conn, &lines, 0);
        for e in &log.errors {
            out.fail(format!("warm-up: {e}"));
        }
        for record in &log.records {
            out.attempted += 1;
            let reply = record.reply.as_ref().map(|(_, l)| l.as_str());
            if let Err(e) = verify(inputs, &mut refs, record.spec, reply, false, true) {
                out.fail(format!(
                    "warm-up `{}`: {e}",
                    inputs.specs[record.spec].line()
                ));
            }
        }
    }

    let log = match workload {
        Workload::ColdScan => {
            let mut conn = Conn::connect(&daemon.addr)?;
            load::cold_rounds(&mut conn, inputs, args.seconds)
        }
        Workload::WarmMix => {
            let conns = (0..OPEN_CONNECTIONS)
                .map(|_| Conn::connect(&daemon.addr))
                .collect::<Result<Vec<_>, _>>()?;
            load::open_loop(conns, inputs)
        }
    };
    let rss = daemon.peak_rss_mb()?;
    daemon.stop()?;

    // The oracle over the timed phase.
    for e in &log.errors {
        out.fail(e.clone());
    }
    let mut correct = vec![false; log.records.len()];
    for (i, record) in log.records.iter().enumerate() {
        let compare = workload != Workload::ColdScan
            || Rng::new(args.seed ^ (i as u64).rotate_left(32)).below(COLD_SAMPLE) == 0;
        let reply = record.reply.as_ref().map(|(_, l)| l.as_str());
        match verify(
            inputs,
            &mut refs,
            record.spec,
            reply,
            record.cancelled,
            compare,
        ) {
            Ok(()) => correct[i] = true,
            Err(e) => out.fail(format!("`{}`: {e}", inputs.specs[record.spec].line())),
        }
    }
    for probe in &log.probes {
        match &probe.reply {
            Some(line) => {
                if let Err(e) = oracle::check_stats(line, probe.client) {
                    out.fail(format!("stats: {e}"));
                }
            }
            None => out.fail("stats probe without a reply"),
        }
    }
    out.attempted += log.records.len() + log.probes.len();
    metrics(&mut out, args, &log, &correct, &setups, rss);
    Ok(out)
}

/// The CPUs this process may run on (the daemon inherits them) and the
/// machine's online CPUs, e.g. `cpus=1 (cpu 1 of 0-1)`.
fn cpus() -> String {
    let usable = std::thread::available_parallelism().map_or(0, |n| n.get());
    let allowed = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_owned())
        })
        .unwrap_or_else(|| "?".to_owned());
    let online = std::fs::read_to_string("/sys/devices/system/cpu/online")
        .map_or_else(|_| "?".to_owned(), |s| s.trim().to_owned());
    format!("cpus={usable} (cpu {allowed} of {online})")
}

fn metrics(
    out: &mut Output,
    args: &Args,
    log: &LoadLog,
    correct: &[bool],
    setups: &[f64],
    rss: f64,
) {
    let workload = args.workload;
    let attempted = log.records.len().max(1) as f64;
    let latencies: Vec<f64> = log.records.iter().filter_map(Record::latency_ms).collect();
    let limit = workload.latency_limit_ms();
    let answered = correct.iter().filter(|&&c| c).count();
    let within = log
        .records
        .iter()
        .zip(correct)
        .filter(|(r, &c)| c && r.latency_ms().is_some_and(|l| l <= limit))
        .count();
    let run_s = log.elapsed.as_secs_f64().max(1e-9);
    let tail_ms = tail(&latencies);

    let shape = match workload.rate() {
        None => "closed loop, 1 connection".to_owned(),
        Some(rate) => format!("open loop at {rate} req/s over {OPEN_CONNECTIONS} connections"),
    };
    out.lines.push(format!(
        "perfbench {} seed={} seconds={} | {} | daemon --threads {DAEMON_THREADS} | {shape}",
        workload.name(),
        args.seed,
        args.seconds,
        cpus(),
    ));
    out.lines.push(describe("latency", "ms", &latencies));
    if let Some(t) = tail_ms {
        out.lines.push(format!(
            "  latency_tail_ms is p{:.2} over {} samples ({} beyond it)",
            t.percentile, t.count, t.beyond
        ));
    }
    if workload.rate().is_some() {
        out.lines
            .push(describe("generator lateness", "ms", &log.late_ms));
    }
    out.lines.push(describe("setup", "s", setups));
    out.lines.push(format!(
        "  requests: {} attempted, {answered} correct, {} failed ({:.4} of attempted), {within} within {limit} ms; run {run_s:.3} s; {} stats probes",
        log.records.len(),
        log.records.len() - answered,
        (log.records.len() - answered) as f64 / attempted,
        log.probes.len(),
    ));

    out.metrics = vec![
        ("setup_s", "s", median(setups).unwrap_or(0.0)),
        ("latency_p50_ms", "ms", median(&latencies).unwrap_or(0.0)),
        ("latency_tail_ms", "ms", tail_ms.map_or(0.0, |t| t.value)),
        ("throughput_rps", "1/s", answered as f64 / run_s),
        ("goodput_share", "share", within as f64 / attempted),
        ("correct_share", "share", answered as f64 / attempted),
        ("peak_rss_mb", "MiB", rss),
    ];
}

fn traced(args: &Args, inputs: &Inputs, dir: &str) -> Result<Output, String> {
    let report = trace::run(args.workload, inputs, args.seconds, dir)?;
    let mut lines = vec![format!(
        "perfbench {} seed={} seconds={} --trace 1 | {} | in-process queue threads=1",
        args.workload.name(),
        args.seed,
        args.seconds,
        cpus()
    )];
    lines.extend(report.lines);
    Ok(Output {
        lines,
        metrics: report.metrics,
        attempted: report.attempted,
        failures: report.failures,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = format!(".perfbench_run/{}-s{}", args.workload.name(), args.seed);
    let _ = std::fs::remove_dir_all(&dir);
    let inputs = gen::generate(args.workload, args.seed, args.seconds, &dir);
    for (file, text) in &inputs.files {
        let path = Path::new(&dir).join(file);
        let written = std::fs::create_dir_all(path.parent().expect("file in a directory"))
            .and_then(|()| std::fs::write(&path, text));
        if let Err(e) = written {
            eprintln!("perfbench: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let result = if args.trace {
        traced(&args, &inputs, &dir)
    } else {
        end_to_end(&args, &inputs, &dir)
    };
    match result {
        Ok(out) => {
            for line in &out.lines {
                println!("{line}");
            }
            for failure in out.failures.iter().take(20) {
                println!("  FAILED: {failure}");
            }
            println!("{}", out.json());
            if out.failures.is_empty() {
                let _ = std::fs::remove_dir_all(&dir);
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e} (inputs and logs kept in {dir})");
            ExitCode::FAILURE
        }
    }
}
