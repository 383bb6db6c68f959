//! The traced in-process run: the same generated requests, driven
//! through each layer's public functions with a span around every
//! call. Spans stay in memory and are written out at the end.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use tamopt::assign::exact::{self, ExactConfig};
use tamopt::assign::{core_assign_into, AssignScratch, CoreAssignOptions};
use tamopt::cli::{parse_serve_line, ServeLine};
use tamopt::partition::enumerate::Partitions;
use tamopt::partition::{partition_evaluate_top_k, EvaluateConfig, PruneStats};
use tamopt::service::{LineFramer, LiveConfig, LiveQueue, RequestKind, RequestOutcome};
use tamopt::soc::format::{parse_soc, write_soc};
use tamopt::store::journal::unsealed;
use tamopt::store::{CostColumns, Journal, JournalRecord, Store, StoreConfig, SyncPolicy};
use tamopt::{CostMatrix, Soc, TamSet, TimeTable};

use crate::gen::{Action, Inputs, Spec, Workload};
use crate::oracle::{self, Answer};
use crate::stats::{median, tail};

/// One traced interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request the span worked for: its position in the live
    /// schedule, or in the layer phase the index of its spec.
    pub request: Option<u64>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one thread.
pub struct Tracer {
    /// Whether spans are recorded at all.
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// A tracer that records nothing: [`Tracer::span`] only runs its
    /// closure.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&self, name: &'static str, request: Option<u64>, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let result = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end_ns = self.now_ns();
        result
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Per request, the summed duration of its spans named `name`.
    pub fn per_request(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.borrow().iter().filter(|s| s.name == name) {
            *sums.entry(s.request.unwrap_or(u64::MAX)).or_default() += s.ns() as f64;
        }
        sums.into_values().collect()
    }

    /// Per layer: span count, total and self time (total minus the
    /// time its child spans cover), in nanoseconds.
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, u64, u64)> {
        let spans = self.spans.borrow();
        let mut children = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(parent) = s.parent {
                children[parent] += s.ns();
            }
        }
        let mut layers: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
        for (s, covered) in spans.iter().zip(children) {
            let entry = layers.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.ns();
            entry.2 += s.ns().saturating_sub(covered);
        }
        layers
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"request\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request),
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

pub fn request(spec: &Spec) -> tamopt::service::Request {
    tamopt::service::Request::new((*spec.soc).clone(), spec.width)
        .expect("positive width")
        .max_tams(spec.max_tams)
        .kind(spec.kind)
}

/// The solve time an outcome reports: scans plus final steps.
fn solve_time(outcome: &RequestOutcome) -> Duration {
    match outcome.kind {
        RequestKind::TopK { .. } => {
            let scan = outcome
                .results
                .first()
                .map_or(Duration::ZERO, |e| e.result.evaluate_time);
            scan + outcome
                .results
                .iter()
                .map(|e| e.result.final_time)
                .sum::<Duration>()
        }
        _ => outcome.results.iter().map(|e| e.result.total_time()).sum(),
    }
}

/// What the traced run measured.
pub struct TraceReport {
    /// `(name, unit, value)` per per-layer metric.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub lines: Vec<String>,
    pub attempted: usize,
    pub failures: Vec<String>,
}

/// Per-request results of the layer-by-layer solve.
struct Layered {
    answers: Vec<Answer>,
    headline: PruneStats,
    enumerated: u64,
    completed: u64,
    aborted: u64,
    nodes: u64,
    designs: u64,
}

/// Solves `spec` cold, one layer call at a time, each in its span.
fn layered(tracer: &Tracer, id: u64, spec: &Spec) -> Result<Layered, String> {
    let request = Some(id);
    let table = tracer
        .span("wrapper.table", request, || {
            TimeTable::new(&spec.soc, spec.width)
        })
        .map_err(|e| e.to_string())?;
    let mut out = Layered {
        answers: Vec::new(),
        headline: PruneStats::default(),
        enumerated: 0,
        completed: 0,
        aborted: 0,
        nodes: 0,
        designs: spec.soc.num_cores() as u64 * u64::from(spec.width),
    };
    let k = match spec.kind {
        RequestKind::TopK { k } => k,
        _ => 1,
    };
    let config = EvaluateConfig::up_to_tams(spec.max_tams);
    for width in spec.widths() {
        let ranked = tracer
            .span("partition.scan", request, || {
                partition_evaluate_top_k(&table, width, &config, k)
            })
            .map_err(|e| e.to_string())?;
        out.enumerated += ranked.stats.enumerated;
        out.completed += ranked.stats.completed;
        out.aborted += ranked.stats.aborted;
        if width == spec.width {
            out.headline = ranked.stats;
        }
        let mut entries = Vec::new();
        for entry in &ranked.entries {
            let solution = tracer.span("assign.exact", request, || {
                let costs = CostMatrix::from_table(&table, &entry.tams)?;
                exact::solve(&costs, &ExactConfig::default())
            });
            let solution = solution.map_err(|e| e.to_string())?;
            out.nodes += solution.nodes;
            entries.push(Answer {
                width,
                soc_time: solution.result.soc_time().min(entry.soc_time()),
                tams: entry.tams.widths().to_vec(),
            });
        }
        // Step 2 can reorder the ranking; ties keep the scan order.
        entries.sort_by_key(|a| a.soc_time);
        out.answers.extend(entries);
    }
    Ok(out)
}

/// The partition scan replayed sequentially with every
/// `CostMatrix::from_table_into` and `core_assign_into` call timed on
/// its own: `(partitions, matrix ns, assign ns)`.
fn probe(tracer: &Tracer, id: u64, spec: &Spec, table: &TimeTable) -> (u64, u64, u64) {
    tracer.span("assign.probe", Some(id), || {
        let options = CoreAssignOptions::default();
        let mut matrix = CostMatrix::scratch();
        let mut scratch = AssignScratch::new();
        let (mut count, mut matrix_ns, mut assign_ns) = (0u64, 0u64, 0u64);
        let mut best = u64::MAX;
        for tams in 1..=spec.max_tams.min(spec.width) {
            for widths in Partitions::new(spec.width, tams) {
                let tams = TamSet::new(widths).expect("partition parts are positive");
                let t0 = Instant::now();
                CostMatrix::from_table_into(table, &tams, &mut matrix)
                    .expect("widths fit the table");
                let t1 = Instant::now();
                let bound = (best != u64::MAX).then_some(best);
                let done = core_assign_into(&matrix, bound, &options, &mut scratch);
                let t2 = Instant::now();
                if let Some(time) = done {
                    best = best.min(time);
                }
                count += 1;
                matrix_ns += (t1 - t0).as_nanos() as u64;
                assign_ns += (t2 - t1).as_nanos() as u64;
            }
        }
        std::hint::black_box(best);
        (count, matrix_ns, assign_ns)
    })
}

/// One request of the live phase.
struct Live {
    spec: usize,
    cancelled: bool,
    submitted: Instant,
    line: Option<String>,
    wait_ms: Option<f64>,
    completed: Option<u64>,
}

/// File names of the journal and store the traced run writes and reads
/// back.
const JOURNAL_FILE: &str = "requests.tamjrnl";
const STORE_FILE: &str = "warm.tamstore";

/// `--seconds` per cold-scan round the traced run replays. A round's
/// twenty requests cost 5 to 9 s on one CPU: the live replay plus four
/// cold solves each in the layer phase.
const SECONDS_PER_TRACED_ROUND: f64 = 10.0;

/// Share of the open-loop schedule the traced live phase replays, in
/// real time; the layer phase then solves each of the 60 warm specs,
/// which takes about a second.
const OPEN_LIVE_SHARE: f64 = 0.8;

/// The traced run of `workload`: a live phase that replays a fixed,
/// seed-determined part of the schedule through an in-process queue set
/// up like the workload's daemon (the first rounds of the closed loop,
/// most of the open loop after the same untimed warm-up), the
/// live phase's journal written and recovered, then every distinct
/// request solved layer by layer and recorded into a store that is
/// saved and opened again.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    seconds: f64,
    dir: &str,
) -> Result<TraceReport, String> {
    let tracer = Tracer::new();
    let mut failures = Vec::new();
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let queue = LiveQueue::start(LiveConfig::with_threads(1));
    // Every request line names its SOC by the path of a `.soc` file.
    let resolve = |name: &str| -> Result<Soc, String> {
        let text = std::fs::read_to_string(name).map_err(|e| format!("{name}: {e}"))?;
        tracer
            .span("soc.parse", None, || parse_soc(&text))
            .map_err(|e| e.to_string())
    };

    // Untimed, as in the end-to-end run: every warm spec once, so the
    // live phase starts from the same warm cache.
    let mut warm_up: HashMap<usize, usize> = HashMap::new();
    for &spec in &inputs.warmup {
        let (id, _) = queue
            .submit(request(&inputs.specs[spec]))
            .map_err(|e| e.to_string())?;
        warm_up.insert(id.index(), spec);
    }
    let mut warm_lines: Vec<(usize, String)> = Vec::new();
    for _ in &inputs.warmup {
        let outcome = queue.recv_outcome().ok_or("queue stopped")?;
        let spec = warm_up
            .remove(&outcome.index)
            .ok_or_else(|| format!("warm-up outcome for unknown id {}", outcome.index))?;
        warm_lines.push((spec, outcome.to_json_line()));
    }

    // The live phase: the workload's own schedule, in process.
    let schedule: Vec<(f64, usize, bool)> = match workload {
        Workload::ColdScan => {
            let rounds = (seconds / SECONDS_PER_TRACED_ROUND).ceil().max(1.0) as usize;
            inputs
                .rounds
                .iter()
                .take(rounds)
                .flatten()
                .map(|&spec| (f64::NAN, spec, false))
                .collect()
        }
        Workload::WarmMix => inputs
            .ops
            .iter()
            .filter(|op| op.action != Action::Stats && op.due < OPEN_LIVE_SHARE * seconds)
            .map(|op| (op.due, op.spec, op.action == Action::SubmitCancel))
            .collect(),
    };
    let mut framer = LineFramer::new();
    let mut live: Vec<Live> = Vec::new();
    let mut by_id: HashMap<usize, usize> = HashMap::new();
    // Journal records as the daemon would append them; they are written
    // after the live phase so the fsyncs do not perturb it.
    let mut records: Vec<(Option<u64>, JournalRecord)> = Vec::new();
    let mut late_ms = Vec::new();
    let start = Instant::now();
    let mut outstanding = 0usize;
    let finish = |outcome: RequestOutcome,
                  by_id: &HashMap<usize, usize>,
                  live: &mut Vec<Live>,
                  records: &mut Vec<(Option<u64>, JournalRecord)>| {
        let at = Instant::now();
        let Some(&i) = by_id.get(&outcome.index) else {
            return Err(format!("outcome for unknown id {}", outcome.index));
        };
        let request = Some(i as u64);
        let line = tracer.span("report.render", request, || outcome.to_json_line());
        let entry = &mut live[i];
        let waited = at.saturating_duration_since(entry.submitted);
        entry.wait_ms = Some(waited.saturating_sub(solve_time(&outcome)).as_secs_f64() * 1e3);
        entry.completed = outcome.result.as_ref().map(|co| co.stats.completed);
        entry.line = Some(line);
        let id = outcome.index as u64;
        records.push((request, JournalRecord::Sealed { id }));
        Ok(())
    };
    for (n, &(due, spec, cancel)) in schedule.iter().enumerate() {
        let open_loop = !due.is_nan();
        if open_loop {
            let due_at = start + Duration::from_secs_f64(due);
            loop {
                while let Some(outcome) = queue.try_recv_outcome() {
                    outstanding -= 1;
                    finish(outcome, &by_id, &mut live, &mut records)?;
                }
                let now = Instant::now();
                if now >= due_at {
                    late_ms.push((now - due_at).as_secs_f64() * 1e3);
                    break;
                }
                std::thread::sleep((due_at - now).min(Duration::from_micros(200)));
            }
        }
        let request = Some(n as u64);
        let text = format!("{}\n", inputs.specs[spec].line());
        let frames = tracer.span("net.frame", request, || framer.push(text.as_bytes()));
        let Some(tamopt::service::Frame::Line(line)) = frames.into_iter().next() else {
            return Err("the framer lost a line".to_owned());
        };
        let parsed = tracer.span("cli.parse", request, || parse_serve_line(&line, &resolve));
        let Ok(Some((None, ServeLine::Submit(req)))) = parsed else {
            return Err(format!("request line did not parse: {line}"));
        };
        let submitted = Instant::now();
        let (id, _) = queue.submit(req).map_err(|e| e.to_string())?;
        by_id.insert(id.index(), live.len());
        live.push(Live {
            spec,
            cancelled: cancel,
            submitted,
            line: None,
            wait_ms: None,
            completed: None,
        });
        outstanding += 1;
        let global = id.index() as u64;
        let submit = JournalRecord::Submit {
            id: global,
            client: Some(0),
            shard: None,
            line: line.clone(),
        };
        records.push((request, submit));
        if cancel && queue.cancel(id) {
            records.push((request, JournalRecord::Cancel { id: global }));
        }
        if !open_loop {
            let outcome = queue.recv_outcome().ok_or("queue stopped")?;
            outstanding -= 1;
            finish(outcome, &by_id, &mut live, &mut records)?;
        }
    }
    while outstanding > 0 {
        let outcome = queue.recv_outcome().ok_or("queue stopped")?;
        outstanding -= 1;
        finish(outcome, &by_id, &mut live, &mut records)?;
    }
    queue.shutdown();

    // The live phase's journal under `--sync always`, then its recovery:
    // every request was sealed, so nothing is left to redo.
    let journal_path = format!("{dir}/{JOURNAL_FILE}");
    let mut journal = Journal::open(&journal_path, SyncPolicy::Always)
        .map_err(|e| format!("{journal_path}: {e}"))?
        .journal;
    for (request, record) in &records {
        tracer
            .span("journal.append", *request, || journal.append(record))
            .map_err(|e| format!("journal append: {e}"))?;
    }
    drop(journal);
    let pending = tracer
        .span("journal.recover", None, || {
            Journal::open(&journal_path, SyncPolicy::Always)
                .map(|opened| unsealed(&opened.records).len())
        })
        .map_err(|e| format!("{journal_path}: {e}"))?;
    if pending != 0 {
        failures.push(format!(
            "journal recovery redoes {pending} requests; every one was sealed"
        ));
    }

    // The layer phase: every distinct spec of the warm-up and the live
    // phase, a fixed set, solved by the pipeline (the reference) and
    // layer by layer, twice: with spans off and on, in alternating
    // order, which gives tracing's own cost.
    let store_path = format!("{dir}/{STORE_FILE}");
    let mut store = Store::open(&store_path, StoreConfig::default()).map_err(|e| e.to_string())?;
    let mut layer_specs: Vec<usize> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for spec in inputs
        .warmup
        .iter()
        .copied()
        .chain(live.iter().map(|l| l.spec))
    {
        if seen.insert(spec) {
            layer_specs.push(spec);
        }
    }
    let untraced = Tracer::off();
    let mut references: HashMap<usize, Vec<Answer>> = HashMap::new();
    let mut cold_completed: HashMap<usize, u64> = HashMap::new();
    let (mut traced_ns, mut untraced_ns) = (0u128, 0u128);
    let mut counts = Vec::new();
    let (mut probed, mut matrix_ns, mut assign_ns) = (0u64, 0u64, 0u64);
    for (i, &index) in layer_specs.iter().enumerate() {
        let spec = &inputs.specs[index];
        let id = index as u64;
        let text = write_soc(&spec.soc);
        if tracer
            .span("soc.parse", Some(id), || parse_soc(&text))
            .as_ref()
            != Ok(&*spec.soc)
        {
            failures.push(format!("{}: SOC text does not round-trip", spec.soc.name()));
        }
        let reference = oracle::reference(spec)?;
        let timed = |tracer: &Tracer| {
            let t0 = Instant::now();
            let solved = layered(tracer, id, spec);
            (t0.elapsed().as_nanos(), solved)
        };
        let ((on_ns, solved), (off_ns, plain)) = if i % 2 == 0 {
            let off = timed(&untraced);
            (timed(&tracer), off)
        } else {
            let on = timed(&tracer);
            (on, timed(&untraced))
        };
        traced_ns += on_ns;
        untraced_ns += off_ns;
        let (solved, plain) = (solved?, plain?);
        if solved.answers != reference || plain.answers != reference {
            failures.push(format!(
                "layer-by-layer solve of `{}` gives {:?}, the pipeline {:?}",
                spec.line(),
                solved.answers,
                reference
            ));
        }
        let table = TimeTable::new(&spec.soc, spec.width).map_err(|e| e.to_string())?;
        let (n, m, a) = probe(&tracer, id, spec, &table);
        probed += n;
        matrix_ns += m;
        assign_ns += a;
        let fingerprint = spec.soc.fingerprint();
        for answer in &reference {
            let tams = answer.tams.len() as u32;
            store.record_incumbent(fingerprint, answer.width, tams, answer.soc_time);
        }
        store.record_columns(fingerprint, CostColumns::from_table(&table));
        cold_completed.insert(index, solved.headline.completed);
        counts.push(solved);
        references.insert(index, reference);
    }

    // What a `--store` daemon keeps after these requests: saved, then
    // opened again as at start-up.
    tracer
        .span("store.save", None, || store.save())
        .map_err(|e| format!("store save: {e}"))?;
    let (store_bytes, stored) = (store.to_bytes().len(), store.len());
    drop(store);
    let reopened = tracer
        .span("store.open", None, || {
            Store::open(&store_path, StoreConfig::default())
        })
        .map_err(|e| format!("{store_path}: {e}"))?;
    if reopened.len() != stored {
        failures.push(format!(
            "the store reopens with {} entries, {stored} were saved",
            reopened.len()
        ));
    }
    drop(reopened);

    // The oracle over every outcome.
    for (spec, line) in &warm_lines {
        let checked = oracle::check(line, &inputs.specs[*spec], false)
            .and_then(|checked| oracle::agrees(&checked, &references[spec]));
        if let Err(e) = checked {
            failures.push(format!("warm-up `{}`: {e}", inputs.specs[*spec].line()));
        }
    }
    let mut saved = (0usize, 0usize);
    for entry in &live {
        let spec = &inputs.specs[entry.spec];
        let Some(line) = &entry.line else {
            failures.push(format!("no outcome for `{}`", spec.line()));
            continue;
        };
        match oracle::check(line, spec, entry.cancelled) {
            Err(e) => failures.push(format!("`{}`: {e}", spec.line())),
            Ok(checked) => {
                if checked.status == "complete" && !entry.cancelled {
                    if let Err(e) = oracle::agrees(&checked, &references[&entry.spec]) {
                        failures.push(format!("`{}`: {e}", spec.line()));
                    }
                    if !matches!(spec.kind, RequestKind::Frontier { .. }) {
                        if let (Some(cold), Some(warm)) =
                            (cold_completed.get(&entry.spec), entry.completed)
                        {
                            saved.1 += 1;
                            if warm < *cold {
                                saved.0 += 1;
                            }
                        }
                    }
                }
            }
        }
    }

    let path = Path::new(".perfbench_out").join(format!("spans-{}.jsonl", workload.name()));
    tracer
        .write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;

    let us = |ns: Vec<f64>| median(&ns).unwrap_or(0.0) / 1e3;
    let ms = |ns: Vec<f64>| median(&ns).unwrap_or(0.0) / 1e6;
    // The exact step is trivial for most requests and long for a few:
    // the mean keeps the few in view.
    let mean_ms = |ns: Vec<f64>| ns.iter().sum::<f64>() / ns.len().max(1) as f64 / 1e6;
    let mean = |f: &dyn Fn(&Layered) -> u64| {
        counts.iter().map(f).sum::<u64>() as f64 / counts.len().max(1) as f64
    };
    let waits: Vec<f64> = live.iter().filter_map(|l| l.wait_ms).collect();
    let appends = tracer.durations("journal.append");
    let (enumerated, completed) = (
        counts.iter().map(|c| c.enumerated).sum::<u64>(),
        counts.iter().map(|c| c.completed).sum::<u64>(),
    );
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let metrics = vec![
        ("soc.parse_us", "us", us(tracer.durations("soc.parse"))),
        ("cli.parse_us", "us", us(tracer.durations("cli.parse"))),
        ("net.frame_us", "us", us(tracer.durations("net.frame"))),
        (
            "wrapper.table_ms",
            "ms",
            ms(tracer.per_request("wrapper.table")),
        ),
        ("wrapper.designs", "count", mean(&|c| c.designs)),
        (
            "partition.scan_ms",
            "ms",
            ms(tracer.per_request("partition.scan")),
        ),
        ("partition.enumerated", "count", mean(&|c| c.enumerated)),
        ("partition.completed", "count", mean(&|c| c.completed)),
        ("partition.aborted", "count", mean(&|c| c.aborted)),
        (
            "partition.completed_share",
            "share",
            ratio(completed as f64, enumerated as f64),
        ),
        (
            "assign.matrix_ns",
            "ns",
            ratio(matrix_ns as f64, probed as f64),
        ),
        (
            "assign.core_assign_ns",
            "ns",
            ratio(assign_ns as f64, probed as f64),
        ),
        (
            "assign.exact_ms",
            "ms",
            mean_ms(tracer.per_request("assign.exact")),
        ),
        ("assign.exact_nodes", "count", mean(&|c| c.nodes)),
        (
            "live.queue_wait_p50_ms",
            "ms",
            median(&waits).unwrap_or(0.0),
        ),
        (
            "live.queue_wait_tail_ms",
            "ms",
            tail(&waits).map_or(0.0, |t| t.value),
        ),
        (
            "live.warm_saved_share",
            "share",
            ratio(saved.0 as f64, saved.1 as f64),
        ),
        (
            "report.render_us",
            "us",
            us(tracer.durations("report.render")),
        ),
        (
            "journal.append_p50_us",
            "us",
            median(&appends).unwrap_or(0.0) / 1e3,
        ),
        (
            "journal.append_tail_us",
            "us",
            tail(&appends).map_or(0.0, |t| t.value) / 1e3,
        ),
        ("store.save_ms", "ms", ms(tracer.durations("store.save"))),
        ("store.bytes", "bytes", store_bytes as f64),
        (
            "journal.recover_ms",
            "ms",
            ms(tracer.durations("journal.recover")),
        ),
        ("store.open_ms", "ms", ms(tracer.durations("store.open"))),
        (
            "bench.late_ms",
            "ms",
            tail(&late_ms).map_or(0.0, |t| t.value),
        ),
        (
            "bench.trace_overhead_share",
            "share",
            ratio(traced_ns as f64, untraced_ns as f64) - 1.0,
        ),
    ];

    let mut lines = vec![format!(
        "  traced in-process run: {} warm-up requests, {} live requests ({} outcomes), {} solved layer by layer, {} probe partitions; spans in {}",
        warm_lines.len(),
        live.len(),
        live.iter().filter(|l| l.line.is_some()).count(),
        counts.len(),
        probed,
        path.display()
    )];
    lines.push(crate::stats::describe("live.queue_wait", "ms", &waits));
    lines.push(crate::stats::describe(
        "journal.append",
        "us",
        &appends.iter().map(|ns| ns / 1e3).collect::<Vec<_>>(),
    ));
    lines.push(crate::stats::describe("bench.late", "ms", &late_ms));
    lines.push("  layer self times (spans, total ms, self ms):".to_owned());
    for (name, (count, total, own)) in tracer.self_times() {
        lines.push(format!(
            "    {name:<18} {count:>7} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        ));
    }
    Ok(TraceReport {
        metrics,
        lines,
        attempted: warm_lines.len() + live.len(),
        failures,
    })
}
