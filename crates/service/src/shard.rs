//! Fingerprint-sharded serving: N [`LiveQueue`] shards behind one
//! facade.
//!
//! A single [`LiveQueue`] serializes all dispatch decisions through one
//! dispatcher thread; under heavy traffic that thread becomes the
//! bottleneck long before the worker pool does. A [`ShardedQueue`] runs
//! `N` independent queues — each with its own dispatcher, pool and
//! generation clock — and routes every submission to a shard by its
//! SOC's [`fingerprint`](tamopt_soc::Soc::fingerprint) hash, so repeat
//! requests for the same chip land on the same shard and keep hitting
//! its locality. All shards share **one** warm-start incumbent cache,
//! so an incumbent discovered on any shard seeds every later request
//! for that SOC regardless of where it routes.
//!
//! # Routing and work stealing
//!
//! The home shard of a request is `fingerprint % N`. Routing is
//! decided once, at submission time, by [`route`]: when the home shard
//! already holds [`STEAL_MARGIN`] more routed requests than the
//! least-loaded shard, the request is *stolen* by that least-loaded
//! shard (lowest shard id on ties) — a drained shard never idles while
//! another's backlog grows. The steal decision reads only the
//! deterministic per-shard routing counters, never the wall clock:
//! under replay the counters advance exactly as the trace is split, so
//! the whole routing (and therefore each shard's sub-trace) is a pure
//! function of the trace — thread counts cannot change it.
//!
//! # Determinism
//!
//! [`ShardedQueue::replay`] extends the [`LiveQueue`] trace contract to
//! shards: for a fixed [`ShardTrace`] and shard count, the outcome
//! stream and final report are bit-identical for every
//! [`LiveConfig::threads`] value. The replay splits the trace into one
//! sub-trace per shard (deterministic routing, global → local id
//! renumbering), replays the shards **sequentially in shard-id order**
//! over the shared warm cache — so the cache state each shard starts
//! from is itself deterministic — and emits the merged stream as the
//! per-shard streams concatenated in shard-id order, ids mapped back to
//! global and every outcome stamped with its shard. Live operation uses
//! the same routing on live backlog counters (decremented as outcomes
//! stream), with the shards genuinely concurrent.
//!
//! # Unsharded serving
//!
//! The shard count is an `Option<usize>`: `Some(n)` runs `n` shards and
//! stamps every outcome with its shard (even `Some(1)`), while `None`
//! runs the unsharded daemon — a single shard whose outcomes, journal
//! stamps and `stats` snapshot carry no shard at all, byte-identical to
//! a lone [`LiveQueue`].
//!
//! # Cancellation under replay
//!
//! A trace's generation tags count barriers of the shard that owns the
//! event, and a shard holding a fraction of the trace reaches each
//! barrier after less work than the unsharded queue does. So
//! `@g cancel n` can land at a different point of request `n`'s life
//! under different shard shapes: still queued (a bare `cancelled`
//! outcome), mid-scan (`cancelled` with a truncated answer), or
//! already finished (the cancel misses and the answer is `complete`).
//! For a fixed shape the outcome is still byte-identical for every
//! thread count, and every request no trace event cancels has the same
//! winner under every shape; a cancelled request only promises one of
//! those three outcomes, and a `complete` one carries the winner of an
//! uncancelled run.

use std::collections::HashSet;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tamopt_engine::CancelHandle;
use tamopt_store::journal::unsealed;
use tamopt_store::{Journal, JournalRecord};

use crate::live::{
    bare_outcome, LiveConfig, LiveQueue, QueueStats, RequestId, SubmitError, Trace, TraceAction,
    TraceEvent, WarmCache,
};
use crate::net::{LineParser, NetDirective};
use crate::report::{BatchReport, RequestOutcome, RequestStatus};
use crate::{lock, Request};

/// How many more routed requests than the least-loaded shard a
/// request's home shard must already hold before the request is stolen
/// by the least-loaded shard. Margin 1 would reduce fingerprint routing
/// to round-robin and destroy same-SOC locality; a small margin keeps
/// locality while bounding skew.
pub const STEAL_MARGIN: usize = 2;

/// One event of a [`ShardTrace`]: a [`TraceEvent`] plus an optional
/// explicit shard pin (`None` routes by fingerprint hash + stealing).
#[derive(Debug, Clone)]
struct ShardTraceEvent {
    event: TraceEvent,
    shard: Option<usize>,
}

/// A fixed submission trace for a [`ShardedQueue`]: the [`Trace`]
/// grammar extended with optional per-event shard pins (the CLI's
/// `@<generation>/<shard>` tags). Submissions are numbered 0, 1, 2, …
/// in trace order — **global** ids, which cancellations refer to and
/// which the replayed outcomes carry.
#[derive(Debug, Clone, Default)]
pub struct ShardTrace {
    events: Vec<ShardTraceEvent>,
}

impl ShardTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a hash-routed submission applying at generation barrier
    /// `generation` of its shard.
    pub fn submit_at(self, generation: u32, request: Request) -> Self {
        self.push(generation, TraceAction::Submit(request), None)
    }

    /// Appends a submission pinned to `shard` (bypassing hash routing
    /// and stealing), applying at generation barrier `generation` of
    /// that shard. Pins beyond the shard count wrap (`shard % N`).
    pub fn submit_pinned_at(self, generation: u32, shard: usize, request: Request) -> Self {
        self.push(generation, TraceAction::Submit(request), Some(shard))
    }

    /// Appends a cancellation of global submission `id`, applying at
    /// generation barrier `generation` of the shard that owns the
    /// submission.
    pub fn cancel_at(self, generation: u32, id: impl Into<RequestId>) -> Self {
        self.push(generation, TraceAction::Cancel(id.into()), None)
    }

    fn push(mut self, generation: u32, action: TraceAction, shard: Option<usize>) -> Self {
        let event = TraceEvent { generation, action };
        self.events.push(ShardTraceEvent { event, shard });
        self
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// The deterministic routing decision: `fingerprint`'s home shard, or
/// the least-loaded shard (lowest id on ties) when the home shard is
/// ahead of it by at least [`STEAL_MARGIN`] routed requests.
fn route(fingerprint: u64, loads: &[usize]) -> usize {
    let home = (fingerprint % loads.len() as u64) as usize;
    let (steal, min_load) = loads
        .iter()
        .copied()
        .enumerate()
        .min_by_key(|&(shard, load)| (load, shard))
        .expect("a sharded queue has at least one shard");
    if loads[home] >= min_load + STEAL_MARGIN {
        steal
    } else {
        home
    }
}

/// The global ↔ local id mapping plus the routing load counters.
#[derive(Debug, Default)]
struct RouteTable {
    /// Global id → `(shard, local id)`.
    owner: Vec<(usize, usize)>,
    /// Shard → local id → global id.
    global_of: Vec<Vec<usize>>,
    /// Per-shard routed-and-not-yet-finished counters driving the steal
    /// decision. Under replay these only grow (the split is static);
    /// live they are decremented as outcomes stream.
    loads: Vec<usize>,
}

impl RouteTable {
    fn new(shards: usize) -> Self {
        RouteTable {
            owner: Vec::new(),
            global_of: vec![Vec::new(); shards],
            loads: vec![0; shards],
        }
    }

    /// Routes one submission (explicit `pin` bypasses hash + stealing)
    /// and records the id mapping; returns `(shard, local id)`.
    fn assign(&mut self, fingerprint: u64, pin: Option<usize>) -> (usize, usize) {
        let shards = self.loads.len();
        let shard = match pin {
            Some(pinned) => pinned % shards,
            None => route(fingerprint, &self.loads),
        };
        let local = self.global_of[shard].len();
        self.global_of[shard].push(self.owner.len());
        self.owner.push((shard, local));
        self.loads[shard] += 1;
        (shard, local)
    }
}

/// A write-ahead request journal attached to a serving queue through
/// [`LiveConfig::journal`] (the `--journal` flag of `tamopt serve`).
///
/// Opaque by design: a live [`ShardedQueue`] does all the journal work.
/// It appends a `Submit` record (raw request line, client stamp, shard
/// stamp) in the route-lock section that assigns the global id, a
/// `Cancel` whenever [`ShardedQueue::cancel`] reaches an in-flight
/// request, and a `Sealed` record for each outcome
/// [`ShardedQueue::deliver`] has handed to its writer; once the stream
/// has ended with every journaled id sealed, it compacts the file to
/// its empty header. [`ShardedQueue::recover`] redoes what a crashed
/// process left unsealed. I/O failures are demoted to stderr warnings,
/// mirroring [`crate::StoreBinding`] — a sick disk degrades crash
/// recoverability, it never takes the daemon down — and an id whose
/// seal failed keeps the journal from compacting.
#[derive(Debug, Clone)]
pub struct JournalBinding {
    state: Arc<Mutex<JournalState>>,
}

/// The journal handle plus the ids it still owes a seal, behind one
/// leaf mutex.
#[derive(Debug)]
struct JournalState {
    journal: Journal,
    /// Journaled ids whose `Sealed` record has not been appended yet.
    owed: HashSet<usize>,
}

impl JournalState {
    fn append(&mut self, record: &JournalRecord) -> bool {
        match self.journal.append(record) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("tamopt: journal append failed: {e}");
                false
            }
        }
    }
}

impl JournalBinding {
    /// Wraps an opened [`Journal`].
    pub fn new(journal: Journal) -> Self {
        JournalBinding {
            state: Arc::new(Mutex::new(JournalState {
                journal,
                owed: HashSet::new(),
            })),
        }
    }

    fn submit(&self, id: usize, client: Option<usize>, shard: Option<usize>, line: &str) {
        let mut state = lock(&self.state);
        let record = JournalRecord::Submit {
            id: id as u64,
            client: client.map(|c| c as u64),
            shard: shard.map(|s| s as u64),
            line: line.to_owned(),
        };
        if state.append(&record) {
            state.owed.insert(id);
        }
    }

    fn cancel(&self, id: usize) {
        lock(&self.state).append(&JournalRecord::Cancel { id: id as u64 });
    }

    /// Ids a crashed process journaled and never sealed: recovery owes
    /// their seals now.
    fn owe(&self, ids: impl IntoIterator<Item = usize>) {
        lock(&self.state).owed.extend(ids);
    }

    fn seal(&self, id: usize) {
        let mut state = lock(&self.state);
        if state.append(&JournalRecord::Sealed { id: id as u64 }) {
            state.owed.remove(&id);
        }
    }

    /// The end of a delivered stream: compact to the empty header when
    /// every journaled id is sealed, otherwise keep the records for the
    /// next start to recover.
    fn finish(&self) {
        let mut state = lock(&self.state);
        if !state.owed.is_empty() {
            eprintln!(
                "tamopt: journal: {} journaled request(s) unsealed; not compacting",
                state.owed.len()
            );
        } else if let Err(e) = state.journal.compact() {
            eprintln!("tamopt: journal compaction failed: {e}");
        }
    }
}

/// The one delivery loop: hands each outcome to `write`, then seals its
/// id — after the writer has it, so a crash in between redoes the
/// request rather than losing it — and finishes the journal once the
/// stream has ended.
fn deliver_sealed(
    journal: Option<&JournalBinding>,
    outcomes: impl IntoIterator<Item = RequestOutcome>,
    mut write: impl FnMut(RequestOutcome),
) {
    for outcome in outcomes {
        let id = outcome.index;
        write(outcome);
        if let Some(journal) = journal {
            journal.seal(id);
        }
    }
    if let Some(journal) = journal {
        journal.finish();
    }
}

/// Re-stamps a shard-local outcome as a global one (shard-stamped only
/// when the queue is `stamped`).
fn globalize(
    mut outcome: RequestOutcome,
    shard: usize,
    global_of: &[usize],
    stamped: bool,
) -> RequestOutcome {
    outcome.index = global_of[outcome.index];
    outcome.shard = stamped.then_some(shard);
    outcome
}

/// The shard count and stamping mode of an `Option<usize>` shard
/// argument: `Some(n)` is `n.max(1)` stamped shards, `None` one
/// unstamped shard.
fn layout(shards: Option<usize>) -> (usize, bool) {
    shards.map_or((1, false), |n| (n.max(1), true))
}

/// The backlog snapshot of one shard, as reported by
/// [`ShardedQueue::stats`]. Pending ids are **global** submission ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// The shard id.
    pub shard: usize,
    /// Requests routed to this shard and not yet finished (pending or
    /// executing) — the live load counter the steal decision reads.
    pub outstanding: usize,
    /// The shard queue's own snapshot: generation clock, aging rate and
    /// the pending backlog with aged effective priorities.
    pub queue: QueueStats,
}

/// A point-in-time snapshot of every shard's backlog — the sharded
/// `stats` verb of `tamopt serve`, making queue skew observable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedStats {
    /// One entry per shard, in shard-id order.
    pub shards: Vec<ShardStats>,
    /// Whether the queue stamps shards (`false` for the unsharded
    /// single shard).
    stamped: bool,
}

impl ShardedStats {
    /// The snapshot as one deterministic, compact JSON object: per
    /// shard its id, outstanding count, pending count and the shard
    /// queue's own stats object (see [`QueueStats::to_json`]). An
    /// unsharded queue renders its single queue's object alone.
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        if !self.stamped {
            return self.shards[0].queue.to_json();
        }
        let mut out = String::from("{\"shards\": [");
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"shard\": {}, \"outstanding\": {}, \"pending_count\": {}, \"queue\": {}}}",
                s.shard,
                s.outstanding,
                s.queue.pending.len(),
                s.queue.to_json(),
            );
        }
        out.push_str("]}");
        out
    }
}

/// `N` independent [`LiveQueue`] shards behind one queue-shaped facade:
/// fingerprint-hash routing with deterministic work stealing, one warm
/// cache shared by every shard, global submission ids and shard-stamped
/// outcomes — or, with no shard count, the unsharded daemon as one
/// unstamped shard. See the [module docs](self) for the routing and
/// determinism story.
///
/// # Example
///
/// ```
/// use tamopt_service::{LiveConfig, Request, ShardedQueue};
/// use tamopt_soc::benchmarks;
///
/// let queue = ShardedQueue::start(LiveConfig::default(), 2);
/// let (id, _handle) = queue
///     .submit(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
///     .unwrap();
/// let outcome = queue.recv_outcome().unwrap();
/// assert_eq!(outcome.index, id.index());
/// assert!(outcome.shard.is_some());
/// let report = queue.shutdown().expect("first shutdown returns the report");
/// assert!(report.complete);
///
/// // No shard count: the unsharded daemon, outcomes unstamped.
/// let queue = ShardedQueue::start(LiveConfig::default(), None);
/// queue
///     .submit(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2))
///     .unwrap();
/// assert_eq!(queue.recv_outcome().unwrap().shard, None);
/// ```
#[derive(Debug)]
pub struct ShardedQueue {
    shards: Arc<Vec<LiveQueue>>,
    route: Arc<Mutex<RouteTable>>,
    start: Instant,
    /// Whether outcomes, journal stamps and stats carry the shard
    /// (`false` only for the unsharded single shard).
    stamped: bool,
    /// The write-ahead journal of [`LiveConfig::journal`], if any.
    journal: Option<JournalBinding>,
    /// Merged outcome stream, fed by one forwarder thread per shard.
    outcomes: Mutex<Receiver<RequestOutcome>>,
    forwarders: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl ShardedQueue {
    /// Starts `shards.max(1)` live shards, each a full [`LiveQueue`]
    /// with its own dispatcher and worker pool configured by its own
    /// clone of `config` (so `config.threads` is **per shard**), all
    /// sharing one warm cache. `None` starts the unsharded daemon: one
    /// shard whose outcomes carry no shard stamp. A
    /// [`LiveConfig::journal`] makes the queue journal what it accepts
    /// and seal what it [`deliver`](Self::deliver)s.
    pub fn start(mut config: LiveConfig, shards: impl Into<Option<usize>>) -> Self {
        let journal = config.journal.take();
        let (shards, stamped) = layout(shards.into());
        let cache = WarmCache::shared(config.warm_capacity);
        let queues: Arc<Vec<LiveQueue>> = Arc::new(
            (0..shards)
                .map(|_| LiveQueue::start_with_cache(config.clone(), Arc::clone(&cache)))
                .collect(),
        );
        let route = Arc::new(Mutex::new(RouteTable::new(shards)));
        let (tx, rx) = std::sync::mpsc::channel::<RequestOutcome>();
        let forwarders = (0..shards)
            .map(|shard| {
                let queues = Arc::clone(&queues);
                let route = Arc::clone(&route);
                let tx: Sender<RequestOutcome> = tx.clone();
                std::thread::Builder::new()
                    .name(format!("tamopt-shard-{shard}"))
                    .spawn(move || {
                        while let Some(outcome) = queues[shard].recv_outcome() {
                            let outcome = {
                                let mut table = lock(&route);
                                table.loads[shard] = table.loads[shard].saturating_sub(1);
                                globalize(outcome, shard, &table.global_of[shard], stamped)
                            };
                            // Fire-and-forget callers may drop the
                            // receiver; the final report still collects
                            // everything shard-side.
                            let _ = tx.send(outcome);
                        }
                    })
                    .expect("spawning a shard forwarder thread")
            })
            .collect();
        ShardedQueue {
            shards: queues,
            route,
            start: Instant::now(),
            stamped,
            journal,
            outcomes: Mutex::new(rx),
            forwarders: Mutex::new(forwarders),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Submits `request`, routing it to its fingerprint's home shard
    /// (or a stealing shard — see [`route`]); returns the **global**
    /// [`RequestId`] and the per-request [`CancelHandle`]. Thread-safe
    /// and non-blocking, as [`LiveQueue::submit`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::ShutDown`] after [`shutdown`](Self::shutdown);
    /// [`SubmitError::Overloaded`] when the routed shard's backlog is
    /// at [`LiveConfig::max_pending`] (the cap is per shard) and this
    /// request is its weakest entry. Either way the speculative global
    /// id is unwound — a refused submission consumes nothing.
    ///
    /// # Panics
    ///
    /// On a journaled queue: it journals only what arrives through
    /// [`submit_line`](Self::submit_line), and a request accepted here
    /// would escape the journal.
    pub fn submit(&self, request: Request) -> Result<(RequestId, CancelHandle), SubmitError> {
        assert!(
            self.journal.is_none(),
            "a journaled queue accepts through `submit_line`"
        );
        self.accept(request, None, None)
    }

    /// [`submit`](Self::submit) for a request that arrived as protocol
    /// line `line` from network client `client` (`None` on stdin). On a
    /// journaled queue the line, the client stamp and the shard stamp
    /// are journaled before the global id is released, so a crash from
    /// then on redoes the request.
    ///
    /// # Errors
    ///
    /// As [`submit`](Self::submit).
    pub fn submit_line(
        &self,
        request: Request,
        line: &str,
        client: Option<usize>,
    ) -> Result<(RequestId, CancelHandle), SubmitError> {
        self.accept(request, None, Some((line, client)))
    }

    /// The one accept path: routes `request` by fingerprint (or to
    /// shard `pin`) and, on a journaled queue, journals `accepted` (raw
    /// line, client).
    fn accept(
        &self,
        request: Request,
        pin: Option<usize>,
        accepted: Option<(&str, Option<usize>)>,
    ) -> Result<(RequestId, CancelHandle), SubmitError> {
        // The route lock is held across the shard submit so local ids
        // assigned by the shard queue stay in lock-step with the
        // mapping (the shard's own state lock nests inside it; the
        // forwarders take the route lock alone, so no cycle). The
        // journal append lands inside it too, so journal order is
        // accept order and no cancel or seal of the id can precede it.
        let mut table = lock(&self.route);
        let (shard, local) = table.assign(request.soc.fingerprint(), pin);
        match self.shards[shard].submit(request) {
            Ok((id, handle)) => {
                debug_assert_eq!(id.index(), local);
                let global = table.owner.len() - 1;
                if let (Some(journal), Some((line, client))) = (&self.journal, accepted) {
                    journal.submit(global, client, self.stamped.then_some(shard), line);
                }
                Ok((RequestId::from(global), handle))
            }
            Err(err) => {
                // Unwind the speculative assignment: the shard queue
                // never saw the request.
                table.owner.pop();
                table.global_of[shard].pop();
                table.loads[shard] -= 1;
                Err(err)
            }
        }
    }

    /// Cancels global submission `id` on its owning shard; `false` for
    /// unknown ids and for requests whose outcome already streamed. A
    /// journaled queue journals every cancel that reaches an in-flight
    /// request, so recovery reports it `cancelled` instead of redoing it.
    pub fn cancel(&self, id: RequestId) -> bool {
        let owner = lock(&self.route).owner.get(id.index()).copied();
        let reached = match owner {
            Some((shard, local)) => self.shards[shard].cancel(RequestId::from(local)),
            None => false,
        };
        if let (true, Some(journal)) = (reached, &self.journal) {
            journal.cancel(id.index());
        }
        reached
    }

    /// Number of submissions accepted so far (across all shards).
    pub fn submitted(&self) -> usize {
        lock(&self.route).owner.len()
    }

    /// A per-shard backlog snapshot, pending ids mapped to global —
    /// the observability hook for queue skew (shard id, outstanding
    /// and pending counts, aged effective priorities).
    pub fn stats(&self) -> ShardedStats {
        let table = lock(&self.route);
        let shards = self
            .shards
            .iter()
            .enumerate()
            .map(|(shard, queue)| {
                let mut stats = queue.stats();
                for p in &mut stats.pending {
                    p.id = table.global_of[shard][p.id];
                }
                ShardStats {
                    shard,
                    outstanding: table.loads[shard],
                    queue: stats,
                }
            })
            .collect();
        ShardedStats {
            shards,
            stamped: self.stamped,
        }
    }

    /// Blocks until the next outcome streams out of any shard (global
    /// id, shard stamped); `None` once every shard has finished and all
    /// outcomes were received. Drain a journaled queue through
    /// [`deliver`](Self::deliver) instead, which seals what it hands
    /// out.
    pub fn recv_outcome(&self) -> Option<RequestOutcome> {
        lock(&self.outcomes).recv().ok()
    }

    /// The delivery loop of a serving queue: hands every outcome to
    /// `write` as it streams, until every shard has finished (after
    /// [`shutdown`](Self::shutdown)). On a journaled queue each id is
    /// sealed right after `write` returns, and once the stream has
    /// ended with every journaled id sealed the journal compacts to its
    /// empty header — skipped, with a stderr warning, if any is not.
    pub fn deliver(&self, write: impl FnMut(RequestOutcome)) {
        deliver_sealed(
            self.journal.as_ref(),
            std::iter::from_fn(|| self.recv_outcome()),
            write,
        );
    }

    /// Redoes the accepted-but-unsealed requests a crashed daemon left
    /// in its journal `records`, so a `kill -9` mid-workload loses
    /// nothing; returns how many were delivered.
    ///
    /// Each journaled line is parsed with `parser` (the network
    /// front-end's) and must be a submission. The requests run live on
    /// a fresh queue of `shards` shape and `config` — every shard at
    /// once, as the crashed daemon ran them — with no backlog cap
    /// (everything here was accepted once already), each pinned to its
    /// journaled shard. Journaled-cancelled requests are not re-run:
    /// they are reported `cancelled`. Every outcome carries its
    /// original id and client stamp, and all of them go through the
    /// delivery loop of [`deliver`](Self::deliver) in id order, sealed
    /// into `config.journal`, which then compacts. With a warm store the
    /// redo finds identical winners with strictly fewer completed
    /// evaluations.
    ///
    /// # Errors
    ///
    /// A journaled line that does not parse to a submission: a foreign
    /// or hand-edited journal is refused loudly rather than dropping an
    /// accepted request.
    pub fn recover(
        records: &[JournalRecord],
        config: &LiveConfig,
        shards: Option<usize>,
        parser: &LineParser,
        write: impl FnMut(RequestOutcome),
    ) -> Result<usize, String> {
        let pending = unsealed(records);
        let mut outcomes = Vec::with_capacity(pending.len());
        let mut redo = Vec::new();
        for r in &pending {
            let request = match parser(&r.line) {
                Ok(Some(NetDirective::Submit(request))) => request,
                Ok(_) => {
                    return Err(format!(
                        "journal: request {}: journaled line is not a submission",
                        r.id
                    ))
                }
                Err(e) => return Err(format!("journal: request {}: {e}", r.id)),
            };
            if r.cancelled {
                outcomes.push(RequestOutcome {
                    client: r.client.map(|c| c as usize),
                    shard: r.shard.map(|s| s as usize),
                    ..bare_outcome(r.id as usize, &request, RequestStatus::Cancelled)
                });
            } else {
                redo.push((r, request));
            }
        }
        if !redo.is_empty() {
            let queue = ShardedQueue::start(
                LiveConfig {
                    max_pending: 0,
                    journal: None,
                    ..config.clone()
                },
                shards,
            );
            // The redo queue numbers its accepts 0, 1, 2, … in journal
            // order, which is the order of its final report.
            let (owners, requests): (Vec<_>, Vec<_>) = redo.into_iter().unzip();
            for (r, request) in owners.iter().zip(requests) {
                queue
                    .accept(request, r.shard.map(|s| s as usize), None)
                    .map_err(|e| format!("journal: request {}: resubmission failed: {e}", r.id))?;
            }
            let report = queue.shutdown().expect("a fresh queue shuts down once");
            for (mut outcome, r) in report.outcomes.into_iter().zip(owners) {
                outcome.index = r.id as usize;
                outcome.client = r.client.map(|c| c as usize);
                outcomes.push(outcome);
            }
        }
        outcomes.sort_by_key(|o| o.index);
        let delivered = outcomes.len();
        if let Some(journal) = &config.journal {
            journal.owe(pending.iter().map(|r| r.id as usize));
        }
        deliver_sealed(config.journal.as_ref(), outcomes, write);
        Ok(delivered)
    }

    /// Shuts every shard down, drains their backlogs and returns the
    /// merged report: outcomes in global submission order, each stamped
    /// with its shard (when stamping). `None` if the queue was already
    /// shut down.
    pub fn shutdown(&self) -> Option<BatchReport> {
        let reports: Vec<Option<BatchReport>> =
            self.shards.iter().map(LiveQueue::shutdown).collect();
        for forwarder in lock(&self.forwarders).drain(..) {
            let _ = forwarder.join();
        }
        let table = lock(&self.route);
        let mut outcomes = Vec::with_capacity(table.owner.len());
        for (shard, report) in reports.into_iter().enumerate() {
            outcomes.extend(
                report?
                    .outcomes
                    .into_iter()
                    .map(|o| globalize(o, shard, &table.global_of[shard], self.stamped)),
            );
        }
        Some(BatchReport::from_outcomes(outcomes, self.start.elapsed()))
    }

    /// Replays a fixed sharded submission trace over `shards.max(1)`
    /// shards (one unstamped shard for `None`) and returns the merged
    /// outcome stream plus the final report — the sharded extension of
    /// [`LiveQueue::replay`].
    ///
    /// The trace is split into per-shard sub-traces by the
    /// deterministic routing (pins honored, then fingerprint hash +
    /// stealing on the routing counters), and the shards replay
    /// **sequentially in shard-id order** over one shared warm cache.
    /// The merged stream is the per-shard streams concatenated in
    /// shard-id order with global ids and shard stamps; the report
    /// holds one outcome per submission in global order. For a fixed
    /// trace and shard count, both are bit-identical for every
    /// [`LiveConfig::threads`] value.
    pub fn replay(
        trace: ShardTrace,
        config: LiveConfig,
        shards: impl Into<Option<usize>>,
    ) -> (Vec<RequestOutcome>, BatchReport) {
        let (shards, stamped) = layout(shards.into());
        let start = Instant::now();
        // Split the global trace into one local trace per shard.
        let mut table = RouteTable::new(shards);
        let mut local: Vec<Trace> = vec![Trace::new(); shards];
        for ShardTraceEvent { event, shard } in trace.events {
            match event.action {
                TraceAction::Submit(request) => {
                    let (shard, _local) = table.assign(request.soc.fingerprint(), shard);
                    local[shard] =
                        std::mem::take(&mut local[shard]).submit_at(event.generation, request);
                }
                TraceAction::Cancel(id) => {
                    // A cancel of a not-yet-submitted global id is a
                    // no-op, exactly as in a `LiveQueue` trace replay (events
                    // apply in order; unknown handles are skipped).
                    if let Some(&(shard, local_id)) = table.owner.get(id.index()) {
                        local[shard] =
                            std::mem::take(&mut local[shard]).cancel_at(event.generation, local_id);
                    }
                }
            }
        }

        // Sequential shard replay over one cache: shard `s` starts from
        // the exact cache state shards `0..s` left behind — itself
        // thread-count invariant by induction — so cross-shard warm
        // sharing cannot break the byte-identity contract.
        let cache = WarmCache::shared(config.warm_capacity);
        let mut stream = Vec::new();
        let mut outcomes = Vec::with_capacity(table.owner.len());
        for (shard, sub) in local.into_iter().enumerate() {
            let (shard_stream, report) =
                LiveQueue::replay_with_cache(sub, config.clone(), Arc::clone(&cache));
            let global_of = &table.global_of[shard];
            stream.extend(
                shard_stream
                    .into_iter()
                    .map(|o| globalize(o, shard, global_of, stamped)),
            );
            outcomes.extend(
                report
                    .outcomes
                    .into_iter()
                    .map(|o| globalize(o, shard, global_of, stamped)),
            );
        }
        (
            stream,
            BatchReport::from_outcomes(outcomes, start.elapsed()),
        )
    }
}

impl Drop for ShardedQueue {
    fn drop(&mut self) {
        // A facade dropped without `shutdown` still winds every shard
        // down cleanly; join the forwarders so no thread outlives the
        // facade.
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamopt_soc::benchmarks;

    #[test]
    fn routing_prefers_home_until_the_margin() {
        // Home shard = fingerprint % 2.
        let fp = benchmarks::d695().fingerprint();
        let home = (fp % 2) as usize;
        let other = 1 - home;
        let mut loads = vec![0usize; 2];
        assert_eq!(route(fp, &loads), home);
        loads[home] = STEAL_MARGIN - 1;
        assert_eq!(route(fp, &loads), home, "below the margin: stay home");
        loads[home] = STEAL_MARGIN;
        assert_eq!(route(fp, &loads), other, "at the margin: steal");
        loads[other] = 1;
        assert_eq!(route(fp, &loads), home, "margin is relative to the min");
    }

    #[test]
    fn stealing_breaks_ties_by_lowest_shard_id() {
        let fp = benchmarks::d695().fingerprint();
        let shards = 4;
        let home = (fp % shards as u64) as usize;
        let mut loads = vec![0usize; shards];
        loads[home] = STEAL_MARGIN;
        let stolen = route(fp, &loads);
        let expected = (0..shards).find(|&s| s != home || loads[s] == 0).unwrap();
        assert_eq!(stolen, expected);
    }

    #[test]
    fn pins_wrap_and_bypass_stealing() {
        let mut table = RouteTable::new(2);
        table.loads = vec![10, 0];
        let (shard, _) = table.assign(0, Some(4));
        assert_eq!(shard, 0, "pin 4 % 2 shards = shard 0, stealing ignored");
    }

    #[test]
    fn assign_keeps_global_and_local_ids_in_lock_step() {
        let mut table = RouteTable::new(2);
        for i in 0..6 {
            let (shard, local) = table.assign(i as u64, Some(i % 2));
            assert_eq!(table.owner[i], (shard, local));
            assert_eq!(table.global_of[shard][local], i);
        }
        assert_eq!(table.loads, vec![3, 3]);
    }
}
