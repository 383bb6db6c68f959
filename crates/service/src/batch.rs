//! The batch queue — a generation-0 replay on the live dispatcher — and
//! the per-request executor every queue dispatches to.

use tamopt_engine::{CancelHandle, ParallelConfig, SearchBudget};
use tamopt_partition::pipeline::{
    co_optimize, co_optimize_frontier_seeded, co_optimize_top_k, PipelineConfig,
};
use tamopt_partition::CoOptimization;
use tamopt_store::CostColumns;
use tamopt_wrapper::{pareto, TimeTable};

use crate::live::{LiveConfig, LiveQueue, StoreBinding, Trace};
use crate::report::{BatchReport, ResultEntry};
use crate::request::RequestKind;
use crate::Request;

/// Configuration of [`Batch::run`].
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Global budget for the whole batch. The deadline and cancellation
    /// flags are intersected into every request; a node budget caps the
    /// number of requests *dispatched* (it does not leak into the
    /// requests' own partition counters).
    pub budget: SearchBudget,
    /// Worker threads of the shared pool (`0` = one per available CPU,
    /// `1` = inline). Pure execution policy: results are bit-identical
    /// for every value.
    pub threads: usize,
    /// Upper bound on requests dispatched per executor generation. The
    /// executor ramps generations exponentially — 1, 2, 4, … requests,
    /// capped here — and polls the global budget between generations, so
    /// this caps the useful parallelism and, together with the ramp,
    /// fixes the deterministic schedule: changing it can change *which*
    /// requests run under a tight budget, but never any request's
    /// result.
    pub requests_per_generation: usize,
    /// Optional persistent warm-start store. When set, the batch seeds
    /// every request from the store's incumbents (work-saving only —
    /// winners are unaffected), records what it finds back, and saves
    /// the store at the binding's snapshot cadence and at the end of the
    /// run. `None` (the default) keeps
    /// batches fully cold and side-effect-free.
    pub store: Option<StoreBinding>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            budget: SearchBudget::unlimited(),
            threads: 1,
            requests_per_generation: 8,
            store: None,
        }
    }
}

impl BatchConfig {
    /// Default configuration with `threads` workers (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        BatchConfig {
            threads,
            ..Self::default()
        }
    }

    /// Tightens the global budget by a wall-clock limit counted from
    /// **now** — build the config when the batch is about to run.
    pub fn time_limit(mut self, limit: std::time::Duration) -> Self {
        self.budget = self.budget.and_time_limit(limit);
        self
    }
}

/// One queued request plus the cancellation handle minted at submission.
#[derive(Debug, Clone)]
struct Entry {
    /// The request, its budget already carrying the entry's cancel flag.
    request: Request,
    handle: CancelHandle,
}

/// A queue of co-optimization requests sharing one worker pool.
///
/// Push requests with [`Batch::push`] (which returns a per-request
/// [`CancelHandle`]), then execute the whole queue with [`Batch::run`].
/// The batch itself is immutable during a run; handles may be tripped
/// from any thread.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    entries: Vec<Entry>,
}

impl Batch {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues `request`, returning the handle that cancels it — and only
    /// it — cooperatively. A request cancelled mid-run stops at its next
    /// generation boundary and reports partial-but-valid results; its
    /// siblings are unaffected.
    pub fn push(&mut self, request: Request) -> CancelHandle {
        let (budget, handle) = request.budget.clone().cancellable();
        self.entries.push(Entry {
            request: Request { budget, ..request },
            handle: handle.clone(),
        });
        handle
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The cancellation handle of the request at `index` (submission
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn handle(&self, index: usize) -> &CancelHandle {
        &self.entries[index].handle
    }

    /// Runs every queued request on one shared worker pool and returns
    /// the report, outcomes in submission order.
    ///
    /// The batch is a [`LiveQueue::replay`] of a trace that submits
    /// every queued request at generation 0, so it runs on the live
    /// dispatcher: requests are dispatched in priority order (ties keep
    /// submission order), one request per executor chunk, and the
    /// global budget is polled between generations. The pool is split
    /// proportionally across each generation's dispatches — every
    /// request's inner partition scan runs `max(1, N / generation_width)`
    /// wide — which is pure execution policy: results are identical for
    /// every thread count. Requests never dispatched because the budget
    /// ran out are reported as [`RequestStatus::Skipped`]. Per-request
    /// failures (e.g. an infeasible width) are captured as
    /// [`RequestStatus::Failed`] outcomes — they never abort the batch. A
    /// request whose handle was cancelled before the run is still
    /// dispatched and reports [`RequestStatus::Cancelled`] with its first
    /// generation's partial result.
    ///
    /// [`RequestStatus::Skipped`]: crate::RequestStatus::Skipped
    /// [`RequestStatus::Failed`]: crate::RequestStatus::Failed
    /// [`RequestStatus::Cancelled`]: crate::RequestStatus::Cancelled
    pub fn run(&self, config: &BatchConfig) -> BatchReport {
        let trace = self.entries.iter().fold(Trace::new(), |trace, entry| {
            trace.submit_at(0, entry.request.clone())
        });
        let live = LiveConfig {
            budget: config.budget.clone(),
            threads: config.threads,
            requests_per_generation: config.requests_per_generation,
            store: config.store.clone(),
            // A storeless batch stays the classic cold run; with a store,
            // the run-local cache is unbounded.
            warm_start: config.store.is_some(),
            warm_capacity: 0,
            aging: 0,
            max_pending: 0,
            journal: None,
        };
        LiveQueue::replay(trace, live).1
    }
}

/// What one dispatched request produced: the per-entry payload plus the
/// completeness verdict. The headline result (the outcome's legacy
/// single-architecture fields) is derived from the entries by
/// [`RequestResult::headline`].
#[derive(Debug, Clone)]
pub(crate) struct RequestResult {
    /// All architectures the query produced: one entry for a point
    /// query, `k` ranked entries for top-k, one entry per swept width
    /// for a frontier (ascending width, `lower_bound` populated).
    pub(crate) entries: Vec<ResultEntry>,
    /// Whether every entry's scan ran to completion.
    pub(crate) complete: bool,
    /// The request's cost table, compressed for the warm cache — only
    /// when the dispatch asked for it (warm starts on and no table was
    /// cached for this SOC yet).
    pub(crate) columns: Option<CostColumns>,
}

impl RequestResult {
    /// The headline architecture: the entry with the smallest SOC
    /// testing time, ties keeping the earliest entry — rank 1 for a
    /// top-k query, the narrowest Pareto-preferred width for a frontier,
    /// the single entry for a point query.
    pub(crate) fn headline(&self) -> &CoOptimization {
        let mut best = &self.entries[0].result;
        for entry in &self.entries[1..] {
            if entry.result.soc_time() < best.soc_time() {
                best = &entry.result;
            }
        }
        best
    }
}

/// Warm-start material resolved from an incumbent cache at dispatch
/// (see [`crate::LiveQueue`]). Purely work-saving: seeds never change a
/// winner, and an empty seed is a cold start.
#[derive(Debug, Clone, Default)]
pub(crate) struct WarmSeed {
    /// The tightest cached SOC time applicable at the request's own
    /// width — the step-1 `τ` seed of point and top-K scans.
    pub(crate) tau: Option<u64>,
    /// Cached `(width, soc_time)` pairs for frontier sweeps: each time
    /// was achieved at its width, so it seeds every swept width ≥ it
    /// (see [`co_optimize_frontier_seeded`]). Empty for other kinds.
    pub(crate) frontier: Vec<(u32, u64)>,
    /// A ready-made cost table covering the request's width, expanded
    /// from cached [`CostColumns`]. Bit-identical to building the table
    /// from the SOC (each wrapper design depends only on its own width),
    /// so serving it skips per-core wrapper construction without
    /// touching any result.
    pub(crate) table: Option<TimeTable>,
}

/// Runs one request under the intersection of its own budget and the
/// batch-global deadline/cancellation, optionally warm-started with a
/// [`WarmSeed`] (see [`crate::LiveQueue`]'s incumbent cache).
///
/// `inner_threads` is the thread count of the request's inner partition
/// scan — the request's proportional share of the pool,
/// `max(1, pool / generation_width)`. The inner chunk geometry never
/// changes, so the result is bit-identical for every `inner_threads`
/// value — an unseeded point result matches a standalone `co_optimize`
/// run bit for bit. For a frontier request `inner_threads` instead
/// widens the *sweep* (the per-width scans are sequential by design),
/// equally result-invariant.
pub(crate) fn run_request(
    request: &Request,
    global: &SearchBudget,
    seed: &WarmSeed,
    inner_threads: usize,
    want_columns: bool,
) -> Result<RequestResult, String> {
    let table = match &seed.table {
        Some(table) => table.clone(),
        None => TimeTable::new(&request.soc, request.width).map_err(|e| e.to_string())?,
    };
    let columns = want_columns.then(|| CostColumns::from_table(&table));
    let pipeline = PipelineConfig {
        min_tams: request.min_tams,
        max_tams: request.max_tams,
        budget: request.budget.intersect(global),
        seed_tau: seed.tau,
        parallel: ParallelConfig::with_threads(inner_threads.max(1)),
        ..PipelineConfig::up_to_tams(request.max_tams)
    };
    match request.kind {
        RequestKind::Point => {
            let co = co_optimize(&table, request.width, &pipeline).map_err(|e| e.to_string())?;
            Ok(RequestResult {
                complete: co.evaluate_complete,
                entries: vec![ResultEntry {
                    width: request.width,
                    result: co,
                    lower_bound: None,
                }],
                columns,
            })
        }
        RequestKind::TopK { k } => {
            let ranked = co_optimize_top_k(&table, request.width, &pipeline, k)
                .map_err(|e| e.to_string())?;
            Ok(RequestResult {
                complete: ranked.entries.iter().all(|co| co.evaluate_complete),
                entries: ranked
                    .entries
                    .into_iter()
                    .map(|co| ResultEntry {
                        width: request.width,
                        result: co,
                        lower_bound: None,
                    })
                    .collect(),
                columns,
            })
        }
        RequestKind::Frontier {
            min_width,
            max_width,
            step,
        } => {
            // Wire input is validated by `RequestKind::from_str`; the
            // builder path defers degenerate sweeps to this dispatch
            // point, where they become a `Failed` outcome.
            if step == 0 || min_width == 0 || min_width > max_width {
                return Err(format!(
                    "invalid frontier sweep {min_width}..={max_width} step {step}"
                ));
            }
            if max_width != request.width {
                return Err(format!(
                    "frontier sweep maximum {max_width} does not match the request width {} \
                     (use Request::frontier, which keeps them aligned)",
                    request.width
                ));
            }
            let widths: Vec<u32> = (min_width..=max_width).step_by(step as usize).collect();
            let sweep = ParallelConfig::with_threads(inner_threads.max(1));
            let frontier =
                co_optimize_frontier_seeded(&table, &widths, &pipeline, &sweep, &seed.frontier)
                    .map_err(|e| e.to_string())?;
            if frontier.points.is_empty() {
                // Unreachable under the engine's always-run-generation-0
                // guarantee, but a frontier outcome must have a headline.
                return Err("frontier budget expired before any width completed".to_owned());
            }
            Ok(RequestResult {
                complete: frontier.complete,
                entries: frontier
                    .points
                    .into_iter()
                    .map(|(width, co)| ResultEntry {
                        lower_bound: Some(pareto::bottleneck_at_width(&table, width)),
                        width,
                        result: co,
                    })
                    .collect(),
                columns,
            })
        }
    }
}

/// Queues `requests` in order and runs them — [`Batch::push`] +
/// [`Batch::run`] for callers that do not need cancellation handles.
pub fn run_batch(requests: impl IntoIterator<Item = Request>, config: &BatchConfig) -> BatchReport {
    let mut batch = Batch::new();
    for request in requests {
        batch.push(request);
    }
    batch.run(config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RequestStatus;
    use tamopt_soc::benchmarks;

    #[test]
    fn empty_batch_reports_complete() {
        let report = Batch::new().run(&BatchConfig::default());
        assert!(report.complete);
        assert!(report.outcomes.is_empty());
    }

    #[test]
    fn failed_requests_do_not_abort_the_batch() {
        let mut batch = Batch::new();
        // A degenerate frontier sweep (zero step) fails at dispatch.
        batch.push(
            Request::new(benchmarks::d695(), 16)
                .unwrap()
                .frontier(16..=16, 0),
        );
        batch.push(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2));
        let report = batch.run(&BatchConfig::default());
        assert!(report.complete, "failure is an outcome, not an abort");
        assert_eq!(report.outcomes[0].status, RequestStatus::Failed);
        assert!(report.outcomes[0].error.is_some());
        assert_eq!(report.outcomes[1].status, RequestStatus::Complete);
        assert!(report.outcomes[1].soc_time().is_some());
    }

    #[test]
    fn node_budget_dispatches_highest_priority_first() {
        let mut batch = Batch::new();
        batch.push(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2)); // priority 0
        batch.push(
            Request::new(benchmarks::d695(), 16)
                .unwrap()
                .max_tams(2)
                .priority(5),
        );
        let config = BatchConfig {
            budget: SearchBudget::node_limited(1),
            ..BatchConfig::default()
        };
        let report = batch.run(&config);
        assert!(!report.complete);
        assert_eq!(
            report.outcomes[0].status,
            RequestStatus::Skipped,
            "the low-priority submission must be the one skipped"
        );
        assert_eq!(report.outcomes[1].status, RequestStatus::Complete);
    }

    #[test]
    fn equal_priorities_dispatch_in_submission_order() {
        let mut batch = Batch::new();
        batch.push(Request::new(benchmarks::d695(), 16).unwrap().max_tams(2));
        batch.push(Request::new(benchmarks::d695(), 24).unwrap().max_tams(2));
        let config = BatchConfig {
            budget: SearchBudget::node_limited(1),
            ..BatchConfig::default()
        };
        let report = batch.run(&config);
        assert_eq!(report.outcomes[0].status, RequestStatus::Complete);
        assert_eq!(report.outcomes[1].status, RequestStatus::Skipped);
    }
}
