//! The `Partition_evaluate` heuristic (Figure 3 of the paper).
//!
//! For every TAM count `B` in the configured range and every unique
//! partition of the total width `W` into `B` parts, the partition is
//! scored with the `Core_assign` heuristic, carrying the best-known SOC
//! testing time `τ` across evaluations so that most partitions abort
//! early (pruning level 2). The result is the paper's *intermediate*
//! solution to *P_PAW* / *P_NPAW*; the final exact optimization step
//! lives in [`crate::pipeline`].
//!
//! Before a partition's cost matrix is even built, the scan checks it
//! against the table's bottleneck floor
//! ([`TimeTable::bottleneck_floor`], `floor[w] = max_c min_{x≤w}
//! T_c(x)`): when `floor[widest part] ≥ τ`, the partition is counted as
//! aborted and skipped. The skip is exact. A completed `Core_assign`
//! puts every core on a TAM no wider than the widest part, so some TAM
//! ends loaded with at least `floor[widest]`, and the run would abort at
//! that assignment at the latest. Winners, rankings and [`PruneStats`]
//! are therefore identical with and without the skip; only the work
//! spent on doomed partitions disappears.
//!
//! The enumeration runs on the deterministic chunked executor of
//! [`tamopt_engine`]: partitions are split into index-ordered chunks,
//! chunks of one generation are scored concurrently against a shared
//! [`SharedIncumbent`] `τ`-bound, and results reduce in chunk order —
//! the winner is the lowest-indexed partition achieving the best time,
//! so `threads = N` is bit-identical to `threads = 1` (statistics
//! included). A [`SearchBudget`] bounds the whole scan; a truncated run
//! still returns the best partition of the generations that finished.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use serde::{Deserialize, Serialize};
use tamopt_assign::{
    core_assign_into, AssignError, AssignResult, AssignScratch, CoreAssignOptions, CostMatrix,
    TamSet,
};
use tamopt_engine::{search_chunks_with, ParallelConfig, Ranking, SearchBudget, SharedIncumbent};
use tamopt_wrapper::TimeTable;

use crate::enumerate::Partitions;
use crate::PartitionError;

/// Pruning statistics of one `Partition_evaluate` run — the quantities
/// behind the paper's Table 1.
///
/// The counting unit is defined by the producing search: here and in
/// [`crate::pipeline`] it is **partitions**; the exhaustive baseline's
/// [`crate::exhaustive::ExhaustiveResult::stats`] reuses the type with
/// **branch-and-bound nodes**. Do not merge statistics across searches
/// with different units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PruneStats {
    /// Unique partitions enumerated (pruning level 1 already applied).
    pub enumerated: u64,
    /// Partitions whose evaluation ran to completion.
    pub completed: u64,
    /// Partitions whose evaluation was aborted by the `τ` bound. This
    /// includes the partitions the scan skips before building their
    /// cost matrix because the bottleneck floor of their widest part
    /// already reaches `τ` (`Core_assign` would abort on them).
    pub aborted: u64,
}

impl PruneStats {
    /// The paper's efficiency measure `E = completed / estimate`, where
    /// `estimate` is the number of unique partitions (Table 1 uses the
    /// asymptotic `V(W,B)`; pass whichever denominator is wanted).
    pub fn efficiency(&self, denominator: f64) -> f64 {
        if denominator <= 0.0 {
            return 0.0;
        }
        self.completed as f64 / denominator
    }

    /// Folds another (per-chunk) statistic into this one. Associative
    /// and commutative — parallel chunk merges cannot change totals —
    /// and it preserves the invariant
    /// `enumerated == completed + aborted`.
    pub fn merge(&mut self, other: PruneStats) {
        self.enumerated += other.enumerated;
        self.completed += other.completed;
        self.aborted += other.aborted;
    }
}

impl std::ops::AddAssign for PruneStats {
    fn add_assign(&mut self, other: PruneStats) {
        self.merge(other);
    }
}

/// Configuration of [`partition_evaluate`].
#[derive(Debug, Clone)]
pub struct EvaluateConfig {
    /// Smallest TAM count to consider (≥ 1).
    pub min_tams: u32,
    /// Largest TAM count to consider (inclusive).
    pub max_tams: u32,
    /// `Core_assign` tie-break switches.
    pub options: CoreAssignOptions,
    /// Whether to carry the `τ` bound into `Core_assign` (pruning
    /// level 2). Disabled only by the ablation benches.
    pub prune: bool,
    /// Wall-clock / node / cancellation budget for the whole scan.
    pub budget: SearchBudget,
    /// Thread count and chunk geometry of the parallel enumeration.
    pub parallel: ParallelConfig,
    /// Warm-start seed: an SOC testing time **known to be achievable**
    /// for this table (e.g. from an earlier request on the same SOC at a
    /// width ≤ this one). The scan's `τ` bound starts at `seed + 1`
    /// instead of `∞`, so evaluations that cannot match the seed abort
    /// immediately — same winner, strictly fewer completed evaluations.
    /// The seed is pruning-only: if it turns out unreachable here (the
    /// transfer across widths is heuristic), the scan falls back to a
    /// cold rescan rather than returning nothing.
    pub seed_tau: Option<u64>,
    /// Cross-scan [`MatrixMemo`]: when several scans run over the *same*
    /// [`TimeTable`] (a `Frontier` sweep across widths), canonical cost
    /// matrices built by one scan seed the per-worker memos of the next.
    /// Purely a work-saving device — a memo hit and a rebuild produce
    /// the same matrix, so results are unaffected.
    pub shared_memo: Option<Arc<MatrixMemo>>,
}

/// Cross-scan cache of canonical cost matrices keyed by effective-width
/// signature (see `ScanScratch`), shared by the widths of a `Frontier`
/// sweep over one [`TimeTable`].
///
/// Workers snapshot the map when their scratch is created and publish
/// newly built matrices back, so a width solved later starts with the
/// saturated-signature matrices of the widths solved earlier — the
/// paper's plateau makes wide widths share almost everything.
///
/// Never use one memo across *different* tables: signatures are only
/// meaningful relative to the table that produced them.
#[derive(Debug, Default)]
pub struct MatrixMemo {
    map: Mutex<HashMap<Vec<u32>, CostMatrix>>,
}

impl MatrixMemo {
    /// Creates an empty shared memo.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Number of cached canonical matrices.
    pub fn len(&self) -> usize {
        self.map.lock().map(|m| m.len()).unwrap_or(0)
    }

    /// Whether nothing has been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn snapshot(&self) -> HashMap<Vec<u32>, CostMatrix> {
        self.map.lock().map(|m| m.clone()).unwrap_or_default()
    }

    fn publish(&self, signature: &[u32], matrix: &CostMatrix) {
        if let Ok(mut map) = self.map.lock() {
            if map.len() < MEMO_CAP && !map.contains_key(signature) {
                map.insert(signature.to_vec(), matrix.clone());
            }
        }
    }
}

impl EvaluateConfig {
    /// Evaluates every TAM count from 1 to `max_tams` (problem
    /// *P_NPAW*).
    pub fn up_to_tams(max_tams: u32) -> Self {
        EvaluateConfig {
            min_tams: 1,
            max_tams,
            options: CoreAssignOptions::default(),
            prune: true,
            budget: SearchBudget::unlimited(),
            parallel: ParallelConfig::default(),
            seed_tau: None,
            shared_memo: None,
        }
    }

    /// Evaluates exactly `tams` TAMs (problem *P_PAW*).
    pub fn exact_tams(tams: u32) -> Self {
        EvaluateConfig {
            min_tams: tams,
            max_tams: tams,
            ..Self::up_to_tams(tams)
        }
    }
}

/// Result of [`partition_evaluate`]: the best partition found, the
/// heuristic assignment achieving it, and pruning statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalResult {
    /// The winning TAM set (widths in non-decreasing order).
    pub tams: TamSet,
    /// The heuristic core assignment on the winning TAM set.
    pub result: AssignResult,
    /// Pruning statistics over the whole run.
    pub stats: PruneStats,
    /// Whether the whole partition space was scanned (`false` when the
    /// [`SearchBudget`] stopped the scan early; the result is then the
    /// best over `stats.enumerated` partitions).
    pub complete: bool,
}

/// One entry of a ranked scan: a partition and the heuristic assignment
/// scored on it. Shared by [`partition_evaluate_top_k`] and the ranked
/// exhaustive baseline ([`crate::exhaustive::solve_top_k`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedPartition {
    /// The partition's TAM set (widths in non-decreasing order).
    pub tams: TamSet,
    /// The assignment scored on it (heuristic here, exact in the
    /// exhaustive baseline).
    pub result: AssignResult,
}

impl RankedPartition {
    /// SOC testing time of this entry, in clock cycles.
    pub fn soc_time(&self) -> u64 {
        self.result.soc_time()
    }
}

/// Result of [`partition_evaluate_top_k`]: the `k` best partitions found,
/// best first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankedEvalResult {
    /// Up to `k` entries ordered by `(soc_time, partition index)` — the
    /// scan's deterministic tie-break. Fewer than `k` when the partition
    /// space itself is smaller.
    pub entries: Vec<RankedPartition>,
    /// Pruning statistics over the whole run (the bound is the running
    /// *k-th best* time, so completion counts grow with `k`).
    pub stats: PruneStats,
    /// Whether the whole partition space was scanned.
    pub complete: bool,
}

/// A scan candidate retained by the bounded best-K heap. Ordering (and
/// therefore ranking equality) is on `(time, index)` only: the global
/// partition index is unique per candidate, so the order is total and
/// the retained set is independent of evaluation interleaving.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    pub(crate) time: u64,
    /// Global index of the partition in the canonical enumeration
    /// (TAM counts ascending, partitions in `Increment` order) — the
    /// deterministic tie-break for equal times.
    pub(crate) index: u64,
    pub(crate) tams: TamSet,
    pub(crate) result: AssignResult,
}

impl Candidate {
    pub(crate) fn key(&self) -> (u64, u64) {
        (self.time, self.index)
    }
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Per-worker reusable state of the scan hot path: after warm-up, one
/// partition evaluation performs **zero heap allocations** unless it
/// improves the incumbent (materializing a result).
///
/// * `matrix` / `assign` are grow-once buffers rebuilt in place per
///   partition ([`CostMatrix::from_table_into`] / [`core_assign_into`]).
/// * `memo` caches cost matrices keyed by the partition's
///   **effective-width signature**
///   ([`TimeTable::effective_widths`]): parts past a core-set's Pareto
///   saturation width produce identical cost columns — the paper's own
///   plateau observation — so partitions like `4+40` and `4+64` (both
///   saturated) share one cached matrix instead of rebuilding it. A
///   memo hit copies the cached costs and installs the partition's
///   *actual* widths, so tie-breaks (which compare widths) behave
///   bit-identically to an uncached build. Signatures equal to the
///   actual widths are unique to their partition and skip the memo
///   entirely — caching them could only waste memory.
///
/// The memo is per worker: which partitions share a scratch depends on
/// thread count, but a memo hit and a rebuild produce the same matrix,
/// so results stay thread-count invariant.
struct ScanScratch {
    matrix: CostMatrix,
    assign: AssignScratch,
    signature: Vec<u32>,
    memo: HashMap<Vec<u32>, CostMatrix>,
    /// Chunk-local bounded best-K heap, drained at the end of every
    /// chunk (a heap persisting across chunks would make retention
    /// depend on which chunks share a worker, i.e. on thread count).
    ranking: Ranking<Candidate>,
    /// Cross-scan memo this worker snapshots from and publishes to
    /// (frontier sweeps); `None` for standalone scans.
    shared: Option<Arc<MatrixMemo>>,
}

/// Upper bound on memoized matrices per worker — a safety valve for
/// pathological tables, far above what the benchmark SOCs produce.
const MEMO_CAP: usize = 4096;

impl ScanScratch {
    fn new(k: usize, shared: Option<Arc<MatrixMemo>>) -> Self {
        ScanScratch {
            matrix: CostMatrix::scratch(),
            assign: AssignScratch::new(),
            signature: Vec::new(),
            // Start from everything sibling scans already built.
            memo: shared
                .as_deref()
                .map(MatrixMemo::snapshot)
                .unwrap_or_default(),
            ranking: Ranking::new(k),
            shared,
        }
    }

    /// Rebuilds `self.matrix` for `tams`, via the memo when the
    /// partition's effective-width signature collapses (some part is
    /// past saturation), directly from the table otherwise.
    fn rebuild_matrix(
        &mut self,
        table: &TimeTable,
        tams: &TamSet,
        effective: &[u32],
    ) -> Result<(), AssignError> {
        self.signature.clear();
        self.signature
            .extend(tams.widths().iter().map(|&w| effective[w as usize]));
        if self.signature.as_slice() == tams.widths() {
            // Canonical widths: no other partition shares this matrix.
            return CostMatrix::from_table_into(table, tams, &mut self.matrix);
        }
        if !self.memo.contains_key(self.signature.as_slice()) {
            if self.memo.len() >= MEMO_CAP {
                return CostMatrix::from_table_into(table, tams, &mut self.matrix);
            }
            let canonical =
                TamSet::new(self.signature.iter().copied()).expect("effective widths are positive");
            let built = CostMatrix::from_table(table, &canonical)?;
            if let Some(shared) = &self.shared {
                shared.publish(&self.signature, &built);
            }
            self.memo.insert(self.signature.clone(), built);
        }
        let cached = &self.memo[self.signature.as_slice()];
        self.matrix.copy_from(cached, tams.widths());
        Ok(())
    }
}

/// Runs `Partition_evaluate`: enumerates every unique partition of
/// `total_width` over the configured TAM-count range, scores each with
/// `Core_assign` under the running best-known bound `τ`, and returns the
/// best.
///
/// With `parallel.threads > 1` the chunked scan runs concurrently; the
/// returned [`EvalResult`] (winner *and* statistics) is bit-identical to
/// a single-threaded run. The budget is polled at generation boundaries,
/// and the first generation always runs, so even an already-expired
/// budget yields a valid (partial) result.
///
/// # Errors
///
/// * [`PartitionError::ZeroWidth`] if `total_width == 0`;
/// * [`PartitionError::EmptyTamRange`] for an empty TAM-count range;
/// * [`PartitionError::TableTooNarrow`] if `table` does not cover
///   `total_width`;
/// * [`PartitionError::NoFeasiblePartition`] if no TAM count in range
///   admits any partition (all exceed `total_width`).
///
/// # Example
///
/// ```
/// use tamopt_partition::{partition_evaluate, EvaluateConfig};
/// use tamopt_soc::benchmarks;
/// use tamopt_wrapper::TimeTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let soc = benchmarks::d695();
/// let table = TimeTable::new(&soc, 24)?;
/// let eval = partition_evaluate(&table, 24, &EvaluateConfig::up_to_tams(4))?;
/// assert_eq!(eval.tams.total_width(), 24);
/// assert!(eval.stats.completed >= 1);
/// assert!(eval.complete);
/// # Ok(())
/// # }
/// ```
pub fn partition_evaluate(
    table: &TimeTable,
    total_width: u32,
    config: &EvaluateConfig,
) -> Result<EvalResult, PartitionError> {
    let ranked = partition_evaluate_top_k(table, total_width, config, 1)?;
    let RankedPartition { tams, result } = ranked
        .entries
        .into_iter()
        .next()
        .expect("a k=1 scan with entries yields exactly one");
    Ok(EvalResult {
        tams,
        result,
        stats: ranked.stats,
        complete: ranked.complete,
    })
}

/// Runs `Partition_evaluate` keeping the `k` best partitions instead of
/// one: the typed `TopK` query kind of the service layer, and the
/// single-winner scan's actual implementation (`k = 1`).
///
/// The scan carries a bounded best-K heap per worker chunk (capped
/// [`Ranking`], ordered by `(soc_time, partition index)`), merged into a
/// global heap at generation barriers in chunk-index order. The pruning
/// bound generalizes from "best time so far" to "**k-th best** time so
/// far": a partition that cannot beat the current k-th best can never
/// enter the ranking, so `τ`-pruning (level 2) keeps working — it just
/// admits more completions as `k` grows. With `k = 1` the heap degenerates
/// to the single incumbent and the scan is bit-identical to
/// [`partition_evaluate`] — winner, [`PruneStats`] and all (that function
/// *is* this one).
///
/// A warm-start seed ([`EvaluateConfig::seed_tau`]) is honored only for
/// `k = 1`: the seed is a best-time bound, and opening the scan there
/// would wrongly abort the candidates of ranks `2..=k`, whose times are
/// worse than the best by definition.
///
/// # Errors
///
/// Same validation errors as [`partition_evaluate`].
///
/// # Panics
///
/// Panics if `k == 0` (a best-0 query is meaningless).
///
/// # Example
///
/// ```
/// use tamopt_partition::{partition_evaluate_top_k, EvaluateConfig};
/// use tamopt_soc::benchmarks;
/// use tamopt_wrapper::TimeTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let table = TimeTable::new(&benchmarks::d695(), 24)?;
/// let ranked = partition_evaluate_top_k(&table, 24, &EvaluateConfig::up_to_tams(4), 3)?;
/// assert_eq!(ranked.entries.len(), 3);
/// // Entries are ranked best-first.
/// assert!(ranked.entries[0].soc_time() <= ranked.entries[1].soc_time());
/// # Ok(())
/// # }
/// ```
pub fn partition_evaluate_top_k(
    table: &TimeTable,
    total_width: u32,
    config: &EvaluateConfig,
    k: usize,
) -> Result<RankedEvalResult, PartitionError> {
    assert!(k > 0, "top-k scan requires k >= 1");
    validate(table, total_width, config.min_tams, config.max_tams)?;

    /// Outcome of one index-ordered chunk of partitions.
    struct ChunkEval {
        stats: PruneStats,
        /// The chunk's best candidates, ascending, at most `k`.
        best: Vec<Candidate>,
    }

    // A warm-start seed opens the scan at `seed + 1`: any partition that
    // cannot *match* the seeded time aborts, while one achieving exactly
    // the seed (e.g. a repeated request) still completes and wins. Only
    // sound for k = 1 — see the doc above.
    let seed_tau = config.seed_tau.filter(|_| k == 1);
    let incumbent = match seed_tau {
        Some(seed) => SharedIncumbent::seeded(seed.saturating_add(1)),
        None => SharedIncumbent::unbounded(),
    };
    let mut stats = PruneStats::default();
    // The global ranking; its worst entry (once full) is the k-th best
    // time, published to workers through `incumbent` at barriers only.
    let mut global: Ranking<Candidate> = Ranking::new(k);

    // Width canonicalization for the per-worker matrix memo (see
    // `ScanScratch`) and the bottleneck floor of the skip below:
    // computed once, shared read-only by all workers.
    let effective = table.effective_widths();
    let floor = table.bottleneck_floor();

    let items = (config.min_tams..=config.max_tams).flat_map(|b| Partitions::new(total_width, b));
    let status = search_chunks_with(
        items,
        &config.parallel,
        &config.budget,
        || ScanScratch::new(k, config.shared_memo.clone()),
        |scratch: &mut ScanScratch,
         base,
         chunk: Vec<Vec<u32>>|
         -> Result<ChunkEval, PartitionError> {
            // The shared k-th-best bound as of this chunk's generation,
            // tightened locally by the chunk's own heap as it fills.
            let snapshot = incumbent.get();
            scratch.ranking.clear();
            let mut out_stats = PruneStats::default();
            for (offset, widths) in chunk.into_iter().enumerate() {
                out_stats.enumerated += 1;
                // A candidate worse than the chunk's own k-th best can
                // never enter the global top-k either, so the local
                // heap's worst (once full) is a sound extra bound.
                let tau = match scratch.ranking.worst() {
                    Some(worst) if scratch.ranking.is_full() => snapshot.min(worst.time),
                    _ => snapshot,
                };
                let bound = if config.prune && tau != u64::MAX {
                    Some(tau)
                } else {
                    None
                };
                // Bottleneck-floor skip (exact, see the module doc):
                // `Core_assign` would abort against `bound`. Sound only
                // with at least one core (with none it completes at 0),
                // which holds: `SocBuilder` rejects an empty SOC and
                // `TimeTable::from_matrix` asserts a row.
                let widest = *widths.last().expect("partitions are non-empty");
                if bound.is_some_and(|tau| floor[widest as usize] >= tau) {
                    out_stats.aborted += 1;
                    continue;
                }
                let tams = TamSet::new(widths).expect("partition parts are positive");
                scratch.rebuild_matrix(table, &tams, &effective)?;
                match core_assign_into(&scratch.matrix, bound, &config.options, &mut scratch.assign)
                {
                    Some(time) => {
                        out_stats.completed += 1;
                        let index = base + offset as u64;
                        let retain = match scratch.ranking.worst() {
                            Some(worst) if scratch.ranking.is_full() => (time, index) < worst.key(),
                            _ => true,
                        };
                        if retain {
                            // Materializing the result is the hot path's
                            // only allocation, paid just for candidates
                            // entering the chunk's ranking.
                            scratch.ranking.offer(Candidate {
                                time,
                                index,
                                tams,
                                result: scratch.assign.result(&scratch.matrix),
                            });
                        }
                    }
                    None => {
                        out_stats.aborted += 1;
                    }
                }
            }
            Ok(ChunkEval {
                stats: out_stats,
                best: scratch.ranking.drain_sorted(),
            })
        },
        |chunk: ChunkEval| {
            stats.merge(chunk.stats);
            // Chunks merge in index order and the candidate order is
            // total on (time, index), so the global ranking ends up with
            // the k lowest-(time, index) partitions — for k = 1 exactly
            // the sequential single-incumbent winner.
            for candidate in chunk.best {
                global.offer(candidate);
            }
            if global.is_full() {
                if let Some(worst) = global.worst() {
                    incumbent.tighten(worst.time);
                }
            }
            Ok(())
        },
    )?;

    debug_assert_eq!(stats.enumerated, stats.completed + stats.aborted);
    if global.is_empty() {
        if seed_tau.is_some() {
            // The seed was unreachable at this width / TAM range (the
            // warm-start transfer is heuristic, not a guarantee): rescan
            // cold so seeding can never change *whether* a result
            // exists. The fallback is deterministic — it depends only on
            // the (deterministic) seeded scan finding nothing.
            let cold = partition_evaluate_top_k(
                table,
                total_width,
                &EvaluateConfig {
                    seed_tau: None,
                    ..config.clone()
                },
                k,
            )?;
            let mut merged = stats;
            merged.merge(cold.stats);
            return Ok(RankedEvalResult {
                stats: merged,
                ..cold
            });
        }
        return Err(PartitionError::NoFeasiblePartition { total_width });
    }
    Ok(RankedEvalResult {
        entries: global
            .into_sorted_vec()
            .into_iter()
            .map(|c| RankedPartition {
                tams: c.tams,
                result: c.result,
            })
            .collect(),
        stats,
        complete: status.is_complete(),
    })
}

pub(crate) fn validate(
    table: &TimeTable,
    total_width: u32,
    min_tams: u32,
    max_tams: u32,
) -> Result<(), PartitionError> {
    if total_width == 0 {
        return Err(PartitionError::ZeroWidth);
    }
    if min_tams == 0 || min_tams > max_tams {
        return Err(PartitionError::EmptyTamRange { min_tams, max_tams });
    }
    if table.max_width() < total_width {
        return Err(PartitionError::TableTooNarrow {
            required: total_width,
            max_width: table.max_width(),
        });
    }
    if min_tams > total_width {
        return Err(PartitionError::NoFeasiblePartition { total_width });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::count;
    use std::time::Duration;
    use tamopt_soc::benchmarks;

    fn d695_table(width: u32) -> TimeTable {
        TimeTable::new(&benchmarks::d695(), width).unwrap()
    }

    #[test]
    fn finds_a_partition_for_fixed_b() {
        let table = d695_table(32);
        let eval = partition_evaluate(&table, 32, &EvaluateConfig::exact_tams(2)).unwrap();
        assert_eq!(eval.tams.len(), 2);
        assert_eq!(eval.tams.total_width(), 32);
        assert!(eval.complete);
        assert_eq!(
            eval.stats.enumerated,
            count::unique_partitions(32, 2),
            "every unique partition is enumerated"
        );
        assert_eq!(
            eval.stats.completed + eval.stats.aborted,
            eval.stats.enumerated
        );
    }

    #[test]
    fn pruning_skips_most_partitions() {
        let table = d695_table(48);
        let eval = partition_evaluate(&table, 48, &EvaluateConfig::up_to_tams(4)).unwrap();
        assert!(
            eval.stats.aborted > eval.stats.completed,
            "τ-pruning should dominate: {:?}",
            eval.stats
        );
    }

    #[test]
    fn pruning_does_not_change_the_result() {
        let table = d695_table(40);
        let pruned = partition_evaluate(&table, 40, &EvaluateConfig::up_to_tams(3)).unwrap();
        let unpruned = partition_evaluate(
            &table,
            40,
            &EvaluateConfig {
                prune: false,
                ..EvaluateConfig::up_to_tams(3)
            },
        )
        .unwrap();
        assert_eq!(pruned.result.soc_time(), unpruned.result.soc_time());
        assert_eq!(unpruned.stats.aborted, 0);
        assert_eq!(unpruned.stats.completed, unpruned.stats.enumerated);
    }

    #[test]
    fn more_tams_never_hurt_the_heuristic_bound() {
        let table = d695_table(32);
        let b2 = partition_evaluate(&table, 32, &EvaluateConfig::up_to_tams(2)).unwrap();
        let b4 = partition_evaluate(&table, 32, &EvaluateConfig::up_to_tams(4)).unwrap();
        assert!(b4.result.soc_time() <= b2.result.soc_time());
    }

    #[test]
    fn single_tam_is_the_serial_schedule() {
        let table = d695_table(16);
        let eval = partition_evaluate(&table, 16, &EvaluateConfig::exact_tams(1)).unwrap();
        let serial: u64 = (0..table.num_cores()).map(|c| table.time(c, 16)).sum();
        assert_eq!(eval.result.soc_time(), serial);
        assert_eq!(eval.stats.enumerated, 1);
    }

    #[test]
    fn validation_errors() {
        let table = d695_table(16);
        assert_eq!(
            partition_evaluate(&table, 0, &EvaluateConfig::up_to_tams(2)).unwrap_err(),
            PartitionError::ZeroWidth
        );
        assert_eq!(
            partition_evaluate(&table, 16, &EvaluateConfig::exact_tams(0)).unwrap_err(),
            PartitionError::EmptyTamRange {
                min_tams: 0,
                max_tams: 0
            }
        );
        assert_eq!(
            partition_evaluate(
                &table,
                16,
                &EvaluateConfig {
                    min_tams: 3,
                    max_tams: 2,
                    ..EvaluateConfig::up_to_tams(2)
                }
            )
            .unwrap_err(),
            PartitionError::EmptyTamRange {
                min_tams: 3,
                max_tams: 2
            }
        );
        assert_eq!(
            partition_evaluate(&table, 32, &EvaluateConfig::up_to_tams(2)).unwrap_err(),
            PartitionError::TableTooNarrow {
                required: 32,
                max_width: 16
            }
        );
        assert_eq!(
            partition_evaluate(&table, 4, &EvaluateConfig::exact_tams(9)).unwrap_err(),
            PartitionError::NoFeasiblePartition { total_width: 4 }
        );
    }

    #[test]
    fn stats_efficiency() {
        let stats = PruneStats {
            enumerated: 100,
            completed: 2,
            aborted: 98,
        };
        assert!((stats.efficiency(100.0) - 0.02).abs() < 1e-12);
        assert_eq!(stats.efficiency(0.0), 0.0);
    }

    #[test]
    fn stats_merge_is_associative() {
        let chunks = [
            PruneStats {
                enumerated: 10,
                completed: 3,
                aborted: 7,
            },
            PruneStats {
                enumerated: 5,
                completed: 5,
                aborted: 0,
            },
            PruneStats {
                enumerated: 8,
                completed: 1,
                aborted: 7,
            },
        ];
        // (a + b) + c == a + (b + c) == sum in any order.
        let mut left = chunks[0];
        left.merge(chunks[1]);
        left.merge(chunks[2]);
        let mut right = chunks[1];
        right.merge(chunks[2]);
        let mut a = chunks[0];
        a.merge(right);
        assert_eq!(left, a);
        let mut reversed = chunks[2];
        reversed += chunks[1];
        reversed += chunks[0];
        assert_eq!(left, reversed);
        assert_eq!(left.enumerated, left.completed + left.aborted);
    }

    #[test]
    fn result_partition_is_canonical() {
        let table = d695_table(24);
        let eval = partition_evaluate(&table, 24, &EvaluateConfig::up_to_tams(5)).unwrap();
        let w = eval.tams.widths();
        assert!(w.windows(2).all(|p| p[0] <= p[1]));
    }

    #[test]
    fn expired_budget_returns_partial_but_valid_result() {
        let table = d695_table(48);
        let config = EvaluateConfig {
            budget: SearchBudget::time_limited(Duration::ZERO),
            ..EvaluateConfig::up_to_tams(6)
        };
        let eval = partition_evaluate(&table, 48, &config).unwrap();
        assert!(!eval.complete, "zero budget cannot scan everything");
        // Exactly the first generation (one chunk) ran.
        assert_eq!(eval.stats.enumerated, config.parallel.chunk_size as u64);
        assert_eq!(
            eval.stats.enumerated,
            eval.stats.completed + eval.stats.aborted
        );
        assert_eq!(eval.tams.total_width(), 48, "partial result is valid");
    }

    #[test]
    fn seeded_scan_keeps_the_winner_with_strictly_fewer_completions() {
        let table = d695_table(32);
        let cold = partition_evaluate(&table, 32, &EvaluateConfig::up_to_tams(4)).unwrap();
        // Seeding with the cold run's own achieved time models a
        // warm-start cache hit (same SOC seen before).
        let seeded = partition_evaluate(
            &table,
            32,
            &EvaluateConfig {
                seed_tau: Some(cold.result.soc_time()),
                ..EvaluateConfig::up_to_tams(4)
            },
        )
        .unwrap();
        assert_eq!(
            seeded.tams, cold.tams,
            "warm start must not change the winner"
        );
        assert_eq!(seeded.result, cold.result);
        assert!(seeded.complete);
        assert_eq!(seeded.stats.enumerated, cold.stats.enumerated);
        assert!(
            seeded.stats.completed < cold.stats.completed,
            "the seed must abort evaluations the cold scan completed: {:?} vs {:?}",
            seeded.stats,
            cold.stats
        );
    }

    #[test]
    fn seeded_scan_is_thread_count_invariant() {
        let table = d695_table(32);
        let cold = partition_evaluate(&table, 32, &EvaluateConfig::up_to_tams(4)).unwrap();
        let run = |threads: usize| {
            partition_evaluate(
                &table,
                32,
                &EvaluateConfig {
                    seed_tau: Some(cold.result.soc_time()),
                    parallel: ParallelConfig::with_threads(threads),
                    ..EvaluateConfig::up_to_tams(4)
                },
            )
            .unwrap()
        };
        let reference = run(1);
        for threads in [2, 8] {
            assert_eq!(run(threads), reference, "threads {threads}");
        }
    }

    #[test]
    fn unreachable_seed_falls_back_to_a_cold_rescan() {
        let table = d695_table(24);
        let cold = partition_evaluate(&table, 24, &EvaluateConfig::up_to_tams(3)).unwrap();
        let seeded = partition_evaluate(
            &table,
            24,
            &EvaluateConfig {
                seed_tau: Some(0), // no architecture tests in 0 cycles
                ..EvaluateConfig::up_to_tams(3)
            },
        )
        .unwrap();
        assert_eq!(seeded.tams, cold.tams);
        assert_eq!(seeded.result, cold.result);
        assert!(seeded.complete);
        // The wasted seeded pass is accounted for, not hidden.
        assert_eq!(seeded.stats.enumerated, 2 * cold.stats.enumerated);
        assert_eq!(
            seeded.stats.enumerated,
            seeded.stats.completed + seeded.stats.aborted
        );
    }

    #[test]
    fn rebuild_matrix_equals_a_direct_build_for_every_partition() {
        // The memo must be invisible: whether a matrix comes from the
        // effective-width cache or straight from the table, it must be
        // bit-identical — including the *actual* (uncollapsed) widths
        // the heuristic's tie-breaks compare.
        let table = d695_table(64);
        let effective = table.effective_widths();
        let mut scratch = ScanScratch::new(1, None);
        let mut memo_hits = 0u32;
        for b in 1..=3u32 {
            for widths in Partitions::new(64, b) {
                let tams = TamSet::new(widths).unwrap();
                let sig: Vec<u32> = tams
                    .widths()
                    .iter()
                    .map(|&w| effective[w as usize])
                    .collect();
                if sig != tams.widths() {
                    memo_hits += 1;
                }
                scratch.rebuild_matrix(&table, &tams, &effective).unwrap();
                let direct = CostMatrix::from_table(&table, &tams).unwrap();
                assert_eq!(scratch.matrix, direct, "widths {:?}", tams.widths());
            }
        }
        assert!(memo_hits > 0, "W=64 must exercise the saturated-part memo");
    }

    #[test]
    fn memoized_scan_matches_a_naive_unpruned_scan() {
        // End-to-end cross-check of the allocation-free hot path against
        // the straightforward allocate-per-partition loop it replaced.
        use tamopt_assign::{core_assign, CoreAssignOptions};
        let table = d695_table(64);
        let config = EvaluateConfig {
            prune: false,
            ..EvaluateConfig::up_to_tams(3)
        };
        let eval = partition_evaluate(&table, 64, &config).unwrap();
        let mut best: Option<(u64, TamSet, AssignResult)> = None;
        for b in 1..=3u32 {
            for widths in Partitions::new(64, b) {
                let tams = TamSet::new(widths).unwrap();
                let costs = CostMatrix::from_table(&table, &tams).unwrap();
                let result = core_assign(&costs, None, &CoreAssignOptions::default())
                    .into_result()
                    .expect("unbounded");
                if best.as_ref().is_none_or(|(t, _, _)| result.soc_time() < *t) {
                    best = Some((result.soc_time(), tams, result));
                }
            }
        }
        let (_, tams, result) = best.unwrap();
        assert_eq!(eval.tams, tams);
        assert_eq!(eval.result, result);
    }

    #[test]
    fn top_k_entries_are_ranked_and_distinct() {
        let table = d695_table(32);
        let ranked =
            partition_evaluate_top_k(&table, 32, &EvaluateConfig::up_to_tams(4), 5).unwrap();
        assert_eq!(ranked.entries.len(), 5);
        assert!(ranked.complete);
        assert!(ranked
            .entries
            .windows(2)
            .all(|e| e[0].soc_time() <= e[1].soc_time()));
        // Entries are distinct partitions, not copies of the winner.
        for pair in ranked.entries.windows(2) {
            assert_ne!(pair[0].tams, pair[1].tams);
        }
        assert_eq!(
            ranked.stats.enumerated,
            ranked.stats.completed + ranked.stats.aborted
        );
    }

    #[test]
    fn top_1_is_the_single_winner_path_bit_for_bit() {
        let table = d695_table(48);
        let config = EvaluateConfig::up_to_tams(5);
        let single = partition_evaluate(&table, 48, &config).unwrap();
        let ranked = partition_evaluate_top_k(&table, 48, &config, 1).unwrap();
        assert_eq!(ranked.entries.len(), 1);
        assert_eq!(ranked.entries[0].tams, single.tams);
        assert_eq!(ranked.entries[0].result, single.result);
        assert_eq!(ranked.stats, single.stats, "PruneStats must not drift");
        assert_eq!(ranked.complete, single.complete);
    }

    #[test]
    fn top_k_rank_1_matches_the_single_winner() {
        // Growing k admits more completions (the bound is the k-th best)
        // but must never change who wins.
        let table = d695_table(32);
        let config = EvaluateConfig::up_to_tams(4);
        let single = partition_evaluate(&table, 32, &config).unwrap();
        for k in [2usize, 4, 8] {
            let ranked = partition_evaluate_top_k(&table, 32, &config, k).unwrap();
            assert_eq!(ranked.entries[0].tams, single.tams, "k={k}");
            assert_eq!(ranked.entries[0].result, single.result, "k={k}");
            assert!(
                ranked.stats.completed >= single.stats.completed,
                "k={k}: a looser bound cannot complete fewer evaluations"
            );
        }
    }

    #[test]
    fn top_k_is_thread_count_invariant() {
        let table = d695_table(32);
        let run = |threads: usize, k: usize| {
            partition_evaluate_top_k(
                &table,
                32,
                &EvaluateConfig {
                    parallel: ParallelConfig::with_threads(threads),
                    ..EvaluateConfig::up_to_tams(4)
                },
                k,
            )
            .unwrap()
        };
        for k in [1usize, 3, 4] {
            let reference = run(1, k);
            for threads in [2, 8] {
                assert_eq!(run(threads, k), reference, "threads {threads}, k {k}");
            }
        }
    }

    #[test]
    fn top_k_larger_than_the_space_returns_everything() {
        // W=6, B=2 has exactly 3 unique partitions: 1+5, 2+4, 3+3.
        let table = d695_table(6);
        let ranked =
            partition_evaluate_top_k(&table, 6, &EvaluateConfig::exact_tams(2), 10).unwrap();
        assert_eq!(ranked.entries.len(), 3);
        assert_eq!(ranked.stats.enumerated, 3);
    }

    #[test]
    fn top_k_matches_a_full_unpruned_ranking() {
        // Cross-check the heap + k-th-best pruning against the obvious
        // oracle: score every partition unpruned, sort by
        // (time, enumeration index), take k.
        use tamopt_assign::core_assign;
        let table = d695_table(24);
        let k = 6usize;
        let ranked =
            partition_evaluate_top_k(&table, 24, &EvaluateConfig::up_to_tams(3), k).unwrap();
        let mut oracle: Vec<(u64, u64, TamSet)> = Vec::new();
        let mut index = 0u64;
        for b in 1..=3u32 {
            for widths in Partitions::new(24, b) {
                let tams = TamSet::new(widths).unwrap();
                let costs = CostMatrix::from_table(&table, &tams).unwrap();
                let result = core_assign(&costs, None, &CoreAssignOptions::default())
                    .into_result()
                    .expect("unbounded");
                oracle.push((result.soc_time(), index, tams));
                index += 1;
            }
        }
        oracle.sort_by_key(|(time, index, _)| (*time, *index));
        assert_eq!(ranked.entries.len(), k);
        for (entry, (time, _, tams)) in ranked.entries.iter().zip(&oracle) {
            assert_eq!(entry.soc_time(), *time);
            assert_eq!(&entry.tams, tams);
        }
    }

    #[test]
    fn top_k_ignores_the_warm_start_seed_for_k_above_1() {
        // A best-time seed would wrongly abort ranks 2..=k; the ranked
        // scan must drop it and still return the full cold ranking.
        let table = d695_table(32);
        let config = EvaluateConfig::up_to_tams(4);
        let cold = partition_evaluate_top_k(&table, 32, &config, 3).unwrap();
        let best = cold.entries[0].soc_time();
        let seeded = partition_evaluate_top_k(
            &table,
            32,
            &EvaluateConfig {
                seed_tau: Some(best),
                ..config
            },
            3,
        )
        .unwrap();
        assert_eq!(seeded, cold, "seed must be inert for k > 1");
    }

    #[test]
    fn shared_memo_changes_nothing_but_gets_populated() {
        let table = d695_table(64);
        let cold = partition_evaluate(&table, 64, &EvaluateConfig::up_to_tams(3)).unwrap();
        let memo = MatrixMemo::new();
        let with_memo = |memo: &Arc<MatrixMemo>| {
            partition_evaluate(
                &table,
                64,
                &EvaluateConfig {
                    shared_memo: Some(memo.clone()),
                    ..EvaluateConfig::up_to_tams(3)
                },
            )
            .unwrap()
        };
        let first = with_memo(&memo);
        assert_eq!(first, cold, "publishing to the memo must be invisible");
        assert!(!memo.is_empty(), "W=64 must publish saturated signatures");
        let populated = memo.len();
        // A second scan over the same table starts warm and must still
        // be bit-identical.
        let second = with_memo(&memo);
        assert_eq!(second, cold, "snapshotting the memo must be invisible");
        assert_eq!(memo.len(), populated, "nothing new to publish");
    }

    #[test]
    fn node_budget_truncates_deterministically() {
        let table = d695_table(48);
        let run = |threads: usize| {
            partition_evaluate(
                &table,
                48,
                &EvaluateConfig {
                    budget: SearchBudget::node_limited(100),
                    parallel: ParallelConfig::with_threads(threads),
                    ..EvaluateConfig::up_to_tams(6)
                },
            )
            .unwrap()
        };
        let reference = run(1);
        assert!(!reference.complete);
        // Whole generations: 32 + 64 + 128 dispatched items.
        assert_eq!(reference.stats.enumerated, 224);
        assert_eq!(run(4), reference, "node-budget truncation is deterministic");
    }
}
