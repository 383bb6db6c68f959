//! The scan hot path, measured: the paper's heaviest heuristic scan —
//! p93791, *P_NPAW* at `W = 64`, `B ≤ 10` — on the pipelined executor
//! at 1/2/4 worker threads, plus single-partition microbenches of the
//! allocation-free primitives the scan is built from
//! (`CostMatrix::from_table_into` + `core_assign_into`) and of the
//! per-partition branch-and-bound the pipeline's step 2 runs.
//!
//! The same scan is also split into its layers at 1 thread — table
//! build, enumeration alone and the full scan — with the host-independent
//! work counters printed beside them: partitions enumerated, skipped by
//! the bottleneck floor, matrices built and completed.
//!
//! Bit-identity across thread counts is asserted before any timing.
//! On a single-core host the multi-thread variants only measure
//! synchronization overhead; speedup claims need real CPUs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tamopt::assign::exact::{self, ExactConfig};
use tamopt::assign::{core_assign_into, AssignScratch, CoreAssignOptions, CostMatrix, TamSet};
use tamopt::engine::ParallelConfig;
use tamopt::partition::enumerate::Partitions;
use tamopt::partition::{partition_evaluate, EvaluateConfig};
use tamopt::{benchmarks, TimeTable};

fn config_with_threads(max_tams: u32, threads: usize) -> EvaluateConfig {
    EvaluateConfig {
        parallel: ParallelConfig::with_threads(threads),
        ..EvaluateConfig::up_to_tams(max_tams)
    }
}

fn bench_scan_threads(c: &mut Criterion) {
    let soc = benchmarks::p93791();
    let table = TimeTable::new(&soc, 64).expect("width 64 is valid");
    let reference =
        partition_evaluate(&table, 64, &config_with_threads(10, 1)).expect("valid configuration");
    let mut group = c.benchmark_group("scan_evaluate_p93791_W64_B10");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        // Determinism gate: same TamSet, AssignResult and PruneStats at
        // every thread count before we bother timing it.
        let eval = partition_evaluate(&table, 64, &config_with_threads(10, threads))
            .expect("valid configuration");
        assert_eq!(eval, reference, "threads={threads} must be bit-identical");
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                let config = config_with_threads(10, threads);
                b.iter(|| black_box(partition_evaluate(black_box(&table), 64, &config)))
            },
        );
    }
    group.finish();
}

/// Host-independent work of one `k = 1` scan.
#[derive(Debug, Default)]
struct ScanWork {
    enumerated: u64,
    /// Skipped before their cost matrix was built: the bottleneck floor
    /// of the widest part already reached `τ`.
    floor_skipped: u64,
    completed: u64,
}

/// Replays a `k = 1` scan's `τ` schedule from the public building
/// blocks to split its work. The executor hands out generations of
/// `min(chunks_per_generation, 2^g)` chunks; every chunk starts from the
/// best time merged before its generation and tightens with its own
/// completions. The caller checks the replay against the scan's
/// `PruneStats`.
fn replay_scan(
    table: &TimeTable,
    width: u32,
    max_tams: u32,
    parallel: &ParallelConfig,
) -> ScanWork {
    let floor = table.bottleneck_floor();
    let options = CoreAssignOptions::default();
    let mut matrix = CostMatrix::scratch();
    let mut assign = AssignScratch::new();
    let mut work = ScanWork::default();
    let mut best = u64::MAX;
    let mut partitions = (1..=max_tams)
        .flat_map(|b| Partitions::new(width, b))
        .peekable();
    for generation in 0u32.. {
        if partitions.peek().is_none() {
            break;
        }
        let snapshot = best;
        for _ in 0..parallel.chunks_per_generation.min(1 << generation.min(20)) {
            let mut local = u64::MAX;
            for widths in partitions.by_ref().take(parallel.chunk_size) {
                work.enumerated += 1;
                let tau = snapshot.min(local);
                let widest = *widths.last().expect("partitions are non-empty");
                if tau != u64::MAX && floor[widest as usize] >= tau {
                    work.floor_skipped += 1;
                    continue;
                }
                let tams = TamSet::new(widths).expect("partition parts are positive");
                CostMatrix::from_table_into(table, &tams, &mut matrix).expect("widths covered");
                let bound = (tau != u64::MAX).then_some(tau);
                if let Some(time) = core_assign_into(&matrix, bound, &options, &mut assign) {
                    work.completed += 1;
                    local = local.min(time);
                }
            }
            best = best.min(local);
        }
    }
    work
}

fn bench_scan_layers(c: &mut Criterion) {
    let soc = benchmarks::p93791();
    let table = TimeTable::new(&soc, 64).expect("width 64 is valid");
    let config = config_with_threads(10, 1);
    let eval = partition_evaluate(&table, 64, &config).expect("valid configuration");
    let work = replay_scan(&table, 64, 10, &config.parallel);
    assert_eq!(
        (work.enumerated, work.completed),
        (eval.stats.enumerated, eval.stats.completed),
        "the replay must follow the scan's τ schedule"
    );
    println!(
        "scan_layers_p93791_W64_B10 work: {} enumerated, {} floor-skipped, \
         {} matrices built, {} completed",
        work.enumerated,
        work.floor_skipped,
        work.enumerated - work.floor_skipped,
        work.completed
    );

    let mut group = c.benchmark_group("scan_layers_p93791_W64_B10");
    group.sample_size(10);
    group.bench_function("table_build", |b| {
        b.iter(|| black_box(TimeTable::new(black_box(&soc), 64)))
    });
    group.bench_function("enumerate", |b| {
        b.iter(|| {
            black_box(
                (1..=10u32)
                    .flat_map(|tams| Partitions::new(black_box(64), tams))
                    .count(),
            )
        })
    });
    group.bench_function("full_scan", |b| {
        b.iter(|| black_box(partition_evaluate(black_box(&table), 64, &config)))
    });
    group.finish();
}

fn bench_scan_single_partition(c: &mut Criterion) {
    // The inner loop of the scan, isolated: rebuild the cost matrix in
    // place and run the allocation-free heuristic — once τ-pruned (the
    // common aborting case) and once unbounded (the completing case).
    let soc = benchmarks::p93791();
    let table = TimeTable::new(&soc, 64).expect("width 64 is valid");
    let tams = TamSet::new([10, 23, 31]).expect("valid partition");
    let mut matrix = CostMatrix::scratch();
    let mut assign = AssignScratch::new();
    CostMatrix::from_table_into(&table, &tams, &mut matrix).expect("widths covered");
    let unbounded = core_assign_into(&matrix, None, &CoreAssignOptions::default(), &mut assign)
        .expect("unbounded runs complete");

    let mut group = c.benchmark_group("scan_single_partition_p93791_W64");
    group.bench_function("rebuild_and_assign_unbounded", |b| {
        b.iter(|| {
            CostMatrix::from_table_into(black_box(&table), black_box(&tams), &mut matrix)
                .expect("widths covered");
            black_box(core_assign_into(
                &matrix,
                None,
                &CoreAssignOptions::default(),
                &mut assign,
            ))
        })
    });
    group.bench_function("rebuild_and_assign_pruned", |b| {
        // A bound at half the achievable time aborts early — the case
        // the paper's pruning makes dominant.
        let bound = Some(unbounded / 2);
        b.iter(|| {
            CostMatrix::from_table_into(black_box(&table), black_box(&tams), &mut matrix)
                .expect("widths covered");
            black_box(core_assign_into(
                &matrix,
                black_box(bound),
                &CoreAssignOptions::default(),
                &mut assign,
            ))
        })
    });
    group.bench_function("branch_and_bound_exact", |b| {
        let costs = CostMatrix::from_table(&table, &tams).expect("widths covered");
        let config = ExactConfig::default();
        b.iter(|| black_box(exact::solve(black_box(&costs), &config)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_scan_threads,
    bench_scan_layers,
    bench_scan_single_partition
);
criterion_main!(benches);
