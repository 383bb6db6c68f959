//! Architecture-independent lower bounds on the SOC testing time.
//!
//! Two bounds hold for *any* test-bus architecture of total width `W`:
//!
//! 1. **Bottleneck bound** — no core can be tested faster than with all
//!    `W` wires to itself: `T ≥ max_c T_c(W)`. This is the bound the
//!    paper's p31108 hits from mid-range widths on (Tables 11–13).
//! 2. **Bandwidth (wire-cycle) bound** — while core `c` tests on a TAM
//!    of width `w`, it occupies `w` wires for `T_c(w)` cycles, i.e. at
//!    least `min_w w·T_c(w)` wire-cycles; the whole test has `W·T`
//!    wire-cycles available, so `T ≥ ⌈Σ_c min_w w·T_c(w) / W⌉`.
//!
//! [`lower_bound`] returns the max of both. Every solver in this crate
//! is tested against it.

use tamopt_wrapper::TimeTable;

/// The bottleneck bound: `max_c min_w T_c(w)` over the table's full
/// width range (pass a table built at the SOC total width) — the last
/// entry of [`TimeTable::bottleneck_floor`].
pub fn bottleneck_bound(table: &TimeTable) -> u64 {
    table.bottleneck_floor()[table.max_width() as usize]
}

/// The bandwidth bound: `⌈Σ_c min_w w·T_c(w) / W⌉` with `W` the table's
/// full width.
pub fn bandwidth_bound(table: &TimeTable) -> u64 {
    let w_total = u64::from(table.max_width());
    let wire_cycles: u64 = (0..table.num_cores())
        .map(|c| {
            table
                .row(c)
                .iter()
                .enumerate()
                .map(|(i, &t)| (i as u64 + 1) * t)
                .min()
                .expect("table rows are non-empty")
        })
        .sum();
    wire_cycles.div_ceil(w_total)
}

/// The combined architecture-independent lower bound
/// (`max(bottleneck, bandwidth)`).
///
/// # Example
///
/// ```
/// use tamopt_partition::bounds::lower_bound;
/// use tamopt_partition::{partition_evaluate, EvaluateConfig};
/// use tamopt_soc::benchmarks;
/// use tamopt_wrapper::TimeTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let table = TimeTable::new(&benchmarks::d695(), 32)?;
/// let eval = partition_evaluate(&table, 32, &EvaluateConfig::up_to_tams(4))?;
/// assert!(eval.result.soc_time() >= lower_bound(&table));
/// # Ok(())
/// # }
/// ```
pub fn lower_bound(table: &TimeTable) -> u64 {
    bottleneck_bound(table).max(bandwidth_bound(table))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::{partition_evaluate, EvaluateConfig};
    use crate::exhaustive::{self, ExhaustiveConfig};
    use tamopt_soc::benchmarks;

    #[test]
    fn bounds_hold_for_exhaustive_optima() {
        for soc in benchmarks::all() {
            let table = TimeTable::new(&soc, 24).unwrap();
            let lb = lower_bound(&table);
            let best = exhaustive::solve(&table, 24, &ExhaustiveConfig::up_to_tams(3)).unwrap();
            assert!(
                best.result.soc_time() >= lb,
                "{}: optimum {} below bound {lb}",
                soc.name(),
                best.result.soc_time()
            );
        }
    }

    #[test]
    fn bounds_hold_for_non_monotone_tables() {
        // A core that tests faster on a narrower TAM: partition {1, 1}
        // reaches 5 cycles, so the bound must not read the last column
        // (10).
        let table = TimeTable::from_matrix(vec![vec![5, 10]]);
        let best = exhaustive::solve(&table, 2, &ExhaustiveConfig::up_to_tams(2)).unwrap();
        assert_eq!(best.result.soc_time(), 5);
        assert!(lower_bound(&table) <= best.result.soc_time());
    }

    #[test]
    fn bounds_hold_for_heuristic_results() {
        for soc in benchmarks::all() {
            let table = TimeTable::new(&soc, 48).unwrap();
            let lb = lower_bound(&table);
            let eval = partition_evaluate(&table, 48, &EvaluateConfig::up_to_tams(6)).unwrap();
            assert!(eval.result.soc_time() >= lb, "{}", soc.name());
        }
    }

    #[test]
    fn bandwidth_bound_bites_for_single_tam() {
        // At B = 1 everything is serial: the bandwidth bound is within a
        // factor of the serial time for balanced workloads.
        let soc = benchmarks::d695();
        let table = TimeTable::new(&soc, 16).unwrap();
        let serial: u64 = (0..table.num_cores()).map(|c| table.time(c, 16)).sum();
        let bw = bandwidth_bound(&table);
        assert!(bw <= serial);
        assert!(
            bw * 16 >= serial,
            "bound uselessly weak: {bw} vs serial {serial}"
        );
    }

    #[test]
    fn bottleneck_dominates_on_p31108_at_large_width() {
        // The plateau SOC: at W = 64 the bottleneck bound is the binding
        // one (the paper's 544579-cycle analogue).
        let soc = benchmarks::p31108();
        let table = TimeTable::new(&soc, 64).unwrap();
        assert!(bottleneck_bound(&table) >= bandwidth_bound(&table));
        assert_eq!(lower_bound(&table), bottleneck_bound(&table));
    }

    #[test]
    fn bounds_monotone_in_width() {
        let soc = benchmarks::d695();
        let mut last = u64::MAX;
        for w in [8u32, 16, 32, 64] {
            let table = TimeTable::new(&soc, w).unwrap();
            let lb = lower_bound(&table);
            assert!(lb <= last, "bound rose with more wires at W={w}");
            last = lb;
        }
    }
}
