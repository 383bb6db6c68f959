use serde::{Deserialize, Serialize};
use tamopt_soc::Soc;

use crate::{design_wrapper, WrapperError};

/// Precomputed core testing times `T_i(w)` for every core of an SOC and
/// every TAM width `1..=max_width`.
///
/// Every optimization layer of the workspace (the `Core_assign`
/// heuristic, the exact solvers, `Partition_evaluate`) consumes wrapper
/// results only through this table, mirroring the paper's structure
/// where `Design_wrapper` is invoked once per (core, width) pair
/// (Figure 1, line 6).
///
/// # Example
///
/// ```
/// use tamopt_soc::benchmarks;
/// use tamopt_wrapper::TimeTable;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let soc = benchmarks::d695();
/// let table = TimeTable::new(&soc, 64)?;
/// // Wider TAMs never test slower.
/// assert!(table.time(0, 64) <= table.time(0, 16));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimeTable {
    /// `times[core][width - 1]`.
    times: Vec<Vec<u64>>,
    max_width: u32,
}

impl TimeTable {
    /// Builds the table by running wrapper design for every core at every
    /// width `1..=max_width`.
    ///
    /// # Errors
    ///
    /// [`WrapperError::ZeroWidth`] if `max_width == 0`.
    pub fn new(soc: &Soc, max_width: u32) -> Result<Self, WrapperError> {
        if max_width == 0 {
            return Err(WrapperError::ZeroWidth);
        }
        let times = soc
            .iter()
            .map(|core| {
                (1..=max_width)
                    .map(|w| design_wrapper(core, w).map(|d| d.test_time()))
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(TimeTable { times, max_width })
    }

    /// Number of cores covered.
    pub fn num_cores(&self) -> usize {
        self.times.len()
    }

    /// Largest width covered.
    pub fn max_width(&self) -> u32 {
        self.max_width
    }

    /// Testing time of core `core` on a TAM of width `width`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `width` is `0` or greater
    /// than [`max_width`](TimeTable::max_width).
    pub fn time(&self, core: usize, width: u32) -> u64 {
        assert!(
            width >= 1 && width <= self.max_width,
            "width {width} out of range"
        );
        self.times[core][(width - 1) as usize]
    }

    /// The whole row of testing times for one core (`width = index + 1`).
    pub fn row(&self, core: usize) -> &[u64] {
        &self.times[core]
    }

    /// Minimum achievable testing time for a core within the table's
    /// width range (its saturation time). The true row minimum, so it
    /// holds for [`from_matrix`](TimeTable::from_matrix) rows that are
    /// not non-increasing too.
    pub fn min_time(&self, core: usize) -> u64 {
        *self.times[core].iter().min().expect("max_width >= 1")
    }

    /// The **effective width** of every width `1..=max_width`: entry `w`
    /// is the smallest width whose column of per-core times equals
    /// `w`'s (entry 0 is unused and holds 0).
    ///
    /// This is the table-level face of the Pareto staircase
    /// ([`crate::pareto`]): once every core has passed its saturation
    /// point, adding wires changes nothing, so distinct widths collapse
    /// onto one effective width and produce *identical* cost columns.
    /// The partition scan keys its per-worker matrix memo on these
    /// values — partitions differing only in past-saturation parts
    /// share one cached matrix instead of rebuilding it.
    ///
    /// The map is non-decreasing (`w1 <= w2` implies `eff(w1) <=
    /// eff(w2)`), and `eff(w) <= w` with equality exactly when `w`'s
    /// column differs from `w - 1`'s.
    pub fn effective_widths(&self) -> Vec<u32> {
        let mut effective = vec![0u32; (self.max_width + 1) as usize];
        effective[1] = 1;
        for w in 2..=self.max_width {
            let index = (w - 1) as usize;
            let same_column = self.times.iter().all(|row| row[index] == row[index - 1]);
            effective[w as usize] = if same_column {
                effective[(w - 1) as usize]
            } else {
                w
            };
        }
        effective
    }

    /// The **bottleneck floor** of every width `1..=max_width`: entry `w`
    /// is `max_c min_{x ≤ w} T_c(x)`, the fastest the slowest core can
    /// be tested on any TAM no wider than `w` (entry 0 is unused and
    /// holds 0).
    ///
    /// No architecture whose widest TAM is `w` can test the SOC in less
    /// than `floor[w]` cycles: every core sits on some TAM, and that
    /// TAM's load is at least the core's own time there. The inner
    /// running minimum keeps this sound for tables whose rows are not
    /// non-increasing ([`from_matrix`](TimeTable::from_matrix)); for
    /// [`new`](TimeTable::new) tables it is simply `max_c T_c(w)`.
    ///
    /// This is the one bottleneck-bound mechanism of the workspace: the
    /// architecture-independent bounds and the frontier's per-width
    /// bound read it, and the partition scan uses it to skip partitions
    /// whose widest part cannot beat the current `τ`.
    pub fn bottleneck_floor(&self) -> Vec<u64> {
        let mut floor = vec![0u64; (self.max_width + 1) as usize];
        for row in &self.times {
            let mut fastest = u64::MAX;
            for (slot, &t) in floor[1..].iter_mut().zip(row) {
                fastest = fastest.min(t);
                *slot = (*slot).max(fastest);
            }
        }
        floor
    }

    /// Builds a table directly from an externally supplied cost matrix
    /// (`times[core][width - 1]`). Used for tables given verbatim, such
    /// as the paper's Figure 2 example.
    ///
    /// # Panics
    ///
    /// Panics if rows are empty or of unequal lengths.
    pub fn from_matrix(times: Vec<Vec<u64>>) -> Self {
        let max_width = times.first().map_or(0, |r| r.len()) as u32;
        assert!(
            max_width >= 1,
            "cost matrix must have at least one width column"
        );
        assert!(
            times.iter().all(|r| r.len() as u32 == max_width),
            "cost matrix rows must have equal lengths"
        );
        TimeTable { times, max_width }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tamopt_soc::benchmarks;

    #[test]
    fn zero_width_rejected() {
        let soc = benchmarks::d695();
        assert_eq!(TimeTable::new(&soc, 0), Err(WrapperError::ZeroWidth));
    }

    #[test]
    fn covers_all_cores_and_widths() {
        let soc = benchmarks::d695();
        let t = TimeTable::new(&soc, 16).unwrap();
        assert_eq!(t.num_cores(), 10);
        assert_eq!(t.max_width(), 16);
        assert_eq!(t.row(3).len(), 16);
    }

    #[test]
    fn rows_non_increasing() {
        let soc = benchmarks::d695();
        let t = TimeTable::new(&soc, 32).unwrap();
        for core in 0..t.num_cores() {
            let row = t.row(core);
            assert!(row.windows(2).all(|w| w[0] >= w[1]), "core {core}");
        }
    }

    #[test]
    fn min_time_is_last_column() {
        let soc = benchmarks::d695();
        let t = TimeTable::new(&soc, 24).unwrap();
        for core in 0..t.num_cores() {
            assert_eq!(t.min_time(core), t.time(core, 24));
        }
    }

    #[test]
    fn effective_widths_canonicalize_identical_columns() {
        let soc = benchmarks::d695();
        let t = TimeTable::new(&soc, 64).unwrap();
        let eff = t.effective_widths();
        assert_eq!(eff.len(), 65);
        assert_eq!(eff[1], 1);
        for w in 1..=64u32 {
            let e = eff[w as usize];
            assert!(e >= 1 && e <= w, "eff({w}) = {e} out of range");
            // The effective width's column is identical to w's…
            for core in 0..t.num_cores() {
                assert_eq!(t.time(core, e), t.time(core, w), "core {core} width {w}");
            }
            // …and it is the smallest such width.
            if e > 1 {
                assert!(
                    (0..t.num_cores()).any(|c| t.time(c, e - 1) != t.time(c, e)),
                    "eff({w}) = {e} is not minimal"
                );
            }
        }
        // Monotone non-decreasing.
        assert!(eff[1..].windows(2).all(|p| p[0] <= p[1]));
        // d695 saturates well before 64 wires: the tail must collapse.
        assert!(eff[64] < 64, "no collapse at all would be surprising");
    }

    #[test]
    fn bottleneck_floor_is_the_slowest_core_at_each_width() {
        let soc = benchmarks::d695();
        let t = TimeTable::new(&soc, 32).unwrap();
        let floor = t.bottleneck_floor();
        assert_eq!(floor.len(), 33);
        assert_eq!(floor[0], 0);
        for w in 1..=32u32 {
            let slowest = (0..t.num_cores()).map(|c| t.time(c, w)).max().unwrap();
            assert_eq!(floor[w as usize], slowest, "width {w}");
        }
    }

    #[test]
    fn bottleneck_floor_takes_the_running_row_minimum() {
        // Non-monotone rows: the floor never rises with width, and at
        // width 2 core 0 can still test in 5 cycles on a 1-wire TAM.
        let t = TimeTable::from_matrix(vec![vec![5, 10, 3], vec![4, 6, 6]]);
        assert_eq!(t.bottleneck_floor(), vec![0, 5, 5, 4]);
        assert_eq!(t.min_time(0), 3);
        assert_eq!(TimeTable::from_matrix(vec![vec![5, 10]]).min_time(0), 5);
    }

    #[test]
    fn from_matrix_roundtrip() {
        let (_, times) = benchmarks::figure2_cost_table();
        // Figure 2 indexes TAMs, not widths; as a matrix the columns are
        // simply positions 1..=3.
        let t = TimeTable::from_matrix(times.clone());
        assert_eq!(t.num_cores(), 5);
        assert_eq!(t.time(0, 2), times[0][1]);
    }

    #[test]
    #[should_panic(expected = "equal lengths")]
    fn from_matrix_rejects_ragged() {
        let _ = TimeTable::from_matrix(vec![vec![1, 2], vec![3]]);
    }

    #[test]
    #[should_panic(expected = "width column")]
    fn from_matrix_rejects_empty_rows() {
        let _ = TimeTable::from_matrix(vec![vec![], vec![]]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn time_panics_out_of_range() {
        let soc = benchmarks::d695();
        let t = TimeTable::new(&soc, 8).unwrap();
        let _ = t.time(0, 9);
    }
}
