//! Extension experiment: how the co-optimized architecture shifts with
//! the workload's *shape*, on the labelled synthetic scenarios of
//! `tamopt_soc::scenarios`.
//!
//! The paper's motivation (Section 1) predicts: scan-heavy SOCs reward
//! many TAMs of matched widths; memory-heavy SOCs stop benefiting from
//! width once each memory's terminal count is covered; a bottleneck core
//! pins the testing time to its own minimum. This binary checks all
//! three predictions on generated workloads.
//!
//! Run with: `cargo run --release -p tamopt-bench --bin scenario_sweep`

use tamopt::analysis::UtilizationReport;
use tamopt::soc::scenarios;
use tamopt::wrapper::{pareto, TimeTable};
use tamopt::{CoOptimizer, Soc};
use tamopt_bench::print_table;

fn main() {
    let socs: Vec<Soc> = vec![
        scenarios::logic_heavy(16, 2002).expect("valid scenario"),
        scenarios::memory_heavy(16, 2002).expect("valid scenario"),
        scenarios::bottleneck(16, 2002).expect("valid scenario"),
        scenarios::uniform(16, 2002).expect("valid scenario"),
    ];
    println!("== Scenario sweep: architecture vs workload shape (16 cores, W sweep) ==\n");
    for soc in socs {
        println!("-- {} --", soc.name());
        let mut rows = Vec::new();
        for width in [16u32, 32, 48, 64] {
            let architecture = CoOptimizer::new(soc.clone(), width)
                .max_tams(8)
                .run()
                .expect("scenarios and positive widths are valid");
            let report = UtilizationReport::new(&architecture);
            // Architecture-independent lower bound: the slowest core at
            // full width.
            let table = TimeTable::new(&soc, width).expect("positive width");
            let bottleneck = pareto::bottleneck_from_table(&table);
            rows.push(vec![
                width.to_string(),
                architecture.num_tams().to_string(),
                architecture.tams.to_string(),
                architecture.soc_time().to_string(),
                bottleneck.to_string(),
                format!(
                    "{:.2}",
                    architecture.soc_time() as f64 / bottleneck.max(1) as f64
                ),
                format!("{:.1}", report.utilization() * 100.0),
            ]);
        }
        print_table(
            &["W", "B", "partition", "T (cy)", "core LB", "T/LB", "util %"],
            &rows,
        );
        println!();
    }
    println!("Predictions to check in the rows above:");
    println!("  - logic-heavy: B grows with W; T keeps falling across the sweep;");
    println!("  - memory-heavy: T flattens early (width cannot speed up a memory");
    println!("    beyond its terminal count);");
    println!("  - bottleneck: T/LB hits 1.00 once W covers the giant core —");
    println!("    the paper's p31108 saturation (Tables 11-13);");
    println!("  - uniform: near-equal partitions win (tie-breaks, not widths,");
    println!("    decide the assignment).");
}
