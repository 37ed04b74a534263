//! Two physical optimizations, shown standalone: Figure 4's
//! task-formation example and the §5.3 partition-scheme search.
//!
//! ```text
//! cargo run --release -p rapid-report --example task_formation
//! ```

use dpu_sim::isa::CostModel;
use rapid_qcomp::partition_opt::{
    optimize_partition_scheme, required_partitions, PartitionOptInput,
};
use rapid_report::task_formation::{figure4_chain, optimize_tasks, vector_rows_for};

fn main() {
    let cm = CostModel::default();

    // --- Figure 4: forming tasks for the aggregation query --------------
    // SELECT sum(l_quantity * 0.5), min(l_quantity)
    // FROM lineitem WHERE l_extendedprice > 100;   (1M rows, 25% pass)
    let ops = figure4_chain();
    println!("operator chain (1M input rows):");
    for o in &ops {
        println!(
            "  {:<34} in {:>2} B/row, out {:>2} B/row, state {:>4} B, sel {}",
            o.name, o.in_bytes_per_row, o.out_bytes_per_row, o.state_bytes, o.selectivity
        );
    }

    for dmem in [32 * 1024usize, 4 * 1024, 2 * 1024] {
        match optimize_tasks(&cm, &ops, dmem, 1_000_000) {
            Some(f) => {
                println!(
                    "\nDMEM = {:>2} KiB -> {} task(s), cost {:.0} cycles",
                    dmem / 1024,
                    f.tasks.len(),
                    f.cost_cycles
                );
                for t in &f.tasks {
                    let names: Vec<&str> =
                        ops[t.ops.clone()].iter().map(|o| o.name.as_str()).collect();
                    println!(
                        "   task [{}] with {}-row vectors",
                        names.join(" -> "),
                        t.vector_rows
                    );
                }
            }
            None => println!("\nDMEM = {} KiB -> infeasible", dmem / 1024),
        }
    }
    let full = vector_rows_for(&ops, 32 * 1024, usize::MAX).expect("fits");
    println!("\nfully fused vectors at 32 KiB: {full} rows per operator");

    // --- §5.3: the partition scheme search -------------------------------
    println!("\npartition-scheme optimization:");
    for rows in [100_000u64, 10_000_000, 1_000_000_000] {
        let input = PartitionOptInput {
            rows,
            ..Default::default()
        };
        let scheme = optimize_partition_scheme(&cm, &input);
        println!(
            "  {:>13} rows -> {:>7} partitions required, scheme {:?} ({} round(s), {:.2e} cycles)",
            rows,
            required_partitions(&input),
            scheme.rounds,
            scheme.rounds.len(),
            scheme.cost_cycles
        );
    }
}
