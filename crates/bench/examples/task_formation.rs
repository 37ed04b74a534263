//! Two physical optimizations, shown standalone: Figure 4's
//! task-formation example and §5.3's partition schemes.
//!
//! ```text
//! cargo run --release -p rapid-report --example task_formation
//! ```

use dpu_sim::isa::CostModel;
use rapid_qcomp::partition_opt::{partition_scheme, required_partitions, scheme_cost};
use rapid_qef::exec::ExecContext;
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

    // --- §5.3: partition schemes ------------------------------------------
    println!("\npartition schemes (8-byte rows):");
    let dpu = ExecContext::dpu();
    for rows in [100_000u64, 10_000_000, 1_000_000_000] {
        let rounds = partition_scheme(rows as f64, 8, 8, &dpu);
        println!(
            "  {:>13} rows -> {:>7} partitions required, scheme {:?} ({} round(s), {:.2e} cycles)",
            rows,
            required_partitions(rows, 8, dpu.dmem_bytes, dpu.cores),
            rounds,
            rounds.len(),
            scheme_cost(&cm, rows, 8, dpu.dmem_bytes, &rounds)
        );
    }
}
