//! Programming the simulated DPU directly: DMS descriptor loops,
//! hardware partitioning, a parallel stage, ATE hop latencies and
//! cycle/energy accounting — the substrate under the query engine.
//!
//! ```text
//! cargo run --release -p rapid-report --example dpu_hardware
//! ```

use dpu_sim::account::Kernel;
use dpu_sim::ate;
use dpu_sim::clock::rates;
use dpu_sim::dms::descriptor::DescriptorLoop;
use dpu_sim::dms::engine::DmsEngine;
use dpu_sim::isa::{CostModel, KernelCost};
use dpu_sim::power::PowerModel;
use rapid_qef::actor::run_stage;
use rapid_qef::exec::{CoreCtx, ExecContext};
use rapid_report::hw_partition::{HwPartitioner, PartitionStrategy};

fn main() {
    let cm = CostModel::default();

    // --- 1. A DMS descriptor loop: stream 1M rows of 4 columns ---------
    let dms = DmsEngine::new(cm.clone());
    let l = DescriptorLoop::sequential_read(4, 4, 1 << 20, 128);
    let cost = dms.loop_cost(&l);
    println!(
        "DMS stream: {} descriptors, {} MiB",
        cost.descriptors,
        cost.bytes >> 20
    );
    println!(
        "  engine time {:.3} ms -> {:.2} GiB/s",
        dpu_sim::clock::Cycles(cost.cycles)
            .to_dpu_time()
            .as_millis(),
        rates::gib_per_sec(
            cost.bytes,
            dpu_sim::clock::Cycles(cost.cycles).to_dpu_time()
        )
    );

    // --- 2. Hardware hash partitioning while the data moves ------------
    let hw = HwPartitioner::new(PartitionStrategy::Hash { bits: 5 }, cm.clone()).unwrap();
    let keys: Vec<i64> = (0..1_000_000).collect();
    let assignment = hw.assign(&[&keys]).unwrap();
    let pcost = hw.partition_cost(keys.len(), 4, 4, 128);
    let loads = {
        let mut counts = [0u32; 32];
        for &t in &assignment {
            counts[t as usize] += 1;
        }
        (*counts.iter().min().unwrap(), *counts.iter().max().unwrap())
    };
    println!(
        "\nHW partition: 32-way over 1M rows at {:.2} GiB/s, per-core load {}..{}",
        rates::gib_per_sec(
            pcost.bytes,
            dpu_sim::clock::Cycles(pcost.cycles).to_dpu_time()
        ),
        loads.0,
        loads.1
    );

    // --- 3. A parallel stage across all 32 dpCores ---------------------
    // `run_stage` is the path every query stage takes: one `CoreCtx` per
    // lane, timed by the stage rule (`dpu_sim::account::StageSpan`).
    let ctx = ExecContext::dpu();
    let (_, stage) = run_stage(&ctx, (0..ctx.cores).collect(), |core, _lane: usize| {
        // Each core runs a hand-scheduled kernel over its partition:
        // ~31250 rows at filter cost, plus its share of DMS traffic.
        core.charge_kernel(Kernel::Other, &KernelCost::paired(31_250.0, 31_250.0));
        core.account
            .charge_dms(dpu_sim::clock::Cycles(31_250.0 * 4.0 / 12.0), 125_000, 31);
        Ok(())
    })
    .unwrap();
    println!(
        "\nstage: elapsed {:.3} ms ({}), max core compute {:.0} cy, DMS total {:.0} cy",
        stage.sim.as_millis(),
        if stage.span.dms_bound() {
            "DMS-bound"
        } else {
            "compute-bound"
        },
        stage.span.max_lane_compute.get(),
        stage.span.dms_total.get()
    );
    let power = PowerModel::dpu();
    println!(
        "energy so far: {:.3} mJ at {} W provisioned",
        power.energy_joules(stage.sim) * 1e3,
        power.watts
    );

    // --- 4. ATE hop latency between cores -----------------------------
    // What a core-to-core message is charged: the group-by merge pays one
    // cross-macro hop per per-core table it folds in.
    println!(
        "\nATE: core 0 -> core 7 (same macro) {} cy, core 0 -> core 31 (cross-macro) {} cy",
        ate::message_cost(&cm, 0, 7).get(),
        ate::message_cost(&cm, 0, 31).get()
    );

    // --- 5. DMEM budget discipline --------------------------------------
    let core = CoreCtx::new(&ctx, 0);
    let a = core.dmem.alloc::<u32>(4096).unwrap(); // 16 KiB
    println!(
        "\nDMEM: reserved {} B, {} B free",
        a.reserved_bytes(),
        core.dmem.available()
    );
    match core.dmem.alloc::<u32>(8192) {
        Err(e) => println!("  second 32 KiB allocation correctly refused: {e}"),
        Ok(_) => unreachable!("budget must be enforced"),
    }
}
