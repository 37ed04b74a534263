//! Figure 4's task-formation search (§5.2), kept beside the figures.
//!
//! A *task* is a group of physical operators executed together without
//! preemption: operators inside a task pipeline tiles to each other
//! through DMEM, and only results at task boundaries are materialized to
//! DRAM. Fewer boundaries mean less DRAM traffic, but every operator in a
//! task needs its vectors (double-buffered) plus its state in the same
//! 32 KiB — what the first operator reads and what each writes for the
//! next, the vector between two of them counted once — so packing more
//! operators shrinks everyone's vectors and raises per-tile overhead. The
//! arithmetic is `rapid_qef::budget`'s, the engine's and the verifier's.
//!
//! [`optimize_tasks`] enumerates the contiguous groupings of an operator
//! chain (the candidate set the paper describes, including the
//! one-operator-per-task-with-big-vectors extreme), sizes each task's
//! vectors from the leftover DMEM, costs the formation (materialization
//! traffic + per-tile overhead), and keeps the cheapest. Only the Figure 4
//! example (`cargo run --release -p rapid-report --example task_formation`)
//! runs it: the engine weighs no formations. At the vector sizes its tasks
//! run at, a cut only adds the boundary's write and read-back, so a scan-fed
//! chain and its consumer's first stage are one task wherever they fit
//! (`rapid_qef::stages::first_stage`).

use dpu_sim::isa::CostModel;
use rapid_qef::budget::{task_tile, Declares};

/// Shape of one pipeline operator for DMEM budgeting.
#[derive(Debug, Clone, PartialEq)]
pub struct OpShape {
    /// Operator label (for explain output).
    pub name: String,
    /// Bytes per row of the operator's input vectors.
    pub in_bytes_per_row: usize,
    /// Bytes per row of the operator's output vectors.
    pub out_bytes_per_row: usize,
    /// Fixed DMEM state (hash tables, histograms, …) declared by the
    /// operator ("each RAPID operator declares its internal state and data
    /// structure sizes at implementation").
    pub state_bytes: usize,
    /// Selectivity: output rows / input rows.
    pub selectivity: f64,
}

impl Declares for OpShape {
    fn state_bytes(&self) -> usize {
        self.state_bytes
    }
    fn in_widths(&self) -> impl Iterator<Item = usize> + Clone {
        std::iter::once(self.in_bytes_per_row)
    }
    fn out_widths(&self) -> impl Iterator<Item = usize> + Clone {
        std::iter::once(self.out_bytes_per_row)
    }
}

impl OpShape {
    /// Convenience constructor.
    pub fn new(
        name: &str,
        in_bytes_per_row: usize,
        out_bytes_per_row: usize,
        state_bytes: usize,
        selectivity: f64,
    ) -> OpShape {
        OpShape {
            name: name.to_string(),
            in_bytes_per_row,
            out_bytes_per_row,
            state_bytes,
            selectivity,
        }
    }
}

/// One task of a formation.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Operator indices `[start, end)` of the chain.
    pub ops: std::ops::Range<usize>,
    /// Vector size in rows shared by the task's operators.
    pub vector_rows: usize,
}

/// A complete formation with its modelled cost.
#[derive(Debug, Clone, PartialEq)]
pub struct Formation {
    /// The tasks, in chain order.
    pub tasks: Vec<Task>,
    /// Modelled cost in cycles.
    pub cost_cycles: f64,
}

/// Minimum tile size (§4.1: tiles are 64+ rows).
pub use rapid_qef::budget::MIN_VECTOR_ROWS;

/// The vector size a task of `ops` runs at in `dmem_bytes`: the largest
/// that fits, double-buffered or else single-buffered, and no more than
/// `tile_rows`, the configured vector (`usize::MAX` for whatever fits) —
/// `rapid_qef::budget::task_tile` of what the operators declare, what the
/// engine runs the task at. `None` if even 64-row vectors do not fit (the
/// paper's halting condition).
pub fn vector_rows_for(ops: &[OpShape], dmem_bytes: usize, tile_rows: usize) -> Option<usize> {
    task_tile(tile_rows, ops, dmem_bytes).map(|(tile, _)| tile)
}

/// Cost of a formation over `input_rows`: task-boundary materialization
/// (DMS write + re-read of the intermediate) plus per-tile control
/// overhead inside each task — every operator takes a trip round its
/// control loop per vector of the rows it is handed, at the vector size of
/// the task it runs in (what the engine charges a task's lanes).
pub fn formation_cost(cm: &CostModel, ops: &[OpShape], tasks: &[Task], input_rows: u64) -> f64 {
    // Rows entering each operator.
    let mut rows_in = Vec::with_capacity(ops.len());
    let mut r = input_rows as f64;
    for o in ops {
        rows_in.push(r);
        r *= o.selectivity;
    }
    let rows_out_of = |op_idx: usize| rows_in[op_idx] * ops[op_idx].selectivity;

    let mut cost = 0.0;
    for (ti, task) in tasks.iter().enumerate() {
        let tiles: f64 = rows_in[task.ops.clone()]
            .iter()
            .map(|rows| rows / task.vector_rows as f64)
            .sum();
        cost += tiles * cm.per_tile_overhead_cycles;
        // Boundary materialization: the task's final output goes to DRAM
        // and is re-read by the next task (skip after the last task —
        // final results always materialize and are charged to the query
        // sink uniformly across formations).
        if ti + 1 < tasks.len() {
            let last = task.ops.end - 1;
            let bytes = rows_out_of(last) * ops[last].out_bytes_per_row as f64;
            cost += 2.0 * bytes / cm.dms_bytes_per_cycle();
        }
    }
    cost
}

/// Enumerate all contiguous groupings of the chain, keep the feasible
/// ones (vectors fit DMEM), and return the cheapest formation.
pub fn optimize_tasks(
    cm: &CostModel,
    ops: &[OpShape],
    dmem_bytes: usize,
    input_rows: u64,
) -> Option<Formation> {
    let n = ops.len();
    if n == 0 {
        return Some(Formation {
            tasks: Vec::new(),
            cost_cycles: 0.0,
        });
    }
    assert!(n <= 16, "task chains longer than 16 not expected");
    let mut best: Option<Formation> = None;
    // Bitmask over the n-1 possible boundaries.
    for mask in 0..(1u32 << (n - 1)) {
        let mut tasks = Vec::new();
        let mut start = 0usize;
        let mut feasible = true;
        for end in 1..=n {
            let boundary = end == n || mask & (1 << (end - 1)) != 0;
            if !boundary {
                continue;
            }
            match vector_rows_for(&ops[start..end], dmem_bytes, usize::MAX) {
                Some(rows) => tasks.push(Task {
                    ops: start..end,
                    vector_rows: rows,
                }),
                None => {
                    feasible = false;
                    break;
                }
            }
            start = end;
        }
        if !feasible {
            continue;
        }
        let cost = formation_cost(cm, ops, &tasks, input_rows);
        if best.as_ref().is_none_or(|b| cost < b.cost_cycles) {
            best = Some(Formation {
                tasks,
                cost_cycles: cost,
            });
        }
    }
    best
}

/// The paper's Figure 4 operator chain: an aggregation query over 1 M
/// rows of 4-byte columns with a 25 % selective filter
/// (`SELECT sum(l_quantity * 0.5), min(l_quantity) FROM lineitem WHERE
/// l_extendedprice > 100`).
pub fn figure4_chain() -> Vec<OpShape> {
    vec![
        // Filter reads l_extendedprice, emits a bit-vector (1/8 byte/row).
        OpShape::new("filter(l_extendedprice > 100)", 4, 1, 64, 0.25),
        // Project/gather l_quantity for qualifying rows.
        OpShape::new("gather(l_quantity)", 5, 4, 64, 1.0),
        // Multiply by the constant (DSB mantissa math).
        OpShape::new("mul(l_quantity, 0.5)", 4, 8, 0, 1.0),
        // Aggregate sum + min: tiny state, one output row.
        OpShape::new("agg(sum, min)", 12, 16, 256, 0.000001),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cm() -> CostModel {
        CostModel::default()
    }

    #[test]
    fn single_op_task_gets_large_vectors() {
        let ops = vec![OpShape::new("filter", 4, 1, 0, 0.5)];
        let f = optimize_tasks(&cm(), &ops, 32 * 1024, 1_000_000).unwrap();
        assert_eq!(f.tasks.len(), 1);
        // 32 KiB / (2*(4+1)) = ~3276 rows, and no more than the configured
        // vector where there is one.
        assert!(f.tasks[0].vector_rows > 3000);
        assert_eq!(vector_rows_for(&ops, 32 * 1024, 256), Some(256));
    }

    #[test]
    fn infeasible_when_state_exceeds_dmem() {
        let ops = vec![OpShape::new("monster", 4, 4, 64 * 1024, 1.0)];
        assert!(optimize_tasks(&cm(), &ops, 32 * 1024, 1000).is_none());
    }

    #[test]
    fn figure4_optimum_beats_both_extremes() {
        // The paper's point (Fig 4): neither extreme is best in general —
        // the optimizer's choice must cost no more than full fusion or a
        // one-op-per-task split.
        let c = cm();
        let ops = figure4_chain();
        let best = optimize_tasks(&c, &ops, 32 * 1024, 1_000_000).unwrap();
        let fused = vec![Task {
            ops: 0..4,
            vector_rows: vector_rows_for(&ops, 32 * 1024, usize::MAX).unwrap(),
        }];
        let split: Vec<Task> = (0..4)
            .map(|i| Task {
                ops: i..i + 1,
                vector_rows: vector_rows_for(&ops[i..=i], 32 * 1024, usize::MAX).unwrap(),
            })
            .collect();
        assert!(best.cost_cycles <= formation_cost(&c, &ops, &fused, 1_000_000) + 1e-6);
        assert!(best.cost_cycles <= formation_cost(&c, &ops, &split, 1_000_000) + 1e-6);
    }

    #[test]
    fn zero_tile_overhead_makes_fusion_optimal() {
        // With no per-tile control cost, small vectors are free and the
        // only cost left is boundary materialization — so fusing the whole
        // chain must win.
        let mut c = cm();
        c.per_tile_overhead_cycles = 0.0;
        let f = optimize_tasks(&c, &figure4_chain(), 32 * 1024, 1_000_000).unwrap();
        assert_eq!(f.tasks.len(), 1, "{:?}", f.tasks);
    }

    #[test]
    fn huge_tile_overhead_forces_splitting() {
        // When per-tile control dominates, big vectors matter more than
        // avoiding materialization: the optimizer splits the chain.
        let mut c = cm();
        c.per_tile_overhead_cycles = 1.0e6;
        let f = optimize_tasks(&c, &figure4_chain(), 32 * 1024, 1_000_000).unwrap();
        assert!(f.tasks.len() > 1);
    }

    #[test]
    fn tight_dmem_forces_split() {
        // Shrink DMEM so the 4-op chain cannot fit at 64-row vectors, even
        // single-buffered.
        let ops = figure4_chain();
        let needed = rapid_qef::budget::task_streams(&ops).sum::<usize>() * MIN_VECTOR_ROWS
            + rapid_qef::budget::task_state(&ops);
        assert_eq!(
            vector_rows_for(&ops, needed, usize::MAX),
            Some(MIN_VECTOR_ROWS)
        );
        let f = optimize_tasks(&cm(), &ops, needed - 1, 1_000_000).unwrap();
        assert!(f.tasks.len() >= 2, "must split under tight DMEM");
        // Every task must individually fit.
        for t in &f.tasks {
            assert!(t.vector_rows >= MIN_VECTOR_ROWS);
        }
    }

    #[test]
    fn boundary_bytes_drive_materialization_cost() {
        // Same task shapes, different boundary position: materializing the
        // wide mul output (8 B/row) must cost more than materializing the
        // filter bit-vector (1 B/row). Hold vector sizes fixed so only the
        // boundary term differs in the comparison's materialization part.
        let c = cm();
        let ops = vec![
            OpShape::new("a", 4, 1, 0, 1.0),
            OpShape::new("b", 1, 8, 0, 1.0),
            OpShape::new("c", 8, 8, 0, 1.0),
        ];
        let after_a = vec![
            Task {
                ops: 0..1,
                vector_rows: 256,
            },
            Task {
                ops: 1..3,
                vector_rows: 256,
            },
        ];
        let after_b = vec![
            Task {
                ops: 0..2,
                vector_rows: 256,
            },
            Task {
                ops: 2..3,
                vector_rows: 256,
            },
        ];
        // Tile-overhead terms are identical (3 op-tiles either way at
        // equal vectors and selectivity 1), so only boundary bytes differ:
        // 1 B/row vs 8 B/row.
        let ca = formation_cost(&c, &ops, &after_a, 1_000_000);
        let cb = formation_cost(&c, &ops, &after_b, 1_000_000);
        assert!(
            ca < cb,
            "narrow boundary {ca} should beat wide boundary {cb}"
        );
    }

    #[test]
    fn formation_covers_all_ops_exactly_once() {
        let ops = figure4_chain();
        let f = optimize_tasks(&cm(), &ops, 8 * 1024, 1_000_000).unwrap();
        let mut covered = vec![false; ops.len()];
        for t in &f.tasks {
            for i in t.ops.clone() {
                assert!(!covered[i], "op {i} covered twice");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn empty_chain() {
        let f = optimize_tasks(&cm(), &[], 32 * 1024, 0).unwrap();
        assert!(f.tasks.is_empty());
        assert_eq!(f.cost_cycles, 0.0);
    }
}
