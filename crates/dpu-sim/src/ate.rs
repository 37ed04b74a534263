//! Atomic Transaction Engine (ATE): on-chip messaging between dpCores.
//!
//! The DPU has no cache coherency; cores coordinate exclusively through the
//! ATE, a 2-level crossbar (8 cores per macro × 4 macros) with hardware
//! mailboxes that guarantees **point-to-point ordering** (§2.4).
//!
//! The simulator runs a stage's lanes as one deterministic computation, so
//! nothing is delivered through mailboxes here: what it models is the hop
//! latency a message is charged. A message within a macro costs
//! `ate_message_cycles`; one crossing a macro boundary adds
//! `ate_cross_macro_cycles`.

use crate::clock::Cycles;
use crate::isa::CostModel;

/// Number of dpCores per macro on the DPU (8 cores × 4 macros = 32).
pub const CORES_PER_MACRO: usize = 8;

/// Whether two cores live in the same 8-core macro.
pub fn same_macro(a: usize, b: usize) -> bool {
    a / CORES_PER_MACRO == b / CORES_PER_MACRO
}

/// Modelled latency of a `from -> to` message.
pub fn message_cost(cm: &CostModel, from: usize, to: usize) -> Cycles {
    if same_macro(from, to) {
        Cycles(cm.ate_message_cycles)
    } else {
        Cycles(cm.ate_message_cycles + cm.ate_cross_macro_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_macro_costs_more() {
        let cm = CostModel::default();
        let near = message_cost(&cm, 0, 7);
        let far = message_cost(&cm, 0, 8);
        assert!(far.get() > near.get());
        assert!(same_macro(0, 7));
        assert!(!same_macro(7, 8));
    }
}
