//! Power and energy model for performance-per-watt reporting.
//!
//! The paper reports performance per watt "based on the CPU power alone and
//! not the other components" (§7.4). We follow the same methodology:
//!
//! * the DPU side uses its **provisioned power of 5.8 W** (32 dpCores at
//!   51 mW dynamic each, plus the DMS/ATE/uncore that make up the rest of
//!   the SoC budget at the 40 nm process),
//! * the x86 side uses the TDP of the evaluation machine, a dual-socket
//!   Intel Xeon E5-2699 (145 W per socket).
//!
//! Energy is simply `power × elapsed`, with elapsed being simulated time on
//! the DPU and wall-clock time on the host engine.

use crate::clock::SimTime;

/// Provisioned SoC power of one RAPID DPU (paper §2): 5.8 W.
pub const DPU_PROVISIONED_WATTS: f64 = 5.8;

/// Dynamic power of one dpCore at 800 MHz (paper §2): 51 mW.
pub const DPCORE_DYNAMIC_WATTS: f64 = 0.051;

/// TDP of one Intel Xeon E5-2699 socket (the x86 baseline machine).
pub const XEON_E5_2699_TDP_WATTS: f64 = 145.0;

/// Number of sockets in the paper's x86 baseline (dual-socket).
pub const X86_BASELINE_SOCKETS: usize = 2;

/// A provisioned-power model for one execution platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Provisioned processor power in watts.
    pub watts: f64,
}

impl PowerModel {
    /// The RAPID DPU power model (5.8 W provisioned).
    pub fn dpu() -> Self {
        PowerModel {
            watts: DPU_PROVISIONED_WATTS,
        }
    }

    /// The dual-socket x86 baseline power model (2 × 145 W TDP).
    pub fn x86_dual_socket() -> Self {
        PowerModel {
            watts: XEON_E5_2699_TDP_WATTS * X86_BASELINE_SOCKETS as f64,
        }
    }

    /// Energy in joules spent over `elapsed`.
    pub fn energy_joules(&self, elapsed: SimTime) -> f64 {
        self.watts * elapsed.as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dpu_power_matches_paper() {
        assert_eq!(PowerModel::dpu().watts, 5.8);
        // 32 cores' dynamic power is a fraction of the provisioned budget.
        assert!(32.0 * DPCORE_DYNAMIC_WATTS < PowerModel::dpu().watts);
    }

    #[test]
    fn energy_is_power_times_time() {
        let m = PowerModel { watts: 10.0 };
        let e = m.energy_joules(SimTime::from_secs(2.5));
        assert!((e - 25.0).abs() < 1e-12);
    }
}
