//! Cycle and simulated-time arithmetic.
//!
//! All timing in the simulator is kept in **fractional cycles** of the DPU
//! clock. Fractional cycles arise naturally from calibrated averages (the
//! paper reports e.g. *1.65 cycles per tuple* for the filter primitive) and
//! from bandwidth-derived transfer durations. Conversion to wall-clock
//! seconds happens only at reporting boundaries through [`SimTime`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// The DPU clock frequency reported by the paper: 800 MHz.
pub const DPU_FREQ_HZ: f64 = 800.0e6;

/// A (possibly fractional) number of DPU clock cycles.
///
/// `Cycles` is a thin newtype over `f64` so that cycle quantities cannot be
/// confused with row counts, byte counts or seconds in the timing code.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Cycles(pub f64);

impl Cycles {
    /// Zero cycles.
    pub const ZERO: Cycles = Cycles(0.0);

    /// The raw fractional cycle count.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// Largest of two cycle counts (used by the compute/transfer overlap rule).
    #[inline]
    pub fn max(self, other: Cycles) -> Cycles {
        Cycles(self.0.max(other.0))
    }

    /// Convert to simulated seconds at the given clock frequency.
    #[inline]
    pub fn to_time(self, freq_hz: f64) -> SimTime {
        SimTime::from_secs(self.0 / freq_hz)
    }

    /// Convert to simulated seconds at the nominal 800 MHz DPU clock.
    #[inline]
    pub fn to_dpu_time(self) -> SimTime {
        self.to_time(DPU_FREQ_HZ)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl Mul<f64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: f64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<f64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn div(self, rhs: f64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        Cycles(iter.map(|c| c.0).sum())
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} cy", self.0)
    }
}

/// A span of simulated time, stored in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct SimTime {
    secs: f64,
}

impl SimTime {
    /// Zero duration.
    pub const ZERO: SimTime = SimTime { secs: 0.0 };

    /// Construct from seconds.
    #[inline]
    pub fn from_secs(secs: f64) -> SimTime {
        SimTime { secs }
    }

    /// The duration in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.secs
    }

    /// The duration in milliseconds.
    #[inline]
    pub fn as_millis(self) -> f64 {
        self.secs * 1e3
    }

    /// Largest of two durations.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime {
            secs: self.secs.max(other.secs),
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime {
            secs: self.secs + rhs.secs,
        }
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.secs += rhs.secs;
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        SimTime {
            secs: iter.map(|t| t.secs).sum(),
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.secs >= 1.0 {
            write!(f, "{:.3} s", self.secs)
        } else if self.secs >= 1e-3 {
            write!(f, "{:.3} ms", self.secs * 1e3)
        } else {
            write!(f, "{:.3} us", self.secs * 1e6)
        }
    }
}

/// Throughput helpers used by the figure harness.
pub mod rates {
    use super::SimTime;

    /// GiB per second given a byte count and an elapsed simulated time.
    pub fn gib_per_sec(bytes: u64, elapsed: SimTime) -> f64 {
        if elapsed.as_secs() <= 0.0 {
            return 0.0;
        }
        bytes as f64 / elapsed.as_secs() / (1u64 << 30) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_to_time_at_dpu_clock() {
        // 800 cycles at 800 MHz is exactly one microsecond.
        let t = Cycles(800.0).to_dpu_time();
        assert!((t.as_secs() - 1e-6).abs() < 1e-18);
    }

    #[test]
    fn cycle_arithmetic() {
        let a = Cycles(10.0) + Cycles(2.5);
        assert_eq!(a, Cycles(12.5));
        assert_eq!(a * 2.0, Cycles(25.0));
        assert_eq!(a.max(Cycles(100.0)), Cycles(100.0));
        let s: Cycles = [Cycles(1.0), Cycles(2.0)].into_iter().sum();
        assert_eq!(s, Cycles(3.0));
    }

    #[test]
    fn rates_are_sane() {
        let t = SimTime::from_secs(2.0);
        let one_gib = 1u64 << 30;
        assert!((rates::gib_per_sec(2 * one_gib, t) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_elapsed_reports_zero_rate() {
        assert_eq!(rates::gib_per_sec(10, SimTime::ZERO), 0.0);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimTime::from_secs(1.5)), "1.500 s");
        assert_eq!(format!("{}", SimTime::from_secs(0.0015)), "1.500 ms");
        assert_eq!(format!("{}", SimTime::from_secs(12e-6)), "12.000 us");
    }
}
