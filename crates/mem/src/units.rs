//! Strongly-typed physical quantities used throughout the simulator.
//!
//! The simulator keeps global time in integer **picoseconds** so that runs
//! are bit-exact reproducible regardless of the mix of clock domains (CPU,
//! GPU and memory controller all run at different frequencies on a Jetson
//! class device). Converting a cycle count of one domain into wall time is a
//! single integer multiplication, and accumulated time never suffers from
//! floating-point drift.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A duration in integer picoseconds.
///
/// `u64` picoseconds cover ~213 days, far beyond any simulated experiment.
///
/// # Examples
///
/// ```
/// use icomm_mem::units::Picos;
///
/// let t = Picos::from_micros(2) + Picos::from_nanos(500);
/// assert_eq!(t.as_nanos_f64(), 2500.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Picos(pub u64);

impl Picos {
    /// Zero duration.
    pub const ZERO: Picos = Picos(0);

    /// Creates a duration from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        Picos(ns * 1_000)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Picos(us * 1_000_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Picos(ms * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// picosecond. Negative or non-finite inputs saturate to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return Picos::ZERO;
        }
        Picos((secs * 1e12).round() as u64)
    }

    /// Returns the raw picosecond count.
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Converts to fractional nanoseconds.
    pub fn as_nanos_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Converts to fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Converts to fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Converts to fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Picos) -> Picos {
        Picos(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Picos) -> Picos {
        Picos(self.0.min(other.0))
    }

    /// Saturating subtraction; clamps at zero instead of underflowing.
    pub fn saturating_sub(self, other: Picos) -> Picos {
        Picos(self.0.saturating_sub(other.0))
    }

    /// Whether the duration is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scales the duration by a non-negative factor, rounding to the nearest
    /// picosecond. Non-finite or negative factors are treated as zero.
    pub fn scale(self, factor: f64) -> Picos {
        if !factor.is_finite() || factor <= 0.0 {
            return Picos::ZERO;
        }
        Picos((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Picos {
    type Output = Picos;
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sub for Picos {
    type Output = Picos;
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl SubAssign for Picos {
    fn sub_assign(&mut self, rhs: Picos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Picos {
    type Output = Picos;
    fn mul(self, rhs: u64) -> Picos {
        Picos(self.0 * rhs)
    }
}

impl Div<u64> for Picos {
    type Output = Picos;
    fn div(self, rhs: u64) -> Picos {
        Picos(self.0 / rhs)
    }
}

impl Sum for Picos {
    fn sum<I: Iterator<Item = Picos>>(iter: I) -> Picos {
        iter.fold(Picos::ZERO, Add::add)
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3} ms", self.as_millis_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3} us", self.as_micros_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3} ns", self.as_nanos_f64())
        } else {
            write!(f, "{} ps", self.0)
        }
    }
}

/// A clock frequency in hertz.
///
/// # Examples
///
/// ```
/// use icomm_mem::units::Freq;
///
/// let f = Freq::mhz(1000);
/// assert_eq!(f.cycles_to_time(1000).as_nanos_f64(), 1000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Freq(pub u64);

impl Freq {
    /// Creates a frequency from megahertz.
    pub const fn mhz(mhz: u64) -> Self {
        Freq(mhz * 1_000_000)
    }

    /// Creates a frequency from gigahertz (integer).
    pub const fn ghz(ghz: u64) -> Self {
        Freq(ghz * 1_000_000_000)
    }

    /// Returns the frequency in hertz.
    pub const fn as_hz(self) -> u64 {
        self.0
    }

    /// The period of one cycle.
    ///
    /// # Panics
    ///
    /// Panics if the frequency is zero.
    pub fn period(self) -> Picos {
        assert!(self.0 > 0, "zero frequency has no period");
        Picos(1_000_000_000_000 / self.0)
    }

    /// Converts a cycle count in this clock domain to wall time.
    pub fn cycles_to_time(self, cycles: u64) -> Picos {
        // Split to avoid overflow for large cycle counts: cycles * 1e12 / hz.
        let period_ps = 1_000_000_000_000u128;
        let t = (cycles as u128 * period_ps) / self.0 as u128;
        Picos(t as u64)
    }

    /// Converts a wall-time duration to (rounded-up) cycles of this domain.
    pub fn time_to_cycles(self, t: Picos) -> u64 {
        let num = t.0 as u128 * self.0 as u128;
        num.div_ceil(1_000_000_000_000) as u64
    }
}

impl Default for Freq {
    fn default() -> Self {
        Freq::ghz(1)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000_000_000) {
            write!(f, "{} GHz", self.0 / 1_000_000_000)
        } else {
            write!(f, "{} MHz", self.0 / 1_000_000)
        }
    }
}

/// A byte count.
///
/// # Examples
///
/// ```
/// use icomm_mem::units::ByteSize;
///
/// assert_eq!(ByteSize::mib(2).as_u64(), 2 * 1024 * 1024);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size in kibibytes.
    pub const fn kib(k: u64) -> Self {
        ByteSize(k * 1024)
    }

    /// Creates a size in mebibytes.
    pub const fn mib(m: u64) -> Self {
        ByteSize(m * 1024 * 1024)
    }

    /// Creates a size in gibibytes.
    pub const fn gib(g: u64) -> Self {
        ByteSize(g * 1024 * 1024 * 1024)
    }

    /// Returns the raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, Add::add)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const KIB: u64 = 1024;
        const MIB: u64 = 1024 * KIB;
        const GIB: u64 = 1024 * MIB;
        if self.0 >= GIB && self.0.is_multiple_of(GIB) {
            write!(f, "{} GiB", self.0 / GIB)
        } else if self.0 >= MIB && self.0.is_multiple_of(MIB) {
            write!(f, "{} MiB", self.0 / MIB)
        } else if self.0 >= KIB && self.0.is_multiple_of(KIB) {
            write!(f, "{} KiB", self.0 / KIB)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A memory bandwidth.
///
/// Stored as bytes per second so that `time = bytes / bandwidth` is a single
/// integer division.
///
/// # Examples
///
/// ```
/// use icomm_mem::units::{Bandwidth, ByteSize};
///
/// let bw = Bandwidth::gib_per_sec(1);
/// let t = bw.transfer_time(ByteSize::gib(1));
/// assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Bandwidth(pub u64);

impl Bandwidth {
    /// Creates a bandwidth from gibibytes per second.
    pub const fn gib_per_sec(g: u64) -> Self {
        Bandwidth(g * 1024 * 1024 * 1024)
    }

    /// Creates a bandwidth from mebibytes per second.
    pub const fn mib_per_sec(m: u64) -> Self {
        Bandwidth(m * 1024 * 1024)
    }

    /// Creates a bandwidth from raw bytes per second.
    pub const fn bytes_per_sec(b: u64) -> Self {
        Bandwidth(b)
    }

    /// Returns the bandwidth in bytes per second.
    pub const fn as_bytes_per_sec(self) -> u64 {
        self.0
    }

    /// Returns the bandwidth in decimal gigabytes per second (the unit used
    /// by the paper's tables).
    pub fn as_gb_per_sec(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time to move `bytes` at this bandwidth (rounded up to a picosecond).
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is zero.
    pub fn transfer_time(self, bytes: ByteSize) -> Picos {
        assert!(self.0 > 0, "zero bandwidth cannot transfer data");
        // Up to ~18 MB the numerator fits in u64, whose division is much
        // cheaper than u128's and gives the same quotient.
        if let Some(num) = bytes.0.checked_mul(1_000_000_000_000) {
            return Picos(num.div_ceil(self.0));
        }
        let num = bytes.0 as u128 * 1_000_000_000_000u128;
        Picos(num.div_ceil(self.0 as u128) as u64)
    }

    /// Observed throughput for `bytes` moved in `time`; zero time yields
    /// zero throughput (rather than infinity) so reports stay finite.
    pub fn observed(bytes: ByteSize, time: Picos) -> Bandwidth {
        if time.is_zero() {
            return Bandwidth(0);
        }
        let bps = bytes.0 as u128 * 1_000_000_000_000u128 / time.0 as u128;
        Bandwidth(bps as u64)
    }
}

impl Default for Bandwidth {
    fn default() -> Self {
        Bandwidth::gib_per_sec(1)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GB/s", self.as_gb_per_sec())
    }
}

/// An energy amount in nanojoules.
///
/// # Examples
///
/// ```
/// use icomm_mem::units::Energy;
///
/// let e = Energy::from_nanojoules(1_500_000_000);
/// assert!((e.as_joules() - 1.5).abs() < 1e-12);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Energy(pub u64);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0);

    /// Creates an energy from nanojoules.
    pub const fn from_nanojoules(nj: u64) -> Self {
        Energy(nj)
    }

    /// Creates an energy from fractional joules; negative or non-finite
    /// inputs saturate to zero.
    pub fn from_joules(j: f64) -> Self {
        if !j.is_finite() || j <= 0.0 {
            return Energy::ZERO;
        }
        Energy((j * 1e9).round() as u64)
    }

    /// Returns the energy in nanojoules.
    pub const fn as_nanojoules(self) -> u64 {
        self.0
    }

    /// Returns the energy in joules.
    pub fn as_joules(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction; clamps at zero.
    pub fn saturating_sub(self, other: Energy) -> Energy {
        Energy(self.0.saturating_sub(other.0))
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, Add::add)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3} J", self.as_joules())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3} mJ", self.0 as f64 / 1e6)
        } else {
            write!(f, "{} nJ", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picos_constructors_agree() {
        assert_eq!(Picos::from_nanos(1), Picos(1_000));
        assert_eq!(Picos::from_micros(1), Picos(1_000_000));
        assert_eq!(Picos::from_millis(1), Picos(1_000_000_000));
        assert_eq!(Picos::from_secs_f64(1e-6), Picos::from_micros(1));
    }

    #[test]
    fn picos_from_secs_saturates_bad_input() {
        assert_eq!(Picos::from_secs_f64(-1.0), Picos::ZERO);
        assert_eq!(Picos::from_secs_f64(f64::NAN), Picos::ZERO);
        assert_eq!(Picos::from_secs_f64(f64::INFINITY), Picos::ZERO);
    }

    #[test]
    fn picos_arithmetic() {
        let a = Picos(100);
        let b = Picos(40);
        assert_eq!(a + b, Picos(140));
        assert_eq!(a - b, Picos(60));
        assert_eq!(a * 3, Picos(300));
        assert_eq!(a / 4, Picos(25));
        assert_eq!(b.saturating_sub(a), Picos::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn picos_scale_rounds() {
        assert_eq!(Picos(100).scale(1.5), Picos(150));
        assert_eq!(Picos(100).scale(0.0), Picos::ZERO);
        assert_eq!(Picos(100).scale(f64::NAN), Picos::ZERO);
    }

    #[test]
    fn picos_sum() {
        let total: Picos = [Picos(1), Picos(2), Picos(3)].into_iter().sum();
        assert_eq!(total, Picos(6));
    }

    #[test]
    fn picos_display_picks_unit() {
        assert_eq!(Picos(500).to_string(), "500 ps");
        assert_eq!(Picos::from_nanos(2).to_string(), "2.000 ns");
        assert_eq!(Picos::from_micros(3).to_string(), "3.000 us");
        assert_eq!(Picos::from_millis(4).to_string(), "4.000 ms");
    }

    #[test]
    fn freq_cycle_conversions_round_trip() {
        let f = Freq::mhz(1500);
        let t = f.cycles_to_time(1500);
        assert_eq!(t, Picos::from_micros(1));
        assert_eq!(f.time_to_cycles(t), 1500);
    }

    #[test]
    fn freq_time_to_cycles_rounds_up() {
        let f = Freq::ghz(1); // 1 cycle = 1000 ps
        assert_eq!(f.time_to_cycles(Picos(1)), 1);
        assert_eq!(f.time_to_cycles(Picos(1000)), 1);
        assert_eq!(f.time_to_cycles(Picos(1001)), 2);
    }

    #[test]
    #[should_panic(expected = "zero frequency")]
    fn freq_zero_period_panics() {
        let _ = Freq(0).period();
    }

    #[test]
    fn freq_large_cycle_count_no_overflow() {
        let f = Freq::ghz(2);
        // 10^12 cycles at 2 GHz = 500 seconds.
        let t = f.cycles_to_time(1_000_000_000_000);
        assert!((t.as_secs_f64() - 500.0).abs() < 1e-6);
    }

    #[test]
    fn bytesize_constructors() {
        assert_eq!(ByteSize::kib(1).as_u64(), 1024);
        assert_eq!(ByteSize::mib(1).as_u64(), 1024 * 1024);
        assert_eq!(ByteSize::gib(1).as_u64(), 1024 * 1024 * 1024);
    }

    #[test]
    fn bytesize_display() {
        assert_eq!(ByteSize(512).to_string(), "512 B");
        assert_eq!(ByteSize::kib(4).to_string(), "4 KiB");
        assert_eq!(ByteSize::mib(8).to_string(), "8 MiB");
        assert_eq!(ByteSize::gib(2).to_string(), "2 GiB");
    }

    #[test]
    fn bandwidth_transfer_time() {
        let bw = Bandwidth::gib_per_sec(4);
        let t = bw.transfer_time(ByteSize::gib(1));
        assert!((t.as_secs_f64() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn bandwidth_transfer_time_rounds_up() {
        let bw = Bandwidth::bytes_per_sec(3_000_000_000_000); // 3 B/ps
                                                              // 10 bytes at 3 B/ps = 3.33 ps, rounds up to 4.
        assert_eq!(bw.transfer_time(ByteSize(10)), Picos(4));
    }

    #[test]
    fn bandwidth_transfer_time_u64_path_matches_u128() {
        let u128_time = |bw: Bandwidth, bytes: u64| {
            (bytes as u128 * 1_000_000_000_000u128).div_ceil(bw.0 as u128) as u64
        };
        // Deterministic xorshift draws over both sides of the u64 cut-off
        // (~18.4 MB) and bandwidths from 1 B/s to beyond 1 TB/s.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..20_000 {
            let bytes = next() % (1 << (next() % 40));
            let bw = Bandwidth(1 + next() % (1 << (next() % 44)));
            assert_eq!(bw.transfer_time(ByteSize(bytes)).0, u128_time(bw, bytes));
        }
        for bytes in [0, 1, 64, 18_446_744, 18_446_745, u64::MAX / 2] {
            let bw = Bandwidth::gib_per_sec(25);
            assert_eq!(bw.transfer_time(ByteSize(bytes)).0, u128_time(bw, bytes));
        }
    }

    #[test]
    fn bandwidth_observed_inverse_of_transfer() {
        let bw = Bandwidth::gib_per_sec(25);
        let bytes = ByteSize::mib(64);
        let t = bw.transfer_time(bytes);
        let seen = Bandwidth::observed(bytes, t);
        let rel = (seen.0 as f64 - bw.0 as f64).abs() / bw.0 as f64;
        assert!(rel < 1e-6, "relative error {rel}");
    }

    #[test]
    fn bandwidth_observed_zero_time_is_zero() {
        assert_eq!(
            Bandwidth::observed(ByteSize(100), Picos::ZERO),
            Bandwidth(0)
        );
    }

    #[test]
    fn energy_conversions() {
        let e = Energy::from_joules(0.12);
        assert_eq!(e.as_nanojoules(), 120_000_000);
        assert!((e.as_joules() - 0.12).abs() < 1e-12);
        assert_eq!(Energy::from_joules(-1.0), Energy::ZERO);
    }
}
