//! Physical units used throughout the simulator.
//!
//! All simulated time is integral (picoseconds) so experiments
//! are deterministic and never accumulate floating-point drift. Conversions
//! to human-readable floating point happen only at reporting boundaries.

/// A size in bytes.
///
/// Thin wrapper so that byte quantities cannot be accidentally mixed with
/// cycle or time quantities.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Construct from kibibytes.
    pub const fn kib(n: u64) -> Self {
        ByteSize(n * 1024)
    }

    /// Construct from mebibytes.
    pub const fn mib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024)
    }

    /// Construct from gibibytes.
    pub const fn gib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024 * 1024)
    }

    /// Size in bytes.
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Size in mebibytes, as floating point (reporting only).
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Round up to the next multiple of `align` (which must be non-zero).
    pub fn align_up(self, align: u64) -> ByteSize {
        assert!(align > 0, "alignment must be non-zero");
        ByteSize(self.0.div_ceil(align) * align)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }

    /// Checked addition.
    pub fn checked_add(self, other: ByteSize) -> Option<ByteSize> {
        self.0.checked_add(other.0).map(ByteSize)
    }
}

impl core::ops::Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl core::iter::Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |a, b| a + b)
    }
}

impl core::fmt::Display for ByteSize {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let b = self.0;
        if b >= 1024 * 1024 * 1024 && b.is_multiple_of(1024 * 1024) {
            write!(f, "{:.2}GiB", b as f64 / (1024.0 * 1024.0 * 1024.0))
        } else if b >= 1024 * 1024 {
            write!(f, "{:.2}MiB", b as f64 / (1024.0 * 1024.0))
        } else if b >= 1024 {
            write!(f, "{:.2}KiB", b as f64 / 1024.0)
        } else {
            write!(f, "{b}B")
        }
    }
}

/// A duration or timestamp in picoseconds of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Picos(pub u64);

impl Picos {
    /// Zero duration.
    pub const ZERO: Picos = Picos(0);

    /// Construct from nanoseconds.
    pub const fn nanos(n: u64) -> Self {
        Picos(n * 1_000)
    }

    /// Construct from microseconds.
    pub const fn micros(n: u64) -> Self {
        Picos(n * 1_000_000)
    }

    /// Construct from milliseconds.
    pub const fn millis(n: u64) -> Self {
        Picos(n * 1_000_000_000)
    }

    /// Duration in milliseconds as floating point (reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration in seconds as floating point (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Picos) -> Picos {
        Picos(self.0.saturating_sub(other.0))
    }
}

impl core::ops::Add for Picos {
    type Output = Picos;
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for Picos {
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub for Picos {
    type Output = Picos;
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_size_constructors() {
        assert_eq!(ByteSize::kib(2).bytes(), 2048);
        assert_eq!(ByteSize::mib(1).bytes(), 1 << 20);
        assert_eq!(ByteSize::gib(1).bytes(), 1 << 30);
    }

    #[test]
    fn byte_size_align_up() {
        assert_eq!(ByteSize(5).align_up(4), ByteSize(8));
        assert_eq!(ByteSize(8).align_up(4), ByteSize(8));
        assert_eq!(ByteSize(0).align_up(4096), ByteSize(0));
    }

    #[test]
    #[should_panic(expected = "alignment must be non-zero")]
    fn byte_size_align_zero_panics() {
        let _ = ByteSize(5).align_up(0);
    }

    #[test]
    fn byte_size_display() {
        assert_eq!(ByteSize(512).to_string(), "512B");
        assert_eq!(ByteSize::kib(4).to_string(), "4.00KiB");
        assert_eq!(ByteSize::mib(360).to_string(), "360.00MiB");
    }

    #[test]
    fn picos_accumulate() {
        let mut t = Picos::ZERO;
        t += Picos::nanos(5);
        t += Picos::micros(1);
        assert_eq!(t, Picos(1_005_000));
        assert!((Picos::millis(2).as_millis_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn byte_size_sum() {
        let total: ByteSize = [ByteSize(1), ByteSize(2), ByteSize(3)].into_iter().sum();
        assert_eq!(total, ByteSize(6));
    }
}
