//! Simulated time: [`SimTime`] instants and [`SimDuration`] spans.
//!
//! Both types wrap a `u64` nanosecond count. They are deliberately *not*
//! interchangeable with `std::time` types: simulated time advances only
//! when the event loop processes events, never with the wall clock.

use std::fmt;
use std::iter::Sum;

use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated timeline, in nanoseconds since simulation
/// start.
///
/// # Examples
///
/// ```
/// use jetsim_des::{SimDuration, SimTime};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(3);
/// assert_eq!(t.as_micros_f64(), 3_000.0);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use jetsim_des::SimDuration;
///
/// let d = SimDuration::from_micros(20) * 4;
/// assert_eq!(d.as_millis_f64(), 0.08);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulated timeline.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Returns the instant as whole nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the instant as (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the instant as (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the duration elapsed since `earlier`, saturating to zero if
    /// `earlier` is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; use
    /// [`SimTime::saturating_since`] when that is possible.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Returns the later of two instants.
    #[inline]
    pub fn max_of(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond and saturating negative inputs to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(round_nonneg(secs.max(0.0) * 1e9))
    }

    /// Creates a duration from fractional microseconds, rounding to the
    /// nearest nanosecond and saturating negative inputs to zero.
    #[inline]
    pub fn from_micros_f64(micros: f64) -> Self {
        SimDuration(round_nonneg(micros.max(0.0) * 1e3))
    }

    /// Returns the span as whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the span as (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Returns the span as (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns the span as (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns `true` if the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by a non-negative factor, rounding to the
    /// nearest nanosecond. Negative factors saturate to zero.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration(round_nonneg(self.0 as f64 * factor.max(0.0)))
    }

    /// Subtracts `other`, saturating at zero.
    #[inline]
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Returns the larger of two spans.
    #[inline]
    pub fn max_of(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

/// [`f64::round`] then `as u64`, for a non-negative `x`: the nearest
/// integer, halves away from zero, saturating at `u64::MAX`, with NaN
/// (which only `0 × ∞` produces here) mapped to 0. The x86-64 baseline
/// has no rounding instruction, so `f64::round` is a library call on
/// every float-to-duration conversion; this costs a truncation and a
/// compare.
#[inline]
fn round_nonneg(x: f64) -> u64 {
    debug_assert!(x >= 0.0 || x.is_nan(), "round_nonneg({x})");
    // Below 2^52 the truncation and `x - t` are exact. From 2^52 up
    // every double is an integer, and `as` saturates as `round` would.
    if x < 4_503_599_627_370_496.0 {
        let t = x as i64;
        (t + i64::from(x - t as f64 >= 0.5)) as u64
    } else {
        x as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration underflow; use saturating_sub"),
        )
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;

    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl From<SimDuration> for std::time::Duration {
    fn from(d: SimDuration) -> Self {
        std::time::Duration::from_nanos(d.as_nanos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_add_duration() {
        let t = SimTime::from_nanos(10) + SimDuration::from_nanos(5);
        assert_eq!(t.as_nanos(), 15);
    }

    #[test]
    fn time_sub_time_gives_duration() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(40);
        assert_eq!((a - b).as_nanos(), 60);
    }

    #[test]
    #[should_panic(expected = "earlier")]
    fn since_panics_on_future_earlier() {
        let _ = SimTime::from_nanos(1).since(SimTime::from_nanos(2));
    }

    #[test]
    fn saturating_since_clamps() {
        let d = SimTime::from_nanos(1).saturating_since(SimTime::from_nanos(9));
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert_eq!(SimDuration::from_micros_f64(1.5).as_nanos(), 1_500);
    }

    #[test]
    fn from_secs_f64_saturates_negative() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration::from_nanos(10).mul_f64(1.26);
        assert_eq!(d.as_nanos(), 13);
        assert_eq!(SimDuration::from_nanos(10).mul_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_nanos(30);
        let b = SimDuration::from_nanos(12);
        assert_eq!((a + b).as_nanos(), 42);
        assert_eq!((a - b).as_nanos(), 18);
        assert_eq!((a * 2).as_nanos(), 60);
        assert_eq!((a / 3).as_nanos(), 10);
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_nanos).sum();
        assert_eq!(total.as_nanos(), 10);
    }

    #[test]
    fn max_of_picks_larger() {
        let a = SimDuration::from_nanos(3);
        let b = SimDuration::from_nanos(7);
        assert_eq!(a.max_of(b), b);
        let ta = SimTime::from_nanos(3);
        let tb = SimTime::from_nanos(7);
        assert_eq!(ta.max_of(tb), tb);
    }

    #[test]
    fn display_is_nonempty_and_scaled() {
        assert_eq!(format!("{}", SimDuration::from_nanos(7)), "7ns");
        assert_eq!(format!("{}", SimDuration::from_micros(7)), "7.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(7)), "7.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(7)), "7.000s");
        assert!(!format!("{}", SimTime::from_nanos(7)).is_empty());
    }

    #[test]
    fn converts_to_std_duration() {
        let std: std::time::Duration = SimDuration::from_micros(3).into();
        assert_eq!(std.as_nanos(), 3_000);
    }
}
