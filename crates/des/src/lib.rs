//! Deterministic discrete-event simulation core for the `jetsim` workspace.
//!
//! This crate provides the low-level machinery every simulator in the
//! workspace is built on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`CalendarQueue`] — a deterministic future-event list,
//! * [`SimRng`] — a seeded random-number generator wrapper so that every
//!   experiment is exactly reproducible, [`splitmix64`], the hash
//!   every layer derives decorrelated seeds with, and [`fnv1a`], the
//!   content fingerprint every layer pins bytes with,
//! * [`arrivals`] — open-loop request arrival generators (Poisson,
//!   bursty MMPP, trace replay) for serving simulators.
//!
//! # Examples
//!
//! ```
//! use jetsim_des::{CalendarQueue, SimDuration, SimTime};
//!
//! let mut queue: CalendarQueue<&'static str> = CalendarQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_micros(5), "launch");
//! queue.schedule(SimTime::ZERO + SimDuration::from_micros(2), "enqueue");
//!
//! let (t, ev) = queue.pop().unwrap();
//! assert_eq!(ev, "enqueue");
//! assert_eq!(t.as_nanos(), 2_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod calendar;
pub mod rng;
pub mod time;

pub use arrivals::{gaps_from_times, ArrivalProcess, ArrivalStream};
pub use calendar::CalendarQueue;
pub use rng::{fnv1a, splitmix64, Fnv1a, SimRng};
pub use time::{SimDuration, SimTime};
