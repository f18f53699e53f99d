//! # simkit — discrete-event simulation kernel
//!
//! Foundation crate for the interstitial-computing reproduction. Provides the
//! pieces every other crate builds on:
//!
//! * [`time`] — integer simulation time ([`SimTime`]) and durations
//!   ([`SimDuration`]) with saturating, panic-free arithmetic.
//! * [`rng`] — a deterministic, dependency-free pseudo-random generator
//!   (SplitMix64-seeded xoshiro256**) so every simulation is a pure function
//!   of its seed.
//! * [`dist`] — the non-uniform distributions the workload model needs
//!   (exponential, log-normal, Pareto, Weibull, Zipf, discrete alias tables,
//!   Poisson), implemented locally for reproducibility.
//! * [`stats`] — online moments (Welford), quantiles, ECDFs, log-histograms
//!   and least-squares fits used by the analysis layer.
//! * [`series`] — piecewise-constant step functions (free-capacity profiles)
//!   and binned time series (utilization traces).
//! * [`event`] — the future-event list: a stable, deterministic
//!   binary-heap [`EventQueue`] popping in ascending `(time, insertion)`
//!   order.
//!
//! All types are `std`-only; the crate has no runtime dependencies.

//!
//! ```
//! use simkit::{Rng, SimTime, SimDuration};
//! use simkit::series::StepFunction;
//!
//! // A 100-CPU capacity profile with a mid-log dip, and a slot query.
//! let mut free = StepFunction::constant(SimTime::from_hours(10), 100);
//! free.range_add(SimTime::from_hours(2), SimTime::from_hours(3), -80);
//! let slot = free.find_slot(SimTime::ZERO, 50, SimDuration::from_hours(4));
//! assert_eq!(slot, Some(SimTime::from_hours(3)));
//!
//! // Deterministic RNG: same seed, same stream.
//! assert_eq!(Rng::new(7).next_u64(), Rng::new(7).next_u64());
//! ```

#![warn(missing_docs)]

pub mod dist;
pub mod event;
pub mod rng;
pub mod series;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::Rng;
pub use time::{SimDuration, SimTime};
