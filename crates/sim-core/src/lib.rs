//! Deterministic discrete-event simulation core for the GroCoca workspace.
//!
//! This crate replaces the commercial CSIM library the original paper used:
//! it provides a simulation clock ([`SimTime`]), a deterministic event
//! scheduler ([`Scheduler`]), CSIM-style FIFO queueing facilities
//! ([`Facility`]), seeded random substreams ([`SimRng`]), the online
//! estimators the protocols rely on ([`Welford`], [`Ewma`]), and
//! insertion-ordered deterministic collections ([`DetMap`], [`DetSet`])
//! that replace the hash-order-dependent `std` maps in simulation code.
//! [`codec`] is the one binary codec and checksum behind every format
//! the workspace persists.
//!
//! # Examples
//!
//! A two-event simulation:
//!
//! ```
//! use grococa_sim::{run_until, Scheduler, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev {
//!     Ping,
//!     Pong,
//! }
//!
//! let mut log = Vec::new();
//! let mut sched = Scheduler::new();
//! sched.schedule_at(SimTime::from_secs(1), Ev::Ping);
//! run_until(&mut log, &mut sched, SimTime::MAX, |log, sched, ev| match ev {
//!     Ev::Ping => {
//!         log.push("ping");
//!         sched.schedule_after(SimTime::from_secs(1), Ev::Pong);
//!     }
//!     Ev::Pong => log.push("pong"),
//! });
//! assert_eq!(log, ["ping", "pong"]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
mod det;
mod event;
mod facility;
mod rng;
mod stats;
mod time;

pub use det::{DetMap, DetSet};
pub use event::{run_until, EventId, Scheduler, SchedulerState};
pub use facility::{transmission_time, Facility};
pub use rng::{derive_seed, SimRng};
pub use stats::{Ewma, Ratio, Welford};
pub use time::SimTime;
