//! Analytical cluster cost model for the `replidedup` evaluation.
//!
//! Experiments run in-process at MiB scale; the paper ran on 34 nodes at
//! GB scale. This crate bridges the two: [`DumpMeasurement`] captures the
//! exact byte counts a dump produced, [`ClusterModel`] converts them into
//! Shamrock-testbed phase times (NIC/HDD/CPU contention included), and
//! [`scenario`] holds the paper-scale application parameters (volumes,
//! checkpoint counts, baseline completion models) behind Table I and the
//! time figures.

// The panic-lint inventory of this crate: none is allowed outside tests.
// The model is closed-form arithmetic over measured counts, with no input
// to reject; `ClusterModel::dump_time`'s invariant `assert!` on a positive
// scale is not linted. `clippy.toml` still lets test code unwrap/expect.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod model;
pub mod scenario;

pub use model::{ClusterModel, DumpMeasurement, PhaseTimes, TrafficPrediction};
pub use scenario::{AppScenario, BaselineModel, CM1, HPCCG};
