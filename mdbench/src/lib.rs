//! `mdbench`: a layered host benchmark of the `lammps-kk` timestep.
//!
//! Four fixed-seed workloads run through the public `lammps_kk` API.
//! An untraced run reports end-to-end throughput, step latency, set-up
//! time and peak memory; a traced run attributes the step to layers
//! through timing decorators on the public traits. See `README.md`.

// A benchmark reads the wall clock by design; the repository's
// clippy.toml forbids it for the program's own deterministic paths.
#![allow(clippy::disallowed_methods)]

pub mod layers;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
