//! `perfbench`: the repository benchmark. Four closed-loop workloads, one
//! client each, drive the fundb pipeline through its public entry points
//! and time every call from outside; a separate traced run splits each
//! op's wall time by layer. README.md says why each workload exists and
//! which layer metric should move which end-to-end metric.

pub mod hist;
pub mod host;
pub mod rng;
pub mod trace;
pub mod workloads;

pub use trace::Tracer;
pub use workloads::{run_workload, traced_sweep, Ctx, Metric, Outcome, Scale, Stop, Workload};
