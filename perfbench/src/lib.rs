//! End-to-end and per-layer benchmark of paradmm's user-facing solve
//! paths. See `README.md` in this directory.

pub mod e2e;
pub mod json;
pub mod layers;
pub mod paths;
pub mod provenance;
pub mod report;
pub mod rng;
pub mod serve_load;
pub mod stats;
pub mod trace;
pub mod workloads;
