//! The flowzip benchmark: two seeded workloads driven through the
//! library's public entry points, end-to-end metrics measured with
//! tracing off, and a separate traced run that replays every layer in
//! spans to produce the per-layer ledger. See `README.md` beside this
//! crate for the workloads and the metric → layer → workload map.

pub mod alloc;
pub mod json;
pub mod layers;
pub mod ops;
pub mod run;
pub mod span;
pub mod stats;
pub mod sys;
pub mod workload;
