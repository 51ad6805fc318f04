//! `flowzip-engine` — a sharded, bounded-memory **streaming** compression
//! pipeline over the §3 algorithm.
//!
//! The core [`Compressor`](flowzip_core::Compressor) is batch-only: it
//! wants the whole [`Trace`](flowzip_trace::Trace) in memory. This crate
//! turns the same algorithm into an online pipeline that handles traces
//! far larger than RAM:
//!
//! * **Incremental input** — packets arrive from any
//!   `Iterator<Item = Result<PacketRecord, TraceError>>`, e.g. the
//!   streaming [`TshReader`](flowzip_trace::TshReader) /
//!   [`PcapReader`](flowzip_trace::PcapReader). Pluggable
//!   [`InputSource`](flowzip_io::InputSource)s go through
//!   `flowzip-pipeline`'s `Input::file`/`Input::files`: a prefetched
//!   [`FileSource`](flowzip_io::FileSource) or a parallel-reader
//!   [`MultiFileSource`](flowzip_io::MultiFileSource) overlaps disk and
//!   decode with compute; batch-granular sources
//!   ([`BatchRead`](flowzip_io::BatchRead)) enter through
//!   [`StreamingEngine::compress_batches_to_bytes`].
//! * **Flow sharding** — with N > 1 shards, the calling thread routes
//!   each packet by the hash of its canonical flow key across N worker
//!   threads, so every packet of a flow lands on the same shard and
//!   per-flow state never needs locks. Packets travel in batches over
//!   bounded channels to amortize send overhead and to apply
//!   back-pressure to the reader. One shard (the default) runs inline,
//!   with no channel and no extra thread.
//! * **Bounded memory** — each shard runs its own
//!   [`FlowAccumulator`](flowzip_core::FlowAccumulator) with idle-flow
//!   timeout eviction and drains finished flows into a shard-local
//!   [`TemplateStore`](flowzip_core::TemplateStore) as they close, so
//!   resident state is proportional to flow *concurrency*, not trace
//!   length.
//! * **Exact merge** — per-shard stores fold into one dataset via
//!   [`TemplateStore::merge`](flowzip_core::TemplateStore::merge), which
//!   re-clusters foreign centers under the same Eq. 4 `d_sim` rule, so the
//!   merged archive is a valid `CompressedTrace` indistinguishable in
//!   structure from batch output.
//!
//! With one shard and no idle timeout the engine is *byte-identical* to
//! the batch compressor; with many shards the per-flow datasets stay
//! exactly equal and only the greedy clustering may differ slightly (the
//! equivalence property tests pin both).
//!
//! # Example
//!
//! The two primitive entry points are
//! [`StreamingEngine::compress_stream`] (in-memory archive + report) and
//! [`StreamingEngine::compress_stream_to_bytes`] (serialized container).
//! Applications normally sit one level up, on `flowzip-pipeline`'s
//! `Pipeline::compress()` session API, which runs every compression
//! through this engine.
//!
//! ```
//! use flowzip_engine::StreamingEngine;
//! use flowzip_traffic::web::{WebTrafficConfig, WebTrafficGenerator};
//!
//! let trace = WebTrafficGenerator::new(
//!     WebTrafficConfig { flows: 200, ..Default::default() }, 42).generate();
//!
//! let engine = StreamingEngine::builder().shards(2).build();
//! let (archive, report) = engine
//!     .compress_stream(trace.iter().cloned().map(Ok))
//!     .unwrap();
//! assert_eq!(report.report.packets, trace.len() as u64);
//! assert!(archive.validate().is_ok());
//! ```

pub mod builder;
pub mod engine;
mod obs;
pub mod report;
mod route;

pub use builder::{CancelFlag, ConfigError, EngineBuilder, EngineConfig};
pub use engine::StreamingEngine;
pub use report::EngineReport;

// Re-exported so engine embedders can enable observability without a
// direct `flowzip-obs` dependency.
pub use flowzip_obs::{Metrics, Profiler};
