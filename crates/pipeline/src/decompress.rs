//! [`Pipeline::decompress`]: the symmetric session — archive in,
//! synthesized trace out, serialized as TSH or pcap.

use crate::compress::RunResult;
use crate::error::PipelineError;
use crate::input::{Input, InputKind};
use crate::report::{ArchiveSummary, Mode, Report, Timing};
use crate::sink::Sink;
use crate::Pipeline;
use flowzip_core::{DecompressParams, Decompressor};
use flowzip_trace::reader::CaptureFormat;
use flowzip_trace::{pcap, tsh};
use std::time::Instant;

/// Builder for one decompression session. Construct with
/// [`Pipeline::decompress`].
#[derive(Debug)]
pub struct DecompressBuilder<'a> {
    input: Option<Input<'a>>,
    sink: Option<Sink<'a>>,
    params: DecompressParams,
    output_format: CaptureFormat,
}

impl Pipeline {
    /// Starts a decompression session: one archive [`Input`]
    /// ([`Input::file`] or [`Input::bytes`]), one trace [`Sink`], then
    /// [`run()`](DecompressBuilder::run).
    pub fn decompress<'a>() -> DecompressBuilder<'a> {
        DecompressBuilder {
            input: None,
            sink: None,
            params: DecompressParams::default(),
            output_format: CaptureFormat::Tsh,
        }
    }
}

impl<'a> DecompressBuilder<'a> {
    /// The archive input (required): a `.fzc` file or in-memory bytes.
    pub fn input(mut self, input: Input<'a>) -> Self {
        self.input = Some(input);
        self
    }

    /// The trace output (required).
    pub fn sink(mut self, sink: Sink<'a>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// RNG seed for synthesized addresses and ports.
    pub fn seed(mut self, seed: u64) -> Self {
        self.params.seed = seed;
        self
    }

    /// Full decompression knobs (timing gaps, default RTT, seed).
    pub fn params(mut self, params: DecompressParams) -> Self {
        self.params = params;
        self
    }

    /// Capture format to serialize the synthesized trace in (default:
    /// TSH; pcap also supported).
    pub fn output_format(mut self, format: CaptureFormat) -> Self {
        self.output_format = format;
        self
    }

    /// Runs the session: read the archive, decode it, then stream the §4
    /// synthesis straight into the sink — [`Decompressor::packets`]
    /// merges the flows by timestamp and each packet is encoded in the
    /// chosen capture format as it is produced. No whole-trace packet
    /// vector or output image is built: memory is O(archive + active
    /// flows), not O(packets). A file sink is written to its `.part`
    /// scratch file and renamed into place only on success.
    ///
    /// The report's [`Timing`] splits the run into `read_wait_secs`
    /// (reading the archive), archive decode, and the streamed
    /// expand + write phase (`serialize_secs`); `stage_busy_secs` is
    /// decode + stream, and `unattributed_secs` what remains.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Config`] for inputs that are not archive-shaped;
    /// [`PipelineError::Read`] / [`PipelineError::Decode`] for unreadable
    /// or invalid archives; [`PipelineError::Encode`] when a synthesized
    /// timestamp does not fit the capture format;
    /// [`PipelineError::Write`] for sink failures.
    pub fn run(self) -> Result<RunResult, PipelineError> {
        let DecompressBuilder {
            input,
            sink,
            params,
            output_format,
        } = self;
        let input = input.ok_or_else(|| {
            PipelineError::config("decompress session has no input — call .input(Input::…)")
        })?;
        let sink = sink.ok_or_else(|| {
            PipelineError::config("decompress session has no sink — call .sink(Sink::…)")
        })?;
        let output_path = sink.path();
        let started = Instant::now();
        let inputs_desc = input.describe();
        let context = format!("decompress {}", inputs_desc.join(" "));

        let bytes = match input.kind {
            InputKind::Bytes(bytes) => bytes,
            InputKind::Files(paths) if paths.len() == 1 => std::fs::read(&paths[0])
                .map_err(|e| PipelineError::read(context.clone(), e.into()))?,
            InputKind::Files(_) | InputKind::Patterns(_) => {
                return Err(PipelineError::config(
                    "decompress reads exactly one archive — pass Input::file(path) \
                     or Input::bytes(vec)",
                ));
            }
            InputKind::Trace(_) | InputKind::Packets(_) | InputKind::Stream { .. } => {
                return Err(PipelineError::config(
                    "decompress wants a serialized archive (Input::file or Input::bytes), \
                     not a packet stream",
                ));
            }
        };
        let read_wait = started.elapsed().as_secs_f64();

        let decode = Instant::now();
        let (archive, summary) = ArchiveSummary::inspect_lean(&bytes)
            .map_err(|e| PipelineError::decode(context.clone(), e))?;
        drop(bytes);
        let packets = archive.packet_count();
        let decode_secs = decode.elapsed().as_secs_f64();

        let stream = Instant::now();
        let mut out = sink.open()?;
        let decompressor = Decompressor::new(params);
        let merged = decompressor.packets(&archive);
        let output_bytes = match output_format {
            CaptureFormat::Tsh => tsh::write_packets(&mut out, merged),
            CaptureFormat::Pcap => pcap::write_packets(&mut out, merged),
        }
        .map_err(|e| out.trace_error(&context, e))?;
        let bytes = out.finish()?;
        let stream_secs = stream.elapsed().as_secs_f64();

        let mut report = Report::new(Mode::Decompress);
        report.inputs = inputs_desc;
        report.output = output_path;
        report.packets = packets;
        report.flows = archive.flow_count() as u64;
        report.archive = Some(summary);
        let mut timing = Timing::new(
            started.elapsed().as_secs_f64(),
            read_wait,
            packets,
            packets * tsh::RECORD_BYTES as u64,
        );
        timing.serialize_secs = stream_secs;
        timing.stage_busy_secs = decode_secs + stream_secs;
        timing.unattributed_secs =
            (timing.elapsed_secs - timing.read_wait_secs - timing.stage_busy_secs).max(0.0);
        report.timing = Some(timing);
        report.output_bytes = output_bytes;
        Ok(RunResult { report, bytes })
    }
}
