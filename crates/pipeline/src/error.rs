//! The pipeline's error type: every failure a session can hit, each with
//! enough context (which file, which stage) to print as-is.

use flowzip_core::datasets::CodecError;
use flowzip_trace::TraceError;
use std::fmt;

/// What went wrong in a [`Pipeline`](crate::Pipeline) run.
///
/// Configuration mistakes (`threads == 0`, an empty file list, a glob
/// that matches nothing) are caught up front as [`PipelineError::Config`]
/// with a human-readable description — a misconfigured session errors
/// immediately instead of panicking, hanging, or silently compressing
/// nothing.
#[derive(Debug)]
pub enum PipelineError {
    /// The session configuration is invalid; the message says exactly
    /// which knob and why.
    Config(String),
    /// Reading or parsing packet input failed.
    Read {
        /// What was being read (file names, "packet stream", …).
        context: String,
        /// The underlying reader error.
        source: TraceError,
    },
    /// Decoding a compressed archive failed.
    Decode {
        /// What was being decoded.
        context: String,
        /// The underlying codec error.
        source: CodecError,
    },
    /// The output capture format cannot represent a synthesized value
    /// (e.g. a timestamp past TSH/pcap's 32-bit seconds, which a
    /// well-formed but hostile archive can carry).
    Encode {
        /// What was being written.
        context: String,
        /// The underlying encoder error.
        source: TraceError,
    },
    /// Writing the sink failed.
    Write {
        /// Where the output was going.
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Config(msg) => write!(f, "{msg}"),
            PipelineError::Read { context, source } => write!(f, "{context}: {source}"),
            PipelineError::Decode { context, source } => write!(f, "{context}: {source}"),
            PipelineError::Encode { context, source } => write!(f, "{context}: {source}"),
            PipelineError::Write { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Config(_) => None,
            PipelineError::Read { source, .. } => Some(source),
            PipelineError::Decode { source, .. } => Some(source),
            PipelineError::Encode { source, .. } => Some(source),
            PipelineError::Write { source, .. } => Some(source),
        }
    }
}

impl PipelineError {
    /// Shorthand for a [`PipelineError::Config`].
    pub(crate) fn config(msg: impl Into<String>) -> PipelineError {
        PipelineError::Config(msg.into())
    }

    /// Wraps a reader error with its input context.
    pub(crate) fn read(context: impl Into<String>, source: TraceError) -> PipelineError {
        PipelineError::Read {
            context: context.into(),
            source,
        }
    }

    /// Wraps a codec error with its archive context.
    pub(crate) fn decode(context: impl Into<String>, source: CodecError) -> PipelineError {
        PipelineError::Decode {
            context: context.into(),
            source,
        }
    }

    /// Wraps an output-encoding error with its session context.
    pub(crate) fn encode(context: impl Into<String>, source: TraceError) -> PipelineError {
        PipelineError::Encode {
            context: context.into(),
            source,
        }
    }

    /// Wraps a sink write error with its destination context.
    pub(crate) fn write(context: impl Into<String>, source: std::io::Error) -> PipelineError {
        PipelineError::Write {
            context: context.into(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context_and_source() {
        let e = PipelineError::read(
            "compress web.tsh",
            TraceError::TruncatedRecord { got: 3, need: 44 },
        );
        let s = e.to_string();
        assert!(s.contains("compress web.tsh"), "{s}");
        assert!(s.contains("truncated"), "{s}");

        let c = PipelineError::config("threads must be ≥ 1 (got 0)");
        assert_eq!(c.to_string(), "threads must be ≥ 1 (got 0)");
    }
}
