//! [`Sink`] — where a session's serialized output goes.

use crate::error::PipelineError;
use flowzip_trace::TraceError;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// One session output: a file, an in-memory byte buffer returned from
/// [`run()`](crate::CompressBuilder::run), or any [`Write`]r you own.
pub struct Sink<'a> {
    pub(crate) kind: SinkKind<'a>,
}

pub(crate) enum SinkKind<'a> {
    File(PathBuf),
    Bytes,
    Writer(Box<dyn Write + 'a>),
}

impl<'a> Sink<'a> {
    /// Write the output to `path` (created or truncated).
    pub fn file(path: impl AsRef<Path>) -> Sink<'static> {
        Sink {
            kind: SinkKind::File(path.as_ref().to_path_buf()),
        }
    }

    /// Keep the output in memory;
    /// [`RunResult::into_bytes`](crate::RunResult::into_bytes) hands it
    /// back.
    pub fn bytes() -> Sink<'static> {
        Sink {
            kind: SinkKind::Bytes,
        }
    }

    /// Stream the output into any writer (a socket, a compressor, a
    /// test buffer).
    pub fn writer(writer: impl Write + 'a) -> Sink<'a> {
        Sink {
            kind: SinkKind::Writer(Box::new(writer)),
        }
    }

    /// The sink's path, when it has one (for the report).
    pub(crate) fn path(&self) -> Option<String> {
        match &self.kind {
            SinkKind::File(p) => Some(p.display().to_string()),
            _ => None,
        }
    }

    /// The scratch path a file sink writes before the atomic rename —
    /// `<path>.part` in the same directory. Signal handlers register
    /// this path so an interrupted run unlinks its half-written scratch
    /// file instead of leaving a truncated archive behind; readers
    /// watching `path` never observe a partial write at all.
    pub fn partial_path(path: &Path) -> PathBuf {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".part");
        path.with_file_name(name)
    }

    /// Opens the sink for streaming output. A file sink creates
    /// [`Sink::partial_path`] behind a buffered writer.
    pub(crate) fn open(self) -> Result<SinkWriter<'a>, PipelineError> {
        Ok(match self.kind {
            SinkKind::File(path) => {
                let part = PartFile(Sink::partial_path(&path));
                let file = File::create(&part.0)
                    .map_err(|e| PipelineError::write(format!("create {}", part.0.display()), e))?;
                SinkWriter::File {
                    w: BufWriter::with_capacity(BUF_BYTES, file),
                    part,
                    path,
                }
            }
            SinkKind::Bytes => SinkWriter::Bytes(Vec::new()),
            SinkKind::Writer(w) => SinkWriter::Writer(BufWriter::with_capacity(BUF_BYTES, w)),
        })
    }

    /// Delivers a finished image to the sink through the same writer a
    /// streaming session uses. Returns the buffer back for
    /// [`Sink::bytes`] (without copying it), `None` otherwise.
    pub(crate) fn deliver(self, bytes: Vec<u8>) -> Result<Option<Vec<u8>>, PipelineError> {
        if let SinkKind::Bytes = self.kind {
            return Ok(Some(bytes));
        }
        let mut w = self.open()?;
        w.write_all(&bytes).map_err(|e| w.io_error(e))?;
        w.finish()
    }
}

/// Buffer size of file and writer sinks.
const BUF_BYTES: usize = 256 << 10;

/// An open [`Sink`], as a [`Write`]r. File output lands in the `.part`
/// scratch file and is renamed into place only by
/// [`finish`](SinkWriter::finish); dropping the writer unfinished — an
/// error anywhere upstream — unlinks the scratch file, so `path` either
/// keeps its old content or gets the complete new one, never a
/// truncation.
pub(crate) enum SinkWriter<'a> {
    File {
        w: BufWriter<File>,
        part: PartFile,
        path: PathBuf,
    },
    Bytes(Vec<u8>),
    Writer(BufWriter<Box<dyn Write + 'a>>),
}

/// A scratch file that is unlinked on drop; renaming it into place
/// clears the path, which disarms the unlink.
pub(crate) struct PartFile(PathBuf);

impl Drop for PartFile {
    fn drop(&mut self) {
        if !self.0.as_os_str().is_empty() {
            std::fs::remove_file(&self.0).ok();
        }
    }
}

impl SinkWriter<'_> {
    /// Wraps an I/O failure of this sink with its destination.
    pub(crate) fn io_error(&self, e: std::io::Error) -> PipelineError {
        let context = match self {
            SinkWriter::File { part, .. } => format!("write {}", part.0.display()),
            SinkWriter::Bytes(_) | SinkWriter::Writer(_) => "write sink".to_string(),
        };
        PipelineError::write(context, e)
    }

    /// Maps a trace writer's failure: I/O errors are the sink's, the
    /// rest are values the capture format cannot encode.
    pub(crate) fn trace_error(&self, context: &str, e: TraceError) -> PipelineError {
        match e {
            TraceError::Io(e) => self.io_error(e),
            e => PipelineError::encode(context, e),
        }
    }

    /// Flushes and commits the output: renames a file sink's scratch
    /// file into place, returns the buffer of a bytes sink.
    pub(crate) fn finish(self) -> Result<Option<Vec<u8>>, PipelineError> {
        match self {
            SinkWriter::File { w, mut part, path } => {
                w.into_inner().map_err(|e| {
                    PipelineError::write(format!("write {}", part.0.display()), e.into_error())
                })?;
                std::fs::rename(&part.0, &path).map_err(|e| {
                    PipelineError::write(format!("rename into {}", path.display()), e)
                })?;
                part.0 = PathBuf::new();
                Ok(None)
            }
            SinkWriter::Bytes(bytes) => Ok(Some(bytes)),
            SinkWriter::Writer(w) => {
                let mut w = w
                    .into_inner()
                    .map_err(|e| PipelineError::write("write sink", e.into_error()))?;
                w.flush()
                    .map_err(|e| PipelineError::write("write sink", e))?;
                Ok(None)
            }
        }
    }
}

impl Write for SinkWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            SinkWriter::File { w, .. } => w.write(buf),
            SinkWriter::Bytes(v) => v.write(buf),
            SinkWriter::Writer(w) => w.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            SinkWriter::File { w, .. } => w.flush(),
            SinkWriter::Bytes(_) => Ok(()),
            SinkWriter::Writer(w) => w.flush(),
        }
    }
}

impl fmt::Debug for Sink<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            SinkKind::File(p) => f.debug_tuple("Sink::file").field(p).finish(),
            SinkKind::Bytes => write!(f, "Sink::bytes"),
            SinkKind::Writer(_) => write!(f, "Sink::writer(..)"),
        }
    }
}
