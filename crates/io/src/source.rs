//! The [`InputSource`] abstraction — "something that yields a packet
//! stream and can say how long the pipeline waited on it" — plus
//! [`FileSource`], the single-file implementation with optional
//! prefetching, and [`ReaderSource`], the same contract over any
//! [`Read`](std::io::Read)er (a stdin pipe, an accepted socket).

use crate::prefetch::{PrefetchConfig, PrefetchReader};
use crate::stats::{IoStats, TimedRead};
use flowzip_trace::reader::{CaptureFormat, CaptureReader};
use flowzip_trace::{PacketRecord, TraceError};
use std::io::BufReader;
use std::path::{Path, PathBuf};

/// Buffered-reader capacity for capture files. TSH records are 44 bytes;
/// a generous buffer keeps the per-record `read` calls off the syscall
/// path entirely.
pub(crate) const FILE_BUF_BYTES: usize = 256 << 10;

/// A pluggable packet input: the engine consumes
/// [`InputSource::into_packets`] and, once the run finishes, reads the
/// [`IoStats`] handle to split wall-clock into read-wait vs. compute.
///
/// Implementations in this crate: [`FileSource`] (one capture file,
/// optionally prefetched on a dedicated I/O thread) and
/// [`MultiFileSource`](crate::MultiFileSource) (an ordered pre-split set
/// drained by parallel reader threads).
pub trait InputSource {
    /// The packet iterator this source turns into.
    type Packets: Iterator<Item = Result<PacketRecord, TraceError>>;

    /// A handle onto the source's wait/byte counters. Clone it before
    /// [`InputSource::into_packets`] consumes the source; totals keep
    /// updating while the stream drains.
    fn stats(&self) -> IoStats;

    /// Consumes the source into its packet stream.
    fn into_packets(self) -> Self::Packets;
}

/// The underlying byte stream of a [`FileSource`]: a plain timed file
/// read, or a prefetch thread. Opaque — it only exists so
/// [`FileSource`]'s iterator type can be named. Every non-empty read
/// (one fill of the capture reader's buffer) counts as one batch.
#[derive(Debug)]
pub struct FileStream(Stream, IoStats);

#[derive(Debug)]
enum Stream {
    Direct(TimedRead<std::fs::File>),
    Prefetched(PrefetchReader),
}

impl std::io::Read for FileStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = match &mut self.0 {
            Stream::Direct(r) => r.read(buf)?,
            Stream::Prefetched(r) => r.read(buf)?,
        };
        if n > 0 {
            self.1.add_batch();
        }
        Ok(n)
    }
}

/// One capture file (TSH or pcap, sniffed from the magic) as an
/// [`InputSource`].
///
/// Without prefetch this is exactly the classic path — a buffered file
/// read on the consuming thread — except instrumented: time inside
/// `read()` is charged to the stats handle as read-wait. With
/// [`FileSource::open_prefetched`] the chunk reads move to a dedicated
/// I/O thread and only the consumer's channel waits count, so the stats
/// show how much of the disk time the overlap actually hid.
#[derive(Debug)]
pub struct FileSource {
    reader: CaptureReader<BufReader<FileStream>>,
    path: PathBuf,
    stats: IoStats,
}

impl FileSource {
    /// Opens `path` with plain (non-overlapped) reads.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the file cannot be opened,
    /// [`PcapReader::new`](flowzip_trace::PcapReader::new) errors for a
    /// bad pcap header.
    pub fn open(path: impl AsRef<Path>) -> Result<FileSource, TraceError> {
        FileSource::open_with(path, None)
    }

    /// Opens `path` with a prefetching I/O thread reading ahead.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FileSource::open`].
    pub fn open_prefetched(
        path: impl AsRef<Path>,
        config: PrefetchConfig,
    ) -> Result<FileSource, TraceError> {
        FileSource::open_with(path, Some(config))
    }

    /// Opens `path`, prefetched when `prefetch` is set.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FileSource::open`].
    pub fn open_with(
        path: impl AsRef<Path>,
        prefetch: Option<PrefetchConfig>,
    ) -> Result<FileSource, TraceError> {
        let path = path.as_ref().to_path_buf();
        let stats = IoStats::new();
        let file = std::fs::File::open(&path)?;
        let stream = FileStream(
            match prefetch {
                None => Stream::Direct(TimedRead::new(file, stats.clone())),
                Some(config) => {
                    Stream::Prefetched(PrefetchReader::with_config(file, config, stats.clone()))
                }
            },
            stats.clone(),
        );
        let reader = CaptureReader::open(BufReader::with_capacity(FILE_BUF_BYTES, stream))?;
        Ok(FileSource {
            reader,
            path,
            stats,
        })
    }

    /// The capture format the magic sniff detected.
    pub fn format(&self) -> CaptureFormat {
        self.reader.format()
    }

    /// The file this source reads.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl InputSource for FileSource {
    type Packets = CaptureReader<BufReader<FileStream>>;

    fn stats(&self) -> IoStats {
        self.stats.clone()
    }

    fn into_packets(self) -> Self::Packets {
        self.reader
    }
}

/// Any byte stream (a stdin pipe, an accepted TCP or Unix socket, a
/// test buffer) as an [`InputSource`]: the capture format is sniffed
/// from the first bytes exactly like [`FileSource`], and time blocked
/// inside the underlying `read()` is charged to the stats handle as
/// read-wait — on a live pipe that is the time spent waiting for the
/// producer, the figure a `flowzip serve` session reports.
#[derive(Debug)]
pub struct ReaderSource<R: std::io::Read> {
    reader: CaptureReader<BufReader<TimedRead<R>>>,
    stats: IoStats,
}

impl<R: std::io::Read> ReaderSource<R> {
    /// Wraps `inner`, sniffing TSH vs. pcap from its first bytes.
    ///
    /// # Errors
    ///
    /// [`TraceError::Io`] when the first read fails;
    /// [`PcapReader::new`](flowzip_trace::PcapReader::new) errors for a
    /// bad pcap header.
    pub fn open(inner: R) -> Result<ReaderSource<R>, TraceError> {
        let stats = IoStats::new();
        let reader = CaptureReader::open(BufReader::with_capacity(
            FILE_BUF_BYTES,
            TimedRead::new(inner, stats.clone()),
        ))?;
        Ok(ReaderSource { reader, stats })
    }

    /// The capture format the magic sniff detected.
    pub fn format(&self) -> CaptureFormat {
        self.reader.format()
    }
}

impl<R: std::io::Read> InputSource for ReaderSource<R> {
    type Packets = CaptureReader<BufReader<TimedRead<R>>>;

    fn stats(&self) -> IoStats {
        self.stats.clone()
    }

    fn into_packets(self) -> Self::Packets {
        self.reader
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowzip_trace::prelude::*;
    use flowzip_trace::{pcap, tsh};

    fn sample_trace(n: u64) -> Trace {
        let mut t = Trace::new();
        for i in 0..n {
            t.push(
                PacketRecord::builder()
                    .timestamp(Timestamp::from_micros(i * 50))
                    .src(Ipv4Addr::new(10, 1, 0, 1), 5000 + (i % 64) as u16)
                    .dst(Ipv4Addr::new(192, 0, 2, 7), 80)
                    .flags(TcpFlags::ACK)
                    .build(),
            );
        }
        t
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flowzip-src-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn reads_both_formats_and_counts_bytes() {
        let dir = tmp("formats");
        let t = sample_trace(200);
        for (name, bytes, format) in [
            ("a.tsh", tsh::to_bytes(&t), CaptureFormat::Tsh),
            ("a.pcap", pcap::to_bytes(&t), CaptureFormat::Pcap),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, &bytes).unwrap();
            let src = FileSource::open(&path).unwrap();
            assert_eq!(src.format(), format);
            assert_eq!(src.path(), path.as_path());
            let stats = src.stats();
            let packets: Vec<_> = src.into_packets().map(|p| p.unwrap()).collect();
            assert_eq!(packets.len(), t.len());
            assert_eq!(stats.bytes_read(), bytes.len() as u64);
            // One buffer fill covers these small files.
            assert_eq!(stats.batches(), 1, "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prefetched_stream_is_packet_identical() {
        let dir = tmp("prefetch");
        let t = sample_trace(3_000);
        let path = dir.join("big.tsh");
        std::fs::write(&path, tsh::to_bytes(&t)).unwrap();

        let direct: Vec<_> = FileSource::open(&path)
            .unwrap()
            .into_packets()
            .map(|p| p.unwrap())
            .collect();
        let source = FileSource::open_prefetched(
            &path,
            PrefetchConfig {
                chunk_bytes: 4096,
                chunks: 3,
            },
        )
        .unwrap();
        let stats = source.stats();
        let prefetched: Vec<_> = source.into_packets().map(|p| p.unwrap()).collect();
        assert_eq!(direct, prefetched);
        // Each 4 KiB chunk reaches the capture reader as one fill.
        assert_eq!(stats.batches(), stats.bytes_read().div_ceil(4096));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        let err = FileSource::open("/nonexistent/missing.tsh").unwrap_err();
        assert!(matches!(err, TraceError::Io(_)));
    }

    #[test]
    fn reader_source_sniffs_and_streams_like_a_file() {
        let t = sample_trace(150);
        for (bytes, format) in [
            (tsh::to_bytes(&t), CaptureFormat::Tsh),
            (pcap::to_bytes(&t), CaptureFormat::Pcap),
        ] {
            let src = ReaderSource::open(std::io::Cursor::new(bytes.clone())).unwrap();
            assert_eq!(src.format(), format);
            let stats = src.stats();
            let packets: Vec<_> = src.into_packets().map(|p| p.unwrap()).collect();
            assert_eq!(packets.len(), t.len());
            assert_eq!(packets[0], t.iter().next().cloned().unwrap());
            assert_eq!(stats.bytes_read(), bytes.len() as u64);
        }
    }

    #[test]
    fn reader_source_on_garbage_treats_bytes_as_tsh() {
        // No pcap magic → the sniff falls back to TSH; a short tail is a
        // truncated-record error from the iterator, not a panic.
        let src = ReaderSource::open(std::io::Cursor::new(vec![0u8; 10])).unwrap();
        assert_eq!(src.format(), CaptureFormat::Tsh);
        let items: Vec<_> = src.into_packets().collect();
        assert_eq!(items.len(), 1);
        assert!(items[0].is_err());
    }
}
