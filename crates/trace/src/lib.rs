//! Binary miss-trace recording and replay.
//!
//! The synthetic generators in [`cameo_workloads`] are deterministic, but
//! sharing and re-running a specific stream — or feeding the simulator a
//! trace captured from elsewhere — calls for a file format. This crate
//! provides one:
//!
//! ```text
//! header:  magic "CAMEOTR1" | name len u8 | name bytes |
//!          footprint_pages u64 LE | event count u64 LE
//! events:  gap u32 LE | line u64 LE | pc u64 LE | flags u8   (21 bytes each)
//! ```
//!
//! Every gap is at least one instruction: a replay advances the core by
//! the gap, so a zero gap would never let a run reach its instruction
//! budget. The writer refuses one and the reader rejects one.
//!
//! [`TraceWriter`] records any [`MissStream`] (or individual events);
//! [`TraceFile`] loads a recording and replays it as a `MissStream` again —
//! wrapping around at the end so the runner can draw as many events as it
//! needs.
//!
//! # Examples
//!
//! ```
//! use cameo_trace::{TraceFile, TraceWriter};
//! use cameo_workloads::{by_name, MissStream, TraceConfig, TraceGenerator};
//!
//! # fn main() -> Result<(), cameo_trace::TraceError> {
//! let spec = by_name("astar").unwrap();
//! let mut generator = TraceGenerator::new(
//!     spec,
//!     TraceConfig { scale: 1024, seed: 7, core_offset_pages: 0 },
//! );
//! let mut buf = Vec::new();
//! TraceWriter::record(&mut buf, "astar", &mut generator, 100)?;
//! let mut replay = TraceFile::parse(&buf)?.into_replay();
//! let first = replay.next_event();
//! assert!(first.gap_instructions >= 1);
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::io::{self, Read, Write};

use cameo_types::LineAddr;
use cameo_workloads::{MissEvent, MissStream};

const MAGIC: &[u8; 8] = b"CAMEOTR1";
const EVENT_BYTES: usize = 21;
const FLAG_WRITE: u8 = 1;
const ZERO_GAP: &str = "zero instruction gap";

/// Errors raised while reading or writing trace files.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the `CAMEOTR1` magic.
    BadMagic,
    /// The header or event section is truncated or inconsistent.
    Malformed(&'static str),
    /// A recording must contain at least one event to be replayable.
    Empty,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::BadMagic => f.write_str("not a CAMEO trace (bad magic)"),
            TraceError::Malformed(what) => write!(f, "malformed trace: {what}"),
            TraceError::Empty => f.write_str("trace contains no events"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

/// Streaming writer for trace files.
///
/// Use [`TraceWriter::record`] to capture a whole stream in one call, or
/// create one with [`TraceWriter::new`] and push events individually.
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    sink: W,
    events_written: u64,
    declared_events: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a trace file: writes the header. `event_count` events must
    /// follow via [`TraceWriter::push`].
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or if `name` exceeds 255 bytes.
    pub fn new(
        mut sink: W,
        name: &str,
        footprint_pages: u64,
        event_count: u64,
    ) -> Result<Self, TraceError> {
        let name_bytes = name.as_bytes();
        if name_bytes.len() > 255 {
            return Err(TraceError::Malformed("name longer than 255 bytes"));
        }
        sink.write_all(MAGIC)?;
        sink.write_all(&[name_bytes.len() as u8])?;
        sink.write_all(name_bytes)?;
        sink.write_all(&footprint_pages.to_le_bytes())?;
        sink.write_all(&event_count.to_le_bytes())?;
        Ok(Self {
            sink,
            events_written: 0,
            declared_events: event_count,
        })
    }

    /// Appends one event.
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure, when more events are pushed than
    /// the header declared, or for a zero instruction gap.
    pub fn push(&mut self, event: &MissEvent) -> Result<(), TraceError> {
        if self.events_written >= self.declared_events {
            return Err(TraceError::Malformed("more events than declared"));
        }
        if event.gap_instructions == 0 {
            return Err(TraceError::Malformed(ZERO_GAP));
        }
        let gap = u32::try_from(event.gap_instructions).unwrap_or(u32::MAX);
        self.sink.write_all(&gap.to_le_bytes())?;
        self.sink.write_all(&event.line.raw().to_le_bytes())?;
        self.sink.write_all(&event.pc.to_le_bytes())?;
        self.sink
            .write_all(&[if event.is_write { FLAG_WRITE } else { 0 }])?;
        self.events_written += 1;
        Ok(())
    }

    /// Finishes the file, verifying the declared count was met, and
    /// returns the sink.
    ///
    /// # Errors
    ///
    /// Returns an error if fewer events were pushed than declared.
    pub fn finish(mut self) -> Result<W, TraceError> {
        if self.events_written != self.declared_events {
            return Err(TraceError::Malformed("fewer events than declared"));
        }
        self.sink.flush()?;
        Ok(self.sink)
    }

    /// Records `events` events drawn from `stream` into `sink` in one call.
    ///
    /// # Errors
    ///
    /// Propagates any I/O failure.
    pub fn record<S: MissStream + ?Sized>(
        sink: W,
        name: &str,
        stream: &mut S,
        events: u64,
    ) -> Result<W, TraceError> {
        let mut writer = Self::new(sink, name, stream.footprint_pages(), events)?;
        for _ in 0..events {
            let e = stream.next_event();
            writer.push(&e)?;
        }
        writer.finish()
    }
}

/// A fully loaded trace: header metadata plus all events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceFile {
    /// Workload name from the header.
    pub name: String,
    /// Virtual footprint in pages.
    pub footprint_pages: u64,
    /// The recorded events, in order.
    pub events: Vec<MissEvent>,
}

impl TraceFile {
    /// Reads and validates a trace from any reader.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on I/O failure, bad magic, truncation, a
    /// zero instruction gap, or an empty recording.
    pub fn read<R: Read>(mut source: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 8];
        source.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut len = [0u8; 1];
        source.read_exact(&mut len)?;
        let mut name_bytes = vec![0u8; usize::from(len[0])];
        source.read_exact(&mut name_bytes)?;
        let name = String::from_utf8(name_bytes)
            .map_err(|_| TraceError::Malformed("name is not UTF-8"))?;
        let mut u64_buf = [0u8; 8];
        source.read_exact(&mut u64_buf)?;
        let footprint_pages = u64::from_le_bytes(u64_buf);
        source.read_exact(&mut u64_buf)?;
        let count = u64::from_le_bytes(u64_buf);
        if count == 0 {
            return Err(TraceError::Empty);
        }

        let mut events = Vec::with_capacity(count.min(1 << 24) as usize);
        let mut record = [0u8; EVENT_BYTES];
        for _ in 0..count {
            source
                .read_exact(&mut record)
                .map_err(|_| TraceError::Malformed("event section truncated"))?;
            let gap = u32::from_le_bytes(record[0..4].try_into().expect("slice"));
            if gap == 0 {
                return Err(TraceError::Malformed(ZERO_GAP));
            }
            let line = u64::from_le_bytes(record[4..12].try_into().expect("slice"));
            let pc = u64::from_le_bytes(record[12..20].try_into().expect("slice"));
            let flags = record[20];
            events.push(MissEvent {
                gap_instructions: u64::from(gap),
                line: LineAddr::new(line),
                pc,
                is_write: flags & FLAG_WRITE != 0,
            });
        }
        Ok(Self {
            name,
            footprint_pages,
            events,
        })
    }

    /// Parses a trace from an in-memory byte slice.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TraceFile::read`].
    pub fn parse(bytes: &[u8]) -> Result<Self, TraceError> {
        Self::read(bytes)
    }

    /// Converts into a wrapping replayer usable wherever a
    /// [`MissStream`] is accepted.
    pub fn into_replay(self) -> TraceReplay {
        TraceReplay {
            trace: self,
            cursor: 0,
            wraps: 0,
        }
    }
}

/// Replays a [`TraceFile`] as an infinite [`MissStream`], wrapping to the
/// start when the recording is exhausted.
#[derive(Clone, Debug)]
pub struct TraceReplay {
    trace: TraceFile,
    cursor: usize,
    wraps: u64,
}

impl TraceReplay {
    /// The underlying recording.
    pub fn trace(&self) -> &TraceFile {
        &self.trace
    }

    /// How many times the replay has wrapped around.
    pub fn wraps(&self) -> u64 {
        self.wraps
    }
}

impl MissStream for TraceReplay {
    fn next_event(&mut self) -> MissEvent {
        let e = self.trace.events[self.cursor];
        self.cursor += 1;
        if self.cursor == self.trace.events.len() {
            self.cursor = 0;
            self.wraps += 1;
        }
        e
    }

    fn footprint_pages(&self) -> u64 {
        self.trace.footprint_pages
    }

    fn prefill_pages(&self) -> Vec<cameo_types::PageAddr> {
        let mut pages: Vec<u64> = self
            .trace
            .events
            .iter()
            .map(|e| e.line.page().raw())
            .collect();
        pages.sort_unstable();
        pages.dedup();
        pages.into_iter().map(cameo_types::PageAddr::new).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cameo_workloads::{by_name, TraceConfig, TraceGenerator};

    fn generator() -> TraceGenerator {
        TraceGenerator::new(
            by_name("astar").unwrap(),
            TraceConfig {
                scale: 1024,
                seed: 11,
                core_offset_pages: 0,
            },
        )
    }

    #[test]
    fn round_trip_preserves_events() {
        let mut g = generator();
        let expected: Vec<MissEvent> = (0..500).map(|_| g.next_event()).collect();
        let mut g2 = generator();
        let bytes = TraceWriter::record(Vec::new(), "astar", &mut g2, 500).unwrap();
        let file = TraceFile::parse(&bytes).unwrap();
        assert_eq!(file.name, "astar");
        assert_eq!(file.events, expected);
        assert_eq!(file.footprint_pages, generator().footprint_pages());
    }

    #[test]
    fn replay_wraps() {
        let mut g = generator();
        let bytes = TraceWriter::record(Vec::new(), "astar", &mut g, 10).unwrap();
        let mut replay = TraceFile::parse(&bytes).unwrap().into_replay();
        let first = replay.next_event();
        for _ in 0..9 {
            replay.next_event();
        }
        assert_eq!(replay.wraps(), 1);
        assert_eq!(replay.next_event(), first);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = TraceFile::parse(b"NOTATRACE-AT-ALL----------").unwrap_err();
        assert!(matches!(err, TraceError::BadMagic), "{err}");
    }

    #[test]
    fn truncation_rejected() {
        let mut g = generator();
        let bytes = TraceWriter::record(Vec::new(), "astar", &mut g, 10).unwrap();
        let err = TraceFile::parse(&bytes[..bytes.len() - 5]).unwrap_err();
        assert!(matches!(err, TraceError::Malformed(_)), "{err}");
    }

    #[test]
    fn empty_trace_rejected() {
        let writer = TraceWriter::new(Vec::new(), "x", 1, 0).unwrap();
        let bytes = writer.finish().unwrap();
        assert!(matches!(
            TraceFile::parse(&bytes).unwrap_err(),
            TraceError::Empty
        ));
    }

    #[test]
    fn under_declared_writer_fails_at_finish() {
        let mut writer = TraceWriter::new(Vec::new(), "x", 1, 2).unwrap();
        let mut g = generator();
        writer.push(&g.next_event()).unwrap();
        assert!(writer.finish().is_err());
    }

    #[test]
    fn over_declared_writer_fails_at_push() {
        let mut writer = TraceWriter::new(Vec::new(), "x", 1, 1).unwrap();
        let mut g = generator();
        writer.push(&g.next_event()).unwrap();
        assert!(writer.push(&g.next_event()).is_err());
    }

    #[test]
    fn zero_gap_is_refused_and_rejected() {
        let mut event = generator().next_event();
        event.gap_instructions = 0;
        let mut writer = TraceWriter::new(Vec::new(), "mcf", 1, 1).unwrap();
        let err = writer.push(&event).unwrap_err();
        assert!(matches!(err, TraceError::Malformed(ZERO_GAP)), "{err}");

        // The same event written by hand: a replay of it would never
        // advance the core's instruction count.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.push(3);
        bytes.extend_from_slice(b"mcf");
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&event.line.raw().to_le_bytes());
        bytes.extend_from_slice(&event.pc.to_le_bytes());
        bytes.push(0);
        let err = TraceFile::parse(&bytes).unwrap_err();
        assert!(matches!(err, TraceError::Malformed(ZERO_GAP)), "{err}");

        // A one-instruction gap in the same file is a valid trace.
        let gap_at = bytes.len() - EVENT_BYTES;
        bytes[gap_at] = 1;
        assert_eq!(
            TraceFile::parse(&bytes).unwrap().events[0].gap_instructions,
            1
        );
    }

    #[test]
    fn errors_display() {
        assert!(TraceError::BadMagic.to_string().contains("magic"));
        assert!(TraceError::Empty.to_string().contains("no events"));
    }
}
