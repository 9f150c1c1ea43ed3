//! Sweep checkpointing: a dependency-free JSON codec and an append-only
//! JSONL store.
//!
//! The build environment vendors no serialization crates, so this module
//! hand-rolls the small JSON slice the harness needs: `u64` (preserved
//! exactly — never routed through `f64`), strings, booleans, arrays and
//! objects.
//!
//! The checkpoint file is JSONL. It opens with the sweep's
//! [`SystemConfig`], then holds one self-contained record per line,
//! appended and flushed as each design point finishes:
//!
//! ```text
//! {"config":{"scale":128,"cores":16,...}}
//! {"key":"astar::CAMEO","status":"done","attempts":1,"stats":{...}}
//! {"key":"mcf::CAMEO","status":"failed","attempts":3,"error":"..."}
//! ```
//!
//! Records are matched to points by key alone, so [`resume`] refuses a
//! file written under any other configuration than the sweep's.
//!
//! Append-only records make resume robust: a sweep killed mid-write leaves
//! at most one truncated final line, which [`load`] skips and
//! [`load_and_repair`] truncates away (so later appends cannot land on the
//! unterminated tail), and re-invoking the sweep recomputes only the
//! unfinished points.

use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use cameo::PredictionCaseCounts;
use cameo_types::DetHashMap;

use crate::config::SystemConfig;
use crate::error::SimError;
use crate::stats::{BandwidthReport, RunStats};

/// A JSON value. Unsigned integers are a distinct variant so `u64`
/// counters survive a round-trip bit-exactly.
#[derive(Clone, PartialEq, Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (the simulator's counters).
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field of an object, if present.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The `u64` payload, if this is an integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Renders to compact JSON text (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    // JSON has no Inf/NaN; null is the conventional stand-in.
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON value from `text` (which must contain nothing else
    /// but whitespace around it).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first syntax error,
    /// including arrays and objects nested more than 64 levels deep.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(value)
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How deep [`Json::parse`] lets arrays and objects nest. A checkpoint
/// record nests three levels; the cap turns a corrupt line of brackets
/// into a parse error instead of a stack overflow.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect_byte(&mut self, want: u8) -> Result<(), String> {
        if self.peek() == Some(want) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}",
                char::from(want),
                self.pos
            ))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at offset {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at offset {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let nested = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("non-UTF-8 number at offset {start}"))?;
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Json::U64(v));
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| format!("malformed number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| format!("non-UTF-8 string at offset {start}"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| "truncated \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            // Surrogates would need pairing; the renderer
                            // never emits them, so reject rather than mangle.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid code point {code:#x}"))?,
                            );
                        }
                        other => return Err(format!("unknown escape {other:?}")),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

/// Outcome of one design point, as recorded in the checkpoint file.
#[derive(Clone, PartialEq, Debug)]
pub enum PointRecord {
    /// The point completed; its statistics are attached.
    Done {
        /// Attempts consumed (1 = first try succeeded).
        attempts: u32,
        /// The completed run's statistics (boxed: this variant would
        /// otherwise dwarf `Failed` in every `Vec<PointRecord>`).
        stats: Box<RunStats>,
    },
    /// The point failed on every attempt.
    Failed {
        /// Attempts consumed.
        attempts: u32,
        /// Rendering of the final error.
        error: String,
    },
}

fn stats_to_json(stats: &RunStats) -> Json {
    let cases = match &stats.cases {
        Some(c) => Json::Arr(c.to_array().iter().map(|&v| Json::U64(v)).collect()),
        None => Json::Null,
    };
    Json::Obj(vec![
        ("org".into(), Json::Str(stats.org.clone())),
        ("bench".into(), Json::Str(stats.bench.clone())),
        ("execution_cycles".into(), Json::U64(stats.execution_cycles)),
        ("instructions".into(), Json::U64(stats.instructions)),
        ("demand_reads".into(), Json::U64(stats.demand_reads)),
        ("demand_writes".into(), Json::U64(stats.demand_writes)),
        ("serviced_stacked".into(), Json::U64(stats.serviced_stacked)),
        (
            "serviced_off_chip".into(),
            Json::U64(stats.serviced_off_chip),
        ),
        ("faults".into(), Json::U64(stats.faults)),
        (
            "stacked_bytes".into(),
            Json::U64(stats.bandwidth.stacked_bytes),
        ),
        (
            "off_chip_bytes".into(),
            Json::U64(stats.bandwidth.off_chip_bytes),
        ),
        (
            "storage_bytes".into(),
            Json::U64(stats.bandwidth.storage_bytes),
        ),
        ("cases".into(), cases),
        ("migrated_pages".into(), Json::U64(stats.migrated_pages)),
        ("read_latency_sum".into(), Json::U64(stats.read_latency_sum)),
        (
            "latency_histogram".into(),
            Json::Arr(
                stats
                    .latency_histogram
                    .iter()
                    .map(|&v| Json::U64(v))
                    .collect(),
            ),
        ),
    ])
}

fn field_u64(obj: &Json, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn field_str(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn stats_from_json(obj: &Json) -> Result<RunStats, String> {
    let cases = match obj.get("cases") {
        None | Some(Json::Null) => None,
        Some(Json::Arr(items)) => {
            let mut counts = [0u64; 5];
            if items.len() != counts.len() {
                return Err(format!("cases array has {} entries, want 5", items.len()));
            }
            for (slot, item) in counts.iter_mut().zip(items) {
                *slot = item
                    .as_u64()
                    .ok_or_else(|| "non-integer cases entry".to_string())?;
            }
            Some(PredictionCaseCounts::from_array(counts))
        }
        Some(other) => return Err(format!("cases is neither array nor null: {other:?}")),
    };
    let mut latency_histogram = [0u64; 24];
    match obj.get("latency_histogram") {
        Some(Json::Arr(items)) if items.len() == latency_histogram.len() => {
            for (slot, item) in latency_histogram.iter_mut().zip(items) {
                *slot = item
                    .as_u64()
                    .ok_or_else(|| "non-integer histogram entry".to_string())?;
            }
        }
        other => return Err(format!("latency_histogram malformed: {other:?}")),
    }
    Ok(RunStats {
        org: field_str(obj, "org")?,
        bench: field_str(obj, "bench")?,
        execution_cycles: field_u64(obj, "execution_cycles")?,
        instructions: field_u64(obj, "instructions")?,
        demand_reads: field_u64(obj, "demand_reads")?,
        demand_writes: field_u64(obj, "demand_writes")?,
        serviced_stacked: field_u64(obj, "serviced_stacked")?,
        serviced_off_chip: field_u64(obj, "serviced_off_chip")?,
        faults: field_u64(obj, "faults")?,
        bandwidth: BandwidthReport {
            stacked_bytes: field_u64(obj, "stacked_bytes")?,
            off_chip_bytes: field_u64(obj, "off_chip_bytes")?,
            storage_bytes: field_u64(obj, "storage_bytes")?,
        },
        cases,
        migrated_pages: field_u64(obj, "migrated_pages")?,
        read_latency_sum: field_u64(obj, "read_latency_sum")?,
        latency_histogram,
    })
}

/// `config`'s fields as JSON, one per [`SystemConfig`] field.
fn config_fields(config: &SystemConfig) -> Vec<(String, Json)> {
    // Destructured, so a new field cannot be left out of the line.
    let SystemConfig {
        scale,
        cores,
        instructions_per_core,
        warmup_fraction,
        mlp,
        ipc,
        seed,
        llp_entries,
        freq_epoch,
    } = *config;
    vec![
        ("scale".into(), Json::U64(scale)),
        ("cores".into(), Json::U64(u64::from(cores))),
        (
            "instructions_per_core".into(),
            Json::U64(instructions_per_core),
        ),
        ("warmup_fraction".into(), Json::F64(warmup_fraction)),
        ("mlp".into(), Json::U64(mlp as u64)),
        ("ipc".into(), Json::F64(ipc)),
        ("seed".into(), Json::U64(seed)),
        ("llp_entries".into(), Json::U64(llp_entries as u64)),
        ("freq_epoch".into(), Json::U64(freq_epoch)),
    ]
}

/// Renders the line a checkpoint opens with: `{"config":{...}}` (no
/// trailing newline).
fn render_config(config: &SystemConfig) -> String {
    Json::Obj(vec![("config".into(), Json::Obj(config_fields(config)))]).render()
}

/// The configuration object of a checkpoint's opening line, if `line` is
/// one.
fn parse_config(line: &str) -> Option<Json> {
    Json::parse(line).ok()?.get("config").cloned()
}

/// Checks the configuration `theirs`, read from the checkpoint at `path`,
/// against the sweep's `config`: every field of either must render the
/// same. Rendered text, not values, is compared, so a float that renders
/// as an integer (`2.0` as `2`) matches the integer it parses back as.
fn check_config(path: &Path, theirs: &Json, config: &SystemConfig) -> Result<(), SimError> {
    let ours = Json::Obj(config_fields(config));
    let names = |json: &Json| match json {
        Json::Obj(fields) => fields.iter().map(|(name, _)| name.clone()).collect(),
        _ => Vec::new(),
    };
    let shown = |json: &Json, field: &str| json.get(field).map_or("absent".into(), Json::render);
    let differing = names(&ours)
        .into_iter()
        .chain(names(theirs))
        .find(|field| shown(theirs, field) != shown(&ours, field));
    match differing {
        None => Ok(()),
        Some(field) => Err(SimError::Checkpoint(format!(
            "{} was written under a different configuration: {field} is {} there, {} here",
            path.display(),
            shown(theirs, &field),
            shown(&ours, &field)
        ))),
    }
}

/// Renders one `(key, record)` pair as a single JSONL line (no trailing
/// newline).
pub fn render_record(key: &str, record: &PointRecord) -> String {
    let mut fields = vec![("key".to_owned(), Json::Str(key.to_owned()))];
    match record {
        PointRecord::Done { attempts, stats } => {
            fields.push(("status".into(), Json::Str("done".into())));
            fields.push(("attempts".into(), Json::U64(u64::from(*attempts))));
            fields.push(("stats".into(), stats_to_json(stats)));
        }
        PointRecord::Failed { attempts, error } => {
            fields.push(("status".into(), Json::Str("failed".into())));
            fields.push(("attempts".into(), Json::U64(u64::from(*attempts))));
            fields.push(("error".into(), Json::Str(error.clone())));
        }
    }
    Json::Obj(fields).render()
}

/// Parses one JSONL line into its `(key, record)` pair.
///
/// # Errors
///
/// Returns a description of the malformation, including a status other
/// than `"done"` or `"failed"`.
pub fn parse_record(line: &str) -> Result<(String, PointRecord), String> {
    let obj = Json::parse(line)?;
    let key = field_str(&obj, "key")?;
    let status = field_str(&obj, "status")?;
    let attempts = u32::try_from(field_u64(&obj, "attempts")?)
        .map_err(|_| "field \"attempts\" does not fit in u32".to_string())?;
    let record = match status.as_str() {
        "done" => PointRecord::Done {
            attempts,
            stats: Box::new(stats_from_json(
                obj.get("stats")
                    .ok_or_else(|| "done record without stats".to_string())?,
            )?),
        },
        "failed" => PointRecord::Failed {
            attempts,
            error: field_str(&obj, "error")?,
        },
        other => return Err(format!("unknown status {other:?}")),
    };
    Ok((key, record))
}

/// Loads a checkpoint file into a key → record map.
///
/// A missing file is an empty checkpoint, and the configuration line, when
/// the file opens with one, is skipped ([`resume`] checks it). A truncated
/// or corrupt *final* line — the signature of a sweep killed mid-write —
/// is skipped; corruption anywhere else is reported, since it means the
/// file is not what this code wrote. A line whose status is neither
/// `"done"` nor `"failed"` (such as the `"chunk"` progress markers older
/// sweeps wrote) counts as corrupt.
///
/// # Errors
///
/// Returns [`SimError::CheckpointIo`] on I/O failure and
/// [`SimError::Checkpoint`] on non-trailing corruption.
pub fn load(path: &Path) -> Result<DetHashMap<String, PointRecord>, SimError> {
    Ok(load_lines(path)?.records)
}

/// Like [`load`], but *repairs* a trailing torn record instead of merely
/// skipping it: the file is truncated back to the last whole line (and
/// the repair logged to stderr), so a subsequent [`Writer::append`]
/// cannot concatenate a fresh record onto the unterminated tail and turn
/// a harmless kill artifact into mid-file corruption. Resume paths that
/// reopen the file for appending must use this; read-only consumers can
/// keep using [`load`].
///
/// # Errors
///
/// Returns [`SimError::CheckpointIo`] on read/truncate failure and
/// [`SimError::Checkpoint`] on non-trailing corruption.
pub fn load_and_repair(path: &Path) -> Result<DetHashMap<String, PointRecord>, SimError> {
    Ok(load_lines_and_repair(path)?.records)
}

/// Opens the checkpoint at `path` for a sweep under `config`, to resume
/// and then append to: repairs a torn trailing record as
/// [`load_and_repair`] does, checks the file's configuration line against
/// `config`, writing that line first into a new or empty file, and returns
/// the records with the [`Writer`] that appends the sweep's own.
///
/// # Errors
///
/// Returns [`SimError::Checkpoint`] if the file was written under a
/// different configuration (naming the first field that differs), holds
/// records without a configuration line, or is corrupt before its last
/// line, and [`SimError::CheckpointIo`] on I/O failure.
pub fn resume(
    path: &Path,
    config: &SystemConfig,
) -> Result<(DetHashMap<String, PointRecord>, Writer), SimError> {
    let loaded = load_lines_and_repair(path)?;
    match &loaded.config {
        Some(theirs) => check_config(path, theirs, config)?,
        None if loaded.records.is_empty() => {}
        None => {
            return Err(SimError::Checkpoint(format!(
                "{}: records without a configuration line, so they cannot be checked \
                 against this sweep's; remove the file to start over",
                path.display()
            )))
        }
    }
    let writer = Writer::open(path)?;
    if loaded.config.is_none() {
        writer.write_line(render_config(config))?;
    }
    Ok((loaded.records, writer))
}

/// The body of [`load_and_repair`] and [`resume`]: loads the file and
/// truncates a torn trailing record away.
fn load_lines_and_repair(path: &Path) -> Result<LoadedCheckpoint, SimError> {
    let loaded = load_lines(path)?;
    if let Some(tail_offset) = loaded.torn_tail_offset {
        eprintln!(
            "[checkpoint] {}: truncating torn trailing record at byte {tail_offset} \
             (interrupted append); the point will be recomputed",
            path.display()
        );
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_error(path, "truncate", &e))?;
        file.set_len(tail_offset)
            .map_err(|e| io_error(path, "truncate", &e))?;
    }
    Ok(loaded)
}

/// A parsed checkpoint: its configuration line's object, its records,
/// and the byte offset of a torn trailing record, when one was found.
struct LoadedCheckpoint {
    config: Option<Json>,
    records: DetHashMap<String, PointRecord>,
    torn_tail_offset: Option<u64>,
}

/// Maps an I/O failure on `path` to the typed [`SimError::CheckpointIo`].
fn io_error(path: &Path, op: &'static str, e: &std::io::Error) -> SimError {
    SimError::CheckpointIo {
        path: path.display().to_string(),
        op,
        kind: e.kind(),
        detail: e.to_string(),
    }
}

/// The shared body of [`load`] and [`load_and_repair`]: parses every
/// whole record and reports — without acting on — a torn trailing line.
///
/// Records stream straight from a buffered reader into the resume map —
/// one line buffer, reused — so replay memory is O(points retained), not
/// O(file). A paper-scale sweep's checkpoint (thousands of fat `stats`
/// records) resumes without ever holding the file's text in memory.
fn load_lines(path: &Path) -> Result<LoadedCheckpoint, SimError> {
    let mut loaded = LoadedCheckpoint {
        config: None,
        records: DetHashMap::default(),
        torn_tail_offset: None,
    };
    let file = match File::open(path) {
        Ok(file) => file,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(loaded),
        Err(e) => return Err(io_error(path, "read", &e)),
    };
    let mut reader = std::io::BufReader::new(file);
    let mut buf = String::new();
    // A parse failure is only the torn-tail signature if no further
    // non-blank line follows, so a failure is *parked* here and either
    // promoted to a hard error by the next line or left as the tail.
    // Offsets track where each line starts so repair can cut exactly at
    // the interrupted append.
    let mut pending_failure: Option<(u64, usize, String)> = None;
    let mut offset = 0u64;
    let mut line_no = 0usize;
    loop {
        buf.clear();
        let read = std::io::BufRead::read_line(&mut reader, &mut buf)
            .map_err(|e| io_error(path, "read", &e))?;
        if read == 0 {
            break;
        }
        let start = offset;
        offset += read as u64;
        let line = buf.trim_end_matches(['\n', '\r']);
        if line.trim().is_empty() {
            continue;
        }
        line_no += 1;
        if let Some((_, failed_line, e)) = pending_failure.take() {
            return Err(SimError::Checkpoint(format!(
                "{} line {}: {e}",
                path.display(),
                failed_line
            )));
        }
        if line_no == 1 {
            if let Some(config) = parse_config(line) {
                loaded.config = Some(config);
                continue;
            }
        }
        match parse_record(line) {
            Ok((key, record)) => {
                loaded.records.insert(key, record);
            }
            Err(e) => pending_failure = Some((start, line_no, e)),
        }
    }
    if let Some((start, _, _)) = pending_failure {
        // Interrupted final append: resume will redo this point.
        loaded.torn_tail_offset = Some(start);
    }
    Ok(loaded)
}

/// Appends one record to the checkpoint file (creating it if needed) and
/// flushes, so a kill immediately afterwards loses nothing.
///
/// One-shot convenience over [`Writer`]: opens, appends, closes. Sweeps
/// hold a [`Writer`] open instead of paying an open per record.
///
/// # Errors
///
/// Returns [`SimError::CheckpointIo`] on I/O failure.
pub fn append(path: &Path, key: &str, record: &PointRecord) -> Result<(), SimError> {
    Writer::open(path)?.append(key, record)
}

/// A shared, internally synchronized checkpoint appender.
///
/// The parallel sweep engine funnels every worker's outcome through one
/// `Writer`: the open file handle sits behind a mutex, and each record is
/// rendered first, then written as a single `write_all` of one full line
/// and flushed while the lock is held. Concurrent completions therefore
/// can never interleave or tear records — the JSONL file parses
/// line-by-line no matter how many workers append — and a kill loses at
/// most the final in-flight line, which [`load`] already tolerates.
#[derive(Debug)]
pub struct Writer {
    path: PathBuf,
    file: Mutex<File>,
}

impl Writer {
    /// Opens (creating if needed) the checkpoint file for appending.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CheckpointIo`] on I/O failure.
    pub fn open(path: &Path) -> Result<Self, SimError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| io_error(path, "open", &e))?;
        Ok(Self {
            path: path.to_path_buf(),
            file: Mutex::new(file),
        })
    }

    /// The file this writer appends to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record as a single flushed line. Callable from any
    /// thread through a shared reference.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CheckpointIo`] on I/O failure, with the
    /// [`std::io::ErrorKind`] preserved so a supervisor can distinguish a
    /// full disk (`StorageFull`) or short write (`WriteZero`) from a
    /// transient error.
    pub fn append(&self, key: &str, record: &PointRecord) -> Result<(), SimError> {
        self.write_line(render_record(key, record))
    }

    /// Appends `line` and a newline in one flushed write.
    fn write_line(&self, mut line: String) -> Result<(), SimError> {
        line.push('\n');
        let mut file = match self.file.lock() {
            Ok(guard) => guard,
            // A worker that panicked while appending cannot have left a
            // partial line (the buffer is written in one call); the file
            // handle itself is still sound to use.
            Err(poisoned) => poisoned.into_inner(),
        };
        file.write_all(line.as_bytes())
            .map_err(|e| io_error(&self.path, "append", &e))?;
        file.flush().map_err(|e| io_error(&self.path, "flush", &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(cases: bool) -> RunStats {
        let mut latency_histogram = [0u64; 24];
        latency_histogram[7] = 11;
        latency_histogram[9] = 4;
        RunStats {
            org: "CAMEO".into(),
            bench: "astar".into(),
            execution_cycles: u64::MAX - 3, // would not survive an f64 trip
            instructions: 12345,
            demand_reads: 15,
            demand_writes: 5,
            serviced_stacked: 10,
            serviced_off_chip: 5,
            faults: 2,
            bandwidth: BandwidthReport {
                stacked_bytes: 1 << 40,
                off_chip_bytes: 9,
                storage_bytes: 0,
            },
            cases: cases.then(|| PredictionCaseCounts::from_array([1, 2, 3, 4, 5])),
            migrated_pages: 0,
            read_latency_sum: 999,
            latency_histogram,
        }
    }

    #[test]
    fn stats_round_trip_bit_exact() {
        for cases in [false, true] {
            let stats = sample_stats(cases);
            let json = stats_to_json(&stats).render();
            let back = stats_from_json(&Json::parse(&json).expect("rendered JSON parses"))
                .expect("rendered stats decode");
            assert_eq!(back, stats);
        }
    }

    #[test]
    fn record_round_trip() {
        let done = PointRecord::Done {
            attempts: 2,
            stats: Box::new(sample_stats(true)),
        };
        let line = render_record("astar::CAMEO", &done);
        assert_eq!(
            parse_record(&line).expect("rendered record parses"),
            ("astar::CAMEO".to_owned(), done)
        );
        let failed = PointRecord::Failed {
            attempts: 3,
            error: "weird \"quoted\"\npanic".into(),
        };
        let line = render_record("mcf::Cache", &failed);
        assert_eq!(
            parse_record(&line).expect("escapes round-trip"),
            ("mcf::Cache".to_owned(), failed)
        );
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,2").is_err());
        assert!(Json::parse("12 34").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn parser_accepts_numbers_strings_nesting() {
        let v = Json::parse(" {\"a\": [1, -2.5, true, null, \"x\\u0041\"]} ")
            .expect("valid JSON parses");
        let arr = v.get("a").expect("object has field a");
        match arr {
            Json::Arr(items) => {
                assert_eq!(items[0], Json::U64(1));
                assert_eq!(items[1], Json::F64(-2.5));
                assert_eq!(items[2], Json::Bool(true));
                assert_eq!(items[3], Json::Null);
                assert_eq!(items[4], Json::Str("xA".into()));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    /// A line of a million `[` once overflowed the parser's stack and
    /// aborted the process; past the nesting cap it is a parse error, so
    /// ahead of a valid record it is mid-file corruption.
    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_cap).is_ok());
        let past_cap = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&past_cap).is_err());

        let path =
            std::env::temp_dir().join(format!("cameo_ckpt_deep_{}.jsonl", std::process::id()));
        let good = render_record(
            "a::x",
            &PointRecord::Failed {
                attempts: 1,
                error: "e".into(),
            },
        );
        std::fs::write(&path, format!("{}\n{good}\n", "[".repeat(1_000_000))).expect("tmp write");
        let loaded = load(&path);
        std::fs::remove_file(&path).expect("tmp cleanup");
        assert!(matches!(loaded, Err(SimError::Checkpoint(_))), "{loaded:?}");
    }

    /// An `attempts` count past `u32::MAX` is rejected, not wrapped
    /// (4294967297 once loaded as 1).
    #[test]
    fn oversized_attempts_are_rejected_not_wrapped() {
        let line = render_record(
            "a::x",
            &PointRecord::Failed {
                attempts: 1,
                error: "e".into(),
            },
        );
        assert!(line.contains("\"attempts\":1,"), "{line}");
        let huge = line.replace("\"attempts\":1,", "\"attempts\":4294967297,");
        assert!(parse_record(&huge).is_err());
        let max = line.replace("\"attempts\":1,", "\"attempts\":4294967295,");
        assert!(matches!(
            parse_record(&max),
            Ok((
                _,
                PointRecord::Failed {
                    attempts: u32::MAX,
                    ..
                }
            ))
        ));
    }

    #[test]
    fn load_tolerates_truncated_tail_only() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cameo_ckpt_test_{}.jsonl", std::process::id()));
        let good = render_record(
            "a::x",
            &PointRecord::Failed {
                attempts: 1,
                error: "e".into(),
            },
        );
        std::fs::write(&path, format!("{good}\n{{\"key\":\"b::x\",\"sta")).expect("tmp write");
        let map = load(&path).expect("truncated tail skipped");
        assert_eq!(map.len(), 1);
        assert!(map.contains_key("a::x"));
        // The same corruption mid-file is an error.
        std::fs::write(&path, format!("{{\"key\":\"b::x\",\"sta\n{good}\n")).expect("tmp write");
        assert!(load(&path).is_err());
        std::fs::remove_file(&path).expect("tmp cleanup");
    }

    /// A torn trailing record is not just skipped by [`load_and_repair`]
    /// — it is cut out of the file, so the append-after-resume path can
    /// never concatenate a fresh record onto the unterminated tail (which
    /// would turn a harmless kill artifact into mid-file corruption that
    /// [`load`] rejects).
    #[test]
    fn repair_truncates_torn_tail_so_appends_stay_parseable() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cameo_ckpt_repair_{}.jsonl", std::process::id()));
        let good = render_record(
            "a::x",
            &PointRecord::Failed {
                attempts: 1,
                error: "e".into(),
            },
        );
        let torn = "{\"key\":\"b::x\",\"sta";
        std::fs::write(&path, format!("{good}\n{torn}")).expect("tmp write");

        // Without repair, appending after a torn tail corrupts the file
        // mid-line — exactly the failure mode repair exists to prevent.
        let map = load_and_repair(&path).expect("repair tolerates torn tail");
        assert_eq!(map.len(), 1);
        assert!(map.contains_key("a::x"));
        let text = std::fs::read_to_string(&path).expect("tmp readable");
        assert_eq!(text, format!("{good}\n"), "torn bytes removed from disk");

        // The repaired file accepts appends and stays fully parseable.
        let rec = PointRecord::Failed {
            attempts: 2,
            error: "redo".into(),
        };
        append(&path, "b::x", &rec).expect("append after repair");
        let map = load(&path).expect("repaired-then-appended file loads");
        assert_eq!(map.len(), 2);
        assert_eq!(map.get("b::x"), Some(&rec));

        // Repair on a clean file is a no-op.
        let before = std::fs::read_to_string(&path).expect("tmp readable");
        let map = load_and_repair(&path).expect("clean file repairs trivially");
        assert_eq!(map.len(), 2);
        assert_eq!(
            std::fs::read_to_string(&path).expect("tmp readable"),
            before
        );
        std::fs::remove_file(&path).expect("tmp cleanup");
    }

    /// Repair refuses to touch a file whose corruption is *not* the
    /// torn-tail signature, and reports the typed mid-file error.
    #[test]
    fn repair_rejects_mid_file_corruption() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cameo_ckpt_midfile_{}.jsonl", std::process::id()));
        let good = render_record(
            "a::x",
            &PointRecord::Failed {
                attempts: 1,
                error: "e".into(),
            },
        );
        std::fs::write(&path, format!("{{\"key\":\"b::x\",\"sta\n{good}\n")).expect("tmp write");
        let before = std::fs::read_to_string(&path).expect("tmp readable");
        assert!(matches!(
            load_and_repair(&path),
            Err(SimError::Checkpoint(_))
        ));
        assert_eq!(
            std::fs::read_to_string(&path).expect("tmp readable"),
            before,
            "mid-file corruption must be left for a human, not truncated"
        );
        std::fs::remove_file(&path).expect("tmp cleanup");
    }

    /// The streaming loader's parked-failure logic: a torn record
    /// followed only by blank lines is still the tail (skipped, offset
    /// reported), while any later *record* promotes it to a hard error —
    /// and a multi-record file streams into the map intact.
    #[test]
    fn streaming_load_parks_tail_failures_and_streams_records() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cameo_ckpt_stream_{}.jsonl", std::process::id()));
        let mut text = String::new();
        for i in 0..200 {
            let rec = PointRecord::Failed {
                attempts: 1,
                error: format!("err {i}"),
            };
            text.push_str(&render_record(&format!("p{i}::x"), &rec));
            text.push('\n');
        }
        let whole_len = text.len() as u64;
        // Torn tail, then nothing but blank lines: still a torn tail.
        text.push_str("{\"key\":\"torn::x\",\"sta\n\n  \n");
        std::fs::write(&path, &text).expect("tmp write");
        let map = load(&path).expect("blank lines after a torn tail stay a torn tail");
        assert_eq!(map.len(), 200);
        assert!(map.contains_key("p0::x") && map.contains_key("p199::x"));
        // Repair cuts exactly at the torn append's start offset.
        load_and_repair(&path).expect("repairable");
        assert_eq!(
            std::fs::metadata(&path).expect("tmp stat").len(),
            whole_len,
            "repair truncated at the torn line's byte offset"
        );
        std::fs::remove_file(&path).expect("tmp cleanup");
    }

    /// A `"chunk"` progress marker, a line kind older sweeps appended for
    /// points in flight, is an unknown status: in the middle of a file it
    /// is corruption, reported with its line number.
    #[test]
    fn legacy_progress_marker_mid_file_is_an_error() {
        let path =
            std::env::temp_dir().join(format!("cameo_ckpt_marker_{}.jsonl", std::process::id()));
        let record = |key| {
            render_record(
                key,
                &PointRecord::Failed {
                    attempts: 1,
                    error: "e".into(),
                },
            )
        };
        let marker = r#"{"key":"a","status":"chunk","attempts":1}"#;
        std::fs::write(
            &path,
            format!("{}\n{marker}\n{}\n", record("b"), record("c")),
        )
        .expect("tmp write");
        let loaded = load(&path);
        std::fs::remove_file(&path).expect("tmp cleanup");
        match loaded {
            Err(SimError::Checkpoint(detail)) => {
                assert!(detail.contains("line 2: unknown status"), "{detail}");
            }
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
    }

    /// A checkpoint opens with its sweep's configuration line, which
    /// [`load`] skips and [`resume`] checks field by field.
    #[test]
    fn resume_writes_the_config_line_once_and_refuses_another_config() {
        let path =
            std::env::temp_dir().join(format!("cameo_ckpt_config_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let config = SystemConfig::default();
        let (records, writer) = resume(&path, &config).expect("a new file resumes empty");
        assert!(records.is_empty());
        let rec = PointRecord::Failed {
            attempts: 1,
            error: "e".into(),
        };
        writer.append("a::x", &rec).expect("append");
        drop(writer);
        let line = render_config(&config);
        assert!(
            line.starts_with("{\"config\":{\"scale\":128,\"cores\":16,"),
            "{line}"
        );
        assert!(
            line.contains("\"ipc\":2,"),
            "a whole float renders as an integer: {line}"
        );
        let text = std::fs::read_to_string(&path).expect("tmp readable");
        assert_eq!(text, format!("{line}\n{}\n", render_record("a::x", &rec)));
        assert_eq!(load(&path).expect("loads").len(), 1);

        // The same configuration resumes, without a second config line.
        let (records, _) = resume(&path, &config).expect("same configuration");
        assert_eq!(records.get("a::x"), Some(&rec));
        assert_eq!(std::fs::read_to_string(&path).expect("tmp readable"), text);

        for (other, field) in [
            (SystemConfig { mlp: 8, ..config }, "mlp is 4 there, 8 here"),
            (
                SystemConfig { ipc: 1.5, ..config },
                "ipc is 2 there, 1.5 here",
            ),
            (
                SystemConfig {
                    warmup_fraction: 0.25,
                    ..config
                },
                "warmup_fraction is 0.3 there, 0.25 here",
            ),
        ] {
            match resume(&path, &other) {
                Err(SimError::Checkpoint(detail)) => {
                    assert!(detail.contains(field), "{detail}");
                }
                other => panic!("expected a configuration refusal, got {other:?}"),
            }
        }
        assert_eq!(std::fs::read_to_string(&path).expect("tmp readable"), text);
        std::fs::remove_file(&path).expect("tmp cleanup");
    }

    /// Records with no configuration line ahead of them cannot be checked
    /// against a sweep, so [`resume`] refuses them; [`load`] still reads
    /// them. A torn configuration line is a torn tail like any other.
    #[test]
    fn resume_needs_a_config_line_ahead_of_records() {
        let path =
            std::env::temp_dir().join(format!("cameo_ckpt_noconfig_{}.jsonl", std::process::id()));
        let record = render_record(
            "a::x",
            &PointRecord::Failed {
                attempts: 1,
                error: "e".into(),
            },
        );
        std::fs::write(&path, format!("{record}\n")).expect("tmp write");
        assert_eq!(load(&path).expect("loads").len(), 1);
        match resume(&path, &SystemConfig::default()) {
            Err(SimError::Checkpoint(detail)) => {
                assert!(detail.contains("without a configuration line"), "{detail}");
            }
            other => panic!("expected a refusal, got {other:?}"),
        }

        let config = SystemConfig::default();
        let line = render_config(&config);
        std::fs::write(&path, &line[..line.len() / 2]).expect("tmp write");
        let (records, _) = resume(&path, &config).expect("a torn config line is repaired");
        assert!(records.is_empty());
        assert_eq!(
            std::fs::read_to_string(&path).expect("tmp readable"),
            format!("{line}\n")
        );
        std::fs::remove_file(&path).expect("tmp cleanup");
    }

    #[test]
    fn append_then_load_round_trips() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cameo_ckpt_append_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        assert!(load(&path).expect("missing file is empty").is_empty());
        let rec = PointRecord::Done {
            attempts: 1,
            stats: Box::new(sample_stats(true)),
        };
        append(&path, "astar::CAMEO", &rec).expect("append succeeds");
        let map = load(&path).expect("appended file loads");
        assert_eq!(map.get("astar::CAMEO"), Some(&rec));
        std::fs::remove_file(&path).expect("tmp cleanup");
    }

    /// Hammers one shared [`Writer`] from many threads and verifies the
    /// resulting JSONL has no interleaved or torn records: every line
    /// parses on its own, and every (thread, record) pair is present
    /// exactly once with the payload it wrote.
    #[test]
    fn concurrent_appends_never_tear_records() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50;
        let dir = std::env::temp_dir();
        let path = dir.join(format!("cameo_ckpt_conc_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let writer = Writer::open(&path).expect("tmp dir is writable");
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let writer = &writer;
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        // A long error string makes torn writes visible.
                        let rec = PointRecord::Failed {
                            attempts: 1,
                            error: format!("t{t}i{i}:").repeat(64),
                        };
                        writer
                            .append(&format!("t{t}::{i}"), &rec)
                            .expect("tmp append succeeds");
                    }
                });
            }
        });
        let text = std::fs::read_to_string(&path).expect("tmp readable");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), THREADS * PER_THREAD as usize);
        for line in &lines {
            let (key, rec) = parse_record(line).expect("every line is a whole record");
            let (t, i) = key
                .split_once("::")
                .map(|(a, b)| (a.trim_start_matches('t').to_owned(), b.to_owned()))
                .expect("key has the t<thread>::<i> shape");
            match rec {
                PointRecord::Failed { error, .. } => {
                    assert_eq!(error, format!("t{t}i{i}:").repeat(64));
                }
                other => panic!("expected failed record, got {other:?}"),
            }
        }
        // And the map view sees every record.
        let map = load(&path).expect("concurrently written file loads");
        assert_eq!(map.len(), THREADS * PER_THREAD as usize);
        std::fs::remove_file(&path).expect("tmp cleanup");
    }
}
