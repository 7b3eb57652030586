//! Spans kept in memory during a traced run, and the observer that splits
//! a matcher run into timed phases.

use parmatch_core::Observer;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Parent of a top-level span, and the id of a span that was not kept.
pub const ROOT: u32 = u32::MAX;

/// Spans past this many are counted, not kept, which bounds the memory a
/// long traced run of small jobs takes.
const MAX_SPANS: usize = 1 << 19;

struct Span {
    name: &'static str,
    parent: u32,
    key: u64,
    start: Instant,
    end: Option<Instant>,
}

/// The spans of one run: name, start, end, parent, and the rep, pass or
/// job they belong to. A disabled log keeps nothing, so an untraced run
/// pays one branch per call.
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Open a span now under `parent`; close it with [`SpanLog::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, key: u64) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        self.push(Span {
            name,
            parent,
            key,
            start: Instant::now(),
            end: None,
        })
    }

    pub fn close(&mut self, id: u32) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end = Some(Instant::now());
        }
    }

    /// Keep a span whose interval is already known.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.enabled {
            return ROOT;
        }
        self.push(Span {
            name,
            parent,
            key,
            start,
            end: Some(end),
        })
    }

    fn push(&mut self, span: Span) -> u32 {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    pub fn kept(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Write one JSON object per line: `id`, `parent` (`null` at the top),
    /// `name`, `key`, and `start_ns`/`end_ns` since the log was created.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                ROOT => "null".to_string(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"key\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name,
                s.key,
                ns(s.start),
                ns(s.end.unwrap_or(s.start))
            )?;
        }
        out.flush()
    }
}

/// Number of [`PHASES`].
pub const NPHASES: usize = 12;

/// The phases a traced matcher run is split into. Every nanosecond from
/// the start of the `Runner` call to its return lands in exactly one.
pub const PHASES: [&str; NPHASES] = [
    "prepare",
    "relabel",
    "jump",
    "probe",
    "partition",
    "grid",
    "walkdown1",
    "walkdown2",
    "finish",
    "sweep",
    "output",
    "other",
];

/// Index of `name` in [`PHASES`]; `other` for a name it does not list.
pub fn phase(name: &str) -> usize {
    PHASES
        .iter()
        .position(|p| *p == name)
        .unwrap_or(NPHASES - 1)
}

/// An enabled observer that stamps the clock at every phase event and
/// charges the time since the previous event to the phase that event
/// closes.
///
/// The matchers open most spans (`finish`, `sweep`, `jump`, `probe`,
/// `partition`, `grid`, `walkdown1`, `walkdown2`) only once the phase's
/// work is done, to attach its counters, so the gap before such an
/// `enter` is that phase's work. The gap before the top-level span opens
/// is `prepare`, every gap inside `relabel` is `relabel`, and the time
/// from the last event to the `Runner` call's return is `output`. Being
/// enabled, the observer makes the matchers run their audited pipeline
/// (one relabel round per pass, a label census per round, a sequential
/// finish replay), so its phase times are that pipeline's, not the
/// production path's.
pub struct PhaseTimer<'a> {
    log: &'a mut SpanLog,
    parent: u32,
    key: u64,
    last: Instant,
    /// For each open span, the phase its `exit` closes.
    open: Vec<&'static str>,
    ns: [u64; NPHASES],
}

impl<'a> PhaseTimer<'a> {
    /// Start the clock; phase spans become children of `parent`.
    pub fn start(log: &'a mut SpanLog, parent: u32, key: u64) -> Self {
        PhaseTimer {
            log,
            parent,
            key,
            last: Instant::now(),
            open: Vec::new(),
            ns: [0; NPHASES],
        }
    }

    fn charge(&mut self, name: &'static str) {
        let now = Instant::now();
        self.ns[phase(name)] += (now - self.last).as_nanos() as u64;
        self.log.record(name, self.parent, self.key, self.last, now);
        self.last = now;
    }

    /// Charge the time since the last event to `output` and return the
    /// nanoseconds of each phase, indexed like [`PHASES`].
    pub fn finish(mut self) -> [u64; NPHASES] {
        self.charge("output");
        self.ns
    }
}

impl Observer for PhaseTimer<'_> {
    const ENABLED: bool = true;

    fn enter(&mut self, label: &str) {
        let (before, at_exit) = match label {
            _ if self.open.is_empty() => ("prepare", "output"),
            "relabel" => ("prepare", "relabel"),
            "round" => ("relabel", "relabel"),
            other => {
                let p = PHASES[phase(other)];
                (p, p)
            }
        };
        self.charge(before);
        self.open.push(at_exit);
    }

    fn exit(&mut self) {
        let name = self.open.pop().unwrap_or("output");
        self.charge(name);
    }

    fn counter(&mut self, _name: &str, _value: u64) {}

    fn bounded(&mut self, _name: &str, _value: u64, _bound: u64) {}
}
