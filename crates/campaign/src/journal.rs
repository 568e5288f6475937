//! Append-only JSONL campaign journal.
//!
//! Every unit transition is one JSON object on its own line:
//!
//! ```text
//! {"event":"start","hash":"ab12…","unit":"fig5/crystm02/FF"}
//! {"event":"done","hash":"ab12…","unit":"fig5/crystm02/FF","wall_s":0.84}
//! {"event":"failed","hash":"cd34…","unit":"fig5/crystm02/CR-D","error":"…"}
//! {"event":"cache-corrupt","hash":"ab12…","unit":"…","object":"ef56…"}
//! {"event":"degraded","hash":"cd34…","unit":"…","reason":"circuit open …"}
//! ```
//!
//! The format is crash-tolerant by construction: a campaign killed
//! mid-write leaves at most one truncated trailing line. The reader
//! skips unparsable lines, and re-opening a journal for `--resume`
//! additionally **repairs** a torn tail by truncating the file back to
//! its last complete line — so the next append starts on a clean line
//! boundary instead of gluing onto half a record. On `--resume`, units
//! whose hash has a `done` record are skipped (their reports come from
//! the cache); units with only a `start` — i.e. in flight when the
//! process died — re-run. A `degraded` unit (skipped behind an open
//! circuit breaker) is *not* done and also re-runs.

use std::collections::BTreeSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use rsls_chaos::{ChaosInjector, ChaosSite};
use serde_json::{Serialize, Value, Writer};

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// Unit execution began.
    Start {
        /// Unit content hash.
        hash: String,
        /// Qualified unit name.
        unit: String,
    },
    /// Unit finished and its report was cached.
    Done {
        /// Unit content hash.
        hash: String,
        /// Qualified unit name.
        unit: String,
        /// Wall-clock execution time in seconds.
        wall_s: f64,
    },
    /// Unit panicked or was otherwise lost.
    Failed {
        /// Unit content hash.
        hash: String,
        /// Qualified unit name.
        unit: String,
        /// Panic payload or error description.
        error: String,
    },
    /// A cached entry for this unit failed verification and was
    /// quarantined; the unit recomputed instead of silently missing.
    CacheCorrupt {
        /// Unit content hash.
        hash: String,
        /// Qualified unit name.
        unit: String,
        /// Hash of the quarantined report object.
        object: String,
    },
    /// The unit was skipped behind an open circuit breaker; it did not
    /// run and is not done.
    Degraded {
        /// Unit content hash.
        hash: String,
        /// Qualified unit name.
        unit: String,
        /// Why the unit was degraded (which circuit, what tripped it).
        reason: String,
    },
    /// The unit's previous attempt panicked and it is being re-run.
    Retry {
        /// Unit content hash.
        hash: String,
        /// Qualified unit name.
        unit: String,
        /// 1-based re-attempt number (the first retry is attempt 1).
        attempt: u64,
    },
    /// Campaign-end summary of one chaos injection site: how many
    /// faults it fired over the whole run. Written once per fired site
    /// so warehouse views can attribute resilience activity to causes.
    Chaos {
        /// Stable site label (e.g. `"cache-corrupt"`).
        site: String,
        /// Faults this site injected during the campaign.
        fired: u64,
    },
}

/// The record layout in the module docs: an `"event"` tag, then the
/// variant's fields in declaration order.
impl Serialize for JournalEvent {
    fn serialize(&self, w: &mut Writer) {
        let unit_event = |w: &mut Writer, event: &str, hash: &str, unit: &str| {
            w.field("event", event);
            w.field("hash", hash);
            w.field("unit", unit);
        };
        w.object(|w| match self {
            JournalEvent::Start { hash, unit } => unit_event(w, "start", hash, unit),
            JournalEvent::Done { hash, unit, wall_s } => {
                unit_event(w, "done", hash, unit);
                w.field("wall_s", wall_s);
            }
            JournalEvent::Failed { hash, unit, error } => {
                unit_event(w, "failed", hash, unit);
                w.field("error", error);
            }
            JournalEvent::CacheCorrupt { hash, unit, object } => {
                unit_event(w, "cache-corrupt", hash, unit);
                w.field("object", object);
            }
            JournalEvent::Degraded { hash, unit, reason } => {
                unit_event(w, "degraded", hash, unit);
                w.field("reason", reason);
            }
            JournalEvent::Retry {
                hash,
                unit,
                attempt,
            } => {
                unit_event(w, "retry", hash, unit);
                w.field("attempt", attempt);
            }
            JournalEvent::Chaos { site, fired } => {
                w.field("event", "chaos");
                w.field("site", site);
                w.field("fired", fired);
            }
        });
    }
}

impl JournalEvent {
    fn to_line(&self) -> String {
        Writer::compact().render(self)
    }

    /// Parses one journal line back into an event. Unknown event kinds
    /// and malformed records (truncated lines, missing fields) read as
    /// `None` — journals are crash-tolerant, so readers must be too.
    fn from_line(line: &str) -> Option<JournalEvent> {
        let v: Value = serde_json::from_str(line).ok()?;
        let s = |key: &str| match v.get(key) {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        };
        let u = |key: &str| match v.get(key) {
            Some(Value::UInt(n)) => Some(*n),
            Some(Value::Int(n)) if *n >= 0 => Some(*n as u64),
            Some(Value::Float(f)) if *f >= 0.0 => Some(*f as u64),
            _ => None,
        };
        let f = |key: &str| match v.get(key) {
            Some(Value::Float(f)) => Some(*f),
            Some(Value::UInt(n)) => Some(*n as f64),
            Some(Value::Int(n)) => Some(*n as f64),
            _ => None,
        };
        match s("event")?.as_str() {
            "start" => Some(JournalEvent::Start {
                hash: s("hash")?,
                unit: s("unit")?,
            }),
            "done" => Some(JournalEvent::Done {
                hash: s("hash")?,
                unit: s("unit")?,
                wall_s: f("wall_s")?,
            }),
            "failed" => Some(JournalEvent::Failed {
                hash: s("hash")?,
                unit: s("unit")?,
                error: s("error")?,
            }),
            "cache-corrupt" => Some(JournalEvent::CacheCorrupt {
                hash: s("hash")?,
                unit: s("unit")?,
                object: s("object")?,
            }),
            "degraded" => Some(JournalEvent::Degraded {
                hash: s("hash")?,
                unit: s("unit")?,
                reason: s("reason")?,
            }),
            "retry" => Some(JournalEvent::Retry {
                hash: s("hash")?,
                unit: s("unit")?,
                attempt: u("attempt")?,
            }),
            "chaos" => Some(JournalEvent::Chaos {
                site: s("site")?,
                fired: u("fired")?,
            }),
            _ => None,
        }
    }
}

/// Appender state behind the journal mutex. The `torn` flag marks that
/// the previous (chaos-injected) append stopped mid-line, so the next
/// append must restore line framing first.
#[derive(Debug)]
struct Appender {
    file: File,
    torn: bool,
}

/// Thread-safe appender for the campaign journal.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    appender: Mutex<Appender>,
    chaos: Option<Arc<ChaosInjector>>,
}

impl Journal {
    /// Opens `path` for appending, creating it (and parent directories)
    /// if needed. Existing records are preserved and a torn trailing
    /// line — a crash mid-append — is repaired first (truncated back to
    /// the last complete line). This is the `--resume` mode; a fresh
    /// campaign uses [`Journal::create`].
    pub fn open(path: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with(path, false, None)
    }

    /// Starts a fresh journal at `path`, discarding any previous one.
    pub fn create(path: impl Into<PathBuf>) -> io::Result<Self> {
        Self::open_with(path, true, None)
    }

    /// [`Journal::open`] / [`Journal::create`] with a chaos injector
    /// wired into the append path (torn trailing appends).
    pub fn open_chaotic(
        path: impl Into<PathBuf>,
        truncate: bool,
        chaos: Option<Arc<ChaosInjector>>,
    ) -> io::Result<Self> {
        Self::open_with(path, truncate, chaos)
    }

    #[expect(clippy::disallowed_methods, reason = "chaos: journal-torn")]
    fn open_with(
        path: impl Into<PathBuf>,
        truncate: bool,
        chaos: Option<Arc<ChaosInjector>>,
    ) -> io::Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        if !truncate {
            Self::repair_torn_tail(&path)?;
        }
        let mut options = OpenOptions::new();
        options.create(true);
        if truncate {
            options.write(true).truncate(true);
        } else {
            options.append(true);
        }
        let file = options.open(&path)?;
        Ok(Journal {
            path,
            appender: Mutex::new(Appender { file, torn: false }),
            chaos,
        })
    }

    /// Truncates a journal whose final line has no trailing newline —
    /// the signature of a crash (or injected tear) mid-append — back to
    /// its last complete line, returning how many bytes were trimmed.
    /// A missing, empty, or cleanly terminated journal is left alone.
    #[expect(clippy::disallowed_methods, reason = "chaos: journal-torn")]
    pub fn repair_torn_tail(path: impl AsRef<Path>) -> io::Result<u64> {
        let path = path.as_ref();
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        if bytes.is_empty() || bytes.ends_with(b"\n") {
            return Ok(0);
        }
        let keep = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|i| i + 1)
            .unwrap_or(0);
        let trimmed = (bytes.len() - keep) as u64;
        OpenOptions::new()
            .write(true)
            .open(path)?
            .set_len(keep as u64)?;
        Ok(trimmed)
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event and flushes it to the OS.
    ///
    /// Fails if the write fails, or (naming the journal path) if the
    /// journal mutex was poisoned by a writer that panicked mid-append —
    /// the caller decides whether a lost journal record is fatal (the
    /// engine logs and continues).
    pub fn record(&self, event: &JournalEvent) -> io::Result<()> {
        let line = event.to_line();
        let mut appender = self.appender.lock().map_err(|_| {
            io::Error::other(format!(
                "journal {} is poisoned: a writer panicked while appending",
                self.path.display()
            ))
        })?;
        if appender.torn {
            // The previous (injected) append stopped mid-line. Restore
            // line framing so the file stays parseable: the torn record
            // is lost — exactly as after a real crash — but no later
            // record is glued onto its remains.
            appender.file.write_all(b"\n")?;
            appender.torn = false;
        }
        if let Some(chaos) = &self.chaos {
            if chaos.fire(ChaosSite::JournalTorn, &line) {
                // A torn append: half the record lands, no newline, and
                // the writer "crashes" silently from the journal's point
                // of view. The record is lost; resume must tolerate it.
                let half = &line.as_bytes()[..line.len() / 2];
                appender.file.write_all(half)?;
                appender.file.flush()?;
                appender.torn = true;
                return Ok(());
            }
        }
        appender.file.write_all(line.as_bytes())?;
        appender.file.write_all(b"\n")?;
        appender.file.flush()
    }

    /// Reads the set of unit hashes recorded `done` in the journal at
    /// `path`. Missing files mean an empty set; unparsable (e.g.
    /// truncated-by-a-crash) lines are skipped.
    ///
    /// The set is ordered (`BTreeSet`) so that anything iterating it —
    /// logging, resume planning — sees a stable order regardless of
    /// hasher seeding.
    #[expect(clippy::disallowed_methods, reason = "chaos: journal-torn")]
    pub fn completed_hashes(path: impl AsRef<Path>) -> io::Result<BTreeSet<String>> {
        let file = match File::open(path.as_ref()) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(BTreeSet::new()),
            Err(e) => return Err(e),
        };
        let mut done = BTreeSet::new();
        for line in BufReader::new(file).lines() {
            let line = line?;
            let Ok(v) = serde_json::from_str::<Value>(&line) else {
                continue;
            };
            let event = v.get("event").and_then(|e| match e {
                Value::Str(s) => Some(s.as_str()),
                _ => None,
            });
            let hash = v.get("hash").and_then(|h| match h {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            });
            if let (Some("done"), Some(hash)) = (event, hash) {
                done.insert(hash);
            }
        }
        Ok(done)
    }

    /// Reads every parseable event from the journal at `path`, in
    /// append order: one [`JournalCursor`] read from the start. Missing
    /// files mean an empty list; unparsable or unknown-kind lines are
    /// skipped (crash tolerance), and a last line whose newline has not
    /// landed counts if it parses.
    pub fn read_events(path: impl AsRef<Path>) -> io::Result<Vec<JournalEvent>> {
        let tail = JournalCursor::default().read_new(path)?;
        let mut events = tail.events;
        events.extend(tail.unterminated);
        Ok(events)
    }
}

/// How many already-consumed bytes a [`JournalCursor`] re-checks before
/// it resumes (about two records).
const ANCHOR_BYTES: usize = 256;

/// A resumable read position in a journal file.
///
/// While one campaign appends to a journal, a reader that remembers how
/// far it got only has to read what was appended since. Two things
/// break "append-only": a campaign started without `--resume`
/// re-creates the file ([`Journal::create`]), and
/// [`Journal::repair_torn_tail`] truncates it. The cursor therefore
/// keeps the last bytes it consumed and resumes only while the file
/// still holds exactly those bytes right before its offset; a shorter
/// file, or one with other bytes there, is read again from zero and
/// reported as [`JournalTail::restarted`].
#[derive(Debug, Clone, Default)]
pub struct JournalCursor {
    /// Bytes consumed: the offset just past the last complete line.
    offset: u64,
    /// The last (up to [`ANCHOR_BYTES`]) bytes before `offset`.
    anchor: Vec<u8>,
}

/// What one [`JournalCursor::read_new`] call found.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JournalTail {
    /// The cursor could not resume and read the file from its start:
    /// whatever the caller folded from earlier reads no longer
    /// describes this file.
    pub restarted: bool,
    /// The parseable events of the newline-terminated lines read, in
    /// append order. These lines are consumed.
    pub events: Vec<JournalEvent>,
    /// What an unterminated last line parses to, if anything: a writer
    /// caught between a record and its newline. The line is *not*
    /// consumed — the next read sees it again, finished or not.
    pub unterminated: Option<JournalEvent>,
}

impl JournalCursor {
    /// Bytes of the journal consumed so far.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Reads what the journal at `path` holds past this cursor and
    /// advances it over every complete line. A missing file is an empty
    /// journal; unparsable and unknown-kind lines are skipped, exactly
    /// as [`Journal::read_events`] skips them. On an error (unreadable
    /// file, invalid UTF-8) the cursor does not move.
    #[expect(clippy::disallowed_methods, reason = "chaos: journal-torn")]
    pub fn read_new(&mut self, path: impl AsRef<Path>) -> io::Result<JournalTail> {
        let mut tail = JournalTail::default();
        let mut next = JournalCursor::default();
        let mut resumed = false;
        match File::open(path.as_ref()) {
            Ok(mut file) => {
                resumed = self.still_anchored(&mut file)?;
                if resumed {
                    next = self.clone();
                }
                file.seek(SeekFrom::Start(next.offset))?;
                let mut reader = BufReader::new(file);
                let mut line = String::new();
                while reader.read_line(&mut line)? > 0 {
                    let Some(record) = line.strip_suffix('\n') else {
                        tail.unterminated = JournalEvent::from_line(&line);
                        break;
                    };
                    let record = record.strip_suffix('\r').unwrap_or(record);
                    tail.events.extend(JournalEvent::from_line(record));
                    next.advance(line.as_bytes());
                    line.clear();
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        tail.restarted = self.offset > 0 && !resumed;
        *self = next;
        Ok(tail)
    }

    /// Whether `file` still holds this cursor's anchor right before its
    /// offset (trivially true before anything was consumed).
    fn still_anchored(&self, file: &mut File) -> io::Result<bool> {
        let mut seen = vec![0u8; self.anchor.len()];
        file.seek(SeekFrom::Start(self.offset - self.anchor.len() as u64))?;
        match file.read_exact(&mut seen) {
            Ok(()) => Ok(seen == self.anchor),
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Moves past one consumed line.
    fn advance(&mut self, line: &[u8]) {
        self.offset += line.len() as u64;
        self.anchor.extend_from_slice(line);
        let excess = self.anchor.len().saturating_sub(ANCHOR_BYTES);
        self.anchor.drain(..excess);
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "unguarded: test fixtures: temp journals, cut and rewritten to plant torn tails"
)]
mod tests {
    use super::*;
    use rsls_chaos::ChaosPlan;

    fn tmp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "rsls-journal-test-{tag}-{}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn records_and_reads_back_done_set() {
        let path = tmp_path("basic");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.record(&JournalEvent::Start {
            hash: "h1".into(),
            unit: "e/u1".into(),
        })
        .unwrap();
        j.record(&JournalEvent::Done {
            hash: "h1".into(),
            unit: "e/u1".into(),
            wall_s: 0.25,
        })
        .unwrap();
        j.record(&JournalEvent::Start {
            hash: "h2".into(),
            unit: "e/u2".into(),
        })
        .unwrap();
        j.record(&JournalEvent::Failed {
            hash: "h3".into(),
            unit: "e/u3".into(),
            error: "boom".into(),
        })
        .unwrap();
        j.record(&JournalEvent::Degraded {
            hash: "h4".into(),
            unit: "e/u4".into(),
            reason: "circuit open".into(),
        })
        .unwrap();
        j.record(&JournalEvent::CacheCorrupt {
            hash: "h1".into(),
            unit: "e/u1".into(),
            object: "o".repeat(64),
        })
        .unwrap();
        let done = Journal::completed_hashes(&path).unwrap();
        assert!(done.contains("h1"));
        assert!(!done.contains("h2"), "started-but-unfinished is not done");
        assert!(!done.contains("h3"), "failed is not done");
        assert!(!done.contains("h4"), "degraded is not done");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn truncated_trailing_line_is_tolerated() {
        let path = tmp_path("truncated");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.record(&JournalEvent::Done {
            hash: "ok".into(),
            unit: "e/u".into(),
            wall_s: 1.0,
        })
        .unwrap();
        drop(j);
        // Simulate a crash mid-append.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"event\":\"done\",\"hash\":\"half").unwrap();
        drop(f);
        let done = Journal::completed_hashes(&path).unwrap();
        assert_eq!(done.len(), 1);
        assert!(done.contains("ok"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_repairs_a_torn_tail() {
        let path = tmp_path("repair");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        j.record(&JournalEvent::Done {
            hash: "ok".into(),
            unit: "e/u".into(),
            wall_s: 1.0,
        })
        .unwrap();
        drop(j);
        let clean_len = fs::metadata(&path).unwrap().len();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"event\":\"start\",\"ha").unwrap();
        drop(f);

        // Re-opening for resume truncates back to the last complete line…
        let j = Journal::open(&path).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), clean_len);
        // …and the next append lands on a clean line boundary.
        j.record(&JournalEvent::Done {
            hash: "next".into(),
            unit: "e/v".into(),
            wall_s: 2.0,
        })
        .unwrap();
        drop(j);
        let done = Journal::completed_hashes(&path).unwrap();
        assert!(done.contains("ok"));
        assert!(done.contains("next"));
        assert_eq!(done.len(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_torn_append_loses_only_that_record() {
        let path = tmp_path("chaos-torn");
        let _ = std::fs::remove_file(&path);
        // The first append tears (budget 1); later appends must restore
        // framing so only the torn record is lost.
        let mut plan = ChaosPlan::quiet(13);
        plan.journal_torn_permille = 1000;
        plan.max_faults_per_site = 1;
        let injector = Arc::new(ChaosInjector::new(plan));
        let j = Journal::open_chaotic(&path, true, Some(Arc::clone(&injector))).unwrap();
        j.record(&JournalEvent::Done {
            hash: "lost".into(),
            unit: "e/u1".into(),
            wall_s: 1.0,
        })
        .unwrap();
        j.record(&JournalEvent::Done {
            hash: "kept".into(),
            unit: "e/u2".into(),
            wall_s: 1.0,
        })
        .unwrap();
        drop(j);
        assert_eq!(injector.fired(ChaosSite::JournalTorn), 1);
        let done = Journal::completed_hashes(&path).unwrap();
        assert!(!done.contains("lost"), "torn record is lost, like a crash");
        assert!(done.contains("kept"), "later records survive intact");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn read_events_round_trips_and_skips_garbage() {
        let path = tmp_path("read-events");
        let _ = std::fs::remove_file(&path);
        let j = Journal::create(&path).unwrap();
        let events = vec![
            JournalEvent::Start {
                hash: "h1".into(),
                unit: "e/u1".into(),
            },
            JournalEvent::Retry {
                hash: "h1".into(),
                unit: "e/u1".into(),
                attempt: 2,
            },
            JournalEvent::Done {
                hash: "h1".into(),
                unit: "e/u1".into(),
                wall_s: 0.5,
            },
            JournalEvent::Failed {
                hash: "h2".into(),
                unit: "e/u2".into(),
                error: "boom".into(),
            },
            JournalEvent::Degraded {
                hash: "h3".into(),
                unit: "e/u3".into(),
                reason: "circuit".into(),
            },
            JournalEvent::CacheCorrupt {
                hash: "h1".into(),
                unit: "e/u1".into(),
                object: "o".repeat(64),
            },
            JournalEvent::Chaos {
                site: "cache-corrupt".into(),
                fired: 3,
            },
        ];
        for e in &events {
            j.record(e).unwrap();
        }
        drop(j);
        // Garbage and unknown-kind lines must be skipped, not fatal.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"not json at all\n").unwrap();
        f.write_all(b"{\"event\":\"from-the-future\",\"x\":1}\n")
            .unwrap();
        f.write_all(b"{\"event\":\"done\",\"hash\":\"trunc")
            .unwrap();
        drop(f);
        let back = Journal::read_events(&path).unwrap();
        assert_eq!(back, events);
        let _ = std::fs::remove_file(&path);
    }

    fn done(hash: &str, wall_s: f64) -> JournalEvent {
        JournalEvent::Done {
            hash: hash.into(),
            unit: format!("e/{hash}"),
            wall_s,
        }
    }

    #[test]
    fn cursor_reads_only_what_was_appended() {
        let path = tmp_path("cursor-append");
        let j = Journal::create(&path).unwrap();
        let mut cursor = JournalCursor::default();
        assert_eq!(cursor.read_new(&path).unwrap(), JournalTail::default());

        j.record(&done("h1", 0.5)).unwrap();
        j.record(&done("h2", 1.5)).unwrap();
        let tail = cursor.read_new(&path).unwrap();
        assert_eq!(tail.events, vec![done("h1", 0.5), done("h2", 1.5)]);
        assert!(!tail.restarted && tail.unterminated.is_none());
        assert_eq!(cursor.offset(), fs::metadata(&path).unwrap().len());

        // Nothing new, then one more record: only that record comes back.
        assert_eq!(cursor.read_new(&path).unwrap(), JournalTail::default());
        j.record(&done("h3", 2.5)).unwrap();
        assert_eq!(
            cursor.read_new(&path).unwrap().events,
            vec![done("h3", 2.5)]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cursor_leaves_an_unterminated_line_unconsumed() {
        let path = tmp_path("cursor-torn");
        let j = Journal::create(&path).unwrap();
        j.record(&done("h1", 0.5)).unwrap();
        drop(j);
        let clean = fs::metadata(&path).unwrap().len();
        let line = done("h2", 1.5).to_line();
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();

        // Half a record: nothing to report, nothing consumed.
        f.write_all(&line.as_bytes()[..line.len() / 2]).unwrap();
        let mut cursor = JournalCursor::default();
        let tail = cursor.read_new(&path).unwrap();
        assert_eq!(tail.events, vec![done("h1", 0.5)]);
        assert_eq!(tail.unterminated, None);
        assert_eq!(cursor.offset(), clean);

        // The whole record but no newline yet: reported, still not
        // consumed, and what `read_events` has always returned.
        f.write_all(&line.as_bytes()[line.len() / 2..]).unwrap();
        let tail = cursor.read_new(&path).unwrap();
        assert!(tail.events.is_empty());
        assert_eq!(tail.unterminated, Some(done("h2", 1.5)));
        assert_eq!(cursor.offset(), clean);
        assert_eq!(
            Journal::read_events(&path).unwrap(),
            vec![done("h1", 0.5), done("h2", 1.5)]
        );

        // The newline lands: consumed exactly once.
        f.write_all(b"\n").unwrap();
        let tail = cursor.read_new(&path).unwrap();
        assert_eq!(tail.events, vec![done("h2", 1.5)]);
        assert_eq!(tail.unterminated, None);
        assert_eq!(cursor.read_new(&path).unwrap(), JournalTail::default());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn cursor_restarts_on_a_recreated_or_truncated_journal() {
        let path = tmp_path("cursor-recreate");
        let j = Journal::create(&path).unwrap();
        j.record(&done("h1", 0.5)).unwrap();
        j.record(&done("h2", 1.5)).unwrap();
        drop(j);
        let mut cursor = JournalCursor::default();
        assert_eq!(cursor.read_new(&path).unwrap().events.len(), 2);

        // Re-created and already *longer* than what was consumed: the
        // length alone would not show it, the anchor does.
        let j = Journal::create(&path).unwrap();
        let fresh: Vec<JournalEvent> = (0..4).map(|i| done(&format!("g{i}"), 0.25)).collect();
        for e in &fresh {
            j.record(e).unwrap();
        }
        drop(j);
        let tail = cursor.read_new(&path).unwrap();
        assert!(tail.restarted);
        assert_eq!(tail.events, fresh);

        // Truncated below the consumed offset.
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(0)
            .unwrap();
        let tail = cursor.read_new(&path).unwrap();
        assert!(tail.restarted && tail.events.is_empty());
        assert_eq!(cursor.offset(), 0);

        // Deleted after something was consumed.
        Journal::create(&path)
            .unwrap()
            .record(&done("h1", 0.5))
            .unwrap();
        assert_eq!(cursor.read_new(&path).unwrap().events.len(), 1);
        std::fs::remove_file(&path).unwrap();
        let tail = cursor.read_new(&path).unwrap();
        assert!(tail.restarted && tail.events.is_empty());
    }

    #[test]
    fn missing_journal_is_empty() {
        let done = Journal::completed_hashes("/definitely/not/a/real/path.jsonl").unwrap();
        assert!(done.is_empty());
        assert_eq!(
            Journal::repair_torn_tail("/definitely/not/a/real/path.jsonl").unwrap(),
            0
        );
    }
}
