//! Crash-safe session journal: a small append-only log of session
//! *control* state — plan epochs and active sets, the cost model,
//! the ack watermark, and profiling flags — never payloads.
//!
//! A restarted `mpart serve` replays the journal into
//! [`SessionSnapshot`]s and reopens each session through the shared
//! `AnalysisCache`, so recovery pays **zero static re-analysis** (every
//! open is a cache hit, verifiable on the cache gauges) and resumes
//! sequence numbering from the journaled watermark; in-flight envelopes
//! are then recovered from the wire's retransmission buffer as usual.
//!
//! The format is one record per line, space-separated, human-greppable:
//!
//! ```text
//! open 0 process data-size
//! plan 0 3 2,5 install
//! ack 0 17
//! flags 0 36
//! ```
//!
//! Records are checkpointed on epoch commits (cheap: a few dozen
//! bytes) and the ack watermark piggybacks on successful deliveries.
//! Replay folds records left to right, so the last write wins — exactly
//! the semantics of an append-only log. The journal folds each record
//! into its per-session snapshots as it is appended or loaded and keeps
//! no lines, so [`SessionJournal::replay`] is a copy of the fold.
//!
//! # Durability
//!
//! One live [`SessionJournal`] writes each file. It holds one append
//! handle and writes each record, newline included, with one `write_all`
//! before the append returns; no append calls `sync_data`. So:
//!
//! - a process crash loses at most the record in flight;
//! - an OS crash or power loss can also lose the tail of the log that was
//!   still in the page cache;
//! - a torn final record (a last line with no trailing newline) is
//!   dropped on reopen, and the file is cut back to the last complete
//!   record; a bad line that does end in a newline is corruption, and the
//!   reopen fails;
//! - compaction writes and syncs `<path>.compact`, then renames it over
//!   the log, so a crash leaves either the old log or the compacted one,
//!   never a mix. A stale `.compact` file is deleted on reopen.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use mpart_ir::IrError;

use crate::PseId;

/// One journal record. All variants carry the session id first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalRecord {
    /// A session opened: `(session, func, model)`.
    Open { session: u64, func: String, model: String },
    /// A plan committed: `(session, epoch, active set, reason label)`.
    PlanCommit { session: u64, epoch: u64, active: Vec<PseId>, reason: String },
    /// The live cost model switched: `(session, model)`. Nothing writes
    /// this record any more; it is still parsed and replayed so journals
    /// written while runtime model switching existed reopen.
    ModelCommit { session: u64, model: String },
    /// The contiguous ack watermark advanced: `(session, watermark)`.
    Ack { session: u64, watermark: u64 },
    /// Profiling flags changed: `(session, PSE bitmask)`.
    Flags { session: u64, mask: u64 },
    /// A canary window opened, progressed, or ended: `(session,
    /// prior_epoch, epoch, remaining, prior active set)`. `remaining == 0`
    /// means the window closed (promoted or rolled back) — replay clears
    /// the guard; a positive `remaining` means a restart must resume the
    /// canary with that many envelopes left to watch.
    Guard { session: u64, prior_epoch: u64, epoch: u64, remaining: u64, prior_active: Vec<PseId> },
    /// A quarantine entry changed: `(session, remaining ttl, active
    /// set)`. `ttl == 0` removes the entry on replay.
    Quarantine { session: u64, ttl: u32, active: Vec<PseId> },
    /// The session closed for good: replay drops every earlier record
    /// for it, so a restart can never resurrect a closed session.
    Close { session: u64 },
}

/// Appends an active set as `2,5` (or `-` when empty): the one text form
/// of a set, in journal lines and in the node protocol's request lines.
pub fn render_set(out: &mut String, active: &[PseId]) {
    if active.is_empty() {
        out.push('-');
    }
    for (i, pse) in active.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{pse}");
    }
}

impl JournalRecord {
    /// Renders the record as one journal line (no trailing newline).
    pub fn render(&self) -> String {
        let mut line = String::new();
        self.render_into(&mut line);
        line
    }

    /// Appends [`JournalRecord::render`]'s line to `out`, so a caller can
    /// reuse one buffer across records.
    pub fn render_into(&self, out: &mut String) {
        // Writing into a `String` cannot fail, so the results are dropped.
        match self {
            JournalRecord::Open { session, func, model } => {
                let _ = write!(out, "open {session} {func} {model}");
            }
            JournalRecord::PlanCommit { session, epoch, active, reason } => {
                let _ = write!(out, "plan {session} {epoch} ");
                render_set(out, active);
                let _ = write!(out, " {reason}");
            }
            JournalRecord::ModelCommit { session, model } => {
                let _ = write!(out, "model {session} {model}");
            }
            JournalRecord::Ack { session, watermark } => {
                let _ = write!(out, "ack {session} {watermark}");
            }
            JournalRecord::Flags { session, mask } => {
                let _ = write!(out, "flags {session} {mask}");
            }
            JournalRecord::Guard { session, prior_epoch, epoch, remaining, prior_active } => {
                let _ = write!(out, "guard {session} {prior_epoch} {epoch} {remaining} ");
                render_set(out, prior_active);
            }
            JournalRecord::Quarantine { session, ttl, active } => {
                let _ = write!(out, "quar {session} {ttl} ");
                render_set(out, active);
            }
            JournalRecord::Close { session } => {
                let _ = write!(out, "close {session}");
            }
        }
    }

    /// Parses one journal line.
    pub fn parse(line: &str) -> Result<Self, IrError> {
        let bad = |why: &str| IrError::Invalid(format!("journal line {line:?}: {why}"));
        let mut parts = line.split_whitespace();
        let kind = parts.next().ok_or_else(|| bad("empty"))?;
        let session: u64 = parts
            .next()
            .ok_or_else(|| bad("missing session id"))?
            .parse()
            .map_err(|_| bad("bad session id"))?;
        let record = match kind {
            "open" => JournalRecord::Open {
                session,
                func: parts.next().ok_or_else(|| bad("missing func"))?.to_string(),
                model: parts.next().ok_or_else(|| bad("missing model"))?.to_string(),
            },
            "plan" => {
                let epoch = parts
                    .next()
                    .ok_or_else(|| bad("missing epoch"))?
                    .parse()
                    .map_err(|_| bad("bad epoch"))?;
                let set = parts.next().ok_or_else(|| bad("missing active set"))?;
                let active = parse_set(set).map_err(&bad)?;
                let reason = parts.next().ok_or_else(|| bad("missing reason"))?.to_string();
                JournalRecord::PlanCommit { session, epoch, active, reason }
            }
            "model" => JournalRecord::ModelCommit {
                session,
                model: parts.next().ok_or_else(|| bad("missing model"))?.to_string(),
            },
            "ack" => JournalRecord::Ack {
                session,
                watermark: parts
                    .next()
                    .ok_or_else(|| bad("missing watermark"))?
                    .parse()
                    .map_err(|_| bad("bad watermark"))?,
            },
            "flags" => JournalRecord::Flags {
                session,
                mask: parts
                    .next()
                    .ok_or_else(|| bad("missing mask"))?
                    .parse()
                    .map_err(|_| bad("bad mask"))?,
            },
            "guard" => {
                let prior_epoch = parts
                    .next()
                    .ok_or_else(|| bad("missing prior epoch"))?
                    .parse()
                    .map_err(|_| bad("bad prior epoch"))?;
                let epoch = parts
                    .next()
                    .ok_or_else(|| bad("missing epoch"))?
                    .parse()
                    .map_err(|_| bad("bad epoch"))?;
                let remaining = parts
                    .next()
                    .ok_or_else(|| bad("missing remaining"))?
                    .parse()
                    .map_err(|_| bad("bad remaining"))?;
                let set = parts.next().ok_or_else(|| bad("missing prior active set"))?;
                let prior_active = parse_set(set).map_err(&bad)?;
                JournalRecord::Guard { session, prior_epoch, epoch, remaining, prior_active }
            }
            "quar" => {
                let ttl = parts
                    .next()
                    .ok_or_else(|| bad("missing ttl"))?
                    .parse()
                    .map_err(|_| bad("bad ttl"))?;
                let set = parts.next().ok_or_else(|| bad("missing active set"))?;
                let active = parse_set(set).map_err(&bad)?;
                JournalRecord::Quarantine { session, ttl, active }
            }
            "close" => JournalRecord::Close { session },
            other => return Err(bad(&format!("unknown record kind {other:?}"))),
        };
        Ok(record)
    }
}

/// Parses a `2,5` / `-` active-set field, as [`render_set`] writes it.
///
/// # Errors
///
/// Returns a description when a member is not a PSE id.
pub fn parse_set(set: &str) -> Result<Vec<PseId>, &'static str> {
    if set == "-" {
        return Ok(vec![]);
    }
    set.split(',').map(|p| p.parse::<PseId>().map_err(|_| "bad pse id")).collect()
}

/// A mid-flight canary window recovered from the journal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GuardSnapshot {
    /// Epoch that was serving before the watched commit.
    pub prior_epoch: u64,
    /// The watched plan's epoch.
    pub epoch: u64,
    /// Envelopes left in the canary window.
    pub remaining: u64,
    /// Active set to reinstall on rollback.
    pub prior_active: Vec<PseId>,
}

/// The folded recovery state of one journaled session.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SessionSnapshot {
    /// Handler function name recorded at open.
    pub func: String,
    /// Name of the cost model last committed (open or model record).
    pub model: String,
    /// Last committed plan epoch.
    pub epoch: u64,
    /// Active PSE set of the last committed plan.
    pub active: Vec<PseId>,
    /// Reason label of the last committed plan.
    pub reason: String,
    /// Contiguous ack watermark (messages fully applied).
    pub watermark: u64,
    /// Profiling-flag bitmask last recorded.
    pub flags: u64,
    /// Canary window still open at the time of the crash, if any.
    pub guard: Option<GuardSnapshot>,
    /// Quarantined active sets with their remaining ttl.
    pub quarantined: Vec<(Vec<PseId>, u32)>,
}

/// The append-only session journal: the last-write-wins fold of every
/// record appended or loaded, and, when opened with
/// [`SessionJournal::at_path`], one append handle on the log file that
/// every append writes through before it returns. The [module
/// docs](self) state what a crash can lose; one live journal writes each
/// file.
#[derive(Debug)]
pub struct SessionJournal {
    path: Option<PathBuf>,
    state: Mutex<JournalState>,
}

/// What the journal's lock guards.
#[derive(Debug, Default)]
struct JournalState {
    /// The fold of every record since the log began.
    sessions: BTreeMap<u64, SessionSnapshot>,
    /// Records appended or loaded since the last compaction.
    records: usize,
    /// The append handle, when file-backed.
    file: Option<File>,
    /// The line buffer each file-backed append renders into.
    line: String,
}

/// Folds one record into per-session snapshots: the last write wins,
/// except that the ack watermark never moves backwards.
fn fold(sessions: &mut BTreeMap<u64, SessionSnapshot>, record: JournalRecord) {
    match record {
        JournalRecord::Open { session, func, model } => {
            let snap = sessions.entry(session).or_default();
            snap.func = func;
            snap.model = model;
        }
        JournalRecord::PlanCommit { session, epoch, active, reason } => {
            let snap = sessions.entry(session).or_default();
            snap.epoch = epoch;
            snap.active = active;
            snap.reason = reason;
        }
        JournalRecord::ModelCommit { session, model } => {
            sessions.entry(session).or_default().model = model;
        }
        JournalRecord::Ack { session, watermark } => {
            let snap = sessions.entry(session).or_default();
            snap.watermark = snap.watermark.max(watermark);
        }
        JournalRecord::Flags { session, mask } => {
            sessions.entry(session).or_default().flags = mask;
        }
        JournalRecord::Guard { session, prior_epoch, epoch, remaining, prior_active } => {
            sessions.entry(session).or_default().guard = (remaining > 0).then_some(GuardSnapshot {
                prior_epoch,
                epoch,
                remaining,
                prior_active,
            });
        }
        JournalRecord::Quarantine { session, ttl, active } => {
            let snap = sessions.entry(session).or_default();
            snap.quarantined.retain(|(set, _)| *set != active);
            if ttl > 0 {
                snap.quarantined.push((active, ttl));
            }
        }
        JournalRecord::Close { session } => {
            sessions.remove(&session);
        }
    }
}

/// The records a compacted log holds for `sessions`: per live session
/// `open` and `plan`, then `ack` and `flags` unless default-valued, a
/// `guard` for an open canary window and one `quar` per quarantine entry.
fn compacted(sessions: &BTreeMap<u64, SessionSnapshot>) -> Vec<JournalRecord> {
    let mut records = Vec::with_capacity(sessions.len() * 4);
    for (&session, snap) in sessions {
        records.push(JournalRecord::Open {
            session,
            func: snap.func.clone(),
            model: snap.model.clone(),
        });
        records.push(JournalRecord::PlanCommit {
            session,
            epoch: snap.epoch,
            active: snap.active.clone(),
            reason: if snap.reason.is_empty() { "compact".into() } else { snap.reason.clone() },
        });
        if snap.watermark > 0 {
            records.push(JournalRecord::Ack { session, watermark: snap.watermark });
        }
        if snap.flags > 0 {
            records.push(JournalRecord::Flags { session, mask: snap.flags });
        }
        if let Some(guard) = &snap.guard {
            records.push(JournalRecord::Guard {
                session,
                prior_epoch: guard.prior_epoch,
                epoch: guard.epoch,
                remaining: guard.remaining,
                prior_active: guard.prior_active.clone(),
            });
        }
        for (active, ttl) in &snap.quarantined {
            records.push(JournalRecord::Quarantine { session, ttl: *ttl, active: active.clone() });
        }
    }
    records
}

/// Where [`SessionJournal::compact`] writes the log before renaming it
/// over `path`.
fn compact_path(path: &Path) -> PathBuf {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".compact");
    PathBuf::from(tmp)
}

fn io_error(path: &Path, e: std::io::Error) -> IrError {
    IrError::Invalid(format!("journal {}: {e}", path.display()))
}

impl SessionJournal {
    /// A journal kept only in memory (tests, benches).
    pub fn in_memory() -> Self {
        SessionJournal { path: None, state: Mutex::new(JournalState::default()) }
    }

    /// A journal backed by `path`, loading any records already there —
    /// this is both "create" and "reopen after crash". A last line with
    /// no trailing newline is an append a crash tore: it is dropped and
    /// cut from the file. Any other bad line fails the open, as does a
    /// file that is not UTF-8. A `.compact` file that a crash during
    /// [`compact`](Self::compact) left beside the log is deleted.
    pub fn at_path(path: impl AsRef<Path>) -> Result<Self, IrError> {
        let path = path.as_ref().to_path_buf();
        let io = |e| io_error(&path, e);
        match std::fs::remove_file(compact_path(&path)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(io(e)),
            _ => {}
        }
        let mut file =
            OpenOptions::new().read(true).append(true).create(true).open(&path).map_err(io)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io)?;
        let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |last| last + 1);
        let text = std::str::from_utf8(&bytes[..complete])
            .map_err(|e| IrError::Invalid(format!("journal {}: {e}", path.display())))?;
        let mut state = JournalState::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            fold(&mut state.sessions, JournalRecord::parse(line)?);
            state.records += 1;
        }
        if complete < bytes.len() {
            file.set_len(complete as u64).map_err(io)?;
        }
        state.file = Some(file);
        Ok(SessionJournal { path: Some(path), state: Mutex::new(state) })
    }

    /// The backing path, if file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Appends one record: folds it in, and when file-backed writes its
    /// line, newline included, with one `write_all` on the held handle.
    /// I/O errors surface as [`IrError::Invalid`]; the record is folded
    /// in either way so a transiently unwritable disk degrades, not
    /// corrupts.
    pub fn append(&self, record: JournalRecord) -> Result<(), IrError> {
        let mut guard = self.state.lock().expect("journal poisoned");
        let state = &mut *guard;
        let written = match (&mut state.file, &self.path) {
            (Some(file), Some(path)) => {
                state.line.clear();
                record.render_into(&mut state.line);
                state.line.push('\n');
                file.write_all(state.line.as_bytes()).map_err(|e| io_error(path, e))
            }
            _ => Ok(()),
        };
        fold(&mut state.sessions, record);
        state.records += 1;
        written
    }

    /// Records appended (or loaded) since the last compaction.
    pub fn len(&self) -> usize {
        self.state.lock().expect("journal poisoned").records
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The per-session snapshots (last write wins), ordered by session id.
    pub fn replay(&self) -> Result<BTreeMap<u64, SessionSnapshot>, IrError> {
        Ok(self.state.lock().expect("journal poisoned").sessions.clone())
    }

    /// Rewrites the log to the folded live set: every closed or
    /// migrated-away session's records vanish, and each live session
    /// folds to a handful of lines (`open`/`plan`/`ack`/`flags`, plus a
    /// `guard` line for an open canary window and one `quar` line per
    /// quarantine entry — the exact snapshot [`SessionJournal::replay`]
    /// returns, with default-valued `ack 0` / `flags 0` lines and closed
    /// guards elided). The backing file, when present, is replaced
    /// rename-atomically: the compacted log is written and synced to
    /// `<path>.compact`, renamed over `path`, and its handle becomes the
    /// append handle. Returns the number of records dropped.
    pub fn compact(&self) -> Result<usize, IrError> {
        let mut guard = self.state.lock().expect("journal poisoned");
        let state = &mut *guard;
        let records = compacted(&state.sessions);
        let kept = records.len();
        if let Some(path) = &self.path {
            let mut text = String::new();
            for record in &records {
                record.render_into(&mut text);
                text.push('\n');
            }
            let tmp = compact_path(path);
            let io = |e| io_error(&tmp, e);
            let mut file = OpenOptions::new().append(true).create(true).open(&tmp).map_err(io)?;
            file.set_len(0).map_err(io)?;
            file.write_all(text.as_bytes()).map_err(io)?;
            file.sync_all().map_err(io)?;
            std::fs::rename(&tmp, path).map_err(io)?;
            state.file = Some(file);
        }
        // Refolding makes the live snapshots what a reopen of the
        // compacted log replays (an empty plan reason becomes `compact`).
        let mut sessions = BTreeMap::new();
        for record in records {
            fold(&mut sessions, record);
        }
        state.sessions = sessions;
        let dropped = state.records.saturating_sub(kept);
        state.records = kept;
        Ok(dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Open { session: 0, func: "process".into(), model: "data-size".into() },
            JournalRecord::PlanCommit {
                session: 0,
                epoch: 1,
                active: vec![2, 5],
                reason: "initial".into(),
            },
            JournalRecord::Ack { session: 0, watermark: 3 },
            JournalRecord::PlanCommit {
                session: 0,
                epoch: 2,
                active: vec![4],
                reason: "reconfig".into(),
            },
            JournalRecord::ModelCommit { session: 0, model: "exec-time".into() },
            JournalRecord::Flags { session: 0, mask: 0b10100 },
            JournalRecord::Ack { session: 0, watermark: 9 },
            JournalRecord::Open { session: 1, func: "push".into(), model: "composite".into() },
            JournalRecord::PlanCommit {
                session: 1,
                epoch: 1,
                active: vec![],
                reason: "initial".into(),
            },
        ]
    }

    #[test]
    fn records_render_and_parse_round_trip() {
        let mut records = sample_records();
        records.push(JournalRecord::Guard {
            session: 0,
            prior_epoch: 2,
            epoch: 3,
            remaining: 5,
            prior_active: vec![2, 5],
        });
        records.push(JournalRecord::Guard {
            session: 0,
            prior_epoch: 2,
            epoch: 3,
            remaining: 0,
            prior_active: vec![],
        });
        records.push(JournalRecord::Quarantine { session: 0, ttl: 7, active: vec![1, 4] });
        records.push(JournalRecord::Quarantine { session: 0, ttl: 0, active: vec![1, 4] });
        for record in records {
            let line = record.render();
            assert_eq!(JournalRecord::parse(&line).unwrap(), record, "round trip {line:?}");
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "",
            "open",
            "open x f m",
            "plan 0 1",
            "plan 0 x - r",
            "wat 0 1",
            "guard 0 1 2",
            "guard 0 1 2 x -",
            "quar 0",
            "quar 0 x 1",
        ] {
            assert!(JournalRecord::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn guard_and_quarantine_fold_last_write_wins() {
        let journal = SessionJournal::in_memory();
        for record in sample_records() {
            journal.append(record).unwrap();
        }
        journal
            .append(JournalRecord::Guard {
                session: 0,
                prior_epoch: 2,
                epoch: 3,
                remaining: 8,
                prior_active: vec![4],
            })
            .unwrap();
        journal.append(JournalRecord::Quarantine { session: 0, ttl: 3, active: vec![1] }).unwrap();
        journal.append(JournalRecord::Quarantine { session: 0, ttl: 9, active: vec![1] }).unwrap();
        journal
            .append(JournalRecord::Quarantine { session: 0, ttl: 2, active: vec![0, 2] })
            .unwrap();
        let sessions = journal.replay().unwrap();
        let s0 = &sessions[&0];
        assert_eq!(
            s0.guard,
            Some(GuardSnapshot { prior_epoch: 2, epoch: 3, remaining: 8, prior_active: vec![4] })
        );
        assert_eq!(s0.quarantined, vec![(vec![1], 9), (vec![0, 2], 2)]);
        assert!(sessions[&1].guard.is_none());

        // Compaction keeps open guards and live quarantine entries.
        journal.compact().unwrap();
        let folded = journal.replay().unwrap();
        assert_eq!(folded[&0].guard, sessions[&0].guard);
        assert_eq!(folded[&0].quarantined, sessions[&0].quarantined);

        // A zero-remaining guard and a zero-ttl quarantine clear on replay.
        journal
            .append(JournalRecord::Guard {
                session: 0,
                prior_epoch: 2,
                epoch: 3,
                remaining: 0,
                prior_active: vec![],
            })
            .unwrap();
        journal.append(JournalRecord::Quarantine { session: 0, ttl: 0, active: vec![1] }).unwrap();
        let cleared = journal.replay().unwrap();
        assert!(cleared[&0].guard.is_none());
        assert_eq!(cleared[&0].quarantined, vec![(vec![0, 2], 2)]);
    }

    #[test]
    fn replay_folds_last_write_wins() {
        let journal = SessionJournal::in_memory();
        for record in sample_records() {
            journal.append(record).unwrap();
        }
        let sessions = journal.replay().unwrap();
        assert_eq!(sessions.len(), 2);
        let s0 = &sessions[&0];
        assert_eq!(s0.func, "process");
        assert_eq!(s0.model, "exec-time", "model commit overrides open");
        assert_eq!((s0.epoch, s0.active.clone()), (2, vec![4]));
        assert_eq!(s0.reason, "reconfig");
        assert_eq!(s0.watermark, 9);
        assert_eq!(s0.flags, 0b10100);
        assert_eq!(sessions[&1].active, Vec::<PseId>::new());
    }

    #[test]
    fn close_record_drops_the_session_on_replay() {
        let journal = SessionJournal::in_memory();
        for record in sample_records() {
            journal.append(record).unwrap();
        }
        journal.append(JournalRecord::Close { session: 0 }).unwrap();
        let sessions = journal.replay().unwrap();
        assert!(!sessions.contains_key(&0), "closed session must not replay");
        assert!(sessions.contains_key(&1), "live session unaffected");
        let line = JournalRecord::Close { session: 7 }.render();
        assert_eq!(JournalRecord::parse(&line).unwrap(), JournalRecord::Close { session: 7 });
    }

    #[test]
    fn compact_shrinks_to_the_live_set() {
        let journal = SessionJournal::in_memory();
        for record in sample_records() {
            journal.append(record).unwrap();
        }
        journal.append(JournalRecord::Close { session: 0 }).unwrap();
        let before = journal.replay().unwrap();
        let dropped = journal.compact().unwrap();
        assert!(dropped > 0, "compaction must drop the closed session's tail");
        assert_eq!(journal.len(), 2, "session 1 never acked: open + plan only");
        assert_eq!(journal.replay().unwrap(), before, "compaction preserves the fold");
    }

    /// A log path private to this test process and `tag`.
    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mpart-journal-{tag}-{}.log", std::process::id()))
    }

    /// The replay of an in-memory journal fed `records`.
    fn fold_of(records: impl IntoIterator<Item = JournalRecord>) -> BTreeMap<u64, SessionSnapshot> {
        let journal = SessionJournal::in_memory();
        for record in records {
            journal.append(record).unwrap();
        }
        journal.replay().unwrap()
    }

    /// The parent's file format: each record's line and a newline.
    fn rendered(records: &[JournalRecord]) -> String {
        records.iter().map(|r| r.render() + "\n").collect()
    }

    #[test]
    fn file_backed_compaction_rewrites_the_log() {
        let path = temp_path("compact");
        let _ = std::fs::remove_file(&path);
        {
            let journal = SessionJournal::at_path(&path).unwrap();
            for record in sample_records() {
                journal.append(record).unwrap();
            }
            journal.append(JournalRecord::Close { session: 1 }).unwrap();
            journal.compact().unwrap();
            // This append must reach the renamed log, not the old inode.
            journal.append(JournalRecord::Ack { session: 0, watermark: 11 }).unwrap();
        }
        assert!(!compact_path(&path).exists(), "compaction leaves no temp file");
        let reopened = SessionJournal::at_path(&path).unwrap();
        assert_eq!(reopened.len(), 5);
        let sessions = reopened.replay().unwrap();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[&0].watermark, 11, "the post-compaction ack survives the reopen");
        drop(reopened);

        // A crash between writing the temp file and the rename leaves the
        // old log in charge; the reopen deletes the leftover.
        std::fs::write(compact_path(&path), "open 9 f m\n").unwrap();
        let reopened = SessionJournal::at_path(&path).unwrap();
        assert!(!compact_path(&path).exists(), "a stale temp file is deleted on reopen");
        assert_eq!(reopened.replay().unwrap(), sessions);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backed_journal_survives_reopen() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let journal = SessionJournal::at_path(&path).unwrap();
            assert!(journal.is_empty());
            for record in sample_records() {
                journal.append(record).unwrap();
            }
        }
        let reopened = SessionJournal::at_path(&path).unwrap();
        assert_eq!(reopened.len(), sample_records().len());
        assert_eq!(reopened.replay().unwrap()[&0].watermark, 9);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_torn_final_record_is_dropped_at_every_cut() {
        let path = temp_path("torn");
        let records = sample_records();
        let n = records.len();
        let full = rendered(&records);
        let start = rendered(&records[..n - 1]).len();
        let extra = JournalRecord::Ack { session: 1, watermark: 4 };
        let before = fold_of(records[..n - 1].to_vec());
        let after = fold_of(records[..n - 1].iter().cloned().chain([extra.clone()]));
        for cut in start..full.len() {
            std::fs::write(&path, &full.as_bytes()[..cut]).unwrap();
            {
                let journal = SessionJournal::at_path(&path).unwrap();
                assert_eq!(journal.len(), n - 1, "cut at {cut}");
                assert_eq!(journal.replay().unwrap(), before, "cut at {cut}");
                assert_eq!(std::fs::metadata(&path).unwrap().len(), start as u64, "cut at {cut}");
                journal.append(extra.clone()).unwrap();
            }
            let journal = SessionJournal::at_path(&path).unwrap();
            assert_eq!(journal.len(), n, "cut at {cut}, then one append");
            assert_eq!(journal.replay().unwrap(), after, "cut at {cut}, then one append");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_bad_complete_line_fails_the_reopen() {
        let path = temp_path("corrupt");
        for bytes in [&b"ack 0 x\nack 0 1\n"[..], b"ack 0 1\nack 0\n", b"ack 0 1\n\xff\nack 0 2\n"]
        {
            std::fs::write(&path, bytes).unwrap();
            assert!(SessionJournal::at_path(&path).is_err(), "{bytes:?} should fail");
            assert_eq!(std::fs::read(&path).unwrap(), bytes, "a failed reopen cuts nothing");
        }
        let mut bytes = b"ack 0 1\n".to_vec();
        bytes.push(0xff);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(SessionJournal::at_path(&path).unwrap().replay().unwrap()[&0].watermark, 1);
        std::fs::remove_file(&path).unwrap();
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Decodes a drawn `(kind, session, a, b, set bits)` into one
        /// journal operation; `None` is a compaction.
        fn op(kind: u8, session: u64, a: u64, b: u64, bits: u8) -> Option<JournalRecord> {
            let set = || (0..4).filter(|i| bits & (1 << i) != 0).collect::<Vec<PseId>>();
            let name = |names: &[&str]| names[b as usize % names.len()].to_string();
            Some(match kind {
                0 => JournalRecord::Open {
                    session,
                    func: name(&["process", "push"]),
                    model: name(&["data-size", "exec-time", "composite"]),
                },
                1 => JournalRecord::PlanCommit {
                    session,
                    epoch: a,
                    active: set(),
                    reason: name(&["initial", "reconfig", "rollback"]),
                },
                2 => JournalRecord::ModelCommit { session, model: name(&["exec-time", "power"]) },
                3 => JournalRecord::Ack { session, watermark: a },
                4 => JournalRecord::Flags { session, mask: a },
                5 => JournalRecord::Guard {
                    session,
                    prior_epoch: a,
                    epoch: a + 1,
                    remaining: b,
                    prior_active: set(),
                },
                6 => JournalRecord::Quarantine { session, ttl: b as u32, active: set() },
                7 => JournalRecord::Close { session },
                _ => return None,
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn the_incremental_fold_equals_a_fold_of_the_file(
                ops in proptest::collection::vec(
                    (0u8..9, 0u64..4, 0u64..6, 0u64..3, any::<u8>()),
                    0..40,
                ),
            ) {
                let path = temp_path("fold-prop");
                let _ = std::fs::remove_file(&path);
                let journal = SessionJournal::at_path(&path).unwrap();
                let mut open = [false; 4];
                let mut appended = Vec::new();
                let mut compacted = false;
                for (kind, session, a, b, bits) in ops {
                    let Some(record) = op(kind, session, a, b, bits) else {
                        journal.compact().unwrap();
                        compacted = true;
                        continue;
                    };
                    // Only opened sessions journal, as in a live manager.
                    let slot = &mut open[session as usize];
                    if !*slot && kind != 0 {
                        let opening = op(0, session, a, b, bits).unwrap();
                        journal.append(opening.clone()).unwrap();
                        appended.push(opening);
                    }
                    *slot = kind != 7;
                    journal.append(record.clone()).unwrap();
                    appended.push(record);
                }
                let live = journal.replay().unwrap();
                let len = journal.len();
                drop(journal);

                let text = std::fs::read_to_string(&path).unwrap();
                if !compacted {
                    prop_assert_eq!(&text, &rendered(&appended));
                }
                let mut reference = BTreeMap::new();
                for line in text.lines() {
                    fold(&mut reference, JournalRecord::parse(line).unwrap());
                }
                prop_assert_eq!(&live, &reference);
                prop_assert_eq!(len, text.lines().count());
                let reopened = SessionJournal::at_path(&path).unwrap();
                prop_assert_eq!(&reopened.replay().unwrap(), &live);
                prop_assert_eq!(reopened.len(), len);
                drop(reopened);
                std::fs::remove_file(&path).unwrap();
            }
        }
    }
}
