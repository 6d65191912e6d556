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
//! the semantics of an append-only log.

use std::fmt::Write as _;
use std::fs::OpenOptions;
use std::io::Write as _;
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

/// Renders an active set as `2,5` (or `-` when empty).
fn render_set(active: &[PseId]) -> String {
    let mut set = String::new();
    for (i, pse) in active.iter().enumerate() {
        if i > 0 {
            set.push(',');
        }
        let _ = write!(set, "{pse}");
    }
    if set.is_empty() {
        set.push('-');
    }
    set
}

impl JournalRecord {
    /// Renders the record as one journal line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            JournalRecord::Open { session, func, model } => {
                format!("open {session} {func} {model}")
            }
            JournalRecord::PlanCommit { session, epoch, active, reason } => {
                format!("plan {session} {epoch} {} {reason}", render_set(active))
            }
            JournalRecord::ModelCommit { session, model } => format!("model {session} {model}"),
            JournalRecord::Ack { session, watermark } => format!("ack {session} {watermark}"),
            JournalRecord::Flags { session, mask } => format!("flags {session} {mask}"),
            JournalRecord::Guard { session, prior_epoch, epoch, remaining, prior_active } => {
                format!(
                    "guard {session} {prior_epoch} {epoch} {remaining} {}",
                    render_set(prior_active)
                )
            }
            JournalRecord::Quarantine { session, ttl, active } => {
                format!("quar {session} {ttl} {}", render_set(active))
            }
            JournalRecord::Close { session } => format!("close {session}"),
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

/// Parses a `2,5` / `-` active-set field.
fn parse_set(set: &str) -> Result<Vec<PseId>, &'static str> {
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

/// The append-only session journal. In-memory always; file-backed when
/// opened with [`SessionJournal::at_path`] (each append is written
/// through immediately so a crash loses at most the record in flight).
#[derive(Debug)]
pub struct SessionJournal {
    path: Option<PathBuf>,
    lines: Mutex<Vec<String>>,
}

impl SessionJournal {
    /// A journal kept only in memory (tests, benches).
    pub fn in_memory() -> Self {
        SessionJournal { path: None, lines: Mutex::new(Vec::new()) }
    }

    /// A journal backed by `path`, loading any records already there —
    /// this is both "create" and "reopen after crash".
    pub fn at_path(path: impl AsRef<Path>) -> Result<Self, IrError> {
        let path = path.as_ref().to_path_buf();
        let mut lines = Vec::new();
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for line in text.lines().filter(|l| !l.trim().is_empty()) {
                    JournalRecord::parse(line)?;
                    lines.push(line.to_string());
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(IrError::Invalid(format!("journal {}: {e}", path.display()))),
        }
        Ok(SessionJournal { path: Some(path), lines: Mutex::new(lines) })
    }

    /// The backing path, if file-backed.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Appends one record (write-through when file-backed). I/O errors
    /// surface as [`IrError::Invalid`]; the in-memory copy is kept either
    /// way so a transiently unwritable disk degrades, not corrupts.
    pub fn append(&self, record: JournalRecord) -> Result<(), IrError> {
        let line = record.render();
        let mut lines = self.lines.lock().expect("journal poisoned");
        lines.push(line.clone());
        if let Some(path) = &self.path {
            let mut file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| IrError::Invalid(format!("journal {}: {e}", path.display())))?;
            writeln!(file, "{line}")
                .map_err(|e| IrError::Invalid(format!("journal {}: {e}", path.display())))?;
        }
        Ok(())
    }

    /// Records appended (or loaded) so far.
    pub fn len(&self) -> usize {
        self.lines.lock().expect("journal poisoned").len()
    }

    /// Whether the journal holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parses every retained line back into records, in append order.
    pub fn records(&self) -> Result<Vec<JournalRecord>, IrError> {
        self.lines
            .lock()
            .expect("journal poisoned")
            .iter()
            .map(|l| JournalRecord::parse(l))
            .collect()
    }

    /// Folds the log into per-session snapshots (last write wins),
    /// ordered by session id.
    pub fn replay(&self) -> Result<std::collections::BTreeMap<u64, SessionSnapshot>, IrError> {
        let mut sessions = std::collections::BTreeMap::new();
        for record in self.records()? {
            match record {
                JournalRecord::Open { session, func, model } => {
                    let snap: &mut SessionSnapshot = sessions.entry(session).or_default();
                    snap.func = func;
                    snap.model = model;
                }
                JournalRecord::PlanCommit { session, epoch, active, reason } => {
                    let snap: &mut SessionSnapshot = sessions.entry(session).or_default();
                    snap.epoch = epoch;
                    snap.active = active;
                    snap.reason = reason;
                }
                JournalRecord::ModelCommit { session, model } => {
                    sessions.entry(session).or_default().model = model;
                }
                JournalRecord::Ack { session, watermark } => {
                    let snap: &mut SessionSnapshot = sessions.entry(session).or_default();
                    snap.watermark = snap.watermark.max(watermark);
                }
                JournalRecord::Flags { session, mask } => {
                    sessions.entry(session).or_default().flags = mask;
                }
                JournalRecord::Guard { session, prior_epoch, epoch, remaining, prior_active } => {
                    let snap: &mut SessionSnapshot = sessions.entry(session).or_default();
                    snap.guard = (remaining > 0).then_some(GuardSnapshot {
                        prior_epoch,
                        epoch,
                        remaining,
                        prior_active,
                    });
                }
                JournalRecord::Quarantine { session, ttl, active } => {
                    let snap: &mut SessionSnapshot = sessions.entry(session).or_default();
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
        Ok(sessions)
    }

    /// Rewrites the log to the folded live set: every closed or
    /// migrated-away session's records vanish, and each live session
    /// folds to a handful of lines (`open`/`plan`/`ack`/`flags`, plus a
    /// `guard` line for an open canary window and one `quar` line per
    /// quarantine entry — the exact snapshot [`SessionJournal::replay`]
    /// would produce, with default-valued `ack 0` / `flags 0` lines and
    /// closed guards elided). The backing
    /// file, when present, is rewritten atomically-enough for a single
    /// writer (truncate + write). Returns the number of lines dropped.
    pub fn compact(&self) -> Result<usize, IrError> {
        let sessions = self.replay()?;
        let mut compacted = Vec::with_capacity(sessions.len() * 4);
        for (session, snap) in &sessions {
            compacted.push(
                JournalRecord::Open {
                    session: *session,
                    func: snap.func.clone(),
                    model: snap.model.clone(),
                }
                .render(),
            );
            compacted.push(
                JournalRecord::PlanCommit {
                    session: *session,
                    epoch: snap.epoch,
                    active: snap.active.clone(),
                    reason: if snap.reason.is_empty() {
                        "compact".into()
                    } else {
                        snap.reason.clone()
                    },
                }
                .render(),
            );
            if snap.watermark > 0 {
                compacted.push(
                    JournalRecord::Ack { session: *session, watermark: snap.watermark }.render(),
                );
            }
            if snap.flags > 0 {
                compacted
                    .push(JournalRecord::Flags { session: *session, mask: snap.flags }.render());
            }
            if let Some(guard) = &snap.guard {
                compacted.push(
                    JournalRecord::Guard {
                        session: *session,
                        prior_epoch: guard.prior_epoch,
                        epoch: guard.epoch,
                        remaining: guard.remaining,
                        prior_active: guard.prior_active.clone(),
                    }
                    .render(),
                );
            }
            for (active, ttl) in &snap.quarantined {
                compacted.push(
                    JournalRecord::Quarantine {
                        session: *session,
                        ttl: *ttl,
                        active: active.clone(),
                    }
                    .render(),
                );
            }
        }
        let mut lines = self.lines.lock().expect("journal poisoned");
        let dropped = lines.len().saturating_sub(compacted.len());
        *lines = compacted;
        if let Some(path) = &self.path {
            let mut text = String::new();
            for line in lines.iter() {
                text.push_str(line);
                text.push('\n');
            }
            std::fs::write(path, text)
                .map_err(|e| IrError::Invalid(format!("journal {}: {e}", path.display())))?;
        }
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

    #[test]
    fn file_backed_compaction_rewrites_the_log() {
        let path = std::env::temp_dir().join(format!(
            "mpart-journal-compact-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        {
            let journal = SessionJournal::at_path(&path).unwrap();
            for record in sample_records() {
                journal.append(record).unwrap();
            }
            journal.append(JournalRecord::Close { session: 1 }).unwrap();
            journal.compact().unwrap();
        }
        let reopened = SessionJournal::at_path(&path).unwrap();
        assert_eq!(reopened.len(), 4);
        let sessions = reopened.replay().unwrap();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[&0].watermark, 9);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_backed_journal_survives_reopen() {
        let path = std::env::temp_dir().join(format!(
            "mpart-journal-test-{}-{:?}.log",
            std::process::id(),
            std::thread::current().id()
        ));
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
}
