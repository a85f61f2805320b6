//! Run-level checkpoint files: full-state snapshots riding the
//! crash-safe [`grococa_journal`] format, and [`run`], the one
//! resume-or-start path that `grococa run` and isolated sweep cells share.
//!
//! A checkpoint file is an ordinary journal whose records carry
//! [`grococa_core`] snapshots (see `grococa run --checkpoint`). Because
//! the journal already checksums every record, fsyncs every append and
//! rolls torn writes back to the last clean prefix, a checkpoint file
//! inherits the whole disk-fault story for free — including the
//! [`crate::CHAOS_JOURNAL_ENV`] chaos harness.
//!
//! Large snapshots (big GroCoca populations carry dense n×n affinity
//! matrices) are split across consecutive records of at most 8 MiB
//! and reassembled on load. A checkpoint is usable only when every
//! chunk landed, so a crash mid-append drops the *whole* in-flight
//! checkpoint and the loader falls back to the previous complete one —
//! never half of one.
//!
//! ```text
//! record payload: seq u64 LE │ chunk u32 LE │ total u32 LE │ bytes
//! ```
//!
//! The loader is a fallback ladder: journal recovery discards a torn
//! tail, reassembly discards incomplete chunk groups, and the complete
//! snapshots are tried newest-first past any whose body fails
//! [`grococa_core::Simulation::resume`] (version or checksum mismatch,
//! structural damage). Only when every rung fails does the run start
//! fresh. What to do when the file belongs to another configuration or
//! cannot be created is the caller's policy: [`run`] reports it as a
//! [`RunError`].

use std::fmt;
use std::path::Path;

use grococa_core::{ResumedSimulation, RunOutput, SimConfig, SimError, Simulation};
use grococa_journal::{FaultScript, FaultyBackend, Fingerprint, Journal, JournalError};
use grococa_par::warn_once;
use grococa_sim::codec;

use crate::CHAOS_JOURNAL_ENV;

/// Maximum snapshot bytes per journal record. Comfortably under the
/// journal's implausible-length ceiling, so a scanner never mistakes a
/// legitimate chunk for corruption.
const CHUNK: usize = 8 << 20;

/// Chunk header bytes: seq u64 + chunk u32 + total u32.
const CHUNK_HEADER: usize = 16;

/// The checkpoint journal fingerprint: the run's canonical config hash,
/// one "cell", this crate's version. Resuming under a different
/// configuration or binary refuses up front instead of replaying state
/// the new code cannot interpret.
fn fingerprint(cfg: &SimConfig) -> Fingerprint {
    Fingerprint {
        config_hash: cfg.canonical_fingerprint(),
        cells: 1,
        version: env!("CARGO_PKG_VERSION").to_string(),
    }
}

/// Splits one snapshot into journal record payloads.
fn encode_chunks(seq: u64, snapshot: &[u8]) -> Vec<Vec<u8>> {
    let total = snapshot.len().div_ceil(CHUNK).max(1) as u32;
    // `chunks` on an empty slice yields nothing; an empty snapshot still
    // needs its one (empty-bodied) record.
    let parts: Vec<&[u8]> = if snapshot.is_empty() {
        vec![&[]]
    } else {
        snapshot.chunks(CHUNK).collect()
    };
    parts
        .iter()
        .enumerate()
        .map(|(i, part)| {
            let mut w = codec::Writer::with_capacity(CHUNK_HEADER + part.len());
            w.u64(seq);
            w.u32(i as u32);
            w.u32(total);
            w.bytes(part);
            w.into_vec()
        })
        .collect()
}

/// Parses one record payload into (seq, chunk, total, body). Total:
/// malformed payloads are `None` and the reassembler skips them.
fn decode_chunk(payload: &[u8]) -> Option<(u64, u32, u32, &[u8])> {
    let mut r = codec::Reader::new(payload);
    let (seq, chunk, total) = (r.u64().ok()?, r.u32().ok()?, r.u32().ok()?);
    if total == 0 || chunk >= total {
        return None;
    }
    Some((seq, chunk, total, r.bytes(r.remaining()).ok()?))
}

/// What [`reassemble`] recovered from a checkpoint journal's records.
struct RecoveredCheckpoints {
    /// Complete snapshots in append order (oldest first), each with its
    /// checkpoint sequence number.
    snapshots: Vec<(u64, Vec<u8>)>,
    /// The sequence number a continued run should stamp next: one past
    /// the newest sequence seen, complete or not.
    next_seq: u64,
}

/// Reassembles complete snapshots from raw journal records. Chunks of
/// one checkpoint are appended consecutively by a single writer, so a
/// linear scan suffices: any gap, reorder or malformed record abandons
/// the group in progress (that checkpoint was torn) and scanning
/// continues with the next group.
fn reassemble(records: &[Vec<u8>]) -> RecoveredCheckpoints {
    let mut snapshots: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut next_seq = 0u64;
    let mut current: Option<(u64, u32, Vec<u8>)> = None; // (seq, total, body)
    for record in records {
        let Some((seq, chunk, total, body)) = decode_chunk(record) else {
            current = None;
            continue;
        };
        next_seq = next_seq.max(seq + 1);
        if chunk == 0 {
            current = Some((seq, total, body.to_vec()));
        } else {
            match &mut current {
                Some((cur_seq, cur_total, parts))
                    if *cur_seq == seq
                        && *cur_total == total
                        && parts.len().div_ceil(CHUNK) == chunk as usize =>
                {
                    parts.extend_from_slice(body);
                }
                _ => current = None,
            }
        }
        let complete = current
            .as_ref()
            .is_some_and(|(_, cur_total, _)| chunk + 1 == *cur_total);
        if complete {
            if let Some((seq, _, body)) = current.take() {
                snapshots.push((seq, body));
            }
        }
    }
    RecoveredCheckpoints {
        snapshots,
        next_seq,
    }
}

/// Walks complete snapshots newest-first and returns the first that
/// restores under `cfg`, warning (once per rung) about any it skips.
/// `None` means every checkpoint was unusable: the caller starts fresh.
fn latest_usable(
    cfg: &SimConfig,
    path: &Path,
    snapshots: &[(u64, Vec<u8>)],
) -> Option<(u64, ResumedSimulation)> {
    for (seq, bytes) in snapshots.iter().rev() {
        match Simulation::resume(cfg.clone(), bytes) {
            Ok(resumed) => return Some((*seq, resumed)),
            Err(e) => warn_once(
                &format!("checkpoint-fallback-{seq}"),
                &format!(
                    "checkpoint {seq} in {} is unusable ({e}); \
                     falling back to an older one",
                    path.display()
                ),
            ),
        }
    }
    None
}

/// The checkpoint sink handed to
/// [`grococa_core::Simulation::try_run_inspect_checkpointed`]. Appends
/// are best-effort: a disk fault warns once, drops the journal and lets
/// the run finish un-checkpointed — a checkpoint is an optimisation and
/// must never kill the simulation it protects.
struct Writer {
    journal: Option<Journal>,
    seq: u64,
}

impl Writer {
    /// Appends one snapshot as a chunked checkpoint. Returns `true` when
    /// every chunk landed durably.
    fn append(&mut self, snapshot: &[u8]) -> bool {
        let Some(journal) = self.journal.as_mut() else {
            return false;
        };
        let seq = self.seq;
        self.seq += 1;
        for payload in encode_chunks(seq, snapshot) {
            if let Err(e) = journal.append(&payload) {
                warn_once(
                    "checkpoint-degrade",
                    &format!(
                        "checkpoint append failed ({e}); continuing WITHOUT \
                         checkpointing — a crash from here on restarts from \
                         the last durable checkpoint"
                    ),
                );
                // A partial chunk group is already rolled back (or will
                // be discarded by reassembly); older complete
                // checkpoints on disk stay usable.
                self.journal = None;
                return false;
            }
        }
        true
    }
}

/// Where a checkpointed [`run`] reads and writes its checkpoints.
#[derive(Debug, Clone, Copy, Default)]
pub struct Files<'a> {
    /// Resume from the newest usable checkpoint in this file. A missing
    /// file, or one without a usable checkpoint, starts fresh with a
    /// warning.
    pub resume: Option<&'a Path>,
    /// Append checkpoints to this file. The resume file keeps its
    /// checkpoints; any other path is created afresh.
    pub write: Option<&'a Path>,
    /// Checkpoint cadence in fired events.
    pub every: u64,
}

/// Why [`run`] could not start, or how its simulation failed.
#[derive(Debug)]
pub enum RunError {
    /// The resume file is not this run's checkpoint journal: another
    /// configuration or binary, or not a journal at all.
    Resume(JournalError),
    /// The checkpoint file could not be created.
    Create(JournalError),
    /// The [`CHAOS_JOURNAL_ENV`] fault script did not parse.
    Chaos(String),
    /// The simulation reported an internal error.
    Sim(SimError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Resume(e) | RunError::Create(e) => write!(f, "{e}"),
            RunError::Chaos(e) => write!(f, "{e}"),
            RunError::Sim(e) => write!(f, "{e}"),
        }
    }
}

/// Runs `cfg` to the end: resumed from the newest usable checkpoint in
/// `files.resume` when there is one, fresh otherwise, and appending a
/// checkpoint to `files.write` every `files.every` events.
/// `on_checkpoint(resumed)` runs after each checkpoint that landed
/// durably; `resumed` says whether this run started from a checkpoint.
///
/// # Errors
///
/// [`RunError::Resume`] and [`RunError::Create`] before any simulation
/// time is spent, [`RunError::Chaos`] for a malformed fault script, and
/// [`RunError::Sim`] when the simulation breaks an invariant.
pub fn run(
    cfg: SimConfig,
    files: Files<'_>,
    on_checkpoint: &mut dyn FnMut(bool),
) -> Result<RunOutput, RunError> {
    let fp = fingerprint(&cfg);
    let mut journal = None;
    let mut next_seq = 0;
    let mut resumed = None;
    if let Some(path) = files.resume {
        if path.exists() {
            let recovered = Journal::open_or_create(path, &fp).map_err(RunError::Resume)?;
            if let Some(warning) = &recovered.warning {
                warn_once("checkpoint-truncated", warning);
            }
            let rec = reassemble(&recovered.records);
            next_seq = rec.next_seq;
            resumed = latest_usable(&cfg, path, &rec.snapshots);
            match &resumed {
                Some((seq, r)) => eprintln!(
                    "note: resuming from checkpoint {seq} in {} \
                     ({} events already simulated)",
                    path.display(),
                    r.events_fired(),
                ),
                None => warn_once(
                    "checkpoint-none",
                    &format!("no usable checkpoint in {}; starting fresh", path.display()),
                ),
            }
            if files.write == Some(path) {
                journal = Some(recovered.journal);
            }
        } else {
            warn_once(
                "checkpoint-missing",
                &format!(
                    "checkpoint {}: no such file; starting fresh",
                    path.display()
                ),
            );
        }
    }
    if journal.is_none() {
        if let Some(path) = files.write {
            journal = Some(Journal::create(path, &fp).map_err(RunError::Create)?);
            next_seq = 0;
        }
    }

    // Chaos seam: scripted disk faults between the checkpoint journal
    // and its file, exactly as for sweep result journals.
    if let (Some(j), Ok(spec)) = (journal.as_mut(), std::env::var(CHAOS_JOURNAL_ENV)) {
        let script = FaultScript::parse(&spec)
            .map_err(|e| RunError::Chaos(format!("{CHAOS_JOURNAL_ENV}={spec:?}: {e}")))?;
        j.wrap_backend(|inner| Box::new(FaultyBackend::new(inner, script)));
    }

    let every = if journal.is_some() { files.every } else { 0 };
    let from_checkpoint = resumed.is_some();
    let mut writer = Writer {
        journal,
        seq: next_seq,
    };
    let mut sink = |bytes: &[u8]| {
        if writer.append(bytes) {
            on_checkpoint(from_checkpoint);
        }
    };
    let result = match resumed {
        Some((_, r)) => r.try_run_inspect_checkpointed(every, &mut sink),
        None => Simulation::new(cfg).try_run_inspect_checkpointed(every, &mut sink),
    };
    result.map(|(out, _)| out).map_err(RunError::Sim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_snapshot_is_one_chunk() {
        let recs = encode_chunks(3, b"hello");
        assert_eq!(recs.len(), 1);
        let (seq, chunk, total, body) = decode_chunk(&recs[0]).expect("decodes");
        assert_eq!((seq, chunk, total, body), (3, 0, 1, &b"hello"[..]));
    }

    #[test]
    fn chunk_payload_bytes_are_pinned() {
        assert_eq!(
            encode_chunks(0x0102_0304_0506_0708, b"hi"),
            [vec![
                8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0, 0, 1, 0, 0, 0, b'h', b'i'
            ]]
        );
    }

    #[test]
    fn chunked_snapshot_reassembles_exactly() {
        let snapshot: Vec<u8> = (0..(CHUNK * 2 + 7)).map(|i| i as u8).collect();
        let recs = encode_chunks(9, &snapshot);
        assert_eq!(recs.len(), 3);
        let rec = reassemble(&recs);
        assert_eq!(rec.next_seq, 10);
        assert_eq!(rec.snapshots.len(), 1);
        assert_eq!(rec.snapshots[0].0, 9);
        assert_eq!(rec.snapshots[0].1, snapshot);
    }

    #[test]
    fn missing_tail_chunk_drops_the_whole_checkpoint() {
        let snapshot = vec![0xAB; CHUNK + 1];
        let mut records = encode_chunks(0, b"old");
        let mut torn = encode_chunks(1, &snapshot);
        torn.pop();
        records.extend(torn);
        let rec = reassemble(&records);
        assert_eq!(rec.snapshots.len(), 1);
        assert_eq!(rec.snapshots[0], (0, b"old".to_vec()));
        // The torn seq still advances the stamp so a continued run never
        // reuses it.
        assert_eq!(rec.next_seq, 2);
    }

    #[test]
    fn malformed_records_are_skipped_not_fatal() {
        let mut records = vec![vec![1, 2, 3]]; // shorter than a header
        records.extend(encode_chunks(4, b"good"));
        records.push(vec![0; CHUNK_HEADER]); // total == 0
        let rec = reassemble(&records);
        assert_eq!(rec.snapshots, vec![(4, b"good".to_vec())]);
    }

    #[test]
    fn interrupted_group_then_fresh_group_recovers() {
        let big = vec![7u8; CHUNK + 5];
        let mut records: Vec<Vec<u8>> = encode_chunks(0, &big)[..1].to_vec();
        records.extend(encode_chunks(1, b"fresh"));
        let rec = reassemble(&records);
        assert_eq!(rec.snapshots, vec![(1, b"fresh".to_vec())]);
        assert_eq!(rec.next_seq, 2);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let recs = encode_chunks(0, b"");
        assert_eq!(recs.len(), 1);
        let rec = reassemble(&recs);
        assert_eq!(rec.snapshots, vec![(0, Vec::new())]);
    }
}
