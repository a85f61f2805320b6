//! An append-only, fsync-on-append write-ahead result journal.
//!
//! Long parameter sweeps (the paper's Figures 2–8 grids) lose every
//! completed cell if the process is killed, because results live only in
//! memory until the final render. This crate makes each completed cell
//! durable the moment it finishes: the sweep harness appends one
//! length-prefixed, checksummed record per cell and the file is fsync'd
//! before the cell is considered done, so a `kill -9` forfeits at most the
//! cells that were still in flight.
//!
//! # On-disk format
//!
//! ```text
//! header:  magic "GCJRNL1\n" (8)  │ config_hash u64 LE │ cells u64 LE
//!          │ version_len u32 LE │ version bytes │ header_checksum u64 LE
//! record:  len u32 LE │ payload (len bytes) │ checksum u64 LE
//! record:  ...
//! ```
//!
//! * The **header** fingerprints the sweep: the canonical configuration
//!   hash, the grid shape (total cell count) and the producing crate
//!   version. [`Journal::open_or_create`] refuses to resume when the
//!   fingerprint does not match — a journal written by different sweep
//!   arguments (or a different code version) must never seed a resume.
//! * Every **record** carries the [`checksum`] of its payload. On open, records are scanned in order; the first truncated
//!   or corrupt record ends the scan, the damaged tail is discarded (the
//!   file is truncated back to the last intact record) and a warning
//!   describes what was dropped. A crash mid-append therefore costs at
//!   most the record being written, never the journal.
//! * Payload bytes are the caller's business; the journal stores and
//!   returns them verbatim.
//!
//! Header and record framing are written with [`grococa_sim::codec`],
//! the workspace's one binary codec, and [`checksum`] is that codec's
//! checksum. The crate performs no I/O beyond the journal file itself;
//! the pure [`encode_record`] / [`scan_records`] / [`encode_header`] /
//! [`decode_header`] helpers are exposed so property tests can drive the
//! framing adversarially without touching a filesystem.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use grococa_sim::codec::{checksum, DecodeError, Reader, Writer};

/// The 8-byte magic prefix of every journal file (versioned: a future
/// incompatible format bumps the trailing digit).
pub const MAGIC: &[u8; 8] = b"GCJRNL1\n";

/// Upper bound on a single record's payload. A corrupt length prefix must
/// not make the reader attempt a multi-gigabyte allocation; sweep-cell
/// records are a few hundred bytes, so 16 MiB is generous headroom.
pub const MAX_RECORD_LEN: u32 = 16 << 20;

/// What a journal header asserts about the sweep that wrote it. Two
/// journals are interchangeable exactly when their fingerprints are equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Canonical hash of the sweep's full configuration (base config,
    /// swept parameter, value list — whatever the producer deems
    /// identity-defining).
    pub config_hash: u64,
    /// Total cells in the sweep grid.
    pub cells: u64,
    /// Version of the producing crate; a rebuilt binary with different
    /// simulation behaviour must not silently resume an old journal.
    pub version: String,
}

/// Everything that can go wrong creating, opening or appending to a
/// journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An underlying filesystem operation failed.
    Io(String),
    /// The file exists but is not a (readable) journal: bad magic, or a
    /// header too damaged to trust. Resume is refused because the
    /// fingerprint cannot be verified.
    NotAJournal(String),
    /// The header decoded cleanly but belongs to a different sweep.
    FingerprintMismatch {
        /// The fingerprint recorded in the file.
        found: Fingerprint,
        /// The fingerprint of the sweep attempting to resume.
        expected: Fingerprint,
    },
    /// An append failed with a classified disk fault.
    Append(AppendError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::NotAJournal(why) => {
                write!(
                    f,
                    "not a usable journal ({why}); delete the file to start over"
                )
            }
            JournalError::FingerprintMismatch { found, expected } => write!(
                f,
                "journal fingerprint mismatch: file was written by \
                 config_hash={:#018x}, cells={}, version={} but this sweep is \
                 config_hash={:#018x}, cells={}, version={} — refusing to resume",
                found.config_hash,
                found.cells,
                found.version,
                expected.config_hash,
                expected.cells,
                expected.version
            ),
            JournalError::Append(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for JournalError {}

fn io_err(e: std::io::Error) -> JournalError {
    JournalError::Io(e.to_string())
}

/// The classified failure of one journal append — the typed taxonomy the
/// sweep harness uses to decide between aborting the sweep and degrading
/// to un-journaled execution (`--keep-going`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppendError {
    /// The filesystem is out of space (ENOSPC, or quota exhausted). The
    /// append was rolled back; the journal prefix on disk stays clean.
    DiskFull(String),
    /// The record write failed for any other reason (EIO, short write,
    /// revoked handle). The append was rolled back.
    WriteFailed(String),
    /// The record bytes were written but could not be made durable
    /// (fsync failed); the record was rolled back rather than left in a
    /// may-or-may-not-survive-a-crash limbo.
    SyncFailed(String),
    /// The append failed **and** truncating the file back to the last
    /// clean record also failed, so the on-disk tail may be torn. The
    /// journal is now wedged and refuses further appends; the prefix up
    /// to the last clean record is still readable on resume (the scanner
    /// discards the torn tail).
    RollbackFailed(String),
    /// Append refused without touching the file: an earlier rollback
    /// failure wedged this journal.
    Wedged,
}

impl fmt::Display for AppendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AppendError::DiskFull(e) => write!(f, "journal append: disk full ({e})"),
            AppendError::WriteFailed(e) => write!(f, "journal append: write failed ({e})"),
            AppendError::SyncFailed(e) => write!(f, "journal append: fsync failed ({e})"),
            AppendError::RollbackFailed(e) => {
                write!(
                    f,
                    "journal append failed and rollback failed ({e}); journal is wedged"
                )
            }
            AppendError::Wedged => {
                write!(
                    f,
                    "journal is wedged by an earlier rollback failure; append refused"
                )
            }
        }
    }
}

impl std::error::Error for AppendError {}

impl From<AppendError> for JournalError {
    fn from(e: AppendError) -> Self {
        JournalError::Append(e)
    }
}

/// Whether an I/O error means the disk (or quota) is out of space.
fn is_disk_full(e: &std::io::Error) -> bool {
    matches!(e.raw_os_error(), Some(28) | Some(122))
        || matches!(
            e.kind(),
            std::io::ErrorKind::StorageFull | std::io::ErrorKind::QuotaExceeded
        )
}

fn classify_write(e: std::io::Error) -> AppendError {
    if is_disk_full(&e) {
        AppendError::DiskFull(e.to_string())
    } else {
        AppendError::WriteFailed(e.to_string())
    }
}

fn classify_sync(e: std::io::Error) -> AppendError {
    if is_disk_full(&e) {
        AppendError::DiskFull(e.to_string())
    } else {
        AppendError::SyncFailed(e.to_string())
    }
}

/// Encodes a header for `fp` (magic through header checksum).
pub fn encode_header(fp: &Fingerprint) -> Vec<u8> {
    let mut w = Writer::with_capacity(8 + 8 + 8 + 4 + fp.version.len() + 8);
    w.bytes(MAGIC);
    w.u64(fp.config_hash);
    w.u64(fp.cells);
    w.str(&fp.version);
    let sum = checksum(w.as_slice());
    w.u64(sum);
    w.into_vec()
}

/// Decodes a header from the front of `bytes`, returning the fingerprint
/// and the header's encoded length. Total: corrupt input yields an error,
/// never a panic.
///
/// # Errors
///
/// Returns a human-readable description of the first structural problem
/// (short file, wrong magic, truncated field, non-UTF-8 version,
/// checksum mismatch).
pub fn decode_header(bytes: &[u8]) -> Result<(Fingerprint, usize), String> {
    let mut r = Reader::new(bytes);
    let magic = r
        .bytes(MAGIC.len())
        .map_err(|_| "file is shorter than the journal magic".to_string())?;
    if magic != MAGIC {
        return Err(format!("bad magic {magic:?}"));
    }
    let field = |e: DecodeError| format!("header: {e}");
    let config_hash = r.u64().map_err(field)?;
    let cells = r.u64().map_err(field)?;
    let version = r.str().map_err(field)?.to_string();
    let covered = r.pos();
    if r.u64().map_err(field)? != checksum(&bytes[..covered]) {
        return Err("header checksum mismatch".to_string());
    }
    Ok((
        Fingerprint {
            config_hash,
            cells,
            version,
        },
        r.pos(),
    ))
}

/// Encodes one record: length prefix, payload, payload checksum.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(4 + payload.len() + 8);
    w.u32(payload.len() as u32);
    w.bytes(payload);
    w.u64(checksum(payload));
    w.into_vec()
}

/// The result of scanning a record region: the intact payload prefix, how
/// many bytes of it were consumed, and — if the scan stopped early — a
/// description of the damage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan {
    /// Payloads of every intact record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes consumed by the intact prefix (a valid truncation point).
    pub consumed: usize,
    /// Why the scan stopped before the end of the input, if it did.
    pub damage: Option<String>,
}

/// Scans `bytes` (the region after the header) for records. Total: any
/// byte string yields a valid prefix plus an optional damage description —
/// truncation and corruption are data, not panics.
pub fn scan_records(bytes: &[u8]) -> Scan {
    let mut records = Vec::new();
    let mut r = Reader::new(bytes);
    let mut at = 0usize;
    let damage = loop {
        if r.remaining() == 0 {
            break None;
        }
        let Ok(len) = r.u32() else {
            break Some(format!("truncated length prefix at offset {at}"));
        };
        if len > MAX_RECORD_LEN {
            break Some(format!("implausible record length {len} at offset {at}"));
        }
        let (Ok(payload), Ok(stored)) = (r.bytes(len as usize), r.u64()) else {
            break Some(format!("truncated record at offset {at}"));
        };
        if stored != checksum(payload) {
            break Some(format!("record checksum mismatch at offset {at}"));
        }
        records.push(payload.to_vec());
        at = r.pos();
    };
    Scan {
        records,
        consumed: at,
        damage,
    }
}

/// The pure recovery computation behind [`Journal::open_or_create`]:
/// what an existing journal byte-image yields on resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// Payloads of every intact record, in append order.
    pub records: Vec<Vec<u8>>,
    /// Length of the clean prefix (header + intact records) — the valid
    /// truncation point for further appends.
    pub keep: usize,
    /// Why a damaged tail past `keep` was discarded, if one exists.
    pub damage: Option<String>,
}

/// Validates `bytes` as a journal for `fp` and scans its records. Pure
/// and total over arbitrary input: property tests drive this directly
/// against in-memory backends, and [`Journal::open_or_create`] is a thin
/// filesystem shell around it.
///
/// # Errors
///
/// [`JournalError::NotAJournal`] when the header is unreadable,
/// [`JournalError::FingerprintMismatch`] when it belongs to a different
/// sweep.
pub fn recover(bytes: &[u8], fp: &Fingerprint) -> Result<Recovery, JournalError> {
    let (found, header_len) = decode_header(bytes).map_err(JournalError::NotAJournal)?;
    if found != *fp {
        return Err(JournalError::FingerprintMismatch {
            found,
            expected: fp.clone(),
        });
    }
    let scan = scan_records(&bytes[header_len..]);
    Ok(Recovery {
        records: scan.records,
        keep: header_len + scan.consumed,
        damage: scan.damage,
    })
}

/// The journal's storage seam: the three primitives every append needs.
///
/// Production uses [`FileBackend`]; tests swap in [`MemBackend`] (pure
/// in-memory) or [`FaultyBackend`] (scripted fault injection at any
/// append boundary) so every disk-fault path is exercised without
/// needing a real full disk.
pub trait Backend: fmt::Debug + Send {
    /// Appends `bytes` at the current position (all-or-error semantics
    /// are NOT guaranteed by the backend — the journal rolls back).
    fn write_all_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Makes previously written bytes durable.
    fn sync_data(&mut self) -> std::io::Result<()>;
    /// Truncates the store to `len` bytes and repositions the append
    /// cursor there.
    fn truncate_to(&mut self, len: u64) -> std::io::Result<()>;
}

/// The production backend: a real file, fsync'd per append.
#[derive(Debug)]
pub struct FileBackend {
    file: File,
}

impl Backend for FileBackend {
    fn write_all_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        self.file.sync_data()
    }

    fn truncate_to(&mut self, len: u64) -> std::io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len))?;
        Ok(())
    }
}

/// An in-memory backend over a shared buffer. Clones share the buffer,
/// so a test can keep a [`MemBackend::handle`] while the journal owns
/// the backend, and inspect the "disk" image at any point.
#[derive(Debug, Clone, Default)]
pub struct MemBackend {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemBackend {
    /// A fresh, empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A second handle onto the same underlying buffer.
    pub fn handle(&self) -> MemBackend {
        self.clone()
    }

    /// A snapshot of the current store contents.
    pub fn contents(&self) -> Vec<u8> {
        self.buf.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }
}

impl Backend for MemBackend {
    fn write_all_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.buf
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn truncate_to(&mut self, len: u64) -> std::io::Result<()> {
        self.buf
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .truncate(len as usize);
        Ok(())
    }
}

/// Which fault a [`FaultyBackend`] injects when its operation counter
/// hits the scripted index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Fail with ENOSPC (raw OS error 28) without writing anything.
    DiskFull,
    /// Fail with an EIO-style error without writing anything.
    Eio,
    /// Write only the first half of the bytes, then fail — a torn
    /// record, the worst case for the on-disk format.
    ShortWrite,
    /// Let writes through; fail the durability sync instead.
    SyncFail,
}

impl FaultMode {
    fn error(self) -> std::io::Error {
        match self {
            FaultMode::DiskFull => std::io::Error::from_raw_os_error(28),
            FaultMode::Eio => std::io::Error::other("injected EIO"),
            FaultMode::ShortWrite => std::io::Error::other("injected short write"),
            FaultMode::SyncFail => std::io::Error::other("injected fsync failure"),
        }
    }
}

/// A scripted fault: which I/O operation fails (writes and syncs share
/// one counter, starting at 0) and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultScript {
    /// The 0-based operation index at which to inject.
    pub fail_op: u64,
    /// The failure to inject.
    pub mode: FaultMode,
    /// When true, every operation from `fail_op` on fails (a disk that
    /// stays full); when false, only the one operation fails.
    pub persist: bool,
    /// When true, rollback truncation also fails — forcing the journal
    /// into its wedged state.
    pub fail_rollback: bool,
}

impl FaultScript {
    /// Parses the `GROCOCA_CHAOS_JOURNAL` spec `<mode>:<op>[:persist]`
    /// where mode is `full`, `eio`, `short` or `sync`.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first malformed field.
    pub fn parse(spec: &str) -> Result<FaultScript, String> {
        let mut parts = spec.split(':');
        let mode = match parts.next().unwrap_or("") {
            "full" => FaultMode::DiskFull,
            "eio" => FaultMode::Eio,
            "short" => FaultMode::ShortWrite,
            "sync" => FaultMode::SyncFail,
            other => {
                return Err(format!(
                    "unknown fault mode {other:?} (full|eio|short|sync)"
                ))
            }
        };
        let fail_op = parts
            .next()
            .ok_or("missing operation index (expected <mode>:<op>[:persist])")?
            .parse::<u64>()
            .map_err(|e| format!("bad operation index: {e}"))?;
        let persist = match parts.next() {
            None => false,
            Some("persist") => true,
            Some(other) => return Err(format!("unknown trailing field {other:?}")),
        };
        if let Some(extra) = parts.next() {
            return Err(format!("unexpected trailing field {extra:?}"));
        }
        Ok(FaultScript {
            fail_op,
            mode,
            persist,
            fail_rollback: false,
        })
    }
}

/// A backend that injects one scripted fault into an inner backend —
/// the chaos seam for proving every append boundary degrades cleanly.
#[derive(Debug)]
pub struct FaultyBackend {
    inner: Box<dyn Backend>,
    script: FaultScript,
    ops: u64,
}

impl FaultyBackend {
    /// Wraps `inner`, injecting per `script`.
    pub fn new(inner: Box<dyn Backend>, script: FaultScript) -> Self {
        FaultyBackend {
            inner,
            script,
            ops: 0,
        }
    }

    fn due(&mut self) -> bool {
        let op = self.ops;
        self.ops += 1;
        op == self.script.fail_op || (self.script.persist && op > self.script.fail_op)
    }
}

impl Backend for FaultyBackend {
    fn write_all_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        if self.due() {
            match self.script.mode {
                FaultMode::SyncFail => self.inner.write_all_bytes(bytes),
                FaultMode::ShortWrite => {
                    self.inner.write_all_bytes(&bytes[..bytes.len() / 2])?;
                    Err(self.script.mode.error())
                }
                mode => Err(mode.error()),
            }
        } else {
            self.inner.write_all_bytes(bytes)
        }
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        if self.due() && self.script.mode != FaultMode::ShortWrite {
            Err(self.script.mode.error())
        } else {
            self.inner.sync_data()
        }
    }

    fn truncate_to(&mut self, len: u64) -> std::io::Result<()> {
        if self.script.fail_rollback {
            Err(std::io::Error::other("injected rollback failure"))
        } else {
            self.inner.truncate_to(len)
        }
    }
}

/// The placeholder swapped in during [`Journal::wrap_backend`]; never
/// performs I/O.
#[derive(Debug)]
struct NullBackend;

impl Backend for NullBackend {
    fn write_all_bytes(&mut self, _bytes: &[u8]) -> std::io::Result<()> {
        Ok(())
    }

    fn sync_data(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn truncate_to(&mut self, _len: u64) -> std::io::Result<()> {
        Ok(())
    }
}

/// Checks that the filesystem holding `path` can absorb roughly
/// `estimated_bytes` more journal data, by writing, syncing and deleting
/// a probe file of that size next to the journal. Advisory: a disk can
/// still fill later, but this catches the "started a six-hour sweep on a
/// full disk" case before any cell runs.
///
/// # Errors
///
/// The classified [`AppendError`] the probe write hit.
pub fn preflight_space(path: &Path, estimated_bytes: u64) -> Result<(), AppendError> {
    let probe_path = {
        let mut os = path.as_os_str().to_os_string();
        os.push(".preflight");
        PathBuf::from(os)
    };
    let result = (|| {
        let mut probe = File::create(&probe_path).map_err(classify_write)?;
        let chunk = vec![0u8; 64 * 1024];
        let mut left = estimated_bytes;
        while left > 0 {
            let take = left.min(chunk.len() as u64) as usize;
            probe.write_all(&chunk[..take]).map_err(classify_write)?;
            left -= take as u64;
        }
        probe.sync_data().map_err(classify_sync)
    })();
    std::fs::remove_file(&probe_path).ok();
    result
}

/// An open journal positioned for appending.
#[derive(Debug)]
pub struct Journal {
    backend: Box<dyn Backend>,
    path: PathBuf,
    /// Length of the clean prefix: header plus every fully-appended,
    /// fully-synced record. The rollback target after a failed append.
    clean_len: u64,
    /// Set when a rollback failed: the tail past `clean_len` may be torn
    /// and further appends are refused.
    wedged: bool,
}

/// What [`Journal::open_or_create`] found on disk.
#[derive(Debug)]
pub struct Recovered {
    /// The journal, positioned at the end of the intact prefix.
    pub journal: Journal,
    /// Payloads of every intact record already in the file.
    pub records: Vec<Vec<u8>>,
    /// A warning describing a discarded damaged tail, if one was found.
    pub warning: Option<String>,
}

impl Journal {
    /// Creates (or truncates) the journal at `path`, writing and syncing
    /// the header for `fp`.
    ///
    /// # Errors
    ///
    /// Returns [`JournalError::Io`] if the file cannot be created or
    /// written.
    pub fn create(path: &Path, fp: &Fingerprint) -> Result<Journal, JournalError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(io_err)?;
        let journal = Journal::with_backend(Box::new(FileBackend { file }), path, fp)?;
        Ok(journal)
    }

    /// Creates a fresh journal over an arbitrary [`Backend`] (writes and
    /// syncs the header for `fp`). `path` is a diagnostic label only —
    /// no filesystem I/O happens outside the backend.
    ///
    /// # Errors
    ///
    /// The classified [`AppendError`] if the header cannot be written.
    pub fn with_backend(
        mut backend: Box<dyn Backend>,
        path: &Path,
        fp: &Fingerprint,
    ) -> Result<Journal, AppendError> {
        let header = encode_header(fp);
        backend.write_all_bytes(&header).map_err(classify_write)?;
        backend.sync_data().map_err(classify_sync)?;
        Ok(Journal {
            backend,
            path: path.to_path_buf(),
            clean_len: header.len() as u64,
            wedged: false,
        })
    }

    /// Resumes a journal over an arbitrary [`Backend`] whose store
    /// already holds a clean prefix of `keep` bytes (as computed by
    /// [`recover`]): the store is truncated back to `keep` and appends
    /// continue from there.
    ///
    /// # Errors
    ///
    /// The classified [`AppendError`] if the truncation fails.
    pub fn resume_with_backend(
        mut backend: Box<dyn Backend>,
        path: &Path,
        keep: u64,
    ) -> Result<Journal, AppendError> {
        backend
            .truncate_to(keep)
            .map_err(|e| AppendError::WriteFailed(e.to_string()))?;
        Ok(Journal {
            backend,
            path: path.to_path_buf(),
            clean_len: keep,
            wedged: false,
        })
    }

    /// Replaces this journal's backend with `wrap(old_backend)` — the
    /// injection point for [`FaultyBackend`] chaos over a real file.
    pub fn wrap_backend(&mut self, wrap: impl FnOnce(Box<dyn Backend>) -> Box<dyn Backend>) {
        let inner = std::mem::replace(&mut self.backend, Box::new(NullBackend));
        self.backend = wrap(inner);
    }

    /// Opens the journal at `path` for resuming, or creates a fresh one if
    /// the file is missing or empty.
    ///
    /// The header must carry exactly `fp` — any mismatch refuses resume.
    /// Record scanning is tail-tolerant: the first truncated or corrupt
    /// record ends the intact prefix, the file is truncated back to it and
    /// [`Recovered::warning`] says what was discarded.
    ///
    /// # Errors
    ///
    /// [`JournalError::NotAJournal`] if the header is unreadable,
    /// [`JournalError::FingerprintMismatch`] if it belongs to a different
    /// sweep, [`JournalError::Io`] on filesystem failures.
    pub fn open_or_create(path: &Path, fp: &Fingerprint) -> Result<Recovered, JournalError> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err(e)),
        };
        if bytes.is_empty() {
            return Ok(Recovered {
                journal: Journal::create(path, fp)?,
                records: Vec::new(),
                warning: None,
            });
        }
        let recovery = recover(&bytes, fp)?;
        let warning = recovery.damage.map(|why| {
            format!(
                "journal {}: discarding {} damaged byte(s) past record {} ({why})",
                path.display(),
                bytes.len() - recovery.keep,
                recovery.records.len(),
            )
        });
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(io_err)?;
        if warning.is_some() {
            file.set_len(recovery.keep as u64).map_err(io_err)?;
            file.sync_all().map_err(io_err)?;
        }
        file.seek(SeekFrom::Start(recovery.keep as u64))
            .map_err(io_err)?;
        Ok(Recovered {
            journal: Journal {
                backend: Box::new(FileBackend { file }),
                path: path.to_path_buf(),
                clean_len: recovery.keep as u64,
                wedged: false,
            },
            records: recovery.records,
            warning,
        })
    }

    /// Appends one record and fsyncs before returning: once `append` is
    /// back, the record survives a kill or power cut.
    ///
    /// On failure the file is rolled back to the last clean record, so a
    /// torn write never pollutes the readable prefix; if the rollback
    /// itself fails the journal **wedges** (refuses further appends —
    /// the scanner still recovers the clean prefix on resume).
    ///
    /// # Errors
    ///
    /// The classified [`AppendError`]: disk-full, write, sync, rollback
    /// failure, or a refusal because the journal is already wedged.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), AppendError> {
        if self.wedged {
            return Err(AppendError::Wedged);
        }
        let bytes = encode_record(payload);
        let outcome = self
            .backend
            .write_all_bytes(&bytes)
            .map_err(classify_write)
            .and_then(|()| self.backend.sync_data().map_err(classify_sync));
        match outcome {
            Ok(()) => {
                self.clean_len += bytes.len() as u64;
                Ok(())
            }
            Err(failure) => {
                if let Err(rollback) = self.backend.truncate_to(self.clean_len) {
                    self.wedged = true;
                    return Err(AppendError::RollbackFailed(format!(
                        "{failure}; then truncate to {}: {rollback}",
                        self.clean_len
                    )));
                }
                // Best-effort durability for the truncation itself; the
                // scanner tolerates a tail that reappears after a crash.
                self.backend.sync_data().ok();
                Err(failure)
            }
        }
    }

    /// Whether a failed rollback has wedged this journal (appends are
    /// refused; the on-disk clean prefix remains valid for resume).
    pub fn is_wedged(&self) -> bool {
        self.wedged
    }

    /// The journal's path (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> Fingerprint {
        Fingerprint {
            config_hash: 0xDEAD_BEEF_0123_4567,
            cells: 9,
            version: "0.1.0".to_string(),
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("grococa-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    #[test]
    fn header_round_trips() {
        let bytes = encode_header(&fp());
        let (decoded, len) = decode_header(&bytes).expect("decodes");
        assert_eq!(decoded, fp());
        assert_eq!(len, bytes.len());
    }

    #[test]
    fn header_and_record_bytes_are_pinned() {
        let mut want = b"GCJRNL1\n".to_vec();
        want.extend([0x67, 0x45, 0x23, 0x01, 0xEF, 0xBE, 0xAD, 0xDE]); // config_hash
        want.extend([9, 0, 0, 0, 0, 0, 0, 0]); // cells
        want.extend([5, 0, 0, 0]); // version length
        want.extend(b"0.1.0");
        want.extend([0x3A, 0xE7, 0xC2, 0x37, 0xDA, 0x21, 0x94, 0x4E]); // checksum
        assert_eq!(encode_header(&fp()), want);

        let mut want = vec![3, 0, 0, 0];
        want.extend(b"abc");
        want.extend([0x62, 0x98, 0xA2, 0xBB, 0x56, 0xBC, 0x04, 0x8C]);
        assert_eq!(encode_record(b"abc"), want);
    }

    #[test]
    fn header_rejects_bad_magic_and_truncation() {
        let mut bytes = encode_header(&fp());
        for cut in 0..bytes.len() {
            assert!(decode_header(&bytes[..cut]).is_err(), "cut={cut}");
        }
        bytes[0] ^= 0xFF;
        assert!(decode_header(&bytes).unwrap_err().contains("magic"));
    }

    #[test]
    fn header_rejects_any_flipped_byte() {
        let good = encode_header(&fp());
        for at in 0..good.len() {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            assert!(decode_header(&bad).is_err(), "flip at {at} accepted");
        }
    }

    #[test]
    fn records_round_trip() {
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![1, 2, 3], vec![0xAB; 200]];
        let mut bytes = Vec::new();
        for p in &payloads {
            bytes.extend_from_slice(&encode_record(p));
        }
        let scan = scan_records(&bytes);
        assert_eq!(scan.records, payloads);
        assert_eq!(scan.consumed, bytes.len());
        assert!(scan.damage.is_none());
    }

    #[test]
    fn truncated_tail_keeps_valid_prefix() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&encode_record(b"first"));
        let keep = bytes.len();
        bytes.extend_from_slice(&encode_record(b"second"));
        for cut in keep..bytes.len() {
            let scan = scan_records(&bytes[..cut]);
            assert_eq!(scan.records, vec![b"first".to_vec()], "cut={cut}");
            assert_eq!(scan.consumed, keep);
            // `cut == keep` is a cleanly-ended file, not a damaged one.
            assert_eq!(scan.damage.is_some(), cut > keep, "cut={cut}");
        }
    }

    #[test]
    fn implausible_length_is_damage_not_allocation() {
        let mut bytes = (u32::MAX).to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0; 64]);
        let scan = scan_records(&bytes);
        assert!(scan.records.is_empty());
        assert!(scan.damage.expect("damaged").contains("implausible"));
    }

    #[test]
    fn file_create_append_reopen() {
        let path = temp_path("roundtrip.gcj");
        let mut j = Journal::create(&path, &fp()).expect("create");
        j.append(b"cell-0").expect("append");
        j.append(b"cell-1").expect("append");
        drop(j);
        let rec = Journal::open_or_create(&path, &fp()).expect("open");
        assert_eq!(rec.records, vec![b"cell-0".to_vec(), b"cell-1".to_vec()]);
        assert!(rec.warning.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_after_append_continues_the_log() {
        let path = temp_path("continue.gcj");
        Journal::create(&path, &fp())
            .expect("create")
            .append(b"a")
            .expect("append");
        let mut rec = Journal::open_or_create(&path, &fp()).expect("open");
        rec.journal.append(b"b").expect("append");
        let rec = Journal::open_or_create(&path, &fp()).expect("reopen");
        assert_eq!(rec.records, vec![b"a".to_vec(), b"b".to_vec()]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_tail_is_truncated_on_open() {
        let path = temp_path("corrupt.gcj");
        let mut j = Journal::create(&path, &fp()).expect("create");
        j.append(b"keep-me").expect("append");
        j.append(b"doomed").expect("append");
        drop(j);
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 3;
        bytes[last] ^= 0x01;
        std::fs::write(&path, &bytes).expect("write corruption");
        let rec = Journal::open_or_create(&path, &fp()).expect("open survives");
        assert_eq!(rec.records, vec![b"keep-me".to_vec()]);
        assert!(rec.warning.expect("warned").contains("discarding"));
        // The damaged tail is gone from disk; a further append then a
        // clean reopen sees exactly [keep-me, after].
        let mut j = rec.journal;
        j.append(b"after").expect("append");
        let rec = Journal::open_or_create(&path, &fp()).expect("reopen");
        assert_eq!(rec.records, vec![b"keep-me".to_vec(), b"after".to_vec()]);
        assert!(rec.warning.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_refuses_resume() {
        let path = temp_path("mismatch.gcj");
        Journal::create(&path, &fp()).expect("create");
        let other = Fingerprint { cells: 12, ..fp() };
        let err = Journal::open_or_create(&path, &other).expect_err("must refuse");
        assert!(matches!(err, JournalError::FingerprintMismatch { .. }));
        assert!(err.to_string().contains("refusing to resume"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_file_is_not_a_journal() {
        let path = temp_path("garbage.gcj");
        std::fs::write(&path, b"this is not a journal at all").expect("write");
        let err = Journal::open_or_create(&path, &fp()).expect_err("must refuse");
        assert!(matches!(err, JournalError::NotAJournal(_)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_starts_fresh() {
        let path = temp_path("fresh.gcj");
        std::fs::remove_file(&path).ok();
        let rec = Journal::open_or_create(&path, &fp()).expect("creates");
        assert!(rec.records.is_empty());
        assert!(rec.warning.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mem_backend_round_trips_through_recover() {
        let mem = MemBackend::new();
        let handle = mem.handle();
        let mut j =
            Journal::with_backend(Box::new(mem), Path::new("mem.gcj"), &fp()).expect("create");
        j.append(b"one").expect("append");
        j.append(b"two").expect("append");
        let rec = recover(&handle.contents(), &fp()).expect("recovers");
        assert_eq!(rec.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(rec.damage.is_none());
        assert_eq!(rec.keep, handle.contents().len());
    }

    #[test]
    fn disk_full_append_is_classified_and_rolled_back() {
        let mem = MemBackend::new();
        let handle = mem.handle();
        let mut j =
            Journal::with_backend(Box::new(mem), Path::new("mem.gcj"), &fp()).expect("create");
        j.append(b"survivor").expect("append");
        let before = handle.contents();
        // Ops so far: header write, header sync, record write, record
        // sync. The next write is op 4.
        j.wrap_backend(|inner| {
            Box::new(FaultyBackend::new(
                inner,
                FaultScript {
                    fail_op: 0,
                    mode: FaultMode::DiskFull,
                    persist: false,
                    fail_rollback: false,
                },
            ))
        });
        let err = j.append(b"doomed").expect_err("disk full");
        assert!(matches!(err, AppendError::DiskFull(_)), "{err}");
        assert_eq!(
            handle.contents(),
            before,
            "rollback must restore the prefix"
        );
        assert!(!j.is_wedged());
        // The disk "recovers" (one-shot fault): the journal keeps working.
        j.append(b"after").expect("append succeeds again");
        let rec = recover(&handle.contents(), &fp()).expect("recovers");
        assert_eq!(rec.records, vec![b"survivor".to_vec(), b"after".to_vec()]);
    }

    #[test]
    fn short_write_tail_is_rolled_back() {
        let mem = MemBackend::new();
        let handle = mem.handle();
        let mut j =
            Journal::with_backend(Box::new(mem), Path::new("mem.gcj"), &fp()).expect("create");
        j.append(b"keep").expect("append");
        let before = handle.contents();
        j.wrap_backend(|inner| {
            Box::new(FaultyBackend::new(
                inner,
                FaultScript {
                    fail_op: 0,
                    mode: FaultMode::ShortWrite,
                    persist: false,
                    fail_rollback: false,
                },
            ))
        });
        let err = j.append(b"torn-record-payload").expect_err("short write");
        assert!(matches!(err, AppendError::WriteFailed(_)), "{err}");
        assert_eq!(
            handle.contents(),
            before,
            "torn bytes must be truncated away"
        );
    }

    #[test]
    fn sync_failure_is_classified_and_rolled_back() {
        let mem = MemBackend::new();
        let handle = mem.handle();
        let mut j =
            Journal::with_backend(Box::new(mem), Path::new("mem.gcj"), &fp()).expect("create");
        let before = handle.contents();
        j.wrap_backend(|inner| {
            Box::new(FaultyBackend::new(
                inner,
                FaultScript {
                    // Op 0 is the record write (passes), op 1 the sync.
                    fail_op: 1,
                    mode: FaultMode::SyncFail,
                    persist: false,
                    fail_rollback: false,
                },
            ))
        });
        let err = j.append(b"unsynced").expect_err("sync fails");
        assert!(matches!(err, AppendError::SyncFailed(_)), "{err}");
        assert_eq!(handle.contents(), before, "unsynced record must not linger");
    }

    #[test]
    fn failed_rollback_wedges_the_journal() {
        let mem = MemBackend::new();
        let handle = mem.handle();
        let mut j =
            Journal::with_backend(Box::new(mem), Path::new("mem.gcj"), &fp()).expect("create");
        j.append(b"clean").expect("append");
        j.wrap_backend(|inner| {
            Box::new(FaultyBackend::new(
                inner,
                FaultScript {
                    fail_op: 0,
                    mode: FaultMode::ShortWrite,
                    persist: false,
                    fail_rollback: true,
                },
            ))
        });
        let err = j.append(b"doomed").expect_err("append fails");
        assert!(matches!(err, AppendError::RollbackFailed(_)), "{err}");
        assert!(j.is_wedged());
        assert_eq!(j.append(b"refused"), Err(AppendError::Wedged));
        // The torn tail stayed on "disk", but the scanner still recovers
        // the clean prefix.
        let rec = recover(&handle.contents(), &fp()).expect("recovers");
        assert_eq!(rec.records, vec![b"clean".to_vec()]);
        assert!(rec.damage.is_some(), "torn tail is reported as damage");
    }

    #[test]
    fn fault_script_parses_the_chaos_spec() {
        assert_eq!(
            FaultScript::parse("full:4"),
            Ok(FaultScript {
                fail_op: 4,
                mode: FaultMode::DiskFull,
                persist: false,
                fail_rollback: false,
            })
        );
        assert_eq!(
            FaultScript::parse("short:0:persist").map(|s| (s.mode, s.persist)),
            Ok((FaultMode::ShortWrite, true))
        );
        for bad in [
            "",
            "bogus:1",
            "full",
            "full:x",
            "full:1:zzz",
            "eio:1:persist:extra",
        ] {
            assert!(FaultScript::parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn persistent_disk_full_keeps_failing_but_prefix_survives() {
        let mem = MemBackend::new();
        let handle = mem.handle();
        let mut j =
            Journal::with_backend(Box::new(mem), Path::new("mem.gcj"), &fp()).expect("create");
        j.append(b"pre-outage").expect("append");
        j.wrap_backend(|inner| {
            Box::new(FaultyBackend::new(
                inner,
                FaultScript {
                    fail_op: 0,
                    mode: FaultMode::DiskFull,
                    persist: true,
                    fail_rollback: false,
                },
            ))
        });
        for _ in 0..3 {
            let err = j.append(b"never-lands").expect_err("stays full");
            assert!(matches!(err, AppendError::DiskFull(_)), "{err}");
        }
        let rec = recover(&handle.contents(), &fp()).expect("recovers");
        assert_eq!(rec.records, vec![b"pre-outage".to_vec()]);
        assert!(rec.damage.is_none());
    }

    #[test]
    fn preflight_passes_on_a_healthy_disk_and_cleans_up() {
        let path = temp_path("preflight.gcj");
        preflight_space(&path, 256 * 1024).expect("healthy disk");
        let mut probe = path.as_os_str().to_os_string();
        probe.push(".preflight");
        assert!(!Path::new(&probe).exists(), "probe file must be deleted");
    }

    #[test]
    fn resume_with_backend_continues_from_the_clean_prefix() {
        let mem = MemBackend::new();
        let handle = mem.handle();
        let mut j =
            Journal::with_backend(Box::new(mem), Path::new("mem.gcj"), &fp()).expect("create");
        j.append(b"a").expect("append");
        drop(j);
        // Simulate a torn tail the scanner will discard.
        let mut image = handle.contents();
        let keep = image.len() as u64;
        image.extend_from_slice(&[0x7F; 5]);
        let dirty = MemBackend::new();
        dirty.buf.lock().unwrap().extend_from_slice(&image);
        let dirty_handle = dirty.handle();
        let rec = recover(&dirty_handle.contents(), &fp()).expect("recovers");
        assert_eq!(rec.keep as u64, keep);
        let mut resumed = Journal::resume_with_backend(Box::new(dirty), Path::new("mem.gcj"), keep)
            .expect("resume");
        resumed.append(b"b").expect("append");
        let rec = recover(&dirty_handle.contents(), &fp()).expect("recovers");
        assert_eq!(rec.records, vec![b"a".to_vec(), b"b".to_vec()]);
        assert!(rec.damage.is_none());
    }
}
