//! The process-isolation worker protocol (`--isolate`).
//!
//! In isolation mode each sweep cell runs in a re-exec'd child: the
//! parent spawns its own executable with the original sweep argv plus
//! two protocol env vars — [`WORKER_CELL_ENV`] (the cell index) and
//! [`WORKER_FPRINT_ENV`] (the canonical sweep fingerprint, `{:016x}`).
//! The child re-derives the grid from the argv, verifies the
//! fingerprint (so a parent/child binary or argv skew can never produce
//! a silently-wrong cell), runs exactly that cell, and writes the
//! standard journal payload ([`cells::encode_ok`]) to stdout.
//!
//! Because the cell is a real process, the parent can **enforce** the
//! limits thread mode can only observe: a cell overrunning its
//! wall-clock deadline or RSS ceiling (sampled from `/proc/<pid>/statm`)
//! is `kill()`ed and quarantined as a real deadline/oom
//! [`grococa_par::JobFailure`]. Healthy cells return byte-identical
//! reports to thread mode — the payload codec is exact — so `--isolate`
//! changes failure semantics, never results.

use std::io::Write as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use grococa_core::{Report, Simulation};
use grococa_par::{payload_text, AttemptFailure, FailureKind};

use crate::args::{parse_args, Command as CliCommand};
use crate::cells::{self, CellRecord};
use crate::chaos_cells;
use crate::checkpoint::{self, RunError};
use crate::drain::DRAIN;

/// Env var carrying the cell index a re-exec'd worker must run. Its
/// presence is what switches the binary into worker mode.
pub const WORKER_CELL_ENV: &str = "GROCOCA_WORKER_CELL";

/// Env var carrying the parent's sweep fingerprint (`{:016x}` of the
/// canonical config hash); the worker refuses to run on a mismatch.
pub const WORKER_FPRINT_ENV: &str = "GROCOCA_WORKER_FPRINT";

/// Chaos hook: comma-separated cell indices that loop forever inside
/// the worker instead of simulating — the target for deadline-kill
/// tests. Only honoured in isolation mode (a thread-mode hang would be
/// unkillable by design).
pub const CHAOS_HANG_ENV: &str = "GROCOCA_CHAOS_HANG_CELLS";

/// Chaos hook: comma-separated cell indices that allocate without bound
/// inside the worker — the target for RSS-ceiling-kill tests.
pub const CHAOS_BLOAT_ENV: &str = "GROCOCA_CHAOS_BLOAT_CELLS";

/// Env var carrying the worker's per-cell checkpoint journal path
/// (set by the parent from `--checkpoint DIR`).
pub const WORKER_CKPT_ENV: &str = "GROCOCA_WORKER_CKPT";

/// Env var carrying the worker's checkpoint cadence in events.
pub const WORKER_CKPT_EVERY_ENV: &str = "GROCOCA_WORKER_CKPT_EVERY";

/// Chaos hook: comma-separated cell indices whose worker exits abruptly
/// (no unwinding, like a kill) right after its *first* checkpoint lands
/// durably — but only when the run started fresh, so the supervised
/// retry deterministically exercises the resume-from-checkpoint path.
pub const CHAOS_CKPT_CRASH_ENV: &str = "GROCOCA_CHAOS_CKPT_CRASH";

/// Exit code of the chaos crash-after-checkpoint hook: distinct from
/// success, panic (101) and protocol violations (96).
pub const CHAOS_CKPT_CRASH_EXIT: i32 = 27;

/// The checkpoint journal path for one sweep cell under `dir`.
pub(crate) fn cell_checkpoint_path(dir: &std::path::Path, cell: usize) -> std::path::PathBuf {
    dir.join(format!("cell-{cell}.gcc"))
}

/// Exit code a worker uses for protocol violations (unparsable argv,
/// fingerprint mismatch, out-of-range cell): distinct from both success
/// and the Rust panic exit (101) so the parent can tell "the cell is
/// broken" from "the harness is broken".
pub const WORKER_PROTOCOL_EXIT: u8 = 96;

/// The cell index from [`WORKER_CELL_ENV`], if this process was
/// launched as an isolation worker.
pub fn worker_cell_from_env() -> Option<usize> {
    std::env::var(WORKER_CELL_ENV).ok()?.trim().parse().ok()
}

/// Worker-mode entry point: runs `cell` of the sweep described by
/// `argv` and returns the process exit code (0 on success, 101 on a
/// panicking cell, [`WORKER_PROTOCOL_EXIT`] on protocol violations).
pub fn run_worker(cell: usize, argv: &[String]) -> u8 {
    match run_worker_inner(cell, argv) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("worker protocol error: {message}");
            WORKER_PROTOCOL_EXIT
        }
    }
}

fn run_worker_inner(cell: usize, argv: &[String]) -> Result<u8, String> {
    let cli = parse_args(argv).map_err(|e| format!("argv: {e}"))?;
    let CliCommand::Sweep {
        base,
        param,
        values,
        ..
    } = &cli.command
    else {
        return Err("invoked for a non-sweep command".to_string());
    };
    let grid = crate::build_cells(base, param, values).map_err(|e| e.to_string())?;
    let fp = cells::sweep_fingerprint(base, param, values, grid.len());
    let mine = format!("{:016x}", fp.config_hash);
    let parents = std::env::var(WORKER_FPRINT_ENV).unwrap_or_default();
    if parents != mine {
        return Err(format!(
            "sweep fingerprint mismatch: parent {parents:?}, worker {mine:?}"
        ));
    }
    let Some((_, _, cfg)) = grid.get(cell) else {
        return Err(format!("cell {cell} out of range ({} cells)", grid.len()));
    };
    if chaos_cells(CHAOS_HANG_ENV).contains(&cell) {
        // A cell that never finishes: the deadline-kill target.
        loop {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
    if chaos_cells(CHAOS_BLOAT_ENV).contains(&cell) {
        // A cell whose RSS grows without bound: the oom-kill target.
        // Paced so the parent's sampling loop catches it near the
        // ceiling rather than gigabytes past it.
        let mut hog: Vec<Vec<u8>> = Vec::new();
        loop {
            hog.push(vec![0xA5; 4 << 20]);
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let chaos_fail = chaos_cells(crate::CHAOS_ENV);
    let cfg = cfg.clone();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        assert!(
            !chaos_fail.contains(&cell),
            "chaos hook: injected panic for sweep cell {cell}"
        );
        run_cell(cfg, cell)
    }));
    match outcome {
        Ok(Ok(report)) => {
            let payload = cells::encode_ok(cell, &report);
            let mut stdout = std::io::stdout().lock();
            stdout
                .write_all(&payload)
                .and_then(|()| stdout.flush())
                .map_err(|e| format!("writing result payload: {e}"))?;
            Ok(0)
        }
        Ok(Err(message)) => {
            eprintln!("simulation error: {message}");
            Ok(101)
        }
        Err(payload) => {
            eprintln!("{}", payload_text(payload.as_ref()));
            Ok(101)
        }
    }
}

/// Runs one cell's simulation, resuming from and writing to the per-cell
/// checkpoint journal when the parent configured one ([`WORKER_CKPT_ENV`]).
///
/// Checkpointing here is pure optimisation and every failure around it
/// degrades: a stale or corrupt checkpoint file is recycled, an
/// uncreatable journal means the cell simply runs un-checkpointed. The
/// one thing that must never happen is a cell failing *because of* its
/// checkpoint.
fn run_cell(cfg: grococa_core::SimConfig, cell: usize) -> Result<Report, String> {
    let path = std::env::var(WORKER_CKPT_ENV)
        .ok()
        .filter(|p| !p.is_empty())
        .map(std::path::PathBuf::from);
    let Some(path) = path else {
        return Ok(Simulation::new(cfg).run().report);
    };
    let every: u64 = std::env::var(WORKER_CKPT_EVERY_ENV)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(crate::args::DEFAULT_CHECKPOINT_EVERY);
    let files = checkpoint::Files {
        resume: Some(&path),
        write: Some(&path),
        every,
    };
    let crash_after_first = chaos_cells(CHAOS_CKPT_CRASH_ENV).contains(&cell);
    let mut on_checkpoint = |resumed: bool| {
        if crash_after_first && !resumed {
            // Simulates a mid-run kill with one checkpoint durable; the
            // supervised retry must resume, not restart.
            eprintln!("chaos hook: cell {cell} exiting after first durable checkpoint");
            std::process::exit(CHAOS_CKPT_CRASH_EXIT); // tidy:allow(exit-discipline): the chaos hook must die abruptly mid-run, like the kill it stands in for
        }
    };
    let result = match checkpoint::run(cfg.clone(), files, &mut on_checkpoint) {
        Err(RunError::Resume(e)) => {
            // A leftover file from another sweep shape or binary:
            // recycle it rather than refusing the cell.
            eprintln!(
                "warning: cell {cell} checkpoint {} unusable ({e}); recreating",
                path.display()
            );
            std::fs::remove_file(&path).ok();
            checkpoint::run(cfg.clone(), files, &mut on_checkpoint)
        }
        other => other,
    };
    let result = match result {
        Err(e @ (RunError::Create(_) | RunError::Chaos(_))) => {
            eprintln!(
                "warning: cell {cell} cannot checkpoint to {} ({e}); \
                 running without checkpointing",
                path.display()
            );
            checkpoint::run(cfg, checkpoint::Files::default(), &mut on_checkpoint)
        }
        other => other,
    };
    result.map(|out| out.report).map_err(|e| e.to_string())
}

/// Enforced limits for one isolated cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct Isolation {
    /// Wall-clock deadline; overrunning children are killed.
    pub deadline: Option<Duration>,
    /// RSS ceiling in bytes; children sampled above it are killed.
    pub mem_limit_bytes: Option<u64>,
}

/// The child's resident set size, sampled from `/proc/<pid>/statm`
/// (field 2, resident pages × the standard 4 KiB page). `None` off
/// Linux or once the process is gone — enforcement simply skips the
/// sample rather than guessing.
fn rss_bytes(pid: u32) -> Option<u64> {
    let statm = std::fs::read_to_string(format!("/proc/{pid}/statm")).ok()?;
    let resident_pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(resident_pages * 4096)
}

/// Runs one cell in a re-exec'd child, enforcing `iso` and drain
/// escalation; the supervision pool's attempt runner for `--isolate`.
///
/// # Errors
///
/// An [`AttemptFailure`] classifying the kill (deadline, oom,
/// drain-kill) or the child's own failure (panic exit, protocol
/// violation, malformed payload).
pub(crate) fn attempt_isolated(
    cell: usize,
    fingerprint_hash: u64,
    iso: &Isolation,
    checkpoint: Option<(&std::path::Path, u64)>,
) -> Result<Report, AttemptFailure> {
    let exe = std::env::current_exe()
        .map_err(|e| AttemptFailure::panic(format!("locating worker executable: {e}")))?;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = Command::new(exe);
    cmd.args(&argv)
        .env(WORKER_CELL_ENV, cell.to_string())
        .env(WORKER_FPRINT_ENV, format!("{fingerprint_hash:016x}"))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    match checkpoint {
        Some((dir, every)) => {
            cmd.env(WORKER_CKPT_ENV, cell_checkpoint_path(dir, cell))
                .env(WORKER_CKPT_EVERY_ENV, every.to_string());
        }
        None => {
            // Never let a stale ambient env turn checkpointing on.
            cmd.env_remove(WORKER_CKPT_ENV)
                .env_remove(WORKER_CKPT_EVERY_ENV);
        }
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| AttemptFailure::panic(format!("spawning worker: {e}")))?;
    let started = Instant::now();
    let mut enforced: Option<(FailureKind, String)> = None;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) => {}
            Err(e) => {
                child.kill().ok();
                enforced = Some((FailureKind::Panic, format!("polling worker: {e}")));
                break;
            }
        }
        if DRAIN.escalated() {
            child.kill().ok();
            enforced = Some((
                FailureKind::DrainKilled,
                "killed by drain escalation (second shutdown signal)".to_string(),
            ));
            break;
        }
        if let Some(deadline) = iso.deadline {
            if started.elapsed() > deadline {
                child.kill().ok();
                enforced = Some((
                    FailureKind::Deadline,
                    format!(
                        "killed after exceeding the {:.1}s cell deadline",
                        deadline.as_secs_f64()
                    ),
                ));
                break;
            }
        }
        if let Some(limit) = iso.mem_limit_bytes {
            if let Some(rss) = rss_bytes(child.id()) {
                if rss > limit {
                    child.kill().ok();
                    enforced = Some((
                        FailureKind::MemLimit,
                        format!(
                            "killed at {} MiB resident, over the {} MiB ceiling",
                            rss >> 20,
                            limit >> 20
                        ),
                    ));
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let output = child
        .wait_with_output()
        .map_err(|e| AttemptFailure::panic(format!("collecting worker output: {e}")))?;
    if let Some((kind, message)) = enforced {
        return Err(AttemptFailure { kind, message });
    }
    if output.status.success() {
        match cells::decode(&output.stdout) {
            Some((index, CellRecord::Ok(report))) if index == cell => Ok(report),
            _ => Err(AttemptFailure::panic(
                "worker exited 0 but returned a malformed result payload".to_string(),
            )),
        }
    } else {
        let stderr = String::from_utf8_lossy(&output.stderr);
        let detail = stderr.trim();
        let code = output
            .status
            .code()
            .map_or_else(|| "on a signal".to_string(), |c| format!("{c}"));
        Err(AttemptFailure::panic(format!(
            "worker exited {code}: {}",
            if detail.is_empty() {
                "(no stderr)"
            } else {
                detail
            }
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_cell_env_parses() {
        // Uses the raw parser contract, not the ambient environment (the
        // test harness must never appear to be a worker).
        assert_eq!("7".trim().parse::<usize>().ok(), Some(7));
        assert!(worker_cell_from_env().is_none() || std::env::var(WORKER_CELL_ENV).is_ok());
    }

    #[test]
    fn rss_of_self_is_plausible() {
        let rss = rss_bytes(std::process::id());
        if let Some(bytes) = rss {
            // A running test binary holds at least a page and under a TiB.
            assert!(bytes >= 4096, "{bytes}");
            assert!(bytes < (1 << 40), "{bytes}");
        }
    }

    #[test]
    fn non_sweep_argv_is_a_protocol_error() {
        let argv: Vec<String> = ["run", "--clients", "10"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(run_worker(0, &argv), WORKER_PROTOCOL_EXIT);
    }

    #[test]
    fn out_of_range_cell_is_a_protocol_error() {
        let argv: Vec<String> = [
            "sweep",
            "--param",
            "theta",
            "--values",
            "0.5",
            "--clients",
            "10",
            "--requests",
            "10",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        assert_eq!(run_worker(999, &argv), WORKER_PROTOCOL_EXIT);
    }
}
