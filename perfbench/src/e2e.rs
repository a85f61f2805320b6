//! End-to-end measurement: what a user of the simulator waits for and
//! pays in memory and checkpoint size, with tracing off. Every time is
//! scaled to the reference host speed by the probes taken between the
//! measurements (see `speed`).

use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use grococa_core::{ResumedSimulation, SimConfig, Simulation};

use crate::measure::{median, peak_rss_mb, remaining, reset_peak_rss, timed, Metrics};
use crate::speed::Speed;
use crate::workload::{Gate, Tamper};

/// Timed runs per process: at least this many, however long they take.
const MIN_RUNS: usize = 3;
/// And at most this many, however short.
const MAX_RUNS: usize = 25;
/// `Simulation::new` calls after each timed run; their median is
/// `setup_s`.
const SETUPS_PER_ROUND: usize = 5;
/// `Simulation::resume` and `ResumedSimulation::snapshot` calls after
/// each timed run; their medians are `restore_s` and `snapshot_s`.
const CKPT_PER_ROUND: usize = 2;
/// How strongly runs and constructions slow when the speed probe does:
/// one to one (README.md, "Host speed scaling").
const RUN_ELASTICITY: f64 = 1.0;
/// Restores and re-encodes, which stream the snapshot, slow about half as
/// much in log terms.
const CODEC_ELASTICITY: f64 = 0.5;

/// Builds the world outside the clock and times `Simulation::run` on it.
fn timed_run(cfg: &SimConfig, gate: &mut Gate, label: &str) -> (u64, f64) {
    let sim = Simulation::new(cfg.clone());
    let (out, wall) = timed(|| sim.run());
    gate.run(label, &out);
    (out.events, wall)
}

/// The end-to-end metrics of one workload, measured until `deadline`.
///
/// After the first run, each round is one timed run, a few timed
/// constructions, restores and re-encodes of the mid-run snapshot, and a
/// speed probe. Every time metric is a median over all rounds, so each
/// samples the host over the whole measured stretch, as the probes do.
pub fn measure(cfg: &SimConfig, deadline: Instant, gate: &mut Gate, tamper: Tamper) -> Metrics {
    // The first run comes first in the process, so its peak RSS covers
    // construction and the run only, not buffers of the steps below.
    reset_peak_rss();
    let c = cfg.clone();
    let (sim, first_setup) = timed(move || Simulation::new(c));
    let (out, first_wall) = timed(|| sim.run());
    let peak_rss = peak_rss_mb();
    gate.run("run 1", &out);
    let events = out.events;
    drop(out);

    let mut ckpt = MidRun::take(cfg, events, gate);
    let mut speed = Speed::default();
    speed.probe();
    let mut walls = vec![first_wall];
    let mut setups = vec![first_setup];
    let (mut restores, mut encodes) = (Vec::new(), Vec::new());
    while walls.len() < MAX_RUNS {
        // The resumed run at the end costs about half a run.
        let need = median(&walls) * 1.7 + 2.0;
        if walls.len() >= MIN_RUNS && remaining(deadline) < need {
            break;
        }
        let label = format!("run {}", walls.len() + 1);
        walls.push(timed_run(cfg, gate, &label).1);
        for _ in 0..SETUPS_PER_ROUND {
            let c = cfg.clone();
            setups.push(timed(move || Simulation::new(c)).1);
        }
        if let Some(mid) = ckpt.as_mut() {
            for _ in 0..CKPT_PER_ROUND {
                restores.push(mid.time_restore(gate));
                encodes.push(mid.time_snapshot(gate));
            }
        }
        speed.probe();
    }
    let bytes = ckpt.as_ref().map_or(0, |mid| mid.bytes.len());
    if let Some(mid) = ckpt {
        mid.check_resumed_run(gate, tamper);
    }

    let wall_s = speed.scale(median(&walls), RUN_ELASTICITY);
    let mut m = Metrics::default();
    m.put("wall_s", "s", wall_s);
    m.put("events_per_s", "1/s", events as f64 / wall_s);
    m.put("setup_s", "s", speed.scale(median(&setups), RUN_ELASTICITY));
    m.put("peak_rss_mb", "MB", peak_rss);
    m.put(
        "ckpt_bytes_per_host",
        "B",
        bytes as f64 / cfg.num_clients as f64,
    );
    m.put(
        "snapshot_s",
        "s",
        speed.scale(median(&encodes), CODEC_ELASTICITY),
    );
    m.put(
        "restore_s",
        "s",
        speed.scale(median(&restores), CODEC_ELASTICITY),
    );
    eprintln!(
        "perfbench: {} timed runs (host seconds): {:?}",
        walls.len(),
        walls
            .iter()
            .map(|w| (w * 1e3).round() / 1e3)
            .collect::<Vec<_>>()
    );
    eprintln!(
        "perfbench: {}; host medians: wall {:.6} s, setup {:.8} s, snapshot {:.6} s, restore {:.6} s",
        speed.summary(),
        median(&walls),
        median(&setups),
        median(&encodes),
        median(&restores),
    );
    m
}

/// Cost of checkpointing the run at its midpoint.
pub struct Checkpoint {
    /// Size of the mid-run snapshot.
    pub bytes: usize,
    /// Median `ResumedSimulation::snapshot` time.
    pub snapshot_s: f64,
    /// Median `Simulation::resume` time.
    pub restore_s: f64,
}

/// The unwind payload that ends a run once its mid-run snapshot is out.
struct StopAtSnapshot;

/// Runs `cfg` untimed until `events / 2` fired events and returns the
/// snapshot taken there. The run is then abandoned: the second half
/// would only repeat work the timed runs already measure.
fn mid_snapshot(cfg: &SimConfig, events: u64) -> Option<Vec<u8>> {
    let every = (events / 2).max(1);
    let mut captured = None;
    let sim = Simulation::new(cfg.clone());
    // `resume_unwind` skips the panic hook, so nothing is printed; the
    // sink is the only way out of a run before it completes.
    let _ = panic::catch_unwind(AssertUnwindSafe(|| {
        sim.try_run_inspect_checkpointed(every, &mut |bytes: &[u8]| {
            captured = Some(bytes.to_vec());
            panic::resume_unwind(Box::new(StopAtSnapshot));
        })
    }));
    captured
}

/// The mid-run snapshot of a workload and the state restored from it.
pub struct MidRun {
    cfg: SimConfig,
    bytes: Vec<u8>,
    resumed: ResumedSimulation,
    encoded: bool,
}

impl MidRun {
    /// Takes the mid-run snapshot from an untimed run and restores it;
    /// `None`, with the gate failed, when either step fails.
    pub fn take(cfg: &SimConfig, events: u64, gate: &mut Gate) -> Option<Self> {
        let Some(bytes) = mid_snapshot(cfg, events) else {
            gate.check(false, || "the run emitted no mid-run snapshot".to_string());
            return None;
        };
        match Simulation::resume(cfg.clone(), &bytes) {
            Ok(resumed) => Some(MidRun {
                cfg: cfg.clone(),
                bytes,
                resumed,
                encoded: false,
            }),
            Err(e) => {
                gate.check(false, || format!("restore of the mid-run snapshot: {e}"));
                None
            }
        }
    }

    /// Times one `Simulation::resume` of the snapshot.
    pub fn time_restore(&mut self, gate: &mut Gate) -> f64 {
        let c = self.cfg.clone();
        let (r, secs) = timed(|| Simulation::resume(c, &self.bytes));
        match r {
            Ok(r) => self.resumed = r,
            Err(e) => gate.check(false, || format!("restore of the mid-run snapshot: {e}")),
        }
        secs
    }

    /// Times one `ResumedSimulation::snapshot` of the restored state; the
    /// first must give back the snapshot's bytes.
    pub fn time_snapshot(&mut self, gate: &mut Gate) -> f64 {
        let (again, secs) = timed(|| self.resumed.snapshot());
        if !self.encoded {
            self.encoded = true;
            gate.check(again == self.bytes, || {
                "restore then snapshot is not byte-identical to the snapshot".to_string()
            });
        }
        secs
    }

    /// Checks that the run resumed from the snapshot (one byte flipped
    /// under `Tamper::Resume`) finishes with the uninterrupted run's
    /// output.
    pub fn check_resumed_run(mut self, gate: &mut Gate, tamper: Tamper) {
        drop(self.resumed);
        if tamper == Tamper::Resume {
            let mid = self.bytes.len() / 2;
            self.bytes[mid] ^= 0x5a;
        }
        match Simulation::resume(self.cfg, &self.bytes) {
            Ok(r) => {
                let out = r.run();
                gate.same_output("run resumed from the mid-run snapshot", &out);
            }
            Err(e) => gate.check(false, || format!("resume from the mid-run snapshot: {e}")),
        }
    }
}

/// Takes the mid-run snapshot from an untimed run, times `repeats`
/// restores and re-encodes of it, and checks that the run resumed from it
/// finishes with the uninterrupted run's output.
pub fn checkpoint_costs(
    cfg: &SimConfig,
    events: u64,
    gate: &mut Gate,
    tamper: Tamper,
    repeats: usize,
) -> Checkpoint {
    let mut ckpt = Checkpoint {
        bytes: 0,
        snapshot_s: 0.0,
        restore_s: 0.0,
    };
    let Some(mut mid) = MidRun::take(cfg, events, gate) else {
        return ckpt;
    };
    ckpt.bytes = mid.bytes.len();
    let restores: Vec<f64> = (0..repeats).map(|_| mid.time_restore(gate)).collect();
    let encodes: Vec<f64> = (0..repeats).map(|_| mid.time_snapshot(gate)).collect();
    ckpt.restore_s = median(&restores);
    ckpt.snapshot_s = median(&encodes);
    mid.check_resumed_run(gate, tamper);
    ckpt
}
