//! The benchmark's workloads and the correctness gate every run passes
//! through.

use grococa_core::{RunOutput, Scheme, SimConfig};
use grococa_mobility::FieldConfig;
use grococa_sim::SimTime;

/// The seed whose full simulated output is pinned by digest.
pub const DEFAULT_SEED: u64 = 1;

/// One named workload. Why each exists is recorded in the README next
/// to this file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// GroCoca, 400 hosts, Table II defaults.
    GcN400,
    /// COCA over the same population: no directory, no signatures.
    CocaN400,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "gc-n400" => Some(Workload::GcN400),
            "coca-n400" => Some(Workload::CocaN400),
            _ => None,
        }
    }

    /// The simulation configuration for `seed`; `tiny` shrinks the
    /// population and the request count for the benchmark's self-test.
    pub fn config(self, seed: u64, tiny: bool) -> SimConfig {
        let scheme = match self {
            Workload::GcN400 => Scheme::GroCoca,
            Workload::CocaN400 => Scheme::Coca,
        };
        let mut cfg = SimConfig::for_scheme(scheme);
        cfg.seed = seed;
        cfg.num_clients = if tiny { 40 } else { 400 };
        cfg.requests_per_mh = if tiny { 5 } else { 20 };
        cfg
    }

    /// The pinned output digest at [`DEFAULT_SEED`].
    pub fn pinned_digest(self, tiny: bool) -> u64 {
        match (self, tiny) {
            (Workload::GcN400, false) => 0x9d2c_913c_4aba_861a,
            (Workload::CocaN400, false) => 0x275a_a11e_c0be_2e43,
            (Workload::GcN400, true) => 0x1031_c829_433b_39e8,
            (Workload::CocaN400, true) => 0xbffb_9e05_b07c_33b4,
        }
    }
}

/// The mobility configuration a simulation builds from `cfg`, so replays
/// see the same host positions as the run they replay.
pub fn field_config(cfg: &SimConfig) -> FieldConfig {
    FieldConfig {
        model: cfg.motion_model,
        width: cfg.space.0,
        height: cfg.space.1,
        v_min: cfg.speed.0,
        v_max: cfg.speed.1,
        pause: SimTime::from_secs(1),
        group_size: cfg.group_size,
        group_radius: cfg.group_radius,
    }
}

/// FNV-1a over the full simulated output: every `Report` field by bit
/// pattern, the event count and the fault counters.
pub fn digest(out: &RunOutput) -> u64 {
    let r = &out.report;
    let mut words: Vec<u64> = vec![
        r.completed,
        r.access_latency_ms.to_bits(),
        r.latency_stddev_ms.to_bits(),
        r.local_hit_ratio_pct.to_bits(),
        r.global_hit_ratio_pct.to_bits(),
        r.server_request_ratio_pct.to_bits(),
        r.push_hit_ratio_pct.to_bits(),
        r.tcg_share_of_global_pct.to_bits(),
        r.total_power_uws.to_bits(),
        r.power_per_gch_uws.to_bits(),
        r.power_per_request_uws.to_bits(),
        r.signature_messages,
        r.signature_bytes,
        r.search_timeouts,
        r.filter_bypasses,
        r.validations,
        out.events,
    ];
    let f = &out.fault_stats;
    words.extend([
        f.p2p_lost,
        f.corrupted,
        f.departures,
        f.outage_drops,
        f.beacons_lost,
        f.search_retries,
        f.retrieve_retries,
        f.server_retries,
        f.delegation_retransmits,
        f.solo_entries,
        f.solo_exits,
        f.solo_skips,
        f.stale_serves,
    ]);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Deliberate faults the self-test injects to prove the gate trips.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tamper {
    None,
    /// Expect a digest one bit off the pinned one.
    Digest,
    /// Flip one byte of the mid-run snapshot before resuming from it.
    Resume,
}

/// Collects correctness failures and the operation count of a run.
/// An operation is one recorded request; any failed check fails every
/// operation of the run.
pub struct Gate {
    target: u64,
    attempted: u64,
    unfinished: u64,
    reference: Option<u64>,
    pub failures: Vec<String>,
}

impl Gate {
    pub fn new(cfg: &SimConfig) -> Self {
        Gate {
            target: cfg.requests_per_mh * cfg.num_clients as u64,
            attempted: 0,
            unfinished: 0,
            reference: None,
            failures: Vec::new(),
        }
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Accounts one complete run and checks it ran cleanly to target and
    /// produced the same output as every other run of this process.
    pub fn run(&mut self, label: &str, out: &RunOutput) {
        self.attempted += self.target;
        self.unfinished += self.target.saturating_sub(out.report.completed);
        let d = digest(out);
        self.check(out.audit.is_clean(), || {
            format!("{label}: audit not clean: {:?}", out.audit)
        });
        let target = self.target;
        self.check(out.report.completed == target, || {
            format!(
                "{label}: completed {} of {target} requests",
                out.report.completed
            )
        });
        match self.reference {
            None => self.reference = Some(d),
            Some(r) => self.check(d == r, || {
                format!("{label}: output digest {d:016x} differs from the first run's {r:016x}")
            }),
        }
    }

    /// Checks that a run which is not itself accounted (a resumed or a
    /// traced run) produced the accounted runs' output.
    pub fn same_output(&mut self, label: &str, out: &RunOutput) {
        let d = digest(out);
        let r = self.reference;
        self.check(out.audit.is_clean(), || {
            format!("{label}: audit not clean: {:?}", out.audit)
        });
        self.check(Some(d) == r, || {
            format!(
                "{label}: output digest {d:016x} differs from the uninterrupted run's {r:016x?}"
            )
        });
    }

    /// The digest of the first run accounted.
    pub fn reference(&self) -> Option<u64> {
        self.reference
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn attempted(&self) -> u64 {
        self.attempted.max(self.target)
    }

    pub fn failed(&self) -> u64 {
        if self.ok() {
            self.unfinished
        } else {
            self.attempted()
        }
    }
}
