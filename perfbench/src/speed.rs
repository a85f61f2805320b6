//! The host speed probe: two fixed memory-bound kernels timed between the
//! simulator's measurements, so that every time the benchmark reports can
//! be scaled to one reference host speed.
//!
//! The host gives the benchmark a share of a machine whose speed for
//! memory-bound code drifts by up to 2x over minutes as other tenants
//! load it (README.md, "Noise record and bounds"). A simulator run slows
//! with it and so do these kernels; over a run's medians, their ratio
//! drifts about half as much. The kernels
//! depend on nothing in the simulator, so a change to the simulator
//! cannot move them.

use std::hint::black_box;

use crate::measure::{median, timed};

/// The probe time, in seconds, of the reference host every reported time
/// is scaled to (see [`Speed::scale`]).
pub const REFERENCE_PROBE_S: f64 = 0.1;

/// Entries of the table kernel's table: 2 MiB of `u64`, within the L2.
const TABLE_LEN: usize = 1 << 18;
/// Random read-modify-write steps of one table kernel.
const TABLE_STEPS: usize = 5_000_000;
/// Entries of the pointer-chase permutation: 16 MiB of `u32`, beyond the
/// L2 and within the shared L3.
const CHASE_LEN: usize = 1 << 22;
/// Dependent loads of one chase kernel.
const CHASE_STEPS: usize = 500_000;

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Random, data-dependent updates of an L2-sized table.
fn table_kernel() -> u64 {
    let mut table = vec![0u64; TABLE_LEN];
    let mut s = 0x0139_408d_cbbf_7a44u64;
    let mut acc = 0u64;
    for _ in 0..TABLE_STEPS {
        let r = xorshift(&mut s);
        let i = (r as usize) & (TABLE_LEN - 1);
        match r & 3 {
            0 => table[i] = table[i].wrapping_add(r),
            1 => acc ^= table[i],
            _ => acc = acc.wrapping_add(table[i] >> 3),
        }
    }
    acc
}

/// Shuffles a fresh 16 MiB permutation (random writes across it), then
/// follows it for a fixed number of dependent loads.
fn chase_kernel() -> u64 {
    let mut next: Vec<u32> = (0..CHASE_LEN as u32).collect();
    let mut s = 7u64;
    for i in (1..CHASE_LEN).rev() {
        let j = (xorshift(&mut s) as usize) % (i + 1);
        next.swap(i, j);
    }
    let mut p = 0u32;
    for _ in 0..CHASE_STEPS {
        p = next[p as usize];
    }
    u64::from(p)
}

/// The probe readings of one run.
#[derive(Default)]
pub struct Speed {
    probes: Vec<f64>,
    table: Vec<f64>,
    chase: Vec<f64>,
}

impl Speed {
    /// Times both kernels once and records their geometric mean.
    pub fn probe(&mut self) {
        let table = timed(|| black_box(table_kernel())).1;
        let chase = timed(|| black_box(chase_kernel())).1;
        self.table.push(table);
        self.chase.push(chase);
        self.probes.push((table * chase).sqrt());
    }

    /// The median probe of the run, in seconds.
    pub fn probe_s(&self) -> f64 {
        median(&self.probes)
    }

    /// How many probes the run took, and the median time of each kernel.
    pub fn summary(&self) -> String {
        format!(
            "{} speed probes, median {:.6} s (table {:.6} s, chase {:.6} s; reference {REFERENCE_PROBE_S} s)",
            self.probes.len(),
            self.probe_s(),
            median(&self.table),
            median(&self.chase),
        )
    }

    /// `secs` measured on this host, scaled to the reference host:
    /// divided by `(probe / REFERENCE_PROBE_S)^elasticity`, where
    /// `elasticity` is how strongly the timed code slows, in log terms,
    /// when the probe does.
    pub fn scale(&self, secs: f64, elasticity: f64) -> f64 {
        secs * (REFERENCE_PROBE_S / self.probe_s()).powf(elasticity)
    }
}
