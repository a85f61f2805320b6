//! Run-level checkpoint snapshots: a versioned, checksummed,
//! config-fingerprinted codec over the *complete* mutable state of a
//! mid-run [`Simulation`] — scheduler queue, per-host caches and
//! signatures, in-flight protocol state, fault counters, every RNG
//! substream, metrics — such that a run restored from a snapshot
//! continues **byte-identical** to the uninterrupted original.
//!
//! # What is (and is not) in a snapshot
//!
//! The snapshot holds only *history-dependent* state. Everything
//! derivable from the configuration alone — the access pattern, the
//! low-activity mask, channel geometry, directory thresholds, the
//! completion target — is rebuilt deterministically by
//! [`Simulation::new`] on restore and verified against the recorded
//! [`SimConfig::canonical_fingerprint`]. Mobility movers are *warped*:
//! each model advances in pure monotone catch-up steps from
//! construction-seeded owned RNGs, so replaying the movers forward to
//! the snapshot instant consumes exactly the random draws the original
//! run consumed, and every later query agrees bit-for-bit.
//!
//! Two deliberate omissions: the optional [`Tracer`](crate::trace::Tracer)
//! is observational (it never feeds back into the run) and restores as
//! `None`, and the reusable scratch buffers are contentless between
//! events.
//!
//! # Wire format
//!
//! ```text
//! [magic u32][version u32][checksum u64][fingerprint u64][body ...]
//! ```
//!
//! written with [`grococa_sim::codec`], all little-endian. The
//! [`checksum`] covers the fingerprint and body, so corruption anywhere
//! past the version field is detected before any state is touched;
//! decoding never panics on hostile bytes.

use std::rc::Rc;

use grococa_cache::Entry;
use grococa_mobility::{FieldMemo, Vec2};
use grococa_power::PowerMeter;
use grococa_signature::BloomFilter;
use grococa_sim::codec::{checksum, DecodeError, Reader, Writer};
use grococa_sim::{EventId, Scheduler, SchedulerState, SimRng, SimTime, Welford};
use grococa_workload::ItemId;

use crate::config::SimConfig;
use crate::host::{Pending, Phase};
use crate::sim::{Ev, ResumedSimulation, Simulation};
use crate::tcg::MembershipChange;

/// `b"GCKP"` as a little-endian word.
const MAGIC: u32 = 0x504B_4347;
/// Bumped on any wire-format change; old snapshots are refused, never
/// misread. Version 2 moved the checksum to [`checksum`].
const VERSION: u32 = 2;
/// Bytes before the body: magic, version, checksum, fingerprint.
const HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Why a snapshot could not be decoded. Every failure is a clean typed
/// error — a torn or corrupted checkpoint must let the caller fall back
/// to an earlier one, never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Shorter than the fixed header.
    TooShort,
    /// The leading magic word is not a snapshot's.
    BadMagic(u32),
    /// A snapshot from an incompatible codec version.
    BadVersion(u32),
    /// The body checksum does not match: torn write or bit rot.
    ChecksumMismatch,
    /// The snapshot was taken under a different configuration.
    ConfigMismatch {
        /// Fingerprint of the configuration offered for the resume.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// Structurally invalid body (despite a matching checksum).
    Malformed(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "snapshot shorter than its header"),
            SnapshotError::BadMagic(m) => write!(f, "bad snapshot magic {m:#010x}"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot taken under a different configuration \
                 (fingerprint {found:#018x}, resume offers {expected:#018x})"
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Malformed(e.as_str())
    }
}

// ----------------------------------------------------------------------
// Composite codecs
// ----------------------------------------------------------------------

fn put_vec2(w: &mut Writer, p: &Vec2) {
    w.f64(p.x);
    w.f64(p.y);
}

fn get_vec2(r: &mut Reader<'_>) -> Result<Vec2, DecodeError> {
    Ok(Vec2 {
        x: r.f64()?,
        y: r.f64()?,
    })
}

fn put_welford(w: &mut Writer, s: &Welford) {
    w.u64(s.count());
    w.f64(s.mean());
    w.f64(s.m2());
}

fn get_welford(r: &mut Reader<'_>) -> Result<Welford, DecodeError> {
    Ok(Welford::from_parts(r.u64()?, r.f64()?, r.f64()?))
}

fn put_facility(w: &mut Writer, s: (SimTime, u64, u64, u64)) {
    w.time(s.0);
    w.u64(s.1);
    w.u64(s.2);
    w.u64(s.3);
}

fn get_facility(r: &mut Reader<'_>) -> Result<(SimTime, u64, u64, u64), DecodeError> {
    Ok((r.time()?, r.u64()?, r.u64()?, r.u64()?))
}

fn put_membership(w: &mut Writer, c: MembershipChange) {
    match c {
        MembershipChange::Added(p) => {
            w.u8(0);
            w.usize(p);
        }
        MembershipChange::Removed(p) => {
            w.u8(1);
            w.usize(p);
        }
    }
}

fn get_membership(r: &mut Reader<'_>) -> Result<MembershipChange, SnapshotError> {
    match r.u8()? {
        0 => Ok(MembershipChange::Added(r.usize()?)),
        1 => Ok(MembershipChange::Removed(r.usize()?)),
        _ => Err(SnapshotError::Malformed("bad membership tag")),
    }
}

fn put_membership_list(w: &mut Writer, cs: &[MembershipChange]) {
    w.seq(cs.iter().copied(), put_membership);
}

fn get_membership_list(r: &mut Reader<'_>) -> Result<Vec<MembershipChange>, SnapshotError> {
    r.seq(9, get_membership)
}

fn put_bloom(w: &mut Writer, b: &BloomFilter) {
    w.u32(b.sigma());
    w.u32(b.k());
    let mut byte = 0u8;
    let mut filled = 0u8;
    for bit in b.bits() {
        byte |= u8::from(bit) << filled;
        filled += 1;
        if filled == 8 {
            w.u8(byte);
            byte = 0;
            filled = 0;
        }
    }
    if filled > 0 {
        w.u8(byte);
    }
}

fn get_bloom(r: &mut Reader<'_>) -> Result<BloomFilter, SnapshotError> {
    let sigma = r.u32()?;
    let k = r.u32()?;
    let packed = r.bytes((sigma as usize).div_ceil(8))?;
    let bits: Vec<bool> = (0..sigma as usize)
        .map(|i| packed[i / 8] >> (i % 8) & 1 == 1)
        .collect();
    if k == 0 || sigma == 0 {
        return Err(SnapshotError::Malformed("degenerate bloom filter"));
    }
    Ok(BloomFilter::from_bits(sigma, k, &bits))
}

fn put_phase(w: &mut Writer, p: Phase) {
    w.u8(match p {
        Phase::Searching => 0,
        Phase::Retrieving => 1,
        Phase::Server => 2,
        Phase::Validating => 3,
        Phase::Tuning => 4,
    });
}

fn get_phase(r: &mut Reader<'_>) -> Result<Phase, SnapshotError> {
    Ok(match r.u8()? {
        0 => Phase::Searching,
        1 => Phase::Retrieving,
        2 => Phase::Server,
        3 => Phase::Validating,
        4 => Phase::Tuning,
        _ => return Err(SnapshotError::Malformed("bad phase tag")),
    })
}

fn put_event_id(w: &mut Writer, id: EventId) {
    w.u64(id.as_raw());
}

fn get_event_id(r: &mut Reader<'_>) -> Result<EventId, DecodeError> {
    r.u64().map(EventId::from_raw)
}

fn put_pending(w: &mut Writer, p: &Pending) {
    w.u64(p.gen);
    w.u64(p.item.as_u64());
    w.time(p.issued_at);
    w.bool(p.recorded);
    put_phase(w, p.phase);
    w.time(p.broadcast_at);
    w.opt(p.timeout, put_event_id);
    w.opt(p.target, Writer::usize);
    w.time(p.validating_t_r);
    w.u32(p.attempt);
    w.opt(p.watchdog, put_event_id);
}

fn get_pending(r: &mut Reader<'_>) -> Result<Pending, SnapshotError> {
    Ok(Pending {
        gen: r.u64()?,
        item: ItemId::new(r.u64()?),
        issued_at: r.time()?,
        recorded: r.bool()?,
        phase: get_phase(r)?,
        broadcast_at: r.time()?,
        timeout: r.opt(get_event_id)?,
        target: r.opt(Reader::usize)?,
        validating_t_r: r.time()?,
        attempt: r.u32()?,
        watchdog: r.opt(get_event_id)?,
    })
}

fn put_item(w: &mut Writer, item: &ItemId) {
    w.u64(item.as_u64());
}

fn get_item(r: &mut Reader<'_>) -> Result<ItemId, DecodeError> {
    r.u64().map(ItemId::new)
}

fn put_rng(w: &mut Writer, rng: &SimRng) {
    for word in rng.state() {
        w.u64(word);
    }
}

fn get_rng(r: &mut Reader<'_>) -> Result<SimRng, DecodeError> {
    Ok(SimRng::from_state([r.u64()?, r.u64()?, r.u64()?, r.u64()?]))
}

// ----------------------------------------------------------------------
// Event codec (all 27 variants, declared order)
// ----------------------------------------------------------------------

fn put_ev(w: &mut Writer, ev: &Ev) {
    match ev {
        Ev::NextRequest { mh } => {
            w.u8(0);
            w.usize(*mh);
        }
        Ev::PeerRequest {
            requester,
            gen,
            peer,
            item,
            updates,
        } => {
            w.u8(1);
            w.usize(*requester);
            w.u64(*gen);
            w.usize(*peer);
            w.u64(item.as_u64());
            w.opt(updates.as_deref(), |w, (ins, ev)| {
                w.seq(ins.iter().copied(), Writer::u32);
                w.seq(ev.iter().copied(), Writer::u32);
            });
        }
        Ev::Reply {
            requester,
            gen,
            from,
        } => {
            w.u8(2);
            w.usize(*requester);
            w.u64(*gen);
            w.usize(*from);
        }
        Ev::Retrieve { requester, gen } => {
            w.u8(3);
            w.usize(*requester);
            w.u64(*gen);
        }
        Ev::PeerData {
            requester,
            gen,
            from,
            expiry,
        } => {
            w.u8(4);
            w.usize(*requester);
            w.u64(*gen);
            w.usize(*from);
            w.time(*expiry);
        }
        Ev::SearchTimeout { requester, gen } => {
            w.u8(5);
            w.usize(*requester);
            w.u64(*gen);
        }
        Ev::RetrieveTimeout { requester, gen } => {
            w.u8(6);
            w.usize(*requester);
            w.u64(*gen);
        }
        Ev::ServerRetry { mh, gen } => {
            w.u8(7);
            w.usize(*mh);
            w.u64(*gen);
        }
        Ev::ServerRequest { mh, gen } => {
            w.u8(8);
            w.usize(*mh);
            w.u64(*gen);
        }
        Ev::ServerData {
            mh,
            gen,
            expiry,
            t_r,
            changes,
        } => {
            w.u8(9);
            w.usize(*mh);
            w.u64(*gen);
            w.time(*expiry);
            w.time(*t_r);
            put_membership_list(w, changes);
        }
        Ev::ValidationRequest { mh, gen } => {
            w.u8(10);
            w.usize(*mh);
            w.u64(*gen);
        }
        Ev::ValidationOk {
            mh,
            gen,
            expiry,
            t_r,
            changes,
        } => {
            w.u8(11);
            w.usize(*mh);
            w.u64(*gen);
            w.time(*expiry);
            w.time(*t_r);
            put_membership_list(w, changes);
        }
        Ev::SigRequest { from, to, members } => {
            w.u8(12);
            w.usize(*from);
            w.usize(*to);
            w.opt(members.as_deref(), |w, m| {
                w.seq(m.iter().copied(), Writer::usize)
            });
        }
        Ev::SigReply { from, to, sig } => {
            w.u8(13);
            w.usize(*from);
            w.usize(*to);
            put_bloom(w, sig);
        }
        Ev::Reconnect { mh } => {
            w.u8(14);
            w.usize(*mh);
        }
        Ev::ReconnectSync { mh } => {
            w.u8(15);
            w.usize(*mh);
        }
        Ev::ReconnectSyncDone { mh, members } => {
            w.u8(16);
            w.usize(*mh);
            w.seq(members.iter().copied(), Writer::usize);
        }
        Ev::ExplicitUpdate { mh } => {
            w.u8(17);
            w.usize(*mh);
        }
        Ev::ExplicitUpdateAtMss { mh, sample } => {
            w.u8(18);
            w.usize(*mh);
            w.seq(sample.iter(), put_item);
        }
        Ev::MembershipNews { mh, changes } => {
            w.u8(19);
            w.usize(*mh);
            put_membership_list(w, changes);
        }
        Ev::DbUpdate => w.u8(20),
        Ev::AgeIntervals => w.u8(21),
        Ev::WarmupCap => w.u8(22),
        Ev::BeaconTick => w.u8(23),
        Ev::Delegated { to, item, expiry } => {
            w.u8(24);
            w.usize(*to);
            w.u64(item.as_u64());
            w.time(*expiry);
        }
        Ev::RefreshPushSchedule => w.u8(25),
        Ev::PushArrive { mh, gen } => {
            w.u8(26);
            w.usize(*mh);
            w.u64(*gen);
        }
    }
}

fn get_ev(r: &mut Reader<'_>) -> Result<Ev, SnapshotError> {
    Ok(match r.u8()? {
        0 => Ev::NextRequest { mh: r.usize()? },
        1 => Ev::PeerRequest {
            requester: r.usize()?,
            gen: r.u64()?,
            peer: r.usize()?,
            item: ItemId::new(r.u64()?),
            updates: r.opt(|r| -> Result<_, DecodeError> {
                Ok(Rc::new((r.seq(4, Reader::u32)?, r.seq(4, Reader::u32)?)))
            })?,
        },
        2 => Ev::Reply {
            requester: r.usize()?,
            gen: r.u64()?,
            from: r.usize()?,
        },
        3 => Ev::Retrieve {
            requester: r.usize()?,
            gen: r.u64()?,
        },
        4 => Ev::PeerData {
            requester: r.usize()?,
            gen: r.u64()?,
            from: r.usize()?,
            expiry: r.time()?,
        },
        5 => Ev::SearchTimeout {
            requester: r.usize()?,
            gen: r.u64()?,
        },
        6 => Ev::RetrieveTimeout {
            requester: r.usize()?,
            gen: r.u64()?,
        },
        7 => Ev::ServerRetry {
            mh: r.usize()?,
            gen: r.u64()?,
        },
        8 => Ev::ServerRequest {
            mh: r.usize()?,
            gen: r.u64()?,
        },
        9 => Ev::ServerData {
            mh: r.usize()?,
            gen: r.u64()?,
            expiry: r.time()?,
            t_r: r.time()?,
            changes: Rc::new(get_membership_list(r)?),
        },
        10 => Ev::ValidationRequest {
            mh: r.usize()?,
            gen: r.u64()?,
        },
        11 => Ev::ValidationOk {
            mh: r.usize()?,
            gen: r.u64()?,
            expiry: r.time()?,
            t_r: r.time()?,
            changes: Rc::new(get_membership_list(r)?),
        },
        12 => Ev::SigRequest {
            from: r.usize()?,
            to: r.usize()?,
            members: r.opt(|r| r.seq(8, Reader::usize).map(Rc::new))?,
        },
        13 => Ev::SigReply {
            from: r.usize()?,
            to: r.usize()?,
            sig: Rc::new(get_bloom(r)?),
        },
        14 => Ev::Reconnect { mh: r.usize()? },
        15 => Ev::ReconnectSync { mh: r.usize()? },
        16 => Ev::ReconnectSyncDone {
            mh: r.usize()?,
            members: Rc::new(r.seq(8, Reader::usize)?),
        },
        17 => Ev::ExplicitUpdate { mh: r.usize()? },
        18 => Ev::ExplicitUpdateAtMss {
            mh: r.usize()?,
            sample: Rc::new(r.seq(8, get_item)?),
        },
        19 => Ev::MembershipNews {
            mh: r.usize()?,
            changes: Rc::new(get_membership_list(r)?),
        },
        20 => Ev::DbUpdate,
        21 => Ev::AgeIntervals,
        22 => Ev::WarmupCap,
        23 => Ev::BeaconTick,
        24 => Ev::Delegated {
            to: r.usize()?,
            item: ItemId::new(r.u64()?),
            expiry: r.time()?,
        },
        25 => Ev::RefreshPushSchedule,
        26 => Ev::PushArrive {
            mh: r.usize()?,
            gen: r.u64()?,
        },
        _ => return Err(SnapshotError::Malformed("bad event tag")),
    })
}

// ----------------------------------------------------------------------
// Encode
// ----------------------------------------------------------------------

/// Encodes the complete mutable state of a mid-run simulation. The
/// scheduler is passed alongside because the run loop owns it.
pub(crate) fn encode(sim: &Simulation, sched: &Scheduler<Ev>) -> Vec<u8> {
    let mut w = Writer::with_capacity(64 * 1024);
    w.u32(MAGIC);
    w.u32(VERSION);
    w.u64(0); // checksum patched below
    w.u64(sim.cfg.canonical_fingerprint());

    // --- scheduler -----------------------------------------------------
    let state = sched.export_state();
    w.time(state.now);
    w.u64(state.next_seq);
    w.u64(state.fired);
    w.usize(state.peak_depth);
    w.seq(&state.entries, |w, (at, seq, ev)| {
        w.time(*at);
        w.u64(*seq);
        put_ev(w, ev);
    });
    w.seq(state.cancelled.iter().copied(), Writer::u64);

    // --- mobility memo -------------------------------------------------
    let memo = sim.field.export_memo();
    w.opt(memo.cache_t, Writer::time);
    w.seq(&memo.cache, put_vec2);
    w.u64(memo.cache_hits);
    w.u64(memo.cache_misses);
    for key in [memo.grid_key, memo.probe_key] {
        w.opt(key, |w, (t, bits)| {
            w.time(t);
            w.u64(bits);
        });
    }
    w.u8(memo.probe_scans);

    // --- channels ------------------------------------------------------
    w.seq(sim.p2p.export_state(), put_facility);
    let (up, down) = sim.server.export_state();
    put_facility(&mut w, up);
    put_facility(&mut w, down);

    // --- server database ----------------------------------------------
    let (items, updates_applied) = sim.db.export_state();
    w.seq(items, |w, (last_updated, interval, stale)| {
        w.time(last_updated);
        w.opt(interval, Writer::f64);
        w.bool(stale);
    });
    w.u64(updates_applied);

    // --- TCG directory -------------------------------------------------
    w.opt(sim.dir.as_ref(), |w, dir| {
        // Access rows are sparse-encoded (most of the NData-wide
        // frequency vector is zero): without this a large-population
        // GroCoca snapshot would be dominated by zeros.
        w.seq(&dir.access, |w, row| {
            w.usize(row.iter().filter(|&&a| a != 0).count());
            for (i, &a) in row.iter().enumerate() {
                if a != 0 {
                    w.u32(i as u32);
                    w.u32(a);
                }
            }
        });
        for matrix in [&dir.dot, &dir.wadm] {
            w.seq(matrix.iter().copied(), Writer::f64);
        }
        w.seq(dir.norm_sq.iter().copied(), Writer::f64);
        w.seq(&dir.last_pos, |w, pos| w.opt(pos.as_ref(), put_vec2));
        w.seq(&dir.members, |w, m| w.seq(m.iter().copied(), Writer::usize));
        w.seq(&dir.pending, |w, p| put_membership_list(w, p));
    });

    // --- hosts ---------------------------------------------------------
    w.seq(&sim.hosts, |w, h| {
        w.bool(h.connected);
        w.usize(h.cache.len());
        for (key, e) in h.cache.iter() {
            w.u64(key.as_u64());
            w.time(e.last_access);
            w.time(e.inserted_at);
            w.u64(e.access_count);
            w.time(e.retrieved_at);
            w.time(e.expires_at);
            w.u32(e.singlet_ttl);
        }
        w.seq(h.counting.counters().iter().copied(), Writer::u16);
        w.seq(h.peer_vector.counters().iter().copied(), Writer::u32);
        w.seq(h.tcg.iter().copied(), Writer::usize);
        w.seq(h.outstand_sig.iter().copied(), Writer::usize);
        w.seq(h.pending_insert.iter().copied(), Writer::u32);
        w.seq(h.pending_evict.iter().copied(), Writer::u32);
        w.u32(h.departed_since_recollect);
        w.seq(&h.peer_retrieved_log, put_item);
        put_welford(w, &h.search_stats);
        w.u64(h.gen);
        w.opt(h.pending.as_ref(), put_pending);
        w.time(h.last_server_contact);
        w.bool(h.cache_filled);
        w.u32(h.consecutive_search_failures);
        w.u32(h.solo_requests_left);
    });

    // --- push schedule, popularity, NDP, activity ----------------------
    w.seq(sim.push.items().iter().copied(), Writer::u64);
    w.time(sim.push.slot_time());
    w.seq(sim.popularity.iter().copied(), Writer::u64);
    w.opt(sim.ndp.as_ref(), |w, ndp| {
        let (linked, missed) = ndp.export_state();
        w.seq(linked.iter().copied(), Writer::bool);
        w.seq(missed.iter().copied(), Writer::u32);
    });
    w.seq(sim.active.iter().copied(), Writer::bool);

    // --- RNG substreams ------------------------------------------------
    w.seq(&sim.host_rngs, put_rng);
    put_rng(&mut w, &sim.rng_updates);
    put_rng(&mut w, &sim.fault_rng);

    // --- fault stats ---------------------------------------------------
    let f = &sim.fstats;
    for v in [
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
        f.solo_skips,
        f.solo_exits,
        f.stale_serves,
    ] {
        w.u64(v);
    }

    // --- metrics -------------------------------------------------------
    let m = &sim.metrics;
    put_welford(&mut w, &m.latency);
    for v in [
        m.local_hits,
        m.global_hits,
        m.server_requests,
        m.push_hits,
        m.global_hits_from_tcg,
        m.validations,
        m.validation_refreshes,
        m.search_timeouts,
        m.filter_bypasses,
        m.retrieve_fallbacks,
        m.signature_messages,
        m.signature_bytes,
        m.broadcasts,
        m.replicated_evictions,
        m.singlet_drops,
        m.delegations,
    ] {
        w.u64(v);
    }
    w.f64(m.power.total_uws());
    w.f64(m.power.sent_uws());
    w.f64(m.power.received_uws());
    w.f64(m.power.discarded_uws());
    w.time(m.recorded_duration);

    // --- run-loop scalars ----------------------------------------------
    w.time(sim.last_event_time);
    w.bool(sim.warm);
    w.time(sim.warmed_at);
    w.usize(sim.full_caches);
    w.u64(sim.completed_recorded);

    // The checksum covers fingerprint + body.
    let sum = checksum(&w.as_slice()[16..]);
    w.patch_u64(8, sum);
    w.into_vec()
}

// ----------------------------------------------------------------------
// Decode
// ----------------------------------------------------------------------

/// Fails with `Malformed(what)` unless a decoded length matches the one
/// the configuration implies.
fn expect_len(got: usize, want: usize, what: &'static str) -> Result<(), SnapshotError> {
    if got == want {
        Ok(())
    } else {
        Err(SnapshotError::Malformed(what))
    }
}

/// Rebuilds a mid-run simulation from snapshot bytes taken under `cfg`.
///
/// All config-derived state is reconstructed by [`Simulation::new`];
/// the snapshot overlays only history-dependent state, then the
/// mobility movers are warped forward to the snapshot instant (see the
/// module docs for why that reproduces the original draw consumption
/// exactly).
pub(crate) fn decode(cfg: SimConfig, bytes: &[u8]) -> Result<ResumedSimulation, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::TooShort);
    }
    let mut r = Reader::new(bytes);
    let magic = r.u32()?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic(magic));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion(version));
    }
    if r.u64()? != checksum(&bytes[16..]) {
        return Err(SnapshotError::ChecksumMismatch);
    }
    let found = r.u64()?;
    let expected = cfg.canonical_fingerprint();
    if found != expected {
        return Err(SnapshotError::ConfigMismatch { expected, found });
    }

    let mut sim = Simulation::new(cfg);
    let n = sim.hosts.len();

    // --- scheduler -----------------------------------------------------
    let now = r.time()?;
    let next_seq = r.u64()?;
    let fired = r.u64()?;
    let peak_depth = r.usize()?;
    let entries = r.seq(17, |r| -> Result<_, SnapshotError> {
        Ok((r.time()?, r.u64()?, get_ev(r)?))
    })?;
    let cancelled = r.seq(8, Reader::u64)?;
    let sched = Scheduler::from_state(SchedulerState {
        now,
        next_seq,
        fired,
        peak_depth,
        entries,
        cancelled,
    });

    // --- mobility: warp forward, then overlay the memo exactly ---------
    let cache_t = r.opt(Reader::time)?;
    let cache = r.seq(16, get_vec2)?;
    expect_len(cache.len(), n, "position cache length")?;
    let cache_hits = r.u64()?;
    let cache_misses = r.u64()?;
    let key = |r: &mut Reader<'_>| -> Result<_, DecodeError> { Ok((r.time()?, r.u64()?)) };
    let grid_key = r.opt(key)?;
    let probe_key = r.opt(key)?;
    let probe_scans = r.u8()?;
    sim.field.warp_to(now);
    sim.field.restore_memo(FieldMemo {
        cache_t,
        cache,
        cache_hits,
        cache_misses,
        grid_key,
        probe_key,
        probe_scans,
    });

    // --- channels ------------------------------------------------------
    let radios = r.seq(32, get_facility)?;
    expect_len(radios.len(), n, "radio count")?;
    sim.p2p.restore_state(&radios);
    let up = get_facility(&mut r)?;
    let down = get_facility(&mut r)?;
    sim.server.restore_state((up, down));

    // --- server database ----------------------------------------------
    let items = r.seq(10, |r| -> Result<_, DecodeError> {
        Ok((r.time()?, r.opt(Reader::f64)?, r.bool()?))
    })?;
    if items.len() as u64 != sim.cfg.n_data {
        return Err(SnapshotError::Malformed("database size"));
    }
    sim.db.restore_state(&items, r.u64()?);

    // --- TCG directory -------------------------------------------------
    let has_dir = r.bool()?;
    if has_dir != sim.dir.is_some() {
        return Err(SnapshotError::Malformed("directory presence"));
    }
    if let Some(dir) = sim.dir.as_mut() {
        expect_len(r.len(8)?, n, "access matrix rows")?;
        for row in dir.access.iter_mut() {
            let nonzero = r.len(8)?;
            if nonzero > row.len() {
                return Err(SnapshotError::Malformed("access matrix columns"));
            }
            row.fill(0);
            for _ in 0..nonzero {
                let idx = r.u32()? as usize;
                let val = r.u32()?;
                let slot = row
                    .get_mut(idx)
                    .ok_or(SnapshotError::Malformed("access column index"))?;
                *slot = val;
            }
        }
        for matrix in [&mut dir.dot, &mut dir.wadm] {
            *matrix = r.seq(8, Reader::f64)?;
            expect_len(matrix.len(), n * n, "pair matrix length")?;
        }
        dir.norm_sq = r.seq(8, Reader::f64)?;
        expect_len(dir.norm_sq.len(), n, "norm vector length")?;
        dir.last_pos = r.seq(1, |r| r.opt(get_vec2))?;
        expect_len(dir.last_pos.len(), n, "position vector length")?;
        dir.members = r.seq(8, |r| -> Result<_, DecodeError> {
            Ok(r.seq(8, Reader::usize)?.into_iter().collect())
        })?;
        expect_len(dir.members.len(), n, "member list count")?;
        dir.pending = r.seq(8, get_membership_list)?;
        expect_len(dir.pending.len(), n, "pending list count")?;
    }

    // --- hosts ---------------------------------------------------------
    expect_len(r.len(1)?, n, "host count")?;
    for h in sim.hosts.iter_mut() {
        h.connected = r.bool()?;
        let n_entries = r.len(49)?;
        if n_entries > h.cache.capacity() {
            return Err(SnapshotError::Malformed("cache overflow"));
        }
        for _ in 0..n_entries {
            let key = ItemId::new(r.u64()?);
            let entry = Entry {
                last_access: r.time()?,
                inserted_at: r.time()?,
                access_count: r.u64()?,
                retrieved_at: r.time()?,
                expires_at: r.time()?,
                singlet_ttl: r.u32()?,
            };
            h.cache.restore_entry(key, entry);
        }
        let counters = r.seq(2, Reader::u16)?;
        expect_len(
            counters.len(),
            h.counting.counters().len(),
            "counting filter width",
        )?;
        h.counting.restore_counters(&counters);
        let counters = r.seq(4, Reader::u32)?;
        expect_len(
            counters.len(),
            h.peer_vector.counters().len(),
            "peer vector width",
        )?;
        h.peer_vector.restore_counters(&counters);
        h.tcg = r.seq(8, Reader::usize)?.into_iter().collect();
        h.outstand_sig = r.seq(8, Reader::usize)?.into_iter().collect();
        h.pending_insert = r.seq(4, Reader::u32)?.into_iter().collect();
        h.pending_evict = r.seq(4, Reader::u32)?.into_iter().collect();
        h.departed_since_recollect = r.u32()?;
        h.peer_retrieved_log = r.seq(8, get_item)?;
        h.search_stats = get_welford(&mut r)?;
        h.gen = r.u64()?;
        h.pending = r.opt(get_pending)?;
        h.last_server_contact = r.time()?;
        h.cache_filled = r.bool()?;
        h.consecutive_search_failures = r.u32()?;
        h.solo_requests_left = r.u32()?;
    }

    // --- push schedule, popularity, NDP, activity ----------------------
    let push_items = r.seq(8, Reader::u64)?;
    let slot_time = r.time()?;
    if !push_items.is_empty() && slot_time == SimTime::ZERO {
        return Err(SnapshotError::Malformed("zero push slot"));
    }
    sim.push = grococa_net::PushSchedule::new(push_items, slot_time);
    let popularity = r.seq(8, Reader::u64)?;
    expect_len(popularity.len(), sim.popularity.len(), "popularity length")?;
    sim.popularity = popularity;
    let has_ndp = r.bool()?;
    if has_ndp != sim.ndp.is_some() {
        return Err(SnapshotError::Malformed("NDP presence"));
    }
    if let Some(ndp) = sim.ndp.as_mut() {
        let pairs = n * (n - 1) / 2;
        let linked = r.seq(1, Reader::bool)?;
        expect_len(linked.len(), pairs, "NDP link vector length")?;
        let missed = r.seq(4, Reader::u32)?;
        expect_len(missed.len(), pairs, "NDP miss vector length")?;
        ndp.restore_state(&linked, &missed);
    }
    sim.active = r.seq(1, Reader::bool)?;
    expect_len(sim.active.len(), n, "activity vector length")?;

    // --- RNG substreams ------------------------------------------------
    sim.host_rngs = r.seq(32, get_rng)?;
    expect_len(sim.host_rngs.len(), n, "host RNG count")?;
    sim.rng_updates = get_rng(&mut r)?;
    sim.fault_rng = get_rng(&mut r)?;

    // --- fault stats ---------------------------------------------------
    let f = &mut sim.fstats;
    for v in [
        &mut f.p2p_lost,
        &mut f.corrupted,
        &mut f.departures,
        &mut f.outage_drops,
        &mut f.beacons_lost,
        &mut f.search_retries,
        &mut f.retrieve_retries,
        &mut f.server_retries,
        &mut f.delegation_retransmits,
        &mut f.solo_entries,
        &mut f.solo_skips,
        &mut f.solo_exits,
        &mut f.stale_serves,
    ] {
        *v = r.u64()?;
    }

    // --- metrics -------------------------------------------------------
    sim.metrics.latency = get_welford(&mut r)?;
    let m = &mut sim.metrics;
    for v in [
        &mut m.local_hits,
        &mut m.global_hits,
        &mut m.server_requests,
        &mut m.push_hits,
        &mut m.global_hits_from_tcg,
        &mut m.validations,
        &mut m.validation_refreshes,
        &mut m.search_timeouts,
        &mut m.filter_bypasses,
        &mut m.retrieve_fallbacks,
        &mut m.signature_messages,
        &mut m.signature_bytes,
        &mut m.broadcasts,
        &mut m.replicated_evictions,
        &mut m.singlet_drops,
        &mut m.delegations,
    ] {
        *v = r.u64()?;
    }
    let total = r.f64()?;
    let sent = r.f64()?;
    let received = r.f64()?;
    let discarded = r.f64()?;
    sim.metrics.power = PowerMeter::from_parts(total, sent, received, discarded);
    sim.metrics.recorded_duration = r.time()?;

    // --- run-loop scalars ----------------------------------------------
    sim.last_event_time = r.time()?;
    sim.warm = r.bool()?;
    sim.warmed_at = r.time()?;
    sim.full_caches = r.usize()?;
    sim.completed_recorded = r.u64()?;
    r.done()?;

    Ok(ResumedSimulation { sim, sched })
}
