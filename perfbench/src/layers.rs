//! Per-layer measurement. A traced run records each request's protocol
//! lifecycle; the benchmark then drives each layer's public API with the
//! inputs that trace implies and times the calls from outside. The
//! simulator itself is never instrumented.

use std::hint::black_box;
use std::time::Instant;

use grococa_cache::ClientCache;
use grococa_core::{Scheme, SimConfig, Simulation, TcgDirectory, TraceKind, TraceRecord, Tracer};
use grococa_mobility::MobilityField;
use grococa_signature::{compression_choice, CompressedSignature, CountingFilter, PeerVector};
use grococa_sim::{Scheduler, SimRng, SimTime};

use crate::e2e::checkpoint_costs;
use crate::measure::{median, ratio, remaining, rss_mb, timed, Metrics};
use crate::workload::{field_config, Gate, Tamper};

/// Untraced/traced run pairs whose wall-time ratio is the tracing
/// overhead: at least one, at most this many.
const MAX_PAIRS: usize = 5;
/// Restore and re-encode calls behind the snapshot codec rates.
const CKPT_REPEATS: usize = 5;

/// What the trace says the run did, counted by record kind.
#[derive(Default)]
struct TraceCounts {
    requests: u64,
    searches: u64,
    peers_reached: u64,
    global_hits: u64,
    server_contacts: u64,
    filter_bypasses: u64,
    tcg_changes: u64,
}

fn count(records: &[TraceRecord]) -> TraceCounts {
    let mut c = TraceCounts::default();
    for r in records {
        match r.kind {
            TraceKind::RequestIssued { .. } => c.requests += 1,
            TraceKind::SearchStarted { peers_reached } => {
                c.searches += 1;
                c.peers_reached += peers_reached as u64;
            }
            TraceKind::GlobalHit { .. } => c.global_hits += 1,
            TraceKind::ServerContacted => c.server_contacts += 1,
            TraceKind::FilterBypass => c.filter_bypasses += 1,
            TraceKind::TcgJoined { .. } | TraceKind::TcgLeft { .. } => c.tcg_changes += 1,
            _ => {}
        }
    }
    c
}

/// Seconds spent in calls of one kind.
#[derive(Default)]
struct Calls {
    n: u64,
    secs: f64,
}

impl Calls {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, secs) = timed(f);
        self.n += 1;
        self.secs += secs;
        out
    }

    fn mean_us(&self) -> f64 {
        ratio(self.secs * 1e6, self.n as f64)
    }
}

/// The MSS directory driven with the traced MSS input: each server
/// contact folds in the host's location and the item it requested, each
/// reconnection folds in its location, and both drain the announcements.
/// Explicit updates carry cache samples the trace does not record, so
/// the replayed groups only approximate the run's; `agreement` says how
/// closely.
#[derive(Default)]
struct TcgReplay {
    new_s: f64,
    access: Calls,
    location: Calls,
    drain: Calls,
    rss_mb: f64,
    agreement: f64,
}

fn replay_tcg(cfg: &SimConfig, records: &[TraceRecord], run_dir: &TcgDirectory) -> TcgReplay {
    let n = cfg.num_clients;
    let new_dir = || {
        TcgDirectory::new(
            n,
            cfg.n_data,
            cfg.tcg_distance,
            cfg.tcg_similarity,
            cfg.omega,
        )
    };
    let news: Vec<f64> = (0..5).map(|_| timed(|| black_box(new_dir())).1).collect();
    let mut rep = TcgReplay {
        new_s: median(&news),
        ..TcgReplay::default()
    };
    let mut field = MobilityField::new(field_config(cfg), n, cfg.seed);
    let mut wanted = vec![None; n];
    let rss_before = rss_mb();
    let mut dir = new_dir();
    for r in records {
        let (mh, t) = (r.mh, r.time);
        match r.kind {
            TraceKind::RequestIssued { item } => wanted[mh] = Some(item.as_u64()),
            TraceKind::ServerContacted | TraceKind::Reconnected => {
                let pos = field.position_at(mh, t);
                rep.location.time(|| dir.record_location(mh, pos));
                if let (TraceKind::ServerContacted, Some(item)) = (r.kind, wanted[mh]) {
                    rep.access.time(|| dir.record_access(mh, item));
                }
                black_box(rep.drain.time(|| dir.drain_changes(mh)));
            }
            _ => {}
        }
    }
    rep.rss_mb = (rss_mb() - rss_before).max(0.0);
    let same = (0..n)
        .filter(|&i| dir.members_of(i) == run_dir.members_of(i))
        .count();
    rep.agreement = same as f64 / n as f64;
    rep
}

/// Every traced search broadcast replayed through the geometric
/// reachability query, following the traced active set.
#[derive(Default)]
struct ReachReplay {
    calls: Calls,
    mismatches: u64,
}

fn replay_reach(cfg: &SimConfig, records: &[TraceRecord]) -> ReachReplay {
    let n = cfg.num_clients;
    let mut field = MobilityField::new(field_config(cfg), n, cfg.seed);
    let mut active = vec![true; n];
    let mut out = Vec::new();
    let mut rep = ReachReplay::default();
    for r in records {
        match r.kind {
            TraceKind::Disconnected => active[r.mh] = false,
            TraceKind::Reconnected => active[r.mh] = true,
            TraceKind::SearchStarted { peers_reached } => {
                rep.calls.time(|| {
                    field.reachable_within_hops_into(
                        r.mh,
                        cfg.tran_range,
                        cfg.hop_dist,
                        r.time,
                        &active,
                        &mut out,
                    )
                });
                if out.len() != peers_reached {
                    rep.mismatches += 1;
                }
            }
            _ => {}
        }
    }
    rep
}

/// Each host's traced request stream replayed through its own cache
/// (hits refresh recency, misses insert and may evict).
#[derive(Default)]
struct CacheReplay {
    ops: Calls,
    hits: u64,
    insertions: u64,
    evictions: u64,
}

fn replay_cache(cfg: &SimConfig, records: &[TraceRecord]) -> CacheReplay {
    let mut caches: Vec<ClientCache<u64>> = (0..cfg.num_clients)
        .map(|_| ClientCache::with_policy(cfg.cache_size, cfg.cache_policy))
        .collect();
    let mut rep = CacheReplay::default();
    for r in records {
        let TraceKind::RequestIssued { item } = r.kind else {
            continue;
        };
        let cache = &mut caches[r.mh];
        let key = item.as_u64();
        let (hit, evicted) = rep.ops.time(|| {
            if cache.get(key, r.time).is_some() {
                (true, None)
            } else {
                (false, cache.insert(key, r.time, SimTime::MAX))
            }
        });
        if hit {
            rep.hits += 1;
        } else {
            rep.insertions += 1;
            rep.evictions += u64::from(evicted.is_some());
        }
    }
    rep
}

/// Mean seconds per call of `f`, as the median over batches.
fn per_call(batch: usize, mut f: impl FnMut()) -> f64 {
    let batches: Vec<f64> = (0..9)
        .map(|_| {
            timed(|| {
                for _ in 0..batch {
                    f();
                }
            })
            .1 / batch as f64
        })
        .collect();
    median(&batches)
}

/// Per-call costs of the signature layer at the workload's σ, k and π_c
/// with a full cache.
struct SigCosts {
    to_bloom_s: f64,
    encode_s: f64,
    update_s: f64,
    counter_bytes_per_host: f64,
}

fn signature_costs(cfg: &SimConfig) -> SigCosts {
    let keys: Vec<u64> = (0..cfg.cache_size as u64)
        .map(|i| i * 7_919 % cfg.n_data)
        .collect();
    let mut filter = CountingFilter::new(cfg.sigma, cfg.bloom_k, cfg.pi_c);
    for &k in &keys {
        filter.insert(k);
    }
    let to_bloom_s = per_call(200, || {
        black_box(filter.to_bloom());
    });
    let bloom = filter.to_bloom();
    // The wire size an answered signature request computes.
    let choice = compression_choice(cfg.cache_size as u64, cfg.sigma, cfg.bloom_k);
    let encode_s = per_call(200, || {
        black_box(match choice {
            Some(r) if cfg.toggles.compress_signatures => {
                CompressedSignature::encode(&bloom, r).wire_bytes()
            }
            _ => bloom.wire_bytes(),
        });
    });
    // One cache replacement: the victim's counters go down, the newcomer's up.
    let mut i = 0;
    let update_s = per_call(20_000, || {
        let k = keys[i % keys.len()];
        i += 1;
        black_box(filter.remove_transitions(k).ok());
        black_box(filter.insert_transitions(k));
    });
    let peers = PeerVector::new(cfg.sigma, cfg.bloom_k);
    SigCosts {
        to_bloom_s,
        encode_s,
        update_s,
        counter_bytes_per_host: (std::mem::size_of_val(filter.counters())
            + std::mem::size_of_val(peers.counters())) as f64,
    }
}

/// The hold model: a queue kept at `depth` pending events, each step
/// popping the earliest and scheduling a successor an exponential delay
/// later. Returns seconds per pop+schedule.
fn scheduler_hold(depth: usize, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed);
    let delays: Vec<SimTime> = (0..4_096)
        .map(|_| SimTime::from_secs_f64(rng.exponential(1.0)))
        .collect();
    let mut sched: Scheduler<u32> = Scheduler::new();
    for (i, &d) in delays.iter().cycle().take(depth.max(1)).enumerate() {
        sched.schedule_at(d, i as u32);
    }
    let mut j = 0;
    per_call(100_000, || {
        if let Some((_, e)) = sched.pop() {
            sched.schedule_after(delays[j & 4_095], e);
        }
        j += 1;
    })
}

/// The per-layer metrics of one workload.
pub fn measure(cfg: &SimConfig, deadline: Instant, gate: &mut Gate, tamper: Tamper) -> Metrics {
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut world = None;
    while traced.len() < MAX_PAIRS {
        // The replays and the checkpoint step take about two runs.
        if !traced.is_empty() && remaining(deadline) < median(&traced) * 4.0 + 3.0 {
            break;
        }
        let sim = Simulation::new(cfg.clone());
        let ((out, _), secs) = timed(|| sim.run_inspect());
        plain.push(secs);
        gate.run("untraced run", &out);
        let mut sim = Simulation::new(cfg.clone());
        sim.set_tracer(Tracer::unbounded());
        let ((tout, w), secs) = timed(|| sim.run_inspect());
        traced.push(secs);
        gate.same_output("traced run", &tout);
        world = Some((tout, w));
    }
    let Some((out, world)) = world else {
        return Metrics::default();
    };
    let records = world.tracer().map_or(&[][..], Tracer::records);
    let traced_wall = median(&traced);
    let c = count(records);

    let tcg = match (cfg.scheme, world.tcg_directory()) {
        (Scheme::GroCoca, Some(dir)) => replay_tcg(cfg, records, dir),
        _ => TcgReplay::default(),
    };
    let reach = replay_reach(cfg, records);
    gate.check(reach.mismatches == 0, || {
        format!(
            "{} of {} replayed searches reached a different peer count than traced",
            reach.mismatches, reach.calls.n
        )
    });
    let cache = replay_cache(cfg, records);
    let sig = signature_costs(cfg);
    let hold_s = scheduler_hold(out.peak_heap_depth, cfg.seed);
    let ckpt = checkpoint_costs(cfg, out.events, gate, tamper, CKPT_REPEATS);

    let sig_messages = out.metrics.signature_messages as f64;
    let shares = [
        (tcg.access.secs + tcg.location.secs + tcg.drain.secs) / traced_wall,
        (sig_messages * (sig.to_bloom_s + sig.encode_s) + cache.insertions as f64 * sig.update_s)
            / traced_wall,
        reach.calls.secs / traced_wall,
        out.events as f64 * hold_s / traced_wall,
    ];
    let (hits, misses) = (out.pos_cache_hits as f64, out.pos_cache_misses as f64);
    let snap_mb = ckpt.bytes as f64 / 1e6;

    let mut m = Metrics::default();
    m.put("tcg.new_s", "s", tcg.new_s);
    m.put("tcg.record_access_calls", "count", tcg.access.n as f64);
    m.put("tcg.record_access_us", "us", tcg.access.mean_us());
    m.put("tcg.record_location_calls", "count", tcg.location.n as f64);
    m.put("tcg.record_location_us", "us", tcg.location.mean_us());
    m.put("tcg.drain_changes_us", "us", tcg.drain.mean_us());
    m.put("tcg.busy_share", "ratio", shares[0]);
    m.put("tcg.rss_mb", "MB", tcg.rss_mb);
    m.put("tcg.members_agreement", "ratio", tcg.agreement);
    m.put("sig.messages", "count", sig_messages);
    m.put(
        "sig.bytes_per_message",
        "B",
        ratio(out.metrics.signature_bytes as f64, sig_messages),
    );
    m.put("sig.to_bloom_us", "us", sig.to_bloom_s * 1e6);
    m.put("sig.encode_us", "us", sig.encode_s * 1e6);
    m.put("sig.update_us", "us", sig.update_s * 1e6);
    m.put("sig.busy_share", "ratio", shares[1]);
    m.put(
        "sig.counter_bytes_per_host",
        "B",
        sig.counter_bytes_per_host,
    );
    m.put("mob.reach_calls", "count", reach.calls.n as f64);
    m.put("mob.reach_us", "us", reach.calls.mean_us());
    m.put("mob.busy_share", "ratio", shares[2]);
    m.put(
        "mob.pos_cache_hit_ratio",
        "ratio",
        ratio(hits, hits + misses),
    );
    m.put("mob.reach_mismatches", "count", reach.mismatches as f64);
    m.put("sched.peak_depth", "count", out.peak_heap_depth as f64);
    m.put("sched.hold_ns", "ns", hold_s * 1e9);
    m.put("sched.busy_share", "ratio", shares[3]);
    m.put(
        "cache.local_hit_ratio",
        "ratio",
        ratio(cache.hits as f64, cache.ops.n as f64),
    );
    m.put(
        "cache.evictions_per_request",
        "ratio",
        ratio(cache.evictions as f64, cache.ops.n as f64),
    );
    m.put("cache.op_us", "us", cache.ops.mean_us());
    m.put(
        "snap.encode_mb_per_s",
        "MB/s",
        ratio(snap_mb, ckpt.snapshot_s),
    );
    m.put(
        "snap.decode_mb_per_s",
        "MB/s",
        ratio(snap_mb, ckpt.restore_s),
    );
    m.put(
        "snap.sig_share",
        "ratio",
        ratio(
            sig.counter_bytes_per_host * cfg.num_clients as f64,
            ckpt.bytes as f64,
        ),
    );
    m.put(
        "sim.events_per_request",
        "ratio",
        ratio(out.events as f64, out.report.completed as f64),
    );
    m.put(
        "sim.peers_per_search",
        "ratio",
        ratio(c.peers_reached as f64, c.searches as f64),
    );
    m.put(
        "sim.global_hits_per_search",
        "ratio",
        ratio(c.global_hits as f64, c.searches as f64),
    );
    m.put(
        "sim.server_share",
        "ratio",
        ratio(c.server_contacts as f64, c.requests as f64),
    );
    m.put(
        "sim.filter_bypass_share",
        "ratio",
        ratio(
            c.filter_bypasses as f64,
            (c.filter_bypasses + c.searches) as f64,
        ),
    );
    m.put("sim.tcg_changes", "count", c.tcg_changes as f64);
    m.put(
        "sim.unattributed_share",
        "ratio",
        1.0 - shares.iter().sum::<f64>(),
    );
    m.put(
        "sim.trace_overhead_pct",
        "%",
        (traced_wall / median(&plain) - 1.0) * 100.0,
    );
    m
}
