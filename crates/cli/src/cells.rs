//! Journal payload codec for sweep cells, plus the sweep fingerprint.
//!
//! Each journal record is one cell's outcome. The encoding is fixed-layout
//! and exact — `f64` metrics travel as IEEE bit patterns — so a resumed
//! sweep renders **byte-identical** output to an uninterrupted one.
//!
//! ```text
//! payload: cell_index u64 LE │ status u8 (1 = ok, 0 = failed, 2 = drained)
//!   ok:      16 report fields, each 8 bytes LE (u64 or f64 bits),
//!            in `Report` declaration order
//!   failed:  kind u8 │ attempts u32 LE │ text_len u32 LE │ text (UTF-8)
//!   drained: empty body, cell_index 0 — the trailer a graceful
//!            signal-drain stamps after its final flushed record
//! ```
//!
//! Both directions go through [`grococa_sim::codec`].
//!
//! Decoding is total: anything malformed yields `None`, never a panic —
//! the journal layer already checksums records, so a decode failure here
//! means a version skew the fingerprint should have caught, and the cell
//! is simply re-run.

use grococa_core::{Report, Scheme, SimConfig};
use grococa_journal::Fingerprint;
use grococa_par::FailureKind;
use grococa_sim::codec::{checksum, Reader, Writer};

/// One journaled cell outcome.
#[derive(Debug, Clone, PartialEq)]
pub enum CellRecord {
    /// The cell completed with this report.
    Ok(Report),
    /// The cell was quarantined: why, after how many attempts, with the
    /// final attempt's failure text.
    Failed {
        /// The enforced failure classification.
        kind: FailureKind,
        /// Attempts actually made before quarantine.
        attempts: u32,
        /// Final attempt's failure text (panic message or kill reason).
        message: String,
    },
    /// The drain trailer: the sweep was interrupted by a shutdown signal
    /// after this journal's last record, flushed cleanly, and is safe to
    /// resume.
    Drained,
}

fn kind_to_byte(kind: FailureKind) -> u8 {
    match kind {
        FailureKind::Panic => 0,
        FailureKind::Deadline => 1,
        FailureKind::MemLimit => 2,
        FailureKind::DrainKilled => 3,
    }
}

fn kind_from_byte(byte: u8) -> Option<FailureKind> {
    match byte {
        0 => Some(FailureKind::Panic),
        1 => Some(FailureKind::Deadline),
        2 => Some(FailureKind::MemLimit),
        3 => Some(FailureKind::DrainKilled),
        _ => None,
    }
}

/// The sweep fingerprint stored in the journal header: canonical base
/// config hash folded with the swept parameter, the value list and the
/// scheme labels, plus the grid shape and this crate's version. Any
/// difference — another parameter, one more value, a changed base config,
/// a rebuilt binary — refuses resume.
pub fn sweep_fingerprint(
    base: &SimConfig,
    param: &str,
    values: &[f64],
    cells: usize,
) -> Fingerprint {
    let mut tag = Writer::new();
    tag.u64(base.canonical_fingerprint());
    tag.bytes(param.as_bytes());
    tag.u8(0);
    for &v in values {
        tag.f64(v);
    }
    for scheme in [Scheme::Conventional, Scheme::Coca, Scheme::GroCoca] {
        tag.bytes(scheme.label().as_bytes());
        tag.u8(0);
    }
    Fingerprint {
        config_hash: checksum(tag.as_slice()),
        cells: cells as u64,
        version: env!("CARGO_PKG_VERSION").to_string(),
    }
}

/// The 16 report fields as raw 8-byte words, declaration order.
fn report_words(r: &Report) -> [u64; 16] {
    [
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
    ]
}

fn report_from_words(w: &[u64; 16]) -> Report {
    Report {
        completed: w[0],
        access_latency_ms: f64::from_bits(w[1]),
        latency_stddev_ms: f64::from_bits(w[2]),
        local_hit_ratio_pct: f64::from_bits(w[3]),
        global_hit_ratio_pct: f64::from_bits(w[4]),
        server_request_ratio_pct: f64::from_bits(w[5]),
        push_hit_ratio_pct: f64::from_bits(w[6]),
        tcg_share_of_global_pct: f64::from_bits(w[7]),
        total_power_uws: f64::from_bits(w[8]),
        power_per_gch_uws: f64::from_bits(w[9]),
        power_per_request_uws: f64::from_bits(w[10]),
        signature_messages: w[11],
        signature_bytes: w[12],
        search_timeouts: w[13],
        filter_bypasses: w[14],
        validations: w[15],
    }
}

/// The payload prefix every record shares: cell index, then status.
fn record(index: usize, status: u8) -> Writer {
    let mut w = Writer::new();
    w.usize(index);
    w.u8(status);
    w
}

/// Encodes a completed cell.
pub fn encode_ok(index: usize, report: &Report) -> Vec<u8> {
    let mut w = record(index, 1);
    for word in report_words(report) {
        w.u64(word);
    }
    w.into_vec()
}

/// Encodes a quarantined cell (informational; resume re-runs it).
pub fn encode_failed(index: usize, kind: FailureKind, attempts: u32, message: &str) -> Vec<u8> {
    let mut w = record(index, 0);
    w.u8(kind_to_byte(kind));
    w.u32(attempts);
    w.str(message);
    w.into_vec()
}

/// Encodes the drain trailer a graceful shutdown appends last.
pub fn encode_drained() -> Vec<u8> {
    record(0, 2).into_vec()
}

/// Decodes one journal payload. Total: malformed input is `None`.
pub fn decode(payload: &[u8]) -> Option<(usize, CellRecord)> {
    let mut r = Reader::new(payload);
    let index = r.usize().ok()?;
    let record = match r.u8().ok()? {
        1 => {
            let mut words = [0u64; 16];
            for word in &mut words {
                *word = r.u64().ok()?;
            }
            CellRecord::Ok(report_from_words(&words))
        }
        0 => CellRecord::Failed {
            kind: kind_from_byte(r.u8().ok()?)?,
            attempts: r.u32().ok()?,
            message: r.str().ok()?.to_string(),
        },
        2 if index == 0 => CellRecord::Drained,
        _ => return None,
    };
    r.done().ok()?;
    Some((index, record))
}

#[cfg(test)]
mod tests {
    use super::*;
    use grococa_core::{SimConfig, Simulation};

    fn sample_report() -> Report {
        let cfg = SimConfig {
            num_clients: 10,
            requests_per_mh: 15,
            ..SimConfig::default()
        };
        Simulation::new(cfg).run().report
    }

    #[test]
    fn ok_record_round_trips_exactly() {
        let report = sample_report();
        let (index, decoded) = decode(&encode_ok(42, &report)).expect("decodes");
        assert_eq!(index, 42);
        match decoded {
            CellRecord::Ok(r) => assert_eq!(report_words(&r), report_words(&report)),
            other => panic!("wrong record {other:?}"),
        }
    }

    #[test]
    fn record_bytes_are_pinned() {
        let report = Report {
            completed: 1,
            access_latency_ms: 2.0,
            latency_stddev_ms: 3.0,
            local_hit_ratio_pct: 4.0,
            global_hit_ratio_pct: 5.0,
            server_request_ratio_pct: 6.0,
            push_hit_ratio_pct: 7.0,
            tcg_share_of_global_pct: 8.0,
            total_power_uws: 9.0,
            power_per_gch_uws: f64::INFINITY,
            power_per_request_uws: -0.5,
            signature_messages: 12,
            signature_bytes: 13,
            search_timeouts: 14,
            filter_bypasses: 15,
            validations: 16,
        };
        let mut want = vec![42, 0, 0, 0, 0, 0, 0, 0, 1];
        for word in [
            0x0000_0000_0000_0001u64,
            0x4000_0000_0000_0000,
            0x4008_0000_0000_0000,
            0x4010_0000_0000_0000,
            0x4014_0000_0000_0000,
            0x4018_0000_0000_0000,
            0x401C_0000_0000_0000,
            0x4020_0000_0000_0000,
            0x4022_0000_0000_0000,
            0x7FF0_0000_0000_0000,
            0xBFE0_0000_0000_0000,
            12,
            13,
            14,
            15,
            16,
        ] {
            want.extend(word.to_le_bytes());
        }
        assert_eq!(encode_ok(42, &report), want);

        assert_eq!(
            encode_failed(7, FailureKind::Deadline, 2, "boom"),
            [7, 0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 4, 0, 0, 0, b'b', b'o', b'o', b'm']
        );
        assert_eq!(encode_drained(), [0, 0, 0, 0, 0, 0, 0, 0, 2]);
    }

    #[test]
    fn infinities_survive_the_round_trip() {
        let report = Report {
            power_per_gch_uws: f64::INFINITY,
            ..sample_report()
        };
        match decode(&encode_ok(0, &report)).expect("decodes").1 {
            CellRecord::Ok(r) => assert!(r.power_per_gch_uws.is_infinite()),
            other => panic!("wrong record {other:?}"),
        }
    }

    #[test]
    fn failed_record_round_trips() {
        let payload = encode_failed(7, FailureKind::Deadline, 2, "boom: cell exploded");
        let (index, decoded) = decode(&payload).expect("decodes");
        assert_eq!(index, 7);
        assert_eq!(
            decoded,
            CellRecord::Failed {
                kind: FailureKind::Deadline,
                attempts: 2,
                message: "boom: cell exploded".to_string(),
            }
        );
    }

    #[test]
    fn every_failure_kind_round_trips() {
        for kind in [
            FailureKind::Panic,
            FailureKind::Deadline,
            FailureKind::MemLimit,
            FailureKind::DrainKilled,
        ] {
            let (_, decoded) = decode(&encode_failed(3, kind, 1, "x")).expect("decodes");
            match decoded {
                CellRecord::Failed { kind: got, .. } => assert_eq!(got, kind),
                other => panic!("wrong record {other:?}"),
            }
        }
    }

    #[test]
    fn drained_trailer_round_trips() {
        let (index, decoded) = decode(&encode_drained()).expect("decodes");
        assert_eq!(index, 0);
        assert_eq!(decoded, CellRecord::Drained);
    }

    #[test]
    fn malformed_payloads_decode_to_none() {
        assert_eq!(decode(&[]), None);
        assert_eq!(decode(&[0; 8]), None);
        let mut ok = encode_ok(1, &sample_report());
        ok.truncate(ok.len() - 1);
        assert_eq!(decode(&ok), None);
        let mut failed = encode_failed(1, FailureKind::Panic, 1, "text");
        failed.push(0xFF);
        assert_eq!(decode(&failed), None);
        let mut bad_kind = encode_failed(1, FailureKind::Panic, 1, "text");
        bad_kind[9] = 200;
        assert_eq!(decode(&bad_kind), None);
        let mut bad_status = encode_ok(1, &sample_report());
        bad_status[8] = 9;
        assert_eq!(decode(&bad_status), None);
        let mut drained = encode_drained();
        drained.push(0);
        assert_eq!(decode(&drained), None);
        // A drain trailer with a non-zero index is malformed.
        let mut bad_drain = encode_drained();
        bad_drain[0] = 1;
        assert_eq!(decode(&bad_drain), None);
    }

    #[test]
    fn fingerprint_distinguishes_sweeps() {
        let base = SimConfig::default();
        let fp = sweep_fingerprint(&base, "theta", &[0.2, 0.8], 6);
        assert_eq!(fp, sweep_fingerprint(&base, "theta", &[0.2, 0.8], 6));
        assert_ne!(
            fp.config_hash,
            sweep_fingerprint(&base, "theta", &[0.2, 0.9], 6).config_hash
        );
        assert_ne!(
            fp.config_hash,
            sweep_fingerprint(&base, "p_disc", &[0.2, 0.8], 6).config_hash
        );
        let other = SimConfig {
            seed: 9,
            ..SimConfig::default()
        };
        assert_ne!(
            fp.config_hash,
            sweep_fingerprint(&other, "theta", &[0.2, 0.8], 6).config_hash
        );
    }
}
