//! Adversarial property tests of the write-ahead result journal:
//! arbitrary payload sets round-trip exactly; — the durability
//! contract — truncation and bit-flip corruption at **every byte offset**
//! recover the valid record prefix, discard the damaged tail, and never
//! panic; and any single injected disk fault (ENOSPC, EIO, short write,
//! fsync failure) at **any append boundary** rolls back to a readable,
//! resumable prefix.

use grococa::journal::{
    decode_header, encode_header, encode_record, recover, scan_records, FaultMode, FaultScript,
    FaultyBackend, Fingerprint, Journal, MemBackend,
};
use grococa::sim::codec::checksum;
use proptest::prelude::*;
use std::path::Path;

fn fingerprint(config_hash: u64, cells: u64) -> Fingerprint {
    Fingerprint {
        config_hash,
        cells,
        version: "0.1.0-test".to_string(),
    }
}

/// A full journal image: header plus one record per payload, and the byte
/// offset where each record ends.
fn journal_image(fp: &Fingerprint, payloads: &[Vec<u8>]) -> (Vec<u8>, Vec<usize>) {
    let mut bytes = encode_header(fp);
    let mut record_ends = Vec::with_capacity(payloads.len());
    for p in payloads {
        bytes.extend_from_slice(&encode_record(p));
        record_ends.push(bytes.len());
    }
    (bytes, record_ends)
}

/// Opens an in-memory journal image the way `Journal::open_or_create`
/// does: decode the header, then scan the record region.
fn open_image(bytes: &[u8], expected: &Fingerprint) -> Result<(Vec<Vec<u8>>, bool), String> {
    let (found, header_len) = decode_header(bytes)?;
    if found != *expected {
        return Err("fingerprint mismatch".to_string());
    }
    let scan = scan_records(&bytes[header_len..]);
    Ok((scan.records, scan.damage.is_some()))
}

proptest! {
    #[test]
    fn records_round_trip(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..80), 0..12),
        config_hash in any::<u64>(),
    ) {
        let fp = fingerprint(config_hash, payloads.len() as u64);
        let (bytes, _) = journal_image(&fp, &payloads);
        let (records, damaged) = open_image(&bytes, &fp).expect("clean image opens");
        prop_assert_eq!(&records, &payloads);
        prop_assert!(!damaged);
    }

    #[test]
    fn checksum_detects_any_single_byte_change(
        payload in proptest::collection::vec(any::<u8>(), 1..120),
        at in 0usize..120,
        flip in 1u8..=255,
    ) {
        let at = at % payload.len();
        let mut mutated = payload.clone();
        mutated[at] ^= flip;
        prop_assert_ne!(checksum(&payload), checksum(&mutated));
    }

    #[test]
    fn truncation_at_every_offset_recovers_the_valid_prefix(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 1..8),
    ) {
        let fp = fingerprint(7, payloads.len() as u64);
        let (bytes, record_ends) = journal_image(&fp, &payloads);
        let header_len = header_len_of(&fp);
        for cut in 0..bytes.len() {
            let truncated = &bytes[..cut];
            match open_image(truncated, &fp) {
                // Cut inside the header: refused, never trusted.
                Err(_) => prop_assert!(cut < header_len, "cut={cut} refused past header"),
                Ok((records, damaged)) => {
                    prop_assert!(cut >= header_len);
                    // Exactly the records that end at or before the cut.
                    let intact = record_ends.iter().filter(|&&end| end <= cut).count();
                    prop_assert_eq!(records.len(), intact, "cut={}", cut);
                    for (r, p) in records.iter().zip(payloads.iter()) {
                        prop_assert_eq!(r, p, "cut={}", cut);
                    }
                    // Damage flagged iff the cut split a record.
                    let clean = record_ends.contains(&cut) || cut == header_len;
                    prop_assert_eq!(damaged, !clean, "cut={}", cut);
                }
            }
        }
    }

    #[test]
    fn bit_flip_at_every_offset_never_panics_and_keeps_a_prefix(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 1..6),
        flip_bit in 0u8..8,
    ) {
        let fp = fingerprint(13, payloads.len() as u64);
        let (bytes, record_ends) = journal_image(&fp, &payloads);
        let header_len = header_len_of(&fp);
        for at in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 1 << flip_bit;
            match open_image(&corrupt, &fp) {
                // Header flips must be refused (checksum or field change);
                // a record-region flip never takes the header down.
                Err(_) => prop_assert!(at < header_len, "at={at}"),
                Ok((records, damaged)) => {
                    prop_assert!(at >= header_len, "at={at}");
                    // The records before the damaged one survive intact,
                    // everything from it on is discarded.
                    let damaged_record = record_ends.iter().filter(|&&end| end <= at).count();
                    prop_assert_eq!(records.len(), damaged_record, "at={}", at);
                    for (r, p) in records.iter().zip(payloads.iter()) {
                        prop_assert_eq!(r, p, "at={}", at);
                    }
                    prop_assert!(damaged, "flip at {} went undetected", at);
                }
            }
        }
    }

    /// Disk-fault injection at every append boundary: one scripted
    /// ENOSPC/EIO/short-write/fsync failure (at an arbitrary operation
    /// index, in any mode) must leave the store holding exactly the
    /// successfully-appended records — readable with no damaged tail,
    /// and resumable for further appends.
    #[test]
    fn any_single_injected_fault_leaves_prefix_readable_and_resumable(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 1..8),
        fail_op in 0u64..20,
        mode_pick in 0usize..4,
    ) {
        let mode = [
            FaultMode::DiskFull,
            FaultMode::Eio,
            FaultMode::ShortWrite,
            FaultMode::SyncFail,
        ][mode_pick];
        let fp = fingerprint(99, payloads.len() as u64);
        let store = MemBackend::new();
        let label = Path::new("mem://fault-prop");
        // Header first, fault armed only afterwards: operation indices
        // count append-time writes and syncs, like the CLI chaos hook.
        let mut journal = Journal::with_backend(Box::new(store.handle()), label, &fp)
            .expect("header write on a healthy store");
        journal.wrap_backend(|inner| {
            Box::new(FaultyBackend::new(inner, FaultScript {
                fail_op,
                mode,
                persist: false,
                fail_rollback: false,
            }))
        });
        let mut appended: Vec<Vec<u8>> = Vec::new();
        for p in &payloads {
            // At most one append hits the fault; its rollback must leave
            // the store clean enough for the rest to land normally.
            if journal.append(p).is_ok() {
                appended.push(p.clone());
            }
        }
        // Readable: the raw image recovers exactly the appended records
        // with no damaged tail (rollback removed any torn bytes).
        let recovery = recover(&store.contents(), &fp).expect("prefix stays readable");
        prop_assert_eq!(&recovery.records, &appended);
        prop_assert!(recovery.damage.is_none(), "torn tail: {:?}", recovery.damage);
        // Resumable: reopen over the clean prefix and keep appending.
        drop(journal);
        let mut resumed =
            Journal::resume_with_backend(Box::new(store.handle()), label, recovery.keep as u64)
                .expect("resume over the clean prefix");
        resumed.append(b"post-fault record").expect("append after resume");
        let reread = recover(&store.contents(), &fp).expect("still readable after resume");
        let mut expected = appended;
        expected.push(b"post-fault record".to_vec());
        prop_assert_eq!(&reread.records, &expected);
    }
}

fn header_len_of(fp: &Fingerprint) -> usize {
    encode_header(fp).len()
}
