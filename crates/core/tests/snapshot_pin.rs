//! Pins the snapshot wire format. A small GroCoca world with NDP tables,
//! hybrid push delivery, updates and the `chaos` fault profile carries
//! every optional section of the body (directory, NDP links, pending
//! requests, update intervals, push schedule, fault counters); the
//! checksum of its body at a fixed event count must never drift unless
//! the format or the simulation changes on purpose.

use grococa_core::{DataDelivery, FaultPlan, Scheme, SimConfig, Simulation};
use grococa_sim::codec::{checksum, Reader};

/// Fired events at which the pinned snapshot is taken.
const AT_EVENT: u64 = 1_500;

fn pinned_world() -> SimConfig {
    let mut cfg = SimConfig::for_scheme(Scheme::GroCoca);
    cfg.seed = 7;
    cfg.num_clients = 20;
    cfg.requests_per_mh = 20;
    cfg.n_data = 240;
    cfg.access_range = 100;
    cfg.cache_size = 20;
    cfg.sigma = 128;
    cfg.update_rate = 2.0;
    cfg.delivery = DataDelivery::hybrid();
    cfg.ndp_tables = true;
    cfg.faults = FaultPlan::profile("chaos").expect("named profile");
    cfg.validate().expect("pinned world is valid");
    cfg
}

#[test]
fn snapshot_body_is_pinned() {
    let mut first: Option<Vec<u8>> = None;
    Simulation::new(pinned_world())
        .try_run_inspect_checkpointed(AT_EVENT, &mut |bytes: &[u8]| {
            first.get_or_insert_with(|| bytes.to_vec());
        })
        .expect("run completes");
    let snapshot = first.expect("the run reaches the pinned event count");

    let mut header = Reader::new(&snapshot);
    assert_eq!(header.bytes(4), Ok(&b"GCKP"[..]), "magic");
    assert_eq!(header.u32(), Ok(2), "snapshot version");
    assert_eq!(header.u64(), Ok(checksum(&snapshot[16..])), "checksum");

    assert_eq!(snapshot.len(), 44_722);
    assert_eq!(checksum(&snapshot[24..]), 0xE77A_D09C_AD37_B30B);
}
