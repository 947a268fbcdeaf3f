//! The generation-digest reconcile under the two faults an
//! at-least-once, unordered bus adds: a push that has not landed is sent
//! again, and a reply arrives twice or after a newer one. Neither may
//! count a conflict or move a cell backwards. `sync.conflicts` is
//! process-global, so these tests live in a binary of their own that
//! raises no conflict on purpose.

use pds::core::CloudStore;
use pds::fleet::{CellNet, CellNetConfig};
use pds::sync::{serve_cloud, CellMsg, TrustedCell};
use pds_obs::rng::{SeedableRng, StdRng};

const OWNER: &[u8] = b"owner-digest";

fn delta_net(cells: usize, workers: usize, seed: u64) -> CellNet {
    let cfg = CellNetConfig::new(cells, workers, seed).with_delta();
    CellNet::build(cfg, |i| TrustedCell::new(&format!("cell-{i}"), OWNER)).unwrap()
}

/// A writer goes offline after its write, so the round seals and mails
/// its push but the push parks at the writer. Back online, the parked
/// copy and the next round's re-push both reach the cloud at the same
/// version: only byte-identical copies keep `sync.conflicts` still.
#[test]
fn a_parked_push_and_its_resend_are_one_write_not_a_conflict() {
    let conflicts = pds_obs::counter("sync.conflicts");
    let before = conflicts.get();
    for workers in [1, 2, 8] {
        let mut net = delta_net(8, workers, 0xD16E);
        net.write(0, "profile", b"v1");
        net.sync_until_quiet(40).unwrap();
        assert!(net.converged(), "{workers} workers: {:?}", net.versions());

        net.write(3, "profile", b"v2 from cell 3");
        net.force_offline(3, true);
        let offline = net.sync_round().unwrap();
        assert_eq!(
            (offline.pushed, offline.pulled),
            (1, 0),
            "{workers} workers: the push was mailed and reached no one"
        );
        net.force_offline(3, false);
        let rounds = net.sync_until_quiet(40).unwrap();
        assert!(rounds < 40, "{workers} workers: never went quiet");
        assert!(net.converged(), "{workers} workers: {:?}", net.versions());
        for cell in 0..net.len() {
            assert_eq!(
                net.read(cell, "profile").unwrap(),
                b"v2 from cell 3",
                "{workers} workers: cell {cell}"
            );
        }
        // The first write, the push that parked, and its one re-send.
        assert_eq!(net.report().pushed, 3, "{workers} workers");
    }
    assert_eq!(conflicts.get(), before, "a re-push counted as a conflict");
}

/// A reply delivered twice, or after a newer one, leaves every slice
/// version and the cell's generation where they were — and leaves a
/// write of the cell's own that the old reply predates still to push.
#[test]
fn a_duplicated_or_late_reply_regresses_no_cell() {
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    let mut cloud = CloudStore::new();
    let mut writer = TrustedCell::new("home", OWNER);
    let mut reader = TrustedCell::new("phone", OWNER);
    let mut publish = |cell: &mut TrustedCell, cloud: &mut CloudStore| {
        for m in cell.digest_requests(&mut rng) {
            serve_cloud(cloud, &m);
        }
    };
    let pull = |cloud: &mut CloudStore| serve_cloud(cloud, &CellMsg::PullChanged { since: 0 });

    writer.write("s", b"s1");
    writer.write("t", b"t1");
    publish(&mut writer, &mut cloud);
    let old = pull(&mut cloud).unwrap();
    writer.write("s", b"s2");
    publish(&mut writer, &mut cloud);
    let new = pull(&mut cloud).unwrap();

    let state = |cell: &TrustedCell| {
        let slices: Vec<(String, u64, Vec<u8>)> = cell
            .slice_names()
            .into_iter()
            .map(|s| (s.clone(), cell.version(&s), cell.read(&s).unwrap().to_vec()))
            .collect();
        (slices, cell.generation())
    };
    reader.apply_changed(&new).unwrap();
    let applied = state(&reader);
    assert_eq!(applied.1, 3);
    assert_eq!(reader.read("s").unwrap(), b"s2");
    for (what, reply) in [("late", &old), ("duplicated", &new), ("late again", &old)] {
        let report = reader.apply_changed(reply).unwrap();
        assert_eq!(report.pulled, 0, "{what} reply adopted something");
        assert_eq!(state(&reader), applied, "{what} reply moved the cell");
    }

    // The reader writes on top of what it holds; the old reply lists `s`
    // at an older version, so the new write stays marked for its push.
    reader.write("s", b"s3 from phone");
    let pending = reader.digest_requests(&mut rng);
    reader.apply_changed(&old).unwrap();
    reader.apply_changed(&new).unwrap();
    assert_eq!(reader.digest_requests(&mut rng), pending);
    assert_eq!(reader.version("s"), 3);
}
