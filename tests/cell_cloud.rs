//! Differential: the cloud's side of the Trusted-Cells message path
//! against its body as it stood before the cloud stopped copying what
//! it only compares. The only test binary that raises `sync.conflicts`
//! on purpose message by message, which is why it is one of its own:
//! the counter is global.

use pds::core::CloudStore;
use pds::sync::{serve_cloud, CellMsg, TrustedCell};
use pds_obs::rng::{Rng, SeedableRng, StdRng};

fn blob_version(blob: &[u8]) -> u64 {
    blob.get(0..8)
        .and_then(|b| b.try_into().ok())
        .map_or(0, u64::from_le_bytes)
}

/// `serve_cloud` as it stood: the stored blob cloned out of the cloud
/// for every message that looks at it. Returns the reply and whether a
/// conflict was counted.
fn reference_serve_cloud(cloud: &mut CloudStore, msg: &CellMsg) -> (Option<CellMsg>, bool) {
    match msg {
        CellMsg::PullSince { slice, since } => {
            let stored = cloud
                .get(&TrustedCell::blob_name(slice))
                .and_then(|chunks| chunks.first().cloned());
            let version = stored.as_deref().map_or(0, blob_version);
            let resp = if version > *since {
                CellMsg::PullResp {
                    slice: slice.clone(),
                    blob: stored,
                }
            } else {
                CellMsg::NotModified {
                    slice: slice.clone(),
                    version,
                }
            };
            (Some(resp), false)
        }
        CellMsg::Push { slice, blob } => {
            let name = TrustedCell::blob_name(slice);
            let incoming = blob_version(blob);
            let stored = cloud.get(&name).and_then(|chunks| chunks.first().cloned());
            let stored_v = stored.as_deref().map_or(0, blob_version);
            let mut conflict = false;
            if incoming > stored_v {
                cloud.put(&name, vec![blob.clone()]);
            } else if incoming == stored_v && stored.as_deref() != Some(blob.as_slice()) {
                conflict = true;
            }
            (None, conflict)
        }
        CellMsg::PullResp { .. } | CellMsg::NotModified { .. } => (None, false),
        // The generation digest came after this reference; the seeded
        // stream below never sends it.
        CellMsg::PullChanged { .. } | CellMsg::Changed { .. } => {
            unreachable!("no digest message in the reference stream")
        }
    }
}

#[test]
fn serve_cloud_equals_its_reference_on_a_seeded_stream() {
    let mut rng = StdRng::seed_from_u64(0xC10D);
    let (mut cloud, mut reference) = (CloudStore::new(), CloudStore::new());
    let conflicts = pds_obs::counter("sync.conflicts");
    let (mut replies, mut seen_conflicts, mut not_modified) = (0, 0, 0);
    for step in 0..4_000 {
        let slice = format!("slice-{}", rng.gen_range(0..6));
        let msg = match rng.gen_range(0..7) {
            0..=2 => CellMsg::PullSince {
                slice,
                since: rng.gen_range(0..5),
            },
            3..=5 => {
                // Versions and bodies from small pools: stale pushes,
                // byte-identical duplicates and equal-version races all
                // occur; one push in eight is too short to carry a version.
                let mut blob = rng.gen_range(0..5u64).to_le_bytes().to_vec();
                blob.extend_from_slice(&[rng.gen_range(0..3u8); 12]);
                if rng.gen_bool(0.125) {
                    blob.truncate(rng.gen_range(0..8));
                }
                CellMsg::Push { slice, blob }
            }
            _ => CellMsg::NotModified { slice, version: 1 },
        };
        let before = conflicts.get();
        let got = serve_cloud(&mut cloud, &msg);
        let counted = conflicts.get() - before;
        let (want, conflict) = reference_serve_cloud(&mut reference, &msg);
        assert_eq!(got, want, "step {step}: {msg:?}");
        assert_eq!(counted, u64::from(conflict), "step {step}: {msg:?}");
        let name = TrustedCell::blob_name(msg.slice());
        assert_eq!(cloud.get(&name), reference.get(&name), "step {step}");
        replies += usize::from(got.is_some());
        seen_conflicts += counted;
        not_modified += usize::from(matches!(got, Some(CellMsg::NotModified { .. })));
    }
    assert!(replies > 1_000 && not_modified > 100 && seen_conflicts > 100);
}
