//! Trusted Cells: the devices around one individual, synchronized
//! through an untrusted cloud.
//!
//! "Trusted Cells: regulate personal data produced around an individual,
//! at home, using the cloud as a storage service for encrypted data."
//! Each cell (home gateway, set-top box, car, phone token …) holds a
//! versioned slice of the owner's state; cells publish encrypted,
//! version-stamped snapshots to the cloud and pull each other's updates.
//! The cloud sees ciphertext and version numbers only; conflict
//! resolution (last-writer-wins per slice) happens inside the cells.
//!
//! ## Message-based synchronization
//!
//! Synchronization is expressed as an exchange of [`CellMsg`] values so
//! that a transport can sit between a cell and the cloud: the fleet
//! runtime (`pds-fleet`) routes these messages over its store-and-forward
//! mailbox bus, where cells are online only a fraction of the time and
//! deliveries retry with backoff. [`TrustedCell::sync`] is the direct
//! in-process composition of the same messages against a local
//! [`CloudStore`] — one protocol, two transports. Messages have a compact
//! wire form ([`CellMsg::to_bytes`]) because bus payloads are opaque
//! byte strings.
//!
//! The message path does only what the message in hand determines: the
//! cloud reads a stored blob's eight version bytes in place and copies
//! the blob only into the [`CellMsg::PullResp`] that carries it, a
//! message is serialised in one allocation of its wire length, and both
//! request builders are one walk over the cell's slices.

use std::collections::BTreeMap;

use pds_core::{CloudStore, PdsError};
use pds_crypto::SymmetricKey;
use pds_obs::rng::RngCore;
use pds_obs::wire::{put_prefixed32, Reader};

/// One snapshot header: (version, ciphertext chunks).
type SnapshotBlob = (u64, Vec<u8>);

/// A cell↔cloud synchronization message. `blob` fields carry
/// `version (8 bytes LE) || ciphertext`: the version is the only
/// plaintext the cloud ever sees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellMsg {
    /// Cell asks the cloud for its stored snapshot of `slice`.
    PullReq {
        /// Slice name.
        slice: String,
    },
    /// Cloud's reply: the stored versioned blob, if any.
    PullResp {
        /// Slice name.
        slice: String,
        /// `version || ciphertext`, or `None` when the cloud holds nothing.
        blob: Option<Vec<u8>>,
    },
    /// Cell publishes its (newer) encrypted snapshot.
    Push {
        /// Slice name.
        slice: String,
        /// `version || ciphertext`.
        blob: Vec<u8>,
    },
    /// Delta reconcile: "send `slice` only if the cloud holds something
    /// newer than version `since`" — the cell states what it already
    /// has, so an in-sync slice costs a handful of bytes instead of a
    /// full ciphertext round trip.
    PullSince {
        /// Slice name.
        slice: String,
        /// Newest version the requesting cell already holds.
        since: u64,
    },
    /// Cloud's delta reply when the cell is already current: no blob,
    /// just the version the cloud holds.
    NotModified {
        /// Slice name.
        slice: String,
        /// Version stored at the cloud (0 when it holds nothing).
        version: u64,
    },
}

impl CellMsg {
    const TAG_PULL_REQ: u8 = 1;
    const TAG_PULL_RESP: u8 = 2;
    const TAG_PUSH: u8 = 3;
    const TAG_PULL_SINCE: u8 = 4;
    const TAG_NOT_MODIFIED: u8 = 5;

    /// Slice this message is about.
    pub fn slice(&self) -> &str {
        match self {
            CellMsg::PullReq { slice }
            | CellMsg::PullResp { slice, .. }
            | CellMsg::Push { slice, .. }
            | CellMsg::PullSince { slice, .. }
            | CellMsg::NotModified { slice, .. } => slice,
        }
    }

    /// Compact wire form (bus payloads are opaque bytes), allocated once
    /// at its wire length.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (tag, body_len) = match self {
            CellMsg::PullReq { .. } => (Self::TAG_PULL_REQ, 0),
            CellMsg::PullResp { blob, .. } => (
                Self::TAG_PULL_RESP,
                1 + blob.as_ref().map_or(0, |b| 4 + b.len()),
            ),
            CellMsg::Push { blob, .. } => (Self::TAG_PUSH, 4 + blob.len()),
            CellMsg::PullSince { .. } => (Self::TAG_PULL_SINCE, 8),
            CellMsg::NotModified { .. } => (Self::TAG_NOT_MODIFIED, 8),
        };
        let slice = self.slice().as_bytes();
        let mut out = Vec::with_capacity(1 + 4 + slice.len() + body_len);
        out.push(tag);
        put_prefixed32(&mut out, slice);
        match self {
            CellMsg::PullReq { .. } => {}
            CellMsg::PullResp { blob, .. } => {
                out.push(u8::from(blob.is_some()));
                if let Some(b) = blob {
                    put_prefixed32(&mut out, b);
                }
            }
            CellMsg::Push { blob, .. } => put_prefixed32(&mut out, blob),
            CellMsg::PullSince { since: v, .. } | CellMsg::NotModified { version: v, .. } => {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        pds_obs::counter!("sync.bytes_sent").add(out.len() as u64);
        out
    }

    /// Parse the wire form; `None` on any truncation, trailing byte or
    /// unknown tag.
    pub fn from_bytes(bytes: &[u8]) -> Option<CellMsg> {
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let slice = std::str::from_utf8(r.prefixed32()?).ok()?.to_string();
        let msg = match tag {
            Self::TAG_PULL_REQ => CellMsg::PullReq { slice },
            Self::TAG_PULL_RESP => {
                let blob = match r.u8()? {
                    0 => None,
                    1 => Some(r.prefixed32()?.to_vec()),
                    _ => return None,
                };
                CellMsg::PullResp { slice, blob }
            }
            Self::TAG_PUSH => CellMsg::Push {
                slice,
                blob: r.prefixed32()?.to_vec(),
            },
            Self::TAG_PULL_SINCE => CellMsg::PullSince {
                slice,
                since: r.u64()?,
            },
            Self::TAG_NOT_MODIFIED => CellMsg::NotModified {
                slice,
                version: r.u64()?,
            },
            _ => return None,
        };
        r.finish()?;
        pds_obs::counter!("sync.bytes_received").add(bytes.len() as u64);
        Some(msg)
    }
}

/// What one [`CellMsg::PullResp`] did to the receiving cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSyncOutcome {
    /// The cloud was ahead: the cell adopted the remote snapshot.
    Pulled,
    /// The cell was ahead (or the cloud empty): it emitted a push.
    Pushed,
    /// Versions matched; nothing moved.
    Unchanged,
}

/// Serve one cell message at the cloud. Returns the response message to
/// route back, if the request calls for one. The cloud never decrypts:
/// it compares the 8-byte plaintext version prefix so a stale or
/// duplicated [`CellMsg::Push`] (the bus is at-least-once) can never
/// regress a newer snapshot. A push carrying the *stored* version but
/// different bytes is a write/write conflict (two cells bumped the same
/// slice to the same number): the cloud deterministically keeps what it
/// has and counts `sync.conflicts` — first-writer-wins at equal
/// version, so every replica converges on the copy that landed first.
///
/// Versions are read and pushes compared on the stored blob where it
/// lies; it is copied only into a [`CellMsg::PullResp`] that carries it.
pub fn serve_cloud(cloud: &mut CloudStore, msg: &CellMsg) -> Option<CellMsg> {
    fn stored<'a>(cloud: &'a CloudStore, name: &str) -> Option<&'a [u8]> {
        cloud.get(name)?.first().map(Vec::as_slice)
    }
    match msg {
        CellMsg::PullReq { slice } => Some(CellMsg::PullResp {
            slice: slice.clone(),
            blob: stored(cloud, &TrustedCell::blob_name(slice)).map(<[u8]>::to_vec),
        }),
        CellMsg::PullSince { slice, since } => {
            let stored = stored(cloud, &TrustedCell::blob_name(slice));
            let version = stored.map_or(0, blob_version);
            if version > *since {
                Some(CellMsg::PullResp {
                    slice: slice.clone(),
                    blob: stored.map(<[u8]>::to_vec),
                })
            } else {
                Some(CellMsg::NotModified {
                    slice: slice.clone(),
                    version,
                })
            }
        }
        CellMsg::Push { slice, blob } => {
            let name = TrustedCell::blob_name(slice);
            let incoming = blob_version(blob);
            let stored = stored(cloud, &name);
            let stored_v = stored.map_or(0, blob_version);
            if incoming > stored_v {
                cloud.put(&name, vec![blob.clone()]);
            } else if incoming == stored_v && stored != Some(blob.as_slice()) {
                pds_obs::counter("sync.conflicts").inc();
            }
            None
        }
        CellMsg::PullResp { .. } | CellMsg::NotModified { .. } => None,
    }
}

/// Plaintext version prefix of a versioned blob (0 when malformed —
/// malformed pushes then lose to any real snapshot).
fn blob_version(blob: &[u8]) -> u64 {
    Reader::new(blob).u64().unwrap_or(0)
}

/// A trusted cell holding named slices of the owner's state.
pub struct TrustedCell {
    /// Cell name ("home", "car", "phone").
    pub name: String,
    key: SymmetricKey,
    /// slice name → (version, plaintext state).
    slices: BTreeMap<String, (u64, Vec<u8>)>,
}

/// Outcome of one synchronization pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellSyncReport {
    /// Slices this cell pushed (it was ahead).
    pub pushed: u32,
    /// Slices this cell pulled (it was behind).
    pub pulled: u32,
    /// Slices already in sync.
    pub unchanged: u32,
}

impl CellSyncReport {
    /// Fold one message outcome into the pass report.
    pub fn record(&mut self, outcome: CellSyncOutcome) {
        match outcome {
            CellSyncOutcome::Pulled => self.pulled += 1,
            CellSyncOutcome::Pushed => self.pushed += 1,
            CellSyncOutcome::Unchanged => self.unchanged += 1,
        }
    }
}

impl TrustedCell {
    /// A cell of the owner identified by `owner_seed` (all of one
    /// owner's cells derive the same key — provisioned at pairing).
    pub fn new(name: &str, owner_seed: &[u8]) -> Self {
        TrustedCell {
            name: name.to_string(),
            key: SymmetricKey::from_seed(owner_seed),
            slices: BTreeMap::new(),
        }
    }

    /// Local write: bump the slice version.
    pub fn write(&mut self, slice: &str, data: &[u8]) {
        let v = self.slices.get(slice).map_or(0, |(v, _)| *v);
        self.slices
            .insert(slice.to_string(), (v + 1, data.to_vec()));
    }

    /// Read a slice.
    pub fn read(&self, slice: &str) -> Option<&[u8]> {
        self.slices.get(slice).map(|(_, d)| d.as_slice())
    }

    /// Version of a slice.
    pub fn version(&self, slice: &str) -> u64 {
        self.slices.get(slice).map_or(0, |(v, _)| *v)
    }

    /// Slice names this cell currently tracks.
    pub fn slice_names(&self) -> Vec<String> {
        self.slices.keys().cloned().collect()
    }

    /// Cloud blob name of a slice.
    pub fn blob_name(owner_slice: &str) -> String {
        ["cell-slice:", owner_slice].concat()
    }

    /// One request per slice this cell should reconcile, built by `msg`
    /// from the slice name and the version held (0 for a slice it has
    /// never seen): the tracked slices in name order, then the `extra`
    /// names it does not track, each once, in `extra`'s order.
    fn requests(&self, extra: &[String], msg: impl Fn(String, u64) -> CellMsg) -> Vec<CellMsg> {
        let mut out: Vec<CellMsg> = self
            .slices
            .iter()
            .map(|(slice, (v, _))| msg(slice.clone(), *v))
            .collect();
        let tracked = out.len();
        for e in extra {
            if !self.slices.contains_key(e) && !out[tracked..].iter().any(|m| m.slice() == e) {
                out.push(msg(e.clone(), 0));
            }
        }
        out
    }

    /// One [`CellMsg::PullReq`] per slice this cell should reconcile:
    /// everything it tracks plus any `extra` slice names it has learned
    /// about (slice names are public cloud metadata).
    pub fn sync_requests(&self, extra: &[String]) -> Vec<CellMsg> {
        self.requests(extra, |slice, _| CellMsg::PullReq { slice })
    }

    /// Delta form of [`sync_requests`](Self::sync_requests): one
    /// [`CellMsg::PullSince`] per slice, carrying the version this cell
    /// already holds. An in-sync slice then costs a
    /// [`CellMsg::NotModified`] instead of a full ciphertext — the
    /// version number is already public cloud metadata, so stating it in
    /// the request leaks nothing new.
    pub fn sync_requests_since(&self, extra: &[String]) -> Vec<CellMsg> {
        self.requests(extra, |slice, since| CellMsg::PullSince { slice, since })
    }

    /// Apply one [`CellMsg::PullResp`]: adopt the remote snapshot when the
    /// cloud is ahead, emit a [`CellMsg::Push`] when this cell is ahead.
    /// Duplicated responses (the bus is at-least-once) are harmless: a
    /// re-applied pull is version-equal and a re-emitted push is
    /// version-guarded at the cloud.
    pub fn handle_response(
        &mut self,
        resp: &CellMsg,
        rng: &mut impl RngCore,
    ) -> Result<(Option<CellMsg>, CellSyncOutcome), PdsError> {
        if let CellMsg::NotModified { slice, version } = resp {
            // Delta reply: the cloud holds nothing newer. If it is
            // *behind*, push; otherwise nothing moved (a version ahead of
            // ours would have come as a full PullResp — treat a
            // misrouted one as unchanged rather than guessing).
            let local_v = self.version(slice);
            if *version < local_v {
                if let Some((v, data)) = self.slices.get(slice) {
                    let blob = Self::encode_blob(&self.key, *v, data, rng);
                    return Ok((
                        Some(CellMsg::Push {
                            slice: slice.clone(),
                            blob,
                        }),
                        CellSyncOutcome::Pushed,
                    ));
                }
            }
            return Ok((None, CellSyncOutcome::Unchanged));
        }
        let CellMsg::PullResp { slice, blob } = resp else {
            return Err(PdsError::ArchiveCorrupt("cell expected a pull response"));
        };
        let local_v = self.version(slice);
        let remote = blob.as_deref().map(|b| Self::decode_blob(b, &self.key));
        match remote.transpose()? {
            Some((rv, data)) if rv > local_v => {
                self.slices.insert(slice.clone(), (rv, data));
                Ok((None, CellSyncOutcome::Pulled))
            }
            Some((rv, _)) if rv == local_v => Ok((None, CellSyncOutcome::Unchanged)),
            _ => match self.slices.get(slice) {
                // We are ahead (or the cloud has nothing): push.
                Some((v, data)) => {
                    let blob = Self::encode_blob(&self.key, *v, data, rng);
                    Ok((
                        Some(CellMsg::Push {
                            slice: slice.clone(),
                            blob,
                        }),
                        CellSyncOutcome::Pushed,
                    ))
                }
                // Neither side has it (a foreign slice not yet written).
                None => Ok((None, CellSyncOutcome::Unchanged)),
            },
        }
    }

    /// Synchronize with the cloud: the direct in-process run of the
    /// message protocol — push slices where this cell is ahead, pull
    /// where it is behind (version numbers are the only plaintext the
    /// cloud sees).
    pub fn sync(
        &mut self,
        cloud: &mut CloudStore,
        rng: &mut impl RngCore,
    ) -> Result<CellSyncReport, PdsError> {
        let mut report = CellSyncReport::default();
        for req in self.sync_requests(&[]) {
            let resp = serve_cloud(cloud, &req)
                .ok_or(PdsError::ArchiveCorrupt("cloud ignored a pull request"))?;
            let (push, outcome) = self.handle_response(&resp, rng)?;
            report.record(outcome);
            if let Some(push) = push {
                serve_cloud(cloud, &push);
            }
        }
        Ok(report)
    }

    /// Discover and pull a slice this cell has never seen.
    pub fn pull_new(&mut self, cloud: &CloudStore, slice: &str) -> Result<bool, PdsError> {
        let name = Self::blob_name(slice);
        let Some(blob) = cloud.get(&name).and_then(|chunks| chunks.first()) else {
            return Ok(false);
        };
        let (v, data) = Self::decode_blob(blob, &self.key)?;
        if v > self.version(slice) {
            self.slices.insert(slice.to_string(), (v, data));
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn encode_blob(
        key: &SymmetricKey,
        version: u64,
        data: &[u8],
        rng: &mut impl RngCore,
    ) -> Vec<u8> {
        let ct = key.encrypt_prob(data, rng);
        let mut blob = version.to_le_bytes().to_vec();
        blob.extend_from_slice(&ct.0);
        blob
    }

    fn decode_blob(blob: &[u8], key: &SymmetricKey) -> Result<SnapshotBlob, PdsError> {
        let mut r = Reader::new(blob);
        let version = r.u64().ok_or(PdsError::ArchiveCorrupt("short cell blob"))?;
        let data = key
            .decrypt(&pds_crypto::Ciphertext(r.rest().to_vec()))
            .ok_or(PdsError::ArchiveCorrupt("cell blob authentication"))?;
        Ok((version, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::SeedableRng;
    use pds_obs::rng::StdRng;

    fn setup() -> (TrustedCell, TrustedCell, CloudStore, StdRng) {
        (
            TrustedCell::new("home", b"owner-alice"),
            TrustedCell::new("phone", b"owner-alice"),
            CloudStore::new(),
            StdRng::seed_from_u64(9),
        )
    }

    #[test]
    fn state_propagates_between_cells() {
        let (mut home, mut phone, mut cloud, mut rng) = setup();
        home.write("energy-profile", b"heating schedule v1");
        home.sync(&mut cloud, &mut rng).unwrap();
        assert!(phone.pull_new(&cloud, "energy-profile").unwrap());
        assert_eq!(
            phone.read("energy-profile").unwrap(),
            b"heating schedule v1"
        );
    }

    #[test]
    fn newer_version_wins() {
        let (mut home, mut phone, mut cloud, mut rng) = setup();
        home.write("prefs", b"v1");
        home.sync(&mut cloud, &mut rng).unwrap();
        phone.pull_new(&cloud, "prefs").unwrap();
        // Phone writes twice (v2, v3), home once more (v2): phone wins.
        phone.write("prefs", b"phone-v2");
        phone.write("prefs", b"phone-v3");
        phone.sync(&mut cloud, &mut rng).unwrap();
        home.write("prefs", b"home-v2");
        let report = home.sync(&mut cloud, &mut rng).unwrap();
        assert_eq!(report.pulled, 1, "home was behind (v2 < v3)");
        assert_eq!(home.read("prefs").unwrap(), b"phone-v3");
    }

    #[test]
    fn cloud_never_sees_plaintext() {
        let (mut home, _, mut cloud, mut rng) = setup();
        home.write("medical", b"diagnosis: asthma");
        home.sync(&mut cloud, &mut rng).unwrap();
        let blob: Vec<u8> = cloud
            .get("cell-slice:medical")
            .unwrap()
            .iter()
            .flatten()
            .copied()
            .collect();
        assert!(!blob.windows(6).any(|w| w == b"asthma"));
    }

    #[test]
    fn foreign_cell_cannot_read() {
        let (mut home, _, mut cloud, mut rng) = setup();
        home.write("medical", b"private");
        home.sync(&mut cloud, &mut rng).unwrap();
        let mut intruder = TrustedCell::new("evil", b"owner-mallory");
        assert!(intruder.pull_new(&cloud, "medical").is_err());
    }

    #[test]
    fn tampered_blob_is_rejected() {
        let (mut home, mut phone, mut cloud, mut rng) = setup();
        home.write("slice", b"data");
        home.sync(&mut cloud, &mut rng).unwrap();
        cloud.tamper("cell-slice:slice", 0, 12);
        assert!(matches!(
            phone.pull_new(&cloud, "slice"),
            Err(PdsError::ArchiveCorrupt(_))
        ));
    }

    #[test]
    fn sync_report_counts() {
        let (mut home, _, mut cloud, mut rng) = setup();
        home.write("a", b"1");
        home.write("b", b"2");
        let r1 = home.sync(&mut cloud, &mut rng).unwrap();
        assert_eq!(r1.pushed, 2);
        let r2 = home.sync(&mut cloud, &mut rng).unwrap();
        assert_eq!(r2.unchanged, 2);
    }

    #[test]
    fn cell_blobs_keep_the_decoder_contract() {
        use pds_obs::rng::Rng;
        let key = SymmetricKey::from_seed(b"owner-alice");
        pds_obs::wire::sweep(
            "cell blob",
            pds_obs::wire::Tail::RestOfBuffer,
            &[&[0xFF; 7]],
            |rng| (rng.gen::<u64>(), b"slice ".repeat(rng.gen_range(0..9usize))),
            |(version, data)| {
                let mut rng = StdRng::seed_from_u64(*version);
                TrustedCell::encode_blob(&key, *version, data, &mut rng)
            },
            |blob| TrustedCell::decode_blob(blob, &key).ok(),
        );
    }

    #[test]
    fn messages_round_trip_the_wire_form() {
        let msgs = vec![
            CellMsg::PullReq {
                slice: "prefs".into(),
            },
            CellMsg::PullResp {
                slice: "prefs".into(),
                blob: None,
            },
            CellMsg::PullResp {
                slice: "prefs".into(),
                blob: Some(vec![1, 2, 3]),
            },
            CellMsg::Push {
                slice: "médical".into(),
                blob: vec![0; 40],
            },
        ];
        for m in msgs {
            assert_eq!(CellMsg::from_bytes(&m.to_bytes()), Some(m.clone()));
        }
        assert_eq!(CellMsg::from_bytes(&[]), None);
        assert_eq!(CellMsg::from_bytes(&[9, 0, 0, 0, 0]), None);
        let truncated = CellMsg::PullReq {
            slice: "long-name".into(),
        }
        .to_bytes();
        assert_eq!(CellMsg::from_bytes(&truncated[..truncated.len() - 2]), None);
    }

    #[test]
    fn message_protocol_equals_direct_sync() {
        // The same exchange through explicit messages reaches the same
        // state as TrustedCell::sync.
        let (mut home, mut phone, mut cloud, mut rng) = setup();
        home.write("slice", b"from-home");
        for req in home.sync_requests(&[]) {
            let resp = serve_cloud(&mut cloud, &req).unwrap();
            let (push, outcome) = home.handle_response(&resp, &mut rng).unwrap();
            assert_eq!(outcome, CellSyncOutcome::Pushed);
            serve_cloud(&mut cloud, &push.unwrap());
        }
        for req in phone.sync_requests(&["slice".into()]) {
            let resp = serve_cloud(&mut cloud, &req).unwrap();
            let (push, outcome) = phone.handle_response(&resp, &mut rng).unwrap();
            assert!(push.is_none());
            assert_eq!(outcome, CellSyncOutcome::Pulled);
        }
        assert_eq!(phone.read("slice").unwrap(), b"from-home");
    }

    #[test]
    fn delta_variants_round_trip_the_wire_form() {
        let msgs = vec![
            CellMsg::PullSince {
                slice: "prefs".into(),
                since: 7,
            },
            CellMsg::NotModified {
                slice: "prefs".into(),
                version: u64::MAX,
            },
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(CellMsg::from_bytes(&bytes), Some(m.clone()));
            assert_eq!(CellMsg::from_bytes(&bytes[..bytes.len() - 2]), None);
        }
    }

    #[test]
    fn delta_reconcile_reaches_the_same_state_as_full_pulls() {
        let (mut home, mut phone, mut cloud, mut rng) = setup();
        home.write("prefs", b"v1");
        home.sync(&mut cloud, &mut rng).unwrap();
        // Phone reconciles via PullSince: behind → full blob arrives.
        for req in phone.sync_requests_since(&["prefs".into()]) {
            let resp = serve_cloud(&mut cloud, &req).unwrap();
            assert!(matches!(resp, CellMsg::PullResp { .. }));
            let (push, outcome) = phone.handle_response(&resp, &mut rng).unwrap();
            assert!(push.is_none());
            assert_eq!(outcome, CellSyncOutcome::Pulled);
        }
        assert_eq!(phone.read("prefs").unwrap(), b"v1");
        // Second round: in sync → a byte-cheap NotModified, nothing moves.
        for req in phone.sync_requests_since(&[]) {
            let resp = serve_cloud(&mut cloud, &req).unwrap();
            assert!(matches!(resp, CellMsg::NotModified { version: 1, .. }));
            let (push, outcome) = phone.handle_response(&resp, &mut rng).unwrap();
            assert!(push.is_none());
            assert_eq!(outcome, CellSyncOutcome::Unchanged);
        }
        // Phone writes: ahead → NotModified answers the PullSince, and
        // the cell responds by pushing.
        phone.write("prefs", b"v2-from-phone");
        for req in phone.sync_requests_since(&[]) {
            let resp = serve_cloud(&mut cloud, &req).unwrap();
            assert!(matches!(resp, CellMsg::NotModified { .. }));
            let (push, outcome) = phone.handle_response(&resp, &mut rng).unwrap();
            assert_eq!(outcome, CellSyncOutcome::Pushed);
            serve_cloud(&mut cloud, &push.unwrap());
        }
        let report = home.sync(&mut cloud, &mut rng).unwrap();
        assert_eq!(report.pulled, 1);
        assert_eq!(home.read("prefs").unwrap(), b"v2-from-phone");
    }

    #[test]
    fn equal_version_different_bytes_is_a_conflict_not_a_clobber() {
        // Two cells bump the same slice to the same version number and
        // race their pushes: the cloud must keep the first arrival, not
        // silently clobber it with the second.
        let (home, _, mut cloud, mut rng) = setup();
        let first = TrustedCell::encode_blob(&home.key, 2, b"from-home", &mut rng);
        let second = TrustedCell::encode_blob(&home.key, 2, b"from-phone", &mut rng);
        assert_ne!(first, second);
        serve_cloud(
            &mut cloud,
            &CellMsg::Push {
                slice: "s".into(),
                blob: first.clone(),
            },
        );
        serve_cloud(
            &mut cloud,
            &CellMsg::Push {
                slice: "s".into(),
                blob: second,
            },
        );
        let stored = cloud.get("cell-slice:s").unwrap().first().unwrap().clone();
        assert_eq!(stored, first, "first writer wins at equal version");
        // A byte-identical duplicate (at-least-once bus) is no conflict.
        serve_cloud(
            &mut cloud,
            &CellMsg::Push {
                slice: "s".into(),
                blob: first.clone(),
            },
        );
        let stored = cloud.get("cell-slice:s").unwrap().first().unwrap().clone();
        assert_eq!(stored, first);
    }

    #[test]
    fn stale_or_duplicated_push_cannot_regress_the_cloud() {
        let (mut home, _, mut cloud, mut rng) = setup();
        home.write("s", b"v1-data");
        let v1 = TrustedCell::encode_blob(&home.key, 1, b"v1-data", &mut rng);
        let v2 = TrustedCell::encode_blob(&home.key, 2, b"v2-data", &mut rng);
        serve_cloud(
            &mut cloud,
            &CellMsg::Push {
                slice: "s".into(),
                blob: v2.clone(),
            },
        );
        // A delayed duplicate of the older push arrives afterwards.
        serve_cloud(
            &mut cloud,
            &CellMsg::Push {
                slice: "s".into(),
                blob: v1,
            },
        );
        let stored = cloud.get("cell-slice:s").unwrap().first().unwrap().clone();
        assert_eq!(stored, v2, "newer snapshot survives the stale duplicate");
    }
}
