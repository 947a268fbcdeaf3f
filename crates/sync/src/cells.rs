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
//! the blob only into the reply that carries it, and a message is
//! serialised in one allocation of its wire length.
//!
//! ## The generation digest
//!
//! A cell reconciles one way: it asks once, whatever the number of
//! slices. The [`CloudStore`] stamps every put with a store-wide
//! generation, a cell sends [`CellMsg::PullChanged`] with the last
//! generation it has applied (or 0, to be listed everything), and the
//! cloud answers [`CellMsg::Changed`] with every slice put since, in
//! name order — which is also how a cell discovers slices it has never
//! seen. A cell pushes what it wrote until a reply lists that version
//! back ([`TrustedCell::digest_requests`],
//! [`TrustedCell::apply_changed`]), and seals each version once, so a
//! re-push is byte-identical and never reads as a conflict at the cloud.

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
    /// Cloud's reply to a [`CellMsg::PullSince`] it holds something newer
    /// for: the stored versioned blob. No cell sends or reads it; it
    /// stays only as [`serve_cloud`]'s answer to the performance
    /// ledger's `sync.serve_cloud_us` probe.
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
    /// Per-slice delta query: "send `slice` only if the cloud holds
    /// something newer than version `since`". No cell sends it — cells
    /// reconcile through the generation digest ([`CellMsg::PullChanged`])
    /// — and [`serve_cloud`] answers it only for the performance
    /// ledger's `sync.serve_cloud_us` probe.
    PullSince {
        /// Slice name.
        slice: String,
        /// Newest version the requesting cell already holds.
        since: u64,
    },
    /// Cloud's reply to a [`CellMsg::PullSince`] it holds nothing newer
    /// for: no blob, just the version the cloud holds. Like its request,
    /// it stays only for the performance ledger's probe.
    NotModified {
        /// Slice name.
        slice: String,
        /// Version stored at the cloud (0 when it holds nothing).
        version: u64,
    },
    /// Generation digest: "every slice put after store generation
    /// `since`" — one request per cell, whatever the number of slices.
    PullChanged {
        /// Last store generation the requesting cell has applied.
        since: u64,
    },
    /// Cloud's digest reply: every cell slice put after the request's
    /// `since`, in slice-name order, and the store generation the reply
    /// covers.
    Changed {
        /// Store generation when the reply was built.
        generation: u64,
        /// `(slice, version || ciphertext)` of each slice put since.
        blobs: Vec<(String, Vec<u8>)>,
    },
}

impl CellMsg {
    const TAG_PULL_RESP: u8 = 2;
    const TAG_PUSH: u8 = 3;
    const TAG_PULL_SINCE: u8 = 4;
    const TAG_NOT_MODIFIED: u8 = 5;
    const TAG_PULL_CHANGED: u8 = 6;
    const TAG_CHANGED: u8 = 7;

    /// Slice this message is about; empty for the generation digest
    /// pair ([`CellMsg::PullChanged`], [`CellMsg::Changed`]), which is
    /// about no single slice and carries no slice name of its own.
    pub fn slice(&self) -> &str {
        match self {
            CellMsg::PullResp { slice, .. }
            | CellMsg::Push { slice, .. }
            | CellMsg::PullSince { slice, .. }
            | CellMsg::NotModified { slice, .. } => slice,
            CellMsg::PullChanged { .. } | CellMsg::Changed { .. } => "",
        }
    }

    /// Compact wire form (bus payloads are opaque bytes), allocated once
    /// at its wire length: a tag, the slice name (except in the digest
    /// pair), then the body.
    pub fn to_bytes(&self) -> Vec<u8> {
        let (tag, body_len) = match self {
            CellMsg::PullResp { blob, .. } => (
                Self::TAG_PULL_RESP,
                1 + blob.as_ref().map_or(0, |b| 4 + b.len()),
            ),
            CellMsg::Push { blob, .. } => (Self::TAG_PUSH, 4 + blob.len()),
            CellMsg::PullSince { .. } => (Self::TAG_PULL_SINCE, 8),
            CellMsg::NotModified { .. } => (Self::TAG_NOT_MODIFIED, 8),
            CellMsg::PullChanged { .. } => (Self::TAG_PULL_CHANGED, 8),
            CellMsg::Changed { blobs, .. } => (
                Self::TAG_CHANGED,
                8 + 4
                    + blobs
                        .iter()
                        .map(|(s, b)| 8 + s.len() + b.len())
                        .sum::<usize>(),
            ),
        };
        let digest = matches!(self, CellMsg::PullChanged { .. } | CellMsg::Changed { .. });
        let slice = self.slice().as_bytes();
        let head = if digest { 0 } else { 4 + slice.len() };
        let mut out = Vec::with_capacity(1 + head + body_len);
        out.push(tag);
        if !digest {
            put_prefixed32(&mut out, slice);
        }
        match self {
            CellMsg::PullResp { blob, .. } => {
                out.push(u8::from(blob.is_some()));
                if let Some(b) = blob {
                    put_prefixed32(&mut out, b);
                }
            }
            CellMsg::Push { blob, .. } => put_prefixed32(&mut out, blob),
            CellMsg::PullSince { since: v, .. }
            | CellMsg::NotModified { version: v, .. }
            | CellMsg::PullChanged { since: v } => {
                out.extend_from_slice(&v.to_le_bytes());
            }
            CellMsg::Changed { generation, blobs } => {
                out.extend_from_slice(&generation.to_le_bytes());
                out.extend_from_slice(&(blobs.len() as u32).to_le_bytes());
                for (slice, blob) in blobs {
                    put_prefixed32(&mut out, slice.as_bytes());
                    put_prefixed32(&mut out, blob);
                }
            }
        }
        pds_obs::counter!("sync.bytes_sent").add(out.len() as u64);
        out
    }

    /// Parse the wire form; `None` on any truncation, trailing byte or
    /// unknown tag. A [`CellMsg::Changed`] count is checked against the
    /// bytes that follow (each entry is at least its two length
    /// prefixes) before it sizes anything.
    pub fn from_bytes(bytes: &[u8]) -> Option<CellMsg> {
        fn name(r: &mut Reader) -> Option<String> {
            Some(std::str::from_utf8(r.prefixed32()?).ok()?.to_string())
        }
        let mut r = Reader::new(bytes);
        let tag = r.u8()?;
        let msg = match tag {
            Self::TAG_PULL_CHANGED => CellMsg::PullChanged { since: r.u64()? },
            Self::TAG_CHANGED => {
                let generation = r.u64()?;
                let count = r.count32(8)?;
                let mut blobs = Vec::with_capacity(count);
                for _ in 0..count {
                    blobs.push((name(&mut r)?, r.prefixed32()?.to_vec()));
                }
                CellMsg::Changed { generation, blobs }
            }
            _ => Self::slice_message(tag, name(&mut r)?, &mut r)?,
        };
        r.finish()?;
        pds_obs::counter!("sync.bytes_received").add(bytes.len() as u64);
        Some(msg)
    }

    /// The body of a message about one `slice`, after its name.
    fn slice_message(tag: u8, slice: String, r: &mut Reader) -> Option<CellMsg> {
        Some(match tag {
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
        })
    }
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
/// A [`CellMsg::PullChanged`] is answered with every cell slice the
/// store took after the request's generation — ciphertexts the cloud
/// already holds, listed in name order with the generation the reply
/// covers.
///
/// Versions are read and pushes compared on the stored blob where it
/// lies; it is copied only into a reply that carries it.
pub fn serve_cloud(cloud: &mut CloudStore, msg: &CellMsg) -> Option<CellMsg> {
    fn stored<'a>(cloud: &'a CloudStore, name: &str) -> Option<&'a [u8]> {
        cloud.get(name)?.first().map(Vec::as_slice)
    }
    match msg {
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
        CellMsg::PullChanged { since } => Some(CellMsg::Changed {
            generation: cloud.generation(),
            blobs: cloud
                .changed_since(*since)
                .into_iter()
                .filter_map(|(name, chunks)| {
                    let slice = name.strip_prefix(TrustedCell::BLOB_PREFIX)?;
                    Some((slice.to_string(), chunks.first()?.clone()))
                })
                .collect(),
        }),
        CellMsg::PullResp { .. } | CellMsg::NotModified { .. } | CellMsg::Changed { .. } => None,
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
    /// Last store generation whose changes this cell has applied.
    generation: u64,
    /// Slices written here that no digest reply has yet listed at the
    /// version written, each with that version's sealed blob once the
    /// first push sealed it.
    dirty: BTreeMap<String, Option<Vec<u8>>>,
}

/// Outcome of one synchronization pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellSyncReport {
    /// [`CellMsg::Push`]es sent: slices written here that no reply had
    /// yet listed at the version written.
    pub pushed: u32,
    /// Listed slices adopted (the cloud was ahead).
    pub pulled: u32,
    /// Listed slices at the version held (a push come back, or a copy
    /// the cell already had).
    pub unchanged: u32,
}

impl std::ops::AddAssign for CellSyncReport {
    fn add_assign(&mut self, other: CellSyncReport) {
        self.pushed += other.pushed;
        self.pulled += other.pulled;
        self.unchanged += other.unchanged;
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
            generation: 0,
            dirty: BTreeMap::new(),
        }
    }

    /// Local write: bump the slice version (and mark it for the next
    /// digest push).
    pub fn write(&mut self, slice: &str, data: &[u8]) {
        let v = self.slices.get(slice).map_or(0, |(v, _)| *v);
        self.slices
            .insert(slice.to_string(), (v + 1, data.to_vec()));
        self.dirty.insert(slice.to_string(), None);
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

    /// Last store generation whose changes this cell has applied.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Prefix of every cell slice's cloud blob name.
    const BLOB_PREFIX: &'static str = "cell-slice:";

    /// Cloud blob name of a slice.
    pub fn blob_name(owner_slice: &str) -> String {
        [Self::BLOB_PREFIX, owner_slice].concat()
    }

    /// One digest round's requests: a [`CellMsg::Push`] of every slice
    /// written here that no reply has yet listed at the version written,
    /// in name order, then one [`CellMsg::PullChanged`] since the last
    /// generation this cell has applied. A version is sealed on its
    /// first push and the sealed bytes kept: should that push not land,
    /// the next one is byte-identical, which the cloud takes as a
    /// duplicate and never as an equal-version conflict.
    pub fn digest_requests(&mut self, rng: &mut impl RngCore) -> Vec<CellMsg> {
        let mut out = Vec::with_capacity(self.dirty.len() + 1);
        for (slice, sealed) in &mut self.dirty {
            let Some((v, data)) = self.slices.get(slice) else {
                continue;
            };
            let blob = sealed.get_or_insert_with(|| Self::encode_blob(&self.key, *v, data, rng));
            out.push(CellMsg::Push {
                slice: slice.clone(),
                blob: blob.clone(),
            });
        }
        out.push(CellMsg::PullChanged {
            since: self.generation,
        });
        out
    }

    /// Apply one [`CellMsg::Changed`]. A listed slice newer than this
    /// cell's copy is adopted (`pulled`); one at the version held is this
    /// cell's push come back, or a copy it already has (`unchanged`), and
    /// clears the slice's push mark; an older one changes nothing, so a
    /// slice written here stays marked until its version is listed. The
    /// cell's generation becomes the larger of its own and the reply's,
    /// so a duplicated or late reply (the bus is at-least-once and
    /// unordered) regresses nothing.
    pub fn apply_changed(&mut self, reply: &CellMsg) -> Result<CellSyncReport, PdsError> {
        let CellMsg::Changed { generation, blobs } = reply else {
            return Err(PdsError::ArchiveCorrupt("cell expected a digest reply"));
        };
        let mut report = CellSyncReport::default();
        for (slice, blob) in blobs {
            let local_v = self.version(slice);
            match blob_version(blob).cmp(&local_v) {
                std::cmp::Ordering::Greater => {
                    let adopted = Self::decode_blob(blob, &self.key)?;
                    self.slices.insert(slice.clone(), adopted);
                    self.dirty.remove(slice);
                    report.pulled += 1;
                }
                std::cmp::Ordering::Equal => {
                    self.dirty.remove(slice);
                    report.unchanged += 1;
                }
                std::cmp::Ordering::Less => {}
            }
        }
        self.generation = self.generation.max(*generation);
        Ok(report)
    }

    /// Synchronize with the cloud: one digest round run in-process —
    /// [`TrustedCell::digest_requests`] served by [`serve_cloud`], the
    /// reply applied by [`TrustedCell::apply_changed`]. `pushed` counts
    /// the pushes sent; `pulled` and `unchanged` count what the reply
    /// listed. Version numbers are the only plaintext the cloud sees.
    pub fn sync(
        &mut self,
        cloud: &mut CloudStore,
        rng: &mut impl RngCore,
    ) -> Result<CellSyncReport, PdsError> {
        let mut report = CellSyncReport::default();
        for req in self.digest_requests(rng) {
            report.pushed += u32::from(matches!(req, CellMsg::Push { .. }));
            if let Some(reply) = serve_cloud(cloud, &req) {
                report += self.apply_changed(&reply)?;
            }
        }
        Ok(report)
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
        assert_eq!(phone.sync(&mut cloud, &mut rng).unwrap().pulled, 1);
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
        phone.sync(&mut cloud, &mut rng).unwrap();
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
        assert!(intruder.sync(&mut cloud, &mut rng).is_err());
        assert_eq!(intruder.read("medical"), None);
    }

    #[test]
    fn tampered_blob_is_rejected() {
        let (mut home, mut phone, mut cloud, mut rng) = setup();
        home.write("slice", b"data");
        home.sync(&mut cloud, &mut rng).unwrap();
        cloud.tamper("cell-slice:slice", 0, 12);
        assert!(matches!(
            phone.sync(&mut cloud, &mut rng),
            Err(PdsError::ArchiveCorrupt(_))
        ));
        assert_eq!(phone.read("slice"), None);
    }

    #[test]
    fn sync_report_counts() {
        let (mut home, _, mut cloud, mut rng) = setup();
        home.write("a", b"1");
        home.write("b", b"2");
        // Both pushes go out, and the reply lists both back at the
        // versions written.
        let r1 = home.sync(&mut cloud, &mut rng).unwrap();
        let both = CellSyncReport {
            pushed: 2,
            pulled: 0,
            unchanged: 2,
        };
        assert_eq!(r1, both);
        // Nothing was put since: no push, and an empty listing.
        let r2 = home.sync(&mut cloud, &mut rng).unwrap();
        assert_eq!(r2, CellSyncReport::default());
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
        // Tag 1 was a per-slice pull request; no message carries it now.
        assert_eq!(CellMsg::from_bytes(&[1, 1, 0, 0, 0, b's']), None);
        let truncated = CellMsg::Push {
            slice: "long-name".into(),
            blob: vec![5; 12],
        }
        .to_bytes();
        assert_eq!(CellMsg::from_bytes(&truncated[..truncated.len() - 2]), None);
    }

    #[test]
    fn message_protocol_equals_direct_sync() {
        // The digest round through explicit messages reaches the same
        // cells, cloud and report as TrustedCell::sync on the same stream.
        let run = |by_messages: bool| {
            let (mut home, mut phone, mut cloud, mut rng) = setup();
            home.write("slice", b"from-home");
            home.write("other", b"also-home");
            let mut reports = Vec::new();
            for cell in [&mut home, &mut phone] {
                if !by_messages {
                    reports.push(cell.sync(&mut cloud, &mut rng).unwrap());
                    continue;
                }
                let mut report = CellSyncReport::default();
                for req in cell.digest_requests(&mut rng) {
                    if matches!(req, CellMsg::Push { .. }) {
                        report.pushed += 1;
                    }
                    if let Some(reply) = serve_cloud(&mut cloud, &req) {
                        report += cell.apply_changed(&reply).unwrap();
                    }
                }
                reports.push(report);
            }
            assert_eq!(phone.read("slice").unwrap(), b"from-home");
            let cloud_blobs: Vec<_> = ["other", "slice"]
                .map(|s| cloud.get(&TrustedCell::blob_name(s)).cloned())
                .into();
            let state = |c: &TrustedCell| (c.generation(), c.slices.clone());
            (reports, state(&home), state(&phone), cloud_blobs)
        };
        let direct = run(false);
        assert_eq!(direct.0[1].pulled, 2, "phone adopts both slices");
        assert_eq!(run(true), direct);
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
            CellMsg::PullChanged { since: 7 },
            CellMsg::Changed {
                generation: 9,
                blobs: vec![("a".into(), vec![1; 12]), ("médical".into(), vec![])],
            },
        ];
        for m in msgs {
            let bytes = m.to_bytes();
            assert_eq!(CellMsg::from_bytes(&bytes), Some(m.clone()));
            assert_eq!(CellMsg::from_bytes(&bytes[..bytes.len() - 2]), None);
        }
        // The digest pair names no slice: an idle exchange is a 9-byte
        // request and a 13-byte empty reply.
        assert_eq!(CellMsg::PullChanged { since: 0 }.to_bytes().len(), 9);
        let empty = CellMsg::Changed {
            generation: 0,
            blobs: Vec::new(),
        };
        assert_eq!(empty.to_bytes().len(), 13);
    }

    #[test]
    fn digest_reply_lists_what_changed_since_a_generation() {
        let (mut home, mut phone, mut cloud, mut rng) = setup();
        // An archive in the same store moves the generation but is not a
        // cell slice, so no reply lists it.
        cloud.put("archive", vec![vec![0; 8]]);
        home.write("b", b"b1");
        home.write("a", b"a1");
        let reqs = home.digest_requests(&mut rng);
        assert_eq!(reqs.len(), 3, "two pushes and one pull");
        assert_eq!(reqs[2], CellMsg::PullChanged { since: 0 });
        let replies: Vec<CellMsg> = reqs
            .iter()
            .filter_map(|m| serve_cloud(&mut cloud, m))
            .collect();
        let [CellMsg::Changed { generation, blobs }] = &replies[..] else {
            panic!("one digest reply: {replies:?}");
        };
        assert_eq!(*generation, 3);
        let names: Vec<&str> = blobs.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(names, ["a", "b"], "name order, not push order");
        // The writer sees its own versions come back and stops pushing.
        let report = home.apply_changed(&replies[0]).unwrap();
        assert_eq!((report.pulled, report.unchanged), (0, 2));
        assert_eq!(home.generation(), 3);
        assert_eq!(
            home.digest_requests(&mut rng),
            [CellMsg::PullChanged { since: 3 }]
        );
        // Another cell adopts both; asked again, the cloud lists nothing.
        let reply = serve_cloud(&mut cloud, &CellMsg::PullChanged { since: 0 }).unwrap();
        assert_eq!(phone.apply_changed(&reply).unwrap().pulled, 2);
        assert_eq!(phone.read("a").unwrap(), b"a1");
        let idle = serve_cloud(&mut cloud, &CellMsg::PullChanged { since: 3 }).unwrap();
        assert_eq!(
            idle,
            CellMsg::Changed {
                generation: 3,
                blobs: Vec::new()
            }
        );
    }

    #[test]
    fn an_unlisted_push_is_resent_byte_identical_and_an_older_listing_keeps_it() {
        let (mut home, mut phone, mut cloud, mut rng) = setup();
        phone.write("s", b"v1");
        for m in phone.digest_requests(&mut rng) {
            serve_cloud(&mut cloud, &m);
        }
        let v1 = serve_cloud(&mut cloud, &CellMsg::PullChanged { since: 0 }).unwrap();
        home.apply_changed(&v1).unwrap();
        home.write("s", b"v2");
        // The first push never reaches the cloud; the next round's is the
        // same bytes, even from another random stream.
        let first = home.digest_requests(&mut rng);
        let mut other = StdRng::seed_from_u64(1);
        assert_eq!(home.digest_requests(&mut other), first);
        // A reply listing the older version keeps the slice marked.
        home.apply_changed(&v1).unwrap();
        assert_eq!(home.digest_requests(&mut rng), first);
        assert_eq!(home.version("s"), 2);
        for m in &first {
            serve_cloud(&mut cloud, m);
        }
        let reply = serve_cloud(&mut cloud, &CellMsg::PullChanged { since: 1 }).unwrap();
        home.apply_changed(&reply).unwrap();
        assert_eq!(
            home.digest_requests(&mut rng),
            [CellMsg::PullChanged { since: 2 }]
        );
        // A later local write starts a fresh seal.
        home.write("s", b"v3");
        let third = home.digest_requests(&mut rng);
        assert_ne!(third[0], first[0]);
        assert!(matches!(&third[0], CellMsg::Push { blob, .. } if blob_version(blob) == 3));
    }

    #[test]
    fn apply_changed_refuses_what_is_not_a_digest_reply() {
        let (mut home, ..) = setup();
        let pull = CellMsg::PullChanged { since: 0 };
        assert!(home.apply_changed(&pull).is_err());
        assert_eq!(home.generation(), 0);
    }

    #[test]
    fn delta_reconcile_reaches_the_same_state_as_full_pulls() {
        let (mut home, mut phone, mut cloud, mut rng) = setup();
        home.write("prefs", b"v1");
        home.write("notes", b"n1");
        home.sync(&mut cloud, &mut rng).unwrap();
        phone.sync(&mut cloud, &mut rng).unwrap();
        home.write("prefs", b"v2");
        home.sync(&mut cloud, &mut rng).unwrap();
        // The digest since the phone's generation lists only the slice
        // put since; the digest since 0 (full mode) lists every slice.
        // Either leaves the phone in the same state.
        let mut full = TrustedCell::new("phone", b"owner-alice");
        let all = serve_cloud(&mut cloud, &CellMsg::PullChanged { since: 0 }).unwrap();
        full.apply_changed(&all).unwrap();
        let since = CellMsg::PullChanged {
            since: phone.generation(),
        };
        let delta = serve_cloud(&mut cloud, &since).unwrap();
        assert!(matches!(&delta, CellMsg::Changed { blobs, .. } if blobs.len() == 1));
        assert_eq!(phone.apply_changed(&delta).unwrap().pulled, 1);
        assert_eq!(phone.slices, full.slices);
        assert_eq!(phone.read("prefs").unwrap(), b"v2");
        // The per-slice query still answers: the blob when the asker is
        // behind, a byte-cheap NotModified carrying the cloud's version
        // when it is not.
        let pull_since = |since| CellMsg::PullSince {
            slice: "prefs".into(),
            since,
        };
        let stored = cloud.get("cell-slice:prefs").unwrap().first().cloned();
        assert_eq!(
            serve_cloud(&mut cloud, &pull_since(1)),
            Some(CellMsg::PullResp {
                slice: "prefs".into(),
                blob: stored
            })
        );
        for since in [2, 3] {
            assert_eq!(
                serve_cloud(&mut cloud, &pull_since(since)),
                Some(CellMsg::NotModified {
                    slice: "prefs".into(),
                    version: 2
                })
            );
        }
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
