//! The Personal Social-Medical Folder.
//!
//! "Each patient owns her medical-social folder in a secure token. The
//! folder is archived (encrypted) on a central server. Local and central
//! copies are synchronized without Internet connection" — via smart
//! badges carried by the practitioners: "sync via smart badges, no data
//! re-entered, no network link required."
//!
//! Entries are identified by `(author, seq)` with per-author sequence
//! numbers, so the replica state is a grow-only set and synchronization
//! is a convergent union exchange (author-indexed version vectors tell
//! each side exactly what the other is missing). Everything that leaves
//! a token or the central server travels encrypted under the patient's
//! folder key.

use std::collections::BTreeMap;

use pds_crypto::SymmetricKey;
use pds_obs::rng::RngCore;
use pds_obs::wire::{put_prefixed, Reader};

/// One EHR/social entry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct EhrEntry {
    /// Author ("patient", "dr.martin", "nurse-2" …).
    pub author: String,
    /// Author-local sequence number (dense from 0).
    pub seq: u64,
    /// Care day.
    pub day: u64,
    /// Entry text.
    pub text: String,
}

impl EhrEntry {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_prefixed(&mut out, self.author.as_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.day.to_le_bytes());
        out.extend_from_slice(self.text.as_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Option<EhrEntry> {
        let mut r = Reader::new(bytes);
        Some(EhrEntry {
            author: std::str::from_utf8(r.prefixed()?).ok()?.to_string(),
            seq: r.u64()?,
            day: r.u64()?,
            text: std::str::from_utf8(r.rest()).ok()?.to_string(),
        })
    }
}

/// A replica: per-author entry chains + the version vector they induce.
#[derive(Debug, Clone, Default)]
struct Replica {
    /// author → entries ordered by seq (dense).
    entries: BTreeMap<String, Vec<EhrEntry>>,
}

impl Replica {
    /// Version vector: author → next expected seq.
    fn version(&self) -> BTreeMap<String, u64> {
        self.entries
            .iter()
            .map(|(a, v)| (a.clone(), v.len() as u64))
            .collect()
    }

    /// Entries the holder of `their` version is missing.
    fn missing_for(&self, their: &BTreeMap<String, u64>) -> Vec<EhrEntry> {
        let mut out = Vec::new();
        for (author, list) in &self.entries {
            let have = their.get(author).copied().unwrap_or(0) as usize;
            out.extend(list.iter().skip(have).cloned());
        }
        out
    }

    /// Integrate entries (idempotent; gaps are rejected).
    fn integrate(&mut self, entries: Vec<EhrEntry>) {
        let mut sorted = entries;
        sorted.sort();
        for e in sorted {
            let list = self.entries.entry(e.author.clone()).or_default();
            if e.seq as usize == list.len() {
                list.push(e);
            }
            // seq < len ⇒ duplicate (ignore); seq > len ⇒ gap (ignore —
            // a later exchange with the missing prefix will carry it).
        }
    }

    fn append(&mut self, author: &str, day: u64, text: &str) -> EhrEntry {
        let list = self.entries.entry(author.to_string()).or_default();
        let e = EhrEntry {
            author: author.to_string(),
            seq: list.len() as u64,
            day,
            text: text.to_string(),
        };
        list.push(e.clone());
        e
    }

    fn all(&self) -> Vec<EhrEntry> {
        let mut out: Vec<EhrEntry> = self.entries.values().flatten().cloned().collect();
        out.sort();
        out
    }

    fn len(&self) -> usize {
        self.entries.values().map(Vec::len).sum()
    }
}

/// The patient's folder on her home token.
pub struct MedicalFolder {
    patient: String,
    key: SymmetricKey,
    replica: Replica,
}

impl MedicalFolder {
    /// A folder for `patient` with its own folder key.
    pub fn new(patient: &str) -> Self {
        MedicalFolder {
            patient: patient.to_string(),
            key: SymmetricKey::from_seed(format!("folder:{patient}").as_bytes()),
            replica: Replica::default(),
        }
    }

    /// The patient id.
    pub fn patient(&self) -> &str {
        &self.patient
    }

    /// The folder key (shared with the care network's tokens).
    pub fn key(&self) -> &SymmetricKey {
        &self.key
    }

    /// Local write (a visitor at the patient's home, or the patient).
    pub fn write(&mut self, author: &str, day: u64, text: &str) -> EhrEntry {
        self.replica.append(author, day, text)
    }

    /// All entries, sorted.
    pub fn entries(&self) -> Vec<EhrEntry> {
        self.replica.all()
    }

    /// Total entry count.
    pub fn len(&self) -> usize {
        self.replica.len()
    }

    /// True when the folder is empty.
    pub fn is_empty(&self) -> bool {
        self.replica.len() == 0
    }
}

/// The central coordination server: one (encrypted-at-rest) replica per
/// patient, written by practitioners over the web.
#[derive(Default)]
pub struct CentralServer {
    folders: BTreeMap<String, Replica>,
}

impl CentralServer {
    /// An empty server.
    pub fn new() -> Self {
        Self::default()
    }

    /// A practitioner writes through the web interface.
    pub fn write(&mut self, patient: &str, author: &str, day: u64, text: &str) {
        self.folders
            .entry(patient.to_string())
            .or_default()
            .append(author, day, text);
    }

    /// Entries of a patient's central copy.
    pub fn entries(&self, patient: &str) -> Vec<EhrEntry> {
        self.folders
            .get(patient)
            .map(|r| r.all())
            .unwrap_or_default()
    }
}

/// The smart badge: carries encrypted deltas between the central server
/// and patients' homes. It holds ciphertext only — losing the badge
/// discloses nothing.
pub struct Badge {
    /// patient → (version vector snapshot, encrypted entries).
    cargo: BTreeMap<String, Cargo>,
}

/// What the badge carries for one patient: the central version-vector
/// snapshot and the encrypted entries.
type Cargo = (BTreeMap<String, u64>, Vec<Vec<u8>>);

impl Default for Badge {
    fn default() -> Self {
        Self::new()
    }
}

impl Badge {
    /// An empty badge.
    pub fn new() -> Self {
        Badge {
            cargo: BTreeMap::new(),
        }
    }

    /// At the clinic: load the central copies of the patients on today's
    /// tour (encrypted under each patient's folder key).
    pub fn load_central(
        &mut self,
        server: &CentralServer,
        patients: &[(&str, &SymmetricKey)],
        rng: &mut impl RngCore,
    ) {
        for (patient, key) in patients {
            let replica = server.folders.get(*patient).cloned().unwrap_or_default();
            let encrypted = replica
                .all()
                .into_iter()
                .map(|e| key.encrypt_prob(&e.encode(), rng).0)
                .collect();
            self.cargo
                .insert(patient.to_string(), (replica.version(), encrypted));
        }
    }

    /// At the patient's home: exchange deltas with the home token. The
    /// badge keeps (encrypted) what the central server is missing.
    pub fn sync_with_folder(&mut self, folder: &mut MedicalFolder, rng: &mut impl RngCore) {
        let key = folder.key.clone();
        let (carried_version, encrypted) = self
            .cargo
            .remove(folder.patient())
            .unwrap_or((BTreeMap::new(), Vec::new()));
        // Badge → folder.
        let mut carried_entries = Vec::new();
        for ct in encrypted {
            if let Some(plain) = key.decrypt(&pds_crypto::Ciphertext(ct)) {
                if let Some(e) = EhrEntry::decode(&plain) {
                    carried_entries.push(e);
                }
            }
        }
        let pulled = carried_entries.len() as u64;
        folder.replica.integrate(carried_entries);
        // Folder → badge: what the central copy (as snapshotted) misses.
        let back: Vec<Vec<u8>> = folder
            .replica
            .missing_for(&carried_version)
            .into_iter()
            .map(|e| key.encrypt_prob(&e.encode(), rng).0)
            .collect();
        pds_obs::counter("sync.folder_syncs").inc();
        pds_obs::counter("sync.entries_exchanged").add(pulled + back.len() as u64);
        pds_obs::counter("sync.bytes_carried").add(back.iter().map(|c| c.len() as u64).sum());
        self.cargo.insert(
            folder.patient().to_string(),
            (folder.replica.version(), back),
        );
    }

    /// Back at the clinic: unload the home-side deltas into the central
    /// server.
    pub fn unload_central(
        &mut self,
        server: &mut CentralServer,
        patients: &[(&str, &SymmetricKey)],
    ) {
        for (patient, key) in patients {
            let Some((_, encrypted)) = self.cargo.remove(*patient) else {
                continue;
            };
            let mut entries = Vec::new();
            for ct in encrypted {
                if let Some(plain) = key.decrypt(&pds_crypto::Ciphertext(ct)) {
                    if let Some(e) = EhrEntry::decode(&plain) {
                        entries.push(e);
                    }
                }
            }
            server
                .folders
                .entry(patient.to_string())
                .or_default()
                .integrate(entries);
        }
    }

    /// Bytes currently carried (all ciphertext).
    pub fn carried_bytes(&self) -> usize {
        self.cargo
            .values()
            .map(|(_, v)| v.iter().map(Vec::len).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn entries_keep_the_decoder_contract() {
        let authors = ["", "patient", "dr.martin", "infirmière-2"];
        pds_obs::wire::sweep(
            "EhrEntry",
            pds_obs::wire::Tail::RestOfBuffer,
            // An author name claiming 65 535 bytes.
            &[&[0xFF; 20]],
            |rng| EhrEntry {
                author: authors[rng.gen_range(0..authors.len())].to_string(),
                seq: rng.gen(),
                day: rng.gen(),
                text: "tension 13/8 ".repeat(rng.gen_range(0..4usize)),
            },
            EhrEntry::encode,
            EhrEntry::decode,
        );
    }

    #[test]
    fn one_badge_tour_converges_both_replicas() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut server = CentralServer::new();
        let mut folder = MedicalFolder::new("alice");
        // Doctor writes at the clinic; nurse writes at home.
        server.write("alice", "dr.martin", 1, "prescribed beta blockers");
        server.write("alice", "dr.martin", 2, "follow-up in two weeks");
        folder.write("nurse-2", 2, "blood pressure 135/85 at home");
        folder.write("alice", 3, "felt dizzy in the morning");

        let key = folder.key().clone();
        let patients = [("alice", &key)];
        let mut badge = Badge::new();
        badge.load_central(&server, &patients, &mut rng);
        badge.sync_with_folder(&mut folder, &mut rng);
        badge.unload_central(&mut server, &patients);

        assert_eq!(folder.entries().len(), 4, "home sees everything");
        assert_eq!(server.entries("alice").len(), 4, "clinic sees everything");
        assert_eq!(folder.entries(), server.entries("alice"));
    }

    #[test]
    fn sync_is_idempotent_no_duplicates() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut server = CentralServer::new();
        let mut folder = MedicalFolder::new("bob");
        server.write("bob", "dr.x", 1, "entry");
        let key = folder.key().clone();
        let patients = [("bob", &key)];
        for _ in 0..3 {
            let mut badge = Badge::new();
            badge.load_central(&server, &patients, &mut rng);
            badge.sync_with_folder(&mut folder, &mut rng);
            badge.unload_central(&mut server, &patients);
        }
        assert_eq!(folder.len(), 1);
        assert_eq!(server.entries("bob").len(), 1);
    }

    #[test]
    fn badge_carries_only_ciphertext() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut server = CentralServer::new();
        server.write("carol", "dr.y", 1, "HIV test negative");
        let folder = MedicalFolder::new("carol");
        let key = folder.key().clone();
        let mut badge = Badge::new();
        badge.load_central(&server, &[("carol", &key)], &mut rng);
        let carried: Vec<u8> = badge
            .cargo
            .values()
            .flat_map(|(_, v)| v.iter().flatten().copied())
            .collect();
        assert!(!carried.windows(3).any(|w| w == b"HIV"));
        assert!(badge.carried_bytes() > 0);
    }

    #[test]
    fn concurrent_writes_on_both_sides_all_survive() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut server = CentralServer::new();
        let mut folder = MedicalFolder::new("dan");
        let key = folder.key().clone();
        let patients = [("dan", &key)];
        for day in 0..10 {
            server.write("dan", "dr.z", day, &format!("clinic note {day}"));
            folder.write("dan", day, &format!("home note {day}"));
            let mut badge = Badge::new();
            badge.load_central(&server, &patients, &mut rng);
            badge.sync_with_folder(&mut folder, &mut rng);
            badge.unload_central(&mut server, &patients);
        }
        assert_eq!(folder.len(), 20);
        assert_eq!(folder.entries(), server.entries("dan"));
    }

    #[test]
    fn prop_random_schedules_always_converge() {
        for case in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0x5F0D + case);
            let mut server = CentralServer::new();
            let mut folders: Vec<MedicalFolder> = (0..4)
                .map(|i| MedicalFolder::new(&format!("p{i}")))
                .collect();
            let keys: Vec<SymmetricKey> = folders.iter().map(|f| f.key().clone()).collect();
            let names: Vec<String> = folders.iter().map(|f| f.patient().to_string()).collect();
            // Arbitrary interleaving of clinic/home writes…
            for _ in 0..rng.gen_range(1usize..40) {
                let i = rng.gen_range(0usize..4);
                if rng.gen_bool(0.5) {
                    server.write(&names[i], "dr", 0, "c");
                } else {
                    folders[i].write("nurse", 0, "h");
                }
            }
            // …arbitrary partial tours…
            for _ in 0..rng.gen_range(0usize..6) {
                let mut visit: Vec<usize> = (0..rng.gen_range(0usize..4))
                    .map(|_| rng.gen_range(0usize..4))
                    .collect();
                visit.sort_unstable();
                visit.dedup();
                let patients: Vec<(&str, &SymmetricKey)> = visit
                    .iter()
                    .map(|&i| (names[i].as_str(), &keys[i]))
                    .collect();
                let mut badge = Badge::new();
                badge.load_central(&server, &patients, &mut rng);
                for &i in &visit {
                    badge.sync_with_folder(&mut folders[i], &mut rng);
                }
                badge.unload_central(&mut server, &patients);
            }
            // …and one final full tour must always converge every
            // pair, with no duplicates and no losses.
            let patients: Vec<(&str, &SymmetricKey)> =
                names.iter().map(String::as_str).zip(keys.iter()).collect();
            let mut badge = Badge::new();
            badge.load_central(&server, &patients, &mut rng);
            for f in &mut folders {
                badge.sync_with_folder(f, &mut rng);
            }
            badge.unload_central(&mut server, &patients);
            for (f, n) in folders.iter().zip(&names) {
                assert_eq!(f.entries(), server.entries(n), "case {case}");
            }
        }
    }

    #[test]
    fn multiple_patients_on_one_tour() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut server = CentralServer::new();
        let mut alice = MedicalFolder::new("alice");
        let mut bob = MedicalFolder::new("bob");
        server.write("alice", "dr", 1, "a-note");
        server.write("bob", "dr", 1, "b-note");
        alice.write("alice", 2, "a-home");
        let ka = alice.key().clone();
        let kb = bob.key().clone();
        let patients = [("alice", &ka), ("bob", &kb)];
        let mut badge = Badge::new();
        badge.load_central(&server, &patients, &mut rng);
        badge.sync_with_folder(&mut alice, &mut rng);
        badge.sync_with_folder(&mut bob, &mut rng);
        badge.unload_central(&mut server, &patients);
        assert_eq!(alice.len(), 2);
        assert_eq!(bob.len(), 1);
        assert_eq!(server.entries("alice").len(), 2);
    }
}
