//! Integration: the Perspectives deployments — folder sync, trusted
//! cells and Folk-IS — composed with the crypto substrate.

use pds::core::CloudStore;
use pds::crypto::SymmetricKey;
use pds::sync::{Badge, CentralServer, FolkSim, FolkSimConfig, MedicalFolder, TrustedCell};
use pds_obs::rng::SeedableRng;
use pds_obs::rng::StdRng;

#[test]
fn month_of_care_coordination_converges() {
    let mut rng = StdRng::seed_from_u64(1);
    let mut server = CentralServer::new();
    let mut folders: Vec<MedicalFolder> = (0..5)
        .map(|i| MedicalFolder::new(&format!("patient-{i}")))
        .collect();
    let keys: Vec<SymmetricKey> = folders.iter().map(|f| f.key().clone()).collect();
    let names: Vec<String> = folders.iter().map(|f| f.patient().to_string()).collect();

    for week in 0..4u64 {
        // Clinic writes for everyone; homes write locally.
        for (i, name) in names.iter().enumerate() {
            server.write(name, "dr.gp", week * 7, &format!("clinic w{week}"));
            folders[i].write("nurse", week * 7 + 3, &format!("home w{week}"));
        }
        // One badge tour a week, visiting a rotating subset of homes.
        let tour: Vec<usize> = (0..5)
            .filter(|i| (i + week as usize).is_multiple_of(2))
            .collect();
        let patients: Vec<(&str, &SymmetricKey)> = tour
            .iter()
            .map(|&i| (names[i].as_str(), &keys[i]))
            .collect();
        let mut badge = Badge::new();
        badge.load_central(&server, &patients, &mut rng);
        for &i in &tour {
            badge.sync_with_folder(&mut folders[i], &mut rng);
        }
        badge.unload_central(&mut server, &patients);
    }
    // A final full tour converges everyone.
    let patients: Vec<(&str, &SymmetricKey)> =
        names.iter().map(String::as_str).zip(keys.iter()).collect();
    let mut badge = Badge::new();
    badge.load_central(&server, &patients, &mut rng);
    for f in &mut folders {
        badge.sync_with_folder(f, &mut rng);
    }
    badge.unload_central(&mut server, &patients);

    for (f, name) in folders.iter().zip(&names) {
        assert_eq!(
            f.entries(),
            server.entries(name),
            "{name} replicas must converge after the final tour"
        );
        assert_eq!(f.len(), 8, "4 clinic + 4 home entries");
    }
}

#[test]
fn trusted_cells_fleet_converges_through_untrusted_cloud() {
    let mut rng = StdRng::seed_from_u64(2);
    let mut cloud = CloudStore::new();
    let mut cells: Vec<TrustedCell> = ["home", "car", "phone"]
        .iter()
        .map(|n| TrustedCell::new(n, b"owner-zoe"))
        .collect();
    // Each cell produces its own slice.
    cells[0].write("heating", b"schedule-A");
    cells[1].write("trips", b"commute-log");
    cells[2].write("contacts", b"addressbook-v1");
    for c in &mut cells {
        c.sync(&mut cloud, &mut rng).unwrap();
    }
    // Every cell discovers every slice: the digest lists them all.
    for c in &mut cells {
        c.sync(&mut cloud, &mut rng).unwrap();
    }
    for c in &cells {
        assert_eq!(c.read("heating").unwrap(), b"schedule-A");
        assert_eq!(c.read("trips").unwrap(), b"commute-log");
        assert_eq!(c.read("contacts").unwrap(), b"addressbook-v1");
    }
    // Updates propagate with version ordering.
    cells[2].write("heating", b"schedule-B");
    cells[2].write("heating", b"schedule-C");
    cells[2].sync(&mut cloud, &mut rng).unwrap();
    let report = cells[0].sync(&mut cloud, &mut rng).unwrap();
    assert_eq!(report.pulled, 1);
    assert_eq!(cells[0].read("heating").unwrap(), b"schedule-C");
}

#[test]
fn folkis_carries_folder_deltas_between_disconnected_regions() {
    // Composition: a medical-folder delta travels a Folk-IS network as
    // an encrypted bundle from a remote village (participant 0) to the
    // district clinic (participant 59).
    let mut rng = StdRng::seed_from_u64(3);
    let mut folder = MedicalFolder::new("remote-patient");
    folder.write("health-worker", 1, "vaccination administered");
    let key = folder.key().clone();

    // Serialize + encrypt the folder's single entry as the bundle.
    let entry = &folder.entries()[0];
    let payload = format!(
        "{}|{}|{}|{}",
        entry.author, entry.seq, entry.day, entry.text
    );
    let ct = key.encrypt_prob(payload.as_bytes(), &mut rng);

    let mut sim = FolkSim::new(
        FolkSimConfig {
            participants: 60,
            grid: 10,
            copy_budget: 0,
        },
        &mut rng,
    );
    let id = sim.send(0, 59, ct.as_bytes());
    let stats = sim.run(3000, &mut rng);
    assert!(sim.is_delivered(id), "the form must reach the clinic");
    assert!(stats.mean_latency() > 0.0);
    // The clinic decrypts what no carrier could read.
    let plain = key.decrypt(&ct).unwrap();
    assert!(String::from_utf8(plain).unwrap().contains("vaccination"));
}
