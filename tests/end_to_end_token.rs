//! End-to-end integration: one token's full life cycle.
//!
//! Ingestion across all three collections → policy definition → gated
//! querying → audit verification → encrypted cloud archive → disaster
//! recovery onto a fresh token.

use pds::core::{
    AccessContext, Action, CloudStore, Collection, EncryptedArchive, Pds, Purpose, Rule,
};
use pds::db::{Predicate, Value};
use pds_obs::rng::SeedableRng;
use pds_obs::rng::StdRng;

fn populated() -> Pds {
    let mut pds = Pds::for_tests(1, "alice").unwrap();
    for day in 0..30u64 {
        pds.ingest_email(
            day,
            if day % 3 == 0 {
                "dr.martin"
            } else {
                "newsletter"
            },
            &format!("subject {day}"),
            &format!("body mentioning topic{} on day {day}", day % 5),
        )
        .unwrap();
        if day % 2 == 0 {
            pds.ingest_health(day, "blood-pressure", 110 + day, "routine check")
                .unwrap();
        }
        pds.ingest_bank(
            day,
            if day % 7 == 0 { "salary" } else { "groceries" },
            1000 + day,
            "cp",
        )
        .unwrap();
    }
    pds.set_clock(30);
    pds
}

#[test]
fn full_life_cycle_with_archive_recovery() {
    let mut pds = populated();
    let me = AccessContext::new("alice", Purpose::PersonalUse);

    // Query across both engines.
    let hits = pds.search(&me, &["topic2"], 10).unwrap();
    assert!(!hits.is_empty());
    let salary_rows = pds
        .select(
            &me,
            "BANK",
            &Predicate::eq("category", Value::str("salary")),
        )
        .unwrap();
    assert_eq!(salary_rows.len(), 5, "days 0,7,14,21,28");

    // Archive to an untrusted cloud, then recover onto a new token.
    let mut cloud = CloudStore::new();
    let mut rng = StdRng::seed_from_u64(1);
    let snapshot = pds.snapshot(&me).unwrap();
    let key = pds.owner_key().clone();
    let archive = EncryptedArchive::publish(&mut cloud, "alice", &key, &snapshot, &mut rng);

    // The original token is lost; restore from the cloud.
    let recovered_bytes = archive.restore(&cloud, &key).unwrap();
    assert_eq!(recovered_bytes, snapshot);
    let mut recovered = Pds::restore(99, "alice", &recovered_bytes).unwrap();
    let hits2 = recovered.search(&me, &["topic2"], 10).unwrap();
    assert_eq!(
        hits.iter().map(|h| h.doc).collect::<Vec<_>>(),
        hits2.iter().map(|h| h.doc).collect::<Vec<_>>(),
        "restored token answers identically"
    );
    let salary2 = recovered
        .select(
            &me,
            "BANK",
            &Predicate::eq("category", Value::str("salary")),
        )
        .unwrap();
    assert_eq!(salary_rows, salary2);
}

#[test]
fn restore_fits_whatever_a_secure_token_archived() {
    // A 1 KB subject makes an EMAIL row that fits the secure token's
    // 2 KB pages but not the 512-byte pages of the unit-test profile.
    let mut pds = Pds::new(7, "alice").unwrap();
    let me = AccessContext::new("alice", Purpose::PersonalUse);
    let subject = "quarterly ".repeat(100);
    pds.ingest_email(3, "bank", &subject, "statement attached")
        .unwrap();
    pds.ingest_bank(3, "salary", 250_000, "employer").unwrap();
    let snapshot = pds.snapshot(&me).unwrap();

    let mut restored = Pds::restore(8, "alice", &snapshot).unwrap();
    let from_bank = Predicate::eq("sender", Value::str("bank"));
    assert_eq!(
        restored.select(&me, "EMAIL", &from_bank).unwrap(),
        pds.select(&me, "EMAIL", &from_bank).unwrap()
    );
    assert_eq!(
        restored.search(&me, &["statement"], 5).unwrap(),
        pds.search(&me, &["statement"], 5).unwrap()
    );
    assert_eq!(
        restored.get_document(&me, 0).unwrap(),
        pds.get_document(&me, 0).unwrap()
    );
}

#[test]
fn cross_subject_policy_isolation() {
    let mut pds = populated();
    pds.grant(Rule::allow(
        "dr.martin",
        Collection::Table("HEALTH".into()),
        Action::Read,
        Some(Purpose::Care),
    ));
    pds.grant(Rule::allow(
        "accountant",
        Collection::Table("BANK".into()),
        Action::Read,
        Some(Purpose::PersonalUse),
    ));

    let doctor = AccessContext::new("dr.martin", Purpose::Care);
    let accountant = AccessContext::new("accountant", Purpose::PersonalUse);

    // Each subject reaches exactly their collection.
    assert!(pds
        .select(
            &doctor,
            "HEALTH",
            &Predicate::eq("category", Value::str("blood-pressure"))
        )
        .is_ok());
    assert!(pds
        .select(
            &doctor,
            "BANK",
            &Predicate::eq("category", Value::str("salary"))
        )
        .is_err());
    assert!(pds
        .select(
            &accountant,
            "BANK",
            &Predicate::eq("category", Value::str("salary"))
        )
        .is_ok());
    assert!(pds
        .select(
            &accountant,
            "HEALTH",
            &Predicate::eq("category", Value::str("blood-pressure"))
        )
        .is_err());

    // The trail recorded all four decisions and verifies.
    assert_eq!(pds.audit().entries().len(), 4);
    assert_eq!(pds.audit().denials(), 2);
    assert!(pds.audit().verify());
}

#[test]
fn aggregate_gateway_reveals_sums_not_rows() {
    let mut pds = populated();
    let stat = AccessContext::new("institute", Purpose::Statistics);
    let total = pds
        .aggregate_sum(&stat, "BANK", "amount_cents", None)
        .unwrap();
    let me = AccessContext::new("alice", Purpose::PersonalUse);
    let mut check = 0;
    for cat in ["salary", "groceries"] {
        for row in pds
            .select(&me, "BANK", &Predicate::eq("category", Value::str(cat)))
            .unwrap()
        {
            check += row[2].as_u64().unwrap();
        }
    }
    assert_eq!(total, check);
    // But the same subject cannot read the rows behind the sum.
    assert!(pds
        .select(
            &stat,
            "BANK",
            &Predicate::eq("category", Value::str("salary"))
        )
        .is_err());
}

#[test]
fn tampered_archive_never_restores() {
    let mut pds = populated();
    let me = AccessContext::new("alice", Purpose::PersonalUse);
    let mut cloud = CloudStore::new();
    let mut rng = StdRng::seed_from_u64(2);
    let snapshot = pds.snapshot(&me).unwrap();
    let key = pds.owner_key().clone();
    let archive = EncryptedArchive::publish(&mut cloud, "alice", &key, &snapshot, &mut rng);
    cloud.tamper("alice", 0, 20);
    assert!(archive.restore(&cloud, &key).is_err());
}
