//! What the secure gateway's search answers, pinned through `Pds::new`.
//!
//! A fixed seeded corpus of e-mails — 40 words each from a 2 000-word
//! skewed vocabulary, as the performance ledger's `token_query` draws
//! them — is ingested with a sync every 64, and at three stops (one
//! mid-ingest, the end, and after a clean power cycle) a fixed set of
//! one- and two-keyword queries is asked and every 7th document fetched.
//! Every hit's docid and score bits and every document's bytes go into
//! one digest. Answers are exact TF-IDF, so the digest does not depend
//! on how the engine lays out its index: the number of buckets, the
//! insertion buffer or the drain schedule may change, the digest may not.

use pds::core::{AccessContext, Pds, Purpose};
use pds::crypto::Sha256;
use pds_obs::rng::{Rng, SeedableRng, StdRng};

const EMAILS: usize = 1_200;
const WORDS: usize = 40;
const VOCAB: usize = 2_000;
const SYNC_EVERY: usize = 64;
const TOP: usize = 10;

/// The minimum of two uniform draws: low word ids are common, high ones
/// rare.
fn skewed(rng: &mut StdRng, n: usize) -> usize {
    rng.gen_range(0..n).min(rng.gen_range(0..n))
}

fn email(rng: &mut StdRng) -> (String, String) {
    let words: Vec<String> = (0..WORDS)
        .map(|_| format!("w{}", skewed(rng, VOCAB)))
        .collect();
    (words[..4].join(" "), words[4..].join(" "))
}

/// Sixteen one-keyword and sixteen two-keyword queries drawn as the
/// corpus is, then the most common word, a rare one and an absent one.
fn queries() -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(0x47_0002);
    let mut word = || format!("w{}", skewed(&mut rng, VOCAB));
    let mut qs: Vec<Vec<String>> = (0..16).map(|_| vec![word()]).collect();
    qs.extend((0..16).map(|_| vec![word(), word()]));
    qs.extend([
        vec!["w0".into()],
        vec!["w1999".into(), "w3".into()],
        vec!["absent".into()],
    ]);
    qs
}

/// Every query's ranked hits, docids and score bits, and the bytes of
/// every 7th of the `docs` documents ingested, into `hash`.
fn answers(pds: &mut Pds, docs: usize, hash: &mut Sha256) {
    let me = AccessContext::new("alice", Purpose::PersonalUse);
    for q in queries() {
        let keywords: Vec<&str> = q.iter().map(String::as_str).collect();
        let hits = pds.search(&me, &keywords, TOP).unwrap();
        hash.update(&(hits.len() as u32).to_le_bytes());
        for h in hits {
            hash.update(&h.doc.to_le_bytes());
            hash.update(&h.score.to_bits().to_le_bytes());
        }
    }
    for doc in (0..docs as u32).step_by(7) {
        let bytes = pds.get_document(&me, doc).unwrap();
        hash.update(&(bytes.len() as u32).to_le_bytes());
        hash.update(&bytes);
    }
}

#[test]
fn what_the_secure_gateway_answers_is_pinned() {
    let mut pds = Pds::new(1, "alice").unwrap();
    let mut rng = StdRng::seed_from_u64(0x47_0001);
    let mut hash = Sha256::new();
    for i in 0..EMAILS {
        let (subject, body) = email(&mut rng);
        pds.ingest_email(i as u64 / 2, "sender", &subject, &body)
            .unwrap();
        if (i + 1) % SYNC_EVERY == 0 {
            pds.sync().unwrap();
        }
        // Mid-ingest, five documents past a sync: some triples pending.
        if i + 1 == 9 * SYNC_EVERY + 5 {
            answers(&mut pds, i + 1, &mut hash);
        }
    }
    answers(&mut pds, EMAILS, &mut hash);
    pds.sync().unwrap();
    let (mut pds, report) = pds.reopen().unwrap();
    assert_eq!(
        (report.docs_lost, report.docs_recovered),
        (0, EMAILS as u32)
    );
    answers(&mut pds, EMAILS, &mut hash);
    let digest: String = hash.finalize().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(
        digest,
        "5973907a6ba4730b3646651c963d5b59658534b412054e6a2800b70e5d433fb9"
    );
}
