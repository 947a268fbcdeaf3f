//! `token_ingest_reopen` — the write and recovery path of one token.
//!
//! Each block is one fresh token's life: `BATCHES` commit batches of
//! mixed e-mail/health/bank ingests, a `sync` and a clean `reopen` every
//! `SYNC_EVERY` batches, then a seeded power cut in the middle of a
//! batch and the `reopen` that recovers from it. An op is one commit
//! batch. The oracle: every row and document synced before the cut
//! survives it, what comes back is a prefix of what was ingested, and
//! the torn tail is the only loss.

use std::time::Instant;

use pds_core::data::{
    bank_schema, email_schema, health_schema, BANK_CATEGORIES, BANK_TABLE, EMAIL_TABLE,
    HEALTH_CATEGORIES, HEALTH_TABLE,
};
use pds_core::{AccessContext, Hlc, Pds, PdsError, Predicate, Purpose, ReopenReport, Row, Value};
use pds_db::Database;
use pds_flash::{CostModel, FaultPlan, LogWriter};
use pds_mcu::{RamBudget, Token};
use pds_obs::rng::Rng;
use pds_search::{DfStrategy, SearchEngine};

use crate::gen;
use crate::harness::{Block, Counts, Meter, Metrics, Workload};
use crate::probes::{self, span_median_us, time_each, time_once};
use crate::span::Tracer;
use crate::stats::median;

const BATCH: usize = 32;
pub const BATCHES: usize = 256;
const SYNC_EVERY: usize = 64;
/// Batches generated past the last op for the power cut to land in.
const TAIL_BATCHES: usize = 4;
/// The cut fires within this many page programs of the last sync.
const MAX_CUT: u64 = 6;
const VOCAB: usize = 2_000;
const OWNER: &str = "alice";
const TABLES: [&str; 3] = [EMAIL_TABLE, HEALTH_TABLE, BANK_TABLE];

enum Rec {
    Email {
        day: u64,
        sender: String,
        subject: String,
        body: String,
    },
    Health {
        day: u64,
        category: &'static str,
        measure: u64,
        note: String,
    },
    Bank {
        day: u64,
        category: &'static str,
        amount: u64,
        counterparty: String,
    },
}

impl Rec {
    fn generate(rng: &mut pds_obs::rng::StdRng, i: usize) -> Rec {
        let day = (i / BATCH) as u64;
        match rng.gen_range(0..3) {
            0 => Rec::Email {
                day,
                sender: format!("sender-{}", gen::skewed(rng, 50)),
                subject: gen::text(&gen::words(rng, 4, VOCAB)),
                body: gen::text(&gen::words(rng, 36, VOCAB)),
            },
            1 => Rec::Health {
                day,
                category: HEALTH_CATEGORIES[rng.gen_range(0..HEALTH_CATEGORIES.len())],
                measure: rng.gen_range(40..200),
                note: gen::text(&gen::words(rng, 8, VOCAB)),
            },
            _ => Rec::Bank {
                day,
                category: BANK_CATEGORIES[gen::skewed(rng, BANK_CATEGORIES.len())],
                amount: rng.gen_range(100..100_000),
                counterparty: format!("cp-{}", gen::skewed(rng, 400)),
            },
        }
    }

    /// Index into [`TABLES`].
    fn table(&self) -> usize {
        match self {
            Rec::Email { .. } => 0,
            Rec::Health { .. } => 1,
            Rec::Bank { .. } => 2,
        }
    }

    /// The document text this record sends to the search engine.
    fn doc(&self) -> Option<String> {
        match self {
            Rec::Email { subject, body, .. } => Some(format!("{subject} {body}")),
            Rec::Health { note, .. } => Some(note.clone()),
            Rec::Bank { .. } => None,
        }
    }

    /// Bytes of user data in the record: string bytes plus 8 per number.
    fn user_bytes(&self) -> u64 {
        (match self {
            Rec::Email {
                sender,
                subject,
                body,
                ..
            } => 8 + sender.len() + subject.len() + body.len(),
            Rec::Health { category, note, .. } => 16 + category.len() + note.len(),
            Rec::Bank {
                category,
                counterparty,
                ..
            } => 16 + category.len() + counterparty.len(),
        }) as u64
    }

    fn ingest(&self, pds: &mut Pds) -> Result<(), PdsError> {
        match self {
            Rec::Email {
                day,
                sender,
                subject,
                body,
            } => pds.ingest_email(*day, sender, subject, body),
            Rec::Health {
                day,
                category,
                measure,
                note,
            } => pds.ingest_health(*day, category, *measure, note),
            Rec::Bank {
                day,
                category,
                amount,
                counterparty,
            } => pds.ingest_bank(*day, category, *amount, counterparty),
        }
    }

    /// The row the record becomes, given the docid the engine assigned.
    fn row(&self, docid: u64) -> Row {
        match self {
            Rec::Email {
                day,
                sender,
                subject,
                ..
            } => vec![
                Value::U64(*day),
                Value::str(sender),
                Value::str(subject),
                Value::U64(docid),
            ],
            Rec::Health {
                day,
                category,
                measure,
                ..
            } => vec![
                Value::U64(*day),
                Value::str(category),
                Value::U64(*measure),
                Value::U64(docid),
            ],
            Rec::Bank {
                day,
                category,
                amount,
                counterparty,
            } => vec![
                Value::U64(*day),
                Value::str(category),
                Value::U64(*amount),
                Value::str(counterparty),
            ],
        }
    }
}

/// The oracle's view of the record stream: per table the rows in insert
/// order, and the documents in docid order.
struct Model {
    rows: [Vec<Row>; 3],
    docs: Vec<String>,
    /// After record `i` (exclusive prefix length): rows per table, docs.
    prefix: Vec<([usize; 3], usize)>,
}

impl Model {
    fn new(recs: &[Rec]) -> Self {
        let mut m = Model {
            rows: Default::default(),
            docs: Vec::new(),
            prefix: vec![([0; 3], 0)],
        };
        for rec in recs {
            let docid = m.docs.len() as u64;
            m.rows[rec.table()].push(rec.row(docid));
            m.docs.extend(rec.doc());
            m.prefix
                .push((std::array::from_fn(|t| m.rows[t].len()), m.docs.len()));
        }
        m
    }
}

pub struct TokenIngestReopen {
    recs: Vec<Rec>,
    model: Model,
    cut_after: u64,
    fault_seed: u64,
    me: AccessContext,
}

/// What the timed part of a block hands to the oracle.
struct Life {
    pds: Pds,
    clean_reopens_lossless: bool,
    /// Records ingested before the last sync / before the cut.
    synced: usize,
    attempted: usize,
    crashed: bool,
    report: ReopenReport,
}

impl TokenIngestReopen {
    fn live(&self, tr: &mut Tracer, op_ns: &mut Vec<u64>) -> Result<Life, PdsError> {
        let mut pds = Pds::new(1, OWNER)?;
        let mut lossless = true;
        for batch in 0..BATCHES {
            tr.next_op();
            let t0 = Instant::now();
            pds = tr.scope("ledger", "op", |tr| {
                for rec in &self.recs[batch * BATCH..(batch + 1) * BATCH] {
                    tr.call("core", "ingest", || rec.ingest(&mut pds))?;
                }
                tr.call("core", "commit", || pds.commit())?;
                if (batch + 1) % SYNC_EVERY == 0 {
                    tr.call("core", "sync", || pds.sync())?;
                    let (reopened, report) = tr.call("core", "reopen", || pds.reopen())?;
                    lossless &= report.docs_lost == 0
                        && report.changes_dropped == 0
                        && report.rows_lost.iter().all(|(_, lost)| *lost == 0);
                    return Ok(reopened);
                }
                Ok::<_, PdsError>(pds)
            })?;
            op_ns.push(t0.elapsed().as_nanos() as u64);
        }
        // The tail: sync, arm the cut, ingest until the power dies in
        // the middle of a batch, recover.
        tr.next_op();
        tr.scope("ledger", "tail", |tr| {
            tr.call("core", "sync", || pds.sync())?;
            let synced = BATCHES * BATCH;
            pds.token()
                .flash()
                .inject_faults(FaultPlan::new(self.fault_seed).power_loss_after(self.cut_after));
            let mut attempted = synced;
            let mut crashed = false;
            'tail: for batch in self.recs[synced..].chunks(BATCH) {
                for rec in batch {
                    if tr.call("core", "ingest", || rec.ingest(&mut pds)).is_err() {
                        crashed = true;
                        break 'tail;
                    }
                    attempted += 1;
                }
                if tr.call("core", "commit", || pds.commit()).is_err() {
                    crashed = true;
                    break 'tail;
                }
            }
            let (pds, report) = tr.call("core", "reopen_powerloss", || pds.reopen())?;
            Ok(Life {
                pds,
                clean_reopens_lossless: lossless,
                synced,
                attempted,
                crashed,
                report,
            })
        })
    }

    /// The recovery oracle, run after the clock has stopped.
    fn check(&self, life: &mut Life) -> bool {
        let (synced_rows, synced_docs) = self.model.prefix[life.synced];
        // The record the cut interrupted may have reached flash in part
        // (its document but not its row), hence `attempted + 1`.
        let reach = (life.attempted + 1).min(self.recs.len());
        let (reach_rows, reach_docs) = self.model.prefix[reach];
        let everything = Predicate::between("day", Value::U64(0), Value::U64(u64::MAX));
        let rows_ok = (0..TABLES.len()).all(|t| {
            let Ok(rows) = life.pds.select(&self.me, TABLES[t], &everything) else {
                return false;
            };
            (synced_rows[t]..=reach_rows[t]).contains(&rows.len())
                && rows
                    .iter()
                    .zip(&self.model.rows[t])
                    .all(|(got, want)| got == want)
        });
        let docs = life.report.docs_recovered as usize;
        // Every 7th document and the whole tail past the last sync.
        let docs_ok = (synced_docs..=reach_docs).contains(&docs)
            && (0..docs)
                .filter(|d| d % 7 == 0 || *d >= synced_docs)
                .all(|d| {
                    life.pds
                        .get_document(&self.me, d as u32)
                        .is_ok_and(|text| text == self.model.docs[d].as_bytes())
                });
        life.clean_reopens_lossless && life.crashed && rows_ok && docs_ok
    }
}

impl Workload for TokenIngestReopen {
    fn setup(seed: u64) -> Self {
        let mut rng = gen::stream(seed, "token_ingest_reopen.records");
        let recs: Vec<Rec> = (0..(BATCHES + TAIL_BATCHES) * BATCH)
            .map(|i| Rec::generate(&mut rng, i))
            .collect();
        let mut rng = gen::stream(seed, "token_ingest_reopen.cut");
        TokenIngestReopen {
            model: Model::new(&recs),
            recs,
            cut_after: rng.gen_range(1..=MAX_CUT),
            fault_seed: rng.gen(),
            me: AccessContext::new(OWNER, Purpose::PersonalUse),
        }
    }

    fn block(&mut self, tr: &mut Tracer) -> Block {
        let mut op_ns = Vec::with_capacity(BATCHES);
        let meter = Meter::start();
        let life = self.live(tr, &mut op_ns);
        let (wall_ns, cpu_ns) = meter.stop();
        let mut counts = Counts::new();
        let ok = match life {
            Ok(mut life) => {
                let user_bytes = self.recs[..life.attempted]
                    .iter()
                    .map(Rec::user_bytes)
                    .sum();
                counts.insert("ingest.user_bytes", user_bytes);
                let page_size = life.pds.token().flash().geometry().page_size;
                counts.insert("flash.page_size", page_size as u64);
                self.check(&mut life)
            }
            Err(_) => false,
        };
        Block {
            op_ns,
            wall_ns,
            cpu_ns,
            ok,
            counts,
        }
    }

    fn sim_cost(counts: &Counts) -> f64 {
        super::flash_device_us(counts, &CostModel::default())
    }

    fn probes(&mut self, tr: &mut Tracer, out: &mut Metrics) {
        probes::mcu_reserve(tr, out);
        probes::obs(tr, out);
        for (metric, name) in [
            ("core.ingest_us", "ingest"),
            ("core.commit_us", "commit"),
            ("core.sync_us", "sync"),
            ("core.reopen_us", "reopen"),
            ("core.reopen_powerloss_us", "reopen_powerloss"),
        ] {
            out.insert(metric, span_median_us(tr, "core", name));
        }

        let recs = &self.recs[..BATCHES * BATCH];
        let docs: Vec<String> = recs.iter().filter_map(Rec::doc).collect();

        // The record log alone: append, scan, recover after a reboot.
        let token = Token::secure(2);
        let mut log = token.flash().new_log();
        out.insert(
            "flash.log_append_us",
            time_each(tr, "flash", "log_append", docs.len(), |i| {
                log.append(docs[i].as_bytes())
            }),
        );
        log.flush().expect("flush log");
        out.insert(
            "flash.log_scan_us",
            time_each(tr, "flash", "log_scan", log.num_pages() as usize, |i| {
                log.read_page_records(i as u32)
            }),
        );
        let blocks = log.blocks().to_vec();
        let rebooted = token.flash().reboot();
        out.insert(
            "flash.log_recover_us",
            time_each(tr, "flash", "log_recover", 1, |_| {
                LogWriter::recover(&rebooted, &blocks).map(|(_, report)| report)
            }),
        );

        // The embedded db alone: the same rows through the same tables.
        let token = Token::secure(3);
        let mut db = Database::new(token.flash(), token.ram());
        for (name, schema) in TABLES
            .iter()
            .zip([email_schema(), health_schema(), bank_schema()])
        {
            db.create_table(name, schema).expect("create table");
        }
        db.enable_mvcc(3);
        let mut docid = 0u64;
        let mut insert_us = Vec::with_capacity(recs.len());
        let mut commit_us = Vec::with_capacity(BATCHES);
        for (i, rec) in recs.iter().enumerate() {
            let row = rec.row(docid);
            docid += u64::from(rec.doc().is_some());
            insert_us.push(time_once(tr, "db", "insert", || {
                db.insert(TABLES[rec.table()], row)
            }));
            if (i + 1) % BATCH == 0 {
                commit_us.push(time_once(tr, "db", "commit", || {
                    db.commit_with_docs(docid as u32)
                }));
            }
        }
        out.insert("db.insert_us", median(&insert_us));
        out.insert("db.commit_us", median(&commit_us));
        out.insert(
            "db.changes_since_us",
            time_each(tr, "db", "changes_since", 9, |_| {
                db.changes_since(Hlc::ZERO)
            }),
        );
        db.flush().expect("flush db");
        let manifest = db.manifest();
        let rebooted = token.flash().reboot();
        let ram = RamBudget::new(token.ram().capacity());
        out.insert(
            "db.recover_us",
            time_each(tr, "db", "recover", 1, |_| {
                Database::recover(&rebooted, &ram, &manifest, Some(docid as u32)).is_ok()
            }),
        );

        // The search engine alone: the same documents, then a recovery.
        let token = Token::secure(4);
        let mut engine =
            SearchEngine::new(token.flash(), token.ram(), 64, 256, DfStrategy::TwoPass)
                .expect("search engine");
        out.insert(
            "search.index_doc_us",
            time_each(tr, "search", "index_doc", docs.len(), |i| {
                engine.index_document(&docs[i])
            }),
        );
        engine.flush().expect("flush engine");
        let manifest = engine.manifest();
        let rebooted = token.flash().reboot();
        let ram = RamBudget::new(token.ram().capacity());
        out.insert(
            "search.recover_us",
            time_each(tr, "search", "recover", 1, |_| {
                SearchEngine::recover(&rebooted, &ram, &manifest).is_ok()
            }),
        );
    }
}
