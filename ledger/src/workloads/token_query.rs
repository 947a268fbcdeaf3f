//! `token_query` — the read path of one secure token.
//!
//! One `Pds::new` token holds `EMAILS` e-mails and `BANK_ROWS` bank
//! rows with a PBFilter on `BANK.counterparty`: megabytes of flash
//! against the MCU's 64 KB of RAM. An op is one request cycle — an
//! indexed select, a range select that scans, four two-keyword searches
//! and four document fetches — so every op is the same mix and the op
//! median is unimodal.

use std::time::Instant;

use pds_core::data::{bank_schema, BANK_CATEGORIES, BANK_TABLE};
use pds_core::{AccessContext, Pds, PdsError, Predicate, Purpose, Row, Value};
use pds_db::Database;
use pds_flash::CostModel;
use pds_mcu::Token;
use pds_obs::rng::Rng;
use pds_search::{DfStrategy, SearchEngine, SearchHit};

use crate::gen;
use crate::harness::{Block, Counts, Meter, Metrics, Workload};
use crate::probes::{self, span_median_us, time_each};
use crate::span::Tracer;

const EMAILS: usize = 3_000;
const SUBJECT_WORDS: usize = 4;
const WORDS_PER_EMAIL: usize = 40;
const VOCAB: usize = 2_000;
const BANK_ROWS: usize = 12_000;
const COUNTERPARTIES: usize = 400;
const ROWS_PER_DAY: u64 = 8;
const RANGE_DAYS: u64 = 30;
const COMMIT_EVERY: usize = 64;
const SEARCHES: usize = 4;
const FETCHES: usize = 4;
const TOP_N: usize = 10;
pub const OPS_PER_BLOCK: usize = 120;

const OWNER: &str = "alice";

struct Email {
    day: u64,
    sender: String,
    words: Vec<usize>,
}

impl Email {
    fn subject(&self) -> String {
        gen::text(&self.words[..SUBJECT_WORDS])
    }

    fn body(&self) -> String {
        gen::text(&self.words[SUBJECT_WORDS..])
    }

    /// The document text the gateway indexes for this e-mail.
    fn text(&self) -> String {
        format!("{} {}", self.subject(), self.body())
    }
}

struct BankRow {
    day: u64,
    category: &'static str,
    amount: u64,
    counterparty: usize,
}

fn counterparty(i: usize) -> String {
    format!("cp-{i}")
}

/// One request cycle.
struct QueryOp {
    counterparty: usize,
    day_lo: u64,
    keywords: [[usize; 2]; SEARCHES],
    docs: [u32; FETCHES],
}

/// What the oracle expects one op to return.
struct Expected {
    by_counterparty: Vec<usize>,
    by_day: Vec<usize>,
    hits: Vec<Vec<(u32, f64)>>,
}

pub struct TokenQuery {
    emails: Vec<Email>,
    bank: Vec<BankRow>,
    ops: Vec<QueryOp>,
    expected: Vec<Expected>,
    pds: Pds,
    me: AccessContext,
}

fn generate(seed: u64) -> (Vec<Email>, Vec<BankRow>, Vec<QueryOp>) {
    let mut rng = gen::stream(seed, "token_query.emails");
    let emails = (0..EMAILS)
        .map(|i| Email {
            day: i as u64 / 2,
            sender: format!("sender-{}", gen::skewed(&mut rng, 50)),
            words: gen::words(&mut rng, WORDS_PER_EMAIL, VOCAB),
        })
        .collect();
    let mut rng = gen::stream(seed, "token_query.bank");
    let bank = (0..BANK_ROWS)
        .map(|i| BankRow {
            day: i as u64 / ROWS_PER_DAY,
            category: BANK_CATEGORIES[gen::skewed(&mut rng, BANK_CATEGORIES.len())],
            amount: rng.gen_range(100..100_000),
            counterparty: gen::skewed(&mut rng, COUNTERPARTIES),
        })
        .collect();
    let mut rng = gen::stream(seed, "token_query.ops");
    let days = BANK_ROWS as u64 / ROWS_PER_DAY;
    let ops = (0..OPS_PER_BLOCK)
        .map(|_| QueryOp {
            counterparty: gen::skewed(&mut rng, COUNTERPARTIES),
            day_lo: rng.gen_range(0..days - RANGE_DAYS),
            keywords: std::array::from_fn(|_| {
                [gen::skewed(&mut rng, VOCAB), gen::skewed(&mut rng, VOCAB)]
            }),
            docs: std::array::from_fn(|_| rng.gen_range(0..EMAILS as u32)),
        })
        .collect();
    (emails, bank, ops)
}

/// The in-benchmark search oracle: TF-IDF over in-memory postings, with
/// the engine's total order (score, then docid, both descending).
struct SearchModel {
    /// word id → `(doc, tf)`.
    postings: Vec<Vec<(u32, u16)>>,
}

impl SearchModel {
    fn new(emails: &[Email]) -> Self {
        let mut postings: Vec<Vec<(u32, u16)>> = vec![Vec::new(); VOCAB];
        for (doc, e) in emails.iter().enumerate() {
            let mut ids = e.words.clone();
            ids.sort_unstable();
            for run in ids.chunk_by(|a, b| a == b) {
                postings[run[0]].push((doc as u32, run.len() as u16));
            }
        }
        SearchModel { postings }
    }

    fn top(&self, keywords: [usize; 2]) -> Vec<(u32, f64)> {
        let mut terms = keywords.to_vec();
        terms.dedup();
        let mut scores = vec![None::<f64>; EMAILS];
        for term in terms {
            let list = &self.postings[term];
            if list.is_empty() {
                continue;
            }
            let idf = (EMAILS as f64 / list.len() as f64).ln();
            for (doc, tf) in list {
                *scores[*doc as usize].get_or_insert(0.0) += f64::from(*tf) * idf;
            }
        }
        let mut hits: Vec<(u32, f64)> = scores
            .iter()
            .enumerate()
            .filter_map(|(doc, s)| s.map(|s| (doc as u32, s)))
            .collect();
        hits.sort_by(|a, b| b.1.total_cmp(&a.1).then(b.0.cmp(&a.0)));
        hits.truncate(TOP_N);
        hits
    }
}

fn expect(emails: &[Email], bank: &[BankRow], ops: &[QueryOp]) -> Vec<Expected> {
    let model = SearchModel::new(emails);
    ops.iter()
        .map(|op| Expected {
            by_counterparty: (0..bank.len())
                .filter(|i| bank[*i].counterparty == op.counterparty)
                .collect(),
            by_day: (0..bank.len())
                .filter(|i| (op.day_lo..=op.day_lo + RANGE_DAYS).contains(&bank[*i].day))
                .collect(),
            hits: op.keywords.iter().map(|kw| model.top(*kw)).collect(),
        })
        .collect()
}

fn by_counterparty(op: &QueryOp) -> Predicate {
    Predicate::eq("counterparty", Value::str(&counterparty(op.counterparty)))
}

fn by_day(op: &QueryOp) -> Predicate {
    Predicate::between(
        "day",
        Value::U64(op.day_lo),
        Value::U64(op.day_lo + RANGE_DAYS),
    )
}

fn keyword_strings(kw: [usize; 2]) -> [String; 2] {
    [gen::word(kw[0]), gen::word(kw[1])]
}

/// What one op returned, checked against the oracle after the clock
/// has stopped.
struct OpOutput {
    by_counterparty: Vec<Row>,
    by_day: Vec<Row>,
    hits: Vec<Vec<SearchHit>>,
    docs: Vec<Vec<u8>>,
}

impl TokenQuery {
    fn rows_match(&self, got: &[Row], want: &[usize]) -> bool {
        got.len() == want.len()
            && got.iter().zip(want).all(|(row, i)| {
                let b = &self.bank[*i];
                row[0] == Value::U64(b.day)
                    && row[1] == Value::str(b.category)
                    && row[2] == Value::U64(b.amount)
                    && row[3] == Value::str(&counterparty(b.counterparty))
            })
    }

    fn check(&self, op: &QueryOp, want: &Expected, got: &OpOutput) -> bool {
        let hits_ok = got.hits.iter().zip(&want.hits).all(|(g, w)| {
            g.len() == w.len()
                && g.iter().zip(w).all(|(g, (doc, score))| {
                    g.doc == *doc && (g.score - score).abs() <= 1e-9 * score.abs().max(1.0)
                })
        });
        let docs_ok = got
            .docs
            .iter()
            .zip(&op.docs)
            .all(|(g, doc)| g == self.emails[*doc as usize].text().as_bytes());
        self.rows_match(&got.by_counterparty, &want.by_counterparty)
            && self.rows_match(&got.by_day, &want.by_day)
            && hits_ok
            && docs_ok
    }

    fn run_op(&mut self, i: usize, tr: &mut Tracer) -> Result<OpOutput, PdsError> {
        let (pds, me, op) = (&mut self.pds, &self.me, &self.ops[i]);
        tr.scope("ledger", "op", |tr| {
            let by_counterparty = by_counterparty(op);
            let by_day = by_day(op);
            let mut out = OpOutput {
                by_counterparty: tr.call("core", "select_index", || {
                    pds.select(me, BANK_TABLE, &by_counterparty)
                })?,
                by_day: tr.call("core", "select_scan", || {
                    pds.select(me, BANK_TABLE, &by_day)
                })?,
                hits: Vec::with_capacity(SEARCHES),
                docs: Vec::with_capacity(FETCHES),
            };
            for kw in op.keywords {
                let kw = keyword_strings(kw);
                out.hits.push(tr.call("core", "search", || {
                    pds.search(me, &[kw[0].as_str(), kw[1].as_str()], TOP_N)
                })?);
            }
            for doc in op.docs {
                out.docs
                    .push(tr.call("core", "get_document", || pds.get_document(me, doc))?);
            }
            Ok(out)
        })
    }
}

impl Workload for TokenQuery {
    fn setup(seed: u64) -> Self {
        let (emails, bank, ops) = generate(seed);
        let expected = expect(&emails, &bank, &ops);
        let me = AccessContext::new(OWNER, Purpose::PersonalUse);
        let mut pds = Pds::new(1, OWNER).expect("manufacture token");
        for (i, e) in emails.iter().enumerate() {
            pds.ingest_email(e.day, &e.sender, &e.subject(), &e.body())
                .expect("ingest e-mail");
            if (i + 1) % COMMIT_EVERY == 0 {
                pds.commit().expect("commit");
            }
        }
        for (i, b) in bank.iter().enumerate() {
            pds.ingest_bank(b.day, b.category, b.amount, &counterparty(b.counterparty))
                .expect("ingest bank row");
            if (i + 1) % COMMIT_EVERY == 0 {
                pds.commit().expect("commit");
            }
        }
        pds.commit().expect("commit");
        pds.create_index(&me, BANK_TABLE, "counterparty")
            .expect("index BANK.counterparty");
        pds.sync().expect("sync");
        TokenQuery {
            emails,
            bank,
            ops,
            expected,
            pds,
            me,
        }
    }

    fn block(&mut self, tr: &mut Tracer) -> Block {
        let mut op_ns = Vec::with_capacity(self.ops.len());
        let mut outputs = Vec::with_capacity(self.ops.len());
        let meter = Meter::start();
        for i in 0..self.ops.len() {
            tr.next_op();
            let t0 = Instant::now();
            outputs.push(self.run_op(i, tr));
            op_ns.push(t0.elapsed().as_nanos() as u64);
        }
        let (wall_ns, cpu_ns) = meter.stop();
        let ok = outputs
            .into_iter()
            .enumerate()
            .all(|(i, out)| out.is_ok_and(|out| self.check(&self.ops[i], &self.expected[i], &out)));
        Block {
            op_ns,
            wall_ns,
            cpu_ns,
            ok,
            counts: Counts::new(),
        }
    }

    fn sim_cost(counts: &Counts) -> f64 {
        super::flash_device_us(counts, &CostModel::default())
    }

    fn probes(&mut self, tr: &mut Tracer, out: &mut Metrics) {
        probes::mcu_reserve(tr, out);
        probes::obs(tr, out);

        for (metric, name) in [
            ("core.select_index_us", "select_index"),
            ("core.select_scan_us", "select_scan"),
            ("core.search_us", "search"),
            ("core.get_document_us", "get_document"),
        ] {
            out.insert(metric, span_median_us(tr, "core", name));
        }

        // The embedded db alone, on a second token holding the same BANK
        // table and index.
        let token = Token::secure(2);
        let mut db = Database::new(token.flash(), token.ram());
        db.create_table(BANK_TABLE, bank_schema())
            .expect("create BANK");
        db.enable_mvcc(2);
        for (i, b) in self.bank.iter().enumerate() {
            let row = vec![
                Value::U64(b.day),
                Value::str(b.category),
                Value::U64(b.amount),
                Value::str(&counterparty(b.counterparty)),
            ];
            db.insert(BANK_TABLE, row).expect("insert bank row");
            if (i + 1) % COMMIT_EVERY == 0 {
                db.commit().expect("commit");
            }
        }
        db.commit().expect("commit");
        db.create_index(BANK_TABLE, "counterparty").expect("index");
        db.flush().expect("flush");
        let n = self.ops.len();
        let reads0 = token.flash().stats().page_reads;
        let mut results = 0usize;
        out.insert(
            "db.select_index_us",
            time_each(tr, "db", "select_index", n, |i| {
                let rows = db.select(BANK_TABLE, &by_counterparty(&self.ops[i]));
                results += rows.as_ref().map_or(0, Vec::len);
                rows
            }),
        );
        let reads = token.flash().stats().page_reads - reads0;
        out.insert("db.pages_per_result", reads as f64 / results.max(1) as f64);
        out.insert(
            "db.select_scan_us",
            time_each(tr, "db", "select_scan", n, |i| {
                db.select(BANK_TABLE, &by_day(&self.ops[i]))
            }),
        );

        // The search engine alone, on a third token holding the same
        // documents, shaped as the gateway shapes its own engine.
        let token = Token::secure(3);
        let mut engine =
            SearchEngine::new(token.flash(), token.ram(), 64, 256, DfStrategy::TwoPass)
                .expect("search engine");
        for e in &self.emails {
            engine.index_document(&e.text()).expect("index document");
        }
        engine.flush().expect("flush");
        let reads0 = token.flash().stats().page_reads;
        out.insert(
            "search.query_us",
            time_each(tr, "search", "query", n * SEARCHES, |i| {
                let kw = keyword_strings(self.ops[i / SEARCHES].keywords[i % SEARCHES]);
                engine.search(&[kw[0].as_str(), kw[1].as_str()], TOP_N)
            }),
        );
        let reads = token.flash().stats().page_reads - reads0;
        out.insert(
            "search.pages_per_keyword",
            reads as f64 / (n * SEARCHES * 2) as f64,
        );
        out.insert(
            "search.get_document_us",
            time_each(tr, "search", "get_document", n * FETCHES, |i| {
                engine.get_document(self.ops[i / FETCHES].docs[i % FETCHES])
            }),
        );

        // What the gateway adds per op over the engines it fronts:
        // policy check, audit record, request span, flight recorder.
        let gateway = out["core.select_index_us"] - out["db.select_index_us"]
            + out["core.select_scan_us"]
            - out["db.select_scan_us"]
            + SEARCHES as f64 * (out["core.search_us"] - out["search.query_us"])
            + FETCHES as f64 * (out["core.get_document_us"] - out["search.get_document_us"]);
        out.insert("core.gateway_self_us", gateway);
    }
}
