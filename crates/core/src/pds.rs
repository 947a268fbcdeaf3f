//! The Personal Data Server node.
//!
//! One [`Pds`] = one individual's secure portable token running the full
//! embedded stack. The public API is the *query gateway*: every entry
//! point takes an [`AccessContext`] (who is asking, and why), evaluates
//! the privacy policy, audits the decision, and only then computes the
//! authorized result with the embedded engines — raw data never crosses
//! the tamper-resistant boundary unevaluated.

use std::collections::BTreeMap;

use pds_crypto::SymmetricKey;
use pds_db::mvcc::{kind, DOC_STORE};
use pds_db::value::{Value, ValueRef};
use pds_db::{Database, GcReport, Hlc, Predicate, Row, RowId, Snapshot};
use pds_flash::{BlackBox, ChangeRec, FlashError};
use pds_mcu::{Token, TokenId};
use pds_obs::flight::{self, code, subsystem, EventFrame, Severity};
use pds_obs::wire::{put_prefixed32, Reader};
use pds_search::{DfStrategy, SearchEngine, SearchHit};

use crate::audit::{AuditLog, Decision};
use crate::data::{
    bank_schema, email_schema, health_schema, BANK_TABLE, EMAIL_TABLE, HEALTH_TABLE,
};
use crate::error::PdsError;
use crate::forensics::ForensicsReport;
use crate::policy::{Action, Collection, PolicySet, Purpose, Rule};

mod boot;
pub use boot::{PdsHibernation, ReopenReport};

/// A standing query on one table: its predicate is re-evaluated against
/// every commit after `cursor`, so a poller observes each committed
/// change exactly once.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// Watched table.
    pub table: String,
    /// The standing predicate.
    pub pred: Predicate,
    /// Stamp of the newest commit already delivered.
    pub cursor: Hlc,
}

/// Gateway metadata that crosses a power cycle in RAM. On real hardware
/// it lives in small dedicated logs recovered the same way as the data
/// logs; the simulation carries it — a live [`Pds`] holds it once and
/// moves it whole into its [`PdsHibernation`] and back.
struct Carried {
    owner: String,
    policy: PolicySet,
    audit: AuditLog,
    owner_key: SymmetricKey,
    protocol_key: Option<SymmetricKey>,
    /// Logical "today" in days, for retention checks.
    clock_day: u64,
    /// Standing queries, by subscription id.
    subs: BTreeMap<u32, Subscription>,
    next_sub: u32,
}

/// Who is asking, and why.
#[derive(Debug, Clone)]
pub struct AccessContext {
    /// Subject identifier ("alice", "dr.martin", "query-issuer-7").
    pub subject: String,
    /// Declared purpose.
    pub purpose: Purpose,
}

impl AccessContext {
    /// Shorthand constructor.
    pub fn new(subject: &str, purpose: Purpose) -> Self {
        AccessContext {
            subject: subject.to_string(),
            purpose,
        }
    }
}

/// A Personal Data Server.
pub struct Pds {
    token: Token,
    meta: Carried,
    engine: SearchEngine,
    db: Database,
    /// The durable flight-recorder ring (black box) of this token.
    blackbox: BlackBox,
    /// Post-mortem of the most recent reopen/wake, if any.
    last_forensics: Option<ForensicsReport>,
}

/// The search engine's `(buckets, buffer triples)` on the 64 KB secure
/// token: 19 197 B resident on its 2 KB pages. A 768-triple buffer
/// stages denser pages (a page names each repeated term once), so the
/// tail reaches its 64-page drain less often, and 128 buckets halve each
/// chain a keyword walks. Against [`SMALL_SHAPE`] a token's life
/// programs about a sixth fewer pages and a query reads about a quarter
/// fewer; by A3's formula the token serves 21 query keywords, against
/// 27 at that shape.
const SECURE_SHAPE: (usize, usize) = (128, 768);

/// The engine's shape on the test (32 KB) and population (16 KB)
/// profiles: 5 455 B resident on their 512 B pages (7 417 B on 2 KB).
const SMALL_SHAPE: (usize, usize) = (64, 256);

impl Pds {
    /// Manufacture a PDS for `owner` on a secure-token profile.
    pub fn new(id: u64, owner: &str) -> Result<Pds, PdsError> {
        Self::with_token(Token::secure(id), owner, SECURE_SHAPE)
    }

    /// A PDS on the small test profile (fast unit tests).
    pub fn for_tests(id: u64, owner: &str) -> Result<Pds, PdsError> {
        Self::with_token(Token::for_tests(id), owner, SMALL_SHAPE)
    }

    /// A PDS on the minimal population profile (thousands of instances
    /// in one simulated deployment).
    pub fn slim(id: u64, owner: &str) -> Result<Pds, PdsError> {
        Self::with_token(Token::slim(id), owner, SMALL_SHAPE)
    }

    /// A PDS on `token`, its search engine at `(buckets, buffer)`.
    fn with_token(
        token: Token,
        owner: &str,
        (buckets, buffer): (usize, usize),
    ) -> Result<Pds, PdsError> {
        let flash = token.flash().clone();
        let ram = token.ram().clone();
        let engine = SearchEngine::new(&flash, &ram, buckets, buffer, DfStrategy::TwoPass)?;
        let mut db = Database::new(&flash, &ram);
        db.create_table(EMAIL_TABLE, email_schema())?;
        db.create_table(HEALTH_TABLE, health_schema())?;
        db.create_table(BANK_TABLE, bank_schema())?;
        // Every PDS is versioned: commits stamp with the token id as the
        // HLC node, so stamps from different tokens never collide.
        db.enable_mvcc(token.id().0 as u32);
        let owner_key =
            SymmetricKey::from_seed(format!("owner-key:{owner}:{}", token.id().0).as_bytes());
        let blackbox = BlackBox::new(&flash);
        Ok(Pds {
            token,
            meta: Carried {
                owner: owner.to_string(),
                policy: PolicySet::owner_default(owner),
                audit: AuditLog::new(),
                owner_key,
                protocol_key: None,
                clock_day: 0,
                subs: BTreeMap::new(),
                next_sub: 0,
            },
            engine,
            db,
            blackbox,
            last_forensics: None,
        })
    }

    /// Record one structured event and absorb the staged frames into
    /// the durable black box.
    fn note(&mut self, severity: Severity, code: u16, args: [u64; 2]) {
        flight::record(severity, subsystem::CORE, code, args);
        self.absorb_flight();
    }

    /// Drain the thread-local staging buffer into this token's ring.
    /// Errors are deliberately ignored: the recorder must never fail
    /// the data path, and an append that dies mid-power-loss is exactly
    /// the torn tail recovery truncates.
    fn absorb_flight(&mut self) {
        let _ = self.blackbox.absorb(flight::drain());
    }

    /// The durable flight recorder of this token.
    pub fn blackbox(&self) -> &BlackBox {
        &self.blackbox
    }

    /// Post-mortem of the most recent [`Pds::reopen`] / [`Pds::wake`],
    /// if one has happened.
    pub fn forensics(&self) -> Option<&ForensicsReport> {
        self.last_forensics.as_ref()
    }

    /// The pre-crash timeline of the most recent wake, read from the
    /// recorder ring (one page read per ring page): its frames up to
    /// the [`ForensicsReport::crash_tick`], oldest first. A ring that
    /// has released blocks since the wake holds fewer of them. Empty
    /// when no wake happened or the ring held nothing.
    pub fn pre_crash_timeline(&self) -> Result<Vec<EventFrame>, PdsError> {
        let Some(last) = self.forensics().and_then(ForensicsReport::last_frame) else {
            return Ok(Vec::new());
        };
        let mut frames = self.blackbox.frames()?;
        frames.retain(|f| f.tick <= last.tick);
        Ok(frames)
    }

    /// Token identity.
    pub fn id(&self) -> TokenId {
        self.token.id()
    }

    /// The owning individual.
    pub fn owner(&self) -> &str {
        &self.meta.owner
    }

    /// The underlying token (flash stats, tamper state …).
    pub fn token(&self) -> &Token {
        &self.token
    }

    /// Mutable token access (adversary simulations compromise tokens).
    pub fn token_mut(&mut self) -> &mut Token {
        &mut self.token
    }

    /// The owner's archive key.
    pub fn owner_key(&self) -> &SymmetricKey {
        &self.meta.owner_key
    }

    /// Enroll into a token population: install the shared protocol key
    /// (issued by the trusted manufacturer, never seen by the SSI).
    pub fn enroll(&mut self, protocol_key: SymmetricKey) {
        self.meta.protocol_key = Some(protocol_key);
    }

    /// The shared protocol key, if enrolled.
    pub fn protocol_key(&self) -> Option<&SymmetricKey> {
        self.meta.protocol_key.as_ref()
    }

    /// Advance the logical clock (days since epoch).
    pub fn set_clock(&mut self, day: u64) {
        self.meta.clock_day = day;
    }

    /// Add a policy rule (the user editing her privacy settings).
    pub fn grant(&mut self, rule: Rule) {
        self.meta.policy.add(rule);
    }

    /// Revoke every rule naming `subject`.
    pub fn revoke(&mut self, subject: &str) {
        self.meta.policy.revoke_subject(subject);
    }

    /// The audit trail.
    pub fn audit(&self) -> &AuditLog {
        &self.meta.audit
    }

    /// Durably flush every buffered structure (documents, tombstones,
    /// index pages, table rows, recorder frames) to flash — the PDS
    /// equivalent of `fsync`.
    pub fn sync(&mut self) -> Result<(), PdsError> {
        self.flush_data()?;
        self.blackbox.flush()?;
        Ok(())
    }

    /// The data half of [`Pds::sync`]: documents, tombstones, index
    /// pages and table rows, then the `CORE_SYNC` note — all a clean
    /// park must make durable of them.
    fn flush_data(&mut self) -> Result<(), PdsError> {
        self.engine.flush()?;
        self.db.flush()?;
        self.note(Severity::Info, code::CORE_SYNC, [0, 0]);
        Ok(())
    }

    // ---- ingestion -----------------------------------------------------

    /// Ingest an email: full text to the search engine, metadata to the
    /// EMAIL table.
    pub fn ingest_email(
        &mut self,
        day: u64,
        sender: &str,
        subject: &str,
        body: &str,
    ) -> Result<(), PdsError> {
        let docid = self.engine.index_document(&format!("{subject} {body}"))?;
        self.db.insert(
            EMAIL_TABLE,
            vec![
                Value::U64(day),
                Value::str(sender),
                Value::str(subject),
                Value::U64(docid as u64),
            ],
        )?;
        self.note(Severity::Info, code::CORE_INGEST, [0, day]);
        Ok(())
    }

    /// Ingest a health record.
    pub fn ingest_health(
        &mut self,
        day: u64,
        category: &str,
        measure: u64,
        note: &str,
    ) -> Result<(), PdsError> {
        let docid = self.engine.index_document(note)?;
        self.db.insert(
            HEALTH_TABLE,
            vec![
                Value::U64(day),
                Value::str(category),
                Value::U64(measure),
                Value::U64(docid as u64),
            ],
        )?;
        self.note(Severity::Info, code::CORE_INGEST, [1, day]);
        Ok(())
    }

    /// Ingest a bank record.
    pub fn ingest_bank(
        &mut self,
        day: u64,
        category: &str,
        amount_cents: u64,
        counterparty: &str,
    ) -> Result<(), PdsError> {
        self.db.insert(
            BANK_TABLE,
            vec![
                Value::U64(day),
                Value::str(category),
                Value::U64(amount_cents),
                Value::str(counterparty),
            ],
        )?;
        self.note(Severity::Info, code::CORE_INGEST, [2, day]);
        Ok(())
    }

    // ---- the query gateway ----------------------------------------------

    /// Run one gateway request under a `pds.request` span carrying the
    /// flash I/O delta and the RAM high-water mark of the request.
    fn traced_request<T>(
        &mut self,
        op: &str,
        f: impl FnOnce(&mut Self) -> Result<T, PdsError>,
    ) -> Result<T, PdsError> {
        let span =
            pds_obs::span!("pds.request", "pds.op" => op, "pds.owner" => self.meta.owner.as_str());
        let ram = self.token.ram().clone();
        ram.reset_high_water();
        let io_before = self.token.flash().stats();
        let result = f(self);
        (self.token.flash().stats() - io_before).attach_to_span(&span);
        ram.attach_peak_to_span(&span);
        result
    }

    /// Decide a request against the policy set and record the decision.
    fn check(
        &mut self,
        ctx: &AccessContext,
        collection: &Collection,
        action: Action,
        age_days: u32,
    ) -> Result<(), PdsError> {
        let target = match collection {
            Collection::Documents => "documents",
            Collection::Table(t) => t,
            Collection::All => "all",
        };
        self.gate(ctx, action.label(), target, |meta| {
            meta.policy
                .permits(&ctx.subject, collection, action, ctx.purpose, age_days)
        })
    }

    /// The one recorder of access decisions. However `decide` reaches its
    /// verdict — the policy set, or plain ownership — the `pds.policy`
    /// span, the grant/denial counters, the audit chain and the `Denied`
    /// a refusal becomes are written here and nowhere else: every access
    /// decision is audited, grants and denials alike.
    fn gate(
        &mut self,
        ctx: &AccessContext,
        action: &str,
        target: &str,
        decide: impl FnOnce(&Carried) -> bool,
    ) -> Result<(), PdsError> {
        let span = pds_obs::span!("pds.policy", "pds.subject" => ctx.subject.as_str());
        let started = std::time::Instant::now();
        let ok = decide(&self.meta);
        pds_obs::histogram("policy.decision_ns").observe(started.elapsed().as_nanos() as u64);
        span.set("policy.decision", if ok { "granted" } else { "denied" });
        pds_obs::counter(if ok {
            "policy.grants"
        } else {
            "policy.denials"
        })
        .inc();
        self.meta.audit.record(
            &ctx.subject,
            action,
            target,
            if ok {
                Decision::Granted
            } else {
                Decision::Denied
            },
        );
        if ok {
            Ok(())
        } else {
            Err(PdsError::Denied {
                subject: ctx.subject.clone(),
                action: format!("{action} on {target}"),
            })
        }
    }

    /// The document prefix a read may see: everything for a live read
    /// (`None`), the docids committed at or before `snap` for a pinned
    /// one (docids are dense and increasing, so a snapshot's view of
    /// the corpus is a prefix).
    fn visible_docs(&self, snap: Option<&Snapshot>) -> Result<Option<u32>, PdsError> {
        let Some(snap) = snap else { return Ok(None) };
        let mvcc = self.db.mvcc().ok_or(pds_db::DbError::MvccDisabled)?;
        Ok(Some(mvcc.visible_at(snap, DOC_STORE)))
    }

    /// The one search path: live (`snap: None`) or pinned.
    fn search_in(
        &mut self,
        ctx: &AccessContext,
        snap: Option<&Snapshot>,
        keywords: &[&str],
        n: usize,
    ) -> Result<Vec<SearchHit>, PdsError> {
        let op = if snap.is_some() {
            "search_at"
        } else {
            "search"
        };
        self.traced_request(op, |pds| {
            pds.check(ctx, &Collection::Documents, Action::Search, 0)?;
            Ok(match pds.visible_docs(snap)? {
                Some(visible) => pds.engine.search_visible(keywords, n, visible)?,
                None => pds.engine.search(keywords, n)?,
            })
        })
    }

    /// The one document-fetch path: live (`snap: None`) or pinned.
    fn get_document_in(
        &mut self,
        ctx: &AccessContext,
        snap: Option<&Snapshot>,
        docid: u32,
    ) -> Result<Vec<u8>, PdsError> {
        let op = if snap.is_some() {
            "get_document_at"
        } else {
            "get_document"
        };
        self.traced_request(op, |pds| {
            pds.check(ctx, &Collection::Documents, Action::Read, 0)?;
            if pds
                .visible_docs(snap)?
                .is_some_and(|visible| docid >= visible)
            {
                return Err(PdsError::Flash(FlashError::BadRecordAddr));
            }
            Ok(pds.engine.get_document(docid)?)
        })
    }

    /// The one selection path: live (`snap: None`) or pinned — the gate,
    /// the audit record and the per-row retention filter exist here once.
    fn select_in(
        &mut self,
        ctx: &AccessContext,
        snap: Option<&Snapshot>,
        table: &str,
        pred: &Predicate,
    ) -> Result<Vec<Row>, PdsError> {
        let op = if snap.is_some() {
            "select_at"
        } else {
            "select"
        };
        self.traced_request(op, |pds| {
            let coll = Collection::Table(table.to_string());
            pds.check(ctx, &coll, Action::Read, 0)?;
            let rows = match snap {
                Some(snap) => pds.db.select_at(snap, table, pred)?,
                None => pds.db.select(table, pred)?,
            };
            let meta = &pds.meta;
            Ok(rows
                .into_iter()
                .map(|(_, row)| row)
                .filter(|row| {
                    let day = row[0].as_u64().unwrap_or(0);
                    let age = meta.clock_day.saturating_sub(day) as u32;
                    meta.policy
                        .permits(&ctx.subject, &coll, Action::Read, ctx.purpose, age)
                })
                .collect())
        })
    }

    /// Policy-gated full-text search. In a caller's `pds_obs::trace::trace`
    /// scope its span tree lands there: a [`pds_obs::QueryTrace`].
    pub fn search(
        &mut self,
        ctx: &AccessContext,
        keywords: &[&str],
        n: usize,
    ) -> Result<Vec<SearchHit>, PdsError> {
        self.search_in(ctx, None, keywords, n)
    }

    /// Policy-gated document fetch.
    pub fn get_document(&mut self, ctx: &AccessContext, docid: u32) -> Result<Vec<u8>, PdsError> {
        self.get_document_in(ctx, None, docid)
    }

    /// Policy-gated relational selection. Retention is enforced per row:
    /// rows older than the requester's grant are silently filtered — the
    /// requester cannot even learn they exist. In a caller's
    /// `pds_obs::trace::trace` scope its span tree lands there: the
    /// [`pds_obs::QueryTrace`] "explain" view the experiments check
    /// against the paper's I/O and RAM budgets.
    pub fn select(
        &mut self,
        ctx: &AccessContext,
        table: &str,
        pred: &Predicate,
    ) -> Result<Vec<Row>, PdsError> {
        self.select_in(ctx, None, table, pred)
    }

    /// Owner-only maintenance: build a PBFilter summary index over
    /// `table.column`, turning future equality selects on that column
    /// from full table scans into summary scans.
    pub fn create_index(
        &mut self,
        ctx: &AccessContext,
        table: &str,
        column: &str,
    ) -> Result<(), PdsError> {
        self.traced_request("create_index", |pds| {
            pds.gate(ctx, "create_index", table, |meta| ctx.subject == meta.owner)?;
            Ok(pds.db.create_index(table, column)?)
        })
    }

    /// Policy-gated local aggregation: `SUM(column)` over rows matching
    /// `pred` — the only thing a global query (Part III) ever extracts
    /// from a token.
    pub fn aggregate_sum(
        &mut self,
        ctx: &AccessContext,
        table: &str,
        column: &str,
        pred: Option<&Predicate>,
    ) -> Result<u64, PdsError> {
        self.traced_request("aggregate_sum", |pds| {
            pds.check(
                ctx,
                &Collection::Table(table.to_string()),
                Action::Aggregate,
                0,
            )?;
            let t = pds.db.table(table)?;
            let c = t.column(column)?;
            let mut sum = 0u64;
            match pred {
                None => {
                    t.scan(|_, row| {
                        sum += row.get(c).and_then(ValueRef::as_u64).unwrap_or(0);
                    })?;
                }
                Some(p) => {
                    for (_, row) in pds.db.select(table, p)? {
                        sum += row[c].as_u64().unwrap_or(0);
                    }
                }
            }
            Ok(sum)
        })
    }

    /// One scan folding `table` by `group_column`: each row adds its
    /// `measure_column` value to its group, or 1 when counting.
    fn group_fold(
        &mut self,
        op: &str,
        ctx: &AccessContext,
        table: &str,
        group_column: &str,
        measure_column: Option<&str>,
    ) -> Result<Vec<(String, u64)>, PdsError> {
        self.traced_request(op, |pds| {
            pds.check(
                ctx,
                &Collection::Table(table.to_string()),
                Action::Aggregate,
                0,
            )?;
            let t = pds.db.table(table)?;
            let g = t.column(group_column)?;
            let m = measure_column.map(|c| t.column(c)).transpose()?;
            let mut groups: BTreeMap<String, u64> = BTreeMap::new();
            t.scan(|_, row| {
                let add = m.map_or(1, |m| row.get(m).and_then(ValueRef::as_u64).unwrap_or(0));
                if let Some(group) = row.get(g) {
                    *groups.entry(group.to_string()).or_insert(0) += add;
                }
            })?;
            pds.note(
                Severity::Info,
                code::CORE_CONTRIBUTION,
                [groups.len() as u64, 0],
            );
            Ok(groups.into_iter().collect())
        })
    }

    /// Value of one attribute for the global GROUP BY protocols: the
    /// grouping key and the aggregated measure of this individual.
    /// Policy-gated as an `Aggregate` action.
    pub fn group_contribution(
        &mut self,
        ctx: &AccessContext,
        table: &str,
        group_column: &str,
        measure_column: &str,
    ) -> Result<Vec<(String, u64)>, PdsError> {
        self.group_fold(
            "group_contribution",
            ctx,
            table,
            group_column,
            Some(measure_column),
        )
    }

    /// Per-group record counts for global COUNT queries — same gate as
    /// [`group_contribution`](Self::group_contribution).
    pub fn group_count(
        &mut self,
        ctx: &AccessContext,
        table: &str,
        group_column: &str,
    ) -> Result<Vec<(String, u64)>, PdsError> {
        self.group_fold("group_count", ctx, table, group_column, None)
    }

    /// Snapshot the whole PDS content (documents + tables) as plaintext
    /// bytes — input of the encrypted archive. Gated as an owner Export.
    pub fn snapshot(&mut self, ctx: &AccessContext) -> Result<Vec<u8>, PdsError> {
        self.traced_request("snapshot", |pds| {
            pds.check(ctx, &Collection::All, Action::Export, 0)?;
            let mut out = Vec::new();
            // Documents.
            let n_docs = pds.engine.num_docs();
            out.extend_from_slice(&n_docs.to_le_bytes());
            for d in 0..n_docs {
                put_prefixed32(&mut out, &pds.engine.get_document(d)?);
            }
            // Tables.
            for table in [EMAIL_TABLE, HEALTH_TABLE, BANK_TABLE] {
                let t = pds.db.table(table)?;
                out.extend_from_slice(&t.num_rows().to_le_bytes());
                // A row's stored bytes are its encoding: no decode,
                // no re-encode.
                t.scan(|_, row| put_prefixed32(&mut out, row.bytes()))?;
            }
            Ok(out)
        })
    }

    /// Rebuild a PDS from a snapshot (disaster recovery onto a fresh
    /// secure token — the profile every archive a `Pds` can produce
    /// fits, whatever hardware wrote it).
    pub fn restore(id: u64, owner: &str, snapshot: &[u8]) -> Result<Pds, PdsError> {
        let mut pds = Pds::new(id, owner)?;
        let mut r = Reader::new(snapshot);
        // Every entry is at least its own length, so a count the archive
        // is too short for is refused before any of it is replayed.
        let count = |r: &mut Reader<'_>| {
            r.count32(4)
                .ok_or(PdsError::ArchiveCorrupt("truncated length"))
        };
        for _ in 0..count(&mut r)? {
            let doc = r
                .prefixed32()
                .ok_or(PdsError::ArchiveCorrupt("truncated document"))?;
            pds.engine.index_document(&String::from_utf8_lossy(doc))?;
        }
        for table in [EMAIL_TABLE, HEALTH_TABLE, BANK_TABLE] {
            for _ in 0..count(&mut r)? {
                let row = r
                    .prefixed32()
                    .ok_or(PdsError::ArchiveCorrupt("truncated row"))?;
                // `insert` asserts the schema — its callers are this
                // crate's typed ingest paths; an archive is not one.
                let row = pds_db::value::decode_row(row)
                    .filter(|row| pds.db.table(table).is_ok_and(|t| t.schema().validate(row)))
                    .ok_or(PdsError::ArchiveCorrupt("row encoding"))?;
                pds.db.insert(table, row)?;
            }
        }
        r.finish()
            .ok_or(PdsError::ArchiveCorrupt("trailing bytes"))?;
        Ok(pds)
    }

    // ---- versions, snapshots & subscriptions ---------------------------

    /// Stamp everything ingested since the last commit with one HLC and
    /// append the change records to the durable log. Returns the stamp,
    /// or `None` if nothing changed. Ingestion between two commits forms
    /// one atomic unit in version space: snapshots and subscribers see
    /// all of it or none of it.
    pub fn commit(&mut self) -> Result<Option<Hlc>, PdsError> {
        let docs = self.engine.num_docs();
        let stamp = self.db.commit_with_docs(docs)?;
        if let Some(s) = stamp {
            pds_obs::counter("mvcc.commits").inc();
            self.note(Severity::Info, code::CORE_COMMIT, [s.counter, 0]);
        }
        Ok(stamp)
    }

    /// Pin a read snapshot at the current commit frontier. Queries run
    /// through [`select_at`](Self::select_at) / [`search_at`](Self::search_at)
    /// against this snapshot never observe later commits. Must be paired
    /// with [`release_snapshot`](Self::release_snapshot) so version GC
    /// can reclaim history.
    pub fn open_snapshot(&mut self) -> Result<Snapshot, PdsError> {
        Ok(self.db.snapshot()?)
    }

    /// Release a snapshot pin taken by [`open_snapshot`](Self::open_snapshot).
    pub fn release_snapshot(&mut self, snap: &Snapshot) {
        self.db.release(snap);
    }

    /// [`select`](Self::select) pinned to a snapshot: rows committed
    /// after `snap` was opened are invisible, on top of the same policy
    /// gate and per-row retention filter.
    pub fn select_at(
        &mut self,
        ctx: &AccessContext,
        snap: &Snapshot,
        table: &str,
        pred: &Predicate,
    ) -> Result<Vec<Row>, PdsError> {
        self.select_in(ctx, Some(snap), table, pred)
    }

    /// [`search`](Self::search) pinned to a snapshot: only documents
    /// committed at or before `snap` are candidates. Ranking weights stay
    /// live-corpus (IDF is not versioned) but membership is pinned.
    pub fn search_at(
        &mut self,
        ctx: &AccessContext,
        snap: &Snapshot,
        keywords: &[&str],
        n: usize,
    ) -> Result<Vec<SearchHit>, PdsError> {
        self.search_in(ctx, Some(snap), keywords, n)
    }

    /// [`get_document`](Self::get_document) pinned to a snapshot: a
    /// docid committed after `snap` answers exactly like one that never
    /// existed.
    pub fn get_document_at(
        &mut self,
        ctx: &AccessContext,
        snap: &Snapshot,
        docid: u32,
    ) -> Result<Vec<u8>, PdsError> {
        self.get_document_in(ctx, Some(snap), docid)
    }

    /// Change records strictly after `since`, from the durable HLC log —
    /// the primitive delta sync and continuous queries are built on.
    pub fn changes_since(&self, since: Hlc) -> Result<Vec<ChangeRec>, PdsError> {
        Ok(self.db.changes_since(since)?)
    }

    /// Register a standing query: `pred` over `table`, starting at the
    /// current commit frontier. Returns the subscription id for
    /// [`poll_subscription`](Self::poll_subscription).
    pub fn subscribe(&mut self, table: &str, pred: Predicate) -> Result<u32, PdsError> {
        self.db.store_id(table)?;
        let cursor = self.db.mvcc().ok_or(pds_db::DbError::MvccDisabled)?.now();
        let id = self.meta.next_sub;
        self.meta.next_sub += 1;
        self.meta.subs.insert(
            id,
            Subscription {
                table: table.to_string(),
                pred,
                cursor,
            },
        );
        pds_obs::counter("sub.registered").inc();
        Ok(id)
    }

    /// Deliver the subscription's delta: matching rows from every commit
    /// after its cursor, then advance the cursor past them. Each
    /// committed change is observed exactly once across polls — the
    /// cursor moves in whole commits, never mid-commit.
    pub fn poll_subscription(&mut self, id: u32) -> Result<Vec<(RowId, Row)>, PdsError> {
        let sub = self
            .meta
            .subs
            .get(&id)
            .ok_or(PdsError::UnknownSubscription(id))?;
        let (table, pred, cursor) = (sub.table.clone(), sub.pred.clone(), sub.cursor);
        pds_obs::counter("sub.polls").inc();
        let recs = self.db.changes_since(cursor)?;
        let last = match recs.last() {
            Some(r) => Hlc::new(r.hlc, r.node),
            None => return Ok(Vec::new()),
        };
        let store = self.db.store_id(&table)?;
        let t = self.db.table(&table)?;
        let c = t.column(pred.column())?;
        let mut out = Vec::new();
        for rec in recs {
            if rec.store != store || rec.kind != kind::ROW_INSERT {
                continue;
            }
            let row = t.get(rec.entity)?;
            if pred.matches(&row[c]) {
                out.push((rec.entity, row));
            }
        }
        if let Some(s) = self.meta.subs.get_mut(&id) {
            s.cursor = last;
        }
        if !out.is_empty() {
            pds_obs::counter("sub.deltas").inc();
        }
        pds_obs::counter("sub.rows_delivered").add(out.len() as u64);
        Ok(out)
    }

    /// The registered subscriptions, by id.
    pub fn subscriptions(&self) -> &BTreeMap<u32, Subscription> {
        &self.meta.subs
    }

    /// Reclaim version history: collapse marks and compact the change
    /// log up to the oldest open snapshot, never past the slowest
    /// subscription cursor (a subscriber must still be able to read
    /// every change it has not yet observed).
    pub fn gc_versions(&mut self) -> Result<GcReport, PdsError> {
        let keep = self.meta.subs.values().map(|s| s.cursor).min();
        Ok(self.db.gc_versions(keep)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated_pds() -> Pds {
        let mut pds = Pds::for_tests(1, "alice").unwrap();
        pds.ingest_email(10, "dr.martin", "blood results", "all markers normal")
            .unwrap();
        pds.ingest_email(11, "bank", "statement", "monthly statement attached")
            .unwrap();
        pds.ingest_health(12, "blood-pressure", 120, "routine check normal")
            .unwrap();
        pds.ingest_bank(12, "salary", 250_000, "employer").unwrap();
        pds.ingest_bank(13, "groceries", 4_500, "shop-1").unwrap();
        pds
    }

    #[test]
    fn owner_can_search_and_read() {
        let mut pds = populated_pds();
        let ctx = AccessContext::new("alice", Purpose::PersonalUse);
        let hits = pds.search(&ctx, &["blood"], 5).unwrap();
        assert!(!hits.is_empty());
        let rows = pds
            .select(
                &ctx,
                BANK_TABLE,
                &Predicate::eq("category", Value::str("salary")),
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][2], Value::U64(250_000));
    }

    #[test]
    fn stranger_is_denied_and_audited() {
        let mut pds = populated_pds();
        let ctx = AccessContext::new("insurer-x", Purpose::Marketing);
        let err = pds.search(&ctx, &["blood"], 5).unwrap_err();
        assert!(matches!(err, PdsError::Denied { .. }));
        assert_eq!(pds.audit().denials(), 1);
        assert!(pds.audit().verify());
    }

    #[test]
    fn a_refused_create_index_is_audited_like_every_other_refusal() {
        let mut pds = populated_pds();
        let entries = pds.audit().entries().len();
        let stranger = AccessContext::new("insurer-x", Purpose::Marketing);
        let err = pds.create_index(&stranger, BANK_TABLE, "category");
        assert!(matches!(err, Err(PdsError::Denied { .. })), "{err:?}");
        assert_eq!(pds.audit().denials(), 1);
        assert_eq!(pds.audit().entries().len(), entries + 1);
        // The owner's maintenance is an access decision too: a grant.
        let owner = AccessContext::new("alice", Purpose::PersonalUse);
        pds.create_index(&owner, BANK_TABLE, "category").unwrap();
        assert_eq!(pds.audit().denials(), 1);
        let last = pds.audit().entries().last().unwrap();
        assert_eq!(
            (last.subject, last.action, last.decision),
            ("alice", "create_index", Decision::Granted)
        );
        assert!(pds.audit().verify());
    }

    /// The chain head a fixed request script leaves, as the trail of
    /// `String` entries produced it: however entries are stored, the
    /// bytes the chain is fed must not move.
    const AUDIT_HEAD: &str = "8d1a8465cc2201e675d0fea4a8d565d11362dfce3b389aca713682128e346ef2";

    #[test]
    fn the_audit_trail_of_a_fixed_request_script_is_pinned() {
        let mut pds = populated_pds();
        pds.grant(Rule::allow(
            "dr.martin",
            Collection::Table(HEALTH_TABLE.into()),
            Action::Read,
            Some(Purpose::Care),
        ));
        let alice = AccessContext::new("alice", Purpose::PersonalUse);
        let insurer = AccessContext::new("insurer-x", Purpose::Marketing);
        let doctor = AccessContext::new("dr.martin", Purpose::Care);
        let survey = AccessContext::new("survey-77", Purpose::Statistics);
        let salary = Predicate::eq("category", Value::str("salary"));
        let days = Predicate::between("day", Value::U64(11), Value::U64(13));
        // Outcomes are not the point here — the trail they leave is.
        let _ = pds.search(&alice, &["blood"], 5);
        let _ = pds.search(&insurer, &["blood"], 5);
        let _ = pds.select(&doctor, HEALTH_TABLE, &days);
        let _ = pds.select(&doctor, BANK_TABLE, &salary);
        let _ = pds.aggregate_sum(&survey, BANK_TABLE, "amount_cents", None);
        let _ = pds.select(&survey, BANK_TABLE, &salary);
        let _ = pds.get_document(&alice, 0);
        let _ = pds.create_index(&insurer, BANK_TABLE, "category");
        let _ = pds.create_index(&alice, BANK_TABLE, "category");
        let _ = pds.snapshot(&insurer);
        let _ = pds.group_count(&survey, EMAIL_TABLE, "sender");
        let _ = pds.select(&alice, BANK_TABLE, &days);
        let _ = pds.get_document(&doctor, 1);

        use Decision::{Denied, Granted};
        let want = [
            ("alice", "search", "documents", Granted),
            ("insurer-x", "search", "documents", Denied),
            ("dr.martin", "read", "HEALTH", Granted),
            ("dr.martin", "read", "BANK", Denied),
            ("survey-77", "aggregate", "BANK", Granted),
            ("survey-77", "read", "BANK", Denied),
            ("alice", "read", "documents", Granted),
            ("insurer-x", "create_index", "BANK", Denied),
            ("alice", "create_index", "BANK", Granted),
            ("insurer-x", "export", "all", Denied),
            ("survey-77", "aggregate", "EMAIL", Granted),
            ("alice", "read", "BANK", Granted),
            ("dr.martin", "read", "documents", Denied),
        ];
        let want: Vec<String> = want
            .iter()
            .enumerate()
            .map(|(seq, (s, a, t, d))| format!("{seq} {s} {a} {t} {d:?}"))
            .collect();
        let mut got = Vec::new();
        for e in pds.audit().entries() {
            let (seq, s, a, t, d) = (e.seq, &e.subject, &e.action, &e.target, e.decision);
            got.push(format!("{seq} {s} {a} {t} {d:?}"));
        }
        assert_eq!(got, want);
        assert_eq!(pds.audit().entries().len(), want.len());
        assert_eq!(pds.audit().denials(), 6);
        let head: String = pds
            .audit()
            .head()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(head, AUDIT_HEAD);
        assert!(pds.audit().verify());

        // A rewritten decision, a dropped entry and a reordered pair are
        // each caught.
        let mut rewritten = pds.audit().clone();
        rewritten.tamper_decision(3, Granted);
        assert!(!rewritten.verify());
        let mut dropped = pds.audit().clone();
        dropped.tamper_drop(7);
        assert!(!dropped.verify());
        let mut reordered = pds.audit().clone();
        reordered.tamper_swap(4, 5);
        assert!(!reordered.verify());
    }

    #[test]
    fn granting_a_doctor_care_access_works_until_revoked() {
        let mut pds = populated_pds();
        pds.grant(Rule::allow(
            "dr.martin",
            Collection::Table(HEALTH_TABLE.into()),
            Action::Read,
            Some(Purpose::Care),
        ));
        let ctx = AccessContext::new("dr.martin", Purpose::Care);
        let rows = pds
            .select(
                &ctx,
                HEALTH_TABLE,
                &Predicate::eq("category", Value::str("blood-pressure")),
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        // Purpose matters: the same doctor asking for marketing is denied.
        let bad_ctx = AccessContext::new("dr.martin", Purpose::Marketing);
        assert!(pds
            .select(
                &bad_ctx,
                HEALTH_TABLE,
                &Predicate::eq("category", Value::str("blood-pressure"))
            )
            .is_err());
        pds.revoke("dr.martin");
        assert!(pds
            .select(
                &ctx,
                HEALTH_TABLE,
                &Predicate::eq("category", Value::str("blood-pressure"))
            )
            .is_err());
    }

    #[test]
    fn retention_filters_old_rows_silently() {
        let mut pds = populated_pds();
        pds.set_clock(100);
        pds.grant(crate::policy::Rule {
            subject: crate::policy::SubjectPattern::Exact("auditor".into()),
            collection: Collection::Table(BANK_TABLE.into()),
            action: Action::Read,
            purpose: Some(Purpose::Care),
            policy: crate::policy::Policy::Allow,
            max_age_days: Some(88), // day 12 is 88 days old, day 13 is 87
        });
        let ctx = AccessContext::new("auditor", Purpose::Care);
        let rows = pds
            .select(
                &ctx,
                BANK_TABLE,
                &Predicate::eq("category", Value::str("salary")),
            )
            .unwrap();
        assert!(rows.len() <= 1);
        let groc = pds
            .select(
                &ctx,
                BANK_TABLE,
                &Predicate::eq("category", Value::str("groceries")),
            )
            .unwrap();
        assert_eq!(groc.len(), 1, "day-13 row is inside retention");
    }

    #[test]
    fn aggregate_for_statistics_allowed_read_denied() {
        let mut pds = populated_pds();
        let ctx = AccessContext::new("survey-77", Purpose::Statistics);
        let sum = pds
            .aggregate_sum(&ctx, BANK_TABLE, "amount_cents", None)
            .unwrap();
        assert_eq!(sum, 254_500);
        assert!(pds
            .select(
                &ctx,
                BANK_TABLE,
                &Predicate::eq("category", Value::str("salary"))
            )
            .is_err());
    }

    #[test]
    fn group_contribution_aggregates_by_key() {
        let mut pds = populated_pds();
        let ctx = AccessContext::new("survey", Purpose::Statistics);
        let groups = pds
            .group_contribution(&ctx, BANK_TABLE, "category", "amount_cents")
            .unwrap();
        assert!(groups.contains(&("salary".to_string(), 250_000)));
        assert!(groups.contains(&("groceries".to_string(), 4_500)));
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let mut pds = populated_pds();
        let ctx = AccessContext::new("alice", Purpose::PersonalUse);
        let snap = pds.snapshot(&ctx).unwrap();
        let mut restored = Pds::restore(2, "alice", &snap).unwrap();
        let rows = restored
            .select(
                &ctx,
                BANK_TABLE,
                &Predicate::eq("category", Value::str("salary")),
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        let hits = restored.search(&ctx, &["blood"], 5).unwrap();
        assert!(!hits.is_empty());
    }

    #[test]
    fn snapshot_requires_export_permission() {
        let mut pds = populated_pds();
        let ctx = AccessContext::new("mallory", Purpose::Marketing);
        assert!(pds.snapshot(&ctx).is_err());
    }

    #[test]
    fn snapshot_pins_selects_and_search() {
        let mut pds = populated_pds();
        pds.commit().unwrap();
        let ctx = AccessContext::new("alice", Purpose::PersonalUse);
        let snap = pds.open_snapshot().unwrap();
        // Writes after the snapshot: a new salary row and a new "blood" doc.
        pds.ingest_bank(14, "salary", 300_000, "employer").unwrap();
        pds.ingest_email(14, "dr.martin", "blood follow-up", "second blood panel")
            .unwrap();
        pds.commit().unwrap();
        let pred = Predicate::eq("category", Value::str("salary"));
        let live = pds.select(&ctx, BANK_TABLE, &pred).unwrap();
        assert_eq!(live.len(), 2, "live read sees the new commit");
        let pinned = pds.select_at(&ctx, &snap, BANK_TABLE, &pred).unwrap();
        assert_eq!(pinned.len(), 1, "snapshot read does not");
        let live_hits = pds.search(&ctx, &["blood"], 10).unwrap();
        let pinned_hits = pds.search_at(&ctx, &snap, &["blood"], 10).unwrap();
        assert!(pinned_hits.len() < live_hits.len());
        // The post-snapshot document is unreadable through the snapshot.
        let new_doc = live_hits.iter().map(|h| h.doc).max().unwrap();
        assert!(pds.get_document_at(&ctx, &snap, new_doc).is_err());
        assert!(pds.get_document(&ctx, new_doc).is_ok());
        pds.release_snapshot(&snap);
    }

    #[test]
    fn subscription_observes_each_commit_exactly_once() {
        let mut pds = populated_pds();
        pds.commit().unwrap();
        let id = pds
            .subscribe(BANK_TABLE, Predicate::eq("category", Value::str("salary")))
            .unwrap();
        // Pre-subscription history is not replayed.
        assert!(pds.poll_subscription(id).unwrap().is_empty());
        pds.ingest_bank(20, "salary", 260_000, "employer").unwrap();
        pds.ingest_bank(20, "groceries", 3_000, "shop-2").unwrap();
        pds.commit().unwrap();
        let delta = pds.poll_subscription(id).unwrap();
        assert_eq!(delta.len(), 1, "only the matching row is delivered");
        assert_eq!(delta[0].1[2], Value::U64(260_000));
        assert!(
            pds.poll_subscription(id).unwrap().is_empty(),
            "no re-delivery"
        );
        assert!(matches!(
            pds.poll_subscription(99),
            Err(PdsError::UnknownSubscription(99))
        ));
    }

    #[test]
    fn subscription_survives_hibernate_wake() {
        let mut pds = populated_pds();
        pds.commit().unwrap();
        let id = pds
            .subscribe(BANK_TABLE, Predicate::eq("category", Value::str("salary")))
            .unwrap();
        pds.ingest_bank(21, "salary", 270_000, "employer").unwrap();
        pds.commit().unwrap();
        let h = pds.hibernate().unwrap();
        let (mut pds, report) = Pds::wake(h).unwrap();
        assert_eq!(report.changes_dropped, 0);
        let delta = pds.poll_subscription(id).unwrap();
        assert_eq!(
            delta.len(),
            1,
            "commit from before the power-down is delivered once"
        );
        assert!(pds.poll_subscription(id).unwrap().is_empty());
    }

    #[test]
    fn reopen_reconstructs_the_precrash_timeline() {
        let mut pds = populated_pds();
        pds.commit().unwrap();
        pds.sync().unwrap();
        let n_durable = pds.blackbox().num_frames();
        assert!(n_durable >= 6, "5 ingests + 1 commit + 1 sync recorded");
        let (pds, report) = pds.reopen().unwrap();
        assert_eq!(report.docs_lost, 0);
        let f = pds.forensics().expect("reopen produces a post-mortem");
        assert_eq!(f.cause, crate::forensics::CrashCause::CleanShutdown);
        assert_eq!(f.frames_recovered, n_durable);
        let timeline = pds.pre_crash_timeline().unwrap();
        assert_eq!(timeline.len() as u64, n_durable);
        assert!(timeline
            .iter()
            .any(|fr| fr.code == pds_obs::flight::code::CORE_COMMIT));
        // The post-recovery ring carries the reopen marker after the
        // pre-crash timeline.
        assert!(pds
            .blackbox()
            .frames()
            .unwrap()
            .iter()
            .any(|fr| fr.code == pds_obs::flight::code::RECOVERY_REOPEN));
    }

    #[test]
    fn a_clean_park_keeps_only_frames_above_info_and_sync_keeps_every_frame() {
        use crate::forensics::CrashCause;
        use pds_obs::flight::code;
        let codes = |frames: &[EventFrame]| frames.iter().map(|fr| fr.code).collect::<Vec<_>>();
        let mut pds = populated_pds();
        pds.commit().unwrap();
        pds.sync().unwrap();
        let synced = pds.blackbox().frames().unwrap();
        assert_eq!(codes(&synced).last(), Some(&code::CORE_SYNC));

        // A clean park with only Info frames buffered lets them go: the
        // wake finds the ring as the sync left it, and loses no data.
        pds.ingest_bank(14, "groceries", 3_000, "shop-2").unwrap();
        let (pds, report) = Pds::wake(pds.hibernate().unwrap()).unwrap();
        assert_eq!(report.docs_lost, 0);
        assert!(report.rows_lost.iter().all(|(_, n)| *n == 0));
        assert_eq!(pds.forensics().unwrap().cause, CrashCause::CleanShutdown);
        assert_eq!(pds.pre_crash_timeline().unwrap(), synced);

        // A Warn frame buffered at a clean park is programmed, with the
        // Info frames that share its page.
        flight::record(
            Severity::Warn,
            subsystem::FLASH,
            code::FLASH_BLOCK_RETIRED,
            [7, 0],
        );
        let (mut pds, _) = Pds::wake(pds.hibernate().unwrap()).unwrap();
        assert_eq!(pds.forensics().unwrap().cause, CrashCause::CleanShutdown);
        let timeline = pds.pre_crash_timeline().unwrap();
        assert_eq!(&timeline[..synced.len()], &synced[..]);
        assert_eq!(
            codes(&timeline[synced.len()..]),
            [
                code::RECOVERY_REOPEN,
                code::FLASH_BLOCK_RETIRED,
                code::CORE_HIBERNATE,
                code::CORE_SYNC
            ]
        );

        // `sync` makes every frame durable, the wake's own included.
        pds.sync().unwrap();
        let synced = pds.blackbox().frames().unwrap();
        let (pds, _) = Pds::wake(pds.hibernate().unwrap()).unwrap();
        assert_eq!(pds.pre_crash_timeline().unwrap(), synced);
        assert_eq!(
            codes(&synced[timeline.len()..]),
            [code::RECOVERY_REOPEN, code::CORE_SYNC]
        );
    }

    #[test]
    fn gc_never_outruns_a_subscription_cursor() {
        let mut pds = populated_pds();
        pds.commit().unwrap();
        let id = pds
            .subscribe(BANK_TABLE, Predicate::eq("category", Value::str("salary")))
            .unwrap();
        pds.ingest_bank(22, "salary", 280_000, "employer").unwrap();
        pds.commit().unwrap();
        pds.ingest_bank(23, "salary", 290_000, "employer").unwrap();
        pds.commit().unwrap();
        // GC with an unpolled subscriber must keep its unread changes.
        pds.gc_versions().unwrap();
        let delta = pds.poll_subscription(id).unwrap();
        assert_eq!(delta.len(), 2, "GC kept every unobserved change");
    }
}
