//! Power cycles: the engine's durable identity, the index checkpoint and
//! [`SearchEngine::recover`].
//!
//! The tutorial's tokens are portable — power is whatever port the token
//! is plugged into — so a reopen is an ordinary event and must cost what
//! changed since the last sync, not what the token has accumulated over
//! its life. The documents and tombstones are record logs and recover by
//! their page CRCs. The inverted index is a log of bucket pages, each a
//! record that fills its page, whose chain heads live in RAM; what lets
//! recovery keep it is the
//! **index checkpoint**: at the end of every [`SearchEngine::flush`] —
//! when every pending triple, document chunk and tombstone is on flash —
//! one record `(epoch, docid frontier D, index page frontier P, tail start
//! T, chain heads)` goes to a small CRC-framed record log of its own: the
//! chains as of the last drain, and the staged pages `T..P` that hold
//! everything indexed since. Write
//! ordering is the whole correctness argument: a checkpoint becomes
//! durable only after every page it names, and the index log is
//! append-only, so pages below `P` are exactly what they were when the
//! checkpoint was taken, whatever was programmed — or torn — after it.
//!
//! ## Checkpoint record layout
//!
//! ```text
//! [epoch: u32][D: u32][P: u32][T: u32] num_buckets × [head: u32]
//! ```
//!
//! A checkpoint is one record. One larger than a page (128 buckets on
//! 512-byte pages) spans pages like any large record of the log, and
//! like any record it exists only once its last page is durable: a torn
//! or partial checkpoint is simply not there, and its predecessor —
//! still valid, for the reason above — is used instead.

use pds_flash::{BlockId, Flash, FlashError, LogWriter};
use pds_mcu::RamBudget;
use pds_obs::flight::{code, subsystem, Severity};
use pds_obs::wire::Reader;

use super::{DfStrategy, SearchEngine, SearchError};
use crate::docs::DocStore;
use crate::triple::{BucketPage, DocId, NO_PREV};

/// Bytes of `[epoch][D][P][T]` in front of the chain heads.
const BODY_HEADER: usize = 16;

/// What a checkpoint pins: which index log (`epoch` — bumped whenever a
/// fresh log replaces the index), how many documents its pages cover,
/// how many pages it has and where among them the tail starts. The
/// origin `(epoch, 0, 0, 0)` — an empty log — needs no record to be true.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Frontier {
    epoch: u32,
    docs: DocId,
    pages: u32,
    tail: u32,
}

impl Frontier {
    pub(super) fn origin(epoch: u32) -> Self {
        Frontier {
            epoch,
            docs: 0,
            pages: 0,
            tail: 0,
        }
    }
}

/// A decoded checkpoint: the frontier and the chain heads at it.
struct Checkpoint {
    at: Frontier,
    heads: Vec<u32>,
}

impl Checkpoint {
    fn encode(at: Frontier, heads: &[u32]) -> Vec<u8> {
        let mut body = Vec::with_capacity(BODY_HEADER + 4 * heads.len());
        for word in [at.epoch, at.docs, at.pages, at.tail].iter().chain(heads) {
            body.extend_from_slice(&word.to_le_bytes());
        }
        body
    }

    /// `None` unless `body` is exactly a header and `num_buckets` heads.
    /// The head count is the engine's own sizing, not a field of the
    /// record: a record of any other length is refused, and what is left
    /// after the header is then read to its end.
    fn decode(body: &[u8], num_buckets: usize) -> Option<Checkpoint> {
        let mut r = Reader::new(body);
        let at = Frontier {
            epoch: r.u32()?,
            docs: r.u32()?,
            pages: r.u32()?,
            tail: r.u32()?,
        };
        if r.remaining() != 4 * num_buckets {
            return None;
        }
        let mut heads = Vec::with_capacity(num_buckets);
        while let Some(head) = r.u32() {
            heads.push(head);
        }
        Some(Checkpoint { at, heads })
    }
}

/// Why a recovery re-indexed every document instead of keeping the
/// index log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildReason {
    /// No complete checkpoint on flash: the engine never synced.
    NoCheckpoint,
    /// The last checkpoint describes an index log that has since been
    /// replaced (a cut between a reorganization's swap and its
    /// checkpoint).
    StaleEpoch,
    /// The checkpoint covers more documents than the document log
    /// recovered.
    DocsMissing,
    /// The checkpoint names pages beyond the manifest's index blocks.
    PagesMissing,
    /// The tail start or the chain heads did not pass the structural
    /// check against the pages they name.
    ChainMismatch,
}

impl RebuildReason {
    /// The reason as carried by the `RECOVERY_INDEX_REBUILD` flight
    /// event (`args[0]`). Code 2 is retired (a df strategy that could
    /// not checkpoint) and is not reused: recorded frames carry it.
    pub fn code(self) -> u64 {
        match self {
            RebuildReason::NoCheckpoint => 1,
            RebuildReason::StaleEpoch => 3,
            RebuildReason::DocsMissing => 4,
            RebuildReason::PagesMissing => 5,
            RebuildReason::ChainMismatch => 6,
        }
    }
}

/// Durable identity of a [`SearchEngine`] across a power cycle: the
/// block lists of its four logs and the sizing knobs — nothing whose
/// size grows with the documents held. A real token persists this in a
/// catalog log; the simulation carries it across the reboot in RAM.
#[derive(Debug, Clone)]
pub struct EngineManifest {
    /// Blocks of the document log.
    pub doc_blocks: Vec<BlockId>,
    /// Documents held at power-off, flushed or not — recovery needs it
    /// only to report how many were lost.
    pub docs: u32,
    /// Blocks of the tombstone log.
    pub tombstone_blocks: Vec<BlockId>,
    /// Blocks of the index log (bucket pages, a record filling each).
    /// Kept across the power cycle up to the page frontier of the last
    /// checkpoint.
    pub index_blocks: Vec<BlockId>,
    /// Identity of the index log `index_blocks` holds; a checkpoint
    /// written for another epoch describes a log that no longer exists.
    pub index_epoch: u32,
    /// Blocks of the index-checkpoint log. Emptied, recovery finds no
    /// checkpoint and re-indexes every document — what the differential
    /// tests compare the kept index against.
    pub checkpoint_blocks: Vec<BlockId>,
    /// Hash bucket count.
    pub num_buckets: usize,
    /// RAM insertion-buffer capacity in triples.
    pub buffer_triples: usize,
}

/// What [`SearchEngine::recover`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineRecovery {
    /// Documents intact after the crash.
    pub docs_recovered: u32,
    /// Documents lost to the crash (suffix of the docid space).
    pub docs_lost: u32,
    /// Tombstones re-applied from the recovered tombstone log.
    pub tombstones_applied: u64,
    /// Index blocks of the manifest returned to the pool: everything
    /// past the kept frontier, or all of them on a rebuild.
    pub index_blocks_dropped: usize,
    /// Index pages kept as they were (the checkpoint's page frontier; 0
    /// on a rebuild).
    pub index_pages_kept: u32,
    /// Documents pushed through the indexing path again: the tail past
    /// the checkpoint's docid frontier, or every document on a rebuild.
    pub docs_replayed: u32,
    /// `Some` when the index log was not kept, with the reason.
    pub index_rebuild: Option<RebuildReason>,
}

impl SearchEngine {
    /// The engine's durable identity, to be persisted by the layer above
    /// (a real token keeps it in a catalog log) and handed to
    /// [`recover`](Self::recover) after a power loss.
    pub fn manifest(&self) -> EngineManifest {
        EngineManifest {
            doc_blocks: self.docs.blocks(),
            docs: self.num_docs(),
            tombstone_blocks: self.tombstones.blocks().to_vec(),
            index_blocks: self.index.blocks().to_vec(),
            index_epoch: self.epoch,
            checkpoint_blocks: self.checkpoints.blocks().to_vec(),
            num_buckets: self.num_buckets,
            buffer_triples: self.pending_cap,
        }
    }

    /// Append an index checkpoint if the frontier moved since the last
    /// durable one. Called with nothing pending (end of `flush`), so the
    /// chains and the tail hold every document below the docid frontier. An
    /// engine whose frontier never moves — a token holding no documents
    /// — never programs a page here.
    pub(super) fn write_checkpoint(&mut self) -> Result<(), SearchError> {
        let now = Frontier {
            epoch: self.epoch,
            docs: self.num_docs(),
            pages: self.index.num_pages(),
            tail: self.tail_start,
        };
        if now == self.durable {
            return Ok(());
        }
        let body = Checkpoint::encode(now, &self.heads);
        let _guard = self.ram.reserve(body.len())?;
        let first_page = self.checkpoints.num_pages();
        self.checkpoints.append(&body)?;
        self.checkpoints.flush()?;
        // Only the newest checkpoint is ever read: blocks wholly before
        // it go back to the pool, which bounds the log — and the scan a
        // recovery pays for it — at about two blocks.
        let per = self.flash.geometry().pages_per_block as u32;
        self.checkpoints.release_head((first_page / per) as usize);
        self.durable = now;
        Ok(())
    }

    /// Choose the frontier recovery resumes from: `last`, the last
    /// checkpoint the log held, if it is usable for this manifest and
    /// these documents, else the reason it is not. Reads at most one page
    /// per bucket: each head, whose triples and df table must be its
    /// bucket's. Its page buffer is the caller's to charge.
    fn usable_checkpoint(
        &self,
        m: &EngineManifest,
        last: Option<Checkpoint>,
    ) -> Result<Result<Checkpoint, RebuildReason>, SearchError> {
        let geo = self.flash.geometry();
        let Some(ckpt) = last else {
            return Ok(Err(RebuildReason::NoCheckpoint));
        };
        let Frontier {
            epoch,
            docs,
            pages,
            tail,
        } = ckpt.at;
        if epoch != m.index_epoch {
            return Ok(Err(RebuildReason::StaleEpoch));
        }
        if docs > self.num_docs() {
            return Ok(Err(RebuildReason::DocsMissing));
        }
        if pages > 0 && geo.log_page(&m.index_blocks, pages - 1).is_none() {
            return Ok(Err(RebuildReason::PagesMissing));
        }
        // Pages below the frontier are intact by write ordering; what
        // this catches is a checkpoint that does not belong to this log.
        if tail > pages {
            return Ok(Err(RebuildReason::ChainMismatch));
        }
        let mut buf = vec![0u8; geo.page_size];
        for (bucket, &head) in ckpt.heads.iter().enumerate() {
            if head == NO_PREV {
                continue;
            }
            // A chain lies wholly below the tail.
            if head >= tail {
                return Ok(Err(RebuildReason::ChainMismatch));
            }
            // Read as every index page is: a read disturb is read again,
            // not taken for a checkpoint that does not fit.
            let page =
                match LogWriter::read_filled_page(&self.flash, &m.index_blocks, head, &mut buf) {
                    Ok(page) => BucketPage::parse(page),
                    Err(
                        FlashError::CorruptPage(_)
                        | FlashError::ErasedPage(_)
                        | FlashError::BadRecordAddr,
                    ) => None,
                    Err(e) => return Err(e.into()),
                };
            if !self.is_head(bucket, head, docs, page) {
                return Ok(Err(RebuildReason::ChainMismatch));
            }
        }
        Ok(Ok(ckpt))
    }

    /// Whether `page`, index page `head`, may be the head of `bucket`'s
    /// chain in a checkpoint of `docs` documents: it links back or ends
    /// the chain, and its postings and df table are the bucket's, of
    /// documents below `docs`.
    fn is_head(&self, bucket: usize, head: u32, docs: DocId, page: Option<BucketPage<'_>>) -> bool {
        let of_bucket = |term: u64| self.bucket_of(term) == bucket;
        page.is_some_and(|page| {
            (page.prev == NO_PREV || page.prev < head)
                && page.triples().all(|t| t.doc < docs && of_bucket(t.term))
                && (page.table()).is_some_and(|table| table.entries().all(|(t, _)| of_bucket(t)))
        })
    }

    /// Note each page of the tail a checkpoint kept, read once, as
    /// [`program_staged`](SearchEngine::program_staged) noted it when it
    /// programmed it: its span, its term filter and its triples in the
    /// tally ([`note_tail_page`](SearchEngine::note_tail_page)). So a wake
    /// leaves the engine knowing its tail as it did before the power
    /// cycle, and a walk or a drain reads what it read then. A page that
    /// fails every read stays unknown and adds nothing to the tally: the
    /// wake goes on, and a walk or a drain's gather that meets the page
    /// fails on it. One page of the budget for the pass.
    fn note_kept_tail(&mut self) -> Result<(), SearchError> {
        let page_size = self.flash.geometry().page_size;
        let _page_guard = self.ram.reserve(page_size)?;
        let mut buf = vec![0u8; page_size];
        for page in self.tail_start..self.index.num_pages() {
            let staged = match self.staged_page(page, &mut buf) {
                Ok(staged) => staged,
                Err(
                    SearchError::Flash(
                        FlashError::CorruptPage(_)
                        | FlashError::ErasedPage(_)
                        | FlashError::BadRecordAddr,
                    )
                    | SearchError::CorruptIndex(_),
                ) => continue,
                Err(e) => return Err(e),
            };
            self.note_tail_page(page, staged.as_ref());
        }
        pds_obs::counter!("recovery.tail_pages_read").add(u64::from(self.num_tail_pages()));
        Ok(())
    }

    /// Bring an engine back after a power cycle.
    ///
    /// The document store and the tombstone log are record logs and
    /// recover via [`LogWriter::recover`] — every document durably on
    /// flash before the cut comes back. The inverted index is *kept*: the
    /// last complete index checkpoint (module docs) gives the docid
    /// frontier `D`, the page frontier `P`, the tail start and the chain
    /// heads; the index log is re-adopted up to `P`
    /// ([`LogWriter::recover_at`] — pages past `P` are garbage the cut
    /// left behind), each page of its tail is read once to note what it
    /// holds, and only documents `D..` go through the indexing path
    /// again, drains included. Work is proportional to what was ingested
    /// since the last sync, plus one page read per bucket to check the
    /// heads against the pages they name and one per kept tail page — a
    /// drain's length and a buffer-full at most, unless a failed drain
    /// left pages among the tail.
    ///
    /// When there is no usable checkpoint ([`RebuildReason`]) the same
    /// replay runs from the origin instead — document 0 on an empty log
    /// — which re-derives the whole index. Tombstones are re-applied
    /// last, so deletions survive either way; a replayed tombstone counts
    /// as a deletion not yet purged — the heads' df tables may count its
    /// document's postings — until the next
    /// [`reorganize`](SearchEngine::reorganize), whatever reorganisation
    /// came before it.
    pub fn recover(
        flash: &Flash,
        ram: &RamBudget,
        m: &EngineManifest,
    ) -> Result<(SearchEngine, EngineRecovery), SearchError> {
        let (docs, docs_lost) = DocStore::recover(flash, &m.doc_blocks, m.docs)?;
        // The tombstones and the last checkpoint are taken from the
        // recovery scans' own reads: neither log is read twice.
        let mut tombstoned: Vec<DocId> = Vec::new();
        let (tombstones, _) = LogWriter::recover_with(flash, &m.tombstone_blocks, |rec| {
            let mut r = Reader::new(rec);
            if let Some(doc) = r.u32().filter(|_| r.remaining() == 0) {
                tombstoned.push(doc);
            }
            true
        })?;
        // The checkpoint kept and a page buffer — the scan's, then the
        // heads' check's — until the checkpoint is chosen.
        let page_size = flash.geometry().page_size;
        let checking = ram.reserve(page_size + BODY_HEADER + 4 * m.num_buckets)?;
        let mut last = None;
        let (checkpoints, _) = LogWriter::recover_with(flash, &m.checkpoint_blocks, |rec| {
            last = Checkpoint::decode(rec, m.num_buckets).or(last.take());
            true
        })?;
        let mut engine = SearchEngine::new(
            flash,
            ram,
            m.num_buckets,
            m.buffer_triples,
            DfStrategy::TwoPass,
        )?;
        engine.docs = docs;
        engine.tombstones = tombstones;
        engine.checkpoints = checkpoints;

        let (from, index_rebuild) = match engine.usable_checkpoint(m, last)? {
            Ok(ckpt) => {
                engine.heads = ckpt.heads;
                (ckpt.at, None)
            }
            // A fresh log under a new epoch: whatever checkpoints the
            // old one left behind can never match it.
            Err(why) => (Frontier::origin(m.index_epoch.wrapping_add(1)), Some(why)),
        };
        drop(checking);
        let (index, _) = LogWriter::recover_at(flash, &m.index_blocks, from.pages)?;
        let index_blocks_dropped = m
            .index_blocks
            .iter()
            .filter(|b| !index.blocks().contains(b))
            .count();
        engine.index = index;
        engine.tail_start = from.tail;
        engine.epoch = from.epoch;
        engine.durable = from;
        engine.note_kept_tail()?;

        let docs_recovered = engine.num_docs();
        for doc in from.docs..docs_recovered {
            let text = String::from_utf8_lossy(&engine.docs.get(doc)?).into_owned();
            engine.index_text(doc, &text)?;
        }
        let mut tombstones_applied = 0u64;
        for doc in tombstoned {
            // Tombstones for documents the crash destroyed are moot, and
            // duplicates (recovery after recovery) apply once.
            if doc < docs_recovered && !engine.deleted.contains(&doc) {
                engine.note_deleted(doc)?;
                tombstones_applied += 1;
            }
        }
        let report = EngineRecovery {
            docs_recovered,
            docs_lost,
            tombstones_applied,
            index_blocks_dropped,
            index_pages_kept: from.pages,
            docs_replayed: docs_recovered - from.docs,
            index_rebuild,
        };
        report.publish(!m.checkpoint_blocks.is_empty());
        Ok((engine, report))
    }
}

impl EngineRecovery {
    /// Export which path ran: `recovery.*` counters, and for a rebuild
    /// that had something to rebuild a flight event naming the reason —
    /// a `Warn` when the token did have a checkpoint log, because then
    /// the O(corpus) reopen is a surprise a post-mortem should show.
    fn publish(&self, had_checkpoints: bool) {
        pds_obs::counter!("recovery.index_pages_kept").add(u64::from(self.index_pages_kept));
        pds_obs::counter!("recovery.docs_replayed").add(u64::from(self.docs_replayed));
        let Some(why) = self.index_rebuild else {
            return;
        };
        if self.docs_replayed == 0 && !had_checkpoints {
            return;
        }
        pds_obs::counter!("recovery.index_rebuilds").inc();
        let severity = if had_checkpoints {
            Severity::Warn
        } else {
            Severity::Info
        };
        pds_obs::event!(
            severity,
            subsystem::RECOVERY,
            code::RECOVERY_INDEX_REBUILD,
            why.code(),
            self.docs_replayed
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_flash::{FaultPlan, FlashGeometry, PAGE_RECORD};
    use pds_obs::rng::{Rng, SeedableRng, StdRng};
    use pds_obs::wire::{sweep, Tail};

    /// A head's first read at recovery flips a bit that makes the page
    /// look like another bucket's or a later document's: the read is
    /// verified and read again, and recovery keeps the checkpoint — where
    /// a head read raw would have been taken for a checkpoint that does
    /// not fit this log, and the whole index re-indexed.
    #[test]
    fn a_flip_in_a_heads_first_read_is_read_again_not_a_rebuild() {
        let flash = Flash::new(FlashGeometry::new(512, 8, 512));
        let ram = RamBudget::new(64 * 1024);
        let mut e = SearchEngine::new(&flash, &ram, 16, 64, DfStrategy::TwoPass).unwrap();
        let mut rng = StdRng::seed_from_u64(0xF1_1F);
        for i in 0..300 {
            let words: Vec<String> = (0..6)
                .map(|_| format!("w{}", rng.gen_range(0..40)))
                .collect();
            e.index_document(&format!("doc{i} {}", words.join(" ")))
                .unwrap();
        }
        e.flush().unwrap();
        let m = e.manifest();
        let recover = |flash: &Flash| SearchEngine::recover(flash, &RamBudget::new(64 * 1024), &m);
        // A clean recovery scans the three record logs, then reads each
        // head, then the frontier if its block has one.
        let clean = flash.reboot();
        let (kept, report) = recover(&clean).unwrap();
        assert_eq!((report.index_rebuild, report.docs_replayed), (None, 0));
        let heads: Vec<(usize, u32)> = (kept.heads.iter().copied().enumerate())
            .filter(|&(_, head)| head != NO_PREV)
            .collect();
        let scans = flash.reboot();
        for blocks in [&m.doc_blocks, &m.tombstone_blocks, &m.checkpoint_blocks] {
            LogWriter::recover(&scans, blocks).unwrap();
        }
        let before = scans.stats().page_reads;
        let after = clean.stats().page_reads - before - 1;
        let (bucket, head) = heads[0];
        let addr = flash.geometry().log_page(&m.index_blocks, head).unwrap();
        let mut image = vec![0u8; 512];
        flash.read_page(addr, &mut image).unwrap();
        // The first plan whose first `before` reads do not flip, whose
        // next — the head's — flips it into a page that is no head of its
        // bucket, and whose `after` reads after that do not flip.
        let plan = |seed| FaultPlan::new(seed).read_flips(1.0 / 32.0);
        let probe = flash.reboot();
        let docs = kept.num_docs();
        let seed = (0..)
            .find(|&seed| {
                probe.inject_faults(plan(seed));
                let read = || {
                    let mut buf = vec![0u8; 512];
                    probe.read_page(addr, &mut buf).unwrap();
                    buf
                };
                if !(0..before).all(|_| read() == image) {
                    return false;
                }
                let flipped = read();
                let page = BucketPage::parse(&flipped[PAGE_RECORD]);
                !kept.is_head(bucket, head, docs, page) && (0..after).all(|_| read() == image)
            })
            .unwrap();
        let disturbed = flash.reboot();
        disturbed.inject_faults(plan(seed));
        let (engine, got) = recover(&disturbed).unwrap();
        // One read more than the clean recovery's: the head's, again.
        let reads = disturbed.stats().page_reads;
        assert_eq!(reads, clean.stats().page_reads + 1, "seed {seed}");
        assert_eq!(got, report, "seed {seed}");
        disturbed.inject_faults(FaultPlan::new(seed));
        for q in [&["w1"][..], &["w2", "w3"], &["doc7", "w39"]] {
            assert_eq!(
                engine.search(q, 10).unwrap(),
                kept.search(q, 10).unwrap(),
                "{q:?}"
            );
        }
    }

    /// The head count is the engine's sizing, so the format has no count
    /// field to lie with: what it must refuse is every other length.
    #[test]
    fn checkpoints_keep_the_decoder_contract() {
        const BUCKETS: usize = 24;
        sweep(
            "checkpoint",
            Tail::Exact,
            &[&[0xFF; BODY_HEADER + 4 * BUCKETS + 4], &[0xFF; BODY_HEADER]],
            |rng| {
                let at = Frontier {
                    epoch: rng.gen(),
                    docs: rng.gen(),
                    pages: rng.gen(),
                    tail: rng.gen(),
                };
                let heads: Vec<u32> = (0..BUCKETS).map(|_| rng.gen()).collect();
                (at, heads)
            },
            |(at, heads)| Checkpoint::encode(*at, heads),
            |body| Checkpoint::decode(body, BUCKETS).map(|c| (c.at, c.heads)),
        );
    }
}
