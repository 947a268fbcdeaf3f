//! Power cycles: the engine's durable identity, the index checkpoint and
//! [`SearchEngine::recover`].
//!
//! The tutorial's tokens are portable — power is whatever port the token
//! is plugged into — so a reopen is an ordinary event and must cost what
//! changed since the last sync, not what the token has accumulated over
//! its life. The documents and tombstones are record logs and recover by
//! their page CRCs. The inverted index is a log of *raw* bucket pages
//! whose chain heads live in RAM; what lets recovery keep it is the
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

    /// The last checkpoint in `log`, if any.
    fn last_in(log: &LogWriter, num_buckets: usize) -> Result<Option<Checkpoint>, FlashError> {
        let mut last = None;
        log.for_each_record(|_, rec| {
            last = Checkpoint::decode(rec, num_buckets).or(last.take());
            Ok(())
        })?;
        Ok(last)
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
    /// Blocks of the index log (raw bucket pages). Kept across the power
    /// cycle up to the page frontier of the last checkpoint.
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

    /// Choose the frontier recovery resumes from: the last checkpoint if
    /// it is usable for this manifest and these documents, else the
    /// reason it is not. Reads at most one page per bucket: each head,
    /// whose triples and df table must be its bucket's.
    fn usable_checkpoint(
        &self,
        m: &EngineManifest,
    ) -> Result<Result<Checkpoint, RebuildReason>, SearchError> {
        let geo = self.flash.geometry();
        let _guard = self
            .ram
            .reserve(geo.page_size + BODY_HEADER + 4 * self.num_buckets)?;
        let Some(ckpt) = Checkpoint::last_in(&self.checkpoints, self.num_buckets)? else {
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
            let Some(addr) = geo.log_page(&m.index_blocks, head).filter(|_| head < tail) else {
                return Ok(Err(RebuildReason::ChainMismatch));
            };
            self.flash.read_page(addr, &mut buf)?;
            let of_bucket = |term: u64| self.bucket_of(term) == bucket;
            let sound = BucketPage::parse(&buf).is_some_and(|page| {
                (page.prev == NO_PREV || page.prev < head)
                    && page.triples().all(|t| t.doc < docs && of_bucket(t.term))
                    && (page.table())
                        .is_some_and(|table| table.entries().all(|(t, _)| of_bucket(t)))
            });
            if !sound {
                return Ok(Err(RebuildReason::ChainMismatch));
            }
        }
        Ok(Ok(ckpt))
    }

    /// Bring an engine back after a power cycle.
    ///
    /// The document store and the tombstone log are record logs and
    /// recover via [`LogWriter::recover`] — every document durably on
    /// flash before the cut comes back. The inverted index is *kept*: the
    /// last complete index checkpoint (module docs) gives the docid
    /// frontier `D`, the page frontier `P`, the tail start and the chain
    /// heads; the index log is re-adopted up to `P`
    /// ([`LogWriter::recover_raw`] — pages past `P` are garbage the cut
    /// left behind), and only documents `D..` go through the indexing
    /// path again, drains included. Work is proportional to
    /// what was ingested since the last sync, plus one page read per
    /// bucket to check the heads against the pages they name.
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
        let (tombstones, _) = LogWriter::recover(flash, &m.tombstone_blocks)?;
        let mut tombstoned: Vec<DocId> = Vec::new();
        tombstones.for_each_record(|_, rec| {
            let mut r = Reader::new(rec);
            if let Some(doc) = r.u32().filter(|_| r.remaining() == 0) {
                tombstoned.push(doc);
            }
            Ok(())
        })?;
        let (checkpoints, _) = LogWriter::recover(flash, &m.checkpoint_blocks)?;
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

        let (from, index_rebuild) = match engine.usable_checkpoint(m)? {
            Ok(ckpt) => {
                engine.heads = ckpt.heads;
                (ckpt.at, None)
            }
            // A fresh log under a new epoch: whatever checkpoints the
            // old one left behind can never match it.
            Err(why) => (Frontier::origin(m.index_epoch.wrapping_add(1)), Some(why)),
        };
        let (index, _) = LogWriter::recover_raw(flash, &m.index_blocks, from.pages)?;
        let index_blocks_dropped = m
            .index_blocks
            .iter()
            .filter(|b| !index.blocks().contains(b))
            .count();
        engine.index = index;
        engine.tail_start = from.tail;
        engine.epoch = from.epoch;
        engine.durable = from;

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
    use pds_obs::rng::Rng;
    use pds_obs::wire::{sweep, Tail};

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
