//! Document store: raw document bytes in an append-only log.
//!
//! Documents (emails, notes, records of interactions with e-services) go
//! into a record log one record each; a docid *is* the record's ordinal,
//! so the store keeps no directory, and a document larger than a page is
//! chunked and put back together by the log itself
//! ([`pds_flash::log`]). Fetching a document costs one page I/O per
//! page it occupies.

use pds_flash::{BlockId, Flash, FlashError, LogWriter};

use crate::triple::DocId;

/// Append-only store of documents on flash: the typed front of a record
/// log whose ordinals are the docids.
pub struct DocStore {
    log: LogWriter,
}

impl DocStore {
    /// An empty store on `flash`.
    pub fn new(flash: &Flash) -> Self {
        DocStore {
            log: flash.new_log(),
        }
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.log.num_records() as usize
    }

    /// True if no document is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a document, returning its docid. Docids are dense and
    /// strictly increasing — the invariant the pipeline merge of the
    /// search engine relies on.
    pub fn append(&mut self, content: &[u8]) -> Result<DocId, FlashError> {
        self.log.append(content)
    }

    /// Fetch a document (one page I/O per page it occupies).
    pub fn get(&self, doc: DocId) -> Result<Vec<u8>, FlashError> {
        self.log.get(doc)
    }

    /// Durably flush pending documents.
    pub fn flush(&mut self) -> Result<(), FlashError> {
        self.log.flush()
    }

    /// The store's erase blocks — its whole durable identity (see
    /// [`recover`](Self::recover)).
    pub fn blocks(&self) -> Vec<BlockId> {
        self.log.blocks().to_vec()
    }

    /// Rebuild a store after a power loss from its block list (a real
    /// token persists it in a catalog log — the simulation carries it
    /// across the reboot in RAM). `held` is the number of documents the
    /// store had at power-off; returns the store and how many of them
    /// are lost.
    ///
    /// Docids are dense and documents are appended in docid order, so
    /// whatever the crash destroyed is a *suffix*: every document the
    /// log's recovery scan finds is intact and keeps its docid.
    pub fn recover(
        flash: &Flash,
        blocks: &[BlockId],
        held: u32,
    ) -> Result<(Self, u32), FlashError> {
        let (log, _) = LogWriter::recover(flash, blocks)?;
        let store = DocStore { log };
        let lost = held.saturating_sub(store.len() as u32);
        pds_obs::counter("recovery.docs_lost").add(lost as u64);
        Ok((store, lost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_flash::Flash;

    #[test]
    fn docids_are_dense_and_increasing() {
        let f = Flash::small(16);
        let mut s = DocStore::new(&f);
        for i in 0..10 {
            let id = s.append(format!("doc {i}").as_bytes()).unwrap();
            assert_eq!(id, i);
        }
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn round_trips_small_and_large() {
        let f = Flash::small(64);
        let mut s = DocStore::new(&f);
        let small = b"hello".to_vec();
        let large: Vec<u8> = (0..3000u32).flat_map(|i| i.to_le_bytes()).collect();
        let a = s.append(&small).unwrap();
        let b = s.append(&large).unwrap();
        let c = s.append(b"").unwrap();
        assert_eq!(s.get(a).unwrap(), small);
        assert_eq!(s.get(b).unwrap(), large);
        assert_eq!(s.get(c).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn unknown_doc_is_an_error() {
        let f = Flash::small(4);
        let s = DocStore::new(&f);
        assert!(s.get(3).is_err());
    }
}
