//! Document store: raw document bytes in an append-only log.
//!
//! Documents (emails, notes, records of interactions with e-services) are
//! chunked to fit log records; a compact directory maps each docid to its
//! chunk addresses. The directory costs ~10 bytes per document and lives
//! with the RAM hash table of the engine (on real hardware it is paged
//! from a directory log; the I/O accounting here charges the data pages,
//! which dominate).

use pds_flash::{BlockId, Flash, FlashError, LogWriter, RecordAddr};

use crate::triple::DocId;

/// Append-only store of documents on flash.
pub struct DocStore {
    log: LogWriter,
    /// chunks[docid] = record addresses of the document's chunks.
    directory: Vec<Vec<RecordAddr>>,
}

impl DocStore {
    /// An empty store on `flash`.
    pub fn new(flash: &Flash) -> Self {
        DocStore {
            log: flash.new_log(),
            directory: Vec::new(),
        }
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.directory.len()
    }

    /// True if no document is stored.
    pub fn is_empty(&self) -> bool {
        self.directory.is_empty()
    }

    /// Append a document, returning its docid. Docids are dense and
    /// strictly increasing — the invariant the pipeline merge of the
    /// search engine relies on.
    pub fn append(&mut self, content: &[u8]) -> Result<DocId, FlashError> {
        let chunk_size = self.log.max_record_len();
        let mut addrs = Vec::new();
        if content.is_empty() {
            addrs.push(self.log.append(&[])?);
        } else {
            for chunk in content.chunks(chunk_size) {
                addrs.push(self.log.append(chunk)?);
            }
        }
        self.directory.push(addrs);
        Ok(self.directory.len() as DocId - 1)
    }

    /// Fetch a document (one page I/O per chunk).
    pub fn get(&self, doc: DocId) -> Result<Vec<u8>, FlashError> {
        let addrs = self
            .directory
            .get(doc as usize)
            .ok_or(FlashError::BadRecordAddr)?;
        let mut out = Vec::new();
        for a in addrs {
            out.extend_from_slice(&self.log.get(*a)?);
        }
        Ok(out)
    }

    /// Durably flush pending chunks.
    pub fn flush(&mut self) -> Result<(), FlashError> {
        self.log.flush()
    }

    /// The store's erase blocks — half of its durable identity (see
    /// [`recover`](Self::recover)).
    pub fn blocks(&self) -> Vec<BlockId> {
        self.log.blocks().to_vec()
    }

    /// The chunk directory — the other half of the durable identity.
    pub fn directory(&self) -> &[Vec<RecordAddr>] {
        &self.directory
    }

    /// Rebuild a store after a power loss from its durable identity
    /// (block list + chunk directory; a real token persists both in a
    /// catalog log — the simulation carries them across the reboot in
    /// RAM). Returns the store and the number of documents lost.
    ///
    /// Docids are dense and chunks are appended in docid order, so
    /// whatever the crash destroyed is a *suffix*: the directory is
    /// truncated at the first document with a chunk beyond the recovered
    /// pages, and every earlier document is intact.
    pub fn recover(
        flash: &Flash,
        blocks: &[BlockId],
        directory: &[Vec<RecordAddr>],
    ) -> Result<(Self, u32), FlashError> {
        let (log, report) = LogWriter::recover(flash, blocks)?;
        let keep = directory
            .iter()
            .take_while(|addrs| addrs.iter().all(|a| report.survived(*a)))
            .count();
        let lost = (directory.len() - keep) as u32;
        pds_obs::counter("recovery.docs_lost").add(lost as u64);
        Ok((
            DocStore {
                log,
                directory: directory[..keep].to_vec(),
            },
            lost,
        ))
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
