//! The *Log* abstraction — step 2 of the tutorial's framework.
//!
//! "Organize [index structures] into sequential structures (Logs). Log
//! structures satisfy Flash constraints: pages are written sequentially
//! (and never updated nor moved), random writes are avoided by
//! construction; allocation & de-allocation are made on large grains."
//!
//! A [`LogWriter`] appends records (or raw pages) strictly sequentially,
//! allocating whole blocks as it grows. Already-programmed pages of an open
//! log can be read at any time; sealing yields an immutable [`Log`].
//! Reclaiming a log returns all of its blocks at once — no partial GC.
//!
//! ## Page layout of record pages
//!
//! ```text
//! [u16 record_count] [u32 crc32] ([u16 len] [len bytes])*  ... padding (0xFF)
//! ```
//!
//! Records never span pages, so a single one-page RAM buffer suffices to
//! decode any record — the property every pipeline operator of Part II
//! relies on.
//!
//! The CRC covers the count and the whole payload region and is what makes
//! torn writes *detectable*: a power cut mid-program leaves a prefix of the
//! page image with erased 0xFF cells after it, which the count/length
//! framing alone cannot distinguish from legitimate data (a tear inside a
//! record body yields a structurally valid page with silently corrupt
//! bytes). The CRC was computed over the full image, so any tear fails
//! verification and surfaces as [`FlashError::CorruptPage`].

use crate::error::{FlashError, Result};
use crate::geometry::{BlockId, PageAddr};
use crate::Flash;

/// Log-relative address of a record: page index within the log + slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordAddr {
    /// Index of the page within the log (0-based).
    pub page: u32,
    /// Slot of the record within the page (0-based).
    pub slot: u16,
}

/// Header bytes at the start of a record page: u16 record count + u32 CRC
/// of count and payload (the torn-write detector).
const PAGE_HEADER: usize = 6;
/// Header bytes per record (length prefix).
const REC_HEADER: usize = 2;

/// Byte-at-a-time table of CRC-32 (IEEE 802.3, reflected polynomial
/// `0xEDB88320`), built at compile time: entry `i` is the bitwise
/// remainder of byte `i`.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Fold `bytes` into a running (pre-inverted) CRC-32 state.
fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    bytes.iter().fold(crc, |crc, &b| {
        (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize]
    })
}

/// The page CRC: CRC-32 (IEEE, reflected) over the count bytes and the
/// payload region — the CRC field itself is excluded. Every page read
/// verifies it, so a reopen's log scans and every `get` pay for it.
fn page_crc(buf: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &buf[..2]), &buf[PAGE_HEADER..])
}

/// An appendable, strictly sequential log.
pub struct LogWriter {
    flash: Flash,
    blocks: Vec<BlockId>,
    /// Number of pages already programmed.
    pages: u32,
    /// RAM page buffer being filled (record layout).
    buf: Vec<u8>,
    /// Records currently in `buf`.
    buf_records: u16,
    /// Write offset within `buf`.
    buf_off: usize,
    /// Total records appended (programmed + buffered).
    records: u64,
}

impl LogWriter {
    /// Start an empty log; no block is allocated until the first page is
    /// programmed.
    pub fn new(flash: Flash) -> Self {
        let page_size = flash.geometry().page_size;
        LogWriter {
            flash,
            blocks: Vec::new(),
            pages: 0,
            buf: vec![0xFF; page_size],
            buf_records: 0,
            buf_off: PAGE_HEADER,
            records: 0,
        }
    }

    /// The flash device this log lives on.
    pub fn flash(&self) -> &Flash {
        &self.flash
    }

    /// The erase blocks the log occupies, in log order. This is the
    /// log's durable identity: persist it (a real token keeps it in a
    /// superblock/catalog log) and hand it to [`LogWriter::recover`]
    /// after a crash.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Largest record payload a page can hold.
    pub fn max_record_len(&self) -> usize {
        self.flash.geometry().page_size - PAGE_HEADER - REC_HEADER
    }

    /// Pages programmed so far (excludes the RAM buffer).
    pub fn num_pages(&self) -> u32 {
        self.pages
    }

    /// Total records appended, including those still buffered in RAM.
    pub fn num_records(&self) -> u64 {
        self.records
    }

    /// Records currently buffered in RAM (not yet on flash).
    #[allow(clippy::expect_used)]
    pub fn buffered_records(&self) -> Vec<Vec<u8>> {
        // pds-lint: allow(panic.expect) — decodes the writer's own RAM buffer, encoded solely by `append`; no flash-sourced bytes flow here.
        decode_records(&self.buf, self.buf_records).expect("own buffer is well-formed")
    }

    /// Physical address of the `i`-th page of the log.
    pub fn page_addr(&self, i: u32) -> Result<PageAddr> {
        let geo = self.flash.geometry();
        geo.log_page(&self.blocks, i)
            .filter(|_| i < self.pages)
            .ok_or(FlashError::BadRecordAddr)
    }

    /// Append one record; flushes the RAM buffer to flash when full.
    /// Returns the record's log-relative address (its page index is the
    /// page it *will* occupy once flushed).
    pub fn append(&mut self, rec: &[u8]) -> Result<RecordAddr> {
        let max = self.max_record_len();
        if rec.len() > max {
            return Err(FlashError::RecordTooLarge {
                len: rec.len(),
                max,
            });
        }
        let needed = REC_HEADER + rec.len();
        if self.buf_off + needed > self.buf.len() {
            self.flush_page()?;
        }
        let addr = RecordAddr {
            page: self.pages,
            slot: self.buf_records,
        };
        let len = rec.len() as u16;
        self.buf[self.buf_off..self.buf_off + 2].copy_from_slice(&len.to_le_bytes());
        self.buf[self.buf_off + 2..self.buf_off + 2 + rec.len()].copy_from_slice(rec);
        self.buf_off += needed;
        self.buf_records += 1;
        self.buf[0..2].copy_from_slice(&self.buf_records.to_le_bytes());
        self.records += 1;
        Ok(addr)
    }

    /// Force the current partial page to flash (wasting its free space —
    /// the price of NAND's no-append-to-programmed-page rule). No-op when
    /// the buffer is empty.
    pub fn flush(&mut self) -> Result<()> {
        if self.buf_records > 0 {
            self.flush_page()?;
        }
        Ok(())
    }

    /// Program a raw, caller-laid-out page and return its page index.
    /// Flushes any partial record page first so ordering is preserved.
    pub fn append_raw_page(&mut self, page: &[u8]) -> Result<u32> {
        self.flush()?;
        let geo = self.flash.geometry();
        if page.len() != geo.page_size {
            return Err(FlashError::BadPageSize {
                given: page.len(),
                expected: geo.page_size,
            });
        }
        let addr = self.next_page_slot()?;
        self.flash.program_page(addr, page)?;
        self.pages += 1;
        Ok(self.pages - 1)
    }

    fn next_page_slot(&mut self) -> Result<PageAddr> {
        let geo = self.flash.geometry();
        let per = geo.pages_per_block as u32;
        let bi = (self.pages / per) as usize;
        if bi == self.blocks.len() {
            self.blocks.push(self.flash.alloc_block()?);
        }
        Ok(geo.page_in_block(self.blocks[bi], (self.pages % per) as usize))
    }

    fn flush_page(&mut self) -> Result<()> {
        let addr = self.next_page_slot()?;
        let crc = page_crc(&self.buf);
        self.buf[2..PAGE_HEADER].copy_from_slice(&crc.to_le_bytes());
        self.flash.program_page(addr, &self.buf)?;
        self.pages += 1;
        self.buf.fill(0xFF);
        self.buf[0..2].copy_from_slice(&0u16.to_le_bytes());
        self.buf_records = 0;
        self.buf_off = PAGE_HEADER;
        Ok(())
    }

    /// Read all records of programmed page `i` (one page I/O).
    pub fn read_page_records(&self, i: u32) -> Result<Vec<Vec<u8>>> {
        read_records_at(&self.flash, self.page_addr(i)?)
    }

    /// Visit every record in append order: the programmed pages (one page
    /// I/O each), then the RAM tail. `f` also gets the index of the log
    /// page that holds the record — `num_pages()` for the tail, the page
    /// it will occupy once flushed. Stops at the first error, whether a
    /// page read's or `f`'s.
    pub fn for_each_record(&self, mut f: impl FnMut(u32, &[u8]) -> Result<()>) -> Result<()> {
        for page in 0..=self.pages {
            let records = if page < self.pages {
                self.read_page_records(page)?
            } else {
                self.buffered_records()
            };
            for rec in &records {
                f(page, rec)?;
            }
        }
        Ok(())
    }

    /// Fetch one record by address (one page I/O; buffered records are
    /// served from RAM).
    pub fn get(&self, at: RecordAddr) -> Result<Vec<u8>> {
        if at.page == self.pages {
            return self
                .buffered_records()
                .into_iter()
                .nth(at.slot as usize)
                .ok_or(FlashError::BadRecordAddr);
        }
        let recs = self.read_page_records(at.page)?;
        recs.into_iter()
            .nth(at.slot as usize)
            .ok_or(FlashError::BadRecordAddr)
    }

    /// Seal the log: flush the tail and freeze it into an immutable [`Log`].
    pub fn seal(mut self) -> Result<Log> {
        self.flush()?;
        Ok(Log {
            flash: self.flash.clone(),
            blocks: std::mem::take(&mut self.blocks),
            pages: self.pages,
            records: self.records,
        })
    }

    /// Abandon the log, returning every block to the pool.
    pub fn discard(mut self) {
        for b in std::mem::take(&mut self.blocks) {
            self.flash.free_block(b);
        }
    }

    /// Return the log's first `n` blocks to the pool — block-grain
    /// reclamation from the *head*, for a log whose old records are
    /// superseded by newer ones (a checkpoint log only ever needs its
    /// last entry). Page indices shift down by `n × pages_per_block`, so
    /// record addresses handed out before the call are void. Only fully
    /// programmed blocks can go: `n` is clamped to keep the append point
    /// inside the log.
    pub fn release_head(&mut self, n: usize) {
        let per = self.flash.geometry().pages_per_block as u32;
        let n = n.min((self.pages / per) as usize);
        for b in self.blocks.drain(..n) {
            self.flash.free_block(b);
        }
        self.pages -= n as u32 * per;
    }

    /// Rebuild a record log after a crash from its block list (the
    /// durable identity persisted by the layer above — see
    /// [`LogWriter::blocks`]).
    ///
    /// The scan walks the blocks page by page and classifies each page:
    ///
    /// * **valid** — decodes as a record page: its records are recovered;
    /// * **erased** — all 0xFF: the clean tail of the log; the scan stops
    ///   and appending resumes right there;
    /// * **corrupt** — a torn write (power died mid-program): the page is
    ///   discarded, the log truncates at it, and — because NAND forbids
    ///   reprogramming a half-written page — the valid prefix of the torn
    ///   block is relocated to a fresh block so the writer can continue.
    ///
    /// Records buffered in controller RAM at the moment of the cut were
    /// never on flash and are necessarily lost; everything programmed
    /// before the cut is recovered. Blocks past the truncation point are
    /// returned to the pool. Progress is exported under the
    /// `recovery.*` counters.
    pub fn recover(flash: &Flash, blocks: &[BlockId]) -> Result<(LogWriter, RecoveryReport)> {
        let geo = flash.geometry();
        let per = geo.pages_per_block as u32;
        let mut report = RecoveryReport::default();
        let mut records = 0u64;
        let mut valid_pages = 0u32;
        let mut torn = false;
        'scan: for bid in blocks {
            for off in 0..per {
                let addr = geo.page_in_block(*bid, off as usize);
                report.pages_scanned += 1;
                match read_records_at(flash, addr) {
                    Ok(recs) => {
                        records += recs.len() as u64;
                        report.slots_per_page.push(recs.len() as u16);
                        valid_pages += 1;
                    }
                    Err(FlashError::ErasedPage(_)) => break 'scan,
                    Err(FlashError::CorruptPage(_)) => {
                        torn = true;
                        report.torn_pages_discarded += 1;
                        break 'scan;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        report.records_recovered = records;
        pds_obs::counter("recovery.pages_scanned").add(report.pages_scanned);
        pds_obs::counter("recovery.records_recovered").add(records);
        pds_obs::counter("recovery.torn_pages_discarded").add(report.torn_pages_discarded);
        let mut writer = Self::resume_at(flash, blocks, valid_pages, torn, &mut report)?;
        writer.records = records;
        Ok((writer, report))
    }

    /// Re-adopt a *raw* log — caller-laid-out pages from
    /// [`append_raw_page`](Self::append_raw_page), no record framing and
    /// no CRC to scan by — up to a page frontier the caller made durable
    /// elsewhere (the search engine's index checkpoint). The first
    /// `pages` pages are kept as they are; whatever was programmed past
    /// the frontier is unreachable garbage, treated exactly like
    /// [`recover`](Self::recover)'s torn tail: the boundary block's
    /// prefix is relocated so appending can resume, and blocks past the
    /// frontier go back to the pool. One page read (is the frontier page
    /// still erased?) and, only after a cut, at most one block of
    /// relocation — never a scan of the log.
    ///
    /// A frontier beyond what `blocks` can hold is
    /// [`FlashError::BadRecordAddr`] with no block touched.
    pub fn recover_raw(
        flash: &Flash,
        blocks: &[BlockId],
        pages: u32,
    ) -> Result<(LogWriter, RecoveryReport)> {
        let geo = flash.geometry();
        let per = geo.pages_per_block as u32;
        if u64::from(pages) > blocks.len() as u64 * u64::from(per) {
            return Err(FlashError::BadRecordAddr);
        }
        let mut report = RecoveryReport::default();
        // In-order programming makes the programmed pages of a block a
        // prefix, so the frontier page alone tells whether anything
        // lies past it.
        let dirty = match geo.log_page(blocks, pages) {
            Some(frontier) => {
                let mut buf = vec![0u8; geo.page_size];
                flash.read_page(frontier, &mut buf)?;
                report.pages_scanned = 1;
                pds_obs::counter("recovery.pages_scanned").inc();
                buf.iter().any(|&b| b != 0xFF)
            }
            None => false,
        };
        let writer = Self::resume_at(flash, blocks, pages, dirty, &mut report)?;
        Ok((writer, report))
    }

    /// The ownership half of a recovery, shared by the record scan and
    /// the raw frontier: a writer over the first `valid_pages` pages of
    /// `blocks`, ready to append. `dirty` says the page right after them
    /// is programmed (torn, or past a checkpointed frontier) — NAND
    /// cannot reprogram it, so the valid prefix of its block moves to a
    /// fresh one. Every block of `blocks` ends up owned by the writer or
    /// back in the pool exactly once.
    fn resume_at(
        flash: &Flash,
        blocks: &[BlockId],
        valid_pages: u32,
        dirty: bool,
        report: &mut RecoveryReport,
    ) -> Result<LogWriter> {
        let geo = flash.geometry();
        let per = geo.pages_per_block as u32;
        // Keep blocks up to the append point, free the rest. The reboot
        // scan marked erased blocks free, so re-claim kept ones
        // defensively (an all-erased tail block is "free" until its log
        // re-adopts it).
        let tail_bi = (valid_pages / per) as usize;
        let keep = (tail_bi + 1).min(blocks.len());
        let mut kept: Vec<BlockId> = blocks[..keep].to_vec();
        for b in &kept {
            flash.claim_block(*b);
        }
        for b in &blocks[keep..] {
            // Claim first so the free below never double-inserts: the
            // block is either already free (claim pulls it out) or holds
            // stale data (claim is a no-op); either way it goes back once.
            let _ = flash.claim_block(*b);
            flash.free_block(*b);
        }
        // A dirty page implies at least one kept block; the `if let`
        // makes the (unreachable) empty case a no-op instead of a panic.
        if dirty {
            if let Some(old) = kept.pop() {
                // The dirty page sits at offset `valid_pages % per` of
                // the last kept block; that block cannot accept further
                // programs. Relocate its valid prefix to a fresh block
                // (legal NAND: a strictly sequential program of an erased
                // block).
                let prefix = (valid_pages % per) as usize;
                if prefix > 0 {
                    let fresh = flash.alloc_block()?;
                    let mut buf = vec![0u8; geo.page_size];
                    for off in 0..prefix {
                        flash.read_page(geo.page_in_block(old, off), &mut buf)?;
                        flash.program_page(geo.page_in_block(fresh, off), &buf)?;
                        report.pages_relocated += 1;
                    }
                    kept.push(fresh);
                }
                flash.free_block(old);
            }
        }
        let mut writer = LogWriter::new(flash.clone());
        writer.blocks = kept;
        writer.pages = valid_pages;
        Ok(writer)
    }
}

/// What a [`LogWriter::recover`] scan found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Pages read by the scan (valid + the terminating page).
    pub pages_scanned: u64,
    /// Torn pages discarded at the truncation point.
    pub torn_pages_discarded: u64,
    /// Records recovered into the rebuilt writer.
    pub records_recovered: u64,
    /// Valid pages copied out of a torn tail block.
    pub pages_relocated: u32,
    /// Record count of each recovered page, in log order — enough for
    /// the layer above to rebuild its record directory without a second
    /// scan.
    pub slots_per_page: Vec<u16>,
}

impl RecoveryReport {
    /// Did the record at `at` survive? True iff its page was recovered
    /// and its slot lies inside that page's recovered record count.
    pub fn survived(&self, at: RecordAddr) -> bool {
        self.slots_per_page
            .get(at.page as usize)
            .is_some_and(|&slots| at.slot < slots)
    }
}

/// An immutable, sealed log.
pub struct Log {
    flash: Flash,
    blocks: Vec<BlockId>,
    pages: u32,
    records: u64,
}

impl std::fmt::Debug for Log {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log")
            .field("pages", &self.pages)
            .field("records", &self.records)
            .field("blocks", &self.blocks.len())
            .finish()
    }
}

impl Log {
    /// Number of pages in the log.
    pub fn num_pages(&self) -> u32 {
        self.pages
    }

    /// Number of records in the log.
    pub fn num_records(&self) -> u64 {
        self.records
    }

    /// Number of erase blocks the log occupies.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The erase blocks the log occupies, in log order (the durable
    /// identity — see [`LogWriter::blocks`]).
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// The flash device this log lives on.
    pub fn flash(&self) -> &Flash {
        &self.flash
    }

    /// Physical address of the `i`-th page.
    pub fn page_addr(&self, i: u32) -> Result<PageAddr> {
        let geo = self.flash.geometry();
        geo.log_page(&self.blocks, i)
            .filter(|_| i < self.pages)
            .ok_or(FlashError::BadRecordAddr)
    }

    /// Read the raw bytes of page `i` (one page I/O).
    pub fn read_raw_page(&self, i: u32, buf: &mut [u8]) -> Result<()> {
        let addr = self.page_addr(i)?;
        self.flash.read_page(addr, buf)
    }

    /// Read all records of page `i` (one page I/O).
    pub fn read_page_records(&self, i: u32) -> Result<Vec<Vec<u8>>> {
        read_records_at(&self.flash, self.page_addr(i)?)
    }

    /// Fetch one record by address (one page I/O).
    pub fn get(&self, at: RecordAddr) -> Result<Vec<u8>> {
        let recs = self.read_page_records(at.page)?;
        recs.into_iter()
            .nth(at.slot as usize)
            .ok_or(FlashError::BadRecordAddr)
    }

    /// Sequential reader over the whole log with a single-page RAM window.
    pub fn reader(&self) -> LogReader<'_> {
        LogReader {
            log: self,
            next_page: 0,
            current: Vec::new(),
            current_idx: 0,
        }
    }

    /// Reclaim the log: every block returns to the pool at once.
    pub fn reclaim(self) {
        for b in &self.blocks {
            self.flash.free_block(*b);
        }
    }
}

/// Sequential record iterator holding exactly one decoded page in RAM.
pub struct LogReader<'a> {
    log: &'a Log,
    next_page: u32,
    current: Vec<Vec<u8>>,
    current_idx: usize,
}

impl Iterator for LogReader<'_> {
    type Item = Result<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if self.current_idx < self.current.len() {
                let rec = std::mem::take(&mut self.current[self.current_idx]);
                self.current_idx += 1;
                return Some(Ok(rec));
            }
            if self.next_page >= self.log.num_pages() {
                return None;
            }
            match self.log.read_page_records(self.next_page) {
                Ok(recs) => {
                    self.current = recs;
                    self.current_idx = 0;
                    self.next_page += 1;
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

/// Read and verify the record page at `addr`; a failure names `addr`, the
/// page's real flash address.
fn read_records_at(flash: &Flash, addr: PageAddr) -> Result<Vec<Vec<u8>>> {
    let mut buf = vec![0u8; flash.geometry().page_size];
    flash.read_page(addr, &mut buf)?;
    let n = u16::from_le_bytes([buf[0], buf[1]]);
    // A fully-erased page reads as 0xFF fill; its "header" decodes as
    // 65535 records, which is *not* corruption — it is the unwritten log
    // tail a recovery scan must stop at.
    if n == 0xFFFF && buf.iter().all(|&b| b == 0xFF) {
        return Err(FlashError::ErasedPage(addr));
    }
    // Verify the page CRC before trusting the framing. This is what
    // catches a torn write whose prefix ends *inside* a record body: the
    // framing still decodes (erased 0xFF cells pass for data) but the CRC
    // was computed over the full page image and cannot match the prefix.
    let stored = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]);
    if stored != page_crc(&buf) {
        return Err(FlashError::CorruptPage(addr));
    }
    decode_records(&buf, n).ok_or(FlashError::CorruptPage(addr))
}

fn decode_records(buf: &[u8], n: u16) -> Option<Vec<Vec<u8>>> {
    let mut out = Vec::with_capacity(n as usize);
    let mut off = PAGE_HEADER;
    for _ in 0..n {
        if off + REC_HEADER > buf.len() {
            return None;
        }
        let len = u16::from_le_bytes([buf[off], buf[off + 1]]) as usize;
        off += REC_HEADER;
        if off + len > buf.len() {
            return None;
        }
        out.push(buf[off..off + len].to_vec());
        off += len;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flash() -> Flash {
        Flash::small(16)
    }

    #[test]
    fn append_and_read_back_across_pages() {
        let f = flash();
        let mut w = f.new_log();
        let mut addrs = Vec::new();
        for i in 0..200u32 {
            let rec = i.to_le_bytes().repeat(4); // 16-byte records
            addrs.push(w.append(&rec).unwrap());
        }
        let log = w.seal().unwrap();
        assert_eq!(log.num_records(), 200);
        assert!(log.num_pages() > 1);
        for (i, a) in addrs.iter().enumerate() {
            let rec = log.get(*a).unwrap();
            assert_eq!(rec, (i as u32).to_le_bytes().repeat(4));
        }
    }

    #[test]
    fn sequential_reader_sees_everything_in_order() {
        let f = flash();
        let mut w = f.new_log();
        for i in 0..500u32 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        let log = w.seal().unwrap();
        let vals: Vec<u32> = log
            .reader()
            .map(|r| u32::from_le_bytes(r.unwrap().try_into().unwrap()))
            .collect();
        assert_eq!(vals, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn writes_are_strictly_sequential_on_chip() {
        let f = flash();
        let mut w = f.new_log();
        for i in 0..1000u32 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        w.flush().unwrap();
        assert_eq!(
            f.stats().non_sequential_programs,
            0,
            "log writes must never be classified as random"
        );
    }

    #[test]
    fn buffered_records_visible_before_flush() {
        let f = flash();
        let mut w = f.new_log();
        let a = w.append(b"pending").unwrap();
        assert_eq!(w.buffered_records(), vec![b"pending".to_vec()]);
        assert_eq!(w.get(a).unwrap(), b"pending".to_vec());
        assert_eq!(w.num_pages(), 0);
    }

    #[test]
    fn oversized_record_is_rejected() {
        let f = flash();
        let mut w = f.new_log();
        let too_big = vec![0u8; f.geometry().page_size];
        assert!(matches!(
            w.append(&too_big),
            Err(FlashError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn reclaim_returns_all_blocks() {
        let f = flash();
        let before = f.free_blocks();
        let mut w = f.new_log();
        for i in 0..2000u32 {
            w.append(&i.to_le_bytes().repeat(8)).unwrap();
        }
        let log = w.seal().unwrap();
        assert!(f.free_blocks() < before);
        log.reclaim();
        assert_eq!(f.free_blocks(), before);
    }

    #[test]
    fn discard_open_log_returns_blocks() {
        let f = flash();
        let before = f.free_blocks();
        let mut w = f.new_log();
        for i in 0..2000u32 {
            w.append(&i.to_le_bytes().repeat(8)).unwrap();
        }
        w.discard();
        assert_eq!(f.free_blocks(), before);
    }

    #[test]
    fn raw_pages_interleave_with_records() {
        let f = flash();
        let mut w = f.new_log();
        w.append(b"rec0").unwrap();
        let page = vec![0x42; f.geometry().page_size];
        let raw_idx = w.append_raw_page(&page).unwrap();
        assert_eq!(raw_idx, 1, "partial record page flushed first");
        let log = w.seal().unwrap();
        let mut buf = vec![0u8; f.geometry().page_size];
        log.read_raw_page(raw_idx, &mut buf).unwrap();
        assert_eq!(buf, page);
        assert_eq!(log.read_page_records(0).unwrap(), vec![b"rec0".to_vec()]);
    }

    /// The bit-at-a-time CRC the table replaced, kept as the reference.
    fn page_crc_bitwise(buf: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in buf[..2].iter().chain(&buf[PAGE_HEADER..]) {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn table_crc_equals_the_bitwise_reference() {
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        // The IEEE 802.3 check value.
        assert_eq!(!crc32_update(!0, b"123456789"), 0xCBF4_3926);
        let mut rng = StdRng::seed_from_u64(0xC8C_0032);
        for page_size in [512usize, 2048] {
            for _ in 0..64 {
                let page: Vec<u8> = (0..page_size).map(|_| rng.gen()).collect();
                assert_eq!(page_crc(&page), page_crc_bitwise(&page));
            }
            assert_eq!(
                page_crc(&vec![0xFF; page_size]),
                page_crc_bitwise(&vec![0xFF; page_size])
            );
        }
    }

    #[test]
    fn erased_page_is_distinguished_from_corruption() {
        let f = flash();
        let geo = f.geometry();
        let b = f.alloc_block().unwrap();
        // Never-programmed page: ErasedPage, not CorruptPage.
        let addr = geo.first_page_of(b);
        assert_eq!(read_records_at(&f, addr), Err(FlashError::ErasedPage(addr)));
        // A page with a plausible-looking header but garbage layout is
        // corruption proper.
        let mut page = vec![0xFF; geo.page_size];
        page[0..2].copy_from_slice(&3u16.to_le_bytes()); // claims 3 records
        f.program_page(addr, &page).unwrap();
        assert_eq!(
            read_records_at(&f, addr),
            Err(FlashError::CorruptPage(addr))
        );
    }

    #[test]
    fn recover_resumes_at_erased_tail() {
        let f = flash();
        let mut w = f.new_log();
        for i in 0..300u32 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        w.flush().unwrap();
        let durable = w.num_records();
        let blocks: Vec<BlockId> = w.blocks().to_vec();
        let pages = w.num_pages();

        // Reboot the chip; recover the log from its block list.
        let f2 = f.reboot();
        let (mut rec, report) = LogWriter::recover(&f2, &blocks).unwrap();
        assert_eq!(rec.num_records(), durable);
        assert_eq!(rec.num_pages(), pages);
        assert_eq!(report.records_recovered, durable);
        assert_eq!(report.torn_pages_discarded, 0);
        assert_eq!(report.slots_per_page.len(), pages as usize);

        // The recovered writer appends and reads back seamlessly.
        rec.append(&999u32.to_le_bytes()).unwrap();
        let log = rec.seal().unwrap();
        let vals: Vec<u32> = log
            .reader()
            .map(|r| u32::from_le_bytes(r.unwrap().try_into().unwrap()))
            .collect();
        let mut expected: Vec<u32> = (0..300).collect();
        expected.push(999);
        assert_eq!(vals, expected);
    }

    #[test]
    fn recover_discards_torn_tail_and_relocates_block() {
        use crate::FaultPlan;
        let f = flash();
        let mut w = f.new_log();
        // Tear deterministically: pick a seed whose cut writes a prefix.
        f.inject_faults(FaultPlan::new(2).power_loss_after(5));
        let mut appended = 0u64;
        let mut durable;
        let err = loop {
            durable = w.num_records() - w.buffered_records().len() as u64;
            match w.append(&appended.to_le_bytes()) {
                Ok(_) => appended += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(err, FlashError::PowerLoss);
        let blocks: Vec<BlockId> = w.blocks().to_vec();

        let f2 = f.reboot();
        let (rec, report) = LogWriter::recover(&f2, &blocks).unwrap();
        // Everything durably programmed before the cut is back; nothing
        // past the append sequence appears.
        assert!(rec.num_records() >= durable);
        assert!(rec.num_records() <= appended);
        assert_eq!(report.records_recovered, rec.num_records());
        let recovered = rec.num_records();
        let log = rec.seal().unwrap();
        let vals: Vec<u64> = log
            .reader()
            .map(|r| u64::from_le_bytes(r.unwrap().try_into().unwrap()))
            .collect();
        assert_eq!(vals, (0..recovered).collect::<Vec<u64>>());
    }

    /// A raw log of `n` pages, page `i` filled with byte `i`.
    fn raw_log(f: &Flash, n: u32) -> LogWriter {
        let mut w = f.new_log();
        for i in 0..n {
            w.append_raw_page(&vec![i as u8; f.geometry().page_size])
                .unwrap();
        }
        w
    }

    fn raw_page(w: &LogWriter, i: u32) -> Vec<u8> {
        let mut buf = vec![0u8; w.flash().geometry().page_size];
        w.flash()
            .read_page(w.page_addr(i).unwrap(), &mut buf)
            .unwrap();
        buf
    }

    #[test]
    fn recover_raw_keeps_the_frontier_and_frees_what_lies_past_it() {
        // 16 pages per block: 40 pages sit in three blocks.
        for (frontier, relocated) in [(40u32, 0u32), (37, 5), (32, 0), (20, 4), (0, 0)] {
            let f = flash();
            let w = raw_log(&f, 40);
            let blocks = w.blocks().to_vec();
            let f2 = f.reboot();
            let free_before = f2.free_blocks();
            let (mut rec, report) = LogWriter::recover_raw(&f2, &blocks, frontier).unwrap();
            assert_eq!(rec.num_pages(), frontier);
            assert_eq!(report.pages_relocated, relocated, "frontier {frontier}");
            // One probe of the frontier page, never a scan.
            assert_eq!(report.pages_scanned, 1);
            assert_eq!(f2.stats().page_reads, 1 + u64::from(relocated));
            assert_eq!(f2.stats().page_programs, u64::from(relocated));
            for i in 0..frontier {
                assert_eq!(raw_page(&rec, i), vec![i as u8; 512], "page {i}");
            }
            // Blocks past the frontier went back exactly once (a double
            // insert trips the allocator's debug assertion).
            let held = rec.blocks().len();
            assert_eq!(held, (frontier as usize).div_ceil(16));
            assert_eq!(f2.free_blocks(), free_before + blocks.len() - held);
            // And the writer appends where the frontier was.
            assert_eq!(rec.append_raw_page(&[0xAB; 512]).unwrap(), frontier);
        }
    }

    #[test]
    fn recover_raw_resumes_in_place_after_a_clean_stop() {
        let f = flash();
        let w = raw_log(&f, 21);
        let blocks = w.blocks().to_vec();
        let f2 = f.reboot();
        let (mut rec, report) = LogWriter::recover_raw(&f2, &blocks, 21).unwrap();
        assert_eq!(report.pages_relocated, 0);
        assert_eq!(f2.stats().page_programs, 0);
        assert_eq!(rec.blocks(), &blocks[..]);
        assert_eq!(rec.append_raw_page(&[7; 512]).unwrap(), 21);
        // A frontier the blocks cannot hold touches nothing.
        let free = f2.free_blocks();
        assert_eq!(
            LogWriter::recover_raw(&f2, &blocks, 33).err(),
            Some(FlashError::BadRecordAddr)
        );
        assert_eq!(f2.free_blocks(), free);
    }

    #[test]
    fn release_head_reclaims_whole_blocks_and_shifts_pages() {
        let f = flash();
        let before = f.free_blocks();
        let mut w = raw_log(&f, 40);
        w.release_head(1);
        assert_eq!((w.num_pages(), w.blocks().len()), (24, 2));
        assert_eq!(raw_page(&w, 0), vec![16u8; 512]);
        // Clamped: the block holding the append point stays.
        w.release_head(5);
        assert_eq!((w.num_pages(), w.blocks().len()), (8, 1));
        assert_eq!(raw_page(&w, 7), vec![39u8; 512]);
        assert_eq!(w.append_raw_page(&[1; 512]).unwrap(), 8);
        assert_eq!(f.free_blocks(), before - 1);
    }

    #[test]
    fn empty_log_seals_cleanly() {
        let f = flash();
        let log = f.new_log().seal().unwrap();
        assert_eq!(log.num_pages(), 0);
        assert_eq!(log.num_blocks(), 0);
        assert_eq!(log.reader().count(), 0);
    }
}
