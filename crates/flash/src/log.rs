//! The *Log* abstraction — step 2 of the tutorial's framework.
//!
//! "Organize [index structures] into sequential structures (Logs). Log
//! structures satisfy Flash constraints: pages are written sequentially
//! (and never updated nor moved), random writes are avoided by
//! construction; allocation & de-allocation are made on large grains."
//!
//! A [`LogWriter`] appends records strictly sequentially, allocating
//! whole blocks as it grows. Already-programmed pages of an open
//! log can be read at any time; sealing yields an immutable [`Log`].
//! Reclaiming a log returns all of its blocks at once — no partial GC.
//!
//! ## Ids are positions
//!
//! A record's identity is its **ordinal**: its 0-based append position.
//! [`LogWriter::append`] returns it, [`LogWriter::get`] serves it, and a
//! [`LogWriter::recover`] scan re-derives every ordinal from the pages
//! alone — so the layers above keep no address directory, in RAM or in
//! their manifests: a rowid or docid *is* the ordinal. The writer's whole
//! per-record addressing state is one `u32` per programmed record page
//! ("records completed before this page", 4 bytes against the page's
//! dozens of records).
//!
//! ## Page layout of record pages
//!
//! ```text
//! [u16 chunk_count] [u32 crc32] ([u16 flags|len] [len bytes])*  ... padding (0xFF)
//! ```
//!
//! A record that fits a page is one chunk with both flag bits clear —
//! the layout (and every byte) a page has always had. A larger record is
//! cut by [`LogWriter::append`] into chunks of
//! [`max_record_len`](LogWriter::max_record_len) bytes, each filling a
//! page of its own, plus the remainder; the two high bits of the length
//! prefix say how a chunk relates to its neighbours: `0x8000` "continues
//! the previous chunk", `0x4000` "more follows" (pages are at most
//! 16 KiB, so a length needs 14 bits). Reassembly happens here and
//! nowhere else, behind `get`, `for_each_record` and [`LogReader`]; any
//! one chunk still decodes from a single one-page RAM buffer — the
//! property every pipeline operator of Part II relies on.
//!
//! A layer that lays out whole pages of its own — the search engine's
//! bucket pages — appends each as one record that fills its page
//! ([`LogWriter::append_page`]): its payload is the page's last
//! [`max_record_len`](LogWriter::max_record_len) bytes, `page_size − 8`,
//! at [`PAGE_RECORD`] in the page image, and its ordinal is its page
//! index. [`LogWriter::read_filled_page`] reads it back by that index,
//! and [`LogWriter::recover_at`] re-adopts such a log at a page frontier
//! kept elsewhere, with no scan. There is one page format on flash.
//!
//! A record takes its ordinal — exists — when its **last** chunk is on
//! flash. A run of chunks cut short between its pages, by a power loss or
//! by an `append` that failed midway, is therefore never a record: the
//! next record's first chunk does not carry "continues", so readers drop
//! the run, and what a recovery finds stays a prefix of what was
//! appended.
//!
//! The CRC covers the count and the whole payload region and is what makes
//! torn writes *detectable*: a power cut mid-program leaves a prefix of the
//! page image with erased 0xFF cells after it, which the count/length
//! framing alone cannot distinguish from legitimate data (a tear inside a
//! record body yields a structurally valid page with silently corrupt
//! bytes). The CRC was computed over the full image, so any tear fails
//! verification and surfaces as [`FlashError::CorruptPage`]. It is
//! CRC-32/IEEE, computed in four interleaved lanes (`crc32_update`)
//! because every page read and every page program pays for a page of it.
//!
//! A read can fail verification without a tear: read disturb flips a bit
//! in one read and not in the next. So every read of a record page reads
//! a failing page up to three times, and only a page that fails all three
//! is corrupt — torn, to a recovery.

use std::cell::Cell;
use std::ops::ControlFlow;

use crate::error::{FlashError, Result};
use crate::geometry::{BlockId, PageAddr};
use crate::Flash;

/// Header bytes at the start of a record page: u16 chunk count + u32 CRC
/// of count and payload (the torn-write detector).
const PAGE_HEADER: usize = 6;
/// Header bytes per chunk (flags + length prefix).
const REC_HEADER: usize = 2;
/// Where a record that fills its page lies in the page image: past the
/// page header and its length prefix, to the page's end.
pub const PAGE_RECORD: std::ops::RangeFrom<usize> = PAGE_HEADER + REC_HEADER..;
/// Prefix flag: this chunk continues the record of the chunk before it.
const CONTINUES: u16 = 0x8000;
/// Prefix flag: the record goes on in the next chunk.
const MORE: u16 = 0x4000;
/// The length proper — 14 bits, enough for any page
/// [`FlashGeometry::new`](crate::FlashGeometry::new) accepts.
const LEN_MASK: u16 = 0x3FFF;

/// Slicing-by-8 tables of CRC-32 (IEEE 802.3, reflected polynomial
/// `0xEDB88320`), built at compile time: `CRC_TABLES[0][i]` is the
/// bitwise remainder of byte `i` — the classic byte-at-a-time table —
/// and `CRC_TABLES[k][i]` that of byte `i` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let shorter = tables[k - 1][i];
            tables[k][i] = (shorter >> 8) ^ tables[0][(shorter & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Bytes of one lane: a [`LANES`]-lane block is `LANES × LANE` bytes.
const LANE: usize = 64;
/// Lanes folded side by side.
const LANES: usize = 4;

/// `SHIFTS[k - 1]` maps a CRC state to the state after `k × LANE` zero
/// bytes more, one table per state byte: the CRC of a lane computed from
/// zero, shifted past the lanes after it, is its share of the block's.
/// Built at compile time from the 8-zero-byte step of [`CRC_TABLES`].
const SHIFTS: [[[u32; 256]; 4]; LANES - 1] = {
    let mut shifts = [[[0u32; 256]; 4]; LANES - 1];
    let mut k = 0;
    while k < LANES - 1 {
        let mut j = 0;
        while j < 4 {
            let mut i = 0;
            while i < 256 {
                let mut crc = (i as u32) << (8 * j);
                let mut steps = 0;
                while steps < (k + 1) * LANE / 8 {
                    let [a, b, c, d] = crc.to_le_bytes();
                    crc = CRC_TABLES[7][a as usize]
                        ^ CRC_TABLES[6][b as usize]
                        ^ CRC_TABLES[5][c as usize]
                        ^ CRC_TABLES[4][d as usize];
                    steps += 1;
                }
                shifts[k][j][i] = crc;
                i += 1;
            }
            j += 1;
        }
        k += 1;
    }
    shifts
};

/// One slicing-by-8 step: fold the eight bytes of `w` into `crc`. Their
/// eight look-ups are independent of one another, but the next step
/// waits on this one.
#[inline(always)]
fn crc32_step(crc: u32, w: &[u8]) -> u32 {
    let [a, b, c, d] = (crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]])).to_le_bytes();
    CRC_TABLES[7][a as usize]
        ^ CRC_TABLES[6][b as usize]
        ^ CRC_TABLES[5][c as usize]
        ^ CRC_TABLES[4][d as usize]
        ^ CRC_TABLES[3][w[4] as usize]
        ^ CRC_TABLES[2][w[5] as usize]
        ^ CRC_TABLES[1][w[6] as usize]
        ^ CRC_TABLES[0][w[7] as usize]
}

/// `crc` carried past `k × LANE` zero bytes.
#[inline(always)]
fn crc32_shift(k: usize, crc: u32) -> u32 {
    let [a, b, c, d] = crc.to_le_bytes();
    let t = &SHIFTS[k - 1];
    t[0][a as usize] ^ t[1][b as usize] ^ t[2][c as usize] ^ t[3][d as usize]
}

/// Fold `N` lanes of [`LANE`] bytes side by side — `N` independent
/// chains of [`crc32_step`]s, the first from `crc` and the others from
/// zero — and join them by shifting each lane's state past the lanes
/// after it (the CRC is linear: the shares XOR).
#[inline(always)]
fn crc32_lanes<const N: usize>(crc: u32, block: &[u8]) -> u32 {
    let block = &block[..N * LANE];
    let mut states = [0u32; N];
    states[0] = crc;
    for i in (0..LANE).step_by(8) {
        for (l, state) in states.iter_mut().enumerate() {
            *state = crc32_step(*state, &block[l * LANE + i..l * LANE + i + 8]);
        }
    }
    let last = states[N - 1];
    (1..N).fold(last, |crc, l| crc ^ crc32_shift(N - l, states[l - 1]))
}

/// Fold `bytes` into a running (pre-inverted) CRC-32 state. Every page
/// read and page program pays for a whole page of this, and one chain of
/// [`crc32_step`]s is bound by the latency of each step's loads. So each
/// 256-byte block is four 64-byte lanes folded side by side
/// ([`crc32_lanes`]); the rest under a block goes through two or three
/// lanes when it holds that many, so at most 63 bytes are left to one
/// chain of steps, then a byte at a time.
fn crc32_update(crc: u32, bytes: &[u8]) -> u32 {
    let mut blocks = bytes.chunks_exact(LANES * LANE);
    let crc = blocks.by_ref().fold(crc, crc32_lanes::<LANES>);
    let rest = blocks.remainder();
    let (crc, rest) = match rest.len() / LANE {
        3 => (crc32_lanes::<3>(crc, rest), &rest[3 * LANE..]),
        2 => (crc32_lanes::<2>(crc, rest), &rest[2 * LANE..]),
        _ => (crc, rest),
    };
    let mut words = rest.chunks_exact(8);
    let crc = words.by_ref().fold(crc, crc32_step);
    words.remainder().iter().fold(crc, |crc, &b| {
        (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
    })
}

/// The page CRC: CRC-32 (IEEE, reflected) over the count bytes and the
/// payload region — the CRC field itself is excluded. Every page read
/// verifies it, so a reopen's log scans and every `get` pay for it.
fn page_crc(buf: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &buf[..2]), &buf[PAGE_HEADER..])
}

/// One length-prefixed chunk of a record page: a whole record, or one
/// page's worth of a larger one.
struct Chunk<'a> {
    continues: bool,
    more: bool,
    bytes: &'a [u8],
}

/// The chunks of one record-page image, in slot order. The bytes come
/// from flash, so every access is checked: a prefix that points past the
/// page ends the walk early, never a panic or an out-of-range slice. That
/// is how [`read_page`] refuses a page whose framing does not hold; on a
/// page it passed, a walk yields all `count` chunks.
struct Chunks<'a> {
    /// The page past the chunks walked so far.
    rest: &'a [u8],
    left: u16,
}

impl<'a> Chunks<'a> {
    fn new(buf: &'a [u8], count: u16) -> Self {
        Chunks {
            rest: buf.get(PAGE_HEADER..).unwrap_or_default(),
            left: count,
        }
    }
}

impl<'a> Iterator for Chunks<'a> {
    type Item = Chunk<'a>;

    fn next(&mut self) -> Option<Chunk<'a>> {
        self.left = self.left.checked_sub(1)?;
        let (prefix, rest) = self.rest.split_first_chunk::<REC_HEADER>()?;
        let prefix = u16::from_le_bytes(*prefix);
        let (bytes, rest) = rest.split_at_checked(usize::from(prefix & LEN_MASK))?;
        self.rest = rest;
        Some(Chunk {
            continues: prefix & CONTINUES != 0,
            more: prefix & MORE != 0,
            bytes,
        })
    }
}

/// Puts records back together from chunks fed in log order — the one
/// place a multi-page record is reassembled during a scan.
#[derive(Default)]
struct Assembler {
    /// Bytes so far of the run in progress.
    run: Vec<u8>,
    /// `run` began with a first chunk and has been contiguous since.
    open: bool,
}

impl Assembler {
    /// Take the next chunk; `Some(record)` when it completes one. A run
    /// whose successor does not continue it (cut short by a power loss
    /// or a failed `append`) is dropped, and so is a continuation whose
    /// start is gone (a released head).
    fn feed<'a>(&'a mut self, c: Chunk<'a>) -> Option<&'a [u8]> {
        if !c.continues {
            if !c.more {
                self.open = false;
                return Some(c.bytes);
            }
            self.run.clear();
            self.open = true;
        }
        if self.open {
            self.run.extend_from_slice(c.bytes);
        }
        if c.more {
            return None;
        }
        std::mem::take(&mut self.open).then_some(&self.run)
    }
}

/// Reads a page gets before it is called corrupt (torn, to a recovery;
/// a frontier, dirty): a read disturb flips bits in one read
/// and not in the next, where a tear fails every read alike — so a page
/// is corrupt only when this many reads in a row fail.
const RECOVERY_READS: u32 = 3;

/// Read the record page at `addr` into `buf` and verify it — its CRC,
/// then its framing; returns its chunk count. This is the one place a
/// record page is judged, for every reader: a page that fails is read
/// again, up to [`RECOVERY_READS`] reads in all, each re-read counted in
/// `retries` and under `flash.read_retries`, and only a page that fails
/// them all is [`FlashError::CorruptPage`]. A failure names `addr`, the
/// page's real flash address.
fn read_page(flash: &Flash, addr: PageAddr, buf: &mut [u8], retries: &Cell<u64>) -> Result<u16> {
    let mut read = || {
        flash.read_page(addr, buf)?;
        let n = u16::from_le_bytes([buf[0], buf[1]]);
        // A fully-erased page reads as 0xFF fill; its "header" decodes as
        // 65535 chunks, which is *not* corruption — it is the unwritten
        // log tail a recovery scan must stop at.
        if n == 0xFFFF && buf.iter().all(|&b| b == 0xFF) {
            return Err(FlashError::ErasedPage(addr));
        }
        // Verify the page CRC before trusting the framing. This is what
        // catches a torn write whose prefix ends *inside* a record body:
        // the framing still decodes (erased 0xFF cells pass for data) but
        // the CRC was computed over the full page image and cannot match
        // the prefix. The framing is walked whole all the same, so that a
        // reader never meets a chunk that does not decode.
        let stored = u32::from_le_bytes([buf[2], buf[3], buf[4], buf[5]]);
        if stored != page_crc(buf) || Chunks::new(buf, n).count() != usize::from(n) {
            return Err(FlashError::CorruptPage(addr));
        }
        Ok(n)
    };
    let mut got = read();
    for _ in 1..RECOVERY_READS {
        if got != Err(FlashError::CorruptPage(addr)) {
            break;
        }
        retries.set(retries.get() + 1);
        pds_obs::counter!("flash.read_retries").inc();
        got = read();
    }
    got
}

/// Where a [`LogWriter::scan`] starts: the page whose chunks it feeds
/// first and the first ordinal it hands over —
/// [`START`](Self::START), or what a
/// [`LogWriter::partition_point`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogPos {
    page: u32,
    ordinal: u32,
    /// The search that found this position left `page` verified in its
    /// page buffer.
    held: bool,
}

impl LogPos {
    /// The first record of the log.
    pub const START: LogPos = LogPos::new(0, 0);

    const fn new(page: u32, ordinal: u32) -> Self {
        LogPos {
            page,
            ordinal,
            held: false,
        }
    }
}

/// An appendable, strictly sequential log.
pub struct LogWriter {
    flash: Flash,
    blocks: Vec<BlockId>,
    /// Number of pages already programmed.
    pages: u32,
    /// `starts[p]`: records completed before programmed page `p` — with
    /// the page's own framing, all it takes to find a record by ordinal.
    /// Four bytes per page is the log's only per-page RAM, and none while
    /// `starts[p]` is `p` on every page ([`push_start`]): a log of
    /// page-filling records keeps no RAM per page.
    starts: Vec<u32>,
    /// Records whose last chunk is on a programmed page.
    durable: u32,
    /// RAM page buffer being filled (record layout).
    buf: Vec<u8>,
    /// Chunks currently in `buf`.
    buf_chunks: u16,
    /// Write offset within `buf`.
    buf_off: usize,
    /// Total records appended (programmed + buffered).
    records: u32,
    /// Reads of a page that failed and was read again, through this
    /// writer: a recovery reports those of its own reads.
    retries: Cell<u64>,
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
            starts: Vec::new(),
            durable: 0,
            buf: vec![0xFF; page_size],
            buf_chunks: 0,
            buf_off: PAGE_HEADER,
            records: 0,
            retries: Cell::new(0),
        }
    }

    /// The flash device this log lives on.
    pub fn flash(&self) -> &Flash {
        &self.flash
    }

    /// The erase blocks the log occupies, in log order. This is the
    /// log's whole durable identity: persist it (a real token keeps it
    /// in a superblock/catalog log) and hand it to
    /// [`LogWriter::recover`] after a crash.
    pub fn blocks(&self) -> &[BlockId] {
        &self.blocks
    }

    /// Largest payload one page can hold — the chunk size of a record
    /// that spans pages.
    pub fn max_record_len(&self) -> usize {
        self.buf.len().saturating_sub(PAGE_HEADER + REC_HEADER)
    }

    /// Pages programmed so far (excludes the RAM buffer).
    pub fn num_pages(&self) -> u32 {
        self.pages
    }

    /// Total records appended, including those still buffered in RAM;
    /// the next [`append`](Self::append) returns this ordinal.
    pub fn num_records(&self) -> u64 {
        u64::from(self.records)
    }

    /// Records whose last chunk is still buffered in RAM: what a power
    /// cut now would lose.
    pub(crate) fn num_buffered(&self) -> u64 {
        u64::from(self.records - self.durable)
    }

    /// Payloads of the chunks currently buffered in RAM (not yet on
    /// flash) — one per buffered record, since only a record's last
    /// chunk ever rests here between two appends.
    #[cfg(test)]
    pub fn buffered_records(&self) -> Vec<Vec<u8>> {
        let chunks = Chunks::new(&self.buf, self.buf_chunks);
        chunks.map(|c| c.bytes.to_vec()).collect()
    }

    /// Physical address of the `i`-th page of the log.
    pub fn page_addr(&self, i: u32) -> Result<PageAddr> {
        let geo = self.flash.geometry();
        geo.log_page(&self.blocks, i)
            .filter(|_| i < self.pages)
            .ok_or(FlashError::BadRecordAddr)
    }

    /// Append one record of any length and return its ordinal; flushes
    /// the RAM buffer to flash whenever it is full. A record larger than
    /// [`max_record_len`](Self::max_record_len) is cut into chunks, one
    /// page each (module docs). When a page program fails midway, the
    /// chunks already on flash stay behind as a run no reader follows:
    /// the record was never appended and the log is as it was.
    pub fn append(&mut self, rec: &[u8]) -> Result<u32> {
        let max = self.max_record_len();
        if max == 0 && !rec.is_empty() {
            return Err(FlashError::RecordTooLarge {
                len: rec.len(),
                max,
            });
        }
        let mut flags = 0;
        let mut rest = rec;
        loop {
            let (chunk, tail) = rest.split_at(rest.len().min(max));
            let more = if tail.is_empty() { 0 } else { MORE };
            if let Err(e) = self.push_chunk(chunk, flags | more) {
                if flags == CONTINUES {
                    // The buffer holds this record's previous chunk and
                    // nothing else (it fills a page): drop it too.
                    self.clear_buf();
                }
                return Err(e);
            }
            if tail.is_empty() {
                break;
            }
            flags = CONTINUES;
            rest = tail;
        }
        self.records += 1;
        Ok(self.records - 1)
    }

    /// Buffer one chunk, programming the buffered page first when the
    /// chunk does not fit — the only step that can fail, and it fails
    /// before the buffer changes.
    fn push_chunk(&mut self, chunk: &[u8], flags: u16) -> Result<()> {
        if self.buf_off + REC_HEADER + chunk.len() > self.buf.len() {
            self.flush_page()?;
        }
        let end = self.buf_off + REC_HEADER + chunk.len();
        let prefix = flags | chunk.len() as u16;
        self.buf[self.buf_off..self.buf_off + REC_HEADER].copy_from_slice(&prefix.to_le_bytes());
        self.buf[self.buf_off + REC_HEADER..end].copy_from_slice(chunk);
        self.buf_off = end;
        self.buf_chunks += 1;
        self.buf[0..2].copy_from_slice(&self.buf_chunks.to_le_bytes());
        Ok(())
    }

    /// Force the current partial page to flash (wasting its free space —
    /// the price of NAND's no-append-to-programmed-page rule). No-op when
    /// the buffer is empty.
    pub fn flush(&mut self) -> Result<()> {
        if self.buf_chunks > 0 {
            self.flush_page()?;
        }
        Ok(())
    }

    /// Program `rec`, a record that fills a page —
    /// [`max_record_len`](Self::max_record_len) bytes, anything else is
    /// [`FlashError::BadPageSize`] — as the log's next page, at once, any
    /// partial page before it; returns its page index, which is its
    /// ordinal in a log whose every record is appended so. A program that
    /// fails leaves the log as it was: the record is not appended, and not
    /// left in the buffer for a later page to program.
    pub fn append_page(&mut self, rec: &[u8]) -> Result<u32> {
        let expected = self.max_record_len();
        if rec.len() != expected {
            return Err(FlashError::BadPageSize {
                given: rec.len(),
                expected,
            });
        }
        self.flush()?;
        self.append(rec)?;
        if let Err(e) = self.flush() {
            self.records -= 1;
            self.clear_buf();
            return Err(e);
        }
        Ok(self.pages - 1)
    }

    /// Read page `i` of the log on `blocks` into `buf`, a page, verified
    /// as every page is read, and hand back the record that fills it
    /// where it lies: `buf[PAGE_RECORD]`. For a log of
    /// [`append_page`](Self::append_page)'s records, whose page `i` is
    /// record `i`. A page that holds anything else is
    /// [`FlashError::CorruptPage`], a page past what `blocks` hold
    /// [`FlashError::BadRecordAddr`]. It asks no writer, so that a
    /// recovery can check the pages a frontier names before it adopts
    /// the log.
    pub fn read_filled_page<'b>(
        flash: &Flash,
        blocks: &[BlockId],
        i: u32,
        buf: &'b mut [u8],
    ) -> Result<&'b mut [u8]> {
        let addr = flash.geometry().log_page(blocks, i);
        let addr = addr.ok_or(FlashError::BadRecordAddr)?;
        let count = read_page(flash, addr, buf, &Cell::default())?;
        let len = buf.len() - PAGE_RECORD.start;
        let only = Chunks::new(buf, count).next().filter(|_| count == 1);
        if !only.is_some_and(|c| !c.continues && !c.more && c.bytes.len() == len) {
            return Err(FlashError::CorruptPage(addr));
        }
        Ok(&mut buf[PAGE_RECORD])
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
        // Every record appended so far has its last chunk on this page or
        // an earlier one.
        push_start(&mut self.starts, self.pages, self.durable);
        self.durable = self.records;
        self.pages += 1;
        self.clear_buf();
        Ok(())
    }

    fn clear_buf(&mut self) {
        self.buf.fill(0xFF);
        self.buf[0..2].copy_from_slice(&0u16.to_le_bytes());
        self.buf_chunks = 0;
        self.buf_off = PAGE_HEADER;
    }

    /// The chunks of log page `page`: a verified read into `scratch`
    /// (one page I/O; sized here on first use) for a programmed page —
    /// none when `held` says a [`partition_point`](Self::partition_point)
    /// left it there —, the RAM buffer for `num_pages()`.
    fn chunks_of<'a>(
        &'a self,
        page: u32,
        scratch: &'a mut Vec<u8>,
        held: bool,
    ) -> Result<Chunks<'a>> {
        if page == self.pages {
            // No flash address yet — and no way to fail: `append` alone
            // encodes this image.
            return Ok(Chunks::new(&self.buf, self.buf_chunks));
        }
        let addr = self.page_addr(page)?;
        let count = match scratch.get(..2) {
            Some(&[lo, hi]) if held => u16::from_le_bytes([lo, hi]),
            _ => {
                scratch.resize(self.flash.geometry().page_size, 0);
                read_page(&self.flash, addr, scratch, &self.retries)?
            }
        };
        Ok(Chunks::new(scratch, count))
    }

    /// Records completed before log page `page` — the ordinal of the
    /// first record whose last chunk is on it.
    fn first_ordinal(&self, page: u32) -> u32 {
        match page < self.pages {
            true => self.starts.get(page as usize).copied().unwrap_or(page),
            false => self.durable,
        }
    }

    /// Payloads of the chunks of programmed page `i` (one page I/O) — a
    /// page-grain view: a record that spans pages shows up here one
    /// chunk at a time. Whole records come from [`get`](Self::get) and
    /// [`scan`](Self::scan).
    pub fn read_page_records(&self, i: u32) -> Result<Vec<Vec<u8>>> {
        self.page_addr(i)?; // programmed pages only, not the RAM tail
        let mut scratch = Vec::new();
        let chunks = self.chunks_of(i, &mut scratch, false)?;
        Ok(chunks.map(|c| c.bytes.to_vec()).collect())
    }

    /// Visit every record in append order — [`scan`](Self::scan) from
    /// the start, to the end. `f` also gets the index of the log page
    /// that holds the record's last chunk — `num_pages()` for the tail,
    /// the page it will occupy once flushed. Stops at the first error,
    /// whether a page read's or `f`'s.
    pub fn for_each_record(&self, mut f: impl FnMut(u32, &[u8]) -> Result<()>) -> Result<()> {
        self.scan(LogPos::START, &mut Vec::new(), |page, _, rec| {
            f(page, rec).map(|()| ControlFlow::Continue(()))
        })
    }

    /// Visit the records from `from` on, in append order: the programmed
    /// pages (one page I/O each, but none for the page a
    /// [`partition_point`](Self::partition_point) into the same, untouched
    /// `scratch` ended on), then the RAM tail. `f` gets the index of the
    /// log page that holds the record's last chunk, the record's ordinal
    /// and its bytes, read where they lie; a `Break` ends the scan there.
    /// A record whose start went with a released head keeps its ordinal
    /// but is not visited. Stops at the first error, whether a page
    /// read's or `f`'s.
    pub fn scan(
        &self,
        from: LogPos,
        scratch: &mut Vec<u8>,
        mut f: impl FnMut(u32, u32, &[u8]) -> Result<ControlFlow<()>>,
    ) -> Result<()> {
        let mut records = Assembler::default();
        let mut ordinal = self.first_ordinal(from.page);
        for page in from.page..=self.pages {
            let held = from.held && page == from.page;
            for chunk in self.chunks_of(page, scratch, held)? {
                let ends = !chunk.more;
                if let Some(rec) = records.feed(chunk) {
                    if ordinal >= from.ordinal && f(page, ordinal, rec)?.is_break() {
                        return Ok(());
                    }
                }
                ordinal += u32::from(ends);
            }
        }
        Ok(())
    }

    /// Where to start a [`scan`](Self::scan) of a log whose records
    /// `before` splits in two — every record it holds `true` of comes
    /// before every record it holds `false` of — so as to miss none of
    /// the latter: a page-grain binary search. A step reads one page (the
    /// RAM tail costs none) and asks `before` of its first and last
    /// whole records only, so the search takes at most
    /// ⌈log₂ [`num_pages`](Self::num_pages)⌉ verified reads, and a scan
    /// of this log from its answer, with the same `scratch` untouched,
    /// starts without a read when the search ended on the answer's page
    /// (with one otherwise). Every record
    /// before the answer satisfies `before`. When every page opens with a
    /// whole record, the first that does not lies on the answer's page or
    /// opens the next; a page inside a record that spans pages can only
    /// move the answer earlier. `before` gets each record's page, as
    /// [`scan`](Self::scan)'s visitor does, and its error ends the
    /// search.
    pub fn partition_point(
        &self,
        scratch: &mut Vec<u8>,
        mut before: impl FnMut(u32, &[u8]) -> Result<bool>,
    ) -> Result<LogPos> {
        // `lo` is a page a scan may start from (page 0 always may), `hi`
        // one it may not; the tail is tried first because it is free.
        let (mut lo, mut hi) = (0, self.pages + 1);
        let mut best = LogPos::START;
        if self.pages > 0 {
            match self.probe(self.pages, scratch, &mut before)? {
                Some(pos) => (lo, best) = (self.pages, pos),
                None => hi = self.pages,
            }
        }
        let mut last_read = None;
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let found = self.probe(mid, scratch, &mut before)?;
            last_read = Some(mid);
            match found {
                Some(pos) => (lo, best) = (mid, pos),
                None => hi = mid,
            }
        }
        best.held = last_read == Some(best.page);
        Ok(best)
    }

    /// One step of [`partition_point`](Self::partition_point): read page
    /// `page` and ask `before` of its first whole record. `None` when it
    /// is not before, or the page holds none (a page inside a record
    /// that spans pages); otherwise where a scan may start — past the
    /// page when its last whole record is before too and no record
    /// starts on it to end on the next.
    fn probe(
        &self,
        page: u32,
        scratch: &mut Vec<u8>,
        before: &mut impl FnMut(u32, &[u8]) -> Result<bool>,
    ) -> Result<Option<LogPos>> {
        let mut ordinal = self.first_ordinal(page);
        let (mut first, mut last) = (None, None);
        let mut open = false;
        for chunk in self.chunks_of(page, scratch, false)? {
            if !chunk.continues && !chunk.more {
                first = first.or(Some((ordinal, chunk.bytes)));
                last = Some((ordinal, chunk.bytes));
            }
            open = chunk.more;
            ordinal += u32::from(!chunk.more);
        }
        let (Some((first, head)), Some((last, tail))) = (first, last) else {
            return Ok(None);
        };
        if !before(page, head)? {
            return Ok(None);
        }
        Ok(Some(if !open && (last == first || before(page, tail)?) {
            LogPos::new(page + 1, last + 1)
        } else {
            LogPos::new(page, first + 1)
        }))
    }

    /// Fetch one record by ordinal into a fresh vector — see
    /// [`get_with`](Self::get_with), which a caller fetching many records
    /// uses instead to keep one page buffer across them.
    pub fn get(&self, ordinal: u32) -> Result<Vec<u8>> {
        self.get_with(ordinal, &mut Vec::new(), |_, rec| rec.to_vec())
    }

    /// Fetch one record by ordinal and hand it to `f` where it lies: one
    /// page I/O per chunk, none for a chunk still buffered in RAM. The
    /// page is verified as a whole, but only the record asked for is
    /// decoded, and a record that fits a page is not copied at all — `f`
    /// reads it in `scratch` (the page image; sized here on first use,
    /// kept by the caller across a run of fetches) or in the RAM buffer.
    /// `f` also gets the index of the log page that holds the record's
    /// last chunk, as [`for_each_record`](Self::for_each_record) gives it.
    pub fn get_with<T>(
        &self,
        ordinal: u32,
        scratch: &mut Vec<u8>,
        f: impl FnOnce(u32, &[u8]) -> T,
    ) -> Result<T> {
        if ordinal >= self.records {
            return Err(FlashError::BadRecordAddr);
        }
        // The page that holds the record's last chunk is the last one
        // starting at or before the ordinal (the RAM buffer, for a
        // record not yet durable); the chunk is that page's `nth`
        // record-ending chunk.
        let (holder, start) = if ordinal >= self.durable {
            (self.pages, self.durable)
        } else if self.starts.is_empty() {
            // `starts[p]` is `p`: every page but the last ends one record.
            let p = ordinal.min(self.pages.saturating_sub(1));
            (p, p)
        } else {
            let after = self.starts.partition_point(|&s| s <= ordinal);
            let p = after.checked_sub(1).ok_or(FlashError::BadRecordAddr)?;
            (p as u32, self.starts[p])
        };
        let nth = (ordinal - start) as usize;
        let mut ends = self.chunks_of(holder, scratch, false)?.filter(|c| !c.more);
        let last = ends.nth(nth).ok_or(FlashError::BadRecordAddr)?;
        if !last.continues {
            return Ok(f(holder, last.bytes));
        }
        // A record that spans pages: each earlier chunk closes the page
        // before, back to the one that does not continue another.
        let mut chunks = vec![last.bytes.to_vec()];
        let mut page = holder;
        loop {
            page = page.checked_sub(1).ok_or(FlashError::BadRecordAddr)?;
            let chunk = self.chunks_of(page, scratch, false)?.last();
            let chunk = chunk.ok_or(FlashError::BadRecordAddr)?;
            if !chunk.more {
                // The run's start went with a released head.
                return Err(FlashError::BadRecordAddr);
            }
            chunks.push(chunk.bytes.to_vec());
            if !chunk.continues {
                let record: Vec<u8> = chunks.into_iter().rev().flatten().collect();
                return Ok(f(holder, &record));
            }
        }
    }

    /// Seal the log: flush the tail and freeze it into an immutable [`Log`].
    pub fn seal(mut self) -> Result<Log> {
        self.flush()?;
        self.buf = Vec::new();
        Ok(Log { w: self })
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
    /// last entry). Page indices shift down by `n × pages_per_block` and
    /// ordinals by the records that ended on those pages — what a
    /// [`recover`](Self::recover) of the remaining blocks would count —
    /// so ordinals handed out before the call are void. Only fully
    /// programmed blocks can go: `n` is clamped to keep the append point
    /// inside the log. Returns the ordinals released.
    pub fn release_head(&mut self, n: usize) -> u32 {
        let per = self.flash.geometry().pages_per_block as u32;
        let n = n.min((self.pages / per) as usize);
        for b in self.blocks.drain(..n) {
            self.flash.free_block(b);
        }
        let gone = n * per as usize;
        let released = self.first_ordinal(gone as u32);
        self.pages -= gone as u32;
        self.starts.drain(..gone.min(self.starts.len()));
        for start in &mut self.starts {
            *start -= released;
        }
        self.durable -= released;
        self.records -= released;
        released
    }

    /// How many whole head blocks hold only records before `pos` (a
    /// [`partition_point`](Self::partition_point)'s answer) — as many as
    /// [`release_head`](Self::release_head) may drop without releasing a
    /// record a scan from `pos` would visit. A record that spans pages
    /// counts where its last chunk lies.
    pub(crate) fn blocks_before(&self, pos: LogPos) -> usize {
        let per = self.flash.geometry().pages_per_block as u32;
        (1..=self.pages / per)
            .take_while(|&n| self.first_ordinal(n * per) <= pos.ordinal)
            .count()
    }

    /// Rebuild a record log after a crash from its block list (the
    /// durable identity persisted by the layer above — see
    /// [`LogWriter::blocks`]).
    ///
    /// The scan walks the blocks page by page and classifies each page:
    ///
    /// * **valid** — decodes as a record page: the records that end on
    ///   it are recovered, under the ordinals they were appended with;
    /// * **erased** — all 0xFF: the clean tail of the log; the scan stops
    ///   and appending resumes right there;
    /// * **corrupt** — a torn write (power died mid-program), known by
    ///   three reads in a row that fail, as every record-page read is
    ///   (a read disturb fails one and not the next; the re-reads count
    ///   in `flash.read_retries` and [`RecoveryReport::read_retries`]):
    ///   the page is discarded, the log truncates at it, and — because
    ///   NAND forbids reprogramming a half-written page — the valid
    ///   prefix of the torn block is relocated to a fresh block, each
    ///   copy verified like the scan's reads, so the writer can continue.
    ///
    /// Records buffered in controller RAM at the moment of the cut were
    /// never on flash and are necessarily lost, as is a record whose
    /// last chunk was; everything programmed before the cut is
    /// recovered. Blocks past the truncation point are returned to the
    /// pool. Progress is exported under the `recovery.*` counters.
    pub fn recover(flash: &Flash, blocks: &[BlockId]) -> Result<(LogWriter, RecoveryReport)> {
        Self::recover_with(flash, blocks, |_| true)
    }

    /// [`recover`](Self::recover), handing the recovered records, in
    /// ordinal order, to `accept` as the scan passes them — so a layer
    /// over the log rebuilds what it keeps of it from the one read each
    /// page gets anyway (pages + the terminator; no second pass). The
    /// first record `accept` refuses ends the hand-over and cuts the log
    /// there ([`RecoveryReport::refused`]): the records before it are
    /// copied into a fresh log by a [`scan`](Self::scan) (each surviving
    /// page read once more, a torn block's valid prefix where it lies —
    /// a cut relocates nothing), flushed, and only then do the old blocks
    /// go back to the pool — left in front of the append point, the
    /// refused record would cut off again, at the next power cycle,
    /// everything appended after this recovery. A record is handed over
    /// only from a page whose CRC *and* whole framing verified; one whose
    /// start went with a released head keeps its ordinal but is not
    /// handed over, as in [`for_each_record`](Self::for_each_record).
    pub fn recover_with(
        flash: &Flash,
        blocks: &[BlockId],
        mut accept: impl FnMut(&[u8]) -> bool,
    ) -> Result<(LogWriter, RecoveryReport)> {
        let geo = flash.geometry();
        let per = geo.pages_per_block as u32;
        let mut report = RecoveryReport::default();
        let retries = Cell::new(0);
        let mut starts = Vec::new();
        let (mut pages, mut records) = (0, 0u32);
        let mut torn = false;
        // The ordinal of the first record `accept` refused.
        let mut cut = None;
        let mut buf = Vec::new();
        let mut assembler = Assembler::default();
        'scan: for bid in blocks {
            for off in 0..per {
                let addr = geo.page_in_block(*bid, off as usize);
                report.pages_scanned += 1;
                buf.resize(geo.page_size, 0); // sized on first use: most logs of a boot are empty
                match read_page(flash, addr, &mut buf, &retries) {
                    Ok(count) => {
                        push_start(&mut starts, pages, records);
                        pages += 1;
                        for chunk in Chunks::new(&buf, count) {
                            let ends = !chunk.more;
                            if let Some(rec) = assembler.feed(chunk) {
                                if cut.is_none() && !accept(rec) {
                                    cut = Some(records);
                                }
                            }
                            records += u32::from(ends);
                        }
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
        report.records_recovered = u64::from(records);
        report.refused = cut.is_some();
        pds_obs::counter!("recovery.pages_scanned").add(report.pages_scanned);
        pds_obs::counter!("recovery.records_recovered").add(report.records_recovered);
        pds_obs::counter!("recovery.torn_pages_discarded").add(report.torn_pages_discarded);
        // A cut copies the valid pages itself, the torn block's included,
        // so nothing is relocated before it.
        let relocate = torn && cut.is_none();
        let (mut writer, relocated) = Self::resume_at(flash, blocks, pages, relocate, &retries)?;
        report.pages_relocated = relocated;
        writer.starts = starts;
        writer.durable = records;
        writer.records = records;
        writer.retries = retries;
        if let Some(n) = cut {
            writer = writer.keep_prefix(n)?;
        }
        report.read_retries = writer.retries.get();
        Ok((writer, report))
    }

    /// A fresh, flushed log holding the first `n` records of this one,
    /// copied by a [`scan`](Self::scan), which reads a failing page again
    /// as every reader does; the copy takes over this log's tally of
    /// re-reads. This log's blocks go back to the pool once the copy is
    /// durable, the copy's when it fails.
    fn keep_prefix(self, n: u32) -> Result<LogWriter> {
        let mut fresh = LogWriter::new(self.flash.clone());
        let copied = self.scan(LogPos::START, &mut Vec::new(), |_, ordinal, rec| {
            if ordinal >= n {
                return Ok(ControlFlow::Break(()));
            }
            fresh.append(rec)?;
            Ok(ControlFlow::Continue(()))
        });
        // The survivors are durable before the old blocks go back to the
        // pool: a cut must never narrow the durable history.
        match copied.and_then(|()| fresh.flush()) {
            Ok(()) => {
                fresh.retries.set(self.retries.get());
                self.discard();
                Ok(fresh)
            }
            Err(e) => {
                fresh.discard();
                Err(e)
            }
        }
    }

    /// Re-adopt a log of page-filling records
    /// ([`append_page`](Self::append_page)) up to a page frontier the
    /// caller made durable elsewhere (the search engine's index
    /// checkpoint): its first `pages` pages, records `0..pages`, are kept
    /// as they are; whatever was programmed past the frontier is
    /// unreachable garbage, treated exactly like [`recover`](Self::recover)'s
    /// torn tail: the boundary block's prefix is relocated so appending can
    /// resume, each page copied through a verified read, so a read
    /// disturb is read again, never programmed onward; and blocks past the
    /// frontier go back to the pool. One read of the frontier page and,
    /// only after a cut, at most one block of relocation — never a scan of
    /// the log. The frontier is dirty unless that read finds it erased, so
    /// a read disturb on an erased page, read again as any failing page
    /// is, is not taken for a cut. A page below the frontier that fails
    /// its copy fails the recovery.
    ///
    /// A frontier beyond what `blocks` can hold is
    /// [`FlashError::BadRecordAddr`] with no block touched.
    pub fn recover_at(
        flash: &Flash,
        blocks: &[BlockId],
        pages: u32,
    ) -> Result<(LogWriter, RecoveryReport)> {
        let geo = flash.geometry();
        let per = geo.pages_per_block as u32;
        if u64::from(pages) > blocks.len() as u64 * u64::from(per) {
            return Err(FlashError::BadRecordAddr);
        }
        let mut report = RecoveryReport {
            records_recovered: u64::from(pages),
            ..RecoveryReport::default()
        };
        let retries = Cell::new(0);
        // In-order programming makes the programmed pages of a block a
        // prefix, so the frontier page alone tells whether anything
        // lies past it.
        let dirty = match geo.log_page(blocks, pages) {
            Some(frontier) => {
                let read = read_page(flash, frontier, &mut vec![0u8; geo.page_size], &retries);
                report.pages_scanned = 1;
                pds_obs::counter!("recovery.pages_scanned").inc();
                match read {
                    Err(FlashError::ErasedPage(_)) => false,
                    Ok(_) | Err(FlashError::CorruptPage(_)) => true,
                    Err(e) => return Err(e),
                }
            }
            None => false,
        };
        let (mut writer, relocated) = Self::resume_at(flash, blocks, pages, dirty, &retries)?;
        report.pages_relocated = relocated;
        report.read_retries = retries.get();
        (writer.durable, writer.records) = (pages, pages);
        writer.retries = retries;
        Ok((writer, report))
    }

    /// The ownership half of a recovery, shared by the record scan and
    /// the frontier: a writer over the first `valid_pages` pages of
    /// `blocks`, ready to append. `dirty` says the page right after them
    /// is programmed (torn, or past a checkpointed frontier) — NAND
    /// cannot reprogram it, so the valid prefix of its block moves to a
    /// fresh one, each page read verified, its re-reads counted in
    /// `retries`; returns the writer and the pages relocated. Every block
    /// of `blocks` ends up owned by the writer or back in the pool exactly
    /// once.
    fn resume_at(
        flash: &Flash,
        blocks: &[BlockId],
        valid_pages: u32,
        dirty: bool,
        retries: &Cell<u64>,
    ) -> Result<(LogWriter, u32)> {
        let geo = flash.geometry();
        let per = geo.pages_per_block as u32;
        let mut relocated = 0;
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
                        read_page(flash, geo.page_in_block(old, off), &mut buf, retries)?;
                        flash.program_page(geo.page_in_block(fresh, off), &buf)?;
                        relocated += 1;
                    }
                    kept.push(fresh);
                }
                flash.free_block(old);
            }
        }
        let mut writer = LogWriter::new(flash.clone());
        writer.blocks = kept;
        writer.pages = valid_pages;
        Ok((writer, relocated))
    }
}

/// Note in `starts` that programmed page `page` begins after `first`
/// records. Nothing is kept while every page so far begins where its
/// index says — each page but the last ended one record, as on a log of
/// page-filling records; the first page that does not writes them all
/// out, four bytes a page from then on.
fn push_start(starts: &mut Vec<u32>, page: u32, first: u32) {
    if starts.is_empty() && first == page {
        return;
    }
    if starts.is_empty() {
        starts.extend(0..page);
    }
    starts.push(first);
}

/// What a [`LogWriter::recover`] scan found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Pages read by the scan (valid + the terminating page).
    pub pages_scanned: u64,
    /// Torn pages discarded at the truncation point.
    pub torn_pages_discarded: u64,
    /// Records on the valid pages, a cut or not: after a cut the
    /// rebuilt writer holds those before the refused one.
    pub records_recovered: u64,
    /// Valid pages copied out of a torn tail block — none when the log
    /// was cut, whose copy takes them where they lie.
    pub pages_relocated: u32,
    /// Reads of a page that failed and was read again, by this recovery
    /// (a page gets three reads before it is called torn or dirty): each
    /// a read disturb ridden out, or one of the reads a torn or dirty
    /// page fails alike.
    pub read_retries: u64,
    /// The visitor of [`LogWriter::recover_with`] refused a record: none
    /// after it was handed over, and the log was cut there.
    pub refused: bool,
}

/// An immutable, sealed log: a flushed [`LogWriter`] that gave its RAM
/// page buffer back, since nothing is appended to it.
pub struct Log {
    w: LogWriter,
}

impl std::fmt::Debug for Log {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Log")
            .field("pages", &self.w.pages)
            .field("records", &self.w.records)
            .field("blocks", &self.w.blocks.len())
            .finish()
    }
}

impl Log {
    /// Number of pages in the log.
    pub fn num_pages(&self) -> u32 {
        self.w.pages
    }

    /// Number of records in the log.
    pub fn num_records(&self) -> u64 {
        self.w.num_records()
    }

    /// The erase blocks the log occupies, in log order (the durable
    /// identity — see [`LogWriter::blocks`]).
    pub fn blocks(&self) -> &[BlockId] {
        &self.w.blocks
    }

    /// The flash device this log lives on.
    pub fn flash(&self) -> &Flash {
        &self.w.flash
    }

    /// Physical address of the `i`-th page.
    pub fn page_addr(&self, i: u32) -> Result<PageAddr> {
        self.w.page_addr(i)
    }

    /// Fetch one record by ordinal, verified, and hand it to `f` where it
    /// lies — [`LogWriter::get_with`].
    pub fn get_with<T>(
        &self,
        ordinal: u32,
        scratch: &mut Vec<u8>,
        f: impl FnOnce(u32, &[u8]) -> T,
    ) -> Result<T> {
        self.w.get_with(ordinal, scratch, f)
    }

    /// Sequential reader over the whole log with a single-page RAM window.
    pub fn reader(&self) -> LogReader<'_> {
        LogReader {
            log: self,
            next_page: 0,
            buf: vec![0u8; self.flash().geometry().page_size],
            records: Assembler::default(),
            current: Vec::new(),
            current_idx: 0,
        }
    }

    /// Reclaim the log: every block returns to the pool at once.
    pub fn reclaim(self) {
        self.w.discard();
    }
}

/// Sequential record iterator holding exactly one page in RAM — plus,
/// while inside a record that spans pages, that record's bytes so far.
pub struct LogReader<'a> {
    log: &'a Log,
    next_page: u32,
    buf: Vec<u8>,
    records: Assembler,
    /// The records that end on the page read last.
    current: Vec<Vec<u8>>,
    current_idx: usize,
}

impl LogReader<'_> {
    /// Read the next page (one page I/O) and decode the records that end
    /// on it into `current`.
    fn advance(&mut self) -> Result<()> {
        let addr = self.log.page_addr(self.next_page)?;
        let count = read_page(self.log.flash(), addr, &mut self.buf, &Cell::default())?;
        let mut ended = Vec::new();
        for chunk in Chunks::new(&self.buf, count) {
            if let Some(rec) = self.records.feed(chunk) {
                ended.push(rec.to_vec());
            }
        }
        self.current = ended;
        self.current_idx = 0;
        self.next_page += 1;
        Ok(())
    }
}

impl Iterator for LogReader<'_> {
    type Item = Result<Vec<u8>>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(rec) = self.current.get_mut(self.current_idx) {
                self.current_idx += 1;
                return Some(Ok(std::mem::take(rec)));
            }
            if self.next_page >= self.log.num_pages() {
                return None;
            }
            if let Err(e) = self.advance() {
                return Some(Err(e));
            }
        }
    }
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
        for i in 0..200u32 {
            let rec = i.to_le_bytes().repeat(4); // 16-byte records
            assert_eq!(w.append(&rec).unwrap(), i, "ordinals are dense");
        }
        assert_eq!(w.num_records(), 200);
        assert!(w.num_pages() > 1);
        // Flushed pages, then the RAM tail.
        assert!(!w.buffered_records().is_empty());
        for i in 0..200u32 {
            assert_eq!(w.get(i).unwrap(), i.to_le_bytes().repeat(4));
        }
        assert_eq!(w.get(200), Err(FlashError::BadRecordAddr));
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

    /// `len` bytes no two pages of which look alike.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn oversized_record_is_rejected() {
        // Only where no chunk size could carry it: a page with no room
        // for payload at all. Everywhere else a large record spans pages.
        let f = Flash::new(crate::FlashGeometry::new(8, 4, 4));
        let mut w = f.new_log();
        assert_eq!(w.max_record_len(), 0);
        assert_eq!(
            w.append(b"x"),
            Err(FlashError::RecordTooLarge { len: 1, max: 0 })
        );
        assert_eq!(w.append(b"").unwrap(), 0);
        w.flush().unwrap();
        assert_eq!(w.get(0).unwrap(), b"");
    }

    #[test]
    fn oversized_record_spans_pages() {
        let f = flash();
        let mut w = f.new_log();
        let max = w.max_record_len();
        let lens = [5, max + 1, 0, 3 * max + 7, max, 2 * max, 9];
        for (i, len) in lens.iter().enumerate() {
            assert_eq!(w.append(&pattern(*len)).unwrap(), i as u32);
        }
        // One page per chunk; the small neighbours share the last pages.
        assert_eq!(w.num_records(), lens.len() as u64);
        let check = |w: &LogWriter| {
            for (i, len) in lens.iter().enumerate() {
                assert_eq!(w.get(i as u32).unwrap(), pattern(*len), "record {i}");
            }
            let mut seen = Vec::new();
            w.for_each_record(|_, rec| {
                seen.push(rec.to_vec());
                Ok(())
            })
            .unwrap();
            assert_eq!(seen, lens.map(pattern));
        };
        check(&w); // last chunks still in RAM
        w.flush().unwrap();
        check(&w);
        // Reading the 3·max+7 record costs its four pages and no more.
        let before = f.stats().page_reads;
        w.get(3).unwrap();
        assert_eq!(f.stats().page_reads - before, 4);
        // The same ordinals come back from the pages alone.
        let blocks = w.blocks().to_vec();
        let (rec, report) = LogWriter::recover(&f.reboot(), &blocks).unwrap();
        assert_eq!(report.records_recovered, lens.len() as u64);
        check(&rec);
        let sealed: Vec<Vec<u8>> = rec.seal().unwrap().reader().map(|r| r.unwrap()).collect();
        assert_eq!(sealed, lens.map(pattern));
    }

    #[test]
    fn a_record_cut_between_its_pages_is_never_a_record() {
        let f = flash();
        let mut w = f.new_log();
        let max = w.max_record_len();
        w.append(b"before").unwrap();
        w.flush().unwrap();
        // Two of a record's three pages reach flash; the power goes with
        // the last chunk still in RAM.
        w.append(&pattern(2 * max + 10)).unwrap();
        assert_eq!(w.num_pages(), 3);
        let blocks = w.blocks().to_vec();
        let (mut rec, report) = LogWriter::recover(&f.reboot(), &blocks).unwrap();
        assert_eq!((rec.num_pages(), report.records_recovered), (3, 1));
        assert_eq!(rec.get(1), Err(FlashError::BadRecordAddr));
        // The next record takes the ordinal and does not glue onto the run.
        assert_eq!(rec.append(&pattern(max + 3)).unwrap(), 1);
        rec.flush().unwrap();
        assert_eq!(rec.get(0).unwrap(), b"before");
        assert_eq!(rec.get(1).unwrap(), pattern(max + 3));
        let all: Vec<Vec<u8>> = rec.seal().unwrap().reader().map(|r| r.unwrap()).collect();
        assert_eq!(all, [b"before".to_vec(), pattern(max + 3)]);
    }

    #[test]
    fn releasing_the_head_inside_a_record_leaves_a_hole_not_garbage() {
        // 16 pages per block: a three-page record over pages 15..=17.
        let f = flash();
        let mut w = f.new_log();
        let max = w.max_record_len();
        for i in 0..15u32 {
            w.append(&i.to_le_bytes()).unwrap();
            w.flush().unwrap();
        }
        w.append(&pattern(2 * max + 1)).unwrap();
        w.append(b"after").unwrap();
        w.flush().unwrap();
        w.release_head(1);
        // What is left counts as a recovery of the remaining block would:
        // the beheaded record keeps an ordinal but yields nothing.
        assert_eq!(w.num_records(), 2);
        assert_eq!(w.get(0), Err(FlashError::BadRecordAddr));
        assert_eq!(w.get(1).unwrap(), b"after");
        let (rec, _) = LogWriter::recover(&f.reboot(), w.blocks()).unwrap();
        assert_eq!(rec.num_records(), 2);
        assert_eq!(rec.get(1).unwrap(), b"after");
        let mut seen = Vec::new();
        rec.for_each_record(|_, r| {
            seen.push(r.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(seen, [b"after".to_vec()]);
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
    fn filled_pages_interleave_with_records() {
        let f = flash();
        let mut w = f.new_log();
        w.append(b"rec0").unwrap();
        let page = pattern(w.max_record_len());
        assert_eq!(
            w.append_page(&page).unwrap(),
            1,
            "partial page flushed first"
        );
        assert_eq!(w.append(b"rec2").unwrap(), 2);
        w.flush().unwrap();
        assert_eq!(w.read_page_records(0).unwrap(), vec![b"rec0".to_vec()]);
        // A page-filling record is a record like any other.
        assert_eq!(w.get(0).unwrap(), b"rec0");
        assert_eq!(w.get(1).unwrap(), page);
        assert_eq!(w.get(2).unwrap(), b"rec2");
        assert_eq!(filled_page(&w, 1), page);
        // Read as a filled page, a page of small records is corrupt.
        let mut buf = vec![0u8; 512];
        let addr = w.page_addr(2).unwrap();
        assert_eq!(
            LogWriter::read_filled_page(&f, w.blocks(), 2, &mut buf),
            Err(FlashError::CorruptPage(addr))
        );
        assert_eq!(
            LogWriter::read_filled_page(&f, w.blocks(), 16, &mut buf),
            Err(FlashError::BadRecordAddr)
        );
        // Only a record that fills a page is one.
        assert_eq!(
            w.append_page(b"short"),
            Err(FlashError::BadPageSize {
                given: 5,
                expected: page.len()
            })
        );
        // A program that fails leaves nothing behind for the next one.
        let taken: Vec<BlockId> = std::iter::from_fn(|| f.alloc_block().ok()).collect();
        for _ in 0..16 - 3 {
            w.append_page(&page).unwrap();
        }
        assert_eq!(w.append_page(&page), Err(FlashError::OutOfBlocks));
        assert_eq!((w.num_pages(), w.num_records()), (16, 16));
        for b in taken {
            f.free_block(b);
        }
        assert_eq!(
            w.append_page(&pattern(page.len() - 1).repeat(2)[..page.len()])
                .unwrap(),
            16
        );
        assert_eq!((w.num_pages(), w.num_records()), (17, 17));
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

    /// The bit-at-a-time CRC-32 step over a running (pre-inverted)
    /// state: what `crc32_update` must equal on any input.
    fn crc32_update_bitwise(mut crc: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            }
        }
        crc
    }

    #[test]
    fn table_crc_equals_the_bitwise_reference() {
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        // The IEEE 802.3 check value.
        assert_eq!(!crc32_update(!0, b"123456789"), 0xCBF4_3926);
        let mut rng = StdRng::seed_from_u64(0xC8C_0032);
        for page_size in [512usize, 2048, 16384] {
            for _ in 0..64 {
                let page: Vec<u8> = (0..page_size).map(|_| rng.gen()).collect();
                assert_eq!(page_crc(&page), page_crc_bitwise(&page));
                let state = rng.gen();
                assert_eq!(
                    crc32_update(state, &page),
                    crc32_update_bitwise(state, &page),
                    "{page_size}-byte page from {state:#010x}"
                );
            }
            assert_eq!(
                page_crc(&vec![0xFF; page_size]),
                page_crc_bitwise(&vec![0xFF; page_size])
            );
        }
        // Every remainder under a block (0..=255 bytes: none, one, two or
        // three lanes and up to 63 bytes of steps and single bytes)
        // behind the seven whole blocks of a 2 KB page's payload.
        let bytes: Vec<u8> = (0..7 * 256 + 255).map(|_| rng.gen()).collect();
        for rest in 0..=255 {
            let input = &bytes[..7 * 256 + rest];
            let state = rng.gen();
            assert_eq!(
                crc32_update(state, input),
                crc32_update_bitwise(state, input),
                "7 blocks and {rest} bytes from {state:#010x}"
            );
        }
        // Every length up to a 512-byte page and past it, at every
        // alignment a word load can meet, from arbitrary running states:
        // each way an input can end short of a step or a block.
        let bytes: Vec<u8> = (0..8 + 527).map(|_| rng.gen()).collect();
        for start in 0..8 {
            for len in 0..=527 {
                let input = &bytes[start..start + len];
                let state = rng.gen();
                assert_eq!(
                    crc32_update(state, input),
                    crc32_update_bitwise(state, input),
                    "{len} bytes at offset {start} from {state:#010x}"
                );
            }
        }
    }

    #[test]
    fn a_tear_at_every_byte_of_a_page_is_refused() {
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x7EA2_0512);
        let f = Flash::small(64);
        let geo = f.geometry();
        // One record that fills the page to its last byte, and that byte
        // is not erased-looking: every tear leaves a different image.
        let mut w = f.new_log();
        let mut rec: Vec<u8> = (0..w.max_record_len()).map(|_| rng.gen()).collect();
        *rec.last_mut().unwrap() = 0x5A;
        w.append(&rec).unwrap();
        w.flush().unwrap();
        let mut image = vec![0u8; geo.page_size];
        read_page(&f, w.page_addr(0).unwrap(), &mut image, &Cell::default()).unwrap();
        assert_eq!(image[geo.page_size - 1], 0x5A);
        // A torn program leaves a prefix of the image and erased cells
        // after it: one such page per prefix length, on blocks of their own.
        let mut buf = vec![0u8; geo.page_size];
        let mut block = BlockId(0);
        for (i, prefix) in (1..geo.page_size).enumerate() {
            let off = i % geo.pages_per_block;
            if off == 0 {
                block = f.alloc_block().unwrap();
            }
            let addr = geo.page_in_block(block, off);
            let mut torn = vec![0xFF; geo.page_size];
            torn[..prefix].copy_from_slice(&image[..prefix]);
            f.program_page(addr, &torn).unwrap();
            assert_eq!(
                read_page(&f, addr, &mut buf, &Cell::default()),
                Err(FlashError::CorruptPage(addr)),
                "a tear after {prefix} bytes"
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
        let mut buf = vec![0u8; geo.page_size];
        assert_eq!(
            read_page(&f, addr, &mut buf, &Cell::default()),
            Err(FlashError::ErasedPage(addr))
        );
        // A page with a plausible-looking header but garbage layout is
        // corruption proper.
        let mut page = vec![0xFF; geo.page_size];
        page[0..2].copy_from_slice(&3u16.to_le_bytes()); // claims 3 records
        f.program_page(addr, &page).unwrap();
        assert_eq!(
            read_page(&f, addr, &mut buf, &Cell::default()),
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

    /// A log of `n` page-filling records, page `i` filled with byte `i`.
    fn filled_log(f: &Flash, n: u32) -> LogWriter {
        let mut w = f.new_log();
        for i in 0..n {
            w.append_page(&vec![i as u8; w.max_record_len()]).unwrap();
        }
        w
    }

    fn filled_page(w: &LogWriter, i: u32) -> Vec<u8> {
        let mut buf = vec![0u8; w.flash().geometry().page_size];
        LogWriter::read_filled_page(w.flash(), w.blocks(), i, &mut buf)
            .unwrap()
            .to_vec()
    }

    #[test]
    fn recover_at_keeps_the_frontier_and_frees_what_lies_past_it() {
        // 16 pages per block: 40 pages sit in three blocks.
        for (frontier, relocated) in [(40u32, 0u32), (37, 5), (32, 0), (20, 4), (0, 0)] {
            let f = flash();
            let w = filled_log(&f, 40);
            let blocks = w.blocks().to_vec();
            let f2 = f.reboot();
            let free_before = f2.free_blocks();
            let (mut rec, report) = LogWriter::recover_at(&f2, &blocks, frontier).unwrap();
            assert_eq!(
                (rec.num_pages(), rec.num_records()),
                (frontier, frontier.into())
            );
            assert_eq!(report.records_recovered, u64::from(frontier));
            assert_eq!(report.pages_relocated, relocated, "frontier {frontier}");
            // One probe of the frontier page, never a scan: a whole page
            // past it verifies at its first read, as an erased one does.
            assert_eq!(report.pages_scanned, 1);
            assert_eq!(report.read_retries, 0);
            assert_eq!(f2.stats().page_reads, 1 + u64::from(relocated));
            assert_eq!(f2.stats().page_programs, u64::from(relocated));
            for i in 0..frontier {
                assert_eq!(filled_page(&rec, i), vec![i as u8; 504], "page {i}");
                assert_eq!(rec.get(i).unwrap(), vec![i as u8; 504], "record {i}");
            }
            // Blocks past the frontier went back exactly once (a double
            // insert trips the allocator's debug assertion).
            let held = rec.blocks().len();
            assert_eq!(held, (frontier as usize).div_ceil(16));
            assert_eq!(f2.free_blocks(), free_before + blocks.len() - held);
            // And the writer appends where the frontier was, record and
            // page alike.
            assert_eq!(rec.append_page(&[0xAB; 504]).unwrap(), frontier);
            assert_eq!(rec.get(frontier).unwrap(), [0xAB; 504]);
        }
    }

    #[test]
    fn recover_at_resumes_in_place_after_a_clean_stop() {
        let f = flash();
        let w = filled_log(&f, 21);
        let blocks = w.blocks().to_vec();
        let f2 = f.reboot();
        let (mut rec, report) = LogWriter::recover_at(&f2, &blocks, 21).unwrap();
        assert_eq!(report.pages_relocated, 0);
        assert_eq!(f2.stats().page_programs, 0);
        assert_eq!(rec.blocks(), &blocks[..]);
        assert_eq!(rec.append_page(&[7; 504]).unwrap(), 21);
        // A frontier the blocks cannot hold touches nothing.
        let free = f2.free_blocks();
        assert_eq!(
            LogWriter::recover_at(&f2, &blocks, 33).err(),
            Some(FlashError::BadRecordAddr)
        );
        assert_eq!(f2.free_blocks(), free);
    }

    #[test]
    fn release_head_reclaims_whole_blocks_and_shifts_pages() {
        let f = flash();
        let before = f.free_blocks();
        let mut w = filled_log(&f, 40);
        assert_eq!(w.release_head(1), 16);
        assert_eq!((w.num_pages(), w.blocks().len()), (24, 2));
        assert_eq!(filled_page(&w, 0), vec![16u8; 504]);
        // Clamped: the block holding the append point stays.
        assert_eq!(w.release_head(5), 16);
        assert_eq!((w.num_pages(), w.blocks().len()), (8, 1));
        assert_eq!(filled_page(&w, 7), vec![39u8; 504]);
        assert_eq!(w.get(7).unwrap(), vec![39u8; 504]);
        assert_eq!(w.append_page(&[1; 504]).unwrap(), 8);
        assert_eq!(f.free_blocks(), before - 1);
    }

    #[test]
    fn empty_log_seals_cleanly() {
        let f = flash();
        let log = f.new_log().seal().unwrap();
        assert_eq!(log.num_pages(), 0);
        assert_eq!(log.blocks().len(), 0);
        assert_eq!(log.reader().count(), 0);
    }

    /// The key every record of the search tests opens with: its ordinal.
    fn key(rec: &[u8]) -> u32 {
        u32::from_le_bytes(rec[..4].try_into().unwrap())
    }

    #[test]
    fn partition_point_finds_where_a_sorted_log_turns() {
        use pds_obs::rng::{Rng, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(0x9A27_1710);
        for case in 0..24u32 {
            let f = Flash::small(32);
            let mut w = f.new_log();
            let max = w.max_record_len();
            // Every third log has records of up to three pages.
            let spanning = case % 3 == 0;
            let n = rng.gen_range(0..400u32);
            for i in 0..n {
                let len = if spanning && rng.gen_range(0..6u32) == 0 {
                    rng.gen_range(max..3 * max)
                } else {
                    rng.gen_range(4..60)
                };
                let mut rec = i.to_le_bytes().to_vec();
                rec.resize(len, 0xA5);
                w.append(&rec).unwrap();
            }
            if case % 2 == 0 {
                w.flush().unwrap();
            }
            let pages = w.num_pages();
            let log2 = u64::from(u32::BITS - pages.saturating_sub(1).leading_zeros());
            let page_of = |o: u32| w.get_with(o, &mut Vec::new(), |page, _| page).unwrap();
            let ks = (0..=n)
                .step_by(n as usize / 16 + 1)
                .chain([1, n.saturating_sub(1), n]);
            for k in ks.filter(|k| *k <= n) {
                let ctx = format!("case {case}: {n} records on {pages} pages, split at {k}");
                let reads = f.stats().page_reads;
                let mut scratch = Vec::new();
                let pos = w
                    .partition_point(&mut scratch, |_, rec| Ok(key(rec) < k))
                    .unwrap();
                assert!(f.stats().page_reads - reads <= log2, "{ctx}");
                assert!(pos.ordinal <= k, "{ctx}: {pos:?}");
                if !spanning && k < n {
                    let (at, turn) = (page_of(pos.ordinal), page_of(k));
                    assert!(at + 1 >= turn, "{ctx}: {pos:?} is pages before {turn}");
                }
                // The scan from there hands over every later record, each
                // under its ordinal, in one buffer with the search.
                let mut seen = Vec::new();
                w.scan(pos, &mut scratch, |_, ordinal, rec| {
                    assert_eq!(key(rec), ordinal, "{ctx}");
                    seen.push(ordinal);
                    Ok(ControlFlow::Continue(()))
                })
                .unwrap();
                assert_eq!(seen, (pos.ordinal..n).collect::<Vec<_>>(), "{ctx}");
            }
        }
    }

    #[test]
    fn a_scan_stops_where_it_is_told() {
        let f = flash();
        let mut w = f.new_log();
        for i in 0..500u32 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        let holder = w.get_with(41, &mut Vec::new(), |page, _| page).unwrap();
        let before = f.stats().page_reads;
        let mut seen = Vec::new();
        w.scan(LogPos::START, &mut Vec::new(), |_, ordinal, _| {
            seen.push(ordinal);
            Ok(if ordinal == 41 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            })
        })
        .unwrap();
        assert_eq!(seen, (0..=41).collect::<Vec<_>>());
        // No page past the one it stopped on is read.
        assert_eq!(f.stats().page_reads - before, u64::from(holder) + 1);
        // A search the RAM tail answers reads nothing.
        let before = f.stats().page_reads;
        let pos = w
            .partition_point(&mut Vec::new(), |_, rec| Ok(key(rec) < 499))
            .unwrap();
        assert_eq!(f.stats().page_reads, before);
        assert_eq!(pos.ordinal, w.durable + 1);
    }

    /// The page reads and programs `recover` makes on `f`, and its report.
    fn cost_of(
        f: &Flash,
        recover: impl FnOnce(&Flash) -> Result<(LogWriter, RecoveryReport)>,
    ) -> (u64, u64, RecoveryReport) {
        let before = f.stats();
        let (_, report) = recover(f).unwrap();
        let io = f.stats() - before;
        (io.page_reads, io.page_programs, report)
    }

    /// A log of 8-byte records (50 to a page of `Flash::small`) appended
    /// until the power cut `plan` makes; returns its blocks.
    fn cut_log(f: &Flash, plan: crate::FaultPlan) -> Vec<BlockId> {
        f.inject_faults(plan);
        let mut w = f.new_log();
        let mut i = 0u64;
        while w.append(&i.to_le_bytes()).is_ok() {
            i += 1;
        }
        w.blocks().to_vec()
    }

    #[test]
    fn every_recovery_costs_what_it_is_pinned_to() {
        use crate::FaultPlan;
        let report = |scanned, torn, records, relocated, retries, refused| RecoveryReport {
            pages_scanned: scanned,
            torn_pages_discarded: torn,
            records_recovered: records,
            pages_relocated: relocated,
            read_retries: retries,
            refused,
        };
        // A clean log: 300 4-byte records on 4 flushed pages.
        let f = flash();
        let mut w = f.new_log();
        for i in 0..300u32 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        w.flush().unwrap();
        let clean = w.blocks().to_vec();
        let got = cost_of(&f.reboot(), |f| LogWriter::recover(f, &clean));
        assert_eq!(got, (5, 0, report(5, 0, 300, 0, 0, false)), "clean");
        // The same log cut at a refused record, no tear: record 100 and
        // everything after it go, the 100 before are copied onto 2 pages.
        let refuse = |rec: &[u8]| rec != 100u32.to_le_bytes();
        let got = cost_of(&f.reboot(), |f| LogWriter::recover_with(f, &clean, refuse));
        assert_eq!(got, (7, 2, report(5, 0, 300, 0, 0, true)), "cut");
        // A log torn by the power cut after its fifth program: five
        // valid pages relocated off the torn block.
        let f = flash();
        let torn = cut_log(&f, FaultPlan::new(0).power_loss_after(5));
        let got = cost_of(&f.reboot(), |f| LogWriter::recover(f, &torn));
        assert_eq!(got, (13, 5, report(6, 1, 250, 5, 2, false)), "torn");
        // Frontiers of a log of page-filling records: erased (one read),
        // dirty (one read of the whole page past it, and the two pages
        // before it in its block relocated), erased with a first read
        // that flipped (two reads).
        let f = flash();
        let filled = filled_log(&f, 20);
        let got = cost_of(&f.reboot(), |f| {
            LogWriter::recover_at(f, filled.blocks(), 20)
        });
        assert_eq!(
            got,
            (1, 0, report(1, 0, 20, 0, 0, false)),
            "erased frontier"
        );
        let got = cost_of(&f.reboot(), |f| {
            LogWriter::recover_at(f, filled.blocks(), 18)
        });
        assert_eq!(got, (3, 2, report(1, 0, 18, 2, 0, false)), "dirty frontier");
        // The first plan under which reads of `page` flip as `flips` says,
        // read by read.
        let plan = |seed| FaultPlan::new(seed).read_flips(0.5);
        let seed_for = |page: u32, flips: &[bool]| {
            let addr = f.geometry().log_page(filled.blocks(), page).unwrap();
            let mut clean = vec![0; 512];
            f.read_page(addr, &mut clean).unwrap();
            let follows = |seed| {
                let probe = f.reboot();
                probe.inject_faults(plan(seed));
                let mut buf = vec![0; 512];
                flips.iter().all(|&flip| {
                    probe.read_page(addr, &mut buf).unwrap();
                    (buf != clean) == flip
                })
            };
            (0..).find(|&seed| follows(seed)).unwrap()
        };
        let flipped = f.reboot();
        flipped.inject_faults(plan(seed_for(20, &[true, false])));
        let got = cost_of(&flipped, |f| LogWriter::recover_at(f, filled.blocks(), 20));
        assert_eq!(
            got,
            (2, 0, report(1, 0, 20, 0, 1, false)),
            "flipped frontier"
        );
        // Dirty, and the copy of the first page it relocates flips (after
        // the frontier's read): the copy is read again, and the fresh
        // block holds the page, not the flip.
        let flipped = f.reboot();
        flipped.inject_faults(plan(seed_for(18, &[false, true, false, false])));
        let before = flipped.stats();
        let (rec, report_got) = LogWriter::recover_at(&flipped, filled.blocks(), 18).unwrap();
        let io = flipped.stats() - before;
        let got = (io.page_reads, io.page_programs, report_got);
        assert_eq!(got, (4, 2, report(1, 0, 18, 2, 1, false)), "flipped copy");
        flipped.inject_faults(FaultPlan::new(0));
        assert_eq!(filled_page(&rec, 16), vec![16u8; 504]);
        assert_eq!(filled_page(&rec, 17), vec![17u8; 504]);
    }

    #[test]
    fn a_torn_and_cut_recovery_costs_what_it_is_pinned_to() {
        // The log torn after five programs, cut at its record 10: the
        // cut's copy reads the torn block's valid prefix where it lies,
        // and nothing is relocated first.
        let f = flash();
        let torn = cut_log(&f, crate::FaultPlan::new(0).power_loss_after(5));
        let refuse = |rec: &[u8]| rec != 10u64.to_le_bytes();
        let got = cost_of(&f.reboot(), |f| LogWriter::recover_with(f, &torn, refuse));
        let report = RecoveryReport {
            pages_scanned: 6,
            torn_pages_discarded: 1,
            records_recovered: 250,
            pages_relocated: 0,
            read_retries: 2,
            refused: true,
        };
        assert_eq!(got, (9, 1, report));
        // Torn or not, the recovery programs the pages the copy made and
        // no other, and every block is free or the copy's.
        for seed in 0..16 {
            let f = flash();
            let blocks = cut_log(&f, crate::FaultPlan::new(seed).power_loss_after(5));
            let f = f.reboot();
            let (rec, report) = LogWriter::recover_with(&f, &blocks, refuse).unwrap();
            assert!(report.refused, "seed {seed}");
            assert_eq!(
                f.stats().page_programs,
                u64::from(rec.num_pages()),
                "seed {seed}"
            );
            let total = f.geometry().num_blocks();
            assert_eq!(f.free_blocks() + rec.blocks().len(), total, "seed {seed}");
            assert_eq!(rec.num_records(), 10, "seed {seed}");
        }
    }

    #[test]
    fn foreground_reads_are_pinned() {
        // 300 4-byte records on 4 flushed pages, then a record of three
        // pages and one more page of small records.
        let f = Flash::small(32);
        let mut w = f.new_log();
        for i in 0..300u32 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        let big = pattern(3 * w.max_record_len());
        assert_eq!(w.append(&big).unwrap(), 300);
        for i in 301..320u32 {
            w.append(&i.to_le_bytes()).unwrap();
        }
        w.flush().unwrap();
        let reads = |run: &mut dyn FnMut()| {
            let before = f.stats().page_reads;
            run();
            f.stats().page_reads - before
        };
        let mut scratch = Vec::new();
        let gets = reads(&mut || {
            for i in (0..320u32).filter(|&i| i != 300) {
                assert_eq!(w.get_with(i, &mut scratch, |_, r| key(r)).unwrap(), i);
            }
        });
        assert_eq!((w.num_pages(), gets), (8, 319));
        assert_eq!(reads(&mut || assert_eq!(w.get(300).unwrap(), big)), 3);
        let mut seen = 0;
        let scan = reads(&mut || {
            w.for_each_record(|_, _| {
                seen += 1;
                Ok(())
            })
            .unwrap();
        });
        assert_eq!((seen, scan), (320, 8));
        let from = reads(&mut || {
            let pos = w
                .partition_point(&mut scratch, |_, r| Ok(r.len() == 4 && key(r) < 200))
                .unwrap();
            w.scan(pos, &mut scratch, |_, _, _| Ok(ControlFlow::Continue(())))
                .unwrap();
        });
        assert_eq!(from, 9);
        let log = w.seal().unwrap();
        let sealed = reads(&mut || assert_eq!(log.reader().count(), 320));
        assert_eq!(sealed, 8);
    }
}
