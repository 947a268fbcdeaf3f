//! The summarised log — the tutorial's "data log + summary log" recipe,
//! stated once.
//!
//! Part II is one framework applied repeatedly: entries append to a
//! sequential **data log**; every data page gets one small **summary**
//! record in a second log; a query scans the summaries and probes only
//! the data pages its summaries cannot rule out — `|Log2| I/O + 1 I/O
//! per positive page`, the slide's *Summary Scan 17 IOs* against *Table
//! Scan 640*. [`PBFilter`](crate::PBFilter), [`KvStore`](crate::KvStore),
//! [`TimeSeries`](crate::TimeSeries) and
//! [`SpatialTrace`](crate::SpatialTrace) are typed fronts over this
//! module: each brings an entry codec and a summary type (a [`Front`])
//! and keeps its own skip / use / probe rule; the page format, the
//! closing order and the summary walk live here and nowhere else in the
//! crate; pages are read back through the workspace's one checked cursor
//! ([`pds_obs::wire::Reader`]).
//!
//! ## On flash
//!
//! Both logs are record logs, so every page read is verified (CRC,
//! framing, re-read of a page that fails) by the record log's one read
//! path. A data page is one page-filling record — `count u16`, then the
//! entries — so its ordinal is its page index; a summary is a small
//! record of the summary log, one per data page, in data-page order.
//!
//! Closing a page programs the data page and *then* appends its summary,
//! so the n-th summary always describes data page n. Summaries are small
//! and buffer in the record log's RAM page: a walk visits the flushed
//! summary pages, then that RAM tail; the entries of the page still
//! under construction are served from RAM by the front itself.
//!
//! ## One parser per format: the walk
//!
//! A data page is read where it lies. [`SummaryLog::for_each_entry`]
//! reads the page into a buffer the caller keeps for the whole query and
//! hands each entry to a visitor as the front's borrowed form
//! ([`Front::EntryRef`] — a key is a slice of the page, not a `Vec`); a
//! summary reaches [`SummaryLog::for_each_summary`]'s visitor borrowed
//! from its record ([`Front::Summary`] — a Bloom filter is probed in the
//! summary page's buffer, not copied out of it). [`Front::decode`] is
//! each entry format's only parser and the walk its only caller;
//! [`SummaryLog::read_page`], for the callers that want owned entries
//! (compaction, the reorganisation's input stream), is the walk
//! collected.

use pds_flash::{BlockId, Flash, FlashError, LogWriter};
use pds_obs::wire::Reader;

/// Bytes of the entry count that precedes a page's entries.
const COUNT_LEN: usize = 2;

/// What a front brings to the recipe: how one entry is laid out in a
/// data page, and what summarises a page.
pub(crate) trait Front {
    /// One entry of the data log, owned: what `push` takes and the open
    /// page holds.
    type Entry;
    /// One entry borrowed from the page image it lies in.
    type EntryRef<'a>;
    /// A per-page summary borrowed from its record.
    type Summary<'a>;

    /// Append the on-flash form of `entry` to `out`.
    fn encode(entry: &Self::Entry, out: &mut Vec<u8>);

    /// Read one entry off the page; `None` when the bytes run out.
    fn decode<'a>(r: &mut Reader<'a>) -> Option<Self::EntryRef<'a>>;

    /// The owned form of a borrowed entry.
    fn to_owned(entry: Self::EntryRef<'_>) -> Self::Entry;

    /// The summary record of a closing page.
    fn summarise(&self, page: &[Self::Entry]) -> Vec<u8>;

    /// Parse a summary record; `None` when it is malformed.
    fn summary(rec: &[u8]) -> Option<Self::Summary<'_>>;
}

/// Packs entries into the image of one page-filling record, `capacity`
/// bytes (a log's [`max_record_len`](LogWriter::max_record_len)):
/// `prefix ‖ count u16 ‖ entries`, erased-cell padding after. The
/// summarised log packs with an empty prefix; the tree index puts its
/// page-kind byte there.
pub(crate) struct PagePacker {
    image: Vec<u8>,
    capacity: usize,
    /// Offset of the count (= length of the prefix).
    count_at: usize,
    count: u16,
}

impl PagePacker {
    pub fn new(capacity: usize, prefix: &[u8]) -> Self {
        let mut image = Vec::with_capacity(capacity);
        image.extend_from_slice(prefix);
        image.extend_from_slice(&[0; COUNT_LEN]);
        PagePacker {
            image,
            capacity,
            count_at: prefix.len(),
            count: 0,
        }
    }

    fn header(&self) -> usize {
        self.count_at + COUNT_LEN
    }

    /// Bytes an empty page has for entries.
    pub fn room(&self) -> usize {
        self.capacity - self.header()
    }

    /// Would an entry of `len` bytes still fit?
    pub fn fits(&self, len: usize) -> bool {
        self.image.len() + len <= self.capacity
    }

    /// Pack the entry `encode` writes. `Ok(false)` leaves the page
    /// untouched because the entry does not fit *this* page —
    /// [`program`](Self::program) it, push again. An entry no empty
    /// page could hold is [`FlashError::RecordTooLarge`].
    pub fn push(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Result<bool, FlashError> {
        let start = self.image.len();
        encode(&mut self.image);
        let len = self.image.len() - start;
        if self.image.len() > self.capacity {
            self.image.truncate(start);
            let max = self.room();
            return if len > max {
                Err(FlashError::RecordTooLarge { len, max })
            } else {
                Ok(false)
            };
        }
        self.count += 1;
        Ok(true)
    }

    /// The finished image: the count in its place, erased cells up to
    /// `capacity`. The page takes no more entries until it is programmed.
    pub fn image(&mut self) -> &[u8] {
        self.image[self.count_at..self.count_at + COUNT_LEN]
            .copy_from_slice(&self.count.to_le_bytes());
        self.image.resize(self.capacity, 0xFF);
        &self.image
    }

    /// Put the image on `log` as one record and flush it, then start the
    /// next page; returns the record's ordinal, which is its page index
    /// because every record of `log` fills a page. A failed program
    /// leaves the image buffered in `log`, and a retry programs that
    /// image rather than a copy of it.
    pub fn program(&mut self, log: &mut LogWriter) -> Result<u32, FlashError> {
        if log.num_records() == u64::from(log.num_pages()) {
            log.append(self.image())?;
        }
        log.flush()?;
        self.clear();
        Ok(log.num_pages() - 1)
    }

    fn clear(&mut self) {
        self.image.truncate(self.header());
        self.count = 0;
    }
}

/// A data log with one summary record per data page.
pub(crate) struct SummaryLog<F: Front> {
    front: F,
    data: LogWriter,
    summaries: LogWriter,
    /// The data page under construction: its entries, and their image.
    open: Vec<F::Entry>,
    packer: PagePacker,
}

impl<F: Front> SummaryLog<F> {
    /// An empty log pair on `flash`.
    pub fn new(flash: &Flash, front: F) -> Self {
        let data = flash.new_log();
        SummaryLog {
            front,
            packer: PagePacker::new(data.max_record_len(), &[]),
            data,
            summaries: flash.new_log(),
            open: Vec::new(),
        }
    }

    /// Data pages on flash.
    pub fn num_data_pages(&self) -> u32 {
        self.data.num_pages()
    }

    /// Summary pages on flash — what a summary scan reads.
    pub fn num_summary_pages(&self) -> u32 {
        self.summaries.num_pages()
    }

    /// Entries of the page under construction (RAM), oldest first.
    pub fn open_entries(&self) -> &[F::Entry] {
        &self.open
    }

    /// Append one entry, closing the open page first when it is full.
    pub fn push(&mut self, entry: F::Entry) -> Result<(), FlashError> {
        if !self.packer.push(|out| F::encode(&entry, out))? {
            self.close_page()?;
            self.packer.push(|out| F::encode(&entry, out))?;
        }
        self.open.push(entry);
        Ok(())
    }

    /// Close the open page now if an entry of `next_len` bytes would not
    /// fit. Fronts with fixed-size entries call this after every
    /// [`push`](Self::push), so a full page reaches flash with its last
    /// entry rather than with the next one.
    pub fn close_if_full(&mut self, next_len: usize) -> Result<(), FlashError> {
        if self.packer.fits(next_len) {
            return Ok(());
        }
        self.close_page()
    }

    fn close_page(&mut self) -> Result<(), FlashError> {
        if self.open.is_empty() {
            return Ok(());
        }
        let summary = self.front.summarise(&self.open);
        self.packer.program(&mut self.data)?;
        self.summaries.append(&summary)?;
        self.open.clear();
        Ok(())
    }

    /// Force the open page and the buffered summaries to flash.
    pub fn flush(&mut self) -> Result<(), FlashError> {
        self.close_page()?;
        self.summaries.flush()
    }

    /// Erase blocks of both logs, data log first.
    pub fn blocks(&self) -> Vec<BlockId> {
        [self.data.blocks(), self.summaries.blocks()].concat()
    }

    /// Drop both logs, returning their blocks to the pool.
    pub fn discard(self) {
        self.data.discard();
        self.summaries.discard();
    }

    /// The summary scan: visit every page summary exactly once, in data
    /// page order — flushed summary pages (one read each), then the
    /// buffered tail — as `f(data page ordinal, summary)`. A record that
    /// does not parse is [`FlashError::CorruptPage`] at the real flash
    /// address of its summary page.
    pub fn for_each_summary(
        &self,
        mut f: impl FnMut(u32, F::Summary<'_>) -> Result<(), FlashError>,
    ) -> Result<(), FlashError> {
        let mut ordinal = 0u32;
        self.summaries.for_each_record(|page, rec| {
            let Some(summary) = F::summary(rec) else {
                return Err(FlashError::CorruptPage(self.summaries.page_addr(page)?));
            };
            f(ordinal, summary)?;
            ordinal += 1;
            Ok(())
        })
    }

    /// Probe data page `ordinal`: one verified read into `buf` (sized
    /// on first use — a query keeps one for all its probes), then every
    /// entry handed to `f` where it lies. A record that does not form
    /// `count` whole entries is [`FlashError::CorruptPage`] at the page's
    /// flash address; `f` has seen the entries before the damage by then.
    pub fn for_each_entry(
        &self,
        ordinal: u32,
        buf: &mut Vec<u8>,
        f: impl FnMut(F::EntryRef<'_>),
    ) -> Result<(), FlashError> {
        let walked =
            (self.data).get_with(ordinal, buf, |page, rec| walk_page::<F>(rec, f).ok_or(page))?;
        walked.or_else(|page| Err(FlashError::CorruptPage(self.data.page_addr(page)?)))
    }

    /// [`for_each_entry`](Self::for_each_entry), collected into owned
    /// entries.
    pub fn read_page(&self, ordinal: u32) -> Result<Vec<F::Entry>, FlashError> {
        let mut entries = Vec::new();
        self.for_each_entry(ordinal, &mut Vec::new(), |e| entries.push(F::to_owned(e)))?;
        Ok(entries)
    }
}

/// Walk the entries of one data-page record in place: the format's only
/// parser.
fn walk_page<F: Front>(buf: &[u8], mut f: impl FnMut(F::EntryRef<'_>)) -> Option<()> {
    let mut r = Reader::new(buf);
    // An entry takes at least a byte, so a count beyond the page is
    // damage — refused before anything is visited.
    let count = r.count16(1)?;
    for _ in 0..count {
        f(F::decode(&mut r)?);
    }
    Some(())
}

/// [`walk_page`], collected — `None` for a damaged page, whatever was
/// visited before the damage.
#[cfg(test)]
fn decode_page<F: Front>(buf: &[u8]) -> Option<Vec<F::Entry>> {
    let mut entries = Vec::new();
    walk_page::<F>(buf, |e| entries.push(F::to_owned(e)))?;
    Some(entries)
}

/// A front's owned entry decoder as it stood before pages were walked
/// in place; each front keeps its own verbatim beside its tests.
#[cfg(test)]
pub(crate) type ReferenceDecode<E> = fn(&mut Reader<'_>) -> Option<E>;

/// The owned page decoder as it stood before pages were walked in place,
/// kept verbatim over the front's [`ReferenceDecode`].
#[cfg(test)]
pub(crate) fn reference_decode_page<E>(buf: &[u8], decode: ReferenceDecode<E>) -> Option<Vec<E>> {
    let mut r = Reader::new(buf);
    let count = r.count16(1)?;
    let mut entries = Vec::with_capacity(count);
    for _ in 0..count {
        entries.push(decode(&mut r)?);
    }
    Some(entries)
}

/// What the reference lookups of the fronts' tests stand on: the two
/// logs read record by record and page by page, nothing of the walk
/// above.
#[cfg(test)]
impl<F: Front> SummaryLog<F> {
    /// Every summary record, copied out, in data page order.
    pub(crate) fn reference_summaries(&self) -> Result<Vec<Vec<u8>>, FlashError> {
        let mut recs = Vec::new();
        self.summaries.for_each_record(|_, rec| {
            recs.push(rec.to_vec());
            Ok(())
        })?;
        Ok(recs)
    }

    /// Every entry in log order — the flushed data pages, then the open
    /// one: what the pages hold, however many a page holds.
    pub(crate) fn entries_in_log_order(&self) -> Result<Vec<F::Entry>, FlashError>
    where
        F::Entry: Clone,
    {
        let mut entries = Vec::new();
        for page in 0..self.num_data_pages() {
            entries.extend(self.read_page(page)?);
        }
        entries.extend_from_slice(self.open_entries());
        Ok(entries)
    }

    /// Data page `ordinal` fetched as a fresh record (one read) and
    /// decoded by [`reference_decode_page`].
    pub(crate) fn reference_read_page(
        &self,
        ordinal: u32,
        decode: ReferenceDecode<F::Entry>,
    ) -> Result<Vec<F::Entry>, FlashError> {
        let rec = self.data.get(ordinal)?;
        let addr = self.data.page_addr(ordinal)?;
        reference_decode_page(&rec, decode).ok_or(FlashError::CorruptPage(addr))
    }
}

/// The decoder contract ([`pds_obs::wire::sweep`]) for one front: its
/// data pages — `gen` draws an entry — and the summary records of those
/// pages. Every page image the sweep produces, whole, cut or damaged, is
/// also decoded by `reference`: both accept or both refuse, with equal
/// entries.
#[cfg(test)]
pub(crate) fn sweep_front<F: Front>(
    format: &str,
    front: &F,
    gen: impl Fn(&mut pds_obs::rng::StdRng) -> F::Entry,
    reference: ReferenceDecode<F::Entry>,
) where
    F::Entry: PartialEq + std::fmt::Debug,
{
    use pds_obs::rng::Rng;
    use pds_obs::wire::{sweep, Tail};
    const PAGE: usize = 512;
    let page = |rng: &mut pds_obs::rng::StdRng| -> Vec<F::Entry> {
        (0..rng.gen_range(0..12u32)).map(|_| gen(rng)).collect()
    };
    let image = |entries: &Vec<F::Entry>| {
        let mut packer = PagePacker::new(PAGE, &[]);
        for e in entries {
            assert_eq!(packer.push(|out| F::encode(e, out)), Ok(true));
        }
        packer.image().to_vec()
    };
    // A page claiming 65 535 entries in 510 bytes.
    sweep(
        &format!("{format} page"),
        Tail::Padded,
        &[&[0xFF; PAGE], &[0xFF; 2]],
        page,
        image,
        |buf| {
            let got = decode_page::<F>(buf);
            assert_eq!(got, reference_decode_page(buf, reference), "{format}");
            got
        },
    );
    sweep(
        &format!("{format} summary"),
        Tail::Exact,
        &[],
        |rng| front.summarise(&page(rng)),
        Vec::clone,
        |rec| F::summary(rec).map(|_| rec.to_vec()),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest front: one-byte entries, summary = the entry count.
    struct Bytes;

    impl Front for Bytes {
        type Entry = u8;
        type EntryRef<'a> = u8;
        type Summary<'a> = u8;

        fn encode(entry: &u8, out: &mut Vec<u8>) {
            out.push(*entry);
        }

        fn decode(r: &mut Reader<'_>) -> Option<u8> {
            r.u8()
        }

        fn to_owned(entry: u8) -> u8 {
            entry
        }

        fn summarise(&self, page: &[u8]) -> Vec<u8> {
            vec![page.len() as u8]
        }

        fn summary(rec: &[u8]) -> Option<u8> {
            match rec {
                [n] => Some(*n),
                _ => None,
            }
        }
    }

    fn summaries(log: &SummaryLog<Bytes>) -> Result<Vec<(u32, u8)>, FlashError> {
        let mut seen = Vec::new();
        log.for_each_summary(|ordinal, n| {
            seen.push((ordinal, n));
            Ok(())
        })?;
        Ok(seen)
    }

    #[test]
    fn closes_data_page_then_summary_and_walks_flushed_then_buffered() {
        let f = Flash::small(8);
        let mut log = SummaryLog::new(&f, Bytes);
        for i in 0..700u32 {
            log.push(i as u8).unwrap();
        }
        // 502 one-byte entries fill the 504-byte record of a 512-byte
        // page; 198 stay open.
        assert_eq!((log.num_data_pages(), log.num_summary_pages()), (1, 0));
        assert_eq!(summaries(&log).unwrap(), vec![(0, 246)], "502 as u8");
        assert_eq!(log.open_entries().len(), 198);
        assert_eq!(f.stats().page_reads, 0, "the buffered tail is RAM");
        log.flush().unwrap();
        log.push(7).unwrap();
        log.flush().unwrap();
        assert_eq!((log.num_data_pages(), log.num_summary_pages()), (3, 2));
        assert_eq!(summaries(&log).unwrap(), vec![(0, 246), (1, 198), (2, 1)]);
        assert_eq!(f.stats().page_reads, 2);
        assert_eq!(log.read_page(2).unwrap(), vec![7]);
        let first: Vec<u8> = (0..502u32).map(|i| i as u8).collect();
        assert_eq!(log.read_page(0).unwrap(), first);
        let free = f.free_blocks();
        assert_eq!(log.blocks().len(), 2);
        log.discard();
        assert_eq!(f.free_blocks(), free + 2);
    }

    #[test]
    fn damaged_bytes_are_corrupt_page_at_the_real_address() {
        let f = Flash::small(8);
        let mut log = SummaryLog::new(&f, Bytes);
        log.push(1).unwrap();
        log.flush().unwrap();
        // Data page 1 claims 600 entries in 502 bytes; its summary and
        // the next one are two bytes long where this front writes one.
        let mut garbage = vec![0u8; log.data.max_record_len()];
        garbage[..2].copy_from_slice(&600u16.to_le_bytes());
        log.data.append(&garbage).unwrap();
        log.data.flush().unwrap();
        log.summaries.append(&[9, 9]).unwrap();
        let data_addr = log.data.page_addr(1).unwrap();
        assert_eq!(log.read_page(1), Err(FlashError::CorruptPage(data_addr)));
        assert_eq!(log.read_page(0).unwrap(), vec![1]);
        // Still buffered: no flash page to name.
        assert_eq!(summaries(&log), Err(FlashError::BadRecordAddr));
        log.summaries.flush().unwrap();
        let summary_addr = log.summaries.page_addr(1).unwrap();
        assert_ne!(summary_addr.0, 1, "an address, not an ordinal");
        assert_eq!(summaries(&log), Err(FlashError::CorruptPage(summary_addr)));
    }

    #[test]
    fn packer_refuses_what_no_page_can_hold_and_retries_a_failed_program() {
        let mut packer = PagePacker::new(16, &[7]);
        let fill = |n: usize| move |out: &mut Vec<u8>| out.resize(out.len() + n, 1);
        assert_eq!(
            packer.push(fill(14)),
            Err(FlashError::RecordTooLarge { len: 14, max: 13 })
        );
        assert_eq!(packer.push(fill(10)), Ok(true));
        assert_eq!(packer.push(fill(4)), Ok(false), "full: page untouched");
        assert!(packer.fits(3) && !packer.fits(4));
        let mut want = vec![7, 1, 0];
        want.extend([1; 10]);
        want.extend([0xFF; 3]);
        assert_eq!(packer.image(), want);
        assert_eq!(packer.image(), want, "kept for a retry");
        assert_eq!(
            packer.push(fill(1)),
            Ok(false),
            "a finished page takes nothing"
        );
        packer.clear();
        assert_eq!(packer.push(fill(13)), Ok(true));

        // A page whose program failed for want of a block is programmed
        // on the retry, not a copy of it.
        let f = Flash::small(2);
        let mut other = f.new_log();
        other.append(b"x").unwrap();
        other.flush().unwrap();
        let mut log = f.new_log();
        let mut packer = PagePacker::new(log.max_record_len(), &[]);
        for page in 0..16u32 {
            packer.push(|out| out.push(page as u8)).unwrap();
            assert_eq!(packer.program(&mut log), Ok(page));
        }
        packer.push(|out| out.push(16)).unwrap();
        assert!(packer.program(&mut log).is_err(), "the chip is full");
        other.discard();
        assert_eq!(packer.program(&mut log), Ok(16));
        assert_eq!((log.num_pages(), log.num_records()), (17, 17));
        assert_eq!(log.get(16).unwrap()[..3], [1, 0, 16]);
    }
}
