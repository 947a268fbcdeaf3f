//! Typed values, rows and schemas.
//!
//! The personal data of the tutorial is modestly typed — identifiers,
//! amounts, dates-as-integers, short strings (city, market segment,
//! supplier name). Keys must compare correctly as raw bytes so the log
//! indexes can sort and merge without deserializing: integers encode
//! big-endian, strings as their bytes.
//!
//! ## One parser: the view
//!
//! A stored row is read through [`RowRef`], a view over the bytes it
//! lies in — the page buffer a scan verified, the record a `get`
//! fetched. [`RowRef::parse`] is the row format's only parser: it
//! checks the whole row (arity against the bytes in hand, every tag,
//! every length, UTF-8, no byte left over) and copies nothing; columns
//! come out as [`ValueRef`]s that borrow their strings. The owned
//! [`Row`] is the view collected ([`RowRef::to_row`], which
//! [`decode_row`] is), built only for the rows a query returns.
//! [`Value`] and [`ValueRef`] share one order: a [`Value`] compares by
//! comparing its borrowed form.

use std::cmp::Ordering;
use std::fmt;

use pds_obs::wire::{put_prefixed, Reader};

/// A column value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Value {
    /// Unsigned 64-bit integer (ids, amounts, dates).
    U64(u64),
    /// UTF-8 string (names, cities, segments).
    Str(String),
}

impl Value {
    /// Shorthand for a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    /// This value, borrowed.
    pub fn as_ref(&self) -> ValueRef<'_> {
        match self {
            Value::U64(v) => ValueRef::U64(*v),
            Value::Str(s) => ValueRef::Str(s),
        }
    }

    /// Order-preserving key encoding: compare two encodings of the same
    /// type with `memcmp` and you get the value order.
    pub fn to_key_bytes(&self) -> Vec<u8> {
        self.as_ref().to_key_bytes()
    }

    /// Serialize: `tag ‖ payload` (u64 LE; string raw).
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.push(self.as_ref().tag());
        match self {
            Value::U64(v) => out.extend_from_slice(&v.to_le_bytes()),
            Value::Str(s) => put_prefixed(out, s.as_bytes()),
        }
    }

    /// Shortest encoding: the tag and an empty string's length.
    const MIN_LEN: usize = 1 + 2;

    /// The u64 payload, if this is a `U64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_ref().as_u64()
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        self.as_ref().as_str()
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_ref().cmp(&other.as_ref())
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_ref().fmt(f)
    }
}

/// A column value borrowed from the bytes it was decoded from (or from a
/// [`Value`]): what a scan compares, sums and groups by without building
/// a `String` per row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueRef<'a> {
    /// Unsigned 64-bit integer.
    U64(u64),
    /// UTF-8 string.
    Str(&'a str),
}

impl<'a> ValueRef<'a> {
    /// The type tag used in serialization.
    fn tag(self) -> u8 {
        match self {
            ValueRef::U64(_) => 0,
            ValueRef::Str(_) => 1,
        }
    }

    /// Read one value off the cursor — the only decoder of
    /// [`Value::encode`]'s layout.
    fn decode(r: &mut Reader<'a>) -> Option<Self> {
        match r.u8()? {
            0 => Some(ValueRef::U64(r.u64()?)),
            1 => Some(ValueRef::Str(std::str::from_utf8(r.prefixed()?).ok()?)),
            _ => None,
        }
    }

    /// The owned value.
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::U64(v) => Value::U64(v),
            ValueRef::Str(s) => Value::str(s),
        }
    }

    /// Order-preserving key encoding (see [`Value::to_key_bytes`]).
    pub fn to_key_bytes(self) -> Vec<u8> {
        match self {
            ValueRef::U64(v) => v.to_be_bytes().to_vec(),
            ValueRef::Str(s) => s.as_bytes().to_vec(),
        }
    }

    /// The u64 payload, if this is a `U64`.
    pub fn as_u64(self) -> Option<u64> {
        match self {
            ValueRef::U64(v) => Some(v),
            ValueRef::Str(_) => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(self) -> Option<&'a str> {
        match self {
            ValueRef::Str(s) => Some(s),
            ValueRef::U64(_) => None,
        }
    }
}

impl<'a> From<&'a Value> for ValueRef<'a> {
    fn from(v: &'a Value) -> Self {
        v.as_ref()
    }
}

impl PartialOrd for ValueRef<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ValueRef<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (ValueRef::U64(a), ValueRef::U64(b)) => a.cmp(b),
            (ValueRef::Str(a), ValueRef::Str(b)) => a.cmp(b),
            // Cross-type: by tag (schema-checked code never hits this).
            (a, b) => a.tag().cmp(&b.tag()),
        }
    }
}

impl fmt::Display for ValueRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::U64(v) => write!(f, "{v}"),
            ValueRef::Str(s) => write!(f, "{s}"),
        }
    }
}

/// A tuple.
pub type Row = Vec<Value>;

/// Encode a row: `u16 arity ‖ values`.
pub fn encode_row(row: &Row) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&(row.len() as u16).to_le_bytes());
    for v in row {
        v.encode(&mut out);
    }
    out
}

/// Bytes of the arity that precedes a row's values.
const ARITY_LEN: usize = 2;

/// A row read where it lies: bytes produced by [`encode_row`], checked
/// as a whole by [`parse`](Self::parse) and borrowed from then on.
#[derive(Debug, Clone, Copy)]
pub struct RowRef<'a> {
    /// The whole encoding, arity included.
    bytes: &'a [u8],
    arity: usize,
}

impl<'a> RowRef<'a> {
    /// Check `buf` as one row: an arity the bytes could hold, that many
    /// well-formed values, nothing after them. Allocates nothing.
    pub fn parse(buf: &'a [u8]) -> Option<Self> {
        let mut r = Reader::new(buf);
        let arity = r.count16(Value::MIN_LEN)?;
        for _ in 0..arity {
            ValueRef::decode(&mut r)?;
        }
        r.finish()?;
        Some(RowRef { bytes: buf, arity })
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.arity
    }

    /// True for the empty row.
    pub fn is_empty(&self) -> bool {
        self.arity == 0
    }

    /// The row's encoding, as [`encode_row`] of [`to_row`](Self::to_row)
    /// would produce it again.
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// The columns in order, each decoded as it is reached.
    pub fn values(&self) -> impl Iterator<Item = ValueRef<'a>> {
        let mut r = Reader::new(self.bytes.get(ARITY_LEN..).unwrap_or_default());
        (0..self.arity).map_while(move |_| ValueRef::decode(&mut r))
    }

    /// Column `c`, `None` past the row's arity — a stored row shorter
    /// than its table's schema has no value there, and nothing matches
    /// nothing.
    pub fn get(&self, c: usize) -> Option<ValueRef<'a>> {
        self.values().nth(c)
    }

    /// The owned row.
    pub fn to_row(&self) -> Row {
        let mut row = Vec::with_capacity(self.arity);
        row.extend(self.values().map(ValueRef::to_value));
        row
    }
}

/// Decode a row produced by [`encode_row`]: [`RowRef::parse`], collected.
pub fn decode_row(buf: &[u8]) -> Option<Row> {
    RowRef::parse(buf).map(|row| row.to_row())
}

/// Declared column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Maps to [`Value::U64`].
    U64,
    /// Maps to [`Value::Str`].
    Str,
}

/// A table schema: ordered, named, typed columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<(String, ColumnType)>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    pub fn new(columns: &[(&str, ColumnType)]) -> Self {
        Schema {
            columns: columns.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Name of column `i`.
    pub fn column_name(&self, i: usize) -> &str {
        &self.columns[i].0
    }

    /// Check a row against the schema.
    pub fn validate(&self, row: &Row) -> bool {
        row.len() == self.columns.len()
            && row.iter().zip(&self.columns).all(|(v, (_, t))| {
                matches!(
                    (v, t),
                    (Value::U64(_), ColumnType::U64) | (Value::Str(_), ColumnType::Str)
                )
            })
    }
}

/// The owned row decoder as it stood before rows were read through a
/// view, kept verbatim: the reference every differential test of the row
/// format compares against.
#[cfg(test)]
pub(crate) fn reference_decode_row(buf: &[u8]) -> Option<Row> {
    fn decode(r: &mut Reader<'_>) -> Option<Value> {
        match r.u8()? {
            0 => Some(Value::U64(r.u64()?)),
            1 => Some(Value::str(std::str::from_utf8(r.prefixed()?).ok()?)),
            _ => None,
        }
    }
    let mut r = Reader::new(buf);
    let arity = r.count16(Value::MIN_LEN)?;
    let mut row = Vec::with_capacity(arity);
    for _ in 0..arity {
        row.push(decode(&mut r)?);
    }
    r.finish()?;
    Some(row)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pds_obs::rng::{Rng, SeedableRng, StdRng};

    #[test]
    fn rows_and_the_reference_keep_the_decoder_contract() {
        use pds_obs::wire::{sweep, Tail};
        // Strings that are not ASCII, so a flip or a cut can land inside
        // a code point and the UTF-8 refusal is reached.
        const WORDS: [&str; 5] = ["", "Lyon", "héllo wörld", "東京", "HOUSEHOLD"];
        sweep(
            "Row vs reference",
            Tail::Exact,
            &[&[0xFF, 0xFF], &[0xFF, 0xFF, 0, 0, 0]],
            |rng| -> Row {
                (0..rng.gen_range(0..7u32))
                    .map(|_| match rng.gen_range(0..3u32) {
                        0 => Value::U64(rng.gen()),
                        1 => Value::str(WORDS[rng.gen_range(0..WORDS.len())]),
                        _ => Value::Str(WORDS[1].repeat(rng.gen_range(0..40usize))),
                    })
                    .collect()
            },
            encode_row,
            |buf| {
                let got = decode_row(buf);
                assert_eq!(got, reference_decode_row(buf), "{buf:02x?}");
                got
            },
        );
    }

    #[test]
    fn row_views_are_their_own_encoding_and_keep_the_decoder_contract() {
        use pds_obs::wire::{sweep, Tail};
        // What the archive export relies on when it appends `bytes()`
        // instead of re-encoding: the format has one encoding per row.
        sweep(
            "RowRef",
            Tail::Exact,
            &[&[0xFF, 0xFF]],
            |rng| -> Row {
                (0..rng.gen_range(0..5u32))
                    .map(|_| match rng.gen_bool(0.5) {
                        true => Value::U64(rng.gen()),
                        false => Value::Str("né".repeat(rng.gen_range(0..9usize))),
                    })
                    .collect()
            },
            encode_row,
            |buf| {
                let view = RowRef::parse(buf)?;
                let row = view.to_row();
                assert_eq!(view.bytes(), encode_row(&row));
                assert_eq!(view.len(), row.len());
                for (c, v) in row.iter().enumerate() {
                    assert_eq!(view.get(c), Some(v.as_ref()));
                }
                assert_eq!(view.get(row.len()), None);
                Some(row)
            },
        );
    }

    #[test]
    fn value_encode_decode_round_trips() {
        for v in [
            Value::U64(0),
            Value::U64(u64::MAX),
            Value::str(""),
            Value::str("Lyon"),
            Value::str("héllo wörld"),
        ] {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            let mut r = Reader::new(&buf);
            assert_eq!(ValueRef::decode(&mut r), Some(v.as_ref()));
            assert_eq!(r.finish(), Some(()));
        }
    }

    #[test]
    fn key_bytes_preserve_order() {
        let pairs = [(1u64, 2u64), (255, 256), (1 << 40, (1 << 40) + 1)];
        for (a, b) in pairs {
            assert!(
                Value::U64(a).to_key_bytes() < Value::U64(b).to_key_bytes(),
                "{a} vs {b}"
            );
        }
        assert!(Value::str("Lyon").to_key_bytes() < Value::str("Paris").to_key_bytes());
    }

    #[test]
    fn row_round_trip() {
        let row: Row = vec![Value::U64(7), Value::str("HOUSEHOLD"), Value::U64(42)];
        assert_eq!(decode_row(&encode_row(&row)), Some(row));
        assert_eq!(decode_row(&encode_row(&vec![])), Some(vec![]));
        assert_eq!(decode_row(&[1]), None, "truncated");
    }

    #[test]
    fn schema_validation() {
        let s = Schema::new(&[("id", ColumnType::U64), ("city", ColumnType::Str)]);
        assert!(s.validate(&vec![Value::U64(1), Value::str("Lyon")]));
        assert!(!s.validate(&vec![Value::str("Lyon"), Value::U64(1)]));
        assert!(!s.validate(&vec![Value::U64(1)]));
        assert_eq!(s.column_index("city"), Some(1));
        assert_eq!(s.column_index("nope"), None);
        assert_eq!(s.column_name(0), "id");
    }

    #[test]
    fn prop_row_round_trips() {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 ";
        for case in 0..256u64 {
            let mut rng = StdRng::seed_from_u64(0x7A10 + case);
            let mut row: Row = (0..rng.gen_range(0usize..6))
                .map(|_| Value::U64(rng.gen()))
                .collect();
            for _ in 0..rng.gen_range(0usize..6) {
                let s: String = (0..rng.gen_range(0usize..21))
                    .map(|_| ALPHABET[rng.gen_range(0usize..ALPHABET.len())] as char)
                    .collect();
                row.push(Value::Str(s));
            }
            assert_eq!(decode_row(&encode_row(&row)), Some(row), "case {case}");
        }
    }

    #[test]
    fn prop_u64_key_order() {
        let mut rng = StdRng::seed_from_u64(0x7A20);
        for _ in 0..256 {
            let (a, b): (u64, u64) = (rng.gen(), rng.gen());
            let ka = Value::U64(a).to_key_bytes();
            let kb = Value::U64(b).to_key_bytes();
            assert_eq!(ka.cmp(&kb), a.cmp(&b));
        }
    }
}
