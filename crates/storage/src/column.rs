//! Columnar page segments with lightweight compression.
//!
//! A [`ColumnSegment`] is one heap page transposed into per-column
//! vectors: column `j` of the segment holds the `j`-th value of every
//! live tuple on the page, in slot order. The batch executor scans these
//! instead of row-major `Vec<Tuple>` — a filter touches only the
//! predicate's column, a projection is `Arc` pointer selection, and a
//! hash join gathers keys from the key column alone.
//!
//! Since PR 7 the segment is an *encoded* format. At decode time each
//! column is sniffed and stored as one of three layouts
//! ([`EncodedCol`]):
//!
//! - **Dictionary**: low-cardinality columns become `u32` codes into a
//!   per-column dictionary of distinct values. Predicates are evaluated
//!   once per dictionary entry and rows compare codes, never strings.
//! - **Run-length**: sorted/clustered columns become `(value, run
//!   start)` pairs; filters accept or reject whole runs.
//! - **Plain**: the uncompressed `Vec<Value>` fallback.
//!
//! Every segment also carries a per-column [`ZoneMap`] (min/max over
//! non-null values plus a null count) that the executor consults before
//! touching column data — a page whose zones exclude a predicate is
//! skipped whole.
//!
//! Decoded (`Vec<Value>`) columns are materialized *lazily*: filter
//! columns are evaluated in encoded form and only columns that survive
//! into an output batch ever inflate to values, memoized per column via
//! [`OnceLock`]. Encoding is grouped by **exact representation** (float
//! bit patterns, exact enum variant), never by `Value`'s cross-type
//! equality (`Int(3) == Float(3.0)`), so materialization reproduces the
//! page bit-for-bit and all executor modes stay identical to the
//! row-at-a-time oracle, encodings on or off.

use crate::error::StorageResult;
use crate::page::Page;
use crate::tuple::{Tuple, Value};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// One decoded column of a page segment, shared by reference between the
/// segment cache and the batches built over it.
pub type ColumnVec = Arc<Vec<Value>>;

/// Columns shorter than this are stored plain: the fixed overhead of a
/// dictionary or run index cannot pay for itself.
const MIN_ENCODE_ROWS: usize = 16;

/// Maximum dictionary size. Past this the column is not low-cardinality
/// enough for code-based filtering to win.
const DICT_MAX: usize = 256;

/// Approximate resident bytes of one `Value` in a `Vec<Value>` (enum
/// header; string heap bytes are added separately).
const VALUE_BYTES: usize = std::mem::size_of::<Value>();

/// Per-column min/max/null summary, computed once at page-decode time.
///
/// `min`/`max` are taken over **non-null** values under [`Value`]'s
/// total order — the same order every filter kernel uses — so a page
/// whose zone excludes a predicate provably contains no matching row.
/// `None` bounds mean the column has no non-null values.
#[derive(Debug, Clone, PartialEq)]
pub struct ZoneMap {
    /// Smallest non-null value on the page, if any.
    pub min: Option<Value>,
    /// Largest non-null value on the page, if any.
    pub max: Option<Value>,
    /// Number of NULLs on the page.
    pub null_count: u32,
}

impl ZoneMap {
    fn of(vals: &[Value]) -> ZoneMap {
        let mut min: Option<&Value> = None;
        let mut max: Option<&Value> = None;
        let mut null_count = 0u32;
        for v in vals {
            if v.is_null() {
                null_count += 1;
                continue;
            }
            min = Some(match min {
                Some(m) if m.cmp(v).is_le() => m,
                _ => v,
            });
            max = Some(match max {
                Some(m) if m.cmp(v).is_ge() => m,
                _ => v,
            });
        }
        ZoneMap { min: min.cloned(), max: max.cloned(), null_count }
    }
}

/// Which physical layout a column was encoded into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingKind {
    /// Uncompressed `Vec<Value>`.
    Plain,
    /// `u32` codes into a distinct-value dictionary.
    Dict,
    /// Run-length `(value, run start)` pairs.
    Rle,
}

impl EncodingKind {
    /// Stable lowercase label (metrics, logs).
    pub fn as_str(self) -> &'static str {
        match self {
            EncodingKind::Plain => "plain",
            EncodingKind::Dict => "dict",
            EncodingKind::Rle => "rle",
        }
    }
}

/// One column in its encoded (resident) form.
#[derive(Debug, Clone)]
pub enum EncodedCol {
    /// Uncompressed values.
    Plain(ColumnVec),
    /// Dictionary codes: row `i` holds `dict[codes[i]]`. The dictionary
    /// lists distinct values in first-occurrence order (deterministic).
    Dict {
        /// Per-row dictionary code.
        codes: Vec<u32>,
        /// Distinct values, indexed by code.
        dict: Arc<Vec<Value>>,
    },
    /// Run-length runs: run `j` covers rows `starts[j] ..
    /// starts[j+1]` (the last run ends at the segment's row count) and
    /// every row in it holds `values[j]`.
    Rle {
        /// One value per run.
        values: Vec<Value>,
        /// First row index of each run (strictly increasing, starts at 0).
        starts: Vec<u32>,
    },
}

/// True when two values have the *same representation* — stricter than
/// `Value::eq`, which compares `Int(3) == Float(3.0)` and `-0.0 == 0.0`.
/// Encoding groups by representation so decode is bit-exact.
fn same_repr(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

/// Hashable exact-representation key for dictionary building.
#[derive(Hash, PartialEq, Eq)]
enum ReprKey {
    Null,
    Int(i64),
    Float(u64),
    Str(String),
}

impl ReprKey {
    fn of(v: &Value) -> ReprKey {
        match v {
            Value::Null => ReprKey::Null,
            Value::Int(i) => ReprKey::Int(*i),
            Value::Float(f) => ReprKey::Float(f.to_bits()),
            Value::Str(s) => ReprKey::Str(s.clone()),
        }
    }
}

fn heap_bytes(v: &Value) -> usize {
    match v {
        Value::Str(s) => s.len(),
        _ => 0,
    }
}

fn values_bytes(vals: &[Value]) -> usize {
    vals.len() * VALUE_BYTES + vals.iter().map(heap_bytes).sum::<usize>()
}

impl EncodedCol {
    /// Sniff and encode one column: run-length when runs compress at
    /// least 4:1 (sorted/clustered data), else a dictionary when the
    /// column is low-cardinality, else plain.
    fn encode(vals: Vec<Value>) -> EncodedCol {
        let rows = vals.len();
        if rows < MIN_ENCODE_ROWS {
            return EncodedCol::Plain(Arc::new(vals));
        }
        let mut runs = 1usize;
        for w in vals.windows(2) {
            if !same_repr(&w[0], &w[1]) {
                runs += 1;
            }
        }
        if runs * 4 <= rows {
            let mut values = Vec::with_capacity(runs);
            let mut starts = Vec::with_capacity(runs);
            for (i, v) in vals.iter().enumerate() {
                if values.last().map(|p| same_repr(p, v)) != Some(true) {
                    values.push(v.clone());
                    starts.push(i as u32);
                }
            }
            return EncodedCol::Rle { values, starts };
        }
        // Dictionary attempt: bail as soon as cardinality exceeds the cap
        // or the column repeats too little to pay for the code array.
        let mut index: HashMap<ReprKey, u32> = HashMap::with_capacity(DICT_MAX + 1);
        let mut dict: Vec<Value> = Vec::new();
        let mut codes: Vec<u32> = Vec::with_capacity(rows);
        for v in &vals {
            let next = dict.len() as u32;
            let code = *index.entry(ReprKey::of(v)).or_insert_with(|| {
                dict.push(v.clone());
                next
            });
            codes.push(code);
            if dict.len() > DICT_MAX {
                return EncodedCol::Plain(Arc::new(vals));
            }
        }
        if dict.len() * 2 > rows {
            return EncodedCol::Plain(Arc::new(vals));
        }
        EncodedCol::Dict { codes, dict: Arc::new(dict) }
    }

    /// The layout this column was stored in.
    pub fn kind(&self) -> EncodingKind {
        match self {
            EncodedCol::Plain(_) => EncodingKind::Plain,
            EncodedCol::Dict { .. } => EncodingKind::Dict,
            EncodedCol::Rle { .. } => EncodingKind::Rle,
        }
    }

    /// Approximate resident bytes of the encoded form.
    pub fn bytes(&self) -> usize {
        match self {
            EncodedCol::Plain(vals) => values_bytes(vals),
            EncodedCol::Dict { codes, dict } => codes.len() * 4 + values_bytes(dict),
            EncodedCol::Rle { values, starts } => values_bytes(values) + starts.len() * 4,
        }
    }

    /// Inflate to a plain value vector (bit-exact with the source page).
    fn materialize(&self, rows: usize) -> ColumnVec {
        match self {
            EncodedCol::Plain(vals) => Arc::clone(vals),
            EncodedCol::Dict { codes, dict } => {
                Arc::new(codes.iter().map(|&c| dict[c as usize].clone()).collect())
            }
            EncodedCol::Rle { values, starts } => {
                let mut out = Vec::with_capacity(rows);
                for (j, v) in values.iter().enumerate() {
                    let end = starts.get(j + 1).map(|&s| s as usize).unwrap_or(rows);
                    out.resize(end, v.clone());
                }
                Arc::new(out)
            }
        }
    }
}

/// Index of the run covering `row` in an RLE `starts` array.
/// `starts` must be non-empty and `starts[0] == 0`.
pub fn rle_run_of(starts: &[u32], row: u32) -> usize {
    starts.partition_point(|&s| s <= row) - 1
}

/// One column slot: the encoded form plus its lazily materialized
/// plain twin.
#[derive(Debug)]
struct ColumnSlot {
    enc: EncodedCol,
    plain: OnceLock<ColumnVec>,
}

impl Clone for ColumnSlot {
    fn clone(&self) -> Self {
        let plain = OnceLock::new();
        if let Some(p) = self.plain.get() {
            let _ = plain.set(Arc::clone(p));
        }
        ColumnSlot { enc: self.enc.clone(), plain }
    }
}

/// A heap page decoded into (encoded) columnar form: `width` columns of
/// `rows` values each, in slot order, with per-column zone maps.
#[derive(Debug, Clone)]
pub struct ColumnSegment {
    cols: Vec<ColumnSlot>,
    zones: Arc<Vec<ZoneMap>>,
    rows: usize,
    encoded_bytes: usize,
    plain_bytes: usize,
}

impl ColumnSegment {
    /// Transpose a page's live tuples into encoded column vectors (the
    /// default: encodings on). All tuples on a page share the arity of
    /// the first (heap files are per-table); decoding fails on a page
    /// that violates this.
    pub fn decode_page(page: &Page) -> StorageResult<ColumnSegment> {
        Self::decode_page_with(page, true)
    }

    /// [`ColumnSegment::decode_page`] with encoding selection explicit:
    /// `encode = false` stores every column plain (the `SPECDB_ENCODING=0`
    /// comparison arm). Results are identical either way; only resident
    /// bytes and scan wall-clock differ.
    pub fn decode_page_with(page: &Page, encode: bool) -> StorageResult<ColumnSegment> {
        let mut cols: Vec<Vec<Value>> = Vec::new();
        let mut rows = 0usize;
        for (_, bytes) in page.iter() {
            if rows == 0 {
                let arity = Tuple::decode_each(bytes, |_, _| {})?;
                cols = (0..arity).map(|_| Vec::new()).collect();
                // Re-decode the first tuple into the freshly sized columns.
            }
            let arity = Tuple::decode_each(bytes, |col, v| {
                if let Some(c) = cols.get_mut(col) {
                    c.push(v);
                }
            })?;
            if arity != cols.len() {
                return Err(crate::error::StorageError::Corrupt(format!(
                    "page mixes tuple arities ({} vs {})",
                    arity,
                    cols.len()
                )));
            }
            rows += 1;
        }
        let zones: Vec<ZoneMap> = cols.iter().map(|c| ZoneMap::of(c)).collect();
        let mut plain_bytes = 0usize;
        let mut encoded_bytes = 0usize;
        let cols: Vec<ColumnSlot> = cols
            .into_iter()
            .map(|vals| {
                plain_bytes += values_bytes(&vals);
                let slot = if encode {
                    let enc = EncodedCol::encode(vals);
                    let plain = OnceLock::new();
                    if let EncodedCol::Plain(v) = &enc {
                        // Plain columns are their own materialization.
                        let _ = plain.set(Arc::clone(v));
                    }
                    ColumnSlot { enc, plain }
                } else {
                    let arc = Arc::new(vals);
                    let plain = OnceLock::new();
                    let _ = plain.set(Arc::clone(&arc));
                    ColumnSlot { enc: EncodedCol::Plain(arc), plain }
                };
                encoded_bytes += slot.enc.bytes();
                slot
            })
            .collect();
        Ok(ColumnSegment { cols, zones: Arc::new(zones), rows, encoded_bytes, plain_bytes })
    }

    /// Number of rows (live tuples of the source page).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Materialize every column, in schema order. Prefer
    /// [`ColumnSegment::col`] on a subset when a projection is known —
    /// that is what keeps filter-only columns encoded.
    pub fn cols(&self) -> Vec<ColumnVec> {
        (0..self.cols.len()).map(|i| Arc::clone(self.col(i))).collect()
    }

    /// One column, materialized on first access and memoized.
    pub fn col(&self, idx: usize) -> &ColumnVec {
        let slot = &self.cols[idx];
        slot.plain.get_or_init(|| slot.enc.materialize(self.rows))
    }

    /// One column in its encoded form (never materializes).
    pub fn encoded(&self, idx: usize) -> &EncodedCol {
        &self.cols[idx].enc
    }

    /// Per-column zone maps, in schema order.
    pub fn zones(&self) -> &[ZoneMap] {
        &self.zones
    }

    /// Shared handle to the zone maps (retained by the segment cache
    /// even after the segment itself is evicted).
    pub fn zones_arc(&self) -> Arc<Vec<ZoneMap>> {
        Arc::clone(&self.zones)
    }

    /// Approximate resident bytes of the encoded columns — the unit the
    /// segment cache budgets by.
    pub fn encoded_bytes(&self) -> usize {
        self.encoded_bytes
    }

    /// Approximate resident bytes the same columns would occupy fully
    /// decoded (the compression-ratio denominator).
    pub fn plain_bytes(&self) -> usize {
        self.plain_bytes
    }

    /// The encoding that covers the most columns (metrics attribution;
    /// ties prefer the compressed kinds).
    pub fn dominant_encoding(&self) -> EncodingKind {
        let mut counts = [0usize; 3];
        for slot in &self.cols {
            counts[match slot.enc.kind() {
                EncodingKind::Plain => 0,
                EncodingKind::Dict => 1,
                EncodingKind::Rle => 2,
            }] += 1;
        }
        if counts[1] >= counts[2] && counts[1] > 0 && counts[1] >= counts[0] {
            EncodingKind::Dict
        } else if counts[2] > 0 && counts[2] >= counts[0] {
            EncodingKind::Rle
        } else {
            EncodingKind::Plain
        }
    }

    /// Value at `(row, col)` (materializes the column).
    pub fn value(&self, row: usize, col: usize) -> &Value {
        &self.col(col)[row]
    }

    /// Gather one row back into a [`Tuple`] (materialization boundary).
    pub fn tuple(&self, row: usize) -> Tuple {
        Tuple::new((0..self.cols.len()).map(|c| self.col(c)[row].clone()).collect())
    }

    /// Gather every row back into row-major tuples.
    pub fn to_tuples(&self) -> Vec<Tuple> {
        (0..self.rows).map(|r| self.tuple(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page_of(tuples: &[Tuple]) -> Page {
        let mut p = Page::new();
        for t in tuples {
            p.insert(&t.encode()).unwrap().expect("fits");
        }
        p
    }

    #[test]
    fn decode_transposes_rows_into_columns() {
        let tuples: Vec<Tuple> = (0..5)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(i),
                    if i % 2 == 0 { Value::Null } else { Value::Float(i as f64 / 2.0) },
                    Value::Str(format!("r{i}")),
                ])
            })
            .collect();
        let seg = ColumnSegment::decode_page(&page_of(&tuples)).unwrap();
        assert_eq!((seg.rows(), seg.width()), (5, 3));
        assert_eq!(seg.col(0).as_slice(), &(0..5).map(Value::Int).collect::<Vec<_>>()[..]);
        assert_eq!(seg.value(2, 1), &Value::Null);
        assert_eq!(seg.tuple(3), tuples[3]);
        assert_eq!(seg.to_tuples(), tuples);
    }

    #[test]
    fn empty_page_decodes_empty() {
        let seg = ColumnSegment::decode_page(&Page::new()).unwrap();
        assert_eq!((seg.rows(), seg.width()), (0, 0));
        assert!(seg.to_tuples().is_empty());
    }

    #[test]
    fn mixed_arity_page_is_corrupt() {
        let mut p = Page::new();
        p.insert(&Tuple::new(vec![Value::Int(1)]).encode()).unwrap();
        p.insert(&Tuple::new(vec![Value::Int(1), Value::Int(2)]).encode()).unwrap();
        assert!(ColumnSegment::decode_page(&p).is_err());
    }

    #[test]
    fn low_cardinality_column_dictionary_encodes_and_round_trips() {
        let tuples: Vec<Tuple> = (0..200)
            .map(|i| Tuple::new(vec![Value::Str(format!("nation{}", i % 5)), Value::Int(i)]))
            .collect();
        let seg = ColumnSegment::decode_page(&page_of(&tuples)).unwrap();
        assert_eq!(seg.encoded(0).kind(), EncodingKind::Dict);
        if let EncodedCol::Dict { dict, .. } = seg.encoded(0) {
            assert_eq!(dict.len(), 5, "five distinct nations, first-occurrence order");
            assert_eq!(dict[0], Value::Str("nation0".into()));
        }
        // The id column is unique: must stay plain.
        assert_eq!(seg.encoded(1).kind(), EncodingKind::Plain);
        assert!(seg.encoded_bytes() < seg.plain_bytes(), "dictionary must compress");
        assert_eq!(seg.to_tuples(), tuples, "bit-exact round trip");
        assert_eq!(seg.dominant_encoding(), EncodingKind::Dict);
    }

    #[test]
    fn sorted_column_rle_encodes_and_round_trips() {
        let tuples: Vec<Tuple> = (0..256).map(|i| Tuple::new(vec![Value::Int(i / 64)])).collect();
        let seg = ColumnSegment::decode_page(&page_of(&tuples)).unwrap();
        assert_eq!(seg.encoded(0).kind(), EncodingKind::Rle);
        if let EncodedCol::Rle { values, starts } = seg.encoded(0) {
            assert_eq!(values.len(), 4);
            assert_eq!(starts, &[0, 64, 128, 192]);
            assert_eq!(rle_run_of(starts, 0), 0);
            assert_eq!(rle_run_of(starts, 63), 0);
            assert_eq!(rle_run_of(starts, 64), 1);
            assert_eq!(rle_run_of(starts, 255), 3);
        }
        assert!(seg.encoded_bytes() < seg.plain_bytes());
        assert_eq!(seg.to_tuples(), tuples);
    }

    #[test]
    fn cross_type_equal_values_never_conflate() {
        // Int(3) == Float(3.0) under Value::eq; encoding must keep the
        // exact variants or decode diverges from the row oracle.
        let mut vals = Vec::new();
        for _ in 0..50 {
            vals.push(Value::Int(3));
            vals.push(Value::Float(3.0));
        }
        let tuples: Vec<Tuple> = vals.iter().map(|v| Tuple::new(vec![v.clone()])).collect();
        let seg = ColumnSegment::decode_page(&page_of(&tuples)).unwrap();
        assert_eq!(seg.to_tuples(), tuples, "variants must survive encoding");
    }

    #[test]
    fn zone_maps_summarize_each_column() {
        let tuples: Vec<Tuple> = (0..100)
            .map(|i| {
                Tuple::new(vec![
                    Value::Int(10 + i),
                    if i % 4 == 0 { Value::Null } else { Value::Str(format!("s{i:03}")) },
                ])
            })
            .collect();
        let seg = ColumnSegment::decode_page(&page_of(&tuples)).unwrap();
        let z = &seg.zones()[0];
        assert_eq!((z.min.clone(), z.max.clone()), (Some(Value::Int(10)), Some(Value::Int(109))));
        assert_eq!(z.null_count, 0);
        let z = &seg.zones()[1];
        assert_eq!(z.null_count, 25);
        assert_eq!(z.min, Some(Value::Str("s001".into())));
    }

    #[test]
    fn encoding_off_stores_plain() {
        let tuples: Vec<Tuple> = (0..100).map(|i| Tuple::new(vec![Value::Int(i % 3)])).collect();
        let page = page_of(&tuples);
        let enc = ColumnSegment::decode_page_with(&page, true).unwrap();
        let plain = ColumnSegment::decode_page_with(&page, false).unwrap();
        assert_ne!(enc.encoded(0).kind(), EncodingKind::Plain);
        assert_eq!(plain.encoded(0).kind(), EncodingKind::Plain);
        assert_eq!(plain.encoded_bytes(), plain.plain_bytes());
        assert_eq!(enc.to_tuples(), plain.to_tuples());
        assert_eq!(plain.dominant_encoding(), EncodingKind::Plain);
        // Zone maps exist either way: page skipping works unencoded.
        assert_eq!(enc.zones(), plain.zones());
    }

    #[test]
    fn tiny_columns_stay_plain() {
        let tuples: Vec<Tuple> = (0..8).map(|_| Tuple::new(vec![Value::Int(7)])).collect();
        let seg = ColumnSegment::decode_page(&page_of(&tuples)).unwrap();
        assert_eq!(seg.encoded(0).kind(), EncodingKind::Plain);
    }
}
