//! Memory-access traces: the interchange format between the workload crate
//! and the cache layers. [`MemoryAccess`] is one record; [`AccessBatch`]
//! is the one in-memory trace, held column by column.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::iter::Zip;
use std::slice;
use std::str::FromStr;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::addr::Address;

/// Errors produced when parsing the text trace format.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseTraceError {
    /// A line did not have the expected field count.
    BadFieldCount {
        /// 1-based line number.
        line: usize,
        /// Number of whitespace-separated fields found.
        fields: usize,
    },
    /// The access kind letter was not `R`, `W`, or `I`.
    BadKind {
        /// 1-based line number.
        line: usize,
        /// The offending token.
        token: String,
    },
    /// A numeric field failed to parse.
    BadNumber {
        /// 1-based line number.
        line: usize,
        /// Which field (`"addr"`, `"width"`, `"value"`).
        field: &'static str,
        /// The offending token.
        token: String,
    },
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseTraceError::BadFieldCount { line, fields } => {
                write!(
                    f,
                    "line {line}: expected `KIND ADDR WIDTH [VALUE]`, got {fields} fields"
                )
            }
            ParseTraceError::BadKind { line, token } => {
                write!(
                    f,
                    "line {line}: access kind must be R, W or I, got `{token}`"
                )
            }
            ParseTraceError::BadNumber { line, field, token } => {
                write!(f, "line {line}: cannot parse {field} from `{token}`")
            }
        }
    }
}

impl Error for ParseTraceError {}

/// The kind of one demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessKind {
    /// A data load.
    Read,
    /// A data store.
    Write,
    /// An instruction fetch (routed to the I-cache by a hierarchy).
    InstrFetch,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("R"),
            AccessKind::Write => f.write_str("W"),
            AccessKind::InstrFetch => f.write_str("I"),
        }
    }
}

/// One demand access with its data payload.
///
/// Writes carry the stored value because the CNT-Cache energy model prices
/// the actual bits; reads carry no value (the simulator supplies it from
/// its own state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryAccess {
    /// The access kind.
    pub kind: AccessKind,
    /// Target byte address (naturally aligned to `width`).
    pub addr: Address,
    /// Access width in bytes (1, 2, 4 or 8).
    pub width: u8,
    /// For writes, the stored value (low `width * 8` bits significant).
    pub value: u64,
}

impl MemoryAccess {
    /// A data load.
    pub fn read(addr: Address, width: u8) -> Self {
        MemoryAccess {
            kind: AccessKind::Read,
            addr,
            width,
            value: 0,
        }
    }

    /// A data store of `value`.
    pub fn write(addr: Address, width: u8, value: u64) -> Self {
        MemoryAccess {
            kind: AccessKind::Write,
            addr,
            width,
            value,
        }
    }

    /// An instruction fetch (modeled as an 8-byte read).
    pub fn ifetch(addr: Address) -> Self {
        MemoryAccess {
            kind: AccessKind::InstrFetch,
            addr,
            width: 8,
            value: 0,
        }
    }

    /// `true` if this access writes.
    pub fn is_write(&self) -> bool {
        self.kind == AccessKind::Write
    }
}

impl fmt::Display for MemoryAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            AccessKind::Write => write!(f, "W{} {} = {:#x}", self.width, self.addr, self.value),
            k => write!(f, "{k}{} {}", self.width, self.addr),
        }
    }
}

/// An ordered sequence of accesses, held struct-of-arrays: kinds,
/// addresses, widths, and write values live in separate contiguous
/// buffers, one flat array per field.
///
/// This is the one in-memory trace. Workloads record into it, the `.ctr`
/// decoders append into a reused batch without allocating per record,
/// and every replay streams through its columns without the per-record
/// padding of a `Vec<MemoryAccess>` (18 B per record instead of 24).
/// Values are dense (reads hold `0`), so every column is indexed by the
/// same record number. Iteration rebuilds each [`MemoryAccess`] by value.
///
/// # Example
///
/// ```
/// use cnt_sim::trace::{AccessBatch, MemoryAccess};
/// use cnt_sim::Address;
///
/// let mut batch = AccessBatch::new();
/// batch.push(MemoryAccess::write(Address::new(0x40), 8, 7));
/// batch.push(MemoryAccess::read(Address::new(0x40), 8));
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.get(0), MemoryAccess::write(Address::new(0x40), 8, 7));
/// assert_eq!(batch.write_value(1), None);
/// assert!((batch.write_fraction() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessBatch {
    kinds: Vec<AccessKind>,
    addrs: Vec<u64>,
    widths: Vec<u8>,
    values: Vec<u64>,
}

impl AccessBatch {
    /// An empty batch.
    pub fn new() -> Self {
        AccessBatch::default()
    }

    /// An empty batch with room for `capacity` records in every column.
    pub fn with_capacity(capacity: usize) -> Self {
        AccessBatch {
            kinds: Vec::with_capacity(capacity),
            addrs: Vec::with_capacity(capacity),
            widths: Vec::with_capacity(capacity),
            values: Vec::with_capacity(capacity),
        }
    }

    /// A copy of `trace`. Kept only because the benchmark harness
    /// (`cntbench/src/paper.rs`) calls it.
    pub fn from_trace(trace: &AccessBatch) -> Self {
        trace.clone()
    }

    /// A copy of `self`. Kept only because the benchmark harness
    /// (`cntbench/src/write_heavy.rs`) calls it.
    pub fn to_trace(&self) -> AccessBatch {
        self.clone()
    }

    /// Records in the batch.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` if the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Drops all records, keeping the column buffers for reuse.
    pub fn clear(&mut self) {
        self.kinds.clear();
        self.addrs.clear();
        self.widths.clear();
        self.values.clear();
    }

    /// Reserves room for `additional` more records in every column.
    pub fn reserve(&mut self, additional: usize) {
        self.kinds.reserve(additional);
        self.addrs.reserve(additional);
        self.widths.reserve(additional);
        self.values.reserve(additional);
    }

    /// Appends one access.
    #[inline]
    pub fn push(&mut self, access: MemoryAccess) {
        self.push_parts(access.kind, access.addr, access.width, access.value);
    }

    /// Appends one access from its columns.
    #[inline]
    pub fn push_parts(&mut self, kind: AccessKind, addr: Address, width: u8, value: u64) {
        self.kinds.push(kind);
        self.addrs.push(addr.value());
        self.widths.push(width);
        self.values.push(value);
    }

    /// The kind column.
    pub fn kinds(&self) -> &[AccessKind] {
        &self.kinds
    }

    /// The address column (raw byte addresses).
    pub fn addrs(&self) -> &[u64] {
        &self.addrs
    }

    /// The width column.
    pub fn widths(&self) -> &[u8] {
        &self.widths
    }

    /// The value column (dense; reads hold `0`).
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Kind of record `i`.
    pub fn kind(&self, i: usize) -> AccessKind {
        self.kinds[i]
    }

    /// Address of record `i`.
    pub fn addr(&self, i: usize) -> Address {
        Address::new(self.addrs[i])
    }

    /// Width of record `i`.
    pub fn width(&self, i: usize) -> u8 {
        self.widths[i]
    }

    /// `Some(value)` if record `i` writes, `None` otherwise — the shape
    /// the demand path consumes directly.
    pub fn write_value(&self, i: usize) -> Option<u64> {
        if self.kinds[i] == AccessKind::Write {
            Some(self.values[i])
        } else {
            None
        }
    }

    /// Materializes record `i` (a cheap all-register construction).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> MemoryAccess {
        MemoryAccess {
            kind: self.kinds[i],
            addr: Address::new(self.addrs[i]),
            width: self.widths[i],
            value: self.values[i],
        }
    }

    /// Iterates the records in order, materializing each on the fly.
    pub fn iter(&self) -> Iter<'_> {
        Iter(
            self.kinds
                .iter()
                .zip(&self.addrs)
                .zip(&self.widths)
                .zip(&self.values),
        )
    }

    /// Fraction of accesses that are writes (`NaN` if empty).
    pub fn write_fraction(&self) -> f64 {
        let writes = self
            .kinds
            .iter()
            .filter(|&&k| k == AccessKind::Write)
            .count();
        writes as f64 / self.len() as f64
    }

    /// Number of distinct 64-byte-aligned blocks touched.
    pub fn footprint_blocks(&self) -> usize {
        let blocks: BTreeSet<u64> = self
            .addrs
            .iter()
            .map(|&a| Address::new(a).align_down(64).value())
            .collect();
        blocks.len()
    }

    /// Serializes to the line-oriented text format:
    /// `KIND ADDR WIDTH [VALUE]` per access, hex addresses/values,
    /// `#`-prefixed comment lines. The Dinero-style interchange format
    /// for feeding external traces into the simulator.
    ///
    /// # Example
    ///
    /// ```
    /// use cnt_sim::trace::{AccessBatch, MemoryAccess};
    /// use cnt_sim::Address;
    ///
    /// let mut trace = AccessBatch::new();
    /// trace.push(MemoryAccess::write(Address::new(0x40), 8, 0xFF));
    /// trace.push(MemoryAccess::read(Address::new(0x40), 4));
    /// let text = trace.to_text();
    /// let back: AccessBatch = text.parse()?;
    /// assert_eq!(back, trace);
    /// # Ok::<(), cnt_sim::trace::ParseTraceError>(())
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.len() * 24);
        out.push_str("# KIND ADDR WIDTH [VALUE]\n");
        for a in self {
            match a.kind {
                AccessKind::Write => {
                    out.push_str(&format!("W {:#x} {} {:#x}\n", a.addr, a.width, a.value));
                }
                AccessKind::Read => {
                    out.push_str(&format!("R {:#x} {}\n", a.addr, a.width));
                }
                AccessKind::InstrFetch => {
                    out.push_str(&format!("I {:#x} {}\n", a.addr, a.width));
                }
            }
        }
        out
    }
}

type Columns<'a> = Zip<
    Zip<Zip<slice::Iter<'a, AccessKind>, slice::Iter<'a, u64>>, slice::Iter<'a, u8>>,
    slice::Iter<'a, u64>,
>;

/// The by-value record iterator of an [`AccessBatch`]: the four column
/// slices walked in lockstep, with no per-record bounds checks.
#[derive(Debug, Clone)]
pub struct Iter<'a>(Columns<'a>);

impl Iterator for Iter<'_> {
    type Item = MemoryAccess;

    #[inline]
    fn next(&mut self) -> Option<MemoryAccess> {
        let (((&kind, &addr), &width), &value) = self.0.next()?;
        Some(MemoryAccess {
            kind,
            addr: Address::new(addr),
            width,
            value,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl<'a> IntoIterator for &'a AccessBatch {
    type Item = MemoryAccess;
    type IntoIter = Iter<'a>;
    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<MemoryAccess> for AccessBatch {
    fn from_iter<I: IntoIterator<Item = MemoryAccess>>(iter: I) -> Self {
        let mut batch = AccessBatch::new();
        batch.extend(iter);
        batch
    }
}

impl Extend<MemoryAccess> for AccessBatch {
    fn extend<I: IntoIterator<Item = MemoryAccess>>(&mut self, iter: I) {
        let iter = iter.into_iter();
        self.reserve(iter.size_hint().0);
        for access in iter {
            self.push(access);
        }
    }
}

/// The JSON form is `{"accesses":[…]}`, one object per record.
impl Serialize for AccessBatch {
    fn to_value(&self) -> Value {
        let accesses = self.iter().map(|a| a.to_value()).collect();
        Value::Map(vec![("accesses".to_string(), Value::Seq(accesses))])
    }
}

impl Deserialize for AccessBatch {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let accesses = serde::struct_field(v, "accesses", "AccessBatch")?;
        Ok(Vec::<MemoryAccess>::from_value(accesses)?
            .into_iter()
            .collect())
    }
}

fn parse_u64(token: &str, line: usize, field: &'static str) -> Result<u64, ParseTraceError> {
    let digits = token
        .strip_prefix("0x")
        .or_else(|| token.strip_prefix("0X"));
    let result = match digits {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => token.parse(),
    };
    result.map_err(|_| ParseTraceError::BadNumber {
        line,
        field,
        token: token.to_string(),
    })
}

impl FromStr for AccessBatch {
    type Err = ParseTraceError;

    /// Parses the text format produced by [`AccessBatch::to_text`]: one
    /// access per line, blank lines and `#` comments ignored.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut trace = AccessBatch::new();
        for (index, raw) in s.lines().enumerate() {
            let line = index + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let fields: Vec<&str> = content.split_whitespace().collect();
            if !(2..=4).contains(&fields.len()) {
                return Err(ParseTraceError::BadFieldCount {
                    line,
                    fields: fields.len(),
                });
            }
            let addr = Address::new(parse_u64(fields[1], line, "addr")?);
            let width = if fields.len() >= 3 {
                parse_u64(fields[2], line, "width")? as u8
            } else {
                8
            };
            match fields[0] {
                "R" | "r" => trace.push(MemoryAccess::read(addr, width)),
                "I" | "i" => trace.push_parts(AccessKind::InstrFetch, addr, width, 0),
                "W" | "w" => {
                    let value = if fields.len() == 4 {
                        parse_u64(fields[3], line, "value")?
                    } else {
                        0
                    };
                    trace.push(MemoryAccess::write(addr, width, value));
                }
                other => {
                    return Err(ParseTraceError::BadKind {
                        line,
                        token: other.to_string(),
                    })
                }
            }
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AccessBatch {
        [
            MemoryAccess::read(Address::new(0x100), 8),
            MemoryAccess::write(Address::new(0x108), 4, 0xAB),
            MemoryAccess::ifetch(Address::new(0x40)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn constructors_set_kind() {
        let r = MemoryAccess::read(Address::new(8), 4);
        assert_eq!(r.kind, AccessKind::Read);
        assert!(!r.is_write());
        let w = MemoryAccess::write(Address::new(8), 4, 9);
        assert!(w.is_write());
        assert_eq!(w.value, 9);
        let i = MemoryAccess::ifetch(Address::new(0x40));
        assert_eq!(i.kind, AccessKind::InstrFetch);
        assert_eq!(i.width, 8);
    }

    #[test]
    fn trace_metrics() {
        let trace: AccessBatch = [
            MemoryAccess::read(Address::new(0), 8),
            MemoryAccess::write(Address::new(64), 8, 1),
            MemoryAccess::read(Address::new(65 * 64), 8),
            MemoryAccess::read(Address::new(64 + 8), 8),
        ]
        .into_iter()
        .collect();
        assert_eq!(trace.len(), 4);
        assert!((trace.write_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(trace.footprint_blocks(), 3);
    }

    #[test]
    fn extend_and_iterate() {
        let mut trace = AccessBatch::new();
        assert!(trace.is_empty());
        trace.extend([MemoryAccess::read(Address::new(0), 8)]);
        trace.extend(sample().iter());
        assert_eq!(trace.iter().len(), 4);
        assert_eq!((&trace).into_iter().count(), 4);
        assert_eq!(trace.iter().skip(1).collect::<AccessBatch>(), sample());
    }

    #[test]
    fn display_formats() {
        let w = MemoryAccess::write(Address::new(0x10), 8, 0xFF);
        assert_eq!(w.to_string(), "W8 0x10 = 0xff");
        let r = MemoryAccess::read(Address::new(0x20), 4);
        assert_eq!(r.to_string(), "R4 0x20");
    }

    #[test]
    fn text_format_round_trips() {
        let mut trace = sample();
        trace.push(MemoryAccess::write(Address::new(0x50), 1, 0xFF));
        let text = trace.to_text();
        let back: AccessBatch = text.parse().expect("round trip");
        assert_eq!(back, trace);
    }

    #[test]
    fn text_parser_accepts_comments_and_flexible_forms() {
        let text = "# header\n\nR 0x100 8 # trailing comment\nw 256 4 42\nI 0x40\n";
        let trace: AccessBatch = text.parse().expect("valid");
        assert_eq!(trace.len(), 3);
        assert_eq!(trace.addr(0), Address::new(0x100));
        assert_eq!(trace.write_value(1), Some(42));
        assert_eq!(trace.addr(1), Address::new(256));
        assert_eq!(trace.width(2), 8, "width defaults to 8");
    }

    #[test]
    fn text_parser_reports_errors_with_line_numbers() {
        let err = "R 0x10 8\nX 0x20 8\n".parse::<AccessBatch>().unwrap_err();
        assert!(
            matches!(err, ParseTraceError::BadKind { line: 2, .. }),
            "{err}"
        );
        let err = "R zzz 8\n".parse::<AccessBatch>().unwrap_err();
        assert!(matches!(
            err,
            ParseTraceError::BadNumber {
                line: 1,
                field: "addr",
                ..
            }
        ));
        let err = "R\n".parse::<AccessBatch>().unwrap_err();
        assert!(matches!(
            err,
            ParseTraceError::BadFieldCount { line: 1, fields: 1 }
        ));
        let err = "W 0x10 8 1 extra\n".parse::<AccessBatch>().unwrap_err();
        assert!(matches!(err, ParseTraceError::BadFieldCount { .. }));
    }

    #[test]
    fn batch_round_trips_and_exposes_columns() {
        let records = [
            MemoryAccess::read(Address::new(0x100), 8),
            MemoryAccess::write(Address::new(0x108), 4, 0xAB),
            MemoryAccess::ifetch(Address::new(0x40)),
        ];
        let batch = sample();
        assert_eq!(batch.len(), 3);
        assert!(!batch.is_empty());
        for (i, access) in records.iter().enumerate() {
            assert_eq!(batch.get(i), *access);
            assert_eq!(batch.kind(i), access.kind);
            assert_eq!(batch.addr(i), access.addr);
            assert_eq!(batch.width(i), access.width);
        }
        assert_eq!(batch.write_value(0), None);
        assert_eq!(batch.write_value(1), Some(0xAB));
        assert_eq!(batch.write_value(2), None);
        assert_eq!(batch.addrs(), &[0x100, 0x108, 0x40]);
        assert_eq!(batch.widths(), &[8, 4, 8]);
        assert_eq!(batch.values(), &[0, 0xAB, 0]);
        assert_eq!(batch.kinds().len(), 3);
        assert_eq!(batch.iter().collect::<Vec<_>>(), records);
        assert_eq!(AccessBatch::from_trace(&batch), batch);
        assert_eq!(batch.to_trace(), batch);
    }

    #[test]
    fn batch_clear_keeps_capacity() {
        let mut batch = AccessBatch::with_capacity(16);
        batch.reserve(8);
        batch.push(MemoryAccess::read(Address::new(0), 8));
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(AccessBatch::new().len(), 0);
    }

    #[test]
    fn serde_round_trip() {
        let trace = sample();
        let json = serde_json::to_string(&trace).expect("serialize");
        assert_eq!(
            json,
            concat!(
                r#"{"accesses":[{"kind":"Read","addr":256,"width":8,"value":0},"#,
                r#"{"kind":"Write","addr":264,"width":4,"value":171},"#,
                r#"{"kind":"InstrFetch","addr":64,"width":8,"value":0}]}"#
            ),
            "the JSON trace layout is an interchange format"
        );
        let back: AccessBatch = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(trace, back);
    }
}
