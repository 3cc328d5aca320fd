//! Checksummed, versioned epoch snapshots: dataset + index + layout
//! plan + epoch metadata in one self-validating byte buffer.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset 0   u32  magic  "ANSF"
//! offset 4   u16  format version (currently 1)
//! offset 6   u16  reserved (0)
//! offset 8   u64  total snapshot length, checksum included
//! offset 16  ...  sections (dataset, backend, mutation state, layout,
//!                 epoch metadata)
//! tail       u64  FNV-1a checksum over everything before it
//! ```
//!
//! The explicit length makes torn writes (a crash mid-`write`) a
//! *typed* failure — [`SnapshotError::Torn`] — distinct from bit rot
//! ([`SnapshotError::ChecksumMismatch`]), and [`load_with_fallback`]
//! turns both into recovery-on-load from the previous epoch's snapshot.
//! The `ansmet-faults` snapshot injector (`flip_byte`, `torn_tail`)
//! exercises exactly these paths in tests.
//!
//! Restore is bit-exact: the dataset is rebuilt from raw storage words
//! ([`Dataset::from_raw`]), the index from its structural parts, and the
//! streaming level RNG is replayed to its saved position — searches and
//! subsequent inserts on a restored index are byte-identical to the
//! original's.
//!
//! A checksum proves integrity, not trust: anyone can recompute it. So
//! [`load`] checks every count against the bytes left and validates
//! every field before it allocates or calls an asserting constructor; a
//! forged buffer is a typed error, never an abort, a panic or a stall.
//! DESIGN.md §12.5 lists the checks.
//!
//! Format v1 reserves a backend tag and an IVF drift-list count. The
//! writer emits 0 for both, which keeps v1 images byte-compatible, and
//! the reader rejects any other value.

use ansmet_core::{FetchSchedule, PrefixSpec};
use ansmet_index::{Hnsw, HnswParams};
use ansmet_ndp::ReplicaSet;
use ansmet_obs::fingerprint64;
use ansmet_vecdata::{Dataset, ElemType, Metric};

use crate::mutable::MutableIndex;
use crate::revalidate::LayoutArtifacts;

const MAGIC: u32 = u32::from_le_bytes(*b"ANSF");
const VERSION: u16 = 1;
const HEADER_LEN: usize = 16;
const CHECKSUM_LEN: usize = 8;
/// Backend tag of the HNSW graph, the only backend this build reads.
const HNSW_BACKEND: u8 = 0;

/// Why a snapshot failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ends before the named section is complete.
    Truncated {
        /// Which part of the format was being read.
        section: &'static str,
    },
    /// The first four bytes are not the snapshot magic.
    BadMagic {
        /// The bytes found instead.
        found: u32,
    },
    /// A format version this build cannot read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// Torn write: the header promises more bytes than are present.
    Torn {
        /// Length the header promises.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The trailing checksum disagrees with the content.
    ChecksumMismatch {
        /// Checksum stored in the snapshot.
        expected: u64,
        /// Checksum recomputed over the content.
        actual: u64,
    },
    /// Structurally invalid content (bad enum code, shape mismatch).
    Malformed {
        /// What was wrong.
        what: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated { section } => {
                write!(f, "snapshot truncated while reading {section}")
            }
            SnapshotError::BadMagic { found } => {
                write!(f, "not a snapshot: bad magic {found:#010x}")
            }
            SnapshotError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (this build reads {VERSION})"
                )
            }
            SnapshotError::Torn { expected, actual } => {
                write!(
                    f,
                    "torn snapshot: header promises {expected} bytes, found {actual}"
                )
            }
            SnapshotError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "snapshot checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
                )
            }
            SnapshotError::Malformed { what } => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Epoch bookkeeping carried alongside the index in a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochMeta {
    /// Epochs completed when the snapshot was taken.
    pub epoch: u64,
    /// Serving-clock cycle of the last completed epoch.
    pub last_epoch_cycle: u64,
}

/// A fully restored snapshot.
#[derive(Debug)]
pub struct Snapshot {
    /// The restored mutable index (dataset, graph, tombstones, RNG).
    pub index: MutableIndex,
    /// The restored layout plan.
    pub layout: LayoutArtifacts,
    /// Epoch bookkeeping.
    pub meta: EpochMeta,
}

/// Serialize `index` + `layout` + `meta` into one checksummed buffer.
///
/// # Panics
///
/// Panics if the index holds more than `u32::MAX` vectors (ids are
/// stored as `u32`).
pub fn save(index: &MutableIndex, layout: &LayoutArtifacts, meta: &EpochMeta) -> Vec<u8> {
    assert!(
        index.len() < u32::MAX as usize,
        "snapshot ids are stored as u32"
    );
    let mut w = Writer::new();
    write_dataset(&mut w, index.data());
    w.u8(HNSW_BACKEND);
    write_hnsw(&mut w, index.hnsw());
    w.bools(&index.tombstones);
    w.bools(&index.purged);
    w.bools(&index.conservative);
    w.u64(index.generation);
    w.u64(index.level_seed);
    // Levels drawn: one per insert.
    w.u64(index.inserts);
    w.u64(index.inserts);
    w.u64(index.deletes);
    // Drift lists: an IVF-only section, always empty.
    w.u32(0);
    write_layout(&mut w, layout);
    w.u64(meta.epoch);
    w.u64(meta.last_epoch_cycle);
    w.finish()
}

/// Validate and parse one snapshot buffer.
pub fn load(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    if bytes.len() < HEADER_LEN {
        return Err(SnapshotError::Truncated { section: "header" });
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("sliced 4 bytes"));
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic { found: magic });
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("sliced 2 bytes"));
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let total = u64::from_le_bytes(bytes[8..16].try_into().expect("sliced 8 bytes"));
    if (bytes.len() as u64) < total {
        return Err(SnapshotError::Torn {
            expected: total,
            actual: bytes.len() as u64,
        });
    }
    if (total as usize) < HEADER_LEN + CHECKSUM_LEN {
        return malformed(format!("impossible total length {total}"));
    }
    let total = total as usize;
    let body_end = total - CHECKSUM_LEN;
    let stored = u64::from_le_bytes(bytes[body_end..total].try_into().expect("sliced 8 bytes"));
    let computed = fingerprint64(&bytes[..body_end]);
    if stored != computed {
        return Err(SnapshotError::ChecksumMismatch {
            expected: stored,
            actual: computed,
        });
    }
    let mut r = Reader {
        buf: &bytes[HEADER_LEN..body_end],
        pos: 0,
    };
    let data = read_dataset(&mut r)?;
    let n = data.len();
    let backend = r.u8("backend tag")?;
    if backend != HNSW_BACKEND {
        return malformed(format!("unknown backend tag {backend}"));
    }
    let hnsw = read_hnsw(&mut r, &data)?;
    let tombstones = r.bools(n, "tombstones")?;
    let purged = r.bools(n, "purge flags")?;
    let conservative = r.bools(n, "conservative flags")?;
    if tombstones.iter().all(|&t| t) {
        return malformed("every vector is tombstoned".into());
    }
    let generation = r.u64("generation")?;
    let level_seed = r.u64("level seed")?;
    let levels_drawn = r.u64("levels drawn")?;
    let inserts = r.u64("insert count")?;
    let deletes = r.u64("delete count")?;
    if levels_drawn != inserts {
        return malformed(format!("{levels_drawn} levels drawn for {inserts} inserts"));
    }
    if inserts > n as u64 {
        return malformed(format!("{inserts} inserts into {n} vectors"));
    }
    let drift_lists = r.u32("drift count")?;
    if drift_lists != 0 {
        return malformed(format!("{drift_lists} IVF drift lists on an HNSW index"));
    }
    let layout = read_layout(&mut r, &data)?;
    let meta = EpochMeta {
        epoch: r.u64("epoch count")?,
        last_epoch_cycle: r.u64("last epoch cycle")?,
    };
    if r.pos != r.buf.len() {
        return malformed(format!(
            "{} trailing bytes after the last section",
            r.buf.len() - r.pos
        ));
    }
    let index = MutableIndex::restore(
        data,
        hnsw,
        tombstones,
        purged,
        conservative,
        generation,
        level_seed,
        inserts,
        deletes,
    );
    Ok(Snapshot {
        index,
        layout,
        meta,
    })
}

fn malformed<T>(what: String) -> Result<T, SnapshotError> {
    Err(SnapshotError::Malformed { what })
}

/// Load `primary`, recovering from `fallback` (the previous epoch's
/// snapshot) when the primary is torn or corrupt. Returns the snapshot
/// and whether the fallback was used. When both fail, the *primary*'s
/// error is returned.
pub fn load_with_fallback(
    primary: &[u8],
    fallback: &[u8],
) -> Result<(Snapshot, bool), SnapshotError> {
    match load(primary) {
        Ok(s) => Ok((s, false)),
        Err(primary_err) => match load(fallback) {
            Ok(s) => Ok((s, true)),
            Err(_) => Err(primary_err),
        },
    }
}

// ---- element serializers ------------------------------------------------

fn dtype_code(dtype: ElemType) -> u8 {
    match dtype {
        ElemType::U8 => 0,
        ElemType::I8 => 1,
        ElemType::F32 => 2,
        ElemType::F16 => 3,
        ElemType::Bf16 => 4,
    }
}

fn dtype_from(code: u8) -> Result<ElemType, SnapshotError> {
    Ok(match code {
        0 => ElemType::U8,
        1 => ElemType::I8,
        2 => ElemType::F32,
        3 => ElemType::F16,
        4 => ElemType::Bf16,
        other => return malformed(format!("unknown dtype code {other}")),
    })
}

fn metric_code(metric: Metric) -> u8 {
    match metric {
        Metric::L2 => 0,
        Metric::Ip => 1,
        // Cosine folds to IP before a dataset is ever constructed.
        Metric::Cosine => unreachable!("datasets store the folded search metric"),
    }
}

fn metric_from(code: u8) -> Result<Metric, SnapshotError> {
    Ok(match code {
        0 => Metric::L2,
        1 => Metric::Ip,
        other => return malformed(format!("unknown metric code {other}")),
    })
}

fn write_dataset(w: &mut Writer, data: &Dataset) {
    w.str(data.name());
    w.u8(dtype_code(data.dtype()));
    w.u8(metric_code(data.metric()));
    w.u32(data.dim() as u32);
    w.u32(data.len() as u32);
    for i in 0..data.len() {
        for &word in data.raw_vector(i) {
            w.u32(word);
        }
    }
}

fn read_dataset(r: &mut Reader) -> Result<Dataset, SnapshotError> {
    let name = r.str("dataset name")?;
    let dtype = dtype_from(r.u8("dataset dtype")?)?;
    let metric = metric_from(r.u8("dataset metric")?)?;
    let dim = r.u32("dataset dim")? as usize;
    if dim == 0 {
        return malformed("zero-dimensional dataset".into());
    }
    let n = r.count("dataset length", dim * 4)?;
    if n == 0 {
        return malformed("empty dataset".into());
    }
    let raw = r.words(n * dim, "dataset raw words")?;
    let bits = dtype.bits();
    if let Some(&word) = raw.iter().find(|&&w| bits < 32 && w >> bits != 0) {
        return malformed(format!("raw word {word:#x} wider than {dtype:?}"));
    }
    if let Some(&word) = raw.iter().find(|&&w| !dtype.decode(w).is_finite()) {
        return malformed(format!("raw word {word:#x} is not a finite {dtype:?}"));
    }
    Ok(Dataset::from_raw(name, dtype, metric, dim, raw))
}

fn write_hnsw(w: &mut Writer, h: &Hnsw) {
    let p = h.params();
    w.u32(p.m as u32);
    w.u32(p.m_max0 as u32);
    w.u32(p.ef_construction as u32);
    w.u64(p.seed);
    match p.level_mult {
        Some(m) => {
            w.u8(1);
            w.f64(m);
        }
        None => w.u8(0),
    }
    w.u32(h.entry_point() as u32);
    w.u32(h.layer_count() as u32);
    w.u32s(h.levels().iter().map(|&level| level as u32));
    for layer in 0..h.layer_count() {
        for node in 0..h.len() {
            w.u32s(h.neighbors(layer, node).iter().map(|l| l.id() as u32));
        }
    }
}

/// Read the HNSW section over `data`.
fn read_hnsw(r: &mut Reader, data: &Dataset) -> Result<Hnsw, SnapshotError> {
    let n = data.len();
    let m = r.u32("hnsw m")? as usize;
    let m_max0 = r.u32("hnsw m_max0")? as usize;
    let ef_construction = r.u32("hnsw ef_construction")? as usize;
    let seed = r.u64("hnsw seed")?;
    let level_mult = if r.u8("hnsw level_mult flag")? != 0 {
        Some(r.f64("hnsw level_mult")?)
    } else {
        None
    };
    let params = HnswParams {
        m,
        m_max0,
        ef_construction,
        seed,
        level_mult,
    };
    // A forged multiplier would make the next insert allocate layers
    // without bound, and a zero degree or beam width would make it panic.
    if let Err(e) = params.validate() {
        return malformed(e);
    }
    let entry = r.u32("hnsw entry")? as usize;
    let layers = r.u32("hnsw layer count")? as usize;
    let levels = r.u32s("hnsw levels")?;
    if levels.len() != n {
        return malformed(format!("hnsw of {} nodes over {n} vectors", levels.len()));
    }
    if entry >= n || layers == 0 {
        return malformed("hnsw entry/layer shape invalid".into());
    }
    if let Some(level) = levels.iter().find(|&&level| level as usize >= layers) {
        return malformed(format!("hnsw level {level} beyond {layers} layers"));
    }
    // Every node of every layer stores at least its degree word.
    r.fits(layers.saturating_mul(n), 4, "hnsw degree")?;
    let mut links = Vec::with_capacity(layers);
    for _ in 0..layers {
        let mut layer = Vec::with_capacity(n);
        for _ in 0..n {
            let deg = r.count("hnsw degree", 4)?;
            let mut nbs = Vec::with_capacity(deg);
            for _ in 0..deg {
                let nb = r.u32("hnsw link")? as usize;
                if nb >= n {
                    return malformed(format!("hnsw link {nb} beyond {n} nodes"));
                }
                nbs.push(nb);
            }
            layer.push(nbs);
        }
        links.push(layer);
    }
    let levels = levels.into_iter().map(|level| level as usize).collect();
    Ok(Hnsw::from_parts(data, links, levels, entry, params))
}

fn write_layout(w: &mut Writer, layout: &LayoutArtifacts) {
    w.u8(dtype_code(layout.schedule.dtype()));
    w.u32(layout.schedule.prefix_len());
    w.u32s(layout.schedule.steps().iter().copied());
    w.u8(dtype_code(layout.prefix.dtype()));
    w.u32(layout.prefix.len());
    w.u32s(layout.prefix.dim_prefixes().iter().copied());
    let replicas = layout.replicas.sorted_ids();
    w.u32s(replicas.into_iter().map(|id| id as u32));
    w.f64(layout.outlier_budget_frac);
}

/// Read the layout section, validated against the restored `data`.
fn read_layout(r: &mut Reader, data: &Dataset) -> Result<LayoutArtifacts, SnapshotError> {
    let dtype = data.dtype();
    let bits = dtype.bits();
    let sched_dtype = dtype_from(r.u8("schedule dtype")?)?;
    let prefix_len = r.u32("schedule prefix length")?;
    let steps = r.u32s("schedule steps")?;
    let prefix_dtype = dtype_from(r.u8("prefix dtype")?)?;
    let plen = r.u32("prefix length")?;
    let dim_prefixes = r.u32s("prefix values")?;
    if sched_dtype != dtype || prefix_dtype != dtype {
        return malformed(format!(
            "layout for {sched_dtype:?}/{prefix_dtype:?} over a {dtype:?} dataset"
        ));
    }
    if let Some(bad) = steps.iter().find(|s| !(1..=32).contains(*s)) {
        return malformed(format!("schedule step of {bad} bits"));
    }
    let step_bits: u64 = steps.iter().map(|&s| u64::from(s)).sum();
    if step_bits + u64::from(prefix_len) != u64::from(bits) {
        return malformed(format!(
            "schedule steps ({step_bits}) + prefix ({prefix_len}) != {bits}-bit elements"
        ));
    }
    if plen != prefix_len {
        return malformed(format!(
            "prefix length {plen} disagrees with the schedule's {prefix_len}"
        ));
    }
    if plen >= bits {
        return malformed(format!("{plen}-bit prefix of a {bits}-bit element"));
    }
    if dim_prefixes.len() != data.dim() {
        return malformed(format!(
            "{} prefixes for {} dimensions",
            dim_prefixes.len(),
            data.dim()
        ));
    }
    if plen > 0 && dim_prefixes.iter().any(|&p| p >> plen != 0) {
        return malformed(format!("prefix value wider than {plen} bits"));
    }
    let schedule = FetchSchedule::from_steps(sched_dtype, prefix_len, steps);
    let prefix = PrefixSpec::from_parts(prefix_dtype, plen, dim_prefixes);
    let replicas = r.u32s("replica ids")?;
    if let Some(id) = replicas.iter().find(|&&id| id as usize >= data.len()) {
        return malformed(format!("replica id {id} beyond {} vectors", data.len()));
    }
    let outlier_budget_frac = r.f64("outlier budget")?;
    if !(0.0..=1.0).contains(&outlier_budget_frac) {
        return malformed(format!("outlier budget {outlier_budget_frac}"));
    }
    Ok(LayoutArtifacts {
        schedule,
        prefix,
        replicas: ReplicaSet::new(replicas.into_iter().map(|id| id as usize)),
        outlier_budget_frac,
    })
}

// ---- byte-level writer/reader -------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes()); // total length, patched in finish()
        Writer { buf }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A `u32` count, then the words.
    fn u32s(&mut self, words: impl ExactSizeIterator<Item = u32>) {
        self.u32(words.len() as u32);
        words.for_each(|word| self.u32(word));
    }

    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn bools(&mut self, flags: &[bool]) {
        self.u32(flags.len() as u32);
        self.buf.extend(flags.iter().map(|&b| b as u8));
    }

    fn finish(mut self) -> Vec<u8> {
        let total = (self.buf.len() + CHECKSUM_LEN) as u64;
        self.buf[8..16].copy_from_slice(&total.to_le_bytes());
        let checksum = fingerprint64(&self.buf);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
        self.buf
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, section: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.pos + n > self.buf.len() {
            return Err(SnapshotError::Truncated { section });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, section: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, section)?[0])
    }

    fn u32(&mut self, section: &'static str) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4, section)?.try_into().expect("sliced 4 bytes"),
        ))
    }

    fn u64(&mut self, section: &'static str) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8, section)?.try_into().expect("sliced 8 bytes"),
        ))
    }

    fn f64(&mut self, section: &'static str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64(section)?))
    }

    fn str(&mut self, section: &'static str) -> Result<String, SnapshotError> {
        let len = self.u32(section)? as usize;
        let bytes = self.take(len, section)?;
        String::from_utf8(bytes.to_vec()).or_else(|_| malformed(format!("non-UTF-8 {section}")))
    }

    /// Fail unless `n` elements of `elem_bytes` each fit in the bytes
    /// left, so a forged count never drives an allocation.
    fn fits(
        &self,
        n: usize,
        elem_bytes: usize,
        section: &'static str,
    ) -> Result<(), SnapshotError> {
        match n.checked_mul(elem_bytes) {
            Some(len) if len <= self.buf.len() - self.pos => Ok(()),
            _ => Err(SnapshotError::Truncated { section }),
        }
    }

    /// A `u32` element count, checked by [`Reader::fits`].
    fn count(&mut self, section: &'static str, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u32(section)? as usize;
        self.fits(n, elem_bytes, section)?;
        Ok(n)
    }

    /// `n` little-endian words; the caller has checked that they fit.
    fn words(&mut self, n: usize, section: &'static str) -> Result<Vec<u32>, SnapshotError> {
        Ok(self
            .take(n * 4, section)?
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("chunked 4 bytes")))
            .collect())
    }

    /// A `u32` count, then that many words.
    fn u32s(&mut self, section: &'static str) -> Result<Vec<u32>, SnapshotError> {
        let n = self.count(section, 4)?;
        self.words(n, section)
    }

    fn bools(&mut self, expect: usize, section: &'static str) -> Result<Vec<bool>, SnapshotError> {
        let len = self.u32(section)? as usize;
        if len != expect {
            return malformed(format!("{section}: {len} flags for {expect} vectors"));
        }
        Ok(self.take(len, section)?.iter().map(|&b| b != 0).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_faults::snapshot::{corruption_offset, flip_byte, torn_tail};
    use ansmet_index::HnswParams;
    use ansmet_vecdata::SynthSpec;

    fn churned(n: usize) -> (MutableIndex, LayoutArtifacts, Vec<Vec<f32>>) {
        let (data, queries) = SynthSpec::sift().scaled(n, 3).generate();
        let held: Vec<Vec<f32>> = (n - 10..n).map(|i| data.vector(i).to_vec()).collect();
        let base = Dataset::from_values(
            "t",
            data.dtype(),
            data.metric(),
            data.dim(),
            (0..n - 10).flat_map(|i| data.vector(i).to_vec()).collect(),
        );
        let mut idx = MutableIndex::build_hnsw(base, HnswParams::quick(), 21);
        let mut layout = LayoutArtifacts::plan(&idx, 0.01);
        for v in &held[..5] {
            idx.insert(v);
        }
        idx.delete(3);
        idx.delete(17);
        layout.revalidate(&mut idx, 1.0);
        (idx, layout, queries)
    }

    fn meta() -> EpochMeta {
        EpochMeta {
            epoch: 4,
            last_epoch_cycle: 123_456,
        }
    }

    #[test]
    fn round_trip_preserves_search_and_state() {
        let (idx, layout, queries) = churned(200);
        let bytes = save(&idx, &layout, &meta());
        let snap = load(&bytes).expect("clean snapshot loads");
        assert_eq!(snap.meta, meta());
        assert_eq!(snap.index.len(), idx.len());
        assert_eq!(snap.index.generation(), idx.generation());
        assert_eq!(snap.index.pending_dead(), idx.pending_dead());
        assert_eq!(snap.index.conservative_flags(), idx.conservative_flags());
        assert_eq!(
            snap.layout.replicas.sorted_ids(),
            layout.replicas.sorted_ids()
        );
        assert_eq!(snap.layout.schedule, layout.schedule);
        for q in &queries {
            assert_eq!(
                snap.index.search_exact(q, 10, 60).ids(),
                idx.search_exact(q, 10, 60).ids(),
                "restored index must search bit-identically"
            );
        }
    }

    #[test]
    fn save_is_byte_stable() {
        let (idx, layout, _) = churned(120);
        assert_eq!(save(&idx, &layout, &meta()), save(&idx, &layout, &meta()));
    }

    /// A snapshot written from independently chosen sections, in
    /// `save`'s order and with a valid checksum: how a forger pairs
    /// sections that never coexist in a real index.
    fn forge(
        data: &Dataset,
        graph: &Hnsw,
        levels_drawn: u64,
        inserts: u64,
        layout: impl FnOnce(&mut Writer),
    ) -> Vec<u8> {
        let n = data.len();
        let mut w = Writer::new();
        write_dataset(&mut w, data);
        w.u8(HNSW_BACKEND);
        write_hnsw(&mut w, graph);
        for _ in 0..3 {
            w.bools(&vec![false; n]);
        }
        w.u64(0); // generation
        w.u64(0); // level seed
        w.u64(levels_drawn);
        w.u64(inserts);
        w.u64(0); // deletes
        w.u32(0); // drift lists
        layout(&mut w);
        w.u64(0); // epoch
        w.u64(0); // last epoch cycle
        w.finish()
    }

    /// A prefix length with its steps (schedule) or values (prefix).
    type Field<'a> = (u32, &'a [u32]);

    /// A layout section with the given schedule and prefix fields, no
    /// replicas and a 1 % outlier budget.
    fn forged_layout(w: &mut Writer, dtype: ElemType, sched: Field, prefix: Field) {
        w.u8(dtype_code(dtype));
        w.u32(sched.0);
        w.u32s(sched.1.iter().copied());
        w.u8(dtype_code(dtype));
        w.u32(prefix.0);
        w.u32s(prefix.1.iter().copied());
        w.u32(0); // replicas
        w.f64(0.01);
    }

    fn assert_malformed(bytes: &[u8], why: &str) {
        match load(bytes) {
            Err(SnapshotError::Malformed { .. }) => {}
            Err(other) => panic!("{why}: expected Malformed, got {other}"),
            Ok(_) => panic!("{why}: forged snapshot loaded"),
        }
    }

    /// `bytes` with `value` written at `off` and the checksum recomputed.
    fn patched(bytes: &[u8], off: usize, value: u32) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[off..off + 4].copy_from_slice(&value.to_le_bytes());
        let end = out.len() - CHECKSUM_LEN;
        let sum = fingerprint64(&out[..end]);
        out[end..].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Offset of the dataset section's vector count in a saved `idx`.
    fn length_offset(idx: &MutableIndex) -> usize {
        HEADER_LEN + 4 + idx.data().name().len() + 2 + 4
    }

    #[test]
    fn forged_dataset_length_is_checked_before_allocating() {
        let (idx, layout, _) = churned(60);
        let clean = save(&idx, &layout, &meta());
        // 2^32 - 1 vectors of 128 dims would ask for 2.2 TB.
        assert_eq!(idx.data().dim(), 128);
        assert!(matches!(
            load(&patched(&clean, length_offset(&idx), u32::MAX)),
            Err(SnapshotError::Truncated {
                section: "dataset length"
            })
        ));
    }

    #[test]
    fn graph_must_cover_exactly_the_dataset() {
        let (small, layout, _) = churned(100);
        let (big, _, _) = churned(200);
        let bytes = forge(small.data(), big.hnsw(), 0, 0, |w| write_layout(w, &layout));
        assert_malformed(&bytes, "200-node graph over 100 vectors");
    }

    #[test]
    fn forged_graph_fields_are_rejected() {
        let (idx, layout, _) = churned(60);
        assert!(
            idx.hnsw().layer_count() > 1,
            "the cases need an upper layer"
        );
        let clean = save(&idx, &layout, &meta());
        // The graph follows the raw words and the backend tag; its
        // params, entry point and layer count open it.
        let m = length_offset(&idx) + 4 + idx.len() * idx.data().dim() * 4 + 1;
        let layers = m + 4 + 4 + 4 + 8 + 1 + 4;
        // M = 1 makes the level multiplier 1 / ln 1 = inf, so the next
        // insert would allocate layers without bound.
        assert_malformed(&patched(&clean, m, 1), "M = 1");
        assert_malformed(&patched(&clean, layers, 1), "levels beyond the layer count");
        // A zero degree or beam width would make the next insert panic.
        let (m_max0, ef) = (m + 4, m + 8);
        assert_malformed(&patched(&clean, m, 0), "M = 0");
        assert_malformed(&patched(&clean, m_max0, 0), "m_max0 = 0");
        assert_malformed(&patched(&clean, ef, 0), "ef_construction = 0");
    }

    #[test]
    fn forged_huge_beam_width_reserves_nothing_up_front() {
        let (idx, layout, _) = churned(60);
        let clean = save(&idx, &layout, &meta());
        let ef = length_offset(&idx) + 4 + idx.len() * idx.data().dim() * 4 + 1 + 8;
        // A beam of 2^32 - 1 is legal, but reserving its 16-byte heap
        // entries up front would ask for 68 GB; the construction heaps
        // grow only with the nodes a beam search reaches.
        let mut huge = load(&patched(&clean, ef, u32::MAX))
            .expect("a huge beam width is valid")
            .index;
        assert_eq!(huge.hnsw().params().ef_construction, u32::MAX as usize);
        let v = idx.data().vector(0).to_vec();
        let id = huge.insert(&v);
        assert_eq!(id, idx.len());
        assert_eq!(huge.search_exact(&v, 1, 16).neighbors()[0].dist, 0.0);
    }

    #[test]
    fn forged_layouts_are_rejected_before_their_constructors_assert() {
        let (idx, _, _) = churned(60);
        let dtype = idx.data().dtype();
        assert_eq!(dtype.bits(), 8, "cases below assume 8-bit elements");
        let dim = idx.data().dim();
        let zeros = vec![0u32; dim];
        let write = |sched, prefix| {
            forge(
                idx.data(),
                idx.hnsw(),
                idx.insert_count(),
                idx.insert_count(),
                |w| forged_layout(w, dtype, sched, prefix),
            )
        };
        assert!(load(&write((2, &[6]), (2, &zeros))).is_ok());
        let cases: [(&str, Field, Field); 5] = [
            ("a 40-bit schedule step", (0, &[40]), (0, &zeros)),
            ("an 8-bit prefix of an 8-bit element", (8, &[]), (8, &zeros)),
            (
                "a prefix value wider than its length",
                (2, &[6]),
                (2, &vec![4; dim]),
            ),
            (
                "schedule and prefix lengths that disagree",
                (0, &[8]),
                (2, &zeros),
            ),
            (
                "one prefix short of the dimension",
                (2, &[6]),
                (2, &zeros[1..]),
            ),
        ];
        for (why, sched, prefix) in cases {
            assert_malformed(&write(sched, prefix), why);
        }
    }

    #[test]
    fn non_hnsw_backend_tag_is_rejected() {
        let (idx, layout, _) = churned(60);
        let clean = save(&idx, &layout, &meta());
        let tag = length_offset(&idx) + 4 + idx.len() * idx.data().dim() * 4;
        assert_eq!(clean[tag], HNSW_BACKEND);
        // Patch the tag byte alone; the rest of its word is the graph's M.
        let word = u32::from_le_bytes(clean[tag..tag + 4].try_into().expect("4 bytes"));
        // Tag 1 was the removed IVF backend.
        for bad in [1, 2, 255] {
            assert_malformed(&patched(&clean, tag, word & !0xff | bad), "backend tag");
        }
    }

    #[test]
    fn ivf_drift_lists_are_rejected() {
        let (idx, layout, _) = churned(60);
        let clean = save(&idx, &layout, &meta());
        // The drift-list count sits just before the layout and epoch
        // sections, after the levels-drawn and insert counts.
        let mut w = Writer::new();
        write_layout(&mut w, &layout);
        let drift = clean.len() - CHECKSUM_LEN - 16 - (w.buf.len() - HEADER_LEN) - 4;
        let u64_at = |off: usize| u64::from_le_bytes(clean[off..off + 8].try_into().expect("8"));
        assert_eq!(idx.insert_count(), 5);
        assert_eq!((u64_at(drift - 24), u64_at(drift - 16)), (5, 5));
        assert_eq!(clean[drift..drift + 4], [0; 4]);
        assert_malformed(&patched(&clean, drift, 1), "an IVF drift list");
    }

    #[test]
    fn raw_words_must_be_elements_of_the_dtype() {
        let (idx, layout, _) = churned(60);
        assert_eq!(idx.data().dtype(), ElemType::U8);
        let clean = save(&idx, &layout, &meta());
        let first_word = length_offset(&idx) + 4;
        assert_malformed(&patched(&clean, first_word, 0x100), "a 9-bit u8 word");

        let values = (0..80).map(|i| i as f32).collect();
        let data = Dataset::from_values("f", ElemType::F32, Metric::L2, 4, values);
        let idx = MutableIndex::build_hnsw(data, HnswParams::quick(), 1);
        let layout = LayoutArtifacts::plan(&idx, 0.01);
        let clean = save(&idx, &layout, &meta());
        assert!(load(&clean).is_ok());
        let first_word = length_offset(&idx) + 4;
        for bits in [f32::NAN, f32::INFINITY].map(f32::to_bits) {
            assert_malformed(&patched(&clean, first_word, bits), "a non-finite f32");
        }
    }

    #[test]
    fn forged_replicas_and_outlier_budgets_are_rejected() {
        let (idx, layout, _) = churned(60);
        let n = idx.len();
        let write = |replicas: Vec<usize>, budget: f64| {
            let mut forged = layout.clone();
            forged.replicas = ReplicaSet::new(replicas);
            forged.outlier_budget_frac = budget;
            let inserts = idx.insert_count();
            forge(idx.data(), idx.hnsw(), inserts, inserts, |w| {
                write_layout(w, &forged)
            })
        };
        assert!(load(&write(vec![0, n - 1], 1.0)).is_ok());
        assert_malformed(&write(vec![n], 0.01), "a replica beyond the dataset");
        for budget in [-0.01, 1.5, f64::NAN] {
            assert_malformed(&write(vec![], budget), "an outlier budget outside [0, 1]");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (idx, layout, _) = churned(60);
        let inserts = idx.insert_count();
        let bytes = forge(idx.data(), idx.hnsw(), inserts, inserts, |w| {
            write_layout(w, &layout);
            w.u32(0);
        });
        assert_malformed(&bytes, "a word after the last section");
    }

    #[test]
    fn level_replay_is_bounded_by_the_insert_count() {
        let (idx, layout, _) = churned(60);
        let write = |drawn, inserts| {
            forge(idx.data(), idx.hnsw(), drawn, inserts, |w| {
                write_layout(w, &layout)
            })
        };
        // 2^40 one-at-a-time RNG draws would stall the loader for
        // about half an hour.
        assert_malformed(&write(1 << 40, 5), "levels drawn != inserts");
        assert_malformed(&write(1 << 40, 1 << 40), "more inserts than vectors");
        assert!(load(&write(5, 5)).is_ok());
    }

    #[test]
    fn flipped_byte_is_a_typed_error() {
        let (idx, layout, _) = churned(80);
        let clean = save(&idx, &layout, &meta());
        // Sweep a few deterministic offsets from the fault injector; a
        // flip must never load successfully and never panic.
        for seed in 0..8u64 {
            let mut bytes = clean.clone();
            let off = corruption_offset(seed, bytes.len());
            flip_byte(&mut bytes, off, 0x40);
            let err = load(&bytes).expect_err("corrupt snapshot must not load");
            assert!(
                matches!(
                    err,
                    SnapshotError::ChecksumMismatch { .. }
                        | SnapshotError::Torn { .. }
                        | SnapshotError::BadMagic { .. }
                        | SnapshotError::UnsupportedVersion { .. }
                ),
                "unexpected error class: {err}"
            );
        }
    }

    #[test]
    fn torn_write_is_detected_and_recovered() {
        let (idx, layout, _) = churned(80);
        let clean = save(&idx, &layout, &meta());
        let torn = torn_tail(&clean, clean.len() / 2);
        match load(&torn).expect_err("torn snapshot must not load") {
            SnapshotError::Torn { expected, actual } => {
                assert_eq!(expected, clean.len() as u64);
                assert_eq!(actual, (clean.len() / 2) as u64);
            }
            other => panic!("expected Torn, got {other}"),
        }
        let (snap, recovered) = load_with_fallback(&torn, &clean).expect("fallback must recover");
        assert!(recovered);
        assert_eq!(snap.index.len(), idx.len());
        // Both broken: the primary's error surfaces.
        let err = load_with_fallback(&torn, &torn[..HEADER_LEN - 1]).expect_err("both broken");
        assert!(matches!(err, SnapshotError::Torn { .. }));
    }

    #[test]
    fn error_display_is_informative() {
        let e = SnapshotError::Torn {
            expected: 100,
            actual: 60,
        };
        assert_eq!(
            e.to_string(),
            "torn snapshot: header promises 100 bytes, found 60"
        );
        assert!(load(b"nope").is_err());
    }
}
