//! Per-daemon dataset cache: each dataset is parsed once per daemon, and
//! every job and span over it shares the one parsed copy.
//!
//! The paper broadcasts the data to every rank once and then only runs the
//! kernel. A daemon serves many jobs and spans over the same few files, so it
//! does the same: every dataset read — `submit`, peer `span_exec` and
//! `boot_exec`, journal replay — goes through one `DatasetCache`, and jobs
//! hold `Arc` handles to its matrices instead of private copies.
//!
//! ## Two lookups
//!
//! - **By content** (`DatasetCache::load`): the file's bytes are always
//!   read and hashed; the parsed matrix, labels and dataset digests are
//!   reused only when the hash matches an entry. A path or an mtime alone
//!   never decides anything, so a file rewritten in place (even with the
//!   same size and a restored mtime) is never served stale.
//! - **By dataset digest** (`DatasetCache::resolve` with an expected
//!   digest): a coordinator sends its cache key's dataset digest with each
//!   `span_exec`/`boot_exec`. A peer that already holds data with that
//!   digest runs the span without touching the filesystem. Otherwise it
//!   loads the path by content, re-digests, and refuses with
//!   a typed mismatch error when its copy differs — a peer never
//!   contributes counts computed over different data.
//!
//! ## Budget
//!
//! Entries are evicted least-recently-used once their matrices exceed
//! [`DATASET_CACHE_BYTES`]. Eviction only drops the cache's handle: a job
//! still running on an evicted dataset keeps its own `Arc`.

use std::borrow::Cow;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use sprint_core::digest::{self, Fnv1a};
use sprint_core::error::Error as CoreError;
use sprint_core::matrix::Matrix;
use sprint_core::options::TestMethod;
use sprint_core::stats::{needs_ranks, prepare_matrix};

/// Byte budget of one daemon's dataset cache: the parsed matrices (raw,
/// NA-canonical and rank-transformed copies) of every entry together.
pub const DATASET_CACHE_BYTES: usize = 256 << 20;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Content hash of a dataset file's bytes: [`Fnv1a`] over four interleaved
/// lanes (the quarters of the file), folded with the length and the tail.
/// One FNV chain costs a multiply per byte in sequence; four independent
/// chains let the CPU overlap them.
pub(crate) fn content_digest(bytes: &[u8]) -> u64 {
    let quarter = bytes.len() / 4;
    let (a, rest) = bytes.split_at(quarter);
    let (b, rest) = rest.split_at(quarter);
    let (c, rest) = rest.split_at(quarter);
    let (d, tail) = rest.split_at(quarter);
    let mut lanes = [Fnv1a::new(); 4];
    for (((x, y), z), w) in a.iter().zip(b).zip(c).zip(d) {
        lanes[0].write(std::slice::from_ref(x));
        lanes[1].write(std::slice::from_ref(y));
        lanes[2].write(std::slice::from_ref(z));
        lanes[3].write(std::slice::from_ref(w));
    }
    let mut h = Fnv1a::new();
    h.write_u64(bytes.len() as u64);
    for lane in &lanes {
        h.write_u64(lane.finish());
    }
    h.write(tail);
    h.finish()
}

/// Why a dataset could not be served.
#[derive(Debug)]
pub(crate) enum DatasetError {
    /// The file could not be read or parsed.
    Unreadable {
        /// Path as requested.
        path: String,
        /// The I/O or parse error.
        error: io::Error,
    },
    /// The data is unusable for the request (NA canonicalization failed).
    Invalid(CoreError),
    /// The file's data digests differently from what the coordinator sent.
    Mismatch {
        /// Path as requested.
        path: String,
        /// Digest the coordinator computed over its copy.
        expected: u64,
        /// Digest of this daemon's copy.
        found: u64,
    },
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DatasetError::Unreadable { path, error } => {
                write!(f, "cannot read dataset {path:?}: {error}")
            }
            DatasetError::Invalid(e) => write!(f, "invalid dataset: {e}"),
            DatasetError::Mismatch {
                path,
                expected,
                found,
            } => f.write_str(&mismatch_message(path, *expected, *found)),
        }
    }
}

impl std::error::Error for DatasetError {}

/// Text of a digest mismatch, shared with [`crate::JobError`].
pub(crate) fn mismatch_message(path: &str, expected: u64, found: u64) -> String {
    format!(
        "dataset {path:?} digests to {found:016x} here but the coordinator's \
         copy digests to {expected:016x}"
    )
}

/// One parsed dataset: the matrix and labels as read, plus the NA-canonical
/// views jobs compute on.
#[derive(Debug)]
pub(crate) struct Dataset {
    /// [`content_digest`] of the source file; `None` for matrices submitted
    /// in-process, which never enter the cache.
    content: Option<u64>,
    data: Arc<Matrix>,
    classlabel: Arc<[u8]>,
    /// One view per NA code seen so far (usually just `None`).
    views: Mutex<Vec<Arc<View>>>,
}

/// A dataset with one NA code applied: the canonical matrix, its dataset
/// digest (the [`crate::CacheKey`] `dataset` field) and, built on first use,
/// its rank-transformed copy.
#[derive(Debug)]
pub(crate) struct View {
    na: Option<u64>,
    canonical: Arc<Matrix>,
    digest: u64,
    ranked: OnceLock<Arc<Matrix>>,
}

impl Dataset {
    /// A dataset held outside any cache (in-process submissions).
    pub(crate) fn from_parts(data: Matrix, classlabel: Vec<u8>) -> Dataset {
        Dataset::new(None, data, classlabel)
    }

    fn new(content: Option<u64>, data: Matrix, classlabel: Vec<u8>) -> Dataset {
        Dataset {
            content,
            data: Arc::new(data),
            classlabel: classlabel.into(),
            views: Mutex::new(Vec::new()),
        }
    }

    /// The matrix as read (NA code not yet applied).
    pub(crate) fn data(&self) -> &Matrix {
        &self.data
    }

    /// The raw class-label vector.
    pub(crate) fn classlabel(&self) -> &[u8] {
        &self.classlabel
    }

    /// The view for NA code `na`, built (and digested) on first request.
    pub(crate) fn view(&self, na: Option<f64>) -> Result<Arc<View>, CoreError> {
        let key = na.map(f64::to_bits);
        let mut views = lock(&self.views);
        if let Some(v) = views.iter().find(|v| v.na == key) {
            return Ok(Arc::clone(v));
        }
        let canonical = match na {
            Some(code) => Arc::new(Matrix::from_vec_with_na(
                self.data.rows(),
                self.data.cols(),
                self.data.as_slice().to_vec(),
                code,
            )?),
            None => Arc::clone(&self.data),
        };
        let view = Arc::new(View {
            na: key,
            digest: digest::dataset_digest(&canonical, &self.classlabel),
            canonical,
            ranked: OnceLock::new(),
        });
        views.push(Arc::clone(&view));
        Ok(view)
    }

    fn view_with_digest(&self, digest: u64) -> Option<Arc<View>> {
        lock(&self.views)
            .iter()
            .find(|v| v.digest == digest)
            .cloned()
    }

    /// Bytes of every distinct matrix this dataset holds.
    fn bytes(&self) -> usize {
        let size = |m: &Matrix| std::mem::size_of_val(m.as_slice());
        let mut total = size(&self.data) + self.classlabel.len();
        for v in lock(&self.views).iter() {
            if !Arc::ptr_eq(&v.canonical, &self.data) {
                total += size(&v.canonical);
            }
            if let Some(r) = v.ranked.get() {
                total += size(r);
            }
        }
        total
    }
}

impl View {
    /// The NA-canonical matrix.
    pub(crate) fn canonical(&self) -> &Arc<Matrix> {
        &self.canonical
    }

    /// Dataset digest of the canonical matrix and the labels.
    pub(crate) fn digest(&self) -> u64 {
        self.digest
    }

    /// The matrix a run of `method` scores ([`prepare_matrix`]): the
    /// canonical matrix itself, or its rank transform, shared by every
    /// rank-based run over this view.
    pub(crate) fn prepared(&self, method: TestMethod, nonpara: bool) -> Arc<Matrix> {
        if !needs_ranks(method, nonpara) {
            return Arc::clone(&self.canonical);
        }
        let ranked =
            self.ranked
                .get_or_init(|| match prepare_matrix(&self.canonical, method, nonpara) {
                    Cow::Owned(m) => Arc::new(m),
                    Cow::Borrowed(m) => Arc::new(m.clone()),
                });
        Arc::clone(ranked)
    }
}

/// Counters of a daemon's dataset cache, for status and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatasetStats {
    /// Datasets currently cached.
    pub entries: usize,
    /// Path lookups served from an entry (bytes read and hashed, no parse).
    pub content_hits: u64,
    /// Digest lookups served from an entry (no file I/O at all).
    pub digest_hits: u64,
    /// Files parsed.
    pub parses: u64,
    /// Entries dropped to stay within the budget.
    pub evictions: u64,
}

/// LRU cache of parsed datasets, keyed by file content.
#[derive(Debug)]
pub(crate) struct DatasetCache {
    budget: usize,
    /// Most recently used last.
    entries: Mutex<Vec<Arc<Dataset>>>,
    content_hits: AtomicU64,
    digest_hits: AtomicU64,
    parses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for DatasetCache {
    fn default() -> Self {
        DatasetCache::new(DATASET_CACHE_BYTES)
    }
}

impl DatasetCache {
    /// An empty cache holding at most `budget` bytes of matrices (the most
    /// recent entry is kept even when it alone exceeds the budget).
    pub(crate) fn new(budget: usize) -> DatasetCache {
        DatasetCache {
            budget,
            entries: Mutex::new(Vec::new()),
            content_hits: AtomicU64::new(0),
            digest_hits: AtomicU64::new(0),
            parses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Path lookup: read and hash the file, reuse the entry with the same
    /// content, or parse and cache it.
    pub(crate) fn load(&self, path: &Path) -> Result<Arc<Dataset>, DatasetError> {
        let (ds, fresh) = self.fetch(path)?;
        Ok(if fresh { self.admit(ds) } else { ds })
    }

    /// The data a span or job over `path` runs on, with NA code `na`.
    ///
    /// With `expected = Some(digest)`, an entry holding data with that
    /// digest is used without any file I/O; otherwise the path is loaded by
    /// content and its digest must equal `expected`, or the lookup fails
    /// with [`DatasetError::Mismatch`] and the file is not cached.
    pub(crate) fn resolve(
        &self,
        path: &Path,
        na: Option<f64>,
        expected: Option<u64>,
    ) -> Result<(Arc<Dataset>, Arc<View>), DatasetError> {
        if let Some(digest) = expected {
            if let Some(hit) = self.find_digest(digest) {
                self.digest_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(hit);
            }
        }
        let (ds, fresh) = self.fetch(path)?;
        let view = ds.view(na).map_err(DatasetError::Invalid)?;
        if let Some(expected) = expected {
            if view.digest != expected {
                return Err(DatasetError::Mismatch {
                    path: path.display().to_string(),
                    expected,
                    found: view.digest,
                });
            }
        }
        let ds = if fresh { self.admit(ds) } else { ds };
        Ok((ds, view))
    }

    /// Counters and current size.
    pub(crate) fn stats(&self) -> DatasetStats {
        let entries = lock(&self.entries);
        DatasetStats {
            entries: entries.len(),
            content_hits: self.content_hits.load(Ordering::Relaxed),
            digest_hits: self.digest_hits.load(Ordering::Relaxed),
            parses: self.parses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Drop every entry. Jobs keep the handles they hold.
    pub(crate) fn clear(&self) {
        let n = std::mem::take(&mut *lock(&self.entries)).len();
        self.evictions.fetch_add(n as u64, Ordering::Relaxed);
    }

    /// Read and hash `path`; return the cached entry with that content
    /// (`false`) or a freshly parsed, not yet cached dataset (`true`).
    fn fetch(&self, path: &Path) -> Result<(Arc<Dataset>, bool), DatasetError> {
        let unreadable = |error| DatasetError::Unreadable {
            path: path.display().to_string(),
            error,
        };
        let bytes = std::fs::read(path).map_err(unreadable)?;
        let content = content_digest(&bytes);
        {
            let mut entries = lock(&self.entries);
            if let Some(i) = entries.iter().position(|d| d.content == Some(content)) {
                let ds = entries.remove(i);
                entries.push(Arc::clone(&ds));
                self.content_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((ds, false));
            }
        }
        let (data, classlabel) = microarray::io::parse_dataset(&bytes).map_err(unreadable)?;
        drop(bytes);
        self.parses.fetch_add(1, Ordering::Relaxed);
        Ok((
            Arc::new(Dataset::new(Some(content), data, classlabel)),
            true,
        ))
    }

    /// Insert a freshly parsed dataset as the most recent entry, then evict
    /// from the old end down to the budget. A concurrent load of the same
    /// content may have won the race; its entry is kept and returned.
    fn admit(&self, ds: Arc<Dataset>) -> Arc<Dataset> {
        let mut entries = lock(&self.entries);
        if let Some(existing) = entries.iter().find(|d| d.content == ds.content) {
            return Arc::clone(existing);
        }
        entries.push(Arc::clone(&ds));
        let mut total: usize = entries.iter().map(|d| d.bytes()).sum();
        while total > self.budget && entries.len() > 1 {
            total -= entries.remove(0).bytes();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        ds
    }

    fn find_digest(&self, digest: u64) -> Option<(Arc<Dataset>, Arc<View>)> {
        let mut entries = lock(&self.entries);
        let (i, view) = entries
            .iter()
            .enumerate()
            .find_map(|(i, d)| d.view_with_digest(digest).map(|v| (i, v)))?;
        let ds = entries.remove(i);
        entries.push(Arc::clone(&ds));
        Some((ds, view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use microarray::io::write_dataset;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("jobd-datasets-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn write(path: &Path, genes: usize, base: f64) {
        let v: Vec<f64> = (0..genes * 4).map(|i| base + i as f64 * 0.25).collect();
        let m = Matrix::from_vec(genes, 4, v).unwrap();
        write_dataset(path, &m, &[0, 0, 1, 1]).unwrap();
    }

    #[test]
    fn content_digest_sees_every_byte_and_the_length() {
        let base: Vec<u8> = (0..103u8).collect();
        let d = content_digest(&base);
        for i in [0, 25, 51, 77, 101, 102] {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert_ne!(content_digest(&flipped), d, "byte {i}");
        }
        assert_ne!(content_digest(&base[..102]), d);
        assert_ne!(content_digest(&[]), content_digest(&[0]));
    }

    #[test]
    fn second_load_reuses_the_parse_and_a_rewrite_does_not() {
        let path = tmp("rewrite.tsv");
        write(&path, 5, 1.0);
        let cache = DatasetCache::default();
        let a = cache.load(&path).unwrap();
        let b = cache.load(&path).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        write(&path, 5, 2.0);
        let c = cache.load(&path).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.data().get(0, 0), 2.0);
        let st = cache.stats();
        assert_eq!((st.parses, st.content_hits, st.entries), (2, 1, 2));
    }

    #[test]
    fn digest_lookup_needs_no_file_and_a_mismatch_is_not_cached() {
        let path = tmp("digest.tsv");
        write(&path, 3, 1.0);
        let cache = DatasetCache::default();
        let (_, view) = cache.resolve(&path, None, None).unwrap();
        let digest = view.digest();
        std::fs::remove_file(&path).unwrap();
        let (_, again) = cache.resolve(&path, None, Some(digest)).unwrap();
        assert_eq!(again.digest(), digest);
        assert_eq!(cache.stats().digest_hits, 1);

        write(&path, 3, 7.0);
        cache.clear();
        match cache.resolve(&path, None, Some(digest)) {
            Err(DatasetError::Mismatch {
                expected, found, ..
            }) => {
                assert_eq!(expected, digest);
                assert_ne!(found, digest);
            }
            other => panic!("expected a mismatch, got {other:?}"),
        }
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn views_share_the_raw_matrix_and_the_ranks() {
        let path = tmp("views.tsv");
        write(&path, 4, 1.0);
        let cache = DatasetCache::default();
        let ds = cache.load(&path).unwrap();
        let plain = ds.view(None).unwrap();
        assert!(Arc::ptr_eq(plain.canonical(), &ds.data));
        assert!(Arc::ptr_eq(
            &plain.prepared(TestMethod::T, false),
            plain.canonical()
        ));
        let r1 = plain.prepared(TestMethod::Wilcoxon, false);
        let r2 = plain.prepared(TestMethod::T, true);
        assert!(Arc::ptr_eq(&r1, &r2));
        let coded = ds.view(Some(1.0)).unwrap();
        assert!(coded.canonical().get(0, 0).is_nan());
        assert_ne!(coded.digest(), plain.digest());
        assert!(Arc::ptr_eq(&ds.view(Some(1.0)).unwrap(), &coded));
    }

    #[test]
    fn budget_evicts_least_recently_used() {
        let paths: Vec<_> = (0..3).map(|i| tmp(&format!("lru-{i}.tsv"))).collect();
        for (i, p) in paths.iter().enumerate() {
            write(p, 10, i as f64);
        }
        // 10 x 4 f64 cells plus 4 labels per entry: room for two entries.
        let cache = DatasetCache::new(2 * (10 * 4 * 8 + 4));
        let first = cache.load(&paths[0]).unwrap();
        cache.load(&paths[1]).unwrap();
        cache.load(&paths[0]).unwrap();
        cache.load(&paths[2]).unwrap();
        let st = cache.stats();
        assert_eq!((st.entries, st.evictions, st.parses), (2, 1, 3));
        // paths[0] was used after paths[1], so paths[1] went first.
        assert!(Arc::ptr_eq(&cache.load(&paths[0]).unwrap(), &first));
        assert_eq!(cache.stats().parses, 3);
        cache.load(&paths[1]).unwrap();
        assert_eq!(cache.stats().parses, 4);
    }
}
