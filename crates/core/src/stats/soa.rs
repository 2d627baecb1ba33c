//! Block-packed score tiles: the data layout behind the fast scorers
//! (DESIGN.md §4.10).
//!
//! The scalar layout is gene-major (`row[g][col]`): scoring one arrangement
//! walks a gather list per gene, so every add depends on the previous one and
//! the loop never vectorizes. This module packs the cached sufficient
//! statistics into **gene blocks**: [`LANE`] genes side by side, with all
//! columns of a block contiguous (`block[b][col][lane]`). Scoring walks a
//! block, then the arrangements of the batch, then the selected columns in
//! ascending order, accumulating the block's genes at once in fixed-width
//! arrays that stay in registers. A block of the paper's 76-sample shape is
//! 76 × 64 B ≈ 4.9 KB at `f64`, so it stays in L1 across the whole batch.
//! Each gene still sees its values in ascending column order — the exact
//! order the scalar accumulators push — so the f64 sums are bitwise
//! identical to the scalar path.
//!
//! Missing cells are stored as `+0.0`. That is bitwise-neutral: an IEEE
//! accumulator that starts at `+0.0` can never become `-0.0` by adding
//! finite values (`x + (-x) = +0.0`, `+0.0 + ±0.0 = +0.0`), so adding a
//! zeroed cell leaves the running sum's bits untouched. Counts are fixed up
//! separately via [`MissMask`]: a per-gene missing-column bitset ANDed with a
//! per-arrangement selected-column bitset, one `popcount` per dirty gene.
//!
//! Everything is generic over [`Real`] (`f64`/`f32`): the same kernels serve
//! the bitwise-exact default and the opt-in `SPRINT_PRECISION=f32` mode.

use std::ops::Range;

/// Genes per block: the width of the register accumulators. Eight `f64`
/// lanes are one cache line per column and four SSE2 vectors, enough
/// independent add chains to hide the add latency.
pub const LANE: usize = 8;

/// An accumulation element type of the block kernels: `f64` (reference,
/// bitwise-reproducible) or `f32` (opt-in, bounded error). The trait carries
/// exactly the operations the statistic combines use, so the generic scorer
/// code reads like the scalar formulas.
pub trait Real:
    Copy
    + Send
    + Sync
    + PartialOrd
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::AddAssign
    + 'static
{
    /// Positive zero.
    const ZERO: Self;
    /// True for the reduced-precision mode (selects the `-f32` path names).
    const IS_F32: bool;

    /// Round an `f64` into this precision.
    fn from_f64(v: f64) -> Self;
    /// Widen back to `f64` (exact).
    fn to_f64(self) -> f64;
    /// Convert a count.
    fn from_usize(n: usize) -> Self;
    /// Quiet NaN.
    fn nan() -> Self;
    /// NaN test.
    fn is_nan(self) -> bool;
    /// Square root.
    fn sqrt(self) -> Self;
    /// IEEE max (NaN-discarding, like `f64::max`).
    fn max(self, other: Self) -> Self;
}

impl Real for f64 {
    const ZERO: Self = 0.0;
    const IS_F32: bool = false;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline]
    fn from_usize(n: usize) -> Self {
        n as f64
    }
    #[inline]
    fn nan() -> Self {
        f64::NAN
    }
    #[inline]
    fn is_nan(self) -> bool {
        f64::is_nan(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
}

impl Real for f32 {
    const ZERO: Self = 0.0;
    const IS_F32: bool = true;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline]
    fn from_usize(n: usize) -> Self {
        n as f32
    }
    #[inline]
    fn nan() -> Self {
        f32::NAN
    }
    #[inline]
    fn is_nan(self) -> bool {
        f32::is_nan(self)
    }
    #[inline]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
}

/// A zero-initialized buffer whose payload starts on a 64-byte (cache-line)
/// boundary, without any `unsafe`: the allocation is over-sized by one cache
/// line and the slice starts at the first aligned element.
pub(crate) struct AlignedBuf<R> {
    v: Vec<R>,
    off: usize,
    len: usize,
}

impl<R: Real> AlignedBuf<R> {
    /// Allocate `len` zeroed elements, 64-byte aligned.
    pub fn zeroed(len: usize) -> Self {
        let pad = 64 / std::mem::size_of::<R>();
        let v = vec![R::ZERO; len + pad];
        let off = v.as_ptr().align_offset(64);
        // `align_offset` is allowed to bail with usize::MAX; fall back to the
        // (correct, merely unaligned) start of the allocation.
        let off = if off > pad { 0 } else { off };
        AlignedBuf { v, off, len }
    }

    pub fn as_slice(&self) -> &[R] {
        &self.v[self.off..self.off + self.len]
    }

    pub fn as_mut_slice(&mut self) -> &mut [R] {
        &mut self.v[self.off..self.off + self.len]
    }
}

impl<R: Real> std::fmt::Debug for AlignedBuf<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AlignedBuf(len={})", self.len)
    }
}

/// Block-packed gene lanes: `genes` rounded up to whole blocks of [`LANE`]
/// genes, each block holding `cols` lanes of `LANE` values back to back, so
/// with `f64` every (block, column) lane is one aligned cache line. Cells
/// default to `+0.0` — the bitwise-neutral encoding of "missing" (see the
/// module docs); the padding genes of the last block stay zero.
#[derive(Debug)]
pub(crate) struct GeneBlocks<R: Real> {
    cols: usize,
    buf: AlignedBuf<R>,
}

impl<R: Real> GeneBlocks<R> {
    /// Allocate zeroed blocks for `genes × cols` cells.
    pub fn new(genes: usize, cols: usize) -> Self {
        GeneBlocks {
            cols,
            buf: AlignedBuf::zeroed(padded_len(genes) * cols),
        }
    }

    /// Store one cell.
    pub fn set(&mut self, col: usize, gene: usize, v: R) {
        self.buf.as_mut_slice()[(gene / LANE * self.cols + col) * LANE + gene % LANE] = v;
    }

    /// Block `b`: one `LANE`-gene lane per column, indexed by column.
    #[inline]
    pub fn block(&self, b: usize) -> &[[R; LANE]] {
        let len = self.cols * LANE;
        self.buf.as_slice()[b * len..(b + 1) * len].as_chunks().0
    }
}

/// `genes` rounded up to whole blocks: the length of every per-gene vector a
/// fast scorer reads block-wise.
pub(crate) fn padded_len(genes: usize) -> usize {
    genes.div_ceil(LANE) * LANE
}

/// The `LANE` entries of block `b` in a per-gene vector of
/// [`padded_len`] entries.
#[inline]
pub(crate) fn lanes<T>(v: &[T], b: usize) -> &[T; LANE] {
    v[b * LANE..(b + 1) * LANE]
        .try_into()
        .expect("per-gene vectors are padded to whole blocks")
}

/// Walk the blocks overlapping `genes`: for every block `b` and arrangement
/// `j < k`, `score(b, j, stats)` fills the statistics of the block's `LANE`
/// genes, and those inside the range land at
/// `out[(g − genes.start)·stride + j]`. A range may start or end inside a
/// block (window scoring splits anywhere); the block is then scored whole and only its in-range lanes are
/// stored, so every gene's statistic is independent of the range geometry.
#[inline]
pub(crate) fn for_each_block(
    genes: Range<usize>,
    k: usize,
    out: &mut [f64],
    stride: usize,
    mut score: impl FnMut(usize, usize, &mut [f64; LANE]),
) {
    if genes.is_empty() {
        return;
    }
    let mut stats = [0.0f64; LANE];
    for b in genes.start / LANE..genes.end.div_ceil(LANE) {
        let lo = (b * LANE).max(genes.start);
        let hi = ((b + 1) * LANE).min(genes.end);
        for j in 0..k {
            score(b, j, &mut stats);
            for g in lo..hi {
                out[(g - genes.start) * stride + j] = stats[g - b * LANE];
            }
        }
    }
}

/// Per-gene missing-column bitsets plus the popcount machinery that corrects
/// group counts for dirty genes without touching the block sums.
#[derive(Debug, Default)]
pub(crate) struct MissMask {
    /// `u64` words per gene.
    words: usize,
    /// `genes × words` bitset, gene-major; bit `c` of word `c/64` set when
    /// the gene's column `c` is missing.
    bits: Vec<u64>,
}

impl MissMask {
    /// Allocate an empty mask set.
    pub fn new(genes: usize, cols: usize) -> Self {
        let words = cols.div_ceil(64).max(1);
        MissMask {
            words,
            bits: vec![0; genes * words],
        }
    }

    /// Words per gene (= words per selection mask).
    pub fn words(&self) -> usize {
        self.words
    }

    /// Mark column `col` of gene `gene` missing.
    pub fn set(&mut self, gene: usize, col: usize) {
        self.bits[gene * self.words + col / 64] |= 1u64 << (col % 64);
    }

    /// The bitset of one gene.
    #[inline]
    pub fn gene(&self, gene: usize) -> &[u64] {
        &self.bits[gene * self.words..(gene + 1) * self.words]
    }

    /// How many selected columns (`sel`) are missing for a gene (`miss`).
    #[inline]
    pub fn overlap(sel: &[u64], miss: &[u64]) -> usize {
        sel.iter()
            .zip(miss)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }
}

/// Append one selected-column bitset (`labels[col] == class`) of `words`
/// words to `out`. The scorers build one mask per arrangement (per class for
/// F) in `begin_batch`, only when the data has any dirty gene.
pub(crate) fn push_sel_mask(out: &mut Vec<u64>, words: usize, labels: &[u8], class: u8) {
    let base = out.len();
    out.resize(base + words, 0);
    for (col, &l) in labels.iter().enumerate() {
        if l == class {
            out[base + col / 64] |= 1u64 << (col % 64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_buf_is_cache_line_aligned_and_zeroed() {
        for len in [0usize, 1, 7, 64, 129] {
            let buf = AlignedBuf::<f64>::zeroed(len);
            let s = buf.as_slice();
            assert_eq!(s.len(), len);
            assert!(s.iter().all(|v| v.to_bits() == 0));
            if len > 0 {
                assert_eq!(s.as_ptr() as usize % 64, 0, "len={len}");
            }
        }
        let buf = AlignedBuf::<f32>::zeroed(33);
        assert_eq!(buf.as_slice().as_ptr() as usize % 64, 0);
    }

    #[test]
    fn gene_blocks_round_trip_pad_and_align() {
        let genes = LANE + 5;
        let mut blocks = GeneBlocks::<f64>::new(genes, 3);
        for c in 0..3 {
            for g in 0..genes {
                blocks.set(c, g, (c * 100 + g) as f64);
            }
        }
        for b in 0..2 {
            let block = blocks.block(b);
            assert_eq!(block.len(), 3);
            for (c, lane) in block.iter().enumerate() {
                assert_eq!(lane.as_ptr() as usize % 64, 0, "block {b} col {c}");
                for (i, &v) in lane.iter().enumerate() {
                    let g = b * LANE + i;
                    // Padding genes past the end stay +0.0.
                    let want = if g < genes { (c * 100 + g) as f64 } else { 0.0 };
                    assert_eq!(v.to_bits(), want.to_bits(), "gene {g} col {c}");
                }
            }
        }
        assert_eq!(padded_len(genes), 2 * LANE);
        let per_gene: Vec<usize> = (0..padded_len(genes)).collect();
        assert_eq!(lanes(&per_gene, 1)[0], LANE);
    }

    #[test]
    fn block_walk_stores_only_in_range_lanes() {
        // A range starting and ending inside blocks: every in-range gene is
        // written once per arrangement at its range-relative row, nothing
        // else is touched.
        let genes = 3..(2 * LANE + 2);
        let k = 2;
        let mut out = vec![-1.0f64; genes.len() * k + 1];
        for_each_block(genes.clone(), k, &mut out, k, |b, j, stats| {
            for (i, s) in stats.iter_mut().enumerate() {
                *s = ((b * LANE + i) * 10 + j) as f64;
            }
        });
        for (row, g) in genes.clone().enumerate() {
            for j in 0..k {
                assert_eq!(out[row * k + j], (g * 10 + j) as f64);
            }
        }
        assert_eq!(out[genes.len() * k], -1.0);
    }

    #[test]
    fn miss_mask_popcounts_selected_missing_columns() {
        let mut miss = MissMask::new(2, 70);
        miss.set(0, 3);
        miss.set(0, 65);
        miss.set(1, 0);
        let mut labels = vec![0u8; 70];
        labels[3] = 1;
        labels[64] = 1;
        labels[65] = 1;
        let mut sel = Vec::new();
        push_sel_mask(&mut sel, miss.words(), &labels, 1);
        assert_eq!(sel.len(), 2);
        assert_eq!(MissMask::overlap(&sel, miss.gene(0)), 2);
        assert_eq!(MissMask::overlap(&sel, miss.gene(1)), 0);
    }

    #[test]
    fn zero_cells_are_bitwise_neutral_in_running_sums() {
        // The lemma the block layout rests on: adding ±0.0 to an accumulator
        // that started at +0.0 never flips it to -0.0, so zeroed missing
        // cells cannot perturb any sum bit.
        let mut acc = [0.0f64, 3.5, -3.5];
        for (a, z) in acc.iter_mut().zip([0.0f64, 0.0, -0.0]) {
            *a += z;
        }
        assert_eq!(acc[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(acc[1].to_bits(), 3.5f64.to_bits());
        assert_eq!(acc[2].to_bits(), (-3.5f64).to_bits());
        // x + (-x) lands on +0.0, not -0.0.
        let mut acc = 2.5f64;
        acc += -2.5;
        assert_eq!(acc.to_bits(), 0.0f64.to_bits());
    }
}
