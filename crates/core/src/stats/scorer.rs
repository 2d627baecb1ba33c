//! The unified scoring plane: one `Scorer` trait behind which every
//! execution layer (serial reference, batched engine, minP, pmaxt ranks,
//! jobd spans, bench backends) evaluates test statistics.
//!
//! A scorer has a two-phase contract:
//!
//! 1. **prepare** (the constructor): cache per-gene sufficient statistics
//!    once — S = Σ(x−pivot), Q = Σ(x−pivot)², per-pair differences, per-block
//!    partials, per-row non-missing counts — everything that does not change
//!    across permutations. The cached values live in block-packed tiles
//!    ([`GeneBlocks`]): [`LANE`] genes side by side, all columns of a block
//!    contiguous.
//! 2. **score** ([`Scorer::begin_batch`] + [`Scorer::score_tile`]): for a
//!    K-permutation batch, derive the per-arrangement structures (class
//!    column lists, pair signs, selection bitsets) once in `begin_batch`,
//!    then score gene ranges block by block: for each block, every
//!    arrangement of the batch walks its selected columns in ascending order
//!    and accumulates the block's `LANE` genes in register arrays, and the
//!    statistic is finished for the whole block in one loop (see `stats::soa`
//!    for the layout and DESIGN.md §4.10).
//!
//! All six `mt.maxT` statistics (and `corr`) have fast implementations here:
//!
//! - `t` / `t.equalvar`: per-arrangement sums s₁, q₁ over the group-1
//!   columns; group 0 recovered as S−s₁, Q−q₁; statistic in O(1) from the
//!   four moments.
//! - `wilcoxon`: lanes hold midranks, so the group-1 sum *is* the rank sum.
//! - `f`: per-class sums (s_c, q_c) give SS_between via
//!   Σ n_c·(s_c/n_c − x̄)² and SS_within via Σ (q_c − s_c²/n_c) — the exact
//!   scalar decomposition, never the cancellation-prone SS_total − SS_between.
//! - `pairt`: per-pair base differences d⁰_p = x_{2p+1} − x_{2p} and
//!   Σ(d⁰)² are permutation-invariant; an arrangement only flips signs, so
//!   scoring is **gather-free**: one ±1-scaled add per pair.
//! - `blockf`: block sums, the grand totals, the correction term and
//!   SS_block are permutation-invariant (complete-block exclusion depends
//!   only on the data); a permutation only reshuffles which treatment each
//!   cell feeds, so scoring is one sum per treatment over its columns.
//!
//! ## Missing values
//!
//! NA rows stay on the fast path — without a scalar gather fallback. Missing
//! cells are stored as `+0.0`, which is **bitwise-neutral** in every running
//! sum (an IEEE accumulator starting at `+0.0` can never become `-0.0` by
//! adding finite values, and `x + ±0.0` then preserves `x`'s bits — see
//! `stats::soa`). Only the *counts* need fixing: each dirty gene keeps a
//! missing-column bitset ([`MissMask`]) that is ANDed with a per-arrangement
//! selected-column bitset — one popcount per dirty gene, no per-cell
//! branches. A block whose genes are all complete skips the popcounts and
//! finishes branch-free. The paired designs need no correction at all:
//! their exclusions (incomplete pairs/blocks) are permutation-invariant and
//! cached. Degenerate arrangements (empty class, too few complete
//! pairs/blocks, zero variance) hit the same guards as the scalar functions
//! and yield `NaN`.
//!
//! ## Numerical-equivalence policy
//!
//! The fast path is constructed so that exceedance *counts* (the integers
//! the p-values are made of) match the reference scalar scorer:
//!
//! - every accumulation walks columns in ascending order — the exact order
//!   the scalar statistic pushes values into its accumulators — and zeroed
//!   missing cells are bitwise-neutral, so the per-gene `f64` sums are
//!   **bitwise identical** to the scalar ones, and Wilcoxon, paired t and
//!   block F are bitwise identical end to end;
//! - only the two-sample subtraction S−s₁ / Q−q₁ re-associates a sum, an
//!   error of a few ulps; the combining formulas mirror the scalar
//!   operation sequence (same literals, clamps and guards) so the final
//!   statistic differs by ulps at most;
//! - per (gene, arrangement) the operation sequence is independent of the
//!   block, range and batch geometry, so results are bitwise stable across
//!   any batch shape;
//! - the maxT count comparisons carry an absolute slack of
//!   [`crate::maxt::EPSILON`] = 1e-10, orders of magnitude above ulp noise,
//!   so the counts agree;
//! - observed statistics are computed through the *same* scorer as the
//!   permuted ones, so the identity permutation compares a value against
//!   itself and always counts, whichever scorer is active.
//!
//! ## Precision
//!
//! The fast scorers are generic over the accumulation element
//! ([`Real`]): `f64` is the default and the only mode with the bitwise
//! guarantees above; `f32` (opt-in via [`Precision::F32`] /
//! `SPRINT_PRECISION=f32`) halves the cached-tile footprint at a documented
//! relative-error cost (DESIGN.md §4.10). The scalar reference scorer is
//! always `f64`.

use std::ops::Range;

use crate::labels::ClassLabels;
use crate::matrix::Matrix;
use crate::options::{KernelChoice, Precision, TestMethod};
use crate::stats::block_f::blockf_from_sums;
use crate::stats::f_stat::f_from_sums;
use crate::stats::moments::pivot_of;
use crate::stats::pair_t::pairt_from_moments;
use crate::stats::soa::{
    for_each_block, lanes, padded_len, push_sel_mask, GeneBlocks, MissMask, Real, LANE,
};
use crate::stats::two_sample::{equalvar_from_moments, welch_from_moments};
use crate::stats::wilcoxon::wilcoxon_from_counts;
use crate::stats::StatComputer;

/// Reusable per-thread scratch owned by the caller and shaped by the scorer:
/// the permutation-derived column lists, pair signs and selection bitsets of
/// the current batch live here so the batch loop performs no allocation.
#[derive(Debug, Default, Clone)]
pub struct ScorerScratch {
    /// Flattened column lists, one per (arrangement, class) slot.
    idx: Vec<usize>,
    /// Boundaries into `idx`: slot `s` is `idx[offsets[s]..offsets[s + 1]]`.
    offsets: Vec<usize>,
    /// Per-arrangement pair signs (±1.0) for paired t, `vals[j·pairs + p]`.
    vals: Vec<f64>,
    /// Per-slot selected-column bitsets, only built when the data has dirty
    /// genes.
    sel: Vec<u64>,
}

impl ScorerScratch {
    /// The ascending column list of one (arrangement, class) slot.
    #[inline]
    fn list(&self, slot: usize) -> &[usize] {
        &self.idx[self.offsets[slot]..self.offsets[slot + 1]]
    }

    /// The selected-column bitset of one slot (`words` words each).
    #[inline]
    fn sel(&self, slot: usize, words: usize) -> &[u64] {
        &self.sel[slot * words..(slot + 1) * words]
    }

    /// Collect, per arrangement, the ascending column list of every class in
    /// `classes` — slot `j·classes.len() + (c − classes.start)` — plus the
    /// matching selected-column bitsets when `miss` names dirty data. The
    /// once-per-batch O(n) step shared by every gather scorer.
    fn class_lists(
        &mut self,
        labels_bufs: &[Vec<u8>],
        classes: Range<usize>,
        miss: Option<&MissMask>,
    ) {
        self.idx.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.sel.clear();
        for labels in labels_bufs {
            for c in classes.clone() {
                for (col, &l) in labels.iter().enumerate() {
                    if l as usize == c {
                        self.idx.push(col);
                    }
                }
                self.offsets.push(self.idx.len());
                if let Some(miss) = miss {
                    push_sel_mask(&mut self.sel, miss.words(), labels, c as u8);
                }
            }
        }
    }
}

/// A prepared statistic evaluator: sufficient statistics cached at
/// construction, per-batch scoring through [`Scorer::begin_batch`] +
/// [`Scorer::score_tile`], one-shot scoring through [`Scorer::stats_into`].
pub trait Scorer: std::fmt::Debug + Send + Sync {
    /// Which implementation is active: `"scalar"` for the reference
    /// per-column path, otherwise the statistic's fast path name (with a
    /// `-f32` suffix in the reduced-precision mode).
    fn path(&self) -> &'static str;

    /// Allocate scratch for this scorer (callers keep one per thread).
    fn make_scratch(&self) -> ScorerScratch {
        ScorerScratch::default()
    }

    /// Derive the per-arrangement structures for a batch of label buffers.
    /// Must be called before [`Scorer::score_tile`] whenever the batch
    /// changes; the derivations live in `scratch`.
    fn begin_batch(&self, labels_bufs: &[Vec<u8>], scratch: &mut ScorerScratch);

    /// Score the genes in `genes` for **every** arrangement of the current
    /// batch, writing raw statistics gene-major and relative to the range:
    /// gene `g` under arrangement `j` lands at
    /// `out[(g − genes.start)·stride + j]`. The range may start and end
    /// anywhere. Per (gene, arrangement) the operation sequence is
    /// independent of the range and batch geometry, so results are bitwise
    /// identical across any split.
    fn score_tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &ScorerScratch,
        out: &mut [f64],
        stride: usize,
    );

    /// Score every gene under a single label arrangement into `out`
    /// (indexed by gene). Convenience for the non-batched paths (observed
    /// statistics, the serial reference loop, the minP ranks).
    fn stats_into(&self, labels: &[u8], scratch: &mut ScorerScratch, out: &mut [f64]) {
        let bufs = [labels.to_vec()];
        self.begin_batch(&bufs, scratch);
        let genes = out.len();
        self.score_tile(&bufs, 0..genes, scratch, out, 1);
    }
}

/// Build the scorer for a run: the method's fast sufficient-statistic
/// implementation under `Auto`/`Fast`, the reference scalar scorer under
/// `Scalar` (the `SPRINT_KERNEL` and `SPRINT_PRECISION` debug overrides are
/// applied first). `precision` selects the accumulation element of the fast
/// path; the scalar scorer is always `f64`. Emits a once-per-process stderr
/// note naming the chosen path per method, so a forced scalar or `f32` run
/// is never silent.
pub fn build_scorer<'a>(
    data: &'a Matrix,
    labels: &ClassLabels,
    method: TestMethod,
    choice: KernelChoice,
    precision: Precision,
) -> Box<dyn Scorer + 'a> {
    let computer = StatComputer::new(method, labels);
    let scorer: Box<dyn Scorer + 'a> = match choice.env_override() {
        KernelChoice::Scalar => Box::new(ScalarScorer { data, computer }),
        KernelChoice::Auto | KernelChoice::Fast => match precision.env_override() {
            Precision::F64 => fast_scorer::<f64>(data, method, computer.classes()),
            Precision::F32 => fast_scorer::<f32>(data, method, computer.classes()),
        },
    };
    note_scorer_path(method, scorer.path());
    scorer
}

/// Construct the method's fast scorer at one accumulation precision.
fn fast_scorer<R: Real>(data: &Matrix, method: TestMethod, k: usize) -> Box<dyn Scorer> {
    match method {
        TestMethod::T => Box::new(TwoSampleScorer::<R>::new(data, true)),
        TestMethod::TEqualVar => Box::new(TwoSampleScorer::<R>::new(data, false)),
        TestMethod::Wilcoxon => Box::new(WilcoxonScorer::<R>::new(data)),
        TestMethod::F => Box::new(FScorer::<R>::new(data, k)),
        TestMethod::PairT => Box::new(PairTScorer::<R>::new(data)),
        TestMethod::BlockF => Box::new(BlockFScorer::<R>::new(data, k)),
        TestMethod::Corr => Box::new(CorrScorer::<R>::new(data, k)),
        // tmax scores per-gene Welch t; only the maxT counting layer differs
        // (single-step global max), which is not the scorer's concern.
        TestMethod::TMax => Box::new(TwoSampleScorer::<R>::new(data, true)),
    }
}

/// Note (once per method/path pair per process) which scorer a run uses.
/// Mirrors the once-per-var `SPRINT_*` env warnings: a debug override or an
/// unexpected path is visible on stderr instead of silently changing the
/// performance profile.
fn note_scorer_path(method: TestMethod, path: &'static str) {
    use std::collections::HashSet;
    use std::sync::{Mutex, OnceLock};
    static NOTED: OnceLock<Mutex<HashSet<(&'static str, &'static str)>>> = OnceLock::new();
    let noted = NOTED.get_or_init(|| Mutex::new(HashSet::new()));
    if noted.lock().unwrap().insert((method.as_str(), path)) {
        eprintln!(
            "note: scoring test \"{}\" via the {} scorer",
            method.as_str(),
            path
        );
    }
}

/// The reference scalar scorer: one full O(n) per-column sweep per (gene,
/// arrangement) through [`StatComputer::compute`]. Always correct, never
/// fast — kept as the equivalence oracle behind `SPRINT_KERNEL=scalar`.
#[derive(Debug)]
pub struct ScalarScorer<'a> {
    data: &'a Matrix,
    computer: StatComputer,
}

impl<'a> ScalarScorer<'a> {
    /// Wrap a prepared matrix and its per-run dispatcher.
    pub fn new(data: &'a Matrix, computer: StatComputer) -> Self {
        ScalarScorer { data, computer }
    }
}

impl Scorer for ScalarScorer<'_> {
    fn path(&self) -> &'static str {
        "scalar"
    }

    fn begin_batch(&self, _labels_bufs: &[Vec<u8>], _scratch: &mut ScorerScratch) {}

    fn score_tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        _scratch: &ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        debug_assert!(labels_bufs.len() <= stride);
        for (row, g) in genes.enumerate() {
            let data = self.data.row(g);
            let slots = &mut out[row * stride..row * stride + labels_bufs.len()];
            for (slot, labels) in slots.iter_mut().zip(labels_bufs) {
                *slot = self.computer.compute(data, labels);
            }
        }
    }

    fn stats_into(&self, labels: &[u8], _scratch: &mut ScorerScratch, out: &mut [f64]) {
        for (g, slot) in out.iter_mut().enumerate() {
            *slot = self.computer.compute(self.data.row(g), labels);
        }
    }
}

/// Missing-cell bookkeeping of the scorers whose group counts depend on the
/// arrangement (two-sample, Wilcoxon, F, corr). Per-gene vectors are padded
/// to whole blocks; padding genes count as complete.
#[derive(Debug)]
struct Presence {
    /// Cells per row.
    cols: usize,
    /// Per gene: non-missing cell count.
    row_n: Vec<usize>,
    /// Per gene: no missing cells (skips the popcount correction).
    clean: Vec<bool>,
    /// Per block: every gene clean — the branch-free finishing path.
    clean_block: Vec<bool>,
    /// Per-gene missing-column bitsets.
    miss: MissMask,
    /// Any gene dirty (enables the per-arrangement selection bitsets).
    any_dirty: bool,
}

impl Presence {
    /// Empty bookkeeping for `genes` rows of `cols` cells; fill it with
    /// [`Presence::mark`] and [`Presence::push_row`], then [`Presence::seal`].
    fn new(genes: usize, cols: usize) -> Self {
        Presence {
            cols,
            row_n: Vec::with_capacity(padded_len(genes)),
            clean: Vec::with_capacity(padded_len(genes)),
            clean_block: Vec::new(),
            miss: MissMask::new(padded_len(genes), cols),
            any_dirty: false,
        }
    }

    /// Mark cell (`gene`, `col`) missing.
    fn mark(&mut self, gene: usize, col: usize) {
        self.miss.set(gene, col);
    }

    /// Close the next row with its non-missing count `n`.
    fn push_row(&mut self, n: usize) {
        self.row_n.push(n);
        self.clean.push(n == self.cols);
    }

    /// Pad to whole blocks and derive the per-block flags.
    fn seal(mut self) -> Self {
        let padded = padded_len(self.row_n.len());
        self.row_n.resize(padded, self.cols);
        self.clean.resize(padded, true);
        self.clean_block = self
            .clean
            .chunks(LANE)
            .map(|c| c.iter().all(|&x| x))
            .collect();
        self.any_dirty = self.clean.iter().any(|&c| !c);
        self
    }

    /// The selected-column bitset of a slot, empty when the data is clean.
    #[inline]
    fn sel<'s>(&self, scratch: &'s ScorerScratch, slot: usize) -> &'s [u64] {
        if self.any_dirty {
            scratch.sel(slot, self.miss.words())
        } else {
            &[]
        }
    }

    /// How many of `selected` columns (bitset `sel`) are present for `gene`.
    #[inline]
    fn present(&self, gene: usize, selected: usize, sel: &[u64]) -> usize {
        if self.clean[gene] {
            selected
        } else {
            selected - MissMask::overlap(sel, self.miss.gene(gene))
        }
    }

    /// The dirty-data mask for [`ScorerScratch::class_lists`].
    fn lists_miss(&self) -> Option<&MissMask> {
        self.any_dirty.then_some(&self.miss)
    }
}

/// Σ over `cols` of the block's lanes, and of their squares, in ascending
/// column order — the fused moment gather of the two-sample and F scorers.
#[inline]
fn sum_sq<R: Real>(block: &[[R; LANE]], cols: &[usize]) -> ([R; LANE], [R; LANE]) {
    let mut s = [R::ZERO; LANE];
    let mut q = [R::ZERO; LANE];
    for &c in cols {
        let v = &block[c];
        for i in 0..LANE {
            s[i] += v[i];
            q[i] += v[i] * v[i];
        }
    }
    (s, q)
}

/// Σ over `cols` of the block's lanes, in ascending column order.
#[inline]
fn sum<R: Real>(block: &[[R; LANE]], cols: &[usize]) -> [R; LANE] {
    let mut s = [R::ZERO; LANE];
    for &c in cols {
        let v = &block[c];
        for i in 0..LANE {
            s[i] += v[i];
        }
    }
    s
}

/// Fast scorer for `t` (Welch) and `t.equalvar`: pivot-shifted values in
/// gene blocks with per-gene totals S, Q; each arrangement needs one fused
/// sum/square-sum accumulation over its group-1 columns.
#[derive(Debug)]
pub struct TwoSampleScorer<R: Real> {
    welch: bool,
    /// Pivot-shifted values; missing cells hold `+0.0`.
    vals: GeneBlocks<R>,
    /// Per gene: S = Σ shifted non-missing values (ascending column order).
    total_sum: Vec<R>,
    /// Per gene: Q = Σ shifted² non-missing values.
    total_sumsq: Vec<R>,
    na: Presence,
}

impl<R: Real> TwoSampleScorer<R> {
    /// Cache sufficient statistics for a prepared matrix.
    pub fn new(data: &Matrix, welch: bool) -> Self {
        let cols = data.cols();
        let rows = data.rows();
        let mut vals = GeneBlocks::new(rows, cols);
        let mut total_sum = Vec::with_capacity(padded_len(rows));
        let mut total_sumsq = Vec::with_capacity(padded_len(rows));
        let mut na = Presence::new(rows, cols);
        for g in 0..rows {
            let row = data.row(g);
            let pivot = pivot_of(row);
            let mut s = R::ZERO;
            let mut q = R::ZERO;
            let mut n = 0usize;
            for (c, &v) in row.iter().enumerate() {
                if v.is_nan() {
                    na.mark(g, c); // cell stays +0.0 in the block
                } else {
                    let x = R::from_f64(v - pivot);
                    vals.set(c, g, x);
                    s += x;
                    q += x * x;
                    n += 1;
                }
            }
            total_sum.push(s);
            total_sumsq.push(q);
            na.push_row(n);
        }
        total_sum.resize(padded_len(rows), R::ZERO);
        total_sumsq.resize(padded_len(rows), R::ZERO);
        TwoSampleScorer {
            welch,
            vals,
            total_sum,
            total_sumsq,
            na: na.seal(),
        }
    }

    /// The statistic from the group moments.
    #[inline]
    fn combine(&self, n0: R, s0: R, q0: R, n1: R, s1: R, q1: R) -> f64 {
        if self.welch {
            welch_from_moments(n0, s0, q0, n1, s1, q1).to_f64()
        } else {
            equalvar_from_moments(n0, s0, q0, n1, s1, q1).to_f64()
        }
    }
}

impl<R: Real> Scorer for TwoSampleScorer<R> {
    fn path(&self) -> &'static str {
        if R::IS_F32 {
            "two-sample-f32"
        } else {
            "two-sample"
        }
    }

    fn begin_batch(&self, labels_bufs: &[Vec<u8>], scratch: &mut ScorerScratch) {
        scratch.class_lists(labels_bufs, 1..2, self.na.lists_miss());
    }

    fn score_tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        debug_assert!(labels_bufs.len() <= stride);
        let na = &self.na;
        for_each_block(genes, labels_bufs.len(), out, stride, |b, j, stats| {
            let idx = scratch.list(j);
            // Group-1 columns ascending (the scalar push order), the block's
            // genes at once in register accumulators.
            let (s1, q1) = sum_sq(self.vals.block(b), idx);
            let s = lanes(&self.total_sum, b);
            let q = lanes(&self.total_sumsq, b);
            if na.clean_block[b] {
                // Group sizes are arrangement-invariant for the block: one
                // guard, then a branch-free finish.
                let (n1, n0) = (idx.len(), na.cols - idx.len());
                if n0 < 2 || n1 < 2 {
                    stats.fill(f64::NAN);
                    return;
                }
                let (n0, n1) = (R::from_usize(n0), R::from_usize(n1));
                if self.welch {
                    for i in 0..LANE {
                        stats[i] =
                            welch_from_moments(n0, s[i] - s1[i], q[i] - q1[i], n1, s1[i], q1[i])
                                .to_f64();
                    }
                } else {
                    for i in 0..LANE {
                        stats[i] =
                            equalvar_from_moments(n0, s[i] - s1[i], q[i] - q1[i], n1, s1[i], q1[i])
                                .to_f64();
                    }
                }
                return;
            }
            let sel = na.sel(scratch, j);
            for i in 0..LANE {
                let g = b * LANE + i;
                let n1 = na.present(g, idx.len(), sel);
                let n0 = na.row_n[g] - n1;
                // Mirrors the scalar guard `g0.n < 2 || g1.n < 2` on the
                // post-NA-exclusion counts.
                stats[i] = if n0 < 2 || n1 < 2 {
                    f64::NAN
                } else {
                    self.combine(
                        R::from_usize(n0),
                        s[i] - s1[i],
                        q[i] - q1[i],
                        R::from_usize(n1),
                        s1[i],
                        q1[i],
                    )
                };
            }
        });
    }
}

/// Fast scorer for `wilcoxon`: lanes hold cached midranks, the group-1 sum
/// is the rank sum W, and the statistic is a pure function of W and the
/// group sizes — bitwise identical to the scalar path end to end.
#[derive(Debug)]
pub struct WilcoxonScorer<R: Real> {
    /// Midranks; missing cells hold `+0.0`.
    vals: GeneBlocks<R>,
    na: Presence,
}

impl<R: Real> WilcoxonScorer<R> {
    /// Cache the (already rank-transformed) rows.
    pub fn new(data: &Matrix) -> Self {
        let cols = data.cols();
        let rows = data.rows();
        let mut vals = GeneBlocks::new(rows, cols);
        let mut na = Presence::new(rows, cols);
        for g in 0..rows {
            let row = data.row(g);
            let mut n = 0usize;
            for (c, &v) in row.iter().enumerate() {
                if v.is_nan() {
                    na.mark(g, c);
                } else {
                    vals.set(c, g, R::from_f64(v));
                    n += 1;
                }
            }
            na.push_row(n);
        }
        WilcoxonScorer {
            vals,
            na: na.seal(),
        }
    }
}

impl<R: Real> Scorer for WilcoxonScorer<R> {
    fn path(&self) -> &'static str {
        if R::IS_F32 {
            "wilcoxon-f32"
        } else {
            "wilcoxon"
        }
    }

    fn begin_batch(&self, labels_bufs: &[Vec<u8>], scratch: &mut ScorerScratch) {
        scratch.class_lists(labels_bufs, 1..2, self.na.lists_miss());
    }

    fn score_tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        debug_assert!(labels_bufs.len() <= stride);
        let na = &self.na;
        for_each_block(genes, labels_bufs.len(), out, stride, |b, j, stats| {
            let idx = scratch.list(j);
            let w = sum(self.vals.block(b), idx);
            if na.clean_block[b] {
                let (n1, n0) = (idx.len(), na.cols - idx.len());
                if n0 == 0 || n1 == 0 {
                    stats.fill(f64::NAN);
                    return;
                }
                for i in 0..LANE {
                    stats[i] = wilcoxon_from_counts(n0, n1, w[i]).to_f64();
                }
                return;
            }
            let sel = na.sel(scratch, j);
            for i in 0..LANE {
                let g = b * LANE + i;
                let n1 = na.present(g, idx.len(), sel);
                let n0 = na.row_n[g] - n1;
                stats[i] = if n0 == 0 || n1 == 0 {
                    f64::NAN
                } else {
                    wilcoxon_from_counts(n0, n1, w[i]).to_f64()
                };
            }
        });
    }
}

/// Fast scorer for the one-way `f` statistic over k classes: per-class sums
/// (s_c, q_c) from pivot-shifted lanes reproduce the scalar between/within
/// decomposition bitwise; the grand mean is permutation-invariant and
/// cached.
#[derive(Debug)]
pub struct FScorer<R: Real> {
    k: usize,
    /// Pivot-shifted values; missing cells hold `+0.0`.
    vals: GeneBlocks<R>,
    /// Per gene: grand mean S/n of the non-missing values
    /// (permutation-invariant; garbage when `row_n == 0`, guarded by
    /// `n <= k`).
    grand_mean: Vec<R>,
    na: Presence,
}

impl<R: Real> FScorer<R> {
    /// Cache sufficient statistics; `k` is the class count of the design.
    pub fn new(data: &Matrix, k: usize) -> Self {
        let cols = data.cols();
        let rows = data.rows();
        let mut vals = GeneBlocks::new(rows, cols);
        let mut grand_mean = Vec::with_capacity(padded_len(rows));
        let mut na = Presence::new(rows, cols);
        for g in 0..rows {
            let row = data.row(g);
            let pivot = pivot_of(row);
            let mut s = R::ZERO;
            let mut n = 0usize;
            for (c, &v) in row.iter().enumerate() {
                if v.is_nan() {
                    na.mark(g, c);
                } else {
                    let x = R::from_f64(v - pivot);
                    vals.set(c, g, x);
                    s += x;
                    n += 1;
                }
            }
            grand_mean.push(s / R::from_usize(n));
            na.push_row(n);
        }
        grand_mean.resize(padded_len(rows), R::ZERO);
        FScorer {
            k,
            vals,
            grand_mean,
            na: na.seal(),
        }
    }
}

impl<R: Real> Scorer for FScorer<R> {
    fn path(&self) -> &'static str {
        if R::IS_F32 {
            "f-f32"
        } else {
            "f"
        }
    }

    fn begin_batch(&self, labels_bufs: &[Vec<u8>], scratch: &mut ScorerScratch) {
        // Class-major column lists: slot j·k + c, ascending — the order the
        // scalar path pushes class-c values.
        scratch.class_lists(labels_bufs, 0..self.k, self.na.lists_miss());
    }

    fn score_tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        debug_assert!(labels_bufs.len() <= stride);
        let k = self.k;
        let na = &self.na;
        if labels_bufs.is_empty() {
            return;
        }
        // Class sizes are permutation-invariant, so arrangement 0 tells all:
        // an empty class plants NaN markers in every lane and the
        // branch-free output sweep must stand down.
        let has_empty_class = (0..k).any(|c| scratch.list(c).is_empty());
        for_each_block(genes, labels_bufs.len(), out, stride, |b, j, stats| {
            let block = self.vals.block(b);
            let gm = lanes(&self.grand_mean, b);
            // A clean block runs branch-free: per-class counts are then
            // block-uniform. The arithmetic sequence per lane is the same
            // either way — the split is a control-flow specialization, not
            // a formula change.
            let clean = na.clean_block[b];
            let mut ssb = [R::ZERO; LANE];
            let mut ssw = [R::ZERO; LANE];
            // Classes in ascending order (the scalar combine order); within
            // a class, columns ascending (the scalar push order).
            for c in 0..k {
                let cls = scratch.list(j * k + c);
                let (sc, qc) = sum_sq(block, cls);
                if clean && !cls.is_empty() {
                    let ncf = R::from_usize(cls.len());
                    // Scalar sequence: d = mean − grand_mean,
                    // SSB += n·d², SSW += (q − s²/n).max(0).
                    for i in 0..LANE {
                        let d = sc[i] / ncf - gm[i];
                        ssb[i] += ncf * d * d;
                        ssw[i] += (qc[i] - sc[i] * sc[i] / ncf).max(R::ZERO);
                    }
                    continue;
                }
                let sel = na.sel(scratch, j * k + c);
                for i in 0..LANE {
                    let nc = na.present(b * LANE + i, cls.len(), sel);
                    if nc == 0 {
                        // Empty class ⇒ NaN; the marker survives later
                        // classes because NaN + x = NaN.
                        ssw[i] = R::nan();
                        continue;
                    }
                    let ncf = R::from_usize(nc);
                    let d = sc[i] / ncf - gm[i];
                    ssb[i] += ncf * d * d;
                    ssw[i] += (qc[i] - sc[i] * sc[i] / ncf).max(R::ZERO);
                }
            }
            if clean && !has_empty_class && na.cols > k {
                // Clean block: n is block-uniform and no NaN marker can have
                // been set, so the output sweep is branch-free too.
                for i in 0..LANE {
                    stats[i] = f_from_sums(k, na.cols, ssb[i], ssw[i]).to_f64();
                }
                return;
            }
            for i in 0..LANE {
                let n = na.row_n[b * LANE + i];
                // Mirrors the scalar `n <= k` degrees-of-freedom guard; the
                // non-missing count is permutation-invariant.
                stats[i] = if n <= k || ssw[i].is_nan() {
                    f64::NAN
                } else {
                    f_from_sums(k, n, ssb[i], ssw[i]).to_f64()
                };
            }
        });
    }
}

/// Fast scorer for `corr` (Pearson correlation of each gene row against the
/// numeric class codes): the x-side moments Σx, Σx² and the non-missing
/// count are permutation-invariant and cached; an arrangement only re-pairs
/// the y codes, so scoring needs one sum per class (Σ_c c·s_c gives Σxy)
/// plus, for clean blocks, two *scalar* class-size accumulators for the
/// y-side moments (class sizes are permutation-invariant). Dirty genes fix
/// the y moments with the same MissMask popcounts as the other scorers.
#[derive(Debug)]
pub struct CorrScorer<R: Real> {
    k: usize,
    /// Raw values; missing cells hold `+0.0` (bitwise-neutral in the sums
    /// feeding Σxy).
    vals: GeneBlocks<R>,
    /// Per gene: Σx over non-missing values (ascending column order).
    total_sum: Vec<R>,
    /// Per gene: Σx² over non-missing values.
    total_sumsq: Vec<R>,
    na: Presence,
}

impl<R: Real> CorrScorer<R> {
    /// Cache the x-side sufficient statistics; `k` is the class count.
    pub fn new(data: &Matrix, k: usize) -> Self {
        let cols = data.cols();
        let rows = data.rows();
        let mut vals = GeneBlocks::new(rows, cols);
        let mut total_sum = Vec::with_capacity(padded_len(rows));
        let mut total_sumsq = Vec::with_capacity(padded_len(rows));
        let mut na = Presence::new(rows, cols);
        for g in 0..rows {
            let row = data.row(g);
            let mut s = R::ZERO;
            let mut q = R::ZERO;
            let mut n = 0usize;
            for (c, &v) in row.iter().enumerate() {
                if v.is_nan() {
                    na.mark(g, c);
                } else {
                    let x = R::from_f64(v);
                    vals.set(c, g, x);
                    s += x;
                    q += x * x;
                    n += 1;
                }
            }
            total_sum.push(s);
            total_sumsq.push(q);
            na.push_row(n);
        }
        total_sum.resize(padded_len(rows), R::ZERO);
        total_sumsq.resize(padded_len(rows), R::ZERO);
        CorrScorer {
            k,
            vals,
            total_sum,
            total_sumsq,
            na: na.seal(),
        }
    }
}

impl<R: Real> Scorer for CorrScorer<R> {
    fn path(&self) -> &'static str {
        if R::IS_F32 {
            "corr-f32"
        } else {
            "corr"
        }
    }

    fn begin_batch(&self, labels_bufs: &[Vec<u8>], scratch: &mut ScorerScratch) {
        // Class-major column lists exactly as FScorer builds them.
        scratch.class_lists(labels_bufs, 0..self.k, self.na.lists_miss());
    }

    fn score_tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        debug_assert!(labels_bufs.len() <= stride);
        let k = self.k;
        let na = &self.na;
        for_each_block(genes, labels_bufs.len(), out, stride, |b, j, stats| {
            let block = self.vals.block(b);
            let clean = na.clean_block[b];
            let mut sxy = [R::ZERO; LANE];
            let mut syl = [R::ZERO; LANE];
            let mut syyl = [R::ZERO; LANE];
            // Class sizes are permutation-invariant, so for clean genes
            // Σy and Σy² collapse to two scalars shared by every lane.
            let mut sy_const = R::ZERO;
            let mut syy_const = R::ZERO;
            // Classes ascending; within a class, columns ascending.
            for c in 0..k {
                let cls = scratch.list(j * k + c);
                let sc = sum(block, cls);
                let cf = R::from_usize(c);
                for i in 0..LANE {
                    sxy[i] += cf * sc[i];
                }
                if clean {
                    let ncf = R::from_usize(cls.len());
                    sy_const += cf * ncf;
                    syy_const += cf * cf * ncf;
                    continue;
                }
                let sel = na.sel(scratch, j * k + c);
                for i in 0..LANE {
                    let ncf = R::from_usize(na.present(b * LANE + i, cls.len(), sel));
                    syl[i] += cf * ncf;
                    syyl[i] += cf * cf * ncf;
                }
            }
            let sx = lanes(&self.total_sum, b);
            let sxx = lanes(&self.total_sumsq, b);
            for i in 0..LANE {
                let n = na.row_n[b * LANE + i];
                // Mirrors the scalar guard: < 3 complete samples ⇒ NaN.
                if n < 3 {
                    stats[i] = f64::NAN;
                    continue;
                }
                let (sy, syy) = if clean {
                    (sy_const, syy_const)
                } else {
                    (syl[i], syyl[i])
                };
                let nf = R::from_usize(n);
                // The scalar formula verbatim: cov/√(vx·vy) with the same
                // non-positive-variance guards.
                let cov = nf * sxy[i] - sx[i] * sy;
                let vx = nf * sxx[i] - sx[i] * sx[i];
                let vy = nf * syy - sy * sy;
                stats[i] = if vx <= R::ZERO || vy <= R::ZERO {
                    f64::NAN
                } else {
                    (cov / (vx * vy).sqrt()).to_f64()
                };
            }
        });
    }
}

/// Fast scorer for `pairt`: per-pair base differences d⁰ = x₂ₚ₊₁ − x₂ₚ and
/// their square sum are cached; an arrangement only flips signs, so scoring
/// is **gather-free** — one ±1-scaled add per pair.
#[derive(Debug)]
pub struct PairTScorer<R: Real> {
    pairs: usize,
    /// Base differences, one column per pair; incomplete pairs hold `+0.0`
    /// (±1·0.0 is bitwise-neutral in the signed sum).
    diffs: GeneBlocks<R>,
    /// Per gene: Σ d⁰² over complete pairs (sign-invariant, so equal to the
    /// scalar accumulator's square sum bitwise).
    sumsq: Vec<R>,
    /// Per gene: complete-pair count (permutation-invariant).
    n: Vec<usize>,
}

impl<R: Real> PairTScorer<R> {
    /// Cache pair differences for a prepared matrix.
    pub fn new(data: &Matrix) -> Self {
        let pairs = data.cols() / 2;
        let rows = data.rows();
        let mut diffs = GeneBlocks::new(rows, pairs);
        let mut sumsq = Vec::with_capacity(padded_len(rows));
        let mut n_vec = Vec::with_capacity(padded_len(rows));
        for g in 0..rows {
            let row = data.row(g);
            let mut q = R::ZERO;
            let mut n = 0usize;
            for p in 0..pairs {
                let a = row[2 * p];
                let b = row[2 * p + 1];
                if !(a.is_nan() || b.is_nan()) {
                    let d = R::from_f64(b - a);
                    diffs.set(p, g, d);
                    q += d * d;
                    n += 1;
                }
            }
            sumsq.push(q);
            n_vec.push(n);
        }
        sumsq.resize(padded_len(rows), R::ZERO);
        n_vec.resize(padded_len(rows), 0);
        PairTScorer {
            pairs,
            diffs,
            sumsq,
            n: n_vec,
        }
    }
}

impl<R: Real> Scorer for PairTScorer<R> {
    fn path(&self) -> &'static str {
        if R::IS_F32 {
            "pairt-f32"
        } else {
            "pairt"
        }
    }

    fn begin_batch(&self, labels_bufs: &[Vec<u8>], scratch: &mut ScorerScratch) {
        // Pair signs: labels[2p] == 0 means the second member carries label 1
        // and the scalar difference is d⁰ = b − a (sign +1); otherwise −1.
        scratch.vals.clear();
        scratch.vals.reserve(labels_bufs.len() * self.pairs);
        for labels in labels_bufs {
            for p in 0..self.pairs {
                scratch
                    .vals
                    .push(if labels[2 * p] == 0 { 1.0 } else { -1.0 });
            }
        }
    }

    fn score_tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        debug_assert!(labels_bufs.len() <= stride);
        let pairs = self.pairs;
        for_each_block(genes, labels_bufs.len(), out, stride, |b, j, stats| {
            let block = self.diffs.block(b);
            let signs = &scratch.vals[j * pairs..(j + 1) * pairs];
            // ±1·d⁰ is bitwise the scalar's per-pair difference, and the
            // pair-order sum matches the scalar accumulator exactly.
            let mut s = [R::ZERO; LANE];
            for (d, &w) in block.iter().zip(signs) {
                let w = R::from_f64(w);
                for i in 0..LANE {
                    s[i] += w * d[i];
                }
            }
            let n = lanes(&self.n, b);
            let sumsq = lanes(&self.sumsq, b);
            for i in 0..LANE {
                stats[i] = if n[i] < 2 {
                    f64::NAN
                } else {
                    pairt_from_moments(n[i], s[i], sumsq[i]).to_f64()
                };
            }
        });
    }
}

/// Fast scorer for `blockf`: block sums, the grand totals, the correction
/// term, SS_total and SS_block depend only on the data (complete-block
/// exclusion is label-free), so they are cached; scoring an arrangement is
/// one sum per treatment over its columns plus an O(k) combine.
#[derive(Debug)]
pub struct BlockFScorer<R: Real> {
    k: usize,
    /// Pivot-shifted values; cells of incomplete blocks hold `+0.0` so every
    /// column can be added unconditionally.
    vals: GeneBlocks<R>,
    /// Per gene: complete-block count m.
    m_used: Vec<usize>,
    /// Per gene: C = (grand sum)²/(m·k). Garbage when `m_used == 0` — the
    /// `m_used < 2` guard keeps it unread.
    correction: Vec<R>,
    /// Per gene: SS_total = (grand Σx² − C).max(0).
    ss_total: Vec<R>,
    /// Per gene: SS_block = (Σ_b (block sum)²/k − C).max(0).
    ss_block: Vec<R>,
}

impl<R: Real> BlockFScorer<R> {
    /// Cache block partials; `k` is the treatment count of the design.
    pub fn new(data: &Matrix, k: usize) -> Self {
        let cols = data.cols();
        let rows = data.rows();
        let blocks = cols / k;
        let mut vals = GeneBlocks::new(rows, cols);
        let mut m_used = Vec::with_capacity(padded_len(rows));
        let mut correction = Vec::with_capacity(padded_len(rows));
        let mut ss_total = Vec::with_capacity(padded_len(rows));
        let mut ss_block = Vec::with_capacity(padded_len(rows));
        for g in 0..rows {
            let row = data.row(g);
            let pivot = pivot_of(row);
            let mut m = 0usize;
            let mut grand_sum = R::ZERO;
            let mut grand_sumsq = R::ZERO;
            let mut block_sum_sq = R::ZERO;
            for b in 0..blocks {
                let cells = &row[b * k..(b + 1) * k];
                if cells.iter().any(|v| v.is_nan()) {
                    continue;
                }
                let mut bsum = R::ZERO;
                // The scalar path accumulates per cell in block order; the
                // shifted values here are the same fl(v − pivot) bits.
                for (i, &v) in cells.iter().enumerate() {
                    let x = R::from_f64(v - pivot);
                    vals.set(b * k + i, g, x);
                    bsum += x;
                    grand_sum += x;
                    grand_sumsq += x * x;
                }
                block_sum_sq += bsum * bsum;
                m += 1;
            }
            m_used.push(m);
            let n = R::from_usize(m * k);
            let c = grand_sum * grand_sum / n;
            correction.push(c);
            ss_total.push((grand_sumsq - c).max(R::ZERO));
            ss_block.push((block_sum_sq / R::from_usize(k) - c).max(R::ZERO));
        }
        m_used.resize(padded_len(rows), 0);
        correction.resize(padded_len(rows), R::ZERO);
        ss_total.resize(padded_len(rows), R::ZERO);
        ss_block.resize(padded_len(rows), R::ZERO);
        BlockFScorer {
            k,
            vals,
            m_used,
            correction,
            ss_total,
            ss_block,
        }
    }
}

impl<R: Real> Scorer for BlockFScorer<R> {
    fn path(&self) -> &'static str {
        if R::IS_F32 {
            "blockf-f32"
        } else {
            "blockf"
        }
    }

    fn begin_batch(&self, labels_bufs: &[Vec<u8>], scratch: &mut ScorerScratch) {
        // Treatment-major column lists: slot j·k + t. Each treatment's
        // accumulator sees its cells in ascending column order, exactly as
        // the scalar cell walk feeds it.
        scratch.class_lists(labels_bufs, 0..self.k, None);
    }

    fn score_tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: Range<usize>,
        scratch: &ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        debug_assert!(labels_bufs.len() <= stride);
        let k = self.k;
        for_each_block(genes, labels_bufs.len(), out, stride, |b, j, stats| {
            let block = self.vals.block(b);
            // Σ_t (treatment sum)² in ascending treatment order — the scalar
            // iterator-sum sequence; excluded cells contribute a
            // bitwise-neutral +0.0 to whatever treatment their label names.
            let mut sq = [R::ZERO; LANE];
            for t in 0..k {
                let s = sum(block, scratch.list(j * k + t));
                for i in 0..LANE {
                    sq[i] += s[i] * s[i];
                }
            }
            let m = lanes(&self.m_used, b);
            let correction = lanes(&self.correction, b);
            let ss_block = lanes(&self.ss_block, b);
            let ss_total = lanes(&self.ss_total, b);
            for i in 0..LANE {
                stats[i] = if m[i] < 2 {
                    f64::NAN
                } else {
                    let ss_treat = (sq[i] / R::from_usize(m[i]) - correction[i]).max(R::ZERO);
                    blockf_from_sums(k, m[i], ss_treat, ss_block[i], ss_total[i]).to_f64()
                };
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ranks::midranks;
    use crate::stats::two_sample::{equalvar_t, welch_t};
    use crate::stats::wilcoxon::wilcoxon_from_ranks;

    fn labels_of(method: TestMethod, raw: Vec<u8>) -> ClassLabels {
        ClassLabels::new(raw, method).unwrap()
    }

    fn stats_for(scorer: &dyn Scorer, labels: &[u8], genes: usize) -> Vec<f64> {
        let mut scratch = scorer.make_scratch();
        let mut out = vec![f64::NAN; genes];
        scorer.stats_into(labels, &mut scratch, &mut out);
        out
    }

    fn assert_same_stat(fast: f64, scalar: f64, what: &str) {
        if scalar.is_nan() {
            assert!(fast.is_nan(), "{what}: fast {fast} vs scalar NaN");
        } else {
            assert!(
                (fast - scalar).abs() <= 1e-12 * scalar.abs().max(1.0),
                "{what}: fast {fast} vs scalar {scalar}"
            );
        }
    }

    #[test]
    fn builder_selects_fast_path_per_method_and_scalar_override() {
        let m = Matrix::from_vec(1, 6, vec![1.0, 2.0, 3.0, 4.0, 5.0, 7.0]).unwrap();
        let cases = [
            (TestMethod::T, vec![0u8, 0, 0, 1, 1, 1], "two-sample"),
            (TestMethod::TEqualVar, vec![0, 0, 0, 1, 1, 1], "two-sample"),
            (TestMethod::Wilcoxon, vec![0, 0, 0, 1, 1, 1], "wilcoxon"),
            (TestMethod::F, vec![0, 0, 1, 1, 2, 2], "f"),
            (TestMethod::PairT, vec![0, 1, 0, 1, 0, 1], "pairt"),
            (TestMethod::BlockF, vec![0, 1, 0, 1, 0, 1], "blockf"),
        ];
        for (method, raw, path) in cases {
            let labels = labels_of(method, raw);
            let fast = build_scorer(&m, &labels, method, KernelChoice::Auto, Precision::F64);
            assert_eq!(fast.path(), path, "{method:?}");
            let scalar = build_scorer(&m, &labels, method, KernelChoice::Scalar, Precision::F64);
            assert_eq!(scalar.path(), "scalar", "{method:?}");
        }
    }

    #[test]
    fn f32_precision_selects_the_f32_fast_paths() {
        let m = Matrix::from_vec(1, 6, vec![1.0, 2.0, 3.0, 4.0, 5.0, 7.0]).unwrap();
        let cases = [
            (TestMethod::T, vec![0u8, 0, 0, 1, 1, 1], "two-sample-f32"),
            (
                TestMethod::TEqualVar,
                vec![0, 0, 0, 1, 1, 1],
                "two-sample-f32",
            ),
            (TestMethod::Wilcoxon, vec![0, 0, 0, 1, 1, 1], "wilcoxon-f32"),
            (TestMethod::F, vec![0, 0, 1, 1, 2, 2], "f-f32"),
            (TestMethod::PairT, vec![0, 1, 0, 1, 0, 1], "pairt-f32"),
            (TestMethod::BlockF, vec![0, 1, 0, 1, 0, 1], "blockf-f32"),
        ];
        for (method, raw, path) in cases {
            let labels = labels_of(method, raw.clone());
            let fast = build_scorer(&m, &labels, method, KernelChoice::Auto, Precision::F32);
            assert_eq!(fast.path(), path, "{method:?}");
            // A statistic still comes out, close to the f64 one on benign data.
            let f32_stat = stats_for(fast.as_ref(), &raw, 1)[0];
            let f64_scorer = build_scorer(&m, &labels, method, KernelChoice::Auto, Precision::F64);
            let f64_stat = stats_for(f64_scorer.as_ref(), &raw, 1)[0];
            assert!(
                (f32_stat - f64_stat).abs() <= 1e-3 * f64_stat.abs().max(1.0),
                "{method:?}: f32 {f32_stat} vs f64 {f64_stat}"
            );
            // The scalar override wins over the precision request.
            let scalar = build_scorer(&m, &labels, method, KernelChoice::Scalar, Precision::F32);
            assert_eq!(scalar.path(), "scalar", "{method:?}");
        }
    }

    #[test]
    fn welch_and_equalvar_match_scalar() {
        let row = vec![3.5, -1.25, 7.0, 0.5, 2.25, -4.0, 9.5, 1.0];
        let m = Matrix::from_vec(1, 8, row.clone()).unwrap();
        for welch in [true, false] {
            let scorer = TwoSampleScorer::<f64>::new(&m, welch);
            for labels in [
                [0u8, 0, 0, 0, 1, 1, 1, 1],
                [1, 0, 1, 0, 1, 0, 1, 0],
                [1, 1, 0, 0, 0, 0, 1, 1],
            ] {
                let fast = stats_for(&scorer, &labels, 1)[0];
                let scalar = if welch {
                    welch_t(&row, &labels)
                } else {
                    equalvar_t(&row, &labels)
                };
                assert_same_stat(fast, scalar, "two-sample");
            }
        }
    }

    #[test]
    fn na_rows_stay_on_the_fast_path_with_adjusted_counts() {
        let row = vec![3.5, f64::NAN, 7.0, 0.5, f64::NAN, -4.0, 9.5, 1.0];
        let m = Matrix::from_vec(1, 8, row.clone()).unwrap();
        for welch in [true, false] {
            let scorer = TwoSampleScorer::<f64>::new(&m, welch);
            for labels in [
                [0u8, 0, 0, 0, 1, 1, 1, 1],
                [1, 0, 1, 0, 1, 0, 1, 0],
                [1, 1, 1, 0, 0, 0, 0, 1],
            ] {
                let fast = stats_for(&scorer, &labels, 1)[0];
                let scalar = if welch {
                    welch_t(&row, &labels)
                } else {
                    equalvar_t(&row, &labels)
                };
                assert_same_stat(fast, scalar, "two-sample NA");
            }
        }
    }

    #[test]
    fn wilcoxon_is_bitwise_identical_to_scalar() {
        let data = [0.3, 2.0, -1.0, 7.0, 0.5, 4.0, 2.0, -3.5];
        let mut ranks = midranks(&data);
        ranks[3] = f64::NAN; // a missing cell after ranking exercises the dirty path
        let m = Matrix::from_vec(1, 8, ranks.clone()).unwrap();
        let scorer = WilcoxonScorer::<f64>::new(&m);
        for labels in [
            [0u8, 0, 0, 0, 1, 1, 1, 1],
            [1, 0, 1, 0, 1, 0, 1, 0],
            [0, 1, 1, 1, 1, 1, 1, 1],
        ] {
            let fast = stats_for(&scorer, &labels, 1)[0];
            let scalar = wilcoxon_from_ranks(&ranks, &labels);
            assert_eq!(fast.to_bits(), scalar.to_bits(), "{fast} vs {scalar}");
        }
    }

    #[test]
    fn f_matches_scalar_bitwise_with_and_without_na() {
        use crate::stats::f_stat::oneway_f;
        let rows = [
            vec![1.0, 2.0, 4.0, 6.0, 5.0, 9.0],
            vec![1.0, f64::NAN, 4.0, 6.0, 5.0, 9.0],
            vec![7.0; 6],
        ];
        for row in &rows {
            let m = Matrix::from_vec(1, 6, row.clone()).unwrap();
            let scorer = FScorer::<f64>::new(&m, 3);
            for labels in [[0u8, 0, 1, 1, 2, 2], [2, 1, 0, 2, 1, 0], [0, 1, 2, 0, 1, 2]] {
                let fast = stats_for(&scorer, &labels, 1)[0];
                let scalar = oneway_f(row, &labels, 3);
                if scalar.is_nan() {
                    assert!(fast.is_nan());
                } else {
                    assert_eq!(fast.to_bits(), scalar.to_bits(), "{fast} vs {scalar}");
                }
            }
        }
    }

    #[test]
    fn pairt_matches_scalar_bitwise_with_and_without_na() {
        use crate::stats::pair_t::paired_t;
        let rows = [
            vec![1.0, 2.0, 3.0, 5.0, 2.0, 4.0, 5.0, 9.0],
            vec![1.0, 2.0, f64::NAN, 5.0, 2.0, 4.0, 5.0, 9.0],
            vec![0.0, 1.0, 5.0, 6.0, -3.0, -2.0, 1.0, 2.0],
        ];
        for row in &rows {
            let m = Matrix::from_vec(1, 8, row.clone()).unwrap();
            let scorer = PairTScorer::<f64>::new(&m);
            for labels in [
                [0u8, 1, 0, 1, 0, 1, 0, 1],
                [1, 0, 1, 0, 1, 0, 1, 0],
                [1, 0, 0, 1, 0, 1, 1, 0],
            ] {
                let fast = stats_for(&scorer, &labels, 1)[0];
                let scalar = paired_t(row, &labels);
                if scalar.is_nan() {
                    assert!(fast.is_nan());
                } else {
                    assert_eq!(fast.to_bits(), scalar.to_bits(), "{fast} vs {scalar}");
                }
            }
        }
    }

    #[test]
    fn blockf_matches_scalar_bitwise_with_and_without_na() {
        use crate::stats::block_f::block_f;
        let rows = [
            vec![1.0, 2.3, 2.0, 4.1, 3.0, 6.2],
            vec![1.0, f64::NAN, 2.0, 4.1, 3.0, 6.2],
            vec![1.0, 2.0, 11.0, 12.0, 21.0, 22.0],
        ];
        for row in &rows {
            let m = Matrix::from_vec(1, 6, row.clone()).unwrap();
            let scorer = BlockFScorer::<f64>::new(&m, 2);
            for labels in [[0u8, 1, 0, 1, 0, 1], [1, 0, 1, 0, 1, 0], [0, 1, 1, 0, 0, 1]] {
                let fast = stats_for(&scorer, &labels, 1)[0];
                let scalar = block_f(row, &labels, 2);
                if scalar.is_nan() {
                    assert!(fast.is_nan());
                } else {
                    assert_eq!(fast.to_bits(), scalar.to_bits(), "{fast} vs {scalar}");
                }
            }
        }
    }

    #[test]
    fn batch_tile_is_bitwise_identical_to_one_at_a_time() {
        let data = vec![
            3.5,
            -1.25,
            7.0,
            0.5,
            2.25,
            -4.0,
            9.5,
            1.0, // gene 0: clean
            10.5,
            f64::NAN,
            9.0,
            10.0,
            14.25,
            13.0,
            15.5,
            14.0, // gene 1: NA
            0.3,
            2.0,
            -1.0,
            7.0,
            0.5,
            4.0,
            2.0,
            -3.5, // gene 2: clean
        ];
        let m = Matrix::from_vec(3, 8, data).unwrap();
        let arrangements: [[u8; 8]; 4] = [
            [0, 0, 0, 0, 1, 1, 1, 1],
            [1, 0, 1, 0, 1, 0, 1, 0],
            [1, 1, 0, 0, 0, 0, 1, 1],
            [0, 1, 1, 0, 1, 0, 0, 1],
        ];
        let scorers: Vec<Box<dyn Scorer>> = vec![
            Box::new(TwoSampleScorer::<f64>::new(&m, true)),
            Box::new(TwoSampleScorer::<f64>::new(&m, false)),
            Box::new(WilcoxonScorer::<f64>::new(&m)),
            Box::new(FScorer::<f64>::new(&m, 2)),
            Box::new(PairTScorer::<f64>::new(&m)),
            Box::new(BlockFScorer::<f64>::new(&m, 2)),
        ];
        let bufs: Vec<Vec<u8>> = arrangements.iter().map(|a| a.to_vec()).collect();
        for scorer in &scorers {
            let stride = bufs.len();
            let mut scratch = scorer.make_scratch();
            scorer.begin_batch(&bufs, &mut scratch);
            let mut batched = vec![f64::NAN; 3 * stride];
            // Two ranges, the second starting inside the first block.
            scorer.score_tile(&bufs, 0..2, &scratch, &mut batched, stride);
            scorer.score_tile(&bufs, 2..3, &scratch, &mut batched[2 * stride..], stride);
            for (j, labels) in arrangements.iter().enumerate() {
                let single = stats_for(scorer.as_ref(), labels, 3);
                for g in 0..3 {
                    assert_eq!(
                        batched[g * stride + j].to_bits(),
                        single[g].to_bits(),
                        "{} gene {g} perm {j}",
                        scorer.path()
                    );
                }
            }
        }
    }

    #[test]
    fn constant_row_gives_nan_like_scalar() {
        let row = vec![5.0; 6];
        let m = Matrix::from_vec(1, 6, row.clone()).unwrap();
        let scorer = TwoSampleScorer::<f64>::new(&m, true);
        let labels = [0u8, 0, 0, 1, 1, 1];
        assert!(stats_for(&scorer, &labels, 1)[0].is_nan());
        assert!(welch_t(&row, &labels).is_nan());
    }

    #[test]
    fn degenerate_group_sizes_give_nan() {
        let m = Matrix::from_vec(1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let t = TwoSampleScorer::<f64>::new(&m, true);
        // One group-1 column: t undefined.
        assert!(stats_for(&t, &[0, 0, 0, 1], 1)[0].is_nan());
        // Wilcoxon allows 1 but not 0.
        let w = WilcoxonScorer::<f64>::new(&m);
        assert!(stats_for(&w, &[0, 0, 0, 0], 1)[0].is_nan());
        assert!(stats_for(&w, &[0, 0, 0, 1], 1)[0].is_finite());
    }

    #[test]
    fn all_na_row_scores_nan_on_the_fast_path() {
        let m = Matrix::from_vec(1, 4, vec![f64::NAN; 4]).unwrap();
        let labels = [0u8, 0, 1, 1];
        for scorer in [
            Box::new(TwoSampleScorer::<f64>::new(&m, true)) as Box<dyn Scorer>,
            Box::new(WilcoxonScorer::<f64>::new(&m)),
            Box::new(FScorer::<f64>::new(&m, 2)),
            Box::new(PairTScorer::<f64>::new(&m)),
            Box::new(BlockFScorer::<f64>::new(&m, 2)),
        ] {
            assert!(
                stats_for(scorer.as_ref(), &labels, 1)[0].is_nan(),
                "{}",
                scorer.path()
            );
        }
    }

    #[test]
    fn pivot_shift_keeps_large_offsets_stable() {
        let base = 1.0e8;
        let row: Vec<f64> = [1.0, 2.0, 3.0, 7.0, 8.0, 9.5]
            .iter()
            .map(|v| v + base)
            .collect();
        let centered: Vec<f64> = row.iter().map(|v| v - base).collect();
        let m = Matrix::from_vec(1, 6, row).unwrap();
        let scorer = TwoSampleScorer::<f64>::new(&m, true);
        let labels = [0u8, 0, 0, 1, 1, 1];
        let fast = stats_for(&scorer, &labels, 1)[0];
        let reference = welch_t(&centered, &labels);
        assert!((fast - reference).abs() < 1e-9, "{fast} vs {reference}");
    }

    #[test]
    fn block_walk_crosses_block_boundaries_bitwise() {
        // Many blocks plus a partial last block inside one score_tile call;
        // results must match the per-gene path bitwise.
        let genes = 16 * LANE + 5;
        let cols = 6;
        let mut data = Vec::with_capacity(genes * cols);
        for g in 0..genes {
            for c in 0..cols {
                let v = ((g * 31 + c * 7) % 23) as f64 * 0.5 - 3.0;
                data.push(if (g + c) % 29 == 0 { f64::NAN } else { v });
            }
        }
        let m = Matrix::from_vec(genes, cols, data).unwrap();
        let labels = vec![0u8, 1, 0, 1, 0, 1];
        let scorer = TwoSampleScorer::<f64>::new(&m, true);
        let bufs = [labels.clone()];
        let mut scratch = scorer.make_scratch();
        scorer.begin_batch(&bufs, &mut scratch);
        let mut all = vec![f64::NAN; genes];
        scorer.score_tile(&bufs, 0..genes, &scratch, &mut all, 1);
        let single = stats_for(&scorer, &labels, genes);
        for g in 0..genes {
            assert_eq!(all[g].to_bits(), single[g].to_bits(), "gene {g}");
        }
    }
}
