//! The order-major count pass of the batched engine against the unbatched
//! reference loop [`MaxTContext::accumulate`]: raw and adjusted counts must
//! be identical for any gene count, batch size, side and counting rule.

use proptest::prelude::*;

use super::{CountAccumulator, MaxTContext, EPSILON};
use crate::labels::ClassLabels;
use crate::matrix::Matrix;
use crate::options::{KernelChoice, PmaxtOptions, Precision, TestMethod};
use crate::perm::build_generator;
use crate::side::Side;
use crate::stats::prepare_matrix;
use crate::stats::scorer::{Scorer, ScorerScratch};
use crate::stats::soa::LANE;

const SIDES: [Side; 3] = [Side::Abs, Side::Upper, Side::Lower];

/// Counts of the unbatched loop and of the batched engine over the same
/// permutation stream.
fn both_counts(
    ctx: &MaxTContext<'_>,
    labels: &ClassLabels,
    opts: &PmaxtOptions,
    b: u64,
    batch: usize,
) -> (CountAccumulator, CountAccumulator) {
    let mut reference = CountAccumulator::new(ctx.genes());
    let mut gen = build_generator(labels, opts, b).unwrap();
    ctx.accumulate(&mut *gen, u64::MAX, &mut reference);
    let mut batched = CountAccumulator::new(ctx.genes());
    let mut gen = build_generator(labels, opts, b).unwrap();
    let done = ctx.accumulate_batched(&mut *gen, u64::MAX, batch, &mut batched);
    assert_eq!(done, reference.n_perm);
    (reference, batched)
}

/// A scorer whose statistics are drawn from a palette of *scores* by a hash
/// of (gene, arrangement). The identity arrangement gets each gene's
/// observed score; the palette holds every observed score, that score minus
/// [`EPSILON`] exactly (the count threshold), the next float below the
/// threshold, and NaN (scored −∞). Scores are mapped back to statistics
/// through the side, so `side.score` returns the palette value bit for bit.
#[derive(Debug)]
struct PaletteScorer {
    identity: Vec<u8>,
    observed: Vec<f64>,
    palette: Vec<f64>,
    side: Side,
    seed: u64,
}

impl PaletteScorer {
    fn stat(&self, gene: usize, labels: &[u8]) -> f64 {
        let score = if labels == self.identity.as_slice() {
            self.observed[gene]
        } else {
            let mut h = self.seed ^ (gene as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for &l in labels {
                h = (h ^ u64::from(l)).wrapping_mul(0x0100_0000_01b3);
            }
            self.palette[(h >> 17) as usize % self.palette.len()]
        };
        match self.side {
            Side::Lower => -score,
            Side::Abs | Side::Upper => score,
        }
    }
}

impl Scorer for PaletteScorer {
    fn path(&self) -> &'static str {
        "palette"
    }

    fn begin_batch(&self, _labels_bufs: &[Vec<u8>], _scratch: &mut ScorerScratch) {}

    fn score_tile(
        &self,
        labels_bufs: &[Vec<u8>],
        genes: std::ops::Range<usize>,
        _scratch: &ScorerScratch,
        out: &mut [f64],
        stride: usize,
    ) {
        for (row, g) in genes.enumerate() {
            for (j, labels) in labels_bufs.iter().enumerate() {
                out[row * stride + j] = self.stat(g, labels);
            }
        }
    }
}

/// Valid identity labels per method with `a`/`b`/`c` members per class (or
/// `a + b` pairs/blocks for the paired designs).
fn labels_for(method: TestMethod, a: usize, b: usize, c: usize) -> Vec<u8> {
    let mut v = vec![0u8; a];
    match method {
        TestMethod::F => {
            v.extend(std::iter::repeat_n(1u8, b));
            v.extend(std::iter::repeat_n(2u8, c));
            v
        }
        TestMethod::PairT => (0..a + b).flat_map(|_| [0u8, 1u8]).collect(),
        TestMethod::BlockF => (0..a + b).flat_map(|_| [0u8, 1u8, 2u8]).collect(),
        _ => {
            v.extend(std::iter::repeat_n(1u8, b));
            v
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Counts exactly at the `obs − EPSILON` threshold, one ulp below it,
    /// ties between observed scores and −∞ from NaN statistics (observed and
    /// permuted), under both step-down and single-step counting.
    #[test]
    fn count_pass_matches_unbatched_at_exact_thresholds(
        (genes, picks, seed, batch, b, side_sel, single_step) in
            (1usize..(5 * LANE + 3)).prop_flat_map(|genes| (
                Just(genes),
                proptest::collection::vec(0usize..5, genes),
                any::<u64>(),
                1usize..301,
                2u64..400,
                0usize..3,
                any::<bool>(),
            ))
    ) {
        let side = SIDES[side_sel];
        // Observed scores with ties; index 4 is a NaN statistic (−∞).
        let base = [0.5f64, 1.0, 2.0, 2.0, f64::NAN];
        let observed: Vec<f64> = picks.iter().map(|&p| base[p]).collect();
        let mut palette = vec![f64::NAN, 0.0, 7.5];
        for &s in &base[..4] {
            palette.extend([s, s - EPSILON, (s - EPSILON).next_down()]);
        }
        let raw: Vec<u8> = (0..12).map(|c| u8::from(c >= 6)).collect();
        let labels = ClassLabels::new(raw.clone(), TestMethod::T).unwrap();
        let scorer = PaletteScorer { identity: raw, observed, palette, side, seed };
        let ctx = MaxTContext::from_scorer(Box::new(scorer), &labels, side, single_step, (genes, 12));
        let opts = PmaxtOptions::default().permutations(b);
        let (reference, batched) = both_counts(&ctx, &labels, &opts, b, batch);
        prop_assert_eq!(batched, reference, "genes={} batch={} b={}", genes, batch, b);
    }

    /// The real fast scorers over data whose blocks mix complete genes,
    /// genes with missing cells and non-computable (constant or all-missing)
    /// genes, for every statistic (`tmax` counts single-step).
    #[test]
    fn count_pass_matches_unbatched_on_fast_scorers(
        (method_sel, genes, values, na, batch, b, side_sel) in
            (0usize..8, 1usize..(4 * LANE + 3), 3usize..6, 3usize..6)
                .prop_flat_map(|(method_sel, genes, a, c)| {
                    let cols = labels_for(TestMethod::ALL[method_sel], a, c, 3).len();
                    (
                        Just((method_sel, a, c)),
                        Just(genes),
                        proptest::collection::vec(-20.0f64..20.0, genes * cols),
                        proptest::collection::vec(proptest::bool::weighted(0.08), genes * cols),
                        1usize..301,
                        2u64..300,
                        0usize..3,
                    )
                })
    ) {
        let (method_sel, a, c) = method_sel;
        let method = TestMethod::ALL[method_sel];
        let raw = labels_for(method, a, c, 3);
        let cols = raw.len();
        let mut cells = values;
        for (v, &missing) in cells.iter_mut().zip(&na) {
            if missing {
                *v = f64::NAN;
            }
        }
        // Gene 1 constant and gene 3 all missing: NaN statistics, −∞ scores.
        if genes > 1 {
            cells[cols..2 * cols].fill(4.25);
        }
        if genes > 3 {
            cells[3 * cols..4 * cols].fill(f64::NAN);
        }
        let m = Matrix::from_vec(genes, cols, cells).unwrap();
        let labels = ClassLabels::new(raw, method).unwrap();
        let opts = PmaxtOptions::default().test(method).permutations(b);
        let prepared = prepare_matrix(&m, method, false);
        let side = SIDES[side_sel];
        let ctx = MaxTContext::with_scorer(
            &prepared,
            &labels,
            method,
            side,
            KernelChoice::Fast,
            Precision::F64,
        );
        let (reference, batched) = both_counts(&ctx, &labels, &opts, b, batch);
        prop_assert_eq!(
            batched, reference,
            "{:?} {:?} genes={} batch={} b={}", method, side, genes, batch, b
        );
    }
}
