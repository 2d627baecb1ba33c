//! Tile-geometry invariance of the fast scorers.
//!
//! The fast path packs genes into blocks of `LANE` and scores gene ranges
//! block by block; a range may start or end inside a block (window scoring
//! splits anywhere). These tests pin the contract that makes every engine
//! geometry interchangeable: the per-(gene, arrangement) operation sequence
//! is independent of where range boundaries fall, so splitting a gene range
//! at **any** points — including gene counts that are not a multiple of the
//! block width, windows that start and end inside a block, and odd sample
//! counts — reproduces the unsplit result bitwise, NA cells included.

use proptest::prelude::*;

use sprint_core::labels::ClassLabels;
use sprint_core::matrix::Matrix;
use sprint_core::options::{KernelChoice, PmaxtOptions, Precision, TestMethod};
use sprint_core::perm::build_generator;
use sprint_core::stats::prepare_matrix;
use sprint_core::stats::scorer::build_scorer;
use sprint_core::stats::soa::LANE;

/// Valid labels per method. `a`/`b`/`c` are deliberately allowed to be odd
/// so the two-sample and `f` cells exercise lane remainders; the paired and
/// block designs have structural sample counts (pairs / complete blocks).
fn labels_for(method: TestMethod, a: usize, b: usize, c: usize) -> Vec<u8> {
    match method {
        TestMethod::T
        | TestMethod::TEqualVar
        | TestMethod::Wilcoxon
        | TestMethod::Corr
        | TestMethod::TMax => {
            let mut v = vec![0u8; a];
            v.extend(std::iter::repeat_n(1u8, b));
            v
        }
        TestMethod::F => {
            let mut v = vec![0u8; a];
            v.extend(std::iter::repeat_n(1u8, b));
            v.extend(std::iter::repeat_n(2u8, c));
            v
        }
        TestMethod::PairT => (0..a + b).flat_map(|_| [0u8, 1u8]).collect(),
        TestMethod::BlockF => (0..a + b).flat_map(|_| [0u8, 1u8, 2u8]).collect(),
    }
}

/// One generated case: method index, gene count, two split points, cell
/// values, NA mask, identity labels and permutation count.
type Case = (
    usize,
    usize,
    (usize, usize),
    Vec<f64>,
    Vec<bool>,
    Vec<u8>,
    u64,
);

fn geometry() -> impl Strategy<Value = Case> {
    // Gene counts span up to 17 blocks and are rarely a multiple of LANE;
    // odd a/b/c give odd sample counts.
    (
        0usize..8,
        3usize..8,
        3usize..8,
        2usize..5,
        1usize..(17 * LANE + 5),
    )
        .prop_flat_map(|(method_sel, a, b, c, genes)| {
            let labels = labels_for(TestMethod::ALL[method_sel], a, b, c);
            let cells = genes * labels.len();
            (
                Just(method_sel),
                Just(genes),
                // Two split points: the middle window usually starts and
                // ends inside a block.
                (0usize..(genes + 1), 0usize..(genes + 1)),
                proptest::collection::vec(-40.0f64..120.0, cells),
                proptest::collection::vec(proptest::bool::weighted(0.15), cells),
                Just(labels),
                4u64..12, // batch of arrangements
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splitting the gene range into three windows at arbitrary points
    /// (windows that start inside a block included), and scoring one
    /// arrangement at a time through `stats_into`, are both bitwise
    /// identical to one full-width `score_tile` call.
    #[test]
    fn split_tiles_and_single_arrangements_match_full_tile_bitwise(
        (method_sel, genes, cuts, mut values, na_mask, raw_labels, b) in geometry()
    ) {
        for (v, &is_na) in values.iter_mut().zip(&na_mask) {
            if is_na {
                *v = f64::NAN;
            }
        }
        let method = TestMethod::ALL[method_sel];
        let cols = raw_labels.len();
        let m = Matrix::from_vec(genes, cols, values).unwrap();
        let labels = ClassLabels::new(raw_labels, method).unwrap();
        let opts = PmaxtOptions::default().test(method).permutations(b);
        let prepared = prepare_matrix(&m, method, false);
        let scorer = build_scorer(
            &prepared,
            &labels,
            method,
            KernelChoice::Fast,
            Precision::F64,
        );

        // A batch of genuine permutations of the labels.
        let mut gen = build_generator(&labels, &opts, b).unwrap();
        let mut bufs = Vec::new();
        let mut buf = vec![0u8; cols];
        while gen.next_into(&mut buf) {
            bufs.push(buf.clone());
        }
        prop_assert!(!bufs.is_empty());
        let stride = bufs.len();

        // Reference: one score_tile over the whole gene range.
        let mut scratch = scorer.make_scratch();
        scorer.begin_batch(&bufs, &mut scratch);
        let mut full = vec![0.0f64; genes * stride];
        scorer.score_tile(&bufs, 0..genes, &scratch, &mut full, stride);

        // Same batch, gene range split into three windows; each window's
        // output starts at its own first gene.
        let (lo, hi) = (cuts.0.min(cuts.1), cuts.0.max(cuts.1));
        let mut split_out = vec![0.0f64; genes * stride];
        for window in [0..lo, lo..hi, hi..genes] {
            let out = &mut split_out[window.start * stride..];
            scorer.score_tile(&bufs, window, &scratch, out, stride);
        }
        for (g, (f, s)) in full.iter().zip(&split_out).enumerate() {
            prop_assert_eq!(
                f.to_bits(), s.to_bits(),
                "split at {}/{} diverges at slot {} ({:?}, {} genes, {} cols)",
                lo, hi, g, method, genes, cols
            );
        }

        // Each arrangement scored alone matches its column of the batch.
        let mut one = vec![0.0f64; genes];
        for (j, labelling) in bufs.iter().enumerate() {
            scorer.stats_into(labelling, &mut scratch, &mut one);
            for g in 0..genes {
                prop_assert_eq!(
                    one[g].to_bits(), full[g * stride + j].to_bits(),
                    "arrangement {} gene {} diverges ({:?})", j, g, method
                );
            }
        }
    }
}
