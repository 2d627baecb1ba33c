//! The bootstrap workload (`workload = "bootstrap"`): case-resampling
//! confidence intervals for the per-gene two-group mean difference, built on
//! the same [`ResamplingStream`](crate::perm::ResamplingStream) seam as the
//! permutation workload.
//!
//! Each draw from the bootstrap stream is an index vector: slot `i` names
//! the source column resampled into position `i`, and columns keep their
//! class labels (case resampling). Replicate `j ∈ [1, B)` of gene `g` is the
//! group-mean difference over the drawn columns; the identity draw at index
//! 0 is the observed statistic θ̂. Per-replicate values depend only on
//! `(seed, j, data)` — never on how the replicate span was partitioned — so
//! serial, multi-threaded and gene-sharded runs are bitwise identical by
//! construction, the same contract the permutation engine offers.
//!
//! Two interval families per gene:
//!
//! - **percentile**: empirical 2.5 / 97.5 % quantiles of the replicate
//!   distribution (type-7 interpolation);
//! - **BCa** (bias-corrected and accelerated, Efron 1987): the percentile
//!   levels shifted by the bias correction z₀ = Φ⁻¹(#{θ* < θ̂}/R) and the
//!   jackknife acceleration a = Σd³ / (6·(Σd²)^{3/2}), d the leave-one-
//!   column-out deviations.

pub mod normal;

use std::ops::Range;

use crate::error::{Error, Result};
use crate::labels::ClassLabels;
use crate::matrix::Matrix;
use crate::maxt::engine::{split_chunk, EngineConfig};
use crate::options::{Mode, PmaxtOptions, Precision, TestMethod, Workload};
use crate::perm::arrangement::{build_stream, resolve_draw_count};
use crate::perm::bootstrap::MAX_BOOTSTRAP_COLS;
use normal::{inv_phi, phi};

/// Two-sided confidence level of the reported intervals.
pub const CI_LEVEL: f64 = 0.95;

/// Per-gene bootstrap estimates for a gene slice (`offset` genes are skipped
/// before the first reported row; a full run has `offset = 0`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BootstrapResult {
    /// First gene row this result covers.
    pub offset: usize,
    /// Observed statistic θ̂ per covered gene (group-1 mean − group-0 mean).
    pub theta: Vec<f64>,
    /// Bootstrap standard error (sample SD of the replicates).
    pub se: Vec<f64>,
    /// Percentile interval bounds.
    pub pct_lo: Vec<f64>,
    /// Percentile upper bounds.
    pub pct_hi: Vec<f64>,
    /// BCa lower bounds (NaN when the bias correction is undefined).
    pub bca_lo: Vec<f64>,
    /// BCa upper bounds.
    pub bca_hi: Vec<f64>,
    /// Replicates drawn (`B − 1`; index 0 is the observed arrangement).
    pub replicates: u64,
    /// Two-sided confidence level.
    pub level: f64,
}

impl BootstrapResult {
    /// Number of genes covered.
    pub fn genes(&self) -> usize {
        self.theta.len()
    }

    /// Append another slice's rows (must continue exactly where this one
    /// ends — the shard-merge invariant).
    pub fn extend(&mut self, other: &BootstrapResult) -> Result<()> {
        if other.offset != self.offset + self.genes()
            || other.replicates != self.replicates
            || other.level != self.level
        {
            return Err(Error::Comm(format!(
                "bootstrap slices do not abut: have rows {}..{} (R={}), \
                 next slice starts at {} (R={})",
                self.offset,
                self.offset + self.genes(),
                self.replicates,
                other.offset,
                other.replicates
            )));
        }
        self.theta.extend_from_slice(&other.theta);
        self.se.extend_from_slice(&other.se);
        self.pct_lo.extend_from_slice(&other.pct_lo);
        self.pct_hi.extend_from_slice(&other.pct_hi);
        self.bca_lo.extend_from_slice(&other.bca_lo);
        self.bca_hi.extend_from_slice(&other.bca_hi);
        Ok(())
    }
}

/// Validate a bootstrap run and canonicalize the NA code. Refusals mirror
/// the permutation front half (`prepare_run`), plus the bootstrap-specific
/// constraints: two-group `t` design only, explicit `B ≥ 2`, exact mode,
/// `f64` accumulation, at most [`MAX_BOOTSTRAP_COLS`] sample columns.
pub fn validate_boot(
    data: &Matrix,
    classlabel: &[u8],
    opts: &PmaxtOptions,
) -> Result<(ClassLabels, u64, Matrix)> {
    let (labels, b) = check_boot(data, classlabel, opts)?;
    let owned = match opts.na {
        Some(code) => {
            Matrix::from_vec_with_na(data.rows(), data.cols(), data.as_slice().to_vec(), code)?
        }
        None => data.clone(),
    };
    Ok((labels, b, owned))
}

/// [`validate_boot`] without the NA canonicalization: the refusals and the
/// resolved draw count, for callers that already hold a canonical matrix.
pub fn check_boot(
    data: &Matrix,
    classlabel: &[u8],
    opts: &PmaxtOptions,
) -> Result<(ClassLabels, u64)> {
    if opts.workload != Workload::Bootstrap {
        return Err(Error::BadOption {
            param: "workload",
            value: format!(
                "{} (the bootstrap driver only runs workload=bootstrap)",
                opts.workload.as_str()
            ),
        });
    }
    if opts.test != TestMethod::T {
        return Err(Error::BadOption {
            param: "test",
            value: format!(
                "{} (the bootstrap workload estimates the two-group mean \
                 difference and requires test=\"t\")",
                opts.test.as_str()
            ),
        });
    }
    if opts.mode != Mode::Exact {
        return Err(Error::BadOption {
            param: "mode",
            value: "adaptive (bootstrap replicates have no early-stopping bound theory wired up; use mode=exact)".into(),
        });
    }
    if opts.precision != Precision::F64 {
        return Err(Error::BadOption {
            param: "precision",
            value: "f32 (bootstrap intervals are only validated for f64 accumulation)".into(),
        });
    }
    let labels = ClassLabels::new(classlabel.to_vec(), TestMethod::T)?;
    if labels.len() != data.cols() {
        return Err(Error::BadLabels(format!(
            "classlabel length {} does not match {} data columns",
            labels.len(),
            data.cols()
        )));
    }
    if labels.len() > MAX_BOOTSTRAP_COLS {
        return Err(Error::BadLabels(format!(
            "bootstrap supports at most {MAX_BOOTSTRAP_COLS} sample columns, got {}",
            labels.len()
        )));
    }
    let b = resolve_draw_count(&labels, opts)?;
    Ok((labels, b))
}

/// Group-mean difference of one gene row under an index draw: drawn columns
/// keep their labels; NaN cells drop out; an empty group yields NaN.
#[inline]
fn mean_diff_drawn(row: &[f64], labels: &[u8], draw: &[u8]) -> f64 {
    let (mut s0, mut s1) = (0.0f64, 0.0f64);
    let (mut n0, mut n1) = (0u32, 0u32);
    for &ix in draw {
        let v = row[ix as usize];
        if v.is_nan() {
            continue;
        }
        if labels[ix as usize] == 1 {
            s1 += v;
            n1 += 1;
        } else {
            s0 += v;
            n0 += 1;
        }
    }
    if n0 == 0 || n1 == 0 {
        return f64::NAN;
    }
    s1 / n1 as f64 - s0 / n0 as f64
}

/// Type-7 (linear-interpolation) quantile of an ascending-sorted slice.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 0 || p.is_nan() {
        return f64::NAN;
    }
    let h = (n - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    if lo + 1 >= n {
        return sorted[n - 1];
    }
    sorted[lo] + (h - lo as f64) * (sorted[lo + 1] - sorted[lo])
}

/// Run the bootstrap workload over every gene. Threading follows
/// [`EngineConfig::resolve`] (`opts.threads` / `SPRINT_THREADS`); any thread
/// count produces bitwise-identical results.
pub fn boot_run(data: &Matrix, classlabel: &[u8], opts: &PmaxtOptions) -> Result<BootstrapResult> {
    boot_run_slice(data, classlabel, opts, 0..data.rows())
}

/// Run the bootstrap workload over a contiguous gene slice — the shard unit
/// of the job service. Every peer computes the full replicate span for its
/// rows, and per-gene finalization is independent, so a slice result is
/// bitwise-equal to the same rows of a full run.
pub fn boot_run_slice(
    data: &Matrix,
    classlabel: &[u8],
    opts: &PmaxtOptions,
    genes: Range<usize>,
) -> Result<BootstrapResult> {
    let (labels, b, data) = validate_boot(data, classlabel, opts)?;
    assert!(genes.end <= data.rows(), "gene slice out of range");
    let cfg = EngineConfig::resolve(opts);
    let n = labels.len();
    let gene_count = genes.len();
    let reps = (b - 1) as usize;

    // Replicate matrix, replicate-major: row j−1 holds every covered gene's
    // statistic under draw j. Workers own disjoint contiguous row bands, so
    // the values (and everything derived from them) are partition-invariant.
    let jobs = split_chunk(1, b - 1, cfg.threads);
    let run_band = |start: u64, take: u64| -> Result<Vec<f64>> {
        let mut band = vec![f64::NAN; take as usize * gene_count];
        let mut stream = build_stream(&labels, opts, b)?.stream;
        stream.skip(start);
        let mut draw = vec![0u8; n];
        for row in band.chunks_exact_mut(gene_count) {
            if !stream.next_into(&mut draw) {
                return Err(Error::Comm("bootstrap stream ended early".into()));
            }
            for (slot, g) in row.iter_mut().zip(genes.clone()) {
                *slot = mean_diff_drawn(data.row(g), labels.as_slice(), &draw);
            }
        }
        Ok(band)
    };
    let bands: Vec<Result<Vec<f64>>> = if jobs.len() <= 1 {
        jobs.iter().map(|&(s, t)| run_band(s, t)).collect()
    } else {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(jobs.len())
            .build()
            .map_err(|e| Error::Comm(format!("thread pool: {e}")))?;
        use rayon::prelude::*;
        pool.install(|| jobs.par_iter().map(|&(s, t)| run_band(s, t)).collect())
    };
    let mut stats = Vec::with_capacity(reps * gene_count);
    for band in bands {
        stats.extend(band?);
    }

    // Per-gene finalization.
    let z_lo = inv_phi((1.0 - CI_LEVEL) / 2.0);
    let z_hi = inv_phi(1.0 - (1.0 - CI_LEVEL) / 2.0);
    let mut out = BootstrapResult {
        offset: genes.start,
        theta: Vec::with_capacity(gene_count),
        se: Vec::with_capacity(gene_count),
        pct_lo: Vec::with_capacity(gene_count),
        pct_hi: Vec::with_capacity(gene_count),
        bca_lo: Vec::with_capacity(gene_count),
        bca_hi: Vec::with_capacity(gene_count),
        replicates: b - 1,
        level: CI_LEVEL,
    };
    let identity: Vec<u8> = (0..n as u8).collect();
    for (gi, g) in genes.clone().enumerate() {
        let row = data.row(g);
        let theta = mean_diff_drawn(row, labels.as_slice(), &identity);
        out.theta.push(theta);
        if theta.is_nan() {
            out.se.push(f64::NAN);
            out.pct_lo.push(f64::NAN);
            out.pct_hi.push(f64::NAN);
            out.bca_lo.push(f64::NAN);
            out.bca_hi.push(f64::NAN);
            continue;
        }
        // Valid replicates, ascending (degenerate draws — an empty group
        // after resampling — drop out, as `boot` drops failed statistics).
        let mut v: Vec<f64> = (0..reps)
            .map(|j| stats[j * gene_count + gi])
            .filter(|x| !x.is_nan())
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN after filter"));
        if v.len() < 2 {
            out.se.push(f64::NAN);
            out.pct_lo.push(f64::NAN);
            out.pct_hi.push(f64::NAN);
            out.bca_lo.push(f64::NAN);
            out.bca_hi.push(f64::NAN);
            continue;
        }
        let m = v.len() as f64;
        let mean = v.iter().sum::<f64>() / m;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (m - 1.0);
        out.se.push(var.sqrt());
        out.pct_lo.push(quantile_sorted(&v, (1.0 - CI_LEVEL) / 2.0));
        out.pct_hi
            .push(quantile_sorted(&v, 1.0 - (1.0 - CI_LEVEL) / 2.0));

        // BCa: bias correction from the replicate distribution, acceleration
        // from the leave-one-column-out jackknife.
        let below = v.iter().filter(|&&x| x < theta).count() as f64;
        let prop = below / m;
        if prop <= 0.0 || prop >= 1.0 {
            out.bca_lo.push(f64::NAN);
            out.bca_hi.push(f64::NAN);
            continue;
        }
        let z0 = inv_phi(prop);
        let a = jackknife_acceleration(row, labels.as_slice());
        let level = |z: f64| -> f64 {
            let num = z0 + z;
            phi(z0 + num / (1.0 - a * num))
        };
        out.bca_lo.push(quantile_sorted(&v, level(z_lo)));
        out.bca_hi.push(quantile_sorted(&v, level(z_hi)));
    }
    Ok(out)
}

/// Jackknife acceleration constant for one gene: leave each non-missing
/// column out in turn, recompute the mean difference from the cached group
/// totals, and combine the deviations. Returns 0.0 when the deviations
/// vanish (flat jackknife) and skips columns whose removal would empty a
/// group.
fn jackknife_acceleration(row: &[f64], labels: &[u8]) -> f64 {
    let (mut s0, mut s1) = (0.0f64, 0.0f64);
    let (mut n0, mut n1) = (0u32, 0u32);
    for (&v, &l) in row.iter().zip(labels) {
        if v.is_nan() {
            continue;
        }
        if l == 1 {
            s1 += v;
            n1 += 1;
        } else {
            s0 += v;
            n0 += 1;
        }
    }
    let mut thetas = Vec::with_capacity(row.len());
    for (&v, &l) in row.iter().zip(labels) {
        if v.is_nan() {
            continue;
        }
        let t = if l == 1 {
            if n1 < 2 {
                continue;
            }
            (s1 - v) / (n1 - 1) as f64 - s0 / n0 as f64
        } else {
            if n0 < 2 {
                continue;
            }
            s1 / n1 as f64 - (s0 - v) / (n0 - 1) as f64
        };
        thetas.push(t);
    }
    if thetas.len() < 2 {
        return 0.0;
    }
    let mean = thetas.iter().sum::<f64>() / thetas.len() as f64;
    let (mut d2, mut d3) = (0.0f64, 0.0f64);
    for t in &thetas {
        let d = mean - t;
        d2 += d * d;
        d3 += d * d * d;
    }
    if d2 <= 0.0 {
        return 0.0;
    }
    d3 / (6.0 * d2.powf(1.5))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(b: u64) -> PmaxtOptions {
        PmaxtOptions::default()
            .workload(Workload::Bootstrap)
            .permutations(b)
    }

    fn dataset() -> (Matrix, Vec<u8>) {
        // 3 genes × 8 samples: strong shift, flat, noisy.
        let data = Matrix::from_vec(
            3,
            8,
            vec![
                1.0, 2.0, 1.5, 2.5, 9.0, 10.0, 9.5, 10.5, // shift ≈ 8
                5.0, 5.1, 4.9, 5.0, 5.05, 4.95, 5.1, 4.9, // flat
                2.0, 8.0, 3.0, 7.0, 2.5, 7.5, 4.0, 6.0, // noisy
            ],
        )
        .unwrap();
        (data, vec![0, 0, 0, 0, 1, 1, 1, 1])
    }

    #[test]
    fn observed_theta_and_interval_shapes() {
        let (data, labels) = dataset();
        let r = boot_run(&data, &labels, &opts(400)).unwrap();
        assert_eq!(r.genes(), 3);
        assert_eq!(r.replicates, 399);
        assert!((r.theta[0] - 8.0).abs() < 1e-12);
        for g in 0..3 {
            assert!(r.pct_lo[g] <= r.pct_hi[g], "gene {g}");
            assert!(r.se[g] > 0.0);
            // θ̂ sits inside its own interval for these well-behaved genes.
            assert!(r.pct_lo[g] <= r.theta[g] && r.theta[g] <= r.pct_hi[g]);
            assert!(r.bca_lo[g] <= r.bca_hi[g]);
        }
        // The shifted gene's interval excludes zero; the flat gene's contains it.
        assert!(r.pct_lo[0] > 0.0);
        assert!(r.pct_lo[1] < 0.0 && r.pct_hi[1] > 0.0);
    }

    #[test]
    fn thread_count_is_bitwise_invisible() {
        let (data, labels) = dataset();
        let serial = boot_run(&data, &labels, &opts(300).threads(1)).unwrap();
        let threaded = boot_run(&data, &labels, &opts(300).threads(4)).unwrap();
        assert_eq!(serial, threaded);
    }

    #[test]
    fn gene_slices_equal_full_run_rows() {
        let (data, labels) = dataset();
        let o = opts(250);
        let full = boot_run(&data, &labels, &o).unwrap();
        let mut merged = boot_run_slice(&data, &labels, &o, 0..1).unwrap();
        let tail = boot_run_slice(&data, &labels, &o, 1..3).unwrap();
        merged.extend(&tail).unwrap();
        assert_eq!(merged, full);
        // Non-abutting slices are refused.
        let gap = boot_run_slice(&data, &labels, &o, 2..3).unwrap();
        let mut head = boot_run_slice(&data, &labels, &o, 0..1).unwrap();
        assert!(head.extend(&gap).is_err());
    }

    #[test]
    fn stored_sampling_draws_a_different_but_valid_stream() {
        let (data, labels) = dataset();
        let fixed = boot_run(&data, &labels, &opts(200)).unwrap();
        let stored =
            boot_run(&data, &labels, &opts(200).fixed_seed_sampling("n").unwrap()).unwrap();
        // Same observed statistic, different replicate stream.
        assert_eq!(fixed.theta, stored.theta);
        assert_ne!(fixed.pct_lo, stored.pct_lo);
    }

    #[test]
    fn na_cells_drop_out() {
        let data =
            Matrix::from_vec(1, 8, vec![1.0, 2.0, -99.0, 2.5, 9.0, 10.0, 9.5, 10.5]).unwrap();
        let labels = vec![0, 0, 0, 0, 1, 1, 1, 1];
        let r = boot_run(&data, &labels, &opts(100).na_code(-99.0)).unwrap();
        // Observed mean difference over the 7 remaining cells.
        let expect = (9.0 + 10.0 + 9.5 + 10.5) / 4.0 - (1.0 + 2.0 + 2.5) / 3.0;
        assert!((r.theta[0] - expect).abs() < 1e-12);
    }

    #[test]
    fn refusals_are_typed() {
        let (data, labels) = dataset();
        // Wrong workload.
        let e = boot_run(&data, &labels, &PmaxtOptions::default()).unwrap_err();
        assert!(matches!(
            e,
            Error::BadOption {
                param: "workload",
                ..
            }
        ));
        // Wrong test method.
        let e = boot_run(&data, &labels, &opts(100).test(TestMethod::Wilcoxon)).unwrap_err();
        assert!(matches!(e, Error::BadOption { param: "test", .. }));
        // Adaptive mode.
        let e = boot_run(&data, &labels, &opts(100).mode(Mode::Adaptive)).unwrap_err();
        assert!(matches!(e, Error::BadOption { param: "mode", .. }));
        // f32 precision.
        let e = boot_run(&data, &labels, &opts(100).precision(Precision::F32)).unwrap_err();
        assert!(matches!(
            e,
            Error::BadOption {
                param: "precision",
                ..
            }
        ));
        // B too small.
        let e = boot_run(&data, &labels, &opts(1)).unwrap_err();
        assert!(matches!(e, Error::BadOption { param: "b", .. }));
        // Multi-class labels are not a two-group design.
        let e = boot_run(&data, &[0, 0, 0, 1, 1, 1, 2, 2], &opts(100)).unwrap_err();
        assert!(matches!(e, Error::BadLabels(_)));
    }

    #[test]
    fn wide_interval_shrinks_with_more_replicates() {
        let (data, labels) = dataset();
        // CI endpoints stabilize (width estimate noise falls) as B grows;
        // check the basic sanity that both runs bracket θ̂ and the large-B
        // width is within 2× of the small-B width (loose, deterministic).
        let small = boot_run(&data, &labels, &opts(50)).unwrap();
        let large = boot_run(&data, &labels, &opts(2000)).unwrap();
        let w_small = small.pct_hi[2] - small.pct_lo[2];
        let w_large = large.pct_hi[2] - large.pct_lo[2];
        assert!(w_small > 0.0 && w_large > 0.0);
        assert!(w_large < 2.0 * w_small && w_small < 2.0 * w_large);
    }
}
