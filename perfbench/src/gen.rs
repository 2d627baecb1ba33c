//! Seeded inputs: datasets, job lists and the serve_mix traffic mix.
//!
//! Everything here is a pure function of the workload seed and the
//! [`Scale`], so the same seed yields byte-identical datasets and job lists.

use std::io;
use std::path::Path;

use microarray::io::write_dataset;
use microarray::synth::SynthConfig;
use sprint_core::options::{Mode, PmaxtOptions, TestMethod, Workload};
use sprint_core::side::Side;

use crate::Bench;

/// splitmix64 over a combination of words: a stateless seed deriver.
pub fn mix(seed: u64, tag: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ a.wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ b.wrapping_mul(0x94d0_49bb_1331_11eb);
    for _ in 0..2 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
    }
    z
}

/// Problem sizes. [`Scale::full`] is the benchmark; [`Scale::tiny`] is for
/// the self-tests.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Genes of the paper-shaped dataset (paper: 6102).
    pub genes: usize,
    /// Genes of the Table VI dataset (paper: 36 612).
    pub big_genes: usize,
    /// Samples in class 0.
    pub n0: usize,
    /// Samples in class 1.
    pub n1: usize,
    /// Permutations per `paper_run` job.
    pub paper_b: u64,
    /// Permutations per `shard_stream` job.
    pub shard_b: u64,
    /// Permutations of prepared paper-dataset hit entries.
    pub hit_b: u64,
    /// Permutations of prepared extension targets (the first extension
    /// resumes from here).
    pub ext_b: u64,
    /// Permutations of prepared Table VI cache entries.
    pub big_hit_b: u64,
    /// Permutations one B-extension adds.
    pub ext_step: u64,
    /// Permutations of fresh exact serve_mix jobs.
    pub fresh_b: u64,
    /// Permutations of adaptive serve_mix jobs.
    pub adaptive_b: u64,
    /// Draws of bootstrap serve_mix jobs.
    pub boot_b: u64,
    /// Prepared paper-dataset entries the hits draw from. Each client owns
    /// half, and no entry is hit twice until a client's half runs out.
    pub hit_pool: usize,
    /// Prepared Table VI entries the hits draw from, split the same way.
    pub big_hit_pool: usize,
    /// Prepared extension targets per client.
    pub ext_pool: usize,
    /// Set-ups timed per run (the median is reported).
    pub setup_reps: usize,
    /// Repetitions of each in-process layer probe (median reported).
    pub probe_reps: usize,
    /// Jobs planned per client (the closed loop stops at the deadline).
    pub plan_len: usize,
}

impl Scale {
    /// The benchmark's sizes: the paper's 6102×76 array and Table VI's
    /// 36 612-row array.
    pub fn full() -> Scale {
        Scale {
            genes: 6102,
            big_genes: 36_612,
            n0: 38,
            n1: 38,
            paper_b: 1000,
            shard_b: 512,
            hit_b: 128,
            ext_b: 128,
            big_hit_b: 16,
            ext_step: 128,
            fresh_b: 256,
            adaptive_b: 1000,
            boot_b: 100,
            // 84 + 28 hits per client cover 280 jobs per client, about twice
            // the most one client completed in 20 s on a 2-vCPU host.
            hit_pool: 168,
            big_hit_pool: 56,
            ext_pool: 16,
            setup_reps: 9,
            probe_reps: 5,
            plan_len: 4000,
        }
    }

    /// Small sizes for the self-tests.
    pub fn tiny() -> Scale {
        Scale {
            genes: 120,
            big_genes: 300,
            n0: 6,
            n1: 6,
            paper_b: 40,
            shard_b: 40,
            hit_b: 20,
            ext_b: 20,
            big_hit_b: 20,
            ext_step: 10,
            fresh_b: 20,
            adaptive_b: 60,
            boot_b: 20,
            hit_pool: 4,
            big_hit_pool: 2,
            ext_pool: 2,
            setup_reps: 2,
            probe_reps: 2,
            plan_len: 200,
        }
    }
}

/// Which generated dataset a job reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Data {
    /// Paper-shaped (6102 × 76).
    Paper,
    /// Table VI row count (36 612 × 76).
    Big,
}

impl Data {
    /// File name inside the run directory.
    pub fn file_name(self) -> &'static str {
        match self {
            Data::Paper => "paper.tsv",
            Data::Big => "table6.tsv",
        }
    }
}

/// Kind of job, which decides how it is submitted and verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// `pmaxt run` process.
    Paper,
    /// Sharded jobd job.
    Shard,
    /// Cache hit on a prepared paper-dataset entry.
    HitPaper,
    /// Cache hit on a prepared Table VI entry.
    HitBig,
    /// B-extension of a prepared entry.
    Extend,
    /// Fresh exact `t` job.
    FreshT,
    /// Fresh exact `wilcoxon` job.
    FreshWilcoxon,
    /// Fresh `--mode adaptive` job.
    Adaptive,
    /// Fresh `--workload bootstrap` job.
    Bootstrap,
}

impl Class {
    /// Stable name.
    pub fn as_str(self) -> &'static str {
        match self {
            Class::Paper => "paper",
            Class::Shard => "shard",
            Class::HitPaper => "hit_paper",
            Class::HitBig => "hit_table6",
            Class::Extend => "extend",
            Class::FreshT => "fresh_t",
            Class::FreshWilcoxon => "fresh_wilcoxon",
            Class::Adaptive => "adaptive",
            Class::Bootstrap => "bootstrap",
        }
    }

    /// Every class, in report order.
    pub const ALL: [Class; 9] = [
        Class::Paper,
        Class::Shard,
        Class::HitPaper,
        Class::HitBig,
        Class::Extend,
        Class::FreshT,
        Class::FreshWilcoxon,
        Class::Adaptive,
        Class::Bootstrap,
    ];
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(v: &mut [T], seed: u64) {
    for i in (1..v.len()).rev() {
        let j = (mix(seed, 0x5348, i as u64, 0) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

/// The serve_mix deck: each block of 20 jobs a client sends holds exactly
/// these counts, shuffled by the seed, so class proportions do not drift
/// between runs. The weights are assumed: no record of real traffic exists
/// to measure them from (see `perfbench/README.md`). Reads dominate because
/// repeat requests are what a result cache exists for; every other job type
/// keeps at least two slots so each jobd driver (span, adaptive, bootstrap)
/// runs in every block.
pub const MIX_DECK: [(Class, usize); 7] = [
    (Class::HitPaper, 6),
    (Class::HitBig, 2),
    (Class::Extend, 3),
    (Class::FreshT, 2),
    (Class::FreshWilcoxon, 2),
    (Class::Adaptive, 3),
    (Class::Bootstrap, 2),
];

/// How the cache should answer a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// No jobd involved.
    NotServed,
    /// Computed from scratch.
    Miss,
    /// Served from a prepared entry.
    Hit,
    /// Extended from a cached prefix of `from` permutations.
    Extend {
        /// Cached cursor the job resumes from.
        from: u64,
    },
}

/// One job of a run.
#[derive(Debug, Clone)]
pub struct Task {
    /// Position in its client's list.
    pub index: usize,
    /// Client thread that sends it.
    pub client: usize,
    /// Job kind.
    pub class: Class,
    /// Dataset it reads.
    pub data: Data,
    /// Full run options.
    pub opts: PmaxtOptions,
    /// Expected cache disposition.
    pub expect: Expect,
}

impl Task {
    /// One-line description; the self-tests compare these byte for byte.
    pub fn describe(&self) -> String {
        format!(
            "{} {} {} {:?} test={} side={} b={} seed={} mode={} workload={} expect={:?}",
            self.client,
            self.index,
            self.class.as_str(),
            self.data,
            self.opts.test.as_str(),
            self.opts.side.as_str(),
            self.opts.b,
            self.opts.seed,
            self.opts.mode.as_str(),
            self.opts.workload.as_str(),
            self.expect
        )
    }
}

fn opts(test: TestMethod, b: u64, seed: u64) -> PmaxtOptions {
    PmaxtOptions {
        test,
        side: Side::Abs,
        b,
        seed,
        ..PmaxtOptions::default()
    }
}

const TAG_DATA: u64 = 0xDA7A;
const TAG_PAPER: u64 = 0x5052;
const TAG_HIT: u64 = 0x4854;
const TAG_BIG: u64 = 0x4247;
const TAG_EXT: u64 = 0x4558;
const TAG_FRESH: u64 = 0x4652;
const TAG_DECK: u64 = 0x4443;

/// Generate a dataset of the run and write it to `dir`. Returns its path.
pub fn write_data(bench: &Bench, data: Data, dir: &Path) -> io::Result<std::path::PathBuf> {
    let s = &bench.scale;
    let genes = match data {
        Data::Paper => s.genes,
        Data::Big => s.big_genes,
    };
    let ds = SynthConfig::two_class(genes, s.n0, s.n1)
        .seed(mix(bench.seed, TAG_DATA, data as u64, 0))
        .generate();
    let path = dir.join(data.file_name());
    write_dataset(&path, &ds.matrix, &ds.labels)?;
    Ok(path)
}

/// The job list of a single-client workload (`paper_run`, `shard_stream`):
/// the paper's job (`t`, `abs`, random permutations) with a distinct seed
/// per job.
pub fn single_plan(bench: &Bench, class: Class, b: u64) -> Vec<Task> {
    (0..bench.scale.plan_len)
        .map(|i| Task {
            index: i,
            client: 0,
            class,
            data: Data::Paper,
            opts: opts(TestMethod::T, b, mix(bench.seed, TAG_PAPER, i as u64, 0)),
            expect: if class == Class::Paper {
                Expect::NotServed
            } else {
                Expect::Miss
            },
        })
        .collect()
}

/// A prepared serve_mix cache entry: which dataset and which options.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Dataset it is keyed on.
    pub data: Data,
    /// Options it was computed with.
    pub opts: PmaxtOptions,
}

/// The entries setup writes into the serve_mix cache: hit targets on both
/// datasets, then each client's extension targets.
pub fn prepared_entries(bench: &Bench) -> (Vec<Entry>, Vec<Entry>, Vec<Vec<Entry>>) {
    let s = &bench.scale;
    let hits = (0..s.hit_pool)
        .map(|j| Entry {
            data: Data::Paper,
            opts: opts(
                TestMethod::T,
                s.hit_b,
                mix(bench.seed, TAG_HIT, j as u64, 0),
            ),
        })
        .collect();
    let big = (0..s.big_hit_pool)
        .map(|j| Entry {
            data: Data::Big,
            opts: opts(
                TestMethod::T,
                s.big_hit_b,
                mix(bench.seed, TAG_BIG, j as u64, 0),
            ),
        })
        .collect();
    let ext = (0..2)
        .map(|c| {
            (0..s.ext_pool)
                .map(|j| Entry {
                    data: Data::Paper,
                    opts: opts(
                        TestMethod::T,
                        s.ext_b,
                        mix(bench.seed, TAG_EXT, c, j as u64),
                    ),
                })
                .collect()
        })
        .collect();
    (hits, big, ext)
}

/// One serve_mix client's job list. Each client owns half of each
/// prepared pool and hits its own entries in a seeded order, each once
/// until the pool runs out; only then does the order repeat, and the
/// repeats (answered by live-job dedup, not the cache) count as drift. It
/// extends its own targets one after another, so each
/// extension resumes from the previous one's cached result. Dispositions
/// therefore repeat exactly.
pub fn mix_plan(bench: &Bench, client: usize) -> Vec<Task> {
    let s = &bench.scale;
    let (hits, big, ext) = prepared_entries(bench);
    let own = |pool: &[Entry], tag: u64| -> Vec<Entry> {
        let mut mine: Vec<Entry> = pool.iter().skip(client).step_by(2).cloned().collect();
        shuffle(&mut mine, mix(bench.seed, tag, client as u64, 0));
        mine
    };
    let (hits, big) = (own(&hits, TAG_HIT), own(&big, TAG_BIG));
    let deck: Vec<Class> = MIX_DECK
        .iter()
        .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
        .collect();
    let mut out = Vec::with_capacity(s.plan_len);
    let (mut extends, mut hit_n, mut big_n) = (0usize, 0usize, 0usize);
    let mut block = 0u64;
    while out.len() < s.plan_len {
        let mut order = deck.clone();
        shuffle(&mut order, mix(bench.seed, TAG_DECK, client as u64, block));
        for class in order {
            let index = out.len();
            let draw = mix(bench.seed, TAG_FRESH, client as u64, index as u64);
            let (data, o, expect) = match class {
                Class::HitPaper => {
                    let e = &hits[hit_n % hits.len()];
                    hit_n += 1;
                    (e.data, e.opts.clone(), Expect::Hit)
                }
                Class::HitBig => {
                    let e = &big[big_n % big.len()];
                    big_n += 1;
                    (e.data, e.opts.clone(), Expect::Hit)
                }
                Class::Extend => {
                    let e = &ext[client][extends % s.ext_pool];
                    let step = (extends / s.ext_pool) as u64;
                    extends += 1;
                    let from = s.ext_b + step * s.ext_step;
                    let mut o = e.opts.clone();
                    o.b = from + s.ext_step;
                    (e.data, o, Expect::Extend { from })
                }
                Class::FreshT => (
                    Data::Paper,
                    opts(TestMethod::T, s.fresh_b, draw),
                    Expect::Miss,
                ),
                Class::FreshWilcoxon => (
                    Data::Paper,
                    opts(TestMethod::Wilcoxon, s.fresh_b, draw),
                    Expect::Miss,
                ),
                Class::Adaptive => {
                    let mut o = opts(TestMethod::T, s.adaptive_b, draw);
                    o.mode = Mode::Adaptive;
                    (Data::Paper, o, Expect::Miss)
                }
                Class::Bootstrap => {
                    let mut o = opts(TestMethod::T, s.boot_b, draw);
                    o.workload = Workload::Bootstrap;
                    (Data::Paper, o, Expect::Miss)
                }
                Class::Paper | Class::Shard => unreachable!("not in the mix deck"),
            };
            out.push(Task {
                index,
                client,
                class,
                data,
                opts: o,
                expect,
            });
        }
        block += 1;
    }
    out.truncate(s.plan_len);
    out
}
