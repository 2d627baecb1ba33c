//! Output verification: every delivered result is reduced to a digest of its
//! exact bits and compared with the digest of a reference computed
//! in-process, outside the timed window — `mt_maxt` for exact jobs,
//! `adaptive_maxt` for adaptive jobs, `boot_run` for bootstrap jobs.

use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::PathBuf;

use microarray::io::read_dataset;
use sprint_core::adaptive::{adaptive_maxt, AdaptiveConfig};
use sprint_core::boot::{boot_run, BootstrapResult};
use sprint_core::digest::Fnv1a;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::serial::mt_maxt;
use sprint_core::maxt::MaxTResult;
use sprint_jobd::json::Json;

use crate::gen::{Class, Data, Task};

/// Absorb the bit patterns of a float slice, length first.
fn f64s(h: &mut Fnv1a, v: &[f64]) {
    h.write_u64(v.len() as u64);
    for x in v {
        h.write_u64(x.to_bits());
    }
}

/// Absorb a word slice, length first.
fn u64s(h: &mut Fnv1a, v: &[u64]) {
    h.write_u64(v.len() as u64);
    for &x in v {
        h.write_u64(x);
    }
}

/// Digest of an exact maxT result (every bit of every column).
pub fn digest_maxt(r: &MaxTResult) -> u64 {
    let mut h = Fnv1a::new();
    f64s(&mut h, &r.teststat);
    f64s(&mut h, &r.rawp);
    f64s(&mut h, &r.adjp);
    u64s(
        &mut h,
        &r.order.iter().map(|&i| i as u64).collect::<Vec<_>>(),
    );
    h.write_u64(r.b_used);
    h.finish()
}

/// Digest of an adaptive result: the finalized p-values plus the per-gene
/// scored prefixes, counts and the exact-prefix watermark.
pub fn digest_adaptive(r: &MaxTResult, scored: &[u64], counts: &[u64], watermark: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(digest_maxt(r));
    u64s(&mut h, scored);
    u64s(&mut h, counts);
    h.write_u64(watermark);
    h.finish()
}

/// Digest of a bootstrap result.
pub fn digest_boot(r: &BootstrapResult) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(r.offset as u64);
    for v in [&r.theta, &r.se, &r.pct_lo, &r.pct_hi, &r.bca_lo, &r.bca_hi] {
        f64s(&mut h, v);
    }
    h.write_u64(r.replicates);
    h.write_u64(r.level.to_bits());
    h.finish()
}

/// Digest of raw bytes (the `pmaxt run --out` table).
pub fn digest_bytes(b: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b);
    h.finish()
}

/// The table `pmaxt run --out` writes, rendered from a reference result.
pub fn render_table(r: &MaxTResult) -> String {
    let mut s = String::from("index\tteststat\trawp\tadjp\n");
    for row in r.by_significance() {
        let _ = writeln!(
            s,
            "{}\t{:.6}\t{:.6}\t{:.6}",
            row.index, row.teststat, row.rawp, row.adjp
        );
    }
    s
}

/// Decode a jobd `result` reply into the digest of what it delivered.
pub fn digest_reply(class: Class, resp: &Json) -> Result<u64, String> {
    match class {
        Class::Bootstrap => Ok(digest_boot(&sprint_jobd::protocol::boot_from_json(resp)?)),
        Class::Adaptive => {
            let r = sprint_jobd::protocol::result_from_json(resp)?;
            let rep = resp
                .get("adaptive")
                .ok_or("adaptive reply lacks its report")?;
            let words = |field: &str| -> Result<Vec<u64>, String> {
                rep.get(field)
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("adaptive report lacks {field}"))?
                    .iter()
                    .map(|v| v.as_u64().ok_or_else(|| format!("bad entry in {field}")))
                    .collect()
            };
            let watermark = rep
                .get("watermark")
                .and_then(Json::as_u64)
                .ok_or("adaptive report lacks watermark")?;
            Ok(digest_adaptive(
                &r,
                &words("scored")?,
                &words("counts")?,
                watermark,
            ))
        }
        _ => Ok(digest_maxt(&sprint_jobd::protocol::result_from_json(resp)?)),
    }
}

/// Reference digests, memoised per distinct request.
pub struct References {
    paths: HashMap<Data, PathBuf>,
    loaded: HashMap<Data, Result<(Matrix, Vec<u8>), String>>,
    memo: HashMap<String, Result<u64, String>>,
    corrupt: bool,
}

fn memo_key(task: &Task) -> String {
    let o = &task.opts;
    format!(
        "{:?} {:?} {} {} {} {} {} {}",
        task.class == Class::Paper,
        task.data,
        o.test.as_str(),
        o.side.as_str(),
        o.b,
        o.seed,
        o.mode.as_str(),
        o.workload.as_str()
    )
}

impl References {
    /// References over the run's dataset files. With `corrupt`, every
    /// reference digest is deliberately wrong (self-test of the checker).
    pub fn new(paths: HashMap<Data, PathBuf>, corrupt: bool) -> References {
        References {
            paths,
            loaded: HashMap::new(),
            memo: HashMap::new(),
            corrupt,
        }
    }

    /// The digests correct runs of `tasks` deliver, in order. References not
    /// yet memoised are computed on `threads` threads.
    pub fn expected(&mut self, tasks: &[&Task], threads: usize) -> Vec<Result<u64, String>> {
        for t in tasks {
            if !self.loaded.contains_key(&t.data) {
                let pair = match self.paths.get(&t.data) {
                    Some(path) => read_dataset(path).map_err(|e| format!("reading {path:?}: {e}")),
                    None => Err(format!("no dataset file for {:?}", t.data)),
                };
                self.loaded.insert(t.data, pair);
            }
        }
        let mut seen = HashSet::new();
        let missing: Vec<(String, &Task)> = tasks
            .iter()
            .map(|&t| (memo_key(t), t))
            .filter(|(key, _)| !self.memo.contains_key(key) && seen.insert(key.clone()))
            .collect();
        let threads = threads.clamp(1, missing.len().max(1));
        let this = &*self;
        let missing = &missing;
        let done: Vec<(String, Result<u64, String>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|k| {
                    s.spawn(move || {
                        missing
                            .iter()
                            .skip(k)
                            .step_by(threads)
                            .map(|(key, t)| (key.clone(), this.compute(t)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("reference thread panicked"))
                .collect()
        });
        self.memo.extend(done);
        tasks
            .iter()
            .map(|t| self.memo[&memo_key(t)].clone())
            .collect()
    }

    fn compute(&self, task: &Task) -> Result<u64, String> {
        let o = &task.opts;
        let (data, labels) = self.loaded[&task.data].as_ref().map_err(Clone::clone)?;
        let err = |e: sprint_core::error::Error| e.to_string();
        let digest = match task.class {
            Class::Paper => {
                digest_bytes(render_table(&mt_maxt(data, labels, o).map_err(err)?).as_bytes())
            }
            Class::Adaptive => {
                let out =
                    adaptive_maxt(data, labels, o, &AdaptiveConfig::default()).map_err(err)?;
                digest_adaptive(
                    &out.result,
                    &out.report.scored,
                    &out.report.counts,
                    out.report.watermark,
                )
            }
            Class::Bootstrap => digest_boot(&boot_run(data, labels, o).map_err(err)?),
            _ => digest_maxt(&mt_maxt(data, labels, o).map_err(err)?),
        };
        Ok(if self.corrupt { digest ^ 1 } else { digest })
    }
}
