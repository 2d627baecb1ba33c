//! `perfbench` — the repository benchmark.
//!
//! Drives the real `pmaxt` binary through three closed-loop workloads
//! (`paper_run`, `shard_stream`, `serve_mix`), checks every job's output
//! bitwise against an in-process reference, and prints the end-to-end
//! metrics (untraced run) or the per-layer metrics (traced run) as the last
//! line of stdout. See `perfbench/README.md` for the rationale.

pub mod gen;
pub mod layers;
pub mod report;
pub mod sys;
pub mod trace;
pub mod verify;
pub mod workloads;

use std::io;
use std::path::PathBuf;

use sprint_jobd::json::Json;

use crate::gen::Scale;
use crate::report::EndToEnd;
use crate::trace::Recorder;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `pmaxt run` processes on the paper's job.
    PaperRun,
    /// Coordinator + peer over TCP, one client.
    ShardStream,
    /// One daemon, two clients, a seeded mix over a prepared cache.
    ServeMix,
}

impl Kind {
    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Kind> {
        match s {
            "paper_run" => Some(Kind::PaperRun),
            "shard_stream" => Some(Kind::ShardStream),
            "serve_mix" => Some(Kind::ServeMix),
            _ => None,
        }
    }

    /// Workload name.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::PaperRun => "paper_run",
            Kind::ShardStream => "shard_stream",
            Kind::ServeMix => "serve_mix",
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Bench {
    /// Workload.
    pub kind: Kind,
    /// Workload seed: datasets and job lists derive from it.
    pub seed: u64,
    /// Length of the measured loop.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// The `pmaxt` binary.
    pub pmaxt: PathBuf,
    /// Repository root (the program's sources, for provenance).
    pub root: PathBuf,
    /// Scratch and report space (`perfbench/.work` under the root).
    pub work: PathBuf,
    /// Problem sizes.
    pub scale: Scale,
    /// Self-test switch: make every reference wrong.
    pub corrupt_reference: bool,
}

impl Bench {
    /// Where run reports, span files and layer tables go.
    pub fn reports_dir(&self) -> PathBuf {
        self.work.join("reports")
    }

    /// Parse `--workload --seed --seconds --trace --pmaxt`; the repository
    /// root is the working directory.
    pub fn from_args(args: &[String]) -> Result<Bench, String> {
        let mut kind = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut pmaxt = None;
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut val = || it.next().ok_or_else(|| format!("{a} needs a value"));
            match a.as_str() {
                "--workload" => {
                    let v = val()?;
                    kind = Some(Kind::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
                }
                "--seed" => seed = Some(val()?.parse().map_err(|e| format!("bad --seed: {e}"))?),
                "--seconds" => {
                    let s: f64 = val()?.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                    if s.is_nan() || s <= 0.0 {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match val()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                    })
                }
                "--pmaxt" => pmaxt = Some(PathBuf::from(val()?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Bench {
            kind: kind.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
            pmaxt: pmaxt.ok_or("--pmaxt is required")?,
            root: PathBuf::from("."),
            work: PathBuf::from("perfbench/.work"),
            scale: Scale::full(),
            corrupt_reference: false,
        })
    }
}

/// What one invocation produced.
pub struct Outcome {
    /// End-to-end view of the (last) loop.
    pub e2e: EndToEnd,
    /// The metrics printed: end-to-end (untraced) or per-layer (traced).
    pub metrics: Vec<(String, f64, String)>,
    /// The result line.
    pub line: String,
    /// Human-readable summary lines.
    pub summary: Vec<String>,
}

/// Run the configured benchmark once. An untraced run measures one loop. A
/// traced run measures an untraced loop and then a traced one over the same
/// inputs, so the tracing overhead is taken against a baseline of the same
/// build, seed and scale.
pub fn execute(bench: &Bench) -> io::Result<Outcome> {
    if !bench.pmaxt.is_file() {
        return Err(io::Error::other(format!(
            "pmaxt binary {:?} not found",
            bench.pmaxt
        )));
    }
    let name = bench.kind.as_str();
    let dir = bench.reports_dir();
    let mut inputs = workloads::Inputs::new(bench)?;
    let base = workloads::run(bench, &Recorder::new(false), &mut inputs)?;
    let base_e2e = report::end_to_end(&base);
    report::write_file(
        &dir,
        &format!("{name}-seed{}-untraced.json", bench.seed),
        &report::run_report(bench, &base, &base_e2e, false).to_json(),
    )?;
    let mut summary = vec![
        format!("host: {}", report::provenance(bench, &base).to_json()),
        phase_line(inputs.generate_s, &base),
        format!(
            "{name}: {} attempted, {} failed (failed_frac {:.4}), {} disposition drift, \
             job_tail_s is p{:.1} of {} jobs",
            base_e2e.attempted,
            base_e2e.failed,
            base_e2e.failed as f64 / base_e2e.attempted.max(1) as f64,
            base.disposition_drift,
            base_e2e.tail_percentile,
            base_e2e.samples
        ),
    ];
    let base_metrics = report::e2e_metrics(&base_e2e);
    if !bench.trace {
        for (n, v, u) in &base_metrics {
            summary.push(format!("  {n:<18} {v:>14.6} {u}"));
        }
        let line = report::result_line(base_e2e.attempted, base_e2e.failed, &base_metrics);
        return Ok(Outcome {
            metrics: owned(&base_metrics),
            e2e: base_e2e,
            line,
            summary,
        });
    }

    let rec = Recorder::new(true);
    let out = workloads::run(bench, &rec, &mut inputs)?;
    let e2e = report::end_to_end(&out);
    let overhead: Vec<(&str, f64, f64, &str)> = report::e2e_metrics(&e2e)
        .into_iter()
        .zip(&base_metrics)
        .map(|((n, traced, u), (_, base, _))| (n, *base, traced, u))
        .collect();
    let stem = format!("{name}-seed{}-traced", bench.seed);
    std::fs::create_dir_all(&dir)?;
    rec.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))?;
    let table = report::layer_table(&out.layers, &rec, &overhead);
    report::write_file(&dir, &format!("{stem}.layers.md"), &table)?;
    let mut rep = report::run_report(bench, &out, &e2e, true);
    if let Json::Obj(pairs) = &mut rep {
        pairs.push((
            "tracing_overhead".into(),
            Json::Obj(
                overhead
                    .iter()
                    .map(|(n, b, t, _)| (n.to_string(), Json::Num(t - b)))
                    .collect(),
            ),
        ));
        pairs.push((
            "per_layer".into(),
            Json::Obj(
                out.layers
                    .iter()
                    .map(|l| {
                        (
                            l.name.to_string(),
                            Json::obj(vec![
                                ("value", Json::Num(l.value)),
                                ("unit", Json::str(l.unit)),
                                ("how", Json::str(l.how.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    report::write_file(&dir, &format!("{stem}.json"), &rep.to_json())?;
    summary.push(format!(
        "{name} (traced): {} attempted, {} failed, {} disposition drift; \
         spans, layer table and report in {}",
        e2e.attempted,
        e2e.failed,
        out.disposition_drift,
        dir.display()
    ));
    summary.push(phase_line(0.0, &out));
    summary.extend(table.lines().map(str::to_string));
    let metrics: Vec<(&str, f64, &str)> = out
        .layers
        .iter()
        .map(|l| (l.name, l.value, l.unit))
        .collect();
    // Both loops' jobs are checked; a failure in either fails the run.
    let line = report::result_line(
        base_e2e.attempted + e2e.attempted,
        base_e2e.failed + e2e.failed,
        &metrics,
    );
    Ok(Outcome {
        metrics: owned(&metrics),
        e2e,
        line,
        summary,
    })
}

fn owned(metrics: &[(&str, f64, &str)]) -> Vec<(String, f64, String)> {
    metrics
        .iter()
        .map(|(n, v, u)| (n.to_string(), *v, u.to_string()))
        .collect()
}

fn phase_line(generate_s: f64, out: &workloads::LoopOutcome) -> String {
    let parts: Vec<String> = std::iter::once(&("generate inputs", generate_s))
        .chain(&out.phases)
        .map(|(n, s)| format!("{n} {s:.1} s"))
        .collect();
    format!("phases: {}", parts.join(", "))
}
