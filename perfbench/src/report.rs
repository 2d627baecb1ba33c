//! End-to-end metrics, the result line, and the per-run report files.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;

use sprint_jobd::json::Json;

use crate::gen::Class;
use crate::layers::{gene_perms_scored, median, Metric};
use crate::trace::{self, Recorder};
use crate::workloads::{JobRecord, LoopOutcome};
use crate::Bench;

/// End-to-end metric names and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("gene_perms_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("cpu_s_per_job", "s"),
    ("peak_rss_mb", "MB"),
    ("verified_frac", "ratio"),
];

/// The end-to-end view of one loop.
#[derive(Debug, Clone)]
pub struct EndToEnd {
    /// Values by name (see [`END_TO_END`]).
    pub values: BTreeMap<&'static str, f64>,
    /// Jobs attempted.
    pub attempted: usize,
    /// Jobs that delivered a wrong output, an error reply or timed out.
    pub failed: usize,
    /// Percentile `job_tail_s` reports: the highest with ten jobs beyond it.
    pub tail_percentile: f64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
}

/// Consecutive groups the measured window is split into for the rate and
/// CPU metrics; each reports the median over groups, so a burst of host
/// noise in one part of the window does not move the result.
pub const GROUPS: usize = 5;

/// Derive the end-to-end metrics from a loop outcome.
pub fn end_to_end(out: &LoopOutcome) -> EndToEnd {
    let attempted = out.records.len();
    let verified = out.records.iter().filter(|r| r.verified).count();
    let genes = |r: &JobRecord| out.genes.get(&r.task.data).copied().unwrap_or(0) as f64;
    // Split jobs, in completion order, into GROUPS runs of equal count. A
    // group spans from the previous group's last completion to its own.
    let mut done: Vec<&JobRecord> = out.records.iter().collect();
    done.sort_by(|a, b| a.done_t.total_cmp(&b.done_t));
    let k = GROUPS.min(done.len()).max(1);
    let (mut jobs_rate, mut work_rate, mut cpu_per_job) = (Vec::new(), Vec::new(), Vec::new());
    let (mut t, mut cpu, mut start) = (out.start_t, 0.0, 0);
    for g in 0..k {
        let end = (g + 1) * done.len() / k;
        let group = &done[start..end];
        start = end;
        let Some(last) = group.last() else { continue };
        let dur = (last.done_t - t).max(1e-9);
        let ok: Vec<_> = group.iter().filter(|r| r.verified).collect();
        jobs_rate.push(ok.len() as f64 / dur);
        work_rate.push(
            ok.iter()
                .map(|r| genes(r) * r.task.opts.b as f64)
                .sum::<f64>()
                / dur,
        );
        cpu_per_job.push((last.cpu_t - cpu) / ok.len().max(1) as f64);
        t = last.done_t;
        cpu = last.cpu_t;
    }
    let mut lat: Vec<f64> = out
        .records
        .iter()
        .filter(|r| r.verified)
        .map(|r| r.latency())
        .collect();
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    // The highest percentile with at least ten jobs beyond it is the 11th
    // largest latency (the maximum when there are ten or fewer).
    let (tail, pct) = if n > 10 {
        (lat[n - 11], 100.0 * (n - 10) as f64 / n as f64)
    } else {
        (lat.last().copied().unwrap_or(0.0), 100.0)
    };
    let mut values = BTreeMap::new();
    values.insert("setup_s", median(&out.setup_samples));
    values.insert("jobs_per_s", median(&jobs_rate));
    values.insert("gene_perms_per_s", median(&work_rate));
    values.insert("job_p50_s", median(&lat));
    values.insert("job_tail_s", tail);
    values.insert("cpu_s_per_job", median(&cpu_per_job));
    values.insert("peak_rss_mb", out.peak_rss_kb as f64 * 1024.0 / 1e6);
    values.insert("verified_frac", verified as f64 / attempted.max(1) as f64);
    EndToEnd {
        values,
        attempted,
        failed: attempted - verified,
        tail_percentile: pct,
        samples: n,
    }
}

fn metric_obj(value: f64, unit: &str) -> Json {
    Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// The last line of stdout.
pub fn result_line(attempted: usize, failed: usize, metrics: &[(&str, f64, &str)]) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(
                metrics
                    .iter()
                    .map(|&(n, v, u)| (n, metric_obj(v, u)))
                    .collect(),
            ),
        ),
    ])
    .to_json()
}

/// End-to-end metrics as (name, value, unit).
pub fn e2e_metrics(e2e: &EndToEnd) -> Vec<(&'static str, f64, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u)| (n, e2e.values[n], u))
        .collect()
}

/// Host provenance: what a noisy neighbour would change.
pub fn provenance(bench: &Bench, out: &LoopOutcome) -> Json {
    Json::obj(vec![
        ("nproc", Json::Num(crate::sys::nproc() as f64)),
        ("cpu_model", Json::str(crate::sys::cpu_model())),
        (
            "source",
            Json::str(crate::sys::source_identity(&bench.root)),
        ),
        ("workload", Json::str(bench.kind.as_str())),
        ("seed", Json::u64_str(bench.seed)),
        ("seconds", Json::Num(bench.seconds)),
        ("steal_share", Json::Num(out.steal)),
        ("iowait_share", Json::Num(out.iowait)),
    ])
}

fn class_table(out: &LoopOutcome) -> Json {
    let mut rows = Vec::new();
    for class in Class::ALL {
        let recs: Vec<_> = out
            .records
            .iter()
            .filter(|r| r.task.class == class)
            .collect();
        if recs.is_empty() {
            continue;
        }
        let lat: Vec<f64> = recs
            .iter()
            .filter(|r| r.verified)
            .map(|r| r.latency())
            .collect();
        let mut dispositions: BTreeMap<String, usize> = BTreeMap::new();
        for r in &recs {
            let d = match (&r.cache, r.deduped) {
                (Some(c), true) => format!("{c}+dedup"),
                (Some(c), false) => c.clone(),
                (None, _) => "none".into(),
            };
            *dispositions.entry(d).or_default() += 1;
        }
        rows.push(Json::obj(vec![
            ("class", Json::str(class.as_str())),
            ("jobs", Json::Num(recs.len() as f64)),
            ("verified", Json::Num(lat.len() as f64)),
            ("p50_s", Json::Num(median(&lat))),
            (
                "dispositions",
                Json::Obj(
                    dispositions
                        .into_iter()
                        .map(|(k, v)| (k, Json::Num(v as f64)))
                        .collect(),
                ),
            ),
        ]));
    }
    Json::Arr(rows)
}

/// The JSON report of one run, written next to the other reports.
pub fn run_report(bench: &Bench, out: &LoopOutcome, e2e: &EndToEnd, traced: bool) -> Json {
    let failures: Vec<Json> = out
        .records
        .iter()
        .filter(|r| !r.verified)
        .take(20)
        .map(|r| {
            Json::str(format!(
                "{}: {}",
                r.task.describe(),
                r.digest.as_ref().err().map_or("unverified", String::as_str)
            ))
        })
        .collect();
    let genes =
        |r: &crate::workloads::JobRecord| out.genes.get(&r.task.data).copied().unwrap_or(0) as f64;
    let scored: f64 = out
        .records
        .iter()
        .map(|r| gene_perms_scored(r, genes(r)))
        .sum();
    Json::obj(vec![
        ("host", provenance(bench, out)),
        ("traced", Json::Bool(traced)),
        (
            "end_to_end",
            Json::Obj(
                e2e_metrics(e2e)
                    .into_iter()
                    .map(|(n, v, u)| (n.to_string(), metric_obj(v, u)))
                    .collect(),
            ),
        ),
        ("attempted", Json::Num(e2e.attempted as f64)),
        ("failed", Json::Num(e2e.failed as f64)),
        (
            "failed_frac",
            Json::Num(e2e.failed as f64 / e2e.attempted.max(1) as f64),
        ),
        ("tail_percentile", Json::Num(e2e.tail_percentile)),
        ("latency_samples", Json::Num(e2e.samples as f64)),
        ("window_s", Json::Num(out.window_s)),
        (
            "phases_s",
            Json::Obj(
                out.phases
                    .iter()
                    .map(|(n, v)| (n.to_string(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "setup_samples_s",
            Json::Arr(out.setup_samples.iter().map(|&s| Json::Num(s)).collect()),
        ),
        ("gene_perms_computed", Json::Num(scored)),
        ("disposition_drift", Json::Num(out.disposition_drift as f64)),
        ("classes", class_table(out)),
        ("failures", Json::Arr(failures)),
    ])
}

/// Markdown table of the per-layer metrics, span self times and the tracing
/// overhead.
pub fn layer_table(
    layers: &[Metric],
    rec: &Recorder,
    overhead: &[(&str, f64, f64, &str)],
) -> String {
    let mut s = String::from("| layer | metric | value | unit | how |\n|---|---|---|---|---|\n");
    for l in layers {
        let layer = l.name.split('.').next().unwrap_or(l.name);
        s.push_str(&format!(
            "| {layer} | {} | {:.6} | {} | {} |\n",
            l.name, l.value, l.unit, l.how
        ));
    }
    s.push_str("\nSpan self time per layer (duration minus direct children):\n\n");
    s.push_str("| layer | spans | total s | self s |\n|---|---|---|---|\n");
    for (layer, (n, total, own)) in trace::self_times(&rec.spans()) {
        s.push_str(&format!("| {layer} | {n} | {total:.4} | {own:.4} |\n"));
    }
    s.push_str(
        "\nTracing overhead: traced minus untraced end-to-end metrics (the \
         untraced loop ran first in the same invocation, on the same inputs).\n\n",
    );
    s.push_str(
        "| metric | untraced | traced | traced - untraced | unit |\n|---|---|---|---|---|\n",
    );
    for (name, base, traced, unit) in overhead {
        s.push_str(&format!(
            "| {name} | {base:.6} | {traced:.6} | {:.6} | {unit} |\n",
            traced - base
        ));
    }
    s
}

/// Write `text` to `dir/name`, creating `dir`.
pub fn write_file(dir: &Path, name: &str, text: &str) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(name), text)
}
