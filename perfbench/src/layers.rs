//! Per-layer metrics of the traced run.
//!
//! Each layer is timed around calls into its public functions or wire verbs,
//! on the workload's own inputs, after the measured loop:
//!
//! | layer | timed call |
//! |---|---|
//! | dataset | `microarray::io::read_dataset` |
//! | scorer | `MaxTContext::with_scorer` |
//! | engine | `maxt::engine::accumulate_chunk` |
//! | pmaxt | `pmaxt()` → `PmaxtRun` section profile |
//! | adaptive | `adaptive_maxt` |
//! | boot | `boot_run` |
//! | manager | `submit` / `watch` replies of the loop's jobs |
//! | cache | `ResultCache::probe` / `store` |
//! | journal | `Journal::open` (replay), `storage::atomic_write` |
//! | wire | `Client` `status` and `result` verbs |
//! | shard | `span_exec` sent straight to a daemon; coordinator status counters |

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use microarray::io::read_dataset;
use sprint_core::adaptive::{adaptive_maxt, AdaptiveConfig};
use sprint_core::boot::boot_run;
use sprint_core::labels::ClassLabels;
use sprint_core::maxt::engine::{accumulate_chunk, EngineConfig};
use sprint_core::maxt::MaxTContext;
use sprint_core::options::{Mode, PmaxtOptions, Workload};
use sprint_core::pmaxt::{pmaxt, sections};
use sprint_core::stats::prepare_matrix;
use sprint_jobd::json::Json;
use sprint_jobd::protocol::{job_request, result_request, span_exec_request};
use sprint_jobd::{CacheKey, CacheProbe, Client, Durability, Faults, Journal, ResultCache};

use crate::gen::{self, Class, Data, Task};
use crate::sys::{self, Daemon};
use crate::trace::Recorder;
use crate::workloads::{jobd_client, JobRecord, JOB_TIMEOUT, SERVE_SPAN};
use crate::Bench;

/// One per-layer metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How it was obtained: "measured", "exact count", "computed: ..." or
    /// a ratio with its base.
    pub how: String,
}

fn m(name: &'static str, value: f64, unit: &'static str, how: impl Into<String>) -> Metric {
    Metric {
        name,
        value,
        unit,
        how: how.into(),
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Where the probes find the workload's inputs and live program.
pub struct ProbeCtx {
    /// Scratch directory.
    pub dir: PathBuf,
    /// Dataset files of the workload.
    pub datasets: Vec<(Data, PathBuf)>,
    /// The workload's representative exact job (its dataset is also the one
    /// scored in-process).
    pub main: Task,
    /// Daemon that ran the loop's jobs (status / result probes).
    pub status_addr: String,
    /// Daemon that receives the direct `span_exec` probes.
    pub span_exec_addr: String,
    /// Cache directory holding the main job's entry.
    pub cache_dir: PathBuf,
    /// Journal directory to replay.
    pub journal_dir: PathBuf,
    /// Permutations in one span of this workload.
    pub span_take: u64,
    /// Ranks of the `pmaxt()` probe.
    pub ranks: usize,
}

fn timed<T>(rec: &Recorder, name: &str, reps: usize, mut f: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let (v, dt) = rec.time(name, &mut f);
        times.push(dt);
        last = Some(v);
    }
    (times, last.expect("at least one repetition"))
}

fn err(e: impl ToString) -> io::Error {
    io::Error::other(e.to_string())
}

/// `paper_run` has no daemon in its loop; the jobd layers are probed on a
/// daemon started for the purpose, running a few of the workload's own jobs.
pub fn probe_paper_run(
    bench: &Bench,
    rec: &Recorder,
    dir: &Path,
    paths: &HashMap<Data, PathBuf>,
    loop_records: &[JobRecord],
) -> io::Result<Vec<Metric>> {
    let cache = dir.join("probe-cache");
    let mut d = Daemon::spawn(
        &bench.pmaxt,
        &format!("unix:{}", dir.join("probe.sock").to_string_lossy()),
        &[
            "--workers".to_string(),
            "1".into(),
            "--cache".into(),
            cache.to_string_lossy().into_owned(),
        ],
        &dir.join("probe.log"),
    )?;
    d.wait_ready(JOB_TIMEOUT)?;
    let mut wire_paths = HashMap::new();
    wire_paths.insert(
        Data::Paper,
        fs::canonicalize(&paths[&Data::Paper])?
            .to_string_lossy()
            .into_owned(),
    );
    let plan = gen::single_plan(bench, Class::Shard, bench.scale.paper_b);
    let jobs: Vec<Task> = plan.into_iter().take(bench.scale.probe_reps).collect();
    let records = jobd_client(&d.addr, &jobs, &wire_paths, f64::INFINITY, rec, &|| 0.0);
    let ctx = ProbeCtx {
        dir: dir.to_path_buf(),
        datasets: vec![(Data::Paper, paths[&Data::Paper].clone())],
        main: jobs[0].clone(),
        status_addr: d.addr.clone(),
        span_exec_addr: d.addr.clone(),
        cache_dir: cache.clone(),
        journal_dir: cache.join("journal"),
        span_take: bench.scale.paper_b / 2,
        ranks: 2,
    };
    let out = probe(bench, rec, &ctx, loop_records, &records, &wire_paths);
    d.shutdown();
    out
}

/// Spans a job ran as (computed from its status): sharded jobs report
/// `spans_total`; a cache hit finalizes once; a local job runs
/// ⌈computed / span⌉ spans.
fn spans_of(r: &JobRecord) -> f64 {
    let st = r.status.as_ref();
    if let Some(n) = st
        .and_then(|s| s.get("comm"))
        .and_then(|c| c.get("spans_total"))
        .and_then(Json::as_u64)
    {
        return n as f64;
    }
    if r.cache.as_deref() == Some("hit") {
        return 1.0;
    }
    let computed = st
        .and_then(|s| s.get("computed"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    computed.div_ceil(SERVE_SPAN).max(1) as f64
}

fn comm_u64(r: &JobRecord, field: &str) -> Option<u64> {
    r.status.as_ref()?.get("comm")?.get(field)?.as_u64()
}

/// Run every layer probe and derive the per-layer metrics. `records` are the
/// loop's jobs (work and comm counts); `served` are the jobs a daemon
/// answered (manager phases, cache dispositions, wire probes) — the same
/// jobs except on `paper_run`, whose loop runs processes.
pub fn probe(
    bench: &Bench,
    rec: &Recorder,
    ctx: &ProbeCtx,
    records: &[JobRecord],
    served: &[JobRecord],
    wire_paths: &HashMap<Data, String>,
) -> io::Result<Vec<Metric>> {
    let reps = bench.scale.probe_reps;
    let mut out = Vec::new();
    let n_jobs = records.len().max(1) as f64;

    // dataset: read time per dataset, weighted by how many submits read it.
    let mut w_secs = 0.0;
    let mut w_bytes = 0.0;
    let mut w_total = 0.0;
    for (data, path) in &ctx.datasets {
        let (times, r) = timed(rec, "dataset.read", reps, || read_dataset(path));
        r?;
        let bytes = fs::metadata(path)?.len() as f64;
        let weight = records
            .iter()
            .filter(|r| r.task.data == *data)
            .count()
            .max(1) as f64;
        w_secs += weight * median(&times);
        w_bytes += weight * bytes;
        w_total += weight;
    }
    let remote: u64 = records
        .iter()
        .filter_map(|r| comm_u64(r, "spans_remote"))
        .sum();
    out.push(m(
        "dataset.read_s",
        w_secs / w_total,
        "s",
        "measured: median read, weighted by submits per dataset",
    ));
    out.push(m(
        "dataset.read_mb_per_s",
        w_bytes / w_secs / 1e6,
        "MB/s",
        "measured: file bytes / read time",
    ));
    out.push(m(
        "dataset.reads_per_job",
        (n_jobs + remote as f64) / n_jobs,
        "count",
        format!(
            "computed: (submits {} + spans_remote {remote}) / jobs {}",
            records.len(),
            records.len()
        ),
    ));

    // scorer, engine, pmaxt: the main job on its dataset.
    let main_path = &ctx
        .datasets
        .iter()
        .find(|(d, _)| *d == ctx.main.data)
        .ok_or_else(|| err("main dataset missing"))?
        .1;
    let (data, labels) = read_dataset(main_path)?;
    let mut o = ctx.main.opts.clone();
    o.threads = 1;
    let class = ClassLabels::new(labels.clone(), o.test).map_err(err)?;
    let prepared = prepare_matrix(&data, o.test, o.nonpara).into_owned();
    let (times, _) = timed(rec, "scorer.prepare", reps, || {
        MaxTContext::with_scorer(&prepared, &class, o.test, o.side, o.kernel, o.precision)
    });
    let prepare_s = median(&times);
    out.push(m("scorer.prepare_s", prepare_s, "s", "measured: median"));
    let prepares = if records.iter().any(|r| r.status.is_some()) {
        records.iter().map(spans_of).sum::<f64>() / n_jobs
    } else {
        ctx.ranks as f64
    };
    out.push(m(
        "scorer.prepares_per_job",
        prepares,
        "count",
        "computed: spans per job (one scorer prepare each)",
    ));

    let ctx_scorer =
        MaxTContext::with_scorer(&prepared, &class, o.test, o.side, o.kernel, o.precision);
    let genes = data.rows() as f64;
    let take = ctx.span_take.clamp(1, o.b);
    let chunk = |threads: usize, name: &str| -> io::Result<f64> {
        let (times, r) = timed(rec, name, reps, || {
            accumulate_chunk(
                &ctx_scorer,
                &class,
                &o,
                o.b,
                0,
                take,
                EngineConfig::explicit(threads, 0),
            )
        });
        r.map_err(err)?;
        Ok(median(&times))
    };
    let span_1t = chunk(1, "engine.span_1t")?;
    let nproc = sys::nproc();
    let span_nt = chunk(nproc, "engine.span_nt")?;
    let gp = genes * take as f64;
    out.push(m(
        "engine.span_s",
        span_1t,
        "s",
        format!("measured: {take} permutations, 1 thread"),
    ));
    out.push(m(
        "engine.gene_perms_per_s_1t",
        gp / span_1t,
        "1/s",
        "measured: genes x permutations / span_s",
    ));
    out.push(m(
        "engine.gene_perms_per_s_nt",
        gp / span_nt,
        "1/s",
        format!("measured: {nproc} threads (nproc)"),
    ));
    out.push(m(
        "engine.parallel_efficiency",
        span_1t / (span_nt * nproc as f64),
        "ratio",
        format!("ratio: nt rate / (1t rate x {nproc})"),
    ));
    let work: f64 = records
        .iter()
        .map(|r| gene_perms_scored(r, genes_of(bench, r)))
        .sum();
    out.push(m(
        "engine.gene_perms_per_job",
        work / n_jobs,
        "count",
        "exact count: genes x permutations computed (adaptive: as scored)",
    ));

    let mut sec: HashMap<String, Vec<f64>> = HashMap::new();
    let mut imbalance = Vec::new();
    for _ in 0..reps.max(1) {
        let start = rec.now();
        let run = pmaxt(&data, &labels, &o, ctx.ranks).map_err(err)?;
        let end = rec.now();
        let root = rec.record("pmaxt.run", start, end, None, None);
        let mut t = start;
        for (name, d) in run.profile.iter() {
            let s = d.as_secs_f64();
            rec.record(&format!("pmaxt.section.{name}"), t, t + s, root, None);
            t += s;
            sec.entry(name.to_string()).or_default().push(s);
        }
        imbalance.push(run.kernel_imbalance());
    }
    for (metric, name) in [
        ("pmaxt.pre_processing_s", sections::PRE_PROCESSING),
        (
            "pmaxt.broadcast_parameters_s",
            sections::BROADCAST_PARAMETERS,
        ),
        ("pmaxt.create_data_s", sections::CREATE_DATA),
        ("pmaxt.main_kernel_s", sections::MAIN_KERNEL),
        ("pmaxt.compute_p_values_s", sections::COMPUTE_P_VALUES),
    ] {
        let v = sec.get(name).map_or(0.0, |v| median(v));
        out.push(m(
            metric,
            v,
            "s",
            format!("measured by pmaxt(): master's \"{name}\" section, median"),
        ));
    }
    out.push(m(
        "pmaxt.kernel_imbalance",
        median(&imbalance),
        "ratio",
        format!(
            "ratio: slowest / fastest rank main kernel, {} ranks",
            ctx.ranks
        ),
    ));

    // adaptive and boot on the main dataset.
    let mut ao = o.clone();
    ao.b = bench.scale.adaptive_b;
    ao.mode = Mode::Adaptive;
    ao.threads = 0;
    let (times, r) = timed(rec, "adaptive.run", reps, || {
        adaptive_maxt(&data, &labels, &ao, &AdaptiveConfig::default())
    });
    let rep = r.map_err(err)?.report;
    out.push(m(
        "adaptive.run_s",
        median(&times),
        "s",
        format!("measured: B = {}", ao.b),
    ));
    out.push(m(
        "adaptive.budget_fraction",
        rep.budget_fraction(),
        "ratio",
        format!(
            "exact count ratio: {} scored / {} exact gene-permutations",
            rep.gene_perms_scored, rep.gene_perms_exact
        ),
    ));
    let bo = PmaxtOptions {
        b: bench.scale.boot_b,
        workload: Workload::Bootstrap,
        threads: 0,
        ..o.clone()
    };
    let (times, r) = timed(rec, "boot.run", reps, || boot_run(&data, &labels, &bo));
    let replicates = r.map_err(err)?.replicates as f64;
    let boot_s = median(&times);
    out.push(m(
        "boot.run_s",
        boot_s,
        "s",
        format!("measured: B = {}", bo.b),
    ));
    out.push(m(
        "boot.replicates_per_s",
        replicates / boot_s,
        "1/s",
        "measured",
    ));

    // manager: the loop's own submit/watch replies.
    let ran: Vec<&JobRecord> = served.iter().filter(|r| r.running_t.is_some()).collect();
    let accept: Vec<f64> = served
        .iter()
        .filter_map(|r| Some(r.ack_t? - r.submit_t))
        .collect();
    let wait: Vec<f64> = ran
        .iter()
        .filter_map(|r| Some(r.running_t? - r.ack_t?))
        .collect();
    let run: Vec<f64> = ran
        .iter()
        .filter_map(|r| Some(r.end_t? - r.running_t?))
        .collect();
    out.push(m(
        "manager.accept_s",
        median(&accept),
        "s",
        format!("measured: submit -> ack, median of {}", accept.len()),
    ));
    out.push(m(
        "manager.queue_wait_s",
        median(&wait),
        "s",
        format!(
            "measured: ack -> first running event, median of {} computed jobs",
            wait.len()
        ),
    ));
    out.push(m(
        "manager.run_s",
        median(&run),
        "s",
        format!(
            "measured: running -> terminal event, median of {}",
            run.len()
        ),
    ));
    out.push(m(
        "manager.spans_per_job",
        served.iter().map(spans_of).sum::<f64>() / served.len().max(1) as f64,
        "count",
        "computed: status spans_total, or ceil(computed / span)",
    ));

    // cache: probe and store the main job's entry.
    let key = CacheKey::new(&data, &labels, &ctx.main.opts);
    let cache = ResultCache::open(&ctx.cache_dir)?;
    let (times, probe) = timed(rec, "cache.probe", reps, || {
        cache.probe(&key, ctx.main.opts.b)
    });
    let CacheProbe::Hit(state) = probe else {
        return Err(err(format!(
            "cache entry of the main job not found in {:?}",
            ctx.cache_dir
        )));
    };
    out.push(m(
        "cache.probe_s",
        median(&times),
        "s",
        "measured: median, hit",
    ));
    let store_dir = ctx.dir.join("probe-store");
    let store = ResultCache::open(&store_dir)?;
    let (times, r) = timed(rec, "cache.store", reps, || store.store(&key, &state));
    r?;
    out.push(m("cache.store_s", median(&times), "s", "measured: median"));
    let entry = cache.entry_path(&key);
    let entry_bytes = fs::read(&entry)?;
    out.push(m(
        "cache.entry_bytes",
        entry_bytes.len() as f64,
        "bytes",
        "exact count: entry file size",
    ));
    let submits = served.iter().filter(|r| r.cache.is_some()).count();
    let hits = served
        .iter()
        .filter(|r| r.cache.as_deref() == Some("hit"))
        .count();
    let extends = served
        .iter()
        .filter(|r| r.cache.as_deref() == Some("extend"))
        .count();
    let ratio = |n: usize| n as f64 / submits.max(1) as f64;
    out.push(m(
        "cache.hit_ratio",
        ratio(hits),
        "ratio",
        format!("exact count ratio: {hits} hit / {submits} submits"),
    ));
    out.push(m(
        "cache.extend_ratio",
        ratio(extends),
        "ratio",
        format!("exact count ratio: {extends} extend / {submits} submits"),
    ));

    // journal: replay a copy, time atomic writes of the entry bytes.
    let mut replay = Vec::new();
    let mut records_n = 0;
    for i in 0..reps.max(1) {
        let copy = ctx.dir.join(format!("journal-copy-{i}"));
        crate::workloads::copy_dir(&ctx.journal_dir, &copy)?;
        let start = rec.now();
        let (journal, rep) = Journal::open(&copy, Durability::Batch, Faults::disabled())?;
        let end = rec.now();
        rec.record("journal.replay", start, end, None, None);
        drop(journal);
        replay.push(end - start);
        records_n = rep.records.len();
    }
    out.push(m(
        "journal.replay_s",
        median(&replay),
        "s",
        "measured: Journal::open on a copy",
    ));
    out.push(m(
        "journal.records",
        records_n as f64,
        "count",
        "exact count: records replayed",
    ));
    let target = ctx.dir.join("atomic-write.ckpt");
    let (times, r) = timed(rec, "storage.atomic_write", reps, || {
        sprint_jobd::storage::atomic_write(&target, &entry_bytes, &Faults::disabled())
    });
    r?;
    out.push(m(
        "storage.atomic_write_s",
        median(&times),
        "s",
        format!("measured: {} bytes", entry_bytes.len()),
    ));

    // wire: status round trips and result fetches of a finished loop job.
    let probe_job = served
        .iter()
        .find(|r| r.verified_candidate() && r.task.class == ctx.main.class)
        .or_else(|| served.iter().find(|r| r.verified_candidate()))
        .ok_or_else(|| err("no finished job to probe the wire with"))?;
    let id = probe_job.job_id.unwrap_or(0);
    let mut c = Client::connect_with(&ctx.status_addr, Some(JOB_TIMEOUT))?;
    let (times, r) = timed(rec, "wire.status", reps * 4, || {
        c.request(&job_request("status", id))
    });
    r?;
    out.push(m(
        "wire.status_rtt_s",
        median(&times),
        "s",
        "measured: status verb round trip",
    ));
    let mut bytes = 0;
    let (times, r) = timed(rec, "wire.result", reps, || -> io::Result<()> {
        let resp = c.request(&result_request(id, false))?;
        bytes = resp.to_json().len() + 1;
        crate::verify::digest_reply(probe_job.task.class, &resp).map_err(err)?;
        Ok(())
    });
    r?;
    out.push(m(
        "wire.result_s",
        median(&times),
        "s",
        format!(
            "measured: fetch + decode of a {} result",
            probe_job.task.class.as_str()
        ),
    ));
    out.push(m(
        "wire.result_bytes",
        bytes as f64,
        "bytes",
        "exact count: reply line length",
    ));

    // shard: span_exec straight to a daemon, plus the loop's comm counters.
    let mut so = ctx.main.opts.clone();
    so.threads = 1;
    let req = span_exec_request(&wire_paths[&ctx.main.data], &so, so.b, 0, take);
    let mut c = Client::connect_with(&ctx.span_exec_addr, Some(JOB_TIMEOUT))?;
    let (times, r) = timed(rec, "shard.span_exec", reps, || c.request(&req));
    sprint_jobd::client::expect_ok(r?).map_err(|(m, _)| err(m))?;
    let span_exec_s = median(&times);
    out.push(m(
        "shard.span_exec_s",
        span_exec_s,
        "s",
        format!("measured: {take} permutations, 1 thread"),
    ));
    out.push(m(
        "shard.span_overhead_s",
        span_exec_s - span_1t,
        "s",
        "computed: span_exec_s - engine.span_s",
    ));
    let sharded: Vec<&JobRecord> = records
        .iter()
        .filter(|r| comm_u64(r, "spans_total").is_some())
        .collect();
    let per_job = |field: &str| -> f64 {
        sharded
            .iter()
            .filter_map(|r| comm_u64(r, field))
            .sum::<u64>() as f64
            / n_jobs
    };
    let label = if sharded.is_empty() {
        "status counter: no sharded jobs in this workload".to_string()
    } else {
        format!("status counter: mean over {} sharded jobs", sharded.len())
    };
    out.push(m(
        "shard.spans_remote_per_job",
        per_job("spans_remote"),
        "count",
        label.clone(),
    ));
    out.push(m(
        "shard.bytes_in_per_job",
        per_job("bytes_received"),
        "bytes",
        label.clone(),
    ));
    out.push(m(
        "shard.bytes_out_per_job",
        per_job("bytes_sent"),
        "bytes",
        label,
    ));
    let kernel: f64 = sharded
        .iter()
        .map(|r| {
            (comm_u64(r, "kernel_local_micros").unwrap_or(0)
                + comm_u64(r, "kernel_remote_micros").unwrap_or(0)) as f64
                * 1e-6
        })
        .sum();
    let wall: f64 = sharded
        .iter()
        .map(|r| comm_u64(r, "peers").unwrap_or(1) as f64 * r.latency())
        .sum();
    let (share, how) = if wall > 0.0 {
        (
            1.0 - kernel / wall,
            format!("computed: 1 - kernel {kernel:.3} s / (daemons x job wall) {wall:.3} s"),
        )
    } else {
        (
            0.0,
            "computed: no sharded jobs in this workload".to_string(),
        )
    };
    out.push(m("shard.comm_share", share, "ratio", how));
    Ok(out)
}

fn genes_of(bench: &Bench, r: &JobRecord) -> f64 {
    match r.task.data {
        Data::Paper => bench.scale.genes as f64,
        Data::Big => bench.scale.big_genes as f64,
    }
}

/// Gene-permutations the program computed for a job: none for a cache hit,
/// the extension for an extend, what the adaptive report says it scored,
/// and genes × B otherwise.
pub fn gene_perms_scored(r: &JobRecord, genes: f64) -> f64 {
    if r.digest.is_err() {
        return 0.0;
    }
    if let Some(s) = r.scored {
        return s as f64;
    }
    match r.cache.as_deref() {
        Some("hit") => 0.0,
        _ => genes * r.task.opts.b.saturating_sub(r.resumed_from) as f64,
    }
}

impl JobRecord {
    fn verified_candidate(&self) -> bool {
        self.digest.is_ok() && self.job_id.is_some()
    }
}
