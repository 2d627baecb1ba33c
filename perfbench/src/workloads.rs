//! The three workloads, each a closed loop against the real `pmaxt` binary:
//!
//! - `paper_run`: `pmaxt run` processes, one at a time;
//! - `shard_stream`: one client, a coordinator daemon plus one `--peer` over
//!   localhost TCP;
//! - `serve_mix`: two clients, one daemon on a unix socket, restarted over a
//!   prepared cache and journal.
//!
//! A workload run is: set-up (timed several times, median reported), the
//! measured loop, optional layer probes (traced runs), shutdown, then
//! verification of every delivered result against in-process references.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use sprint_jobd::json::Json;
use sprint_jobd::protocol::{job_request, result_request, submit_request};
use sprint_jobd::Client;

use crate::gen::{self, Class, Data, Expect, Task};
use crate::sys::{self, CpuStat, Daemon};
use crate::trace::Recorder;
use crate::verify::{self, References};
use crate::{Bench, Kind};

/// Per-request socket timeout; a job that takes longer counts as failed.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(60);
const READY_TIMEOUT: Duration = Duration::from_secs(60);
/// Span size jobd daemons run with (the `pmaxt serve` default).
pub const SERVE_SPAN: u64 = 4096;

/// What happened to one job of the loop.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The request.
    pub task: Task,
    /// Submit time, seconds on the recorder clock.
    pub submit_t: f64,
    /// Time the result was received and decoded.
    pub done_t: f64,
    /// CPU seconds all program processes had used since the window opened,
    /// sampled right after the result arrived.
    pub cpu_t: f64,
    /// Digest of the delivered output, or why nothing usable came back.
    pub digest: Result<u64, String>,
    /// Gene-permutations the program actually scored for this job, when the
    /// reply says (adaptive jobs).
    pub scored: Option<u64>,
    /// jobd job id.
    pub job_id: Option<u64>,
    /// Cache disposition from the submit reply.
    pub cache: Option<String>,
    /// Cursor the job resumed from.
    pub resumed_from: u64,
    /// Whether the submit deduplicated onto a live job.
    pub deduped: bool,
    /// Ack time (traced runs).
    pub ack_t: Option<f64>,
    /// First `running` event (traced runs).
    pub running_t: Option<f64>,
    /// Terminal event (traced runs).
    pub end_t: Option<f64>,
    /// Status reply after the result (traced runs).
    pub status: Option<Json>,
    /// Set by verification.
    pub verified: bool,
}

impl JobRecord {
    fn new(task: &Task, submit_t: f64) -> JobRecord {
        JobRecord {
            task: task.clone(),
            submit_t,
            done_t: submit_t,
            cpu_t: 0.0,
            digest: Err("not run".into()),
            scored: None,
            job_id: None,
            cache: None,
            resumed_from: 0,
            deduped: false,
            ack_t: None,
            running_t: None,
            end_t: None,
            status: None,
            verified: false,
        }
    }

    /// Submit-to-result latency, seconds.
    pub fn latency(&self) -> f64 {
        self.done_t - self.submit_t
    }
}

/// Everything a workload run measured.
#[derive(Debug, Default)]
pub struct LoopOutcome {
    /// One record per attempted job.
    pub records: Vec<JobRecord>,
    /// Loop start, seconds on the recorder clock.
    pub start_t: f64,
    /// Measured phase: loop start until the last job completed.
    pub window_s: f64,
    /// Set-up times (one per repetition).
    pub setup_samples: Vec<f64>,
    /// User + sys CPU of every program process during the window.
    pub cpu_s: f64,
    /// Largest resident set of any program process, KiB.
    pub peak_rss_kb: u64,
    /// Steal share of host CPU time during the window.
    pub steal: f64,
    /// Iowait share of host CPU time during the window.
    pub iowait: f64,
    /// Genes per dataset.
    pub genes: HashMap<Data, usize>,
    /// Layer probe results (traced runs).
    pub layers: Vec<crate::layers::Metric>,
    /// Jobs whose cache disposition differed from the plan.
    pub disposition_drift: usize,
    /// Wall seconds of each phase of the run, in order.
    pub phases: Vec<(&'static str, f64)>,
}

/// A run's scratch directory, removed on drop.
pub struct RunDir(pub PathBuf);

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn io_err(e: impl ToString) -> io::Error {
    io::Error::other(e.to_string())
}

fn abs(p: &Path) -> io::Result<String> {
    Ok(fs::canonicalize(p)?.to_string_lossy().into_owned())
}

/// What the loops of one invocation share: the seeded datasets, the
/// serve_mix prepared cache (built by the first loop that needs it) and the
/// memoised references. All of it is made outside the measured windows.
pub struct Inputs {
    dir: RunDir,
    paths: HashMap<Data, PathBuf>,
    template: Option<PathBuf>,
    refs: References,
    loops: usize,
    /// Wall seconds spent generating the datasets.
    pub generate_s: f64,
}

impl Inputs {
    /// Generate the workload's datasets into a fresh scratch directory.
    pub fn new(bench: &Bench) -> io::Result<Inputs> {
        let t0 = std::time::Instant::now();
        let dir = bench
            .work
            .join(format!("run-{}-{}", std::process::id(), rec_nonce()));
        fs::create_dir_all(&dir)?;
        let dir = RunDir(dir);
        let mut paths = HashMap::new();
        paths.insert(Data::Paper, gen::write_data(bench, Data::Paper, &dir.0)?);
        if bench.kind == Kind::ServeMix {
            paths.insert(Data::Big, gen::write_data(bench, Data::Big, &dir.0)?);
        }
        Ok(Inputs {
            refs: References::new(paths.clone(), bench.corrupt_reference),
            dir,
            paths,
            template: None,
            loops: 0,
            generate_s: t0.elapsed().as_secs_f64(),
        })
    }
}

/// Run the configured workload once over `inputs`. Each run starts its
/// daemons over fresh state of its own, so repeated runs see the same
/// program state.
pub fn run(bench: &Bench, rec: &Recorder, inputs: &mut Inputs) -> io::Result<LoopOutcome> {
    let dir = inputs.dir.0.join(format!("loop{}", inputs.loops));
    inputs.loops += 1;
    fs::create_dir_all(&dir)?;
    let t0 = rec.now();
    let paths = &inputs.paths;
    let mut out = match bench.kind {
        Kind::PaperRun => paper_run(bench, rec, &dir, paths)?,
        Kind::ShardStream => shard_stream(bench, rec, &dir, paths)?,
        Kind::ServeMix => {
            let mut wire_paths = HashMap::new();
            for (d, p) in paths {
                wire_paths.insert(*d, abs(p)?);
            }
            if inputs.template.is_none() {
                inputs.template = Some(prepare_mix_cache(bench, &inputs.dir.0, &wire_paths)?);
            }
            let template = inputs.template.as_deref().expect("prepared above");
            serve_mix(bench, rec, &dir, paths, &wire_paths, template)?
        }
    };
    let s = &bench.scale;
    out.genes.insert(Data::Paper, s.genes);
    out.genes.insert(Data::Big, s.big_genes);
    let measured = rec.now();
    verify_records(&mut out, &mut inputs.refs);
    let loop_end = out.start_t + out.window_s;
    out.phases = vec![
        ("prepare and set up", out.start_t - t0),
        ("measured loop", out.window_s),
        ("probes and shutdown", measured - loop_end),
        ("verify", rec.now() - measured),
    ];
    Ok(out)
}

fn rec_nonce() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

/// Check every delivered output against its reference.
fn verify_records(out: &mut LoopOutcome, refs: &mut References) {
    let tasks: Vec<&Task> = out.records.iter().map(|r| &r.task).collect();
    let expected = refs.expected(&tasks, sys::nproc());
    for (r, want) in out.records.iter_mut().zip(expected) {
        r.verified = match (&r.digest, want) {
            (Ok(d), Ok(want)) => *d == want,
            (Ok(_), Err(e)) => {
                r.digest = Err(format!("reference failed: {e}"));
                false
            }
            (Err(_), _) => false,
        };
        if r.verified {
            // A deduplicated submission skips the work its class is there to
            // measure, so it counts as drift whatever the cache said.
            let drift = r.deduped
                || match (r.task.expect, r.cache.as_deref()) {
                    (Expect::Hit, Some(c)) => c != "hit",
                    (Expect::Extend { from }, Some(c)) => c != "extend" || r.resumed_from != from,
                    _ => false,
                };
            out.disposition_drift += usize::from(drift);
        } else if r.digest.is_ok() {
            r.digest = Err("output differs from the reference".into());
        }
    }
}

// --------------------------------------------------------------- paper_run

fn pmaxt_run_cmd(bench: &Bench, path: &Path, task: &Task, ranks: usize) -> Command {
    let o = &task.opts;
    let mut cmd = Command::new(&bench.pmaxt);
    cmd.arg("run")
        .arg(path)
        .args(["--test", o.test.as_str(), "--side", o.side.as_str()])
        .args(["-B", &o.b.to_string(), "--seed", &o.seed.to_string()])
        .args(["--ranks", &ranks.to_string(), "--threads", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}

fn paper_run(
    bench: &Bench,
    rec: &Recorder,
    dir: &Path,
    paths: &HashMap<Data, PathBuf>,
) -> io::Result<LoopOutcome> {
    let path = &paths[&Data::Paper];
    let plan = gen::single_plan(bench, Class::Paper, bench.scale.paper_b);
    let mut out = LoopOutcome::default();
    // Set-up: the fixed per-job cost, `pmaxt run -B 1` (one rank: a single
    // permutation cannot be split over two).
    for i in 0..bench.scale.setup_reps {
        let mut task = plan[0].clone();
        task.opts.b = 1;
        task.opts.seed = i as u64 + 1;
        let t0 = rec.now();
        let st = sys::run_with_timeout(&mut pmaxt_run_cmd(bench, path, &task, 1), JOB_TIMEOUT)?;
        out.setup_samples.push(rec.now() - t0);
        if !st.is_some_and(|s| s.success()) {
            return Err(io_err(format!("setup `pmaxt run -B 1` failed: {st:?}")));
        }
    }
    let out_file = dir.join("out.tsv");
    sys::flush_page_cache();
    let (cpu0, _) = sys::children_usage();
    let stat0 = CpuStat::read();
    let t0 = rec.now();
    out.start_t = t0;
    let deadline = t0 + bench.seconds;
    for task in &plan {
        if rec.now() >= deadline {
            break;
        }
        let _ = fs::remove_file(&out_file);
        let mut r = JobRecord::new(task, rec.now());
        let mut cmd = pmaxt_run_cmd(bench, path, task, 2);
        cmd.arg("--out").arg(&out_file);
        let st = sys::run_with_timeout(&mut cmd, JOB_TIMEOUT);
        r.done_t = rec.now();
        r.digest = match st {
            Ok(Some(s)) if s.success() => fs::read(&out_file)
                .map(|b| verify::digest_bytes(&b))
                .map_err(|e| format!("reading --out table: {e}")),
            Ok(Some(s)) => Err(format!("pmaxt run exited with {s}")),
            Ok(None) => Err(format!("timed out after {JOB_TIMEOUT:?}")),
            Err(e) => Err(format!("spawning pmaxt run: {e}")),
        };
        // Read and digest are part of receiving the result.
        r.done_t = rec.now().max(r.done_t);
        r.cpu_t = sys::children_usage().0 - cpu0;
        if let Some(root) = rec.record("job", r.submit_t, r.done_t, None, Some(task.index as u64)) {
            rec.record(
                "process.run",
                r.submit_t,
                r.done_t,
                Some(root),
                Some(task.index as u64),
            );
        }
        out.records.push(r);
    }
    out.window_s = rec.now() - t0;
    let (cpu1, rss) = sys::children_usage();
    let (steal, iowait) = stat0.shares_until(&CpuStat::read());
    out.cpu_s = cpu1 - cpu0;
    out.peak_rss_kb = rss;
    out.steal = steal;
    out.iowait = iowait;
    if rec.enabled() {
        out.layers = crate::layers::probe_paper_run(bench, rec, dir, paths, &out.records)?;
    }
    Ok(out)
}

// ---------------------------------------------------------- jobd clients

/// Send `tasks` in a closed loop over one connection until `deadline`.
/// Traced runs also `watch` each job (manager phases) and fetch its status.
pub fn jobd_client(
    addr: &str,
    tasks: &[Task],
    paths: &HashMap<Data, String>,
    deadline: f64,
    rec: &Recorder,
    cpu: &(dyn Fn() -> f64 + Sync),
) -> Vec<JobRecord> {
    let mut conn: Option<Client> = None;
    let mut out = Vec::new();
    for task in tasks {
        if rec.now() >= deadline {
            break;
        }
        let mut r = JobRecord::new(task, rec.now());
        if conn.is_none() {
            conn = Client::connect_with(addr, Some(JOB_TIMEOUT)).ok();
        }
        match conn.as_mut() {
            Some(c) => {
                if let Err(e) = one_job(c, task, &paths[&task.data], rec, &mut r) {
                    r.digest = Err(e);
                    conn = None;
                }
            }
            None => r.digest = Err(format!("cannot connect to {addr}")),
        }
        r.done_t = rec.now().max(r.done_t);
        r.cpu_t = cpu();
        if rec.enabled() {
            record_job_spans(rec, &r);
        }
        out.push(r);
    }
    out
}

fn ok(resp: Json) -> Result<Json, String> {
    sprint_jobd::client::expect_ok(resp).map_err(|(m, c)| format!("{c}: {m}"))
}

fn one_job(
    c: &mut Client,
    task: &Task,
    path: &str,
    rec: &Recorder,
    r: &mut JobRecord,
) -> Result<(), String> {
    let io = |e: io::Error| format!("wire: {e}");
    let ack = ok(c.request(&submit_request(path, &task.opts)).map_err(io)?)?;
    r.ack_t = Some(rec.now());
    let id = ack
        .get("job")
        .and_then(Json::as_u64)
        .ok_or("submit reply lacks job")?;
    r.job_id = Some(id);
    r.cache = ack.get("cache").and_then(Json::as_str).map(str::to_string);
    r.resumed_from = ack.get("resumed_from").and_then(Json::as_u64).unwrap_or(0);
    r.deduped = ack.get("deduped").and_then(Json::as_bool).unwrap_or(false);
    if rec.enabled() {
        let mut ev = ok(c.request(&job_request("watch", id)).map_err(io)?)?;
        loop {
            let state = ev.get("state").and_then(Json::as_str).unwrap_or("");
            if state == "running" && r.running_t.is_none() {
                r.running_t = Some(rec.now());
            }
            if matches!(state, "finished" | "failed" | "cancelled") {
                r.end_t = Some(rec.now());
                break;
            }
            ev = ok(c.read_response().map_err(io)?)?;
        }
    }
    let resp = ok(c.request(&result_request(id, true)).map_err(io)?)?;
    r.digest = verify::digest_reply(task.class, &resp);
    r.scored = resp
        .get("adaptive")
        .and_then(|a| a.get("gene_perms_scored"))
        .and_then(Json::as_u64);
    r.done_t = rec.now();
    if rec.enabled() {
        r.status = c.request(&job_request("status", id)).ok();
    }
    Ok(())
}

fn record_job_spans(rec: &Recorder, r: &JobRecord) {
    let job = r.job_id;
    let Some(root) = rec.record("job", r.submit_t, r.done_t, None, job) else {
        return;
    };
    let Some(ack) = r.ack_t else {
        return;
    };
    rec.record("manager.accept", r.submit_t, ack, Some(root), job);
    let mut cursor = ack;
    if let Some(run) = r.running_t {
        rec.record("manager.queue_wait", ack, run, Some(root), job);
        cursor = run;
    }
    if let Some(end) = r.end_t {
        if r.running_t.is_some() {
            rec.record("manager.run", cursor, end, Some(root), job);
        }
        cursor = end;
    }
    rec.record("wire.result", cursor, r.done_t, Some(root), job);
}

/// Spawn daemons with `spawn`, timing spawn → every daemon answers.
/// Repeats `reps` times (earlier sets are killed) and keeps the last set.
fn timed_setup(
    reps: usize,
    rec: &Recorder,
    samples: &mut Vec<f64>,
    mut spawn: impl FnMut(usize) -> io::Result<Vec<Daemon>>,
) -> io::Result<Vec<Daemon>> {
    let mut last = Vec::new();
    for i in 0..reps.max(1) {
        drop(std::mem::take(&mut last));
        sys::flush_page_cache();
        let t0 = rec.now();
        let mut set = spawn(i)?;
        for d in &mut set {
            d.wait_ready(READY_TIMEOUT)?;
        }
        samples.push(rec.now() - t0);
        last = set;
    }
    Ok(last)
}

fn loop_window(
    out: &mut LoopOutcome,
    daemons: &[Daemon],
    rec: &Recorder,
    seconds: f64,
    clients: Vec<(String, Vec<Task>)>,
    paths: &HashMap<Data, String>,
) {
    let cpu0: f64 = daemons.iter().map(Daemon::cpu_secs).sum();
    let pids: Vec<u32> = daemons.iter().map(Daemon::pid).collect();
    let cpu = move || -> f64 {
        pids.iter()
            .filter_map(|&p| sys::proc_cpu_secs(p))
            .sum::<f64>()
            - cpu0
    };
    let cpu = &cpu;
    sys::flush_page_cache();
    let stat0 = CpuStat::read();
    let t0 = rec.now();
    out.start_t = t0;
    let deadline = t0 + seconds;
    let records: Vec<Vec<JobRecord>> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .map(|(addr, tasks)| {
                s.spawn(move || jobd_client(addr, tasks, paths, deadline, rec, cpu))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_default())
            .collect()
    });
    out.window_s = rec.now() - t0;
    out.cpu_s = cpu();
    out.peak_rss_kb = daemons.iter().map(Daemon::peak_rss_kb).max().unwrap_or(0);
    let (steal, iowait) = stat0.shares_until(&CpuStat::read());
    out.steal = steal;
    out.iowait = iowait;
    out.records = records.into_iter().flatten().collect();
}

// ------------------------------------------------------------ shard_stream

fn shard_stream(
    bench: &Bench,
    rec: &Recorder,
    dir: &Path,
    paths: &HashMap<Data, PathBuf>,
) -> io::Result<LoopOutcome> {
    let mut out = LoopOutcome::default();
    let data_path = abs(&paths[&Data::Paper])?;
    let mut wire_paths = HashMap::new();
    wire_paths.insert(Data::Paper, data_path.clone());
    let mut coord_cache = PathBuf::new();
    let daemons = timed_setup(bench.scale.setup_reps, rec, &mut out.setup_samples, |i| {
        let peer_addr = format!("127.0.0.1:{}", sys::free_port()?);
        let coord_addr = format!("127.0.0.1:{}", sys::free_port()?);
        let peer_cache = dir.join(format!("peer-cache-{i}"));
        coord_cache = dir.join(format!("coord-cache-{i}"));
        let peer = Daemon::spawn(
            &bench.pmaxt,
            &peer_addr,
            &strings(&["--workers", "1", "--cache", &peer_cache.to_string_lossy()]),
            &dir.join(format!("peer-{i}.log")),
        )?;
        let coord = Daemon::spawn(
            &bench.pmaxt,
            &coord_addr,
            &strings(&[
                "--workers",
                "1",
                "--cache",
                &coord_cache.to_string_lossy(),
                "--peer",
                &peer_addr,
            ]),
            &dir.join(format!("coord-{i}.log")),
        )?;
        Ok(vec![peer, coord])
    })?;
    let plan = gen::single_plan(bench, Class::Shard, bench.scale.shard_b);
    let coord_addr = daemons[1].addr.clone();
    loop_window(
        &mut out,
        &daemons,
        rec,
        bench.seconds,
        vec![(coord_addr.clone(), plan)],
        &wire_paths,
    );
    if rec.enabled() {
        let ctx = crate::layers::ProbeCtx {
            dir: dir.to_path_buf(),
            datasets: vec![(Data::Paper, paths[&Data::Paper].clone())],
            main: gen::single_plan(bench, Class::Shard, bench.scale.shard_b)[0].clone(),
            status_addr: coord_addr,
            span_exec_addr: daemons[0].addr.clone(),
            cache_dir: coord_cache.clone(),
            journal_dir: coord_cache.join("journal"),
            span_take: bench.scale.shard_b / 2,
            ranks: 2,
        };
        out.layers =
            crate::layers::probe(bench, rec, &ctx, &out.records, &out.records, &wire_paths)?;
    }
    for d in daemons {
        d.shutdown();
    }
    Ok(out)
}

fn strings(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

// --------------------------------------------------------------- serve_mix

/// Recursive copy of a directory (an absent source copies as empty).
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    fs::create_dir_all(to)?;
    if !from.exists() {
        return Ok(());
    }
    for e in fs::read_dir(from)? {
        let e = e?;
        let target = to.join(e.file_name());
        if e.file_type()?.is_dir() {
            copy_dir(&e.path(), &target)?;
        } else {
            fs::copy(e.path(), &target)?;
        }
    }
    Ok(())
}

fn mix_daemon_args(cache: &Path) -> Vec<String> {
    strings(&[
        "--workers",
        "2",
        "--durability",
        "batch",
        "--cache",
        &cache.to_string_lossy(),
    ])
}

/// Build the serve_mix cache and journal: a daemon computes every prepared
/// entry and is then shut down (without draining, so its journal keeps the
/// records that every measured start replays).
fn prepare_mix_cache(
    bench: &Bench,
    dir: &Path,
    wire_paths: &HashMap<Data, String>,
) -> io::Result<PathBuf> {
    let template = dir.join("template");
    let sock = dir.join("prep.sock");
    let mut d = Daemon::spawn(
        &bench.pmaxt,
        &format!("unix:{}", sock.to_string_lossy()),
        &mix_daemon_args(&template),
        &dir.join("prep.log"),
    )?;
    d.wait_ready(READY_TIMEOUT)?;
    let (hits, big, ext) = gen::prepared_entries(bench);
    let entries: Vec<_> = hits
        .iter()
        .chain(&big)
        .chain(ext.iter().flatten())
        .collect();
    // Two connections, like the measured clients, each submitting half.
    let addr = d.addr.clone();
    std::thread::scope(|s| -> io::Result<()> {
        let halves: Vec<_> = (0..2)
            .map(|k| {
                let mine: Vec<_> = entries.iter().skip(k).step_by(2).collect();
                let addr = &addr;
                s.spawn(move || -> io::Result<()> {
                    let mut c = Client::connect_with(addr, Some(JOB_TIMEOUT * 4))?;
                    let mut ids = Vec::new();
                    for e in mine {
                        let req = submit_request(&wire_paths[&e.data], &e.opts);
                        let resp = ok(c.request(&req)?).map_err(io_err)?;
                        ids.push(
                            resp.get("job")
                                .and_then(Json::as_u64)
                                .ok_or_else(|| io_err("no job id"))?,
                        );
                    }
                    for id in ids {
                        ok(c.request(&result_request(id, true))?).map_err(io_err)?;
                    }
                    Ok(())
                })
            })
            .collect();
        for h in halves {
            h.join().map_err(|_| io_err("prepare client panicked"))??;
        }
        Ok(())
    })?;
    d.shutdown();
    Ok(template)
}

fn serve_mix(
    bench: &Bench,
    rec: &Recorder,
    dir: &Path,
    paths: &HashMap<Data, PathBuf>,
    wire_paths: &HashMap<Data, String>,
    template: &Path,
) -> io::Result<LoopOutcome> {
    let mut out = LoopOutcome::default();
    // Every start gets its own copy of the prepared state, made before the
    // timed part of set-up.
    let caches: Vec<PathBuf> = (0..bench.scale.setup_reps.max(1))
        .map(|i| dir.join(format!("cache-{i}")))
        .collect();
    for c in &caches {
        copy_dir(template, c)?;
    }
    let daemons = timed_setup(bench.scale.setup_reps, rec, &mut out.setup_samples, |i| {
        let sock = dir.join(format!("mix-{i}.sock"));
        Ok(vec![Daemon::spawn(
            &bench.pmaxt,
            &format!("unix:{}", sock.to_string_lossy()),
            &mix_daemon_args(&caches[i]),
            &dir.join(format!("mix-{i}.log")),
        )?])
    })?;
    let cache = caches.last().expect("at least one set-up").clone();
    let addr = daemons[0].addr.clone();
    let clients = (0..2)
        .map(|c| (addr.clone(), gen::mix_plan(bench, c)))
        .collect();
    loop_window(&mut out, &daemons, rec, bench.seconds, clients, wire_paths);
    if rec.enabled() {
        let (hits, _, _) = gen::prepared_entries(bench);
        let mut main = gen::mix_plan(bench, 0)[0].clone();
        main.class = Class::HitPaper;
        main.data = Data::Paper;
        main.opts = hits[0].opts.clone();
        let ctx = crate::layers::ProbeCtx {
            dir: dir.to_path_buf(),
            datasets: vec![
                (Data::Paper, paths[&Data::Paper].clone()),
                (Data::Big, paths[&Data::Big].clone()),
            ],
            main,
            status_addr: addr.clone(),
            span_exec_addr: addr,
            cache_dir: cache.clone(),
            journal_dir: template.join("journal"),
            span_take: bench.scale.hit_b,
            ranks: 2,
        };
        out.layers =
            crate::layers::probe(bench, rec, &ctx, &out.records, &out.records, wire_paths)?;
    }
    for d in daemons {
        d.shutdown();
    }
    Ok(out)
}
