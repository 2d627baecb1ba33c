//! Fault-injection soak: with every fault class armed at a few percent, the
//! daemon never dies, every job reaches a terminal state, and retried or
//! resumed jobs land bitwise-identical to a fault-free serial run — for all
//! six statistics.
//!
//! The CI fault leg runs exactly this binary under a fixed `SPRINT_FAULTS`
//! spec; when the variable is unset the tests arm an equivalent programmatic
//! spec, so the soak is exercised either way.

use std::time::Duration;

use sprint_core::adaptive::{adaptive_maxt, AdaptiveConfig};
use sprint_core::boot::{boot_run, BootstrapResult};
use sprint_core::matrix::Matrix;
use sprint_core::maxt::serial::mt_maxt;
use sprint_core::options::{Mode, PmaxtOptions, TestMethod, Workload};
use sprint_jobd::client::{expect_ok, request_retried, RetryPolicy};
use sprint_jobd::json::Json;
use sprint_jobd::{
    protocol, FaultKind, Faults, JobError, JobManager, JobSpec, ManagerConfig, Server, ServerConfig,
};

const WAIT: Duration = Duration::from_secs(120);

/// The CI adaptive leg re-runs this whole soak under `SPRINT_MODE=adaptive`;
/// the daemon resolves the mode at submission time, so every job below
/// silently turns adaptive there. Resolve it the same way and assert the
/// contract each mode actually makes: bitwise identity against the serial
/// reference for exact jobs, the deterministic p-value envelope for adaptive
/// ones.
fn adaptive_mode() -> bool {
    Mode::Exact.env_override() == Mode::Adaptive
}

/// Honor the CI-provided `SPRINT_FAULTS` spec when present; otherwise arm
/// the given default so the soak always runs with faults on.
fn soak_faults(default_spec: &str) -> Faults {
    let seed = std::env::var("SPRINT_FAULTS_SEED")
        .ok()
        .and_then(|s| s.parse().ok());
    match std::env::var("SPRINT_FAULTS") {
        Ok(spec) => Faults::parse_spec(&spec, seed).expect("SPRINT_FAULTS must parse"),
        Err(_) => Faults::parse_spec(default_spec, seed).unwrap(),
    }
}

fn synth_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut state = seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut v = Vec::with_capacity(rows * cols);
    for g in 0..rows {
        let shift = if g % 5 == 0 { 1.2 } else { 0.0 };
        for c in 0..cols {
            let bump = if c >= cols / 2 { shift } else { 0.0 };
            v.push(next() * 4.0 - 2.0 + bump);
        }
    }
    Matrix::from_vec(rows, cols, v).unwrap()
}

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("jobd-soak-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Submit and wait; on an injected failure, resubmit (idempotent by content
/// digest — the dedup map falls through for failed jobs) until the job
/// finishes. Returns the result, how many attempts it took, and the winning
/// job's id (for mode-specific report queries).
fn run_to_completion(
    mgr: &JobManager,
    spec: &JobSpec,
) -> (sprint_core::maxt::MaxTResult, u32, u64) {
    for attempt in 1..=200u32 {
        let info = mgr.submit(spec.clone()).expect("submit must not fail");
        match mgr.wait_result(info.id, Some(WAIT)) {
            Ok(r) => return (r, attempt, info.id),
            Err(JobError::Failed(reason)) => {
                assert!(
                    reason.contains("injected") || reason.contains("panicked"),
                    "only injected faults may fail a soak job, got: {reason}"
                );
            }
            Err(other) => panic!("unexpected terminal error: {other}"),
        }
    }
    panic!("job failed 200 consecutive times — fault rate runaway?");
}

/// [`run_to_completion`] for a bootstrap job.
fn boot_to_completion(mgr: &JobManager, spec: &JobSpec) -> (BootstrapResult, u32) {
    for attempt in 1..=200u32 {
        let info = mgr.submit(spec.clone()).expect("submit must not fail");
        match mgr.wait_boot_result(info.id, Some(WAIT)) {
            Ok(r) => return (r, attempt),
            Err(JobError::Failed(reason)) => {
                assert!(
                    reason.contains("injected") || reason.contains("panicked"),
                    "only injected faults may fail a soak job, got: {reason}"
                );
            }
            Err(other) => panic!("unexpected terminal error: {other}"),
        }
    }
    panic!("bootstrap job failed 200 consecutive times — fault rate runaway?");
}

/// Multi-job soak across all six statistics with worker panics, span I/O
/// errors and cache corruption armed. Every job must settle, the manager
/// must survive, and every final table must be bitwise-identical to the
/// serial reference.
#[test]
fn soak_all_statistics_survive_faults_bitwise_identical() {
    let faults = soak_faults("worker_panic:0.06,span_io:0.06,cache_corrupt:0.06,seed:42");
    let cache = tmpdir("mgr");
    let mgr = JobManager::new(ManagerConfig {
        workers: 3,
        span: 8,
        cache_dir: Some(cache.clone()),
        faults: faults.clone(),
        ..ManagerConfig::default()
    })
    .unwrap();

    let tests: [(TestMethod, Vec<u8>); 6] = [
        (TestMethod::T, vec![0, 0, 0, 0, 1, 1, 1, 1]),
        (TestMethod::TEqualVar, vec![0, 0, 0, 0, 1, 1, 1, 1]),
        (TestMethod::Wilcoxon, vec![0, 0, 0, 0, 1, 1, 1, 1]),
        (TestMethod::F, vec![0, 0, 1, 1, 2, 2, 2, 2]),
        (TestMethod::PairT, vec![0, 1, 0, 1, 1, 0, 0, 1]),
        (TestMethod::BlockF, vec![0, 1, 1, 0, 0, 1, 1, 0]),
    ];
    // An adaptive job draws the worker fault classes once per attempt (the
    // runner is one dedicated thread, not a span loop), so a single pass
    // over the six statistics gives the injector too few draws to prove
    // anything. Re-run the grid over distinct seeds to densify the draws.
    let rounds: u64 = if adaptive_mode() { 8 } else { 1 };
    let mut retried_any = false;
    for round in 0..rounds {
        for (test, labels) in &tests {
            let data = synth_matrix(40, labels.len(), 9000 + *test as u64);
            let opts = PmaxtOptions::default()
                .test(*test)
                .permutations(240)
                .seed(17 + round)
                .threads(2)
                .batch(4);
            let spec = JobSpec {
                data: data.clone(),
                classlabel: labels.clone(),
                opts: opts.clone(),
                source_path: None,
            };
            let (served, attempts, _) = run_to_completion(&mgr, &spec);
            retried_any |= attempts > 1;
            if adaptive_mode() {
                // Failed attempts never reach the success-time cache store,
                // so the winning attempt always starts from a cold cache and
                // its result is bitwise-reproducible in process.
                let direct =
                    adaptive_maxt(&data, labels, &opts, &AdaptiveConfig::default()).unwrap();
                assert_eq!(
                    served,
                    direct.result,
                    "{}: faulted adaptive run must match a fresh in-process run",
                    test.as_str()
                );
            } else {
                let direct = mt_maxt(&data, labels, &opts).unwrap();
                assert_eq!(
                    served,
                    direct,
                    "{}: faulted run must stay bitwise-identical",
                    test.as_str()
                );
            }
        }
    }

    // Bootstrap jobs draw the same worker fault classes once per band. Run
    // them until one has failed under injection and been resubmitted; every
    // served table, that resubmit's included, must equal `boot_run` bitwise.
    let mut boot_retried = false;
    for round in 0..100u64 {
        let labels = vec![0u8, 0, 0, 0, 1, 1, 1, 1];
        let data = synth_matrix(40, labels.len(), 9100 + round);
        let opts = PmaxtOptions::default()
            .workload(Workload::Bootstrap)
            .permutations(240)
            .seed(17 + round)
            .threads(2)
            .batch(4);
        let spec = JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: opts.clone(),
            source_path: None,
        };
        let (served, attempts) = boot_to_completion(&mgr, &spec);
        let direct = boot_run(&data, &labels, &opts).unwrap();
        assert_eq!(
            served, direct,
            "bootstrap round {round}: faulted run must stay bitwise-identical"
        );
        boot_retried |= attempts > 1;
        if boot_retried {
            break;
        }
    }
    assert!(
        boot_retried,
        "no bootstrap job ever needed a retry — injection path untested"
    );

    // The soak only proves something if the faults actually fired. The
    // cache-corrupt class is only demanded in exact mode: exact spans store
    // a checkpoint per span, while an adaptive run stores its watermark once
    // per finished job — too few draws for a guaranteed fire.
    let mut demanded = vec![FaultKind::WorkerPanic, FaultKind::SpanIo];
    if !adaptive_mode() {
        demanded.push(FaultKind::CacheCorrupt);
    }
    for kind in demanded {
        assert!(
            faults.fired(kind) > 0,
            "{} armed but never fired — soak too small for the spec {:?}",
            kind.as_str(),
            faults.report()
        );
    }
    assert!(
        retried_any,
        "no job ever needed a retry — injection path untested"
    );
    // Every job is terminal and the manager still answers.
    for st in mgr.list() {
        assert!(st.state.is_terminal(), "job {} left live", st.id);
    }
    std::fs::remove_dir_all(&cache).ok();
}

/// Kill-and-resume under faults: drop the manager mid-run (the process-death
/// analogue), then a fresh manager over the same cache resumes from the last
/// checkpoint and still matches the serial reference exactly.
#[test]
fn kill_and_resume_under_faults_is_bitwise_identical() {
    let faults = soak_faults("worker_panic:0.04,span_io:0.04,cache_corrupt:0.04,seed:1234");
    let cache = tmpdir("resume");
    let data = synth_matrix(120, 16, 77);
    let labels: Vec<u8> = [vec![0u8; 8], vec![1u8; 8]].concat();
    let opts = PmaxtOptions::default()
        .permutations(30_000)
        .threads(1)
        .seed(3);
    let spec = JobSpec {
        data: data.clone(),
        classlabel: labels.clone(),
        opts: opts.clone(),
        source_path: None,
    };
    let mk = |faults: Faults| {
        JobManager::new(ManagerConfig {
            workers: 1,
            span: 64,
            cache_dir: Some(cache.clone()),
            faults,
            ..ManagerConfig::default()
        })
        .unwrap()
    };

    let mgr = mk(faults.clone());
    let info = mgr.submit(spec.clone()).unwrap();
    let rx = mgr.subscribe(info.id).unwrap();
    for event in rx.iter() {
        if event.done > 0 || event.state.is_terminal() {
            break;
        }
    }
    drop(mgr); // abrupt death: no drain, no cancel

    let mgr2 = mk(faults);
    let (served, _, id) = run_to_completion(&mgr2, &spec);
    let direct = mt_maxt(&data, &labels, &opts).unwrap();
    if adaptive_mode() {
        // The first manager's adaptive thread may or may not have reached
        // its success-time cache store before the drop, so the rerun can
        // legally resume from a cached exact prefix — which shifts the
        // per-gene stop cursors. Assert the mode's actual contract instead
        // of bitwise identity: every deterministic envelope contains the
        // exact p-value and the run spent less than the exact budget.
        let report = mgr2
            .adaptive_report(id)
            .unwrap()
            .expect("finished adaptive job carries a report");
        for g in 0..data.rows() {
            assert!(
                report.p_lower[g] <= direct.rawp[g] + 1e-12
                    && direct.rawp[g] <= report.p_upper[g] + 1e-12,
                "gene {g}: exact {} outside resumed-run envelope [{}, {}]",
                direct.rawp[g],
                report.p_lower[g],
                report.p_upper[g]
            );
        }
        assert!(
            report.gene_perms_scored < report.gene_perms_exact,
            "mostly-null dataset must stop genes early even after a kill"
        );
        assert_eq!(
            served.b_used, report.watermark,
            "served table must be the finalized exact-prefix watermark"
        );
    } else {
        assert_eq!(
            served, direct,
            "resumed-after-kill result must be bitwise-identical"
        );
    }
    std::fs::remove_dir_all(&cache).ok();
}

/// Server-level soak: torn frames and slow peers on every response, clients
/// answering with retry + idempotent resubmit. All served tables must match
/// the serial reference; the daemon must stay up throughout.
#[test]
fn server_soak_torn_frames_and_slow_peers_with_retry() {
    use microarray::io::write_dataset;

    let faults = soak_faults("frame_truncate:0.15,slow_peer:0.10,stall_ms:10,seed:99");
    let dir = tmpdir("server");
    let sock = dir.join("jobd.sock");
    let dataset = dir.join("data.tsv");
    let data = synth_matrix(50, 10, 5);
    let labels = vec![0u8, 0, 0, 0, 0, 1, 1, 1, 1, 1];
    write_dataset(&dataset, &data, &labels).unwrap();

    // Worker-side faults off: this soak isolates the wire layer, so a job
    // must never fail server-side (a failed job would surface as a wire
    // error, not a retryable transport fault).
    let manager = JobManager::new(ManagerConfig {
        workers: 2,
        span: 16,
        cache_dir: Some(dir.join("cache")),
        faults: Faults::disabled(),
        ..ManagerConfig::default()
    })
    .unwrap();
    let addr = format!("unix:{}", sock.display());
    let server = Server::bind_with(
        &addr,
        manager,
        ServerConfig {
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            faults: faults.clone(),
        },
    )
    .unwrap();
    let handle = std::thread::spawn(move || server.run());

    let policy = RetryPolicy {
        attempts: 50,
        base: Duration::from_millis(2),
        max: Duration::from_millis(50),
        seed: 11,
    };
    let retried = |req: &Json| -> Json {
        let resp = request_retried(&addr, req, &policy, Some(WAIT)).expect("retries exhausted");
        expect_ok(resp).expect("wire error")
    };

    for b in [50u64, 80, 120] {
        let opts = PmaxtOptions::default().permutations(b).seed(21);
        let resp = retried(&protocol::submit_request(dataset.to_str().unwrap(), &opts));
        let job = resp.get("job").and_then(Json::as_u64).unwrap();
        let resp = retried(&protocol::result_request(job, true));
        let served = protocol::result_from_json(&resp).unwrap();
        let direct = mt_maxt(&data, &labels, &opts).unwrap();
        if adaptive_mode() {
            // Earlier Bs leave partial cache entries a later submission
            // legally resumes from, shifting stop cursors — so no bitwise
            // wire-side reference exists. Assert the adaptive payload rode
            // the torn wire intact and its envelopes contain the exact
            // p-values.
            assert_eq!(served.rawp.len(), data.rows());
            let a = resp.get("adaptive").expect("adaptive object in result");
            let floats = |f: &str| -> Vec<f64> {
                a.get(f)
                    .and_then(Json::as_arr)
                    .unwrap_or_else(|| panic!("adaptive array {f}"))
                    .iter()
                    .map(|v| v.as_f64().expect("numeric bound"))
                    .collect()
            };
            let lo = floats("p_lower");
            let hi = floats("p_upper");
            for g in 0..data.rows() {
                assert!(
                    lo[g] <= direct.rawp[g] + 1e-12 && direct.rawp[g] <= hi[g] + 1e-12,
                    "B={b} gene {g}: exact {} outside wire envelope [{}, {}]",
                    direct.rawp[g],
                    lo[g],
                    hi[g]
                );
            }
        } else {
            assert_eq!(served, direct, "B={b}: result must survive the torn wire");
        }
    }
    assert!(
        faults.fired(FaultKind::FrameTruncate) > 0,
        "frame truncation armed but never fired: {:?}",
        faults.report()
    );

    // Drain-shutdown through the same lossy wire: keep trying until the
    // server actually exits. A torn ack after the daemon stopped shows up as
    // connection-refused, which counts as "it shut down".
    for _ in 0..50 {
        let _ = request_retried(
            &addr,
            &protocol::shutdown_request(true),
            &RetryPolicy::none(),
            None,
        );
        if handle.is_finished() {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
