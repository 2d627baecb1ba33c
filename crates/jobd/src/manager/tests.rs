use std::time::{Duration, Instant};

use sprint_core::adaptive::{adaptive_maxt, AdaptiveConfig};
use sprint_core::boot;
use sprint_core::maxt::serial::mt_maxt;
use sprint_core::options::Precision;

use super::*;

fn small_dataset() -> (Matrix, Vec<u8>) {
    let data = Matrix::from_vec(
        4,
        6,
        vec![
            1.0, 2.0, 1.5, 9.0, 10.0, 9.5, //
            5.0, 4.0, 6.0, 5.5, 4.5, 5.2, //
            2.0, 8.0, 3.0, 7.0, 2.5, 7.5, //
            3.3, 3.1, 3.2, 3.4, 3.0, 3.5,
        ],
    )
    .unwrap();
    (data, vec![0, 0, 0, 1, 1, 1])
}

fn manager(span: u64) -> JobManager {
    JobManager::new(ManagerConfig {
        workers: 2,
        span,
        cache_dir: None,
        ..ManagerConfig::default()
    })
    .unwrap()
}

#[test]
fn single_job_matches_mt_maxt_bitwise() {
    let (data, labels) = small_dataset();
    let opts = PmaxtOptions::default().permutations(97);
    let mgr = manager(16);
    let info = mgr
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: opts.clone(),
            source_path: None,
        })
        .unwrap();
    assert_eq!(info.total, 97);
    assert_eq!(info.cache, CacheDisposition::Uncached);
    let served = mgr
        .wait_result(info.id, Some(Duration::from_secs(30)))
        .unwrap();
    let direct = mt_maxt(&data, &labels, &opts).unwrap();
    assert_eq!(served, direct);
    let status = mgr.status(info.id).unwrap();
    assert_eq!(status.state, JobState::Finished);
    assert_eq!(status.done, 97);
    assert_eq!(status.computed, 97);
}

/// Genes of the exceedance counts a job still holds.
fn held_count_genes(mgr: &JobManager, id: u64) -> usize {
    let job = plock(&mgr.inner.jobs)
        .get(&id)
        .cloned()
        .expect("job registered");
    let genes = plock(&job.prog).counts.genes();
    genes
}

#[test]
fn settled_jobs_keep_their_result_but_not_their_counts() {
    let (data, labels) = small_dataset();
    let dir = std::env::temp_dir().join(format!("sprint-jobd-held-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cfg = ManagerConfig {
        workers: 1,
        span: 16,
        cache_dir: Some(dir.clone()),
        ..ManagerConfig::default()
    };
    let spec = JobSpec {
        data: data.clone(),
        classlabel: labels.clone(),
        opts: PmaxtOptions::default().permutations(60),
        source_path: None,
    };
    let direct = mt_maxt(&data, &labels, &spec.opts).unwrap();
    // Computed, then served whole from the cache by a restarted daemon.
    let mgr = JobManager::new(cfg.clone()).unwrap();
    let computed = mgr.submit(spec.clone()).unwrap();
    let served = mgr.wait_result(computed.id, Some(Duration::from_secs(30)));
    assert_eq!(served.unwrap(), direct);
    assert_eq!(held_count_genes(&mgr, computed.id), 0);
    drop(mgr);
    let mgr = JobManager::new(cfg).unwrap();
    let hit = mgr.submit(spec).unwrap();
    assert_eq!(hit.cache, CacheDisposition::Hit);
    assert_eq!(mgr.result(hit.id).unwrap(), direct);
    assert_eq!(held_count_genes(&mgr, hit.id), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bootstrap_job_matches_boot_run_bitwise() {
    let (data, labels) = small_dataset();
    let opts = PmaxtOptions::default()
        .workload(Workload::Bootstrap)
        .permutations(150);
    let mgr = manager(16);
    let info = mgr
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: opts.clone(),
            source_path: None,
        })
        .unwrap();
    assert_eq!(info.total, 150);
    let served = mgr
        .wait_boot_result(info.id, Some(Duration::from_secs(30)))
        .unwrap();
    let direct = boot::boot_run(&data, &labels, &opts).unwrap();
    assert_eq!(served, direct);
    let status = mgr.status(info.id).unwrap();
    assert_eq!(status.state, JobState::Finished);
    assert_eq!(status.done, 150);
    // The maxT accessor refuses a bootstrap job with a usage error, and
    // vice versa.
    assert!(matches!(
        mgr.result(info.id).unwrap_err(),
        JobError::Invalid(CoreError::BadOption {
            param: "workload",
            ..
        })
    ));
    assert!(mgr.is_boot(info.id).unwrap());
}

#[test]
fn bootstrap_jobs_dedup_and_cache_separately_from_permutation_jobs() {
    let (data, labels) = small_dataset();
    let mut dir = std::env::temp_dir();
    dir.push(format!("sprint-jobd-bootcache-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mgr = JobManager::new(ManagerConfig {
        workers: 1,
        span: 16,
        cache_dir: Some(dir.clone()),
        ..ManagerConfig::default()
    })
    .unwrap();
    let boot_opts = PmaxtOptions::default()
        .workload(Workload::Bootstrap)
        .permutations(120);
    let perm_opts = PmaxtOptions::default().permutations(120);
    let a = mgr
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: boot_opts.clone(),
            source_path: None,
        })
        .unwrap();
    let perm = mgr
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: perm_opts,
            source_path: None,
        })
        .unwrap();
    // The workload marker keeps the two streams apart.
    assert_ne!(a.key, perm.key);
    assert_ne!(a.id, perm.id);
    let first = mgr
        .wait_boot_result(a.id, Some(Duration::from_secs(30)))
        .unwrap();
    mgr.wait_result(perm.id, Some(Duration::from_secs(30)))
        .unwrap();
    // The bootstrap accessor refuses a permutation job.
    assert!(matches!(
        mgr.boot_result(perm.id).unwrap_err(),
        JobError::Invalid(CoreError::BadOption {
            param: "workload",
            ..
        })
    ));
    // An identical live resubmission dedups onto the same job.
    let b = mgr
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: boot_opts.clone(),
            source_path: None,
        })
        .unwrap();
    assert_eq!(b.id, a.id);
    assert!(b.deduped);
    // A fresh manager over the same cache dir (a daemon restart) serves
    // the run whole from the `.boot` entry without recomputing.
    let mgr2 = JobManager::new(ManagerConfig {
        workers: 1,
        span: 16,
        cache_dir: Some(dir.clone()),
        ..ManagerConfig::default()
    })
    .unwrap();
    let hit = mgr2
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: boot_opts.clone(),
            source_path: None,
        })
        .unwrap();
    assert_eq!(hit.state, JobState::Finished);
    assert_eq!(hit.cache, CacheDisposition::Hit);
    assert_eq!(mgr2.boot_result(hit.id).unwrap(), first);
    let st = mgr2.status(hit.id).unwrap();
    assert_eq!(st.computed, 0, "cache hit computes nothing");
    // A different draw count misses (no prefix semantics) and recomputes.
    let c = mgr2
        .submit(JobSpec {
            data,
            classlabel: labels,
            opts: boot_opts.permutations(240),
            source_path: None,
        })
        .unwrap();
    assert_eq!(c.cache, CacheDisposition::Miss);
    let longer = mgr2
        .wait_boot_result(c.id, Some(Duration::from_secs(30)))
        .unwrap();
    assert_eq!(longer.replicates, 239);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bootstrap_rejects_env_smuggled_f32_and_wrong_designs() {
    let (data, labels) = small_dataset();
    let mgr = manager(16);
    let err = mgr
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: PmaxtOptions::default()
                .workload(Workload::Bootstrap)
                .permutations(100)
                .precision(Precision::F32),
            source_path: None,
        })
        .unwrap_err();
    assert!(matches!(
        err,
        JobError::Invalid(CoreError::BadOption {
            param: "precision",
            ..
        })
    ));
    // B below the bootstrap floor is refused at the door.
    let err = mgr
        .submit(JobSpec {
            data,
            classlabel: labels,
            opts: PmaxtOptions::default()
                .workload(Workload::Bootstrap)
                .permutations(1),
            source_path: None,
        })
        .unwrap_err();
    assert!(matches!(
        err,
        JobError::Invalid(CoreError::BadOption { param: "b", .. })
    ));
    assert!(mgr.list().is_empty(), "no job must be created");
}

#[test]
fn f32_precision_is_rejected_before_touching_queue_or_cache() {
    let (data, labels) = small_dataset();
    let mgr = manager(16);
    let err = mgr
        .submit(JobSpec {
            data,
            classlabel: labels,
            opts: PmaxtOptions::default().precision(Precision::F32),
            source_path: None,
        })
        .unwrap_err();
    match err {
        JobError::Invalid(CoreError::BadOption { param, .. }) => {
            assert_eq!(param, "precision");
        }
        other => panic!("expected Invalid(BadOption), got {other:?}"),
    }
    assert!(mgr.list().is_empty(), "no job must be created");
}

#[test]
fn invalid_submissions_are_rejected_up_front() {
    let (data, _) = small_dataset();
    let mgr = manager(16);
    let err = mgr
        .submit(JobSpec {
            data,
            classlabel: vec![0, 1], // wrong length
            opts: PmaxtOptions::default(),
            source_path: None,
        })
        .unwrap_err();
    assert!(matches!(err, JobError::Invalid(_)));
    assert_eq!(err.code(), "usage");
    assert!(matches!(
        mgr.status(999).unwrap_err(),
        JobError::UnknownJob(999)
    ));
}

#[test]
fn identical_live_submissions_dedup_to_one_job() {
    let (data, labels) = small_dataset();
    let opts = PmaxtOptions::default().permutations(500);
    let mgr = manager(8);
    let a = mgr
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: opts.clone(),
            source_path: None,
        })
        .unwrap();
    let b = mgr
        .submit(JobSpec {
            data,
            classlabel: labels,
            opts,
            source_path: None,
        })
        .unwrap();
    assert_eq!(a.id, b.id);
    assert!(!a.deduped);
    assert!(b.deduped);
    assert_eq!(a.key, b.key);
    mgr.wait_result(a.id, Some(Duration::from_secs(30)))
        .unwrap();
}

#[test]
fn queue_cap_rejects_with_busy_code() {
    let (data, labels) = small_dataset();
    let mgr = JobManager::new(ManagerConfig {
        workers: 1,
        queue_cap: 1,
        span: 4,
        cache_dir: None,
        ..ManagerConfig::default()
    })
    .unwrap();
    // Fill the queue with distinct long jobs (different seeds).
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for seed in 0..12u64 {
        let spec = JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: PmaxtOptions::default().permutations(50_000).seed(seed),
            source_path: None,
        };
        match mgr.submit(spec) {
            Ok(_) => accepted += 1,
            Err(e @ JobError::QueueFull { .. }) => {
                assert_eq!(e.code(), "busy");
                rejected += 1;
            }
            Err(other) => panic!(
                "unexpected error {other:?} submitting seed {seed} \
                 (accepted {accepted}, rejected {rejected}); job snapshot: {:?}",
                mgr.list()
                    .iter()
                    .map(|s| (s.id, s.state, s.done, s.total, s.error.clone()))
                    .collect::<Vec<_>>()
            ),
        }
    }
    assert!(accepted >= 1, "at least one job must be accepted");
    assert!(rejected >= 1, "the cap must reject at least one job");
    mgr.shutdown();
}

#[test]
fn round_robin_interleaves_two_jobs_on_one_worker() {
    let (data, labels) = small_dataset();
    let mgr = JobManager::new(ManagerConfig {
        workers: 1,
        span: 32,
        cache_dir: None,
        ..ManagerConfig::default()
    })
    .unwrap();
    let submit = |seed: u64| {
        mgr.submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: PmaxtOptions::default().permutations(256).seed(seed),
            source_path: None,
        })
        .unwrap()
    };
    let a = submit(1);
    let b = submit(2);
    let rx_a = mgr.subscribe(a.id).unwrap();
    mgr.wait_result(a.id, Some(Duration::from_secs(30)))
        .unwrap();
    mgr.wait_result(b.id, Some(Duration::from_secs(30)))
        .unwrap();
    // Fairness: job B must have made progress before job A finished —
    // with span-sliced round-robin on one worker, A's progress events
    // cannot all precede B's first span.
    let b_status = mgr.status(b.id).unwrap();
    assert_eq!(b_status.state, JobState::Finished);
    let events: Vec<JobEvent> = rx_a.try_iter().collect();
    assert!(
        events.iter().any(|e| e.state == JobState::Finished),
        "subscriber must observe the terminal event"
    );
    let mut last = 0u64;
    for e in &events {
        assert!(e.done >= last, "progress must be monotone");
        last = e.done;
    }
}

#[test]
fn worker_panic_fails_the_job_not_the_daemon() {
    let (data, labels) = small_dataset();
    let mgr = JobManager::new(ManagerConfig {
        workers: 1,
        span: 16,
        cache_dir: None,
        faults: Faults::builder().prob(FaultKind::WorkerPanic, 1.0).build(),
        ..ManagerConfig::default()
    })
    .unwrap();
    let info = mgr
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: PmaxtOptions::default().permutations(97),
            source_path: None,
        })
        .unwrap();
    let err = mgr
        .wait_result(info.id, Some(Duration::from_secs(30)))
        .unwrap_err();
    let JobError::Failed(msg) = &err else {
        panic!("expected Failed, got {err:?}");
    };
    assert!(
        msg.contains("panic"),
        "reason should mention the panic: {msg}"
    );
    let status = mgr.status(info.id).unwrap();
    assert_eq!(status.state, JobState::Failed);
    assert!(status.error.is_some());
    // The daemon survived: the worker is alive and the API responsive.
    assert_eq!(mgr.list().len(), 1);
    let second = mgr
        .submit(JobSpec {
            data,
            classlabel: labels,
            opts: PmaxtOptions::default().permutations(97).seed(9),
            source_path: None,
        })
        .unwrap();
    assert!(matches!(
        mgr.wait_result(second.id, Some(Duration::from_secs(30))),
        Err(JobError::Failed(_))
    ));
}

#[test]
fn injected_span_io_error_fails_job_and_resubmit_recovers() {
    let (data, labels) = small_dataset();
    let opts = PmaxtOptions::default().permutations(97);
    let mut dir = std::env::temp_dir();
    dir.push(format!("sprint-jobd-mgr-{}-spanio", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    // First manager: every span errors, but completed spans checkpoint.
    // (With probability 1 the very first span fails, so cursor stays 0 —
    // the point is the terminal state and the recovery, not the prefix.)
    let mgr = JobManager::new(ManagerConfig {
        workers: 1,
        span: 16,
        cache_dir: Some(dir.clone()),
        faults: Faults::builder().prob(FaultKind::SpanIo, 1.0).build(),
        ..ManagerConfig::default()
    })
    .unwrap();
    let spec = JobSpec {
        data: data.clone(),
        classlabel: labels.clone(),
        opts: opts.clone(),
        source_path: None,
    };
    let info = mgr.submit(spec.clone()).unwrap();
    let err = mgr
        .wait_result(info.id, Some(Duration::from_secs(30)))
        .unwrap_err();
    assert!(
        matches!(&err, JobError::Failed(m) if m.contains("injected span I/O error")),
        "got {err:?}"
    );
    drop(mgr);
    // Fault-free manager over the same cache: resubmit must recover and
    // match a direct serial run bitwise.
    let mgr = JobManager::new(ManagerConfig {
        workers: 1,
        span: 16,
        cache_dir: Some(dir.clone()),
        faults: Faults::disabled(),
        ..ManagerConfig::default()
    })
    .unwrap();
    let info = mgr.submit(spec).unwrap();
    let served = mgr
        .wait_result(info.id, Some(Duration::from_secs(30)))
        .unwrap();
    let direct = mt_maxt(&data, &labels, &opts).unwrap();
    assert_eq!(served, direct);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn drain_rejects_new_work_and_waits_for_running_jobs() {
    let (data, labels) = small_dataset();
    let mgr = JobManager::new(ManagerConfig {
        workers: 1,
        span: 32,
        cache_dir: None,
        faults: Faults::disabled(),
        ..ManagerConfig::default()
    })
    .unwrap();
    let info = mgr
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: PmaxtOptions::default().permutations(2_000),
            source_path: None,
        })
        .unwrap();
    mgr.drain();
    let err = mgr
        .submit(JobSpec {
            data,
            classlabel: labels,
            opts: PmaxtOptions::default().permutations(50).seed(3),
            source_path: None,
        })
        .unwrap_err();
    assert_eq!(err, JobError::ShuttingDown);
    assert!(
        mgr.wait_idle(Some(Duration::from_secs(60))),
        "drain must let the in-flight job run to a terminal state"
    );
    assert_eq!(mgr.status(info.id).unwrap().state, JobState::Finished);
    mgr.shutdown();
}

#[test]
fn eta_appears_after_first_span() {
    let (data, labels) = small_dataset();
    let mgr = JobManager::new(ManagerConfig {
        workers: 1,
        span: 64,
        cache_dir: None,
        ..ManagerConfig::default()
    })
    .unwrap();
    let info = mgr
        .submit(JobSpec {
            data,
            classlabel: labels,
            opts: PmaxtOptions::default().permutations(100_000),
            source_path: None,
        })
        .unwrap();
    let rx = mgr.subscribe(info.id).unwrap();
    // Wait for a post-first-span event; it must carry an ETA.
    let mut saw_eta = false;
    for _ in 0..200 {
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(e) if e.done > 0 && !e.state.is_terminal() => {
                assert!(e.eta_secs.is_some(), "running event after a span has ETA");
                assert!(e.eta_secs.unwrap() >= 0.0);
                saw_eta = true;
                break;
            }
            Ok(_) => {}
            Err(_) => break,
        }
    }
    assert!(saw_eta, "never observed a progress event with an ETA");
    mgr.cancel(info.id).unwrap();
}

/// Mostly-null dataset: adaptive mode deactivates most genes early, so
/// the watermark lands well before `B` and the upgrade path is exercised.
fn null_heavy_dataset() -> (Matrix, Vec<u8>) {
    let genes = 16;
    let cols = 10;
    let mut v = Vec::with_capacity(genes * cols);
    for g in 0..genes {
        for c in 0..cols {
            v.push(((g * 31 + c * 17) as f64 + 1.25).sin() * 3.0);
        }
    }
    for cell in &mut v[5..10] {
        *cell += 25.0; // gene 0 carries real signal
    }
    let labels = (0..cols).map(|c| (c >= cols / 2) as u8).collect();
    (Matrix::from_vec(genes, cols, v).unwrap(), labels)
}

#[test]
fn adaptive_job_reports_bounds_that_contain_the_exact_p_values() {
    let (data, labels) = null_heavy_dataset();
    let opts = PmaxtOptions::default().permutations(4000);
    let mgr = manager(64);
    let info = mgr
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: opts.clone().mode(Mode::Adaptive),
            source_path: None,
        })
        .unwrap();
    mgr.wait_result(info.id, Some(Duration::from_secs(60)))
        .unwrap();
    let report = mgr
        .adaptive_report(info.id)
        .unwrap()
        .expect("adaptive job carries a report");
    assert!(report.genes_stopped() > 0, "null genes should stop");
    assert!(
        report.gene_perms_scored < report.gene_perms_exact,
        "adaptive must score fewer gene-permutations than exact"
    );
    let exact = mt_maxt(&data, &labels, &opts).unwrap();
    for g in 0..16 {
        if !exact.rawp[g].is_nan() {
            assert!(report.p_lower[g] <= exact.rawp[g] + 1e-12);
            assert!(exact.rawp[g] <= report.p_upper[g] + 1e-12);
        }
    }
    let status = mgr.status(info.id).unwrap();
    let brief = status.adaptive.expect("status carries adaptive summary");
    assert_eq!(brief.genes_stopped, report.genes_stopped() as u64);
    assert!(brief.budget_fraction < 1.0);
}

#[test]
fn adaptive_then_exact_upgrade_reproduces_a_fresh_exact_run_bitwise() {
    let (data, labels) = null_heavy_dataset();
    let opts = PmaxtOptions::default().permutations(4000);
    let mut dir = std::env::temp_dir();
    dir.push(format!("sprint-jobd-mgr-{}-upgrade", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mgr = JobManager::new(ManagerConfig {
        workers: 1,
        span: 64,
        cache_dir: Some(dir.clone()),
        ..ManagerConfig::default()
    })
    .unwrap();
    let adaptive = mgr
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: opts.clone().mode(Mode::Adaptive),
            source_path: None,
        })
        .unwrap();
    mgr.wait_result(adaptive.id, Some(Duration::from_secs(60)))
        .unwrap();
    let report = mgr.adaptive_report(adaptive.id).unwrap().unwrap();
    assert!(
        report.watermark > 0 && report.watermark < 4000,
        "watermark {} should be a strict prefix",
        report.watermark
    );
    // Upgrade: an exact submission of the same stream resumes from the
    // adaptive run's cached watermark and extends it to the full B.
    let exact = mgr
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: opts.clone(),
            source_path: None,
        })
        .unwrap();
    assert_eq!(
        exact.cache,
        CacheDisposition::Resume {
            from: report.watermark
        },
        "exact upgrade must start from the adaptive watermark"
    );
    let served = mgr
        .wait_result(exact.id, Some(Duration::from_secs(60)))
        .unwrap();
    let direct = mt_maxt(&data, &labels, &opts).unwrap();
    assert_eq!(served, direct, "upgrade must be bitwise-exact");
    assert!(
        mgr.adaptive_report(exact.id).unwrap().is_none(),
        "exact job carries no adaptive report"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn adaptive_and_exact_submissions_never_dedup_together() {
    let (data, labels) = null_heavy_dataset();
    let opts = PmaxtOptions::default().permutations(2000);
    let mgr = manager(64);
    let a = mgr
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: opts.clone().mode(Mode::Adaptive),
            source_path: None,
        })
        .unwrap();
    let b = mgr
        .submit(JobSpec {
            data: data.clone(),
            classlabel: labels.clone(),
            opts: opts.clone(),
            source_path: None,
        })
        .unwrap();
    assert_ne!(a.id, b.id, "different modes must be different jobs");
    assert!(!b.deduped);
    // Same mode still dedups.
    let c = mgr
        .submit(JobSpec {
            data,
            classlabel: labels,
            opts: opts.mode(Mode::Adaptive),
            source_path: None,
        })
        .unwrap();
    assert_eq!(c.id, a.id);
    assert!(c.deduped);
    mgr.wait_result(a.id, Some(Duration::from_secs(60)))
        .unwrap();
    mgr.wait_result(b.id, Some(Duration::from_secs(60)))
        .unwrap();
}

#[test]
fn exec_span_refuses_adaptive_mode() {
    let (data, labels) = small_dataset();
    let mgr = manager(16);
    let err = mgr
        .exec_span(
            data,
            labels,
            PmaxtOptions::default()
                .permutations(97)
                .mode(Mode::Adaptive),
            97,
            0,
            16,
        )
        .unwrap_err();
    match err {
        JobError::Invalid(CoreError::BadOption { param, .. }) => assert_eq!(param, "mode"),
        other => panic!("expected Invalid(BadOption), got {other:?}"),
    }
}

/// Dataset wide enough that a job runs for many spans (and, in adaptive
/// mode, keeps live genes for a while): `genes` rows over ten-and-ten
/// samples, every fifth gene shifted.
fn wide_dataset(genes: usize) -> (Matrix, Vec<u8>) {
    let cols = 20;
    let mut v = Vec::with_capacity(genes * cols);
    for g in 0..genes {
        for c in 0..cols {
            let shift = if g % 5 == 0 && c >= cols / 2 {
                1.5
            } else {
                0.0
            };
            v.push(((g * 37 + c * 11) as f64 + 0.5).sin() * 2.0 + shift);
        }
    }
    let labels = (0..cols).map(|c| (c >= cols / 2) as u8).collect();
    (Matrix::from_vec(genes, cols, v).unwrap(), labels)
}

/// Every workload — local exact, sharded exact, adaptive, local and sharded
/// bootstrap — honours a cancel that lands mid-run: the job settles in a
/// terminal state, a run that finished anyway equals the serial reference,
/// and an exact resubmit then serves the serial reference bitwise.
#[test]
fn cancel_mid_run_settles_every_workload() {
    let dir = std::env::temp_dir().join(format!("sprint-jobd-mgr-{}-cancel", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let (data, labels) = wide_dataset(40);
    let path = dir.join("data.tsv");
    microarray::io::write_dataset(&path, &data, &labels).unwrap();

    let peer = crate::server::Server::bind("127.0.0.1:0", manager(64)).unwrap();
    let peer_addr = peer.local_addr().to_addr_string();
    let peer_thread = std::thread::spawn(move || peer.run());
    let daemon = |peers: Vec<String>, cache: &str| {
        JobManager::new(ManagerConfig {
            workers: 1,
            span: 64,
            cache_dir: Some(dir.join(cache)),
            peers,
            ..ManagerConfig::default()
        })
        .unwrap()
    };
    let local = daemon(Vec::new(), "local");
    let sharded = daemon(vec![peer_addr.clone()], "sharded");

    let exact = |seed: u64| {
        PmaxtOptions::default()
            .permutations(20_000)
            .threads(1)
            .seed(seed)
    };
    let bootstrap = |seed: u64| {
        PmaxtOptions::default()
            .workload(Workload::Bootstrap)
            .permutations(4_000)
            .threads(1)
            .seed(seed)
    };
    let cases = [
        ("local exact", &local, exact(1)),
        ("sharded exact", &sharded, exact(2)),
        ("adaptive", &local, exact(3).mode(Mode::Adaptive)),
        ("local bootstrap", &local, bootstrap(4)),
        ("sharded bootstrap", &sharded, bootstrap(5)),
    ];
    let wait = Some(Duration::from_secs(120));
    for (name, mgr, opts) in cases {
        let info = mgr.submit_path(&path, opts.clone()).unwrap();
        // Cancel once the run has made progress (a bootstrap band reports
        // none until it finishes, so there: once it has started).
        let bootstrap = opts.workload == Workload::Bootstrap;
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let st = mgr.status(info.id).unwrap();
            if st.done > 0 || st.state.is_terminal() || bootstrap && st.state == JobState::Running {
                break;
            }
            assert!(Instant::now() < deadline, "{name}: job never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        mgr.cancel(info.id).unwrap();
        let exact_opts = opts.clone().mode(Mode::Exact);
        if bootstrap {
            let reference = boot::boot_run(&data, &labels, &opts).unwrap();
            match mgr.wait_boot_result(info.id, wait) {
                Ok(served) => assert_eq!(served, reference, "{name}: finished run"),
                Err(e) => assert_eq!(e, JobError::Cancelled(info.id), "{name}"),
            }
            let again = mgr.submit_path(&path, exact_opts).unwrap();
            let served = mgr.wait_boot_result(again.id, wait).unwrap();
            assert_eq!(served, reference, "{name}: resubmit");
        } else {
            let reference = if opts.mode == Mode::Adaptive {
                adaptive_maxt(&data, &labels, &opts, &AdaptiveConfig::default())
                    .unwrap()
                    .result
            } else {
                mt_maxt(&data, &labels, &opts).unwrap()
            };
            match mgr.wait_result(info.id, wait) {
                Ok(served) => assert_eq!(served, reference, "{name}: finished run"),
                Err(e) => assert_eq!(e, JobError::Cancelled(info.id), "{name}"),
            }
            let again = mgr.submit_path(&path, exact_opts.clone()).unwrap();
            let served = mgr.wait_result(again.id, wait).unwrap();
            let serial = mt_maxt(&data, &labels, &exact_opts).unwrap();
            assert_eq!(served, serial, "{name}: resubmit");
        }
        assert!(mgr.status(info.id).unwrap().state.is_terminal(), "{name}");
    }
    drop(sharded);
    let mut client = crate::client::Client::connect(&peer_addr).unwrap();
    client
        .request(&crate::protocol::shutdown_request(false))
        .unwrap();
    peer_thread.join().unwrap().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
