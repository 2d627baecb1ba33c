//! Admission and the journal: the one path from a submission to a
//! registered, durable job — validate → dedup → probe the cache → register →
//! journal accept → hand to the executor — and the peer side of the roster
//! protocol, which validates a slice request with the same function.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sprint_core::adaptive::AdaptiveReport;
use sprint_core::boot::{self, BootstrapResult};
use sprint_core::error::Error as CoreError;
use sprint_core::labels::ClassLabels;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::engine::{ChunkHooks, EngineConfig};
use sprint_core::maxt::{CountAccumulator, MaxTContext};
use sprint_core::options::{Mode, PmaxtOptions, Precision, Workload};
use sprint_core::perm::resolve_permutation_count;

use super::executor::{self, Bands, Permutations, Slicing};
use super::lifecycle::bump_change;
use super::{
    plock, CacheDisposition, Job, JobError, JobManager, JobProgress, JobSpec, JobState, JobWork,
    RecoveryReport, SubmitInfo,
};
use crate::cache::{CacheKey, CacheProbe};
use crate::datasets::{Dataset, View};
use crate::faults::crash_point;
use crate::journal::{self, JournalRecord, RecordKind};
use crate::shard::ShardStats;

/// A refused option.
fn bad(param: &'static str, value: String) -> JobError {
    JobError::Invalid(CoreError::BadOption { param, value })
}

impl JobManager {
    /// Submit a run. Validates like `mt_maxt`, consults the cache, dedups
    /// against identical live jobs, and enqueues whatever remains to compute.
    pub fn submit(&self, spec: JobSpec) -> Result<SubmitInfo, JobError> {
        let JobSpec {
            data,
            classlabel,
            opts,
            source_path,
        } = spec;
        let dataset = Dataset::from_parts(data, classlabel);
        self.submit_inner(&dataset, opts, source_path, false)
    }

    /// Submit a run over the dataset file at `path`, read through this
    /// daemon's dataset cache. The canonical path is recorded on the job so
    /// peers and journal replay can re-read it.
    pub fn submit_path(&self, path: &Path, opts: PmaxtOptions) -> Result<SubmitInfo, JobError> {
        self.submit_path_inner(path, opts, false)
    }

    fn accepting(&self) -> Result<(), JobError> {
        if self.inner.shutdown.load(Ordering::Relaxed)
            || self.inner.draining.load(Ordering::Relaxed)
        {
            return Err(JobError::ShuttingDown);
        }
        Ok(())
    }

    fn submit_path_inner(
        &self,
        path: &Path,
        opts: PmaxtOptions,
        recovered: bool,
    ) -> Result<SubmitInfo, JobError> {
        self.accepting()?;
        let dataset = self.inner.datasets.load(path)?;
        let source = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
        self.submit_inner(&dataset, opts, Some(source), recovered)
    }

    /// The admission path shared by in-process, path and journal-replay
    /// submissions (`recovered = true` for the last), for every workload.
    fn submit_inner(
        &self,
        dataset: &Dataset,
        opts: PmaxtOptions,
        source: Option<PathBuf>,
        recovered: bool,
    ) -> Result<SubmitInfo, JobError> {
        self.accepting()?;
        let view = dataset.view(opts.na).map_err(JobError::Invalid)?;
        let work = self.validate(dataset, &view, opts, source)?;
        let key = CacheKey::with_dataset(view.digest(), &work.opts);
        let (total, key_hex) = (work.b, key.hex());
        let info = |id, (state, cache), deduped, recovered| SubmitInfo {
            id,
            state,
            cache,
            total,
            deduped,
            key: key_hex.clone(),
            recovered,
        };

        // Dedup: an identical live submission is the same job. Cancelled and
        // failed jobs fall through — resubmitting one is the recovery path
        // (it resumes from the last checkpoint via the cache probe below).
        // The options digest carries the workload, so a bootstrap and a
        // permutation job of the same dataset never alias.
        if let Some(&id) = plock(&self.inner.dedup).get(&(key_hex.clone(), total, work.mode)) {
            if let Some(job) = plock(&self.inner.jobs).get(&id) {
                let prog = plock(&job.prog);
                if !matches!(prog.state, JobState::Cancelled | JobState::Failed) {
                    return Ok(info(id, (prog.state, prog.cache), true, job.recovered));
                }
            }
        }

        let (prog, cached) = self.probe(&key, &work);
        let outcome = (prog.state, prog.cache);
        let job = self.register(key, work, prog, cached, recovered)?;
        if outcome.0 == JobState::Finished {
            // Served whole from the cache: nothing to journal or compute.
            bump_change(&self.inner);
        } else {
            self.journal_accept(&job)?;
            if !job.on_queue() {
                executor::spawn(&self.inner, Arc::clone(&job));
            }
        }
        Ok(info(job.id, outcome, false, recovered))
    }

    /// Validate a run exactly as the direct drivers do — `prepare_run` for a
    /// permutation run, [`boot::check_boot`] for a bootstrap run — and
    /// resolve its count, mode and engine geometry. This is the one place
    /// `opts.threads == 0` becomes the job thread budget.
    fn validate(
        &self,
        dataset: &Dataset,
        view: &View,
        opts: PmaxtOptions,
        source: Option<PathBuf>,
    ) -> Result<JobWork, JobError> {
        refuse_f32(&opts)?;
        let (labels, b, mode, prepared) = match opts.workload {
            Workload::Bootstrap => {
                let (labels, b) = boot::check_boot(dataset.data(), dataset.classlabel(), &opts)
                    .map_err(JobError::Invalid)?;
                (labels, b, Mode::Exact, Arc::clone(view.canonical()))
            }
            Workload::Pmaxt => {
                let labels = ClassLabels::new(dataset.classlabel().to_vec(), opts.test)
                    .map_err(JobError::Invalid)?;
                if labels.len() != dataset.data().cols() {
                    return Err(JobError::Invalid(CoreError::BadLabels(format!(
                        "classlabel length {} does not match {} data columns",
                        labels.len(),
                        dataset.data().cols()
                    ))));
                }
                let b = resolve_permutation_count(&labels, &opts).map_err(JobError::Invalid)?;
                // The mode is resolved once (SPRINT_MODE folded in) so dedup,
                // the executor and the cache story agree for the job's life.
                let mode = opts.mode.env_override();
                (labels, b, mode, view.prepared(opts.test, opts.nonpara))
            }
        };
        let threads = match opts.threads {
            0 => self.inner.cfg.job_threads,
            n => n,
        };
        Ok(JobWork {
            prepared,
            labels,
            cfg: EngineConfig::explicit(threads, opts.batch),
            opts,
            b,
            mode,
            source,
        })
    }

    /// Consult the cache: a full entry finishes the job on the spot, a
    /// prefix entry resumes or extends it. Returns the job's starting
    /// progress and whether it writes its progress back to the cache.
    fn probe(&self, key: &CacheKey, work: &JobWork) -> (JobProgress, bool) {
        let genes = work.prepared.rows();
        let mut prog = JobProgress::new(genes);
        let Some(cache) = &self.inner.cache else {
            return (prog, false);
        };
        prog.cache = CacheDisposition::Miss;
        let finish = |prog: &mut JobProgress| {
            prog.state = JobState::Finished;
            prog.cache = CacheDisposition::Hit;
            prog.cursor = work.b;
            // Like a settled job, a hit keeps its result and no counts.
            prog.counts = CountAccumulator::new(0);
        };
        if work.opts.workload == Workload::Bootstrap {
            // Interval estimates are order statistics: there is no prefix
            // to resume, only a finished entry of exactly this draw count.
            prog.boot = cache
                .probe_boot(key, work.b)
                .filter(|r| r.offset == 0 && r.genes() == genes);
            if prog.boot.is_some() {
                finish(&mut prog);
            }
            return (prog, true);
        }
        match cache.probe(key, work.b) {
            CacheProbe::Hit(state) => {
                // The stored counts fully determine the result. An adaptive
                // submission served from a full exact entry gets collapsed
                // bounds — the cache had already paid for certainty.
                let ctx = work.context();
                prog.result = Some(ctx.finalize(&state.counts));
                prog.adaptive = (work.mode == Mode::Adaptive)
                    .then(|| collapsed_adaptive_report(&ctx, &state.counts, work.b));
                finish(&mut prog);
            }
            CacheProbe::Partial(state) => {
                prog.cache = if state.b == work.b {
                    CacheDisposition::Resume { from: state.cursor }
                } else {
                    CacheDisposition::Extend { from: state.cursor }
                };
                prog.cursor = state.cursor;
                prog.counts = state.counts;
            }
            // The entry covers more than requested: computing fresh must not
            // clobber it.
            CacheProbe::Beyond => {
                prog.cache = CacheDisposition::Uncached;
                return (prog, false);
            }
            CacheProbe::Miss => {}
        }
        (prog, true)
    }

    /// Insert a job into the maps and, when the worker pool runs it, the
    /// queue (enforcing the queue cap). A job is sharded across the peer
    /// roster when one is configured and the dataset has a path peers can
    /// re-read; adaptive jobs always run locally.
    fn register(
        &self,
        key: CacheKey,
        work: JobWork,
        prog: JobProgress,
        cached: bool,
        recovered: bool,
    ) -> Result<Arc<Job>, JobError> {
        let sharded = prog.state == JobState::Queued
            && work.mode == Mode::Exact
            && !self.inner.cfg.peers.is_empty()
            && work.source.is_some();
        let dedup = (key.hex(), work.b, work.mode);
        let job = Arc::new(Job {
            id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
            key,
            work,
            cached,
            cancel: AtomicBool::new(false),
            live_done: AtomicU64::new(prog.cursor),
            shard: sharded.then(|| Arc::new(ShardStats::default())),
            recovered,
            jrn_accepted: AtomicBool::new(false),
            jrn_started: AtomicBool::new(false),
            jrn_closed: AtomicBool::new(false),
            prog: Mutex::new(prog),
            subs: Mutex::new(Vec::new()),
        });
        if job.on_queue() && plock(&job.prog).state == JobState::Queued {
            let mut queue = plock(&self.inner.queue);
            if queue.len() >= self.inner.cfg.queue_cap {
                return Err(JobError::QueueFull {
                    cap: self.inner.cfg.queue_cap,
                });
            }
            queue.push_back(Arc::clone(&job));
            self.inner.queue_cv.notify_one();
        }
        plock(&self.inner.jobs).insert(job.id, Arc::clone(&job));
        plock(&self.inner.dedup).insert(dedup, job.id);
        Ok(job)
    }

    /// Execute one span `[start, start + take)` of a sharded run on behalf
    /// of a peer coordinator and return the flat exceedance counts.
    ///
    /// Validation is [`JobManager::submit`]'s own (label checks, f32
    /// refusal, NA canonicalization), so a span computed here is drawn from
    /// the same canonical matrix and skip-ahead permutation stream as the
    /// coordinator's own spans. The daemon additionally re-resolves the
    /// permutation count from its own copy of the dataset and refuses the
    /// span on drift — a peer with a stale or divergent file must never
    /// contribute counts.
    pub fn exec_span(
        &self,
        data: Matrix,
        classlabel: Vec<u8>,
        opts: PmaxtOptions,
        b: u64,
        start: u64,
        take: u64,
    ) -> Result<(Vec<u64>, f64), JobError> {
        self.accepting()?;
        let dataset = Dataset::from_parts(data, classlabel);
        let view = dataset.view(opts.na).map_err(JobError::Invalid)?;
        let work = self.slice_work(&dataset, &view, opts, Workload::Pmaxt, b, (start, take))?;
        let (counts, secs) = Permutations::new(&work)
            .compute(start, take, ChunkHooks::default())
            .map_err(JobError::Invalid)?;
        Ok((counts.to_flat(), secs))
    }

    /// [`JobManager::exec_span`] over the dataset file at `path` on this
    /// daemon's filesystem, read through the dataset cache. With
    /// `dataset = Some(digest)` — the coordinator's [`CacheKey`] dataset
    /// digest — a cached copy with that digest is used without any file
    /// I/O, and a file whose data digests differently is refused with
    /// [`JobError::DatasetMismatch`].
    pub fn exec_span_at(
        &self,
        path: &Path,
        dataset: Option<u64>,
        opts: PmaxtOptions,
        b: u64,
        start: u64,
        take: u64,
    ) -> Result<(Vec<u64>, f64), JobError> {
        self.accepting()?;
        let (ds, view) = self.inner.datasets.resolve(path, opts.na, dataset)?;
        let work = self.slice_work(&ds, &view, opts, Workload::Pmaxt, b, (start, take))?;
        let (counts, secs) = Permutations::new(&work)
            .compute(start, take, ChunkHooks::default())
            .map_err(JobError::Invalid)?;
        Ok((counts.to_flat(), secs))
    }

    /// Execute one gene band `[row_start, row_start + row_take)` of a
    /// sharded bootstrap run on behalf of a peer coordinator, over the
    /// dataset file at `path` read through the dataset cache with the same
    /// digest contract as [`JobManager::exec_span_at`]. Validation and the
    /// drift refusal are the span path's own.
    pub fn exec_boot_at(
        &self,
        path: &Path,
        dataset: Option<u64>,
        opts: PmaxtOptions,
        b: u64,
        row_start: u64,
        row_take: u64,
    ) -> Result<(BootstrapResult, f64), JobError> {
        self.accepting()?;
        let (ds, view) = self.inner.datasets.resolve(path, opts.na, dataset)?;
        let work = self.slice_work(
            &ds,
            &view,
            opts,
            Workload::Bootstrap,
            b,
            (row_start, row_take),
        )?;
        Bands::new(&work)
            .compute(row_start, row_take, ChunkHooks::default())
            .map_err(JobError::Invalid)
    }

    /// The peer side of the roster protocol: validate a slice request as
    /// admission validates a submission, then refuse what a slice cannot be —
    /// another workload's slice, an adaptive run (its shrinking live gene
    /// set has no place in the span protocol), a count that drifted from the
    /// coordinator's, or a range past the end.
    fn slice_work(
        &self,
        dataset: &Dataset,
        view: &View,
        opts: PmaxtOptions,
        workload: Workload,
        b: u64,
        (start, take): (u64, u64),
    ) -> Result<JobWork, JobError> {
        if opts.workload != workload {
            return Err(bad(
                "workload",
                format!(
                    "{} (this request executes {} slices)",
                    opts.workload.as_str(),
                    workload.as_str()
                ),
            ));
        }
        let work = self.validate(dataset, view, opts, None)?;
        if work.mode == Mode::Adaptive {
            return Err(bad(
                "mode",
                "adaptive (span execution serves bitwise-exact sharded runs only)".into(),
            ));
        }
        if work.b != b {
            return Err(bad(
                "b",
                format!(
                    "coordinator resolved B={b} but this daemon resolves B={} \
                     (dataset or option drift between peers)",
                    work.b
                ),
            ));
        }
        let end = work.end();
        if start.checked_add(take).is_none_or(|stop| stop > end) {
            let param = match workload {
                Workload::Bootstrap => "rows",
                Workload::Pmaxt => "span",
            };
            return Err(bad(
                param,
                format!("[{start}, {start}+{take}) exceeds the range end {end}"),
            ));
        }
        Ok(work)
    }

    /// Append `job`'s accept record to the journal — the write that makes
    /// the submission durable, so it happens before the ack is returned.
    /// Under `--durability full` the append fsyncs; under `batch` the
    /// group-commit flusher picks it up within one flush interval.
    ///
    /// On failure the registration is rolled back and the client gets an
    /// error: acknowledging a job the journal never saw would break the
    /// "no acked job is lost" contract this subsystem exists for.
    fn journal_accept(&self, job: &Arc<Job>) -> Result<(), JobError> {
        let Some(journal) = &self.inner.journal else {
            return Ok(());
        };
        match journal.append(&accept_record_for(job)) {
            Ok(()) => {
                job.jrn_accepted.store(true, Ordering::SeqCst);
                crash_point("manager.accept");
                Ok(())
            }
            Err(e) => {
                // Withdraw the job: the client is told the submission
                // failed, so it must neither run nor serve as a dedup target.
                job.cancel.store(true, Ordering::SeqCst);
                plock(&self.inner.queue).retain(|j| j.id != job.id);
                plock(&self.inner.jobs).remove(&job.id);
                plock(&self.inner.dedup).retain(|_, id| *id != job.id);
                Err(JobError::Internal(format!("journal append failed: {e}")))
            }
        }
    }

    /// Rewrite the journal down to the accept records of still-live jobs.
    /// After a completed drain that set is empty and the next startup
    /// replays nothing. Called by `shutdown --drain` before the ack; errors
    /// only warn — an uncompacted journal replays longer, never wrongly.
    pub fn compact_journal(&self) {
        let Some(journal) = &self.inner.journal else {
            return;
        };
        let live: Vec<JournalRecord> = plock(&self.inner.jobs)
            .values()
            .filter(|job| {
                job.jrn_accepted.load(Ordering::SeqCst) && !plock(&job.prog).state.is_terminal()
            })
            .map(|job| accept_record_for(job))
            .collect();
        if let Err(e) = journal.flush().and_then(|()| journal.compact(&live)) {
            eprintln!("jobd: journal compaction failed: {e}");
        }
    }

    /// Journal replay: fold the record stream to the set of jobs that were
    /// accepted but never reached a terminal record, and resubmit each one.
    /// Resubmission runs the normal path, so a job whose result actually
    /// made it to the cache before the crash finalizes instantly (dedup
    /// against completed work), and anything else resumes from its last
    /// checkpoint cursor. Compaction afterwards folds the replayed segments
    /// away; it runs after resubmission so a crash mid-recovery still finds
    /// every pending job in some segment.
    pub(super) fn recover(&self, replay: journal::Replay) {
        let pending = journal::fold_pending(&replay.records);
        let mut report = RecoveryReport {
            segments: replay.segments,
            records: replay.records.len(),
            torn_bytes: replay.torn_bytes,
            resyncs: replay.resyncs,
            pending: pending.len(),
            ..RecoveryReport::default()
        };
        for rec in pending {
            let Some(source) = rec.source.as_deref() else {
                eprintln!(
                    "jobd: recovery: job {}:{} was submitted in-process (no dataset path); \
                     cannot reconstruct it",
                    &rec.key[..rec.key.len().min(12)],
                    rec.b
                );
                report.unrecoverable += 1;
                continue;
            };
            let opts = rec.opts.clone().unwrap_or_default();
            match self.submit_path_inner(Path::new(source), opts, true) {
                Ok(info) if info.state == JobState::Finished => report.from_cache += 1,
                Ok(_) => report.requeued += 1,
                Err(e) => {
                    eprintln!("jobd: recovery: resubmission of {source} refused: {e}");
                    report.unrecoverable += 1;
                }
            }
        }
        self.compact_journal();
        *plock(&self.recovery) = Some(report);
    }
}

/// The journal accept record describing `job` — also the shape compaction
/// re-emits for still-live jobs, so replay after any crash converges on the
/// same pending set.
fn accept_record_for(job: &Job) -> JournalRecord {
    JournalRecord {
        kind: RecordKind::Accepted,
        key: job.key.hex(),
        b: job.work.b,
        mode: job.work.mode.as_str().to_string(),
        source: job.work.source.as_ref().map(|p| p.display().to_string()),
        opts: Some(job.work.opts.clone()),
        error: None,
    }
}

/// The cache extends a B-permutation result to B′ > B by reusing its counts
/// verbatim, which is only sound when counts are bitwise reproducible — so
/// the f32 accumulation mode is refused at the door (env override included,
/// so SPRINT_PRECISION can't smuggle it in).
fn refuse_f32(opts: &PmaxtOptions) -> Result<(), JobError> {
    if opts.precision.env_override() == Precision::F32 {
        return Err(bad(
            "precision",
            "f32 (the job service requires bitwise-reproducible f64)".into(),
        ));
    }
    Ok(())
}

/// Report for an adaptive submission served whole from a full exact cache
/// entry: every gene was scored over the entire stream, so the envelope
/// collapses to the exact p-value and nothing was spent.
fn collapsed_adaptive_report(
    ctx: &MaxTContext<'_>,
    counts: &CountAccumulator,
    b: u64,
) -> AdaptiveReport {
    let genes = ctx.genes();
    let mut p_lower = vec![f64::NAN; genes];
    let mut p_upper = vec![f64::NAN; genes];
    let mut p_point = vec![f64::NAN; genes];
    for g in 0..genes {
        if ctx.observed_scores()[g] > f64::NEG_INFINITY {
            let p = counts.count_raw[g] as f64 / b as f64;
            p_lower[g] = p;
            p_upper[g] = p;
            p_point[g] = p;
        }
    }
    AdaptiveReport {
        b,
        scored: vec![b; genes],
        counts: counts.count_raw.clone(),
        stopped_at: vec![None; genes],
        p_lower,
        p_upper,
        p_point,
        tail: vec![None; genes],
        gene_perms_scored: 0,
        gene_perms_exact: genes as u64 * b,
        watermark: b,
        mass_deactivation: false,
    }
}
