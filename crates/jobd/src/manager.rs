//! The job manager: one pipeline takes every workload — exact permutation
//! runs, adaptive runs and bootstrap runs, local or sharded across peer
//! daemons — from submission to result, the way the paper's `pmaxT` runs
//! one SPMD pipeline for every statistic.
//!
//! ## The pipeline
//!
//! - **Admission** (`admission.rs`): validate exactly as the direct drivers
//!   do → dedup against identical live jobs → probe the cache → register →
//!   journal the accept record → hand the job to an executor. Journal replay
//!   resubmits through the same path, and a peer's slice request is
//!   validated by the same function as a submission.
//! - **Lifecycle** (`lifecycle.rs`): `claim` either cancels a job before it
//!   starts or marks it Running and journals Started; `settle` records every
//!   later state — a merged advance, a park back to Queued, Finished,
//!   Cancelled or Failed — then emits the event, wakes waiters and journals
//!   the transition. Worker-fault injection and the cache store are one
//!   helper each, called by every workload.
//! - **Executor** (`executor.rs`): one roster executor, generic over the
//!   slice type. A job's remaining range is split across the roster (this
//!   daemon plus every `--peer`), remote slices travel as `span_exec` or
//!   `boot_exec` requests, a dead peer's slices go to an orphan queue the
//!   local executor drains, and finished slices merge in frontier order.
//!   Permutation spans merge as exact `u64` counts with a checkpoint at each
//!   advance; bootstrap gene bands merge in row order. Local execution is a
//!   roster of one. Adaptive runs keep their own thread — the shrinking live
//!   gene set has no place in the span protocol — but share admission, the
//!   lifecycle and the cache store.
//! - **State queries** (`queries.rs`): status, results, waits, cancellation
//!   and subscriptions.
//!
//! ## Scheduling
//!
//! A local exact job is not run to completion by one worker. Each time a
//! worker pops it, the executor runs **one span** (`ManagerConfig::span`
//! permutations) through the engine's `accumulate_chunk_hooked`, merges the span's
//! counts into the job, writes the cache entry, and parks the job at the back
//! of the queue. With more runnable jobs than workers this interleaves them
//! round-robin, so a short job never starves behind a long one; with fewer,
//! each job still gets its own engine thread budget per span. Sharded,
//! adaptive and bootstrap jobs run on a thread of their own.
//!
//! ## Determinism
//!
//! A span is an engine chunk: counts are bitwise-identical to a serial run
//! regardless of span size, worker interleaving, roster, per-job thread
//! budget or batch size (see `sprint_core::maxt::engine`). The manager only
//! ever partitions the permutation index range `0..B` into consecutive spans
//! and sums integer counts, so a jobd-served result equals `mt_maxt` bit for
//! bit. A bootstrap band computes every replicate for its gene rows, and
//! per-gene finalization is independent, so bands in row order equal
//! `boot_run`.
//!
//! ## Cancellation and resumability
//!
//! Cancellation sets a per-job [`AtomicBool`] polled by every engine worker
//! between batches. A span interrupted mid-way is discarded — its partial
//! counts are not an index prefix — so the job's durable state remains the
//! last completed span's checkpoint, which a later submit resumes from.
//!
//! ## Failure domains
//!
//! A worker panic — real or injected via [`crate::faults`] — is caught at the
//! executor boundary and fails the *job* ([`JobState::Failed`] with the panic
//! message in [`JobStatus::error`]), never the daemon: the worker thread
//! survives and moves on to the next queued job. Because a failed job's
//! durable state is still its last completed span's checkpoint, resubmitting
//! the identical request resumes where the failure struck and the final
//! counts stay bitwise-identical to an undisturbed run.

mod admission;
mod executor;
mod lifecycle;
mod queries;
#[cfg(test)]
mod tests;

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use sprint_core::adaptive::AdaptiveReport;
use sprint_core::boot::BootstrapResult;
use sprint_core::error::Error as CoreError;
use sprint_core::labels::ClassLabels;
use sprint_core::matrix::Matrix;
use sprint_core::maxt::engine::EngineConfig;
use sprint_core::maxt::{CountAccumulator, MaxTContext, MaxTResult};
use sprint_core::options::{Mode, PmaxtOptions, Workload};

use crate::cache::{CacheKey, ResultCache};
use crate::datasets::{mismatch_message, DatasetCache, DatasetError, DatasetStats};
use crate::faults::{FaultKind, Faults};
use crate::journal::{Durability, Journal};
use crate::shard::{ShardSnapshot, ShardStats};

/// Lock a mutex, recovering from poisoning.
///
/// Safe here by construction: panics in job-processing code are caught at the
/// executor boundary (see `lifecycle::isolate`) *before* they can unwind
/// through a guarded section, and every critical section in this module
/// leaves its guarded state consistent at each intermediate step — so a
/// poisoned lock carries no torn data. Refusing to recover would escalate one
/// panic into a dead daemon, the exact failure-domain leak this module exists
/// to prevent.
fn plock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Default [`ManagerConfig::queue_cap`] (and `pmaxt serve --queue`). Queued
/// jobs share their dataset's matrices through the dataset cache, so a
/// queued job costs only its count accumulators.
pub const DEFAULT_QUEUE_CAP: usize = 256;

/// Configuration of a [`JobManager`].
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Worker threads servicing the job queue (each drives one span at a
    /// time); `0` resolves to 2.
    pub workers: usize,
    /// Maximum runnable jobs queued at once; further submissions are
    /// rejected with [`JobError::QueueFull`]. Defaults to
    /// [`DEFAULT_QUEUE_CAP`].
    pub queue_cap: usize,
    /// Permutations per span — the checkpoint / fairness / cancellation
    /// granule.
    pub span: u64,
    /// Engine threads for jobs that leave `opts.threads = 0` (auto); `0`
    /// resolves to available parallelism divided by the worker count, so a
    /// fully busy pool does not oversubscribe the machine.
    pub job_threads: usize,
    /// Cache directory; `None` disables caching (every submit computes).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Peer daemon addresses (`pmaxt serve --peer`). When non-empty, a job
    /// submitted with a dataset path is *sharded*: its permutation range is
    /// split across this daemon and every peer via `span_exec` requests, and
    /// the exceedance counts are merged bitwise-identically to a local run
    /// (see [`crate::shard`]).
    pub peers: Vec<String>,
    /// Fault-injection registry threaded through the span loop and the cache
    /// (see [`crate::faults`]). Defaults to the `SPRINT_FAULTS` environment
    /// configuration, which is disabled when the variable is unset.
    pub faults: Faults,
    /// Write-ahead journal fsync policy (`pmaxt serve --durability`; see
    /// [`crate::journal`]). Requires a cache directory — the journal lives
    /// under it. `Off` (the default, for embedded use) keeps no journal:
    /// daemon death loses queued and running jobs, as before.
    pub durability: Durability,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            workers: 2,
            queue_cap: DEFAULT_QUEUE_CAP,
            span: 4096,
            job_threads: 0,
            cache_dir: None,
            peers: Vec::new(),
            faults: Faults::from_env(),
            durability: Durability::Off,
        }
    }
}

/// A submitted unit of work: the dataset and the full `pmaxT` options.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Expression matrix (genes × samples).
    pub data: Matrix,
    /// Class labels, one per sample column.
    pub classlabel: Vec<u8>,
    /// Run options; `opts.threads`/`opts.batch` set this job's engine budget.
    pub opts: PmaxtOptions,
    /// Filesystem path the dataset was read from, when it has one. Required
    /// for cross-daemon sharding: peers re-read the dataset from this path on
    /// their own filesystem instead of shipping the matrix inline. Jobs
    /// submitted without a path always run locally.
    pub source_path: Option<std::path::PathBuf>,
}

/// Lifecycle of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the queue for a worker.
    Queued,
    /// A worker is processing a span right now.
    Running,
    /// All permutations accumulated; the result is available.
    Finished,
    /// Cancelled; the last completed span remains cached for resumption.
    Cancelled,
    /// The engine reported an error (see [`JobStatus::error`]).
    Failed,
}

impl JobState {
    /// Wire string form.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Finished => "finished",
            JobState::Cancelled => "cancelled",
            JobState::Failed => "failed",
        }
    }

    /// True when the job will never make further progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Finished | JobState::Cancelled | JobState::Failed
        )
    }
}

/// How the cache served a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// No entry; computed from scratch (and cached).
    Miss,
    /// Entry covered the full request: no permutations computed.
    Hit,
    /// Entry for the same `B` with a partial cursor: crash/cancel recovery.
    Resume {
        /// Cursor the job resumed from.
        from: u64,
    },
    /// Entry for a smaller `B`: incremental extension of a finished run.
    Extend {
        /// Cursor (the previous run's `B`) the job extended from.
        from: u64,
    },
    /// Not cached: caching disabled, or the entry covers more permutations
    /// than requested (computing fresh must not clobber it).
    Uncached,
}

impl CacheDisposition {
    /// Wire string form.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Miss => "miss",
            CacheDisposition::Hit => "hit",
            CacheDisposition::Resume { .. } => "resume",
            CacheDisposition::Extend { .. } => "extend",
            CacheDisposition::Uncached => "uncached",
        }
    }

    /// The cursor this submission started from (0 unless resuming/extending).
    pub fn resumed_from(self) -> u64 {
        match self {
            CacheDisposition::Resume { from } | CacheDisposition::Extend { from } => from,
            _ => 0,
        }
    }
}

/// Point-in-time view of a job.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Job id (unique within the manager's lifetime).
    pub id: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Permutations accounted for, including live intra-span progress.
    pub done: u64,
    /// Total permutations of the run (the resolved `B`).
    pub total: u64,
    /// Permutations actually computed by this submission (0 for a cache hit).
    pub computed: u64,
    /// How the cache served this submission.
    pub cache: CacheDisposition,
    /// Estimated seconds to completion, from the wall-clock rate of the
    /// permutations merged since the executor last started on the job;
    /// `None` before the first merge (or when done).
    pub eta_secs: Option<f64>,
    /// Failure message when `state == Failed`.
    pub error: Option<String>,
    /// Cross-daemon wire counters, for sharded jobs only.
    pub comm: Option<ShardSnapshot>,
    /// Summary of the adaptive run, for finished adaptive-mode jobs only.
    pub adaptive: Option<AdaptiveBrief>,
    /// True when this job was re-enqueued from the journal after a daemon
    /// restart (recovery provenance; see [`crate::journal`]).
    pub recovered: bool,
}

/// Compact summary of a finished adaptive-mode run, embedded in
/// [`JobStatus`]. The full per-gene report travels with the result
/// (see [`JobManager::adaptive_report`]).
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveBrief {
    /// Genes deactivated before the full permutation budget.
    pub genes_stopped: u64,
    /// Scored gene-permutations as a fraction of the exact-mode total.
    pub budget_fraction: f64,
    /// Cursor of the bitwise-exact full-gene prefix (the upgrade point).
    pub watermark: u64,
    /// True when >90% of eligible genes stopped within 10% of the budget.
    pub mass_deactivation: bool,
}

/// Outcome of [`JobManager::submit`].
#[derive(Debug, Clone)]
pub struct SubmitInfo {
    /// Job id to poll/await/cancel.
    pub id: u64,
    /// State right after submission (`Finished` for an instant cache hit).
    pub state: JobState,
    /// How the cache served the submission.
    pub cache: CacheDisposition,
    /// Total permutations of the run (the resolved `B`).
    pub total: u64,
    /// True when an identical live job already existed and was returned
    /// instead of a new one.
    pub deduped: bool,
    /// Hex cache key of the run's permutation stream.
    pub key: String,
    /// True when the (possibly deduped-onto) job was re-enqueued from the
    /// journal after a daemon restart.
    pub recovered: bool,
}

/// Progress/lifecycle event streamed to subscribers.
#[derive(Debug, Clone)]
pub struct JobEvent {
    /// Job id.
    pub job: u64,
    /// State at the time of the event.
    pub state: JobState,
    /// Permutations accounted for.
    pub done: u64,
    /// Total permutations.
    pub total: u64,
    /// ETA estimate, when one exists.
    pub eta_secs: Option<f64>,
    /// Cross-daemon wire counters, for sharded jobs only.
    pub comm: Option<ShardSnapshot>,
}

/// Errors surfaced by the manager API.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The submission failed validation (bad labels, options, matrix…).
    Invalid(CoreError),
    /// The queue is at capacity.
    QueueFull {
        /// The configured capacity.
        cap: usize,
    },
    /// No job with that id.
    UnknownJob(u64),
    /// The job has not finished yet (non-waiting result fetch).
    NotFinished(u64),
    /// The job was cancelled before finishing.
    Cancelled(u64),
    /// The job failed; the message is the engine error.
    Failed(String),
    /// A bounded wait elapsed.
    Timeout(u64),
    /// The dataset file could not be read or parsed.
    Unreadable(String),
    /// A coordinator's span or slice names data this daemon's copy of the
    /// file does not hold (see [`crate::datasets`]).
    DatasetMismatch {
        /// Path as requested.
        path: String,
        /// Dataset digest the coordinator sent.
        expected: u64,
        /// Dataset digest of this daemon's copy.
        found: u64,
    },
    /// The manager is shutting down (or draining).
    ShuttingDown,
    /// An internal invariant broke — a bug, not a caller mistake. The daemon
    /// stays up and reports it instead of panicking the request thread.
    Internal(String),
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Invalid(e) => write!(f, "invalid job: {e}"),
            JobError::QueueFull { cap } => write!(f, "job queue full ({cap} jobs)"),
            JobError::UnknownJob(id) => write!(f, "no such job {id}"),
            JobError::NotFinished(id) => write!(f, "job {id} has not finished"),
            JobError::Cancelled(id) => write!(f, "job {id} was cancelled"),
            JobError::Failed(msg) => write!(f, "job failed: {msg}"),
            JobError::Timeout(id) => write!(f, "timed out waiting for job {id}"),
            JobError::Unreadable(msg) => write!(f, "{msg}"),
            JobError::DatasetMismatch {
                path,
                expected,
                found,
            } => f.write_str(&mismatch_message(path, *expected, *found)),
            JobError::ShuttingDown => write!(f, "job manager is shutting down"),
            JobError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

impl JobError {
    /// Wire error code: `usage` for caller mistakes, `busy` for back-pressure,
    /// `mismatch` for a peer whose dataset differs from the coordinator's,
    /// `runtime` for everything else.
    pub fn code(&self) -> &'static str {
        match self {
            JobError::Invalid(_) | JobError::UnknownJob(_) | JobError::NotFinished(_) => "usage",
            JobError::QueueFull { .. } => "busy",
            JobError::DatasetMismatch { .. } => "mismatch",
            _ => "runtime",
        }
    }
}

impl From<DatasetError> for JobError {
    fn from(e: DatasetError) -> JobError {
        match e {
            DatasetError::Invalid(e) => JobError::Invalid(e),
            DatasetError::Mismatch {
                path,
                expected,
                found,
            } => JobError::DatasetMismatch {
                path,
                expected,
                found,
            },
            unreadable => JobError::Unreadable(unreadable.to_string()),
        }
    }
}

/// A validated run: what admission registers and what a peer executes
/// slices of. Immutable after validation.
struct JobWork {
    /// The matrix the workload reads, shared with the dataset cache: the
    /// scored (possibly rank-transformed) matrix of a permutation run, the
    /// NA-canonical matrix of a bootstrap run.
    prepared: Arc<Matrix>,
    labels: ClassLabels,
    /// Options as submitted: journaled, and sent to peers, which resolve
    /// their own thread budget.
    opts: PmaxtOptions,
    /// Resolved permutation (bootstrap: draw) count.
    b: u64,
    /// Engine geometry, with `opts.threads == 0` resolved to the job budget.
    cfg: EngineConfig,
    /// Resolved run mode (env override folded in at validation).
    mode: Mode,
    /// Dataset path for sharded dispatch and journal replay.
    source: Option<PathBuf>,
}

impl JobWork {
    /// The scorer context of a permutation run.
    fn context(&self) -> MaxTContext<'_> {
        MaxTContext::with_scorer(
            &self.prepared,
            &self.labels,
            self.opts.test,
            self.opts.side,
            self.opts.kernel,
            self.opts.precision,
        )
    }

    /// End of the range the workload slices: `B` permutations, or the gene
    /// rows a bootstrap run bands.
    fn end(&self) -> u64 {
        match self.opts.workload {
            Workload::Bootstrap => self.prepared.rows() as u64,
            Workload::Pmaxt => self.b,
        }
    }
}

/// Mutable per-job state, guarded by one mutex.
struct JobProgress {
    state: JobState,
    cursor: u64,
    counts: CountAccumulator,
    computed: u64,
    cache: CacheDisposition,
    secs_per_perm: Option<f64>,
    result: Option<MaxTResult>,
    /// Per-gene interval estimates of a bootstrap-workload job (such jobs
    /// never set `result`); complete once the job is finished.
    boot: Option<BootstrapResult>,
    /// Per-gene adaptive report, set when a Mode::Adaptive job finishes.
    adaptive: Option<AdaptiveReport>,
    error: Option<String>,
}

impl JobProgress {
    /// A queued job that has computed nothing yet.
    fn new(genes: usize) -> JobProgress {
        JobProgress {
            state: JobState::Queued,
            cursor: 0,
            counts: CountAccumulator::new(genes),
            computed: 0,
            cache: CacheDisposition::Uncached,
            secs_per_perm: None,
            result: None,
            boot: None,
            adaptive: None,
            error: None,
        }
    }
}

struct Job {
    id: u64,
    key: CacheKey,
    work: JobWork,
    /// Write progress through to the cache (a cache exists, and its entry
    /// does not already cover more than this job computes).
    cached: bool,
    cancel: AtomicBool,
    /// Cursor plus live intra-span progress, updated lock-free by engine
    /// workers for cheap status/ETA reads.
    live_done: AtomicU64,
    /// Wire counters when this job is sharded across peer daemons.
    shard: Option<Arc<ShardStats>>,
    /// Recovery provenance: re-enqueued from the journal after a restart.
    recovered: bool,
    /// Journal bookkeeping: set once the accept record is appended (only
    /// then do lifecycle records make sense), and once-guards for the
    /// started/terminal records so retries and races stay idempotent.
    jrn_accepted: AtomicBool,
    jrn_started: AtomicBool,
    jrn_closed: AtomicBool,
    prog: Mutex<JobProgress>,
    subs: Mutex<Vec<mpsc::Sender<JobEvent>>>,
}

impl Job {
    /// True for the jobs the worker pool runs one span per pop: local exact
    /// permutation runs. Every other job runs on a thread of its own.
    fn on_queue(&self) -> bool {
        self.shard.is_none()
            && self.work.mode == Mode::Exact
            && self.work.opts.workload == Workload::Pmaxt
    }
}

struct Inner {
    cfg: ManagerConfig,
    cache: Option<ResultCache>,
    /// Parsed datasets, shared by submissions, workers, peer spans and
    /// journal replay.
    datasets: DatasetCache,
    /// Write-ahead job journal; `None` when durability is off or there is
    /// no cache directory to host it.
    journal: Option<Journal>,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Drain mode: reject new submissions but let queued/running jobs reach
    /// a terminal state (see [`JobManager::drain`]).
    draining: AtomicBool,
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    /// (stream key hex, resolved B, mode) → live job id, for submission
    /// dedup. Mode is part of the key: an adaptive and an exact submission
    /// of the same stream are different jobs (they share a cache address —
    /// the watermark — but not a result).
    dedup: Mutex<HashMap<(String, u64, Mode), u64>>,
    next_id: AtomicU64,
    /// Generation counter bumped on every state change; waiters re-check
    /// after each bump. Never locked while holding a job's `prog` mutex.
    change: Mutex<u64>,
    change_cv: Condvar,
}

/// What journal replay found and did at startup (see
/// [`JobManager::recovery_report`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal segments scanned.
    pub segments: usize,
    /// Valid records replayed across all segments.
    pub records: usize,
    /// Bytes truncated from a torn tail (quarantined, not lost silently).
    pub torn_bytes: u64,
    /// Damaged mid-segment frames skipped by resynchronization.
    pub resyncs: u64,
    /// Jobs the fold found in a non-terminal state.
    pub pending: usize,
    /// Pending jobs re-enqueued to compute (possibly resuming mid-stream
    /// from their checkpoint cursor).
    pub requeued: usize,
    /// Pending jobs that finalized straight from a completed cache entry.
    pub from_cache: usize,
    /// Pending jobs that could not be reconstructed (no dataset source
    /// recorded, source unreadable, or resubmission refused).
    pub unrecoverable: usize,
}

/// The job service: owns the queue, the worker pool and the cache.
pub struct JobManager {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Set once at startup when a journal was replayed.
    recovery: Mutex<Option<RecoveryReport>>,
}

impl std::fmt::Debug for JobManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobManager")
            .field("cfg", &self.inner.cfg)
            .finish_non_exhaustive()
    }
}

impl JobManager {
    /// Start a manager: open the cache (if configured) and spawn the worker
    /// pool.
    pub fn new(mut cfg: ManagerConfig) -> std::io::Result<JobManager> {
        if cfg.workers == 0 {
            cfg.workers = 2;
        }
        if cfg.span == 0 {
            cfg.span = ManagerConfig::default().span;
        }
        if cfg.job_threads == 0 {
            let avail = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            cfg.job_threads = (avail / cfg.workers).max(1);
        }
        let cache = match &cfg.cache_dir {
            Some(dir) => Some(ResultCache::open_with(dir.clone(), cfg.faults.clone())?),
            None => None,
        };
        // The journal lives under the cache directory: durability without a
        // cache has nothing to resume from, so it degrades to off (loudly).
        let mut replay = None;
        let journal = match (&cfg.cache_dir, cfg.durability) {
            (_, Durability::Off) => None,
            (None, mode) => {
                eprintln!(
                    "jobd: --durability {} requires a cache directory; journal disabled",
                    mode.as_str()
                );
                None
            }
            (Some(dir), mode) => {
                let (journal, rep) = Journal::open(&dir.join("journal"), mode, cfg.faults.clone())?;
                replay = Some(rep);
                Some(journal)
            }
        };
        let inner = Arc::new(Inner {
            cfg,
            cache,
            datasets: DatasetCache::default(),
            journal,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            jobs: Mutex::new(HashMap::new()),
            dedup: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(1),
            change: Mutex::new(0),
            change_cv: Condvar::new(),
        });
        let workers = (0..inner.cfg.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || executor::worker_loop(&inner))
            })
            .collect();
        let mgr = JobManager {
            inner,
            workers: Mutex::new(workers),
            recovery: Mutex::new(None),
        };
        if let Some(replay) = replay {
            mgr.recover(replay);
        }
        Ok(mgr)
    }

    /// The startup journal-replay report, when this manager keeps a journal.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        plock(&self.recovery).clone()
    }

    /// Counters of this daemon's dataset cache.
    pub fn dataset_stats(&self) -> DatasetStats {
        self.inner.datasets.stats()
    }

    /// Drop every cached dataset; jobs keep the matrices they hold.
    pub fn clear_datasets(&self) {
        self.inner.datasets.clear();
    }

    /// Enter drain mode: reject further submissions with
    /// [`JobError::ShuttingDown`] while letting every queued and running job
    /// reach a terminal state. Pair with [`wait_idle`] then [`shutdown`] for
    /// a graceful exit. Idempotent.
    ///
    /// [`wait_idle`]: JobManager::wait_idle
    /// [`shutdown`]: JobManager::shutdown
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        lifecycle::bump_change(&self.inner);
    }

    /// Fault-class counters of this manager's injection registry (all zero
    /// when injection is disabled). Soak tests use this to assert each fault
    /// class actually exercised its recovery path.
    pub fn fault_report(&self) -> Vec<(FaultKind, u64, u64)> {
        self.inner.cfg.faults.report()
    }

    /// Stop the worker pool: no further spans are started (in-flight spans
    /// finish and checkpoint), waiters are released with
    /// [`JobError::ShuttingDown`]. Idempotent.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Pass through the queue lock before notifying: a worker between its
        // shutdown check and its wait holds that lock, so it either sees the
        // flag or is already waiting when the notification comes.
        drop(plock(&self.inner.queue));
        self.inner.queue_cv.notify_all();
        lifecycle::bump_change(&self.inner);
        for handle in plock(&self.workers).drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for JobManager {
    fn drop(&mut self) {
        self.shutdown();
    }
}
