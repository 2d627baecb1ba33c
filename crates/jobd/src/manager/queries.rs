//! State queries: status snapshots, results, waits, cancellation and
//! progress subscriptions.

use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, PoisonError};
use std::time::{Duration, Instant};

use sprint_core::adaptive::AdaptiveReport;
use sprint_core::boot::BootstrapResult;
use sprint_core::error::Error as CoreError;
use sprint_core::maxt::MaxTResult;
use sprint_core::options::Workload;

use super::lifecycle::settle;
use super::{
    plock, AdaptiveBrief, Job, JobError, JobEvent, JobManager, JobProgress, JobState, JobStatus,
};

impl JobManager {
    fn get(&self, id: u64) -> Result<Arc<Job>, JobError> {
        plock(&self.inner.jobs)
            .get(&id)
            .cloned()
            .ok_or(JobError::UnknownJob(id))
    }

    /// Snapshot a job's status.
    pub fn status(&self, id: u64) -> Result<JobStatus, JobError> {
        let job = self.get(id)?;
        Ok(status_of(&job))
    }

    /// Status of every known job, by ascending id.
    pub fn list(&self) -> Vec<JobStatus> {
        let mut all: Vec<JobStatus> = plock(&self.inner.jobs)
            .values()
            .map(|j| status_of(j))
            .collect();
        all.sort_by_key(|s| s.id);
        all
    }

    /// `fetch` from a finished job; the terminal failure states map to their
    /// own errors and a live job to [`JobError::NotFinished`].
    fn finished<T>(
        &self,
        id: u64,
        fetch: impl FnOnce(&Job, &JobProgress) -> Result<T, JobError>,
    ) -> Result<T, JobError> {
        let job = self.get(id)?;
        let prog = plock(&job.prog);
        match prog.state {
            JobState::Finished => fetch(&job, &prog),
            JobState::Cancelled => Err(JobError::Cancelled(id)),
            JobState::Failed => Err(JobError::Failed(
                prog.error.clone().unwrap_or_else(|| "unknown".into()),
            )),
            _ => Err(JobError::NotFinished(id)),
        }
    }

    /// The finished result, or [`JobError::NotFinished`] (terminal failure
    /// states map to their own errors).
    pub fn result(&self, id: u64) -> Result<MaxTResult, JobError> {
        self.finished(id, |_, prog| match (&prog.result, &prog.boot) {
            (_, Some(_)) => Err(JobError::Invalid(CoreError::BadOption {
                param: "workload",
                value: format!(
                    "bootstrap (job {id} is a bootstrap run; fetch its interval \
                     estimates with the bootstrap result call)"
                ),
            })),
            (Some(result), None) => Ok(result.clone()),
            (None, None) => Err(JobError::Internal(format!(
                "job {id} is finished but has no stored result"
            ))),
        })
    }

    /// True when `id` is a bootstrap-workload job (its result travels as
    /// interval estimates, not maxT p-values).
    pub fn is_boot(&self, id: u64) -> Result<bool, JobError> {
        Ok(self.get(id)?.work.opts.workload == Workload::Bootstrap)
    }

    /// The finished bootstrap estimates, or [`JobError::NotFinished`]. Same
    /// terminal-state contract as [`JobManager::result`]; asking a
    /// permutation job for bootstrap estimates is a usage error.
    pub fn boot_result(&self, id: u64) -> Result<BootstrapResult, JobError> {
        self.finished(id, |job, prog| {
            prog.boot.clone().ok_or_else(|| {
                JobError::Invalid(CoreError::BadOption {
                    param: "workload",
                    value: format!(
                        "{} (job {id} is a permutation run; fetch its maxT result instead)",
                        job.work.opts.workload.as_str()
                    ),
                })
            })
        })
    }

    /// The per-gene adaptive report of a finished adaptive-mode job; `None`
    /// for exact jobs. Same terminal-state contract as [`JobManager::result`].
    pub fn adaptive_report(&self, id: u64) -> Result<Option<AdaptiveReport>, JobError> {
        self.finished(id, |_, prog| Ok(prog.adaptive.clone()))
    }

    /// Block until the job reaches a terminal state (or `timeout` elapses)
    /// and return its result.
    pub fn wait_result(&self, id: u64, timeout: Option<Duration>) -> Result<MaxTResult, JobError> {
        self.wait_terminal(id, timeout, || self.result(id))
    }

    /// Block until the bootstrap job reaches a terminal state (or `timeout`
    /// elapses) and return its estimates.
    pub fn wait_boot_result(
        &self,
        id: u64,
        timeout: Option<Duration>,
    ) -> Result<BootstrapResult, JobError> {
        self.wait_terminal(id, timeout, || self.boot_result(id))
    }

    /// Wait until `fetch` stops reporting [`JobError::NotFinished`].
    fn wait_terminal<T>(
        &self,
        id: u64,
        timeout: Option<Duration>,
        fetch: impl Fn() -> Result<T, JobError>,
    ) -> Result<T, JobError> {
        self.wait_for(timeout, || match fetch() {
            Err(JobError::NotFinished(_)) if self.inner.shutdown.load(Ordering::Relaxed) => {
                Some(Err(JobError::ShuttingDown))
            }
            Err(JobError::NotFinished(_)) => None,
            other => Some(other),
        })
        .unwrap_or(Err(JobError::Timeout(id)))
    }

    /// Block until `ready` yields (re-checked after every state change), or
    /// `None` once `timeout` elapses.
    fn wait_for<T>(
        &self,
        timeout: Option<Duration>,
        mut ready: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            // Read the generation *before* checking: any transition after
            // the check bumps it, so the wait below cannot miss it.
            let seen = *plock(&self.inner.change);
            if let Some(value) = ready() {
                return Some(value);
            }
            let mut gen = plock(&self.inner.change);
            while *gen == seen {
                gen = match deadline {
                    None => self
                        .inner
                        .change_cv
                        .wait(gen)
                        .unwrap_or_else(PoisonError::into_inner),
                    Some(d) => {
                        let left = d.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            return None;
                        }
                        self.inner
                            .change_cv
                            .wait_timeout(gen, left)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0
                    }
                };
            }
        }
    }

    /// Request cancellation. Queued jobs cancel immediately; running jobs
    /// abort at the next batch boundary and keep their last completed span's
    /// checkpoint. Idempotent; terminal jobs are unaffected.
    pub fn cancel(&self, id: u64) -> Result<JobStatus, JobError> {
        let job = self.get(id)?;
        // Set before the state check: a claim racing this call sees the flag
        // and settles the job Cancelled itself.
        job.cancel.store(true, Ordering::SeqCst);
        if plock(&job.prog).state == JobState::Queued {
            settle(&self.inner, &job, JobState::Cancelled, |_| {});
        }
        Ok(status_of(&job))
    }

    /// Subscribe to a job's progress events. The current status is delivered
    /// immediately as the first event, so a subscriber to an already-terminal
    /// job still observes its outcome.
    pub fn subscribe(&self, id: u64) -> Result<mpsc::Receiver<JobEvent>, JobError> {
        let job = self.get(id)?;
        let (tx, rx) = mpsc::channel();
        let snapshot = event_of(&job);
        // Register before snapshotting delivery so no transition between the
        // two is lost; a duplicate event is harmless, a missing terminal one
        // would wedge watchers.
        plock(&job.subs).push(tx.clone());
        let _ = tx.send(snapshot);
        Ok(rx)
    }

    /// True when no job can make further progress: the queue is empty and
    /// every known job is terminal.
    pub fn idle(&self) -> bool {
        if !plock(&self.inner.queue).is_empty() {
            return false;
        }
        plock(&self.inner.jobs)
            .values()
            .all(|job| plock(&job.prog).state.is_terminal())
    }

    /// Block until [`idle`] (or `timeout` elapses); returns whether the
    /// manager is idle. Meaningful after [`drain`] — without it new
    /// submissions can keep arriving and idleness is a race.
    ///
    /// [`idle`]: JobManager::idle
    /// [`drain`]: JobManager::drain
    pub fn wait_idle(&self, timeout: Option<Duration>) -> bool {
        self.wait_for(timeout, || self.idle().then_some(()))
            .is_some()
            || self.idle()
    }
}

pub(super) fn status_of(job: &Job) -> JobStatus {
    let prog = plock(&job.prog);
    let done = job.live_done.load(Ordering::Relaxed).max(prog.cursor);
    let eta_secs = match prog.state {
        JobState::Queued | JobState::Running => prog
            .secs_per_perm
            .map(|per| (job.work.b.saturating_sub(done)) as f64 * per),
        _ => None,
    };
    JobStatus {
        id: job.id,
        state: prog.state,
        done,
        total: job.work.b,
        computed: prog.computed,
        cache: prog.cache,
        eta_secs,
        error: prog.error.clone(),
        comm: job.shard.as_ref().map(|s| s.snapshot()),
        adaptive: prog.adaptive.as_ref().map(|r| AdaptiveBrief {
            genes_stopped: r.genes_stopped() as u64,
            budget_fraction: r.budget_fraction(),
            watermark: r.watermark,
            mass_deactivation: r.mass_deactivation,
        }),
        recovered: job.recovered,
    }
}

pub(super) fn event_of(job: &Job) -> JobEvent {
    let st = status_of(job);
    JobEvent {
        job: st.id,
        state: st.state,
        done: st.done,
        total: st.total,
        eta_secs: st.eta_secs,
        comm: st.comm,
    }
}
