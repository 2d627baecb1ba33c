//! The job lifecycle, one for every workload: [`claim`] starts a job,
//! [`settle`] records each later state, and the two helpers every executor
//! shares — [`inject_fault`] and [`checkpoint`] — sit beside them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;

use sprint_core::error::Error as CoreError;
use sprint_core::maxt::CountAccumulator;

use super::queries::event_of;
use super::{plock, Inner, Job, JobProgress, JobState};
use crate::cache::ResultCache;
use crate::faults::{crash_point, FaultKind, Faults};
use crate::journal::{JournalRecord, RecordKind};

/// Start `job`: mark it Running and journal Started, returning the cursor it
/// starts from — or, when it was cancelled while queued, settle it Cancelled
/// instead. `None` when the job is not (or no longer) runnable.
pub(super) fn claim(inner: &Inner, job: &Job) -> Option<u64> {
    let mut prog = plock(&job.prog);
    if prog.state != JobState::Queued {
        return None;
    }
    if job.cancel.load(Ordering::Relaxed) {
        drop(prog);
        settle(inner, job, JobState::Cancelled, |_| {});
        return None;
    }
    prog.state = JobState::Running;
    let cursor = prog.cursor;
    drop(prog);
    journal_transition(inner, job);
    Some(cursor)
}

/// Move `job` to `state` after `apply` updated its progress — a merged
/// advance (`Running`), a park back to `Queued`, or a terminal outcome — then
/// emit the event, wake waiters and journal the transition. A job that is
/// already terminal stays as it is: the first outcome wins.
pub(super) fn settle(
    inner: &Inner,
    job: &Job,
    state: JobState,
    apply: impl FnOnce(&mut JobProgress),
) {
    {
        let mut prog = plock(&job.prog);
        if prog.state.is_terminal() {
            return;
        }
        apply(&mut prog);
        prog.state = state;
        if state.is_terminal() {
            // The counts are folded into the result (or abandoned) now;
            // free them, so a daemon keeps one result per settled job and
            // no second per-gene copy for as long as it lives.
            prog.counts = CountAccumulator::new(0);
        }
        // The live counter never runs ahead of the durable cursor across a
        // transition: an interrupted slice's partial progress is discarded.
        job.live_done.store(prog.cursor, Ordering::Relaxed);
    }
    let event = event_of(job);
    plock(&job.subs).retain(|tx| tx.send(event.clone()).is_ok());
    bump_change(inner);
    journal_transition(inner, job);
}

/// Settle `job` as Failed with `reason` (unless it is already terminal).
pub(super) fn fail(inner: &Inner, job: &Job, reason: String) {
    settle(inner, job, JobState::Failed, |prog| {
        prog.error = Some(reason)
    });
}

/// Run `body` for `job`, failing the job — never the daemon — if it panics:
/// engine code, scoring, checkpointing or an injected `worker_panic`.
pub(super) fn isolate(inner: &Inner, job: &Job, body: impl FnOnce()) {
    if let Err(payload) = catch_unwind(AssertUnwindSafe(body)) {
        let msg = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        fail(inner, job, format!("worker panicked: {msg}"));
    }
}

/// The injection point of the two in-slice fault classes, drawn once per
/// local slice or adaptive run. The panic unwinds into [`isolate`] exactly
/// as a real engine panic would; the I/O error takes the ordinary engine
/// error path. Either way the slice's work is discarded, the job's durable
/// state stays its last checkpoint, and a resubmit resumes
/// bitwise-identically.
pub(super) fn inject_fault(faults: &Faults) -> Result<(), CoreError> {
    if faults.fire(FaultKind::WorkerPanic) {
        panic!("injected worker panic (SPRINT_FAULTS worker_panic)");
    }
    if faults.fire(FaultKind::SpanIo) {
        return Err(CoreError::Comm("injected span I/O error".to_string()));
    }
    Ok(())
}

/// Write `job`'s cache entry through `store`, when the job writes through
/// to a cache. A failed write only warns: the entry is a resumption aid, and
/// the job's result does not depend on it.
pub(super) fn checkpoint(
    inner: &Inner,
    job: &Job,
    store: impl FnOnce(&ResultCache) -> std::io::Result<()>,
) {
    let Some(cache) = inner.cache.as_ref().filter(|_| job.cached) else {
        return;
    };
    if let Err(e) = store(cache) {
        eprintln!(
            "jobd: warning: failed to write cache entry {}: {e}",
            job.key.hex()
        );
    }
}

/// Wake every waiter: the generation counter moves on.
pub(super) fn bump_change(inner: &Inner) {
    *plock(&inner.change) += 1;
    inner.change_cv.notify_all();
}

/// Append the journal record for `job`'s current state, if its accept record
/// made it in. The started and terminal records are once-guarded so claim
/// races and retries stay idempotent; append errors only warn — the
/// in-memory outcome is already decided, and a missing lifecycle record
/// costs at most a redundant (cache-served) replay after a crash.
fn journal_transition(inner: &Inner, job: &Job) {
    let Some(journal) = &inner.journal else {
        return;
    };
    if !job.jrn_accepted.load(Ordering::SeqCst) {
        return;
    }
    let (state, error) = {
        let prog = plock(&job.prog);
        (prog.state, prog.error.clone())
    };
    let kind = match state {
        // A parked job is back to Queued; the accept record already covers
        // that state.
        JobState::Queued => return,
        JobState::Running => {
            if job.jrn_started.swap(true, Ordering::SeqCst) {
                return;
            }
            RecordKind::Started
        }
        JobState::Finished => RecordKind::Finished,
        JobState::Cancelled => RecordKind::Cancelled,
        JobState::Failed => RecordKind::Failed,
    };
    if kind.is_terminal() {
        if job.jrn_closed.swap(true, Ordering::SeqCst) {
            return;
        }
        // The widest crash window the harness drills: outcome decided and
        // (for finishes) the cache entry stored, terminal record not yet on
        // disk. Replay must re-serve the job from the cache, not recompute.
        crash_point("manager.finish");
    }
    let mut rec =
        JournalRecord::transition(kind, &job.key.hex(), job.work.b, job.work.mode.as_str());
    if kind == RecordKind::Failed {
        rec.error = error;
    }
    if let Err(e) = journal.append(&rec) {
        eprintln!(
            "jobd: journal {} record for job {} failed: {e}",
            kind.as_str(),
            job.id
        );
    }
    if kind == RecordKind::Started {
        crash_point("manager.start");
    }
}
