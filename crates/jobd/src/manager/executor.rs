//! The executor: one roster executor, generic over the slice type, runs
//! every permutation and bootstrap job; the worker pool feeds it local exact
//! jobs one span at a time, and adaptive jobs run beside it on their own
//! thread.
//!
//! A job's remaining range is split across the roster — this daemon plus,
//! for a sharded job, every configured peer — with the same skip-ahead
//! arithmetic the SPMD ranks use. Each peer has one dispatcher thread that
//! sends its share as `span_exec`/`boot_exec` requests; a peer that exhausts
//! its retry budget is declared dead and its unfinished slices go to an
//! orphan queue that the local executor (and any surviving peer) drains.
//! Finished slices merge strictly in frontier order, so a job's merged
//! state is always the exact result of `[start, frontier)` — the invariant
//! the checkpoint format requires — and a slice is merged at most once
//! whatever the completion order or failure history.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use sprint::checkpoint::CheckpointState;
use sprint_core::adaptive::{AdaptiveConfig, AdaptiveRunner};
use sprint_core::boot::{self, BootstrapResult};
use sprint_core::error::Error as CoreError;
use sprint_core::maxt::engine::{accumulate_chunk_hooked, split_evenly, ChunkHooks};
use sprint_core::maxt::{CountAccumulator, MaxTContext};
use sprint_core::options::{Mode, Workload};
use sprint_core::pmaxt::span_plan;

use super::lifecycle::{checkpoint, claim, fail, inject_fault, isolate, settle};
use super::{plock, Inner, Job, JobProgress, JobState, JobWork};
use crate::cache::{CacheKey, CacheProbe, ResultCache};
use crate::client::RetryPolicy;
use crate::faults::FaultKind;
use crate::json::Json;
use crate::protocol;
use crate::shard::{kernel_secs, slice_spans, thread_cpu_secs, PeerError, PeerLink, SpanQueue};

/// Per-attempt socket deadline for peer dispatch: long enough for a busy
/// peer to grind a slice, short enough that a hung peer is declared dead and
/// its slices reassigned within one retry budget.
const PEER_TIMEOUT: Duration = Duration::from_secs(30);

/// How long an executor with nothing to compute waits before polling again.
const IDLE_POLL: Duration = Duration::from_millis(2);

/// A finished slice `(start, take, part)` on its way to the merge, or the
/// reason the job fails.
type Delivery<P> = Result<(u64, u64, P), String>;

/// How one workload slices, computes and merges its range. A slice is
/// `(start, take)` in the workload's unit: permutation indices for exact
/// runs, gene rows for bootstrap runs.
pub(super) trait Slicing: Sync {
    /// One computed slice.
    type Part: Send;
    /// The range still to compute, `[from, end)`, for a job claimed at
    /// `cursor`.
    fn range(&self, cursor: u64) -> (u64, u64);
    /// Each roster participant's slices of `[from, end)`; participant 0 is
    /// this daemon.
    fn plan(
        &self,
        from: u64,
        end: u64,
        roster: usize,
        span: u64,
    ) -> Result<Vec<VecDeque<(u64, u64)>>, CoreError>;
    /// Compute one slice on this thread: the part and its kernel seconds.
    fn compute(
        &self,
        start: u64,
        take: u64,
        hooks: ChunkHooks<'_>,
    ) -> Result<(Self::Part, f64), CoreError>;
    /// The peer request for one slice of the dataset at `path`.
    fn request(&self, path: &str, start: u64, take: u64) -> Json;
    /// A peer's answer for one slice, shape-checked against it.
    fn decode(&self, resp: &Json, start: u64, take: u64) -> Result<(Self::Part, f64), String>;
    /// Merge the slice at the frontier into the job's progress.
    fn absorb(&self, prog: &mut JobProgress, take: u64, part: Self::Part) -> Result<(), CoreError>;
    /// Write the cache entry after a frontier advance (`complete`: the whole
    /// range is merged).
    fn store(
        &self,
        cache: &ResultCache,
        key: &CacheKey,
        prog: &JobProgress,
        complete: bool,
    ) -> std::io::Result<()>;
    /// Set the result of a job whose range is fully merged.
    fn finish(&self, prog: &mut JobProgress);
}

/// Exact permutation spans: exceedance counts, merged as `u64` sums.
pub(super) struct Permutations<'a> {
    work: &'a JobWork,
    /// The scorer context, prepared on first use: a sharded run's peers
    /// start on their spans while this daemon prepares its own.
    ctx: OnceLock<MaxTContext<'a>>,
}

impl<'a> Permutations<'a> {
    pub(super) fn new(work: &'a JobWork) -> Self {
        Permutations {
            work,
            ctx: OnceLock::new(),
        }
    }

    fn ctx(&self) -> &MaxTContext<'a> {
        self.ctx.get_or_init(|| self.work.context())
    }
}

impl Slicing for Permutations<'_> {
    type Part = CountAccumulator;

    fn range(&self, cursor: u64) -> (u64, u64) {
        (cursor, self.work.b)
    }

    fn plan(
        &self,
        from: u64,
        end: u64,
        roster: usize,
        span: u64,
    ) -> Result<Vec<VecDeque<(u64, u64)>>, CoreError> {
        Ok(span_plan(end - from, roster)?
            .into_iter()
            .map(|(s, t)| slice_spans(from + s, t, span).into())
            .collect())
    }

    fn compute(
        &self,
        start: u64,
        take: u64,
        hooks: ChunkHooks<'_>,
    ) -> Result<(CountAccumulator, f64), CoreError> {
        let (w, ctx) = (self.work, self.ctx());
        let cpu0 = thread_cpu_secs();
        let run = accumulate_chunk_hooked(ctx, &w.labels, &w.opts, w.b, start, take, w.cfg, hooks)?;
        let secs = kernel_secs(cpu0, run.workers.len() <= 1, || {
            run.workers.iter().map(|w| w.busy.as_secs_f64()).sum()
        });
        Ok((run.counts, secs))
    }

    fn request(&self, path: &str, start: u64, take: u64) -> Json {
        protocol::span_exec_request(path, &self.work.opts, self.work.b, start, take)
    }

    fn decode(
        &self,
        resp: &Json,
        start: u64,
        take: u64,
    ) -> Result<(CountAccumulator, f64), String> {
        let (rs, rt, flat, secs) = protocol::span_counts_from_json(resp)
            .map_err(|e| format!("malformed span response: {e}"))?;
        let genes = self.work.prepared.rows();
        if rs != start || rt != take || flat.len() != CountAccumulator::new(genes).to_flat().len() {
            return Err("span/shape mismatch in response".into());
        }
        Ok((CountAccumulator::from_flat(&flat, genes), secs))
    }

    fn absorb(
        &self,
        prog: &mut JobProgress,
        take: u64,
        part: CountAccumulator,
    ) -> Result<(), CoreError> {
        prog.counts.merge(&part);
        prog.cursor += take;
        prog.computed += take;
        Ok(())
    }

    fn store(
        &self,
        cache: &ResultCache,
        key: &CacheKey,
        prog: &JobProgress,
        _complete: bool,
    ) -> std::io::Result<()> {
        cache.store(
            key,
            &prefix_state(key, self.work.b, prog.cursor, &prog.counts),
        )
    }

    fn finish(&self, prog: &mut JobProgress) {
        prog.result = Some(self.ctx().finalize(&prog.counts));
    }
}

/// Bootstrap gene bands: every replicate for a contiguous run of gene rows,
/// merged in row order.
pub(super) struct Bands<'a> {
    work: &'a JobWork,
}

impl<'a> Bands<'a> {
    pub(super) fn new(work: &'a JobWork) -> Self {
        Bands { work }
    }
}

impl Slicing for Bands<'_> {
    type Part = BootstrapResult;

    fn range(&self, _cursor: u64) -> (u64, u64) {
        (0, self.work.end())
    }

    /// One band per participant: a band is all of a participant's work, and
    /// per-gene finalization makes any split bitwise-equal to a full run.
    fn plan(
        &self,
        from: u64,
        end: u64,
        roster: usize,
        _span: u64,
    ) -> Result<Vec<VecDeque<(u64, u64)>>, CoreError> {
        Ok((0..roster as u64)
            .map(|i| {
                let (s, t) = split_evenly(end - from, roster as u64, i);
                (t > 0).then_some((from + s, t)).into_iter().collect()
            })
            .collect())
    }

    fn compute(
        &self,
        start: u64,
        take: u64,
        _hooks: ChunkHooks<'_>,
    ) -> Result<(BootstrapResult, f64), CoreError> {
        let w = self.work;
        let mut opts = w.opts.clone();
        opts.threads = w.cfg.threads;
        let cpu0 = thread_cpu_secs();
        let t0 = Instant::now();
        let rows = start as usize..(start + take) as usize;
        let band = boot::boot_run_slice(&w.prepared, w.labels.as_slice(), &opts, rows)?;
        let secs = kernel_secs(cpu0, w.cfg.threads <= 1, || t0.elapsed().as_secs_f64());
        Ok((band, secs))
    }

    fn request(&self, path: &str, start: u64, take: u64) -> Json {
        protocol::boot_exec_request(path, &self.work.opts, self.work.b, start, take)
    }

    fn decode(&self, resp: &Json, start: u64, take: u64) -> Result<(BootstrapResult, f64), String> {
        let band =
            protocol::boot_from_json(resp).map_err(|e| format!("malformed boot response: {e}"))?;
        if band.offset as u64 != start
            || band.genes() as u64 != take
            || band.replicates != self.work.b - 1
        {
            return Err("slice shape mismatch in response".into());
        }
        let secs = resp
            .get("kernel_secs")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        Ok((band, secs))
    }

    fn absorb(
        &self,
        prog: &mut JobProgress,
        _take: u64,
        part: BootstrapResult,
    ) -> Result<(), CoreError> {
        match &mut prog.boot {
            Some(merged) => merged.extend(&part),
            None => {
                prog.boot = Some(part);
                Ok(())
            }
        }
    }

    fn store(
        &self,
        cache: &ResultCache,
        key: &CacheKey,
        prog: &JobProgress,
        complete: bool,
    ) -> std::io::Result<()> {
        match (&prog.boot, complete) {
            (Some(result), true) => cache.store_boot(key, self.work.b, result),
            _ => Ok(()),
        }
    }

    fn finish(&self, prog: &mut JobProgress) {
        prog.boot.get_or_insert_with(|| BootstrapResult {
            replicates: self.work.b - 1,
            level: boot::CI_LEVEL,
            ..BootstrapResult::default()
        });
        prog.cursor = self.work.b;
        prog.computed = self.work.b;
    }
}

/// The cache entry of an exact prefix: the counts of permutations
/// `[0, cursor)` of a `b`-permutation run.
fn prefix_state(key: &CacheKey, b: u64, cursor: u64, counts: &CountAccumulator) -> CheckpointState {
    CheckpointState {
        digest: key.check_digest(),
        cursor,
        b,
        counts: counts.clone(),
    }
}

/// The worker pool's loop: pop a local exact job, run one span of it, and
/// requeue it at the back when it parked with spans left.
pub(super) fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut queue = plock(&inner.queue);
            loop {
                if inner.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = inner
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        isolate(inner, &job, || run(inner, &job));
        if plock(&job.prog).state == JobState::Queued {
            plock(&inner.queue).push_back(job);
            inner.queue_cv.notify_one();
        }
    }
}

/// Run a job that is not on the worker queue on a thread of its own.
pub(super) fn spawn(inner: &Arc<Inner>, job: Arc<Job>) {
    let inner = Arc::clone(inner);
    std::thread::spawn(move || isolate(&inner, &job, || run(&inner, &job)));
}

/// Claim `job` and run it on the executor its workload needs.
fn run(inner: &Inner, job: &Job) {
    let Some(cursor) = claim(inner, job) else {
        return;
    };
    let work = &job.work;
    match (work.opts.workload, work.mode) {
        (Workload::Bootstrap, _) => execute(inner, job, &Bands::new(work), cursor),
        (Workload::Pmaxt, Mode::Adaptive) => drive_adaptive(inner, job, cursor),
        (Workload::Pmaxt, Mode::Exact) => execute(inner, job, &Permutations::new(work), cursor),
    }
}

/// Stops the peer dispatchers when the executor leaves its scope — by
/// unwinding too, so a panicking local slice cannot strand them polling.
struct Stop<'a>(&'a AtomicBool);

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// One execution of a claimed job on its roster.
struct Roster<'a, S: Slicing> {
    inner: &'a Inner,
    job: &'a Job,
    slicing: &'a S,
    /// Slices whose peer died, waiting for a survivor.
    orphans: SpanQueue,
    /// Set when the executor stops taking slices.
    done: AtomicBool,
}

/// Frontier-order merge state of one execution.
struct Merge<P> {
    /// Start of the first unmerged slice.
    frontier: u64,
    end: u64,
    /// Finished slices beyond the frontier, by start.
    pending: BTreeMap<u64, (u64, P)>,
    failure: Option<String>,
    /// ETA baseline: when execution began, and the cursor it began at.
    t0: Instant,
    base: u64,
}

/// Run a claimed `job` from `cursor` on the roster executor, then settle it:
/// Finished when the range is merged, Cancelled on request, Failed on an
/// error, or parked back to Queued — after one span for a job on the worker
/// queue, or at shutdown with the merged frontier checkpointed.
fn execute<S: Slicing>(inner: &Inner, job: &Job, slicing: &S, cursor: u64) {
    let peers: &[String] = if job.shard.is_some() {
        &inner.cfg.peers
    } else {
        &[]
    };
    let (from, end) = slicing.range(cursor);
    let mut plan = match slicing.plan(from, end, 1 + peers.len(), inner.cfg.span) {
        Ok(plan) => plan,
        Err(e) => return fail(inner, job, e.to_string()),
    };
    if job.on_queue() {
        // One span per pop: the worker parks the job behind the others.
        plan[0].truncate(1);
    }
    let planned = from + plan.iter().flatten().map(|&(_, t)| t).sum::<u64>();
    if let Some(stats) = &job.shard {
        stats.peers.store(plan.len() as u64, Ordering::Relaxed);
        let slices = plan.iter().map(|q| q.len() as u64).sum();
        stats.spans_total.store(slices, Ordering::Relaxed);
    }
    let roster = Roster {
        inner,
        job,
        slicing,
        orphans: SpanQueue::new(),
        done: AtomicBool::new(false),
    };
    let mut merge = Merge {
        frontier: from,
        end,
        pending: BTreeMap::new(),
        failure: None,
        t0: Instant::now(),
        base: cursor,
    };
    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel();
        let mut own = std::mem::take(&mut plan[0]);
        for (idx, (addr, share)) in peers.iter().zip(plan.drain(1..)).enumerate() {
            let (roster, tx) = (&roster, tx.clone());
            scope.spawn(move || roster.dispatch(idx, addr, share, tx));
        }
        drop(tx);
        let stop = Stop(&roster.done);
        roster.run_local(&mut merge, &mut own, &rx, planned);
        // Merge what in-flight peer requests still deliver: more progress
        // checkpointed, never a slice twice.
        drop(stop);
        for delivered in rx {
            roster.offer(&mut merge, delivered);
        }
    });
    if let Some(msg) = merge.failure {
        fail(inner, job, msg);
    } else if merge.frontier >= end {
        settle(inner, job, JobState::Finished, |prog| slicing.finish(prog));
    } else if job.cancel.load(Ordering::Relaxed) {
        settle(inner, job, JobState::Cancelled, |_| {});
    } else if merge.frontier >= planned || inner.shutdown.load(Ordering::Relaxed) {
        settle(inner, job, JobState::Queued, |_| {});
    } else {
        fail(
            inner,
            job,
            "run stalled with slices unaccounted".to_string(),
        );
    }
}

impl<S: Slicing> Roster<'_, S> {
    /// The local executor: this daemon's own share, then orphans of dead
    /// peers, merging peer deliveries between slices, until everything
    /// planned is merged or the job fails, is cancelled or the daemon stops.
    fn run_local(
        &self,
        merge: &mut Merge<S::Part>,
        own: &mut VecDeque<(u64, u64)>,
        rx: &mpsc::Receiver<Delivery<S::Part>>,
        planned: u64,
    ) {
        let (inner, job) = (self.inner, self.job);
        let progress = |n: u64| {
            job.live_done.fetch_add(n, Ordering::Relaxed);
        };
        let hooks = ChunkHooks {
            cancel: Some(&job.cancel),
            progress: Some(&progress),
        };
        loop {
            while let Ok(delivered) = rx.try_recv() {
                self.offer(merge, delivered);
            }
            if merge.failure.is_some()
                || merge.frontier >= planned
                || job.cancel.load(Ordering::Relaxed)
                || inner.shutdown.load(Ordering::Relaxed)
            {
                return;
            }
            let Some((start, take)) = own.pop_front().or_else(|| self.orphans.pop()) else {
                match rx.recv_timeout(IDLE_POLL) {
                    Ok(delivered) => self.offer(merge, delivered),
                    Err(RecvTimeoutError::Timeout) => {}
                    // Every peer is gone; whatever they left is orphaned.
                    Err(RecvTimeoutError::Disconnected) => match self.orphans.pop() {
                        Some(slice) => own.push_back(slice),
                        None => return,
                    },
                }
                continue;
            };
            match inject_fault(&inner.cfg.faults)
                .and_then(|()| self.slicing.compute(start, take, hooks))
            {
                Ok((part, secs)) => {
                    if let Some(stats) = &job.shard {
                        stats.record_slice(false, secs);
                    }
                    self.offer(merge, Ok((start, take, part)));
                }
                Err(CoreError::Cancelled) => return,
                Err(e) => merge.failure = Some(e.to_string()),
            }
        }
    }

    /// Take one finished slice (or a job failure) and merge every slice now
    /// at the frontier, checkpointing each advance.
    fn offer(&self, merge: &mut Merge<S::Part>, delivered: Delivery<S::Part>) {
        let (start, take, part) = match delivered {
            Ok(slice) => slice,
            Err(msg) => {
                merge.failure.get_or_insert(msg);
                return;
            }
        };
        // A slice behind the frontier or already pending is a duplicate
        // under at-least-once dispatch (a peer declared dead after it
        // actually finished the slice).
        if merge.failure.is_some() || start < merge.frontier || merge.pending.contains_key(&start) {
            return;
        }
        merge.pending.insert(start, (take, part));
        if !merge.pending.contains_key(&merge.frontier) {
            return;
        }
        let (inner, job) = (self.inner, self.job);
        settle(inner, job, JobState::Running, |prog| {
            while let Some((take, part)) = merge.pending.remove(&merge.frontier) {
                if let Err(e) = self.slicing.absorb(prog, take, part) {
                    merge.failure = Some(e.to_string());
                    return;
                }
                merge.frontier += take;
                let complete = merge.frontier >= merge.end;
                checkpoint(inner, job, |cache| {
                    self.slicing.store(cache, &job.key, prog, complete)
                });
            }
            if prog.cursor > merge.base {
                let secs = merge.t0.elapsed().as_secs_f64();
                prog.secs_per_perm = Some(secs / (prog.cursor - merge.base) as f64);
            }
        });
    }

    /// One peer's dispatcher: send its own share, then orphans of dead
    /// peers, until the executor stops. On a transport loss the peer is
    /// declared dead and its unfinished slices, the in-flight one included,
    /// go to the orphan queue for the survivors; a rejection fails the job,
    /// since the request is wrong everywhere and reassigning cannot help.
    fn dispatch(
        &self,
        idx: usize,
        addr: &str,
        mut own: VecDeque<(u64, u64)>,
        tx: mpsc::Sender<Delivery<S::Part>>,
    ) {
        let (inner, job) = (self.inner, self.job);
        let stats = job
            .shard
            .as_deref()
            .expect("a roster with peers belongs to a sharded job");
        let faults = &inner.cfg.faults;
        let link = PeerLink {
            addr,
            policy: RetryPolicy {
                attempts: 3,
                base: Duration::from_millis(50),
                max: Duration::from_secs(2),
                seed: 0x7065_6572 ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            },
            timeout: Some(PEER_TIMEOUT),
            stats,
            faults,
        };
        let path = job
            .work
            .source
            .as_ref()
            .expect("a sharded job has a source path")
            .display()
            .to_string();
        while let Some((start, take)) = self.next_slice(&mut own) {
            let lost = if faults.fire(FaultKind::PeerDrop) {
                "injected peer_drop".to_string()
            } else {
                let req = protocol::with_dataset_digest(
                    self.slicing.request(&path, start, take),
                    job.key.dataset,
                );
                match link.exec(&req) {
                    Ok(resp) => match self.slicing.decode(&resp, start, take) {
                        Ok((part, secs)) => {
                            stats.record_slice(true, secs);
                            let _ = tx.send(Ok((start, take, part)));
                            continue;
                        }
                        Err(why) => why,
                    },
                    Err(PeerError::Dead(why)) => why,
                    Err(PeerError::Rejected(why)) => {
                        let _ = tx.send(Err(format!(
                            "peer {addr} rejected slice [{start}, {}): {why}",
                            start + take
                        )));
                        return;
                    }
                }
            };
            let n = self
                .orphans
                .reassign(std::iter::once((start, take)).chain(own.drain(..)));
            stats.peers_failed.fetch_add(1, Ordering::Relaxed);
            stats.spans_reassigned.fetch_add(n, Ordering::Relaxed);
            eprintln!("jobd: shard: peer {addr} lost ({lost}); {n} slice(s) reassigned");
            return;
        }
    }

    /// The next slice for a peer: its own share first, then orphans. Polls
    /// the orphan queue until the executor stops, so a late peer death
    /// never strands work.
    fn next_slice(&self, own: &mut VecDeque<(u64, u64)>) -> Option<(u64, u64)> {
        loop {
            if self.done.load(Ordering::Relaxed)
                || self.job.cancel.load(Ordering::Relaxed)
                || self.inner.shutdown.load(Ordering::Relaxed)
            {
                return None;
            }
            if let Some(slice) = own.pop_front().or_else(|| self.orphans.pop()) {
                return Some(slice);
            }
            std::thread::sleep(IDLE_POLL);
        }
    }
}

/// Drive one adaptive job to completion on its own thread.
///
/// The runner alternates full-gene chunks (the bitwise-exact watermark
/// prefix) with masked live-set chunks; on success the watermark is written
/// to the cache as an ordinary exact checkpoint — but only when it improves
/// on the stored cursor, so an adaptive run never clobbers a longer exact
/// prefix some other job already paid for. A later exact submission of the
/// same stream then probes `Partial` at the watermark and extends it through
/// the incremental machinery, reproducing a fresh exact run bit for bit.
fn drive_adaptive(inner: &Inner, job: &Job, cursor: u64) {
    let work = &job.work;
    let resume = {
        let prog = plock(&job.prog);
        (prog.counts.n_perm > 0).then(|| prog.counts.clone())
    };
    let ctx = work.context();
    let mut runner = AdaptiveRunner::new(
        &ctx,
        &work.prepared,
        &work.labels,
        &work.opts,
        work.b,
        work.cfg,
        AdaptiveConfig::default(),
    );
    if let Some(counts) = &resume {
        runner.resume_from(counts);
    }
    let progress = |n: u64| {
        job.live_done.fetch_add(n, Ordering::Relaxed);
    };
    let hooks = ChunkHooks {
        cancel: Some(&job.cancel),
        progress: Some(&progress),
    };
    match inject_fault(&inner.cfg.faults).and_then(|()| runner.run(hooks)) {
        Err(CoreError::Cancelled) => settle(inner, job, JobState::Cancelled, |_| {}),
        Err(e) => fail(inner, job, e.to_string()),
        Ok(out) => {
            let watermark = &out.watermark;
            checkpoint(inner, job, |cache| {
                let improves = match cache.probe(&job.key, work.b) {
                    CacheProbe::Miss => true,
                    CacheProbe::Partial(s) => s.cursor < watermark.n_perm,
                    CacheProbe::Hit(_) | CacheProbe::Beyond => false,
                };
                if !improves || watermark.n_perm == 0 {
                    return Ok(());
                }
                let state = prefix_state(&job.key, work.b, watermark.n_perm, watermark);
                cache.store(&job.key, &state)
            });
            // Stream cursor the runner reached: genes live at the end were
            // scored through it (all-stopped runs halt earlier).
            let reached = out.report.scored.iter().copied().max().unwrap_or(0);
            settle(inner, job, JobState::Finished, |prog| {
                prog.computed = reached.saturating_sub(cursor);
                prog.cursor = work.b;
                prog.counts = out.watermark;
                prog.result = Some(out.result);
                prog.adaptive = Some(out.report);
            });
        }
    }
}
