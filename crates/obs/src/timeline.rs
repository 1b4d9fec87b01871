//! Per-worker timeline capture for parallel runs.
//!
//! The global [`crate::Collector`] funnels every span through one
//! mutex, which is fine for tracing a serial session and exactly wrong
//! for profiling a thread pool — the act of recording would serialize
//! the workers being measured. This module inverts the design:
//!
//! * a [`Profiler`] anchors one profiled run (shared epoch, lock-wait
//!   baseline, a place for finished timelines);
//! * each worker owns a private [`WorkerTimeline`] — an unsynchronised
//!   event buffer plus busy/idle/steal-search/lock-wait accumulators —
//!   and records into it with no locking whatsoever;
//! * at join, workers [`Profiler::submit`] their timelines; the
//!   orchestrator calls [`Profiler::finish`] to get a
//!   [`TimelineSnapshot`] with every track, the per-run lock-wait
//!   deltas (see [`crate::contention`]), and the run's wall time.
//!
//! Events carry nanosecond offsets from the profiler's epoch, so
//! tracks from different workers line up on one clock. The exporter
//! ([`crate::chrome::chrome_trace_timelines`]) gives each worker a
//! stable Chrome-trace `tid` (worker `w` → tid `w + 1`) with a named
//! thread track.
//!
//! Time attribution is *exclusive* by construction: the scheduler
//! brackets each loop region with [`WorkerTimeline::mark`] and one of
//! the `charge_*` methods, which subtract the lock-wait nanoseconds
//! accrued inside the region (drained from the contention TLS tally)
//! so `busy + idle + steal_search + lock_wait + other = wall` holds
//! per worker.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::contention::{self, LockWaitStats, ProfilingSession};
use crate::mem::MemDelta;

/// What one timeline event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimelineEventKind {
    /// Opens a span on this worker's track.
    Begin,
    /// Closes the innermost open span.
    End,
    /// A point-in-time marker (steal, cache hit, wave boundary).
    Instant,
}

/// One event on a worker's track. `t_ns` is nanoseconds since the
/// profiler's epoch; events are non-decreasing in buffer order.
#[derive(Clone, Debug)]
pub struct TimelineEvent {
    /// Span or marker name (`End` events carry the name they close).
    pub name: String,
    /// Nanoseconds since the profiler epoch.
    pub t_ns: u64,
    /// Event kind.
    pub kind: TimelineEventKind,
}

/// One scheduled job as measured on the worker that ran it.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Scheduler job id (index into the run's dependency graph).
    pub job: usize,
    /// Display label (e.g. `file.rp:def+def`).
    pub label: String,
    /// Start offset from the profiler epoch.
    pub start_ns: u64,
    /// End offset from the profiler epoch.
    pub end_ns: u64,
    /// Whether the job was replayed from a cache rather than computed.
    pub cached: bool,
    /// Named phase durations measured inside the job (nanoseconds).
    pub phases: Vec<(&'static str, u64)>,
}

impl JobRecord {
    /// Job duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A worker's private recording surface. All methods are no-ops on a
/// [`WorkerTimeline::disabled`] instance, so schedulers can thread one
/// through unconditionally.
#[derive(Clone, Debug)]
pub struct WorkerTimeline {
    enabled: bool,
    worker: u32,
    epoch: Instant,
    /// Recorded events, non-decreasing in `t_ns`.
    pub events: Vec<TimelineEvent>,
    /// Names of currently-open spans (innermost last).
    open: Vec<String>,
    /// Jobs completed on this worker.
    pub jobs: Vec<JobRecord>,
    /// Nanoseconds spent executing jobs (lock waits subtracted).
    pub busy_ns: u64,
    /// Nanoseconds asleep waiting for work.
    pub idle_ns: u64,
    /// Nanoseconds scanning own and peer queues (lock waits subtracted).
    pub search_ns: u64,
    /// Nanoseconds blocked on instrumented locks.
    pub lock_wait_ns: u64,
    /// Jobs taken from another worker's queue.
    pub steals: u64,
    /// This worker thread's allocator delta over the run, captured by
    /// the scheduler just before [`Profiler::submit`] (all zeros when
    /// memory accounting is off).
    pub mem: MemDelta,
}

impl WorkerTimeline {
    /// An inert timeline: every call is a cheap no-op.
    pub fn disabled() -> WorkerTimeline {
        WorkerTimeline::new(0, Instant::now(), false)
    }

    fn new(worker: u32, epoch: Instant, enabled: bool) -> WorkerTimeline {
        WorkerTimeline {
            enabled,
            worker,
            epoch,
            events: Vec::new(),
            open: Vec::new(),
            jobs: Vec::new(),
            busy_ns: 0,
            idle_ns: 0,
            search_ns: 0,
            lock_wait_ns: 0,
            steals: 0,
            mem: MemDelta::default(),
        }
    }

    /// Whether this timeline records anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// This worker's id (stable across the run).
    pub fn worker(&self) -> u32 {
        self.worker
    }

    /// Nanoseconds since the profiler epoch (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named by `f` (only rendered when enabled).
    pub fn begin_with(&mut self, f: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        let name = f();
        let t_ns = self.now_ns();
        self.open.push(name.clone());
        self.events.push(TimelineEvent {
            name,
            t_ns,
            kind: TimelineEventKind::Begin,
        });
    }

    /// Closes the innermost open span. Stray calls are ignored.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let Some(name) = self.open.pop() else {
            return;
        };
        let t_ns = self.now_ns();
        self.events.push(TimelineEvent {
            name,
            t_ns,
            kind: TimelineEventKind::End,
        });
    }

    /// Records an instant marker.
    pub fn instant(&mut self, name: &str) {
        self.instant_with(|| name.to_string());
    }

    /// Records an instant marker named by `f` (only rendered when
    /// enabled).
    pub fn instant_with(&mut self, f: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        let t_ns = self.now_ns();
        self.events.push(TimelineEvent {
            name: f(),
            t_ns,
            kind: TimelineEventKind::Instant,
        });
    }

    /// Records a completed job.
    pub fn push_job(&mut self, record: JobRecord) {
        if !self.enabled {
            return;
        }
        self.jobs.push(record);
    }

    /// Notes a successful steal (instant marker + counter).
    pub fn note_steal(&mut self) {
        if !self.enabled {
            return;
        }
        self.steals += 1;
        self.instant("steal");
    }

    /// Starts timing a region; pass the result to one `charge_*`
    /// method. `None` when disabled, so the charge is free too.
    #[inline]
    pub fn mark(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    fn charge(&mut self, mark: Option<Instant>) -> (u64, u64) {
        let Some(t0) = mark else { return (0, 0) };
        let total = t0.elapsed().as_nanos() as u64;
        let wait = contention::take_thread_wait_ns();
        self.lock_wait_ns += wait.min(total);
        (total.saturating_sub(wait), wait)
    }

    /// Charges the region since `mark` to busy time (lock waits inside
    /// it go to `lock_wait_ns` instead).
    pub fn charge_busy(&mut self, mark: Option<Instant>) {
        let (ns, _) = self.charge(mark);
        self.busy_ns += ns;
    }

    /// Charges the region since `mark` to idle (sleeping) time.
    pub fn charge_idle(&mut self, mark: Option<Instant>) {
        let (ns, _) = self.charge(mark);
        self.idle_ns += ns;
    }

    /// Charges the region since `mark` to steal-search time.
    pub fn charge_search(&mut self, mark: Option<Instant>) {
        let (ns, _) = self.charge(mark);
        self.search_ns += ns;
    }
}

/// Utilization summary for one worker, derived from its accumulators
/// against the run's wall clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerUtil {
    /// Worker id.
    pub worker: u32,
    /// Jobs the worker completed.
    pub jobs: usize,
    /// Jobs it stole from peers.
    pub steals: u64,
    /// Nanoseconds executing jobs.
    pub busy_ns: u64,
    /// Nanoseconds asleep.
    pub idle_ns: u64,
    /// Nanoseconds scanning queues.
    pub search_ns: u64,
    /// Nanoseconds blocked on instrumented locks.
    pub lock_wait_ns: u64,
    /// Run wall nanoseconds (shared denominator).
    pub wall_ns: u64,
}

impl WorkerUtil {
    fn pct(&self, ns: u64) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / self.wall_ns as f64
        }
    }

    /// Percent of wall spent executing jobs.
    pub fn busy_pct(&self) -> f64 {
        self.pct(self.busy_ns)
    }

    /// Percent of wall spent asleep.
    pub fn idle_pct(&self) -> f64 {
        self.pct(self.idle_ns)
    }

    /// Percent of wall spent scanning for work.
    pub fn search_pct(&self) -> f64 {
        self.pct(self.search_ns)
    }

    /// Percent of wall spent blocked on instrumented locks.
    pub fn lock_wait_pct(&self) -> f64 {
        self.pct(self.lock_wait_ns)
    }

    /// Percent of wall not covered by the measured buckets (startup,
    /// result publishing, bookkeeping).
    pub fn other_pct(&self) -> f64 {
        (100.0 - self.busy_pct() - self.idle_pct() - self.search_pct() - self.lock_wait_pct())
            .max(0.0)
    }
}

/// A per-wave memory watermark sample, taken by the first worker to
/// start a job of each wave (no barrier — see
/// [`Profiler::first_of_wave`]). Values are the process-wide counting
/// allocator's `live`/`peak` at that instant, so the sequence shows
/// how the working set moves as the schedule advances wave by wave.
#[derive(Clone, Copy, Debug)]
pub struct WaveMem {
    /// Wave index in the scheduled dependency graph.
    pub wave: usize,
    /// Nanoseconds since the profiler epoch.
    pub t_ns: u64,
    /// Live (allocated − freed) bytes at the sample.
    pub live_bytes: i64,
    /// Peak live bytes so far (monotone across samples).
    pub peak_bytes: i64,
}

/// Everything a profiled run captured: one track per worker, the
/// per-run lock-wait deltas, and the wall time.
#[derive(Clone, Debug)]
pub struct TimelineSnapshot {
    /// Wall nanoseconds between [`Profiler::new`] and
    /// [`Profiler::finish`].
    pub wall_ns: u64,
    /// Per-worker timelines, sorted by worker id.
    pub workers: Vec<WorkerTimeline>,
    /// Lock-wait statistics accrued during the run (`lock.wait.*`).
    pub locks: Vec<LockWaitStats>,
    /// Per-wave memory watermarks, sorted by wave (empty when memory
    /// accounting was off for the run).
    pub wave_mem: Vec<WaveMem>,
}

impl TimelineSnapshot {
    /// Per-worker utilization against the run's wall clock.
    pub fn utilization(&self) -> Vec<WorkerUtil> {
        self.workers
            .iter()
            .map(|w| WorkerUtil {
                worker: w.worker,
                jobs: w.jobs.len(),
                steals: w.steals,
                busy_ns: w.busy_ns,
                idle_ns: w.idle_ns,
                search_ns: w.search_ns,
                lock_wait_ns: w.lock_wait_ns,
                wall_ns: self.wall_ns,
            })
            .collect()
    }

    /// All job records across workers, sorted by scheduler job id.
    pub fn jobs(&self) -> Vec<&JobRecord> {
        let mut jobs: Vec<&JobRecord> = self.workers.iter().flat_map(|w| w.jobs.iter()).collect();
        jobs.sort_by_key(|j| j.job);
        jobs
    }

    /// The workers' allocator deltas merged (how the run's totals are
    /// reconstructed from per-thread slots at join).
    pub fn mem_merged(&self) -> MemDelta {
        let mut total = MemDelta::default();
        for w in &self.workers {
            total.merge(&w.mem);
        }
        total
    }
}

/// Anchors one profiled run. Creating a profiler turns lock profiling
/// on (reference-counted); dropping it turns it back off.
pub struct Profiler {
    epoch: Instant,
    timelines: Mutex<Vec<WorkerTimeline>>,
    lock_baseline: Vec<LockWaitStats>,
    /// Highest wave index any worker has started (see
    /// [`Profiler::first_of_wave`]).
    wave_seen: AtomicU64,
    /// Per-wave memory samples (see [`Profiler::note_wave_mem`]).
    wave_mem: Mutex<Vec<WaveMem>>,
    _session: ProfilingSession,
}

impl Profiler {
    /// Starts a profiled run: fixes the epoch, snapshots the lock
    /// accumulators, and enables lock profiling.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Profiler {
        let session = contention::profiling_session();
        Profiler {
            epoch: Instant::now(),
            timelines: Mutex::new(Vec::new()),
            lock_baseline: contention::snapshot(),
            wave_seen: AtomicU64::new(0),
            wave_mem: Mutex::new(Vec::new()),
            _session: session,
        }
    }

    /// A live timeline for worker `worker`, sharing this run's epoch.
    pub fn worker(&self, worker: u32) -> WorkerTimeline {
        WorkerTimeline::new(worker, self.epoch, true)
    }

    /// Hands a finished worker timeline back to the profiler.
    pub fn submit(&self, timeline: WorkerTimeline) {
        self.timelines.lock().unwrap().push(timeline);
    }

    /// True exactly once per wave index: the calling worker is the
    /// first to start a job of wave `wave` (or any later wave). Used
    /// to place wave-boundary instant markers without a barrier.
    pub fn first_of_wave(&self, wave: usize) -> bool {
        let w = wave as u64 + 1;
        self.wave_seen.fetch_max(w, Ordering::Relaxed) < w
    }

    /// Records a per-wave memory watermark sample. Schedulers call
    /// this (with the allocator's current `live`/`peak`) from the
    /// worker that won [`Profiler::first_of_wave`], so each wave gets
    /// exactly one sample.
    pub fn note_wave_mem(&self, sample: WaveMem) {
        self.wave_mem.lock().unwrap().push(sample);
    }

    /// Ends the run: collects the submitted timelines (sorted by
    /// worker) and the per-run lock-wait deltas. The profiler can be
    /// dropped afterwards; lock profiling stays on until it is.
    pub fn finish(&self) -> TimelineSnapshot {
        let mut workers: Vec<WorkerTimeline> = std::mem::take(&mut *self.timelines.lock().unwrap());
        workers.sort_by_key(|t| t.worker);
        let mut wave_mem = std::mem::take(&mut *self.wave_mem.lock().unwrap());
        wave_mem.sort_by_key(|s| s.wave);
        TimelineSnapshot {
            wall_ns: self.epoch.elapsed().as_nanos() as u64,
            workers,
            locks: contention::delta(&contention::snapshot(), &self.lock_baseline),
            wave_mem,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_timeline_is_inert() {
        let mut tl = WorkerTimeline::disabled();
        tl.begin_with(|| panic!("name must not be rendered when disabled"));
        tl.end();
        tl.instant("x");
        tl.note_steal();
        let mark = tl.mark();
        assert!(mark.is_none());
        tl.charge_busy(mark);
        assert!(tl.events.is_empty());
        assert_eq!(tl.busy_ns, 0);
        assert_eq!(tl.steals, 0);
        assert_eq!(tl.now_ns(), 0);
    }

    #[test]
    fn spans_balance_and_time_accumulates() {
        let _serial = crate::contention::session_test_lock();
        let profiler = Profiler::new();
        let mut tl = profiler.worker(3);
        tl.begin_with(|| "job a".to_string());
        tl.instant("cache-hit");
        tl.end();
        let mark = tl.mark();
        std::thread::sleep(std::time::Duration::from_millis(2));
        tl.charge_busy(mark);
        assert!(tl.busy_ns >= 1_000_000, "busy time recorded");
        assert_eq!(tl.events.len(), 3);
        assert_eq!(tl.events[2].name, "job a", "End carries the span name");
        assert!(tl.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
        profiler.submit(tl);
        let snap = profiler.finish();
        assert_eq!(snap.workers.len(), 1);
        assert_eq!(snap.workers[0].worker(), 3);
        assert!(snap.wall_ns >= snap.workers[0].busy_ns);
    }

    #[test]
    fn utilization_buckets_fit_in_wall() {
        let _serial = crate::contention::session_test_lock();
        let profiler = Profiler::new();
        let mut tl = profiler.worker(0);
        let m = tl.mark();
        std::thread::sleep(std::time::Duration::from_millis(1));
        tl.charge_idle(m);
        let m = tl.mark();
        tl.charge_search(m);
        profiler.submit(tl);
        let snap = profiler.finish();
        let util = snap.utilization();
        assert_eq!(util.len(), 1);
        let u = &util[0];
        let sum = u.busy_pct() + u.idle_pct() + u.search_pct() + u.lock_wait_pct();
        assert!(sum <= 100.5, "buckets exceed wall: {sum}");
        assert!(u.idle_pct() > 0.0);
        assert!(u.other_pct() >= 0.0);
    }

    #[test]
    fn wave_markers_fire_once_per_wave() {
        let _serial = crate::contention::session_test_lock();
        let profiler = Profiler::new();
        assert!(profiler.first_of_wave(0));
        assert!(!profiler.first_of_wave(0));
        assert!(profiler.first_of_wave(2), "skipping ahead still fires");
        assert!(!profiler.first_of_wave(1), "earlier waves never re-fire");
    }

    #[test]
    fn job_records_sort_by_scheduler_id() {
        let _serial = crate::contention::session_test_lock();
        let profiler = Profiler::new();
        let mut a = profiler.worker(1);
        a.push_job(JobRecord {
            job: 2,
            label: "b".into(),
            start_ns: 10,
            end_ns: 30,
            cached: false,
            phases: vec![("unify", 5)],
        });
        let mut b = profiler.worker(0);
        b.push_job(JobRecord {
            job: 0,
            label: "a".into(),
            start_ns: 0,
            end_ns: 7,
            cached: true,
            phases: Vec::new(),
        });
        profiler.submit(a);
        profiler.submit(b);
        let snap = profiler.finish();
        let jobs = snap.jobs();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].job, 0);
        assert_eq!(jobs[1].dur_ns(), 20);
    }
}
