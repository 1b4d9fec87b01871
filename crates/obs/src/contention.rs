//! Lock-contention accounting: who waited, on which lock, for how long.
//!
//! A parallel pipeline that shows no speedup is usually *waiting*
//! somewhere invisible — a queue mutex, a shared interner, a cache
//! lock. This module makes that waiting measurable without perturbing
//! it: each instrumented lock site declares a `static` [`LockTimer`],
//! and acquisitions go through [`LockTimer::lock`], which
//!
//! * is a plain `Mutex::lock` behind one relaxed atomic load while
//!   profiling is off (the default) — no timestamps, no counters;
//! * while profiling is on, tries `try_lock` first and only reaches
//!   for the clock on *contended* acquisitions, recording the wait
//!   into lock-free atomic accumulators (count, total, max, log₂
//!   buckets) plus a thread-local tally so schedulers can attribute
//!   wait time to the worker that suffered it.
//!
//! Profiling is reference-counted ([`profiling_session`]) so nested or
//! concurrent profilers compose, and the accumulators are process-wide
//! monotone — consumers snapshot at start and end and subtract
//! ([`LockWaitStats::delta_since`]).
//!
//! The deliberate design constraint: recording contention must not
//! *create* contention, so there is no mutex anywhere on the record
//! path — only atomics and TLS. The one mutex (the site registry) is
//! touched once per site per process.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, TryLockError};
use std::time::Instant;

use crate::json::Json;
use crate::metrics::{bucket_index, percentile_from_buckets};

/// Log₂ wait-time buckets: bucket 0 holds 0 ns, bucket `i ≥ 1` holds
/// `[2^(i-1), 2^i)` ns; 40 buckets cover waits up to ~9 minutes.
pub const WAIT_BUCKETS: usize = 40;

static SESSIONS: AtomicUsize = AtomicUsize::new(0);

/// Whether any profiling session is active. One relaxed load.
#[inline]
pub fn profiling() -> bool {
    SESSIONS.load(Ordering::Relaxed) != 0
}

/// RAII handle keeping lock profiling on; sessions nest.
#[must_use = "dropping the session turns lock profiling back off"]
pub struct ProfilingSession(());

/// Turns lock profiling on for the lifetime of the returned handle.
pub fn profiling_session() -> ProfilingSession {
    SESSIONS.fetch_add(1, Ordering::Relaxed);
    ProfilingSession(())
}

impl Drop for ProfilingSession {
    fn drop(&mut self) {
        SESSIONS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Serializes this crate's unit tests that open a profiling session
/// (directly or through `Profiler::new`) with the test asserting that
/// nothing registers without one: the session count is process-wide,
/// so a sibling's open session would let that test's timer register.
#[cfg(test)]
pub(crate) fn session_test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    unpoisoned(LOCK.lock())
}

thread_local! {
    static THREAD_WAIT_NS: Cell<u64> = const { Cell::new(0) };
}

/// Drains this thread's accumulated lock-wait nanoseconds since the
/// last call. Schedulers call this at bucket boundaries to attribute
/// waits to the code region that suffered them.
pub fn take_thread_wait_ns() -> u64 {
    THREAD_WAIT_NS.with(|c| c.replace(0))
}

/// A named, statically-allocated lock instrumentation site.
///
/// ```
/// use std::sync::Mutex;
/// use rowpoly_obs::contention::LockTimer;
///
/// static QUEUE_LOCK: LockTimer = LockTimer::new("pool.queue");
/// let m = Mutex::new(0u32);
/// *QUEUE_LOCK.lock(&m) += 1;
/// ```
pub struct LockTimer {
    name: &'static str,
    registered: AtomicBool,
    acquisitions: AtomicU64,
    contended: AtomicU64,
    wait_ns: AtomicU64,
    max_wait_ns: AtomicU64,
    buckets: [AtomicU64; WAIT_BUCKETS],
}

impl LockTimer {
    /// A timer for the lock site `name` (reported as `lock.wait.<name>`).
    pub const fn new(name: &'static str) -> LockTimer {
        LockTimer {
            name,
            registered: AtomicBool::new(false),
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            wait_ns: AtomicU64::new(0),
            max_wait_ns: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; WAIT_BUCKETS],
        }
    }

    /// The site name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Locks `m`, timing the wait when profiling is on. Poisoned
    /// mutexes are recovered (`into_inner`): instrumented locks guard
    /// collector-style data that stays structurally sound across a
    /// panicking holder.
    pub fn lock<'a, T>(&'static self, m: &'a Mutex<T>) -> MutexGuard<'a, T> {
        if !profiling() {
            return unpoisoned(m.lock());
        }
        self.register();
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        match m.try_lock() {
            Ok(guard) => return guard,
            Err(TryLockError::Poisoned(p)) => return p.into_inner(),
            Err(TryLockError::WouldBlock) => {}
        }
        let start = Instant::now();
        let guard = unpoisoned(m.lock());
        let ns = start.elapsed().as_nanos() as u64;
        self.contended.fetch_add(1, Ordering::Relaxed);
        self.wait_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_wait_ns.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_index(ns).min(WAIT_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        THREAD_WAIT_NS.with(|c| c.set(c.get() + ns));
        guard
    }

    fn register(&'static self) {
        if self.registered.swap(true, Ordering::Relaxed) {
            return;
        }
        registry().lock().unwrap().push(self);
    }

    fn stats(&self) -> LockWaitStats {
        LockWaitStats {
            name: self.name,
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            wait_ns: self.wait_ns.load(Ordering::Relaxed),
            max_wait_ns: self.max_wait_ns.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

fn registry() -> &'static Mutex<Vec<&'static LockTimer>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static LockTimer>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn unpoisoned<'a, T>(
    r: Result<MutexGuard<'a, T>, std::sync::PoisonError<MutexGuard<'a, T>>>,
) -> MutexGuard<'a, T> {
    match r {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// A point-in-time copy of one lock site's accumulators. Monotone
/// except `max_wait_ns`; subtract two snapshots with
/// [`LockWaitStats::delta_since`] for a per-run view.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LockWaitStats {
    /// Site name (reported as `lock.wait.<name>`).
    pub name: &'static str,
    /// Total acquisitions while profiling was on.
    pub acquisitions: u64,
    /// Acquisitions that had to wait.
    pub contended: u64,
    /// Total nanoseconds spent waiting.
    pub wait_ns: u64,
    /// Longest single wait (process-lifetime maximum, not delta-able).
    pub max_wait_ns: u64,
    /// Raw log₂ wait buckets (`WAIT_BUCKETS` entries).
    pub buckets: Vec<u64>,
}

impl LockWaitStats {
    /// This snapshot minus an earlier `baseline` of the same site.
    /// `max_wait_ns` keeps the later (process-lifetime) maximum.
    pub fn delta_since(&self, baseline: &LockWaitStats) -> LockWaitStats {
        LockWaitStats {
            name: self.name,
            acquisitions: self.acquisitions.saturating_sub(baseline.acquisitions),
            contended: self.contended.saturating_sub(baseline.contended),
            wait_ns: self.wait_ns.saturating_sub(baseline.wait_ns),
            max_wait_ns: self.max_wait_ns,
            buckets: self
                .buckets
                .iter()
                .zip(baseline.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(now, then)| now.saturating_sub(*then))
                .collect(),
        }
    }

    /// Estimated `p`-th percentile of the contended waits, using the
    /// shared [`percentile_from_buckets`] estimator so lock-wait
    /// percentiles agree with every other histogram surface. The site
    /// tracks no exact minimum, so the lowest non-empty bucket's
    /// lower bound stands in; the maximum is `max_wait_ns` clamped to
    /// the highest non-empty bucket (exact whenever the longest wait
    /// happened inside this window, which for per-run deltas it did).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let count: u64 = self.buckets.iter().sum();
        let min = self.buckets.iter().position(|&n| n > 0).map(|i| {
            if i == 0 {
                0
            } else {
                1u64 << (i - 1)
            }
        })?;
        let hi = self.buckets.iter().rposition(|&n| n > 0).map(|i| {
            if i == 0 {
                0
            } else {
                (1u64 << i) - 1
            }
        })?;
        let max = self.max_wait_ns.clamp(min, hi);
        percentile_from_buckets(&self.buckets, count, min, max, p)
    }

    /// Non-empty wait buckets as `(lower_bound_ns, count)` pairs.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, n))
            .collect()
    }

    /// Renders the per-site stats (the `lock.wait.<name>` object).
    /// The percentile fields use [`LockWaitStats::percentile`] — the
    /// same estimator the text report prints, verified by a parity
    /// test in `crates/batch/src/profile.rs`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("acquisitions", Json::Int(self.acquisitions as i64)),
            ("contended", Json::Int(self.contended as i64)),
            ("wait_ns", Json::Int(self.wait_ns as i64)),
            ("max_wait_ns", Json::Int(self.max_wait_ns as i64)),
            (
                "p50_ns",
                self.percentile(50.0)
                    .map_or(Json::Null, |v| Json::Int(v as i64)),
            ),
            (
                "p90_ns",
                self.percentile(90.0)
                    .map_or(Json::Null, |v| Json::Int(v as i64)),
            ),
            (
                "p99_ns",
                self.percentile(99.0)
                    .map_or(Json::Null, |v| Json::Int(v as i64)),
            ),
            (
                "wait_hist",
                Json::Arr(
                    self.nonzero_buckets()
                        .into_iter()
                        .map(|(lo, n)| Json::Arr(vec![Json::Int(lo as i64), Json::Int(n as i64)]))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Snapshots every registered lock site, sorted by name.
pub fn snapshot() -> Vec<LockWaitStats> {
    let mut out: Vec<LockWaitStats> = registry()
        .lock()
        .unwrap()
        .iter()
        .map(|site| site.stats())
        .collect();
    out.sort_by_key(|s| s.name);
    out
}

/// `now` minus `baseline`, matched by site name; sites that appeared
/// after the baseline are kept whole. Sites with zero acquisitions in
/// the delta are dropped.
pub fn delta(now: &[LockWaitStats], baseline: &[LockWaitStats]) -> Vec<LockWaitStats> {
    now.iter()
        .map(|s| match baseline.iter().find(|b| b.name == s.name) {
            Some(b) => s.delta_since(b),
            None => s.clone(),
        })
        .filter(|s| s.acquisitions > 0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    static TEST_LOCK: LockTimer = LockTimer::new("test.contended");
    static IDLE_LOCK: LockTimer = LockTimer::new("test.idle");

    #[test]
    fn disabled_profiling_records_nothing() {
        let _serial = session_test_lock();
        // No session: the timer must not even register.
        let m = Mutex::new(0);
        let _g = IDLE_LOCK.lock(&m);
        assert!(!snapshot().iter().any(|s| s.name == "test.idle"));
    }

    #[test]
    fn contended_waits_are_counted_and_attributed() {
        let _serial = session_test_lock();
        let _session = profiling_session();
        let m = Arc::new(Mutex::new(0u32));
        let before = snapshot();
        let holder = {
            let m = m.clone();
            std::thread::spawn(move || {
                let guard = TEST_LOCK.lock(&m);
                std::thread::sleep(std::time::Duration::from_millis(20));
                drop(guard);
            })
        };
        // Give the holder time to take the lock, then contend.
        std::thread::sleep(std::time::Duration::from_millis(5));
        take_thread_wait_ns(); // clear any residue
        let g = TEST_LOCK.lock(&m);
        drop(g);
        holder.join().unwrap();

        let after = snapshot();
        let d = delta(&after, &before);
        let site = d
            .iter()
            .find(|s| s.name == "test.contended")
            .expect("site registered");
        assert!(site.acquisitions >= 2);
        assert!(site.contended >= 1, "the second lock must have waited");
        assert!(site.wait_ns > 0);
        assert!(site.max_wait_ns >= site.wait_ns / site.acquisitions.max(1));
        assert!(!site.nonzero_buckets().is_empty());
        // The waiting thread (us) saw its wait in TLS.
        assert!(take_thread_wait_ns() > 0);
    }

    #[test]
    fn delta_subtracts_counters() {
        let a = LockWaitStats {
            name: "x",
            acquisitions: 10,
            contended: 4,
            wait_ns: 1000,
            max_wait_ns: 900,
            buckets: vec![0, 2, 2],
        };
        let b = LockWaitStats {
            name: "x",
            acquisitions: 4,
            contended: 1,
            wait_ns: 100,
            max_wait_ns: 90,
            buckets: vec![0, 1, 0],
        };
        let d = a.delta_since(&b);
        assert_eq!(d.acquisitions, 6);
        assert_eq!(d.contended, 3);
        assert_eq!(d.wait_ns, 900);
        assert_eq!(d.max_wait_ns, 900);
        assert_eq!(d.nonzero_buckets(), vec![(1, 1), (2, 2)]);
    }
}
