//! Counters an `InferenceSession` exposes, read before and after the
//! measured work so the per-layer metrics are deltas of that work alone.

use crate::report::Values;
use relserve_core::InferenceSession;
use relserve_runtime::{AdmissionStats, PoolCounters, Priority};
use relserve_storage::PoolStats;

/// A snapshot of a session's counters, or a sum of deltas between them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pool: PoolStats,
    /// Pages the disk manager has allocated.
    pub pages: u64,
    reads: u64,
    writes: u64,
    kernel: PoolCounters,
    admission: AdmissionStats,
    degradations: u64,
    kernel_panics: u64,
    oom_events: u64,
}

impl Counters {
    /// Reads every counter of `s` now.
    pub fn take(s: &InferenceSession) -> Self {
        let disk = s.pool().disk();
        let stats = s.stats();
        Counters {
            pool: s.pool().stats(),
            pages: disk.num_pages(),
            reads: disk.read_count(),
            writes: disk.write_count(),
            kernel: s.kernel_pool().counters(),
            admission: s.coordinator().admission_stats(),
            degradations: stats.degradations,
            kernel_panics: stats.kernel_panics,
            oom_events: stats.db_oom_events,
        }
    }

    /// Adds `after - before` to `self`.
    pub fn accumulate(&mut self, before: &Counters, after: &Counters) {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let du = |a: usize, b: usize| a.saturating_sub(b);
        self.pool.hits += d(after.pool.hits, before.pool.hits);
        self.pool.misses += d(after.pool.misses, before.pool.misses);
        self.pool.evictions += d(after.pool.evictions, before.pool.evictions);
        self.pool.writebacks += d(after.pool.writebacks, before.pool.writebacks);
        self.pages += d(after.pages, before.pages);
        self.reads += d(after.reads, before.reads);
        self.writes += d(after.writes, before.writes);
        self.kernel.tasks_run += du(after.kernel.tasks_run, before.kernel.tasks_run);
        self.kernel.steals += du(after.kernel.steals, before.kernel.steals);
        self.kernel.parks += du(after.kernel.parks, before.kernel.parks);
        for c in 0..3 {
            let (a, b) = (after.admission.per_class[c], before.admission.per_class[c]);
            let t = &mut self.admission.per_class[c];
            t.admitted += d(a.admitted, b.admitted);
            t.shed += d(a.shed, b.shed);
            t.deadline_expired += d(a.deadline_expired, b.deadline_expired);
        }
        self.degradations += d(after.degradations, before.degradations);
        self.kernel_panics += d(after.kernel_panics, before.kernel_panics);
        self.oom_events += d(after.oom_events, before.oom_events);
    }

    /// The delta from `before` to `after`.
    pub fn delta(before: &Counters, after: &Counters) -> Counters {
        let mut d = Counters::default();
        d.accumulate(before, after);
        d
    }

    /// Records these deltas as the storage, kernel-pool, admission and
    /// failure metrics of `ops` requests or queries.
    pub fn record(&self, v: &mut Values, ops: u64) {
        self.record_storage(v, ops);
        self.record_runtime(v);
    }

    /// Records the storage metrics of `ops` requests or queries.
    pub fn record_storage(&self, v: &mut Values, ops: u64) {
        v.set("storage.pool.hits", self.pool.hits as f64);
        v.set("storage.pool.misses", self.pool.misses as f64);
        v.set("storage.pool.evictions", self.pool.evictions as f64);
        v.set("storage.pool.writebacks", self.pool.writebacks as f64);
        v.set("storage.disk.pages_allocated", self.pages as f64);
        v.set(
            "storage.disk.pages_per_query",
            self.pages as f64 / ops.max(1) as f64,
        );
        v.set("storage.disk.reads", self.reads as f64);
        v.set("storage.disk.writes", self.writes as f64);
        v.set("storage.db_growth_mib", crate::pages_mib(self.pages));
    }

    /// Records the kernel-pool, admission and failure metrics.
    pub fn record_runtime(&self, v: &mut Values) {
        v.set(
            "runtime.kernel_pool.tasks_run",
            self.kernel.tasks_run as f64,
        );
        v.set("runtime.kernel_pool.steals", self.kernel.steals as f64);
        v.set("runtime.kernel_pool.parks", self.kernel.parks as f64);
        v.set("runtime.governor.oom_events", self.oom_events as f64);
        v.set("core.degradations", self.degradations as f64);
        v.set("core.kernel_panics", self.kernel_panics as f64);
        let classes = [
            (
                Priority::Interactive,
                [
                    "runtime.admission.interactive.admitted",
                    "runtime.admission.interactive.shed",
                    "runtime.admission.interactive.deadline_expired",
                ],
            ),
            (
                Priority::Standard,
                [
                    "runtime.admission.standard.admitted",
                    "runtime.admission.standard.shed",
                    "runtime.admission.standard.deadline_expired",
                ],
            ),
            (
                Priority::Batch,
                [
                    "runtime.admission.batch.admitted",
                    "runtime.admission.batch.shed",
                    "runtime.admission.batch.deadline_expired",
                ],
            ),
        ];
        for (class, [admitted, shed, expired]) in classes {
            let c = self.admission.class(class);
            v.set(admitted, c.admitted as f64);
            v.set(shed, c.shed as f64);
            v.set(expired, c.deadline_expired as f64);
        }
    }
}
