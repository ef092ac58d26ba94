//! A hermetic work-stealing cell runner: shard independent deterministic
//! simulation cells across real OS threads.
//!
//! Every `(seed, schedule, variant)` cell in the bench figures and the
//! lincheck explorer is an independent virtual-time run. Its observability
//! channels are scoped per cell ([`crate::ctx`]), and workers inherit the
//! scopes. Two cells still share the process-wide orec table, version
//! clock and epoch, so concurrent cells' transactions can false-conflict
//! through the orec table. This module supplies the execution side:
//! submit a batch of closures, get their results back **in submission
//! order**, computed by however many workers the host offers.
//!
//! Scheduling is the degenerate single-queue form of work stealing: all
//! jobs sit in one shared array and idle workers "steal" the next index
//! with a `fetch_add`. With one queue there is nobody to steal *from* —
//! every steal hits — which preserves exactly the property stealing is
//! for (no worker idles while work remains, long cells don't convoy short
//! ones behind a static partition) with none of the deque machinery.
//! Std-only by construction: the hermetic build gate forbids new deps.
//!
//! Determinism: workers inherit the submitting thread's context slots and
//! each job's index is stable, so a deterministic cell computes the same
//! result whether it runs on the submitter (`PTO_PAR=1`), 4 workers, or
//! 64 — byte-identical, asserted by the tests here and in `pto-bench`'s
//! `cells` module.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads: `PTO_PAR` if set (clamped to ≥ 1), else the
/// host's available parallelism, else 1. `PTO_PAR=1` is the sequential
/// reference mode — jobs run in submission order on the calling thread.
pub fn worker_count() -> usize {
    if let Ok(v) = std::env::var("PTO_PAR") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

type Job<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Run `jobs` to completion and return their results in submission order.
///
/// Worker threads adopt the caller's scoped context ([`crate::ctx`]), so
/// per-cell scopes installed *inside* a job are isolated per worker while
/// anything the caller had scoped (rare) is visible to all cells, exactly
/// as in a sequential run.
pub fn run_cells<'a, T: Send + 'a>(jobs: Vec<Job<'a, T>>) -> Vec<T> {
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = worker_count().min(n);
    let slots: Vec<Mutex<Option<Job<'a, T>>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let work = |adopted: bool, inherited: &crate::ctx::Inherited| {
        if adopted {
            crate::ctx::adopt(inherited);
        }
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let job = slots[i]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .take()
                .expect("cell runner claimed a job twice");
            let out = job();
            *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
        }
    };
    let inherited = crate::ctx::capture();
    if workers == 1 {
        // Sequential reference mode: same claiming loop, same thread.
        work(false, &inherited);
    } else {
        std::thread::scope(|s| {
            for _ in 0..workers {
                let work = &work;
                let inherited = &inherited;
                s.spawn(move || work(true, inherited));
            }
        });
    }
    results
        .into_iter()
        .map(|r| {
            r.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("cell runner lost a result")
        })
        .collect()
}

/// Convenience: map `items` through `f` cell-wise.
pub fn map_cells<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Send + Sync,
{
    let f = &f;
    let jobs: Vec<Job<'_, T>> = items
        .into_iter()
        .map(|item| -> Job<'_, T> { Box::new(move || f(item)) })
        .collect();
    run_cells(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs: Vec<Job<'static, usize>> = (0..64)
            .map(|i| -> Job<'static, usize> { Box::new(move || i * i) })
            .collect();
        let out = run_cells(jobs);
        assert_eq!(out, (0..64).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u64> = run_cells(Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let count = AtomicU64::new(0);
        let out = map_cells((0..200).collect::<Vec<u64>>(), |i| {
            count.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 200);
        assert_eq!(count.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn deterministic_cells_are_byte_identical_across_worker_counts() {
        // A deterministic simulation cell: lane-private charges, fixed
        // seeds. Its outcome must not depend on scheduling.
        let cell = |seed: u64| -> (u64, Vec<u64>) {
            let mut rng = crate::rng::XorShift64::new(seed);
            let reps: Vec<u64> = (0..4).map(|_| 50 + rng.below(50)).collect();
            let out = crate::sched::Sim::new(4).run(|lane| {
                crate::clock::charge_n(crate::cost::CostKind::Cas, reps[lane]);
            });
            (out.makespan, out.per_thread)
        };
        let seeds: Vec<u64> = (1..=12).collect();
        let sequential: Vec<_> = seeds.iter().map(|&s| cell(s)).collect();
        let parallel = map_cells(seeds, cell);
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn workers_inherit_the_submitters_context() {
        let _k = crate::ctx::stream_scope(0x1234);
        let keys = map_cells(vec![(); 16], |()| crate::ctx::stream_key());
        assert!(keys.iter().all(|&k| k == 0x1234), "{keys:?}");
    }

    #[test]
    fn scopes_installed_inside_a_job_do_not_leak_between_cells() {
        let out = map_cells((0..32u64).collect(), |i| {
            let _k = crate::ctx::stream_scope(i + 1);
            // If another cell's scope bled onto this worker thread, the
            // key would not match.
            std::thread::yield_now();
            (i, crate::ctx::stream_key())
        });
        for (i, k) in out {
            assert_eq!(k, i + 1);
        }
    }
}
