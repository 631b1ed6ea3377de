//! Task scheduling primitives for `spawn`/`join` (std-only).
//!
//! Three schedulers back [`crate::config::SchedMode`]:
//!
//! * **Inline** — no threads; a task body runs to its end at its `spawn`
//!   point. This is the conformance baseline every other mode is
//!   compared against.
//! * **Deterministic** — the interpreter's driver loop runs every task on
//!   the caller's thread, one at a time: a task runs for a slice of
//!   interpreter steps whose length comes from its own `Slices` stream,
//!   then the loop parks it and hands the turn to the next task by the
//!   `RoundRobin` rule. The whole schedule is a pure function of the
//!   seed and the program, so a seed *names* an interleaving and replaying
//!   it is exact.
//! * **Threads** — a counting [`Semaphore`] admission-controls real
//!   threads: at most `workers` tasks execute concurrently, timing is up
//!   to the OS. Because heap shards are isolated (see
//!   `region_rt::shard`), results are still deterministic; only wall
//!   clock varies.
//!
//! The inline scheduler goes through the same driver loop and
//! `RoundRobin` table: a spawning task waits on its child there, so the
//! child runs to its end before the spawner resumes.

use std::sync::{Condvar, Mutex};

/// SplitMix64 — the tiny, well-distributed PRNG used for slice lengths
/// (and by the interleaving test harness for seed derivation). One `u64`
/// of state; every output is a bijection of the state, so distinct
/// per-task streams never collapse onto each other.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next pseudo-random word.
    #[allow(clippy::should_implement_trait)] // not an Iterator: infinite, never None
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Largest step slice the deterministic scheduler hands a task before
/// passing the turn. Small enough that short programs still switch
/// tasks; large enough that switching is not the dominant cost.
const MAX_SLICE: u64 = 64;

/// One task's slice lengths under the deterministic scheduler, drawn from
/// a SplitMix64 stream derived from the seed and the task's id (its spawn
/// ordinal), so every task gets an independent deterministic stream.
#[derive(Debug)]
pub(crate) struct Slices {
    rng: SplitMix64,
    /// Steps left in the current slice.
    left: u64,
    /// The current slice's full length (for `baton_release` events:
    /// `ran == granted` at expiry).
    granted: u64,
}

impl Slices {
    /// Task `id`'s stream under `sched`, with its first slice drawn
    /// (`None` outside the deterministic scheduler).
    pub(crate) fn of(sched: crate::config::SchedMode, id: usize) -> Option<Slices> {
        let crate::config::SchedMode::Deterministic { seed } = sched else {
            return None;
        };
        let mut rng = SplitMix64(seed ^ (id as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        // One warm-up scrambles low-entropy (seed ^ small-id) states.
        rng.next();
        let mut s = Slices { rng, left: 0, granted: 0 };
        s.grant();
        Some(s)
    }

    /// One interpreter step: burns a slice step. Returns `Some(ran)` when
    /// the slice is spent; the task then passes the turn and takes its
    /// next slice with [`Slices::grant`] when it runs again.
    #[inline]
    pub(crate) fn tick(&mut self) -> Option<u64> {
        self.left -= 1;
        (self.left == 0).then_some(self.granted)
    }

    /// Draws the next slice and returns its length.
    pub(crate) fn grant(&mut self) -> u64 {
        self.left = 1 + self.rng.next() % MAX_SLICE;
        self.granted = self.left;
        self.left
    }
}

#[derive(Debug)]
struct Turn {
    /// In a `join` (or, inline, waiting on its child): runnable again
    /// once every child has finished.
    blocked: bool,
    finished: bool,
    /// The spawning task (`usize::MAX` for the root).
    parent: usize,
    /// Children not finished yet.
    pending: usize,
}

impl Turn {
    fn new(parent: usize) -> Turn {
        Turn { blocked: false, finished: false, parent, pending: 0 }
    }
}

/// Whose turn it is, over one run's tasks in spawn order (task 0 is the
/// root). The rule is decided from task states alone, so the schedule
/// depends on nothing but the program and the slice streams.
#[derive(Debug)]
pub(crate) struct RoundRobin {
    tasks: Vec<Turn>,
}

impl Default for RoundRobin {
    fn default() -> Self {
        RoundRobin { tasks: vec![Turn::new(usize::MAX)] }
    }
}

impl RoundRobin {
    /// Registers a runnable task spawned by `parent`; returns its id.
    pub(crate) fn spawn(&mut self, parent: usize) -> usize {
        if let Some(p) = self.tasks.get_mut(parent) {
            p.pending += 1;
        }
        self.tasks.push(Turn::new(parent));
        self.tasks.len() - 1
    }

    /// Marks task `id` blocked until all its children have finished.
    pub(crate) fn block(&mut self, id: usize) {
        if let Some(t) = self.tasks.get_mut(id) {
            t.blocked = true;
        }
    }

    /// Marks task `id` finished.
    pub(crate) fn finish(&mut self, id: usize) {
        let Some(t) = self.tasks.get_mut(id) else { return };
        t.finished = true;
        let parent = t.parent;
        if let Some(p) = self.tasks.get_mut(parent) {
            p.pending = p.pending.saturating_sub(1);
        }
    }

    /// The task whose turn follows `from`'s, round-robin in spawn order:
    /// the next runnable task, or blocked one whose children have all
    /// finished (it is made runnable). `from` itself comes last, and is
    /// returned when no task qualifies, which happens only once every task
    /// has finished.
    pub(crate) fn next(&mut self, from: usize) -> usize {
        let n = self.tasks.len();
        for k in 1..=n {
            let j = (from + k) % n;
            let t = &mut self.tasks[j];
            if !t.finished && (!t.blocked || t.pending == 0) {
                t.blocked = false;
                return j;
            }
        }
        from
    }
}

/// A hand-rolled counting semaphore (std has none): the thread
/// scheduler's admission control.
#[derive(Debug)]
pub struct Semaphore {
    permits: Mutex<u32>,
    cv: Condvar,
}

impl Semaphore {
    /// A semaphore with `permits` permits (clamped to at least 1).
    pub fn new(permits: u32) -> Semaphore {
        Semaphore { permits: Mutex::new(permits.max(1)), cv: Condvar::new() }
    }

    /// Takes a permit, blocking until one is free.
    pub fn acquire(&self) {
        let mut g = self.permits.lock().unwrap();
        while *g == 0 {
            g = self.cv.wait(g).unwrap();
        }
        *g -= 1;
    }

    /// Returns a permit.
    pub fn release(&self) {
        let mut g = self.permits.lock().unwrap();
        *g += 1;
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedMode;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn splitmix_is_deterministic_and_streams_differ() {
        let mut a = SplitMix64(42);
        let mut b = SplitMix64(42);
        let first: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let second: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_eq!(first, second);
        let det = SchedMode::Deterministic { seed: 7 };
        let (Some(mut s0), Some(mut s1)) = (Slices::of(det, 0), Slices::of(det, 1)) else {
            panic!("the deterministic scheduler has slice streams");
        };
        assert_ne!(
            (0..4).map(|_| s0.grant()).collect::<Vec<_>>(),
            (0..4).map(|_| s1.grant()).collect::<Vec<_>>()
        );
        assert!((0..64).all(|_| (1..=MAX_SLICE).contains(&s0.grant())));
        assert!(Slices::of(SchedMode::Inline, 0).is_none());
    }

    #[test]
    fn a_blocked_parent_gets_its_turn_in_round_robin_order_once_its_children_end() {
        // The root spawns tasks 1 and 2; task 2 spawns task 3.
        let mut rr = RoundRobin::default();
        assert_eq!((rr.spawn(0), rr.spawn(0), rr.spawn(2)), (1, 2, 3));
        // The root joins; the others run in spawn order.
        rr.block(0);
        assert_eq!(rr.next(0), 1);
        assert_eq!(rr.next(1), 2);
        // Task 2 joins its child, which ends.
        rr.block(2);
        assert_eq!(rr.next(2), 3);
        rr.finish(3);
        // Task 2 may run again, but task 1 comes first from 3; the root
        // is passed over while its children run.
        assert_eq!(rr.next(3), 1);
        assert_eq!(rr.next(1), 2);
        rr.finish(2);
        // A task that is the only one runnable keeps the turn.
        assert_eq!(rr.next(2), 1);
        assert_eq!(rr.next(1), 1);
        rr.finish(1);
        assert_eq!(rr.next(1), 0, "the root's children have all ended");
        rr.finish(0);
        assert_eq!(rr.next(0), 0, "nobody is left");
    }

    #[test]
    fn semaphore_caps_concurrency() {
        let sem = Arc::new(Semaphore::new(2));
        let running = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let sem = Arc::clone(&sem);
                let running = Arc::clone(&running);
                let peak = Arc::clone(&peak);
                s.spawn(move || {
                    sem.acquire();
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::yield_now();
                    running.fetch_sub(1, Ordering::SeqCst);
                    sem.release();
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "cap respected");
    }
}
