//! Indexed free-capacity profile: the sub-linear replacement for rebuilding
//! a [`StepFunction`] from every running job on every scheduling cycle.
//!
//! # Layout
//!
//! [`EndIndex`] is a sqrt-decomposed sorted multiset of the running jobs'
//! *raw* estimated end times, aggregated per distinct second and grouped
//! into blocks of ~[`BLOCK_TARGET`] entries with a cached per-block CPU sum.
//! [`RunningSet::insert`]/[`RunningSet::remove`](crate::RunningSet::remove)
//! maintain it incrementally, so the two queries the backfill planner needs
//! are O(√n) instead of the O(n) profile rebuild:
//!
//! * `prefix(t)` — total CPUs whose estimated end is ≤ `t`, i.e. how many
//!   CPUs the running set will have released by `t`;
//! * `first_reaching(c)` — the earliest end time by which cumulative
//!   released CPUs reach `c` (the shadow-time primitive).
//!
//! [`IndexedFreeProfile`] is the planner-facing view: the *base* function
//! `free_now + prefix(t)` (with the same overrun clamp as
//! [`RunningSet::free_profile`](crate::RunningSet::free_profile) — jobs past
//! their estimate release at `now + 1`, never at `now`) plus a small
//! [`StepFunction`] *overlay* holding only the planner's own in-cycle
//! deductions (immediate starts and reservations). Queries walk overlay
//! pieces — a handful per cycle — and answer the base part in O(√n) via the
//! index, exploiting that the base is monotone non-decreasing: its minimum
//! over any piece sits at the left edge, and within a piece the qualifying
//! instants of a slot search form a suffix found by `first_reaching`.
//!
//! # Equivalence contract
//!
//! For every instant `t` in `[0, horizon)` and every sequence of
//! `range_add` deductions, `IndexedFreeProfile` answers `value_at`,
//! `min_over` and `find_slot` *identically* to the naive
//! `free_profile(now, free_now, horizon)` StepFunction with the same
//! deductions applied — edge cases included (empty windows, zero durations,
//! windows clipped by the horizon). `crates/machine/tests/free_profile_props.rs`
//! enforces this pointwise, and the `check-invariants` planner-equivalence
//! check in `sched` end to end on every checked scheduling cycle.

use simkit::series::StepFunction;
use simkit::time::{SimDuration, SimTime};

/// Target entries per block; blocks split at twice this.
const BLOCK_TARGET: usize = 64;

/// One sqrt-decomposition block: distinct end-seconds in ascending order,
/// each with the total CPUs released at that second, plus the block sum.
#[derive(Clone, Debug)]
struct Block {
    /// `(end_second, total CPUs estimated to end then)`, ascending, no zeros.
    ends: Vec<(u64, u64)>,
    /// Sum of the CPU counts in `ends`.
    sum: u64,
}

impl Block {
    /// Largest end-second stored in this block (blocks are never empty).
    fn last_end(&self) -> u64 {
        match self.ends.last() {
            Some(&(e, _)) => e,
            None => 0,
        }
    }
}

/// Incrementally-maintained index over the running jobs' estimated end
/// times. See the module docs for the layout and complexity.
#[derive(Clone, Debug, Default)]
pub struct EndIndex {
    /// Blocks in ascending end-second order; every block non-empty.
    blocks: Vec<Block>,
    /// Total CPUs across all entries.
    total: u64,
}

impl EndIndex {
    /// Number of distinct end-seconds currently indexed.
    pub fn distinct_ends(&self) -> usize {
        self.blocks.iter().map(|b| b.ends.len()).sum()
    }

    /// Total CPUs across all indexed entries.
    pub fn total_cpus(&self) -> u64 {
        self.total
    }

    /// Record `cpus` CPUs releasing at `end_s`.
    pub fn insert(&mut self, end_s: u64, cpus: u32) {
        let cpus = u64::from(cpus);
        self.total += cpus;
        if cpus == 0 {
            return;
        }
        if self.blocks.is_empty() {
            self.blocks.push(Block {
                ends: vec![(end_s, cpus)],
                sum: cpus,
            });
            return;
        }
        // First block whose range can hold `end_s`; past-the-end goes last.
        let bi = self
            .blocks
            .partition_point(|b| b.last_end() < end_s)
            .min(self.blocks.len() - 1);
        let block = &mut self.blocks[bi];
        match block.ends.binary_search_by_key(&end_s, |&(e, _)| e) {
            Ok(i) => block.ends[i].1 += cpus,
            Err(i) => block.ends.insert(i, (end_s, cpus)),
        }
        block.sum += cpus;
        if block.ends.len() > 2 * BLOCK_TARGET {
            let tail = block.ends.split_off(BLOCK_TARGET);
            let tail_sum: u64 = tail.iter().map(|&(_, c)| c).sum();
            block.sum -= tail_sum;
            self.blocks.insert(
                bi + 1,
                Block {
                    ends: tail,
                    sum: tail_sum,
                },
            );
        }
    }

    /// Remove `cpus` CPUs previously inserted at `end_s`. Panics if the
    /// entry is absent (insert/remove must pair up — a simulator bug).
    pub fn remove(&mut self, end_s: u64, cpus: u32) {
        let cpus = u64::from(cpus);
        self.total -= cpus;
        if cpus == 0 {
            return;
        }
        let bi = self.blocks.partition_point(|b| b.last_end() < end_s);
        assert!(
            bi < self.blocks.len(),
            "end index: no entry at second {end_s}"
        );
        let block = &mut self.blocks[bi];
        match block.ends.binary_search_by_key(&end_s, |&(e, _)| e) {
            Ok(i) => {
                assert!(
                    block.ends[i].1 >= cpus,
                    "end index: removing more CPUs than present at {end_s}"
                );
                block.ends[i].1 -= cpus;
                block.sum -= cpus;
                if block.ends[i].1 == 0 {
                    block.ends.remove(i);
                }
                if block.ends.is_empty() {
                    self.blocks.remove(bi);
                }
            }
            Err(_) => panic!("end index: no entry at second {end_s}"),
        }
    }

    /// Total CPUs with end-second ≤ `t`.
    pub fn prefix(&self, t: u64) -> u64 {
        let bi = self.blocks.partition_point(|b| b.last_end() <= t);
        let mut acc: u64 = self.blocks[..bi].iter().map(|b| b.sum).sum();
        if let Some(block) = self.blocks.get(bi) {
            let j = block.ends.partition_point(|&(e, _)| e <= t);
            acc += block.ends[..j].iter().map(|&(_, c)| c).sum::<u64>();
        }
        acc
    }

    /// Smallest end-second `e` with `prefix(e) >= target` (`target ≥ 1`), or
    /// `None` if even the full release never reaches `target`.
    pub fn first_reaching(&self, target: u64) -> Option<u64> {
        if target == 0 || self.total < target {
            return if target == 0 { Some(0) } else { None };
        }
        let mut acc = 0u64;
        for block in &self.blocks {
            if acc + block.sum < target {
                acc += block.sum;
                continue;
            }
            for &(e, c) in &block.ends {
                acc += c;
                if acc >= target {
                    return Some(e);
                }
            }
        }
        None
    }
}

/// Planner-facing free-capacity view over an [`EndIndex`]: base function
/// `free_now` (+ released CPUs from `now + 1` on) plus a [`StepFunction`]
/// overlay of in-cycle deductions. Pointwise identical to the naive
/// [`RunningSet::free_profile`](crate::RunningSet::free_profile) — see the
/// module docs for the contract.
#[derive(Clone, Debug)]
pub struct IndexedFreeProfile<'a> {
    index: &'a EndIndex,
    free_now: i64,
    /// `now + 1`: the instant overrun jobs are projected to release.
    next_s: u64,
    horizon_s: u64,
    overlay: StepFunction,
}

impl<'a> IndexedFreeProfile<'a> {
    /// Build a view for one planning cycle. `horizon` must exceed `now`
    /// (same precondition as the naive profile).
    pub fn new(index: &'a EndIndex, now: SimTime, free_now: u32, horizon: SimTime) -> Self {
        assert!(horizon > now, "profile horizon must exceed now");
        IndexedFreeProfile {
            index,
            free_now: i64::from(free_now),
            next_s: now.as_secs() + 1,
            horizon_s: horizon.as_secs(),
            overlay: StepFunction::constant(horizon, 0),
        }
    }

    /// Segments in the overlay — the only profile this view *builds*. The
    /// base timeline is answered by the shared [`EndIndex`] and never
    /// materialized, so this (∝ plan size, not running-set size) is the
    /// indexed counterpart of the naive path's per-cycle
    /// `segment_count()` tally.
    pub fn segment_count(&self) -> usize {
        self.overlay.segment_count()
    }

    /// Base (deduction-free) value at an in-domain second.
    fn base(&self, t_s: u64) -> i64 {
        debug_assert!(t_s < self.horizon_s);
        if t_s < self.next_s {
            self.free_now
        } else {
            self.free_now + self.index.prefix(t_s) as i64
        }
    }

    /// Value at instant `t` (clamped into the domain), deductions included.
    pub fn value_at(&self, t: SimTime) -> i64 {
        let t_s = t.as_secs().min(self.horizon_s - 1);
        self.base(t_s) + self.overlay.value_at(t)
    }

    /// Minimum value on `[t0, t1)` (clamped). `None` for an empty window.
    /// The base is monotone non-decreasing, so per overlay piece the minimum
    /// sits at the piece's left edge.
    pub fn min_over(&mut self, t0: SimTime, t1: SimTime) -> Option<i64> {
        let a = t0.as_secs().min(self.horizon_s);
        let b = t1.as_secs().min(self.horizon_s);
        if a >= b {
            return None;
        }
        let mut best: Option<i64> = None;
        for (s, e, v) in self.overlay.iter_segments() {
            let (s, e) = (s.as_secs(), e.as_secs());
            if e <= a {
                continue;
            }
            if s >= b {
                break;
            }
            let m = self.base(s.max(a)) + v;
            best = Some(match best {
                Some(cur) => cur.min(m),
                None => m,
            });
        }
        best
    }

    /// Subtract-or-add `delta` on `[t0, t1)` — the planner recording an
    /// immediate start or a reservation. Goes into the overlay only.
    pub fn range_add(&mut self, t0: SimTime, t1: SimTime, delta: i64) {
        self.overlay.range_add(t0, t1, delta);
    }

    /// Earliest `t >= from` with value ≥ `need` on all of `[t, t + dur)`,
    /// the window fitting before the horizon — same contract (and edge
    /// cases) as [`StepFunction::find_slot`].
    ///
    /// Within one overlay piece the combined function is base + constant,
    /// hence monotone: the qualifying instants form a suffix of the piece
    /// whose start `first_reaching` locates directly. Runs of qualification
    /// are stitched across pieces exactly as the naive segment walk does.
    pub fn find_slot(&mut self, from: SimTime, need: i64, dur: SimDuration) -> Option<SimTime> {
        let d = dur.as_secs();
        if d == 0 {
            return (from.as_secs() < self.horizon_s).then_some(from);
        }
        if d > self.horizon_s {
            return None;
        }
        let start0 = from.as_secs();
        if start0 + d > self.horizon_s {
            return None;
        }
        let mut found: Option<u64> = None;
        let mut run_start: Option<u64> = None;
        for (s, e, v) in self.overlay.iter_segments() {
            let (s, e) = (s.as_secs(), e.as_secs());
            if e <= start0 {
                continue;
            }
            let l = s.max(start0);
            // Earliest qualifying instant in [l, e), if any: need
            // base(t) >= need - v, i.e. prefix(t) >= need - v - free_now
            // (and t >= next_s unless free_now alone suffices).
            let qualify_from = if self.base(l) >= need - v {
                Some(l)
            } else {
                let target = need - v - self.free_now;
                if target <= 0 {
                    // base(l) >= free_now >= need - v contradicts the branch;
                    // unreachable, but harmless.
                    Some(l)
                } else {
                    match self.index.first_reaching(target as u64) {
                        Some(end) => {
                            let q = end.max(self.next_s).max(l);
                            if q < e {
                                Some(q)
                            } else {
                                None
                            }
                        }
                        None => None,
                    }
                }
            };
            match qualify_from {
                Some(q) => {
                    if q > l || run_start.is_none() {
                        // Run broken at l (or none yet): starts at q.
                        run_start = Some(q);
                    }
                    if let Some(rs) = run_start {
                        if e - rs >= d {
                            found = Some(rs);
                            break;
                        }
                    }
                }
                None => run_start = None,
            }
        }
        // The last overlay piece ends exactly at the horizon, so a run
        // reaching the horizon was already length-checked in the loop.
        found.map(SimTime::from_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn index_prefix_and_first_reaching() {
        let mut ix = EndIndex::default();
        ix.insert(100, 3);
        ix.insert(200, 5);
        ix.insert(100, 2); // aggregates at the same second
        assert_eq!(ix.total_cpus(), 10);
        assert_eq!(ix.distinct_ends(), 2);
        assert_eq!(ix.prefix(99), 0);
        assert_eq!(ix.prefix(100), 5);
        assert_eq!(ix.prefix(199), 5);
        assert_eq!(ix.prefix(200), 10);
        assert_eq!(ix.first_reaching(1), Some(100));
        assert_eq!(ix.first_reaching(5), Some(100));
        assert_eq!(ix.first_reaching(6), Some(200));
        assert_eq!(ix.first_reaching(10), Some(200));
        assert_eq!(ix.first_reaching(11), None);
        ix.remove(100, 2);
        assert_eq!(ix.prefix(100), 3);
        ix.remove(100, 3);
        assert_eq!(ix.distinct_ends(), 1);
        assert_eq!(ix.first_reaching(1), Some(200));
    }

    #[test]
    fn index_blocks_split_and_stay_sorted() {
        let mut ix = EndIndex::default();
        // Enough distinct ends to force several block splits, inserted in a
        // scrambled order.
        for i in 0..500u64 {
            let e = (i * 7919) % 10_000;
            ix.insert(e, 1);
        }
        assert_eq!(ix.total_cpus(), 500);
        // prefix must agree with a brute-force recount at many probes.
        let ends: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 10_000).collect();
        for probe in (0..10_000).step_by(97) {
            let brute = ends.iter().filter(|&&e| e <= probe).count() as u64;
            assert_eq!(ix.prefix(probe), brute, "probe {probe}");
        }
        for target in [1u64, 17, 250, 499, 500] {
            let brute = {
                let mut sorted = ends.clone();
                sorted.sort_unstable();
                sorted.get(target as usize - 1).copied()
            };
            assert_eq!(ix.first_reaching(target), brute, "target {target}");
        }
        // Remove everything again, in a different scrambled order.
        for i in (0..500u64).rev() {
            let e = (i * 7919) % 10_000;
            ix.remove(e, 1);
        }
        assert_eq!(ix.total_cpus(), 0);
        assert_eq!(ix.distinct_ends(), 0);
    }

    #[test]
    #[should_panic(expected = "no entry")]
    fn index_remove_of_absent_end_panics() {
        let mut ix = EndIndex::default();
        ix.insert(50, 2);
        ix.remove(51, 2);
    }

    #[test]
    fn indexed_view_matches_hand_profile() {
        let mut ix = EndIndex::default();
        ix.insert(100, 3); // releases at 100
        ix.insert(200, 5); // releases at 200
        let mut view = IndexedFreeProfile::new(&ix, t(0), 2, t(1000));
        assert_eq!(view.value_at(t(0)), 2);
        assert_eq!(view.value_at(t(99)), 2);
        assert_eq!(view.value_at(t(100)), 5);
        assert_eq!(view.value_at(t(200)), 10);
        assert_eq!(view.value_at(t(5000)), 10, "clamped to horizon");
        assert_eq!(view.min_over(t(0), t(1000)), Some(2));
        assert_eq!(view.min_over(t(150), t(250)), Some(5));
        assert_eq!(view.min_over(t(10), t(10)), None);
        assert_eq!(
            view.find_slot(t(0), 5, SimDuration::from_secs(10)),
            Some(t(100))
        );
        assert_eq!(
            view.find_slot(t(0), 10, SimDuration::from_secs(10)),
            Some(t(200))
        );
        assert_eq!(view.find_slot(t(0), 11, SimDuration::from_secs(10)), None);
        assert_eq!(view.segment_count(), 1, "no deductions: overlay is flat");
        view.range_add(t(0), t(50), -3);
        assert!(view.segment_count() > 1, "deductions add overlay segments");
    }

    #[test]
    fn overrun_jobs_release_strictly_after_now() {
        let mut ix = EndIndex::default();
        ix.insert(100, 6); // estimate long past `now`
        let view = IndexedFreeProfile::new(&ix, t(2000), 4, t(10_000));
        assert_eq!(view.value_at(t(2000)), 4, "at now: only actually-free CPUs");
        assert_eq!(view.value_at(t(2001)), 10, "released any moment after");
    }

    #[test]
    fn overlay_deductions_compose_with_base() {
        let mut ix = EndIndex::default();
        ix.insert(100, 4);
        let mut view = IndexedFreeProfile::new(&ix, t(0), 4, t(1000));
        // Start a 3-CPU job now for 50 s.
        view.range_add(t(0), t(50), -3);
        assert_eq!(view.value_at(t(0)), 1);
        assert_eq!(view.value_at(t(50)), 4);
        assert_eq!(view.min_over(t(0), t(100)), Some(1));
        // A 4-CPU/60 s request must wait for the deduction to clear.
        assert_eq!(
            view.find_slot(t(0), 4, SimDuration::from_secs(60)),
            Some(t(50))
        );
        // An 8-CPU request needs the release at 100 as well.
        assert_eq!(
            view.find_slot(t(0), 8, SimDuration::from_secs(60)),
            Some(t(100))
        );
    }

    #[test]
    fn find_slot_edge_cases_match_stepfunction() {
        let ix = EndIndex::default();
        let mut view = IndexedFreeProfile::new(&ix, t(0), 5, t(100));
        let d = SimDuration::from_secs;
        assert_eq!(view.find_slot(t(0), 5, d(100)), Some(t(0)));
        assert_eq!(view.find_slot(t(1), 5, d(100)), None, "overruns horizon");
        assert_eq!(view.find_slot(t(0), 6, d(10)), None, "never enough");
        assert_eq!(view.find_slot(t(0), 5, d(101)), None, "longer than domain");
        assert_eq!(
            view.find_slot(t(42), 99, d(0)),
            Some(t(42)),
            "zero duration"
        );
        assert_eq!(view.find_slot(t(100), 1, d(0)), None, "outside domain");
    }
}
