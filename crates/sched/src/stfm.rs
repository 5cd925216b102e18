//! STFM: stall-time fair memory scheduling (Mutlu & Moscibroda, MICRO
//! 2007).

use crate::select::{age_key, pick_max_by_key, row_hit};
use crate::{PickContext, Scheduler, SystemView};
use tcm_dram::ServiceOutcome;
use tcm_types::{Cycle, Request, ThreadId};

/// STFM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StfmParams {
    /// Unfairness threshold α: fairness mode engages when
    /// `max slowdown / min slowdown` exceeds it (paper default 1.1).
    pub fairness_threshold: f64,
    /// Cycles between decay ticks of the slowdown estimators (paper
    /// default 2^24), letting estimates track phase changes.
    pub interval_length: Cycle,
}

impl StfmParams {
    /// The parameters the paper uses when evaluating STFM
    /// (FairnessThreshold 1.1, IntervalLength 2^24).
    pub fn paper_default() -> Self {
        Self {
            fairness_threshold: 1.1,
            interval_length: 1 << 24,
        }
    }
}

impl Default for StfmParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Stall-time fair memory scheduler.
///
/// Estimates each thread's memory slowdown `S = T_shared / T_alone` and,
/// when the ratio of the largest to the smallest slowdown exceeds
/// `fairness_threshold`, prioritizes the most-slowed thread; otherwise it
/// behaves as FR-FCFS.
///
/// Estimation (a faithful simplification of the original's heuristics,
/// documented in DESIGN.md): `T_shared` accumulates each completed
/// request's total memory latency; `T_interference` accumulates, for each
/// queued request, the bank-busy cycles spent servicing *other* threads'
/// requests ahead of it; `T_alone = T_shared − T_interference`.
#[derive(Debug, Clone)]
pub struct Stfm {
    params: StfmParams,
    t_shared: Vec<f64>,
    t_interference: Vec<f64>,
    completed: Vec<u64>,
    /// Memoized `slowdown()` per thread for the maximum: the slowdown
    /// of an active thread (one with a completed request), `f64::MIN`
    /// for an inactive one. Refreshed whenever the thread's estimator
    /// inputs change, so `slowdown_extremes`, which runs on every pick,
    /// reduces plain arrays instead of testing activity per thread (the
    /// cached value is the identical division result, so decisions are
    /// bit-for-bit unchanged).
    for_max: Vec<f64>,
    /// As `for_max`, with `f64::MAX` for an inactive thread.
    for_min: Vec<f64>,
    /// Number of active threads. Activity never ends: `completed` is
    /// not decayed.
    active: usize,
    next_decay: Cycle,
}

impl Stfm {
    /// Creates STFM for `num_threads` threads with the paper's defaults.
    pub fn new(num_threads: usize) -> Self {
        Self::with_params(num_threads, StfmParams::paper_default())
    }

    /// Creates STFM with explicit parameters.
    pub fn with_params(num_threads: usize, params: StfmParams) -> Self {
        Self {
            next_decay: params.interval_length,
            params,
            t_shared: vec![0.0; num_threads],
            t_interference: vec![0.0; num_threads],
            completed: vec![0; num_threads],
            for_max: vec![f64::MIN; num_threads],
            for_min: vec![f64::MAX; num_threads],
            active: 0,
        }
    }

    /// Refreshes the memoized slowdown for thread `i` after its inputs
    /// changed; inactive threads keep their sentinels.
    fn refresh_slowdown(&mut self, i: usize) {
        if self.completed[i] > 0 {
            let s = self.slowdown(ThreadId::new(i));
            self.for_max[i] = s;
            self.for_min[i] = s;
        }
    }

    /// Current slowdown estimate for `thread` (≥ 1).
    pub fn slowdown(&self, thread: ThreadId) -> f64 {
        let i = thread.index();
        let shared = self.t_shared[i];
        if shared <= 0.0 {
            return 1.0;
        }
        let alone = (shared - self.t_interference[i]).max(1.0);
        (shared / alone).max(1.0)
    }

    /// `(max, min)` slowdown over threads with observed memory activity
    /// and the first thread holding the max; `None` when fewer than two
    /// threads are active.
    ///
    /// Slowdowns are never NaN (each is at least 1), and the max and min
    /// of non-NaN values are exact in any order, so both reductions run
    /// with four independent accumulators; the sentinels of inactive
    /// threads never win. The first index equal to the max is the thread
    /// a strict `>` scan in index order would pick.
    fn slowdown_extremes(&self) -> Option<(f64, ThreadId, f64)> {
        if self.active < 2 {
            return None;
        }
        // Plain compare-and-select, not `f64::max`/`f64::min`: with no
        // NaN to handle it lowers to packed max/min instructions.
        let max = reduce4(&self.for_max, f64::MIN, |a, v| if v > a { v } else { a });
        let min = reduce4(&self.for_min, f64::MAX, |a, v| if v < a { v } else { a });
        let max_thread = self
            .for_max
            .iter()
            .position(|&s| s == max)
            .expect("an active thread holds the max");
        Some((max, ThreadId::new(max_thread), min))
    }
}

/// Folds `values` with `op` through four independent accumulators, so
/// consecutive steps do not wait on each other. Exact only for an
/// associative and commutative `op` (such as max or min of non-NaN
/// values).
fn reduce4(values: &[f64], init: f64, op: impl Fn(f64, f64) -> f64) -> f64 {
    let mut acc = [init; 4];
    let chunks = values.chunks_exact(4);
    for &v in chunks.remainder() {
        acc[0] = op(acc[0], v);
    }
    for chunk in chunks {
        for (a, &v) in acc.iter_mut().zip(chunk) {
            *a = op(*a, v);
        }
    }
    op(op(acc[0], acc[1]), op(acc[2], acc[3]))
}

impl Scheduler for Stfm {
    fn name(&self) -> &'static str {
        "STFM"
    }

    fn pick(&mut self, pending: &[Request], ctx: &PickContext) -> usize {
        if let Some((max, max_thread, min)) = self.slowdown_extremes() {
            if min > 0.0 && max / min > self.params.fairness_threshold {
                // Fairness mode: requests of the most-slowed thread first.
                return pick_max_by_key(pending, |r| {
                    (
                        r.thread == max_thread,
                        row_hit(r, ctx.open_row),
                        age_key(r),
                    )
                });
            }
        }
        // Throughput mode: plain FR-FCFS.
        pick_max_by_key(pending, |r| (row_hit(r, ctx.open_row), age_key(r)))
    }

    fn on_service(
        &mut self,
        outcome: &ServiceOutcome,
        remaining_same_bank: &[Request],
        _now: Cycle,
    ) {
        let busy = outcome.bank_busy() as f64;
        let servicer = outcome.request.thread;
        for r in remaining_same_bank {
            if r.thread != servicer {
                if let Some(t) = self.t_interference.get_mut(r.thread.index()) {
                    *t += busy;
                    self.refresh_slowdown(r.thread.index());
                }
            }
        }
    }

    fn on_complete(&mut self, req: &Request, now: Cycle) {
        let i = req.thread.index();
        if let Some(t) = self.t_shared.get_mut(i) {
            *t += (now - req.issued_at) as f64;
            if self.completed[i] == 0 {
                self.active += 1;
            }
            self.completed[i] += 1;
            self.refresh_slowdown(i);
        }
    }

    fn next_tick(&self, now: Cycle) -> Option<Cycle> {
        Some(self.next_decay.max(now + 1))
    }

    fn tick(&mut self, now: Cycle, _view: &SystemView<'_>) {
        // Exponential decay so estimates follow program phases.
        for t in &mut self.t_shared {
            *t *= 0.5;
        }
        for t in &mut self.t_interference {
            *t *= 0.5;
        }
        for i in 0..self.completed.len() {
            self.refresh_slowdown(i);
        }
        self.next_decay = now + self.params.interval_length;
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, req};
    use proptest::prelude::*;
    use tcm_types::{BankId, ChannelId, MemAddress, RequestId, Row};

    /// The extremes scan before the sentinel arrays, kept as the oracle
    /// for `slowdown_extremes`: one branchy pass in thread order over
    /// the active threads, the max thread taken by strict `>`.
    fn reference_extremes(completed: &[u64], slowdowns: &[f64]) -> Option<(f64, ThreadId, f64)> {
        let mut max = f64::MIN;
        let mut max_thread = ThreadId::new(0);
        let mut min = f64::MAX;
        let mut active = 0;
        for i in 0..completed.len() {
            if completed[i] == 0 {
                continue;
            }
            active += 1;
            let s = slowdowns[i];
            if s > max {
                max = s;
                max_thread = ThreadId::new(i);
            }
            min = min.min(s);
        }
        (active >= 2).then_some((max, max_thread, min))
    }

    /// `reference_extremes` over the estimator's current state.
    fn reference_for(s: &Stfm) -> Option<(f64, ThreadId, f64)> {
        let slowdowns: Vec<f64> = (0..s.completed.len())
            .map(|i| s.slowdown(ThreadId::new(i)))
            .collect();
        reference_extremes(&s.completed, &slowdowns)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After every estimator update (completions, interference,
        /// decay) the extremes equal the reference scan's. Latencies and
        /// bank-busy times come from small sets, and threads without
        /// interference sit at slowdown 1, so ties are common; runs
        /// start with no active thread and often keep fewer than two.
        #[test]
        fn extremes_match_reference(
            num_threads in 1usize..30,
            events in proptest::collection::vec((0u8..4, 0usize..32, 0u64..4), 0..80),
        ) {
            let mut s = Stfm::new(num_threads);
            prop_assert_eq!(s.slowdown_extremes(), reference_for(&s));
            let mut now = 1000;
            for (kind, thread, size) in events {
                let thread = thread % num_threads;
                match kind {
                    0 | 1 => s.on_complete(&req(0, thread, 0, now - 100 * (size + 1)), now),
                    2 => {
                        let other = (thread + 1) % num_threads;
                        let waiting = vec![req(1, thread, 0, now), req(2, other, 0, now)];
                        s.on_service(&outcome(other, 50 * (size + 1)), &waiting, now);
                    }
                    _ => s.tick(now, &SystemView { retired: &[], misses: &[], service: &[] }),
                }
                now += 10;
                prop_assert_eq!(s.slowdown_extremes(), reference_for(&s));
            }
        }

        /// The sentinel-array reduction equals the reference on arbitrary
        /// slowdown vectors: exact ties at the max and the min, inactive
        /// threads holding the largest and smallest values, and fewer
        /// than two active threads.
        #[test]
        fn reduction_matches_reference_on_ties(
            values in proptest::collection::vec((0u64..3, 0usize..4), 0..30),
        ) {
            let n = values.len();
            let mut s = Stfm::new(n);
            let mut slowdowns = vec![0.0; n];
            for (i, &(done, level)) in values.iter().enumerate() {
                // Levels 0 and 3 are the extremes; inactive threads get
                // them as often as active ones do.
                let v = [1.0, 1.5, 2.25, 9.0][level];
                slowdowns[i] = v;
                s.completed[i] = done;
                if done > 0 {
                    s.active += 1;
                    s.for_max[i] = v;
                    s.for_min[i] = v;
                }
            }
            prop_assert_eq!(s.slowdown_extremes(), reference_extremes(&s.completed, &slowdowns));
        }
    }

    fn outcome(thread: usize, busy: u64) -> ServiceOutcome {
        ServiceOutcome {
            request: Request::new(
                RequestId::new(99),
                ThreadId::new(thread),
                MemAddress::new(ChannelId::new(0), BankId::new(0), Row::new(0)),
                0,
            ),
            row_state: tcm_types::RowState::Closed,
            bank_start: 0,
            bank_free: busy,
            completes_at: busy + 75,
            service_cycles: busy,
        }
    }

    #[test]
    fn defaults_match_paper() {
        let p = StfmParams::paper_default();
        assert!((p.fairness_threshold - 1.1).abs() < 1e-12);
        assert_eq!(p.interval_length, 1 << 24);
    }

    #[test]
    fn behaves_like_frfcfs_when_fair() {
        let mut s = Stfm::new(2);
        let pending = vec![req(0, 0, 1, 0), req(1, 1, 9, 100)];
        assert_eq!(s.pick(&pending, &ctx(200, Some(9))), 1, "row hit wins");
    }

    #[test]
    fn slowdown_starts_at_one_and_grows_with_interference() {
        let mut s = Stfm::new(2);
        assert_eq!(s.slowdown(ThreadId::new(0)), 1.0);
        // Thread 1 waits behind thread 0's service repeatedly.
        for i in 0..10u64 {
            let waiting = vec![req(i, 1, 5, 0)];
            s.on_service(&outcome(0, 300), &waiting, 300);
        }
        // Thread 1's requests complete with big latencies.
        for i in 0..10u64 {
            s.on_complete(&req(100 + i, 1, 5, 0), 400);
        }
        // Thread 0 completes with tiny latencies and no interference.
        for i in 0..10u64 {
            s.on_complete(&req(200 + i, 0, 5, 0), 200);
        }
        assert!(s.slowdown(ThreadId::new(1)) > 2.0);
        assert_eq!(s.slowdown(ThreadId::new(0)), 1.0);
    }

    #[test]
    fn fairness_mode_prioritizes_most_slowed_thread() {
        let mut s = Stfm::new(2);
        // Make thread 1 heavily slowed.
        for i in 0..10u64 {
            let waiting = vec![req(i, 1, 5, 0)];
            s.on_service(&outcome(0, 300), &waiting, 300);
            s.on_complete(&req(100 + i, 1, 5, 0), 400);
            s.on_complete(&req(200 + i, 0, 5, 0), 200);
        }
        // Thread 0 has a row hit, thread 1 does not — fairness wins anyway.
        let pending = vec![req(0, 0, 9, 0), req(1, 1, 5, 50)];
        assert_eq!(s.pick(&pending, &ctx(500, Some(9))), 1);
    }

    #[test]
    fn decay_halves_estimates() {
        let mut s = Stfm::new(1);
        s.on_complete(&req(0, 0, 1, 0), 1000);
        let view = SystemView {
            retired: &[0],
            misses: &[0],
            service: &[0],
        };
        let before = s.t_shared[0];
        s.tick(1 << 24, &view);
        assert!((s.t_shared[0] - before / 2.0).abs() < 1e-9);
        assert_eq!(s.next_tick(1 << 24), Some((1 << 24) + (1 << 24)));
    }

    #[test]
    fn single_active_thread_never_triggers_fairness_mode() {
        let mut s = Stfm::new(2);
        for i in 0..5u64 {
            s.on_complete(&req(i, 0, 1, 0), 10_000);
        }
        assert!(s.slowdown_extremes().is_none());
        let pending = vec![req(10, 0, 1, 0), req(11, 1, 9, 100)];
        assert_eq!(s.pick(&pending, &ctx(200, Some(9))), 1, "still FR-FCFS");
    }
}
