//! CPU core model: instruction-window-occupancy stall semantics.
//!
//! Each simulated core executes a single thread at up to `issue_width`
//! instructions per cycle (3 in the paper's baseline) and tolerates cache
//! misses with a `window_size`-entry instruction window (128 in the
//! baseline): the core may run ahead of an outstanding miss by at most
//! `window_size` instructions before the full window stalls it. This is
//! exactly the latency-tolerance model the paper's arguments rely on:
//!
//! * a *latency-sensitive* thread misses rarely, so each miss finds an
//!   empty window and the stall time is roughly the full memory latency —
//!   every cycle of memory latency is a lost compute cycle;
//! * a *bandwidth-sensitive* thread misses constantly, keeps several
//!   misses outstanding (bank-level parallelism), and its progress is
//!   bounded by memory throughput rather than latency.
//!
//! [`Core`] is event-driven and lazily evaluated: it only recomputes
//! progress when polled, and reports as its next event the cycle at which
//! it will inject its next miss burst (or that it is blocked until a
//! completion arrives). The simulation driver in `tcm-sim` owns the event
//! queue.
//!
//! # Example
//!
//! ```
//! use tcm_cpu::{Core, CoreStatus};
//! use tcm_types::{RequestId, ThreadId};
//!
//! let mut core = Core::new(ThreadId::new(0), 3, 128, 32);
//! core.schedule_burst(300, 1); // one miss, 300 instructions from now
//! // 300 instructions at 3 IPC take 100 cycles:
//! assert_eq!(core.poll(0), CoreStatus::WillBurst { at: 100 });
//! assert_eq!(core.poll(100), CoreStatus::WillBurst { at: 100 });
//! // The burst's misses take consecutive ids from the one given.
//! core.issue_burst(RequestId::new(0));
//! core.complete(RequestId::new(0));
//! assert_eq!(core.outstanding(), 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![warn(clippy::unwrap_used)]

use std::collections::VecDeque;
use tcm_types::{Cycle, RequestId, ThreadId};

/// What a core is doing, as reported by [`Core::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStatus {
    /// The core reaches its next miss burst at cycle `at` (≥ the polled
    /// cycle) provided no earlier window/MSHR block intervenes — and
    /// `poll` guarantees none does. When `at` equals the polled cycle the
    /// burst is due now and the driver must call [`Core::issue_burst`].
    WillBurst {
        /// Cycle at which the burst instruction is reached.
        at: Cycle,
    },
    /// The core cannot reach its next burst: its window (or MSHR pool) is
    /// exhausted behind an outstanding miss. No timed event — progress
    /// resumes when a completion arrives (re-poll then).
    Blocked,
    /// No miss burst is scheduled; the core executes freely. (Compute-only
    /// threads stay in this state forever.)
    ComputeOnly,
}

/// The most misses one burst may carry: a live burst tracks its
/// outstanding misses in one `u64` bitmask. A burst's misses go to
/// distinct banks, so the limit is far above any burst a real machine
/// shape produces (the paper's machine has 16 banks).
pub const MAX_BURST_SIZE: usize = 64;

/// One issued miss burst with at least one miss still outstanding (or a
/// drained burst behind a live front, see [`Core::complete`]).
#[derive(Debug, Clone, Copy)]
struct LiveBurst {
    /// Instruction index at which the burst issued.
    instr: u64,
    /// Raw id of the burst's first miss; the burst owns ids
    /// `first..first + size`.
    first: u64,
    /// Bit `i` is set while miss `first + i` is outstanding.
    live: u64,
}

/// One simulated core running one thread.
///
/// Lazy/event-driven: internal progress is only materialized on
/// [`Core::poll`], which must be called with non-decreasing cycles.
#[derive(Debug, Clone)]
pub struct Core {
    thread: ThreadId,
    issue_width: u64,
    window: u64,
    mshrs: usize,
    /// Instructions executed as of `anchor_cycle`.
    anchor_instr: u64,
    anchor_cycle: Cycle,
    /// Issued bursts with outstanding misses, oldest first. Bursts issue
    /// at strictly increasing instruction indices (`schedule_burst`
    /// requires a positive gap) and with strictly increasing id ranges
    /// (`issue_burst` requires it), so the deque is sorted by both: the
    /// window limit is the front entry alone, and a completion finds its
    /// burst by binary search on the first id.
    bursts: VecDeque<LiveBurst>,
    /// The lowest id the next burst may start at: one past the last
    /// issued burst's id range.
    id_floor: u64,
    /// Next burst: `(absolute instruction index, number of accesses)`.
    next_burst: Option<(u64, usize)>,
    /// Instruction index of the most recently issued burst.
    last_burst_instr: u64,
    misses_issued: u64,
    misses_completed: u64,
}

impl Core {
    /// Creates a core for `thread` with the given issue width, window
    /// size and MSHR count.
    ///
    /// # Panics
    ///
    /// Panics if `issue_width`, `window_size` or `mshrs` is zero.
    pub fn new(thread: ThreadId, issue_width: usize, window_size: usize, mshrs: usize) -> Self {
        assert!(issue_width > 0, "issue width must be non-zero");
        assert!(window_size > 0, "window must be non-zero");
        assert!(mshrs > 0, "mshr count must be non-zero");
        Self {
            thread,
            issue_width: issue_width as u64,
            window: window_size as u64,
            mshrs,
            anchor_instr: 0,
            anchor_cycle: 0,
            bursts: VecDeque::new(),
            id_floor: 0,
            next_burst: None,
            last_burst_instr: 0,
            misses_issued: 0,
            misses_completed: 0,
        }
    }

    /// The thread this core runs.
    #[inline]
    pub fn thread(&self) -> ThreadId {
        self.thread
    }

    /// Instructions executed as of the last poll.
    #[inline]
    pub fn retired(&self) -> u64 {
        self.anchor_instr
    }

    /// Misses injected into the memory system so far.
    #[inline]
    pub fn misses_issued(&self) -> u64 {
        self.misses_issued
    }

    /// Misses that have completed so far.
    #[inline]
    pub fn misses_completed(&self) -> u64 {
        self.misses_completed
    }

    /// Number of currently outstanding misses.
    #[inline]
    pub fn outstanding(&self) -> usize {
        (self.misses_issued - self.misses_completed) as usize
    }

    /// Schedules the next miss burst: `size` concurrent misses, `gap`
    /// instructions after the previously issued burst (or after
    /// instruction 0 for the first burst).
    ///
    /// # Panics
    ///
    /// Panics if a burst is already scheduled, if `gap` is zero, if
    /// `size` is zero, if it exceeds the MSHR count (such a burst could
    /// never issue), or if it exceeds [`MAX_BURST_SIZE`].
    pub fn schedule_burst(&mut self, gap: u64, size: usize) {
        assert!(self.next_burst.is_none(), "burst already scheduled");
        assert!(gap > 0, "burst gap must be positive");
        assert!(size > 0, "burst must contain at least one access");
        assert!(
            size <= self.mshrs,
            "burst larger than MSHR pool can never issue"
        );
        assert!(
            size <= MAX_BURST_SIZE,
            "burst larger than MAX_BURST_SIZE misses"
        );
        self.next_burst = Some((self.last_burst_instr + gap, size));
    }

    /// First instruction index that cannot execute because of the window:
    /// `min(outstanding issue index) + window`, or `u64::MAX` when no
    /// miss is outstanding. The oldest live burst holds the minimum, so
    /// only the deque front is consulted (drained fronts are popped
    /// eagerly in [`Core::complete`]).
    fn window_limit(&self) -> u64 {
        self.bursts
            .front()
            .map_or(u64::MAX, |b| b.instr.saturating_add(self.window))
    }

    /// Advances execution to `now` and reports the core's status.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than a previous poll (time must be
    /// non-decreasing).
    pub fn poll(&mut self, now: Cycle) -> CoreStatus {
        assert!(now >= self.anchor_cycle, "core polled backwards in time");
        let window_limit = self.window_limit();
        let burst_at = self.next_burst.map(|(at, _)| at).unwrap_or(u64::MAX);
        let target = window_limit.min(burst_at);

        // Materialize progress up to `now`, capped at the target.
        let elapsed = now - self.anchor_cycle;
        let possible = self
            .anchor_instr
            .saturating_add(elapsed.saturating_mul(self.issue_width));
        self.anchor_instr = possible.min(target);
        self.anchor_cycle = now;

        let Some((at, size)) = self.next_burst else {
            return CoreStatus::ComputeOnly;
        };

        if self.anchor_instr >= at {
            // At the burst instruction: can the misses actually enter the
            // machine? The burst instruction must fit in the window and
            // the MSHR pool must have room.
            let outstanding = self.outstanding();
            let window_ok = at < window_limit || outstanding == 0;
            let mshr_ok = outstanding + size <= self.mshrs;
            if window_ok && mshr_ok {
                CoreStatus::WillBurst { at: now }
            } else {
                CoreStatus::Blocked
            }
        } else if window_limit > self.anchor_instr && window_limit >= at {
            // Nothing blocks before the burst instruction.
            let remaining = at - self.anchor_instr;
            let cycles = remaining.div_ceil(self.issue_width);
            CoreStatus::WillBurst { at: now + cycles }
        } else {
            // The window will fill (or already has) before the burst.
            CoreStatus::Blocked
        }
    }

    /// Injects the scheduled burst at the current cycle. Its misses take
    /// the consecutive request ids `first..first + size`, one per access
    /// of the scheduled burst; each becomes outstanding until
    /// [`Core::complete`] reports it.
    ///
    /// Id ranges must increase from burst to burst: `first` must be past
    /// every id of this core's earlier bursts. An engine that draws all
    /// request ids from one counter, a burst's ids consecutively, meets
    /// this for every core.
    ///
    /// Must only be called when [`Core::poll`] returned
    /// `WillBurst { at: now }` for the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if no burst is scheduled, if `first` overlaps or precedes
    /// an earlier burst's ids, if the id range overflows `u64`, if the
    /// core has not reached the burst instruction, or if the MSHR pool
    /// would overflow.
    pub fn issue_burst(&mut self, first: RequestId) {
        let (at, size) = self.next_burst.expect("no burst scheduled");
        let first = first.raw();
        assert!(
            first >= self.id_floor,
            "burst ids must follow the previous burst's ids"
        );
        assert!(
            self.anchor_instr >= at,
            "burst issued before the core reached it"
        );
        assert!(
            self.outstanding() + size <= self.mshrs,
            "burst issued past MSHR capacity"
        );
        self.id_floor = first
            .checked_add(size as u64)
            .expect("burst id range overflows u64");
        // `at > last_burst_instr` (positive gap) and `first` is past the
        // previous range, so pushing at the back keeps both orders.
        self.bursts.push_back(LiveBurst {
            instr: at,
            first,
            live: u64::MAX >> (MAX_BURST_SIZE - size),
        });
        self.misses_issued += size as u64;
        self.last_burst_instr = at;
        self.next_burst = None;
    }

    /// Records completion of the miss with request id `id`.
    ///
    /// The caller should re-poll the core afterwards: a completion can
    /// unblock the window or MSHR pool and move the next burst time.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not outstanding (never issued by this core, or
    /// already completed).
    pub fn complete(&mut self, id: RequestId) {
        let id = id.raw();
        // The last burst starting at or below `id` is the only one whose
        // range can hold it.
        let (i, bit) = self
            .bursts
            .partition_point(|b| b.first <= id)
            .checked_sub(1)
            .and_then(|i| {
                let offset = id - self.bursts[i].first;
                (offset < MAX_BURST_SIZE as u64).then(|| (i, 1u64 << offset))
            })
            .filter(|&(i, bit)| self.bursts[i].live & bit != 0)
            .expect("completion for unknown request");
        self.bursts[i].live &= !bit;
        // Drained middle entries are harmless (the front is always the
        // minimum), but a drained front must go so `window_limit` sees
        // the next live burst.
        while self.bursts.front().is_some_and(|b| b.live == 0) {
            self.bursts.pop_front();
        }
        self.misses_completed += 1;
    }

    /// Whether this core currently has a burst pending injection.
    pub fn has_pending_burst(&self) -> bool {
        self.next_burst.is_some()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn rid(n: u64) -> RequestId {
        RequestId::new(n)
    }

    fn core() -> Core {
        Core::new(ThreadId::new(0), 3, 128, 32)
    }

    #[test]
    fn compute_only_core_runs_at_issue_width() {
        let mut c = core();
        assert_eq!(c.poll(0), CoreStatus::ComputeOnly);
        c.poll(100);
        assert_eq!(c.retired(), 300);
        c.poll(1000);
        assert_eq!(c.retired(), 3000);
    }

    #[test]
    fn burst_time_is_gap_over_issue_width() {
        let mut c = core();
        c.schedule_burst(299, 2);
        // ceil(299/3) = 100.
        assert_eq!(c.poll(0), CoreStatus::WillBurst { at: 100 });
        assert_eq!(c.poll(100), CoreStatus::WillBurst { at: 100 });
        c.issue_burst(rid(0));
        assert_eq!(c.retired(), 299);
        assert_eq!(c.outstanding(), 2);
    }

    #[test]
    fn core_runs_ahead_until_window_fills_then_blocks() {
        let mut c = Core::new(ThreadId::new(0), 1, 8, 4);
        c.schedule_burst(1, 1);
        assert_eq!(c.poll(0), CoreStatus::WillBurst { at: 1 });
        c.poll(1);
        c.issue_burst(rid(0));
        // Next burst far away: the window (8) fills first.
        c.schedule_burst(100, 1);
        assert_eq!(c.poll(1), CoreStatus::Blocked);
        c.poll(50);
        // Executed up to miss instr (1) + window (8) = 9 instructions.
        assert_eq!(c.retired(), 9);
        // Completion unblocks and re-times the burst: burst is at
        // instruction 101, 92 instructions past the current 9.
        c.complete(rid(0));
        assert_eq!(c.poll(50), CoreStatus::WillBurst { at: 50 + 92 });
    }

    #[test]
    fn mshr_exhaustion_blocks_burst() {
        let mut c = Core::new(ThreadId::new(0), 1, 1024, 2);
        c.schedule_burst(1, 2);
        c.poll(1);
        c.issue_burst(rid(0));
        c.schedule_burst(1, 1);
        // Window is huge, but both MSHRs are taken.
        assert_eq!(c.poll(2), CoreStatus::Blocked);
        c.complete(rid(1));
        assert_eq!(c.poll(2), CoreStatus::WillBurst { at: 2 });
    }

    #[test]
    fn latency_sensitive_thread_stalls_full_latency() {
        // Window 4, one miss, the thread stalls from (miss instr + 4)
        // until completion.
        let mut c = Core::new(ThreadId::new(0), 1, 4, 4);
        c.schedule_burst(10, 1);
        assert_eq!(c.poll(0), CoreStatus::WillBurst { at: 10 });
        c.poll(10);
        c.issue_burst(rid(7));
        c.schedule_burst(100, 1);
        c.poll(200); // memory takes 190 cycles, say
        assert_eq!(c.retired(), 14, "ran ahead only window-many instructions");
        c.complete(rid(7));
        let status = c.poll(200);
        // The next burst is at instruction 110; 96 instructions remain.
        assert_eq!(status, CoreStatus::WillBurst { at: 200 + 96 });
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn polling_backwards_panics() {
        let mut c = core();
        c.poll(10);
        c.poll(5);
    }

    #[test]
    #[should_panic(expected = "unknown request")]
    fn completing_unknown_request_panics() {
        let mut c = core();
        c.complete(rid(3));
    }

    #[test]
    #[should_panic(expected = "already scheduled")]
    fn double_scheduling_panics() {
        let mut c = core();
        c.schedule_burst(10, 1);
        c.schedule_burst(10, 1);
    }

    #[test]
    fn issue_requires_reaching_burst_instruction() {
        let mut c = core();
        c.schedule_burst(300, 1);
        c.poll(0);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.issue_burst(rid(0))));
        assert!(result.is_err(), "issuing early must panic");
    }

    #[test]
    fn miss_counters_track_lifecycle() {
        let mut c = core();
        c.schedule_burst(3, 2);
        c.poll(1);
        c.issue_burst(rid(0));
        assert_eq!(c.misses_issued(), 2);
        assert!(!c.has_pending_burst());
        c.complete(rid(0));
        assert_eq!(c.outstanding(), 1);
        assert_eq!(c.misses_completed(), 1);
    }

    /// Issues a `size`-miss burst with ids from `first` as soon as the
    /// core reaches it.
    fn issue_now(c: &mut Core, size: usize, first: u64) {
        c.schedule_burst(1, size);
        let CoreStatus::WillBurst { at } = c.poll(c.anchor_cycle) else {
            panic!("burst blocked");
        };
        assert_eq!(c.poll(at), CoreStatus::WillBurst { at });
        c.issue_burst(rid(first));
    }

    /// Three live bursts: ids 10..13, 20..22 and 30..34.
    fn three_bursts() -> Core {
        let mut c = Core::new(ThreadId::new(0), 1, 1024, 32);
        issue_now(&mut c, 3, 10);
        issue_now(&mut c, 2, 20);
        issue_now(&mut c, 4, 30);
        c
    }

    #[test]
    fn out_of_order_completion_within_and_across_bursts() {
        let mut c = three_bursts();
        assert_eq!(c.outstanding(), 9);
        for id in [32, 11, 21, 33, 10, 30, 20, 12, 31] {
            c.complete(rid(id));
        }
        assert_eq!(c.outstanding(), 0);
        assert!(c.bursts.is_empty(), "every drained burst was popped");
        assert_eq!(c.window_limit(), u64::MAX);
    }

    #[test]
    fn window_follows_the_oldest_live_burst() {
        let mut c = three_bursts();
        let front = c.window_limit();
        for id in [11, 10] {
            c.complete(rid(id));
        }
        assert_eq!(c.window_limit(), front, "burst 10.. still holds a miss");
        c.complete(rid(12));
        assert_eq!(c.window_limit(), front + 1, "front moved to burst 20..");
    }

    #[test]
    fn drained_middle_burst_stays_until_it_reaches_the_front() {
        let mut c = three_bursts();
        c.complete(rid(20));
        c.complete(rid(21));
        assert_eq!(c.bursts.len(), 3, "a drained middle entry is not popped");
        assert_eq!(c.outstanding(), 7);
        for id in [10, 11, 12] {
            c.complete(rid(id));
        }
        // Draining the front pops the drained middle entry too.
        assert_eq!(c.bursts.len(), 1);
        assert_eq!(c.bursts[0].first, 30);
    }

    #[test]
    fn unknown_or_duplicate_ids_panic() {
        let mut drained = three_bursts();
        drained.complete(rid(20));
        drained.complete(rid(21));
        let cases: [(&str, Core, u64); 7] = [
            ("below every burst", three_bursts(), 9),
            ("between bursts", three_bursts(), 13),
            ("past a burst's last id", three_bursts(), 22),
            ("above every burst", three_bursts(), 34),
            ("far above every burst", three_bursts(), 30 + 64),
            ("in a drained middle burst", drained.clone(), 21),
            ("duplicate", drained, 20),
        ];
        for (what, mut c, id) in cases {
            let payload =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.complete(rid(id))))
                    .expect_err(what);
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            assert_eq!(
                message,
                Some("completion for unknown request"),
                "completing id {id} ({what})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown request")]
    fn completing_twice_panics() {
        let mut c = three_bursts();
        c.complete(rid(31));
        c.complete(rid(31));
    }

    #[test]
    #[should_panic(expected = "previous burst's ids")]
    fn overlapping_burst_ids_panic() {
        let mut c = three_bursts();
        issue_now(&mut c, 1, 33);
    }

    #[test]
    fn a_full_width_burst_tracks_every_miss() {
        let mut c = Core::new(ThreadId::new(0), 1, 1024, 128);
        issue_now(&mut c, MAX_BURST_SIZE, 1000);
        for id in (1000..1000 + MAX_BURST_SIZE as u64).rev() {
            c.complete(rid(id));
        }
        assert_eq!(c.outstanding(), 0);
        assert!(c.bursts.is_empty());
    }

    #[test]
    #[should_panic(expected = "MAX_BURST_SIZE")]
    fn oversized_burst_panics() {
        let mut c = Core::new(ThreadId::new(0), 1, 1024, 128);
        c.schedule_burst(1, MAX_BURST_SIZE + 1);
    }

    #[test]
    fn blocked_core_does_not_pass_window_even_with_long_poll_gaps() {
        let mut c = Core::new(ThreadId::new(0), 3, 16, 8);
        c.schedule_burst(2, 1);
        c.poll(1);
        c.issue_burst(rid(0));
        c.schedule_burst(1000, 1);
        for t in [10u64, 100, 10_000] {
            c.poll(t);
            assert_eq!(c.retired(), 2 + 16);
        }
    }
}
