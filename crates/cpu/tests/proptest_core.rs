//! Property tests for the core model: progress bounds and window
//! semantics under arbitrary burst/completion interleavings.

use proptest::prelude::*;
use tcm_cpu::{Core, CoreStatus};
use tcm_types::{RequestId, ThreadId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Retired instructions are monotone, never exceed `issue_width *
    /// cycles`, and never run more than `window` past the oldest
    /// outstanding miss.
    #[test]
    fn progress_is_bounded(
        issue_width in 1usize..4,
        window in 4usize..64,
        gaps in proptest::collection::vec(1u64..200, 1..20),
        poll_step in 1u64..500,
    ) {
        let mut core = Core::new(ThreadId::new(0), issue_width, window, 64);
        let mut next_id = 0u64;
        let mut outstanding: Vec<(RequestId, u64)> = Vec::new();
        let mut gap_iter = gaps.iter().cycle();
        core.schedule_burst(*gap_iter.next().unwrap(), 1);
        let mut now = 0u64;
        let mut last_retired = 0u64;
        let mut issued_instr: Vec<u64> = Vec::new();
        for _ in 0..200 {
            let status = core.poll(now);
            // Monotonicity and the raw issue-rate bound.
            prop_assert!(core.retired() >= last_retired);
            prop_assert!(core.retired() <= now * issue_width as u64);
            // Window bound: retired <= oldest outstanding instr + window.
            if let Some(&min_instr) = issued_instr.iter().min() {
                if !outstanding.is_empty() {
                    prop_assert!(core.retired() <= min_instr + window as u64);
                }
            }
            last_retired = core.retired();
            match status {
                CoreStatus::WillBurst { at } if at <= now => {
                    let id = RequestId::new(next_id);
                    next_id += 1;
                    outstanding.push((id, core.retired()));
                    issued_instr.push(core.retired());
                    core.issue_burst(id);
                    core.schedule_burst(*gap_iter.next().unwrap(), 1);
                }
                CoreStatus::WillBurst { at } => {
                    now = at;
                    continue;
                }
                CoreStatus::Blocked => {
                    // Complete the oldest miss to unblock.
                    if let Some((id, instr)) = outstanding.first().copied() {
                        core.complete(id);
                        outstanding.remove(0);
                        if let Some(pos) = issued_instr.iter().position(|&x| x == instr) {
                            issued_instr.remove(pos);
                        }
                    }
                    now += poll_step;
                }
                CoreStatus::ComputeOnly => break,
            }
        }
    }

    /// A core with no scheduled bursts retires exactly
    /// `issue_width * cycles` instructions.
    #[test]
    fn compute_only_rate_is_exact(
        issue_width in 1usize..4,
        cycles in 1u64..10_000,
    ) {
        let mut core = Core::new(ThreadId::new(0), issue_width, 128, 8);
        prop_assert_eq!(core.poll(cycles), CoreStatus::ComputeOnly);
        prop_assert_eq!(core.retired(), cycles * issue_width as u64);
    }

    /// Completions always unblock a window-blocked core (the core never
    /// deadlocks with completions flowing).
    #[test]
    fn completions_unblock(
        window in 2usize..32,
        gap in 1u64..10,
    ) {
        let mut core = Core::new(ThreadId::new(0), 1, window, 4);
        core.schedule_burst(gap, 1);
        let mut now = 0;
        let mut pending = Vec::new();
        let mut next_id = 0u64;
        for _ in 0..50 {
            match core.poll(now) {
                CoreStatus::WillBurst { at } if at <= now => {
                    let id = RequestId::new(next_id);
                    next_id += 1;
                    core.issue_burst(id);
                    pending.push(id);
                    core.schedule_burst(gap, 1);
                }
                CoreStatus::WillBurst { at } => now = at,
                CoreStatus::Blocked => {
                    prop_assert!(!pending.is_empty(), "blocked without outstanding misses");
                    core.complete(pending.remove(0));
                    // After completing the oldest miss, the core must not
                    // be Blocked at the same instant anymore unless MSHRs
                    // are still full (they cannot be: we just freed one).
                    let status = core.poll(now);
                    prop_assert_ne!(status, CoreStatus::Blocked);
                }
                CoreStatus::ComputeOnly => unreachable!("bursts always rescheduled"),
            }
        }
    }
}
