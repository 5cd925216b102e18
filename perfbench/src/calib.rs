//! A fixed reference computation, timed next to the program under test,
//! so that the host's speed can be divided out of host-second figures.
//!
//! A shared host has slow phases that last from a fraction of a second
//! to minutes (other tenants on the same cores, caches and memory):
//! every instruction takes longer, by up to 2x, and a whole run can
//! land in one. The reference kernel lives in the benchmark, never in
//! the program, so a change to the program cannot move it. Timed right
//! before and after each measured interval, it gives the host's speed
//! during that interval.
//!
//! The kernel has the shape of the engine's inner loop: a binary-heap
//! event queue, per-bank request queues scanned for the oldest row hit
//! and else the oldest request (FR-FCFS), a xorshift stream standing in
//! for the trace generator, and a random read-modify-write into a 1 MiB
//! table standing in for per-thread and per-bank state. Of the kernels
//! tried (pure random memory walks over 1–8 MiB; this loop without the
//! table, with a 256 KiB, 4 MiB or 16 MiB table, or with its table
//! allocated per timing), this one tracked the engine's slow phases
//! best: per cell, correlation 0.5–0.9 with the engine's slowdown, slope
//! about 1. The tracking is partial, so the benchmark also keeps the
//! median of each cell's repetitions.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Kernel steps per timing: about 8 ms on a quiet 2-core Xeon VM.
const STEPS: u32 = 200_000;
/// Words in the state table (1 MiB).
const WORDS: usize = 1 << 17;
/// Timings per calibration; the median is kept.
const REPS: usize = 3;
/// Seconds one kernel run takes on the reference host (a quiet 2-core
/// Xeon VM). Scaled figures are host seconds at that speed.
pub const REFERENCE_S: f64 = 0.008;

const BANKS: usize = 16;
const QUEUE: usize = 32;

/// One run of the reference kernel; returns a value that depends on
/// every step, so the work cannot be optimised away.
fn kernel(steps: u32, table: &mut [u64]) -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut events: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    let mut banks: Vec<Vec<(u32, u64)>> = (0..BANKS).map(|_| Vec::with_capacity(QUEUE)).collect();
    let mut open_row = [0u32; BANKS];
    let mut now = 0u64;
    let mut served = 0u64;
    for id in 0..64 {
        events.push(Reverse((next() % 64, id)));
    }
    for _ in 0..steps {
        let Some(Reverse((at, id))) = events.pop() else {
            break;
        };
        now = now.max(at);
        let r = next();
        let slot = (r as usize >> 3) % WORDS;
        table[slot] = table[slot].wrapping_add(now);
        let bank = (r as usize) % BANKS;
        let queue = &mut banks[bank];
        if queue.len() < QUEUE {
            queue.push(((r >> 8) as u32 % 64, now ^ (table[slot] & 1)));
        }
        let pick = queue
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(row, arrival))| (row != open_row[bank], arrival))
            .map(|(i, _)| i);
        if let Some(i) = pick {
            let (row, arrival) = queue.swap_remove(i);
            let latency = if row == open_row[bank] { 15 } else { 45 };
            open_row[bank] = row;
            served = served.wrapping_add(now.wrapping_sub(arrival) + latency);
        }
        events.push(Reverse((now + 1 + (r >> 40) % 50, id)));
    }
    served ^ now ^ table[(served as usize) % WORDS]
}

thread_local! {
    /// The kernel's state table, allocated once per thread so that no
    /// timing includes page faults (which a VM makes slow and erratic).
    static TABLE: RefCell<Vec<u64>> = RefCell::new(vec![1; WORDS]);
}

/// Seconds the reference kernel takes now (median of [`REPS`]).
pub fn measure() -> f64 {
    let mut t: Vec<f64> = TABLE.with(|table| {
        let table = &mut table.borrow_mut();
        (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                black_box(kernel(black_box(STEPS), table));
                t0.elapsed().as_secs_f64()
            })
            .collect()
    });
    t.sort_by(f64::total_cmp);
    t[REPS / 2]
}

/// The factor that scales host seconds measured between two
/// calibrations, `before` and `after`, to the reference host's speed.
pub fn scale(before: f64, after: f64) -> f64 {
    REFERENCE_S * 2.0 / (before + after)
}
