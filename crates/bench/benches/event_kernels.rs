//! Criterion micro-benchmarks for the engine's event queue: one push
//! plus one pop per iteration at a steady queue size, on two event
//! mixes.
//!
//! * `engine_mix` follows the paper machine (24 threads, 4 channels x 4
//!   banks): completions and bank wakeups a few hundred cycles ahead and
//!   nondecreasing per channel, core bursts a few hundred to a few
//!   thousand cycles ahead, and one scheduler tick 1M cycles out.
//! * `probe_mix` repeats the benchmark harness's `sim.event_push_pop_ns`
//!   probe: a push at `now + 100..400` by a fixed 4-way rotation, then a
//!   pop, over 24 resident core bursts.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tcm_sim::{Event, EventQueue};
use tcm_types::{BankId, ChannelId, MemAddress, Request, RequestId, Row, ThreadId};

const THREADS: u64 = 24;
const CHANNELS: u64 = 4;
const BANKS: u64 = 4;
/// The scheduler quantum the tick re-arms at (ATLAS's and TCM's 1M).
const QUANTUM: u64 = 1_000_000;

fn request(id: u64, thread: usize, channel: usize) -> Request {
    Request::new(
        RequestId::new(id),
        ThreadId::new(thread),
        MemAddress::new(
            ChannelId::new(channel),
            BankId::new((id % BANKS) as usize),
            Row::new((id % 64) as usize),
        ),
        id,
    )
}

/// Each popped event schedules its successor, as in the engine: a burst
/// issues a request whose completion lands a fixed overhead after its
/// data-bus slot, a completion lets its core run to the next burst, a
/// bank wakeup is followed by the bank's next service, and the tick
/// re-arms a quantum ahead. Bus slots only move forward per channel, so
/// completion and wakeup cycles are nondecreasing per channel, as the
/// engine's `DataBus` reservations make them.
fn bench_engine_mix(c: &mut Criterion) {
    c.bench_function("event_queue/engine_mix", |b| {
        let mut q = EventQueue::new();
        for t in 0..THREADS {
            let thread = ThreadId::new(t as usize);
            q.push(300 + t * 131, Event::CoreBurst { thread, epoch: 0 });
        }
        for ch in 0..CHANNELS {
            for k in 0..BANKS {
                let (channel, bank) = (ChannelId::new(ch as usize), BankId::new(k as usize));
                q.push(100 + ch * 7 + k, Event::BankReady { channel, bank });
            }
        }
        q.push(QUANTUM, Event::SchedTick);
        let mut bus_end = [0u64; CHANNELS as usize];
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let (now, event) = q.pop().expect("the mix keeps its size");
            let jitter = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 52; // 0..4096
            let mut reserve = |channel: usize, earliest: u64| {
                bus_end[channel] = bus_end[channel].max(earliest) + 4 + jitter % 60;
                bus_end[channel]
            };
            let (at, next) = match event {
                Event::CoreBurst { thread, .. } => {
                    let channel = (i % CHANNELS) as usize;
                    let request = request(i, thread.index(), channel);
                    (reserve(channel, now + 100) + 100, Event::Completion { request })
                }
                Event::Completion { request } => (
                    now + 300 + jitter,
                    Event::CoreBurst { thread: request.thread, epoch: i },
                ),
                Event::BankReady { channel, bank } => {
                    (reserve(channel.index(), now + 40), Event::BankReady { channel, bank })
                }
                Event::SchedTick => (now + QUANTUM, Event::SchedTick),
            };
            q.push(at, next);
            black_box(now)
        })
    });
}

/// The same push pattern as the benchmark harness's event probe.
fn bench_probe_mix(c: &mut Criterion) {
    c.bench_function("event_queue/probe_mix", |b| {
        let mut q = EventQueue::new();
        for t in 0..THREADS {
            let thread = ThreadId::new(t as usize);
            q.push(t * 17, Event::CoreBurst { thread, epoch: 0 });
        }
        let mut now = 0u64;
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            now += 3;
            let channel = (i % CHANNELS) as usize;
            let (at, event) = match i % 4 {
                0 => (
                    now + (i * 7919) % 400,
                    Event::CoreBurst { thread: ThreadId::new((i % THREADS) as usize), epoch: i },
                ),
                1 => (
                    now + 100,
                    Event::BankReady {
                        channel: ChannelId::new(channel),
                        bank: BankId::new((i % BANKS) as usize),
                    },
                ),
                _ => {
                    let request = request(i, (i % THREADS) as usize, channel);
                    (now + 150, Event::Completion { request })
                }
            };
            q.push(at, event);
            black_box(q.pop_at_or_before(u64::MAX).is_some())
        })
    });
}

criterion_group!(benches, bench_engine_mix, bench_probe_mix);
criterion_main!(benches);
