//! Criterion micro-benchmarks for the scheduling-policy kernels: the
//! per-decision `pick` latency of every policy (the operation on the
//! critical path of every DRAM scheduling decision in Figures 1/4–7),
//! one whole request lifecycle per policy (`policy_cycle`), the core
//! model's burst issue and completion (`core_burst`), plus TCM's
//! quantum-boundary machinery (clustering, niceness, shuffling).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use tcm_core::{
    cluster_threads, niceness_scores, InsertionShuffler, InsertionVariant, RandomShuffler, Tcm,
    TcmParams,
};
use tcm_cpu::{Core, CoreStatus};
use tcm_dram::ServiceOutcome;
use tcm_sched::{Atlas, Fcfs, FrFcfs, ParBs, PickContext, Scheduler, Stfm};
use tcm_types::{
    BankId, ChannelId, MemAddress, Request, RequestId, Row, RowState, SystemConfig, ThreadId,
};

/// Builds a realistic pending-queue snapshot: `n` requests from distinct
/// threads, mixed rows.
fn pending(n: usize) -> Vec<Request> {
    (0..n)
        .map(|i| {
            Request::new(
                RequestId::new(i as u64),
                ThreadId::new(i % 24),
                MemAddress::new(ChannelId::new(0), BankId::new(0), Row::new(i % 7)),
                (i as u64) * 13,
            )
        })
        .collect()
}

fn ctx() -> PickContext {
    PickContext {
        now: 1_000_000,
        channel: ChannelId::new(0),
        bank: BankId::new(0),
        open_row: Some(Row::new(3)),
    }
}

fn bench_pick(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_pick");
    let queue = pending(12);
    let context = ctx();
    let cfg = SystemConfig::paper_baseline();

    for mut policy in lineup(&cfg) {
        // PAR-BS needs its queue mirror populated.
        for r in &queue {
            policy.on_enqueue(r, 0);
        }
        group.bench_with_input(
            BenchmarkId::from_parameter(policy.name()),
            &queue,
            |b, queue| b.iter(|| black_box(policy.pick(black_box(queue), &context))),
        );
    }
    group.finish();
}

/// Every policy, fresh, for 24 threads on `cfg`.
fn lineup(cfg: &SystemConfig) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Fcfs::new()),
        Box::new(FrFcfs::new()),
        Box::new(Stfm::new(24)),
        Box::new(ParBs::new(24)),
        Box::new(Atlas::new(24)),
        Box::new(Tcm::with_params(
            TcmParams::reproduction_default(24),
            24,
            cfg,
        )),
    ]
}

/// Banks of the channel the `policy_cycle` queue spreads over.
const CYCLE_BANKS: usize = 4;
/// Queued requests per bank in `policy_cycle`.
const CYCLE_DEPTH: usize = 3;

/// One request lifecycle per iteration over a rolling 12-request queue
/// on one channel (3 per bank, 4 banks, 24 threads): `pick` on the next
/// bank's pending set, then `on_service` and `on_complete` for the
/// picked request, then `on_enqueue` of its replacement on the same
/// bank. Unlike `policy_pick`, this drains PAR-BS batches, so it pays
/// for batch formation at the rate the queue turns over, and it feeds
/// STFM's slowdown estimates so its extremes scan sees active threads.
fn bench_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("policy_cycle");
    let cfg = SystemConfig::paper_baseline();
    for mut policy in lineup(&cfg) {
        let mut next_id = 0u64;
        let mut now = 1_000u64;
        // A fixed LCG varies threads and rows without an RNG dependency.
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut fresh = |bank: usize, id: u64, now: u64| {
            lcg = lcg.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let draw = (lcg >> 33) as usize;
            Request::new(
                RequestId::new(id),
                ThreadId::new(draw % 24),
                MemAddress::new(
                    ChannelId::new(0),
                    BankId::new(bank),
                    Row::new(draw / 24 % 4),
                ),
                now,
            )
        };
        let mut queues: Vec<Vec<Request>> = (0..CYCLE_BANKS)
            .map(|bank| {
                (0..CYCLE_DEPTH)
                    .map(|_| {
                        next_id += 1;
                        let r = fresh(bank, next_id, now);
                        policy.on_enqueue(&r, now);
                        r
                    })
                    .collect()
            })
            .collect();
        let mut open_rows = [None; CYCLE_BANKS];
        let mut bank = 0;
        group.bench_function(BenchmarkId::from_parameter(policy.name()), |b| {
            b.iter(|| {
                now += 50;
                let context = PickContext {
                    now,
                    channel: ChannelId::new(0),
                    bank: BankId::new(bank),
                    open_row: open_rows[bank],
                };
                let pending = &mut queues[bank];
                let picked = pending.swap_remove(policy.pick(black_box(pending), &context));
                let row_state = if open_rows[bank] == Some(picked.addr.row) {
                    RowState::Hit
                } else {
                    RowState::Conflict
                };
                open_rows[bank] = Some(picked.addr.row);
                let outcome = ServiceOutcome {
                    request: picked,
                    row_state,
                    bank_start: now,
                    bank_free: now + 100,
                    completes_at: now + 200,
                    service_cycles: 100,
                };
                policy.on_service(&outcome, pending, now);
                policy.on_complete(&picked, now + 200);
                next_id += 1;
                let r = fresh(bank, next_id, now);
                policy.on_enqueue(&r, now);
                pending.push(r);
                bank = (bank + 1) % CYCLE_BANKS;
            })
        });
    }
    group.finish();
}

/// Misses per burst in `core_burst`.
const BURST: u64 = 4;
/// Misses outstanding when each `core_burst` iteration starts (the
/// paper machine's MSHR count).
const OUTSTANDING: u64 = 32;

/// One burst turnover per iteration with 32 misses outstanding, in
/// bursts of 4: the oldest burst's misses complete in reverse id order,
/// then a new burst is scheduled, polled and issued.
fn bench_core(c: &mut Criterion) {
    c.bench_function("core_burst/issue_complete_32", |b| {
        let mut core = Core::new(ThreadId::new(0), 3, 128, OUTSTANDING as usize);
        let mut now = 0;
        let mut next_id = 0u64;
        let mut issue = |core: &mut Core, now: &mut u64| {
            core.schedule_burst(1, BURST as usize);
            *now += 1;
            assert_eq!(core.poll(*now), CoreStatus::WillBurst { at: *now });
            core.issue_burst(RequestId::new(next_id));
            next_id += BURST;
        };
        for _ in 0..OUTSTANDING / BURST {
            issue(&mut core, &mut now);
        }
        let mut oldest = 0;
        b.iter(|| {
            for id in (oldest..oldest + BURST).rev() {
                core.complete(black_box(RequestId::new(id)));
            }
            oldest += BURST;
            issue(&mut core, &mut now);
        });
        assert_eq!(core.outstanding() as u64, OUTSTANDING);
    });
}

fn bench_tcm_quantum_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("tcm_quantum_kernels");
    let n = 24;
    let mpki: Vec<f64> = (0..n).map(|i| i as f64 * 4.0 + 0.1).collect();
    let bw: Vec<u64> = (0..n).map(|i| (i as u64 + 1) * 10_000).collect();
    group.bench_function("clustering_algorithm1", |b| {
        b.iter(|| black_box(cluster_threads(black_box(&mpki), black_box(&bw), 4.0 / 24.0)))
    });

    let blp: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let rbl: Vec<f64> = (0..n).map(|i| (i % 10) as f64 / 10.0).collect();
    group.bench_function("niceness", |b| {
        b.iter(|| black_box(niceness_scores(black_box(&blp), black_box(&rbl))))
    });

    let entries: Vec<(ThreadId, i64)> =
        (0..12).map(|i| (ThreadId::new(i), (i % 5) as i64)).collect();
    let mut printed = InsertionShuffler::with_variant(entries.clone(), InsertionVariant::Printed);
    group.bench_function("insertion_shuffle_advance", |b| {
        b.iter(|| {
            printed.advance();
            black_box(printed.ranking_vec())
        })
    });
    let mut random = RandomShuffler::new((0..12).map(ThreadId::new).collect(), 7);
    group.bench_function("random_shuffle_advance", |b| {
        b.iter(|| {
            random.advance();
            black_box(random.ranking().first().copied())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pick,
    bench_cycle,
    bench_core,
    bench_tcm_quantum_kernels
);
criterion_main!(benches);
