//! Criterion micro-benchmarks for the DRAM and workload substrates: bank
//! service timing, channel issue, shadow row-buffer updates, and trace
//! generation — the inner loops every experiment spends its time in.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tcm_dram::{Channel, ShadowRowBuffer};
use tcm_types::{
    BankId, ChannelId, DramTiming, MemAddress, Request, RequestId, Row, ThreadId,
};
use tcm_workload::{spec_by_name, MachineShape, TraceGenerator};

fn bench_channel_issue(c: &mut Criterion) {
    let timing = DramTiming::ddr2_800();
    c.bench_function("channel_enqueue_issue_roundtrip", |b| {
        let mut ch = Channel::with_threads(ChannelId::new(0), 4, 128, 24);
        let mut id = 0u64;
        let mut now = 0u64;
        b.iter(|| {
            let req = Request::new(
                RequestId::new(id),
                ThreadId::new((id % 24) as usize),
                MemAddress::new(
                    ChannelId::new(0),
                    BankId::new((id % 4) as usize),
                    Row::new((id % 64) as usize),
                ),
                now,
            );
            id += 1;
            ch.enqueue(req).expect("buffer never fills at rate 1");
            let outcome = ch.issue_at(req.addr.bank.index(), 0, now, &timing);
            now = outcome.bank_free.max(now + 1);
            black_box(outcome.completes_at)
        })
    });
}

fn bench_shadow_row_buffer(c: &mut Criterion) {
    c.bench_function("shadow_row_buffer_access", |b| {
        let mut shadow = ShadowRowBuffer::new(24, 16);
        let mut i = 0usize;
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(shadow.access(
                ThreadId::new(i % 24),
                BankId::new(i % 16),
                Row::new(i % 128),
            ))
        })
    });
}

fn bench_trace_generation(c: &mut Criterion) {
    let shape = MachineShape {
        num_channels: 4,
        banks_per_channel: 4,
        rows_per_bank: 16384,
    };
    let mut group = c.benchmark_group("trace_generation");
    for name in ["mcf", "libquantum", "povray"] {
        let profile = spec_by_name(name).expect("Table 4 benchmark");
        let mut generator = TraceGenerator::new(&profile, shape, 1);
        group.bench_function(name, |b| b.iter(|| black_box(generator.next_burst())));
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_channel_issue,
    bench_shadow_row_buffer,
    bench_trace_generation
);
criterion_main!(benches);
