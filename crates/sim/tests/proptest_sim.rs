//! Property tests for the simulator layer: event-queue ordering against a
//! reference model, metric identities, and whole-system robustness over
//! random workloads.

use proptest::prelude::*;
use std::collections::BTreeSet;
use tcm_sim::{workload_metrics, Event, EventQueue, IpcPair, MultiSystem, PolicyKind, System};
use tcm_types::{SystemConfig, ThreadId, Topology};
use tcm_workload::{BenchmarkProfile, WorkloadSpec};

/// The full policy lineup used by the whole-system properties.
fn policy_lineup(n: usize) -> [PolicyKind; 6] {
    [
        PolicyKind::Fcfs,
        PolicyKind::FrFcfs,
        PolicyKind::Stfm(Default::default()),
        PolicyKind::ParBs(Default::default()),
        PolicyKind::Atlas(Default::default()),
        PolicyKind::Tcm(tcm_core::TcmParams::reproduction_default(n)),
    ]
}

/// Builds a random workload from proptest-drawn `(mpki, rbl, blp)`
/// profile triples.
fn workload_from(profiles: &[(f64, f64, f64)]) -> WorkloadSpec {
    let threads: Vec<BenchmarkProfile> = profiles
        .iter()
        .enumerate()
        .map(|(i, &(mpki, rbl, blp))| BenchmarkProfile::new(format!("p{i}"), mpki, rbl, blp))
        .collect();
    WorkloadSpec::new("prop", threads)
}

/// One step of the interleaved event-queue model test. Offsets are
/// relative to `base`, the latest cycle popped so far.
#[derive(Debug, Clone, Copy)]
enum QueueOp {
    /// Push at `base + ahead`.
    PushAhead(u64),
    /// Push `back` cycles behind `base` (saturating at cycle 0).
    PushBehind(u64),
    Pop,
    /// `pop_at_or_before(base + offset - 512)`, saturating at cycle 0.
    PopBounded(u64),
    Peek,
}

/// Pushes hit the wheel's edges (the last popped cycle itself,
/// `base + 1023`, `base + 1024`), land behind it or 10M cycles ahead,
/// and span thousands of cycles so the 1024-slot ring wraps many times.
fn queue_op() -> impl Strategy<Value = QueueOp> {
    (0u32..19, 0u64..3_000).prop_map(|(kind, n)| match kind {
        0..=5 => QueueOp::PushAhead(n),
        6 => QueueOp::PushAhead(0),
        7 => QueueOp::PushAhead(1_023),
        8 => QueueOp::PushAhead(1_024),
        9 => QueueOp::PushAhead(10_000_000),
        10 => QueueOp::PushBehind(1 + n % 2_000),
        11..=15 => QueueOp::Pop,
        16 | 17 => QueueOp::PopBounded(n),
        _ => QueueOp::Peek,
    })
}

/// A popped event as `(cycle, push index)`; the model test stamps the
/// push index into the burst epoch.
fn popped(entry: Option<(u64, Event)>) -> Option<(u64, u64)> {
    entry.map(|(cycle, event)| match event {
        Event::CoreBurst { epoch, .. } => (cycle, epoch),
        other => panic!("unexpected event {other:?}"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The event queue pops in (cycle, insertion) order — checked against
    /// a sorted reference model.
    #[test]
    fn event_queue_matches_reference_sort(cycles in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for &c in &cycles {
            q.push(c, Event::SchedTick);
        }
        let mut reference: Vec<(u64, usize)> = cycles.iter().copied().zip(0..).collect();
        reference.sort_by_key(|&(c, i)| (c, i));
        let mut popped = Vec::new();
        while let Some((c, _)) = q.pop() {
            popped.push(c);
        }
        let expected: Vec<u64> = reference.into_iter().map(|(c, _)| c).collect();
        prop_assert_eq!(popped, expected);
    }

    /// Random interleavings of push, pop, bounded pop and peek match a
    /// sorted `(cycle, push index)` reference, including pushes behind
    /// the last pop and at the edges of the wheel's window.
    #[test]
    fn event_queue_matches_reference_under_interleaving(
        ops in proptest::collection::vec(queue_op(), 1..600),
    ) {
        let mut q = EventQueue::new();
        let mut reference: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut base = 0u64;
        let mut pushed = 0u64;
        let mut push = |q: &mut EventQueue, reference: &mut BTreeSet<_>, cycle: u64| {
            q.push(cycle, Event::CoreBurst { thread: ThreadId::new(0), epoch: pushed });
            reference.insert((cycle, pushed));
            pushed += 1;
        };
        for op in ops {
            let (got, expected) = match op {
                QueueOp::PushAhead(ahead) => {
                    push(&mut q, &mut reference, base + ahead);
                    (None, None)
                }
                QueueOp::PushBehind(back) => {
                    push(&mut q, &mut reference, base.saturating_sub(back));
                    (None, None)
                }
                QueueOp::Pop => (popped(q.pop()), reference.pop_first()),
                QueueOp::PopBounded(offset) => {
                    let bound = (base + offset).saturating_sub(512);
                    let due = reference.first().is_some_and(|&(c, _)| c <= bound);
                    let expected = if due { reference.pop_first() } else { None };
                    (popped(q.pop_at_or_before(bound)), expected)
                }
                QueueOp::Peek => {
                    prop_assert_eq!(q.peek_cycle(), reference.first().map(|&(c, _)| c));
                    (None, None)
                }
            };
            prop_assert_eq!(got, expected);
            if let Some((cycle, _)) = got {
                base = base.max(cycle);
            }
            prop_assert_eq!(q.len(), reference.len());
        }
        let rest: Vec<(u64, u64)> = std::iter::from_fn(|| popped(q.pop())).collect();
        prop_assert_eq!(rest, reference.into_iter().collect::<Vec<_>>());
    }

    /// Metric identities hold for arbitrary IPC pairs: WS <= N,
    /// HS <= min speedup... HS <= 1 when nothing speeds up, and
    /// maxSD >= every individual slowdown's lower bound.
    #[test]
    fn metric_identities(
        pairs in proptest::collection::vec((0.001..3.0f64, 0.001..3.0f64), 1..32),
    ) {
        let ipc: Vec<IpcPair> = pairs
            .iter()
            .map(|&(shared, alone)| IpcPair { shared: shared.min(alone), alone })
            .collect();
        let m = workload_metrics(&ipc);
        prop_assert!(m.weighted_speedup <= ipc.len() as f64 + 1e-9);
        prop_assert!(m.weighted_speedup >= 0.0);
        prop_assert!(m.max_slowdown >= 1.0 - 1e-9, "shared <= alone => slowdown >= 1");
        prop_assert!(m.harmonic_speedup <= 1.0 + 1e-9);
        // HS <= WS/N <= max speedup.
        prop_assert!(m.harmonic_speedup <= m.weighted_speedup / ipc.len() as f64 + 1e-9);
    }

    /// The full system never panics, never loses requests, and always
    /// makes progress for arbitrary small workloads under every policy.
    #[test]
    fn system_robustness(
        profiles in proptest::collection::vec(
            (0.0..80.0f64, 0.0..1.0f64, 1.0..8.0f64),
            1..6,
        ),
        policy_index in 0usize..6,
        seed in any::<u64>(),
    ) {
        let n = profiles.len();
        let cfg = SystemConfig::builder().num_threads(n).build().unwrap();
        let workload = workload_from(&profiles);
        let kinds = policy_lineup(n);
        let kind = &kinds[policy_index % kinds.len()];
        let mut sys = System::new(&cfg, &workload, kind.build(n, &cfg), seed);
        let horizon = 120_000;
        let r = sys.run(horizon);
        prop_assert_eq!(r.cycles, horizon);
        let injected: u64 = r.misses.iter().sum();
        prop_assert!(r.total_serviced <= injected);
        for (i, &retired) in r.retired.iter().enumerate() {
            prop_assert!(retired > 0, "thread {i} made no progress");
            prop_assert!(retired <= horizon * cfg.issue_width as u64);
        }
        prop_assert!((0.0..=1.0).contains(&r.row_hit_rate));
    }

    /// Skip-ahead stepping is bit-identical to the per-event reference
    /// path: the timing-wheel event queue plus strided probe checks must
    /// produce exactly the same `RunResult` (every counter, every float
    /// bit) as the plain binary-heap ordering on random workloads under
    /// every policy. This is the property the SoA/skip-ahead hot path is
    /// allowed to assume.
    #[test]
    fn skip_ahead_matches_per_event_reference(
        profiles in proptest::collection::vec(
            (0.0..80.0f64, 0.0..1.0f64, 1.0..8.0f64),
            2..6,
        ),
        policy_index in 0usize..6,
        seed in any::<u64>(),
    ) {
        let n = profiles.len();
        let cfg = SystemConfig::builder().num_threads(n).build().unwrap();
        let workload = workload_from(&profiles);
        let kinds = policy_lineup(n);
        let kind = &kinds[policy_index % kinds.len()];
        let horizon = 150_000;

        let mut fast = System::new(&cfg, &workload, kind.build(n, &cfg), seed);
        let fast_result = fast.run(horizon);

        let mut reference = System::new(&cfg, &workload, kind.build(n, &cfg), seed);
        reference.set_reference_event_order(true);
        let reference_result = reference.run(horizon);

        prop_assert_eq!(fast_result, reference_result);
    }

    /// The multi-controller window loop's fast paths (empty-window
    /// skip-ahead, adaptive inline stepping, reused merge scratch) keep
    /// the determinism contract: results are bit-identical whichever
    /// host count partitions the shards.
    #[test]
    fn multi_window_skip_is_host_count_invariant(
        profiles in proptest::collection::vec(
            (0.0..60.0f64, 0.0..1.0f64, 1.0..8.0f64),
            2..6,
        ),
        policy_index in 0usize..6,
        hosts in 2usize..5,
        seed in any::<u64>(),
    ) {
        let n = profiles.len();
        let cfg = SystemConfig::builder()
            .num_threads(n)
            .topology(Topology::uniform(2, 2))
            .build()
            .unwrap();
        let workload = workload_from(&profiles);
        let kinds = policy_lineup(n);
        let kind = &kinds[policy_index % kinds.len()];
        let horizon = 100_000;

        let build = |kind: &PolicyKind| {
            let controllers = (0..cfg.topology.num_controllers())
                .map(|_| kind.build_controller(n, &cfg))
                .collect();
            MultiSystem::new(&cfg, &workload, controllers, kind.build_meta(n, &cfg), seed)
        };
        let mut sequential = build(kind);
        sequential.set_hosts(1);
        let baseline = sequential.run(horizon);

        let mut sharded = build(kind);
        sharded.set_hosts(hosts);
        prop_assert_eq!(sharded.run(horizon), baseline);
    }
}
