//! PAR-BS: parallelism-aware batch scheduling (Mutlu & Moscibroda, ISCA
//! 2008).

use crate::fasthash::BuildFastIdHasher;
use crate::select::{age_key, pick_max_by_key, row_hit};
use crate::{PickContext, Scheduler};
use std::collections::HashSet;
use tcm_dram::ServiceOutcome;
use tcm_types::{ChannelId, Cycle, Request, RequestId};

/// PAR-BS configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParBsParams {
    /// Maximum marked requests per thread per bank when forming a batch
    /// (the TCM paper evaluates PAR-BS with BatchCap 5 and sweeps 1–10 in
    /// its Figure 6).
    pub batch_cap: usize,
}

impl ParBsParams {
    /// The TCM paper's PAR-BS configuration (BatchCap 5).
    pub fn paper_default() -> Self {
        Self { batch_cap: 5 }
    }
}

impl Default for ParBsParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Per-channel batch state.
#[derive(Debug, Clone, Default)]
struct BatchState {
    /// Requests marked into the current batch. Membership is tested for
    /// every pending candidate on every pick, so the set uses the cheap
    /// id hasher; its iteration order is never observed.
    marked: HashSet<RequestId, BuildFastIdHasher>,
    /// Thread priority values for the current batch; higher = first.
    priority: Vec<usize>,
    /// Mirror of the channel's queued requests (the batch former needs
    /// visibility across all banks, while `pick` only sees one bank).
    queued: Vec<Request>,
    /// Ids of `queued`, kept index-parallel so the per-service removal
    /// scan walks 8-byte ids instead of 48-byte requests.
    queued_ids: Vec<RequestId>,
    /// Scratch for `form_batch`: `(max bank load, total load, thread)`
    /// of every thread with marked requests in the batch being formed.
    loaded: Vec<(usize, usize, usize)>,
}

/// Parallelism-aware batch scheduler.
///
/// Forms *batches*: when no marked request remains on a channel, up to
/// `batch_cap` oldest requests per thread per bank are marked. Marked
/// requests are strictly prioritized over unmarked ones (this provides
/// starvation freedom), and within a batch threads are ranked
/// shortest-job-first by their maximum per-bank marked load (ties by
/// total load) so that light threads finish the batch quickly and each
/// thread's requests are serviced in parallel across banks. The full
/// priority order is the published rule: marked-first, then row-hit, then
/// rank, then oldest.
#[derive(Debug, Clone)]
pub struct ParBs {
    params: ParBsParams,
    num_threads: usize,
    /// Batch state indexed densely by channel, grown on first touch
    /// (channel ids are dense, so a `Vec` replaces a hashed lookup on
    /// every pick/enqueue/service).
    channels: Vec<BatchState>,
}

impl ParBs {
    /// Creates PAR-BS for `num_threads` threads with the paper defaults.
    pub fn new(num_threads: usize) -> Self {
        Self::with_params(num_threads, ParBsParams::paper_default())
    }

    /// Creates PAR-BS with explicit parameters.
    pub fn with_params(num_threads: usize, params: ParBsParams) -> Self {
        assert!(params.batch_cap > 0, "batch cap must be non-zero");
        Self {
            params,
            num_threads,
            channels: Vec::new(),
        }
    }

    /// The batch state for `channel`, growing the dense table on first
    /// touch.
    fn state_mut(&mut self, channel: ChannelId) -> &mut BatchState {
        let index = channel.index();
        if index >= self.channels.len() {
            self.channels.resize_with(index + 1, BatchState::default);
        }
        &mut self.channels[index]
    }

    /// Forms a new batch for one channel from its queued-request mirror.
    fn form_batch(state: &mut BatchState, cap: usize, num_threads: usize) {
        state.marked.clear();
        // Group by (thread, bank) by sorting the mirror in place — its
        // order is otherwise irrelevant (`on_service` swap-removes), and
        // sorting avoids a per-batch map of per-group allocations. Ids
        // are unique, so the key is a total order and an unstable sort
        // is deterministic.
        state.queued.sort_unstable_by_key(|r| {
            (
                r.thread.index(),
                r.addr.bank.index(),
                r.issued_at,
                r.id.raw(),
            )
        });
        // Walk each (thread, bank) run oldest-first and mark up to `cap`,
        // accumulating each thread's marked load: the sort makes a
        // thread's runs adjacent, so one entry per loaded thread is
        // pushed, in ascending thread order.
        state.loaded.clear();
        let mut start = 0;
        while start < state.queued.len() {
            let thread = state.queued[start].thread.index();
            let bank = state.queued[start].addr.bank.index();
            let mut end = start + 1;
            while end < state.queued.len()
                && state.queued[end].thread.index() == thread
                && state.queued[end].addr.bank.index() == bank
            {
                end += 1;
            }
            let marked = (end - start).min(cap);
            for r in &state.queued[start..start + marked] {
                state.marked.insert(r.id);
            }
            if thread < num_threads {
                match state.loaded.last_mut() {
                    Some((max, total, t)) if *t == thread => {
                        *max = (*max).max(marked);
                        *total += marked;
                    }
                    _ => state.loaded.push((marked, marked, thread)),
                }
            }
            start = end;
        }
        // The sort reordered `queued`; rebuild the parallel id mirror.
        state.queued_ids.clear();
        state.queued_ids.extend(state.queued.iter().map(|r| r.id));
        // Shortest job first: rank threads by ascending (max load, total
        // load), ties in thread order, and give position `pos` priority
        // `num_threads - pos`. Threads without marked load share the
        // minimal key (0, 0), so they come first, in thread order; every
        // loaded thread has max load >= 1 and follows them.
        state.priority.resize(num_threads, 0);
        let mut pos = 0;
        let mut loaded = state.loaded.iter().map(|&(_, _, t)| t).peekable();
        for t in 0..num_threads {
            if loaded.next_if_eq(&t).is_none() {
                state.priority[t] = num_threads - pos;
                pos += 1;
            }
        }
        // Entries are unique (one per thread), so the unstable sort on
        // the whole tuple is the stable (max, total) order of the rest.
        state.loaded.sort_unstable();
        for &(_, _, t) in &state.loaded {
            state.priority[t] = num_threads - pos;
            pos += 1;
        }
    }
}

impl Scheduler for ParBs {
    fn name(&self) -> &'static str {
        "PAR-BS"
    }

    fn pick(&mut self, pending: &[Request], ctx: &PickContext) -> usize {
        let cap = self.params.batch_cap;
        let num_threads = self.num_threads;
        let state = self.state_mut(ctx.channel);
        if state.marked.is_empty() && !state.queued.is_empty() {
            Self::form_batch(state, cap, num_threads);
        }
        pick_max_by_key(pending, |r| {
            (
                state.marked.contains(&r.id),
                row_hit(r, ctx.open_row),
                state.priority.get(r.thread.index()).copied().unwrap_or(0),
                age_key(r),
            )
        })
    }

    fn on_enqueue(&mut self, req: &Request, _now: Cycle) {
        let state = self.state_mut(req.addr.channel);
        state.queued.push(*req);
        state.queued_ids.push(req.id);
    }

    fn on_service(
        &mut self,
        outcome: &ServiceOutcome,
        _remaining_same_bank: &[Request],
        _now: Cycle,
    ) {
        let id = outcome.request.id;
        if let Some(state) = self.channels.get_mut(outcome.request.addr.channel.index()) {
            state.marked.remove(&id);
            if let Some(pos) = state.queued_ids.iter().position(|&qid| qid == id) {
                state.queued.swap_remove(pos);
                state.queued_ids.swap_remove(pos);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::testutil::{ctx, req, req_at_bank};
    use proptest::prelude::*;

    /// The batch former before per-channel scratch and loaded-only
    /// ranking, kept as the oracle for `form_batch`: per-thread load
    /// arrays over all threads and a stable sort of every thread by
    /// `(max load, total load)`. Returns the marked ids (sorted) and the
    /// priorities.
    fn reference_batch(
        queued: &[Request],
        cap: usize,
        num_threads: usize,
    ) -> (Vec<RequestId>, Vec<usize>) {
        let mut queued = queued.to_vec();
        queued.sort_by_key(|r| {
            (
                r.thread.index(),
                r.addr.bank.index(),
                r.issued_at,
                r.id.raw(),
            )
        });
        let mut marked = Vec::new();
        let mut max_load = vec![0usize; num_threads];
        let mut total_load = vec![0usize; num_threads];
        let mut start = 0;
        while start < queued.len() {
            let thread = queued[start].thread.index();
            let bank = queued[start].addr.bank.index();
            let mut end = start + 1;
            while end < queued.len()
                && queued[end].thread.index() == thread
                && queued[end].addr.bank.index() == bank
            {
                end += 1;
            }
            let count = (end - start).min(cap);
            marked.extend(queued[start..start + count].iter().map(|r| r.id));
            if thread < num_threads {
                max_load[thread] = max_load[thread].max(count);
                total_load[thread] += count;
            }
            start = end;
        }
        marked.sort_unstable();
        let mut order: Vec<usize> = (0..num_threads).collect();
        order.sort_by_key(|&t| (max_load[t], total_load[t]));
        let mut priority = vec![0; num_threads];
        for (pos, &t) in order.iter().enumerate() {
            priority[t] = num_threads - pos;
        }
        (marked, priority)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `form_batch` marks the same requests and assigns the same
        /// priorities as the reference, batch after batch on one
        /// channel whose mirror is maintained through `on_enqueue` and
        /// `on_service` (so stale scratch from an earlier batch would
        /// show). Few banks and small queues make `(max, total)` ties
        /// common; thread ids run past `num_threads`, whose load is not
        /// ranked.
        #[test]
        fn form_batch_matches_reference(
            num_threads in 1usize..8,
            cap in 1usize..6,
            rounds in proptest::collection::vec(
                (proptest::collection::vec((0usize..10, 0usize..4, 0u64..6), 0..24), 0usize..12),
                1..5,
            ),
        ) {
            let mut s = ParBs::with_params(num_threads, ParBsParams { batch_cap: cap });
            let mut model: Vec<Request> = Vec::new();
            let mut next_id = 0u64;
            for (arrivals, services) in rounds {
                for (thread, bank, at) in arrivals {
                    let r = req_at_bank(next_id, thread, bank, 0, at);
                    next_id += 1;
                    s.on_enqueue(&r, at);
                    model.push(r);
                }
                for k in 0..services.min(model.len()) {
                    let r = model.swap_remove(k * 7 % model.len());
                    s.on_service(&outcome_for(&r), &[], 0);
                }
                let (want_marked, want_priority) = reference_batch(&model, cap, num_threads);
                let state = s.state_mut(ChannelId::new(0));
                ParBs::form_batch(state, cap, num_threads);
                let mut marked: Vec<RequestId> = state.marked.iter().copied().collect();
                marked.sort_unstable();
                prop_assert_eq!(marked, want_marked);
                prop_assert_eq!(&state.priority, &want_priority);
                let ids: Vec<RequestId> = state.queued.iter().map(|r| r.id).collect();
                prop_assert_eq!(&state.queued_ids, &ids);
                let mut mirror = ids;
                mirror.sort_unstable();
                let mut want: Vec<RequestId> = model.iter().map(|r| r.id).collect();
                want.sort_unstable();
                prop_assert_eq!(mirror, want);
            }
        }
    }

    fn outcome_for(r: &Request) -> ServiceOutcome {
        ServiceOutcome {
            request: *r,
            row_state: tcm_types::RowState::Closed,
            bank_start: 0,
            bank_free: 275,
            completes_at: 400,
            service_cycles: 325,
        }
    }

    #[test]
    fn marked_requests_beat_unmarked_row_hits() {
        let mut s = ParBs::with_params(2, ParBsParams { batch_cap: 1 });
        // Thread 0 has two requests on bank 0; cap 1 marks only the older.
        let r0 = req(0, 0, 1, 0);
        let r1 = req(1, 0, 9, 10);
        s.on_enqueue(&r0, 0);
        s.on_enqueue(&r1, 10);
        // Row 9 open: unmarked r1 is a row hit, but marked r0 wins.
        let pending = vec![r0, r1];
        assert_eq!(s.pick(&pending, &ctx(20, Some(9))), 0);
    }

    #[test]
    fn shortest_job_first_ranks_light_thread_higher() {
        let mut s = ParBs::new(2);
        // Thread 0: 4 requests on bank 0 (heavy). Thread 1: 1 request.
        let mut all = Vec::new();
        for i in 0..4 {
            let r = req(i, 0, 1, i);
            s.on_enqueue(&r, i);
            all.push(r);
        }
        let light = req(10, 1, 2, 4);
        s.on_enqueue(&light, 4);
        all.push(light);
        // All five are marked (cap 5); light thread must rank higher.
        let idx = s.pick(&all, &ctx(10, None));
        assert_eq!(all[idx].thread.index(), 1);
    }

    #[test]
    fn new_batch_forms_when_previous_drains() {
        let mut s = ParBs::with_params(1, ParBsParams { batch_cap: 1 });
        let r0 = req(0, 0, 1, 0);
        let r1 = req(1, 0, 2, 10);
        s.on_enqueue(&r0, 0);
        s.on_enqueue(&r1, 10);
        let pending = vec![r0, r1];
        assert_eq!(s.pick(&pending, &ctx(20, None)), 0, "older marked first");
        s.on_service(&outcome_for(&r0), &pending[1..], 300);
        // Batch drained; r1 becomes marked in the new batch.
        let pending = vec![r1];
        assert_eq!(s.pick(&pending, &ctx(400, None)), 0);
        let state = &s.channels[ChannelId::new(0).index()];
        assert!(state.marked.contains(&r1.id));
    }

    #[test]
    fn batching_is_per_channel() {
        let mut s = ParBs::new(1);
        let r0 = req(0, 0, 1, 0); // channel 0
        s.on_enqueue(&r0, 0);
        s.pick(&[r0], &ctx(1, None));
        assert!(!s.channels[ChannelId::new(0).index()].marked.is_empty());
        assert!(s.channels.get(ChannelId::new(1).index()).is_none());
    }

    #[test]
    fn max_bank_load_drives_rank_not_total() {
        let mut s = ParBs::new(2);
        // Thread 0: 3 requests all on bank 0 (max load 3).
        // Thread 1: 3 requests spread over banks 1,2,3 (max load 1).
        let mut all = Vec::new();
        for i in 0..3 {
            let r = req_at_bank(i, 0, 0, 1, i);
            s.on_enqueue(&r, i);
            all.push(r);
        }
        for (j, b) in [1usize, 2, 3].iter().enumerate() {
            let r = req_at_bank(10 + j as u64, 1, *b, 1, 3 + j as u64);
            s.on_enqueue(&r, 3 + j as u64);
            all.push(r);
        }
        // Decide on bank 0's pending set only; include one of thread 1's
        // requests hypothetically on bank 0 to compare ranks directly.
        let contested = vec![req_at_bank(20, 0, 0, 5, 0), req_at_bank(21, 1, 0, 6, 1)];
        s.on_enqueue(&contested[0], 0);
        s.on_enqueue(&contested[1], 1);
        let idx = s.pick(&contested, &ctx(10, None));
        assert_eq!(
            contested[idx].thread.index(),
            1,
            "thread with lower max bank load ranks first"
        );
    }
}
