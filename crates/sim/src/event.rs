//! Deterministic event queues for both simulation engines.
//!
//! [`EventQueue`] (used by the flat `System` and by the `MultiSystem`
//! coordinator) and the shard-local `MsgQueue` in `multi.rs` are thin
//! wrappers over one crate-private `TimedQueue<T>`: a timing wheel of
//! per-cycle FIFO slots in front of an overflow binary heap.
//!
//! * The wheel is a ring of `SLOTS` (1024) slots covering the cycles
//!   `[base, base + SLOTS)`, where `base` is the cycle of the last pop;
//!   `base` never moves backwards. A slot only ever holds events of one
//!   cycle, as an intrusive FIFO list threaded through a node arena
//!   with a free list. An occupancy bitmap finds the first non-empty
//!   slot with `trailing_zeros`.
//! * Every other push goes to the overflow heap, keyed by
//!   `(cycle, seq)` and pointing into the same arena: far-future
//!   bursts, scheduler ticks, and pushes behind `base`.
//!
//! A single monotone sequence number stamps every push, and a pop takes
//! the smaller `(cycle, seq)` of the first wheel slot's head and the
//! heap top. Within a slot, FIFO order is push order, which is `seq`
//! order, so pops come out in exact `(cycle, insertion)` order — bit for
//! bit the order of a pure binary heap, which `set_reference_mode`
//! selects. Completions, bank wakeups and most bursts land within a few
//! hundred cycles of the last pop, so nearly every push and pop is O(1).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use tcm_types::{BankId, ChannelId, Cycle, Request, ThreadId};

/// A simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A core reaches its next miss-burst instruction. Carries the core's
    /// epoch at scheduling time; stale epochs are ignored (the core was
    /// re-polled in the meantime).
    CoreBurst {
        /// Core reaching its burst.
        thread: ThreadId,
        /// Epoch stamp for staleness detection.
        epoch: u64,
    },
    /// A bank finished its previous service and can be scheduled again.
    BankReady {
        /// Channel owning the bank.
        channel: ChannelId,
        /// The bank.
        bank: BankId,
    },
    /// A request's data arrives back at its core.
    Completion {
        /// The completed request.
        request: Request,
    },
    /// The scheduling policy's timer (quantum / shuffle boundary).
    SchedTick,
}

/// Wheel slots: how many cycles from `base` on bypass the heap.
const SLOTS: usize = 1024;
/// `u64` words in the slot-occupancy bitmap.
const WORDS: usize = SLOTS / 64;
/// Null link in the node arena.
const NIL: u32 = u32::MAX;

/// One wheel slot's FIFO list: arena indices of its first and last node.
#[derive(Clone, Copy)]
struct Slot {
    head: u32,
    tail: u32,
}

/// An arena node: an item, its push stamp, and the link to the next
/// node of its wheel slot (or of the free list).
#[derive(Clone, Copy)]
struct Node<T> {
    seq: u64,
    next: u32,
    item: T,
}

/// Time-ordered queue of `T`: items at the same cycle pop in insertion
/// order. See the module docs for the wheel + overflow-heap layout.
pub(crate) struct TimedQueue<T> {
    /// Cycle of the last pop (never decreases); the wheel covers
    /// `[base, base + SLOTS)`.
    base: Cycle,
    /// Slot `c % SLOTS` holds the wheel items of cycle `c`.
    slots: Box<[Slot; SLOTS]>,
    /// Bit `s` is set iff slot `s` is non-empty.
    occupied: [u64; WORDS],
    /// Every pending item, wheel or heap, plus free nodes.
    nodes: Vec<Node<T>>,
    /// Head of the free list threaded through `nodes`.
    free: u32,
    /// Overflow items as `(cycle, seq, node)`; `seq` is unique, so the
    /// node index never decides the order.
    heap: BinaryHeap<Reverse<(Cycle, u64, u32)>>,
    len: usize,
    seq: u64,
    /// Test hook: route every push through the heap.
    heap_only: bool,
}

impl<T: Copy> TimedQueue<T> {
    /// Routes all future pushes through the overflow heap (the pure
    /// binary-heap reference order).
    pub(crate) fn set_heap_only(&mut self, on: bool) {
        self.heap_only = on;
    }

    /// Schedules `item` at `cycle`.
    pub(crate) fn push(&mut self, cycle: Cycle, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.len += 1;
        let node = Node { seq, next: NIL, item };
        let index = if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("event arena exceeds u32 indices")
        } else {
            let index = self.free;
            self.free = self.nodes[index as usize].next;
            self.nodes[index as usize] = node;
            index
        };
        // Behind `base` the offset wraps to a huge value: heap too.
        if cycle.wrapping_sub(self.base) >= SLOTS as u64 || self.heap_only {
            self.heap.push(Reverse((cycle, seq, index)));
            return;
        }
        let slot = cycle as usize % SLOTS;
        let s = &mut self.slots[slot];
        if s.head == NIL {
            s.head = index;
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.nodes[s.tail as usize].next = index;
        }
        s.tail = index;
    }

    /// The first non-empty wheel slot in ring order from `base`, with
    /// the cycle it holds.
    fn first_slot(&self) -> Option<(Cycle, usize)> {
        let start = self.base as usize % SLOTS;
        let (word, bit) = (start / 64, start % 64);
        // The start word from `start` on, the other words in ring order,
        // then the start word below `start` (the window's wrapped tail).
        for i in 0..=WORDS {
            let w = (word + i) % WORDS;
            let bits = match i {
                0 => self.occupied[w] & (!0 << bit),
                WORDS => self.occupied[w] & ((1 << bit) - 1),
                _ => self.occupied[w],
            };
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                let ahead = (slot + SLOTS - start) % SLOTS;
                return Some((self.base + ahead as Cycle, slot));
            }
        }
        None
    }

    /// The earliest pending item's cycle and its wheel slot (`None`
    /// when it is the heap top).
    fn earliest(&self) -> Option<(Cycle, Option<usize>)> {
        let top = self.heap.peek().map(|&Reverse((cycle, seq, _))| (cycle, seq));
        if let Some((cycle, slot)) = self.first_slot() {
            let seq = self.nodes[self.slots[slot].head as usize].seq;
            if top.is_none_or(|t| (cycle, seq) < t) {
                return Some((cycle, Some(slot)));
            }
        }
        top.map(|(cycle, _)| (cycle, None))
    }

    /// Removes and returns the earliest item if it is scheduled at or
    /// before `bound`.
    pub(crate) fn pop_at_or_before(&mut self, bound: Cycle) -> Option<(Cycle, T)> {
        let (cycle, slot) = self.earliest()?;
        if cycle > bound {
            return None;
        }
        let index = match slot {
            Some(slot) => {
                let index = self.slots[slot].head;
                let next = self.nodes[index as usize].next;
                self.slots[slot].head = next;
                if next == NIL {
                    self.occupied[slot / 64] &= !(1 << (slot % 64));
                }
                index
            }
            None => {
                let Reverse((_, _, index)) = self.heap.pop().expect("heap top vanished");
                index
            }
        };
        let node = &mut self.nodes[index as usize];
        node.next = self.free;
        self.free = index;
        self.len -= 1;
        // Every remaining wheel item is at or after `cycle`, so the
        // window `[cycle, cycle + SLOTS)` still covers them all.
        self.base = self.base.max(cycle);
        Some((cycle, node.item))
    }

    /// The cycle of the earliest pending item.
    pub(crate) fn peek_cycle(&self) -> Option<Cycle> {
        self.earliest().map(|(cycle, _)| cycle)
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T: Copy> Default for TimedQueue<T> {
    fn default() -> Self {
        Self {
            base: 0,
            slots: Box::new([Slot { head: NIL, tail: NIL }; SLOTS]),
            occupied: [0; WORDS],
            nodes: Vec::new(),
            free: NIL,
            heap: BinaryHeap::new(),
            len: 0,
            seq: 0,
            heap_only: false,
        }
    }
}

impl<T> fmt::Debug for TimedQueue<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimedQueue")
            .field("len", &self.len)
            .field("base", &self.base)
            .field("overflow", &self.heap.len())
            .finish_non_exhaustive()
    }
}

/// Time-ordered event queue. Events at the same cycle pop in insertion
/// order (a monotone sequence number breaks ties), making runs exactly
/// reproducible.
#[derive(Debug, Default)]
pub struct EventQueue(TimedQueue<Event>);

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes all future pushes through the overflow heap (the reference,
    /// pure binary-heap order). Pop order is identical either way; this
    /// exists so tests can assert that, not for production use.
    #[doc(hidden)]
    pub fn set_reference_mode(&mut self, on: bool) {
        self.0.set_heap_only(on);
    }

    /// Schedules `event` at `cycle`.
    pub fn push(&mut self, cycle: Cycle, event: Event) {
        self.0.push(cycle, event);
    }

    /// Removes and returns the earliest event as `(cycle, event)`.
    pub fn pop(&mut self) -> Option<(Cycle, Event)> {
        self.0.pop_at_or_before(Cycle::MAX)
    }

    /// Removes and returns the earliest event if it is scheduled at or
    /// before `bound` — the peek and the pop in one scan, so the event
    /// loop's `peek_cycle()` + `pop().expect(...)` pair becomes a single
    /// conditional pop.
    pub fn pop_at_or_before(&mut self, bound: Cycle) -> Option<(Cycle, Event)> {
        self.0.pop_at_or_before(bound)
    }

    /// The cycle of the earliest pending event.
    pub fn peek_cycle(&self) -> Option<Cycle> {
        self.0.peek_cycle()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcm_types::{MemAddress, RequestId, Row};

    fn completion(channel: usize, id: u64) -> Event {
        Event::Completion {
            request: Request::new(
                RequestId::new(id),
                ThreadId::new(0),
                MemAddress::new(ChannelId::new(channel), BankId::new(0), Row::new(0)),
                0,
            ),
        }
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::SchedTick);
        q.push(10, Event::SchedTick);
        q.push(20, Event::SchedTick);
        let order: Vec<Cycle> = std::iter::from_fn(|| q.pop().map(|(c, _)| c)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, Event::CoreBurst { thread: ThreadId::new(0), epoch: 0 });
        q.push(5, Event::CoreBurst { thread: ThreadId::new(1), epoch: 0 });
        q.push(5, Event::CoreBurst { thread: ThreadId::new(2), epoch: 0 });
        let threads: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::CoreBurst { thread, .. } => thread.index(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(threads, vec![0, 1, 2]);
    }

    #[test]
    fn ties_across_lanes_and_heap_pop_in_insertion_order() {
        // Every kind of event at one cycle shares that cycle's wheel
        // slot, which pops in push order.
        let mut q = EventQueue::new();
        q.push(5, completion(1, 100)); // channel 1's completion
        q.push(5, Event::SchedTick);
        q.push(5, completion(0, 101)); // channel 0's completion
        q.push(
            5,
            Event::BankReady { channel: ChannelId::new(1), bank: BankId::new(3) },
        );
        let ids: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::Completion { request } => request.id.raw(),
                Event::SchedTick => 0,
                Event::BankReady { bank, .. } => 200 + bank.index() as u64,
                Event::CoreBurst { .. } => unreachable!(),
            })
            .collect();
        assert_eq!(ids, vec![100, 0, 101, 203]);
    }

    #[test]
    fn non_monotone_lane_push_falls_back_to_heap() {
        let mut q = EventQueue::new();
        q.push(50, completion(0, 1));
        q.push(40, completion(0, 2)); // earlier than the last push: own slot
        q.push(50, completion(0, 3));
        let order: Vec<(Cycle, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(c, e)| match e {
                Event::Completion { request } => (c, request.id.raw()),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![(40, 2), (50, 1), (50, 3)]);
    }

    #[test]
    fn backwards_pop_does_not_move_the_wheel_base() {
        let mut q = EventQueue::new();
        q.push(5000, Event::SchedTick);
        assert_eq!(q.pop().map(|(c, _)| c), Some(5000));
        q.push(10, Event::SchedTick); // behind the last pop: overflow heap
        q.push(6023, Event::SchedTick); // the last cycle the wheel covers
        // Were `base` to fall back to 10, the 6023 slot would read as 903.
        let order: Vec<Cycle> = std::iter::from_fn(|| q.pop().map(|(c, _)| c)).collect();
        assert_eq!(order, vec![10, 6023]);
    }

    #[test]
    fn pop_at_or_before_respects_bound() {
        let mut q = EventQueue::new();
        q.push(10, Event::SchedTick);
        q.push(20, completion(0, 7));
        assert_eq!(q.pop_at_or_before(5), None);
        assert_eq!(q.pop_at_or_before(10).map(|(c, _)| c), Some(10));
        assert_eq!(q.pop_at_or_before(19), None);
        assert_eq!(q.pop_at_or_before(20).map(|(c, _)| c), Some(20));
        assert!(q.is_empty());
    }

    #[test]
    fn reference_mode_orders_identically() {
        let pushes = [
            (5, completion(0, 1)),
            (3, Event::SchedTick),
            (5, completion(1, 2)),
            (5, Event::BankReady { channel: ChannelId::new(0), bank: BankId::new(1) }),
            (4, completion(0, 3)),
            (5, completion(0, 4)),
        ];
        let mut fast = EventQueue::new();
        let mut reference = EventQueue::new();
        reference.set_reference_mode(true);
        for &(c, e) in &pushes {
            fast.push(c, e);
            reference.push(c, e);
        }
        loop {
            let (a, b) = (fast.pop(), reference.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_cycle(), None);
        q.push(7, Event::SchedTick);
        assert_eq!(q.peek_cycle(), Some(7));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
