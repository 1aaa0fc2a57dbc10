//! A stable discrete-event queue.
//!
//! Events are ordered by `(time, insertion sequence)`; equal-time events pop
//! in insertion order, which makes every simulation deterministic without
//! requiring the payload to be `Ord`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use fluentps_obs::VirtualClock;

struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Priority queue of timed events.
///
/// ```
/// use fluentps_simnet::event::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(2.0, "late");
/// q.schedule(1.0, "early");
/// assert_eq!(q.pop(), Some((1.0, "early")));
/// assert_eq!(q.now(), 1.0);
/// ```
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
    now: f64,
    clock: Option<Arc<VirtualClock>>,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
            clock: None,
        }
    }
}

impl<T> EventQueue<T> {
    /// Empty queue at time 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Mirror simulated time into `clock` so observers outside the event
    /// loop — typically a `fluentps_obs` trace collector built with
    /// `ClockSource::virtual_clock` — timestamp events in virtual seconds.
    /// The clock is updated on every [`EventQueue::pop`].
    pub fn attach_clock(&mut self, clock: Arc<VirtualClock>) {
        clock.set(self.now);
        self.clock = Some(clock);
    }

    /// Schedule `payload` at absolute time `time`. Scheduling in the past
    /// (before the last popped event) is a logic error and panics in debug
    /// builds; in release it is clamped to `now` to keep time monotone.
    pub fn schedule(&mut self, time: f64, payload: T) {
        debug_assert!(time.is_finite(), "event time must be finite");
        debug_assert!(
            time >= self.now,
            "scheduling into the past: {time} < {}",
            self.now
        );
        let time = time.max(self.now);
        self.heap.push(Entry {
            time,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Schedule `payload` after a delay relative to `now`.
    pub fn schedule_in(&mut self, delay: f64, payload: T) {
        let t = self.now + delay.max(0.0);
        self.schedule(t, payload);
    }

    /// Pop the earliest event, advancing simulated time to it.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        let e = self.heap.pop()?;
        self.now = e.time;
        if let Some(clock) = &self.clock {
            clock.set(self.now);
        }
        Some((e.time, e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.now(), 2.0);
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5.0, i)));
        }
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(10.0, "first");
        q.pop();
        q.schedule_in(2.5, "second");
        assert_eq!(q.pop(), Some((12.5, "second")));
    }

    #[test]
    fn time_never_goes_backwards_on_clamped_schedule() {
        let mut q = EventQueue::new();
        q.schedule(10.0, 1);
        q.pop();
        // Negative delay clamps to now.
        q.schedule_in(-5.0, 2);
        assert_eq!(q.pop(), Some((10.0, 2)));
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1.0, 0);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn attached_clock_tracks_simulated_time() {
        let clock = VirtualClock::new();
        let mut q = EventQueue::new();
        q.schedule(4.0, "a");
        q.schedule(9.0, "b");
        q.attach_clock(Arc::clone(&clock));
        assert_eq!(clock.get(), 0.0);
        q.pop();
        assert_eq!(clock.get(), 4.0);
        q.pop();
        assert_eq!(clock.get(), 9.0);
    }

    #[test]
    fn interleaved_schedule_pop_is_deterministic() {
        let run = || {
            let mut q = EventQueue::new();
            let mut order = Vec::new();
            q.schedule(1.0, 0u32);
            q.schedule(1.0, 1);
            while let Some((t, id)) = q.pop() {
                order.push(id);
                if id < 8 {
                    q.schedule(t, id + 2); // same-time cascade
                }
            }
            order
        };
        assert_eq!(run(), run());
    }
}
