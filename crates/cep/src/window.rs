//! Sliding windows.
//!
//! The paper singles out the two classic CEP windows: "The length window
//! instructs the system to only keep the last N events. The time window
//! enables us to limit the number of events within a specified time
//! interval." Both are implemented over a `VecDeque`; eviction is O(1)
//! amortised per arrival.

use crate::event::Event;
use simcore::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A sliding window of events.
#[derive(Debug, Clone)]
pub enum Window {
    /// Keep events newer than `now - span`.
    Time {
        span: SimDuration,
        buf: VecDeque<Event>,
    },
    /// Keep the most recent `capacity` events.
    Length {
        capacity: usize,
        buf: VecDeque<Event>,
    },
}

impl Window {
    pub fn time(span: SimDuration) -> Self {
        Window::Time {
            span,
            buf: VecDeque::new(),
        }
    }

    pub fn length(capacity: usize) -> Self {
        assert!(capacity > 0, "length window needs capacity >= 1");
        Window::Length {
            capacity,
            buf: VecDeque::with_capacity(capacity),
        }
    }

    /// Insert an event (assumed to arrive in non-decreasing time order)
    /// and evict everything that falls out of the window.
    pub fn push(&mut self, event: Event) {
        self.push_with(event, |_| {});
    }

    /// [`push`](Self::push), handing every evicted event to `on_evict`
    /// so callers that maintain running aggregates can decrement them
    /// instead of rescanning the window.
    pub fn push_with(&mut self, event: Event, mut on_evict: impl FnMut(Event)) {
        match self {
            Window::Time { span, buf } => {
                let now = event.time;
                buf.push_back(event);
                let cutoff = now.since(SimTime::ZERO); // now as duration from 0
                                                       // evict strictly-older-than (now - span); keep boundary events
                while let Some(front) = buf.front() {
                    if front.time.since(SimTime::ZERO) + *span < cutoff {
                        on_evict(buf.pop_front().expect("front exists"));
                    } else {
                        break;
                    }
                }
            }
            Window::Length { capacity, buf } => {
                if buf.len() == *capacity {
                    on_evict(buf.pop_front().expect("front exists"));
                }
                buf.push_back(event);
            }
        }
    }

    /// Advance time without inserting, evicting expired events (the
    /// engine calls this before reading a time window so counts decay
    /// even when a stream goes quiet).
    pub fn expire(&mut self, now: SimTime) {
        self.expire_with(now, |_| {});
    }

    /// [`expire`](Self::expire) with an eviction callback, mirroring
    /// [`push_with`](Self::push_with).
    pub fn expire_with(&mut self, now: SimTime, mut on_evict: impl FnMut(Event)) {
        if let Window::Time { span, buf } = self {
            let cutoff = now.since(SimTime::ZERO);
            while let Some(front) = buf.front() {
                if front.time.since(SimTime::ZERO) + *span < cutoff {
                    on_evict(buf.pop_front().expect("front exists"));
                } else {
                    break;
                }
            }
        }
    }

    pub fn len(&self) -> usize {
        self.buf().len()
    }
    pub fn is_empty(&self) -> bool {
        self.buf().is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.buf().iter()
    }

    fn buf(&self) -> &VecDeque<Event> {
        match self {
            Window::Time { buf, .. } | Window::Length { buf, .. } => buf,
        }
    }
}

checkpoint::ck_tagged!(Window, "kind" {
    "time" => Time { span, buf },
    "length" => Length { capacity, buf },
});

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> Event {
        Event::new(SimTime::from_secs(t), "e").with("t", t as i64)
    }

    #[test]
    fn time_window_evicts_old_events() {
        let mut w = Window::time(SimDuration::from_secs(10));
        for t in [0u64, 3, 6, 9, 12, 15] {
            w.push(ev(t));
        }
        // now = 15; keep events with time + 10 >= 15, i.e. t >= 5
        let times: Vec<i64> = w
            .iter()
            .map(|e| e.get("t").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(times, vec![6, 9, 12, 15]);
    }

    #[test]
    fn time_window_keeps_boundary_event() {
        let mut w = Window::time(SimDuration::from_secs(10));
        w.push(ev(0));
        w.push(ev(10));
        assert_eq!(w.len(), 2, "event exactly span old stays");
        w.push(ev(11));
        assert_eq!(w.len(), 2, "t=0 evicted at now=11");
    }

    #[test]
    fn expire_without_insert() {
        let mut w = Window::time(SimDuration::from_secs(5));
        w.push(ev(0));
        w.push(ev(2));
        w.expire(SimTime::from_secs(100));
        assert!(w.is_empty());
    }

    #[test]
    fn length_window_keeps_last_n() {
        let mut w = Window::length(3);
        for t in 0..10u64 {
            w.push(ev(t));
        }
        let times: Vec<i64> = w
            .iter()
            .map(|e| e.get("t").unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(times, vec![7, 8, 9]);
        assert_eq!(w.len(), 3);
    }

    #[test]
    fn length_window_expire_is_noop() {
        let mut w = Window::length(2);
        w.push(ev(1));
        w.expire(SimTime::from_secs(1000));
        assert_eq!(w.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        Window::length(0);
    }

    #[test]
    fn push_with_reports_time_evictions() {
        let mut w = Window::time(SimDuration::from_secs(10));
        let mut evicted = Vec::new();
        for t in [0u64, 3, 6, 15] {
            w.push_with(ev(t), |e| {
                evicted.push(e.get("t").unwrap().as_i64().unwrap());
            });
        }
        // now = 15 evicts t=0 and t=3 (t + 10 < 15); t=6 stays (boundary-inclusive)
        assert_eq!(evicted, vec![0, 3]);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn push_with_reports_length_evictions() {
        let mut w = Window::length(2);
        let mut evicted = Vec::new();
        for t in 0..4u64 {
            w.push_with(ev(t), |e| {
                evicted.push(e.get("t").unwrap().as_i64().unwrap());
            });
        }
        assert_eq!(evicted, vec![0, 1]);
    }

    #[test]
    fn expire_with_reports_evictions() {
        let mut w = Window::time(SimDuration::from_secs(5));
        w.push(ev(0));
        w.push(ev(2));
        let mut evicted = Vec::new();
        w.expire_with(SimTime::from_secs(100), |e| {
            evicted.push(e.get("t").unwrap().as_i64().unwrap());
        });
        assert_eq!(evicted, vec![0, 2]);
        assert!(w.is_empty());
    }
}
