//! The sliding time window (`win:time(t_w)`) behind every query.
//!
//! The paper: "The time window enables us to limit the number of events
//! within a specified time interval." Items arrive in non-decreasing
//! time order and leave from the front, so eviction is O(1) amortised
//! per arrival. The boundary rule lives here and only here: an item
//! exactly `span` old still counts; one strictly older leaves.

use simcore::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Timestamped items no older than `now - span`, oldest first.
#[derive(Debug, Clone)]
pub(crate) struct TimeWindow<T> {
    span: SimDuration,
    buf: VecDeque<(SimTime, T)>,
}

impl<T> TimeWindow<T> {
    pub(crate) fn new(span: SimDuration) -> Self {
        TimeWindow {
            span,
            buf: VecDeque::new(),
        }
    }

    /// Append an item. It evicts nothing: the caller decides when time
    /// advances (a replayed snapshot appends without expiring).
    pub(crate) fn push(&mut self, time: SimTime, item: T) {
        self.buf.push_back((time, item));
    }

    /// Advance time to `now`, handing every item strictly older than
    /// `now - span` to `on_evict` so running counts can be lowered
    /// instead of rescanned.
    pub(crate) fn expire_with(&mut self, now: SimTime, mut on_evict: impl FnMut(T)) {
        while self
            .buf
            .front()
            .is_some_and(|(time, _)| *time + self.span < now)
        {
            let (_, item) = self.buf.pop_front().expect("front exists");
            on_evict(item);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &(SimTime, T)> {
        self.buf.iter()
    }

    pub(crate) fn clear(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(span: u64, times: &[u64]) -> TimeWindow<u64> {
        let mut w = TimeWindow::new(SimDuration::from_secs(span));
        for &t in times {
            w.push(SimTime::from_secs(t), t);
            w.expire_with(SimTime::from_secs(t), |_| {});
        }
        w
    }

    fn items(w: &TimeWindow<u64>) -> Vec<u64> {
        w.iter().map(|&(_, t)| t).collect()
    }

    #[test]
    fn time_window_evicts_old_events() {
        let w = window(10, &[0, 3, 6, 9, 12, 15]);
        // now = 15; keep items with time + 10 >= 15, i.e. t >= 5
        assert_eq!(items(&w), vec![6, 9, 12, 15]);
    }

    #[test]
    fn time_window_keeps_boundary_event() {
        let mut w = window(10, &[0, 10]);
        assert_eq!(w.len(), 2, "item exactly span old stays");
        w.push(SimTime::from_secs(11), 11);
        let mut evicted = Vec::new();
        w.expire_with(SimTime::from_secs(11), |t| evicted.push(t));
        assert_eq!(evicted, vec![0], "t=0 evicted at now=11");
        assert_eq!(items(&w), vec![10, 11]);
    }

    #[test]
    fn expire_without_insert() {
        let mut w = window(5, &[0, 2]);
        let mut evicted = Vec::new();
        w.expire_with(SimTime::from_secs(100), |t| evicted.push(t));
        assert_eq!(evicted, vec![0, 2]);
        assert_eq!(w.len(), 0);
    }
}
