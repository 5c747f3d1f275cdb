//! Continuous queries.
//!
//! A [`QuerySpec`] is the one shape the data judge asks for: `FROM type
//! .win:time(t_w) GROUP BY field [, top_by] SELECT count(*)`.
//! [`QueryState`] is its incremental runtime: it windows each accepted
//! event as a slim entry and keeps one count per group (and per
//! `(group, top_by value)` pair), raised when the entry arrives and
//! lowered when it leaves. ERMS's data judge runs three of these over
//! the audit stream (accesses per file, accesses per block, accesses per
//! datanode and which file leads each one).

use crate::event::{Event, Value};
use crate::fnv::FnvBuildHasher;
use crate::window::TimeWindow;
use checkpoint::codec::Ck;
use simcore::{SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

/// Group-key → slot-index map, hashed with the cheap FNV hasher —
/// group probes happen once per accepted event on the ingest hot path.
type GroupIndex = HashMap<Arc<str>, u32, FnvBuildHasher>;

/// `(group slot, top_by value)` → sub-slot index. The values are audit
/// paths, so the map keeps the default hasher's collision resistance.
type SubIndex = HashMap<(u32, Arc<str>), u32>;

/// Declarative query description: count the events of type `from` per
/// `group_by` value within a sliding time window.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Event type to consume.
    pub from: String,
    /// Field naming an event's group; an event without it is ignored.
    pub group_by: String,
    /// A nested count by a second field inside each group (Esper's
    /// `group by dn, src` when the question is "which `src` leads each
    /// `dn`"), read with [`QueryState::top_of`]. Only events whose
    /// `group_by` and `top_by` values are both strings are sub-counted.
    pub top_by: Option<String>,
    /// `t_w`: an event counts while it is at most this old.
    pub window: SimDuration,
}

impl QuerySpec {
    /// Count events of `event_type` per `group_field` within a sliding
    /// time window — the judge's query shape.
    pub fn count_per_group(
        event_type: impl Into<String>,
        group_field: impl Into<String>,
        window: SimDuration,
    ) -> Self {
        QuerySpec {
            from: event_type.into(),
            group_by: group_field.into(),
            top_by: None,
            window,
        }
    }
}

/// Output row of a query: group key and windowed count.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    pub key: Arc<str>,
    pub value: f64,
}

/// One live group: its key and windowed count. Slots are reused through
/// a free list once the group's last windowed entry departs.
#[derive(Debug)]
struct GroupSlot {
    key: Arc<str>,
    count: u64,
    /// The group's live sub-slots (`top_by` queries), unordered.
    subs: Vec<u32>,
}

impl GroupSlot {
    fn new(key: &Arc<str>) -> Self {
        GroupSlot {
            key: key.clone(),
            count: 0,
            subs: Vec::new(),
        }
    }
}

/// One live `(group, top_by value)` pair and its windowed event count.
/// A sub-slot dies with its last event, which is never after its
/// group's last event.
#[derive(Debug)]
struct SubSlot {
    group: u32,
    key: Arc<str>,
    count: u64,
}

/// Pointer-keyed group-probe memo size (power of two). The hot keys on
/// an audit storm are a handful of interned `Arc`s, so `Arc::ptr_eq`
/// resolves most probes without hashing the key bytes.
const GROUP_MEMO_SLOTS: usize = 16;

/// Per-query group bookkeeping: dense slots addressed by `u32` index,
/// a key → index hash map, and a pointer-keyed memo over it.
///
/// Windowed entries remember their group *index* (and sub-slot index),
/// so eviction — once per accepted event at steady state — updates
/// counts by direct indexing instead of rehashing the key string, and
/// holds no `Arc` refcount per entry. Only a group's (or sub-slot's)
/// death (last event leaving the window) pays a map removal.
#[derive(Debug, Default)]
struct GroupTable {
    index: GroupIndex,
    slots: Vec<GroupSlot>,
    free: Vec<u32>,
    /// Direct-mapped `(key, index)` memo keyed by the key's heap
    /// address. Entries hold the `Arc` so a hit can never alias a
    /// recycled allocation; freeing a slot invalidates its entries.
    memo: Vec<Option<(Arc<str>, u32)>>,
    /// Nested `top_by` counts, slotted and recycled like the groups.
    sub_index: SubIndex,
    sub_slots: Vec<SubSlot>,
    sub_free: Vec<u32>,
}

impl GroupTable {
    /// Slot index for an arriving event's group key, allocating one for
    /// a first-seen key. String keys go through the pointer memo.
    fn index_of(&mut self, v: &Value) -> u32 {
        match v {
            Value::Str(s) => {
                if self.memo.is_empty() {
                    self.memo.resize(GROUP_MEMO_SLOTS, None);
                }
                let at = (Arc::as_ptr(s) as *const u8 as usize >> 4) & (GROUP_MEMO_SLOTS - 1);
                if let Some((k, idx)) = &self.memo[at] {
                    if Arc::ptr_eq(k, s) {
                        return *idx;
                    }
                }
                let idx = self.index_of_key(s);
                self.memo[at] = Some((s.clone(), idx));
                idx
            }
            other => self.index_of_key(&Arc::from(other.to_string().as_str())),
        }
    }

    fn index_of_key(&mut self, key: &Arc<str>) -> u32 {
        if let Some(&idx) = self.index.get(key.as_ref()) {
            return idx;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = GroupSlot::new(key);
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("fewer than 2^32 live groups");
                self.slots.push(GroupSlot::new(key));
                idx
            }
        };
        self.index.insert(key.clone(), idx);
        idx
    }

    /// Count one arriving event under `key` inside group `group`;
    /// returns its sub-slot, allocating one for a first-seen pair.
    fn add_sub(&mut self, group: u32, key: &Arc<str>) -> u32 {
        let probe = (group, key.clone());
        let idx = match self.sub_index.get(&probe) {
            Some(&idx) => idx,
            None => {
                let slot = SubSlot {
                    group,
                    key: key.clone(),
                    count: 0,
                };
                let idx = match self.sub_free.pop() {
                    Some(idx) => {
                        self.sub_slots[idx as usize] = slot;
                        idx
                    }
                    None => {
                        let idx = u32::try_from(self.sub_slots.len())
                            .expect("fewer than 2^32 live sub-groups");
                        self.sub_slots.push(slot);
                        idx
                    }
                };
                self.sub_index.insert(probe, idx);
                self.slots[group as usize].subs.push(idx);
                idx
            }
        };
        self.sub_slots[idx as usize].count += 1;
        idx
    }

    /// Reverse one departing event's sub-count; a sub-slot hitting zero
    /// leaves its group's list and is recycled.
    fn remove_sub(&mut self, sub: u32) {
        let slot = &mut self.sub_slots[sub as usize];
        slot.count -= 1;
        if slot.count > 0 {
            return;
        }
        let group = slot.group;
        self.sub_index.remove(&(group, slot.key.clone()));
        let subs = &mut self.slots[group as usize].subs;
        if let Some(at) = subs.iter().position(|&s| s == sub) {
            subs.swap_remove(at);
        }
        self.sub_free.push(sub);
    }

    fn sub_key(&self, sub: u32) -> &Arc<str> {
        &self.sub_slots[sub as usize].key
    }

    /// The sub-slot of group `key` with the largest count, ties to the
    /// smaller sub-key: a strict total order, so the result does not
    /// depend on slot order.
    fn top_of(&self, key: &str) -> Option<&SubSlot> {
        let &idx = self.index.get(key)?;
        self.slots[idx as usize]
            .subs
            .iter()
            .map(|&s| &self.sub_slots[s as usize])
            .max_by(|a, b| a.count.cmp(&b.count).then_with(|| b.key.cmp(&a.key)))
    }

    fn add(&mut self, idx: u32) {
        self.slots[idx as usize].count += 1;
    }

    /// Reverse one departing event; a group hitting zero events is
    /// removed from the map and its slot recycled.
    fn remove(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        slot.count -= 1;
        if slot.count == 0 {
            self.index.remove(slot.key.as_ref());
            for m in self.memo.iter_mut() {
                if matches!(m, Some((_, i)) if *i == idx) {
                    *m = None;
                }
            }
            self.free.push(idx);
        }
    }

    fn key_of(&self, idx: u32) -> &Arc<str> {
        &self.slots[idx as usize].key
    }

    fn get(&self, key: &str) -> u64 {
        self.index
            .get(key)
            .map_or(0, |&idx| self.slots[idx as usize].count)
    }

    fn iter(&self) -> impl Iterator<Item = (&Arc<str>, u64)> {
        self.index
            .iter()
            .map(|(k, &idx)| (k, self.slots[idx as usize].count))
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.free.clear();
        self.memo.clear();
        self.sub_index.clear();
        self.sub_slots.clear();
        self.sub_free.clear();
    }
}

/// One windowed event: exactly what eviction needs to lower the counts
/// it raised — group slot index and sub-slot index (the window keeps
/// its time). No cloned event and no refcount traffic per entry.
#[derive(Debug, Clone)]
struct Entry {
    group: u32,
    sub: Option<u32>,
}

/// Incremental runtime of one query: the window of entries, oldest
/// first, and the per-group counts they produce, so
/// [`value_for`](Self::value_for) is O(1) after eviction.
#[derive(Debug)]
pub struct QueryState {
    pub spec: QuerySpec,
    window: TimeWindow<Entry>,
    groups: GroupTable,
}

impl QueryState {
    pub fn new(spec: QuerySpec) -> Self {
        QueryState {
            window: TimeWindow::new(spec.window),
            spec,
            groups: GroupTable::default(),
        }
    }

    /// Offer an event. One of type `from` that carries the `group_by`
    /// field is windowed and counted; anything else is ignored.
    pub fn offer(&mut self, event: &Event) {
        if event.event_type.as_ref() != self.spec.from {
            return;
        }
        let Some(group_value) = event.get(&self.spec.group_by) else {
            return;
        };
        let group = self.groups.index_of(group_value);
        let top_value = self.spec.top_by.as_deref().and_then(|f| event.get(f));
        let sub = match (group_value, top_value) {
            (Value::Str(_), Some(Value::Str(s))) => Some(s),
            _ => None,
        };
        self.enter(event.time, group, sub);
        self.decay(event.time);
    }

    /// Window one entry and raise its counts — the only way a count
    /// rises, shared by [`offer`](Self::offer) and the snapshot loader.
    fn enter(&mut self, time: SimTime, group: u32, sub: Option<&Arc<str>>) {
        self.groups.add(group);
        let sub = sub.map(|s| self.groups.add_sub(group, s));
        self.window.push(time, Entry { group, sub });
    }

    /// Evict the entries strictly older than `now - window` and lower
    /// their counts; an entry exactly `window` old still counts.
    fn decay(&mut self, now: SimTime) {
        let groups = &mut self.groups;
        self.window.expire_with(now, |e| {
            if let Some(sub) = e.sub {
                groups.remove_sub(sub);
            }
            groups.remove(e.group);
        });
    }

    /// Every live group's count at `now`, sorted by group key.
    pub fn rows(&mut self, now: SimTime) -> Vec<GroupRow> {
        self.decay(now);
        let mut rows: Vec<GroupRow> = self
            .groups
            .iter()
            .map(|(key, n)| GroupRow {
                key: key.clone(),
                value: n as f64,
            })
            .collect();
        rows.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        rows
    }

    /// The `top_by` value with the most windowed events in group `key`
    /// at `now`, and that count; equal counts go to the smaller value.
    /// `None` when the group has no sub-counted event (or the query no
    /// `top_by`).
    pub fn top_of(&mut self, now: SimTime, key: &str) -> Option<(Arc<str>, f64)> {
        self.decay(now);
        let top = self.groups.top_of(key)?;
        Some((top.key.clone(), top.count as f64))
    }

    /// The windowed count of group `key` at `now`; `0.0` for a key with
    /// no windowed event.
    pub fn value_for(&mut self, now: SimTime, key: &str) -> f64 {
        self.decay(now);
        self.groups.get(key) as f64
    }

    /// Entries in the window (ROADMAP item 6's `health` reports it).
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// Live groups (ROADMAP item 6's `health` reports the occupancy).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    fn save_window(&self) -> checkpoint::Value {
        let entries: Vec<WireEntry> = self
            .window
            .iter()
            .map(|(time, e)| {
                let sub = e.sub.map(|s| self.groups.sub_key(s).clone());
                (*time, self.groups.key_of(e.group).clone(), sub)
            })
            .collect();
        entries.put()
    }

    fn load_window(&mut self, v: &checkpoint::Value) -> Result<(), checkpoint::CheckpointError> {
        let entries = Vec::<WireEntry>::take(v, "window")?;
        self.window.clear();
        self.groups.clear();
        for (time, key, sub) in entries {
            if sub.is_some() && self.spec.top_by.is_none() {
                return Err(checkpoint::CheckpointError::Corrupt(
                    "a sub-keyed window entry in a query without top_by".into(),
                ));
            }
            let group = self.groups.index_of_key(&key);
            self.enter(time, group, sub.as_ref());
        }
        Ok(())
    }
}

/// A window entry on the wire: `[time, group key, top_by key]`. Slot
/// indices are a runtime detail; the wire carries the key strings.
type WireEntry = (SimTime, Arc<str>, Option<Arc<str>>);

impl checkpoint::Checkpointable for QueryState {
    // The spec is not serialized: restore rebuilds the engine through the
    // same registration calls and hydrates only the window. Every group
    // and sub count is rebuilt from it through `enter`, so a snapshot
    // cannot carry a count that disagrees with its window.
    checkpoint::ck_fields!(window(save_window, load_window));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(t: u64, path: &str) -> Event {
        Event::new(SimTime::from_secs(t), "audit")
            .with("cmd", "open")
            .with("src", path)
    }

    #[test]
    fn count_per_group_within_window() {
        let spec = QuerySpec::count_per_group("audit", "src", SimDuration::from_secs(10));
        let mut q = QueryState::new(spec);
        for (t, p) in [(0, "/a"), (1, "/a"), (2, "/b"), (8, "/a"), (10, "/b")] {
            q.offer(&access(t, p));
        }
        // now = 10: the t=0 entry is exactly t_w old and still counts
        assert_eq!(q.value_for(SimTime::from_secs(10), "/a"), 3.0);
        assert_eq!(q.value_for(SimTime::from_secs(10), "/b"), 2.0);
        // now = 11: it is strictly older than t_w and leaves
        assert_eq!(q.value_for(SimTime::from_secs(11), "/a"), 2.0);
        // an arriving event evicts as a read does: t=1 and t=2 leave
        q.offer(&access(13, "/b"));
        assert_eq!(q.window_len(), 3);
        // now = 20: only entries with t + 10 >= 20 remain → t=10, t=13
        let rows = q.rows(SimTime::from_secs(20));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key.as_ref(), "/b");
        assert_eq!(rows[0].value, 2.0);
    }

    #[test]
    fn rows_sorted_by_key() {
        let spec = QuerySpec::count_per_group("audit", "src", SimDuration::from_secs(100));
        let mut q = QueryState::new(spec);
        for p in ["/z", "/a", "/m", "/a"] {
            q.offer(&access(1, p));
        }
        let rows = q.rows(SimTime::from_secs(1));
        let keys: Vec<&str> = rows.iter().map(|r| r.key.as_ref()).collect();
        assert_eq!(keys, vec!["/a", "/m", "/z"]);
        assert_eq!(rows[0].value, 2.0);
    }

    #[test]
    fn type_and_group_field_filter_on_offer() {
        let spec = QuerySpec::count_per_group("audit", "src", SimDuration::from_secs(100));
        let mut q = QueryState::new(spec);
        q.offer(&access(0, "/a"));
        let wrong_type = Event::new(SimTime::ZERO, "block_read").with("src", "/a");
        q.offer(&wrong_type);
        let no_group = Event::new(SimTime::ZERO, "audit").with("cmd", "open");
        q.offer(&no_group);
        assert_eq!(q.window_len(), 1);
        assert_eq!(q.value_for(SimTime::ZERO, "/a"), 1.0);
    }

    #[test]
    fn value_for_specific_group() {
        let spec = QuerySpec::count_per_group("audit", "src", SimDuration::from_secs(100));
        let mut q = QueryState::new(spec);
        for p in ["/a", "/a", "/b"] {
            q.offer(&access(1, p));
        }
        assert_eq!(q.value_for(SimTime::from_secs(1), "/a"), 2.0);
        assert_eq!(q.value_for(SimTime::from_secs(1), "/b"), 1.0);
        assert_eq!(q.value_for(SimTime::from_secs(1), "/c"), 0.0);
    }

    #[test]
    fn incremental_counts_track_eviction_churn() {
        // Drive a time window through pushes and silent decay; the
        // running counts must match a brute-force recount at every step.
        let span = SimDuration::from_secs(10);
        let spec = QuerySpec::count_per_group("audit", "src", span);
        let mut q = QueryState::new(spec);
        let mut log: Vec<(u64, &str)> = Vec::new();
        let schedule: &[(u64, &str)] = &[
            (0, "/a"),
            (1, "/b"),
            (2, "/a"),
            (8, "/c"),
            (11, "/a"),
            (13, "/b"),
            (25, "/c"),
            (26, "/c"),
        ];
        for &(t, p) in schedule {
            q.offer(&access(t, p));
            log.push((t, p));
            let now = SimTime::from_secs(t);
            for key in ["/a", "/b", "/c", "/d"] {
                let expect = log
                    .iter()
                    .filter(|&&(et, ep)| ep == key && et + 10 >= t)
                    .count() as f64;
                assert_eq!(q.value_for(now, key), expect, "key {key} at t={t}");
            }
            let live: std::collections::BTreeSet<&str> = log
                .iter()
                .filter(|&&(et, _)| et + 10 >= t)
                .map(|&(_, p)| p)
                .collect();
            assert_eq!(q.group_count(), live.len(), "live groups at t={t}");
            let rows = q.rows(now);
            assert_eq!(rows.len(), live.len());
        }
        // Decay everything without pushing: groups drain to zero.
        assert_eq!(q.value_for(SimTime::from_secs(1000), "/c"), 0.0);
        assert_eq!(q.group_count(), 0);
        assert!(q.rows(SimTime::from_secs(1000)).is_empty());
    }

    fn read(t: u64, dn: &str, src: &str) -> Event {
        Event::new(SimTime::from_secs(t), "block_read")
            .with("dn", dn)
            .with("src", src)
    }

    /// Reads per `dn` over 10 s, each led by its top `src`.
    fn top_query() -> QueryState {
        QueryState::new(QuerySpec {
            top_by: Some("src".into()),
            ..QuerySpec::count_per_group("block_read", "dn", SimDuration::from_secs(10))
        })
    }

    fn top(q: &mut QueryState, now: u64, dn: &str) -> Option<(String, f64)> {
        q.top_of(SimTime::from_secs(now), dn)
            .map(|(k, n)| (k.to_string(), n))
    }

    fn lead(src: &str, n: f64) -> Option<(String, f64)> {
        Some((src.to_string(), n))
    }

    #[test]
    fn top_of_follows_eviction_and_slot_reuse() {
        let mut q = top_query();
        for (t, src) in [(0, "/a"), (0, "/a"), (1, "/b"), (5, "/b")] {
            q.offer(&read(t, "dn1", src));
        }
        assert_eq!(top(&mut q, 5, "dn1"), lead("/a", 2.0));
        // equal counts: the smaller key leads
        q.offer(&read(6, "dn2", "/z"));
        q.offer(&read(6, "dn2", "/y"));
        assert_eq!(top(&mut q, 6, "dn2"), lead("/y", 1.0));
        // sub-key death: both t=0 reads of /a leave at t=11
        assert_eq!(top(&mut q, 10, "dn1"), lead("/a", 2.0));
        assert_eq!(top(&mut q, 11, "dn1"), lead("/b", 2.0));
        assert_eq!(top(&mut q, 12, "dn1"), lead("/b", 1.0));
        // group death: dn1's last read leaves at t=16, dn2's at t=17
        assert_eq!(top(&mut q, 16, "dn1"), None);
        assert_eq!(q.group_count(), 1);
        assert_eq!(top(&mut q, 17, "dn2"), None);
        assert_eq!(q.group_count(), 0);
        // recycled group and sub slots start from zero
        q.offer(&read(20, "dn3", "/c"));
        q.offer(&read(20, "dn1", "/b"));
        q.offer(&read(21, "dn1", "/a"));
        q.offer(&read(21, "dn1", "/a"));
        assert_eq!(top(&mut q, 21, "dn3"), lead("/c", 1.0));
        assert_eq!(top(&mut q, 21, "dn1"), lead("/a", 2.0));
        assert_eq!(q.value_for(SimTime::from_secs(21), "dn1"), 3.0);
        // only string `dn` and `src` values are sub-counted
        q.offer(&read(22, "dn3", "/c").with("src", 7i64));
        q.offer(&Event::new(SimTime::from_secs(22), "block_read").with("dn", "dn3"));
        q.offer(&read(22, "dn4", "/c").with("dn", 4i64));
        assert_eq!(top(&mut q, 22, "dn3"), lead("/c", 1.0));
        assert_eq!(q.value_for(SimTime::from_secs(22), "dn3"), 3.0);
        assert_eq!(q.value_for(SimTime::from_secs(22), "4"), 1.0);
        assert_eq!(top(&mut q, 22, "4"), None);
        // a query without `top_by` has no leader
        let mut plain = QueryState::new(QuerySpec::count_per_group(
            "block_read",
            "dn",
            SimDuration::from_secs(10),
        ));
        plain.offer(&read(0, "dn1", "/a"));
        assert_eq!(top(&mut plain, 0, "dn1"), None);
    }

    /// Random reads against a recount of the raw `(t, dn, src)` log,
    /// with a checkpoint round trip in mid-window. Every count after the
    /// load comes from the reloaded window, so both reads are checked
    /// for every key at every step — including once every entry present
    /// at the checkpoint has been evicted and keys first seen after it
    /// have taken over the recycled slots — and again on reads alone.
    #[test]
    fn top_of_matches_a_recount_across_a_checkpoint() {
        use checkpoint::Checkpointable;
        use std::collections::BTreeMap;
        // dn1–dn3 before the checkpoint and dn3–dn5 after it; once its
        // entries are all gone, dn4–dn6, so dn6 takes a recycled slot
        let dns = ["dn1", "dn2", "dn3", "dn4", "dn5", "dn6"];
        let srcs = ["/a", "/b", "/c", "/d"];
        let check = |q: &mut QueryState, log: &[(u64, &str, &str)], t: u64, at: &str| {
            for dn in dns {
                let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
                for &(et, d, s) in log {
                    if d == dn && et + 10 >= t {
                        *counts.entry(s).or_default() += 1;
                    }
                }
                let total = counts.values().sum::<u64>() as f64;
                assert_eq!(q.value_for(SimTime::from_secs(t), dn), total, "{at} {dn}");
                // the largest count, ties to the smaller key
                let want = counts
                    .iter()
                    .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
                    .map(|(s, &n)| (s.to_string(), n as f64));
                assert_eq!(top(q, t, dn), want, "{at} {dn}");
            }
        };
        let mut rng = simcore::rng::DetRng::new(0x70B);
        for case in 0..50 {
            let mut q = top_query();
            let mut log: Vec<(u64, &str, &str)> = Vec::new();
            let mut t = 0u64;
            let restart_at = rng.gen_range(1, 120);
            let mut restarted_t = None;
            let mut step = 0;
            // run on past the checkpoint until its entries are all gone
            while restarted_t.is_none_or(|r| t <= r + 20) {
                t += rng.gen_range(0, 3) as u64;
                let first = match restarted_t {
                    None => 0,
                    Some(r) if t <= r + 10 => 2,
                    Some(_) => 3,
                };
                let dn = dns[first + rng.gen_range(0, 3)];
                let src = srcs[rng.gen_range(0, 4)];
                q.offer(&read(t, dn, src));
                log.push((t, dn, src));
                check(&mut q, &log, t, &format!("case {case} step {step}"));
                if step == restart_at {
                    let json = serde_json::to_string(&q.save_state()).unwrap();
                    q = top_query();
                    q.load_state(&serde_json::parse_value(&json).unwrap())
                        .unwrap();
                    check(&mut q, &log, t, &format!("case {case} at the load"));
                    assert_eq!(serde_json::to_string(&q.save_state()).unwrap(), json);
                    restarted_t = Some(t);
                }
                step += 1;
            }
            // counts decay on reads alone, down to empty
            for later in [t + 5, t + 10, t + 11, t + 100] {
                check(&mut q, &log, later, &format!("case {case} read at {later}"));
            }
            assert_eq!((q.window_len(), q.group_count()), (0, 0));
        }
    }

    #[test]
    fn a_sub_key_on_a_plain_query_is_refused() {
        use checkpoint::Checkpointable;
        let mut q = top_query();
        q.offer(&read(0, "dn1", "/a"));
        let saved = q.save_state();
        let mut plain = QueryState::new(QuerySpec::count_per_group(
            "block_read",
            "dn",
            SimDuration::from_secs(10),
        ));
        assert!(matches!(
            plain.load_state(&saved),
            Err(checkpoint::CheckpointError::Corrupt(_))
        ));
    }
}
