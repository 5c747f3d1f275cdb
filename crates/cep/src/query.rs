//! Continuous queries.
//!
//! A [`QuerySpec`] is the declarative shape
//! `FROM type(predicates…) .win:… [GROUP BY field [, top_by]] SELECT
//! agg(field) [HAVING agg ⋄ threshold]`; [`QueryState`] is its
//! incremental runtime: it owns a window, applies the filter on arrival
//! and computes grouped aggregates on demand. ERMS's data judge runs a
//! handful of these over the audit stream (accesses per file, accesses
//! per block, accesses per datanode and which file leads each one).

use crate::event::{Event, Value};
use crate::fnv::FnvBuildHasher;
use crate::window::Window;
use simcore::{SimDuration, SimTime};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Group-key → slot-index map, hashed with the cheap FNV hasher —
/// group probes happen once per accepted event on the ingest hot path.
type GroupIndex = HashMap<Arc<str>, u32, FnvBuildHasher>;

/// `(group slot, top_by value)` → sub-slot index. The values are audit
/// paths, so the map keeps the default hasher's collision resistance.
type SubIndex = HashMap<(u32, Arc<str>), u32>;

/// Window clause of a query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowSpec {
    Time(SimDuration),
    Length(usize),
}

impl WindowSpec {
    pub fn instantiate(self) -> Window {
        match self {
            WindowSpec::Time(d) => Window::time(d),
            WindowSpec::Length(n) => Window::length(n),
        }
    }
}

/// A filter on one event field.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    Eq(String, Value),
    Ne(String, Value),
    Gt(String, f64),
    Lt(String, f64),
    /// Field exists (any value).
    Has(String),
}

impl Predicate {
    pub fn matches(&self, event: &Event) -> bool {
        match self {
            Predicate::Eq(k, v) => event.get(k).is_some_and(|x| x.loosely_eq(v)),
            Predicate::Ne(k, v) => event.get(k).is_some_and(|x| !x.loosely_eq(v)),
            Predicate::Gt(k, t) => event.get(k).and_then(Value::as_f64).is_some_and(|x| x > *t),
            Predicate::Lt(k, t) => event.get(k).and_then(Value::as_f64).is_some_and(|x| x < *t),
            Predicate::Has(k) => event.get(k).is_some(),
        }
    }
}

/// Aggregate function over the windowed events of one group.
#[derive(Debug, Clone, PartialEq)]
pub enum AggFn {
    Count,
    Sum(String),
    Avg(String),
    Max(String),
    Min(String),
    /// Count of distinct values of a field (e.g. distinct client IPs).
    CountDistinct(String),
}

impl AggFn {
    /// Whether [`QueryState`] can maintain this aggregate as running
    /// per-group counters under window push/evict. `Max`/`Min`/
    /// `CountDistinct` are not invertible under eviction (removing the
    /// current max tells you nothing about the runner-up) and fall back
    /// to a window rescan on read.
    pub fn is_incremental(&self) -> bool {
        matches!(self, AggFn::Count | AggFn::Sum(_) | AggFn::Avg(_))
    }

    /// The event field the aggregate reads, if any.
    fn field(&self) -> Option<&str> {
        match self {
            AggFn::Count => None,
            AggFn::Sum(f)
            | AggFn::Avg(f)
            | AggFn::Max(f)
            | AggFn::Min(f)
            | AggFn::CountDistinct(f) => Some(f),
        }
    }

    pub fn apply<'a>(&self, events: impl Iterator<Item = &'a Event>) -> f64 {
        match self {
            AggFn::Count => events.count() as f64,
            AggFn::Sum(f) => events.filter_map(|e| e.get(f)?.as_f64()).sum(),
            AggFn::Avg(f) => {
                let vals: Vec<f64> = events.filter_map(|e| e.get(f)?.as_f64()).collect();
                if vals.is_empty() {
                    0.0
                } else {
                    vals.iter().sum::<f64>() / vals.len() as f64
                }
            }
            AggFn::Max(f) => events
                .filter_map(|e| e.get(f)?.as_f64())
                .fold(f64::NEG_INFINITY, f64::max),
            AggFn::Min(f) => events
                .filter_map(|e| e.get(f)?.as_f64())
                .fold(f64::INFINITY, f64::min),
            AggFn::CountDistinct(f) => {
                let mut seen: Vec<String> = events
                    .filter_map(|e| e.get(f).map(|v| v.to_string()))
                    .collect();
                seen.sort_unstable();
                seen.dedup();
                seen.len() as f64
            }
        }
    }
}

/// HAVING-clause comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Comparison {
    Gt(f64),
    Ge(f64),
    Lt(f64),
    Le(f64),
    Eq(f64),
}

impl Comparison {
    pub fn test(self, x: f64) -> bool {
        match self {
            Comparison::Gt(t) => x > t,
            Comparison::Ge(t) => x >= t,
            Comparison::Lt(t) => x < t,
            Comparison::Le(t) => x <= t,
            Comparison::Eq(t) => (x - t).abs() < f64::EPSILON,
        }
    }
}

/// Declarative query description.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Event type to consume; `None` consumes every type.
    pub from: Option<String>,
    pub predicates: Vec<Predicate>,
    pub window: WindowSpec,
    pub group_by: Option<String>,
    /// A nested count by a second field inside each group (Esper's
    /// `group by dn, src` when the question is "which `src` leads each
    /// `dn`"), read with [`QueryState::top_of`]. Only events whose
    /// `group_by` and `top_by` values are both strings are sub-counted.
    /// Needs an incremental aggregate.
    pub top_by: Option<String>,
    pub aggregate: AggFn,
    pub having: Option<Comparison>,
}

impl QuerySpec {
    /// Count events of `event_type` per `group_field` within a sliding
    /// time window — the workhorse shape for ERMS's judge.
    pub fn count_per_group(
        event_type: impl Into<String>,
        group_field: impl Into<String>,
        window: SimDuration,
    ) -> Self {
        QuerySpec {
            from: Some(event_type.into()),
            predicates: Vec::new(),
            window: WindowSpec::Time(window),
            group_by: Some(group_field.into()),
            top_by: None,
            aggregate: AggFn::Count,
            having: None,
        }
    }

    pub fn accepts(&self, event: &Event) -> bool {
        if let Some(ty) = &self.from {
            if event.event_type.as_ref() != ty {
                return false;
            }
        }
        self.predicates.iter().all(|p| p.matches(event))
    }
}

/// Output row of a query: group key (empty string for ungrouped) and
/// aggregate value.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRow {
    pub key: Arc<str>,
    pub value: f64,
}

/// Running per-group counters, maintained on window push *and* evict.
///
/// `Count` reads `events` (integer-exact under increment/decrement);
/// `Sum`/`Avg` read `sum`/`numeric`. Incremental float sums can drift
/// from a rescan by rounding after many evictions, but a group whose
/// last event leaves the window is dropped from the map entirely, so
/// decayed groups read exactly `0.0` and never leak memory.
#[derive(Debug, Clone, Copy, Default)]
struct GroupAgg {
    /// Events of this group currently in the window.
    events: u64,
    /// Events whose aggregate field parsed as a number.
    numeric: u64,
    /// Running sum of the aggregate field.
    sum: f64,
}

impl GroupAgg {
    fn add(&mut self, num: Option<f64>) {
        self.events += 1;
        if let Some(x) = num {
            self.numeric += 1;
            self.sum += x;
        }
    }

    fn remove(&mut self, num: Option<f64>) {
        self.events = self.events.saturating_sub(1);
        if let Some(x) = num {
            self.numeric = self.numeric.saturating_sub(1);
            self.sum -= x;
        }
    }

    fn value(&self, agg: &AggFn) -> f64 {
        match agg {
            AggFn::Count => self.events as f64,
            AggFn::Sum(_) => self.sum,
            AggFn::Avg(_) => {
                if self.numeric == 0 {
                    0.0
                } else {
                    self.sum / self.numeric as f64
                }
            }
            // Non-incremental aggregates never read GroupAgg.
            _ => unreachable!("GroupAgg::value on non-incremental aggregate"),
        }
    }
}

/// One live group: its key and running aggregates. Slots are reused
/// through a free list once the group's last windowed event departs.
#[derive(Debug)]
struct GroupSlot {
    key: Arc<str>,
    agg: GroupAgg,
    /// The group's live sub-slots (`top_by` queries), unordered.
    subs: Vec<u32>,
}

impl GroupSlot {
    fn new(key: &Arc<str>) -> Self {
        GroupSlot {
            key: key.clone(),
            agg: GroupAgg::default(),
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
/// counters by direct indexing instead of rehashing the key string, and
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
        slot.count = slot.count.saturating_sub(1);
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

    /// Slot index for a key already in the table — no allocation, no
    /// memo. The full-event eviction path resolves departing keys here.
    fn lookup(&self, v: &Value) -> Option<u32> {
        match v {
            Value::Str(s) => self.index.get(s.as_ref()).copied(),
            other => self.index.get(other.to_string().as_str()).copied(),
        }
    }

    fn add(&mut self, idx: u32, num: Option<f64>) {
        self.slots[idx as usize].agg.add(num);
    }

    /// Reverse one departing event; a group hitting zero events is
    /// removed from the map and its slot recycled.
    fn remove(&mut self, idx: u32, num: Option<f64>) {
        let slot = &mut self.slots[idx as usize];
        slot.agg.remove(num);
        if slot.agg.events == 0 {
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

    fn get(&self, key: &str) -> Option<&GroupAgg> {
        self.index
            .get(key)
            .map(|&idx| &self.slots[idx as usize].agg)
    }

    fn iter(&self) -> impl Iterator<Item = (&Arc<str>, &GroupAgg)> {
        self.index
            .iter()
            .map(|(k, &idx)| (k, &self.slots[idx as usize].agg))
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

/// One windowed entry of an incremental query: exactly what eviction
/// needs to reverse the running aggregates — entry time, group slot
/// index, sub-slot index, aggregate-field sample. A few dozen bytes
/// instead of a cloned event, and no refcount traffic per entry.
#[derive(Debug, Clone)]
struct SlimEntry {
    time: SimTime,
    group: Option<u32>,
    sub: Option<u32>,
    num: Option<f64>,
}

/// Windowed storage of one query.
///
/// Incremental aggregates (`Count`/`Sum`/`Avg`) never re-read stored
/// events — eviction only reverses counters — so they keep a
/// [`SlimEntry`] per event instead of cloning the whole event into the
/// window: no per-event allocation on push, no field lookup on evict.
/// The non-invertible aggregates keep full events for their
/// rescan-on-read path.
#[derive(Debug)]
enum Store {
    Events(Window),
    Slim {
        spec: WindowSpec,
        buf: VecDeque<SlimEntry>,
    },
}

/// Incremental runtime of one query.
///
/// For `Count`/`Sum`/`Avg` the state keeps per-group running aggregates
/// (updated as events enter and leave the window), so
/// [`rows`](Self::rows) is O(live groups · log groups) and
/// [`value_for`](Self::value_for) is
/// O(1) — not O(window) with a `to_string` per event. The
/// non-invertible aggregates (`Max`/`Min`/`CountDistinct`) keep the
/// rescan-on-read path.
#[derive(Debug)]
pub struct QueryState {
    pub spec: QuerySpec,
    store: Store,
    /// Per-group running aggregates, indexed slots + key map.
    groups: GroupTable,
    /// Whole-window aggregate (serves ungrouped queries).
    total: GroupAgg,
}

impl QueryState {
    pub fn new(spec: QuerySpec) -> Self {
        assert!(
            spec.top_by.is_none() || spec.aggregate.is_incremental(),
            "top_by needs an incremental aggregate"
        );
        let store = if spec.aggregate.is_incremental() {
            if let WindowSpec::Length(n) = spec.window {
                assert!(n > 0, "length window needs capacity >= 1");
            }
            Store::Slim {
                spec: spec.window,
                buf: VecDeque::new(),
            }
        } else {
            Store::Events(spec.window.instantiate())
        };
        QueryState {
            spec,
            store,
            groups: GroupTable::default(),
            total: GroupAgg::default(),
        }
    }

    /// The full-event window (non-incremental aggregates only).
    fn window(&self) -> &Window {
        match &self.store {
            Store::Events(w) => w,
            Store::Slim { .. } => unreachable!("slim store never serves a window rescan"),
        }
    }

    /// Offer an event; returns true if it entered the window.
    pub fn offer(&mut self, event: &Event) -> bool {
        if !self.spec.accepts(event) {
            return false;
        }
        let num = self
            .spec
            .aggregate
            .field()
            .and_then(|f| event.get(f).and_then(Value::as_f64));
        let group_value = self.spec.group_by.as_deref().and_then(|f| event.get(f));
        let group = group_value.map(|v| self.groups.index_of(v));
        self.total.add(num);
        if let Some(gi) = group {
            self.groups.add(gi, num);
        }
        let top_value = self.spec.top_by.as_deref().and_then(|f| event.get(f));
        let sub = match (group, group_value, top_value) {
            (Some(gi), Some(Value::Str(_)), Some(Value::Str(s))) => {
                Some(self.groups.add_sub(gi, s))
            }
            _ => None,
        };
        match &mut self.store {
            Store::Events(w) => {
                let (groups, spec, total) = (&mut self.groups, &self.spec, &mut self.total);
                w.push_with(event.clone(), |evicted| {
                    Self::evict_event(groups, total, spec, &evicted);
                });
            }
            Store::Slim { spec: wspec, buf } => {
                let (groups, total) = (&mut self.groups, &mut self.total);
                let entry = SlimEntry {
                    time: event.time,
                    group,
                    sub,
                    num,
                };
                match wspec {
                    WindowSpec::Time(span) => {
                        // Same boundary rule as Window::push_with: evict
                        // strictly-older-than now - span, keep boundary.
                        let cutoff = event.time.since(SimTime::ZERO);
                        buf.push_back(entry);
                        while let Some(front) = buf.front() {
                            if front.time.since(SimTime::ZERO) + *span < cutoff {
                                let e = buf.pop_front().expect("front exists");
                                Self::evict_slim(groups, total, e);
                            } else {
                                break;
                            }
                        }
                    }
                    WindowSpec::Length(capacity) => {
                        if buf.len() == *capacity {
                            let e = buf.pop_front().expect("front exists");
                            Self::evict_slim(groups, total, e);
                        }
                        buf.push_back(entry);
                    }
                }
            }
        }
        true
    }

    /// Decrement the running aggregates for an event leaving a
    /// full-event window.
    fn evict_event(
        groups: &mut GroupTable,
        total: &mut GroupAgg,
        spec: &QuerySpec,
        evicted: &Event,
    ) {
        let num = spec
            .aggregate
            .field()
            .and_then(|f| evicted.get(f).and_then(Value::as_f64));
        let group = spec
            .group_by
            .as_deref()
            .and_then(|f| evicted.get(f))
            .and_then(|v| groups.lookup(v));
        Self::evict_slim(
            groups,
            total,
            SlimEntry {
                time: evicted.time,
                group,
                sub: None,
                num,
            },
        );
    }

    /// Decrement the running aggregates for one departing entry.
    fn evict_slim(groups: &mut GroupTable, total: &mut GroupAgg, entry: SlimEntry) {
        total.remove(entry.num);
        if let Some(sub) = entry.sub {
            groups.remove_sub(sub);
        }
        if let Some(gi) = entry.group {
            groups.remove(gi, entry.num);
        }
    }

    /// Expire stale events at `now`, keeping the running aggregates in
    /// step with the window.
    fn decay(&mut self, now: SimTime) {
        match &mut self.store {
            Store::Events(w) => {
                let (groups, spec, total) = (&mut self.groups, &self.spec, &mut self.total);
                w.expire_with(now, |evicted| {
                    Self::evict_event(groups, total, spec, &evicted);
                });
            }
            Store::Slim {
                spec: WindowSpec::Time(span),
                buf,
            } => {
                let cutoff = now.since(SimTime::ZERO);
                while let Some(front) = buf.front() {
                    if front.time.since(SimTime::ZERO) + *span < cutoff {
                        let e = buf.pop_front().expect("front exists");
                        Self::evict_slim(&mut self.groups, &mut self.total, e);
                    } else {
                        break;
                    }
                }
            }
            // Length windows never expire by time.
            Store::Slim { .. } => {}
        }
    }

    /// Evaluate grouped aggregates at `now`, applying HAVING.
    /// Rows come out sorted by group key for determinism.
    pub fn rows(&mut self, now: SimTime) -> Vec<GroupRow> {
        self.decay(now);
        let incremental = self.spec.aggregate.is_incremental();
        let having = self.spec.having;
        let mut rows = Vec::new();
        let mut emit = |key: &Arc<str>, value: f64| {
            if having.is_none_or(|h| h.test(value)) {
                rows.push(GroupRow {
                    key: key.clone(),
                    value,
                });
            }
        };
        match &self.spec.group_by {
            None => {
                let v = if incremental {
                    self.total.value(&self.spec.aggregate)
                } else {
                    self.spec.aggregate.apply(self.window().iter())
                };
                emit(&Arc::from(""), v);
            }
            Some(_) if incremental => {
                for (key, agg) in self.groups.iter() {
                    emit(key, agg.value(&self.spec.aggregate));
                }
            }
            Some(field) => {
                let mut groups: BTreeMap<String, Vec<&Event>> = BTreeMap::new();
                for e in self.window().iter() {
                    if let Some(v) = e.get(field) {
                        groups.entry(v.to_string()).or_default().push(e);
                    }
                }
                for (key, events) in groups {
                    let v = self.spec.aggregate.apply(events.into_iter());
                    emit(&Arc::from(key.as_str()), v);
                }
            }
        }
        // An incremental query visits its hash map in arbitrary order;
        // sort to keep the documented deterministic row order.
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

    /// Aggregate value for one specific group key at `now` (no HAVING).
    ///
    /// For an ungrouped query the single row lives under the empty key
    /// (matching [`rows`](Self::rows)): `value_for(now, "")` returns the
    /// whole-window aggregate and any other key reads `0.0`, exactly as
    /// if the row did not exist.
    pub fn value_for(&mut self, now: SimTime, key: &str) -> f64 {
        self.decay(now);
        let field = match &self.spec.group_by {
            Some(f) => f,
            None => {
                if !key.is_empty() {
                    return 0.0;
                }
                return if self.spec.aggregate.is_incremental() {
                    self.total.value(&self.spec.aggregate)
                } else {
                    self.spec.aggregate.apply(self.window().iter())
                };
            }
        };
        if self.spec.aggregate.is_incremental() {
            return self
                .groups
                .get(key)
                .map(|g| g.value(&self.spec.aggregate))
                .unwrap_or(0.0);
        }
        let events = self
            .window()
            .iter()
            .filter(|e| e.get(field).is_some_and(|v| v.to_string() == key));
        self.spec.aggregate.apply(events)
    }

    pub fn window_len(&self) -> usize {
        match &self.store {
            Store::Events(w) => w.len(),
            Store::Slim { buf, .. } => buf.len(),
        }
    }

    /// Live groups currently tracked by the running aggregates.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

checkpoint::ck_record!(GroupAgg [events, numeric, sum]);

/// A slim window entry on the wire, a fixed five cells: `[time,
/// has_key, key, has_num, num]`. Group slot indices are a runtime
/// detail; the wire carries the key string.
type SlimRow = (SimTime, bool, Arc<str>, bool, f64);

impl checkpoint::Checkpointable for QueryState {
    // The spec is NOT serialized: restore rebuilds the engine through the
    // same registration calls and only hydrates runtime state. The
    // running aggregates ARE serialized (not recomputed from the window)
    // because incremental float sums can drift from a rescan — a restored
    // run must continue from the drifted values the live run holds. The
    // `top_by` counts are integers, so they are rebuilt from the window:
    // a `top_by` query writes each entry's sub-key beside `buf`.
    fn save_state(&self) -> checkpoint::Value {
        use checkpoint::codec::{Ck, MapBuilder};
        let window = match &self.store {
            Store::Events(w) => w.put(),
            Store::Slim { buf, .. } => {
                let no_key: Arc<str> = Arc::from("");
                let rows: Vec<SlimRow> = buf
                    .iter()
                    .map(|e| {
                        let key = e.group.map_or(&no_key, |gi| self.groups.key_of(gi));
                        let num = e.num.unwrap_or(0.0);
                        (e.time, e.group.is_some(), key.clone(), e.num.is_some(), num)
                    })
                    .collect();
                let section = MapBuilder::tagged("kind", "slim").put("buf", &rows);
                if self.spec.top_by.is_some() {
                    let subs: Vec<Option<Arc<str>>> = buf
                        .iter()
                        .map(|e| e.sub.map(|s| self.groups.sub_key(s).clone()))
                        .collect();
                    section.put("subs", &subs)
                } else {
                    section
                }
                .build()
            }
        };
        // The group map iterates in hash order; serialize sorted so a
        // snapshot re-saves to identical bytes.
        let mut groups: Vec<(Arc<str>, GroupAgg)> =
            self.groups.iter().map(|(k, g)| (k.clone(), *g)).collect();
        groups.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        MapBuilder::new()
            .raw("window", window)
            .put("groups", &groups)
            .put("total", &self.total)
            .build()
    }

    fn load_state(&mut self, state: &checkpoint::Value) -> Result<(), checkpoint::CheckpointError> {
        use checkpoint::codec::{field, get, Ck};
        // Groups load first: slim window entries resolve their group
        // slot index against the rebuilt table.
        self.groups.clear();
        for (key, agg) in get::<Vec<(Arc<str>, GroupAgg)>>(state, "groups")? {
            let idx = self.groups.index_of_key(&key);
            self.groups.slots[idx as usize].agg = agg;
        }
        let window = field(state, "window")?;
        match &mut self.store {
            Store::Events(w) => *w = Window::take(window, "window")?,
            Store::Slim { buf, .. } => {
                if get::<String>(window, "kind")? != "slim" {
                    return Err(checkpoint::CheckpointError::Corrupt(
                        "incremental query expects a slim window section".into(),
                    ));
                }
                buf.clear();
                let rows = get::<Vec<SlimRow>>(window, "buf")?;
                let subs = match self.spec.top_by {
                    Some(_) => get::<Vec<Option<Arc<str>>>>(window, "subs")?,
                    None => vec![None; rows.len()],
                };
                if subs.len() != rows.len() {
                    return Err(checkpoint::CheckpointError::Corrupt(format!(
                        "{} window entries but {} sub-keys",
                        rows.len(),
                        subs.len()
                    )));
                }
                for ((time, has_key, key, has_num, num), sub) in rows.into_iter().zip(subs) {
                    let group = has_key.then(|| self.groups.index_of_key(&key));
                    let sub = match (group, sub) {
                        (Some(gi), Some(s)) => Some(self.groups.add_sub(gi, &s)),
                        (None, Some(_)) => {
                            return Err(checkpoint::CheckpointError::Corrupt(
                                "a sub-keyed window entry has no group".into(),
                            ))
                        }
                        (_, None) => None,
                    };
                    buf.push_back(SlimEntry {
                        time,
                        group,
                        sub,
                        num: has_num.then_some(num),
                    });
                }
            }
        }
        self.total = get(state, "total")?;
        Ok(())
    }
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
    fn predicate_matching() {
        let e = access(1, "/a").with("size", 10i64);
        assert!(Predicate::Eq("cmd".into(), Value::str("open")).matches(&e));
        assert!(!Predicate::Eq("cmd".into(), Value::str("create")).matches(&e));
        assert!(Predicate::Ne("cmd".into(), Value::str("create")).matches(&e));
        assert!(Predicate::Gt("size".into(), 5.0).matches(&e));
        assert!(!Predicate::Lt("size".into(), 5.0).matches(&e));
        assert!(Predicate::Has("src".into()).matches(&e));
        assert!(!Predicate::Has("dst".into()).matches(&e));
        // missing field never matches comparisons
        assert!(!Predicate::Gt("nope".into(), 0.0).matches(&e));
    }

    #[test]
    fn count_per_group_within_window() {
        let spec = QuerySpec::count_per_group("audit", "src", SimDuration::from_secs(10));
        let mut q = QueryState::new(spec);
        for (t, p) in [(0, "/a"), (1, "/a"), (2, "/b"), (8, "/a"), (20, "/b")] {
            q.offer(&access(t, p));
        }
        // now = 20: only events with t + 10 >= 20 remain → t=20 (/b)
        let rows = q.rows(SimTime::from_secs(20));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key.as_ref(), "/b");
        assert_eq!(rows[0].value, 1.0);
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
    fn having_filters_rows() {
        let mut spec = QuerySpec::count_per_group("audit", "src", SimDuration::from_secs(100));
        spec.having = Some(Comparison::Ge(2.0));
        let mut q = QueryState::new(spec);
        for p in ["/a", "/a", "/b"] {
            q.offer(&access(1, p));
        }
        let rows = q.rows(SimTime::from_secs(1));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key.as_ref(), "/a");
    }

    #[test]
    fn type_and_predicate_filter_on_offer() {
        let mut spec = QuerySpec::count_per_group("audit", "src", SimDuration::from_secs(100));
        spec.predicates
            .push(Predicate::Eq("cmd".into(), Value::str("open")));
        let mut q = QueryState::new(spec);
        assert!(q.offer(&access(0, "/a")));
        let wrong_type = Event::new(SimTime::ZERO, "block_read").with("src", "/a");
        assert!(!q.offer(&wrong_type));
        let wrong_cmd = Event::new(SimTime::ZERO, "audit")
            .with("cmd", "delete")
            .with("src", "/a");
        assert!(!q.offer(&wrong_cmd));
        assert_eq!(q.window_len(), 1);
    }

    #[test]
    fn aggregates() {
        let evs: Vec<Event> = [1.0, 2.0, 3.0, 2.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| Event::new(SimTime::from_secs(i as u64), "m").with("v", v))
            .collect();
        assert_eq!(AggFn::Count.apply(evs.iter()), 4.0);
        assert_eq!(AggFn::Sum("v".into()).apply(evs.iter()), 8.0);
        assert_eq!(AggFn::Avg("v".into()).apply(evs.iter()), 2.0);
        assert_eq!(AggFn::Max("v".into()).apply(evs.iter()), 3.0);
        assert_eq!(AggFn::Min("v".into()).apply(evs.iter()), 1.0);
        assert_eq!(AggFn::CountDistinct("v".into()).apply(evs.iter()), 3.0);
        assert_eq!(AggFn::Avg("v".into()).apply(std::iter::empty()), 0.0);
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
    fn ungrouped_query_single_row() {
        let spec = QuerySpec {
            from: Some("audit".into()),
            predicates: vec![],
            window: WindowSpec::Length(2),
            group_by: None,
            top_by: None,
            aggregate: AggFn::Count,
            having: None,
        };
        let mut q = QueryState::new(spec);
        for t in 0..5 {
            q.offer(&access(t, "/a"));
        }
        let rows = q.rows(SimTime::from_secs(4));
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].value, 2.0, "length window caps at 2");
    }

    #[test]
    fn ungrouped_value_for_matches_rows_key() {
        // The ungrouped row lives under "" — value_for must agree with
        // rows() on both the empty key and every other key.
        let spec = QuerySpec {
            from: Some("audit".into()),
            predicates: vec![],
            window: WindowSpec::Time(SimDuration::from_secs(100)),
            group_by: None,
            top_by: None,
            aggregate: AggFn::Count,
            having: None,
        };
        let mut q = QueryState::new(spec);
        for t in 0..4 {
            q.offer(&access(t, "/a"));
        }
        let now = SimTime::from_secs(4);
        let rows = q.rows(now);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].key.as_ref(), "");
        assert_eq!(q.value_for(now, ""), rows[0].value);
        // A key that names no row reads 0.0, not the global aggregate.
        assert_eq!(q.value_for(now, "/a"), 0.0);
        assert_eq!(q.value_for(now, "/missing"), 0.0);
    }

    #[test]
    fn incremental_counts_track_eviction_churn() {
        // Drive a time window through pushes and silent decay; the
        // running aggregates must match a brute-force recount at every
        // step.
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

    #[test]
    fn incremental_sum_and_avg_survive_eviction() {
        let mk = |t: u64, key: &str, v: f64| {
            Event::new(SimTime::from_secs(t), "m")
                .with("k", key)
                .with("v", v)
        };
        for agg in [AggFn::Sum("v".into()), AggFn::Avg("v".into())] {
            let spec = QuerySpec {
                from: Some("m".into()),
                predicates: vec![],
                window: WindowSpec::Time(SimDuration::from_secs(10)),
                group_by: Some("k".into()),
                top_by: None,
                aggregate: agg.clone(),
                having: None,
            };
            let mut q = QueryState::new(spec);
            q.offer(&mk(0, "/a", 4.0));
            q.offer(&mk(1, "/a", 2.0));
            q.offer(&mk(2, "/b", 7.0));
            let now = SimTime::from_secs(2);
            let (a, b) = match agg {
                AggFn::Sum(_) => (6.0, 7.0),
                _ => (3.0, 7.0),
            };
            assert_eq!(q.value_for(now, "/a"), a);
            assert_eq!(q.value_for(now, "/b"), b);
            // t=12 evicts t=0 and t=1 (strictly older than now - span).
            let later = SimTime::from_secs(12);
            assert_eq!(q.value_for(later, "/a"), 0.0);
            assert_eq!(q.value_for(later, "/b"), 7.0);
        }
    }

    #[test]
    fn non_incremental_aggregates_rescan_after_eviction() {
        // Max is not invertible under eviction; the fallback rescan must
        // recover the runner-up once the max leaves the window.
        let mk = |t: u64, v: f64| {
            Event::new(SimTime::from_secs(t), "m")
                .with("k", "/a")
                .with("v", v)
        };
        let spec = QuerySpec {
            from: Some("m".into()),
            predicates: vec![],
            window: WindowSpec::Time(SimDuration::from_secs(10)),
            group_by: Some("k".into()),
            top_by: None,
            aggregate: AggFn::Max("v".into()),
            having: None,
        };
        let mut q = QueryState::new(spec);
        q.offer(&mk(0, 9.0));
        q.offer(&mk(5, 3.0));
        assert_eq!(q.value_for(SimTime::from_secs(5), "/a"), 9.0);
        assert_eq!(q.value_for(SimTime::from_secs(11), "/a"), 3.0);
    }

    #[test]
    fn length_window_eviction_updates_groups() {
        let spec = QuerySpec {
            from: Some("audit".into()),
            predicates: vec![],
            window: WindowSpec::Length(2),
            group_by: Some("src".into()),
            top_by: None,
            aggregate: AggFn::Count,
            having: None,
        };
        let mut q = QueryState::new(spec);
        q.offer(&access(0, "/a"));
        q.offer(&access(1, "/a"));
        q.offer(&access(2, "/b")); // evicts the t=0 "/a"
        let now = SimTime::from_secs(2);
        assert_eq!(q.value_for(now, "/a"), 1.0);
        assert_eq!(q.value_for(now, "/b"), 1.0);
        assert_eq!(q.group_count(), 2);
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
    /// with a checkpoint round trip in mid-window.
    #[test]
    fn top_of_matches_a_recount_across_a_checkpoint() {
        use checkpoint::Checkpointable;
        let dns = ["dn1", "dn2", "dn3"];
        let srcs = ["/a", "/b", "/c", "/d"];
        let mut rng = simcore::rng::DetRng::new(0x70B);
        for case in 0..50 {
            let mut q = top_query();
            let mut log: Vec<(u64, &str, &str)> = Vec::new();
            let mut t = 0u64;
            let restart_at = rng.gen_range(1, 120);
            for step in 0..150 {
                t += rng.gen_range(0, 3) as u64;
                let (dn, src) = (dns[rng.gen_range(0, 3)], srcs[rng.gen_range(0, 4)]);
                q.offer(&read(t, dn, src));
                log.push((t, dn, src));
                for dn in dns {
                    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
                    for &(et, d, s) in &log {
                        if d == dn && et + 10 >= t {
                            *counts.entry(s).or_default() += 1;
                        }
                    }
                    // the largest count, ties to the smaller key
                    let want = counts
                        .iter()
                        .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
                        .map(|(s, &n)| (s.to_string(), n as f64));
                    assert_eq!(top(&mut q, t, dn), want, "case {case} step {step} {dn}");
                }
                if step == restart_at {
                    let json = serde_json::to_string(&q.save_state()).unwrap();
                    q = top_query();
                    q.load_state(&serde_json::parse_value(&json).unwrap())
                        .unwrap();
                    assert_eq!(serde_json::to_string(&q.save_state()).unwrap(), json);
                }
            }
        }
    }

    #[test]
    fn comparison_tests() {
        assert!(Comparison::Gt(1.0).test(2.0));
        assert!(!Comparison::Gt(1.0).test(1.0));
        assert!(Comparison::Ge(1.0).test(1.0));
        assert!(Comparison::Lt(1.0).test(0.5));
        assert!(Comparison::Le(1.0).test(1.0));
        assert!(Comparison::Eq(2.0).test(2.0));
    }
}
