//! Timestamped events with typed fields.
//!
//! Events are schemaless: an event type name plus a small field map.
//! Audit-log streams have few distinct keys, so a sorted `Vec` beats a
//! hash map for both memory and lookup at these sizes.

use simcore::SimTime;
use std::fmt;
use std::sync::Arc;

/// A field value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
    /// Strings are `Arc`ed: paths recur across thousands of events and
    /// group-by keys clone them freely.
    Str(Arc<str>),
    Bool(bool),
}

impl Value {
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A CEP event: a type name, a timestamp and fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub time: SimTime,
    pub event_type: Arc<str>,
    fields: Vec<(Arc<str>, Value)>,
}

impl Event {
    pub fn new(time: SimTime, event_type: impl AsRef<str>) -> Self {
        Event {
            time,
            event_type: Arc::from(event_type.as_ref()),
            fields: Vec::new(),
        }
    }

    /// [`new`](Self::new) for hot paths: takes an already-interned type
    /// name (a refcount bump, not a fresh allocation) and pre-sizes the
    /// field vector. The audit-line parser feeds millions of events per
    /// second through here.
    pub fn new_interned(time: SimTime, event_type: Arc<str>, field_capacity: usize) -> Self {
        Event {
            time,
            event_type,
            fields: Vec::with_capacity(field_capacity),
        }
    }

    /// Reset in place for reuse as a scratch buffer: swaps time and
    /// type, clears the fields but keeps their allocation. A parser
    /// loop refilling one event per line allocates nothing at steady
    /// state.
    pub fn reset_interned(&mut self, time: SimTime, event_type: Arc<str>) {
        self.time = time;
        self.event_type = event_type;
        self.fields.clear();
    }

    /// Replace this event's fields with clones of another event's —
    /// refcount bumps into this event's existing buffer, no fresh
    /// string allocations. The parser's line memo replays cached parse
    /// results through here.
    pub fn clone_fields_from(&mut self, src: &Event) {
        self.fields.clear();
        self.fields.extend(src.fields.iter().cloned());
    }

    /// [`set`](Self::set) with an already-interned key: skips the
    /// per-call `Arc::from` the string-keyed setter pays on insert.
    pub fn set_interned(&mut self, key: Arc<str>, value: Value) {
        match self
            .fields
            .binary_search_by(|(k, _)| k.as_ref().cmp(key.as_ref()))
        {
            Ok(i) => self.fields[i].1 = value,
            Err(i) => self.fields.insert(i, (key, value)),
        }
    }

    /// Builder-style field setter; overwrites an existing key.
    pub fn with(mut self, key: impl AsRef<str>, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }

    pub fn set(&mut self, key: impl AsRef<str>, value: impl Into<Value>) {
        let key = key.as_ref();
        let value = value.into();
        match self.fields.binary_search_by(|(k, _)| k.as_ref().cmp(key)) {
            Ok(i) => self.fields[i].1 = value,
            Err(i) => self.fields.insert(i, (Arc::from(key), value)),
        }
    }

    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields
            .binary_search_by(|(k, _)| k.as_ref().cmp(key))
            .ok()
            .map(|i| &self.fields[i].1)
    }

    pub fn fields(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_ref(), v))
    }

    pub fn num_fields(&self) -> usize {
        self.fields.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_and_gets() {
        let e = Event::new(SimTime::from_secs(5), "audit")
            .with("cmd", "open")
            .with("src", "/data/a")
            .with("size", 42i64);
        assert_eq!(e.event_type.as_ref(), "audit");
        assert_eq!(e.get("cmd").unwrap().as_str(), Some("open"));
        assert_eq!(e.get("size").unwrap().as_i64(), Some(42));
        assert!(e.get("missing").is_none());
        assert_eq!(e.num_fields(), 3);
    }

    #[test]
    fn set_overwrites() {
        let mut e = Event::new(SimTime::ZERO, "t").with("k", 1i64);
        e.set("k", 2i64);
        assert_eq!(e.get("k").unwrap().as_i64(), Some(2));
        assert_eq!(e.num_fields(), 1);
    }

    #[test]
    fn fields_iterate_sorted() {
        let e = Event::new(SimTime::ZERO, "t")
            .with("zebra", 1i64)
            .with("alpha", 2i64)
            .with("mid", 3i64);
        let keys: Vec<&str> = e.fields().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["alpha", "mid", "zebra"]);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::from("abc").as_str(), Some("abc"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("p").to_string(), "p");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }
}
