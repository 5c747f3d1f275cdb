//! The versioned snapshot envelope.
//!
//! A snapshot is one JSON document:
//!
//! ```json
//! {
//!   "version": 7,
//!   "meta": { "scenario": "faults-small", "seed": 42, "tick": 10 },
//!   "sections": { "cluster": { ... }, "manager": { ... }, ... }
//! }
//! ```
//!
//! `version` is checked *first* on load: a snapshot written by any
//! other format — newer, the retired version 1 (per-file state keyed
//! by path, not `FileId`), version 2 (whose `manager` section carried
//! a `policy` key for the since-deleted learned judges), version 3
//! (whose manager records carried an `active` flag and a `cold_due`
//! cell, and which saved a `tick_count`), version 4 (whose judge
//! engine held a fourth query over derived per-(datanode, file)
//! events), version 5 (whose queries wrote their group aggregates
//! beside the window) or version 6 (whose judge engine wrote a
//! `patterns` row for the `create → open` sequence pattern) — fails
//! with
//! [`CheckpointError::UnknownVersion`] before anything else is touched —
//! never a panic. `meta` names the scenario and seed
//! the snapshot belongs to; the runner rebuilds the static configuration
//! from that identity (configs are code, not snapshot payload).
//! `sections` maps component names to the opaque [`Value`] each
//! [`Checkpointable`](crate::Checkpointable) impl produced.

use crate::codec;
use crate::error::CheckpointError;
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// The snapshot format this build writes, and the only one it reads.
pub const FORMAT_VERSION: u32 = 7;

/// Identity of the run a snapshot belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Scenario name; the resume path rebuilds configuration from it.
    pub scenario: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Control-loop tick at which the snapshot was taken.
    pub tick: u64,
}

/// A complete, versioned snapshot of a run.
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub version: u32,
    pub meta: SnapshotMeta,
    sections: BTreeMap<String, Value>,
}

impl Snapshot {
    /// An empty snapshot at the current [`FORMAT_VERSION`].
    pub fn new(meta: SnapshotMeta) -> Self {
        Snapshot {
            version: FORMAT_VERSION,
            meta,
            sections: BTreeMap::new(),
        }
    }

    /// Add (or replace) a named component section.
    pub fn insert_section(&mut self, name: &str, state: Value) {
        self.sections.insert(name.to_string(), state);
    }

    /// Fetch a required section.
    pub fn section(&self, name: &str) -> Result<&Value, CheckpointError> {
        self.sections
            .get(name)
            .ok_or_else(|| CheckpointError::MissingSection(name.to_string()))
    }

    /// Names of the sections present, sorted.
    pub fn section_names(&self) -> impl Iterator<Item = &str> {
        self.sections.keys().map(String::as_str)
    }

    /// Serialise to the JSON envelope (compact, deterministic: sections
    /// are sorted by name, floats inside are bit-encoded).
    pub fn to_json(&self) -> String {
        let meta = Value::Map(vec![
            ("scenario".into(), Value::Str(self.meta.scenario.clone())),
            ("seed".into(), Value::U64(self.meta.seed)),
            ("tick".into(), Value::U64(self.meta.tick)),
        ]);
        let sections = Value::Map(
            self.sections
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        );
        let doc = Value::Map(vec![
            ("version".into(), Value::U64(u64::from(self.version))),
            ("meta".into(), meta),
            ("sections".into(), sections),
        ]);
        serde_json::to_string(&doc).expect("value tree always prints")
    }

    /// Parse a snapshot, checking the format version before anything
    /// else.
    pub fn from_json(s: &str) -> Result<Self, CheckpointError> {
        let doc = serde_json::parse_value(s).map_err(|e| CheckpointError::Parse(e.to_string()))?;
        let version: u32 = codec::get(&doc, "version")?;
        if version != FORMAT_VERSION {
            return Err(CheckpointError::UnknownVersion {
                found: version,
                supported: FORMAT_VERSION,
            });
        }
        let meta_v = codec::field(&doc, "meta")?;
        let meta = SnapshotMeta {
            scenario: codec::get(meta_v, "scenario")?,
            seed: codec::get(meta_v, "seed")?,
            tick: codec::get(meta_v, "tick")?,
        };
        let sections = match codec::field(&doc, "sections")? {
            Value::Map(m) => m.iter().cloned().collect(),
            _ => {
                return Err(CheckpointError::TypeMismatch {
                    field: "sections".into(),
                    expected: "map",
                })
            }
        };
        Ok(Snapshot {
            version,
            meta,
            sections,
        })
    }

    /// Write the snapshot to a file.
    pub fn write_file(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_json())
            .map_err(|e| CheckpointError::Io(format!("write {}: {e}", path.display())))
    }

    /// Read a snapshot back from a file.
    pub fn read_file(path: impl AsRef<Path>) -> Result<Self, CheckpointError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::MapBuilder;

    fn meta() -> SnapshotMeta {
        SnapshotMeta {
            scenario: "unit".into(),
            seed: 7,
            tick: 3,
        }
    }

    #[test]
    fn envelope_round_trips() {
        let mut s = Snapshot::new(meta());
        s.insert_section("a", MapBuilder::new().put("x", &1u64).build());
        s.insert_section("b", MapBuilder::new().put("y", &-2.5f64).build());
        let json = s.to_json();
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back.version, FORMAT_VERSION);
        assert_eq!(back.meta, meta());
        assert_eq!(back.section_names().collect::<Vec<_>>(), vec!["a", "b"]);
        assert_eq!(codec::get::<u64>(back.section("a").unwrap(), "x"), Ok(1));
        assert_eq!(codec::get::<f64>(back.section("b").unwrap(), "y"), Ok(-2.5));
        assert!(matches!(
            back.section("missing"),
            Err(CheckpointError::MissingSection(_))
        ));
    }

    #[test]
    fn unknown_version_is_a_typed_error_not_a_panic() {
        let mut s = Snapshot::new(meta());
        s.insert_section("a", MapBuilder::new().build());
        let current = format!("\"version\":{FORMAT_VERSION}");
        // a newer format, the retired path-keyed version 1, and the
        // reserved version 0
        for other in [99, 1, 0] {
            let json = s
                .to_json()
                .replace(&current, &format!("\"version\":{other}"));
            match Snapshot::from_json(&json) {
                Err(CheckpointError::UnknownVersion { found, supported }) => {
                    assert_eq!(found, other);
                    assert_eq!(supported, FORMAT_VERSION);
                }
                got => panic!("expected UnknownVersion for {other}, got {got:?}"),
            }
        }
        let retired = |found: u32| {
            let old = s
                .to_json()
                .replace(&current, &format!("\"version\":{found}"));
            Snapshot::from_json(&old).unwrap_err()
        };
        // version 2 (its manager section had a `policy` key)
        assert_eq!(
            retired(2),
            CheckpointError::UnknownVersion {
                found: 2,
                supported: 7
            }
        );
        // version 3 (manager records with `active` and `cold_due`)
        assert_eq!(
            retired(3),
            CheckpointError::UnknownVersion {
                found: 3,
                supported: 7
            }
        );
        // version 4 (a judge engine with the derived per-(node, file)
        // query)
        assert_eq!(
            retired(4),
            CheckpointError::UnknownVersion {
                found: 4,
                supported: 7
            }
        );
        // version 5 (query windows beside serialized group aggregates)
        assert_eq!(
            retired(5),
            CheckpointError::UnknownVersion {
                found: 5,
                supported: 7
            }
        );
        // version 6 (a judge engine with a `patterns` row)
        assert_eq!(
            retired(6),
            CheckpointError::UnknownVersion {
                found: 6,
                supported: 7
            }
        );
    }

    #[test]
    fn garbage_is_a_parse_error() {
        assert!(matches!(
            Snapshot::from_json("not json"),
            Err(CheckpointError::Parse(_))
        ));
        assert!(matches!(
            Snapshot::from_json("{\"no\":\"version\"}"),
            Err(CheckpointError::MissingField(_))
        ));
    }

    #[test]
    fn file_round_trip_and_io_errors() {
        let dir = std::env::temp_dir().join("checkpoint-crate-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let mut s = Snapshot::new(meta());
        s.insert_section("a", MapBuilder::new().put("x", &9u64).build());
        s.write_file(&path).unwrap();
        let back = Snapshot::read_file(&path).unwrap();
        assert_eq!(codec::get::<u64>(back.section("a").unwrap(), "x"), Ok(9));
        assert!(matches!(
            Snapshot::read_file(dir.join("absent.json")),
            Err(CheckpointError::Io(_))
        ));
    }
}
