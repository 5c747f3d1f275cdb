//! Deterministic checkpoint/restore for the ERMS stack.
//!
//! The paper keeps a Condor task log precisely so elastic actions "could
//! rollback automatically" and "replay all operations" (PAPER §III.E).
//! This crate turns that from a quote into a capability: a versioned,
//! self-describing snapshot format that captures the *entire*
//! deterministic state of a run — simulator clock and event queue, RNG
//! streams, cluster (namespace, block map, in-flight flows), CEP windows
//! and aggregates, the Condor scheduler with its journal, and the ERMS
//! manager's control state — so a run can be persisted mid-flight and
//! resumed bit-for-bit.
//!
//! # Architecture
//!
//! Serialisation goes through the workspace serde stand-in's [`Value`]
//! tree, and every type that appears in a snapshot has **one** wire
//! form, given by the [`codec::Ck`] value trait. [`codec`] implements it
//! once for the integers (range-checked on the way back), `bool`,
//! `String`, `f64` (raw bits), times, `Option`, the sequence
//! collections, tuples and maps, and four declarations implement it
//! for a crate's own types: [`ck_id!`] (an id newtype is its integer),
//! [`ck_record!`] (a struct is a `Map` of its named fields, or a
//! positional row), [`ck_enum!`] (a unit enum is its declared wire
//! name) and [`ck_tagged!`] (an enum with fields is a `Map` opening
//! with its variant's tag). A component that hydrates in place lists
//! its fields once in [`ck_fields!`], which writes both
//! [`Checkpointable`] methods. The impls live *in the owning crate*
//! (they need private fields); `simcore` sits below this crate in the
//! dependency DAG, so its snapshot structs
//! ([`QueueSnapshot`](simcore::queue::QueueSnapshot),
//! [`DurabilityState`](simcore::stats::DurabilityState), the durability
//! ledger and the metric registry) are declared here instead.
//!
//! A handful of shapes stay hand-written, one `Ck` (or section) each,
//! next to the type, because the format-2 bytes they write are not a
//! plain record: `JournalEntry` (one flat map shared with its event),
//! `FileMeta`'s flattened storage mode, `FileCtl`'s in-flight slot
//! list, `BlockMap`'s parallel columns, the flow completion the cluster
//! lifts out of its event queue, the Q-table's sparse diff, a CEP
//! event's tagged field values and the slim CEP window.
//!
//! Restore is **rebuild-then-hydrate**: the caller reconstructs each
//! component through its normal constructor (closures, trait objects and
//! telemetry handles are not serialisable and are *re-attached*, not
//! restored), then [`Checkpointable::load_state`] overwrites the dynamic
//! state. Static configuration is deliberately *not* captured — a
//! snapshot names its scenario in [`SnapshotMeta`] and the runner
//! rebuilds the config from code, so a snapshot can never smuggle in a
//! config that disagrees with the scenario it claims to be.
//!
//! # Bit-exactness
//!
//! Every `f64` in a snapshot is encoded as its raw IEEE-754 bits (the
//! only [`codec::Ck`] an `f64` has, so a JSON float cannot be written
//! by construction) and a save/load round trip through JSON never
//! re-parses a float. That is what makes the resume-equivalence guard
//! possible: a run resumed from a snapshot emits a telemetry suffix that
//! concatenates with the pre-snapshot prefix into the byte-identical
//! straight-through trace.

pub mod codec;
pub mod error;
pub mod metrics;
pub mod snapshot;

pub use error::CheckpointError;
pub use serde::Value;
pub use snapshot::{Snapshot, SnapshotMeta, FORMAT_VERSION};

/// A component whose dynamic state can be captured into a [`Value`] and
/// later hydrated back into a freshly constructed instance.
///
/// Implementations live in the crate that owns the type (the codecs
/// need private fields). `load_state` must be *total* over the values
/// `save_state` produces and return a typed error — never panic — on
/// anything else.
pub trait Checkpointable {
    /// Capture the component's complete dynamic state.
    fn save_state(&self) -> Value;

    /// Overwrite this instance's dynamic state with a captured one.
    ///
    /// The instance should be freshly built by the same constructor
    /// path (same config, same seed-independent wiring) that produced
    /// the saved one; static wiring is not part of the state.
    fn load_state(&mut self, state: &Value) -> Result<(), CheckpointError>;
}

impl<T: Checkpointable + ?Sized> Checkpointable for Box<T> {
    fn save_state(&self) -> Value {
        (**self).save_state()
    }
    fn load_state(&mut self, state: &Value) -> Result<(), CheckpointError> {
        (**self).load_state(state)
    }
}
