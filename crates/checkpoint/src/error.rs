//! Typed errors for snapshot save/load.

use std::fmt;

/// Why a snapshot could not be saved or loaded.
///
/// Marked `#[non_exhaustive]`: future format revisions may add failure
/// modes (e.g. section-level versioning) without a breaking release.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The snapshot declares a format version this build cannot read.
    UnknownVersion { found: u32, supported: u32 },
    /// A section the restore path needs is absent.
    MissingSection(String),
    /// A field inside a section is absent.
    MissingField(String),
    /// A field exists but holds the wrong shape.
    TypeMismatch {
        field: String,
        expected: &'static str,
    },
    /// The document is not valid JSON / not a snapshot envelope.
    Parse(String),
    /// Reading or writing the snapshot file failed.
    Io(String),
    /// The snapshot is internally inconsistent (e.g. an index points
    /// past the data it indexes).
    Corrupt(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::UnknownVersion { found, supported } => write!(
                f,
                "snapshot format version {found} not supported (this build reads {supported})"
            ),
            CheckpointError::MissingSection(name) => write!(f, "missing section `{name}`"),
            CheckpointError::MissingField(name) => write!(f, "missing field `{name}`"),
            CheckpointError::TypeMismatch { field, expected } => {
                write!(f, "field `{field}`: expected {expected}")
            }
            CheckpointError::Parse(msg) => write!(f, "snapshot parse error: {msg}"),
            CheckpointError::Io(msg) => write!(f, "snapshot I/O error: {msg}"),
            CheckpointError::Corrupt(msg) => write!(f, "snapshot corrupt: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}
