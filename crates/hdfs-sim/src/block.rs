//! Block and file identifiers.

use serde::{Deserialize, Serialize};
use simcore::units::Bytes;
use std::fmt;

/// A file identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FileId(pub u64);

/// A block identifier, globally unique across the cluster's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u64);

impl fmt::Display for FileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "file_{}", self.0)
    }
}
impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // HDFS block names look like `blk_<id>`
        write!(f, "blk_{}", self.0)
    }
}

/// Metadata of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockInfo {
    pub id: BlockId,
    pub file: FileId,
    /// Position of the block within its file.
    pub index: u32,
    /// Actual bytes (the final block of a file may be short).
    pub len: Bytes,
    /// Whether this is an erasure-coding parity block rather than data.
    pub is_parity: bool,
}

checkpoint::ck_id!(FileId, BlockId);
checkpoint::ck_record!(BlockInfo {
    id,
    file,
    index,
    len,
    is_parity
});

/// Split a file size into block lengths ("all blocks in a file are of the
/// same size, except the last one" — paper Section II).
pub fn block_lengths(file_size: Bytes, block_size: Bytes) -> Vec<Bytes> {
    assert!(block_size > 0);
    if file_size == 0 {
        return Vec::new();
    }
    let full = (file_size / block_size) as usize;
    let rem = file_size % block_size;
    let mut out = vec![block_size; full];
    if rem > 0 {
        out.push(rem);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::units::MB;

    #[test]
    fn block_splitting() {
        assert_eq!(block_lengths(0, 64 * MB), Vec::<u64>::new());
        assert_eq!(block_lengths(64 * MB, 64 * MB), vec![64 * MB]);
        assert_eq!(block_lengths(100 * MB, 64 * MB), vec![64 * MB, 36 * MB]);
        assert_eq!(
            block_lengths(200 * MB, 64 * MB),
            vec![64 * MB, 64 * MB, 64 * MB, 8 * MB]
        );
        assert_eq!(block_lengths(1, 64 * MB), vec![1]);
    }

    #[test]
    fn display_matches_hdfs_naming() {
        assert_eq!(BlockId(42).to_string(), "blk_42");
        assert_eq!(FileId(7).to_string(), "file_7");
    }

    #[test]
    fn total_is_preserved() {
        for size in [1u64, 63 * MB, 64 * MB, 65 * MB, 640 * MB + 5] {
            let total: u64 = block_lengths(size, 64 * MB).iter().sum();
            assert_eq!(total, size);
        }
    }
}
