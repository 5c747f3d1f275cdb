//! The namenode's file namespace.
//!
//! Files map a path to an ordered block list plus replication metadata.
//! A file is either plainly replicated or erasure-encoded (ERMS's cold
//! state); encoded files carry their parity block ids so the blockmap
//! can account for them.

use crate::block::{block_lengths, BlockId, BlockInfo, FileId};
use simcore::units::Bytes;
use simcore::SimTime;
use std::collections::BTreeMap;

/// Grow a column so index `i` exists, then write `v` there.
fn column_put<T>(column: &mut Vec<Option<T>>, i: usize, v: T) {
    if i >= column.len() {
        column.resize_with(i + 1, || None);
    }
    column[i] = Some(v);
}

/// How a file's redundancy is currently provided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageMode {
    /// `r`-way block replication.
    Replicated { replication: usize },
    /// Erasure-encoded: per-block replication 1 plus parity blocks.
    Encoded { parity_blocks: Vec<BlockId> },
}

/// Per-file metadata.
#[derive(Debug, Clone)]
pub struct FileMeta {
    pub id: FileId,
    pub path: String,
    pub size: Bytes,
    pub blocks: Vec<BlockId>,
    pub mode: StorageMode,
    pub created_at: SimTime,
    pub last_access: SimTime,
}

impl FileMeta {
    /// Current target replication of the file's data blocks.
    pub fn replication(&self) -> usize {
        match &self.mode {
            StorageMode::Replicated { replication } => *replication,
            StorageMode::Encoded { .. } => 1,
        }
    }

    pub fn is_encoded(&self) -> bool {
        matches!(self.mode, StorageMode::Encoded { .. })
    }
}

/// The namespace: path ↔ file ↔ blocks.
///
/// File and block ids come off monotone counters, so both tables are
/// **columns** indexed by the dense id (`Vec<Option<_>>`), not keyed
/// maps: lookup is an array load and [`files`](Namespace::files)
/// iterates in id order by construction. Deleted ids leave a `None`
/// slot behind — ids are never re-used, so a stale id reads as absent
/// rather than aliasing a later file.
#[derive(Debug, Default)]
pub struct Namespace {
    /// Column: file metadata indexed by `FileId.0`.
    files: Vec<Option<FileMeta>>,
    by_path: BTreeMap<String, FileId>,
    /// Column: block metadata indexed by `BlockId.0`.
    blocks: Vec<Option<BlockInfo>>,
    next_file: u64,
    next_block: u64,
    live_blocks: usize,
}

impl Namespace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a file of `size` bytes split into `block_size` blocks.
    /// Returns `None` when the path already exists.
    pub fn create_file(
        &mut self,
        path: &str,
        size: Bytes,
        block_size: Bytes,
        replication: usize,
        now: SimTime,
    ) -> Option<FileId> {
        if self.by_path.contains_key(path) {
            return None;
        }
        let id = FileId(self.next_file);
        self.next_file += 1;
        let mut blocks = Vec::new();
        for (index, len) in block_lengths(size, block_size).into_iter().enumerate() {
            let bid = BlockId(self.next_block);
            self.next_block += 1;
            column_put(
                &mut self.blocks,
                bid.0 as usize,
                BlockInfo {
                    id: bid,
                    file: id,
                    index: index as u32,
                    len,
                    is_parity: false,
                },
            );
            self.live_blocks += 1;
            blocks.push(bid);
        }
        column_put(
            &mut self.files,
            id.0 as usize,
            FileMeta {
                id,
                path: path.to_string(),
                size,
                blocks,
                mode: StorageMode::Replicated { replication },
                created_at: now,
                last_access: now,
            },
        );
        self.by_path.insert(path.to_string(), id);
        Some(id)
    }

    /// Allocate a parity block belonging to `file` (ERMS encode path).
    pub fn allocate_parity_block(&mut self, file: FileId, index: u32, len: Bytes) -> BlockId {
        debug_assert!(self.file(file).is_some());
        let bid = BlockId(self.next_block);
        self.next_block += 1;
        column_put(
            &mut self.blocks,
            bid.0 as usize,
            BlockInfo {
                id: bid,
                file,
                index,
                len,
                is_parity: true,
            },
        );
        self.live_blocks += 1;
        bid
    }

    /// Delete a file, returning every block id (data + parity) it owned.
    pub fn delete_file(&mut self, id: FileId) -> Option<Vec<BlockId>> {
        let meta = self.files.get_mut(id.0 as usize)?.take()?;
        self.by_path.remove(&meta.path);
        let mut all = meta.blocks.clone();
        if let StorageMode::Encoded { parity_blocks } = &meta.mode {
            all.extend_from_slice(parity_blocks);
        }
        for b in &all {
            self.forget_block(*b);
        }
        Some(all)
    }

    pub fn file(&self, id: FileId) -> Option<&FileMeta> {
        self.files.get(id.0 as usize)?.as_ref()
    }
    pub fn file_mut(&mut self, id: FileId) -> Option<&mut FileMeta> {
        self.files.get_mut(id.0 as usize)?.as_mut()
    }
    pub fn resolve(&self, path: &str) -> Option<FileId> {
        self.by_path.get(path).copied()
    }
    pub fn block(&self, id: BlockId) -> Option<&BlockInfo> {
        self.blocks.get(id.0 as usize)?.as_ref()
    }
    /// Live files in id order (a column scan).
    pub fn files(&self) -> impl Iterator<Item = &FileMeta> {
        self.files.iter().filter_map(Option::as_ref)
    }
    pub fn num_files(&self) -> usize {
        self.by_path.len()
    }
    pub fn num_blocks(&self) -> usize {
        self.live_blocks
    }

    /// Drop the metadata of a block that no longer exists (parity blocks
    /// removed on decode). Data blocks of live files must not be passed.
    pub fn forget_block(&mut self, id: BlockId) {
        if let Some(slot) = self.blocks.get_mut(id.0 as usize) {
            if slot.take().is_some() {
                self.live_blocks -= 1;
            }
        }
    }

    /// Record a read access (drives cold-data detection: "the last access
    /// time of the data is old").
    pub fn touch(&mut self, id: FileId, now: SimTime) {
        if let Some(f) = self.file_mut(id) {
            f.last_access = now;
        }
    }
}

// A record whose storage mode is flattened into it: `replication` for a
// replicated file, `parity_blocks` for an encoded one.
impl checkpoint::codec::Ck for FileMeta {
    fn put(&self) -> checkpoint::Value {
        let b = checkpoint::codec::MapBuilder::new()
            .put("id", &self.id)
            .put("path", &self.path)
            .put("size", &self.size)
            .put("blocks", &self.blocks)
            .put("created_at", &self.created_at)
            .put("last_access", &self.last_access);
        match &self.mode {
            StorageMode::Replicated { replication } => b.put("replication", replication),
            StorageMode::Encoded { parity_blocks } => b.put("parity_blocks", parity_blocks),
        }
        .build()
    }

    fn take(v: &checkpoint::Value, _at: &str) -> Result<Self, checkpoint::CheckpointError> {
        use checkpoint::codec::{get, Ck};
        Ok(FileMeta {
            id: get(v, "id")?,
            path: get(v, "path")?,
            size: get(v, "size")?,
            blocks: get(v, "blocks")?,
            mode: match v.get("replication") {
                Some(r) => StorageMode::Replicated {
                    replication: Ck::take(r, "replication")?,
                },
                None => StorageMode::Encoded {
                    parity_blocks: get(v, "parity_blocks")?,
                },
            },
            created_at: get(v, "created_at")?,
            last_access: get(v, "last_access")?,
        })
    }
}

impl checkpoint::Checkpointable for Namespace {
    fn save_state(&self) -> checkpoint::Value {
        use checkpoint::codec::{put_seq, MapBuilder};
        MapBuilder::new()
            .raw("files", put_seq(self.files()))
            .raw("blocks", put_seq(self.blocks.iter().flatten()))
            .put("next_file", &self.next_file)
            .put("next_block", &self.next_block)
            .build()
    }

    // The columns are sized by the ids they hold, so every id is bounded
    // by the section's own counter before anything is allocated for it.
    fn load_state(&mut self, state: &checkpoint::Value) -> Result<(), checkpoint::CheckpointError> {
        use checkpoint::codec::get;
        let minted = |what: &str, id: u64, next: u64| {
            let i = usize::try_from(id).ok().filter(|_| id < next);
            i.ok_or_else(|| {
                checkpoint::CheckpointError::Corrupt(format!(
                    "`{what}`: id {id} was never minted (next is {next})"
                ))
            })
        };
        self.next_file = get(state, "next_file")?;
        self.next_block = get(state, "next_block")?;
        self.files.clear();
        self.by_path.clear();
        self.blocks.clear();
        self.live_blocks = 0;
        for f in get::<Vec<FileMeta>>(state, "files")? {
            let i = minted("files[].id", f.id.0, self.next_file)?;
            self.by_path.insert(f.path.clone(), f.id);
            column_put(&mut self.files, i, f);
        }
        for b in get::<Vec<BlockInfo>>(state, "blocks")? {
            let i = minted("blocks[].id", b.id.0, self.next_block)?;
            column_put(&mut self.blocks, i, b);
            self.live_blocks += 1;
        }
        Ok(())
    }
}

impl Namespace {
    /// One past the highest block id ever minted.
    pub(crate) fn next_block(&self) -> u64 {
        self.next_block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::units::MB;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn create_and_resolve() {
        let mut ns = Namespace::new();
        let id = ns
            .create_file("/data/a", 100 * MB, 64 * MB, 3, t(0))
            .unwrap();
        assert_eq!(ns.resolve("/data/a"), Some(id));
        let meta = ns.file(id).unwrap();
        assert_eq!(meta.blocks.len(), 2);
        assert_eq!(meta.replication(), 3);
        assert!(!meta.is_encoded());
        let b0 = ns.block(meta.blocks[0]).unwrap();
        assert_eq!(b0.len, 64 * MB);
        let b1 = ns.block(meta.blocks[1]).unwrap();
        assert_eq!(b1.len, 36 * MB);
        assert_eq!(b1.index, 1);
    }

    #[test]
    fn duplicate_path_rejected() {
        let mut ns = Namespace::new();
        assert!(ns.create_file("/a", MB, MB, 3, t(0)).is_some());
        assert!(ns.create_file("/a", MB, MB, 3, t(0)).is_none());
    }

    #[test]
    fn delete_returns_all_blocks() {
        let mut ns = Namespace::new();
        let id = ns.create_file("/a", 128 * MB, 64 * MB, 3, t(0)).unwrap();
        let p = ns.allocate_parity_block(id, 0, 64 * MB);
        ns.file_mut(id).unwrap().mode = StorageMode::Encoded {
            parity_blocks: vec![p],
        };
        let blocks = ns.delete_file(id).unwrap();
        assert_eq!(blocks.len(), 3, "2 data + 1 parity");
        assert!(ns.resolve("/a").is_none());
        assert!(ns.block(p).is_none());
        assert!(ns.delete_file(id).is_none(), "double delete");
        assert_eq!(ns.num_blocks(), 0);
    }

    #[test]
    fn encoded_mode_replication_is_one() {
        let mut ns = Namespace::new();
        let id = ns.create_file("/a", 64 * MB, 64 * MB, 3, t(0)).unwrap();
        ns.file_mut(id).unwrap().mode = StorageMode::Encoded {
            parity_blocks: vec![],
        };
        assert_eq!(ns.file(id).unwrap().replication(), 1);
        assert!(ns.file(id).unwrap().is_encoded());
    }

    #[test]
    fn touch_updates_last_access() {
        let mut ns = Namespace::new();
        let id = ns.create_file("/a", MB, MB, 3, t(5)).unwrap();
        assert_eq!(ns.file(id).unwrap().last_access, t(5));
        ns.touch(id, t(99));
        assert_eq!(ns.file(id).unwrap().last_access, t(99));
        assert_eq!(ns.file(id).unwrap().created_at, t(5));
    }

    #[test]
    fn parity_blocks_flagged() {
        let mut ns = Namespace::new();
        let id = ns.create_file("/a", MB, MB, 3, t(0)).unwrap();
        let p = ns.allocate_parity_block(id, 7, MB);
        let info = ns.block(p).unwrap();
        assert!(info.is_parity);
        assert_eq!(info.index, 7);
        assert_eq!(info.file, id);
    }
}
