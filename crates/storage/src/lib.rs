//! # qcfe-storage — storage-engine substrate
//!
//! The QCFE paper's "ignored variables" include the *storage structure*
//! (B+tree vs LSM), the *hardware* (disk and memory) and the buffer-cache
//! behaviour of the DBMS. To reproduce the paper without a running
//! PostgreSQL instance, this crate provides a small but real storage engine
//! that the `qcfe-db` execution simulator drives:
//!
//! * [`page`] — tuple addressing and page-count arithmetic for a fixed
//!   8 KiB page size (PostgreSQL's default),
//! * [`btree`] — an order-configurable B+tree index mapping integer keys to
//!   tuple ids, with range scans and height/leaf accounting,
//! * [`buffer`] — an LRU buffer pool that turns logical page accesses into
//!   physical reads depending on `shared_buffers`-style capacity,
//! * [`disk`] — disk/hardware profiles that translate physical I/O counts
//!   into time,
//! * [`StorageFormat`] — the heap + B+tree vs LSM choice, modelled by its
//!   read and write amplification.
//!
//! The execution simulator asks this crate two kinds of questions: "how many
//! logical/physical page accesses does this access path perform?" and "how
//! long do those accesses take on this hardware?". Both are deterministic,
//! which keeps the experiment harness reproducible.

pub mod btree;
pub mod buffer;
pub mod disk;
pub mod page;

pub use btree::BPlusTree;
pub use buffer::{AccessOutcome, BufferPool, BufferPoolStats};
pub use disk::{DiskKind, DiskProfile};
pub use page::{PageId, SlotId, TupleId, PAGE_SIZE};

/// Errors raised by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// A key was not found where one was required.
    KeyNotFound(i64),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::KeyNotFound(k) => write!(f, "key {k} not found"),
        }
    }
}

impl std::error::Error for StorageError {}

/// Physical storage format of a relation, one of the paper's
/// "ignored variables".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum StorageFormat {
    /// Heap file with optional B+tree secondary indexes (PostgreSQL-style).
    HeapBTree,
    /// Log-structured merge tree (RocksDB-style), higher read amplification,
    /// cheaper writes.
    Lsm,
}

impl StorageFormat {
    /// All supported formats, useful for environment sampling.
    pub const ALL: [StorageFormat; 2] = [StorageFormat::HeapBTree, StorageFormat::Lsm];

    /// Multiplier applied to point/range read I/O relative to a plain heap +
    /// B+tree layout. LSM pays read amplification across levels.
    pub fn read_amplification(&self) -> f64 {
        match self {
            StorageFormat::HeapBTree => 1.0,
            StorageFormat::Lsm => 1.6,
        }
    }

    /// Multiplier applied to write I/O. LSM writes are cheaper (sequential).
    pub fn write_amplification(&self) -> f64 {
        match self {
            StorageFormat::HeapBTree => 1.0,
            StorageFormat::Lsm => 0.6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        assert!(StorageError::KeyNotFound(-5).to_string().contains("-5"));
    }

    #[test]
    fn storage_formats_have_sensible_amplification() {
        assert_eq!(StorageFormat::HeapBTree.read_amplification(), 1.0);
        assert!(StorageFormat::Lsm.read_amplification() > 1.0);
        assert!(StorageFormat::Lsm.write_amplification() < 1.0);
        assert_eq!(StorageFormat::ALL.len(), 2);
    }
}
