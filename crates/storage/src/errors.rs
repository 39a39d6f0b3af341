//! Storage-engine error type.

use sqlarray_core::lifecycle::Interrupt;
use std::fmt;

/// Errors raised by the page store, B-trees, blob store and tables.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant payload fields are self-describing
pub enum StorageError {
    /// A page id beyond the end of the file.
    PageOutOfRange { page: u64, max: u64 },
    /// A record does not fit in a page even after a split.
    RecordTooLarge { bytes: usize, limit: usize },
    /// A slotted-page slot index beyond the slot count.
    BadSlot { slot: usize, count: usize },
    /// Key already present in a unique index.
    DuplicateKey { key: i64 },
    /// Key not found.
    KeyNotFound { key: i64 },
    /// A key list that must be strictly ascending has `key` right after
    /// `after`.
    KeysNotAscending { key: i64, after: i64 },
    /// A page's type byte does not match the structure reading it.
    PageTypeMismatch { page: u64, expected: u8, got: u8 },
    /// Blob byte range outside the stored length.
    BlobRangeOutOfBounds {
        offset: usize,
        len: usize,
        total: usize,
    },
    /// Row bytes do not decode against the table schema.
    RowCorrupt(String),
    /// Bulk-load precondition violated (unsorted keys, non-empty target).
    BulkLoad(String),
    /// Schema/value arity or type mismatch on insert.
    SchemaMismatch(String),
    /// A page's stored checksum did not match its contents on a cold read.
    PageCorrupt {
        page: u64,
        stored: u64,
        computed: u64,
    },
    /// The write-ahead log ends in an incomplete or checksum-failing
    /// record at the given byte offset.
    WalTorn { offset: usize },
    /// A write-ahead log record decoded to an impossible state (page id
    /// beyond the replayed file, byte range outside a page); `offset` is
    /// the record's index in the replayed log.
    WalCorrupt { offset: usize, msg: String },
    /// The serialized catalog image in a commit record failed to decode.
    CatalogCorrupt(String),
    /// The statement driving this read was interrupted (cancellation,
    /// deadline, or memory budget) — carried typed so the engine can map
    /// it back to its own `Cancelled`/`Timeout`/`ResourceExhausted`
    /// variants without string matching.
    Interrupted(Interrupt),
    /// A (simulated) transient read fault persisted past the bounded
    /// retry budget ([`crate::store::MAX_READ_RETRIES`]).
    ReadFaulted { page: u64, attempts: u32 },
    /// A free of a page already on the free list: whatever named the page
    /// named it twice. Refused before anything is logged, since two later
    /// allocations would hand the page to two owners.
    PageAlreadyFree { page: u64 },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::PageOutOfRange { page, max } => {
                write!(f, "page {page} out of range (file has {max} pages)")
            }
            StorageError::RecordTooLarge { bytes, limit } => {
                write!(
                    f,
                    "record of {bytes} bytes exceeds the page limit of {limit}"
                )
            }
            StorageError::BadSlot { slot, count } => {
                write!(f, "slot {slot} out of range ({count} slots)")
            }
            StorageError::DuplicateKey { key } => write!(f, "duplicate key {key}"),
            StorageError::KeyNotFound { key } => write!(f, "key {key} not found"),
            StorageError::KeysNotAscending { key, after } => {
                write!(
                    f,
                    "keys must be strictly ascending (key {key} follows {after})"
                )
            }
            StorageError::PageTypeMismatch {
                page,
                expected,
                got,
            } => write!(f, "page {page} has type {got:#x}, expected {expected:#x}"),
            StorageError::BlobRangeOutOfBounds { offset, len, total } => write!(
                f,
                "blob read [{offset}, {offset}+{len}) exceeds blob of {total} bytes"
            ),
            StorageError::RowCorrupt(msg) => write!(f, "row corrupt: {msg}"),
            StorageError::BulkLoad(msg) => write!(f, "bulk load: {msg}"),
            StorageError::SchemaMismatch(msg) => write!(f, "schema mismatch: {msg}"),
            StorageError::PageCorrupt {
                page,
                stored,
                computed,
            } => write!(
                f,
                "page {page} corrupt: stored checksum {stored:#018x}, computed {computed:#018x}"
            ),
            StorageError::WalTorn { offset } => {
                write!(f, "write-ahead log torn at byte offset {offset}")
            }
            StorageError::WalCorrupt { offset, msg } => {
                write!(f, "write-ahead log corrupt at record {offset}: {msg}")
            }
            StorageError::CatalogCorrupt(msg) => write!(f, "catalog corrupt: {msg}"),
            StorageError::Interrupted(i) => write!(f, "{i}"),
            StorageError::ReadFaulted { page, attempts } => write!(
                f,
                "transient read fault on page {page} persisted through {attempts} attempts"
            ),
            StorageError::PageAlreadyFree { page } => {
                write!(f, "free of page {page}, which is already free")
            }
        }
    }
}

impl std::error::Error for StorageError {}

impl StorageError {
    /// Whether retrying the same operation, unchanged, may succeed — the
    /// per-statement half of the taxonomy a serving layer needs to decide
    /// between "retry the statement" and "the data is damaged". The match
    /// is exhaustive on purpose: adding a variant forces a classification.
    pub fn is_retryable(&self) -> bool {
        match self {
            // Transient by construction: the fault injector (or a real
            // flaky device) may not fire next time.
            StorageError::ReadFaulted { .. } => true,
            // Interrupts answer to the statement's own limits; a fresh
            // statement gets fresh limits.
            StorageError::Interrupted(_) => true,
            // Persistent state or caller mistakes: retrying changes nothing.
            StorageError::PageOutOfRange { .. }
            | StorageError::RecordTooLarge { .. }
            | StorageError::BadSlot { .. }
            | StorageError::DuplicateKey { .. }
            | StorageError::KeyNotFound { .. }
            | StorageError::KeysNotAscending { .. }
            | StorageError::PageTypeMismatch { .. }
            | StorageError::BlobRangeOutOfBounds { .. }
            | StorageError::RowCorrupt(_)
            | StorageError::BulkLoad(_)
            | StorageError::SchemaMismatch(_)
            | StorageError::PageCorrupt { .. }
            | StorageError::WalTorn { .. }
            | StorageError::WalCorrupt { .. }
            | StorageError::CatalogCorrupt(_)
            | StorageError::PageAlreadyFree { .. } => false,
        }
    }

    /// Whether the error is the *caller's* (bad key, bad schema, its own
    /// cancellation) rather than the store's. User errors are
    /// per-statement: the connection and the database stay healthy.
    pub fn is_user_error(&self) -> bool {
        match self {
            StorageError::DuplicateKey { .. }
            | StorageError::KeyNotFound { .. }
            | StorageError::KeysNotAscending { .. }
            | StorageError::BlobRangeOutOfBounds { .. }
            | StorageError::SchemaMismatch(_)
            | StorageError::BulkLoad(_)
            | StorageError::Interrupted(_) => true,
            StorageError::PageOutOfRange { .. }
            | StorageError::RecordTooLarge { .. }
            | StorageError::BadSlot { .. }
            | StorageError::PageTypeMismatch { .. }
            | StorageError::RowCorrupt(_)
            | StorageError::PageCorrupt { .. }
            | StorageError::WalTorn { .. }
            | StorageError::WalCorrupt { .. }
            | StorageError::CatalogCorrupt(_)
            | StorageError::ReadFaulted { .. }
            | StorageError::PageAlreadyFree { .. } => false,
        }
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, StorageError>;

impl From<StorageError> for sqlarray_core::ArrayError {
    fn from(e: StorageError) -> Self {
        sqlarray_core::ArrayError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_details() {
        let e = StorageError::BlobRangeOutOfBounds {
            offset: 10,
            len: 20,
            total: 15,
        };
        let s = e.to_string();
        assert!(s.contains("10") && s.contains("20") && s.contains("15"));
    }

    #[test]
    fn converts_to_array_error() {
        let e: sqlarray_core::ArrayError = StorageError::KeyNotFound { key: 7 }.into();
        assert!(matches!(e, sqlarray_core::ArrayError::Io(_)));
    }
}
