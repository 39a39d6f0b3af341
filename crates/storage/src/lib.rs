//! # sqlarray-storage
//!
//! A compact storage-engine substrate reproducing the parts of Microsoft
//! SQL Server 2008 that the array library's design depends on (Dobos et
//! al., EDBT 2011, §3.3):
//!
//! * 8192-byte slotted pages ([`page`]);
//! * a live, concurrent buffer pool — a lock-striped sharded LRU ordered
//!   by deterministic logical stamps ([`pool`]) — with complete I/O
//!   accounting, including a sequential/random classification and a
//!   simulated disk cost model ([`store`], [`stats`]);
//! * clustered B+trees with append-optimized splits and a parallel
//!   bulk-build path ([`btree`]);
//! * in-row vs out-of-page blob storage with a streamed, partial-read LOB
//!   interface that plugs straight into `sqlarray_core::stream` ([`blob`]),
//!   including a vectored run reader ([`blob::read_blob_runs`]) generic
//!   over [`store::PageRead`] so parallel-scan workers resolve LOB ranges
//!   through the live pool;
//! * schema-driven row encoding and clustered tables ([`row`], [`table`]).
//!
//! Everything reads and writes through [`store::PageStore`], so benchmark
//! harnesses can replay the paper's measurement protocol: clear the cache,
//! run the query, report bytes moved and simulated disk seconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blob;
pub mod btree;
pub mod errors;
pub mod fail;
pub mod page;
pub mod pool;
pub mod row;
pub mod stats;
pub mod store;
pub mod table;
pub mod wal;
pub mod zorder;

pub use blob::{BlobId, BlobStream, ByteRun};
pub use btree::{BTree, Edit};
pub use errors::{Result, StorageError};
pub use page::{PageId, PAGE_SIZE};
pub use pool::ShardedLruPool;
pub use row::{ColType, Column, RowValue, Schema, INLINE_BLOB_LIMIT};
pub use stats::{DiskProfile, IoStats};
pub use store::{
    DiskImage, PageRead, PageStore, PartitionReader, Recovery, ScanCtx, ScanIo, MAX_READ_RETRIES,
};
pub use table::{BatchScanOpts, RowOp, ScanPartition, Table};
