//! I/O accounting and the simulated disk cost model.
//!
//! The paper reports execution time, CPU load and I/O throughput for each
//! query on a testbed "yielding above 1 GB/s sequential read throughput"
//! (§6.1). To keep the reproduction hardware-independent, the page store
//! counts every logical and physical page access, classifies physical reads
//! as sequential or random, and a [`DiskProfile`] converts the counts into
//! simulated I/O seconds. Benchmarks report both real wall-clock CPU time
//! and the simulated I/O time.

/// Counters accumulated by the page store.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoStats {
    /// Page reads served from the buffer pool.
    pub cache_hits: u64,
    /// Page reads that went to "disk".
    pub pages_read: u64,
    /// Physical reads that continued the previous physical read position.
    pub sequential_reads: u64,
    /// Physical reads that required a seek.
    pub random_reads: u64,
    /// Pages written.
    pub pages_written: u64,
    /// Full page images copied for a write: the private copy of a live
    /// page a write edits (`PageStore::copy_page`). A page built from
    /// nothing copies none.
    pub page_copies: u64,
    /// Write-ahead log records appended.
    pub wal_records: u64,
    /// Write-ahead log bytes appended (record framing included).
    pub wal_bytes: u64,
    /// Transient read faults absorbed by the bounded retry path in the
    /// pool reader (each count is one retried physical-read attempt).
    pub transient_retries: u64,
}

impl IoStats {
    /// Bytes fetched from disk.
    pub fn bytes_read(&self) -> u64 {
        self.pages_read * crate::page::PAGE_SIZE as u64
    }

    /// Total logical reads (cache hits + physical reads).
    pub fn logical_reads(&self) -> u64 {
        self.cache_hits + self.pages_read
    }

    /// Buffer-pool hit ratio in `[0, 1]`; `1.0` for an untouched store.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.logical_reads();
        if total == 0 {
            1.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Adds another counter set into this one — used to fold the
    /// per-worker [`IoStats`] of a parallel scan back into the store's
    /// global counters.
    pub fn merge(&mut self, other: &IoStats) {
        self.cache_hits += other.cache_hits;
        self.pages_read += other.pages_read;
        self.sequential_reads += other.sequential_reads;
        self.random_reads += other.random_reads;
        self.pages_written += other.pages_written;
        self.page_copies += other.page_copies;
        self.wal_records += other.wal_records;
        self.wal_bytes += other.wal_bytes;
        self.transient_retries += other.transient_retries;
    }

    /// Differences of two snapshots (`self` after, `before` earlier).
    pub fn since(&self, before: &IoStats) -> IoStats {
        IoStats {
            cache_hits: self.cache_hits - before.cache_hits,
            pages_read: self.pages_read - before.pages_read,
            sequential_reads: self.sequential_reads - before.sequential_reads,
            random_reads: self.random_reads - before.random_reads,
            pages_written: self.pages_written - before.pages_written,
            page_copies: self.page_copies - before.page_copies,
            wal_records: self.wal_records - before.wal_records,
            wal_bytes: self.wal_bytes - before.wal_bytes,
            transient_retries: self.transient_retries - before.transient_retries,
        }
    }
}

/// The synthetic disk the simulated timings are computed against.
///
/// Defaults match the paper's testbed: ~1150 MB/s sequential scans
/// (Table 1 reports 1150 MB/s for the I/O-bound queries) and a
/// direct-attached-RAID-class random read rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskProfile {
    /// Sequential read throughput, bytes per second.
    pub seq_read_bytes_per_sec: f64,
    /// Random page reads per second (seek-bound IOPS).
    pub random_read_iops: f64,
    /// Write throughput, bytes per second.
    pub write_bytes_per_sec: f64,
}

impl Default for DiskProfile {
    fn default() -> Self {
        DiskProfile {
            seq_read_bytes_per_sec: 1150.0 * 1024.0 * 1024.0,
            random_read_iops: 20_000.0,
            write_bytes_per_sec: 500.0 * 1024.0 * 1024.0,
        }
    }
}

impl DiskProfile {
    /// Simulated seconds of disk time implied by `stats`.
    pub fn io_seconds(&self, stats: &IoStats) -> f64 {
        let page = crate::page::PAGE_SIZE as f64;
        let seq = stats.sequential_reads as f64 * page / self.seq_read_bytes_per_sec;
        let rnd = stats.random_reads as f64 / self.random_read_iops;
        let wr = stats.pages_written as f64 * page / self.write_bytes_per_sec;
        // Log appends are sequential by construction, so they are charged
        // at the sequential write rate; zero for any workload that never
        // touches the WAL, leaving historical timings unchanged.
        let wal = stats.wal_bytes as f64 / self.write_bytes_per_sec;
        seq + rnd + wr + wal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_follow_page_size() {
        let s = IoStats {
            pages_read: 3,
            ..Default::default()
        };
        assert_eq!(s.bytes_read(), 3 * 8192);
    }

    #[test]
    fn hit_ratio_bounds() {
        let mut s = IoStats::default();
        assert_eq!(s.hit_ratio(), 1.0);
        s.pages_read = 1;
        assert_eq!(s.hit_ratio(), 0.0);
        s.cache_hits = 3;
        assert_eq!(s.hit_ratio(), 0.75);
    }

    #[test]
    fn since_subtracts() {
        let before = IoStats {
            pages_read: 5,
            cache_hits: 2,
            ..Default::default()
        };
        let after = IoStats {
            pages_read: 9,
            cache_hits: 10,
            ..Default::default()
        };
        let d = after.since(&before);
        assert_eq!(d.pages_read, 4);
        assert_eq!(d.cache_hits, 8);
    }

    #[test]
    fn io_seconds_scale_linearly() {
        let p = DiskProfile {
            seq_read_bytes_per_sec: 8192.0, // 1 page per second
            random_read_iops: 2.0,
            write_bytes_per_sec: 8192.0,
        };
        let s = IoStats {
            sequential_reads: 3,
            random_reads: 4,
            pages_written: 1,
            pages_read: 7,
            ..Default::default()
        };
        assert!((p.io_seconds(&s) - (3.0 + 2.0 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn default_profile_matches_paper_testbed() {
        let p = DiskProfile::default();
        let gb = 1024.0 * 1024.0 * 1024.0;
        assert!(p.seq_read_bytes_per_sec > gb, "paper: above 1 GB/s");
    }
}
