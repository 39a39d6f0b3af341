//! Prints where the bytes of the counter golden's write-path log go: the
//! log of row-by-row ingest, the by-key and range UPDATEs, the
//! `ArrayUpdate` patch, the range DELETE and the refused UPDATE that
//! `BENCH_counters.json` counts, broken down by page kind, freshness and
//! run form.
//!
//! ```sh
//! cargo run --release -p sqlarray-bench --example wal_breakdown
//! ```

fn main() {
    let image = sqlarray_bench::counters::write_path_image();
    match sqlarray_bench::wal_breakdown(&image) {
        Ok(parts) => println!("{parts}"),
        Err(e) => {
            eprintln!("the write-path image does not recover: {e}");
            std::process::exit(1);
        }
    }
}
