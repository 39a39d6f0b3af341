//! L010 positive fixture: engine scan loops that never poll the query
//! lifecycle — they cannot be cancelled until their next page fault.

fn row_scan_without_poll(table: &Table, reader: &mut Reader, part: &Part) -> u64 {
    let mut rows = 0u64;
    table
        .scan_partition(reader, part, |_reader, _key, _bytes| {
            rows += 1;
            Ok(true)
        })
        .unwrap_or_else(|_| ());
    rows
}

fn batch_scan_without_poll(table: &Table, reader: &mut Reader, part: &Part) -> u64 {
    let mut batches = 0u64;
    table
        .scan_partition_batches(reader, part, opts(), &mut batch(), |_reader, _b| {
            batches += 1;
            Ok(true)
        })
        .unwrap_or_else(|_| ());
    batches
}

fn call_lane_without_poll(sel: &[u32], udf: &Udf, argv: &mut [Value]) -> Vec<Value> {
    let mut out = Vec::with_capacity(sel.len());
    for (i, &row) in sel.iter().enumerate() {
        argv[0] = Value::I64((i as i64) + row as i64);
        out.push(udf.invoke(argv));
    }
    out
}
