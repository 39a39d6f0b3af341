//! L010 negative fixture: scan loops that poll, and the places the rule
//! must not fire — test code and callbacks that poll through `?`.

fn row_scan_with_poll(table: &Table, reader: &mut Reader, part: &Part) -> u64 {
    let mut rows = 0u64;
    table
        .scan_partition(reader, part, |reader, _key, _bytes| {
            reader.check_interrupt()?;
            rows += 1;
            Ok(true)
        })
        .unwrap_or_else(|_| ());
    rows
}

fn batch_scan_with_poll(table: &Table, reader: &mut Reader, part: &Part) -> u64 {
    let mut batches = 0u64;
    table
        .scan_partition_batches(reader, part, opts(), &mut batch(), |reader, _b| {
            reader.check_interrupt()?;
            batches += 1;
            Ok(true)
        })
        .unwrap_or_else(|_| ());
    batches
}

fn call_lane_with_poll(sel: &[u32], udf: &Udf, argv: &mut [Value], env: &EvalEnv) -> Result<()> {
    for &row in sel.iter() {
        env.check_interrupt()?;
        argv[0] = Value::I64(row as i64);
        udf.invoke(argv)?;
    }
    // Lane arithmetic that never walks the selection is bounded work.
    for i in 0..sel.len() {
        argv[0] = Value::I64(i as i64);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_scan_without_polling() {
        let mut rows = 0u64;
        table()
            .scan_partition(reader(), part(), |_reader, _key, _bytes| {
                rows += 1;
                Ok(true)
            })
            .unwrap();
    }
}
