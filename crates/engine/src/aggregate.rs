//! User-defined aggregates and the per-row state-serialization pathology.
//!
//! "Although user-defined aggregate functions seem a very elegant way of
//! implementing operations such as table to array conversion [...] the
//! state of aggregation had to be serialized via a binary stream interface
//! for each row processed by the aggregation. This turned out to be
//! prohibitive in our scenarios. In place of aggregate functions, we wrote
//! plain SQL CLR scalar functions that take a SQL query as an input
//! parameter" (§4.2).
//!
//! Both execution modes live here: [`UdaMode::InMemory`] is what a sane
//! runtime would do; [`UdaMode::StreamSerialized`] round-trips the state
//! through its binary serialization after **every row**, reproducing the
//! SQL Server 2008 CLR UDA behaviour that experiment E5 quantifies.

use crate::value::{Arg, EngineError, Result, Value};
use sqlarray_core::ops::agg;
use sqlarray_core::ops::table::ConcatBuilder;
use sqlarray_core::{ArrayData, ArrayView, ElementType, ExactSum, Scalar, StorageClass};
use std::collections::HashMap;

/// How the executor maintains aggregate state between rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UdaMode {
    /// State persists in memory between rows.
    #[default]
    InMemory,
    /// State is serialized and deserialized between every pair of rows —
    /// the SQL Server 2008 CLR contract.
    StreamSerialized,
}

/// Running state of one aggregate group.
pub trait UdaState: Send {
    /// Folds one row's argument values into the state. The arguments are
    /// borrowed where the row holds them ([`Arg`]): an array argument is
    /// read in place, and a state keeps only what it copies out.
    fn accumulate(&mut self, args: &[Arg<'_>]) -> Result<()>;
    /// Serializes the full state (the CLR `Write(BinaryWriter)` half).
    fn serialize_state(&self) -> Vec<u8>;
    /// Restores the state from its serialization (the `Read` half).
    fn load_state(&mut self, buf: &[u8]) -> Result<()>;
    /// Combines the serialized state of a *later* scan partition into this
    /// one — the `Merge()` method of the CLR aggregate contract, which SQL
    /// Server calls when a parallel plan feeds one group from several
    /// threads. `other` is the [`serialize_state`](Self::serialize_state)
    /// output of the partial being folded in; partials are always merged
    /// in partition (key) order, so order-sensitive aggregates like
    /// `Concat` see their rows in serial scan order.
    fn merge_state(&mut self, other: &[u8]) -> Result<()>;
    /// Produces the aggregate result.
    fn terminate(&mut self) -> Result<Value>;
}

/// Factory producing fresh per-group states.
pub type UdaFactory = Box<dyn Fn() -> Box<dyn UdaState> + Send + Sync>;

/// Name → aggregate registry, case-insensitive.
#[derive(Default)]
pub struct UdaRegistry {
    map: HashMap<String, UdaFactory>,
}

impl UdaRegistry {
    /// Empty registry.
    pub fn new() -> UdaRegistry {
        UdaRegistry::default()
    }

    /// Registers an aggregate by name.
    pub fn register(
        &mut self,
        name: &str,
        factory: impl Fn() -> Box<dyn UdaState> + Send + Sync + 'static,
    ) {
        self.map
            .insert(name.to_ascii_lowercase(), Box::new(factory));
    }

    /// True when `name` is a registered aggregate.
    pub fn contains(&self, name: &str) -> bool {
        self.map.contains_key(&name.to_ascii_lowercase())
    }

    /// Creates a fresh state for `name`.
    pub fn create(&self, name: &str) -> Result<Box<dyn UdaState>> {
        self.map
            .get(&name.to_ascii_lowercase())
            .map(|f| f())
            .ok_or_else(|| EngineError::Unknown(format!("aggregate `{name}`")))
    }

    /// Registers the array aggregates for every type/class schema:
    /// `Concat` (table → array assembly) and `VectorAvg` (elementwise mean
    /// of array columns — the composite-spectrum aggregate of §2.2).
    pub fn register_array_aggregates(&mut self) {
        for elem in ElementType::ALL {
            for class in [StorageClass::Short, StorageClass::Max] {
                let schema = crate::arraybind::schema_name(elem, class);
                self.register(&format!("{schema}.Concat"), move || {
                    Box::new(ConcatUda::new(elem, class))
                });
            }
        }
        for class in [StorageClass::Short, StorageClass::Max] {
            let schema = crate::arraybind::schema_name(ElementType::Float64, class);
            self.register(&format!("{schema}.VectorAvg"), move || {
                Box::new(VectorAvgUda::new(class))
            });
        }
    }
}

/// The `Concat` aggregate: assembles an array from `(size_vector, index,
/// value)` rows (the paper's `FloatArrayMax.Concat(@l, ix, v)` call shape)
/// or from `(size_vector, value)` rows in scan order.
pub struct ConcatUda {
    elem: ElementType,
    class: StorageClass,
    builder: Option<ConcatBuilder>,
}

impl ConcatUda {
    /// New empty aggregate for one schema.
    pub fn new(elem: ElementType, class: StorageClass) -> ConcatUda {
        ConcatUda {
            elem,
            class,
            builder: None,
        }
    }

    fn ensure_builder(&mut self, size_arg: Arg<'_>) -> Result<&mut ConcatBuilder> {
        if self.builder.is_none() {
            let dims_arr = size_arg.as_array()?;
            let dims: Vec<usize> = dims_arr
                .iter_scalars()
                .map(|s| s.as_f64().map(|f| f as usize))
                .collect::<sqlarray_core::Result<_>>()?;
            self.builder =
                Some(ConcatBuilder::new(self.class, self.elem, &dims).map_err(EngineError::from)?);
        }
        // lint:allow(L005, reason = "the branch above just stored Some(builder) whenever the field was None; as_mut cannot observe None here")
        Ok(self.builder.as_mut().expect("just initialized"))
    }
}

impl UdaState for ConcatUda {
    fn accumulate(&mut self, args: &[Arg<'_>]) -> Result<()> {
        match args.len() {
            2 => {
                // (size, value): fill in scan order.
                let value = scalar_from_value(args[1], self.elem)?;
                self.ensure_builder(args[0])?
                    .push_next(value)
                    .map_err(EngineError::from)
            }
            3 => {
                // (size, index_vector, value).
                let idx_arr = args[1].as_array()?;
                let idx: Vec<usize> = idx_arr
                    .iter_scalars()
                    .map(|s| s.as_f64().map(|f| f as usize))
                    .collect::<sqlarray_core::Result<_>>()?;
                let value = scalar_from_value(args[2], self.elem)?;
                self.ensure_builder(args[0])?
                    .push(&idx, value)
                    .map_err(EngineError::from)
            }
            n => Err(EngineError::Arity {
                func: "Concat".into(),
                got: n,
                want: "2..=3".into(),
            }),
        }
    }

    fn serialize_state(&self) -> Vec<u8> {
        match &self.builder {
            Some(b) => {
                let mut out = vec![1u8];
                out.extend_from_slice(&b.serialize_state());
                out
            }
            None => vec![0u8],
        }
    }

    fn load_state(&mut self, buf: &[u8]) -> Result<()> {
        if buf.is_empty() {
            return Err(EngineError::Storage("empty UDA state".into()));
        }
        self.builder = if buf[0] == 0 {
            None
        } else {
            Some(ConcatBuilder::deserialize_state(&buf[1..]).map_err(EngineError::from)?)
        };
        Ok(())
    }

    fn merge_state(&mut self, other: &[u8]) -> Result<()> {
        if other.is_empty() {
            return Err(EngineError::Storage("empty UDA state".into()));
        }
        if other[0] == 0 {
            return Ok(()); // the other partition saw no rows
        }
        let theirs = ConcatBuilder::deserialize_state(&other[1..]).map_err(EngineError::from)?;
        match &mut self.builder {
            Some(b) => b.merge(&theirs).map_err(EngineError::from),
            None => {
                self.builder = Some(theirs);
                Ok(())
            }
        }
    }

    fn terminate(&mut self) -> Result<Value> {
        match self.builder.take() {
            Some(b) => Ok(Value::Bytes(b.finish().into_blob())),
            None => Ok(Value::Null),
        }
    }
}

fn scalar_from_value(v: Arg<'_>, elem: ElementType) -> Result<Scalar> {
    Ok(Scalar::F64(v.as_f64()?).cast_to(elem)?)
}

/// Elementwise mean of an array column — composite spectra "could be very
/// easily solved using an aggregate function" (§2.2).
///
/// Element sums accumulate in [`ExactSum`] registers, so partial states
/// built by parallel scan workers merge without rounding: the parallel
/// `VectorAvg` is bit-identical to the serial one.
///
/// A row's array is read where it lies: `accumulate` borrows the argument
/// as an [`ArrayView`] and adds each element's `f64` view (the one
/// `Scalar::as_f64` gives, complex elements included) straight into its
/// register — no blob copy, no `Scalar` per element, no `Vec` per row.
pub struct VectorAvgUda {
    class: StorageClass,
    sum: Option<Vec<ExactSum>>,
    dims: Vec<usize>,
    count: u64,
}

impl VectorAvgUda {
    /// New empty aggregate.
    pub fn new(class: StorageClass) -> VectorAvgUda {
        VectorAvgUda {
            class,
            sum: None,
            dims: Vec::new(),
            count: 0,
        }
    }
}

impl UdaState for VectorAvgUda {
    fn accumulate(&mut self, args: &[Arg<'_>]) -> Result<()> {
        if args.len() != 1 {
            return Err(EngineError::Arity {
                func: "VectorAvg".into(),
                got: args.len(),
                want: "1..=1".into(),
            });
        }
        let a = ArrayView::from_blob(args[0].as_bytes()?)?;
        // Every element converts before the shape is compared or a
        // register changes: a row that fails adds nothing.
        agg::check_real(&a)?;
        match &self.sum {
            Some(_) if a.dims() != self.dims.as_slice() => {
                return Err(EngineError::Type(format!(
                    "VectorAvg over mixed shapes: {:?} vs {:?}",
                    a.dims(),
                    self.dims
                )));
            }
            Some(_) => {}
            None => a.dims().clone_into(&mut self.dims),
        }
        let acc = self
            .sum
            .get_or_insert_with(|| vec![ExactSum::new(); a.count()]);
        agg::add_elementwise(&a, acc);
        self.count += 1;
        Ok(())
    }

    fn serialize_state(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&(self.dims.len() as u32).to_le_bytes());
        for &d in &self.dims {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        if let Some(sum) = &self.sum {
            for v in sum {
                out.extend_from_slice(&v.to_bytes());
            }
        }
        out
    }

    fn load_state(&mut self, buf: &[u8]) -> Result<()> {
        let corrupt = || EngineError::Storage("corrupt VectorAvg state".into());
        if buf.len() < 12 {
            return Err(corrupt());
        }
        self.count = sqlarray_core::le::u64_at(buf, 0);
        let rank = sqlarray_core::le::u32_at(buf, 8) as usize;
        let mut off = 12;
        self.dims.clear();
        for _ in 0..rank {
            if buf.len() < off + 8 {
                return Err(corrupt());
            }
            self.dims.push(sqlarray_core::le::u64_at(buf, off) as usize);
            off += 8;
        }
        // A decoded length is not trusted: a product or a byte count that
        // overflows is a corrupt state, not a wrapped (or panicking) size.
        let n = self
            .dims
            .iter()
            .try_fold(1usize, |n, &d| n.checked_mul(d))
            .ok_or_else(corrupt)?;
        if self.count == 0 {
            self.sum = None;
            return Ok(());
        }
        const REG: usize = ExactSum::SERIALIZED_LEN;
        let len = n
            .checked_mul(REG)
            .and_then(|bytes| bytes.checked_add(off))
            .ok_or_else(corrupt)?;
        if buf.len() != len {
            return Err(corrupt());
        }
        let mut sum = Vec::with_capacity(n);
        for k in 0..n {
            sum.push(
                ExactSum::from_bytes(&buf[off + REG * k..off + REG * (k + 1)])
                    .ok_or_else(corrupt)?,
            );
        }
        self.sum = Some(sum);
        Ok(())
    }

    fn merge_state(&mut self, other: &[u8]) -> Result<()> {
        let mut theirs = VectorAvgUda::new(self.class);
        theirs.load_state(other)?;
        let Some(other_sum) = theirs.sum else {
            return Ok(()); // the other partition saw no rows
        };
        match &mut self.sum {
            None => {
                self.dims = theirs.dims;
                self.sum = Some(other_sum);
            }
            Some(acc) => {
                if theirs.dims != self.dims {
                    return Err(EngineError::Type(format!(
                        "VectorAvg merge over mixed shapes: {:?} vs {:?}",
                        theirs.dims, self.dims
                    )));
                }
                for (s, v) in acc.iter_mut().zip(&other_sum) {
                    s.merge(v);
                }
            }
        }
        self.count += theirs.count;
        Ok(())
    }

    fn terminate(&mut self) -> Result<Value> {
        match self.sum.take() {
            None => Ok(Value::Null),
            Some(sum) => {
                let mean: Vec<f64> = sum.iter().map(|v| v.value() / self.count as f64).collect();
                let a = match sqlarray_core::SqlArray::from_vec(self.class, &self.dims, &mean) {
                    Ok(a) => a,
                    Err(sqlarray_core::ArrayError::ShortTooLarge { .. }) => {
                        sqlarray_core::SqlArray::from_vec(StorageClass::Max, &self.dims, &mean)
                            .map_err(EngineError::from)?
                    }
                    Err(e) => return Err(e.into()),
                };
                Ok(Value::Bytes(a.into_blob()))
            }
        }
    }
}

/// Runs a UDA over an iterator of row argument tuples, in the given mode —
/// the helper both the executor and experiment E5 use.
pub fn run_uda(
    state: &mut Box<dyn UdaState>,
    rows: impl Iterator<Item = Vec<Value>>,
    mode: UdaMode,
) -> Result<Value> {
    for args in rows {
        if mode == UdaMode::StreamSerialized {
            // The CLR contract: state round-trips through its binary
            // serialization on every row.
            let buf = state.serialize_state();
            state.load_state(&buf)?;
        }
        state.accumulate(&args.iter().map(Arg::from).collect::<Vec<_>>())?;
    }
    state.terminate()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `accumulate` over owned values, each passed borrowed.
    trait AccumulateValues {
        fn accumulate_values(&mut self, row: &[Value]) -> Result<()>;
    }

    impl<T: UdaState + ?Sized> AccumulateValues for T {
        fn accumulate_values(&mut self, row: &[Value]) -> Result<()> {
            self.accumulate(&row.iter().map(Arg::from).collect::<Vec<_>>())
        }
    }

    fn size_vec(dims: &[i64]) -> Value {
        let a =
            sqlarray_core::build::short_vector(&dims.iter().map(|&d| d as i32).collect::<Vec<_>>())
                .unwrap();
        Value::Bytes(a.into_blob())
    }

    #[test]
    fn concat_sequential_assembles_array() {
        let mut state: Box<dyn UdaState> =
            Box::new(ConcatUda::new(ElementType::Float64, StorageClass::Max));
        let rows = (0..6).map(|i| vec![size_vec(&[2, 3]), Value::F64(i as f64)]);
        let out = run_uda(&mut state, rows, UdaMode::InMemory).unwrap();
        let a = out.as_array().unwrap();
        assert_eq!(a.dims(), &[2, 3]);
        assert_eq!(
            a.to_vec::<f64>().unwrap(),
            vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        );
    }

    #[test]
    fn concat_indexed_matches_paper_call_shape() {
        // Concat(@l, ix, v) with @l = Vector_2(2, 2).
        let mut state: Box<dyn UdaState> =
            Box::new(ConcatUda::new(ElementType::Float64, StorageClass::Max));
        let rows = vec![
            vec![size_vec(&[2, 2]), size_vec(&[1, 1]), Value::F64(4.0)],
            vec![size_vec(&[2, 2]), size_vec(&[0, 0]), Value::F64(1.0)],
            vec![size_vec(&[2, 2]), size_vec(&[1, 0]), Value::F64(2.0)],
            vec![size_vec(&[2, 2]), size_vec(&[0, 1]), Value::F64(3.0)],
        ];
        let out = run_uda(&mut state, rows.into_iter(), UdaMode::InMemory).unwrap();
        let a = out.as_array().unwrap();
        assert_eq!(a.item(&[0, 0]).unwrap().as_f64().unwrap(), 1.0);
        assert_eq!(a.item(&[1, 1]).unwrap().as_f64().unwrap(), 4.0);
    }

    #[test]
    fn stream_serialized_mode_produces_identical_result() {
        let build = || -> Box<dyn UdaState> {
            Box::new(ConcatUda::new(ElementType::Int32, StorageClass::Short))
        };
        let rows = || (0..10i64).map(|i| vec![size_vec(&[10]), Value::I64(i * i)]);
        let mut fast = build();
        let mut slow = build();
        let a = run_uda(&mut fast, rows(), UdaMode::InMemory).unwrap();
        let b = run_uda(&mut slow, rows(), UdaMode::StreamSerialized).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_aggregate_terminates_null() {
        let mut state: Box<dyn UdaState> =
            Box::new(ConcatUda::new(ElementType::Float64, StorageClass::Max));
        let out = run_uda(&mut state, std::iter::empty(), UdaMode::InMemory).unwrap();
        assert_eq!(out, Value::Null);
    }

    #[test]
    fn vector_avg_means_elementwise() {
        let mut state: Box<dyn UdaState> = Box::new(VectorAvgUda::new(StorageClass::Short));
        let rows = (0..4).map(|i| {
            let a = sqlarray_core::build::short_vector(&[i as f64, 10.0 * i as f64]).unwrap();
            vec![Value::Bytes(a.into_blob())]
        });
        let out = run_uda(&mut state, rows, UdaMode::StreamSerialized).unwrap();
        let a = out.as_array().unwrap();
        assert_eq!(a.to_vec::<f64>().unwrap(), vec![1.5, 15.0]);
    }

    #[test]
    fn vector_avg_rejects_mixed_shapes() {
        let mut state = VectorAvgUda::new(StorageClass::Short);
        let a1 = sqlarray_core::build::short_vector(&[1.0f64, 2.0]).unwrap();
        let a2 = sqlarray_core::build::short_vector(&[1.0f64, 2.0, 3.0]).unwrap();
        state
            .accumulate_values(&[Value::Bytes(a1.into_blob())])
            .unwrap();
        assert!(state
            .accumulate_values(&[Value::Bytes(a2.into_blob())])
            .is_err());
    }

    #[test]
    fn merge_state_reassembles_partitioned_concat() {
        // Three partials, as three parallel scan partitions would build.
        let splits: [std::ops::Range<i64>; 3] = [0..3, 3..4, 4..9];
        let mut partials: Vec<Box<dyn UdaState>> = splits
            .iter()
            .map(|r| {
                let mut s: Box<dyn UdaState> =
                    Box::new(ConcatUda::new(ElementType::Float64, StorageClass::Short));
                for i in r.clone() {
                    s.accumulate_values(&[size_vec(&[9]), Value::F64(i as f64 * 1.5)])
                        .unwrap();
                }
                s
            })
            .collect();
        let mut merged = partials.remove(0);
        for p in &partials {
            merged.merge_state(&p.serialize_state()).unwrap();
        }
        let a = merged.terminate().unwrap();
        let arr = a.as_array().unwrap();
        assert_eq!(
            arr.to_vec::<f64>().unwrap(),
            (0..9).map(|i| i as f64 * 1.5).collect::<Vec<_>>()
        );
    }

    #[test]
    fn merge_state_with_empty_partials_is_identity() {
        let mut s: Box<dyn UdaState> =
            Box::new(ConcatUda::new(ElementType::Float64, StorageClass::Short));
        s.accumulate_values(&[size_vec(&[2]), Value::F64(1.0)])
            .unwrap();
        let empty = ConcatUda::new(ElementType::Float64, StorageClass::Short);
        s.merge_state(&empty.serialize_state()).unwrap();
        // Empty self adopting a non-empty partial also works.
        let mut fresh: Box<dyn UdaState> =
            Box::new(ConcatUda::new(ElementType::Float64, StorageClass::Short));
        fresh.merge_state(&s.serialize_state()).unwrap();
        fresh
            .accumulate_values(&[size_vec(&[2]), Value::F64(2.0)])
            .unwrap();
        let arr = fresh.terminate().unwrap().as_array().unwrap();
        assert_eq!(arr.to_vec::<f64>().unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn vector_avg_merge_matches_serial() {
        let rows: Vec<Vec<Value>> = (0..8)
            .map(|i| {
                let a = sqlarray_core::build::short_vector(&[i as f64, (i * i) as f64]).unwrap();
                vec![Value::Bytes(a.into_blob())]
            })
            .collect();
        let mut serial = VectorAvgUda::new(StorageClass::Short);
        for r in &rows {
            serial.accumulate_values(r).unwrap();
        }
        let mut left = VectorAvgUda::new(StorageClass::Short);
        let mut right = VectorAvgUda::new(StorageClass::Short);
        for r in &rows[..3] {
            left.accumulate_values(r).unwrap();
        }
        for r in &rows[3..] {
            right.accumulate_values(r).unwrap();
        }
        left.merge_state(&right.serialize_state()).unwrap();
        assert_eq!(
            left.terminate().unwrap(),
            serial.terminate().unwrap(),
            "integer-valued partial sums must merge exactly"
        );
        // Shape mismatches are rejected at merge time too.
        let mut a = VectorAvgUda::new(StorageClass::Short);
        a.accumulate_values(&[Value::Bytes(
            sqlarray_core::build::short_vector(&[1.0f64])
                .unwrap()
                .into_blob(),
        )])
        .unwrap();
        let mut b = VectorAvgUda::new(StorageClass::Short);
        b.accumulate_values(&[Value::Bytes(
            sqlarray_core::build::short_vector(&[1.0f64, 2.0])
                .unwrap()
                .into_blob(),
        )])
        .unwrap();
        assert!(a.merge_state(&b.serialize_state()).is_err());
    }

    fn short_blob<T: sqlarray_core::Element>(data: &[T]) -> Value {
        let a = sqlarray_core::SqlArray::from_vec(StorageClass::Short, &[data.len()], data);
        Value::Bytes(a.unwrap().into_blob())
    }

    #[test]
    fn vector_avg_converts_complex_elements_like_as_f64() {
        use sqlarray_core::{Complex32, Complex64};
        let mut s = VectorAvgUda::new(StorageClass::Short);
        // A zero imaginary part (either sign) converts to the real part.
        s.accumulate_values(&[short_blob(&[
            Complex64::new(1.0, 0.0),
            Complex64::new(-2.0, -0.0),
        ])])
        .unwrap();
        s.accumulate_values(&[short_blob(&[
            Complex32::new(3.0, 0.0),
            Complex32::new(4.0, 0.0),
        ])])
        .unwrap();
        let before = s.serialize_state();
        // A non-zero (or NaN) one fails with `Scalar::as_f64`'s error, and
        // the row adds nothing — also when its shape is wrong as well.
        for bad in [
            short_blob(&[Complex64::new(5.0, 0.0), Complex64::new(0.0, 0.5)]),
            short_blob(&[Complex64::new(5.0, f64::NAN), Complex64::ONE]),
            short_blob(&[Complex64::I; 3]),
        ] {
            let want = Scalar::C64(Complex64::I).as_f64().unwrap_err();
            assert_eq!(s.accumulate_values(&[bad]), Err(EngineError::from(want)));
            assert_eq!(s.serialize_state(), before);
        }
        let c32 = short_blob(&[Complex32::new(1.0, 1.0), Complex32::ONE]);
        let want = Scalar::C32(Complex32::I).as_f64().unwrap_err();
        assert_eq!(s.accumulate_values(&[c32]), Err(EngineError::from(want)));
        assert_eq!(
            s.accumulate_values(&[short_blob(&[1.0f64, 2.0, 3.0])]),
            Err(EngineError::Type(
                "VectorAvg over mixed shapes: [3] vs [2]".into()
            ))
        );
        assert_eq!(s.serialize_state(), before);
        let out = s.terminate().unwrap().as_array().unwrap();
        assert_eq!(out.to_vec::<f64>().unwrap(), vec![2.0, 1.0]);
    }

    #[test]
    fn vector_avg_state_with_an_overflowing_length_is_corrupt() {
        let corrupt = Err(EngineError::Storage("corrupt VectorAvg state".into()));
        // dims whose product wraps, and dims whose register bytes do.
        for dims in [[1u64 << 32, 1 << 32], [1 << 40, 1 << 20]] {
            let mut buf = 1u64.to_le_bytes().to_vec();
            buf.extend_from_slice(&2u32.to_le_bytes());
            for d in dims {
                buf.extend_from_slice(&d.to_le_bytes());
            }
            let mut s = VectorAvgUda::new(StorageClass::Short);
            assert_eq!(s.load_state(&buf), corrupt);
            assert_eq!(s.merge_state(&buf), corrupt);
        }
    }

    #[test]
    fn concat_state_whose_fill_disagrees_with_its_cells_is_corrupt() {
        use sqlarray_core::ArrayError;
        // A sequential builder over three cells with one value pushed:
        // state = sequential flag, `filled` (u64), the array blob, `seen`.
        let mut b = ConcatBuilder::new(StorageClass::Short, ElementType::Float64, &[3]).unwrap();
        b.push_next(Scalar::F64(1.0)).unwrap();
        let good = b.serialize_state();
        let seen_at = good.len() - 3;
        let with = |sequential: u8, filled: u64, seen: [u8; 3]| {
            let mut s = good.clone();
            s[0] = sequential;
            s[1..9].copy_from_slice(&filled.to_le_bytes());
            s[seen_at..].copy_from_slice(&seen);
            s
        };
        for state in [
            with(1, 5, [1, 0, 0]), // more filled than cells
            with(1, 5, [1, 1, 1]),
            with(0, 2, [1, 0, 0]), // a count the cells do not mark
            with(1, 1, [0, 1, 0]), // a sequential fill that is not a prefix
        ] {
            let want = ArrayError::Io("corrupt builder state".into());
            assert_eq!(ConcatBuilder::deserialize_state(&state).unwrap_err(), want);
            let mut uda_state = vec![1u8];
            uda_state.extend_from_slice(&state);
            let mut fresh = ConcatUda::new(ElementType::Float64, StorageClass::Short);
            assert_eq!(
                fresh.load_state(&uda_state),
                Err(EngineError::from(want.clone()))
            );
            let mut live = ConcatUda::new(ElementType::Float64, StorageClass::Short);
            live.accumulate_values(&[size_vec(&[3]), Value::F64(0.5)])
                .unwrap();
            assert_eq!(live.merge_state(&uda_state), Err(EngineError::from(want)));
        }
        // The untouched state still loads and merges.
        let mut live = ConcatUda::new(ElementType::Float64, StorageClass::Short);
        live.accumulate_values(&[size_vec(&[3]), Value::F64(0.5)])
            .unwrap();
        let mut uda_state = vec![1u8];
        uda_state.extend_from_slice(&good);
        live.merge_state(&uda_state).unwrap();
        let out = live.terminate().unwrap().as_array().unwrap();
        assert_eq!(out.to_vec::<f64>().unwrap(), vec![0.5, 1.0, 0.0]);
    }

    #[test]
    fn registry_lookup_and_creation() {
        let mut reg = UdaRegistry::new();
        reg.register_array_aggregates();
        assert!(reg.contains("FloatArrayMax.Concat"));
        assert!(reg.contains("floatarraymax.concat"));
        assert!(!reg.contains("nope"));
        let mut s = reg.create("IntArray.Concat").unwrap();
        s.accumulate_values(&[size_vec(&[1]), Value::I64(7)])
            .unwrap();
        let v = s.terminate().unwrap();
        assert_eq!(
            v.as_array().unwrap().item(&[0]).unwrap().as_f64().unwrap(),
            7.0
        );
    }

    #[test]
    fn state_round_trip_preserves_progress() {
        let mut s = ConcatUda::new(ElementType::Float64, StorageClass::Short);
        s.accumulate_values(&[size_vec(&[3]), Value::F64(1.0)])
            .unwrap();
        let buf = s.serialize_state();
        let mut s2 = ConcatUda::new(ElementType::Float64, StorageClass::Short);
        s2.load_state(&buf).unwrap();
        s2.accumulate_values(&[size_vec(&[3]), Value::F64(2.0)])
            .unwrap();
        s2.accumulate_values(&[size_vec(&[3]), Value::F64(3.0)])
            .unwrap();
        let out = s2.terminate().unwrap().as_array().unwrap();
        assert_eq!(out.to_vec::<f64>().unwrap(), vec![1.0, 2.0, 3.0]);
    }
}
