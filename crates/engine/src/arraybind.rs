//! Registration of the array library as schema-qualified UDFs.
//!
//! The original library "organized functions under separate schemas by
//! underlying data-type and storage class [...] Functions acting on short
//! (on-page) arrays of type INT are under the schema IntArray, the ones
//! acting on max arrays (out-of-page) are under IntArrayMax etc." (§5.1).
//! This module builds the same surface: sixteen schemas (8 element types ×
//! 2 storage classes), each carrying the full set of constructors,
//! accessors, manipulators and aggregates, with the runtime type/class
//! checks the paper's flag bytes enable.

use crate::udf::UdfRegistry;
use crate::value::{Arg, EngineError, Result, Value};
use sqlarray_core::ops::{agg, axis, cast, convert, elementwise, reshape, subarray};
use sqlarray_core::{ArrayData, ArrayView, ElementType, Scalar, SqlArray, StorageClass};

/// Registers every array schema plus the `dbo` utility functions.
pub fn register_all(reg: &mut UdfRegistry) {
    for elem in ElementType::ALL {
        for class in [StorageClass::Short, StorageClass::Max] {
            register_schema(reg, elem, class);
        }
    }
    // Q5's control: a managed UDF that does nothing.
    reg.register("dbo.EmptyFunction", Some(1..=4), |_| Ok(Value::F64(0.0)));
}

/// The schema name for a type/class pair: `FloatArray`, `FloatArrayMax`...
pub fn schema_name(elem: ElementType, class: StorageClass) -> String {
    match class {
        StorageClass::Short => elem.schema_stem().to_string(),
        StorageClass::Max => format!("{}Max", elem.schema_stem()),
    }
}

/// Reverse of [`schema_name`]: resolves a schema identifier back to its
/// `(element type, storage class)` pair, case-insensitively. Used by the
/// `Subarray`/`Item` pushdown rewrite to recover the runtime checks a
/// schema-qualified call implies without materializing the blob.
pub(crate) fn parse_schema(name: &str) -> Option<(ElementType, StorageClass)> {
    for elem in ElementType::ALL {
        for class in [StorageClass::Short, StorageClass::Max] {
            if name.eq_ignore_ascii_case(&schema_name(elem, class)) {
                return Some((elem, class));
            }
        }
    }
    None
}

/// Runtime check that a blob belongs to this schema — the paper's "detect
/// type mismatches at runtime when the blobs are passed to the wrong
/// functions" (§3.5).
///
/// The checked blob comes back *borrowed* from the argument: read-only
/// functions (`Item`, `Rank`, the whole-array aggregates) work on the view
/// and never copy the array; functions that build a new array from it take
/// [`expect_owned`].
fn expect(v: Arg<'_>, elem: ElementType, class: StorageClass) -> Result<ArrayView<'_>> {
    let a = ArrayView::from_blob(v.as_bytes()?)?;
    if a.elem() != elem {
        return Err(EngineError::Array(
            sqlarray_core::ArrayError::TypeMismatch {
                expected: elem,
                got: a.elem(),
            }
            .to_string(),
        ));
    }
    if a.class() != class {
        return Err(EngineError::Array(
            sqlarray_core::ArrayError::StorageClassMismatch {
                expected_short: class == StorageClass::Short,
            }
            .to_string(),
        ));
    }
    Ok(a)
}

/// [`expect`], copied into an owned array for the manipulators.
fn expect_owned(v: Arg<'_>, elem: ElementType, class: StorageClass) -> Result<SqlArray> {
    Ok(expect(v, elem, class)?.into_array())
}

/// Converts a SQL value into a scalar of the schema's element type.
fn value_to_scalar(v: Arg<'_>, elem: ElementType) -> Result<Scalar> {
    if elem.is_complex() {
        if let Arg::Bytes(b) = v {
            if b.len() == elem.size() {
                return Ok(Scalar::read_le(elem, b));
            }
        }
        if let Arg::Str(s) = v {
            return Ok(Scalar::parse(elem, s)?);
        }
    }
    Ok(Scalar::F64(v.as_f64()?).cast_to(elem)?)
}

/// Decodes an index-vector argument (the paper passes offsets/sizes as
/// `IntArray.Vector_N(...)` blobs). Shared with the pushdown rewrite,
/// which decodes the same offset/size arguments without touching the
/// target array's payload.
pub(crate) fn index_vector(v: Arg<'_>) -> Result<Vec<usize>> {
    let a = v.as_array()?;
    let mut out = Vec::with_capacity(a.count());
    for s in a.iter_scalars() {
        let f = s.as_f64()?;
        if f < 0.0 || f.fract() != 0.0 {
            return Err(EngineError::Type(format!("bad index component {f}")));
        }
        out.push(f as usize);
    }
    Ok(out)
}

fn blob(a: SqlArray) -> Value {
    Value::Bytes(a.into_blob())
}

fn register_schema(reg: &mut UdfRegistry, elem: ElementType, class: StorageClass) {
    let s = schema_name(elem, class);
    let f = |suffix: &str| format!("{s}.{suffix}");

    // --- Constructors -------------------------------------------------
    reg.register(&f("Vector"), Some(1..=1024), move |args| {
        let mut a = SqlArray::zeros(class, elem, &[args.len()])?;
        for (i, v) in args.iter().enumerate() {
            a.update_item(&[i], value_to_scalar(*v, elem)?)?;
        }
        Ok(blob(a))
    });
    reg.register(&f("Matrix"), Some(1..=1024), move |args| {
        let n = (args.len() as f64).sqrt() as usize;
        if n * n != args.len() {
            return Err(EngineError::Arity {
                func: "Matrix".into(),
                got: args.len(),
                want: "a perfect square".into(),
            });
        }
        // Arguments are listed row-major (the T-SQL call order); storage
        // is column-major.
        let mut a = SqlArray::zeros(class, elem, &[n, n])?;
        for (k, v) in args.iter().enumerate() {
            a.update_item(&[k / n, k % n], value_to_scalar(*v, elem)?)?;
        }
        Ok(blob(a))
    });
    reg.register(&f("Zeros"), Some(1..=1), move |args| {
        let dims = index_vector(args[0])?;
        Ok(blob(SqlArray::zeros(class, elem, &dims)?))
    });

    // --- Introspection -------------------------------------------------
    reg.register(&f("Rank"), Some(1..=1), move |args| {
        Ok(Value::I32(expect(args[0], elem, class)?.rank() as i32))
    });
    reg.register(&f("Count"), Some(1..=1), move |args| {
        Ok(Value::I64(expect(args[0], elem, class)?.count() as i64))
    });
    reg.register(&f("Size"), Some(2..=2), move |args| {
        let a = expect(args[0], elem, class)?;
        let axis = args[1].as_index()?;
        a.dims()
            .get(axis)
            .map(|&d| Value::I64(d as i64))
            .ok_or_else(|| EngineError::Type(format!("axis {axis} out of range")))
    });

    // --- Item access ----------------------------------------------------
    reg.register(&f("Item"), Some(2..=9), move |args| {
        let a = expect(args[0], elem, class)?;
        // At most eight indices (the registered arity): no allocation on
        // the per-row accessor.
        let mut idx = [0usize; 8];
        let rank = args.len() - 1;
        for (slot, v) in idx.iter_mut().zip(&args[1..]) {
            *slot = v.as_index()?;
        }
        Ok(Value::from(a.item(&idx[..rank])?))
    });
    reg.register(&f("UpdateItem"), Some(3..=10), move |args| {
        let mut a = expect_owned(args[0], elem, class)?;
        let idx: Vec<usize> = args[1..args.len() - 1]
            .iter()
            .map(|v| v.as_index())
            .collect::<Result<_>>()?;
        let val = value_to_scalar(args[args.len() - 1], elem)?;
        a.update_item(&idx, val)?;
        Ok(blob(a))
    });
    // The paper's partial-update manipulator (§4.4): write a whole
    // subarray into `a` at `offset`. When the target is a stored LOB
    // column, `UPDATE t SET v = Schema.ArrayUpdate(v, @off, @repl)` is
    // intercepted by the executor and patched in place on the touched
    // chunk pages; this registered body is the general fallback (in-memory
    // arguments, multi-dimensional offsets, class conversions).
    reg.register(&f("ArrayUpdate"), Some(3..=3), move |args| {
        let mut a = expect_owned(args[0], elem, class)?;
        let offset = index_vector(args[1])?;
        let b = expect(args[2], elem, class)?;
        if offset.len() != a.rank() || b.rank() != a.rank() {
            return Err(EngineError::Array(
                sqlarray_core::ArrayError::IndexRankMismatch {
                    got: if offset.len() != a.rank() {
                        offset.len()
                    } else {
                        b.rank()
                    },
                    rank: a.rank(),
                }
                .to_string(),
            ));
        }
        for (axis, ((&off, &bd), &ad)) in offset.iter().zip(b.dims()).zip(a.dims()).enumerate() {
            if off.checked_add(bd).map_or(true, |end| end > ad) {
                return Err(EngineError::Array(format!(
                    "ArrayUpdate out of bounds on axis {axis}: offset {off} + size {bd} \
                     exceeds extent {ad}"
                )));
            }
        }
        // Odometer over the replacement's index space; `update_item`
        // handles the target's linearization.
        if b.count() == 0 {
            return Ok(blob(a));
        }
        let mut idx = vec![0usize; b.rank()];
        loop {
            let dst: Vec<usize> = idx.iter().zip(&offset).map(|(&i, &o)| i + o).collect();
            a.update_item(&dst, b.item(&idx)?)?;
            let mut axis = 0;
            loop {
                if axis == idx.len() {
                    return Ok(blob(a));
                }
                idx[axis] += 1;
                if idx[axis] < b.dims()[axis] {
                    break;
                }
                idx[axis] = 0;
                axis += 1;
            }
        }
    });

    // --- Structure ------------------------------------------------------
    reg.register(&f("Subarray"), Some(3..=4), move |args| {
        let a = expect_owned(args[0], elem, class)?;
        let offset = index_vector(args[1])?;
        let size = index_vector(args[2])?;
        let squeeze = args.get(3).map(|v| v.is_true()).unwrap_or(false);
        Ok(blob(subarray::subarray(&a, &offset, &size, squeeze)?))
    });
    reg.register(&f("Reshape"), Some(2..=2), move |args| {
        let a = expect_owned(args[0], elem, class)?;
        let dims = index_vector(args[1])?;
        Ok(blob(reshape::reshape(&a, &dims)?))
    });

    // --- Raw / Cast / conversions ----------------------------------------
    reg.register(&f("Raw"), Some(1..=1), move |args| {
        Ok(Value::Bytes(
            expect(args[0], elem, class)?.payload().to_vec(),
        ))
    });
    reg.register(&f("Cast"), Some(1..=2), move |args| {
        let raw_bytes = args[0].as_bytes()?;
        match args.get(1) {
            Some(dims_v) => {
                let dims = index_vector(*dims_v)?;
                Ok(blob(cast::cast(raw_bytes, class, elem, &dims)?))
            }
            None => Ok(blob(cast::cast_vector(raw_bytes, class, elem)?)),
        }
    });
    reg.register(&f("ConvertTo"), Some(2..=2), move |args| {
        let a = expect_owned(args[0], elem, class)?;
        let target: ElementType = match args[1] {
            Arg::Str(s) => s
                .parse()
                .map_err(|e: sqlarray_core::ArrayError| EngineError::Array(e.to_string()))?,
            other => {
                return Err(EngineError::Type(format!(
                    "{:?} is not a type name",
                    other.to_value()
                )))
            }
        };
        Ok(blob(convert::convert_type(&a, target)?))
    });
    let other_class = match class {
        StorageClass::Short => StorageClass::Max,
        StorageClass::Max => StorageClass::Short,
    };
    let convert_name = match class {
        StorageClass::Short => f("ToMax"),
        StorageClass::Max => f("ToShort"),
    };
    reg.register(&convert_name, Some(1..=1), move |args| {
        let a = expect_owned(args[0], elem, class)?;
        Ok(blob(convert::convert_class(&a, other_class)?))
    });

    // --- Strings ----------------------------------------------------------
    reg.register(&f("ToString"), Some(1..=1), move |args| {
        Ok(Value::Str(sqlarray_core::fmt::to_string(&expect_owned(
            args[0], elem, class,
        )?)))
    });
    reg.register(&f("Parse"), Some(1..=1), move |args| {
        let s = match args[0] {
            Arg::Str(s) => s,
            other => {
                return Err(EngineError::Type(format!(
                    "{:?} is not a string",
                    other.to_value()
                )))
            }
        };
        let a: SqlArray = s
            .parse()
            .map_err(|e: sqlarray_core::ArrayError| EngineError::Array(e.to_string()))?;
        if a.elem() != elem {
            return Err(EngineError::Array(format!(
                "parsed a {} array in the {} schema",
                a.elem(),
                elem
            )));
        }
        Ok(blob(convert::convert_class(&a, class)?))
    });

    // --- Aggregates over the array ----------------------------------------
    reg.register(&f("Sum"), Some(1..=1), move |args| {
        Ok(Value::from(agg::sum(&expect(args[0], elem, class)?)?))
    });
    reg.register(&f("Mean"), Some(1..=1), move |args| {
        Ok(Value::from(agg::mean(&expect(args[0], elem, class)?)?))
    });
    reg.register(&f("Min"), Some(1..=1), move |args| {
        Ok(Value::from(agg::min(&expect(args[0], elem, class)?)?))
    });
    reg.register(&f("Max"), Some(1..=1), move |args| {
        Ok(Value::from(agg::max(&expect(args[0], elem, class)?)?))
    });
    reg.register(&f("Std"), Some(1..=1), move |args| {
        Ok(Value::from(agg::stddev(&expect(args[0], elem, class)?)?))
    });
    reg.register(&f("Norm2"), Some(1..=1), move |args| {
        Ok(Value::F64(agg::norm2(&expect(args[0], elem, class)?)?))
    });
    reg.register(&f("SumAxis"), Some(2..=2), move |args| {
        let a = expect_owned(args[0], elem, class)?;
        Ok(blob(axis::sum_axis(&a, args[1].as_index()?)?))
    });

    // --- Elementwise arithmetic --------------------------------------------
    reg.register(&f("Add"), Some(2..=2), move |args| {
        let a = expect_owned(args[0], elem, class)?;
        Ok(blob(elementwise::add(&a, &args[1].as_array()?)?))
    });
    reg.register(&f("Subtract"), Some(2..=2), move |args| {
        let a = expect_owned(args[0], elem, class)?;
        Ok(blob(elementwise::sub(&a, &args[1].as_array()?)?))
    });
    reg.register(&f("Multiply"), Some(2..=2), move |args| {
        let a = expect_owned(args[0], elem, class)?;
        Ok(blob(elementwise::mul(&a, &args[1].as_array()?)?))
    });
    reg.register(&f("Divide"), Some(2..=2), move |args| {
        let a = expect_owned(args[0], elem, class)?;
        Ok(blob(elementwise::div(&a, &args[1].as_array()?)?))
    });
    reg.register(&f("Scale"), Some(2..=2), move |args| {
        let a = expect_owned(args[0], elem, class)?;
        Ok(blob(elementwise::scale(&a, args[1].as_f64()?)?))
    });
    reg.register(&f("Dot"), Some(2..=2), move |args| {
        let a = expect_owned(args[0], elem, class)?;
        Ok(Value::F64(elementwise::dot(&a, &args[1].as_array()?)?))
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosting::HostingModel;

    fn setup() -> (UdfRegistry, HostingModel) {
        let mut reg = UdfRegistry::new();
        register_all(&mut reg);
        (reg, HostingModel::free())
    }

    fn call(reg: &UdfRegistry, h: &mut HostingModel, name: &str, args: &[Value]) -> Value {
        reg.call(name, &args.iter().map(Arg::from).collect::<Vec<_>>(), h)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
    }

    #[test]
    fn paper_vector_item_example() {
        // DECLARE @a = FloatArray.Vector_5(1,2,3,4,5);
        // SELECT FloatArray.Item_1(@a, 3) -> 4.0
        let (reg, mut h) = setup();
        let a = call(
            &reg,
            &mut h,
            "FloatArray.Vector_5",
            [1.0, 2.0, 3.0, 4.0, 5.0].map(Value::F64).to_vec()[..].as_ref(),
        );
        let item = call(&reg, &mut h, "FloatArray.Item_1", &[a, Value::I64(3)]);
        assert_eq!(item, Value::F64(4.0));
    }

    #[test]
    fn paper_matrix_example() {
        // FloatArray.Matrix_2(0.1,0.2,0.3,0.4); Item_2(@m, 1, 0) = 0.3.
        let (reg, mut h) = setup();
        let m = call(
            &reg,
            &mut h,
            "FloatArray.Matrix_2",
            [0.1, 0.2, 0.3, 0.4].map(Value::F64).to_vec()[..].as_ref(),
        );
        let item = call(
            &reg,
            &mut h,
            "FloatArray.Item_2",
            &[m, Value::I64(1), Value::I64(0)],
        );
        assert_eq!(item, Value::F64(0.3));
    }

    #[test]
    fn paper_subarray_example() {
        // FloatArrayMax.Subarray(@a, IntArray.Vector_3(1,4,6),
        //                        IntArray.Vector_3(5,5,5), 0)
        let (reg, mut h) = setup();
        let a = SqlArray::from_fn(StorageClass::Max, &[8, 10, 12], |idx| {
            (idx[0] + 10 * idx[1] + 100 * idx[2]) as f64
        })
        .unwrap();
        let offset = call(
            &reg,
            &mut h,
            "IntArray.Vector_3",
            [1, 4, 6].map(Value::I64).to_vec()[..].as_ref(),
        );
        let size = call(
            &reg,
            &mut h,
            "IntArray.Vector_3",
            [5, 5, 5].map(Value::I64).to_vec()[..].as_ref(),
        );
        let sub = call(
            &reg,
            &mut h,
            "FloatArrayMax.Subarray",
            &[
                Value::Bytes(a.as_blob().to_vec()),
                offset,
                size,
                Value::I64(0),
            ],
        );
        let sub = sub.as_array().unwrap();
        assert_eq!(sub.dims(), &[5, 5, 5]);
        assert_eq!(
            sub.item(&[0, 0, 0]).unwrap(),
            Scalar::F64((1 + 40 + 600) as f64)
        );
    }

    #[test]
    fn update_item_round_trip() {
        let (reg, mut h) = setup();
        let a = call(
            &reg,
            &mut h,
            "FloatArray.Vector_3",
            [1.0, 2.0, 3.0].map(Value::F64).to_vec()[..].as_ref(),
        );
        let b = call(
            &reg,
            &mut h,
            "FloatArray.UpdateItem_1",
            &[a, Value::I64(1), Value::F64(9.5)],
        );
        let item = call(&reg, &mut h, "FloatArray.Item_1", &[b, Value::I64(1)]);
        assert_eq!(item, Value::F64(9.5));
    }

    #[test]
    fn type_mismatch_across_schemas_detected() {
        let (reg, mut h) = setup();
        let a = call(
            &reg,
            &mut h,
            "IntArray.Vector_2",
            &[Value::I64(1), Value::I64(2)],
        );
        // Handing an int array to the float schema must fail loudly.
        let err = reg.call("FloatArray.Item_1", &[Arg::from(&a), Arg::I64(0)], &mut h);
        assert!(matches!(err, Err(EngineError::Array(_))));
    }

    #[test]
    fn storage_class_mismatch_detected() {
        let (reg, mut h) = setup();
        let short = call(&reg, &mut h, "FloatArray.Vector_1", &[Value::F64(1.0)]);
        let err = reg.call("FloatArrayMax.Rank", &[Arg::from(&short)], &mut h);
        assert!(err.is_err());
        // Conversion fixes it.
        let max = call(&reg, &mut h, "FloatArray.ToMax", &[short]);
        assert_eq!(
            call(&reg, &mut h, "FloatArrayMax.Rank", &[max]),
            Value::I32(1)
        );
    }

    #[test]
    fn aggregates_and_arithmetic() {
        let (reg, mut h) = setup();
        let a = call(
            &reg,
            &mut h,
            "FloatArray.Vector_4",
            [1.0, 2.0, 3.0, 4.0].map(Value::F64).to_vec()[..].as_ref(),
        );
        assert_eq!(
            call(&reg, &mut h, "FloatArray.Sum", std::slice::from_ref(&a)),
            Value::F64(10.0)
        );
        assert_eq!(
            call(&reg, &mut h, "FloatArray.Mean", std::slice::from_ref(&a)),
            Value::F64(2.5)
        );
        assert_eq!(
            call(&reg, &mut h, "FloatArray.Max", std::slice::from_ref(&a)),
            Value::F64(4.0)
        );
        let doubled = call(
            &reg,
            &mut h,
            "FloatArray.Scale",
            &[a.clone(), Value::F64(2.0)],
        );
        assert_eq!(
            call(&reg, &mut h, "FloatArray.Dot", &[a.clone(), doubled]),
            Value::F64(60.0)
        );
        let summed = call(&reg, &mut h, "FloatArray.Add", &[a.clone(), a]);
        assert_eq!(
            summed.as_array().unwrap().to_vec::<f64>().unwrap(),
            vec![2.0, 4.0, 6.0, 8.0]
        );
    }

    #[test]
    fn raw_cast_and_string_round_trip() {
        let (reg, mut h) = setup();
        let a = call(
            &reg,
            &mut h,
            "FloatArray.Vector_2",
            &[Value::F64(1.5), Value::F64(-2.5)],
        );
        let raw = call(&reg, &mut h, "FloatArray.Raw", std::slice::from_ref(&a));
        assert_eq!(Arg::from(&raw).as_bytes().unwrap().len(), 16);
        let back = call(&reg, &mut h, "FloatArray.Cast", &[raw]);
        assert_eq!(back, a);

        let s = call(
            &reg,
            &mut h,
            "FloatArray.ToString",
            std::slice::from_ref(&a),
        );
        assert_eq!(s, Value::Str("float64[2]{1.5,-2.5}".into()));
        let parsed = call(&reg, &mut h, "FloatArray.Parse", &[s]);
        assert_eq!(parsed, a);
    }

    #[test]
    fn introspection_functions() {
        let (reg, mut h) = setup();
        let dims = call(
            &reg,
            &mut h,
            "IntArray.Vector_2",
            &[Value::I64(3), Value::I64(4)],
        );
        let z = call(&reg, &mut h, "FloatArray.Zeros", &[dims]);
        assert_eq!(
            call(&reg, &mut h, "FloatArray.Rank", std::slice::from_ref(&z)),
            Value::I32(2)
        );
        assert_eq!(
            call(&reg, &mut h, "FloatArray.Count", std::slice::from_ref(&z)),
            Value::I64(12)
        );
        assert_eq!(
            call(&reg, &mut h, "FloatArray.Size", &[z.clone(), Value::I64(1)]),
            Value::I64(4)
        );
        let new_dims = call(
            &reg,
            &mut h,
            "IntArray.Vector_2",
            &[Value::I64(6), Value::I64(2)],
        );
        let reshaped = call(&reg, &mut h, "FloatArray.Reshape", &[z, new_dims]);
        assert_eq!(reshaped.as_array().unwrap().dims(), &[6, 2]);
    }

    #[test]
    fn convert_to_changes_element_type() {
        let (reg, mut h) = setup();
        let a = call(
            &reg,
            &mut h,
            "IntArray.Vector_2",
            &[Value::I64(1), Value::I64(2)],
        );
        let f = call(
            &reg,
            &mut h,
            "IntArray.ConvertTo",
            &[a, Value::Str("float64".into())],
        );
        assert_eq!(f.as_array().unwrap().elem(), ElementType::Float64);
    }

    #[test]
    fn empty_function_exists_and_is_managed() {
        let (reg, mut h) = setup();
        let v = call(
            &reg,
            &mut h,
            "dbo.EmptyFunction",
            &[Value::Bytes(vec![1, 2, 3]), Value::I64(0)],
        );
        assert_eq!(v, Value::F64(0.0));
        assert!(h.calls() > 0);
    }

    #[test]
    fn all_sixteen_schemas_registered() {
        let (reg, mut h) = setup();
        for elem in ElementType::ALL {
            for class in [StorageClass::Short, StorageClass::Max] {
                let name = format!("{}.Zeros", schema_name(elem, class));
                let dims = call(&reg, &mut h, "IntArray.Vector_1", &[Value::I64(2)]);
                let z = call(&reg, &mut h, &name, &[dims]);
                let a = z.as_array().unwrap();
                assert_eq!(a.elem(), elem);
                assert_eq!(a.class(), class);
            }
        }
    }
}
