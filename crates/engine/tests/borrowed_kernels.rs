//! Property test for the borrowed array kernels.
//!
//! The registered read-only array functions (`Item_k`, `Sum`, `Mean`,
//! `Min`, `Max`, `Norm2`) check their argument and then run over an
//! [`ArrayView`] borrowed from the argument's bytes instead of a copied
//! [`SqlArray`]. For random short and max arrays of every real element
//! type this asserts, bit for bit:
//!
//! * the function called through the registry (borrowed view) equals the
//!   same kernel over the owned array;
//! * both equal a reference fold over [`Scalar`]s in storage order — the
//!   accumulation order the typed walks must keep;
//! * the runtime checks of paper §3.5 stay: truncated and oversized blobs
//!   raise `PayloadSizeMismatch`, a blob handed to another schema raises
//!   `TypeMismatch` / `StorageClassMismatch`, with the owned path's text.
//!
//! And for `float`/`real` arrays of ±1e300, ±1e-300, subnormals, ±0.0 and
//! values near 1, of lengths around the kernels' block sizes, `Sum`,
//! `Mean`, `Std` and `Norm2` equal the same formulas over one
//! [`ExactSum::add`] per element: summing a block at a time changes no bit.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sqlarray_core::exact::ExactSum;
use sqlarray_core::ops::agg;
use sqlarray_core::rng::{RngCore, SeedableRng, StdRng};
use sqlarray_core::{
    ArrayData, ArrayError, ArrayView, Element, ElementType, Scalar, SqlArray, StorageClass,
};
use sqlarray_engine::arraybind::{register_all, schema_name};
use sqlarray_engine::hosting::HostingModel;
use sqlarray_engine::udf::UdfRegistry;
use sqlarray_engine::value::{Arg, EngineError, Value};

type Case = Result<(), TestCaseError>;

/// Bit-level identity of two results (`-0.0` and `0.0` differ).
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
        (Value::F32(x), Value::F32(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// A random element: any bit pattern for the integers, a finite value of
/// random magnitude (so exact summation has cancellation to get right)
/// for the floats.
fn element<T: Element>(rng: &mut StdRng) -> T {
    match T::TYPE {
        ElementType::Float32 | ElementType::Float64 => {
            let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
            T::from_f64(unit * 10f64.powi((rng.next_u64() % 31) as i32 - 15))
        }
        _ => T::read_le(&rng.next_u64().to_le_bytes()),
    }
}

fn check_elem<T: Element>(reg: &UdfRegistry, rng: &mut StdRng) -> Case {
    let class = if rng.next_u64() % 2 == 0 {
        StorageClass::Short
    } else {
        StorageClass::Max
    };
    let rank = 1 + (rng.next_u64() % 3) as usize;
    let dims: Vec<usize> = (0..rank)
        .map(|_| 1 + (rng.next_u64() % 6) as usize)
        .collect();
    let data: Vec<T> = (0..dims.iter().product()).map(|_| element(rng)).collect();
    let owned = SqlArray::from_vec(class, &dims, &data).unwrap();
    let blob = Value::Bytes(owned.as_blob().to_vec());
    let schema = schema_name(T::TYPE, class);
    let mut hosting = HostingModel::free();
    let mut call = |name: &str, args: &[Value]| {
        let args: Vec<Arg<'_>> = args.iter().map(Arg::from).collect();
        reg.call(name, &args, &mut hosting)
    };

    // The view is the array, minus the copy.
    let view = ArrayView::from_blob(owned.as_blob()).unwrap();
    prop_assert_eq!(view.header(), owned.header());
    prop_assert_eq!(ArrayData::payload(&view), owned.payload());

    // Whole-array reductions: registry (borrowed) == owned == reference.
    let reals: Vec<f64> = owned.iter_scalars().map(|s| s.as_f64().unwrap()).collect();
    let exact = |xs: &mut dyn Iterator<Item = f64>| {
        let mut acc = ExactSum::new();
        xs.for_each(|x| acc.add(x));
        acc.value()
    };
    let sum = exact(&mut reals.iter().copied());
    let reference = [
        ("Sum", agg::sum(&owned).unwrap(), sum),
        ("Mean", agg::mean(&owned).unwrap(), sum / reals.len() as f64),
        (
            "Min",
            agg::min(&owned).unwrap(),
            reals.iter().fold(f64::INFINITY, |m, &x| m.min(x)),
        ),
        (
            "Max",
            agg::max(&owned).unwrap(),
            reals.iter().fold(f64::NEG_INFINITY, |m, &x| m.max(x)),
        ),
        (
            "Norm2",
            Scalar::F64(agg::norm2(&owned).unwrap()),
            exact(&mut reals.iter().map(|x| x * x)).sqrt(),
        ),
    ];
    for (func, owned_result, want) in reference {
        let name = format!("{schema}.{func}");
        let got = call(&name, std::slice::from_ref(&blob)).unwrap();
        prop_assert!(
            same_bits(&got, &Value::from(owned_result)),
            "{name} over the view differs from the owned array: {got:?} vs {owned_result:?}"
        );
        prop_assert!(
            same_bits(&got, &Value::F64(want)),
            "{name} changed accumulation order: {got:?} vs {want:?}"
        );
    }

    // Item_k at a random in-bounds index, and one step out of bounds.
    let idx: Vec<usize> = dims.iter().map(|&d| rng.next_u64() as usize % d).collect();
    let item = format!("{schema}.Item_{rank}");
    let args = |idx: &[usize]| {
        let mut argv = vec![blob.clone()];
        argv.extend(idx.iter().map(|&i| Value::I64(i as i64)));
        argv
    };
    let got = call(&item, &args(&idx)).unwrap();
    prop_assert!(same_bits(&got, &Value::from(owned.item(&idx).unwrap())));
    prop_assert!(same_bits(&got, &Value::from(view.item(&idx).unwrap())));
    let mut beyond = idx.clone();
    beyond[rank - 1] = dims[rank - 1];
    prop_assert_eq!(
        call(&item, &args(&beyond)).unwrap_err(),
        EngineError::from(owned.item(&beyond).unwrap_err())
    );

    // Runtime checks: the view rejects what `SqlArray::from_blob` rejects,
    // with the same typed error.
    let intact = owned.as_blob();
    let mut oversized = intact.to_vec();
    oversized.push(0);
    for bad in [intact[..intact.len() - 1].to_vec(), oversized] {
        let typed = SqlArray::from_blob(bad.clone()).unwrap_err();
        prop_assert!(matches!(typed, ArrayError::PayloadSizeMismatch { .. }));
        prop_assert_eq!(ArrayView::from_blob(&bad).unwrap_err(), typed.clone());
        for func in ["Sum", "Norm2", "Min"] {
            prop_assert_eq!(
                call(&format!("{schema}.{func}"), &[Value::Bytes(bad.clone())]).unwrap_err(),
                EngineError::from(typed.clone())
            );
        }
        let mut item_args = args(&idx);
        item_args[0] = Value::Bytes(bad);
        prop_assert_eq!(
            call(&item, &item_args).unwrap_err(),
            EngineError::from(typed)
        );
    }
    let other_elem = if T::TYPE == ElementType::Int32 {
        ElementType::Float64
    } else {
        ElementType::Int32
    };
    prop_assert_eq!(
        call(
            &format!("{}.Sum", schema_name(other_elem, class)),
            std::slice::from_ref(&blob)
        )
        .unwrap_err(),
        EngineError::from(ArrayError::TypeMismatch {
            expected: other_elem,
            got: T::TYPE,
        })
    );
    let other_class = match class {
        StorageClass::Short => StorageClass::Max,
        StorageClass::Max => StorageClass::Short,
    };
    prop_assert_eq!(
        call(
            &format!("{}.Norm2", schema_name(T::TYPE, other_class)),
            std::slice::from_ref(&blob)
        )
        .unwrap_err(),
        EngineError::from(ArrayError::StorageClassMismatch {
            expected_short: other_class == StorageClass::Short,
        })
    );
    Ok(())
}

proptest! {
    #[test]
    fn borrowed_kernels_equal_owned_kernels_for_every_real_type(seed in any::<u64>()) {
        let mut reg = UdfRegistry::new();
        register_all(&mut reg);
        let mut rng = StdRng::seed_from_u64(seed);
        check_elem::<i8>(&reg, &mut rng)?;
        check_elem::<i16>(&reg, &mut rng)?;
        check_elem::<i32>(&reg, &mut rng)?;
        check_elem::<i64>(&reg, &mut rng)?;
        check_elem::<f32>(&reg, &mut rng)?;
        check_elem::<f64>(&reg, &mut rng)?;
    }
}

/// An element of magnitude an exact sum finds hard to keep: `±big` far
/// above its neighbours, `±1/big` far below, subnormal, a signed zero or
/// close to 1 with low bits set; and, when `non_finite`, now and then NaN
/// or ±∞.
fn extreme(rng: &mut StdRng, big: f64, non_finite: bool) -> f64 {
    let sign = if rng.next_u64() % 2 == 0 { 1.0 } else { -1.0 };
    sign * match rng.next_u64() % 12 {
        0 => big,
        1 => 1.0 / big,
        2 => f64::from_bits(rng.next_u64() >> 12),
        3 => 0.0,
        4 if non_finite => [f64::NAN, f64::INFINITY][(rng.next_u64() % 2) as usize],
        _ => 1.0 + (rng.next_u64() >> 11) as f64 * 2f64.powi(-60),
    }
}

/// `Sum`, `Mean`, `Std` and `Norm2` of `data` through the registry against
/// the formulas over one [`ExactSum::add`] per element, in storage order.
fn reductions_are_one_addend_per_element<T: Element>(reg: &UdfRegistry, data: &[T]) {
    let owned = SqlArray::from_vec(StorageClass::Max, &[data.len()], data).unwrap();
    let blob = owned.as_blob();
    let reals: Vec<f64> = owned.iter_scalars().map(|s| s.as_f64().unwrap()).collect();
    let exact = |xs: &mut dyn Iterator<Item = f64>| {
        let mut acc = ExactSum::new();
        xs.for_each(|x| acc.add(x));
        acc.value()
    };
    let n = reals.len() as f64;
    let sum = exact(&mut reals.iter().copied());
    let mu = sum / n;
    let std = (exact(&mut reals.iter().map(|x| (x - mu) * (x - mu))) / n).sqrt();
    let norm = exact(&mut reals.iter().map(|x| x * x)).sqrt();
    let schema = schema_name(T::TYPE, StorageClass::Max);
    for (func, want) in [("Sum", sum), ("Mean", mu), ("Std", std), ("Norm2", norm)] {
        let got = reg
            .call(
                &format!("{schema}.{func}"),
                &[Arg::Bytes(blob)],
                &mut HostingModel::free(),
            )
            .unwrap();
        assert!(
            same_bits(&got, &Value::F64(want)),
            "{schema}.{func} over {} elements: {got:?} vs {want:?}",
            data.len()
        );
    }
}

#[test]
fn reductions_over_extreme_magnitudes_change_no_bit() {
    let mut reg = UdfRegistry::new();
    register_all(&mut reg);
    let mut rng = StdRng::seed_from_u64(0xE87E);
    for len in [1, 7, 8, 255, 256, 257, 960, 1024, 1025, 2049] {
        // ±1e300 for the sums; ±1e150, whose squares are ±1e300, for
        // `Std` and `Norm2`, which ±1e300 would overflow.
        for (big, non_finite) in [(1e300, false), (1e300, true), (1e150, false)] {
            let data: Vec<f64> = (0..len)
                .map(|_| extreme(&mut rng, big, non_finite))
                .collect();
            reductions_are_one_addend_per_element(&reg, &data);
            let narrow: Vec<f32> = data.iter().map(|&x| x as f32).collect();
            reductions_are_one_addend_per_element(&reg, &narrow);
        }
        // Mantissas of every bit pattern in one binade per array, from the
        // top of the range to the subnormal edge.
        for scale in [1e300, 1e150, 1.0, 1e-150, 1e-300, f64::MIN_POSITIVE] {
            let data: Vec<f64> = (0..len)
                .map(|_| f64::from_bits(0x3FF0_0000_0000_0000 | rng.next_u64() >> 12) * scale)
                .collect();
            reductions_are_one_addend_per_element(&reg, &data);
        }
    }
}
