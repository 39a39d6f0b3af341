//! In-server math bindings: the LAPACK/FFTW wrappers of §3.6 and §5.3.
//!
//! "Since arrays are stored in exactly the same \[layout\] as required by the
//! most common math libraries, calling them only requires marshaling
//! pointers [...] the overhead of these calls is negligible once the whole
//! array is loaded into memory." Arrays flow into the kernels through the
//! zero-copy column-major view ([`SqlArray::elements`]); only FFTW-style
//! plans pay an aligned-buffer copy.

use crate::udf::UdfRegistry;
use crate::value::{EngineError, Result, Value};
use sqlarray_core::ops::convert;
use sqlarray_core::{Complex64, ElementType, SqlArray, StorageClass};
use sqlarray_linalg::{gesvd, Matrix};

/// Registers `FFTForward` / `FFTInverse` / `PowerSpectrum` under the float
/// and complex schemas (both classes) and the SVD family under the float
/// schemas, matching the paper's `FloatArrayMax.FFTForward(@a)` example.
pub(crate) fn register_math(reg: &mut UdfRegistry) {
    for class in [StorageClass::Short, StorageClass::Max] {
        for elem in [
            ElementType::Float64,
            ElementType::Float32,
            ElementType::Complex64,
            ElementType::Complex32,
        ] {
            let schema = crate::arraybind::schema_name(elem, class);
            reg.register(&format!("{schema}.FFTForward"), Some(1..=1), |args| {
                Ok(Value::Bytes(fft_array(&args[0].as_array()?)?.into_blob()))
            });
            reg.register(&format!("{schema}.FFTInverse"), Some(1..=1), |args| {
                Ok(Value::Bytes(ifft_array(&args[0].as_array()?)?.into_blob()))
            });
            reg.register(&format!("{schema}.PowerSpectrum"), Some(1..=1), |args| {
                Ok(Value::Bytes(
                    power_spectrum_array(&args[0].as_array()?)?.into_blob(),
                ))
            });
        }
        for elem in [ElementType::Float64, ElementType::Float32] {
            let schema = crate::arraybind::schema_name(elem, class);
            reg.register(&format!("{schema}.GesvdS"), Some(1..=1), |args| {
                let (_, s, _) = gesvd_array(&args[0].as_array()?)?;
                Ok(Value::Bytes(s.into_blob()))
            });
            reg.register(&format!("{schema}.GesvdU"), Some(1..=1), |args| {
                let (u, _, _) = gesvd_array(&args[0].as_array()?)?;
                Ok(Value::Bytes(u.into_blob()))
            });
            reg.register(&format!("{schema}.GesvdV"), Some(1..=1), |args| {
                let (_, _, v) = gesvd_array(&args[0].as_array()?)?;
                Ok(Value::Bytes(v.into_blob()))
            });
        }
    }
}

/// Widens any numeric array to `complex64` (FFT input domain).
fn to_complex(a: &SqlArray) -> Result<SqlArray> {
    Ok(convert::convert_type(a, ElementType::Complex64)?)
}

/// n-dimensional forward DFT of an array (any numeric element type); the
/// result is a `complex64` array with the same dimensions and storage
/// class.
pub fn fft_array(a: &SqlArray) -> Result<SqlArray> {
    let c = to_complex(a)?;
    let mut data = c.to_vec::<Complex64>()?;
    sqlarray_fft::fftn(&mut data, c.dims(), sqlarray_fft::Direction::Forward);
    rebuild_complex(&c, data)
}

/// Normalized inverse n-D DFT.
pub(crate) fn ifft_array(a: &SqlArray) -> Result<SqlArray> {
    let c = to_complex(a)?;
    let mut data = c.to_vec::<Complex64>()?;
    sqlarray_fft::ifftn_normalized(&mut data, c.dims());
    rebuild_complex(&c, data)
}

/// `|X[k]|²/N` of the forward transform, as a `float64` array.
pub(crate) fn power_spectrum_array(a: &SqlArray) -> Result<SqlArray> {
    let f = fft_array(a)?;
    let n = f.count() as f64;
    let data: Vec<f64> = f
        .to_vec::<Complex64>()?
        .iter()
        .map(|c| c.norm_sqr() / n)
        .collect();
    build_same_class(f.class(), f.dims(), &data)
}

fn rebuild_complex(template: &SqlArray, data: Vec<Complex64>) -> Result<SqlArray> {
    match SqlArray::from_vec(template.class(), template.dims(), &data) {
        Ok(a) => Ok(a),
        Err(sqlarray_core::ArrayError::ShortTooLarge { .. }) => Ok(SqlArray::from_vec(
            StorageClass::Max,
            template.dims(),
            &data,
        )?),
        Err(e) => Err(e.into()),
    }
}

fn build_same_class(class: StorageClass, dims: &[usize], data: &[f64]) -> Result<SqlArray> {
    match SqlArray::from_vec(class, dims, data) {
        Ok(a) => Ok(a),
        Err(sqlarray_core::ArrayError::ShortTooLarge { .. }) => {
            Ok(SqlArray::from_vec(StorageClass::Max, dims, data)?)
        }
        Err(e) => Err(e.into()),
    }
}

/// Thin SVD of a 2-D `float64`/`float32` array. The payload feeds the
/// solver through the zero-copy column-major view; results come back as
/// three arrays `(U, s, V)` of the input's storage class.
pub fn gesvd_array(a: &SqlArray) -> Result<(SqlArray, SqlArray, SqlArray)> {
    if a.rank() != 2 {
        return Err(EngineError::Array(format!(
            "gesvd needs a 2-D array, got rank {}",
            a.rank()
        )));
    }
    let a64 = convert::convert_type(a, ElementType::Float64)?;
    let (rows, cols) = (a64.dims()[0], a64.dims()[1]);
    // Zero-copy hand-off: the blob payload is already a column-major
    // buffer.
    let m = Matrix::from_col_major(rows, cols, a64.elements::<f64>()?.into_owned());
    let svd = gesvd(&m);
    let k = svd.s.len();
    let u = build_same_class(a.class(), &[rows, k], svd.u.as_slice())?;
    let s = build_same_class(a.class(), &[k], &svd.s)?;
    let v = build_same_class(a.class(), &[cols, k], svd.v.as_slice())?;
    Ok((u, s, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hosting::HostingModel;
    use crate::value::Arg;
    use sqlarray_core::build;

    #[test]
    fn fft_round_trip_via_arrays() {
        let a = build::max_vector(&(0..64).map(|i| (i as f64 * 0.3).sin()).collect::<Vec<_>>())
            .unwrap();
        let f = fft_array(&a).unwrap();
        assert_eq!(f.elem(), ElementType::Complex64);
        let back = ifft_array(&f).unwrap();
        let vals = back.to_vec::<Complex64>().unwrap();
        for (i, v) in vals.iter().enumerate() {
            assert!((v.re - (i as f64 * 0.3).sin()).abs() < 1e-9);
            assert!(v.im.abs() < 1e-9);
        }
    }

    #[test]
    fn fft_3d_array() {
        let a = SqlArray::from_fn(StorageClass::Max, &[4, 4, 4], |idx| {
            (idx[0] + idx[1] + idx[2]) as f64
        })
        .unwrap();
        let f = fft_array(&a).unwrap();
        assert_eq!(f.dims(), &[4, 4, 4]);
        let back = ifft_array(&f).unwrap();
        for lin in 0..back.count() {
            let idx = back.shape().multi_index(lin);
            let expect = (idx[0] + idx[1] + idx[2]) as f64;
            let got = back.item(&idx).unwrap().as_c64();
            assert!((got.re - expect).abs() < 1e-9 && got.im.abs() < 1e-9);
        }
    }

    #[test]
    fn power_spectrum_of_constant() {
        let a = build::short_vector(&[2.0f64; 16]).unwrap();
        let ps = power_spectrum_array(&a).unwrap();
        let v = ps.to_vec::<f64>().unwrap();
        assert!((v[0] - 4.0 * 16.0).abs() < 1e-9);
        assert!(v[1..].iter().all(|&p| p < 1e-18));
    }

    #[test]
    fn gesvd_reconstructs() {
        // 3x2 matrix, known singular values sqrt(3), 1.
        let a = SqlArray::from_vec(
            StorageClass::Short,
            &[3, 2],
            &[1.0f64, 0.0, 1.0, 0.0, 1.0, 1.0], // column-major
        )
        .unwrap();
        let (u, s, v) = gesvd_array(&a).unwrap();
        assert_eq!(u.dims(), &[3, 2]);
        assert_eq!(s.dims(), &[2]);
        assert_eq!(v.dims(), &[2, 2]);
        let sv = s.to_vec::<f64>().unwrap();
        assert!((sv[0] - 3f64.sqrt()).abs() < 1e-9);
        assert!((sv[1] - 1.0).abs() < 1e-9);
        assert!(gesvd_array(&build::short_vector(&[1.0f64]).unwrap()).is_err());
    }

    #[test]
    fn registered_udfs_work_through_registry() {
        let mut reg = UdfRegistry::new();
        crate::arraybind::register_all(&mut reg);
        register_math(&mut reg);
        let mut h = HostingModel::free();
        // The paper's example: SET @ft = FloatArrayMax.FFTForward(@a)
        let a = build::max_vector(&(0..32).map(|i| i as f64).collect::<Vec<_>>()).unwrap();
        let ft = reg
            .call(
                "FloatArrayMax.FFTForward",
                &[Arg::Bytes(a.as_blob())],
                &mut h,
            )
            .unwrap();
        let ft = ft.as_array().unwrap();
        assert_eq!(ft.elem(), ElementType::Complex64);
        assert_eq!(ft.count(), 32);

        let m = SqlArray::from_vec(StorageClass::Short, &[2, 2], &[3.0f64, 0.0, 0.0, 2.0]).unwrap();
        let s = reg
            .call("FloatArray.GesvdS", &[Arg::Bytes(m.as_blob())], &mut h)
            .unwrap();
        let s = s.as_array().unwrap().to_vec::<f64>().unwrap();
        assert!((s[0] - 3.0).abs() < 1e-9 && (s[1] - 2.0).abs() < 1e-9);
    }
}
