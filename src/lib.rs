//! # sqlarray
//!
//! A Rust reproduction of *"Array Requirements for Scientific Applications
//! and an Implementation for Microsoft SQL Server"* (Dobos, Szalay,
//! Blakeley, Budavári, Csabai, Tomic, Milovanovic, Tintor, Jovanovic —
//! EDBT 2011, arXiv:1110.1729).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`array`](mod@array) | `sqlarray-core` | the array blob format: header, short/max storage classes, column-major payload, `Item`/`Subarray`/`Reshape`/`Cast`/aggregates, streamed partial reads |
//! | [`storage`] | `sqlarray-storage` | 8 kB slotted pages, buffer pool with I/O accounting, clustered B+trees, in-row vs LOB blobs, z-order keys |
//! | [`engine`] | `sqlarray-engine` | T-SQL-flavoured parser and executor, the sixteen `FloatArray.*`-style UDF schemas, CLR hosting-cost model, UDAs with stream-serialized state |
//! | [`linalg`] | `sqlarray-linalg` | LAPACK substitute: SVD (`gesvd`), QR, least squares, NNLS, eigen, PCA — cache-blocked + parallel at the session DOP, bit-identical to serial |
//! | [`fft`] | `sqlarray-fft` | FFTW substitute: planned radix-2/Bluestein, real and n-D transforms |
//! | [`turbulence`] | `sqlarray-turbulence` | Sec. 2.1 workload: z-order blob partitioning, ghost zones, Lagrange/PCHIP interpolation service |
//! | [`spectra`] | `sqlarray-spectra` | Sec. 2.2 workload: flux-conserving resampling, composites, PCA + masked least squares, kd-tree search |
//! | [`nbody`] | `sqlarray-nbody` | Sec. 2.3 workload: octrees, FOF halos, merger trees, CIC density, power spectra, correlation functions, light cones |
//!
//! ## The paper's first example, in five lines
//!
//! ```
//! use sqlarray::engine::{Database, Engine};
//!
//! let mut session = Engine::new(Database::new()).session();
//! let v = session.query_scalar(
//!     "DECLARE @a VARBINARY(100) = FloatArray.Vector_5(1.0, 2.0, 3.0, 4.0, 5.0);
//!      SELECT FloatArray.Item_1(@a, 3)",
//! ).unwrap();
//! assert_eq!(v, sqlarray::engine::Value::F64(4.0));
//! ```

#![forbid(unsafe_code)]

pub use sqlarray_core as array;
pub use sqlarray_engine as engine;
pub use sqlarray_fft as fft;
pub use sqlarray_linalg as linalg;
pub use sqlarray_nbody as nbody;
pub use sqlarray_spectra as spectra;
pub use sqlarray_storage as storage;
pub use sqlarray_turbulence as turbulence;

/// The most commonly used types across the workspace.
pub mod prelude {
    pub use sqlarray_core::prelude::*;
    pub use sqlarray_engine::{Database, Engine, HostingModel, Session, Value};
    pub use sqlarray_storage::{ColType, PageStore, RowValue, Schema, Table};
}
