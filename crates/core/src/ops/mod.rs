//! Array manipulation operations — the body of the T-SQL function surface.
//!
//! Each submodule implements one family of the original library's UDFs:
//!
//! | module        | T-SQL functions                                        |
//! |---------------|--------------------------------------------------------|
//! | [`subarray`]  | `Subarray` (contiguous subsetting, optional squeeze)   |
//! | [`reshape`]   | `Reshape` (recast dimensions, fixed element count)     |
//! | [`cast`]      | `Cast` / `Raw` (header prefix / strip)                 |
//! | [`convert`]   | base-type and storage-class conversions                |
//! | [`agg`]       | whole-array aggregates (sum, min, max, mean, std, ...) |
//! | [`axis`]      | reductions over one axis (spectrum cube summation)     |
//! | [`elementwise`]| arithmetic, scaling, dot products, norms              |
//! | [`table`]     | `Concat` (rowset → array)                              |

pub mod agg;
pub mod axis;
pub mod cast;
pub mod convert;
pub mod elementwise;
pub mod reshape;
pub mod subarray;
pub mod table;
