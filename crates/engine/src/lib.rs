//! # sqlarray-engine
//!
//! A miniature relational query engine reproducing the parts of SQL Server
//! that the paper's evaluation exercises (Dobos et al., EDBT 2011):
//!
//! * a T-SQL-flavoured dialect ([`tsql`]) covering the paper's examples —
//!   `DECLARE`/`SET`, schema-qualified UDF calls, `SELECT ... FROM ... WITH
//!   (NOLOCK)`, aggregates, `GROUP BY`;
//! * clustered-index-scan execution with per-query I/O and CPU accounting
//!   ([`exec`]);
//! * a scalar UDF registry hosting the entire array library under its
//!   original schema names ([`udf`], [`arraybind`]) plus the LAPACK/FFTW
//!   bindings ([`mathfn`]);
//! * an explicit CLR hosting-cost model ([`hosting`]) that counts managed
//!   calls and charges each the ~2 µs that make queries 4 and 5 of Table 1
//!   CPU-bound — a modelled cost, like the simulated disk, never executed;
//! * user-defined aggregates with the per-row state-serialization mode
//!   that made the paper abandon UDAs ([`aggregate`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod arraybind;
mod batch;
pub mod config;
pub mod database;
pub mod engine;
pub mod exec;
pub mod expr;
pub mod faultfn;
pub mod hosting;
pub mod mathfn;
pub mod plancache;
pub mod pushdown;
pub mod sched;
pub mod session;
pub mod sugar;
pub mod tsql;
pub mod udf;
pub mod value;

pub use aggregate::{UdaMode, UdaState};
pub use batch::Fallback;
pub use config::Settings;
pub use database::Database;
pub use engine::{Engine, EngineConfig};
pub use exec::{Access, QueryResult, QueryStats};
pub use hosting::{HostingModel, PAPER_CLR_CALL_NS};
pub use mathfn::{fft_array, gesvd_array};
pub use session::{Prepared, Session};
pub use sqlarray_core::fault::{Fault, FaultPlan};
pub use sugar::SugarTypes;
pub use value::{Arg, EngineError, Value};
