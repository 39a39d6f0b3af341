//! SQL values flowing through the query engine.

use sqlarray_core::{ArrayError, Scalar, SqlArray};
use sqlarray_storage::RowValue;
use std::fmt;

/// A runtime SQL value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// `bigint`.
    I64(i64),
    /// `int`.
    I32(i32),
    /// `float`.
    F64(f64),
    /// `real`.
    F32(f32),
    /// `varbinary` — including array blobs.
    Bytes(Vec<u8>),
    /// `varchar`.
    Str(String),
    /// `bit`.
    Bool(bool),
    /// A **lazy** reference to an out-of-row `varbinary(max)` value: the
    /// LOB's root-page id and its byte length, *not* its bytes.
    ///
    /// Scanning a LOB column yields this variant instead of materializing
    /// megabytes per row. Blob-aware consumers resolve it through the scan
    /// worker's page reader — `Subarray`/`Item` push a region read down to
    /// the intersecting LOB pages, every other function argument gets one
    /// full ranged read — and anything non-blob-aware that receives it
    /// unresolved raises [`EngineError::UnresolvedLob`] instead of the old
    /// silent `<lob:…>` placeholder string.
    Lob {
        /// LOB root-page id.
        id: u64,
        /// Total byte length of the stored blob.
        len: u64,
    },
}

/// Engine error type.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant payloads are self-describing
pub enum EngineError {
    /// SQL text failed to parse.
    Parse { pos: usize, msg: String },
    /// Name resolution failed (table, column, function).
    Unknown(String),
    /// A value had the wrong type for an operation.
    Type(String),
    /// Wrong number of arguments to a function.
    Arity {
        func: String,
        got: usize,
        want: String,
    },
    /// Array library error surfaced through a UDF.
    Array(String),
    /// Storage engine failure.
    Storage(String),
    /// Feature outside the supported T-SQL subset.
    Unsupported(String),
    /// A lazy LOB reference ([`Value::Lob`]) reached an operator that is
    /// not blob-aware and no reader was available to resolve it.
    UnresolvedLob {
        /// LOB root-page id.
        id: u64,
        /// Byte length of the referenced blob.
        len: u64,
    },
    /// The statement was cancelled through its session's
    /// [`sqlarray_core::CancelHandle`] (or a test-armed trip point).
    Cancelled,
    /// The statement ran past `SQLARRAY_STATEMENT_TIMEOUT_MS` / the
    /// session's configured timeout.
    Timeout {
        /// The timeout that expired, in milliseconds.
        timeout_ms: u64,
    },
    /// The statement's cumulative memory charges (batch lanes,
    /// aggregation state, LOB materialization) exceeded its budget
    /// (`SQLARRAY_QUERY_MEM_BYTES`).
    ResourceExhausted {
        /// Bytes charged, including the charge that tripped.
        used: u64,
        /// The configured budget in bytes.
        limit: u64,
    },
    /// A scan worker panicked; the panic was contained at the fan-out
    /// boundary (pool accounting folded back, no lock poisoned) and
    /// carries the panic message.
    WorkerPanicked(String),
    /// The statement's deadline expired while it was still queued for
    /// admission — it never ran.
    AdmissionTimeout {
        /// The timeout that expired, in milliseconds.
        timeout_ms: u64,
    },
    /// Admission control refused to queue the statement: the worker
    /// budget was exhausted and the wait queue was already at its cap.
    Overloaded {
        /// Statements already waiting when this one was refused.
        waiting: usize,
        /// The configured queue-depth cap.
        cap: usize,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse { pos, msg } => write!(f, "parse error at {pos}: {msg}"),
            EngineError::Unknown(what) => write!(f, "unknown {what}"),
            EngineError::Type(msg) => write!(f, "type error: {msg}"),
            EngineError::Arity { func, got, want } => {
                write!(f, "{func} takes {want} arguments, got {got}")
            }
            EngineError::Array(msg) => write!(f, "array error: {msg}"),
            EngineError::Storage(msg) => write!(f, "storage error: {msg}"),
            EngineError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            EngineError::UnresolvedLob { id, len } => write!(
                f,
                "unresolved LOB reference (root page {id}, {len} bytes) reached a \
                 non-blob-aware operator"
            ),
            EngineError::Cancelled => write!(f, "statement cancelled"),
            EngineError::Timeout { timeout_ms } => {
                write!(f, "statement timeout ({timeout_ms} ms) exceeded")
            }
            EngineError::ResourceExhausted { used, limit } => write!(
                f,
                "query memory budget exceeded: {used} bytes charged, limit {limit}"
            ),
            EngineError::WorkerPanicked(msg) => {
                write!(f, "scan worker panicked (contained): {msg}")
            }
            EngineError::AdmissionTimeout { timeout_ms } => write!(
                f,
                "statement timeout ({timeout_ms} ms) expired while queued for admission"
            ),
            EngineError::Overloaded { waiting, cap } => write!(
                f,
                "engine overloaded: {waiting} statements already queued (cap {cap})"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    /// Whether retrying the same statement, unchanged, may succeed —
    /// transient engine conditions (overload, timeouts, contained faults
    /// of the moment) as opposed to errors that are deterministic
    /// functions of the statement and the data. The match is exhaustive
    /// on purpose: a new variant must pick a side.
    pub fn is_retryable(&self) -> bool {
        match self {
            EngineError::Timeout { .. }
            | EngineError::AdmissionTimeout { .. }
            | EngineError::Overloaded { .. } => true,
            // Storage wraps both retryable (transient read faults) and
            // permanent conditions; the string form can't distinguish, so
            // the conservative answer is no — the typed storage error is
            // classified before it is flattened here.
            EngineError::Parse { .. }
            | EngineError::Unknown(_)
            | EngineError::Type(_)
            | EngineError::Arity { .. }
            | EngineError::Array(_)
            | EngineError::Storage(_)
            | EngineError::Unsupported(_)
            | EngineError::UnresolvedLob { .. }
            | EngineError::Cancelled
            | EngineError::ResourceExhausted { .. }
            | EngineError::WorkerPanicked(_) => false,
        }
    }

    /// Whether the error is scoped to the *statement* (caller mistakes,
    /// the caller's own limits) rather than a sign of engine damage. A
    /// serving layer keeps the connection open for user errors and may
    /// tear it down — or alarm — for the rest.
    pub fn is_user_error(&self) -> bool {
        match self {
            EngineError::Parse { .. }
            | EngineError::Unknown(_)
            | EngineError::Type(_)
            | EngineError::Arity { .. }
            | EngineError::Array(_)
            | EngineError::Unsupported(_)
            | EngineError::UnresolvedLob { .. }
            | EngineError::Cancelled
            | EngineError::Timeout { .. }
            | EngineError::ResourceExhausted { .. }
            | EngineError::AdmissionTimeout { .. }
            | EngineError::Overloaded { .. } => true,
            EngineError::Storage(_) | EngineError::WorkerPanicked(_) => false,
        }
    }
}

impl From<sqlarray_core::Interrupt> for EngineError {
    fn from(i: sqlarray_core::Interrupt) -> Self {
        match i {
            sqlarray_core::Interrupt::Cancelled => EngineError::Cancelled,
            sqlarray_core::Interrupt::Timeout { timeout_ms } => EngineError::Timeout { timeout_ms },
            sqlarray_core::Interrupt::MemExceeded { used, limit } => {
                EngineError::ResourceExhausted { used, limit }
            }
        }
    }
}

impl From<ArrayError> for EngineError {
    fn from(e: ArrayError) -> Self {
        EngineError::Array(e.to_string())
    }
}

impl From<sqlarray_storage::StorageError> for EngineError {
    fn from(e: sqlarray_storage::StorageError) -> Self {
        match e {
            // An interrupt detected inside the storage scan keeps its
            // type across the layer boundary instead of flattening to a
            // string like ordinary storage failures.
            sqlarray_storage::StorageError::Interrupted(i) => i.into(),
            e => EngineError::Storage(e.to_string()),
        }
    }
}

/// Engine result alias.
pub type Result<T> = std::result::Result<T, EngineError>;

impl Value {
    /// The typed error for a lazy LOB reference hitting a non-blob-aware
    /// operation, or `None` for every other variant.
    fn unresolved_lob(&self) -> Option<EngineError> {
        match self {
            Value::Lob { id, len } => Some(EngineError::UnresolvedLob { id: *id, len: *len }),
            _ => None,
        }
    }

    /// Numeric view as `f64`; NULL and non-numerics fail.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Value::I64(v) => Ok(*v as f64),
            Value::I32(v) => Ok(*v as f64),
            Value::F64(v) => Ok(*v),
            Value::F32(v) => Ok(*v as f64),
            Value::Bool(b) => Ok(*b as i64 as f64),
            other => Err(other
                .unresolved_lob()
                .unwrap_or_else(|| EngineError::Type(format!("{other:?} is not numeric")))),
        }
    }

    /// Integer view (floats must be integral and in `i64` range).
    pub fn as_i64(&self) -> Result<i64> {
        match self {
            Value::I64(v) => Ok(*v),
            Value::I32(v) => Ok(*v as i64),
            Value::F64(v) if v.fract() == 0.0 => integral(*v),
            Value::F32(v) if v.fract() == 0.0 => integral(f64::from(*v)),
            other => Err(other
                .unresolved_lob()
                .unwrap_or_else(|| EngineError::Type(format!("{other:?} is not an integer")))),
        }
    }

    /// Index view (non-negative integer).
    pub fn as_index(&self) -> Result<usize> {
        let v = self.as_i64()?;
        usize::try_from(v).map_err(|_| EngineError::Type(format!("negative index {v}")))
    }

    /// Binary view. A lazy [`Value::Lob`] has no in-memory bytes — it must
    /// be resolved through a reader first, so it raises the typed
    /// [`EngineError::UnresolvedLob`] here.
    pub fn as_bytes(&self) -> Result<&[u8]> {
        match self {
            Value::Bytes(b) => Ok(b),
            other => Err(other
                .unresolved_lob()
                .unwrap_or_else(|| EngineError::Type(format!("{other:?} is not binary")))),
        }
    }

    /// Decodes this binary value as an array blob.
    pub fn as_array(&self) -> Result<SqlArray> {
        Ok(SqlArray::from_blob(self.as_bytes()?.to_vec())?)
    }

    /// Truthiness for WHERE clauses.
    pub fn is_true(&self) -> bool {
        match self {
            Value::Bool(b) => *b,
            Value::Null => false,
            Value::I64(v) => *v != 0,
            Value::I32(v) => *v != 0,
            Value::F64(v) => *v != 0.0,
            Value::F32(v) => *v != 0.0,
            Value::Bytes(b) => !b.is_empty(),
            Value::Str(s) => !s.is_empty(),
            Value::Lob { len, .. } => *len != 0,
        }
    }

    /// True for SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value's SQL type name, as error messages quote it.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Value::Null => "NULL",
            Value::I64(_) => "BIGINT",
            Value::I32(_) => "INT",
            Value::F64(_) => "FLOAT",
            Value::F32(_) => "REAL",
            Value::Bytes(_) => "VARBINARY",
            Value::Str(_) => "VARCHAR",
            Value::Bool(_) => "BIT",
            Value::Lob { .. } => "VARBINARY(MAX)",
        }
    }
}

/// One argument of a UDF or UDA call: a [`Value`], borrowed where it
/// lies.
///
/// The calling convention is borrowed so that no call copies an array: a
/// blob cell of a decoded batch, an inline blob column of the row image, a
/// plan constant, a session variable and an evaluated value all reach the
/// callee as a view of their own bytes, and a typed lane's scalar by
/// value. `Arg` mirrors `Value` variant by variant and answers its views
/// (`as_f64`, `as_bytes`, …) with the same values and the same errors;
/// [`to_value`](Self::to_value) copies it out where a callee keeps it.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)] // variant by variant [`Value`]'s
pub enum Arg<'a> {
    Null,
    I64(i64),
    I32(i32),
    F64(f64),
    F32(f32),
    Bytes(&'a [u8]),
    Str(&'a str),
    Bool(bool),
    Lob { id: u64, len: u64 },
}

impl<'a> From<&'a Value> for Arg<'a> {
    fn from(v: &'a Value) -> Arg<'a> {
        match v {
            Value::Null => Arg::Null,
            Value::I64(x) => Arg::I64(*x),
            Value::I32(x) => Arg::I32(*x),
            Value::F64(x) => Arg::F64(*x),
            Value::F32(x) => Arg::F32(*x),
            Value::Bytes(b) => Arg::Bytes(b),
            Value::Str(s) => Arg::Str(s),
            Value::Bool(b) => Arg::Bool(*b),
            Value::Lob { id, len } => Arg::Lob { id: *id, len: *len },
        }
    }
}

impl<'a> Arg<'a> {
    /// The argument as an owned [`Value`] (copies bytes and strings).
    pub fn to_value(self) -> Value {
        match self {
            Arg::Null => Value::Null,
            Arg::I64(x) => Value::I64(x),
            Arg::I32(x) => Value::I32(x),
            Arg::F64(x) => Value::F64(x),
            Arg::F32(x) => Value::F32(x),
            Arg::Bytes(b) => Value::Bytes(b.to_vec()),
            Arg::Str(s) => Value::Str(s.to_string()),
            Arg::Bool(b) => Value::Bool(b),
            Arg::Lob { id, len } => Value::Lob { id, len },
        }
    }

    /// [`Value::as_f64`].
    pub fn as_f64(self) -> Result<f64> {
        match self {
            Arg::I64(v) => Ok(v as f64),
            Arg::I32(v) => Ok(v as f64),
            Arg::F64(v) => Ok(v),
            Arg::F32(v) => Ok(v as f64),
            Arg::Bool(b) => Ok(b as i64 as f64),
            other => other.to_value().as_f64(),
        }
    }

    /// [`Value::as_i64`] (copies nothing for a scalar; a non-scalar is
    /// its error).
    pub fn as_i64(self) -> Result<i64> {
        self.to_value().as_i64()
    }

    /// [`Value::as_index`].
    pub fn as_index(self) -> Result<usize> {
        self.to_value().as_index()
    }

    /// [`Value::as_bytes`]: the bytes where they lie.
    pub fn as_bytes(self) -> Result<&'a [u8]> {
        match self {
            Arg::Bytes(b) => Ok(b),
            Arg::Lob { id, len } => Err(EngineError::UnresolvedLob { id, len }),
            other => Err(EngineError::Type(format!(
                "{:?} is not binary",
                other.to_value()
            ))),
        }
    }

    /// [`Value::as_array`].
    pub fn as_array(self) -> Result<SqlArray> {
        Ok(SqlArray::from_blob(self.as_bytes()?.to_vec())?)
    }

    /// [`Value::is_true`].
    pub fn is_true(self) -> bool {
        match self {
            Arg::Bytes(b) => !b.is_empty(),
            Arg::Str(s) => !s.is_empty(),
            other => other.to_value().is_true(),
        }
    }
}

/// An integral float as `i64`, refused outside −2⁶³ ≤ v < 2⁶³, where
/// `as` would saturate.
fn integral(v: f64) -> Result<i64> {
    const END: f64 = 9_223_372_036_854_775_808.0; // 2⁶³, exact in f64
    if (-END..END).contains(&v) {
        Ok(v as i64)
    } else {
        Err(EngineError::Type(format!("{v} is out of range for BIGINT")))
    }
}

impl From<Scalar> for Value {
    fn from(s: Scalar) -> Value {
        match s {
            Scalar::I8(v) => Value::I32(v as i32),
            Scalar::I16(v) => Value::I32(v as i32),
            Scalar::I32(v) => Value::I32(v),
            Scalar::I64(v) => Value::I64(v),
            Scalar::F32(v) => Value::F32(v),
            Scalar::F64(v) => Value::F64(v),
            // Complex scalars cross the SQL boundary in their UDT
            // serialization: 16/32 bytes of little-endian parts.
            Scalar::C32(c) => {
                let mut b = vec![0u8; 8];
                c.write_le_into(&mut b);
                Value::Bytes(b)
            }
            Scalar::C64(c) => {
                let mut b = vec![0u8; 16];
                c.write_le_into(&mut b);
                Value::Bytes(b)
            }
        }
    }
}

/// Helper trait so complex types can serialize through the same path.
trait WriteLeInto {
    fn write_le_into(&self, out: &mut [u8]);
}

impl WriteLeInto for sqlarray_core::Complex32 {
    fn write_le_into(&self, out: &mut [u8]) {
        use sqlarray_core::Element;
        Element::write_le(*self, out);
    }
}

impl WriteLeInto for sqlarray_core::Complex64 {
    fn write_le_into(&self, out: &mut [u8]) {
        use sqlarray_core::Element;
        Element::write_le(*self, out);
    }
}

impl From<RowValue> for Value {
    fn from(v: RowValue) -> Value {
        match v {
            RowValue::I64(x) => Value::I64(x),
            RowValue::I32(x) => Value::I32(x),
            RowValue::F64(x) => Value::F64(x),
            RowValue::F32(x) => Value::F32(x),
            RowValue::Bytes(b) => Value::Bytes(b),
            // Out-of-row values stay lazy: the executor resolves them
            // through the scan worker's reader only when (and only as far
            // as) an expression actually needs their bytes.
            RowValue::LobRef(id, len) => Value::Lob { id, len },
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::I64(v) => write!(f, "{v}"),
            Value::I32(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::F32(v) => write!(f, "{v}"),
            Value::Bytes(b) => {
                write!(f, "0x")?;
                for byte in b.iter().take(16) {
                    write!(f, "{byte:02X}")?;
                }
                if b.len() > 16 {
                    write!(f, "... ({} bytes)", b.len())?;
                }
                Ok(())
            }
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{}", *b as u8),
            Value::Lob { id, len } => write!(f, "<lob page {id}: {len} bytes>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_views() {
        assert_eq!(Value::I32(5).as_f64().unwrap(), 5.0);
        assert_eq!(Value::F64(2.0).as_i64().unwrap(), 2);
        assert!(Value::F64(2.5).as_i64().is_err());
        // 2⁶³ and past it would saturate under `as`; −2⁶³ is the last
        // float in range.
        let end = 9_223_372_036_854_775_808.0f64;
        assert_eq!(Value::F64(-end).as_i64().unwrap(), i64::MIN);
        for v in [end, 1e19, -1e19, -end * 2.0, 1e300] {
            let err = Value::F64(v).as_i64().unwrap_err();
            assert!(matches!(err, EngineError::Type(_)), "{v}: {err:?}");
        }
        assert!(matches!(
            Value::F32(1e19).as_i64(),
            Err(EngineError::Type(_))
        ));
        assert!(Value::Str("x".into()).as_f64().is_err());
        assert_eq!(Value::I64(3).as_index().unwrap(), 3);
        assert!(Value::I64(-1).as_index().is_err());
    }

    #[test]
    fn truthiness() {
        assert!(Value::Bool(true).is_true());
        assert!(!Value::Null.is_true());
        assert!(Value::I64(7).is_true());
        assert!(!Value::F64(0.0).is_true());
    }

    #[test]
    fn scalar_conversion() {
        assert_eq!(Value::from(Scalar::F64(1.5)), Value::F64(1.5));
        assert_eq!(Value::from(Scalar::I8(-3)), Value::I32(-3));
        let c = Value::from(Scalar::C64(sqlarray_core::Complex64::new(1.0, 2.0)));
        match c {
            Value::Bytes(b) => assert_eq!(b.len(), 16),
            other => panic!("expected bytes, got {other:?}"),
        }
    }

    #[test]
    fn array_round_trip_through_value() {
        let a = sqlarray_core::build::short_vector(&[1.0f64, 2.0]).unwrap();
        let v = Value::Bytes(a.as_blob().to_vec());
        let back = v.as_array().unwrap();
        assert_eq!(back, a);
        assert!(Value::I64(0).as_array().is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::I64(42).to_string(), "42");
        assert_eq!(Value::Bytes(vec![0xAB, 0xCD]).to_string(), "0xABCD");
        assert_eq!(Value::Str("hi".into()).to_string(), "'hi'");
    }

    #[test]
    fn row_value_conversion() {
        assert_eq!(Value::from(RowValue::F64(1.0)), Value::F64(1.0));
        assert_eq!(
            Value::from(RowValue::Bytes(vec![1, 2])),
            Value::Bytes(vec![1, 2])
        );
        // Out-of-row refs convert to the lazy variant, never to a string.
        assert_eq!(
            Value::from(RowValue::LobRef(7, 9000)),
            Value::Lob { id: 7, len: 9000 }
        );
    }

    #[test]
    fn an_arg_answers_like_its_value() {
        let values = [
            Value::Null,
            Value::I64(-3),
            Value::I32(7),
            Value::F64(2.5),
            Value::F64(4.0),
            Value::F32(-0.0),
            Value::Bytes(vec![1, 2]),
            Value::Bytes(Vec::new()),
            Value::Str("x".into()),
            Value::Str(String::new()),
            Value::Bool(true),
            Value::Lob { id: 7, len: 9000 },
        ];
        for v in &values {
            let a = Arg::from(v);
            assert_eq!(a.to_value(), *v);
            assert_eq!(a.as_f64(), v.as_f64(), "{v:?}");
            assert_eq!(a.as_i64(), v.as_i64(), "{v:?}");
            assert_eq!(a.as_index(), v.as_index(), "{v:?}");
            assert_eq!(a.as_bytes(), v.as_bytes(), "{v:?}");
            assert_eq!(a.as_array(), v.as_array(), "{v:?}");
            assert_eq!(a.is_true(), v.is_true(), "{v:?}");
        }
    }

    #[test]
    fn unresolved_lob_errors_are_typed() {
        let v = Value::Lob { id: 7, len: 9000 };
        assert!(matches!(
            v.as_f64(),
            Err(EngineError::UnresolvedLob { id: 7, len: 9000 })
        ));
        assert!(matches!(
            v.as_bytes(),
            Err(EngineError::UnresolvedLob { .. })
        ));
        assert!(matches!(
            v.as_array(),
            Err(EngineError::UnresolvedLob { .. })
        ));
        assert!(v.is_true());
        assert!(!Value::Lob { id: 7, len: 0 }.is_true());
        let msg = v.as_bytes().unwrap_err().to_string();
        assert!(msg.contains("unresolved LOB"), "{msg}");
    }
}
