//! The catalog: one page store plus its tables, the commit-record
//! serialization of the table map, and recovery from a crashed image.

use crate::value::{EngineError, Result};
use sqlarray_core::le;
use sqlarray_storage::{ColType, DiskImage, PageStore, Recovery, RowValue, Schema, Table};
use std::collections::HashMap;

/// A database: one page store plus its tables.
pub struct Database {
    /// The page store all tables live in.
    pub store: PageStore,
    /// Tables by lowercase name.
    pub tables: HashMap<String, Table>,
}

impl Database {
    /// An empty database with default store settings.
    pub fn new() -> Database {
        Database {
            store: PageStore::new(),
            tables: HashMap::new(),
        }
    }

    /// An empty database over a custom store (pool size, disk profile).
    pub fn with_store(store: PageStore) -> Database {
        Database {
            store,
            tables: HashMap::new(),
        }
    }

    /// Creates a table.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        let key = name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(EngineError::Storage(format!("table `{name}` exists")));
        }
        let t = Table::create(&mut self.store, name, schema)?;
        self.tables.insert(key, t);
        Ok(())
    }

    /// The store and one table, both exclusively — what every mutation
    /// of a table needs. The table is the catalog entry itself, so B-tree
    /// geometry changes (root, leaf chain, row count) land in the catalog
    /// as they happen, also when the mutation stops on a storage error.
    pub(crate) fn store_and_table_mut(
        &mut self,
        name: &str,
    ) -> Result<(&mut PageStore, &mut Table)> {
        let table = self
            .tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| EngineError::Unknown(format!("table `{name}`")))?;
        Ok((&mut self.store, table))
    }

    /// Inserts a row into a table. A `BIGINT` column 0 is the clustered
    /// key column — the `id` a `WHERE id = k` seeks by — so `values[0]`
    /// must then be `RowValue::I64(key)`; anything else is a typed error
    /// and nothing is written
    /// ([`bulk_insert_with_dop`](Self::bulk_insert_with_dop) checks the
    /// same for every row before it loads any).
    pub fn insert(&mut self, table: &str, key: i64, values: &[RowValue]) -> Result<()> {
        let (store, t) = self.store_and_table_mut(table)?;
        check_key_column(t, key, values)?;
        t.insert(store, key, values)?;
        Ok(())
    }

    /// Bulk-loads an **empty** table from key-sorted rows through the
    /// parallel ingest path, with `dop` workers for the encode and
    /// leaf-build stages. The resulting layout, pool state and I/O
    /// accounting are identical at every DOP.
    pub fn bulk_insert_with_dop(
        &mut self,
        table: &str,
        rows: &[(i64, Vec<RowValue>)],
        dop: usize,
    ) -> Result<()> {
        let (store, t) = self.store_and_table_mut(table)?;
        // Before the load's own pre-flight: a refused load touches nothing.
        rows.iter()
            .try_for_each(|(key, values)| check_key_column(t, *key, values))?;
        t.bulk_load(store, rows, dop)?;
        Ok(())
    }

    /// Looks a table up by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Commits the current state: writes a WAL commit record carrying the
    /// serialized catalog (every table's name, schema, and B-tree
    /// geometry). Everything logged up to here survives a crash; anything
    /// after is rolled back by [`Database::recover`].
    pub fn commit(&mut self) {
        let catalog = self.catalog_bytes();
        self.store.commit(&catalog);
    }

    /// The catalog image a commit record carries. Tables serialize in
    /// name order, so the byte stream is independent of hash-map
    /// iteration order.
    fn catalog_bytes(&self) -> Vec<u8> {
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        let mut out = Vec::new();
        le::push_u32(&mut out, self.tables.len() as u32);
        for key in names {
            // lint:allow(L005, reason = "iterating the map's own keys")
            let t = &self.tables[key];
            le::push_bytes(&mut out, t.name().as_bytes());
            let schema = t.schema();
            le::push_u32(&mut out, schema.columns.len() as u32);
            for col in &schema.columns {
                le::push_bytes(&mut out, col.name.as_bytes());
                out.push(ctype_tag(col.ctype));
            }
            let (root, first_leaf, rows, depth) = t.tree_parts();
            le::push_u64(&mut out, root);
            le::push_u64(&mut out, first_leaf);
            le::push_u64(&mut out, rows);
            le::push_u32(&mut out, depth);
        }
        out
    }

    /// Recovers a database from a crashed disk image: replays the WAL to
    /// the last complete commit, discards the torn tail, and rebuilds the
    /// table catalog from that commit's payload.
    pub fn recover(image: &DiskImage) -> Result<Database> {
        Database::from_recovery(PageStore::open(image)?)
    }

    /// Builds a database from an already-recovered store — for callers
    /// that ran [`PageStore::open_with`] themselves (custom pool size or
    /// disk profile) or need [`Recovery`]'s replay counters.
    pub fn from_recovery(rec: Recovery) -> Result<Database> {
        let tables = tables_of(rec.catalog.as_deref())?;
        Ok(Database {
            store: rec.store,
            tables,
        })
    }

    /// Returns to the last commit: the store drops everything logged after
    /// it ([`PageStore::rollback`]) and the tables are read back from that
    /// commit's catalog.
    pub(crate) fn rollback(&mut self) -> Result<()> {
        let catalog = self.store.rollback()?;
        self.tables = tables_of(catalog.as_deref())?;
        Ok(())
    }
}

/// The tables a commit's catalog names — none before the first commit.
fn tables_of(catalog: Option<&[u8]>) -> Result<HashMap<String, Table>> {
    let Some(catalog) = catalog else {
        return Ok(HashMap::new());
    };
    parse_catalog(catalog)
        .ok_or_else(|| EngineError::Storage("commit record carries a malformed catalog".into()))
}

/// The column that repeats the clustered key: column 0, when it is a
/// `BIGINT`. Storage keys rows by an opaque `i64` passed beside the row;
/// this is the layer that ties it to a column, so that `WHERE id = k` may
/// seek the B-tree. The tie is enforced where rows enter
/// ([`Database::insert`], [`Database::bulk_insert_with_dop`]) and where
/// they change (`UPDATE` may not assign the column). A table whose
/// column 0 has another type has no key column and is always scanned in
/// full.
pub(crate) fn clustered_key_column(schema: &Schema) -> Option<&sqlarray_storage::Column> {
    schema.columns.first().filter(|c| c.ctype == ColType::I64)
}

/// Refuses a row whose key column does not hold its clustered key. (A
/// row with no values at all is storage's arity error, not this one.)
fn check_key_column(table: &Table, key: i64, values: &[RowValue]) -> Result<()> {
    match (clustered_key_column(table.schema()), values.first()) {
        (Some(col), Some(v)) if *v != RowValue::I64(key) => Err(EngineError::Type(format!(
            "row inserted under clustered key {key} holds {v:?} in its key column `{}`",
            col.name
        ))),
        _ => Ok(()),
    }
}

fn ctype_tag(t: ColType) -> u8 {
    match t {
        ColType::I64 => 0,
        ColType::I32 => 1,
        ColType::F64 => 2,
        ColType::F32 => 3,
        ColType::Blob => 4,
    }
}

fn ctype_from_tag(tag: u8) -> Option<ColType> {
    Some(match tag {
        0 => ColType::I64,
        1 => ColType::I32,
        2 => ColType::F64,
        3 => ColType::F32,
        4 => ColType::Blob,
        _ => return None,
    })
}

/// Parses a catalog image back into the table map; `None` on any
/// truncation or bad tag — the commit checksum already vouched for the
/// bytes, so a parse failure means a version mismatch, not corruption in
/// flight.
fn parse_catalog(buf: &[u8]) -> Option<HashMap<String, Table>> {
    let mut tables = HashMap::new();
    if buf.len() < 4 {
        return None;
    }
    let n_tables = le::u32_at(buf, 0) as usize;
    let mut off = 4usize;
    for _ in 0..n_tables {
        let (name, next) = le::take_bytes(buf, off)?;
        let name = String::from_utf8(name.to_vec()).ok()?;
        off = next;
        if buf.len() < off + 4 {
            return None;
        }
        let n_cols = le::u32_at(buf, off) as usize;
        off += 4;
        let mut columns = Vec::with_capacity(n_cols);
        for _ in 0..n_cols {
            let (cname, next) = le::take_bytes(buf, off)?;
            off = next;
            let tag = *buf.get(off)?;
            off += 1;
            columns.push(sqlarray_storage::Column {
                name: String::from_utf8(cname.to_vec()).ok()?,
                ctype: ctype_from_tag(tag)?,
            });
        }
        if buf.len() < off + 8 + 8 + 8 + 4 {
            return None;
        }
        let root = le::u64_at(buf, off);
        let first_leaf = le::u64_at(buf, off + 8);
        let rows = le::u64_at(buf, off + 16);
        let depth = le::u32_at(buf, off + 24);
        off += 28;
        let key = name.to_ascii_lowercase();
        let t = Table::from_parts(name, Schema { columns }, (root, first_leaf, rows, depth));
        tables.insert(key, t);
    }
    if off != buf.len() {
        return None;
    }
    Some(tables)
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}
