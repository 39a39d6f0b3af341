//! The crash matrix: every mutation path (bulk load, row-at-a-time INSERT,
//! UPDATE-style row and blob-range maintenance, DELETE, leaf splits, whose
//! log names the rows they move by their slots on the leaf they left, and
//! rewrites of leaves and internal nodes, whose log holds the slot edits
//! they made rather than the bytes that moved) is killed at **every**
//! WAL-append injection point — with clean and torn cuts — and recovery
//! must land byte-for-byte on the last complete commit: base pages,
//! checksums, free list, catalog, and every decodable row and LOB chain.
//! Each family runs a second time from a base image a checkpoint
//! produced by sharing the pages written since the one before it, so a
//! page that share missed, or a buffer a later write changed in place,
//! shows here as a wrong byte.
//!
//! Injection points are enumerated from one clean run of the victim
//! ([`IoStats::wal_records`] counts every append, durable or not), so the
//! matrix is exhaustive by construction: a new WAL record type or an
//! extra logged write in some code path automatically widens the matrix.
//! A cut that lets `n` appends through is a [`Fault::PowerLoss`] plan
//! armed at `n + 1`.
//!
//! One victim runs its log past the auto-checkpoint trigger: an armed
//! power loss lets that checkpoint run before the cut and keeps every
//! checkpoint after it off the base image, so sampled cuts around the
//! checkpointing commit recover the last commit too.
//!
//! The property-based suite generalizes the fixed victims: random
//! insert/update/patch/delete interleavings with a commit after every
//! statement, crashed at a random record allowance, must recover exactly
//! the prefix covered by the last surviving commit.

#![allow(clippy::unwrap_used, clippy::expect_used, reason = "test code")]

use proptest::prelude::*;
use sqlarray_core::fault::{Fault, FaultPlan};
use sqlarray_storage::fail::tear_wal;
use sqlarray_storage::page::{Piece, SlotEdit};
use sqlarray_storage::store::AUTO_CHECKPOINT_BYTES;
use sqlarray_storage::wal::{self, WalRecord};
use sqlarray_storage::{
    blob, ColType, DiskImage, PageStore, RowOp, RowValue, Schema, StorageError, Table,
};
use std::borrow::Cow;
use std::sync::Arc;

const CHUNK_DATA: usize = 8176; // PAGE_SIZE - 16, the blob chunk payload

fn schema() -> Schema {
    Schema::new(&[
        ("id", ColType::I64),
        ("tag", ColType::I32),
        ("v", ColType::Blob),
    ])
}

/// Deterministic blob payload: `len` bytes seeded by `seed`.
fn pattern(seed: i64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u64).wrapping_mul(31).wrapping_add(seed as u64) as u8)
        .collect()
}

fn row(k: i64, tag: i32, blob_len: usize) -> (i64, Vec<RowValue>) {
    (
        k,
        vec![
            RowValue::I64(k),
            RowValue::I32(tag),
            RowValue::Bytes(pattern(k, blob_len)),
        ],
    )
}

/// `ops` through one `Table::apply` call: how many rows changed.
fn apply_ops(store: &mut PageStore, t: &mut Table, ops: &[(i64, RowOp<'_>)]) -> u64 {
    let keys: Vec<i64> = ops.iter().map(|&(key, _)| key).collect();
    t.apply(store, &keys, |_, i, _| {
        Ok::<_, StorageError>(ops[i].1.clone())
    })
    .unwrap()
}

/// One op through `Table::apply`: whether the key held a row.
fn one(store: &mut PageStore, t: &mut Table, key: i64, op: RowOp<'_>) -> bool {
    apply_ops(store, t, &[(key, op)]) == 1
}

/// Overwrites `data.len()` bytes of row `key`'s out-of-row blob at `off`,
/// as the engine's `ArrayUpdate` does: in place, through
/// `blob::update_blob_range` on the chain id `get_col` returns.
fn patch(store: &mut PageStore, t: &Table, key: i64, off: usize, data: &[u8]) {
    let Some(RowValue::LobRef(id, _)) = t.get_col(store, key, 2).unwrap() else {
        panic!("row {key} holds no out-of-row blob");
    };
    blob::update_blob_range(store, id, off, data).unwrap();
}

/// Commits with the table's tree geometry as the catalog payload, the
/// way an engine-level commit carries its table map.
fn commit(store: &mut PageStore, t: &Table) {
    let (root, first_leaf, rows, depth) = t.tree_parts();
    let mut cat = Vec::new();
    cat.extend_from_slice(&root.to_le_bytes());
    cat.extend_from_slice(&first_leaf.to_le_bytes());
    cat.extend_from_slice(&rows.to_le_bytes());
    cat.extend_from_slice(&depth.to_le_bytes());
    store.commit(&cat);
}

fn parse_catalog(cat: &[u8]) -> (u64, u64, u64, u32) {
    assert_eq!(cat.len(), 28, "catalog payload has the committed shape");
    let u64_at = |o: usize| u64::from_le_bytes(cat[o..o + 8].try_into().unwrap());
    (
        u64_at(0),
        u64_at(8),
        u64_at(16),
        u32::from_le_bytes(cat[24..28].try_into().unwrap()),
    )
}

/// Everything recovery promises, in comparable form: the canonical
/// (checkpointed) disk image, the committed catalog, and every row the
/// catalog's tree can decode — LOB chains read back to bytes.
#[derive(PartialEq, Debug)]
struct RecoveredState {
    pages: Vec<Arc<[u8]>>,
    sums: Vec<u64>,
    free: Vec<u64>,
    catalog: Option<Vec<u8>>,
    /// The catalog the recovered store's own checkpoint carries — what a
    /// second crash, before any new commit, would recover from.
    image_catalog: Option<Vec<u8>>,
    rows: Vec<(i64, i64, i32, Vec<u8>)>,
}

/// Reboots from `image` and materializes the full recovered state. Panics
/// on any recovery or decode failure: inside the matrix, every crash
/// point must yield a *readable* store, not just an openable one.
fn recover(image: &DiskImage) -> RecoveredState {
    let rec = PageStore::open(image).expect("recovery accepts the crashed image");
    let mut store = rec.store;
    let mut rows = Vec::new();
    if let Some(cat) = &rec.catalog {
        let t = Table::from_parts("T".into(), schema(), parse_catalog(cat));
        let n = t.tree_parts().2 as i64;
        // Keys are drawn from 0..64 in every workload here but the one
        // wide enough to split an internal node, whose keys lie below
        // twice its row count; probing the whole range exercises both
        // present and absent keys.
        let mut seen = 0i64;
        for k in 0..64.max(2 * n) {
            if let Some(vals) = t.get(&mut store, k).expect("recovered leaf decodes") {
                seen += 1;
                let RowValue::I64(id) = vals[0] else {
                    panic!("id column decodes as I64")
                };
                let RowValue::I32(tag) = vals[1] else {
                    panic!("tag column decodes as I32")
                };
                let bytes = match &vals[2] {
                    RowValue::Bytes(b) => b.clone(),
                    &RowValue::LobRef(id, len) => {
                        let b = sqlarray_storage::blob::read_blob(&mut store, id)
                            .expect("recovered LOB chain reads back");
                        assert_eq!(b.len(), len as usize, "LOB length matches its ref");
                        b
                    }
                    other => panic!("blob column decodes as bytes, got {other:?}"),
                };
                rows.push((k, id, tag, bytes));
            }
        }
        assert_eq!(seen, n, "row count in catalog matches decodable rows");
    }
    let canon = store.crash_image();
    assert!(
        canon.wal.is_empty(),
        "recovery checkpoints: log starts empty"
    );
    assert_eq!(
        canon.catalog, rec.catalog,
        "recovery's checkpoint carries the recovered catalog"
    );
    RecoveredState {
        pages: canon.pages,
        sums: canon.sums,
        free: canon.free,
        catalog: rec.catalog,
        image_catalog: canon.catalog,
        rows,
    }
}

/// The power loss that lets exactly `allow` more WAL appends reach the
/// log, leaving `torn` bytes of the next one.
fn power_loss(allow: u64, torn: usize) -> FaultPlan {
    FaultPlan::new(Fault::PowerLoss { torn_bytes: torn }, allow + 1)
}

/// Kills `victim` at every WAL-append injection point (clean cut and a
/// 17-byte torn prefix of the first lost record), asserting recovery is
/// byte-identical to the pre-victim commit for every incomplete cut, and
/// to the post-victim commit when everything reached the log. `victim`
/// must end with exactly one commit (its last append).
fn run_matrix(setup: &dyn Fn() -> (PageStore, Table), victim: &dyn Fn(&mut PageStore, &mut Table)) {
    // Clean run: enumerate the injection points, capture both anchors.
    let (mut store, mut t) = setup();
    let pre = recover(&store.crash_image());
    let before = store.stats().wal_records;
    victim(&mut store, &mut t);
    let n_records = store.stats().wal_records - before;
    assert!(n_records > 1, "victim must append records, then commit");
    let post = recover(&store.crash_image());
    assert_ne!(pre.rows, post.rows, "victim must change visible state");

    for allow in 0..=n_records {
        for torn in [0usize, 17] {
            let (mut store, mut t) = setup();
            store.arm(Some(power_loss(allow, torn)));
            victim(&mut store, &mut t);
            let got = recover(&store.crash_image());
            // The victim's last append is its commit record: any cut that
            // loses a record loses the commit, so recovery must roll the
            // whole victim back; only the full log carries it forward.
            let want = if allow < n_records { &pre } else { &post };
            assert_eq!(
                &got, want,
                "crash at record {allow}/{n_records} (torn {torn}) must recover \
                 the last complete commit"
            );
        }
    }
}

/// Rows mixing inline blobs, a 2-chunk LOB, and a 3-chunk LOB, so leaf
/// records, root pages, chunk chains and the free list all participate.
fn mixed_rows(n: i64) -> Vec<(i64, Vec<RowValue>)> {
    (0..n)
        .map(|k| match k % 4 {
            0 => row(k, k as i32, 64),            // inline
            1 => row(k, -k as i32, 7000),         // inline, near the limit
            2 => row(k, 2 * k as i32, 12_000),    // 2-chunk LOB
            _ => row(k, -(2 * k) as i32, 20_000), // 3-chunk LOB
        })
        .collect()
}

fn empty_committed() -> (PageStore, Table) {
    let mut store = PageStore::new();
    let t = Table::create(&mut store, "T", schema()).unwrap();
    commit(&mut store, &t);
    (store, t)
}

fn loaded_committed() -> (PageStore, Table) {
    let (mut store, mut t) = empty_committed();
    t.bulk_load(&mut store, &mixed_rows(12), 1).unwrap();
    commit(&mut store, &t);
    (store, t)
}

#[test]
fn bulk_load_crash_matrix_at_every_dop() {
    for dop in [1usize, 2, 4, 8] {
        run_matrix(&empty_committed, &move |store, t| {
            t.bulk_load(store, &mixed_rows(12), dop).unwrap();
            commit(store, t);
        });
    }
}

#[test]
fn bulk_load_wal_stream_is_dop_invariant() {
    // The matrix above re-proves recovery per DOP; this pins the stronger
    // fact it rests on: the *log bytes themselves* are identical, so every
    // crash point at DOP 8 is the same disk state as at DOP 1.
    let image_at = |dop: usize| {
        let (mut store, mut t) = empty_committed();
        t.bulk_load(&mut store, &mixed_rows(24), dop).unwrap();
        commit(&mut store, &t);
        store.crash_image()
    };
    let serial = image_at(1);
    for dop in [2usize, 4, 8] {
        let par = image_at(dop);
        assert_eq!(serial.wal, par.wal, "WAL bytes differ at dop {dop}");
        assert_eq!(serial.pages, par.pages, "base pages differ at dop {dop}");
        assert_eq!(serial.sums, par.sums);
        assert_eq!(serial.free, par.free);
    }
}

#[test]
fn update_crash_matrix() {
    run_matrix(&loaded_committed, &|store, t| {
        // Replace a LOB chain (free + rewrite), grow an inline value out
        // of page, shrink a LOB back inline, and touch a scalar column.
        assert!(one(store, t, 2, RowOp::Update(row(2, 99, 15_000).1.into())));
        assert!(one(store, t, 0, RowOp::Update(row(0, 7, 11_000).1.into())));
        assert!(one(store, t, 3, RowOp::Update(row(3, -7, 80).1.into())));
        assert!(one(store, t, 1, RowOp::Update(row(1, 1000, 7000).1.into())));
        commit(store, t);
    });
}

#[test]
fn blob_range_update_crash_matrix() {
    run_matrix(&loaded_committed, &|store, t| {
        // The ArrayUpdate path: splice bytes across a chunk boundary of a
        // stored chain, and inside the first chunk of another.
        patch(store, t, 7, CHUNK_DATA - 50, &pattern(77, 300));
        patch(store, t, 2, 100, &pattern(78, 64));
        commit(store, t);
    });
}

#[test]
fn delete_crash_matrix() {
    run_matrix(&loaded_committed, &|store, t| {
        // Inline rows and both LOB shapes, including a whole leaf's worth.
        for k in [0i64, 2, 3, 5, 7, 11] {
            assert!(one(store, t, k, RowOp::Delete));
        }
        commit(store, t);
    });
}

#[test]
fn delete_list_crash_matrix() {
    // One key list over several leaves, 2- and 3-chunk LOB rows among its
    // rows: each leaf loses its rows in one write, their chains freed at
    // their turns, so every cut between two leaves or inside a chain's
    // free must roll the whole statement back.
    let keys = [1i64, 2, 3, 6, 7, 10, 11, 40];
    let (store, t) = loaded_committed();
    let leaves: std::collections::BTreeSet<u64> = keys[..7]
        .iter()
        .map(|&k| t.partition_keys(&store, 1, k..=k).unwrap()[0].leaves()[0])
        .collect();
    assert!(leaves.len() >= 3, "the keys span {} leaves", leaves.len());
    run_matrix(&loaded_committed, &|store, t| {
        let ops: Vec<_> = keys.iter().map(|&k| (k, RowOp::Delete)).collect();
        assert_eq!(apply_ops(store, t, &ops), 7);
        commit(store, t);
    });
}

#[test]
fn mixed_apply_crash_matrix() {
    // One op list over several leaves of LOB rows: inserts, deletes, and
    // updates that replace a chain, move a value out of row and back in,
    // and grow an inline row, with absent keys among them.
    let rows = [
        row(1, 5, 80),
        row(2, 99, 15_000),
        row(4, 8, 9_000),
        row(6, -6, 80),
        row(9, 9, 7_000),
        row(12, 12, 12_000),
        row(13, 13, 64),
        row(20, 20, 64),
    ];
    let (store, t) = loaded_committed();
    let leaves: std::collections::BTreeSet<u64> = [1, 5, 9]
        .iter()
        .map(|&k| t.partition_keys(&store, 1, k..=k).unwrap()[0].leaves()[0])
        .collect();
    assert!(leaves.len() >= 3, "the ops span {} leaves", leaves.len());
    run_matrix(&loaded_committed, &|store, t| {
        let [r1, r2, r4, r6, r9, r12, r13, r20] = &rows;
        let ops = [
            (1, RowOp::Update(Cow::Borrowed(&r1.1))),
            (2, RowOp::Update(Cow::Borrowed(&r2.1))),
            (3, RowOp::Delete),
            (4, RowOp::Update(Cow::Borrowed(&r4.1))),
            (5, RowOp::Delete),
            (6, RowOp::Update(Cow::Borrowed(&r6.1))),
            (7, RowOp::Delete),
            (9, RowOp::Update(Cow::Borrowed(&r9.1))),
            (10, RowOp::Delete),
            (12, RowOp::Insert(Cow::Borrowed(&r12.1))),
            (13, RowOp::Insert(Cow::Borrowed(&r13.1))),
            (20, RowOp::Update(Cow::Borrowed(&r20.1))),
            (21, RowOp::Delete),
        ];
        assert_eq!(apply_ops(store, t, &ops), 11);
        commit(store, t);
    });
}

/// Keys 2, 6, …, `4 * n - 2` with 1500-byte inline blobs: five rows fill a
/// leaf, so a bulk load leaves every leaf but the last full and any insert
/// between them splits one.
fn spaced_rows(n: i64) -> Vec<(i64, Vec<RowValue>)> {
    (0..n).map(|i| row(4 * i + 2, i as i32, 1500)).collect()
}

fn spaced_committed(n: i64) -> (PageStore, Table) {
    let (mut store, mut t) = empty_committed();
    t.bulk_load(&mut store, &spaced_rows(n), 1).unwrap();
    commit(&mut store, &t);
    (store, t)
}

fn insert_keys(store: &mut PageStore, t: &mut Table, keys: &[i64]) {
    let sized: Vec<_> = keys.iter().map(|&k| (k, 1500)).collect();
    insert_keys_sized(store, t, &sized);
}

/// Inserts each `(key, blob bytes)` row.
fn insert_keys_sized(store: &mut PageStore, t: &mut Table, keys: &[(i64, usize)]) {
    for &(k, len) in keys {
        t.insert(store, k, &row(k, -(k as i32), len).1).unwrap();
    }
}

#[test]
fn insert_crash_matrix() {
    // Front, middle and end of the key range of three full leaves under an
    // internal root: every first insert into a leaf splits it.
    let spread = [0i64, 1, 29, 31, 62, 63, 3, 33, 61];
    let (mut store, mut t) = spaced_committed(15);
    let leaves = t.data_pages(&mut store).unwrap();
    insert_keys(&mut store, &mut t, &spread);
    assert!(t.data_pages(&mut store).unwrap() >= leaves + 3);
    run_matrix(&|| spaced_committed(15), &|store, t| {
        insert_keys(store, t, &spread);
        commit(store, t);
    });

    // One full leaf that is also the root: the first insert splits the
    // root and the tree grows a level.
    let (mut store, mut t) = spaced_committed(5);
    let depth = t.tree_parts().3;
    insert_keys(&mut store, &mut t, &[0]);
    assert_eq!(t.tree_parts().3, depth + 1, "the root split");
    run_matrix(&|| spaced_committed(5), &|store, t| {
        insert_keys(store, t, &[0, 9, 63]);
        commit(store, t);
    });
}

/// Two rows of 3 900-byte inline blobs fill a leaf: keys 4i + 2 for
/// i < 8, four full leaves. A row of 7 000 bytes between two of them
/// splits their leaf three ways; one of 1 500 bytes, two ways.
fn wide_committed() -> (PageStore, Table) {
    let (mut store, mut t) = empty_committed();
    let rows: Vec<_> = (0..8).map(|i| row(4 * i + 2, i as i32, 3900)).collect();
    t.bulk_load(&mut store, &rows, 1).unwrap();
    commit(&mut store, &t);
    (store, t)
}

/// What the log of `ops` — statements that split leaves or move records
/// within a page — holds, on a clean run from `setup`.
#[derive(Debug, Default)]
struct Logged {
    /// Records its rebuilds take by slot from another page.
    by_reference: usize,
    /// Record bytes its edit frames and literal frames carry on the pages
    /// `ops` allocated.
    carried: usize,
    /// Edits it logs on the pages that were there before.
    in_place: usize,
}

/// [`Logged`] for `ops` from `setup`, and beside the matrix: once
/// committed, a reboot from the crash image gives the live file byte for
/// byte, and so does a rollback of a later statement, which replays the
/// same log.
fn check_edit_frames(
    setup: &dyn Fn() -> (PageStore, Table),
    ops: &dyn Fn(&mut PageStore, &mut Table),
) -> Logged {
    let (mut store, mut t) = setup();
    let (wal_at, fresh) = (store.wal_len(), store.page_count());
    ops(&mut store, &mut t);
    commit(&mut store, &t);
    let live: Vec<Vec<u8>> = (0..store.page_count())
        .map(|p| store.raw_page(p).unwrap().to_vec())
        .collect();
    let image = store.crash_image();
    let mut logged = Logged::default();
    for (_, rec) in wal::scan_strict(&image.wal[wal_at..]).unwrap() {
        if matches!(rec, WalRecord::Edit { page, .. } if page < fresh) {
            logged.in_place += 1;
        }
        match rec {
            WalRecord::Edit { page, edit } => match edit {
                SlotEdit::Insert(_, rec) | SlotEdit::Replace(_, rec) if page >= fresh => {
                    logged.carried += rec.len()
                }
                SlotEdit::Rebuild(.., records) => {
                    for piece in records {
                        match piece {
                            Piece::Slots(src, slots) if src != page => {
                                logged.by_reference += slots.len()
                            }
                            Piece::Bytes(rec) if page >= fresh => logged.carried += rec.len(),
                            _ => {}
                        }
                    }
                }
                _ => {}
            },
            WalRecord::Write { page, bytes, .. } if page >= fresh => logged.carried += bytes.len(),
            _ => {}
        }
    }
    let rebooted = PageStore::open(&image).unwrap().store;
    // The later statement overwrites every page; its rollback replays the
    // log from the base image.
    for p in 0..store.page_count() {
        store.write(p, |b| b.fill(0xA5)).unwrap();
    }
    store.rollback().unwrap();
    for (what, s) in [("reboot", &rebooted), ("rollback", &store)] {
        assert_eq!(s.page_count(), live.len() as u64, "{what}");
        for (p, page) in live.iter().enumerate() {
            assert!(s.raw_page(p as u64).unwrap() == page, "{what}: page {p}");
        }
    }
    logged
}

/// Splits name the rows they move to a fresh page by their slots on the
/// leaf they left, carrying only the rows the statement wrote, and every
/// crash of them recovers the last commit: a split that follows an edit of
/// the same group — whose edited row is not on the store's leaf and so is
/// carried — and a three-way and a two-way split.
#[test]
fn split_by_slot_crash_matrix() {
    // Leaf [2, 6, 10, 14, 18] is full: row 14 changes its tag in place,
    // then 16 splits the leaf, and 14, 16 and 18 move to a fresh page.
    let edit_then_split = |store: &mut PageStore, t: &mut Table| {
        let (r14, r16) = (row(14, 99, 1500).1, row(16, -16, 1500).1);
        let ops = [
            (14, RowOp::Update(Cow::Borrowed(&r14))),
            (16, RowOp::Insert(Cow::Borrowed(&r16))),
        ];
        assert_eq!(apply_ops(store, t, &ops), 2);
    };
    let logged = check_edit_frames(&|| spaced_committed(15), &edit_then_split);
    assert_eq!(
        logged.by_reference, 1,
        "row 18 is named by its slot: {logged:?}"
    );
    assert!(
        (3000..4500).contains(&logged.carried),
        "rows 14 and 16, and no other, are carried: {logged:?}"
    );
    run_matrix(&|| spaced_committed(15), &|store, t| {
        edit_then_split(store, t);
        commit(store, t);
    });

    let wide_splits = |store: &mut PageStore, t: &mut Table| {
        let leaves = t.data_pages(store).unwrap();
        insert_keys_sized(store, t, &[(4, 7000)]);
        assert_eq!(
            t.data_pages(store).unwrap(),
            leaves + 2,
            "a three-way split"
        );
        insert_keys_sized(store, t, &[(12, 1500)]);
        assert_eq!(t.data_pages(store).unwrap(), leaves + 3, "a two-way split");
    };
    let logged = check_edit_frames(&wide_committed, &wide_splits);
    assert!(logged.by_reference > 0, "{logged:?}");
    assert!(
        logged.carried < 7000 + 1500 + 200,
        "only the inserted rows: {logged:?}"
    );
    run_matrix(&wide_committed, &|store, t| {
        wide_splits(store, t);
        commit(store, t);
    });
}

/// A split after a checkpoint names rows on a page of the base image, not
/// of the log.
#[test]
fn checkpoint_then_crash_split_by_slot() {
    let split_two = |store: &mut PageStore, t: &mut Table| insert_keys(store, t, &[36, 56]);
    let after_first = || {
        let (mut store, mut t) = spaced_committed(15);
        insert_keys(&mut store, &mut t, &[16]);
        commit(&mut store, &t);
        store.checkpoint();
        (store, t)
    };
    assert!(check_edit_frames(&after_first, &split_two).by_reference > 0);
    checkpoint_then_crash(
        &|| spaced_committed(15),
        &|store, t| insert_keys(store, t, &[16]),
        &split_two,
    );
}

/// Rows under keys 4i + 2, i < 14, with 400-byte inline blobs: one leaf,
/// the root, three quarters full.
fn one_leaf_committed() -> (PageStore, Table) {
    let (mut store, mut t) = empty_committed();
    let rows: Vec<_> = (0..14).map(|i| row(4 * i + 2, i as i32, 400)).collect();
    t.bulk_load(&mut store, &rows, 1).unwrap();
    commit(&mut store, &t);
    assert_eq!(t.data_pages(&mut store).unwrap(), 1);
    (store, t)
}

/// `ops` through one `Table::apply` call, each key's row a fresh
/// 400-byte one for an insert.
fn insert_delete(store: &mut PageStore, t: &mut Table, ops: &[(i64, bool)]) {
    let rows: Vec<_> = ops
        .iter()
        .map(|&(k, _)| row(k, -(k as i32), 400).1)
        .collect();
    let ops: Vec<_> = ops
        .iter()
        .zip(&rows)
        .map(|(&(k, insert), r)| match insert {
            true => (k, RowOp::Insert(Cow::Borrowed(r))),
            false => (k, RowOp::Delete),
        })
        .collect();
    assert_eq!(apply_ops(store, t, &ops), ops.len() as u64);
}

/// [`check_edit_frames`] and [`run_matrix`] over `victim` from `setup`:
/// the victim logs the slot edits it made on the pages that were there
/// before it.
fn edit_matrix(
    setup: &dyn Fn() -> (PageStore, Table),
    victim: &dyn Fn(&mut PageStore, &mut Table),
) {
    let logged = check_edit_frames(setup, victim);
    assert!(
        logged.in_place > 0,
        "no page was logged by its edits: {logged:?}"
    );
    run_matrix(setup, &|store, t| {
        victim(store, t);
        commit(store, t);
    });
}

/// Edits that move records within their own leaf log the edits, not the
/// bytes that moved, and every crash of them recovers the last commit: an
/// insert at slot 0 (the whole slot directory shifts), a group of deletes,
/// inserts and deletes in one group, a compaction (the rows after a dead
/// one move down), and a split whose left half re-packs.
#[test]
fn in_page_edits_crash_matrix() {
    edit_matrix(&one_leaf_committed, &|store, t| {
        insert_delete(store, t, &[(0, true)])
    });
    edit_matrix(&one_leaf_committed, &|store, t| {
        insert_delete(store, t, &[(6, false), (14, false), (30, false)])
    });
    edit_matrix(&one_leaf_committed, &|store, t| {
        insert_delete(store, t, &[(0, true), (10, false), (16, true), (30, false)])
    });
    // Leaf [2, 6, 10, 14, 18] is full; with 6 deleted, a 1 000-byte row
    // does not fit its tail but fits it compacted, and 10, 14 and 18 move
    // down.
    let with_a_gap = || {
        let (mut store, mut t) = spaced_committed(15);
        assert!(one(&mut store, &mut t, 6, RowOp::Delete));
        commit(&mut store, &t);
        (store, t)
    };
    edit_matrix(&with_a_gap, &|store, t| {
        let leaves = t.data_pages(store).unwrap();
        insert_keys_sized(store, t, &[(4, 1000)]);
        assert_eq!(t.data_pages(store).unwrap(), leaves, "a compaction");
    });
    // 4 splits [2, 6, 10, 14, 18]: 6 moves up on the left half.
    edit_matrix(&|| spaced_committed(15), &|store, t| {
        let leaves = t.data_pages(store).unwrap();
        insert_keys(store, t, &[4]);
        assert_eq!(t.data_pages(store).unwrap(), leaves + 1, "a split");
    });
}

/// Rows under keys 2i + 2, i < 30, with 3 900-byte inline blobs: fifteen
/// full leaves under one internal root of fourteen separators.
fn fifteen_leaves_committed() -> (PageStore, Table) {
    let (mut store, mut t) = empty_committed();
    let rows: Vec<_> = (0..30).map(|i| row(2 * i + 2, i as i32, 3900)).collect();
    t.bulk_load(&mut store, &rows, 1).unwrap();
    commit(&mut store, &t);
    assert_eq!(
        (t.data_pages(&mut store).unwrap(), t.tree_parts().3),
        (15, 2)
    );
    (store, t)
}

/// Rows under keys 2i, i < 409, each a 7 000-byte inline blob alone on
/// its leaf: 409 leaves, whose 408 separators fill the internal root.
fn full_root_committed() -> (PageStore, Table) {
    let (mut store, mut t) = empty_committed();
    let rows: Vec<_> = (0..409).map(|i| row(2 * i, i as i32, 7000)).collect();
    t.bulk_load(&mut store, &rows, 1).unwrap();
    commit(&mut store, &t);
    assert_eq!(
        (t.data_pages(&mut store).unwrap(), t.tree_parts().3),
        (409, 2)
    );
    (store, t)
}

/// Internal nodes log the entries they move the same way: a separator
/// inserted at the front of a node shifts its whole slot directory, and a
/// node that splits writes its fresh right half first — its entries named
/// by their slots on the node they leave — then re-packs its left half in
/// place. Every crash of either recovers the last commit.
#[test]
fn internal_node_edits_crash_matrix() {
    edit_matrix(&fifteen_leaves_committed, &|store, t| {
        insert_keys_sized(store, t, &[(1, 3900)]);
        assert_eq!(t.data_pages(store).unwrap(), 16, "the first leaf split");
    });
    // Key 1 splits the first leaf: its separator goes in at the root's
    // front, and the root splits.
    let (mut store, mut t) = full_root_committed();
    let (wal_at, fresh) = (store.wal_len(), store.page_count());
    insert_keys_sized(&mut store, &mut t, &[(1, 7000)]);
    assert_eq!(t.tree_parts().3, 3, "the root split");
    let from_the_root = wal::scan_strict(&store.crash_image().wal[wal_at..])
        .unwrap()
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Edit {
                page,
                edit: SlotEdit::Rebuild(.., records),
            } if *page >= fresh => records.iter().find_map(|p| match p {
                Piece::Slots(src, slots) if *src < fresh => Some(slots.len()),
                _ => None,
            }),
            _ => None,
        })
        .max();
    assert!(
        from_the_root.is_some_and(|n| n >= 200),
        "the right half's entries are named on the node they left: {from_the_root:?}"
    );
    edit_matrix(&full_root_committed, &|store, t| {
        insert_keys_sized(store, t, &[(1, 7000)]);
    });
}

/// Moves within a page after a checkpoint edit a page the base image
/// holds.
#[test]
fn checkpoint_then_crash_in_page_edits() {
    let after_first = || {
        let (mut store, mut t) = one_leaf_committed();
        insert_delete(&mut store, &mut t, &[(0, true)]);
        commit(&mut store, &t);
        store.checkpoint();
        (store, t)
    };
    let second = |store: &mut PageStore, t: &mut Table| {
        insert_delete(store, t, &[(4, true), (6, false), (22, false)])
    };
    assert!(check_edit_frames(&after_first, &second).in_place > 0);
    checkpoint_then_crash(
        &one_leaf_committed,
        &|store, t| insert_delete(store, t, &[(0, true)]),
        &second,
    );
}

/// [`run_matrix`] over `second`, started from a base image that a
/// checkpoint produced incrementally: `setup`, a checkpoint (so `first`
/// has base pages to write), `first`, and the checkpoint under test, which
/// shares what `first` wrote and appends what it allocated. That image
/// must equal the live file, and every crash of `second` must recover
/// from it plus the log.
fn checkpoint_then_crash(
    setup: &dyn Fn() -> (PageStore, Table),
    first: &dyn Fn(&mut PageStore, &mut Table),
    second: &dyn Fn(&mut PageStore, &mut Table),
) {
    let start = || {
        let (mut store, mut t) = setup();
        store.checkpoint();
        first(&mut store, &mut t);
        commit(&mut store, &t);
        store.checkpoint();
        let image = store.crash_image();
        assert_eq!(image.pages.len() as u64, store.page_count());
        for (p, page) in image.pages.iter().enumerate() {
            let live = store.raw_page(p as u64).unwrap();
            assert!(page[..] == *live, "checkpoint image differs on page {p}");
        }
        assert_eq!(image.free, store.free_pages());
        (store, t)
    };
    run_matrix(&start, &|store, t| {
        second(store, t);
        commit(store, t);
    });
}

#[test]
fn checkpoint_then_crash_bulk_load_and_insert() {
    // `first` bulk-loads over the checkpointed empty table (its root leaf
    // is a base page) and inserts; `second` keeps inserting.
    checkpoint_then_crash(
        &empty_committed,
        &|store, t| {
            t.bulk_load(store, &spaced_rows(15), 2).unwrap();
            insert_keys(store, t, &[0, 29, 63]);
        },
        &|store, t| insert_keys(store, t, &[1, 31, 62, 3]),
    );
}

#[test]
fn checkpoint_then_crash_update() {
    // Both halves replace LOB chains, so `first` frees base pages and
    // `second` reuses them.
    checkpoint_then_crash(
        &loaded_committed,
        &|store, t| {
            assert!(one(store, t, 2, RowOp::Update(row(2, 99, 15_000).1.into())));
            assert!(one(store, t, 0, RowOp::Update(row(0, 7, 11_000).1.into())));
        },
        &|store, t| {
            assert!(one(store, t, 3, RowOp::Update(row(3, -7, 80).1.into())));
            assert!(one(store, t, 2, RowOp::Update(row(2, 100, 9_000).1.into())));
            assert!(one(store, t, 1, RowOp::Update(row(1, 1000, 7000).1.into())));
        },
    );
}

#[test]
fn checkpoint_then_crash_blob_range_update() {
    checkpoint_then_crash(
        &loaded_committed,
        &|store, t| patch(store, t, 7, CHUNK_DATA - 50, &pattern(77, 300)),
        &|store, t| {
            patch(store, t, 7, CHUNK_DATA - 10, &pattern(79, 40));
            patch(store, t, 2, 100, &pattern(78, 64));
        },
    );
}

#[test]
fn checkpoint_then_crash_delete() {
    let delete = |store: &mut PageStore, t: &mut Table, keys: &[i64]| {
        for &k in keys {
            assert!(one(store, t, k, RowOp::Delete));
        }
    };
    checkpoint_then_crash(
        &loaded_committed,
        &|store, t| delete(store, t, &[0, 2, 3]),
        &|store, t| delete(store, t, &[5, 7, 11]),
    );
}

/// Arming a power loss leaves auto-checkpoints alone until the cut. The
/// victim's first statement writes a LOB one chunk longer than
/// [`AUTO_CHECKPOINT_BYTES`], so its commit checkpoints; two more
/// statements follow. Cuts before, at and after that commit (and at the
/// next one), clean and torn, each recover the last commit that reached
/// the disk — and the image's base catalog shows the checkpoint ran
/// exactly when its commit did.
#[test]
fn crash_around_an_auto_checkpoint_recovers_the_last_commit() {
    type Step = fn(&mut PageStore, &mut Table);
    let steps: [Step; 3] = [
        |store, t| {
            let big = row(40, 40, AUTO_CHECKPOINT_BYTES + CHUNK_DATA).1;
            t.insert(store, 40, &big).unwrap();
        },
        |store, t| assert!(one(store, t, 2, RowOp::Update(row(2, 99, 15_000).1.into()))),
        |store, t| assert!(one(store, t, 40, RowOp::Delete)),
    ];

    // Clean run: the records each commit closes, the state it leaves, and
    // the base catalogs before and after the checkpoint.
    let (mut store, mut t) = loaded_committed();
    let before = store.stats().wal_records;
    let uncheckpointed = store.crash_image().catalog;
    let mut cuts = vec![0u64];
    let mut states = vec![recover(&store.crash_image())];
    for step in steps {
        step(&mut store, &mut t);
        commit(&mut store, &t);
        cuts.push(store.stats().wal_records - before);
        states.push(recover(&store.crash_image()));
    }
    let (mut store, mut t) = loaded_committed();
    steps[0](&mut store, &mut t);
    commit(&mut store, &t);
    assert_eq!(store.wal_len(), 0, "the first commit checkpoints");
    let checkpointed = store.crash_image().catalog;
    assert_ne!(checkpointed, uncheckpointed);

    let at_ckpt = cuts[1];
    for allow in [
        0,
        at_ckpt - 2,
        at_ckpt - 1,
        at_ckpt,
        at_ckpt + 1,
        cuts[2] - 1,
        cuts[2],
        cuts[3],
    ] {
        for torn in [0usize, 17] {
            let (mut store, mut t) = loaded_committed();
            store.arm(Some(power_loss(allow, torn)));
            for step in steps {
                step(&mut store, &mut t);
                commit(&mut store, &t);
            }
            let image = store.crash_image();
            let at = format!("crash at record {allow} (torn {torn})");
            let base = if allow >= at_ckpt {
                &checkpointed
            } else {
                &uncheckpointed
            };
            assert!(&image.catalog == base, "{at}: wrong base image");
            let covered = cuts.iter().rposition(|&c| c <= allow).unwrap();
            assert!(
                recover(&image) == states[covered],
                "{at} must recover commit {covered}"
            );
        }
    }
}

#[test]
fn torn_wal_tail_is_typed_and_recovery_discards_it() {
    let (mut store, mut t) = loaded_committed();
    assert!(one(
        &mut store,
        &mut t,
        2,
        RowOp::Update(row(2, 5, 9_000).1.into())
    ));
    commit(&mut store, &t);
    let mut image = store.crash_image();
    let full = image.wal.len();
    tear_wal(&mut image, full - 5);
    // The strict scanner names the torn frame's offset…
    let err = wal::scan_strict(&image.wal).unwrap_err();
    assert!(
        matches!(err, StorageError::WalTorn { offset } if offset < full - 5),
        "got {err:?}"
    );
    // …while recovery treats the same tail as a crash artifact: replay
    // stops at the last complete commit and reports the discarded bytes.
    let rec = PageStore::open(&image).unwrap();
    assert!(rec.discarded_bytes > 0);
    assert!(rec.catalog.is_some());
}

#[test]
fn short_leaf_record_is_a_typed_row_error() {
    // A leaf record cut short (here: a row claiming an inline blob longer
    // than its bytes) surfaces as RowCorrupt, not a panic or a wrong row.
    let schema = schema();
    let (_, vals) = row(9, 9, 64);
    let full = sqlarray_storage::row::encode_row(&mut PageStore::new(), &schema, &vals).unwrap();
    let short = &full[..full.len() - 10];
    let err = sqlarray_storage::row::decode_row(&schema, short).unwrap_err();
    assert!(matches!(err, StorageError::RowCorrupt(_)), "got {err:?}");
}

// ---------------------------------------------------------------------------
// Property-based generalization
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum Op {
    Upsert(i64, usize),
    Patch(i64, usize, usize),
    Delete(i64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..3, 0i64..8, 0usize..20_000, 1usize..600).prop_map(|(kind, k, a, b)| match kind {
        0 => Op::Upsert(k, a),
        1 => Op::Patch(k, a, b),
        _ => Op::Delete(k),
    })
}

/// Applies one op; every generated op is valid against the current state
/// by construction (bounds are clamped against the stored value).
fn apply(store: &mut PageStore, t: &mut Table, op: &Op, step: i64) {
    match *op {
        Op::Upsert(k, len) => {
            let vals = row(k, (step + 1) as i32, len).1;
            if t.get(store, k).unwrap().is_some() {
                assert!(one(store, t, k, RowOp::Update(vals.into())));
            } else {
                t.insert(store, k, &vals).unwrap();
            }
        }
        Op::Patch(k, off, len) => {
            // Only an out-of-row chain patches in place; the engine
            // rewrites an inline value's row, as `Upsert` does.
            let Some(RowValue::LobRef(_, total)) = t.get_col(store, k, 2).unwrap() else {
                return;
            };
            let off = off % total as usize;
            let len = len.min(total as usize - off);
            patch(store, t, k, off, &pattern(step, len));
        }
        Op::Delete(k) => {
            one(store, t, k, RowOp::Delete);
        }
    }
}

proptest! {
    /// Statement-level autocommit under a random crash: with a commit
    /// after every op, recovery must produce exactly the state of the
    /// longest op prefix whose commit reached the log — never a blend.
    #[test]
    fn random_dml_crashes_recover_the_last_committed_prefix(
        ops in proptest::collection::vec(op_strategy(), 1..10),
        checkpoint_pick in any::<u8>(),
        crash_pick in any::<u32>(),
        torn_pick in any::<u8>(),
    ) {
        // The first `settled` ops run before the crash plan is armed and
        // end in two explicit checkpoints (none when `settled` is 0: the
        // log then reaches back to the bulk load), the second of which
        // replaces only what the ops wrote; the rest are the victims.
        let settled = usize::from(checkpoint_pick) % ops.len();
        let (settled_ops, ops) = ops.split_at(settled);
        let start = || {
            let (mut store, mut t) = loaded_committed();
            for (i, op) in settled_ops.iter().enumerate() {
                if i + 1 == settled {
                    store.checkpoint();
                }
                apply(&mut store, &mut t, op, -1 - i as i64);
                commit(&mut store, &t);
            }
            if settled > 0 {
                store.checkpoint();
            }
            (store, t)
        };

        // Clean run: per-prefix cumulative record counts and states.
        let (mut store, mut t) = start();
        let base_records = store.stats().wal_records;
        let mut cut_records = vec![0u64]; // records consumed by prefix i
        let mut states = vec![recover(&store.crash_image())];
        for (i, op) in ops.iter().enumerate() {
            apply(&mut store, &mut t, op, i as i64);
            commit(&mut store, &t);
            cut_records.push(store.stats().wal_records - base_records);
            states.push(recover(&store.crash_image()));
        }
        let total = *cut_records.last().unwrap();

        // Armed run at a derived crash point.
        let allow = u64::from(crash_pick) % (total + 1);
        let torn = [0usize, 1, 17][usize::from(torn_pick) % 3];
        let (mut store, mut t) = start();
        store.arm(Some(power_loss(allow, torn)));
        for (i, op) in ops.iter().enumerate() {
            apply(&mut store, &mut t, op, i as i64);
            commit(&mut store, &t);
        }
        let got = recover(&store.crash_image());
        // Expected: the longest prefix whose commit record survived.
        let covered = cut_records.iter().rposition(|&c| c <= allow).unwrap();
        prop_assert!(
            got == states[covered],
            "crash at {}/{} (torn {}) must recover prefix {}",
            allow, total, torn, covered
        );
    }
}
