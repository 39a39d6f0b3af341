//! A page-based B+tree keyed by `i64` — the clustered index.
//!
//! Every table in the engine is clustered: rows live in the leaf level in
//! key order (the test tables of §6.2 use "an ID (Int64, clustered index)").
//! Leaves are chained for ordered scans, internal nodes hold separator keys.
//!
//! Record formats:
//! * leaf: `key i64 | payload bytes`
//! * internal: `key i64 | child u64` (the leftmost child — subtree with
//!   keys below the first separator — is stored in the page's link field)
//!
//! **One descent.** `get` and each leaf group of a write start from
//! `BTree::find`, which walks exactly `depth` levels — an internal page at
//! each level above the last, a leaf at the last — and reads each page
//! once. A child link that points back up the tree, or at a page of the
//! wrong kind, is a typed [`StorageError::RowCorrupt`], never an endless
//! walk; so is a leaf chain longer than the file ([`BTree::leaf_pages`]).
//!
//! **One write routine.** Outside [`BTree::bulk_build`], every insert,
//! update and delete goes through [`BTree::apply`]: strictly ascending
//! keys, and an edit that makes each key's record a put, a delete or
//! nothing. The keys one leaf answers for — those below the separator the
//! descent passed on its way down — form a group: one descent takes the
//! store's private copy of the leaf (`PageStore::copy_page`), each edit
//! is placed on the copy in key order, and the group ends by installing
//! it (`PageStore::install`). A range UPDATE or DELETE thus costs one
//! page copy and one page write per leaf, not one per row.
//!
//! **One placement rule.** A record — an insert's, or an update's
//! replacement — goes, in this order:
//! 1. into the leaf's free tail, when it fits there (a replacement reuses
//!    its slot entry, and its own bytes when it does not grow);
//! 2. into the leaf rewritten without its dead space — the bytes deleted
//!    and outgrown records left behind — when the live records then fit
//!    `PAGE_SIZE − PAGE_HEADER_LEN`, so a leaf that deletes emptied is
//!    refilled rather than split again;
//! 3. through a split: 50/50 by bytes, except the classic append
//!    optimization — a record past the last key of the rightmost leaf
//!    starts a fresh page, so monotonically increasing bulk loads (the
//!    paper's 357 M-row `IDENTITY` style load) leave near-full pages. A
//!    record close to [`MAX_PAYLOAD`] between wide neighbours splits its
//!    leaf three ways. The separators walk back up the descent's path.
//!
//! Steps 2 and 3 rebuild the copy in place from its records — with the
//! new one among them — copied aside once; a split's further pages, like
//! a new root, are built in blank buffers the store adopts. A compaction
//! keeps the group going; a split or an append ends it, and the group's
//! later keys start a new one from a fresh descent. So a split cuts its
//! leaf exactly where one call per op would, and every page image equals
//! the one that applying the ops one call at a time leaves — only the
//! WAL, which logs one frame per leaf write, is shorter.
//!
//! **Moves are stated, not found.** A tree write knows what it moved: for
//! each slot of the image it builds, it records which slot of the store's
//! page the record came from (`None` for a record it made). Its install
//! claims ([`MoveClaim`]) each record that moved, and on the node's own
//! page each directory entry that shifted, read off that list
//! (`claims_of`); the store logs a claim that holds as a copy run.

use crate::errors::{Result, StorageError};
use crate::page::{
    page_type, PageId, SlottedPage, SlottedRead, PAGE_HEADER_LEN, PAGE_SIZE, SLOT_LEN,
};
use crate::store::{PageBuf, PageStore};
use crate::wal::MoveClaim;
use std::ops::{Range, RangeInclusive};

/// Largest payload storable in a leaf record (key bytes deducted). Rows
/// beyond this move their blobs out of page — see `sqlarray-storage::row`.
pub const MAX_PAYLOAD: usize = SlottedPage::max_record() - 8;

/// Leaves built per parallel round of [`BTree::bulk_build`]: bounds the
/// transient page-image memory to ~8 MiB per round while keeping each
/// worker's run long enough to amortize the thread spawn.
pub const BULK_BUILD_BATCH_LEAVES: usize = 1024;

/// Record and slot bytes a page offers, past its header.
const USABLE: usize = PAGE_SIZE - PAGE_HEADER_LEN;

/// A clustered B+tree.
#[derive(Debug, Clone)]
pub struct BTree {
    root: PageId,
    first_leaf: PageId,
    len: u64,
    depth: u32,
}

/// The key of leaf record `rec`; a record too short to hold one (page
/// bytes are not trusted) is a typed error, not an out-of-bounds panic.
fn leaf_key(rec: &[u8]) -> Result<i64> {
    if rec.len() < 8 {
        return Err(short_record("leaf", rec.len(), 8));
    }
    Ok(sqlarray_core::le::i64_at(rec, 0))
}

/// The `(separator, child)` of internal record `rec`, checked like
/// [`leaf_key`].
fn internal_entry(rec: &[u8]) -> Result<(i64, PageId)> {
    if rec.len() < 16 {
        return Err(short_record("internal", rec.len(), 16));
    }
    Ok((
        sqlarray_core::le::i64_at(rec, 0),
        sqlarray_core::le::u64_at(rec, 8),
    ))
}

#[cold]
fn short_record(kind: &str, len: usize, need: usize) -> StorageError {
    StorageError::RowCorrupt(format!(
        "{kind} record of {len} bytes is shorter than its {need}-byte entry"
    ))
}

/// The leftmost-child link of an internal node; a corrupt page without
/// one surfaces as a typed error instead of a panic.
fn leftmost_child(v: &SlottedRead<'_>) -> Result<PageId> {
    v.next_page().ok_or_else(|| {
        StorageError::RowCorrupt("internal node missing its leftmost-child link".into())
    })
}

/// Opens `page` as the node kind its place in the tree calls for. A page
/// of the other kind means a link points back up the tree or at the wrong
/// level: the tree is damaged.
fn tree_node(bytes: &[u8], kind: u8, page: PageId) -> Result<SlottedRead<'_>> {
    SlottedRead::open(bytes, kind, page).map_err(|e| match e {
        StorageError::PageTypeMismatch { got, .. } => StorageError::RowCorrupt(format!(
            "page {page} of type {got} stands where the tree links a page of type {kind}"
        )),
        other => other,
    })
}

/// What node image `to`, about to be written to page `dst`, holds of page
/// `src` as the store holds it — the image before the write — at another
/// place, as the edit that built `to` recorded it: slot `j` of `to` holds
/// the record of slot `origin[j]` of `src`, or one the edit made (`None`).
/// Such a record is claimed where it moved; on its own page (`src` is
/// `dst`), a record whose directory entry is unchanged but sits at another
/// slot is claimed by that entry. Claims that continue each other on both
/// pages are one claim, so a shifted directory or a run of re-packed
/// records costs the store one check. The claims ascend by `dst_off`, as
/// `PageStore::install` takes them. Neither image is trusted: a damaged
/// directory entry claims nothing, and the store logs a claim as a copy
/// run only where the bytes match.
fn claims_of(
    store: &PageStore,
    (kind, src): (u8, PageId),
    (dst, to): (PageId, &[u8]),
    origin: &[Option<usize>],
) -> Vec<MoveClaim> {
    let mut claims: Vec<MoveClaim> = Vec::new();
    let from = store.raw_page(src).map(|b| SlottedRead::open(b, kind, src));
    let (Some(Ok(from)), Ok(to)) = (from, SlottedRead::open(to, kind, dst)) else {
        return claims;
    };
    let entry = |slot: usize| PAGE_SIZE - (slot + 1) * SLOT_LEN;
    let dir = |v: &SlottedRead<'_>, slot| sqlarray_core::le::u32_at(v.bytes(), entry(slot));
    for (j, &i) in origin.iter().enumerate() {
        let Some(i) = i.filter(|&i| i < from.slot_count() && j < to.slot_count()) else {
            continue;
        };
        let c = if src == dst && dir(&from, i) == dir(&to, j) {
            if i == j {
                continue;
            }
            (entry(i), entry(j), SLOT_LEN)
        } else {
            match (from.record_range(i), to.record_range(j)) {
                (Ok(o), Ok(r)) if o.len() == r.len() => (o.start, r.start, r.len()),
                _ => continue,
            }
        };
        // A record's claim may continue the last one upward, a directory
        // entry's (one slot on) downward.
        match claims.last_mut() {
            Some(l) if (l.src_off + l.len, l.dst_off + l.len) == (c.0, c.1) => l.len += c.2,
            Some(l) if (c.0 + c.2, c.1 + c.2) == (l.src_off, l.dst_off) => {
                (l.src_off, l.dst_off, l.len) = (c.0, c.1, l.len + c.2);
            }
            _ => claims.push(MoveClaim {
                src,
                src_off: c.0,
                dst_off: c.1,
                len: c.2,
            }),
        }
    }
    claims.sort_unstable_by_key(|c| c.dst_off);
    claims
}

/// Pushes a record the surrounding fill arithmetic already sized to fit,
/// onto a page image no store write is open on.
fn push_sized(p: &mut SlottedPage<'_>, rec: &[u8]) {
    // lint:allow(L005, reason = "the bulk build's greedy page breaks budget every record against the same free-space rule push_record enforces; failure would be a fill-arithmetic bug, not a runtime condition")
    let _slot = p.push_record(rec).expect("sized to fit by the caller");
}

/// Writes `records` as the whole content of an empty slotted page.
fn push_all(p: &mut SlottedPage<'_>, records: &[&[u8]]) -> Result<()> {
    records.iter().try_for_each(|r| p.push_record(r).map(drop))
}

/// Appends `(separator, child)` entries to an internal page.
fn push_entries(p: &mut SlottedPage<'_>, entries: &[(i64, PageId)]) -> Result<()> {
    entries
        .iter()
        .try_for_each(|&(k, c)| p.push_record(&encode_internal(k, c)).map(drop))
}

fn encode_internal(key: i64, child: PageId) -> [u8; 16] {
    let mut rec = [0u8; 16];
    rec[..8].copy_from_slice(&key.to_le_bytes());
    rec[8..].copy_from_slice(&child.to_le_bytes());
    rec
}

/// Rejects a payload no leaf can hold.
fn check_payload(payload: &[u8]) -> Result<()> {
    if payload.len() > MAX_PAYLOAD {
        return Err(StorageError::RecordTooLarge {
            bytes: payload.len(),
            limit: MAX_PAYLOAD,
        });
    }
    Ok(())
}

/// Result of placing records in a node: one `(separator, new right
/// sibling)` pair per page the node split off, in ascending key order
/// (empty when they fit in place). A leaf holding records close to
/// [`MAX_PAYLOAD`] can be forced into a three-way split — no single
/// boundary leaves both halves under a page — so this is a `Vec`, not an
/// `Option`.
type SplitInfo = Vec<(i64, PageId)>;

/// Where [`BTree::find`] ended: the internal pages from the root down,
/// each with the slot the descent left it through; the leaf, a view of
/// it, the key's slot there and whether the key is present; and the
/// separator past the leaf's keys (`None` for the rightmost leaf).
struct Found<'s> {
    path: Vec<(PageId, InternalPos)>,
    leaf: PageId,
    view: SlottedRead<'s>,
    slot: usize,
    hit: bool,
    end: Option<i64>,
}

/// A leaf group's edit: the store's private copy of the leaf, and for each
/// of the copy's slots the slot of the store's leaf its record came from
/// (`None`: a record the group put) — what the copy's install claims.
struct LeafEdit {
    leaf: PageId,
    page: PageBuf,
    origin: Vec<Option<usize>>,
    /// The slot of the group's last key: the next key's search starts here.
    from: usize,
}

/// Which step of the placement rule takes a record (see the module doc).
/// Steps 2 and 3 rebuild the leaf from its records plus the new one, read
/// by [`BTree::rebuild_leaf`] out of one copy of the page.
enum Placement {
    /// 1: the leaf's free tail.
    Tail,
    /// 2: the leaf rewritten without its dead space.
    Compact,
    /// 3: the record is past the last key of the rightmost leaf and
    /// starts a fresh page (a replaced record leaves the leaf).
    Append,
    /// 3: the records split over two or three pages.
    Split,
}

impl Placement {
    /// The step that takes a record of `len` bytes into leaf `v`: at
    /// `slot` as a new record, or over the record there when `replace`.
    fn choose(v: &SlottedRead<'_>, slot: usize, len: usize, replace: bool) -> Result<Placement> {
        let old = replace
            .then(|| v.record(slot).map(<[u8]>::len))
            .transpose()?;
        let fits_tail = match old {
            Some(old) => len <= old || len <= v.free_tail(),
            None => len + SLOT_LEN <= v.free_tail(),
        };
        if fits_tail {
            return Ok(Placement::Tail);
        }
        let held: usize = (0..v.slot_count())
            .map(|i| Ok(v.record(i)?.len() + SLOT_LEN))
            .sum::<Result<usize>>()?;
        let live = held + len + SLOT_LEN - old.map_or(0, |old| old + SLOT_LEN);
        let last = slot + usize::from(replace) == v.slot_count();
        if live > USABLE && last && v.next_page().is_none() {
            return Ok(Placement::Append);
        }
        Ok(if live <= USABLE {
            Placement::Compact
        } else {
            Placement::Split
        })
    }
}

/// What [`BTree::apply`]'s edit makes of one key's record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// Store this payload under the key: over the record there, or as a
    /// new record when there is none.
    Put(Vec<u8>),
    /// Remove the key's record (nothing, when there is none).
    Delete,
    /// Leave the key as it is.
    Keep,
}

/// The groups a leaf's records split into, as runs of `records`: 50/50 by
/// bytes, but never more than a page on either side. Records run up to a
/// full page ([`MAX_PAYLOAD`]), so the balanced boundary can overflow one
/// side — and when a page-wide record sits between page-wide neighbours,
/// *no* two-way boundary exists and the records split three ways.
fn split_groups<'r, 'a>(records: &'r [&'a [u8]]) -> Vec<&'r [&'a [u8]]> {
    let sizes: Vec<usize> = records.iter().map(|r| r.len() + SLOT_LEN).collect();
    let total: usize = sizes.iter().sum();
    let mut left_bytes = 0usize;
    let mut split_at = records.len();
    for (i, s) in sizes.iter().enumerate() {
        if left_bytes + s > total / 2 && i > 0 {
            split_at = i;
            break;
        }
        left_bytes += s;
    }
    let prefix = |i: usize| sizes[..i].iter().sum::<usize>();
    let both_fit = |i: usize| prefix(i) <= USABLE && total - prefix(i) <= USABLE;
    if !both_fit(split_at) {
        // The balanced boundary overflows one side; take the valid
        // boundary closest to it — `0` is the no-boundary sentinel.
        split_at = (1..records.len())
            .filter(|&i| both_fit(i))
            .min_by_key(|&i| prefix(i).abs_diff(total / 2))
            .unwrap_or(0);
    }
    if split_at > 0 {
        let (head, tail) = records.split_at(split_at);
        return vec![head, tail];
    }
    // No two-way boundary fits both sides; pack greedily. The page held
    // at most one page's worth and gained one record, so this yields
    // exactly three groups.
    let mut groups = Vec::new();
    let (mut start, mut cur_bytes) = (0, 0);
    for (i, s) in sizes.iter().enumerate() {
        if cur_bytes + s > USABLE && i > start {
            groups.push(&records[start..i]);
            (start, cur_bytes) = (i, 0);
        }
        cur_bytes += s;
    }
    groups.push(&records[start..]);
    groups
}

/// Validates the bulk-load key contract (strictly increasing) — shared by
/// [`BTree::bulk_build`] and `Table::bulk_load`, which must check *before*
/// its LOB spill pre-pass mutates the store.
pub(crate) fn validate_bulk_key_order(keys: impl Iterator<Item = i64>) -> Result<()> {
    let mut prev: Option<i64> = None;
    for key in keys {
        if let Some(p) = prev {
            if key <= p {
                return Err(StorageError::BulkLoad(format!(
                    "keys must be strictly increasing (key {key} follows {p})"
                )));
            }
        }
        prev = Some(key);
    }
    Ok(())
}

impl BTree {
    /// Creates an empty tree (a single empty leaf).
    pub fn create(store: &mut PageStore) -> Result<BTree> {
        let root = store.allocate();
        let mut page = store.blank_page();
        SlottedPage::init(&mut page, page_type::BTREE_LEAF);
        store.install(root, page, &[])?;
        Ok(BTree {
            root,
            first_leaf: root,
            len: 0,
            depth: 1,
        })
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the tree has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The root page (for diagnostics).
    pub fn root_page(&self) -> PageId {
        self.root
    }

    /// The tree's persistent identity, as serialized into commit-record
    /// catalogs: `(root, first_leaf, len, depth)`.
    pub fn parts(&self) -> (PageId, PageId, u64, u32) {
        (self.root, self.first_leaf, self.len, self.depth)
    }

    /// Rebuilds the in-memory descriptor from catalog parts — the inverse
    /// of [`parts`](Self::parts), used by crash recovery. The pages the
    /// parts point at must already exist in the store (they do after
    /// replay: the catalog rode in the same commit record as the last
    /// logged page state).
    pub fn from_parts(root: PageId, first_leaf: PageId, len: u64, depth: u32) -> BTree {
        BTree {
            root,
            first_leaf,
            len,
            depth,
        }
    }

    /// The one descent: from the root down exactly `depth` levels to the
    /// leaf that holds `key`'s position, reading each page once. The
    /// separator after the slot it leaves a level through bounds the
    /// leaf's keys; the deepest one found is the tightest.
    fn find<'s>(&self, store: &'s mut PageStore, key: i64) -> Result<Found<'s>> {
        let (mut path, mut end) = (Vec::new(), None);
        let mut page = self.root;
        for _ in 1..self.depth {
            let v = tree_node(store.read(page)?, page_type::BTREE_INTERNAL, page)?;
            let (child, pos) = descend(&v, key)?;
            let after = match pos {
                InternalPos::Leftmost => 0,
                InternalPos::Slot(i) => i + 1,
            };
            if after < v.slot_count() {
                end = Some(internal_entry(v.record(after)?)?.0);
            }
            path.push((page, pos));
            page = child;
        }
        let view = tree_node(store.read(page)?, page_type::BTREE_LEAF, page)?;
        let slot = leaf_lower_bound(&view, 0, key)?;
        let hit = slot < view.slot_count() && leaf_key(view.record(slot)?)? == key;
        let leaf = page;
        Ok(Found {
            path,
            leaf,
            view,
            slot,
            hit,
            end,
        })
    }

    /// Point lookup; returns the payload when the key exists.
    pub fn get(&self, store: &mut PageStore, key: i64) -> Result<Option<Vec<u8>>> {
        let f = self.find(store, key)?;
        let rec = f.hit.then(|| f.view.record(f.slot)).transpose()?;
        Ok(rec.map(|rec| rec[8..].to_vec()))
    }

    /// The one write routine. Applies `edit`'s verdict to each of `keys`
    /// — strictly ascending, or refused with
    /// [`StorageError::KeysNotAscending`] before anything is written — and
    /// returns how many records it put or deleted. `edit(store, i, old)`
    /// sees op `i`'s current payload (`None` when the key is absent) and
    /// the store, so it can spill or free a row's LOB chains at its turn.
    ///
    /// The keys one leaf answers for — those below the separator its
    /// descent passed — form a group: one descent, for the group's first
    /// key, takes the store's private copy of the leaf; each edit is placed
    /// on it by the placement rule; the group ends by installing it. A
    /// split or an append ends its group early (see the module doc), so
    /// every page equals the one a call per op leaves. On an error at op
    /// `i`, the group's copy — the ops before `i` — is installed, and the
    /// error returned. `edit` may fail with an error of its own type,
    /// which every storage error converts into.
    pub fn apply<E: From<StorageError>>(
        &mut self,
        store: &mut PageStore,
        keys: &[i64],
        mut edit: impl FnMut(&mut PageStore, usize, Option<&[u8]>) -> std::result::Result<Edit, E>,
    ) -> std::result::Result<u64, E> {
        if let Some(w) = keys.windows(2).find(|w| w[1] <= w[0]) {
            return Err(StorageError::KeysNotAscending {
                key: w[1],
                after: w[0],
            }
            .into());
        }
        let (mut changed, mut next) = (0, 0);
        while next < keys.len() {
            let f = self.find(store, keys[next])?;
            let (path, end, leaf, from) = (f.path, f.end, f.leaf, f.slot);
            let origin = (0..f.view.slot_count()).map(Some).collect();
            let mut leaf = LeafEdit {
                page: store.copy_page(leaf)?,
                leaf,
                origin,
                from,
            };
            // The group: the keys below the separator that bounds the leaf.
            let bounded = keys[next..]
                .iter()
                .take_while(|&&k| end.map_or(true, |end| k < end));
            let group = next + bounded.count();
            let (mut dirty, mut ended) = (false, Ok(Vec::new()));
            // A split or an append ends the group early.
            while next < group && ended.as_ref().is_ok_and(Vec::is_empty) {
                let step = self.step(store, &mut leaf, (next, keys[next]), &mut edit);
                next += 1;
                ended = step.map(|placed| {
                    dirty |= placed.is_some();
                    changed += u64::from(placed.is_some());
                    placed.unwrap_or_default()
                });
            }
            if dirty {
                // The store's leaf is still the image the descent read:
                // the group wrote only other pages.
                let (id, kind) = (leaf.leaf, page_type::BTREE_LEAF);
                let claims = claims_of(store, (kind, id), (id, &leaf.page), &leaf.origin);
                store.install(id, leaf.page, &claims)?;
            }
            self.push_up(store, &path, ended?)?;
        }
        Ok(changed)
    }

    /// Op `i` of a group: finds `key`'s slot on the group's copy of the
    /// leaf (searching from the slot of the key before it), hands its
    /// payload to `edit`, and places the verdict by the placement rule.
    /// `None` when the copy is as it was; otherwise the separators a split
    /// or an append hands up, which end the group (none when the group
    /// goes on).
    fn step<E: From<StorageError>>(
        &mut self,
        store: &mut PageStore,
        leaf: &mut LeafEdit,
        (i, key): (usize, i64),
        edit: &mut impl FnMut(&mut PageStore, usize, Option<&[u8]>) -> std::result::Result<Edit, E>,
    ) -> std::result::Result<Option<SplitInfo>, E> {
        let (id, kind) = (leaf.leaf, page_type::BTREE_LEAF);
        let v = SlottedRead::open(&leaf.page, kind, id)?;
        let slot = leaf_lower_bound(&v, leaf.from, key)?;
        leaf.from = slot;
        let mut old = None;
        if slot < v.slot_count() {
            let rec = v.record(slot)?;
            old = (leaf_key(rec)? == key).then_some(&rec[8..]);
        }
        let hit = old.is_some();
        let payload = match edit(store, i, old)? {
            Edit::Put(payload) => payload,
            Edit::Delete if hit => {
                SlottedPage::open(&mut leaf.page, kind, id)?.remove_slot(slot)?;
                leaf.origin.remove(slot);
                self.len -= 1;
                return Ok(Some(Vec::new()));
            }
            Edit::Delete | Edit::Keep => return Ok(None),
        };
        check_payload(&payload)?;
        let rec = [&key.to_le_bytes()[..], &payload].concat();
        let v = SlottedRead::open(&leaf.page, kind, id)?;
        let placement = Placement::choose(&v, slot, rec.len(), hit)?;
        let splits = match placement {
            Placement::Tail => {
                let mut p = SlottedPage::open(&mut leaf.page, kind, id)?;
                if hit {
                    p.replace_record(slot, &rec)?;
                } else {
                    p.insert_record(slot, &rec)?;
                    leaf.origin.insert(slot, None);
                }
                Vec::new()
            }
            Placement::Append => {
                let right = store.allocate();
                let mut page = store.blank_page();
                SlottedPage::init(&mut page, kind).push_record(&rec)?;
                store.install(right, page, &[])?;
                let mut p = SlottedPage::open(&mut leaf.page, kind, id)?;
                if hit {
                    p.remove_slot(slot)?;
                    leaf.origin.remove(slot);
                }
                p.set_next_page(Some(right));
                vec![(key, right)]
            }
            Placement::Compact | Placement::Split => {
                let split = matches!(placement, Placement::Split);
                Self::rebuild_leaf(store, leaf, (slot, &rec, hit), split)?
            }
        };
        self.len += u64::from(!hit);
        Ok(Some(splits))
    }

    /// Hands a leaf's separators up the descent's `path`, growing the tree
    /// by one level when the root splits.
    fn push_up(
        &mut self,
        store: &mut PageStore,
        path: &[(PageId, InternalPos)],
        mut splits: SplitInfo,
    ) -> Result<()> {
        for &(page, pos) in path.iter().rev() {
            if splits.is_empty() {
                return Ok(());
            }
            splits = Self::insert_internal(store, page, pos, &splits)?;
        }
        if !splits.is_empty() {
            // Root split: grow the tree by one level. A leaf root can
            // split into up to three pages (two separators); the new
            // internal root trivially holds them.
            let new_root = store.allocate();
            let mut page = store.blank_page();
            let mut p = SlottedPage::init(&mut page, page_type::BTREE_INTERNAL);
            p.set_next_page(Some(self.root)); // leftmost child
            push_entries(&mut p, &splits)?;
            store.install(new_root, page, &[])?;
            self.root = new_root;
            self.depth += 1;
        }
        Ok(())
    }

    /// Rebuilds the group's leaf with `rec` at `slot`, over the record
    /// there when `replace`. A compaction puts all the records back onto
    /// the leaf's copy; a `split` puts its first group there and each
    /// further group onto a fresh page chained after it, the last linking
    /// on to where the leaf linked. The copy is rebuilt in place, so the
    /// records are copied aside first, once.
    ///
    /// Each fresh page is built in a blank buffer, and its install claims
    /// the records it holds of the store's leaf ([`claims_of`]), read off
    /// the group's `origin`. The store's leaf still holds its image from
    /// before the group (it is installed after the fresh pages), so a
    /// record no earlier edit of the group changed is there, and is logged
    /// as a reference to it.
    fn rebuild_leaf(
        store: &mut PageStore,
        leaf: &mut LeafEdit,
        (slot, rec, replace): (usize, &[u8], bool),
        split: bool,
    ) -> Result<SplitInfo> {
        let (id, kind) = (leaf.leaf, page_type::BTREE_LEAF);
        let v = SlottedRead::open(&leaf.page, kind, id)?;
        let next = v.next_page();
        let mut records = Vec::with_capacity(v.slot_count() + 1);
        for r in v.record_ranges(0..v.slot_count())? {
            records.push(&leaf.page[r?]);
        }
        if replace {
            records[slot] = rec;
        } else {
            records.insert(slot, rec);
            leaf.origin.insert(slot, None);
        }
        let (kept, mut end) = (records.concat(), 0);
        let records: Vec<&[u8]> = records
            .iter()
            .map(|r| {
                end += r.len();
                &kept[end - r.len()..end]
            })
            .collect();
        let groups = match split {
            true => split_groups(&records),
            false => vec![&records[..]],
        };
        let [first, rest @ ..] = &groups[..] else {
            return Ok(Vec::new());
        };
        let pages: Vec<PageId> = rest.iter().map(|_| store.allocate()).collect();
        let splits: SplitInfo = rest
            .iter()
            .zip(&pages)
            .map(|(g, &pid)| Ok((leaf_key(g[0])?, pid)))
            .collect::<Result<_>>()?;
        let mut at = first.len();
        for (gi, (g, &pid)) in rest.iter().zip(&pages).enumerate() {
            let mut page = store.blank_page();
            let mut p = SlottedPage::init(&mut page, kind);
            push_all(&mut p, g)?;
            p.set_next_page(pages.get(gi + 1).copied().or(next));
            let origin = &leaf.origin[at..at + g.len()];
            let claims = claims_of(store, (kind, id), (pid, &page), origin);
            store.install(pid, page, &claims)?;
            at += g.len();
        }
        let mut p = SlottedPage::open(&mut leaf.page, kind, id)?;
        p.reset();
        push_all(&mut p, first)?;
        p.set_next_page(pages.first().copied().or(next));
        leaf.origin.truncate(first.len());
        Ok(splits)
    }

    /// Adds `seps` to internal node `page` right after the slot the
    /// descent left it through, splitting the node when they do not fit.
    ///
    /// The node's new image is built on the store's private copy of it,
    /// and its install claims what stayed on the page at another place
    /// ([`claims_of`]): the directory entries the separators shift, which
    /// start at `insert_pos`, and the entries a split's left half
    /// re-packs. A split installs the fresh right node first, claiming its
    /// entries from the node it leaves while the node still holds them.
    fn insert_internal(
        store: &mut PageStore,
        page: PageId,
        child_slot: InternalPos,
        seps: &[(i64, PageId)],
    ) -> Result<SplitInfo> {
        let kind = page_type::BTREE_INTERNAL;
        // The new separators go immediately after the slot we descended
        // through, in the (ascending) order the child produced them.
        let insert_pos = match child_slot {
            InternalPos::Leftmost => 0,
            InternalPos::Slot(i) => i + 1,
        };
        store.read(page)?;
        let mut node = store.copy_page(page)?;
        let v = SlottedRead::open(&node, kind, page)?;
        // Where each entry of the node, separators in, came from.
        let (n, k) = (v.slot_count(), seps.len());
        let origin: Vec<Option<usize>> = (0..n + k)
            .map(|e| match e.checked_sub(insert_pos) {
                None => Some(e),
                Some(past) if past < k => None,
                Some(_) => Some(e - k),
            })
            .collect();
        let (mut splits, mut left) = (Vec::new(), &origin[..]);
        if k * (16 + SLOT_LEN) <= v.free_tail() {
            let mut p = SlottedPage::open(&mut node, kind, page)?;
            seps.iter().enumerate().try_for_each(|(i, &(sep, child))| {
                p.insert_record(insert_pos + i, &encode_internal(sep, child))
            })?;
        } else {
            // Split the internal node: middle key moves up. Entries are 16
            // bytes each, so (unlike leaves) a two-way split always fits.
            let mut entries: Vec<(i64, PageId)> = (0..n)
                .map(|i| internal_entry(v.record(i)?))
                .collect::<Result<_>>()?;
            let leftmost = leftmost_child(&v)?;
            for (i, &e) in seps.iter().enumerate() {
                entries.insert(insert_pos + i, e);
            }
            let mid = entries.len() / 2;
            let (up_key, up_child) = entries[mid];
            let right = store.allocate();
            let mut image = store.blank_page();
            let mut p = SlottedPage::init(&mut image, kind);
            p.set_next_page(Some(up_child)); // leftmost child of the right node
            push_entries(&mut p, &entries[mid + 1..])?;
            let claims = claims_of(store, (kind, page), (right, &image), &origin[mid + 1..]);
            store.install(right, image, &claims)?;
            let mut p = SlottedPage::open(&mut node, kind, page)?;
            p.reset();
            p.set_next_page(Some(leftmost));
            push_entries(&mut p, &entries[..mid])?;
            left = &origin[..mid];
            splits.push((up_key, right));
        }
        let claims = claims_of(store, (kind, page), (page, &node), left);
        store.install(page, node, &claims)?;
        Ok(splits)
    }

    /// Builds a clustered tree bottom-up from pre-encoded leaf records
    /// with strictly increasing keys — the bulk-load fast path.
    ///
    /// Page breaks are computed with the same greedy fill rule the
    /// append-optimized insert path converges to, so a bulk-built tree
    /// packs its leaves like a monotone `IDENTITY` load. Leaf page
    /// *images* are then built on up to `dop` worker threads (contiguous
    /// leaf ranges, pure CPU — no store access), appended to the store in
    /// page order, and the internal levels are assembled on top. Because
    /// the images and the append order are fully determined by the
    /// entries, the resulting file layout, page bytes, pool state and
    /// [`crate::IoStats`] are **identical at every `dop`**.
    ///
    /// `recycle_first_leaf` lets the caller donate an existing page to
    /// serve as the first leaf instead of allocating a fresh one —
    /// `Table::bulk_load` passes the empty table's root leaf so no page is
    /// orphaned; leaves 1.. are still appended contiguously at the end of
    /// the file.
    pub fn bulk_build(
        store: &mut PageStore,
        entries: &[(i64, Vec<u8>)],
        dop: usize,
        recycle_first_leaf: Option<PageId>,
    ) -> Result<BTree> {
        validate_bulk_key_order(entries.iter().map(|(k, _)| *k))?;
        BTree::bulk_build_prevalidated(store, entries, dop, recycle_first_leaf)
    }

    /// [`bulk_build`](Self::bulk_build) minus the key-order pass, for
    /// callers that already validated (`Table::bulk_load` checks keys
    /// *before* its LOB spill pre-pass mutates the store; re-checking here
    /// would make every ingest scan the key column twice).
    pub(crate) fn bulk_build_prevalidated(
        store: &mut PageStore,
        entries: &[(i64, Vec<u8>)],
        dop: usize,
        recycle_first_leaf: Option<PageId>,
    ) -> Result<BTree> {
        if entries.is_empty() {
            return BTree::create(store);
        }
        // lint:allow(L001, reason = "O(n) re-check of the key-order contract the public bulk_build entry point already validated and rejected with a typed error")
        debug_assert!(validate_bulk_key_order(entries.iter().map(|(k, _)| *k)).is_ok());
        // Greedy page breaks: a record of `len` payload bytes costs
        // 8 (key) + len record bytes + 4 slot bytes out of the
        // PAGE_SIZE − PAGE_HEADER_LEN byte budget — exactly the
        // `SlottedPage::free_space` admission rule.
        let budget = USABLE;
        let mut leaf_ranges: Vec<std::ops::Range<usize>> = Vec::new();
        let mut start = 0usize;
        let mut used = 0usize;
        for (i, (_, payload)) in entries.iter().enumerate() {
            check_payload(payload)?;
            let cost = 8 + payload.len() + SLOT_LEN;
            if used + cost > budget {
                leaf_ranges.push(start..i);
                start = i;
                used = 0;
            }
            used += cost;
        }
        leaf_ranges.push(start..entries.len());

        // Build the leaf page images in parallel and append them in page
        // order. Building proceeds in bounded *batches* of leaves so the
        // transient image memory is O(batch), not O(table); within a
        // batch, each worker owns a contiguous run of leaves and writes
        // every image into its own buffer. Batching changes neither the
        // image bytes nor the append order, so the layout stays identical
        // at every `dop` (and to an unbatched build).
        let n_leaves = leaf_ranges.len();
        let base = store.page_count();
        // Page id of leaf `i`: the recycled page (if any) is leaf 0, the
        // rest append contiguously at the end of the file.
        let leaf_page = move |i: usize| -> PageId {
            match recycle_first_leaf {
                Some(r) if i == 0 => r,
                Some(_) => base + i as PageId - 1,
                None => base + i as PageId,
            }
        };
        let first_leaf = leaf_page(0);
        let build_leaf = |leaf_idx: usize| -> PageBuf {
            let mut bytes = PageBuf::zeroed();
            let mut p = SlottedPage::init(&mut bytes, page_type::BTREE_LEAF);
            for (key, payload) in &entries[leaf_ranges[leaf_idx].clone()] {
                push_sized(&mut p, &[&key.to_le_bytes()[..], payload].concat());
            }
            if leaf_idx + 1 < n_leaves {
                p.set_next_page(Some(leaf_page(leaf_idx + 1)));
            }
            bytes
        };
        for batch_start in (0..n_leaves).step_by(BULK_BUILD_BATCH_LEAVES) {
            let batch_len = BULK_BUILD_BATCH_LEAVES.min(n_leaves - batch_start);
            let images: Vec<PageBuf> =
                sqlarray_core::parallel::scoped_map_ranges(batch_len, dop.max(1), |r| {
                    (batch_start + r.start..batch_start + r.end)
                        .map(&build_leaf)
                        .collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect();
            // Append (counts one write per page, all pool-resident like
            // any freshly produced page).
            for (offset, image) in images.into_iter().enumerate() {
                // lint:allow(L003, reason = "offset is an enumerate index over one in-memory leaf batch, bounded far below usize::MAX by the batch allocation itself")
                let leaf_idx = batch_start + offset;
                let id = match recycle_first_leaf {
                    Some(r) if leaf_idx == 0 => r,
                    _ => store.allocate(),
                };
                assert_eq!(id, leaf_page(leaf_idx));
                store.install(id, image, &[])?;
            }
        }

        // Assemble the internal levels bottom-up. Each internal record
        // costs 16 + 4 slot bytes; the leftmost child rides in the link.
        let children_per_internal = 1 + budget / (16 + SLOT_LEN);
        let mut level: Vec<(i64, PageId)> = leaf_ranges
            .iter()
            .enumerate()
            .map(|(i, r)| (entries[r.start].0, leaf_page(i)))
            .collect();
        let mut depth = 1u32;
        while level.len() > 1 {
            let mut next_level = Vec::with_capacity(level.len() / children_per_internal + 1);
            for run in level.chunks(children_per_internal) {
                let id = store.allocate();
                let mut page = store.blank_page();
                let mut p = SlottedPage::init(&mut page, page_type::BTREE_INTERNAL);
                p.set_next_page(Some(run[0].1)); // leftmost child
                for &(key, child) in &run[1..] {
                    push_sized(&mut p, &encode_internal(key, child));
                }
                store.install(id, page, &[])?;
                next_level.push((run[0].0, id));
            }
            level = next_level;
            depth += 1;
        }
        Ok(BTree {
            root: level[0].1,
            first_leaf,
            len: entries.len() as u64,
            depth,
        })
    }

    /// The leaf pages that can hold a key of `keys`, in key (chain) order,
    /// collected by walking the internal levels only — the scan
    /// partitioner needs the leaf list without paying a leaf-level read,
    /// exactly as a real engine derives parallel range boundaries from the
    /// index upper levels. The walk descends only the children whose
    /// separator span intersects `keys`: the full range reads every
    /// internal page (a few hundredths of the leaf count at normal
    /// fan-outs), a single key one page per internal level, an empty
    /// range nothing.
    ///
    /// Generic over [`PageRead`](crate::store::PageRead) so the walk can
    /// run either through the serial `&mut PageStore` path or through a
    /// scan worker's [`PartitionReader`](crate::store::PartitionReader) —
    /// the latter is how `Table::partition_keys` enumerates leaves over a
    /// *shared* store reference when many sessions scan concurrently.
    pub fn leaf_page_ids<R: crate::store::PageRead>(
        &self,
        store: &mut R,
        keys: &RangeInclusive<i64>,
    ) -> Result<Vec<PageId>> {
        // Knowing the depth up front lets the walk stop one level above
        // the leaves: a depth-`d` tree's level-`d−1` entries *are* leaf
        // ids, so no leaf page is ever faulted in.
        let mut out = Vec::new();
        if !keys.is_empty() {
            self.collect_leaves(store, self.root, self.depth, keys, &mut out)?;
        }
        Ok(out)
    }

    fn collect_leaves<R: crate::store::PageRead>(
        &self,
        store: &mut R,
        page: PageId,
        levels_to_leaf: u32,
        keys: &RangeInclusive<i64>,
        out: &mut Vec<PageId>,
    ) -> Result<()> {
        if levels_to_leaf == 1 {
            out.push(page);
            return Ok(());
        }
        // A child holds the keys from its own separator up to the next
        // one, so the children to visit run from the one covering the low
        // bound to the last whose separator is not past the high bound.
        let children = {
            let bytes = store.read_page(page)?;
            let v = SlottedRead::open(bytes, page_type::BTREE_INTERNAL, page)?;
            let (first, pos) = descend(&v, *keys.start())?;
            let mut cs = vec![first];
            let next = match pos {
                InternalPos::Leftmost => 0,
                InternalPos::Slot(i) => i.saturating_add(1),
            };
            for i in next..v.slot_count() {
                let (separator, child) = internal_entry(v.record(i)?)?;
                if separator > *keys.end() {
                    break;
                }
                cs.push(child);
            }
            cs
        };
        for child in children {
            self.collect_leaves(store, child, levels_to_leaf - 1, keys, out)?;
        }
        Ok(())
    }

    /// Number of leaf pages (for storage accounting): the leaf chain's
    /// length. A chain longer than the file has pages — a link that loops
    /// back — is a typed error.
    pub fn leaf_pages(&self, store: &mut PageStore) -> Result<u64> {
        let limit = store.page_count();
        let mut n = 0;
        let mut page = Some(self.first_leaf);
        while let Some(pid) = page {
            if n == limit {
                return Err(StorageError::RowCorrupt(format!(
                    "the leaf chain from page {} runs past the file's {limit} pages",
                    self.first_leaf
                )));
            }
            n += 1;
            page = tree_node(store.read(pid)?, page_type::BTREE_LEAF, pid)?.next_page();
        }
        Ok(n)
    }

    /// Tree depth (1 = root is a leaf), checked by one descent to the
    /// leftmost leaf: a page of the wrong kind on the way is a typed error.
    pub fn depth(&self, store: &mut PageStore) -> Result<u32> {
        self.find(store, i64::MIN)?;
        Ok(self.depth)
    }
}

/// Which internal slot the descent went through.
#[derive(Debug, Clone, Copy, PartialEq)]
enum InternalPos {
    /// Went through the leftmost-child link.
    Leftmost,
    /// Went through separator slot `i`.
    Slot(usize),
}

/// Binary search an internal node for the child covering `key`.
fn descend(v: &SlottedRead<'_>, key: i64) -> Result<(PageId, InternalPos)> {
    let count = v.slot_count();
    // Find the last separator <= key.
    let mut lo = 0usize;
    let mut hi = count; // exclusive
    while lo < hi {
        let mid = (lo + hi) / 2;
        let (k, _) = internal_entry(v.record(mid)?)?;
        if k <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo == 0 {
        Ok((leftmost_child(v)?, InternalPos::Leftmost))
    } else {
        let (_, child) = internal_entry(v.record(lo - 1)?)?;
        Ok((child, InternalPos::Slot(lo - 1)))
    }
}

/// Binary search a leaf, from slot `from` on, for the first slot with key
/// >= `key`.
fn leaf_lower_bound(v: &SlottedRead<'_>, from: usize, key: i64) -> Result<usize> {
    let mut lo = from;
    let mut hi = v.slot_count();
    while lo < hi {
        let mid = (lo + hi) / 2;
        if leaf_key(v.record(mid)?)? < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// The slots of leaf `v` whose keys lie in `keys`: a bound that is set
/// is binary-searched, an open one costs nothing — so every leaf of a full
/// scan keeps all its slots without a key being looked at.
pub(crate) fn leaf_slots_within(
    v: &SlottedRead<'_>,
    keys: &RangeInclusive<i64>,
) -> Result<Range<usize>> {
    let from = match *keys.start() {
        i64::MIN => 0,
        lo => leaf_lower_bound(v, 0, lo)?,
    };
    let to = match *keys.end() {
        i64::MAX => v.slot_count(),
        hi => leaf_lower_bound(v, 0, hi.saturating_add(1))?,
    };
    Ok(from..to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Single-key calls of [`BTree::apply`], with the verdicts a clustered
    /// index gives one op: an insert of a held key and an update or delete
    /// of an absent one are errors.
    trait OneOp {
        fn insert(&mut self, store: &mut PageStore, key: i64, payload: &[u8]) -> Result<()>;
        fn update(&mut self, store: &mut PageStore, key: i64, payload: &[u8]) -> Result<()>;
        fn delete(&mut self, store: &mut PageStore, key: i64) -> Result<Vec<u8>>;
    }

    impl OneOp for BTree {
        fn insert(&mut self, store: &mut PageStore, key: i64, payload: &[u8]) -> Result<()> {
            self.apply(store, &[key], |_, _, old| match old {
                Some(_) => Err(StorageError::DuplicateKey { key }),
                None => Ok(Edit::Put(payload.to_vec())),
            })
            .map(drop)
        }

        fn update(&mut self, store: &mut PageStore, key: i64, payload: &[u8]) -> Result<()> {
            self.apply(store, &[key], |_, _, old| match old {
                Some(_) => Ok(Edit::Put(payload.to_vec())),
                None => Err(StorageError::KeyNotFound { key }),
            })
            .map(drop)
        }

        fn delete(&mut self, store: &mut PageStore, key: i64) -> Result<Vec<u8>> {
            let mut gone = None;
            self.apply(store, &[key], |_, _, old| {
                gone = old.map(<[u8]>::to_vec);
                Ok(Edit::Delete)
            })?;
            gone.ok_or(StorageError::KeyNotFound { key })
        }
    }

    fn tree_with(n: i64, payload_len: usize) -> (PageStore, BTree) {
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        let payload = vec![0xCD; payload_len];
        for k in 0..n {
            t.insert(&mut store, k, &payload).unwrap();
        }
        (store, t)
    }

    #[test]
    fn insert_and_get() {
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        t.insert(&mut store, 5, b"five").unwrap();
        t.insert(&mut store, 3, b"three").unwrap();
        t.insert(&mut store, 9, b"nine").unwrap();
        assert_eq!(t.get(&mut store, 3).unwrap().unwrap(), b"three");
        assert_eq!(t.get(&mut store, 5).unwrap().unwrap(), b"five");
        assert_eq!(t.get(&mut store, 9).unwrap().unwrap(), b"nine");
        assert_eq!(t.get(&mut store, 4).unwrap(), None);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn duplicate_key_rejected() {
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        t.insert(&mut store, 1, b"a").unwrap();
        assert!(matches!(
            t.insert(&mut store, 1, b"b"),
            Err(StorageError::DuplicateKey { key: 1 })
        ));
    }

    #[test]
    fn sequential_load_scans_in_order() {
        let (mut store, t) = tree_with(10_000, 40);
        let want: Vec<(i64, Vec<u8>)> = (0..10_000).map(|k| (k, vec![0xCD; 40])).collect();
        assert_eq!(entries(&store, &t), want);
        assert!(t.depth(&mut store).unwrap() >= 2);
    }

    #[test]
    fn random_order_load_scans_sorted() {
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        // Deterministic shuffle of 0..4000 via multiplication by a unit
        // mod 2^k.
        let mut want: Vec<(i64, Vec<u8>)> = (0..4000i64)
            .map(|i| (i * 2654435761 % 4096) * 100000 + i)
            .map(|k| (k, k.to_le_bytes().to_vec()))
            .collect();
        for (k, payload) in &want {
            t.insert(&mut store, *k, payload).unwrap();
        }
        want.sort_unstable();
        assert_eq!(entries(&store, &t), want);
    }

    #[test]
    fn point_lookups_after_splits() {
        let (mut store, t) = tree_with(5000, 100);
        for k in [0i64, 1, 499, 2500, 4998, 4999] {
            assert!(t.get(&mut store, k).unwrap().is_some(), "key {k}");
        }
        assert_eq!(t.get(&mut store, 5000).unwrap(), None);
        assert_eq!(t.get(&mut store, -1).unwrap(), None);
    }

    #[test]
    fn append_optimization_fills_pages() {
        // With 40-byte payloads (48-byte records + 4-byte slots), a page
        // fits ~157 records. Sequential load should approach that, far
        // above the ~78 a 50/50 split regime would leave.
        let (mut store, t) = tree_with(10_000, 40);
        let leaves = t.leaf_pages(&mut store).unwrap();
        let per_page = 10_000.0 / leaves as f64;
        assert!(
            per_page > 140.0,
            "append-optimized load left only {per_page:.0} rows/page"
        );
    }

    #[test]
    fn scan_early_stop() {
        let (store, t) = tree_with(1000, 16);
        let table = as_table(&t);
        let part = table.partition_keys(&store, 1, ALL).unwrap().remove(0);
        let scan = store.begin_scan();
        let mut n = 0;
        table
            .scan_partition(&mut store.reader(&scan, 0), &part, |_, _, _| {
                n += 1;
                Ok(n < 10)
            })
            .unwrap();
        assert_eq!(n, 10);
    }

    /// Every key: the interval of a full scan.
    const ALL: RangeInclusive<i64> = i64::MIN..=i64::MAX;

    /// A bare tree as a (schema-less) table, whose rows are its payloads.
    fn as_table(t: &BTree) -> crate::Table {
        crate::Table::from_parts("t".into(), crate::Schema::new(&[]), t.parts())
    }

    /// The keys the one range scan (`Table::partition_keys` +
    /// `scan_partition`) visits over a bare tree, at `dop` partitions.
    fn keys_in(store: &PageStore, t: &BTree, dop: usize, keys: RangeInclusive<i64>) -> Vec<i64> {
        let entries = try_entries_in(store, t, dop, keys).unwrap();
        entries.into_iter().map(|(k, _)| k).collect()
    }

    /// Every `(key, payload)` of `t`, in key order.
    fn entries(store: &PageStore, t: &BTree) -> Vec<(i64, Vec<u8>)> {
        try_entries_in(store, t, 1, ALL).unwrap()
    }

    /// The `(key, payload)` entries behind [`keys_in`], with the scan's
    /// error handed back.
    fn try_entries_in(
        store: &PageStore,
        t: &BTree,
        dop: usize,
        keys: RangeInclusive<i64>,
    ) -> Result<Vec<(i64, Vec<u8>)>> {
        let table = as_table(t);
        let parts = table.partition_keys(store, dop, keys)?;
        let scan = store.begin_scan();
        let mut seen = Vec::new();
        let mut ios = Vec::new();
        for (pi, p) in parts.iter().enumerate() {
            let mut r = store.reader(&scan, pi as u32);
            table.scan_partition(&mut r, p, |_, k, payload| {
                seen.push((k, payload.to_vec()));
                Ok(true)
            })?;
            ios.push(r.finish());
        }
        drop(scan);
        store.finish_scan(ios.iter());
        Ok(seen)
    }

    /// Cuts every record of `page` down to `len` bytes by rewriting the
    /// lengths in its slot directory through [`PageStore::write`] — so the
    /// page's checksum stays valid, a cold read passes, and only the record
    /// decoder can notice.
    fn shorten_records(store: &mut PageStore, page: PageId, len: u16) {
        let count = usize::from(sqlarray_core::le::u16_at(store.read(page).unwrap(), 2));
        assert!(count > 0);
        store
            .write(page, |b| {
                for i in 0..count {
                    sqlarray_core::le::put_u16(b, PAGE_SIZE - (i + 1) * SLOT_LEN + 2, len);
                }
            })
            .unwrap();
        store.clear_cache();
    }

    /// A leaf record shorter than its key, or an internal one shorter than
    /// its key and child, is a typed `RowCorrupt` on every path that
    /// decodes it — lookup, insert, update, delete and a key-range scan —
    /// and never a panic.
    #[test]
    fn short_records_are_typed_errors_on_every_descent() {
        for internal in [false, true] {
            let (mut store, mut t) = tree_with(2000, 40);
            assert_eq!(t.depth, 2);
            let (page, len) = if internal {
                (t.root, 15)
            } else {
                (t.leaf_page_ids(&mut store, &(1000..=1000)).unwrap()[0], 7)
            };
            shorten_records(&mut store, page, len);
            for (what, got) in [
                ("get", t.get(&mut store, 1000).map(drop)),
                ("insert", t.insert(&mut store, 1000, b"x")),
                ("update", t.update(&mut store, 1000, b"x")),
                ("delete", t.delete(&mut store, 1000).map(drop)),
                (
                    "range scan",
                    try_entries_in(&store, &t, 2, 990..=1010).map(drop),
                ),
            ] {
                assert!(
                    matches!(got, Err(StorageError::RowCorrupt(_))),
                    "{what}, internal {internal}: {got:?}"
                );
            }
        }
    }

    /// A three-level tree: two 3 000-byte records per leaf, ~400 children
    /// per internal page, so 2 000 rows need three level-2 pages.
    fn deep_tree() -> (PageStore, BTree) {
        let mut store = PageStore::new();
        let entries: Vec<(i64, Vec<u8>)> = (0..2000).map(|k| (k, vec![7; 3000])).collect();
        let t = BTree::bulk_build(&mut store, &entries, 1, None).unwrap();
        assert_eq!(t.depth, 3);
        (store, t)
    }

    /// Points the link field of `page` — an internal page's leftmost
    /// child, a leaf's successor — at `to`, through [`PageStore::write`] so
    /// the checksum stays valid.
    fn relink(store: &mut PageStore, page: PageId, to: PageId) {
        store
            .write(page, |b| b[6..14].copy_from_slice(&to.to_le_bytes()))
            .unwrap();
        store.clear_cache();
    }

    /// Four trees whose links lead somewhere they must not: every
    /// operation that follows the damaged link returns a typed
    /// `RowCorrupt` — none walks forever — and the others still answer.
    #[test]
    fn damaged_links_are_typed_errors_not_endless_walks() {
        // The root's leftmost child and its first separator's child: the
        // first two level-2 pages.
        let level2 = |store: &mut PageStore, t: &BTree| {
            let v = SlottedRead::open(store.read(t.root).unwrap(), page_type::BTREE_INTERNAL, 0)
                .unwrap();
            (
                leftmost_child(&v).unwrap(),
                internal_entry(v.record(0).unwrap()).unwrap().1,
            )
        };
        let descents: &[&str] = &["get", "insert", "update", "delete", "apply", "depth"];
        type Damage = Box<dyn Fn(&mut PageStore, &BTree)>;
        let cases: [(&str, Damage, &[&str]); 4] = [
            (
                "a self-looping root",
                Box::new(|s, t| relink(s, t.root, t.root)),
                descents,
            ),
            (
                "a leaf where an internal page is due",
                Box::new(|s, t| relink(s, t.root, t.first_leaf)),
                descents,
            ),
            (
                "an internal page where a leaf is due",
                Box::new(move |s, t| {
                    let (first, second) = level2(s, t);
                    relink(s, first, second)
                }),
                descents,
            ),
            (
                "a self-linked leaf chain",
                Box::new(|s, t| relink(s, t.first_leaf, t.first_leaf)),
                &["leaf_pages"],
            ),
        ];
        for (what, damage, failing) in &cases {
            for op in [
                "get",
                "insert",
                "update",
                "delete",
                "apply",
                "leaf_pages",
                "depth",
            ] {
                // Key 0 and key -1 both descend through every leftmost link.
                let (mut store, mut t) = deep_tree();
                damage(&mut store, &t);
                let store = &mut store;
                let got = match op {
                    "get" => t.get(store, 0).map(drop),
                    "insert" => t.insert(store, -1, b"x"),
                    "update" => t.update(store, 0, b"x"),
                    "delete" => t.delete(store, 0).map(drop),
                    "apply" => t
                        .apply(store, &[0, 1], |_, _, _| Ok(Edit::Delete))
                        .map(drop),
                    "leaf_pages" => t.leaf_pages(store).map(drop),
                    _ => t.depth(store).map(drop),
                };
                if failing.contains(&op) {
                    assert!(
                        matches!(got, Err(StorageError::RowCorrupt(_))),
                        "{what}, {op}: {got:?}"
                    );
                } else {
                    assert!(got.is_ok(), "{what}, {op}: {got:?}");
                }
            }
        }
    }

    /// A one-leaf tree whose page carries what a live leaf does: record
    /// bytes out of key order (`inserts` in the order given), dead space
    /// (`deletes`, and the bytes `grows` outgrow) and grown replacements
    /// appended at the free offset. Returns the model of its records too.
    fn messy_leaf(
        inserts: &[(i64, usize)],
        deletes: &[i64],
        grows: &[(i64, usize)],
    ) -> (PageStore, BTree, BTreeMap<i64, Vec<u8>>) {
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        let mut model = BTreeMap::new();
        let payload = |k: i64, len: usize| -> Vec<u8> {
            (0..len).map(|i| (i as i64 * 31 + k) as u8).collect()
        };
        for &(k, len) in inserts {
            t.insert(&mut store, k, &payload(k, len)).unwrap();
            model.insert(k, payload(k, len));
        }
        for &k in deletes {
            t.delete(&mut store, k).unwrap();
            model.remove(&k);
        }
        for &(k, len) in grows {
            t.update(&mut store, k, &payload(k, len)).unwrap();
            model.insert(k, payload(k, len));
        }
        assert_eq!(t.leaf_pages(&mut store).unwrap(), 1);
        (store, t, model)
    }

    /// Places `key`'s record on `messy_leaf`'s page, then walks the leaf
    /// chain: there must be `leaves` pages, and each must be byte for byte
    /// `SlottedPage::init` plus `push_record` over its share of the model's
    /// records in key order (the old leaf over its own former bytes, a new
    /// one over zeros), linked on as the chain is.
    fn assert_rebuilt_from_the_model(
        (mut store, mut t, mut model): (PageStore, BTree, BTreeMap<i64, Vec<u8>>),
        key: i64,
        len: usize,
        leaves: u64,
    ) {
        let before = store.read(t.first_leaf).unwrap().to_vec();
        let old = SlottedRead::open(&before, page_type::BTREE_LEAF, t.first_leaf).unwrap();
        assert!(
            old.free_tail() < 8 + len + SLOT_LEN,
            "the free tail takes it"
        );
        let live: usize = model.values().map(|p| 8 + p.len()).sum();
        let used = usize::from(sqlarray_core::le::u16_at(&before, 4)) - PAGE_HEADER_LEN;
        assert!(live < used, "the leaf holds no dead space");
        let payload = vec![0x5A; len];
        t.insert(&mut store, key, &payload).unwrap();
        model.insert(key, payload);
        let mut records = model
            .iter()
            .map(|(&k, p)| [&k.to_le_bytes()[..], p].concat());
        let (mut page, mut seen) = (Some(t.first_leaf), 0);
        while let Some(pid) = page {
            let got = store.read(pid).unwrap().to_vec();
            let v = SlottedRead::open(&got, page_type::BTREE_LEAF, pid).unwrap();
            let mut want = if pid == t.first_leaf {
                before.clone()
            } else {
                vec![0; PAGE_SIZE]
            };
            let mut p = SlottedPage::init(&mut want, page_type::BTREE_LEAF);
            for rec in records.by_ref().take(v.slot_count()) {
                p.push_record(&rec).unwrap();
            }
            p.set_next_page(v.next_page());
            assert!(got == want, "leaf {seen} (page {pid}) is not the model's");
            page = v.next_page();
            seen += 1;
        }
        assert_eq!(records.next(), None, "a record is missing from the chain");
        assert_eq!(seen, leaves);
        assert_eq!(t.len(), model.len() as u64);
    }

    /// The leaf a placement rebuilds — compacted in place, split two or
    /// three ways — is written fresh from the records alone: no dead byte,
    /// no outgrown copy and no slot order of the old page survives in it.
    #[test]
    fn a_rebuilt_leaf_is_a_fresh_page_of_its_records() {
        // 40 records of 158 bytes, inserted out of key order; 10 deleted
        // and 5 grown to 258 bytes leave ~2 900 dead bytes and a 446-byte
        // free tail.
        let shuffled: Vec<(i64, usize)> = (0..40).map(|k| (k * 7 % 40, 150)).collect();
        let deletes: Vec<i64> = (0..10).map(|k| 4 * k + 1).collect();
        let grows: Vec<(i64, usize)> = (0..5).map(|k| (8 * k + 2, 250)).collect();
        let messy = || messy_leaf(&shuffled, &deletes, &grows);
        // Compaction: 608 bytes fit only without the dead space.
        assert_rebuilt_from_the_model(messy(), 21, 600, 1);
        // Two-way split: 3 000 bytes do not fit even then.
        assert_rebuilt_from_the_model(messy(), 21, 3000, 2);
        // Three-way split: a page-wide record between two half-page ones
        // whose page also holds a deleted record and an outgrown one.
        let half = USABLE / 2 - 40;
        let wide = messy_leaf(&[(2, half), (0, 10), (5, 8)], &[5], &[(0, half)]);
        assert_rebuilt_from_the_model(wide, 1, MAX_PAYLOAD, 3);
    }

    /// Inserting and deleting the same fresh keys over and over leaves the
    /// leaf level where the first round left it: a leaf whose room the
    /// deletes left as dead space is compacted and refilled, not split
    /// again.
    #[test]
    fn replayed_inserts_and_deletes_keep_the_leaf_count() {
        let mut store = PageStore::new();
        let entries: Vec<(i64, Vec<u8>)> = (0..20_000).map(|k| (2 * k, vec![0xCD; 40])).collect();
        let mut t = BTree::bulk_build(&mut store, &entries, 1, None).unwrap();
        let built = t.leaf_pages(&mut store).unwrap();
        // ~16 odd keys into each of the ~128 full leaves.
        let fresh: Vec<i64> = (0..2_000).map(|k| 20 * k + 1).collect();
        let mut first = None;
        for replay in 1..=33 {
            for &k in &fresh {
                t.insert(&mut store, k, &[0xEF; 40]).unwrap();
            }
            for &k in &fresh {
                t.delete(&mut store, k).unwrap();
            }
            let leaves = t.leaf_pages(&mut store).unwrap();
            assert!(leaves > built);
            assert_eq!(leaves, *first.get_or_insert(leaves), "replay {replay}");
        }
        let keys: Vec<i64> = entries.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys_in(&store, &t, 1, ALL), keys);
    }

    #[test]
    fn range_scan_bounds_inclusive() {
        let (store, t) = tree_with(2000, 16);
        for dop in [1, 3] {
            let seen = keys_in(&store, &t, dop, 995..=1005);
            assert_eq!(seen, (995..=1005).collect::<Vec<_>>());
        }
    }

    #[test]
    fn range_scan_empty_window() {
        let (store, t) = tree_with(100, 8);
        assert_eq!(keys_in(&store, &t, 1, 200..=300), Vec::<i64>::new());
        // An inverted interval covers no leaf at all and reads nothing.
        let before = store.stats();
        #[allow(clippy::reversed_empty_ranges)]
        let seen = keys_in(&store, &t, 4, 50..=40);
        assert_eq!(seen, Vec::<i64>::new());
        assert_eq!(store.stats(), before);
    }

    /// A tree write copies one page, the leaf it edits: an insert into a
    /// leaf with room copies that page and writes it; one that splits the
    /// root leaf builds the fresh leaf and the new root in blank buffers,
    /// so it copies that one page too, and writes three.
    #[test]
    fn a_tree_write_copies_only_the_leaf_it_edits() {
        // 73 records of 100 bytes fill a leaf exactly.
        for (rows, written, depth) in [(10, 1, 1), (73, 3, 2)] {
            let mut store = PageStore::new();
            let entries: Vec<(i64, Vec<u8>)> = (0..rows).map(|k| (2 * k, vec![7; 100])).collect();
            let mut t = BTree::bulk_build(&mut store, &entries, 1, None).unwrap();
            let before = store.stats();
            t.insert(&mut store, 5, &[9; 100]).unwrap();
            let d = store.stats().since(&before);
            assert_eq!(
                (d.page_copies, d.pages_written),
                (1, written),
                "{rows} rows"
            );
            assert_eq!(t.depth, depth, "{rows} rows");
        }
    }

    #[test]
    fn a_seek_reads_one_page_per_level() {
        // ~400 children per internal page and two 3 000-byte records per
        // leaf: 2 000 rows need a third level.
        let mut store = PageStore::new();
        let entries: Vec<(i64, Vec<u8>)> = (0..2000).map(|k| (k, vec![7; 3000])).collect();
        let t = BTree::bulk_build(&mut store, &entries, 1, None).unwrap();
        assert!(t.depth >= 3, "depth {}", t.depth);
        let all = t.leaf_page_ids(&mut store, &(i64::MIN..=i64::MAX)).unwrap();
        let internal_pages = store.page_count() - all.len() as u64;
        store.clear_cache();
        let before = store.stats();
        assert_eq!(keys_in(&store, &t, 8, 1234..=1234), vec![1234]);
        let d = store.stats().since(&before);
        assert_eq!(d.pages_read + d.cache_hits, u64::from(t.depth));
        assert!(u64::from(t.depth) < internal_pages + 1);
    }

    #[test]
    fn big_payloads_split_correctly() {
        // 4000-byte payloads: two records per page at most.
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        for k in 0..100 {
            let payload = vec![k as u8; 4000];
            t.insert(&mut store, k, &payload).unwrap();
        }
        for k in 0..100 {
            let got = t.get(&mut store, k).unwrap().unwrap();
            assert_eq!(got.len(), 4000);
            assert!(got.iter().all(|&b| b == k as u8));
        }
    }

    #[test]
    fn wide_record_split_keeps_both_sides_on_a_page() {
        // Records wider than half a page: the 50/50 byte boundary would
        // hand the right side two of them (> PAGE_SIZE); the split must
        // shift the boundary so both sides fit.
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        t.insert(&mut store, 0, &[0u8; 60]).unwrap();
        t.insert(&mut store, 2, &vec![2u8; 7000]).unwrap();
        // Out-of-order so the append optimization can't kick in.
        t.insert(&mut store, 1, &vec![1u8; 7000]).unwrap();
        for k in 0..3 {
            let got = t.get(&mut store, k).unwrap().unwrap();
            assert!(got.iter().all(|&b| b == k as u8));
        }
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn page_wide_record_between_wide_neighbours_splits_three_ways() {
        // Adversarial: two records filling a page exactly, then a
        // MAX_PAYLOAD record between them. No two-way boundary leaves
        // both sides under a page, so the leaf must split three ways.
        let half = (PAGE_SIZE - PAGE_HEADER_LEN) / 2 - 12;
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        t.insert(&mut store, 0, &vec![7u8; half]).unwrap();
        t.insert(&mut store, 2, &vec![9u8; half]).unwrap();
        t.insert(&mut store, 1, &vec![8u8; MAX_PAYLOAD]).unwrap();
        assert_eq!(t.get(&mut store, 0).unwrap().unwrap(), vec![7u8; half]);
        assert_eq!(
            t.get(&mut store, 1).unwrap().unwrap(),
            vec![8u8; MAX_PAYLOAD]
        );
        assert_eq!(t.get(&mut store, 2).unwrap().unwrap(), vec![9u8; half]);
        // The leaf chain must still visit every key in order.
        assert_eq!(keys_in(&store, &t, 1, ALL), vec![0, 1, 2]);
    }

    #[test]
    fn growing_updates_of_wide_records_split_like_inserts() {
        // Regression: an `update` that outgrows its leaf of near-page-wide
        // inline rows used to panic in the leaf split when one side
        // overflowed.
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        for k in 0..6 {
            t.insert(&mut store, k, &[k as u8; 68]).unwrap();
        }
        for k in 0..6 {
            t.update(&mut store, k, &vec![k as u8; 7300]).unwrap();
        }
        for k in (0..6).rev() {
            t.update(&mut store, k, &vec![k as u8; 6900]).unwrap();
        }
        for k in 0..6 {
            let got = t.get(&mut store, k).unwrap().unwrap();
            assert_eq!(got.len(), 6900);
            assert!(got.iter().all(|&b| b == k as u8));
        }
        assert_eq!(keys_in(&store, &t, 1, ALL), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        let too_big = vec![0u8; MAX_PAYLOAD + 1];
        assert!(matches!(
            t.insert(&mut store, 0, &too_big),
            Err(StorageError::RecordTooLarge { .. })
        ));
        let just_fits = vec![0u8; MAX_PAYLOAD];
        t.insert(&mut store, 0, &just_fits).unwrap();
        assert_eq!(t.get(&mut store, 0).unwrap().unwrap().len(), MAX_PAYLOAD);
    }

    #[test]
    fn reverse_order_insert() {
        let mut store = PageStore::new();
        let mut t = BTree::create(&mut store).unwrap();
        for k in (0..3000).rev() {
            t.insert(&mut store, k, &(k as i32).to_le_bytes()).unwrap();
        }
        assert_eq!(keys_in(&store, &t, 1, ALL), (0..3000).collect::<Vec<_>>());
    }

    #[test]
    fn delete_removes_and_reports_missing() {
        let (mut store, mut t) = tree_with(5000, 40);
        assert_eq!(t.delete(&mut store, 2500).unwrap(), vec![0xCD; 40]);
        assert_eq!(t.len(), 4999);
        assert_eq!(t.get(&mut store, 2500).unwrap(), None);
        assert_eq!(t.get(&mut store, 2499).unwrap().unwrap(), vec![0xCD; 40]);
        assert!(matches!(
            t.delete(&mut store, 2500),
            Err(StorageError::KeyNotFound { key: 2500 })
        ));
        // Draining a whole leaf's key range leaves scans consistent.
        for k in 0..400 {
            t.delete(&mut store, k).unwrap();
        }
        let want: Vec<i64> = (400..5000).filter(|&k| k != 2500).collect();
        assert_eq!(keys_in(&store, &t, 1, ALL), want);
        assert_eq!(want.len() as u64, t.len());
    }

    #[test]
    fn updates_at_every_placement_step_preserve_scan_order() {
        let (mut store, mut t) = tree_with(3000, 40);
        // Step 1: same size, over the old bytes.
        t.update(&mut store, 7, &[1u8; 40]).unwrap();
        assert_eq!(t.get(&mut store, 7).unwrap().unwrap(), vec![1u8; 40]);
        // Step 1: shrink.
        t.update(&mut store, 8, &[2u8; 5]).unwrap();
        assert_eq!(t.get(&mut store, 8).unwrap().unwrap(), vec![2u8; 5]);
        // Step 2: full pages from a sequential load have no free tail,
        // but 100 bytes fit once the shrink's 35 and a delete's 48 dead
        // bytes are compacted away — and the leaf does not split.
        let leaves = t.leaf_pages(&mut store).unwrap();
        t.delete(&mut store, 10).unwrap();
        t.update(&mut store, 9, &[3u8; 100]).unwrap();
        assert_eq!(t.get(&mut store, 9).unwrap().unwrap(), vec![3u8; 100]);
        assert_eq!(t.leaf_pages(&mut store).unwrap(), leaves);
        t.insert(&mut store, 10, &[0xCD; 40]).unwrap();
        // Step 3: grow well past a page's worth of neighbours.
        t.update(&mut store, 11, &[4u8; 4000]).unwrap();
        assert_eq!(t.get(&mut store, 11).unwrap().unwrap(), vec![4u8; 4000]);
        assert!(t.leaf_pages(&mut store).unwrap() > leaves);
        assert_eq!(t.len(), 3000);
        assert_eq!(keys_in(&store, &t, 1, ALL), (0..3000).collect::<Vec<_>>());
        // Typed errors.
        assert!(matches!(
            t.update(&mut store, -1, b"x"),
            Err(StorageError::KeyNotFound { key: -1 })
        ));
        assert!(matches!(
            t.update(&mut store, 7, &vec![0u8; MAX_PAYLOAD + 1]),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }

    #[test]
    fn parts_round_trip_preserves_tree() {
        let (mut store, t) = tree_with(2000, 30);
        let (root, first, len, depth) = t.parts();
        let t2 = BTree::from_parts(root, first, len, depth);
        assert_eq!(t2.len(), t.len());
        assert_eq!(
            t2.get(&mut store, 1234).unwrap(),
            t.get(&mut store, 1234).unwrap()
        );
        assert_eq!(keys_in(&store, &t2, 1, ALL).len(), 2000);
    }

    #[test]
    fn leaf_page_ids_match_chain_order() {
        for n in [0i64, 1, 5, 5000] {
            let (mut store, t) = tree_with(n, 40);
            let ids = t.leaf_page_ids(&mut store, &(i64::MIN..=i64::MAX)).unwrap();
            assert_eq!(ids.len() as u64, t.leaf_pages(&mut store).unwrap());
            // The tracked depth must agree with the walked depth.
            assert_eq!(t.depth, t.depth(&mut store).unwrap());
            // Walk the chain and compare.
            let mut chain = Vec::new();
            let mut page = Some(t.first_leaf);
            while let Some(pid) = page {
                chain.push(pid);
                let bytes = store.read(pid).unwrap();
                let v = SlottedRead::open(bytes, page_type::BTREE_LEAF, pid).unwrap();
                page = v.next_page();
            }
            assert_eq!(ids, chain, "n = {n}");
        }
    }

    #[test]
    fn leaf_page_ids_read_only_internal_pages_when_warm() {
        let (mut store, t) = tree_with(20_000, 40);
        let leaves = t.leaf_pages(&mut store).unwrap();
        store.clear_cache();
        let before = store.stats();
        t.leaf_page_ids(&mut store, &(i64::MIN..=i64::MAX)).unwrap();
        let d = store.stats().since(&before);
        // Collecting the leaf list must not read the leaf level itself.
        assert!(
            d.pages_read + d.cache_hits < leaves / 10,
            "partitioning touched {} pages for {leaves} leaves",
            d.pages_read + d.cache_hits
        );
    }

    #[test]
    fn scan_is_sequential_io_after_sequential_load() {
        let (store, t) = tree_with(20_000, 40);
        store.clear_cache();
        store.reset_stats();
        keys_in(&store, &t, 1, ALL);
        let st = store.stats();
        // Leaf chain allocation order is ascending for sequential loads, so
        // the scan should be dominated by sequential page reads.
        assert!(
            st.sequential_reads as f64 >= 0.9 * st.pages_read as f64,
            "scan was not sequential: {st:?}"
        );
    }
}
