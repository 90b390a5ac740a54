//! On-disk paged storage backend: ≤3-version chains held natively in
//! fixed-size pages.
//!
//! Layout (two files per node, under the node's store directory):
//!
//! ```text
//! pages.bin   ── array of 256-byte pages
//!   page := payload_len  u32 │ checksum(payload) u32 │ payload │ zero pad
//!   record payload (may span pages, in directory order):
//!     key u64 │ n_versions u32 │ (version u32, value)*     (wire codec)
//!
//! meta.bin    ── single checksum-framed frame (atomic tmp+rename publish)
//!   frame   := payload_len u32 │ checksum(payload) u32 │ payload
//!   payload := magic u32 │ format u8 │ lsn u64 │ vr_floor u32
//!            │ directory: len │ (key_delta varint, n_pages varint, page varint *)*
//!            │ free list: len │ page_delta varint *   (ascending)
//!            │ next_fresh u32
//! ```
//!
//! The meta frame is republished on *every* flush, so its directory is
//! delta-varint packed (keys ascending, each stored as the gap from its
//! predecessor; chain page ids absolute, in chain order): a few bytes per
//! key instead of 16, which keeps the per-checkpoint floor well below the
//! cost of serialising the records themselves.
//!
//! Writes are **shadow paged**: a flush encodes every dirty record into
//! freshly allocated pages, syncs `pages.bin`, publishes the new `meta.bin`
//! via the same atomic tmp+rename discipline as the durability
//! checkpoint, and only *then* returns the superseded pages to the
//! [`PageAllocator`]'s free list. A torn page write can therefore only ever
//! land in space the last published meta considers free — recovery opens
//! the old meta and never reads the torn bytes. The per-page checksum
//! (same FNV-1a framing as the WAL, [`crate::wire::checksum`]) catches the
//! remaining corruption modes fail-stop.
//!
//! The whole record set is mirrored in an in-memory `BTreeMap` cache, so
//! reads and the §4 update rules run at memory speed and stay
//! deterministic; the disk image is only read again at
//! [`PagedBackend::open`] (recovery).
//!
//! **GC is metadata, not data.** A §4.3 Phase-4 sweep drops the versions
//! below the newest one ≤ the new read version from every record that holds
//! more than one — dirtying those chains would rewrite every record an
//! advancement's updates touched a second time, only to shorten it. The
//! sweep is a deterministic function of `(record, vr_new)`, so the backend
//! persists only the highest swept version (`vr_floor` in the meta) and
//! re-applies `VersionedRecord::gc(vr_floor)` to each chain at open. Only
//! records whose *bytes changed for any other reason* (updates, restores)
//! are marked dirty; `gc` is idempotent and composable over monotone
//! versions, so replaying the floor over an already-swept or
//! freshly-flushed record is a no-op. The sweep renames nothing, so a
//! single-version chain is the same at every floor.

use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use threev_model::{Key, VersionNo};

use crate::backend::StorageBackend;
use crate::record::VersionedRecord;
use crate::wire::{checksum, ByteReader, ByteWriter, WireError};

/// On-disk page size in bytes (header included).
pub const PAGE_SIZE: usize = 256;
/// Per-page header: payload length + payload checksum.
const PAGE_HEADER: usize = 8;
/// Payload capacity of one page.
const PAGE_PAYLOAD: usize = PAGE_SIZE - PAGE_HEADER;
/// `meta.bin` magic ("3VPG").
const META_MAGIC: u32 = 0x3356_5047;
/// `meta.bin` format version.
const META_FORMAT: u8 = 1;

/// Free-list page allocator: recycles the lowest-numbered free page first
/// (deterministic), growing the file only when the free list is empty.
///
/// Pages are identified by index (`offset = index * PAGE_SIZE`). The
/// allocator never shrinks the file; GC shrinking a chain simply returns
/// pages here for reuse.
#[derive(Clone, Debug, Default)]
pub struct PageAllocator {
    free: BTreeSet<u32>,
    next_fresh: u32,
}

impl PageAllocator {
    /// Rebuild an allocator from a recovered meta image.
    pub fn new(next_fresh: u32, free: impl IntoIterator<Item = u32>) -> Self {
        PageAllocator {
            free: free.into_iter().collect(),
            next_fresh,
        }
    }

    /// Allocate one page: the smallest free index, else a fresh one.
    pub fn alloc(&mut self) -> u32 {
        match self.free.iter().next().copied() {
            Some(p) => {
                self.free.remove(&p);
                p
            }
            None => {
                let p = self.next_fresh;
                self.next_fresh += 1;
                p
            }
        }
    }

    /// Return a previously allocated page to the free list.
    pub fn free(&mut self, page: u32) {
        assert!(
            page < self.next_fresh,
            "freeing never-allocated page {page}"
        );
        assert!(self.free.insert(page), "double free of page {page}");
    }

    /// One past the highest page ever allocated (the file's page count).
    pub fn high_water(&self) -> u32 {
        self.next_fresh
    }

    /// Currently free page indices, ascending.
    pub fn free_pages(&self) -> impl Iterator<Item = u32> + '_ {
        self.free.iter().copied()
    }

    /// Number of free pages.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }
}

/// The on-disk paged backend. See the module docs for the file layout and
/// the shadow-paging flush protocol.
#[derive(Debug)]
pub struct PagedBackend {
    dir: PathBuf,
    pages: File,
    cache: BTreeMap<Key, VersionedRecord>,
    dirty: BTreeSet<Key>,
    directory: BTreeMap<Key, Vec<u32>>,
    alloc: PageAllocator,
    lsn: u64,
    /// Highest GC sweep seen; persisted in the meta and re-applied to
    /// every chain at open (see the module docs).
    vr_floor: VersionNo,
}

fn corrupt(what: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("page store: {what}"))
}

/// Encode one record as a self-describing page payload.
fn encode_record(key: Key, rec: &VersionedRecord) -> Vec<u8> {
    let pairs: Vec<_> = rec
        .version_numbers()
        .filter_map(|v| rec.value_at(v).map(|val| (v, val)))
        .collect();
    let mut w = ByteWriter::new();
    w.key(key);
    w.len(pairs.len());
    for (v, val) in pairs {
        w.version(v);
        w.value(val);
    }
    w.into_bytes()
}

/// Decode a record payload written by [`encode_record`].
fn decode_record(payload: &[u8]) -> Result<(Key, VersionedRecord), WireError> {
    let mut r = ByteReader::new(payload);
    let key = r.key()?;
    let n = r.read_len()?;
    if !(1..=crate::record::MAX_VERSIONS).contains(&n) {
        return Err(WireError("record version count out of range"));
    }
    let mut versions = Vec::with_capacity(n);
    for _ in 0..n {
        let v = r.version()?;
        let val = r.value()?;
        versions.push((v, val));
    }
    if !r.is_exhausted() {
        return Err(WireError("trailing bytes after record"));
    }
    Ok((key, VersionedRecord::from_versions(versions)))
}

struct Meta {
    lsn: u64,
    vr_floor: VersionNo,
    directory: BTreeMap<Key, Vec<u32>>,
    free: Vec<u32>,
    next_fresh: u32,
}

fn encode_meta(meta: &Meta) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u32(META_MAGIC);
    w.u8(META_FORMAT);
    w.u64(meta.lsn);
    w.version(meta.vr_floor);
    w.len(meta.directory.len());
    let mut prev_key = 0u64;
    for (key, pages) in &meta.directory {
        w.varint(key.0 - prev_key);
        prev_key = key.0;
        w.varint(pages.len() as u64);
        for &p in pages {
            w.varint(u64::from(p));
        }
    }
    // The free list is a set (the allocator re-sorts it on open), so it is
    // serialised ascending for delta packing.
    let mut free_sorted = meta.free.clone();
    free_sorted.sort_unstable();
    w.len(free_sorted.len());
    let mut prev_free = 0u64;
    for &p in &free_sorted {
        w.varint(u64::from(p) - prev_free);
        prev_free = u64::from(p);
    }
    w.u32(meta.next_fresh);
    let payload = w.into_bytes();
    let mut framed = ByteWriter::new();
    framed.len(payload.len());
    framed.u32(checksum(&payload));
    let mut bytes = framed.into_bytes();
    bytes.extend_from_slice(&payload);
    bytes
}

fn decode_meta(bytes: &[u8]) -> Result<Meta, WireError> {
    let mut frame = ByteReader::new(bytes);
    let len = frame.read_len()?;
    let cks = frame.u32()?;
    let payload = &bytes[8..8 + len];
    if checksum(payload) != cks {
        return Err(WireError("meta checksum mismatch"));
    }
    let mut r = ByteReader::new(payload);
    if r.u32()? != META_MAGIC {
        return Err(WireError("bad meta magic"));
    }
    if r.u8()? != META_FORMAT {
        return Err(WireError("unknown meta format"));
    }
    let lsn = r.u64()?;
    let vr_floor = r.version()?;
    let n_keys = r.read_len()?;
    let mut directory = BTreeMap::new();
    let mut prev_key = 0u64;
    for _ in 0..n_keys {
        let key = prev_key
            .checked_add(r.varint()?)
            .ok_or(WireError("directory key delta overflows"))?;
        prev_key = key;
        let n_pages = r.varint()? as usize;
        if n_pages > r.remaining() {
            return Err(WireError("directory page list longer than meta"));
        }
        let mut pages = Vec::with_capacity(n_pages);
        for _ in 0..n_pages {
            pages.push(u32::try_from(r.varint()?).map_err(|_| WireError("page id exceeds u32"))?);
        }
        directory.insert(Key(key), pages);
    }
    let n_free = r.read_len()?;
    let mut free = Vec::with_capacity(n_free);
    let mut prev_free = 0u64;
    for _ in 0..n_free {
        let p = prev_free
            .checked_add(r.varint()?)
            .ok_or(WireError("free-list delta overflows"))?;
        prev_free = p;
        free.push(u32::try_from(p).map_err(|_| WireError("free page id exceeds u32"))?);
    }
    let next_fresh = r.u32()?;
    if !r.is_exhausted() {
        return Err(WireError("trailing bytes after meta"));
    }
    Ok(Meta {
        lsn,
        vr_floor,
        directory,
        free,
        next_fresh,
    })
}

impl PagedBackend {
    /// Open (or create) the paged store rooted at `dir`, loading every
    /// chain the last published meta references into the cache.
    ///
    /// # Errors
    /// I/O failures, and fail-stop `InvalidData` on any corruption the
    /// checksums or the allocator-accounting cross-checks catch. Bytes
    /// beyond what the published meta references — e.g. pages torn by a
    /// crash mid-flush — are never read and never an error.
    pub fn open(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let mut pages = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("pages.bin"))?;
        let meta = match fs::read(dir.join("meta.bin")) {
            Ok(bytes) => decode_meta(&bytes).map_err(corrupt)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Meta {
                lsn: 0,
                vr_floor: VersionNo(0),
                directory: BTreeMap::new(),
                free: Vec::new(),
                next_fresh: 0,
            },
            Err(e) => return Err(e),
        };
        // Every page must be accounted for exactly once (free xor in one
        // chain) and lie below the high-water mark — otherwise the
        // allocator would eventually hand out a live page.
        let mut seen = BTreeSet::new();
        for &p in meta.directory.values().flatten().chain(meta.free.iter()) {
            if p >= meta.next_fresh || !seen.insert(p) {
                return Err(corrupt(format!("page {p} double-booked or out of range")));
            }
        }
        let mut cache = BTreeMap::new();
        for (key, page_list) in &meta.directory {
            let payload = read_chain(&mut pages, page_list)?;
            let (k, mut rec) = decode_record(&payload).map_err(corrupt)?;
            if k != *key {
                return Err(corrupt(format!("directory says {key:?}, page says {k:?}")));
            }
            // Replay the persisted GC floor: sweeps do not rewrite pages
            // (module docs), so the on-disk chain may still hold versions
            // the last advancement dropped. No dirty marking — the page
            // image is still canonical for this floor.
            rec.gc(meta.vr_floor);
            cache.insert(*key, rec);
        }
        Ok(PagedBackend {
            dir: dir.to_path_buf(),
            pages,
            cache,
            dirty: BTreeSet::new(),
            directory: meta.directory,
            alloc: PageAllocator::new(meta.next_fresh, meta.free),
            lsn: meta.lsn,
            vr_floor: meta.vr_floor,
        })
    }

    /// Directory root of this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records modified since the last flush.
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// The page allocator (observability for tests and benches).
    pub fn allocator(&self) -> &PageAllocator {
        &self.alloc
    }

    /// Shadow-paged flush of every dirty record; see the module docs.
    /// Returns the bytes written (pages + meta).
    fn flush_inner(&mut self, lsn: u64) -> io::Result<u64> {
        let mut bytes = 0u64;
        let mut pending_free: Vec<u32> = Vec::new();
        for key in std::mem::take(&mut self.dirty) {
            let Some(rec) = self.cache.get(&key) else {
                continue;
            };
            let payload = encode_record(key, rec);
            let n_pages = payload.len().div_ceil(PAGE_PAYLOAD);
            let page_list: Vec<u32> = (0..n_pages).map(|_| self.alloc.alloc()).collect();
            for (i, &page) in page_list.iter().enumerate() {
                let chunk = &payload[i * PAGE_PAYLOAD..payload.len().min((i + 1) * PAGE_PAYLOAD)];
                let mut buf = [0u8; PAGE_SIZE];
                buf[0..4].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
                buf[4..8].copy_from_slice(&checksum(chunk).to_le_bytes());
                buf[PAGE_HEADER..PAGE_HEADER + chunk.len()].copy_from_slice(chunk);
                self.pages
                    .seek(SeekFrom::Start(u64::from(page) * PAGE_SIZE as u64))?;
                self.pages.write_all(&buf)?;
                bytes += PAGE_SIZE as u64;
            }
            if let Some(old) = self.directory.insert(key, page_list) {
                pending_free.extend(old);
            }
        }
        self.pages.sync_data()?;
        // Publish: the new meta's free list already includes the pages the
        // superseded chains occupied (they are free the instant the rename
        // lands), but the in-memory allocator only learns about them after
        // the rename — so an interrupted flush can never have handed old
        // chain pages out for reuse while an old meta still references them.
        let meta_bytes = encode_meta(&Meta {
            lsn,
            vr_floor: self.vr_floor,
            directory: self.directory.clone(),
            free: self
                .alloc
                .free_pages()
                .chain(pending_free.iter().copied())
                .collect(),
            next_fresh: self.alloc.high_water(),
        });
        let tmp = self.dir.join("meta.tmp");
        let mut f = File::create(&tmp)?;
        f.write_all(&meta_bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, self.dir.join("meta.bin"))?;
        bytes += meta_bytes.len() as u64;
        for p in pending_free {
            self.alloc.free(p);
        }
        self.lsn = lsn;
        Ok(bytes)
    }
}

/// Read and verify one record's page chain, concatenating the payloads.
fn read_chain(pages: &mut File, page_list: &[u32]) -> io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    for &page in page_list {
        let mut buf = [0u8; PAGE_SIZE];
        pages.seek(SeekFrom::Start(u64::from(page) * PAGE_SIZE as u64))?;
        pages.read_exact(&mut buf)?;
        let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        let cks = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
        if len > PAGE_PAYLOAD {
            return Err(corrupt(format!("page {page} payload length {len}")));
        }
        let chunk = &buf[PAGE_HEADER..PAGE_HEADER + len];
        if checksum(chunk) != cks {
            return Err(corrupt(format!("page {page} checksum mismatch")));
        }
        payload.extend_from_slice(chunk);
    }
    Ok(payload)
}

impl StorageBackend for PagedBackend {
    fn get(&self, key: Key) -> Option<&VersionedRecord> {
        self.cache.get(&key)
    }

    fn get_mut(&mut self, key: Key) -> Option<&mut VersionedRecord> {
        let rec = self.cache.get_mut(&key)?;
        self.dirty.insert(key);
        Some(rec)
    }

    fn insert(&mut self, key: Key, rec: VersionedRecord) {
        self.cache.insert(key, rec);
        self.dirty.insert(key);
    }

    fn len(&self) -> usize {
        self.cache.len()
    }

    fn iter(&self) -> btree_map::Iter<'_, Key, VersionedRecord> {
        self.cache.iter()
    }

    fn retain_keys(
        &mut self,
        keys: &mut Vec<Key>,
        f: &mut dyn FnMut(&mut VersionedRecord) -> bool,
    ) {
        keys.retain(|k| self.cache.get_mut(k).is_some_and(&mut *f));
    }

    fn note_gc(&mut self, vr_new: VersionNo) {
        self.vr_floor = self.vr_floor.max(vr_new);
    }

    fn flush(&mut self, lsn: u64) -> u64 {
        // lint-allow(panic-hygiene): fail-stop — if the page files can no
        // longer be written the node must not keep acknowledging commits
        // against a durable image that stopped advancing.
        self.flush_inner(lsn)
            .unwrap_or_else(|e| panic!("paged store flush to {:?}: {e}", self.dir))
    }

    fn durable_lsn(&self) -> Option<u64> {
        Some(self.lsn)
    }

    fn persists_chains(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threev_model::{NodeId, TxnId, UpdateOp, Value, VersionNo};

    fn tdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("threev-paged-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn rec(n: i64) -> VersionedRecord {
        VersionedRecord::initial(Value::Counter(n))
    }

    #[test]
    fn flush_and_reopen_round_trips() {
        let dir = tdir("roundtrip");
        let mut b = PagedBackend::open(&dir).unwrap();
        b.insert(Key(1), rec(10));
        b.insert(Key(2), rec(20));
        b.get_mut(Key(1))
            .unwrap()
            .update(
                Key(1),
                VersionNo(1),
                UpdateOp::Add(5),
                TxnId::new(1, NodeId(0)),
            )
            .unwrap();
        assert_eq!(b.dirty_count(), 2);
        let bytes = b.flush(7);
        assert!(bytes > 0);
        assert_eq!(b.dirty_count(), 0);
        drop(b);

        let b2 = PagedBackend::open(&dir).unwrap();
        assert_eq!(b2.durable_lsn(), Some(7));
        assert_eq!(b2.len(), 2);
        assert_eq!(
            b2.get(Key(1)).unwrap().value_at(VersionNo(1)),
            Some(&Value::Counter(15))
        );
        assert_eq!(
            b2.get(Key(2)).unwrap().value_at(VersionNo(0)),
            Some(&Value::Counter(20))
        );
    }

    #[test]
    fn unflushed_records_do_not_survive_reopen() {
        let dir = tdir("volatile-tail");
        let mut b = PagedBackend::open(&dir).unwrap();
        b.insert(Key(1), rec(1));
        b.flush(1);
        b.insert(Key(2), rec(2));
        drop(b); // crash before flush

        let b2 = PagedBackend::open(&dir).unwrap();
        assert_eq!(b2.len(), 1, "Key(2) was never flushed");
        assert_eq!(b2.durable_lsn(), Some(1));
    }

    #[test]
    fn big_journal_spans_pages_and_gc_reclaims_them() {
        let dir = tdir("overflow");
        let mut b = PagedBackend::open(&dir).unwrap();
        b.insert(Key(5), VersionedRecord::initial(Value::Journal(Vec::new())));
        // ~40 journal entries at 22 bytes each: several pages.
        for i in 0..40 {
            b.get_mut(Key(5))
                .unwrap()
                .update(
                    Key(5),
                    VersionNo(1),
                    UpdateOp::Append { amount: i, tag: 0 },
                    TxnId::new(i as u64, NodeId(0)),
                )
                .unwrap();
        }
        b.flush(1);
        let big_pages = b.directory[&Key(5)].len();
        assert!(big_pages > 1, "journal should overflow one page");
        drop(b);

        let mut b2 = PagedBackend::open(&dir).unwrap();
        assert_eq!(
            b2.get(Key(5)).unwrap().value_at(VersionNo(1)).unwrap(),
            b2.cache[&Key(5)].value_at(VersionNo(1)).unwrap()
        );
        // Shrink the record sharply (a small single-version chain) and
        // check pages return to the free list.
        b2.get_mut(Key(5)).unwrap();
        *b2.cache.get_mut(&Key(5)).unwrap() =
            VersionedRecord::from_versions(vec![(VersionNo(2), Value::Counter(0))]);
        b2.dirty.insert(Key(5));
        b2.flush(2);
        assert_eq!(b2.directory[&Key(5)].len(), 1);
        assert!(
            b2.allocator().free_count() >= big_pages - 1,
            "superseded overflow pages must be reusable"
        );
        // And reuse actually happens: the next flush allocates from them.
        let high_water = b2.allocator().high_water();
        b2.insert(Key(6), rec(6));
        b2.flush(3);
        assert_eq!(b2.allocator().high_water(), high_water, "no fresh growth");
    }

    #[test]
    fn torn_tail_beyond_meta_is_ignored() {
        let dir = tdir("torn");
        let mut b = PagedBackend::open(&dir).unwrap();
        b.insert(Key(1), rec(1));
        b.flush(1);
        drop(b);
        // A crash mid-flush leaves garbage past the published high water.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join("pages.bin"))
            .unwrap();
        f.write_all(&[0xAB; PAGE_SIZE / 2]).unwrap();
        drop(f);

        let b2 = PagedBackend::open(&dir).unwrap();
        assert_eq!(b2.len(), 1);
        assert_eq!(b2.durable_lsn(), Some(1));
    }

    #[test]
    fn corrupt_referenced_page_fails_stop() {
        let dir = tdir("corrupt");
        let mut b = PagedBackend::open(&dir).unwrap();
        b.insert(Key(1), rec(1));
        b.flush(1);
        drop(b);
        let mut f = OpenOptions::new()
            .write(true)
            .open(dir.join("pages.bin"))
            .unwrap();
        f.seek(SeekFrom::Start(PAGE_HEADER as u64)).unwrap();
        f.write_all(&[0xFF]).unwrap();
        drop(f);
        assert!(PagedBackend::open(&dir).is_err());
    }

    #[test]
    fn gc_floor_persists_without_dirtying_chains() {
        let dir = tdir("gc-floor");
        let mut b = PagedBackend::open(&dir).unwrap();
        b.insert(Key(1), rec(10));
        b.get_mut(Key(1))
            .unwrap()
            .update(
                Key(1),
                VersionNo(1),
                UpdateOp::Add(5),
                TxnId::new(1, NodeId(0)),
            )
            .unwrap();
        b.flush(1);
        // On disk: versions 0 and 1. A §4.3 sweep at v3 drops version 0 in
        // memory; the backend records only the floor, the chain stays clean.
        let mut keys = vec![Key(1)];
        b.retain_keys(&mut keys, &mut |r| {
            r.gc(VersionNo(3));
            r.version_count() > 1
        });
        assert!(keys.is_empty(), "the swept chain holds one version");
        b.note_gc(VersionNo(3));
        assert_eq!(b.dirty_count(), 0);
        b.note_gc(VersionNo(2)); // floors are monotone: lower is a no-op
        b.flush(2);
        drop(b);

        // Reopen re-applies the persisted floor to the two-version page
        // image, so the cache matches the pre-crash in-memory image.
        let b2 = PagedBackend::open(&dir).unwrap();
        assert_eq!(b2.vr_floor, VersionNo(3));
        let r = b2.get(Key(1)).unwrap();
        assert_eq!(r.version_numbers().collect::<Vec<_>>(), vec![VersionNo(1)]);
        assert_eq!(r.value_at(VersionNo(1)), Some(&Value::Counter(15)));
    }

    #[test]
    fn allocator_reuses_lowest_free_page_first() {
        let mut a = PageAllocator::default();
        assert_eq!((a.alloc(), a.alloc(), a.alloc()), (0, 1, 2));
        a.free(1);
        a.free(0);
        assert_eq!(a.alloc(), 0, "lowest free index first");
        assert_eq!(a.alloc(), 1);
        assert_eq!(a.alloc(), 3, "then fresh growth");
        assert_eq!(a.high_water(), 4);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn allocator_rejects_double_free() {
        let mut a = PageAllocator::default();
        let p = a.alloc();
        a.free(p);
        a.free(p);
    }
}
