//! The interned marking arena behind every explorer.
//!
//! [`MarkingStore`] keeps each distinct marking exactly once, in one flat
//! `Vec<u32>` with `stride = place count` — no per-marking heap
//! allocation, no duplicate key storage. Membership queries go through an
//! in-tree open-addressing hash index whose slots hold only a
//! `(hash fragment, state id)` pair packed in a `u64`; full-marking
//! comparison reads straight out of the arena. This replaces the seed
//! kernel's double storage (a `Vec<Marking>` *plus* a
//! `HashMap<Marking, StateId>` cloning every marking into its key set),
//! cutting resident marking memory by more than half and removing one
//! allocation per discovered state from the hot loop.
//!
//! Collision policy: linear probing, no deletions (exploration only ever
//! inserts), table grown at 7/8 load with a full rehash from the per-state
//! hash cache. [`SpillStore`] shares the same index, so both tiers number
//! and find states alike.

use crate::error::PetriError;
use std::convert::Infallible;

/// Sentinel for an empty index slot.
const EMPTY: u64 = 0;
/// Initial table capacity (power of two).
const INITIAL_SLOTS: usize = 16;
/// The hash bits an index slot keeps as its tag; the low half holds
/// `id + 1`.
const HIGH_MASK: u64 = 0xFFFF_FFFF_0000_0000;

/// The membership index both stores share: the full 64-bit hash of every
/// row in id order, and an open-addressing slot table over them whose
/// entries are `(hash & HIGH_MASK) | (id + 1)`, 0 = empty. The slot
/// table starts small and doubles at 7/8 load, rehashing from the hash
/// cache, so its size follows the rows stored and nothing else.
#[derive(Clone, Debug)]
struct RowIndex {
    hashes: Vec<u64>,
    table: Vec<u64>,
    mask: usize,
}

impl RowIndex {
    /// An empty index with room for about `cap` rows before it grows.
    fn with_capacity(cap: usize) -> Self {
        let slots = (cap * 8 / 7 + 1).next_power_of_two().max(INITIAL_SLOTS);
        RowIndex {
            hashes: Vec::with_capacity(cap),
            table: vec![EMPTY; slots],
            mask: slots - 1,
        }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    /// The id of the row stored under `hash` that `is_row` accepts.
    /// Probes linearly from the hash's home slot to the first empty one
    /// and asks `is_row` only about ids whose tag matches.
    #[inline]
    fn find<E>(
        &self,
        hash: u64,
        mut is_row: impl FnMut(usize) -> Result<bool, E>,
    ) -> Result<Option<u32>, E> {
        let tag = hash & HIGH_MASK;
        let mut slot = (hash as usize) & self.mask;
        loop {
            let entry = self.table[slot];
            if entry == EMPTY {
                return Ok(None);
            }
            if entry & HIGH_MASK == tag {
                let id = ((entry & !HIGH_MASK) - 1) as usize;
                if is_row(id)? {
                    return Ok(Some(id as u32));
                }
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Makes room for one more row, so that [`RowIndex::push`] cannot
    /// fail. On error the index is unchanged.
    ///
    /// # Errors
    ///
    /// [`PetriError::IndexOverflow`] when the index already holds
    /// `u32::MAX - 1` rows (the id space of the packed slots), or
    /// [`PetriError::AllocationFailed`] when the allocator refuses to
    /// grow the slot table or the hash cache.
    fn reserve_one(&mut self) -> Result<(), PetriError> {
        let len = self.len();
        if len >= (u32::MAX - 1) as usize {
            return Err(PetriError::IndexOverflow { index: len });
        }
        if (len + 1) * 8 >= self.table.len() * 7 {
            self.grow()?;
        }
        self.hashes
            .try_reserve(1)
            .map_err(|_| PetriError::AllocationFailed {
                bytes: std::mem::size_of::<u64>(),
            })
    }

    /// Records the next row id under `hash` and returns it. Call
    /// [`RowIndex::reserve_one`] first.
    fn push(&mut self, hash: u64) -> u32 {
        let id = self.len() as u32;
        self.hashes.push(hash);
        self.place(hash, id);
        id
    }

    fn place(&mut self, hash: u64, id: u32) {
        let entry = (hash & HIGH_MASK) | (u64::from(id) + 1);
        let mut slot = (hash as usize) & self.mask;
        while self.table[slot] != EMPTY {
            slot = (slot + 1) & self.mask;
        }
        self.table[slot] = entry;
    }

    /// Doubles the slot table. On allocator refusal the old table is
    /// left intact, so a failed grow is retryable and never corrupts the
    /// index.
    fn grow(&mut self) -> Result<(), PetriError> {
        let new_slots = self.table.len() * 2;
        let mut table = Vec::new();
        table
            .try_reserve_exact(new_slots)
            .map_err(|_| PetriError::AllocationFailed {
                bytes: new_slots * std::mem::size_of::<u64>(),
            })?;
        table.resize(new_slots, EMPTY);
        self.table = table;
        self.mask = new_slots - 1;
        for i in 0..self.hashes.len() {
            self.place(self.hashes[i], i as u32);
        }
        Ok(())
    }

    /// Bytes held by the hash cache and the slot table.
    fn resident_bytes(&self) -> usize {
        (self.hashes.capacity() + self.table.capacity()) * std::mem::size_of::<u64>()
    }
}

/// A deduplicating arena of fixed-stride `u32` vectors (markings, or any
/// packed per-state payload such as the STG kernel's marking+encoding
/// words).
///
/// Ids are dense `u32`s in insertion order, so the store doubles as the
/// state numbering of a breadth-first exploration.
///
/// # Example
///
/// ```
/// use cpn_petri::store::MarkingStore;
///
/// let mut store = MarkingStore::new(3);
/// let (a, new_a) = store.intern(&[1, 0, 2]);
/// let (b, new_b) = store.intern(&[1, 0, 2]);
/// assert_eq!((a, new_a), (0, true));
/// assert_eq!((b, new_b), (0, false));
/// assert_eq!(store.get(0), &[1, 0, 2]);
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct MarkingStore {
    stride: usize,
    /// Flat arena: marking `i` lives at `data[i*stride .. (i+1)*stride]`.
    data: Vec<u32>,
    index: RowIndex,
}

impl MarkingStore {
    /// An empty store over `stride` places.
    pub fn new(stride: usize) -> Self {
        Self::with_capacity(stride, 0)
    }

    /// An empty store pre-sized for about `cap` markings.
    pub fn with_capacity(stride: usize, cap: usize) -> Self {
        MarkingStore {
            stride,
            data: Vec::with_capacity(cap * stride),
            index: RowIndex::with_capacity(cap),
        }
    }

    /// The per-marking stride (place count).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of distinct markings stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no markings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The marking with id `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> &[u32] {
        assert!(i < self.len(), "marking id {i} out of range");
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// The cached 64-bit hash of marking `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn hash_of(&self, i: usize) -> u64 {
        self.index.hashes[i]
    }

    /// Iterates over all stored markings in id order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// SplitMix64 finalizer (see [`crate::hash::mix64`]): full avalanche,
    /// so summing outputs keeps high-bit entropy (the index tag reads the
    /// high bits).
    #[inline]
    fn mix(z: u64) -> u64 {
        crate::hash::mix64(z)
    }

    /// The contribution of `(position, value)` to a marking's hash.
    ///
    /// [`MarkingStore::hash_slice`] is the wrapping **sum** of these
    /// per-entry terms, so firing a transition can update a cached hash
    /// in O(places touched): subtract the old entry's term, add the new
    /// one (see `CompiledNet::apply_hashed`). The position is folded
    /// into the mixed word, so permuted slices still hash differently.
    #[inline]
    pub fn entry_hash(pos: usize, val: u32) -> u64 {
        Self::mix(((pos as u64) << 32) ^ u64::from(val))
    }

    /// The content hash used by the index.
    ///
    /// A commutative sum of [`MarkingStore::entry_hash`] terms seeded by
    /// the length: deterministic, allocation-free, identical across runs,
    /// and incrementally updatable under firing.
    #[inline]
    pub fn hash_slice(m: &[u32]) -> u64 {
        let mut h = Self::mix(0x9E37_79B9_7F4A_7C15 ^ (m.len() as u64));
        for (i, &w) in m.iter().enumerate() {
            h = h.wrapping_add(Self::entry_hash(i, w));
        }
        h
    }

    /// Looks up a marking, returning its id if present.
    pub fn find(&self, m: &[u32]) -> Option<u32> {
        self.find_hashed(m, Self::hash_slice(m))
    }

    /// [`MarkingStore::find`] with the hash precomputed by the caller.
    pub fn find_hashed(&self, m: &[u32], hash: u64) -> Option<u32> {
        debug_assert_eq!(m.len(), self.stride, "marking over different net");
        let Ok(found) = self.index.find(hash, |id| {
            Ok::<_, Infallible>(&self.data[id * self.stride..(id + 1) * self.stride] == m)
        });
        found
    }

    /// Inserts a marking the caller has verified to be absent
    /// (via [`MarkingStore::find_hashed`] with the same hash) and returns
    /// its new id.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::IndexOverflow`] when the store already holds
    /// `u32::MAX - 1` markings (the id space of the packed index slots),
    /// or [`PetriError::AllocationFailed`] when growing the arena or the
    /// slot table is refused by the allocator. Either way the store is
    /// left unchanged and fully usable — explorers stop with a
    /// [`Resource::Storage`](crate::budget::Resource::Storage) stop and
    /// hand back the prefix built so far, so one pathological net
    /// degrades a worker instead of killing it.
    pub fn insert_new_hashed(&mut self, m: &[u32], hash: u64) -> Result<u32, PetriError> {
        debug_assert_eq!(m.len(), self.stride, "marking over different net");
        debug_assert!(self.find_hashed(m, hash).is_none(), "duplicate insert");
        self.index.reserve_one()?;
        self.data
            .try_reserve(self.stride)
            .map_err(|_| PetriError::AllocationFailed {
                bytes: self.stride * std::mem::size_of::<u32>(),
            })?;
        self.data.extend_from_slice(m);
        Ok(self.index.push(hash))
    }

    /// Finds or inserts a marking; returns `(id, newly_inserted)`.
    ///
    /// # Errors
    ///
    /// Propagates [`MarkingStore::insert_new_hashed`] failures (id-space
    /// overflow, allocator refusal); the store is unchanged on error.
    pub fn try_intern(&mut self, m: &[u32]) -> Result<(u32, bool), PetriError> {
        let hash = Self::hash_slice(m);
        match self.find_hashed(m, hash) {
            Some(id) => Ok((id, false)),
            None => self.insert_new_hashed(m, hash).map(|id| (id, true)),
        }
    }

    /// Finds or inserts a marking; returns `(id, newly_inserted)`.
    ///
    /// # Panics
    ///
    /// Panics if the 32-bit id space overflows (more than ~4 billion
    /// distinct markings) or the allocator refuses growth; budgeted
    /// explorers stop long before and use the fallible
    /// [`MarkingStore::try_intern`] / [`MarkingStore::insert_new_hashed`]
    /// on their hot paths.
    pub fn intern(&mut self, m: &[u32]) -> (u32, bool) {
        match self.try_intern(m) {
            Ok(r) => r,
            Err(e) => panic!("marking arena overflow: {e}"),
        }
    }

    /// Bytes resident in the arena, hash cache and index — the
    /// `peak_resident_markings` counter of `BENCH_explore.json`.
    pub fn resident_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<u32>() + self.index.resident_bytes()
    }
}

// ----------------------------------------------------------------------
// Spillable tier
// ----------------------------------------------------------------------

use std::fs::File;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Configuration of the spillable marking tier ([`SpillStore`]).
#[derive(Clone, Debug)]
pub struct SpillConfig {
    /// Ceiling on resident **encoded row payload** bytes (delta pairs +
    /// row offsets of all resident segments). When an insert pushes past
    /// it, cold sealed segments are written to disk and dropped from RAM
    /// until the payload fits again. The hash cache, the slot table and
    /// the per-segment reference markings always stay resident — they
    /// are what keeps lookups from touching disk on the hot path.
    pub resident_payload_bytes: usize,
    /// Rows per segment. Only full (sealed) segments spill; the tail
    /// segment currently being filled never does.
    pub segment_rows: usize,
    /// Directory for the spill file. `None` uses the system temp dir.
    /// The file is unlinked at creation where the platform allows it, so
    /// even a crashed process leaks no on-disk state.
    pub spill_dir: Option<PathBuf>,
}

impl Default for SpillConfig {
    /// 64 MiB of resident payload, 4096-row segments, system temp dir.
    fn default() -> Self {
        SpillConfig {
            resident_payload_bytes: 64 << 20,
            segment_rows: 4096,
            spill_dir: None,
        }
    }
}

impl SpillConfig {
    /// Config with the given resident-payload ceiling.
    pub fn with_resident_bytes(bytes: usize) -> Self {
        SpillConfig {
            resident_payload_bytes: bytes,
            ..Self::default()
        }
    }
}

/// Counters describing how much a [`SpillStore`] actually spilled.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Total segments (resident + spilled).
    pub segments: usize,
    /// Segments currently resident in RAM.
    pub resident_segments: usize,
    /// Bytes ever written to the spill file (segments write at most once).
    pub spilled_bytes: u64,
    /// Segments re-read from disk (page-ins).
    pub page_ins: u64,
    /// Segments evicted to disk (page-outs).
    pub page_outs: u64,
    /// Encoded payload bytes currently resident.
    pub resident_payload_bytes: usize,
}

/// One run of `segment_rows` consecutive ids, delta-encoded against a
/// shared reference marking (the first row of the segment). BFS
/// successors differ from their parent in a handful of places, and BFS
/// discovery order keeps parents and children close in id space, so the
/// deltas stay short.
#[derive(Debug)]
struct Segment {
    /// The reference marking (always resident; also row 0's content).
    reference: Vec<u32>,
    /// Row `j`'s delta pairs live at
    /// `payload[offsets[j] as usize..offsets[j + 1] as usize]`.
    /// Empty when paged out.
    offsets: Vec<u32>,
    /// Flat `(position, value)` pairs. Empty when paged out.
    payload: Vec<u32>,
    /// Rows stored (== `segment_rows` once sealed).
    rows: usize,
    /// Byte offset + word counts in the spill file, once written.
    disk: Option<(u64, u32, u32)>,
    /// Sealed segments are immutable and eligible for eviction.
    sealed: bool,
    /// Whether `offsets`/`payload` are in RAM.
    resident: bool,
    /// Eviction clock stamp (oldest goes first).
    touch: u64,
}

impl Segment {
    fn fresh(reference: Vec<u32>) -> Self {
        Segment {
            reference,
            offsets: vec![0, 0],
            payload: Vec::new(),
            rows: 1,
            disk: None,
            sealed: false,
            resident: true,
            touch: 0,
        }
    }

    /// Resident payload footprint: encoded pairs plus the offset table.
    fn payload_bytes(&self) -> usize {
        (self.payload.len() + self.offsets.len()) * std::mem::size_of::<u32>()
    }
}

fn spill_err(e: std::io::Error) -> PetriError {
    PetriError::SpillIo {
        detail: e.to_string(),
    }
}

/// Append-only spill file. Sealed segments are immutable, so each is
/// written at most once; re-eviction after a page-in is free.
#[derive(Debug)]
struct Pager {
    file: File,
    end: u64,
    /// Kept only if the eager unlink failed (non-POSIX semantics); the
    /// `Drop` impl then removes the file by path.
    path: Option<PathBuf>,
}

impl Pager {
    fn open(dir: Option<&Path>) -> Result<Self, PetriError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = dir.map_or_else(std::env::temp_dir, Path::to_path_buf);
        let name = format!(
            "cpn-spill-{}-{}.bin",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let path = dir.join(name);
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(spill_err)?;
        // On POSIX the unlinked file stays usable through the handle and
        // vanishes even if the process dies; elsewhere fall back to
        // removal on drop.
        let path = match std::fs::remove_file(&path) {
            Ok(()) => None,
            Err(_) => Some(path),
        };
        Ok(Pager { file, end: 0, path })
    }

    /// Appends two word runs back to back; returns the byte offset.
    fn append(&mut self, a: &[u32], b: &[u32]) -> Result<u64, PetriError> {
        let off = self.end;
        self.file.seek(SeekFrom::Start(off)).map_err(spill_err)?;
        let mut buf = Vec::with_capacity((a.len() + b.len()) * 4);
        for &w in a.iter().chain(b) {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        self.file.write_all(&buf).map_err(spill_err)?;
        self.end = off + buf.len() as u64;
        Ok(off)
    }

    /// Reads `words` u32s starting at byte offset `off` into `out`.
    fn read_words(&mut self, off: u64, words: usize, out: &mut Vec<u32>) -> Result<(), PetriError> {
        self.file.seek(SeekFrom::Start(off)).map_err(spill_err)?;
        let mut buf = vec![0u8; words * 4];
        self.file.read_exact(&mut buf).map_err(spill_err)?;
        out.clear();
        out.reserve(words);
        for chunk in buf.chunks_exact(4) {
            out.push(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
        Ok(())
    }
}

impl Drop for Pager {
    fn drop(&mut self) {
        if let Some(p) = &self.path {
            let _ = std::fs::remove_file(p);
        }
    }
}

/// A [`MarkingStore`]-shaped arena whose marking rows are delta-encoded
/// in segments and spillable to disk, so an exploration's resident set is
/// bounded by [`SpillConfig::resident_payload_bytes`] instead of
/// `states × places × 4` bytes.
///
/// The membership index (slot table + full 64-bit hash per row) is always
/// resident: a negative lookup — the overwhelmingly common case during
/// exploration — never touches disk, and a positive lookup pages in at
/// most one segment. Ids are dense `u32`s in insertion order, exactly
/// like [`MarkingStore`] (the two share one index), so the exploration
/// driver runs unchanged on either tier and produces bit-identical
/// numbering.
///
/// Rows are materialized by copy ([`SpillStore::get_into`]) rather than
/// borrowed: a paged-out row has no stable address to borrow from.
#[derive(Debug)]
pub struct SpillStore {
    index: RowIndex,
    rows: SpillRows,
}

/// A [`SpillStore`]'s rows: delta-encoded segments, paged out to disk
/// under the resident payload budget.
#[derive(Debug)]
struct SpillRows {
    stride: usize,
    seg_rows: usize,
    segments: Vec<Segment>,
    resident_payload: usize,
    budget_bytes: usize,
    spill_dir: Option<PathBuf>,
    pager: Option<Pager>,
    clock: u64,
    page_ins: u64,
    page_outs: u64,
    spilled_bytes: u64,
    /// Largest token count ever inserted (the token bound of a completed
    /// exploration) — tracked incrementally so computing it never pages.
    max_word: u32,
}

impl SpillStore {
    /// An empty spillable store over `stride` places. Its index starts
    /// small and doubles at 7/8 load, like [`MarkingStore`]'s.
    pub fn new(stride: usize, config: &SpillConfig) -> Self {
        SpillStore {
            index: RowIndex::with_capacity(0),
            rows: SpillRows {
                stride,
                seg_rows: config.segment_rows.max(2),
                segments: Vec::new(),
                resident_payload: 0,
                budget_bytes: config.resident_payload_bytes,
                spill_dir: config.spill_dir.clone(),
                pager: None,
                clock: 0,
                page_ins: 0,
                page_outs: 0,
                spilled_bytes: 0,
                max_word: 0,
            },
        }
    }

    /// The per-marking stride (place count).
    pub fn stride(&self) -> usize {
        self.rows.stride
    }

    /// Number of distinct markings stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no markings.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached 64-bit hash of marking `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn hash_of(&self, i: usize) -> u64 {
        self.index.hashes[i]
    }

    /// The largest token count any stored marking puts in any place.
    pub fn max_word(&self) -> u32 {
        self.rows.max_word
    }

    /// Spill activity counters.
    pub fn stats(&self) -> SpillStats {
        let rows = &self.rows;
        SpillStats {
            segments: rows.segments.len(),
            resident_segments: rows.segments.iter().filter(|s| s.resident).count(),
            spilled_bytes: rows.spilled_bytes,
            page_ins: rows.page_ins,
            page_outs: rows.page_outs,
            resident_payload_bytes: rows.resident_payload,
        }
    }

    /// Bytes currently resident: index + hashes + references + payload.
    pub fn resident_bytes(&self) -> usize {
        self.index.resident_bytes()
            + self
                .rows
                .segments
                .iter()
                .map(|s| s.reference.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
            + self.rows.resident_payload
    }

    /// Materializes marking `i` into `out` (cleared first), paging its
    /// segment in if needed.
    ///
    /// # Errors
    ///
    /// [`PetriError::SpillIo`] if the page-in fails.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get_into(&mut self, i: usize, out: &mut Vec<u32>) -> Result<(), PetriError> {
        assert!(i < self.len(), "marking id {i} out of range");
        self.rows.get_into(i, out)
    }

    /// Looks up a marking, returning its id if present. May page in the
    /// candidate's segment to confirm equality (at most one segment: the
    /// full 64-bit hash is compared first, so false candidates are
    /// rejected without touching disk in all but ~2^-64 of probes).
    ///
    /// # Errors
    ///
    /// [`PetriError::SpillIo`] if a confirming page-in fails.
    pub fn find_hashed(&mut self, m: &[u32], hash: u64) -> Result<Option<u32>, PetriError> {
        debug_assert_eq!(m.len(), self.rows.stride, "marking over different net");
        let (hashes, rows) = (&self.index.hashes, &mut self.rows);
        self.index
            .find(hash, |id| Ok(hashes[id] == hash && rows.matches(id, m)?))
    }

    /// Inserts a marking the caller has verified absent (via
    /// [`SpillStore::find_hashed`] with the same hash); returns its id.
    ///
    /// # Errors
    ///
    /// [`PetriError::IndexOverflow`] at the 32-bit id cap,
    /// [`PetriError::AllocationFailed`] on refused growth, or
    /// [`PetriError::SpillIo`] if making room required an eviction that
    /// failed. On error the store holds exactly the rows it held before.
    pub fn insert_new_hashed(&mut self, m: &[u32], hash: u64) -> Result<u32, PetriError> {
        debug_assert_eq!(m.len(), self.rows.stride, "marking over different net");
        self.index.reserve_one()?;
        self.rows.append(m)?;
        Ok(self.index.push(hash))
    }

    /// Finds or inserts; returns `(id, newly_inserted)`.
    ///
    /// # Errors
    ///
    /// Propagates [`SpillStore::find_hashed`] /
    /// [`SpillStore::insert_new_hashed`] failures.
    pub fn try_intern(&mut self, m: &[u32]) -> Result<(u32, bool), PetriError> {
        let hash = MarkingStore::hash_slice(m);
        match self.find_hashed(m, hash)? {
            Some(id) => Ok((id, false)),
            None => self.insert_new_hashed(m, hash).map(|id| (id, true)),
        }
    }
}

impl SpillRows {
    fn get_into(&mut self, i: usize, out: &mut Vec<u32>) -> Result<(), PetriError> {
        let seg_idx = i / self.seg_rows;
        self.ensure_resident(seg_idx)?;
        let seg = &self.segments[seg_idx];
        let row = i % self.seg_rows;
        out.clear();
        out.extend_from_slice(&seg.reference);
        let (a, b) = (seg.offsets[row] as usize, seg.offsets[row + 1] as usize);
        for pair in seg.payload[a..b].chunks_exact(2) {
            out[pair[0] as usize] = pair[1];
        }
        Ok(())
    }

    /// Appends `m` as the next row. On error no row was added: room for
    /// a new segment is made before the segment exists.
    fn append(&mut self, m: &[u32]) -> Result<(), PetriError> {
        let start_new = self
            .segments
            .last()
            .is_none_or(|tail| tail.rows == self.seg_rows);
        if start_new {
            // A full tail is sealed whether or not this append succeeds.
            if let Some(tail) = self.segments.last_mut() {
                tail.sealed = true;
            }
            let fresh = Segment::fresh(m.to_vec());
            self.enforce_budget(usize::MAX, fresh.payload_bytes())?;
            self.resident_payload += fresh.payload_bytes();
            self.segments.push(fresh);
            for &w in m {
                self.max_word = self.max_word.max(w);
            }
        } else {
            let tail_idx = self.segments.len() - 1;
            let before = self.segments[tail_idx].payload_bytes();
            let tail = &mut self.segments[tail_idx];
            for (pos, (&new, &old)) in m.iter().zip(&tail.reference).enumerate() {
                if new != old {
                    tail.payload.push(pos as u32);
                    tail.payload.push(new);
                    self.max_word = self.max_word.max(new);
                }
            }
            tail.offsets.push(tail.payload.len() as u32);
            tail.rows += 1;
            self.resident_payload += self.segments[tail_idx].payload_bytes() - before;
        }
        Ok(())
    }

    /// Compares row `id` against `m` without materializing the row:
    /// interleaves the reference run-compare with the delta pairs.
    fn matches(&mut self, id: usize, m: &[u32]) -> Result<bool, PetriError> {
        let seg_idx = id / self.seg_rows;
        self.ensure_resident(seg_idx)?;
        let seg = &self.segments[seg_idx];
        let row = id % self.seg_rows;
        let (a, b) = (seg.offsets[row] as usize, seg.offsets[row + 1] as usize);
        let mut next = 0usize;
        for pair in seg.payload[a..b].chunks_exact(2) {
            let pos = pair[0] as usize;
            if m[next..pos] != seg.reference[next..pos] || m[pos] != pair[1] {
                return Ok(false);
            }
            next = pos + 1;
        }
        Ok(m[next..] == seg.reference[next..])
    }

    fn ensure_resident(&mut self, seg_idx: usize) -> Result<(), PetriError> {
        self.clock += 1;
        let clock = self.clock;
        if !self.segments[seg_idx].resident {
            let (off, off_words, pay_words) = match self.segments[seg_idx].disk {
                Some(d) => d,
                // A non-resident segment always has a disk extent.
                None => unreachable!("paged-out segment without disk extent"),
            };
            let pager = match self.pager.as_mut() {
                Some(p) => p,
                None => unreachable!("paged-out segment without pager"),
            };
            let mut words = Vec::new();
            pager.read_words(off, off_words as usize + pay_words as usize, &mut words)?;
            let seg = &mut self.segments[seg_idx];
            seg.payload = words.split_off(off_words as usize);
            seg.offsets = words;
            seg.resident = true;
            self.page_ins += 1;
            self.resident_payload += self.segments[seg_idx].payload_bytes();
            self.enforce_budget(seg_idx, 0)?;
        }
        self.segments[seg_idx].touch = clock;
        Ok(())
    }

    /// Evicts cold sealed segments (never `protect`, never the tail)
    /// until the resident payload plus `incoming` bytes fits the budget
    /// or nothing evictable remains.
    fn enforce_budget(&mut self, protect: usize, incoming: usize) -> Result<(), PetriError> {
        while self.resident_payload + incoming > self.budget_bytes {
            let victim = self
                .segments
                .iter()
                .enumerate()
                .filter(|(i, s)| *i != protect && s.sealed && s.resident)
                .min_by_key(|(_, s)| s.touch)
                .map(|(i, _)| i);
            let Some(v) = victim else { return Ok(()) };
            self.evict(v)?;
        }
        Ok(())
    }

    fn evict(&mut self, seg_idx: usize) -> Result<(), PetriError> {
        if self.segments[seg_idx].disk.is_none() {
            if self.pager.is_none() {
                self.pager = Some(Pager::open(self.spill_dir.as_deref())?);
            }
            let pager = match self.pager.as_mut() {
                Some(p) => p,
                None => unreachable!("pager just created"),
            };
            let seg = &self.segments[seg_idx];
            let off = pager.append(&seg.offsets, &seg.payload)?;
            let extent = (off, seg.offsets.len() as u32, seg.payload.len() as u32);
            self.spilled_bytes += (seg.offsets.len() + seg.payload.len()) as u64 * 4;
            self.segments[seg_idx].disk = Some(extent);
        }
        let seg = &mut self.segments[seg_idx];
        self.resident_payload -= seg.payload_bytes();
        seg.offsets = Vec::new();
        seg.payload = Vec::new();
        seg.resident = false;
        self.page_outs += 1;
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_and_preserves_order() {
        let mut s = MarkingStore::new(2);
        assert_eq!(s.intern(&[0, 1]), (0, true));
        assert_eq!(s.intern(&[1, 0]), (1, true));
        assert_eq!(s.intern(&[0, 1]), (0, false));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), &[0, 1]);
        assert_eq!(s.get(1), &[1, 0]);
    }

    #[test]
    fn find_distinguishes_all_members() {
        let mut s = MarkingStore::new(3);
        for i in 0..500u32 {
            s.intern(&[i, i / 3, i % 7]);
        }
        assert_eq!(s.len(), 500);
        for i in 0..500u32 {
            assert_eq!(s.find(&[i, i / 3, i % 7]), Some(i));
        }
        assert_eq!(s.find(&[1000, 0, 0]), None);
    }

    #[test]
    fn growth_rehashes_correctly() {
        let mut s = MarkingStore::with_capacity(1, 0);
        for i in 0..10_000u32 {
            assert_eq!(s.intern(&[i]), (i, true));
        }
        for i in 0..10_000u32 {
            assert_eq!(s.find(&[i]), Some(i));
            assert_eq!(s.get(i as usize), &[i]);
        }
    }

    #[test]
    fn zero_stride_degenerate_net() {
        let mut s = MarkingStore::new(0);
        assert_eq!(s.intern(&[]), (0, true));
        assert_eq!(s.intern(&[]), (0, false));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0), &[] as &[u32]);
    }

    #[test]
    fn try_intern_matches_intern_and_survives_growth() {
        let mut a = MarkingStore::new(2);
        let mut b = MarkingStore::new(2);
        for i in 0..5_000u32 {
            let m = [i % 97, i];
            assert_eq!(a.try_intern(&m).unwrap(), b.intern(&m));
        }
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn failed_insert_leaves_store_usable() {
        // Simulate the id-space cap by filling `len` artificially is not
        // possible without 4 billion inserts; instead check the error
        // path contract at the API level: an error from
        // `insert_new_hashed` must not disturb existing content.
        let mut s = MarkingStore::new(1);
        s.intern(&[1]);
        s.intern(&[2]);
        // A duplicate insert is a caller bug (debug_assert), so probe the
        // non-mutating failure contract via find on the intact store.
        assert_eq!(s.find(&[1]), Some(0));
        assert_eq!(s.find(&[2]), Some(1));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn hash_is_content_deterministic() {
        let a = MarkingStore::hash_slice(&[1, 2, 3]);
        let b = MarkingStore::hash_slice(&[1, 2, 3]);
        let c = MarkingStore::hash_slice(&[3, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c, "order must matter");
    }

    fn tiny_spill_config() -> SpillConfig {
        // Zero payload budget + tiny segments: every sealed segment is
        // forced to disk immediately, so the spill path is exercised
        // even by small test stores.
        SpillConfig {
            resident_payload_bytes: 0,
            segment_rows: 8,
            spill_dir: None,
        }
    }

    fn pseudo_marking(i: u32, stride: usize) -> Vec<u32> {
        (0..stride as u32)
            .map(|p| MarkingStore::mix(u64::from(i) << 16 | u64::from(p)) as u32 % 5)
            .collect()
    }

    #[test]
    fn spill_roundtrips_every_row_exactly() {
        let stride = 11;
        let mut spill = SpillStore::new(stride, &tiny_spill_config());
        let mut resident = MarkingStore::new(stride);
        for i in 0..2_000u32 {
            let m = pseudo_marking(i, stride);
            let (a, new_a) = spill.try_intern(&m).unwrap();
            let (b, new_b) = resident.intern(&m);
            assert_eq!((a, new_a), (b, new_b), "id divergence at {i}");
        }
        let stats = spill.stats();
        assert!(stats.page_outs > 0, "tiny budget must force spilling");
        assert!(stats.spilled_bytes > 0);
        let mut buf = Vec::new();
        for id in 0..resident.len() {
            spill.get_into(id, &mut buf).unwrap();
            assert_eq!(buf.as_slice(), resident.get(id), "row {id} corrupt");
            assert_eq!(spill.hash_of(id), resident.hash_of(id));
        }
        // Lookups agree after all that paging, too.
        for i in 0..2_000u32 {
            let m = pseudo_marking(i, stride);
            let hash = MarkingStore::hash_slice(&m);
            assert_eq!(
                spill.find_hashed(&m, hash).unwrap(),
                resident.find_hashed(&m, hash)
            );
        }
    }

    #[test]
    fn spill_find_rejects_absent_markings() {
        let mut spill = SpillStore::new(3, &tiny_spill_config());
        for i in 0..100u32 {
            spill.try_intern(&[i, i % 3, 1]).unwrap();
        }
        let absent = [999u32, 0, 1];
        assert_eq!(
            spill
                .find_hashed(&absent, MarkingStore::hash_slice(&absent))
                .unwrap(),
            None
        );
    }

    #[test]
    fn spill_tracks_max_word_incrementally() {
        let mut spill = SpillStore::new(2, &tiny_spill_config());
        spill.try_intern(&[1, 0]).unwrap();
        spill.try_intern(&[1, 7]).unwrap();
        spill.try_intern(&[3, 2]).unwrap();
        assert_eq!(spill.max_word(), 7);
    }

    #[test]
    fn spill_resident_bytes_bounded_by_budget() {
        let stride = 64;
        let cfg = SpillConfig {
            resident_payload_bytes: 4 << 10,
            segment_rows: 32,
            spill_dir: None,
        };
        let mut spill = SpillStore::new(stride, &cfg);
        let mut m = vec![0u32; stride];
        for i in 0..4_000u32 {
            m[(i as usize * 7) % stride] = i % 9;
            m[(i as usize * 13) % stride] = i % 4;
            spill.try_intern(&m).unwrap();
        }
        let stats = spill.stats();
        // The sealed payload must respect the ceiling (the tail segment
        // and references stay resident by design).
        assert!(
            stats.resident_payload_bytes
                <= cfg.resident_payload_bytes + (stride * 8 + 8) * std::mem::size_of::<u32>(),
            "resident payload {} exceeds budget",
            stats.resident_payload_bytes
        );
        assert!(stats.page_outs > 0);
    }

    #[test]
    fn failed_spill_insert_leaves_no_trace() {
        // No resident payload, two-row segments and a spill directory
        // that does not exist: the third insert must seal and evict the
        // first segment, and the eviction fails.
        let missing = std::env::temp_dir()
            .join(format!("cpn-missing-spill-dir-{}", std::process::id()))
            .join("absent");
        let cfg = SpillConfig {
            resident_payload_bytes: 0,
            segment_rows: 2,
            spill_dir: Some(missing),
        };
        let mut spill = SpillStore::new(2, &cfg);
        assert_eq!(spill.try_intern(&[1, 0]).unwrap(), (0, true));
        assert_eq!(spill.try_intern(&[2, 0]).unwrap(), (1, true));
        assert!(matches!(
            spill.try_intern(&[3, 0]),
            Err(PetriError::SpillIo { .. })
        ));
        assert_eq!(spill.len(), 2);
        assert_eq!(spill.stats().segments, 1);
        let mut row = Vec::new();
        for (id, want) in [[1, 0], [2, 0]].iter().enumerate() {
            spill.get_into(id, &mut row).unwrap();
            assert_eq!(&row, want, "row {id}");
        }
        let absent = [3, 0];
        let hash = MarkingStore::hash_slice(&absent);
        assert_eq!(spill.find_hashed(&absent, hash).unwrap(), None);
    }

    #[test]
    fn resident_bytes_scales_with_content() {
        let mut s = MarkingStore::new(4);
        let before = s.resident_bytes();
        for i in 0..1000u32 {
            s.intern(&[i, 0, 0, 0]);
        }
        assert!(s.resident_bytes() > before);
        // Arena dominates: 16 bytes of marking + 8 of hash per state,
        // plus the slot table.
        assert!(s.resident_bytes() < 1000 * 64);
    }
}
