//! The interned marking arena behind every explorer.
//!
//! [`MarkingStore`] keeps each distinct row exactly once, in one flat
//! `Vec` of row words with a fixed stride — no per-marking heap
//! allocation, no duplicate key storage. Membership queries go through an
//! in-tree open-addressing hash index whose slots hold only a
//! `(hash fragment, state id)` pair packed in a `u64`; full-row
//! comparison reads straight out of the arena.
//!
//! The store is generic over its row word. The reachability kernel keeps
//! packed `u64` rows (`RowFormat`: one field of one width per place);
//! coverability
//! (whose ω sentinel needs every `u32` value) and the STG state graph
//! (marking counts followed by encoding bits) keep `u32` rows.
//!
//! Collision policy: linear probing, no deletions (exploration only ever
//! inserts), table grown at 7/8 load with a full rehash from the per-row
//! hash cache.

use crate::error::PetriError;
use std::fmt;

/// Sentinel for an empty index slot.
const EMPTY: u64 = 0;
/// Initial table capacity (power of two).
const INITIAL_SLOTS: usize = 16;
/// The hash bits an index slot keeps as its tag; the low half holds
/// `id + 1`.
const HIGH_MASK: u64 = 0xFFFF_FFFF_0000_0000;

/// The membership index: the full 64-bit hash of every row in id order,
/// and an open-addressing slot table over them whose entries are
/// `(hash & HIGH_MASK) | (id + 1)`, 0 = empty. The slot table starts
/// small and doubles at 7/8 load, rehashing from the hash cache, so its
/// size follows the rows stored and nothing else.
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
    fn find(&self, hash: u64, is_row: impl Fn(usize) -> bool) -> Option<u32> {
        let tag = hash & HIGH_MASK;
        let mut slot = (hash as usize) & self.mask;
        loop {
            let entry = self.table[slot];
            if entry == EMPTY {
                return None;
            }
            if entry & HIGH_MASK == tag {
                let id = ((entry & !HIGH_MASK) - 1) as usize;
                if is_row(id) {
                    return Some(id as u32);
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

    /// Re-places every row from the hash cache into an empty table.
    fn rebuild(&mut self) {
        self.table.fill(EMPTY);
        for i in 0..self.hashes.len() {
            self.place(self.hashes[i], i as u32);
        }
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
        self.rebuild();
        Ok(())
    }

    /// Bytes held by the hash cache and the slot table.
    fn resident_bytes(&self) -> usize {
        (self.hashes.capacity() + self.table.capacity()) * std::mem::size_of::<u64>()
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for u32 {}
    impl Sealed for u64 {}
}

/// A word a [`MarkingStore`] row is made of: `u32` (one token count or
/// one bit-word per entry) or `u64` (a word of packed token counts).
pub trait RowWord: Copy + Eq + Default + fmt::Debug + Send + Sync + sealed::Sealed {
    /// The word widened to 64 bits, as the row hash reads it.
    fn to_u64(self) -> u64;
}

impl RowWord for u32 {
    #[inline]
    fn to_u64(self) -> u64 {
        u64::from(self)
    }
}

impl RowWord for u64 {
    #[inline]
    fn to_u64(self) -> u64 {
        self
    }
}

/// A deduplicating arena of fixed-stride rows: packed markings, `u32`
/// markings, or any per-state payload such as the STG kernel's
/// marking+encoding words.
///
/// Ids are dense `u32`s in insertion order, so the store doubles as the
/// state numbering of a breadth-first exploration.
///
/// # Example
///
/// ```
/// use cpn_petri::store::MarkingStore;
///
/// let mut store = MarkingStore::<u32>::new(3);
/// let (a, new_a) = store.intern(&[1, 0, 2]);
/// let (b, new_b) = store.intern(&[1, 0, 2]);
/// assert_eq!((a, new_a), (0, true));
/// assert_eq!((b, new_b), (0, false));
/// assert_eq!(store.get(0), &[1, 0, 2]);
/// assert_eq!(store.len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct MarkingStore<W: RowWord = u32> {
    stride: usize,
    /// Flat arena: row `i` lives at `data[i*stride .. (i+1)*stride]`.
    data: Vec<W>,
    index: RowIndex,
}

impl<W: RowWord> MarkingStore<W> {
    /// An empty store of `stride`-word rows.
    pub fn new(stride: usize) -> Self {
        Self::with_capacity(stride, 0)
    }

    /// An empty store pre-sized for about `cap` rows.
    pub fn with_capacity(stride: usize, cap: usize) -> Self {
        MarkingStore {
            stride,
            data: Vec::with_capacity(cap * stride),
            index: RowIndex::with_capacity(cap),
        }
    }

    /// The row length in words.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of distinct rows stored.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row with id `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> &[W] {
        assert!(i < self.len(), "marking id {i} out of range");
        &self.data[i * self.stride..(i + 1) * self.stride]
    }

    /// The cached 64-bit hash of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn hash_of(&self, i: usize) -> u64 {
        self.index.hashes[i]
    }

    /// Iterates over all stored rows in id order.
    pub fn iter(&self) -> impl Iterator<Item = &[W]> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// The content hash used by the index: a SplitMix64 chain over the
    /// row's words, seeded by its length. Deterministic, allocation-free
    /// and identical across runs; one mix per word, so a one-word packed
    /// row costs one mix.
    #[inline]
    pub fn hash_slice(row: &[W]) -> u64 {
        let mut h = 0x9E37_79B9_7F4A_7C15 ^ (row.len() as u64);
        for &w in row {
            h = crate::hash::mix64(h ^ w.to_u64());
        }
        h
    }

    /// Looks up a row, returning its id if present.
    pub fn find(&self, row: &[W]) -> Option<u32> {
        self.find_hashed(row, Self::hash_slice(row))
    }

    /// [`MarkingStore::find`] with the hash precomputed by the caller.
    #[inline]
    pub fn find_hashed(&self, row: &[W], hash: u64) -> Option<u32> {
        debug_assert_eq!(row.len(), self.stride, "row over different net");
        self.index.find(hash, |id| {
            &self.data[id * self.stride..(id + 1) * self.stride] == row
        })
    }

    /// Inserts a row the caller has verified to be absent (via
    /// [`MarkingStore::find_hashed`] with the same hash) and returns its
    /// new id.
    ///
    /// # Errors
    ///
    /// Returns [`PetriError::IndexOverflow`] when the store already holds
    /// `u32::MAX - 1` rows (the id space of the packed index slots), or
    /// [`PetriError::AllocationFailed`] when growing the arena or the
    /// slot table is refused by the allocator. Either way the store is
    /// left unchanged and fully usable — explorers stop with a
    /// [`Resource::Storage`](crate::budget::Resource::Storage) stop and
    /// hand back the prefix built so far, so one pathological net
    /// degrades a worker instead of killing it.
    pub fn insert_new_hashed(&mut self, row: &[W], hash: u64) -> Result<u32, PetriError> {
        debug_assert_eq!(row.len(), self.stride, "row over different net");
        debug_assert!(self.find_hashed(row, hash).is_none(), "duplicate insert");
        self.index.reserve_one()?;
        self.data
            .try_reserve(self.stride)
            .map_err(|_| PetriError::AllocationFailed {
                bytes: self.stride * std::mem::size_of::<W>(),
            })?;
        self.data.extend_from_slice(row);
        Ok(self.index.push(hash))
    }

    /// Finds or inserts a row; returns `(id, newly_inserted)`.
    ///
    /// # Errors
    ///
    /// Propagates [`MarkingStore::insert_new_hashed`] failures (id-space
    /// overflow, allocator refusal); the store is unchanged on error.
    pub fn try_intern(&mut self, row: &[W]) -> Result<(u32, bool), PetriError> {
        let hash = Self::hash_slice(row);
        match self.find_hashed(row, hash) {
            Some(id) => Ok((id, false)),
            None => self.insert_new_hashed(row, hash).map(|id| (id, true)),
        }
    }

    /// Finds or inserts a row; returns `(id, newly_inserted)`.
    ///
    /// # Panics
    ///
    /// Panics if the 32-bit id space overflows (more than ~4 billion
    /// distinct rows) or the allocator refuses growth; budgeted
    /// explorers stop long before and use the fallible
    /// [`MarkingStore::try_intern`] / [`MarkingStore::insert_new_hashed`]
    /// on their hot paths.
    pub fn intern(&mut self, row: &[W]) -> (u32, bool) {
        match self.try_intern(row) {
            Ok(r) => r,
            Err(e) => panic!("marking arena overflow: {e}"),
        }
    }

    /// Rewrites every row through `f` into rows of `stride` words,
    /// keeping every id, and rehashes the index. `f` must be injective,
    /// so distinct rows stay distinct.
    ///
    /// # Errors
    ///
    /// [`PetriError::AllocationFailed`] when the new arena cannot be
    /// allocated; the store is then unchanged.
    pub(crate) fn rewrite(
        &mut self,
        stride: usize,
        mut f: impl FnMut(&[W], &mut Vec<W>),
    ) -> Result<(), PetriError> {
        let mut data = Vec::new();
        let bytes = self.len() * stride * std::mem::size_of::<W>();
        data.try_reserve_exact(self.len() * stride)
            .map_err(|_| PetriError::AllocationFailed { bytes })?;
        let mut row = Vec::with_capacity(stride);
        for old in self.iter() {
            f(old, &mut row);
            debug_assert_eq!(row.len(), stride, "rewritten row of wrong stride");
            data.extend_from_slice(&row);
        }
        self.data = data;
        self.stride = stride;
        for i in 0..self.len() {
            self.index.hashes[i] = Self::hash_slice(self.get(i));
        }
        self.index.rebuild();
        Ok(())
    }

    /// Bytes resident in the arena, hash cache and index.
    pub fn resident_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<W>() + self.index.resident_bytes()
    }
}

/// The layout of a packed marking row: every place gets one field of
/// `width` bits, `⌊64 / width⌋` fields to a `u64` word, place `p` in
/// word `p / ⌊64 / width⌋`. No field straddles a word. A one-bit row is
/// its own occupancy bitmap: bit `p` of word `p / 64` is set exactly
/// when place `p` is marked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RowFormat {
    places: usize,
    /// Bits per field, 1..=32.
    width: u32,
    /// Fields per word, `⌊64 / width⌋`.
    per_word: u32,
    /// `⌈2^64 / per_word⌉`: the high half of `p · per_word_inv` is
    /// `p / per_word` for every `p < 2^58`.
    per_word_inv: u64,
    /// `⌈2^16 / width⌉`: `(b · width_inv) >> 16` is `b / width` for
    /// every bit index `b < 64`.
    width_inv: u32,
    /// Bit 0 of every field of a word.
    lows: u64,
}

impl RowFormat {
    fn with_width(places: usize, width: u32) -> Self {
        debug_assert!((1..=32).contains(&width), "field width {width}");
        let per_word = 64 / width;
        RowFormat {
            places,
            width,
            per_word,
            per_word_inv: u64::MAX / u64::from(per_word) + 1,
            width_inv: (1u32 << 16).div_ceil(width),
            lows: (0..per_word).fold(0, |acc, i| acc | 1 << (i * width)),
        }
    }

    /// The narrowest format that holds `m`: `bits(max count)`, at least
    /// one.
    pub(crate) fn fitting(m: &[u32]) -> Self {
        let max = m.iter().copied().max().unwrap_or(0);
        Self::with_width(m.len(), (u32::BITS - max.leading_zeros()).max(1))
    }

    /// Number of places (fields) per row.
    pub(crate) fn places(self) -> usize {
        self.places
    }

    /// The largest count a field holds.
    pub(crate) fn field_max(self) -> u32 {
        u32::MAX >> (u32::BITS - self.width)
    }

    /// Row length in `u64` words.
    pub(crate) fn words(self) -> usize {
        self.places.div_ceil(self.per_word as usize)
    }

    /// The format of twice the width (at most 32 bits), or `None` at 32.
    pub(crate) fn widened(self) -> Option<Self> {
        (self.width < 32).then(|| Self::with_width(self.places, (self.width * 2).min(32)))
    }

    /// The word and bit offset of place `p`'s field, by multiply-high
    /// rather than division.
    #[inline]
    pub(crate) fn locate(self, p: usize) -> (usize, u32) {
        let word = ((p as u128 * u128::from(self.per_word_inv)) >> 64) as usize;
        (
            word,
            (p - word * self.per_word as usize) as u32 * self.width,
        )
    }

    /// The count of place `p` in `row`.
    #[inline]
    pub(crate) fn get(self, row: &[u64], p: usize) -> u32 {
        let (w, shift) = self.locate(p);
        ((row[w] >> shift) & u64::from(self.field_max())) as u32
    }

    /// Packs `m` into `out` (cleared first). Returns `false`, leaving
    /// `out` unspecified, when some count exceeds
    /// [`RowFormat::field_max`].
    pub(crate) fn encode(self, m: &[u32], out: &mut Vec<u64>) -> bool {
        debug_assert_eq!(m.len(), self.places, "marking over different net");
        out.clear();
        out.resize(self.words(), 0);
        for (p, &count) in m.iter().enumerate() {
            if count > self.field_max() {
                return false;
            }
            let (w, shift) = self.locate(p);
            out[w] |= u64::from(count) << shift;
        }
        true
    }

    /// Unpacks `row` into per-place counts in `out` (cleared first).
    pub(crate) fn decode(self, row: &[u64], out: &mut Vec<u32>) {
        out.clear();
        out.extend((0..self.places).map(|p| self.get(row, p)));
    }

    /// Repacks `row` into the wider format `to`, writing `out`.
    pub(crate) fn reencode(self, row: &[u64], to: RowFormat, out: &mut Vec<u64>) {
        debug_assert!(to.width >= self.width, "repacking would truncate");
        out.clear();
        out.resize(to.words(), 0);
        for p in 0..self.places {
            let (w, shift) = to.locate(p);
            out[w] |= u64::from(self.get(row, p)) << shift;
        }
    }

    /// The occupancy bitmap of `row` (bit `p` set iff place `p` is
    /// marked): the row itself at one bit per place, otherwise computed
    /// into `buf`.
    #[inline]
    pub(crate) fn occupancy<'a>(self, row: &'a [u64], buf: &'a mut Vec<u64>) -> &'a [u64] {
        if self.width == 1 {
            return row;
        }
        buf.clear();
        buf.resize(self.places.div_ceil(64), 0);
        let highs = self.lows << (self.width - 1);
        for (wi, &x) in row.iter().enumerate() {
            // A field's top bit, after adding `2^(width-1) - 1` to its
            // other bits (no carry leaves the field), is set iff the
            // field is nonzero.
            let mut marked = (((x & !highs) + (highs - self.lows)) | x) & highs;
            while marked != 0 {
                let field = (marked.trailing_zeros() * self.width_inv) >> 16;
                marked &= marked - 1;
                let p = wi * self.per_word as usize + field as usize;
                buf[p >> 6] |= 1 << (p & 63);
            }
        }
        buf
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_and_preserves_order() {
        let mut s = MarkingStore::<u32>::new(2);
        assert_eq!(s.intern(&[0, 1]), (0, true));
        assert_eq!(s.intern(&[1, 0]), (1, true));
        assert_eq!(s.intern(&[0, 1]), (0, false));
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(0), &[0, 1]);
        assert_eq!(s.get(1), &[1, 0]);
    }

    #[test]
    fn find_distinguishes_all_members() {
        let mut s = MarkingStore::<u32>::new(3);
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
        let mut s = MarkingStore::<u32>::with_capacity(1, 0);
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
        let mut s = MarkingStore::<u64>::new(0);
        assert_eq!(s.intern(&[]), (0, true));
        assert_eq!(s.intern(&[]), (0, false));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0), &[] as &[u64]);
    }

    #[test]
    fn try_intern_matches_intern_and_survives_growth() {
        let mut a = MarkingStore::<u64>::new(2);
        let mut b = MarkingStore::<u64>::new(2);
        for i in 0..5_000u64 {
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
        let mut s = MarkingStore::<u32>::new(1);
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
        let a = MarkingStore::hash_slice(&[1u32, 2, 3]);
        let b = MarkingStore::hash_slice(&[1u32, 2, 3]);
        let c = MarkingStore::hash_slice(&[3u32, 2, 1]);
        assert_eq!(a, b);
        assert_ne!(a, c, "order must matter");
    }

    #[test]
    fn resident_bytes_scales_with_content() {
        let mut s = MarkingStore::<u32>::new(4);
        let before = s.resident_bytes();
        for i in 0..1000u32 {
            s.intern(&[i, 0, 0, 0]);
        }
        assert!(s.resident_bytes() > before);
        // Arena dominates: 16 bytes of marking + 8 of hash per state,
        // plus the slot table.
        assert!(s.resident_bytes() < 1000 * 64);
    }

    #[test]
    fn rewrite_keeps_ids_and_lookups() {
        let mut s = MarkingStore::<u64>::new(1);
        for i in 0..300u64 {
            s.intern(&[i]);
        }
        s.rewrite(2, |row, out| {
            out.clear();
            out.extend([row[0], !row[0]]);
        })
        .unwrap();
        assert_eq!(s.stride(), 2);
        for i in 0..300u64 {
            assert_eq!(s.get(i as usize), &[i, !i]);
            assert_eq!(s.find(&[i, !i]), Some(i as u32));
        }
        assert_eq!(s.find(&[5, 0]), None);
    }

    #[test]
    fn row_format_widths_and_layout() {
        assert_eq!(RowFormat::fitting(&[0, 1, 1]).width, 1);
        assert_eq!(RowFormat::fitting(&[0, 0]).width, 1);
        assert_eq!(RowFormat::fitting(&[3]).width, 2);
        assert_eq!(RowFormat::fitting(&[5]).width, 3);
        assert_eq!(RowFormat::fitting(&[u32::MAX]).width, 32);
        // 24 tokens on 9 places: 5-bit fields, 12 to a word, 45 bits.
        let mesh = RowFormat::fitting(&[24, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert_eq!((mesh.width, mesh.words(), mesh.field_max()), (5, 1, 31));
        let one = RowFormat::fitting(&[1; 65]);
        assert_eq!((one.words(), one.field_max()), (2, 1));
        let wide = RowFormat::fitting(&[u32::MAX; 3]);
        assert_eq!((wide.words(), wide.field_max()), (2, u32::MAX));
        assert_eq!(wide.widened(), None);
        let widths: Vec<u32> = std::iter::successors(Some(mesh), |f| f.widened())
            .map(|f| f.width)
            .collect();
        assert_eq!(widths, vec![5, 10, 20, 32]);
        assert_eq!(one.widened().map(|f| f.width), Some(2));
    }

    #[test]
    fn row_format_addressing_matches_division() {
        for width in 1..=32 {
            let format = RowFormat::with_width(10_000, width);
            let per_word = (64 / width) as usize;
            for p in 0..10_000 {
                let want = (p / per_word, (p % per_word) as u32 * width);
                assert_eq!(format.locate(p), want, "place {p} at width {width}");
            }
            for b in 0..64u32 {
                assert_eq!((b * format.width_inv) >> 16, b / width, "bit {b}");
            }
        }
        let far = RowFormat::with_width(1 << 40, 5);
        let p = (1usize << 40) - 1;
        assert_eq!(far.locate(p), (p / 12, (p % 12) as u32 * 5));
    }

    #[test]
    fn row_format_roundtrips_and_occupancy_matches_counts() {
        let many: Vec<u32> = (0..70).map(|p| p % 7).collect();
        let markings: [&[u32]; 6] = [
            &[1, 0, 1, 1, 0],
            &[3, 0, 2, 1, 0, 0, 3],
            &[9, 0, 0, 15, 1, 0, 0, 0, 2],
            &[24, 0, 0, 3, 0, 0, 0, 1, 0, 0, 0, 0, 31, 5],
            &[u32::MAX, 0, 7, 1, 0],
            &many,
        ];
        for m in markings {
            let mut format = RowFormat::fitting(m);
            loop {
                let mut row = Vec::new();
                assert!(format.encode(m, &mut row));
                assert_eq!(row.len(), format.words());
                let mut back = Vec::new();
                format.decode(&row, &mut back);
                assert_eq!(back, m, "width {}", format.width);
                let mut buf = Vec::new();
                let occ = format.occupancy(&row, &mut buf);
                for (p, &count) in m.iter().enumerate() {
                    let bit = occ[p / 64] >> (p % 64) & 1 == 1;
                    assert_eq!(bit, count > 0, "place {p} at width {}", format.width);
                }
                let Some(wide) = format.widened() else { break };
                let mut repacked = Vec::new();
                format.reencode(&row, wide, &mut repacked);
                let mut direct = Vec::new();
                assert!(wide.encode(m, &mut direct));
                assert_eq!(repacked, direct);
                format = wide;
            }
        }
        let mut row = Vec::new();
        assert!(!RowFormat::fitting(&[1, 0]).encode(&[2, 0], &mut row));
    }
}
