//! Structural-identity LRU cache of compiled nets.
//!
//! Clients resubmitting the same document (an interactive design loop
//! re-verifying after each edit, a CI matrix fanning one net across
//! many property checks, a batch hash-consing its items' documents)
//! should not pay parse + compile per request. The cache is two-tier:
//!
//! 1. a **byte tier** keyed on an FNV-1a hash of the raw document text
//!    plus the requested net name — the zero-parse fast path for exact
//!    resubmissions;
//! 2. a **structural tier** keyed on the net's canonical
//!    [`cpn_petri::NetId`] — documents that differ only in
//!    whitespace, place names, declaration order, or interner history
//!    compile to the same entry, as do shared sub-modules submitted
//!    under different documents.
//!
//! A byte miss that lands on a resident `NetId` costs one parse but no
//! compile, and is counted as a *structural hit*; only lookups whose
//! canonical identity is genuinely absent count as misses.
//!
//! Eviction is least-recently-*used* (every hit refreshes the entry),
//! not FIFO: a hot net a pipelined client hammers between submissions
//! of many cold one-off documents must survive the churn. Capacities
//! are tens of entries, so eviction scans the structural tier for the
//! minimum tick instead of maintaining an ordering structure —
//! O(capacity) per *eviction* (misses only, at most one scan each) and
//! zero overhead on the hit path beyond a counter store. Evicting an
//! entry also purges every byte-tier alias that pointed at it.

use cpn_format::{parse_with_limits, Document, ParseLimits};
use cpn_petri::{CompiledNet, NetId, PetriNet};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// FNV-1a, 64-bit — re-exported from [`cpn_petri::hash`] so existing
/// callers keep compiling while the implementation lives in one place.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    cpn_petri::hash::fnv1a_64(bytes)
}

/// A parsed and compiled net, shared between workers.
#[derive(Debug)]
pub struct CachedNet {
    /// The validated source net (used by analyses that need labels,
    /// e.g. verify's composition).
    pub net: PetriNet<String>,
    /// The compiled firing rule for the hot explorers.
    pub compiled: CompiledNet,
    /// The initial marking as a flat slice.
    pub m0: Vec<u32>,
    /// The canonical structural identity the entry is keyed on.
    pub id: NetId,
}

/// Why a cache lookup failed to produce a net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheMiss {
    /// The document failed to parse (message from `cpn-format`).
    Parse(String),
    /// The document parsed but contains no `net` item with this name.
    NoSuchNet(String),
}

/// Counters describing the cache's behaviour since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache (`byte_hits + structural_hits`).
    pub hits: u64,
    /// Hits on the byte tier: identical document text, no parse.
    pub byte_hits: u64,
    /// Hits on the structural tier: the document had to be parsed but
    /// its canonical [`NetId`] was already resident, so the compile
    /// was skipped.
    pub structural_hits: u64,
    /// Lookups that had to parse + compile (or failed to parse).
    pub misses: u64,
    /// Entries discarded to make room (LRU victims).
    pub evictions: u64,
    /// Entries currently resident (structural tier).
    pub len: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Approximate bytes held by resident entries (nets + compiled
    /// firing rules; see [`CachedNet::approx_bytes`]).
    pub bytes: u64,
}

impl CachedNet {
    /// Approximate resident size of this entry in bytes: places,
    /// transitions, and arcs of both the source net and its compiled
    /// form, plus fixed overhead. An estimate for capacity planning
    /// via `stats`, not an allocator measurement.
    pub fn approx_bytes(&self) -> u64 {
        let arcs: usize = self
            .net
            .transitions()
            .map(|(_, t)| t.preset().len() + t.postset().len())
            .sum();
        // Source net (BTreeSet arc nodes dominate) + compiled CSR
        // (u32 per arc endpoint, twice) + marking slice + overhead.
        64 + 48 * self.net.place_count() as u64
            + 64 * self.net.transition_count() as u64
            + 48 * arcs as u64
            + 4 * self.m0.len() as u64
    }
}

/// Bounded LRU cache mapping documents to compiled nets by canonical
/// structural identity.
#[derive(Debug)]
pub struct NetCache {
    inner: Mutex<CacheInner>,
    limits: ParseLimits,
}

#[derive(Debug)]
struct CacheEntry {
    net: Arc<CachedNet>,
    /// Recency stamp; the entry with the smallest tick is the LRU.
    tick: u64,
    approx_bytes: u64,
}

#[derive(Debug)]
struct CacheInner {
    /// Byte tier: exact (doc hash, net name) pairs seen before, each
    /// an alias for a structural entry. Multiple byte keys may alias
    /// one `NetId` (reformatted or renamed copies of the same net).
    by_bytes: HashMap<(u64, String), NetId>,
    /// Structural tier: the compiled nets themselves.
    by_id: HashMap<NetId, CacheEntry>,
    /// Monotonic use counter; the entry with the smallest stored tick
    /// is the least recently used.
    tick: u64,
    capacity: usize,
    byte_hits: u64,
    structural_hits: u64,
    misses: u64,
    evictions: u64,
}

impl CacheInner {
    fn touch(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Refreshes `id`'s recency and returns its entry, if resident.
    fn refresh(&mut self, id: NetId) -> Option<Arc<CachedNet>> {
        let tick = self.touch();
        let entry = self.by_id.get_mut(&id)?;
        entry.tick = tick;
        Some(Arc::clone(&entry.net))
    }

    /// Records a byte-tier alias for `id` (bounded: aliases of evicted
    /// entries are purged with their target, so the alias map stays
    /// proportional to capacity times distinct spellings seen).
    fn alias(&mut self, key: (u64, String), id: NetId) {
        self.by_bytes.insert(key, id);
    }

    fn evict_to_capacity(&mut self) {
        while self.by_id.len() > self.capacity {
            let victim = self
                .by_id
                .iter()
                .min_by_key(|(_, entry)| entry.tick)
                .map(|(id, _)| *id);
            match victim {
                Some(id) => {
                    self.by_id.remove(&id);
                    self.by_bytes.retain(|_, target| *target != id);
                    self.evictions += 1;
                }
                None => break,
            }
        }
    }
}

impl NetCache {
    /// A cache holding at most `capacity` compiled nets, parsing with
    /// the given limits on misses.
    pub fn new(capacity: usize, limits: ParseLimits) -> Self {
        NetCache {
            inner: Mutex::new(CacheInner {
                by_bytes: HashMap::new(),
                by_id: HashMap::new(),
                tick: 0,
                capacity: capacity.max(1),
                byte_hits: 0,
                structural_hits: 0,
                misses: 0,
                evictions: 0,
            }),
            limits,
        }
    }

    /// The compiled net for `name` inside `doc`, parsing and compiling
    /// on a miss. Hits refresh the entry's recency. An exact resubmit
    /// is a byte hit (no parse); a reformatted or renamed copy of a
    /// resident net is a structural hit (parse, no compile).
    ///
    /// # Errors
    ///
    /// [`CacheMiss`] when the document is malformed or names no such
    /// net; errors are not cached (the retry cost is the parse, and a
    /// poisoned negative entry would outlive a client's fixed resubmit)
    /// but do count as misses.
    pub fn get_or_compile(&self, doc: &str, name: &str) -> Result<Arc<CachedNet>, CacheMiss> {
        self.lookup(doc, fnv1a(doc.as_bytes()), name, &mut None, false)
    }

    /// The compiled nets for `names` inside one `doc`, in order, from
    /// at most one parse. Lookups are counted and refreshed exactly as
    /// that many [`get_or_compile`](Self::get_or_compile) calls in a
    /// row: a byte hit, structural hit or miss per name.
    ///
    /// # Errors
    ///
    /// The [`CacheMiss`] of the first lookup that fails, as the calls
    /// in a row would return it; the names after it are not looked up.
    pub fn get_or_compile_many(
        &self,
        doc: &str,
        names: &[&str],
    ) -> Result<Vec<Arc<CachedNet>>, CacheMiss> {
        let hash = fnv1a(doc.as_bytes());
        let mut parsed = None;
        names
            .iter()
            .enumerate()
            .map(|(i, name)| {
                let again = names[i + 1..].contains(name);
                self.lookup(doc, hash, name, &mut parsed, again)
            })
            .collect()
    }

    /// One lookup of `name` in `doc` (whose FNV-1a hash is `hash`).
    /// `parsed` holds the document once a byte miss has parsed it, for
    /// the lookups after this one; a net compiled here is moved out of
    /// it unless `again` says a later lookup names it too.
    fn lookup(
        &self,
        doc: &str,
        hash: u64,
        name: &str,
        parsed: &mut Option<Document>,
        again: bool,
    ) -> Result<Arc<CachedNet>, CacheMiss> {
        let key = (hash, name.to_owned());
        {
            let mut inner = self.lock();
            if let Some(&id) = inner.by_bytes.get(&key) {
                match inner.refresh(id) {
                    Some(hit) => {
                        inner.byte_hits += 1;
                        return Ok(hit);
                    }
                    // Stale alias: the structural entry was evicted
                    // between this lookup's byte key landing and now.
                    // (Eviction purges aliases, so this arm is only
                    // reachable if the two tiers ever disagree; drop
                    // the alias and fall through to the slow path.)
                    None => {
                        inner.by_bytes.remove(&key);
                    }
                }
            }
        }
        // Parse outside the lock: a slow adversarial document must not
        // serialize every other worker's lookups.
        let document = match parsed {
            Some(document) => document,
            None => match parse_with_limits(doc, &self.limits) {
                Ok(document) => parsed.insert(document),
                Err(e) => {
                    self.lock().misses += 1;
                    return Err(CacheMiss::Parse(e.to_string()));
                }
            },
        };
        let Some(pos) = document.nets.iter().position(|(n, _)| n == name) else {
            self.lock().misses += 1;
            return Err(CacheMiss::NoSuchNet(name.to_owned()));
        };
        let id = document.nets[pos].1.net_id();
        {
            // Structural probe: the canonical identity may already be
            // resident under a different spelling. Count the miss here
            // — only when the identity is genuinely absent — so a
            // reformatted resubmit is a (structural) hit, not a miss.
            let mut inner = self.lock();
            if let Some(hit) = inner.refresh(id) {
                inner.structural_hits += 1;
                inner.alias(key, id);
                return Ok(hit);
            }
            inner.misses += 1;
        }
        let net = if again {
            document.nets[pos].1.clone()
        } else {
            // `remove` keeps the order, so a later name still finds its
            // first net.
            document.nets.remove(pos).1
        };
        // Compile outside the lock for the same reason as the parse.
        let compiled = net.compile();
        let m0 = net.initial_marking().as_slice().to_vec();
        let entry = Arc::new(CachedNet {
            net,
            compiled,
            m0,
            id,
        });
        let approx_bytes = entry.approx_bytes();
        let mut inner = self.lock();
        let tick = inner.touch();
        match inner.by_id.entry(id) {
            // Another worker compiled the same net concurrently; keep
            // its entry (both are equivalent) and refresh it.
            Entry::Occupied(mut e) => {
                e.get_mut().tick = tick;
                let hit = Arc::clone(&e.get().net);
                inner.alias(key, id);
                Ok(hit)
            }
            Entry::Vacant(e) => {
                e.insert(CacheEntry {
                    net: Arc::clone(&entry),
                    tick,
                    approx_bytes,
                });
                inner.alias(key, id);
                inner.evict_to_capacity();
                Ok(entry)
            }
        }
    }

    /// Whether a compiled net for `name` inside `doc` is already
    /// resident under this exact document text. Read-only routing
    /// probe: no recency refresh and no hit/miss accounting — callers
    /// that decide to take the entry go through
    /// [`NetCache::get_or_compile`], which does the counting. Byte
    /// tier only: a reformatted copy of a resident net probes `false`
    /// (routing must stay O(hash), not O(parse)).
    pub fn peek(&self, doc: &str, name: &str) -> bool {
        let key = (fnv1a(doc.as_bytes()), name.to_owned());
        let inner = self.lock();
        inner
            .by_bytes
            .get(&key)
            .is_some_and(|id| inner.by_id.contains_key(id))
    }

    /// All counters since construction.
    pub fn full_stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.byte_hits + inner.structural_hits,
            byte_hits: inner.byte_hits,
            structural_hits: inner.structural_hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.by_id.len(),
            capacity: inner.capacity,
            bytes: inner.by_id.values().map(|e| e.approx_bytes).sum(),
        }
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        let s = self.full_stats();
        (s.hits, s.misses)
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.lock().by_id.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner> {
        // A worker that panicked while holding this lock has already
        // been isolated by `catch_unwind`; the cache state itself is
        // only ever mutated in small invariant-preserving steps.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    const DOC: &str = "net n { places { p* q } transition \"t\" { pre: p; post: q } }";

    /// `DOC` reformatted: different whitespace, place names, and net
    /// name — byte-distinct, structurally identical.
    const DOC_REFORMATTED: &str =
        "net other {\n  places { start*  end }\n  transition \"t\" { pre: start; post: end }\n}\n";

    /// A family of *structurally distinct* single-place documents
    /// (token counts differ), for LRU churn tests.
    fn cold_doc(i: usize) -> (String, String) {
        let name = format!("cold{i}");
        (format!("net {name} {{ places {{ p*{} }} }}", i + 2), name)
    }

    #[test]
    fn second_lookup_hits() {
        let cache = NetCache::new(8, ParseLimits::default());
        let a = cache.get_or_compile(DOC, "n").unwrap();
        let b = cache.get_or_compile(DOC, "n").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), (1, 1));
        let full = cache.full_stats();
        assert_eq!(full.byte_hits, 1, "exact resubmit is a byte hit");
        assert_eq!(full.structural_hits, 0);
    }

    #[test]
    fn reformatted_document_is_a_structural_hit() {
        let cache = NetCache::new(8, ParseLimits::default());
        let a = cache.get_or_compile(DOC, "n").unwrap();
        let b = cache.get_or_compile(DOC_REFORMATTED, "other").unwrap();
        assert!(
            Arc::ptr_eq(&a, &b),
            "renamed/reformatted copy shares the compiled entry"
        );
        let full = cache.full_stats();
        assert_eq!(full.byte_hits, 0);
        assert_eq!(full.structural_hits, 1);
        assert_eq!(full.misses, 1);
        assert_eq!(full.len, 1, "one structural entry, two byte aliases");
        // The alias is now installed: resubmitting the reformatted
        // text is a byte hit.
        let c = cache.get_or_compile(DOC_REFORMATTED, "other").unwrap();
        assert!(Arc::ptr_eq(&a, &c));
        assert_eq!(cache.full_stats().byte_hits, 1);
    }

    #[test]
    fn one_byte_edit_is_a_different_key() {
        let cache = NetCache::new(8, ParseLimits::default());
        let a = cache.get_or_compile(DOC, "n").unwrap();
        let edited = DOC.replace("p*", "p*2");
        let b = cache.get_or_compile(&edited, "n").unwrap();
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.m0.iter().sum::<u32>(), 2);
        assert_eq!(cache.full_stats().misses, 2, "marking change is structural");
    }

    #[test]
    fn capacity_evicts_and_counts() {
        let cache = NetCache::new(2, ParseLimits::default());
        for i in 0..4 {
            let (doc, name) = cold_doc(i);
            cache.get_or_compile(&doc, &name).unwrap();
        }
        let stats = cache.full_stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.capacity, 2);
        assert!(stats.bytes > 0, "resident entries report approximate size");
    }

    #[test]
    fn hot_entry_survives_churn() {
        // The LRU property: an entry touched between insertions of cold
        // entries is never the eviction victim.
        let cache = NetCache::new(2, ParseLimits::default());
        let hot = cache.get_or_compile(DOC, "n").unwrap();
        for i in 0..8 {
            let (doc, name) = cold_doc(i);
            cache.get_or_compile(&doc, &name).unwrap();
            // Re-touch the hot entry after every cold insertion.
            let again = cache.get_or_compile(DOC, "n").unwrap();
            assert!(Arc::ptr_eq(&hot, &again), "hot entry evicted at churn {i}");
        }
        let stats = cache.full_stats();
        assert_eq!(stats.hits, 8, "every hot re-touch was a hit");
        assert_eq!(stats.byte_hits, 8);
        assert_eq!(stats.misses, 9);
        assert_eq!(stats.evictions, 7);
    }

    #[test]
    fn eviction_purges_byte_aliases() {
        let cache = NetCache::new(1, ParseLimits::default());
        // Two byte aliases for one structural entry.
        cache.get_or_compile(DOC, "n").unwrap();
        cache.get_or_compile(DOC_REFORMATTED, "other").unwrap();
        assert!(cache.peek(DOC, "n"));
        assert!(cache.peek(DOC_REFORMATTED, "other"));
        // Evict it with a structurally different net.
        let (doc, name) = cold_doc(0);
        cache.get_or_compile(&doc, &name).unwrap();
        assert!(!cache.peek(DOC, "n"), "alias purged with its entry");
        assert!(!cache.peek(DOC_REFORMATTED, "other"));
        let stats = cache.full_stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.len, 1);
        // Re-looking up the evicted net is a genuine miss again.
        cache.get_or_compile(DOC, "n").unwrap();
        assert_eq!(cache.full_stats().misses, 3);
    }

    /// Two nets in one document.
    const PAIR: &str = "net m { places { p* q } transition \"a\" { pre: p; post: q } }\n\
                        net e { places { r* s } transition \"b\" { pre: r; post: s } }";

    /// `PAIR` respelled: byte-distinct, both nets structurally the same.
    const PAIR_RESPELLED: &str = "net m {\n  places { x*  y }\n  transition \"a\" { pre: x; post: y }\n}\n\
                                  net e {\n  places { u*  v }\n  transition \"b\" { pre: u; post: v }\n}\n";

    #[test]
    fn many_names_count_as_lookups_in_a_row() {
        let many = NetCache::new(8, ParseLimits::default());
        let single = NetCache::new(8, ParseLimits::default());
        // Fresh (two misses), respelled (two structural hits), then
        // byte-identical (two byte hits).
        for doc in [PAIR, PAIR_RESPELLED, PAIR] {
            let nets = many.get_or_compile_many(doc, &["m", "e"]).unwrap();
            let one_by_one = [
                single.get_or_compile(doc, "m").unwrap(),
                single.get_or_compile(doc, "e").unwrap(),
            ];
            assert_eq!(many.full_stats(), single.full_stats());
            let ids = |nets: &[Arc<CachedNet>]| nets.iter().map(|n| n.id).collect::<Vec<_>>();
            assert_eq!(ids(&nets), ids(&one_by_one));
        }
        let stats = many.full_stats();
        assert_eq!(
            (stats.misses, stats.structural_hits, stats.byte_hits),
            (2, 2, 2)
        );
        // A missing second name fails after the first is counted.
        assert_eq!(
            many.get_or_compile_many(PAIR, &["m", "ghost"]).unwrap_err(),
            CacheMiss::NoSuchNet("ghost".to_owned())
        );
        single.get_or_compile(PAIR, "m").unwrap();
        single.get_or_compile(PAIR, "ghost").unwrap_err();
        assert_eq!(many.full_stats(), single.full_stats());
    }

    #[test]
    fn one_name_twice_is_a_miss_then_a_byte_hit() {
        let cache = NetCache::new(8, ParseLimits::default());
        let nets = cache.get_or_compile_many(DOC, &["n", "n"]).unwrap();
        assert!(Arc::ptr_eq(&nets[0], &nets[1]));
        let stats = cache.full_stats();
        assert_eq!((stats.misses, stats.byte_hits, stats.len), (1, 1, 1));
    }

    #[test]
    fn a_malformed_document_is_one_miss() {
        let cache = NetCache::new(8, ParseLimits::default());
        assert!(matches!(
            cache.get_or_compile_many("net n {", &["n", "m"]),
            Err(CacheMiss::Parse(_))
        ));
        assert_eq!(cache.full_stats().misses, 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn errors_are_typed_and_uncached() {
        let cache = NetCache::new(8, ParseLimits::default());
        assert!(matches!(
            cache.get_or_compile("net n {", "n"),
            Err(CacheMiss::Parse(_))
        ));
        assert!(matches!(
            cache.get_or_compile(DOC, "ghost"),
            Err(CacheMiss::NoSuchNet(_))
        ));
        assert!(cache.is_empty());
        assert_eq!(
            cache.full_stats().misses,
            2,
            "failed lookups count as misses"
        );
    }
}
