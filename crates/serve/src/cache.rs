//! Structural-identity LRU cache of compiled nets and of the verify
//! answers computed on them.
//!
//! Clients resubmitting the same document (an interactive design loop
//! re-verifying after each edit, a CI matrix fanning one net across
//! many property checks, a batch hash-consing its items' documents)
//! should not pay parse + compile per request, and a client re-verifying
//! an unchanged pair should not pay the verify pipeline either. The
//! cache has three tiers:
//!
//! 1. a **byte tier** keyed on an FNV-1a hash of the raw document text
//!    plus the requested net name — the zero-parse fast path for exact
//!    resubmissions;
//! 2. a **structural tier** keyed on the net's canonical
//!    [`cpn_petri::NetId`] — documents that differ only in
//!    whitespace, place names, declaration order, or interner history
//!    compile to the same entry, as do shared sub-modules submitted
//!    under different documents;
//! 3. a **verdict tier** holding verify answers ([`VerifySummary`]),
//!    each keyed by the two structural entries it was computed on plus
//!    the request's sorted `louts` and `routs`, its effective state cap
//!    and its `hide_budget`.
//!
//! A byte miss that lands on a resident `NetId` costs one parse but no
//! compile, and is counted as a *structural hit*; only lookups whose
//! canonical identity is genuinely absent count as misses.
//!
//! The verdict tier is exact. A verdict names its entries by a serial
//! number each entry gets when it is compiled, not by `NetId`: two
//! spellings of one net share a `NetId`, but nothing proves a
//! reduction's counts invariant under respelling (the contraction
//! editor's survivors follow the resident net's order), so an answer is
//! returned only for the very entries it was computed on. A verdict is
//! recorded only while both of its entries are still the resident ones
//! for their `NetId`s (another worker may have evicted one and compiled
//! it again meanwhile), and evicting an entry drops every verdict on it.
//! The server records only answers that are pure functions of the
//! request: complete, or stopped by the state or transition cap.
//!
//! Eviction is least-recently-*used* (every hit refreshes the entry),
//! not FIFO: a hot net a pipelined client hammers between submissions
//! of many cold one-off documents must survive the churn. Capacities
//! are tens of entries, so eviction scans the structural tier for the
//! minimum tick instead of maintaining an ordering structure —
//! O(capacity) per *eviction* (misses only, at most one scan each) and
//! zero overhead on the hit path beyond a counter store. Evicting an
//! entry also purges every byte-tier alias and every verdict that
//! pointed at it. The verdict tier holds at most `capacity` verdicts and
//! evicts the least recently used one the same way; its recency stamps
//! never touch a net entry's, so it cannot change which net is evicted.

use crate::proto::VerifySummary;
use cpn_format::{parse_with_limits, Document, ParseLimits};
use cpn_petri::hash::fnv1a_64;
use cpn_petri::{CompiledNet, NetId, PetriNet};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    /// Unique to this entry: a net evicted and compiled again gets a
    /// new serial, so verdicts can name the very entry they used.
    serial: u64,
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
    /// Verify answers returned from the verdict tier.
    pub verdict_hits: u64,
    /// Verdicts currently resident (at most `capacity`).
    pub verdicts: usize,
}

/// What a verify answer is a pure function of: the two resident entries
/// it is computed on and the request's parameters.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct VerdictKey {
    /// `(NetId, serial)` of the module's entry, then the environment's.
    nets: [(NetId, u64); 2],
    /// The module's outputs.
    pub(crate) louts: BTreeSet<String>,
    /// The environment's outputs.
    pub(crate) routs: BTreeSet<String>,
    /// The effective state cap.
    pub(crate) cap: usize,
    /// The per-label contraction budget.
    pub(crate) hide_budget: usize,
}

impl VerdictKey {
    pub(crate) fn new(
        module: &CachedNet,
        env: &CachedNet,
        louts: BTreeSet<String>,
        routs: BTreeSet<String>,
        cap: usize,
        hide_budget: usize,
    ) -> Self {
        VerdictKey {
            nets: [(module.id, module.serial), (env.id, env.serial)],
            louts,
            routs,
            cap,
            hide_budget,
        }
    }
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
    /// The next [`CachedNet`] serial.
    serials: AtomicU64,
}

#[derive(Debug)]
struct CacheEntry {
    net: Arc<CachedNet>,
    /// Recency stamp; the entry with the smallest tick is the LRU.
    tick: u64,
    approx_bytes: u64,
}

#[derive(Debug)]
struct StoredVerdict {
    summary: VerifySummary,
    /// Recency stamp, from the same counter as the entries' ticks.
    tick: u64,
}

#[derive(Debug)]
struct CacheInner {
    /// Byte tier: exact (doc hash, net name) pairs seen before, each
    /// an alias for a structural entry. Multiple byte keys may alias
    /// one `NetId` (reformatted or renamed copies of the same net).
    by_bytes: HashMap<(u64, String), NetId>,
    /// Structural tier: the compiled nets themselves.
    by_id: HashMap<NetId, CacheEntry>,
    /// Verdict tier: verify answers on resident entries.
    verdicts: HashMap<VerdictKey, StoredVerdict>,
    /// Monotonic use counter; the entry with the smallest stored tick
    /// is the least recently used.
    tick: u64,
    capacity: usize,
    byte_hits: u64,
    structural_hits: u64,
    misses: u64,
    evictions: u64,
    verdict_hits: u64,
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
                    self.verdicts
                        .retain(|key, _| key.nets.iter().all(|&(net, _)| net != id));
                    self.evictions += 1;
                }
                None => break,
            }
        }
    }

    /// Drops least recently used verdicts until at most `capacity`
    /// remain (ticks are unique, so each round drops exactly one).
    fn evict_verdicts_to_capacity(&mut self) {
        while self.verdicts.len() > self.capacity {
            let Some(oldest) = self.verdicts.values().map(|v| v.tick).min() else {
                break;
            };
            self.verdicts.retain(|_, v| v.tick != oldest);
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
                verdicts: HashMap::new(),
                tick: 0,
                capacity: capacity.max(1),
                byte_hits: 0,
                structural_hits: 0,
                misses: 0,
                evictions: 0,
                verdict_hits: 0,
            }),
            limits,
            serials: AtomicU64::new(0),
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
        self.lookup(doc, fnv1a_64(doc.as_bytes()), name, &mut None, false)
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
        let hash = fnv1a_64(doc.as_bytes());
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
            // A unique number and nothing more: no other data is
            // published through it.
            serial: self.serials.fetch_add(1, Ordering::Relaxed),
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
        let key = (fnv1a_64(doc.as_bytes()), name.to_owned());
        let inner = self.lock();
        inner
            .by_bytes
            .get(&key)
            .is_some_and(|id| inner.by_id.contains_key(id))
    }

    /// The verify answer recorded for `key`, refreshing its recency.
    /// Every verdict names resident entries (recording checks it, and
    /// evicting an entry drops its verdicts), so a hit is an answer
    /// computed on the very nets the caller holds.
    pub(crate) fn verdict(&self, key: &VerdictKey) -> Option<VerifySummary> {
        let mut inner = self.lock();
        let tick = inner.touch();
        let stored = inner.verdicts.get_mut(key)?;
        stored.tick = tick;
        let summary = stored.summary.clone();
        inner.verdict_hits += 1;
        Some(summary)
    }

    /// Records `summary` as the answer for `key`, evicting the least
    /// recently used verdict past capacity. Refused (`false`) unless
    /// both entries the key names are still the resident ones for their
    /// `NetId`s: another worker may have evicted one, and compiled it
    /// again, while the answer was computed.
    pub(crate) fn record_verdict(&self, key: VerdictKey, summary: VerifySummary) -> bool {
        let mut inner = self.lock();
        let resident = key.nets.iter().all(|&(id, serial)| {
            inner
                .by_id
                .get(&id)
                .is_some_and(|entry| entry.net.serial == serial)
        });
        if !resident {
            return false;
        }
        let tick = inner.touch();
        inner.verdicts.insert(key, StoredVerdict { summary, tick });
        inner.evict_verdicts_to_capacity();
        true
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
            verdict_hits: inner.verdict_hits,
            verdicts: inner.verdicts.len(),
        }
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
    use crate::proto::Receptive;

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
        let full = cache.full_stats();
        assert_eq!((full.hits, full.misses), (1, 1));
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

    /// A verify answer to record; `states` tells answers apart.
    fn summary(states: usize) -> VerifySummary {
        VerifySummary {
            receptive: Receptive::Yes,
            failures: Vec::new(),
            states,
            edges: 0,
            stopped: None,
            composed_transitions: 2,
            reduced_transitions: Some(1),
            dead_removed: 0,
        }
    }

    fn labels(ls: &[&str]) -> BTreeSet<String> {
        ls.iter().map(|l| l.to_string()).collect()
    }

    /// Looks up `m` and `e` in `doc` as a verify does, and keys the
    /// verdict on the entries it got.
    fn pair_key(cache: &NetCache, doc: &str) -> VerdictKey {
        let nets = cache.get_or_compile_many(doc, &["m", "e"]).unwrap();
        VerdictKey::new(&nets[0], &nets[1], labels(&["a"]), labels(&["b"]), 100, 10)
    }

    #[test]
    fn a_recorded_verdict_answers_a_structural_relookup() {
        let cache = NetCache::new(8, ParseLimits::default());
        let key = pair_key(&cache, PAIR);
        assert_eq!(cache.verdict(&key), None);
        assert!(cache.record_verdict(key, summary(7)));
        let respelled = pair_key(&cache, PAIR_RESPELLED);
        assert_eq!(cache.verdict(&respelled), Some(summary(7)));
        let stats = cache.full_stats();
        assert_eq!(stats.structural_hits, 2);
        assert_eq!((stats.verdict_hits, stats.verdicts), (1, 1));
    }

    #[test]
    fn a_verdict_answers_only_its_own_parameters() {
        let cache = NetCache::new(8, ParseLimits::default());
        let key = pair_key(&cache, PAIR);
        assert!(cache.record_verdict(key.clone(), summary(7)));
        let others = [
            VerdictKey {
                cap: 99,
                ..key.clone()
            },
            VerdictKey {
                hide_budget: 11,
                ..key.clone()
            },
            VerdictKey {
                louts: labels(&["a", "b"]),
                ..key.clone()
            },
            VerdictKey {
                routs: labels(&[]),
                ..key.clone()
            },
            VerdictKey {
                nets: [key.nets[1], key.nets[0]],
                ..key.clone()
            },
        ];
        for other in &others {
            assert_eq!(cache.verdict(other), None, "{other:?}");
        }
        assert_eq!(cache.verdict(&key), Some(summary(7)));
        assert_eq!(cache.full_stats().verdict_hits, 1);
    }

    #[test]
    fn evicting_either_entry_drops_its_verdicts() {
        for (evicted, kept) in [("m", "e"), ("e", "m")] {
            let cache = NetCache::new(2, ParseLimits::default());
            let key = pair_key(&cache, PAIR);
            assert!(cache.record_verdict(key.clone(), summary(7)));
            // Refresh the other net, so the cold insert evicts `evicted`.
            cache.get_or_compile(PAIR, kept).unwrap();
            let (doc, name) = cold_doc(0);
            cache.get_or_compile(&doc, &name).unwrap();
            assert!(cache.peek(PAIR, kept) && !cache.peek(PAIR, evicted));
            assert_eq!(cache.full_stats().verdicts, 0, "evicting {evicted}");
            assert_eq!(cache.verdict(&key), None);
            // Another spelling compiles `evicted` again: a new entry,
            // so a new key, and no answer for it.
            let respelled = pair_key(&cache, PAIR_RESPELLED);
            assert_ne!(respelled, key);
            assert_eq!(cache.verdict(&respelled), None);
            assert_eq!(cache.full_stats().verdict_hits, 0);
        }
    }

    #[test]
    fn a_verdict_on_a_replaced_entry_is_refused() {
        let cache = NetCache::new(3, ParseLimits::default());
        let key = pair_key(&cache, PAIR);
        // While the answer is computed, other lookups evict `m` and
        // compile it again; `e` stays resident throughout.
        for i in 0..2 {
            cache.get_or_compile(PAIR, "e").unwrap();
            let (doc, name) = cold_doc(i);
            cache.get_or_compile(&doc, &name).unwrap();
        }
        assert!(!cache.peek(PAIR, "m"));
        cache.get_or_compile(PAIR, "e").unwrap();
        cache.get_or_compile(PAIR_RESPELLED, "m").unwrap();
        assert!(cache.peek(PAIR, "e") && cache.peek(PAIR_RESPELLED, "m"));
        assert!(!cache.record_verdict(key.clone(), summary(7)));
        assert_eq!(cache.full_stats().verdicts, 0);
        let current = pair_key(&cache, PAIR_RESPELLED);
        assert_eq!(current.nets[1], key.nets[1], "`e` is the same entry");
        assert_ne!(current, key);
        assert_eq!(cache.verdict(&current), None);
    }

    #[test]
    fn resident_verdicts_never_exceed_capacity() {
        let cache = NetCache::new(2, ParseLimits::default());
        let key = pair_key(&cache, PAIR);
        let at = |cap| VerdictKey { cap, ..key.clone() };
        for cap in 0..6 {
            assert!(cache.record_verdict(at(cap), summary(cap)));
            assert_eq!(cache.full_stats().verdicts, (cap + 1).min(2));
        }
        // Least recently used goes first: refresh 4, then record 6.
        assert_eq!(cache.verdict(&at(4)), Some(summary(4)));
        assert!(cache.record_verdict(at(6), summary(6)));
        assert_eq!(cache.verdict(&at(5)), None);
        assert_eq!(cache.verdict(&at(4)), Some(summary(4)));
        assert_eq!(cache.verdict(&at(6)), Some(summary(6)));
        // Verdict churn evicts no net.
        let stats = cache.full_stats();
        assert_eq!((stats.len, stats.evictions, stats.verdicts), (2, 0, 2));
    }

    #[test]
    fn verdicts_do_not_change_which_net_is_evicted() {
        let plain = NetCache::new(3, ParseLimits::default());
        let with_verdicts = NetCache::new(3, ParseLimits::default());
        for i in 0..6 {
            let (doc, name) = cold_doc(i);
            plain.get_or_compile_many(PAIR, &["m", "e"]).unwrap();
            plain.get_or_compile(&doc, &name).unwrap();
            let key = pair_key(&with_verdicts, PAIR);
            if with_verdicts.verdict(&key).is_none() {
                with_verdicts.record_verdict(key, summary(i));
            }
            with_verdicts.get_or_compile(&doc, &name).unwrap();
            let resident = |cache: &NetCache| {
                let mut docs: Vec<_> = (0..=i).map(cold_doc).collect();
                docs.push((PAIR.to_owned(), "m".to_owned()));
                docs.push((PAIR.to_owned(), "e".to_owned()));
                docs.iter()
                    .map(|(doc, name)| cache.peek(doc, name))
                    .collect::<Vec<_>>()
            };
            assert_eq!(resident(&plain), resident(&with_verdicts), "round {i}");
            let (a, b) = (plain.full_stats(), with_verdicts.full_stats());
            assert_eq!(
                (a.hits, a.misses, a.evictions),
                (b.hits, b.misses, b.evictions)
            );
        }
        assert!(with_verdicts.full_stats().verdict_hits > 0);
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
