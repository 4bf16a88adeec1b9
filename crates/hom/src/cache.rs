//! A canonical-hash keyed result cache for homomorphism and core
//! computations.
//!
//! Every fitting request decomposes into homomorphism existence checks and
//! core minimizations, and interactive workloads (query-by-example
//! sessions, repeated fittings over slowly-evolving example sets) re-ask
//! the same checks over and over: the product of the positives against
//! each negative, the cores of the same canonical examples, pairwise
//! containment between the same disjuncts.  [`HomCache`] memoizes those
//! answers across requests and sessions, keyed by the *canonical
//! structural hashes* of the operands ([`cqfit_data::CanonicalHash`]), so
//! a repeat of a check — even one built independently by another session —
//! is a lookup instead of a search.
//!
//! Soundness: canonical hashes identify objects up to structural identity
//! (same schema, same fact set over the same value indices, same
//! distinguished tuple; labels excluded), and every cached answer is a
//! function of exactly that structure.  Homomorphism existence is cached
//! as a `bool` keyed by the (source, target) hash pair.  Cores are cached
//! as whole [`Example`] values; because the *labels* of a core surface in
//! constructed queries, the core key additionally absorbs the operand's
//! labels, so label-different (but structurally equal) operands never
//! exchange cores.
//!
//! Concurrency: the hom map is sharded (16 shards, picked by key bits)
//! behind plain `Mutex`es — lookups and inserts hold a shard lock for a
//! hash-map operation only, never during a search.  Batch entry points
//! fan cache misses across the same scoped worker pool as the uncached
//! batch API ([`crate::hom_exists_batch`]).
//!
//! Bounds: both maps stop inserting at a configurable entry cap (default
//! 1M hom entries, 4096 cores) — a full cache keeps serving hits for the
//! keys it holds and computes the rest, so long-running servers cannot be
//! grown without bound by adversarial workloads.

use crate::batch::run_batch;
use crate::search::hom_exists;
use cqfit_data::{CanonicalHash, CanonicalHasher, Example};
use cqfit_obs::Registry;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// Number of shards of the hom-existence map (power of two).
const SHARDS: usize = 16;

/// Statistics of a [`HomCache`], all monotone counters plus current sizes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hom-existence lookups answered from the cache.
    pub hom_hits: u64,
    /// Hom-existence searches actually executed.  Duplicate pairs within
    /// one batch share a single search (and a single count), and pairs
    /// after the first positive one in [`HomCache::any_hom_exists`] are
    /// not counted — no search runs for them.
    pub hom_misses: u64,
    /// Core lookups answered from the cache.
    pub core_hits: u64,
    /// Core lookups that required a minimization.
    pub core_misses: u64,
    /// Current number of cached hom-existence answers.
    pub hom_entries: usize,
    /// Current number of cached cores.
    pub core_entries: usize,
}

impl CacheStats {
    /// Overall hit rate (hom + core) in `[0, 1]`; 0 when nothing was asked.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hom_hits + self.core_hits;
        let total = hits + self.hom_misses + self.core_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// A concurrent, canonical-hash keyed cache of homomorphism-existence
/// answers and cores.  See the module documentation for keying, soundness
/// and bounds.
pub struct HomCache {
    hom_shards: Vec<Mutex<HashMap<(CanonicalHash, CanonicalHash), bool>>>,
    cores: Mutex<HashMap<CanonicalHash, Arc<Example>>>,
    // Hit/miss counters live on the shared `cqfit-obs` registry (the
    // engine passes its own so cache traffic lands in the process-wide
    // snapshot); a standalone cache gets a fresh private registry.
    registry: Arc<Registry>,
    max_hom_entries: usize,
    max_core_entries: usize,
}

impl std::fmt::Debug for HomCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("HomCache")
            .field("stats", &stats)
            .finish_non_exhaustive()
    }
}

impl Default for HomCache {
    fn default() -> Self {
        HomCache::new()
    }
}

impl HomCache {
    /// Default capacity caps: 1M hom answers (~50 MB worst case of keys),
    /// 4096 cores.
    pub fn new() -> Self {
        HomCache::with_limits(1 << 20, 4096)
    }

    /// A cache with the default caps whose hit/miss counters land on the
    /// given shared metrics registry instead of a private one.
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        let mut cache = HomCache::new();
        cache.registry = registry;
        cache
    }

    /// A cache with explicit entry caps; inserts beyond a cap are dropped
    /// (the cache keeps serving hits for the entries it holds).
    pub fn with_limits(max_hom_entries: usize, max_core_entries: usize) -> Self {
        HomCache {
            hom_shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            cores: Mutex::new(HashMap::new()),
            registry: Arc::new(Registry::new()),
            max_hom_entries,
            max_core_entries,
        }
    }

    /// The metrics registry receiving this cache's hit/miss counters.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    fn shard(
        &self,
        key: &(CanonicalHash, CanonicalHash),
    ) -> &Mutex<HashMap<(CanonicalHash, CanonicalHash), bool>> {
        let idx = (key.0 .0 ^ key.1 .0.rotate_left(1)) as usize & (SHARDS - 1);
        &self.hom_shards[idx]
    }

    /// Reads the cached answer for a key without touching any counter.
    fn peek_hom(&self, key: &(CanonicalHash, CanonicalHash)) -> Option<bool> {
        self.shard(key)
            .lock()
            .expect("cache shard")
            .get(key)
            .copied()
    }

    fn note_hit(&self) {
        self.registry.hom_hits.inc();
    }

    fn note_miss(&self) {
        self.registry.hom_misses.inc();
    }

    fn insert_hom(&self, key: (CanonicalHash, CanonicalHash), answer: bool) {
        // Per-shard share of the total cap, rounded *up*: a small but
        // non-zero cap must still cache (flooring would turn caps below
        // the shard count into a silently disabled cache).  The total is
        // therefore approximate — at most `SHARDS - 1` entries above the
        // configured cap.
        let per_shard = self.max_hom_entries.div_ceil(SHARDS);
        let mut shard = self.shard(&key).lock().expect("cache shard");
        if shard.len() < per_shard {
            shard.insert(key, answer);
        }
    }

    /// Cached [`hom_exists`]: is there a homomorphism `src → dst`?
    ///
    /// Panics (like the uncached check) if the two examples mix schemas or
    /// arities.
    pub fn hom_exists(&self, src: &Example, dst: &Example) -> bool {
        let key = (src.canonical_hash(), dst.canonical_hash());
        if let Some(answer) = self.peek_hom(&key) {
            self.note_hit();
            return answer;
        }
        self.note_miss();
        let answer = hom_exists(src, dst);
        self.insert_hom(key, answer);
        answer
    }

    /// Cached batch variant of [`crate::hom_exists_batch`]: answers every
    /// pair, serving repeats from the cache and fanning the misses across
    /// the scoped worker pool.  Duplicate uncached pairs within the batch
    /// are searched once and share the answer.  Returns exactly what the
    /// uncached batch would.
    pub fn hom_exists_batch(&self, pairs: &[(&Example, &Example)]) -> Vec<bool> {
        let keys: Vec<(CanonicalHash, CanonicalHash)> = pairs
            .iter()
            .map(|(s, d)| (s.canonical_hash(), d.canonical_hash()))
            .collect();
        let mut out: Vec<Option<bool>> = vec![None; pairs.len()];
        // Dedup the misses by key: `unique` holds one representative pair
        // index per distinct uncached key, `pending` maps every uncached
        // pair to its slot in `unique`.
        let mut slot_of_key: HashMap<(CanonicalHash, CanonicalHash), usize> = HashMap::new();
        let mut unique: Vec<usize> = Vec::new();
        let mut pending: Vec<(usize, usize)> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            match self.peek_hom(key) {
                Some(answer) => {
                    self.note_hit();
                    out[i] = Some(answer);
                }
                None => {
                    let slot = *slot_of_key.entry(*key).or_insert_with(|| {
                        unique.push(i);
                        unique.len() - 1
                    });
                    pending.push((i, slot));
                }
            }
        }
        if !unique.is_empty() {
            let answers = run_batch(
                unique.len(),
                |u| {
                    let (s, d) = pairs[unique[u]];
                    hom_exists(s, d)
                },
                |_| false,
            );
            for (u, &answer) in answers.iter().enumerate() {
                self.note_miss();
                self.insert_hom(keys[unique[u]], answer);
            }
            for (i, slot) in pending {
                out[i] = Some(answers[slot]);
            }
        }
        out.into_iter().map(|b| b.expect("all filled")).collect()
    }

    /// Cached variant of [`crate::any_hom_exists_batch`]: true if some pair
    /// admits a homomorphism.  Cached positive answers short-circuit before
    /// any search; the remaining distinct uncached keys run as a parallel
    /// batch with early exit.  Exactly the keys up to and including the
    /// first positive one are searched, cached and counted as misses,
    /// whatever the thread timing; the keys after it run no search.
    pub fn any_hom_exists(&self, pairs: &[(&Example, &Example)]) -> bool {
        let keys: Vec<(CanonicalHash, CanonicalHash)> = pairs
            .iter()
            .map(|(s, d)| (s.canonical_hash(), d.canonical_hash()))
            .collect();
        let mut seen: HashSet<(CanonicalHash, CanonicalHash)> = HashSet::new();
        let mut unique: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            match self.peek_hom(key) {
                Some(true) => {
                    self.note_hit();
                    return true;
                }
                Some(false) => self.note_hit(),
                None => {
                    if seen.insert(*key) {
                        unique.push(i);
                    }
                }
            }
        }
        if unique.is_empty() {
            return false;
        }
        let answers = run_batch(
            unique.len(),
            |u| {
                let (s, d) = pairs[unique[u]];
                hom_exists(s, d)
            },
            |&yes| yes,
        );
        for (u, &answer) in answers.iter().enumerate() {
            self.note_miss();
            self.insert_hom(keys[unique[u]], answer);
        }
        answers.last().is_some_and(|&yes| yes)
    }

    /// Cached [`crate::core_of`]: the core of a pointed instance.
    ///
    /// The key absorbs the operand's labels on top of its structural hash,
    /// because the returned example's labels surface in constructed
    /// queries; see the module documentation.
    pub fn core_of(&self, e: &Example) -> Arc<Example> {
        let key = labeled_key(e);
        // Entries are Arc'd so both the hit path and the insert path hold
        // the lock only for a map operation plus a refcount bump — never
        // for a deep clone of a potentially large instance.
        if let Some(core) = self.cores.lock().expect("core cache").get(&key) {
            self.registry.core_hits.inc();
            return Arc::clone(core);
        }
        self.registry.core_misses.inc();
        let core = Arc::new(crate::core_of(e));
        let mut cores = self.cores.lock().expect("core cache");
        if cores.len() < self.max_core_entries {
            cores.insert(key, Arc::clone(&core));
        }
        core
    }

    /// Current statistics, assembled as a view over the registry counters
    /// plus the live map sizes.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hom_hits: self.registry.hom_hits.get(),
            hom_misses: self.registry.hom_misses.get(),
            core_hits: self.registry.core_hits.get(),
            core_misses: self.registry.core_misses.get(),
            hom_entries: self
                .hom_shards
                .iter()
                .map(|s| s.lock().expect("cache shard").len())
                .sum(),
            core_entries: self.cores.lock().expect("core cache").len(),
        }
    }

    /// Drops every cached entry (statistics counters are kept).
    pub fn clear(&self) {
        for shard in &self.hom_shards {
            shard.lock().expect("cache shard").clear();
        }
        self.cores.lock().expect("core cache").clear();
    }
}

/// Structural hash plus labels: the key of the core cache.
fn labeled_key(e: &Example) -> CanonicalHash {
    let mut h = CanonicalHasher::new();
    h.absorb_hash(e.canonical_hash());
    let inst = e.instance();
    for v in inst.values() {
        h.absorb_str(inst.label(v));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{core_of, hom_equivalent, hom_exists};
    use cqfit_data::{Instance, Schema};

    fn cycle(n: usize) -> Example {
        let mut i = Instance::new(Schema::digraph());
        let vs = i.add_values("c", n);
        for k in 0..n {
            i.add_fact_by_name("R", &[vs[k], vs[(k + 1) % n]]).unwrap();
        }
        Example::boolean(i)
    }

    #[test]
    fn cached_answers_match_uncached() {
        let cache = HomCache::new();
        let (c3, c4, c6, c2) = (cycle(3), cycle(4), cycle(6), cycle(2));
        for (s, d) in [(&c3, &c2), (&c4, &c2), (&c6, &c3), (&c6, &c2)] {
            assert_eq!(cache.hom_exists(s, d), hom_exists(s, d));
            // Second ask must hit and agree.
            assert_eq!(cache.hom_exists(s, d), hom_exists(s, d));
        }
        let stats = cache.stats();
        assert_eq!(stats.hom_hits, 4);
        assert_eq!(stats.hom_misses, 4);
        assert!(stats.hit_rate() > 0.4);
    }

    #[test]
    fn batch_serves_repeats_from_cache() {
        let cache = HomCache::new();
        let srcs: Vec<Example> = (3..9).map(cycle).collect();
        let c2 = cycle(2);
        let pairs: Vec<(&Example, &Example)> = srcs.iter().map(|s| (s, &c2)).collect();
        let first = cache.hom_exists_batch(&pairs);
        let expected: Vec<bool> = pairs.iter().map(|(s, d)| hom_exists(s, d)).collect();
        assert_eq!(first, expected);
        let before = cache.stats();
        let second = cache.hom_exists_batch(&pairs);
        assert_eq!(second, expected);
        let after = cache.stats();
        assert_eq!(after.hom_hits - before.hom_hits, pairs.len() as u64);
        assert_eq!(after.hom_misses, before.hom_misses);
    }

    #[test]
    fn duplicate_pairs_in_one_batch_search_once() {
        let cache = HomCache::new();
        let (c3, c2) = (cycle(3), cycle(2));
        // Structurally identical pairs repeated five times: one search.
        let pairs: Vec<(&Example, &Example)> = (0..5).map(|_| (&c3, &c2)).collect();
        let answers = cache.hom_exists_batch(&pairs);
        assert_eq!(answers, vec![false; 5]);
        let stats = cache.stats();
        assert_eq!(stats.hom_misses, 1, "one search for five duplicate pairs");
        assert_eq!(stats.hom_hits, 0);
        // Any-variant dedups too.
        let cache2 = HomCache::new();
        assert!(!cache2.any_hom_exists(&pairs));
        assert_eq!(cache2.stats().hom_misses, 1);
    }

    #[test]
    fn any_agrees_and_short_circuits_on_cached_hit() {
        let cache = HomCache::new();
        let (c3, c4) = (cycle(3), cycle(4));
        let c2 = cycle(2);
        let pairs: Vec<(&Example, &Example)> = vec![(&c3, &c2), (&c4, &c2)];
        assert!(cache.any_hom_exists(&pairs));
        // Populate, then the cached `true` answers without any search.
        assert!(cache.any_hom_exists(&pairs));
        let odd_pairs: Vec<(&Example, &Example)> = vec![(&c3, &c2)];
        assert!(!cache.any_hom_exists(&odd_pairs));
        assert!(!cache.any_hom_exists(&[]));
    }

    #[test]
    fn any_searches_caches_and_counts_exactly_the_prefix_to_the_first_hit() {
        // Directed C_n maps to C_2 iff n is even: the first positive pair
        // is at index k = 3, and every source is structurally distinct.
        let srcs: Vec<Example> = [3, 5, 7, 4, 9, 6, 11, 8].into_iter().map(cycle).collect();
        let c2 = cycle(2);
        let pairs: Vec<(&Example, &Example)> = srcs.iter().map(|s| (s, &c2)).collect();
        let k = 3;
        for workers in [1, 4] {
            crate::batch::tests::with_workers(workers, || {
                for _ in 0..200 {
                    let cache = HomCache::new();
                    assert!(cache.any_hom_exists(&pairs));
                    let stats = cache.stats();
                    assert_eq!(stats.hom_misses, k as u64 + 1, "{workers} workers");
                    assert_eq!(stats.hom_entries, k + 1, "{workers} workers");
                    for (i, (s, d)) in pairs.iter().enumerate() {
                        let key = (s.canonical_hash(), d.canonical_hash());
                        assert_eq!(cache.peek_hom(&key).is_some(), i <= k, "pair {i}");
                    }
                }
            });
        }
    }

    #[test]
    fn cached_core_is_the_core() {
        let cache = HomCache::new();
        // C6 cores to C3? No — C6 is a core... use a foldable shape: two
        // disjoint copies of C3 core to one C3.
        let mut i = Instance::new(Schema::digraph());
        for copy in 0..2 {
            let vs = i.add_values(&format!("a{copy}_"), 3);
            for k in 0..3 {
                i.add_fact_by_name("R", &[vs[k], vs[(k + 1) % 3]]).unwrap();
            }
        }
        let e = Example::boolean(i);
        let cold = cache.core_of(&e);
        assert_eq!(
            cold.instance().num_values(),
            core_of(&e).instance().num_values()
        );
        assert!(hom_equivalent(&cold, &e));
        let warm = cache.core_of(&e);
        assert!(warm.instance().same_facts(cold.instance()));
        let stats = cache.stats();
        assert_eq!(stats.core_hits, 1);
        assert_eq!(stats.core_misses, 1);
    }

    #[test]
    fn label_different_operands_do_not_share_cores() {
        let cache = HomCache::new();
        let mut a = Instance::new(Schema::digraph());
        a.add_fact_labels("R", &["x", "x"]).unwrap();
        let mut b = Instance::new(Schema::digraph());
        b.add_fact_labels("R", &["y", "y"]).unwrap();
        let ea = Example::boolean(a);
        let eb = Example::boolean(b);
        // Structurally equal, label-different: hom cache may share ...
        assert_eq!(ea.canonical_hash(), eb.canonical_hash());
        // ... but the cores keep their own labels.
        let ca = cache.core_of(&ea);
        let cb = cache.core_of(&eb);
        assert_eq!(ca.instance().label(cqfit_data::Value(0)), "x");
        assert_eq!(cb.instance().label(cqfit_data::Value(0)), "y");
    }

    #[test]
    fn capacity_cap_stops_inserts_but_not_answers() {
        let cache = HomCache::with_limits(0, 0);
        let (c3, c2) = (cycle(3), cycle(2));
        assert!(!cache.hom_exists(&c3, &c2));
        assert!(!cache.hom_exists(&c3, &c2));
        let stats = cache.stats();
        assert_eq!(stats.hom_entries, 0);
        assert_eq!(stats.hom_misses, 2);
        let core = cache.core_of(&c3);
        assert!(hom_equivalent(&core, &c3));
        assert_eq!(cache.stats().core_entries, 0);
        // A small but non-zero cap still caches (the per-shard share is
        // rounded up, not floored to zero).
        let small = HomCache::with_limits(1, 1);
        assert!(!small.hom_exists(&c3, &c2));
        assert!(small.stats().hom_entries > 0);
        assert!(!small.hom_exists(&c3, &c2));
        assert_eq!(small.stats().hom_hits, 1);
    }

    #[test]
    fn clear_empties_the_maps() {
        let cache = HomCache::new();
        let (c4, c2) = (cycle(4), cycle(2));
        assert!(cache.hom_exists(&c4, &c2));
        assert!(cache.stats().hom_entries > 0);
        cache.clear();
        assert_eq!(cache.stats().hom_entries, 0);
        assert!(cache.hom_exists(&c4, &c2), "still answers after clear");
    }
}
