//! Cores and homomorphic equivalence — the mask-based core engine.
//!
//! Every instance has a unique (up to isomorphism) minimal sub-instance to
//! which it is homomorphically equivalent — its *core* (§2.1).  For pointed
//! instances, homomorphisms must fix the distinguished tuple, so distinguished
//! values are never folded away.
//!
//! # Engine architecture
//!
//! Core computation reduces to *retraction checks*: does the example map
//! homomorphically into itself with one value deactivated?  The engine here
//! differs from the preserved greedy oracle ([`self::reference`]) in five
//! ways:
//!
//! * **Deactivation mask instead of induced clones** — one `Vec<bool>` over
//!   the original domain drives every check through the trail searcher's
//!   masked mode (`SearchTweaks`); no induced sub-instance (labels, fact
//!   table, fact index) is ever rebuilt until the final materialization.
//!   Isolated non-distinguished values are masked out *up front*, so no
//!   intermediate check ranges over dead values (the greedy oracle only
//!   dropped them after its retraction loop).
//! * **Branch-first retraction search** — for a retraction avoiding `v` the
//!   identity is almost a homomorphism: only `v` needs a new image.  The
//!   masked search therefore branches on `v`'s variable first and skips the
//!   full initial arc-consistency closure (propagation runs incrementally
//!   from each assignment instead, which is sound and complete — see
//!   `search::find_homomorphism_tweaked`).  On the paper's cycle-product
//!   families this replaces one global wipe-out cascade per candidate by a
//!   handful of cheap singleton chains.
//! * **Orbit folding** — a witness retraction `h` avoiding `v` misses not
//!   just `v` but every value outside its image; all of them are deactivated
//!   at once, instead of one value per pass.
//! * **Orbit pruning** — the endomorphism sweep that certifies a core skips
//!   root images in the orbit of an explored one under the automorphisms it
//!   has met, so certifying a directed cycle `C_n` costs two propagation
//!   chains instead of `n` (see `endo_sweep`).
//! * **Batched candidate checks** — the independent per-candidate searches of
//!   one round fan across the same scoped worker pool as
//!   [`crate::hom_exists_batch`], with an early-exit cursor; the first (i.e.
//!   smallest-index) witness is always the one folded, so the result is
//!   deterministic regardless of worker count.
//!
//! The engine and the oracle agree up to isomorphism (equal value and fact
//! counts, homomorphic equivalence, identical distinguished tuples), which is
//! asserted over hundreds of fixed-seed instances by
//! `tests/differential_core.rs`.

pub mod reference;

use crate::batch::find_first;
use crate::search::{
    enumerate_homomorphisms_tweaked, find_homomorphism, find_homomorphism_tweaked, SearchTweaks,
    TweakedEnumeration,
};
use crate::Homomorphism;
use cqfit_data::{Example, Value};
use std::cell::RefCell;
use std::collections::HashSet;

/// Outcome of one endomorphism sweep over the alive sub-instance.
enum Sweep {
    /// A non-surjective endomorphism — its image misses at least one
    /// retraction candidate, so everything outside the image folds away.
    NonSurjective(Homomorphism),
    /// The full endomorphism space was enumerated and every endomorphism is
    /// surjective: the alive sub-instance is certifiably a core.
    AllSurjective,
    /// Solution or node cap hit first (automorphism-rich instances):
    /// inconclusive, fall back to per-candidate retraction checks.
    Capped,
}

/// The orbits of the automorphisms one sweep has met, kept as a union-find
/// over the original domain in which the smaller root wins (so every root
/// is the smallest index of its orbit), plus which orbits already hold an
/// explored root image.
struct Orbits {
    parent: Vec<u32>,
    explored: Vec<bool>,
}

impl Orbits {
    fn new(n: usize) -> Self {
        Orbits {
            parent: (0..n as u32).collect(),
            explored: vec![false; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let grand = self.parent[self.parent[x] as usize];
            self.parent[x] = grand;
            x = grand as usize;
        }
        x
    }

    /// Unions every value with its image under the automorphism `sigma`.
    fn absorb(&mut self, sigma: &Homomorphism) {
        for (x, y) in sigma.pairs() {
            let (a, b) = (self.find(x.index()), self.find(y.index()));
            if a != b {
                let (lo, hi) = (a.min(b), a.max(b));
                self.parent[hi] = lo as u32;
                self.explored[lo] |= self.explored[hi];
            }
        }
    }

    /// Should the sweep skip root image `t`?  Yes if its orbit already
    /// holds an explored root image; otherwise `t` is explored next.
    fn skip_root_image(&mut self, t: Value) -> bool {
        let r = self.find(t.index());
        if self.explored[r] {
            return true;
        }
        self.explored[r] = true;
        false
    }

    /// The smallest index of each orbit among `candidates`.
    fn representatives(&mut self, candidates: &[Value]) -> Vec<Value> {
        candidates
            .iter()
            .copied()
            .filter(|c| self.find(c.index()) == c.index())
            .collect()
    }
}

/// One capped endomorphism sweep: enumerates endomorphisms of the
/// `alive`-masked sub-instance of `e`, stopping at the first whose image
/// misses a retraction candidate.
///
/// A finite pointed instance is a core iff every endomorphism is surjective,
/// so a single exhaustive enumeration both certifies core-ness and — when it
/// is not a core — hands back a foldable witness, at roughly the cost of
/// *one* per-candidate retraction check on the paper's cycle-product
/// families.  The caps (solution count and search nodes) bound the sweep on
/// automorphism-rich instances, where the per-candidate path is no worse.
///
/// Orbit pruning: every surjective endomorphism met on the way is an
/// automorphism σ, and goes into `orbits`.  A root image in the orbit of an
/// already explored root image `t′` is skipped: any endomorphism `h` with
/// `h(v₀) = σ(t′)` is `σ ∘ h′` for `h′ = σ⁻¹ ∘ h`, which maps `v₀` to `t′`
/// and is surjective exactly when `h` is.  So the sweep stops at the same
/// witness as an unpruned one, and certifies a directed cycle after two
/// root images instead of one per value.
fn endo_sweep(e: &Example, alive: &[bool], candidates: &[Value], orbits: &mut Orbits) -> Sweep {
    let n = e.instance().num_values();
    let limit = 16 + 4 * candidates.len();
    let max_nodes = 64 + 32 * n as u64;
    let mut image = vec![false; n];
    let mut non_surjective = |h: &Homomorphism| {
        image.fill(false);
        for (_, t) in h.pairs() {
            image[t.index()] = true;
        }
        candidates.iter().any(|c| !image[c.index()])
    };
    let orbits = RefCell::new(orbits);
    let outcome = enumerate_homomorphisms_tweaked(
        e,
        e,
        SearchTweaks {
            src_alive: Some(alive),
            dst_alive: Some(alive),
            branch_first: None,
            lazy_propagation: true,
        },
        limit,
        max_nodes,
        |h| {
            if non_surjective(h) {
                return true;
            }
            orbits.borrow_mut().absorb(h);
            false
        },
        |t| orbits.borrow_mut().skip_root_image(t),
    );
    match outcome {
        TweakedEnumeration::Found(h) => Sweep::NonSurjective(h),
        TweakedEnumeration::Exhausted => Sweep::AllSurjective,
        TweakedEnumeration::Capped => Sweep::Capped,
    }
}

/// Finds the smallest-index candidate in `candidates` that admits a
/// retraction of the `alive`-masked sub-instance of `e` avoiding that
/// candidate, together with the witness homomorphism.  The independent
/// checks are fanned across scoped workers, which skip only candidates
/// after an already-found witness, so the returned index is always the
/// smallest one.
///
/// Callers pass only orbit representatives of a capped sweep: a retraction
/// avoiding `c` exists iff one avoiding `σ(c)` does (compose with `σ`), so
/// the smallest candidate that admits one is its orbit's smallest index.
fn first_retraction(
    e: &Example,
    alive: &[bool],
    candidates: &[Value],
) -> Option<(usize, Homomorphism)> {
    find_first(candidates.len(), |i| {
        let mut dst_alive = alive.to_vec();
        dst_alive[candidates[i].index()] = false;
        find_homomorphism_tweaked(
            e,
            e,
            SearchTweaks {
                src_alive: Some(alive),
                dst_alive: Some(&dst_alive),
                branch_first: Some(candidates[i]),
                lazy_propagation: true,
            },
        )
    })
}

/// An endomorphism of the `alive`-masked sub-instance of `e` whose image
/// misses one of `candidates`, or `None` if that sub-instance is a core.
/// Primary strategy: one capped endomorphism sweep, which either certifies
/// the core, yields a foldable witness, or punts; on a punt, batched
/// retraction checks, one per orbit of the automorphisms the sweep met.
fn non_core_witness(e: &Example, alive: &[bool], candidates: &[Value]) -> Option<Homomorphism> {
    let mut orbits = Orbits::new(e.instance().num_values());
    match endo_sweep(e, alive, candidates, &mut orbits) {
        Sweep::NonSurjective(h) => Some(h),
        Sweep::AllSurjective => None,
        Sweep::Capped => {
            let reps = orbits.representatives(candidates);
            first_retraction(e, alive, &reps).map(|(_, h)| h)
        }
    }
}

/// Computes the core of a pointed instance.
///
/// One deactivation mask over the original domain is maintained throughout:
/// isolated non-distinguished values are deactivated immediately, each round
/// batch-searches the alive candidates for a retraction, and a found witness
/// deactivates the *entire* complement of its image (orbit folding).  The
/// induced sub-instance is materialized exactly once, at the end.
///
/// The greedy one-value-at-a-time oracle this engine replaces is preserved
/// as [`reference::core_of`]; the two agree up to isomorphism.
pub fn core_of(e: &Example) -> Example {
    let inst = e.instance();
    let n = inst.num_values();
    let mut is_distinguished = vec![false; n];
    for &d in e.distinguished() {
        is_distinguished[d.index()] = true;
    }
    // The deactivation mask.  Isolated non-distinguished values carry no
    // information and are dead from the start, so no retraction check ever
    // ranges over them.
    let mut alive: Vec<bool> = inst
        .values()
        .map(|v| inst.is_active(v) || is_distinguished[v.index()])
        .collect();
    loop {
        let candidates: Vec<Value> = inst
            .values()
            .filter(|v| alive[v.index()] && !is_distinguished[v.index()])
            .collect();
        if candidates.is_empty() {
            break;
        }
        let Some(witness) = non_core_witness(e, &alive, &candidates) else {
            break;
        };
        // Orbit folding: the witness maps the alive sub-instance into itself
        // missing at least one candidate, so *every* alive value outside its
        // image retracts away in one step.  Image values stay alive — each is
        // the image of an alive fact's argument (or a distinguished value),
        // so none of them becomes isolated by the fold.
        let mut in_image = vec![false; n];
        for (_, t) in witness.pairs() {
            in_image[t.index()] = true;
        }
        let mut shrunk = false;
        for v in 0..n {
            if alive[v] && !in_image[v] && !is_distinguished[v] {
                alive[v] = false;
                shrunk = true;
            }
        }
        debug_assert!(shrunk, "a retraction witness must miss a candidate");
        if !shrunk {
            break; // defensive: never loop forever
        }
    }
    let keep: HashSet<Value> = inst.values().filter(|v| alive[v.index()]).collect();
    let (sub, map) = inst.induced(&keep);
    let dist: Vec<Value> = e.distinguished().iter().map(|d| map[d]).collect();
    Example::new(sub, dist)
}

/// True if the example is a core: no proper retraction exists.  Runs the
/// same batched, mask-based candidate checks as [`core_of`] (with the full
/// domain alive, matching the oracle's semantics of keeping declared values
/// in place).
pub fn is_core(e: &Example) -> bool {
    let inst = e.instance();
    let alive = vec![true; inst.num_values()];
    let is_distinguished: HashSet<Value> = e.distinguished().iter().copied().collect();
    let candidates: Vec<Value> = inst
        .values()
        .filter(|&v| inst.is_active(v) && !is_distinguished.contains(&v))
        .collect();
    non_core_witness(e, &alive, &candidates).is_none()
}

/// True if the two examples are homomorphically equivalent (homomorphisms in
/// both directions exist).
pub fn hom_equivalent(e1: &Example, e2: &Example) -> bool {
    find_homomorphism(e1, e2).is_some() && find_homomorphism(e2, e1).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfit_data::{Instance, Schema};

    fn boolean(facts: &[(&str, &str)]) -> Example {
        let mut i = Instance::new(Schema::digraph());
        for (a, b) in facts {
            i.add_fact_labels("R", &[a, b]).unwrap();
        }
        Example::boolean(i)
    }

    #[test]
    fn core_of_symmetric_even_cycle_is_symmetric_edge() {
        // The symmetric (undirected) 4-cycle is homomorphically equivalent to
        // a single symmetric edge (it is 2-colorable), so its core has 2
        // values and 2 facts.
        let c4 = boolean(&[
            ("0", "1"),
            ("1", "0"),
            ("1", "2"),
            ("2", "1"),
            ("2", "3"),
            ("3", "2"),
            ("3", "0"),
            ("0", "3"),
        ]);
        let core = core_of(&c4);
        assert_eq!(core.instance().num_values(), 2);
        assert_eq!(core.size(), 2);
        assert!(hom_equivalent(&c4, &core));
        assert!(is_core(&core));
    }

    #[test]
    fn directed_even_cycle_is_a_core() {
        // Unlike the symmetric case, the *directed* 4-cycle has no proper
        // retract (it contains no shorter directed cycle as a sub-instance).
        let c4 = boolean(&[("0", "1"), ("1", "2"), ("2", "3"), ("3", "0")]);
        assert!(is_core(&c4));
    }

    #[test]
    fn two_disjoint_edges_core_to_one() {
        let e = boolean(&[("a", "b"), ("c", "d")]);
        let core = core_of(&e);
        assert_eq!(core.instance().num_values(), 2);
        assert_eq!(core.size(), 1);
    }

    #[test]
    fn odd_cycle_is_core() {
        let c5 = boolean(&[("0", "1"), ("1", "2"), ("2", "3"), ("3", "4"), ("4", "0")]);
        assert!(is_core(&c5));
        let core = core_of(&c5);
        assert_eq!(core.instance().num_values(), 5);
    }

    #[test]
    fn path_core_is_whole_path() {
        // Directed paths are cores; verify with the library rather than by
        // hand.
        let p3 = boolean(&[("0", "1"), ("1", "2"), ("2", "3")]);
        let core = core_of(&p3);
        assert!(hom_equivalent(&p3, &core));
        assert!(is_core(&core));
        assert_eq!(core.instance().num_values(), 4, "directed paths are cores");
    }

    #[test]
    fn distinguished_values_are_kept() {
        // Two parallel edges from a distinguished source; the non-
        // distinguished copy folds away, the distinguished one stays.
        let mut i = Instance::new(Schema::digraph());
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        i.add_fact_labels("R", &["a", "c"]).unwrap();
        let a = i.value_by_label("a").unwrap();
        let b = i.value_by_label("b").unwrap();
        let e = Example::new(i, vec![a, b]);
        let core = core_of(&e);
        assert_eq!(core.instance().num_values(), 2);
        assert_eq!(core.arity(), 2);
        assert!(core.is_data_example());
    }

    #[test]
    fn core_idempotent() {
        let c6 = boolean(&[
            ("0", "1"),
            ("1", "2"),
            ("2", "3"),
            ("3", "4"),
            ("4", "5"),
            ("5", "0"),
        ]);
        let once = core_of(&c6);
        let twice = core_of(&once);
        assert_eq!(once.instance().num_values(), twice.instance().num_values());
        assert!(hom_equivalent(&once, &twice));
    }

    #[test]
    fn hom_equivalence_examples() {
        let loop1 = boolean(&[("x", "x")]);
        let loop2 = boolean(&[("y", "y"), ("y", "z"), ("z", "y")]);
        assert!(hom_equivalent(&loop1, &loop2));
        let edge = boolean(&[("a", "b")]);
        assert!(!hom_equivalent(&loop1, &edge));
    }

    /// Regression for the isolated-value cleanup: padding an instance with
    /// declared-but-isolated values must neither survive into the core nor
    /// change it, and the dead values are masked out before any retraction
    /// check runs (they are never candidates and never candidate images).
    #[test]
    fn padded_isolated_values_are_masked_out_up_front() {
        let mut i = Instance::new(Schema::digraph());
        i.add_fact_labels("R", &["a", "b"]).unwrap();
        i.add_fact_labels("R", &["a", "c"]).unwrap();
        for k in 0..16 {
            i.add_value(format!("pad{k}"));
        }
        let a = i.value_by_label("a").unwrap();
        let e = Example::new(i, vec![a]);
        let core = core_of(&e);
        assert_eq!(core.instance().num_values(), 2, "pads and one edge fold");
        assert_eq!(core.size(), 1);
        assert!(core.is_data_example());
        assert!(is_core(&core));
        // The padded and unpadded instances have isomorphic cores.
        let mut j = Instance::new(Schema::digraph());
        j.add_fact_labels("R", &["a", "b"]).unwrap();
        j.add_fact_labels("R", &["a", "c"]).unwrap();
        let a2 = j.value_by_label("a").unwrap();
        let unpadded_core = core_of(&Example::new(j, vec![a2]));
        assert_eq!(
            core.instance().num_values(),
            unpadded_core.instance().num_values()
        );
        assert_eq!(core.size(), unpadded_core.size());
        assert!(hom_equivalent(&core, &unpadded_core));
    }

    /// Orbit pruning: the rotations of a directed cycle form one orbit, so
    /// the sweep certifies C_105 after the identity and one rotation rather
    /// than after all 105 root images (each root image of a directed cycle
    /// fixes one endomorphism, a rotation).  Each explored root image sets
    /// one `explored` flag that was clear (its orbit root's), and flags are
    /// never cleared, so the set flags bound the explored root images.
    #[test]
    fn sweep_certifies_a_long_cycle_after_two_root_images() {
        let labels: Vec<String> = (0..105).map(|k| k.to_string()).collect();
        let facts: Vec<(&str, &str)> = (0..105)
            .map(|k| (labels[k].as_str(), labels[(k + 1) % 105].as_str()))
            .collect();
        let c105 = boolean(&facts);
        let alive = vec![true; 105];
        let candidates: Vec<Value> = c105.instance().values().collect();
        let mut orbits = Orbits::new(105);
        assert!(matches!(
            endo_sweep(&c105, &alive, &candidates, &mut orbits),
            Sweep::AllSurjective
        ));
        let explored = orbits.explored.iter().filter(|&&b| b).count();
        assert!((1..=2).contains(&explored), "{explored} root images");
        // One orbit, already explored: every further root image is skipped.
        assert!(candidates.iter().all(|&t| orbits.skip_root_image(t)));
        assert_eq!(orbits.representatives(&candidates), vec![Value(0)]);
        assert!(is_core(&c105));
        assert_eq!(core_of(&c105).instance().num_values(), 105);
    }

    /// Orbit folding: the witness image shrinks a long foldable structure in
    /// few rounds, and the result still matches the greedy oracle.
    #[test]
    fn symmetric_path_folds_to_edge_and_agrees_with_oracle() {
        let mut facts = Vec::new();
        let labels: Vec<String> = (0..12).map(|k| k.to_string()).collect();
        for k in 0..11usize {
            facts.push((labels[k].as_str(), labels[k + 1].as_str()));
            facts.push((labels[k + 1].as_str(), labels[k].as_str()));
        }
        let e = boolean(&facts);
        let fast = core_of(&e);
        let slow = reference::core_of(&e);
        assert_eq!(fast.instance().num_values(), 2);
        assert_eq!(fast.instance().num_values(), slow.instance().num_values());
        assert_eq!(fast.size(), slow.size());
        assert!(hom_equivalent(&fast, &slow));
    }
}
