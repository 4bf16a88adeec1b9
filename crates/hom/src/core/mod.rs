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
//! differs from the preserved greedy oracle ([`self::reference`]) in four
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
fn endo_sweep(e: &Example, alive: &[bool], candidates: &[Value]) -> Sweep {
    let n = e.instance().num_values();
    let limit = 16 + 4 * candidates.len();
    let max_nodes = 64 + 32 * n as u64;
    let mut image = vec![false; n];
    let non_surjective = |h: &Homomorphism, image: &mut Vec<bool>| {
        for slot in image.iter_mut() {
            *slot = false;
        }
        for (_, t) in h.pairs() {
            image[t.index()] = true;
        }
        candidates.iter().any(|c| !image[c.index()])
    };
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
        |h| non_surjective(h, &mut image),
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
        // Primary strategy: one capped endomorphism sweep, which either
        // certifies the core, yields a foldable witness, or punts.
        let witness = match endo_sweep(e, &alive, &candidates) {
            Sweep::NonSurjective(h) => Some(h),
            Sweep::AllSurjective => None,
            // Fallback: batched per-candidate retraction checks.
            Sweep::Capped => first_retraction(e, &alive, &candidates).map(|(_, h)| h),
        };
        let Some(witness) = witness else {
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
    match endo_sweep(e, &alive, &candidates) {
        Sweep::NonSurjective(_) => false,
        Sweep::AllSurjective => true,
        Sweep::Capped => first_retraction(e, &alive, &candidates).is_none(),
    }
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
