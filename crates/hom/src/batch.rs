//! Batched homomorphism checks, fanned across `std::thread::scope` workers.
//!
//! Every fitting procedure of the paper reduces to *families* of independent
//! homomorphism checks: the product of the positives against each negative
//! example (Prop. 3.3), every positive against every negative for UCQs
//! (Prop. 4.2), each frontier member against each negative (Prop. 3.11),
//! each candidate counterexample of a duality check against both sides.
//! The helpers here run such a family in parallel while keeping every
//! individual check exact — batching changes wall-clock time, never answers.
//!
//! The implementation uses only the standard library (scoped threads plus an
//! atomic work-stealing cursor); results are written per worker and merged,
//! so no locks are held while searching.  All entry points are deterministic:
//! they return exactly what the equivalent sequential loop would return.
//! The pool itself ([`run_pool`]) is public: the fitting engine runs the
//! workspace groups of a pipelined request window on it.

use crate::search::{find_homomorphism, hom_exists, Homomorphism};
use cqfit_data::Example;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A batch is worth threading only above this size: below it, thread spawn
/// latency (tens of microseconds per worker) dominates small searches, so
/// short batches run the plain sequential loop.
const MIN_PARALLEL_BATCH: usize = 4;

/// The machine parallelism, queried once per process.  A process pinned
/// to one CPU before the first query sees 1, so every pool it sizes by
/// this runs on the calling thread.
pub fn parallelism() -> usize {
    static PARALLELISM: OnceLock<usize> = OnceLock::new();
    *PARALLELISM.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Number of workers for a batch of `n` independent checks: at most the
/// machine parallelism, and never more than one worker per two checks,
/// so each spawned thread amortizes its spawn cost over at least two
/// searches.
fn worker_count(n: usize) -> usize {
    #[cfg(test)]
    if let Some(workers) = tests::FORCED_WORKERS.with(std::cell::Cell::get) {
        return workers;
    }
    if n < MIN_PARALLEL_BATCH {
        return 1;
    }
    parallelism().min(n / 2)
}

/// [`run_pool`] with the batch's own worker count.  Shared with the hom
/// cache (`crate::cache`) and the core engine (`crate::core`).
pub(crate) fn run_batch<T, F, H>(n: usize, f: F, hit: H) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    H: Fn(&T) -> bool + Sync,
{
    run_pool(worker_count(n), n, f, hit)
}

/// Runs `f(i)` for the indices `0..n` across `workers` scoped workers, in
/// index order up to the smallest `i` whose result satisfies `hit`, and
/// returns exactly that prefix: `f(0..=i)` when some index hits, `f(0..n)`
/// otherwise.  Workers skip only indices above an already-found hit, so
/// every index up to the smallest hit runs whatever the thread timing,
/// and the returned prefix is what the sequential loop that stops at the
/// first hit would return.  With `workers <= 1` the loop runs on the
/// calling thread and spawns nothing.
pub fn run_pool<T, F, H>(workers: usize, n: usize, f: F, hit: H) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    H: Fn(&T) -> bool + Sync,
{
    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let v = f(i);
            let stop = hit(&v);
            out.push(v);
            if stop {
                break;
            }
        }
        return out;
    }
    let cursor = AtomicUsize::new(0);
    let best = AtomicUsize::new(usize::MAX);
    let locals: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        // The cursor only grows, so once it passes the
                        // best hit every later index is past it too.
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n || i > best.load(Ordering::Relaxed) {
                            break;
                        }
                        let v = f(i);
                        if hit(&v) {
                            best.fetch_min(i, Ordering::Relaxed);
                        }
                        local.push((i, v));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    let len = n.min(best.into_inner().saturating_add(1));
    let mut out: Vec<Option<T>> = Vec::with_capacity(len);
    out.resize_with(len, || None);
    for (i, v) in locals.into_iter().flatten() {
        if i < len {
            out[i] = Some(v);
        }
    }
    out.into_iter()
        .map(|v| v.expect("every index up to the first hit runs"))
        .collect()
}

/// The smallest `i < n` for which `f(i)` is `Some`, with its value, by
/// [`run_batch`]'s early-exit rule.
pub(crate) fn find_first<T, F>(n: usize, f: F) -> Option<(usize, T)>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
{
    let mut results = run_batch(n, f, Option::is_some);
    let last = results.len().checked_sub(1)?;
    results.pop().flatten().map(|v| (last, v))
}

/// Checks every `(src, dst)` pair for homomorphism existence, in parallel.
///
/// Equivalent to `pairs.iter().map(|(s, d)| hom_exists(s, d)).collect()`,
/// with the independent checks fanned across scoped worker threads.  Panics
/// (like [`hom_exists`]) if some pair mixes schemas or arities.
pub fn hom_exists_batch(pairs: &[(&Example, &Example)]) -> Vec<bool> {
    run_batch(
        pairs.len(),
        |i| hom_exists(pairs[i].0, pairs[i].1),
        |_| false,
    )
}

/// True if *some* pair admits a homomorphism, in parallel with early exit.
///
/// Equivalent to `pairs.iter().any(|(s, d)| hom_exists(s, d))`; checks
/// after the first pair admitting a homomorphism are skipped.
pub fn any_hom_exists_batch(pairs: &[(&Example, &Example)]) -> bool {
    run_batch(
        pairs.len(),
        |i| hom_exists(pairs[i].0, pairs[i].1),
        |&yes| yes,
    )
    .last()
    .is_some_and(|&yes| yes)
}

/// Row-major matrix of boolean answers over a `rows × cols` cross product
/// of checks, with the stride arithmetic kept in one place.
pub struct CrossFlags {
    flags: Vec<bool>,
    cols: usize,
}

impl CrossFlags {
    /// Wraps a row-major flag vector; `flags.len()` must be a multiple of
    /// `cols` (or empty when `cols` is 0).
    pub fn from_flags(flags: Vec<bool>, cols: usize) -> Self {
        debug_assert!(cols == 0 || flags.len().is_multiple_of(cols));
        CrossFlags { flags, cols }
    }

    /// The flags of row `i` (empty when there are no columns).
    pub fn row(&self, i: usize) -> &[bool] {
        &self.flags[i * self.cols..(i + 1) * self.cols]
    }

    /// True if some flag in row `i` is set.
    pub fn any_in_row(&self, i: usize) -> bool {
        self.row(i).iter().any(|&b| b)
    }

    /// True if some flag in column `j` is set.
    pub fn any_in_col(&self, j: usize) -> bool {
        self.flags
            .iter()
            .skip(j)
            .step_by(self.cols.max(1))
            .any(|&b| b)
    }

    /// The `(row, column)` of the first set flag in row-major order.
    pub fn first_true(&self) -> Option<(usize, usize)> {
        self.flags
            .iter()
            .position(|&b| b)
            .map(|p| (p / self.cols, p % self.cols))
    }
}

/// Checks every `(src, dst)` pair of the `srcs × dsts` cross product for
/// homomorphism existence as one parallel batch, returning the row-major
/// answer matrix (rows = sources).
pub fn hom_exists_cross(srcs: &[&Example], dsts: &[&Example]) -> CrossFlags {
    let pairs: Vec<(&Example, &Example)> = srcs
        .iter()
        .flat_map(|&s| dsts.iter().map(move |&d| (s, d)))
        .collect();
    CrossFlags::from_flags(hom_exists_batch(&pairs), dsts.len())
}

/// Finds the smallest index whose pair admits a homomorphism, together with
/// a witness, in parallel.
///
/// Equivalent to the sequential
/// `pairs.iter().enumerate().find_map(|(i, (s, d))| find_homomorphism(s, d).map(|h| (i, h)))`.
pub fn find_first_hom_batch(pairs: &[(&Example, &Example)]) -> Option<(usize, Homomorphism)> {
    find_first(pairs.len(), |i| find_homomorphism(pairs[i].0, pairs[i].1))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cqfit_data::{Instance, Schema};
    use std::cell::Cell;

    thread_local! {
        /// Worker count forced on batches started from this thread.
        pub(crate) static FORCED_WORKERS: Cell<Option<usize>> = const { Cell::new(None) };
    }

    /// Runs `f` with every batch it starts on this thread using exactly
    /// `workers` workers, whatever the batch size and machine.
    pub(crate) fn with_workers<R>(workers: usize, f: impl FnOnce() -> R) -> R {
        FORCED_WORKERS.with(|w| w.set(Some(workers)));
        let out = f();
        FORCED_WORKERS.with(|w| w.set(None));
        out
    }

    fn cycle(n: usize) -> Example {
        let mut i = Instance::new(Schema::digraph());
        let vs = i.add_values("c", n);
        for k in 0..n {
            i.add_fact_by_name("R", &[vs[k], vs[(k + 1) % n]]).unwrap();
        }
        Example::boolean(i)
    }

    fn clique(n: usize) -> Example {
        let mut i = Instance::new(Schema::digraph());
        let vs = i.add_values("k", n);
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    i.add_fact_by_name("R", &[vs[a], vs[b]]).unwrap();
                }
            }
        }
        Example::boolean(i)
    }

    #[test]
    fn batch_matches_sequential() {
        let srcs = [cycle(3), cycle(4), cycle(5), cycle(6), cycle(7)];
        let k2 = clique(2);
        let pairs: Vec<(&Example, &Example)> = srcs.iter().map(|s| (s, &k2)).collect();
        let batch = hom_exists_batch(&pairs);
        let seq: Vec<bool> = pairs.iter().map(|(s, d)| hom_exists(s, d)).collect();
        assert_eq!(batch, seq);
        assert_eq!(batch, vec![false, true, false, true, false]);
    }

    #[test]
    fn any_agrees_with_or() {
        let k2 = clique(2);
        let odd = [cycle(3), cycle(5), cycle(7)];
        let pairs: Vec<(&Example, &Example)> = odd.iter().map(|s| (s, &k2)).collect();
        assert!(!any_hom_exists_batch(&pairs));
        let mixed = [cycle(3), cycle(4), cycle(5)];
        let pairs: Vec<(&Example, &Example)> = mixed.iter().map(|s| (s, &k2)).collect();
        assert!(any_hom_exists_batch(&pairs));
        assert!(!any_hom_exists_batch(&[]));
    }

    #[test]
    fn first_hit_is_the_smallest_index() {
        let k2 = clique(2);
        let srcs = [cycle(3), cycle(5), cycle(4), cycle(6), cycle(8)];
        let pairs: Vec<(&Example, &Example)> = srcs.iter().map(|s| (s, &k2)).collect();
        let (i, h) = find_first_hom_batch(&pairs).expect("even cycles map to K2");
        assert_eq!(i, 2);
        assert!(h.verify(&srcs[2], &k2));
        assert!(find_first_hom_batch(&[]).is_none());
        let odd = [cycle(3), cycle(5)];
        let pairs: Vec<(&Example, &Example)> = odd.iter().map(|s| (s, &k2)).collect();
        assert!(find_first_hom_batch(&pairs).is_none());
    }

    #[test]
    fn early_exit_returns_the_prefix_to_the_smallest_hit() {
        for workers in [1, 2, 4] {
            with_workers(workers, || {
                for _ in 0..50 {
                    let prefix = run_batch(64, |i| i, |&i| i % 16 == 13);
                    assert_eq!(prefix, (0..=13).collect::<Vec<_>>(), "{workers} workers");
                    let all = run_batch(64, |i| i, |_| false);
                    assert_eq!(all, (0..64).collect::<Vec<_>>(), "{workers} workers");
                    assert!(run_batch(0, |i| i, |_| true).is_empty());
                }
            });
        }
    }

    #[test]
    fn cross_flags_decode_rows_and_columns() {
        let k2 = clique(2);
        let k3 = clique(3);
        let srcs = [cycle(3), cycle(4)];
        let src_refs: Vec<&Example> = srcs.iter().collect();
        let dsts = [&k2, &k3];
        // C3 → K2 no, C3 → K3 yes; C4 → K2 yes, C4 → K3 yes.
        let cross = hom_exists_cross(&src_refs, &dsts);
        assert_eq!(cross.row(0), &[false, true]);
        assert_eq!(cross.row(1), &[true, true]);
        assert!(cross.any_in_row(0) && cross.any_in_row(1));
        assert!(cross.any_in_col(0), "C4 → K2 sets column 0");
        assert!(cross.any_in_col(1));
        assert_eq!(cross.first_true(), Some((0, 1)));
        // Degenerate shapes.
        let empty_dst = hom_exists_cross(&src_refs, &[]);
        assert!(!empty_dst.any_in_row(0));
        assert_eq!(hom_exists_cross(&[], &dsts).first_true(), None);
    }

    #[test]
    fn large_batch_exercises_all_workers() {
        let k3 = clique(3);
        let srcs: Vec<Example> = (3..40).map(cycle).collect();
        let pairs: Vec<(&Example, &Example)> = srcs.iter().map(|s| (s, &k3)).collect();
        let batch = hom_exists_batch(&pairs);
        for (k, &yes) in (3..40).zip(batch.iter()) {
            assert_eq!(yes, hom_exists(&srcs[k - 3], &k3), "k = {k}");
        }
    }
}
