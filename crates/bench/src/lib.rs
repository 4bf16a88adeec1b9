//! # cqfit-bench
//!
//! The benchmark harness lives entirely in `benches/`; one Criterion target
//! per table / size-bound theorem of the paper:
//!
//! * `table1_cq`      — Table 1 (CQs): verification / existence / construction
//! * `table2_ucq`     — Table 2 (UCQs)
//! * `table3_treecq`  — Table 3 (tree CQs)
//! * `size_families`  — Theorems 3.40, 3.41, 3.42 and 5.37 (size lower bounds)
//! * `ablation_hom`   — ablation: arc-consistency propagation on/off
//!
//! Run with `cargo bench --workspace`; the measured series and the mapping to
//! the paper's claims are recorded in `EXPERIMENTS.md`.
//!
//! These are kernel microbenchmarks.  The engine is measured end to end
//! (QBE sessions over TCP against a durable store) by the standalone
//! `qbebench` crate; see `qbebench/README.md`.  The historical
//! `BENCH_pr2.json` … `BENCH_pr10.json` captures came from the retired
//! per-PR perf harness of this crate as of commit `f249b8b`; they are kept
//! as frozen records.
