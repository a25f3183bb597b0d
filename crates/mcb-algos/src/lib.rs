//! # mcb-algos — sorting and selection in multi-channel broadcast networks
//!
//! The algorithmic contribution of Marberg & Gafni (1985), implemented
//! against the [`mcb_net`] simulator:
//!
//! | Paper | Module | Result |
//! |-------|--------|--------|
//! | §5.1  | [`columnsort`] | Leighton's Columnsort (pure, the specification) |
//! | §5.2  | [`sort::direct`], [`sort::grouped`] | MCB Columnsort, `Θ(n)` messages / `Θ(n/k)` cycles for even distributions |
//! | §6.1  | [`sort::ranksort`], [`sort::mergesort`], [`sort::recursive`] | single-channel sorts and memory-efficient virtual columns |
//! | §6.2  | [`sort::recursive`] | recursive Columnsort for small inputs (Corollary 5) |
//! | §7.1  | [`partial_sums`] | the Partial-Sums tree algorithm, `O(p/k + log p)` cycles |
//! | §7.2  | [`sort::grouped`] | uneven distributions, `Θ(max{n/k, n_max})` cycles (Corollary 6) |
//! | §8    | [`select`] | selection by rank, `Θ(p log(kn/p))` messages (Corollary 7), plus the naive sort-based and Shout-Echo baselines |
//! | §1    | [`extrema`] | extrema finding (the related-work warm-up problem) via Partial-Sums |
//! | §2    | [`static_schedule`] | the simulation lemma: emitted schedules remapped onto `k' < k` survivors, or folded onto fewer processors, and re-proved by `mcb_check::degrade` |
//! | §2+§5/§8 | [`heal`] | self-healing variants with **no fault oracle**: wire-level detection, epoch reconfiguration, crash takeover |
//! | service | [`batch`] | many sort/select jobs composed into one healed run: disjoint role groups, round-robin phase interleaving, per-tenant attribution |
//! | §5 (oblivious) | [`networks`] | comparator-network compiler: Batcher / optimal small / multiway-merge networks packed onto `k` channels, proven sort-correct for **all** inputs by `mcb_check::symbolic` |
//!
//! All distributed algorithms come in two forms: a driver (`sort_grouped`,
//! `select_rank`, …) that builds the network and returns results plus
//! [`mcb_net::Metrics`], and a `_in` subroutine form callable from inside a
//! larger protocol in lock-step — the composition mechanism the paper uses
//! when selection sorts its (median, count) pairs with the §5 algorithm.
//! The [`steps`] module adds a third form for the two workhorses: Rank-Sort
//! and networked Columnsort as [`mcb_net::StepProtocol`] state machines,
//! runnable thread-free at `p = 10^5` on the struct-of-arrays
//! [`mcb_net::Backend::Vector`] engine.
//!
//! ```
//! use mcb_algos::sort::{sort_grouped, verify_sorted};
//!
//! let lists = vec![vec![5u64, 1], vec![9, 3, 7], vec![2, 8]];
//! let report = sort_grouped(2, lists.clone()).unwrap();
//! verify_sorted(&lists, &report.lists).unwrap();
//! assert_eq!(report.lists[0], vec![9, 8]); // P1 gets the largest
//! ```

#![warn(missing_docs)]
// Index-based loops are kept where the index is a matrix/processor
// coordinate shared across several arrays; iterators would obscure the
// schedule math.
#![allow(clippy::needless_range_loop)]

pub mod batch;
pub mod columnsort;
pub mod extrema;
pub mod heal;
pub mod local;
pub mod msg;
pub mod networks;
pub mod partial_sums;
pub mod schedule;
pub mod select;
pub mod sort;
pub mod static_schedule;
pub mod steps;

pub use msg::{Key, Word};
pub use networks::{batcher, bose_nelson, network_sort, network_sort_in, NetworkKind, NetworkSpec};
pub use steps::{
    columnsort_schedules, columnsort_steps, rank_sort_steps, ColumnsortStep, ColumnsortStepsReport,
    RankSortStep,
};
