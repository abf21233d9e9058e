//! Affine invariant generation for transition systems.
//!
//! The synthesis algorithm (Section 5 of the paper) assumes that every location comes
//! with an *affine invariant*: a conjunction of affine inequalities over-approximating
//! the reachable states at that location. The paper obtains these from the off-the-shelf
//! tools Aspic and Sting; this crate provides the equivalent substrate:
//!
//! * [`Polyhedron`] — a conjunction of affine inequalities with LP-backed emptiness and
//!   entailment checks, Fourier–Motzkin projection, a sound (weak) join, a
//!   constraint-based convex-hull-lite join, and widening with and without thresholds;
//! * [`InvariantAnalysis`] — a forward abstract-interpretation fixpoint over a
//!   [`TransitionSystem`](dca_ir::TransitionSystem) producing an [`InvariantMap`];
//! * [`InvariantTier`] — the precision ladder of the engine. `Baseline` mirrors the
//!   original fixed-precision analysis; `Hull` upgrades the join to the hull-lite
//!   (with interval and octagon directions), widens with thresholds harvested from
//!   transition guards and Θ0, and runs a descending narrowing pass; `Relational`
//!   additionally restricts widening to the loop headers reported by
//!   [`dca_ir::LoopNest`], so relational facts between inner and outer loop counters
//!   survive propagation. The solver's escalation ladder climbs these tiers before
//!   escalating the (much more expensive) template degree;
//! * support for merging user-supplied invariants, mirroring the paper's manual
//!   strengthening of the `*`-marked benchmarks.
//!
//! The produced invariants are *sound over-approximations*: every reachable state
//! satisfies them. Soundness of the differential-cost result only depends on this
//! property (Theorem 5.1), not on their precision — the tiers trade analysis time for
//! the *strength* of the facts available to the Handelman certificates.
//!
//! # Example
//!
//! ```
//! use dca_invariants::InvariantAnalysis;
//! use dca_ir::{TsBuilder, Update};
//! use dca_poly::{LinExpr, Polynomial};
//!
//! // while (i < n) { i++; cost++ } with 1 <= n <= 100, i = 0 initially.
//! let mut b = TsBuilder::new();
//! let i = b.var("i");
//! let n = b.var("n");
//! let head = b.location("head");
//! let out = b.terminal();
//! b.set_initial(head);
//! b.add_theta0(LinExpr::var(n) - LinExpr::from_int(1));
//! b.add_theta0(LinExpr::from_int(100) - LinExpr::var(n));
//! b.add_theta0_eq(LinExpr::var(i));
//! b.transition(head, head)
//!     .guard(LinExpr::var(n) - LinExpr::var(i) - LinExpr::from_int(1))
//!     .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
//!     .tick(1)
//!     .finish();
//! b.transition(head, out).guard(LinExpr::var(i) - LinExpr::var(n)).finish();
//! let ts = b.build().unwrap();
//!
//! let invariants = InvariantAnalysis::default().analyze(&ts);
//! // The loop-head invariant entails i >= 0.
//! assert!(invariants.entails(head, &LinExpr::var(i)));
//! ```

#![deny(missing_docs)]

mod analysis;
mod polyhedron;
mod query_cache;

pub use analysis::{InvariantAnalysis, InvariantMap, InvariantTier};
pub use polyhedron::{interval, Polyhedron};
pub use query_cache::QueryStats;
