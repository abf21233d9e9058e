//! Forward abstract-interpretation fixpoint over a transition system.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use dca_ir::{LocId, LoopNest, TransitionSystem, Update};
use dca_poly::{LinExpr, VarId};

use crate::polyhedron::Polyhedron;
use crate::query_cache::{CacheScope, QueryStats};

/// Precision tier of the invariant engine.
///
/// The tiers trade analysis time for invariant strength; the solver's escalation ladder
/// (`dca_core::escalate`) climbs them *before* resorting to a more expensive template
/// degree. Each tier is a strict superset of the previous one's machinery:
///
/// | tier | join | widening | extras |
/// |------|------|----------|--------|
/// | `Baseline` | entailment filter | plain | — |
/// | `Hull` | constraint-based hull (interval + octagon directions) | with thresholds harvested from guards and Θ0 | one descending narrowing round |
/// | `Relational` | as `Hull` | as `Hull` | two narrowing rounds |
///
/// At every tier, widening fires only on deliveries along back edges (computed by
/// [`dca_ir::LoopNest`]), so straight-line and join locations — including the entry of
/// a loop that is sequentially composed after another loop — propagate their values
/// exactly and post-loop facts survive into downstream loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum InvariantTier {
    /// The fast fixed-precision engine: weak entailment-filter join, plain widening.
    #[default]
    Baseline,
    /// Hull-lite join plus widening-with-thresholds and a narrowing pass.
    Hull,
    /// Loop-nest-aware: widening restricted to loop headers, deeper narrowing.
    Relational,
}

impl InvariantTier {
    /// All tiers, weakest first.
    pub const ALL: [InvariantTier; 3] =
        [InvariantTier::Baseline, InvariantTier::Hull, InvariantTier::Relational];

    /// Numeric index of the tier (0 = baseline).
    pub fn index(self) -> u32 {
        match self {
            InvariantTier::Baseline => 0,
            InvariantTier::Hull => 1,
            InvariantTier::Relational => 2,
        }
    }

    /// The tier with the given index, if it exists.
    pub fn from_index(index: u32) -> Option<InvariantTier> {
        InvariantTier::ALL.get(index as usize).copied()
    }

    /// The next-stronger tier, if any.
    pub fn next(self) -> Option<InvariantTier> {
        InvariantTier::from_index(self.index() + 1)
    }
}

impl fmt::Display for InvariantTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            InvariantTier::Baseline => "baseline",
            InvariantTier::Hull => "hull",
            InvariantTier::Relational => "relational",
        };
        write!(f, "{name}")
    }
}

/// A map from program locations to affine invariants.
#[derive(Debug, Clone)]
pub struct InvariantMap {
    invariants: BTreeMap<LocId, Polyhedron>,
    queries: QueryStats,
}

impl InvariantMap {
    /// How many LP queries the analysis that produced this map asked, and how many of
    /// them it solved rather than answered from its query cache.
    pub fn query_stats(&self) -> QueryStats {
        self.queries
    }

    /// The invariant at a location (`bottom` for locations never seen).
    pub fn at(&self, loc: LocId) -> Polyhedron {
        self.invariants.get(&loc).cloned().unwrap_or_else(Polyhedron::bottom)
    }

    /// The invariant at a location as a list of `expr ≥ 0` conjuncts
    /// (an explicitly false constraint for unreachable locations).
    pub fn constraints_at(&self, loc: LocId) -> Vec<LinExpr> {
        self.at(loc).constraints_or_false()
    }

    /// Returns `true` if the invariant at `loc` entails `expr ≥ 0`.
    pub fn entails(&self, loc: LocId, expr: &LinExpr) -> bool {
        self.at(loc).entails(expr)
    }

    /// Conjoins extra constraints onto the invariant at a location.
    ///
    /// This mirrors the manual invariant strengthening the paper applies to the
    /// `*`-marked benchmarks: the added facts are trusted, not re-verified.
    pub fn strengthen(&mut self, loc: LocId, extra: &[LinExpr]) {
        let mut p = self.at(loc);
        p.add_constraints(extra);
        self.invariants.insert(loc, p);
    }

    /// Iterates over `(location, invariant)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&LocId, &Polyhedron)> {
        self.invariants.iter()
    }

    /// Renders the whole map for debugging.
    pub fn render(&self, ts: &TransitionSystem) -> String {
        let mut out = String::new();
        for (loc, poly) in &self.invariants {
            out.push_str(&format!(
                "  {}: {}\n",
                ts.location_name(*loc),
                poly.render(ts.pool())
            ));
        }
        out
    }
}

/// The forward invariant-generation analysis.
#[derive(Debug, Clone)]
pub struct InvariantAnalysis {
    /// Number of times a location is re-visited with a growing abstract value before
    /// widening kicks in.
    pub widening_delay: usize,
    /// Hard cap on the number of worklist iterations (safety net).
    pub max_iterations: usize,
    /// If `true`, all knowledge about the `cost` variable is dropped. Potential-function
    /// synthesis never needs invariants about `cost`, and tracking it only slows down
    /// convergence (the accumulated cost rarely admits affine bounds).
    pub ignore_cost: bool,
    /// Precision tier (see [`InvariantTier`]).
    pub tier: InvariantTier,
}

impl Default for InvariantAnalysis {
    fn default() -> Self {
        InvariantAnalysis {
            widening_delay: 2,
            max_iterations: 2000,
            ignore_cost: true,
            tier: InvariantTier::Baseline,
        }
    }
}

impl InvariantAnalysis {
    /// The default analysis at the given precision tier.
    ///
    /// ```
    /// use dca_invariants::{InvariantAnalysis, InvariantTier};
    /// let analysis = InvariantAnalysis::at_tier(InvariantTier::Hull);
    /// assert_eq!(analysis.tier, InvariantTier::Hull);
    /// ```
    pub fn at_tier(tier: InvariantTier) -> InvariantAnalysis {
        InvariantAnalysis { tier, ..InvariantAnalysis::default() }
    }

    /// Runs the analysis and returns the invariant map.
    ///
    /// The result is a sound over-approximation of the reachable states of `ts`: for
    /// every reachable state `(ℓ, x)` the valuation `x` satisfies the invariant at `ℓ`.
    ///
    /// Every LP the polyhedral domain poses during the call is memoized, so a repeated
    /// feasibility, entailment or minimization question is solved once; the cache is
    /// dropped when the call returns or unwinds.
    pub fn analyze(&self, ts: &TransitionSystem) -> InvariantMap {
        let scope = CacheScope::install();
        let invariants = self.fixpoint(ts);
        InvariantMap { invariants, queries: scope.stats() }
    }

    /// [`InvariantAnalysis::analyze`] with every LP solved afresh: the reference the
    /// cached analysis must reproduce exactly.
    #[cfg(test)]
    fn analyze_uncached(&self, ts: &TransitionSystem) -> InvariantMap {
        let _scope = CacheScope::suspend();
        InvariantMap { invariants: self.fixpoint(ts), queries: QueryStats::default() }
    }

    /// Ascent, the tier's narrowing rounds and the final reduction.
    fn fixpoint(&self, ts: &TransitionSystem) -> BTreeMap<LocId, Polyhedron> {
        let fresh_base = ts.pool().len() as u32 + 16;
        let mut invariants = self.ascend(ts, fresh_base);
        if self.tier >= InvariantTier::Hull {
            let rounds = if self.tier >= InvariantTier::Relational { 2 } else { 1 };
            self.narrow(ts, &mut invariants, fresh_base, rounds);
        }
        // Final cleanup: drop LP-redundant constraints at locations whose invariant grew
        // large. This keeps the Handelman product sets (and therefore the synthesis LP)
        // small downstream. The tiered engines always reduce — their joins and
        // narrowing meets accumulate more constraints, and a minimal representation
        // both shrinks the downstream LP and speeds up further entailment checks.
        let reduce_above = if self.tier == InvariantTier::Baseline { 12 } else { 0 };
        for polyhedron in invariants.values_mut() {
            if polyhedron.constraints().is_some_and(|cs| cs.len() > reduce_above) {
                *polyhedron = polyhedron.reduce();
            }
        }
        invariants
    }

    /// The ascending (widening) fixpoint phase.
    fn ascend(&self, ts: &TransitionSystem, fresh_base: u32) -> BTreeMap<LocId, Polyhedron> {
        // Widening fires only on deliveries along *back edges* (at every tier).
        // Termination is preserved — an infinite ascending chain must propagate around a
        // cycle, every cycle closes with a back edge, and that edge's delivery counter
        // eventually exceeds the delay. Counting *all* deliveries (as earlier revisions
        // did) made a loop that merely sits downstream of another loop widen while the
        // upstream fixpoint was still churning, before its own back edge had delivered a
        // single iterate: the sequential composition `while(..){..}; while(..){..}`
        // then lost the second loop's `j ≤ n` bound, which is why the `SequentialSingle`
        // and `Ex4` rows of Table 1 went loose at the lower tiers.
        let back_edges: BTreeSet<usize> = LoopNest::analyze(ts)
            .back_edges()
            .iter()
            .map(|edge| edge.transition)
            .collect();
        let thresholds = if self.tier >= InvariantTier::Hull {
            self.harvest_thresholds(ts)
        } else {
            Vec::new()
        };

        let mut invariants: BTreeMap<LocId, Polyhedron> = BTreeMap::new();
        let mut visit_counts: BTreeMap<LocId, usize> = BTreeMap::new();
        for loc in ts.locations() {
            invariants.insert(loc, Polyhedron::bottom());
        }
        let mut initial = Polyhedron::from_constraints(ts.theta0().iter().cloned());
        if self.ignore_cost {
            initial = initial.project_out(ts.cost_var());
        }
        initial.normalize_emptiness();
        invariants.insert(ts.initial(), initial);

        let mut worklist: VecDeque<LocId> = VecDeque::new();
        worklist.push_back(ts.initial());
        let mut iterations = 0usize;

        while let Some(loc) = worklist.pop_front() {
            iterations += 1;
            if iterations > self.max_iterations {
                // Bailing out mid-ascent would keep *under*-approximated facts at
                // locations whose pending updates were never applied — unsound. The
                // only sound cheap answer is to give up on precision entirely.
                for polyhedron in invariants.values_mut() {
                    *polyhedron = Polyhedron::top();
                }
                break;
            }
            let current = invariants[&loc].clone();
            if current.is_bottom() {
                continue;
            }
            for (index, transition) in
                ts.transitions().iter().enumerate().filter(|(_, t)| t.source == loc)
            {
                if transition.source == ts.terminal() && transition.target == ts.terminal() {
                    continue; // terminal self-loop carries no information
                }
                let post = self.post(ts, &current, transition, fresh_base);
                if post.is_bottom() {
                    continue;
                }
                let target = transition.target;
                let existing = invariants[&target].clone();
                if post.entails_all(&existing) && !existing.is_bottom() {
                    continue; // no new information
                }
                let may_widen = back_edges.contains(&index);
                let count = visit_counts.entry(target).or_insert(0);
                if may_widen {
                    // Only growing deliveries around the loop itself count toward the
                    // delay; churn arriving through the entry edge keeps the exact join.
                    *count += 1;
                }
                let joined = self.join(&existing, &post);
                let mut updated = if may_widen && *count > self.widening_delay {
                    if self.tier >= InvariantTier::Hull {
                        existing.widen_with_thresholds(&joined, &thresholds)
                    } else {
                        existing.widen(&joined)
                    }
                } else {
                    joined
                };
                updated.normalize_emptiness();
                // Stability must be *semantic*: the hull join re-derives its constraint
                // list from scratch (different order, snapped constants), so a
                // syntactic comparison would see perpetual change, overrun the
                // widening delay, and widen away bounds that are in fact stable.
                let unchanged = updated == existing
                    || (self.tier >= InvariantTier::Hull
                        && updated.entails_all(&existing)
                        && existing.entails_all(&updated));
                if !unchanged {
                    invariants.insert(target, updated);
                    if !worklist.contains(&target) {
                        worklist.push_back(target);
                    }
                }
            }
        }
        invariants
    }

    /// The tier's join operator.
    fn join(&self, a: &Polyhedron, b: &Polyhedron) -> Polyhedron {
        if self.tier >= InvariantTier::Hull {
            a.hull_join(b)
        } else {
            a.join(b)
        }
    }

    /// Widening thresholds: every transition-guard conjunct and every Θ0 inequality
    /// (minus anything mentioning `cost` when it is ignored). These are exactly the
    /// bounds a loop maintains while iterating — the facts plain widening loses.
    fn harvest_thresholds(&self, ts: &TransitionSystem) -> Vec<LinExpr> {
        let cost = ts.cost_var();
        let mut thresholds: Vec<LinExpr> = Vec::new();
        let mut push = |expr: &LinExpr| {
            let normalized = expr.normalize();
            if normalized.is_constant() {
                return;
            }
            if !thresholds.contains(&normalized) {
                thresholds.push(normalized);
            }
        };
        for expr in ts.theta0() {
            if !self.ignore_cost || expr.coeff(cost).is_zero() {
                push(expr);
            }
        }
        for transition in ts.transitions() {
            for guard in &transition.guard {
                if !self.ignore_cost || guard.coeff(cost).is_zero() {
                    push(guard);
                    // The one-unit relaxation of the guard: a counter bounded by
                    // `g ≥ 0` *inside* the loop typically satisfies only `g + 1 ≥ 0`
                    // back at the loop head (after its increment), and that is the
                    // bound the widening must land on.
                    push(&(guard + &LinExpr::from_int(1)));
                }
            }
        }
        thresholds
    }

    /// Descending (narrowing) phase: re-evaluates every location as "initial states (at
    /// `ℓ0`) joined with the posts of all incoming transitions" and intersects with the
    /// ascending result. Sound because each side over-approximates the reachable states
    /// at the location; bounded rounds keep it cheap.
    fn narrow(
        &self,
        ts: &TransitionSystem,
        invariants: &mut BTreeMap<LocId, Polyhedron>,
        fresh_base: u32,
        rounds: usize,
    ) {
        let mut initial = Polyhedron::from_constraints(ts.theta0().iter().cloned());
        if self.ignore_cost {
            initial = initial.project_out(ts.cost_var());
        }
        initial.normalize_emptiness();
        for _ in 0..rounds {
            let mut changed = false;
            for loc in ts.locations() {
                let mut incoming = if loc == ts.initial() {
                    initial.clone()
                } else {
                    Polyhedron::bottom()
                };
                for transition in ts.transitions() {
                    if transition.target != loc
                        || (transition.source == ts.terminal()
                            && transition.target == ts.terminal())
                    {
                        continue;
                    }
                    let post =
                        self.post(ts, &invariants[&transition.source], transition, fresh_base);
                    incoming = self.join(&incoming, &post);
                }
                let refined = invariants[&loc].meet(&incoming).reduce();
                if refined != invariants[&loc] {
                    invariants.insert(loc, refined);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Abstract post-condition of one transition.
    fn post(
        &self,
        ts: &TransitionSystem,
        pre: &Polyhedron,
        transition: &dca_ir::Transition,
        fresh_base: u32,
    ) -> Polyhedron {
        let mut guarded = pre.clone();
        guarded.add_constraints(&transition.guard);
        guarded.normalize_emptiness();
        if guarded.is_bottom() {
            return Polyhedron::bottom();
        }
        // Build the simultaneous update: affine deterministic updates keep their
        // expression, everything else (non-affine or non-deterministic) is a havoc.
        let updates: Vec<(VarId, Option<LinExpr>)> = transition
            .updates
            .iter()
            .filter(|(v, _)| !(self.ignore_cost && **v == ts.cost_var()))
            .map(|(&v, update)| match update {
                Update::Assign(p) => (v, LinExpr::try_from_polynomial(p)),
                Update::Nondet => (v, None),
            })
            .collect();
        guarded.assign_simultaneous(&updates, fresh_base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_ir::TsBuilder;
    use dca_poly::Polynomial;

    /// Nested loop mirroring the running example's `join` (old version):
    /// for i in 0..lenA { for j in 0..lenB { cost += 1 } }
    fn nested_join() -> TransitionSystem {
        let mut b = TsBuilder::new();
        b.name("join_old");
        let i = b.var("i");
        let j = b.var("j");
        let len_a = b.var("lenA");
        let len_b = b.var("lenB");
        let l0 = b.location("l0");
        let l1 = b.location("l1");
        let l2 = b.location("l2");
        let out = b.terminal();
        b.set_initial(l0);
        b.add_theta0(LinExpr::var(len_a) - LinExpr::from_int(1));
        b.add_theta0(LinExpr::from_int(100) - LinExpr::var(len_a));
        b.add_theta0(LinExpr::var(len_b) - LinExpr::from_int(1));
        b.add_theta0(LinExpr::from_int(100) - LinExpr::var(len_b));
        // l0 -> l1: i := 0
        b.transition(l0, l1)
            .update(i, Update::assign(Polynomial::zero()))
            .finish();
        // l1 -> l2: guard i < lenA, j := 0
        b.transition(l1, l2)
            .guard(LinExpr::var(len_a) - LinExpr::var(i) - LinExpr::from_int(1))
            .update(j, Update::assign(Polynomial::zero()))
            .finish();
        // l2 -> l2: guard j < lenB, j++, cost++
        b.transition(l2, l2)
            .guard(LinExpr::var(len_b) - LinExpr::var(j) - LinExpr::from_int(1))
            .update(j, Update::assign(Polynomial::var(j) + Polynomial::from_int(1)))
            .tick(1)
            .finish();
        // l2 -> l1: guard j >= lenB, i++
        b.transition(l2, l1)
            .guard(LinExpr::var(j) - LinExpr::var(len_b))
            .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
            .finish();
        // l1 -> out: guard i >= lenA
        b.transition(l1, out)
            .guard(LinExpr::var(i) - LinExpr::var(len_a))
            .finish();
        b.build().unwrap()
    }

    #[test]
    fn loop_head_invariants_are_sound_and_useful() {
        let ts = nested_join();
        let invariants = InvariantAnalysis::default().analyze(&ts);
        let i = ts.pool().lookup("i").unwrap();
        let j = ts.pool().lookup("j").unwrap();
        let len_a = ts.pool().lookup("lenA").unwrap();
        let len_b = ts.pool().lookup("lenB").unwrap();
        let l1 = LocId(1);
        let l2 = LocId(2);
        // Outer loop head: 0 <= i <= lenA and the input bounds.
        assert!(invariants.entails(l1, &LinExpr::var(i)), "{}", invariants.render(&ts));
        assert!(invariants.entails(l1, &(LinExpr::var(len_a) - LinExpr::var(i))));
        assert!(invariants.entails(l1, &(LinExpr::var(len_a) - LinExpr::from_int(1))));
        assert!(invariants.entails(l1, &(LinExpr::from_int(100) - LinExpr::var(len_a))));
        // Inner loop head: additionally 0 <= j <= lenB and i < lenA.
        assert!(invariants.entails(l2, &LinExpr::var(j)));
        assert!(invariants.entails(l2, &(LinExpr::var(len_b) - LinExpr::var(j))));
        assert!(invariants.entails(
            l2,
            &(LinExpr::var(len_a) - LinExpr::var(i) - LinExpr::from_int(1))
        ));
    }

    /// Soundness at every tier: invariants (including the narrowed ones) must hold on
    /// every state an actual execution visits.
    #[test]
    fn invariants_hold_on_sampled_executions() {
        use dca_ir::{FixedOracle, Interpreter};
        let ts = nested_join();
        for tier in InvariantTier::ALL {
            let invariants = InvariantAnalysis::at_tier(tier).analyze(&ts);
            // Replay a run and check every visited state against its location
            // invariant. (The interpreter does not expose the trace directly, so
            // re-simulate by stepping through increasing step budgets.)
            for (len_a, len_b) in [(4i64, 3i64), (1, 1), (2, 5)] {
                let mut initial = dca_ir::IntValuation::new();
                for (name, value) in
                    [("i", 0i64), ("j", 0), ("lenA", len_a), ("lenB", len_b), ("cost", 0)]
                {
                    initial.insert(ts.pool().lookup(name).unwrap(), value);
                }
                for steps in 0..60 {
                    let result =
                        Interpreter::new(steps).run(&ts, &initial, &mut FixedOracle(0));
                    let state = result.final_state;
                    let invariant = invariants.at(state.loc);
                    for constraint in invariant.constraints_or_false() {
                        let value = constraint.eval(
                            &state
                                .vals
                                .iter()
                                .map(|(&v, &x)| (v, dca_numeric::Rational::from_int(x)))
                                .collect(),
                        );
                        assert!(
                            !value.is_negative(),
                            "tier {tier}: invariant violated at {} after {} steps \
                             (lenA={len_a}, lenB={len_b})",
                            ts.location_name(state.loc),
                            steps
                        );
                    }
                }
            }
        }
    }

    /// The tiers form a precision ladder on the nested-join system: everything the
    /// baseline proves at the loop heads, the hull tier proves too.
    #[test]
    fn hull_tier_is_at_least_as_precise_at_loop_heads() {
        let ts = nested_join();
        let baseline = InvariantAnalysis::default().analyze(&ts);
        let hull = InvariantAnalysis::at_tier(InvariantTier::Hull).analyze(&ts);
        for loc in [LocId(1), LocId(2)] {
            for constraint in baseline.at(loc).constraints_or_false() {
                assert!(
                    hull.entails(loc, &constraint),
                    "hull tier lost {constraint:?} at {}",
                    ts.location_name(loc)
                );
            }
        }
    }

    #[test]
    fn tier_enum_roundtrips() {
        for tier in InvariantTier::ALL {
            assert_eq!(InvariantTier::from_index(tier.index()), Some(tier));
        }
        assert_eq!(InvariantTier::from_index(3), None);
        assert_eq!(InvariantTier::Baseline.next(), Some(InvariantTier::Hull));
        assert_eq!(InvariantTier::Hull.next(), Some(InvariantTier::Relational));
        assert_eq!(InvariantTier::Relational.next(), None);
        assert_eq!(InvariantTier::Relational.to_string(), "relational");
        assert!(InvariantTier::Baseline < InvariantTier::Hull);
        assert_eq!(InvariantTier::default(), InvariantTier::Baseline);
    }

    /// Two sequential loops: `while (i < n) i++` then `while (j < n) j++`.
    /// Regression test for the back-edge widening delay: the upstream loop's fixpoint
    /// churn must not burn the downstream loop's widening delay, or the second head
    /// loses its `j ≤ n` bound (which made the `SequentialSingle` and `Ex4` Table-1
    /// rows loose at the lower tiers).
    fn sequential_loops() -> TransitionSystem {
        let mut b = TsBuilder::new();
        b.name("sequential");
        let i = b.var("i");
        let j = b.var("j");
        let n = b.var("n");
        let head1 = b.location("head1");
        let mid = b.location("mid");
        let head2 = b.location("head2");
        let out = b.terminal();
        b.set_initial(head1);
        b.add_theta0(LinExpr::var(n) - LinExpr::from_int(1));
        b.add_theta0(LinExpr::from_int(100) - LinExpr::var(n));
        // head1 self-loop: guard i < n, i++ (with a tick so the cost var exists).
        b.transition(head1, head1)
            .guard(LinExpr::var(n) - LinExpr::var(i) - LinExpr::from_int(1))
            .update(i, Update::assign(Polynomial::var(i) + Polynomial::from_int(1)))
            .tick(1)
            .finish();
        // head1 -> mid: guard i >= n; mid -> head2: j := 0.
        b.transition(head1, mid).guard(LinExpr::var(i) - LinExpr::var(n)).finish();
        b.transition(mid, head2)
            .update(j, Update::assign(Polynomial::zero()))
            .finish();
        // head2 self-loop: guard j < n, j++.
        b.transition(head2, head2)
            .guard(LinExpr::var(n) - LinExpr::var(j) - LinExpr::from_int(1))
            .update(j, Update::assign(Polynomial::var(j) + Polynomial::from_int(1)))
            .tick(1)
            .finish();
        b.transition(head2, out).guard(LinExpr::var(j) - LinExpr::var(n)).finish();
        b.build().unwrap()
    }

    #[test]
    fn second_sequential_loop_keeps_its_bounds_at_every_tier() {
        let ts = sequential_loops();
        let j = ts.pool().lookup("j").unwrap();
        let n = ts.pool().lookup("n").unwrap();
        let head2 = LocId(2);
        for tier in InvariantTier::ALL {
            let invariants = InvariantAnalysis::at_tier(tier).analyze(&ts);
            assert!(
                invariants.entails(head2, &LinExpr::var(j)),
                "tier {tier}: lost j >= 0 at the second loop head:\n{}",
                invariants.render(&ts)
            );
            assert!(
                invariants.entails(head2, &(LinExpr::var(n) - LinExpr::var(j))),
                "tier {tier}: lost j <= n at the second loop head:\n{}",
                invariants.render(&ts)
            );
        }
    }

    /// The query cache is exact: on both fixtures and at every tier, the cached analysis
    /// produces the same constraints, in the same order, at every location as a run that
    /// solves every LP afresh — and the cache did answer some queries.
    #[test]
    fn cached_analysis_reproduces_the_uncached_fixpoint_exactly() {
        for ts in [nested_join(), sequential_loops()] {
            for tier in InvariantTier::ALL {
                let analysis = InvariantAnalysis::at_tier(tier);
                let cached = analysis.analyze(&ts);
                assert!(!crate::query_cache::installed(), "the cache outlived analyze");
                let uncached = analysis.analyze_uncached(&ts);
                assert_eq!(
                    cached.iter().collect::<Vec<_>>(),
                    uncached.iter().collect::<Vec<_>>(),
                    "{} at tier {tier}",
                    ts.name()
                );
                let stats = cached.query_stats();
                assert!(
                    stats.solves < stats.queries,
                    "{} at tier {tier}: no query was answered from the cache ({stats:?})",
                    ts.name()
                );
            }
        }
    }

    #[test]
    fn unreachable_location_stays_bottom() {
        let mut b = TsBuilder::new();
        let x = b.var("x");
        let start = b.location("start");
        let dead = b.location("dead");
        let out = b.terminal();
        b.set_initial(start);
        b.add_theta0(LinExpr::var(x));
        b.transition(start, out).finish();
        // dead -> out exists so the system is well formed, but dead is never entered.
        b.transition(dead, out).finish();
        let ts = b.build().unwrap();
        let invariants = InvariantAnalysis::default().analyze(&ts);
        assert!(invariants.at(LocId(1)).is_bottom());
        // Its constraint list is the explicit false constraint.
        assert_eq!(invariants.constraints_at(LocId(1)).len(), 1);
    }

    #[test]
    fn strengthening_adds_facts() {
        let ts = nested_join();
        let mut invariants = InvariantAnalysis::default().analyze(&ts);
        let i = ts.pool().lookup("i").unwrap();
        let extra = LinExpr::from_int(1000) - LinExpr::var(i);
        let l1 = LocId(1);
        assert!(invariants.entails(l1, &extra)); // already implied by i <= lenA <= 100
        let unusual = LinExpr::from_int(2) - LinExpr::var(i);
        assert!(!invariants.entails(l1, &unusual));
        invariants.strengthen(l1, std::slice::from_ref(&unusual));
        assert!(invariants.entails(l1, &unusual));
    }

    #[test]
    fn terminal_location_is_reached() {
        let ts = nested_join();
        let invariants = InvariantAnalysis::default().analyze(&ts);
        assert!(!invariants.at(ts.terminal()).is_bottom());
    }
}
