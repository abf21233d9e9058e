//! A convex-polyhedra-lite abstract domain: conjunctions of affine inequalities.

use dca_lp::{ConstraintOp, LpProblem, LpStatus, VarKind};
use dca_numeric::Rational;
use dca_poly::{LinExpr, VarId};

use crate::query_cache::{self, LpAnswer};

/// A conjunction of affine inequalities `expr ≥ 0`, or the empty (unreachable) element.
///
/// The element `Top` is represented by an empty constraint list. Emptiness and entailment
/// are decided with small f64 LPs (memoized for the length of one
/// [`InvariantAnalysis::analyze`](crate::InvariantAnalysis::analyze) call), so the domain
/// operations are precise with respect to the constraint representation up to the LP
/// tolerance (the only deliberate precision losses are the weak join, widening, and the
/// cap on Fourier–Motzkin growth).
#[derive(Debug, Clone, PartialEq)]
pub struct Polyhedron {
    /// `None` encodes bottom (unreachable); `Some(cs)` encodes the conjunction of `cs`.
    constraints: Option<Vec<LinExpr>>,
}

/// Maximum number of constraints kept after any operation. Excess constraints are dropped
/// (a sound over-approximation).
const MAX_CONSTRAINTS: usize = 64;

/// Cap on the candidate directions explored by [`Polyhedron::hull_join`] (each direction
/// costs two small LP solves).
const MAX_JOIN_DIRECTIONS: usize = 96;

/// The octagon directions `±x ± y` are only enumerated when the polyhedra mention at
/// most this many variables (the pair count grows quadratically).
const MAX_OCTAGON_VARS: usize = 8;

/// Denominator of the coarse grid the hull join snaps its LP-computed constants to.
/// Snapping makes the join idempotent (no epsilon ratcheting across fixpoint rounds)
/// while staying far above the f64 solver tolerance.
const SNAP_DENOMINATOR: i64 = 256;

impl Polyhedron {
    /// The universe (no constraints).
    pub fn top() -> Polyhedron {
        Polyhedron { constraints: Some(Vec::new()) }
    }

    /// The empty polyhedron (unreachable).
    pub fn bottom() -> Polyhedron {
        Polyhedron { constraints: None }
    }

    /// Builds a polyhedron from a conjunction of `expr ≥ 0` constraints.
    pub fn from_constraints(constraints: impl IntoIterator<Item = LinExpr>) -> Polyhedron {
        let mut p = Polyhedron::top();
        for c in constraints {
            p.add_constraint(c);
        }
        p
    }

    /// Returns `true` if this is the bottom element.
    pub fn is_bottom(&self) -> bool {
        self.constraints.is_none()
    }

    /// The constraints of the polyhedron (empty slice for top, `None` for bottom).
    pub fn constraints(&self) -> Option<&[LinExpr]> {
        self.constraints.as_deref()
    }

    /// The constraints as a vector, treating bottom as an explicitly false constraint
    /// `-1 ≥ 0` so that downstream consumers remain sound.
    pub fn constraints_or_false(&self) -> Vec<LinExpr> {
        match &self.constraints {
            Some(cs) => cs.clone(),
            None => vec![LinExpr::from_int(-1)],
        }
    }

    /// Conjoins one more constraint `expr ≥ 0`.
    pub fn add_constraint(&mut self, expr: LinExpr) {
        if let Some(cs) = &mut self.constraints {
            if expr.is_constant() {
                if expr.constant_term().is_negative() {
                    self.constraints = None;
                }
                return;
            }
            let normalized = expr.normalize();
            // Cheap syntactic subsumption: among constraints with identical coefficient
            // vectors, only the one with the smallest constant (the strongest) matters.
            for existing in cs.iter_mut() {
                if same_coefficients(existing, &normalized) {
                    if normalized.constant_term() < existing.constant_term() {
                        *existing = normalized;
                    }
                    return;
                }
            }
            cs.push(normalized);
            if cs.len() > MAX_CONSTRAINTS {
                cs.truncate(MAX_CONSTRAINTS);
            }
        }
    }

    /// Conjoins several constraints.
    pub fn add_constraints(&mut self, exprs: &[LinExpr]) {
        for e in exprs {
            self.add_constraint(e.clone());
        }
    }

    /// Decides emptiness with an exact LP feasibility check and collapses to bottom if
    /// the constraints are unsatisfiable (over the rationals).
    pub fn normalize_emptiness(&mut self) {
        if let Some(cs) = &self.constraints {
            if !cs.is_empty() && !Self::feasible(cs) {
                self.constraints = None;
            }
        }
    }

    /// Decides emptiness **in exact rational arithmetic**: returns `true` only
    /// when the exact simplex proves the conjunction infeasible over ℚ.
    ///
    /// This is the entry point for the infeasible-transition pruning pass: a
    /// premise `I(source) ∧ guard` that is contradictory can be dropped before
    /// the Handelman encoding ever sees it (contradictory premise products
    /// poison the f64 simplex with degraded reinversions). Pruning is only
    /// sound in one direction, so anything short of a definite exact
    /// `Infeasible` — including an f64 infeasibility verdict, which can be a
    /// numerical artifact — answers `false` and keeps the transition.
    pub fn definitely_empty_exact(&self) -> bool {
        match &self.constraints {
            None => true,
            Some(cs) if cs.is_empty() => false,
            Some(cs) => {
                // Float prescreen: if f64 finds the premise feasible, keep the
                // transition without paying an exact solve — keeping is always
                // sound, and feasible premises are the overwhelmingly common
                // case. Only an f64 infeasibility *suspicion* (which may be a
                // numerical artifact) escalates to the exact simplex, whose
                // verdict alone may prune.
                if Self::feasible(cs) {
                    return false;
                }
                Self::build_lp(cs, &LinExpr::zero()).solve_exact().status
                    == LpStatus::Infeasible
            }
        }
    }

    /// Returns `true` if the conjunction is satisfiable over the rationals.
    ///
    /// Only a definite `Infeasible` answer may collapse a polyhedron to bottom:
    /// treating a non-converged f64 solve (iteration limit, timeout, or the
    /// post-solve feasibility downgrade) as "empty" would mark reachable states
    /// unreachable and make the synthesized thresholds unsound.
    fn feasible(constraints: &[LinExpr]) -> bool {
        Self::solve_f64(constraints, &LinExpr::zero()).0 != LpStatus::Infeasible
    }

    /// Returns `true` if every point of the polyhedron satisfies `expr ≥ 0`.
    ///
    /// Decided by minimizing `expr` over the polyhedron: the implication holds iff the
    /// minimum is non-negative (or the polyhedron is empty / the LP is infeasible).
    pub fn entails(&self, expr: &LinExpr) -> bool {
        let Some(cs) = &self.constraints else {
            return true;
        };
        if expr.is_constant() {
            return !expr.constant_term().is_negative();
        }
        match Self::solve_f64(cs, expr) {
            (LpStatus::Optimal, objective) => {
                let min = objective.unwrap_or(0.0) + expr.constant_term().to_f64();
                min >= -1e-6
            }
            (LpStatus::Infeasible, _) => true,
            // Unbounded below means some point violates expr >= 0; a non-converged
            // solve must conservatively answer "not entailed".
            (LpStatus::Unbounded | LpStatus::IterationLimit | LpStatus::TimedOut, _) => false,
        }
    }

    /// Returns `true` if `self` is contained in `other` (every constraint of `other` is
    /// entailed by `self`).
    pub fn entails_all(&self, other: &Polyhedron) -> bool {
        match &other.constraints {
            None => self.is_bottom(),
            Some(cs) => cs.iter().all(|c| self.entails(c)),
        }
    }

    /// Sound join: keeps the constraints of each operand that are entailed by the other.
    ///
    /// This is weaker than the convex hull but sound (the result contains both operands)
    /// and cheap. Bottom is the identity.
    pub fn join(&self, other: &Polyhedron) -> Polyhedron {
        match (&self.constraints, &other.constraints) {
            (None, _) => other.clone(),
            (_, None) => self.clone(),
            (Some(a), Some(b)) => {
                let mut kept: Vec<LinExpr> = Vec::new();
                for c in a {
                    if other.entails(c) {
                        kept.push(c.clone());
                    }
                }
                for c in b {
                    if self.entails(c) && !kept.contains(c) {
                        kept.push(c.clone());
                    }
                }
                Polyhedron { constraints: Some(kept) }
            }
        }
    }

    /// Precise join: the best over-approximation of the union expressible in a finite
    /// set of candidate directions (a constraint-based convex-hull-lite).
    ///
    /// For every direction `d` drawn from the constraints of *both* operands, plus the
    /// interval (`±x`) and octagon (`±x ± y`) directions over the mentioned variables,
    /// the result keeps `d·x ≥ m` where `m` is the least value of `d·x` over either
    /// operand (computed by LP and conservatively snapped down to a coarse rational).
    /// Unlike [`Polyhedron::join`] — which can only *keep or drop* whole operand
    /// constraints — this join *relaxes constants*, so facts like `x ≥ 0 ∧ x ≤ 5` vs
    /// `x ≥ 3 ∧ x ≤ 10` combine to `0 ≤ x ≤ 10`, and relational facts like `x = y`
    /// shared by both operands survive even when neither operand states them as an
    /// explicit constraint (the octagon directions recover them).
    ///
    /// The result always contains both operands, so it is a sound upper bound; every
    /// kept constraint is additionally double-checked by [`Polyhedron::entails`] against
    /// both operands before it is admitted.
    pub fn hull_join(&self, other: &Polyhedron) -> Polyhedron {
        let (Some(a), Some(b)) = (&self.constraints, &other.constraints) else {
            // Bottom is the identity of any join.
            return match (&self.constraints, &other.constraints) {
                (None, _) => other.clone(),
                _ => self.clone(),
            };
        };
        // Candidate directions: coefficient vectors of both operands' constraints...
        let mut directions: Vec<LinExpr> = Vec::new();
        let mut push_direction = |candidate: LinExpr| {
            if candidate.is_constant() {
                return;
            }
            let mut normalized = candidate.normalize();
            normalized.set_constant(dca_numeric::Rational::zero());
            if !directions.contains(&normalized) && directions.len() < MAX_JOIN_DIRECTIONS {
                directions.push(normalized);
            }
        };
        for constraint in a.iter().chain(b.iter()) {
            push_direction(constraint.clone());
        }
        // ...plus interval and octagon directions over the mentioned variables.
        let mut vars: Vec<VarId> = a.iter().chain(b.iter()).flat_map(LinExpr::vars).collect();
        vars.sort();
        vars.dedup();
        if vars.len() <= MAX_OCTAGON_VARS {
            for (index, &x) in vars.iter().enumerate() {
                push_direction(LinExpr::var(x));
                push_direction(-LinExpr::var(x));
                for &y in &vars[index + 1..] {
                    push_direction(LinExpr::var(x) - LinExpr::var(y));
                    push_direction(LinExpr::var(y) - LinExpr::var(x));
                    push_direction(LinExpr::var(x) + LinExpr::var(y));
                    push_direction(-(LinExpr::var(x) + LinExpr::var(y)));
                }
            }
        }

        let mut kept: Vec<LinExpr> = Vec::new();
        for direction in &directions {
            let Some(min_a) = self.minimize(direction) else { continue };
            let Some(min_b) = other.minimize(direction) else { continue };
            let low = min_a.min(min_b);
            // Snap the f64 minimum down to a coarse rational. Snapping (rather than
            // subtracting an epsilon) keeps the operation idempotent — re-joining the
            // result with either operand reproduces the same constant, so fixpoint
            // iteration does not ratchet constants downward forever.
            let mut constant =
                Rational::new(-(low * SNAP_DENOMINATOR as f64).round() as i64, SNAP_DENOMINATOR);
            // `d·x ≥ m` is the constraint `d + (−m) ≥ 0`; rounding may land a hair
            // above the true minimum, in which case the entailment check fails and the
            // constant is relaxed one grid step at a time.
            for _ in 0..4 {
                let mut candidate = direction.clone();
                candidate.set_constant(constant.clone());
                if self.entails(&candidate) && other.entails(&candidate) {
                    kept.push(candidate.normalize());
                    break;
                }
                constant = &constant + &Rational::new(1, SNAP_DENOMINATOR);
            }
        }
        let mut result = Polyhedron { constraints: Some(Vec::new()) };
        for constraint in kept {
            result.add_constraint(constraint);
        }
        result
    }

    /// Least value of `direction · x` over the polyhedron (the constant term of
    /// `direction` is ignored). `None` for bottom, unbounded, or a non-converged solve.
    fn minimize(&self, direction: &LinExpr) -> Option<f64> {
        let cs = self.constraints.as_ref()?;
        match Self::solve_f64(cs, direction) {
            (LpStatus::Optimal, objective) => objective,
            _ => None,
        }
    }

    /// Meet (conjunction): intersects the two polyhedra and normalizes emptiness.
    pub fn meet(&self, other: &Polyhedron) -> Polyhedron {
        let (Some(_), Some(b)) = (&self.constraints, &other.constraints) else {
            return Polyhedron::bottom();
        };
        let mut result = self.clone();
        result.add_constraints(b);
        result.normalize_emptiness();
        result
    }

    /// Standard widening: keeps only the constraints of `self` that still hold in `next`.
    pub fn widen(&self, next: &Polyhedron) -> Polyhedron {
        match (&self.constraints, &next.constraints) {
            (None, _) => next.clone(),
            (_, None) => self.clone(),
            (Some(a), Some(_)) => {
                let kept: Vec<LinExpr> =
                    a.iter().filter(|c| next.entails(c)).cloned().collect();
                Polyhedron { constraints: Some(kept) }
            }
        }
    }

    /// Widening with thresholds: like [`Polyhedron::widen`], but additionally keeps
    /// every threshold constraint entailed by *both* arguments.
    ///
    /// Plain widening drops any bound that moved between iterates — including bounds
    /// the loop guard itself guarantees (e.g. `i ≤ n` while iterating `i` up to `n`).
    /// Supplying the guard and Θ0 inequalities as thresholds lets the widening land on
    /// those stable bounds instead of discarding them. Termination is preserved: the
    /// kept set always comes from the finite pool "constraints of `self` ∪ thresholds",
    /// and as iterates grow, the entailed subset only shrinks.
    pub fn widen_with_thresholds(
        &self,
        next: &Polyhedron,
        thresholds: &[LinExpr],
    ) -> Polyhedron {
        let mut widened = self.widen(next);
        if widened.is_bottom() {
            return widened;
        }
        for threshold in thresholds {
            if self.entails(threshold) && next.entails(threshold) {
                widened.add_constraint(threshold.clone());
            }
        }
        widened
    }

    /// Removes all knowledge about a variable (projection by Fourier–Motzkin elimination).
    pub fn project_out(&self, var: VarId) -> Polyhedron {
        let Some(cs) = &self.constraints else {
            return Polyhedron::bottom();
        };
        let mut unrelated = Vec::new();
        let mut lower = Vec::new(); // coefficient of var > 0: gives lower bounds on var
        let mut upper = Vec::new(); // coefficient of var < 0: gives upper bounds on var
        for c in cs {
            let coeff = c.coeff(var);
            if coeff.is_zero() {
                unrelated.push(c.clone());
            } else if coeff.is_positive() {
                lower.push(c.clone());
            } else {
                upper.push(c.clone());
            }
        }
        // Combine each lower bound with each upper bound to eliminate `var`.
        let mut combined = unrelated;
        for lo in &lower {
            for up in &upper {
                let a = lo.coeff(var);
                let b = up.coeff(var).abs();
                // b*lo + a*up has coefficient a*b - a*b = 0 on var.
                let merged = &lo.scale(&b) + &up.scale(&a);
                debug_assert!(merged.coeff(var).is_zero());
                if merged.is_constant() {
                    if merged.constant_term().is_negative() {
                        return Polyhedron::bottom();
                    }
                } else {
                    combined.push(merged.normalize());
                }
                if combined.len() > MAX_CONSTRAINTS {
                    break;
                }
            }
        }
        combined.truncate(MAX_CONSTRAINTS);
        Polyhedron::from_constraints(combined)
    }

    /// Strongest post-condition of the simultaneous affine assignment
    /// `vars' = exprs(vars)`; non-affine or non-deterministic updates are passed as
    /// `None` and result in the variable being havocked.
    ///
    /// Variables not listed keep their value.
    pub fn assign_simultaneous(
        &self,
        updates: &[(VarId, Option<LinExpr>)],
        fresh_base: u32,
    ) -> Polyhedron {
        let Some(_) = &self.constraints else {
            return Polyhedron::bottom();
        };
        if updates.is_empty() {
            return self.clone();
        }
        // Primed variable ids live beyond every id used by the system.
        let primed: Vec<(VarId, VarId)> = updates
            .iter()
            .enumerate()
            .map(|(k, &(v, _))| (v, VarId(fresh_base + k as u32)))
            .collect();

        let mut extended = self.clone();
        // Add x_primed = expr(x) for deterministic affine updates.
        for (&(_var, ref update), &(_, primed_var)) in updates.iter().zip(&primed) {
            if let Some(expr) = update {
                let defining = &LinExpr::var(primed_var) - expr;
                extended.add_constraint(defining.clone());
                extended.add_constraint(-defining);
            }
        }
        // Project out the *old* values of all updated variables.
        let mut projected = extended;
        for &(var, _) in updates {
            projected = projected.project_out(var);
        }
        // Rename primed variables back to the original names.
        let renamed: Vec<LinExpr> = match projected.constraints {
            None => return Polyhedron::bottom(),
            Some(cs) => cs
                .into_iter()
                .map(|c| {
                    let mut out = LinExpr::constant(c.constant_term().clone());
                    for (v, coeff) in c.iter() {
                        let target = primed
                            .iter()
                            .find(|&&(_, p)| p == *v)
                            .map(|&(o, _)| o)
                            .unwrap_or(*v);
                        let existing = out.coeff(target);
                        out.set_coeff(target, &existing + coeff);
                    }
                    out
                })
                .collect(),
        };
        let mut result = Polyhedron::from_constraints(renamed);
        // Havoc shows up as "no constraint", which the renaming already guarantees, but
        // an explicit emptiness check keeps bottom canonical.
        result.normalize_emptiness();
        result
    }

    /// Removes constraints that are entailed by the remaining ones (cheap cleanup pass).
    pub fn reduce(&self) -> Polyhedron {
        let Some(cs) = &self.constraints else {
            return Polyhedron::bottom();
        };
        let mut kept: Vec<LinExpr> = cs.clone();
        let mut index = 0;
        while index < kept.len() {
            let candidate = kept[index].clone();
            let mut rest: Vec<LinExpr> = kept.clone();
            rest.remove(index);
            let rest_poly = Polyhedron { constraints: Some(rest.clone()) };
            if rest_poly.entails(&candidate) {
                kept = rest;
            } else {
                index += 1;
            }
        }
        Polyhedron { constraints: Some(kept) }
    }

    /// Solves "minimize `objective` subject to `constraints`" with the f64 backend, or
    /// answers it from the running analysis's query cache. A constant `objective` (zero
    /// for the feasibility checks) poses a pure feasibility problem; the objective's
    /// constant term never reaches the LP.
    fn solve_f64(constraints: &[LinExpr], objective: &LinExpr) -> LpAnswer {
        query_cache::answer(constraints, objective, || {
            let solution = Self::build_lp(constraints, objective).solve_f64();
            (solution.status, solution.objective)
        })
    }

    /// Builds the LP "minimize `objective` subject to all constraints" over the
    /// variables mentioned, mapping each program variable to a free LP variable.
    fn build_lp(constraints: &[LinExpr], objective: &LinExpr) -> LpProblem {
        let mut vars: Vec<VarId> = constraints.iter().flat_map(LinExpr::vars).collect();
        vars.extend(objective.vars());
        vars.sort();
        vars.dedup();
        let mut lp = LpProblem::new();
        let lp_vars: Vec<dca_lp::LpVar> = vars
            .iter()
            .map(|v| lp.add_var(format!("x{}", v.0), VarKind::Free))
            .collect();
        let mapping: std::collections::HashMap<VarId, dca_lp::LpVar> =
            vars.iter().copied().zip(lp_vars.iter().copied()).collect();
        for c in constraints {
            let terms: Vec<_> = c.iter().map(|(v, coef)| (mapping[v], coef.clone())).collect();
            lp.add_constraint(terms, ConstraintOp::Ge, -c.constant_term().clone());
        }
        lp.set_objective(objective.iter().map(|(v, c)| (mapping[v], c.clone())).collect());
        lp
    }

    /// Renders the polyhedron with variable names from a pool.
    pub fn render(&self, pool: &dca_poly::VarPool) -> String {
        match &self.constraints {
            None => "false".to_string(),
            Some(cs) if cs.is_empty() => "true".to_string(),
            Some(cs) => cs
                .iter()
                .map(|c| format!("{} >= 0", c.to_string(pool)))
                .collect::<Vec<_>>()
                .join(" /\\ "),
        }
    }
}

impl Default for Polyhedron {
    fn default() -> Self {
        Polyhedron::top()
    }
}

/// Returns `true` if two normalized affine expressions have identical coefficient vectors
/// (and therefore only differ in their constant term).
fn same_coefficients(a: &LinExpr, b: &LinExpr) -> bool {
    a.vars() == b.vars() && a.vars().iter().all(|&v| a.coeff(v) == b.coeff(v))
}

/// Convenience: the interval `lo ≤ v ≤ hi` as two `expr ≥ 0` constraints.
///
/// ```
/// use dca_invariants::{interval, Polyhedron};
/// use dca_poly::{LinExpr, VarId};
/// let p = Polyhedron::from_constraints(interval(VarId(0), 1, 100));
/// assert!(p.entails(&LinExpr::var(VarId(0))));
/// ```
pub fn interval(v: VarId, lo: i64, hi: i64) -> Vec<LinExpr> {
    vec![
        LinExpr::var(v) - LinExpr::from_int(lo),
        LinExpr::from_int(hi) - LinExpr::var(v),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_poly::VarPool;

    fn setup() -> (VarPool, VarId, VarId) {
        let mut pool = VarPool::new();
        let x = pool.intern("x");
        let y = pool.intern("y");
        (pool, x, y)
    }

    #[test]
    fn entailment_basic() {
        let (_, x, _) = setup();
        // {1 <= x <= 10} entails x >= 0 and 20 - x >= 0, but not x - 5 >= 0.
        let p = Polyhedron::from_constraints(interval(x, 1, 10));
        assert!(p.entails(&LinExpr::var(x)));
        assert!(p.entails(&(LinExpr::from_int(20) - LinExpr::var(x))));
        assert!(!p.entails(&(LinExpr::var(x) - LinExpr::from_int(5))));
    }

    #[test]
    fn entailment_relational() {
        let (_, x, y) = setup();
        // {x >= y, y >= 3} entails x >= 3 and x >= 0.
        let p = Polyhedron::from_constraints(vec![
            LinExpr::var(x) - LinExpr::var(y),
            LinExpr::var(y) - LinExpr::from_int(3),
        ]);
        assert!(p.entails(&(LinExpr::var(x) - LinExpr::from_int(3))));
        assert!(p.entails(&LinExpr::var(x)));
        assert!(!p.entails(&(LinExpr::var(y) - LinExpr::var(x))));
    }

    #[test]
    fn bottom_detection() {
        let (_, x, _) = setup();
        let mut p = Polyhedron::from_constraints(vec![
            LinExpr::var(x) - LinExpr::from_int(5),
            LinExpr::from_int(3) - LinExpr::var(x),
        ]);
        assert!(!p.is_bottom());
        p.normalize_emptiness();
        assert!(p.is_bottom());
        assert!(p.entails(&LinExpr::from_int(-1)));
        assert_eq!(p.constraints_or_false().len(), 1);
    }

    #[test]
    fn join_keeps_common_facts() {
        let (_, x, _) = setup();
        let a = Polyhedron::from_constraints(interval(x, 0, 5));
        let b = Polyhedron::from_constraints(interval(x, 3, 10));
        let j = a.join(&b);
        // The join must contain both operands: x in [0, 10].
        assert!(j.entails(&LinExpr::var(x)));
        assert!(j.entails(&(LinExpr::from_int(10) - LinExpr::var(x))));
        // And must not claim anything stronger than the union allows.
        assert!(!j.entails(&(LinExpr::var(x) - LinExpr::from_int(3))));
        // Join with bottom is identity.
        assert_eq!(a.join(&Polyhedron::bottom()), a);
        assert_eq!(Polyhedron::bottom().join(&b), b);
    }

    /// For every operand pair, the hull join must entail every constraint the weak
    /// entailment-filter join keeps — i.e. it is at least as precise — while still
    /// containing both operands.
    #[test]
    fn hull_join_at_least_as_precise_as_weak_join() {
        let (_, x, y) = setup();
        let cases: Vec<(Polyhedron, Polyhedron)> = vec![
            (
                Polyhedron::from_constraints(interval(x, 0, 5)),
                Polyhedron::from_constraints(interval(x, 3, 10)),
            ),
            (
                Polyhedron::from_constraints(
                    interval(x, 0, 4).into_iter().chain(interval(y, 1, 2)),
                ),
                Polyhedron::from_constraints(
                    interval(x, 2, 9).into_iter().chain(interval(y, 0, 7)),
                ),
            ),
            (
                Polyhedron::from_constraints(vec![
                    LinExpr::var(x) - LinExpr::var(y),
                    LinExpr::var(y) - LinExpr::from_int(3),
                ]),
                Polyhedron::from_constraints(vec![
                    LinExpr::var(x) - LinExpr::from_int(7),
                    LinExpr::var(y) - LinExpr::from_int(1),
                ]),
            ),
        ];
        for (a, b) in cases {
            let weak = a.join(&b);
            let hull = a.hull_join(&b);
            // As precise: every weak-join constraint is entailed by the hull join.
            for constraint in weak.constraints().unwrap() {
                assert!(
                    hull.entails(constraint),
                    "hull join lost a weak-join fact: {constraint:?}"
                );
            }
            // Still sound: the hull join contains both operands.
            for constraint in hull.constraints().unwrap() {
                assert!(a.entails(constraint) && b.entails(constraint));
            }
        }
    }

    /// The octagon directions recover relational facts neither operand states as an
    /// explicit constraint — the canonical weak-join loss.
    #[test]
    fn hull_join_recovers_lockstep_relation() {
        let (_, x, y) = setup();
        // A: {x = 0, y = 0},  B: {x = 1, y = 1}.
        let point = |v: i64| {
            Polyhedron::from_constraints(
                interval(x, v, v).into_iter().chain(interval(y, v, v)),
            )
        };
        let (a, b) = (point(0), point(1));
        let x_minus_y = LinExpr::var(x) - LinExpr::var(y);
        // The weak join cannot express x = y (no operand constraint mentions x - y)...
        let weak = a.join(&b);
        assert!(!weak.entails(&x_minus_y) || !weak.entails(&-x_minus_y.clone()));
        // ...the hull join derives it, along with the interval hull.
        let hull = a.hull_join(&b);
        assert!(hull.entails(&x_minus_y));
        assert!(hull.entails(&(-x_minus_y)));
        assert!(hull.entails(&LinExpr::var(x)));
        assert!(hull.entails(&(LinExpr::from_int(1) - LinExpr::var(x))));
    }

    /// Joining the hull result with an operand again must not move the constants
    /// (idempotence on the snap grid): fixpoint iteration relies on this to terminate.
    #[test]
    fn hull_join_is_stable_under_rejoin() {
        let (_, x, y) = setup();
        let a = Polyhedron::from_constraints(
            interval(x, 0, 5).into_iter().chain(interval(y, 0, 0)),
        );
        let b = Polyhedron::from_constraints(
            interval(x, 3, 10).into_iter().chain(interval(y, 1, 1)),
        );
        let once = a.hull_join(&b);
        let twice = once.hull_join(&b);
        assert!(once.entails_all(&twice) && twice.entails_all(&once));
    }

    #[test]
    fn meet_intersects_and_detects_emptiness() {
        let (_, x, _) = setup();
        let a = Polyhedron::from_constraints(interval(x, 0, 5));
        let b = Polyhedron::from_constraints(interval(x, 3, 10));
        let m = a.meet(&b);
        assert!(m.entails(&(LinExpr::var(x) - LinExpr::from_int(3))));
        assert!(m.entails(&(LinExpr::from_int(5) - LinExpr::var(x))));
        let disjoint = Polyhedron::from_constraints(interval(x, 8, 10));
        assert!(a.meet(&disjoint).is_bottom());
        assert!(a.meet(&Polyhedron::bottom()).is_bottom());
        assert!(Polyhedron::bottom().meet(&a).is_bottom());
    }

    /// The guard-derived bound survives threshold widening but not plain widening.
    #[test]
    fn threshold_widening_retains_guard_bounds() {
        let (_, x, _) = setup();
        let previous = Polyhedron::from_constraints(interval(x, 0, 1));
        let next = Polyhedron::from_constraints(interval(x, 0, 2));
        let guard_bound = LinExpr::from_int(10) - LinExpr::var(x); // x <= 10, from a guard
        let plain = previous.widen(&next);
        assert!(!plain.entails(&guard_bound), "plain widening must lose the bound");
        let with_thresholds =
            previous.widen_with_thresholds(&next, std::slice::from_ref(&guard_bound));
        assert!(with_thresholds.entails(&guard_bound));
        assert!(with_thresholds.entails(&LinExpr::var(x))); // stable bound kept as before
        // A threshold not implied by both sides is not smuggled in.
        let too_strong = LinExpr::from_int(1) - LinExpr::var(x); // x <= 1 fails in `next`
        let widened =
            previous.widen_with_thresholds(&next, std::slice::from_ref(&too_strong));
        assert!(!widened.entails(&too_strong));
    }

    #[test]
    fn widen_drops_unstable_bounds() {
        let (_, x, _) = setup();
        let a = Polyhedron::from_constraints(interval(x, 0, 5));
        let b = Polyhedron::from_constraints(interval(x, 0, 9));
        let w = a.widen(&b);
        // The lower bound is stable, the upper bound is not.
        assert!(w.entails(&LinExpr::var(x)));
        assert!(!w.entails(&(LinExpr::from_int(1000) - LinExpr::var(x))));
    }

    #[test]
    fn projection_eliminates_variable() {
        let (_, x, y) = setup();
        // {x >= 0, y >= x, 10 >= y} |- project out y => x >= 0, 10 >= x
        let p = Polyhedron::from_constraints(vec![
            LinExpr::var(x),
            LinExpr::var(y) - LinExpr::var(x),
            LinExpr::from_int(10) - LinExpr::var(y),
        ]);
        let q = p.project_out(y);
        assert!(q.entails(&LinExpr::var(x)));
        assert!(q.entails(&(LinExpr::from_int(10) - LinExpr::var(x))));
        // No constraint on y must remain.
        for c in q.constraints().unwrap() {
            assert!(c.coeff(y).is_zero());
        }
    }

    #[test]
    fn assignment_increments_variable() {
        let (_, x, _) = setup();
        // {0 <= x <= 5} after x := x + 1 gives {1 <= x <= 6}.
        let p = Polyhedron::from_constraints(interval(x, 0, 5));
        let q = p.assign_simultaneous(
            &[(x, Some(LinExpr::var(x) + LinExpr::from_int(1)))],
            100,
        );
        assert!(q.entails(&(LinExpr::var(x) - LinExpr::from_int(1))));
        assert!(q.entails(&(LinExpr::from_int(6) - LinExpr::var(x))));
        assert!(!q.entails(&(LinExpr::from_int(5) - LinExpr::var(x))));
    }

    #[test]
    fn assignment_swap_is_precise() {
        let (_, x, y) = setup();
        // {x = 1, y = 2} after (x, y) := (y, x) gives {x = 2, y = 1}.
        let p = Polyhedron::from_constraints(vec![
            LinExpr::var(x) - LinExpr::from_int(1),
            LinExpr::from_int(1) - LinExpr::var(x),
            LinExpr::var(y) - LinExpr::from_int(2),
            LinExpr::from_int(2) - LinExpr::var(y),
        ]);
        let q = p.assign_simultaneous(
            &[(x, Some(LinExpr::var(y))), (y, Some(LinExpr::var(x)))],
            100,
        );
        assert!(q.entails(&(LinExpr::var(x) - LinExpr::from_int(2))));
        assert!(q.entails(&(LinExpr::from_int(2) - LinExpr::var(x))));
        assert!(q.entails(&(LinExpr::var(y) - LinExpr::from_int(1))));
        assert!(q.entails(&(LinExpr::from_int(1) - LinExpr::var(y))));
    }

    #[test]
    fn havoc_forgets_variable() {
        let (_, x, _) = setup();
        let p = Polyhedron::from_constraints(interval(x, 0, 5));
        let q = p.assign_simultaneous(&[(x, None)], 100);
        assert!(!q.entails(&LinExpr::var(x)));
        assert!(!q.entails(&(LinExpr::from_int(5) - LinExpr::var(x))));
    }

    #[test]
    fn reduce_removes_redundant() {
        let (_, x, _) = setup();
        let p = Polyhedron::from_constraints(vec![
            LinExpr::var(x),
            LinExpr::var(x) + LinExpr::from_int(5), // implied by x >= 0
            LinExpr::from_int(10) - LinExpr::var(x),
        ]);
        let r = p.reduce();
        assert_eq!(r.constraints().unwrap().len(), 2);
        assert!(r.entails(&(LinExpr::var(x) + LinExpr::from_int(5))));
    }

    #[test]
    fn render_readable() {
        let (pool, x, _) = setup();
        let p = Polyhedron::from_constraints(vec![LinExpr::var(x)]);
        assert_eq!(p.render(&pool), "x >= 0");
        assert_eq!(Polyhedron::top().render(&pool), "true");
        assert_eq!(Polyhedron::bottom().render(&pool), "false");
    }
}
