//! The user-facing LP model: variables, constraints, objective, and solving entry points.

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use dca_numeric::Rational;

use crate::deadline::Deadline;
use crate::revised::Columns;
use crate::scalar::Scalar;
use crate::simplex::{solve_standard_form, RawSolution, StandardForm};

/// Identifier of an LP variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LpVar(pub usize);

impl LpVar {
    /// Index as a `usize`.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Sign restriction of an LP variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarKind {
    /// The variable is constrained to be `≥ 0`.
    NonNegative,
    /// The variable is unrestricted in sign (internally split into a difference of two
    /// non-negative variables).
    Free,
}

/// Comparison operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConstraintOp {
    /// `Σ aᵢ xᵢ ≤ b`
    Le,
    /// `Σ aᵢ xᵢ ≥ b`
    Ge,
    /// `Σ aᵢ xᵢ = b`
    Eq,
}

/// A linear constraint `Σ aᵢ xᵢ (≤ | ≥ | =) b`.
#[derive(Debug, Clone, PartialEq)]
pub struct LpConstraint {
    /// Terms `(variable, coefficient)`.
    pub terms: Vec<(LpVar, Rational)>,
    /// The comparison operator.
    pub op: ConstraintOp,
    /// The right-hand side.
    pub rhs: Rational,
}

/// Status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal solution was found.
    Optimal,
    /// The constraint set is infeasible.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The iteration limit was hit before convergence (floating-point backend only).
    IterationLimit,
    /// The solve deadline (see [`LpProblem::set_deadline`]) passed before convergence.
    TimedOut,
}

impl fmt::Display for LpStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LpStatus::Optimal => "optimal",
            LpStatus::Infeasible => "infeasible",
            LpStatus::Unbounded => "unbounded",
            LpStatus::IterationLimit => "iteration limit",
            LpStatus::TimedOut => "timed out",
        };
        write!(f, "{s}")
    }
}

/// A reusable warm-start basis: the basic columns of a previous solve, identified by
/// *name* so they survive into a structurally different problem.
///
/// Model-variable columns are named after the variable ([`LpProblem::add_var`]); the
/// negative half of a `Free` variable and the slack/surplus columns carry derived
/// names. When a basis is replayed into a new [`LpProblem`], names that no longer
/// exist are silently dropped and missing rows are covered by artificials, so a stale
/// basis degrades gracefully to a cold start — it can speed a solve up, never make it
/// wrong.
///
/// Name matching alone is safe within one escalation ladder (same program pair,
/// rising degree/tier) but is too weak as a *cross-program* cache key: unrelated
/// programs produce identically named columns. A producer can therefore stamp the
/// basis with a provenance [`fingerprint`](LpBasis::fingerprint); consumers that
/// accept bases from a cache reject stamped bases whose fingerprint names a
/// different origin, and a deliberate near-match reuse (an edited program replayed
/// from its ancestor's basis) must say so explicitly via
/// [`rebadged`](LpBasis::rebadged).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LpBasis {
    names: Vec<String>,
    fingerprint: Option<u64>,
}

impl LpBasis {
    /// Number of recorded basic columns.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` if no basis was recorded.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The provenance fingerprint stamped by the producer, if any. `None` means the
    /// basis never left the solve that produced it (pre-stamp or intra-ladder use).
    pub fn fingerprint(&self) -> Option<u64> {
        self.fingerprint
    }

    /// This basis re-stamped with the given provenance fingerprint.
    ///
    /// Stamping is how a producer claims "this basis came from *that* origin", and
    /// `rebadged` is the explicit opt-in for reusing it elsewhere (the serve cache's
    /// near-repeat replay). The opt-in is sound because a warm start can only change
    /// the pivot path, never the verdict — but it must stay explicit so an
    /// *accidental* cross-program replay is refused instead of silently applied.
    pub fn rebadged(mut self, fingerprint: u64) -> LpBasis {
        self.fingerprint = Some(fingerprint);
        self
    }

    /// Serializes to the wire form `fp|name|name|…` where `fp` is the fingerprint in
    /// hex or `-` when unstamped. Column names never contain `|` (they are model
    /// variable names, `…~neg` halves, or `slack#N`).
    pub fn to_wire(&self) -> String {
        let mut wire = match self.fingerprint {
            Some(fp) => format!("{fp:016x}"),
            None => "-".to_string(),
        };
        for name in &self.names {
            wire.push('|');
            wire.push_str(name);
        }
        wire
    }

    /// Parses the [`to_wire`](LpBasis::to_wire) form. `None` on a malformed
    /// fingerprint field.
    pub fn from_wire(wire: &str) -> Option<LpBasis> {
        let mut parts = wire.split('|');
        let fingerprint = match parts.next()? {
            "-" => None,
            hex => Some(u64::from_str_radix(hex, 16).ok()?),
        };
        Some(LpBasis { names: parts.map(str::to_string).collect(), fingerprint })
    }

    /// The standard-form column indices of the recorded names that still exist.
    fn columns(&self, index_of: &HashMap<&str, usize>) -> Vec<usize> {
        self.names.iter().filter_map(|name| index_of.get(name.as_str()).copied()).collect()
    }
}

/// Size and effort statistics of one solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpSolveInfo {
    /// Simplex iterations across both phases and backends (0 when presolve decided
    /// the problem). For the float-first driver this is `float_iterations +
    /// exact_iterations`.
    pub iterations: usize,
    /// Pivots performed by the `f64` simplex (float-first driver only).
    pub float_iterations: usize,
    /// Pivots performed by the exact rational simplex (float-first driver only:
    /// repair rounds plus the uncapped fallback).
    pub exact_iterations: usize,
    /// Constraint rows removed by presolve.
    pub presolve_rows_removed: usize,
    /// Standard-form columns removed by presolve.
    pub presolve_cols_removed: usize,
    /// `true` when the solve hit its deadline during phase 2 and the reported
    /// optimum is the last feasible iterate — a sound but possibly loose bound
    /// (anytime semantics).
    pub truncated: bool,
    /// `true` when the reported result carries an exact-rational certificate: the
    /// answer was produced (or accepted) by exact arithmetic, never by `f64` alone.
    /// Always `true` for [`LpProblem::solve_certified`] and
    /// [`LpProblem::solve_exact`]; `false` for the plain `f64` backend.
    pub certified: bool,
    /// Certification rounds the float-first driver performed (0 when the float phase
    /// produced no candidate and the exact fallback ran directly).
    pub certify_rounds: usize,
    /// Wall-clock spent in presolve (float-first driver only).
    pub presolve_time: Duration,
    /// Wall-clock spent in the `f64` pivot phase (float-first driver only).
    pub float_time: Duration,
    /// Wall-clock spent in exact basis certification (float-first driver only).
    pub certify_time: Duration,
    /// Wall-clock spent in exact repair pivoting (float-first driver only).
    pub repair_time: Duration,
    /// Lazy row-generation candidate columns that survived presolve (certified
    /// driver with a non-empty lazy set only; 0 on the eager path).
    pub products_total: usize,
    /// Lazy candidate columns activated by separation — present in the final
    /// certified solve (0 on the eager path).
    pub products_generated: usize,
    /// Row-generation solve rounds (1 = the initial core already priced out;
    /// 0 = eager solve without row generation).
    pub separation_rounds: usize,
    /// Exact simplex pivots absorbed as incremental rank-1 eta updates of the
    /// rational LU factorization (cheap, O(nnz) each).
    pub lu_updates: usize,
    /// Full Markowitz refactorizations the exact simplex performed mid-run when
    /// the eta file grew past its fill budget (expensive, O(m·nnz) each).
    pub lu_refactorizations: usize,
}

/// Result of an LP solve in the chosen scalar type.
#[derive(Debug, Clone)]
pub struct LpResult<S> {
    /// Solve status.
    pub status: LpStatus,
    /// Objective value (present iff `status == Optimal`).
    pub objective: Option<S>,
    /// Values of the model variables, indexed by [`LpVar`] (present iff optimal).
    pub values: Vec<S>,
    /// The final basis, reusable as a warm start for a related problem (populated for
    /// any terminal status — an infeasible solve's basis still seeds the next rung).
    pub basis: LpBasis,
    /// An exact lower bound on the true optimum, recovered from a dual-feasible
    /// basis seen during certification. Only populated for truncated (anytime)
    /// solves, where `objective` is an upper bound: together they bracket the
    /// optimum (`dual_bound ≤ optimum ≤ objective`).
    pub dual_bound: Option<S>,
    /// Presolve and iteration statistics.
    pub info: LpSolveInfo,
}

impl<S: Scalar> LpResult<S> {
    /// The value of a variable in an optimal solution.
    ///
    /// # Panics
    ///
    /// Panics if the solve was not optimal.
    pub fn value(&self, var: LpVar) -> S {
        self.values[var.index()].clone()
    }

    /// Returns `true` if an optimal solution was found.
    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }
}

/// A linear program: minimize a linear objective subject to linear constraints.
///
/// See the crate-level documentation for an end-to-end example.
#[derive(Debug, Clone, Default)]
pub struct LpProblem {
    var_names: Vec<String>,
    var_kinds: Vec<VarKind>,
    constraints: Vec<LpConstraint>,
    objective: Vec<(LpVar, Rational)>,
    deadline: Deadline,
}

impl LpProblem {
    /// Creates an empty problem.
    pub fn new() -> LpProblem {
        LpProblem::default()
    }

    /// Adds a variable with the given display name and sign restriction.
    pub fn add_var(&mut self, name: impl Into<String>, kind: VarKind) -> LpVar {
        let var = LpVar(self.var_names.len());
        self.var_names.push(name.into());
        self.var_kinds.push(kind);
        var
    }

    /// Adds a constraint `Σ terms (op) rhs`.
    pub fn add_constraint(
        &mut self,
        terms: Vec<(LpVar, Rational)>,
        op: ConstraintOp,
        rhs: Rational,
    ) {
        self.constraints.push(LpConstraint { terms, op, rhs });
    }

    /// Sets the objective to *minimize* `Σ terms`.
    pub fn set_objective(&mut self, terms: Vec<(LpVar, Rational)>) {
        self.objective = terms;
    }

    /// Sets the deadline for subsequent solves ([`Deadline::unlimited`] = no limit).
    ///
    /// The simplex loops poll the deadline (clock cutoff *and* shared cancel flag)
    /// and report [`LpStatus::TimedOut`] once it expires, so one pathological
    /// instance cannot stall a batch run and an external [`Deadline::cancel`] stops
    /// the solve within one polling stride.
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = deadline;
    }

    /// Number of model variables.
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The display name of a variable.
    pub fn var_name(&self, var: LpVar) -> &str {
        &self.var_names[var.index()]
    }

    /// The registered constraints.
    pub fn constraints(&self) -> &[LpConstraint] {
        &self.constraints
    }

    /// Solves with the floating-point backend (mirrors the paper's real-valued LP).
    ///
    /// An `Optimal` answer is only reported after the recovered solution has been
    /// re-checked against the *original* (unscaled) constraints: accumulated tableau
    /// round-off can make the simplex terminate on a basis that is not actually
    /// feasible, and silently accepting it would be unsound. Such solves are downgraded
    /// to [`LpStatus::IterationLimit`] so callers can fall back to the exact backend.
    pub fn solve_f64(&self) -> LpResult<f64> {
        self.solve_f64_warm(None)
    }

    /// Like [`LpProblem::solve_f64`], seeding the simplex with a warm-start basis from
    /// a previous (related) solve. See [`LpBasis`] for the matching semantics.
    pub fn solve_f64_warm(&self, warm: Option<&LpBasis>) -> LpResult<f64> {
        let mut result = self.solve_generic::<f64>(warm);
        if result.status == LpStatus::Optimal && !self.roughly_feasible_f64(&result.values) {
            if std::env::var("DCA_LP_DEBUG").is_ok() {
                eprintln!(
                    "[lp] optimal solution failed the model-level feasibility re-check \
                     (truncated = {}); downgrading to IterationLimit",
                    result.info.truncated
                );
            }
            result.status = LpStatus::IterationLimit;
            result.objective = None;
            result.values = Vec::new();
        }
        result
    }

    /// Feasibility re-check with a per-constraint relative tolerance (the absolute
    /// magnitudes of Handelman constraints span several orders of magnitude).
    fn roughly_feasible_f64(&self, values: &[f64]) -> bool {
        const REL_TOL: f64 = 1e-6;
        self.constraints.iter().all(|c| {
            let mut lhs = 0.0f64;
            let mut scale = 1.0f64;
            for (v, coef) in &c.terms {
                let term = coef.to_f64() * values[v.index()];
                lhs += term;
                scale = scale.max(term.abs());
            }
            let slack = lhs - c.rhs.to_f64();
            let tol = REL_TOL * scale.max(c.rhs.to_f64().abs());
            match c.op {
                ConstraintOp::Le => slack <= tol,
                ConstraintOp::Ge => slack >= -tol,
                ConstraintOp::Eq => slack.abs() <= tol,
            }
        }) && self
            .var_kinds
            .iter()
            .zip(values)
            .all(|(kind, &v)| *kind == VarKind::Free || v >= -1e-6)
    }

    /// Solves with the exact rational backend (slower; used for cross-checking).
    pub fn solve_exact(&self) -> LpResult<Rational> {
        let mut result = self.solve_generic::<Rational>(None);
        result.info.certified = true;
        result.info.exact_iterations = result.info.iterations;
        result
    }

    /// Solves with the float-first, exact-repair driver: the `f64` revised simplex
    /// proposes a candidate optimal basis, an exact-rational certifier accepts or
    /// rejects it, and rejected candidates are repaired by a warm-started exact
    /// simplex (see the `certify` module docs for the scheme and its soundness
    /// argument).
    ///
    /// The result is exact: every status and optimal value is produced by rational
    /// arithmetic — the floats only choose where the exact machinery looks first.
    /// Expect exact-backend answers at a fraction of exact-backend cost whenever the
    /// `f64` phase lands on (or near) the true optimal basis, which is the common
    /// case for the Handelman synthesis LPs.
    pub fn solve_certified(&self) -> LpResult<Rational> {
        self.solve_certified_warm(None)
    }

    /// Like [`LpProblem::solve_certified`], seeding the float phase (and any exact
    /// repair) with a warm-start basis from a previous related solve.
    pub fn solve_certified_warm(&self, warm: Option<&LpBasis>) -> LpResult<Rational> {
        self.solve_certified_lazy(warm, &[])
    }

    /// Like [`LpProblem::solve_certified_warm`], additionally marking a set of
    /// *lazy* columns the driver may leave out of the initial solve and generate
    /// on demand (delayed column generation).
    ///
    /// `lazy_names` are display names of `NonNegative` model variables (in
    /// practice: Handelman product multipliers of degree ≥ 2). The driver starts
    /// from the non-lazy core plus any lazy column present in `warm`, solves,
    /// then *exactly* prices every excluded column against the exact dual; any
    /// column that could improve the solution is activated and the solve is
    /// repeated warm-started. The accepted verdict therefore carries the same
    /// exact certificate as a full eager solve — excluded columns are proven
    /// non-improving (or, for infeasibility, proven unable to break the exact
    /// Farkas certificate) before anything is reported. Names that are unknown
    /// or not `NonNegative` are ignored (a `Free` variable's split column pair
    /// must never be separated independently). `DCA_LP_NO_ROWGEN=1` disables
    /// the mechanism (A/B switch: full eager solve, identical verdicts).
    ///
    /// The returned basis names any activated lazy columns, so threading it into
    /// the next related solve (as the escalation ladder does) also seeds that
    /// solve's active set — row-generation state travels across rungs for free.
    pub fn solve_certified_lazy(
        &self,
        warm: Option<&LpBasis>,
        lazy_names: &[String],
    ) -> LpResult<Rational> {
        let standard = self.to_standard_form::<Rational>();
        let col_names = self.standard_col_names();
        let index_of = column_index(&col_names);
        let warm_cols = warm.map(|basis| basis.columns(&index_of));
        let lazy_cols: Vec<usize> = if lazy_names.is_empty() {
            Vec::new()
        } else {
            let free_split: std::collections::HashSet<usize> = self
                .var_names
                .iter()
                .zip(&self.var_kinds)
                .filter(|(_, kind)| **kind == VarKind::Free)
                .filter_map(|(name, _)| index_of.get(name.as_str()).copied())
                .collect();
            lazy_names
                .iter()
                .filter_map(|name| index_of.get(name.as_str()).copied())
                .filter(|col| !free_split.contains(col))
                .collect()
        };
        if std::env::var("DCA_LP_DEBUG").is_ok() {
            eprintln!(
                "[lp] certified solve: {} cols, {} lazy names -> {} lazy cols",
                col_names.len(),
                lazy_names.len(),
                lazy_cols.len()
            );
        }
        let raw = crate::certify::solve_float_first(
            &standard,
            &self.deadline,
            warm_cols.as_deref(),
            &lazy_cols,
        );
        self.assemble_result(raw, &col_names, &standard.model_columns)
    }

    /// Checks whether a candidate assignment satisfies every constraint up to `tol`.
    ///
    /// Used by tests and by the verifier to validate solutions independent of the solver.
    pub fn check_feasible_f64(&self, values: &[f64], tol: f64) -> bool {
        self.constraints.iter().all(|c| {
            let lhs: f64 = c
                .terms
                .iter()
                .map(|(v, coef)| coef.to_f64() * values[v.index()])
                .sum();
            let rhs = c.rhs.to_f64();
            match c.op {
                ConstraintOp::Le => lhs <= rhs + tol,
                ConstraintOp::Ge => lhs >= rhs - tol,
                ConstraintOp::Eq => (lhs - rhs).abs() <= tol,
            }
        }) && self
            .var_kinds
            .iter()
            .zip(values)
            .all(|(kind, &v)| *kind == VarKind::Free || v >= -tol)
    }

    /// Stable display names of the standard-form columns, used to translate a basis
    /// into a name-matched warm start (and back).
    fn standard_col_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for (name, kind) in self.var_names.iter().zip(&self.var_kinds) {
            names.push(name.clone());
            if *kind == VarKind::Free {
                names.push(format!("{name}~neg"));
            }
        }
        for (index, constraint) in self.constraints.iter().enumerate() {
            if constraint.op != ConstraintOp::Eq {
                names.push(format!("slack#{index}"));
            }
        }
        names
    }

    /// Turns a raw standard-form solution into the user-facing [`LpResult`];
    /// `model_columns` is the standard form's column layout of the model variables.
    fn assemble_result<S: Scalar>(
        &self,
        raw: RawSolution<S>,
        col_names: &[String],
        model_columns: &[(usize, Option<usize>)],
    ) -> LpResult<S> {
        let basis = LpBasis {
            names: raw
                .basis
                .iter()
                .filter_map(|&col| col_names.get(col).cloned())
                .collect(),
            fingerprint: None,
        };
        let info = LpSolveInfo {
            iterations: raw.iterations,
            float_iterations: raw.phases.float_iterations,
            exact_iterations: raw.phases.exact_iterations,
            presolve_rows_removed: raw.presolve_rows_removed,
            presolve_cols_removed: raw.presolve_cols_removed,
            truncated: raw.truncated,
            certified: raw.phases.certified,
            certify_rounds: raw.phases.certify_rounds,
            presolve_time: raw.phases.presolve_time,
            float_time: raw.phases.float_time,
            certify_time: raw.phases.certify_time,
            repair_time: raw.phases.repair_time,
            products_total: raw.phases.products_total,
            products_generated: raw.phases.products_generated,
            separation_rounds: raw.phases.separation_rounds,
            lu_updates: raw.phases.lu_updates,
            lu_refactorizations: raw.phases.lu_refactorizations,
        };
        match raw.status {
            LpStatus::Optimal => {
                let values: Vec<S> = model_columns
                    .iter()
                    .map(|&(pos, neg)| match neg {
                        None => raw.values[pos].clone(),
                        Some(neg) => raw.values[pos].sub(&raw.values[neg]),
                    })
                    .collect();
                let objective = self
                    .objective
                    .iter()
                    .fold(S::zero(), |acc, (v, c)| {
                        acc.add(&S::from_rational(c).mul(&values[v.index()]))
                    });
                LpResult {
                    status: LpStatus::Optimal,
                    objective: Some(objective),
                    values,
                    basis,
                    dual_bound: raw.dual_bound,
                    info,
                }
            }
            status => LpResult {
                status,
                objective: None,
                values: Vec::new(),
                basis,
                dual_bound: raw.dual_bound,
                info,
            },
        }
    }

    fn solve_generic<S: Scalar>(&self, warm: Option<&LpBasis>) -> LpResult<S> {
        let standard = self.to_standard_form::<S>();
        let col_names = self.standard_col_names();
        let warm_cols = warm.map(|basis| basis.columns(&column_index(&col_names)));
        let raw = solve_standard_form(&standard, &self.deadline, warm_cols.as_deref());
        self.assemble_result(raw, &col_names, &standard.model_columns)
    }

    /// Standard form: minimize c'y subject to Ay = b, y >= 0, b >= 0.
    ///
    /// Model variables map to standard-form columns as follows: a `NonNegative` variable
    /// maps to one column, a `Free` variable to a pair of columns (positive and negative
    /// parts). Inequality rows receive one slack/surplus column each.
    ///
    /// The columns are built straight from the sparse constraint terms: duplicate
    /// terms of a row are summed in term order, exact zeros are dropped, and a row
    /// with a negative right-hand side is negated entry by entry (b ≥ 0).
    fn to_standard_form<S: Scalar>(&self) -> StandardForm<S> {
        // Column layout per model variable.
        let mut model_columns: Vec<(usize, Option<usize>)> = Vec::with_capacity(self.num_vars());
        let mut num_cols = 0usize;
        for kind in &self.var_kinds {
            match kind {
                VarKind::NonNegative => {
                    model_columns.push((num_cols, None));
                    num_cols += 1;
                }
                VarKind::Free => {
                    model_columns.push((num_cols, Some(num_cols + 1)));
                    num_cols += 2;
                }
            }
        }
        let num_slacks = self
            .constraints
            .iter()
            .filter(|c| c.op != ConstraintOp::Eq)
            .count();

        let mut cols: Vec<Vec<(usize, S)>> = vec![Vec::new(); num_cols + num_slacks];
        let mut rhs: Vec<S> = Vec::with_capacity(self.constraints.len());
        // One row's coefficients accumulate here; `touched` lists the columns to
        // collect (a repeat is harmless: collecting resets the entry to zero).
        let mut row_values = vec![S::zero(); num_cols];
        let mut touched: Vec<usize> = Vec::new();
        let mut slack_idx = num_cols;
        for (row, constraint) in self.constraints.iter().enumerate() {
            for (var, coef) in &constraint.terms {
                let c = S::from_rational(coef);
                let (pos, neg) = model_columns[var.index()];
                row_values[pos] = row_values[pos].add(&c);
                touched.push(pos);
                if let Some(neg) = neg {
                    row_values[neg] = row_values[neg].sub(&c);
                    touched.push(neg);
                }
            }
            let b = S::from_rational(&constraint.rhs);
            let flip = b.is_negative();
            for col in touched.drain(..) {
                let value = std::mem::replace(&mut row_values[col], S::zero());
                if !value.is_exactly_zero() {
                    cols[col].push((row, if flip { value.neg() } else { value }));
                }
            }
            let slack = match constraint.op {
                ConstraintOp::Le => Some(S::one()),
                ConstraintOp::Ge => Some(S::one().neg()),
                ConstraintOp::Eq => None,
            };
            if let Some(slack) = slack {
                cols[slack_idx].push((row, if flip { slack.neg() } else { slack }));
                slack_idx += 1;
            }
            rhs.push(if flip { b.neg() } else { b });
        }

        let mut costs = vec![S::zero(); cols.len()];
        for (var, coef) in &self.objective {
            let c = S::from_rational(coef);
            let (pos, neg) = model_columns[var.index()];
            costs[pos] = costs[pos].add(&c);
            if let Some(neg) = neg {
                costs[neg] = costs[neg].sub(&c);
            }
        }

        let columns = Columns { cols, rows: rhs.len() };
        StandardForm { columns, rhs, costs, model_columns }
    }
}

/// Column name → standard-form column index.
fn column_index(col_names: &[String]) -> HashMap<&str, usize> {
    col_names.iter().enumerate().map(|(i, n)| (n.as_str(), i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::from_int(n)
    }

    /// minimize x + y s.t. x + 2y >= 4, 3x + y >= 6
    fn small_lp() -> (LpProblem, LpVar, LpVar) {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::NonNegative);
        let y = lp.add_var("y", VarKind::NonNegative);
        lp.add_constraint(vec![(x, r(1)), (y, r(2))], ConstraintOp::Ge, r(4));
        lp.add_constraint(vec![(x, r(3)), (y, r(1))], ConstraintOp::Ge, r(6));
        lp.set_objective(vec![(x, r(1)), (y, r(1))]);
        (lp, x, y)
    }

    #[test]
    fn exact_solution_of_small_lp() {
        let (lp, x, y) = small_lp();
        let sol = lp.solve_exact();
        assert_eq!(sol.status, LpStatus::Optimal);
        // Optimum at intersection of the two constraints: x = 8/5, y = 6/5, objective 14/5.
        assert_eq!(sol.objective.clone().unwrap(), Rational::new(14, 5));
        assert_eq!(sol.value(x), Rational::new(8, 5));
        assert_eq!(sol.value(y), Rational::new(6, 5));
    }

    #[test]
    fn f64_solution_matches_exact() {
        let (lp, _, _) = small_lp();
        let sol = lp.solve_f64();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective.unwrap() - 2.8).abs() < 1e-6);
        assert!(lp.check_feasible_f64(&sol.values, 1e-6));
    }

    #[test]
    fn equality_constraints() {
        // minimize x - y s.t. x + y = 10, x - y <= 4
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::NonNegative);
        let y = lp.add_var("y", VarKind::NonNegative);
        lp.add_constraint(vec![(x, r(1)), (y, r(1))], ConstraintOp::Eq, r(10));
        lp.add_constraint(vec![(x, r(1)), (y, r(-1))], ConstraintOp::Le, r(4));
        lp.set_objective(vec![(x, r(1)), (y, r(-1))]);
        let sol = lp.solve_exact();
        assert_eq!(sol.status, LpStatus::Optimal);
        // x - y minimized: x = 0, y = 10 -> -10.
        assert_eq!(sol.objective.unwrap(), r(-10));
    }

    #[test]
    fn free_variables() {
        // minimize t s.t. t >= x - 5, t >= 5 - x, x = 2  (t is the absolute gap, x fixed)
        let mut lp = LpProblem::new();
        let t = lp.add_var("t", VarKind::Free);
        let x = lp.add_var("x", VarKind::NonNegative);
        lp.add_constraint(vec![(t, r(1)), (x, r(-1))], ConstraintOp::Ge, r(-5));
        lp.add_constraint(vec![(t, r(1)), (x, r(1))], ConstraintOp::Ge, r(5));
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Eq, r(2));
        lp.set_objective(vec![(t, r(1))]);
        let sol = lp.solve_exact();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective.unwrap(), r(3));
    }

    #[test]
    fn free_variable_can_go_negative() {
        // minimize t s.t. t >= -7 has optimum t = -7 when t is free.
        let mut lp = LpProblem::new();
        let t = lp.add_var("t", VarKind::Free);
        lp.add_constraint(vec![(t, r(1))], ConstraintOp::Ge, r(-7));
        lp.set_objective(vec![(t, r(1))]);
        let sol = lp.solve_exact();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective.clone().unwrap(), r(-7));
        assert_eq!(sol.value(t), r(-7));
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::NonNegative);
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Ge, r(5));
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Le, r(3));
        lp.set_objective(vec![(x, r(1))]);
        assert_eq!(lp.solve_exact().status, LpStatus::Infeasible);
        assert_eq!(lp.solve_f64().status, LpStatus::Infeasible);
    }

    /// A variable no constraint mentions, with a negative objective coefficient:
    /// unbounded when the rest is feasible, infeasible when it is not — presolve
    /// must leave the call to the simplex (it cannot prove feasibility itself).
    #[test]
    fn unconstrained_negative_cost_column_resolves_by_feasibility() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::NonNegative);
        let free = lp.add_var("free", VarKind::NonNegative);
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Eq, r(2));
        lp.set_objective(vec![(free, r(-1))]);
        assert_eq!(lp.solve_exact().status, LpStatus::Unbounded);
        assert_eq!(lp.solve_f64().status, LpStatus::Unbounded);
        // Same column, but the rest of the system is infeasible.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::NonNegative);
        let free = lp.add_var("free", VarKind::NonNegative);
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Eq, r(2));
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Eq, r(3));
        lp.set_objective(vec![(free, r(-1))]);
        assert_eq!(lp.solve_exact().status, LpStatus::Infeasible);
        assert_eq!(lp.solve_f64().status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::Free);
        lp.add_constraint(vec![(x, r(1))], ConstraintOp::Le, r(100));
        lp.set_objective(vec![(x, r(1))]);
        assert_eq!(lp.solve_exact().status, LpStatus::Unbounded);
        assert_eq!(lp.solve_f64().status, LpStatus::Unbounded);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Multiple redundant constraints meeting at the same vertex.
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::NonNegative);
        let y = lp.add_var("y", VarKind::NonNegative);
        for k in 1..=5i64 {
            lp.add_constraint(vec![(x, r(k)), (y, r(k))], ConstraintOp::Ge, r(2 * k));
        }
        lp.set_objective(vec![(x, r(1)), (y, r(2))]);
        let sol = lp.solve_exact();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective.unwrap(), r(2));
    }

    #[test]
    fn zero_objective_feasibility_check() {
        let mut lp = LpProblem::new();
        let x = lp.add_var("x", VarKind::NonNegative);
        lp.add_constraint(vec![(x, r(2))], ConstraintOp::Eq, r(6));
        let sol = lp.solve_exact();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.value(x), r(3));
        assert_eq!(sol.objective.unwrap(), Rational::zero());
    }

    #[test]
    fn basis_wire_round_trips_with_and_without_fingerprint() {
        let (lp, _, _) = small_lp();
        let basis = lp.solve_exact().basis;
        assert!(!basis.is_empty());
        assert_eq!(basis.fingerprint(), None, "a fresh solve leaves the basis unstamped");
        assert_eq!(LpBasis::from_wire(&basis.to_wire()), Some(basis.clone()));
        let stamped = basis.rebadged(0xdead_beef_0123_4567);
        assert_eq!(stamped.fingerprint(), Some(0xdead_beef_0123_4567));
        assert_eq!(LpBasis::from_wire(&stamped.to_wire()), Some(stamped));
        // Malformed fingerprint fields are refused, empty bases survive.
        assert_eq!(LpBasis::from_wire("zz|x"), None);
        assert_eq!(LpBasis::from_wire("-"), Some(LpBasis::default()));
    }

    /// The dense builder the sparse `to_standard_form` replaced: one full row per
    /// constraint, summed in term order, negated whole when the rhs is negative.
    fn dense_standard_form<S: Scalar>(lp: &LpProblem) -> (Vec<Vec<S>>, Vec<S>, Vec<S>) {
        let mut layout = Vec::new();
        let mut num_cols = 0usize;
        for kind in &lp.var_kinds {
            let neg = (*kind == VarKind::Free).then_some(num_cols + 1);
            layout.push((num_cols, neg));
            num_cols += if neg.is_some() { 2 } else { 1 };
        }
        let slacks = lp.constraints.iter().filter(|c| c.op != ConstraintOp::Eq).count();
        let total = num_cols + slacks;
        let (mut matrix, mut rhs) = (Vec::new(), Vec::new());
        let mut slack = num_cols;
        for constraint in &lp.constraints {
            let mut row = vec![S::zero(); total];
            for (var, coef) in &constraint.terms {
                let c = S::from_rational(coef);
                let (pos, neg) = layout[var.index()];
                row[pos] = row[pos].add(&c);
                if let Some(neg) = neg {
                    row[neg] = row[neg].sub(&c);
                }
            }
            if constraint.op != ConstraintOp::Eq {
                let le = constraint.op == ConstraintOp::Le;
                row[slack] = if le { S::one() } else { S::one().neg() };
                slack += 1;
            }
            let mut b = S::from_rational(&constraint.rhs);
            if b.is_negative() {
                row = row.iter().map(Scalar::neg).collect();
                b = b.neg();
            }
            matrix.push(row);
            rhs.push(b);
        }
        let mut costs = vec![S::zero(); total];
        for (var, coef) in &lp.objective {
            let c = S::from_rational(coef);
            let (pos, neg) = layout[var.index()];
            costs[pos] = costs[pos].add(&c);
            if let Some(neg) = neg {
                costs[neg] = costs[neg].sub(&c);
            }
        }
        (matrix, rhs, costs)
    }

    /// Equal values with equal `f64` images, bit for bit.
    fn same<S: Scalar>(a: &S, b: &S) -> bool {
        a == b && a.to_f64().to_bits() == b.to_f64().to_bits()
    }

    /// Checks the sparse form of `lp` against the dense reference entry for entry.
    fn check_sparse_matches_dense<S: Scalar>(lp: &LpProblem, case: usize) {
        let form = lp.to_standard_form::<S>();
        let (matrix, rhs, costs) = dense_standard_form::<S>(lp);
        assert_eq!(form.columns.rows, matrix.len(), "case {case}");
        assert_eq!(form.columns.cols.len(), costs.len(), "case {case}");
        assert!(form.rhs.iter().zip(&rhs).all(|(a, b)| same(a, b)), "case {case}: rhs");
        assert!(form.costs.iter().zip(&costs).all(|(a, b)| same(a, b)), "case {case}: costs");
        for (j, column) in form.columns.cols.iter().enumerate() {
            assert!(column.windows(2).all(|w| w[0].0 < w[1].0), "case {case}: col {j} order");
            assert!(column.iter().all(|(_, v)| !v.is_exactly_zero()), "case {case}: stored zero");
            let expected: Vec<(usize, &S)> = matrix
                .iter()
                .enumerate()
                .filter(|(_, row)| !row[j].is_exactly_zero())
                .map(|(i, row)| (i, &row[j]))
                .collect();
            assert_eq!(column.len(), expected.len(), "case {case}: col {j} support");
            for ((row, value), (i, reference)) in column.iter().zip(expected) {
                assert!(*row == i && same(value, reference), "case {case}: col {j} row {i}");
            }
        }
    }

    /// The sparse builder against the dense reference on seeded random problems with
    /// duplicate (and cancelling) terms, free variables, every operator and
    /// negative right-hand sides, in both scalar types.
    #[test]
    fn sparse_standard_form_matches_the_dense_reference() {
        let mut seed = 0x5DEECE66Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let (mut cancelled, mut flipped, mut free) = (0usize, 0usize, 0usize);
        for case in 0..400 {
            let mut lp = LpProblem::new();
            let vars: Vec<LpVar> = (0..1 + next() % 7)
                .map(|i| {
                    let kind = if next() % 3 == 0 { VarKind::Free } else { VarKind::NonNegative };
                    free += usize::from(kind == VarKind::Free);
                    lp.add_var(format!("v{i}"), kind)
                })
                .collect();
            let coefficient = |next: &mut dyn FnMut() -> u64| {
                Rational::new((next() % 9) as i64 - 4, 1 + (next() % 7) as i64)
            };
            for _ in 0..1 + next() % 8 {
                let mut terms = Vec::new();
                for _ in 0..next() % 7 {
                    let var = vars[(next() % vars.len() as u64) as usize];
                    let c = coefficient(&mut next);
                    if next() % 4 == 0 {
                        // A duplicate pair that cancels to an exact zero.
                        terms.push((var, -c.clone()));
                        cancelled += 1;
                    }
                    terms.push((var, c));
                }
                let ops = [ConstraintOp::Le, ConstraintOp::Ge, ConstraintOp::Eq];
                let op = ops[(next() % 3) as usize];
                let rhs = coefficient(&mut next);
                flipped += usize::from(rhs.is_negative());
                lp.add_constraint(terms, op, rhs);
            }
            let objective = (0..next() % 4)
                .map(|_| (vars[(next() % vars.len() as u64) as usize], coefficient(&mut next)))
                .collect();
            lp.set_objective(objective);
            check_sparse_matches_dense::<Rational>(&lp, case);
            check_sparse_matches_dense::<f64>(&lp, case);
        }
        assert!(cancelled > 0 && flipped > 0 && free > 0, "the generator covers every shape");
    }

    #[test]
    fn names_and_counts() {
        let (lp, x, _) = small_lp();
        assert_eq!(lp.num_vars(), 2);
        assert_eq!(lp.num_constraints(), 2);
        assert_eq!(lp.var_name(x), "x");
        assert_eq!(lp.constraints().len(), 2);
        assert_eq!(LpStatus::Optimal.to_string(), "optimal");
    }
}
