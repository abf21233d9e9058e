//! Standard-form solving: presolve, the sparse revised simplex, and the dense
//! two-phase tableau fallback.
//!
//! The pipeline for every solve is
//!
//! ```text
//! presolve → equilibrate → (perturb) → revised simplex → map back
//!                                          ↓ (f64 non-convergence)
//!                                    dense tableau fallback
//! ```
//!
//! [`crate::presolve`] shrinks the system where it can (honest finding: the big
//! Handelman coefficient-matching systems present no singleton/forcing structure and
//! shed nothing, but the many small box LPs the invariant engine solves are often
//! decided entirely in presolve), [`crate::revised`] solves the reduced problem
//! sparsely with warm-start support, and the dense tableau below — the original
//! solver of this crate — remains as the floating-point rescue path for small and
//! medium systems, where its Gauss–Jordan refactorization machinery has survived
//! every degenerate instance the benchmark suite produces.

use std::time::Instant;

use crate::certify::PhaseStats;
use crate::deadline::Deadline;
use crate::presolve::{presolve, Presolved};
use crate::problem::LpStatus;
use crate::revised::{solve_revised_capped, Columns};
use crate::scalar::{abs as abs_scalar, Scalar};

/// A problem in standard form: minimize `costs · y` subject to `A · y = rhs`,
/// `y ≥ 0`, with `rhs ≥ 0` componentwise.
///
/// `A` is stored sparse and column-major, exactly as the revised simplex consumes
/// it: the Handelman systems are 99.7% zeros, so a dense copy of one degree-3
/// system in rationals would run to hundreds of megabytes.
#[derive(Debug, Clone)]
pub(crate) struct StandardForm<S> {
    /// Constraint matrix: per column, its `(row, value)` non-zeros in ascending row
    /// order, with no stored zeros; `columns.rows` is the number of equalities.
    pub columns: Columns<S>,
    /// Right-hand sides (all non-negative).
    pub rhs: Vec<S>,
    /// Objective coefficients.
    pub costs: Vec<S>,
    /// Column layout of the original model variables (positive column, optional negative
    /// column for free variables). Presolve uses it to tell model columns from slacks.
    pub model_columns: Vec<(usize, Option<usize>)>,
}

impl<S: Scalar> StandardForm<S> {
    /// Builds a form from dense rows (test fixtures), dropping exact zeros.
    #[cfg(test)]
    pub(crate) fn from_dense_rows(matrix: Vec<Vec<S>>, rhs: Vec<S>, costs: Vec<S>) -> Self {
        let mut cols = vec![Vec::new(); costs.len()];
        for (i, row) in matrix.iter().enumerate() {
            for (col, value) in cols.iter_mut().zip(row) {
                if !value.is_exactly_zero() {
                    col.push((i, value.clone()));
                }
            }
        }
        let columns = Columns { cols, rows: matrix.len() };
        StandardForm { columns, rhs, costs, model_columns: Vec::new() }
    }
}

/// Raw solver output over standard-form columns.
#[derive(Debug, Clone)]
pub(crate) struct RawSolution<S> {
    pub status: LpStatus,
    pub values: Vec<S>,
    /// Basic structural columns at termination, in *original* (pre-presolve)
    /// standard-form indices; the caller turns these into a reusable warm start.
    pub basis: Vec<usize>,
    /// Simplex iterations performed (0 when presolve decided the problem).
    pub iterations: usize,
    /// Rows removed by presolve.
    pub presolve_rows_removed: usize,
    /// Columns removed by presolve.
    pub presolve_cols_removed: usize,
    /// `true` when the deadline expired during phase 2 and the reported optimum is
    /// the last feasible (sound but possibly loose) iterate.
    pub truncated: bool,
    /// The terminal dual `y = c_B B⁻¹` of a *proven* exact optimum, over the rows
    /// of the form the simplex actually pivoted on (post-presolve). Only the exact
    /// backend fills this in (the `f64` dual certifies nothing), and only for
    /// non-truncated `Optimal`; the row-generation driver prices excluded columns
    /// against it without a separate Markowitz re-derivation.
    pub dual: Option<Vec<S>>,
    /// An exact lower bound `y·b` on the true optimum, recovered from a
    /// dual-feasible basis the certifier rejected on primal grounds (weak duality).
    /// Populated only for truncated (anytime) answers, whose objective is an upper
    /// bound: together they bracket the unproven optimum.
    pub dual_bound: Option<S>,
    /// Per-phase effort accounting (populated by the float-first driver; the plain
    /// single-backend paths leave it at its defaults).
    pub phases: PhaseStats,
}

impl<S> RawSolution<S> {
    pub(crate) fn bare(status: LpStatus) -> RawSolution<S> {
        RawSolution {
            status,
            values: Vec::new(),
            basis: Vec::new(),
            iterations: 0,
            presolve_rows_removed: 0,
            presolve_cols_removed: 0,
            truncated: false,
            dual: None,
            dual_bound: None,
            phases: PhaseStats::default(),
        }
    }
}

/// Internal simplex state: the tableau `B⁻¹A | B⁻¹b` plus the current basis.
struct Tableau<S> {
    rows: Vec<Vec<S>>,
    rhs: Vec<S>,
    basis: Vec<usize>,
    num_cols: usize,
}

impl<S: Scalar> Tableau<S> {
    /// Rebuilds the tableau `B⁻¹[A | b]` for the *current basis* directly from the
    /// original standard-form data, clearing all accumulated floating-point round-off.
    ///
    /// Long dense pivot chains drift: after tens of thousands of pivots the tableau can
    /// be wrong enough that phase 1 stalls at a positive objective on a feasible system
    /// (observed on the Fig. 1 `join` synthesis LP, which stalled at exactly 1.0 while
    /// the exact backend proves the system feasible). Re-deriving the tableau from the
    /// untouched input is a dense Gauss–Jordan elimination pivoting on the basic columns
    /// — `O(rows² · cols)`, so it is only invoked at verdict boundaries and at a coarse
    /// period, not per iteration.
    ///
    /// Returns `false` (leaving the tableau untouched) if the basis matrix is
    /// numerically singular, in which case the caller must not trust the state either
    /// way and should report non-convergence.
    fn refactor(&mut self, original: &[Vec<S>], original_rhs: &[S]) -> bool {
        let n = self.rows.len();
        let mut rows: Vec<Vec<S>> = original.to_vec();
        let mut rhs: Vec<S> = original_rhs.to_vec();
        let mut pivoted = vec![false; n];
        for _ in 0..n {
            // Greedy pivot order: the unprocessed row whose basic column currently has
            // the largest magnitude (partial pivoting over the fixed row/column pairing).
            let mut best: Option<usize> = None;
            for row in 0..n {
                if pivoted[row] {
                    continue;
                }
                let magnitude = abs_scalar(&rows[row][self.basis[row]]);
                let better = match best {
                    None => true,
                    Some(b) => abs_scalar(&rows[b][self.basis[b]]).lt(&magnitude),
                };
                if better {
                    best = Some(row);
                }
            }
            let Some(row) = best else { return false };
            let col = self.basis[row];
            let pivot_value = rows[row][col].clone();
            if pivot_value.is_zero() {
                return false;
            }
            for cell in &mut rows[row] {
                *cell = cell.div(&pivot_value);
            }
            rhs[row] = rhs[row].div(&pivot_value);
            let pivot_cells = std::mem::take(&mut rows[row]);
            let pivot_rhs = rhs[row].clone();
            for other in 0..n {
                if other == row {
                    continue;
                }
                let factor = rows[other][col].clone();
                if factor.is_exactly_zero() {
                    continue;
                }
                for (cell, p) in rows[other].iter_mut().zip(&pivot_cells) {
                    if !p.is_exactly_zero() {
                        *cell = cell.sub(&factor.mul(p));
                    }
                }
                rhs[other] = rhs[other].sub(&factor.mul(&pivot_rhs));
            }
            rows[row] = pivot_cells;
            pivoted[row] = true;
        }
        self.rows = rows;
        self.rhs = rhs;
        true
    }

    fn pivot(&mut self, pivot_row: usize, pivot_col: usize) {
        let pivot_value = self.rows[pivot_row][pivot_col].clone();
        debug_assert!(!pivot_value.is_zero());
        // Normalize the pivot row.
        for cell in &mut self.rows[pivot_row] {
            *cell = cell.div(&pivot_value);
        }
        self.rhs[pivot_row] = self.rhs[pivot_row].div(&pivot_value);
        // Eliminate the pivot column from all other rows. The pivot row is taken out of
        // the matrix so every update runs over two independent slices (row-major, no
        // per-element bounds checks); zero entries of the pivot row are skipped, which
        // saves most of the work on the sparse tableaus the Handelman encoding produces.
        let pivot_cells = std::mem::take(&mut self.rows[pivot_row]);
        let pivot_rhs = self.rhs[pivot_row].clone();
        for (row, (cells, rhs)) in self.rows.iter_mut().zip(self.rhs.iter_mut()).enumerate() {
            if row == pivot_row {
                continue;
            }
            let factor = cells[pivot_col].clone();
            if factor.is_zero() {
                continue;
            }
            for (cell, p) in cells.iter_mut().zip(&pivot_cells) {
                if !p.is_exactly_zero() {
                    *cell = cell.sub(&factor.mul(p));
                }
            }
            *rhs = rhs.sub(&factor.mul(&pivot_rhs));
        }
        self.rows[pivot_row] = pivot_cells;
        self.basis[pivot_row] = pivot_col;
    }

    /// Reduced costs `r_j = c_j - c_B · (B⁻¹ A_j)` for all columns, accumulated row by
    /// row so the traversal matches the tableau's memory layout.
    fn reduced_costs(&self, costs: &[S]) -> Vec<S> {
        let mut reduced: Vec<S> = costs[..self.num_cols].to_vec();
        for (row, &basic) in self.basis.iter().enumerate() {
            let bc = &costs[basic];
            if bc.is_zero() {
                continue;
            }
            for (value, cell) in reduced.iter_mut().zip(&self.rows[row]) {
                if !cell.is_exactly_zero() {
                    *value = value.sub(&bc.mul(cell));
                }
            }
        }
        reduced
    }

    fn objective_value(&self, costs: &[S]) -> S {
        let mut value = S::zero();
        for (row, &b) in self.basis.iter().enumerate() {
            value = value.add(&costs[b].mul(&self.rhs[row]));
        }
        value
    }

    /// Runs simplex iterations with the given costs until optimality, unboundedness,
    /// the iteration limit or the deadline. Returns the status.
    ///
    /// Reduced costs are maintained incrementally across pivots (`r' = r − r_e · ρ`
    /// where `ρ` is the post-pivot pivot row), which halves the per-iteration work
    /// compared to recomputing `c_j − c_B · B⁻¹A_j` from scratch. In floating point the
    /// maintained row drifts, so it is refreshed periodically and optimality is only
    /// reported after a confirmation pass over freshly recomputed reduced costs.
    ///
    /// `original` carries the untouched standard-form data (matrix extended with the
    /// artificial columns, and the right-hand side). When present, every floating-point
    /// verdict — optimality, unboundedness — is confirmed on a tableau freshly
    /// [refactored](Tableau::refactor) from it, and the tableau is periodically
    /// refactored mid-run to keep drift from steering pivots astray.
    fn optimize(
        &mut self,
        costs: &[S],
        allowed_cols: usize,
        max_iters: usize,
        deadline: &Deadline,
        original: Option<(&[Vec<S>], &[S])>,
        iterations: &mut usize,
    ) -> LpStatus {
        const REFRESH_EVERY: usize = 16;
        const DEADLINE_EVERY: usize = 64;
        /// Mid-run anti-drift refactorization period (f64 only). Refactoring is
        /// `O(rows²·cols)` — roughly a thousand ordinary pivots — so this keeps its
        /// amortized cost below ~15% while bounding how far the tableau can wander.
        const REFACTOR_EVERY: usize = 8192;
        /// How many verdict-time refactor-and-resume rescues are allowed before the
        /// verdict is accepted as-is (bounds the extra work on genuinely hard cases).
        const MAX_RESCUES: usize = 24;
        let bland_after = max_iters / 2;
        let mut reduced = self.reduced_costs(costs);
        let mut since_refresh = 0usize;
        let mut rescues = 0usize;
        let mut last_rescue_objective: Option<f64> = None;
        let refactor_and_resume =
            |tableau: &mut Self, reduced: &mut Vec<S>, rescues: &mut usize| -> bool {
                if S::IS_EXACT || *rescues >= MAX_RESCUES {
                    return false;
                }
                let Some((matrix, rhs)) = original else { return false };
                *rescues += 1;
                if !tableau.refactor(matrix, rhs) {
                    return false;
                }
                *reduced = tableau.reduced_costs(costs);
                true
            };
        for iteration in 0..max_iters {
            // Exact-backend pivots over blown-up rationals can take seconds each, so
            // the deadline is polled every iteration there; the cheap f64 iterations
            // amortize the clock read over a small batch.
            if (S::IS_EXACT || iteration % DEADLINE_EVERY == 0) && deadline.expired() {
                return LpStatus::TimedOut;
            }
            if !S::IS_EXACT {
                if iteration % REFACTOR_EVERY == REFACTOR_EVERY - 1 {
                    if let Some((matrix, rhs)) = original {
                        if self.refactor(matrix, rhs) {
                            reduced = self.reduced_costs(costs);
                            since_refresh = 0;
                        }
                    }
                } else if since_refresh >= REFRESH_EVERY {
                    reduced = self.reduced_costs(costs);
                    since_refresh = 0;
                }
            }
            let use_bland = S::IS_EXACT || iteration >= bland_after;
            // Entering column: negative reduced cost.
            let entering = if use_bland {
                (0..allowed_cols).find(|&j| reduced[j].is_negative())
            } else {
                // Dantzig: most negative reduced cost.
                let mut best: Option<usize> = None;
                for j in 0..allowed_cols {
                    if reduced[j].is_negative()
                        && best.is_none_or(|b| reduced[j].lt(&reduced[b]))
                    {
                        best = Some(j);
                    }
                }
                best
            };
            let Some(entering) = entering else {
                if !S::IS_EXACT && since_refresh != 0 {
                    // Apparent optimality on drifted data: confirm against fresh values.
                    reduced = self.reduced_costs(costs);
                    since_refresh = 0;
                    if (0..allowed_cols).any(|j| reduced[j].is_negative()) {
                        continue;
                    }
                }
                // Sharper confirmation: rebuild the tableau from the original data and
                // re-price. A stalled phase 1 (apparent optimum above zero on a feasible
                // system) resumes from here with round-off cleared. If a previous
                // rescue already landed on this objective value, further rescues will
                // only re-tread the same degenerate circle — accept the verdict and let
                // the caller's perturbed retry break the tie instead.
                let objective = self.objective_value(costs).to_f64();
                let stalled = last_rescue_objective
                    .is_some_and(|previous| (previous - objective).abs() <= 1e-9);
                last_rescue_objective = Some(objective);
                if !stalled && refactor_and_resume(self, &mut reduced, &mut rescues) {
                    since_refresh = 0;
                    if (0..allowed_cols).any(|j| reduced[j].is_negative()) {
                        continue;
                    }
                }
                // Round-off in long pivot chains can silently break primal feasibility
                // (negative basic values); report non-convergence instead of a bogus
                // optimum so callers fall back to the exact backend.
                if !S::IS_EXACT && self.rhs.iter().any(Scalar::is_negative) {
                    return LpStatus::IterationLimit;
                }
                return LpStatus::Optimal;
            };
            // Ratio test.
            let mut leaving: Option<usize> = None;
            let mut best_ratio: Option<S> = None;
            for row in 0..self.rows.len() {
                let coeff = &self.rows[row][entering];
                if !coeff.is_positive() {
                    continue;
                }
                let ratio = self.rhs[row].div(coeff);
                let better = match &best_ratio {
                    None => true,
                    Some(best) => {
                        ratio.lt(best)
                            || (!best.lt(&ratio)
                                && leaving.is_some_and(|l| self.basis[row] < self.basis[l]))
                    }
                };
                if better {
                    best_ratio = Some(ratio);
                    leaving = Some(row);
                }
            }
            let Some(leaving) = leaving else {
                // An all-non-positive entering column may itself be a drift artifact:
                // confirm unboundedness on a freshly refactored tableau before giving up.
                if refactor_and_resume(self, &mut reduced, &mut rescues) {
                    since_refresh = 0;
                    continue;
                }
                return LpStatus::Unbounded;
            };
            self.pivot(leaving, entering);
            *iterations += 1;
            // Incremental reduced-cost update from the freshly normalized pivot row.
            let scale = reduced[entering].clone();
            if !scale.is_exactly_zero() {
                for (value, cell) in reduced.iter_mut().zip(&self.rows[leaving]) {
                    if !cell.is_exactly_zero() {
                        *value = value.sub(&scale.mul(cell));
                    }
                }
            }
            since_refresh += 1;
        }
        LpStatus::IterationLimit
    }
}

/// Solves a standard-form problem: presolve, then the two-phase revised simplex (with
/// the dense tableau as the floating-point rescue path).
///
/// When `deadline` is set, the iteration loops poll the clock and bail out with
/// [`LpStatus::TimedOut`] once it passes.
///
/// `warm` seeds the initial basis with preferred structural columns (original column
/// indices); columns eliminated by presolve or dependent in the new system are
/// silently dropped, so a stale warm start degrades gracefully to a cold one.
///
/// A floating-point `Infeasible` verdict is re-examined once on a *perturbed* copy of
/// the problem: on heavily degenerate systems (the Handelman encodings are almost
/// entirely coefficient-matching equalities with zero right-hand sides) phase 1 can
/// stall at a positive objective even though the system is feasible — every improving
/// pivot has ratio zero and the tolerance-guided pricing goes in circles. Adding a tiny
/// deterministic positive offset to each right-hand side (the classical lexicographic-
/// perturbation cure) makes the basic values generically non-zero so every pivot makes
/// real progress; the phase-1 acceptance threshold accounts for the offsets. The
/// perturbed retry only runs when the plain solve claims infeasibility — and it reuses
/// the failed solve's final basis as its warm start, so the retry resumes from where
/// the stall happened instead of re-pivoting from scratch.
pub(crate) fn solve_standard_form<S: Scalar>(
    form: &StandardForm<S>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
) -> RawSolution<S> {
    let num_original_cols = form.costs.len();
    let pre = presolve(form);
    if let Some(solution) = settled_by_presolve(&pre, num_original_cols) {
        return solution;
    }
    let warm_reduced: Option<Vec<usize>> = warm.map(|w| pre.map_cols(w));

    // Large Handelman systems are degenerate enough that the stall is the *expected*
    // failure mode — and the stall itself is what burns the time (thousands of
    // zero-progress pivots before the tolerance gives up). Above the row threshold the
    // perturbation is applied from the start instead of after a failed plain solve.
    let perturb_immediately = !S::IS_EXACT && pre.form.columns.rows >= PERTURB_ROWS_THRESHOLD;
    let first_perturbation = if perturb_immediately { PERTURBATION } else { 0.0 };
    let mut solution = solve_standard_form_inner(
        &pre.form,
        deadline,
        first_perturbation,
        warm_reduced.as_deref(),
        None,
    );
    if !S::IS_EXACT && !perturb_immediately && solution.status == LpStatus::Infeasible {
        let retry_warm = if solution.basis.is_empty() { warm_reduced } else { Some(solution.basis.clone()) };
        solution = solve_standard_form_inner(
            &pre.form,
            deadline,
            PERTURBATION,
            retry_warm.as_deref(),
            None,
        );
    }

    // Map the reduced solution back to the original column space.
    if solution.status == LpStatus::Optimal {
        solution.values = pre.restore(&solution.values, num_original_cols);
    }
    solution.basis = solution.basis.iter().map(|&col| pre.kept_cols[col]).collect();
    solution.presolve_rows_removed = pre.rows_removed;
    solution.presolve_cols_removed = pre.cols_removed;
    solution
}

/// The solution when presolve decided the problem outright — a verdict, or no
/// constraint left — and `None` when the simplex has work to do.
pub(crate) fn settled_by_presolve<S: Scalar>(
    pre: &Presolved<S>,
    num_original_cols: usize,
) -> Option<RawSolution<S>> {
    let status = match pre.verdict {
        Some(status) => status,
        None if pre.form.columns.rows > 0 => return None,
        // Presolve resolved every constraint, which certifies feasibility. Surviving
        // columns are unconstrained: with non-negative costs zero (the `restore`
        // default) is optimal; a surviving negative-cost column (presolve keeps
        // those — see `presolve.rs`) is now a genuine unbounded ray.
        None if pre.form.costs.iter().any(Scalar::is_negative) => LpStatus::Unbounded,
        None => LpStatus::Optimal,
    };
    let mut solution = RawSolution::bare(status);
    if status == LpStatus::Optimal {
        solution.values = pre.restore(&vec![S::zero(); pre.kept_cols.len()], num_original_cols);
    }
    solution.presolve_rows_removed = pre.rows_removed;
    solution.presolve_cols_removed = pre.cols_removed;
    Some(solution)
}

/// Magnitude of the anti-degeneracy right-hand-side perturbation (applied to the
/// equilibrated system, whose entries are at most 1 in magnitude).
pub(crate) const PERTURBATION: f64 = 1e-7;

/// Row count above which the perturbation is applied on the first attempt rather than
/// only on the infeasibility retry.
pub(crate) const PERTURB_ROWS_THRESHOLD: usize = 384;

/// The equilibrate → perturb → revised-simplex core shared by the plain driver and
/// the float-first certification driver; `iter_cap` bounds the revised simplex's
/// pivots (used for the capped exact repair rounds).
pub(crate) fn solve_standard_form_inner<S: Scalar>(
    form: &StandardForm<S>,
    deadline: &Deadline,
    perturbation: f64,
    warm: Option<&[usize]>,
    iter_cap: Option<usize>,
) -> RawSolution<S> {
    let num_rows = form.columns.rows;
    let num_structural = form.costs.len();

    // Exact arithmetic skips equilibration entirely (see `equilibrate`) and is never
    // perturbed, so the exact path solves the caller's form as-is, without a copy.
    let mut column_scales = vec![S::one(); num_structural];
    let mut total_perturbation = 0.0f64;
    let prepared;
    let form = if S::IS_EXACT && perturbation == 0.0 {
        form
    } else {
        let mut copy = form.clone();
        if !S::IS_EXACT {
            column_scales = equilibrate(&mut copy, 3);
        }
        // Anti-degeneracy perturbation (see `solve_standard_form`): a small
        // deterministic positive offset per row, varied across rows so no two ratios
        // tie. Only ever non-zero on the floating-point path.
        if perturbation > 0.0 {
            for (index, rhs) in copy.rhs.iter_mut().enumerate() {
                let offset =
                    perturbation * (1.0 + ((index * 7919) % 104_729) as f64 / 104_729.0);
                total_perturbation += offset;
                *rhs = rhs.add(&S::from_rational(&dca_numeric::Rational::from_f64(offset)));
            }
        }
        prepared = copy;
        &prepared
    };

    if num_rows == 0 {
        // No constraints: the optimum is 0 unless some cost is negative (unbounded).
        let unbounded = form.costs.iter().any(Scalar::is_negative);
        let mut solution =
            RawSolution::bare(if unbounded { LpStatus::Unbounded } else { LpStatus::Optimal });
        solution.values = vec![S::zero(); num_structural];
        return solution;
    }

    // The f64 backend cannot distinguish a residual of accumulated round-off from a
    // genuinely infeasible system near the tolerance; `Infeasible` is a *definitive*
    // answer to callers (it becomes `NoThresholdFound`), so it is only reported when
    // the phase-1 optimum is clearly above this noise floor. Sub-threshold residuals
    // proceed to phase 2; the final answer is re-validated against the original
    // constraints by `LpProblem::solve_f64` either way.
    let noise_floor = 1e-6 * (num_rows as f64).max(1.0) + 2.0 * total_perturbation;

    // Primary path: the sparse revised simplex. The dense tableau remains as the
    // floating-point rescue when the revised run fails to converge (`DCA_LP_DENSE=1`
    // forces it outright, for A/B comparison) — but only up to a size cap: on the
    // biggest systems a dense rescue burns minutes of budget that the exact
    // backend's anytime path (see `dca_core`'s fallback chain) spends better.
    const DENSE_FALLBACK_MAX_ROWS: usize = 512;
    let force_dense = std::env::var("DCA_LP_DENSE").is_ok();
    let mut outcome = if force_dense {
        solve_dense(form, deadline, noise_floor)
    } else {
        let revised = solve_revised_capped(form, deadline, warm, noise_floor, iter_cap);
        if !S::IS_EXACT
            && revised.status == LpStatus::IterationLimit
            && iter_cap.is_none()
            && num_rows <= DENSE_FALLBACK_MAX_ROWS
        {
            let mut dense = solve_dense(form, deadline, noise_floor);
            dense.iterations += revised.iterations;
            dense
        } else {
            revised
        }
    };

    // Undo the column scaling: x_j = y_j / s_j.
    if outcome.status == LpStatus::Optimal {
        for (value, scale) in outcome.values.iter_mut().zip(&column_scales) {
            *value = value.div(scale);
        }
    } else {
        outcome.values = Vec::new();
    }
    let phases = PhaseStats {
        lu_updates: outcome.lu_updates,
        lu_refactorizations: outcome.lu_refactorizations,
        ..PhaseStats::default()
    };
    RawSolution {
        status: outcome.status,
        values: outcome.values,
        basis: outcome.basis,
        iterations: outcome.iterations,
        presolve_rows_removed: 0,
        presolve_cols_removed: 0,
        truncated: outcome.truncated,
        // Exact runs skip equilibration entirely, so the revised simplex's terminal
        // dual needs no unscaling; the `f64` backend never sets one.
        dual: outcome.dual,
        dual_bound: None,
        phases,
    }
}

/// Equilibration: scales columns and rows so that entries stay near unit magnitude,
/// and returns the column scales `s_j` (the solution is `x_j = y_j / s_j`).
///
/// This matters for the floating-point backend on problems whose raw coefficients
/// span several orders of magnitude (the degree-3 Handelman products such as
/// `(100 - n)^3` span six). Column scaling substitutes `y_j = s_j · x_j`; row scaling
/// multiplies an equality by a positive factor and needs no compensation. The
/// column/row passes are iterated (Ruiz-style): one pass leaves the opposite
/// dimension unbalanced again, and on the big degenerate systems the residual
/// imbalance is what drove the basis factorizations ill-conditioned.
///
/// Exact arithmetic never comes here: conditioning is a floating-point concern, and
/// dividing the (almost always small-integer) Handelman data by max-abs scale
/// factors would only manufacture fraction-heavy rationals — pushing the 64-bit fast
/// path into gcd-heavy or BigInt territory on every pivot.
///
/// Each pass is one sweep over each column's entries plus a row-max accumulator.
/// Zeros never raise a maximum and divide to zero, so skipping them leaves every
/// stored value bit-for-bit what a dense sweep computes; entries a division
/// underflowed to zero are dropped at the end.
fn equilibrate<S: Scalar>(form: &mut StandardForm<S>, passes: usize) -> Vec<S> {
    let abs = abs_scalar::<S>;
    let raise = |max_abs: &mut S, value: &S| {
        let a = abs(value);
        if max_abs.lt(&a) {
            *max_abs = a;
        }
    };
    let mut column_scales = vec![S::one(); form.costs.len()];
    let mut row_max = vec![S::zero(); form.rhs.len()];
    for _ in 0..passes {
        for (max_abs, rhs) in row_max.iter_mut().zip(&form.rhs) {
            *max_abs = S::zero();
            raise(max_abs, rhs);
        }
        let columns = form.columns.cols.iter_mut().zip(&mut form.costs);
        for ((column, cost), scale) in columns.zip(column_scales.iter_mut()) {
            let mut max_abs = S::zero();
            for (_, value) in column.iter() {
                raise(&mut max_abs, value);
            }
            if !max_abs.is_zero() {
                *scale = scale.mul(&max_abs);
                for (_, value) in column.iter_mut() {
                    *value = value.div(&max_abs);
                }
                *cost = cost.div(&max_abs);
            }
            for (row, value) in column.iter() {
                raise(&mut row_max[*row], value);
            }
        }
        for column in &mut form.columns.cols {
            for (row, value) in column.iter_mut() {
                if !row_max[*row].is_zero() {
                    *value = value.div(&row_max[*row]);
                }
            }
        }
        for (rhs, max_abs) in form.rhs.iter_mut().zip(&row_max) {
            if !max_abs.is_zero() {
                *rhs = rhs.div(max_abs);
            }
        }
    }
    for column in &mut form.columns.cols {
        column.retain(|(_, value)| !value.is_exactly_zero());
    }
    column_scales
}

/// The dense two-phase tableau solve (the crate's original algorithm), over an already
/// equilibrated and perturbed system. Kept as the floating-point rescue path; see the
/// module docs. It is the one place the sparse form is densified, and only locally.
fn solve_dense<S: Scalar>(
    form: &StandardForm<S>,
    deadline: &Deadline,
    noise_floor: f64,
) -> crate::revised::RevisedOutcome<S> {
    use crate::revised::RevisedOutcome;
    let num_rows = form.columns.rows;
    let num_structural = form.costs.len();
    let fail = |status| RevisedOutcome {
        status,
        values: Vec::new(),
        basis: Vec::new(),
        iterations: 0,
        truncated: false,
        lu_updates: 0,
        lu_refactorizations: 0,
        dual: None,
    };

    // Phase 1: add one artificial variable per row and minimize their sum.
    let num_cols = num_structural + num_rows;
    let mut rows = vec![vec![S::zero(); num_cols]; num_rows];
    for (j, column) in form.columns.cols.iter().enumerate() {
        for (i, value) in column {
            rows[*i][j] = value.clone();
        }
    }
    for (i, row) in rows.iter_mut().enumerate() {
        row[num_structural + i] = S::one();
    }
    // The untouched extended system, kept for mid-run and verdict-time tableau
    // refactorization (f64 drift recovery).
    let original_rows = rows.clone();
    let original_rhs = form.rhs.clone();
    let original = (original_rows.as_slice(), original_rhs.as_slice());
    let mut tableau = Tableau {
        rows,
        rhs: form.rhs.clone(),
        basis: (num_structural..num_cols).collect(),
        num_cols,
    };
    let mut phase1_costs = vec![S::zero(); num_cols];
    for cost in phase1_costs.iter_mut().skip(num_structural) {
        *cost = S::one();
    }
    let max_iters = 200 * (num_rows + num_cols) + 2000;
    let debug = std::env::var("DCA_LP_DEBUG").is_ok();
    let mut iterations = 0usize;
    let phase1_start = Instant::now();
    let status = tableau.optimize(
        &phase1_costs,
        num_cols,
        max_iters,
        deadline,
        Some(original),
        &mut iterations,
    );
    if debug {
        eprintln!(
            "[lp] dense phase1: {:?} in {:.2}s ({} rows, {} cols)",
            status,
            phase1_start.elapsed().as_secs_f64(),
            num_rows,
            num_cols,
        );
    }
    if status == LpStatus::IterationLimit || status == LpStatus::TimedOut {
        return fail(status);
    }
    if status == LpStatus::Unbounded {
        // Phase 1 minimizes a sum of non-negative variables: its objective is bounded
        // below by zero, so "unbounded" can only be numerical noise. Report
        // non-convergence rather than letting the verdict fall through to the
        // infeasibility check (which is how a stalled `SimpleSingle2` phase 1 once
        // turned 80 s of drift into a wrong definitive answer).
        return fail(LpStatus::IterationLimit);
    }
    let phase1_value = tableau.objective_value(&phase1_costs);
    if phase1_value.is_positive()
        && (S::IS_EXACT || phase1_value.to_f64() > noise_floor) {
            if debug {
                eprintln!(
                    "[lp] dense phase1 positive: value = {:e}, rows = {}, cols = {}",
                    phase1_value.to_f64(),
                    num_rows,
                    num_cols
                );
            }
            return fail(LpStatus::Infeasible);
        }

    // Drive any remaining artificial variables out of the basis.
    for row in 0..num_rows {
        if tableau.basis[row] >= num_structural {
            // Find a structural column with a non-zero entry to pivot in.
            let pivot_col = (0..num_structural).find(|&j| !tableau.rows[row][j].is_zero());
            match pivot_col {
                Some(col) => tableau.pivot(row, col),
                None => {
                    // Redundant row: every structural coefficient is zero. The artificial
                    // stays basic at value zero, which is harmless for phase 2 as long as
                    // it can never re-enter (we restrict entering columns to structural).
                }
            }
        }
    }

    // Phase 2: original costs (artificial columns are excluded from entering).
    let mut phase2_costs = form.costs.clone();
    phase2_costs.resize(num_cols, S::zero());
    let phase2_start = Instant::now();
    let status = tableau.optimize(
        &phase2_costs,
        num_structural,
        max_iters,
        deadline,
        Some(original),
        &mut iterations,
    );
    if debug {
        eprintln!("[lp] dense phase2: {:?} in {:.2}s", status, phase2_start.elapsed().as_secs_f64());
    }
    // Anytime semantics (mirrors the revised path): a deadline hit during phase 2
    // leaves a primal-feasible tableau whose objective is a sound upper bound.
    let truncated = status == LpStatus::TimedOut
        && !S::IS_EXACT
        && !tableau.rhs.iter().any(|v| v.to_f64() < -1e-6);
    if debug && status == LpStatus::TimedOut {
        let min_rhs = tableau.rhs.iter().map(Scalar::to_f64).fold(f64::INFINITY, f64::min);
        eprintln!("[lp] dense phase2 timeout: truncated={truncated}, min rhs = {min_rhs:e}");
    }
    if status != LpStatus::Optimal && !truncated {
        return fail(status);
    }

    let mut values = vec![S::zero(); num_structural];
    for (row, &basic) in tableau.basis.iter().enumerate() {
        if basic < num_structural && !tableau.rhs[row].is_negative() {
            values[basic] = tableau.rhs[row].clone();
        }
    }
    RevisedOutcome {
        status: LpStatus::Optimal,
        values,
        basis: tableau.basis.iter().copied().filter(|&b| b < num_structural).collect(),
        iterations,
        truncated,
        // The dense tableau maintains no LU at all; its pivots are neither eta
        // updates nor refactorizations.
        lu_updates: 0,
        lu_refactorizations: 0,
        dual: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_numeric::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    /// minimize -x - y  s.t.  x + y + s = 4  (i.e. x + y <= 4), expects objective -4.
    #[test]
    fn standard_form_direct() {
        let form = StandardForm {
            model_columns: vec![(0, None), (1, None)],
            ..StandardForm::from_dense_rows(
                vec![vec![r(1, 1), r(1, 1), r(1, 1)]],
                vec![r(4, 1)],
                vec![r(-1, 1), r(-1, 1), r(0, 1)],
            )
        };
        let sol = solve_standard_form(&form, &Deadline::unlimited(), None);
        assert_eq!(sol.status, LpStatus::Optimal);
        let total = sol.values[0].clone() + sol.values[1].clone();
        assert_eq!(total, r(4, 1));
    }

    #[test]
    fn empty_problem() {
        let form: StandardForm<Rational> = StandardForm {
            model_columns: vec![(0, None)],
            ..StandardForm::from_dense_rows(vec![], vec![], vec![Rational::one()])
        };
        let sol = solve_standard_form(&form, &Deadline::unlimited(), None);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values, vec![Rational::zero()]);
    }

    #[test]
    fn redundant_equality_rows() {
        // x = 2 stated twice; minimize x.
        let form = StandardForm {
            model_columns: vec![(0, None)],
            ..StandardForm::from_dense_rows(
                vec![vec![r(1, 1)], vec![r(1, 1)]],
                vec![r(2, 1), r(2, 1)],
                vec![r(1, 1)],
            )
        };
        let sol = solve_standard_form(&form, &Deadline::unlimited(), None);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.values[0], r(2, 1));
    }

    /// Differential check: the revised simplex and the dense tableau must agree on
    /// status and objective for a swarm of small deterministic pseudo-random LPs
    /// (exact arithmetic, so any disagreement is an algorithmic bug, not round-off).
    #[test]
    fn revised_and_dense_agree_on_random_small_lps() {
        let mut seed = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..1500 {
            let m = 1 + (next() % 7) as usize;
            let n = 1 + (next() % 9) as usize;
            let matrix: Vec<Vec<Rational>> = (0..m)
                .map(|_| (0..n).map(|_| r((next() % 7) as i64 - 3, 1)).collect())
                .collect();
            let rhs: Vec<Rational> = (0..m).map(|_| r((next() % 5) as i64, 1)).collect();
            let costs: Vec<Rational> = (0..n).map(|_| r((next() % 7) as i64 - 3, 1)).collect();
            let form = StandardForm::from_dense_rows(matrix, rhs, costs.clone());
            let objective = |values: &[Rational]| -> Rational {
                values
                    .iter()
                    .zip(&costs)
                    .fold(Rational::zero(), |acc, (v, c)| &acc + &(v * c))
            };
            let revised = crate::revised::solve_revised(&form, &Deadline::unlimited(), None, 0.0);
            let dense = solve_dense(&form, &Deadline::unlimited(), 0.0);
            assert_eq!(
                revised.status, dense.status,
                "case {case}: status diverged on {form:?}"
            );
            if revised.status == LpStatus::Optimal {
                assert_eq!(
                    objective(&revised.values),
                    objective(&dense.values),
                    "case {case}: objective diverged on {form:?}"
                );
            }
        }
    }

    /// The same differential check on the `f64` path, biased toward the degenerate
    /// all-zero right-hand sides the Handelman encodings produce.
    #[test]
    fn revised_and_dense_agree_on_degenerate_f64_lps() {
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..600 {
            let m = 2 + (next() % 8) as usize;
            let n = 2 + (next() % 12) as usize;
            let matrix: Vec<Vec<f64>> = (0..m)
                .map(|_| (0..n).map(|_| ((next() % 7) as i64 - 3) as f64).collect())
                .collect();
            // Three out of four right-hand sides are zero: maximal degeneracy.
            let rhs: Vec<f64> = (0..m)
                .map(|_| if next() % 4 == 0 { (next() % 5) as f64 } else { 0.0 })
                .collect();
            let costs: Vec<f64> = (0..n).map(|_| ((next() % 7) as i64 - 3) as f64).collect();
            let form = StandardForm::from_dense_rows(matrix, rhs, costs.clone());
            let objective = |values: &[f64]| -> f64 {
                values.iter().zip(&costs).map(|(v, c)| v * c).sum()
            };
            let revised = crate::revised::solve_revised(&form, &Deadline::unlimited(), None, 0.0);
            let dense = solve_dense(&form, &Deadline::unlimited(), 0.0);
            // `IterationLimit` is an honest "don't know" on either side; only compare
            // definitive answers.
            if revised.status == LpStatus::IterationLimit
                || dense.status == LpStatus::IterationLimit
            {
                continue;
            }
            assert_eq!(
                revised.status, dense.status,
                "case {case}: status diverged on {form:?}"
            );
            if revised.status == LpStatus::Optimal {
                let (a, b) = (objective(&revised.values), objective(&dense.values));
                assert!(
                    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs())),
                    "case {case}: objective diverged ({a} vs {b}) on {form:?}"
                );
            }
        }
    }

    /// Medium-sized degenerate systems: enough pivots to cross the periodic
    /// reinversion threshold, so the eta-file rebuild itself is exercised.
    #[test]
    fn revised_handles_reinversion_on_medium_degenerate_lps() {
        let mut seed = 0xDEADBEEFCAFEBABEu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..20 {
            let m = 16 + (next() % 24) as usize;
            let n = m + 8 + (next() % 32) as usize;
            let matrix: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    (0..n)
                        .map(|_| {
                            if next() % 3 == 0 {
                                ((next() % 9) as i64 - 4) as f64
                            } else {
                                0.0
                            }
                        })
                        .collect()
                })
                .collect();
            let rhs: Vec<f64> = (0..m)
                .map(|_| if next() % 3 == 0 { (next() % 6) as f64 } else { 0.0 })
                .collect();
            let costs: Vec<f64> = (0..n).map(|_| ((next() % 9) as i64 - 4) as f64).collect();
            let form = StandardForm::from_dense_rows(matrix, rhs, costs.clone());
            let objective = |values: &[f64]| -> f64 {
                values.iter().zip(&costs).map(|(v, c)| v * c).sum()
            };
            let revised = crate::revised::solve_revised(&form, &Deadline::unlimited(), None, 0.0);
            let dense = solve_dense(&form, &Deadline::unlimited(), 0.0);
            if revised.status == LpStatus::IterationLimit
                || dense.status == LpStatus::IterationLimit
            {
                continue;
            }
            assert_eq!(
                revised.status, dense.status,
                "case {case} ({m}x{n}): status diverged"
            );
            if revised.status == LpStatus::Optimal {
                let (a, b) = (objective(&revised.values), objective(&dense.values));
                assert!(
                    (a - b).abs() <= 1e-6 * (1.0 + a.abs().max(b.abs())),
                    "case {case} ({m}x{n}): objective diverged ({a} vs {b})"
                );
            }
        }
    }

    /// The dense equilibration loop the sparse `equilibrate` replaced, verbatim
    /// over dense rows.
    fn equilibrate_dense(matrix: &mut [Vec<f64>], rhs: &mut [f64], costs: &mut [f64]) -> Vec<f64> {
        let abs = abs_scalar::<f64>;
        let mut column_scales = vec![1.0f64; costs.len()];
        for _ in 0..3 {
            for (column, scale) in column_scales.iter_mut().enumerate() {
                let mut max_abs = 0.0f64;
                for row in matrix.iter() {
                    let a = abs(&row[column]);
                    if Scalar::lt(&max_abs, &a) {
                        max_abs = a;
                    }
                }
                if !Scalar::is_zero(&max_abs) {
                    *scale = Scalar::mul(scale, &max_abs);
                    for row in matrix.iter_mut() {
                        row[column] = Scalar::div(&row[column], &max_abs);
                    }
                    costs[column] = Scalar::div(&costs[column], &max_abs);
                }
            }
            for (row, rhs) in matrix.iter_mut().zip(rhs.iter_mut()) {
                let mut max_abs = 0.0f64;
                for cell in row.iter().chain(std::iter::once(&*rhs)) {
                    let a = abs(cell);
                    if Scalar::lt(&max_abs, &a) {
                        max_abs = a;
                    }
                }
                if Scalar::is_zero(&max_abs) {
                    continue;
                }
                for cell in row.iter_mut() {
                    *cell = Scalar::div(cell, &max_abs);
                }
                *rhs = Scalar::div(rhs, &max_abs);
            }
        }
        column_scales
    }

    /// The sparse equilibration must reproduce the dense loop bit for bit: every
    /// entry, right-hand side, cost and column scale, with the same support. The
    /// forms mix magnitudes from 1e-10 (below the zero tolerance) to 1e6 and always
    /// hold an all-zero column, a column of tolerance-zero entries, a row whose
    /// maximum is its right-hand side and a sign-flipped row.
    #[test]
    fn sparse_equilibration_is_bit_identical_to_the_dense_loop() {
        let mut seed = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..300 {
            let m = 2 + (next() % 9) as usize;
            let n = 3 + (next() % 12) as usize;
            let value = |next: &mut dyn FnMut() -> u64| -> f64 {
                let mantissa = (1 + next() % 1000) as f64 / 7.0;
                let exponent = (next() % 17) as i32 - 10;
                let sign = if next().is_multiple_of(2) { 1.0 } else { -1.0 };
                sign * mantissa * 10f64.powi(exponent)
            };
            let mut entry = || if next().is_multiple_of(2) { value(&mut next) } else { 0.0 };
            let mut matrix: Vec<Vec<f64>> =
                (0..m).map(|_| (0..n).map(|_| entry()).collect()).collect();
            let mut rhs: Vec<f64> = (0..m).map(|_| value(&mut next).abs()).collect();
            let mut costs: Vec<f64> = (0..n).map(|_| value(&mut next)).collect();
            for (i, row) in matrix.iter_mut().enumerate() {
                row[0] = 0.0;
                row[1] = if i.is_multiple_of(2) { 3e-9 } else { -7e-10 };
            }
            let row_max = matrix[0].iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
            rhs[0] = 10.0 * row_max + 1.0;
            for cell in &mut matrix[1] {
                *cell = -*cell;
            }

            let mut form =
                StandardForm::from_dense_rows(matrix.clone(), rhs.clone(), costs.clone());
            let scales = equilibrate(&mut form, 3);
            let dense_scales = equilibrate_dense(&mut matrix, &mut rhs, &mut costs);
            let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&scales), bits(&dense_scales), "case {case}: column scales");
            assert_eq!(bits(&form.rhs), bits(&rhs), "case {case}: rhs");
            assert_eq!(bits(&form.costs), bits(&costs), "case {case}: costs");
            for (j, column) in form.columns.cols.iter().enumerate() {
                let expected: Vec<(usize, u64)> = matrix
                    .iter()
                    .enumerate()
                    .filter(|(_, row)| row[j] != 0.0)
                    .map(|(i, row)| (i, row[j].to_bits()))
                    .collect();
                let actual: Vec<(usize, u64)> =
                    column.iter().map(|(i, v)| (*i, v.to_bits())).collect();
                assert_eq!(actual, expected, "case {case}: column {j}");
            }
        }
    }

    #[test]
    fn infeasible_standard_form() {
        // x = 2 and x = 3 simultaneously.
        let form = StandardForm {
            model_columns: vec![(0, None)],
            ..StandardForm::from_dense_rows(
                vec![vec![r(1, 1)], vec![r(1, 1)]],
                vec![r(2, 1), r(3, 1)],
                vec![r(1, 1)],
            )
        };
        let sol = solve_standard_form(&form, &Deadline::unlimited(), None);
        assert_eq!(sol.status, LpStatus::Infeasible);
    }
}
