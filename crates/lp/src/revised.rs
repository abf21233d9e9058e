//! Sparse revised simplex with a product-form (eta-file) basis factorization.
//!
//! The dense tableau simplex this crate started with drags a full `m × (n + m)` matrix
//! through every pivot — `O(m·n)` per iteration even when the constraint matrix is 99%
//! zeros, which the Handelman coefficient-matching systems are. The revised method
//! keeps the constraint matrix `A` untouched in sparse column-major form and maintains
//! only a factorization of the current basis `B`:
//!
//! * `B⁻¹` is represented as a product of *eta matrices*, one appended per pivot
//!   ([`Eta`]); applying it to a vector (`FTRAN`) or a row vector (`BTRAN`) costs the
//!   number of stored non-zeros, not `m²`;
//! * every [`REINVERT_EVERY`] pivots (and at every verdict for the `f64` backend) the
//!   eta file is rebuilt from scratch against the untouched columns
//!   ([`Factorization::reinvert`]), clearing accumulated round-off the way the dense
//!   code's Gauss–Jordan refactorization did — but at sparse cost;
//! * `f64` pricing recomputes reduced costs from a fresh `BTRAN` every iteration, so
//!   there is no incrementally-maintained (and drifting) reduced-cost row at all;
//! * the *exact* backend, which cannot drift, instead maintains the dual `y = c_B B⁻¹`
//!   incrementally across pivots (`y' = y + (d̄_q/α_r)·ρ_r`, one hypersparse
//!   unit-vector `BTRAN` per pivot, [`Factorization::btran_unit`], instead of a
//!   dense one per pricing pass) and memoizes each
//!   column's reduced-cost verdict until a dual row in its support actually changes —
//!   both updates are exact rational arithmetic, so the optimality proof is untouched.
//!
//! The same machinery provides **warm starts**: a caller-supplied set of preferred
//! columns is run through the reinversion routine first (columns that prove dependent
//! are skipped), artificial columns cover whatever rows remain, and phase 1 begins from
//! that basis instead of the all-artificial one. When the previous basis is close to
//! optimal for the new problem — as it is between the escalation ladder's consecutive
//! `(degree, tier)` rungs, whose constraint systems share most of their structure —
//! phase 1 collapses to a handful of pivots.

use std::time::Instant;

use crate::deadline::Deadline;
use crate::problem::LpStatus;
use crate::scalar::{abs, Scalar};
use crate::simplex::StandardForm;

/// Pivot acceptance threshold for the `f64` backend: candidate pivots below this
/// magnitude are rejected in the ratio test and during reinversion (a tiny pivot
/// amplifies every subsequent FTRAN/BTRAN). Matches the dense tableau's effective
/// positivity tolerance.
const PIVOT_EPS: f64 = 1e-8;

/// Coarse entering threshold for the `f64` backend: a column prices in when its
/// reduced cost is below `-COARSE_PRICING_EPS`. Matches the dense tableau's
/// tolerance; entering columns below it mid-run mostly buys degenerate churn.
const COARSE_PRICING_EPS: f64 = 1e-8;

/// Fine entering threshold, used only in phase 2 once the coarse tolerance sees no
/// improving column on a freshly reinverted factorization. Reduced costs come from a
/// fresh BTRAN every iteration — there is no incrementally-maintained row to drift —
/// and on degenerate systems a reduced cost of a few 1e-9 can still be worth a large
/// objective step (observed on the Fig. 1 `join` LP, where accepting a −9.8e-9
/// reduced cost as "non-negative" left the threshold 612 above the true optimum
/// 10000). The fine sweep runs at the very end, so it mops up those columns without
/// paying their churn mid-run.
const FINE_PRICING_EPS: f64 = 1e-10;

/// Eta entries with magnitude below this are dropped when the eta is stored (`f64`
/// only); keeping them would only grow the file with numerical dust.
const DROP_EPS: f64 = 1e-12;

/// Rebuild the factorization from scratch after this many appended etas (`f64`).
/// Degenerate pivot chains amplify round-off through the eta file; a shortish period
/// keeps the factorization honest at a bounded (~sparse) rebuild cost.
const REINVERT_EVERY: usize = 64;

// Reinversion for the exact backend is **growth-driven**, not periodic. Exact
// arithmetic accumulates no round-off — a rebuild only exists to keep the eta file
// (and thus FTRAN/BTRAN cost) from growing without bound — so each pivot is absorbed
// as a rank-1 eta *update* of the rational factorization and a full Markowitz
// refactorization runs only when the accumulated weighted eta fill outgrows the
// policy in [`crate::lu::should_refactorize`] (or hits its eta-count cap). On the
// degree-3 `nested` solve that is 162 refactorizations across 29,973 exact pivots,
// about one per 185 pivots, with each rebuild a small share of the repair time
// (EXPERIMENTS.md has the per-stage split and the policy constants' measurements).

/// One eta matrix: the identity with column `pivot` replaced by the stored vector.
#[derive(Debug, Clone)]
pub(crate) struct Eta<S> {
    pub(crate) pivot: usize,
    pub(crate) pivot_value: S,
    /// Off-pivot non-zero entries `(row, value)`.
    pub(crate) others: Vec<(usize, S)>,
}

impl<S: Scalar> Eta<S> {
    /// Traversal cost of this eta in machine-word units: its non-zero count for
    /// fixed-width scalars, bit-length-scaled for rationals ([`Scalar::complexity`]).
    /// Rational eta entries can balloon to thousands of bits each, so counting
    /// plain non-zeros would drastically under-report how expensive FTRAN/BTRAN
    /// through the file has become.
    pub(crate) fn weight(&self) -> usize {
        self.pivot_value.complexity()
            + self.others.iter().map(|(_, value)| value.complexity()).sum::<usize>()
    }

    /// This eta's step of the backward pass: `y[p] := (y[p] − Σ y[i]·e_i) / e_p`.
    /// Exactly-zero reads are skipped, and so is the division when the sum is zero.
    fn btran_step(&self, y: &mut [S]) {
        let mut s = y[self.pivot].clone();
        for (row, value) in &self.others {
            if !y[*row].is_exactly_zero() {
                s = s.sub(&y[*row].mul(value));
            }
        }
        y[self.pivot] = if s.is_exactly_zero() { s } else { s.div(&self.pivot_value) };
    }
}

/// The sparse constraint matrix plus the virtual artificial identity columns.
#[derive(Debug, Clone)]
pub(crate) struct Columns<S> {
    /// Structural columns: `cols[j]` is the list of `(row, value)` non-zeros.
    pub(crate) cols: Vec<Vec<(usize, S)>>,
    /// Number of rows (artificial column `n + r` is the unit vector `e_r`).
    pub(crate) rows: usize,
}

impl<S: Scalar> Columns<S> {
    /// Number of stored non-zeros.
    pub(crate) fn nnz(&self) -> usize {
        self.cols.iter().map(Vec::len).sum()
    }

    /// The sub-matrix of the given columns, in the given order, over every row.
    pub(crate) fn select(&self, cols: &[usize]) -> Columns<S> {
        Columns { cols: cols.iter().map(|&j| self.cols[j].clone()).collect(), rows: self.rows }
    }

    /// The entrywise image under `f`; entries that map to exact zero are dropped.
    pub(crate) fn map<T: Scalar>(&self, f: impl Fn(&S) -> T) -> Columns<T> {
        let cols = self
            .cols
            .iter()
            .map(|col| {
                col.iter()
                    .map(|(row, value)| (*row, f(value)))
                    .filter(|(_, value)| !value.is_exactly_zero())
                    .collect()
            })
            .collect();
        Columns { cols, rows: self.rows }
    }

    pub(crate) fn scatter(&self, col: usize, out: &mut [S]) {
        for value in out.iter_mut() {
            *value = S::zero();
        }
        if col < self.cols.len() {
            for (row, value) in &self.cols[col] {
                out[*row] = value.clone();
            }
        } else {
            out[col - self.cols.len()] = S::one();
        }
    }

    /// Sparse dot product of a dense row vector with a column.
    pub(crate) fn dot(&self, y: &[S], col: usize) -> S {
        if col < self.cols.len() {
            let mut acc = S::zero();
            for (row, value) in &self.cols[col] {
                if !y[*row].is_exactly_zero() {
                    acc = acc.add(&y[*row].mul(value));
                }
            }
            acc
        } else {
            y[col - self.cols.len()].clone()
        }
    }
}

/// The eta-file basis factorization.
pub(crate) struct Factorization<S> {
    etas: Vec<Eta<S>>,
    /// Basic column per row position.
    pub(crate) basis: Vec<usize>,
    /// Row → eta index: `row_etas[i]` lists, in ascending order, the etas whose pivot
    /// or off-pivot entries sit on row `i`. It is what lets [`Factorization::btran_unit`]
    /// visit only the etas a sparse input can reach; every append goes through
    /// [`Factorization::push`], which keeps it in step with `etas`. Only exact files
    /// carry it: on the many small `f64` solves of invariant analysis, building it
    /// cost more than it could save.
    row_etas: Vec<Vec<u32>>,
}

impl<S: Scalar> Factorization<S> {
    /// An empty eta file (`B⁻¹ = I`) over the given row assignment.
    pub(crate) fn new(basis: Vec<usize>) -> Factorization<S> {
        let row_etas = if S::IS_EXACT { vec![Vec::new(); basis.len()] } else { Vec::new() };
        Factorization { etas: Vec::new(), basis, row_etas }
    }

    /// Number of etas in the file.
    pub(crate) fn len(&self) -> usize {
        self.etas.len()
    }

    /// The most recently appended eta.
    pub(crate) fn last(&self) -> Option<&Eta<S>> {
        self.etas.last()
    }

    /// Appends one eta and, for exact scalars, indexes its rows.
    pub(crate) fn push(&mut self, eta: Eta<S>) {
        if S::IS_EXACT {
            // An eta file never nears 2^32 etas (each holds at least its pivot value).
            let index = self.etas.len() as u32;
            self.row_etas[eta.pivot].push(index);
            for (row, _) in &eta.others {
                self.row_etas[*row].push(index);
            }
        }
        self.etas.push(eta);
    }

    /// `x := B⁻¹ x` (forward transformation).
    pub(crate) fn ftran(&self, x: &mut [S]) {
        for eta in &self.etas {
            if x[eta.pivot].is_exactly_zero() {
                continue;
            }
            let t = x[eta.pivot].div(&eta.pivot_value);
            x[eta.pivot] = t.clone();
            for (row, value) in &eta.others {
                x[*row] = x[*row].sub(&value.mul(&t));
            }
        }
    }

    /// `y := y B⁻¹` (backward transformation, applied to a row vector).
    ///
    /// This is the pass for dense inputs such as `c_B`; unit vectors go through
    /// [`Factorization::btran_unit`], which skips the etas they cannot reach.
    pub(crate) fn btran(&self, y: &mut [S]) {
        for eta in self.etas.iter().rev() {
            eta.btran_step(y);
        }
    }

    /// `e_r B⁻¹` (row `r` of the basis inverse): [`Factorization::btran`] of a unit
    /// vector, visiting only the etas its non-zero pattern reaches.
    ///
    /// An eta changes `y` only when one of its rows is non-zero, and a row turns
    /// non-zero only at an eta that pivots on it. So the pass starts from row `r`,
    /// marks the etas on that row, and whenever a marked eta makes its pivot row
    /// non-zero, marks the earlier etas on that row too. Marked etas run in
    /// descending order through the dense pass's own step; the unmarked ones would
    /// have left `y` untouched, so the result is identical.
    pub(crate) fn btran_unit(&self, r: usize) -> Vec<S> {
        let mut y = vec![S::zero(); self.basis.len()];
        y[r] = S::one();
        if !S::IS_EXACT {
            // No row index (see `row_etas`): take the dense pass.
            self.btran(&mut y);
            return y;
        }
        let mut reached = vec![false; self.etas.len()];
        let mut active = vec![false; self.basis.len()];
        let mark = |reached: &mut [bool], row: usize, below: usize| {
            for &k in &self.row_etas[row] {
                let k = k as usize;
                if k >= below {
                    break;
                }
                reached[k] = true;
            }
        };
        active[r] = true;
        mark(&mut reached, r, self.etas.len());
        for k in (0..self.etas.len()).rev() {
            if !reached[k] {
                continue;
            }
            let eta = &self.etas[k];
            eta.btran_step(&mut y);
            if !active[eta.pivot] && !y[eta.pivot].is_exactly_zero() {
                active[eta.pivot] = true;
                mark(&mut reached, eta.pivot, k);
            }
        }
        y
    }

    /// Total *weighted* size of the eta file (pivot entries included): non-zeros
    /// for fixed-width scalars, bit-length-scaled for rationals. This is the
    /// quantity every FTRAN/BTRAN traverses, i.e. the incremental-update cost the
    /// exact reinversion policy monitors.
    pub(crate) fn eta_nnz(&self) -> usize {
        self.etas.iter().map(Eta::weight).sum()
    }

    /// Appends the eta for pivoting column data `d = B⁻¹ A_q` on row `pivot`.
    pub(crate) fn push_eta(&mut self, d: &[S], pivot: usize) {
        let mut others = Vec::new();
        for (row, value) in d.iter().enumerate() {
            if row == pivot || value.is_exactly_zero() {
                continue;
            }
            if !S::IS_EXACT && value.to_f64().abs() < DROP_EPS {
                continue;
            }
            others.push((row, value.clone()));
        }
        self.push(Eta { pivot, pivot_value: d[pivot].clone(), others });
    }

    /// Rebuilds the eta file from scratch for a preferred column order.
    ///
    /// Columns are processed in the given order; each is transformed through the etas
    /// accumulated so far and pivots on the still-unassigned row where it is largest
    /// — columns whose best available pivot is below `min_pivot` (they are dependent,
    /// or near-dependent, on the ones already processed) are skipped. Rows left
    /// unassigned afterwards are covered by artificial columns, so the routine always
    /// produces a complete basis. Returns the rows that fell back to artificials and
    /// the element-growth factor of the rebuild (max transformed magnitude observed);
    /// callers treat excessive growth as a sign the preferred basis is too
    /// ill-conditioned to factorize at this tolerance and retry stricter.
    fn reinvert(
        columns: &Columns<S>,
        preferred: &[usize],
        min_pivot: f64,
    ) -> (Factorization<S>, Vec<usize>, f64) {
        let m = columns.rows;
        let n = columns.cols.len();
        let mut factor = Factorization::new(vec![usize::MAX; m]);
        let mut assigned = vec![false; m];
        let mut work = vec![S::zero(); m];
        let mut placed = vec![false; n + m];
        let mut growth = 0.0f64;
        let accept = |factor: &mut Factorization<S>,
                          assigned: &mut Vec<bool>,
                          growth: &mut f64,
                          work: &[S],
                          col: usize,
                          floor: f64|
         -> bool {
            let mut best: Option<usize> = None;
            for (row, value) in work.iter().enumerate() {
                if assigned[row] || value.is_exactly_zero() {
                    continue;
                }
                if !S::IS_EXACT {
                    let magnitude = value.to_f64().abs();
                    if magnitude > *growth {
                        *growth = magnitude;
                    }
                }
                let better = match best {
                    None => true,
                    Some(b) => abs(&work[b]).lt(&abs(value)),
                };
                if better {
                    best = Some(row);
                }
            }
            let Some(row) = best else { return false };
            if !S::IS_EXACT && work[row].to_f64().abs() < floor {
                return false;
            }
            factor.push_eta(work, row);
            factor.basis[row] = col;
            assigned[row] = true;
            true
        };
        for &col in preferred {
            if col >= n + m || placed[col] {
                continue;
            }
            columns.scatter(col, &mut work);
            factor.ftran(&mut work);
            if accept(&mut factor, &mut assigned, &mut growth, &work, col, min_pivot) {
                placed[col] = true;
            }
        }
        // Cover the remaining rows with artificial columns. Each artificial goes
        // through the same transform-and-pivot acceptance as a regular column (its
        // best pivot row is not necessarily its own row once etas are in play). The
        // first sweep respects the pivot floor; the second drops it, because a
        // complete factorization — even a poorly conditioned one — beats an
        // incomplete basis, and the growth report tells the caller to distrust it.
        let mut fallback = Vec::new();
        for floor in [min_pivot, 0.0] {
            if !assigned.iter().any(|&a| !a) {
                break;
            }
            for row in 0..m {
                if assigned.iter().all(|&a| a) {
                    break;
                }
                let col = n + row;
                if placed[col] {
                    continue;
                }
                columns.scatter(col, &mut work);
                factor.ftran(&mut work);
                if accept(&mut factor, &mut assigned, &mut growth, &work, col, floor) {
                    placed[col] = true;
                    fallback.push(row);
                }
            }
        }
        (factor, fallback, growth)
    }
}

/// Builds a basis factorization for a preferred column set, choosing the strategy by
/// backend: the exact backend uses the Markowitz-ordered sparse LU (fill-in is the
/// entire cost of rational arithmetic — a fill-oblivious rebuild is what used to make
/// warm-started exact solves *slower* than cold ones), while `f64` keeps the
/// magnitude-pivoted reinversion (numerical stability is what matters there).
fn build_factorization<S: Scalar>(
    columns: &Columns<S>,
    preferred: &[usize],
    min_pivot: f64,
) -> (Factorization<S>, Vec<usize>, f64) {
    if S::IS_EXACT {
        let lu = crate::lu::factorize_markowitz(columns, preferred);
        (lu.factor, lu.artificial_rows, 0.0)
    } else {
        Factorization::reinvert(columns, preferred, min_pivot)
    }
}

/// The result of a revised-simplex run.
pub(crate) struct RevisedOutcome<S> {
    pub status: LpStatus,
    /// Values of the structural columns (empty unless `Optimal`).
    pub values: Vec<S>,
    /// Basic structural columns at termination (artificials excluded); meaningful for
    /// any terminal status — an infeasible run's final basis still warm-starts the
    /// next, larger problem.
    pub basis: Vec<usize>,
    /// Simplex iterations across both phases.
    pub iterations: usize,
    /// `true` when the deadline expired during phase 2 and `values` is the last
    /// feasible iterate rather than the proven optimum (an *anytime* answer: every
    /// phase-2 vertex satisfies all original constraints, so the objective value is a
    /// sound — merely loose — bound).
    pub truncated: bool,
    /// Exact pivots absorbed as incremental rank-1 eta updates of the rational
    /// factorization (exact backend only; the `f64` backend reports 0 so the
    /// telemetry attributes incremental-update work unambiguously).
    pub lu_updates: usize,
    /// Full Markowitz refactorizations performed mid-run by the exact backend
    /// (exact backend only, for the same attribution reason).
    pub lu_refactorizations: usize,
    /// The terminal dual `y = c_B B⁻¹` of a proven exact optimum (exact backend,
    /// non-truncated `Optimal` only): computed with one BTRAN over the final
    /// factorization, with artificial basis positions priced at cost zero.
    pub dual: Option<Vec<S>>,
}

/// Solves a standard-form problem (`min c·y`, `Ay = b`, `y ≥ 0`, `b ≥ 0`) with the
/// two-phase revised simplex.
///
/// `warm` seeds the initial basis with preferred structural columns (see
/// [`Factorization::reinvert`]); `phase1_noise_floor` is the `f64` backend's tolerance
/// for accepting a slightly-positive phase-1 optimum as feasible (the caller accounts
/// for deliberate right-hand-side perturbations there).
#[cfg(test)]
pub(crate) fn solve_revised<S: Scalar>(
    form: &StandardForm<S>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
    phase1_noise_floor: f64,
) -> RevisedOutcome<S> {
    solve_revised_capped(form, deadline, warm, phase1_noise_floor, None)
}

/// Like [`solve_revised`], with an optional externally-imposed pivot cap per phase.
///
/// The float-first driver's exact *repair* rounds use the cap to bound how long a
/// single round may pivot before its basis is re-certified; a capped run that stops
/// early reports [`LpStatus::IterationLimit`] with its final basis intact, which the
/// next round resumes from.
pub(crate) fn solve_revised_capped<S: Scalar>(
    form: &StandardForm<S>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
    phase1_noise_floor: f64,
    iter_cap: Option<usize>,
) -> RevisedOutcome<S> {
    let m = form.columns.rows;
    let n = form.costs.len();

    let mut state = State::new(form, warm);
    let max_iters = iter_cap.unwrap_or(200 * (m + n) + 2000);
    let debug = std::env::var("DCA_LP_DEBUG").is_ok();

    // Phase 1: minimize the sum of the artificial values.
    let needs_phase1 = state
        .factor
        .basis
        .iter()
        .zip(&state.x_basic)
        .any(|(&col, value)| col >= n && value.is_positive());
    if needs_phase1 {
        let phase1_start = Instant::now();
        let status = state.optimize(Phase::One, max_iters, deadline);
        if debug {
            eprintln!(
                "[lp] revised phase1: {:?} in {:.2}s ({} rows, {} cols, {} iters)",
                status,
                phase1_start.elapsed().as_secs_f64(),
                m,
                n,
                state.iterations
            );
        }
        match status {
            LpStatus::Optimal => {}
            // Phase 1's objective is bounded below by zero, so an `Unbounded` verdict
            // can only be numerical noise; report non-convergence instead of letting a
            // bogus verdict masquerade as a definitive answer (the dense predecessor
            // fell through to the infeasibility check here, which is exactly how the
            // `SimpleSingle2` run burned 80 s and then reported a wrong verdict).
            LpStatus::Unbounded => {
                return state.outcome(LpStatus::IterationLimit, n);
            }
            other => return state.outcome(other, n),
        }
        let infeasibility: f64 = state
            .factor
            .basis
            .iter()
            .zip(&state.x_basic)
            .filter(|(&col, _)| col >= n)
            .map(|(_, value)| value.to_f64().max(0.0))
            .sum();
        let infeasible = if S::IS_EXACT {
            infeasibility > 0.0
        } else {
            infeasibility > phase1_noise_floor
        };
        if infeasible {
            if debug {
                eprintln!("[lp] revised phase1 positive: {infeasibility:e} (floor {phase1_noise_floor:e})");
            }
            return state.outcome(LpStatus::Infeasible, n);
        }
    }

    // Phase 2: original costs; artificials stay out of the entering pool.
    let phase2_start = Instant::now();
    let mut status = state.optimize(Phase::Two, max_iters, deadline);
    // Anytime semantics: a deadline hit during phase 2 leaves a primal-feasible
    // vertex in hand — phase 2 never leaves the feasible region — whose objective is
    // a sound upper bound on the optimum. Returning it (marked `truncated`) beats
    // discarding the whole solve as a timeout; the caller's feasibility re-check
    // still validates the solution against the original constraints.
    let mut truncated = false;
    let anytime_feasible = if S::IS_EXACT {
        // Exact iterates are exactly feasible by construction.
        !state.x_basic.iter().any(Scalar::is_negative)
    } else {
        !state.x_basic.iter().any(|v| v.to_f64() < -1e-6)
    };
    if status == LpStatus::TimedOut && anytime_feasible {
        status = LpStatus::Optimal;
        truncated = true;
        for value in &mut state.x_basic {
            if value.is_negative() {
                *value = S::zero();
            }
        }
    }
    if status == LpStatus::Optimal {
        // A basic artificial can drift away from zero during phase-2 pivots (its
        // phase-2 cost is zero, so nothing prices it back down); a solution with a
        // materially non-zero artificial does not satisfy the *original* equalities,
        // so it must not be reported as an optimum.
        let residual: f64 = state
            .factor
            .basis
            .iter()
            .zip(&state.x_basic)
            .filter(|(&col, _)| col >= n)
            .map(|(_, value)| value.to_f64().abs())
            .sum();
        if residual > phase1_noise_floor.max(1e-7) {
            status = LpStatus::IterationLimit;
        }
    }
    if debug {
        eprintln!(
            "[lp] revised phase2: {:?}{} in {:.2}s ({} iters total, {} eta updates, \
             {} refactorizations, {} sweeps, {} queue-served, {} degenerate; \
             btran {:.2}s, ftran {:.2}s, reinvert {:.2}s, sweep {:.2}s)",
            status,
            if truncated { " (anytime-truncated)" } else { "" },
            phase2_start.elapsed().as_secs_f64(),
            state.iterations,
            state.lu_updates,
            state.lu_refactorizations,
            state.pricing_sweeps,
            state.queue_served,
            state.degenerate_pivots,
            state.btran_time.as_secs_f64(),
            state.ftran_time.as_secs_f64(),
            state.reinvert_time.as_secs_f64(),
            state.sweep_time.as_secs_f64()
        );
    }
    let mut outcome = state.outcome(status, n);
    outcome.truncated = truncated;
    // A proven exact optimum carries its dual out: the row-generation driver prices
    // excluded columns against it directly, skipping a Markowitz re-derivation that
    // could land on a different (uncertifiable) padding of a degenerate basis.
    if S::IS_EXACT && status == LpStatus::Optimal && !truncated {
        let mut y = vec![S::zero(); m];
        for (pos, value) in y.iter_mut().enumerate() {
            let col = state.factor.basis[pos];
            if col < n {
                *value = form.costs[col].clone();
            }
        }
        state.factor.btran(&mut y);
        outcome.dual = Some(y);
    }
    outcome
}

enum Phase {
    One,
    Two,
}

struct State<'a, S> {
    columns: &'a Columns<S>,
    form: &'a StandardForm<S>,
    factor: Factorization<S>,
    /// Values of the basic variables, by row position.
    x_basic: Vec<S>,
    in_basis: Vec<bool>,
    iterations: usize,
    etas_since_reinvert: usize,
    /// Weighted eta-file size appended since the last rebuild (non-zeros scaled by
    /// rational bit length, see [`Eta::weight`]) — the incremental cost the exact
    /// reinversion policy weighs against `base_fill`.
    eta_nnz_since_reinvert: usize,
    /// Weighted eta-file size right after the last rebuild (the Markowitz fill of
    /// the basis itself), the baseline the growth policy compares against.
    base_fill: usize,
    /// Exact pivots absorbed as eta updates (see [`RevisedOutcome::lu_updates`]).
    lu_updates: usize,
    /// Mid-run full refactorizations (see [`RevisedOutcome::lu_refactorizations`]).
    lu_refactorizations: usize,
    /// Full pricing sweeps over all columns (exact backend; each is `O(n · nnz)` in
    /// rational arithmetic — the dominant per-pivot cost when the candidate queue
    /// starves on degenerate streaks).
    pricing_sweeps: usize,
    /// Pivots whose entering column came straight from the candidate queue.
    queue_served: usize,
    /// Zero-step (degenerate) pivots.
    degenerate_pivots: usize,
    /// Exact backend: time in the per-pivot pricing BTRAN (`y = c_B B⁻¹`).
    btran_time: std::time::Duration,
    /// Time in the per-pivot FTRAN of the entering column (`d = B⁻¹ A_q`).
    ftran_time: std::time::Duration,
    /// Exact backend: time in mid-run Markowitz refactorizations.
    reinvert_time: std::time::Duration,
    /// Exact backend: time in pricing sweeps (prescreen + exact verification).
    sweep_time: std::time::Duration,
    /// `true` when the last reinversion had to replace a (near-)dependent basis
    /// column with an artificial — the factorization then describes a *different*
    /// basis than the pivot sequence built, so verdicts are suspect.
    degraded: bool,
}

impl<'a, S: Scalar> State<'a, S> {
    fn new(form: &'a StandardForm<S>, warm: Option<&[usize]>) -> Self {
        let columns = &form.columns;
        let m = columns.rows;
        let n = columns.cols.len();
        let build = |preferred: &[usize]| -> (Factorization<S>, Vec<S>) {
            let (factor, _, _) = build_factorization(columns, preferred, PIVOT_EPS);
            let mut x = form.rhs.clone();
            factor.ftran(&mut x);
            (factor, x)
        };
        let (factor, x_basic) = match warm {
            Some(preferred) if !preferred.is_empty() => {
                let (factor, x) = build(preferred);
                // A crash basis is only usable if it is primal feasible; otherwise the
                // all-artificial start (trivially feasible, since b ≥ 0) is safer than
                // running a composite phase 1.
                if x.iter().any(Scalar::is_negative) {
                    build(&[])
                } else {
                    (factor, x)
                }
            }
            _ => build(&[]),
        };
        let mut in_basis = vec![false; n + m];
        for &col in &factor.basis {
            in_basis[col] = true;
        }
        let base_fill = factor.eta_nnz();
        State {
            columns,
            form,
            factor,
            x_basic,
            in_basis,
            iterations: 0,
            etas_since_reinvert: 0,
            eta_nnz_since_reinvert: 0,
            base_fill,
            lu_updates: 0,
            lu_refactorizations: 0,
            pricing_sweeps: 0,
            queue_served: 0,
            degenerate_pivots: 0,
            btran_time: std::time::Duration::ZERO,
            ftran_time: std::time::Duration::ZERO,
            reinvert_time: std::time::Duration::ZERO,
            sweep_time: std::time::Duration::ZERO,
            degraded: false,
        }
    }

    fn cost(&self, phase: &Phase, col: usize) -> S {
        let n = self.columns.cols.len();
        match phase {
            Phase::One => {
                if col >= n {
                    S::one()
                } else {
                    S::zero()
                }
            }
            Phase::Two => {
                if col >= n {
                    S::zero()
                } else {
                    self.form.costs[col].clone()
                }
            }
        }
    }

    /// Rebuilds the factorization for the current basis and refreshes `x_basic`.
    ///
    /// When the rebuild shows excessive element growth — the tell-tale of a
    /// near-singular basis, whose factorization would poison every subsequent
    /// FTRAN/BTRAN with astronomically scaled entries — it is retried with a much
    /// stricter pivot-acceptance threshold: the near-dependent columns drop out,
    /// artificials take their rows, and the simplex re-drives them out along a
    /// better-conditioned path.
    fn reinvert(&mut self) {
        const GROWTH_LIMIT: f64 = 1e8;
        let preferred = self.factor.basis.clone();
        let (mut factor, mut fallback, growth) =
            build_factorization(self.columns, &preferred, PIVOT_EPS);
        if !S::IS_EXACT && growth > GROWTH_LIMIT {
            if std::env::var("DCA_LP_DEBUG").is_ok() {
                eprintln!("[lp] reinvert growth {growth:e}; retrying with strict pivots");
            }
            let strict = Factorization::reinvert(self.columns, &preferred, 1e-4);
            factor = strict.0;
            fallback = strict.1;
        }
        let n = self.columns.cols.len();
        self.factor = factor;
        self.in_basis = vec![false; n + self.columns.rows];
        for &col in &self.factor.basis {
            self.in_basis[col] = true;
        }
        if !fallback.is_empty() && std::env::var("DCA_LP_DEBUG").is_ok() {
            eprintln!("[lp] reinvert degraded: {} rows fell back to artificials", fallback.len());
        }
        self.degraded = !fallback.is_empty();
        self.x_basic = self.form.rhs.clone();
        self.factor.ftran(&mut self.x_basic);
        self.etas_since_reinvert = 0;
        self.eta_nnz_since_reinvert = 0;
        self.base_fill = self.factor.eta_nnz();
        if S::IS_EXACT {
            self.lu_refactorizations += 1;
        }
    }

    fn optimize(&mut self, phase: Phase, max_iters: usize, deadline: &Deadline) -> LpStatus {
        const DEADLINE_EVERY: usize = 64;
        /// How many verdict-time reinversion-and-recheck passes are allowed before a
        /// floating-point verdict is accepted as-is.
        const MAX_CONFIRMS: usize = 3;
        let m = self.columns.rows;
        let n = self.columns.cols.len();
        let bland_after = max_iters / 2;
        let mut confirms = 0usize;
        // Degeneracy throttle: after a long run of zero-step pivots, Dantzig pricing
        // is just orbiting a degenerate vertex; switching to Bland's rule (first
        // improving column, guaranteed finite) breaks the orbit, and the first real
        // step switches back to the faster rule.
        let mut consecutive_degenerate = 0usize;
        const BLAND_AFTER_DEGENERATE: usize = 64;
        // Phase-2 endgame: once the coarse pricing tolerance is exhausted on a fresh
        // factorization, sweep again with the fine tolerance (see the constants).
        let mut fine_pricing = false;
        // Devex reference weights (f64 pricing only): entering is chosen by the
        // steepest-edge surrogate r_j² / w_j instead of the raw most-negative reduced
        // cost. On the heavily degenerate Handelman systems Dantzig orbits a vertex
        // for tens of thousands of zero-step pivots (observed >200k on the degree-3
        // `nested` LP); Devex cuts that by an order of magnitude at the price of one
        // extra BTRAN and one column sweep per pivot.
        let mut weights = vec![1.0f64; n];
        // Columns whose transformed direction had no numerically usable pivot; they
        // sit out until the next reinversion gives them a cleaner transform. A
        // verdict reached while bans are active is only accepted after a bounded
        // number of clear-and-retry rounds, so bans never silently hide columns from
        // the final optimality proof.
        let mut banned = vec![false; n];
        let mut ban_active = false;
        let mut ban_resets = 0usize;
        const MAX_BAN_RESETS: usize = 8;
        // Exact-backend candidate queue: one full Bland sweep is `O(n · nnz)` in
        // rational arithmetic and dominates the per-pivot cost on the big Handelman
        // systems, so a sweep banks the next [`EXACT_QUEUE`] improving columns (in
        // index order). Later pivots pop candidates and *re-verify their reduced
        // cost exactly* before entering — a stale candidate is just skipped, and the
        // optimality verdict is still only ever declared by a full sweep that found
        // nothing. During a degenerate streak the queue is cleared every iteration,
        // which restores textbook lowest-index Bland and its anti-cycling guarantee.
        const EXACT_QUEUE: usize = 32;
        let mut exact_candidates: std::collections::VecDeque<usize> =
            std::collections::VecDeque::new();
        // Rigorous `f64` prescreen for the exact sweep. On the heavily degenerate
        // Handelman systems ~97% of exact pivots run during degenerate streaks where
        // the queue is cleared every iteration, so nearly every pivot pays a full
        // O(n · nnz) *rational* pricing sweep. The prescreen computes each reduced
        // cost in `f64` against cached `f64` column copies TOGETHER with a forward
        // error bound (`PRESCREEN_EPS` × the accumulated magnitude sum): a column is
        // skipped only when its reduced cost is *provably* positive — the true
        // rounding error is ≤ ~3·nnz·2⁻⁵² × the magnitude sum, orders of magnitude
        // below the threshold — so Bland's lowest-index order and the optimality
        // verdict remain exact. Overflow/NaN (huge rationals) fails `is_finite` and
        // falls through to the exact dot product, never to a wrong skip.
        const PRESCREEN_EPS: f64 = 1e-9;
        let (cols64, costs64): (Vec<Vec<(usize, f64)>>, Vec<f64>) = if S::IS_EXACT {
            (
                self.columns
                    .cols
                    .iter()
                    .map(|col| col.iter().map(|(row, v)| (*row, v.to_f64())).collect())
                    .collect(),
                (0..n).map(|j| self.cost(&phase, j).to_f64()).collect(),
            )
        } else {
            (Vec::new(), Vec::new())
        };
        let mut y64 = vec![0.0f64; m];
        let mut y = vec![S::zero(); m];
        // Exact backend: `y` is maintained *incrementally* across pivots (see the
        // update at the pivot step) and only recomputed from a dense `c_B` BTRAN
        // when this flag is down — at phase start and after a refactorization. The
        // `f64` backend recomputes every iteration (the fresh BTRAN is its defense
        // against reduced-cost drift; exact arithmetic has none to defend against).
        let mut y_valid = false;
        // Reduced-cost memoization (exact backend). A pivot's dual update touches
        // only the rows where ρ_r is non-zero, so a column whose support none of
        // those rows intersect has an *unchanged* reduced cost — re-deriving it
        // every sweep is pure waste on the long degenerate streaks. `changed_at`
        // stamps each dual row with the tick of its last change; `r_cache[j]`
        // holds the verdict computed at some tick (`None` = proven non-negative,
        // `Some(r)` = exact negative reduced cost) and is trusted while no row in
        // the column's support carries a newer stamp. Exactness makes this sound:
        // a cached verdict is bit-for-bit what a fresh dot product would produce,
        // so Bland's order and the optimality proof are unchanged.
        let mut tick: u64 = 0;
        let mut changed_at = vec![0u64; m];
        let mut r_cache: Vec<(u64, Option<S>)> =
            if S::IS_EXACT { vec![(0, None); n] } else { Vec::new() };
        for iteration in 0..max_iters {
            if (S::IS_EXACT || iteration % DEADLINE_EVERY == 0) && deadline.expired() {
                return LpStatus::TimedOut;
            }
            // `f64` rebuilds on a short fixed cadence (round-off control); the exact
            // backend rebuilds only when the eta file's fill outgrows the basis fill
            // (see `lu::should_refactorize`) — eta updates are exact, so the rebuild
            // is purely a cost decision.
            let wants_reinvert = if S::IS_EXACT {
                crate::lu::should_refactorize(
                    self.etas_since_reinvert,
                    self.eta_nnz_since_reinvert,
                    self.base_fill,
                    m,
                )
            } else {
                self.etas_since_reinvert >= REINVERT_EVERY
            };
            if wants_reinvert {
                let reinvert_start = Instant::now();
                self.reinvert();
                self.reinvert_time += reinvert_start.elapsed();
                banned.iter_mut().for_each(|b| *b = false);
                ban_active = false;
                // The dual `y = c_B B⁻¹` depends only on the basis, which a rebuild
                // preserves — but a rebuild may *degrade* (swap a dependent column
                // for an artificial), and a fresh short factorization re-derives the
                // same values through far fewer etas, so recompute either way.
                y_valid = false;
            }
            // Pricing dual: y = c_B B⁻¹, r_j = c_j − y · A_j. Recomputed from a
            // dense BTRAN when stale (f64: every iteration; exact: see `y_valid`).
            if !S::IS_EXACT || !y_valid {
                let btran_start = Instant::now();
                for (pos, value) in y.iter_mut().enumerate() {
                    *value = self.cost(&phase, self.factor.basis[pos]);
                }
                self.factor.btran(&mut y);
                self.btran_time += btran_start.elapsed();
                y_valid = true;
                if S::IS_EXACT {
                    // Every row is considered touched: the rebuild may have degraded
                    // the basis, so no cached verdict survives a full recompute.
                    tick += 1;
                    changed_at.fill(tick);
                    for (value, exact) in y64.iter_mut().zip(&y) {
                        *value = exact.to_f64();
                    }
                }
            }
            // Entering rule. The exact backend stays on Bland's rule (low-index
            // first): it is termination-safe, and the greedier alternatives were
            // *measured worse* on the degree-3 `nested` system — full Dantzig and
            // Dantzig-over-a-64-column-window both walk pivot sequences whose exact
            // coefficients grow enough to miss the deadline where Bland's low-index
            // bias completes the proof. The sweep cost is amortized through the
            // candidate queue above. The f64 backend prices with Devex from a full
            // sweep and falls back to Bland on degeneracy.
            let use_bland = S::IS_EXACT
                || iteration >= bland_after
                || consecutive_degenerate >= BLAND_AFTER_DEGENERATE;
            let mut entering: Option<(usize, f64)> = None;
            // Exact backend: the entering column's *exact* reduced cost, recorded at
            // pricing time — the incremental dual update at the pivot step needs it
            // (γ = d̄_q / α_r) and re-deriving it would cost another exact dot.
            let mut entering_reduced: Option<S> = None;
            if S::IS_EXACT {
                if consecutive_degenerate >= BLAND_AFTER_DEGENERATE {
                    // Zero-step streak: drop the stale queue and run textbook Bland.
                    exact_candidates.clear();
                }
                while let Some(j) = exact_candidates.pop_front() {
                    if self.in_basis[j] {
                        continue;
                    }
                    let reduced = self.cost(&phase, j).sub(&self.columns.dot(&y, j));
                    let negative = reduced.is_negative();
                    r_cache[j] = (tick, if negative { Some(reduced.clone()) } else { None });
                    if negative {
                        entering = Some((j, reduced.to_f64()));
                        entering_reduced = Some(reduced);
                        self.queue_served += 1;
                        break;
                    }
                }
            }
            if entering.is_none() {
                let sweep_start = Instant::now();
                if S::IS_EXACT {
                    self.pricing_sweeps += 1;
                }
                let mut queued = 0usize;
                for j in 0..n {
                    if self.in_basis[j] || banned[j] {
                        continue;
                    }
                    let reduced;
                    if S::IS_EXACT {
                        // Memoized verdict first: trusted while no dual row in the
                        // column's support changed since it was computed.
                        let stamp = r_cache[j].0;
                        let cached_fresh = stamp != 0
                            && self.columns.cols[j]
                                .iter()
                                .all(|(row, _)| changed_at[*row] <= stamp);
                        if cached_fresh {
                            match &r_cache[j].1 {
                                None => continue,
                                Some(r) => reduced = r.clone(),
                            }
                        } else {
                            // Provably-positive reduced costs are skipped without
                            // any rational arithmetic (see PRESCREEN_EPS above).
                            let mut r64 = costs64[j];
                            let mut mag = r64.abs();
                            for &(row, v) in &cols64[j] {
                                let term = y64[row] * v;
                                r64 -= term;
                                mag += term.abs();
                            }
                            if r64.is_finite() && mag.is_finite() && r64 > PRESCREEN_EPS * mag {
                                r_cache[j] = (tick, None);
                                continue;
                            }
                            let exact = self.cost(&phase, j).sub(&self.columns.dot(&y, j));
                            let negative = exact.is_negative();
                            r_cache[j] =
                                (tick, if negative { Some(exact.clone()) } else { None });
                            if !negative {
                                continue;
                            }
                            reduced = exact;
                        }
                    } else {
                        reduced = self.cost(&phase, j).sub(&self.columns.dot(&y, j));
                        let improving = if fine_pricing {
                            reduced.to_f64() < -FINE_PRICING_EPS
                        } else {
                            reduced.to_f64() < -COARSE_PRICING_EPS
                        };
                        if !improving {
                            continue;
                        }
                    }
                    if use_bland {
                        if entering.is_none() {
                            entering = Some((j, reduced.to_f64()));
                            if !S::IS_EXACT {
                                break;
                            }
                            entering_reduced = Some(reduced);
                            continue;
                        }
                        // Exact backend: bank the following improving columns.
                        exact_candidates.push_back(j);
                        queued += 1;
                        if queued >= EXACT_QUEUE {
                            break;
                        }
                        continue;
                    }
                    // Devex score: r_j² / w_j (bigger is better).
                    let r = reduced.to_f64();
                    let score = r * r / weights[j];
                    match &entering {
                        None => entering = Some((j, score)),
                        Some((_, best)) if score > *best => entering = Some((j, score)),
                        Some(_) => {}
                    }
                }
                self.sweep_time += sweep_start.elapsed();
            }
            let Some((entering, _)) = entering else {
                // Apparent optimality. For the floating-point backend, confirm on a
                // freshly reinverted factorization before trusting the verdict.
                if !S::IS_EXACT && self.etas_since_reinvert > 0 && confirms < MAX_CONFIRMS {
                    confirms += 1;
                    self.reinvert();
                    banned.iter_mut().for_each(|b| *b = false);
                    ban_active = false;
                    continue;
                }
                if !S::IS_EXACT && ban_active {
                    // "No improving column" while columns are banned is not a proof.
                    // Clear the bans (the factorization is fresh here, so their
                    // transforms are clean again) and re-price; give up honestly if
                    // the ban cycle will not die down.
                    if ban_resets < MAX_BAN_RESETS {
                        ban_resets += 1;
                        banned.iter_mut().for_each(|b| *b = false);
                        ban_active = false;
                        continue;
                    }
                    return LpStatus::IterationLimit;
                }
                if !S::IS_EXACT && !fine_pricing && matches!(phase, Phase::Two) {
                    // Coarse tolerance exhausted on fresh data: run the fine endgame
                    // sweep before declaring the optimum.
                    fine_pricing = true;
                    continue;
                }
                if !S::IS_EXACT {
                    // Round-off nudges basic values slightly negative over tens of
                    // thousands of pivots; on a freshly reinverted factorization a
                    // residual at the 1e-6 scale (equilibrated data) is numerical
                    // dust, not infeasibility — clamp it and accept. Anything larger
                    // means the basis cannot be trusted: report non-convergence so
                    // the caller can fall back (perturbed retry, dense path, exact
                    // backend). The model-level `solve_f64` re-checks the recovered
                    // solution against the *original* constraints either way, so an
                    // over-eager clamp cannot smuggle in an unsound optimum.
                    const FEAS_EPS: f64 = 1e-6;
                    if self.x_basic.iter().any(|v| v.to_f64() < -FEAS_EPS) {
                        if std::env::var("DCA_LP_DEBUG").is_ok() {
                            let min = self
                                .x_basic
                                .iter()
                                .map(Scalar::to_f64)
                                .fold(f64::INFINITY, f64::min);
                            eprintln!(
                                "[lp] revised: basis infeasible at optimum (min x = {min:e}), giving up"
                            );
                        }
                        return LpStatus::IterationLimit;
                    }
                    for value in &mut self.x_basic {
                        if value.is_negative() {
                            *value = S::zero();
                        }
                    }
                }
                if std::env::var("DCA_LP_CHECK").is_ok() {
                    // Independent consistency audit of the claimed optimum: check
                    // B·x_B = b directly against the column data (no eta file).
                    let mut residual = vec![S::zero(); m];
                    for (pos, &col) in self.factor.basis.iter().enumerate() {
                        if self.x_basic[pos].is_exactly_zero() {
                            continue;
                        }
                        if col < n {
                            for (row, value) in &self.columns.cols[col] {
                                residual[*row] =
                                    residual[*row].add(&value.mul(&self.x_basic[pos]));
                            }
                        } else {
                            residual[col - n] =
                                residual[col - n].add(&self.x_basic[pos]);
                        }
                    }
                    let max_residual = residual
                        .iter()
                        .zip(&self.form.rhs)
                        .map(|(lhs, rhs)| (lhs.to_f64() - rhs.to_f64()).abs())
                        .fold(0.0f64, f64::max);
                    let min_reduced = (0..n)
                        .filter(|&j| !self.in_basis[j])
                        .map(|j| self.cost(&phase, j).sub(&self.columns.dot(&y, j)).to_f64())
                        .fold(f64::INFINITY, f64::min);
                    // Exact backend: the verdict was priced against the
                    // *incrementally maintained* dual — audit it against a fresh
                    // dense BTRAN of c_B (the two must agree exactly).
                    let mut dual_drift = 0usize;
                    if S::IS_EXACT {
                        let mut fresh = vec![S::zero(); m];
                        for (pos, value) in fresh.iter_mut().enumerate() {
                            *value = self.cost(&phase, self.factor.basis[pos]);
                        }
                        self.factor.btran(&mut fresh);
                        dual_drift = fresh
                            .iter()
                            .zip(&y)
                            .filter(|(a, b)| !a.sub(b).is_exactly_zero())
                            .count();
                    }
                    eprintln!(
                        "[lp] optimality audit: max |Bx-b| = {max_residual:e}, min reduced cost = {min_reduced:e}, dual drift rows = {dual_drift}"
                    );
                }
                return LpStatus::Optimal;
            };
            // FTRAN the entering column and run the ratio test.
            let ftran_start = Instant::now();
            let mut d = vec![S::zero(); m];
            self.columns.scatter(entering, &mut d);
            self.factor.ftran(&mut d);
            self.ftran_time += ftran_start.elapsed();
            // Ratio test. Two kinds of blocking rows. (1) The ordinary test: a
            // positive entry bounds the step before the basic value hits zero. (2) A
            // basic *artificial* at zero with a negative entry: increasing the
            // entering variable would push the artificial above zero, i.e. off the
            // original feasible set — the extended relaxation would happily ride that
            // direction to a bogus "unbounded"/"optimal" verdict on `b = 0` systems
            // (the Handelman norm). Such rows block at θ = 0, which drives the
            // artificial out of the basis on demand.
            //
            // For `f64` the choice among (near-)tied rows is Harris-flavoured: a
            // first pass finds the minimum ratio, a second pass picks, among rows
            // whose ratio is within a whisker of it, the row with the numerically
            // largest pivot (preferring artificial evictions). Degenerate systems tie
            // thousands of rows at θ = 0; always pivoting on the largest entry is
            // what keeps the eta file from amplifying round-off until the basic
            // values drift visibly negative.
            // In phase 1 an artificial with a still-positive value may trade off
            // against others (only zero-valued ones are pinned); in phase 2 *no*
            // artificial may grow — its phase-2 cost is zero, so nothing would ever
            // price it back down, and a grown artificial means the "solution" has
            // left the original feasible set (spurious unboundedness on `nested`).
            let pin_positive_artificials = matches!(phase, Phase::Two);
            let blocking_ratio = |row: usize, coeff: &S| -> Option<S> {
                let artificial = self.factor.basis[row] >= n;
                if coeff.is_positive() {
                    if !S::IS_EXACT && coeff.to_f64() < PIVOT_EPS {
                        None
                    } else {
                        Some(self.x_basic[row].div(coeff))
                    }
                } else if artificial
                    && coeff.is_negative()
                    && (pin_positive_artificials || !self.x_basic[row].is_positive())
                {
                    if !S::IS_EXACT && coeff.to_f64() > -PIVOT_EPS {
                        None
                    } else {
                        Some(S::zero())
                    }
                } else {
                    None
                }
            };
            // Strict minimum-ratio with the tie-break that the dense tableau has used
            // through every degenerate system of the benchmark suite: prefer evicting
            // an artificial, then the lower basic column id (lexicographic flavour —
            // a deterministic order the degenerate ties cannot cycle through).
            let mut leaving: Option<usize> = None;
            let mut best_ratio: Option<S> = None;
            for (row, coeff) in d.iter().enumerate().take(m) {
                let Some(ratio) = blocking_ratio(row, coeff) else { continue };
                let better = match &best_ratio {
                    None => true,
                    Some(best) => {
                        if ratio.lt(best) {
                            true
                        } else if best.lt(&ratio) {
                            false
                        } else {
                            leaving.is_some_and(|l| {
                                let l_artificial = self.factor.basis[l] >= n;
                                let artificial = self.factor.basis[row] >= n;
                                if artificial != l_artificial {
                                    artificial
                                } else {
                                    self.factor.basis[row] < self.factor.basis[l]
                                }
                            })
                        }
                    }
                };
                if better {
                    best_ratio = Some(ratio);
                    leaving = Some(row);
                }
            }
            if leaving.is_none() && !S::IS_EXACT {
                // No acceptable blocking row. Before concluding "unbounded", re-run
                // the ratio test over positive entries below the pivot-size screen —
                // a direction blocked only by small pivots is not unbounded. Entries
                // under the hard floor stay rejected (dividing by a ~1e-300 pivot
                // NaN-poisons the eta file); if nothing ≥ the floor blocks either,
                // the column is numerically unusable: ban it until the next
                // reinversion and re-price instead of pivoting on garbage.
                const PIVOT_FLOOR: f64 = 1e-12;
                let mut best: Option<usize> = None;
                for (row, value) in d.iter().enumerate() {
                    // `partial_cmp` keeps the NaN behaviour explicit: a NaN pivot
                    // compares as None and is rejected like a sub-floor one.
                    let usable = value
                        .to_f64()
                        .partial_cmp(&PIVOT_FLOOR)
                        .is_some_and(|o| o != std::cmp::Ordering::Less);
                    if !usable {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some(b) => {
                            let ratio = self.x_basic[row].to_f64() / value.to_f64();
                            let best_ratio = self.x_basic[b].to_f64() / d[b].to_f64();
                            ratio < best_ratio
                                || (ratio == best_ratio && d[b].to_f64() < value.to_f64())
                        }
                    };
                    if better {
                        best = Some(row);
                    }
                }
                leaving = best;
                if leaving.is_none() && d.iter().any(|v| v.to_f64() > 0.0) {
                    banned[entering] = true;
                    ban_active = true;
                    continue;
                }
            }
            let Some(leaving) = leaving else {
                // No positive entry: unbounded — or drift. Confirm before giving up.
                if !S::IS_EXACT && self.etas_since_reinvert > 0 && confirms < MAX_CONFIRMS {
                    confirms += 1;
                    self.reinvert();
                    banned.iter_mut().for_each(|b| *b = false);
                    ban_active = false;
                    continue;
                }
                if !S::IS_EXACT {
                    // A phase-1 unbounded claim is always numerics (the objective is
                    // bounded below by zero), and so is a *transformed* direction
                    // that is numerically null. One exception: a structurally empty
                    // column (no constraint mentions it) with negative cost is a
                    // genuine ray once phase 1 has established feasibility — that is
                    // exactly how an unconstrained negative-cost variable surfaces
                    // after presolve declined to call it (the rows might have been
                    // infeasible). Ban everything else and re-price instead of
                    // surfacing a false verdict.
                    let structurally_empty = entering < self.columns.cols.len()
                        && self.columns.cols[entering].is_empty();
                    if matches!(phase, Phase::Two) && structurally_empty {
                        return LpStatus::Unbounded;
                    }
                    let has_negative = d.iter().any(|v| v.to_f64() < -1e-9);
                    if matches!(phase, Phase::One) || !has_negative {
                        banned[entering] = true;
                        ban_active = true;
                        continue;
                    }
                }
                if std::env::var("DCA_LP_CHECK").is_ok() {
                    // Cross-check pricing against the transformed column: the reduced
                    // cost must equal c_q − c_B·d up to round-off.
                    let priced = self.cost(&phase, entering).sub(&self.columns.dot(&y, entering));
                    let direct: f64 = self.cost(&phase, entering).to_f64()
                        - self
                            .factor
                            .basis
                            .iter()
                            .zip(&d)
                            .map(|(&col, di)| self.cost(&phase, col).to_f64() * di.to_f64())
                            .sum::<f64>();
                    let dmax = d.iter().map(Scalar::to_f64).fold(f64::NEG_INFINITY, f64::max);
                    eprintln!(
                        "[lp] unbounded claim: col {entering}, r(BTRAN) = {:e}, r(FTRAN) = {direct:e}, max d = {dmax:e}, etas = {}",
                        priced.to_f64(),
                        self.factor.len()
                    );
                }
                return LpStatus::Unbounded;
            };
            // Devex weight update (Forrest–Goldfarb reference framework, simplified):
            // the pivot row α of the tableau rescales every nonbasic weight.
            if !S::IS_EXACT && !use_bland {
                let alpha_q = d[leaving].to_f64();
                if alpha_q.abs() > PIVOT_EPS {
                    let mut rho = vec![S::zero(); m];
                    rho[leaving] = S::one();
                    self.factor.btran(&mut rho);
                    let reference = weights[entering].max(1.0);
                    for (j, weight) in weights.iter_mut().enumerate().take(n) {
                        if self.in_basis[j] || j == entering {
                            continue;
                        }
                        let alpha_j = self.columns.dot(&rho, j).to_f64();
                        if alpha_j != 0.0 {
                            let candidate = (alpha_j / alpha_q).powi(2) * reference;
                            if candidate > *weight {
                                *weight = candidate;
                            }
                        }
                    }
                    weights[entering] = (reference / (alpha_q * alpha_q)).max(1.0);
                    let leaving_col = self.factor.basis[leaving];
                    if leaving_col < n {
                        weights[leaving_col] = weights[leaving_col].max(1.0);
                    }
                }
            }

            // Pivot: update basic values, basis, and the eta file.
            let theta = self.x_basic[leaving].div(&d[leaving]);
            if theta.to_f64().abs() <= 1e-12 {
                consecutive_degenerate += 1;
                self.degenerate_pivots += 1;
            } else {
                consecutive_degenerate = 0;
            }
            for (row, coeff) in d.iter().enumerate().take(m) {
                if row == leaving || coeff.is_exactly_zero() {
                    continue;
                }
                self.x_basic[row] = self.x_basic[row].sub(&theta.mul(coeff));
            }
            self.x_basic[leaving] = theta;
            // Exact backend: incremental dual update in place of next iteration's
            // dense `c_B` BTRAN. With B̄ the post-pivot basis, the new dual is
            // exactly y' = y + (d̄_q / α_r)·ρ_r, where d̄_q is the entering column's
            // reduced cost (recorded at pricing), α_r = d[leaving] the pivot
            // element, and ρ_r = e_r B⁻¹ row r of the *pre-pivot* basis inverse —
            // one BTRAN of a unit vector, which visits only the etas its pattern
            // reaches (`btran_unit`; on `nested`, ρ_r averages 178 non-zeros of
            // 1,435 rows) instead of the whole file the dense `c_B` pass walks.
            // Proof it prices B̄ correctly: for a surviving basic column A_{B(i)},
            // ρ_r·A_{B(i)} = (e_r)_i = 0, so y'·A_{B(i)} = c_{B(i)} unchanged; for
            // the entering column, ρ_r·A_q = d_r = α_r, so y'·A_q = (c_q − d̄_q) +
            // d̄_q = c_q. Exact arithmetic means no drift — the verdict sweep can
            // trust the maintained dual outright (and `DCA_LP_CHECK` audits it).
            if S::IS_EXACT {
                let btran_start = Instant::now();
                let rho = self.factor.btran_unit(leaving);
                // Infallible: when `S::IS_EXACT`, the entering column was chosen
                // by the exact pricing sweep in this same iteration, which always
                // records its reduced cost before reaching the pivot step.
                #[allow(clippy::expect_used)]
                let gamma = entering_reduced
                    .take()
                    .expect("exact pricing always records the entering reduced cost")
                    .div(&d[leaving]);
                tick += 1;
                for (row, (value, r)) in y.iter_mut().zip(&rho).enumerate() {
                    if !r.is_exactly_zero() {
                        *value = value.add(&gamma.mul(r));
                        // Stamp the touched rows (this is what invalidates cached
                        // reduced costs) and keep the f64 shadow dual in step.
                        changed_at[row] = tick;
                        y64[row] = value.to_f64();
                    }
                }
                self.btran_time += btran_start.elapsed();
            }
            self.in_basis[self.factor.basis[leaving]] = false;
            self.in_basis[entering] = true;
            self.factor.basis[leaving] = entering;
            let pivot_magnitude = d[leaving].to_f64().abs();
            self.factor.push_eta(&d, leaving);
            self.etas_since_reinvert += 1;
            if let Some(eta) = self.factor.last() {
                self.eta_nnz_since_reinvert += eta.weight();
            }
            if S::IS_EXACT {
                self.lu_updates += 1;
            }
            self.iterations += 1;
            if !S::IS_EXACT && pivot_magnitude < 1e-6 {
                // A small accepted pivot is exactly what compounds into an
                // ill-conditioned eta file; refactorize immediately instead of
                // letting it fester for another reinversion period.
                self.etas_since_reinvert = REINVERT_EVERY;
            }
        }
        LpStatus::IterationLimit
    }

    fn outcome(&self, status: LpStatus, n: usize) -> RevisedOutcome<S> {
        let values = if status == LpStatus::Optimal {
            let mut values = vec![S::zero(); n];
            for (pos, &col) in self.factor.basis.iter().enumerate() {
                if col < n {
                    values[col] = self.x_basic[pos].clone();
                }
            }
            values
        } else {
            Vec::new()
        };
        let basis: Vec<usize> =
            self.factor.basis.iter().copied().filter(|&col| col < n).collect();
        RevisedOutcome {
            status,
            values,
            basis,
            iterations: self.iterations,
            truncated: false,
            lu_updates: self.lu_updates,
            lu_refactorizations: self.lu_refactorizations,
            dual: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dca_numeric::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    /// minimize -x - y  s.t.  x + y + s = 4: optimum 4 at x + y = 4.
    #[test]
    fn small_exact_lp() {
        let form = StandardForm::from_dense_rows(
            vec![vec![r(1, 1), r(1, 1), r(1, 1)]],
            vec![r(4, 1)],
            vec![r(-1, 1), r(-1, 1), r(0, 1)],
        );
        let out = solve_revised(&form, &Deadline::unlimited(), None, 0.0);
        assert_eq!(out.status, LpStatus::Optimal);
        let total = out.values[0].clone() + out.values[1].clone();
        assert_eq!(total, r(4, 1));
        assert!(out.iterations >= 1);
    }

    #[test]
    fn infeasible_exact_lp() {
        // x = 2 and x = 3 (as two equality rows over one column).
        let form = StandardForm::from_dense_rows(
            vec![vec![r(1, 1)], vec![r(1, 1)]],
            vec![r(2, 1), r(3, 1)],
            vec![r(0, 1)],
        );
        let out = solve_revised(&form, &Deadline::unlimited(), None, 0.0);
        assert_eq!(out.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_f64_lp() {
        // minimize -x s.t. x - s = 1 (x unbounded above).
        let form =
            StandardForm::from_dense_rows(vec![vec![1.0f64, -1.0]], vec![1.0], vec![-1.0, 0.0]);
        let out = solve_revised(&form, &Deadline::unlimited(), None, 0.0);
        assert_eq!(out.status, LpStatus::Unbounded);
    }

    #[test]
    fn warm_start_reuses_the_final_basis() {
        // minimize x + y s.t. x + 2y - s1 = 4, 3x + y - s2 = 6.
        let form = StandardForm::from_dense_rows(
            vec![
                vec![1.0f64, 2.0, -1.0, 0.0],
                vec![3.0, 1.0, 0.0, -1.0],
            ],
            vec![4.0, 6.0],
            vec![1.0, 1.0, 0.0, 0.0],
        );
        let cold = solve_revised(&form, &Deadline::unlimited(), None, 0.0);
        assert_eq!(cold.status, LpStatus::Optimal);
        assert!((cold.values[0] - 1.6).abs() < 1e-6);
        assert!((cold.values[1] - 1.2).abs() < 1e-6);
        let warm = solve_revised(&form, &Deadline::unlimited(), Some(&cold.basis), 0.0);
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!((warm.values[0] - 1.6).abs() < 1e-6);
        // The warm start lands on the optimal basis: phase 1 is skipped entirely and
        // phase 2 confirms optimality without a single pivot.
        assert_eq!(warm.iterations, 0, "warm start should re-solve pivot-free");
    }

    /// Factorization self-consistency: after a reinversion (including dependent
    /// preferred columns and artificial padding), `B · ftran(A_j)` must reproduce
    /// `A_j` for every column, and `btran`/`ftran` must agree on reduced costs.
    #[test]
    fn reinversion_is_a_consistent_inverse() {
        let mut seed = 0xABCDEF0123456789u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..200 {
            let m = 2 + (next() % 10) as usize;
            let n = 2 + (next() % 14) as usize;
            let matrix: Vec<Vec<f64>> = (0..m)
                .map(|_| {
                    (0..n)
                        .map(|_| {
                            if next() % 2 == 0 {
                                ((next() % 5) as i64 - 2) as f64
                            } else {
                                0.0
                            }
                        })
                        .collect()
                })
                .collect();
            let columns =
                StandardForm::from_dense_rows(matrix.clone(), vec![0.0; m], vec![0.0; n]).columns;
            // Preferred list with duplicates and likely-dependent columns.
            let preferred: Vec<usize> = (0..n + 2).map(|_| (next() % n as u64) as usize).collect();
            let (factor, _, _) = Factorization::reinvert(&columns, &preferred, PIVOT_EPS);
            // Check every structural column: multiply B by ftran(A_j) and compare.
            #[allow(clippy::needless_range_loop)] // j is a column index of `matrix`
            for j in 0..n {
                let mut d = vec![0.0f64; m];
                columns.scatter(j, &mut d);
                factor.ftran(&mut d);
                let mut reconstructed = vec![0.0f64; m];
                for (pos, &col) in factor.basis.iter().enumerate() {
                    if d[pos] == 0.0 {
                        continue;
                    }
                    if col < n {
                        for (row, value) in &columns.cols[col] {
                            reconstructed[*row] += value * d[pos];
                        }
                    } else {
                        reconstructed[col - n] += d[pos];
                    }
                }
                for (row, &rebuilt) in reconstructed.iter().enumerate() {
                    let expected = matrix[row][j];
                    assert!(
                        (rebuilt - expected).abs() <= 1e-6 * (1.0 + expected.abs()),
                        "case {case}: B·ftran(A_{j}) diverges at row {row}: {rebuilt} vs {expected}\nbasis: {:?}",
                        factor.basis
                    );
                }
            }
            // BTRAN/FTRAN duality: y·A_j == c_B·(B⁻¹A_j) for a random cost vector.
            let costs: Vec<f64> = (0..m).map(|_| ((next() % 7) as i64 - 3) as f64).collect();
            let mut y = costs.clone();
            factor.btran(&mut y);
            for j in 0..n {
                let mut d = vec![0.0f64; m];
                columns.scatter(j, &mut d);
                let via_btran: f64 = d
                    .iter()
                    .enumerate()
                    .map(|(row, value)| y[row] * value)
                    .sum();
                factor.ftran(&mut d);
                let via_ftran: f64 =
                    d.iter().enumerate().map(|(pos, value)| costs[pos] * value).sum();
                assert!(
                    (via_btran - via_ftran).abs() <= 1e-6 * (1.0 + via_ftran.abs()),
                    "case {case}: BTRAN/FTRAN disagree on column {j}: {via_btran} vs {via_ftran}"
                );
            }
        }
    }

    #[test]
    fn degenerate_rhs_terminates() {
        // Heavily degenerate: three equality rows with zero rhs over five columns.
        let form = StandardForm::from_dense_rows(
            vec![
                vec![1.0f64, -1.0, 0.0, 1.0, 0.0],
                vec![0.0, 1.0, -1.0, 0.0, 1.0],
                vec![1.0, 0.0, -1.0, 1.0, 1.0],
            ],
            vec![0.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0, 0.0, 0.0],
        );
        let out = solve_revised(&form, &Deadline::unlimited(), None, 0.0);
        assert_eq!(out.status, LpStatus::Optimal);
        assert!(out.values.iter().all(|v| v.abs() < 1e-9));
    }
}
