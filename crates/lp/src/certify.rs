//! Float-first, exact-repair LP driver: `f64` does the pivoting, rationals certify.
//!
//! The QSopt_ex-style precision-boosting scheme this module implements splits every
//! solve into three unequal parts:
//!
//! 1. **Float phase** — the sparse revised simplex runs phases 1–2 entirely in
//!    hardware floats (Devex pricing, equilibration, anti-degeneracy perturbation) and
//!    proposes a candidate optimal *basis*. Floats decide nothing; they only guess.
//! 2. **Certification** — the candidate basis is factorized in exact rationals with
//!    the Markowitz-ordered sparse LU ([`crate::lu`]); `x_B = B⁻¹b` and the reduced
//!    costs `c_j − c_B B⁻¹ A_j` are recomputed exactly, and the basis is accepted iff
//!    it is exactly feasible (`x_B ≥ 0`, artificial rows exactly zero) and exactly
//!    optimal (every nonbasic reduced cost `≥ 0`). An accepted answer is therefore a
//!    full exact-rational certificate, no different from one the exact simplex
//!    produces — it was merely *found* at f64 speed.
//! 3. **Exact repair** — on rejection (or when the float phase fails outright), the
//!    exact simplex is warm-started from the candidate basis, so it performs only the
//!    few pivots separating the float vertex from the true optimum. Repair rounds are
//!    pivot-capped and re-certified ([`REPAIR_CAPS`] rounds), after which the driver
//!    falls back to the pure exact path (uncapped), which is self-certifying.
//!
//! Soundness: every verdict this driver issues — optimal value, infeasible,
//! unbounded — is produced by exact-rational arithmetic (the certifier or the exact
//! simplex). The `f64` phase only ever influences *which basis* the exact machinery
//! looks at first, never what it concludes.

use std::time::{Duration, Instant};

use dca_numeric::Rational;

use crate::deadline::Deadline;
use crate::fault::{self, FaultKind, SolvePhase};
use crate::lu::factorize_markowitz;
use crate::presolve::presolve;
use crate::problem::LpStatus;
use crate::scalar::Scalar;
use crate::simplex::{
    settled_by_presolve, solve_standard_form_inner, RawSolution, StandardForm, PERTURBATION,
    PERTURB_ROWS_THRESHOLD,
};

/// Per-phase effort accounting of one float-first solve.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct PhaseStats {
    /// Wall-clock spent in presolve.
    pub presolve_time: Duration,
    /// Wall-clock spent in the `f64` simplex phase.
    pub float_time: Duration,
    /// Wall-clock spent factorizing and pricing in the exact certifier.
    pub certify_time: Duration,
    /// Wall-clock spent in exact repair pivoting.
    pub repair_time: Duration,
    /// Pivots performed by the `f64` phase.
    pub float_iterations: usize,
    /// Pivots performed by the exact simplex (repair + fallback).
    pub exact_iterations: usize,
    /// `true` when the reported result carries an exact-rational certificate (always
    /// the case for terminal verdicts of this driver; recorded for the audit trail).
    pub certified: bool,
    /// Certification rounds performed (0 = the float phase never produced a
    /// candidate, 1 = first candidate accepted, …).
    pub certify_rounds: usize,
    /// Lazy row-generation candidate columns (Handelman product multipliers the
    /// caller marked deferrable) that survived presolve. 0 on the eager path.
    pub products_total: usize,
    /// Lazy candidate columns actually activated by separation (present in the
    /// final solve). 0 on the eager path.
    pub products_generated: usize,
    /// Row-generation solve rounds (1 = the initial core sufficed). 0 on the
    /// eager path.
    pub separation_rounds: usize,
    /// Exact simplex pivots absorbed as incremental rank-1 eta updates of the
    /// rational LU (exact backend only; the f64 phase reports 0 here).
    pub lu_updates: usize,
    /// Full Markowitz refactorizations performed mid-run by the exact simplex
    /// (growth-triggered rebuilds; the initial warm-start build is not counted).
    pub lu_refactorizations: usize,
}

/// Exact certificate for an accepted basis.
struct Certificate {
    /// Values of the structural columns.
    values: Vec<Rational>,
    /// The structural basis columns (for warm-starting follow-up solves).
    basis: Vec<usize>,
    /// The exact optimal dual `y = c_B B⁻¹`. Verified dual-feasible over every
    /// column of the certified problem; the row-generation driver prices lazily
    /// excluded columns against it to extend the certificate to the full set.
    dual: Vec<Rational>,
}

/// Accept/reject verdict of one certification pass.
enum Certified {
    /// Exactly primal and dual feasible: an accepted optimum with its certificate.
    Accepted(Certificate),
    /// Rejected. When the basis was exactly *dual* feasible but primal infeasible,
    /// weak duality makes `y·b` an exact lower bound on the optimum, reported here
    /// so a later truncated (anytime) answer can bracket the unproven optimum.
    Rejected {
        dual_bound: Option<Rational>,
    },
}

/// Repair-round pivot caps: round `k` may spend `REPAIR_CAPS[k]` exact pivots before
/// its basis is re-certified; after the last round the uncapped exact path runs.
const REPAIR_CAPS: [usize; 2] = [256, 2048];

/// Fraction of the remaining budget the float phase may consume (the exact phases
/// must keep the lion's share: they are the sound fallback with anytime semantics).
const FLOAT_BUDGET_FRACTION: f64 = 0.25;

/// Exact accept/reject of a candidate optimal basis for `min c·y, Ay = b, y ≥ 0`.
///
/// Returns the exact solution iff the basis is exactly primal feasible *and* exactly
/// dual feasible (optimal). Artificial rows (rank deficiency of the candidate) are
/// accepted only at exactly zero.
fn certify_basis(
    form: &StandardForm<Rational>,
    basis: &[usize],
    deadline: &Deadline,
) -> Certified {
    let columns = &form.columns;
    let m = columns.rows;
    let n = columns.cols.len();
    // Certification is exact work too and must honor the per-attempt budget like
    // every other exact loop; an aborted certification is just a rejection — the
    // caller's repair/fallback path times out promptly on the same deadline.
    if deadline.expired() {
        return Certified::Rejected { dual_bound: None };
    }
    let lu = factorize_markowitz(columns, basis);
    if deadline.expired() {
        return Certified::Rejected { dual_bound: None };
    }

    // Exact primal feasibility: x_B = B⁻¹ b ≥ 0, with artificial rows exactly 0.
    // A violation no longer aborts the pass: the dual pricing below may still
    // salvage an exact lower bound from the rejected basis.
    let mut x_basic = form.rhs.clone();
    lu.factor.ftran(&mut x_basic);
    let primal_ok = x_basic.iter().enumerate().all(|(pos, value)| {
        !value.is_negative() && (lu.factor.basis[pos] < n || value.is_zero())
    });

    // Exact dual feasibility: y = c_B B⁻¹, r_j = c_j − y·A_j ≥ 0 for every nonbasic
    // structural column (artificials carry cost 0; basic columns price to 0 exactly).
    let mut y = vec![Rational::zero(); m];
    for (pos, value) in y.iter_mut().enumerate() {
        let col = lu.factor.basis[pos];
        if col < n {
            *value = form.costs[col].clone();
        }
    }
    lu.factor.btran(&mut y);
    let mut in_basis = vec![false; n];
    for &col in &lu.factor.basis {
        if col < n {
            in_basis[col] = true;
        }
    }
    for (j, &basic) in in_basis.iter().enumerate() {
        if basic {
            continue;
        }
        if j % 256 == 0 && deadline.expired() {
            return Certified::Rejected { dual_bound: None };
        }
        let reduced = form.costs[j].sub(&columns.dot(&y, j));
        if reduced.is_negative() {
            return Certified::Rejected { dual_bound: None };
        }
    }

    if !primal_ok {
        // Dual feasible, primal infeasible: for any feasible x, c·x ≥ y·Ax = y·b
        // (weak duality; artificial basis slots carry cost 0 and structural pricing
        // held above), so `y·b` is an exact lower bound on the optimum.
        let bound = y
            .iter()
            .zip(&form.rhs)
            .fold(Rational::zero(), |acc, (y_i, b_i)| acc.add(&y_i.mul(b_i)));
        return Certified::Rejected { dual_bound: Some(bound) };
    }

    let mut values = vec![Rational::zero(); n];
    for (pos, &col) in lu.factor.basis.iter().enumerate() {
        if col < n {
            values[col] = x_basic[pos].clone();
        }
    }
    let basis = lu.factor.basis.iter().copied().filter(|&col| col < n).collect();
    Certified::Accepted(Certificate { values, basis, dual: y })
}

/// Exact Farkas certificate extracted from a terminal *infeasible* exact solve.
///
/// The exact simplex concludes `Infeasible` only at a phase-1 optimum with a
/// positive artificial sum, so refactorizing its final basis and pricing with the
/// phase-1 costs (`1` on artificial rows, `0` on structural columns) yields
/// `y₁ = c_B B⁻¹` with `y₁·b > 0` and `y₁·A_j ≤ 0` for every solved column. Both
/// properties are *re-verified exactly* here — the Markowitz rebuild may pivot
/// the given columns onto different rows than the simplex did, and a certificate
/// is only returned when it genuinely proves `{Ax = b, x ≥ 0}` empty for the
/// solved column set. A lazily excluded column can break the certificate only by
/// pricing `y₁·A_j > 0`; if none does, the same `y₁` certifies the full system
/// infeasible.
fn phase1_farkas(
    form: &StandardForm<Rational>,
    basis: &[usize],
    deadline: &Deadline,
) -> Option<Vec<Rational>> {
    if deadline.expired() {
        return None;
    }
    let columns = &form.columns;
    let n = columns.cols.len();
    let lu = factorize_markowitz(columns, basis);
    let mut y = vec![Rational::zero(); columns.rows];
    for (pos, value) in y.iter_mut().enumerate() {
        if lu.factor.basis[pos] >= n {
            *value = Rational::one();
        }
    }
    lu.factor.btran(&mut y);
    let mut y_dot_b = Rational::zero();
    for (value, b) in y.iter().zip(&form.rhs) {
        y_dot_b = y_dot_b.add(&value.mul(b));
    }
    if !y_dot_b.is_positive() {
        return None;
    }
    for j in 0..n {
        if j % 256 == 0 && deadline.expired() {
            return None;
        }
        if columns.dot(&y, j).is_positive() {
            return None;
        }
    }
    Some(y)
}

/// Solves a standard-form problem with the float-first / exact-repair loop.
///
/// The returned solution is always exact ([`Rational`]); see the module docs for the
/// soundness argument. `warm` carries preferred structural columns in original
/// (pre-presolve) indices, exactly like [`crate::simplex::solve_standard_form`].
///
/// `lazy_cols` (also original indices) marks columns eligible for delayed
/// generation: the solve starts without them and brings them in only as exact
/// pricing demands ([`solve_with_row_generation`]). Passing an empty slice — or
/// setting `DCA_LP_NO_ROWGEN=1` — solves every column eagerly; either way the
/// verdict is identical.
pub(crate) fn solve_float_first(
    form: &StandardForm<Rational>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
    lazy_cols: &[usize],
) -> RawSolution<Rational> {
    let debug = std::env::var("DCA_LP_DEBUG").is_ok();
    let num_original_cols = form.costs.len();
    let mut phases = PhaseStats::default();

    // Exact presolve (the rational pass may conclude infeasibility outright).
    let presolve_start = Instant::now();
    let pre = presolve(form);
    phases.presolve_time = presolve_start.elapsed();
    if let Some(mut solution) = settled_by_presolve(&pre, num_original_cols) {
        phases.certified = true; // the verdict is exact-rational by construction
        solution.phases = phases;
        return solution;
    }
    let warm_reduced: Option<Vec<usize>> = warm.map(|w| pre.map_cols(w));

    // `DCA_LP_NO_FLOAT=1` skips the f64 phase entirely (A/B switch: pure exact path
    // with the caller's warm start, same certificates, no float influence at all).
    if std::env::var("DCA_LP_NO_FLOAT").is_ok() {
        let repair_start = Instant::now();
        let mut solution = solve_standard_form_inner::<Rational>(
            &pre.form,
            deadline,
            0.0,
            warm_reduced.as_deref(),
            None,
        );
        phases.repair_time = repair_start.elapsed();
        phases.exact_iterations = solution.iterations;
        phases.lu_updates = solution.phases.lu_updates;
        phases.lu_refactorizations = solution.phases.lu_refactorizations;
        if solution.status == LpStatus::Optimal {
            solution.values = pre.restore(&solution.values, num_original_cols);
        }
        solution.basis = solution.basis.iter().map(|&col| pre.kept_cols[col]).collect();
        solution.presolve_rows_removed = pre.rows_removed;
        solution.presolve_cols_removed = pre.cols_removed;
        phases.certified = true;
        solution.phases = phases;
        return solution;
    }

    // `DCA_LP_NO_ROWGEN=1` is the row-generation A/B switch: the eager path below
    // solves every column up front (the pre-row-generation behavior, bit-identical
    // verdicts by the separation argument in `solve_with_row_generation`).
    let lazy_reduced: Vec<usize> = if std::env::var("DCA_LP_NO_ROWGEN").is_ok() {
        Vec::new()
    } else {
        pre.map_cols(lazy_cols)
    };

    let mut solution = if lazy_reduced.is_empty() {
        let (solution, _) = certified_core(
            &pre.form,
            deadline,
            warm_reduced.as_deref(),
            &mut phases,
            debug,
            false,
            true,
        );
        solution
    } else {
        solve_with_row_generation(
            &pre.form,
            deadline,
            warm_reduced.as_deref(),
            &lazy_reduced,
            &mut phases,
            debug,
        )
    };

    // Map the reduced solution back to the original column space.
    if solution.status == LpStatus::Optimal {
        solution.values = pre.restore(&solution.values, num_original_cols);
    }
    if let Some(bound) = solution.dual_bound.take() {
        // The bound was certified on the presolved problem; presolve only ever
        // fixes eliminated columns to constants, so the original objective differs
        // from the reduced one by exactly Σ c_j·v_j over the fixed columns.
        let offset = pre
            .fixed
            .iter()
            .fold(Rational::zero(), |acc, (col, value)| acc.add(&form.costs[*col].mul(value)));
        solution.dual_bound = Some(bound.add(&offset));
    }
    solution.basis = solution.basis.iter().map(|&col| pre.kept_cols[col]).collect();
    solution.presolve_rows_removed = pre.rows_removed;
    solution.presolve_cols_removed = pre.cols_removed;
    solution.iterations = phases.float_iterations + phases.exact_iterations;
    // Every terminal verdict above came out of exact arithmetic: the certifier, the
    // exact repair, or the exact fallback. (A truncated anytime answer is exactly
    // feasible — its bound is sound — but not a proven optimum.)
    phases.certified = true;
    solution.phases = phases;
    solution
}

/// The float-first / certify / exact-repair pipeline on one (possibly
/// column-restricted) problem.
///
/// `form` is solved as-is — no presolve; the caller already reduced it — and
/// `warm` carries preferred columns in `form`'s own index space. Effort is
/// *accumulated* into `phases` so the row-generation driver can call this once
/// per round and keep a single whole-solve account.
///
/// With `want_dual`, an exact optimal dual vector accompanies an `Optimal`
/// non-truncated solution: taken from the accepted certificate when the
/// certifier concluded the solve, or recovered by one extra certification pass
/// when the answer came out of the exact simplex. `None` alongside `Optimal`
/// then means the deadline expired before the dual could be certified.
fn certified_core(
    form: &StandardForm<Rational>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
    phases: &mut PhaseStats,
    debug: bool,
    want_dual: bool,
    mut use_float: bool,
) -> (RawSolution<Rational>, Option<Vec<Rational>>) {
    let mut candidate: Vec<usize> = Vec::new();
    let mut result: Option<RawSolution<Rational>> = None;
    let mut dual: Option<Vec<Rational>> = None;
    let mut float_optimal = false;
    // Best exact lower bound salvaged from rejected-but-dual-feasible certification
    // passes; attached to a truncated answer so the caller can report a gap.
    let mut best_lower: Option<Rational> = None;
    if use_float {
        match fault::enter(SolvePhase::LpFloat) {
            Some(FaultKind::Deadline) => deadline.cancel(),
            // Forced numeric rejection: discard the float phase outright; the exact
            // fallback below must still reproduce the fault-free answer.
            Some(FaultKind::Numeric) => use_float = false,
            _ => {}
        }
    }

    // ---- Float phase: solve the f64 image of the problem. --------------------------
    // Skipped (`use_float = false`) by the row-generation driver after its first
    // round: the previous round's optimal basis stays primal feasible when columns
    // are only *added*, so warm-started exact pricing beats a from-scratch f64 solve
    // whose basis would displace that warm start.
    if use_float {
        let float_start = Instant::now();
        let float_form = StandardForm {
            columns: form.columns.map(Rational::to_f64),
            rhs: form.rhs.iter().map(Rational::to_f64).collect(),
            costs: form.costs.iter().map(Rational::to_f64).collect(),
            model_columns: form.model_columns.clone(),
        };
        // The float phase only proposes a basis; cap its budget so the exact phases
        // keep most of the wall-clock (they are the sound anytime fallback). The
        // tightened clone shares the cancel flag, so external cancellation still
        // reaches the float simplex.
        let float_deadline = deadline.tightened(deadline.instant().map(|d| {
            let remaining = d.saturating_duration_since(Instant::now());
            Instant::now() + remaining.mul_f64(FLOAT_BUDGET_FRACTION)
        }));
        let perturbation =
            if float_form.columns.rows >= PERTURB_ROWS_THRESHOLD { PERTURBATION } else { 0.0 };
        let float =
            solve_standard_form_inner(&float_form, &float_deadline, perturbation, warm, None);
        phases.float_time += float_start.elapsed();
        phases.float_iterations += float.iterations;
        if debug {
            eprintln!(
                "[lp] float-first: f64 phase {:?} in {:.2}s ({} pivots, {} rows x {} cols, {} nnz)",
                float.status,
                float_start.elapsed().as_secs_f64(),
                float.iterations,
                form.columns.rows,
                form.costs.len(),
                form.columns.nnz()
            );
        }
        candidate = float.basis;
        float_optimal = float.status == LpStatus::Optimal && !float.truncated;
    }

    // ---- Certify / repair loop. ----------------------------------------------------
    // Round r: certify the current candidate; on rejection run a pivot-capped exact
    // repair warm-started from it and try again. After the capped rounds the exact
    // simplex runs uncapped (self-certifying).
    if float_optimal {
        for (round, cap) in REPAIR_CAPS.iter().enumerate() {
            let force_reject = match fault::enter(SolvePhase::LpCertify) {
                Some(FaultKind::Deadline) => {
                    deadline.cancel();
                    false
                }
                // Injected numeric failure: pretend certification rejected the
                // candidate; the repair/fallback chain must still land on the
                // fault-free answer (soundness never rests on a single pass).
                Some(FaultKind::Numeric) => true,
                _ => false,
            };
            let certify_start = Instant::now();
            let certified = if force_reject {
                Certified::Rejected { dual_bound: None }
            } else {
                certify_basis(form, &candidate, deadline)
            };
            phases.certify_time += certify_start.elapsed();
            phases.certify_rounds += 1;
            let certificate = match certified {
                Certified::Accepted(certificate) => Some(certificate),
                Certified::Rejected { dual_bound } => {
                    if let Some(bound) = dual_bound {
                        best_lower = Some(match best_lower.take() {
                            Some(best) if Scalar::lt(&bound, &best) => best,
                            _ => bound,
                        });
                    }
                    None
                }
            };
            if let Some(certificate) = certificate {
                if debug {
                    eprintln!(
                        "[lp] float-first: certified in round {} ({:.3}s certify)",
                        round + 1,
                        phases.certify_time.as_secs_f64()
                    );
                }
                let mut solution = RawSolution::bare(LpStatus::Optimal);
                solution.values = certificate.values;
                solution.basis = certificate.basis;
                dual = Some(certificate.dual);
                result = Some(solution);
                break;
            }
            if debug {
                eprintln!(
                    "[lp] float-first: round {} rejected; exact repair (cap {cap})",
                    round + 1
                );
            }
            // Deadline faults at the repair boundary exercise the real
            // cancellation path; a numeric fault has nothing to reject here.
            if fault::enter(SolvePhase::LpRepair) == Some(FaultKind::Deadline) {
                deadline.cancel();
            }
            let repair_start = Instant::now();
            let repaired = solve_standard_form_inner::<Rational>(
                form,
                deadline,
                0.0,
                Some(&candidate),
                Some(*cap),
            );
            phases.repair_time += repair_start.elapsed();
            phases.exact_iterations += repaired.iterations;
            phases.lu_updates += repaired.phases.lu_updates;
            phases.lu_refactorizations += repaired.phases.lu_refactorizations;
            match repaired.status {
                // The capped exact run converged: its answer is exact and final.
                LpStatus::Optimal | LpStatus::Infeasible | LpStatus::Unbounded => {
                    result = Some(repaired);
                    break;
                }
                // Deadline hit: no time left to keep repairing.
                LpStatus::TimedOut => {
                    result = Some(repaired);
                    break;
                }
                // Cap hit: continue from wherever the repair stopped.
                _ => {
                    if !repaired.basis.is_empty() {
                        candidate = repaired.basis;
                    }
                }
            }
        }
    }

    // ---- Pure exact fallback (uncapped, warm-started from the best basis seen). ----
    let mut solution = match result {
        Some(solution) => solution,
        None => {
            if fault::enter(SolvePhase::LpRepair) == Some(FaultKind::Deadline) {
                deadline.cancel();
            }
            let warm_exact: Option<&[usize]> =
                if !candidate.is_empty() { Some(&candidate) } else { warm };
            let repair_start = Instant::now();
            let exact = solve_standard_form_inner::<Rational>(form, deadline, 0.0, warm_exact, None);
            phases.repair_time += repair_start.elapsed();
            phases.exact_iterations += exact.iterations;
            phases.lu_updates += exact.phases.lu_updates;
            phases.lu_refactorizations += exact.phases.lu_refactorizations;
            if debug {
                eprintln!(
                    "[lp] float-first: exact fallback {:?} in {:.2}s ({} pivots)",
                    exact.status,
                    phases.repair_time.as_secs_f64(),
                    exact.iterations
                );
            }
            exact
        }
    };

    // An optimum produced by the exact simplex (repair or fallback) carries its own
    // terminal dual out of the revised simplex; prefer it — re-deriving the dual via
    // Markowitz can pad a degenerate basis differently and fail to re-certify.
    if dual.is_none() {
        dual = solution.dual.clone();
    }
    // Last resort: certify the basis once more when the caller needs a dual. The
    // pass can only confirm — the exact simplex terminated on this basis — or run
    // out of time.
    if want_dual && dual.is_none() && solution.status == LpStatus::Optimal && !solution.truncated {
        let certify_start = Instant::now();
        let certified = certify_basis(form, &solution.basis, deadline);
        phases.certify_time += certify_start.elapsed();
        dual = match certified {
            Certified::Accepted(certificate) => Some(certificate.dual),
            Certified::Rejected { .. } => None,
        };
    }
    // A truncated anytime answer carries the best exact lower bound seen, so the
    // caller can bracket the unproven optimum: `dual_bound ≤ optimum ≤ objective`.
    if solution.truncated && solution.dual_bound.is_none() {
        solution.dual_bound = best_lower;
    }
    // Defensive: a solution whose basis failed dual recovery must not silently claim
    // proven optimality to the row-generation driver; the driver downgrades it to an
    // anytime answer (see the `None` dual arm there).
    (solution, dual)
}

/// Delayed column generation over the lazy Handelman-multiplier columns.
///
/// Starts from the active core — every non-lazy column plus any lazy column the
/// warm-start basis names — solves the column-restricted sub-problem with the
/// full float-first pipeline, then *exactly* prices every still-excluded lazy
/// column against the sub-problem's exact dual:
///
/// * `Optimal`: a column with negative exact reduced cost `c_j − y·A_j < 0`
///   could improve the optimum, so it is activated and the solve repeats,
///   warm-started from the previous basis. When none prices negative, exact
///   dual feasibility holds over the *full* column set, so the restricted
///   optimum extended with zeros is a certified optimum of the full problem —
///   the verdict (status and optimal value) is identical to the eager solve's.
/// * `Infeasible`: the exact phase-1 Farkas certificate of the restricted
///   system is re-derived and re-verified ([`phase1_farkas`]); an excluded
///   column pricing `y₁·A_j > 0` could break it, so it is activated and the
///   solve repeats. When none can, the same certificate proves the full system
///   infeasible. If the certificate cannot be recovered in time, every
///   remaining lazy column is activated and the final round degenerates to the
///   eager solve — slower, never wrong.
/// * Anything else (unbounded, timeout, anytime-truncated optimum) is returned
///   as-is: a restricted feasible point is a feasible point of the full
///   problem, so truncated answers keep their sound-upper-bound meaning, and an
///   unbounded restricted problem makes the full problem unbounded a fortiori.
///
/// Every non-terminal round strictly grows the active set, so the loop
/// terminates after at most `lazy.len()` activations.
fn solve_with_row_generation(
    form: &StandardForm<Rational>,
    deadline: &Deadline,
    warm: Option<&[usize]>,
    lazy: &[usize],
    phases: &mut PhaseStats,
    debug: bool,
) -> RawSolution<Rational> {
    let n = form.costs.len();
    let mut is_lazy = vec![false; n];
    for &col in lazy {
        is_lazy[col] = true;
    }
    // Active core: everything that is not lazy, plus warm-start columns — a basis
    // threaded in from a previous escalation rung already names the lazy columns
    // that mattered there, so row-generation state travels across rungs for free.
    let mut active: Vec<bool> = is_lazy.iter().map(|&lazy| !lazy).collect();
    if let Some(warm) = warm {
        for &col in warm {
            active[col] = true;
        }
    }
    phases.products_total = lazy.len();
    let mut warm_full: Option<Vec<usize>> = warm.map(<[usize]>::to_vec);

    let (mut sub, sub_cols, basis_full) = loop {
        phases.separation_rounds += 1;
        // Deadline faults at the separation boundary exercise the real
        // cancellation path; a numeric fault has nothing to reject here.
        if fault::enter(SolvePhase::LpRowGen) == Some(FaultKind::Deadline) {
            deadline.cancel();
        }
        let sub_cols: Vec<usize> = (0..n).filter(|&j| active[j]).collect();
        let mut sub_of = vec![usize::MAX; n];
        for (sub_j, &j) in sub_cols.iter().enumerate() {
            sub_of[j] = sub_j;
        }
        // All rows are kept, so the sub-problem's duals are directly usable for
        // pricing full-form columns. `model_columns` is presolve metadata and the
        // sub-form never passes through presolve, so it stays empty.
        let sub_form = StandardForm {
            columns: form.columns.select(&sub_cols),
            rhs: form.rhs.clone(),
            costs: sub_cols.iter().map(|&j| form.costs[j].clone()).collect(),
            model_columns: Vec::new(),
        };
        let warm_sub: Option<Vec<usize>> = warm_full.as_ref().map(|warm| {
            warm.iter().filter(|&&j| sub_of[j] != usize::MAX).map(|&j| sub_of[j]).collect()
        });
        if debug {
            eprintln!(
                "[lp] rowgen round {}: {} rows x {}/{} columns active, {} nnz",
                phases.separation_rounds,
                sub_form.columns.rows,
                sub_cols.len(),
                n,
                sub_form.columns.nnz()
            );
        }
        // The f64 phase only pays off on the first round: later rounds re-solve the
        // same rows with a strictly larger column set, where the previous optimal
        // basis (primal feasible by construction) makes warm-started exact pricing
        // the fastest path to the new optimum.
        let use_float = phases.separation_rounds == 1;
        let (mut sub, dual) = certified_core(
            &sub_form,
            deadline,
            warm_sub.as_deref(),
            phases,
            debug,
            true,
            use_float,
        );
        let basis_full: Vec<usize> = sub.basis.iter().map(|&j| sub_cols[j]).collect();
        warm_full = Some(basis_full.clone());

        let excluded = || (0..n).filter(|&j| is_lazy[j] && !active[j]);
        match sub.status {
            LpStatus::Optimal if !sub.truncated => {
                let Some(dual) = dual else {
                    // Deadline before the dual could be certified: the restricted
                    // optimum is still exactly feasible for the full problem, so
                    // report it with anytime semantics rather than claiming a
                    // proven optimum the separation check never confirmed.
                    if debug {
                        eprintln!("[lp] rowgen: no dual for restricted optimum; anytime");
                    }
                    sub.truncated = true;
                    break (sub, sub_cols, basis_full);
                };
                let violated: Vec<usize> = excluded()
                    .filter(|&j| form.costs[j].sub(&form.columns.dot(&dual, j)).is_negative())
                    .collect();
                if violated.is_empty() {
                    if debug {
                        eprintln!("[lp] rowgen: no excluded column prices negative; optimal");
                    }
                    break (sub, sub_cols, basis_full);
                }
                if debug {
                    eprintln!("[lp] rowgen: activating {} violated columns", violated.len());
                }
                for j in violated {
                    active[j] = true;
                }
            }
            LpStatus::Infeasible => {
                let certify_start = Instant::now();
                let farkas = phase1_farkas(&sub_form, &sub.basis, deadline);
                phases.certify_time += certify_start.elapsed();
                match farkas {
                    Some(farkas) => {
                        // Phase-1 structural costs are 0, so an excluded column
                        // prices `−y₁·A_j`: only `y₁·A_j > 0` could pull the
                        // artificial sum below its positive optimum.
                        let violated: Vec<usize> = excluded()
                            .filter(|&j| form.columns.dot(&farkas, j).is_positive())
                            .collect();
                        if violated.is_empty() {
                            break (sub, sub_cols, basis_full);
                        }
                        if debug {
                            eprintln!(
                                "[lp] rowgen: {} columns may break the Farkas certificate",
                                violated.len()
                            );
                        }
                        for j in violated {
                            active[j] = true;
                        }
                    }
                    None if deadline.expired() => {
                        sub.status = LpStatus::TimedOut;
                        sub.truncated = true;
                        break (sub, sub_cols, basis_full);
                    }
                    None => {
                        // The certificate could not be re-derived from the final
                        // basis (Markowitz re-pivoting landed elsewhere). Activate
                        // everything: the next round solves the full column set,
                        // whose verdict needs no separation argument.
                        if debug {
                            eprintln!(
                                "[lp] rowgen: Farkas recovery failed; falling back to eager"
                            );
                        }
                        if excluded().next().is_none() {
                            break (sub, sub_cols, basis_full);
                        }
                        for j in 0..n {
                            if is_lazy[j] {
                                active[j] = true;
                            }
                        }
                    }
                }
            }
            _ => break (sub, sub_cols, basis_full),
        }
    };

    phases.products_generated = lazy.iter().filter(|&&j| active[j]).count();
    // A dual bound certified against the *restricted* column set only bounds the
    // restricted optimum (which is ≥ the full optimum), so it survives only when
    // every lazy column ended up active.
    if sub.dual_bound.is_some() && (0..n).any(|j| is_lazy[j] && !active[j]) {
        sub.dual_bound = None;
    }
    // Expand the restricted answer to the full column space: excluded columns sit
    // at zero (they are nonbasic by construction).
    if sub.status == LpStatus::Optimal {
        let mut values = vec![Rational::zero(); n];
        for (sub_j, value) in sub.values.iter().enumerate() {
            values[sub_cols[sub_j]] = value.clone();
        }
        sub.values = values;
    }
    sub.basis = basis_full;
    sub
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    fn accepted(certified: Certified) -> Option<Certificate> {
        match certified {
            Certified::Accepted(certificate) => Some(certificate),
            Certified::Rejected { .. } => None,
        }
    }

    /// minimize -x - y  s.t.  x + y + s = 4: optimum -4 at x + y = 4.
    #[test]
    fn float_first_certifies_a_simple_optimum() {
        let form = StandardForm::from_dense_rows(
            vec![vec![r(1, 1), r(1, 1), r(1, 1)]],
            vec![r(4, 1)],
            vec![r(-1, 1), r(-1, 1), r(0, 1)],
        );
        let solution = solve_float_first(&form, &Deadline::unlimited(), None, &[]);
        assert_eq!(solution.status, LpStatus::Optimal);
        assert!(solution.phases.certified);
        assert!(solution.phases.certify_rounds >= 1, "the certifier must have run");
        assert_eq!(solution.phases.exact_iterations, 0, "no exact repair needed");
        let total = solution.values[0].clone() + solution.values[1].clone();
        assert_eq!(total, r(4, 1));
    }

    #[test]
    fn float_first_agrees_with_exact_on_infeasible() {
        let form = StandardForm::from_dense_rows(
            vec![vec![r(1, 1)], vec![r(1, 1)]],
            vec![r(2, 1), r(3, 1)],
            vec![r(0, 1)],
        );
        let solution = solve_float_first(&form, &Deadline::unlimited(), None, &[]);
        assert_eq!(solution.status, LpStatus::Infeasible);
    }

    #[test]
    fn certifier_rejects_a_suboptimal_basis() {
        // minimize x1 with x1 + x2 = 1: optimum picks x2 basic. The basis {x1} is
        // feasible but not optimal, so certification must fail on it.
        let form = StandardForm::from_dense_rows(
            vec![vec![r(1, 1), r(1, 1)]],
            vec![r(1, 1)],
            vec![r(1, 1), r(0, 1)],
        );
        assert!(
            accepted(certify_basis(&form, &[0], &Deadline::unlimited())).is_none(),
            "x1 basic is not optimal"
        );
        let certificate = accepted(certify_basis(&form, &[1], &Deadline::unlimited()))
            .expect("x2 basic is optimal");
        assert_eq!(certificate.values, vec![r(0, 1), r(1, 1)]);
    }

    #[test]
    fn certifier_rejects_infeasible_bases_and_nonzero_artificials() {
        // x1 - x2 = 1 with basis {x2}: x2 = -1 < 0 → infeasible basis.
        let form = StandardForm::from_dense_rows(
            vec![vec![r(1, 1), r(-1, 1)]],
            vec![r(1, 1)],
            vec![r(0, 1), r(0, 1)],
        );
        assert!(accepted(certify_basis(&form, &[1], &Deadline::unlimited())).is_none());
        // Empty candidate: the row is covered by an artificial that must be 0 but
        // solves to 1 → reject.
        assert!(accepted(certify_basis(&form, &[], &Deadline::unlimited())).is_none());
        // With rhs = 0 the all-artificial basis is exactly feasible and optimal.
        let zero_form = StandardForm { rhs: vec![r(0, 1)], ..form };
        assert!(accepted(certify_basis(&zero_form, &[], &Deadline::unlimited())).is_some());
    }

    /// minimize 2x1 + x2  s.t.  x1 - x2 = 1. Basis {x2} solves to x2 = -1: primal
    /// infeasible — but its dual y = -1 prices x1 at 2 - (-1)(1) = 3 ≥ 0, so the
    /// rejection must salvage the weak-duality bound y·b = -1 (≤ the optimum 2).
    #[test]
    fn rejected_dual_feasible_basis_yields_an_exact_lower_bound() {
        let form = StandardForm::from_dense_rows(
            vec![vec![r(1, 1), r(-1, 1)]],
            vec![r(1, 1)],
            vec![r(2, 1), r(1, 1)],
        );
        match certify_basis(&form, &[1], &Deadline::unlimited()) {
            Certified::Rejected { dual_bound: Some(bound) } => assert_eq!(bound, r(-1, 1)),
            Certified::Rejected { dual_bound: None } => panic!("bound must be salvaged"),
            Certified::Accepted(_) => panic!("x2 basic is primal infeasible"),
        }
    }
}
