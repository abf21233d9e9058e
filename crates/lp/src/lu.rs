//! Markowitz-ordered sparse LU factorization over exact rationals.
//!
//! The basis certifier (see [`crate::certify`]) has to factorize one candidate basis
//! `B` in exact arithmetic per certification round. The revised simplex's own
//! [`Factorization::reinvert`](crate::revised::Factorization) processes columns in a
//! caller-given order and pivots on the largest transformed magnitude — the right call
//! for `f64` stability, but irrelevant (magnitude) and fill-oblivious (order) for
//! rationals, where *fill-in is the entire cost*: every extra non-zero is a gcd-heavy
//! rational multiply in all later eliminations.
//!
//! This module runs a right-looking Gauss–Jordan elimination on a sparse working copy
//! of the basis with the classical **Markowitz pivot rule**: at each step it picks a
//! non-zero entry minimizing `(r_i − 1)(c_j − 1)` (the worst-case fill of that pivot),
//! searching the sparsest active columns first. The pivot column — as transformed by
//! the eliminations so far — is exactly the product-form eta of the existing
//! factorization machinery, so the result is a plain
//! [`Factorization`](crate::revised::Factorization) whose `ftran`/`btran` the
//! certifier reuses unchanged.
//!
//! Rank deficiency is handled the way the simplex does: structural columns whose
//! active entries are exhausted are dropped, and rows left unassigned at the end are
//! covered by artificial identity columns (reported to the caller — a certified
//! solution must carry *zero* in those rows).

use crate::revised::{Columns, Eta, Factorization};
use crate::scalar::Scalar;

/// The result of a Markowitz factorization.
// The diagnostic fields (`artificial_rows`, `dropped_cols`, `fill`) are consumed by
// the unit tests and kept for debug tooling; the certifier reads the padded basis
// directly off `factor.basis`.
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) struct LuFactors<S> {
    /// The product-form factorization; `basis[row]` is the column assigned to `row`
    /// (structural index, or `n + row'` for an artificial filler).
    pub factor: Factorization<S>,
    /// Rows that had to fall back to artificial columns (the preferred basis was
    /// rank-deficient there).
    pub artificial_rows: Vec<usize>,
    /// Preferred columns that proved linearly dependent and were dropped.
    pub dropped_cols: Vec<usize>,
    /// Non-zeros of the eta file (the fill the Markowitz ordering was minimizing;
    /// surfaced for diagnostics).
    pub fill: usize,
}

/// How many equally-sparse candidate columns the pivot search examines per step
/// (Suhl-style bounded Markowitz search; beyond a handful the ordering quality gain
/// no longer pays for the scan).
const CANDIDATE_COLS: usize = 8;

/// Growth threshold for the exact backend's incremental eta updates: a full
/// refactorization is worthwhile once the *weighted* eta size appended since the
/// last rebuild (non-zeros scaled by rational bit length, see
/// `crate::revised::Eta::weight`) exceeds this multiple of the basis fill itself,
/// because every FTRAN/BTRAN then spends most of its arithmetic on update debris
/// rather than the factorization proper. Weighting by bit length is what makes the
/// policy react to the dominant exact-arithmetic failure mode — fractions
/// compounding down a long eta chain while plain fill stays flat. The baseline is
/// floored at the row count so tiny near-identity factorizations (fill ≈ a handful
/// of entries) do not trigger rebuilds after every pivot.
const ETA_FILL_FACTOR: usize = 2;

/// Hard cap on etas accumulated between exact rebuilds: an absolute backstop that
/// bounds update-chain length even when the weighted-growth trigger stays quiet.
const ETA_COUNT_CAP: usize = 256;

/// Decides whether the exact backend should replace its incrementally-updated
/// factorization (rank-1 eta appends per pivot) with a fresh Markowitz rebuild.
///
/// Exact arithmetic makes this purely a *cost* policy — the updated factorization is
/// exactly correct regardless (see the eta-update consistency fuzz in this module's
/// tests) — so the trigger is eta-file growth, not numerical drift: rebuild when the
/// appended weighted size exceeds [`ETA_FILL_FACTOR`] × the basis fill (floored at
/// `rows`), or when [`ETA_COUNT_CAP`] etas have accumulated since the last rebuild.
pub(crate) fn should_refactorize(
    etas_since: usize,
    eta_nnz_since: usize,
    base_fill: usize,
    rows: usize,
) -> bool {
    etas_since >= ETA_COUNT_CAP || eta_nnz_since > ETA_FILL_FACTOR * base_fill.max(rows)
}

/// One active column of the working matrix: sorted `(row, value)` non-zeros.
type SparseCol<S> = Vec<(usize, S)>;

/// Factorizes the basis `{columns[j] : j ∈ basis_cols}` (deduplicated, in Markowitz
/// order) and pads uncovered rows with artificials.
pub(crate) fn factorize_markowitz<S: Scalar>(
    columns: &Columns<S>,
    basis_cols: &[usize],
) -> LuFactors<S> {
    let m = columns.rows;
    let n = columns.cols.len();

    // Working copies of the distinct preferred columns.
    let mut work: Vec<SparseCol<S>> = Vec::new();
    let mut work_col_id: Vec<usize> = Vec::new();
    let mut seen = vec![false; n + m];
    for &col in basis_cols {
        if col >= n + m || seen[col] {
            continue;
        }
        seen[col] = true;
        let entries: SparseCol<S> = if col < n {
            columns.cols[col].clone()
        } else {
            vec![(col - n, S::one())]
        };
        work.push(entries);
        work_col_id.push(col);
    }

    let mut factor = Factorization::new(vec![usize::MAX; m]);
    let mut assigned = vec![false; m];
    let mut processed = vec![false; work.len()];
    let mut dropped_cols = Vec::new();
    let mut fill = 0usize;

    // Active counts: `col_count[k]` = non-zeros of working column `k` in unassigned
    // rows; `row_count[i]` = non-zeros of row `i` across unprocessed working columns.
    let mut col_count: Vec<usize> = work.iter().map(Vec::len).collect();
    let mut row_count = vec![0usize; m];
    // `row_cols[i]`: the working columns that hold, or once held, an entry on row
    // `i` (an exact cancellation leaves a stale member, a later fill-in a repeated
    // one). Each elimination visits only the columns on its pivot row.
    let mut row_cols: Vec<Vec<usize>> = vec![Vec::new(); m];
    for (k, col) in work.iter().enumerate() {
        for (row, _) in col {
            row_count[*row] += 1;
            row_cols[*row].push(k);
        }
    }
    // The elimination step that last updated each working column (skips repeats).
    let mut updated_at = vec![usize::MAX; work.len()];

    for step in 0..work.len() {
        // Columns with no active entry are dependent on the ones already processed:
        // drop them now so the candidate scan never stalls on them.
        for k in 0..work.len() {
            if !processed[k] && col_count[k] == 0 {
                processed[k] = true;
                for (row, _) in &work[k] {
                    if !assigned[*row] {
                        row_count[*row] -= 1;
                    }
                }
                dropped_cols.push(work_col_id[k]);
            }
        }
        // Bounded Markowitz search: examine the `CANDIDATE_COLS` sparsest active
        // columns; within each, the unassigned row minimizing `row_count − 1`.
        let mut candidates: Vec<usize> = (0..work.len()).filter(|&k| !processed[k]).collect();
        if candidates.is_empty() {
            break;
        }
        // The keys are distinct, so selecting the smallest few and sorting just
        // those gives the same candidates in the same order as a full sort.
        if candidates.len() > CANDIDATE_COLS {
            candidates.select_nth_unstable_by_key(CANDIDATE_COLS - 1, |&k| (col_count[k], k));
            candidates.truncate(CANDIDATE_COLS);
        }
        candidates.sort_unstable_by_key(|&k| (col_count[k], k));
        let mut best: Option<(usize, usize, usize)> = None; // (cost, col k, row)
        for &k in &candidates {
            for (row, _) in &work[k] {
                if assigned[*row] {
                    continue;
                }
                let cost = (col_count[k] - 1) * (row_count[*row] - 1);
                let better = match best {
                    None => true,
                    Some((c, bk, br)) => {
                        cost < c || (cost == c && (k, *row) < (bk, br))
                    }
                };
                if better {
                    best = Some((cost, k, *row));
                }
                if cost == 0 {
                    break;
                }
            }
            if matches!(best, Some((0, ..))) {
                break;
            }
        }
        let Some((_, k, pivot_row)) = best else { break };

        // Build the eta from the pivot column's current (transformed) state. The
        // pivot was just selected from `work[k]`'s own entries, so the lookup is
        // infallible; a miss is treated like "no usable pivot" (rank deficiency)
        // rather than a panic.
        let pivot_entry = work[k]
            .iter()
            .find(|(row, _)| *row == pivot_row)
            .map(|(_, v)| v.clone());
        let Some(pivot_value) = pivot_entry else { break };
        let others: Vec<(usize, S)> = work[k]
            .iter()
            .filter(|(row, _)| *row != pivot_row)
            .map(|(row, v)| (*row, v.clone()))
            .collect();
        let eta = Eta { pivot: pivot_row, pivot_value, others };
        fill += 1 + eta.others.len();

        // Retire the pivot column and row from the active counts.
        processed[k] = true;
        for (row, _) in &work[k] {
            if !assigned[*row] {
                row_count[*row] -= 1;
            }
        }
        assigned[pivot_row] = true;
        factor.basis[pivot_row] = work_col_id[k];

        // Apply the eta to every other unprocessed column (Jordan elimination):
        // x[pivot] := x[pivot]/p, then x[i] -= others[i] · x[pivot]. Only columns
        // with an entry on the pivot row change; each update touches its own column
        // and adds to the shared counts, so the visiting order does not matter.
        for j in std::mem::take(&mut row_cols[pivot_row]) {
            if processed[j] || updated_at[j] == step {
                continue;
            }
            updated_at[j] = step;
            let col = &mut work[j];
            let Ok(position) = col.binary_search_by_key(&pivot_row, |(row, _)| *row) else {
                continue;
            };
            let t = col[position].1.div(&eta.pivot_value);
            col[position].1 = t.clone();
            // The pivot row is now assigned, so this entry leaves the active counts.
            col_count[j] -= 1;
            if eta.others.is_empty() {
                continue;
            }
            // Merge `col -= t · others` (both sorted by row).
            let mut merged: SparseCol<S> = Vec::with_capacity(col.len() + eta.others.len());
            let (mut a, mut b) = (0usize, 0usize);
            while a < col.len() || b < eta.others.len() {
                let next_a = col.get(a).map(|(row, _)| *row);
                let next_b = eta.others.get(b).map(|(row, _)| *row);
                match (next_a, next_b) {
                    (Some(ra), Some(rb)) if ra == rb => {
                        let value = col[a].1.sub(&eta.others[b].1.mul(&t));
                        if value.is_exactly_zero() {
                            // Exact cancellation: the entry leaves the matrix.
                            if !assigned[ra] {
                                col_count[j] -= 1;
                                row_count[ra] -= 1;
                            }
                        } else {
                            merged.push((ra, value));
                        }
                        a += 1;
                        b += 1;
                    }
                    (Some(ra), Some(rb)) if ra < rb => {
                        merged.push(col[a].clone());
                        a += 1;
                    }
                    (Some(_), None) => {
                        merged.push(col[a].clone());
                        a += 1;
                    }
                    (_, Some(rb)) => {
                        // Fill-in: a brand-new non-zero at row `rb`.
                        let value = eta.others[b].1.mul(&t).neg();
                        if !assigned[rb] {
                            col_count[j] += 1;
                            row_count[rb] += 1;
                            row_cols[rb].push(j);
                        }
                        merged.push((rb, value));
                        b += 1;
                    }
                    (None, None) => unreachable!(),
                }
            }
            *col = merged;
        }

        factor.push(eta);
    }

    for (k, done) in processed.iter().enumerate() {
        if !done {
            dropped_cols.push(work_col_id[k]);
        }
    }

    // Artificial padding for uncovered rows, transformed through the accumulated etas
    // exactly like the simplex's reinversion does.
    let mut artificial_rows = Vec::new();
    let mut scratch = vec![S::zero(); m];
    for row in 0..m {
        if assigned[row] {
            continue;
        }
        let col = n + row;
        columns.scatter(col, &mut scratch);
        factor.ftran(&mut scratch);
        let pivot = (0..m).find(|&i| !assigned[i] && !scratch[i].is_exactly_zero());
        let Some(pivot_row) = pivot else {
            // Cannot happen for a genuine identity column, but stay defensive: leave
            // the row to a later artificial.
            continue;
        };
        let others: Vec<(usize, S)> = scratch
            .iter()
            .enumerate()
            .filter(|(i, v)| *i != pivot_row && !v.is_exactly_zero())
            .map(|(i, v)| (i, v.clone()))
            .collect();
        fill += 1 + others.len();
        factor.push(Eta {
            pivot: pivot_row,
            pivot_value: scratch[pivot_row].clone(),
            others,
        });
        factor.basis[pivot_row] = col;
        assigned[pivot_row] = true;
        artificial_rows.push(pivot_row);
    }

    LuFactors { factor, artificial_rows, dropped_cols, fill }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::StandardForm;
    use dca_numeric::Rational;

    fn r(n: i64, d: i64) -> Rational {
        Rational::new(n, d)
    }

    fn columns(matrix: Vec<Vec<Rational>>) -> Columns<Rational> {
        let rows = matrix.len();
        let n = matrix.first().map_or(0, Vec::len);
        let (rhs, costs) = (vec![Rational::zero(); rows], vec![Rational::zero(); n]);
        StandardForm::from_dense_rows(matrix, rhs, costs).columns
    }

    /// `B · ftran(e_i) = e_i` for every basis column: the factorization really is an
    /// inverse of the chosen basis.
    fn check_inverse(cols: &Columns<Rational>, lu: &LuFactors<Rational>) {
        let m = cols.rows;
        let n = cols.cols.len();
        for j in 0..n {
            let mut d = vec![Rational::zero(); m];
            cols.scatter(j, &mut d);
            lu.factor.ftran(&mut d);
            // Reconstruct B · d and compare with the original column.
            let mut reconstructed = vec![Rational::zero(); m];
            for (pos, &col) in lu.factor.basis.iter().enumerate() {
                if d[pos].is_exactly_zero() {
                    continue;
                }
                if col < n {
                    for (row, value) in &cols.cols[col] {
                        reconstructed[*row] = reconstructed[*row].add(&value.mul(&d[pos]));
                    }
                } else {
                    reconstructed[col - n] = reconstructed[col - n].add(&d[pos]);
                }
            }
            let mut original = vec![Rational::zero(); m];
            cols.scatter(j, &mut original);
            assert_eq!(reconstructed, original, "column {j} does not reconstruct");
        }
    }

    #[test]
    fn factorizes_a_full_rank_basis_exactly() {
        let cols = columns(vec![
            vec![r(2, 1), r(1, 1), r(0, 1)],
            vec![r(0, 1), r(1, 1), r(3, 1)],
            vec![r(1, 1), r(0, 1), r(1, 1)],
        ]);
        let lu = factorize_markowitz(&cols, &[0, 1, 2]);
        assert!(lu.artificial_rows.is_empty());
        assert!(lu.dropped_cols.is_empty());
        check_inverse(&cols, &lu);
        // ftran solves B x = b exactly: b = (3, 4, 2) → column sums check.
        let mut x = vec![r(3, 1), r(4, 1), r(2, 1)];
        lu.factor.ftran(&mut x);
        let mut back = vec![Rational::zero(); 3];
        for (pos, &col) in lu.factor.basis.iter().enumerate() {
            for (row, value) in &cols.cols[col] {
                back[*row] = back[*row].add(&value.mul(&x[pos]));
            }
        }
        assert_eq!(back, vec![r(3, 1), r(4, 1), r(2, 1)]);
    }

    #[test]
    fn dependent_columns_drop_and_artificials_pad() {
        // Column 1 = 2 · column 0; only one of them can pivot, the second row falls
        // back to an artificial.
        let cols = columns(vec![
            vec![r(1, 1), r(2, 1)],
            vec![r(2, 1), r(4, 1)],
        ]);
        let lu = factorize_markowitz(&cols, &[0, 1]);
        assert_eq!(lu.dropped_cols.len(), 1);
        assert_eq!(lu.artificial_rows.len(), 1);
        check_inverse(&cols, &lu);
    }

    #[test]
    fn markowitz_prefers_sparse_pivots() {
        // A dense first column and a diagonal tail: the Markowitz order must pivot
        // the singleton columns first, so the dense column contributes exactly one
        // eta and total fill stays linear.
        let mut matrix = Vec::new();
        let size = 12usize;
        for i in 0..size {
            let mut row = vec![Rational::one()]; // dense column 0
            for j in 1..size {
                row.push(if i == j { r(3, 1) } else { Rational::zero() });
            }
            matrix.push(row);
        }
        let cols = columns(matrix);
        let basis: Vec<usize> = (0..size).collect();
        let lu = factorize_markowitz(&cols, &basis);
        assert!(lu.artificial_rows.is_empty());
        check_inverse(&cols, &lu);
        // Singleton pivots produce 1-entry etas; only the dense column's eta is big.
        assert!(
            lu.fill <= 2 * size + size,
            "fill {} should stay linear in the dimension",
            lu.fill
        );
    }

    /// The simplex's incremental eta updates and a fresh Markowitz factorization are
    /// interchangeable: after every simulated pivot (`push_eta` on the transformed
    /// entering column), solving `B·x = b` through the updated eta file gives exactly
    /// the same per-column solution as refactorizing the current basis from scratch.
    /// This is the correctness contract behind [`should_refactorize`] being a pure
    /// *cost* policy — the fuzz drives 120 random pivots across 4 deterministic seeds
    /// and compares both `ftran` (primal) and `btran` (dual pricing) answers exactly.
    #[test]
    fn eta_updates_match_fresh_markowitz_factorization() {
        // xorshift-style LCG: deterministic, no external randomness.
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        for seed in 0..4 {
            let m = 6 + seed as usize; // 6..=9 rows
            let n = 2 * m;
            // Sparse-ish random matrix with small rational entries.
            let mut matrix = vec![vec![Rational::zero(); n]; m];
            for row in matrix.iter_mut() {
                for value in row.iter_mut() {
                    if next() % 2 == 0 {
                        let num = next() % 7 - 3;
                        let den = next() % 3 + 1;
                        *value = r(num, den);
                    }
                }
            }
            let cols = columns(matrix);
            // Start from the all-artificial basis (always nonsingular) and walk a
            // random pivot sequence, mirroring the simplex's update exactly:
            // d = B⁻¹·A_entering, replace the basis column at a row where d ≠ 0.
            let mut factor = Factorization::new((n..n + m).collect());
            let b: Vec<Rational> = (0..m).map(|i| r(next() % 9 - 4, i as i64 + 1)).collect();
            let costs: Vec<Rational> = (0..m).map(|_| r(next() % 5 - 2, 1)).collect();
            let mut pivots = 0;
            let mut attempts = 0;
            while pivots < 30 && attempts < 300 {
                attempts += 1;
                let entering = (next() as usize) % n;
                if factor.basis.contains(&entering) {
                    continue;
                }
                let mut d = vec![Rational::zero(); m];
                cols.scatter(entering, &mut d);
                factor.ftran(&mut d);
                // Any row with d ≠ 0 keeps the basis nonsingular; pick pseudo-randomly.
                let nonzero: Vec<usize> =
                    (0..m).filter(|&row| !d[row].is_exactly_zero()).collect();
                if nonzero.is_empty() {
                    continue; // dependent column: not a legal pivot
                }
                let leaving = nonzero[(next() as usize) % nonzero.len()];
                factor.basis[leaving] = entering;
                factor.push_eta(&d, leaving);
                pivots += 1;

                // Fresh factorization of the same basis set.
                let fresh = factorize_markowitz(&cols, &factor.basis);
                assert!(
                    fresh.artificial_rows.is_empty() && fresh.dropped_cols.is_empty(),
                    "seed {seed}: pivoted basis must stay nonsingular"
                );
                // Primal: B x = b, compared per basis column (the two factorizations
                // may assign columns to different row positions).
                let mut via_eta = b.clone();
                factor.ftran(&mut via_eta);
                let mut via_fresh = b.clone();
                fresh.factor.ftran(&mut via_fresh);
                for (pos, &col) in factor.basis.iter().enumerate() {
                    let fresh_pos = fresh
                        .factor
                        .basis
                        .iter()
                        .position(|&c| c == col)
                        .expect("same basis set");
                    assert_eq!(
                        via_eta[pos], via_fresh[fresh_pos],
                        "seed {seed} pivot {pivots}: primal solutions diverge on column {col}"
                    );
                }
                // Dual: y = c_B B⁻¹ with c permuted to each factorization's own row
                // assignment; the resulting y is basis-intrinsic and must agree.
                let cost_of = |col: usize| -> Rational {
                    // Deterministic per-column phase-2-style cost.
                    if col < n { costs[col % m].clone() } else { Rational::zero() }
                };
                let mut y_eta: Vec<Rational> =
                    factor.basis.iter().map(|&c| cost_of(c)).collect();
                factor.btran(&mut y_eta);
                let mut y_fresh: Vec<Rational> =
                    fresh.factor.basis.iter().map(|&c| cost_of(c)).collect();
                fresh.factor.btran(&mut y_fresh);
                assert_eq!(
                    y_eta, y_fresh,
                    "seed {seed} pivot {pivots}: dual vectors diverge"
                );
            }
            assert!(pivots >= 10, "seed {seed}: fuzz must exercise real pivots");
        }
    }

    /// `btran_unit(r)` equals the dense `btran` of `e_r` for every row, exactly, on
    /// the three kinds of eta file the simplex produces: a fresh Markowitz
    /// factorization, that file after a run of `push_eta` appends, and the file of a
    /// refactorization of the pivoted basis, whose row index is rebuilt from scratch
    /// and then appended to again.
    #[test]
    fn btran_unit_matches_dense_btran_of_unit_vectors() {
        let mut state = 0x1319_8a2e_0370_7344u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as i64
        };
        let check = |factor: &Factorization<Rational>, m: usize, context: &str| {
            for r in 0..m {
                let mut dense = vec![Rational::zero(); m];
                dense[r] = Rational::one();
                factor.btran(&mut dense);
                assert_eq!(factor.btran_unit(r), dense, "{context}: row {r}");
            }
        };
        for seed in 0..4 {
            let m = 8 + 2 * seed as usize; // 8..=14 rows
            let n = 2 * m;
            // Sparse random matrix: about a third of the entries non-zero, so unit
            // BTRANs reach only part of the eta file.
            let mut matrix = vec![vec![Rational::zero(); n]; m];
            for row in matrix.iter_mut() {
                for value in row.iter_mut() {
                    if next() % 3 == 0 {
                        *value = r(next() % 9 - 4, next() % 4 + 1);
                    }
                }
            }
            let cols = columns(matrix);
            let mut factor = factorize_markowitz(&cols, &(0..n).collect::<Vec<_>>()).factor;
            check(&factor, m, &format!("seed {seed}, fresh"));
            // Two runs of appends, the second after a refactorization of the pivoted
            // basis (a new file, so a new row index).
            for run in 0..2 {
                let mut pivots = 0;
                let mut attempts = 0;
                while pivots < 12 && attempts < 200 {
                    attempts += 1;
                    let entering = (next() as usize) % (n + m);
                    if factor.basis.contains(&entering) {
                        continue;
                    }
                    let mut d = vec![Rational::zero(); m];
                    cols.scatter(entering, &mut d);
                    factor.ftran(&mut d);
                    let nonzero: Vec<usize> =
                        (0..m).filter(|&row| !d[row].is_exactly_zero()).collect();
                    if nonzero.is_empty() {
                        continue;
                    }
                    let leaving = nonzero[(next() as usize) % nonzero.len()];
                    factor.basis[leaving] = entering;
                    factor.push_eta(&d, leaving);
                    pivots += 1;
                    check(&factor, m, &format!("seed {seed}, run {run}, pivot {pivots}"));
                }
                assert!(pivots >= 6, "seed {seed}: the fuzz must exercise real pivots");
                factor = factorize_markowitz(&cols, &factor.basis).factor;
                check(&factor, m, &format!("seed {seed}, refactorized after run {run}"));
            }
        }
    }

    #[test]
    fn btran_matches_ftran_duality() {
        let cols = columns(vec![
            vec![r(1, 1), r(1, 1), r(0, 1), r(2, 1)],
            vec![r(0, 1), r(3, 1), r(1, 1), r(0, 1)],
            vec![r(2, 1), r(0, 1), r(0, 1), r(1, 1)],
            vec![r(0, 1), r(1, 1), r(1, 1), r(1, 1)],
        ]);
        let lu = factorize_markowitz(&cols, &[3, 0, 2, 1]);
        check_inverse(&cols, &lu);
        // y·A_j computed via btran equals c_B·(B⁻¹A_j) computed via ftran.
        let costs = vec![r(1, 1), r(-2, 1), r(0, 1), r(5, 1)];
        let mut y = costs.clone();
        lu.factor.btran(&mut y);
        for j in 0..4 {
            let mut d = vec![Rational::zero(); 4];
            cols.scatter(j, &mut d);
            let via_btran = d
                .iter()
                .enumerate()
                .fold(Rational::zero(), |acc, (row, v)| acc.add(&y[row].mul(v)));
            cols.scatter(j, &mut d);
            lu.factor.ftran(&mut d);
            let via_ftran = d
                .iter()
                .enumerate()
                .fold(Rational::zero(), |acc, (pos, v)| acc.add(&costs[pos].mul(v)));
            assert_eq!(via_btran, via_ftran, "duality breaks on column {j}");
        }
    }
}
