//! Per-layer timing from outside: the traced run calls each layer's public function
//! in turn and times the call, then records the counters the solver returns.
//!
//! The probe of one pair makes these calls, in pipeline order:
//!
//! | metric | call |
//! |---|---|
//! | `lang.compile_s` | `dca_lang::compile` on both versions |
//! | `invariants.analyze_s` | `AnalyzedProgram::from_lowered_at_tier` on both |
//! | `ir.split_s` | `AnalyzedProgram::split_phases_at_tier` on both |
//! | `handelman.encode_s` | `ProgramTemplates::allocate` + `collect_program_constraints` on both |
//! | `core.solve_s` | `DiffCostSolver::solve` |
//! | `verify.sample_s` | `dca_core::verify::verify_threshold` |
//!
//! The split and encoding calls are extra work: `DiffCostSolver::solve` repeats both
//! inside its own span, so they measure the layer without removing it from the solve.

use std::collections::BTreeMap;
use std::time::Instant;

use dca_core::verify::{verify_threshold, VerifyConfig};
use dca_core::{
    collect_program_constraints, AnalysisOptions, AnalyzedProgram, ConstraintSet, DiffCostResult,
    DiffCostSolver, InvariantTier, ProgramTemplates, SolveStats, TemplateRole,
};
use dca_handelman::UnknownFactory;

use crate::workload::Pair;

/// Named per-layer values of one pass over a workload: seconds for `*_s` names,
/// counts otherwise.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    /// Adds `value` to the metric `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    /// Adds the seconds elapsed since `since` to the metric `name`.
    pub fn add_since(&mut self, name: &'static str, since: Instant) {
        self.add(name, since.elapsed().as_secs_f64());
    }

    /// The value of `name` (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// `true` for metrics that are times (and so vary between passes); every other
/// metric is a count that must repeat exactly.
pub fn is_time(name: &str) -> bool {
    name.ends_with("_s")
}

/// Combines the passes of one run: the median of each time, and each count, which
/// must agree across passes. Returns the names of counts that drifted.
pub fn combine(passes: &[Layers]) -> (Layers, Vec<&'static str>) {
    let mut combined = Layers::default();
    let mut drifted = Vec::new();
    let Some(first) = passes.first() else {
        return (combined, drifted);
    };
    for &name in first.0.keys() {
        let values: Vec<f64> = passes.iter().map(|pass| pass.get(name)).collect();
        if is_time(name) {
            combined.add(name, crate::stats::median(&values));
        } else {
            if values.iter().any(|v| *v != values[0]) {
                drifted.push(name);
            }
            combined.add(name, values[0]);
        }
    }
    (combined, drifted)
}

/// Analyzes one pair through the layers' public calls, timing each. Returns the
/// solver's answer, or its error rendered as text.
pub fn analyze_traced(pair: &Pair, layers: &mut Layers) -> Result<DiffCostResult, String> {
    let tier = InvariantTier::Baseline;
    let options = AnalysisOptions::with_degree(pair.degree);

    let t = Instant::now();
    let lowered_new = dca_lang::compile(&pair.new)?;
    let lowered_old = dca_lang::compile(&pair.old)?;
    layers.add_since("lang.compile_s", t);
    let transitions = lowered_new.ts.transitions().len() + lowered_old.ts.transitions().len();
    layers.add("lang.transitions", transitions as f64);

    let t = Instant::now();
    let new = AnalyzedProgram::from_lowered_at_tier(&lowered_new, tier);
    let old = AnalyzedProgram::from_lowered_at_tier(&lowered_old, tier);
    layers.add_since("invariants.analyze_s", t);

    let t = Instant::now();
    let split_new = new.split_phases_at_tier(tier);
    let split_old = old.split_phases_at_tier(tier);
    layers.add_since("ir.split_s", t);
    let splits = split_new.map_or(0, |(_, n)| n) + split_old.map_or(0, |(_, n)| n);
    layers.add("ir.phases_split", splits as f64);

    let t = Instant::now();
    let constraints = encode(&new, &old, &options);
    layers.add_since("handelman.encode_s", t);
    layers.add("handelman.constraints", constraints as f64);

    let t = Instant::now();
    let solved = DiffCostSolver::new(options).solve(&new, &old);
    let solve_s = t.elapsed().as_secs_f64();
    layers.add("core.solve_s", solve_s);
    let result = solved.map_err(|error| error.to_string())?;
    record_stats(&result.stats, solve_s, layers);

    if pair.verify_samples == 0 {
        return Ok(result);
    }
    let t = Instant::now();
    let config = VerifyConfig {
        samples: pair.verify_samples,
        ..VerifyConfig::default()
    };
    let report = verify_threshold(&new, &old, result.threshold, &config);
    layers.add_since("verify.sample_s", t);
    layers.add("verify.runs_checked", report.checked as f64);
    if let Some(violation) = report.violations.first() {
        return Err(format!("sampled run violates the threshold: {violation}"));
    }
    Ok(result)
}

/// The per-program Handelman constraints of the unsplit pair, built the way the
/// solver builds them; returns how many there are.
fn encode(new: &AnalyzedProgram, old: &AnalyzedProgram, options: &AnalysisOptions) -> usize {
    let mut factory = UnknownFactory::new();
    let mut set = ConstraintSet::new();
    for (program, role, prefix) in [
        (new, TemplateRole::Potential, "phi_new"),
        (old, TemplateRole::AntiPotential, "chi_old"),
    ] {
        let templates = ProgramTemplates::allocate(
            &program.ts,
            options.degree,
            options.include_cost_in_template,
            &mut factory,
            prefix,
        );
        collect_program_constraints(
            &program.ts,
            &program.invariants,
            &templates,
            role,
            options.max_products,
            &mut factory,
            &mut set,
        );
    }
    set.len()
}

/// Records the solver's own stage times and counters. `lp.presolve_s` is the
/// solver's `lp_presolve_time`, which also covers the standard-form copy made
/// before presolve. `core.solve_unbooked_s` is the solve time that none of the
/// four LP stage timers covers: invariant re-analysis, encoding and the second
/// (split or unsplit) solve whose stats the merged result does not carry.
fn record_stats(stats: &SolveStats, solve_s: f64, layers: &mut Layers) {
    let booked = [
        ("lp.presolve_s", stats.lp_presolve_time),
        ("lp.float_s", stats.lp_float_time),
        ("lp.certify_s", stats.lp_certify_time),
        ("lp.repair_s", stats.lp_repair_time),
    ];
    let mut booked_s = 0.0;
    for (name, time) in booked {
        layers.add(name, time.as_secs_f64());
        booked_s += time.as_secs_f64();
    }
    layers.add("core.solve_unbooked_s", (solve_s - booked_s).max(0.0));
    let counts = [
        ("core.transitions_pruned", stats.transitions_pruned),
        ("lp.float_pivots", stats.lp_float_iterations),
        ("lp.exact_pivots", stats.lp_exact_iterations),
        ("lp.lu_updates", stats.lp_lu_updates),
        ("lp.lu_refactorizations", stats.lp_lu_refactorizations),
        ("lp.separation_rounds", stats.lp_separation_rounds),
        ("lp.certify_rounds", stats.lp_certify_rounds),
        ("lp.rows", stats.lp_constraints),
        ("lp.cols", stats.lp_variables),
        ("lp.products_total", stats.lp_products_total),
        ("lp.products_generated", stats.lp_products_generated),
    ];
    for (name, count) in counts {
        layers.add(name, count as f64);
    }
}

/// Adds the ratios derived from the summed layers of a run.
pub fn add_ratios(layers: &mut Layers) {
    let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
    let unbooked = share(
        layers.get("core.solve_unbooked_s"),
        layers.get("core.solve_s"),
    );
    layers.add("core.solve_unbooked_share", unbooked);
    let generated = share(
        layers.get("lp.products_generated"),
        layers.get("lp.products_total"),
    );
    layers.add("lp.products_generated_ratio", generated);
}
