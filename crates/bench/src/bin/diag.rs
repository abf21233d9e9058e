//! Pipeline stage timing diagnostics (developer tool).

use std::time::Instant;

use dca_benchmarks::{all_benchmarks, running_example};
use dca_core::{AnalyzedProgram, DiffCostSolver};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "SimpleSingle".to_string());
    let benchmark = all_benchmarks()
        .into_iter()
        .chain([running_example()])
        .find(|b| b.name == name)
        .expect("unknown benchmark");
    let report = |label: &str, program: &AnalyzedProgram, seconds: f64| {
        let lps = program.invariants.query_stats();
        eprintln!(
            "{label} invariants: {seconds:.2}s, {} locations, {} LP queries, {} solved",
            program.ts.num_locations(),
            lps.queries,
            lps.solves
        );
    };
    let t0 = Instant::now();
    let old = benchmark.old_program();
    report("old", &old, t0.elapsed().as_secs_f64());
    let t1 = Instant::now();
    let new = benchmark.new_program();
    report("new", &new, t1.elapsed().as_secs_f64());
    for loc in new.ts.locations() {
        let n = new.invariants.constraints_at(loc).len();
        eprintln!("  invariant size at {}: {}", new.ts.location_name(loc), n);
    }
    let t2 = Instant::now();
    let solver = DiffCostSolver::new(benchmark.options());
    let result = solver.solve(&new, &old);
    eprintln!("solve: {:.2}s -> {:?}", t2.elapsed().as_secs_f64(), result.map(|r| (r.threshold, r.stats.lp_variables, r.stats.lp_constraints)).map_err(|e| e.to_string()));
}
