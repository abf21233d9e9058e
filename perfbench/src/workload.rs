//! The analysis workloads (`table1-small`, `nested`): closed-loop passes over
//! Table-1 pairs, one analysis in flight at a time, with a repeat-query probe.
//!
//! A pass analyzes every pair cold through `DiffCostSolver::solve`, bypassing every
//! cache, and checks each verdict against the paper's tight value. Right after each
//! cold verdict it asks the pair again through an in-process `dca_serve::Engine`
//! whose solve cache holds that answer, so the hit metrics time the engine's
//! repeat-query path (program-cache and solve-cache lookups, no transport) on these
//! programs.

use std::time::Instant;

use dca_core::{AnalysisOptions, AnalyzedProgram, DiffCostResult, DiffCostSolver, InvariantTier};
use dca_serve::{AnalyzeRequest, Engine, Frame, Request};

use crate::layers::{self, Layers};
use crate::measure::{Measured, Unit};
use crate::verdict::{Answer, Tally};

/// Repeat queries per `table1-small` pass, spread evenly over its pairs and so over
/// the whole pass.
pub const TABLE1_REPEATS: usize = 4000;

/// Repeat queries per `nested` pass. They all follow the one solve, so there are
/// more of them: 20,000 take about two seconds, long enough to average over the
/// host's short swings, where 4,000 hits read anywhere from 0.08 to 0.14 ms.
pub const NESTED_REPEATS: usize = 20_000;

/// One program pair with its known tight threshold.
#[derive(Debug, Clone)]
pub struct Pair {
    /// Benchmark name.
    pub name: String,
    /// Source of the new version.
    pub new: String,
    /// Source of the old version.
    pub old: String,
    /// Template degree the pair is analyzed at.
    pub degree: u32,
    /// The known tight threshold.
    pub tight: i64,
    /// Initial states the traced run samples to check the threshold on concrete
    /// runs (0 skips the check).
    pub verify_samples: usize,
}

/// Initial states sampled per pair by the traced run's soundness check, as the
/// benchmark crate's own reconstruction test samples them.
pub const VERIFY_SAMPLES: usize = 8;

/// The Table-1 pairs, `join` included, at the paper's degrees; `keep` selects them
/// by name.
fn table1(keep: impl Fn(&str) -> bool) -> Vec<Pair> {
    let mut benchmarks = dca_benchmarks::all_benchmarks();
    benchmarks.push(dca_benchmarks::running_example());
    benchmarks
        .into_iter()
        .filter(|b| keep(b.name))
        .map(|b| Pair {
            name: b.name.to_string(),
            new: b.source_new.to_string(),
            old: b.source_old.to_string(),
            degree: b.degree,
            tight: b.tight,
            // Every run of the cubic `nested` pair outgrows the explorer's step cap,
            // so sampling would check nothing there and take minutes.
            verify_samples: if b.name == "nested" {
                0
            } else {
                VERIFY_SAMPLES
            },
        })
        .collect()
}

/// The 19 Table-1 rows other than `nested`.
pub fn table1_small() -> Vec<Pair> {
    let pairs = table1(|name| name != "nested");
    assert_eq!(pairs.len(), 19, "Table 1 has 20 rows, join included");
    pairs
}

/// The `nested` row alone, at degree 3.
pub fn nested() -> Vec<Pair> {
    let pairs = table1(|name| name == "nested");
    assert!(
        pairs.len() == 1 && pairs[0].degree == 3,
        "nested is one degree-3 row"
    );
    pairs
}

/// The set-up of an analysis workload: every program compiled and analyzed once,
/// which checks the inputs before any time is measured, and the engine that
/// answers repeat queries. The cold passes analyze every program again.
pub fn set_up(pairs: &[Pair]) -> Engine {
    for pair in pairs {
        for source in [&pair.new, &pair.old] {
            let program = AnalyzedProgram::from_source_at_tier(source, InvariantTier::Baseline)
                .unwrap_or_else(|e| panic!("{}: {e}", pair.name));
            std::hint::black_box(program);
        }
    }
    Engine::new()
}

/// Runs passes until `seconds` have elapsed (at least one), tracing each analysis
/// when `traced` is set. A pass analyzes each pair cold and then asks it again
/// through the engine, `repeats_per_pass` queries in all.
/// Returns the measurements, the verdict tally and, when traced, the per-layer
/// values of each pass.
pub fn run(
    pairs: &[Pair],
    repeats_per_pass: usize,
    engine: &Engine,
    seconds: f64,
    traced: bool,
) -> (Measured, Tally, Vec<Layers>) {
    // With several pairs, each pair's repeat queries, and so the host-speed
    // reference timings among them, follow its cold verdict through the whole pass,
    // and the cold verdicts followed the reference (correlation 0.93 over ten
    // `table1-small` runs). With one pair, every timing comes after its one long
    // solve, which did not follow them (`nested`: correlation 0.14), so only the
    // hits are corrected.
    let mut measured = Measured {
        corrected: pairs.len() > 1,
        ..Measured::default()
    };
    let mut tally = Tally::default();
    let mut passes = Vec::new();
    let repeats = repeats_per_pass.div_ceil(pairs.len());
    let started = Instant::now();
    loop {
        let mut layers = Layers::default();
        let mut unit = Unit::default();
        for pair in pairs {
            if let Some(result) = cold(pair, traced, &mut layers, &mut unit, &mut tally) {
                repeat(pair, &result, repeats, engine, &mut unit, &mut tally);
            }
        }
        measured.units.push(unit);
        passes.push(layers);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (measured, tally, passes)
}

/// Analyzes one pair cold; returns the answer when it is certified and tight.
fn cold(
    pair: &Pair,
    traced: bool,
    layers: &mut Layers,
    unit: &mut Unit,
    tally: &mut Tally,
) -> Option<DiffCostResult> {
    let cpu = crate::stats::thread_cpu_s();
    let t = Instant::now();
    let solved = if traced {
        layers::analyze_traced(pair, layers)
    } else {
        analyze(pair)
    };
    unit.record_cold(t.elapsed().as_secs_f64());
    unit.cpu_s += crate::stats::thread_cpu_s() - cpu;
    let answer = match &solved {
        Ok(result) => Answer::Threshold {
            value: result.threshold_int(),
            certified: result.outcome().is_certified(),
        },
        Err(error) => {
            eprintln!("{}: {error}", pair.name);
            Answer::Error
        }
    };
    let ok = tally.check(&pair.name, answer, pair.tight);
    solved.ok().filter(|_| ok)
}

/// The untraced analysis: compile, analyze invariants and solve, as one call each.
fn analyze(pair: &Pair) -> Result<DiffCostResult, String> {
    let tier = InvariantTier::Baseline;
    let new = AnalyzedProgram::from_source_at_tier(&pair.new, tier)?;
    let old = AnalyzedProgram::from_source_at_tier(&pair.old, tier)?;
    DiffCostSolver::new(AnalysisOptions::with_degree(pair.degree))
        .solve(&new, &old)
        .map_err(|error| error.to_string())
}

/// Puts a certified answer into the engine's solve cache and asks the pair again
/// `repeats` times; every answer must be a pivot-free hit with the cold threshold.
fn repeat(
    pair: &Pair,
    result: &DiffCostResult,
    repeats: usize,
    engine: &Engine,
    unit: &mut Unit,
    tally: &mut Tally,
) {
    let tier = InvariantTier::Baseline;
    let compile = |source: &str| {
        engine
            .program_cache()
            .get_or_compile(source, tier)
            .expect("the source compiled cold")
    };
    let (new, old) = (compile(&pair.new), compile(&pair.old));
    let options = AnalysisOptions::with_degree(pair.degree).with_invariant_tier(tier);
    engine
        .solve_cache()
        .insert(&new, &old, &options, result, None);

    let mut request = AnalyzeRequest::new(pair.name.clone(), &pair.new, &pair.old);
    request.degree = Some(pair.degree);
    let request = Request::Analyze(request);
    for _ in 0..repeats {
        let mut reply = None;
        let t = Instant::now();
        engine.handle(&request, &mut |frame| reply = Some(frame));
        unit.record_hit(t.elapsed().as_secs_f64());
        let Some(Frame::Result(frame)) = reply else {
            tally.check(&pair.name, Answer::Error, pair.tight);
            continue;
        };
        let answer = Answer::Threshold {
            value: frame.threshold_int,
            certified: frame.outcome == "certified",
        };
        tally.check(&pair.name, answer, pair.tight);
        if frame.cache != "hit" || frame.lp_iterations != 0 {
            tally.fail(&pair.name, "a repeat query was not a pivot-free cache hit");
        } else if frame.threshold_int != result.threshold_int() {
            tally.fail(&pair.name, "a cache hit changed the threshold");
        }
    }
}
