//! The analyzer's benchmark: one closed-loop workload per run, every verdict checked
//! against its known answer, end-to-end metrics untraced and per-layer metrics from a
//! separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1-small|nested|serve-churn --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`, with
//! the end-to-end metrics when `--trace 0` and the per-layer metrics when
//! `--trace 1`. The process exits 1 when any verdict check failed and 2 on bad
//! arguments or a `DCA_*` switch in the environment. See `README.md` beside
//! `Cargo.toml` for what each metric measures.

mod churn;
mod layers;
mod measure;
mod serve;
mod speed;
mod stats;
mod verdict;
mod workload;

use std::process::exit;
use std::time::Instant;

use layers::Layers;
use measure::{Measured, END_TO_END};
use verdict::Tally;

/// A run sets its workload up at least this many times, and until
/// [`SETUP_MIN_SECONDS`] have passed; `setup_s` is the median.
const SETUP_MIN_REPEATS: usize = 3;

/// See [`SETUP_MIN_REPEATS`]: a set-up of a few milliseconds is repeated hundreds
/// of times, so its median does not swing with a single slow repetition.
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Per-layer metric names and units, in output order. `serve.*` metrics are 0 on
/// the analysis workloads; `host.reference_s` is the median time of the host-speed
/// reference kernel; `traced.*` are the end-to-end metrics of the traced run.
const PER_LAYER: [(&str, &str); 51] = [
    ("lang.compile_s", "s"),
    ("lang.transitions", "count"),
    ("invariants.analyze_s", "s"),
    ("ir.split_s", "s"),
    ("ir.phases_split", "count"),
    ("core.solve_s", "s"),
    ("core.solve_unbooked_s", "s"),
    ("core.solve_unbooked_share", "ratio"),
    ("core.transitions_pruned", "count"),
    ("handelman.encode_s", "s"),
    ("handelman.constraints", "count"),
    ("lp.presolve_s", "s"),
    ("lp.float_s", "s"),
    ("lp.certify_s", "s"),
    ("lp.repair_s", "s"),
    ("lp.float_pivots", "count"),
    ("lp.exact_pivots", "count"),
    ("lp.lu_updates", "count"),
    ("lp.lu_refactorizations", "count"),
    ("lp.separation_rounds", "count"),
    ("lp.certify_rounds", "count"),
    ("lp.rows", "count"),
    ("lp.cols", "count"),
    ("lp.products_total", "count"),
    ("lp.products_generated", "count"),
    ("lp.products_generated_ratio", "ratio"),
    ("serve.engine_s", "s"),
    ("serve.compile_cache_s", "s"),
    ("serve.lookup_s", "s"),
    ("serve.nearest_s", "s"),
    ("serve.transport_s", "s"),
    ("serve.hits", "count"),
    ("serve.near", "count"),
    ("serve.misses", "count"),
    ("serve.compiles", "count"),
    ("serve.cache_entries", "count"),
    ("serve.hit_ratio", "ratio"),
    ("verify.sample_s", "s"),
    ("verify.runs_checked", "count"),
    ("host.reference_s", "s"),
    ("traced.setup_s", "s"),
    ("traced.pairs_per_s", "1/s"),
    ("traced.verdict_p50_s", "s"),
    ("traced.cpu_s_per_pair", "s"),
    ("traced.hit_p50_ms", "ms"),
    ("traced.hit_p99_ms", "ms"),
    ("traced.miss_p50_ms", "ms"),
    ("traced.requests_per_s", "1/s"),
    ("traced.certified_ratio", "ratio"),
    ("traced.tight_ratio", "ratio"),
    ("traced.peak_rss_mb", "MiB"),
];

/// The command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn usage(message: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!(
        "usage: perfbench --workload table1-small|nested|serve-churn --seed N \
         --seconds S --trace 0|1"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        traced: false,
    };
    let mut given = std::env::args().skip(1);
    while let Some(flag) = given.next() {
        let Some(value) = given.next() else {
            usage(&format!("{flag} needs a value"))
        };
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("bad {flag}")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number(),
            "--seconds" => args.seconds = number() as f64,
            "--trace" => args.traced = number() == 1,
            _ => usage(&format!("unknown argument {flag}")),
        }
    }
    if args.seconds < 1.0 {
        usage("--seconds must be at least 1");
    }
    args
}

/// Sets the workload up repeatedly (see [`SETUP_MIN_REPEATS`]), recording each
/// time in `measured.setup_s` and a timing of the host-speed reference kernel after
/// each in `measured.setup_reference_s`, and keeps the last result.
fn set_up<T>(measured: &mut Measured, mut prepare: impl FnMut() -> T) -> T {
    let started = Instant::now();
    loop {
        let t = Instant::now();
        let prepared = prepare();
        measured.setup_s.push(t.elapsed().as_secs_f64());
        let seed = measured.setup_reference_s.len() as u64;
        measured.setup_reference_s.push(speed::time_kernel(seed));
        if measured.setup_s.len() >= SETUP_MIN_REPEATS
            && started.elapsed().as_secs_f64() >= SETUP_MIN_SECONDS
        {
            return prepared;
        }
    }
}

fn main() {
    let args = parse_args();
    // The solver reads `DCA_*` switches from the environment; a run under one
    // measures a different program.
    let switches: Vec<String> = std::env::vars()
        .map(|(name, _)| name)
        .filter(|name| name.starts_with("DCA_"))
        .collect();
    if !switches.is_empty() {
        eprintln!("error: refusing to run with {} set", switches.join(", "));
        exit(2);
    }

    match stats::pin_to_one_cpu() {
        Some(cpu) => eprintln!("pinned to CPU {cpu}"),
        None => eprintln!("warning: could not pin to one CPU; latencies will be noisier"),
    }

    let mut setup = Measured::default();
    let (mut measured, mut tally, passes) = match args.workload.as_str() {
        "table1-small" | "nested" => {
            let (pairs, repeats) = if args.workload == "nested" {
                (workload::nested(), workload::NESTED_REPEATS)
            } else {
                (workload::table1_small(), workload::TABLE1_REPEATS)
            };
            let engine = set_up(&mut setup, || workload::set_up(&pairs));
            workload::run(&pairs, repeats, &engine, args.seconds, args.traced)
        }
        "serve-churn" => {
            let inputs = set_up(&mut setup, || serve::set_up(args.seed));
            serve::run(&inputs, args.seconds, args.traced)
        }
        other => usage(&format!("unknown workload {other:?}")),
    };
    measured.setup_s = setup.setup_s;
    measured.setup_reference_s = setup.setup_reference_s;
    measured.describe();
    if !measured.complete() {
        tally.fail(&args.workload, "too few samples for every latency metric");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.traced {
        let layers = per_layer(&measured, &mut tally, &passes);
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name), unit))
            .collect()
    } else {
        let values = measured.end_to_end(&tally);
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (_, value))| (name, value, unit))
            .collect()
    };
    for (name, value, unit) in &metrics {
        eprintln!("{name:<30} {value:>16.6} {unit}");
    }
    let rendered: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        rendered.join(", ")
    );
    if !tally.correct() {
        exit(1);
    }
}

/// The per-layer metrics of a traced run: the passes combined (counts must repeat
/// exactly across passes), the derived ratios, and the traced end-to-end metrics.
fn per_layer(measured: &Measured, tally: &mut Tally, passes: &[Layers]) -> Layers {
    let (mut layers, drifted) = layers::combine(passes);
    for name in drifted {
        tally.fail(name, "the count differs between passes of one run");
    }
    layers::add_ratios(&mut layers);
    let reference_s: Vec<f64> = measured
        .units
        .iter()
        .flat_map(|unit| unit.reference_s.iter().copied())
        .collect();
    if !reference_s.is_empty() {
        layers.add("host.reference_s", stats::median(&reference_s));
    }
    let served = layers.get("serve.hits") + layers.get("serve.near") + layers.get("serve.misses");
    if served > 0.0 {
        layers.add("serve.hit_ratio", layers.get("serve.hits") / served);
    }
    for (name, value) in measured.end_to_end(tally) {
        let traced: &'static str = PER_LAYER
            .iter()
            .find(|(n, _)| n.strip_prefix("traced.") == Some(name))
            .expect("traced name")
            .0;
        layers.add(traced, value);
    }
    layers
}
