//! The `serve-churn` workload: one client sends a seeded Zipf request stream, one
//! request at a time, over one loopback TCP connection to an in-process engine.
//!
//! A round starts a fresh `Engine` and serves the connection on one benchmark
//! thread with `dca_serve::serve_connection`, so each pair of the pool misses once
//! (or warm-starts from a `near` ancestor) and then hits. Rounds repeat the same
//! stream until the run's time is up. Latency is timed at the client, from writing
//! the request line to reading the final frame.
//!
//! The traced run serves the connection with its own loop instead, which times
//! `Engine::handle` and, before it, calls the caches the engine is about to call:
//! `ProgramCache::get_or_compile` on both sources, `SolveCache::lookup` and, on a
//! miss, `SolveCache::nearest_basis`. Those probe calls are extra work on the
//! request's path. After the rounds it probes every pool pair's layers once, cold
//! and outside the engine (see [`crate::layers`]).

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Instant;

use dca_core::{AnalysisOptions, InvariantTier};
use dca_ir::GeneratedPair;
use dca_serve::json::Value;
use dca_serve::{serve_connection, AnalyzeRequest, Engine, Request};

use crate::layers::{self, Layers};
use crate::measure::{Measured, Unit};
use crate::verdict::{Answer, Tally};
use crate::workload::Pair;

/// The inputs of one run: the pool, the stream, and each request's protocol line.
pub struct Inputs {
    pool: Vec<GeneratedPair>,
    stream: Vec<usize>,
    lines: Vec<String>,
}

/// Server-side times of one traced round, in seconds.
#[derive(Debug, Default)]
struct ServerTimes {
    engine_s: f64,
    compile_cache_s: f64,
    lookup_s: f64,
    nearest_s: f64,
}

/// Builds the inputs of `seed`.
fn inputs(seed: u64) -> Inputs {
    let pool = crate::churn::pool(seed);
    let stream = crate::churn::stream(seed, pool.len());
    let lines = stream
        .iter()
        .enumerate()
        .map(|(i, &index)| {
            let pair = &pool[index];
            let mut request = AnalyzeRequest::new(
                format!("{i}:{}", pair.name),
                &pair.source_new,
                &pair.source_old,
            );
            request.degree = Some(pair.degree);
            let mut line = request.to_json();
            line.push('\n');
            line
        })
        .collect();
    Inputs {
        pool,
        stream,
        lines,
    }
}

/// A loopback connection: the client's end and the server's end.
fn connect() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let client = TcpStream::connect(listener.local_addr()?)?;
    let (server, _) = listener.accept()?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    Ok((client, server))
}

/// The set-up of `serve-churn`: draw the inputs, start an engine serving one
/// loopback connection, and wait for its answer to a `ping`.
pub fn set_up(seed: u64) -> Inputs {
    let inputs = inputs(seed);
    let engine = Engine::new();
    let (client, server) = connect().expect("loopback connection");
    std::thread::scope(|scope| {
        // Owned here, so a panic below closes the connection and the server
        // thread ends before the scope joins it.
        let client = client;
        let serving = scope.spawn(|| serve(&engine, server));
        let mut reader = BufReader::new(&client);
        (&client)
            .write_all(b"{\"cmd\": \"ping\"}\n")
            .expect("send ping");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read pong");
        assert!(reply.contains("pong"), "unexpected reply to ping: {reply}");
        client
            .shutdown(Shutdown::Write)
            .expect("close the request stream");
        serving
            .join()
            .expect("server thread")
            .expect("serve the connection");
    });
    inputs
}

fn serve(engine: &Engine, stream: TcpStream) -> io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    serve_connection(engine, reader, stream)
}

/// Runs rounds until `seconds` have elapsed (at least one). Returns the
/// measurements, the verdict tally and, when traced, the per-layer values of each
/// round followed by one probe pass over the pool.
pub fn run(inputs: &Inputs, seconds: f64, traced: bool) -> (Measured, Tally, Vec<Layers>) {
    let mut measured = Measured {
        corrected: true,
        ..Measured::default()
    };
    let mut tally = Tally::default();
    let mut rounds = Vec::new();
    let started = Instant::now();
    loop {
        let mut unit = Unit::default();
        let layers = round(inputs, traced, &mut unit, &mut tally);
        measured.units.push(unit);
        rounds.push(layers);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if traced {
        let probe = probe_pool(&inputs.pool, &mut tally);
        for layers in &mut rounds {
            layers
                .0
                .extend(probe.0.iter().map(|(name, value)| (*name, *value)));
        }
    }
    (measured, tally, rounds)
}

/// One pass of the stream through a fresh engine.
fn round(inputs: &Inputs, traced: bool, unit: &mut Unit, tally: &mut Tally) -> Layers {
    let engine = Engine::new();
    let (client, server) = connect().expect("loopback connection");
    let mut layers = Layers::default();
    let times = std::thread::scope(|scope| {
        // Owned here, so a panic below closes the connection and the server
        // thread ends before the scope joins it.
        let client = client;
        let serving = scope.spawn(|| {
            if traced {
                serve_traced(&engine, server)
            } else {
                serve(&engine, server).map(|()| ServerTimes::default())
            }
        });
        let mut reader = BufReader::new(&client);
        // The first answer of each pair, which every later hit must repeat.
        let mut first: Vec<Option<i64>> = vec![None; inputs.pool.len()];
        let mut reply = String::new();
        for (&index, line) in inputs.stream.iter().zip(&inputs.lines) {
            let pair = &inputs.pool[index];
            // The first request of a pair in a round is its cold verdict.
            let cold = first[index].is_none();
            reply.clear();
            let cpu = if cold {
                crate::stats::process_cpu_s()
            } else {
                0.0
            };
            let t = Instant::now();
            (&client).write_all(line.as_bytes()).expect("send request");
            reader.read_line(&mut reply).expect("read reply");
            let seconds = t.elapsed().as_secs_f64();
            let cache = check_reply(pair, &reply, &mut first[index], tally);
            if cold {
                unit.cpu_s += crate::stats::process_cpu_s() - cpu;
                unit.record_cold(seconds);
                eprintln!("{cache} {} {:.1} ms", pair.name, seconds * 1e3);
            } else {
                unit.record_hit(seconds);
            }
            let counter = match cache.as_str() {
                "hit" => "serve.hits",
                "near" => "serve.near",
                _ => "serve.misses",
            };
            layers.add(counter, 1.0);
            layers.add("serve.client_s", seconds);
        }
        client
            .shutdown(Shutdown::Write)
            .expect("close the request stream");
        serving
            .join()
            .expect("server thread")
            .expect("serve the connection")
    });
    if traced {
        layers.add("serve.engine_s", times.engine_s);
        layers.add("serve.compile_cache_s", times.compile_cache_s);
        layers.add("serve.lookup_s", times.lookup_s);
        layers.add("serve.nearest_s", times.nearest_s);
        let server_s = times.engine_s + times.compile_cache_s + times.lookup_s + times.nearest_s;
        layers.add(
            "serve.transport_s",
            (layers.get("serve.client_s") - server_s).max(0.0),
        );
        layers.add("serve.compiles", engine.program_cache().compiles() as f64);
        layers.add("serve.cache_entries", engine.solve_cache().len() as f64);
    }
    layers.0.remove("serve.client_s");
    layers
}

/// Checks one reply line; returns its `cache` label (`"error"` for an error frame).
fn check_reply(
    pair: &GeneratedPair,
    reply: &str,
    first: &mut Option<i64>,
    tally: &mut Tally,
) -> String {
    let frame = Value::parse(reply.trim_end()).ok();
    let field = |key: &str| frame.as_ref().and_then(|f| f.get(key));
    let text = |key: &str| field(key).and_then(Value::as_str).unwrap_or("").to_string();
    if text("type") != "result" {
        tally.check(&pair.name, Answer::Error, pair.tight);
        eprintln!("{}: {}", pair.name, reply.trim_end());
        return "error".to_string();
    }
    let value = field("threshold_int")
        .and_then(Value::as_f64)
        .unwrap_or(f64::NAN) as i64;
    let cache = text("cache");
    let certified = text("outcome") == "certified";
    tally.check(
        &pair.name,
        Answer::Threshold { value, certified },
        pair.tight,
    );
    match (*first, cache.as_str()) {
        (None, "hit") => tally.fail(&pair.name, "the first request of a pair hit the cache"),
        (None, _) => *first = Some(value),
        (Some(_), "hit") if field("lp_iterations").and_then(Value::as_u64) != Some(0) => {
            tally.fail(&pair.name, "a cache hit pivoted")
        }
        (Some(known), "hit") if known != value => {
            tally.fail(&pair.name, "a cache hit changed the threshold")
        }
        (Some(_), "hit") => {}
        (Some(_), _) => tally.fail(&pair.name, "a repeated request missed the cache"),
    }
    cache
}

/// The traced server loop: [`serve_connection`]'s loop with `Engine::handle` timed,
/// after timed calls into the caches the engine is about to consult.
fn serve_traced(engine: &Engine, stream: TcpStream) -> io::Result<ServerTimes> {
    let mut times = ServerTimes::default();
    let reader = BufReader::new(stream.try_clone()?);
    let mut output = stream;
    for line in reader.lines() {
        let request = Request::parse(&line?).map_err(io::Error::other)?;
        if let Request::Analyze(analyze) = &request {
            probe_caches(engine, analyze, &mut times);
        }
        let mut written = Ok(());
        let t = Instant::now();
        engine.handle(&request, &mut |frame| {
            if written.is_ok() {
                written = writeln!(output, "{}", frame.to_json()).and_then(|()| output.flush());
            }
        });
        times.engine_s += t.elapsed().as_secs_f64();
        written?;
    }
    Ok(times)
}

/// Times the cache calls of one request from outside the engine.
fn probe_caches(engine: &Engine, request: &AnalyzeRequest, times: &mut ServerTimes) {
    let tier = InvariantTier::Baseline;
    let options =
        AnalysisOptions::with_degree(request.degree.unwrap_or(2)).with_invariant_tier(tier);
    let t = Instant::now();
    let new = engine
        .program_cache()
        .get_or_compile(&request.new_source, tier);
    let old = engine
        .program_cache()
        .get_or_compile(&request.old_source, tier);
    times.compile_cache_s += t.elapsed().as_secs_f64();
    let (Ok(new), Ok(old)) = (new, old) else {
        return;
    };
    let t = Instant::now();
    let hit = engine.solve_cache().lookup(&new, &old, &options);
    times.lookup_s += t.elapsed().as_secs_f64();
    if hit.is_none() {
        let t = Instant::now();
        std::hint::black_box(engine.solve_cache().nearest_basis(&new, &old, &options));
        times.nearest_s += t.elapsed().as_secs_f64();
    }
}

/// Probes the layers of every pool pair once, cold, outside the engine.
fn probe_pool(pool: &[GeneratedPair], tally: &mut Tally) -> Layers {
    let mut layers = Layers::default();
    for generated in pool {
        let pair = Pair {
            name: generated.name.clone(),
            new: generated.source_new.clone(),
            old: generated.source_old.clone(),
            degree: generated.degree,
            tight: generated.tight,
            verify_samples: crate::workload::VERIFY_SAMPLES,
        };
        match layers::analyze_traced(&pair, &mut layers) {
            Ok(result)
                if result.outcome().is_certified() && result.threshold_int() == pair.tight => {}
            Ok(result) => tally.fail(
                &pair.name,
                &format!(
                    "layer probe answered {} (known {})",
                    result.threshold_int(),
                    pair.tight
                ),
            ),
            Err(error) => tally.fail(&pair.name, &format!("layer probe: {error}")),
        }
    }
    layers
}
