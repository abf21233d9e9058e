//! The host-speed reference that corrects the benchmark's times.
//!
//! The benchmark runs on a virtual machine that shares its server with other
//! tenants. Its speed drifts with their load, and averaging over a longer window
//! does not remove the drift: over eight minutes on the 2-CPU Xeon machine the
//! benchmark was built on, the mean cost of an engine cache hit over 15 s windows
//! had a quartile spread of 0.29 of its median, and over 60 s windows still 0.25.
//!
//! So a run also times [`kernel`], a fixed computation of the benchmark's own that
//! calls nothing in the analyzer, once every [`EVERY_HITS`] hits and after each
//! set-up repetition. Each unit's hit latencies are scaled by [`NOMINAL_S`] over
//! the unit's median kernel time: they read as if the host ran at the speed at
//! which the kernel takes [`NOMINAL_S`]. The hit p50 followed the kernel time with
//! correlation 0.98, per `serve-churn` round and across ten `nested` runs. Where
//! the kernel timings are spread through the unit (`serve-churn`, `table1-small`),
//! its cold latencies and CPU times, and the set-up time, are scaled the same way:
//! the cold verdicts followed the kernel with correlation 0.78 per `serve-churn`
//! round and 0.93 across ten `table1-small` runs. `nested`'s one 70 s solve did not
//! follow the kernel timed after it (correlation 0.14) and is reported as
//! measured. The README beside `Cargo.toml` gives the measurements.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Hits between two timings of [`kernel`]. At about 0.2 ms a hit and 2 ms a
/// kernel, the reference costs under 3% of the hit time and gives each unit at
/// least two timings (a unit has at least 1,000 hits; a `serve-churn` round has
/// eleven). The hit after a timing finds its caches cooled by the kernel; one hit
/// in 400 stays well inside the 1% beyond the 99th percentile.
pub const EVERY_HITS: usize = 400;

/// The kernel's time at which corrected times equal measured ones: about
/// its median on the machine the benchmark was built on.
pub const NOMINAL_S: f64 = 0.002;

/// Maps built per kernel call, entries per map, and deep clones of the maps.
const MAPS: usize = 60;
const ENTRIES: u32 = 30;
const CLONES: usize = 4;

/// The reference computation: builds [`MAPS`] maps of short strings to small
/// vectors from `seed` and deep-clones them [`CLONES`] times, the same mix of
/// small allocations, pointer chasing and copying as a cache hit. Returns a
/// checksum so that the work cannot be optimised away.
pub fn kernel(seed: u64) -> usize {
    let mut x = seed | 1;
    let maps: Vec<BTreeMap<String, Vec<u32>>> = (0..MAPS)
        .map(|_| {
            (0..ENTRIES)
                .map(|entry| {
                    // xorshift64
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let values = (0..12).map(|k| (x as u32) ^ k).collect();
                    (format!("v{}_{entry}", x % 997), values)
                })
                .collect()
        })
        .collect();
    (0..CLONES)
        .map(|_| {
            black_box(maps.clone())
                .iter()
                .map(BTreeMap::len)
                .sum::<usize>()
        })
        .sum()
}

/// Times one call of [`kernel`], in seconds, on the reference thread.
///
/// The kernel runs on a thread of its own, started on first use (and so pinned to
/// the same CPU as the thread that starts it), so that it allocates from its own
/// `malloc` arena. On the thread that had just solved a Table-1 pair, its time
/// also measured that thread's heap: five `table1-small` runs gave kernel medians
/// from 1.97 to 2.37 ms while the hits they were timed between did not move. The
/// caller waits for the answer, so the two threads never run at once.
pub fn time_kernel(seed: u64) -> f64 {
    type Channels = (Sender<u64>, Receiver<f64>);
    static REFERENCE: OnceLock<Mutex<Channels>> = OnceLock::new();
    let channels = REFERENCE.get_or_init(|| {
        let (seeds, requests) = mpsc::channel::<u64>();
        let (replies, times) = mpsc::channel::<f64>();
        std::thread::spawn(move || {
            for seed in requests {
                let t = Instant::now();
                black_box(kernel(black_box(seed)));
                if replies.send(t.elapsed().as_secs_f64()).is_err() {
                    break;
                }
            }
        });
        Mutex::new((seeds, times))
    });
    let (seeds, times) = &*channels.lock().unwrap_or_else(PoisonError::into_inner);
    seeds
        .send(seed)
        .expect("the reference thread runs for the whole process");
    times
        .recv()
        .expect("the reference thread answers every seed")
}
