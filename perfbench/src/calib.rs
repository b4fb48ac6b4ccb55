//! A fixed reference workload that times this machine's current speed.
//!
//! The host the benchmark runs on drifts in speed by tens of percent
//! over seconds to minutes (shared cores). The reference is timed next
//! to every measured repeat, and times are reported scaled by it, which
//! cancels most of that drift. It uses no code from the program under
//! test, so a change to the program never moves it.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The reference's nominal time, ns: calibrated seconds are seconds on
/// a host where the reference takes this long (about its time on a
/// 2-core x86-64 development VM when that VM runs at full speed).
pub const NOMINAL_NS: f64 = 5e6;

/// The factor that turns a wall time measured beside a reference run
/// of `reference_ns` into calibrated time.
pub fn scale(reference_ns: f64) -> f64 {
    NOMINAL_NS / reference_ns
}

/// Runs the reference three times; returns the median wall time, ns.
pub fn reference_ns() -> u64 {
    let mut t: Vec<u64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(reference_work(black_box(20_000)));
            start.elapsed().as_nanos() as u64
        })
        .collect();
    t.sort_unstable();
    t[1]
}

/// Hash-map inserts and lookups, small allocations and a sort: the mix
/// of work a discrete-event network simulation does.
fn reference_work(n: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut keys = Vec::with_capacity(n as usize);
    for i in 0..n {
        let k = next();
        keys.push(k);
        map.insert(k, vec![i as u8; 16 + (k % 48) as usize]);
    }
    let mut acc = 0u64;
    for i in 0..4 * n {
        let k = keys[(next() % n) as usize];
        acc = acc.wrapping_add(map.get(&k).map_or(0, |v| v.len() as u64) + i);
    }
    keys.sort_unstable();
    acc.wrapping_add(keys[(n / 2) as usize])
}
