//! A fixed reference computation that measures how fast the host runs
//! right now.
//!
//! On a shared host the same code runs up to half again faster or slower
//! from one second to the next, as other tenants load and free the core
//! and its caches. The probe does a fixed amount of work shaped like the
//! simulator's own (an event heap, scattered state updates and an ordered
//! map), so those swings slow it in step with the simulator. It is timed
//! right before and right after every simulated run, and the benchmark
//! scales that run's host times by [`REFERENCE_NS`] over the probe's time.
//! The probe's code is part of the benchmark, never of the program, so a
//! change to the program cannot move it.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::Instant;

/// Probe time, in ns, of the host speed every scaled time refers to. It is
/// a round number near the probe's median time (about 11 ms) on a 2-vCPU
/// shared Intel Xeon host, so scaled times read close to that host's own.
/// Changing it rescales every reported time.
pub const REFERENCE_NS: f64 = 1.0e7;

const EVENTS: u32 = 4096;
const STEPS: u32 = 40_000;
const SLOTS: usize = 1 << 17;

/// One xorshift64 step.
fn next(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The probe's work; returns a checksum so that none of it is optimised
/// away.
fn work() -> u64 {
    let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
    let mut heap = BinaryHeap::with_capacity(EVENTS as usize);
    for id in 0..EVENTS {
        heap.push(Reverse((next(&mut rng) % 1_000_000, id)));
    }
    let mut slots = vec![0u64; SLOTS];
    let mut tree = BTreeMap::new();
    let mut sum = 0u64;
    for _ in 0..STEPS {
        let Some(Reverse((t, id))) = heap.pop() else { break };
        let r = next(&mut rng);
        let slot = r as usize & (SLOTS - 1);
        slots[slot] = slots[slot].wrapping_add(t ^ u64::from(id));
        let key = slots[slot] & 0x3fff;
        if r & 3 == 0 {
            tree.insert(key, t);
        } else if let Some(v) = tree.remove(&(t & 0x3fff)) {
            sum = sum.wrapping_add(v);
        }
        heap.push(Reverse((t + 1 + (r >> 40) % 1000, id)));
    }
    sum.wrapping_add(slots.iter().fold(0, |a, &s| a ^ s)).wrapping_add(tree.len() as u64)
}

/// Times one probe, in ns.
pub fn time_ns() -> f64 {
    let started = Instant::now();
    std::hint::black_box(work());
    started.elapsed().as_secs_f64() * 1e9
}

/// Runs the probe until its time settles (page faults and cold caches
/// gone) and returns the last time, in ns.
pub fn warm_up() -> f64 {
    (0..3).fold(REFERENCE_NS, |_, _| time_ns())
}
