//! A fixed reference computation, independent of the emulator, that an
//! untraced leg times before its set-up and before every round to learn how
//! fast the machine runs at that moment.
//!
//! On a shared VM the host's speed swings by up to 2× for seconds to many
//! minutes at a time, as other tenants load the same cores. Wall times of
//! the same code then move with the host, not with the code. Scaling a
//! leg's wall times by [`NOMINAL`] over the median time of this computation
//! during the leg removes most of that swing, since both slow down together.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Time of one [`probe`] on the nominal machine the end-to-end metrics are
/// scaled to.
pub const NOMINAL: Duration = Duration::from_micros(500);

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Times one pass of the reference computation: 8,000 hash-map updates and
/// lookups in a cache-resident table (about 0.5 ms).
pub fn probe() -> Duration {
    let started = Instant::now();
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(4_096);
    let mut sum = 0u64;
    for i in 0..8_000u64 {
        *map.entry(mix(i) % 4_000).or_insert(0) += i;
        sum = sum.wrapping_add(map.get(&(mix(i + 7) % 4_000)).copied().unwrap_or(1));
    }
    black_box(sum);
    started.elapsed()
}
