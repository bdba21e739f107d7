//! Host-speed calibration for the measured phases.
//!
//! On a shared host the speed of memory-bound code swings by a third or
//! more over seconds, as other tenants fill the shared cache; a purely
//! compute-bound loop barely moves. A run's wall times therefore depend
//! on how much of it the host spent in its slow state. To take that out,
//! a [`Meter`] times each lap of a measured phase (a quantum, a feed
//! step) and, between laps, runs a fixed reference kernel: hash-map
//! inserts and lookups plus random reads over a 4 MiB table, the same
//! kind of work the simulated routers do. Each lap's wall time is then
//! rescaled by `REF_KERNEL_MS / kernel time`, with the kernel time taken
//! as the mean of the samples just before and just after the lap. The
//! rescaled time is what the lap would have taken with the host running
//! the kernel in `REF_KERNEL_MS`.
//!
//! The kernel is the benchmark's own code and calls nothing in the
//! repository, so a change to the program moves the rescaled times and
//! leaves the kernel alone. Calibration runs outside the laps: it is in
//! no raw or rescaled time, and in the traced run it is its own
//! `phase.calibrate` span.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

use crate::trace::Tracer;

/// Reference kernel time in milliseconds: about its median on the
/// 2-vCPU Xeon host of `STEADINESS.md`, so rescaled times read close to
/// wall times there.
pub const REF_KERNEL_MS: f64 = 4.0;

/// Wall time of laps after which the meter samples the kernel again.
const CAL_EVERY_S: f64 = 0.1;

/// Keys the kernel inserts into (and then looks up in) a fresh map.
const MAP_KEYS: usize = 20_000;

/// Random reads over the table.
const TABLE_READS: usize = 200_000;

/// Table entries: 4 MiB of `u64`, past the private L2 cache.
const TABLE_LEN: usize = 1 << 19;

type FixedMap = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

/// The reference kernel and its input table.
struct Kernel {
    table: Vec<u64>,
    state: u64,
}

impl Kernel {
    fn new() -> Self {
        Kernel {
            table: (0..TABLE_LEN as u64).collect(),
            state: 0x2545_f491_4f6c_dd1d,
        }
    }

    fn next(&mut self) -> u64 {
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.state
    }

    /// Run the kernel once; wall milliseconds.
    fn sample(&mut self) -> f64 {
        let t = Instant::now();
        let span = MAP_KEYS as u64 * 4;
        let mut map = FixedMap::default();
        for i in 0..MAP_KEYS as u64 {
            let k = self.next() % span;
            map.insert(k, i);
        }
        let mut sum = map.len() as u64;
        for _ in 0..MAP_KEYS {
            let k = self.next() % span;
            sum = sum.wrapping_add(map.get(&k).copied().unwrap_or(0));
        }
        let mask = TABLE_LEN as u64 - 1;
        for _ in 0..TABLE_READS {
            let k = self.next() & mask;
            sum = sum.wrapping_add(self.table[k as usize]);
        }
        std::hint::black_box(sum);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Times the laps of a measured phase and the kernel between them.
pub struct Meter {
    kernel: Kernel,
    /// Kernel samples, in milliseconds, in the order taken.
    samples: Vec<f64>,
    /// Raw lap seconds, each with the index of the sample before it.
    laps: Vec<(f64, usize)>,
    since_sample_s: f64,
}

/// A lap in progress.
#[must_use]
pub struct Lap(Instant);

/// The laps of a phase, raw and rescaled.
pub struct Laps {
    /// Wall seconds per lap.
    pub raw_s: Vec<f64>,
    /// Seconds per lap at the reference host speed.
    pub ref_s: Vec<f64>,
    /// Every kernel sample of the phase, in milliseconds.
    pub samples_ms: Vec<f64>,
}

impl Meter {
    /// A meter that has taken its first kernel sample.
    pub fn new(tr: &mut Tracer) -> Self {
        let mut m = Meter {
            kernel: Kernel::new(),
            samples: Vec::new(),
            laps: Vec::new(),
            since_sample_s: 0.0,
        };
        m.calibrate(tr);
        m
    }

    fn calibrate(&mut self, tr: &mut Tracer) {
        let open = tr.begin("phase.calibrate");
        let ms = self.kernel.sample();
        tr.end(open);
        self.samples.push(ms);
        self.since_sample_s = 0.0;
    }

    /// Start a lap.
    pub fn start(&self) -> Lap {
        Lap(Instant::now())
    }

    /// End a lap; returns its wall seconds. Samples the kernel after it
    /// once `CAL_EVERY_S` of laps have passed since the last sample.
    pub fn stop(&mut self, tr: &mut Tracer, lap: Lap) -> f64 {
        let s = lap.0.elapsed().as_secs_f64();
        self.laps.push((s, self.samples.len() - 1));
        self.since_sample_s += s;
        if self.since_sample_s >= CAL_EVERY_S {
            self.calibrate(tr);
        }
        s
    }

    /// Laps stopped so far: the index the next lap will have.
    pub fn laps(&self) -> usize {
        self.laps.len()
    }

    /// Take a closing sample and rescale every lap.
    pub fn finish(mut self, tr: &mut Tracer) -> Laps {
        if self.since_sample_s > 0.0 {
            self.calibrate(tr);
        }
        let ref_s = self
            .laps
            .iter()
            .map(|&(s, k)| {
                let kernel_ms = (self.samples[k] + self.samples[k + 1]) / 2.0;
                s * REF_KERNEL_MS / kernel_ms
            })
            .collect();
        Laps {
            raw_s: self.laps.iter().map(|&(s, _)| s).collect(),
            ref_s,
            samples_ms: self.samples,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_rescale_by_the_mean_of_the_samples_around_them() {
        let meter = Meter {
            kernel: Kernel::new(),
            samples: vec![2.0, 4.0, 8.0],
            laps: vec![(1.0, 0), (1.0, 1), (0.5, 1)],
            since_sample_s: 0.0,
        };
        let laps = meter.finish(&mut Tracer::new(false, 0));
        assert_eq!(laps.raw_s, vec![1.0, 1.0, 0.5]);
        let want = [
            REF_KERNEL_MS / 3.0,
            REF_KERNEL_MS / 6.0,
            0.5 * REF_KERNEL_MS / 6.0,
        ];
        for (got, want) in laps.ref_s.iter().zip(want) {
            assert!((got - want).abs() < 1e-12, "{got} != {want}");
        }
    }

    #[test]
    fn a_meter_samples_before_and_after_its_laps() {
        let mut tr = Tracer::new(false, 0);
        let mut meter = Meter::new(&mut tr);
        let lap = meter.start();
        meter.stop(&mut tr, lap);
        let laps = meter.finish(&mut tr);
        assert_eq!(laps.samples_ms.len(), 2);
        assert!(laps.samples_ms.iter().all(|&ms| ms > 0.0));
        assert!(laps.ref_s[0] >= 0.0);
    }
}
