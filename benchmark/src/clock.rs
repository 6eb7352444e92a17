//! The clock every end-to-end time is read from: it reads in seconds at
//! a fixed reference speed of the host, not in wall seconds.
//!
//! The 2-vCPU host this benchmark was tuned on switches between speed
//! levels up to 2.3× apart, which hold for seconds to minutes, so two
//! sets of runs of the same code read medians up to 53 % apart (NOTES,
//! "Host findings"). The levels slow this crate's own allocation-heavy
//! code too, a little less than the program. So the clock times a
//! fixed calibration [`kernel`] every [`INTERVAL`] and advances at
//! `(NOMINAL / median of the last WINDOW kernel times) ^ SENSITIVITY`
//! reference seconds per wall second: at the reference speed it reads
//! wall time, and where the kernel takes 1.2× as long it reads
//! 1/1.2^1.6 = 0.75 of it. It stands still while the kernel runs, and
//! the kernel runs only at [`Clock::tick`], which the workloads call
//! between jobs or request lines, never inside a timed call.
//!
//! The program cannot move the kernel: it is compiled in this package
//! (its own workspace and profile) and calls nothing of the program.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time, in seconds, at the reference speed: about its
/// median on the tuning host (2-vCPU container) when it was set. It
/// fixes the unit only; a run's notes give its measured ratio to it.
pub const NOMINAL: f64 = 1.5e-3;

/// How much more the program slows than the kernel, in log terms: the
/// slope of log(program time) over log(kernel time) as the host changes
/// level. Measured on the tuning host: 1.2–1.4 for design jobs and 1.3
/// for the `nocd` engine over 2-s windows of in-process probes (noise
/// in the kernel times biases those low), 1.6 for design and 1.7–1.9
/// for `nocd-large` between whole runs. It applies to the host's speed
/// only, so a change to the program moves every time by the same factor
/// whatever its value.
const SENSITIVITY: f64 = 1.6;

/// Wall time between two kernel runs.
const INTERVAL: Duration = Duration::from_millis(100);

/// Kernel times the speed estimate is the median of; one slow sample
/// (an interrupt) does not move it.
const WINDOW: usize = 5;

/// The calibration kernel: fills a `BTreeMap` with a thousand small
/// vectors and clones them, five times over; returns a checksum so that
/// nothing is optimised away. Probes on the tuning host timed candidate
/// kernels between design jobs for three minutes at a time and fitted
/// how much the mapper slowed per unit of a kernel's slowdown (1.0:
/// both slow alike). Integer hashing alone scored 1.0 in one probe but
/// 2.0–2.8 in three others (it hardly slowed); random reads in a 4–8 MB
/// array 0.6–3.9; heap shortest paths on a mesh 1.2–1.3; maps of small
/// vectors 1.0–1.3, the closest and the steadiest.
pub fn kernel() -> u64 {
    use std::collections::BTreeMap;
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut acc: u64 = 0;
    for _ in 0..5 {
        let mut map = BTreeMap::new();
        for i in 0..1000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            map.insert(x % 2048, vec![i; (x % 64) as usize + 1]);
        }
        let copy: Vec<Vec<u64>> = map.values().cloned().collect();
        acc = acc.wrapping_add(copy.iter().map(|v| v.len() as u64).sum::<u64>());
    }
    acc
}

/// A clock in reference-speed seconds (see the module docs), or, for
/// the traced runs and tests, plain wall seconds.
pub struct Clock {
    calibrate: bool,
    /// Reference seconds up to `since`.
    base: f64,
    since: Instant,
    /// Reference seconds per wall second.
    rate: f64,
    last_kernel: Instant,
    recent: VecDeque<f64>,
    /// Every kernel time of the run, in seconds.
    samples: Vec<f64>,
}

impl Clock {
    /// Wall seconds; [`Clock::tick`] does nothing.
    pub fn wall() -> Clock {
        let now = Instant::now();
        Clock {
            calibrate: false,
            base: 0.0,
            since: now,
            rate: 1.0,
            last_kernel: now,
            recent: VecDeque::new(),
            samples: Vec::new(),
        }
    }

    /// Reference-speed seconds. Runs the kernel [`WINDOW`] times first,
    /// so the first estimate is a median too.
    pub fn calibrated() -> Clock {
        let mut c = Clock {
            calibrate: true,
            ..Clock::wall()
        };
        for _ in 0..WINDOW {
            c.measure();
        }
        c
    }

    /// The time now, in seconds since the clock started.
    pub fn now(&self) -> f64 {
        self.base + self.since.elapsed().as_secs_f64() * self.rate
    }

    /// A point between timed calls: runs the kernel if [`INTERVAL`] has
    /// passed since it last ran.
    pub fn tick(&mut self) {
        if self.calibrate && self.last_kernel.elapsed() >= INTERVAL {
            self.measure();
        }
    }

    /// Closes the current stretch at the current rate, times the kernel
    /// (off the clock) and sets the rate for the next stretch.
    fn measure(&mut self) {
        self.base = self.now();
        let t = Instant::now();
        black_box(kernel());
        let secs = t.elapsed().as_secs_f64();
        self.samples.push(secs);
        self.recent.push_back(secs);
        if self.recent.len() > WINDOW {
            self.recent.pop_front();
        }
        let v: Vec<f64> = self.recent.iter().copied().collect();
        self.rate = rate(&v);
        self.since = Instant::now();
        self.last_kernel = self.since;
    }

    /// The host's speed over the run as `(samples, median, min, max)`
    /// of kernel time / [`NOMINAL`]: 1.0 at the reference speed, 1.3
    /// where the kernel takes 1.3× as long. For the notes; `None` for a
    /// wall clock.
    pub fn host_factor(&self) -> Option<(usize, f64, f64, f64)> {
        if self.samples.is_empty() {
            return None;
        }
        let f: Vec<f64> = self.samples.iter().map(|s| s / NOMINAL).collect();
        let min = f.iter().copied().fold(f64::INFINITY, f64::min);
        let max = f.iter().copied().fold(0.0, f64::max);
        Some((f.len(), crate::stats::median(&f), min, max))
    }

    /// The note line every untraced run prints.
    pub fn note(&self) -> String {
        match self.host_factor() {
            Some((n, med, min, max)) => format!(
                "clock=reference host_factor median={med:.4} min={min:.4} max={max:.4} kernels={n} sensitivity={SENSITIVITY} (wall time ~ reference time x factor^sensitivity)"
            ),
            None => "clock=wall".to_string(),
        }
    }
}

/// Reference seconds per wall second, given recent kernel times.
fn rate(recent: &[f64]) -> f64 {
    (NOMINAL / crate::stats::median(recent)).powf(SENSITIVITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_follows_the_median_kernel_time() {
        assert_eq!(rate(&[NOMINAL]), 1.0);
        // The kernel takes 1.25× as long: the clock runs at
        // 1/1.25^SENSITIVITY of wall speed.
        let slow = NOMINAL * 1.25;
        let want = 1.25f64.powf(-SENSITIVITY);
        assert!((rate(&[slow, slow, slow]) - want).abs() < 1e-12);
        // One interrupted sample does not move the estimate.
        let r = rate(&[NOMINAL, NOMINAL, 40.0 * NOMINAL, NOMINAL, NOMINAL]);
        assert_eq!(r, 1.0);
    }

    #[test]
    fn the_clock_stands_still_while_the_kernel_runs() {
        let mut c = Clock::calibrated();
        assert_eq!(c.samples.len(), WINDOW);
        let t = c.now();
        c.last_kernel -= INTERVAL;
        c.tick();
        assert_eq!(c.samples.len(), WINDOW + 1);
        // The kernel takes milliseconds; the clock moved by far less
        // (only the bookkeeping around it).
        assert!(c.now() - t < c.samples[WINDOW] / 4.0, "{}", c.now() - t);
        let f = c.host_factor().unwrap();
        assert!(f.1 > 0.0 && f.2 <= f.1 && f.1 <= f.3);
    }

    #[test]
    fn a_wall_clock_never_calibrates() {
        let mut c = Clock::wall();
        c.last_kernel -= INTERVAL;
        c.tick();
        assert!(c.host_factor().is_none());
        assert_eq!(c.note(), "clock=wall");
        let t = c.now();
        std::thread::sleep(Duration::from_millis(2));
        assert!(c.now() - t >= 2e-3);
    }
}
