//! The machine's speed, measured while a run goes on, so that CPU-bound
//! timings can be reported at one reference speed.
//!
//! On a shared 2-core VM the speed of a core moves with other tenants'
//! load, in spells of seconds to a minute: the same small `verdict` ops
//! took a median 125 µs in a fast spell and 185 µs in a slow one. A run
//! of 20–25 seconds sees one or two spells, so raw wall times of the same
//! work spread by a quarter or more from run to run, past any useful
//! bound. The harness therefore runs a fixed [`kernel`] between ops and
//! reports each timing at reference speed: measured time ×
//! [`REFERENCE_MS`] / the kernel's median time around it. Over one
//! 200-second run cut into 20-second blocks, this took the quartile spread
//! of `verdict`'s throughput from 0.29 to 0.01 (with the text half of the
//! kernel alone, both timed in wall-clock time).
//!
//! Both the kernel and the closed loops' ops are timed in the thread's CPU
//! time ([`thread_cpu_s`]). For a one-thread op that does no I/O this is
//! its wall time less the time its core was taken away: by other
//! processes, or by the hypervisor, which in spells took 10–48% of this
//! VM's time (the `steal` column of `/proc/stat`; the VM's Linux is built
//! with `PARAVIRT_TIME_ACCOUNTING`, so thread CPU time leaves it out). A
//! median of 1-ms kernel runs hardly sees such stalls while a long op
//! absorbs them, so wall-clock ops normalised by the kernel would still
//! move with them.
//!
//! The kernel is the harness's own std-only code and calls nothing of
//! numfuzz, so a change to numfuzz moves the measured ops but not the
//! kernel (a change that swaps the global allocator would move both). It
//! has two halves, like the two kinds of work the workloads do: text —
//! formatting, sorting, hashing, tree lookups, as in parsing and checking
//! — and exact arithmetic — limb-vector products and integer gcds, as in
//! validation. Neither half alone tracked both kinds: over 2-second
//! windows, `certify`'s op time moved as the 0.57–0.68th power of the text
//! half's time and as the 1.7th power of the arithmetic half's, and
//! `verdict`'s as the 0.6–0.9th power of the text half's; against the sum
//! of the two, both moved as the 0.8–1.0th power.

use crate::stats;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread, in seconds.
pub fn thread_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on x86-64 and aarch64 Linux), the only memory the call writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// The kernel's time at reference speed: about its median on the 2-core
/// VM the bounds were set on, so reference milliseconds read close to
/// that machine's wall-clock milliseconds.
pub const REFERENCE_MS: f64 = 1.0;

/// Kernel runs are this far apart at least (one run is ~1 ms).
const EVERY_S: f64 = 0.05;
/// At most this many kernel runs after one long gap (a long op).
const MAX_RUNS: usize = 5;
/// Samples within this many seconds of a timed interval measure its speed.
const WINDOW_S: f64 = 0.5;

/// Kernel timings of one run: (wall-clock seconds since `epoch`, kernel
/// CPU ms).
pub struct Speed {
    epoch: Instant,
    samples: Vec<(f64, f64)>,
    /// Wall-clock seconds spent in the kernel, which callers keep out of
    /// wall time.
    pub spent_s: f64,
}

impl Speed {
    pub fn new() -> Speed {
        Speed { epoch: Instant::now(), samples: Vec::new(), spent_s: 0.0 }
    }

    /// Seconds since the epoch: the time axis of [`Speed::slowdown`].
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// Samples the speed when [`EVERY_S`] has passed since the last
    /// sample: one kernel run per [`EVERY_S`] of the gap, up to
    /// [`MAX_RUNS`], so a long op is bracketed by several runs.
    pub fn between_ops(&mut self) {
        let now = self.at(Instant::now());
        let gap = self.samples.last().map_or(f64::INFINITY, |&(t, _)| now - t);
        if gap >= EVERY_S {
            self.sample(((gap / EVERY_S) as usize).clamp(1, MAX_RUNS));
        }
    }

    /// Runs the kernel `runs` times, recording each run's CPU time.
    pub fn sample(&mut self, runs: usize) {
        for _ in 0..runs {
            let t0 = Instant::now();
            let cpu0 = thread_cpu_s();
            black_box(kernel(black_box(KERNEL_SIZE)));
            let cpu_ms = (thread_cpu_s() - cpu0) * 1e3;
            self.spent_s += t0.elapsed().as_secs_f64();
            self.samples.push((self.at(t0), cpu_ms));
        }
    }

    /// How many times slower than reference speed the machine ran over
    /// `[from, to]` (wall-clock seconds since the epoch): the median kernel
    /// CPU time of
    /// the samples within [`WINDOW_S`] of it over [`REFERENCE_MS`], or of
    /// the nearest sample when none is that close.
    pub fn slowdown(&self, from: f64, to: f64) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        let lo = self.samples.partition_point(|&(t, _)| t < from - WINDOW_S);
        let hi = self.samples.partition_point(|&(t, _)| t <= to + WINDOW_S);
        if lo < hi {
            let near: Vec<f64> = self.samples[lo..hi].iter().map(|&(_, ms)| ms).collect();
            return stats::median(&near) / REFERENCE_MS;
        }
        let distance = |&&(t, _): &&(f64, f64)| if t < from { from - t } else { t - to };
        let candidates = &self.samples[lo.saturating_sub(1)..(lo + 1).min(self.samples.len())];
        let nearest = candidates.iter().min_by(|a, b| distance(a).total_cmp(&distance(b)));
        nearest.map_or(1.0, |&(_, ms)| ms / REFERENCE_MS)
    }

    /// `ms` measured over `[from, to]`, at reference speed.
    pub fn at_reference(&self, ms: f64, from: f64, to: f64) -> f64 {
        ms / self.slowdown(from, to)
    }

    /// Kernel ms min/q1/median/q3/max and run count, for the report.
    pub fn summary(&self) -> String {
        let ms: Vec<f64> = self.samples.iter().map(|&(_, ms)| ms).collect();
        let s = stats::sorted(&ms);
        let q: Vec<String> = [0.0, 0.25, 0.5, 0.75, 1.0]
            .iter()
            .map(|&p| format!("{:.4}", stats::percentile(&s, p)))
            .collect();
        format!(
            "speed kernel CPU ms min/q1/median/q3/max {} (n={}, reference {REFERENCE_MS} ms, {:.3} s spent)",
            q.join(" "),
            s.len(),
            self.spent_s
        )
    }
}

/// Steal counter reads are this far apart at least.
const STEAL_EVERY_S: f64 = 0.5;

/// The hypervisor's steal counter of the whole VM: the share of its CPU
/// time (both cores) that the host gave to others while this VM wanted it.
/// `serve`'s latencies come from a chain of wake-ups across two processes
/// and move with it far more than CPU time does: over half-second windows
/// of one run, the light-rate p50 was 1.8 ms at 9% steal, 2.4 ms at 20%
/// and 4–7 ms at 30%, against 1.4 ms with none.
#[derive(Default)]
pub struct Steal {
    /// (time, steal jiffies, all jiffies) of each read.
    reads: Vec<(Instant, u64, u64)>,
}

impl Steal {
    /// Reads the counter when [`STEAL_EVERY_S`] has passed since the last
    /// read.
    pub fn tick(&mut self) {
        let due = self.reads.last().is_none_or(|r| r.0.elapsed().as_secs_f64() >= STEAL_EVERY_S);
        if due {
            self.read();
        }
    }

    /// Reads the counter now; a machine without `/proc/stat` reads nothing.
    pub fn read(&mut self) {
        if let Some((steal, all)) = proc_stat_jiffies() {
            self.reads.push((Instant::now(), steal, all));
        }
    }

    /// The stolen share over the first to the last read (0 without two).
    pub fn share(&self) -> f64 {
        match (self.reads.first(), self.reads.last()) {
            (Some(a), Some(b)) => {
                stats::ratio(b.1.saturating_sub(a.1) as f64, b.2.saturating_sub(a.2) as f64)
            }
            _ => 0.0,
        }
    }

    /// The stolen share of the window between consecutive reads that holds
    /// `t`, or `None` outside every window.
    pub fn share_at(&self, t: Instant) -> Option<f64> {
        let i = self.reads.partition_point(|r| r.0 <= t);
        let (a, b) = (self.reads.get(i.checked_sub(1)?)?, self.reads.get(i)?);
        Some(stats::ratio(b.1.saturating_sub(a.1) as f64, b.2.saturating_sub(a.2) as f64))
    }
}

/// (steal, all) jiffies from the first line of `/proc/stat`: `cpu user
/// nice system idle iowait irq softirq steal ...`.
fn proc_stat_jiffies() -> Option<(u64, u64)> {
    use std::io::Read;
    let mut buf = [0u8; 256];
    let n = std::fs::File::open("/proc/stat").ok()?.read(&mut buf).ok()?;
    let line = std::str::from_utf8(&buf[..n]).ok()?.lines().next()?;
    let mut fields = line.split_whitespace();
    if fields.next() != Some("cpu") {
        return None;
    }
    let jiffies: Vec<u64> = fields.take(8).map(|f| f.parse().ok()).collect::<Option<_>>()?;
    (jiffies.len() == 8).then(|| (jiffies[7], jiffies.iter().sum()))
}

/// Words the kernel formats, sorts and looks up, and limb-vector products
/// it forms.
const KERNEL_SIZE: u64 = 1000;

/// Fixed work whose time tracks the machine's speed on code like the
/// analysis: both halves, one after the other.
fn kernel(n: u64) -> u64 {
    text(n) ^ arithmetic(n)
}

/// Allocation, string formatting and comparison, hashing, and
/// pointer-chasing tree lookups.
fn text(n: u64) -> u64 {
    let mut words: Vec<String> =
        (0..n).map(|i| format!("w{}", i.wrapping_mul(2_654_435_761) % 100_003)).collect();
    words.sort();
    let mut counts: HashMap<&str, u64> = HashMap::new();
    let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
    for (i, w) in words.iter().enumerate() {
        *counts.entry(w.as_str()).or_default() += i as u64;
        tree.insert((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40, i as u64);
    }
    let mut acc = 0u64;
    for i in 0..n {
        acc = acc.wrapping_add(tree.range(i << 10..).next().map_or(0, |(&k, _)| k));
        acc ^= counts.get(words[(i as usize * 7) % words.len()].as_str()).copied().unwrap_or(0);
    }
    acc
}

/// Products of a growing limb vector (32-bit limbs with carries, as in a
/// big integer) and Euclid's gcd on 64-bit integers.
fn arithmetic(n: u64) -> u64 {
    let mut limbs: Vec<u32> = vec![1];
    let mut acc = 0u64;
    for i in 1..2 * n {
        let factor = (i.wrapping_mul(2_654_435_761) as u32) | 1;
        let mut carry = 0u64;
        let mut product = Vec::with_capacity(limbs.len() + 1);
        for &limb in &limbs {
            let v = u64::from(limb) * u64::from(factor) + carry;
            product.push(v as u32);
            carry = v >> 32;
        }
        if carry > 0 {
            product.push(carry as u32);
        }
        // Keep the vector between 12 and 24 limbs.
        if product.len() > 24 {
            product.drain(..12);
        }
        limbs = product;
        let (mut a, mut b) = (u64::from(limbs[0]) << 20 | i, u64::from(factor) * 3 + i);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        acc = acc.wrapping_add(a);
    }
    acc ^ limbs.iter().map(|&l| u64::from(l)).sum::<u64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_kernel_time_near_the_interval() {
        let mut s = Speed::new();
        let r = REFERENCE_MS;
        s.samples = vec![(0.0, r), (0.1, 2.0 * r), (0.2, 2.0 * r), (5.0, 0.5 * r)];
        assert_eq!(s.slowdown(0.1, 0.1), 2.0);
        assert_eq!(s.slowdown(5.0, 5.0), 0.5);
        // Nothing within the window: the nearest sample.
        assert_eq!(s.slowdown(2.0, 2.0), 2.0);
        assert_eq!(s.slowdown(4.0, 4.0), 0.5);
        assert_eq!(s.slowdown(9.0, 9.0), 0.5);
        assert_eq!(s.at_reference(10.0, 5.0, 5.0), 20.0);
        assert_eq!(Speed::new().slowdown(0.0, 1.0), 1.0);
    }

    #[test]
    fn thread_cpu_time_advances_with_work() {
        let t0 = thread_cpu_s();
        black_box(kernel(black_box(KERNEL_SIZE)));
        assert!(thread_cpu_s() > t0);
    }

    #[test]
    fn steal_windows_cover_the_time_between_reads() {
        let t0 = Instant::now();
        let t1 = t0 + std::time::Duration::from_secs(1);
        let t2 = t1 + std::time::Duration::from_secs(1);
        let s = Steal { reads: vec![(t0, 10, 100), (t1, 10, 300), (t2, 60, 500)] };
        assert_eq!(s.share_at(t0), Some(0.0));
        assert_eq!(s.share_at(t1), Some(0.25));
        assert_eq!(s.share_at(t2), None);
        assert_eq!(s.share(), 0.125);
        assert_eq!(Steal::default().share(), 0.0);
    }

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(KERNEL_SIZE), kernel(KERNEL_SIZE));
    }
}
