//! Host-speed probe: a fixed reference kernel, timed between the
//! workload's calls, that the end-to-end timings are scaled by.
//!
//! The benchmark runs on a few cores of a shared host whose speed moves
//! by up to 1.8× within seconds and stays slow or fast for minutes, so
//! raw wall times of identical runs spread far past any useful bound. The
//! probe kernel is code of the benchmark, not of the program, so it is the
//! same on every commit compared: its time measures only the host. Each
//! timed call is scaled by `NOMINAL_MS / p`, where `p` is the median probe
//! time nearest the call, which expresses it at the speed where one probe
//! takes [`NOMINAL_MS`] (about a quiet 2.1 GHz Xeon core). Raw times are
//! printed beside the scaled ones.
//!
//! The kernel mixes integer graph work (breadth-first search, hashing,
//! sorting) with floating-point transcendental math in about equal time.
//! Measured on a 2-vCPU host against `transpile` of qft-12 and
//! portfolio_qaoa-16, `transpile` slowed (in log terms) about 1.26× as
//! much as the first kind and 0.9× as much as the second, and it tracked
//! their sum; over 3 s blocks the scaled time's log-spread was 0.03
//! against 0.16 raw.
//!
//! A program change that loads the host itself (a busy background thread)
//! also slows the probe, so the scaled figures understate such a change;
//! the raw figures in the text show it.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Probe time, in ms, at the reference speed the scaled times are given at.
pub const NOMINAL_MS: f64 = 1.25;

/// Probes the median is taken over, nearest in time to the scaled event.
const NEAREST: usize = 15;

/// Probe times in the order they were taken.
#[derive(Debug, Default)]
pub struct Pace {
    probes: Vec<(Instant, f64)>,
    /// Varies the kernel's input, so that no run repeats one probe.
    next_seed: u64,
}

impl Pace {
    pub fn new() -> Pace {
        Pace::default()
    }

    /// Time one run of the reference kernel.
    pub fn probe(&mut self) {
        self.next_seed += 1;
        let t0 = Instant::now();
        black_box(kernel(black_box(self.next_seed)));
        self.probes.push((t0, t0.elapsed().as_secs_f64() * 1e3));
    }

    /// Time `n` probes back to back.
    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            self.probe();
        }
    }

    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Median time of the [`NEAREST`] probes nearest `at`; NaN without
    /// probes.
    pub fn probe_ms_at(&self, at: Instant) -> f64 {
        let n = self.probes.len();
        if n == 0 {
            return f64::NAN;
        }
        let k = NEAREST.min(n);
        let mid = self.probes.partition_point(|p| p.0 < at);
        let lo = mid.saturating_sub(k / 2).min(n - k);
        let window: Vec<f64> = self.probes[lo..lo + k].iter().map(|p| p.1).collect();
        crate::stats::median(&window).unwrap_or(f64::NAN)
    }

    /// The factor that scales a time measured at `at` to reference speed.
    pub fn scale_at(&self, at: Instant) -> f64 {
        NOMINAL_MS / self.probe_ms_at(at)
    }

    /// Median of every probe of the run, in ms.
    pub fn median_ms(&self) -> f64 {
        let all: Vec<f64> = self.probes.iter().map(|p| p.1).collect();
        crate::stats::median(&all).unwrap_or(f64::NAN)
    }
}

/// The reference kernel: about 0.6 ms of graph and hash work and 0.6 ms
/// of floating-point math on a quiet 2.1 GHz core.
fn kernel(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    // All-pairs breadth-first search on a random 96-node graph.
    let n = 96;
    let mut adj = vec![Vec::new(); n];
    for i in 0..n {
        for _ in 0..3 {
            let j = (next() % n as u64) as usize;
            adj[i].push(j);
            adj[j].push(i);
        }
    }
    let mut acc = 0u64;
    let mut dist = vec![u32::MAX; n];
    let mut queue = VecDeque::new();
    for s in 0..n {
        dist.fill(u32::MAX);
        dist[s] = 0;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if dist[v] == u32::MAX {
                    dist[v] = dist[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        acc = acc.wrapping_add(dist.iter().map(|&d| u64::from(d)).sum::<u64>());
    }
    // Hash-map updates and a sort.
    let mut counts: HashMap<u64, f64> = HashMap::new();
    for _ in 0..4000 {
        let k = next() % 1024;
        *counts.entry(k).or_insert(0.0) += (k as f64).sqrt();
    }
    let mut v: Vec<f64> = (0..6000)
        .map(|_| (next() % 100_000) as f64 * 1.37)
        .collect();
    v.sort_by(f64::total_cmp);
    // Transcendental math.
    let mut f = 0.0f64;
    for _ in 0..20_000 {
        let a = (next() % 1000) as f64 * 1e-3;
        f += (a.sin() * a.cos()).abs().sqrt() + a.atan2(0.3);
    }
    acc ^ counts.len() as u64 ^ v[3000].to_bits() ^ f.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn pace(times: &[f64]) -> (Pace, Instant) {
        let t0 = Instant::now();
        let probes = times
            .iter()
            .enumerate()
            .map(|(i, &ms)| (t0 + Duration::from_millis(100 * i as u64), ms))
            .collect();
        (
            Pace {
                probes,
                next_seed: 0,
            },
            t0,
        )
    }

    #[test]
    fn probe_time_is_the_median_of_the_nearest_probes() {
        // 20 fast probes, then 20 twice as slow.
        let times: Vec<f64> = (0..40).map(|i| if i < 20 { 1.0 } else { 2.0 }).collect();
        let (p, t0) = pace(&times);
        assert_eq!(p.probe_ms_at(t0), 1.0);
        assert_eq!(p.probe_ms_at(t0 + Duration::from_secs(60)), 2.0);
        assert_eq!(p.scale_at(t0 + Duration::from_millis(500)), NOMINAL_MS);
        // A single stalled probe does not move the median.
        let mut times = vec![1.0; 30];
        times[10] = 50.0;
        let (p, t0) = pace(&times);
        assert_eq!(p.probe_ms_at(t0 + Duration::from_secs(1)), 1.0);
    }

    #[test]
    fn few_probes_use_them_all_and_none_give_nan() {
        let (p, t0) = pace(&[3.0, 1.0, 2.0]);
        assert_eq!(p.probe_ms_at(t0 + Duration::from_secs(9)), 2.0);
        assert!(Pace::new().probe_ms_at(t0).is_nan());
        let mut p = Pace::new();
        p.burst(3);
        assert_eq!(p.len(), 3);
        assert!(p.median_ms() > 0.0);
    }
}
