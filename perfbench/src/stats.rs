//! Summary statistics the benchmark reports: medians, the tail percentile
//! with ten samples beyond it, geometric means, and the open-loop
//! schedule arithmetic (how late a send was, latency from when a job was
//! due).

use std::time::{Duration, Instant};

/// Samples a tail value must have beyond it to be reported.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for even counts); `None` when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Arithmetic mean of `xs`; `None` when empty.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// The highest percentile of a sample that still has [`TAIL_BEYOND`]
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The value: the `(TAIL_BEYOND + 1)`-th largest sample.
    pub value: f64,
    /// Its percentile rank.
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
    /// Samples above the value.
    pub beyond: usize,
}

/// The tail of `xs`: exactly [`TAIL_BEYOND`] samples lie above the
/// reported value. `None` when the sample is too small to have one.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[n - 1 - TAIL_BEYOND],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
        beyond: TAIL_BEYOND,
    })
}

/// The nearest-rank `pct`-th percentile of `xs` when at least
/// [`TAIL_BEYOND`] samples lie beyond it; otherwise [`tail`], the highest
/// percentile the sample supports.
pub fn tail_at(xs: &[f64], pct: f64) -> Option<Tail> {
    let n = xs.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    if n == 0 || rank == 0 || n - rank.min(n) < TAIL_BEYOND {
        return tail(xs);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[rank - 1],
        percentile: pct,
        samples: n,
        beyond: n - rank,
    })
}

/// Geometric mean of positive values; `None` when empty or when a value
/// is not positive (a geomean over a zero would silently read as zero).
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x.is_nan() || x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// A fixed-rate open-loop send schedule: job `i` is due at
/// `start + i / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    /// When job 0 is due.
    pub start: Instant,
    /// Gap between consecutive due times.
    pub interval: Duration,
}

impl Schedule {
    /// A schedule of `rate` jobs per second from `start`.
    pub fn new(start: Instant, rate: f64) -> Schedule {
        Schedule {
            start,
            interval: Duration::from_secs_f64(1.0 / rate),
        }
    }

    /// When job `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.interval.mul_f64(i as f64)
    }

    /// How late job `i` was actually sent, in ms (0 when on time).
    pub fn late_ms(&self, i: usize, sent: Instant) -> f64 {
        since_ms(self.due(i), sent)
    }
}

/// Milliseconds from `from` to `to`, 0 if `to` is earlier. With `from` a
/// job's due time this is its open-loop latency, so a stalled generator
/// charges its stall to every job it delayed.
pub fn since_ms(from: Instant, to: Instant) -> f64 {
    ms(to.saturating_duration_since(from))
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(mean(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_has_exactly_ten_samples_beyond() {
        // 1..=100: the 11th largest is 90, with 91..=100 beyond it.
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs).expect("100 samples support a tail");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.samples, 100);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_rises_with_sample_count() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs).expect("tail");
        assert_eq!(t.value, 989.0);
        assert!((t.percentile - 99.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven).map(|t| t.value), Some(0.0));
    }

    #[test]
    fn tail_at_uses_the_fixed_percentile_when_ten_lie_beyond() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail_at(&xs, 99.0).expect("tail");
        assert_eq!((t.value, t.beyond, t.samples), (1980.0, 20, 2000));
        // 500 samples leave only 5 beyond p99: fall back to the highest
        // percentile with ten beyond.
        let few: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = tail_at(&few, 99.0).expect("tail");
        assert_eq!((t.value, t.beyond), (490.0, 10));
        assert!((t.percentile - 98.0).abs() < 1e-12);
        assert_eq!(tail_at(&[1.0; 5], 99.0), None);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]).expect("positive") - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]).expect("positive") - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, f64::NAN]), None);
    }

    #[test]
    fn open_loop_due_times_lateness_and_latency() {
        let start = Instant::now();
        let s = Schedule::new(start, 40.0);
        assert_eq!(s.due(0), start);
        assert_eq!(s.due(4), start + Duration::from_millis(100));
        // Sent 5 ms after its due time: 5 ms late.
        let sent = s.due(4) + Duration::from_millis(5);
        assert!((s.late_ms(4, sent) - 5.0).abs() < 1e-9);
        // Sent early (cannot happen, but must not go negative).
        assert_eq!(s.late_ms(4, start), 0.0);
        // Done 30 ms after due: latency counts the 5 ms send delay too.
        let done = s.due(4) + Duration::from_millis(30);
        assert!((since_ms(s.due(4), done) - 30.0).abs() < 1e-9);
        assert!((since_ms(sent, done) - 25.0).abs() < 1e-9);
        assert_eq!(since_ms(done, sent), 0.0);
    }
}
