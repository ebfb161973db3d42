//! The geometric rate ladder behind `max_rps`.
//!
//! Rung `k` offers `base · factor^k` requests per second for a fixed number
//! of requests.  A rung passes when every request was answered `ok`, its
//! tail latency meets the SLO, and the backlog did not grow: the last
//! request of the rung was answered within the SLO of its due instant.
//! The search stops at the first failing rung; `max_rps` is the rate of the
//! highest rung that passed.

use crate::stats;

#[derive(Debug, Clone, Copy)]
pub struct Ladder {
    pub base_rps: f64,
    pub factor: f64,
    pub rungs: usize,
    pub requests_per_rung: usize,
    pub slo_ms: f64,
}

/// What one rung measured.
#[derive(Debug, Clone)]
pub struct RungResult {
    pub rate_rps: f64,
    /// Latency (due → reply) of every answered request, in send order.
    pub latencies_ms: Vec<f64>,
    /// Requests that were busy, failed, or never answered.
    pub failed: usize,
    /// Latency of the rung's last-due request (`None` if unanswered).
    pub last_ms: Option<f64>,
}

impl Ladder {
    pub fn rate(&self, rung: usize) -> f64 {
        self.base_rps * self.factor.powi(i32::try_from(rung).unwrap_or(i32::MAX))
    }

    /// The percentile a rung's tail is judged at: the highest with ten
    /// samples beyond it.
    pub fn rung_percentile(&self) -> f64 {
        stats::tail_percentile_for(self.requests_per_rung)
            .expect("a rung has more than ten requests")
    }

    /// Whether one rung meets the SLO without a growing backlog.
    pub fn passes(&self, rung: &RungResult) -> bool {
        let tail_ok = stats::tail_at(&rung.latencies_ms, self.rung_percentile())
            .is_some_and(|tail| tail <= self.slo_ms);
        let drained = rung.last_ms.is_some_and(|ms| ms <= self.slo_ms);
        rung.failed == 0 && tail_ok && drained
    }

    /// Climb the ladder, running rung `k` at its rate through `run` until
    /// one fails or the ladder ends.  Returns `max_rps` (0 when the lowest
    /// rung fails) and every rung run.
    pub fn climb(&self, mut run: impl FnMut(usize, f64) -> RungResult) -> (f64, Vec<RungResult>) {
        let mut best = 0.0;
        let mut results = Vec::new();
        for k in 0..self.rungs {
            let result = run(k, self.rate(k));
            let pass = self.passes(&result);
            results.push(result);
            if !pass {
                break;
            }
            best = self.rate(k);
        }
        (best, results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> Ladder {
        Ladder {
            base_rps: 2.0,
            factor: 2.0,
            rungs: 6,
            requests_per_rung: 20,
            slo_ms: 100.0,
        }
    }

    fn rung(rate_rps: f64, ms: f64) -> RungResult {
        RungResult {
            rate_rps,
            latencies_ms: vec![ms; 20],
            failed: 0,
            last_ms: Some(ms),
        }
    }

    #[test]
    fn rates_are_geometric() {
        let l = ladder();
        assert_eq!(l.rate(0), 2.0);
        assert_eq!(l.rate(3), 16.0);
        assert_eq!(l.rung_percentile(), 0.5);
    }

    #[test]
    fn climb_stops_at_the_first_failing_rung() {
        let l = ladder();
        // Rates 2, 4, 8 pass; 16 fails; 32 would pass but is never tried.
        let mut tried = Vec::new();
        let (max_rps, results) = l.climb(|_, rate| {
            tried.push(rate);
            rung(
                rate,
                if (rate - 16.0).abs() < 1e-9 {
                    500.0
                } else {
                    10.0
                },
            )
        });
        assert_eq!(max_rps, 8.0);
        assert_eq!(tried, vec![2.0, 4.0, 8.0, 16.0]);
        assert_eq!(results.len(), 4);
    }

    #[test]
    fn a_failing_lowest_rung_gives_zero_and_a_passing_top_rung_gives_the_top_rate() {
        let l = ladder();
        assert_eq!(l.climb(|_, rate| rung(rate, 1000.0)).0, 0.0);
        assert_eq!(l.climb(|_, rate| rung(rate, 1.0)).0, 64.0);
    }

    #[test]
    fn failures_and_a_growing_backlog_fail_a_rung_with_a_good_tail() {
        let l = ladder();
        let mut busy = rung(2.0, 10.0);
        busy.failed = 1;
        assert!(!l.passes(&busy));
        let mut backlog = rung(2.0, 10.0);
        backlog.last_ms = Some(400.0);
        assert!(!l.passes(&backlog));
        let mut lost = rung(2.0, 10.0);
        lost.last_ms = None;
        assert!(!l.passes(&lost));
        // The tail is judged at p50 of 20, ten samples beyond.
        let mut tail = rung(2.0, 10.0);
        for ms in tail.latencies_ms.iter_mut().skip(9) {
            *ms = 300.0;
        }
        assert!(!l.passes(&tail));
        tail.latencies_ms[9] = 10.0;
        assert!(l.passes(&tail));
    }
}
