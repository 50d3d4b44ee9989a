//! The mixed information/job workload of the paper's Figures 2 and 4.
//!
//! A client of the unified service interleaves information queries and
//! job submissions on one connection; [`MixedWorkload`] draws that mix
//! from a seed.

use crate::rng::SplitMix64;

/// The kind of request a mixed grid workload issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// An information query (`(info=...)`).
    InfoQuery,
    /// A job submission (`(executable=...)`).
    JobSubmit,
}

/// A mixed information-query / job-submission workload: the traffic shape
/// of a production grid client in Figure 2 / Figure 4 of the paper.
#[derive(Debug, Clone)]
pub struct MixedWorkload {
    /// Probability that any given request is an information query.
    pub info_fraction: f64,
    rng: SplitMix64,
}

impl MixedWorkload {
    /// A workload where `info_fraction` of requests are information
    /// queries and the rest are job submissions.
    pub fn new(info_fraction: f64, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&info_fraction),
            "info_fraction out of range"
        );
        MixedWorkload {
            info_fraction,
            rng: SplitMix64::new(seed),
        }
    }

    /// Draw the next request kind.
    pub fn next_kind(&mut self) -> RequestKind {
        if self.rng.chance(self.info_fraction) {
            RequestKind::InfoQuery
        } else {
            RequestKind::JobSubmit
        }
    }

    /// Draw a sequence of `n` request kinds.
    pub fn take(&mut self, n: usize) -> Vec<RequestKind> {
        (0..n).map(|_| self.next_kind()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixed_workload_fraction() {
        let mut w = MixedWorkload::new(0.75, 5);
        let kinds = w.take(10_000);
        let infos = kinds
            .iter()
            .filter(|k| **k == RequestKind::InfoQuery)
            .count();
        let frac = infos as f64 / 10_000.0;
        assert!((frac - 0.75).abs() < 0.02, "frac {frac}");
    }

    #[test]
    fn mixed_workload_extremes() {
        let mut all_info = MixedWorkload::new(1.0, 6);
        assert!(all_info
            .take(100)
            .iter()
            .all(|k| *k == RequestKind::InfoQuery));
        let mut all_jobs = MixedWorkload::new(0.0, 7);
        assert!(all_jobs
            .take(100)
            .iter()
            .all(|k| *k == RequestKind::JobSubmit));
    }
}
