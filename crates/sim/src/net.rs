//! Simulated network links.
//!
//! The in-memory transport in `infogram-proto` delays every message by a
//! draw from its link's [`LatencyModel`], so the protocol-count experiments
//! (Figures 2–4) can show how connection and handshake overhead scales with
//! link latency without a real network. Links do not lose messages: nothing
//! in `proto` has a read deadline yet, so a lost frame would leave its peer
//! blocked in `recv` for ever.

use crate::rng::SplitMix64;
use parking_lot::Mutex;
use std::time::Duration;

/// How long a message takes to traverse a link.
#[derive(Debug, Clone)]
pub enum LatencyModel {
    /// Zero-delay, loopback-like link.
    Instant,
    /// Every message takes exactly this long.
    Fixed(Duration),
    /// Uniform in `[min, max]`.
    Uniform {
        /// Smallest possible delay.
        min: Duration,
        /// Largest possible delay.
        max: Duration,
    },
    /// Normal with the given mean and stddev, truncated at zero.
    Normal {
        /// Mean delay.
        mean: Duration,
        /// Delay standard deviation.
        std_dev: Duration,
    },
}

/// A simulated bidirectional link: a latency model and the seeded
/// stream its delays are drawn from.
#[derive(Debug)]
pub struct Link {
    latency: LatencyModel,
    rng: Mutex<SplitMix64>,
}

impl Link {
    /// A perfect, zero-latency link (the default for tests).
    pub fn ideal() -> Self {
        Link::new(LatencyModel::Instant, 0)
    }

    /// A link with the given latency model and RNG seed.
    pub fn new(latency: LatencyModel, seed: u64) -> Self {
        Link {
            latency,
            rng: Mutex::new(SplitMix64::new(seed)),
        }
    }

    /// The one-way delay of the next message. Instant and fixed links
    /// draw nothing, so they take no lock.
    pub fn delay(&self) -> Duration {
        match &self.latency {
            LatencyModel::Instant => Duration::ZERO,
            LatencyModel::Fixed(d) => *d,
            LatencyModel::Uniform { min, max } => {
                let lo = min.as_secs_f64();
                let hi = max.as_secs_f64().max(lo);
                Duration::from_secs_f64(self.rng.lock().uniform(lo, hi))
            }
            LatencyModel::Normal { mean, std_dev } => {
                let x = self
                    .rng
                    .lock()
                    .normal(mean.as_secs_f64(), std_dev.as_secs_f64());
                Duration::from_secs_f64(x.max(0.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_link_delivers_immediately() {
        assert_eq!(Link::ideal().delay(), Duration::ZERO);
    }

    #[test]
    fn fixed_latency() {
        let link = Link::new(LatencyModel::Fixed(Duration::from_millis(5)), 1);
        for _ in 0..10 {
            assert_eq!(link.delay(), Duration::from_millis(5));
        }
    }

    #[test]
    fn uniform_latency_within_bounds() {
        let link = Link::new(
            LatencyModel::Uniform {
                min: Duration::from_millis(1),
                max: Duration::from_millis(3),
            },
            2,
        );
        for _ in 0..1000 {
            let d = link.delay();
            assert!(d >= Duration::from_millis(1) && d <= Duration::from_millis(3));
        }
    }

    #[test]
    fn normal_latency_is_seeded() {
        let model = LatencyModel::Normal {
            mean: Duration::from_micros(10),
            std_dev: Duration::from_micros(50),
        };
        let (a, b) = (Link::new(model.clone(), 4), Link::new(model, 4));
        for _ in 0..1000 {
            assert_eq!(a.delay(), b.delay());
        }
    }
}
