//! Time-window authorization contracts.
//!
//! §5.3 of the paper: "we strive to include authorization that allows us
//! to specify contracts such as *allow access to this resource from 3 to 4
//! pm to user X*". A [`Contract`] grants a subject access to a named
//! resource during one or more [`Window`]s, daily recurring time-of-day
//! ranges.

use crate::dn::Dn;
use infogram_sim::SimTime;
use std::time::Duration;

const SECS_PER_DAY: u64 = 86_400;

/// When a contract grant is active: every day within `[from_sec,
/// until_sec)` seconds-of-day. `from_sec > until_sec` wraps around
/// midnight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    from_sec: u32,
    until_sec: u32,
}

impl Window {
    /// The paper's example: 3pm–4pm daily.
    pub fn daily_hours(from_hour: u32, until_hour: u32) -> Window {
        Window {
            from_sec: from_hour * 3600,
            until_sec: until_hour * 3600,
        }
    }

    /// Whether the window is active at `now`.
    pub fn contains(&self, now: SimTime) -> bool {
        let sod = (now.as_nanos() / 1_000_000_000 % SECS_PER_DAY) as u32;
        if self.from_sec <= self.until_sec {
            (self.from_sec..self.until_sec).contains(&sod)
        } else {
            // Wraps midnight: active if after start OR before end.
            sod >= self.from_sec || sod < self.until_sec
        }
    }
}

/// When the run of back-to-back `windows` open at `now` closes: `now`
/// if none is open, [`SimTime::MAX`] if the run lasts a whole day (it
/// never closes).
pub(crate) fn run_end(windows: &[&Window], now: SimTime) -> SimTime {
    let mut end = now;
    while end < now.plus(Duration::from_secs(SECS_PER_DAY)) {
        let secs = end.as_nanos() / 1_000_000_000;
        let sod = secs % SECS_PER_DAY;
        // A window open past its end of day wraps midnight: it closes
        // tomorrow.
        let close = |w: &&Window| {
            let until = u64::from(w.until_sec);
            until + SECS_PER_DAY * u64::from(sod >= until)
        };
        match windows.iter().filter(|w| w.contains(end)).map(close).max() {
            Some(close) => end = SimTime::from_secs(secs - sod + close),
            None => return end,
        }
    }
    SimTime::MAX
}

/// A grant: subject × resource × windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contract {
    /// Who the grant applies to: exactly this DN (a proxy resolves to
    /// its base identity first).
    pub subject: Dn,
    /// Resource name the grant covers.
    pub resource: String,
    /// When the grant is active (any window matching suffices).
    pub windows: Vec<Window>,
}

impl Contract {
    /// Grant `subject` access to `resource` during `windows`.
    pub fn new(subject: Dn, resource: &str, windows: Vec<Window>) -> Self {
        Contract {
            subject,
            resource: resource.to_string(),
            windows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Authorizer, GridMap};

    impl Contract {
        /// Whether this contract alone lets `dn` use `resource` at `now`.
        fn authorizes(&self, dn: &Dn, resource: &str, now: SimTime) -> bool {
            let mut gridmap = GridMap::new();
            gridmap.add(dn.base_identity(), &["account"]);
            let policy = Authorizer::with_contracts(gridmap, vec![self.clone()]);
            policy.authorize(dn, resource, now).is_ok()
        }
    }

    fn at_hour(day: u64, hour: u64) -> SimTime {
        SimTime::from_secs(day * SECS_PER_DAY + hour * 3600)
    }

    #[test]
    fn paper_example_three_to_four_pm() {
        // "allow access to this resource from 3 to 4 pm to user X"
        let x = Dn::user("Grid", "ANL", "User X");
        let c = Contract::new(x.clone(), "hot-cluster", vec![Window::daily_hours(15, 16)]);
        assert!(c.authorizes(&x, "hot-cluster", at_hour(0, 15)));
        assert!(c.authorizes(&x, "hot-cluster", at_hour(5, 15))); // recurs daily
        assert!(!c.authorizes(&x, "hot-cluster", at_hour(0, 14)));
        assert!(!c.authorizes(&x, "hot-cluster", at_hour(0, 16)));
        // Different user, different resource: no.
        let y = Dn::user("Grid", "ANL", "User Y");
        assert!(!c.authorizes(&y, "hot-cluster", at_hour(0, 15)));
        assert!(!c.authorizes(&x, "other", at_hour(0, 15)));
    }

    #[test]
    fn daily_window_wrapping_midnight() {
        let w = Window::daily_hours(22, 2);
        assert!(w.contains(at_hour(0, 23)));
        assert!(w.contains(at_hour(1, 1)));
        assert!(!w.contains(at_hour(0, 12)));
    }

    #[test]
    fn proxy_authorized_via_base_identity() {
        let x = Dn::user("Grid", "ANL", "User X");
        let proxy = x.child("CN", "proxy");
        let c = Contract::new(x, "res", vec![Window::daily_hours(15, 16)]);
        assert!(c.authorizes(&proxy, "res", at_hour(0, 15)));
    }

    #[test]
    fn multiple_windows_any_suffices() {
        let dn = Dn::user("Grid", "ANL", "B");
        let c = Contract::new(
            dn.clone(),
            "res",
            vec![Window::daily_hours(9, 10), Window::daily_hours(15, 16)],
        );
        assert!(c.authorizes(&dn, "res", at_hour(0, 9)));
        assert!(c.authorizes(&dn, "res", at_hour(0, 15)));
        assert!(!c.authorizes(&dn, "res", at_hour(0, 12)));
    }

    #[test]
    fn empty_windows_never_authorize() {
        let dn = Dn::user("Grid", "ANL", "C");
        let c = Contract::new(dn.clone(), "res", vec![]);
        assert!(!c.authorizes(&dn, "res", SimTime::ZERO));
    }

    #[test]
    fn a_run_of_windows_closes_where_its_last_adjacent_window_does() {
        let (three, four) = (Window::daily_hours(15, 16), Window::daily_hours(16, 17));
        let half_past_three = at_hour(2, 15).plus(Duration::from_secs(1800));
        assert_eq!(run_end(&[&three], half_past_three), at_hour(2, 16));
        assert_eq!(run_end(&[&four, &three], half_past_three), at_hour(2, 17));
        assert_eq!(
            run_end(&[&three], at_hour(2, 12)),
            at_hour(2, 12),
            "none open"
        );
        // A window that wraps midnight closes the next day, or the same
        // day once past midnight, and runs on into an adjacent one.
        let (night, small_hours) = (Window::daily_hours(22, 2), Window::daily_hours(2, 3));
        assert_eq!(run_end(&[&night], at_hour(0, 23)), at_hour(1, 2));
        assert_eq!(run_end(&[&night], at_hour(1, 1)), at_hour(1, 2));
        assert_eq!(
            run_end(&[&night, &small_hours], at_hour(0, 23)),
            at_hour(1, 3)
        );
        // A run that covers the whole day never closes.
        let day = Window::daily_hours(0, 24);
        assert_eq!(run_end(&[&day], half_past_three), SimTime::MAX);
        let (am, pm) = (Window::daily_hours(8, 20), Window::daily_hours(20, 8));
        assert_eq!(run_end(&[&am, &pm], half_past_three), SimTime::MAX);
    }

    #[test]
    fn window_boundary_semantics() {
        // Daily windows are [from, until): 15:00:00 in, 16:00:00 out.
        let w = Window::daily_hours(15, 16);
        assert!(w.contains(SimTime::from_secs(15 * 3600)));
        assert!(!w.contains(SimTime::from_secs(16 * 3600)));
        assert!(w.contains(SimTime::from_secs(16 * 3600).minus(Duration::from_secs(1))));
    }
}
