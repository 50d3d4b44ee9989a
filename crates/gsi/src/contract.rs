//! Time-window authorization contracts.
//!
//! §5.3 of the paper: "we strive to include authorization that allows us
//! to specify contracts such as *allow access to this resource from 3 to 4
//! pm to user X*". A [`Contract`] grants a subject access to a named
//! resource during one or more [`Window`]s, which are either absolute
//! simulation-time intervals or daily recurring time-of-day ranges.

use crate::dn::Dn;
use infogram_sim::SimTime;

const SECS_PER_DAY: u64 = 86_400;

/// When a contract grant is active.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Window {
    /// Always active.
    Always,
    /// Active within `[from, until)` on the simulation timeline.
    Absolute {
        /// Start (inclusive).
        from: SimTime,
        /// End (exclusive).
        until: SimTime,
    },
    /// Active every day within `[from_sec, until_sec)` seconds-of-day.
    /// `from_sec > until_sec` wraps around midnight.
    Daily {
        /// Start second-of-day (inclusive).
        from_sec: u32,
        /// End second-of-day (exclusive).
        until_sec: u32,
    },
}

impl Window {
    /// The paper's example: 3pm–4pm daily.
    pub fn daily_hours(from_hour: u32, until_hour: u32) -> Window {
        Window::Daily {
            from_sec: from_hour * 3600,
            until_sec: until_hour * 3600,
        }
    }

    /// Whether the window is active at `now`.
    pub fn contains(&self, now: SimTime) -> bool {
        match self {
            Window::Always => true,
            Window::Absolute { from, until } => *from <= now && now < *until,
            Window::Daily {
                from_sec,
                until_sec,
            } => {
                let sod = (now.as_nanos() / 1_000_000_000 % SECS_PER_DAY) as u32;
                if from_sec <= until_sec {
                    (*from_sec..*until_sec).contains(&sod)
                } else {
                    // Wraps midnight: active if after start OR before end.
                    sod >= *from_sec || sod < *until_sec
                }
            }
        }
    }
}

/// What a contract's subject clause matches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubjectMatch {
    /// Exactly this DN (proxies resolve to their base identity first).
    Exact(Dn),
    /// Any identity whose DN starts with this prefix (e.g. everyone in
    /// `/O=Grid/OU=ANL`).
    Prefix(Dn),
    /// Anyone.
    Any,
}

impl SubjectMatch {
    fn matches(&self, dn: &Dn) -> bool {
        let base = dn.base_identity();
        match self {
            SubjectMatch::Exact(want) => &base == want,
            SubjectMatch::Prefix(prefix) => {
                base.rdns().len() >= prefix.rdns().len()
                    && base.rdns()[..prefix.rdns().len()] == *prefix.rdns()
            }
            SubjectMatch::Any => true,
        }
    }
}

/// A grant: subject × resource × windows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contract {
    /// Who the grant applies to.
    pub subject: SubjectMatch,
    /// Resource name the grant covers; `"*"` covers every resource.
    pub resource: String,
    /// When the grant is active (any window matching suffices).
    pub windows: Vec<Window>,
}

impl Contract {
    /// Grant `subject` access to `resource` during `windows`.
    pub fn new(subject: SubjectMatch, resource: &str, windows: Vec<Window>) -> Self {
        Contract {
            subject,
            resource: resource.to_string(),
            windows,
        }
    }

    /// Whether this contract authorizes `dn` on `resource` at `now`.
    pub fn authorizes(&self, dn: &Dn, resource: &str, now: SimTime) -> bool {
        (self.resource == "*" || self.resource == resource)
            && self.subject.matches(dn)
            && self.windows.iter().any(|w| w.contains(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn at_hour(day: u64, hour: u64) -> SimTime {
        SimTime::from_secs(day * SECS_PER_DAY + hour * 3600)
    }

    #[test]
    fn paper_example_three_to_four_pm() {
        // "allow access to this resource from 3 to 4 pm to user X"
        let x = Dn::user("Grid", "ANL", "User X");
        let c = Contract::new(
            SubjectMatch::Exact(x.clone()),
            "hot-cluster",
            vec![Window::daily_hours(15, 16)],
        );
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
    fn absolute_window() {
        let dn = Dn::user("Grid", "ANL", "A");
        let c = Contract::new(
            SubjectMatch::Exact(dn.clone()),
            "res",
            vec![Window::Absolute {
                from: SimTime::from_secs(100),
                until: SimTime::from_secs(200),
            }],
        );
        assert!(!c.authorizes(&dn, "res", SimTime::from_secs(99)));
        assert!(c.authorizes(&dn, "res", SimTime::from_secs(100)));
        assert!(c.authorizes(&dn, "res", SimTime::from_secs(199)));
        assert!(!c.authorizes(&dn, "res", SimTime::from_secs(200)));
    }

    #[test]
    fn daily_window_wrapping_midnight() {
        let w = Window::Daily {
            from_sec: 22 * 3600,
            until_sec: 2 * 3600,
        };
        assert!(w.contains(at_hour(0, 23)));
        assert!(w.contains(at_hour(1, 1)));
        assert!(!w.contains(at_hour(0, 12)));
    }

    #[test]
    fn prefix_match_covers_organization() {
        let c = Contract::new(
            SubjectMatch::Prefix(
                Dn::from_rdns(vec![
                    ("O".to_string(), "Grid".to_string()),
                    ("OU".to_string(), "ANL".to_string()),
                ])
                .unwrap(),
            ),
            "*",
            vec![Window::Always],
        );
        assert!(c.authorizes(&Dn::user("Grid", "ANL", "Anyone"), "any-res", SimTime::ZERO));
        assert!(!c.authorizes(
            &Dn::user("Grid", "ISI", "Outsider"),
            "any-res",
            SimTime::ZERO
        ));
    }

    #[test]
    fn proxy_authorized_via_base_identity() {
        let x = Dn::user("Grid", "ANL", "User X");
        let proxy = x.child("CN", "proxy");
        let c = Contract::new(SubjectMatch::Exact(x), "res", vec![Window::Always]);
        assert!(c.authorizes(&proxy, "res", SimTime::ZERO));
    }

    #[test]
    fn any_subject_wildcard_resource() {
        let c = Contract::new(SubjectMatch::Any, "*", vec![Window::Always]);
        assert!(c.authorizes(
            &Dn::user("Whatever", "X", "Y"),
            "anything",
            SimTime::from_secs(1)
        ));
    }

    #[test]
    fn multiple_windows_any_suffices() {
        let dn = Dn::user("Grid", "ANL", "B");
        let c = Contract::new(
            SubjectMatch::Exact(dn.clone()),
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
        let c = Contract::new(SubjectMatch::Exact(dn.clone()), "res", vec![]);
        assert!(!c.authorizes(&dn, "res", SimTime::ZERO));
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
