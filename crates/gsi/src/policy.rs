//! The authorizer: gridmap + contracts.
//!
//! The gatekeeper's decision pipeline, per §2 and §5.3 of the paper:
//! authenticate (chain validation, done by [`crate::handshake`]), then
//! authorize — first map the grid identity to a local account through the
//! gridmap, then check any configured contracts for the requested
//! resource.

use crate::contract::{run_end, Contract, Window};
use crate::dn::Dn;
use crate::gridmap::GridMap;
use infogram_sim::SimTime;

/// Why authorization failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthzError {
    /// The DN has no gridmap entry.
    NotMapped {
        /// The unmapped DN.
        dn: String,
    },
    /// Gridmap maps the DN, but no contract covers the resource at this
    /// time.
    NoContract {
        /// The denied DN.
        dn: String,
        /// The resource that was requested.
        resource: String,
    },
}

impl std::fmt::Display for AuthzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuthzError::NotMapped { dn } => write!(f, "no gridmap entry for {dn}"),
            AuthzError::NoContract { dn, resource } => {
                write!(f, "no active contract lets {dn} use {resource}")
            }
        }
    }
}

impl std::error::Error for AuthzError {}

/// A successful authorization: who the peer is, as whom it runs, and
/// until when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Session {
    /// The authenticated grid identity (base identity, proxies resolved).
    pub peer: Dn,
    /// The local account the request runs as.
    pub account: String,
    /// When authorization first fails: the close of the run of contract
    /// windows open now ([`SimTime::MAX`] under a gridmap-only policy),
    /// or, for a [`crate::accept`]ed connection, its chain's expiry if
    /// that is sooner.
    pub valid_until: SimTime,
}

/// Combined gridmap + contract authorization policy.
///
/// With `require_contracts = false` (the GRAM 1.1.x behaviour), a gridmap
/// entry alone suffices. With `true`, the paper's §5.3 extension applies:
/// some contract must also cover the (subject, resource, time) triple.
#[derive(Debug)]
pub struct Authorizer {
    gridmap: GridMap,
    contracts: Vec<Contract>,
    require_contracts: bool,
}

impl Authorizer {
    /// Gridmap-only policy (classic GRAM).
    pub fn gridmap_only(gridmap: GridMap) -> Self {
        Authorizer {
            gridmap,
            contracts: Vec::new(),
            require_contracts: false,
        }
    }

    /// Gridmap + mandatory contracts (the InfoGram extension).
    pub fn with_contracts(gridmap: GridMap, contracts: Vec<Contract>) -> Self {
        Authorizer {
            gridmap,
            contracts,
            require_contracts: true,
        }
    }

    /// Authorize `dn` to use `resource` at `now`.
    pub fn authorize(&self, dn: &Dn, resource: &str, now: SimTime) -> Result<Session, AuthzError> {
        let base = dn.base_identity();
        let account = self
            .gridmap
            .lookup(&base)
            .map(|s| s.to_string())
            .ok_or_else(|| AuthzError::NotMapped {
                dn: base.to_string(),
            })?;
        let mut valid_until = SimTime::MAX;
        if self.require_contracts {
            let windows: Vec<&Window> = (self.contracts.iter())
                .filter(|c| c.resource == resource && c.subject == base)
                .flat_map(|c| &c.windows)
                .collect();
            // Open now, or no contract covers the request.
            valid_until = run_end(&windows, now);
            if valid_until == now {
                return Err(AuthzError::NoContract {
                    dn: base.to_string(),
                    resource: resource.to_string(),
                });
            }
        }
        Ok(Session {
            peer: base,
            account,
            valid_until,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gridmap() -> GridMap {
        let mut m = GridMap::new();
        m.add(Dn::user("Grid", "ANL", "Gregor"), &["gregor"]);
        m.add(Dn::user("Grid", "ANL", "Jarek"), &["gawor", "globus"]);
        m
    }

    #[test]
    fn gridmap_only_policy() {
        let a = Authorizer::gridmap_only(gridmap());
        let d = a
            .authorize(&Dn::user("Grid", "ANL", "Gregor"), "any", SimTime::ZERO)
            .unwrap();
        assert_eq!(d.account, "gregor");
        assert_eq!(d.peer, Dn::user("Grid", "ANL", "Gregor"));
        assert_eq!(
            d.valid_until,
            SimTime::MAX,
            "a gridmap entry does not expire"
        );

        let err = a
            .authorize(&Dn::user("Grid", "ANL", "Stranger"), "any", SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, AuthzError::NotMapped { .. }));
    }

    #[test]
    fn proxies_map_to_owner_account() {
        let a = Authorizer::gridmap_only(gridmap());
        let proxy = Dn::user("Grid", "ANL", "Gregor").child("CN", "proxy");
        let d = a.authorize(&proxy, "any", SimTime::ZERO).unwrap();
        assert_eq!(d.account, "gregor");
    }

    #[test]
    fn contract_policy_enforces_windows() {
        let gregor = Dn::user("Grid", "ANL", "Gregor");
        let a = Authorizer::with_contracts(
            gridmap(),
            vec![Contract::new(
                gregor.clone(),
                "cluster",
                vec![Window::daily_hours(15, 16)],
            )],
        );
        let three_pm = SimTime::from_secs(15 * 3600);
        let noon = SimTime::from_secs(12 * 3600);
        assert!(a.authorize(&gregor, "cluster", three_pm).is_ok());
        let half_past_three = three_pm.plus(std::time::Duration::from_secs(1800));
        let four_pm = SimTime::from_secs(16 * 3600);
        assert_eq!(
            a.authorize(&gregor, "cluster", half_past_three)
                .unwrap()
                .valid_until,
            four_pm
        );
        assert!(matches!(
            a.authorize(&gregor, "cluster", noon),
            Err(AuthzError::NoContract { .. })
        ));
        // Mapped user, but no contract for this resource.
        assert!(matches!(
            a.authorize(&gregor, "other-resource", three_pm),
            Err(AuthzError::NoContract { .. })
        ));
        // Unmapped user fails earlier, at the gridmap.
        assert!(matches!(
            a.authorize(&Dn::user("Grid", "X", "Nobody"), "cluster", three_pm),
            Err(AuthzError::NotMapped { .. })
        ));
    }

    #[test]
    fn adjacent_contracts_make_one_run() {
        let gregor = Dn::user("Grid", "ANL", "Gregor");
        let grant = |resource, from, until| {
            Contract::new(
                gregor.clone(),
                resource,
                vec![Window::daily_hours(from, until)],
            )
        };
        let a = Authorizer::with_contracts(
            gridmap(),
            vec![
                grant("cluster", 16, 17),
                grant("other", 17, 18),
                grant("cluster", 15, 16),
            ],
        );
        let d = a.authorize(&gregor, "cluster", SimTime::from_secs(15 * 3600 + 1800));
        assert_eq!(d.unwrap().valid_until, SimTime::from_secs(17 * 3600));
    }
}
