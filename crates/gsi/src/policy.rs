//! The authorizer: gridmap + contracts.
//!
//! The gatekeeper's decision pipeline, per §2 and §5.3 of the paper:
//! authenticate (chain validation, done by [`crate::handshake`]), then
//! authorize — first map the grid identity to a local account through the
//! gridmap, then check any configured contracts for the requested
//! resource.

use crate::contract::Contract;
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

/// A successful authorization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuthzDecision {
    /// The authenticated grid identity (base identity, proxies resolved).
    pub grid_identity: Dn,
    /// The local account the request runs as.
    pub local_account: String,
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
    pub fn authorize(
        &self,
        dn: &Dn,
        resource: &str,
        now: SimTime,
    ) -> Result<AuthzDecision, AuthzError> {
        let base = dn.base_identity();
        let account = self
            .gridmap
            .lookup(&base)
            .map(|s| s.to_string())
            .ok_or_else(|| AuthzError::NotMapped {
                dn: base.to_string(),
            })?;
        if self.require_contracts {
            let ok = self
                .contracts
                .iter()
                .any(|c| c.authorizes(&base, resource, now));
            if !ok {
                return Err(AuthzError::NoContract {
                    dn: base.to_string(),
                    resource: resource.to_string(),
                });
            }
        }
        Ok(AuthzDecision {
            grid_identity: base,
            local_account: account,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contract::{SubjectMatch, Window};

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
        assert_eq!(d.local_account, "gregor");
        assert_eq!(d.grid_identity, Dn::user("Grid", "ANL", "Gregor"));

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
        assert_eq!(d.local_account, "gregor");
    }

    #[test]
    fn contract_policy_enforces_windows() {
        let gregor = Dn::user("Grid", "ANL", "Gregor");
        let a = Authorizer::with_contracts(
            gridmap(),
            vec![Contract::new(
                SubjectMatch::Exact(gregor.clone()),
                "cluster",
                vec![Window::daily_hours(15, 16)],
            )],
        );
        let three_pm = SimTime::from_secs(15 * 3600);
        let noon = SimTime::from_secs(12 * 3600);
        assert!(a.authorize(&gregor, "cluster", three_pm).is_ok());
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
}
