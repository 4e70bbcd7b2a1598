//! # repl-model — the paper's closed-form analytic model
//!
//! This crate implements every equation of Gray, Helland, O'Neil and
//! Shasha, *"The Dangers of Replication and a Solution"* (SIGMOD 1996):
//!
//! | Equations | Module | Topic |
//! |-----------|--------|-------|
//! | (1)–(5)   | [`single`] | single-node waits and deadlocks |
//! | (6)–(13)  | [`eager`]  | eager replication: N³ deadlock growth, scaled-DB variant |
//! | (14)–(19) | [`lazy`]   | lazy group reconciliations, mobile collisions, lazy-master deadlocks |
//!
//! [`sweep`] evaluates any of these quantities across a parameter range
//! and fits growth exponents, so the experiment harness can compare the
//! model against the discrete-event simulator point by point.
//!
//! All functions take the paper's Table 2 parameter set, [`Params`].
//! They are average-case approximations valid in the low-contention
//! regime the paper assumes (`PW ≪ 1`, `DB_Size ≫ Nodes`).
//!
//! # Example: the headline claim
//!
//! ```
//! use repl_model::{eager, Params};
//!
//! let base = Params::new(2_000.0, 1.0, 20.0, 4.0, 0.01);
//! let one = eager::total_deadlock_rate(&base.with_nodes(1.0));
//! let ten = eager::total_deadlock_rate(&base.with_nodes(10.0));
//! // "A ten-fold increase in nodes gives a thousand-fold increase
//! // in deadlocks" — equation (12).
//! assert!((ten / one - 1000.0).abs() < 1e-6);
//! ```

#![warn(missing_docs)]

pub mod eager;
pub mod lazy;
pub mod params;
pub mod regime;
pub mod single;
pub mod sweep;

pub use params::{ParamError, Params};
pub use regime::RegimeReport;
pub use sweep::{fit_exponent, sweep, Axis, Point};

/// The replication strategies of the paper's Table 1, plus the two-tier
/// scheme of §7. Shared vocabulary for the protocol crate, workload
/// generators and harness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Scheme {
    /// Eager propagation, group ownership: one transaction, N object
    /// owners ("update anywhere", synchronous).
    EagerGroup,
    /// Eager propagation, master ownership: one transaction, one owner.
    EagerMaster,
    /// Lazy propagation, group ownership: N transactions, N owners —
    /// needs timestamp reconciliation.
    LazyGroup,
    /// Lazy propagation, master ownership: N transactions, one owner.
    LazyMaster,
    /// The paper's solution: N+1 transactions, one owner, tentative
    /// local updates and eager base updates.
    TwoTier,
}

impl Scheme {
    /// All five schemes, in the order Table 1 presents them.
    pub const ALL: [Scheme; 5] = [
        Scheme::EagerGroup,
        Scheme::EagerMaster,
        Scheme::LazyGroup,
        Scheme::LazyMaster,
        Scheme::TwoTier,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::EagerGroup => "eager-group",
            Scheme::EagerMaster => "eager-master",
            Scheme::LazyGroup => "lazy-group",
            Scheme::LazyMaster => "lazy-master",
            Scheme::TwoTier => "two-tier",
        }
    }

    /// Table 1, propagation column: how many committed transactions one
    /// user update turns into on an `n`-node system.
    pub fn transactions_per_user_update(self, n: u64) -> u64 {
        match self {
            Scheme::EagerGroup | Scheme::EagerMaster => 1,
            Scheme::LazyGroup | Scheme::LazyMaster => n,
            Scheme::TwoTier => n + 1,
        }
    }

    /// Table 1, ownership column: how many nodes may accept an update
    /// for a given object on an `n`-node system.
    pub fn object_owners(self, n: u64) -> u64 {
        match self {
            Scheme::EagerGroup | Scheme::LazyGroup => n,
            Scheme::EagerMaster | Scheme::LazyMaster | Scheme::TwoTier => 1,
        }
    }

    /// Whether conflicting updates surface as *reconciliations* (true)
    /// or as waits/deadlocks (false).
    pub fn reconciles(self) -> bool {
        matches!(self, Scheme::LazyGroup)
    }

    /// Whether a disconnected (mobile) node can still originate updates.
    pub fn supports_mobility(self) -> bool {
        matches!(self, Scheme::LazyGroup | Scheme::TwoTier)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_transaction_counts() {
        let n = 5;
        assert_eq!(Scheme::EagerGroup.transactions_per_user_update(n), 1);
        assert_eq!(Scheme::EagerMaster.transactions_per_user_update(n), 1);
        assert_eq!(Scheme::LazyGroup.transactions_per_user_update(n), 5);
        assert_eq!(Scheme::LazyMaster.transactions_per_user_update(n), 5);
        assert_eq!(Scheme::TwoTier.transactions_per_user_update(n), 6);
    }

    #[test]
    fn table1_owner_counts() {
        let n = 5;
        assert_eq!(Scheme::EagerGroup.object_owners(n), 5);
        assert_eq!(Scheme::LazyGroup.object_owners(n), 5);
        assert_eq!(Scheme::EagerMaster.object_owners(n), 1);
        assert_eq!(Scheme::LazyMaster.object_owners(n), 1);
        assert_eq!(Scheme::TwoTier.object_owners(n), 1);
    }

    #[test]
    fn only_lazy_group_reconciles() {
        for s in Scheme::ALL {
            assert_eq!(s.reconciles(), s == Scheme::LazyGroup);
        }
    }

    #[test]
    fn mobility_support() {
        assert!(Scheme::TwoTier.supports_mobility());
        assert!(Scheme::LazyGroup.supports_mobility());
        assert!(!Scheme::EagerGroup.supports_mobility());
        assert!(!Scheme::LazyMaster.supports_mobility());
    }

    #[test]
    fn display_names() {
        assert_eq!(Scheme::TwoTier.to_string(), "two-tier");
        assert_eq!(Scheme::ALL.len(), 5);
    }
}
