//! The paper's running example: a joint checking account replicated in
//! three places — your checkbook, your spouse's checkbook, and the
//! bank's ledger.
//!
//! This module packages the example as ready-made configurations:
//!
//! * [`two_tier_config`] — the bank as base node, the two spouses as
//!   mobile nodes writing tentative checks with the non-negative-balance
//!   acceptance criterion;
//! * [`lost_update_demo`] — the §6 demonstration that timestamped
//!   *replace* loses one of two concurrent balance updates while
//!   commutative *increments* preserve both.

use repl_core::convergent::{DocId, NotesStore, NotesUpdate};
use repl_core::{SimConfig, TwoTierConfig, TwoTierWorkload};
use repl_model::Params;
use repl_sim::SimDuration;
use repl_storage::{NodeId, Timestamp, Value};

/// Build the checkbook two-tier configuration.
///
/// * `accounts` — number of joint accounts at the bank (`DB_Size`);
/// * `spouses` — number of mobile checkbook holders;
/// * `opening_balance` — initial balance of each account;
/// * `max_check` — largest single check;
/// * `horizon_secs`, `seed` — run length and determinism.
///
/// The spouses disconnect for long stretches (the "writes checks all
/// day, syncs at night" pattern, compressed so the simulation finishes
/// quickly).
pub fn two_tier_config(
    accounts: u64,
    spouses: u32,
    opening_balance: i64,
    max_check: i64,
    horizon_secs: u64,
    seed: u64,
) -> TwoTierConfig {
    let nodes = f64::from(spouses) + 1.0;
    let params = Params::new(accounts as f64, nodes, 2.0, 2.0, 0.005);
    TwoTierConfig {
        sim: SimConfig::from_params(&params, horizon_secs, seed),
        base_nodes: 1,
        mobile_owned: 0,
        connected: SimDuration::from_secs(5),
        disconnected: SimDuration::from_secs(20),
        workload: TwoTierWorkload::Commutative {
            max_amount: max_check,
        },
        initial_value: opening_balance,
    }
}

/// Outcome of the §6 lost-update demonstration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LostUpdateDemo {
    /// Final balance under timestamped replace: the newer write
    /// silently overwrote the older one, losing its debit.
    pub replace_balance: i64,
    /// Final balance under commutative increments (both debits
    /// preserved).
    pub increment_balance: i64,
}

/// Run the demonstration: a $1000 account; you debit $300 and your
/// spouse debits $700 concurrently.
///
/// Under timestamped **replace**, each party writes their *computed new
/// balance* ($700 and $300 respectively); the later timestamp wins and
/// the other update is lost — the account shows money that was already
/// spent. Under commutative **increments**, both debits survive and the
/// balance is exactly $0.
pub fn lost_update_demo() -> LostUpdateDemo {
    let account = DocId(1);
    let you = NodeId(1);
    let spouse = NodeId(2);

    // --- Timestamped replace (the record-value anti-pattern). ---
    let mut ledger = NotesStore::new();
    ledger.apply(&NotesUpdate::Replace {
        doc: account,
        ts: Timestamp::new(1, NodeId(0)),
        value: Value::Int(1000),
    });
    // You saw $1000, debit $300, write the new value $700.
    ledger.apply(&NotesUpdate::Replace {
        doc: account,
        ts: Timestamp::new(2, you),
        value: Value::Int(700),
    });
    // Your spouse also saw $1000, debits $700, writes $300 — newer
    // timestamp, so it silently overwrites your update.
    ledger.apply(&NotesUpdate::Replace {
        doc: account,
        ts: Timestamp::new(3, spouse),
        value: Value::Int(300),
    });
    let replace_balance = ledger
        .get(account)
        .and_then(|d| d.value())
        .map_or(0, |v| v.as_int());

    // --- Commutative increments (the transformation pattern). ---
    let mut ledger2 = NotesStore::new();
    ledger2.apply(&NotesUpdate::Replace {
        doc: account,
        ts: Timestamp::new(1, NodeId(0)),
        value: Value::Int(1000),
    });
    ledger2.apply(&NotesUpdate::Increment {
        doc: account,
        ts: Timestamp::new(2, you),
        delta: -300,
    });
    ledger2.apply(&NotesUpdate::Increment {
        doc: account,
        ts: Timestamp::new(3, spouse),
        delta: -700,
    });
    let increment_balance = ledger2
        .get(account)
        .and_then(|d| d.value())
        .map_or(0, |v| v.as_int());

    LostUpdateDemo {
        replace_balance,
        increment_balance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use repl_core::TwoTierSim;

    #[test]
    fn demo_shows_lost_update() {
        let demo = lost_update_demo();
        // Replace: $700 of spending vanished — balance says $300 even
        // though $1000 was spent from $1000.
        assert_eq!(demo.replace_balance, 300);
        // Increments: exactly right.
        assert_eq!(demo.increment_balance, 0);
    }

    #[test]
    fn checkbook_config_runs_and_keeps_balances_nonnegative() {
        let cfg = two_tier_config(50, 3, 200, 150, 120, 42);
        let (report, master, _) = TwoTierSim::new(cfg).run_with_state();
        assert!(report.tentative_commits > 0, "spouses wrote no checks");
        for (id, v) in master.iter() {
            assert!(v.value.as_int() >= 0, "account {id} overdrawn at the bank");
        }
    }

    #[test]
    fn config_shape() {
        let cfg = two_tier_config(100, 2, 1000, 100, 60, 1);
        assert_eq!(cfg.sim.nodes, 3);
        assert_eq!(cfg.base_nodes, 1);
        assert_eq!(cfg.mobile_nodes(), 2);
        assert_eq!(cfg.initial_value, 1000);
    }
}
