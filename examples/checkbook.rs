//! The paper's running example: a joint checking account replicated in
//! your checkbook, your spouse's checkbook, and the bank's ledger.
//!
//! ```bash
//! cargo run --release --example checkbook
//! ```
//!
//! Part 1 shows the §6 lost-update problem with timestamped replace and
//! its cure with commutative increments. Part 2 runs the full two-tier
//! bank: mobile spouses writing tentative checks, the bank re-executing
//! them with the non-negative-balance acceptance criterion.

use dangers_of_replication::core::{TwoTierSim, TwoTierWorkload};
use dangers_of_replication::workload::checkbook;

fn main() {
    // ------------------------------------------------------------------
    // Part 1: why "change account from $1000 to $700" is dangerous.
    // ------------------------------------------------------------------
    println!("== §6: the lost update ==");
    let demo = checkbook::lost_update_demo();
    println!("account starts at $1000; you debit $300, spouse debits $700");
    println!(
        "timestamped replace : final balance ${} (spent $1000, ledger overstates by ${})",
        demo.replace_balance,
        demo.replace_balance - demo.increment_balance
    );
    println!(
        "commutative debits  : final balance ${} (both checks survived)\n",
        demo.increment_balance
    );

    // ------------------------------------------------------------------
    // Part 2: the two-tier bank.
    // ------------------------------------------------------------------
    println!("== §7: the two-tier bank ==");
    let accounts = 50;
    let spouses = 4;
    let opening = 300;
    let cfg = checkbook::two_tier_config(accounts, spouses, opening, 250, 300, 1996);
    println!(
        "{} accounts at ${} each; {} mobile checkbook holders, bank as base node",
        accounts, opening, spouses
    );
    assert!(matches!(cfg.workload, TwoTierWorkload::Commutative { .. }));
    let (report, master, replicas) = TwoTierSim::new(cfg).run_with_state();

    println!(
        "tentative checks written offline : {}",
        report.tentative_commits
    );
    println!(
        "cleared by the bank              : {}",
        report.tentative_accepted
    );
    println!(
        "bounced (would overdraw)         : {}",
        report.tentative_rejected
    );
    println!("bank-side deadlock aborts/retries: {}", report.deadlocks);

    // The §7 guarantees, checked live:
    let overdrawn = master.iter().filter(|(_, v)| v.value.as_int() < 0).count();
    println!("accounts overdrawn at the bank   : {overdrawn} (criterion enforces 0)");
    let want = master.digest();
    let converged = replicas.iter().all(|r| r.digest() == want);
    println!("replicas converged to bank state : {converged}");
    println!("total money at the bank          : ${}", master.total_int());
    assert_eq!(overdrawn, 0, "acceptance criterion must hold");
    assert!(converged, "no system delusion");
    println!("\nno system delusion: the bank's books are the truth, and everyone agrees on them");
}
