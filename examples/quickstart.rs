//! Quickstart: the paper's claims in two minutes.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! 1. Ask the analytic model what happens when you replicate.
//! 2. Watch a simulated eager system actually do it.
//! 3. Run a simulated lazy-group system to quiescence and watch its
//!    replicas converge.

use dangers_of_replication::core::{
    EagerSim, LazyGroupSim, Mobility, Ownership, ReplicaDiscipline, SimConfig,
};
use dangers_of_replication::model::{eager, lazy, Params};

fn main() {
    // ------------------------------------------------------------------
    // 1. The model: scaling from 1 to 10 nodes.
    // ------------------------------------------------------------------
    println!("== the model's warning (equations 12 and 19) ==");
    let base = Params::new(2_000.0, 1.0, 20.0, 4.0, 0.01);
    println!(
        "{:>6} {:>22} {:>22}",
        "nodes", "eager deadlocks/s", "lazy-master deadlocks/s"
    );
    for n in [1.0, 2.0, 5.0, 10.0] {
        let p = base.with_nodes(n);
        println!(
            "{:>6} {:>22.6} {:>22.6}",
            n,
            eager::total_deadlock_rate(&p),
            lazy::master_deadlock_rate(&p)
        );
    }
    let r = eager::total_deadlock_rate(&base.with_nodes(10.0))
        / eager::total_deadlock_rate(&base.with_nodes(1.0));
    println!("10x nodes => {r:.0}x deadlocks (the paper's thousand-fold blow-up)\n");

    // ------------------------------------------------------------------
    // 2. A discrete-event eager run at 6 nodes.
    // ------------------------------------------------------------------
    println!("== simulated eager replication, 6 nodes ==");
    let p6 = base.with_nodes(6.0).with_db_size(500.0);
    let cfg = SimConfig::from_params(&p6, 300, 1).with_warmup(5);
    let report = EagerSim::new(cfg, ReplicaDiscipline::Serial, Ownership::Group).run();
    println!(
        "committed:      {:>8} txns ({:.1}/s)",
        report.committed, report.commit_rate
    );
    println!(
        "waits:          {:>8} ({:.3}/s)",
        report.waits, report.wait_rate
    );
    println!(
        "deadlocks:      {:>8} ({:.3}/s)",
        report.deadlocks, report.deadlock_rate
    );
    println!(
        "mean latency:   {:>11.1} ms\n",
        report.mean_latency_secs * 1e3
    );

    // ------------------------------------------------------------------
    // 3. A discrete-event lazy-group run at 4 nodes.
    // ------------------------------------------------------------------
    println!("== simulated lazy-group replication, 4 nodes ==");
    // Every node updates the same small database: updates collide.
    let p4 = base.with_nodes(4.0).with_db_size(100.0).with_tps(5.0);
    let cfg = SimConfig::from_params(&p4, 60, 1);
    let (report, stores) = LazyGroupSim::new(cfg, Mobility::Connected).run_with_state();
    let converged = stores.iter().all(|s| s.digest() == stores[0].digest());
    println!(
        "executed {} transactions across 4 replicas",
        report.committed
    );
    println!("dangerous (reconciled) updates: {}", report.reconciliations);
    println!("replicas converged: {converged}");
    println!("\nNext: `cargo run --release -p repl-harness -- all` regenerates every table.");
}
