//! Deterministic fault injection: message chaos, scheduled network
//! partitions, and node crash/restart windows.
//!
//! A [`FaultPlan`] is a declarative, seedable description of everything
//! that will go wrong during a run. The per-message randomness lives in
//! the [`FaultInjector`] built from the plan; two injectors built from
//! equal plans produce bit-identical fault sequences, so a chaos run is
//! exactly as reproducible as a clean one.
//!
//! The plan separates concerns:
//!
//! * **message chaos** (drop / duplicate / delay-spike probabilities)
//!   is sampled per message by the injector inside
//!   [`Network::send`](crate::Network::send);
//! * **partitions** and **crashes** are *scheduled* windows — the
//!   protocol driver reads them out of the plan and turns them into
//!   events on its own deterministic clock.
//!
//! Delay spikes double as reordering faults: a spiked message arrives
//! after messages sent later on the same link, which is exactly the
//! reordering a real network produces (there is no other mechanism by
//! which a point-to-point link reorders).

use repl_sim::{SimDuration, SimRng, SimTime};
use repl_storage::NodeId;

/// A scheduled bipartition of the cluster: from `start` until `heal`,
/// nodes in `side_a` cannot exchange messages with the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionWindow {
    /// When the partition begins.
    pub start: SimTime,
    /// When it heals (exclusive end of the window).
    pub heal: SimTime,
    /// One side of the bipartition; every other node is on the far
    /// side.
    pub side_a: Vec<NodeId>,
}

/// A scheduled node crash: the node is down from `at` until `restart`,
/// losing all volatile state, then recovers from durable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashWindow {
    /// The node that crashes.
    pub node: NodeId,
    /// When it crashes.
    pub at: SimTime,
    /// When it restarts with recovery.
    pub restart: SimTime,
}

/// Everything that will go wrong during one run, declaratively.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// RNG seed for the per-message fault stream.
    pub seed: u64,
    /// Probability a message is silently lost in flight.
    pub drop_p: f64,
    /// Probability a message is delivered twice.
    pub dup_p: f64,
    /// Probability a message's latency spikes (which also reorders it
    /// behind later traffic).
    pub delay_p: f64,
    /// Extra one-way latency added to a spiked message.
    pub delay_spike: SimDuration,
    /// How long a sender waits before retransmitting a commit record
    /// it could not confirm shipped (drop recovery).
    pub retransmit: SimDuration,
    /// Scheduled partitions.
    pub partitions: Vec<PartitionWindow>,
    /// Scheduled crash/restart windows.
    pub crashes: Vec<CrashWindow>,
}

impl FaultPlan {
    /// The longest duration, and the latest window bound,
    /// [`FaultPlan::parse`] accepts: 10⁹ s, some thirty years of
    /// simulated time. The engines add these values to the clock and to
    /// sampled latencies; at this size no such sum comes anywhere near
    /// the clock's `u64` microseconds.
    pub const MAX_DURATION: SimDuration = SimDuration(1_000_000_000 * 1_000_000);

    /// A plan that injects nothing (probabilities zero, no windows).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            delay_spike: SimDuration::from_millis(500),
            retransmit: SimDuration::from_millis(100),
            partitions: Vec::new(),
            crashes: Vec::new(),
        }
    }

    /// Whether the plan can perturb message delivery at all.
    pub fn has_message_chaos(&self) -> bool {
        self.drop_p > 0.0 || self.dup_p > 0.0 || self.delay_p > 0.0
    }

    /// Parse the harness `--faults SPEC` mini-language. Clauses are
    /// separated by `;`:
    ///
    /// ```text
    /// drop=P               message drop probability
    /// dup=P                message duplication probability
    /// delay=P:SECS         delay-spike probability and spike length
    /// retransmit=SECS      sender retransmit timeout after a drop (> 0)
    /// part=S..E:0,1/2,3    partition from S to E seconds, side A / side B
    /// crash=N:S..E         node N down from S to E seconds
    /// ```
    ///
    /// The side-B node list of `part` is informational (any node not on
    /// side A is on side B); it may be omitted: `part=10..20:0,1`.
    /// `crash` and `part` clauses may repeat. Durations and window
    /// bounds are at most [`FaultPlan::MAX_DURATION`]; every error
    /// names the clause it is about.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::quiet(seed);
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            plan.apply_clause(clause)
                .map_err(|e| format!("fault clause `{clause}`: {e}"))?;
        }
        Ok(plan)
    }

    fn apply_clause(&mut self, clause: &str) -> Result<(), String> {
        let (key, val) = clause.split_once('=').ok_or("not KEY=VALUE")?;
        match key.trim() {
            "drop" => self.drop_p = parse_prob("drop", val)?,
            "dup" => self.dup_p = parse_prob("dup", val)?,
            "delay" => {
                let (p, spike) = val
                    .split_once(':')
                    .ok_or_else(|| format!("delay needs P:SECS, got `{val}`"))?;
                self.delay_p = parse_prob("delay", p)?;
                self.delay_spike = parse_secs("delay spike", spike)?;
            }
            "retransmit" => {
                self.retransmit = parse_secs("retransmit", val)?;
                if self.retransmit == SimDuration::ZERO {
                    // A zero timeout re-arms at the same instant and
                    // the clock never advances.
                    return Err(format!("retransmit `{val}` must be positive"));
                }
            }
            "part" => {
                let (window, sides) = val
                    .split_once(':')
                    .ok_or_else(|| format!("part needs S..E:NODES, got `{val}`"))?;
                let (start, heal) = parse_window(window)?;
                let side_a = sides.split('/').next().unwrap_or("");
                let side_a = parse_nodes(side_a)?;
                if side_a.is_empty() {
                    return Err(format!("part `{val}` has an empty side A"));
                }
                self.partitions.push(PartitionWindow {
                    start,
                    heal,
                    side_a,
                });
            }
            "crash" => {
                let (node, window) = val
                    .split_once(':')
                    .ok_or_else(|| format!("crash needs NODE:S..E, got `{val}`"))?;
                let node = node.trim();
                let id = node
                    .parse::<u32>()
                    .map_err(|_| format!("crash node `{node}` is not an integer"))?;
                let (at, restart) = parse_window(window)?;
                self.crashes.push(CrashWindow {
                    node: NodeId(id),
                    at,
                    restart,
                });
            }
            other => return Err(format!("unknown fault key `{other}`")),
        }
        Ok(())
    }

    /// Reject crash and partition clauses addressing nodes the run does
    /// not have. `parse` cannot do this — it does not know the cluster
    /// size — so callers validate against their `--nodes` before the
    /// run silently no-ops a misaddressed window.
    pub fn validate_nodes(&self, nodes: u32) -> Result<(), String> {
        for c in &self.crashes {
            if c.node.0 >= nodes {
                return Err(format!(
                    "crash clause addresses node {} but the run has only {nodes} nodes (ids 0..{})",
                    c.node.0,
                    nodes.saturating_sub(1)
                ));
            }
        }
        for p in &self.partitions {
            for n in &p.side_a {
                if n.0 >= nodes {
                    return Err(format!(
                        "part clause addresses node {} but the run has only {nodes} nodes (ids 0..{})",
                        n.0,
                        nodes.saturating_sub(1)
                    ));
                }
            }
        }
        Ok(())
    }
}

fn parse_prob(what: &str, s: &str) -> Result<f64, String> {
    let p: f64 = s
        .trim()
        .parse()
        .map_err(|_| format!("{what} probability `{s}` is not a number"))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(format!("{what} probability {p} outside [0, 1]"));
    }
    Ok(p)
}

fn parse_secs(what: &str, s: &str) -> Result<SimDuration, String> {
    let v: f64 = s
        .trim()
        .parse()
        .map_err(|_| format!("{what} `{s}` is not a number of seconds"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("{what} {v} must be a non-negative number"));
    }
    let max = FaultPlan::MAX_DURATION.as_secs_f64();
    if v > max {
        let s = s.trim();
        return Err(format!(
            "{what} `{s}` does not fit the simulated clock (at most {max:e} s)"
        ));
    }
    Ok(SimDuration::from_secs_f64(v))
}

fn parse_window(s: &str) -> Result<(SimTime, SimTime), String> {
    let (start, end) = s
        .split_once("..")
        .ok_or_else(|| format!("window `{s}` is not S..E"))?;
    let start = parse_secs("window start", start)?;
    let end = parse_secs("window end", end)?;
    if end.0 <= start.0 {
        return Err(format!("window `{s}` must end after it starts"));
    }
    Ok((SimTime::ZERO + start, SimTime::ZERO + end))
}

fn parse_nodes(s: &str) -> Result<Vec<NodeId>, String> {
    s.split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| {
            t.parse::<u32>()
                .map(NodeId)
                .map_err(|_| format!("node id `{t}` is not an integer"))
        })
        .collect()
}

/// What the injector decided to do with one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageFate {
    /// Deliver normally.
    Deliver,
    /// Lose the message in flight.
    Drop,
    /// Deliver two copies.
    Duplicate,
    /// Deliver once, this much later than the sampled latency (which
    /// reorders it behind later traffic on the link).
    Delay(SimDuration),
}

/// The runtime half of a [`FaultPlan`]: owns the per-message RNG
/// stream and judges each send.
#[derive(Debug)]
pub struct FaultInjector {
    drop_p: f64,
    dup_p: f64,
    delay_p: f64,
    delay_spike: SimDuration,
    rng: SimRng,
}

impl FaultInjector {
    /// Build the injector for `plan`. Only the message-chaos fields
    /// matter here; partitions and crashes are scheduled by the driver.
    pub fn new(plan: &FaultPlan) -> Self {
        FaultInjector {
            drop_p: plan.drop_p,
            dup_p: plan.dup_p,
            delay_p: plan.delay_p,
            delay_spike: plan.delay_spike,
            rng: SimRng::stream(plan.seed, "fault-injector"),
        }
    }

    /// Judge one message. Exactly one RNG draw per configured fault
    /// class, in a fixed order, so the stream is reproducible
    /// regardless of which faults fire.
    pub fn fate(&mut self) -> MessageFate {
        if self.drop_p > 0.0 && self.rng.chance(self.drop_p) {
            return MessageFate::Drop;
        }
        if self.dup_p > 0.0 && self.rng.chance(self.dup_p) {
            return MessageFate::Duplicate;
        }
        if self.delay_p > 0.0 && self.rng.chance(self.delay_p) {
            return MessageFate::Delay(self.delay_spike);
        }
        MessageFate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_always_delivers() {
        let mut inj = FaultInjector::new(&FaultPlan::quiet(1));
        for _ in 0..1000 {
            assert_eq!(inj.fate(), MessageFate::Deliver);
        }
    }

    #[test]
    fn fates_are_deterministic_for_equal_plans() {
        let mut plan = FaultPlan::quiet(7);
        plan.drop_p = 0.1;
        plan.dup_p = 0.1;
        plan.delay_p = 0.2;
        let mut a = FaultInjector::new(&plan);
        let mut b = FaultInjector::new(&plan);
        for _ in 0..5000 {
            assert_eq!(a.fate(), b.fate());
        }
    }

    #[test]
    fn fate_frequencies_roughly_match_probabilities() {
        let mut plan = FaultPlan::quiet(11);
        plan.drop_p = 0.2;
        plan.dup_p = 0.1;
        let mut inj = FaultInjector::new(&plan);
        let n = 20_000;
        let mut drops = 0;
        let mut dups = 0;
        for _ in 0..n {
            match inj.fate() {
                MessageFate::Drop => drops += 1,
                MessageFate::Duplicate => dups += 1,
                _ => {}
            }
        }
        let drop_rate = f64::from(drops) / f64::from(n);
        // dup is conditional on not dropping: expect 0.8 * 0.1.
        let dup_rate = f64::from(dups) / f64::from(n);
        assert!((drop_rate - 0.2).abs() < 0.02, "drop rate {drop_rate}");
        assert!((dup_rate - 0.08).abs() < 0.02, "dup rate {dup_rate}");
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "drop=0.02; dup=0.01; delay=0.05:0.5; retransmit=0.2; \
             part=10..40:0,1/2,3; crash=2:50..70",
            9,
        )
        .unwrap();
        assert_eq!(plan.seed, 9);
        assert!((plan.drop_p - 0.02).abs() < 1e-12);
        assert!((plan.dup_p - 0.01).abs() < 1e-12);
        assert!((plan.delay_p - 0.05).abs() < 1e-12);
        assert_eq!(plan.delay_spike, SimDuration::from_millis(500));
        assert_eq!(plan.retransmit, SimDuration::from_millis(200));
        assert_eq!(
            plan.partitions,
            vec![PartitionWindow {
                start: SimTime::from_secs(10),
                heal: SimTime::from_secs(40),
                side_a: vec![NodeId(0), NodeId(1)],
            }]
        );
        assert_eq!(
            plan.crashes,
            vec![CrashWindow {
                node: NodeId(2),
                at: SimTime::from_secs(50),
                restart: SimTime::from_secs(70),
            }]
        );
    }

    #[test]
    fn parse_side_b_optional() {
        let plan = FaultPlan::parse("part=1..2:5", 1).unwrap();
        assert_eq!(plan.partitions[0].side_a, vec![NodeId(5)]);
    }

    #[test]
    fn validate_nodes_rejects_out_of_range_ids() {
        let plan = FaultPlan::parse("crash=7:5..9", 1).unwrap();
        assert!(plan.validate_nodes(8).is_ok());
        let err = plan.validate_nodes(4).unwrap_err();
        assert!(err.contains("node 7"), "{err}");
        assert!(err.contains("4 nodes"), "{err}");

        let plan = FaultPlan::parse("part=1..2:0,9", 1).unwrap();
        let err = plan.validate_nodes(4).unwrap_err();
        assert!(err.contains("node 9"), "{err}");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("drop=2.0", 1).is_err());
        assert!(FaultPlan::parse("drop", 1).is_err());
        assert!(FaultPlan::parse("nope=1", 1).is_err());
        assert!(FaultPlan::parse("part=10..5:0", 1).is_err());
        assert!(FaultPlan::parse("part=1..2:", 1).is_err());
        assert!(FaultPlan::parse("crash=x:1..2", 1).is_err());
        assert!(FaultPlan::parse("crash=base0:1..2", 1).is_err());
        assert!(FaultPlan::parse("delay=0.5", 1).is_err());
    }

    #[test]
    fn parse_rejects_what_would_hang_or_overflow_the_clock() {
        // A zero retransmit re-arms at the same instant forever; one
        // that rounds to zero microseconds is no better.
        for spec in ["drop=1;retransmit=0", "retransmit=-0", "retransmit=1e-9"] {
            let err = FaultPlan::parse(spec, 1).unwrap_err();
            assert!(
                err.contains("retransmit") && err.contains("positive"),
                "{err}"
            );
        }
        // Durations and window bounds past the clock saturated to
        // `u64::MAX` µs, and the first sum with them overflowed.
        for spec in [
            "delay=1:1e300",
            "retransmit=1e16",
            "part=1..1e300:0",
            "crash=1:1e19..1e20",
        ] {
            let err = FaultPlan::parse(spec, 1).unwrap_err();
            assert!(err.contains(spec) && err.contains("clock"), "{err}");
        }
        let max = FaultPlan::parse("delay=1:1e9; crash=0:0..1e9", 1).unwrap();
        assert_eq!(max.delay_spike, FaultPlan::MAX_DURATION);
        assert_eq!(
            max.crashes[0].restart,
            SimTime::ZERO + FaultPlan::MAX_DURATION
        );
    }

    #[test]
    fn parse_empty_spec_is_quiet() {
        let plan = FaultPlan::parse("", 3).unwrap();
        assert_eq!(plan, FaultPlan::quiet(3));
        assert!(!plan.has_message_chaos());
    }
}
