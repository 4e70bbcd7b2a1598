//! A seeded schedule fuzzer with greedy shrinking.
//!
//! The fuzzer perturbs transaction interleavings indirectly: each
//! generated [`FuzzCase`] re-seeds the simulator's deterministic RNG
//! and varies load, node count, transaction size, and (for lazy-group
//! and two-tier) fault timings around a base case. Every generated
//! execution runs through the scheme's oracles; a failing case is
//! greedily shrunk to a minimal reproducer that round-trips through
//! [`FuzzCase::encode`], so the harness can print it as a re-runnable
//! command line.
//!
//! The module is engine-agnostic: callers supply `run(case) ->
//! violations`, so the same machinery drives harness experiments,
//! integration tests, and mutation tests.

use crate::oracle::{Scheme, Violation};
use repl_sim::SimRng;
use std::str::FromStr;

/// One fuzzable execution, fully determined by its fields (the
/// simulators are deterministic given a seed).
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCase {
    /// The scheme under test.
    pub scheme: Scheme,
    /// Root RNG seed for the execution.
    pub seed: u64,
    /// Node (replica) count.
    pub nodes: u32,
    /// Database size in objects.
    pub db_size: u64,
    /// Transactions per second per node.
    pub tps: u32,
    /// Actions (object accesses) per transaction.
    pub actions: u32,
    /// Simulated horizon in seconds.
    pub horizon_secs: u64,
    /// Optional fault-plan spec (the `repl_net::FaultPlan::parse`
    /// mini-language). Every scheme takes one: the fuzzer generates
    /// them for lazy-group and two-tier, and the commit-protocol
    /// campaign sets them on eager and lazy-master cases.
    pub faults: Option<String>,
    /// Keyspace shard count; 0 leaves the run unsharded. Only the
    /// contention-family schemes consult a shard layout.
    pub shards: u32,
    /// Per-shard replication factor; 0 means full replication.
    pub rf: u32,
    /// Cross-shard commit protocol name (`owner-order`, `2pc`, `o2pl`);
    /// kept as a string because this crate cannot see the engine's
    /// `CommitProto` type. `None` means the engine default.
    pub proto: Option<String>,
    /// Crash-point spec (`kind:nth:down_secs`, the engine's
    /// `CrashPoint::parse` grammar); `None` injects no crash.
    pub xpoint: Option<String>,
}

impl FuzzCase {
    /// Canonical one-line encoding, e.g.
    /// `lazy-group:seed=7,nodes=4,db=300,tps=10,actions=4,horizon=20|drop=0.05; crash=1:3..9`.
    /// The fault spec rides after a `|` because it contains commas.
    pub fn encode(&self) -> String {
        let mut s = format!(
            "{}:seed={},nodes={},db={},tps={},actions={},horizon={}",
            self.scheme.name(),
            self.seed,
            self.nodes,
            self.db_size,
            self.tps,
            self.actions,
            self.horizon_secs
        );
        // Optional fields ride only when non-default so pre-protocol
        // corpus lines round-trip byte-identically.
        if self.shards > 0 {
            s.push_str(&format!(",shards={}", self.shards));
        }
        if self.rf > 0 {
            s.push_str(&format!(",rf={}", self.rf));
        }
        if let Some(p) = &self.proto {
            s.push_str(&format!(",proto={p}"));
        }
        if let Some(x) = &self.xpoint {
            s.push_str(&format!(",xpoint={x}"));
        }
        if let Some(f) = &self.faults {
            s.push('|');
            s.push_str(f);
        }
        s
    }

    /// Inverse of [`FuzzCase::encode`]. A value that does not fit its
    /// field, or a horizon past [`MAX_HORIZON_SECS`], is refused rather
    /// than wrapped. `proto` and `xpoint` are kept as text: their
    /// parsers live in the engine crate, which checks them.
    pub fn parse(s: &str) -> Result<FuzzCase, String> {
        let (head, faults) = match s.split_once('|') {
            Some((h, f)) => (h, Some(f.trim().to_owned())),
            None => (s, None),
        };
        let (scheme, fields) = head
            .split_once(':')
            .ok_or_else(|| format!("case `{s}` is not SCHEME:FIELDS"))?;
        let scheme =
            Scheme::parse(scheme.trim()).ok_or_else(|| format!("unknown scheme `{scheme}`"))?;
        let mut case = FuzzCase {
            scheme,
            seed: 0,
            nodes: 0,
            db_size: 0,
            tps: 0,
            actions: 0,
            horizon_secs: 0,
            faults,
            shards: 0,
            rf: 0,
            proto: None,
            xpoint: None,
        };
        for field in fields.split(',') {
            let (key, val) = field
                .trim()
                .split_once('=')
                .ok_or_else(|| format!("field `{field}` is not KEY=VALUE"))?;
            match key.trim() {
                "seed" => case.seed = parse_uint("seed", val)?,
                "nodes" => case.nodes = parse_uint("nodes", val)?,
                "db" => case.db_size = parse_uint("db", val)?,
                "tps" => case.tps = parse_uint("tps", val)?,
                "actions" => case.actions = parse_uint("actions", val)?,
                "horizon" => case.horizon_secs = parse_uint("horizon", val)?,
                "shards" => case.shards = parse_uint("shards", val)?,
                "rf" => case.rf = parse_uint("rf", val)?,
                "proto" => case.proto = Some(val.trim().to_owned()),
                "xpoint" => case.xpoint = Some(val.trim().to_owned()),
                other => return Err(format!("unknown case field `{other}`")),
            }
        }
        if case.nodes < 1 || case.db_size < 1 || case.tps < 1 || case.actions < 1 {
            return Err(format!("case `{s}` has a zero dimension"));
        }
        if case.horizon_secs > MAX_HORIZON_SECS {
            return Err(format!(
                "horizon {} s does not fit the simulated clock (at most {MAX_HORIZON_SECS} s)",
                case.horizon_secs
            ));
        }
        Ok(case)
    }

    /// Grow the database until the eager-serial worst case stays below
    /// ~40% utilization — the same guard the property tests use — so
    /// fuzz cases finish instead of saturating. Applied at generation
    /// time, which keeps encoded repro lines exact.
    pub fn stabilized(mut self) -> FuzzCase {
        const ACTION_TIME: f64 = 0.01;
        let nodes = f64::from(self.nodes);
        let tps = f64::from(self.tps);
        let actions = f64::from(self.actions);
        let duration = actions * nodes * ACTION_TIME;
        let load = tps * nodes * actions * duration;
        let util = load / (2.0 * self.db_size as f64);
        if util > 0.4 {
            self.db_size = (load / 0.8).ceil() as u64;
        }
        self
    }
}

/// The longest horizon a case may ask for, in seconds: 10⁹, the bound
/// `repl_net::FaultPlan::MAX_DURATION` puts on every fault duration
/// (this crate sits below `repl-net`). The engines add sampled
/// latencies and windows to it; none of those sums nears the clock's
/// `u64` microseconds.
const MAX_HORIZON_SECS: u64 = 1_000_000_000;

/// `v` as an unsigned integer of `T`'s width.
fn parse_uint<T: FromStr>(what: &str, v: &str) -> Result<T, String> {
    let v = v.trim();
    v.parse().map_err(|_| {
        let bits = 8 * std::mem::size_of::<T>();
        format!("{what} `{v}` is not a {bits}-bit unsigned integer")
    })
}

/// A failing case together with its shrunk minimal form.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The case the fuzzer originally tripped on.
    pub original: FuzzCase,
    /// The greedily shrunk reproducer (still failing).
    pub shrunk: FuzzCase,
    /// The violations the shrunk case produces.
    pub violations: Vec<Violation>,
    /// Shrink steps accepted.
    pub shrink_steps: usize,
}

/// The outcome of one fuzz campaign over a single scheme.
#[derive(Debug, Clone, Default)]
pub struct FuzzOutcome {
    /// Generated cases executed (stops early on first failure).
    pub cases_run: usize,
    /// Extra executions spent shrinking.
    pub shrink_runs: usize,
    /// The failure, if any case tripped an oracle.
    pub failure: Option<FuzzFailure>,
}

/// Cap on shrink-candidate executions per failure.
const SHRINK_BUDGET: usize = 64;

/// Generate `cases` perturbations of `base` (deterministically, from
/// `base.seed`), run each through `run`, and greedily shrink the first
/// failure. `run` returns the oracle violations for a case.
pub fn fuzz(
    base: &FuzzCase,
    cases: usize,
    run: &dyn Fn(&FuzzCase) -> Vec<Violation>,
) -> FuzzOutcome {
    let mut outcome = FuzzOutcome::default();
    for i in 0..cases {
        let case = perturb(base, i);
        outcome.cases_run += 1;
        let violations = run(&case);
        if !violations.is_empty() {
            let (shrunk, violations, steps, runs) = shrink(&case, violations, run);
            outcome.shrink_runs = runs;
            outcome.failure = Some(FuzzFailure {
                original: case,
                shrunk,
                violations,
                shrink_steps: steps,
            });
            break;
        }
    }
    outcome
}

/// The `i`-th deterministic perturbation of `base`.
fn perturb(base: &FuzzCase, i: usize) -> FuzzCase {
    let mut rng = SimRng::stream(base.seed, &format!("fuzz-{}-{i}", base.scheme.name()));
    let nodes = 2 + rng.gen_range(u64::from(base.nodes.max(2))) as u32;
    let db_size = (base.db_size / 2 + rng.gen_range(base.db_size.max(1))).max(8);
    let tps = 1 + rng.gen_range(u64::from(base.tps) * 2) as u32;
    let actions = 2 + rng.gen_range(4) as u32;
    let chaotic = matches!(base.scheme, Scheme::LazyGroup | Scheme::TwoTier);
    let faults = if chaotic && rng.chance(0.5) {
        Some(gen_faults(&mut rng, nodes, base.horizon_secs))
    } else {
        None
    };
    FuzzCase {
        scheme: base.scheme,
        seed: rng.next_u64(),
        nodes,
        db_size,
        tps,
        actions,
        horizon_secs: base.horizon_secs,
        faults,
        // The protocol dimensions are inherited, not perturbed: a
        // campaign that wants to sweep crash points varies the base.
        shards: base.shards,
        rf: base.rf,
        proto: base.proto.clone(),
        xpoint: base.xpoint.clone(),
    }
    .stabilized()
}

/// A random fault plan: light message chaos, sometimes a partition
/// window or a crash window inside the horizon.
fn gen_faults(rng: &mut SimRng, nodes: u32, horizon: u64) -> String {
    let drop_p = rng.gen_range(8) as f64 / 100.0;
    let dup_p = rng.gen_range(5) as f64 / 100.0;
    let mut spec = format!("drop={drop_p:.2}; dup={dup_p:.2}; retransmit=0.25");
    let half = (horizon / 2).max(2);
    if nodes >= 2 && rng.chance(0.5) {
        let start = 1 + rng.gen_range(half);
        let end = start + 1 + rng.gen_range(half);
        // Isolate one node from the rest.
        let lone = rng.gen_range(u64::from(nodes));
        spec.push_str(&format!("; part={start}..{end}:{lone}"));
    }
    if rng.chance(0.4) {
        let node = rng.gen_range(u64::from(nodes));
        let at = 1 + rng.gen_range(half);
        let restart = at + 1 + rng.gen_range(half);
        spec.push_str(&format!("; crash={node}:{at}..{restart}"));
    }
    spec
}

/// Greedy shrink: repeatedly try the candidate list in order, adopt
/// the first candidate that still fails, restart; stop when no
/// candidate fails or the budget runs out. Returns the minimal case,
/// its violations, accepted steps, and executions spent.
fn shrink(
    case: &FuzzCase,
    violations: Vec<Violation>,
    run: &dyn Fn(&FuzzCase) -> Vec<Violation>,
) -> (FuzzCase, Vec<Violation>, usize, usize) {
    let mut current = case.clone();
    let mut current_violations = violations;
    let mut steps = 0usize;
    let mut runs = 0usize;
    'outer: while runs < SHRINK_BUDGET {
        for candidate in candidates(&current) {
            if runs >= SHRINK_BUDGET {
                break 'outer;
            }
            runs += 1;
            let v = run(&candidate);
            if !v.is_empty() {
                current = candidate;
                current_violations = v;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (current, current_violations, steps, runs)
}

/// Shrink candidates for `case`, most aggressive first.
fn candidates(case: &FuzzCase) -> Vec<FuzzCase> {
    let mut out = Vec::new();
    let mut push = |c: FuzzCase| {
        let c = c.stabilized();
        if c != *case {
            out.push(c);
        }
    };
    if case.faults.is_some() {
        push(FuzzCase {
            faults: None,
            ..case.clone()
        });
    }
    if case.xpoint.is_some() {
        push(FuzzCase {
            xpoint: None,
            ..case.clone()
        });
    }
    if case.horizon_secs > 5 {
        push(FuzzCase {
            horizon_secs: (case.horizon_secs / 2).max(5),
            ..case.clone()
        });
    }
    if case.nodes > 2 {
        push(FuzzCase {
            nodes: case.nodes - 1,
            ..case.clone()
        });
    }
    if case.actions > 2 {
        push(FuzzCase {
            actions: case.actions - 1,
            ..case.clone()
        });
    }
    if case.tps > 1 {
        push(FuzzCase {
            tps: (case.tps / 2).max(1),
            ..case.clone()
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(scheme: Scheme) -> FuzzCase {
        FuzzCase {
            scheme,
            seed: 41,
            nodes: 4,
            db_size: 300,
            tps: 10,
            actions: 4,
            horizon_secs: 20,
            faults: None,
            shards: 0,
            rf: 0,
            proto: None,
            xpoint: None,
        }
    }

    #[test]
    fn encode_parse_round_trip() {
        let mut c = base(Scheme::LazyGroup);
        c.faults = Some("drop=0.05; part=3..9:2; crash=1:4..11".to_owned());
        let parsed = FuzzCase::parse(&c.encode()).unwrap();
        assert_eq!(parsed, c);
        let plain = base(Scheme::Eager);
        assert_eq!(FuzzCase::parse(&plain.encode()).unwrap(), plain);
    }

    #[test]
    fn protocol_fields_round_trip_and_stay_off_by_default() {
        // Default-field cases must encode exactly as they did before the
        // protocol dimensions existed, so the old corpus stays stable.
        let plain = base(Scheme::Contention);
        assert!(!plain.encode().contains("proto="));
        assert!(!plain.encode().contains("shards="));
        let mut c = base(Scheme::Contention);
        c.shards = 6;
        c.rf = 2;
        c.proto = Some("2pc".to_owned());
        c.xpoint = Some("coord-post-prepare:0:3".to_owned());
        c.faults = Some("drop=0.10; retransmit=0.25".to_owned());
        let line = c.encode();
        assert!(line.contains(",shards=6"), "missing shards in `{line}`");
        assert!(
            line.contains(",proto=2pc,xpoint=coord-post-prepare:0:3"),
            "missing protocol fields in `{line}`"
        );
        assert_eq!(FuzzCase::parse(&line).unwrap(), c);
    }

    #[test]
    fn parse_rejects_malformed_cases() {
        assert!(FuzzCase::parse("no-colon").is_err());
        assert!(FuzzCase::parse("warp:seed=1,nodes=2,db=8,tps=1,actions=2,horizon=5").is_err());
        assert!(FuzzCase::parse("eager:seed=1,bogus=2").is_err());
        assert!(FuzzCase::parse("eager:seed=1,nodes=0,db=8,tps=1,actions=2,horizon=5").is_err());
        // Out of range is refused, never wrapped: 2^32 + 1 nodes is not 1.
        let wide = FuzzCase::parse("eager:seed=1,nodes=4294967297,db=8,tps=1,actions=2,horizon=5");
        assert!(wide.unwrap_err().contains("nodes `4294967297`"));
        assert!(FuzzCase::parse("eager:seed=1,nodes=2,db=8,tps=1,actions=2,horizon=-5").is_err());
        let line = |h: u64| format!("eager:seed=1,nodes=2,db=8,tps=1,actions=2,horizon={h}");
        assert!(FuzzCase::parse(&line(1_000_000_000)).is_ok());
        assert!(FuzzCase::parse(&line(1_000_000_001)).is_err());
    }

    #[test]
    fn perturbations_are_deterministic_and_varied() {
        let b = base(Scheme::Contention);
        let a1 = perturb(&b, 0);
        let a2 = perturb(&b, 0);
        assert_eq!(a1, a2, "same index must regenerate the same case");
        let c = perturb(&b, 1);
        assert_ne!(a1.seed, c.seed);
        for i in 0..16 {
            let p = perturb(&b, i);
            assert!(p.nodes >= 2 && p.actions >= 2 && p.tps >= 1 && p.db_size >= 8);
        }
    }

    #[test]
    fn generated_fault_specs_are_parseable() {
        // Every fault spec the fuzzer can emit must be accepted by the
        // simulator's own parser grammar; check shape here (the
        // harness integration test exercises the real parser).
        let b = base(Scheme::LazyGroup);
        let mut saw_faults = false;
        for i in 0..32 {
            if let Some(f) = perturb(&b, i).faults {
                saw_faults = true;
                for clause in f.split(';') {
                    assert!(clause.trim().contains('='), "bad clause in `{f}`");
                }
            }
        }
        assert!(saw_faults, "fuzzer never generated faults for lazy-group");
    }

    #[test]
    fn stabilize_grows_db_under_saturation() {
        let c = FuzzCase {
            db_size: 10,
            tps: 50,
            ..base(Scheme::Eager)
        }
        .stabilized();
        assert!(c.db_size > 10, "saturated case not stabilized: {c:?}");
        // Idempotent: a stabilized case re-encodes and re-parses to
        // itself, keeping repro lines exact.
        assert_eq!(c.clone().stabilized(), c);
        assert_eq!(FuzzCase::parse(&c.encode()).unwrap(), c);
    }

    #[test]
    fn fuzz_stops_on_first_failure_and_shrinks() {
        use crate::oracle::Violation;
        use repl_storage::{NodeId, ObjectId, Timestamp, Value};
        // Synthetic oracle: fails whenever nodes >= 3, so the minimal
        // failing shape is nodes == 3 with everything else shrunk.
        let fail = |c: &FuzzCase| -> Vec<Violation> {
            if c.nodes >= 3 {
                vec![Violation::Divergence {
                    object: ObjectId(0),
                    reference: Some(NodeId(0)),
                    states: vec![(NodeId(0), Timestamp::ZERO, Value::Int(0))],
                }]
            } else {
                Vec::new()
            }
        };
        let outcome = fuzz(&base(Scheme::LazyGroup), 32, &fail);
        let failure = outcome.failure.expect("a failure must be found");
        assert!(failure.original.nodes >= 3);
        assert_eq!(failure.shrunk.nodes, 3, "shrink must reach the boundary");
        assert_eq!(failure.shrunk.horizon_secs, 5);
        assert_eq!(failure.shrunk.actions, 2);
        assert_eq!(failure.shrunk.tps, 1);
        assert!(failure.shrunk.faults.is_none());
        assert!(!failure.violations.is_empty());
        assert!(outcome.shrink_runs <= SHRINK_BUDGET);
        // The shrunk case re-parses to an identical failing case.
        let parsed = FuzzCase::parse(&failure.shrunk.encode()).unwrap();
        assert!(!fail(&parsed).is_empty());
    }

    #[test]
    fn fuzz_clean_run_reports_no_failure() {
        let outcome = fuzz(&base(Scheme::Eager), 8, &|_| Vec::new());
        assert_eq!(outcome.cases_run, 8);
        assert!(outcome.failure.is_none());
        assert_eq!(outcome.shrink_runs, 0);
    }
}
