//! Per-layer attribution, measured from outside the engines.
//!
//! Three sources: exact counters out of the pass's `Report`s, the
//! engines' own `Profiler` phases (traced pass), and *replay kernels* —
//! the runner calls a layer's public functions as many times as the
//! workload's counters say the engines did, with the workload's own
//! sizes, and times that. `est_share` = count × ns ÷ `wall_s`; shares
//! are estimates and are printed beside the unexplained remainder,
//! never normalised.

use crate::calibrate::HostSpeed;
use crate::catalog::{named_experiment, PER_LAYER};
use crate::runner::{run_pass, Pass};
use crate::trace::Tracer;
use crate::workloads::{execute, Loop, Mods, Op, Output, Spec};
use repl_cluster::two_tier::{BaseServer, MobileNode};
use repl_cluster::Cluster;
use repl_core::{Criterion, SimConfig};
use repl_model::Params;
use repl_net::{FaultInjector, FaultPlan, Network};
use repl_sim::{AccessPattern, EventQueue, Sampler, SimDuration, SimRng, SimTime};
use repl_storage::{
    CommitLog, DeadlockMode, LockManager, Lsn, NodeId, ObjectId, ObjectStore, ShardMap, Timestamp,
    TxnId, UpdateRecord, Value,
};
use repl_telemetry::{MetricsRegistry, Profiler, RunMetrics};
use repl_workload::{OpMix, SpecGenerator};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What the kernels need to know about the run they attribute.
pub struct Inputs<'a> {
    /// The workload's operations.
    pub ops: &'a [Op],
    /// An untraced timed pass: the base of every share and rate.
    pub plain: &'a Pass,
    /// The pass run with `Profiler::enabled()` attached.
    pub traced: &'a Pass,
    /// That profiler.
    pub profiler: &'a Profiler,
    /// Fastest untraced pass seen, host nanoseconds.
    pub floor_ns: u64,
    /// First-pass outputs (re-runs must still reproduce them).
    pub reference: &'a [Option<Output>],
    /// Scale kernel iteration counts down.
    pub smoke: bool,
    /// Host cores.
    pub nproc: usize,
    /// Workload seed (kernel inputs derive from it).
    pub seed: u64,
}

/// Replay at most this many operations per kernel; counts above it are
/// extrapolated (the kernels are steady-state loops).
const REPLAY_CAP: u64 = 2_000_000;

/// Sizes the kernels replay with: the workload's first engine
/// configuration (the sweep, which has none, uses the scaleup base the
/// experiments sweep around).
struct Shape {
    cfg: SimConfig,
    faults: Option<String>,
}

fn shape(ops: &[Op], seed: u64) -> Shape {
    // Prefer a lazy-group operation: it is the one engine present in
    // all three engine workloads and the one that uses every layer.
    let pick = ops
        .iter()
        .find(|o| o.event_loop() == Loop::LazyGroup)
        .or_else(|| ops.iter().find(|o| o.sim_config().is_some()));
    match pick {
        Some(op) => Shape {
            cfg: *op.sim_config().expect("picked for its config"),
            faults: op.faults.clone(),
        },
        None => Shape {
            cfg: SimConfig::from_params(&Params::new(2_000.0, 8.0, 20.0, 4.0, 0.01), 60, seed),
            faults: None,
        },
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

struct Sink<'a> {
    values: BTreeMap<&'static str, f64>,
    tr: &'a mut Tracer,
    smoke: bool,
}

impl Sink<'_> {
    fn set(&mut self, name: &str, v: f64) {
        let name = PER_LAYER
            .iter()
            .map(|m| m.name)
            .find(|m| *m == name)
            .unwrap_or_else(|| panic!("`{name}` is not in the catalogue"));
        self.values
            .insert(name, if v.is_finite() { v } else { 0.0 });
    }

    fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// How many of `count` operations a kernel replays.
    fn replay(&self, count: u64) -> u64 {
        let cap = if self.smoke {
            REPLAY_CAP / 20
        } else {
            REPLAY_CAP
        };
        count.clamp(1_000, cap)
    }

    /// Run a kernel under a `layer.<name>` span; it returns
    /// `(operations, elapsed ns)` and the metric is ns per operation.
    fn kernel_ns(&mut self, name: &'static str, f: impl FnOnce() -> (u64, u64)) -> f64 {
        let span = self.tr.enter(&format!("layer.{name}"));
        let (n, ns) = f();
        self.tr.exit(span);
        let per = ratio(ns as f64, n as f64);
        self.set(name, per);
        per
    }

    /// Run a kernel under a `layer.<name>` span and record its total
    /// seconds.
    fn kernel_s(&mut self, name: &'static str, f: impl FnOnce()) -> f64 {
        let span = self.tr.enter(&format!("layer.{name}"));
        let t0 = Instant::now();
        f();
        let s = t0.elapsed().as_secs_f64();
        self.tr.exit(span);
        self.set(name, s);
        s
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// The event queue under the workload's delay mix: every arrival
/// reschedules itself after an exponential gap and starts a
/// transaction of `actions` steps, each one constant action time ahead
/// (the FIFO lane); the last step sends `msgs` messages, each one
/// network latency ahead.
fn queue_kernel(cfg: &SimConfig, msgs: u32, events: u64) -> (u64, u64) {
    const ARRIVE: u32 = 0;
    const MESSAGE: u32 = u32::MAX;
    let mut q = EventQueue::<u32>::new();
    q.set_fifo_lane(cfg.action_time);
    let mut rng = SimRng::new(cfg.seed);
    let gap = |rng: &mut SimRng| SimDuration::from_secs_f64(rng.exp(1.0 / cfg.tps));
    for _ in 0..cfg.nodes {
        let d = gap(&mut rng);
        q.schedule_after(d, ARRIVE);
    }
    let steps = cfg.actions as u32;
    let t0 = Instant::now();
    let mut popped = 0u64;
    while popped < events {
        let Some((_, ev)) = q.pop_until(SimTime(u64::MAX)) else {
            break;
        };
        popped += 1;
        match ev {
            ARRIVE => {
                let d = gap(&mut rng);
                q.schedule_after(d, ARRIVE);
                q.schedule_after(cfg.action_time, steps);
            }
            MESSAGE => {}
            1 => {
                for _ in 0..msgs {
                    q.schedule_after(cfg.latency.sample(&mut rng), MESSAGE);
                }
            }
            left => q.schedule_after(cfg.action_time, left - 1),
        }
    }
    (black_box(popped), elapsed_ns(t0))
}

fn rng_kernel(cfg: &SimConfig, draws: u64) -> (u64, u64) {
    let sampler = Sampler::new(AccessPattern::Uniform, cfg.db_size);
    let mut rng = SimRng::new(cfg.seed);
    let t0 = Instant::now();
    for _ in 0..draws {
        black_box(sampler.sample_distinct(&mut rng, cfg.actions));
    }
    (draws, elapsed_ns(t0))
}

/// `actions` uncontended acquires and one release per transaction;
/// reported per acquire.
fn lock_uncontended_kernel(cfg: &SimConfig, acquires: u64) -> (u64, u64) {
    let mut lm = LockManager::new();
    lm.reserve_objects(cfg.db_size as usize);
    let mut granted = Vec::new();
    let per_txn = cfg.actions as u64;
    let txns = (acquires / per_txn).max(1);
    let t0 = Instant::now();
    for t in 0..txns {
        let txn = TxnId(t);
        for j in 0..per_txn {
            black_box(lm.acquire(txn, ObjectId((t * per_txn + j) % cfg.db_size)));
        }
        lm.release_all_into(txn, &mut granted);
    }
    (txns * per_txn, elapsed_ns(t0))
}

/// One contended acquire and its cleanup per iteration: the waiter
/// queues behind a holder that itself waits on a third transaction, so
/// `Detect` walks a two-edge waits-for chain and `TimeoutOnly` walks
/// nothing. The difference is the cycle check.
fn lock_contended_kernel(mode: DeadlockMode, waits: u64) -> (u64, u64) {
    let mut lm = LockManager::with_mode(mode);
    lm.reserve_objects(8);
    let (root, holder) = (TxnId(1), TxnId(2));
    lm.acquire(root, ObjectId(1));
    lm.acquire(holder, ObjectId(0));
    lm.acquire(holder, ObjectId(1));
    let mut granted = Vec::new();
    let t0 = Instant::now();
    for i in 0..waits {
        let waiter = TxnId(10 + i);
        lm.acquire(waiter, ObjectId(2));
        black_box(lm.acquire(waiter, ObjectId(0)));
        lm.cancel_wait(waiter);
        lm.release_all_into(waiter, &mut granted);
    }
    (waits, elapsed_ns(t0))
}

fn store_apply_kernel(cfg: &SimConfig, applies: u64) -> (u64, u64) {
    let mut store = ObjectStore::new(cfg.db_size);
    let t0 = Instant::now();
    for i in 0..applies {
        let id = ObjectId(i % cfg.db_size);
        let old = store.get(id).ts;
        black_box(store.apply_versioned(
            id,
            old,
            Timestamp::new(i + 1, NodeId(1)),
            Value::Int(i as i64),
        ));
    }
    (applies, elapsed_ns(t0))
}

/// The stores one engine of this configuration builds.
fn build_stores(cfg: &SimConfig) {
    let map = cfg.shard_map();
    for n in 0..cfg.nodes {
        black_box(match &map {
            Some(map) => ObjectStore::sharded(cfg.db_size, map, NodeId(n)),
            None => ObjectStore::new(cfg.db_size),
        });
    }
}

/// Append one commit of `actions` updates, truncating the replicated
/// prefix with recycling as the lazy-group engine does.
fn wal_kernel(cfg: &SimConfig, commits: u64) -> (u64, u64) {
    let mut log = CommitLog::new();
    let mut spare: Vec<Vec<UpdateRecord>> = Vec::new();
    let t0 = Instant::now();
    for i in 0..commits {
        let txn = TxnId(i);
        let mut updates = spare.pop().unwrap_or_default();
        for j in 0..cfg.actions as u64 {
            updates.push(UpdateRecord {
                txn,
                object: ObjectId((i + j) % cfg.db_size),
                old_ts: Timestamp::new(i, NodeId(0)),
                new_ts: Timestamp::new(i + 1, NodeId(0)),
                value: Value::Int(i as i64),
            });
        }
        let lsn = log.append(txn, updates);
        if i % 8 == 7 {
            log.truncate_until_recycling(Lsn(lsn.0.saturating_sub(4)), &mut spare);
        }
    }
    black_box(log.len());
    (commits, elapsed_ns(t0))
}

/// One commit's fan-out filtering: for every signature group of the
/// origin, which of the record's objects the group hosts.
fn shard_filter_kernel(cfg: &SimConfig, map: &ShardMap, commits: u64) -> (u64, u64) {
    let hosted: Vec<u64> = (0..cfg.nodes)
        .map(|n| map.hosted_objects(NodeId(n), cfg.db_size))
        .collect();
    let t0 = Instant::now();
    for i in 0..commits {
        let origin = NodeId((i % u64::from(cfg.nodes)) as u32);
        let have = hosted[origin.0 as usize];
        if have == 0 {
            continue;
        }
        for g in 0..map.fanout_groups(origin) as u32 {
            let mut mask = 0u64;
            for j in 0..cfg.actions as u64 {
                let obj = map.nth_hosted(origin, (i + j * 7) % have);
                mask |= u64::from(map.fanout_group_hosts(origin, g, obj)) << j;
            }
            black_box(mask);
        }
    }
    (commits, elapsed_ns(t0))
}

fn send_kernel(cfg: &SimConfig, plan: Option<&FaultPlan>, sends: u64) -> (u64, u64) {
    let n = cfg.nodes.max(2);
    let mut net = Network::<u64>::new(n as usize, cfg.latency, cfg.seed);
    if let Some(plan) = plan {
        net = net.with_faults(FaultInjector::new(plan));
    }
    let t0 = Instant::now();
    for i in 0..sends {
        let from = NodeId((i % u64::from(n)) as u32);
        let to = NodeId(((i + 1) % u64::from(n)) as u32);
        black_box(net.send(from, to, i));
    }
    (sends, elapsed_ns(t0))
}

/// Park a burst for a disconnected node, then reconnect and drain it.
fn reconnect_kernel(cfg: &SimConfig, messages: u64) -> (u64, u64) {
    const BURST: u64 = 64;
    let n = cfg.nodes.max(2);
    let mut net = Network::<u64>::new(n as usize, cfg.latency, cfg.seed);
    let rounds = (messages / BURST).max(1);
    let t0 = Instant::now();
    for r in 0..rounds {
        net.disconnect(NodeId(0));
        for i in 0..BURST {
            black_box(net.send(NodeId(1 + (i % u64::from(n - 1)) as u32), NodeId(0), r + i));
        }
        black_box(net.reconnect(NodeId(0)).count());
    }
    (rounds * BURST, elapsed_ns(t0))
}

fn hist_kernel(records: u64) -> (u64, u64) {
    let mut m = RunMetrics::new();
    let t0 = Instant::now();
    for i in 0..records {
        m.record(
            "commit_latency",
            SimDuration(40_000 + (i * 7_919) % 1_000_000),
        );
    }
    black_box(m.histogram("commit_latency").map(|h| h.count()));
    (records, elapsed_ns(t0))
}

/// Minimum `run()` time of `op` under each of `variants`, interleaved
/// round by round so every variant samples the same host drift.
fn interleaved_minima(
    op: &Op,
    variants: &[Mods],
    reference: Option<&Output>,
    tr: &mut Tracer,
) -> Vec<f64> {
    let mut minima = vec![f64::INFINITY; variants.len()];
    let mut rounds = 0;
    let t0 = Instant::now();
    // At least three rounds, and more of a short operation, up to about
    // a second in all.
    while rounds < 3 || (rounds < 15 && t0.elapsed().as_secs_f64() < 1.0) {
        for (slot, mods) in minima.iter_mut().zip(variants) {
            let out = execute(op, mods, tr);
            // Instrumentation is observational: the report may not move.
            assert!(
                reference.is_none_or(|r| *r == out.output),
                "{}: an instrumented re-run changed the report",
                op.name
            );
            *slot = slot.min(out.run_ns as f64);
        }
        rounds += 1;
    }
    minima
}

/// Closed-loop client against the threaded lazy-group cluster.
fn cluster_lazy(seed: u64, calls: u64) -> f64 {
    let cluster = Cluster::new(2, 1_000);
    let mut specs = SpecGenerator::new(
        1_000,
        4,
        AccessPattern::Uniform,
        OpMix::Commutative { max_amount: 10 },
        Criterion::AlwaysAccept,
        seed,
    );
    let t0 = Instant::now();
    for i in 0..calls {
        black_box(cluster.execute(NodeId((i % 2) as u32), specs.next_spec()));
    }
    cluster.quiesce();
    let secs = t0.elapsed().as_secs_f64();
    let digests = cluster.digests();
    cluster.shutdown();
    assert!(
        digests.windows(2).all(|w| w[0] == w[1]),
        "threaded lazy-group replicas diverged"
    );
    ratio(calls as f64, secs)
}

/// One mobile node's tentative transactions synced against one base.
fn cluster_two_tier(seed: u64, txns: u64) -> f64 {
    const PER_SYNC: u64 = 20;
    let base = BaseServer::spawn(1_000, 10_000);
    let mut mobile = MobileNode::new(NodeId(1), 1_000, 10_000);
    let mut specs = SpecGenerator::new(
        1_000,
        4,
        AccessPattern::Uniform,
        OpMix::Commutative { max_amount: 10 },
        Criterion::NonNegative,
        seed,
    );
    let t0 = Instant::now();
    let mut synced = 0u64;
    while synced < txns {
        for _ in 0..PER_SYNC {
            mobile.execute_tentative(specs.next_spec());
        }
        let out = mobile.sync(&base);
        synced += out.accepted + out.rejected;
    }
    let secs = t0.elapsed().as_secs_f64();
    base.shutdown();
    ratio(synced as f64, secs)
}

/// Measure every per-layer metric. Metrics a workload never exercises
/// are 0.
pub fn measure(inp: &Inputs<'_>, tr: &mut Tracer, host: &mut HostSpeed) -> Measured {
    let mut out = Sink {
        values: BTreeMap::new(),
        tr,
        smoke: inp.smoke,
    };
    let shape = shape(inp.ops, inp.seed);
    let cfg = &shape.cfg;
    let wall_ns = inp.plain.wall_ns() as f64;

    // Exact counts from the untraced pass's reports, and `run()` time
    // per event loop: (untraced ns, commits, traced ns).
    let t = inp.plain.totals(inp.ops);
    let mut by_loop: BTreeMap<Loop, (u64, u64, u64)> = BTreeMap::new();
    for ((op, plain), traced) in inp
        .ops
        .iter()
        .zip(&inp.plain.results)
        .zip(&inp.traced.results)
    {
        let slot = by_loop.entry(op.event_loop()).or_default();
        if let Some(o) = &plain.outcome {
            slot.0 += o.run_ns;
            slot.1 += o.committed;
        }
        if let Some(o) = &traced.outcome {
            slot.2 += o.run_ns;
        }
    }
    let phases = inp.profiler.stats();
    let phase_calls = |prefix: &str| -> u64 {
        phases
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, s)| s.calls)
            .sum()
    };
    let phase_ns = |name: &str| -> f64 {
        phases
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, s)| s.total.as_nanos() as f64)
    };

    // sim
    let events = phase_calls("");
    out.set("sim.queue.events", events as f64);
    let msgs_per_commit = ratio(t.messages as f64, t.committed as f64);
    let n = out.replay(events);
    let fanout = msgs_per_commit.round().min(64.0) as u32;
    let queue_ns = out.kernel_ns("sim.queue.ns_per_event", || queue_kernel(cfg, fanout, n));
    out.set(
        "sim.queue.est_share",
        ratio(events as f64 * queue_ns, wall_ns),
    );
    let arrivals = t.committed + t.deadlocks;
    let n = out.replay(arrivals);
    let draw_ns = out.kernel_ns("sim.rng.sample_distinct_ns", || rng_kernel(cfg, n));
    out.set(
        "sim.rng.est_share",
        ratio(arrivals as f64 * draw_ns, wall_ns),
    );

    // storage
    out.set("storage.lock.waits", t.waits as f64);
    out.set("storage.lock.deadlocks", t.deadlocks as f64);
    out.set("storage.lock.cycle_checks", t.cycle_checks as f64);
    // Root and replica transactions both lock every object they write.
    let acquires = (t.committed + t.replica_commits) * cfg.actions as u64;
    let n = out.replay(acquires);
    let free_ns = out.kernel_ns("storage.lock.uncontended_ns", || {
        lock_uncontended_kernel(cfg, n)
    });
    let n = out.replay(t.waits);
    let wait_ns = out.kernel_ns("storage.lock.contended_ns", || {
        lock_contended_kernel(DeadlockMode::Detect, n)
    });
    let span = out.tr.enter("layer.storage.lock.cycle_check_ns");
    let (k, blind) = lock_contended_kernel(DeadlockMode::TimeoutOnly, n);
    out.tr.exit(span);
    out.set(
        "storage.lock.cycle_check_ns",
        (wait_ns - ratio(blind as f64, k as f64)).max(0.0),
    );
    out.set(
        "storage.lock.est_share",
        ratio(
            acquires as f64 * free_ns + t.waits as f64 * wait_ns,
            wall_ns,
        ),
    );
    let applies = (t.replica_commits + t.stale) * cfg.actions as u64;
    let n = out.replay(applies);
    out.kernel_ns("storage.store.apply_ns", || store_apply_kernel(cfg, n));
    out.set(
        "storage.store.stale_ratio",
        ratio(t.stale as f64, (t.replica_commits + t.stale) as f64),
    );
    let with_stores: Vec<&SimConfig> = inp
        .ops
        .iter()
        .filter(|o| matches!(o.event_loop(), Loop::LazyGroup | Loop::TwoTier))
        .filter_map(Op::sim_config)
        .collect();
    out.kernel_s("storage.store.new_s", || {
        with_stores.iter().for_each(|c| build_stores(c));
    });
    let n = out.replay(t.committed);
    out.kernel_ns("storage.wal.append_truncate_ns", || wal_kernel(cfg, n));
    if let Some(map) = cfg.shard_map() {
        let n = out.replay(t.committed);
        out.kernel_ns("storage.shard.filter_ns", || {
            shard_filter_kernel(cfg, &map, n)
        });
        let groups: usize = (0..cfg.nodes).map(|o| map.fanout_groups(NodeId(o))).sum();
        out.set(
            "storage.shard.groups_per_origin",
            ratio(groups as f64, f64::from(cfg.nodes)),
        );
    }
    let sharded: Vec<&SimConfig> = inp
        .ops
        .iter()
        .filter_map(Op::sim_config)
        .filter(|c| c.shard_map().is_some())
        .collect();
    if !sharded.is_empty() {
        out.kernel_s("storage.shard.map_new_s", || {
            for c in &sharded {
                black_box(c.shard_map());
            }
        });
    }

    // net
    out.set("net.messages", t.messages as f64);
    out.set("net.msgs_per_commit", msgs_per_commit);
    out.set("net.dropped", t.dropped as f64);
    out.set("net.duplicated", t.duplicated as f64);
    out.set(
        "net.delivered_ratio",
        if t.messages == 0 {
            1.0
        } else {
            1.0 - ratio(t.dropped as f64, t.messages as f64)
        },
    );
    let n = out.replay(t.fabric_messages);
    let mut send_ns = out.kernel_ns("net.send_quiet_ns", || send_kernel(cfg, None, n));
    if let Some(spec) = &shape.faults {
        let plan = FaultPlan::parse(spec, cfg.seed).expect("generated fault spec parses");
        send_ns = out.kernel_ns("net.send_faulty_ns", || send_kernel(cfg, Some(&plan), n));
        out.kernel_ns("net.reconnect_drain_ns", || reconnect_kernel(cfg, n / 8));
    }
    out.set(
        "net.est_share",
        ratio(t.fabric_messages as f64 * send_ns, wall_ns),
    );

    // core
    for (l, name) in [
        (Loop::Contention, "contention"),
        (Loop::LazyGroup, "lazy_group"),
        (Loop::TwoTier, "two_tier"),
    ] {
        let (run_ns, commits, traced_ns) = by_loop.get(&l).copied().unwrap_or_default();
        let prefix = name.replace('_', "-");
        let events = phase_calls(&format!("{prefix}/"));
        out.set(&format!("core.{name}.run_s"), run_ns as f64 / 1e9);
        out.set(
            &format!("core.{name}.ns_per_event"),
            ratio(run_ns as f64, events as f64),
        );
        out.set(
            &format!("core.{name}.us_per_commit"),
            ratio(run_ns as f64 / 1e3, commits as f64),
        );
        for m in PER_LAYER.iter().map(|m| m.name) {
            let Some(phase) = m
                .strip_prefix(&format!("core.{name}."))
                .and_then(|s| s.strip_suffix("_share"))
            else {
                continue;
            };
            let phase = format!("{prefix}/{}", phase.replace('_', "-"));
            out.set(m, ratio(phase_ns(&phase), traced_ns as f64));
        }
    }
    out.set("core.new_s", inp.plain.setup_ns() as f64 / 1e9);
    out.set("core.run_floor_s", inp.floor_ns as f64 / 1e9);
    out.set(
        "core.commit_ratio",
        ratio(t.committed as f64, (t.committed + t.deadlocks) as f64),
    );
    out.set(
        "core.recon_per_commit",
        ratio(t.reconciliations as f64, t.committed as f64),
    );
    let run_of = |name: &str| {
        inp.ops
            .iter()
            .zip(&inp.plain.results)
            .find(|(op, _)| op.name == name)
            .and_then(|(_, r)| r.outcome.as_ref())
            .map_or(0.0, |o| o.run_ns as f64)
    };
    out.set(
        "core.proto.2pc_over_owner",
        ratio(run_of("eager-2pc"), run_of("eager-owner-order")),
    );

    // check
    let verdicts: Vec<_> = inp
        .plain
        .results
        .iter()
        .filter_map(|r| r.outcome.as_ref())
        .filter_map(|o| o.verdict.map(|v| (v, o.check_ns)))
        .collect();
    let records = t.oracle_records;
    let oracle_ns: u64 = verdicts.iter().map(|(_, ns)| ns).sum();
    out.set("check.records", records as f64);
    out.set("check.oracle_s", oracle_ns as f64 / 1e9);
    out.set(
        "check.oracle_us_per_record",
        ratio(oracle_ns as f64 / 1e3, records as f64),
    );
    out.set(
        "check.inconclusive_runs",
        verdicts.iter().filter(|(v, _)| v.truncated).count() as f64,
    );
    out.set("check.violations", t.oracle_violations as f64);

    // The three overhead ratios, on the workload's first lazy-group
    // operation: recorder on ÷ off, full ÷ lean metrics, NullTracer ÷
    // no tracer.
    if let Some((i, op)) = inp
        .ops
        .iter()
        .enumerate()
        .find(|(_, o)| o.event_loop() == Loop::LazyGroup)
    {
        let span = out.tr.enter("layer.telemetry.overhead_reruns");
        let variants = [
            Mods::default(),
            Mods {
                recorder: Some(!op.oracle),
                ..Mods::default()
            },
            Mods {
                lean_metrics: true,
                ..Mods::default()
            },
            Mods {
                null_tracer: true,
                ..Mods::default()
            },
        ];
        // Lean metrics empties `Report::dists`, so only the other
        // variants can be held to the reference.
        let m = interleaved_minima(op, &variants[..2], inp.reference[i].as_ref(), out.tr);
        let lean = interleaved_minima(op, &variants[2..3], None, out.tr);
        let null = interleaved_minima(op, &variants[3..], inp.reference[i].as_ref(), out.tr);
        out.tr.exit(span);
        let (with_rec, without) = if op.oracle {
            (m[0], m[1])
        } else {
            (m[1], m[0])
        };
        out.set("check.record_overhead_ratio", ratio(with_rec, without));
        out.set("telemetry.metrics_overhead_ratio", ratio(m[0], lean[0]));
        out.set("telemetry.null_tracer_overhead_ratio", ratio(null[0], m[0]));
    }
    out.set(
        "telemetry.profiler_overhead_ratio",
        ratio(
            inp.traced.wall_ns() as f64 / inp.traced.slowdown,
            wall_ns / inp.plain.slowdown,
        ),
    );
    let n = out.replay(t.committed + t.replica_commits);
    out.kernel_ns("telemetry.hist_record_ns", || hist_kernel(n));
    let dists: Vec<(&str, &RunMetrics)> = inp
        .ops
        .iter()
        .zip(&inp.plain.results)
        .filter_map(|(op, r)| {
            let report = r.outcome.as_ref()?.output.report()?;
            Some((op.name.as_str(), &report.dists))
        })
        .collect();
    if !dists.is_empty() {
        out.kernel_s("telemetry.merge_export_s", || {
            let mut merged = RunMetrics::new();
            let mut registry = MetricsRegistry::new();
            for (name, d) in &dists {
                merged.merge(d);
                registry.absorb(name, d);
            }
            black_box((merged, registry.to_json().len()));
        });
    }

    // harness
    let tables: Vec<_> = inp
        .ops
        .iter()
        .zip(&inp.plain.results)
        .filter_map(|(op, r)| match (&op.spec, r.outcome.as_ref()) {
            (Spec::Experiment(e, _), Some(o)) => Some((e.name, o)),
            _ => None,
        })
        .collect();
    if !tables.is_empty() {
        let mut rest = 0.0;
        for (name, o) in &tables {
            let secs = (o.run_ns + o.check_ns) as f64 / 1e9;
            if named_experiment(name) {
                out.set(&format!("harness.exp.{name}.s"), secs);
            } else {
                rest += secs;
            }
        }
        out.set("harness.exp.rest_s", rest);
        out.kernel_s("harness.table.render_s", || {
            for (_, o) in &tables {
                if let Output::Table(t) = &o.output {
                    black_box(t.render().len());
                }
            }
        });
        // The sweep once more on the parallel executor. Informational:
        // never more threads than cores, nothing at all on one core.
        let jobs = inp.nproc.min(4);
        if jobs > 1 {
            let mods = Mods {
                jobs,
                ..Mods::default()
            };
            let par = run_pass(inp.ops, &mods, out.tr, host, 3, Some(inp.reference));
            assert_eq!(par.failed(), 0, "the parallel sweep changed a table");
            let speedup = ratio(
                wall_ns / inp.plain.slowdown,
                par.wall_ns() as f64 / par.slowdown,
            );
            out.set("harness.par.speedup", speedup);
            out.set("harness.par.efficiency", speedup / jobs as f64);
        }
        // The threaded runtime, which only this workload reaches (via
        // the `failover` experiment).
        if inp.nproc > 1 {
            let calls = if inp.smoke { 1_000 } else { 20_000 };
            let span = out.tr.enter("layer.cluster.lazy.exec_per_s");
            let rate = cluster_lazy(inp.seed, calls);
            out.tr.exit(span);
            out.set("cluster.lazy.exec_per_s", rate);
            let span = out.tr.enter("layer.cluster.two_tier.sync_per_s");
            let rate = cluster_two_tier(inp.seed, calls);
            out.tr.exit(span);
            out.set("cluster.two_tier.sync_per_s", rate);
        }
    }

    // The two crates left out of the layer list, to show they may be:
    // far more closed-form evaluations and generated specs than any
    // workload asks for.
    let span = out.tr.enter("layer.excluded.model");
    let p = cfg.to_params();
    for i in 0..10_000 {
        let p = p.with_nodes(1.0 + f64::from(i % 16));
        black_box((
            repl_model::eager::total_deadlock_rate(&p),
            repl_model::eager::total_wait_rate(&p),
        ));
    }
    out.tr.exit(span);
    let span = out.tr.enter("layer.excluded.workload");
    let mut specs = SpecGenerator::new(
        cfg.db_size,
        cfg.actions,
        AccessPattern::Uniform,
        OpMix::BlindWrites,
        Criterion::AlwaysAccept,
        inp.seed,
    );
    black_box(specs.take_specs(10_000));
    out.tr.exit(span);

    // The layer table: estimated shares of the pass beside the
    // unexplained remainder (the rest of `core`), never normalised.
    let share = |count: u64, ns: f64| ratio(count as f64 * ns, wall_ns);
    let sim = out.get("sim.queue.est_share") + out.get("sim.rng.est_share");
    let storage = out.get("storage.lock.est_share")
        + share(applies, out.get("storage.store.apply_ns"))
        + share(t.committed, out.get("storage.wal.append_truncate_ns"))
        + share(t.committed, out.get("storage.shard.filter_ns"));
    let net = out.get("net.est_share");
    let telemetry = share(
        t.committed + t.replica_commits + t.waits,
        out.get("telemetry.hist_record_ns"),
    );
    let check = ratio(oracle_ns as f64, wall_ns);
    let shares = vec![
        ("sim", sim),
        ("storage", storage),
        ("net", net),
        ("telemetry", telemetry),
        ("check", check),
        (
            "core (unexplained remainder)",
            1.0 - sim - storage - net - telemetry - check,
        ),
    ];

    Measured {
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, out.get(m.name)))
            .collect(),
        shares,
    }
}

/// What [`measure`] found.
pub struct Measured {
    /// Every per-layer metric, in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Estimated share of the pass per layer, remainder last.
    pub shares: Vec<(&'static str, f64)>,
}
