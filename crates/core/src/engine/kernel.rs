//! The simulation kernel: one event loop for every replication scheme.
//!
//! The paper's schemes differ only in *protocol* — who locks what, who
//! ships which update when. Everything else is the same *world*, and
//! lives here exactly once:
//!
//! * the clock and the [`EventQueue`];
//! * the Poisson arrival process of every node;
//! * connectivity schedules, fault-plan partition and crash windows,
//!   and the per-node `crashed` flags;
//! * the message fabric: the one [`Network`], the [`FaultInjector`] on
//!   it, the active partition, and the mail parked for unreachable or
//!   crashed nodes;
//! * the run phases: `RunStart` → live loop to the horizon → report
//!   freeze (with the `staleness_n<i>` gauges) → convergence drain with
//!   arrivals and new faults suppressed → `run_end`/flush → final state;
//! * the instrumentation bundle (tracer, profiler, recorder, metrics,
//!   measuring window, run label) and its builders;
//! * the shared helpers: lock-wait/deadlock accounting and the send
//!   path.
//!
//! A scheme is a [`Protocol`]: its state plus the hooks the kernel
//! calls. Dispatch is static — [`Sim`] is generic over the protocol,
//! and the queued [`Event`] is one flat enum per scheme (no `dyn`, no
//! boxed events), so the loop monomorphises to what each engine's
//! hand-written loop used to be.
//!
//! # The fabric
//!
//! The schemes' send semantics differ (per-transaction commit messages,
//! watermark resend, refresh broadcast from a virtual base), but only
//! in what a sender does *with* a fate, not in how a fate comes about.
//! So `Kernel::send` takes a built message and does everything that is
//! the same for every caller: counts it, draws its fate from the
//! network, schedules the one or two deliveries, leaves a held message
//! parked, counts and traces a duplicate or a drop. It then returns the
//! payload-free [`Sent`], and the caller does only what is its own:
//! lazy-group holds its watermark and arms a resend on a drop,
//! contention lets its round timers recover, two-tier asserts the base
//! never goes offline. The helper never asks who is calling. The
//! "sent" trace stays with the caller because it differs in kind
//! (`MsgSent` with a transaction, `ReplicaSend` with an LSN).
//!
//! Mail that reaches a crashed node never gets to [`Protocol::deliver`]:
//! `Kernel::admit` parks it, and the protocol's `node_up` takes it back
//! from `Kernel::reconnect`. The injector is installed by
//! `Kernel::install_injector` and lifted, with any partition still
//! active, when the drain begins.
//!
//! # Scheduling order
//!
//! Same-instant events pop in scheduling order, so the order in which
//! the world is seeded is observable. It is fixed: arrivals (node
//! order) in `Kernel::new`, then connectivity schedules (node order)
//! in `Kernel::schedule_connectivity`, then — when a fault plan is
//! attached — partition windows (`start`, `heal` per window) and crash
//! windows (`crash`, `restart` per window).

use crate::config::{DeadlockPolicy, SimConfig};
use crate::metrics::{Metrics, Report, M_PROPAGATION_LAG};
use repl_check::{Recorder, Scheme};
use repl_net::{DisconnectSchedule, FaultInjector, FaultPlan, Network, PeriodModel, SendOutcome};
use repl_sim::{EventQueue, SimDuration, SimRng, SimTime};
use repl_storage::{LockManager, NodeId, ObjectId, TxnId};
use repl_telemetry::{AbortReason, Event as Trace, EventKind, Gauge, Profiler, TraceHandle};
use std::ops::Range;

/// Does a fan-out `mask` select entry `i` of a shared update list? A
/// sharded sender ships one reference-counted list to every
/// destination and marks, per destination, the entries it hosts, so no
/// filtered copy is materialised. Indices past the mask width are
/// always selected: senders pre-filter any list wider than 64 entries
/// (and send `u64::MAX`), so the overflow tail is hosted by
/// construction.
#[inline]
pub(super) fn applies(mask: u64, i: usize) -> bool {
    i >= 64 || mask & (1u64 << i) != 0
}

/// The mask selecting every entry of a `len`-wide update list.
#[inline]
pub(super) fn full_mask(len: usize) -> u64 {
    if len >= 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    }
}

/// What became of a `Kernel::send`, payload-free: the kernel has done
/// everything that is the same for every sender, and the rest is the
/// caller's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Sent {
    /// One delivery is scheduled (two, if the injector duplicated it).
    Scheduled,
    /// Lost in flight by the injector, counted and traced. Recovery is
    /// the sender's business.
    Dropped,
    /// The destination is unreachable; the message is parked until it
    /// reconnects or the partition heals.
    Held,
    /// The sender itself is offline: nothing was parked.
    SenderOffline,
}

/// One queued event: the world's vocabulary plus the scheme's own.
pub enum Event<P: Protocol> {
    /// A new user transaction arrives at a node.
    Arrive(NodeId),
    /// A node's link goes up or down (mobility schedule).
    Connectivity {
        /// The node whose link changes.
        node: NodeId,
        /// The new link state.
        connected: bool,
    },
    /// A scheduled bipartition begins; the payload is side A.
    PartitionStart(Box<[NodeId]>),
    /// The active bipartition heals.
    PartitionHeal,
    /// A node crashes, losing volatile state.
    Crash(NodeId),
    /// A crashed node restarts and recovers from durable state.
    Restart(NodeId),
    /// A message reaches its destination.
    Deliver {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: P::Msg,
    },
    /// A scheme-private event (step completion, retry, timer).
    Proto(P::Ev),
}

/// A replication scheme: its state, and the hooks the kernel calls.
///
/// Hooks with a default body belong to world events a scheme may never
/// schedule (it has no mobility, models no partitions, takes no fault
/// plan); reaching one is a bug, so the defaults panic.
pub trait Protocol: Sized {
    /// Scheme-private events.
    type Ev;
    /// The wire message [`Event::Deliver`] carries (cloned only when
    /// the injector duplicates it).
    type Msg: Clone;
    /// What a finished run hands back beside the [`Report`].
    type State;
    /// The oracle family that judges a recorded run of this scheme.
    const SCHEME: Scheme;

    /// The profiler phase `ev` is timed under (`None`: untimed). `live`
    /// is false during the post-horizon drain.
    fn phase(ev: &Event<Self>, live: bool) -> Option<&'static str>;

    /// The event that fires when a lock wait outlives
    /// [`DeadlockPolicy::Timeout`]; `None` for schemes that only detect.
    fn lock_timeout(_txn: TxnId, _node: NodeId, _obj: ObjectId) -> Option<Self::Ev> {
        None
    }

    /// A user transaction arrives at `node` (live phase, node up).
    fn arrive(&mut self, k: &mut Kernel<Self>, node: NodeId);
    /// A scheme-private event fires.
    fn on_event(&mut self, k: &mut Kernel<Self>, ev: Self::Ev);
    /// `msg` goes into the mail for a node that cannot take it now, to
    /// arrive afresh later: strip whatever described only this attempt
    /// and name the node it was sent from. Parked mail is filed under
    /// its sender: whether a partition still separates the two is
    /// judged per message when the destination comes back.
    fn parked(msg: &mut Self::Msg) -> NodeId;
    /// A message reaches `to`, which is up: mail for a crashed node is
    /// parked by the kernel and comes back through `Kernel::reconnect`.
    fn deliver(&mut self, k: &mut Kernel<Self>, to: NodeId, msg: Self::Msg);
    /// `node`'s link changed (already traced; a node going offline is
    /// already off the network, one coming back is the protocol's to
    /// `Kernel::reconnect`).
    fn link_change(&mut self, _k: &mut Kernel<Self>, _node: NodeId, _connected: bool) {
        unreachable!("this protocol schedules no connectivity")
    }
    /// `node` crashes (live phase only). Marks it down.
    fn node_down(&mut self, _k: &mut Kernel<Self>, _node: NodeId) {
        unreachable!("this protocol schedules no crashes")
    }
    /// `node`, currently down, restarts. Marks it up.
    fn node_up(&mut self, _k: &mut Kernel<Self>, _node: NodeId) {
        unreachable!("this protocol schedules no crashes")
    }
    /// The measured window just closed; the report freezes next. Bank
    /// whatever the scheme counts outside [`Metrics`].
    fn window_closed(&mut self, _k: &mut Kernel<Self>) {}
    /// Enter the drain (the injector and any partition are gone, every
    /// crashed node is back up): reconnect everyone. Returns how far to
    /// drain (`None`: nothing to settle).
    fn begin_drain(&mut self, k: &mut Kernel<Self>) -> Option<SimTime>;
    /// The run is over: hand final state to the recorder and the caller.
    fn finish(self, k: &mut Kernel<Self>) -> Self::State;
}

/// A [`Protocol`] that has filled the fault hooks, so a [`FaultPlan`]
/// can be attached. [`Sim::with_faults`] exists only for these.
pub trait Faulty: Protocol {
    /// Install `plan`, a few calls to kernel helpers: message chaos
    /// through `Kernel::install_injector`, and whichever windows the
    /// scheme models through `Kernel::schedule_partition_windows` /
    /// `Kernel::schedule_crash_windows`.
    fn attach_faults(&mut self, k: &mut Kernel<Self>, plan: FaultPlan);
}

/// The world a protocol runs in. Hooks receive it by `&mut`.
pub struct Kernel<P: Protocol> {
    /// The run's configuration.
    pub(super) cfg: SimConfig,
    queue: EventQueue<Event<P>>,
    /// The message fabric: latency draws, connectivity, the active
    /// partition, the injector, and the mail parked for unreachable or
    /// crashed nodes.
    net: Network<P::Msg>,
    arrival_rngs: Vec<SimRng>,
    /// Per-node crash flags: a crashed node accepts no arrivals until
    /// it restarts.
    crashed: Vec<bool>,
    /// False once the post-horizon drain has begun.
    live: bool,
    /// The run's counters, frozen into the [`Report`] at the horizon.
    pub(super) metrics: Metrics,
    /// Trace sink; events flow from simulated time zero.
    pub(super) tracer: TraceHandle,
    profiler: Profiler,
    /// Correctness recorder (off ⇒ every hook is a no-op).
    pub(super) recorder: Recorder,
    run_label: String,
    /// Per-replica staleness: the propagation lag of every update each
    /// node applied, joined to the report as `staleness_n<i>` gauges
    /// when the window closes — drain-phase applies never pollute it.
    staleness: Vec<Gauge>,
}

impl<P: Protocol> Kernel<P> {
    /// A world for `cfg` with every node's first arrival seeded from
    /// the `arrival_stream` RNG family. `step_delay` is the delay the
    /// protocol schedules its step events with.
    pub(super) fn new(
        cfg: SimConfig,
        step_delay: SimDuration,
        arrival_stream: &str,
        run_label: &str,
    ) -> Self {
        let n = cfg.nodes as usize;
        let mut queue = EventQueue::new();
        // Step events — one fixed service time apart — dominate the
        // event traffic; give them the queue's O(1) FIFO lane. The
        // delay is the protocol's to name: a serial eager step takes
        // `action_time × rf`, not `action_time`.
        queue.set_fifo_lane(step_delay);
        let mut arrival_rngs = Vec::with_capacity(n);
        for node in 0..cfg.nodes {
            let mut rng = SimRng::stream_node(cfg.seed, arrival_stream, u64::from(node));
            let first = SimDuration::from_secs_f64(rng.exp(1.0 / cfg.tps));
            queue.schedule_at(SimTime::ZERO + first, Event::Arrive(NodeId(node)));
            arrival_rngs.push(rng);
        }
        Kernel {
            cfg,
            queue,
            net: Network::new(n, cfg.latency, cfg.seed),
            arrival_rngs,
            crashed: vec![false; n],
            live: true,
            metrics: Metrics {
                lean: cfg.lean_metrics,
                ..Metrics::new()
            },
            tracer: TraceHandle::off(),
            profiler: Profiler::off(),
            recorder: Recorder::off(),
            run_label: run_label.to_owned(),
            staleness: vec![Gauge::default(); n],
        }
    }

    /// Give every node in `nodes` a staggered exponential
    /// connect/disconnect cycle up to the horizon.
    pub(super) fn schedule_connectivity(
        &mut self,
        nodes: Range<u32>,
        connected: SimDuration,
        disconnected: SimDuration,
    ) {
        for node in nodes {
            let mut sched = DisconnectSchedule::new(
                NodeId(node),
                connected,
                disconnected,
                PeriodModel::Exponential,
                self.cfg.seed,
            );
            for ev in sched.events_until(self.cfg.horizon) {
                let (node, connected) = (ev.node, ev.connected);
                self.queue
                    .schedule_at(ev.at, Event::Connectivity { node, connected });
            }
        }
    }

    /// Put `plan`'s message chaos (drops, duplicates, delay spikes) on
    /// the fabric. Call before the run: the network is rebuilt, so its
    /// latency stream starts where a quiet run's does.
    pub(super) fn install_injector(&mut self, plan: &FaultPlan) {
        if plan.has_message_chaos() {
            let n = self.cfg.nodes as usize;
            self.net = Network::new(n, self.cfg.latency, self.cfg.seed)
                .with_faults(FaultInjector::new(plan));
        }
    }

    /// Turn `plan`'s partition windows into events. Windows naming
    /// nodes this run does not have are vacuous — filter them out
    /// rather than index out of bounds later, so a plan written for a
    /// larger cluster (a fuzzer shrinking the node count, a hand-edited
    /// `CHECK_CASE`) still runs.
    pub(super) fn schedule_partition_windows(&mut self, plan: &FaultPlan) {
        for w in &plan.partitions {
            let side_a: Box<[NodeId]> = w
                .side_a
                .iter()
                .copied()
                .filter(|n| n.0 < self.cfg.nodes)
                .collect();
            if side_a.is_empty() {
                continue;
            }
            self.queue
                .schedule_at(w.start, Event::PartitionStart(side_a));
            self.queue.schedule_at(w.heal, Event::PartitionHeal);
        }
    }

    /// Turn `plan`'s crash windows into events (same vacuous-node
    /// filter as `Kernel::schedule_partition_windows`).
    pub(super) fn schedule_crash_windows(&mut self, plan: &FaultPlan) {
        for c in plan.crashes.iter().filter(|c| c.node.0 < self.cfg.nodes) {
            self.queue.schedule_at(c.at, Event::Crash(c.node));
            self.queue.schedule_at(c.restart, Event::Restart(c.node));
        }
    }

    /// The current simulated time.
    #[inline]
    pub(super) fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Whether counters are being collected: past the warm-up, before
    /// the drain.
    #[inline]
    pub(super) fn measuring(&self) -> bool {
        self.live && self.queue.now() >= self.cfg.warmup
    }

    /// False once the post-horizon drain has begun.
    pub(super) fn is_live(&self) -> bool {
        self.live
    }

    /// Whether `node` is crashed.
    #[inline]
    pub(super) fn is_down(&self, node: NodeId) -> bool {
        self.crashed[node.0 as usize]
    }

    /// `node` fails: mark it down and off the network (traffic sent to
    /// it from now on parks), count and trace the crash.
    pub(super) fn crash(&mut self, node: NodeId) {
        self.crashed[node.0 as usize] = true;
        self.net.disconnect(node);
        if self.measuring() {
            self.metrics.node_crashes.incr();
        }
        self.tracer
            .emit(|| Trace::system(self.now(), node, EventKind::NodeCrash));
    }

    /// `node` recovers, about to replay the `messages` that
    /// `Kernel::reconnect` released: mark it up and trace the restart.
    pub(super) fn restart(&mut self, node: NodeId, messages: u64) {
        self.crashed[node.0 as usize] = false;
        self.tracer
            .emit(|| Trace::system(self.now(), node, EventKind::NodeRestart));
        self.tracer.emit(|| {
            let kind = EventKind::RecoveryReplay { messages };
            Trace::system(self.now(), node, kind)
        });
    }

    /// Schedule a scheme-private event `delay` from now.
    #[inline]
    pub(super) fn schedule_after(&mut self, delay: SimDuration, ev: P::Ev) {
        self.queue.schedule_after(delay, Event::Proto(ev));
    }

    /// Schedule `node`'s restart `delay` from now (crash points).
    pub(super) fn schedule_restart(&mut self, delay: SimDuration, node: NodeId) {
        self.queue.schedule_after(delay, Event::Restart(node));
    }

    /// Whether `node`'s link is up.
    #[inline]
    pub(super) fn is_connected(&self, node: NodeId) -> bool {
        self.net.is_connected(node)
    }

    /// Draw one one-way latency without sending (a forward whose
    /// arrival is a scheme-private event, not a [`Protocol::Msg`]).
    pub(super) fn sample_delay(&mut self) -> SimDuration {
        self.net.sample_delay()
    }

    /// Put `node` back on the network and take the mail parked for it
    /// whose path is clear, in send order. What cannot cross an active
    /// partition stays parked until the heal.
    pub(super) fn reconnect(&mut self, node: NodeId) -> impl ExactSizeIterator<Item = P::Msg> + '_ {
        self.net.reconnect(node)
    }

    /// [`Kernel::reconnect`], delivering the released mail at the
    /// current instant as events. Returns how many messages that was.
    pub(super) fn reconnect_delivering(&mut self, node: NodeId) -> u64 {
        let released = self.net.reconnect(node);
        let messages = released.len() as u64;
        for msg in released {
            self.queue
                .schedule_after(SimDuration::ZERO, Event::Deliver { to: node, msg });
        }
        messages
    }

    /// Return `msg` to the mail for `to`: it is redelivered when `to`
    /// is next reachable.
    pub(super) fn park(&mut self, to: NodeId, mut msg: P::Msg) {
        self.net.park(P::parked(&mut msg), to, msg);
    }

    /// `msg` is about to be handed to `to`: the one park-for-the-dead.
    /// A crashed node receives nothing; its mail waits for recovery.
    pub(super) fn admit(&mut self, to: NodeId, msg: P::Msg) -> Option<P::Msg> {
        if self.is_down(to) {
            self.park(to, msg);
            return None;
        }
        Some(msg)
    }

    /// Send `msg` from `from` to `to` on behalf of `txn` (default: none):
    /// count it, draw its fate, and act on everything that is the same
    /// for every sender. A delivered message is one [`Event::Deliver`].
    pub(super) fn send(&mut self, from: NodeId, to: NodeId, txn: TxnId, msg: P::Msg) -> Sent {
        if self.measuring() {
            self.metrics.messages.incr();
        }
        match self.net.send(from, to, msg) {
            SendOutcome::Deliver { delay, msg } => {
                self.deliver_after(delay, to, msg);
                Sent::Scheduled
            }
            SendOutcome::Duplicated { delays, msg } => {
                if self.measuring() {
                    self.metrics.messages_duplicated.incr();
                }
                self.tracer
                    .emit(|| Trace::new(self.now(), from, txn, EventKind::MsgDuplicated { to }));
                let [first, second] = delays;
                self.deliver_after(first, to, msg.clone());
                self.deliver_after(second, to, msg);
                Sent::Scheduled
            }
            SendOutcome::Dropped => {
                if self.measuring() {
                    self.metrics.messages_dropped.incr();
                }
                self.tracer
                    .emit(|| Trace::new(self.now(), from, txn, EventKind::MsgDropped { to }));
                Sent::Dropped
            }
            SendOutcome::Held => Sent::Held,
            SendOutcome::SenderOffline(_) => Sent::SenderOffline,
        }
    }

    /// Hand `msg` to `to` after `delay` without touching the network:
    /// how `Kernel::send` schedules a fate it has drawn, and how a
    /// protocol redelivers locally.
    pub(super) fn deliver_after(&mut self, delay: SimDuration, to: NodeId, msg: P::Msg) {
        self.queue.schedule_after(delay, Event::Deliver { to, msg });
    }

    /// A window's start arrived: split the cluster into `side_a` and
    /// everyone else. Cross-side sends park until the heal.
    fn start_partition(&mut self, side_a: &[NodeId]) {
        self.tracer.emit(|| {
            let first = side_a.first().copied().unwrap_or_default();
            let side_a = side_a.to_vec();
            Trace::system(self.now(), first, EventKind::PartitionStart { side_a })
        });
        self.net.partition(side_a);
    }

    /// Heal the active bipartition (if any) and deliver everything that
    /// was parked at the boundary, in send order per destination.
    fn heal_partition(&mut self) {
        if !self.net.has_partition() {
            return;
        }
        self.tracer
            .emit(|| Trace::system(self.now(), NodeId::default(), EventKind::PartitionHeal));
        for (to, msg) in self.net.heal_partition() {
            self.queue
                .schedule_after(SimDuration::ZERO, Event::Deliver { to, msg });
        }
    }

    /// A lock request by `id` at `node` blocked on `obj`: count the
    /// wait, trace it with the current holder, and arm the lock-wait
    /// timer if the run resolves deadlocks by timeout. Returns the
    /// instant the wait began, for `Kernel::lock_granted`.
    pub(super) fn lock_wait(
        &mut self,
        locks: &LockManager,
        node: NodeId,
        id: TxnId,
        obj: ObjectId,
    ) -> SimTime {
        if self.measuring() {
            self.metrics.waits.incr();
        }
        self.tracer.emit(|| {
            let kind = EventKind::LockWait {
                object: obj,
                holder: locks.holder_of(obj).unwrap_or_default(),
                waiter: id,
            };
            Trace::new(self.now(), node, id, kind)
        });
        if let DeadlockPolicy::Timeout { wait } = self.cfg.deadlock {
            if let Some(ev) = P::lock_timeout(id, node, obj) {
                self.schedule_after(wait, ev);
            }
        }
        self.now()
    }

    /// A blocked request was granted: fold the time since `wait_started`
    /// into the wait-time distribution.
    #[inline]
    pub(super) fn lock_granted(&mut self, wait_started: &mut Option<SimTime>) {
        if let Some(since) = wait_started.take() {
            if self.measuring() {
                self.metrics.record_wait(self.now().since(since));
            }
        }
    }

    /// `id`'s lock request at `node` closed a waits-for cycle: count the
    /// deadlock under the `outcome` counter ([`crate::M_ABORTS`] or
    /// [`crate::M_RETRIES`]) and trace the cycle, followed by the abort
    /// when the scheme aborts (rather than silently re-runs) the victim.
    pub(super) fn deadlock(
        &mut self,
        locks: &LockManager,
        node: NodeId,
        id: TxnId,
        outcome: &str,
        aborts: bool,
    ) {
        if self.measuring() {
            self.metrics.deadlocks.incr();
            self.metrics.incr_dist(outcome);
        }
        self.tracer.emit(|| {
            let cycle = locks.last_deadlock_cycle().to_vec();
            Trace::new(self.now(), node, id, EventKind::DeadlockDetected { cycle })
        });
        if aborts {
            let reason = AbortReason::Deadlock;
            self.tracer
                .emit(|| Trace::new(self.now(), node, id, EventKind::TxnAbort { reason }));
        }
    }

    /// An update sent `lag` ago was just applied at `node` (call while
    /// `Kernel::measuring`): feeds the propagation-lag distribution
    /// and the node's staleness gauge.
    pub(super) fn record_propagation_lag(&mut self, node: NodeId, lag: SimDuration) {
        self.metrics.record_dist(M_PROPAGATION_LAG, lag);
        if !self.cfg.lean_metrics {
            self.staleness[node.0 as usize].observe(lag.0);
        }
    }

    /// Freeze the measured window into the report.
    fn freeze_report(&self) -> Report {
        let mut report = self.metrics.report(self.cfg.warmup, self.cfg.horizon);
        for (i, g) in self.staleness.iter().enumerate() {
            if g.count > 0 {
                report.dists.gauges.insert(format!("staleness_n{i}"), *g);
            }
        }
        report
    }
}

/// A protocol in its world: the one simulator type. The five engines
/// are aliases of it.
pub struct Sim<P: Protocol> {
    pub(super) k: Kernel<P>,
    pub(super) p: P,
}

impl<P: Protocol> Sim<P> {
    /// Attach a tracer; events flow from simulated time zero (warm-up
    /// included — that is the point of stationarity checks).
    #[must_use]
    pub fn with_tracer(mut self, tracer: TraceHandle) -> Self {
        self.k.tracer = tracer;
        self
    }

    /// Attach a wall-clock profiler around the event-loop phases.
    #[must_use]
    pub fn with_profiler(mut self, profiler: Profiler) -> Self {
        self.k.profiler = profiler;
        self
    }

    /// Label this run's trace (`RunStart` marker, series table header).
    #[must_use]
    pub fn with_run_label(mut self, label: impl Into<String>) -> Self {
        self.k.run_label = label.into();
        self
    }

    /// Attach a correctness recorder: commits, replica applies,
    /// acceptance verdicts and final stores flow to the oracles.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.k.recorder = recorder;
        self
    }

    /// Run to the configured horizon, settle, and report the measured
    /// rates over the post-warm-up window.
    pub fn run(self) -> Report {
        self.run_to_state().0
    }

    /// Like [`Sim::run`], returning the protocol's final state (after
    /// the convergence drain) alongside the report. The engines that
    /// have state worth inspecting publish it as `run_with_state`.
    pub(super) fn run_to_state(mut self) -> (Report, P::State) {
        let report = self.run_phases();
        (report, self.p.finish(&mut self.k))
    }

    /// Every phase up to, not including, [`Protocol::finish`] — by
    /// reference, so tests can inspect what the run left behind.
    pub(super) fn run_phases(&mut self) -> Report {
        let Sim { k, p } = self;
        let horizon = k.cfg.horizon;
        k.tracer.emit(|| {
            let label = k.run_label.clone();
            Trace::system(SimTime::ZERO, NodeId(0), EventKind::RunStart { label })
        });
        while let Some((_, ev)) = k.queue.pop_until(horizon) {
            Self::dispatch(k, p, ev);
        }
        p.window_closed(k);
        let report = k.freeze_report();
        // Drain phase: no new arrivals, no new faults, nothing measured
        // — pending fault events left in the queue are ignored, the
        // injector and any active partition go before the protocol
        // sends anything, and every crashed node restarts so recovery
        // runs. The recorder stays live so the oracles judge the
        // settled state.
        k.live = false;
        k.net.clear_faults();
        k.heal_partition();
        for node in (0..k.cfg.nodes).map(NodeId) {
            if k.is_down(node) {
                p.node_up(k, node);
            }
        }
        if let Some(until) = p.begin_drain(k) {
            while let Some((_, ev)) = k.queue.pop_until(until) {
                Self::dispatch(k, p, ev);
            }
        }
        k.tracer.run_end(horizon);
        k.tracer.flush();
        k.profiler
            .note_queue(k.queue.peak_len(), k.queue.retained_bytes());
        report
    }

    fn dispatch(k: &mut Kernel<P>, p: &mut P, ev: Event<P>) {
        let live = k.live;
        let started = k.profiler.start();
        let phase = started.and_then(|_| P::phase(&ev, live));
        match ev {
            Event::Arrive(node) => {
                if live {
                    // The arrival process keeps ticking through a
                    // crash so the stream stays deterministic; a dead
                    // node just has no terminals to take the work.
                    let rng = &mut k.arrival_rngs[node.0 as usize];
                    let gap = SimDuration::from_secs_f64(rng.exp(1.0 / k.cfg.tps));
                    k.queue.schedule_after(gap, Event::Arrive(node));
                    if !k.is_down(node) {
                        p.arrive(k, node);
                    }
                }
            }
            Event::Proto(ev) => p.on_event(k, ev),
            Event::Deliver { to, msg } => {
                if let Some(msg) = k.admit(to, msg) {
                    p.deliver(k, to, msg);
                }
            }
            Event::Connectivity { node, connected } => {
                k.tracer.emit(|| {
                    let kind = if connected {
                        EventKind::Reconnect
                    } else {
                        EventKind::Disconnect
                    };
                    Trace::system(k.now(), node, kind)
                });
                if !connected {
                    k.net.disconnect(node);
                }
                p.link_change(k, node, connected);
            }
            Event::PartitionStart(side_a) => {
                if live {
                    k.start_partition(&side_a);
                }
            }
            Event::PartitionHeal => k.heal_partition(),
            Event::Crash(node) => {
                if live {
                    p.node_down(k, node);
                }
            }
            Event::Restart(node) => {
                if k.is_down(node) {
                    p.node_up(k, node);
                }
            }
        }
        if let Some(phase) = phase {
            k.profiler.stop(phase, started);
        }
    }
}

impl<P: Faulty> Sim<P> {
    /// Attach a fault plan (call before [`Sim::run`]). Faults never fire
    /// during the post-horizon drain, so whatever a protocol guarantees
    /// about its settled state survives arbitrary plans.
    ///
    /// Only for protocols that have filled the fault hooks:
    ///
    /// ```
    /// # use repl_core::LazyGroupSim;
    /// # use repl_net::FaultPlan;
    /// fn chaos(sim: LazyGroupSim, plan: FaultPlan) -> LazyGroupSim {
    ///     sim.with_faults(plan)
    /// }
    /// ```
    ///
    /// The two-tier protocol has not, so this does not compile:
    ///
    /// ```compile_fail
    /// # use repl_core::TwoTierSim;
    /// # use repl_net::FaultPlan;
    /// fn chaos(sim: TwoTierSim, plan: FaultPlan) -> TwoTierSim {
    ///     sim.with_faults(plan)
    /// }
    /// ```
    #[must_use]
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.p.attach_faults(&mut self.k, plan);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{contention::Contention, lazy_group::LazyGroup, two_tier::TwoTier};
    use repl_model::Params;
    use repl_net::LatencyModel;
    use repl_telemetry::RingBuffer;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Event size is the event heap's memory traffic. The first two
    /// are the sizes of the private `Ev` enums the kernel replaced;
    /// two-tier's refresh message is two words, which keeps its event
    /// as small as a step.
    #[test]
    fn queued_events_are_no_larger_than_the_hand_rolled_enums() {
        assert!(std::mem::size_of::<Event<Contention>>() <= 24);
        assert!(std::mem::size_of::<Event<LazyGroup>>() <= 48);
        assert!(std::mem::size_of::<Event<TwoTier>>() <= 24);
    }

    /// A protocol that does nothing but log which hooks ran, when. Its
    /// private event is a send order: `(from, to, payload)`.
    #[derive(Default)]
    struct Probe {
        log: Vec<(SimTime, String)>,
    }

    impl Probe {
        fn note(&mut self, k: &Kernel<Self>, what: &str) {
            let phase = if k.is_live() { "live" } else { "drain" };
            self.log.push((k.now(), format!("{phase} {what}")));
        }

        fn send(&mut self, k: &mut Kernel<Self>, (from, to, payload): (u32, u32, u8)) {
            let msg = (NodeId(from), payload);
            let sent = k.send(NodeId(from), NodeId(to), TxnId::default(), msg);
            self.note(k, &format!("send {payload} {sent:?}"));
        }
    }

    impl Protocol for Probe {
        type Ev = (u32, u32, u8);
        type Msg = (NodeId, u8);
        type State = Vec<(SimTime, String)>;
        const SCHEME: Scheme = Scheme::Contention;

        fn phase(_: &Event<Self>, _: bool) -> Option<&'static str> {
            Some("probe/event")
        }
        fn arrive(&mut self, k: &mut Kernel<Self>, node: NodeId) {
            self.note(k, &format!("arrive n{}", node.0));
        }
        fn on_event(&mut self, k: &mut Kernel<Self>, order: (u32, u32, u8)) {
            self.send(k, order);
        }
        fn parked(msg: &mut (NodeId, u8)) -> NodeId {
            msg.0
        }
        fn deliver(&mut self, k: &mut Kernel<Self>, to: NodeId, (_, payload): (NodeId, u8)) {
            assert!(!k.is_down(to), "a dead node was handed mail");
            self.note(k, &format!("deliver {payload} to n{}", to.0));
        }
        fn node_down(&mut self, k: &mut Kernel<Self>, node: NodeId) {
            k.crash(node);
            self.note(k, &format!("down n{}", node.0));
        }
        fn node_up(&mut self, k: &mut Kernel<Self>, node: NodeId) {
            let replayed = k.reconnect_delivering(node);
            k.restart(node, replayed);
            self.note(k, &format!("up n{} replaying {replayed}", node.0));
        }
        fn window_closed(&mut self, k: &mut Kernel<Self>) {
            self.note(k, "window closed");
        }
        /// The first thing the protocol does in the drain is send
        /// 0 → 1: whatever the plan had in force at the horizon must
        /// already be gone.
        fn begin_drain(&mut self, k: &mut Kernel<Self>) -> Option<SimTime> {
            self.note(k, "begin drain");
            self.send(k, (0, 1, 99));
            Some(SimTime(u64::MAX))
        }
        fn finish(self, _: &mut Kernel<Self>) -> Vec<(SimTime, String)> {
            self.log
        }
    }

    impl Faulty for Probe {
        fn attach_faults(&mut self, k: &mut Kernel<Self>, plan: FaultPlan) {
            k.install_injector(&plan);
            k.schedule_partition_windows(&plan);
            k.schedule_crash_windows(&plan);
        }
    }

    /// `nodes` nodes at 1 TPS each (a handful of arrivals per run),
    /// counters on from 2 s, `latency` on every link.
    fn probe_on(nodes: u32, horizon: u64, latency: SimDuration) -> Sim<Probe> {
        let p = Params::new(100.0, f64::from(nodes), 1.0, 4.0, 0.01);
        let cfg = SimConfig::from_params(&p, horizon, 7)
            .with_warmup(2)
            .with_latency(LatencyModel::Fixed(latency));
        Sim {
            k: Kernel::new(cfg, cfg.action_time, "probe-arrivals-", "probe"),
            p: Probe::default(),
        }
    }

    fn probe(horizon: u64) -> Sim<Probe> {
        probe_on(2, horizon, SimDuration::ZERO)
    }

    /// `sim` under `plan`, with `orders` = `(at_ms, from, to, payload)`
    /// sends queued, run to the end: the report, the log, the trace.
    fn run_probe(
        sim: Sim<Probe>,
        plan: &str,
        orders: &[(u64, u32, u32, u8)],
    ) -> (Report, Vec<(SimTime, String)>, Vec<Trace>) {
        let ring = Rc::new(RefCell::new(RingBuffer::new(4096)));
        let plan = FaultPlan::parse(plan, 7).unwrap();
        let mut sim = sim
            .with_faults(plan)
            .with_tracer(TraceHandle::shared(&ring));
        for &(at_ms, from, to, payload) in orders {
            sim.k
                .schedule_after(SimDuration::from_millis(at_ms), (from, to, payload));
        }
        let (report, log) = sim.run_to_state();
        let trace = ring.borrow().to_vec();
        (report, log, trace)
    }

    /// Where `what` sits in `log`.
    fn at(log: &[(SimTime, String)], what: &str) -> usize {
        log.iter()
            .position(|(_, l)| l == what)
            .unwrap_or_else(|| panic!("{what:?} missing from {log:#?}"))
    }

    /// When every `deliver {payload} …` line was logged.
    fn delivered(log: &[(SimTime, String)], payload: u8) -> Vec<SimTime> {
        let line = format!("deliver {payload} to");
        let hits = log.iter().filter(|(_, l)| l.contains(&line));
        hits.map(|(t, _)| *t).collect()
    }

    fn count(trace: &[Trace], pred: impl Fn(&EventKind) -> bool) -> usize {
        trace.iter().filter(|e| pred(&e.kind)).count()
    }

    #[test]
    fn phases_run_in_order_and_the_drain_suppresses_arrivals_and_new_faults() {
        // Node 0 crashes inside the horizon and would restart after it;
        // node 1's crash and the second partition lie past the horizon;
        // node 9 and an all-foreign partition do not exist in this run.
        let plan = "part=2..4:0; part=3..5:7,8; part=12..14:1; \
                    crash=0:6..15; crash=1:11..13; crash=9:1..2";
        // One send arrives in the drain (11 s link), one is made in it.
        let mut sim = probe(10);
        sim.k
            .deliver_after(SimDuration::from_secs(11), NodeId(1), (NodeId(0), 42));
        let (report, log, trace) = run_probe(sim, plan, &[(12_000, 1, 0, 43)]);
        assert_eq!(report.node_crashes, 1);

        let at = |what: &str| at(&log, what);
        // Live: partition, heal, crash — in time order, arrivals around them.
        let kinds: Vec<&EventKind> = trace.iter().map(|e| &e.kind).collect();
        let world: Vec<&&EventKind> = kinds
            .iter()
            .filter(|k| !matches!(k, EventKind::RunStart { .. }))
            .collect();
        assert!(
            matches!(
                world[..],
                [
                    EventKind::PartitionStart { side_a },
                    EventKind::PartitionHeal,
                    EventKind::NodeCrash,
                    EventKind::NodeRestart,
                    EventKind::RecoveryReplay { messages: 0 },
                    ..
                ] if side_a[..] == [NodeId(0)]
            ),
            "{world:#?}"
        );
        assert!(log.iter().any(|(_, l)| l == "live arrive n1"));
        // No arrival reaches the crashed node while it is down.
        assert!(!log[at("live down n0")..]
            .iter()
            .any(|(_, l)| l.ends_with("arrive n0")));
        // The window closes before the drain begins; the drain restarts
        // the crashed node itself, then settles what was in flight.
        assert!(at("live down n0") < at("live window closed"));
        assert_eq!(at("live window closed") + 1, at("drain up n0 replaying 0"));
        assert_eq!(at("drain up n0 replaying 0") + 1, at("drain begin drain"));
        assert!(at("drain begin drain") < at("drain deliver 42 to n1"));
        assert!(at("drain deliver 42 to n1") < at("drain send 43 Scheduled"));
        // Suppressed in the drain: arrivals, new partitions, new
        // crashes, and the restart of an already-restarted node. The
        // stale heals find nothing to heal.
        assert!(!log.iter().any(|(_, l)| l.starts_with("drain arrive")));
        assert!(!log.iter().any(|(_, l)| l.starts_with("drain down")));
        assert_eq!(log.iter().filter(|(_, l)| l.contains("up n0")).count(), 1);
        // Windows naming nodes this run does not have never fire, and
        // nothing of the world's is traced in the drain.
        assert!(!log.iter().any(|(_, l)| l.contains("n9")));
        assert_eq!(world.len(), 5, "{world:#?}");
    }

    #[test]
    fn same_instant_sends_on_one_channel_arrive_in_send_order() {
        // Four sends 0 → 1 at 3 s over a fixed 1 ms link: four
        // deliveries at one instant, which pop in scheduling order.
        let mut sim = probe_on(2, 5, SimDuration::from_millis(1));
        for payload in 0..4 {
            sim.k
                .schedule_after(SimDuration::from_secs(3), (0, 1, payload));
        }
        let (_, log) = sim.run_to_state();
        let order: Vec<&str> = log
            .iter()
            .filter(|(_, l)| l.starts_with("live deliver"))
            .map(|(_, l)| l.as_str())
            .collect();
        assert_eq!(
            order,
            [
                "live deliver 0 to n1",
                "live deliver 1 to n1",
                "live deliver 2 to n1",
                "live deliver 3 to n1"
            ]
        );
        let arrival = SimTime::ZERO + SimDuration::from_millis(3_001);
        for payload in 0..4 {
            assert_eq!(delivered(&log, payload), [arrival]);
        }
    }

    #[test]
    fn mail_in_flight_to_a_crashing_node_is_parked_and_replayed_once() {
        // 2 s links. Sent at 2 s, `7` lands at 4 s on a node that has
        // been down since 3 s; `8` is sent at 5 s to a node already off
        // the network. Both wait for the restart at 6 s.
        let sim = probe_on(2, 10, SimDuration::from_secs(2));
        let orders = [(2_000, 0, 1, 7), (5_000, 0, 1, 8)];
        let (_, log, trace) = run_probe(sim, "crash=1:3..6", &orders);
        assert!(at(&log, "live send 7 Scheduled") < at(&log, "live down n1"));
        assert!(at(&log, "live down n1") < at(&log, "live send 8 Held"));
        let up = at(&log, "live up n1 replaying 2");
        assert_eq!(at(&log, "live deliver 7 to n1"), up + 1);
        assert_eq!(at(&log, "live deliver 8 to n1"), up + 2);
        assert_eq!(delivered(&log, 7), [SimTime::from_secs(6)]);
        assert_eq!(delivered(&log, 8), [SimTime::from_secs(6)]);
        let replay = |k: &EventKind| matches!(k, EventKind::RecoveryReplay { messages: 2 });
        assert_eq!(count(&trace, replay), 1);
    }

    #[test]
    fn a_partition_parks_cross_side_sends_and_the_heal_releases_them_in_send_order() {
        let sim = probe_on(3, 10, SimDuration::ZERO);
        let orders = [
            (3_000, 0, 1, 1),
            (3_200, 1, 2, 4),
            (3_500, 0, 2, 2),
            (4_000, 0, 1, 3),
        ];
        let (_, log, _) = run_probe(sim, "part=2..5:0", &orders);
        for held in [1, 2, 3] {
            at(&log, &format!("live send {held} Held"));
            assert_eq!(delivered(&log, held), [SimTime::from_secs(5)]);
        }
        // Same side: straight through.
        at(&log, "live send 4 Scheduled");
        assert_eq!(
            delivered(&log, 4),
            [SimTime::ZERO + SimDuration::from_millis(3_200)]
        );
        // Per destination, the release order is the send order.
        assert!(at(&log, "live deliver 1 to n1") < at(&log, "live deliver 3 to n1"));
    }

    #[test]
    fn mail_for_a_node_both_partitioned_and_down_waits_for_the_later_of_the_two() {
        // The restart comes first: the sender is still across the cut.
        let sim = probe_on(2, 10, SimDuration::ZERO);
        let (_, log, _) = run_probe(sim, "part=2..8:0; crash=1:3..5", &[(4_000, 0, 1, 1)]);
        at(&log, "live up n1 replaying 0");
        assert_eq!(delivered(&log, 1), [SimTime::from_secs(8)]);
        // The heal comes first: the destination is still down.
        let sim = probe_on(2, 10, SimDuration::ZERO);
        let (_, log, _) = run_probe(sim, "part=2..4:0; crash=1:3..7", &[(3_500, 0, 1, 1)]);
        at(&log, "live up n1 replaying 1");
        assert_eq!(delivered(&log, 1), [SimTime::from_secs(7)]);
    }

    #[test]
    fn the_drain_lifts_the_injector_and_the_partition_before_anything_is_sent() {
        let sim = probe(10);
        let plan = "drop=1; part=8..20:0";
        let (_, log, trace) = run_probe(sim, plan, &[(5_000, 0, 1, 1), (9_000, 0, 1, 2)]);
        at(&log, "live send 1 Dropped");
        at(&log, "live send 2 Held");
        // `begin_drain`'s own send is the first of the drain.
        assert_eq!(
            at(&log, "drain begin drain") + 1,
            at(&log, "drain send 99 Scheduled")
        );
        assert!(delivered(&log, 1).is_empty());
        assert_eq!(delivered(&log, 2), [SimTime::from_secs(10)]);
        assert_eq!(delivered(&log, 99), [SimTime::from_secs(10)]);
        let heal = |k: &EventKind| matches!(k, EventKind::PartitionHeal);
        assert_eq!(count(&trace, heal), 1);
    }

    #[test]
    fn duplicates_and_drops_are_scheduled_traced_and_counted_only_while_measuring() {
        // One send inside the warm-up, one measured, one in the drain
        // (where the injector is gone and nothing is counted).
        let orders = [(1_000, 0, 1, 1), (3_000, 0, 1, 2), (12_000, 0, 1, 3)];
        let (report, log, trace) = run_probe(probe(10), "dup=1", &orders);
        assert_eq!(delivered(&log, 1).len(), 2);
        assert_eq!(delivered(&log, 2).len(), 2);
        assert_eq!(delivered(&log, 3).len(), 1);
        let dup = |k: &EventKind| matches!(k, EventKind::MsgDuplicated { to: NodeId(1) });
        assert_eq!(count(&trace, dup), 2);
        assert_eq!((report.messages, report.messages_duplicated), (1, 1));
        assert_eq!(report.messages_dropped, 0);

        let (report, log, trace) = run_probe(probe(10), "drop=1", &orders);
        at(&log, "live send 2 Dropped");
        assert!(delivered(&log, 1).is_empty() && delivered(&log, 2).is_empty());
        assert_eq!(delivered(&log, 3).len(), 1);
        let drop = |k: &EventKind| matches!(k, EventKind::MsgDropped { to: NodeId(1) });
        assert_eq!(count(&trace, drop), 2);
        assert_eq!((report.messages, report.messages_dropped), (1, 1));
        assert_eq!(report.messages_duplicated, 0);
    }
}
