//! The simulated network fabric: computes per-message delivery delays
//! and parks messages addressed to unreachable nodes until the path
//! comes back (the paper's "when first connected, a mobile node sends
//! and receives deferred replica updates").
//!
//! The network deliberately does **not** own the event queue — it tells
//! the protocol driver *when* a message should arrive and the driver
//! schedules the delivery event. That keeps a single future-event list
//! and a single deterministic clock.
//!
//! Two failure mechanisms layer on top of plain delivery:
//!
//! * a **partition** ([`Network::partition`]) makes cross-side links
//!   unreachable — messages park at the boundary and drain in order
//!   when [`Network::heal_partition`] runs;
//! * a **fault injector** ([`Network::with_faults`]) perturbs
//!   individual messages on live links: drops (never silent: the
//!   sender is told), duplicates, and delay spikes.
//!
//! The network keeps no tallies: every send reports its outcome, and
//! the driver counts what it measures.

use crate::faults::{FaultInjector, MessageFate};
use crate::latency::LatencyModel;
use repl_sim::{SimDuration, SimRng};
use repl_storage::NodeId;

/// What happened to a sent message. The outcomes that still have a use
/// for the message hand it back; the network keeps it only when it
/// parks it.
#[derive(Debug, Clone, PartialEq)]
pub enum SendOutcome<M> {
    /// Deliver after this delay: the driver should schedule the
    /// message's arrival event `delay` from now.
    Deliver {
        /// One-way latency to apply.
        delay: SimDuration,
        /// The message to deliver.
        msg: M,
    },
    /// Fault injection duplicated the message: schedule one arrival
    /// per delay.
    Duplicated {
        /// Independent one-way latencies for the two copies.
        delays: [SimDuration; 2],
        /// The message to deliver twice.
        msg: M,
    },
    /// Fault injection lost the message in flight; the sender should
    /// retransmit.
    Dropped,
    /// The destination is unreachable (disconnected or across a
    /// partition); the network parked the message. It will be returned
    /// by [`Network::reconnect`] or [`Network::heal_partition`].
    Held,
    /// The *sender* is disconnected; the message is refused outright
    /// (protocols queue their own outbound work while offline).
    SenderOffline(M),
}

/// Point-to-point message fabric for `n` nodes.
#[derive(Debug)]
pub struct Network<M> {
    latency: LatencyModel,
    rng: SimRng,
    connected: Vec<bool>,
    /// `Some(sides)` while a bipartition is active: `sides[i]` is the
    /// side node `i` sits on.
    partition: Option<Vec<bool>>,
    /// Parked messages per destination, with the sender recorded so a
    /// drain can judge reachability per message.
    held: Vec<Vec<(NodeId, M)>>,
    /// Reusable staging buffer for drains: reachable messages move
    /// here and are handed to the caller as a draining iterator, so
    /// reconnects and partition heals allocate nothing at steady state.
    drain_scratch: Vec<(NodeId, M)>,
    /// Spare vector swapped into a destination's `held` slot while its
    /// old contents are re-filtered — keeps the still-parked rewrite
    /// allocation-free too.
    park_scratch: Vec<(NodeId, M)>,
    faults: Option<FaultInjector>,
}

impl<M> Network<M> {
    /// A fully connected network of `n` nodes with the given latency
    /// model. The RNG seed controls latency jitter only.
    pub fn new(n: usize, latency: LatencyModel, seed: u64) -> Self {
        Network {
            latency,
            rng: SimRng::stream(seed, "network-latency"),
            connected: vec![true; n],
            partition: None,
            held: (0..n).map(|_| Vec::new()).collect(),
            drain_scratch: Vec::new(),
            park_scratch: Vec::new(),
            faults: None,
        }
    }

    /// Attach a message-fault injector (builder style).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Remove the fault injector (e.g. for a post-horizon convergence
    /// drain, during which no new faults should fire).
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// Whether `node` is currently connected.
    pub fn is_connected(&self, node: NodeId) -> bool {
        self.connected[node.0 as usize]
    }

    /// Whether any bipartition is currently active.
    pub fn has_partition(&self) -> bool {
        self.partition.is_some()
    }

    /// Whether a partition currently separates `a` from `b`.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partition
            .as_ref()
            .is_some_and(|sides| sides[a.0 as usize] != sides[b.0 as usize])
    }

    /// Split the cluster into `side_a` vs everyone else. Cross-side
    /// messages park until [`Network::heal_partition`]. A new call
    /// replaces any active partition (the fabric models one bipartition
    /// at a time, the paper's disconnected-operation scenario).
    pub fn partition(&mut self, side_a: &[NodeId]) {
        let mut sides = vec![false; self.connected.len()];
        for n in side_a {
            sides[n.0 as usize] = true;
        }
        self.partition = Some(sides);
    }

    /// Heal the partition and drain every parked message whose path is
    /// now clear, in arrival order per destination. Yields
    /// `(destination, message)` pairs for the driver to deliver; the
    /// backing buffer is reused across heals.
    pub fn heal_partition(&mut self) -> std::vec::Drain<'_, (NodeId, M)> {
        self.partition = None;
        self.drain_scratch.clear();
        for (d, parked) in self.held.iter_mut().enumerate() {
            let dest = NodeId(d as u32);
            if !self.connected[d] {
                continue; // still offline: keep its mail parked
            }
            // No partition remains, so everything parked for a
            // connected destination is reachable.
            self.drain_scratch
                .extend(parked.drain(..).map(|(_, msg)| (dest, msg)));
        }
        self.drain_scratch.drain(..)
    }

    /// Send `msg` from `from` to `to`.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: M) -> SendOutcome<M> {
        if !self.connected[from.0 as usize] {
            return SendOutcome::SenderOffline(msg);
        }
        if !self.connected[to.0 as usize] || self.is_partitioned(from, to) {
            self.park(from, to, msg);
            return SendOutcome::Held;
        }
        match self
            .faults
            .as_mut()
            .map_or(MessageFate::Deliver, |f| f.fate())
        {
            MessageFate::Deliver => SendOutcome::Deliver {
                delay: self.latency.sample(&mut self.rng),
                msg,
            },
            MessageFate::Drop => SendOutcome::Dropped,
            MessageFate::Duplicate => SendOutcome::Duplicated {
                delays: [
                    self.latency.sample(&mut self.rng),
                    self.latency.sample(&mut self.rng),
                ],
                msg,
            },
            MessageFate::Delay(spike) => SendOutcome::Deliver {
                delay: self.latency.sample(&mut self.rng) + spike,
                msg,
            },
        }
    }

    /// Park `msg` for `to` as if it were still in the mail — used by
    /// drivers to return delivered-but-unprocessed messages to the
    /// network when `to` crashes (they redeliver on restart).
    pub fn park(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.held[to.0 as usize].push((from, msg));
    }

    /// Mark `node` disconnected. Messages sent to it afterwards are
    /// parked.
    pub fn disconnect(&mut self, node: NodeId) {
        self.connected[node.0 as usize] = false;
    }

    /// Mark `node` connected again and drain everything parked for it
    /// whose path is clear, in arrival order. The driver delivers these
    /// immediately (they were already "in the mail"). Messages from
    /// senders still across an active partition stay parked until
    /// [`Network::heal_partition`]. The backing buffer is reused across
    /// reconnects.
    pub fn reconnect(&mut self, node: NodeId) -> impl ExactSizeIterator<Item = M> + '_ {
        self.connected[node.0 as usize] = true;
        self.drain_reachable(node).map(|(_, msg)| msg)
    }

    /// Take the parked messages for `dest` whose sender is on a
    /// reachable side, preserving order among both the drained and the
    /// remaining messages. The drained messages live in a scratch
    /// buffer reused across calls, and the still-parked rewrite reuses
    /// recycled capacity — no allocation at steady state.
    fn drain_reachable(&mut self, dest: NodeId) -> std::vec::Drain<'_, (NodeId, M)> {
        let d = dest.0 as usize;
        let mut parked =
            std::mem::replace(&mut self.held[d], std::mem::take(&mut self.park_scratch));
        self.drain_scratch.clear();
        for (from, msg) in parked.drain(..) {
            if self.is_partitioned(from, dest) {
                self.held[d].push((from, msg));
            } else {
                self.drain_scratch.push((from, msg));
            }
        }
        self.park_scratch = parked;
        self.drain_scratch.drain(..)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultPlan;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const N2: NodeId = NodeId(2);

    fn net(n: usize) -> Network<&'static str> {
        Network::new(n, LatencyModel::Fixed(SimDuration::from_millis(3)), 7)
    }

    #[test]
    fn connected_delivery_has_latency() {
        let mut n = net(2);
        match n.send(N0, N1, "hello") {
            SendOutcome::Deliver { delay, .. } => assert_eq!(delay, SimDuration::from_millis(3)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn disconnected_destination_holds() {
        let mut n = net(2);
        n.disconnect(N1);
        assert_eq!(n.send(N0, N1, "a"), SendOutcome::Held);
        assert_eq!(n.send(N0, N1, "b"), SendOutcome::Held);
        let drained: Vec<_> = n.reconnect(N1).collect();
        assert_eq!(drained, vec!["a", "b"]);
        // Drained only once.
        assert_eq!(n.reconnect(N1).len(), 0);
    }

    #[test]
    fn offline_sender_refused() {
        let mut n = net(2);
        n.disconnect(N0);
        assert_eq!(n.send(N0, N1, "x"), SendOutcome::SenderOffline("x"));
        // Refused, not parked: nothing waits for N1.
        n.disconnect(N1);
        assert_eq!(n.reconnect(N1).len(), 0);
    }

    #[test]
    fn connection_state_tracking() {
        let mut n = net(3);
        assert!(n.is_connected(NodeId(2)));
        n.disconnect(NodeId(2));
        assert!(!n.is_connected(NodeId(2)));
        assert_eq!(n.reconnect(NodeId(2)).len(), 0);
        assert!(n.is_connected(NodeId(2)));
    }

    #[test]
    fn zero_latency_model_for_paper_assumption() {
        let mut n: Network<u32> = Network::new(2, LatencyModel::ZERO, 1);
        match n.send(N0, N1, 5) {
            SendOutcome::Deliver { delay, .. } => assert_eq!(delay, SimDuration::ZERO),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn reconnect_preserves_cross_sender_order() {
        // Messages from several senders park for one destination; the
        // drain must replay them in exact arrival order.
        let mut n = net(3);
        n.disconnect(N2);
        assert_eq!(n.send(N0, N2, "a0"), SendOutcome::Held);
        assert_eq!(n.send(N1, N2, "b0"), SendOutcome::Held);
        assert_eq!(n.send(N0, N2, "a1"), SendOutcome::Held);
        assert_eq!(n.send(N1, N2, "b1"), SendOutcome::Held);
        assert_eq!(
            n.reconnect(N2).collect::<Vec<_>>(),
            vec!["a0", "b0", "a1", "b1"]
        );
    }

    #[test]
    fn partition_parks_cross_side_traffic_only() {
        let mut n = net(3);
        n.partition(&[N0]);
        assert!(n.is_partitioned(N0, N1));
        assert!(!n.is_partitioned(N1, N2));
        assert_eq!(n.send(N0, N1, "cross"), SendOutcome::Held);
        assert!(matches!(
            n.send(N1, N2, "same-side"),
            SendOutcome::Deliver { .. }
        ));
        let healed: Vec<_> = n.heal_partition().collect();
        assert_eq!(healed, vec![(N1, "cross")]);
        assert!(!n.is_partitioned(N0, N1));
    }

    #[test]
    fn heal_keeps_mail_for_disconnected_nodes_parked() {
        let mut n = net(3);
        n.partition(&[N1]);
        n.disconnect(N1);
        assert_eq!(n.send(N0, N1, "x"), SendOutcome::Held);
        // Heal: N1 is still offline, so its mail stays parked…
        assert_eq!(n.heal_partition().len(), 0);
        // …and arrives when it reconnects.
        assert_eq!(n.reconnect(N1).collect::<Vec<_>>(), vec!["x"]);
    }

    #[test]
    fn reconnect_keeps_cross_partition_mail_parked() {
        let mut n = net(3);
        n.disconnect(N1);
        assert_eq!(n.send(N0, N1, "pre"), SendOutcome::Held);
        n.partition(&[N0]);
        // N1 reconnects inside the partition: N0's message is across
        // the cut and must wait for the heal.
        assert_eq!(n.reconnect(N1).len(), 0);
        assert_eq!(n.heal_partition().collect::<Vec<_>>(), vec![(N1, "pre")]);
    }

    #[test]
    fn drops_are_reported_never_silent() {
        let mut plan = FaultPlan::quiet(3);
        plan.drop_p = 1.0;
        let mut n = net(2).with_faults(FaultInjector::new(&plan));
        assert_eq!(n.send(N0, N1, "gone"), SendOutcome::Dropped);
        n.clear_faults();
        assert!(matches!(n.send(N0, N1, "ok"), SendOutcome::Deliver { .. }));
    }

    #[test]
    fn duplicates_yield_two_delays() {
        let mut plan = FaultPlan::quiet(3);
        plan.dup_p = 1.0;
        let mut n = net(2).with_faults(FaultInjector::new(&plan));
        match n.send(N0, N1, "twice") {
            SendOutcome::Duplicated { delays, .. } => {
                assert_eq!(delays[0], SimDuration::from_millis(3));
                assert_eq!(delays[1], SimDuration::from_millis(3));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delay_spike_adds_to_latency() {
        let mut plan = FaultPlan::quiet(3);
        plan.delay_p = 1.0;
        plan.delay_spike = SimDuration::from_millis(500);
        let mut n = net(2).with_faults(FaultInjector::new(&plan));
        match n.send(N0, N1, "late") {
            SendOutcome::Deliver { delay, .. } => {
                assert_eq!(delay, SimDuration::from_millis(503));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn park_redelivers_on_reconnect() {
        let mut n = net(2);
        n.disconnect(N1);
        n.park(N0, N1, "requeued");
        assert_eq!(n.reconnect(N1).collect::<Vec<_>>(), vec!["requeued"]);
    }
}
