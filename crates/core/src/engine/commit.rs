//! Atomic cross-shard commit: the coordinator state machine for the
//! eager family's two-phase commit, plus the protocol/crash-point
//! vocabulary shared by the config, the engines and the fuzzer.
//!
//! The paper's eager replication serializes every replica update inside
//! the owning transaction; once the keyspace is sharded (PR 8) a
//! transaction may span owners, and "inside the transaction" needs a
//! real atomic commit. This module holds the *pure* coordinator — a
//! presumed-abort state machine with no clock, no network and no I/O —
//! so it can be property-tested in isolation; the engines drive it over
//! the simulated [`Network`](repl_net::Network).
//!
//! Presumed abort: a coordinator that has no durable decision record
//! for a transaction answers "abort". Only the commit decision is
//! force-logged; aborts cost nothing durable.

use repl_net::FaultPlan;
use repl_storage::NodeId;

/// Which cross-shard commit protocol the eager family runs
/// ([`SimConfig::commit_proto`](crate::SimConfig::commit_proto)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitProto {
    /// Owner-ordered lock acquisition and no atomic commit: the
    /// coordinator commits locally, then sends one fire-and-forget
    /// `Apply` per remote owner through the kernel's fabric. No votes,
    /// no durable decision, no acks. Correct on a perfect fabric, loses
    /// atomicity to drops and crashes (which is exactly what the oracle
    /// must catch).
    #[default]
    OwnerOrder,
    /// Classic presumed-abort two-phase commit: explicit
    /// Prepare/Vote/Decision/Ack rounds per remote participant.
    TwoPc,
    /// The paper-adjacent O2PL variant: the prepare is piggybacked on
    /// the last lock grant a participant serves, so the voting round
    /// costs no extra messages — only Decision/Ack go on the wire.
    O2pl,
}

impl CommitProto {
    /// Every protocol, in sweep order.
    pub const ALL: [CommitProto; 3] = [
        CommitProto::OwnerOrder,
        CommitProto::TwoPc,
        CommitProto::O2pl,
    ];

    /// Stable CLI/fuzz-corpus name.
    pub fn name(self) -> &'static str {
        match self {
            CommitProto::OwnerOrder => "owner-order",
            CommitProto::TwoPc => "2pc",
            CommitProto::O2pl => "o2pl",
        }
    }

    /// Parse a `name()` back (a fuzz case's `proto=` field).
    pub fn parse(s: &str) -> Option<CommitProto> {
        CommitProto::ALL.into_iter().find(|p| p.name() == s)
    }
}

/// The outcome of a two-phase commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Unanimous yes-votes: every participant applies.
    Commit,
    /// At least one no-vote, timeout, or crash: every participant
    /// discards.
    Abort,
}

/// Coordinator lifecycle: `Init → Preparing → Decided → Done`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoordState {
    /// Created, prepares not yet sent.
    Init,
    /// Prepares out, collecting votes.
    Preparing,
    /// Decision reached (durably logged by the driver before acting on
    /// it); decisions are being distributed.
    Decided(Decision),
    /// Every participant acknowledged the decision.
    Done,
}

/// The pure presumed-abort coordinator state machine for one
/// transaction. Drives no I/O itself: the engine logs, sends and
/// schedules around it, which is what keeps it property-testable.
#[derive(Debug, Clone)]
pub struct Coordinator {
    state: CoordState,
    participants: Vec<NodeId>,
    yes: Vec<bool>,
    acked: Vec<bool>,
    done_decision: Option<Decision>,
}

impl Coordinator {
    /// A coordinator for `participants` (the distinct remote owners;
    /// the coordinator's own shard votes implicitly). `participants`
    /// must be non-empty — single-owner transactions never build one.
    pub fn new(participants: Vec<NodeId>) -> Self {
        debug_assert!(!participants.is_empty());
        let n = participants.len();
        Coordinator {
            state: CoordState::Init,
            participants,
            yes: vec![false; n],
            acked: vec![false; n],
            done_decision: None,
        }
    }

    /// Rebuild a coordinator from a durable decision record during
    /// crash recovery: the machine starts `Decided` with no acks, so
    /// the driver re-distributes the decision and collects acks as if
    /// the crash never happened (participants absorb duplicates).
    pub fn recovered(participants: Vec<NodeId>, decision: Decision) -> Self {
        debug_assert!(!participants.is_empty());
        let n = participants.len();
        Coordinator {
            state: CoordState::Decided(decision),
            yes: vec![decision == Decision::Commit; n],
            acked: vec![false; n],
            participants,
            done_decision: None,
        }
    }

    /// Current state.
    pub fn state(&self) -> CoordState {
        self.state
    }

    /// The decision, if one has been reached.
    pub fn decision(&self) -> Option<Decision> {
        match self.state {
            CoordState::Decided(d) => Some(d),
            // Done is only reachable through Decided(Commit) acks or an
            // abort that needs no acks; by then the decision is Commit
            // unless `abort()`/`timeout()` moved us straight to Done.
            CoordState::Done => self.done_decision,
            _ => None,
        }
    }

    /// The participant set.
    pub fn participants(&self) -> &[NodeId] {
        &self.participants
    }

    /// Move `Init → Preparing` (the driver sends the Prepare round).
    /// Idempotent after the first call.
    pub fn begin(&mut self) {
        if self.state == CoordState::Init {
            self.state = CoordState::Preparing;
        }
    }

    /// Record one participant's vote. Returns the decision the moment
    /// it becomes final: `Abort` on the first no, `Commit` once every
    /// participant voted yes. Votes after a decision (duplicates,
    /// stragglers) are ignored — the machine never un-decides.
    pub fn vote(&mut self, from: NodeId, yes: bool) -> Option<Decision> {
        if self.state != CoordState::Preparing {
            return None;
        }
        let i = self.participants.iter().position(|p| *p == from)?;
        if !yes {
            self.state = CoordState::Decided(Decision::Abort);
            return Some(Decision::Abort);
        }
        self.yes[i] = true;
        if self.yes.iter().all(|v| *v) {
            self.state = CoordState::Decided(Decision::Commit);
            return Some(Decision::Commit);
        }
        None
    }

    /// Prepare-phase timeout (or coordinator recovery with no durable
    /// decision): presume abort. Returns `Abort` exactly when this call
    /// decided; no-op once decided.
    pub fn timeout(&mut self) -> Option<Decision> {
        match self.state {
            CoordState::Init | CoordState::Preparing => {
                self.state = CoordState::Decided(Decision::Abort);
                Some(Decision::Abort)
            }
            _ => None,
        }
    }

    /// Record one participant's decision acknowledgement. Returns true
    /// when every participant has acked (the driver forgets the
    /// transaction: `Decided → Done`). Duplicate acks are absorbed.
    pub fn ack(&mut self, from: NodeId) -> bool {
        let CoordState::Decided(d) = self.state else {
            return self.state == CoordState::Done;
        };
        if let Some(i) = self.participants.iter().position(|p| *p == from) {
            self.acked[i] = true;
        }
        if self.acked.iter().all(|v| *v) {
            self.done_decision = Some(d);
            self.state = CoordState::Done;
            return true;
        }
        false
    }

    /// Participants whose vote is still outstanding (retransmit target
    /// for the Prepare round).
    pub fn unvoted(&self) -> Vec<NodeId> {
        self.participants
            .iter()
            .zip(&self.yes)
            .filter(|(_, v)| !**v)
            .map(|(p, _)| *p)
            .collect()
    }

    /// Participants whose decision ack is still outstanding
    /// (retransmit target for the Decision round).
    pub fn unacked(&self) -> Vec<NodeId> {
        self.participants
            .iter()
            .zip(&self.acked)
            .filter(|(_, v)| !**v)
            .map(|(p, _)| *p)
            .collect()
    }
}

/// Where in the 2PC lifecycle an injected crash fires (the fuzz
/// campaign's crash points — one per protocol state transition).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Coordinator dies before sending any Prepare.
    CoordPrePrepare,
    /// Coordinator dies right after the Prepare round is sent.
    CoordPostPrepare,
    /// Participant dies before force-logging its prepared record.
    PartPreVote,
    /// Participant dies after voting yes (now in doubt).
    PartPostVote,
    /// Coordinator dies after deciding but before logging the decision.
    CoordPreDecisionLog,
    /// Coordinator dies after logging, before distributing decisions.
    CoordPostDecisionLog,
}

impl CrashKind {
    /// Every crash point, in fuzz rotation order.
    pub const ALL: [CrashKind; 6] = [
        CrashKind::CoordPrePrepare,
        CrashKind::CoordPostPrepare,
        CrashKind::PartPreVote,
        CrashKind::PartPostVote,
        CrashKind::CoordPreDecisionLog,
        CrashKind::CoordPostDecisionLog,
    ];

    /// Stable fuzz-corpus name.
    pub fn name(self) -> &'static str {
        match self {
            CrashKind::CoordPrePrepare => "coord-pre-prepare",
            CrashKind::CoordPostPrepare => "coord-post-prepare",
            CrashKind::PartPreVote => "part-pre-vote",
            CrashKind::PartPostVote => "part-post-vote",
            CrashKind::CoordPreDecisionLog => "coord-pre-declog",
            CrashKind::CoordPostDecisionLog => "coord-post-declog",
        }
    }
}

/// A targeted crash-point injection: on the `nth` (0-based) time the
/// run reaches `kind`'s transition, crash that node for `down_secs`.
/// Rides `SimConfig` so the fuzzer can aim a crash at every protocol
/// edge without tuning wall-clock crash windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Which transition to crash at.
    pub kind: CrashKind,
    /// Skip this many earlier occurrences first.
    pub nth: u32,
    /// How long the node stays down (seconds of sim time).
    pub down_secs: u64,
}

impl CrashPoint {
    /// Stable fuzz-corpus encoding: `kind:nth:down`.
    pub fn encode(&self) -> String {
        format!("{}:{}:{}", self.kind.name(), self.nth, self.down_secs)
    }

    /// Parse `encode()` output. A down time past
    /// [`FaultPlan::MAX_DURATION`] is refused: the engine adds it to
    /// the clock.
    pub fn parse(s: &str) -> Option<CrashPoint> {
        let mut it = s.splitn(3, ':');
        let kind = it.next()?;
        let kind = CrashKind::ALL.into_iter().find(|k| k.name() == kind)?;
        let nth = it.next()?.parse().ok()?;
        let down_secs = it.next()?.parse().ok()?;
        if down_secs > FaultPlan::MAX_DURATION.0 / 1_000_000 {
            return None;
        }
        Some(CrashPoint {
            kind,
            nth,
            down_secs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn unanimous_yes_commits() {
        let mut c = Coordinator::new(nodes(&[1, 2, 3]));
        c.begin();
        assert_eq!(c.vote(NodeId(1), true), None);
        assert_eq!(c.vote(NodeId(3), true), None);
        assert_eq!(c.vote(NodeId(2), true), Some(Decision::Commit));
        assert_eq!(c.state(), CoordState::Decided(Decision::Commit));
        assert!(!c.ack(NodeId(1)));
        assert!(!c.ack(NodeId(1))); // duplicate ack absorbed
        assert!(!c.ack(NodeId(2)));
        assert!(c.ack(NodeId(3)));
        assert_eq!(c.state(), CoordState::Done);
        assert_eq!(c.decision(), Some(Decision::Commit));
    }

    #[test]
    fn single_no_vote_aborts_immediately() {
        let mut c = Coordinator::new(nodes(&[1, 2]));
        c.begin();
        assert_eq!(c.vote(NodeId(2), false), Some(Decision::Abort));
        // A late yes cannot resurrect the transaction.
        assert_eq!(c.vote(NodeId(1), true), None);
        assert_eq!(c.decision(), Some(Decision::Abort));
    }

    #[test]
    fn timeout_presumes_abort_only_before_decision() {
        let mut c = Coordinator::new(nodes(&[1]));
        c.begin();
        assert_eq!(c.timeout(), Some(Decision::Abort));
        assert_eq!(c.timeout(), None);

        let mut c = Coordinator::new(nodes(&[1]));
        c.begin();
        assert_eq!(c.vote(NodeId(1), true), Some(Decision::Commit));
        assert_eq!(c.timeout(), None, "timeout after decision is a no-op");
        assert_eq!(c.decision(), Some(Decision::Commit));
    }

    #[test]
    fn votes_from_strangers_are_ignored() {
        let mut c = Coordinator::new(nodes(&[1, 2]));
        c.begin();
        assert_eq!(c.vote(NodeId(9), true), None);
        assert_eq!(c.vote(NodeId(9), false), None);
        assert_eq!(c.state(), CoordState::Preparing);
    }

    #[test]
    fn duplicate_votes_are_idempotent() {
        let mut c = Coordinator::new(nodes(&[1, 2]));
        c.begin();
        assert_eq!(c.vote(NodeId(1), true), None);
        assert_eq!(c.vote(NodeId(1), true), None);
        assert_eq!(c.vote(NodeId(2), true), Some(Decision::Commit));
    }

    #[test]
    fn recovered_coordinator_resends_and_collects_acks() {
        let mut c = Coordinator::recovered(nodes(&[1, 2]), Decision::Commit);
        assert_eq!(c.state(), CoordState::Decided(Decision::Commit));
        assert_eq!(c.decision(), Some(Decision::Commit));
        // Recovery never re-votes; it only re-distributes the decision.
        assert_eq!(c.vote(NodeId(1), false), None);
        assert!(!c.ack(NodeId(1)));
        assert!(c.ack(NodeId(2)));
        assert_eq!(c.state(), CoordState::Done);
        assert_eq!(c.decision(), Some(Decision::Commit));
    }

    #[test]
    fn proto_and_crash_point_round_trip() {
        for p in CommitProto::ALL {
            assert_eq!(CommitProto::parse(p.name()), Some(p));
        }
        assert_eq!(CommitProto::parse("3pc"), None);
        for k in CrashKind::ALL {
            let cp = CrashPoint {
                kind: k,
                nth: 2,
                down_secs: 7,
            };
            assert_eq!(CrashPoint::parse(&cp.encode()), Some(cp));
        }
        assert_eq!(CrashPoint::parse("coord-pre-prepare"), None);
        assert_eq!(CrashPoint::parse("nope:0:1"), None);
        assert!(CrashPoint::parse("part-pre-vote:0:1000000000").is_some());
        assert_eq!(CrashPoint::parse("part-pre-vote:0:1000000001"), None);
        assert_eq!(CrashPoint::parse("part-pre-vote:4294967296:1"), None);
    }
}

#[cfg(test)]
mod props {
    //! Satellite 4: the coordinator in isolation, under arbitrary
    //! interleavings of votes, timeouts and duplicate/stranger input.
    use super::*;
    use proptest::prelude::*;

    /// One step of adversarial input to the machine.
    #[derive(Debug, Clone, Copy)]
    enum Step {
        Vote { node: u32, yes: bool },
        Timeout,
        Ack { node: u32 },
    }

    fn step_strategy(max_node: u32) -> impl Strategy<Value = Step> {
        prop_oneof![
            (0..max_node, 0u8..2).prop_map(|(node, yes)| Step::Vote {
                node,
                yes: yes == 1
            }),
            Just(Step::Timeout),
            (0..max_node).prop_map(|node| Step::Ack { node }),
        ]
    }

    proptest! {
        /// Safety: `Decided(Commit)` is unreachable without a yes vote
        /// from every participant, no matter the interleaving (crashes
        /// show up to the machine as timeouts — a recovering presumed-
        /// abort coordinator with no durable decision calls `timeout`).
        #[test]
        fn commit_requires_unanimous_yes(
            n_participants in 1usize..6,
            steps in proptest::collection::vec(step_strategy(8), 0..64),
        ) {
            let participants: Vec<NodeId> =
                (1..=n_participants as u32).map(NodeId).collect();
            let mut c = Coordinator::new(participants.clone());
            c.begin();
            let mut yes_votes = std::collections::HashSet::new();
            for s in &steps {
                match *s {
                    Step::Vote { node, yes } => {
                        let decided_before = c.decision().is_some();
                        c.vote(NodeId(node), yes);
                        if yes && !decided_before && participants.contains(&NodeId(node)) {
                            yes_votes.insert(node);
                        }
                    }
                    Step::Timeout => { c.timeout(); }
                    Step::Ack { node } => { c.ack(NodeId(node)); }
                }
                if c.decision() == Some(Decision::Commit) {
                    prop_assert_eq!(
                        yes_votes.len(), participants.len(),
                        "committed without unanimous yes"
                    );
                }
            }
        }

        /// Liveness: after any interleaving, one timeout call leaves the
        /// machine decided, and acks from every participant then drive
        /// it to `Done` — the coordinator always terminates.
        #[test]
        fn always_terminates(
            n_participants in 1usize..6,
            steps in proptest::collection::vec(step_strategy(8), 0..64),
        ) {
            let participants: Vec<NodeId> =
                (1..=n_participants as u32).map(NodeId).collect();
            let mut c = Coordinator::new(participants.clone());
            c.begin();
            for s in &steps {
                match *s {
                    Step::Vote { node, yes } => { c.vote(NodeId(node), yes); }
                    Step::Timeout => { c.timeout(); }
                    Step::Ack { node } => { c.ack(NodeId(node)); }
                }
            }
            c.timeout();
            prop_assert!(c.decision().is_some(), "undecided after timeout");
            for p in &participants {
                c.ack(*p);
            }
            prop_assert_eq!(c.state(), CoordState::Done);
        }

        /// Stability: once decided, no further input changes the
        /// decision.
        #[test]
        fn decisions_are_stable(
            n_participants in 1usize..6,
            prefix in proptest::collection::vec(step_strategy(8), 0..32),
            suffix in proptest::collection::vec(step_strategy(8), 0..32),
        ) {
            let participants: Vec<NodeId> =
                (1..=n_participants as u32).map(NodeId).collect();
            let mut c = Coordinator::new(participants);
            c.begin();
            for s in &prefix {
                match *s {
                    Step::Vote { node, yes } => { c.vote(NodeId(node), yes); }
                    Step::Timeout => { c.timeout(); }
                    Step::Ack { node } => { c.ack(NodeId(node)); }
                }
            }
            let Some(decided) = c.decision() else { return Ok(()); };
            for s in &suffix {
                match *s {
                    Step::Vote { node, yes } => { c.vote(NodeId(node), yes); }
                    Step::Timeout => { c.timeout(); }
                    Step::Ack { node } => { c.ack(NodeId(node)); }
                }
                prop_assert_eq!(c.decision(), Some(decided));
            }
        }
    }
}
