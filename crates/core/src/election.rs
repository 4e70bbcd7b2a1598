//! Deterministic leader election for the replicated base tier — a
//! small Raft-style vote round specialized to the two-tier base.
//!
//! The base group's control plane ([`BaseGroup`]) plays the role of
//! the election network: it gathers each survivor's
//! [`Candidate`] status, nominates the winner with [`pick_candidate`]
//! (highest replicated LSN wins, lowest node id breaks ties — the most
//! caught-up replica loses no acknowledged commits), and runs a vote
//! round. The *decisions* stay in the replicas: each one judges a
//! [`VoteRequest`] with [`grant_vote`] against its own epoch and log
//! head, and a [`Tally`] over the replies decides whether the round
//! reached the majority of the **full** group size (crashed replicas
//! count against the quorum, never for it).
//!
//! Everything here is pure and seedless, so an election's outcome is a
//! function of the survivors' states alone — the same crash schedule
//! elects the same leaders in every run.
//!
//! [`BaseGroup`]: crate::base_tier::BaseGroup

use repl_storage::NodeId;
use std::fmt;

/// An epoch (term) number. Epochs are strictly increasing across
/// elections; every replicated message carries its epoch, and replicas
/// fence anything stamped with a stale one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(pub u64);

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// One survivor's electable state: its current epoch and how far its
/// replicated log reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The replica.
    pub node: NodeId,
    /// Its current epoch.
    pub epoch: Epoch,
    /// Its replicated-log head (the last sequence number it holds).
    pub head: u64,
}

/// Votes needed to elect a leader in a group of `group_size` replicas:
/// a strict majority of the *full* membership, so two disjoint sets of
/// survivors can never both elect (at-most-one-primary-per-epoch).
pub fn quorum(group_size: usize) -> usize {
    group_size / 2 + 1
}

/// Nominate the survivor with the longest replicated log; node id
/// breaks ties. Deterministic: the same survivor set always nominates
/// the same candidate. `None` when there are no survivors.
pub fn pick_candidate(survivors: &[Candidate]) -> Option<Candidate> {
    survivors
        .iter()
        .copied()
        .max_by(|a, b| a.head.cmp(&b.head).then(b.node.0.cmp(&a.node.0)))
}

/// A request for a vote in `epoch` on behalf of `candidate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteRequest {
    /// The proposed (new) epoch.
    pub epoch: Epoch,
    /// The nominated replica.
    pub candidate: NodeId,
    /// The candidate's replicated-log head.
    pub head: u64,
}

/// A replica's answer to a [`VoteRequest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteReply {
    /// The voter.
    pub from: NodeId,
    /// Whether the vote was granted.
    pub granted: bool,
    /// The voter's epoch *after* judging the request (advanced to the
    /// request's epoch when granting; unchanged when the request was
    /// stale). A denial carrying a higher epoch forces a new round.
    pub epoch: Epoch,
}

/// The vote rule a replica applies (Raft §5.2/§5.4.1 collapsed to this
/// runtime's needs): grant iff the proposed epoch is *newer* than
/// anything the replica has seen and the candidate's log is at least as
/// long as its own — a leader that would lose acknowledged commits can
/// never win.
pub fn grant_vote(my_epoch: Epoch, my_head: u64, req: &VoteRequest) -> bool {
    req.epoch > my_epoch && req.head >= my_head
}

/// Counts [`VoteReply`]s toward the quorum of a fixed group size.
#[derive(Debug, Clone)]
pub struct Tally {
    group_size: usize,
    granted: Vec<NodeId>,
    /// The highest epoch seen in any reply (grant or denial); a failed
    /// round retries above this.
    pub max_epoch: Epoch,
}

impl Tally {
    /// An empty tally for a group of `group_size` replicas.
    pub fn new(group_size: usize) -> Self {
        Tally {
            group_size,
            granted: Vec::new(),
            max_epoch: Epoch(0),
        }
    }

    /// Record one reply. Duplicate grants from the same voter count
    /// once.
    pub fn record(&mut self, reply: VoteReply) {
        self.max_epoch = self.max_epoch.max(reply.epoch);
        if reply.granted && !self.granted.contains(&reply.from) {
            self.granted.push(reply.from);
        }
    }

    /// Grants so far.
    pub fn granted(&self) -> usize {
        self.granted.len()
    }

    /// Whether the grants reach the majority of the full group.
    pub fn elected(&self) -> bool {
        self.granted.len() >= quorum(self.group_size)
    }
}

/// How an election attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ElectionOutcome {
    /// `leader` won `epoch` after `rounds` vote rounds.
    Elected {
        /// The new primary.
        leader: NodeId,
        /// The epoch it leads.
        epoch: Epoch,
        /// Vote rounds it took (1 = first round succeeded).
        rounds: u32,
    },
    /// Too few survivors to reach a majority of the full group; the
    /// tier degrades to stale reads and queued tentative syncs.
    NoQuorum {
        /// Live replicas.
        live: usize,
        /// Votes a majority requires.
        need: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(node: u32, epoch: u64, head: u64) -> Candidate {
        Candidate {
            node: NodeId(node),
            epoch: Epoch(epoch),
            head,
        }
    }

    #[test]
    fn quorum_is_a_strict_majority() {
        assert_eq!(quorum(1), 1);
        assert_eq!(quorum(2), 2);
        assert_eq!(quorum(3), 2);
        assert_eq!(quorum(4), 3);
        assert_eq!(quorum(5), 3);
    }

    #[test]
    fn highest_head_wins_node_id_breaks_ties() {
        let c = pick_candidate(&[cand(0, 1, 5), cand(1, 1, 9), cand(2, 1, 9)]).unwrap();
        assert_eq!(c.node, NodeId(1), "lowest id among the longest logs");
        assert_eq!(pick_candidate(&[]), None);
        // A lone survivor nominates itself.
        assert_eq!(pick_candidate(&[cand(2, 3, 0)]).unwrap().node, NodeId(2));
    }

    #[test]
    fn votes_require_newer_epoch_and_no_log_regression() {
        let req = VoteRequest {
            epoch: Epoch(3),
            candidate: NodeId(1),
            head: 7,
        };
        assert!(grant_vote(Epoch(2), 7, &req));
        assert!(grant_vote(Epoch(2), 5, &req));
        // Same or newer epoch at the voter: deny.
        assert!(!grant_vote(Epoch(3), 5, &req));
        assert!(!grant_vote(Epoch(4), 0, &req));
        // Voter holds commits the candidate lacks: deny.
        assert!(!grant_vote(Epoch(2), 8, &req));
    }

    #[test]
    fn tally_needs_majority_of_full_group() {
        let mut t = Tally::new(3);
        t.record(VoteReply {
            from: NodeId(0),
            granted: true,
            epoch: Epoch(2),
        });
        assert!(!t.elected(), "one grant of three is not a majority");
        // Duplicate grants count once.
        t.record(VoteReply {
            from: NodeId(0),
            granted: true,
            epoch: Epoch(2),
        });
        assert_eq!(t.granted(), 1);
        t.record(VoteReply {
            from: NodeId(2),
            granted: true,
            epoch: Epoch(2),
        });
        assert!(t.elected());
    }

    #[test]
    fn tally_tracks_max_epoch_from_denials() {
        let mut t = Tally::new(3);
        t.record(VoteReply {
            from: NodeId(1),
            granted: false,
            epoch: Epoch(9),
        });
        assert_eq!(t.max_epoch, Epoch(9), "a denial's epoch drives the retry");
        assert!(!t.elected());
    }

    #[test]
    fn same_survivors_elect_the_same_leader() {
        let survivors = [cand(2, 4, 11), cand(1, 4, 11), cand(0, 3, 8)];
        let a = pick_candidate(&survivors).unwrap();
        let b = pick_candidate(&survivors).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.node, NodeId(1));
    }
}
