//! Deterministic leader election for the replicated two-tier base.
//!
//! When the primary dies, the next base-bound request elects a
//! successor among the live base nodes ([`crate::engine::two_tier`]).
//! The election needs a majority of the **full** base ([`quorum`]:
//! crashed nodes count against it, never for it), and nominates the
//! winner with [`pick_candidate`]: the longest replicated log wins, the
//! lowest node id breaks ties, so the most caught-up node loses no
//! commit another survivor holds.
//!
//! Everything here is pure and seedless, so an election's outcome is a
//! function of the survivors' states alone — the same crash schedule
//! elects the same leaders in every run.

use repl_storage::NodeId;

/// One survivor's electable state: how far its replicated log reaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The base node.
    pub node: NodeId,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(node: u32, head: u64) -> Candidate {
        Candidate {
            node: NodeId(node),
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
        let c = pick_candidate(&[cand(0, 5), cand(1, 9), cand(2, 9)]).unwrap();
        assert_eq!(c.node, NodeId(1), "lowest id among the longest logs");
        assert_eq!(pick_candidate(&[]), None);
        // A lone survivor nominates itself.
        assert_eq!(pick_candidate(&[cand(2, 0)]).unwrap().node, NodeId(2));
    }

    #[test]
    fn same_survivors_elect_the_same_leader() {
        let survivors = [cand(2, 11), cand(1, 11), cand(0, 8)];
        let a = pick_candidate(&survivors).unwrap();
        let b = pick_candidate(&survivors).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.node, NodeId(1));
    }
}
