//! Weighted-voting quorums — the availability substrate §3 assumes:
//! "for high availability, eager replication systems allow updates
//! among members of the quorum or cluster [Gifford], [Garcia-Molina].
//! When a node joins the quorum, the quorum sends the new node all
//! replica updates since the node was disconnected."
//!
//! This module implements Gifford's weighted voting: each replica holds
//! votes; reads need `r` votes, writes need `w` votes, with
//! `r + w > total` so any read quorum intersects any write quorum, and
//! `2w > total` so two writes cannot proceed disjointly.

use repl_storage::NodeId;

/// A weighted-voting configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumConfig {
    /// Vote weight per node (index = node id).
    pub weights: Vec<u32>,
    /// Votes required to read.
    pub read_quorum: u32,
    /// Votes required to write.
    pub write_quorum: u32,
}

/// Errors constructing a quorum configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuorumError {
    /// `r + w` must exceed the total vote count (read/write overlap).
    ReadWriteOverlap,
    /// `2w` must exceed the total vote count (write/write overlap).
    WriteWriteOverlap,
    /// At least one node must carry a vote.
    NoVotes,
}

impl std::fmt::Display for QuorumError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuorumError::ReadWriteOverlap => {
                write!(f, "read + write quorum must exceed the total votes")
            }
            QuorumError::WriteWriteOverlap => {
                write!(f, "2 x write quorum must exceed the total votes")
            }
            QuorumError::NoVotes => write!(f, "no node carries a vote"),
        }
    }
}

impl std::error::Error for QuorumError {}

impl QuorumConfig {
    /// Validate Gifford's intersection constraints.
    pub fn new(
        weights: Vec<u32>,
        read_quorum: u32,
        write_quorum: u32,
    ) -> Result<Self, QuorumError> {
        let total: u32 = weights.iter().sum();
        if total == 0 {
            return Err(QuorumError::NoVotes);
        }
        if read_quorum + write_quorum <= total {
            return Err(QuorumError::ReadWriteOverlap);
        }
        if 2 * write_quorum <= total {
            return Err(QuorumError::WriteWriteOverlap);
        }
        Ok(QuorumConfig {
            weights,
            read_quorum,
            write_quorum,
        })
    }

    /// Majority quorum over `n` equally weighted nodes.
    pub fn majority(n: u32) -> Self {
        let q = n / 2 + 1;
        QuorumConfig::new(vec![1; n as usize], q, q).expect("majority always valid")
    }

    /// Total votes in the system.
    pub fn total_votes(&self) -> u32 {
        self.weights.iter().sum()
    }

    /// Votes held by a set of available nodes.
    pub fn votes_of(&self, available: &[NodeId]) -> u32 {
        available
            .iter()
            .map(|n| self.weights.get(n.0 as usize).copied().unwrap_or(0))
            .sum()
    }

    /// Whether the available set can serve reads.
    pub fn can_read(&self, available: &[NodeId]) -> bool {
        self.votes_of(available) >= self.read_quorum
    }

    /// Whether the available set can accept writes — the §3 rule that
    /// lets an eager system keep updating when some nodes are down.
    pub fn can_write(&self, available: &[NodeId]) -> bool {
        self.votes_of(available) >= self.write_quorum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn majority_config_is_valid() {
        let q = QuorumConfig::majority(5);
        assert_eq!(q.total_votes(), 5);
        assert_eq!(q.read_quorum, 3);
        assert_eq!(q.write_quorum, 3);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert_eq!(
            QuorumConfig::new(vec![1; 5], 2, 3),
            Err(QuorumError::ReadWriteOverlap)
        );
        assert_eq!(
            QuorumConfig::new(vec![1; 5], 4, 2),
            Err(QuorumError::WriteWriteOverlap)
        );
        assert_eq!(QuorumConfig::new(vec![], 1, 1), Err(QuorumError::NoVotes));
        assert_eq!(
            QuorumConfig::new(vec![0, 0], 1, 1),
            Err(QuorumError::NoVotes)
        );
    }

    #[test]
    fn weighted_votes_counted() {
        // One heavy node (3 votes) + two light ones.
        let q = QuorumConfig::new(vec![3, 1, 1], 3, 3).unwrap();
        assert!(q.can_write(&nodes(&[0])));
        assert!(!q.can_write(&nodes(&[1, 2])));
        assert!(q.can_read(&nodes(&[0])));
    }

    #[test]
    fn error_display() {
        assert!(QuorumError::ReadWriteOverlap.to_string().contains("read"));
    }
}
