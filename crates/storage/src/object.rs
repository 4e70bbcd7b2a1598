//! Object identity, values, and the Lamport timestamps that tag every
//! replica update (the paper's Figure 4: `OID, old time, new value`).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies one of the `DB_Size` distinct objects in the database.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct ObjectId(pub u64);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// Identifies a node (replica site). Base and mobile nodes share the
/// same id space.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A Lamport timestamp `(counter, node)` — totally ordered, unique per
/// update, and deterministic under the simulator. The paper's timestamp
/// reconciliation test ("if the local replica's timestamp and the
/// update's old timestamp are equal, the update is safe") compares these.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct Timestamp {
    /// Logical Lamport counter (major component).
    pub counter: u64,
    /// Originating node (tie-breaker, makes timestamps globally unique).
    pub node: NodeId,
}

impl Timestamp {
    /// The timestamp of the initial database state, older than any
    /// update any node can generate.
    pub const ZERO: Timestamp = Timestamp {
        counter: 0,
        node: NodeId(0),
    };

    /// Construct a timestamp.
    pub fn new(counter: u64, node: NodeId) -> Self {
        Timestamp { counter, node }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.counter, self.node)
    }
}

/// A per-node Lamport clock: `tick` for local events, `observe` to merge
/// a remote timestamp (receive rule).
#[derive(Debug, Clone)]
pub struct LamportClock {
    node: NodeId,
    counter: u64,
}

impl LamportClock {
    /// A clock for `node`, starting above [`Timestamp::ZERO`].
    pub fn new(node: NodeId) -> Self {
        LamportClock { node, counter: 0 }
    }

    /// Advance for a local event and return the fresh timestamp.
    pub fn tick(&mut self) -> Timestamp {
        self.counter += 1;
        Timestamp::new(self.counter, self.node)
    }

    /// Merge an observed remote timestamp (Lamport receive rule): the
    /// local counter jumps above anything seen.
    pub fn observe(&mut self, ts: Timestamp) {
        self.counter = self.counter.max(ts.counter);
    }

    /// The most recent timestamp issued (not advanced).
    pub fn current(&self) -> Timestamp {
        Timestamp::new(self.counter, self.node)
    }
}

/// An object value. The paper's workloads are numeric (account balances,
/// stock levels, quotes); `Int` covers them and keeps commutativity
/// checkable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Value {
    /// A 64-bit integer (account balance, stock count, …).
    Int(i64),
}

impl Value {
    /// The integer inside.
    pub fn as_int(&self) -> i64 {
        let Value::Int(v) = *self;
        v
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Int(0)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Value::Int(v) = self;
        write!(f, "{v}")
    }
}

/// One versioned object: its current value and the timestamp of the
/// update that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Versioned {
    /// Current committed value.
    pub value: Value,
    /// Timestamp of the most recent committed update.
    pub ts: Timestamp,
}

impl Versioned {
    /// The initial version of every object: value zero at time zero.
    pub fn initial() -> Self {
        Versioned {
            value: Value::default(),
            ts: Timestamp::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_totally_ordered() {
        let a = Timestamp::new(1, NodeId(5));
        let b = Timestamp::new(2, NodeId(1));
        let c = Timestamp::new(2, NodeId(3));
        assert!(a < b);
        assert!(b < c); // same counter, node breaks tie
        assert!(Timestamp::ZERO < a);
    }

    #[test]
    fn lamport_clock_monotone() {
        let mut clk = LamportClock::new(NodeId(1));
        let t1 = clk.tick();
        let t2 = clk.tick();
        assert!(t2 > t1);
        assert_eq!(t2.node, NodeId(1));
    }

    #[test]
    fn lamport_observe_jumps_forward() {
        let mut clk = LamportClock::new(NodeId(1));
        clk.tick();
        clk.observe(Timestamp::new(100, NodeId(2)));
        let t = clk.tick();
        assert_eq!(t.counter, 101);
    }

    #[test]
    fn observe_smaller_is_noop() {
        let mut clk = LamportClock::new(NodeId(1));
        for _ in 0..10 {
            clk.tick();
        }
        clk.observe(Timestamp::new(3, NodeId(2)));
        assert_eq!(clk.tick().counter, 11);
    }

    #[test]
    fn clocks_on_distinct_nodes_never_collide() {
        let mut a = LamportClock::new(NodeId(1));
        let mut b = LamportClock::new(NodeId(2));
        let ta = a.tick();
        let tb = b.tick();
        assert_ne!(ta, tb);
        assert_eq!(ta.counter, tb.counter);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(7).as_int(), 7);
        assert_eq!(Value::from(-7).as_int(), -7);
    }

    /// A store slot is a value and a timestamp, nothing else: 8 + 16 B.
    #[test]
    fn versioned_slot_is_24_bytes() {
        assert_eq!(std::mem::size_of::<Value>(), 8);
        assert_eq!(std::mem::size_of::<Versioned>(), 24);
    }

    #[test]
    fn initial_version_is_zero_at_time_zero() {
        let v = Versioned::initial();
        assert_eq!(v.value, Value::Int(0));
        assert_eq!(v.ts, Timestamp::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ObjectId(3).to_string(), "o3");
        assert_eq!(NodeId(2).to_string(), "n2");
        assert_eq!(Timestamp::new(9, NodeId(2)).to_string(), "9@n2");
        assert_eq!(Value::Int(5).to_string(), "5");
    }
}
