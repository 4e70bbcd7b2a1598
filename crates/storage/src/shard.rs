//! Sharded keyspace with partial replication: a deterministic
//! object→shard assignment plus a shard→replica-set placement with a
//! configurable replication factor (per Sutra & Shapiro,
//! *Fault-Tolerant Partial Replication in Large-Scale Database
//! Systems*).
//!
//! Every node hosts only the shards whose replica set contains it, so
//! per-node replication work scales with `rf`, not `Nodes` — the
//! refactor that lets the paper's Nodes³ sweeps run into the hundreds.
//! With `rf == Nodes` every replica set is the full cluster in node
//! order, so a full-replication run through the map is byte-identical
//! to the unsharded code path (the same invariance `--jobs` keeps).

use crate::div::FastDivMod;
use crate::object::{NodeId, ObjectId};
use std::collections::HashSet;
use std::sync::OnceLock;

/// One node's slice of a [`ShardMap`]: the closed-form mapping between
/// the object ids the node hosts and the dense slots `0, 1, 2, …` its
/// per-node tables ([`ObjectStore`](crate::ObjectStore) slots,
/// [`LockManager`](crate::LockManager) holders) are packed into, so
/// those tables are as wide as the hosted subset, not the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    /// Total shard count `k` (objects in shard `id % k`), as a
    /// strength-reduced divider — every packed access divides by it, so
    /// the hardware divide is paid once at construction.
    shards: FastDivMod,
    /// Hosted width divider (`hosted.len()`; 1 for a node hosting
    /// nothing, whose slots are never consulted), for the slot→id
    /// inverse.
    width: FastDivMod,
    /// This node's hosted shards, sorted ascending.
    hosted: Vec<u32>,
    /// `rank[s]` = index of shard `s` in `hosted`, `u32::MAX` if the
    /// node does not host `s`.
    rank: Vec<u32>,
}

impl ShardLayout {
    fn new(shards: u32, hosted: Vec<u32>) -> Self {
        let mut rank = vec![u32::MAX; shards as usize];
        for (r, &s) in hosted.iter().enumerate() {
            rank[s as usize] = r as u32;
        }
        ShardLayout {
            shards: FastDivMod::new(u64::from(shards)),
            width: FastDivMod::new(hosted.len().max(1) as u64),
            hosted,
            rank,
        }
    }

    /// The packed slot for `id`, or `None` when the shard isn't hosted.
    /// Hosted objects ascending by id enumerate slots `0, 1, 2, …`
    /// (row-major over `(id / k, rank(id % k))`), so the mapping needs
    /// no per-object table.
    #[inline]
    pub(crate) fn slot(&self, id: ObjectId) -> Option<usize> {
        let (row, s) = self.shards.div_rem(id.0);
        let r = self.rank[s as usize];
        (r != u32::MAX).then(|| row as usize * self.hosted.len() + r as usize)
    }

    /// The object id packed into `slot` (inverse of
    /// [`ShardLayout::slot`]).
    #[inline]
    pub(crate) fn object_of(&self, slot: u64) -> ObjectId {
        let (row, r) = self.width.div_rem(slot);
        ObjectId(row * self.shards.divisor() + u64::from(self.hosted[r as usize]))
    }

    /// How many slots the ids `0..db_size` occupy: the hosted objects
    /// of a `db_size`-object database.
    pub(crate) fn slots(&self, db_size: u64) -> u64 {
        let (full_rows, tail) = self.shards.div_rem(db_size);
        let tail_hosted = self.hosted.iter().take_while(|&&s| u64::from(s) < tail);
        full_rows * self.hosted.len() as u64 + tail_hosted.count() as u64
    }
}

/// Deterministic shard layout: `shard_of(o) = o mod shards`, and shard
/// `s` is replicated at nodes `{(s + i) mod nodes : i < rf}` (sorted).
/// Shard `s`'s *owner* — the coordinator for cross-shard work — is
/// `s mod nodes`, always a member of its replica set.
///
/// Two maps are equal when their `(shards, nodes, rf)` are: those three
/// determine every other field, whether or not the fan-out groups have
/// been built yet.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: u32,
    nodes: u32,
    rf: u32,
    /// Per-shard replica sets, each sorted ascending.
    replica_sets: Vec<Vec<NodeId>>,
    /// Per-node hosted shards and id↔slot packing.
    layouts: Vec<ShardLayout>,
    /// Per-node shard membership bitset (`shards` bits each), for O(1)
    /// `hosts`.
    bits: Vec<Vec<u64>>,
    /// Fan-out signature groups, built by the first
    /// [`ShardMap::fanout_groups`] or [`ShardMap::fanout_group_hosts`]
    /// call: no engine reads them, so construction never pays their
    /// O(nodes² · words) pass.
    fanout: OnceLock<FanoutGroups>,
    /// Strength-reduced divider for `shards` — `shard_of` runs on
    /// every filter test and sampler draw.
    shard_div: FastDivMod,
}

/// Every origin's distinct fan-out signatures (see
/// [`ShardMap::fanout_groups`]).
#[derive(Debug, Clone)]
struct FanoutGroups {
    /// Per-origin offsets into `sigs`, in *groups* (length `nodes + 1`):
    /// origin `o` owns group signatures `base[o]..base[o + 1]`.
    base: Vec<u32>,
    /// Signature bitsets, `words` words each: a distinct shard
    /// intersection some destination shares with the origin.
    sigs: Vec<u64>,
    words: usize,
}

impl FanoutGroups {
    /// Each origin's distinct signatures over the per-node membership
    /// bitsets, in ascending-destination discovery order, so group ids
    /// are deterministic.
    fn new(bits: &[Vec<u64>]) -> Self {
        let words = bits[0].len();
        let mut base = Vec::with_capacity(bits.len() + 1);
        let mut sigs = Vec::new();
        let mut sig_scratch = vec![0u64; words];
        // Dedup keyed by a whole signature; never on an engine path.
        let mut seen: HashSet<Vec<u64>> = HashSet::new();
        base.push(0);
        for (origin, own) in bits.iter().enumerate() {
            seen.clear();
            for (_, dest) in bits.iter().enumerate().filter(|&(d, _)| d != origin) {
                for (w, (&x, &y)) in own.iter().zip(dest).enumerate() {
                    sig_scratch[w] = x & y;
                }
                if sig_scratch.iter().any(|&w| w != 0) && seen.insert(sig_scratch.clone()) {
                    sigs.extend_from_slice(&sig_scratch);
                }
            }
            base.push((sigs.len() / words) as u32);
        }
        FanoutGroups { base, sigs, words }
    }
}

impl PartialEq for ShardMap {
    fn eq(&self, other: &Self) -> bool {
        (self.shards, self.nodes, self.rf) == (other.shards, other.nodes, other.rf)
    }
}

impl Eq for ShardMap {}

impl ShardMap {
    /// Build the layout for `shards` shards over `nodes` nodes at
    /// replication factor `rf` (clamped to `nodes`; `rf == 0` means
    /// full replication). Panics if `shards` or `nodes` is zero.
    pub fn new(shards: u32, nodes: u32, rf: u32) -> Self {
        assert!(shards > 0, "shard map needs at least one shard");
        assert!(nodes > 0, "shard map needs at least one node");
        let rf = if rf == 0 { nodes } else { rf.min(nodes) };
        let words = (shards as usize).div_ceil(64);
        let mut replica_sets = Vec::with_capacity(shards as usize);
        let mut hosted = vec![Vec::new(); nodes as usize];
        let mut bits = vec![vec![0u64; words]; nodes as usize];
        for s in 0..shards {
            let mut set: Vec<NodeId> = (0..rf).map(|i| NodeId((s + i) % nodes)).collect();
            set.sort_unstable();
            set.dedup();
            for &n in &set {
                hosted[n.0 as usize].push(s);
                bits[n.0 as usize][(s / 64) as usize] |= 1u64 << (s % 64);
            }
            replica_sets.push(set);
        }
        ShardMap {
            shards,
            nodes,
            rf,
            replica_sets,
            layouts: hosted
                .into_iter()
                .map(|h| ShardLayout::new(shards, h))
                .collect(),
            bits,
            fanout: OnceLock::new(),
            shard_div: FastDivMod::new(u64::from(shards)),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Effective replication factor.
    pub fn rf(&self) -> u32 {
        self.rf
    }

    /// Whether every node hosts every shard (full replication): the
    /// layout changes nothing and engines keep their unsharded paths.
    pub fn is_full(&self) -> bool {
        self.rf == self.nodes
    }

    /// The shard an object belongs to.
    #[inline]
    pub fn shard_of(&self, id: ObjectId) -> u32 {
        self.shard_div.rem(id.0) as u32
    }

    /// Shard `s`'s replica set, sorted ascending. With `rf == nodes`
    /// this is exactly `0..nodes` for every shard.
    pub fn replicas(&self, shard: u32) -> &[NodeId] {
        &self.replica_sets[shard as usize]
    }

    /// Shard `s`'s owner — the coordinator node for cross-shard
    /// transactions touching `s`. Always a member of `replicas(s)`.
    #[inline]
    pub fn owner(&self, shard: u32) -> NodeId {
        NodeId(shard % self.nodes)
    }

    /// Whether `node` hosts `shard` (is in its replica set).
    #[inline]
    pub fn hosts(&self, node: NodeId, shard: u32) -> bool {
        self.bits[node.0 as usize][(shard / 64) as usize] & (1u64 << (shard % 64)) != 0
    }

    /// Whether `node` hosts the shard `object` belongs to.
    #[inline]
    pub fn hosts_object(&self, node: NodeId, object: ObjectId) -> bool {
        self.hosts(node, self.shard_of(object))
    }

    /// The shards `node` hosts, sorted ascending.
    pub fn hosted_shards(&self, node: NodeId) -> &[u32] {
        &self.layouts[node.0 as usize].hosted
    }

    /// `node`'s id↔slot packing for its per-node tables, or `None` under
    /// full replication, where every node hosts every object and the
    /// identity (id is slot) already is the packing.
    pub fn layout(&self, node: NodeId) -> Option<&ShardLayout> {
        (!self.is_full()).then(|| &self.layouts[node.0 as usize])
    }

    /// The nodes other than `node` that host at least one of its
    /// shards — the peers it ever has replica traffic for — sorted
    /// ascending. The union of its hosted shards' replica sets, so the
    /// work follows hosted shards × `rf`, not `nodes`.
    pub fn cohosts(&self, node: NodeId) -> Vec<NodeId> {
        let mut peers: Vec<NodeId> = self
            .hosted_shards(node)
            .iter()
            .flat_map(|&s| self.replicas(s))
            .copied()
            .filter(|&peer| peer != node)
            .collect();
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    /// The fan-out of one update list from a sender hosting every shard
    /// (the two-tier base): fills `dests` with each destination hosting
    /// any of `objects`, ascending, and the mask of the entries it
    /// hosts (bit `i` ⇒ the `i`-th object; an entry past the mask's 64
    /// bits lists its destinations but sets no bit). Walks each
    /// object's replica set, so the work follows `rf`, not `nodes`.
    pub fn fanout_masks(
        &self,
        objects: impl Iterator<Item = ObjectId>,
        dests: &mut Vec<(NodeId, u64)>,
    ) {
        dests.clear();
        for (i, object) in objects.enumerate() {
            let bit = if i < 64 { 1u64 << i } else { 0 };
            for &replica in self.replicas(self.shard_of(object)) {
                match dests.iter_mut().find(|(dest, _)| *dest == replica) {
                    Some((_, mask)) => *mask |= bit,
                    None => dests.push((replica, bit)),
                }
            }
        }
        dests.sort_unstable_by_key(|&(dest, _)| dest);
    }

    /// Number of distinct fan-out signature groups for `origin`: two
    /// destinations are in the same group exactly when they host the
    /// *same intersection* of the origin's shards. Group ids are dense
    /// (`0..fanout_groups(origin)`) and assigned in ascending
    /// destination order. Round-robin placement gives nearly every
    /// destination its own signature, so no engine filters by group;
    /// the count and [`ShardMap::fanout_group_hosts`] are the layout
    /// statistic the repo benchmark reports, and the first call to
    /// either builds the groups.
    #[inline]
    pub fn fanout_groups(&self, origin: NodeId) -> usize {
        let base = &self.fanout().base;
        (base[origin.0 as usize + 1] - base[origin.0 as usize]) as usize
    }

    /// Whether `origin`'s fan-out group `group` hosts `object` — the
    /// grouped equivalent of [`ShardMap::hosts_object`] for every
    /// destination in the group, *provided the origin hosts the
    /// object*.
    #[inline]
    pub fn fanout_group_hosts(&self, origin: NodeId, group: u32, object: ObjectId) -> bool {
        let s = self.shard_of(object);
        let f = self.fanout();
        let base = (f.base[origin.0 as usize] + group) as usize * f.words;
        f.sigs[base + (s / 64) as usize] & (1u64 << (s % 64)) != 0
    }

    fn fanout(&self) -> &FanoutGroups {
        self.fanout.get_or_init(|| FanoutGroups::new(&self.bits))
    }

    /// How many of the `db_size` objects `node` hosts.
    pub fn hosted_objects(&self, node: NodeId, db_size: u64) -> u64 {
        self.layouts[node.0 as usize].slots(db_size)
    }

    /// The `i`-th (ascending by id) object hosted at `node`, for
    /// `i < hosted_objects(node, db_size)` — the dense-index→object
    /// mapping workload samplers draw through so access skew applies to
    /// the node's hosted subset.
    #[inline]
    pub fn nth_hosted(&self, node: NodeId, i: u64) -> ObjectId {
        self.layouts[node.0 as usize].object_of(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_replication_sets_are_all_nodes_in_order() {
        let m = ShardMap::new(7, 4, 0);
        assert!(m.is_full());
        assert_eq!(m.rf(), 4);
        for s in 0..7 {
            let ids: Vec<u32> = m.replicas(s).iter().map(|n| n.0).collect();
            assert_eq!(ids, vec![0, 1, 2, 3], "shard {s}");
        }
        for n in 0..4 {
            assert_eq!(m.hosted_shards(NodeId(n)).len(), 7);
        }
    }

    #[test]
    fn rf_clamps_to_nodes() {
        let m = ShardMap::new(4, 3, 9);
        assert!(m.is_full());
        assert_eq!(m.rf(), 3);
    }

    #[test]
    fn partial_placement_is_balanced_when_shards_equal_nodes() {
        let m = ShardMap::new(8, 8, 3);
        assert!(!m.is_full());
        for s in 0..8 {
            assert_eq!(m.replicas(s).len(), 3);
            assert!(m.replicas(s).contains(&m.owner(s)));
        }
        // Round-robin placement: every node hosts exactly rf shards.
        for n in 0..8 {
            assert_eq!(m.hosted_shards(NodeId(n)).len(), 3, "node {n}");
        }
    }

    #[test]
    fn hosts_matches_replica_sets() {
        let m = ShardMap::new(10, 6, 2);
        for s in 0..10 {
            for n in 0..6 {
                assert_eq!(
                    m.hosts(NodeId(n), s),
                    m.replicas(s).contains(&NodeId(n)),
                    "node {n} shard {s}"
                );
            }
        }
    }

    #[test]
    fn shard_of_is_modular() {
        let m = ShardMap::new(4, 4, 2);
        assert_eq!(m.shard_of(ObjectId(0)), 0);
        assert_eq!(m.shard_of(ObjectId(5)), 1);
        assert_eq!(m.shard_of(ObjectId(7)), 3);
    }

    /// The peers the old all-pairs filter kept: every other node whose
    /// membership bitset meets `node`'s.
    fn bitset_cohosts(m: &ShardMap, node: NodeId) -> Vec<NodeId> {
        let own = &m.bits[node.0 as usize];
        (0..m.nodes())
            .map(NodeId)
            .filter(|&peer| peer != node)
            .filter(|&peer| {
                own.iter()
                    .zip(&m.bits[peer.0 as usize])
                    .any(|(x, y)| x & y != 0)
            })
            .collect()
    }

    #[test]
    fn cohosts_lists_the_nodes_sharing_a_shard() {
        let m = ShardMap::new(8, 8, 2);
        // Shard s lives at {s, s+1}: node 0 hosts shards {0, 7}, so it
        // shares with nodes 1 and 7 and with no distant node.
        assert_eq!(m.cohosts(NodeId(0)), vec![NodeId(1), NodeId(7)]);
        assert!(!m.cohosts(NodeId(0)).contains(&NodeId(4)));
        for (shards, nodes, rf) in [(8, 8, 3), (5, 7, 2), (16, 4, 3), (3, 9, 1), (130, 70, 4)] {
            let m = ShardMap::new(shards, nodes, rf);
            for node in (0..nodes).map(NodeId) {
                assert_eq!(
                    m.cohosts(node),
                    bitset_cohosts(&m, node),
                    "{shards}/{nodes}/{rf}"
                );
            }
        }
    }

    #[test]
    fn equality_ignores_whether_fanout_groups_are_built() {
        let built = ShardMap::new(8, 8, 3);
        let unbuilt = built.clone();
        assert!(built.fanout_groups(NodeId(0)) > 0);
        assert_eq!(built, built.clone());
        assert_eq!(built, unbuilt);
        assert_eq!(unbuilt, ShardMap::new(8, 8, 3));
        assert_eq!(built, ShardMap::new(8, 8, 3));
        assert_ne!(built, ShardMap::new(8, 8, 2));
        // A clone of a built map answers as the original does.
        let copy = built.clone();
        for origin in (0..8).map(NodeId) {
            assert_eq!(copy.fanout_groups(origin), built.fanout_groups(origin));
        }
    }

    #[test]
    fn hosted_object_mapping_is_dense_ascending_and_complete() {
        let m = ShardMap::new(5, 5, 2);
        let db = 23u64; // deliberately not a multiple of shards
        for n in 0..5 {
            let node = NodeId(n);
            let count = m.hosted_objects(node, db);
            let expect: Vec<u64> = (0..db)
                .filter(|&o| m.hosts_object(node, ObjectId(o)))
                .collect();
            assert_eq!(count, expect.len() as u64, "node {n}");
            let got: Vec<u64> = (0..count).map(|i| m.nth_hosted(node, i).0).collect();
            assert_eq!(got, expect, "node {n}");
        }
    }

    #[test]
    fn fanout_groups_are_the_distinct_per_destination_filters() {
        for (shards, nodes, rf) in [(8, 8, 3), (5, 7, 2), (16, 4, 3), (3, 9, 1), (8, 8, 8)] {
            let m = ShardMap::new(shards, nodes, rf);
            for origin in (0..nodes).map(NodeId) {
                // What each group / each destination accepts of the
                // objects the origin hosts (the only ones it ships).
                let shipped: Vec<ObjectId> = (0..64)
                    .map(ObjectId)
                    .filter(|&o| m.hosts_object(origin, o))
                    .collect();
                let groups: Vec<Vec<bool>> = (0..m.fanout_groups(origin) as u32)
                    .map(|g| {
                        let accepts = |&o| m.fanout_group_hosts(origin, g, o);
                        shipped.iter().map(accepts).collect()
                    })
                    .collect();
                let mut reference: Vec<Vec<bool>> = Vec::new();
                for dest in (0..nodes).map(NodeId) {
                    if !m.cohosts(origin).contains(&dest) {
                        continue;
                    }
                    let filter = shipped.iter().map(|&o| m.hosts_object(dest, o)).collect();
                    if !reference.contains(&filter) {
                        reference.push(filter);
                    }
                }
                // Same filters, in ascending-destination discovery order.
                assert_eq!(groups, reference, "{shards}/{nodes}/{rf} origin {origin:?}");
            }
        }
    }

    #[test]
    fn layout_packs_hosted_ids_into_dense_slots() {
        let m = ShardMap::new(6, 4, 2);
        let db = 45u64; // deliberately not a multiple of shards
        for node in (0..4).map(NodeId) {
            let layout = m.layout(node).expect("partial layout");
            let mut next = 0usize;
            for id in (0..db).map(ObjectId) {
                match layout.slot(id) {
                    Some(slot) => {
                        assert!(m.hosts_object(node, id));
                        assert_eq!(slot, next, "slots ascend with hosted ids");
                        assert_eq!(layout.object_of(slot as u64), id);
                        next += 1;
                    }
                    None => assert!(!m.hosts_object(node, id)),
                }
            }
            assert_eq!(layout.slots(db), next as u64);
        }
    }

    #[test]
    fn full_replication_has_no_layout() {
        assert_eq!(ShardMap::new(6, 3, 0).layout(NodeId(1)), None);
    }
}
