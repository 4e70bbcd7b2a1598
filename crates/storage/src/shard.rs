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
//! to the unsharded code path (the established `--jobs`/`--batch`
//! invariance pattern).

use crate::object::{NodeId, ObjectId};

/// Deterministic shard layout: `shard_of(o) = o mod shards`, and shard
/// `s` is replicated at nodes `{(s + i) mod nodes : i < rf}` (sorted).
/// Shard `s`'s *owner* — the coordinator for cross-shard work — is
/// `s mod nodes`, always a member of its replica set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
    nodes: u32,
    rf: u32,
    /// Per-shard replica sets, each sorted ascending.
    replica_sets: Vec<Vec<NodeId>>,
    /// Per-node sorted list of hosted shards.
    hosted: Vec<Vec<u32>>,
    /// Per-node shard membership bitset (`shards` bits each), for O(1)
    /// `hosts` and O(words) `shares_any`.
    bits: Vec<Vec<u64>>,
    /// `rank[node * shards + s]` = index of `s` in `hosted[node]`, or
    /// `u32::MAX` when the node does not host `s`.
    rank: Vec<u32>,
    /// Fan-out signature groups (see [`ShardMap::fanout_group`]):
    /// `fanout_group[origin * nodes + dest]` = the dest's group id
    /// within `origin`'s fan-out, or `u32::MAX` when the pair shares
    /// no shard (or `dest == origin`).
    fanout_group: Vec<u32>,
    /// Per-origin offsets into `fanout_sigs`, in *groups* (length
    /// `nodes + 1`): origin `o` owns group signatures
    /// `fanout_base[o]..fanout_base[o + 1]`.
    fanout_base: Vec<u32>,
    /// Group signature bitsets, `words_per_sig` words each: the shard
    /// intersection every member of the group shares with the origin.
    fanout_sigs: Vec<u64>,
    /// Master fan-out groups (see [`ShardMap::host_group`]):
    /// `host_group[dest]` = group id keyed by the dest's *entire*
    /// hosted set — the signature when the sender hosts every shard —
    /// or `u32::MAX` for a node hosting nothing.
    host_group: Vec<u32>,
    /// Signature bitsets for the master fan-out groups.
    host_sigs: Vec<u64>,
    words_per_sig: usize,
    /// Strength-reduced divider for `shards` — `shard_of` runs on
    /// every filter test and sampler draw.
    shard_div: crate::div::FastDivMod,
    /// Per-node divider by `hosted[n].len()` (1 for nodes hosting
    /// nothing, whose mapping is never consulted), for `nth_hosted`.
    hosted_div: Vec<crate::div::FastDivMod>,
}

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
        let mut rank = vec![u32::MAX; nodes as usize * shards as usize];
        for (n, shards_of_n) in hosted.iter().enumerate() {
            for (r, &s) in shards_of_n.iter().enumerate() {
                rank[n * shards as usize + s as usize] = r as u32;
            }
        }
        // Precompute the fan-out signature groups. Membership never
        // changes during a run, so this happens exactly once; engines
        // then filter each propagated record once per *distinct
        // signature* instead of once per destination.
        let mut fanout_group = vec![u32::MAX; nodes as usize * nodes as usize];
        let mut fanout_base = Vec::with_capacity(nodes as usize + 1);
        let mut fanout_sigs = Vec::new();
        let mut sig_scratch = vec![0u64; words];
        #[allow(
            clippy::disallowed_types,
            reason = "construction-time dedup keyed by a whole signature; never on an engine path"
        )]
        let mut seen: std::collections::HashMap<Vec<u64>, u32> = std::collections::HashMap::new();
        fanout_base.push(0);
        for origin in 0..nodes as usize {
            seen.clear();
            let base_groups = fanout_sigs.len() / words;
            for dest in 0..nodes as usize {
                if dest == origin {
                    continue;
                }
                let mut any = 0u64;
                for (w, (&x, &y)) in bits[origin].iter().zip(&bits[dest]).enumerate() {
                    sig_scratch[w] = x & y;
                    any |= x & y;
                }
                if any == 0 {
                    continue;
                }
                // Group ids are assigned in ascending-destination
                // discovery order, so they are deterministic.
                let next = (fanout_sigs.len() / words - base_groups) as u32;
                let id = *seen.entry(sig_scratch.clone()).or_insert_with(|| {
                    fanout_sigs.extend_from_slice(&sig_scratch);
                    next
                });
                fanout_group[origin * nodes as usize + dest] = id;
            }
            fanout_base.push((fanout_sigs.len() / words) as u32);
        }
        // Master fan-out: the sender hosts everything, so a dest's
        // signature is its entire hosted set.
        let mut host_group = vec![u32::MAX; nodes as usize];
        let mut host_sigs = Vec::new();
        seen.clear();
        for dest in 0..nodes as usize {
            if bits[dest].iter().all(|&w| w == 0) {
                continue;
            }
            let next = (host_sigs.len() / words) as u32;
            host_group[dest] = *seen.entry(bits[dest].clone()).or_insert_with(|| {
                host_sigs.extend_from_slice(&bits[dest]);
                next
            });
        }
        let shard_div = crate::div::FastDivMod::new(u64::from(shards));
        let hosted_div = hosted
            .iter()
            .map(|h| crate::div::FastDivMod::new(h.len().max(1) as u64))
            .collect();
        ShardMap {
            shards,
            nodes,
            rf,
            replica_sets,
            hosted,
            bits,
            rank,
            fanout_group,
            fanout_base,
            fanout_sigs,
            host_group,
            host_sigs,
            words_per_sig: words,
            shard_div,
            hosted_div,
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
        &self.hosted[node.0 as usize]
    }

    /// Whether two nodes co-host at least one shard (i.e. `a` ever has
    /// replica traffic for `b`). Propagation skips pairs that share
    /// nothing.
    pub fn shares_any(&self, a: NodeId, b: NodeId) -> bool {
        self.bits[a.0 as usize]
            .iter()
            .zip(&self.bits[b.0 as usize])
            .any(|(x, y)| x & y != 0)
    }

    /// Fan-out signature group of `dest` within `origin`'s
    /// propagation, or `None` when the pair shares no shard (including
    /// `dest == origin`) and the channel carries no replica traffic.
    ///
    /// Two destinations are in the same group exactly when they host
    /// the *same intersection* of the origin's shards, so a record
    /// filtered for one member is the record for every member. Group
    /// ids are dense (`0..fanout_groups(origin)`) and assigned in
    /// ascending destination order — deterministic, like everything
    /// else in the layout.
    #[inline]
    pub fn fanout_group(&self, origin: NodeId, dest: NodeId) -> Option<u32> {
        let g = self.fanout_group[origin.0 as usize * self.nodes as usize + dest.0 as usize];
        (g != u32::MAX).then_some(g)
    }

    /// Number of distinct fan-out signature groups for `origin` — the
    /// number of filter passes a propagation actually pays, versus
    /// `nodes - 1` destinations.
    #[inline]
    pub fn fanout_groups(&self, origin: NodeId) -> usize {
        (self.fanout_base[origin.0 as usize + 1] - self.fanout_base[origin.0 as usize]) as usize
    }

    /// Whether `origin`'s fan-out group `group` hosts `object` — the
    /// grouped equivalent of [`ShardMap::hosts_object`] for every
    /// destination in the group, *provided the origin hosts the
    /// object* (true for everything in an origin's replication log:
    /// cross-shard writes to foreign shards are forwarded to their
    /// owners, never logged locally).
    #[inline]
    pub fn fanout_group_hosts(&self, origin: NodeId, group: u32, object: ObjectId) -> bool {
        let s = self.shard_of(object);
        let base = (self.fanout_base[origin.0 as usize] + group) as usize * self.words_per_sig;
        self.fanout_sigs[base + (s / 64) as usize] & (1u64 << (s % 64)) != 0
    }

    /// Master fan-out signature group of `dest`: the grouping when the
    /// sender hosts *every* shard (the two-tier base), so a dest's
    /// signature is its entire hosted set. `None` for a node hosting
    /// nothing.
    #[inline]
    pub fn host_group(&self, dest: NodeId) -> Option<u32> {
        let g = self.host_group[dest.0 as usize];
        (g != u32::MAX).then_some(g)
    }

    /// Number of distinct master fan-out groups.
    #[inline]
    pub fn host_groups(&self) -> usize {
        self.host_sigs.len() / self.words_per_sig
    }

    /// Whether every destination in master fan-out group `group` hosts
    /// `object` — the grouped equivalent of [`ShardMap::hosts_object`].
    #[inline]
    pub fn host_group_hosts(&self, group: u32, object: ObjectId) -> bool {
        let s = self.shard_of(object);
        let base = group as usize * self.words_per_sig;
        self.host_sigs[base + (s / 64) as usize] & (1u64 << (s % 64)) != 0
    }

    /// Index of `shard` within `hosted_shards(node)`, if hosted.
    #[inline]
    pub fn rank(&self, node: NodeId, shard: u32) -> Option<u32> {
        let r = self.rank[node.0 as usize * self.shards as usize + shard as usize];
        (r != u32::MAX).then_some(r)
    }

    /// How many of the `db_size` objects `node` hosts.
    pub fn hosted_objects(&self, node: NodeId, db_size: u64) -> u64 {
        let (full_rows, tail) = self.shard_div.div_rem(db_size);
        let h = &self.hosted[node.0 as usize];
        let tail_hosted = h.iter().take_while(|&&s| u64::from(s) < tail).count() as u64;
        full_rows * h.len() as u64 + tail_hosted
    }

    /// The `i`-th (ascending by id) object hosted at `node`, for
    /// `i < hosted_objects(node, db_size)` — the dense-index→object
    /// mapping workload samplers draw through so access skew applies to
    /// the node's hosted subset.
    #[inline]
    pub fn nth_hosted(&self, node: NodeId, i: u64) -> ObjectId {
        let h = &self.hosted[node.0 as usize];
        let (row, r) = self.hosted_div[node.0 as usize].div_rem(i);
        ObjectId(row * u64::from(self.shards) + u64::from(h[r as usize]))
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

    #[test]
    fn shares_any_detects_cohosting() {
        let m = ShardMap::new(8, 8, 2);
        // Shard s lives at {s, s+1}: adjacent nodes share, distant don't.
        assert!(m.shares_any(NodeId(0), NodeId(1)));
        assert!(!m.shares_any(NodeId(0), NodeId(4)));
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
    fn fanout_groups_agree_with_per_destination_filter() {
        for (shards, nodes, rf) in [(8, 8, 3), (5, 7, 2), (16, 4, 3), (3, 9, 1), (8, 8, 8)] {
            let m = ShardMap::new(shards, nodes, rf);
            for o in 0..nodes {
                let origin = NodeId(o);
                let mut max_group = None;
                for d in 0..nodes {
                    let dest = NodeId(d);
                    let group = m.fanout_group(origin, dest);
                    assert_eq!(
                        group.is_some(),
                        d != o && m.shares_any(origin, dest),
                        "{shards}/{nodes}/{rf} origin {o} dest {d}"
                    );
                    let Some(g) = group else { continue };
                    max_group = max_group.max(Some(g));
                    // The group signature must answer exactly like the
                    // per-destination filter for every origin-hosted
                    // object (the only objects an origin ever ships).
                    for obj in (0..64).map(ObjectId) {
                        if !m.hosts_object(origin, obj) {
                            continue;
                        }
                        assert_eq!(
                            m.fanout_group_hosts(origin, g, obj),
                            m.hosts_object(dest, obj),
                            "{shards}/{nodes}/{rf} origin {o} dest {d} obj {obj:?}"
                        );
                    }
                }
                // Ids are dense: 0..fanout_groups(origin).
                let groups = m.fanout_groups(origin);
                assert_eq!(
                    groups,
                    max_group.map_or(0, |g| g as usize + 1),
                    "origin {o}"
                );
            }
        }
    }

    #[test]
    fn host_groups_agree_with_hosted_sets() {
        for (shards, nodes, rf) in [(8, 8, 3), (5, 7, 2), (8, 20, 2)] {
            let m = ShardMap::new(shards, nodes, rf);
            for d in 0..nodes {
                let dest = NodeId(d);
                match m.host_group(dest) {
                    None => assert!(m.hosted_shards(dest).is_empty(), "node {d}"),
                    Some(g) => {
                        assert!((g as usize) < m.host_groups());
                        for obj in (0..64).map(ObjectId) {
                            assert_eq!(
                                m.host_group_hosts(g, obj),
                                m.hosts_object(dest, obj),
                                "{shards}/{nodes}/{rf} dest {d} obj {obj:?}"
                            );
                        }
                    }
                }
            }
            // Nodes with identical hosted sets share a group; distinct
            // sets get distinct groups.
            for a in 0..nodes {
                for b in 0..nodes {
                    let (ga, gb) = (m.host_group(NodeId(a)), m.host_group(NodeId(b)));
                    if ga.is_some() || gb.is_some() {
                        assert_eq!(
                            ga == gb,
                            m.hosted_shards(NodeId(a)) == m.hosted_shards(NodeId(b)),
                            "nodes {a}/{b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rank_indexes_hosted_shards() {
        let m = ShardMap::new(6, 4, 2);
        for n in 0..4 {
            let node = NodeId(n);
            for (r, &s) in m.hosted_shards(node).iter().enumerate() {
                assert_eq!(m.rank(node, s), Some(r as u32));
            }
            for s in 0..6 {
                if !m.hosts(node, s) {
                    assert_eq!(m.rank(node, s), None);
                }
            }
        }
    }
}
