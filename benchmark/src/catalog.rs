//! Every metric the benchmark reports, by name: unit, direction,
//! bound (end to end) or layer and the end-to-end metric it should
//! move (per layer). `BENCHMARK.json` and the README glossary repeat
//! this table; a test holds `BENCHMARK.json` to it.

/// A metric a user of the simulator sees.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of "better".
    pub lower_is_better: bool,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

/// The five end-to-end metrics (README.md defines each). `ok_frac` is
/// `1 − fail_frac`: the driver divides by the median, so a metric that
/// is 0 when all is well cannot be gated; `fail_frac` itself is printed
/// beside it.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.10,
    },
    EndToEnd {
        name: "txn_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "ok_frac",
        unit: "ratio",
        lower_is_better: false,
        bound: 0.001,
    },
];

/// A metric of one layer.
pub struct PerLayer {
    /// Metric name; the prefix is the layer.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of "better" (`lower` for costs and exact counts).
    pub lower_is_better: bool,
    /// End-to-end metric it should move, and on which workload.
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer (crate) this metric belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().expect("split yields one item")
    }
}

const fn m(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        lower_is_better,
        moves,
    }
}

const ENGINES: &str = "wall_s, txn_per_s on the three engine workloads; not setup_s";
const DENSE: &str = "wall_s on dense-full (contention loop is lock-bound)";
const SHARDED: &str = "wall_s, txn_per_s on sharded-scaleout; no change on dense-full";
const SETUP: &str = "setup_s, peak_rss_mb on sharded-scaleout and sweep-quick-all; not wall_s";
const CHAOS: &str = "wall_s on chaos-oracle; not dense-full or sharded-scaleout";
const EVERY: &str = "wall_s on every workload, at most the 5 % the overhead guard allows";
const LOOP: &str = "wall_s: each loop is a fifth to a half of dense-full";
const SWEEP: &str = "wall_s on sweep-quick-all only";
const EXACT: &str = "nothing: exact count, must repeat between commits";
const INFO: &str = "nothing gated: informational trajectory";

/// The per-layer metrics, grouped by layer.
pub const PER_LAYER: &[PerLayer] = &[
    // sim
    m("sim.queue.events", "count", true, EXACT),
    m("sim.queue.ns_per_event", "ns", true, ENGINES),
    m("sim.queue.est_share", "ratio", true, ENGINES),
    m("sim.rng.sample_distinct_ns", "ns", true, ENGINES),
    m("sim.rng.est_share", "ratio", true, ENGINES),
    // storage
    m("storage.lock.waits", "count", true, EXACT),
    m("storage.lock.deadlocks", "count", true, EXACT),
    m("storage.lock.cycle_checks", "count", true, EXACT),
    m("storage.lock.uncontended_ns", "ns", true, DENSE),
    m("storage.lock.contended_ns", "ns", true, DENSE),
    m("storage.lock.cycle_check_ns", "ns", true, DENSE),
    m("storage.lock.est_share", "ratio", true, DENSE),
    m("storage.store.apply_ns", "ns", true, ENGINES),
    m("storage.store.stale_ratio", "ratio", true, EXACT),
    m("storage.store.new_s", "s", true, SETUP),
    m("storage.wal.append_truncate_ns", "ns", true, ENGINES),
    m("storage.shard.filter_ns", "ns", true, SHARDED),
    m("storage.shard.groups_per_origin", "count", true, SHARDED),
    m("storage.shard.map_new_s", "s", true, SETUP),
    // net
    m("net.messages", "count", true, EXACT),
    m("net.msgs_per_commit", "count", true, SHARDED),
    m("net.dropped", "count", true, EXACT),
    m("net.duplicated", "count", true, EXACT),
    m("net.delivered_ratio", "ratio", false, EXACT),
    m("net.send_quiet_ns", "ns", true, ENGINES),
    m("net.send_faulty_ns", "ns", true, CHAOS),
    m("net.reconnect_drain_ns", "ns", true, CHAOS),
    m("net.est_share", "ratio", true, ENGINES),
    // core
    m("core.contention.run_s", "s", true, LOOP),
    m("core.lazy_group.run_s", "s", true, LOOP),
    m("core.two_tier.run_s", "s", true, LOOP),
    m("core.contention.ns_per_event", "ns", true, ENGINES),
    m("core.lazy_group.ns_per_event", "ns", true, ENGINES),
    m("core.two_tier.ns_per_event", "ns", true, ENGINES),
    m("core.contention.us_per_commit", "us", true, ENGINES),
    m("core.lazy_group.us_per_commit", "us", true, ENGINES),
    m("core.two_tier.us_per_commit", "us", true, ENGINES),
    m("core.new_s", "s", true, SETUP),
    m("core.run_floor_s", "s", true, ENGINES),
    m("core.commit_ratio", "ratio", false, EXACT),
    m("core.recon_per_commit", "ratio", true, EXACT),
    m("core.proto.2pc_over_owner", "ratio", true, SHARDED),
    m("core.contention.step_share", "ratio", true, LOOP),
    m("core.lazy_group.deliver_share", "ratio", true, LOOP),
    m("core.lazy_group.replica_step_share", "ratio", true, LOOP),
    m("core.lazy_group.root_step_share", "ratio", true, LOOP),
    m("core.two_tier.base_step_share", "ratio", true, LOOP),
    m("core.two_tier.deliver_share", "ratio", true, LOOP),
    // check
    m("check.records", "count", true, EXACT),
    m("check.record_overhead_ratio", "ratio", true, CHAOS),
    m("check.oracle_s", "s", true, CHAOS),
    m("check.oracle_us_per_record", "us", true, CHAOS),
    m("check.inconclusive_runs", "count", true, EXACT),
    m("check.violations", "count", true, EXACT),
    // telemetry
    m("telemetry.metrics_overhead_ratio", "ratio", true, EVERY),
    m("telemetry.null_tracer_overhead_ratio", "ratio", true, EVERY),
    m("telemetry.profiler_overhead_ratio", "ratio", true, INFO),
    m("telemetry.hist_record_ns", "ns", true, EVERY),
    m("telemetry.merge_export_s", "s", true, SWEEP),
    // harness
    m("harness.exp.e2.s", "s", true, SWEEP),
    m("harness.exp.e6.s", "s", true, SWEEP),
    m("harness.exp.e6b.s", "s", true, SWEEP),
    m("harness.exp.e7.s", "s", true, SWEEP),
    m("harness.exp.e10.s", "s", true, SWEEP),
    m("harness.exp.e12b.s", "s", true, SWEEP),
    m("harness.exp.ablate-parallel.s", "s", true, SWEEP),
    m("harness.exp.scaleout.s", "s", true, SWEEP),
    m("harness.exp.check.s", "s", true, SWEEP),
    m("harness.exp.rest_s", "s", true, SWEEP),
    m("harness.table.render_s", "s", true, SWEEP),
    m("harness.par.speedup", "ratio", false, INFO),
    m("harness.par.efficiency", "ratio", false, INFO),
    // cluster
    m("cluster.lazy.exec_per_s", "1/s", false, INFO),
    m("cluster.two_tier.sync_per_s", "1/s", false, INFO),
];

/// Experiments with a `harness.exp.<name>.s` metric of their own; the
/// others are summed into `harness.exp.rest_s`.
pub fn named_experiment(name: &str) -> bool {
    PER_LAYER.iter().any(|m| {
        m.name
            .strip_prefix("harness.exp.")
            .and_then(|r| r.strip_suffix(".s"))
            == Some(name)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Content;

    fn benchmark_json() -> Content {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn get<'a>(c: &'a Content, key: &str) -> &'a Content {
        crate::get(c, key).unwrap_or_else(|| panic!("missing `{key}`"))
    }

    fn items(c: &Content) -> &[Content] {
        let Content::Seq(items) = c else {
            panic!("expected an array")
        };
        items
    }

    fn text(c: &Content) -> &str {
        let Content::Str(s) = c else {
            panic!("expected a string, got {c:?}")
        };
        s
    }

    fn direction(lower: bool) -> &'static str {
        if lower {
            "lower"
        } else {
            "higher"
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let len = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), len);
        assert!(PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound <= 0.25));
    }

    #[test]
    fn every_layer_is_named() {
        let layers = [
            "sim",
            "storage",
            "net",
            "core",
            "check",
            "telemetry",
            "harness",
            "cluster",
        ];
        for m in PER_LAYER {
            assert!(layers.contains(&m.layer()), "{}", m.name);
        }
        for l in layers {
            assert!(PER_LAYER.iter().any(|m| m.layer() == l), "{l}");
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = benchmark_json();
        let e2e = items(get(&doc, "end_to_end"));
        assert_eq!(e2e.len(), END_TO_END.len());
        for (have, want) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(text(get(have, "name")), want.name);
            assert_eq!(text(get(have, "unit")), want.unit, "{}", want.name);
            assert_eq!(
                text(get(have, "better")),
                direction(want.lower_is_better),
                "{}",
                want.name
            );
            assert_eq!(
                *get(have, "bound"),
                Content::F64(want.bound),
                "{}",
                want.name
            );
        }
        let layers = items(get(&doc, "per_layer"));
        assert_eq!(layers.len(), PER_LAYER.len());
        for (have, want) in layers.iter().zip(PER_LAYER) {
            assert_eq!(text(get(have, "name")), want.name);
            assert_eq!(text(get(have, "unit")), want.unit, "{}", want.name);
            assert_eq!(
                text(get(have, "better")),
                direction(want.lower_is_better),
                "{}",
                want.name
            );
        }
        let workloads: Vec<&str> = items(get(&doc, "workloads"))
            .iter()
            .map(|w| text(get(w, "name")))
            .collect();
        assert_eq!(workloads, crate::workloads::NAMES);
    }
}
