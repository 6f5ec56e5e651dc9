//! The benchmark's contract: workloads, metrics, units, directions, bounds.
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`run.sh spec`), and a test keeps the two identical.

use crate::stats::Better;

/// Seconds one run measures; `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QTqf,
    QM1,
    IngestDurable,
    LiveMixed,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::QTqf,
    Workload::QM1,
    Workload::IngestDurable,
    Workload::LiveMixed,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::QTqf => "q-tqf",
            Workload::QM1 => "q-m1",
            Workload::IngestDurable => "ingest-durable",
            Workload::LiveMixed => "live-mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers it loads and which it leaves idle.
    pub fn why(self) -> &'static str {
        match self {
            Workload::QTqf => "Q via TqfEngine on an unindexed ledger (Ds1/60: 16,770 events, 65 keys): history-index scan, blockfile read+CRC and block decode do the work; EV-set decode, planner and commit path do none",
            Workload::QM1 => "the same Q, windows and data via AutoEngine over an M1 index (u = t_max/75): kvstore seeks, planner probes and EV-set decode dominate; block read/decode is a small share",
            Workload::IngestDurable => "closed-loop ME ingest of Ds1/2 (500K events) with sync_wal on both stores: validate, block assemble+hash, blockfile append, index and state writes and WAL fsync do the work; the read path does none",
            Workload::LiveMixed => "open-loop durable writer at 2000 events/s, closed-loop AutoEngine reader and indexer daemon (lag 16) on one ledger: an ingest gain that slows readers, or a cache that stalls commits, shows only here",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports every one of these; README.md says where each is
/// measured on each workload.
pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("q_per_s", "1/s", Better::Higher, 0.25),
    e2e("q_p50_ms", "ms", Better::Lower, 0.25),
    e2e("q_p90_ms", "ms", Better::Lower, 0.25),
    e2e("blocks_per_q", "count", Better::Lower, 0.10),
    e2e("ingest_events_per_s", "1/s", Better::Higher, 0.25),
    e2e("commit_p50_ms", "ms", Better::Lower, 0.25),
    e2e("commit_p90_ms", "ms", Better::Lower, 0.25),
    e2e("disk_bytes_per_event", "B", Better::Lower, 0.05),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Reported by `--trace 1`; a metric a workload does not exercise reads 0.
pub const PER_LAYER: [PerLayer; 63] = [
    // kvstore, timed alone on the ledger's own index store after the run.
    layer("kvstore.get_ns", "ns", Lower),
    layer("kvstore.seek_ns", "ns", Lower),
    layer("kvstore.sst_reads_per_get", "count", Lower),
    layer("kvstore.scan_ns_per_entry", "ns", Lower),
    // kvstore under the commit replay.
    layer("kvstore.write_batch_ns", "ns", Lower),
    layer("kvstore.wal_fsync_ns", "ns", Lower),
    layer("kvstore.wal_fsyncs_per_block", "count", Lower),
    layer("kvstore.flushes", "count", Lower),
    layer("kvstore.compactions", "count", Lower),
    layer("kvstore.compaction_bytes_written", "B", Lower),
    layer("kvstore.write_amp", "ratio", Lower),
    layer("index.history_scan_ns_per_key", "ns", Lower),
    layer("index.entries_per_q", "count", Lower),
    layer("index.block_location_ns_per_block", "ns", Lower),
    layer("index.write_ns_per_block", "ns", Lower),
    layer("blockfile.read_ns_per_block", "ns", Lower),
    layer("blockfile.bytes_read_per_q", "B", Lower),
    layer("blockfile.append_ns_per_block", "ns", Lower),
    layer("block.decode_ns_per_tx", "ns", Lower),
    layer("block.txs_decoded_per_q", "count", Lower),
    layer("block.encode_ns_per_block", "ns", Lower),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("statedb.range_ns_per_q", "ns", Lower),
    layer("statedb.apply_ns_per_block", "ns", Lower),
    layer("validate.ns_per_block", "ns", Lower),
    layer("shim.tx_build_ns_per_tx", "ns", Lower),
    layer("ledger.ghfk_calls_per_q", "count", Lower),
    layer("ledger.effects_ns_per_block", "ns", Lower),
    layer("evset.decode_ns_per_event", "ns", Lower),
    layer("planner.choose_ns_per_key", "ns", Lower),
    layer("planner.m1_pick_frac", "ratio", Higher),
    layer("join.stays_ns_per_event", "ns", Lower),
    layer("join.join_ns_per_q", "ns", Lower),
    layer("cursor.self_ns_per_event", "ns", Lower),
    layer("m1.index_build_s", "s", Lower),
    layer("daemon.epochs", "count", Lower),
    layer("daemon.index_pairs", "count", Lower),
    layer("daemon.index_block_share", "ratio", Lower),
    layer("daemon.index_lag_blocks_p90", "count", Lower),
    layer("loadgen.late_p99_ms", "ms", Lower),
    layer("q.tail_ms", "ms", Lower),
    layer("q.tail_percentile", "%", Higher),
    layer("q.samples", "count", Higher),
    layer("commit.samples", "count", Higher),
    // Share of the traced query wall each layer's self time takes.
    layer("q_share.statedb", "ratio", Lower),
    layer("q_share.index", "ratio", Lower),
    layer("q_share.blockfile", "ratio", Lower),
    layer("q_share.block", "ratio", Lower),
    layer("q_share.evset", "ratio", Lower),
    layer("q_share.planner", "ratio", Lower),
    layer("q_share.cursor", "ratio", Lower),
    layer("q_share.join", "ratio", Lower),
    // Share of the replayed durable commit wall each layer takes.
    layer("commit_share.shim", "ratio", Lower),
    layer("commit_share.orderer", "ratio", Lower),
    layer("commit_share.validate", "ratio", Lower),
    layer("commit_share.block", "ratio", Lower),
    layer("commit_share.blockfile", "ratio", Lower),
    layer("commit_share.ledger", "ratio", Lower),
    layer("commit_share.index", "ratio", Lower),
    layer("commit_share.statedb", "ratio", Lower),
    layer("trace.count_mismatches", "count", Lower),
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.unattributed_frac", "ratio", Lower),
];

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |rows: Vec<String>| rows.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name()),
                json_str(w.why())
            )
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str()),
                m.bound
            )
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(m.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        let first = name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = HashSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name()) && seen.insert(w.name()), "{}", w.name());
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound), "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().len() < 64 << 10);
    }

    #[test]
    fn checked_in_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: benchmark/run.sh spec > BENCHMARK.json"
        );
    }
}
