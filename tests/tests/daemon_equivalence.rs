//! Online-indexer equivalence suite: a ledger whose M1 index is
//! maintained by the tip-chasing daemon must answer every temporal query
//! bit-identically to (a) the raw TQF scan on the same chain and (b) a
//! batch-rebuilt M1 index over the same events.
//!
//! Covered invariants (ISSUE 9, satellite 4):
//!
//! 1. Lag grid — daemons configured at lag 0, 1, and 16 all converge to
//!    the same answers as the batch index, across boundary-heavy windows.
//! 2. Mid-batch watermarks — queries issued *between* ingest chunks
//!    (horizon strictly inside the data) match TQF on the same chain.
//! 3. Hybrid cursor at the horizon boundary — windows ending exactly at
//!    `indexed_to`, one past it, and straddling it, with an un-indexed
//!    tail on the chain; the residual tail scan is O(tail), not O(n).
//! 4. Crash/resume — dropping a daemon (flushed or mid-buffer) and
//!    adopting the chain with a fresh one re-reads only the blocks past
//!    the persisted watermark and yields identical answers.
//! 5. Adaptive θ — an `Adaptive` daemon's answers are bit-identical to a
//!    fixed-θ daemon's and to TQF (θ only changes cost, never results).
//! 6. (property) Random windows agree across TQF / M1 / auto on a
//!    daemon-maintained chain.

use std::sync::Arc;

use fabric_ledger::{Ledger, LedgerConfig};
use fabric_workload::dataset::{generate_scaled, DatasetId};
use fabric_workload::event::Event;
use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
use fabric_workload::EntityId;
use proptest::prelude::*;
use proptest::test_runner::TestRunner;
use temporal_core::interval::Interval;
use temporal_core::m1::{M1Engine, M1Indexer};
use temporal_core::partition::FixedLength;
use temporal_core::tqf::TqfEngine;
use temporal_core::{
    index_freshness, AutoEngine, DaemonConfig, IndexerDaemon, TemporalEngine, ThetaPolicy,
};

struct TempDir(std::path::PathBuf);
impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!(
            "daemon-equiv-{}-{tag}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }
}
impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Events in logical-time order. The daemon drops events at or below an
/// already-committed horizon as late (out-of-order ingest is documented
/// as uncorrectable), so chunked-ingest tests feed the chain in time
/// order — exactly what a live Fabric peer sees.
fn time_sorted(mut events: Vec<Event>) -> Vec<Event> {
    events.sort_by_key(|e| e.time);
    events
}

/// Split `events` into chunks of roughly `chunk` events, never splitting
/// between two events that share a timestamp (a mid-timestamp epoch cut
/// would make the second half late on resume).
fn timestamp_chunks(events: &[Event], chunk: usize) -> Vec<&[Event]> {
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < events.len() {
        let mut end = (start + chunk).min(events.len());
        while end < events.len() && events[end].time == events[end - 1].time {
            end += 1;
        }
        out.push(&events[start..end]);
        start = end;
    }
    out
}

/// Boundary-heavy query windows: engine_equivalence's five shapes plus
/// windows pinned to the daemon horizon (`indexed_to`) — ending exactly
/// on it, one past it, starting on it, and straddling it by one unit.
fn windows(t_max: u64, horizon: u64) -> Vec<Interval> {
    let mut w = vec![
        Interval::new(0, t_max / 10),
        Interval::new(t_max / 3, t_max / 2),
        Interval::new(t_max - t_max / 10, t_max),
        Interval::new(0, t_max),
        Interval::new(t_max / 7 + 1, t_max / 7 + 3),
    ];
    if horizon > 1 {
        w.push(Interval::new(0, horizon));
        w.push(Interval::new(0, horizon + 1));
        w.push(Interval::new(horizon - 1, horizon + 1));
        w.push(Interval::new(horizon, t_max.max(horizon + 1)));
    }
    w
}

fn open(dir: &std::path::Path, name: &str) -> Arc<Ledger> {
    Arc::new(Ledger::open(dir.join(name), LedgerConfig::default()).unwrap())
}

/// Ingest `events` in timestamp-aligned chunks, stepping `daemon` after
/// each chunk (catch_up consumes straight off the chain, so the test is
/// deterministic — no spawn, no sleeps). Returns per-chunk horizons.
fn ingest_chunked(
    ledger: &Ledger,
    daemon: &mut IndexerDaemon,
    events: &[Event],
    chunk: usize,
    mode: IngestMode,
) -> Vec<u64> {
    let mut horizons = Vec::new();
    for part in timestamp_chunks(events, chunk) {
        ingest(ledger, part, mode, &IdentityEncoder).unwrap();
        daemon.catch_up().unwrap();
        horizons.push(daemon.report().indexed_to);
    }
    horizons
}

fn assert_same_answers(
    tag: &str,
    daemon_ledger: &Ledger,
    batch_ledger: &Ledger,
    keys: &[EntityId],
    taus: &[Interval],
) {
    let m1 = M1Engine::default();
    let auto = AutoEngine::default();
    for &key in keys {
        for &tau in taus {
            let tqf = TqfEngine.events_for_key(daemon_ledger, key, tau).unwrap();
            let live = m1.events_for_key(daemon_ledger, key, tau).unwrap();
            let planned = auto.events_for_key(daemon_ledger, key, tau).unwrap();
            let batch = m1.events_for_key(batch_ledger, key, tau).unwrap();
            assert_eq!(live, tqf, "[{tag}] daemon-M1 vs TQF for {key} over {tau}");
            assert_eq!(
                live, batch,
                "[{tag}] daemon-M1 vs batch-M1 for {key} over {tau}"
            );
            assert_eq!(planned, tqf, "[{tag}] auto vs TQF for {key} over {tau}");
        }
    }
}

#[test]
fn lag_grid_matches_batch_rebuilt_m1_and_tqf() {
    let dir = TempDir::new("lag-grid");
    let workload = generate_scaled(DatasetId::Ds3, 40);
    let events = time_sorted(workload.events.clone());
    let t_max = workload.params.t_max;
    let u = t_max / 25;
    let keys = workload.keys();

    // Reference: same (sorted) event stream, batch-indexed in one epoch.
    let batch = open(&dir.0, "batch");
    ingest(&batch, &events, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
    M1Indexer::fixed(&FixedLength { u })
        .run_epoch(&batch, &keys, Interval::new(0, t_max))
        .unwrap();

    let spot_key = keys[0];
    for lag in [0u64, 1, 16] {
        let ledger = open(&dir.0, &format!("lag{lag}"));
        let cfg = DaemonConfig {
            lag_blocks: lag,
            policy: ThetaPolicy::Fixed { u },
        };
        let mut daemon = IndexerDaemon::new(ledger.clone(), cfg).unwrap();
        for part in timestamp_chunks(&events, 11) {
            ingest(&ledger, part, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
            daemon.catch_up().unwrap();
            if daemon.report().epochs == 0 {
                continue; // no index on chain yet (large-lag first chunk)
            }
            // Mid-batch watermark: the horizon sits strictly inside the
            // data; the hybrid path must already agree with TQF.
            let so_far = Interval::new(0, t_max);
            let tqf = TqfEngine.events_for_key(&ledger, spot_key, so_far).unwrap();
            let live = M1Engine::default()
                .events_for_key(&ledger, spot_key, so_far)
                .unwrap();
            assert_eq!(live, tqf, "mid-batch watermark diverged at lag {lag}");
        }
        daemon.flush().unwrap();
        let report = daemon.report();
        assert!(report.epochs > 0, "lag {lag}: daemon never cut an epoch");
        assert_eq!(daemon.lag_blocks(), 0, "lag {lag}: flush left lag");
        drop(daemon);

        let fresh = index_freshness(&ledger).unwrap().expect("freshness");
        assert!(fresh.daemon_seen, "lag {lag}: watermark not persisted");
        assert_eq!(fresh.lag_blocks, 0, "lag {lag}: stale horizon after flush");

        let taus = windows(t_max, report.indexed_to);
        assert_same_answers(&format!("lag{lag}"), &ledger, &batch, &keys, &taus);
    }
}

#[test]
fn hybrid_cursor_at_horizon_boundary_reads_bounded_tail() {
    let dir = TempDir::new("horizon-boundary");
    let workload = generate_scaled(DatasetId::Ds3, 40);
    let events = time_sorted(workload.events.clone());
    let t_max = workload.params.t_max;
    let u = t_max / 25;
    let keys = workload.keys();
    let split = events.len() * 2 / 3;
    let chunks = timestamp_chunks(&events, split);
    let (head, tail) = (chunks[0], &events[chunks[0].len()..]);

    let ledger = open(&dir.0, "chain");
    let cfg = DaemonConfig {
        lag_blocks: 0,
        policy: ThetaPolicy::Fixed { u },
    };
    let mut daemon = IndexerDaemon::new(ledger.clone(), cfg).unwrap();
    ingest(&ledger, head, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
    daemon.catch_up().unwrap();
    daemon.flush().unwrap();
    let horizon = daemon.report().indexed_to;
    assert!(horizon > 0 && horizon < t_max, "split must leave a tail");

    // Commit the tail WITHOUT stepping the daemon: an un-indexed suffix
    // of L data blocks sits past the persisted horizon.
    let height_at_horizon = ledger.height();
    ingest(&ledger, tail, IngestMode::SingleEvent, &IdentityEncoder).unwrap();
    let tail_blocks = ledger.height() - height_at_horizon;
    assert!(tail_blocks > 0);

    // Boundary windows across the horizon agree with TQF on both the
    // hybrid M1 path and the planner.
    let m1 = M1Engine::default();
    let auto = AutoEngine::default();
    for &key in &keys {
        for tau in windows(t_max, horizon) {
            let tqf = TqfEngine.events_for_key(&ledger, key, tau).unwrap();
            let hybrid = m1.events_for_key(&ledger, key, tau).unwrap();
            let planned = auto.events_for_key(&ledger, key, tau).unwrap();
            assert_eq!(hybrid, tqf, "hybrid M1 vs TQF for {key} over {tau}");
            assert_eq!(planned, tqf, "auto vs TQF for {key} over {tau}");
        }
    }

    // Steady-state cost bound: with the index trailing by L data blocks,
    // a full-history query pays at most the lag-0 cost plus O(L) — the
    // residual cursor reads the tail, never the whole chain again.
    let everything = Interval::new(0, t_max);
    let key = keys[0];
    let before = ledger.stats();
    m1.events_for_key(&ledger, key, everything).unwrap();
    let lagged_cost = ledger.stats().delta(&before).blocks_deserialized;

    daemon.catch_up().unwrap();
    daemon.flush().unwrap();
    drop(daemon);
    let before = ledger.stats();
    m1.events_for_key(&ledger, key, everything).unwrap();
    let flushed_cost = ledger.stats().delta(&before).blocks_deserialized;
    assert!(
        lagged_cost <= flushed_cost + tail_blocks + 2,
        "tail scan not O(L): lagged {lagged_cost} vs flushed {flushed_cost} + L {tail_blocks}"
    );
}

#[test]
fn crash_resume_is_bit_identical_and_rescans_only_the_tail() {
    let dir = TempDir::new("crash-resume");
    let workload = generate_scaled(DatasetId::Ds3, 40);
    let events = time_sorted(workload.events.clone());
    let t_max = workload.params.t_max;
    let u = t_max / 25;
    let keys = workload.keys();
    let mid = {
        let chunks = timestamp_chunks(&events, events.len() / 2);
        chunks[0].len()
    };

    let batch = open(&dir.0, "batch");
    ingest(&batch, &events, IngestMode::MultiEvent, &IdentityEncoder).unwrap();
    M1Indexer::fixed(&FixedLength { u })
        .run_epoch(&batch, &keys, Interval::new(0, t_max))
        .unwrap();

    // Crash A: flushed — the watermark on chain covers everything A saw.
    // Crash B: mid-buffer — consumed-but-unindexed events die with the
    // process; the resume watermark must force their blocks to replay.
    for (name, flush_before_crash) in [("flushed", true), ("midbuffer", false)] {
        let ledger = open(&dir.0, name);
        let cfg = DaemonConfig {
            lag_blocks: 4,
            policy: ThetaPolicy::Fixed { u },
        };
        let mut first = IndexerDaemon::new(ledger.clone(), cfg).unwrap();
        ingest(
            &ledger,
            &events[..mid],
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .unwrap();
        first.catch_up().unwrap();
        if flush_before_crash {
            first.flush().unwrap();
        }
        let watermark = index_freshness(&ledger)
            .unwrap()
            .map(|f| f.daemon_seen)
            .unwrap_or(false);
        drop(first); // crash: in-memory buffer and clock are gone

        let height_at_crash = ledger.height();
        ingest(
            &ledger,
            &events[mid..],
            IngestMode::MultiEvent,
            &IdentityEncoder,
        )
        .unwrap();

        let mut resumed = IndexerDaemon::new(ledger.clone(), cfg).unwrap();
        resumed.catch_up().unwrap();
        resumed.flush().unwrap();
        let report = resumed.report();
        drop(resumed);

        // Bounded re-scan: the resumed daemon starts at the persisted
        // watermark, never block 0. Everything it consumed fits in the
        // replay window (crash-height tail) plus the post-crash blocks
        // and its own epoch blocks — far below a full-chain scan.
        if watermark {
            let post_crash = ledger.height() - height_at_crash;
            assert!(
                report.blocks_consumed <= height_at_crash / 2 + post_crash + report.epochs + 2,
                "[{name}] resume re-scanned too much: consumed {} of height {}",
                report.blocks_consumed,
                ledger.height()
            );
        }
        assert_eq!(
            index_freshness(&ledger).unwrap().unwrap().lag_blocks,
            0,
            "[{name}] resumed daemon left lag"
        );

        let taus = windows(t_max, report.indexed_to);
        assert_same_answers(name, &ledger, &batch, &keys, &taus);
    }
}

#[test]
fn adaptive_theta_answers_match_fixed_theta_and_tqf() {
    let dir = TempDir::new("adaptive");
    let workload = generate_scaled(DatasetId::Ds3, 40);
    let events = time_sorted(workload.events.clone());
    let t_max = workload.params.t_max;
    let keys = workload.keys();

    let fixed_ledger = open(&dir.0, "fixed");
    let mut fixed_daemon = IndexerDaemon::new(
        fixed_ledger.clone(),
        DaemonConfig {
            lag_blocks: 2,
            policy: ThetaPolicy::Fixed { u: t_max / 25 },
        },
    )
    .unwrap();
    ingest_chunked(
        &fixed_ledger,
        &mut fixed_daemon,
        &events,
        13,
        IngestMode::MultiEvent,
    );
    fixed_daemon.flush().unwrap();
    drop(fixed_daemon);

    let adaptive_ledger = open(&dir.0, "adaptive");
    let mut adaptive_daemon = IndexerDaemon::new(
        adaptive_ledger.clone(),
        DaemonConfig {
            lag_blocks: 2,
            policy: ThetaPolicy::Adaptive {
                target_events: 8,
                min_u: 100,
                max_u: 100_000,
            },
        },
    )
    .unwrap();
    ingest_chunked(
        &adaptive_ledger,
        &mut adaptive_daemon,
        &events,
        13,
        IngestMode::MultiEvent,
    );
    adaptive_daemon.flush().unwrap();
    let report = adaptive_daemon.report();
    assert!(report.epochs > 0, "adaptive daemon cut no epochs");
    drop(adaptive_daemon);

    let fresh = index_freshness(&adaptive_ledger).unwrap().unwrap();
    assert!(
        fresh.adaptive_keys > 0,
        "adaptive daemon persisted no per-key θ"
    );

    // θ is a cost knob, never a correctness knob: both maintained indexes
    // and the raw scan agree on every window, on both chains.
    let m1 = M1Engine::default();
    for &key in &keys {
        for tau in windows(t_max, report.indexed_to) {
            let via_fixed = m1.events_for_key(&fixed_ledger, key, tau).unwrap();
            let via_adaptive = m1.events_for_key(&adaptive_ledger, key, tau).unwrap();
            let tqf = TqfEngine
                .events_for_key(&adaptive_ledger, key, tau)
                .unwrap();
            assert_eq!(via_adaptive, tqf, "adaptive vs TQF for {key} over {tau}");
            assert_eq!(
                via_adaptive, via_fixed,
                "adaptive vs fixed θ for {key} over {tau}"
            );
        }
    }
}

#[test]
fn prop_random_windows_agree_on_daemon_maintained_chain() {
    let dir = TempDir::new("prop");
    let workload = generate_scaled(DatasetId::Ds3, 40);
    let events = time_sorted(workload.events.clone());
    let t_max = workload.params.t_max;
    let u = t_max / 25;
    let keys = workload.keys();

    let ledger = open(&dir.0, "chain");
    let mut daemon = IndexerDaemon::new(
        ledger.clone(),
        DaemonConfig {
            lag_blocks: 1,
            policy: ThetaPolicy::Fixed { u },
        },
    )
    .unwrap();
    ingest_chunked(&ledger, &mut daemon, &events, 9, IngestMode::SingleEvent);
    daemon.flush().unwrap();
    drop(daemon);

    let strategy = prop_oneof![
        // Anywhere on the axis, including windows entirely past the data.
        (0..2 * t_max, 1..t_max).prop_map(|(s, l)| Interval::new(s, s + l)),
        // θ-aligned edges.
        (0u64..50, 1u64..25).prop_map(move |(i, n)| Interval::new(i * u, (i + n) * u)),
        Just(Interval::new(0, 1)),
    ];
    let m1 = M1Engine::default();
    let auto = AutoEngine::default();
    TestRunner::default()
        .run(&strategy, |tau| {
            for &key in &keys {
                let tqf = TqfEngine.events_for_key(&ledger, key, tau).unwrap();
                let live = m1.events_for_key(&ledger, key, tau).unwrap();
                let planned = auto.events_for_key(&ledger, key, tau).unwrap();
                prop_assert_eq!(&live, &tqf, "daemon-M1 vs TQF for {} over {}", key, tau);
                prop_assert_eq!(&planned, &tqf, "auto vs TQF for {} over {}", key, tau);
            }
            Ok(())
        })
        .unwrap();
}
