//! # temporal-core
//!
//! The paper's contribution: efficient temporal query processing on a
//! Hyperledger-Fabric-style ledger, reproduced from
//! *Efficiently Processing Temporal Queries on Hyperledger Fabric*
//! (Gupta, Hans, Aggarwal, Mehta, Chatterjee, Praveen J. — ICDE 2018).
//!
//! Three interchangeable [`TemporalEngine`]s answer "events of key `k` in
//! `(ts, te]`":
//!
//! | Engine | Index | Query cost driver |
//! |---|---|---|
//! | [`tqf::TqfEngine`] | none (baseline) | deserializes every block with a state of `k` in `(0, te]` |
//! | [`m1::M1Engine`] | periodic process re-ingests `⟨(k,θ), EV(k,θ)⟩` pairs | one block per overlapping index interval |
//! | [`m2::M2Engine`] | keys interval-tagged at ingestion | exactly the blocks holding events inside overlapping intervals |
//!
//! Supporting pieces: interval algebra and composite-key encoding
//! ([`interval`]), partition strategies including the paper's future-work
//! event-count-balanced variant ([`partition`]), the `EV(k,θ)` value codec
//! ([`evset`]), the M2 base-data compatibility layer ([`base_api`]), the
//! supply-chain temporal join — query Q — ([`join`]), parallel query
//! execution ([`parallel`]), and measurement utilities
//! ([`stats`]).
//!
//! ## Example: M2 end to end
//!
//! ```
//! use fabric_ledger::{Ledger, LedgerConfig};
//! use fabric_workload::dataset::{generate_scaled, DatasetId};
//! use fabric_workload::ingest::{ingest, IngestMode};
//! use temporal_core::interval::Interval;
//! use temporal_core::join::ferry_query;
//! use temporal_core::m2::{M2Encoder, M2Engine};
//!
//! let dir = std::env::temp_dir().join(format!("core-doc-{}", std::process::id()));
//! let ledger = Ledger::open(&dir, LedgerConfig::default())?;
//! let workload = generate_scaled(DatasetId::Ds3, 100);
//! let u = workload.params.t_max / 10;
//! ingest(&ledger, &workload.events, IngestMode::MultiEvent, &M2Encoder { u })?;
//!
//! let tau = Interval::new(0, workload.params.t_max / 5);
//! let outcome = ferry_query(&M2Engine { u }, &ledger, tau)?;
//! println!(
//!     "{} ferry records, {} blocks deserialized",
//!     outcome.records.len(),
//!     outcome.stats.blocks_deserialized()
//! );
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), fabric_ledger::Error>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analytics;
pub mod analyze;
pub mod base_api;
pub mod cursor;
pub mod daemon;
pub mod engine;
pub mod evset;
pub mod explain;
pub mod interval;
pub mod join;
pub mod m1;
pub mod m2;
pub mod parallel;
pub mod partition;
pub mod planner;
pub mod stats;
pub mod tqf;

pub use analyze::{explain_analyze, AnalyzedPlan, StepMeasurement};
pub use base_api::M2BaseApi;
pub use cursor::{drain, EventCursor};
pub use daemon::{
    index_freshness, publish_m1_gauges, DaemonConfig, DaemonHandle, DaemonMeta, DaemonReport,
    IndexFreshness, IndexerDaemon, ThetaPolicy,
};
pub use engine::TemporalEngine;
pub use evset::{EvSet, TemporalEvent};
pub use explain::{ExplainQuery, PlanStep, QueryPlan};
pub use interval::Interval;
pub use join::{build_stays, ferry_query, FerryRecord, JoinOutcome, Span, Stay, StayBuilder};
pub use m1::{M1Engine, M1Indexer};
pub use m2::{M2Encoder, M2Engine};
pub use parallel::{events_for_keys_parallel, ferry_query_parallel};
pub use partition::{EventCountBalanced, FixedLength, PartitionStrategy};
pub use planner::{AccessPath, AutoEngine, PlanChoice};
pub use stats::{measure, QueryStats, SimCostModel};
pub use tqf::TqfEngine;
