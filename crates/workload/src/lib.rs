//! # fabric-workload
//!
//! The paper's synthetic supply-chain workload (§IV): shipments are loaded
//! into / unloaded from containers, containers onto/from trucks; every
//! load/unload is an event ingested on the ledger as a state of the
//! shipment's or container's key.
//!
//! * [`entity`] — typed entity ids and their ledger key encoding.
//! * [`event`] — load/unload events and the on-chain value codec.
//! * [`zipf`] — the truncated power-law time sampler behind DS2.
//! * [`generator`] — the parameterised event generator.
//! * [`dataset`] — the paper's DS1/DS2/DS3 presets plus scaled variants.
//! * [`ingest`](ingest/index.html) — SE and ME transaction batching and the ingestion driver.
//! * [`trace`] — CSV export/import of event traces for pinned benchmarks.
//!
//! ## Example
//!
//! ```
//! use fabric_workload::dataset::{generate_scaled, DatasetId};
//! use fabric_workload::ingest::{ingest, IdentityEncoder, IngestMode};
//! use fabric_ledger::{Ledger, LedgerConfig};
//!
//! let dir = std::env::temp_dir().join(format!("wl-doc-{}", std::process::id()));
//! let ledger = Ledger::open(&dir, LedgerConfig::default())?;
//! let workload = generate_scaled(DatasetId::Ds3, 100);
//! let report = ingest(&ledger, &workload.events, IngestMode::MultiEvent, &IdentityEncoder)?;
//! assert_eq!(report.events as usize, workload.events.len());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), fabric_ledger::Error>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod dataset;
pub mod entity;
pub mod event;
pub mod generator;
pub mod ingest;
pub mod trace;
pub mod zipf;

pub use dataset::DatasetId;
pub use entity::{EntityId, EntityKind};
pub use event::{Event, EventKind};
pub use generator::{EventDistribution, GeneratedWorkload, WorkloadParams};
pub use ingest::{ingest, EventEncoder, IdentityEncoder, IngestMode, IngestReport};
