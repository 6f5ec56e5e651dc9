//! # fabric-ledger
//!
//! A Hyperledger-Fabric-style ledger engine, built from scratch in Rust for
//! the `temporal-fabric` workspace. It reproduces the storage architecture
//! that makes temporal queries on Fabric expensive — and that the paper's
//! Models M1/M2 (in the `temporal-core` crate) exploit:
//!
//! * **Blocks on the file system** ([`blockfile`]): append-only
//!   `blockfile_NNNNNN` files holding CRC-framed, hash-chained blocks.
//!   Reading history means *deserializing blocks*, the unit of query cost.
//! * **State database** ([`statedb`]): current state of every key, on a
//!   LevelDB-class store (`fabric-kvstore`), with `GetStateByRange`.
//! * **History index** ([`index`]): Fabric-style `key~block~tx` composite
//!   keys mapping each key to the blocks that wrote it.
//! * **Ordering service** ([`orderer`]): batch-size-driven block cutting.
//! * **Chaincode shim** ([`shim`]): `GetState` / `PutState` /
//!   `GetStateByRange` / `GetHistoryForKey` with read/write-set capture and
//!   MVCC validation at commit.
//! * **Lazy `GetHistoryForKey`** ([`ledger::HistoryIterator`]): blocks are
//!   deserialized one at a time as the iterator advances; abandoning the
//!   iterator early skips the remaining blocks. The key's history locations
//!   form per-block runs, and each run is read once, decoding only its
//!   transactions through the block's per-tx offset table
//!   ([`Block::decode_txs`]). There is no block cache: as in Fabric v1.0
//!   and the paper's cost model, every scan deserializes its blocks.
//! * **MVCC validation** ([`validate`]): Fabric's serial, order-sensitive
//!   scan of each block's read sets.
//! * **One synchronous commit path** ([`ledger`]): validate → append →
//!   index → state on the caller's thread; a block number returned by
//!   [`Ledger::submit`] means the block is applied and readable.
//!
//! ## Example
//!
//! ```
//! use fabric_ledger::{Ledger, LedgerConfig, TxSimulator};
//!
//! let dir = std::env::temp_dir().join(format!("ledger-doc-{}", std::process::id()));
//! let ledger = Ledger::open(&dir, LedgerConfig::default())?;
//!
//! // Chaincode-style transaction: record a shipment loading event.
//! let mut sim = TxSimulator::new(&ledger);
//! sim.put_state(&b"shipment-7"[..], &b"loaded:container-2@t=100"[..]);
//! let tx = sim.into_transaction(100)?;
//! ledger.submit(tx)?;
//! ledger.cut_block()?; // force the batch out (tests/demos)
//!
//! let state = ledger.get_state(b"shipment-7")?.unwrap();
//! assert_eq!(&state.value[..], b"loaded:container-2@t=100");
//!
//! let history = ledger.get_history_for_key(b"shipment-7")?.collect_all()?;
//! assert_eq!(history.len(), 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), fabric_ledger::Error>(())
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod block;
pub mod blockfile;
pub mod codec;
pub mod config;
pub mod error;
pub mod hash;
pub mod index;
pub mod iostats;
pub mod ledger;
pub mod orderer;
pub mod shim;
pub mod statedb;
pub mod tx;
pub mod validate;

pub use block::{Block, BlockHeader, PartialBlock};
pub use blockfile::{BlockFileManager, BlockLocation};
pub use config::LedgerConfig;
pub use error::{Error, Result};
pub use fabric_telemetry::Telemetry;
pub use hash::{sha256, Digest};
pub use index::HistoryEntryMeta;
pub use iostats::{IoStats, IoStatsSnapshot};
pub use ledger::{CommitEvent, HistoricalState, HistoryIterator, Ledger, StateUpdate};
pub use shim::TxSimulator;
pub use statedb::VersionedValue;
pub use tx::{
    BlockNum, KvRead, KvWrite, Timestamp, Transaction, TxId, TxNum, ValidationCode, Version,
};
