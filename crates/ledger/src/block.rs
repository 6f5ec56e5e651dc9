//! Blocks: the unit of storage — and therefore the unit of I/O cost.
//!
//! Layout mirrors Fabric: a header (`number`, `prev_hash`, `data_hash`), the
//! transaction list, and commit-time metadata (per-transaction validation
//! codes). `data_hash` commits to the transaction bytes; `prev_hash` chains
//! blocks; [`Block::hash`] hashes the header, so each block hash transitively
//! commits to the whole chain prefix.
//!
//! The serialized layout front-loads the fixed-width metadata — validation
//! codes and a per-transaction offset table — ahead of the variable-length
//! transaction region:
//!
//! ```text
//! header (72 B) | uvarint tx_count | tx_count validation bytes
//!              | tx_count × u32 LE offsets | tx region
//! ```
//!
//! Each offset is the transaction's position *within the tx region*, so
//! [`Block::decode_txs`] can seek straight to the transactions a history
//! scan needs and decode only those. Full decodes walk the region
//! sequentially and cross-check every offset, so the table cannot drift
//! from the data it indexes.

use crate::codec::{put_bytes, put_u32, put_u64, put_uvarint, Cursor};
use crate::error::{Error, Result};
use crate::hash::{sha256, Digest, Sha256};
use crate::tx::{BlockNum, Transaction, TxNum, ValidationCode};

/// Block header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockHeader {
    /// Sequence number; genesis is 0.
    pub number: BlockNum,
    /// Hash of the previous block's header ([`Digest::ZERO`] for genesis).
    pub prev_hash: Digest,
    /// SHA-256 over the concatenated encoded transactions.
    pub data_hash: Digest,
}

impl BlockHeader {
    /// Canonical header encoding (hashed by [`Block::hash`]).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(72);
        put_u64(&mut out, self.number);
        out.extend_from_slice(&self.prev_hash.0);
        out.extend_from_slice(&self.data_hash.0);
        out
    }
}

/// A committed block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Header (chained by hash).
    pub header: BlockHeader,
    /// Ordered transactions.
    pub txs: Vec<Transaction>,
    /// Validation outcome per transaction, same order as `txs`.
    pub validation: Vec<ValidationCode>,
}

impl Block {
    /// Assemble a block over `txs`, computing the data hash and linking to
    /// `prev_hash`. Validation codes are set by the commit path.
    pub fn new(
        number: BlockNum,
        prev_hash: Digest,
        txs: Vec<Transaction>,
        validation: Vec<ValidationCode>,
    ) -> Result<Self> {
        if txs.len() != validation.len() {
            return Err(Error::InvalidArgument(format!(
                "{} txs but {} validation codes",
                txs.len(),
                validation.len()
            )));
        }
        let data_hash = Self::compute_data_hash(&txs);
        Ok(Block {
            header: BlockHeader {
                number,
                prev_hash,
                data_hash,
            },
            txs,
            validation,
        })
    }

    /// SHA-256 over the concatenated encoded transactions.
    pub fn compute_data_hash(txs: &[Transaction]) -> Digest {
        let mut h = Sha256::new();
        for tx in txs {
            h.update(&tx.encode());
        }
        h.finalize()
    }

    /// The block hash: SHA-256 of the encoded header.
    pub fn hash(&self) -> Digest {
        sha256(&self.header.encode())
    }

    /// Serialise the full block.
    pub fn encode(&self) -> Vec<u8> {
        let mut region = Vec::with_capacity(self.txs.len() * 128);
        let mut offsets = Vec::with_capacity(self.txs.len());
        for tx in &self.txs {
            let off = u32::try_from(region.len()).expect("tx region exceeds 4 GiB");
            offsets.push(off);
            put_bytes(&mut region, &tx.encode());
        }
        let mut out = Vec::with_capacity(128 + self.txs.len() * 5 + region.len());
        out.extend_from_slice(&self.header.encode());
        put_uvarint(&mut out, self.txs.len() as u64);
        for v in &self.validation {
            out.push(v.to_byte());
        }
        for off in offsets {
            put_u32(&mut out, off);
        }
        out.extend_from_slice(&region);
        out
    }

    /// Decode and structurally validate a block: transaction ids are
    /// re-verified and the data hash recomputed.
    pub fn decode(data: &[u8]) -> Result<Self> {
        Self::decode_impl(data, true)
    }

    /// Decode without recomputing the data hash or transaction ids.
    ///
    /// The block-file read path uses this: the frame CRC already covers
    /// integrity, and block deserialization is the evaluation's hot
    /// operation. [`crate::ledger::Ledger::verify_chain`] recomputes all
    /// hashes explicitly when auditing is wanted.
    pub fn decode_trusted(data: &[u8]) -> Result<Self> {
        Self::decode_impl(data, false)
    }

    /// Decode the fixed-width prelude shared by full and selective decode:
    /// header, validation codes, and the per-tx offset table. Leaves the
    /// cursor at the start of the tx region.
    fn decode_prelude<'a>(
        c: &mut Cursor<'a>,
    ) -> Result<(BlockHeader, Vec<ValidationCode>, Vec<u32>)> {
        let number = c.get_u64()?;
        let prev_hash = Digest(
            c.get_raw(32)?
                .try_into()
                .expect("get_raw(32) returns 32 bytes"),
        );
        let data_hash = Digest(
            c.get_raw(32)?
                .try_into()
                .expect("get_raw(32) returns 32 bytes"),
        );
        let tx_count = c.get_uvarint()?;
        let cap = tx_count.min(1 << 16) as usize;
        let mut validation = Vec::with_capacity(cap);
        for _ in 0..tx_count {
            validation.push(ValidationCode::from_byte(c.get_raw(1)?[0])?);
        }
        let mut offsets = Vec::with_capacity(cap);
        for _ in 0..tx_count {
            offsets.push(c.get_u32()?);
        }
        Ok((
            BlockHeader {
                number,
                prev_hash,
                data_hash,
            },
            validation,
            offsets,
        ))
    }

    fn decode_impl(data: &[u8], verify: bool) -> Result<Self> {
        let mut c = Cursor::new(data, "block");
        let (header, validation, offsets) = Self::decode_prelude(&mut c)?;
        let region_start = c.position();
        let mut txs = Vec::with_capacity(offsets.len());
        for (i, &off) in offsets.iter().enumerate() {
            let actual = c.position() - region_start;
            if actual != off as usize {
                return Err(Error::InvalidArgument(format!(
                    "block {}: tx {i} offset {off} does not match region position {actual}",
                    header.number
                )));
            }
            let tx_bytes = c.get_bytes()?;
            txs.push(if verify {
                Transaction::decode(tx_bytes)?
            } else {
                Transaction::decode_trusted(tx_bytes)?
            });
        }
        c.expect_end()?;
        if verify {
            let computed = Self::compute_data_hash(&txs);
            if computed != header.data_hash {
                return Err(Error::InvalidArgument(format!(
                    "block {} data hash mismatch",
                    header.number
                )));
            }
        }
        Ok(Block {
            header,
            txs,
            validation,
        })
    }

    /// Selectively decode only the transactions in `tx_nums` (ascending or
    /// not — each is sought independently through the offset table), plus
    /// the header and validation codes, without touching the rest of the
    /// tx region. Transaction ids and the data hash are *not* re-verified,
    /// mirroring [`Block::decode_trusted`].
    pub fn decode_txs(data: &[u8], tx_nums: &[TxNum]) -> Result<PartialBlock> {
        let mut c = Cursor::new(data, "block");
        let (header, validation, offsets) = Self::decode_prelude(&mut c)?;
        let region = c.get_raw(c.remaining())?;
        let mut txs = Vec::with_capacity(tx_nums.len());
        for &t in tx_nums {
            let off = *offsets.get(t as usize).ok_or_else(|| {
                Error::InvalidArgument(format!(
                    "block {}: tx {t} out of range ({} txs)",
                    header.number,
                    offsets.len()
                ))
            })?;
            let tail = region.get(off as usize..).ok_or_else(|| {
                Error::InvalidArgument(format!(
                    "block {}: tx {t} offset {off} beyond tx region ({} bytes)",
                    header.number,
                    region.len()
                ))
            })?;
            let mut tc = Cursor::new(tail, "block tx");
            let tx_bytes = tc.get_bytes()?;
            txs.push((t, Transaction::decode_trusted(tx_bytes)?));
        }
        Ok(PartialBlock {
            header,
            tx_count: offsets.len(),
            validation,
            txs,
        })
    }

    /// Number of transactions.
    pub fn tx_count(&self) -> usize {
        self.txs.len()
    }
}

/// Result of a selective [`Block::decode_txs`]: block-level metadata plus
/// only the requested transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialBlock {
    /// Header (chained by hash).
    pub header: BlockHeader,
    /// Total transactions in the block (not just the decoded ones).
    pub tx_count: usize,
    /// Validation outcome for *every* transaction in the block.
    pub validation: Vec<ValidationCode>,
    /// The requested transactions, as `(tx_num, tx)` in request order.
    pub txs: Vec<(TxNum, Transaction)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{KvWrite, Transaction};
    use bytes::Bytes;

    fn tx(ts: u64, key: &str, value: &str) -> Transaction {
        Transaction::new(
            ts,
            vec![],
            vec![KvWrite {
                key: Bytes::copy_from_slice(key.as_bytes()),
                value: Some(Bytes::copy_from_slice(value.as_bytes())),
            }],
        )
        .unwrap()
    }

    fn block(number: u64, prev: Digest, n_tx: usize) -> Block {
        let txs: Vec<Transaction> = (0..n_tx)
            .map(|i| tx(i as u64, &format!("key{i}"), &format!("val{i}")))
            .collect();
        let validation = vec![ValidationCode::Valid; txs.len()];
        Block::new(number, prev, txs, validation).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let b = block(7, Digest::ZERO, 5);
        let decoded = Block::decode(&b.encode()).unwrap();
        assert_eq!(b, decoded);
    }

    #[test]
    fn empty_block_roundtrip() {
        let b = block(0, Digest::ZERO, 0);
        let decoded = Block::decode(&b.encode()).unwrap();
        assert_eq!(decoded.tx_count(), 0);
    }

    #[test]
    fn hash_chain_links() {
        let genesis = block(0, Digest::ZERO, 2);
        let next = block(1, genesis.hash(), 3);
        assert_eq!(next.header.prev_hash, genesis.hash());
        assert_ne!(genesis.hash(), next.hash());
    }

    #[test]
    fn data_hash_commits_to_txs() {
        let a = block(1, Digest::ZERO, 2);
        let mut txs = a.txs.clone();
        txs[0] = tx(99, "tampered", "tx");
        let b = Block::new(1, Digest::ZERO, txs, vec![ValidationCode::Valid; 2]).unwrap();
        assert_ne!(a.header.data_hash, b.header.data_hash);
        assert_ne!(a.hash(), b.hash());
    }

    #[test]
    fn tampered_tx_bytes_rejected_at_decode() {
        let b = block(1, Digest::ZERO, 2);
        let mut enc = b.encode();
        // Flip a byte inside the first transaction's value region.
        let n = enc.len();
        enc[n / 2] ^= 0x01;
        assert!(Block::decode(&enc).is_err());
    }

    #[test]
    fn mismatched_validation_count_rejected() {
        let txs = vec![tx(1, "k", "v")];
        assert!(Block::new(0, Digest::ZERO, txs, vec![]).is_err());
    }

    #[test]
    fn validation_codes_roundtrip() {
        let txs = vec![tx(1, "a", "1"), tx(2, "b", "2")];
        let b = Block::new(
            3,
            Digest::ZERO,
            txs,
            vec![ValidationCode::Valid, ValidationCode::MvccConflict],
        )
        .unwrap();
        let decoded = Block::decode(&b.encode()).unwrap();
        assert_eq!(
            decoded.validation,
            vec![ValidationCode::Valid, ValidationCode::MvccConflict]
        );
    }

    #[test]
    fn truncated_block_rejected() {
        let enc = block(1, Digest::ZERO, 2).encode();
        for cut in [0, 8, 40, 71, enc.len() - 1] {
            assert!(Block::decode(&enc[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn decode_txs_selects_requested_transactions() {
        let b = block(5, Digest::ZERO, 6);
        let enc = b.encode();
        let partial = Block::decode_txs(&enc, &[1, 4]).unwrap();
        assert_eq!(partial.header, b.header);
        assert_eq!(partial.tx_count, 6);
        assert_eq!(partial.validation, b.validation);
        assert_eq!(partial.txs.len(), 2);
        assert_eq!(partial.txs[0], (1, b.txs[1].clone()));
        assert_eq!(partial.txs[1], (4, b.txs[4].clone()));
    }

    #[test]
    fn decode_txs_handles_empty_and_unordered_requests() {
        let b = block(2, Digest::ZERO, 3);
        let enc = b.encode();
        let none = Block::decode_txs(&enc, &[]).unwrap();
        assert!(none.txs.is_empty());
        assert_eq!(none.tx_count, 3);
        let rev = Block::decode_txs(&enc, &[2, 0]).unwrap();
        assert_eq!(rev.txs[0], (2, b.txs[2].clone()));
        assert_eq!(rev.txs[1], (0, b.txs[0].clone()));
    }

    #[test]
    fn decode_txs_rejects_out_of_range() {
        let enc = block(2, Digest::ZERO, 3).encode();
        assert!(Block::decode_txs(&enc, &[3]).is_err());
        assert!(Block::decode_txs(&enc, &[u32::MAX]).is_err());
    }

    #[test]
    fn decode_txs_matches_full_decode_for_every_tx() {
        let b = block(9, Digest::ZERO, 4);
        let enc = b.encode();
        let full = Block::decode_trusted(&enc).unwrap();
        for t in 0..4u32 {
            let partial = Block::decode_txs(&enc, &[t]).unwrap();
            assert_eq!(partial.txs[0].1, full.txs[t as usize]);
        }
    }

    #[test]
    fn corrupt_offset_table_rejected_by_full_decode() {
        let b = block(1, Digest::ZERO, 3);
        let mut enc = b.encode();
        // Offset table sits after header(72) + count(1) + validation(3);
        // corrupt the second entry.
        let table = 72 + 1 + 3;
        enc[table + 4] ^= 0x01;
        assert!(Block::decode_trusted(&enc).is_err());
        assert!(Block::decode(&enc).is_err());
    }
}
