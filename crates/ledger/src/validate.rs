//! MVCC block validation: Fabric's serial in-order scan.
//!
//! Fabric validates a block's transactions serially: each transaction's
//! read set is checked against committed state *plus the writes of every
//! earlier valid transaction in the same block*, so validity is
//! order-sensitive — a transaction that reads a key an earlier valid
//! transaction wrote must observe that write's version or be marked
//! [`ValidationCode::MvccConflict`]. An invalid transaction's writes are
//! never visible to later ones.

use std::collections::HashMap;

use bytes::Bytes;

use crate::error::Result;
use crate::tx::{BlockNum, Transaction, TxNum, ValidationCode, Version};

/// What validation decided for one block.
#[derive(Debug)]
pub struct ValidationOutcome {
    /// Per-transaction codes, in block order.
    pub codes: Vec<ValidationCode>,
    /// Number of [`ValidationCode::MvccConflict`] codes.
    pub conflicts: u64,
}

/// The serial in-order scan — the paper's cost model. `base` resolves a
/// key's version outside the block (the state db).
pub fn validate_serial(
    txs: &[Transaction],
    block_num: BlockNum,
    mut base: impl FnMut(&[u8]) -> Result<Option<Version>>,
) -> Result<ValidationOutcome> {
    // For every key written by a valid transaction so far, the last valid
    // writer's version (`None` = that write was a delete).
    let mut intra_block: HashMap<Bytes, Option<Version>> = HashMap::new();
    let mut codes = Vec::with_capacity(txs.len());
    let mut conflicts = 0u64;
    for (i, tx) in txs.iter().enumerate() {
        let mut ok = true;
        for r in &tx.reads {
            let current = match intra_block.get(&r.key) {
                Some(v) => *v,
                None => base(&r.key)?,
            };
            if current != r.version {
                ok = false;
                break;
            }
        }
        let code = if ok {
            ValidationCode::Valid
        } else {
            conflicts += 1;
            ValidationCode::MvccConflict
        };
        if code == ValidationCode::Valid {
            for w in &tx.writes {
                let ver = Version {
                    block_num,
                    tx_num: i as TxNum,
                };
                intra_block.insert(
                    w.key.clone(),
                    if w.value.is_some() { Some(ver) } else { None },
                );
            }
        }
        codes.push(code);
    }
    Ok(ValidationOutcome { codes, conflicts })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{KvRead, KvWrite};
    use ValidationCode::{MvccConflict, Valid};

    fn key(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn tx(reads: Vec<(&str, Option<Version>)>, writes: Vec<(&str, bool)>) -> Transaction {
        Transaction::new(
            1,
            reads
                .into_iter()
                .map(|(k, version)| KvRead {
                    key: key(k),
                    version,
                })
                .collect(),
            writes
                .into_iter()
                .map(|(k, live)| KvWrite {
                    key: key(k),
                    value: live.then(|| Bytes::from_static(b"v")),
                })
                .collect(),
        )
        .unwrap()
    }

    fn version(block_num: BlockNum, tx_num: TxNum) -> Option<Version> {
        Some(Version { block_num, tx_num })
    }

    /// Validate `txs` as block 7 over a base state holding `base`.
    fn validate(txs: &[Transaction], base: &[(&str, Option<Version>)]) -> ValidationOutcome {
        validate_serial(txs, 7, |k| {
            Ok(base
                .iter()
                .find(|(name, _)| name.as_bytes() == k)
                .and_then(|(_, v)| *v))
        })
        .unwrap()
    }

    #[test]
    fn read_after_write_sees_the_earlier_valid_write() {
        // tx0 writes k; tx1 read k@None → conflict (tx0's write intervenes);
        // tx2 reads k at tx0's version → valid; tx3 reads x@None → valid,
        // because the conflicting tx1's write of x is never visible.
        let txs = vec![
            tx(vec![], vec![("k", true)]),
            tx(vec![("k", None)], vec![("x", true)]),
            tx(vec![("k", version(7, 0))], vec![("y", true)]),
            tx(vec![("x", None)], vec![]),
        ];
        let out = validate(&txs, &[]);
        assert_eq!(out.codes, vec![Valid, MvccConflict, Valid, Valid]);
        assert_eq!(out.conflicts, 1);
    }

    #[test]
    fn invalid_writer_does_not_shadow_base_state() {
        // tx0 conflicts (stale read), so its write of k must NOT be
        // visible to tx1: tx1 reads k at the committed version and stays
        // valid.
        let committed = version(3, 1);
        let txs = vec![
            tx(vec![("k", None)], vec![("k", true)]),
            tx(vec![("k", committed)], vec![("z", true)]),
        ];
        let out = validate(&txs, &[("k", committed)]);
        assert_eq!(out.codes, vec![MvccConflict, Valid]);
    }

    #[test]
    fn later_writer_does_not_leak_backwards() {
        // tx1 must observe tx0's version of k, not tx2's later blind write;
        // tx3 then observes tx2's (the last valid writer).
        let txs = vec![
            tx(vec![], vec![("k", true)]),
            tx(vec![("k", version(7, 0))], vec![("a", true)]),
            tx(vec![], vec![("k", true)]),
            tx(vec![("k", version(7, 2))], vec![]),
        ];
        assert_eq!(validate(&txs, &[]).codes, vec![Valid; 4]);
    }

    #[test]
    fn tombstone_writes_validate_as_deletes() {
        // tx0 deletes k (M1-style null tombstone); tx1 reading k@None is
        // valid — the delete is what it observes.
        let committed = version(2, 0);
        let txs = vec![
            tx(vec![("k", committed)], vec![("k", false)]),
            tx(vec![("k", None)], vec![("w", true)]),
        ];
        assert_eq!(validate(&txs, &[("k", committed)]).codes, vec![Valid; 2]);
    }

    #[test]
    fn repeated_writes_in_one_tx_last_wins() {
        // tx0 writes k then deletes it; tx1 must observe the delete.
        let txs = vec![
            tx(vec![], vec![("k", true), ("k", false)]),
            tx(vec![("k", None)], vec![("w", true)]),
        ];
        assert_eq!(validate(&txs, &[]).codes, vec![Valid; 2]);
    }
}
