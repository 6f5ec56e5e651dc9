//! Property-based tests for the ledger's wire formats and commit path.

use bytes::Bytes;
use proptest::prelude::*;

use fabric_ledger::hash::{sha256, Sha256};
use fabric_ledger::{
    Block, KvRead, KvWrite, Ledger, LedgerConfig, Transaction, ValidationCode, Version,
};

fn key_strategy() -> impl Strategy<Value = Bytes> {
    // Valid ledger keys: non-empty, no NUL byte.
    prop::collection::vec(1u8..=255, 1..16).prop_map(Bytes::from)
}

fn write_strategy() -> impl Strategy<Value = KvWrite> {
    (
        key_strategy(),
        prop::option::of(prop::collection::vec(any::<u8>(), 0..32)),
    )
        .prop_map(|(key, value)| KvWrite {
            key,
            value: value.map(Bytes::from),
        })
}

fn read_strategy() -> impl Strategy<Value = KvRead> {
    (
        key_strategy(),
        prop::option::of((any::<u64>(), any::<u32>())),
    )
        .prop_map(|(key, v)| KvRead {
            key,
            version: v.map(|(block_num, tx_num)| Version { block_num, tx_num }),
        })
}

fn tx_strategy() -> impl Strategy<Value = Transaction> {
    (
        any::<u64>(),
        prop::collection::vec(read_strategy(), 0..4),
        prop::collection::vec(write_strategy(), 0..6),
    )
        .prop_map(|(ts, reads, writes)| Transaction::new(ts, reads, writes).unwrap())
}

proptest! {
    #[test]
    fn transaction_roundtrip(tx in tx_strategy()) {
        let decoded = Transaction::decode(&tx.encode()).unwrap();
        prop_assert_eq!(&tx, &decoded);
        let trusted = Transaction::decode_trusted(&tx.encode()).unwrap();
        prop_assert_eq!(tx, trusted);
    }

    #[test]
    fn transaction_writes_have_unique_keys(tx in tx_strategy()) {
        let mut keys: Vec<&[u8]> = tx.writes.iter().map(|w| &w.key[..]).collect();
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(before, keys.len(), "duplicate key survived dedup");
    }

    #[test]
    fn single_bit_flip_never_decodes_as_same_tx(tx in tx_strategy(), byte in any::<usize>(), bit in 0u8..8) {
        let mut enc = tx.encode();
        let idx = byte % enc.len();
        enc[idx] ^= 1 << bit;
        match Transaction::decode(&enc) {
            // Either the flip is detected...
            Err(_) => {}
            // ...or (flip in the stored id region making it still match?
            // impossible — id is the hash) decode may only succeed if the
            // payload re-hashes to the stored id, which a 1-bit flip
            // cannot achieve.
            Ok(decoded) => prop_assert_eq!(decoded, tx),
        }
    }

    #[test]
    fn block_roundtrip(txs in prop::collection::vec(tx_strategy(), 0..6), number in any::<u64>()) {
        let validation = vec![ValidationCode::Valid; txs.len()];
        let block = Block::new(number, sha256(b"prev"), txs, validation).unwrap();
        let decoded = Block::decode(&block.encode()).unwrap();
        prop_assert_eq!(&block, &decoded);
        let trusted = Block::decode_trusted(&block.encode()).unwrap();
        prop_assert_eq!(block, trusted);
    }

    #[test]
    fn sha256_incremental_equals_oneshot(data in prop::collection::vec(any::<u8>(), 0..2048), split in any::<usize>()) {
        let oneshot = sha256(&data);
        let cut = if data.is_empty() { 0 } else { split % data.len() };
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), oneshot);
    }

    #[test]
    fn committed_state_reflects_last_write(
        writes in prop::collection::vec((key_strategy(), prop::collection::vec(any::<u8>(), 0..16)), 1..25),
        seed in any::<u64>(),
    ) {
        let dir = std::env::temp_dir().join(format!(
            "ledger-prop-{}-{seed}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let ledger = Ledger::open(&dir, LedgerConfig::small_for_tests()).unwrap();
        let mut model: std::collections::HashMap<Bytes, Bytes> = Default::default();
        for (i, (key, value)) in writes.iter().enumerate() {
            let value = Bytes::from(value.clone());
            let tx = Transaction::new(
                i as u64,
                vec![],
                vec![KvWrite { key: key.clone(), value: Some(value.clone()) }],
            )
            .unwrap();
            ledger.submit(tx).unwrap();
            model.insert(key.clone(), value);
        }
        ledger.cut_block().unwrap();
        for (key, value) in &model {
            let got = ledger.get_state(key).unwrap().unwrap();
            prop_assert_eq!(&got.value, value);
        }
        // History length per key equals the number of writes to it.
        for key in model.keys() {
            let n_writes = writes.iter().filter(|(k, _)| k == key).count();
            let history = ledger.get_history_for_key(key).unwrap().collect_all().unwrap();
            prop_assert_eq!(history.len(), n_writes);
        }
        ledger.verify_chain().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
