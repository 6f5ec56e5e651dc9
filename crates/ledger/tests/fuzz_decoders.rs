//! Decoder robustness: every wire-format decoder must reject arbitrary
//! bytes with an error — never panic, never loop, never allocate absurdly.
//! (The block read path feeds decoders straight from disk; a corrupt or
//! hostile file must surface as `Error::Corruption`, not a crash.)

use proptest::prelude::*;

use fabric_ledger::blockfile::BlockLocation;
use fabric_ledger::codec::Cursor;
use fabric_ledger::{Block, Transaction};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn transaction_decode_never_panics(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Transaction::decode(&data);
        let _ = Transaction::decode_trusted(&data);
    }

    #[test]
    fn block_decode_never_panics(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = Block::decode(&data);
        let _ = Block::decode_trusted(&data);
    }

    #[test]
    fn block_location_decode_never_panics(data in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = BlockLocation::decode(&data);
    }

    #[test]
    fn cursor_primitives_never_panic(data in prop::collection::vec(any::<u8>(), 0..128)) {
        let mut c = Cursor::new(&data, "fuzz");
        let _ = c.get_uvarint();
        let _ = c.get_bytes();
        let _ = c.get_u64();
        let _ = c.get_u32();
        let _ = c.get_raw(7);
        let _ = c.expect_end();
    }

    #[test]
    fn mutated_valid_block_never_panics(
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..8),
    ) {
        // Start from a VALID encoded block, then flip random bits: decode
        // must either fail cleanly or produce a block (when the flip hits
        // redundant bytes under trusted decode).
        use bytes::Bytes;
        use fabric_ledger::{Digest, KvWrite, ValidationCode};
        let tx = Transaction::new(
            7,
            vec![],
            vec![KvWrite {
                key: Bytes::from_static(b"some-key"),
                value: Some(Bytes::from_static(b"some-value")),
            }],
        )
        .unwrap();
        let block = Block::new(3, Digest::ZERO, vec![tx], vec![ValidationCode::Valid]).unwrap();
        let mut enc = block.encode();
        for (pos, bit) in flips {
            let n = enc.len();
            enc[pos % n] ^= 1 << bit;
        }
        let _ = Block::decode(&enc);
        let _ = Block::decode_trusted(&enc);
    }
}

#[test]
fn evset_and_batch_decoders_never_panic() {
    // Smaller hand-rolled fuzz for the remaining decoders (keeps this file
    // self-contained without cross-crate proptest wiring).
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xF00D);
    for _ in 0..2000 {
        let len = rng.gen_range(0..200);
        let data: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect();
        let _ = fabric_kvstore::WriteBatch::decode(&data);
    }
}
