//! Golden values for the random stream the datasets are drawn from.
//!
//! Every dataset, and so every exact counter the repository records, is a
//! function of the `rand` stand-in's stream (`StdRng` is xoshiro256** seeded
//! through splitmix64). A change to that stream, or to how the generator
//! consumes it, fails here first. If it is deliberate, regenerate the
//! checked-in counter files (`BENCH_baseline.json`,
//! `BENCH_ingest.json`) and the record count `.claude/skills/verify/SKILL.md`
//! quotes for `tfq join` on a `--scale 4` ledger (273), then update the
//! values below.

use fabric_workload::dataset::{generate_scaled, DatasetId, DEFAULT_SEED};
use fabric_workload::Event;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// 64-bit FNV-1a over each event's ledger key and value, in order.
fn digest(events: &[Event]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for event in events {
        for byte in event.key().iter().chain(event.encode_value().iter()) {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn std_rng_stream_is_pinned() {
    let mut rng = StdRng::seed_from_u64(DEFAULT_SEED);
    let words: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        words,
        [
            0x3bce_004b_7723_ff42,
            0x82e5_1286_b97e_7ad5,
            0x4ce5_cb11_c83d_f4f1,
            0x0fb6_baf4_7afd_3610,
        ]
    );
}

#[test]
fn generated_datasets_are_pinned() {
    // DS3 draws uniform times; DS2 also draws each key's zipf exponent.
    for (id, factor, len, hash) in [
        (DatasetId::Ds3, 4, 11_000, 0x29e3_8f7a_2678_31fb),
        (DatasetId::Ds2, 1500, 676, 0xaac8_eee7_f5d5_d36b),
    ] {
        let events = generate_scaled(id, factor).events;
        assert_eq!(
            (events.len(), digest(&events)),
            (len, hash),
            "{id}/{factor}"
        );
    }
}
