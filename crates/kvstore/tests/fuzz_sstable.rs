//! SSTable robustness: a corrupt or hostile table file must surface as
//! `Error::Corruption`, never a panic, a loop or an absurd allocation.
//!
//! The tail checksum covers the sparse index, bloom filter and meta region
//! when a table opens, but not the data region: entries are decoded from
//! it unchecked, as views whose ranges come from varint lengths. So besides
//! arbitrary files, the cases here build valid tables and then flip bits
//! in, or cut bytes off, the data region, and build tables whose checked
//! regions are arbitrary bytes under a matching checksum.

#[global_allocator]
static ALLOC: fabric_telemetry::CountingAlloc = fabric_telemetry::CountingAlloc;

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use bytes::Bytes;
use proptest::prelude::*;

use fabric_kvstore::crc32::crc32;
use fabric_kvstore::sstable::{SsTableReader, SsTableWriter};
use fabric_kvstore::{Error, Slot};

const FOOTER_LEN: usize = 72;

struct TempFile(PathBuf);

impl TempFile {
    fn new(tag: &str, bytes: &[u8]) -> Self {
        let p = std::env::temp_dir().join(format!(
            "sst-fuzz-{}-{tag}-{:?}.sst",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&p, bytes).unwrap();
        TempFile(p)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A valid table: 40 entries, values and tombstones, 4 entries per
/// segment, one value far longer than a segment of short ones. Built once.
fn valid_table() -> &'static [u8] {
    static TABLE: OnceLock<Vec<u8>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let path = std::env::temp_dir().join(format!("sst-fuzz-{}-valid.sst", std::process::id()));
        let mut w = SsTableWriter::create(&path, 4, 10).unwrap();
        for i in 0..40u32 {
            let key = format!("key-{i:03}");
            let slot = match i % 7 {
                3 => Slot::Tombstone,
                5 => Slot::Value(Bytes::from(vec![b'v'; 300])),
                _ => Slot::Value(Bytes::from(format!("value-{i}"))),
            };
            w.add(key.as_bytes(), &slot).unwrap();
        }
        w.finish().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        bytes
    })
}

fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn footer_u64(file: &[u8], field: usize) -> u64 {
    let at = file.len() - FOOTER_LEN + field * 8;
    u64::from_le_bytes(file[at..at + 8].try_into().unwrap())
}

/// Lay out a table file around the given regions with a footer whose
/// offsets, checksums and magic are all consistent; only the regions'
/// contents can be wrong.
fn assemble(data: &[u8], index: &[u8], bloom: &[u8], meta: &[u8], magic: &[u8]) -> Vec<u8> {
    let mut file = data.to_vec();
    let tail = [index, bloom, meta].concat();
    file.extend_from_slice(&tail);
    let data_len = data.len() as u64;
    let index_off = data_len;
    let bloom_off = index_off + index.len() as u64;
    let meta_off = bloom_off + bloom.len() as u64;
    for v in [
        data_len,
        index_off,
        index.len() as u64,
        bloom_off,
        bloom.len() as u64,
        meta_off,
        meta.len() as u64,
    ] {
        file.extend_from_slice(&v.to_le_bytes());
    }
    file.extend_from_slice(&crc32(data).to_le_bytes());
    file.extend_from_slice(&crc32(&tail).to_le_bytes());
    file.extend_from_slice(magic);
    file
}

/// The four regions and the magic of a valid table file.
fn regions(file: &[u8]) -> [&[u8]; 5] {
    let data_len = footer_u64(file, 0) as usize;
    let bloom_off = footer_u64(file, 3) as usize;
    let meta_off = footer_u64(file, 5) as usize;
    let footer = file.len() - FOOTER_LEN;
    [
        &file[..data_len],
        &file[data_len..bloom_off],
        &file[bloom_off..meta_off],
        &file[meta_off..footer],
        &file[file.len() - 8..],
    ]
}

/// `Ok` or `Error::Corruption`; anything else fails the case.
fn clean<T>(r: Result<T, Error>, what: &str) -> Result<Option<T>, TestCaseError> {
    match r {
        Ok(v) => Ok(Some(v)),
        Err(Error::Corruption { .. }) => Ok(None),
        Err(e) => Err(TestCaseError::fail(format!("{what}: {e}"))),
    }
}

/// Open the table and drive every read path over it: point reads and
/// seeks at `probes`, a full scan and a data checksum check. Errors must
/// be corruption, scans must end, and the peak of live allocations must
/// stay within a small multiple of the file's size.
fn exercise(path: &Path, probes: &[&[u8]]) -> Result<(), TestCaseError> {
    let file_len = std::fs::metadata(path).unwrap().len();
    let mark = fabric_telemetry::alloc::span_enter().expect("counting allocator is installed");
    let result = drive(path, probes, file_len);
    let peak = fabric_telemetry::alloc::span_exit(mark).peak_bytes;
    result?;
    // Fixed buffers (`verify` reads 256 KiB at a time) plus a multiple of
    // the file; a size taken from a corrupt length field is far larger.
    let bound = 8 * file_len + (1 << 20);
    prop_assert!(
        peak <= bound,
        "peak live allocation {peak} B on a {file_len} B table"
    );
    Ok(())
}

fn drive(path: &Path, probes: &[&[u8]], file_len: u64) -> Result<(), TestCaseError> {
    let Some(table) = clean(SsTableReader::open(path), "open")? else {
        return Ok(());
    };
    // Every entry takes at least two bytes, so a scan that yields more
    // entries than the file has bytes is looping.
    let drain = |mut iter: fabric_kvstore::sstable::SsTableIter| -> Result<(), TestCaseError> {
        for _ in 0..=file_len {
            match clean(iter.next_entry(), "next_entry")? {
                Some(Some(_)) => continue,
                Some(None) | None => return Ok(()),
            }
        }
        Err(TestCaseError::fail("scan did not end"))
    };
    for key in probes {
        clean(table.get(key), "get")?;
        if let Some(iter) = clean(table.seek(key), "seek")? {
            drain(iter)?;
        }
    }
    drain(table.iter())?;
    clean(table.verify(), "verify")?;
    Ok(())
}

const PROBES: [&[u8]; 6] = [
    b"",
    b"key-000",
    b"key-017",
    b"key-0175",
    b"key-039",
    b"\xff",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn arbitrary_bytes_as_a_table_never_panic(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let f = TempFile::new("arbitrary", &data);
        exercise(&f.0, &PROBES)?;
    }

    #[test]
    fn arbitrary_regions_under_a_valid_footer_never_panic(
        data in prop::collection::vec(any::<u8>(), 0..256),
        index in prop::collection::vec(any::<u8>(), 0..64),
        bloom in prop::collection::vec(any::<u8>(), 0..64),
        meta in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        // Checksums and offsets all agree, so open parses whatever the
        // regions hold.
        let magic = regions(valid_table())[4];
        let f = TempFile::new("regions", &assemble(&data, &index, &bloom, &meta, magic));
        exercise(&f.0, &PROBES)?;
    }

    #[test]
    fn well_formed_regions_with_arbitrary_contents_never_panic(
        data in prop_oneof![
            1 => Just(Vec::new()),
            4 => prop::collection::vec(any::<u8>(), 1..256),
        ],
        index in prop::collection::vec(
            (prop::collection::vec(any::<u8>(), 0..6), prop_oneof![4 => 1u64..40, 1 => any::<u64>()]),
            0..8,
        ),
        (num_hashes, bits) in (0u32..31, prop::collection::vec(any::<u8>(), 0..16)),
        (min_key, max_key) in (
            prop_oneof![Just(Vec::new()), prop::collection::vec(any::<u8>(), 0..6)],
            prop_oneof![Just(vec![0xFF; 8]), prop::collection::vec(any::<u8>(), 0..6)],
        ),
        count in prop_oneof![0u64..50, any::<u64>()],
    ) {
        // Regions that parse but need not agree with each other or with
        // the data: a sparse index whose offsets start at 0 and mostly
        // ascend, a bloom filter, a key span that often covers the probes,
        // and a count. Most cases get past open to the reads.
        let mut index_region = Vec::new();
        let mut offset = 0u64;
        for (key, step) in &index {
            put_uvarint(&mut index_region, key.len() as u64);
            index_region.extend_from_slice(key);
            put_uvarint(&mut index_region, offset);
            offset = offset.wrapping_add(*step);
        }
        let bloom = [&num_hashes.to_le_bytes()[..], &bits].concat();
        let mut meta = Vec::new();
        for key in [&min_key, &max_key] {
            put_uvarint(&mut meta, key.len() as u64);
            meta.extend_from_slice(key);
        }
        put_uvarint(&mut meta, count);
        let magic = regions(valid_table())[4];
        let f = TempFile::new("parsed", &assemble(&data, &index_region, &bloom, &meta, magic));
        exercise(&f.0, &PROBES)?;
    }

    #[test]
    fn arbitrary_footer_offsets_never_panic(
        body in prop::collection::vec(any::<u8>(), 0..256),
        data_len in 0u64..256,
        lens in prop::collection::vec(prop_oneof![0u64..256, any::<u64>()], 3),
        crcs in any::<u64>(),
    ) {
        // Region offsets that chain (wrapping) from the lengths, some of
        // them near u64::MAX, under the right magic.
        let (index_len, bloom_len, meta_len) = (lens[0], lens[1], lens[2]);
        let bloom_off = data_len.wrapping_add(index_len);
        let meta_off = bloom_off.wrapping_add(bloom_len);
        let mut file = body;
        for v in [data_len, data_len, index_len, bloom_off, bloom_len, meta_off, meta_len, crcs] {
            file.extend_from_slice(&v.to_le_bytes());
        }
        file.extend_from_slice(regions(valid_table())[4]);
        let f = TempFile::new("footer", &file);
        exercise(&f.0, &PROBES)?;
    }

    #[test]
    fn valid_tail_over_arbitrary_data_never_panics(
        data in prop::collection::vec(any::<u8>(), 0..2048),
    ) {
        // A real sparse index pointing into a data region of random bytes
        // (usually of the wrong length).
        let [_, index, bloom, meta, magic] = regions(valid_table());
        let f = TempFile::new("tail", &assemble(&data, index, bloom, meta, magic));
        exercise(&f.0, &PROBES)?;
    }

    #[test]
    fn bit_flips_in_the_data_region_never_panic(
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..8),
    ) {
        let mut file = valid_table().to_vec();
        let data_len = footer_u64(&file, 0) as usize;
        for (pos, bit) in flips {
            file[pos % data_len] ^= 1 << bit;
        }
        let f = TempFile::new("flips", &file);
        exercise(&f.0, &PROBES)?;
    }

    #[test]
    fn a_cut_data_region_never_panics(cut in any::<usize>(), at_end in any::<bool>()) {
        // Drop bytes from the end or the start of the data region and
        // re-lay the file, so the (intact) sparse index points into or
        // past a data region that no longer matches it.
        let [data, index, bloom, meta, magic] = regions(valid_table());
        let keep = cut % data.len();
        let data = if at_end { &data[..keep] } else { &data[data.len() - keep..] };
        let f = TempFile::new("cut", &assemble(data, index, bloom, meta, magic));
        exercise(&f.0, &PROBES)?;
    }
}

#[test]
fn the_valid_table_reads_back_whole() {
    // The mutation cases start from this table; check it is what they
    // assume: it opens, every key reads back, and scans see all 40.
    let file = valid_table();
    let f = TempFile::new("whole", file);
    let table = SsTableReader::open(&f.0).unwrap();
    table.verify().unwrap();
    let mut iter = table.iter();
    let mut n = 0;
    while let Some(entry) = iter.next_entry().unwrap() {
        assert_eq!(entry.key, format!("key-{n:03}").as_bytes());
        n += 1;
    }
    assert_eq!(n, 40);
    let long = table.get(b"key-005").unwrap().unwrap();
    assert_eq!(long.as_value().unwrap().len(), 300);
    assert!(table.get(b"key-003").unwrap().unwrap().is_tombstone());
    // Re-laying the regions unchanged reproduces the file byte for byte.
    let [data, index, bloom, meta, magic] = regions(file);
    assert_eq!(assemble(data, index, bloom, meta, magic), file);
}
