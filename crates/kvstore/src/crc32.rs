//! CRC-32 (ISO-HDLC / zlib polynomial 0xEDB88320).
//!
//! Shared by the WAL and SSTable formats here and re-used by the ledger
//! crate's block framing. Implemented in-repo to keep the dependency set to
//! the approved list.
//!
//! Two paths compute the same function, chosen per call by
//! [`crc32_update`]:
//!
//! * **Carry-less multiply** (x86_64 with PCLMULQDQ and SSE4.1, inputs of
//!   64 bytes or more). The input is folded 4×128 bits at a time by
//!   multiplying by `x^k mod P` constants, then reduced 128 → 64 → 32 bits
//!   and finished by Barrett reduction: the scheme of Intel's "Fast CRC
//!   Computation for Generic Polynomials Using PCLMULQDQ" and Linux's
//!   `crc32-pclmul`. It takes any running state, so streamed chunks give
//!   the same answer as one call. Whole 16-byte blocks go through the
//!   kernel and the last `len % 16` bytes through the table loop.
//! * **Slicing-by-8** everywhere else, and as the fallback where the CPU
//!   lacks the instructions. `TABLES[0]` is the classic byte-at-a-time
//!   table; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
//!   bytes, so eight table lookups fold eight input bytes into the state
//!   at once.
//!
//! Both are bit-identical to the bitwise definition (the test module keeps
//! one as the reference), so the choice never shows in a file. The kernel
//! is safe code built from value-taking intrinsics; the one `unsafe` in
//! this crate is its call, made only after the CPU features it needs were
//! detected at run time.

/// Lazily-built lookup tables for slicing-by-8.
fn tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            }
        }
        t
    })
}

/// Compute the CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming update: feed successive chunks, starting from
/// `0xFFFF_FFFF`, and XOR the final state with `0xFFFF_FFFF`.
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && clmul::available() {
        let (body, tail) = data.split_at(data.len() & !15);
        #[allow(unsafe_code)]
        // SAFETY: `clmul::update` is only unsafe to call because it is
        // compiled for PCLMULQDQ and SSE4.1; `available()` just checked
        // that this CPU has both. It takes no pointers.
        let state = unsafe { clmul::update(state, body) };
        return crc32_update_scalar(state, tail);
    }
    crc32_update_scalar(state, data)
}

/// [`crc32_update`] by slicing-by-8 alone, on any CPU and any length.
fn crc32_update_scalar(state: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut c = state;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// The carry-less-multiply kernel. Every function is safe Rust compiled
/// for PCLMULQDQ and SSE4.1; loads assemble each 16-byte block from two
/// little-endian `i64`s, so no pointer is read.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Shortest input the kernel takes: the four 16-byte blocks it starts
    /// folding from. It beats the table loop from there on (release build,
    /// 2-vCPU x86_64: 7 ns against 24 ns at 64 bytes, 10 ns against 51 ns
    /// at 112).
    pub(super) const MIN_LEN: usize = 64;

    /// `(low, high)` multipliers, all bit-reflected `x^k mod P` (the
    /// constants of Linux `crc32-pclmul_asm.S`): fold 512 bits forward,
    /// fold 128 bits forward, fold 64 → 32 bits, and Barrett's `(P, μ)`.
    const FOLD_512: (i64, i64) = (0x1_5444_2BD4, 0x1_C6E4_1596);
    const FOLD_128: (i64, i64) = (0x1_7519_97D0, 0x0_CCAA_009E);
    const FOLD_64: (i64, i64) = (0x1_63CD_6124, 0);
    const BARRETT: (i64, i64) = (0x1_DB71_0641, 0x1_F701_1641);

    pub(super) fn available() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn pair((lo, hi): (i64, i64)) -> __m128i {
        _mm_set_epi64x(hi, lo)
    }

    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn load(block: &[u8]) -> __m128i {
        let half = |b: &[u8]| i64::from_le_bytes(b.try_into().expect("8-byte half"));
        _mm_set_epi64x(half(&block[8..16]), half(&block[..8]))
    }

    /// Carry `x` 128 (or 512) bits forward with multiplier `k` and add
    /// the block that sits there.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(x, k);
        let hi = _mm_clmulepi64_si128::<0x11>(x, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Advance the CRC state over `data`, whose length is a multiple of
    /// 16 and at least [`MIN_LEN`].
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) fn update(state: u32, data: &[u8]) -> u32 {
        assert!(
            data.len() >= MIN_LEN && data.len().is_multiple_of(16),
            "kernel input of {} bytes",
            data.len()
        );
        let mut blocks = data.chunks_exact(16);
        let mut x = [(); 4].map(|()| load(blocks.next().expect("four blocks")));
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));

        let k = pair(FOLD_512);
        while blocks.len() >= 4 {
            for xi in &mut x {
                *xi = fold(*xi, k, load(blocks.next().expect("counted")));
            }
        }
        let k = pair(FOLD_128);
        let mut acc = fold(fold(fold(x[0], k, x[1]), k, x[2]), k, x[3]);
        for block in blocks {
            acc = fold(acc, k, load(block));
        }

        // 128 → 64 bits (also appends the 32 zero bits a CRC implies).
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(acc, k),
            _mm_srli_si128::<8>(acc),
        );
        // 64 → 32 bits.
        let mask = pair((0xFFFF_FFFF, 0));
        acc = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, mask), pair(FOLD_64)),
            _mm_srli_si128::<4>(acc),
        );
        // Barrett reduction to the 32-bit remainder.
        let pu = pair(BARRETT);
        let q = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, mask), pu);
        let r = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(q, mask), pu);
        _mm_extract_epi32::<1>(_mm_xor_si128(r, acc)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bitwise CRC update, built from the polynomial with no table:
    /// the reference both paths are held against.
    fn reference_update(mut c: u32, data: &[u8]) -> u32 {
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        c
    }

    fn reference(data: &[u8]) -> u32 {
        reference_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
    }

    /// `reference(&data[..len])` for every `len` in `0..=data.len()`, in
    /// one pass.
    fn reference_prefixes(data: &[u8]) -> Vec<u32> {
        let mut c = 0xFFFF_FFFF;
        let mut out = vec![c ^ 0xFFFF_FFFF];
        for b in data.chunks(1) {
            c = reference_update(c, b);
            out.push(c ^ 0xFFFF_FFFF);
        }
        out
    }

    /// Deterministic pseudo-random bytes (xorshift64), so the tests need
    /// no random-number crate.
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard zlib CRC-32 test vectors, the short ones through the
        // table loop and 1 KiB of one byte through the kernel.
        let vectors: [(&[u8], u32); 7] = [
            (b"", 0x0000_0000),
            (b"a", 0xE8B7_BE43),
            (b"abc", 0x3524_41C2),
            (b"123456789", 0xCBF4_3926),
            (b"The quick brown fox jumps over the lazy dog", 0x414F_A339),
            (&[0u8; 1024], 0xEFB5_AF2E),
            (&[0xFFu8; 1024], 0xB83A_FFF4),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32(data), want, "len={}", data.len());
            assert_eq!(
                crc32_update_scalar(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF,
                want,
                "scalar len={}",
                data.len()
            );
        }
    }

    #[test]
    fn matches_reference_for_every_length_up_to_1024() {
        let data = noise(1024 + 16, 0x9E37_79B9_7F4A_7C15);
        for start in 0..16 {
            let want = reference_prefixes(&data[start..start + 1024]);
            for (len, want) in want.iter().enumerate() {
                let got = crc32(&data[start..start + len]);
                assert_eq!(got, *want, "start={start} len={len}");
            }
        }
    }

    #[test]
    fn matches_reference_at_every_start_offset() {
        let data = noise(64 * 1024, 0xDEAD_BEEF);
        for start in 0..16 {
            assert_eq!(
                crc32(&data[start..]),
                reference(&data[start..]),
                "start={start}"
            );
        }
    }

    #[test]
    fn scalar_path_matches_reference() {
        // Held on its own: where the kernel runs, `crc32` never reaches
        // the table loop for long inputs, and this is still the fallback.
        let data = noise(1024 + 8, 0xC0FF_EE00);
        for start in 0..8 {
            let want = reference_prefixes(&data[start..start + 1024]);
            for (len, want) in want.iter().enumerate() {
                let got = crc32_update_scalar(0xFFFF_FFFF, &data[start..start + len]);
                assert_eq!(got ^ 0xFFFF_FFFF, *want, "start={start} len={len}");
            }
        }
    }

    #[test]
    fn matches_reference_at_fold_edges() {
        // Just under, at and just over the kernel's minimum, its 16-byte
        // steps and its 64-byte folds, and long inputs with a tail.
        let lens = [
            63,
            64,
            65,
            79,
            80,
            127,
            128,
            129,
            143,
            144,
            191,
            192,
            255,
            256,
            4095,
            4096,
            4097,
            64 * 1024 + 7,
        ];
        let data = noise(64 * 1024 + 7, 0xDEAD_BEEF);
        for len in lens {
            let want = reference(&data[..len]);
            assert_eq!(crc32(&data[..len]), want, "len={len}");
            let scalar = crc32_update_scalar(0xFFFF_FFFF, &data[..len]) ^ 0xFFFF_FFFF;
            assert_eq!(scalar, want, "scalar len={len}");
        }
    }

    #[test]
    fn streaming_in_random_chunks_matches_reference() {
        // Cuts up to 299 bytes land on both sides of every 16-, 64- and
        // 128-byte boundary, so chunks alternate between the table loop
        // and the kernel, each resuming the other's running state.
        let data = noise(16 * 1024, 42);
        let mut cuts = noise(512, 7).into_iter().cycle();
        for start_state in [0xFFFF_FFFF, 0, 0x1234_5678, 0xA5A5_5A5A] {
            let want = reference_update(start_state, &data);
            for _ in 0..20 {
                let mut st = start_state;
                let mut rest = &data[..];
                while !rest.is_empty() {
                    let cut = usize::from(cuts.next().unwrap()) + usize::from(cuts.next().unwrap());
                    let n = (cut % 300).min(rest.len());
                    st = crc32_update(st, &rest[..n]);
                    rest = &rest[n..];
                }
                assert_eq!(st, want, "start_state={start_state:#x}");
            }
        }
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"hello world, this is a streaming crc test";
        let whole = crc32(data);
        let mut st = 0xFFFF_FFFF;
        for chunk in data.chunks(7) {
            st = crc32_update(st, chunk);
        }
        assert_eq!(st ^ 0xFFFF_FFFF, whole);
    }

    #[test]
    fn detects_single_bit_flip() {
        for len in [18, 4096] {
            let mut data = noise(len, 3);
            let before = crc32(&data);
            data[5] ^= 0x10;
            assert_ne!(before, crc32(&data), "len={len}");
        }
    }
}
