//! Differential tests of szip's byte kernels — CRC-32, the LZSS block
//! decoder and the LZSS block encoder — against plain bytewise reference
//! implementations kept here, plus golden digests of the compressed output
//! so a faster encoder cannot drift by a single byte. Inputs come from
//! simkit's deterministic RNG and oskit's fill profiles: every profile,
//! IdleHog-style runs of 512 equal bytes, and random bytes, at lengths
//! around the 16-byte CRC stride and the 64 KiB block size.

use oskit::mem::FillProfile;
use simkit::DetRng;
use szip::lzss::{self, BlockError, Scratch, MIN_MATCH};
use szip::stream::BLOCK;

/// Bitwise CRC-32/IEEE, one byte at a time: the oracle for the table kernel.
fn crc_ref(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c ^= b as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    c ^ 0xFFFF_FFFF
}

/// The byte-at-a-time block decoder the bulk-copy kernel must agree with,
/// result for result (same variant, same fields) and byte for byte.
fn decode_ref(payload: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<(), BlockError> {
    let base = out.len();
    let target = base + raw_len;
    let mut i = 0usize;
    while out.len() < target {
        if i >= payload.len() {
            return Err(BlockError::Truncated);
        }
        let ctrl = payload[i];
        i += 1;
        for bit in 0..8 {
            if out.len() >= target {
                break;
            }
            if ctrl & (1 << bit) != 0 {
                if i + 3 > payload.len() {
                    return Err(BlockError::Truncated);
                }
                let off = payload[i] as usize | ((payload[i + 1] as usize) << 8);
                let len = payload[i + 2] as usize + MIN_MATCH;
                i += 3;
                let pos = out.len();
                if off == 0 || off > pos - base {
                    return Err(BlockError::BadOffset { at: pos });
                }
                for k in 0..len {
                    let b = out[pos - off + k];
                    out.push(b);
                }
            } else {
                if i >= payload.len() {
                    return Err(BlockError::Truncated);
                }
                out.push(payload[i]);
                i += 1;
            }
        }
    }
    if out.len() != target {
        return Err(BlockError::WrongLength {
            expected: raw_len,
            got: out.len() - base,
        });
    }
    Ok(())
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The IdleHog ballast shape: a new pseudo-random byte every 512 bytes.
fn idlehog(seed: u64, len: usize) -> Vec<u8> {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    (0..len)
        .map(|j| {
            if j % 512 == 0 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407 ^ seed);
            }
            (x >> 56) as u8
        })
        .collect()
}

fn random(seed: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    DetRng::seed_from_u64(seed).fill_bytes(&mut v);
    v
}

const FAMILIES: [&str; 7] = ["zeros", "random", "text", "code", "mixed", "idlehog", "rng"];
const LENGTHS: [usize; 12] = [
    0,
    1,
    15,
    16,
    17,
    31,
    33,
    4099,
    BLOCK - 1,
    BLOCK,
    BLOCK + 1,
    3 * BLOCK + 17,
];

fn family(name: &str, seed: u64, len: usize) -> Vec<u8> {
    let mixed = FillProfile::Mixed {
        zero_pct: 30,
        text_pct: 30,
        code_pct: 20,
    };
    match name {
        "zeros" => FillProfile::Zeros.bytes(seed, len),
        "random" => FillProfile::Random.bytes(seed, len),
        "text" => FillProfile::Text.bytes(seed, len),
        "code" => FillProfile::Code.bytes(seed, len),
        "mixed" => mixed.bytes(seed, len),
        "idlehog" => idlehog(seed, len),
        "rng" => random(seed, len),
        _ => unreachable!("unknown family {name}"),
    }
}

/// Every (family, length) input, in `GOLDEN` order.
fn cases() -> Vec<(String, Vec<u8>)> {
    let mut out = Vec::new();
    for (f, name) in FAMILIES.iter().enumerate() {
        for &len in &LENGTHS {
            out.push((format!("{name}/{len}"), family(name, 7 + f as u64, len)));
        }
    }
    out
}

/// `(case, compressed length, FNV-1a 64 of the compressed bytes)` of
/// `szip::compress` on every case, recorded from the bytewise encoder.
const GOLDEN: [(&str, usize, u64); 84] = [
    ("zeros/0", 4, 0xd50bb3248b4bb523),
    ("zeros/1", 8, 0xd9d37a946af3736b),
    ("zeros/15", 12, 0xbefe7f7e69993f9a),
    ("zeros/16", 12, 0x99c1d8a6541e3e00),
    ("zeros/17", 12, 0xab9aa85ea0728e22),
    ("zeros/31", 12, 0xaeab000f188dfcda),
    ("zeros/33", 12, 0xdc9566ac9394c322),
    ("zeros/4099", 60, 0x72d15e0365ae06f9),
    ("zeros/65535", 808, 0x9a9ffe3cc5a230a8),
    ("zeros/65536", 808, 0x838c9add6eacb01a),
    ("zeros/65537", 812, 0x7276807408b7b022),
    ("zeros/196625", 2424, 0xb06000a3cfa6635f),
    ("random/0", 4, 0xd50bb3248b4bb523),
    ("random/1", 8, 0xd9d3b7946af3db12),
    ("random/15", 22, 0x8fba9e02a6b7ce62),
    ("random/16", 23, 0x143dce89c82ec70e),
    ("random/17", 24, 0x6a03fb5eb6cf1c01),
    ("random/31", 38, 0x7cecd7d37e744948),
    ("random/33", 40, 0x4f693934d09a2619),
    ("random/4099", 4108, 0xf1ba773e4407a53f),
    ("random/65535", 65546, 0x3f2717966e1d8f8c),
    ("random/65536", 65547, 0x896b7149d8a763f6),
    ("random/65537", 65551, 0x44b72ae350592171),
    ("random/196625", 196653, 0x281bb93301a1d506),
    ("text/0", 4, 0xd50bb3248b4bb523),
    ("text/1", 8, 0xd9d32e946af2f247),
    ("text/15", 22, 0xcbf697fe7be2e708),
    ("text/16", 23, 0xd1ab2e6f3991066a),
    ("text/17", 24, 0x215fa68e7a954377),
    ("text/31", 31, 0x965970254502eacc),
    ("text/33", 32, 0xf88ff0b49432ac82),
    ("text/4099", 738, 0xa2746ae02dcf512c),
    ("text/65535", 8045, 0xc5c6966361c28392),
    ("text/65536", 8045, 0xdf271030e4c5859c),
    ("text/65537", 8049, 0xb63e2362097e3a73),
    ("text/196625", 24027, 0x4e2c74cf7655d37b),
    ("code/0", 4, 0xd50bb3248b4bb523),
    ("code/1", 8, 0xd9d33e946af30d77),
    ("code/15", 22, 0x8d72805e5df14027),
    ("code/16", 23, 0x9fb857545aaf4f4d),
    ("code/17", 24, 0x5acf38d38ac58a63),
    ("code/31", 38, 0xe38e86c49011a3b2),
    ("code/33", 40, 0x2b392fd23c054c46),
    ("code/4099", 1864, 0xd3b0a84de6c3cdd4),
    ("code/65535", 24106, 0x364936d569cbc146),
    ("code/65536", 24107, 0xd8d6bbf99e525484),
    ("code/65537", 24111, 0xb1c40e3f503a0e20),
    ("code/196625", 71804, 0xe952b1858237d728),
    ("mixed/0", 4, 0xd50bb3248b4bb523),
    ("mixed/1", 8, 0xd9d37a946af3736b),
    ("mixed/15", 12, 0xbefe7f7e69993f9a),
    ("mixed/16", 12, 0x99c1d8a6541e3e00),
    ("mixed/17", 12, 0xab9aa85ea0728e22),
    ("mixed/31", 12, 0xaeab000f188dfcda),
    ("mixed/33", 12, 0xdc9566ac9394c322),
    ("mixed/4099", 63, 0xf5630660a34fc573),
    ("mixed/65535", 32983, 0x4eec7da91f0cb6ff),
    ("mixed/65536", 32983, 0x7852d367049d301d),
    ("mixed/65537", 32987, 0x7aa1de516a2bb305),
    ("mixed/196625", 90742, 0x8606bf4cece1cc61),
    ("idlehog/0", 4, 0xd50bb3248b4bb523),
    ("idlehog/1", 8, 0xd9d356946af3363f),
    ("idlehog/15", 12, 0x3f93ae94fbb89fbe),
    ("idlehog/16", 12, 0x1957514d105106ec),
    ("idlehog/17", 12, 0x2adae18ac001201e),
    ("idlehog/31", 12, 0x2f400f25aaad269e),
    ("idlehog/33", 12, 0x5d2a7dc325b3fa7e),
    ("idlehog/4099", 71, 0xc6d33f701caa6e8c),
    ("idlehog/65535", 1005, 0xab08423e58217423),
    ("idlehog/65536", 1005, 0x7c68c6301aa83f7b),
    ("idlehog/65537", 1009, 0x3cdd62cac82f2361),
    ("idlehog/196625", 3033, 0x7f642f0150fba822),
    ("rng/0", 4, 0xd50bb3248b4bb523),
    ("rng/1", 8, 0xd9d3cf946af403da),
    ("rng/15", 22, 0x1b44ebac9c34712a),
    ("rng/16", 23, 0x51fdb94559e3a74e),
    ("rng/17", 24, 0xcfa8522a8ad7772e),
    ("rng/31", 38, 0x2d0f5ac697a00aa1),
    ("rng/33", 40, 0xc9732d38e954d296),
    ("rng/4099", 4108, 0xc64111b9324e70bb),
    ("rng/65535", 65546, 0x5828158e7c760f9d),
    ("rng/65536", 65547, 0x85057513e9582971),
    ("rng/65537", 65551, 0xd59125501d912f6e),
    ("rng/196625", 196653, 0x1cf6de9859b8f261),
];

#[test]
fn crc_matches_bytewise_reference() {
    for (name, input) in cases() {
        assert_eq!(szip::crc32(&input), crc_ref(&input), "{name}");
    }
}

#[test]
fn crc_chunking_is_invisible() {
    // Every split of a short input, straddling the 16-byte stride.
    let short = random(1, 70);
    let whole = crc_ref(&short);
    for a in 0..=short.len() {
        for b in a..=short.len() {
            let mut c = szip::Crc32::new();
            c.update(&short[..a]);
            c.update(&short[a..b]);
            c.update(&short[b..]);
            assert_eq!(c.finish(), whole, "splits at {a}, {b}");
        }
    }
    // Random chunkings of every case.
    let mut rng = DetRng::seed_from_u64(0x5A1F_C8C0);
    for (name, input) in cases() {
        let mut c = szip::Crc32::new();
        let mut rest = &input[..];
        while !rest.is_empty() {
            let take = (rng.range(0, 40) as usize).min(rest.len());
            c.update(&rest[..take]);
            rest = &rest[take..];
        }
        assert_eq!(c.finish(), crc_ref(&input), "{name}");
    }
}

#[test]
fn compress_matches_golden_digests() {
    let got: Vec<(String, usize, u64)> = cases()
        .into_iter()
        .map(|(name, input)| {
            let comp = szip::compress(&input);
            assert_eq!(szip::decompress(&comp).unwrap(), input, "{name} round trip");
            assert_eq!(
                szip::compressed_len(&input),
                comp.len() as u64,
                "{name} counting"
            );
            (name, comp.len(), fnv1a64(&comp))
        })
        .collect();
    assert_eq!(got.len(), GOLDEN.len());
    for ((name, len, digest), (g_name, g_len, g_digest)) in got.iter().zip(GOLDEN) {
        assert_eq!(name, g_name);
        assert_eq!((*len, *digest), (g_len, g_digest), "{name}");
    }
}

/// Decode with both kernels, into an empty output and behind a prefix
/// (a previous block's bytes, which a match must never reach), and demand
/// the same result and, on success, the same bytes.
fn assert_same_decode(payload: &[u8], raw_len: usize, what: &str) {
    for prefix in [&[][..], &[0xAB; 300][..]] {
        let mut fast = prefix.to_vec();
        let mut slow = prefix.to_vec();
        let r_fast = lzss::decompress_block(payload, raw_len, &mut fast);
        let r_slow = decode_ref(payload, raw_len, &mut slow);
        assert_eq!(r_fast, r_slow, "{what} (prefix {})", prefix.len());
        if r_slow.is_ok() {
            assert!(fast == slow, "{what}: output differs");
        }
    }
}

/// Cut points to try on a payload: all of them when it is short, else an
/// even spread plus both ends.
fn points(len: usize, budget: usize) -> Vec<usize> {
    if len <= budget {
        return (0..len).collect();
    }
    let mut v: Vec<usize> = (0..budget).map(|k| k * len / budget).collect();
    v.extend(len.saturating_sub(16)..len);
    v
}

#[test]
fn block_decoder_matches_reference_on_corruption() {
    let mut rng = DetRng::seed_from_u64(0x5A1F_DEC0);
    let mut scratch = Scratch::new();
    for (f, name) in FAMILIES.iter().enumerate() {
        for len in [1, 17, 600, 4099, BLOCK] {
            let input = family(name, 100 + f as u64, len);
            let mut payload = Vec::new();
            lzss::compress_block(&input, &mut scratch, &mut payload);
            let what = format!("{name}/{len}");
            assert_same_decode(&payload, len, &what);
            let budget = if len == BLOCK { 64 } else { 1024 };
            for cut in points(payload.len(), budget) {
                assert_same_decode(&payload[..cut], len, &format!("{what} cut {cut}"));
            }
            for at in points(payload.len(), budget) {
                let mut bad = payload.clone();
                bad[at] ^= rng.range(1, 256) as u8;
                assert_same_decode(&bad, len, &format!("{what} flip {at}"));
            }
            // A declared size off by a little either way.
            for raw in [len.saturating_sub(1), len + 1, len + MIN_MATCH] {
                assert_same_decode(&payload, raw, &format!("{what} raw_len {raw}"));
            }
        }
    }
}

#[test]
fn block_decoder_matches_reference_on_garbage() {
    let mut rng = DetRng::seed_from_u64(0x5A1F_6A2B);
    for case in 0..2000 {
        let plen = rng.below(64) as usize;
        let mut payload = random(rng.next_u64(), plen);
        // Bias some cases towards small offsets, the overlapping copies.
        if case % 2 == 0 {
            for b in payload.iter_mut().skip(1).step_by(4) {
                *b %= 8;
            }
        }
        let raw_len = rng.below(400) as usize;
        assert_same_decode(&payload, raw_len, &format!("garbage case {case}"));
    }
}

#[test]
fn overlapping_matches_at_every_period() {
    // One literal run of `off` bytes, then a match of every length at that
    // offset: exercises the bulk, run-fill and doubling copy paths.
    for off in 1..=20usize {
        for len in MIN_MATCH..=40 {
            let mut payload = Vec::new();
            let mut ctrl_at = 0;
            for k in 0..=off {
                if k % 8 == 0 {
                    ctrl_at = payload.len();
                    payload.push(0);
                }
                if k < off {
                    payload.push(k as u8 + 1);
                } else {
                    payload[ctrl_at] |= 1 << (k % 8);
                    payload.extend_from_slice(&[off as u8, 0, (len - MIN_MATCH) as u8]);
                }
            }
            for raw in [off + len, off + len - 1, off + len + 1] {
                assert_same_decode(&payload, raw, &format!("off {off} len {len} raw {raw}"));
            }
        }
    }
}
