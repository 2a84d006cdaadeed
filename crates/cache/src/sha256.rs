//! In-tree SHA-256 (FIPS 180-4), tuned for multi-megabyte inputs.
//!
//! The rewrite cache is keyed by a digest over untrusted, multi-megabyte
//! binaries, so the hash sits on the warm hot path: a slow digest makes a
//! cache *hit* lose to an uncached rewrite. Two compression back ends,
//! selected once per absorb at runtime:
//!
//! * **SHA-NI** (`sha256rnds2`/`sha256msg1`/`sha256msg2` intrinsics) when
//!   the CPU reports the `sha` feature — ~2 cycles/byte, comfortably past
//!   the 1 GiB/s budget on any machine that has the extension.
//! * A **fully unrolled scalar** fallback: all 64 rounds expanded with a
//!   rotating register assignment (no per-round array shuffling) over a
//!   precomputed message schedule.
//!
//! Both absorb whole runs of blocks per call (`compress_blocks`), so
//! `update` on a large slice does one dispatch and one buffer-management
//! pass, not one per 64-byte block.
//!
//! Correctness is pinned two ways: the NIST FIPS 180-4 test vectors
//! (empty, `"abc"`, the two-block message, one million `'a'`s) as unit
//! tests below, and an `e9qcheck` property (`tests/sha_props.rs`) that
//! hashing any random chunking of a message incrementally equals the
//! one-shot digest — which also forces the scalar and SHA-NI paths to
//! agree block-for-block.

/// A SHA-256 digest.
pub type Digest = [u8; 32];

/// Round constants (FIPS 180-4 §4.2.2): first 32 bits of the fractional
/// parts of the cube roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state (§5.3.3): first 32 bits of the fractional parts of
/// the square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Compress every 64-byte block in `blocks` into `state`, dispatching to
/// the SHA-NI back end when available. `blocks.len()` must be a multiple
/// of 64; callers absorb as many whole blocks per call as they can so the
/// dispatch and bounds handling are paid once per slice, not per block.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if shani_available() {
        // Safety: feature presence checked at runtime, length multiple of
        // 64 checked above.
        unsafe { shani::compress_blocks(state, blocks) };
        return;
    }
    for block in blocks.chunks_exact(64) {
        compress_scalar(state, block.try_into().expect("exact 64-byte chunk"));
    }
}

#[cfg(target_arch = "x86_64")]
fn shani_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        std::arch::is_x86_feature_detected!("sha")
            && std::arch::is_x86_feature_detected!("ssse3")
            && std::arch::is_x86_feature_detected!("sse4.1")
    })
}

/// Scalar fallback: all 64 rounds unrolled with a rotating register
/// assignment, so the working variables never move — each round writes
/// exactly two of them and the "rotation" is done by permuting macro
/// arguments at expansion time.
fn compress_scalar(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;

    // One round: h absorbs the message word, d and h are updated in
    // place; callers pass the 8 registers rotated one position per round.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident,
         $e:ident, $f:ident, $g:ident, $h:ident, $t:expr) => {{
            let big_s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 = $h
                .wrapping_add(big_s1)
                .wrapping_add(ch)
                .wrapping_add(K[$t])
                .wrapping_add(w[$t]);
            let big_s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            let t2 = big_s0.wrapping_add(maj);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(t2);
        }};
    }

    // Eight rounds cover a full rotation of the register file.
    macro_rules! round8 {
        ($base:expr) => {{
            round!(a, b, c, d, e, f, g, h, $base);
            round!(h, a, b, c, d, e, f, g, $base + 1);
            round!(g, h, a, b, c, d, e, f, $base + 2);
            round!(f, g, h, a, b, c, d, e, $base + 3);
            round!(e, f, g, h, a, b, c, d, $base + 4);
            round!(d, e, f, g, h, a, b, c, $base + 5);
            round!(c, d, e, f, g, h, a, b, $base + 6);
            round!(b, c, d, e, f, g, h, a, $base + 7);
        }};
    }

    round8!(0);
    round8!(8);
    round8!(16);
    round8!(24);
    round8!(32);
    round8!(40);
    round8!(48);
    round8!(56);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Intel SHA extensions back end. The round function runs in hardware
/// (`sha256rnds2` retires two rounds per instruction) and the message
/// schedule is produced by `sha256msg1`/`sha256msg2` with one `palignr`
/// fix-up — the standard single-block dataflow, iterated over the whole
/// slice so the ABEF/CDGH state registers stay live across blocks.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;

    /// Next four schedule words from the previous sixteen (`m0` oldest).
    #[inline(always)]
    unsafe fn schedule(m0: __m128i, m1: __m128i, m2: __m128i, m3: __m128i) -> __m128i {
        let carry = _mm_alignr_epi8(m3, m2, 4);
        _mm_sha256msg2_epu32(_mm_add_epi32(_mm_sha256msg1_epu32(m0, m1), carry), m3)
    }

    /// # Safety
    /// Requires the `sha`, `ssse3` and `sse4.1` CPU features and
    /// `blocks.len() % 64 == 0`.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub unsafe fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // Big-endian word loads: reverse bytes within each 32-bit lane.
        let byteswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0bu64 as i64, 0x0405_0607_0001_0203);

        // Repack [a b c d | e f g h] into the ABEF/CDGH registers the
        // sha256rnds2 instruction operates on.
        let dcba = _mm_loadu_si128(state.as_ptr() as *const __m128i);
        let hgfe = _mm_loadu_si128(state.as_ptr().add(4) as *const __m128i);
        let badc = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(badc, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, badc, 0xf0);

        let k = |i: usize| _mm_loadu_si128(K.as_ptr().add(i) as *const __m128i);

        for block in blocks.chunks_exact(64) {
            let abef_save = abef;
            let cdgh_save = cdgh;

            macro_rules! rounds4 {
                ($wk:expr) => {{
                    let wk = $wk;
                    cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                    abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
                }};
            }

            let p = block.as_ptr() as *const __m128i;
            let mut m0 = _mm_shuffle_epi8(_mm_loadu_si128(p), byteswap);
            let mut m1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), byteswap);
            let mut m2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), byteswap);
            let mut m3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), byteswap);

            // Rounds 0-15 consume the raw message words.
            rounds4!(_mm_add_epi32(m0, k(0)));
            rounds4!(_mm_add_epi32(m1, k(4)));
            rounds4!(_mm_add_epi32(m2, k(8)));
            rounds4!(_mm_add_epi32(m3, k(12)));

            // Rounds 16-63: extend the schedule four words at a time.
            let mut t = 16;
            while t < 64 {
                m0 = schedule(m0, m1, m2, m3);
                rounds4!(_mm_add_epi32(m0, k(t)));
                (m0, m1, m2, m3) = (m1, m2, m3, m0);
                t += 4;
            }

            abef = _mm_add_epi32(abef, abef_save);
            cdgh = _mm_add_epi32(cdgh, cdgh_save);
        }

        // Unpack ABEF/CDGH back into [a..h].
        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);
        _mm_storeu_si128(state.as_mut_ptr() as *mut __m128i, dcba);
        _mm_storeu_si128(state.as_mut_ptr().add(4) as *mut __m128i, hgfe);
    }
}

/// Incremental SHA-256 hasher.
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Partial block awaiting 64 bytes.
    buf: [u8; 64],
    buf_len: usize,
    /// Total message length in bytes (messages ≥ 2^61 bytes are out of
    /// scope; the length is folded into the padding modulo 2^64 bits).
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Sha256 {
        Sha256::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Sha256 {
        Sha256 {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`. Whole blocks are compressed straight from the input
    /// slice in a single back-end call; only a trailing partial block is
    /// staged in the internal buffer.
    pub fn update(&mut self, data: &[u8]) {
        let mut data = data;
        self.total_len = self.total_len.wrapping_add(data.len() as u64);

        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress_blocks(&mut self.state, &block);
                self.buf_len = 0;
            }
        }

        let whole = data.len() & !63;
        if whole > 0 {
            compress_blocks(&mut self.state, &data[..whole]);
            data = &data[whole..];
        }

        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Pad (§5.1.1) and produce the digest, consuming the hasher.
    pub fn finish(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);
        // 0x80, zeros, then the 64-bit big-endian length — one block if
        // the partial fits with 8 length bytes to spare, two otherwise.
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let total = if self.buf_len < 56 { 64 } else { 128 };
        tail[total - 8..total].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &tail[..total]);

        let mut out = [0u8; 32];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state.iter()) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot digest of `data`.
pub fn digest(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

/// Lowercase hex of a digest (64 chars), via nibble lookup — this runs
/// once per cache operation and must not dominate tiny lookups.
pub fn hex(digest: &Digest) -> String {
    const LUT: &[u8; 16] = b"0123456789abcdef";
    let mut out = Vec::with_capacity(64);
    for &byte in digest {
        out.push(LUT[(byte >> 4) as usize]);
        out.push(LUT[(byte & 0x0f) as usize]);
    }
    String::from_utf8(out).expect("hex is ASCII")
}

/// Parse a 64-char lowercase/uppercase hex string back into a digest.
pub fn from_hex(s: &str) -> Option<Digest> {
    if s.len() != 64 {
        return None;
    }
    let mut out = [0u8; 32];
    let bytes = s.as_bytes();
    for (i, slot) in out.iter_mut().enumerate() {
        let hi = (bytes[2 * i] as char).to_digit(16)?;
        let lo = (bytes[2 * i + 1] as char).to_digit(16)?;
        *slot = ((hi << 4) | lo) as u8;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex_digest(data: &[u8]) -> String {
        hex(&digest(data))
    }

    #[test]
    fn nist_vector_empty() {
        assert_eq!(
            hex_digest(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_vector_abc() {
        assert_eq!(
            hex_digest(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_vector_two_block() {
        assert_eq!(
            hex_digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_vector_896_bit() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                    hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hex_digest(msg),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn nist_vector_million_a() {
        // Fed in awkward chunks to exercise the buffering path.
        let mut h = Sha256::new();
        let chunk = [b'a'; 997];
        let mut remaining = 1_000_000usize;
        while remaining > 0 {
            let take = remaining.min(chunk.len());
            h.update(&chunk[..take]);
            remaining -= take;
        }
        assert_eq!(
            hex(&h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_one_shot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        let mut h = Sha256::new();
        h.update(&data[..1]);
        h.update(&data[1..64]);
        h.update(&data[64..65]);
        h.update(&data[65..]);
        assert_eq!(h.finish(), digest(&data));
    }

    #[test]
    fn scalar_and_dispatch_agree() {
        // Run the scalar compressor directly against the dispatching
        // front door on multi-block input; on SHA-NI hosts this pins the
        // two back ends to each other, elsewhere it is a self-check.
        let data: Vec<u8> = (0..4096u32)
            .map(|i| i.wrapping_mul(2654435761) as u8)
            .collect();
        let mut scalar_state = H0;
        for block in data.chunks_exact(64) {
            compress_scalar(&mut scalar_state, block.try_into().unwrap());
        }
        let mut dispatch_state = H0;
        compress_blocks(&mut dispatch_state, &data);
        assert_eq!(scalar_state, dispatch_state);
    }

    #[test]
    fn hex_round_trip() {
        let d = digest(b"round trip");
        assert_eq!(from_hex(&hex(&d)), Some(d));
        assert_eq!(from_hex("zz"), None);
        assert_eq!(from_hex(&"g".repeat(64)), None);
    }
}
