//! The persistent hook manifest: a read-only table emitted into the
//! rewritten binary recording every installed hook, so hooks remain
//! enumerable post-rewrite (by `e9tool info`-style tooling, by the guest
//! itself, or by a later re-instrumentation pass).
//!
//! ## Format
//!
//! The manifest lives in its own loadable segment that begins with the
//! 8-byte magic, so it can be located by scanning segment starts — no
//! section headers required (they may be stripped).
//!
//! ```text
//! offset  size  field
//! 0       8     magic "E9HOOK\0\x01" (version in last byte)
//! 8       4     record count (u32 LE)
//! 12      ...   records
//! ```
//!
//! Each record:
//!
//! ```text
//! 0       4     hook id (u32 LE, dense from 0 in address order)
//! 4       4     flags (bit 0 = call-original)
//! 8       8     hooked function entry address
//! 16      8     payload address
//! 24      8     call-original thunk address (0 = none)
//! 32      8     counter cell address (0 = none)
//! 40      4     symbol name length (u32 LE)
//! 44      n     symbol name bytes (UTF-8, no terminator)
//! ```
//!
//! All multi-byte fields are little-endian. The decoder is defensive:
//! every read is bounds-checked and all arithmetic is `checked_*`, since
//! manifests may be read back out of untrusted (or hostile) binaries.

use e9elf::Elf;
use std::fmt;

/// Manifest magic: `E9HOOK`, NUL, format version 1.
pub const MAGIC: &[u8; 8] = b"E9HOOK\0\x01";

/// Flag bit: the hook has a call-original thunk.
pub const FLAG_CALL_ORIGINAL: u32 = 1;

/// Fixed-size prefix of one record (everything before the name bytes).
pub const RECORD_FIXED: usize = 44;

/// Decoded upper bound on records — a manifest bigger than this is
/// rejected as malformed rather than allocated for.
pub const MAX_RECORDS: u32 = 1_000_000;

/// One decoded manifest record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HookRecord {
    /// Dense hook id, assigned in function-address order.
    pub id: u32,
    /// Flag bits ([`FLAG_CALL_ORIGINAL`]).
    pub flags: u32,
    /// Entry address of the hooked function.
    pub func_addr: u64,
    /// Address of the payload the hook calls.
    pub payload_addr: u64,
    /// Address of the call-original thunk, 0 when the hook has none.
    pub thunk_addr: u64,
    /// Address of the hook's counter cell, 0 when the payload keeps none.
    pub counter_addr: u64,
    /// Symbol name the hook was planned from (may be a synthesized
    /// `0x...` name for explicit-address hooks on stripped binaries).
    pub name: String,
}

impl HookRecord {
    /// Does this hook carry a call-original thunk?
    pub fn is_call_original(&self) -> bool {
        self.flags & FLAG_CALL_ORIGINAL != 0
    }
}

/// Manifest decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestError {
    /// The bytes do not start with [`MAGIC`].
    BadMagic,
    /// A length or count field points past the end of the manifest.
    Truncated,
    /// The record count exceeds [`MAX_RECORDS`].
    TooManyRecords(u32),
    /// A name is not valid UTF-8.
    BadName,
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::BadMagic => write!(f, "hook manifest magic missing"),
            ManifestError::Truncated => write!(f, "hook manifest truncated"),
            ManifestError::TooManyRecords(n) => {
                write!(f, "hook manifest claims {n} records (max {MAX_RECORDS})")
            }
            ManifestError::BadName => write!(f, "hook manifest name is not UTF-8"),
        }
    }
}

impl std::error::Error for ManifestError {}

/// Serialize `records` into manifest bytes.
pub fn encode(records: &[HookRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(12 + records.len() * (RECORD_FIXED + 16));
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for r in records {
        out.extend_from_slice(&r.id.to_le_bytes());
        out.extend_from_slice(&r.flags.to_le_bytes());
        out.extend_from_slice(&r.func_addr.to_le_bytes());
        out.extend_from_slice(&r.payload_addr.to_le_bytes());
        out.extend_from_slice(&r.thunk_addr.to_le_bytes());
        out.extend_from_slice(&r.counter_addr.to_le_bytes());
        out.extend_from_slice(&(r.name.len() as u32).to_le_bytes());
        out.extend_from_slice(r.name.as_bytes());
    }
    out
}

fn take<'a>(bytes: &'a [u8], off: &mut usize, len: usize) -> Result<&'a [u8], ManifestError> {
    let end = off.checked_add(len).ok_or(ManifestError::Truncated)?;
    let s = bytes.get(*off..end).ok_or(ManifestError::Truncated)?;
    *off = end;
    Ok(s)
}

fn u32_at(bytes: &[u8], off: &mut usize) -> Result<u32, ManifestError> {
    Ok(u32::from_le_bytes(take(bytes, off, 4)?.try_into().unwrap()))
}

fn u64_at(bytes: &[u8], off: &mut usize) -> Result<u64, ManifestError> {
    Ok(u64::from_le_bytes(take(bytes, off, 8)?.try_into().unwrap()))
}

/// Decode a manifest from `bytes` (which may have trailing padding, e.g.
/// page-rounding zeroes from the segment loader).
///
/// # Errors
///
/// Any structural defect yields a typed [`ManifestError`]; the decoder
/// never panics on malformed input.
pub fn decode(bytes: &[u8]) -> Result<Vec<HookRecord>, ManifestError> {
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        return Err(ManifestError::BadMagic);
    }
    let mut off = MAGIC.len();
    let count = u32_at(bytes, &mut off)?;
    if count > MAX_RECORDS {
        return Err(ManifestError::TooManyRecords(count));
    }
    let mut out = Vec::with_capacity(count.min(1024) as usize);
    for _ in 0..count {
        let id = u32_at(bytes, &mut off)?;
        let flags = u32_at(bytes, &mut off)?;
        let func_addr = u64_at(bytes, &mut off)?;
        let payload_addr = u64_at(bytes, &mut off)?;
        let thunk_addr = u64_at(bytes, &mut off)?;
        let counter_addr = u64_at(bytes, &mut off)?;
        let name_len = u32_at(bytes, &mut off)? as usize;
        let name_bytes = take(bytes, &mut off, name_len)?;
        let name = std::str::from_utf8(name_bytes)
            .map_err(|_| ManifestError::BadName)?
            .to_string();
        out.push(HookRecord {
            id,
            flags,
            func_addr,
            payload_addr,
            thunk_addr,
            counter_addr,
            name,
        });
    }
    Ok(out)
}

/// Locate and decode the hook manifest in a rewritten binary by scanning
/// loadable segments for [`MAGIC`] at a segment start. Returns `None`
/// when the binary carries no manifest.
///
/// # Errors
///
/// A segment that *starts* with the magic but fails to decode is an
/// error — a present-but-corrupt manifest should not be silently treated
/// as absent.
pub fn find_in_elf(elf: &Elf) -> Result<Option<Vec<HookRecord>>, ManifestError> {
    for ph in elf.load_segments() {
        let len = ph.p_filesz as usize;
        if len < MAGIC.len() {
            continue;
        }
        if let Ok(bytes) = elf.slice_at(ph.p_vaddr, len) {
            if bytes.starts_with(MAGIC) {
                return decode(bytes).map(Some);
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<HookRecord> {
        vec![
            HookRecord {
                id: 0,
                flags: 0,
                func_addr: 0x401000,
                payload_addr: 0x70000000,
                thunk_addr: 0,
                counter_addr: 0x70100000,
                name: "f0000".into(),
            },
            HookRecord {
                id: 1,
                flags: FLAG_CALL_ORIGINAL,
                func_addr: 0x401100,
                payload_addr: 0x70000020,
                thunk_addr: 0x70000040,
                counter_addr: 0x70100008,
                name: "f0001".into(),
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let recs = sample();
        let bytes = encode(&recs);
        assert_eq!(decode(&bytes).unwrap(), recs);
        assert!(recs[1].is_call_original());
        assert!(!recs[0].is_call_original());
    }

    #[test]
    fn trailing_padding_tolerated() {
        let mut bytes = encode(&sample());
        bytes.extend_from_slice(&[0u8; 512]); // page-rounding zeroes
        assert_eq!(decode(&bytes).unwrap(), sample());
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(decode(b"NOTHOOK\x01rest"), Err(ManifestError::BadMagic));
        assert_eq!(decode(b""), Err(ManifestError::BadMagic));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let bytes = encode(&sample());
        // Chopping at every prefix length must yield a typed error, never
        // a panic or a bogus success.
        for cut in 0..bytes.len() {
            let r = decode(&bytes[..cut]);
            assert!(r.is_err(), "decode of {cut}-byte prefix succeeded");
        }
    }

    #[test]
    fn hostile_count_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&bytes), Err(ManifestError::TooManyRecords(u32::MAX)));
    }

    #[test]
    fn hostile_name_len_rejected() {
        let mut bytes = encode(&sample()[..1]);
        // Patch the name_len field (offset 12 + 40) to a huge value.
        let off = 12 + 40;
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&bytes), Err(ManifestError::Truncated));
    }

    #[test]
    fn non_utf8_name_rejected() {
        let mut bytes = encode(&sample()[..1]);
        let off = 12 + RECORD_FIXED; // first name byte
        bytes[off] = 0xFF;
        assert_eq!(decode(&bytes), Err(ManifestError::BadName));
    }
}
