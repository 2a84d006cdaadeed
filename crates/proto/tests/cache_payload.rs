//! Known answers for the compact `emit` payload the rewrite cache stores
//! (`EmitReply::encode_bin` and `decode_bin`).
//!
//! Every disk-cache hit decodes this payload, and a payload that does not
//! decode is recomputed cold without a word, so a codec change would show
//! only as lost hits. The known answer pins the bytes of a reply with
//! every tactic, a site with none, trampolines absent and present and two
//! mappings; the refusal cases pin that a damaged payload is an error.

use e9patch::{PatchStats, SiteReport, SizeStats, TacticKind};
use e9proto::msg::{hex_decode, hex_encode, CacheDisposition, EmitReply, WireMapping};

/// The reply the known answer encodes. Its cache fields are set, and the
/// payload leaves them out.
fn reply() -> EmitReply {
    let report = |addr, insn_len, tactic, trampoline| SiteReport {
        addr,
        insn_len,
        tactic,
        trampoline,
    };
    EmitReply {
        binary: vec![0x7f, 0x45, 0x4c],
        stats: PatchStats {
            b1: 1,
            b2: 2,
            t1: 3,
            t2: 4,
            t3: 5,
            b0: 6,
            failed: 7,
        },
        size: SizeStats {
            input_bytes: 4096,
            output_bytes: 8192,
            virtual_blocks: 3,
            physical_blocks: 2,
            mappings: 2,
            granularity: 1,
        },
        loader_addr: 0x20_0000,
        trap_count: 1,
        reports: vec![
            report(0x40_1000, 5, Some(TacticKind::B0), None),
            report(0x40_1005, 2, Some(TacticKind::B1), Some(0x30_0000)),
            report(0x40_1007, 3, Some(TacticKind::B2), Some(0x30_0010)),
            report(0x40_100a, 4, Some(TacticKind::T1), Some(0x30_0020)),
            report(0x40_100e, 6, Some(TacticKind::T2), Some(0x30_0030)),
            report(0x40_1014, 7, Some(TacticKind::T3), Some(0x30_0040)),
            report(0x40_101b, 1, None, None),
        ],
        mappings: vec![
            WireMapping {
                vaddr: 0x30_0000,
                file_off: 0x2000,
                len: 0x1000,
            },
            WireMapping {
                vaddr: 0x30_1000,
                file_off: 0x3000,
                len: 0x1000,
            },
        ],
        cache: CacheDisposition::Hit,
        digest: Some("ab".into()),
    }
}

/// [`reply`]'s payload: fixed little-endian framing, one piece a line.
const KNOWN: &str = concat!(
    "01",               // codec version
    "0300000000000000", // binary length
    "7f454c",           // binary
    "0100000000000000", // stats: b1
    "0200000000000000", // b2
    "0300000000000000", // t1
    "0400000000000000", // t2
    "0500000000000000", // t3
    "0600000000000000", // b0
    "0700000000000000", // failed
    "0010000000000000", // size: input_bytes
    "0020000000000000", // output_bytes
    "0300000000000000", // virtual_blocks
    "0200000000000000", // physical_blocks
    "0200000000000000", // mappings
    "0100000000000000", // granularity
    "0000200000000000", // loader_addr
    "0100000000000000", // trap_count
    "0700000000000000", // report count
    // Each report: addr, insn_len, tactic code, trampoline flag and the
    // trampoline when the flag is 1.
    "0010400000000000050100",                           // B0, no trampoline
    "05104000000000000202010000300000000000",           // B1
    "07104000000000000303011000300000000000",           // B2
    "0a104000000000000404012000300000000000",           // T1
    "0e104000000000000605013000300000000000",           // T2
    "14104000000000000706014000300000000000",           // T3
    "1b10400000000000010000",                           // no tactic, no trampoline
    "0200000000000000",                                 // mapping count
    "000030000000000000200000000000000010000000000000", // vaddr, file_off, len
    "001030000000000000300000000000000010000000000000",
);

/// Offset of the first report's tactic code: the version, the binary's
/// length and bytes, 15 counters, the report count, then the report's
/// address and length.
const FIRST_TACTIC: usize = 1 + 8 + 3 + 15 * 8 + 8 + 8 + 1;

fn known() -> Vec<u8> {
    hex_decode(KNOWN).unwrap()
}

#[test]
fn payload_bytes_are_the_known_answer() {
    assert_eq!(hex_encode(&reply().encode_bin()), KNOWN);
    let want = EmitReply {
        cache: CacheDisposition::Off,
        digest: None,
        ..reply()
    };
    assert_eq!(EmitReply::decode_bin(&known()), Ok(want));
}

#[test]
fn damaged_payloads_are_refused() {
    let raw = known();
    for end in 0..raw.len() {
        assert!(
            EmitReply::decode_bin(&raw[..end]).is_err(),
            "a prefix of {end} bytes decoded"
        );
    }
    let edit = |at: usize, byte: u8| {
        let mut raw = raw.clone();
        raw[at] = byte;
        raw
    };
    let mut trailing = raw.clone();
    trailing.push(0);
    for (what, bytes) in [
        ("a trailing byte", trailing),
        ("version 2", edit(0, 2)),
        ("tactic code 7", edit(FIRST_TACTIC, 7)),
        ("trampoline flag 2", edit(FIRST_TACTIC + 1, 2)),
    ] {
        assert!(EmitReply::decode_bin(&bytes).is_err(), "{what} decoded");
    }
}
