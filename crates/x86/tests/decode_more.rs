//! Extended decoder coverage: exotic encodings a production length
//! decoder must get right — multi-prefix soup, three-byte maps, string
//! ops, x87, group encodings, and boundary conditions.

use e9x86::decode::{decode, DecodeError};
use e9x86::insn::{Kind, Opcode};
use e9x86::reg::Width;

fn len_of(bytes: &[u8]) -> usize {
    decode(bytes, 0x400000).expect("decode").len()
}

#[test]
fn three_byte_maps() {
    // 0F 38: pshufb %xmm1,%xmm0 → 66 0f 38 00 c1.
    assert_eq!(len_of(&[0x66, 0x0F, 0x38, 0x00, 0xC1]), 5);
    // 0F 3A always carries imm8: palignr $5,%xmm1,%xmm0.
    assert_eq!(len_of(&[0x66, 0x0F, 0x3A, 0x0F, 0xC1, 0x05]), 6);
    // With a memory operand + disp32.
    assert_eq!(
        len_of(&[0x66, 0x0F, 0x3A, 0x0F, 0x81, 0x00, 0x01, 0x00, 0x00, 0x07]),
        10
    );
    let i = decode(&[0x66, 0x0F, 0x38, 0x00, 0xC1], 0).unwrap();
    assert!(matches!(i.opcode(), Opcode::ThreeOf38(0x00)));
}

#[test]
fn sse_with_mandatory_prefixes() {
    // movsd (%rax),%xmm0: f2 0f 10 00.
    assert_eq!(len_of(&[0xF2, 0x0F, 0x10, 0x00]), 4);
    // movss store: f3 0f 11 00 — classified as a memory write.
    let i = decode(&[0xF3, 0x0F, 0x11, 0x00], 0).unwrap();
    assert!(i.writes_memory());
    // movdqa load is not a write: 66 0f 6f 00.
    let i = decode(&[0x66, 0x0F, 0x6F, 0x00], 0).unwrap();
    assert!(!i.writes_memory());
    // movdqa store is: 66 0f 7f 00.
    let i = decode(&[0x66, 0x0F, 0x7F, 0x00], 0).unwrap();
    assert!(i.writes_memory());
}

#[test]
fn x87_instructions() {
    // fldl (%rax): dd 00; fstpl 8(%rax): dd 58 08; faddp: de c1.
    assert_eq!(len_of(&[0xDD, 0x00]), 2);
    assert_eq!(len_of(&[0xDD, 0x58, 0x08]), 3);
    assert_eq!(len_of(&[0xDE, 0xC1]), 2);
}

#[test]
fn string_ops_with_rep() {
    assert_eq!(len_of(&[0xF3, 0xA4]), 2); // rep movsb
    assert_eq!(len_of(&[0xF3, 0x48, 0xA5]), 3); // rep movsq
    assert_eq!(len_of(&[0xF2, 0xAE]), 2); // repne scasb
    let i = decode(&[0xF3, 0x48, 0xAB], 0).unwrap(); // rep stosq
    assert!(i.writes_memory());
}

#[test]
fn lock_prefixed_rmw() {
    // lock add %rax,(%rbx): f0 48 01 03.
    let i = decode(&[0xF0, 0x48, 0x01, 0x03], 0).unwrap();
    assert_eq!(i.len(), 4);
    assert!(i.prefixes().lock);
    assert!(i.writes_memory());
    // lock cmpxchg %rcx,(%rdx): f0 48 0f b1 0a.
    let i = decode(&[0xF0, 0x48, 0x0F, 0xB1, 0x0A], 0).unwrap();
    assert_eq!(i.len(), 5);
    assert!(i.writes_memory());
}

#[test]
fn segment_prefixed_memory_access() {
    // mov %fs:0x28,%rax: 64 48 8b 04 25 28 00 00 00.
    let i = decode(&[0x64, 0x48, 0x8B, 0x04, 0x25, 0x28, 0, 0, 0], 0).unwrap();
    assert_eq!(i.len(), 9);
    assert_eq!(i.prefixes().segment, Some(0x64));
    let m = i.modrm().unwrap().mem.unwrap();
    assert_eq!(m.base, None);
    assert_eq!(m.disp, 0x28);
}

#[test]
fn sixteen_bit_operand_forms() {
    // mov %ax,(%rbx): 66 89 03.
    let i = decode(&[0x66, 0x89, 0x03], 0).unwrap();
    assert_eq!(i.len(), 3);
    assert_eq!(i.width, Width::W);
    // add $0x1234,%ax: 66 05 34 12.
    let i = decode(&[0x66, 0x05, 0x34, 0x12], 0).unwrap();
    assert_eq!(i.len(), 4);
    assert_eq!(i.imm(), 0x1234);
    // imul $imm16: 66 69 c0 34 12.
    assert_eq!(len_of(&[0x66, 0x69, 0xC0, 0x34, 0x12]), 5);
}

#[test]
fn group8_bit_tests() {
    // bt $5,%rax: 48 0f ba e0 05 (read-only).
    let i = decode(&[0x48, 0x0F, 0xBA, 0xE0, 0x05], 0).unwrap();
    assert_eq!(i.len(), 5);
    // bts $5,(%rax): 48 0f ba 28 05 (writes).
    let i = decode(&[0x48, 0x0F, 0xBA, 0x28, 0x05], 0).unwrap();
    assert!(i.writes_memory());
    // bt $5,(%rax): 48 0f ba 20 05 (does not write).
    let i = decode(&[0x48, 0x0F, 0xBA, 0x20, 0x05], 0).unwrap();
    assert!(!i.writes_memory());
}

#[test]
fn cmpxchg_and_xadd_write() {
    let i = decode(&[0x48, 0x0F, 0xB1, 0x0B], 0).unwrap(); // cmpxchg %rcx,(%rbx)
    assert!(i.writes_memory());
    let i = decode(&[0x48, 0x0F, 0xC1, 0x0B], 0).unwrap(); // xadd %rcx,(%rbx)
    assert!(i.writes_memory());
}

#[test]
fn setcc_writes_byte() {
    let i = decode(&[0x0F, 0x94, 0x03], 0).unwrap(); // sete (%rbx)
    assert!(i.writes_memory());
    assert!(i.is_heap_write());
    let i = decode(&[0x0F, 0x94, 0xC0], 0).unwrap(); // sete %al
    assert!(!i.writes_memory());
}

#[test]
fn max_length_instruction() {
    // A 15-byte instruction: prefixes + add with SIB + disp32 + imm32.
    // 66 2e 3e 26 64 65 36 f0? lock+add... build: 4 seg prefixes + 66 +
    // REX + 81 /0 with SIB+disp32 + imm16 (66 makes Iz=2).
    let bytes = [
        0x2E, 0x3E, 0x26, 0x64, 0x66, 0x48, 0x81, 0x84, 0x88, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66,
    ];
    let i = decode(&bytes, 0).unwrap();
    assert_eq!(i.len(), 15);
    // One more prefix pushes it over the architectural limit.
    let mut long = vec![0x65];
    long.extend_from_slice(&bytes);
    assert_eq!(decode(&long, 0), Err(DecodeError::TooLong));
}

#[test]
fn too_many_prefixes_rejected() {
    let bytes = [0x2E; 20];
    assert_eq!(decode(&bytes, 0), Err(DecodeError::TooLong));
}

#[test]
fn call_far_and_unused_opcodes_invalid() {
    for b in [
        0x06u8, 0x07, 0x0E, 0x16, 0x17, 0x1E, 0x1F, 0x27, 0x2F, 0x37, 0x3F, 0x60, 0x61, 0x62, 0x82,
        0x9A, 0xC4, /* as VEX it needs more bytes */
        0xD4, 0xD5, 0xD6, 0xEA, 0xCE,
    ] {
        let r = decode(&[b, 0, 0, 0, 0, 0, 0, 0], 0);
        if b == 0xC4 {
            // VEX: consumed as a prefix; may decode or fail, but not as les.
            continue;
        }
        assert!(
            matches!(r, Err(DecodeError::Invalid(_))),
            "{b:#04x} should be invalid, got {r:?}"
        );
    }
}

#[test]
fn in_out_and_misc_singletons() {
    assert_eq!(len_of(&[0xE4, 0x60]), 2); // in $0x60,%al
    assert_eq!(len_of(&[0xEE]), 1); // out %al,(%dx)
    assert_eq!(len_of(&[0xF4]), 1); // hlt
    assert_eq!(len_of(&[0xF5]), 1); // cmc
    assert_eq!(len_of(&[0x98]), 1); // cwde
    assert_eq!(len_of(&[0x9B]), 1); // fwait
    assert_eq!(len_of(&[0xD7]), 1); // xlat
    assert_eq!(len_of(&[0xCF]), 1); // iretq
    assert_eq!(len_of(&[0x0F, 0xA2]), 2); // cpuid
    assert_eq!(len_of(&[0x0F, 0x31]), 2); // rdtsc
    assert_eq!(len_of(&[0x0F, 0x0B]), 2); // ud2
    assert_eq!(len_of(&[0x0F, 0xC8]), 2); // bswap %eax
    assert_eq!(len_of(&[0x48, 0x0F, 0xC8]), 3); // bswap %rax
}

#[test]
fn loop_family() {
    for b in [0xE0u8, 0xE1, 0xE2, 0xE3] {
        let i = decode(&[b, 0x10], 0x1000).unwrap();
        assert_eq!(i.kind, Kind::LoopRel8);
        assert_eq!(i.branch_target(), Some(0x1012));
    }
}

#[test]
fn indirect_forms_with_all_mod_values() {
    // jmp *(%rax), jmp *0x10(%rax), jmp *0x12345678(%rax), jmp *%rax.
    assert_eq!(len_of(&[0xFF, 0x20]), 2);
    assert_eq!(len_of(&[0xFF, 0x60, 0x10]), 3);
    assert_eq!(len_of(&[0xFF, 0xA0, 0x78, 0x56, 0x34, 0x12]), 6);
    assert_eq!(len_of(&[0xFF, 0xE0]), 2);
    for bytes in [&[0xFF, 0x20][..], &[0xFF, 0xE0][..]] {
        assert_eq!(decode(bytes, 0).unwrap().kind, Kind::JmpInd);
    }
}

#[test]
fn mov_seg_and_pop_rm() {
    assert_eq!(len_of(&[0x8C, 0xD8]), 2); // mov %ds,%eax
    assert_eq!(len_of(&[0x8E, 0xD8]), 2); // mov %eax,%ds
    assert_eq!(len_of(&[0x8F, 0x00]), 2); // pop (%rax)
    let i = decode(&[0x8F, 0x00], 0).unwrap();
    assert!(i.writes_memory());
}
