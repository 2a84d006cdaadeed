//! Known-answer digests of the decoder: every fact `e9x86::decode`
//! reports, hashed instruction by instruction.
//!
//! Two corpora are covered. The first is `disassemble_text` of the 38 SPEC
//! and system rows of Table 1 at 1/50 scale, the disassembly the rewriter
//! and the end-to-end benchmark consume. The second is seeded random byte
//! streams decoded at every offset, so invalid opcodes, truncation, prefix
//! runs that exceed 15 bytes and instructions that would end past 2^64
//! are pinned too, errors included.
//!
//! The instruction record's layout is free to change; what it reports is
//! not. A change that moves one of these digests changes what the
//! rewriter, the emulator or the site selector sees.

use e9cache::sha256::{hex, Sha256};
use e9rng::StdRng;
use e9x86::decode::{decode, DecodeError};
use e9x86::insn::{Insn, MemOperand};

/// Table 1 scale divisor for the disassembly rows.
const SCALE: u64 = 50;

/// Append every decoded fact of `i` to `out`, in a fixed order.
fn facts(out: &mut Vec<u8>, i: &Insn) {
    out.extend_from_slice(&i.addr.to_le_bytes());
    out.push(i.len() as u8);
    out.extend_from_slice(i.bytes());
    let p = i.prefixes();
    out.extend_from_slice(&[
        p.rex.map_or(0, |r| r),
        p.rex.is_some() as u8,
        p.lock as u8,
        p.rep as u8,
        p.repne as u8,
        p.opsize as u8,
        p.addrsize as u8,
        p.segment.map_or(0, |s| s),
        p.segment.is_some() as u8,
        p.count,
    ]);
    out.extend_from_slice(format!("{:?}", i.opcode()).as_bytes());
    match i.modrm() {
        None => out.push(0),
        Some(m) => {
            out.extend_from_slice(&[1, m.byte, m.reg, m.rm, m.disp_offset, m.disp_len]);
            out.push(m.is_reg_direct() as u8);
            match m.mem {
                None => out.push(0),
                Some(MemOperand {
                    base,
                    index,
                    disp,
                    rip_relative,
                }) => {
                    out.push(1);
                    out.extend_from_slice(format!("{base:?}{index:?}").as_bytes());
                    out.extend_from_slice(&disp.to_le_bytes());
                    out.push(rip_relative as u8);
                }
            }
        }
    }
    out.extend_from_slice(&i.imm().to_le_bytes());
    out.extend_from_slice(&[i.imm_offset(), i.imm_len()]);
    out.extend_from_slice(format!("{:?}{:?}", i.kind, i.width).as_bytes());
    out.extend_from_slice(&[
        i.writes_memory() as u8,
        i.is_heap_write() as u8,
        i.has_mem_operand() as u8,
    ]);
    match i.branch_target() {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            out.extend_from_slice(&t.to_le_bytes());
        }
    }
    out.push(b'\n');
}

/// Append one decode outcome (an instruction's facts, or its error).
fn outcome(out: &mut Vec<u8>, r: Result<Insn, DecodeError>) {
    match r {
        Ok(i) => facts(out, &i),
        Err(e) => out.extend_from_slice(format!("error {e:?}\n").as_bytes()),
    }
}

/// Compare every line, reporting the whole table on a mismatch.
fn check(got: &[String], want: &[&str]) {
    let got_s: Vec<&str> = got.iter().map(String::as_str).collect();
    assert!(
        got_s == want,
        "decode known answers moved; got:\n{}",
        got_s.join("\n")
    );
}

#[test]
fn table1_rows_disassembly_known_answer() {
    let mut profiles = e9synth::spec_profiles(SCALE);
    profiles.extend(e9synth::system_profiles(SCALE));
    let mut buf = Vec::new();
    let got: Vec<String> = profiles
        .iter()
        .map(|p| {
            let sb = e9synth::generate(p);
            let disasm = e9front::disassemble_text(&sb.binary).expect("disassemble");
            let mut h = Sha256::new();
            for i in &disasm {
                buf.clear();
                facts(&mut buf, i);
                h.update(&buf);
            }
            format!("{} {} {}", p.name, disasm.len(), hex(&h.finish()))
        })
        .collect();
    check(&got, TABLE1_ROWS);
}

#[test]
fn random_streams_at_every_offset_known_answer() {
    // Every legacy prefix and five REX bytes.
    const PREFIXES: [u8; 16] = [
        0x66, 0x67, 0xF0, 0xF2, 0xF3, 0x2E, 0x3E, 0x26, 0x64, 0x65, 0x36, 0x40, 0x41, 0x44, 0x48,
        0x4D,
    ];
    // (seed, stream length, base address, prefix odds in sixteenths):
    // plain random code, streams at the top of the address space, a
    // prefix-rich stream, and one whose prefix runs pass 15 bytes.
    let streams: [(u64, usize, u64, u8); 7] = [
        (1, 4096, 0x401000, 0),
        (2, 4096, 0x7fff_0000_0000, 0),
        (3, 4096, 0, 0),
        (4, 1024, u64::MAX - 1023, 0),
        (5, 2048, 0x401000, 8),
        (6, 2048, u64::MAX - 2047, 8),
        (7, 2048, 0x401000, 15),
    ];
    let mut buf = Vec::new();
    let got: Vec<String> = streams
        .iter()
        .map(|&(seed, len, base, odds)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut code = vec![0u8; len];
            rng.fill_bytes(&mut code);
            for b in &mut code {
                if *b & 15 < odds {
                    *b = PREFIXES[usize::from(*b >> 4)];
                }
            }
            let mut h = Sha256::new();
            // Decoded, truncated, invalid, too long, past the address space.
            let mut counts = [0usize; 5];
            for off in 0..code.len() {
                let addr = base.wrapping_add(off as u64);
                // The rest of the stream, then a cut of 0 to 17 bytes, so
                // short inputs meet every instruction shape too.
                let cut = (off + off % 18).min(code.len());
                for input in [&code[off..], &code[off..cut]] {
                    let r = decode(input, addr);
                    counts[match r {
                        Ok(_) => 0,
                        Err(DecodeError::Truncated) => 1,
                        Err(DecodeError::Invalid(_)) => 2,
                        Err(DecodeError::TooLong) => 3,
                        Err(DecodeError::PastAddressSpace) => 4,
                    }] += 1;
                    buf.clear();
                    outcome(&mut buf, r);
                    h.update(&buf);
                }
            }
            format!("seed{seed} {counts:?} {}", hex(&h.finish()))
        })
        .collect();
    check(&got, RANDOM_STREAMS);
}

/// `name instructions digest` per row, in table order.
const TABLE1_ROWS: &[&str] = &[
    "perlbench 5906 9e0ca66c9c077d17a3de0c8546e369b62eb99bac200827b7c2efadbb75d0e991",
    "bzip2 221 436094455bd30208e93eaaae60d75e790152592c305f553c9a132b093f219a20",
    "gcc 16076 65b8286d11c4af6a0d66fef1b40e4944f0a7da07d9c2d56b8a4b60d6d4e7cf15",
    "bwaves 293 89249b69d41f48b137c0fe38539cdebfb056811dc6f227834df44bcfc0a4b18f",
    "gamess 39221 867ace05c27538961659c572624e59f569769b1049048674c7049803946849ef",
    "mcf 380 b022939edd6d1d1b3b3c3eb44942b232e8103d00653f462d3c0fd3b2d72968e3",
    "milc 454 512eefd8c82c6c3291d208a3ec621c7dd3def9c68c1df068b3c8fbe0d63e4f11",
    "zeusmp 1053 b1a1aedb6e7ce3187523e9caf84674987560dc5060878ef003c7ed06bffd913a",
    "gromacs 3584 849fcbd4eab3c07e25bc0548ddb80305a85747313def5529b2b5875c9681432a",
    "cactusADM 4052 eef2c0b706938e61c75b32213157b7d7c4a1108828ee0fc1be5f71a0b54df56c",
    "leslie3d 760 64aab6070b3283998507c9ed6153c055e03775a7c98501ca5f516a99ffb23fc3",
    "namd 1581 7565572a2d83929dbc8eef6bf0c644caafe56f488db4dbb278786bd06ff229cc",
    "gobmk 3601 d0e451a34f393ef921acf15d5d69b722e89c575cfa66652f4d2abc37878af924",
    "dealII 10286 531f307d0188892f1df3a718e18b372cc0556b66dd0f3e39b06acd4c00ad95c0",
    "soplex 1731 ef0b943101004ddc143fda2a92a25b5ee7f2f3ad3e51b34319536d6756b01820",
    "povray 3573 be187515829eb2e764ea28dfdc2d2fdbcf203cd48eadecd9ceed3b18161b48a5",
    "calculix 9177 eec3998160c661cfbe9c951e5dc3e8614df1ad2a631f8bd2381bfec16a0a1dd7",
    "hmmer 859 56c6d916689d061e48759064124e879c32962e0259f4bc4da0156d337c3a9fe8",
    "sjeng 900 e02f793991892a1d8f1208948c51826fe2dfdee802f4019b84314a4a89a35e9d",
    "GemsFDTD 2925 9efe87ef48c159473f9f81fb6bf778e9a66c3f9271ba7a4490a5fc0716c89920",
    "libquantum 342 666b020393b2474d8ed2377338bb14c5ff9e02dfbfa2330ec3d32446c34d84e5",
    "h264ref 1709 fcd252e15a8bc740aacf66f997f35d0965927cc18ee9d23a5a62d8e2317967d5",
    "tonto 15996 d0b1eabd9760826dc8918a88029cfbd985b65543e6522ad98893e35a86da1045",
    "lbm 295 eeb45f23c5cba37b103dd157025a765a2a6deb8be9a36365c34975f2227db792",
    "omnetpp 2216 dcdcf2f197fba5dcc3154c84699c4acad3581298ccd8fa7254e32f325fa9a694",
    "astar 424 4e1081788719af87a814c6ef2067894e5515fc29b4dc4b1a265a6dc13b85163d",
    "sphinx3 965 66a6c07bbaedcc39c84d3cbc5b653ae580fba24e58c03b44bd825b7c58f1f979",
    "xalancbmk 13211 ce2d476784993bf65e6ee4d586ac6f16b14a5bb53d73ee8f272c6feff05c5ae9",
    "inkscape 33483 804b2764fe30b2ab6d36ab38f7137b3272040731813bc9abe5571d3188f56334",
    "gimp 12568 8ff521db1d58671ec55096a8908110b4fd0ed4e84d08a2352cca1fc64c455241",
    "vim 12331 f7fe654ce625168f805c41b8f148ad04ca9c95f9f6dcb1cd0b0bda67f294777b",
    "git 7763 4ca2058c683d2be9d9fb953a0049f210e03656bac3e025677105dab33fafedcf",
    "pdflatex 3859 8045b7fd090f8431acb2de0d653224c30786fb5780f91b39c199a3dc5abf80da",
    "xterm 2113 8810db8a2d2bb559296d056aa5053089871442a61e6f2b82c4faf97d812387bd",
    "evince 723 3a8cb1d5694bc577130ca3c1378aa1194d9305d8c7ce63b7a854899974b6e6db",
    "make 753 05d90cdf7206decb5657a0a7520b01f189848f5085522af5f061016e82e8581c",
    "libc.so 8359 f1ec1084f6a474b0460a221dc4b3ebd713dd08e9063e4260d958611e35f5b1a3",
    "libstdc++.so 4109 4dee6d479791174a53879e383f6e79a82901ff40f19d2544d79975fc703b8eb3",
];

/// `seed [decoded, truncated, invalid, too long, past 2^64] digest` per
/// stream.
const RANDOM_STREAMS: &[&str] = &[
    "seed1 [6704, 656, 832, 0, 0] 0e45054061cc01caef54fbc4d95a476ac7382990638b2bae0afce175206243de",
    "seed2 [6847, 618, 727, 0, 0] f6d02ba424a6c8c939192e898f77b611ac872985f96fff02e236e07126c141ce",
    "seed3 [6733, 651, 808, 0, 0] f88cad383f735778cee70a39405aa0206ade51ca77170ef447a8c96e76d6547a",
    "seed4 [1700, 147, 193, 0, 8] ee3dc8bfe83e88643b47035e8dc9ef399b7cb40d24441571f873d7d6651ff125",
    "seed5 [3463, 406, 227, 0, 0] 9571b8464584b7d7d6090c3358a211a982ac7069fd237516919cf0f3aa198fc5",
    "seed6 [3449, 437, 210, 0, 0] 787053edb1bd8705eccff7828fcb4863cef15bdc5307a34844904f48aa937a61",
    "seed7 [1537, 1192, 433, 934, 0] f71b3c75fdc9adb57f470e37adcb1f62a8fbcc05264ba58c6e8f29f597eace03",
];
