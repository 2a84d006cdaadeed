//! Known-answer outputs of the in-process rewrite: the SHA-256 of every
//! output binary, with its `PatchStats` and `SizeStats`.
//!
//! Three job kinds run on each of the 38 SPEC and system rows of Table 1
//! at 1/50 scale, the jobs the end-to-end benchmark runs:
//! A1 (every jmp/jcc) with empty trampolines, A2 (heap writes) with a
//! counter payload, and a counter hook on every function. Two more cases
//! pin how the rewriter reads its disassembly input: a shuffled copy must
//! give the sorted input's bytes, and when two entries share an address
//! the last one wins.
//!
//! The configurations the benchmark never runs are pinned too: the
//! counter hook with call-original thunks on every row, A1 on
//! every row with top-down placement, with B1/B2 and the B0 trap
//! fallback only, with 16-page grouping, and with grouping off (the
//! naïve one-to-one layout of ablation E4). A2 with the low-fat payload
//! pins a rewrite with two extra segments, one executable and one
//! writable. Two rows at 1/10 scale (gcc and inkscape, all three job
//! kinds) pin the planner where placed trampolines fragment the address
//! space most. A1 with the trace payload pins every row's
//! `Template::HookCall` trampolines, and a `Template::Replace` job on the
//! gcc row pins both ways that template resumes. With the other cases,
//! every template's trampoline builder has a known answer.
//!
//! Every pinned output except the two disassembly-order cases must also
//! pass `e9patch::verify` against its input.
//!
//! The planner's data structures are free to change; its output is not.
//! A change that moves one of these digests changes what users get.

use e9front::{Application, Options, Payload};
use e9patch::{
    AllocPolicy, PatchRequest, RewriteConfig, RewriteOutput, Rewriter, Tactics, Template,
};
use e9rng::SplitMix64;
use e9x86::insn::Insn;

/// Table 1 scale divisor for every case here.
const SCALE: u64 = 50;

/// The hex SHA-256 of `bytes`.
fn sha(bytes: &[u8]) -> String {
    e9cache::sha256::hex(&e9cache::digest(bytes))
}

/// One known-answer line: the output digest, then
/// `b1 b2 t1 t2 t3 b0 failed`, then
/// `input output virtual_blocks physical_blocks mappings granularity`.
fn line(name: &str, out: &RewriteOutput) -> String {
    let p = &out.stats;
    let s = &out.size;
    format!(
        "{name} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        sha(&out.binary),
        p.b1,
        p.b2,
        p.t1,
        p.t2,
        p.t3,
        p.b0,
        p.failed,
        s.input_bytes,
        s.output_bytes,
        s.virtual_blocks,
        s.physical_blocks,
        s.mappings,
        s.granularity
    )
}

/// [`line`], after checking `out` with the static verifier.
fn verified_line(name: &str, input: &[u8], disasm: &[Insn], out: &RewriteOutput) -> String {
    let original = e9elf::Elf::parse(input).expect("input parses");
    let patched = e9elf::Elf::parse(&out.binary).expect("output parses");
    if let Err(v) =
        e9patch::verify::verify(&original, &patched, disasm, &out.mappings, &out.reports)
    {
        panic!("{name}: {} violations, first {}", v.len(), v[0]);
    }
    line(name, out)
}

/// Compare every line, reporting the whole table on a mismatch so a
/// deliberate output change can be reviewed row by row.
fn check(got: &[String], want: &[&str]) {
    let got_s: Vec<&str> = got.iter().map(String::as_str).collect();
    assert!(
        got_s == want,
        "known answers moved; got:\n{}",
        got_s.join("\n")
    );
}

/// The Table 1 SPEC and system rows (browsers excluded), in table order.
fn rows() -> Vec<(String, e9synth::SynthBinary)> {
    let mut profiles = e9synth::spec_profiles(SCALE);
    profiles.extend(e9synth::system_profiles(SCALE));
    profiles
        .into_iter()
        .map(|p| (p.name.clone(), e9synth::generate(&p)))
        .collect()
}

fn instrument_rows(app: Application, payload: Payload) -> Vec<String> {
    instrument_rows_with(app, payload, RewriteConfig::default())
}

fn instrument_rows_with(app: Application, payload: Payload, config: RewriteConfig) -> Vec<String> {
    let opts = Options {
        app,
        payload,
        config,
    };
    rows()
        .iter()
        .map(|(name, sb)| {
            let disasm = e9front::disassemble_text(&sb.binary).expect("disassemble");
            let out =
                e9front::instrument_with_disasm(&sb.binary, &disasm, &opts).expect("instrument");
            verified_line(name, &sb.binary, &disasm, &out.rewrite)
        })
        .collect()
}

#[test]
fn a1_empty_outputs_are_pinned() {
    check(
        &instrument_rows(Application::A1Jumps, Payload::Empty),
        A1_EMPTY,
    );
}

#[test]
fn a2_counter_outputs_are_pinned() {
    check(
        &instrument_rows(Application::A2HeapWrites, Payload::Counter),
        A2_COUNTER,
    );
}

/// One line per row for a hook job over every function.
fn hook_rows(spec: &e9hook::HookSpec) -> Vec<String> {
    rows()
        .iter()
        .map(|(name, sb)| {
            let disasm = e9front::disassemble_text(&sb.binary).expect("disassemble");
            let out = e9front::hook_with_disasm(&sb.binary, &disasm, spec, Default::default())
                .expect("hook");
            verified_line(name, &sb.binary, &disasm, &out.rewrite)
        })
        .collect()
}

#[test]
fn hook_all_outputs_are_pinned() {
    check(&hook_rows(&e9hook::HookSpec::counters(&["*"])), HOOK_ALL);
}

#[test]
fn hook_all_call_original_outputs_are_pinned() {
    // Each hook's thunk relocates the function's entry instruction and
    // jumps back to the next one; every row's entries relocate.
    let spec = e9hook::HookSpec {
        call_original: true,
        ..e9hook::HookSpec::counters(&["*"])
    };
    check(&hook_rows(&spec), HOOK_ALL_CALL_ORIGINAL);
}

#[test]
fn first_fit_high_outputs_are_pinned() {
    let cfg = RewriteConfig {
        alloc_policy: AllocPolicy::FirstFitHigh,
        ..RewriteConfig::default()
    };
    check(
        &instrument_rows_with(Application::A1Jumps, Payload::Empty, cfg),
        A1_FIRST_FIT_HIGH,
    );
}

#[test]
fn b0_fallback_base_only_outputs_are_pinned() {
    let cfg = RewriteConfig {
        tactics: Tactics::base_only(),
        b0_fallback: true,
        ..RewriteConfig::default()
    };
    check(
        &instrument_rows_with(Application::A1Jumps, Payload::Empty, cfg),
        A1_B0_BASE_ONLY,
    );
}

#[test]
fn granularity_16_outputs_are_pinned() {
    let cfg = RewriteConfig {
        granularity: 16,
        ..RewriteConfig::default()
    };
    check(
        &instrument_rows_with(Application::A1Jumps, Payload::Empty, cfg),
        A1_GRANULARITY_16,
    );
}

#[test]
fn naive_grouping_outputs_are_pinned() {
    let cfg = RewriteConfig {
        grouping: false,
        ..RewriteConfig::default()
    };
    check(
        &instrument_rows_with(Application::A1Jumps, Payload::Empty, cfg),
        A1_NAIVE_GROUPING,
    );
}

#[test]
fn a2_lowfat_outputs_are_pinned() {
    check(
        &instrument_rows(Application::A2HeapWrites, Payload::LowFat),
        A2_LOWFAT,
    );
}

#[test]
fn trace_outputs_are_pinned() {
    check(
        &instrument_rows(Application::A1Jumps, Payload::Trace),
        A1_TRACE,
    );
}

#[test]
fn scale_10_outputs_are_pinned() {
    let mut profiles = e9synth::spec_profiles(10);
    profiles.extend(e9synth::system_profiles(10));
    let spec = e9hook::HookSpec::counters(&["*"]);
    let mut got = Vec::new();
    for name in ["gcc", "inkscape"] {
        let profile = profiles.iter().find(|p| p.name == name).expect("row");
        let sb = e9synth::generate(profile);
        let disasm = e9front::disassemble_text(&sb.binary).expect("disassemble");
        for (kind, app, payload) in [
            ("a1", Application::A1Jumps, Payload::Empty),
            ("a2", Application::A2HeapWrites, Payload::Counter),
        ] {
            let out =
                e9front::instrument_with_disasm(&sb.binary, &disasm, &Options::new(app, payload))
                    .expect("instrument");
            got.push(verified_line(
                &format!("{name}-{kind}"),
                &sb.binary,
                &disasm,
                &out.rewrite,
            ));
        }
        let out = e9front::hook_with_disasm(&sb.binary, &disasm, &spec, Default::default())
            .expect("hook");
        got.push(verified_line(
            &format!("{name}-hook"),
            &sb.binary,
            &disasm,
            &out.rewrite,
        ));
    }
    check(&got, SCALE_10);
}

/// The `gcc` row and a request on every jmp/jcc of its disassembly.
fn gcc_job() -> (Vec<u8>, Vec<Insn>, Vec<PatchRequest>) {
    let profile = e9synth::spec_profiles(SCALE)
        .into_iter()
        .find(|p| p.name == "gcc")
        .expect("gcc row");
    let sb = e9synth::generate(&profile);
    let disasm = e9front::disassemble_text(&sb.binary).expect("disassemble");
    let requests = disasm
        .iter()
        .filter(|i| i.kind.is_jump())
        .map(|i| PatchRequest {
            addr: i.addr,
            template: Template::Empty,
        })
        .collect();
    (sb.binary, disasm, requests)
}

fn rewrite(binary: &[u8], disasm: &[Insn], requests: &[PatchRequest]) -> RewriteOutput {
    Rewriter::new(RewriteConfig::default())
        .rewrite(binary, disasm, requests, &[])
        .expect("rewrite")
}

#[test]
fn shuffled_disassembly_gives_the_sorted_output() {
    let (binary, disasm, requests) = gcc_job();
    let sorted = line("gcc-sorted", &rewrite(&binary, &disasm, &requests));
    let mut shuffled = disasm.clone();
    let mut rng = SplitMix64::new(0x5348_5546);
    for i in (1..shuffled.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        shuffled.swap(i, j);
    }
    assert_ne!(shuffled, disasm);
    let got = line("gcc-sorted", &rewrite(&binary, &shuffled, &requests));
    assert_eq!(got, sorted);
    check(&[got], SHUFFLED);
}

#[test]
fn duplicate_addresses_resolve_last_wins() {
    let (binary, disasm, requests) = gcc_job();
    let clean = line("gcc", &rewrite(&binary, &disasm, &requests));
    // A one-byte `nop` claimed at the address of every fourth multi-byte
    // instruction that follows a patch site, so the successor lookup of
    // T2 and the victim range of T3 see whichever entry wins.
    let decoys: Vec<Insn> = disasm
        .windows(2)
        .filter(|w| w[0].kind.is_jump() && w[1].len() > 1)
        .step_by(4)
        .map(|w| e9x86::decode(&[0x90], w[1].addr).expect("nop"))
        .collect();
    assert!(decoys.len() > 10);
    // Decoy first, real entry last: the real instruction wins, so the
    // output is the clean one.
    let mut real_last = decoys.clone();
    real_last.extend_from_slice(&disasm);
    let real_wins = line("gcc", &rewrite(&binary, &real_last, &requests));
    assert_eq!(real_wins, clean);
    // Real entry first, decoy last: the decoy wins and the output moves.
    let mut decoy_last = disasm.clone();
    decoy_last.extend_from_slice(&decoys);
    let decoy_wins = line("gcc-decoys", &rewrite(&binary, &decoy_last, &requests));
    check(&[real_wins, decoy_wins], DUPLICATES);
}

/// The gcc job with every request's template replaced by
/// `Template::Replace`: a one-byte `nop`, then a jump to `resume`.
fn replace_job(name: &str, resume: impl Fn(&Insn) -> Option<u64>) -> String {
    let (binary, disasm, requests) = gcc_job();
    let requests: Vec<PatchRequest> = requests
        .into_iter()
        .map(|r| {
            let insn = disasm.iter().find(|i| i.addr == r.addr).expect("site");
            PatchRequest {
                template: Template::Replace {
                    code: vec![0x90],
                    resume: resume(insn),
                },
                ..r
            }
        })
        .collect();
    verified_line(
        name,
        &binary,
        &disasm,
        &rewrite(&binary, &disasm, &requests),
    )
}

#[test]
fn replace_outputs_are_pinned() {
    // `None` resumes after the replaced instruction; `Some` resumes at
    // the jump's own target, or after a jump that has none.
    let next = replace_job("gcc-replace-next", |_| None);
    let target = replace_job("gcc-replace-target", |i| {
        Some(i.branch_target().unwrap_or(i.end()))
    });
    check(&[next, target], REPLACE);
}

const A1_EMPTY: &[&str] = &[
    "perlbench 3e9460d04cbcbb65e2ed4904f6254a230e3ab8df79d0d3d9fdf5a2f7c67e9c10 536 8 248 3 1 0 0 30488 84984 113 12 113 1",
    "bzip2 2e6374b919af22d7bb3ca3eabfe98afe41aa97680f315f7006a9283df8592cd4 17 1 9 0 0 0 0 8840 17000 11 1 11 1",
    "gcc 0397d451afe35f20c586fe2cda2d05c45e38900449bcaca0a4c8388337d396aa 1472 32 700 12 2 0 0 77616 204088 297 29 297 1",
    "bwaves f7f85140bc0648c2e8308e44d690f42f191f43be20855ff0a5b4d06035492af5 10 0 9 0 1 0 0 8840 21120 12 2 12 1",
    "gamess 457e71a574df5f06ca8e9ea2421b43b1fb7d1040dc0ea348682b496001a5d231 2177 11 25 18 914 0 127 185640 340768 699 33 699 1",
    "mcf 373e10fc0d3e23689020a683ac1cfd644901b0cb52b714d06c325b2b41210dc6 23 0 8 0 0 0 0 8840 21000 7 2 7 1",
    "milc 9d525afdc8035daabd36ab8711e4ed98baf73baff5f8423ac6923b35e6d8c376 30 2 6 0 0 0 0 8904 21000 7 2 7 1",
    "zeusmp 9cf479363e3e13c995c60e813666532639aa48373c2070ef8b40fab5f8987181 46 1 16 1 6 0 0 13160 29632 23 3 23 1",
    "gromacs 6a2858cd4a5ae9931035cb8d58f0ff781399d4ac4251cff1c1d111fbdac41bdf 209 11 78 4 1 0 0 21912 47184 74 5 74 1",
    "cactusADM 97ea819757a6b278ed378693a3ae8ed709f581f900aa1f372a8ef570afefc0f4 224 12 93 4 2 0 0 26064 55496 79 6 79 1",
    "leslie3d a21d6bdf86e96374cbd1d42220aa2b1c9c5cb50e071db50418ae1f2005035242 48 4 14 2 0 0 0 8960 21240 17 2 17 1",
    "namd 4bb92e85f939abc41e66d0bfe527336e7e6eccedb7648f9f95322fa43dd4eb20 73 5 38 2 1 0 0 13208 29936 38 3 38 1",
    "gobmk 840935e1fe64fbb88f15c4e3e57c576abd82ecdc7f4a79dd5624d5fac6cc40e1 329 6 152 1 2 0 0 21672 59352 69 8 69 1",
    "dealII 5029c82b6b423d288818269708504473d14e4d47a682891bfaeec3c03b0ac7ae 932 14 433 6 3 0 0 51808 123912 199 16 199 1",
    "soplex 03c2e0ceedb6f5564144080c084a7cf4faeb50c519bee8cf78c86ed5defce1e3 151 2 82 1 0 0 0 13208 42224 38 6 38 1",
    "povray d75569a8db471fb539494f47016d5f50af5f9ef714346cbd294510bb72e65be9 323 7 163 1 4 0 0 21760 59472 74 8 74 1",
    "calculix 737c90c71647f88a45eb387da2e525bc4ef17a9bde04fedfd12be2b7a07ba063 479 30 206 8 6 0 0 47776 107144 183 13 183 1",
    "hmmer bd87baf1c5fda0e14191d4a3f64df6f35e03b842f558891da1f74436e3ca1a64 77 3 38 0 1 0 0 8992 25384 19 3 19 1",
    "sjeng 3a4983e91135d8175d77fff0275c0bbf5fd313c7432ef0a40bfe8289bd94c8ec 72 0 46 1 2 0 0 8904 25624 29 3 29 1",
    "GemsFDTD 777b47e1a498051a85ed0bd11a2c00390ccf325e66c36489b811f930358e9849 166 9 61 2 3 0 0 21696 46920 63 5 63 1",
    "libquantum b742353bf68829e74911ed05330409b90598675f37a9faf7db7b0812b11d4b20 25 1 17 0 0 0 0 8840 21144 13 2 13 1",
    "h264ref 40893f88266ff505b42f3a2de10f33d7fc7932e24330dca050c18be6b4d7768d 152 1 67 1 2 0 0 13208 34056 39 4 39 1",
    "tonto 24c19da5e64735375d00071b0d14bdd384bc1f5ba2702a43e32c0b988449e796 836 48 374 10 9 0 0 77704 143200 320 14 320 1",
    "lbm 9d50dca0a9162a2ddf0c10d1fefabab1850d344ea96fceb83641637d2365ecc7 18 1 8 0 0 0 0 8840 21072 10 2 10 1",
    "omnetpp 48f61a74d0700b197c98e073f71b652ec2e49a87aa08e3fa8774af0d67302255 145 3 71 0 0 0 0 17424 42344 43 5 43 1",
    "astar a28fe2682d301acb21bd7c3574fd29c4fba33243037383b22fdef3d36ceff693 25 0 13 0 0 0 0 8840 21048 9 2 9 1",
    "sphinx3 ba2356a9984da20185269c8efd35aad54a7a0e0141ecf466444a149973087afe 45 1 26 0 1 0 0 13120 33696 24 4 24 1",
    "xalancbmk aecdf21d85cda3217f950f21e5a99d6b6a1d1b55e5949691ebccf9cc380e23d8 1113 22 610 5 4 0 0 64760 161976 249 22 249 1",
    "inkscape 6656eab8621c1d6b373e11b56a75cddd72a062b4213a74e10ff9ec4f7960b58c 3017 1529 0 0 0 0 0 150552 456776 415 72 415 1",
    "gimp 054c9dc7f5955c9fc94d45092a0cb625da64c97042a94a68413ee1ffe78ee8e7 1107 26 561 6 7 0 0 60336 153544 239 21 239 1",
    "vim 93d4c2468fc74f36591526f9276f1dd2cad90af418f45bed3d4b2b0a1873fe08 1084 602 0 0 0 0 0 60360 196728 161 32 161 1",
    "git bc1bb4c2d9c928be53b546c718b2c9b5706e838c3faef1b56e27ddc5279c5bbd 695 22 339 3 2 0 0 38952 118664 151 18 151 1",
    "pdflatex 5effaf71c25aad1d626618a37ca39e3ed2585374f7343f1e05f50f84a5ca103d 318 11 200 1 2 0 0 21816 67688 75 10 75 1",
    "xterm be978b042fb51045862de692046782a06a49dce95509ff768c5cd70e41701d84 190 7 94 1 1 0 0 17360 46680 53 6 53 1",
    "evince 95bf1608dd219dcc09fc2b87aae5b605f95ed08bc273cf01791d19e9ae59be16 66 28 0 0 0 0 0 8904 29384 15 4 15 1",
    "make 28860126861fbb06e426f287bc6122314fa0c96cd2da7a1b7e33edbcc19ceab6 71 1 29 0 0 0 0 8928 25240 13 3 13 1",
    "libc.so 01f9b985ab04c93b42362a3b499d1282433c724c8571f8334d9aae46e80dfc95 778 19 334 2 3 0 0 43320 110376 147 15 147 1",
    "libstdc++.so 919cb88e258c0154e24eea416e4c7b4d0a7053b472f84c2f817d152a843a39a3 375 5 181 1 1 0 0 25856 67784 79 9 79 1",
];
const A2_COUNTER: &[&str] = &[
    "perlbench 411b889858561a483f6397af321826a4d111974293db653db5bbd0644cf65462 146 65 43 0 0 0 0 30488 88056 68 12 68 1",
    "bzip2 56ce12600580a4dc37b6ffc67bb0f23386009ca2ee60b161eb13494f3da75256 8 2 2 0 0 0 0 8840 25104 5 2 5 1",
    "gcc 85413f5195d2fec4f6075df81b1bc8a18f560ada2beea6fa6b152256e05c5606 379 191 116 0 0 0 0 77616 156448 187 17 187 1",
    "bwaves 2eca0fd5e7dedf1262695aff517e75e066534cfdb0ca97d2f9869ae6bb8e62e5 4 3 3 0 0 0 0 8840 25128 6 2 6 1",
    "gamess 962411688dc2d1c7fa43efe7a2fc97ffc209c8efe1153528a14f4fffd623f625 906 2 129 86 499 0 73 185640 360744 505 38 505 1",
    "mcf 83a72a84d4abddd9a7948182997f57a3b118fb2efc5df211bf7030c479b0a5db 22 4 2 0 0 0 0 8840 29224 6 3 6 1",
    "milc 56f22336d3a960011df3fb78fae9a627a1620e7485c1a8fe7bb5ae338f98cb3d 8 8 4 0 0 0 0 8904 29272 8 3 8 1",
    "zeusmp 392e38c81e16a7428d2c28da8830e1bbd99ce21aa0a07ae8fbe96142795141bb 28 9 2 0 10 0 0 13160 33688 19 3 19 1",
    "gromacs 9292bda452c44738c02dae63524acf5f41f458a7517f50d443cf8285990d00e0 83 46 29 0 0 0 0 21912 54760 46 6 46 1",
    "cactusADM 80bdee6679f8290f53d46152e368218d654bf61c5db1292a7f5a2dc8f42fcc87 101 52 32 1 0 0 0 26064 63096 52 7 52 1",
    "leslie3d d6ab3a5b903f95c681a67d3cb0653ec05d9447c9f1da73ab065d37e8fa17937b 19 6 6 0 0 0 0 8960 29296 9 3 9 1",
    "namd 9bd581b217c2a80afbdafb475b335a37f7bebd1722c8f64973d23de998fc6fa3 41 14 13 0 0 0 0 13208 33680 21 3 21 1",
    "gobmk 0125c1718d2fb02b198344df78f97b084ae643146336dd4c7616fb6c0c76f2a7 89 32 22 0 0 0 0 21672 50424 36 5 36 1",
    "dealII 711bd994fded69c6eaa51c04c4dde7fd118b4f671147998763f518bcfd397589 245 113 74 0 0 0 0 51808 113712 113 13 113 1",
    "soplex bb4c57d930a9cd92a28c14510a95829d7d9b529d3e97c1f0111aa969df0572b9 44 19 12 0 0 0 0 13208 33656 20 3 20 1",
    "povray 2c55894440ae78f6700f7bec34cbfc625f8fae96245af54636b31b4d4c83dbaa 86 43 26 0 0 0 0 21760 54592 39 6 39 1",
    "calculix d282447339e736e3faf62032fe7551d1a424f6e6fc961c119a0d738bccc77379 244 132 77 1 0 0 0 47776 118000 121 15 121 1",
    "hmmer 4f9ccbb7747edbaf3a0998e868c30fb0c919bd66965a880aaecb202ad883674b 27 10 7 0 0 0 0 8992 29368 12 3 12 1",
    "sjeng ff8d54801058b7426d17c0c4864f45bcb7410f2daff1b1bf2e4629a0d1d71b9a 24 9 4 0 0 0 0 8904 29248 7 3 7 1",
    "GemsFDTD f73a11e2b5907fc450bc0ab1528d35c1f443189c3728a1586eaa8188a22b2aab 56 38 26 0 0 0 0 21696 54592 39 6 39 1",
    "libquantum 4b64477902efe0dd0b075e761e18bf31aebe72762a19ad6eefd66dec0c94a916 9 2 2 0 0 0 0 8840 25080 4 2 4 1",
    "h264ref 655fdbff1c447a264c1228b4676d57a94a0e419ddc16edec6dc98d4c63f1cc79 56 18 12 0 0 0 0 13208 37776 21 4 21 1",
    "tonto 2259cd84a2f3f38dad4295ac39d0fc0d4a98b111a9c097a8fd4be1e1a1bd1fd5 383 194 120 0 0 0 0 77704 160616 190 18 190 1",
    "lbm a9527778aa08e2284905b9ba1b0d387fcd3e143876d2a576d7b095e55876fb43 12 11 2 0 0 0 0 8840 29224 6 3 6 1",
    "omnetpp 6e611f2f0d928386e8303d03c5131569dd8c0ea9464ecde4b464e1f340d0f4bf 123 31 15 0 0 0 0 17424 46184 30 5 30 1",
    "astar 5765ce9c8a379d3b124084d4637b4b485dc07ceb9c49419d8f608e0cf5c3788c 20 4 3 0 0 0 0 8840 25128 6 2 6 1",
    "sphinx3 ad7cd1f28f08615854ef836fefbd3819bd9d959b1a961298757004e8812888eb 24 17 8 0 0 0 0 13120 33536 15 3 15 1",
    "xalancbmk 3290f147317b8dbc59bcc2950f1aa97678134fb100d249e1961b2e9de6440d36 341 174 97 1 0 0 0 64760 151872 167 19 167 1",
    "inkscape 11deaa8b3d257ede9b9ec5401ef020437d1f97f066954f5a6e8bedf23618ef6b 709 611 0 0 0 0 0 150552 411168 219 61 219 1",
    "gimp d1f002ef3d25e10ca981957c845c9cf6d2c4e928e2da29b786391644c201a6cf 285 140 84 0 0 0 0 60336 126576 137 14 137 1",
    "vim 1be41348c1bb57325af4c6578388a88d8d2f258c62684f743cba161085381748 272 220 0 0 0 0 0 60360 182624 83 28 83 1",
    "git 2b775605806b45dbb58629541f142ac76a4385804bef787fcf816b5eb30f078e 176 96 55 0 0 0 0 38952 88536 88 10 88 1",
    "pdflatex b111000e804dcbd6bfc5bf729dfe9f6131f4e9908dd96f235d243cb7eee06100 81 45 25 0 0 0 0 21816 58736 41 7 41 1",
    "xterm f5c4f551af82c4c4775118360940a8ccc0cc856205c0a478f9c1446f26552311 49 26 15 0 0 0 0 17360 41968 25 4 25 1",
    "evince 8e92b4a522ce4747dc6785dddeac6bc11d21ae23b805825d8cacf79e71246678 19 12 0 0 0 0 0 8904 29224 6 3 6 1",
    "make 465606f887a602c670fc2fdbe9f316f73378e618e4693f917368116679bb4538 17 8 6 0 0 0 0 8928 25248 11 2 11 1",
    "libc.so 8a11a6115f4c7af035b0fdef3ff51a7dea3dc294bd15023c687736aef81827a3 200 105 62 0 0 0 0 43320 96992 99 11 99 1",
    "libstdc++.so 27843cf2c22a570ee5a6abfd38d67e7fcebfdc9f10321730d1e3d3b8b7966d7e 109 46 24 0 0 0 0 25856 62856 42 7 42 1",
];
const HOOK_ALL: &[&str] = &[
    "perlbench dc39efa78d9124f7f83edca1fc1bc408cb2804e72679ea4ad9e36cb5d646108a 42 0 0 0 0 0 0 30488 53816 2 2 2 1",
    "bzip2 ef5cb2dbbcf4c6ba85a00c3c2fb95187cacbbdeffaac0da418b3b86b8f2d85e9 3 0 0 0 0 0 0 8840 29216 1 1 1 1",
    "gcc b5127ad3ca46daf1fdb80f1bc065c046a02baa987be0056205442aba3f55026d 111 0 0 0 0 0 0 77616 107088 3 3 3 1",
    "bwaves 49f8baf4c78f7fc8d19553bf83a437289ffd98a31ff0bec503f2bef8320a0529 3 0 0 0 0 0 0 8840 29216 1 1 1 1",
    "gamess 448d7f6fcc27b8691804bd463637c0ffc8dacd1bb5b4bd85af0366f985761cbe 296 0 0 0 0 0 0 185640 250624 8 8 8 1",
    "mcf 9db3d7feeb56f362d39799cc5ab513354f8947f80ee0f2ba9fa686e3aa0e55c6 3 0 0 0 0 0 0 8840 29216 1 1 1 1",
    "milc b8e103bf093c6e8027a5c89b5885aec986f7cf753eaa5474003614ebc2ac935b 5 0 0 0 0 0 0 8904 29216 1 1 1 1",
    "zeusmp c94cd1ce2d94e420221e219f209a6927bc876a5b068d4adc1321050976c8254a 8 0 0 0 0 0 0 13160 33368 1 1 1 1",
    "gromacs a6d33222fc5033a57223b9231f45b98bec86411cfbba0996cd6b892b89024d22 29 0 0 0 0 0 0 21912 41504 1 1 1 1",
    "cactusADM e20ceaa9b4dd510e2cdb31b3006e85862b900380345ebe22fbf32a6f04244f6a 31 0 0 0 0 0 0 26064 45600 1 1 1 1",
    "leslie3d 0e5d65448e5cd801001aab299a095d5648025039f54e3763206bfd08ce3e797b 7 0 0 0 0 0 0 8960 29216 1 1 1 1",
    "namd d5a6003d26cbee71941c7d73a354d7cd6bdb3020b213de1932bc45d418c87106 12 0 0 0 0 0 0 13208 33312 1 1 1 1",
    "gobmk ec7cdf2383fb60526d3c31c20049fbbabfc24f9aa965dabb99c37f2aaa0d1020 21 0 0 0 0 0 0 21672 41504 1 1 1 1",
    "dealII a0824b63fcf18a9a1a999edcfcabaa6efc9662cde4d20b19c273b8b276c6784c 70 0 0 0 0 0 0 51808 74296 2 2 2 1",
    "soplex 89e6c3f50b99a3180c7f2385d42a85aab0d7b5d55bba178c74ff6d3db7d1049b 12 0 0 0 0 0 0 13208 33312 1 1 1 1",
    "povray 49c9f81dd5ee8c80dcedae2ff5733b5a97569e824d1b16f0ba34d898f41ec121 24 0 0 0 0 0 0 21760 41504 1 1 1 1",
    "calculix c07f76fb9d584cf3f17bbd55661d6e777732d8f65f897657ab48f8836d07ae6e 72 0 0 0 0 0 0 47776 70200 2 2 2 1",
    "hmmer ac8036eb16255e78367619c15b866730f520eebd43048adcb9afff6e9f3827fb 8 0 0 0 0 0 0 8992 29216 1 1 1 1",
    "sjeng 49397048fb51fc1ce8b635a3dd49bd9896684fb1ff937979bd5b49256d5f0f9a 5 0 0 0 0 0 0 8904 29216 1 1 1 1",
    "GemsFDTD b97b0a2154398465f71f3e3ba5fa119728fd014d0d4d0a76c10cd441e5e782b7 22 0 0 0 0 0 0 21696 41504 1 1 1 1",
    "libquantum a20b4a3760ee8836bb61aea24f20ce4213b3e31218a48471662754d06def8bd5 3 0 0 0 0 0 0 8840 29216 1 1 1 1",
    "h264ref 0ab19254843ff7ca7d3f6267d3e083ed30bfddab79acc965b00fc54d6d6ee22e 12 0 0 0 0 0 0 13208 33312 1 1 1 1",
    "tonto d5410719a7d80a2d11c1bafc9e4550ffb7331d6b51c7df7b5dec7c056755b0b2 114 0 0 0 0 0 0 77704 107088 3 3 3 1",
    "lbm d407c5b1aebce31faed4d2679308ca6f2e9003547d3b26054ef847b9255adfed 3 0 0 0 0 0 0 8840 29216 1 1 1 1",
    "omnetpp 0e99748b7d10165da286e0a6893a5a9529823431ea71658754b645ac84b9e69a 16 0 0 0 0 0 0 17424 37408 1 1 1 1",
    "astar 0a178e1da0ab030bdf519a444dd964c80b95d58f9efeb1f929ce076ac29a2d73 3 0 0 0 0 0 0 8840 29216 1 1 1 1",
    "sphinx3 dc10c0e89229a4dd3fd9876f89ac2d37c3c664538c5a99e92bd163786931ed07 9 0 0 0 0 0 0 13120 33312 1 1 1 1",
    "xalancbmk 6c7efb662c0d1de5243b202b3f1eb9e8a379a4c8eed4d6885ea48901bc0f7f5e 92 0 0 0 0 0 0 64760 94800 3 3 3 1",
    "inkscape a801283cc2c59c2c072cb5a364c86a208425e49c698254b0f715e5865445b4e9 221 0 0 0 0 0 0 150552 288032 33 28 33 1",
    "gimp 4a4ed0b9f744963706a50499a1a65432742db576bb624a1d5ff57a4293894dd4 81 0 0 0 0 0 0 60336 82488 2 2 2 1",
    "vim de2f0051c3d7b6fa942d74cf9a3b4ab1b1b0e4a81edba96ede7525ee673cc5db 82 0 0 0 0 0 0 60360 119616 13 11 13 1",
    "git f0547f6586bc31103ffd357cf8094171d91c41cf0ab31d0198d0ef239443daab 51 0 0 0 0 0 0 38952 62008 2 2 2 1",
    "pdflatex efc665b5f3c0a1e301e4c751b63a066ca847d0cb5bc0e660879e21cdc8609004 26 0 0 0 0 0 0 21816 41504 1 1 1 1",
    "xterm 3d743082b3096451d0327e89645316ca589d65fc6e6599d250ad3da2bfd1b7f4 14 0 0 0 0 0 0 17360 37408 1 1 1 1",
    "evince 02e231ea64fab1c9db840f5876a3131fbcc754edcfa52fe4699b978677c9e467 5 0 0 0 0 0 0 8904 29216 1 1 1 1",
    "make fef9e89e080f07d6864a89595a762556ad00088e7b1e988179b318539dbd24db 6 0 0 0 0 0 0 8928 29216 1 1 1 1",
    "libc.so f3c11b5a7ed58ac649bfeb3c9017042ace7c1022ab10b60d539315b4a8032eb3 60 0 0 0 0 0 0 43320 66104 2 2 2 1",
    "libstdc++.so 4d29202661b203d020565a38fb642a62bf627e9a39215f6781a553dd68dc3c0b 24 0 0 0 0 0 0 25856 45600 1 1 1 1",
];
const SHUFFLED: &[&str] = &[
    "gcc-sorted 0397d451afe35f20c586fe2cda2d05c45e38900449bcaca0a4c8388337d396aa 1472 32 700 12 2 0 0 77616 204088 297 29 297 1",
];
const DUPLICATES: &[&str] = &[
    "gcc 0397d451afe35f20c586fe2cda2d05c45e38900449bcaca0a4c8388337d396aa 1472 32 700 12 2 0 0 77616 204088 297 29 297 1",
    "gcc-decoys 3eedbbc5899c09a55d125047880585c6d05c7f01b7d03c29ae4dbd436be4e5e0 1472 32 700 11 3 0 0 77616 204112 298 29 298 1",
];
const HOOK_ALL_CALL_ORIGINAL: &[&str] = &[
    "perlbench 3be125a08e47cc2a4c86a1e2b29839969fb28e63fc92653b12ada5dec1e058f3 42 0 0 0 0 0 0 30488 53816 2 2 2 1",
    "bzip2 3486245a4503d43b432be8a9f4a86a829559a6df7c199d2709c38e6d1e271772 3 0 0 0 0 0 0 8840 29216 1 1 1 1",
    "gcc e1e8ec7b44e2eeb9c71a47a526888a8f7fdc1d829677010d4eecd2c2505645c9 111 0 0 0 0 0 0 77616 107088 3 3 3 1",
    "bwaves bda249f7c2bc6dc8e896a6c7d24be3b121c37c23a8e2b2a4cdf4f6ee7df05f30 3 0 0 0 0 0 0 8840 29216 1 1 1 1",
    "gamess 02f162eeae4a9c018430aa440eda14bba0c6e1abae830ed1efca22f06cf99aff 296 0 0 0 0 0 0 185640 254720 8 8 8 1",
    "mcf c5b39856c30b8060f8360849687403fc9f0a9cede3691e54a0af401cfddf7b9b 3 0 0 0 0 0 0 8840 29216 1 1 1 1",
    "milc 8d15a9f4f2cc2a5d441f392f512ef9c3428481fa9264284f7a861ad551dbe4d4 5 0 0 0 0 0 0 8904 29216 1 1 1 1",
    "zeusmp b12bc679b95779a8f83092525f095ac003e0e8d75189a5f10c8cefff765a84b7 8 0 0 0 0 0 0 13160 33368 1 1 1 1",
    "gromacs 814f70141d4f07605e13e2cbc67432349220880f07f3b3d5ef21c4e427b0841c 29 0 0 0 0 0 0 21912 41504 1 1 1 1",
    "cactusADM c3c1e22f1f7b926d8681b27b9fb51fd35ffc1d20840d50ff8b60a2a8e2369b95 31 0 0 0 0 0 0 26064 45600 1 1 1 1",
    "leslie3d fad09bd3242e15b8e09560880342edac5a6062d29da15765f49fda3240944f51 7 0 0 0 0 0 0 8960 29216 1 1 1 1",
    "namd db4c0084f93ccc394b79a4236ec092a98bbc30cd1e80cb789b021b4ce4a1f30a 12 0 0 0 0 0 0 13208 33312 1 1 1 1",
    "gobmk fefd7dde32460b773bee9860067589678847f32840fdc4118818b0c75815ed4c 21 0 0 0 0 0 0 21672 41504 1 1 1 1",
    "dealII dea63e81ef63363658ff48057ece06a85824c5f3a71660fc588909daa915bd14 70 0 0 0 0 0 0 51808 74296 2 2 2 1",
    "soplex c31ed1b8d457d8d736d5ebe660b4da95e46a24e46e81d4b65978c271fdf56253 12 0 0 0 0 0 0 13208 33312 1 1 1 1",
    "povray 3741bc47f6e946dbf644b635209f2afc47da416110ee514680af3993944ad3af 24 0 0 0 0 0 0 21760 41504 1 1 1 1",
    "calculix 9a766f7a9b9561310e0a9b349e879669eac04336cb89cf92e6e0adc71b9fee33 72 0 0 0 0 0 0 47776 70200 2 2 2 1",
    "hmmer 60f5834af624f36b78e8031375b995a820f454e8e731392de4ee18709a74c305 8 0 0 0 0 0 0 8992 29216 1 1 1 1",
    "sjeng 8f8bbd51482500417c57ac3a101b7bd67a88cfbe9d6e5e9af28274a8c3e0c1f2 5 0 0 0 0 0 0 8904 29216 1 1 1 1",
    "GemsFDTD 5ef17410985d455a64061914ff5a0b98b293c8b25a653476867108e5fd9f858f 22 0 0 0 0 0 0 21696 41504 1 1 1 1",
    "libquantum 836c0fdcd9d097bd89aa1dc42c177b3f72c566e93a070f4ea86c2270520c1da9 3 0 0 0 0 0 0 8840 29216 1 1 1 1",
    "h264ref c5eb351fe2dd5a5bac7b399fc3a7cae934a672bf9237c897382174927d490d22 12 0 0 0 0 0 0 13208 33312 1 1 1 1",
    "tonto 402dadb1b5167565aaef23f38593c52e69c2df336716ea430944707432fb44fd 114 0 0 0 0 0 0 77704 107088 3 3 3 1",
    "lbm b308b6c0d1ffd338f9a0536dea2b2c4a6b5fc136caa10a2c3b2860dbf53f2f20 3 0 0 0 0 0 0 8840 29216 1 1 1 1",
    "omnetpp 1d3d2f841bff53d486209ed40f6b5441bac2932f48786d2fee0fa181f0dca9e2 16 0 0 0 0 0 0 17424 37408 1 1 1 1",
    "astar ab074418ab898bc812af0cdca75d2c12344c4dbb197bf334a5f35a6074e6c83d 3 0 0 0 0 0 0 8840 29216 1 1 1 1",
    "sphinx3 27b7ac5be209b11b1f9d3d189f2adeb1145e0a21e71951f9e639fea736cd5b39 9 0 0 0 0 0 0 13120 33312 1 1 1 1",
    "xalancbmk 2b3e748bd4f4d85ae60092fe4a194131705aa5258d66c8e8377bdcfdb8a329e1 92 0 0 0 0 0 0 64760 94800 3 3 3 1",
    "inkscape e7b2ec5d8c5feb1e9ff30c5f8c4588cc513307a16f090c4710a2dca2df1d0109 0 0 221 0 0 0 0 150552 292128 33 28 33 1",
    "gimp 88701e6c1feb39c093a1ef5871f6529999d26ff89f1aef21fa567d675221f308 81 0 0 0 0 0 0 60336 82488 2 2 2 1",
    "vim b74b836d398a86d6fc8cd2c8dc013488c76ec18898b620b69ab673e6793bf118 0 0 82 0 0 0 0 60360 123712 13 12 13 1",
    "git 211ac22849f8c5d7fb28b3f57b3a75017adcbb93abd18d298e7b5ed466aad31f 51 0 0 0 0 0 0 38952 62008 2 2 2 1",
    "pdflatex a6d1f3198efc55dcc948960fe77ceb9a122ac1eb18453726cbfab27cf026adbd 26 0 0 0 0 0 0 21816 41504 1 1 1 1",
    "xterm b2b5af5fad029e7ae0422fd240f2a0a705ff9996235bec441f7260b9bad419a7 14 0 0 0 0 0 0 17360 37408 1 1 1 1",
    "evince 9fa576fd7536cc12b02b3b879a228d6cf02dded1d43b6c5cfb351448a297c6fe 0 0 5 0 0 0 0 8904 29216 1 1 1 1",
    "make 2fc63fa3929cf5aa5b347a11cd06b26b98f49c5bfddfda06998c0714d38856e9 6 0 0 0 0 0 0 8928 29216 1 1 1 1",
    "libc.so 63fff55131d4a9f71c453cd17d348cfafdd429b752d8044fcd739259f9b59d1e 60 0 0 0 0 0 0 43320 66104 2 2 2 1",
    "libstdc++.so 6e14bbf0b8540454ddb803dd891b14c0119f36d42af96880600f8a91d37742ad 24 0 0 0 0 0 0 25856 45600 1 1 1 1",
];
const A1_FIRST_FIT_HIGH: &[&str] = &[
    "perlbench 972d423b0f74da3f2a66bc41119537fc8c2682815bcb17bfb39e72342b954aae 536 8 248 3 1 0 0 30488 101464 117 16 117 1",
    "bzip2 e84d201eb0b3830261f85bdfa13ff7c5253002d15913b0cd9f56fe90f323f77d 17 1 9 0 0 0 0 8840 21096 11 2 11 1",
    "gcc 6557a04bb888f9225a064db958b81ee27d6d65997eee8c8ba56dd2091ad23fbc 1472 32 700 9 5 0 0 77616 245384 311 39 311 1",
    "bwaves cabf8c911f2c6710c8db6604d93dded8c5661468062304b094660cba810d745f 10 0 9 0 1 0 0 8840 21120 12 2 12 1",
    "gamess a8a715fae83d057539f15960c7dece7eb9b1121de0843860e29a0090e300ecec 2177 11 25 172 861 0 26 185640 509928 750 74 750 1",
    "mcf 537ed94883e7f9b68995ca4b25f25a705d4ef798edf1595b05a9adc1ddc50c5f 23 0 8 0 0 0 0 8840 25096 7 3 7 1",
    "milc 8eb13e4df6bc8602230f706b1d6af1abdc503856767a9f7ea33d4b5ef8d6259c 30 2 6 0 0 0 0 8904 21000 7 2 7 1",
    "zeusmp 60292252ef42849b18a5adbf85d8d4f0292b2a4e1da974381b0c40c2e798c3bd 46 1 16 1 6 0 0 13160 37896 26 5 26 1",
    "gromacs be34c37820f4a789f70a7f1034c77a98e8a16a22c5dbe66968191b962b63bfe2 209 11 78 4 1 0 0 21912 59520 76 8 76 1",
    "cactusADM a67c7a29157ab66977ed6c3b4b2ed25cf851bd6d261b0d4d931c55cfd519916a 224 12 93 5 1 0 0 26064 67880 83 9 83 1",
    "leslie3d 3ef4660390c127f74e99b9a1e7215da18aa8396f25bb34a53b36f84c8b0742ee 48 4 14 2 0 0 0 8960 25312 16 3 16 1",
    "namd ce88897d4f02cbb64f884a4086b075b1a46158ee11d62b33b2d3ee5144257658 73 5 38 2 1 0 0 13208 42248 39 6 39 1",
    "gobmk fbc4c37f6f22b531a866ee97cc33253397573065211cec7103ae6a128c340f06 329 6 152 0 3 0 0 21672 67592 71 10 71 1",
    "dealII d8f55fde67ff2bf4bbb3dec1ccb5de70b68735572ae1b4ea54c65ba2d1dd8cd7 932 14 433 6 3 0 0 51808 164992 204 26 204 1",
    "soplex 0bfccb47b00e917692f6cedc4a6e488ab1c1e359d931460a7fdec280449e21db 151 2 82 1 0 0 0 13208 46344 39 7 39 1",
    "povray 18945444cc3b24467dd751146921c49606839efbb788252287823bd8d8a68319 323 7 163 4 1 0 0 21760 67640 73 10 73 1",
    "calculix ba73329e28a890c5a98cad208cddac0d8e0d56f8c242826a586cb014b7ccd149 479 30 206 11 3 0 0 47776 123672 189 17 189 1",
    "hmmer eb22dd041f40549378e0eb7eac5362f48e075b6c4c42b96b3bfebb685f16abec 77 3 38 1 0 0 0 8992 29456 18 4 18 1",
    "sjeng ef7ea798bdeb0e6784fe9619ad98ce9e99c5dda91a61bcecdcc6bf9b90dab45f 72 0 46 0 3 0 0 8904 29720 29 4 29 1",
    "GemsFDTD b71a33fb143109524c9b46d134f4fb98f2036edc5f56b23e027e6ceab4f049f0 166 9 61 5 0 0 0 21696 51016 63 6 63 1",
    "libquantum f10552cbf8401fb8fe71b9979bacbc2fc7f98c24655dddb6c23579b8f1c62248 25 1 17 0 0 0 0 8840 25240 13 3 13 1",
    "h264ref 9df9248f939ffd36e9d62fb638ebd21444b0dd25418646d0a12d3e47ee930ed0 152 1 67 1 2 0 0 13208 42320 42 6 42 1",
    "tonto f18468f67d45c410555edd063b3f7e94362a42873e935202ecd3af0dd997d9e7 836 48 374 13 6 0 0 77704 184448 332 24 332 1",
    "lbm 7346045b34471a727c8dfd2665e59372055981fde2e69858cd93063c08ee0e3b 18 1 8 0 0 0 0 8840 21072 10 2 10 1",
    "omnetpp e2c7e483ee1e7d9281412622fefc2e60710b51dfa3d51dbe2a2fe5b02859cfd4 145 3 71 0 0 0 0 17424 50584 45 7 45 1",
    "astar e30b7dba7b225c1444b86d91f09c92be6799884d5c2f30a16f472f64a2ba5223 25 0 13 0 0 0 0 8840 25144 9 3 9 1",
    "sphinx3 b790a93a96775e190845a8a16af4534d271766592421c18e23a6526c01261329 45 1 26 0 1 0 0 13120 29576 23 3 23 1",
    "xalancbmk c363b40b0bd8a18f35e7df68099d2f5c2d82921b15b6c3f3371aacc43c4bf7c6 1113 22 610 2 7 0 0 64760 199152 262 31 262 1",
    "inkscape fb67945ceeb71d215f4b537198eceb0af882813555defa5b967196b6f014bc9d 3017 1529 0 0 0 0 0 150552 460824 413 73 413 1",
    "gimp 9fe1c08b02c1eb79942542ba925b3d39b35fcecd7f4cae80a4de1bf28226120c 1107 26 561 11 2 0 0 60336 186456 245 29 245 1",
    "vim 25ba102a4679b1171f20fc74262bbf680572a71a81558baf3892b0b64c736995 1084 602 0 0 0 0 0 60360 200752 158 33 158 1",
    "git b6813a1329ab6422c465910b937ad6702fcb97ac6871ea256f08a26eee501788 695 22 339 4 1 0 0 38952 126952 155 20 155 1",
    "pdflatex 23b99fd8203b1b62c7c5e08884b5b1ef1ec04836fa9b77e13c5265dc9c495da2 318 11 200 2 1 0 0 21816 80048 78 13 78 1",
    "xterm 7b618a0197d6d0eab3691ae9d15aa0403d1a4b8d8c034d16877bca353b401537 190 7 94 1 1 0 0 17360 46704 54 6 54 1",
    "evince 38ef878a5a1eaa52dc5e3786ba9ac44b058292b6a533976b97652ecd1d6d3cc3 66 28 0 0 0 0 0 8904 25288 15 3 15 1",
    "make 9eef77c2a0908796bdff313ce166fb6df657ac14a8dae9e30008840bcf296184 71 1 29 0 0 0 0 8928 29336 13 4 13 1",
    "libc.so 40bcf850016be6fe0253b942a5772655650fc827037dd141806510d6fc2d6f54 778 19 334 1 4 0 0 43320 139240 155 22 155 1",
    "libstdc++.so 5caa2101699644100dd93ed891683bd0ce316881af1c349d8e94c4892fe11757 375 5 181 1 1 0 0 25856 80168 83 12 83 1",
];
const A1_B0_BASE_ONLY: &[&str] = &[
    "perlbench 36fe01122b5e1dc7e0862a7c671abfd8ec5a92242218976ad5859e182d476dc7 536 8 0 0 0 252 0 30488 53848 10 4 10 1",
    "bzip2 d5b2f8c9873dea3b723c771bba161431861dc6c833a5e2a3261939ba2741c313 17 1 0 0 0 9 0 8840 17000 2 1 2 1",
    "gcc 98830ef41cbf538f0cd307f9cfaafcc39152f8851c831e9fc992f9b2c8544a57 1472 32 0 0 0 714 0 77616 127184 27 9 27 1",
    "bwaves 5fd405ab1d506d50725b249ffa01543ca8f3289f21836d75f5742458bde06808 10 0 0 0 0 10 0 8840 16992 1 1 1 1",
    "gamess 12f197910f9af20ec0d33fdc0cb85e3f18a549a3670db708692c2622d1ab995b 2177 11 0 0 0 1084 0 185640 247680 20 10 20 1",
    "mcf e383a9c81679db5b0b02b68704268c467c5882581eaeac143779485cd0d66540 23 0 0 0 0 8 0 8840 16960 1 1 1 1",
    "milc 063fd5b40f3cfbb85053ae5304274dbcb5d18cf9dd44460677859cb6eeed48c7 30 2 0 0 0 6 0 8904 16952 2 1 2 1",
    "zeusmp fc09c74e88003decddc601c2a6af62072af4255623f03948c25cab5b48c93e01 46 1 0 0 0 23 0 13160 21376 2 1 2 1",
    "gromacs 65496c5100c30a56fbad52fff42e089304a505ec6f2571296ec376ba97ce3354 209 11 0 0 0 83 0 21912 34712 8 2 8 1",
    "cactusADM 85de27a51f54eb41276f657fe0e6adf7c3d72a3ee9f596d555b96ad3b32b0659 224 12 0 0 0 99 0 26064 39112 10 2 10 1",
    "leslie3d 99a2821b9c068ee9d684e8726632fbd7c446fed32d0ed6515c2af9e35610ba54 48 4 0 0 0 16 0 8960 21232 3 2 3 1",
    "namd 2f6af3ce3d7b07cdffa61e142e9beef2f4203b5aea8b038d7ba038b69e995cb0 73 5 0 0 0 41 0 13208 25776 5 2 5 1",
    "gobmk a8bf845d83bb4d5cb52fb9bb9e0923b95698778eb8d5a382d1b6036edcd46e1f 329 6 0 0 0 155 0 21672 39936 7 3 7 1",
    "dealII 276660d489232ebbe3bde0f926eb609351d5d19f64a23da45a7d931ab1497de1 932 14 0 0 0 442 0 51808 81536 13 5 13 1",
    "soplex 83cfb072c199e8fb0a8fa98bc68fdeb11b6bdad874a1c29bba5ac432d2a75b0e 151 2 0 0 0 83 0 13208 22304 3 1 3 1",
    "povray 921c7bb6273cc6fd7e957713f9f7c52dead0677bbf9f5e6de840316b277456a8 323 7 0 0 0 168 0 21760 36024 6 2 6 1",
    "calculix 1f8b6e84102b195ed128c7e5cfb7d20e0250424bc4691e8a03cd0742ef3da51a 479 30 0 0 0 220 0 47776 74200 26 5 26 1",
    "hmmer 4d02f97ea22f28ac41dd59895ffe02a8502719a9ed63cd164b67adee65ceb0ef 77 3 0 0 0 39 0 8992 17480 2 1 2 1",
    "sjeng 0bcbef9ba876b3908ae9d4516eaf174924dc21c781428af846510d3359c0686b 72 0 0 0 0 49 0 8904 17616 1 1 1 1",
    "GemsFDTD 5a71b41d6910e421c0e7920caeed8a488197f8925589384869c89e023b9310a1 166 9 0 0 0 66 0 21696 38512 7 3 7 1",
    "libquantum 6ec64c39f42abde0a46d1eb2c4933e0e947b70b82077720c7e8d610d68fcd155 25 1 0 0 0 17 0 8840 17128 2 1 2 1",
    "h264ref bbed7eeb3bd2c1228552b66eb8b822b6e00cea60a8adfbce1a0a730c8615f00c 152 1 0 0 0 70 0 13208 22072 2 1 2 1",
    "tonto 1bff3626189389d02292bf3ceeea3cfd10d5672f67af026b17e290b57fe9fb21 836 48 0 0 0 393 0 77704 114192 41 7 41 1",
    "lbm c7fdaddc33122d5893aeb477ccb6d888164bd8b6892760ad6d6be4aa2f447ff2 18 1 0 0 0 8 0 8840 16984 2 1 2 1",
    "omnetpp 7aa807af612a0603a81320c77d2c91cc68f2da39cb8b8363c714d15fd317872c 145 3 0 0 0 71 0 17424 30328 4 2 4 1",
    "astar bfce112db05005cf57f208748f4e4c186918f18f641eca21322677d55dd38dc0 25 0 0 0 0 13 0 8840 17040 1 1 1 1",
    "sphinx3 6cc7f7099c53e8578f75243a4a23e381669768a4823bb2aa275de330e0d0f443 45 1 0 0 0 27 0 13120 21384 2 1 2 1",
    "xalancbmk d131a221ab14a495e73d62aaab57bdd833695e41c7f339d8be4509e1523bfefe 1113 22 0 0 0 619 0 64760 113208 20 9 20 1",
    "inkscape 6656eab8621c1d6b373e11b56a75cddd72a062b4213a74e10ff9ec4f7960b58c 3017 1529 0 0 0 0 0 150552 456776 415 72 415 1",
    "gimp 2d2cf62cacc1321c05941aba35f53b5bbd285394f3b6a90813dd58c6b75cd299 1107 26 0 0 0 574 0 60336 100200 20 7 20 1",
    "vim 93d4c2468fc74f36591526f9276f1dd2cad90af418f45bed3d4b2b0a1873fe08 1084 602 0 0 0 0 0 60360 196728 161 32 161 1",
    "git 72bbafe92a4d07aea7eff0ab72acae3709dbfcc1a27fb8e5a762ef69a95abd8b 695 22 0 0 0 344 0 38952 67800 18 5 18 1",
    "pdflatex d795b8cbb24879f5e684c0c1816b131e0a3dc596bc74844d6388c2dc1599d56a 318 11 0 0 0 203 0 21816 40752 9 3 9 1",
    "xterm 7102f74fc0a9bd8ae759fc8434166707505b2f3ae2b6d7fc56cc3e389a12d428 190 7 0 0 0 96 0 17360 30752 5 2 5 1",
    "evince 95bf1608dd219dcc09fc2b87aae5b605f95ed08bc273cf01791d19e9ae59be16 66 28 0 0 0 0 0 8904 29384 15 4 15 1",
    "make 4d4d6b18ab3b5bc278216d9493e132d96ad722eb791c33c8d202368492a4887d 71 1 0 0 0 29 0 8928 17320 2 1 2 1",
    "libc.so 74af1e51dfef176694da1f3183bc4b1ebcf6a6fdb4d4647baed04c021cd78849 778 19 0 0 0 339 0 43320 71768 16 5 16 1",
    "libstdc++.so 80ff14ed3b5c935c9ef8cd0c107dc3c9174e62afe3b47674172724912309ea7d 375 5 0 0 0 183 0 25856 44432 5 3 5 1",
];
const A1_GRANULARITY_16: &[&str] = &[
    "perlbench 96c78d39886b6a49ce52c1d51b3d1ee6fb9a9de1022ca3733c8158ce153730a3 536 8 248 3 1 0 0 30488 820440 37 12 37 16",
    "bzip2 41db6b5daf948495ce869f17511265bca5c0cf2a50b532f56063beeb91a1945a 17 1 9 0 0 0 0 8840 209512 11 3 11 16",
    "gcc bd7e458d2fa31aa6a65b7eeec72ce76933c4f9039c6eda7a9feaf0cf0adcab74 1472 32 700 9 5 0 0 77616 1128504 73 16 73 16",
    "bwaves bc6820e51d9ab5c3af93cb9bc238d153df6a9ab34898d555d69928b8e03ec144 10 0 9 0 1 0 0 8840 209536 12 3 12 16",
    "gamess 37d5a3a5ddec5244217e35266c1a104053e4866a89dd43f27ef9e7119c06e02d 2177 11 25 18 913 0 128 185640 1576648 482 21 482 16",
    "mcf 8ad19e64fdf869788b713f5fbcbf7ce74e35a3c0c70cf9e9a28fa0ba8b98a894 23 0 8 0 0 0 0 8840 143880 7 2 7 16",
    "milc bb163e18ee42392597b16e1d967f2356215d3b6aeb78ce93bd5c797c4abbd58b 30 2 6 0 0 0 0 8904 209416 7 3 7 16",
    "zeusmp f8b7c3010490d2b925146627c9e761da2c04fa46108095c5c2d39335ea2827af 46 1 16 1 6 0 0 13160 279416 20 4 20 16",
    "gromacs 25765ffb262aceef19dd3e1b13718c850b490721aa3a11049ce1740b162546e7 209 11 78 4 1 0 0 21912 615664 38 9 38 16",
    "cactusADM 5df9fd4517fb67d69de3aebb47f2ec85730da89a33c9b3e7d37838b048cb5d73 224 12 93 4 2 0 0 26064 619784 39 9 39 16",
    "leslie3d 147efd3b395197cfde8547d468e410c2da10d443db42cc6cd25a1a10aef732e3 48 4 14 2 0 0 0 8960 340680 15 5 15 16",
    "namd 1b58ff10cb099d937a4c684a817a36bebfb5ca85a2303dc83350826203c3c45f 73 5 38 2 1 0 0 13208 476208 30 7 30 16",
    "gobmk 9d26be2de73ef66b2af8791d1c1f03a867d9ba5d74e0777a6e3fbfed7e4f5008 329 6 152 1 2 0 0 21672 681152 36 10 36 16",
    "dealII 923b9ce11d4888a77c19f357b353793537a760a7856dba8d944a9acf2b153e65 932 14 433 6 3 0 0 51808 906984 59 13 59 16",
    "soplex 93e134b013b2febcef3783c0d2c6c0ccb6f89da75b8a67932e21d04e34d2ee5d 151 2 82 1 0 0 0 13208 607184 26 9 26 16",
    "povray 61db5eb9714fc65c12a0de4e1d7752087f83ce291e2d2820cde0ec51188a5799 323 7 163 1 4 0 0 21760 812224 36 12 36 16",
    "calculix d66d9f9cf799b7356bccedbc37626a84f35cc8f16287360159f4435e783d3408 479 30 206 8 6 0 0 47776 772104 71 11 71 16",
    "hmmer 60fb1a61ad1534f5fd1dfb28be57c126d69a608ed5a0c43de487d67e7bf4291a 77 3 38 0 1 0 0 8992 537312 16 8 16 16",
    "sjeng 779d3b0d857d1f2dd3349c9b4e70e4bdcf04636ec24675889da9717abb9da93a 72 0 46 0 3 0 0 8904 537528 25 8 25 16",
    "GemsFDTD 167176a6ac2856f2d62b991aa51c75a9e87d8d5506590e48b8478bc9ef58731f 166 9 61 2 3 0 0 21696 419032 37 6 37 16",
    "libquantum 9c37c392a81519057495f5a7f2b1c25bb18997d5b3fde35e074eb776c80ff402 25 1 17 0 0 0 0 8840 340632 13 5 13 16",
    "h264ref aeb4614e9c8ee81eb766592a0678555b40087f97dfa8c60b1feeed7704e81f89 152 1 67 0 3 0 0 13208 541744 30 8 30 16",
    "tonto bd78e397bd3fa9d7fc3422b8dae1477ec2854ecd8f54356ed3dda43595630334 836 48 374 8 11 0 0 77704 1194808 105 17 105 16",
    "lbm bef409b403dfe65bc272c0afaba88b578f76c743c009fc445b3966a0c728e22d 18 1 8 0 0 0 0 8840 209488 10 3 10 16",
    "omnetpp 5a84fde16bd84a6aea5b19417a7a0fc6317038640af9c79d1f984bf9a7e10d90 145 3 71 0 0 0 0 17424 611232 24 9 24 16",
    "astar 0278a96133ed473263d56e21804c8d5be1b4205a90b60c42d3841e05d622355b 25 0 13 0 0 0 0 8840 275000 9 4 9 16",
    "sphinx3 6d4699682d4899b14f4ebbf20ed4db6920d3eec91d60c013b2c375fbe0b8af38 45 1 26 0 1 0 0 13120 410408 19 6 19 16",
    "xalancbmk 922d38a76dfad900a09d05243fe861284980c126ce934d277cb5d4aa29e9fdb5 1113 22 610 5 4 0 0 64760 1115928 61 16 61 16",
    "inkscape 917ca3fafbf6833f6b3aa3bc4d59449a66175fc77d6f2aa7874188e37237fc3e 3017 1529 0 0 0 0 0 150552 2185080 65 31 65 16",
    "gimp 1331f5b770c00b0193486e89dac26eac1ba374534b157b57013f252764299bb0 1107 26 561 6 7 0 0 60336 981000 71 14 71 16",
    "vim 69123a190dc11851bfe034d3f339c6c23e7beb0ace6f702c273fb7b525ef2ef0 1084 602 0 0 0 0 0 60360 849064 35 12 35 16",
    "git bb51cd571aa3b423da646e858826e42351209996aa002c88fe5ea59ebd9995f4 695 22 339 3 2 0 0 38952 894552 53 13 53 16",
    "pdflatex 0576ec2f288846436d9762c40f57f4b2cee97948a17af7a78945796e27845fcd 318 11 200 1 2 0 0 21816 681152 36 10 36 16",
    "xterm a5447ff689786c5977bc64027fc08869152c3e667712312462a92c16fdd831ca 190 7 94 1 1 0 0 17360 676912 30 10 30 16",
    "evince 7c1d31c5f7ef7fde428b3f643efeab4a60e1a888186fa220bbe5beb92e9d0338 66 28 0 0 0 0 0 8904 471656 11 7 11 16",
    "make f705545ae3f6b215b27664bb6edd71a409194351efdccfbd2dcba78a322ab751 71 1 29 0 0 0 0 8928 406144 12 6 12 16",
    "libc.so 82acee51ff41e8a1ed8ac170e425e87eea417c4306dab0b4078a132f33c198c5 778 19 334 2 3 0 0 43320 767600 54 11 54 16",
    "libstdc++.so b225b09f99ae740bed26591f9169f71b7901db5100860c94e4227fc753920852 375 5 181 1 1 0 0 25856 685272 37 10 37 16",
];
const A1_NAIVE_GROUPING: &[&str] = &[
    "perlbench 4bd51930acae39e586cf2b7d66a5a85f42c562d598b906945ff5cfb678a6af6f 536 8 248 3 1 0 0 30488 498680 113 113 113 1",
    "bzip2 b20cc5614e7c6c27f9ea28deccbf31759ce3910da851b95743f07296c38cc4f9 17 1 9 0 0 0 0 8840 57960 11 11 11 1",
    "gcc 397d4d6d54cc2a6dbe4a8a522edcb0c2dcc5657cd4b217619d6f86b92b878074 1472 32 700 12 2 0 0 77616 1301816 297 297 297 1",
    "bwaves a5c7eed6d329db464e152ed21a649cb63ec854d7d86a9a0e2fb993cc088ff3dd 10 0 9 0 1 0 0 8840 62080 12 12 12 1",
    "gamess d327a69079edc8e0889881ff7584529fb85665ffbcdd70102b7c38b6542b742c 2177 11 25 18 914 0 127 185640 3068704 699 699 699 1",
    "mcf 81d3c21373c1084e335bec05a9a76b2c79a255b14b5d0a99927d18741871a50c 23 0 8 0 0 0 0 8840 41480 7 7 7 1",
    "milc ca6e831bfd46fee8fea9d38eb5d668d91c7d9409be71c62f75f52b7702427cfb 30 2 6 0 0 0 0 8904 41480 7 7 7 1",
    "zeusmp 0dd7638765c0c490ed44a1370ebeab8561d63d8d481d18a49a3afe5e4628adbc 46 1 16 1 6 0 0 13160 111552 23 23 23 1",
    "gromacs b2cc39ea2db2ea2d3cb490bb9996a165250f28394af5c8615da32d79ede20f6f 209 11 78 4 1 0 0 21912 329808 74 74 74 1",
    "cactusADM 13f91bd33da129ccffb2f33f7c71d8a31a8208ffd45c5abacb443509ec3769a9 224 12 93 4 2 0 0 26064 354504 79 79 79 1",
    "leslie3d 3f57ca4c61579327e79850442dc2ef2bae71af74144a68051e6b210306b8b092 48 4 14 2 0 0 0 8960 82680 17 17 17 1",
    "namd 05270a340881c4e7c0d322f80594c4d2fa449ab53f14c563f56fed7767ece1e2 73 5 38 2 1 0 0 13208 173296 38 38 38 1",
    "gobmk d3df052904565c5359696982d7a784dd91725d3101f9e0a8f4da269dc4b0b95a 329 6 152 1 2 0 0 21672 309208 69 69 69 1",
    "dealII 24551b385a4fad1f3b713e714c119428a603f368015e710e8e0a41d3ca166267 932 14 433 6 3 0 0 51808 873480 199 199 199 1",
    "soplex 0099f6e96dc26d334a22abf5f108453a85e630472108bb5ec89d2a456db5d6a1 151 2 82 1 0 0 0 13208 173296 38 38 38 1",
    "povray c451406f51cfd568456d50bf23ef224a050dc693a42ae8dc3456f6114b8374ee 323 7 163 1 4 0 0 21760 329808 74 74 74 1",
    "calculix 77f32222fb9b12892420d191295e32edf322442c65785dd2912c4847d6edd3b3 479 30 206 8 6 0 0 47776 803464 183 183 183 1",
    "hmmer 9f8c9da536d1fcca9291fd52ab71f0198e58cdd298e4157c29c16122fc3a1f63 77 3 38 0 1 0 0 8992 90920 19 19 19 1",
    "sjeng 575ab76fd83b84e4f37d5f64438aec9af2cd0afdb91b0192d5abe1697d3102e9 72 0 46 1 2 0 0 8904 132120 29 29 29 1",
    "GemsFDTD b9f7884d06d6f4ca41ad8b76f3447340d0165ff765e558fe8f6aed980e740bf9 166 9 61 2 3 0 0 21696 284488 63 63 63 1",
    "libquantum ff2f7de9899d3293a35a5e09702574dc7a1b9ae3bc5e18601032b4b026d17a95 25 1 17 0 0 0 0 8840 66200 13 13 13 1",
    "h264ref 662a99a5becbff999e24efc8f7ebccf1c9f6751982715590436226f4da87b485 152 1 67 1 2 0 0 13208 177416 39 39 39 1",
    "tonto c0462634d8e5cee25db12680ace541120fe15accd2c0adcea849e12e50e18010 836 48 374 10 9 0 0 77704 1396576 320 320 320 1",
    "lbm 4e49ab7862866945d88476c8c3290d7d4571444dbf13e296de6f23d4ccfd2cd9 18 1 8 0 0 0 0 8840 53840 10 10 10 1",
    "omnetpp f90b1c10a1d4b90659b9d95a8e2ddab99f077c0bbfb892aa30c645baab1c0d68 145 3 71 0 0 0 0 17424 197992 43 43 43 1",
    "astar 4351f6dd33257c23497333c0eb923435860e8d1521139af73da8dc462c49377e 25 0 13 0 0 0 0 8840 49720 9 9 9 1",
    "sphinx3 59b212f1ad6c7da3d23d8fc985060533970f5f85d5e28a6da7517aef94d91303 45 1 26 0 1 0 0 13120 115616 24 24 24 1",
    "xalancbmk 67e9503de916d7302302a0e43c704afbe270b4e6b71580bf36f11a14d4aceb0e 1113 22 610 5 4 0 0 64760 1091768 249 249 249 1",
    "inkscape 78f93c980b1e5176e67be2eeba83aa0c4a7673f49c62197bc939777b8d839eeb 3017 1529 0 0 0 0 0 150552 1861704 415 415 415 1",
    "gimp 71350933d9b4bda72138e8234c6f023ab1bd086406a7a0f26a37eab6f5a8145a 1107 26 561 6 7 0 0 60336 1046472 239 239 239 1",
    "vim 5d8aa6192345c5452839ad0b412f4505adf9e0497ad35f13878d8bcdce73f150 1084 602 0 0 0 0 0 60360 725112 161 161 161 1",
    "git 0a9864ee3be31402c2b8da638afa03c90bc4d5c1c8d62261e81495908c02cccb 695 22 339 3 2 0 0 38952 663432 151 151 151 1",
    "pdflatex 4df0a93e74256ab30f518d21631c480603f36e507083732e5a2f3ae940de8045 318 11 200 1 2 0 0 21816 333928 75 75 75 1",
    "xterm 02e21b5d33c9a04dda848f200969ce0d75bfbdd04360067977ef2063ee58bfa5 190 7 94 1 1 0 0 17360 239192 53 53 53 1",
    "evince 3218b27726782a558411475d1da6985c3ed29ee70361dcbc30a2d9c89d22e182 66 28 0 0 0 0 0 8904 74440 15 15 15 1",
    "make adde3937a7a9f00158e62caac5cd20c4f6c829297a8a0e3e3a4282bb7a5996f5 71 1 29 0 0 0 0 8928 66200 13 13 13 1",
    "libc.so 3e06da3a09304d46f98e1b7610fb6ebc2105e2c66a8fb2c8d2151265a4e8d76a 778 19 334 2 3 0 0 43320 651048 147 147 147 1",
    "libstdc++.so 275555ea5ca6b580395eb3d8173d3a36b77810533d34bfb4406fc747717cddea 375 5 181 1 1 0 0 25856 354504 79 79 79 1",
];

const A2_LOWFAT: &[&str] = &[
    "perlbench aeb5aa03c748f062509488a111103a9936c035e09593ea1f96f386ebb340360c 146 65 43 0 0 0 0 30488 92208 68 12 68 1",
    "bzip2 9208c9bb07e3ba639d8cf70d20e5788669266494cbe658c69c3a90ad7a157014 8 2 2 0 0 0 0 8840 29256 5 2 5 1",
    "gcc 3f2c4f5d33ad429ec17b1961b4d612c49b96c2ffbd44dd039b047bb3c35b9288 379 191 116 0 0 0 0 77616 168816 188 19 188 1",
    "bwaves 131207e91ec0fcec78b25925dc93a039eca769a927e2ffe8b8998c0a7157c513 4 3 3 0 0 0 0 8840 29280 6 2 6 1",
    "gamess eb6d7ef948e0bdc2b5de6b793070edc143a79ea988578ae10f2c8362ee79e287 906 2 133 90 487 0 77 185640 356584 500 36 500 1",
    "mcf 226e34272d8c5ce7a4fee9a9b93bbd5d5fd330e60401bc8b60fc10face16da31 22 4 2 0 0 0 0 8840 33376 6 3 6 1",
    "milc 270123feeaf7b4b0cbdfec36272c32dbd04425cd59f1283dbb512ab3f5262ab9 8 8 4 0 0 0 0 8904 37520 8 4 8 1",
    "zeusmp d61cfc81a606d9932dbf56940e2f88ab9d7fbf716f232723c42deea041f7a6b3 28 9 2 2 8 0 0 13160 41960 20 4 20 1",
    "gromacs 923dc84994ae3d9430d59e5892a0fb0c31f6a224840d376af0c6b7ef9df25072 83 46 29 0 0 0 0 21912 63008 46 7 46 1",
    "cactusADM 902879d399d1f7bf592f9e8bb806aeed072f3fcd2a142e9feae4a559d33f39d0 101 52 32 0 1 0 0 26064 67272 53 7 53 1",
    "leslie3d a797262e497813adf2bed888273e706c87b6691e1206c7778f13a971b5116a7c 19 6 6 0 0 0 0 8960 33448 9 3 9 1",
    "namd 80b702796ec2210d779af6f0f819b341425c24270ba7e869e52c5f46b8ef095b 41 14 13 0 0 0 0 13208 37832 21 3 21 1",
    "gobmk cac9538639348b9e7a03ab579dc96e383b69d176b7f933835efe7b7464206816 89 32 22 0 0 0 0 21672 54600 37 5 37 1",
    "dealII 4e8b41a217ab37a09c9143eccd61e6c54adaf0901c1010e74ccbc0f27121e91e 245 113 74 0 0 0 0 51808 121960 113 14 113 1",
    "soplex 92e0d507c0dac543dfff283d10cc4e44f773d742e917e42d812a5a7d6dd45d33 44 19 12 0 0 0 0 13208 37808 20 3 20 1",
    "povray 1f9a83e2ec5588cece10df614c0de2ad84e533ebc773b11e5fe85df18afe3272 86 43 26 0 0 0 0 21760 58744 39 6 39 1",
    "calculix 3518b45f14ef09f089a7a395527753c3713cd745a58dd6daf312348c5c87d503 244 132 77 1 0 0 0 47776 122152 121 15 121 1",
    "hmmer 6f5e45cb0f520d86ca85bb64e1d6ea111b5b082a2f0ebf21a8e204720bef9b42 27 10 7 0 0 0 0 8992 33520 12 3 12 1",
    "sjeng b07f2d005a60e93bfc982a9b39dbbbd3dccee62df2809cf0e648b4fd1c58b45c 24 9 4 0 0 0 0 8904 33400 7 3 7 1",
    "GemsFDTD 066df931d8fecded757ded2c3e89559de68f5160736fbbf32e55328e83f3d7f8 56 38 26 0 0 0 0 21696 58744 39 6 39 1",
    "libquantum 0118542b6a84673f6e7d79121f02c1a9e948a1d29eee4dc508ef9d8a49eeb472 9 2 2 0 0 0 0 8840 29232 4 2 4 1",
    "h264ref 09b35d4f5f0f5a9922f59898a913535bba4527b1fed3edb6e2211754107d35b7 56 18 12 0 0 0 0 13208 41928 21 4 21 1",
    "tonto 2c687698e7f777ade806159fb4bdb6ec351e33a46ab21735babf2425af41907c 383 194 120 0 0 0 0 77704 172984 191 20 191 1",
    "lbm b2547ad334ec4d228eac906b467c426aec52d4dc8241bb13c7834e2d7234af77 12 11 2 0 0 0 0 8840 33376 6 3 6 1",
    "omnetpp 82921800af54432732735e2f0267bfb1c7690ea69b2c7f9ceb425ceec5be557d 123 31 15 0 0 0 0 17424 50336 30 5 30 1",
    "astar 95545de57c9cfaf2e631ea22a36977634e46a13175d918d4fe4396424a5bcb62 20 4 3 0 0 0 0 8840 29280 6 2 6 1",
    "sphinx3 383a6a218e8754e403ecfb6dac10464f886f4b1c0f5d4ef8d717ac56ca74f6c1 24 17 8 0 0 0 0 13120 37688 15 3 15 1",
    "xalancbmk 7fcba021073be3e5f3054a8f12ae6088e84004d2a48885c552936d70db8257ce 341 174 97 1 0 0 0 64760 156024 167 19 167 1",
    "inkscape 9eaa260280410e36e5652481872238c8c5b6c99fe5eb83a908d9f4a9958209a7 709 611 0 0 0 0 0 150552 427608 219 64 219 1",
    "gimp 266db9a69ee82b2e1702f6347861157d40c6b8f45edb542e6c103ec8216a16bb 285 140 84 0 0 0 0 60336 134848 138 15 138 1",
    "vim 4a70d109022f04a5f36eeeeedab69ddbecaef1a80818400a00d0718523f5f970 272 220 0 0 0 0 0 60360 186776 83 28 83 1",
    "git 50adfc7b6411ad3ae70f6c9a23071abacf2c57a19a3e4ba67728758a346624ab 176 96 55 0 0 0 0 38952 96832 90 11 90 1",
    "pdflatex 576acc706b17ab151d27e24926321e29b839cc512c6b994e965ad54814eee716 81 45 25 0 0 0 0 21816 62888 41 7 41 1",
    "xterm 75d0867fe9e4b636b0e67666e29cc9943eba60e3625a5beb5d003b37363e6d8d 49 26 15 0 0 0 0 17360 50216 25 5 25 1",
    "evince 1328cb6f6404c64a85b3be69a1bd63459d44b6f3b224c56dbaa5ccffea381ed5 19 12 0 0 0 0 0 8904 37472 6 4 6 1",
    "make 4e6fd948cf2f8900de1485ad18edbdfa5418c519391a8e3130132c29cb6f142c 17 8 6 0 0 0 0 8928 29400 11 2 11 1",
    "libc.so a7638cb5e7e8454f6a2717c4600bd345d120eccb5ebcf62b5dac630a3d3c1d52 200 105 62 0 0 0 0 43320 101168 100 11 100 1",
    "libstdc++.so be1d7c330447243fe0622939f2f5beb6b5fb2525c68dba20cc541779af9801e8 109 46 24 0 0 0 0 25856 67008 42 7 42 1",
];

const SCALE_10: &[&str] = &[
    "gcc-a1 ad43cdbe3a3cb0f8a70a9ea8d13358f1def9920da56ba313cbd904d82a7b080c 7373 173 3540 44 88 0 0 365280 856424 1195 112 1195 1",
    "gcc-a2 dd65703d5712689485834c698ff538fded36c0c778eea20f3f88ce4c6ca7e34f 1927 977 600 2 0 0 0 365280 711600 961 77 961 1",
    "gcc-hook f05c64eb8a23c00ee0f2a8ea703bb140714230ba08cfc8c782dd6377a4c4d03c 552 0 0 0 0 0 0 365280 471896 14 14 14 1",
    "inkscape-a1 7a9c19d414e4d2a13a923873f1bb7c07903aaad6dc32f598ee9c57e4371ae564 15167 7968 0 0 0 0 0 746352 2176432 2094 336 2094 1",
    "inkscape-a2 7d260a01dabbd13d5a1dd6e4efa28fa753f5c49133f124a2323ed883360ba50e 4007 3117 0 0 0 0 0 746352 1874008 1096 267 1096 1",
    "inkscape-hook c6c64549e42e455ce06ce387ca6049136a12e2bfad349ee9fb3e1c3bbea6eecb 1103 0 0 0 0 0 0 746352 1233352 168 96 168 1",
];

const A1_TRACE: &[&str] = &[
    "perlbench 0c9b538d15615512818adc253ba6dc3b132749ad1b96d10319d8fbe68b92d4de 536 8 240 11 1 0 0 30488 163352 131 21 131 1",
    "bzip2 204f10d35220be0abfadb687ed6d86a238c60d9c48d818c57d24cb32c941667b 17 1 9 0 0 0 0 8840 62168 11 2 11 1",
    "gcc 0d64e503468d76f32608f3cb4ec7b4efeb376b7ebc8f4b5fc0f934af4432fe95 1472 32 669 35 10 0 0 77616 336640 354 51 354 1",
    "bwaves 6ce4eb78817793e4271b1670f6bfd97cd83bf45be488f6eea7eac8258a2657e2 10 0 9 0 1 0 0 8840 62192 12 2 12 1",
    "gamess 9670daae4000681404f63ee087c6e138d9baa93af7832892c9df8360f07b48ea 2177 11 25 11 915 0 133 185640 517272 710 66 710 1",
    "mcf 36062e73da5ab246640d406a3e92ea2c6d608f5c56ce7294b1c728ef1f10484d 23 0 7 1 0 0 0 8840 66216 9 3 9 1",
    "milc 4cf21d84a4b9bd0a76095008c7f5945a46c36db5300b9fc3fe82fd042c8af6d0 30 2 6 0 0 0 0 8904 62072 7 2 7 1",
    "zeusmp 4ac1f2b8127ab215d14ad0325515e61bf603010e2e2f9bc36a128ec334f6bbbb 46 1 16 1 6 0 0 13160 74824 24 4 24 1",
    "gromacs 5ce86197cb6d42034055c897b7f751a55be4c61b4d8ff84b29da3641af89f6eb 209 11 78 4 1 0 0 21912 108856 79 10 79 1",
    "cactusADM 9e436cace65102875f907e6e856f74a59a316362f3c457e5ddccff96fb17ea61 224 12 92 6 1 0 0 26064 117144 83 11 83 1",
    "leslie3d 655db48a74ad7c136bc0618e1f6e646de68f212b802081a943f80b2f192af422 48 4 13 3 0 0 0 8960 66432 18 3 18 1",
    "namd 3353d8c72fc87d18fc33a29fca67a551c6602ce1b45d8537f856a68f517f82f4 73 5 36 4 1 0 0 13208 79272 41 5 41 1",
    "gobmk a8f1e7419d853e09267da6e0bf4db976ef1d1f870fa5b0615e7ee030d92d86ab 329 6 145 8 2 0 0 21672 125216 78 14 78 1",
    "dealII 920f479aaa15c262b9e4fb9beec63c655429a941901aac7694fc57791ea6f1d9 932 14 415 25 2 0 0 51808 243408 224 35 224 1",
    "soplex 2b43ba0320c41bfb500dc59932891ad0d8a2b3c2fbbf6dac7d97416ffbb416a0 151 2 78 5 0 0 0 13208 95680 42 9 42 1",
    "povray c2a13be294c2593a62365f87b4e502f0f9c9b5e5a01892cc95ab98db437a5c74 323 7 156 9 3 0 0 21760 125360 84 14 84 1",
    "calculix 1e222e6e1607e941575a05178a5be4a56640167bec3e6d10330b65a47e964b3b 479 30 205 12 3 0 0 47776 181176 191 21 191 1",
    "hmmer 7c794927f37eedb664f6a3f60d5ca48bf58e2e07b4a816ad1fac36b5731be171 77 3 36 0 3 0 0 8992 74792 25 5 25 1",
    "sjeng 0311b2a06f0ea37074fa81b1939147638f41d21e2a022a08fc66e55f0a435716 72 0 43 4 2 0 0 8904 79056 32 6 32 1",
    "GemsFDTD 7dd8c02ba06216b7f77e9b0ec5d958bcd43d122129051a0779b8579a155bf6b3 166 9 60 4 2 0 0 21696 100400 68 8 68 1",
    "libquantum b938f2bd982a7208208c08df21139fd7ab934fed62028697123dae1f3d988f1e 25 1 17 0 0 0 0 8840 66312 13 3 13 1",
    "h264ref 63271277f861a645de94f53d6be60f9d9580421803b63e0b284ce22b2c9432c8 152 1 64 3 3 0 0 13208 91632 44 8 44 1",
    "tonto 65788d745ad2bcc3741602903e58fa515108bd78a9244fe19103d5d29fdff052 836 48 373 14 6 0 0 77704 245976 331 29 331 1",
    "lbm 4768e71f745b64efd9d947afcaf58857fbeeacd165e39e0ff0a4ad560cda6be6 18 1 8 0 0 0 0 8840 62144 10 2 10 1",
    "omnetpp 5b138442eeb3f1ed94828450934f6715d3b6d371a5d62def8065f9ab31c924b7 145 3 70 1 0 0 0 17424 91680 46 7 46 1",
    "astar 12158457a4fb3ef391b7fb90cf55ce7518f6b1236c7524c3818a8c1b16329ec9 25 0 13 0 0 0 0 8840 66216 9 3 9 1",
    "sphinx3 378f2de21e28b59fbeb501bc027e5b84fc0897f5192336b66d53e0db4f6b68c5 45 1 24 1 2 0 0 13120 78960 28 5 28 1",
    "xalancbmk b9a5f0630ff6e42c341ebe4d57815904a129f405ca68d40f437fe580822d0e93 1113 22 582 33 4 0 0 64760 294072 287 44 287 1",
    "inkscape 584d22a7f6ebb0e3d847d1a059e274b400624b6b8d0128ed87e1710c203f134f 3017 1528 1 0 0 0 0 150552 657952 430 111 430 1",
    "gimp f655b89e3202f9f2f261cb04dd4a81cca1c635f321a7104a907a1e974f343223 1107 26 540 30 4 0 0 60336 281424 272 42 272 1",
    "vim 6afc361dbdbb324e02db9208d34c085a563a62e55b62823ad2356e9bc9101acf 1084 602 0 0 0 0 0 60360 303432 165 48 165 1",
    "git fd4394582c2f2bb00f049508b51353b4435e038fcf2e695a8970848c8aff200a 695 22 328 15 1 0 0 38952 201248 174 28 174 1",
    "pdflatex 477210280d80f6acac2cfb4d58545d681c5c54849559fc83b28b4a0404ec4a87 318 11 192 10 1 0 0 21816 137840 92 17 92 1",
    "xterm be1c25bd235e3f6d51ce03b8827a45fa57d7de93cb42539b2faa2970df57a54d 190 7 90 5 1 0 0 17360 100208 60 9 60 1",
    "evince 080f8c83c06cdbd563efb5bb2acf3e006b7cad8d957dcecf1eed0d22eced75ac 66 28 0 0 0 0 0 8904 70480 16 4 16 1",
    "make 7992b1b401bdad5d2febb95601b6bca0927d57bc8829cb48bf69578eff2c48b7 71 1 27 2 0 0 0 8928 78696 17 6 17 1",
    "libc.so e11612e3d1557c951a822ea5589c4999fe75c3b9f1540b34d4e16a28fbe9231d 778 19 318 19 2 0 0 43320 217656 175 31 175 1",
    "libstdc++.so f6fc794035b38d1e7575005135f638abec03a15469fa27d6c20431bd7ab6a2e7 375 5 172 10 1 0 0 25856 133744 92 15 92 1",
];

const REPLACE: &[&str] = &[
    "gcc-replace-next c3013f78b509b4d03642a5e512d0276805bd7e4d6c272597b8ac190ae28c4a95 1472 32 704 8 2 0 0 77616 191584 288 26 288 1",
    "gcc-replace-target cede1435766fe646cad7b5f1809f030f22062134173ed041fcd56134e80940f2 1472 32 704 8 2 0 0 77616 191584 288 26 288 1",
];
