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
//! The planner's data structures are free to change; its output is not.
//! A change that moves one of these digests changes what users get.

use e9front::{Application, Options, Payload};
use e9patch::{PatchRequest, RewriteConfig, RewriteOutput, Rewriter, Template};
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
    rows()
        .iter()
        .map(|(name, sb)| {
            let disasm = e9front::disassemble_text(&sb.binary).expect("disassemble");
            let out =
                e9front::instrument_with_disasm(&sb.binary, &disasm, &Options::new(app, payload))
                    .expect("instrument");
            line(name, &out.rewrite)
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

#[test]
fn hook_all_outputs_are_pinned() {
    let spec = e9hook::HookSpec::counters(&["*"]);
    let got: Vec<String> = rows()
        .iter()
        .map(|(name, sb)| {
            let disasm = e9front::disassemble_text(&sb.binary).expect("disassemble");
            let out = e9front::hook_with_disasm(&sb.binary, &disasm, &spec, Default::default())
                .expect("hook");
            line(name, &out.rewrite)
        })
        .collect();
    check(&got, HOOK_ALL);
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
