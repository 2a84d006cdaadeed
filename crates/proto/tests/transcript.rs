//! Known-answer wire transcripts: SHA-256 over every request line and
//! every reply line of fixed sessions, served by the stdio loop.
//!
//! Three jobs on an `e9synth` row (A1 selection with the empty payload,
//! A2 selection with a counter in a reserved segment, and a
//! server-planned hook on every function), spelled by `Job::commands()`
//! plus `hook`/`emit`, pin the encoder and every success reply. A third session pins the error replies: malformed
//! JSON, unknown methods, bad hex, and the lines a decoder gets wrong
//! when it assumes canonical form (duplicate and reordered keys,
//! whitespace, escapes, number edge cases, a depth bomb). A fourth pins
//! the `health`, `cache stats` and `cache clear` replies of a server with
//! an in-memory cache, around an `emit` miss and hit, and of one without.
//!
//! The wire transcript is part of the protocol: a codec change that
//! moves one of these digests changes what a client sees.

use e9patch::{ExtraSegment, PatchRequest, RewriteConfig, Template};
use e9proto::cachekey::Job;
use e9proto::msg::{Command, Request};
use e9proto::server::serve_connection;

/// The hex SHA-256 of `bytes`.
fn sha(bytes: &[u8]) -> String {
    e9cache::sha256::hex(&e9cache::digest(bytes))
}

/// One transcript: the request lines sent and the reply lines the stdio
/// loop wrote back, each newline-terminated.
struct Transcript {
    requests: Vec<u8>,
    replies: Vec<u8>,
}

impl Transcript {
    fn serve(requests: Vec<u8>) -> Transcript {
        let mut replies = Vec::new();
        serve_connection(&mut std::io::Cursor::new(&requests), &mut replies).unwrap();
        Transcript { requests, replies }
    }

    fn lines(bytes: &[u8]) -> usize {
        bytes.iter().filter(|&&b| b == b'\n').count()
    }

    /// Check line counts and both digests.
    fn check(&self, requests: (usize, &str), replies: (usize, &str)) {
        let got = (
            (Transcript::lines(&self.requests), sha(&self.requests)),
            (Transcript::lines(&self.replies), sha(&self.replies)),
        );
        let want = (
            (requests.0, requests.1.to_string()),
            (replies.0, replies.1.to_string()),
        );
        assert_eq!(got, want, "(request lines, sha), (reply lines, sha)");
    }
}

/// Encode `cmds` as request lines with ids from 1.
fn lines(cmds: impl IntoIterator<Item = Command>) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, cmd) in cmds.into_iter().enumerate() {
        out.extend_from_slice(
            Request {
                id: i as u64 + 1,
                cmd,
            }
            .encode()
            .as_bytes(),
        );
        out.push(b'\n');
    }
    out
}

/// The `gcc` row of Table 1 at 1/400 scale.
fn row() -> e9synth::SynthBinary {
    let profile = e9synth::spec_profiles(400)
        .into_iter()
        .find(|p| p.name == "gcc")
        .expect("gcc row");
    e9synth::generate(&profile)
}

#[test]
fn a1_empty_job_transcript_is_pinned() {
    let sb = row();
    let requests: Vec<PatchRequest> = sb
        .disasm
        .iter()
        .filter(|i| i.kind.is_jump())
        .map(|i| PatchRequest {
            addr: i.addr,
            template: Template::Empty,
        })
        .collect();
    let job = Job {
        binary: &sb.binary,
        disasm: &sb.disasm,
        requests: &requests,
        extra: &[],
        config: RewriteConfig::default(),
    };
    let t = Transcript::serve(lines(job.commands().chain([Command::Emit])));
    t.check(
        (
            1930,
            "4866e724cfebaf56861dc1169f576c3a0f7fb3e3c34e586b79a3835a2e89e598",
        ),
        (
            1930,
            "a20aeb271630ac77cabd397813e27dbea99e955c80e0d40aaab2bf0e8effc787",
        ),
    );
}

#[test]
fn a2_counter_job_transcript_is_pinned() {
    let sb = row();
    // As a frontend plans A2 with the counter payload: every heap write
    // bumps one counter in a zeroed, writable page above the image.
    let elf = e9elf::Elf::parse(&sb.binary).unwrap();
    let counters = e9hook::layout(&elf).unwrap().counters;
    let extra = [ExtraSegment {
        vaddr: counters,
        bytes: vec![0u8; 4096],
        exec: false,
        write: true,
    }];
    let requests: Vec<PatchRequest> = sb
        .disasm
        .iter()
        .filter(|i| i.is_heap_write())
        .map(|i| PatchRequest {
            addr: i.addr,
            template: Template::Counter {
                counter_addr: counters,
            },
        })
        .collect();
    let job = Job {
        binary: &sb.binary,
        disasm: &sb.disasm,
        requests: &requests,
        extra: &extra,
        config: RewriteConfig::default(),
    };
    assert!(!requests.is_empty());
    let t = Transcript::serve(lines(job.commands().chain([Command::Emit])));
    t.check(
        (
            1768,
            "a0efad5c065db003babd40586514c9e54be22de0c9e182298159d3f1555bce01",
        ),
        (
            1768,
            "b7896b1ca2523c6c573837697c8c9cf7d41cb41be7e4515b472dc5e5063154ee",
        ),
    );
}

#[test]
fn hook_all_job_transcript_is_pinned() {
    let sb = row();
    let job = Job {
        binary: &sb.binary,
        disasm: &sb.disasm,
        requests: &[],
        extra: &[],
        config: RewriteConfig::default(),
    };
    let spec = e9hook::HookSpec::counters(&["*"]);
    let hook = Command::Hook {
        funcs: spec.funcs,
        addrs: spec.addrs,
        call_original: spec.call_original,
        payload: spec.payload,
    };
    let t = Transcript::serve(lines(job.commands().chain([hook, Command::Emit])));
    t.check(
        (
            1690,
            "7c02dd1452019520da4bd378dbef106b656c5fd5ceabb2e705f0ee6ef9b5a2a2",
        ),
        (
            1690,
            "2bdb40bab2eb33c705e51ce38275028e5a870ec3472d856e72051e7293739987",
        ),
    );
}

#[test]
fn error_and_non_canonical_line_transcript_is_pinned() {
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(vec![0x90; 64], 0x401000);
    b.entry(0x401000);
    let mut requests = lines([
        Command::Version { version: 1 },
        Command::Binary {
            bytes: b.build(),
            digest: None,
        },
    ]);
    let bomb = format!("{}1{}", "[".repeat(100), "]".repeat(100));
    let deep_ok = format!("{}1{}", "[".repeat(63), "]".repeat(63));
    let raw: Vec<Vec<u8>> = vec![
        // Malformed JSON: truncated, garbage, trailing garbage.
        r#"{"jsonrpc":"2.0","id":3,"method":"instruction","params":{"addr":4198400,"bytes":"90"}"#.into(),
        "}{not json".into(),
        r#"{"jsonrpc":"2.0","id":5,"method":"emit","params":{}} x"#.into(),
        // Unknown method, missing method, missing or mistyped id.
        r#"{"jsonrpc":"2.0","id":6,"method":"frobnicate","params":{}}"#.into(),
        r#"{"jsonrpc":"2.0","id":7,"params":{}}"#.into(),
        r#"{"jsonrpc":"2.0","method":"emit","params":{}}"#.into(),
        r#"{"jsonrpc":"2.0","id":true,"method":"emit","params":{}}"#.into(),
        r#"{"jsonrpc":"2.0","id":"10","method":"emit","params":{}}"#.into(),
        r#"{"jsonrpc":"2.0","id":1.0,"method":"emit","params":{}}"#.into(),
        r#"{"jsonrpc":"2.0","id":-1,"method":"emit","params":{}}"#.into(),
        r#"["not","an","object"]"#.into(),
        // Bad and odd-length hex, a bad digest, missing params.
        r#"{"jsonrpc":"2.0","id":13,"method":"instruction","params":{"addr":4198400,"bytes":"zz"}}"#.into(),
        r#"{"jsonrpc":"2.0","id":14,"method":"instruction","params":{"addr":4198400,"bytes":"909"}}"#.into(),
        r#"{"jsonrpc":"2.0","id":15,"method":"binary","params":{"bytes":"00","digest":"abc"}}"#.into(),
        r#"{"jsonrpc":"2.0","id":16,"method":"instruction","params":{"bytes":"90"}}"#.into(),
        r#"{"jsonrpc":"2.0","id":17,"method":"instruction"}"#.into(),
        r#"{"jsonrpc":"2.0","id":18,"method":"patch","params":{"addr":4198400,"template":{"kind":"replace","code":"9","resume":null}}}"#.into(),
        // Duplicate keys: the first occurrence wins.
        r#"{"jsonrpc":"2.0","id":19,"id":20,"method":"instruction","params":{"addr":4198400,"bytes":"90"}}"#.into(),
        r#"{"jsonrpc":"2.0","id":21,"method":"instruction","method":"emit","params":{"addr":4198401,"addr":9,"bytes":"90"},"params":{}}"#.into(),
        // Reordered keys, extra whitespace, escapes.
        r#"{"params":{"bytes":"90","addr":4198402},"method":"instruction","id":22,"jsonrpc":"2.0"}"#.into(),
        " {\t\"jsonrpc\" : \"2.0\" ,\r\"id\" : 23 , \"method\" : \"instruction\" , \"params\" : { \"addr\" : 4198403 , \"bytes\" : \"90\" } } ".into(),
        r#"{"jsonrpc":"2.0","id":24,"method":"instr\u0075ction","params":{"addr":4198404,"bytes":"9\u0030"}}"#.into(),
        r#"{"jsonrpc":"2.0","id":25,"method":"option","params":{"name":"t1","value":"tr\"ue"}}"#.into(),
        // Unknown members of every type are ignored.
        format!(r#"{{"jsonrpc":"2.0","x":{{"a":[null,true,-1.5e3,"é"]}},"id":26,"method":"instruction","params":{{"y":{deep_ok},"addr":4198405,"bytes":"90"}}}}"#).into(),
        // Number edge cases: a leading zero, 2^64 as id and as address,
        // past i128, -0, an exponent.
        r#"{"jsonrpc":"2.0","id":027,"method":"emit","params":{}}"#.into(),
        r#"{"jsonrpc":"2.0","id":18446744073709551616,"method":"emit","params":{}}"#.into(),
        r#"{"jsonrpc":"2.0","id":29,"method":"instruction","params":{"addr":18446744073709551616,"bytes":"90"}}"#.into(),
        r#"{"jsonrpc":"2.0","id":340282366920938463463374607431768211456,"method":"emit","params":{}}"#.into(),
        r#"{"jsonrpc":"2.0","id":-0,"method":"instruction","params":{"addr":4198406,"bytes":"90"}}"#.into(),
        r#"{"jsonrpc":"2.0","id":32,"method":"instruction","params":{"addr":4198407e0,"bytes":"90"}}"#.into(),
        // Params of another type: fine for a method without params.
        r#"{"jsonrpc":"2.0","id":33,"method":"health","params":5}"#.into(),
        r#"{"jsonrpc":"2.0","id":34,"method":"instruction","params":null}"#.into(),
        // Depth bombs: at the top level and inside an ignored member.
        bomb.clone().into(),
        format!(r#"{{"jsonrpc":"2.0","id":36,"method":"emit","params":{{"z":{bomb}}}}}"#).into(),
        // Invalid UTF-8 inside a string.
        b"{\"id\":37,\"method\":\"\xff\"}".to_vec(),
        // A state error and a decode error for a well-formed request.
        r#"{"jsonrpc":"2.0","id":38,"method":"version","params":{"version":1}}"#.into(),
        r#"{"jsonrpc":"2.0","id":39,"method":"instruction","params":{"addr":4198408,"bytes":"4889"}}"#.into(),
        r#"{"jsonrpc":"2.0","id":40,"method":"emit","params":{}}"#.into(),
        r#"{"jsonrpc":"2.0","id":41,"method":"shutdown","params":{}}"#.into(),
    ];
    for line in &raw {
        requests.extend_from_slice(line);
        requests.push(b'\n');
    }
    let t = Transcript::serve(requests);
    t.check(
        (
            41,
            "d58c576cf20e06e4b588e81af2ce784e81f157dcdba9c537b693d22efa664b5b",
        ),
        (
            41,
            "5040f78c79bcb5f8a50da742640642bc17c4649ac2c60ae2857c3beaf49ea275",
        ),
    );
}

/// The hex SHA-256 of each newline-terminated line of `bytes`, newline
/// excluded.
fn line_digests(bytes: &[u8]) -> Vec<String> {
    bytes
        .split_inclusive(|&b| b == b'\n')
        .map(|l| sha(l.strip_suffix(b"\n").expect("newline-terminated")))
        .collect()
}

#[test]
fn cache_and_health_reply_transcript_is_pinned() {
    use e9proto::msg::CacheAction;
    use e9proto::server::{serve_connection_with, ServeConfig};
    use std::sync::Arc;

    let code = vec![
        0x48, 0x89, 0x03, // mov %rax,(%rbx)
        0x48, 0x83, 0xC0, 0x20, // add $32,%rax
        0xC3, // ret
        0x0F, 0x1F, 0x44, 0x00, 0x00, // nop padding
        0x0F, 0x1F, 0x44, 0x00, 0x00,
    ];
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code.clone(), 0x401000);
    b.entry(0x401000);
    let binary = b.build();
    let disasm = e9x86::decode::linear_sweep(&code, 0x401000);
    let job = Job {
        binary: &binary,
        disasm: &disasm,
        requests: &[PatchRequest {
            addr: 0x401000,
            template: Template::Empty,
        }],
        extra: &[],
        config: RewriteConfig::default(),
    };
    let stats = || Command::Cache {
        action: CacheAction::Stats,
    };
    let clear = || Command::Cache {
        action: CacheAction::Clear,
    };
    // `health` before the handshake, `cache stats` right after it, then
    // the job with a miss and a hit, and the counters after each.
    let mut job_cmds = job.commands();
    let version = job_cmds.next().expect("the job starts with version");
    let cmds: Vec<Command> = [Command::Health, version, stats()]
        .into_iter()
        .chain(job_cmds)
        .chain([
            Command::Emit,
            Command::Emit,
            stats(),
            Command::Health,
            clear(),
            stats(),
        ])
        .collect();
    let serve = |requests: Vec<u8>, config: &ServeConfig| {
        let mut replies = Vec::new();
        serve_connection_with(&mut std::io::Cursor::new(&requests), &mut replies, config).unwrap();
        replies
    };
    let cached = ServeConfig {
        cache: Some(Arc::new(e9cache::Cache::in_memory_no_bypass())),
        ..ServeConfig::default()
    };
    let replies = line_digests(&serve(lines(cmds), &cached));
    assert_eq!(
        replies,
        [
            // health
            "fca6ad6bca9fd29165e48995d8a8d5a6fcf4fcf599bc2b16fbb38741211c0478",
            // version
            "c4654b3d28be7cb1486c9384283f1da527d8edf0c9a2fa7cc4c961906c869929",
            // cache stats
            "2b9e969c4dd0b709d6e0d73c0c945bfbbde3a7ca7d4f0184aca48eb8870f2fb9",
            // option
            "0672cee69de53900a7e3aa682e3c5d773a12129eb974bbd41b9e1ac9cf9ec86c",
            // option
            "d2e579dddf26ef8d040f2d04229a4ee960c35f64b782bd090356c0647f7350ab",
            // option
            "79ff8c0aef25ec8129cc9ac5c2d5d1bd4ba19215dda3805391e6041660c05301",
            // option
            "ea1f4ba35a6111036de6cde78bad1058c4f6a50770d61dcd11a1bc8ed8580d61",
            // option
            "d6f6cff90847e59e349fc3165c89f99c9449c5134a2201808a432c662f98d763",
            // option
            "3e8fc3a8503834830b1119c579133f2698dfd5fed355a372e36d7afb222567f3",
            // option
            "4d155e9a07f59be72a56c2316c0f1e03176612a41d6ec3d224556f460bccce53",
            // binary
            "bf1651216761de2a389dee8588c350e06a181f35908ee5ac1490f76cbaeed9ef",
            // instruction
            "96743ab921a6b6f9dffc2ebab40420645ca324c2f3d21e92f9fd12c31875aac6",
            // instruction
            "cfce67abb8320ac222d13f66f3498026fa08475bb011972349d32dd7fbdc6038",
            // instruction
            "3dda060af7fb2b166f81b0cb22fc821d692174124393deb50e4ec40ed01e1343",
            // instruction
            "d9a6323ce3a568992f8217f63dc95d154089cbb079aa26f540cafa62b413b29f",
            // instruction
            "82069bad989e9853f18ee5d2e2531df26bc9bcbc44f9e12a3dacae4c37b6bf13",
            // patch
            "b3834ba26563be94317054238857075d5910c4b9f770062a5e474a4113ccb51b",
            // emit (miss)
            "7a27b9ffc043efc16de06540c827c0df73307c8afe05e3ade01a2fa85ea76c8d",
            // emit (hit)
            "8ef646b6c318a9c34cfa1953fa08e1dc61d2f40b923f2c3a9d203c435c0227ac",
            // cache stats
            "b7eb7b6c61dbe858bb6844de594b729993d176ec489f101575050ff7b93da02e",
            // health
            "8e8aa67ec12f74aebf73997d04c5a065f921e3d3cf1ee7ebfde121d240a57bac",
            // cache clear
            "4278da14e85a2634cb5fd646c86a9c833f4479d2bee5e4643bfb98602d9510ed",
            // cache stats
            "f06a2f661fb6e3a67e68d6cdfae8937acdf6f16ea60bd8425274d722cd972cd6",
        ]
    );

    // Without a cache, `cache stats` reports it disabled and `cache
    // clear` clears nothing.
    let bare = line_digests(&serve(
        lines([Command::Version { version: 1 }, stats(), clear()]),
        &ServeConfig::default(),
    ));
    assert_eq!(
        bare,
        [
            // version
            "e82eabe3add826e23ff26545ae61e2ebafa98a42c5ab46613a24c7e8c1e65dfc",
            // cache stats
            "ae6513837329c8fd1cdc2b5876df3103de2439d422d6edd3f134d5653eebe9f3",
            // cache clear
            "ddcb2b0067bbc2f45917be8c1a2de8100137a7b0245189142584845a136d5ce7",
        ]
    );
}
