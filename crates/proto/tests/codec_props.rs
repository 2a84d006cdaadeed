//! Property tests for the wire codec: arbitrary messages must round-trip
//! `encode → parse → decode → encode` byte-identically (the serializer is
//! canonical), and malformed input — truncations, bad escapes, depth
//! bombs, random bytes — must come back as typed errors, never panics.
//! The direct encoder must write the tree serializer's bytes, and the
//! single-pass line decoders must agree with the tree decoders on every
//! line: non-canonical spellings of a request and damaged lines alike.
//! The `emit` result is written without a tree on the server and read
//! without one on the client: the direct writer must write the tree
//! serializer's bytes, and the one-pass reader must give what
//! `EmitReply::from_json` gives, intact or damaged.
//! The rewrite cache's compact `emit` payload must decode to the reply it
//! was encoded from, less the per-response cache fields.
//! Every typed reply (`emit`, `hook`, `cache stats`, `health`) must read
//! back as exactly the value its writer was given, through the one-pass
//! reader and through `from_json`, from the canonical line and from a
//! loose spelling of it. This checks the readers against the writers'
//! input, not against each other, so a fault in the code the readers
//! share still shows. Each writer's text must be canonical: parsed and
//! serialized again, it is the same bytes.
//! The `instruction` line read by comparing bytes must give the request
//! the single pass gives, and every near miss of its spelling must get
//! the tree decoder's answer.
//! The cache-key framing must be injective: decoding the key material of
//! any job gives back exactly that job.

use e9patch::planner::MAX_GRANULARITY;
use e9patch::{AllocPolicy, ExtraSegment, PatchRequest, RewriteConfig, Tactics, Template};
use e9patch::{PatchStats, SiteReport, SizeStats, TacticKind};
use e9proto::cachekey::{key_material, rewrite_key_from_digest};
use e9proto::json::{self, Json};
use e9proto::msg::{
    apply_option, code, config_options, hex_decode, hex_encode, CacheAction, CacheDisposition,
    CacheStatsReply, Command, EmitReply, HealthReply, HookReply, Request, Response, RpcError,
    TypedReply, TypedResponse, WireMapping, PROTOCOL_VERSION,
};
use e9qcheck::prelude::*;
use e9x86::insn::Insn;

/// The key framing's tags and its decoder, shared with the library.
#[path = "../src/cachekey/frame.rs"]
mod frame;

/// Build an arbitrary JSON tree from a drawn opcode stream. Floats are
/// deliberately excluded: integer/float canonicalisation has its own unit
/// tests, and e.g. `Float(2.0)` re-parses as `Int(2)` by design.
fn build_json(ops: &mut std::vec::IntoIter<u8>, depth: usize) -> Json {
    let op = ops.next().unwrap_or(0);
    let structural = depth < 3;
    match op % if structural { 6 } else { 4 } {
        0 => Json::Null,
        1 => Json::Bool(ops.next().unwrap_or(0).is_multiple_of(2)),
        2 => {
            let mut v = 0i128;
            for _ in 0..8 {
                v = (v << 8) | ops.next().unwrap_or(0) as i128;
            }
            if ops.next().unwrap_or(0).is_multiple_of(2) {
                v = -v;
            }
            Json::Int(v)
        }
        3 => {
            let n = (ops.next().unwrap_or(0) % 12) as usize;
            let s: String = (0..n)
                .map(|_| {
                    // A mix of plain ASCII, escapables and non-ASCII.
                    match ops.next().unwrap_or(0) {
                        b @ 0x20..=0x7E => b as char,
                        0x00..=0x08 => '\n',
                        0x09..=0x10 => '"',
                        0x11..=0x18 => '\\',
                        _ => 'λ',
                    }
                })
                .collect();
            Json::Str(s)
        }
        4 => {
            let n = (ops.next().unwrap_or(0) % 4) as usize;
            Json::Arr((0..n).map(|_| build_json(ops, depth + 1)).collect())
        }
        _ => {
            let n = (ops.next().unwrap_or(0) % 4) as usize;
            Json::Obj(
                (0..n)
                    .map(|k| (format!("k{k}"), build_json(ops, depth + 1)))
                    .collect(),
            )
        }
    }
}

/// Build an arbitrary command from drawn primitives: every variant, every
/// template and payload kind, and strings that need escaping.
fn build_command(sel: u8, addr: u64, bytes: Vec<u8>, name: String, flag: bool) -> Command {
    match sel % 16 {
        0 => Command::Version { version: addr },
        1 => Command::Binary {
            digest: if flag {
                Some(e9cache::digest(&bytes))
            } else {
                None
            },
            bytes,
        },
        2 => Command::Option {
            name,
            value: format!("{addr}"),
        },
        3 => Command::Reserve {
            vaddr: addr,
            bytes,
            exec: flag,
            write: !flag,
        },
        4 => Command::Instruction { addr, bytes },
        5 => Command::Patch {
            addr,
            template: Template::Empty,
        },
        6 => Command::Patch {
            addr,
            template: Template::Counter {
                counter_addr: addr ^ 0xfff,
            },
        },
        7 => Command::Patch {
            addr,
            template: Template::Replace {
                code: bytes,
                resume: if flag {
                    Some(addr.wrapping_add(4))
                } else {
                    None
                },
            },
        },
        8 => Command::Emit,
        9 => Command::Shutdown,
        10 => Command::Hook {
            funcs: vec![name, "f*".into()],
            addrs: vec![addr, addr ^ 1],
            call_original: flag,
            payload: match addr % 3 {
                0 => e9hook::PayloadKind::Counter,
                1 => e9hook::PayloadKind::Nop,
                _ => e9hook::PayloadKind::Raw(bytes),
            },
        },
        11 => Command::Cache {
            action: if flag {
                CacheAction::Stats
            } else {
                CacheAction::Clear
            },
        },
        12 => Command::Health,
        13 => Command::Patch {
            addr,
            template: build_template(2 + (addr % 3) as u8, addr ^ 0x70, 0, vec![]),
        },
        14 => Command::Patch {
            addr,
            template: Template::HookOriginal {
                func_addr: addr ^ 0x70,
                thunk_addr: addr ^ 0x80,
            },
        },
        _ => Command::Option {
            name: format!("{name}\"\\/\n\t\u{1}λ😀"),
            value: String::from_utf8_lossy(&bytes).into_owned(),
        },
    }
}

/// The request line built as a [`Json`] tree and serialized: a spelling
/// of the wire grammar independent of the library's direct encoder.
fn tree_line(req: &Request) -> String {
    let hex = |b: &[u8]| Json::Str(hex_encode(b));
    let int = |n: u64| Json::Int(n.into());
    let kind = |k: &str| ("kind", Json::Str(k.into()));
    let template = |t: &Template| match t {
        Template::Empty => json::obj(vec![kind("empty")]),
        Template::Counter { counter_addr } => {
            json::obj(vec![kind("counter"), ("counter_addr", int(*counter_addr))])
        }
        Template::CheckCall { func_addr } => {
            json::obj(vec![kind("checkcall"), ("func_addr", int(*func_addr))])
        }
        Template::HookCall { func_addr } => {
            json::obj(vec![kind("hookcall"), ("func_addr", int(*func_addr))])
        }
        Template::HookSave { func_addr } => {
            json::obj(vec![kind("hooksave"), ("func_addr", int(*func_addr))])
        }
        Template::HookOriginal {
            func_addr,
            thunk_addr,
        } => json::obj(vec![
            kind("hookoriginal"),
            ("func_addr", int(*func_addr)),
            ("thunk_addr", int(*thunk_addr)),
        ]),
        Template::Replace { code, resume } => json::obj(vec![
            kind("replace"),
            ("code", hex(code)),
            ("resume", resume.map_or(Json::Null, int)),
        ]),
    };
    let params = match &req.cmd {
        Command::Version { version } => json::obj(vec![("version", int(*version))]),
        Command::Binary { bytes, digest } => {
            let mut members = vec![("bytes", hex(bytes))];
            if let Some(d) = digest {
                members.push(("digest", hex(d)));
            }
            json::obj(members)
        }
        Command::Option { name, value } => json::obj(vec![
            ("name", Json::Str(name.clone())),
            ("value", Json::Str(value.clone())),
        ]),
        Command::Reserve {
            vaddr,
            bytes,
            exec,
            write,
        } => json::obj(vec![
            ("vaddr", int(*vaddr)),
            ("bytes", hex(bytes)),
            ("exec", Json::Bool(*exec)),
            ("write", Json::Bool(*write)),
        ]),
        Command::Instruction { addr, bytes } => {
            json::obj(vec![("addr", int(*addr)), ("bytes", hex(bytes))])
        }
        Command::Patch { addr, template: t } => {
            json::obj(vec![("addr", int(*addr)), ("template", template(t))])
        }
        Command::Hook {
            funcs,
            addrs,
            call_original,
            payload,
        } => json::obj(vec![
            (
                "funcs",
                Json::Arr(funcs.iter().map(|f| Json::Str(f.clone())).collect()),
            ),
            ("addrs", Json::Arr(addrs.iter().map(|&a| int(a)).collect())),
            ("call_original", Json::Bool(*call_original)),
            (
                "payload",
                match payload {
                    e9hook::PayloadKind::Counter => json::obj(vec![kind("counter")]),
                    e9hook::PayloadKind::Nop => json::obj(vec![kind("nop")]),
                    e9hook::PayloadKind::Raw(code) => {
                        json::obj(vec![kind("raw"), ("code", hex(code))])
                    }
                },
            ),
        ]),
        Command::Cache { action } => json::obj(vec![("action", Json::Str(action.name().into()))]),
        Command::Emit | Command::Health | Command::Shutdown => json::obj(vec![]),
    };
    json::obj(vec![
        ("jsonrpc", Json::Str("2.0".into())),
        ("id", int(req.id)),
        ("method", Json::Str(req.cmd.method().into())),
        ("params", params),
    ])
    .serialize()
}

/// `v` spelled loosely but equivalently, steered by `draw`: members in
/// either order, whitespace around every token, some characters as
/// `\u` escapes, an unknown member, and each object's first key repeated
/// at its end with another value of the same type.
fn loose(v: &Json, draw: &mut impl FnMut() -> u8, out: &mut String) {
    let ws = |draw: &mut dyn FnMut() -> u8, out: &mut String| {
        out.push_str(["", " ", "\t", "\r\n "][usize::from(draw() % 4)]);
    };
    let string = |s: &str, draw: &mut dyn FnMut() -> u8, out: &mut String| {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' | '\\' => {
                    out.push('\\');
                    out.push(c);
                }
                c if (c as u32) < 0x20 || draw().is_multiple_of(4) => {
                    for unit in c.encode_utf16(&mut [0; 2]) {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
                c => out.push(c),
            }
        }
        out.push('"');
    };
    match v {
        Json::Str(s) => string(s, draw, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                ws(draw, out);
                loose(item, draw, out);
                ws(draw, out);
            }
            out.push(']');
        }
        Json::Obj(members) => {
            let mut order: Vec<&(String, Json)> = members.iter().collect();
            if draw().is_multiple_of(2) {
                order.reverse();
            }
            out.push('{');
            ws(draw, out);
            let mut sep = "";
            for (key, value) in &order {
                out.push_str(sep);
                ws(draw, out);
                string(key, draw, out);
                ws(draw, out);
                out.push(':');
                ws(draw, out);
                loose(value, draw, out);
                ws(draw, out);
                sep = ",";
            }
            out.push_str(sep);
            out.push_str(r#""zz":[1,{"a":null},-2.5e3,"\ud83d\ude00"]"#);
            if let Some((key, value)) = order.first() {
                out.push(',');
                string(key, draw, out);
                out.push(':');
                out.push_str(&other_of_same_type(value).serialize());
            }
            out.push('}');
        }
        other => out.push_str(&other.serialize()),
    }
}

/// A different value of `v`'s type, valid wherever `v` is: a repeated
/// key that a decoder wrongly took would change the request.
fn other_of_same_type(v: &Json) -> Json {
    match v {
        Json::Bool(b) => Json::Bool(!b),
        Json::Int(n) => Json::Int(n ^ 1),
        Json::Str(_) => Json::Str("00".into()),
        Json::Arr(_) => Json::Arr(vec![]),
        Json::Obj(_) => Json::Obj(vec![]),
        other => other.clone(),
    }
}

/// `line` with each drawn edit applied: overwrite, insert or delete a
/// byte, or cut the line there. Half the bytes come from JSON's own
/// alphabet, so edits often leave a well-formed line.
fn damage(mut line: Vec<u8>, edits: &[(u16, u8, u8)]) -> Vec<u8> {
    const ALPHABET: &[u8] = b"{}[]\":,0123456789-.eE \\unulltruefalse";
    for &(at, op, b) in edits {
        let at = usize::from(at) % (line.len() + 1);
        let b = if op & 4 != 0 {
            ALPHABET[usize::from(b) % ALPHABET.len()]
        } else {
            b
        };
        match op % 4 {
            0 if at < line.len() => line[at] = b,
            1 => line.insert(at, b),
            2 if at < line.len() => {
                line.remove(at);
            }
            _ => line.truncate(at),
        }
    }
    line
}

/// An `emit` reply from drawn fields: 15 counters (stats, size, loader
/// address, trap count), reports of `(addr, insn_len, flags,
/// trampoline)` whose flags pick the tactic and whether a trampoline is
/// named, mappings, and the cache fields (`sel` picks the disposition
/// and whether a digest is sent).
fn build_emit(
    binary: Vec<u8>,
    n: &[u64],
    reports: &[(u64, u8, u8, u64)],
    mappings: &[(u64, u64, u64)],
    sel: u8,
    digest: String,
) -> EmitReply {
    const TACTICS: [TacticKind; 6] = [
        TacticKind::B0,
        TacticKind::B1,
        TacticKind::B2,
        TacticKind::T1,
        TacticKind::T2,
        TacticKind::T3,
    ];
    const CACHE: [CacheDisposition; 4] = [
        CacheDisposition::Off,
        CacheDisposition::Hit,
        CacheDisposition::Miss,
        CacheDisposition::Bypass,
    ];
    let n = |i: usize| n.get(i).copied().unwrap_or(i as u64);
    EmitReply {
        binary,
        stats: PatchStats {
            b1: n(0) as usize,
            b2: n(1) as usize,
            t1: n(2) as usize,
            t2: n(3) as usize,
            t3: n(4) as usize,
            b0: n(5) as usize,
            failed: n(6) as usize,
        },
        size: SizeStats {
            input_bytes: n(7),
            output_bytes: n(8),
            virtual_blocks: n(9),
            physical_blocks: n(10),
            mappings: n(11),
            granularity: n(12),
        },
        loader_addr: n(13),
        trap_count: n(14),
        reports: reports
            .iter()
            .map(|&(addr, insn_len, flags, trampoline)| SiteReport {
                addr,
                insn_len,
                tactic: TACTICS.get(usize::from(flags % 8)).copied(),
                trampoline: (flags & 8 != 0).then_some(trampoline),
            })
            .collect(),
        mappings: mappings
            .iter()
            .map(|&(vaddr, file_off, len)| WireMapping {
                vaddr,
                file_off,
                len,
            })
            .collect(),
        cache: CACHE[usize::from(sel % 4)],
        digest: (sel & 4 != 0).then_some(digest),
    }
}

/// A `hook` reply from drawn hook records (each named `name` plus its
/// index) and runtime addresses; `counters` picks whether a counter
/// table is named.
fn build_hook(
    hooks: &[(u32, u32, u64, u64, u64, u64)],
    name: &str,
    (counters_addr, manifest_addr, counters): (u64, u64, bool),
) -> HookReply {
    HookReply {
        hooks: hooks
            .iter()
            .enumerate()
            .map(
                |(i, &(id, flags, func_addr, payload_addr, thunk_addr, counter_addr))| {
                    e9hook::HookRecord {
                        id,
                        flags,
                        func_addr,
                        payload_addr,
                        thunk_addr,
                        counter_addr,
                        name: format!("{name}{i}"),
                    }
                },
            )
            .collect(),
        counters_addr: counters.then_some(counters_addr),
        manifest_addr,
    }
}

/// A `cache stats` reply from 19 drawn counters and three flag bits
/// (enabled, disk, breaker open).
fn build_cache_stats(n: &[u64], bits: u8) -> CacheStatsReply {
    let n = |i: usize| n.get(i).copied().unwrap_or(i as u64);
    let bit = |i: u8| bits & (1 << i) != 0;
    CacheStatsReply {
        enabled: bit(0),
        disk: bit(1),
        stats: e9cache::CacheStats {
            hits: n(0),
            mem_hits: n(1),
            disk_hits: n(2),
            negative_hits: n(3),
            misses: n(4),
            stores: n(5),
            mem_evictions: n(6),
            disk_evictions: n(7),
            verify_failures: n(8),
            errors: n(9),
            mem_entries: n(10),
            mem_bytes: n(11),
            bypasses: n(12),
            bypass_threshold: n(13),
            disk_breaker_open: bit(2),
            disk_breaker_trips: n(14),
            disk_breaker_fast_fails: n(15),
            disk_breaker_probes: n(16),
            disk_breaker_recoveries: n(17),
        },
    }
}

/// A `health` reply around a drawn `cache` section: counters `n[19..22]`
/// and flag bit 3 for the shed and fault fields.
fn build_health(n: &[u64], bits: u8, mode: &str, spec: &str) -> HealthReply {
    let at = |i: usize| n.get(i).copied().unwrap_or(i as u64);
    HealthReply {
        serving_mode: mode.into(),
        shed_admission: at(19),
        shed_busy: at(20),
        faults_enabled: bits & 8 != 0,
        fault_spec: spec.into(),
        faults_injected: at(21),
        cache: build_cache_stats(n, bits),
    }
}

/// A reply's `result` on a canonical response line, and that line
/// spelled loosely as [`loose`] spells it.
fn reply_lines(result: Json, draw: &mut impl FnMut() -> u8) -> [Vec<u8>; 2] {
    let canonical = Response::ok(7, result).encode();
    let mut spelled = String::new();
    loose(
        &json::parse(canonical.as_bytes()).unwrap(),
        draw,
        &mut spelled,
    );
    [canonical.into_bytes(), spelled.into_bytes()]
}

/// The text of a typed reply, as its writer `write` writes it.
fn written<T>(reply: &T, write: fn(&T, &mut Vec<u8>)) -> Vec<u8> {
    let mut out = Vec::new();
    write(reply, &mut out);
    out
}

/// `reply`'s written `result`, on a canonical reply line and spelled
/// loosely, must read back as `reply` through the one-pass reader and
/// through `from_json`.
fn reads_back<T: TypedReply + Clone + PartialEq + std::fmt::Debug>(
    reply: &T,
    write: fn(&T, &mut Vec<u8>),
    from_json: fn(&Json) -> Result<T, String>,
    draw: &mut impl FnMut() -> u8,
) -> TestCaseResult {
    let result = json::parse(&written(reply, write)).unwrap();
    for line in reply_lines(result, draw) {
        let text = String::from_utf8_lossy(&line).into_owned();
        prop_assert_eq!(
            T::decode_line(&line),
            Ok(TypedResponse {
                id: Some(7),
                body: Ok(Ok(reply.clone()))
            }),
            "{}",
            text
        );
        let via_tree = read_result(&line).and_then(|v| from_json(&v));
        prop_assert_eq!(via_tree, Ok(reply.clone()), "{}", text);
    }
    Ok(())
}

/// A value with the digit count `sel` picks, from `raw`: 0, or a number
/// of exactly 9, 10 or 19 digits.
fn digits_of(sel: u8, raw: u64) -> u64 {
    match sel % 4 {
        0 => 0,
        1 => 100_000_000 + raw % 900_000_000,
        2 => 1_000_000_000 + raw % 9_000_000_000,
        _ => 1_000_000_000_000_000_000 + raw % 9_000_000_000_000_000_000,
    }
}

/// An `instruction` line spelled as `Request::encode_into` spells it,
/// from the text of its three values.
fn instruction_text(id: &str, addr: &str, hex: &str) -> String {
    format!(
        r#"{{"jsonrpc":"2.0","id":{id},"method":"instruction","params":{{"addr":{addr},"bytes":"{hex}"}}}}"#
    )
}

/// The canonical line of `(id, addr, hex)` with one change `kind` picks,
/// each a spelling or value the byte comparison must not take: uppercase
/// hex, a leading zero, a 20-digit or overflowing number, odd-length or
/// 32-digit hex, whitespace after a `:`, `bytes` before `addr`, an extra
/// member, an escaped key, a repeated `addr`, another method, or a byte
/// after the final `}`.
fn near_miss(kind: u8, id: u64, addr: u64, hex: &str, extra: u8) -> String {
    let (i, a) = (id.to_string(), addr.to_string());
    let big = [
        "18446744073709551615",
        "10000000000000000000",
        "18446744073709551616",
    ][usize::from(extra % 3)];
    match kind % 15 {
        0 => instruction_text(&i, &a, &hex.to_uppercase()),
        1 => instruction_text(&format!("0{i}"), &a, hex),
        2 => instruction_text(&i, &format!("0{a}"), hex),
        3 => instruction_text(big, &a, hex),
        4 => instruction_text(&i, big, hex),
        5 => instruction_text(&i, &a, &hex[..hex.len().saturating_sub(1)]),
        6 => instruction_text(&i, &a, &"ab".repeat(16)),
        7 => instruction_text(&i, &a, hex).replacen(":", ": ", 1 + usize::from(extra % 6)),
        8 => format!(
            r#"{{"jsonrpc":"2.0","id":{i},"method":"instruction","params":{{"bytes":"{hex}","addr":{a}}}}}"#
        ),
        9 => instruction_text(&i, &a, hex).replace(r#""method""#, r#""x":1,"method""#),
        10 => instruction_text(&i, &a, hex).replace(r#""addr""#, r#""\u0061ddr""#),
        11 => instruction_text(&i, &a, hex).replace(r#"{"addr""#, r#"{"addr":7,"addr""#),
        12 => instruction_text(&i, &a, hex).replace(r#""instruction""#, r#""instructions""#),
        13 => instruction_text(&i, &a, hex) + [" ", "}", "x", "\n"][usize::from(extra % 4)],
        _ => instruction_text(&i, &a, hex).replace(r#",{"#, r#",{"x":[1],"#),
    }
}

/// The `result` a client reads off a reply line.
fn read_result(line: &[u8]) -> Result<Json, String> {
    let r = Response::decode_line(line)?;
    if r.id != Some(7) {
        return Err(format!("id {:?}", r.id));
    }
    r.body.map_err(|e| e.message)
}

/// A rewriter configuration from drawn fields: the three tactics, B0,
/// grouping and the high allocation policy as flag bits, and `M`.
fn build_config(bits: u8, granularity: u64) -> RewriteConfig {
    let bit = |i: u8| bits & (1 << i) != 0;
    RewriteConfig {
        tactics: Tactics {
            t1: bit(0),
            t2: bit(1),
            t3: bit(2),
        },
        b0_fallback: bit(3),
        grouping: bit(4),
        granularity,
        alloc_policy: if bit(5) {
            AllocPolicy::FirstFitHigh
        } else {
            AllocPolicy::FirstFitLow
        },
        jobs: None,
    }
}

/// Encodings of 1 to 15 bytes with no relative operand, so they decode
/// at any address.
const INSN_ENCODINGS: [&[u8]; 6] = [
    &[0x90],
    &[0xC3],
    &[0x48, 0x89, 0x03],
    &[0x0F, 0x1F, 0x44, 0x00, 0x00],
    &[0x48, 0xB8, 1, 2, 3, 4, 5, 6, 7, 8],
    &[
        0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x2E, 0x0F, 0x1F, 0x84, 0x00, 0x00, 0x00, 0x00, 0x00,
    ],
];

/// Instructions from drawn `(encoding, placement, word)` triples. The
/// placement puts each one right after its predecessor (address elided),
/// one byte past it, or at the drawn word.
fn build_insns(draws: &[(u8, u8, u64)]) -> Vec<Insn> {
    let mut next = 0u64;
    draws
        .iter()
        .map(|&(enc, place, word)| {
            let addr = match place % 3 {
                0 => next,
                1 => next.wrapping_add(1),
                _ => word,
            };
            let bytes = INSN_ENCODINGS[enc as usize % INSN_ENCODINGS.len()];
            let insn = e9x86::decode::decode(bytes, addr).expect("pool encodings decode");
            next = addr.wrapping_add(bytes.len() as u64);
            insn
        })
        .collect()
}

/// A template of every variant from drawn fields (`Replace` with empty
/// or non-empty `code`, `resume` absent or present).
fn build_template(sel: u8, a: u64, b: u64, code: Vec<u8>) -> Template {
    match sel % 8 {
        0 => Template::Empty,
        1 => Template::Counter { counter_addr: a },
        2 => Template::CheckCall { func_addr: a },
        3 => Template::HookCall { func_addr: a },
        4 => Template::HookSave { func_addr: a },
        5 => Template::HookOriginal {
            func_addr: a,
            thunk_addr: b,
        },
        6 => Template::Replace { code, resume: None },
        _ => Template::Replace {
            code,
            resume: Some(b),
        },
    }
}

props! {
    #[test]
    fn key_material_decodes_to_the_keyed_job(
        digest_seed in vec(any::<u8>(), 0..16),
        insn_draws in vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..40),
        reserve_draws in vec((any::<u64>(), any::<u8>(), vec(any::<u8>(), 0..24)), 0..3),
        patch_draws in vec((any::<u64>(), any::<u8>(), any::<u64>(), any::<u64>(),
                            vec(any::<u8>(), 0..6)), 0..12),
        bits in any::<u8>(),
        granularity in any::<u64>(),
    ) {
        let digest = e9cache::digest(&digest_seed);
        let insns = build_insns(&insn_draws);
        let extra: Vec<ExtraSegment> = reserve_draws
            .into_iter()
            .map(|(vaddr, flags, bytes)| ExtraSegment {
                vaddr,
                bytes,
                exec: flags & 1 != 0,
                write: flags & 2 != 0,
            })
            .collect();
        let patches: Vec<PatchRequest> = patch_draws
            .into_iter()
            .map(|(addr, sel, a, b, code)| PatchRequest {
                addr,
                template: build_template(sel, a, b, code),
            })
            .collect();
        let cfg = build_config(bits, granularity);

        let material = key_material(&digest, &insns, &extra, &patches, &cfg);
        // The material is exactly what the key hashes...
        prop_assert_eq!(
            e9cache::digest(&material),
            rewrite_key_from_digest(&digest, &insns, &extra, &patches, &cfg)
        );
        // ...and decodes back to the job, so two jobs never share it.
        let back = frame::decode(&material)
            .ok_or_else(|| TestCaseError::fail("own key material rejected"))?;
        prop_assert_eq!(back.format_version, e9cache::FORMAT_VERSION);
        prop_assert_eq!(back.protocol_version, PROTOCOL_VERSION);
        prop_assert_eq!(&back.binary_digest[..], &digest[..]);
        let pairs: Vec<(u64, Vec<u8>)> =
            insns.iter().map(|i| (i.addr, i.bytes().to_vec())).collect();
        prop_assert_eq!(back.insns, pairs);
        prop_assert_eq!(back.reserves, extra);
        prop_assert_eq!(back.patches, patches);
        prop_assert_eq!(back.config, cfg);
    }

    #[test]
    fn config_options_decode_to_the_same_config(
        bits in any::<u8>(),
        granularity in 1u64..=MAX_GRANULARITY,
        start_bits in any::<u8>(),
        start_granularity in 1u64..=MAX_GRANULARITY,
    ) {
        // The pairs set every field, so decoding them over any starting
        // config yields the encoded one.
        let cfg = build_config(bits, granularity);
        let mut back = build_config(start_bits, start_granularity);
        for (name, value) in config_options(&cfg) {
            apply_option(&mut back, name, &value)
                .map_err(|e| TestCaseError::fail(format!("own option {name}={value} rejected: {e}")))?;
        }
        prop_assert_eq!(back, cfg);
    }

    #[test]
    fn hex_decode_inverts_hex_encode(bytes in vec(any::<u8>(), 0..512)) {
        let text = hex_encode(&bytes);
        prop_assert_eq!(text.len(), 2 * bytes.len());
        let back = hex_decode(&text)
            .map_err(|e| TestCaseError::fail(format!("own hex rejected: {e}")))?;
        prop_assert_eq!(back, bytes);
    }

    #[test]
    fn json_serialize_parse_is_identity(ops in vec(any::<u8>(), 0..256)) {
        let v = build_json(&mut ops.into_iter(), 0);
        let text = v.serialize();
        let back = json::parse(text.as_bytes())
            .map_err(|e| TestCaseError::fail(format!("own output unparsable: {e:?} in {text}")))?;
        prop_assert_eq!(&back, &v);
        // Canonical: re-serialization is byte-identical.
        prop_assert_eq!(back.serialize(), text);
    }

    #[test]
    fn requests_round_trip_byte_identically(
        id in any::<u64>(),
        sel in any::<u8>(),
        addr in any::<u64>(),
        bytes in vec(any::<u8>(), 0..64),
        name in alpha(6),
        flag in any::<bool>(),
    ) {
        let req = Request {
            id,
            cmd: build_command(sel, addr, bytes, name, flag),
        };
        let line = req.encode();
        let back = Request::decode(&json::parse(line.as_bytes()).unwrap())
            .map_err(|e| TestCaseError::fail(format!("own request rejected: {e}")))?;
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(Request::decode_line(line.as_bytes()), Ok(back.clone()));
        prop_assert_eq!(back.encode(), line);
    }

    #[test]
    fn responses_round_trip_byte_identically(
        id in any::<u64>(),
        has_id in any::<bool>(),
        is_err in any::<bool>(),
        errcode in any::<i64>(),
        msg in alpha(8),
        ops in vec(any::<u8>(), 0..64),
    ) {
        let resp = Response {
            id: if has_id { Some(id) } else { None },
            body: if is_err {
                Err(RpcError::new(errcode, msg))
            } else {
                Ok(build_json(&mut ops.into_iter(), 0))
            },
        };
        let line = resp.encode();
        prop_assert_eq!(&resp.to_json().serialize(), &line);
        let back = Response::decode(&json::parse(line.as_bytes()).unwrap())
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(&back, &resp);
        prop_assert_eq!(Response::decode_line(line.as_bytes()), Ok(back.clone()));
        prop_assert_eq!(back.encode(), line);
    }

    #[test]
    fn direct_encoder_writes_the_tree_serializers_line(
        id in any::<u64>(),
        sel in any::<u8>(),
        addr in any::<u64>(),
        bytes in vec(any::<u8>(), 0..64),
        name in alpha(6),
        flag in any::<bool>(),
    ) {
        let req = Request {
            id,
            cmd: build_command(sel, addr, bytes, name, flag),
        };
        prop_assert_eq!(req.encode(), tree_line(&req));
    }

    #[test]
    fn non_canonical_spellings_decode_to_the_same_request(
        id in any::<u64>(),
        sel in any::<u8>(),
        addr in any::<u64>(),
        bytes in vec(any::<u8>(), 0..16),
        name in alpha(6),
        flag in any::<bool>(),
        shape in vec(any::<u8>(), 1..64),
    ) {
        let req = Request {
            id,
            cmd: build_command(sel, addr, bytes, name, flag),
        };
        let tree = json::parse(req.encode().as_bytes()).unwrap();
        let mut at = 0;
        let mut draw = || {
            at += 1;
            shape[at % shape.len()]
        };
        let mut text = String::new();
        loose(&tree, &mut draw, &mut text);
        prop_assert_eq!(Request::decode_line(text.as_bytes()), Ok(req.clone()), "{}", text);
        prop_assert_eq!(Request::decode_line_via_tree(text.as_bytes()), Ok(req), "{}", text);
    }

    #[test]
    fn single_pass_decoders_agree_with_the_tree_on_damaged_lines(
        id in any::<u64>(),
        sel in any::<u8>(),
        addr in any::<u64>(),
        bytes in vec(any::<u8>(), 0..16),
        name in alpha(6),
        flag in any::<bool>(),
        edits in vec((any::<u16>(), any::<u8>(), any::<u8>()), 0..4),
        errcode in any::<i64>(),
    ) {
        let req = Request {
            id,
            cmd: build_command(sel, addr, bytes, name.clone(), flag),
        };
        let line = damage(req.encode().into_bytes(), &edits);
        prop_assert_eq!(Request::decode_line(&line), Request::decode_line_via_tree(&line));

        let resp = if flag {
            Response::err(Some(id), RpcError::new(errcode, name))
        } else {
            Response::ok(id, json::parse(req.encode().as_bytes()).unwrap())
        };
        let line = damage(resp.encode().into_bytes(), &edits);
        let via_tree = json::parse(&line)
            .map_err(|e| e.to_string())
            .and_then(|v| Response::decode(&v));
        prop_assert_eq!(Response::decode_line(&line), via_tree);
    }

    #[test]
    fn instruction_byte_path_agrees_with_the_tree(
        id_sel in any::<u8>(),
        id_raw in any::<u64>(),
        addr_sel in any::<u8>(),
        addr_raw in any::<u64>(),
        bytes in vec(any::<u8>(), 0..17),
        kind in any::<u8>(),
        extra in any::<u8>(),
    ) {
        let (id, addr) = (digits_of(id_sel, id_raw), digits_of(addr_sel, addr_raw));
        let hex = hex_encode(&bytes);
        let canonical = instruction_text(&id.to_string(), &addr.to_string(), &hex);
        let req = Request {
            id,
            cmd: Command::Instruction { addr, bytes },
        };
        prop_assert_eq!(&req.encode(), &canonical);
        prop_assert_eq!(Request::decode_line(canonical.as_bytes()), Ok(req));
        for line in [canonical, near_miss(kind, id, addr, &hex, extra)] {
            prop_assert_eq!(
                Request::decode_line(line.as_bytes()),
                Request::decode_line_via_tree(line.as_bytes()),
                "{}",
                line
            );
        }
    }

    #[test]
    fn emit_writer_writes_the_tree_serializers_bytes(
        binary in vec(any::<u8>(), 0..64),
        n in vec(any::<u64>(), 15..16),
        reports in vec((any::<u64>(), any::<u8>(), any::<u8>(), any::<u64>()), 0..8),
        mappings in vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..4),
        sel in any::<u8>(),
        digest in alpha(8),
    ) {
        let reply = build_emit(binary, &n, &reports, &mappings, sel, digest);
        let mut direct = Vec::new();
        reply.write_json(&mut direct);
        prop_assert_eq!(String::from_utf8(direct).unwrap(), reply.to_json().serialize());
    }

    #[test]
    fn cache_payload_round_trips_without_the_cache_fields(
        binary in vec(any::<u8>(), 0..64),
        n in vec(any::<u64>(), 15..16),
        reports in vec((any::<u64>(), any::<u8>(), any::<u8>(), any::<u64>()), 0..8),
        mappings in vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..4),
        sel in any::<u8>(),
        digest in alpha(8),
    ) {
        let reply = build_emit(binary, &n, &reports, &mappings, sel, digest);
        let stored = EmitReply { cache: CacheDisposition::Off, digest: None, ..reply.clone() };
        prop_assert_eq!(EmitReply::decode_bin(&reply.encode_bin()), Ok(stored));
    }

    #[test]
    fn one_pass_emit_reader_agrees_with_from_json(
        binary in vec(any::<u8>(), 0..32),
        n in vec(any::<u64>(), 15..16),
        reports in vec((any::<u64>(), any::<u8>(), any::<u8>(), any::<u64>()), 0..6),
        mappings in vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..3),
        sel in any::<u8>(),
        digest in alpha(8),
        edits in vec((any::<u16>(), any::<u8>(), any::<u8>()), 0..4),
        shape in vec(any::<u8>(), 1..64),
    ) {
        let reply = build_emit(binary, &n, &reports, &mappings, sel, digest);
        let intact = Response::ok(7, reply.to_json()).encode().into_bytes();
        prop_assert_eq!(
            EmitReply::decode_line(&intact),
            Ok(TypedResponse { id: Some(7), body: Ok(Ok(reply.clone())) })
        );
        // Loose spellings (reordered members, whitespace, escapes, unknown
        // and repeated keys) and damaged lines: the one-pass reader gives
        // the tree reader's value or error string.
        let mut at = 0;
        let mut draw = || {
            at += 1;
            shape[at % shape.len()]
        };
        let mut loose_line = String::new();
        loose(&json::parse(&intact).unwrap(), &mut draw, &mut loose_line);
        for line in [loose_line.into_bytes(), damage(intact, &edits)] {
            let via_tree = json::parse(&line)
                .map_err(|e| e.to_string())
                .and_then(|v| Response::decode(&v))
                .map(|r| TypedResponse {
                    id: r.id,
                    body: r.body.map(|v| EmitReply::from_json(&v)),
                });
            prop_assert_eq!(
                EmitReply::decode_line(&line),
                via_tree,
                "{}",
                String::from_utf8_lossy(&line)
            );
        }
    }

    #[test]
    fn typed_replies_read_back_the_writers_input(
        emit in (
            vec(any::<u8>(), 0..32),
            vec(any::<u64>(), 15..16),
            vec((any::<u64>(), any::<u8>(), any::<u8>(), any::<u64>()), 0..6),
            vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..3),
            any::<u8>(),
            alpha(8),
        ),
        hooks in vec(
            (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            0..4,
        ),
        name in alpha(5),
        addrs in (any::<u64>(), any::<u64>(), any::<bool>()),
        counters in vec(any::<u64>(), 22..23),
        bits in any::<u8>(),
        mode in alpha(7),
        spec in alpha(6),
        shape in vec(any::<u8>(), 1..64),
    ) {
        // Loose spellings reorder members, insert an unknown one and
        // repeat each object's first member at its end with another
        // value: a reader that took the repeat would read a different
        // value than was written.
        let mut at = 0;
        let mut draw = || {
            at += 1;
            shape[at % shape.len()]
        };

        let (binary, n, reports, mappings, sel, digest) = emit;
        reads_back(
            &build_emit(binary, &n, &reports, &mappings, sel, digest),
            EmitReply::write_json,
            EmitReply::from_json,
            &mut draw,
        )?;
        reads_back(
            &build_hook(&hooks, &name, addrs),
            HookReply::write_json,
            HookReply::from_json,
            &mut draw,
        )?;
        reads_back(
            &build_cache_stats(&counters, bits),
            CacheStatsReply::write_json,
            CacheStatsReply::from_json,
            &mut draw,
        )?;
        reads_back(
            &build_health(&counters, bits, &mode, &spec),
            HealthReply::write_json,
            HealthReply::from_json,
            &mut draw,
        )?;
    }

    #[test]
    fn typed_reply_writers_write_canonical_json(
        emit in (
            vec(any::<u8>(), 0..32),
            vec(any::<u64>(), 15..16),
            vec((any::<u64>(), any::<u8>(), any::<u8>(), any::<u64>()), 0..6),
            vec((any::<u64>(), any::<u64>(), any::<u64>()), 0..3),
            any::<u8>(),
            alpha(8),
        ),
        hooks in vec(
            (any::<u32>(), any::<u32>(), any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            0..4,
        ),
        name in alpha(5),
        addrs in (any::<u64>(), any::<u64>(), any::<bool>()),
        counters in vec(any::<u64>(), 22..23),
        bits in any::<u8>(),
        mode in alpha(7),
        spec in alpha(6),
    ) {
        // A tree writer serialized canonically by construction; each
        // writer must write text that `serialize` gives back unchanged.
        let (binary, n, reports, mappings, sel, digest) = emit;
        let texts = [
            written(
                &build_emit(binary, &n, &reports, &mappings, sel, digest),
                EmitReply::write_json,
            ),
            written(&build_hook(&hooks, &name, addrs), HookReply::write_json),
            written(&build_cache_stats(&counters, bits), CacheStatsReply::write_json),
            written(&build_health(&counters, bits, &mode, &spec), HealthReply::write_json),
        ];
        for text in texts {
            let text = String::from_utf8(text).unwrap();
            prop_assert_eq!(json::parse(text.as_bytes()).map(|v| v.serialize()), Ok(text.clone()));
        }
    }

    #[test]
    fn truncated_requests_are_parse_errors(
        sel in any::<u8>(),
        addr in any::<u64>(),
        bytes in vec(any::<u8>(), 0..32),
        cut_pct in 0u32..100,
    ) {
        // Every strict prefix of a canonical request line is unbalanced
        // JSON: a typed error, never a panic, never a false accept.
        let req = Request {
            id: 1,
            cmd: build_command(sel, addr, bytes, "opt".into(), false),
        };
        let line = req.encode();
        let cut = (line.len() as u64 * cut_pct as u64 / 100) as usize;
        if cut < line.len() {
            prop_assert!(json::parse(&line.as_bytes()[..cut]).is_err());
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_parser(bytes in vec(any::<u8>(), 0..200)) {
        // Random input: success or typed error are both fine, panicking
        // is not (the property harness converts panics into failures).
        let _ = json::parse(&bytes);
    }

    #[test]
    fn bad_escapes_are_errors(tail in any::<u8>()) {
        // `"\<x>"` for any x outside the escape alphabet must error; for
        // x inside it, the string must parse.
        let escapable = b"\"\\/bfnrt";
        let input = [b'"', b'\\', tail, b'"'];
        let parsed = json::parse(&input);
        if escapable.contains(&tail) {
            prop_assert!(parsed.is_ok(), "escape \\{} rejected", tail as char);
        } else if tail != b'u' {
            prop_assert!(parsed.is_err(), "escape \\{:#04x} accepted", tail);
        }
    }

    #[test]
    fn depth_bombs_are_errors_not_overflows(depth in 65usize..4096) {
        // `[[[[…` past MAX_DEPTH must be a TooDeep error — a recursive
        // parser without the bound would blow the stack instead.
        // A scalar innermost, so `depth` brackets put it one level past
        // the bound even at 65 (an empty innermost array is at depth 64).
        let mut bomb = Vec::with_capacity(depth * 2 + 1);
        bomb.resize(depth, b'[');
        bomb.push(b'1');
        bomb.extend(std::iter::repeat_n(b']', depth));
        prop_assert!(json::parse(&bomb).is_err());
        let mut objs = Vec::with_capacity(depth * 8);
        for _ in 0..depth {
            objs.extend_from_slice(b"{\"k\":");
        }
        objs.push(b'1');
        objs.extend(std::iter::repeat_n(b'}', depth));
        prop_assert!(json::parse(&objs).is_err());
    }
}

#[test]
fn hostile_request_lines_get_in_band_errors() {
    // The server's one request choke point must answer garbage with
    // typed errors and keep the session alive.
    use e9proto::server::reply_line;
    use e9proto::Session;
    let mut s = Session::new();
    let mut reply = |line: &[u8]| {
        let mut out = Vec::new();
        reply_line(&mut s, line, &mut out);
        Response::decode_line(out.trim_ascii_end()).unwrap()
    };
    let r = reply(b"}{not json");
    assert_eq!(r.body.unwrap_err().code, code::PARSE);
    let r = reply(br#"{"id":true,"method":"emit"}"#);
    assert_eq!(r.body.unwrap_err().code, code::INVALID_REQUEST);
    // The session still works afterwards.
    let r = reply(br#"{"jsonrpc":"2.0","id":1,"method":"version","params":{"version":1}}"#);
    assert!(r.body.is_ok());
}

#[test]
fn patch_at_an_unbacked_address_gets_an_emit_reply() {
    // A site the disassembly places in no segment, with the B0 trap
    // fallback on: the rewrite reports the site failed, so `emit` gets a
    // result, not an INTERNAL error from a panic in the planner.
    use e9proto::server::reply_line;
    use e9proto::Session;
    let code = vec![0x48, 0x89, 0x03, 0xC3, 0x90, 0x90, 0x90, 0x90, 0x90];
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code.clone(), 0x401000);
    b.entry(0x401000);
    let mov = vec![0x48, 0x89, 0x03];
    let cmds = [
        Command::Version { version: 1 },
        Command::Option {
            name: "b0".into(),
            value: "true".into(),
        },
        Command::Binary {
            bytes: b.build(),
            digest: None,
        },
        Command::Instruction {
            addr: 0x401000,
            bytes: mov.clone(),
        },
        Command::Instruction {
            addr: 0x9000_0000,
            bytes: mov,
        },
        Command::Patch {
            addr: 0x9000_0000,
            template: Template::Empty,
        },
        Command::Emit,
    ];
    let mut s = Session::new();
    let mut replies = Vec::new();
    for (id, cmd) in (1..).zip(cmds) {
        replies.clear();
        reply_line(
            &mut s,
            Request { id, cmd }.encode().as_bytes(),
            &mut replies,
        );
        let r = Response::decode_line(replies.trim_ascii_end()).expect("reply");
        assert_eq!(r.id, Some(id));
        r.body.expect("ok reply");
    }
}
