//! Structured mutations for wire-protocol byte streams, and the
//! session-survival check each mutant is judged by.
//!
//! A "case" is a full client transcript (version → option → binary →
//! instructions → patch → emit) with damage applied: truncation mid-line
//! (a client dying mid-batch), byte flips, numeric inflation, line
//! reordering / duplication / deletion (state-machine abuse), injected
//! garbage lines, and well-formed lines respelled so that the server's
//! byte comparison for the canonical `instruction` line must refuse
//! them. The contract under test: every line gets a response or a clean
//! cut — never a panic — the same response, byte for byte, as the
//! reference path (tree parse, tree decode, tree-serialized reply) gives
//! on a twin session, and the session still answers a well-formed
//! request afterwards. Every reply line is read back both ways too: the
//! client's one-pass readers must agree with the tree readers, on the
//! envelope and on the line read as each typed reply.

use crate::Outcome;
use e9proto::json::{self, Json};
use e9proto::msg::{
    CacheStatsReply, Command, EmitReply, HealthReply, HookReply, Request, Response, TypedReply,
    TypedResponse,
};
use e9proto::server::{reference_reply, reply_line};
use e9proto::Session;
use e9rng::StdRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// An address in no segment of the baseline image.
const UNBACKED: u64 = 0x9000_0000;

/// A valid full-session transcript used as the mutation baseline.
pub fn baseline_script() -> Vec<u8> {
    let bin = crate::elf::baseline_elf();
    let code = vec![
        0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20, 0xC3, //
        0x0F, 0x1F, 0x44, 0x00, 0x00, 0x0F, 0x1F, 0x44, 0x00, 0x00,
    ];
    let disasm = e9x86::decode::linear_sweep(&code, 0x401000);

    let mut out = String::new();
    let mut id = 0u64;
    let mut push = |cmd: Command, out: &mut String| {
        id += 1;
        out.push_str(&Request { id, cmd }.encode());
        out.push('\n');
    };
    push(Command::Version { version: 1 }, &mut out);
    // A numeric rewriter option, so numeric mutations reach the config
    // decoder as well as the envelope.
    push(
        Command::Option {
            name: "granularity".into(),
            value: "1".into(),
        },
        &mut out,
    );
    // The B0 trap fallback, so a site every other tactic fails reaches
    // the planner's last write.
    push(
        Command::Option {
            name: "b0".into(),
            value: "true".into(),
        },
        &mut out,
    );
    push(
        Command::Binary {
            bytes: bin,
            digest: None,
        },
        &mut out,
    );
    // The text's instructions, then one the image holds no bytes for.
    let unbacked = e9x86::decode::linear_sweep(&code[..3], UNBACKED);
    for i in disasm.iter().chain(&unbacked) {
        push(
            Command::Instruction {
                addr: i.addr,
                bytes: i.bytes().to_vec(),
            },
            &mut out,
        );
    }
    for addr in [0x401000, UNBACKED] {
        push(
            Command::Patch {
                addr,
                template: e9patch::Template::Empty,
            },
            &mut out,
        );
    }
    push(Command::Emit, &mut out);
    out.into_bytes()
}

/// Apply one to three structured mutations to a copy of `base`.
/// Deterministic in `rng`.
pub fn mutate(rng: &mut StdRng, base: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    let moves = rng.gen_range(1..=3u32);
    for _ in 0..moves {
        match rng.gen_range(0..7u32) {
            0 => cut_stream(rng, &mut bytes),
            1 => flip_bytes(rng, &mut bytes),
            2 => inflate_numbers(rng, &mut bytes),
            3 => shuffle_lines(rng, &mut bytes),
            4 => inject_garbage_line(rng, &mut bytes),
            5 => respell(rng, &mut bytes),
            _ => splice_line(rng, &mut bytes),
        }
    }
    bytes
}

/// Mid-stream disconnect: the client dies at an arbitrary byte, usually
/// mid-line.
fn cut_stream(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    if bytes.is_empty() {
        return;
    }
    let cut = rng.gen_range(0..bytes.len());
    bytes.truncate(cut);
}

/// XOR up to 32 random bytes (newlines excluded half the time, so both
/// "corrupt JSON" and "broken framing" are explored).
fn flip_bytes(rng: &mut StdRng, bytes: &mut [u8]) {
    if bytes.is_empty() {
        return;
    }
    let keep_framing = rng.gen_bool(0.5);
    let n = rng.gen_range(1..=32u32);
    for _ in 0..n {
        let i = rng.gen_range(0..bytes.len());
        if keep_framing && bytes[i] == b'\n' {
            continue;
        }
        let mut m = ((rng.next_u32() % 255) + 1) as u8;
        if keep_framing && bytes[i] ^ m == b'\n' {
            m ^= 0x80;
        }
        bytes[i] ^= m;
    }
}

/// Replace one run of ASCII digits with a much longer one: ids, addrs,
/// counts and version numbers inflate past `u64`, or to 2^52. Half the
/// time the run is a whole number, such as an option value, so the digits
/// inside hex payloads do not drown out the few numbers.
fn inflate_numbers(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    let digits: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|(_, b)| b.is_ascii_digit())
        .map(|(i, _)| i)
        .collect();
    let mut numbers = Vec::new();
    let mut at = 0;
    for word in bytes.split(|b| !b.is_ascii_alphanumeric()) {
        if !word.is_empty() && word.iter().all(u8::is_ascii_digit) {
            numbers.push(at);
        }
        at += word.len() + 1;
    }
    let pool = if !numbers.is_empty() && rng.gen_bool(0.5) {
        &numbers
    } else {
        &digits
    };
    let Some(&start) = rng.choose(pool) else {
        return;
    };
    let end = bytes[start..]
        .iter()
        .position(|b| !b.is_ascii_digit())
        .map_or(bytes.len(), |n| start + n);
    let bomb: &[u8] = match rng.gen_range(0..4u32) {
        0 => b"18446744073709551616",                    // u64::MAX + 1
        1 => b"99999999999999999999999999999999999999",  // way past u64
        2 => b"4503599627370496",                        // 2^52
        _ => b"340282366920938463463374607431768211456", // 2^128
    };
    bytes.splice(start..end, bomb.iter().copied());
}

/// Reorder, duplicate or drop whole lines: protocol state-machine abuse
/// with individually well-formed requests.
fn shuffle_lines(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    let mut lines: Vec<Vec<u8>> = bytes
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect();
    if lines.len() < 2 {
        return;
    }
    match rng.gen_range(0..3u32) {
        0 => rng.shuffle(&mut lines),
        1 => {
            let i = rng.gen_range(0..lines.len());
            let dup = lines[i].clone();
            lines.insert(i, dup);
        }
        _ => {
            let i = rng.gen_range(0..lines.len());
            lines.remove(i);
        }
    }
    *bytes = lines.concat();
}

/// Insert one line of random bytes (newline-free, so framing survives).
fn inject_garbage_line(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    let len = rng.gen_range(1..=256usize);
    let mut garbage = Vec::with_capacity(len + 1);
    for _ in 0..len {
        let mut b = (rng.next_u32() & 0xFF) as u8;
        if b == b'\n' {
            b = b' ';
        }
        garbage.push(b);
    }
    garbage.push(b'\n');
    let lines: Vec<usize> = std::iter::once(0)
        .chain(
            bytes
                .iter()
                .enumerate()
                .filter(|(_, &b)| b == b'\n')
                .map(|(i, _)| i + 1),
        )
        .collect();
    let at = *rng.choose(&lines).unwrap_or(&0);
    bytes.splice(at..at, garbage);
}

/// Rewrite the values of one request line, an `instruction` line when
/// there is one, in a spelling only the single pass may read: its hex in
/// uppercase, its id or address with a leading zero, a space after one
/// colon, or its first `params` member moved after the others. The
/// serving twin must then answer what the reference twin answers,
/// though the line is one edit from the canonical line the server reads
/// by comparing bytes.
fn respell(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    let mut lines: Vec<Vec<u8>> = bytes
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect();
    let insns: Vec<usize> = (0..lines.len())
        .filter(|&i| find(&lines[i], b"\"method\":\"instruction\"").is_some())
        .collect();
    let i = match rng.choose(&insns) {
        Some(&i) => i,
        None if !lines.is_empty() => rng.gen_range(0..lines.len()),
        None => return,
    };
    let line = &mut lines[i];
    match rng.gen_range(0..4u32) {
        0 => {
            if let Some(at) = find(line, b"\"bytes\":\"") {
                let start = at + b"\"bytes\":\"".len();
                let len = line[start..].iter().take_while(|&&b| b != b'"').count();
                line[start..start + len].make_ascii_uppercase();
            }
        }
        1 => {
            let key: &[u8] = if rng.gen_bool(0.5) {
                b"\"id\":"
            } else {
                b"\"addr\":"
            };
            if let Some(at) = find(line, key) {
                line.insert(at + key.len(), b'0');
            }
        }
        2 => {
            let colons: Vec<usize> = (0..line.len()).filter(|&j| line[j] == b':').collect();
            if let Some(&at) = rng.choose(&colons) {
                line.insert(at + 1, b' ');
            }
        }
        _ => {
            // The first member of `params` moved after the rest:
            // `{"a":1,"b":2}}` becomes `{"b":2,"a":1}}`.
            let Some(at) = find(line, b"\"params\":{") else {
                return;
            };
            let open = at + b"\"params\":{".len();
            // `params` closes at the last `}` but one.
            let ends: Vec<usize> = (0..line.len()).filter(|&j| line[j] == b'}').collect();
            let close = ends.len().checked_sub(2).map_or(0, |k| ends[k]);
            if let Some(comma) = line
                .get(open..close)
                .and_then(|p| p.iter().position(|&b| b == b','))
            {
                let (first, rest) = line[open..close].split_at(comma);
                let swapped = [&rest[1..], b",", first].concat();
                line.splice(open..close, swapped);
            }
        }
    }
    *bytes = lines.concat();
}

/// The offset of the first `needle` in `hay`.
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// Glue two adjacent lines together (drop one newline): two JSON objects
/// on one line.
fn splice_line(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    let newlines: Vec<usize> = bytes
        .iter()
        .enumerate()
        .filter(|(_, &b)| b == b'\n')
        .map(|(i, _)| i)
        .collect();
    if let Some(&i) = rng.choose(&newlines) {
        bytes.remove(i);
    }
}

/// Execute one wire case: feed every line of `stream` to twin sessions,
/// one through the serving path's `reply_line` and the other through
/// the reference path (`reference_reply`: JSON tree parse, tree decode,
/// tree-serialized reply). Both must decode each line to the same request
/// or error reply and answer it with the same bytes. Each reply line is
/// then read as the client reads it (`Response::decode_line`, and
/// `TypedReply::decode_line` for each typed result) and as the tree
/// reader does (`json::parse`, `Response::decode`, each `from_json`),
/// which must agree: the same tables and assembly, the other reader.
/// Then probe serviceability with a valid request on the reference path,
/// which catches no panic.
/// Unwinds, a difference between the twins or between the readers, and a
/// dead session all count as failures.
pub fn wire_case(stream: &[u8]) -> Outcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut session = Session::new();
        let mut twin = Session::new();
        let mut any_error = false;
        let mut reply = Vec::new();
        for line in stream.split(|&b| b == b'\n') {
            if line.iter().all(|b| b.is_ascii_whitespace()) {
                continue;
            }
            let trimmed = line.trim_ascii();
            assert_eq!(
                Request::decode_line(trimmed),
                Request::decode_line_via_tree(trimmed),
                "single-pass and tree decoders differ on {:?}",
                String::from_utf8_lossy(line)
            );
            reply.clear();
            reply_line(&mut session, line, &mut reply);
            let reference = reference_reply(&mut twin, line);
            let got = reply.trim_ascii_end();
            assert_eq!(
                Some(got),
                reference.as_deref().map(str::as_bytes),
                "serving and reference replies differ on {:?}",
                String::from_utf8_lossy(line)
            );
            let resp = read_reply(got);
            if resp.body.is_err() {
                any_error = true;
            }
            if session.shutdown_requested() {
                break;
            }
        }
        // Serviceability probe: the session must still answer a
        // well-formed request (with success or a typed state error).
        if !session.shutdown_requested() {
            let probe = Request {
                id: 999_999,
                cmd: Command::Version { version: 1 },
            }
            .encode();
            let _ = reference_reply(&mut session, probe.as_bytes());
        }
        any_error
    }));
    match result {
        Err(_) => Outcome::Panicked,
        Ok(true) => Outcome::Rejected,
        Ok(false) => Outcome::Accepted,
    }
}

/// Read one reply line as the client does and as the tree readers do;
/// they must agree, on the envelope and, read as each typed result, on
/// the result too.
fn read_reply(line: &[u8]) -> Response {
    let tree = json::parse(line)
        .map_err(|e| e.to_string())
        .and_then(|v| Response::decode(&v));
    let resp = Response::decode_line(line);
    assert_eq!(
        resp,
        tree,
        "client and tree readers differ on {:?}",
        String::from_utf8_lossy(line)
    );
    typed_readers_agree(line, &tree, EmitReply::from_json);
    typed_readers_agree(line, &tree, HookReply::from_json);
    typed_readers_agree(line, &tree, CacheStatsReply::from_json);
    typed_readers_agree(line, &tree, HealthReply::from_json);
    resp.expect("the server writes well-formed replies")
}

/// The reply `line` read as a `T` in one pass must be what `from_json`
/// reads from the tree reader's `result`, or its error.
fn typed_readers_agree<T: TypedReply + PartialEq + std::fmt::Debug>(
    line: &[u8],
    tree: &Result<Response, String>,
    from_json: fn(&Json) -> Result<T, String>,
) {
    let via_tree = tree.clone().map(|r| TypedResponse {
        id: r.id,
        body: r.body.map(|v| from_json(&v)),
    });
    assert_eq!(
        T::decode_line(line),
        via_tree,
        "{} readers differ on {:?}",
        std::any::type_name::<T>(),
        String::from_utf8_lossy(line)
    );
}
