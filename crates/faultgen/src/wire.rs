//! Structured mutations for wire-protocol byte streams, and the
//! session-survival check each mutant is judged by.
//!
//! A "case" is a full client transcript (version → option → binary →
//! instructions → patch → emit) with damage applied: truncation mid-line
//! (a client dying mid-batch), byte flips, numeric inflation, line
//! reordering / duplication / deletion (state-machine abuse) and injected
//! garbage lines. The contract under test: every line gets a response or a clean
//! cut — never a panic — and the session still answers a well-formed
//! request afterwards.

use crate::Outcome;
use e9proto::msg::{Command, Request};
use e9proto::server::dispatch_line;
use e9proto::Session;
use e9rng::StdRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

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
    push(Command::Binary { bytes: bin, digest: None }, &mut out);
    for i in &disasm {
        push(
            Command::Instruction {
                addr: i.addr,
                bytes: i.bytes().to_vec(),
            },
            &mut out,
        );
    }
    push(
        Command::Patch {
            addr: 0x401000,
            template: e9patch::Template::Empty,
        },
        &mut out,
    );
    push(Command::Emit, &mut out);
    out.into_bytes()
}

/// Apply one to three structured mutations to a copy of `base`.
/// Deterministic in `rng`.
pub fn mutate(rng: &mut StdRng, base: &[u8]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    let moves = rng.gen_range(1..=3u32);
    for _ in 0..moves {
        match rng.gen_range(0..6u32) {
            0 => cut_stream(rng, &mut bytes),
            1 => flip_bytes(rng, &mut bytes),
            2 => inflate_numbers(rng, &mut bytes),
            3 => shuffle_lines(rng, &mut bytes),
            4 => inject_garbage_line(rng, &mut bytes),
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
    let pool = if !numbers.is_empty() && rng.gen_bool(0.5) { &numbers } else { &digits };
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

/// Execute one wire case: feed every line of `stream` through a fresh
/// session's `dispatch_line`, then probe serviceability with a valid
/// request. Unwinds and a dead session both count as failures.
pub fn wire_case(stream: &[u8]) -> Outcome {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let mut session = Session::new();
        let mut any_error = false;
        for line in stream.split(|&b| b == b'\n') {
            if line.iter().all(|b| b.is_ascii_whitespace()) {
                continue;
            }
            let resp = dispatch_line(&mut session, line);
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
            let _ = dispatch_line(&mut session, probe.as_bytes());
        }
        any_error
    }));
    match result {
        Err(_) => Outcome::Panicked,
        Ok(true) => Outcome::Rejected,
        Ok(false) => Outcome::Accepted,
    }
}
