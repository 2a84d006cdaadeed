//! Property tests for the wire codec: arbitrary messages must round-trip
//! `encode → parse → decode → encode` byte-identically (the serializer is
//! canonical), and malformed input — truncations, bad escapes, depth
//! bombs, random bytes — must come back as typed errors, never panics.

use e9proto::json::{self, Json};
use e9proto::msg::{apply_option, code, config_options, Command, Request, Response, RpcError};
use e9patch::planner::MAX_GRANULARITY;
use e9patch::{AllocPolicy, RewriteConfig, Tactics, Template};
use e9qcheck::prelude::*;

/// Build an arbitrary JSON tree from a drawn opcode stream. Floats are
/// deliberately excluded: integer/float canonicalisation has its own unit
/// tests, and e.g. `Float(2.0)` re-parses as `Int(2)` by design.
fn build_json(ops: &mut std::vec::IntoIter<u8>, depth: usize) -> Json {
    let op = ops.next().unwrap_or(0);
    let structural = depth < 3;
    match op % if structural { 6 } else { 4 } {
        0 => Json::Null,
        1 => Json::Bool(ops.next().unwrap_or(0) % 2 == 0),
        2 => {
            let mut v = 0i128;
            for _ in 0..8 {
                v = (v << 8) | ops.next().unwrap_or(0) as i128;
            }
            if ops.next().unwrap_or(0) % 2 == 0 {
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

/// Build an arbitrary command from drawn primitives.
fn build_command(sel: u8, addr: u64, bytes: Vec<u8>, name: String, flag: bool) -> Command {
    match sel % 10 {
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
            template: Template::Counter { counter_addr: addr ^ 0xfff },
        },
        7 => Command::Patch {
            addr,
            template: Template::Replace {
                code: bytes,
                resume: if flag { Some(addr.wrapping_add(4)) } else { None },
            },
        },
        8 => Command::Emit,
        _ => Command::Shutdown,
    }
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
        alloc_policy: if bit(5) { AllocPolicy::FirstFitHigh } else { AllocPolicy::FirstFitLow },
        jobs: None,
    }
}

props! {
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
        let back = Response::decode(&json::parse(line.as_bytes()).unwrap())
            .map_err(TestCaseError::fail)?;
        prop_assert_eq!(&back, &resp);
        prop_assert_eq!(back.encode(), line);
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
        let mut bomb = Vec::with_capacity(depth * 2);
        bomb.resize(depth, b'[');
        bomb.extend(std::iter::repeat(b']').take(depth));
        prop_assert!(json::parse(&bomb).is_err());
        let mut objs = Vec::with_capacity(depth * 8);
        for _ in 0..depth {
            objs.extend_from_slice(b"{\"k\":");
        }
        objs.push(b'1');
        objs.extend(std::iter::repeat(b'}').take(depth));
        prop_assert!(json::parse(&objs).is_err());
    }
}

#[test]
fn hostile_request_lines_get_in_band_errors() {
    // The server's dispatch layer must answer garbage with typed errors
    // and keep the session alive.
    use e9proto::server::dispatch_line;
    use e9proto::Session;
    let mut s = Session::new();
    let r = dispatch_line(&mut s, b"}{not json");
    assert_eq!(r.body.unwrap_err().code, code::PARSE);
    let r = dispatch_line(&mut s, br#"{"id":true,"method":"emit"}"#);
    assert_eq!(r.body.unwrap_err().code, code::INVALID_REQUEST);
    // The session still works afterwards.
    let r = dispatch_line(
        &mut s,
        br#"{"jsonrpc":"2.0","id":1,"method":"version","params":{"version":1}}"#,
    );
    assert!(r.body.is_ok());
}
