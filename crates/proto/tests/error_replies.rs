//! Known answers for the error replies of the request and reply decoders.
//!
//! Each request case pins the exact reply line that both request
//! decoders give: the single pass (`Request::decode_line`) and the tree
//! reference (`Request::decode_line_via_tree`). The cases cover each
//! method with each required member removed in turn, since the first
//! missing member is the one named, and every template and payload kind.
//! Each reply case pins the error string of `Response::decode_line` or of
//! a typed `from_json` reader, and of the one-pass
//! `TypedReply::decode_line` for that reply too.

use e9proto::json::{parse, Json};
use e9proto::msg::{
    CacheStatsReply, EmitReply, HealthReply, HookReply, Request, Response, TypedReply,
    TypedResponse,
};

/// The reply a request line gets from both decoders: `ok` when it
/// decodes, else the encoded error reply.
fn request_reply(line: &str) -> String {
    let direct = Request::decode_line(line.as_bytes());
    assert_eq!(
        direct,
        Request::decode_line_via_tree(line.as_bytes()),
        "the decoders disagree on {line}"
    );
    match direct {
        Ok(_) => "ok".to_string(),
        Err(reply) => reply.encode(),
    }
}

/// Check each `(line, reply)` pair, reporting every mismatch at once.
fn check(cases: &[(String, &str)]) {
    let wrong: Vec<String> = cases
        .iter()
        .filter_map(|(line, want)| {
            let got = request_reply(line);
            (got != *want).then(|| format!("{line}\n  want {want}\n   got {got}"))
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "{} wrong replies:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

/// A request line with id 7.
fn req(method: &str, params: &str) -> String {
    format!(r#"{{"jsonrpc":"2.0","id":7,"method":"{method}","params":{params}}}"#)
}

/// The error reply to id 7 with code -32602 (INVALID_PARAMS).
macro_rules! params_err {
    ($msg:literal) => {
        concat!(
            r#"{"jsonrpc":"2.0","id":7,"error":{"code":-32602,"message":""#,
            $msg,
            r#""}}"#
        )
    };
}

#[test]
fn each_method_names_its_first_missing_member() {
    let cases = [
        (req("version", "{}"), params_err!("missing version")),
        (req("binary", "{}"), params_err!("missing bytes")),
        (
            req("binary", r#"{"digest":null}"#),
            params_err!("missing bytes"),
        ),
        (
            req("option", r#"{"value":"true"}"#),
            params_err!("missing name"),
        ),
        (
            req("option", r#"{"name":"t1"}"#),
            params_err!("missing value"),
        ),
        (req("option", "{}"), params_err!("missing name")),
        (
            req("reserve", r#"{"bytes":"00","exec":true,"write":false}"#),
            params_err!("missing vaddr"),
        ),
        (
            req("reserve", r#"{"vaddr":1,"exec":true,"write":false}"#),
            params_err!("missing bytes"),
        ),
        (
            req("reserve", r#"{"vaddr":1,"bytes":"00","write":false}"#),
            params_err!("missing exec"),
        ),
        (
            req("reserve", r#"{"vaddr":1,"bytes":"00","exec":true}"#),
            params_err!("missing write"),
        ),
        (
            req("reserve", r#"{"write":false}"#),
            params_err!("missing vaddr"),
        ),
        (
            req("reserve", r#"{"vaddr":1,"write":false}"#),
            params_err!("missing bytes"),
        ),
        (
            req("instruction", r#"{"bytes":"90"}"#),
            params_err!("missing addr"),
        ),
        (
            req("instruction", r#"{"addr":1}"#),
            params_err!("missing bytes"),
        ),
        (req("instruction", "{}"), params_err!("missing addr")),
        (
            req("patch", r#"{"template":{"kind":"empty"}}"#),
            params_err!("missing addr"),
        ),
        (
            req("patch", r#"{"addr":1}"#),
            params_err!("missing template"),
        ),
        (req("patch", "{}"), params_err!("missing addr")),
        (
            req(
                "hook",
                r#"{"addrs":[1],"call_original":false,"payload":{"kind":"nop"}}"#,
            ),
            params_err!("missing funcs"),
        ),
        (
            req(
                "hook",
                r#"{"funcs":["f"],"call_original":false,"payload":{"kind":"nop"}}"#,
            ),
            params_err!("missing addrs"),
        ),
        (
            req(
                "hook",
                r#"{"funcs":["f"],"addrs":[1],"payload":{"kind":"nop"}}"#,
            ),
            params_err!("missing call_original"),
        ),
        (
            req(
                "hook",
                r#"{"funcs":["f"],"addrs":[1],"call_original":false}"#,
            ),
            params_err!("missing payload"),
        ),
        (req("hook", "{}"), params_err!("missing funcs")),
        (
            req("hook", r#"{"funcs":[],"call_original":true}"#),
            params_err!("missing addrs"),
        ),
        (req("cache", "{}"), params_err!("missing action")),
        // Methods without required members decode with any params.
        (req("emit", "{}"), "ok"),
        (req("health", "[]"), "ok"),
        (req("shutdown", r#"{"addr":"x"}"#), "ok"),
    ];
    check(&cases);
}

#[test]
fn mistyped_and_refused_members_are_worded() {
    let digest = "ab".repeat(32);
    let cases = [
        (
            req("frobnicate", "{}"),
            r#"{"jsonrpc":"2.0","id":7,"error":{"code":-32601,"message":"unknown method \"frobnicate\""}}"#,
        ),
        (
            req("cache", r#"{"action":"defrag"}"#),
            params_err!("unknown cache action \\\"defrag\\\""),
        ),
        (
            req("cache", r#"{"action":1}"#),
            params_err!("missing action"),
        ),
        (
            req("binary", r#"{"bytes":"00","digest":5}"#),
            params_err!("digest: expected a string"),
        ),
        (
            req("binary", r#"{"bytes":"00","digest":[]}"#),
            params_err!("digest: expected a string"),
        ),
        (
            req("binary", r#"{"bytes":"00","digest":"abc"}"#),
            params_err!("digest: expected 64 hex chars"),
        ),
        (
            req(
                "binary",
                &format!(r#"{{"bytes":"00","digest":"{digest}"}}"#),
            ),
            "ok",
        ),
        // The first missing member is named before a bad digest.
        (
            req("binary", r#"{"digest":5}"#),
            params_err!("missing bytes"),
        ),
        (
            req("binary", r#"{"bytes":"0g"}"#),
            params_err!("bad hex byte 0x67"),
        ),
        (
            req("binary", r#"{"bytes":"000"}"#),
            params_err!("odd hex length 3"),
        ),
        (
            req("binary", r#"{"bytes":7}"#),
            params_err!("missing bytes"),
        ),
        (
            req("instruction", r#"{"addr":-1,"bytes":"90"}"#),
            params_err!("missing addr"),
        ),
        (
            req(
                "instruction",
                r#"{"addr":18446744073709551616,"bytes":"90"}"#,
            ),
            params_err!("missing addr"),
        ),
        (
            req("instruction", r#"{"addr":1.5,"bytes":"90"}"#),
            params_err!("missing addr"),
        ),
        (
            req("instruction", r#"{"addr":"1","bytes":"90"}"#),
            params_err!("missing addr"),
        ),
        // The first occurrence is the one read, even when it is mistyped.
        (
            req("instruction", r#"{"addr":"1","addr":1,"bytes":"90"}"#),
            params_err!("missing addr"),
        ),
        (
            req("instruction", r#"{"addr":1,"addr":"1","bytes":"90"}"#),
            "ok",
        ),
        (
            req(
                "reserve",
                r#"{"vaddr":1,"bytes":"00","exec":1,"write":false}"#,
            ),
            params_err!("missing exec"),
        ),
        (
            req("option", r#"{"name":1,"value":"true"}"#),
            params_err!("missing name"),
        ),
        (
            req(
                "hook",
                r#"{"funcs":["f",1],"addrs":[1],"call_original":false,"payload":{"kind":"nop"}}"#,
            ),
            params_err!("funcs: expected strings"),
        ),
        (
            req(
                "hook",
                r#"{"funcs":["f"],"addrs":[1,"2"],"call_original":false,"payload":{"kind":"nop"}}"#,
            ),
            params_err!("addrs: expected integers"),
        ),
        (
            req(
                "hook",
                r#"{"funcs":["f"],"addrs":[-1],"call_original":false,"payload":{"kind":"nop"}}"#,
            ),
            params_err!("addrs: expected integers"),
        ),
        // A bad funcs entry is named before a missing addrs.
        (
            req("hook", r#"{"funcs":[null]}"#),
            params_err!("funcs: expected strings"),
        ),
        (
            req("hook", r#"{"funcs":"f","addrs":[]}"#),
            params_err!("missing funcs"),
        ),
        (
            req("hook", r#"{"funcs":[],"addrs":{}}"#),
            params_err!("missing addrs"),
        ),
    ];
    check(&cases);
}

#[test]
fn each_template_kind_names_its_missing_field() {
    let patch = |template: &str| req("patch", &format!(r#"{{"addr":1,"template":{template}}}"#));
    let cases = [
        (patch(r#"{"kind":"empty"}"#), "ok"),
        (patch(r#"{}"#), params_err!("template: missing kind")),
        (
            patch(r#"{"kind":7}"#),
            params_err!("template: missing kind"),
        ),
        (
            patch(r#"{"counter_addr":1}"#),
            params_err!("template: missing kind"),
        ),
        (
            patch(r#"{"kind":"counter"}"#),
            params_err!("template: missing counter_addr"),
        ),
        (
            patch(r#"{"kind":"counter","counter_addr":"1"}"#),
            params_err!("template: missing counter_addr"),
        ),
        (
            patch(r#"{"func_addr":1}"#),
            params_err!("template: missing kind"),
        ),
        (
            patch(r#"{"kind":"checkcall"}"#),
            params_err!("template: missing func_addr"),
        ),
        (
            patch(r#"{"kind":"hookcall"}"#),
            params_err!("template: missing func_addr"),
        ),
        (
            patch(r#"{"kind":"hooksave"}"#),
            params_err!("template: missing func_addr"),
        ),
        (
            patch(r#"{"kind":"hookoriginal","thunk_addr":2}"#),
            params_err!("template: missing func_addr"),
        ),
        (
            patch(r#"{"kind":"hookoriginal","func_addr":1}"#),
            params_err!("template: missing thunk_addr"),
        ),
        (
            patch(r#"{"kind":"hookoriginal"}"#),
            params_err!("template: missing func_addr"),
        ),
        (
            patch(r#"{"func_addr":1,"thunk_addr":2}"#),
            params_err!("template: missing kind"),
        ),
        (
            patch(r#"{"kind":"replace"}"#),
            params_err!("template: missing code"),
        ),
        (
            patch(r#"{"kind":"replace","resume":1}"#),
            params_err!("template: missing code"),
        ),
        (
            patch(r#"{"code":"90"}"#),
            params_err!("template: missing kind"),
        ),
        (
            patch(r#"{"kind":"replace","code":"9"}"#),
            params_err!("template: odd hex length 1"),
        ),
        (
            patch(r#"{"kind":"replace","code":"90","resume":"1"}"#),
            params_err!("template: bad resume"),
        ),
        (
            patch(r#"{"kind":"replace","code":"90","resume":-1}"#),
            params_err!("template: bad resume"),
        ),
        (
            patch(r#"{"kind":"replace","code":"90","resume":null}"#),
            "ok",
        ),
        (patch(r#"{"kind":"replace","code":"90"}"#), "ok"),
        (
            patch(r#"{"kind":"defrag"}"#),
            params_err!("template: unknown kind \\\"defrag\\\""),
        ),
        (patch(r#""empty""#), params_err!("template: missing kind")),
        (
            patch(r#"[{"kind":"empty"}]"#),
            params_err!("template: missing kind"),
        ),
        (patch("null"), params_err!("template: missing kind")),
    ];
    check(&cases);
}

#[test]
fn each_payload_kind_names_its_missing_field() {
    let hook = |payload: &str| {
        req(
            "hook",
            &format!(r#"{{"funcs":["f"],"addrs":[],"call_original":true,"payload":{payload}}}"#),
        )
    };
    let cases = [
        (hook(r#"{"kind":"counter"}"#), "ok"),
        (hook(r#"{"kind":"nop"}"#), "ok"),
        (hook(r#"{"kind":"raw","code":"90c3"}"#), "ok"),
        (hook(r#"{}"#), params_err!("payload: missing kind")),
        (
            hook(r#"{"code":"90"}"#),
            params_err!("payload: missing kind"),
        ),
        (
            hook(r#"{"kind":"raw"}"#),
            params_err!("payload: missing code"),
        ),
        (
            hook(r#"{"kind":"raw","code":90}"#),
            params_err!("payload: missing code"),
        ),
        (
            hook(r#"{"kind":"raw","code":"zz"}"#),
            params_err!("payload: bad hex byte 0x7a"),
        ),
        (
            hook(r#"{"kind":"defrag"}"#),
            params_err!("payload: unknown kind \\\"defrag\\\""),
        ),
        (hook("7"), params_err!("payload: missing kind")),
    ];
    check(&cases);
}

#[test]
fn envelope_errors_keep_a_valid_id() {
    let cases = [
        (
            r#"{"jsonrpc":"2.0","method":"emit","params":{}}"#.to_string(),
            r#"{"jsonrpc":"2.0","id":null,"error":{"code":-32600,"message":"missing integer id"}}"#,
        ),
        (
            r#"{"jsonrpc":"2.0","id":"7","method":"emit","params":{}}"#.to_string(),
            r#"{"jsonrpc":"2.0","id":null,"error":{"code":-32600,"message":"missing integer id"}}"#,
        ),
        (
            r#"{"jsonrpc":"2.0","id":-7,"method":"frobnicate"}"#.to_string(),
            r#"{"jsonrpc":"2.0","id":null,"error":{"code":-32600,"message":"missing integer id"}}"#,
        ),
        (
            r#"{"jsonrpc":"2.0","id":7,"params":{}}"#.to_string(),
            r#"{"jsonrpc":"2.0","id":7,"error":{"code":-32600,"message":"missing method"}}"#,
        ),
        (
            r#"{"jsonrpc":"2.0","id":7,"method":5}"#.to_string(),
            r#"{"jsonrpc":"2.0","id":7,"error":{"code":-32600,"message":"missing method"}}"#,
        ),
        (
            r#"[1,2]"#.to_string(),
            r#"{"jsonrpc":"2.0","id":null,"error":{"code":-32600,"message":"missing integer id"}}"#,
        ),
        // `params` that is not an object has no members.
        (req("instruction", "5"), params_err!("missing addr")),
        (
            req("version", r#"[{"version":1}]"#),
            params_err!("missing version"),
        ),
        (req("patch", "null"), params_err!("missing addr")),
        (
            r#"{"jsonrpc":"2.0","id":7,"method":"instruction"}"#.to_string(),
            params_err!("missing addr"),
        ),
        (
            r#"{"id":7,"method":"version","params":{"version":1},"params":{}}"#.to_string(),
            "ok",
        ),
        (
            r#"{"id":7,"method":"version","params":[],"params":{"version":1}}"#.to_string(),
            params_err!("missing version"),
        ),
        // Lines that are not JSON are worded by the parser, with a null id.
        (
            r#"{"id":7,"method":"emit""#.to_string(),
            r#"{"jsonrpc":"2.0","id":null,"error":{"code":-32700,"message":"truncated JSON input"}}"#,
        ),
        (
            r#"{"id":7,"method":"emit"} x"#.to_string(),
            r#"{"jsonrpc":"2.0","id":null,"error":{"code":-32700,"message":"trailing garbage at offset 25"}}"#,
        ),
        (
            r#"{"id":07,"method":"emit"}"#.to_string(),
            r#"{"jsonrpc":"2.0","id":null,"error":{"code":-32700,"message":"bad number at offset 6"}}"#,
        ),
    ];
    check(&cases);
}

/// The error of [`Response::decode_line`] on `line`.
fn reply_line_error(line: &str) -> String {
    Response::decode_line(line.as_bytes()).unwrap_err()
}

#[test]
fn reply_envelope_errors_are_worded() {
    let cases = [
        (
            r#"{"jsonrpc":"2.0","id":1,"error":{"message":"x"}}"#,
            "error without integer code",
        ),
        (
            r#"{"jsonrpc":"2.0","id":1,"error":{"code":"5","message":"x"}}"#,
            "error without integer code",
        ),
        (
            r#"{"jsonrpc":"2.0","id":1,"error":{"code":1.5}}"#,
            "error without integer code",
        ),
        (
            r#"{"jsonrpc":"2.0","id":1,"error":5}"#,
            "error without integer code",
        ),
        (
            r#"{"jsonrpc":"2.0","id":1,"error":null,"result":{}}"#,
            "error without integer code",
        ),
        (
            r#"{"jsonrpc":"2.0","id":1,"error":{"code":9223372036854775808}}"#,
            "error code 9223372036854775808 out of range",
        ),
        (
            r#"{"jsonrpc":"2.0","id":1,"error":{"code":-9223372036854775809}}"#,
            "error code -9223372036854775809 out of range",
        ),
        (
            r#"{"jsonrpc":"2.0","id":1}"#,
            "response with neither result nor error",
        ),
        (r#"[]"#, "response with neither result nor error"),
        (
            r#"{"jsonrpc":"2.0","id":"1","result":{}}"#,
            "non-integer response id",
        ),
        (
            r#"{"jsonrpc":"2.0","id":-1,"result":{}}"#,
            "non-integer response id",
        ),
        (
            r#"{"jsonrpc":"2.0","id":1,"result":{}"#,
            "truncated JSON input",
        ),
    ];
    let wrong: Vec<String> = cases
        .iter()
        .filter_map(|&(line, want)| {
            let got = reply_line_error(line);
            (got != want).then(|| format!("{line}\n  want {want}\n   got {got}"))
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "{} wrong errors:\n{}",
        wrong.len(),
        wrong.join("\n")
    );

    // An error wins over a result, and a message that is not a string
    // reads as empty.
    for line in [
        r#"{"result":{},"error":{"code":-5,"message":7},"id":1}"#,
        r#"{"error":{"message":[1],"code":-5},"result":{},"id":1}"#,
    ] {
        let reply = Response::decode_line(line.as_bytes()).unwrap();
        assert_eq!(
            reply.encode(),
            r#"{"jsonrpc":"2.0","id":1,"error":{"code":-5,"message":""}}"#
        );
    }
}

/// `text` parsed, with `edit` applied to the members of the object that
/// holds the last step of `path` (a numeric step indexes an array).
fn edited(text: &str, path: &[&str], edit: impl FnOnce(&mut Vec<(String, Json)>, &str)) -> Json {
    let mut v = parse(text.as_bytes()).unwrap();
    let (last, steps) = path.split_last().unwrap();
    let mut at = &mut v;
    for step in steps {
        at = match at {
            Json::Obj(members) => &mut members.iter_mut().find(|(k, _)| k == step).unwrap().1,
            Json::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
            _ => panic!("no {step} in {path:?}"),
        };
    }
    let Json::Obj(members) = at else {
        panic!("no object at {path:?}")
    };
    edit(members, last);
    v
}

/// `text` parsed, with the member at `path` removed.
fn without(text: &str, path: &[&str]) -> Json {
    edited(text, path, |members, last| {
        let before = members.len();
        members.retain(|(k, _)| k != last);
        assert_eq!(members.len() + 1, before, "no {last} in {path:?}");
    })
}

/// `text` parsed, with the member at `path` set to `value`.
fn with(text: &str, path: &[&str], value: &str) -> Json {
    edited(text, path, |members, last| {
        members.retain(|(k, _)| k != last);
        members.push((last.to_string(), parse(value.as_bytes()).unwrap()));
    })
}

/// `text` parsed, with its top-level member `name` spelled twice: as
/// `first`, then as `then`.
fn repeated(text: &str, name: &str, first: &str, then: &str) -> Json {
    let mut v = with(text, &[name], first);
    let Json::Obj(members) = &mut v else {
        unreachable!("with gives an object")
    };
    members.push((name.to_string(), parse(then.as_bytes()).unwrap()));
    v
}

const EMIT: &str = concat!(
    r#"{"binary":"0102","stats":{"b1":1,"b2":0,"t1":0,"t2":0,"t3":0,"b0":0,"failed":0},"#,
    r#""size":{"input_bytes":1,"output_bytes":2,"virtual_blocks":1,"physical_blocks":1,"mappings":1,"granularity":1},"#,
    r#""loader_addr":4096,"trap_count":0,"#,
    r#""reports":[{"addr":4198400,"insn_len":2,"tactic":"B1","trampoline":8192}],"#,
    r#""mappings":[{"vaddr":8192,"file_off":4096,"len":4096}],"cache":"miss","digest":null}"#
);

#[test]
fn emit_reply_errors_are_worded() {
    assert!(EmitReply::from_json(&parse(EMIT.as_bytes()).unwrap()).is_ok());
    // A repeated member is read at its first occurrence, by both readers.
    let v = repeated(EMIT, "loader_addr", "4096", r#""x""#);
    let line = Response::ok(7, v.clone()).encode();
    let body = EmitReply::decode_line(line.as_bytes()).unwrap().body;
    assert_eq!(body.unwrap().unwrap().loader_addr, 4096);
    assert_eq!(EmitReply::from_json(&v).unwrap().loader_addr, 4096);
    let mut cases: Vec<(Json, String)> = Vec::new();
    for (path, want) in [
        (&["binary"][..], "emit reply: missing binary"),
        (&["stats"], "emit reply: missing stats"),
        (&["size"], "emit reply: missing size"),
        (&["loader_addr"], "emit reply: missing loader_addr"),
        (&["trap_count"], "emit reply: missing trap_count"),
        (&["reports"], "emit reply: missing reports"),
        (&["mappings"], "emit reply: missing mappings"),
        (&["reports", "0", "addr"], "emit reply: missing addr"),
        (
            &["reports", "0", "insn_len"],
            "emit reply: missing insn_len",
        ),
        (&["mappings", "0", "vaddr"], "emit reply: missing vaddr"),
        (
            &["mappings", "0", "file_off"],
            "emit reply: missing file_off",
        ),
        (&["mappings", "0", "len"], "emit reply: missing len"),
    ] {
        cases.push((without(EMIT, path), want.to_string()));
    }
    for field in ["b1", "b2", "t1", "t2", "t3", "b0", "failed"] {
        cases.push((
            without(EMIT, &["stats", field]),
            format!("emit reply: missing {field}"),
        ));
    }
    for field in [
        "input_bytes",
        "output_bytes",
        "virtual_blocks",
        "physical_blocks",
        "mappings",
        "granularity",
    ] {
        cases.push((
            without(EMIT, &["size", field]),
            format!("emit reply: missing {field}"),
        ));
    }
    for (path, value, want) in [
        (&["binary"][..], "\"012\"", "odd hex length 3"),
        (&["binary"], "12", "emit reply: missing binary"),
        (&["stats"], "[]", "emit reply: missing b1"),
        (&["reports"], "{}", "emit reply: missing reports"),
        (&["reports", "0", "tactic"], "\"B9\"", "bad tactic \"B9\""),
        (&["reports", "0", "tactic"], "9", "bad tactic field"),
        (
            &["reports", "0", "trampoline"],
            "\"x\"",
            "bad trampoline field",
        ),
        (
            &["reports", "0", "insn_len"],
            "256",
            "emit reply: insn_len 256 out of range",
        ),
        (&["cache"], "\"warm\"", "bad cache disposition \"warm\""),
        (&["cache"], "1", "bad cache field"),
        (&["digest"], "1", "bad digest field"),
        // Fields are checked in order: a bad tactic before a missing addr.
        (&["reports"], r#"[{"tactic":1}]"#, "bad tactic field"),
        (
            &["reports"],
            r#"[{"trampoline":"x"}]"#,
            "bad trampoline field",
        ),
        // An element that is not an object has no members; a value that
        // is not an array has no elements.
        (&["reports"], "[1]", "emit reply: missing addr"),
        (&["mappings"], r#"["x"]"#, "emit reply: missing vaddr"),
        (&["mappings"], "{}", "emit reply: missing mappings"),
    ] {
        cases.push((with(EMIT, path, value), want.to_string()));
    }
    // A repeated member is read at its first occurrence.
    cases.push((
        repeated(EMIT, "loader_addr", r#""x""#, "4096"),
        "emit reply: missing loader_addr".to_string(),
    ));
    let wrong: Vec<String> = cases
        .iter()
        .filter_map(|(v, want)| {
            let got = EmitReply::from_json(v).unwrap_err();
            let line = Response::ok(7, v.clone()).encode();
            let got_line = match EmitReply::decode_line(line.as_bytes()) {
                Ok(TypedResponse {
                    id: Some(7),
                    body: Ok(Err(e)),
                }) => e,
                other => format!("{other:?}"),
            };
            (got != *want || got_line != *want).then(|| {
                format!(
                    "{}\n  want {want}\n   got {got}\n  line {got_line}",
                    v.serialize()
                )
            })
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "{} wrong errors:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
}

/// The typed reply in the `result` `v`, as `from_json` reads it from the
/// tree; the one-pass reader must read the same from the reply line.
fn read_both<T: TypedReply + PartialEq + std::fmt::Debug>(
    v: &Json,
    from_json: fn(&Json) -> Result<T, String>,
) -> Result<T, String> {
    let via_tree = from_json(v);
    let line = Response::ok(7, v.clone()).encode();
    match T::decode_line(line.as_bytes()) {
        Ok(TypedResponse {
            id: Some(7),
            body: Ok(one_pass),
        }) => assert_eq!(one_pass, via_tree, "the readers disagree on {line}"),
        other => panic!("{line}: {other:?}"),
    }
    via_tree
}

fn hook_reply(v: &Json) -> Result<HookReply, String> {
    read_both(v, HookReply::from_json)
}

fn cache_stats_reply(v: &Json) -> Result<CacheStatsReply, String> {
    read_both(v, CacheStatsReply::from_json)
}

fn health_reply(v: &Json) -> Result<HealthReply, String> {
    read_both(v, HealthReply::from_json)
}

/// The text a typed reply's writer writes.
fn written(write: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut out = Vec::new();
    write(&mut out);
    String::from_utf8(out).unwrap()
}

const HOOK: &str = concat!(
    r#"{"hooks":[{"id":0,"flags":1,"func_addr":4198400,"payload_addr":8192,"thunk_addr":8256,"#,
    r#""counter_addr":12288,"name":"f"}],"counters_addr":12288,"manifest_addr":16384}"#
);

#[test]
fn hook_reply_errors_are_worded() {
    assert!(hook_reply(&parse(HOOK.as_bytes()).unwrap()).is_ok());
    let mut cases: Vec<(Json, String)> = Vec::new();
    for field in ["hooks", "manifest_addr"] {
        cases.push((
            without(HOOK, &[field]),
            format!("hook reply: missing {field}"),
        ));
    }
    for field in [
        "id",
        "flags",
        "func_addr",
        "payload_addr",
        "thunk_addr",
        "counter_addr",
        "name",
    ] {
        cases.push((
            without(HOOK, &["hooks", "0", field]),
            format!("hook reply: missing {field}"),
        ));
    }
    for (path, value, want) in [
        (
            &["hooks", "0", "id"][..],
            "4294967296",
            "hook reply: id 4294967296 out of range",
        ),
        (
            &["hooks", "0", "flags"],
            "4294967296",
            "hook reply: flags 4294967296 out of range",
        ),
        (&["hooks", "0", "name"], "1", "hook reply: missing name"),
        (&["counters_addr"], "\"x\"", "hook reply: bad counters_addr"),
        (&["hooks"], "{}", "hook reply: missing hooks"),
        (&["hooks"], "[null]", "hook reply: missing id"),
    ] {
        cases.push((with(HOOK, path, value), want.to_string()));
    }
    cases.push((
        repeated(HOOK, "manifest_addr", r#""x""#, "16384"),
        "hook reply: missing manifest_addr".to_string(),
    ));
    let wrong: Vec<String> = cases
        .iter()
        .filter_map(|(v, want)| {
            let got = hook_reply(v).unwrap_err();
            (got != *want).then(|| format!("{}\n  want {want}\n   got {got}", v.serialize()))
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "{} wrong errors:\n{}",
        wrong.len(),
        wrong.join("\n")
    );
    // A repeated member is read at its first occurrence.
    let first = hook_reply(&repeated(HOOK, "manifest_addr", "16384", r#""x""#));
    assert_eq!(first.unwrap().manifest_addr, 16384);
    // An absent or null counters_addr reads as none.
    for v in [
        without(HOOK, &["counters_addr"]),
        with(HOOK, &["counters_addr"], "null"),
    ] {
        assert_eq!(hook_reply(&v).unwrap().counters_addr, None);
    }
}

#[test]
fn cache_stats_and_health_reply_errors_are_worded() {
    let stats = written(|out| CacheStatsReply::default().write_json(out));
    let required = [
        "enabled",
        "disk",
        "hits",
        "mem_hits",
        "disk_hits",
        "negative_hits",
        "misses",
        "stores",
        "mem_evictions",
        "disk_evictions",
        "verify_failures",
        "errors",
        "mem_entries",
        "mem_bytes",
    ];
    for field in required {
        let got = cache_stats_reply(&without(&stats, &[field])).unwrap_err();
        assert_eq!(got, format!("cache stats: missing {field}"));
    }
    assert_eq!(
        cache_stats_reply(&with(&stats, &["disk"], "0")).unwrap_err(),
        "cache stats: missing disk"
    );
    // The later fields are optional: absent or mistyped reads as zero.
    for field in [
        "bypasses",
        "bypass_threshold",
        "disk_breaker_open",
        "disk_breaker_trips",
        "disk_breaker_fast_fails",
        "disk_breaker_probes",
        "disk_breaker_recoveries",
    ] {
        assert_eq!(
            cache_stats_reply(&without(&stats, &[field])),
            Ok(CacheStatsReply::default())
        );
        assert_eq!(
            cache_stats_reply(&with(&stats, &[field], "\"x\"")),
            Ok(CacheStatsReply::default())
        );
    }

    let health = written(|out| HealthReply::default().write_json(out));
    assert_eq!(
        health_reply(&without(&health, &["cache", "hits"])).unwrap_err(),
        "cache stats: missing hits"
    );
    assert_eq!(
        health_reply(&with(&health, &["cache"], "1")).unwrap_err(),
        "cache stats: missing enabled"
    );
    // Every other section is optional.
    let bare = health_reply(&parse(b"{}").unwrap()).unwrap();
    assert_eq!(
        bare,
        HealthReply {
            serving_mode: "unknown".into(),
            ..HealthReply::default()
        }
    );
    let mistyped = with(
        &with(&health, &["shed"], "[1]").serialize(),
        &["serving_mode"],
        "5",
    );
    let mistyped = health_reply(&mistyped).unwrap();
    assert_eq!(
        (mistyped.serving_mode.as_str(), mistyped.shed_busy),
        ("unknown", 0)
    );
}
