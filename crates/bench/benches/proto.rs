//! Protocol overhead: raw message throughput through the server loop, the
//! wire codec's cost per `instruction` line, and end-to-end patch
//! throughput over the wire versus the in-process path.
//!
//! The paper's frontend/backend split sends one JSON request line per
//! command. The client streams a job's lines through a bounded in-flight
//! window (`e9proto::client::WINDOW_BYTES`), one write per window, so
//! what each command still costs is the codec: encode the request,
//! decode it, encode the reply, read the reply. `instruction_stream`
//! times that layer alone, with no socket, over the most frequent line;
//! `emit_reply` times the largest line, one `emit` result written by the
//! server and read by the client; the other rows bound the whole
//! `--backend` path against calling the `Rewriter` directly.

use e9bench::harness::{Harness, Throughput};
use e9front::{instrument_via_backend, instrument_with_disasm, Application, Options, Payload};
use e9proto::msg::{Command, EmitReply, Request, Response, TypedReply};
use e9proto::server::{reply_line, serve_connection};
use e9proto::{ProtoClient, Session};
use e9synth::{generate, spec_profiles, Profile};
use std::hint::black_box;
use std::io::Cursor;

fn main() {
    let mut h = Harness::from_args("proto");

    // 1. Messages per second through parse → dispatch → serialize. One
    // version handshake plus a batch of cheap stateless-ish commands.
    const MSGS: u64 = 1000;
    let mut input = String::new();
    input.push_str(
        &Request {
            id: 1,
            cmd: Command::Version { version: 1 },
        }
        .encode(),
    );
    input.push('\n');
    for id in 2..=MSGS {
        input.push_str(
            &Request {
                id,
                cmd: Command::Option {
                    name: "b0".into(),
                    value: "false".into(),
                },
            }
            .encode(),
        );
        input.push('\n');
    }
    let input = input.into_bytes();
    h.throughput(Throughput::Elements(MSGS));
    h.bench(&format!("messages/{MSGS}"), || {
        let mut reader = Cursor::new(black_box(&input[..]));
        let mut out: Vec<u8> = Vec::with_capacity(input.len());
        serve_connection(&mut reader, &mut out).unwrap();
        out
    });

    // 2. The codec per `instruction` line, as a backend session sees a
    // job's disassembly: encode each request, decode and execute it and
    // write its reply (`reply_line`), and read the reply back. No socket.
    let gcc = spec_profiles(50)
        .into_iter()
        .find(|p| p.name == "gcc")
        .map(|p| generate(&p))
        .expect("gcc row");
    let head = [
        Command::Version { version: 1 },
        Command::Binary {
            bytes: gcc.binary.clone(),
            digest: None,
        },
    ]
    .map(|cmd| Request { id: 0, cmd }.encode());
    let insns = gcc.disasm.len() as u64;
    h.throughput(Throughput::Elements(insns));
    h.bench(&format!("instruction_stream/{insns}"), || {
        let mut session = Session::new();
        let (mut request, mut reply) = (Vec::new(), Vec::new());
        for line in &head {
            reply_line(&mut session, line.as_bytes(), &mut reply);
        }
        for (id, i) in gcc.disasm.iter().enumerate() {
            request.clear();
            Request {
                id: id as u64,
                cmd: Command::Instruction {
                    addr: i.addr,
                    bytes: i.bytes().to_vec(),
                },
            }
            .encode_into(&mut request);
            reply.clear();
            reply_line(&mut session, &request, &mut reply);
            let read = Response::decode_line(reply.trim_ascii_end()).expect("a reply line");
            assert!(read.body.is_ok(), "{read:?}");
        }
        session
    });

    // 2b. The `emit` reply codec on the same row: the A1/empty result,
    // written into a reply line as the server writes it (no tree) and
    // read back into an `EmitReply` in one pass as the client reads it.
    // The rewrite runs once, outside the timing.
    let a1 = Options::new(Application::A1Jumps, Payload::Empty);
    let emit = EmitReply::from(
        instrument_with_disasm(&gcc.binary, &gcc.disasm, &a1)
            .expect("gcc A1/empty rewrites")
            .rewrite,
    );
    let mut line = Vec::new();
    h.throughput(Throughput::Elements(emit.reports.len() as u64));
    h.bench(&format!("emit_reply/{}", emit.reports.len()), || {
        line.clear();
        Response::write_ok(&mut line, 1, |out| emit.write_json(out));
        let read = EmitReply::decode_line(black_box(&line)).expect("a reply line");
        read.body.expect("a result").expect("an emit result")
    });

    // 3. End-to-end instrumentation of the same workload, in-process vs
    // through the full wire protocol (loopback socket pair: every byte
    // crosses the serializer, parser and session state machine).
    let prog = generate(&Profile::tiny("bench-proto", false));
    let sites = prog.disasm.iter().filter(|i| i.kind.is_jump()).count() as u64;
    let opts = Options::new(Application::A1Jumps, Payload::Empty);

    h.throughput(Throughput::Elements(sites));
    h.bench(&format!("patch_in_process/{sites}"), || {
        instrument_with_disasm(black_box(&prog.binary), &prog.disasm, &opts).unwrap()
    });

    h.throughput(Throughput::Elements(sites));
    h.bench(&format!("patch_backend/{sites}"), || {
        let mut client = ProtoClient::in_process().unwrap();
        instrument_via_backend(black_box(&prog.binary), &prog.disasm, &opts, &mut client).unwrap()
    });

    h.finish();
}
