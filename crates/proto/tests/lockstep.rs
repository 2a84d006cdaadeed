//! Lockstep liveness: 1,000 single `call`s, each waiting for its reply
//! before the next request goes out, against both serving loops. Both
//! loops batch replies per read; a reply held back while the server waits
//! for more input would hang the client here, so every run is bounded by
//! a timeout.

#![cfg(unix)]

use e9proto::msg::Command;
use e9proto::reactor::{serve_reactor, Listener};
use e9proto::server::ServeConfig;
use e9proto::ProtoClient;
use std::sync::mpsc;
use std::time::Duration;

/// Long enough for a debug build on a loaded host; a held reply never
/// arrives at all.
const DEADLINE: Duration = Duration::from_secs(120);

/// Run one request/reply session of exactly 1,000 calls: `version`,
/// `binary`, 996 `instruction`s, one `patch` and `emit`. Returns the
/// number of sites the emit patched.
fn thousand_calls(client: &mut ProtoClient) -> usize {
    let mut code = Vec::new();
    while code.len() < 996 * 7 / 2 {
        code.extend_from_slice(&[0x48, 0x89, 0x03, 0x48, 0x83, 0xC0, 0x20]);
    }
    code.push(0xC3);
    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code.clone(), 0x401000);
    b.entry(0x401000);
    let disasm = e9x86::decode::linear_sweep(&code, 0x401000);
    assert!(disasm.len() >= 996);

    client.negotiate().unwrap();
    client
        .call(Command::Binary {
            bytes: b.build(),
            digest: None,
        })
        .unwrap();
    for insn in &disasm[..996] {
        client
            .call(Command::Instruction {
                addr: insn.addr,
                bytes: insn.bytes().to_vec(),
            })
            .unwrap();
    }
    client
        .call(Command::Patch {
            addr: 0x401000,
            template: e9patch::Template::Empty,
        })
        .unwrap();
    client.emit().unwrap().stats.succeeded()
}

/// Run `session` on its own thread; fail if it does not finish in time.
fn within_deadline(session: impl FnOnce() -> usize + Send + 'static) -> usize {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(session());
    });
    rx.recv_timeout(DEADLINE)
        .expect("lockstep session stalled: a reply was held back")
}

#[test]
fn lockstep_calls_complete_on_the_in_process_loop() {
    let patched = within_deadline(|| {
        let mut client = ProtoClient::in_process().unwrap();
        thousand_calls(&mut client)
    });
    assert_eq!(patched, 1);
}

#[test]
fn lockstep_calls_complete_on_the_reactor() {
    let sock = std::env::temp_dir().join(format!("e9-lockstep-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let listener = std::os::unix::net::UnixListener::bind(&sock).unwrap();
    let mut config = ServeConfig {
        serving_mode: "reactor",
        ..ServeConfig::default()
    };
    config.transport.accept_budget = Some(1);
    let server = std::thread::spawn(move || serve_reactor(vec![Listener::Unix(listener)], &config));
    let path = sock.clone();
    let patched = within_deadline(move || {
        let mut client = ProtoClient::connect_unix(&path).unwrap();
        thousand_calls(&mut client)
    });
    assert_eq!(patched, 1);
    // The accept budget is spent: the loop drains once the client is gone.
    let summary = server.join().unwrap().unwrap();
    assert_eq!(summary.dispatched, 1_000);
    let _ = std::fs::remove_file(&sock);
}
