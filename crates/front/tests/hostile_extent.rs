//! Load extents that reach the top of the address space or past the end
//! of the file. A segment placed at the top (`vaddr-wrap.bin` from the
//! hostile-ELF corpus) or a last `PT_LOAD` whose memsz is stretched to
//! `u64::MAX` used to wrap the runtime placement and the planner's
//! address-space rounding: a debug build panicked and a release build
//! wrote an output. A `PT_LOAD` whose file range lies past EOF
//! (`offset-oob.bin`) was rewritten into an output no loader accepts.
//! Every driver must refuse all of them with a typed error, in-process
//! and over a loopback daemon session.

use e9elf::types::{PHDR_SIZE, PT_LOAD};
use e9front::{Application, Exec, FrontError, Options, Payload};
use e9hook::{HookError, HookSpec};
use e9patch::RewriteConfig;

/// A checked-in hostile-ELF corpus entry.
fn corpus(name: &str) -> Vec<u8> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../faultgen/tests/corpus")
        .join(name);
    std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn tiny() -> Vec<u8> {
    e9synth::generate(&e9synth::Profile::tiny("hostile-extent", false)).binary
}

/// A well-formed synth binary whose last `PT_LOAD` claims `u64::MAX`
/// bytes of memory.
fn stretched_memsz() -> Vec<u8> {
    let mut b = tiny();
    let read = |b: &[u8], off: usize, n: usize| {
        b[off..off + n]
            .iter()
            .rev()
            .fold(0u64, |v, &x| v << 8 | u64::from(x))
    };
    let phoff = read(&b, 32, 8) as usize;
    let phnum = read(&b, 56, 2) as usize;
    let last = (0..phnum)
        .map(|i| phoff + i * PHDR_SIZE)
        .rfind(|&off| read(&b, off, 4) == u64::from(PT_LOAD))
        .expect("a PT_LOAD");
    b[last + 40..last + 48].copy_from_slice(&u64::MAX.to_le_bytes());
    b
}

fn inputs() -> [(&'static str, Vec<u8>); 2] {
    [
        ("vaddr-wrap", corpus("vaddr-wrap.bin")),
        ("stretched-memsz", stretched_memsz()),
    ]
}

fn instrument(bin: &[u8], payload: Payload, exec: Exec) -> Result<(), FrontError> {
    let disasm = e9front::disassemble_text(bin).expect("a .text section");
    let opts = Options::new(Application::A1Jumps, payload);
    e9front::instrument_on(bin, &disasm, &opts, exec).map(drop)
}

fn hook(bin: &[u8], exec: Exec) -> Result<(), FrontError> {
    let disasm = e9front::disassemble_text(bin).expect("a .text section");
    let spec = HookSpec {
        addrs: vec![disasm[0].addr],
        ..HookSpec::counters(&[])
    };
    e9front::hook_on(bin, &disasm, &spec, RewriteConfig::default(), exec).map(drop)
}

#[test]
fn in_process_drivers_refuse_with_typed_errors() {
    for (name, bin) in inputs() {
        // The runtime placement refuses the counter payload...
        match instrument(&bin, Payload::Counter, Exec::Local) {
            Err(FrontError::Input(m)) => assert!(m.contains("address space"), "{name}: {m}"),
            other => panic!("{name} counter: {other:?}"),
        }
        // ...and the planner refuses the image itself.
        match instrument(&bin, Payload::Empty, Exec::Local) {
            Err(FrontError::Rewrite(e9patch::Error::BeyondAddressSpace(_))) => {}
            other => panic!("{name} empty: {other:?}"),
        }
        match hook(&bin, Exec::Local) {
            Err(FrontError::Hook(HookError::Input(_))) => {}
            other => panic!("{name} hook: {other:?}"),
        }
    }
}

#[test]
fn daemon_sessions_refuse_with_typed_errors() {
    // One loopback session per job: a session negotiates one job.
    let session = || e9proto::ProtoClient::in_process().expect("loopback daemon");
    for (name, bin) in inputs() {
        match instrument(&bin, Payload::Empty, Exec::Backend(&mut session())) {
            Err(FrontError::Backend(m)) => {
                assert!(m.contains("past the usable address space"), "{name}: {m}")
            }
            other => panic!("{name} empty: {other:?}"),
        }
        match instrument(&bin, Payload::Counter, Exec::Backend(&mut session())) {
            Err(FrontError::Input(_)) => {}
            other => panic!("{name} counter: {other:?}"),
        }
        match hook(&bin, Exec::Backend(&mut session())) {
            Err(FrontError::Backend(m)) => assert!(m.contains("address space"), "{name}: {m}"),
            other => panic!("{name} hook: {other:?}"),
        }
    }
}

// `offset-oob.bin` has a `PT_LOAD` whose file range lies past EOF. It
// parses, and its runtime segments fit, so the planner is what must
// refuse it.

#[test]
fn segment_past_eof_is_a_typed_error_in_process() {
    let bin = corpus("offset-oob.bin");
    for payload in [Payload::Counter, Payload::Empty] {
        match instrument(&bin, payload, Exec::Local) {
            Err(FrontError::Rewrite(e9patch::Error::SegmentBeyondFile(_))) => {}
            other => panic!("{payload:?}: {other:?}"),
        }
    }
    match hook(&bin, Exec::Local) {
        Err(FrontError::Rewrite(e9patch::Error::SegmentBeyondFile(_))) => {}
        other => panic!("hook: {other:?}"),
    }
}

#[test]
fn segment_past_eof_is_a_typed_error_over_a_daemon_session() {
    let session = || e9proto::ProtoClient::in_process().expect("loopback daemon");
    let bin = corpus("offset-oob.bin");
    for payload in [Payload::Counter, Payload::Empty] {
        match instrument(&bin, payload, Exec::Backend(&mut session())) {
            Err(FrontError::Backend(m)) => assert!(m.contains("past the end of the input"), "{m}"),
            other => panic!("{payload:?}: {other:?}"),
        }
    }
    match hook(&bin, Exec::Backend(&mut session())) {
        Err(FrontError::Backend(m)) => assert!(m.contains("past the end of the input"), "{m}"),
        other => panic!("hook: {other:?}"),
    }
}
