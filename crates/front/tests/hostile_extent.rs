//! Load extents that reach the top of the address space or past the end
//! of the file. A segment placed at the top (`vaddr-wrap.bin` from the
//! hostile-ELF corpus) or a last `PT_LOAD` whose memsz is stretched to
//! `u64::MAX` used to wrap the runtime placement and the planner's
//! address-space rounding: a debug build panicked and a release build
//! wrote an output. Such images, and a `PT_LOAD` whose file range lies
//! past EOF (`offset-oob.bin`), now fail `Elf::parse`. Images that parse
//! but whose segments end at or near the top of the address space must
//! still be refused with a typed error by the runtime placement, the
//! planner and the hook layer, in-process and over a loopback daemon
//! session. Code whose addresses wrap past 2^64 (`text-wrap.bin`, a
//! `.text` placed 9 bytes below the top) used to panic a debug build's
//! linear sweep; the frontends must refuse it before sweeping.

use e9elf::types::{PF_X, PHDR_SIZE, PT_LOAD, SHDR_SIZE, SHF_EXECINSTR};
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

/// The `n`-byte little-endian field at `off`.
fn read(b: &[u8], off: usize, n: usize) -> u64 {
    b[off..off + n]
        .iter()
        .rev()
        .fold(0u64, |v, &x| v << 8 | u64::from(x))
}

/// The highest end a page-rounded memory range can have without wrapping.
const TOP: u64 = 0xFFFF_FFFF_FFFF_F000;

/// Offsets of the synth binary's `PT_LOAD` headers, in table order.
fn load_headers(b: &[u8]) -> Vec<usize> {
    let phoff = read(b, 32, 8) as usize;
    (0..read(b, 56, 2) as usize)
        .map(|i| phoff + i * PHDR_SIZE)
        .filter(|&off| read(b, off, 4) == u64::from(PT_LOAD))
        .collect()
}

/// A well-formed synth binary whose first `PT_LOAD` (the header page)
/// sits on the last page below [`TOP`].
fn header_at_top() -> Vec<u8> {
    let mut b = tiny();
    let first = load_headers(&b)[0];
    b[first + 16..first + 24].copy_from_slice(&(TOP - 0x1000).to_le_bytes());
    b
}

/// A well-formed synth binary whose last `PT_LOAD` claims memory up to
/// [`TOP`].
fn stretched_memsz() -> Vec<u8> {
    let mut b = tiny();
    let last = *load_headers(&b).last().expect("a PT_LOAD");
    let memsz = TOP - read(&b, last + 16, 8);
    b[last + 40..last + 48].copy_from_slice(&memsz.to_le_bytes());
    b
}

fn inputs() -> [(&'static str, Vec<u8>); 2] {
    [
        ("header-at-top", header_at_top()),
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

// `offset-oob.bin` has a `PT_LOAD` whose file range lies past EOF, so it
// fails `Elf::parse`: the frontend refuses it before any site is chosen,
// and a daemon session refuses it at the `binary` command.

#[test]
fn segment_past_eof_is_a_typed_error_in_process() {
    match e9front::disassemble_text(&corpus("offset-oob.bin")) {
        Err(FrontError::Input(m)) => assert!(m.contains("past the end of the input"), "{m}"),
        other => panic!("{other:?}"),
    }
}

#[test]
fn segment_past_eof_is_a_typed_error_over_a_daemon_session() {
    let mut session = e9proto::ProtoClient::in_process().expect("loopback daemon");
    session.negotiate().unwrap();
    match session.call(e9proto::Command::Binary {
        bytes: corpus("offset-oob.bin"),
        digest: None,
    }) {
        Err(e9proto::ClientError::Rpc(e)) => {
            assert!(e.message.contains("past the end of the input"), "{e}")
        }
        other => panic!("{other:?}"),
    }
}

// Code whose addresses wrap past 2^64: the frontends refuse it before
// sweeping, so no address is ever computed past the top.

/// `bin` with the section header of its `.text` moved to `vaddr`; the load
/// segments are untouched.
fn text_moved(mut b: Vec<u8>, vaddr: u64) -> Vec<u8> {
    let addr = e9elf::Elf::parse(&b)
        .unwrap()
        .section(".text")
        .unwrap()
        .sh_addr;
    let shoff = read(&b, 40, 8) as usize;
    let hdr = (0..read(&b, 60, 2) as usize)
        .map(|i| shoff + i * SHDR_SIZE)
        .find(|&off| read(&b, off + 16, 8) == addr && read(&b, off + 8, 8) & SHF_EXECINSTR != 0)
        .expect(".text section header");
    b[hdr + 16..hdr + 24].copy_from_slice(&vaddr.to_le_bytes());
    b
}

#[test]
fn text_wrapping_past_the_address_space_is_refused() {
    for (name, bin) in [
        ("text-wrap", corpus("text-wrap.bin")),
        ("tiny", text_moved(tiny(), u64::MAX - 8)),
    ] {
        match e9front::disassemble_text(&bin) {
            Err(FrontError::Input(m)) => {
                assert!(
                    m.contains("past the end of the address space"),
                    "{name}: {m}"
                )
            }
            other => panic!("{name}: {other:?}"),
        }
    }
    // A `.text` whose last byte sits at `u64::MAX` does not wrap: it
    // sweeps, and no instruction ends past the top.
    let bin = tiny();
    let size = e9elf::Elf::parse(&bin)
        .unwrap()
        .section(".text")
        .unwrap()
        .sh_size;
    let disasm = e9front::disassemble_text(&text_moved(bin, u64::MAX - (size - 1))).unwrap();
    assert!(!disasm.is_empty());
    assert!(disasm
        .iter()
        .all(|i| i.addr.checked_add(i.len() as u64).is_some()));
}

#[test]
fn exec_segment_wrapping_past_the_address_space_is_refused() {
    let mut b = tiny();
    let phoff = read(&b, 32, 8) as usize;
    let exec = (0..read(&b, 56, 2) as usize)
        .map(|i| phoff + i * PHDR_SIZE)
        .find(|&off| {
            read(&b, off, 4) == u64::from(PT_LOAD) && read(&b, off + 4, 4) & u64::from(PF_X) != 0
        })
        .expect("an executable PT_LOAD");
    b[exec + 16..exec + 24].copy_from_slice(&(u64::MAX - 8).to_le_bytes());
    match e9front::disassemble_exec_segments(&b) {
        Err(FrontError::Input(m)) => {
            assert!(m.contains("past the end of the address space"), "{m}")
        }
        other => panic!("{other:?}"),
    }
}
