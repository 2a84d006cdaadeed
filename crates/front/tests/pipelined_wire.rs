//! The windowed protocol client over blocking byte streams. One job on
//! gcc at scale 50 (16k instructions; every instruction is a patch site)
//! sends a binary larger than the in-flight window and gets instruction
//! and patch replies that overflow a 64 KiB pipe buffer many times over.
//! It must finish over `e9patchd --stdio` (blocking pipes both ways) and
//! over the in-process loopback without deadlock, and both outputs must
//! equal the local rewrite byte for byte.

use e9front::{Application, Exec, Options, Payload};
use e9proto::{ClientError, ProtoClient};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// A deadlocked window hangs instead of failing; bound every job.
const JOB_TIMEOUT: Duration = Duration::from_secs(120);

/// The `e9patchd` binary built next to `e9tool` (see `cli.rs`).
fn e9patchd() -> std::path::PathBuf {
    let path = std::path::Path::new(env!("CARGO_BIN_EXE_e9tool")).with_file_name("e9patchd");
    assert!(
        path.exists(),
        "{} not built; run `cargo build -p e9proto --bin e9patchd` first",
        path.display()
    );
    path
}

type Connect = Box<dyn FnOnce() -> Result<ProtoClient, ClientError> + Send>;

/// Instrument gcc at scale 50 on the client `connect` makes, or locally
/// when it is `None`, in a thread bounded by [`JOB_TIMEOUT`]; returns the
/// patched binary.
fn patched(what: &str, connect: Option<Connect>) -> Vec<u8> {
    let (tx, rx) = mpsc::channel();
    let job = std::thread::spawn(move || {
        let profile = e9synth::all_profiles(50)
            .into_iter()
            .find(|p| p.name == "gcc")
            .expect("gcc profile");
        let sb = e9synth::generate(&profile);
        let opts = Options::new(Application::AllInstructions, Payload::CounterPerSite);
        let out = match connect {
            None => e9front::instrument_on(&sb.binary, &sb.disasm, &opts, Exec::Local),
            Some(connect) => {
                let mut client = connect().expect("connect");
                e9front::instrument_on(&sb.binary, &sb.disasm, &opts, Exec::Backend(&mut client))
            }
        };
        let _ = tx.send((sb.disasm.len(), out.expect("job").rewrite.binary));
    });
    // A deadlocked job thread cannot be joined; the timeout fails the
    // test instead.
    match rx.recv_timeout(JOB_TIMEOUT) {
        Ok((insns, binary)) => {
            job.join().expect("job thread");
            assert!(insns > 16_000, "{what}: only {insns} instructions");
            binary
        }
        Err(RecvTimeoutError::Timeout) => panic!("{what}: job did not finish in {JOB_TIMEOUT:?}"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(job.join().expect_err("job thread dropped its sender"))
        }
    }
}

#[test]
fn large_job_over_stdio_and_loopback_matches_local_bytes() {
    let local = patched("local", None);
    let daemon = e9patchd();
    let stdio = patched("stdio", Some(Box::new(move || ProtoClient::spawn(&daemon))));
    assert!(stdio == local, "stdio backend output differs from local");
    let loopback = patched("in-process", Some(Box::new(ProtoClient::in_process)));
    assert!(
        loopback == local,
        "in-process backend output differs from local"
    );
}
