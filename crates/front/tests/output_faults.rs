//! `write_atomic` under injected I/O faults: EINTR and partial writes
//! are absorbed transparently, hard faults surface as typed errors that
//! leave the destination untouched and no staging droppings behind.
//!
//! Failpoint activation is process-global, so every test holds the
//! `activate_scoped` gate (they serialize against each other; no other
//! e9front test binary activates failpoints).

use e9front::output::{stage, write_atomic};
use std::fs;
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("e9front-outfault-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    fs::create_dir_all(&d).unwrap();
    d
}

fn droppings(dir: &PathBuf, keep: &str) -> Vec<std::ffi::OsString> {
    fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .filter(|n| n != keep)
        .collect()
}

#[test]
fn eintr_storms_are_retried_transparently() {
    let d = tmpdir("eintr");
    let out = d.join("a.bin");
    let _fp = e9failpt::activate_scoped("front.output.write=eintr@first:5", 7).unwrap();
    write_atomic(&out, b"interrupted but intact").unwrap();
    assert_eq!(fs::read(&out).unwrap(), b"interrupted but intact");
    assert!(droppings(&d, "a.bin").is_empty());
}

#[test]
fn partial_writes_complete_to_the_full_payload() {
    let d = tmpdir("partial");
    let out = d.join("a.bin");
    let payload: Vec<u8> = (0..=255u8).cycle().take(64 << 10).collect();
    // Every write is cut short; the resilient loop still lands all bytes.
    let _fp = e9failpt::activate_scoped("front.output.write=partial@always", 7).unwrap();
    write_atomic(&out, &payload).unwrap();
    assert_eq!(fs::read(&out).unwrap(), payload);
    assert!(droppings(&d, "a.bin").is_empty());
}

#[test]
fn enospc_is_typed_and_leaves_previous_contents() {
    let d = tmpdir("enospc");
    let out = d.join("a.bin");
    fs::write(&out, b"previous").unwrap();
    let _fp = e9failpt::activate_scoped("front.output.stage=enospc@once", 7).unwrap();
    let err = write_atomic(&out, b"next").unwrap_err();
    assert_eq!(err.raw_os_error(), Some(28), "expected ENOSPC: {err}");
    assert_eq!(fs::read(&out).unwrap(), b"previous");
    assert!(droppings(&d, "a.bin").is_empty());
    // Fault cleared: the same call now succeeds.
    write_atomic(&out, b"next").unwrap();
    assert_eq!(fs::read(&out).unwrap(), b"next");
}

#[test]
fn commit_rename_failure_keeps_destination_and_cleans_stage() {
    let d = tmpdir("commit");
    let out = d.join("a.bin");
    fs::write(&out, b"previous").unwrap();
    let _fp = e9failpt::activate_scoped("front.output.commit=rename@once", 7).unwrap();
    let err = write_atomic(&out, b"next").unwrap_err();
    assert!(
        err.raw_os_error().is_some(),
        "expected an errno-backed error: {err}"
    );
    assert_eq!(fs::read(&out).unwrap(), b"previous");
    assert!(droppings(&d, "a.bin").is_empty());
}

#[test]
fn exhausted_eintr_budget_surfaces_the_error() {
    let d = tmpdir("budget");
    let out = d.join("a.bin");
    // More interrupts than the budget tolerates: the error must surface
    // (typed, destination untouched) rather than loop forever.
    let _fp = e9failpt::activate_scoped("front.output.write=eintr@always", 7).unwrap();
    let err = write_atomic(&out, b"never lands").unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
    assert!(!out.exists());
    assert!(droppings(&d, "").is_empty());
}

#[test]
fn stage_commit_split_still_behaves_under_faults() {
    // The crash-window contract holds with injection active but inert
    // (no matching points fire on this path).
    let d = tmpdir("window");
    let out = d.join("a.bin");
    fs::write(&out, b"previous").unwrap();
    let _fp = e9failpt::activate_scoped("cache.disk.read=eio@always", 7).unwrap();
    let tmp = stage(&out, b"next").unwrap();
    assert_eq!(fs::read(&out).unwrap(), b"previous");
    e9front::output::commit(&tmp, &out).unwrap();
    assert_eq!(fs::read(&out).unwrap(), b"next");
}
