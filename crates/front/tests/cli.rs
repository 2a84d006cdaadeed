//! End-to-end tests of the `e9tool` command-line interface.

use std::path::PathBuf;
use std::process::Command;

fn e9tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_e9tool"))
}

/// The `e9patchd` binary built next to `e9tool` (a workspace build, or
/// `cargo test -p e9proto` alongside this package, puts it there).
fn e9patchd() -> Command {
    let path = std::path::Path::new(env!("CARGO_BIN_EXE_e9tool")).with_file_name("e9patchd");
    assert!(
        path.exists(),
        "{} not built; run `cargo build -p e9proto --bin e9patchd` first",
        path.display()
    );
    Command::new(path)
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("e9tool-test-{name}-{}", std::process::id()));
    // Start clean: leftovers of an earlier process with this pid (a
    // socket, a filled cache) would change what the test observes.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn gen_info_disasm_patch_run_pipeline() {
    let dir = tmpdir("pipeline");
    let elf = dir.join("demo.elf");
    let patched = dir.join("demo.e9");

    // gen
    let out = e9tool()
        .args(["gen", "--tiny", "cli-pipeline", "-o"])
        .arg(&elf)
        .output()
        .unwrap();
    assert!(out.status.success(), "gen failed: {:?}", out);
    assert!(elf.exists());

    // info
    let out = e9tool().arg("info").arg(&elf).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ET_EXEC"));
    assert!(text.contains("entry: 0x401000"));

    // disasm
    let out = e9tool()
        .arg("disasm")
        .arg(&elf)
        .args(["--limit", "5"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let listing = String::from_utf8_lossy(&out.stdout);
    assert!(listing.contains("mov"), "listing: {listing}");

    // run original
    let out = e9tool()
        .arg("run")
        .arg(&elf)
        .arg("--hex-output")
        .output()
        .unwrap();
    assert!(out.status.success());
    let orig_out = String::from_utf8_lossy(&out.stdout).to_string();

    // patch
    let out = e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(&patched)
        .args(["--app", "a1", "--report"])
        .output()
        .unwrap();
    assert!(out.status.success(), "patch failed: {:?}", out);
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("patched"));
    assert!(report.contains("site report"));
    assert!(report.contains("failed 0"), "report: {report}");

    // run patched — identical output.
    let out = e9tool()
        .arg("run")
        .arg(&patched)
        .arg("--hex-output")
        .output()
        .unwrap();
    assert!(out.status.success());
    assert_eq!(String::from_utf8_lossy(&out.stdout), orig_out);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn patch_with_lowfat_payload() {
    let dir = tmpdir("lowfat");
    let elf = dir.join("demo.elf");
    let patched = dir.join("demo.lf");
    assert!(e9tool()
        .args(["gen", "--tiny", "cli-lowfat", "-o"])
        .arg(&elf)
        .status()
        .unwrap()
        .success());
    assert!(e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(&patched)
        .args(["--app", "a2", "--payload", "lowfat"])
        .status()
        .unwrap()
        .success());
    // Run with the low-fat heap.
    let out = e9tool()
        .arg("run")
        .arg(&patched)
        .args(["--lowfat", "--hex-output"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_on_bad_invocations() {
    let out = e9tool().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = e9tool().arg("bogus-subcommand").output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = e9tool().args(["gen", "--tiny", "x"]).output().unwrap();
    assert_eq!(out.status.code(), Some(1)); // missing -o
    let out = e9tool()
        .args(["info", "/nonexistent/file"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn unknown_flags_are_rejected() {
    // A typo'd flag must fail loudly before any work happens, on every
    // subcommand.
    let out = e9tool()
        .args(["patch", "in.elf", "-o", "out.e9", "--frobnicate"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --frobnicate"), "stderr: {err}");

    let out = e9tool()
        .args(["run", "in.elf", "--max-step", "5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --max-step"), "stderr: {err}");

    let out = e9tool()
        .args(["gen", "--tiny", "x", "--pei", "-o", "x.elf"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag --pei"), "stderr: {err}");
}

#[cfg(unix)]
#[test]
fn patch_backend_socket_matches_in_process() {
    let dir = tmpdir("backend");
    let elf = dir.join("demo.elf");
    let direct = dir.join("direct.e9");
    let via = dir.join("via.e9");
    let sock = dir.join("e9.sock");

    assert!(e9tool()
        .args(["gen", "--tiny", "cli-backend", "-o"])
        .arg(&elf)
        .env("E9_SEED", "42")
        .status()
        .unwrap()
        .success());

    // In-process reference output.
    assert!(e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(&direct)
        .args(["--app", "a1", "--payload", "counter"])
        .status()
        .unwrap()
        .success());

    // A daemon serving exactly one connection.
    let mut server = daemon_on(&sock, &[]);

    let out = e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(&via)
        .args(["--app", "a1", "--payload", "counter", "--backend"])
        .arg(&sock)
        .output()
        .unwrap();
    assert!(out.status.success(), "backend patch failed: {out:?}");
    assert!(
        server.wait().unwrap().success(),
        "daemon did not exit cleanly"
    );

    // The protocol round trip changes nothing: byte-identical outputs.
    let a = std::fs::read(&direct).unwrap();
    let b = std::fs::read(&via).unwrap();
    assert_eq!(a, b, "backend output diverged from in-process output");

    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(target_os = "linux")]
#[test]
fn patch_backend_tcp_matches_in_process() {
    let dir = tmpdir("backend-tcp");
    let elf = dir.join("demo.elf");
    let direct = dir.join("direct.e9");
    let via = dir.join("via.e9");

    assert!(e9tool()
        .args(["gen", "--tiny", "cli-backend-tcp", "-o"])
        .arg(&elf)
        .env("E9_SEED", "43")
        .status()
        .unwrap()
        .success());

    // In-process reference output.
    assert!(e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(&direct)
        .args(["--app", "a1", "--payload", "counter"])
        .status()
        .unwrap()
        .success());

    // An in-thread reactor daemon on an ephemeral TCP port, draining
    // after one connection.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let mut config = e9proto::server::ServeConfig::default();
        config.transport.accept_budget = Some(1);
        e9proto::reactor::serve_reactor(vec![e9proto::reactor::Listener::Tcp(listener)], &config)
            .unwrap();
    });

    let out = e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(&via)
        .args(["--app", "a1", "--payload", "counter", "--backend"])
        .arg(format!("tcp:{addr}"))
        .output()
        .unwrap();
    assert!(out.status.success(), "tcp backend patch failed: {out:?}");
    server.join().unwrap();

    let a = std::fs::read(&direct).unwrap();
    let b = std::fs::read(&via).unwrap();
    assert_eq!(a, b, "tcp backend output diverged from in-process output");

    std::fs::remove_dir_all(&dir).ok();
}

/// A cache filled by one run serves a later run: the first misses, the
/// second hits, and the hit carries the bytes a cold rewrite produces.
#[test]
fn cache_fill_serves_later_run_identically() {
    let dir = tmpdir("cache-fill");
    let elf = dir.join("p.elf");
    let cache = dir.join("cache");
    assert!(e9tool()
        .args(["gen", "--profile", "perlbench", "--scale", "50", "-o"])
        .arg(&elf)
        .env("E9_SEED", "42")
        .status()
        .unwrap()
        .success());
    let patch = |out: &str, extra: &[&str]| {
        let o = e9tool()
            .arg("patch")
            .arg(&elf)
            .arg("-o")
            .arg(dir.join(out))
            .args(["--app", "a1"])
            .args(extra)
            .env_remove("E9CACHE_DIR")
            .output()
            .unwrap();
        assert!(o.status.success(), "patch {extra:?} failed: {o:?}");
        String::from_utf8_lossy(&o.stdout).into_owned()
    };
    let cached = [
        "--cache-dir",
        cache.to_str().unwrap(),
        "--cache-bypass-bytes",
        "0",
    ];
    let fill = patch("fill.e9", &cached);
    assert!(
        fill.contains("cache: miss"),
        "fill run did not miss: {fill}"
    );
    let hit = patch("hit.e9", &cached);
    assert!(hit.contains("cache: hit"), "plain run did not hit: {hit}");
    patch("cold.e9", &["--no-cache"]);
    let read = |f: &str| std::fs::read(dir.join(f)).unwrap();
    assert!(
        read("hit.e9") == read("cold.e9"),
        "cache hit diverged from a cold rewrite"
    );
    assert!(
        read("fill.e9") == read("cold.e9"),
        "cache fill diverged from a cold rewrite"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Granularities the rewriter cannot run (no block, or a block larger
/// than the usable address space) exit 1 with a message and no panic.
#[test]
fn unrunnable_granularity_exits_one_without_panic() {
    let dir = tmpdir("granularity");
    let elf = dir.join("g.elf");
    assert!(e9tool()
        .args(["gen", "--tiny", "g", "-o"])
        .arg(&elf)
        .status()
        .unwrap()
        .success());
    for m in ["0", "34359738367", "4503599627370496"] {
        for (sub, select) in [("patch", ["--app", "a1"]), ("hook", ["--func", "*"])] {
            let o = e9tool()
                .arg(sub)
                .arg(&elf)
                .arg("-o")
                .arg(dir.join("g.out"))
                .args(select)
                .args(["--no-cache", "--granularity", m])
                .output()
                .unwrap();
            let err = String::from_utf8_lossy(&o.stderr);
            assert_eq!(o.status.code(), Some(1), "{sub} --granularity {m}: {err}");
            assert!(
                err.contains(&format!("bad --granularity: granularity {m} out of range")),
                "{err}"
            );
            assert!(!err.contains("panicked"), "{err}");
        }
    }
    assert!(!dir.join("g.out").exists());
    std::fs::remove_dir_all(&dir).ok();
}

/// `--jobs` is gone: `patch` and `hook` name it as an unknown flag, and
/// `e9patchd` answers it with its usage.
#[test]
fn jobs_flag_is_rejected() {
    for sub in ["patch", "hook"] {
        let out = e9tool()
            .args([sub, "in.elf", "-o", "out.e9", "--jobs", "2"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1));
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag --jobs"), "{sub} stderr: {err}");
    }
    let out = e9patchd().args(["--jobs", "2"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

/// Spawn `e9patchd --socket SOCK` with `extra` flags, serving one
/// connection, and wait for its socket to appear.
#[cfg(unix)]
fn daemon_on(sock: &std::path::Path, extra: &[&std::ffi::OsStr]) -> std::process::Child {
    let server = e9patchd()
        .arg("--socket")
        .arg(sock)
        .args(["--max-conns", "1"])
        .args(extra)
        .spawn()
        .unwrap();
    for _ in 0..200 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(sock.exists(), "daemon socket never appeared");
    server
}

/// A cache directory filled by in-process `e9tool patch --cache-dir`
/// serves a daemon started on the same directory: same key, a hit, and
/// the same bytes.
#[cfg(unix)]
#[test]
fn local_cache_fill_is_a_daemon_hit() {
    let dir = tmpdir("cache-shared");
    let elf = dir.join("demo.elf");
    let cache = dir.join("cache");
    let sock = dir.join("e9.sock");
    assert!(e9tool()
        .args(["gen", "--tiny", "cli-cache-shared", "-o"])
        .arg(&elf)
        .status()
        .unwrap()
        .success());
    let patch = |out: &str, extra: &[&std::ffi::OsStr]| {
        let o = e9tool()
            .arg("patch")
            .arg(&elf)
            .arg("-o")
            .arg(dir.join(out))
            .args(["--app", "a1", "--payload", "counter"])
            .args(extra)
            .env_remove("E9CACHE_DIR")
            .output()
            .unwrap();
        assert!(o.status.success(), "patch {extra:?} failed: {o:?}");
        String::from_utf8_lossy(&o.stdout).into_owned()
    };
    let fill = patch(
        "local.e9",
        &[
            "--cache-dir".as_ref(),
            cache.as_os_str(),
            "--cache-bypass-bytes".as_ref(),
            "0".as_ref(),
        ],
    );
    let digest = fill
        .lines()
        .find_map(|l| l.strip_prefix("cache: miss — stored "))
        .unwrap_or_else(|| panic!("local run did not miss: {fill}"))
        .to_string();

    // The tiny input is below the daemon's default bypass threshold too.
    let mut server = daemon_on(
        &sock,
        &[
            "--cache-dir".as_ref(),
            cache.as_os_str(),
            "--cache-bypass-bytes".as_ref(),
            "0".as_ref(),
        ],
    );
    let hit = patch("daemon.e9", &["--backend".as_ref(), sock.as_os_str()]);
    assert!(
        server.wait().unwrap().success(),
        "daemon did not exit cleanly"
    );
    assert!(
        hit.contains(&format!("cache: hit {digest}")),
        "no hit on {digest}: {hit}"
    );
    let read = |f: &str| std::fs::read(dir.join(f)).unwrap();
    assert!(
        read("local.e9") == read("daemon.e9"),
        "daemon hit diverged from the local fill"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--cache-bypass-bytes` configures this process's cache, which
/// `--backend` does not use: spelling it out there is an error naming the
/// daemon's flag, like `--cache-dir`.
#[test]
fn cache_bypass_bytes_with_backend_is_rejected() {
    let dir = tmpdir("bypass-backend");
    let elf = dir.join("demo.elf");
    assert!(e9tool()
        .args(["gen", "--tiny", "cli-bypass-backend", "-o"])
        .arg(&elf)
        .status()
        .unwrap()
        .success());
    for cmd in [&["patch", "--app", "a1"][..], &["hook", "--func", "f*"]] {
        let out = e9tool()
            .arg(cmd[0])
            .arg(&elf)
            .arg("-o")
            .arg(dir.join("never.e9"))
            .args(&cmd[1..])
            .args(["--backend", "stdio", "--cache-bypass-bytes", "0"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{cmd:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("e9patchd --cache-bypass-bytes"),
            "{cmd:?} stderr: {err}"
        );
        assert!(!dir.join("never.e9").exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A malformed `--backend tcp:` spec is a named diagnostic and exit 1 —
/// no connect attempt, no partial output.
#[test]
fn malformed_tcp_backend_exits_one_with_diagnostic() {
    let dir = tmpdir("backend-tcp-bad");
    let elf = dir.join("demo.elf");
    assert!(e9tool()
        .args(["gen", "--tiny", "cli-bad-tcp", "-o"])
        .arg(&elf)
        .status()
        .unwrap()
        .success());

    let out = e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(dir.join("never.e9"))
        .args(["--app", "a1", "--backend", "tcp:no-port-here"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--backend tcp:"), "stderr: {err}");
    assert!(err.contains("ADDR:PORT"), "stderr: {err}");
    assert!(!dir.join("never.e9").exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn profile_rows_are_generatable() {
    let dir = tmpdir("profiles");
    let elf = dir.join("mcf.elf");
    let out = e9tool()
        .args(["gen", "--profile", "mcf", "--scale", "200", "-o"])
        .arg(&elf)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let out = e9tool()
        .args(["gen", "--profile", "does-not-exist", "-o"])
        .arg(dir.join("x.elf"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn patch_verify_flag() {
    let dir = tmpdir("verify");
    let elf = dir.join("demo.elf");
    let patched = dir.join("demo.e9");
    assert!(e9tool()
        .args(["gen", "--tiny", "cli-verify", "-o"])
        .arg(&elf)
        .status()
        .unwrap()
        .success());
    let out = e9tool()
        .arg("patch")
        .arg(&elf)
        .arg("-o")
        .arg(&patched)
        .args(["--app", "a1", "--verify"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("verify: OK"));
    // The verified output is committed, and no staging file is left.
    assert!(e9elf::Elf::parse(&std::fs::read(&patched).unwrap()).is_ok());
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(files, ["demo.e9", "demo.elf"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn segments_no_loader_maps_as_read_are_refused_with_no_output() {
    // The hostile corpus's two overlap forms: `patch` and `run` each exit
    // 1 with a diagnostic naming the segment, and `patch` writes nothing.
    let corpus = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../faultgen/tests/corpus");
    let dir = tmpdir("refused-segments");
    for (name, names) in [
        ("overlap-congruent", "PT_LOAD at 0x401000"),
        ("vaddr-incongruent", "PT_LOAD at 0x401169"),
    ] {
        let input = corpus.join(format!("{name}.bin"));
        let output = dir.join(format!("{name}.e9"));
        let out_arg = output.to_str().unwrap();
        assert_diagnostic(
            &["patch", "-o", out_arg, "--payload", "counter", "--verify"],
            &input,
            &[names],
        );
        assert!(!output.exists(), "{name} wrote an output");
        assert_diagnostic(&["run"], &input, &[names]);
    }
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// Run a subcommand against `input`, expecting exit code 1 and a stderr
/// diagnostic containing every fragment in `expect`.
fn assert_diagnostic(cmd_args: &[&str], input: &std::path::Path, expect: &[&str]) {
    let mut cmd = e9tool();
    cmd.arg(cmd_args[0]).arg(input);
    for a in &cmd_args[1..] {
        cmd.arg(a);
    }
    let out = cmd.output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "{cmd_args:?} on {} should exit 1: {out:?}",
        input.display()
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    for frag in expect {
        assert!(
            stderr.contains(frag),
            "{cmd_args:?} diagnostic missing {frag:?}: {stderr}"
        );
    }
}

#[test]
fn directory_input_gets_a_clear_diagnostic() {
    let dir = tmpdir("dir-input");
    for args in [
        &["info"][..],
        &["disasm"],
        &["run"],
        &["patch", "-o", "/tmp/never-written.e9"],
    ] {
        assert_diagnostic(args, &dir, &["is a directory", "not an ELF binary"]);
    }
    assert!(!std::path::Path::new("/tmp/never-written.e9").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_input_gets_a_clear_diagnostic() {
    let dir = tmpdir("empty-input");
    let empty = dir.join("empty.bin");
    std::fs::write(&empty, b"").unwrap();
    for args in [
        &["info"][..],
        &["disasm"],
        &["run"],
        &["patch", "-o", "/tmp/never-written.e9"],
    ] {
        assert_diagnostic(args, &empty, &["is empty"]);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_elf_input_gets_a_clear_diagnostic() {
    let dir = tmpdir("non-elf-input");
    let text = dir.join("notes.txt");
    std::fs::write(&text, b"just some text, definitely not an executable\n").unwrap();
    for args in [
        &["info"][..],
        &["disasm"],
        &["patch", "-o", "/tmp/never-written.e9"],
    ] {
        assert_diagnostic(args, &text, &["notes.txt", "not a valid ELF binary"]);
    }
    // `run` goes through the loader; the message differs but the contract
    // (exit 1, named file, no panic) is the same.
    assert_diagnostic(&["run"], &text, &["notes.txt"]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_patch_preserves_preexisting_output() {
    // Crash-safety contract at the CLI level: when the rewrite fails, an
    // output file from an earlier run must survive untouched.
    let dir = tmpdir("preserve-output");
    let bad = dir.join("bad.bin");
    std::fs::write(&bad, b"not an elf").unwrap();
    let out_path = dir.join("out.e9");
    std::fs::write(&out_path, b"precious previous output").unwrap();
    let out = e9tool()
        .arg("patch")
        .arg(&bad)
        .arg("-o")
        .arg(&out_path)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert_eq!(
        std::fs::read(&out_path).unwrap(),
        b"precious previous output"
    );
    // And no staging droppings either.
    let droppings: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".e9tmp"))
        .collect();
    assert!(droppings.is_empty(), "staging droppings: {droppings:?}");
    std::fs::remove_dir_all(&dir).ok();
}
