//! End-to-end rewrite-cache test against the real `e9patchd` binary: two
//! separate socket connections share one `--cache-dir`, so the second
//! run of the same job must be a cache hit with byte-identical output —
//! and the `cache` wire command must report and clear the store.

#![cfg(unix)]

use e9patch::{PatchRequest, RewriteConfig, Template};
use e9proto::cachekey::Job;
use e9proto::{CacheDisposition, Command, ProtoClient};

fn daemon_path() -> &'static str {
    env!("CARGO_BIN_EXE_e9patchd")
}

fn workload() -> (Vec<u8>, Vec<e9x86::insn::Insn>, Vec<u64>) {
    let sb = e9synth::generate(&e9synth::Profile::tiny("cache-daemon", false));
    let sites: Vec<u64> = sb
        .disasm
        .iter()
        .filter(|i| i.kind.is_jump())
        .map(|i| i.addr)
        .collect();
    assert!(!sites.is_empty());
    (sb.binary, sb.disasm, sites)
}

fn drive(
    client: &mut ProtoClient,
    bin: &[u8],
    disasm: &[e9x86::insn::Insn],
    sites: &[u64],
) -> e9proto::EmitReply {
    let requests: Vec<PatchRequest> = sites
        .iter()
        .map(|&addr| PatchRequest {
            addr,
            template: Template::Empty,
        })
        .collect();
    // `binary` carries the client's tree digest: the digest-once wire
    // path, where the server verifies it at intake instead of re-hashing
    // at emit.
    let job = Job {
        binary: bin,
        disasm,
        requests: &requests,
        extra: &[],
        config: RewriteConfig::default(),
    };
    client.stream(job.commands()).unwrap();
    let reply = client.emit().unwrap();
    assert_eq!(reply.stats.failed, 0, "{:?}", reply.stats);
    reply
}

#[test]
fn wrong_digest_is_rejected_over_the_wire() {
    // A claimed digest that does not match the bytes must be refused at
    // intake with a typed error — the shared cache is only safe because
    // the server never trusts a client-supplied digest.
    let (bin, _, _) = workload();
    let mut client = ProtoClient::in_process().unwrap();
    client.negotiate().unwrap();
    let err = client
        .call(Command::Binary {
            bytes: bin,
            digest: Some(e9cache::digest(b"not the binary")),
        })
        .unwrap_err();
    assert!(err.to_string().contains("digest mismatch"), "{err}");
}

#[test]
fn two_connections_share_the_cache_and_hit_byte_identically() {
    let dir = std::env::temp_dir().join(format!("e9patchd-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("e9.sock");
    let cache_dir = dir.join("cache");

    // Kills the daemon on drop so a panicking test can never orphan it —
    // an orphan inherits the runner's stdout and wedges any pipeline
    // reading that stream.
    struct Reap(std::process::Child);
    impl Drop for Reap {
        fn drop(&mut self) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
    let mut daemon = Reap(
        std::process::Command::new(daemon_path())
            .arg("--socket")
            .arg(&sock)
            .arg("--cache-dir")
            .arg(&cache_dir)
            // The synth workload is tiny: disable the size bypass so the
            // cache mechanics under test actually engage.
            .args(["--cache-bypass-bytes", "0"])
            .args(["--max-conns", "2"])
            .spawn()
            .unwrap(),
    );

    let (bin, disasm, sites) = workload();

    // Connection 1: cold — the reply must say so and carry the job digest.
    let first = {
        let mut client = ProtoClient::connect_unix_retry(&sock, 8).unwrap();
        let reply = drive(&mut client, &bin, &disasm, &sites);
        assert_eq!(
            reply.cache,
            CacheDisposition::Miss,
            "first run must be cold"
        );
        reply
    };
    let digest = first
        .digest
        .clone()
        .expect("cold reply must carry the digest");
    assert_eq!(digest.len(), 64, "{digest}");

    // Connection 2: same job, fresh session — served from the shared
    // cache, byte-identical, same digest. Stats and clear work in-band.
    {
        let mut client = ProtoClient::connect_unix_retry(&sock, 8).unwrap();
        let reply = drive(&mut client, &bin, &disasm, &sites);
        assert_eq!(reply.cache, CacheDisposition::Hit, "second run must hit");
        assert_eq!(reply.digest.as_deref(), Some(digest.as_str()));
        assert_eq!(reply.binary, first.binary, "hit must be byte-identical");
        assert_eq!(reply.stats, first.stats);
        assert_eq!(reply.mappings, first.mappings);

        let stats = client.cache_stats().unwrap();
        assert!(stats.enabled && stats.disk, "{stats:?}");
        assert_eq!(stats.stats.hits, 1, "{:?}", stats.stats);
        assert_eq!(stats.stats.misses, 1, "{:?}", stats.stats);
        assert_eq!(stats.stats.stores, 1, "{:?}", stats.stats);

        assert!(client.cache_clear().unwrap());
        let stats = client.cache_stats().unwrap();
        assert_eq!(stats.stats.mem_entries, 0, "{:?}", stats.stats);
    }

    // --max-conns 2: the daemon retires on its own after connection 2.
    let mut exited = false;
    for _ in 0..500 {
        if let Some(status) = daemon.0.try_wait().unwrap() {
            assert!(status.success(), "daemon exited with {status}");
            exited = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    assert!(exited, "daemon did not exit after --max-conns connections");
    std::fs::remove_dir_all(&dir).ok();
}
