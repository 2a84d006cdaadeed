//! The in-process cache path (e9front's `Exec::Cached`) and an `e9patchd`
//! session share one cache policy, so they derive the same key for the
//! same job and serve each other's entries: positive ones as byte-identical
//! hits, negative ones as the same replayed error.
//!
//! Every case uses one shared memory cache, as a daemon and a local
//! `e9tool --cache-dir` would share one directory; the jobs differ, so
//! their keys do too.

use e9front::{Application, Options, Payload};
use e9patch::{PatchRequest, RewriteConfig, RewriteOutput, Template};
use e9proto::msg::code;
use e9proto::server::ServeConfig;
use e9proto::{CacheDisposition, Command, EmitReply, RpcError, Session};
use std::sync::{Arc, OnceLock};

fn cache() -> &'static Arc<e9cache::Cache> {
    static CACHE: OnceLock<Arc<e9cache::Cache>> = OnceLock::new();
    CACHE.get_or_init(|| Arc::new(e9cache::Cache::in_memory_no_bypass()))
}

fn sample() -> e9synth::SynthBinary {
    e9synth::generate(&e9synth::Profile::tiny("cache-sharing", false))
}

/// A daemon-shaped session on the shared cache, negotiated and holding
/// `sb`'s binary. `with_digest` sends the client-side digest with
/// `binary`, as `ProtoClient` does; without it the session hashes the
/// input at its first keyed `emit`.
fn bare_session(sb: &e9synth::SynthBinary, with_digest: bool) -> Session {
    let mut s = Session::from_config(&ServeConfig {
        cache: Some(Arc::clone(cache())),
        ..ServeConfig::default()
    });
    s.handle(Command::Version {
        version: e9proto::PROTOCOL_VERSION,
    })
    .unwrap();
    let digest = with_digest.then(|| e9cache::tree::tree_digest(&sb.binary, 1));
    s.handle(Command::Binary {
        bytes: sb.binary.clone(),
        digest,
    })
    .unwrap();
    s
}

/// [`bare_session`] with `sb`'s disassembly declared.
fn session(sb: &e9synth::SynthBinary, with_digest: bool) -> Session {
    let mut s = bare_session(sb, with_digest);
    for i in &sb.disasm {
        s.handle(Command::Instruction {
            addr: i.addr,
            bytes: i.bytes().to_vec(),
        })
        .unwrap();
    }
    s
}

/// Stream an instrumentation plan into `s`, as `instrument_via_backend` does.
fn stream_plan(s: &mut Session, sb: &e9synth::SynthBinary, opts: &Options) {
    let plan = e9front::plan(&sb.binary, &sb.disasm, opts).unwrap();
    for seg in plan.extra {
        let (vaddr, exec, write) = (seg.vaddr, seg.exec, seg.write);
        s.handle(Command::Reserve {
            vaddr,
            bytes: seg.bytes,
            exec,
            write,
        })
        .unwrap();
    }
    for r in plan.requests {
        s.handle(Command::Patch {
            addr: r.addr,
            template: r.template,
        })
        .unwrap();
    }
}

fn emit(s: &mut Session) -> Result<EmitReply, RpcError> {
    s.handle(Command::Emit)
        .map(|v| EmitReply::from_json(&v).unwrap())
}

/// The output half of an e9front result and a session reply agree on
/// every field the cache stores.
fn assert_same_output(out: &RewriteOutput, reply: &EmitReply) {
    assert_eq!(out.binary, reply.binary);
    assert_eq!(out.stats, reply.stats);
    assert_eq!(out.reports, reply.reports);
    assert_eq!(out.mappings, reply.mappings);
}

#[test]
fn instrument_miss_is_a_session_hit() {
    let sb = sample();
    let opts = Options::new(Application::A1Jumps, Payload::Counter);
    let cold = e9front::instrument_cached(&sb.binary, &sb.disasm, &opts, cache()).unwrap();
    let outcome = cold.cache.expect("cache in play");
    assert_eq!(outcome.disposition, CacheDisposition::Miss);

    let mut s = session(&sb, false);
    stream_plan(&mut s, &sb, &opts);
    let warm = emit(&mut s).unwrap();
    assert_eq!(warm.cache, CacheDisposition::Hit);
    assert_eq!(warm.digest, outcome.digest);
    assert_same_output(&cold.rewrite, &warm);
}

#[test]
fn hook_miss_is_a_session_hit() {
    let sb = sample();
    let spec = e9hook::HookSpec::counters(&["f*"]);
    let cold = e9front::hook_cached(
        &sb.binary,
        &sb.disasm,
        &spec,
        RewriteConfig::default(),
        cache(),
    )
    .unwrap();
    let outcome = cold.cache.expect("cache in play");
    assert_eq!(outcome.disposition, CacheDisposition::Miss);

    // The session plans the spec itself, as a daemon serving
    // `e9tool hook --backend` does.
    let mut s = session(&sb, true);
    s.handle(Command::Hook {
        funcs: spec.funcs.clone(),
        addrs: spec.addrs.clone(),
        call_original: spec.call_original,
        payload: spec.payload,
    })
    .unwrap();
    let warm = emit(&mut s).unwrap();
    assert_eq!(warm.cache, CacheDisposition::Hit);
    assert_eq!(warm.digest, outcome.digest);
    assert_same_output(&cold.rewrite, &warm);
}

#[test]
fn session_miss_is_an_instrument_hit() {
    let sb = sample();
    // A job no other case runs, so the session is first to key it.
    let opts = Options::new(Application::A2HeapWrites, Payload::Empty);
    let mut s = session(&sb, true);
    stream_plan(&mut s, &sb, &opts);
    let cold = emit(&mut s).unwrap();
    assert_eq!(cold.cache, CacheDisposition::Miss);

    let warm = e9front::instrument_cached(&sb.binary, &sb.disasm, &opts, cache()).unwrap();
    let outcome = warm.cache.as_ref().expect("cache in play");
    assert_eq!(outcome.disposition, CacheDisposition::Hit);
    assert_eq!(outcome.digest, cold.digest);
    assert_same_output(&warm.rewrite, &cold);
}

/// A patch at `addr` with no instruction declared fails the rewrite
/// deterministically. Run it through e9front on the shared cache.
fn failing_front_job(sb: &e9synth::SynthBinary, addr: u64) -> e9front::FrontError {
    let requests = [PatchRequest {
        addr,
        template: Template::Empty,
    }];
    let job = e9front::Job {
        binary: &sb.binary,
        disasm: &[],
        requests: &requests,
        extra: &[],
        config: RewriteConfig::default(),
    };
    e9front::execute(&job, e9front::Exec::Cached(cache())).unwrap_err()
}

/// The same failing job through a session on the shared cache.
fn failing_session_job(sb: &e9synth::SynthBinary, addr: u64) -> RpcError {
    let mut s = bare_session(sb, false);
    s.handle(Command::Patch {
        addr,
        template: Template::Empty,
    })
    .unwrap();
    emit(&mut s).unwrap_err()
}

/// Both directions in one test: no other case stores or replays a
/// negative entry, so the counter below moves only here.
#[test]
fn failures_replay_across_paths() {
    let sb = sample();
    // Stored by e9front, replayed by a session.
    let stored = match failing_front_job(&sb, sb.disasm[0].addr) {
        e9front::FrontError::Rewrite(e) => e.to_string(),
        other => panic!("expected a rewrite failure, got {other:?}"),
    };
    let before = cache().stats().negative_hits;
    let replayed = failing_session_job(&sb, sb.disasm[0].addr);
    assert_eq!(replayed, RpcError::new(code::REWRITE, stored));
    assert_eq!(cache().stats().negative_hits, before + 1);

    // Stored by a session, replayed by e9front.
    let stored = failing_session_job(&sb, sb.disasm[1].addr);
    assert_eq!(stored.code, code::REWRITE);
    match failing_front_job(&sb, sb.disasm[1].addr) {
        e9front::FrontError::CachedFailure { code, message } => {
            assert_eq!((code, message), (stored.code, stored.message));
        }
        other => panic!("expected a replayed failure, got {other:?}"),
    }
}
