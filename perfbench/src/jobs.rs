//! One job through each workload's path. The untraced path calls the
//! public front-end functions as a user of the library would; the traced
//! path makes the same calls those functions make, in the same order,
//! with a span around each call into a layer.

use crate::inputs::{Job, Row};
use crate::trace::Tracer;
use e9patch::{RewriteConfig, RewriteOutput};
use e9proto::ProtoClient;
use std::path::Path;

/// How a job reaches the rewriter.
pub enum Route<'a> {
    /// In-process and uncached.
    Cold,
    /// In-process through a two-tier cache.
    Cached(&'a e9cache::Cache),
    /// Through `e9patchd` on a Unix socket, one connection per job.
    Daemon(&'a Path),
}

/// What a job produced.
pub struct Done {
    pub out: RewriteOutput,
    /// Selected sites (instrument) or hooked functions (hook).
    pub units: usize,
    /// Instructions the frontend decoded.
    pub insns: usize,
    /// Whether the rewriter ran for this job (a cache hit does not).
    pub rewrote: bool,
    /// Wire calls the traced daemon path made (0 on other paths).
    pub calls: u64,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The job's front-end call, untraced.
pub fn run(route: &Route, row: &Row, job: Job) -> Result<Done, String> {
    let cache = match route {
        Route::Daemon(sock) => {
            let mut client = ProtoClient::connect_unix(sock).map_err(err)?;
            return via_backend(row, job, &mut client);
        }
        Route::Cached(c) => Some(*c),
        Route::Cold => None,
    };
    let bin = &row.sb.binary;
    let disasm = e9front::disassemble_text(bin).map_err(err)?;
    let (out, units, cache) = match (crate::instrument_options(job.kind), cache) {
        (Some(o), None) => {
            let r = e9front::instrument_with_disasm(bin, &disasm, &o).map_err(err)?;
            (r.rewrite, r.sites, r.cache)
        }
        (Some(o), Some(c)) => {
            let r = e9front::instrument_cached(bin, &disasm, &o, c).map_err(err)?;
            (r.rewrite, r.sites, r.cache)
        }
        (None, None) => {
            let h =
                e9front::hook_with_disasm(bin, &disasm, &crate::hook_spec(), Default::default())
                    .map_err(err)?;
            (h.rewrite, h.hooks.len(), h.cache)
        }
        (None, Some(c)) => {
            let h = e9front::hook_cached(bin, &disasm, &crate::hook_spec(), Default::default(), c)
                .map_err(err)?;
            (h.rewrite, h.hooks.len(), h.cache)
        }
    };
    let rewrote = !matches!(
        cache.map(|c| c.disposition),
        Some(e9proto::CacheDisposition::Hit)
    );
    Ok(Done {
        out,
        units,
        insns: disasm.len(),
        rewrote,
        calls: 0,
    })
}

/// The job through `instrument_via_backend` / `hook_via_backend` on a
/// connected client (the daemon has no cache, so the rewriter always runs).
pub fn via_backend(row: &Row, job: Job, client: &mut ProtoClient) -> Result<Done, String> {
    let bin = &row.sb.binary;
    let disasm = e9front::disassemble_text(bin).map_err(err)?;
    let (out, units) = match crate::instrument_options(job.kind) {
        Some(o) => {
            let r = e9front::instrument_via_backend(bin, &disasm, &o, client).map_err(err)?;
            (r.rewrite, r.sites)
        }
        None => {
            let h = e9front::hook_via_backend(
                bin,
                &disasm,
                &crate::hook_spec(),
                Default::default(),
                client,
            )
            .map_err(err)?;
            (h.rewrite, h.hooks.len())
        }
    };
    Ok(Done {
        out,
        units,
        insns: disasm.len(),
        rewrote: true,
        calls: 0,
    })
}

/// The same job, decomposed into the calls its front-end function makes, with spans.
pub fn run_traced(route: &Route, row: &Row, job: Job, tr: &mut Tracer) -> Result<Done, String> {
    let root = tr.enter("job");
    let r = traced_inner(route, row, job, tr);
    tr.exit(root);
    r
}

fn traced_inner(route: &Route, row: &Row, job: Job, tr: &mut Tracer) -> Result<Done, String> {
    let bin = &row.sb.binary;
    let cfg = RewriteConfig::default();
    if let Route::Daemon(sock) = route {
        return traced_daemon(sock, bin, job, tr);
    }
    let disasm = tr
        .span("x86.decode", || e9front::disassemble_text(bin))
        .map_err(err)?;
    let (requests, extra, units) = match crate::instrument_options(job.kind) {
        Some(o) => {
            let p = tr
                .span("front.plan", || e9front::plan(bin, &disasm, &o))
                .map_err(err)?;
            (p.requests, p.extra, p.sites.len())
        }
        None => {
            let p = tr
                .span("hook.plan", || {
                    e9hook::plan_hooks(bin, &disasm, &crate::hook_spec())
                })
                .map_err(err)?;
            (p.requests, p.extra, p.hooks.len())
        }
    };
    let job = e9front::Job {
        binary: bin,
        disasm: &disasm,
        requests: &requests,
        extra: &extra,
        config: cfg,
    };
    let rewrite = |tr: &mut Tracer| {
        tr.span("core.rewrite", || e9front::run_job(&job))
            .map_err(err)
    };
    let (out, rewrote) = match route {
        Route::Cached(cache) => traced_cached(&job, cache, tr, rewrite)?,
        _ => (rewrite(tr)?, true),
    };
    Ok(Done {
        out,
        units,
        insns: disasm.len(),
        rewrote,
        calls: 0,
    })
}

/// `e9front::run_job_cached`, call by call.
fn traced_cached(
    job: &e9front::Job,
    cache: &e9cache::Cache,
    tr: &mut Tracer,
    rewrite: impl Fn(&mut Tracer) -> Result<RewriteOutput, String>,
) -> Result<(RewriteOutput, bool), String> {
    if cache.should_bypass(job.binary.len() as u64) {
        return Ok((rewrite(tr)?, true));
    }
    let bin_digest = tr.span("cache.digest", || {
        e9cache::tree::tree_digest(job.binary, job.config.jobs.unwrap_or(1))
    });
    let key = tr.span("cache.key", || {
        e9proto::cachekey::rewrite_key_from_digest(
            &bin_digest,
            job.disasm,
            job.extra,
            job.requests,
            &job.config,
        )
    });
    match tr.span("cache.lookup", || cache.lookup(&key)) {
        Some(e9cache::Hit::Payload(blob)) => {
            let decoded = tr.span("cache.decode", || {
                e9proto::EmitReply::decode_bin(&blob).map(e9front::output_from_reply)
            });
            if let Ok(out) = decoded {
                return Ok((out, false));
            }
        }
        Some(e9cache::Hit::Negative { code, message }) => {
            return Err(format!("cached failure {code}: {message}"))
        }
        None => {}
    }
    let out = rewrite(tr)?;
    tr.span("cache.put", || {
        cache.put(
            &key,
            &e9cache::Entry::Ok(reply_from_output(&out).encode_bin()),
        )
    });
    Ok((out, true))
}

/// The cache's stored form of a cold rewrite (what the cached front-end function
/// stores: the emit reply, with no cache disposition).
fn reply_from_output(out: &RewriteOutput) -> e9proto::EmitReply {
    e9proto::EmitReply {
        binary: out.binary.clone(),
        stats: out.stats,
        size: out.size,
        loader_addr: out.loader_addr,
        trap_count: out.trap_count as u64,
        reports: out.reports.clone(),
        mappings: out
            .mappings
            .iter()
            .map(|m| e9proto::msg::WireMapping {
                vaddr: m.vaddr,
                file_off: m.file_off,
                len: m.len,
            })
            .collect(),
        cache: e9proto::CacheDisposition::Off,
        digest: None,
    }
}

/// A traced wire session: every call is timed and counted. The oracle
/// checks the count against the calls the real driver makes (see
/// `relay`).
struct Wire<'t> {
    client: ProtoClient,
    tr: &'t mut Tracer,
    calls: u64,
}

impl Wire<'_> {
    /// One round trip, as the typed `ProtoClient` methods make it.
    fn call(&mut self, cmd: e9proto::Command) -> Result<e9proto::Json, String> {
        self.calls += 1;
        let client = &mut self.client;
        self.tr.call(|| client.call(cmd)).map_err(err)
    }
}

/// `instrument_via_backend` / `hook_via_backend`, call by call.
fn traced_daemon(sock: &Path, bin: &[u8], job: Job, tr: &mut Tracer) -> Result<Done, String> {
    use e9proto::Command;
    let cfg = RewriteConfig::default();
    let upload = tr.enter("proto.upload");
    let client = ProtoClient::connect_unix(sock).map_err(err)?;
    tr.exit(upload);
    let disasm = tr
        .span("x86.decode", || e9front::disassemble_text(bin))
        .map_err(err)?;
    let plan = match crate::instrument_options(job.kind) {
        Some(o) => Some(
            tr.span("front.plan", || e9front::plan(bin, &disasm, &o))
                .map_err(err)?,
        ),
        None => None,
    };
    let mut w = Wire {
        client,
        tr,
        calls: 0,
    };
    let upload = w.tr.enter("proto.upload");
    w.call(Command::Version {
        version: e9proto::PROTOCOL_VERSION,
    })?;
    let b = |v: bool| if v { "true" } else { "false" };
    let alloc = match cfg.alloc_policy {
        e9patch::AllocPolicy::FirstFitLow => "low",
        e9patch::AllocPolicy::FirstFitHigh => "high",
    };
    let mut options = vec![
        ("t1", b(cfg.tactics.t1).to_string()),
        ("t2", b(cfg.tactics.t2).to_string()),
        ("t3", b(cfg.tactics.t3).to_string()),
        ("b0", b(cfg.b0_fallback).to_string()),
        ("grouping", b(cfg.grouping).to_string()),
        ("granularity", cfg.granularity.to_string()),
        ("alloc", alloc.to_string()),
    ];
    if let Some(n) = cfg.jobs {
        options.push(("jobs", n.to_string()));
    }
    for (name, value) in &options {
        w.call(Command::Option {
            name: name.to_string(),
            value: value.clone(),
        })?;
    }
    let digest = w.tr.span("cache.digest", || {
        e9cache::tree::tree_digest(bin, cfg.jobs.unwrap_or(1))
    });
    w.call(Command::Binary {
        bytes: bin.to_vec(),
        digest: Some(digest),
    })?;
    w.tr.exit(upload);
    let s = w.tr.enter("proto.insn");
    for i in &disasm {
        w.call(Command::Instruction {
            addr: i.addr,
            bytes: i.bytes().to_vec(),
        })?;
    }
    w.tr.exit(s);
    let s = w.tr.enter("proto.patch");
    let units = match &plan {
        Some(p) => {
            for seg in &p.extra {
                w.call(Command::Reserve {
                    vaddr: seg.vaddr,
                    bytes: seg.bytes.clone(),
                    exec: seg.exec,
                    write: seg.write,
                })?;
            }
            for r in &p.requests {
                w.call(Command::Patch {
                    addr: r.addr,
                    template: r.template.clone(),
                })?;
            }
            p.sites.len()
        }
        None => {
            let spec = crate::hook_spec();
            let v = w.call(Command::Hook {
                funcs: spec.funcs,
                addrs: spec.addrs,
                call_original: spec.call_original,
                payload: spec.payload,
            })?;
            e9proto::msg::HookReply::from_json(&v)?.hooks.len()
        }
    };
    w.tr.exit(s);
    let s = w.tr.enter("proto.emit");
    let v = w.call(Command::Emit)?;
    let out = e9front::output_from_reply(e9proto::EmitReply::from_json(&v)?);
    w.tr.exit(s);
    Ok(Done {
        out,
        units,
        insns: disasm.len(),
        rewrote: true,
        calls: w.calls,
    })
}
