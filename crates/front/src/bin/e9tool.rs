//! `e9tool` — file-based command-line driver for the E9Patch
//! reproduction, mirroring the companion tool of the original project.
//!
//! ```console
//! $ e9tool gen --tiny demo -o demo.elf          # make a workload binary
//! $ e9tool info demo.elf                        # inspect it
//! $ e9tool disasm demo.elf | head               # linear-sweep listing
//! $ e9tool patch demo.elf -o demo.e9 --app a1   # rewrite all jumps
//! $ e9tool run demo.elf && e9tool run demo.e9   # identical behaviour
//! ```

use e9front::{Application, Options, Payload};
use e9patch::{RewriteConfig, Tactics};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "e9tool — static binary rewriting without control flow recovery

USAGE:
  e9tool gen  (--tiny NAME | --profile NAME) [--pie] [--scale N] -o OUT
  e9tool info BINARY
  e9tool disasm BINARY [--limit N]
  e9tool patch BINARY -o OUT [--app a1|a2|a3|all] [--payload empty|counter|counters|lowfat|trace]
              [--no-t1] [--no-t2] [--no-t3] [--b0] [--granularity M] [--no-grouping]
              [--report] [--verify] [--backend stdio|/path/to.sock|tcp:ADDR:PORT]
              [--cache-dir DIR | --no-cache] [--cache-bypass-bytes N]
  e9tool hook BINARY -o OUT (--func NAME[,NAME..] | --addr ADDR[,ADDR..])
              [--payload counter|nop] [--call-original]
              [--no-t1] [--no-t2] [--no-t3] [--b0] [--granularity M] [--no-grouping]
              [--backend stdio|/path/to.sock|tcp:ADDR:PORT]
              [--cache-dir DIR | --no-cache] [--cache-bypass-bytes N]
  e9tool run  BINARY [--lowfat] [--max-steps N] [--hex-output] [--hook-counters]
  e9tool health --backend /path/to.sock|tcp:ADDR:PORT|stdio [--json]

`gen --profile` accepts any Table 1 row name (perlbench, gcc, chrome, ...).
`patch --backend` drives the rewrite through an e9patchd backend over the
wire protocol instead of in-process: `stdio` spawns a daemon child
($E9PATCHD, an e9patchd next to e9tool, or $PATH), a path connects to a
daemon's Unix socket, and `tcp:ADDR:PORT` connects to a daemon started
with --listen-tcp. Output is byte-identical to the in-process path.
`patch --cache-dir DIR` reuses finished rewrites from a content-addressed
cache at DIR ($E9CACHE_DIR provides a default; --no-cache disables both).
A hit is byte-identical to a cold rewrite. Inputs below the bypass
threshold (--cache-bypass-bytes N or $E9CACHE_BYPASS_BYTES, default
131072; 0 caches every size) skip the cache entirely — for tiny binaries
the rewrite is cheaper than keying it. The cache flags configure this
process's cache: with --backend, cache on the daemon instead
(`e9patchd --cache-dir`, `--cache-bypass-bytes`). The in-process cache
and a daemon's derive the same keys, so they can share one directory.
`patch` and `hook` print `cache: hit|miss|bypass` whenever a cache took
part, local or remote.
`hook` installs register-preserving function hooks at symbol-resolved
entry points: --func takes exact names or shell globs (resolved against
.symtab, falling back to .dynsym), --addr takes explicit entry addresses
for stripped binaries. The default counter payload keeps one 64-bit
call counter per hook, readable back with `run --hook-counters`;
--call-original additionally relocates each displaced prologue
instruction into an executable thunk the payload can call. Every hook
job is recorded in a manifest segment inside the output binary.
`health` asks a live daemon for its health surface — serving mode, cache
tier state (including the disk circuit breaker), overload-shed counters
and fault-injection status. It needs no version handshake, so it works
against any daemon the protocol can reach; --json prints the raw reply."
    );
    ExitCode::from(2)
}

struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    fn parse(argv: &[String]) -> Args {
        let mut positional = Vec::new();
        let mut flags = std::collections::HashMap::new();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(name) = a.strip_prefix("--") {
                let takes_value = matches!(
                    name,
                    "tiny" | "profile" | "scale" | "app" | "payload" | "granularity"
                        | "max-steps" | "limit" | "backend" | "cache-dir"
                        | "cache-bypass-bytes" | "func" | "addr"
                );
                if takes_value && i + 1 < argv.len() {
                    flags.insert(name.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    flags.insert(name.to_string(), String::new());
                    i += 1;
                }
            } else if a == "-o" && i + 1 < argv.len() {
                flags.insert("out".into(), argv[i + 1].clone());
                i += 2;
            } else {
                positional.push(a.clone());
                i += 1;
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.contains_key(name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// Reject any flag not in `allowed` ("out" stands for `-o`). A typo'd
    /// flag must be a hard error, not a silently ignored no-op.
    fn check_flags(&self, allowed: &[&str]) -> Result<(), String> {
        let mut unknown: Vec<&str> = self
            .flags
            .keys()
            .map(|k| k.as_str())
            .filter(|k| !allowed.contains(k))
            .collect();
        unknown.sort_unstable();
        match unknown.as_slice() {
            [] => Ok(()),
            [one] => Err(format!("unknown flag --{one} (see `e9tool` for usage)")),
            many => Err(format!(
                "unknown flags: {} (see `e9tool` for usage)",
                many.iter()
                    .map(|k| format!("--{k}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )),
        }
    }
}

/// Read an input binary with diagnostics a user can act on: directories,
/// empty files and unreadable paths each get a specific message (and a
/// nonzero exit) instead of a confusing downstream parse error.
fn read_input(path: &str) -> Result<Vec<u8>, String> {
    let meta =
        std::fs::metadata(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if meta.is_dir() {
        return Err(format!("{path} is a directory, not an ELF binary"));
    }
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    if bytes.is_empty() {
        return Err(format!("{path} is empty (zero bytes), not an ELF binary"));
    }
    Ok(bytes)
}

/// Parse with the file name in the message ("demo.txt: bad magic ..."
/// beats a bare "bad magic").
fn parse_input(path: &str, bytes: &[u8]) -> Result<e9elf::Elf, String> {
    e9elf::Elf::parse(bytes).map_err(|e| format!("{path}: not a valid ELF binary: {e}"))
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    args.check_flags(&["tiny", "profile", "pie", "scale", "out"])?;
    let out = args.value("out").ok_or("gen requires -o OUT")?;
    let mut profile = if let Some(name) = args.value("tiny") {
        e9synth::Profile::tiny(name, args.flag("pie"))
    } else if let Some(name) = args.value("profile") {
        let scale: u64 = args
            .value("scale")
            .map(|s| s.parse().map_err(|_| "bad --scale"))
            .transpose()?
            .unwrap_or(e9synth::DEFAULT_SCALE);
        e9synth::all_profiles(scale)
            .into_iter()
            .find(|p| p.name == name)
            .ok_or_else(|| format!("unknown profile {name}; try perlbench, gcc, chrome ..."))?
    } else {
        return Err("gen requires --tiny NAME or --profile NAME".into());
    };
    // E9_SEED pins the generator stream irrespective of the profile name —
    // the hermetic-reproduction hook (two runs with the same seed must
    // produce byte-identical binaries).
    if let Ok(seed) = std::env::var("E9_SEED") {
        profile.seed = seed
            .trim()
            .parse()
            .map_err(|_| format!("bad E9_SEED {seed:?} (want a u64)"))?;
    }
    let sb = e9synth::generate(&profile);
    e9front::output::write_atomic(std::path::Path::new(out), &sb.binary)
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    println!(
        "wrote {out}: {} bytes, entry {:#x}, {} instructions, seed {}",
        sb.binary.len(),
        sb.entry,
        sb.disasm.len(),
        profile.seed
    );
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    args.check_flags(&[])?;
    let path = args.positional.first().ok_or("info requires BINARY")?;
    let bytes = read_input(path)?;
    let elf = parse_input(path, &bytes)?;
    println!("{path}: {} bytes", bytes.len());
    println!(
        "  type:  {}",
        if elf.is_pie() { "ET_DYN (PIE/shared object)" } else { "ET_EXEC" }
    );
    println!("  entry: {:#x}", elf.entry());
    println!("  segments:");
    for p in &elf.phdrs {
        let kind = match p.p_type {
            e9elf::types::PT_LOAD => "LOAD",
            e9elf::types::PT_NOTE => "NOTE",
            _ => "OTHER",
        };
        println!(
            "    {kind:<6} vaddr {:#012x} filesz {:#8x} memsz {:#8x} flags {}{}{}",
            p.p_vaddr,
            p.p_filesz,
            p.p_memsz,
            if p.p_flags & e9elf::types::PF_R != 0 { "r" } else { "-" },
            if p.p_flags & e9elf::types::PF_W != 0 { "w" } else { "-" },
            if p.p_flags & e9elf::types::PF_X != 0 { "x" } else { "-" },
        );
    }
    if !elf.sections.is_empty() {
        println!("  sections:");
        for s in elf.sections.iter().filter(|s| !s.name.is_empty()) {
            println!("    {:<16} addr {:#012x} size {:#x}", s.name, s.sh_addr, s.sh_size);
        }
    }
    Ok(())
}

fn cmd_disasm(args: &Args) -> Result<(), String> {
    args.check_flags(&["limit"])?;
    let path = args.positional.first().ok_or("disasm requires BINARY")?;
    let bytes = read_input(path)?;
    // Parse first so a non-ELF file is diagnosed by name, then sweep.
    let elf = parse_input(path, &bytes)?;
    let disasm = e9front::disassemble_text(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let limit: usize = args
        .value("limit")
        .map(|s| s.parse().map_err(|_| "bad --limit"))
        .transpose()?
        .unwrap_or(usize::MAX);
    // Annotate function starts with their symbols when present.
    let symbols = e9elf::symbols::parse(&elf);
    let by_addr: std::collections::HashMap<u64, &str> =
        symbols.iter().map(|s| (s.value, s.name.as_str())).collect();
    for i in disasm.iter().take(limit) {
        if let Some(name) = by_addr.get(&i.addr) {
            println!("\n{:012x} <{}>:", i.addr, name);
        }
        println!("{}", e9x86::fmt::format_listing_line(i));
    }
    let a1 = disasm.iter().filter(|i| i.kind.is_jump()).count();
    let a2 = disasm.iter().filter(|i| i.is_heap_write()).count();
    eprintln!(
        "{} instructions ({a1} jump sites, {a2} heap-write sites)",
        disasm.len()
    );
    Ok(())
}

/// Resolve the rewrite-cache directory for `patch`/`hook` from flags and the
/// environment. `--cache-dir DIR` wins; otherwise `$E9CACHE_DIR` provides
/// an ambient default. `--no-cache` disables both. Contradictory spellings
/// are hard errors (exit 1), not silent precedence rules.
fn resolve_cache_dir(args: &Args) -> Result<Option<std::path::PathBuf>, String> {
    resolve_cache_dir_from(args, std::env::var_os("E9CACHE_DIR"))
}

fn resolve_cache_dir_from(
    args: &Args,
    env_dir: Option<std::ffi::OsString>,
) -> Result<Option<std::path::PathBuf>, String> {
    let explicit = args.flag("cache-dir");
    if args.flag("no-cache") && explicit {
        return Err(
            "--no-cache contradicts --cache-dir: pick one (see `e9tool` for usage)".into(),
        );
    }
    if explicit && args.flag("backend") {
        return Err(
            "--cache-dir applies to the in-process path; cache behind --backend \
             with `e9patchd --cache-dir` instead"
                .into(),
        );
    }
    if args.flag("no-cache") {
        return Ok(None);
    }
    if explicit {
        let dir = args.value("cache-dir").unwrap_or("");
        if dir.is_empty() {
            return Err("--cache-dir requires a DIR argument".into());
        }
        return Ok(Some(std::path::PathBuf::from(dir)));
    }
    if args.flag("backend") {
        // An ambient E9CACHE_DIR describes this process's cache; a remote
        // daemon has its own (--cache-dir on e9patchd). Ignore, don't error.
        return Ok(None);
    }
    Ok(env_dir.map(std::path::PathBuf::from))
}

/// Resolve the cache bypass threshold: `--cache-bypass-bytes N` wins,
/// else `$E9CACHE_BYPASS_BYTES`, else the library default (128 KiB).
/// `0` disables the bypass (every size is cached). A modifier only — it
/// never enables the cache by itself.
fn resolve_bypass_bytes(args: &Args) -> Result<Option<u64>, String> {
    if let Some(v) = args.value("cache-bypass-bytes") {
        return v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| "bad --cache-bypass-bytes (want a byte count)".into());
    }
    match std::env::var("E9CACHE_BYPASS_BYTES") {
        Ok(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("bad E9CACHE_BYPASS_BYTES {v:?} (want a byte count)")),
        Err(_) => Ok(None),
    }
}

/// Where `patch` and `hook` run the rewrite.
enum Route {
    /// In-process, uncached.
    Local,
    /// In-process through the cache at DIR, with an optional bypass
    /// threshold.
    Cached(std::path::PathBuf, Option<u64>),
    /// On the `--backend` daemon, which applies its own cache policy.
    Backend(String),
}

/// Resolve `--backend`, `--cache-dir`/`--no-cache` and
/// `--cache-bypass-bytes` (and their environment defaults) into a
/// [`Route`]. Nothing is opened yet, so flag errors come before any
/// input is read. The cache flags describe this process's cache, so
/// spelling one out next to `--backend` is an error; the ambient
/// environment variables are ignored there.
fn resolve_route(args: &Args) -> Result<Route, String> {
    let cache_dir = resolve_cache_dir(args)?;
    if let Some(spec) = args.value("backend") {
        if args.flag("cache-bypass-bytes") {
            return Err("--cache-bypass-bytes applies to the in-process cache; set the \
                        threshold behind --backend with `e9patchd --cache-bypass-bytes` instead"
                .into());
        }
        return Ok(Route::Backend(spec.to_string()));
    }
    let bypass_bytes = resolve_bypass_bytes(args)?;
    Ok(match cache_dir {
        Some(dir) => Route::Cached(dir, bypass_bytes),
        None => Route::Local,
    })
}

/// Open `route` (the cache, or a backend connection), run the job on it,
/// and print the `cache: hit|miss|bypass` line and, for an in-process
/// cache, its counter summary.
fn run_on<T>(
    route: Route,
    run: impl FnOnce(e9front::Exec) -> Result<T, e9front::FrontError>,
    outcome: impl Fn(&T) -> Option<&e9front::CacheOutcome>,
) -> Result<T, String> {
    let (res, summary) = match route {
        Route::Local => (run(e9front::Exec::Local), None),
        Route::Cached(dir, bypass_bytes) => {
            let cache = e9cache::Cache::open(&e9cache::CacheConfig {
                dir: Some(dir.clone()),
                bypass_bytes,
                ..e9cache::CacheConfig::default()
            })
            .map_err(|e| format!("cannot open cache {}: {e}", dir.display()))?;
            let res = run(e9front::Exec::Cached(&cache));
            (res, Some(cache.stats().summary()))
        }
        Route::Backend(spec) => (run(e9front::Exec::Backend(&mut backend_client(&spec)?)), None),
    };
    let res = res.map_err(|e| e.to_string())?;
    if let Some(c) = outcome(&res) {
        let digest = c.digest.as_deref().unwrap_or("");
        match c.disposition {
            e9proto::CacheDisposition::Hit => println!("cache: hit {digest}"),
            e9proto::CacheDisposition::Bypass => {
                println!("cache: bypass (input below threshold, not keyed)");
            }
            _ => println!("cache: miss — stored {digest}"),
        }
    }
    if let Some(summary) = summary {
        println!("{summary}");
    }
    Ok(res)
}

/// Validate the address part of a `--backend tcp:ADDR:PORT` spec.
///
/// The check is purely syntactic (host non-empty, numeric port) so a
/// malformed spec fails fast with a named diagnostic instead of a
/// connect timeout against a nonsense address.
fn check_tcp_backend(rest: &str) -> Result<(), String> {
    let malformed = || {
        Err(format!(
            "--backend tcp: wants ADDR:PORT (e.g. tcp:127.0.0.1:9990), got tcp:{rest}"
        ))
    };
    // rsplit: the host part may itself contain colons ([::1]:9990).
    match rest.rsplit_once(':') {
        Some((host, port)) if !host.is_empty() && port.parse::<u16>().is_ok() => Ok(()),
        _ => malformed(),
    }
}

/// Open the protocol backend named by `--backend`: `stdio` spawns the
/// default daemon as a child, `tcp:ADDR:PORT` connects to a TCP daemon;
/// anything else is a Unix socket path.
fn backend_client(spec: &str) -> Result<e9proto::ProtoClient, String> {
    if spec == "stdio" {
        return e9proto::ProtoClient::spawn_default().map_err(|e| e.to_string());
    }
    if let Some(rest) = spec.strip_prefix("tcp:") {
        check_tcp_backend(rest)?;
        return e9proto::ProtoClient::connect_tcp_retry(rest, 4)
            .map_err(|e| format!("cannot connect to backend tcp:{rest}: {e}"));
    }
    #[cfg(unix)]
    {
        e9proto::ProtoClient::connect_unix(std::path::Path::new(spec)).map_err(|e| e.to_string())
    }
    #[cfg(not(unix))]
    {
        Err(format!("socket backends are unix-only, cannot use {spec}"))
    }
}

/// The flags `patch` and `hook` share: output, rewriter configuration
/// ([`rewrite_config_from`]) and where the job runs ([`resolve_route`]).
const REWRITE_FLAGS: &[&str] = &[
    "out", "no-t1", "no-t2", "no-t3", "b0", "granularity", "no-grouping", "backend", "cache-dir",
    "no-cache", "cache-bypass-bytes",
];

/// Build the rewriter configuration from the shared tactic/size flags
/// (`patch` and `hook` accept the same set), refusing one the rewriter
/// cannot run before any backend or cache work starts.
fn rewrite_config_from(args: &Args) -> Result<RewriteConfig, String> {
    let cfg = RewriteConfig {
        tactics: Tactics {
            t1: !args.flag("no-t1"),
            t2: !args.flag("no-t2"),
            t3: !args.flag("no-t3"),
        },
        b0_fallback: args.flag("b0"),
        grouping: !args.flag("no-grouping"),
        granularity: args
            .value("granularity")
            .map(|s| s.parse().map_err(|_| "bad --granularity"))
            .transpose()?
            .unwrap_or(1),
        ..RewriteConfig::default()
    };
    cfg.check().map_err(|e| format!("bad --granularity: {e}"))?;
    Ok(cfg)
}

fn cmd_patch(args: &Args) -> Result<(), String> {
    args.check_flags(&[REWRITE_FLAGS, &["app", "payload", "report", "verify"]].concat())?;
    let route = resolve_route(args)?;
    let path = args.positional.first().ok_or("patch requires BINARY")?;
    let out_path = args.value("out").ok_or("patch requires -o OUT")?;
    let bytes = read_input(path)?;
    // Fail on a non-ELF input before any backend/daemon work starts.
    parse_input(path, &bytes)?;

    let app = match args.value("app").unwrap_or("a1") {
        "a1" => Application::A1Jumps,
        "a2" => Application::A2HeapWrites,
        "a3" => Application::A3Calls,
        "all" => Application::AllInstructions,
        other => return Err(format!("unknown --app {other}")),
    };
    let payload = match args.value("payload").unwrap_or("empty") {
        "empty" => Payload::Empty,
        "counter" => Payload::Counter,
        "counters" => Payload::CounterPerSite,
        "lowfat" => Payload::LowFat,
        "trace" => Payload::Trace,
        other => return Err(format!("unknown --payload {other}")),
    };
    let config = rewrite_config_from(args)?;

    let opts = Options { app, payload, config };
    let disasm = e9front::disassemble_text(&bytes).map_err(|e| e.to_string())?;
    let res = run_on(
        route,
        |exec| e9front::instrument_on(&bytes, &disasm, &opts, exec),
        |r| r.cache.as_ref(),
    )?;
    e9front::output::write_atomic(std::path::Path::new(out_path), &res.rewrite.binary)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    if args.flag("verify") {
        let orig = parse_input(path, &bytes)?;
        let patched = e9elf::Elf::parse(&res.rewrite.binary).map_err(|e| e.to_string())?;
        match e9patch::verify::verify(
            &orig,
            &patched,
            &disasm,
            &res.rewrite.mappings,
            &res.rewrite.reports,
        ) {
            Ok(rep) => println!(
                "verify: OK — {} preserved, {} diverted instruction starts",
                rep.preserved, rep.diverted
            ),
            Err(violations) => {
                for v in &violations {
                    eprintln!("verify: {v}");
                }
                return Err(format!("{} verification violations", violations.len()));
            }
        }
    }
    if args.flag("report") {
        println!("site report (processing order, highest address first):");
        for r in &res.rewrite.reports {
            match (r.tactic, r.trampoline) {
                (Some(t), Some(tr)) => {
                    println!("  {:#012x} len {:>2} → {:<3} trampoline {:#x}", r.addr, r.insn_len, t.to_string(), tr)
                }
                (Some(t), None) => {
                    println!("  {:#012x} len {:>2} → {}", r.addr, r.insn_len, t)
                }
                _ => println!("  {:#012x} len {:>2} → FAILED", r.addr, r.insn_len),
            }
        }
    }
    let s = res.rewrite.stats;
    println!(
        "patched {}/{} sites (B1 {} | B2 {} | T1 {} | T2 {} | T3 {} | B0 {} | failed {})",
        s.succeeded() + s.b0,
        s.total(),
        s.b1,
        s.b2,
        s.t1,
        s.t2,
        s.t3,
        s.b0,
        s.failed
    );
    println!(
        "output {}: {} bytes ({:.1}% of input), {} mappings, granularity M={}",
        out_path,
        res.rewrite.binary.len(),
        res.rewrite.size.size_pct(),
        res.rewrite.size.mappings,
        res.rewrite.size.granularity
    );
    Ok(())
}

/// Parse one address: decimal or `0x`-prefixed hex.
fn parse_addr(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let parsed = match t.strip_prefix("0x") {
        Some(h) => u64::from_str_radix(h, 16),
        None => t.parse(),
    };
    parsed.map_err(|_| format!("bad address {t:?} (want decimal or 0x-prefixed hex)"))
}

fn cmd_hook(args: &Args) -> Result<(), String> {
    args.check_flags(&[REWRITE_FLAGS, &["func", "addr", "payload", "call-original"]].concat())?;
    let route = resolve_route(args)?;
    let path = args.positional.first().ok_or("hook requires BINARY")?;
    let out_path = args.value("out").ok_or("hook requires -o OUT")?;
    let bytes = read_input(path)?;
    parse_input(path, &bytes)?;

    let funcs: Vec<String> = args
        .value("func")
        .map(|v| {
            v.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(String::from)
                .collect()
        })
        .unwrap_or_default();
    let addrs: Vec<u64> = args
        .value("addr")
        .map(|v| {
            v.split(',')
                .filter(|s| !s.trim().is_empty())
                .map(parse_addr)
                .collect::<Result<Vec<_>, _>>()
        })
        .transpose()?
        .unwrap_or_default();
    if funcs.is_empty() && addrs.is_empty() {
        return Err("hook requires --func NAME[,NAME..] or --addr ADDR[,ADDR..]".into());
    }
    let payload = match args.value("payload").unwrap_or("counter") {
        "counter" => e9hook::PayloadKind::Counter,
        "nop" => e9hook::PayloadKind::Nop,
        other => return Err(format!("unknown --payload {other} (hook wants counter|nop)")),
    };
    let spec = e9hook::HookSpec {
        funcs,
        addrs,
        call_original: args.flag("call-original"),
        payload,
    };
    let config = rewrite_config_from(args)?;

    // Text frontend with the executable-segment fallback: stripped
    // binaries (the --addr targeting mode) often have no .text section.
    let disasm = match e9front::disassemble_text(&bytes) {
        Ok(d) => d,
        Err(_) => e9front::disassemble_exec_segments(&bytes).map_err(|e| e.to_string())?,
    };
    let res = run_on(
        route,
        |exec| e9front::hook_on(&bytes, &disasm, &spec, config, exec),
        |h| h.cache.as_ref(),
    )?;
    e9front::output::write_atomic(std::path::Path::new(out_path), &res.rewrite.binary)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    for h in &res.hooks {
        println!(
            "  hook {:>3} {:<24} {:#012x} payload {:#x}{}",
            h.id,
            h.name,
            h.func_addr,
            h.payload_addr,
            if h.is_call_original() {
                format!(" thunk {:#x}", h.thunk_addr)
            } else {
                String::new()
            }
        );
    }
    let s = res.rewrite.stats;
    println!(
        "hooked {}/{} function(s) (manifest {:#x}{})",
        s.succeeded() + s.b0,
        res.hooks.len(),
        res.manifest_addr,
        match res.counters_addr {
            Some(a) => format!(", counters {a:#x}"),
            None => String::new(),
        }
    );
    println!(
        "output {}: {} bytes ({:.1}% of input)",
        out_path,
        res.rewrite.binary.len(),
        res.rewrite.size.size_pct(),
    );
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    args.check_flags(&["lowfat", "max-steps", "hex-output", "hook-counters"])?;
    let path = args.positional.first().ok_or("run requires BINARY")?;
    let bytes = read_input(path)?;
    let max_steps: u64 = args
        .value("max-steps")
        .map(|s| s.parse().map_err(|_| "bad --max-steps"))
        .transpose()?
        .unwrap_or(2_000_000_000);
    let mut vm = e9vm::Vm::new();
    if args.flag("lowfat") {
        vm.set_heap(Box::new(e9lowfat::LowFatAllocator::new()));
    }
    e9vm::load_elf(&mut vm, &bytes).map_err(|e| format!("{path}: {e}"))?;
    let r = vm.run(max_steps).map_err(|e| e.to_string())?;
    if args.flag("hex-output") {
        println!("output: {:02x?}", r.output);
    } else if !r.output.is_empty() {
        use std::io::Write;
        std::io::stdout().write_all(&r.output).ok();
    }
    eprintln!(
        "exit {} | {} instructions retired | cost {}",
        r.exit_code, r.insns, r.steps
    );
    if args.flag("hook-counters") {
        // Read the per-hook call counters back through the binary's own
        // manifest. Reported on stderr (like the exit line) so stdout
        // stays byte-comparable program output.
        let elf = parse_input(path, &bytes)?;
        match e9hook::manifest::find_in_elf(&elf).map_err(|e| format!("{path}: {e}"))? {
            None => eprintln!("{path}: no hook manifest"),
            Some(recs) => {
                for h in &recs {
                    let calls = if h.counter_addr != 0 {
                        vm.mem.read_le(h.counter_addr, 8).unwrap_or(0)
                    } else {
                        0
                    };
                    eprintln!(
                        "hook {:>3} {:<24} {:#012x} calls {}",
                        h.id, h.name, h.func_addr, calls
                    );
                }
            }
        }
    }
    Ok(())
}

fn cmd_health(args: &Args) -> Result<(), String> {
    args.check_flags(&["backend", "json"])?;
    let spec = args
        .value("backend")
        .ok_or("health wants --backend (socket path, tcp:ADDR:PORT or stdio)")?;
    let mut client = backend_client(spec)?;
    let reply = client.health().map_err(|e| e.to_string())?;
    if args.flag("json") {
        println!("{}", reply.to_json().serialize());
        return Ok(());
    }
    println!("{}", reply.summary());
    println!("  serving mode:  {}", reply.serving_mode);
    println!(
        "  shed:          {} at admission, {} busy replies",
        reply.shed_admission, reply.shed_busy
    );
    if reply.faults_enabled {
        println!(
            "  faults:        enabled, {} injected, spec {:?}",
            reply.faults_injected, reply.fault_spec
        );
    } else {
        println!("  faults:        disabled");
    }
    if reply.cache.enabled {
        let s = &reply.cache.stats;
        println!(
            "  cache:         enabled, disk tier {}",
            if reply.cache.disk { "on" } else { "off" }
        );
        println!(
            "  cache breaker: {} ({} trips, {} recoveries, {} fast-fails, {} probes)",
            if s.disk_breaker_open {
                "OPEN — memory-only degraded mode"
            } else {
                "closed"
            },
            s.disk_breaker_trips,
            s.disk_breaker_recoveries,
            s.disk_breaker_fast_fails,
            s.disk_breaker_probes,
        );
    } else {
        println!("  cache:         disabled");
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().map(|s| s.as_str()) else {
        return usage();
    };
    let args = Args::parse(&argv[1..]);
    let result = match cmd {
        "gen" => cmd_gen(&args),
        "info" => cmd_info(&args),
        "disasm" => cmd_disasm(&args),
        "patch" => cmd_patch(&args),
        "hook" => cmd_hook(&args),
        "run" => cmd_run(&args),
        "health" => cmd_health(&args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e9tool {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn check_flags_accepts_known_rejects_unknown() {
        let args = parse(&["demo.elf", "-o", "out.e9", "--b0", "--granularity", "4"]);
        assert!(args.check_flags(&["out", "b0", "granularity"]).is_ok());
        let err = args.check_flags(&["out", "b0"]).unwrap_err();
        assert!(err.contains("--granularity"), "{err}");
        // Several unknowns are all listed, deterministically sorted.
        let args = parse(&["x", "--zeta", "--alpha"]);
        let err = args.check_flags(&[]).unwrap_err();
        assert!(err.contains("--alpha, --zeta"), "{err}");
    }

    #[test]
    fn typo_of_a_value_flag_is_rejected_not_ignored() {
        // A user typing --granularty 4 must get an error, not a silent
        // default-granularity rewrite.
        let args = parse(&["demo.elf", "-o", "o.e9", "--granularty", "4"]);
        assert!(args.check_flags(&["out", "granularity"]).is_err());
    }

    #[test]
    fn backend_takes_a_value() {
        let args = parse(&["demo.elf", "-o", "o.e9", "--backend", "/tmp/e9.sock"]);
        assert_eq!(args.value("backend"), Some("/tmp/e9.sock"));
        assert_eq!(args.positional, vec!["demo.elf".to_string()]);
    }

    #[test]
    fn no_cache_with_cache_dir_is_a_named_conflict() {
        let args = parse(&["x", "-o", "o", "--no-cache", "--cache-dir", "/tmp/c"]);
        let err = resolve_cache_dir_from(&args, None).unwrap_err();
        assert!(err.contains("--no-cache"), "{err}");
        assert!(err.contains("--cache-dir"), "{err}");
    }

    #[test]
    fn cache_dir_with_backend_is_rejected_with_guidance() {
        let args = parse(&["x", "-o", "o", "--backend", "stdio", "--cache-dir", "/tmp/c"]);
        let err = resolve_cache_dir_from(&args, None).unwrap_err();
        assert!(err.contains("e9patchd --cache-dir"), "{err}");
    }

    #[test]
    fn cache_dir_flag_wins_over_environment() {
        let args = parse(&["x", "-o", "o", "--cache-dir", "/flag"]);
        let dir = resolve_cache_dir_from(&args, Some("/env".into())).unwrap();
        assert_eq!(dir, Some(std::path::PathBuf::from("/flag")));
    }

    #[test]
    fn environment_provides_a_default_and_no_cache_disables_it() {
        let plain = parse(&["x", "-o", "o"]);
        let dir = resolve_cache_dir_from(&plain, Some("/env".into())).unwrap();
        assert_eq!(dir, Some(std::path::PathBuf::from("/env")));
        let off = parse(&["x", "-o", "o", "--no-cache"]);
        assert_eq!(resolve_cache_dir_from(&off, Some("/env".into())).unwrap(), None);
    }

    #[test]
    fn ambient_cache_dir_is_ignored_behind_a_backend() {
        // env var + --backend silently caches nothing (the daemon owns its
        // cache); only the explicit flag spelling is a hard error.
        let args = parse(&["x", "-o", "o", "--backend", "stdio"]);
        assert_eq!(resolve_cache_dir_from(&args, Some("/env".into())).unwrap(), None);
    }

    #[test]
    fn cache_dir_requires_an_argument() {
        let args = parse(&["x", "-o", "o", "--cache-dir"]);
        let err = resolve_cache_dir_from(&args, None).unwrap_err();
        assert!(err.contains("DIR"), "{err}");
    }

    #[test]
    fn tcp_backend_accepts_well_formed_addresses() {
        assert!(check_tcp_backend("127.0.0.1:9990").is_ok());
        assert!(check_tcp_backend("localhost:1").is_ok());
        assert!(check_tcp_backend("[::1]:9990").is_ok());
    }

    #[test]
    fn malformed_tcp_backend_is_a_named_diagnostic() {
        // Missing port, empty host, non-numeric or out-of-range port:
        // each names the flag and the offending spec.
        for bad in ["", "127.0.0.1", ":9990", "host:", "host:http", "host:99999"] {
            let err = check_tcp_backend(bad).unwrap_err();
            assert!(err.contains("--backend tcp:"), "{err}");
            assert!(err.contains("ADDR:PORT"), "{err}");
            assert!(err.contains(&format!("tcp:{bad}")), "{err}");
        }
    }
}
