//! `e9patchd` — the standalone patch-backend daemon.
//!
//! Serves the streaming JSON-RPC patch protocol (see the `e9proto` crate
//! docs) so external frontends can drive the rewriter without linking it:
//!
//! ```console
//! $ e9patchd --stdio                      # one session on stdin/stdout
//! $ e9patchd --socket /tmp/e9.sock        # daemon on a Unix socket
//! $ e9patchd --listen-tcp 127.0.0.1:9990  # daemon on TCP
//! $ e9patchd --socket /tmp/e9.sock --max-conns 1   # serve one job, exit
//! ```
//!
//! ## Serving modes
//!
//! The socket modes run the **reactor**: one `e9loop` epoll event loop
//! multiplexing every connection (thousands of concurrent sessions,
//! request pipelining, admission control, graceful drain). Replies are
//! byte-identical to `--stdio`, which runs the same line framer and the
//! same request dispatch. `--socket` and `--listen-tcp` can be combined
//! (one loop serves both). Every flag below lands in one `ServeConfig`;
//! its defaults are the ones listed. Socket modes need Linux.
//!
//! A client `shutdown` command stops the daemon cleanly: the listeners
//! close immediately (late connections are refused, never hung) while
//! in-flight work finishes and its replies are flushed. `--max-conns N`
//! drains after `N` accepted connections (handy for CI smoke stages).
//!
//! ## Overload: the BUSY contract
//!
//! The daemon never stalls on an overloaded or hostile client; it sheds
//! load with a typed `BUSY` (-7) error, `id: null`:
//!
//! * arrivals past `--max-clients` get one BUSY line, then close;
//! * requests arriving while queued replies exceed `--max-pending-bytes`
//!   are answered BUSY instead of dispatched;
//! * a client that stops reading its replies is disconnected once its
//!   queue passes the per-connection cap.
//!
//! Hardening knobs (all have safe defaults):
//!
//! * `--timeout-ms N` — idle timeout in milliseconds (default 30000; `0`
//!   disables): a connection with no bytes moving either way for that
//!   long is dropped.
//! * `--max-line-bytes N` — longest accepted request line, newline
//!   included (default 67108864 = 64 MiB), in every mode. Longer lines
//!   are discarded and answered with a typed `LIMIT` error, even when
//!   end of input cuts them off; the connection survives.
//! * `--drain-ms N` — on shutdown, how long an in-flight connection may
//!   sit inactive before being cut (default 5000).
//! * `--max-clients N` (default 1024) and `--max-pending-bytes N`
//!   (default 256 MiB) — the BUSY thresholds above. The per-connection
//!   reply queue cap is 256 MiB.
//!
//! Rewrite cache: `--cache-dir PATH` enables the two-tier
//! content-addressed cache (memory LRU in front of an on-disk CAS at
//! `PATH`), shared by every connection. `--cache-mem-bytes N` bounds (or,
//! alone, enables memory-only caching); `--cache-disk-bytes N` adds
//! size-budgeted LRU eviction of the disk tier. Clients observe hits via
//! the `cache`/`digest` fields of the `emit` reply and the `cache`
//! command (stats / clear).

use e9proto::server::ServeConfig;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "e9patchd — E9Patch backend daemon (protocol version {})

USAGE:
  e9patchd [--stdio]                        serve one session on stdio
  e9patchd --socket PATH [--max-conns N]    serve a Unix socket (reactor)
  e9patchd --listen-tcp ADDR:PORT           serve TCP (reactor; combinable
                                            with --socket, one event loop)

OPTIONS:
  --max-clients N       reactor connection cap; extra arrivals get a typed
                        BUSY error (default 1024)
  --max-pending-bytes N reactor loop-wide queued-reply budget; requests
                        over it get BUSY instead of stalling (default
                        268435456)
  --drain-ms N          shutdown drain inactivity bound in ms (default 5000)
  --timeout-ms N        idle timeout in ms (default 30000, 0 = none)
  --max-line-bytes N    longest accepted request line (default 67108864)
  --cache-dir PATH      enable the rewrite cache with an on-disk tier at PATH
  --cache-mem-bytes N   memory-tier budget in bytes (default 67108864;
                        without --cache-dir, enables memory-only caching)
  --cache-disk-bytes N  disk-tier budget in bytes (default: unbounded)
  --cache-bypass-bytes N  inputs below N bytes skip the cache entirely
                        (default 131072; 0 caches every size; modifier
                        only — does not enable the cache by itself)",
        e9proto::PROTOCOL_VERSION
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // Fault injection ships in release builds but stays inert (one
    // relaxed atomic load per I/O boundary) unless E9FAILPOINTS is set.
    match e9failpt::init_from_env() {
        Ok(true) => eprintln!(
            "e9patchd: fault injection active: {}",
            e9failpt::active_spec().unwrap_or_default()
        ),
        Ok(false) => {}
        Err(e) => {
            eprintln!("e9patchd: bad {}: {e}", e9failpt::ENV_SPEC);
            return ExitCode::from(2);
        }
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut socket: Option<String> = None;
    let mut listen_tcp: Option<String> = None;
    let mut stdio = false;
    let mut config = ServeConfig::default();
    let mut cache_config = e9cache::CacheConfig::default();
    let mut want_cache = false;
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--stdio" {
            stdio = true;
            i += 1;
            continue;
        }
        // Every other flag takes one value; a bad or missing one is a
        // usage error.
        let Some(v) = argv.get(i + 1) else {
            return usage();
        };
        i += 2;
        let knobs = &mut config.transport;
        let ok = match flag {
            "--socket" => {
                socket = Some(v.clone());
                true
            }
            "--listen-tcp" => {
                listen_tcp = Some(v.clone());
                true
            }
            "--max-conns" => v.parse().map(|n| knobs.accept_budget = Some(n)).is_ok(),
            "--max-clients" => positive(v).map(|n| knobs.max_clients = n).is_some(),
            "--max-pending-bytes" => v.parse().map(|n| knobs.pending_budget_bytes = n).is_ok(),
            "--drain-ms" => v
                .parse()
                .map(|ms| knobs.drain_timeout = Duration::from_millis(ms))
                .is_ok(),
            "--timeout-ms" => v
                .parse()
                .map(|ms| knobs.idle_timeout = (ms > 0).then(|| Duration::from_millis(ms)))
                .is_ok(),
            "--max-line-bytes" => positive(v).map(|n| knobs.max_line_bytes = n).is_some(),
            "--cache-dir" => {
                cache_config.dir = Some(std::path::PathBuf::from(v));
                want_cache = true;
                true
            }
            "--cache-mem-bytes" => {
                want_cache = true;
                v.parse().map(|n| cache_config.mem_bytes = Some(n)).is_ok()
            }
            "--cache-disk-bytes" => v.parse().map(|n| cache_config.disk_bytes = Some(n)).is_ok(),
            "--cache-bypass-bytes" => {
                v.parse().map(|n| cache_config.bypass_bytes = Some(n)).is_ok()
            }
            _ => false,
        };
        if !ok {
            return usage();
        }
    }
    let socket_mode = socket.is_some() || listen_tcp.is_some();
    if stdio && socket_mode {
        return usage();
    }
    if want_cache {
        match e9cache::Cache::open(&cache_config) {
            Ok(cache) => config.cache = Some(Arc::new(cache)),
            Err(e) => {
                eprintln!("e9patchd: cannot open cache: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let result = if !socket_mode {
        config.serving_mode = "stdio";
        e9proto::server::serve_stdio_with(&config)
    } else {
        #[cfg(target_os = "linux")]
        {
            config.serving_mode = "reactor";
            serve_reactor_mode(socket.as_deref(), listen_tcp.as_deref(), &config)
        }
        #[cfg(not(target_os = "linux"))]
        {
            eprintln!("e9patchd: socket modes need Linux (epoll); use --stdio");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e9patchd: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parse a count that must be at least one.
fn positive(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n >= 1)
}

/// Bind the requested listeners, announce them on stderr (the TCP line
/// prints the *resolved* address, so `--listen-tcp 127.0.0.1:0` callers
/// can parse the kernel-assigned port), and run the reactor.
#[cfg(target_os = "linux")]
fn serve_reactor_mode(
    socket: Option<&str>,
    listen_tcp: Option<&str>,
    config: &ServeConfig,
) -> std::io::Result<()> {
    use e9loop::Listener;
    let mut listeners = Vec::new();
    let mut sock_path = None;
    if let Some(path) = socket {
        let path = std::path::PathBuf::from(path);
        // Bind under a staging name and rename into place once listening:
        // the path then appears only when connections are accepted, so a
        // client that waits for it never meets a bound-but-deaf socket,
        // and a stale socket file is replaced atomically.
        let mut staging = path.clone().into_os_string();
        staging.push(".binding");
        let _ = std::fs::remove_file(&staging);
        let l = std::os::unix::net::UnixListener::bind(&staging)?;
        std::fs::rename(&staging, &path)?;
        eprintln!(
            "e9patchd: listening on {} (reactor, protocol version {})",
            path.display(),
            e9proto::PROTOCOL_VERSION
        );
        sock_path = Some(path);
        listeners.push(Listener::Unix(l));
    }
    if let Some(addr) = listen_tcp {
        let l = std::net::TcpListener::bind(addr)?;
        let local = l.local_addr()?;
        eprintln!(
            "e9patchd: listening on tcp {local} (reactor, protocol version {})",
            e9proto::PROTOCOL_VERSION
        );
        listeners.push(Listener::Tcp(l));
    }
    let result = e9proto::reactor::serve_reactor(listeners, config);
    if let Some(path) = sock_path {
        let _ = std::fs::remove_file(&path);
    }
    result.map(|_summary| ())
}
