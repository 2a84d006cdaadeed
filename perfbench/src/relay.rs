//! A line-counting relay between a protocol client and `e9patchd`. The
//! oracle runs the real front-end drivers through it, untimed, to learn
//! the wire calls and the request and reply bytes each job really makes.

use std::io::{Read, Write};
use std::net::Shutdown;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};

/// One connection's traffic, as the daemon saw it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Traffic {
    /// Request lines (one per call).
    pub calls: u64,
    pub req_bytes: u64,
    /// Reply lines.
    pub replies: u64,
    pub reply_bytes: u64,
}

impl Traffic {
    pub fn add(&mut self, t: Traffic) {
        self.calls += t.calls;
        self.req_bytes += t.req_bytes;
        self.replies += t.replies;
        self.reply_bytes += t.reply_bytes;
    }
}

pub struct Relay {
    listener: UnixListener,
    path: PathBuf,
    daemon: PathBuf,
}

impl Relay {
    /// Listen on `path`; connections are forwarded to the daemon socket.
    pub fn bind(path: &Path, daemon: &Path) -> Result<Relay, String> {
        let listener = UnixListener::bind(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Relay {
            listener,
            path: path.to_path_buf(),
            daemon: daemon.to_path_buf(),
        })
    }

    /// Run `f` with a client connected through the relay, close the
    /// connection, and return `f`'s result with the connection's traffic.
    pub fn measure<R>(
        &self,
        f: impl FnOnce(&mut e9proto::ProtoClient) -> R,
    ) -> Result<(R, Traffic), String> {
        std::thread::scope(|sc| {
            let forward = sc.spawn(|| self.forward_one());
            let r = match e9proto::ProtoClient::connect_unix(&self.path) {
                Ok(mut client) => f(&mut client),
                Err(e) => {
                    // Unblock the accept so the forwarding thread ends.
                    let _ = UnixStream::connect(&self.path);
                    let _ = forward.join();
                    return Err(format!("relay connect: {e}"));
                }
            };
            let traffic = forward
                .join()
                .map_err(|_| "relay thread panicked".to_string())?
                .map_err(|e| format!("relay: {e}"))?;
            Ok((r, traffic))
        })
    }

    /// Accept one client and forward both directions until each side has
    /// closed its end.
    fn forward_one(&self) -> std::io::Result<Traffic> {
        let (client, _) = self.listener.accept()?;
        let daemon = UnixStream::connect(&self.daemon)?;
        std::thread::scope(|sc| {
            let replies = sc.spawn(|| pump(&daemon, &client));
            let requests = pump(&client, &daemon);
            if requests.is_err() {
                // Unblock the reply pump.
                let _ = daemon.shutdown(Shutdown::Both);
            }
            let (replies, reply_bytes) = replies.join().expect("reply pump")?;
            let (calls, req_bytes) = requests?;
            Ok(Traffic {
                calls,
                req_bytes,
                replies,
                reply_bytes,
            })
        })
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Copy `from` to `to` until end of file, then close `to` for writing;
/// return the lines and bytes copied.
fn pump(mut from: &UnixStream, mut to: &UnixStream) -> std::io::Result<(u64, u64)> {
    let mut buf = vec![0u8; 1 << 16];
    let (mut lines, mut bytes) = (0u64, 0u64);
    loop {
        let n = from.read(&mut buf)?;
        if n == 0 {
            let _ = to.shutdown(Shutdown::Write);
            return Ok((lines, bytes));
        }
        lines += buf[..n].iter().filter(|&&b| b == b'\n').count() as u64;
        bytes += n as u64;
        to.write_all(&buf[..n])?;
    }
}
