//! Refusing a line that is not JSON costs memory proportional to its
//! nesting, not its length, pinned with a counting allocator.
//!
//! Both line decoders read a line in one pass without a tree. A line the
//! pass stops on is not JSON, and its parse error used to come from
//! `json::parse`, which builds the whole tree before it reaches the
//! error: one long `params` object, one closing brace short, cost many
//! times its own length. The error is now worded by `json::check`, which
//! walks the line as the parser does and builds nothing. A `hook`
//! request's `funcs` array is stepped over whole until the assembly reads
//! it, so a long one cut short costs no more to refuse.
//!
//! A `#[global_allocator]` shim counts bytes requested while a tracking
//! flag is set. Everything runs in ONE `#[test]` so no concurrent test
//! thread can allocate into the window.

use e9proto::json;
use e9proto::msg::{code, Request, Response};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static TRACKING: AtomicBool = AtomicBool::new(false);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) {
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if TRACKING.load(Ordering::Relaxed) && new_size > layout.size() {
            ALLOCATED.fetch_add((new_size - layout.size()) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes allocated while running `f`.
fn allocated_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATED.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    let result = f();
    TRACKING.store(false, Ordering::SeqCst);
    (ALLOCATED.load(Ordering::SeqCst), result)
}

#[test]
fn a_line_that_is_not_json_is_refused_without_a_tree() {
    // Room for the error reply and its message, far below the line.
    const BUDGET: u64 = 4 << 10;
    // A `params` object of 200,000 members, one closing brace short.
    let mut line = br#"{"jsonrpc":"2.0","id":1,"method":"instruction","params":{"#.to_vec();
    for i in 0..200_000 {
        if i > 0 {
            line.push(b',');
        }
        line.extend_from_slice(br#""a":1"#);
    }
    let want_request = Request::decode_line_via_tree(&line).unwrap_err();
    let want_response = json::parse(&line).unwrap_err().to_string();
    let (tree, _) = allocated_during(|| json::parse(&line));
    assert!(
        tree > line.len() as u64,
        "the tree costs more than the line: {tree} bytes"
    );

    let (bytes, got) = allocated_during(|| Request::decode_line(&line));
    let got = got.unwrap_err();
    assert!(bytes <= BUDGET, "request refusal allocated {bytes} bytes");
    assert_eq!(got, want_request);
    assert_eq!(got.body.map_err(|e| e.code), Err(code::PARSE));

    let (bytes, got) = allocated_during(|| Response::decode_line(&line));
    assert!(bytes <= BUDGET, "reply refusal allocated {bytes} bytes");
    assert_eq!(got.unwrap_err(), want_response);

    // A `hook` request whose `funcs` array of 200,000 one-character
    // strings is one `]` short. The array is stepped over whole, not read
    // element by element, so nothing is built before the syntax error.
    let mut line = br#"{"jsonrpc":"2.0","id":2,"method":"hook","params":{"funcs":["#.to_vec();
    for i in 0..200_000 {
        if i > 0 {
            line.push(b',');
        }
        line.extend_from_slice(br#""a""#);
    }
    line.extend_from_slice(br#","addrs":[],"call_original":false,"payload":{"kind":"nop"}}}"#);
    let want_request = Request::decode_line_via_tree(&line).unwrap_err();
    let (bytes, got) = allocated_during(|| Request::decode_line(&line));
    let got = got.unwrap_err();
    assert!(bytes <= BUDGET, "hook refusal allocated {bytes} bytes");
    assert_eq!(got, want_request);
    assert_eq!(got.body.map_err(|e| e.code), Err(code::PARSE));
}
