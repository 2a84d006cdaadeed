//! The price of carrying failpoints in release builds.
//!
//! `e9failpt` stays compiled into production binaries so operators can
//! inject faults into the real artifact (`E9FAILPOINTS=...`), which
//! means every instrumented I/O site pays the *disabled* check on every
//! call — one relaxed atomic load and a branch. These benches pin that
//! cost, the cost when injection is active but the point does not match
//! (the slow path without a fault), and the end-to-end effect on a real
//! instrumented syscall path (`write_atomic`), so a regression that
//! turns the checks into a measurable tax on the hot path shows up here
//! rather than in a production profile.

use e9bench::harness::Harness;
use std::hint::black_box;

fn main() {
    let mut h = Harness::from_args("failpoint");

    // The common case everywhere: injection disabled. One relaxed load.
    h.bench("check_disabled", || {
        black_box(e9failpt::check(black_box("bench.never.armed")))
    });
    h.bench("fail_io_disabled", || {
        black_box(e9failpt::fail_io(black_box("bench.never.armed")).is_ok())
    });
    h.bench("write_len_disabled", || {
        black_box(e9failpt::write_len(black_box("bench.never.armed"), black_box(4096)).unwrap())
    });

    // Injection active, but aimed elsewhere: the slow path walks the
    // spec and matches nothing. This is what every *other* I/O site
    // pays while one site is under test.
    {
        let _guard = e9failpt::activate_scoped("some.other.point=eio@always", 42).unwrap();
        h.bench("check_active_nonmatching", || {
            black_box(e9failpt::check(black_box("bench.never.armed")))
        });
    }

    // The instrumented real path: a full atomic write (create, write,
    // fsync, rename) of 64 KiB with its three failpoints disabled. The
    // checks must vanish into the syscall noise.
    {
        let dir = std::env::temp_dir().join(format!("e9bench-failpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dest = dir.join("artifact.bin");
        let payload = vec![0xABu8; 64 << 10];
        h.bench("write_atomic_64KiB_disabled", || {
            e9front::output::write_atomic(black_box(&dest), black_box(&payload)).unwrap()
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    h.note("points_instrumented", 13);
    h.finish();
}
