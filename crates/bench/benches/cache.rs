//! Rewrite-cache performance over a size ladder: warm hits must beat
//! cold rewrites at every size the cache engages, and the keying hash
//! must not be the reason they don't.
//!
//! Per ladder rung (64 KiB → 128 MiB synthetic ELFs, same patch batch):
//! `patch_uncached` (the no-cache baseline) vs `patch_warm_mem` (memory-
//! tier hit: tree-digest keying + lookup + compact reply decode). The
//! smallest rung is also measured through a DEFAULT-configured cache to
//! time the bypass path — that rung sits below the 128 KiB threshold, so
//! a default cache never keys it at all. `patch_cold` and
//! `patch_warm_disk` stay on the small rung where their per-iteration
//! store/open cost is tolerable. The digest benches bound the fixed
//! keying cost every engaged patch pays.
//!
//! The JSON gains a `notes` object with `break_even_bytes`: the smallest
//! measured rung where the warm memory hit beats the uncached rewrite —
//! the measurement behind `DEFAULT_BYPASS_BYTES`. `scripts/verify.sh`
//! stage 7 gates on warm-beats-uncached at the largest rung.

use e9bench::harness::{Harness, Throughput};
use e9cache::{Cache, CacheConfig};
use e9front::{instrument_cached, instrument_with_disasm, Application, Options, Payload};
use std::hint::black_box;

const MIB: usize = 1 << 20;

/// A synthetic workload of roughly `total` bytes: a jump-dense text
/// section whose site count scales with the binary (one patch site per
/// KiB — an order of magnitude SPARSER than real instrumented binaries;
/// the paper's chrome workload patches ~1 jump per 90 bytes, so the
/// rewrite side of the comparison is charitable), plus an incompressible
/// rodata pad that carries the bulk of the size (what the hash and the
/// copy paths actually chew on).
fn ladder_binary(total: usize) -> (Vec<u8>, Vec<e9x86::insn::Insn>) {
    let sites = (total >> 10).max(64);
    let mut code = Vec::with_capacity(2 * sites + 1);
    for _ in 0..sites {
        code.extend_from_slice(&[0xEB, 0x00]); // jmp +0
    }
    code.push(0xC3); // ret
    let disasm = e9x86::decode::linear_sweep(&code, 0x401000);

    let pad_len = total.saturating_sub(8192).max(4096);
    let mut pad = vec![0u8; pad_len];
    let mut state = 0x9e3779b97f4a7c15u64 | 1;
    for chunk in pad.chunks_mut(8) {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        chunk.copy_from_slice(&state.to_le_bytes()[..chunk.len()]);
    }

    let mut b = e9elf::build::ElfBuilder::exec(0x400000);
    b.text(code, 0x401000);
    b.rodata(pad, 0x1000000);
    b.entry(0x401000);
    (b.build(), disasm)
}

fn main() {
    let mut h = Harness::from_args("cache");
    let opts = Options::new(Application::A1Jumps, Payload::Empty);

    // The ladder. Smoke runs keep only the small rungs so the CI gate
    // stays fast; full runs regenerate the committed JSON.
    let rungs: &[usize] = if h.is_smoke() {
        &[64 << 10, MIB]
    } else {
        &[64 << 10, MIB, 16 * MIB, 128 * MIB]
    };

    // Engaged-cache config: bypass off (we are measuring the cache, the
    // threshold is derived from these numbers) and a memory tier big
    // enough to admit the largest artifact.
    let engaged = CacheConfig {
        mem_bytes: Some(512 * MIB),
        bypass_bytes: Some(0),
        ..CacheConfig::default()
    };

    for &size in rungs {
        let (bin, disasm) = ladder_binary(size);
        let label = if size < MIB {
            format!("{}KiB", size >> 10)
        } else {
            format!("{}MiB", size / MIB)
        };

        h.throughput(Throughput::Bytes(bin.len() as u64));
        h.bench(&format!("patch_uncached/{label}"), || {
            instrument_with_disasm(black_box(&bin), &disasm, &opts).unwrap()
        });

        let warm = Cache::open(&engaged).unwrap();
        instrument_cached(&bin, &disasm, &opts, &warm).unwrap();
        h.throughput(Throughput::Bytes(bin.len() as u64));
        h.bench(&format!("patch_warm_mem/{label}"), || {
            instrument_cached(black_box(&bin), &disasm, &opts, &warm).unwrap()
        });
    }

    // The bypass path: the 64 KiB rung through a DEFAULT cache sits below
    // the threshold, so this times `should_bypass` + the plain rewrite —
    // what tiny inputs actually pay with a cache configured.
    {
        let (bin, disasm) = ladder_binary(64 << 10);
        let bypassing = Cache::in_memory();
        h.throughput(Throughput::Bytes(bin.len() as u64));
        h.bench("patch_bypass/64KiB", || {
            instrument_cached(black_box(&bin), &disasm, &opts, &bypassing).unwrap()
        });
        assert!(bypassing.stats().bypasses > 0, "64 KiB rung must bypass");
        assert_eq!(bypassing.stats().stores, 0);
    }

    // Cold (miss + store) and disk-tier warm hits, on the small rung
    // where per-iteration cache construction is tolerable.
    {
        let (bin, disasm) = ladder_binary(MIB);
        h.throughput(Throughput::Bytes(bin.len() as u64));
        h.bench("patch_cold/1MiB", || {
            let cache = Cache::open(&engaged).unwrap();
            instrument_cached(black_box(&bin), &disasm, &opts, &cache).unwrap()
        });

        let dir = std::env::temp_dir().join(format!("e9bench-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk_config = CacheConfig {
            dir: Some(dir.clone()),
            bypass_bytes: Some(0),
            ..CacheConfig::default()
        };
        let primer = Cache::open(&disk_config).unwrap();
        instrument_cached(&bin, &disasm, &opts, &primer).unwrap();
        drop(primer);
        h.throughput(Throughput::Bytes(bin.len() as u64));
        h.bench("patch_warm_disk/1MiB", || {
            let cache = Cache::open(&disk_config).unwrap();
            instrument_cached(black_box(&bin), &disasm, &opts, &cache).unwrap()
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Keying cost: flat SHA-256 throughput, and the tree digest that
    // actually keys large inputs.
    let buf_len = if h.is_smoke() { 4 * MIB } else { 64 * MIB };
    let mut buf = vec![0u8; buf_len];
    let mut state = 1u64;
    for chunk in buf.chunks_mut(8) {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        chunk.copy_from_slice(&state.to_le_bytes()[..chunk.len()]);
    }
    let flat_label = format!("sha256_digest/{}MiB", buf_len / MIB);
    h.throughput(Throughput::Bytes(buf.len() as u64));
    h.bench(&flat_label, || e9cache::digest(black_box(&buf)));
    h.throughput(Throughput::Bytes(buf.len() as u64));
    h.bench(&format!("tree_digest/{}MiB", buf_len / MIB), || {
        e9cache::tree::tree_digest(black_box(&buf), 1)
    });

    // Derived: the smallest rung where the warm memory hit beats the
    // uncached rewrite. Everything below is bypass territory.
    let mut break_even: Option<usize> = None;
    for &size in rungs {
        let label = if size < MIB {
            format!("{}KiB", size >> 10)
        } else {
            format!("{}MiB", size / MIB)
        };
        if let (Some(warm), Some(cold)) = (
            h.median_ns(&format!("patch_warm_mem/{label}")),
            h.median_ns(&format!("patch_uncached/{label}")),
        ) {
            if warm < cold && break_even.is_none() {
                break_even = Some(size);
            }
            println!(
                "  break-even probe {label}: warm {warm:.0} ns vs uncached {cold:.0} ns → {}",
                if warm < cold { "warm wins" } else { "uncached wins" }
            );
        }
    }
    match break_even {
        Some(size) => {
            println!("break-even: warm hits win from {size} bytes up");
            h.note("break_even_bytes", size);
        }
        None => {
            println!("break-even: warm hits never won — cache pessimized at every rung");
            h.note("break_even_bytes", "null");
        }
    }
    h.note("default_bypass_bytes", e9cache::DEFAULT_BYPASS_BYTES);

    h.finish();
}
