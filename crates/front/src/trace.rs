//! Site-tracing runtime: an instrumentation hook that records the address
//! of every executed patch site into a ring buffer — the frontend's
//! analogue of the tracing/coverage tools built on E9Patch (e.g.
//! coverage-guided fuzzing, the paper's §1 motivation list).
//!
//! Layout of the data segment:
//!
//! ```text
//! +0   u64 cursor      (total events; ring index = cursor % capacity)
//! +8   u64 capacity
//! +16  u64 ring[capacity]
//! ```

use e9x86::asm::{Asm, Mem};
use e9x86::reg::{Reg, Width};

/// The assembled trace runtime.
#[derive(Debug, Clone)]
pub struct TraceRuntime {
    /// Address of the hook function (`fn(site in %rdi)`).
    pub hook_fn: u64,
    /// Address of the event counter / ring header.
    pub data_addr: u64,
    /// Ring capacity in events.
    pub capacity: u64,
    /// Executable code blob.
    pub code: Vec<u8>,
    /// Data blob (header + zeroed ring).
    pub data: Vec<u8>,
    /// Load address of `code`.
    pub code_vaddr: u64,
    /// Load address of `data`.
    pub data_vaddr: u64,
}

/// Assemble the trace runtime. `capacity` must be a power of two (the
/// ring index is computed with a mask).
///
/// # Panics
///
/// Panics if `capacity` is not a power of two.
pub fn build(code_vaddr: u64, data_vaddr: u64, capacity: u64) -> TraceRuntime {
    assert!(
        capacity.is_power_of_two(),
        "capacity must be a power of two"
    );
    let cursor_addr = data_vaddr;
    let ring_addr = data_vaddr + 16;

    let mut a = Asm::new(code_vaddr);
    // rdi = site address (argument); rax free; preserve rcx/rdx.
    a.push_r(Reg::Rcx);
    a.push_r(Reg::Rdx);
    a.mov_ri64(Reg::Rax, cursor_addr as i64);
    a.mov_rm(Width::Q, Reg::Rcx, Mem::base(Reg::Rax)); // cursor
    a.inc_m(Width::Q, Mem::base(Reg::Rax));
    a.and_ri(Width::Q, Reg::Rcx, (capacity - 1) as i32); // ring index
    a.mov_ri64(Reg::Rdx, ring_addr as i64);
    a.mov_mr(
        Width::Q,
        Mem::base_index(Reg::Rdx, Reg::Rcx, 8, 0),
        Reg::Rdi,
    );
    a.pop_r(Reg::Rdx);
    a.pop_r(Reg::Rcx);
    a.ret();
    let code = a.finish().expect("trace runtime assembly");

    let mut data = Vec::with_capacity(16 + capacity as usize * 8);
    data.extend_from_slice(&0u64.to_le_bytes()); // cursor
    data.extend_from_slice(&capacity.to_le_bytes());
    data.resize(16 + capacity as usize * 8, 0);

    TraceRuntime {
        hook_fn: code_vaddr,
        data_addr: data_vaddr,
        capacity,
        code,
        data,
        code_vaddr,
        data_vaddr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_decodes_cleanly() {
        let rt = build(0x10400000, 0x10500000, 64);
        let insns = e9x86::decode::linear_sweep(&rt.code, rt.code_vaddr);
        let total: usize = insns.iter().map(|i| i.len()).sum();
        assert_eq!(total, rt.code.len());
        assert_eq!(rt.data.len(), 16 + 64 * 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        build(0x10400000, 0x10500000, 100);
    }
}
