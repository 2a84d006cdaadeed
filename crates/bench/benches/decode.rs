//! Decoder micro-benchmarks: linear-sweep throughput over synthetic
//! `.text` (the frontend's dominant cost on a 100 MB browser binary).

use e9bench::harness::{Harness, Throughput};
use e9synth::{generate, Profile};
use std::hint::black_box;

fn main() {
    let mut h = Harness::from_args("decode");
    let prog = generate(&Profile::tiny("bench-decode", false));
    let elf = e9elf::Elf::parse(&prog.binary).unwrap();
    let text = elf.section_bytes(".text").unwrap().to_vec();

    h.throughput(Throughput::Bytes(text.len() as u64));
    h.bench(&format!("linear_sweep/{}", text.len()), || {
        e9x86::decode::linear_sweep(black_box(&text), 0x401000)
    });

    // The frontend on a realistic `.text`: hundreds of thousands of
    // instructions, so the sweep's stores to its output vector count.
    let gcc = e9synth::spec_profiles(2)
        .into_iter()
        .find(|p| p.name == "gcc")
        .expect("gcc profile");
    let bin = generate(&gcc).binary;
    let insns = e9front::disassemble_text(&bin).unwrap().len();
    h.throughput(Throughput::Elements(insns as u64));
    h.bench("disassemble_text/gcc_scale2", || {
        e9front::disassemble_text(black_box(&bin)).unwrap()
    });

    let bytes = [0x48u8, 0x89, 0x44, 0x8D, 0x10]; // mov %rax,0x10(%rbp,%rcx,4)
    h.throughput(Throughput::Bytes(bytes.len() as u64));
    h.bench("single_insn", || {
        e9x86::decode(black_box(&bytes), 0x401000).unwrap()
    });

    h.finish();
}
