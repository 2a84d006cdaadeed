//! AT&T-syntax instruction formatter.
//!
//! Produces objdump-style listings for the instruction subset the
//! reproduction generates and patches. Instructions the formatter does not
//! know by name fall back to a byte listing with the decoded
//! classification, so output is always total.
//!
//! ```
//! use e9x86::{decode, fmt::format_insn};
//! let insn = decode(&[0x48, 0x89, 0x03], 0x401000).unwrap();
//! assert_eq!(format_insn(&insn), "mov %rax,(%rbx)");
//! ```

use crate::insn::{Cond, Insn, Kind, MemOperand, ModRm, Opcode};
use crate::reg::{Reg, Width};

fn cond_suffix(c: Cond) -> &'static str {
    match c {
        Cond::O => "o",
        Cond::No => "no",
        Cond::B => "b",
        Cond::Ae => "ae",
        Cond::E => "e",
        Cond::Ne => "ne",
        Cond::Be => "be",
        Cond::A => "a",
        Cond::S => "s",
        Cond::Ns => "ns",
        Cond::P => "p",
        Cond::Np => "np",
        Cond::L => "l",
        Cond::Ge => "ge",
        Cond::Le => "le",
        Cond::G => "g",
    }
}

fn fmt_mem(insn: &Insn, m: &MemOperand) -> String {
    if m.rip_relative {
        let target = insn.end().wrapping_add(m.disp as i64 as u64);
        return format!("{:#x}(%rip)", target);
    }
    let disp = if m.disp != 0 {
        if m.disp < 0 {
            format!("-{:#x}", -(m.disp as i64))
        } else {
            format!("{:#x}", m.disp)
        }
    } else {
        String::new()
    };
    match (m.base, m.index) {
        (Some(b), None) => format!("{disp}(%{})", b.name64()),
        (Some(b), Some((i, s))) => format!("{disp}(%{},%{},{s})", b.name64(), i.name64()),
        (None, Some((i, s))) => format!("{disp}(,%{},{s})", i.name64()),
        (None, None) => format!("{:#x}", m.disp),
    }
}

fn reg_name(insn: &Insn, num: u8, w: Width) -> String {
    format!(
        "%{}",
        Reg::from_num(num).name_w(w, insn.prefixes().rex.is_some())
    )
}

fn rm_str(insn: &Insn, m: &ModRm, w: Width) -> String {
    match &m.mem {
        Some(mem) => fmt_mem(insn, mem),
        None => reg_name(insn, m.rm, w),
    }
}

fn reg_str(insn: &Insn, m: &ModRm, w: Width) -> String {
    reg_name(insn, m.reg, w)
}

fn imm_str(insn: &Insn) -> String {
    if insn.imm() < 0 {
        format!("$-{:#x}", -(insn.imm() as i128))
    } else {
        format!("${:#x}", insn.imm())
    }
}

fn width_suffix(w: Width) -> &'static str {
    match w {
        Width::B => "b",
        Width::W => "w",
        Width::D => "l",
        Width::Q => "q",
    }
}

const ALU_NAMES: [&str; 8] = ["add", "or", "adc", "sbb", "and", "sub", "xor", "cmp"];
const SHIFT_NAMES: [&str; 8] = ["rol", "ror", "rcl", "rcr", "shl", "shr", "sal", "sar"];
const GRP3_NAMES: [&str; 8] = ["test", "test", "not", "neg", "mul", "imul", "div", "idiv"];

fn fallback(insn: &Insn) -> String {
    let bytes: Vec<String> = insn.bytes().iter().map(|b| format!("{b:02x}")).collect();
    format!("(bytes {})", bytes.join(" "))
}

/// Render `insn` in AT&T syntax.
pub fn format_insn(insn: &Insn) -> String {
    let w = insn.width;
    // Branches first (their targets need the address).
    match insn.kind {
        Kind::JmpRel8 | Kind::JmpRel32 => {
            return format!("jmp {:#x}", insn.branch_target().unwrap());
        }
        Kind::JccRel8(c) | Kind::JccRel32(c) => {
            return format!("j{} {:#x}", cond_suffix(c), insn.branch_target().unwrap());
        }
        Kind::CallRel32 => {
            return format!("call {:#x}", insn.branch_target().unwrap());
        }
        Kind::JmpInd => {
            let m = insn.modrm().unwrap();
            return format!("jmp *{}", rm_str(insn, &m, Width::Q));
        }
        Kind::CallInd => {
            let m = insn.modrm().unwrap();
            return format!("call *{}", rm_str(insn, &m, Width::Q));
        }
        Kind::Ret => {
            return if insn.imm() != 0 {
                format!("ret {}", imm_str(insn))
            } else {
                "ret".to_string()
            };
        }
        Kind::Int3 => return "int3".to_string(),
        Kind::Syscall => return "syscall".to_string(),
        Kind::LoopRel8 => {
            let name = match insn.opcode() {
                Opcode::One(0xE0) => "loopne",
                Opcode::One(0xE1) => "loope",
                Opcode::One(0xE2) => "loop",
                _ => "jrcxz",
            };
            return format!("{name} {:#x}", insn.branch_target().unwrap());
        }
        Kind::Other => {}
    }

    match insn.opcode() {
        // ALU family.
        Opcode::One(op) if op < 0x40 && !matches!(op & 7, 6 | 7) => {
            let name = ALU_NAMES[(op >> 3) as usize];
            let m = insn.modrm();
            match op & 7 {
                0 | 1 => {
                    let m = m.unwrap();
                    format!("{name} {},{}", reg_str(insn, &m, w), rm_str(insn, &m, w))
                }
                2 | 3 => {
                    let m = m.unwrap();
                    format!("{name} {},{}", rm_str(insn, &m, w), reg_str(insn, &m, w))
                }
                _ => format!("{name} {},{}", imm_str(insn), reg_name(insn, 0, w)),
            }
        }
        Opcode::One(op @ (0x80 | 0x81 | 0x83)) => {
            let _ = op;
            let m = insn.modrm().unwrap();
            let name = ALU_NAMES[(m.reg & 7) as usize];
            format!(
                "{name}{} {},{}",
                if m.mem.is_some() { width_suffix(w) } else { "" },
                imm_str(insn),
                rm_str(insn, &m, w)
            )
        }
        Opcode::One(0x84 | 0x85) => {
            let m = insn.modrm().unwrap();
            format!("test {},{}", reg_str(insn, &m, w), rm_str(insn, &m, w))
        }
        Opcode::One(0x86 | 0x87) => {
            let m = insn.modrm().unwrap();
            format!("xchg {},{}", reg_str(insn, &m, w), rm_str(insn, &m, w))
        }
        Opcode::One(0x88 | 0x89) => {
            let m = insn.modrm().unwrap();
            format!("mov {},{}", reg_str(insn, &m, w), rm_str(insn, &m, w))
        }
        Opcode::One(0x8A | 0x8B) => {
            let m = insn.modrm().unwrap();
            format!("mov {},{}", rm_str(insn, &m, w), reg_str(insn, &m, w))
        }
        Opcode::One(0x8D) => {
            let m = insn.modrm().unwrap();
            format!("lea {},{}", rm_str(insn, &m, w), reg_str(insn, &m, w))
        }
        Opcode::One(0x8F) => {
            let m = insn.modrm().unwrap();
            format!("pop {}", rm_str(insn, &m, Width::Q))
        }
        Opcode::One(0x63) => {
            let m = insn.modrm().unwrap();
            format!(
                "movsxd {},{}",
                rm_str(insn, &m, Width::D),
                reg_str(insn, &m, w)
            )
        }
        Opcode::One(op @ 0x50..=0x57) => {
            let r = (op & 7) | if insn.prefixes().rex_b() { 8 } else { 0 };
            format!("push {}", reg_name(insn, r, Width::Q))
        }
        Opcode::One(op @ 0x58..=0x5F) => {
            let r = (op & 7) | if insn.prefixes().rex_b() { 8 } else { 0 };
            format!("pop {}", reg_name(insn, r, Width::Q))
        }
        Opcode::One(0x68 | 0x6A) => format!("push {}", imm_str(insn)),
        Opcode::One(0x69 | 0x6B) => {
            let m = insn.modrm().unwrap();
            format!(
                "imul {},{},{}",
                imm_str(insn),
                rm_str(insn, &m, w),
                reg_str(insn, &m, w)
            )
        }
        Opcode::One(0x90) if !insn.prefixes().rex_b() => "nop".to_string(),
        Opcode::One(op @ 0x90..=0x97) => {
            let r = (op & 7) | if insn.prefixes().rex_b() { 8 } else { 0 };
            format!("xchg {},{}", reg_name(insn, 0, w), reg_name(insn, r, w))
        }
        Opcode::One(0x98) => if w == Width::Q { "cdqe" } else { "cwde" }.to_string(),
        Opcode::One(0x99) => if w == Width::Q { "cqo" } else { "cdq" }.to_string(),
        Opcode::One(0x9C) => "pushfq".to_string(),
        Opcode::One(0x9D) => "popfq".to_string(),
        Opcode::One(0xA8 | 0xA9) => {
            format!("test {},{}", imm_str(insn), reg_name(insn, 0, w))
        }
        Opcode::One(op @ 0xB0..=0xBF) => {
            let r = (op & 7) | if insn.prefixes().rex_b() { 8 } else { 0 };
            let aw = if op < 0xB8 { Width::B } else { w };
            format!("mov {},{}", imm_str(insn), reg_name(insn, r, aw))
        }
        Opcode::One(op @ (0xC0 | 0xC1 | 0xD0 | 0xD1 | 0xD2 | 0xD3)) => {
            let m = insn.modrm().unwrap();
            let name = SHIFT_NAMES[(m.reg & 7) as usize];
            let count = match op {
                0xC0 | 0xC1 => imm_str(insn),
                0xD0 | 0xD1 => "$1".to_string(),
                _ => "%cl".to_string(),
            };
            format!("{name} {count},{}", rm_str(insn, &m, w))
        }
        Opcode::One(0xC6 | 0xC7) => {
            let m = insn.modrm().unwrap();
            format!(
                "mov{} {},{}",
                if m.mem.is_some() { width_suffix(w) } else { "" },
                imm_str(insn),
                rm_str(insn, &m, w)
            )
        }
        Opcode::One(0xC9) => "leave".to_string(),
        Opcode::One(0xF6 | 0xF7) => {
            let m = insn.modrm().unwrap();
            let name = GRP3_NAMES[(m.reg & 7) as usize];
            if m.reg & 7 <= 1 {
                format!("{name} {},{}", imm_str(insn), rm_str(insn, &m, w))
            } else {
                format!("{name}{} {}", width_suffix(w), rm_str(insn, &m, w))
            }
        }
        Opcode::One(0xFE | 0xFF) => {
            let m = insn.modrm().unwrap();
            match m.reg & 7 {
                0 => format!("inc{} {}", width_suffix(w), rm_str(insn, &m, w)),
                1 => format!("dec{} {}", width_suffix(w), rm_str(insn, &m, w)),
                6 => format!("push {}", rm_str(insn, &m, Width::Q)),
                _ => fallback(insn),
            }
        }
        Opcode::TwoOf(0x1F) => "nop".to_string(),
        Opcode::TwoOf(op @ 0x40..=0x4F) => {
            let m = insn.modrm().unwrap();
            format!(
                "cmov{} {},{}",
                cond_suffix(Cond::from_nibble(op & 0xF)),
                rm_str(insn, &m, w),
                reg_str(insn, &m, w)
            )
        }
        Opcode::TwoOf(op @ 0x90..=0x9F) => {
            let m = insn.modrm().unwrap();
            format!(
                "set{} {}",
                cond_suffix(Cond::from_nibble(op & 0xF)),
                rm_str(insn, &m, Width::B)
            )
        }
        Opcode::TwoOf(0xAF) => {
            let m = insn.modrm().unwrap();
            format!("imul {},{}", rm_str(insn, &m, w), reg_str(insn, &m, w))
        }
        Opcode::TwoOf(op @ (0xB6 | 0xB7 | 0xBE | 0xBF)) => {
            let m = insn.modrm().unwrap();
            let name = if op < 0xBE { "movzx" } else { "movsx" };
            let src_w = if op & 1 == 0 { Width::B } else { Width::W };
            format!(
                "{name} {},{}",
                rm_str(insn, &m, src_w),
                reg_str(insn, &m, w)
            )
        }
        Opcode::TwoOf(0x0B) => "ud2".to_string(),
        Opcode::TwoOf(0xA2) => "cpuid".to_string(),
        Opcode::TwoOf(0x31) => "rdtsc".to_string(),
        Opcode::TwoOf(op @ 0xC8..=0xCF) => {
            let r = (op & 7) | if insn.prefixes().rex_b() { 8 } else { 0 };
            format!("bswap {}", reg_name(insn, r, w))
        }
        _ => fallback(insn),
    }
}

/// Render an objdump-style line: address, bytes, mnemonic.
pub fn format_listing_line(insn: &Insn) -> String {
    let bytes: Vec<String> = insn.bytes().iter().map(|b| format!("{b:02x}")).collect();
    format!(
        "{:>12x}: {:<30} {}",
        insn.addr,
        bytes.join(" "),
        format_insn(insn)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;

    fn fmt(bytes: &[u8]) -> String {
        format_insn(&decode(bytes, 0x401000).unwrap())
    }

    #[test]
    fn paper_figure1_sequence() {
        assert_eq!(fmt(&[0x48, 0x89, 0x03]), "mov %rax,(%rbx)");
        assert_eq!(fmt(&[0x48, 0x83, 0xC0, 0x20]), "add $0x20,%rax");
        assert_eq!(fmt(&[0x48, 0x31, 0xC1]), "xor %rax,%rcx");
        assert_eq!(fmt(&[0x83, 0x7B, 0xFC, 0x4D]), "cmpl $0x4d,-0x4(%rbx)");
    }

    #[test]
    fn figure2_instructions() {
        assert_eq!(fmt(&[0x89, 0xDD]), "mov %ebx,%ebp");
        assert_eq!(fmt(&[0xF6, 0x43, 0x18, 0x02]), "test $0x2,0x18(%rbx)");
        let i = decode(&[0xEB, 0x70], 0x422A61).unwrap();
        assert_eq!(format_insn(&i), "jmp 0x422ad3");
        let i = decode(&[0xE9, 0xBE, 0xFC, 0xFF, 0xFF], 0x422A63).unwrap();
        assert_eq!(format_insn(&i), "jmp 0x422726");
        let i = decode(&[0x74, 0x27], 0x422AD5).unwrap();
        assert_eq!(format_insn(&i), "je 0x422afe");
        assert_eq!(
            fmt(&[0xFF, 0x15, 0x6F, 0x2A, 0x2A, 0x00]),
            format!("call *{:#x}(%rip)", 0x401006 + 0x2A2A6F)
        );
    }

    #[test]
    fn branches_and_calls() {
        let i = decode(&[0xE8, 0x10, 0x00, 0x00, 0x00], 0x401000).unwrap();
        assert_eq!(format_insn(&i), "call 0x401015");
        assert_eq!(fmt(&[0xFF, 0xE0]), "jmp *%rax");
        assert_eq!(fmt(&[0xFF, 0x24, 0xD8]), "jmp *(%rax,%rbx,8)");
        assert_eq!(fmt(&[0xC3]), "ret");
        assert_eq!(fmt(&[0xC2, 0x10, 0x00]), "ret $0x10");
    }

    #[test]
    fn stack_and_moves() {
        assert_eq!(fmt(&[0x50]), "push %rax");
        assert_eq!(fmt(&[0x41, 0x57]), "push %r15");
        assert_eq!(fmt(&[0x58]), "pop %rax");
        assert_eq!(fmt(&[0x6A, 0x2A]), "push $0x2a");
        assert_eq!(fmt(&[0xB8, 0x05, 0, 0, 0]), "mov $0x5,%eax");
        assert_eq!(fmt(&[0x48, 0xB8, 1, 0, 0, 0, 0, 0, 0, 0]), "mov $0x1,%rax");
        assert_eq!(fmt(&[0xB0, 0x07]), "mov $0x7,%al");
        assert_eq!(fmt(&[0x9C]), "pushfq");
        assert_eq!(fmt(&[0x9D]), "popfq");
    }

    #[test]
    fn widths_and_registers() {
        assert_eq!(fmt(&[0x89, 0xD8]), "mov %ebx,%eax");
        assert_eq!(fmt(&[0x66, 0x89, 0xD8]), "mov %bx,%ax");
        assert_eq!(fmt(&[0x88, 0xD8]), "mov %bl,%al");
        assert_eq!(fmt(&[0x88, 0xF8]), "mov %bh,%al"); // no REX → high byte
        assert_eq!(fmt(&[0x40, 0x88, 0xF8]), "mov %dil,%al"); // REX → dil
        assert_eq!(fmt(&[0x45, 0x89, 0xC7]), "mov %r8d,%r15d");
    }

    #[test]
    fn memory_forms() {
        assert_eq!(fmt(&[0x48, 0x8B, 0x04, 0x24]), "mov (%rsp),%rax");
        assert_eq!(
            fmt(&[0x48, 0x89, 0x44, 0x8D, 0x10]),
            "mov %rax,0x10(%rbp,%rcx,4)"
        );
        assert_eq!(
            fmt(&[0x89, 0x04, 0x25, 0x00, 0x10, 0x00, 0x00]),
            "mov %eax,0x1000"
        );
        assert_eq!(
            fmt(&[0x48, 0x8D, 0x04, 0x8D, 0x00, 0x00, 0x00, 0x00]),
            "lea (,%rcx,4),%rax"
        );
    }

    #[test]
    fn group_instructions() {
        assert_eq!(fmt(&[0x48, 0xF7, 0xD8]), "negq %rax");
        assert_eq!(fmt(&[0x48, 0xF7, 0xD0]), "notq %rax");
        assert_eq!(fmt(&[0x48, 0xF7, 0xE1]), "mulq %rcx");
        assert_eq!(fmt(&[0x48, 0xF7, 0xF6]), "divq %rsi");
        assert_eq!(fmt(&[0x48, 0xFF, 0xC0]), "incq %rax");
        assert_eq!(fmt(&[0xFE, 0x0B]), "decb (%rbx)");
        assert_eq!(fmt(&[0x48, 0xC1, 0xE0, 0x03]), "shl $0x3,%rax");
        assert_eq!(fmt(&[0x48, 0xD3, 0xE7]), "shl %cl,%rdi");
    }

    #[test]
    fn extended_forms() {
        assert_eq!(fmt(&[0x0F, 0xB6, 0x07]), "movzx (%rdi),%eax");
        assert_eq!(fmt(&[0x48, 0x0F, 0xBE, 0x13]), "movsx (%rbx),%rdx");
        assert_eq!(fmt(&[0x48, 0x0F, 0xAF, 0xC1]), "imul %rcx,%rax");
        assert_eq!(fmt(&[0x0F, 0x94, 0xC0]), "sete %al");
        assert_eq!(fmt(&[0x48, 0x0F, 0x4C, 0xD9]), "cmovl %rcx,%rbx");
        assert_eq!(fmt(&[0x0F, 0xC8]), "bswap %eax");
        assert_eq!(fmt(&[0xCC]), "int3");
        assert_eq!(fmt(&[0x0F, 0x05]), "syscall");
        assert_eq!(fmt(&[0x0F, 0x0B]), "ud2");
        assert_eq!(fmt(&[0x90]), "nop");
        assert_eq!(fmt(&[0x0F, 0x1F, 0x44, 0x00, 0x00]), "nop");
    }

    #[test]
    fn fallback_is_total() {
        // An SSE instruction we don't name still formats.
        let s = fmt(&[0x0F, 0x58, 0xC1]); // addps
        assert!(s.starts_with("(bytes"), "{s}");
    }

    #[test]
    fn listing_line_shape() {
        let i = decode(&[0x48, 0x89, 0x03], 0x401000).unwrap();
        let line = format_listing_line(&i);
        assert!(line.contains("401000:"));
        assert!(line.contains("48 89 03"));
        assert!(line.ends_with("mov %rax,(%rbx)"));
    }

    #[test]
    fn negative_immediates() {
        assert_eq!(fmt(&[0x48, 0x83, 0xC0, 0xFF]), "add $-0x1,%rax");
        assert_eq!(fmt(&[0x48, 0x8B, 0x43, 0xF8]), "mov -0x8(%rbx),%rax");
    }
}
