//! ELF symbol tables (`.symtab` / `.strtab`, with `.dynsym` fallback).
//!
//! E9Patch works on *stripped* binaries, but when symbols exist a frontend
//! can exploit them (better disassembly roots, human-readable reports,
//! symbol-driven hooking). The builder can emit function symbols; the
//! parser recovers them, falling back to the dynamic symbol table when the
//! static one has been stripped.

use crate::image::Elf;
use crate::types::SHT_PROGBITS;
use std::fmt;

/// `st_info` for a global function symbol (`STB_GLOBAL << 4 | STT_FUNC`).
pub const GLOBAL_FUNC: u8 = 0x12;

/// Size of one ELF64 symbol record.
pub const SYM_SIZE: usize = 24;

/// A (simplified) function symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name.
    pub name: String,
    /// Value (function address).
    pub value: u64,
    /// Size in bytes (0 if unknown).
    pub size: u64,
}

/// Serialize symbols into (`.symtab` bytes, `.strtab` bytes).
pub fn encode(symbols: &[Symbol]) -> (Vec<u8>, Vec<u8>) {
    let mut strtab = vec![0u8];
    let mut symtab = vec![0u8; SYM_SIZE]; // index 0: undefined symbol
    for s in symbols {
        let name_off = strtab.len() as u32;
        strtab.extend_from_slice(s.name.as_bytes());
        strtab.push(0);
        let mut rec = [0u8; SYM_SIZE];
        rec[0..4].copy_from_slice(&name_off.to_le_bytes());
        rec[4] = GLOBAL_FUNC;
        // st_shndx: leave 0 (our consumers key off value, not section).
        rec[8..16].copy_from_slice(&s.value.to_le_bytes());
        rec[16..24].copy_from_slice(&s.size.to_le_bytes());
        symtab.extend_from_slice(&rec);
    }
    (symtab, strtab)
}

/// Symbol-resolution failure, carrying enough context for a useful
/// diagnostic instead of a bare miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymbolError {
    /// The binary has no symbol table at all (fully stripped — callers
    /// should fall back to explicit addresses).
    Stripped,
    /// No symbol matched `name`; `nearest` holds the closest candidate
    /// names (by edit distance, best first) to aid typo diagnosis.
    NotFound {
        /// The name (or glob pattern) that failed to resolve.
        name: String,
        /// Up to three nearest candidate symbol names, best first.
        nearest: Vec<String>,
    },
}

impl fmt::Display for SymbolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolError::Stripped => {
                write!(
                    f,
                    "binary has no symbol table (stripped); use an explicit address"
                )
            }
            SymbolError::NotFound { name, nearest } => {
                write!(f, "symbol {name:?} not found")?;
                if !nearest.is_empty() {
                    write!(f, "; nearest candidates: {}", nearest.join(", "))?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SymbolError {}

/// Parse function symbols out of a binary's `.symtab`/`.strtab` sections,
/// falling back to `.dynsym`/`.dynstr` when the static table is stripped.
/// Returns an empty vec for fully stripped binaries.
pub fn parse(elf: &Elf) -> Vec<Symbol> {
    let (symtab, strtab) = match (elf.section_bytes(".symtab"), elf.section_bytes(".strtab")) {
        (Some(sym), Some(str_)) => (sym, str_),
        _ => match (elf.section_bytes(".dynsym"), elf.section_bytes(".dynstr")) {
            (Some(sym), Some(str_)) => (sym, str_),
            _ => return Vec::new(),
        },
    };
    let mut out = Vec::new();
    for rec in symtab.chunks_exact(SYM_SIZE).skip(1) {
        let name_off = u32::from_le_bytes(rec[0..4].try_into().unwrap()) as usize;
        let info = rec[4];
        if info & 0xF != 2 {
            continue; // not STT_FUNC
        }
        let value = u64::from_le_bytes(rec[8..16].try_into().unwrap());
        let size = u64::from_le_bytes(rec[16..24].try_into().unwrap());
        let name = strtab
            .get(name_off..)
            .and_then(|s| s.split(|&b| b == 0).next())
            .map(|s| String::from_utf8_lossy(s).into_owned())
            .unwrap_or_default();
        out.push(Symbol { name, value, size });
    }
    out.sort_by_key(|s| s.value);
    out
}

/// Shell-style glob match over symbol names: `*` matches any run of
/// characters (including empty), `?` matches exactly one. Anything else
/// matches literally. Used by hook planning to select families like
/// `malloc*` in one pattern.
pub fn glob_match(pattern: &str, name: &str) -> bool {
    // Iterative two-pointer matcher with single-star backtracking: O(p·n)
    // worst case, constant stack — symbol names are untrusted input.
    let (p, n) = (pattern.as_bytes(), name.as_bytes());
    let (mut pi, mut ni) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ni < n.len() {
        if pi < p.len() && (p[pi] == b'?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = Some((pi, ni));
            pi += 1;
        } else if let Some((sp, sn)) = star {
            pi = sp + 1;
            ni = sn + 1;
            star = Some((sp, sn + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// Does `pattern` contain glob metacharacters?
pub fn is_glob(pattern: &str) -> bool {
    pattern.contains('*') || pattern.contains('?')
}

/// Levenshtein edit distance, used to rank "did you mean" candidates.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ac) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &bc) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ac != bc);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Up to three symbol names nearest to `name` by edit distance, best first.
/// Ties break alphabetically so diagnostics are deterministic.
fn nearest_candidates(symbols: &[Symbol], name: &str) -> Vec<String> {
    let mut ranked: Vec<(usize, &str)> = symbols
        .iter()
        .map(|s| (edit_distance(name, &s.name), s.name.as_str()))
        .collect();
    ranked.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(b.1)));
    ranked
        .into_iter()
        .take(3)
        .map(|(_, n)| n.to_string())
        .collect()
}

/// Resolve `pattern` (an exact name or a glob) against `symbols`,
/// returning every match in address order.
///
/// # Errors
///
/// [`SymbolError::Stripped`] when `symbols` is empty, and
/// [`SymbolError::NotFound`] — naming the nearest candidates — when
/// nothing matches.
pub fn resolve<'a>(symbols: &'a [Symbol], pattern: &str) -> Result<Vec<&'a Symbol>, SymbolError> {
    if symbols.is_empty() {
        return Err(SymbolError::Stripped);
    }
    let matches: Vec<&Symbol> = if is_glob(pattern) {
        symbols
            .iter()
            .filter(|s| glob_match(pattern, &s.name))
            .collect()
    } else {
        symbols.iter().filter(|s| s.name == pattern).collect()
    };
    if matches.is_empty() {
        return Err(SymbolError::NotFound {
            name: pattern.to_string(),
            nearest: nearest_candidates(symbols, pattern),
        });
    }
    Ok(matches)
}

/// The section type used when emitting via [`crate::build::ElfBuilder`]
/// notes (we reuse the non-alloc note channel, typed as PROGBITS like a
/// real `.symtab`'s payload for our simplified consumers).
pub const SECTION_TYPE: u32 = SHT_PROGBITS;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::ElfBuilder;

    #[test]
    fn roundtrip_through_binary() {
        let syms = vec![
            Symbol {
                name: "main".into(),
                value: 0x401000,
                size: 0x40,
            },
            Symbol {
                name: "helper".into(),
                value: 0x401040,
                size: 0x20,
            },
        ];
        let (symtab, strtab) = encode(&syms);
        let mut b = ElfBuilder::exec(0x400000);
        b.text(vec![0xC3], 0x401000);
        b.entry(0x401000);
        b.note(".symtab", symtab);
        b.note(".strtab", strtab);
        let elf = Elf::parse(&b.build()).unwrap();
        assert_eq!(parse(&elf), syms);
    }

    #[test]
    fn stripped_binary_has_no_symbols() {
        let mut b = ElfBuilder::exec(0x400000);
        b.text(vec![0xC3], 0x401000);
        b.entry(0x401000);
        let elf = Elf::parse(&b.build()).unwrap();
        assert!(parse(&elf).is_empty());
    }

    #[test]
    fn dynsym_fallback_when_symtab_stripped() {
        let syms = vec![Symbol {
            name: "exported".into(),
            value: 0x401000,
            size: 0x10,
        }];
        let (symtab, strtab) = encode(&syms);
        let mut b = ElfBuilder::exec(0x400000);
        b.text(vec![0xC3], 0x401000);
        b.entry(0x401000);
        b.note(".dynsym", symtab);
        b.note(".dynstr", strtab);
        let elf = Elf::parse(&b.build()).unwrap();
        assert_eq!(parse(&elf), syms);
    }

    #[test]
    fn symtab_preferred_over_dynsym() {
        let stat = vec![Symbol {
            name: "s".into(),
            value: 0x401000,
            size: 0,
        }];
        let dynv = vec![Symbol {
            name: "d".into(),
            value: 0x401000,
            size: 0,
        }];
        let (st, ss) = encode(&stat);
        let (dt, ds) = encode(&dynv);
        let mut b = ElfBuilder::exec(0x400000);
        b.text(vec![0xC3], 0x401000);
        b.entry(0x401000);
        b.note(".symtab", st);
        b.note(".strtab", ss);
        b.note(".dynsym", dt);
        b.note(".dynstr", ds);
        let parsed = parse(&Elf::parse(&b.build()).unwrap());
        assert_eq!(parsed[0].name, "s");
    }

    #[test]
    fn glob_matching() {
        assert!(glob_match("malloc*", "malloc_usable_size"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("f????", "f0000"));
        assert!(glob_match("*lo*", "hello_world"));
        assert!(!glob_match("f???", "f0000"));
        assert!(!glob_match("malloc*", "calloc"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
        // Untrusted-input safety: long names, many stars, no blowup.
        let long = "a".repeat(100_000);
        assert!(glob_match("*a*a*a*a*b*", &(long.clone() + "b")));
        assert!(!glob_match("*a*a*a*a*b", &long));
    }

    #[test]
    fn resolve_exact_glob_and_errors() {
        let syms = vec![
            Symbol {
                name: "main".into(),
                value: 0x401000,
                size: 0,
            },
            Symbol {
                name: "f0000".into(),
                value: 0x401100,
                size: 0,
            },
            Symbol {
                name: "f0001".into(),
                value: 0x401200,
                size: 0,
            },
        ];
        assert_eq!(resolve(&syms, "main").unwrap()[0].value, 0x401000);
        let globbed = resolve(&syms, "f*").unwrap();
        assert_eq!(globbed.len(), 2);
        // Miss names the nearest candidates, best first.
        let err = resolve(&syms, "f0002").unwrap_err();
        match &err {
            SymbolError::NotFound { name, nearest } => {
                assert_eq!(name, "f0002");
                assert_eq!(nearest[0], "f0000"); // distance 1, alphabetical tie-break
                assert!(nearest.contains(&"f0001".to_string()));
            }
            other => panic!("unexpected error: {other:?}"),
        }
        assert!(err.to_string().contains("nearest candidates: f0000"));
        // Glob with no match is NotFound too, not Stripped.
        assert!(matches!(
            resolve(&syms, "g*"),
            Err(SymbolError::NotFound { .. })
        ));
        // Empty table is the stripped case.
        assert_eq!(resolve(&[], "main"), Err(SymbolError::Stripped));
    }

    #[test]
    fn symbols_sorted_by_address() {
        let syms = vec![
            Symbol {
                name: "z".into(),
                value: 0x402000,
                size: 0,
            },
            Symbol {
                name: "a".into(),
                value: 0x401000,
                size: 0,
            },
        ];
        let (symtab, strtab) = encode(&syms);
        let mut b = ElfBuilder::exec(0x400000);
        b.text(vec![0xC3], 0x401000);
        b.entry(0x401000);
        b.note(".symtab", symtab);
        b.note(".strtab", strtab);
        let parsed = parse(&Elf::parse(&b.build()).unwrap());
        assert_eq!(parsed[0].name, "a");
        assert_eq!(parsed[1].name, "z");
    }
}
