//! # e9lowfat — low-fat-pointer heap model and redzone checker
//!
//! The paper's §6.3 hardening application detects heap buffer overflows by
//! encoding bounds information in the **bit representation of the pointer
//! itself** (low-fat pointers, Duck & Yap CC'16): the heap is carved into
//! giant *regions*, one per size class, so `region(p)` determines the
//! allocation size and `base(p)` is a mask away. The E9Patch
//! instrumentation enforces a redzone by checking `p − base(p) ≥ 16` on
//! every heap write.
//!
//! This crate supplies both halves:
//!
//! * [`LowFatAllocator`] — the allocation policy (power-of-two size
//!   classes, per-class regions, 16-byte front redzones), pluggable into
//!   the emulator as its heap backend (replacing the paper's
//!   `LD_PRELOAD`ed `liblowfat.so`);
//! * [`runtime`] — real x86-64 machine code for the redzone check
//!   function called from every A2 trampoline, plus its masks table and
//!   violation counter, packaged as segments for the rewriter.

use e9vm::HeapAllocator;

pub mod runtime;

/// Base virtual address of the low-fat heap regions.
pub const REGION_BASE: u64 = 0x4000_0000_0000;
/// Size of one region (one per size class).
pub const REGION_SIZE: u64 = 1 << 32;
/// Number of size classes: 16 B … 32 MiB.
pub const NUM_CLASSES: usize = 22;
/// Smallest size class.
pub const MIN_CLASS: u64 = 16;
/// Redzone bytes at the start of every allocation slot.
pub const REDZONE: u64 = 16;

/// Size class (allocation slot size) for a request of `size` bytes,
/// including the front redzone. `None` if too large for any class.
pub fn size_class(size: u64) -> Option<u64> {
    let need = size.checked_add(REDZONE)?;
    let class = need.next_power_of_two().max(MIN_CLASS);
    if class > MIN_CLASS << (NUM_CLASSES - 1) {
        None
    } else {
        Some(class)
    }
}

/// Index of a size class within the region table.
pub fn class_index(class: u64) -> usize {
    (class.trailing_zeros() - MIN_CLASS.trailing_zeros()) as usize
}

/// Region index of pointer `p`, if it lies in the low-fat heap.
pub fn region_of(p: u64) -> Option<usize> {
    if p < REGION_BASE {
        return None;
    }
    let idx = ((p - REGION_BASE) / REGION_SIZE) as usize;
    if idx < NUM_CLASSES {
        Some(idx)
    } else {
        None
    }
}

/// Slot size of pointer `p` (`None` for non-low-fat pointers).
pub fn size_of_ptr(p: u64) -> Option<u64> {
    region_of(p).map(|i| MIN_CLASS << i)
}

/// Base address of the allocation slot containing `p` — the low-fat
/// `base(p)` operation: a mask, because slot sizes are powers of two and
/// regions are size-aligned.
pub fn base_of(p: u64) -> Option<u64> {
    let size = size_of_ptr(p)?;
    Some(p & !(size - 1))
}

/// Does a write through `p` violate the redzone property
/// `p − base(p) ≥ 16`? (Non-low-fat pointers never violate.)
pub fn violates_redzone(p: u64) -> bool {
    match base_of(p) {
        Some(b) => p - b < REDZONE,
        None => false,
    }
}

/// The low-fat allocator: per-class bump allocation inside size-aligned
/// slots; `malloc` returns `slot + REDZONE`.
#[derive(Debug)]
pub struct LowFatAllocator {
    next_slot: [u64; NUM_CLASSES],
    /// Allocations served.
    pub allocs: u64,
    /// Frees observed.
    pub frees: u64,
}

impl LowFatAllocator {
    /// Fresh allocator.
    pub fn new() -> LowFatAllocator {
        let mut next_slot = [0u64; NUM_CLASSES];
        for (i, slot) in next_slot.iter_mut().enumerate() {
            *slot = REGION_BASE + i as u64 * REGION_SIZE;
        }
        LowFatAllocator {
            next_slot,
            allocs: 0,
            frees: 0,
        }
    }

    /// The masks-table entry for each region: `size − 1`, used by the x86
    /// check function (`p & mask < 16` ⇒ violation).
    pub fn masks() -> [u64; NUM_CLASSES] {
        let mut m = [0u64; NUM_CLASSES];
        for (i, mask) in m.iter_mut().enumerate() {
            *mask = (MIN_CLASS << i) - 1;
        }
        m
    }
}

impl Default for LowFatAllocator {
    fn default() -> Self {
        LowFatAllocator::new()
    }
}

impl HeapAllocator for LowFatAllocator {
    fn malloc(&mut self, size: u64) -> u64 {
        let Some(class) = size_class(size) else {
            return 0;
        };
        let idx = class_index(class);
        let region_end = REGION_BASE + (idx as u64 + 1) * REGION_SIZE;
        let slot = self.next_slot[idx];
        if slot + class > region_end {
            return 0;
        }
        self.next_slot[idx] += class;
        self.allocs += 1;
        slot + REDZONE
    }

    fn free(&mut self, _ptr: u64) {
        self.frees += 1;
    }

    fn range(&self) -> (u64, u64) {
        (REGION_BASE, REGION_BASE + NUM_CLASSES as u64 * REGION_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes() {
        assert_eq!(size_class(1), Some(32)); // 1 + 16 → 32
        assert_eq!(size_class(16), Some(32));
        assert_eq!(size_class(48), Some(64));
        assert_eq!(size_class(100), Some(128));
        assert_eq!(size_class(u64::MAX), None);
        assert_eq!(class_index(16), 0);
        assert_eq!(class_index(32), 1);
    }

    #[test]
    fn malloc_returns_redzone_offset_pointers() {
        let mut a = LowFatAllocator::new();
        let p = a.malloc(20);
        assert_ne!(p, 0);
        let b = base_of(p).unwrap();
        assert_eq!(p - b, REDZONE);
        assert!(!violates_redzone(p));
        assert!(violates_redzone(p - 1)); // inside the redzone
        assert!(violates_redzone(b));
    }

    #[test]
    fn base_and_size_from_pointer_bits_alone() {
        let mut a = LowFatAllocator::new();
        let p = a.malloc(100); // class 128
        assert_eq!(size_of_ptr(p), Some(128));
        // Interior pointers resolve to the same slot.
        assert_eq!(base_of(p + 50), base_of(p));
        // One past the slot end lands in the next slot.
        let b = base_of(p).unwrap();
        assert_eq!(base_of(b + 128), Some(b + 128));
    }

    #[test]
    fn overflow_into_next_slot_hits_its_redzone() {
        // The detection mechanism: writing past an object's slot end lands
        // in the *next* slot's redzone.
        let mut a = LowFatAllocator::new();
        let p = a.malloc(100); // 128-byte slot, 112 usable
        let slot_end = base_of(p).unwrap() + 128;
        for overflow in 0..REDZONE {
            assert!(
                violates_redzone(slot_end + overflow),
                "overflow byte {overflow} undetected"
            );
        }
    }

    #[test]
    fn distinct_classes_use_distinct_regions() {
        let mut a = LowFatAllocator::new();
        let p32 = a.malloc(10);
        let p128 = a.malloc(100);
        assert_ne!(region_of(p32), region_of(p128));
        assert_eq!(size_of_ptr(p32), Some(32));
        assert_eq!(size_of_ptr(p128), Some(128));
    }

    #[test]
    fn non_lowfat_pointers_never_violate() {
        assert!(!violates_redzone(0));
        assert!(!violates_redzone(0x400000));
        assert!(!violates_redzone(REGION_BASE - 1));
        assert!(!violates_redzone(
            REGION_BASE + NUM_CLASSES as u64 * REGION_SIZE
        ));
    }

    #[test]
    fn masks_match_sizes() {
        let m = LowFatAllocator::masks();
        assert_eq!(m[0], 15);
        assert_eq!(m[1], 31);
        assert_eq!(m[NUM_CLASSES - 1], (MIN_CLASS << (NUM_CLASSES - 1)) - 1);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut a = LowFatAllocator::new();
        let mut slots = std::collections::HashSet::new();
        for size in [1u64, 16, 17, 100, 1000, 5000] {
            for _ in 0..10 {
                let p = a.malloc(size);
                assert_ne!(p, 0);
                assert!(slots.insert(base_of(p).unwrap()), "slot reuse");
            }
        }
        assert_eq!(a.allocs, 60);
    }
}
