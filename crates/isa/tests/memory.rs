//! Differential test of `MainMemory` against a byte-map reference.
//!
//! Random mixed-width reads and writes run against both the paged
//! memory and a `BTreeMap<u32, u8>` that holds one entry per written
//! byte. Addresses are drawn to hit the page fast path, unaligned
//! accesses, page-straddling accesses and the wrap past `0xffff_ffff`.
//! Every read must agree, and so must the count of resident pages.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use waymem_isa::MainMemory;

/// A byte-at-a-time little-endian reference memory.
#[derive(Default)]
struct Reference(BTreeMap<u32, u8>);

impl Reference {
    fn read(&self, addr: u32, size: u32) -> u32 {
        (0..size).fold(0, |v, i| {
            let b = self.0.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
            v | (u32::from(b) << (8 * i))
        })
    }

    fn write(&mut self, addr: u32, size: u32, value: u32) {
        for i in 0..size {
            self.0
                .insert(addr.wrapping_add(i), (value >> (8 * i)) as u8);
        }
    }

    fn resident_pages(&self) -> usize {
        self.0
            .keys()
            .map(|a| a >> 12)
            .collect::<BTreeSet<_>>()
            .len()
    }
}

fn addrs() -> impl Strategy<Value = u32> {
    prop_oneof![
        // Anywhere at all.
        any::<u32>(),
        // A handful of words in one page, so reads see earlier writes.
        (0u32..64).prop_map(|d| 0x0004_0000 + d),
        // Around a page boundary: the last bytes of one page, the first of
        // the next.
        (0u32..16).prop_map(|d| 0x0004_0ff8 + d),
        // The top of the address space, where accesses wrap to 0.
        (0u32..8).prop_map(|d| 0xffff_fff8 + d),
        // The bottom, where wrapped accesses land.
        0u32..8,
    ]
}

/// `(is_write, size, addr, value)`.
fn ops() -> impl Strategy<Value = Vec<(bool, u32, u32, u32)>> {
    prop::collection::vec(
        (any::<bool>(), 0u32..3, addrs(), any::<u32>())
            .prop_map(|(w, s, addr, value)| (w, 1 << s, addr, value)),
        1..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn paged_memory_matches_a_byte_map(ops in ops()) {
        let mut mem = MainMemory::new();
        let mut reference = Reference::default();
        for (is_write, size, addr, value) in ops {
            if is_write {
                match size {
                    1 => mem.write_u8(addr, value as u8),
                    2 => mem.write_u16(addr, value as u16),
                    _ => mem.write_u32(addr, value),
                }
                reference.write(addr, size, value);
            } else {
                let got = match size {
                    1 => u32::from(mem.read_u8(addr)),
                    2 => u32::from(mem.read_u16(addr)),
                    _ => mem.read_u32(addr),
                };
                prop_assert_eq!(got, reference.read(addr, size), "{}-byte read at {:#x}", size, addr);
            }
        }
        prop_assert_eq!(mem.resident_pages(), reference.resident_pages());
    }

    #[test]
    fn load_image_matches_byte_writes(
        base in addrs(),
        image in prop::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut mem = MainMemory::new();
        mem.load_image(base, &image);
        let mut reference = Reference::default();
        for (i, &b) in image.iter().enumerate() {
            reference.write(base.wrapping_add(i as u32), 1, u32::from(b));
        }
        for i in 0..image.len() as u32 + 4 {
            let addr = base.wrapping_add(i);
            prop_assert_eq!(u32::from(mem.read_u8(addr)), reference.read(addr, 1));
        }
        prop_assert_eq!(mem.resident_pages(), reference.resident_pages());
    }
}
