use std::fmt;

/// Flat, sparsely allocated 32-bit byte-addressable main memory.
///
/// The memory the frv-lite [`Cpu`](crate::Cpu) executes against. Pages of
/// 4 kB are allocated on first touch; unwritten memory reads as zero,
/// which keeps traces deterministic. A 16- or 32-bit access that stays
/// inside one page looks its page up once; one that straddles a page
/// boundary (or wraps past `0xffff_ffff`) goes byte by byte.
///
/// ```
/// use waymem_isa::MainMemory;
///
/// let mut mem = MainMemory::new();
/// assert_eq!(mem.read_u32(0x8000_0000), 0);
/// mem.write_u32(0x8000_0000, 0x1122_3344);
/// assert_eq!(mem.read_u32(0x8000_0000), 0x1122_3344);
/// assert_eq!(mem.read_u8(0x8000_0000), 0x44); // little-endian
/// ```
#[derive(Clone, Default)]
pub struct MainMemory {
    /// Two-level page table: the top ten address bits pick a directory,
    /// the next ten a page in it. Directories are allocated on first
    /// touch too.
    dirs: Vec<Option<Box<Dir>>>,
    resident: usize,
}

type Page = [u8; PAGE_BYTES];
type Dir = [Option<Box<Page>>; DIR_PAGES];

const PAGE_BYTES: usize = 4096;
const PAGE_SHIFT: u32 = 12;
const DIR_PAGES: usize = 1024;
const DIR_SHIFT: u32 = 22;

impl fmt::Debug for MainMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MainMemory")
            .field("resident_pages", &self.resident)
            .finish_non_exhaustive()
    }
}

impl MainMemory {
    /// Creates an empty memory. All bytes read as zero until written.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn page(&self, addr: u32) -> Option<&Page> {
        let dir = self.dirs.get((addr >> DIR_SHIFT) as usize)?.as_deref()?;
        dir[(addr >> PAGE_SHIFT) as usize % DIR_PAGES].as_deref()
    }

    fn offset_of(addr: u32) -> usize {
        (addr as usize) & (PAGE_BYTES - 1)
    }

    /// The `N` bytes at `addr` when they lie in one page, or `None` when
    /// the access straddles a page boundary.
    fn read_in_page<const N: usize>(&self, addr: u32) -> Option<[u8; N]> {
        let off = Self::offset_of(addr);
        let bytes = match self.page(addr) {
            Some(page) => page.get(off..off + N)?.try_into().ok()?,
            None if off + N <= PAGE_BYTES => [0; N],
            None => return None,
        };
        Some(bytes)
    }

    /// Writes `bytes` at `addr` when they lie in one page; `false` (and
    /// nothing written) when the access straddles a page boundary.
    fn write_in_page<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) -> bool {
        let off = Self::offset_of(addr);
        if off + N > PAGE_BYTES {
            return false;
        }
        self.page_mut(addr)[off..off + N].copy_from_slice(&bytes);
        true
    }

    fn page_mut(&mut self, addr: u32) -> &mut Page {
        if self.dirs.is_empty() {
            self.dirs.resize_with(1 << (32 - DIR_SHIFT), || None);
        }
        let dir = self.dirs[(addr >> DIR_SHIFT) as usize]
            .get_or_insert_with(|| Box::new([const { None }; DIR_PAGES]));
        let slot = &mut dir[(addr >> PAGE_SHIFT) as usize % DIR_PAGES];
        if slot.is_none() {
            self.resident += 1;
        }
        slot.get_or_insert_with(|| Box::new([0; PAGE_BYTES]))
    }

    /// Reads one byte.
    #[must_use]
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.page(addr).map_or(0, |p| p[Self::offset_of(addr)])
    }

    /// Writes one byte, allocating the page if needed.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[Self::offset_of(addr)] = value;
    }

    /// Reads a little-endian 16-bit value (no alignment requirement).
    #[must_use]
    pub fn read_u16(&self, addr: u32) -> u16 {
        match self.read_in_page(addr) {
            Some(bytes) => u16::from_le_bytes(bytes),
            None => u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))]),
        }
    }

    /// Writes a little-endian 16-bit value.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        if !self.write_in_page(addr, value.to_le_bytes()) {
            self.write_bytes(addr, &value.to_le_bytes());
        }
    }

    /// Reads a little-endian 32-bit value (no alignment requirement).
    #[must_use]
    pub fn read_u32(&self, addr: u32) -> u32 {
        match self.read_in_page(addr) {
            Some(bytes) => u32::from_le_bytes(bytes),
            None => u32::from_le_bytes(std::array::from_fn(|i| {
                self.read_u8(addr.wrapping_add(i as u32))
            })),
        }
    }

    /// Writes a little-endian 32-bit value.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        if !self.write_in_page(addr, value.to_le_bytes()) {
            self.write_bytes(addr, &value.to_le_bytes());
        }
    }

    /// Writes `bytes` one at a time from `addr`, wrapping past the top of
    /// the address space.
    fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), b);
        }
    }

    /// Loads a byte slice at `base` (program loading, test setup).
    pub fn load_image(&mut self, base: u32, image: &[u8]) {
        let mut addr = base;
        let mut rest = image;
        while !rest.is_empty() {
            let off = Self::offset_of(addr);
            let n = rest.len().min(PAGE_BYTES - off);
            self.page_mut(addr)[off..off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            addr = addr.wrapping_add(n as u32);
        }
    }

    /// Number of 4 kB pages currently allocated.
    #[must_use]
    pub fn resident_pages(&self) -> usize {
        self.resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let mem = MainMemory::new();
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.read_u32(0xffff_fffc), 0);
        assert_eq!(mem.read_u32(0xffff_fffe), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn little_endian_round_trip() {
        let mut mem = MainMemory::new();
        mem.write_u32(0x100, 0xa1b2_c3d4);
        assert_eq!(mem.read_u8(0x100), 0xd4);
        assert_eq!(mem.read_u8(0x103), 0xa1);
        assert_eq!(mem.read_u16(0x102), 0xa1b2);
        assert_eq!(mem.read_u32(0x100), 0xa1b2_c3d4);
    }

    #[test]
    fn cross_page_access_works() {
        let mut mem = MainMemory::new();
        mem.write_u32(0xffe, 0x1234_5678); // straddles a 4 kB boundary
        assert_eq!(mem.read_u32(0xffe), 0x1234_5678);
        assert_eq!(mem.resident_pages(), 2);
    }

    #[test]
    fn cross_page_read_of_a_half_allocated_pair() {
        let mut mem = MainMemory::new();
        mem.write_u8(0xfff, 0xab);
        assert_eq!(mem.read_u16(0xfff), 0x00ab);
        assert_eq!(mem.read_u32(0xffd), 0x00ab_0000);
        assert_eq!(mem.resident_pages(), 1);
    }

    #[test]
    fn load_image_spans_pages() {
        let mut mem = MainMemory::new();
        let image: Vec<u8> = (0..=255).cycle().take(5000).collect();
        mem.load_image(0x2ff0, &image);
        assert_eq!(mem.resident_pages(), 3);
        for (i, &b) in image.iter().enumerate() {
            assert_eq!(mem.read_u8(0x2ff0 + i as u32), b);
        }
    }

    #[test]
    fn wrapping_addresses_do_not_panic() {
        let mut mem = MainMemory::new();
        mem.write_u32(0xffff_fffe, 0xdead_beef);
        assert_eq!(mem.read_u32(0xffff_fffe), 0xdead_beef);
        assert_eq!(mem.read_u16(0x0000_0000), 0xdead);
        mem.load_image(0xffff_ffff, &[1, 2]);
        assert_eq!(mem.read_u16(0xffff_ffff), 0x0201);
    }
}
