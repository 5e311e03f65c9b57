//! Sparse paged memory image shared by all simulated threads.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use vlt_isa::{Program, DATA_BASE, TEXT_BASE};

const PAGE_BITS: u32 = 12;
/// Page size in bytes.
pub const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Fibonacci-multiplicative hasher for page numbers.
///
/// Every simulated load and store looks its page up in the map, so the
/// default DoS-resistant SipHash shows up directly in functional-replay
/// throughput. Page numbers are small, trusted integers; one odd-constant
/// multiply mixes them fine (the multiply is a bijection, so distinct pages
/// keep distinct low bits for the bucket index, and the golden-ratio
/// constant spreads the high bits the control bytes use). Nothing iterates
/// the map, so the order change is unobservable.
#[derive(Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type PageMap = HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>;

/// A sparse, byte-addressable 64-bit memory image.
///
/// Reads of unmapped pages return zero; writes allocate. This mirrors a flat
/// physical memory and keeps workload setup code small.
///
/// ```
/// use vlt_exec::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0x4000_0000, 42);
/// assert_eq!(m.read_u64(0x4000_0000), 42);
/// assert_eq!(m.read_u64(0x9999_9999), 0); // unmapped reads as zero
/// ```
/// `PartialEq` compares the mapped page sets byte-for-byte (a zero-filled
/// mapped page is *not* equal to an unmapped one) — strict enough for the
/// observer-equivalence tests that assert two runs left identical images.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Memory {
    pages: PageMap,
}

impl Memory {
    /// An empty memory.
    pub fn new() -> Self {
        Memory::default()
    }

    /// Load a program image: text at [`TEXT_BASE`], data at [`DATA_BASE`].
    pub fn load(prog: &Program) -> Self {
        let mut m = Memory::new();
        for (i, w) in prog.text.iter().enumerate() {
            m.write_u32(TEXT_BASE + 4 * i as u64, *w);
        }
        m.write_bytes(DATA_BASE, &prog.data);
        m
    }

    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_BITS)).map(|b| &**b)
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(addr >> PAGE_BITS).or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Read one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        self.page(addr).map_or(0, |p| p[(addr as usize) & (PAGE_SIZE - 1)])
    }

    /// Write one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        self.page_mut(addr)[off] = v;
    }

    /// Read `N` little-endian bytes starting at `addr` (may span pages).
    fn read_n<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + N <= PAGE_SIZE {
            if let Some(p) = self.page(addr) {
                out.copy_from_slice(&p[off..off + N]);
            }
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u64));
            }
        }
        out
    }

    fn write_n<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + N <= PAGE_SIZE {
            self.page_mut(addr)[off..off + N].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), *b);
            }
        }
    }

    /// Read a little-endian `u32`.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_n(addr))
    }

    /// Write a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write_n(addr, v.to_le_bytes());
    }

    /// Read a little-endian `u64`.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_n(addr))
    }

    /// Write a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write_n(addr, v.to_le_bytes());
    }

    /// Read an `f64` (bit pattern stored little-endian).
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Write an `f64`.
    pub fn write_f64(&mut self, addr: u64, v: f64) {
        self.write_u64(addr, v.to_bits());
    }

    /// Bulk write.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), *b);
        }
    }

    /// Bulk read.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(addr.wrapping_add(i as u64))).collect()
    }

    /// Number of resident pages (for footprint assertions in tests).
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// FNV-1a checksum over a byte range — used by workloads to verify
    /// results independently of how they were computed.
    pub fn checksum(&self, addr: u64, len: usize) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..len {
            h ^= self.read_u8(addr.wrapping_add(i as u64)) as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zero_fill_reads() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0x1234), 0);
        assert_eq!(m.read_u8(u64::MAX - 8), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn rw_roundtrip() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.read_u64(0x1000), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(m.read_u32(0x1000), 0xCAFE_F00D);
        assert_eq!(m.read_u8(0x1007), 0xDE);
        m.write_f64(0x2000, -1.5);
        assert_eq!(m.read_f64(0x2000), -1.5);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (PAGE_SIZE - 3) as u64;
        m.write_u64(addr, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u64(addr), 0x0102_0304_0506_0708);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn load_program_places_segments() {
        use vlt_isa::asm::assemble;
        let p = assemble(".data\nx:\n.dword 77\n.text\nnop\nhalt\n").unwrap();
        let m = Memory::load(&p);
        assert_eq!(m.read_u32(TEXT_BASE), p.text[0]);
        assert_eq!(m.read_u64(DATA_BASE), 77);
    }

    #[test]
    fn checksum_sensitivity() {
        let mut m = Memory::new();
        m.write_u64(0x100, 1);
        let a = m.checksum(0x100, 16);
        m.write_u8(0x10F, 1);
        let b = m.checksum(0x100, 16);
        assert_ne!(a, b);
    }

    proptest! {
        #[test]
        fn u64_roundtrip_any_addr(addr in 0u64..1_000_000, v in any::<u64>()) {
            let mut m = Memory::new();
            m.write_u64(addr, v);
            prop_assert_eq!(m.read_u64(addr), v);
        }

        #[test]
        fn bytes_roundtrip(addr in 0u64..100_000, data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let mut m = Memory::new();
            m.write_bytes(addr, &data);
            prop_assert_eq!(m.read_bytes(addr, data.len()), data);
        }
    }
}
