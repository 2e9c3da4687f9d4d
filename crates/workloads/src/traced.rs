//! [`TracedMemory`]: a memory that records every access it serves.

use cnt_sim::trace::{AccessBatch, MemoryAccess};
use cnt_sim::{Address, MainMemory};

/// A word-addressable memory that executes real kernel accesses while
/// recording each one — with its data value — into an [`AccessBatch`].
///
/// Kernels allocate regions with [`alloc`](TracedMemory::alloc), run their
/// algorithm through the typed load/store methods, verify their results
/// via the untraced [`peek_u64`](TracedMemory::peek_u64), and finally hand
/// the trace to the simulator with [`into_trace`](TracedMemory::into_trace).
///
/// # Example
///
/// ```
/// use cnt_workloads::TracedMemory;
///
/// let mut mem = TracedMemory::new();
/// let buf = mem.alloc(64);
/// mem.store_u64(buf, 42);
/// assert_eq!(mem.load_u64(buf), 42);
/// let trace = mem.into_trace();
/// assert_eq!(trace.len(), 2);
/// ```
#[derive(Debug)]
pub struct TracedMemory {
    memory: MainMemory,
    trace: AccessBatch,
    cursor: u64,
}

/// Kernels allocate from this base so addresses look like a real heap.
const HEAP_BASE: u64 = 0x0010_0000;

impl TracedMemory {
    /// Creates an empty memory with an empty trace.
    pub fn new() -> Self {
        TracedMemory {
            memory: MainMemory::new(),
            trace: AccessBatch::new(),
            cursor: HEAP_BASE,
        }
    }

    /// Reserves `bytes` of address space aligned to a cache line (64 B)
    /// and returns its base address. Allocation itself is not traced.
    pub fn alloc(&mut self, bytes: u64) -> Address {
        let base = self.cursor;
        self.cursor += bytes.div_ceil(64) * 64;
        Address::new(base)
    }

    /// Number of accesses recorded so far.
    pub fn recorded(&self) -> usize {
        self.trace.len()
    }

    /// Consumes the wrapper, returning the recorded trace.
    pub fn into_trace(self) -> AccessBatch {
        self.trace
    }

    /// Loads a 64-bit word (traced).
    pub fn load_u64(&mut self, addr: Address) -> u64 {
        self.trace.push(MemoryAccess::read(addr, 8));
        self.memory.load(addr, 8)
    }

    /// Stores a 64-bit word (traced).
    pub fn store_u64(&mut self, addr: Address, value: u64) {
        self.trace.push(MemoryAccess::write(addr, 8, value));
        self.memory.store(addr, 8, value);
    }

    /// Loads a 32-bit word (traced).
    pub fn load_u32(&mut self, addr: Address) -> u32 {
        self.trace.push(MemoryAccess::read(addr, 4));
        self.memory.load(addr, 4) as u32
    }

    /// Stores a 32-bit word (traced).
    pub fn store_u32(&mut self, addr: Address, value: u32) {
        self.trace
            .push(MemoryAccess::write(addr, 4, u64::from(value)));
        self.memory.store(addr, 4, u64::from(value));
    }

    /// Loads one byte (traced).
    pub fn load_u8(&mut self, addr: Address) -> u8 {
        self.trace.push(MemoryAccess::read(addr, 1));
        self.memory.load(addr, 1) as u8
    }

    /// Stores one byte (traced).
    pub fn store_u8(&mut self, addr: Address, value: u8) {
        self.trace
            .push(MemoryAccess::write(addr, 1, u64::from(value)));
        self.memory.store(addr, 1, u64::from(value));
    }

    /// Reads a 64-bit word *without* tracing — for result verification.
    pub fn peek_u64(&mut self, addr: Address) -> u64 {
        self.memory.load(addr, 8)
    }

    /// Reads a byte *without* tracing — for result verification.
    pub fn peek_u8(&mut self, addr: Address) -> u8 {
        self.memory.load(addr, 1) as u8
    }
}

impl Default for TracedMemory {
    fn default() -> Self {
        TracedMemory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnt_sim::trace::AccessKind;

    #[test]
    fn allocations_are_line_aligned_and_disjoint() {
        let mut mem = TracedMemory::new();
        let a = mem.alloc(100);
        let b = mem.alloc(1);
        let c = mem.alloc(64);
        assert!(a.is_aligned(64));
        assert!(b.is_aligned(64));
        assert_eq!(b - a, 128, "100 bytes round up to two lines");
        assert_eq!(c - b, 64);
    }

    #[test]
    fn traced_accesses_carry_values() {
        let mut mem = TracedMemory::new();
        let buf = mem.alloc(64);
        mem.store_u32(buf, 0xABCD);
        let v = mem.load_u32(buf);
        assert_eq!(v, 0xABCD);
        let trace = mem.into_trace();
        let w = trace.get(0);
        assert_eq!(w.kind, AccessKind::Write);
        assert_eq!(w.value, 0xABCD);
        assert_eq!(w.width, 4);
        assert_eq!(trace.kind(1), AccessKind::Read);
    }

    #[test]
    fn peek_does_not_trace() {
        let mut mem = TracedMemory::new();
        let buf = mem.alloc(64);
        mem.store_u64(buf, 7);
        let before = mem.recorded();
        assert_eq!(mem.peek_u64(buf), 7);
        assert_eq!(mem.peek_u8(buf), 7);
        assert_eq!(mem.recorded(), before);
    }

    #[test]
    fn byte_and_word_views_agree() {
        let mut mem = TracedMemory::new();
        let buf = mem.alloc(64);
        mem.store_u64(buf, 0x1122_3344_5566_7788);
        assert_eq!(mem.load_u8(buf), 0x88);
        assert_eq!(mem.load_u8(buf + 7), 0x11);
    }
}
