//! Per-thread architectural state.

use vlt_isa::{MAX_VL, STACK_BASE, STACK_SIZE};

/// One thread's architectural register state.
///
/// Vector elements are stored as raw 64-bit patterns; floating-point vector
/// operations reinterpret them as `f64`. `mvl` is the *effective* maximum
/// vector length, which shrinks when `vltcfg` partitions the lanes (the
/// per-lane register file is re-divided among threads — paper §3.2).
#[derive(Debug, Clone)]
pub struct ArchState {
    /// Program counter.
    pub pc: u64,
    /// Integer registers; `x[0]` is kept at zero by the interpreter.
    pub x: [u64; 32],
    /// Floating-point registers.
    pub f: [f64; 32],
    /// Vector registers, raw element bits.
    pub v: Box<[[u64; MAX_VL]; 32]>,
    /// Current vector length (`0 < vl <= mvl` after any `setvl`).
    pub vl: usize,
    /// Effective maximum vector length under the current VLT partition.
    pub mvl: usize,
    /// The vector mask register, one bit per element.
    pub vm: u64,
    /// This thread's id (read by `tid`).
    pub tid: usize,
    /// Thread count in the program (read by `nthr`).
    pub nthr: usize,
    /// Set once the thread executes `halt`.
    pub halted: bool,
    /// Currently active `region` marker (0 = unannotated/serial).
    pub region: u32,
}

impl ArchState {
    /// Fresh state for thread `tid` of `nthr`, entering at `entry` with the
    /// stack pointer placed at the top of the thread's stack slot.
    pub fn new(entry: u64, tid: usize, nthr: usize) -> Self {
        let mut x = [0u64; 32];
        x[30] = STACK_BASE + (tid as u64 + 1) * STACK_SIZE; // sp
        ArchState {
            pc: entry,
            x,
            f: [0.0; 32],
            v: Box::new([[0; MAX_VL]; 32]),
            vl: MAX_VL,
            mvl: MAX_VL,
            vm: u64::MAX,
            tid,
            nthr,
            halted: false,
            region: 0,
        }
    }

    /// Write an integer register, discarding writes to `x0`.
    #[inline]
    pub fn set_x(&mut self, r: u8, v: u64) {
        if r != 0 {
            self.x[r as usize] = v;
        }
    }

    /// Read an integer register.
    #[inline]
    pub fn get_x(&self, r: u8) -> u64 {
        self.x[r as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_state() {
        let s = ArchState::new(0x1000, 2, 4);
        assert_eq!(s.pc, 0x1000);
        assert_eq!(s.tid, 2);
        assert_eq!(s.nthr, 4);
        assert_eq!(s.vl, MAX_VL);
        assert_eq!(s.mvl, MAX_VL);
        assert_eq!(s.vm, u64::MAX);
        assert!(!s.halted);
        // Stacks are disjoint per thread.
        let s0 = ArchState::new(0x1000, 0, 4);
        assert_ne!(s.x[30], s0.x[30]);
        assert_eq!(s0.x[30], STACK_BASE + STACK_SIZE);
    }

    #[test]
    fn x0_is_immutable() {
        let mut s = ArchState::new(0, 0, 1);
        s.set_x(0, 99);
        assert_eq!(s.get_x(0), 0);
        s.set_x(5, 99);
        assert_eq!(s.get_x(5), 99);
    }
}
