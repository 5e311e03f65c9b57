//! The host probe: how much the host's neighbours slow it down right now.
//!
//! The reference machine is a shared VM. Its neighbours slow it in bursts
//! of seconds to minutes, by up to 2×, and a burst can cover a whole run,
//! so even a median over a run's passes moves with them. The probe is a
//! fixed kernel shaped like a simulator's inner loop and independent of
//! this repository's code: a toy interpreter over a random program and 2 MB
//! of data, then hash-map counting and a sort, all in memory it reuses. A
//! run times it around every point of its timed passes and divides the
//! point's host times by how much slower than nominal it ran there. A
//! change to the simulator does not move the probe, so it cannot hide one.
//! Build it first thing in the process, so the resident memory it adds can
//! be told apart from the simulator's.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::rng::Rng;

/// The probe's time on the reference machine (a 2-vCPU x86-64 VM at
/// 2.1 GHz) while its neighbours were quiet. Busy neighbours there hold it
/// near 3.2 ms, and at times near 4.3 ms.
pub const NOMINAL_S: f64 = 2.1e-3;

const PROGRAM: usize = 4096;
const DATA_WORDS: usize = 1 << 18;
const STEPS: usize = 600_000;
const COUNTS: usize = 30_000;
const SORTED: usize = 10_000;

/// A memory size of this process in MB from `/proc/self/status`: `VmHWM`
/// (peak resident set) or `VmRSS` (resident set now).
pub fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line =
        status.lines().find(|l| l.strip_prefix(field).is_some_and(|r| r.starts_with(':')))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The probe kernel's state.
pub struct Probe {
    program: Vec<[u8; 4]>,
    data: Vec<u64>,
    counts: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    sorted: Vec<u64>,
    /// MB the process's resident set grew by while the probe was built.
    pub resident_mb: f64,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

impl Probe {
    /// Build the kernel's inputs and run it once, untimed, so its memory
    /// is resident before the first sample.
    pub fn new() -> Probe {
        let before = status_mb("VmRSS");
        let mut r = Rng::stream(0, "host probe");
        let program = (0..PROGRAM).map(|_| r.next_u64().to_le_bytes()[..4].try_into().unwrap());
        let mut p = Probe {
            program: program.collect(),
            data: (0..DATA_WORDS).map(|_| r.next_u64()).collect(),
            counts: HashMap::with_capacity_and_hasher(COUNTS, BuildHasherDefault::default()),
            sorted: Vec::with_capacity(SORTED),
            resident_mb: 0.0,
        };
        black_box(p.kernel());
        p.resident_mb = status_mb("VmRSS").zip(before).map_or(0.0, |(a, b)| a - b);
        p
    }

    /// Run the kernel once: how many times slower than nominal the host
    /// ran it.
    pub fn slowdown(&mut self) -> f64 {
        let t = Instant::now();
        black_box(self.kernel());
        t.elapsed().as_secs_f64() / NOMINAL_S
    }

    fn kernel(&mut self) -> u64 {
        // Decode, dispatch on the opcode, a register file, loads and stores
        // anywhere in the data, and branches on loaded values.
        let mut reg = [1u64; 16];
        let mut pc = 0;
        let mask = self.data.len() - 1;
        for _ in 0..STEPS {
            let [op, a, b, c] = self.program[pc];
            let (a, b, c) = (usize::from(a & 15), usize::from(b & 15), usize::from(c & 15));
            pc += 1;
            match op & 7 {
                0 => reg[a] = reg[b].wrapping_add(reg[c]),
                1 => reg[a] = reg[b] ^ reg[c].rotate_left(7),
                2 => reg[a] = reg[b].wrapping_mul(reg[c] | 1),
                3 => reg[a] = self.data[reg[b] as usize & mask],
                4 => self.data[reg[b] as usize & mask] = reg[c],
                5 if reg[b] & 3 == 0 => pc = reg[c] as usize % PROGRAM,
                6 => reg[a] = reg[b] >> (reg[c] & 31),
                _ => reg[a] = reg[b].min(reg[c]),
            }
            if pc == PROGRAM {
                pc = 0;
            }
        }
        // Hash-map counting and a sort over the registers' final mix.
        let mut x =
            reg.iter().fold(0x9E37_79B9_7F4A_7C15, |h, r| (h ^ r).wrapping_mul(0x0100_0000_01B3));
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.counts.clear();
        for _ in 0..COUNTS {
            *self.counts.entry(next() & 0xffff).or_insert(0) += 1;
        }
        self.sorted.clear();
        self.sorted.extend((0..SORTED).map(|_| next()));
        self.sorted.sort_unstable();
        self.sorted.iter().map(|k| self.counts.get(&(k & 0xffff)).copied().unwrap_or(0)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_times_itself() {
        let s = Probe::new().slowdown();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }
}
