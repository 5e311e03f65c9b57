//! The benchmark's own kernels: the driver-skip trio, regenerated from the
//! seed with golden models.
//!
//! * `chase` — a dependent pointer chase around a seeded single-cycle ring
//!   (Sattolo), one cell per cache line, on a machine whose caches are
//!   shrunk below the ring: nearly every cycle is a miss the event-driven
//!   driver can skip.
//! * `barrier` — two threads meeting at a barrier after lopsided phases of
//!   serially dependent 16-cycle `fdiv`s; the seed spreads the heavy
//!   thread's work over the phases (in pairs, so the total stays fixed).
//! * `daxpy` — cache-resident `y += 2x` on seeded data: the vector unit
//!   has work most cycles, so there is little to skip.

use vlt_core::SystemConfig;
use vlt_exec::FuncSim;
use vlt_workloads::common::{data_doubles, data_dwords, read_f64s, read_u64s};

use crate::rng::Rng;

const CHASE_CELLS: usize = 64;
const CHASE_HOPS: u64 = 2048;
const BARRIER_PHASES: usize = 32;
const BARRIER_HEAVY: u64 = 512;
/// Starting value of the barrier kernel's divide chain.
const BARRIER_SEED: i64 = 1_000_000_007;
const DAXPY_N: usize = 4096;

/// One synthetic kernel with the seeded inputs it was generated from.
#[derive(Debug, Clone, PartialEq)]
pub enum Synth {
    /// Successor table of the ring (`next[i]` follows cell `i`).
    Chase { next: Vec<usize> },
    /// Heavy-thread `fdiv` count per phase.
    Barrier { work: Vec<u64> },
    /// The `x` and initial `y` vectors.
    Daxpy { xs: Vec<f64>, ys: Vec<f64> },
}

impl Synth {
    /// The trio for `seed`.
    pub fn trio(seed: u64) -> Vec<Synth> {
        let next = Rng::stream(seed, "chase").single_cycle(CHASE_CELLS);
        let mut r = Rng::stream(seed, "barrier");
        let mut work = Vec::with_capacity(BARRIER_PHASES);
        for _ in 0..BARRIER_PHASES / 2 {
            let d = r.below(BARRIER_HEAVY / 2);
            work.extend([BARRIER_HEAVY + d, BARRIER_HEAVY - d]);
        }
        let mut r = Rng::stream(seed, "daxpy");
        let mut vals = |n| (0..n).map(|_| 100.0 * r.unit() - 50.0).collect::<Vec<f64>>();
        let (xs, ys) = (vals(DAXPY_N), vals(DAXPY_N));
        vec![Synth::Chase { next }, Synth::Barrier { work }, Synth::Daxpy { xs, ys }]
    }

    /// Kernel name.
    pub fn name(&self) -> &'static str {
        match self {
            Synth::Chase { .. } => "chase",
            Synth::Barrier { .. } => "barrier",
            Synth::Daxpy { .. } => "daxpy",
        }
    }

    /// Software threads the kernel runs.
    pub fn threads(&self) -> usize {
        match self {
            Synth::Barrier { .. } => 2,
            _ => 1,
        }
    }

    /// The machine the kernel runs on.
    pub fn config(&self) -> SystemConfig {
        match self {
            Synth::Chase { .. } => {
                let mut cfg = SystemConfig::base(8);
                cfg.mem.l1_size = 256;
                cfg.mem.l2_size = 1024;
                cfg.name = "base-tiny".into();
                cfg
            }
            Synth::Barrier { .. } => SystemConfig::v2_cmp(),
            Synth::Daxpy { .. } => SystemConfig::base(8),
        }
    }

    /// The kernel's assembly source.
    pub fn source(&self) -> String {
        match self {
            Synth::Chase { next } => {
                let cells: Vec<String> = next
                    .iter()
                    .map(|n| format!("    .dword ring + {}\n    .zero 56\n", n * 64))
                    .collect();
                format!(
                    ".data\nring:\n{}out:\n    .zero 8\n.text\n\
                     la x1, ring\nli x2, {CHASE_HOPS}\nli x3, 0\n\
                     loop:\nld x1, 0(x1)\naddi x3, x3, 1\nblt x3, x2, loop\n\
                     la x4, out\nsd x1, 0(x4)\nhalt\n",
                    cells.concat()
                )
            }
            Synth::Barrier { work } => format!(
                ".data\n{}out:\n    .zero 32\n.text\n\
                 tid x10\nli x13, {phases}\nli x14, 0\nla x20, work\n\
                 li x4, 3\nfcvt.f.x f1, x4\nli x4, {BARRIER_SEED}\nfcvt.f.x f2, x4\nli x7, 0\n\
                 phase:\nld x5, 0(x20)\nbeqz x10, go\nsrli x5, x5, 4\nbnez x5, go\nli x5, 1\n\
                 go:\nli x6, 0\n\
                 divs:\nfdiv f2, f2, f1\naddi x6, x6, 1\nblt x6, x5, divs\n\
                 add x7, x7, x6\nbarrier\naddi x20, x20, 8\naddi x14, x14, 1\nblt x14, x13, phase\n\
                 la x15, out\nslli x16, x10, 4\nadd x15, x15, x16\nsd x7, 0(x15)\nfsd f2, 8(x15)\n\
                 halt\n",
                data_dwords("work", work),
                phases = work.len(),
            ),
            Synth::Daxpy { xs, ys } => format!(
                ".data\n{}{}.text\n\
                 li x18, 2\nfcvt.f.x f1, x18\nla x15, xs\nla x16, ys\nli x12, {n}\nli x17, 0\n\
                 loop:\nsub x3, x12, x17\nsetvl x2, x3\nvld v1, x15\nvld v2, x16\n\
                 vfma.vs v2, v1, f1\nvst v2, x16\nslli x7, x2, 3\nadd x15, x15, x7\n\
                 add x16, x16, x7\nadd x17, x17, x2\nblt x17, x12, loop\nhalt\n",
                data_doubles("xs", xs),
                data_doubles("ys", ys),
                n = xs.len(),
            ),
        }
    }

    /// Golden check of the final memory image.
    pub fn check(&self, sim: &FuncSim) -> Result<(), String> {
        match self {
            Synth::Chase { next } => {
                let mut at = 0;
                for _ in 0..CHASE_HOPS {
                    at = next[at];
                }
                let ring = sim.prog.program.symbol("ring").ok_or("chase: no ring symbol")?;
                let want = ring + 64 * at as u64;
                let got = read_u64s(sim, "out", 1)[0];
                (got == want)
                    .then_some(())
                    .ok_or(format!("chase: ended at {got:#x}, want {want:#x}"))
            }
            Synth::Barrier { work } => {
                let got = read_u64s(sim, "out", 4);
                for t in 0..2 {
                    let divs: u64 =
                        work.iter().map(|&w| if t == 0 { w } else { (w >> 4).max(1) }).sum();
                    let mut f = BARRIER_SEED as f64;
                    for _ in 0..divs {
                        f /= 3.0;
                    }
                    if got[2 * t] != divs || got[2 * t + 1] != f.to_bits() {
                        return Err(format!(
                            "barrier: thread {t} did {} divides to {:e}, want {divs} to {f:e}",
                            got[2 * t],
                            f64::from_bits(got[2 * t + 1])
                        ));
                    }
                }
                Ok(())
            }
            Synth::Daxpy { xs, ys } => {
                let want: Vec<f64> = xs.iter().zip(ys).map(|(x, y)| x.mul_add(2.0, *y)).collect();
                vlt_workloads::common::expect_f64s(&read_f64s(sim, "ys", ys.len()), &want, "daxpy")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn barrier_work_total_is_seed_independent() {
        let total = |seed| match &Synth::trio(seed)[1] {
            Synth::Barrier { work } => work.iter().sum::<u64>(),
            _ => unreachable!(),
        };
        assert_eq!(total(1), total(2));
        assert_eq!(total(1), BARRIER_HEAVY * BARRIER_PHASES as u64);
    }

    #[test]
    fn every_kernel_assembles_and_passes_its_golden_check() {
        for s in Synth::trio(5) {
            let prog = vlt_isa::asm::assemble(&s.source()).expect("synthetic kernel assembles");
            let mut sim = FuncSim::new(&prog, s.threads());
            sim.run_to_completion(50_000_000).expect("synthetic kernel runs");
            s.check(&sim).unwrap_or_else(|e| panic!("{}: {e}", s.name()));
        }
    }
}
