//! Property tests on the interpreter: vector semantics against scalar
//! reference computations over random data.

use proptest::prelude::*;

use vlt_exec::interp::CANONICAL_NAN;
use vlt_exec::FuncSim;
use vlt_isa::asm::assemble;

fn run_vec_op(op_line: &str, a: &[u64], b: &[u64]) -> Vec<u64> {
    let n = a.len();
    let src = format!(
        ".data\nav:\n.dword {}\nbv:\n.dword {}\ncv:\n.zero {}\n.text\n\
         li x1, {n}\nsetvl x2, x1\nla x3, av\nla x4, bv\nla x5, cv\n\
         vld v1, x3\nvld v2, x4\n{op_line}\nvst v3, x5\nhalt\n",
        a.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", "),
        b.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", "),
        8 * n,
    );
    let prog = assemble(&src).unwrap();
    let mut sim = FuncSim::new(&prog, 1);
    sim.run_to_completion(100_000).unwrap();
    let base = prog.symbol("cv").unwrap();
    (0..n).map(|i| sim.mem.read_u64(base + 8 * i as u64)).collect()
}

fn vecs() -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    (1usize..=64).prop_flat_map(|n| {
        (
            proptest::collection::vec(any::<u64>(), n..=n),
            proptest::collection::vec(any::<u64>(), n..=n),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn vadd_matches_scalar((a, b) in vecs()) {
        let got = run_vec_op("vadd.vv v3, v1, v2", &a, &b);
        let want: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x.wrapping_add(*y)).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn vmax_is_signed((a, b) in vecs()) {
        let got = run_vec_op("vmax.vv v3, v1, v2", &a, &b);
        let want: Vec<u64> =
            a.iter().zip(&b).map(|(x, y)| (*x as i64).max(*y as i64) as u64).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn vsrl_uses_low_six_bits((a, b) in vecs()) {
        let got = run_vec_op("vsrl.vv v3, v1, v2", &a, &b);
        let want: Vec<u64> = a.iter().zip(&b).map(|(x, y)| x >> (y & 63)).collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn vfadd_matches_f64_bits((a, b) in vecs()) {
        let got = run_vec_op("vfadd.vv v3, v1, v2", &a, &b);
        // A NaN sum is the canonical NaN, whatever NaN the host made (told
        // apart on the bits: a float test may keep the host's NaN); every
        // other sum matches bit for bit.
        let want: Vec<u64> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| (f64::from_bits(*x) + f64::from_bits(*y)).to_bits())
            .map(|w| if w & !(1 << 63) > f64::INFINITY.to_bits() { CANONICAL_NAN } else { w })
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn vredsum_matches_wrapping_sum((a, b) in vecs()) {
        let n = a.len();
        let src = format!(
            ".data\nav:\n.dword {}\n.text\nli x1, {n}\nsetvl x2, x1\nla x3, av\nvld v1, x3\nvredsum x4, v1\nhalt\n",
            a.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", "),
        );
        let _ = b;
        let prog = assemble(&src).unwrap();
        let mut sim = FuncSim::new(&prog, 1);
        sim.run_to_completion(100_000).unwrap();
        let want = a.iter().fold(0u64, |acc, v| acc.wrapping_add(*v));
        prop_assert_eq!(sim.thread(0).x[4], want);
    }

    /// Masked operations only touch enabled elements.
    #[test]
    fn masked_add_respects_mask((a, b) in vecs(), mask in any::<u64>()) {
        let n = a.len();
        let src = format!(
            ".data\nav:\n.dword {av}\nbv:\n.dword {bv}\ncv:\n.dword {av}\nmk:\n.dword {mask}\n.text\n\
             li x1, {n}\nsetvl x2, x1\nla x3, av\nla x4, bv\nla x5, cv\n\
             vld v1, x3\nvld v2, x4\nvld v3, x5\nla x7, mk\nld x6, 0(x7)\nvmsetb x6\n\
             vadd.vv v3, v1, v2, vm\nvst v3, x5\nhalt\n",
            av = a.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", "),
            bv = b.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", "),
            n = n,
            mask = mask,
        );
        let prog = assemble(&src).unwrap();
        let mut sim = FuncSim::new(&prog, 1);
        sim.run_to_completion(100_000).unwrap();
        let base = prog.symbol("cv").unwrap();
        for i in 0..n {
            let got = sim.mem.read_u64(base + 8 * i as u64);
            let want = if (mask >> i) & 1 == 1 {
                a[i].wrapping_add(b[i])
            } else {
                a[i] // unmodified (cv was initialized to av)
            };
            prop_assert_eq!(got, want, "element {}", i);
        }
    }
}
