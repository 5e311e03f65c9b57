//! DLP-mutant corpus: seeded profile-changing mutations of a baseline
//! kernel, each of which the static analyzer must *catch* — meaning the
//! mutant's static profile (a) differs from the baseline's in exactly the
//! dimension the mutation targets, and (b) still matches the functional
//! simulator's measurement of the mutant bit-for-bit. A mutation the
//! analyzer glossed over would fail (a); a mis-tracked one would fail (b).
//!
//! The corpus covers the analyzer's main failure surfaces: `setvl`
//! request tracking (including over-MVL clamping), masked-element
//! counting on loads and stores, mask-register width changes, loop trip
//! counts, scalar/vector op attribution, stride classification and bank
//! conflicts, address-pattern classification, and region attribution.

use vlt_exec::FuncSim;
use vlt_isa::asm::assemble;
use vlt_isa::VMemPattern;
use vlt_verify::dlp::{advise, analyze, dlp_report, DlpOptions, DlpProfile};

/// A strip-mine-shaped kernel exercising every profiled feature: a fixed
/// `setvl`, masked and unmasked unit-stride vector memory, a strided
/// gather, scalar bookkeeping, a counted loop, and a `region` marker.
const BASELINE: &str = r#"
        .data
    a:
        .zero 2048
    b:
        .zero 2048
        .text
        la   x20, a
        la   x21, b
        li   x5, 24
        li   x14, 4
        li   x7, 5
        vmsetb x7
        li   x13, 8
        region 1
    loop:
        setvl x2, x5
        vld  v1, x20
        vld  v2, x21, vm
        vadd.vv v3, v1, v2
        vst  v3, x20
        vlds v4, x21, x13
        addi x14, x14, -1
        bnez x14, loop
        region 0
        barrier
        halt
"#;

struct Mutant {
    name: &'static str,
    from: &'static str,
    to: &'static str,
    /// The targeted dimension must differ between baseline and mutant.
    caught: fn(&DlpProfile, &DlpProfile) -> bool,
}

const MUTANTS: &[Mutant] = &[
    Mutant {
        name: "setvl-request-shrunk",
        from: "li   x5, 24",
        to: "li   x5, 7",
        caught: |b, m| {
            m.total.common_vls(1) != b.total.common_vls(1)
                && m.total.avg_vl() < b.total.avg_vl()
                && m.setvl_sites[0].max_request == 7
        },
    },
    Mutant {
        name: "setvl-request-overclamped",
        from: "li   x5, 24",
        to: "li   x5, 100",
        caught: |b, m| {
            // The request is tracked pre-clamp; the histogram post-clamp.
            m.setvl_sites[0].max_request == 100
                && m.total.common_vls(1) == vec![64]
                && m.total.avg_vl() > b.total.avg_vl()
        },
    },
    Mutant {
        name: "mask-dropped-from-load",
        from: "vld  v2, x21, vm",
        to: "vld  v2, x21",
        caught: |b, m| {
            m.total.elem_ops > b.total.elem_ops
                && m.total.pct_vectorization() > b.total.pct_vectorization()
        },
    },
    Mutant {
        name: "mask-added-to-store",
        from: "vst  v3, x20",
        to: "vst  v3, x20, vm",
        caught: |b, m| m.total.elem_ops < b.total.elem_ops,
    },
    Mutant {
        name: "mask-widened",
        from: "li   x7, 5",
        to: "li   x7, 255",
        caught: |b, m| m.total.elem_ops > b.total.elem_ops,
    },
    Mutant {
        name: "trip-count-raised",
        from: "li   x14, 4",
        to: "li   x14, 6",
        caught: |b, m| m.total.insts > b.total.insts && m.total.vector_insts > b.total.vector_insts,
    },
    Mutant {
        name: "scalar-bookkeeping-added",
        from: "addi x14, x14, -1",
        to: "addi x16, x0, 7\n        xor  x16, x16, x14\n        addi x14, x14, -1",
        caught: |b, m| {
            m.total.scalar_ops > b.total.scalar_ops
                && m.total.pct_vectorization() < b.total.pct_vectorization()
        },
    },
    Mutant {
        name: "vector-op-added",
        from: "vadd.vv v3, v1, v2",
        to: "vadd.vv v3, v1, v2\n        vxor.vv v3, v3, v1",
        caught: |b, m| m.total.vector_insts > b.total.vector_insts,
    },
    Mutant {
        name: "stride-bank-conflict",
        from: "li   x13, 8",
        to: "li   x13, 64",
        caught: |b, m| {
            let conflicts =
                |p: &DlpProfile| -> u64 { p.vmem_sites.iter().map(|s| s.conflict_execs).sum() };
            conflicts(b) == 0 && conflicts(m) > 0 && m.vmem_sites.iter().any(|s| s.min_stride == 64)
        },
    },
    Mutant {
        name: "gather-became-unit",
        from: "vlds v4, x21, x13",
        to: "vld  v4, x21",
        caught: |b, m| {
            let strided = |p: &DlpProfile| -> u64 {
                p.vmem_sites
                    .iter()
                    .filter(|s| s.pattern == VMemPattern::Strided)
                    .map(|s| s.execs)
                    .sum()
            };
            strided(b) > 0 && strided(m) == 0
        },
    },
    Mutant {
        name: "region-marker-lost",
        from: "region 1",
        to: "region 0",
        caught: |b, m| {
            let in_region = |p: &DlpProfile| -> u64 {
                p.regions.iter().filter(|r| r.region != 0).map(|r| r.profile.insts).sum()
            };
            in_region(b) > 0 && in_region(m) == 0
        },
    },
];

fn static_and_dynamic(src: &str, what: &str) -> DlpProfile {
    let prog = assemble(src).unwrap_or_else(|e| panic!("{what}: {e}"));
    let p = analyze(&prog, &DlpOptions::default());
    assert!(p.exact, "{what}: walk went inexact: {:?}", p.notes);
    // Every mutant profile must still be the truth: bit-exact vs the run.
    let mut sim = FuncSim::new(&prog, 1);
    assert_eq!(p.total, sim.run_to_completion(1_000_000).unwrap(), "{what}");
    p
}

#[test]
fn every_mutant_is_caught() {
    assert!(MUTANTS.len() >= 10, "corpus shrank below the contract");
    let base = static_and_dynamic(BASELINE, "baseline");
    for m in MUTANTS {
        let src = BASELINE.replace(m.from, m.to);
        assert_ne!(src, BASELINE, "{}: mutation site `{}` not found", m.name, m.from);
        let mutant = static_and_dynamic(&src, m.name);
        assert!(
            (m.caught)(&base, &mutant),
            "{}: analyzer did not catch the mutation\nbaseline: {:?}\nmutant: {:?}",
            m.name,
            base.total,
            mutant.total
        );
    }
}

#[test]
fn stride_conflict_mutant_raises_the_diagnostic() {
    let src = BASELINE.replace("li   x13, 8", "li   x13, 64");
    let prog = assemble(&src).unwrap();
    let (_, diags) = dlp_report(&prog, &DlpOptions::default());
    assert!(
        diags.iter().any(|d| d.code.name() == "dlp-stride-conflict"),
        "expected dlp-stride-conflict, got: {diags:?}"
    );
    let prog = assemble(BASELINE).unwrap();
    let (_, diags) = dlp_report(&prog, &DlpOptions::default());
    assert!(
        !diags.iter().any(|d| d.code.name() == "dlp-stride-conflict"),
        "baseline should be conflict-free, got: {diags:?}"
    );
}

#[test]
fn region_mutant_erases_the_advisors_opportunity() {
    let base = analyze(&assemble(BASELINE).unwrap(), &DlpOptions::default());
    let src = BASELINE.replace("region 1", "region 0");
    let mutant = analyze(&assemble(&src).unwrap(), &DlpOptions::default());
    let (ab, am) = (advise(&base), advise(&mutant));
    assert!(ab.opportunity_pct > 50.0, "baseline opportunity: {:.1}", ab.opportunity_pct);
    assert_eq!(am.opportunity_pct, 0.0, "mutant opportunity: {:.1}", am.opportunity_pct);
}
