//! End-to-end checks of the benchmark's own machinery on small points.

use vlbench::exec::run_point;
use vlbench::expected;
use vlbench::points::{Bench, Point};
use vlbench::rng::is_single_cycle;
use vlbench::run::DEFAULT_SEED;
use vlbench::synth::Synth;
use vlbench::trace::{point_coverage, Clock};

/// The cheapest point of each workload, plus the synthetic trio.
fn smoke_points(b: Bench) -> Vec<Point> {
    b.points(DEFAULT_SEED)
        .into_iter()
        .filter(|p| p.key.starts_with("spmv.") || p.is_synth())
        .collect()
}

#[test]
fn one_point_of_each_workload_passes_its_correctness_gate() {
    let exp = expected::load(&vlbench::package_dir().join("expected.json")).unwrap();
    for b in Bench::ALL {
        let pts = smoke_points(b);
        assert!(!pts.is_empty(), "{}", b.name());
        for p in pts {
            let id = format!("{}/{}", b.name(), p.key);
            let run =
                run_point(b, &p, &mut Clock::default()).unwrap_or_else(|e| panic!("{id}: {e}"));
            assert_eq!(Some(&run.fields), exp.get(&id), "{id} differs from expected.json");
            assert!(run.insts > 0 && run.sim_s > 0.0 && run.setup_s > 0.0, "{id}");
        }
    }
}

#[test]
fn traced_points_attribute_their_wall_time_to_layers() {
    for b in Bench::ALL {
        let mut clock = Clock::traced();
        for p in smoke_points(b) {
            clock.enter("point", &p.key);
            run_point(b, &p, &mut clock).unwrap_or_else(|e| panic!("{}: {e}", p.key));
            clock.exit();
        }
        for (key, wall, covered) in point_coverage(clock.spans()) {
            assert!(
                covered >= 0.95 * wall,
                "{} {key}: layers cover {covered} of {wall} s",
                b.name()
            );
        }
        let names: Vec<&str> = clock.spans().iter().map(|s| s.name).collect();
        assert!(
            names.contains(&"exec.interp"),
            "{}: the traced pass probes the interpreter",
            b.name()
        );
    }
}

#[test]
fn the_seed_alone_determines_the_synthetic_programs() {
    let programs = |seed| -> Vec<(Vec<u32>, Vec<u8>)> {
        Synth::trio(seed)
            .iter()
            .map(|s| {
                let p = vlt_isa::asm::assemble(&s.source()).unwrap();
                (p.text, p.data)
            })
            .collect()
    };
    assert_eq!(programs(3), programs(3), "same seed, byte-identical programs");
    let ring = |seed| match &Synth::trio(seed)[0] {
        Synth::Chase { next } => next.clone(),
        _ => unreachable!("the chase leads the trio"),
    };
    assert_ne!(ring(3), ring(4), "another seed, another ring");
    for seed in [3, 4, 99] {
        assert!(is_single_cycle(&ring(seed)), "seed {seed}: the ring is one cycle");
    }
}
