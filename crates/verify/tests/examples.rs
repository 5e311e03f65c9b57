//! The checked-in example kernels (`examples/asm/*.s`) must stay
//! warning-free under the verifier *and* run dynamically fault-free —
//! they are the documentation of what clean VLT assembly looks like.

use std::fs;
use std::path::PathBuf;

use vlt_exec::{CheckConfig, FuncSim};
use vlt_isa::asm::assemble;
use vlt_verify::{predicted_undef_reads, verify, Options};

fn example_sources() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/asm");
    let mut out = Vec::new();
    for entry in fs::read_dir(&dir).expect("examples/asm must exist") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "s") {
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            out.push((name, fs::read_to_string(&path).unwrap()));
        }
    }
    out.sort();
    assert!(!out.is_empty(), "no .s files under examples/asm");
    out
}

#[test]
fn examples_are_spotless() {
    for (name, src) in example_sources() {
        let prog = assemble(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let report = verify(&prog);
        assert!(report.diags.is_empty(), "{name}: expected zero findings, got:\n{report}");
    }
}

#[test]
fn examples_run_clean_under_dynamic_checker() {
    for (name, src) in example_sources() {
        let prog = assemble(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let predicted = predicted_undef_reads(&prog, &Options::default());
        // Examples either run the full 4-thread VLT config or are
        // single-thread demos; 4 threads covers both (extra threads
        // execute the same SPMD text).
        let mut sim = FuncSim::new(&prog, 4);
        sim.enable_checker(CheckConfig {
            undef_predictor: Some(Box::new(move |sidx| predicted.contains(&sidx))),
        });
        sim.run_to_completion(10_000_000).unwrap_or_else(|e| panic!("{name}: {e}"));
        let ck = sim.checker().unwrap();
        assert!(ck.is_clean(), "{name}: dynamic faults: {:?}", ck.faults());
    }
}
