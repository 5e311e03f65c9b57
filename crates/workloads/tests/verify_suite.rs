//! Every workload's built program must pass the static verifier with zero
//! error-severity diagnostics, at every thread count and scale it builds
//! for. This is the acceptance gate that lets later PRs refactor kernels
//! without hand-auditing all 13 workloads.

use vlt_verify::{verify, Code, Report, Severity};
use vlt_workloads::{irregular_suite, suite, Scale};

/// Lint every kernel, Table 4 and irregular, at 1/2/4/8 threads and every
/// scale (156 programs). Eight-thread vector kernels spread over two
/// clusters, as on the wide machine that runs them.
fn corpus() -> Vec<(String, Report)> {
    let mut out = Vec::new();
    for w in suite().into_iter().chain(irregular_suite()) {
        for threads in [1, 2, 4, 8] {
            for scale in [Scale::Test, Scale::Small, Scale::Full] {
                let built = if threads > w.max_threads() {
                    w.build_spread(threads, 2, scale)
                } else {
                    w.build(threads, scale)
                };
                let at = format!("{} x{threads} {scale:?}", w.name());
                out.push((at, verify(&built.program)));
            }
        }
    }
    out
}

#[test]
fn all_workloads_verify_clean() {
    let failures: Vec<String> = corpus()
        .into_iter()
        .filter(|(_, report)| !report.is_clean())
        .map(|(at, report)| format!("{at}:\n{report}"))
        .collect();
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}

/// Warnings are not hard failures, but the nine kernels are expected to be
/// warning-free too (any intentional pattern gets a `vlint.allow.*`
/// symbol). This keeps the lint output meaningful when a kernel changes.
#[test]
fn all_workloads_warning_free() {
    let mut failures = Vec::new();
    for w in suite() {
        for threads in [1, w.max_threads()] {
            let built = w.build(threads, Scale::Test);
            let report = verify(&built.program);
            let warns: Vec<String> = report
                .diags
                .iter()
                .filter(|d| d.severity == Severity::Warn)
                .map(|d| d.to_string())
                .collect();
            if !warns.is_empty() {
                failures.push(format!("{} x{threads}:\n  {}", w.name(), warns.join("\n  ")));
            }
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n\n"));
}

/// The verifier must see through every idiom the kernels rely on: no
/// undef-read or memory findings of any severity, anywhere in the corpus.
#[test]
fn no_dataflow_findings_across_suite() {
    for (at, report) in corpus() {
        for code in
            [Code::UndefRead, Code::MaybeUndefRead, Code::OobRead, Code::OobWrite, Code::Misaligned]
        {
            assert!(!report.flags(code), "{at}: unexpected {code}:\n{report}");
        }
    }
}
