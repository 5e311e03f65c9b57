//! The four workloads and the points each one runs.

use vlt_core::SystemConfig;
use vlt_workloads::{irregular_suite, suite, Scale, Workload};

use crate::rng::Rng;
use crate::synth::Synth;

/// A benchmark workload: a fixed list of points and what is done to each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Every kernel ×4 on V4-CMT and ×8 on a second machine: the paper's
    /// traffic, nearly every cycle stepped.
    VltDense,
    /// Every kernel ×1 on V4-CMT plus the synthetic trio: the idle-cycle
    /// skip does most of the work.
    SerialSkip,
    /// The ×4 points under the full observer stack, with both documents
    /// exported and validated.
    Profiled,
    /// Every kernel ×1 and ×4 through lint, races, DLP and a functional
    /// replay: no timing model at all.
    Analyze,
}

impl Bench {
    /// All workloads, in report order.
    pub const ALL: [Bench; 4] =
        [Bench::VltDense, Bench::SerialSkip, Bench::Profiled, Bench::Analyze];

    /// Workload name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Bench::VltDense => "vlt_dense",
            Bench::SerialSkip => "serial_skip",
            Bench::Profiled => "profiled",
            Bench::Analyze => "analyze",
        }
    }

    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Whether the workload's measured call is a timing simulation.
    pub fn timed(self) -> bool {
        self != Bench::Analyze
    }

    /// The workload's points in canonical order (before the seed shuffles
    /// them).
    pub fn points(self, seed: u64) -> Vec<Point> {
        let kernels = || suite().into_iter().chain(irregular_suite());
        // A single Small mxm point takes seconds on the timing model, so
        // timed workloads run it at Test scale.
        let timed_scale =
            |w: &dyn Workload| if w.name() == "mxm" { Scale::Test } else { Scale::Small };
        let v4 = SystemConfig::v4_cmt;
        match self {
            Bench::VltDense => kernels()
                .flat_map(|w| {
                    let wide = if w.vectorizable() {
                        Point::kernel(w, 8, 2, timed_scale(w), Some(SystemConfig::v8_clustered(2)))
                    } else {
                        Point::kernel(
                            w,
                            8,
                            1,
                            timed_scale(w),
                            Some(SystemConfig::v4_cmt_lane_threads()),
                        )
                    };
                    [Point::kernel(w, 4, 1, timed_scale(w), Some(v4())), wide]
                })
                .collect(),
            Bench::SerialSkip => kernels()
                .map(|w| Point::kernel(w, 1, 1, timed_scale(w), Some(v4())))
                .chain(Synth::trio(seed).into_iter().map(Point::synth))
                .collect(),
            Bench::Profiled => {
                kernels().map(|w| Point::kernel(w, 4, 1, timed_scale(w), Some(v4()))).collect()
            }
            Bench::Analyze => kernels()
                .flat_map(|w| [1, 4].map(|t| Point::kernel(w, t, 1, Scale::Small, None)))
                .collect(),
        }
    }

    /// [`Bench::points`] in the seed's pass order.
    pub fn shuffled_points(self, seed: u64) -> Vec<Point> {
        let mut pts = self.points(seed);
        Rng::stream(seed, self.name()).shuffle(&mut pts);
        pts
    }
}

/// What a point runs.
#[derive(Clone)]
pub enum Source {
    /// A suite or irregular kernel built by `Workload::build_spread`.
    Kernel { workload: &'static dyn Workload, clusters: usize, scale: Scale },
    /// One of the benchmark's own kernels.
    Synth(Synth),
}

/// One program at one thread count, on one machine for timed workloads.
#[derive(Clone)]
pub struct Point {
    /// Stable identifier: kernel, threads, machine and scale.
    pub key: String,
    /// The program.
    pub source: Source,
    /// Software threads.
    pub threads: usize,
    /// The simulated machine (`None` for the analysis-only workload).
    pub cfg: Option<SystemConfig>,
}

fn scale_name(s: Scale) -> &'static str {
    match s {
        Scale::Test => "test",
        Scale::Small => "small",
        Scale::Full => "full",
    }
}

impl Point {
    fn kernel(
        workload: &'static dyn Workload,
        threads: usize,
        clusters: usize,
        scale: Scale,
        cfg: Option<SystemConfig>,
    ) -> Point {
        let machine = cfg.as_ref().map_or(String::new(), |c| format!(".{}", c.name));
        Point {
            key: format!("{}.x{threads}{machine}.{}", workload.name(), scale_name(scale)),
            source: Source::Kernel { workload, clusters, scale },
            threads,
            cfg,
        }
    }

    fn synth(s: Synth) -> Point {
        let cfg = s.config();
        Point {
            key: format!("{}.x{}.{}", s.name(), s.threads(), cfg.name),
            threads: s.threads(),
            cfg: Some(cfg),
            source: Source::Synth(s),
        }
    }

    /// True for the benchmark's own seeded kernels.
    pub fn is_synth(&self) -> bool {
        matches!(self.source, Source::Synth(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_counts_match_the_workload_definitions() {
        let n = |b: Bench| b.points(1).len();
        assert_eq!(n(Bench::VltDense), 26);
        assert_eq!(n(Bench::SerialSkip), 16);
        assert_eq!(n(Bench::Profiled), 13);
        assert_eq!(n(Bench::Analyze), 26);
    }

    #[test]
    fn keys_are_unique_within_a_workload() {
        for b in Bench::ALL {
            let mut keys: Vec<String> = b.points(1).into_iter().map(|p| p.key).collect();
            keys.sort();
            let before = keys.len();
            keys.dedup();
            assert_eq!(keys.len(), before, "{}", b.name());
        }
    }

    #[test]
    fn the_seed_shuffles_the_order_only() {
        let keys = |seed| -> Vec<String> {
            Bench::VltDense.shuffled_points(seed).into_iter().map(|p| p.key).collect()
        };
        assert_eq!(keys(1), keys(1));
        assert_ne!(keys(1), keys(2));
        let (mut a, mut b) = (keys(1), keys(2));
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
