//! The command-line layer every subcommand shares: one flag parser, the
//! shared `--config --threads --clusters --scale` vocabulary (read and
//! validated once, at parse time), and the read-and-assemble helper.

use std::process::ExitCode;

use vlt_core::SystemConfig;
use vlt_exec::FuncSim;
use vlt_isa::asm::assemble;
use vlt_isa::{vltcfg, Program};
use vlt_workloads::Scale;

/// How a subcommand failed.
pub enum Error {
    /// A bad command line: reported with the subcommand's usage, exit 2.
    Usage(String),
    /// A failed run: reported as-is, exit 1.
    Failed(String),
}

/// A subcommand's outcome.
pub type Result<T> = std::result::Result<T, Error>;

/// One subcommand: its name, usage text, accepted flags, and body.
pub struct Command {
    pub name: &'static str,
    pub usage: &'static str,
    pub flags: &'static [Flag],
    pub main: fn(&Args) -> Result<ExitCode>,
}

/// What a flag takes after its name.
#[derive(Clone, Copy, PartialEq)]
pub enum Takes {
    /// Nothing: `--strict`.
    Nothing,
    /// The next argument: `--out DIR`.
    Value,
    /// The next two arguments: `--diff A B`.
    Two,
    /// Nothing, or a value attached with `=`: `--races`, `--races=4`.
    Attached,
}

/// A flag a subcommand accepts: its spellings (canonical first) and what
/// it takes.
pub struct Flag(pub &'static [&'static str], pub Takes);

/// A parsed command line.
pub struct Args {
    /// Positional arguments, in order.
    pub positional: Vec<String>,
    /// `(canonical spelling, values)` per flag occurrence, in order.
    flags: Vec<(&'static str, Vec<String>)>,
    /// `-h` / `--help` was given.
    pub help: bool,
    /// `--config NAME`, resolved.
    pub config: Option<SystemConfig>,
    /// `--threads N`, a positive count.
    pub threads: Option<usize>,
    /// `--clusters N`, a power of two.
    pub clusters: Option<usize>,
    /// `--scale test|small|full`.
    pub scale: Option<Scale>,
}

/// Split `argv` against the flags `spec` declares, then read and validate
/// the shared flags. Any argument starting with `-` that `spec` does not
/// declare is a usage error.
pub fn parse(argv: impl IntoIterator<Item = String>, spec: &'static [Flag]) -> Result<Args> {
    let mut argv = argv.into_iter();
    let mut args = Args {
        positional: Vec::new(),
        flags: Vec::new(),
        help: false,
        config: None,
        threads: None,
        clusters: None,
        scale: None,
    };
    while let Some(a) = argv.next() {
        if a == "-h" || a == "--help" {
            args.help = true;
            continue;
        }
        let (name, attached) = match a.split_once('=') {
            Some((name, v))
                if spec.iter().any(|f| f.1 == Takes::Attached && f.0.contains(&name)) =>
            {
                (name, Some(v.to_string()))
            }
            _ => (a.as_str(), None),
        };
        let Some(Flag(names, takes)) = spec.iter().find(|f| f.0.contains(&name)) else {
            if a.starts_with('-') {
                return Err(Error::Usage(format!("unknown option `{a}`")));
            }
            args.positional.push(a);
            continue;
        };
        let mut next = || argv.next().ok_or_else(|| Error::Usage(format!("{name} needs a value")));
        let values = match takes {
            Takes::Nothing => Vec::new(),
            Takes::Value => vec![next()?],
            Takes::Two => vec![next()?, next()?],
            Takes::Attached => attached.into_iter().collect(),
        };
        args.flags.push((names[0], values));
    }
    if let Some(name) = args.value("--config") {
        let cfg = SystemConfig::from_name(name)
            .ok_or_else(|| Error::Usage(format!("unknown config `{name}`")))?;
        args.config = Some(cfg);
    }
    args.threads = args.positive("--threads")?;
    args.clusters = args.positive("--clusters")?;
    if args.clusters.is_some_and(|c| !c.is_power_of_two()) {
        return Err(Error::Usage("--clusters needs a power-of-two count".into()));
    }
    args.scale = match args.value("--scale") {
        None => None,
        Some("test") => Some(Scale::Test),
        Some("small") => Some(Scale::Small),
        Some("full") => Some(Scale::Full),
        Some(s) => return Err(Error::Usage(format!("unknown scale `{s}` (test | small | full)"))),
    };
    Ok(args)
}

impl Args {
    /// Whether `flag` (canonical spelling) was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value of the last `flag`, if it was given one.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().rev().find(|(f, _)| *f == flag)?.1.first().map(String::as_str)
    }

    /// Every value `flag` was given, in command-line order.
    pub fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.flags.iter().filter(move |(f, _)| *f == flag).flat_map(|(_, v)| v).map(String::as_str)
    }

    /// The value of `flag` parsed as a `T`.
    pub fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>> {
        self.value(flag)
            .map(|v| v.parse().map_err(|_| Error::Usage(format!("{flag}: cannot parse `{v}`"))))
            .transpose()
    }

    /// The value of `flag` as a positive count.
    pub fn positive(&self, flag: &str) -> Result<Option<usize>> {
        match self.value(flag).map(|v| (v, v.parse::<usize>())) {
            None => Ok(None),
            Some((_, Ok(n))) if n > 0 => Ok(Some(n)),
            Some((v, _)) => {
                Err(Error::Usage(format!("{flag} needs a positive integer, got `{v}`")))
            }
        }
    }

    /// The one positional argument, named `what` in errors.
    pub fn single(&self, what: &str) -> Result<&str> {
        match self.positional.as_slice() {
            [one] => Ok(one),
            [] => Err(Error::Usage(format!("missing {what}"))),
            _ => Err(Error::Usage(format!("expected one {what}, got {}", self.positional.len()))),
        }
    }
}

/// `cfg` replicated over `clusters` lane clusters, checked to host
/// `threads` software threads.
pub fn machine(mut cfg: SystemConfig, clusters: usize, threads: usize) -> Result<SystemConfig> {
    if clusters > 1 {
        if !cfg.has_vu || cfg.lane_threads {
            let msg = format!("{} has no vector unit to replicate over clusters", cfg.name);
            return Err(Error::Usage(msg));
        }
        cfg = cfg.with_clusters(clusters);
    }
    if threads > cfg.max_threads() {
        let (name, max) = (&cfg.name, cfg.max_threads());
        return Err(Error::Usage(format!("{name} supports at most {max} threads, got {threads}")));
    }
    Ok(cfg)
}

/// `threads`, if the functional simulator can run that many: `vlt run
/// --functional` runs it, and `vlt lint`'s analyses walk each thread on
/// its interpreter. Otherwise a message naming `what` asked for them.
pub fn check_threads(what: &str, threads: usize) -> std::result::Result<usize, String> {
    let max = FuncSim::MAX_THREADS;
    if (1..=max).contains(&threads) {
        Ok(threads)
    } else {
        Err(format!("{what} supports 1 to {max} threads, got {threads}"))
    }
}

/// A workload build configures its threads with one `vltcfg` spread over
/// `clusters`, so the pair must be an encodable hierarchy: 1, 2, 4 or 8
/// threads, at least one per cluster.
pub fn check_spread(threads: usize, clusters: usize) -> Result<()> {
    let encodable = match (u8::try_from(threads), u8::try_from(clusters)) {
        (Ok(t), Ok(c)) => vltcfg::unpack(u64::from(t) | u64::from(c) << 8).is_some(),
        _ => false,
    };
    if !encodable {
        return Err(Error::Usage(format!(
            "{threads} thread(s) cannot spread over {clusters} cluster(s) \
             (threads 1, 2, 4 or 8, at least one per cluster)"
        )));
    }
    Ok(())
}

/// Why [`load`] failed.
pub enum LoadError {
    /// The file could not be read; the message names it.
    Read(String),
    /// The source did not assemble; `msg` is the assembler's message.
    Assemble { path: String, msg: String },
}

impl From<LoadError> for Error {
    fn from(e: LoadError) -> Error {
        Error::Failed(match e {
            LoadError::Read(msg) => msg,
            LoadError::Assemble { path, msg } => format!("{path}: {msg}"),
        })
    }
}

/// Read and assemble one source file.
pub fn load(path: &str) -> std::result::Result<Program, LoadError> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| LoadError::Read(format!("cannot read {path}: {e}")))?;
    assemble(&src).map_err(|e| LoadError::Assemble { path: path.to_string(), msg: e.to_string() })
}
