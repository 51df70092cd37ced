//! The shared argument layer every `musa` CLI front end routes through.
//!
//! Before the campaign redesign, the six experiment binaries and
//! `musa sample` each hand-rolled their own `--seed/--jobs/--engine/…`
//! parsing and stdout formatting. This module parses the shared flag
//! set **once** ([`parse_tokens`] behind [`CliOptions::from_args`] and
//! [`SampleArgs::parse`]) and drives the whole run through
//! [`musa_core::Campaign`] ([`drive`]), so a binary's `main` is one
//! line. Default (non-`--json`) stdout is byte-identical to the
//! pre-redesign binaries — pinned by the CLI diff tests in
//! `tests/cli_diff.rs`.

use musa_circuits::Benchmark;
use musa_core::{
    bench_history_json, chrome_json, compare, next_bench_path, render_bench_history,
    render_profile, trace_json, BenchReport, Campaign, CampaignError, ComparePolicy,
    ExperimentConfig, Report, ReportData, Task, DEFAULT_BENCHES, DEFAULT_SEED,
};
use musa_mutation::{Engine, MutationOperator, OptLevel};

/// Soft parse failures; each front end maps them to its legacy
/// wording and exit path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// `--seed` had a missing or unparsable value.
    SeedValue,
    /// `--jobs` had a missing or unparsable value.
    JobsValue,
    /// `--engine` had no value.
    EngineMissing,
    /// `--engine` had an unrecognized value; carries the
    /// [`Engine`] parse message.
    EngineInvalid(String),
    /// `--fault-reduce` had a missing or unrecognized value (expected
    /// `on` or `off`).
    FaultReduceValue,
    /// `--screen` had a missing or unrecognized value (expected
    /// `static` or `off`).
    ScreenValue,
    /// `--opt` had a missing or unrecognized value (expected `full`
    /// or `off`).
    OptValue,
    /// `--trace` had a missing value (a file path).
    TraceValue,
    /// `--trace-format` had a missing or unrecognized value (expected
    /// `json` or `chrome`).
    TraceFormatValue,
    /// An unrecognized `--flag` (strict front ends only).
    UnknownFlag(String),
    /// More positional arguments than the front end accepts.
    TooManyPositionals,
}

/// On-disk format for `--trace <file>`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceFormat {
    /// The `musa.trace.v1` document (round-trips through
    /// `musa_core::json`).
    #[default]
    Json,
    /// Chrome `trace_event` format, loadable in Perfetto /
    /// `chrome://tracing`.
    Chrome,
}

/// The observability flag set shared by every front end:
/// `--trace <file>`, `--trace-format json|chrome`, `--profile`,
/// `--progress`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceOpts {
    /// `--trace <file>`: write the collected trace here after the run.
    pub trace: Option<String>,
    /// `--trace-format`: the file format for `--trace`.
    pub format: TraceFormat,
    /// `--profile`: print the per-phase breakdown after the run.
    pub profile: bool,
    /// `--progress`: coarse stderr progress lines while running.
    pub progress: bool,
}

impl TraceOpts {
    /// Whether the campaign needs a live tracer (a trace file or the
    /// profile table was requested). When `false` the campaign runs
    /// with the no-op sink and every output stays bit-identical.
    pub fn wants_trace(&self) -> bool {
        self.trace.is_some() || self.profile
    }
}

/// Finishes a run's observability outputs: writes the `--trace` file
/// (in the selected format) and prints the `--profile` table — to
/// stdout normally, to stderr when stdout carries a `--json` document.
///
/// # Errors
///
/// Returns a message when the trace file cannot be written.
pub fn emit_observability(
    report: &Report,
    opts: &TraceOpts,
    json_stdout: bool,
) -> Result<(), String> {
    if let Some(path) = &opts.trace {
        let document = match opts.format {
            TraceFormat::Json => trace_json(report),
            TraceFormat::Chrome => chrome_json(report),
        }
        .expect("wants_trace() enabled the campaign tracer");
        std::fs::write(path, format!("{document}\n"))
            .map_err(|e| format!("--trace {path}: {e}"))?;
    }
    if opts.profile {
        let table = render_profile(report).expect("wants_trace() enabled the campaign tracer");
        if json_stdout {
            eprint!("{table}");
        } else {
            print!("{table}");
        }
    }
    Ok(())
}

/// The flag set shared by every front end, as parsed.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    /// `--fast` seen.
    pub fast: bool,
    /// `--paper` seen.
    pub paper: bool,
    /// `--json` seen.
    pub json: bool,
    /// `--help`/`-h` seen (lenient front ends only).
    pub help: bool,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--jobs N`.
    pub jobs: Option<usize>,
    /// `--engine E`.
    pub engine: Option<Engine>,
    /// `--fault-reduce on|off`.
    pub fault_reduce: Option<bool>,
    /// `--screen static|off`.
    pub screen: Option<bool>,
    /// `--opt full|off`.
    pub opt: Option<OptLevel>,
    /// `--trace`, `--trace-format`, `--profile`, `--progress`.
    pub trace: TraceOpts,
    /// Non-flag arguments, in order.
    pub positionals: Vec<String>,
}

/// Parses the shared flag set from raw arguments.
///
/// `lenient` selects the experiment binaries' contract: unknown
/// arguments are ignored with a stderr warning and `--help`/`-h` is
/// recognized. Strict mode (the `musa sample` contract) rejects
/// unknown `--flags` and caps positionals at `max_positionals`.
///
/// # Errors
///
/// Returns the [`CliError`] describing the first offending argument.
pub fn parse_tokens(
    args: &[String],
    max_positionals: usize,
    lenient: bool,
) -> Result<Parsed, CliError> {
    let mut parsed = Parsed::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fast" => parsed.fast = true,
            "--paper" => parsed.paper = true,
            "--json" => parsed.json = true,
            "--seed" => {
                parsed.seed = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .ok_or(CliError::SeedValue)?,
                );
                i += 1;
            }
            "--jobs" => {
                parsed.jobs = Some(
                    args.get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .ok_or(CliError::JobsValue)?,
                );
                i += 1;
            }
            "--engine" => {
                let raw = args.get(i + 1).ok_or(CliError::EngineMissing)?;
                parsed.engine =
                    Some(raw.parse().map_err(CliError::EngineInvalid)?);
                i += 1;
            }
            "--fault-reduce" => {
                parsed.fault_reduce = Some(match args.get(i + 1).map(String::as_str) {
                    Some("on") => true,
                    Some("off") => false,
                    _ => return Err(CliError::FaultReduceValue),
                });
                i += 1;
            }
            "--screen" => {
                parsed.screen = Some(match args.get(i + 1).map(String::as_str) {
                    Some("static") => true,
                    Some("off") => false,
                    _ => return Err(CliError::ScreenValue),
                });
                i += 1;
            }
            "--opt" => {
                parsed.opt = Some(match args.get(i + 1).map(String::as_str) {
                    Some("full") => OptLevel::Full,
                    Some("off") => OptLevel::Off,
                    _ => return Err(CliError::OptValue),
                });
                i += 1;
            }
            "--trace" => {
                parsed.trace.trace = Some(
                    args.get(i + 1)
                        .filter(|v| !v.starts_with('-'))
                        .ok_or(CliError::TraceValue)?
                        .clone(),
                );
                i += 1;
            }
            "--trace-format" => {
                parsed.trace.format = match args.get(i + 1).map(String::as_str) {
                    Some("json") => TraceFormat::Json,
                    Some("chrome") => TraceFormat::Chrome,
                    _ => return Err(CliError::TraceFormatValue),
                };
                i += 1;
            }
            "--profile" => parsed.trace.profile = true,
            "--progress" => parsed.trace.progress = true,
            // Help short-circuits, exactly like the pre-redesign loop:
            // anything after it — including malformed values — is
            // never parsed.
            "--help" | "-h" if lenient => {
                parsed.help = true;
                return Ok(parsed);
            }
            other if lenient => eprintln!("ignoring unknown argument `{other}`"),
            flag if flag.starts_with("--") => {
                return Err(CliError::UnknownFlag(flag.to_string()));
            }
            positional => {
                if parsed.positionals.len() >= max_positionals {
                    return Err(CliError::TooManyPositionals);
                }
                parsed.positionals.push(positional.to_string());
            }
        }
        i += 1;
    }
    Ok(parsed)
}

/// Command-line options shared by every bench binary.
#[derive(Debug, Clone)]
pub struct CliOptions {
    /// Use the scaled-down configuration.
    pub fast: bool,
    /// `--paper` was passed explicitly (the default preset anyway;
    /// passing it *and* `--fast` is a campaign validation error).
    pub paper: bool,
    /// Emit the campaign report as JSON instead of text.
    pub json: bool,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (`0` = one per available CPU).
    pub jobs: usize,
    /// Mutant-execution engine (`scalar` or `lanes`).
    pub engine: Engine,
    /// Dominance fault-list reduction for the mutation-data fault
    /// simulation (`--fault-reduce on|off`, default on). Reported
    /// numbers are identical either way; only lane occupancy changes.
    pub fault_reduce: bool,
    /// Static equivalent-mutant pre-screening (`--screen static|off`,
    /// default on). Reported numbers are identical either way; only
    /// the `screened` count in the JSON report changes.
    pub screen: bool,
    /// Lane-tape optimizer level (`--opt full|off`, default full).
    /// Both levels are bit-identical in every reported number; `off`
    /// exists as the benchmark/debug baseline.
    pub opt: OptLevel,
    /// Observability flags (`--trace`, `--trace-format`, `--profile`,
    /// `--progress`). All off by default; every report output stays
    /// bit-identical when they are.
    pub trace: TraceOpts,
}

impl Default for CliOptions {
    fn default() -> Self {
        Self {
            fast: false,
            paper: false,
            json: false,
            seed: DEFAULT_SEED,
            jobs: 0,
            engine: Engine::default(),
            fault_reduce: true,
            screen: true,
            opt: OptLevel::default(),
            trace: TraceOpts::default(),
        }
    }
}

impl CliOptions {
    /// The usage text every bench binary prints for `--help`.
    pub const USAGE: &'static str = "\
options (shared by every musa_bench experiment binary):
  --fast      scaled-down configuration: seconds instead of minutes
  --paper     paper-scale configuration (the default; conflicts with
              --fast)
  --seed N    master seed (default 0xDA7E2005); every stage derives
              its own sub-seeds from it
  --jobs N    worker threads (default: one per available CPU);
              results are bit-identical for every value, so this is
              purely a wall-clock knob
  --engine E  mutant-execution engine: `scalar` (one Simulator pass
              per mutant) or `lanes` (63 mutants + the reference
              machine per pass); outcomes are bit-identical, and
              lanes compose multiplicatively with --jobs
  --fault-reduce on|off
              dominance fault-list reduction for the mutation-data
              fault simulation (default on); reported numbers are
              bit-identical either way, only representatives (and
              residuals) occupy simulation lanes
  --screen static|off
              static equivalent-mutant pre-screening (default on);
              statically proven-equivalent mutants skip simulation and
              fold into the E term directly — reported numbers are
              bit-identical either way
  --opt full|off
              lane-tape optimizer level (default full): `full` runs the
              compile → optimize → execute pipeline (const folding,
              copy/select propagation, CSE, DCE, superinstruction
              fusion); `off` interprets the raw tapes — outcomes are
              bit-identical, only wall time changes
  --json      emit the typed campaign report as JSON (stable
              `musa.campaign.v1` schema) instead of text
  --trace FILE
              write the collected spans + counters to FILE after the
              run (`musa.trace.v1` by default); the report itself stays
              bit-identical to an untraced run
  --trace-format json|chrome
              trace file format: `json` (musa.trace.v1, round-trips
              through the musa_core parser) or `chrome` (trace_event,
              open in Perfetto / chrome://tracing)
  --profile   print a per-phase wall/count breakdown after the run
              (stderr when stdout carries the --json document)
  --progress  coarse progress lines on stderr while the run advances
              (bench / repetition / lane-group granularity)
  --help      print this text";

    /// Parses `--fast`, `--paper`, `--json`, `--seed N`, `--jobs N`
    /// and `--engine E` from `std::env::args`; `--help` prints
    /// [`CliOptions::USAGE`] and exits 0. A missing or unparsable
    /// `--seed`/`--jobs`/`--engine` value exits 2 rather than silently
    /// running with the default; unknown arguments are ignored with a
    /// warning.
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match parse_tokens(&args, 0, true) {
            Ok(parsed) if parsed.help => {
                println!("{}", Self::USAGE);
                std::process::exit(0);
            }
            Ok(parsed) => Self {
                fast: parsed.fast,
                paper: parsed.paper,
                json: parsed.json,
                seed: parsed.seed.unwrap_or(DEFAULT_SEED),
                jobs: parsed.jobs.unwrap_or(0),
                engine: parsed.engine.unwrap_or_default(),
                fault_reduce: parsed.fault_reduce.unwrap_or(true),
                screen: parsed.screen.unwrap_or(true),
                opt: parsed.opt.unwrap_or_default(),
                trace: parsed.trace,
            },
            Err(e) => {
                let message = match e {
                    CliError::SeedValue => "--seed expects an integer value",
                    CliError::JobsValue => "--jobs expects an integer value",
                    CliError::EngineMissing | CliError::EngineInvalid(_) => {
                        "--engine expects `scalar` or `lanes`"
                    }
                    CliError::FaultReduceValue => "--fault-reduce expects `on` or `off`",
                    CliError::ScreenValue => "--screen expects `static` or `off`",
                    CliError::OptValue => "--opt expects `full` or `off`",
                    CliError::TraceValue => "--trace expects a file path",
                    CliError::TraceFormatValue => "--trace-format expects `json` or `chrome`",
                    // Lenient parsing ignores unknown arguments.
                    CliError::UnknownFlag(_) | CliError::TooManyPositionals => {
                        unreachable!("lenient mode ignores unknown arguments")
                    }
                };
                eprintln!("{message}");
                eprintln!("{}", Self::USAGE);
                std::process::exit(2);
            }
        }
    }

    /// The experiment configuration these options select (kept for
    /// callers that drive `musa_core` directly rather than through
    /// [`drive`]).
    pub fn config(&self) -> ExperimentConfig {
        let config = if self.fast {
            ExperimentConfig::fast(self.seed)
        } else {
            ExperimentConfig::paper(self.seed)
        };
        config
            .with_jobs(self.jobs)
            .with_engine(self.engine)
            .with_fault_reduce(self.fault_reduce)
            .with_screen(self.screen)
            .with_opt(self.opt)
    }
}

/// `musa sample` arguments (strict front end: positionals plus the
/// shared flags; unknown flags are errors).
#[derive(Debug, Clone)]
pub struct SampleArgs {
    /// Benchmark name.
    pub name: String,
    /// Sampling fraction (default 10 %).
    pub fraction: f64,
    /// Master seed.
    pub seed: u64,
    /// Worker threads (`0` = auto).
    pub jobs: usize,
    /// Mutant-execution engine.
    pub engine: Engine,
    /// Dominance fault-list reduction (default on).
    pub fault_reduce: bool,
    /// Static equivalent-mutant pre-screening (default on).
    pub screen: bool,
    /// Lane-tape optimizer level (default full).
    pub opt: OptLevel,
    /// `--paper` preset requested (default: fast).
    pub paper: bool,
    /// `--fast` passed explicitly.
    pub fast: bool,
    /// Emit JSON.
    pub json: bool,
    /// Observability flags (`--trace`, `--trace-format`, `--profile`,
    /// `--progress`).
    pub trace: TraceOpts,
}

/// The `musa sample` usage line.
pub const SAMPLE_USAGE: &str = "expected <name> [fraction] [--jobs N] [--seed N] \
[--paper] [--fast] [--json] [--engine scalar|lanes] [--fault-reduce on|off] \
[--screen static|off] [--opt full|off] [--trace FILE] \
[--trace-format json|chrome] [--profile] [--progress]";

impl SampleArgs {
    /// Parses `musa sample`'s arguments (everything after the
    /// subcommand).
    ///
    /// # Errors
    ///
    /// Returns the legacy `musa sample` error strings: usage on a
    /// missing name or extra positionals, per-flag messages otherwise.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let parsed = parse_tokens(args, 2, false).map_err(|e| match e {
            CliError::SeedValue => "--seed expects an integer".to_string(),
            CliError::JobsValue => "--jobs expects a thread count".to_string(),
            CliError::EngineMissing => "--engine expects scalar|lanes".to_string(),
            CliError::FaultReduceValue => "--fault-reduce expects on|off".to_string(),
            CliError::ScreenValue => "--screen expects static|off".to_string(),
            CliError::OptValue => "--opt expects full|off".to_string(),
            CliError::TraceValue => "--trace expects a file path".to_string(),
            CliError::TraceFormatValue => "--trace-format expects json|chrome".to_string(),
            CliError::EngineInvalid(detail) => detail,
            CliError::UnknownFlag(flag) => format!("unknown flag `{flag}`; {SAMPLE_USAGE}"),
            CliError::TooManyPositionals => SAMPLE_USAGE.to_string(),
        })?;
        let Some(name) = parsed.positionals.first() else {
            return Err(SAMPLE_USAGE.to_string());
        };
        let fraction = match parsed.positionals.get(1) {
            Some(raw) => raw
                .parse()
                .map_err(|_| "bad fraction (expected 0..=1)".to_string())?,
            None => 0.10,
        };
        Ok(Self {
            name: name.clone(),
            fraction,
            seed: parsed.seed.unwrap_or(DEFAULT_SEED),
            jobs: parsed.jobs.unwrap_or(0),
            engine: parsed.engine.unwrap_or_default(),
            fault_reduce: parsed.fault_reduce.unwrap_or(true),
            screen: parsed.screen.unwrap_or(true),
            opt: parsed.opt.unwrap_or_default(),
            paper: parsed.paper,
            fast: parsed.fast,
            json: parsed.json,
            trace: parsed.trace,
        })
    }

    /// The campaign these arguments select (`musa sample` defaults to
    /// the fast preset; `--paper` upgrades, and passing both flags is
    /// a campaign validation error).
    pub fn campaign(&self) -> Campaign {
        let mut campaign = Campaign::named(&self.name)
            .seed(self.seed)
            .jobs(self.jobs)
            .engine(self.engine)
            .fault_reduce(self.fault_reduce)
            .screen(self.screen)
            .opt(self.opt)
            .trace(self.trace.wants_trace())
            .task(Task::Sampling { fraction: self.fraction });
        if self.paper {
            campaign = campaign.paper();
        }
        if self.fast || !self.paper {
            campaign = campaign.fast();
        }
        campaign
    }
}

// ---------------------------------------------------------------------
// `musa bench` — benchmark trajectory
// ---------------------------------------------------------------------

/// `musa bench` trajectory arguments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrajectoryArgs {
    /// `--quick`: 1 warmup + 3 samples per cell; the baseline gate
    /// drops absolute wall time.
    pub quick: bool,
    /// `--json`: print the `musa.bench.v1` report instead of text.
    pub json: bool,
    /// `--filter <bench>`: measure one benchmark only.
    pub filter: Option<String>,
    /// `--baseline <file>`: compare against a committed report.
    pub baseline: Option<String>,
    /// `--write`: save the report as the next free `BENCH_<n>.json`.
    pub write: bool,
    /// `--seed N`.
    pub seed: Option<u64>,
    /// `--history`: render the per-cell median trajectory over the
    /// committed `BENCH_<n>.json` files instead of measuring.
    pub history: bool,
    /// Observability flags (`--trace`, `--trace-format`, `--profile`,
    /// `--progress`).
    pub trace: TraceOpts,
}

/// The `musa bench` usage text (`musa help` points here too).
pub const BENCH_USAGE: &str = "\
usage: musa bench <name>                 stats for one bundled benchmark
       musa bench [--quick] [--json] [--filter <bench>]
                  [--baseline <file>] [--write] [--seed N]
                  [--trace FILE] [--trace-format json|chrome]
                  [--profile] [--progress]
                                         benchmark trajectory
       musa bench --history [--json] [--filter <bench>]
                                         per-cell median trajectory over
                                         the committed BENCH_<n>.json
trajectory flags:
  --quick            1 warmup + 3 timed samples per cell instead of
                     3 + 9; same grid and invariants, but the baseline
                     gate skips absolute wall time (invariants +
                     scalar/lanes engine ratio only) so a noisy 1-CPU
                     CI runner stays deterministic
  --json             print the report as `musa.bench.v1` JSON
  --filter <bench>   measure one benchmark; baseline cells are
                     filtered to the same benchmark before comparing
  --baseline <file>  compare against a committed BENCH_<n>.json and
                     exit 1 on any gated regression
  --write            write the report to the next free BENCH_<n>.json
  --seed N           master seed (default 0xDA7E2005)
  --history          no measuring: read BENCH_1.json, BENCH_2.json, …
                     from the working directory and print each cell's
                     median wall-time trajectory (text, or
                     `musa.bench.history.v1` with --json)
  --trace FILE       write collected spans + counters to FILE
  --trace-format json|chrome
                     trace file format (default: musa.trace.v1 JSON)
  --profile          per-phase breakdown after the run (stderr with
                     --json)
  --progress         coarse stderr progress lines while measuring";

/// How a `musa bench` invocation routes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BenchCommand {
    /// The legacy contract: `musa bench <name>` prints netlist stats
    /// and the mutant-population size (exit 1 on an unknown name).
    Legacy(String),
    /// Trajectory mode: run the timed grid.
    Trajectory(TrajectoryArgs),
}

impl BenchCommand {
    /// Parses everything after `musa bench`. Exactly one non-flag
    /// argument and nothing else selects the legacy stats contract;
    /// every other argument shape is trajectory mode.
    ///
    /// # Errors
    ///
    /// A message naming the offending argument; front ends print it
    /// with [`BENCH_USAGE`] and exit 2.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        if args.len() == 1 && !args[0].starts_with('-') {
            return Ok(BenchCommand::Legacy(args[0].clone()));
        }
        let mut trajectory = TrajectoryArgs::default();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--quick" => trajectory.quick = true,
                "--json" => trajectory.json = true,
                "--write" => trajectory.write = true,
                "--history" => trajectory.history = true,
                "--profile" => trajectory.trace.profile = true,
                "--progress" => trajectory.trace.progress = true,
                "--trace" => {
                    trajectory.trace.trace = Some(
                        args.get(i + 1)
                            .filter(|v| !v.starts_with('-'))
                            .ok_or("--trace expects a file path")?
                            .clone(),
                    );
                    i += 1;
                }
                "--trace-format" => {
                    trajectory.trace.format = match args.get(i + 1).map(String::as_str) {
                        Some("json") => TraceFormat::Json,
                        Some("chrome") => TraceFormat::Chrome,
                        _ => return Err("--trace-format expects json|chrome".to_string()),
                    };
                    i += 1;
                }
                "--filter" => {
                    trajectory.filter = Some(
                        args.get(i + 1)
                            .filter(|v| !v.starts_with('-'))
                            .ok_or("--filter expects a benchmark name")?
                            .clone(),
                    );
                    i += 1;
                }
                "--baseline" => {
                    trajectory.baseline = Some(
                        args.get(i + 1)
                            .filter(|v| !v.starts_with('-'))
                            .ok_or("--baseline expects a file path")?
                            .clone(),
                    );
                    i += 1;
                }
                "--seed" => {
                    trajectory.seed = Some(
                        args.get(i + 1)
                            .and_then(|s| s.parse().ok())
                            .ok_or("--seed expects an integer value")?,
                    );
                    i += 1;
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
            i += 1;
        }
        Ok(BenchCommand::Trajectory(trajectory))
    }
}

/// Runs the benchmark trajectory and returns the process exit code:
/// `0` on success, `1` on a campaign failure or any gated regression,
/// `2` on a usage-level error (unknown `--filter` benchmark,
/// unreadable or malformed `--baseline` file).
pub fn run_trajectory(args: &TrajectoryArgs) -> u8 {
    if args.history {
        return run_history(args);
    }
    let benches: Vec<Benchmark> = match &args.filter {
        Some(name) => match Benchmark::from_name(name) {
            Some(bench) => vec![bench],
            None => {
                eprintln!(
                    "error: unknown benchmark `{name}` for --filter (see `musa list`)"
                );
                return 2;
            }
        },
        None => DEFAULT_BENCHES.to_vec(),
    };
    // Read the baseline before spending minutes measuring: a malformed
    // file must fail fast.
    let baseline = match &args.baseline {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("error: --baseline {path}: {e}");
                    return 2;
                }
            };
            match BenchReport::from_json(&text) {
                Ok(mut report) => {
                    if let Some(name) = &args.filter {
                        report.cells.retain(|c| c.bench == *name);
                    }
                    Some(report)
                }
                Err(e) => {
                    eprintln!("error: --baseline {path}: {e}");
                    return 2;
                }
            }
        }
        None => None,
    };
    musa_trace::set_progress(args.trace.progress);
    let campaign = Campaign::new(Benchmark::C17)
        .benches(&benches)
        .seed(args.seed.unwrap_or(DEFAULT_SEED))
        .trace(args.trace.wants_trace())
        .task(Task::Bench { quick: args.quick });
    let report = match campaign.run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    print_report(&report, args.json);
    if let Err(message) = emit_observability(&report, &args.trace, args.json) {
        eprintln!("error: {message}");
        return 1;
    }
    let ReportData::Bench(current) = &report.data else {
        unreachable!("Task::Bench always yields ReportData::Bench");
    };
    if args.write {
        let path = next_bench_path(std::path::Path::new("."));
        if let Err(e) = std::fs::write(&path, format!("{}\n", current.to_json())) {
            eprintln!("error: {}: {e}", path.display());
            return 1;
        }
        eprintln!("wrote {}", path.display());
    }
    if let Some(baseline) = &baseline {
        let policy =
            if args.quick { ComparePolicy::quick() } else { ComparePolicy::full() };
        let findings = compare(baseline, current, &policy);
        if !findings.is_empty() {
            for finding in &findings {
                eprintln!("regression: {finding}");
            }
            eprintln!("{} regression(s) against the baseline", findings.len());
            return 1;
        }
        eprintln!(
            "baseline check: {} cells pass ({})",
            baseline.cells.len(),
            if policy.gate_wall {
                "invariants + engine ratio + wall"
            } else {
                "invariants + engine ratio"
            },
        );
    }
    0
}

/// `musa bench --history`: loads the committed `BENCH_<n>.json`
/// sequence from the working directory (numbered contiguously from 1,
/// exactly what `--write` produces) and prints each cell's median
/// wall-time trajectory — the ROADMAP's `dev/bench`-style history
/// renderer. Exit `0` on success, `2` when no reports exist or one is
/// malformed.
fn run_history(args: &TrajectoryArgs) -> u8 {
    // Same naming contract as `next_bench_path`: indices may have gaps
    // (they are never reused), so scan the directory instead of
    // counting up from 1.
    let mut indices: Vec<u64> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(".") {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(n) = name
                .strip_prefix("BENCH_")
                .and_then(|rest| rest.strip_suffix(".json"))
                .and_then(|digits| digits.parse::<u64>().ok())
            {
                indices.push(n);
            }
        }
    }
    indices.sort_unstable();
    let mut labels = Vec::new();
    let mut reports = Vec::new();
    for n in indices {
        let path = format!("BENCH_{n}.json");
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return 2;
            }
        };
        match BenchReport::from_json(&text) {
            Ok(mut report) => {
                if let Some(name) = &args.filter {
                    report.cells.retain(|c| c.bench == *name);
                }
                labels.push(format!("BENCH_{n}"));
                reports.push(report);
            }
            Err(e) => {
                eprintln!("error: {path}: {e}");
                return 2;
            }
        }
    }
    if reports.is_empty() {
        eprintln!("error: no BENCH_<n>.json reports in the working directory");
        return 2;
    }
    if args.json {
        println!("{}", bench_history_json(&labels, &reports));
    } else {
        print!("{}", render_bench_history(&labels, &reports));
    }
    0
}

/// The six experiment binaries, with their per-binary defaults
/// (benchmark sets, task parameters, legacy error wording).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bin {
    /// `table1` — operator fault-coverage efficiency.
    Table1,
    /// `table2` — test-oriented vs random 10 % sampling.
    Table2,
    /// `sweep_fraction` — E1.
    SweepFraction,
    /// `coverage_curves` — E2.
    CoverageCurves,
    /// `atpg_topup` — E3.
    AtpgTopup,
    /// `equivalence_ablation` — E4.
    EquivalenceAblation,
}

impl Bin {
    /// The task this binary runs, with its legacy default parameters.
    pub fn task(self, fast: bool) -> Task {
        match self {
            Bin::Table1 => Task::Table1 {
                operators: MutationOperator::paper_set().to_vec(),
            },
            Bin::Table2 => Task::Table2 { fraction: 0.10 },
            Bin::SweepFraction => Task::SweepFraction {
                fractions: vec![0.05, 0.10, 0.20, 0.50, 1.00],
            },
            Bin::CoverageCurves => Task::CoverageCurves { points: 12 },
            Bin::AtpgTopup => Task::AtpgTopup { backtrack_limit: 50_000 },
            Bin::EquivalenceAblation => Task::EquivalenceAblation {
                budgets: if fast {
                    vec![50, 200, 1_000]
                } else {
                    vec![100, 500, 2_000, 10_000, 50_000]
                },
            },
        }
    }

    /// The benchmark set this binary measures (`--fast` scales it
    /// down, exactly like the pre-redesign binaries did).
    pub fn benches(self, fast: bool) -> Vec<Benchmark> {
        match self {
            Bin::Table1 | Bin::Table2 => Benchmark::paper_set().to_vec(),
            Bin::SweepFraction => {
                if fast {
                    vec![Benchmark::B01, Benchmark::C17]
                } else {
                    Benchmark::paper_set().to_vec()
                }
            }
            Bin::CoverageCurves => {
                if fast {
                    vec![Benchmark::C17, Benchmark::B01]
                } else {
                    Benchmark::paper_set().to_vec()
                }
            }
            Bin::AtpgTopup => {
                // E3 targets the paper's combinational circuits.
                if fast {
                    vec![Benchmark::C17]
                } else {
                    vec![Benchmark::C17, Benchmark::C432, Benchmark::C499]
                }
            }
            Bin::EquivalenceAblation => {
                if fast {
                    vec![Benchmark::C17]
                } else {
                    Benchmark::paper_set().to_vec()
                }
            }
        }
    }

    /// The campaign this binary's options select.
    pub fn campaign(self, opts: &CliOptions) -> Campaign {
        let mut campaign = Campaign::new(Benchmark::C17)
            .benches(&self.benches(opts.fast))
            .seed(opts.seed)
            .jobs(opts.jobs)
            .engine(opts.engine)
            .fault_reduce(opts.fault_reduce)
            .opt(opts.opt)
            .trace(opts.trace.wants_trace())
            .task(self.task(opts.fast));
        if opts.fast {
            campaign = campaign.fast();
        }
        if opts.paper {
            campaign = campaign.paper();
        }
        campaign
    }

    /// The legacy stderr line for a failure.
    fn error_message(self, error: &CampaignError) -> String {
        let prefix = match self {
            Bin::Table1 => "table1 failed",
            Bin::Table2 => "table2 failed",
            Bin::SweepFraction => "sweep failed",
            Bin::CoverageCurves => "curves failed",
            Bin::AtpgTopup => "atpg_topup failed",
            Bin::EquivalenceAblation => "ablation failed",
        };
        match error {
            CampaignError::Run { bench, source } => {
                format!("{prefix} on {bench}: {source}")
            }
            other => format!("{prefix}: {other}"),
        }
    }
}

/// Parses `std::env::args`, runs the binary's campaign and prints the
/// report (text by default, `--json` for the typed report). The whole
/// `main` of every experiment binary.
pub fn drive(bin: Bin) {
    let opts = CliOptions::from_args();
    musa_trace::set_progress(opts.trace.progress);
    match bin.campaign(&opts).run() {
        Ok(report) => {
            print_report(&report, opts.json);
            if let Err(message) = emit_observability(&report, &opts.trace, opts.json) {
                eprintln!("error: {message}");
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("{}", bin.error_message(&e));
            std::process::exit(1);
        }
    }
}

/// Prints a campaign report the way every front end does: the stable
/// text rendering by default, the `musa.campaign.v1` JSON with
/// `--json`.
pub fn print_report(report: &Report, json: bool) {
    if json {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn default_options() {
        let opts = CliOptions {
            fast: true,
            paper: false,
            json: false,
            seed: 42,
            jobs: 0,
            engine: Engine::Scalar,
            fault_reduce: true,
            screen: true,
            opt: OptLevel::Full,
            trace: TraceOpts::default(),
        };
        let cfg = opts.config();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.jobs, 0, "0 = one worker per available CPU");
    }

    #[test]
    fn jobs_option_reaches_the_config() {
        let opts = CliOptions {
            fast: false,
            paper: false,
            json: false,
            seed: 1,
            jobs: 3,
            engine: Engine::Scalar,
            fault_reduce: true,
            screen: true,
            opt: OptLevel::Full,
            trace: TraceOpts::default(),
        };
        assert_eq!(opts.config().jobs, 3);
    }

    #[test]
    fn engine_option_reaches_the_config_and_generation() {
        let opts = CliOptions {
            fast: true,
            paper: false,
            json: false,
            seed: 1,
            jobs: 0,
            engine: Engine::Lanes,
            fault_reduce: true,
            screen: true,
            opt: OptLevel::Full,
            trace: TraceOpts::default(),
        };
        let cfg = opts.config();
        assert_eq!(cfg.engine, Engine::Lanes);
        assert_eq!(cfg.mg.engine, Engine::Lanes);
    }

    #[test]
    fn usage_documents_every_flag() {
        for flag in [
            "--fast", "--paper", "--seed", "--jobs", "--engine", "--fault-reduce",
            "--screen", "--opt", "--json", "--trace", "--trace-format", "--profile",
            "--progress", "--help",
        ] {
            assert!(CliOptions::USAGE.contains(flag), "usage lacks {flag}");
        }
    }

    #[test]
    fn shared_parser_handles_the_full_flag_set() {
        let parsed = parse_tokens(
            &strings(&["--fast", "--seed", "9", "--jobs", "2", "--engine", "lanes", "--json"]),
            0,
            true,
        )
        .unwrap();
        assert!(parsed.fast && parsed.json && !parsed.paper);
        assert_eq!(parsed.seed, Some(9));
        assert_eq!(parsed.jobs, Some(2));
        assert_eq!(parsed.engine, Some(Engine::Lanes));
    }

    #[test]
    fn shared_parser_reports_value_errors() {
        assert_eq!(
            parse_tokens(&strings(&["--seed", "zz"]), 0, true).unwrap_err(),
            CliError::SeedValue
        );
        assert_eq!(
            parse_tokens(&strings(&["--jobs"]), 0, true).unwrap_err(),
            CliError::JobsValue
        );
        assert_eq!(
            parse_tokens(&strings(&["--engine"]), 0, true).unwrap_err(),
            CliError::EngineMissing
        );
        assert!(matches!(
            parse_tokens(&strings(&["--engine", "turbo"]), 0, true).unwrap_err(),
            CliError::EngineInvalid(_)
        ));
    }

    #[test]
    fn fault_reduce_flag_parses_and_reaches_the_config() {
        let parsed =
            parse_tokens(&strings(&["--fault-reduce", "off"]), 0, true).unwrap();
        assert_eq!(parsed.fault_reduce, Some(false));
        let parsed = parse_tokens(&strings(&["--fault-reduce", "on"]), 0, true).unwrap();
        assert_eq!(parsed.fault_reduce, Some(true));
        for bad in [&["--fault-reduce"][..], &["--fault-reduce", "maybe"][..]] {
            assert_eq!(
                parse_tokens(&strings(bad), 0, true).unwrap_err(),
                CliError::FaultReduceValue,
                "{bad:?}"
            );
        }
        let opts = CliOptions {
            fast: true,
            paper: false,
            json: false,
            seed: 1,
            jobs: 0,
            engine: Engine::Scalar,
            fault_reduce: false,
            screen: true,
            opt: OptLevel::Full,
            trace: TraceOpts::default(),
        };
        assert!(!opts.config().fault_reduce);
        let args =
            SampleArgs::parse(&strings(&["c17", "--fault-reduce", "off"])).unwrap();
        assert!(!args.fault_reduce);
        assert!(
            SampleArgs::parse(&strings(&["c17", "--fault-reduce", "2"]))
                .unwrap_err()
                .contains("on|off")
        );
        // Default: reduction on.
        assert!(SampleArgs::parse(&strings(&["c17"])).unwrap().fault_reduce);
    }

    #[test]
    fn screen_flag_parses_and_reaches_the_config() {
        let parsed = parse_tokens(&strings(&["--screen", "off"]), 0, true).unwrap();
        assert_eq!(parsed.screen, Some(false));
        let parsed = parse_tokens(&strings(&["--screen", "static"]), 0, true).unwrap();
        assert_eq!(parsed.screen, Some(true));
        for bad in [&["--screen"][..], &["--screen", "on"][..]] {
            assert_eq!(
                parse_tokens(&strings(bad), 0, true).unwrap_err(),
                CliError::ScreenValue,
                "{bad:?}"
            );
        }
        let opts = CliOptions {
            fast: true,
            paper: false,
            json: false,
            seed: 1,
            jobs: 0,
            engine: Engine::Scalar,
            fault_reduce: true,
            screen: false,
            opt: OptLevel::Full,
            trace: TraceOpts::default(),
        };
        assert!(!opts.config().screen);
        let args = SampleArgs::parse(&strings(&["c17", "--screen", "off"])).unwrap();
        assert!(!args.screen);
        assert!(
            SampleArgs::parse(&strings(&["c17", "--screen", "on"]))
                .unwrap_err()
                .contains("static|off")
        );
        // Default: screening on.
        assert!(SampleArgs::parse(&strings(&["c17"])).unwrap().screen);
    }

    #[test]
    fn opt_flag_parses_and_reaches_the_config() {
        let parsed = parse_tokens(&strings(&["--opt", "off"]), 0, true).unwrap();
        assert_eq!(parsed.opt, Some(OptLevel::Off));
        let parsed = parse_tokens(&strings(&["--opt", "full"]), 0, true).unwrap();
        assert_eq!(parsed.opt, Some(OptLevel::Full));
        for bad in [&["--opt"][..], &["--opt", "fast"][..]] {
            assert_eq!(
                parse_tokens(&strings(bad), 0, true).unwrap_err(),
                CliError::OptValue,
                "{bad:?}"
            );
        }
        let opts = CliOptions { opt: OptLevel::Off, ..CliOptions::default() };
        let cfg = opts.config();
        assert_eq!(cfg.opt, OptLevel::Off);
        assert_eq!(cfg.mg.opt, OptLevel::Off, "--opt must reach generation too");
        let args = SampleArgs::parse(&strings(&["c17", "--opt", "off"])).unwrap();
        assert_eq!(args.opt, OptLevel::Off);
        assert!(SampleArgs::parse(&strings(&["c17", "--opt", "fast"]))
            .unwrap_err()
            .contains("full|off"));
        // Default: the optimizer is on.
        assert_eq!(SampleArgs::parse(&strings(&["c17"])).unwrap().opt, OptLevel::Full);
    }

    #[test]
    fn trace_flags_parse_and_reach_the_campaign() {
        let parsed = parse_tokens(
            &strings(&[
                "--trace", "t.json", "--trace-format", "chrome", "--profile", "--progress",
            ]),
            0,
            true,
        )
        .unwrap();
        assert_eq!(parsed.trace.trace.as_deref(), Some("t.json"));
        assert_eq!(parsed.trace.format, TraceFormat::Chrome);
        assert!(parsed.trace.profile && parsed.trace.progress);
        assert!(parsed.trace.wants_trace());
        assert_eq!(
            parse_tokens(&strings(&["--trace"]), 0, true).unwrap_err(),
            CliError::TraceValue
        );
        assert_eq!(
            parse_tokens(&strings(&["--trace", "--fast"]), 0, true).unwrap_err(),
            CliError::TraceValue
        );
        assert_eq!(
            parse_tokens(&strings(&["--trace-format", "xml"]), 0, true).unwrap_err(),
            CliError::TraceFormatValue
        );
        // --profile alone is enough to need a live tracer; the default
        // flag set is not (so untraced runs stay bit-identical).
        let args = SampleArgs::parse(&strings(&["c17", "--profile"])).unwrap();
        assert!(args.trace.wants_trace());
        let args = SampleArgs::parse(&strings(&["c17"])).unwrap();
        assert!(!args.trace.wants_trace());
        assert!(SampleArgs::parse(&strings(&["c17", "--trace-format", "xml"]))
            .unwrap_err()
            .contains("json|chrome"));
    }

    #[test]
    fn help_short_circuits_before_later_malformed_values() {
        // The pre-redesign loop exited at --help without reading the
        // rest of the line; `--help --seed zz` must report help, not a
        // value error.
        let parsed = parse_tokens(&strings(&["--help", "--seed", "zz"]), 0, true).unwrap();
        assert!(parsed.help);
        // ...while an error BEFORE --help still wins, as it always did.
        assert_eq!(
            parse_tokens(&strings(&["--seed", "zz", "--help"]), 0, true).unwrap_err(),
            CliError::SeedValue
        );
    }

    #[test]
    fn strict_mode_rejects_unknown_flags_and_extra_positionals() {
        assert_eq!(
            parse_tokens(&strings(&["--frobnicate"]), 2, false).unwrap_err(),
            CliError::UnknownFlag("--frobnicate".into())
        );
        assert_eq!(
            parse_tokens(&strings(&["a", "b", "c"]), 2, false).unwrap_err(),
            CliError::TooManyPositionals
        );
    }

    #[test]
    fn sample_args_match_the_legacy_contract() {
        let args = SampleArgs::parse(&strings(&["c17", "0.5", "--jobs", "2", "--seed", "9"]))
            .unwrap();
        assert_eq!(args.name, "c17");
        assert_eq!(args.fraction, 0.5);
        assert_eq!(args.jobs, 2);
        assert_eq!(args.seed, 9);
        assert!(!args.paper);

        assert_eq!(SampleArgs::parse(&[]).unwrap_err(), SAMPLE_USAGE);
        assert!(SampleArgs::parse(&strings(&["c17", "xx"]))
            .unwrap_err()
            .contains("bad fraction"));
        assert!(SampleArgs::parse(&strings(&["c17", "--engine", "turbo"]))
            .unwrap_err()
            .contains("unknown engine"));
        assert!(SampleArgs::parse(&strings(&["c17", "--wat"]))
            .unwrap_err()
            .contains("unknown flag `--wat`"));
    }

    #[test]
    fn bench_command_routes_legacy_vs_trajectory() {
        // One bare positional — the legacy stats contract, resolvable
        // or not (the unknown-name error stays an exit-1 runtime path).
        assert_eq!(
            BenchCommand::parse(&strings(&["c432"])).unwrap(),
            BenchCommand::Legacy("c432".into())
        );
        assert_eq!(
            BenchCommand::parse(&strings(&["zz99"])).unwrap(),
            BenchCommand::Legacy("zz99".into())
        );
        // No arguments, or any flag — trajectory mode.
        assert_eq!(
            BenchCommand::parse(&[]).unwrap(),
            BenchCommand::Trajectory(TrajectoryArgs::default())
        );
        let parsed = BenchCommand::parse(&strings(&[
            "--quick", "--json", "--filter", "c17", "--baseline", "BENCH_1.json",
            "--write", "--seed", "9", "--history", "--trace", "t.json",
            "--trace-format", "chrome", "--profile", "--progress",
        ]))
        .unwrap();
        assert_eq!(
            parsed,
            BenchCommand::Trajectory(TrajectoryArgs {
                quick: true,
                json: true,
                filter: Some("c17".into()),
                baseline: Some("BENCH_1.json".into()),
                write: true,
                seed: Some(9),
                history: true,
                trace: TraceOpts {
                    trace: Some("t.json".into()),
                    format: TraceFormat::Chrome,
                    profile: true,
                    progress: true,
                },
            })
        );
    }

    #[test]
    fn bench_command_reports_usage_errors() {
        for (args, fragment) in [
            (&["--filter"][..], "--filter expects"),
            (&["--filter", "--quick"][..], "--filter expects"),
            (&["--baseline"][..], "--baseline expects"),
            (&["--seed", "zz"][..], "--seed expects"),
            (&["--trace"][..], "--trace expects"),
            (&["--trace", "--quick"][..], "--trace expects"),
            (&["--trace-format", "xml"][..], "--trace-format expects"),
            (&["--quick", "extra"][..], "unknown argument `extra`"),
            (&["--frobnicate"][..], "unknown argument `--frobnicate`"),
        ] {
            let err = BenchCommand::parse(&strings(args)).unwrap_err();
            assert!(err.contains(fragment), "{args:?}: {err}");
        }
    }

    #[test]
    fn bench_usage_documents_every_trajectory_flag() {
        for flag in [
            "--quick", "--json", "--filter", "--baseline", "--write", "--seed",
            "--history", "--trace", "--trace-format", "--profile", "--progress",
        ] {
            assert!(BENCH_USAGE.contains(flag), "usage lacks {flag}");
        }
    }

    #[test]
    fn trajectory_rejects_unknown_filter_before_measuring() {
        let args = TrajectoryArgs {
            filter: Some("zz99".into()),
            ..TrajectoryArgs::default()
        };
        assert_eq!(run_trajectory(&args), 2);
    }

    #[test]
    fn trajectory_rejects_missing_and_malformed_baselines() {
        let missing = TrajectoryArgs {
            baseline: Some("/nonexistent/BENCH_0.json".into()),
            ..TrajectoryArgs::default()
        };
        assert_eq!(run_trajectory(&missing), 2);
        let dir = std::env::temp_dir()
            .join(format!("musa-cli-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("broken.json");
        std::fs::write(&path, "{ not json").unwrap();
        let malformed = TrajectoryArgs {
            baseline: Some(path.to_str().unwrap().to_string()),
            ..TrajectoryArgs::default()
        };
        assert_eq!(run_trajectory(&malformed), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bins_reproduce_their_legacy_defaults() {
        assert_eq!(
            Bin::Table1.task(false),
            Task::Table1 { operators: MutationOperator::paper_set().to_vec() }
        );
        assert_eq!(Bin::Table2.task(true), Task::Table2 { fraction: 0.10 });
        assert_eq!(
            Bin::SweepFraction.benches(true),
            vec![Benchmark::B01, Benchmark::C17]
        );
        assert_eq!(
            Bin::CoverageCurves.benches(true),
            vec![Benchmark::C17, Benchmark::B01]
        );
        assert_eq!(Bin::AtpgTopup.benches(false).len(), 3);
        assert_eq!(
            Bin::EquivalenceAblation.task(false),
            Task::EquivalenceAblation { budgets: vec![100, 500, 2_000, 10_000, 50_000] }
        );
        // Every bin's campaign validates (no run).
        for bin in [
            Bin::Table1,
            Bin::Table2,
            Bin::SweepFraction,
            Bin::CoverageCurves,
            Bin::AtpgTopup,
            Bin::EquivalenceAblation,
        ] {
            let opts = CliOptions {
                fast: true,
                paper: false,
                json: false,
                seed: 1,
                jobs: 1,
                engine: Engine::Scalar,
                fault_reduce: true,
                screen: true,
                opt: OptLevel::Full,
                trace: TraceOpts::default(),
            };
            bin.campaign(&opts).validate().unwrap_or_else(|e| panic!("{bin:?}: {e}"));
        }
    }
}
