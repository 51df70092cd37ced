//! End-to-end benchmark of the paper experiments.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload table1|sample-c432|sample-seq --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times the experiment calls (`OperatorProfile::measure`,
//! `run_sampling_experiment_on`) and reports the end-to-end metrics.
//! `--trace 1` alternates untraced calls with a traced replay of the
//! same calls (`replay.rs`) and reports self time and work counts per
//! layer. Both check every result; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! See `NOTES.md` for the workloads and metrics.

mod digest;
mod host;
mod replay;
mod spans;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use spans::{Ctx, Recorder};
use workload::{Outcome, Prepared, Workload, THREADS};

/// Set-ups of a traced run; the set-up layers report their median.
const SETUPS: usize = 21;

/// Set-ups timed before each untraced pass, besides the first one.
/// Spread over the run, their median follows the host's speed over the
/// whole run, as the passes do, not over one short moment.
const SETUPS_PER_PASS: usize = 4;

/// Layers timed by the traced replay; metric `<layer>_s` is self time.
const LAYERS: [&str; 11] = [
    "hdl.check",
    "synth.synthesize",
    "mutation.generate",
    "netlist.universe",
    "netlist.fsim_baseline",
    "netlist.fsim_data",
    "mutation.classify",
    "testgen.mg",
    "mutation.exec",
    "analysis.screen",
    "testgen.sample",
];

/// Work counters the traced replay reports as they are.
const COUNTERS: [&str; 11] = [
    "synth.gates",
    "mutation.generate.mutants",
    "netlist.faults",
    "netlist.fsim_baseline.fault_vectors",
    "netlist.fsim_data.fault_vectors",
    "mutation.classify.survivors",
    "testgen.mg.vectors",
    "testgen.mg.killed",
    "mutation.exec.mutant_vectors",
    "mutation.exec.killed",
    "analysis.screen.proven",
];

/// Spans of the benchmark itself; their self time is unattributed.
const ROOTS: [&str; 3] = ["core.setup", "core.pass", "core.op"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                );
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                });
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Whether the seed has pinned digests (and they were checked).
    pinned: bool,
}

impl Checks {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = result {
            self.failed += 1;
            self.problems.push(problem);
        }
    }
}

fn call(
    f: impl FnOnce() -> Result<Outcome, musa_mutation::MutationError>,
) -> Result<Outcome, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result.map_err(|e| e.to_string()),
        Err(panic) => Err(panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())),
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Mean over passes of each pass's median time: one number per pass of
/// the workload, robust to a pass disturbed by other load.
fn mean_of_medians(per_pass: &[Vec<f64>]) -> f64 {
    mean(
        &per_pass
            .iter()
            .map(|times| median(times))
            .collect::<Vec<_>>(),
    )
}

struct Bench {
    args: Args,
    /// Host facts, as JSON.
    host: String,
    /// Experiment seed of each pass.
    seeds: Vec<u64>,
    checks: Checks,
    /// Untraced wall and CPU seconds, per pass, one entry per cycle.
    walls: Vec<Vec<f64>>,
    cpus: Vec<Vec<f64>>,
    /// First result of each (pass, circuit), all fields.
    reference: Vec<Vec<Option<String>>>,
}

impl Bench {
    fn new(args: Args, host: String, seeds: Vec<u64>) -> Self {
        let circuits = args.workload.benches().len();
        Self {
            walls: vec![Vec::new(); seeds.len()],
            cpus: vec![Vec::new(); seeds.len()],
            reference: vec![vec![None; circuits]; seeds.len()],
            seeds,
            args,
            host,
            checks: Checks::default(),
        }
    }

    /// Whether another round (a cycle over every pass, or one traced
    /// pass) fits in `--seconds`, going by the `done` rounds so far. The
    /// first round always runs.
    fn another_round(&self, start: Instant, done: usize) -> bool {
        done == 0
            || start.elapsed().as_secs_f64() * (done + 1) as f64 / done as f64
                <= self.args.seconds as f64
    }

    /// Untraced pass `k`: every experiment call with the pass's seed,
    /// timed as a whole, then checked.
    fn untraced_pass(&mut self, k: usize, prepared: &[Prepared]) {
        let config = self.args.workload.config(self.seeds[k]);
        let (cpu0, t0) = (host::cpu_seconds(), Instant::now());
        let outcomes: Vec<Result<Outcome, String>> = prepared
            .iter()
            .map(|p| call(|| workload::run_op(self.args.workload, p, &config)))
            .collect();
        let wall = t0.elapsed().as_secs_f64();
        let cpu = host::cpu_seconds() - cpu0;
        println!("pass {k} seed {} wall_s {wall} cpu_s {cpu}", self.seeds[k]);
        self.walls[k].push(wall);
        self.cpus[k].push(cpu);
        for (slot, (p, outcome)) in prepared.iter().zip(outcomes).enumerate() {
            let result = outcome.and_then(|o| self.verify(k, slot, &p.circuit.name, &o));
            self.checks.record(result);
        }
    }

    /// Checks a result: range invariants always; then, on its first
    /// run, the pinned digests of its seed, if any; later, bit identity
    /// with that first run.
    fn verify(
        &mut self,
        k: usize,
        slot: usize,
        circuit: &str,
        outcome: &Outcome,
    ) -> Result<(), String> {
        digest::check_invariants(outcome).map_err(|e| format!("{circuit}: {e}"))?;
        let full = outcome.full();
        let seed = self.seeds[k];
        match &self.reference[k][slot] {
            Some(reference) if *reference != full => Err(format!(
                "{circuit} seed {seed}: result differs from its first run"
            )),
            Some(_) => Ok(()),
            None => {
                let workload = self.args.workload.name();
                let lines = digest::digest(circuit, outcome);
                self.checks.pinned |=
                    digest::check_pins(digest::PINS, workload, seed, circuit, &lines)?;
                for line in &lines {
                    println!("digest {workload} {seed} {line}");
                }
                self.reference[k][slot] = Some(full);
                Ok(())
            }
        }
    }
}

type Metrics = Vec<(String, f64, &'static str)>;

fn run_untraced(bench: &mut Bench) -> Result<Metrics, String> {
    let w = bench.args.workload;
    let mut setups = Vec::new();
    let mut set_up = || {
        let t0 = Instant::now();
        let prepared = workload::set_up(w);
        setups.push(t0.elapsed().as_secs_f64());
        prepared
    };
    let prepared = set_up()?;
    let start = Instant::now();
    let mut cycles = 0;
    while bench.another_round(start, cycles) {
        for k in 0..bench.seeds.len() {
            for _ in 0..SETUPS_PER_PASS {
                set_up()?;
            }
            bench.untraced_pass(k, &prepared);
        }
        cycles += 1;
    }
    let attempted = bench.checks.attempted.max(1) as f64;
    Ok(vec![
        ("wall_s".into(), mean_of_medians(&bench.walls), "s"),
        ("setup_s".into(), median(&setups), "s"),
        ("cpu_s".into(), mean_of_medians(&bench.cpus), "s"),
        ("peak_rss_mb".into(), host::peak_rss_mb(), "MB"),
        (
            "success_rate".into(),
            1.0 - bench.checks.failed as f64 / attempted,
            "ratio",
        ),
    ])
}

fn traced_set_up(ctx: Ctx<'_>, w: Workload) -> Result<Vec<Prepared>, String> {
    ctx.span("core.setup", |ctx| {
        w.benches()
            .iter()
            .map(|&b| replay::set_up_circuit(ctx, b))
            .collect()
    })
}

fn run_traced(bench: &mut Bench) -> Result<Metrics, String> {
    let w = bench.args.workload;
    let rec = Recorder::default();
    let mut run = 0u32;
    let mut setup_runs = Vec::new();
    let mut prepared = Vec::new();
    for _ in 0..SETUPS {
        prepared = traced_set_up(rec.run(run), w)?;
        setup_runs.push(run);
        run += 1;
    }
    let untraced = workload::set_up(w)?;
    // Synthesis numbers gates in hash-map order, so two loads of one
    // circuit give equivalent netlists that differ in net numbering:
    // compare sizes, and the mutant population exactly.
    let same_set_up = prepared.iter().zip(&untraced).all(|(a, b)| {
        let size = |p: &Prepared| {
            (
                p.circuit.netlist.gate_count(),
                p.circuit.netlist.net_count(),
            )
        };
        size(a) == size(b) && a.population == b.population
    });
    bench.checks.record(if same_set_up {
        Ok(())
    } else {
        Err("traced set-up differs from Benchmark::load + generate_mutants".into())
    });

    // Pass `k` untraced, then traced, cycling over the passes for as
    // long as `--seconds` allows; at least one pass.
    let mut pass_runs = Vec::new();
    let mut traced_walls = Vec::new();
    let start = Instant::now();
    while bench.another_round(start, pass_runs.len()) {
        let k = pass_runs.len() % bench.seeds.len();
        bench.untraced_pass(k, &untraced);
        let config = w.config(bench.seeds[k]);
        let t0 = Instant::now();
        let outcomes: Vec<Result<Outcome, String>> = rec.run(run).span("core.pass", |ctx| {
            prepared
                .iter()
                .map(|p| ctx.span("core.op", |ctx| call(|| replay::run_op(ctx, w, p, &config))))
                .collect()
        });
        traced_walls.push(t0.elapsed().as_secs_f64());
        for (slot, (p, outcome)) in prepared.iter().zip(outcomes).enumerate() {
            let reference = bench.reference[k][slot].as_deref();
            bench.checks.record(outcome.and_then(|o| match reference {
                Some(r) if r == o.full() => Ok(()),
                _ => Err(format!(
                    "{} seed {}: traced replay differs from the experiment call",
                    p.circuit.name, bench.seeds[k]
                )),
            }));
        }
        pass_runs.push(run);
        run += 1;
    }

    let spans = rec.spans();
    write_trace(w, bench.args.seed, &bench.host, &spans);
    let self_times = spans::self_times(&spans);
    let self_time = |runs: &[u32], names: &[&str]| -> Vec<f64> {
        runs.iter()
            .map(|r| {
                names
                    .iter()
                    .map(|n| self_times.get(&(*r, *n)).copied().unwrap_or(0.0))
                    .sum()
            })
            .collect()
    };
    // Set-up layers: median over set-ups. Pass layers: mean per pass.
    let layer_time = |names: &[&str]| {
        median(&self_time(&setup_runs, names)) + mean(&self_time(&pass_runs, names))
    };
    let counter = |name: &str| {
        let of = |runs: &[u32]| {
            runs.iter()
                .map(|&r| rec.counter(r, name))
                .collect::<Vec<_>>()
        };
        median(&of(&setup_runs)) + mean(&of(&pass_runs))
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut metrics: Metrics = Vec::new();
    for layer in LAYERS {
        metrics.push((format!("{layer}_s"), layer_time(&[layer]), "s"));
    }
    for name in COUNTERS {
        metrics.push((name.to_string(), counter(name), "count"));
    }
    metrics.push((
        "netlist.fsim_data.occupancy".into(),
        ratio(
            counter("netlist.fsim_data.faults_simulated"),
            counter("netlist.fsim_data.faults_total"),
        ),
        "ratio",
    ));
    metrics.push((
        "mutation.classify.killable_ratio".into(),
        ratio(
            counter("mutation.classify.killable"),
            counter("mutation.classify.survivors"),
        ),
        "ratio",
    ));
    let wall = mean(&bench.walls.concat());
    metrics.push((
        "core.parallel.utilization".into(),
        ratio(mean(&bench.cpus.concat()), wall * THREADS as f64),
        "ratio",
    ));
    metrics.push((
        "core.unattributed_s".into(),
        mean(&self_time(&pass_runs, &ROOTS)),
        "s",
    ));
    metrics.push(("trace.overhead_s".into(), mean(&traced_walls) - wall, "s"));
    Ok(metrics)
}

/// Writes the host facts and then the spans, as JSON lines, beside the
/// benchmark executable, which lives in the build directory.
fn write_trace(w: Workload, seed: u64, host: &str, spans: &[spans::Span]) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|e| e.parent().map(|p| p.join("perfbench-traces")))
    else {
        return;
    };
    let path = dir.join(format!("{}-seed{seed}.jsonl", w.name()));
    match std::fs::create_dir_all(&dir).and_then(|()| {
        std::fs::write(
            &path,
            format!("{{\"host\":{host}}}\n{}", spans::to_json_lines(spans)),
        )
    }) {
        Ok(()) => println!("spans {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// with its unit.
fn result_json(checks: &Checks, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                host::json_string(name),
                host::json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0 && checks.attempted > 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload table1|sample-c432|sample-seq --seed N --seconds S [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let host = host::facts_json();
    println!("host {host}");
    let seeds = args.workload.experiment_seeds(args.seed);
    let mut bench = Bench::new(args, host, seeds);
    let metrics = if bench.args.trace {
        run_traced(&mut bench)
    } else {
        run_untraced(&mut bench)
    };
    let metrics = match metrics {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &bench.checks.problems {
        eprintln!("perfbench: FAILED {problem}");
    }
    println!(
        "{} seed {}: {} passes, {}/{} operations failed (fail_rate {}), pinned digests {}",
        bench.args.workload.name(),
        bench.args.seed,
        bench.walls.iter().map(Vec::len).sum::<usize>(),
        bench.checks.failed,
        bench.checks.attempted,
        bench.checks.failed as f64 / bench.checks.attempted.max(1) as f64,
        if bench.checks.pinned {
            "checked"
        } else {
            "absent for this seed"
        },
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<40} {value:>14.6} {unit}");
    }
    println!("{}", result_json(&bench.checks, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(metrics: &Metrics) -> Vec<&str> {
        metrics.iter().map(|(n, _, _)| n.as_str()).collect()
    }

    #[test]
    fn metric_names_use_only_allowed_characters() {
        let mut all: Vec<String> = LAYERS.iter().map(|l| format!("{l}_s")).collect();
        all.extend(COUNTERS.iter().map(|c| c.to_string()));
        all.extend(
            [
                "netlist.fsim_data.occupancy",
                "mutation.classify.killable_ratio",
                "core.parallel.utilization",
                "core.unattributed_s",
                "trace.overhead_s",
                "wall_s",
                "setup_s",
                "cpu_s",
                "peak_rss_mb",
                "success_rate",
            ]
            .map(String::from),
        );
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        for name in &all {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
        }
        let mut unique = all.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), all.len());
    }

    #[test]
    fn emitted_metrics_match_the_benchmark_definition() {
        // The names a run emits, in both modes, are exactly those
        // `BENCHMARK.json` declares.
        let spec = include_str!("../../BENCHMARK.json");
        let declared = |section: &str| -> Vec<String> {
            let body = &spec[spec.find(&format!("\"{section}\"")).unwrap()..];
            let body = &body[..body.find(']').unwrap()];
            body.split("\"name\"")
                .skip(1)
                .map(|s| s.split('"').nth(1).unwrap().to_string())
                .collect()
        };
        let emitted = |trace| {
            let args = Args {
                workload: Workload::SampleSeq,
                seed: 1,
                seconds: 0,
                trace,
            };
            let mut bench = Bench::new(args, host::facts_json(), vec![1]);
            let m = if trace {
                run_traced(&mut bench)
            } else {
                run_untraced(&mut bench)
            }
            .unwrap();
            assert_eq!(bench.checks.failed, 0, "{:?}", bench.checks.problems);
            let json = result_json(&bench.checks, &m);
            assert!(json.starts_with("{\"correct\": true"), "{json}");
            names(&m).into_iter().map(String::from).collect::<Vec<_>>()
        };
        assert_eq!(emitted(false), declared("end_to_end"));
        assert_eq!(emitted(true), declared("per_layer"));
    }

    #[test]
    fn arguments_are_checked() {
        let a = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload sample-seq --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.seconds, ok.trace),
            (Workload::SampleSeq, 7, 3, true)
        );
        assert!(parse_args(&a("--workload nope --seed 7 --seconds 3")).is_err());
        assert!(parse_args(&a("--workload table1 --seed x --seconds 3")).is_err());
        assert!(parse_args(&a("--workload table1 --seconds 3")).is_err());
        assert!(parse_args(&a("--workload table1 --seed 1 --seconds 3 --trace 2")).is_err());
    }
}
