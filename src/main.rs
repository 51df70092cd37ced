//! `musa` — command-line front door to the workspace.
//!
//! ```text
//! musa info   <file.mhdl> <entity>      parse/check/synthesize, print stats
//! musa synth  <file.mhdl> <entity>      emit the synthesized .bench netlist
//! musa mutants <file.mhdl> <entity>     enumerate the mutant population
//! musa faultsim <file.bench> [N] [SEED] grade N LFSR patterns (default 64)
//! musa scoap  <file.bench> [TOP]        SCOAP testability, hardest nets
//! musa atpg   <file.bench> [LIMIT]      PODEM over the collapsed faults
//! musa bench  <name>                    stats for a bundled benchmark
//! musa bench  [--quick] [--json]        benchmark trajectory: timed
//!             [--filter <bench>]        workload grid, musa.bench.v1
//!             [--baseline <file>]       report, regression gate against
//!             [--write] [--seed N]      a committed BENCH_<n>.json
//! musa sample <name> [FRACTION]         run a sampling experiment
//!             [--jobs N] [--seed N] [--paper] [--fast] [--json]
//!             [--engine scalar|lanes]
//! musa lint   <name>|--all|<file.mhdl>  run the static lint catalog;
//!             [--json]                  exit 1 when findings exist
//! musa list                             list bundled benchmarks
//! musa help                             print the full usage text
//! ```
//!
//! `sample` parses through the shared `musa_bench::cli` layer and runs
//! a `musa_core::Campaign`: repetitions (and each repetition's mutant
//! executions) shard across `--jobs` worker threads; `--engine lanes`
//! packs up to 63 mutants plus the reference machine into each
//! behavioral simulation pass. The outcome is bit-identical for every
//! job count and both engines, so the two knobs compose freely.
//! `--json` emits the typed campaign report (`musa.campaign.v1`)
//! instead of text.

use musa::bench::cli::{
    emit_observability, print_report, run_trajectory, BenchCommand, SampleArgs, BENCH_USAGE,
};
use musa::circuits::{Benchmark, Circuit};
use musa::core::{
    lint_report_json, lint_source, render_lint_text, total_findings, Campaign, ReportData, Task,
};
use musa::hdl::{parse, CheckedDesign};
use musa::metrics::CoverageCurve;
use musa::mutation::{count_by_operator, generate_mutants, GenerateOptions};
use musa::netlist::{
    collapsed_faults, fault_simulate, parse_bench, write_bench, Netlist, Testability,
};
use musa::synth::synthesize;
use musa::testgen::{atpg_all, lfsr_patterns};
use std::process::ExitCode;

const USAGE: &str = "\
usage: musa <command> ...

  info     <file.mhdl> <entity>      parse/check/synthesize, print stats
  synth    <file.mhdl> <entity>      emit the synthesized .bench netlist
  mutants  <file.mhdl> <entity>      enumerate the mutant population
  faultsim <file.bench> [N] [SEED]   grade N LFSR patterns (default 64)
  scoap    <file.bench> [TOP]        SCOAP testability, hardest nets
  atpg     <file.bench> [LIMIT]      PODEM over the collapsed faults
  bench    <name>                    stats for one bundled benchmark
  bench    [--quick] [--json] [--filter <bench>] [--baseline <file>]
           [--write] [--seed N]      benchmark trajectory: timed workload
                                     grid, musa.bench.v1 report, regression
                                     gate against a committed BENCH_<n>.json
  bench    --history [--json]        per-cell median wall-time trajectory
           [--filter <bench>]        over the committed BENCH_<n>.json files
  sample   <name> [FRACTION]         run a sampling experiment
           [--jobs N] [--seed N] [--paper] [--fast] [--json]
           [--engine scalar|lanes] [--fault-reduce on|off]
           [--screen static|off] [--opt full|off]
           [--trace FILE] [--trace-format json|chrome] [--profile]
           [--progress]
  lint     <name>|--all|<file.mhdl>  run the static lint catalog over a
           [--json]                  benchmark (or every bundled one, or
                                     an .mhdl file); compiler-style text
                                     or musa.lint.v1 JSON; exit 1 when
                                     findings exist
  list                               list bundled benchmarks
  help                               print this text

observability (any command): --profile prints a per-phase wall/count
breakdown after the run and --progress emits coarse stderr progress
lines; `sample` and `bench` additionally accept --trace FILE
[--trace-format json|chrome] to save the collected spans + counters
(musa.trace.v1, or Chrome trace_event for Perfetto)
";

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // `sample` and `bench` parse the observability flags themselves and
    // host the tracer inside their campaign (which owns the measured
    // wall clock). For every other subcommand, main hosts both: strip
    // `--profile`/`--progress` here, trace the dispatch, and render the
    // breakdown against the whole command's elapsed time.
    let campaign_owned = matches!(
        args.first().map(String::as_str),
        Some("sample") | Some("bench")
    );
    let mut profile = false;
    if !campaign_owned {
        args.retain(|arg| match arg.as_str() {
            "--profile" => {
                profile = true;
                false
            }
            "--progress" => {
                musa::trace::set_progress(true);
                false
            }
            _ => true,
        });
    }
    let tracer = if profile {
        musa::trace::Tracer::new()
    } else {
        musa::trace::Tracer::off()
    };
    let started = std::time::Instant::now();
    let code = {
        let _install = tracer.install();
        dispatch(&args)
    };
    if let Some(data) = tracer.finish() {
        print!("{}", musa::core::render_profile_data(&data, started.elapsed()));
    }
    code
}

fn dispatch(args: &[String]) -> ExitCode {
    let result = match args.first().map(String::as_str) {
        Some("info") => cmd_info(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        Some("mutants") => cmd_mutants(&args[1..]),
        Some("faultsim") => cmd_faultsim(&args[1..]),
        Some("atpg") => cmd_atpg(&args[1..]),
        Some("scoap") => cmd_scoap(&args[1..]),
        Some("bench") => return cmd_bench(&args[1..]),
        Some("sample") => cmd_sample(&args[1..]),
        Some("lint") => return cmd_lint(&args[1..]),
        Some("list") => cmd_list(),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!(
                "usage: musa <info|synth|mutants|faultsim|atpg|scoap|bench|sample|lint|list|help> ..."
            );
            eprintln!("run `musa help` for per-command arguments");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn load_design(args: &[String]) -> Result<(CheckedDesign, String), String> {
    let [path, entity] = args else {
        return Err("expected <file.mhdl> <entity>".into());
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let design = parse(&source).map_err(|e| e.render(&source))?;
    let checked = CheckedDesign::new(design).map_err(|e| e.render(&source))?;
    Ok((checked, entity.clone()))
}

fn load_netlist(path: &str) -> Result<Netlist, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_bench(&text, path).map_err(|e| e.to_string())
}

fn print_netlist_stats(nl: &Netlist) {
    println!(
        "  {} inputs, {} outputs, {} gates, {} flops, depth {}",
        nl.inputs().len(),
        nl.outputs().len(),
        nl.gate_count(),
        nl.dff_count(),
        nl.depth()
    );
    println!(
        "  collapsed stuck-at faults: {}",
        collapsed_faults(nl).len()
    );
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let (checked, entity) = load_design(args)?;
    let info = checked
        .entity_info(&entity)
        .ok_or_else(|| format!("no entity `{entity}`"))?;
    println!("{entity}:");
    println!(
        "  {} data inputs ({} bits), {} outputs ({} bits), {}",
        info.data_inputs.len(),
        info.input_bits(),
        info.outputs.len(),
        info.output_bits(),
        if info.is_combinational() {
            "combinational"
        } else {
            "sequential"
        }
    );
    let nl = synthesize(&checked, &entity).map_err(|e| e.to_string())?;
    print_netlist_stats(&nl);
    Ok(())
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let (checked, entity) = load_design(args)?;
    let nl = synthesize(&checked, &entity).map_err(|e| e.to_string())?;
    print!("{}", write_bench(&nl));
    Ok(())
}

fn cmd_mutants(args: &[String]) -> Result<(), String> {
    let (checked, entity) = load_design(args)?;
    let mutants = generate_mutants(&checked, &entity, &GenerateOptions::default());
    println!("{} valid mutants:", mutants.len());
    for (op, count) in count_by_operator(&mutants) {
        println!("  {:<4} {count:>5}   {}", op.acronym(), op.description());
    }
    Ok(())
}

fn cmd_faultsim(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("expected <file.bench> [vectors] [seed]".into());
    };
    let vectors: usize = args.get(1).map_or(Ok(64), |s| s.parse().map_err(|_| "bad vector count"))?;
    let seed: u64 = args.get(2).map_or(Ok(1), |s| s.parse().map_err(|_| "bad seed"))?;
    let nl = load_netlist(path)?;
    let faults = collapsed_faults(&nl);
    let patterns = lfsr_patterns(nl.inputs().len(), vectors, seed);
    let result = fault_simulate(&nl, &faults, &patterns);
    let curve = CoverageCurve::new(result.coverage_curve());
    println!(
        "{}: {} faults, {} vectors -> {:.2}% coverage",
        nl.name(),
        faults.len(),
        vectors,
        100.0 * curve.final_coverage()
    );
    for (len, cov) in curve.sample(10) {
        println!("  {len:>6} : {:>6.2}%", 100.0 * cov);
    }
    Ok(())
}

fn cmd_atpg(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("expected <file.bench> [backtrack-limit]".into());
    };
    let limit: u64 = args.get(1).map_or(Ok(10_000), |s| s.parse().map_err(|_| "bad limit"))?;
    let nl = load_netlist(path)?;
    if !nl.is_combinational() {
        return Err("PODEM targets combinational netlists".into());
    }
    let faults = collapsed_faults(&nl);
    let (_, stats) = atpg_all(&nl, &faults, limit);
    println!(
        "{}: {} faults -> {} tested, {} untestable, {} aborted ({} backtracks)",
        nl.name(),
        stats.targeted,
        stats.tested,
        stats.untestable,
        stats.aborted,
        stats.backtracks
    );
    Ok(())
}

fn cmd_scoap(args: &[String]) -> Result<(), String> {
    let Some(path) = args.first() else {
        return Err("expected <file.bench> [top]".into());
    };
    let top: usize = args.get(1).map_or(Ok(10), |s| s.parse().map_err(|_| "bad count"))?;
    let nl = load_netlist(path)?;
    let scoap = Testability::analyze(&nl);
    println!("{}: hardest nets (CC0/CC1/CO, combined effort):", nl.name());
    for (net, effort) in scoap.hardest_nets(&nl, top) {
        println!(
            "  {:<16} cc0={:<6} cc1={:<6} co={:<6} effort={}",
            nl.net_name(net),
            scoap.cc0(net),
            scoap.cc1(net),
            scoap.co(net),
            effort
        );
    }
    Ok(())
}

fn cmd_bench(args: &[String]) -> ExitCode {
    match BenchCommand::parse(args) {
        Ok(BenchCommand::Legacy(name)) => match bench_stats(&name) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::FAILURE
            }
        },
        Ok(BenchCommand::Trajectory(trajectory)) => {
            ExitCode::from(run_trajectory(&trajectory))
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{BENCH_USAGE}");
            ExitCode::from(2)
        }
    }
}

fn bench_stats(name: &str) -> Result<(), String> {
    let bench = Benchmark::from_name(name).ok_or_else(|| format!("unknown benchmark `{name}`"))?;
    let circuit: Circuit = bench.load().map_err(|e| e.to_string())?;
    println!("{}:", circuit.name);
    print_netlist_stats(&circuit.netlist);
    let mutants = generate_mutants(
        &circuit.checked,
        &circuit.name,
        &GenerateOptions::default(),
    );
    println!("  mutant population: {}", mutants.len());
    Ok(())
}

const LINT_USAGE: &str = "usage: musa lint <name>|--all|<file.mhdl> [--json]";

/// `musa lint`: exit 0 when every target is clean, 1 when findings (or
/// a parse/check error in file mode) exist, 2 on usage errors and
/// unknown benchmark names — decided before any analysis runs.
fn cmd_lint(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut all = false;
    let mut target: Option<&str> = None;
    for arg in args {
        match arg.as_str() {
            "--json" => json = true,
            "--all" => all = true,
            other if target.is_none() && !other.starts_with('-') => target = Some(other),
            other => {
                eprintln!("error: unexpected argument `{other}`");
                eprintln!("{LINT_USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    if all == target.is_some() {
        eprintln!("{LINT_USAGE}");
        return ExitCode::from(2);
    }
    // An explicit .mhdl path lints an on-disk file without a campaign.
    if let Some(path) = target.filter(|t| t.ends_with(".mhdl")) {
        return lint_file(path, json);
    }
    let benches: Vec<Benchmark> = if all {
        Benchmark::all().to_vec()
    } else {
        let name = target.expect("checked above: exactly one of --all/<name>");
        match Benchmark::from_name(name) {
            Some(bench) => vec![bench],
            None => {
                eprintln!("error: unknown benchmark `{name}` (see `musa list`)");
                return ExitCode::from(2);
            }
        }
    };
    let campaign = Campaign::new(benches[0]).benches(&benches).task(Task::Lint);
    let report = match campaign.run() {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let ReportData::Lint(rows) = &report.data else {
        unreachable!("the lint task yields lint rows");
    };
    let findings = total_findings(rows);
    print_report(&report, json);
    exit_by_findings(findings)
}

/// File mode for `musa lint`: read, parse, check, lint one `.mhdl`.
fn lint_file(path: &str, json: bool) -> ExitCode {
    let source = match std::fs::read_to_string(path) {
        Ok(source) => source,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let stem = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(path)
        .to_string();
    let row = match lint_source(&stem, path, &source) {
        Ok(row) => row,
        Err(e) => {
            eprintln!("error: {}", e.render(&source));
            return ExitCode::FAILURE;
        }
    };
    let findings = total_findings(std::slice::from_ref(&row));
    if json {
        println!(
            "{}",
            lint_report_json(std::slice::from_ref(&stem), std::slice::from_ref(&row))
        );
    } else {
        print!("{}", render_lint_text(std::slice::from_ref(&row)));
    }
    exit_by_findings(findings)
}

fn exit_by_findings(findings: usize) -> ExitCode {
    if findings == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_sample(args: &[String]) -> Result<(), String> {
    let sample = SampleArgs::parse(args)?;
    musa::trace::set_progress(sample.trace.progress);
    let report = sample.campaign().run().map_err(|e| e.to_string())?;
    print_report(&report, sample.json);
    emit_observability(&report, &sample.trace, sample.json)
}

fn cmd_list() -> Result<(), String> {
    for bench in Benchmark::all() {
        println!("{bench}");
    }
    Ok(())
}
