//! Observability tests: trace counters mirror the pre-existing stats,
//! tracing-off runs stay bit-identical, the `musa.trace.v1` document
//! structure is pinned by a golden file, and the CLI flags
//! (`--trace`, `--trace-format`, `--profile`, `--history`) behave.

use musa::circuits::Benchmark;
use musa::core::{
    trace_json_with, validate_trace_document, Campaign, ExperimentConfig, ReportData, Task,
    DEFAULT_SEED,
};
use musa::analysis::screen_population;
use musa::mutation::{
    execute_mutants_lanes, execute_mutants_lanes_opts, generate_mutants, GenerateOptions,
    LaneOptions,
};
use musa::prng::{Prng, SplitMix64};
use musa::testgen::{
    mutation_guided_tests, random_sequence, sample_mutants, MgConfig, SamplingStrategy,
};
use musa::trace::{SpanRecord, TraceData, Tracer};
use std::process::{Command, Output};

fn musa_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_musa"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("musa binary runs")
}

fn counter(data: &TraceData, name: &str) -> u64 {
    data.counters
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0, |&(_, v)| v)
}

/// A single-repetition, single-thread fast config: with one repetition
/// the aggregate means are the raw per-run numbers, so the trace
/// counters must equal the reported outcome fields exactly.
fn one_rep_config() -> ExperimentConfig {
    let mut config = ExperimentConfig::fast(DEFAULT_SEED);
    config.repetitions = 1;
    config.jobs = 1;
    config
}

fn traced_sampling(bench: &str) -> (musa::core::Report, TraceData) {
    traced_sampling_with(bench, one_rep_config())
}

fn traced_sampling_with(bench: &str, config: ExperimentConfig) -> (musa::core::Report, TraceData) {
    let report = Campaign::named(bench)
        .config(config)
        .trace(true)
        .task(Task::Sampling { fraction: 0.10 })
        .run()
        .unwrap_or_else(|e| panic!("{bench}: {e}"));
    let data = report.trace.clone().expect("tracing was enabled");
    (report, data)
}

// ---------------------------------------------------------------------
// Counters mirror the existing stats
// ---------------------------------------------------------------------

#[test]
fn lane_counters_equal_lane_stats() {
    let circuit = Benchmark::B01.load().unwrap();
    let mutants = generate_mutants(&circuit.checked, &circuit.name, &GenerateOptions::default());
    let sequence = random_sequence(circuit.info(), 24, 7);
    let tracer = Tracer::new();
    let (_kills, stats) = {
        let _install = tracer.install();
        execute_mutants_lanes_opts(
            &circuit.checked,
            &circuit.name,
            &mutants,
            &sequence,
            &LaneOptions::default(),
        )
        .unwrap()
    };
    let data = tracer.finish().expect("enabled tracer yields data");
    assert!(stats.passes > 0);
    assert_eq!(counter(&data, "lane_passes"), stats.passes as u64);
    assert_eq!(counter(&data, "lane_steps"), stats.steps as u64);
}

#[test]
fn sampling_counters_equal_outcome_fields() {
    for bench in ["b01", "c17", "c432"] {
        let (report, data) = traced_sampling(bench);
        let ReportData::Sampling(rows) = &report.data else {
            panic!("sampling task yields sampling rows");
        };
        let outcome = &rows[0].outcome;
        assert_eq!(
            counter(&data, "faults_simulated"),
            outcome.fault_sim.faults_simulated as u64,
            "{bench}: faults_simulated"
        );
        assert_eq!(
            counter(&data, "faults_total"),
            outcome.fault_sim.faults_total as u64,
            "{bench}: faults_total"
        );
        assert_eq!(
            counter(&data, "screened"),
            outcome.screened as u64,
            "{bench}: screened"
        );
    }
}

/// The mutants that survive some repetition's data and are not
/// statically screened, counted from the public layers alone: the same
/// seed schedule, sample and data as the sampling experiment, each
/// session run on the whole population (a mutant survives a repetition
/// when no session kills it).
fn distinct_unscreened_survivors(bench: Benchmark, config: &ExperimentConfig) -> usize {
    let circuit = bench.load().unwrap();
    let population = generate_mutants(&circuit.checked, &circuit.name, &GenerateOptions::default());
    let screened = screen_population(&circuit.checked, &circuit.name, &population);
    let mut survives = vec![false; population.len()];
    let mut seeder = SplitMix64::new(config.seed ^ 0xA5A5_5A5A_1234_4321);
    for _ in 0..config.repetitions {
        let [sample, mg, _baseline] = [seeder.next_u64(), seeder.next_u64(), seeder.next_u64()];
        let selected = sample_mutants(&population, &SamplingStrategy::random(0.10), sample);
        let subset: Vec<_> = selected.iter().map(|&i| population[i].clone()).collect();
        let mg = MgConfig { seed: mg, ..config.mg };
        let data = mutation_guided_tests(&circuit.checked, &circuit.name, &subset, &mg).unwrap();
        let mut killed = vec![false; population.len()];
        for session in &data.sessions {
            let kills =
                execute_mutants_lanes(&circuit.checked, &circuit.name, &population, session)
                    .unwrap();
            for (k, kill) in killed.iter_mut().zip(&kills.first_kill) {
                *k |= kill.is_some();
            }
        }
        for (s, k) in survives.iter_mut().zip(killed) {
            *s |= !k;
        }
    }
    (0..population.len())
        .filter(|&i| survives[i] && !screened[i].is_proven())
        .count()
}

/// Names of a span's ancestors, innermost first. A context's top-level
/// span has its parent in the forking context, two path elements up.
fn ancestors<'t>(data: &'t TraceData, span: &'t SpanRecord) -> Vec<&'static str> {
    let mut names = Vec::new();
    let mut current = span;
    while let Some(parent_seq) = current.parent_seq {
        let path = if current.depth > 0 {
            &current.path[..]
        } else {
            &current.path[..current.path.len() - 2]
        };
        current = data
            .spans
            .iter()
            .find(|s| s.path == path && s.seq == parent_seq)
            .expect("every parent link resolves");
        names.push(current.name);
    }
    names
}

#[test]
fn classification_and_kill_pass_compiles_do_not_grow_with_repetitions() {
    let mut kill_pass_compiles = Vec::new();
    for repetitions in [1, 3] {
        let config = ExperimentConfig {
            repetitions,
            ..one_rep_config()
        };
        let (_, data) = traced_sampling_with("c432", config);
        assert_eq!(
            counter(&data, "classify_survivors"),
            distinct_unscreened_survivors(Benchmark::C432, &config) as u64,
            "{repetitions} repetitions: each distinct survivor is classified once"
        );
        kill_pass_compiles.push(
            data.spans
                .iter()
                .filter(|s| s.name == "lane_compile")
                .filter(|s| ancestors(&data, s).contains(&"mutant_exec"))
                .count(),
        );
    }
    assert!(kill_pass_compiles[0] > 0, "the kill pass compiles its plan");
    assert_eq!(
        kill_pass_compiles[0], kill_pass_compiles[1],
        "kill-pass lane groups are compiled once per call, not per repetition"
    );
}

// ---------------------------------------------------------------------
// Bit-identity with tracing off
// ---------------------------------------------------------------------

#[test]
fn outputs_are_identical_with_tracing_on_and_off() {
    let run = |trace: bool| {
        Campaign::named("c17")
            .config(one_rep_config())
            .trace(trace)
            .task(Task::Sampling { fraction: 0.10 })
            .run()
            .unwrap()
    };
    let off = run(false);
    let on = run(true);
    assert!(off.trace.is_none(), "trace-off runs carry no trace data");
    assert!(on.trace.is_some());
    assert_eq!(off.render_text(), on.render_text());
    // wall_ms differs between runs; everything else must match.
    let strip_wall = |text: String| -> String {
        text.lines()
            .filter(|line| !line.contains("\"wall_ms\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(strip_wall(off.to_json()), strip_wall(on.to_json()));
}

// ---------------------------------------------------------------------
// Golden document structure
// ---------------------------------------------------------------------

/// Pins the `musa.trace.v1` structure — span names, context paths,
/// sequence numbers, parent links, and counters — for a fixed c17 run
/// (1 repetition, 1 job, default seed). All clock fields are
/// normalized to 0 so the document is byte-stable across machines.
/// Re-bless with `MUSA_BLESS=1 cargo test --test trace`.
#[test]
fn trace_document_structure_matches_golden() {
    let (report, _) = traced_sampling("c17");
    let actual = format!("{}\n", trace_json_with(&report, true).unwrap());
    validate_trace_document(&actual).unwrap();
    let path = format!(
        "{}/tests/golden/trace_c17.json",
        env!("CARGO_MANIFEST_DIR")
    );
    if std::env::var("MUSA_BLESS").is_ok() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert_eq!(actual, expected, "musa.trace.v1 drifted from the golden");
}

#[test]
fn trace_structure_is_identical_for_every_job_count() {
    let traced = |jobs: usize| {
        let mut config = one_rep_config();
        config.jobs = jobs;
        let report = Campaign::named("c17")
            .config(config)
            .trace(true)
            .task(Task::Sampling { fraction: 0.10 })
            .run()
            .unwrap();
        // meta.jobs records the knob itself; everything else —
        // spans, paths, seqs, counters — must not move.
        trace_json_with(&report, true)
            .unwrap()
            .lines()
            .filter(|line| !line.contains("\"jobs\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = traced(1);
    assert_eq!(serial, traced(2), "jobs=2 changed the trace structure");
    assert_eq!(serial, traced(4), "jobs=4 changed the trace structure");
}

// ---------------------------------------------------------------------
// CLI surface
// ---------------------------------------------------------------------

#[test]
fn sample_trace_flag_writes_a_valid_document() {
    let dir = std::env::temp_dir().join(format!("musa-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("t.json");
    let out = musa_bin(&["sample", "b01", "--trace", json_path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&json_path).unwrap();
    validate_trace_document(&text).unwrap();

    let chrome_path = dir.join("t.chrome.json");
    let out = musa_bin(&[
        "sample",
        "b01",
        "--trace",
        chrome_path.to_str().unwrap(),
        "--trace-format",
        "chrome",
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let chrome = std::fs::read_to_string(&chrome_path).unwrap();
    assert!(chrome.contains("\"traceEvents\""), "{chrome}");
    assert!(chrome.contains("\"ph\": \"X\""), "{chrome}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sample_profile_prints_a_phase_table() {
    let out = musa_bin(&["sample", "c17", "--profile"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("phase"), "{stdout}");
    assert!(stdout.contains("campaign"), "{stdout}");
    assert!(stdout.contains("wall ms"), "{stdout}");
    assert!(stdout.contains("counter"), "{stdout}");
    // The lane-tape optimizer runs by default, so the pass pipeline
    // shows up both as a phase row and via its shrinkage counters.
    assert!(stdout.contains("lane_opt"), "{stdout}");
    assert!(stdout.contains("lane_opt_instrs_before"), "{stdout}");
    assert!(stdout.contains("lane_opt_instrs_after"), "{stdout}");
    // With --json the table moves to stderr so stdout stays parseable.
    let out = musa_bin(&["sample", "c17", "--profile", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("musa.campaign.v1"), "{stdout}");
    assert!(!stdout.contains("wall ms"), "{stdout}");
    assert!(stderr.contains("wall ms"), "{stderr}");
}

#[test]
fn non_campaign_profile_renders_via_the_main_level_tracer() {
    // Non-campaign subcommands don't parse --profile themselves; main
    // strips the flag and hosts the tracer around dispatch.
    let out = musa_bin(&["list", "--profile"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wall ms"), "{stdout}");
}

#[test]
fn bench_history_renders_the_committed_reports() {
    let out = musa_bin(&["bench", "--history"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cell"), "{stdout}");
    assert!(stdout.contains("BENCH_1"), "{stdout}");
    assert!(stdout.contains("mutant_exec/"), "{stdout}");

    let out = musa_bin(&["bench", "--history", "--json"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("musa.bench.history.v1"), "{stdout}");

    // Outside a directory with committed reports the command fails
    // cleanly.
    let dir = std::env::temp_dir().join(format!("musa-history-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_musa"))
        .args(["bench", "--history"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn progress_lines_go_to_stderr_only() {
    let quiet = musa_bin(&["sample", "c17", "--seed", "5"]);
    let chatty = musa_bin(&["sample", "c17", "--seed", "5", "--progress"]);
    assert_eq!(quiet.status.code(), Some(0));
    assert_eq!(chatty.status.code(), Some(0));
    assert_eq!(quiet.stdout, chatty.stdout, "--progress must not touch stdout");
    let stderr = String::from_utf8_lossy(&chatty.stderr);
    assert!(stderr.contains("repetition"), "{stderr}");
    assert!(String::from_utf8_lossy(&quiet.stderr).is_empty());
}

/// CI's trace-smoke hook: when `MUSA_TRACE_VALIDATE` names a file, the
/// file must parse as `musa.trace.v1` through the `musa_core::json`
/// parser with every required key present. A no-op otherwise.
#[test]
fn trace_smoke_validates_env_file() {
    let Ok(path) = std::env::var("MUSA_TRACE_VALIDATE") else {
        return;
    };
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    validate_trace_document(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
}
