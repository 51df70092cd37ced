//! CLI contract tests for the `musa` binary: argument parsing, exit
//! codes, the shape of `list`/`bench` output, and the golden-file
//! pins proving the campaign redesign preserved stdout byte-for-byte
//! and keeps the `--json` schema stable.

use std::process::{Command, Output};

fn musa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_musa"))
        .args(args)
        .output()
        .expect("musa binary runs")
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn stdout_of(args: &[&str]) -> String {
    let out = musa(args);
    assert_eq!(out.status.code(), Some(0), "{args:?}: {:?}", out);
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn no_subcommand_exits_2_with_usage() {
    let out = musa(&[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: musa"), "stderr: {stderr}");
}

#[test]
fn unknown_subcommand_exits_2() {
    // The removed result-store/serving subcommands are unknown too.
    for command in ["frobnicate", "campaign", "serve", "client", "__worker"] {
        let out = musa(&[command]);
        assert_eq!(out.status.code(), Some(2), "{command}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage: musa"),
            "{command}"
        );
    }
}

#[test]
fn list_prints_every_bundled_benchmark() {
    let out = musa(&["list"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let names: Vec<&str> = stdout.lines().collect();
    assert!(!names.is_empty(), "list output must be non-empty");
    for expected in ["b01", "b03", "c432", "c499"] {
        assert!(names.contains(&expected), "missing {expected}: {names:?}");
    }
}

#[test]
fn bench_subcommand_reports_stats() {
    let out = musa(&["bench", "b01"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("b01:"), "stdout: {stdout}");
    assert!(stdout.contains("mutant population"), "stdout: {stdout}");
}

#[test]
fn sample_subcommand_reports_experiment_outcome() {
    let out = musa(&["sample", "c17", "0.5", "--jobs", "2", "--seed", "9"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("c17:"), "stdout: {stdout}");
    assert!(stdout.contains("2 jobs"), "stdout: {stdout}");
    assert!(stdout.contains("MS "), "stdout: {stdout}");
    assert!(stdout.contains("NLFCE "), "stdout: {stdout}");
}

#[test]
fn sample_outcome_is_identical_across_job_counts() {
    let serial = musa(&["sample", "c17", "0.5", "--jobs", "1", "--seed", "7"]);
    let parallel = musa(&["sample", "c17", "0.5", "--jobs", "4", "--seed", "7"]);
    assert_eq!(serial.status.code(), Some(0));
    assert_eq!(parallel.status.code(), Some(0));
    // Everything after the header line (which names the job count) must
    // be byte-identical: the parallel engine guarantees bit-equal
    // outcomes for every job count.
    let tail = |out: &Output| -> String {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .skip(1)
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial_tail = tail(&serial);
    assert!(!serial_tail.is_empty());
    assert_eq!(serial_tail, tail(&parallel));
}

#[test]
fn sample_outcome_is_identical_across_engines() {
    let scalar = musa(&["sample", "c17", "0.5", "--seed", "7", "--engine", "scalar"]);
    let lanes = musa(&["sample", "c17", "0.5", "--seed", "7", "--engine", "lanes"]);
    assert_eq!(scalar.status.code(), Some(0));
    assert_eq!(lanes.status.code(), Some(0));
    assert!(
        String::from_utf8_lossy(&lanes.stdout).contains("lanes engine"),
        "header names the engine"
    );
    // Everything after the header line (which names the engine) must be
    // byte-identical: the lane engine guarantees bit-equal outcomes.
    let tail = |out: &Output| -> String {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .skip(1)
            .collect::<Vec<_>>()
            .join("\n")
    };
    let scalar_tail = tail(&scalar);
    assert!(!scalar_tail.is_empty());
    assert_eq!(scalar_tail, tail(&lanes));
}

// ---------------------------------------------------------------------
// Golden pins: the campaign redesign preserved the CLI byte-for-byte.
// The golden files were captured from the pre-redesign binaries.
// ---------------------------------------------------------------------

#[test]
fn sample_stdout_is_byte_identical_to_pre_campaign_golden() {
    assert_eq!(
        stdout_of(&["sample", "c17", "0.5", "--jobs", "2", "--seed", "7"]),
        golden("sample_c17_text.txt"),
        "musa sample c17 drifted from the pre-redesign stdout"
    );
    assert_eq!(
        stdout_of(&["sample", "b01", "0.3", "--jobs", "2", "--seed", "7", "--engine", "lanes"]),
        golden("sample_b01_lanes_text.txt"),
        "musa sample b01 --engine lanes drifted from the pre-redesign stdout"
    );
}

#[test]
fn list_stdout_is_byte_identical_to_pre_campaign_golden() {
    assert_eq!(stdout_of(&["list"]), golden("list.txt"));
}

/// Pins the `musa.campaign.v1` JSON schema: every key, the field
/// order, the float formatting. `wall_ms` (the one nondeterministic
/// value) is normalized to `0` so the golden stays valid JSON.
#[test]
fn sample_json_matches_the_golden_schema() {
    let normalize_wall = |text: &str| -> String {
        text.lines()
            .map(|line| {
                if line.contains("\"wall_ms\":") {
                    "    \"wall_ms\": 0".to_string()
                } else {
                    line.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
            + "\n"
    };
    let actual = stdout_of(&["sample", "c17", "0.5", "--seed", "7", "--jobs", "2", "--json"]);
    assert_eq!(normalize_wall(&actual), golden("sample_c17.json"));
}

#[test]
fn sample_json_is_identical_across_engines_and_jobs() {
    let normalize = |text: String| -> String {
        text.lines()
            .filter(|l| {
                !l.contains("\"wall_ms\":")
                    && !l.contains("\"engine\":")
                    && !l.contains("\"jobs\":")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let base = normalize(stdout_of(&[
        "sample", "b01", "0.3", "--seed", "7", "--jobs", "1", "--engine", "scalar", "--json",
    ]));
    assert!(base.contains("\"schema\": \"musa.campaign.v1\""));
    for combo in [["2", "scalar"], ["1", "lanes"], ["2", "lanes"]] {
        let other = normalize(stdout_of(&[
            "sample", "b01", "0.3", "--seed", "7", "--jobs", combo[0], "--engine", combo[1],
            "--json",
        ]));
        assert_eq!(base, other, "jobs={} engine={}", combo[0], combo[1]);
    }
}

#[test]
fn sample_json_is_identical_across_fault_reduce_settings() {
    // Dominance reduction is a lane-occupancy knob, not a numbers knob:
    // apart from the fields that *report* the knob and the occupancy,
    // the reports must match byte for byte.
    let normalize = |text: String| -> String {
        text.lines()
            .filter(|l| {
                !l.contains("\"wall_ms\":")
                    && !l.contains("\"fault_reduce\":")
                    && !l.contains("\"faults_simulated\":")
                    && !l.contains("\"faults_total\"")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let on = stdout_of(&[
        "sample", "b01", "0.3", "--seed", "7", "--fault-reduce", "on", "--json",
    ]);
    assert!(on.contains("\"fault_reduce\": \"on\""));
    assert!(on.contains("\"faults_simulated\": "));
    let off = stdout_of(&[
        "sample", "b01", "0.3", "--seed", "7", "--fault-reduce", "off", "--json",
    ]);
    assert!(off.contains("\"fault_reduce\": \"off\""));
    assert_eq!(normalize(on), normalize(off));
}

#[test]
fn sample_rejects_bad_fault_reduce_value() {
    let out = musa(&["sample", "c17", "--fault-reduce", "sometimes"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("on|off"));
}

#[test]
fn sample_rejects_conflicting_presets() {
    let out = musa(&["sample", "c17", "--paper", "--fast"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("conflicting presets"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn sample_rejects_unknown_engine() {
    let out = musa(&["sample", "c17", "--engine", "turbo"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown engine"));
}

#[test]
fn sample_without_benchmark_exits_1_with_usage() {
    let out = musa(&["sample"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected <name>"));
}

#[test]
fn sample_rejects_bad_fraction() {
    let out = musa(&["sample", "c17", "1.5"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("fraction"));
}

#[test]
fn bench_with_unknown_name_exits_1() {
    let out = musa(&["bench", "zz99"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown benchmark"));
}

// ---------------------------------------------------------------------
// `musa bench` trajectory mode and `musa help`
// ---------------------------------------------------------------------

#[test]
fn help_subcommand_lists_every_command_including_bench_trajectory() {
    let stdout = stdout_of(&["help"]);
    for fragment in [
        "usage: musa", "info", "synth", "mutants", "faultsim", "scoap", "atpg",
        "bench", "sample", "lint", "list", "help",
        // ...and the trajectory flags of the new subcommand.
        "--quick", "--baseline", "--filter", "--write",
        // ...and the analysis knobs.
        "--screen static|off", "musa.lint.v1",
    ] {
        assert!(stdout.contains(fragment), "help lacks {fragment}: {stdout}");
    }
}

#[test]
fn bench_rejects_unknown_filter_benchmark_with_exit_2() {
    let out = musa(&["bench", "--quick", "--filter", "zz99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown benchmark `zz99`"), "stderr: {stderr}");
    assert!(stderr.contains("--filter"), "stderr: {stderr}");
}

#[test]
fn bench_rejects_missing_and_malformed_baseline_with_exit_2() {
    let out = musa(&["bench", "--quick", "--baseline", "/nonexistent/BENCH_0.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--baseline /nonexistent/BENCH_0.json:"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let dir = std::env::temp_dir().join(format!("musa-cli-bench-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"schema\": \"musa.campaign.v1\"}").unwrap();
    let out = musa(&["bench", "--quick", "--baseline", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("schema mismatch"),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bench_rejects_unknown_trajectory_arguments_with_usage() {
    let out = musa(&["bench", "--quick", "extra-positional"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument `extra-positional`"), "stderr: {stderr}");
    assert!(stderr.contains("usage: musa bench"), "stderr: {stderr}");
}

/// Normalizes the `musa.bench.v1` timing and machine fields (the
/// golden was normalized identically at capture time); everything
/// else — structure, field order, invariants — must match exactly.
fn normalize_bench_json(text: &str) -> String {
    let keys = [
        "\"median_ns\":", "\"mad_ns\":", "\"min_ns\":", "\"wall_ms\":",
        "\"cpus\":", "\"git\":", "\"debug\":",
    ];
    text.lines()
        .map(|line| match keys.iter().find(|k| line.contains(*k)) {
            Some(key) => {
                let indent: String =
                    line.chars().take_while(|c| c.is_whitespace()).collect();
                let comma = if line.trim_end().ends_with(',') { "," } else { "" };
                format!("{indent}{key} 0{comma}")
            }
            None => line.to_string(),
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn bench_json_matches_the_golden_schema() {
    let actual = stdout_of(&["bench", "--quick", "--json", "--filter", "c17", "--seed", "7"]);
    assert_eq!(
        normalize_bench_json(&actual),
        golden("bench_c17_quick.json"),
        "musa.bench.v1 drifted from the golden"
    );
}

#[test]
fn bench_baseline_round_trip_gates_on_invariants() {
    let dir = std::env::temp_dir().join(format!("musa-cli-roundtrip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("BENCH_1.json");

    // Capture a quick c17 report and use it as its own baseline: an
    // unchanged tree has no invariant finding. Only invariant findings
    // are checked: the engine and optimizer ratios are wall-time
    // quotients that parallel test load can halve between two runs
    // (`bench_baseline_ratio_regression_exits_1` covers that gate).
    let report = stdout_of(&["bench", "--quick", "--json", "--filter", "c17", "--seed", "7"]);
    std::fs::write(&baseline, &report).unwrap();
    let clean = musa(&[
        "bench", "--quick", "--filter", "c17", "--seed", "7",
        "--baseline", baseline.to_str().unwrap(),
    ]);
    let stderr = String::from_utf8_lossy(&clean.stderr);
    let drift: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("regression:") && !l.contains("speedup ratio fell"))
        .collect();
    assert_eq!(drift, Vec::<&str>::new(), "stderr: {stderr}");
    match clean.status.code() {
        Some(0) => assert!(stderr.contains("baseline check"), "stderr: {stderr}"),
        Some(1) => assert!(stderr.contains("regression(s) against the baseline"), "{stderr}"),
        other => panic!("exit {other:?}: {clean:?}"),
    }

    // A synthetically regressed baseline (tampered invariant) must
    // exit 1 and name the drifted field.
    let population = report
        .lines()
        .find(|l| l.contains("\"population\":"))
        .expect("report has a population invariant")
        .trim()
        .trim_end_matches(',')
        .to_string();
    let tampered_value = population.replace(char::is_numeric, "") + "1";
    let tampered = report.replace(&population, &tampered_value);
    assert_ne!(report, tampered, "tampering must change the document");
    std::fs::write(&baseline, &tampered).unwrap();
    let regressed = musa(&[
        "bench", "--quick", "--filter", "c17", "--seed", "7",
        "--baseline", baseline.to_str().unwrap(),
    ]);
    assert_eq!(regressed.status.code(), Some(1), "{:?}", regressed);
    let stderr = String::from_utf8_lossy(&regressed.stderr);
    assert!(stderr.contains("regression:"), "stderr: {stderr}");
    assert!(stderr.contains("invariant `population` changed"), "stderr: {stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bench_baseline_ratio_regression_exits_1() {
    // A synthetic c432 baseline, cut from a real c17 report, whose
    // single-thread scalar/lanes ratio is 10^6, far above anything a
    // real run reaches, with no invariants and every other median under
    // the gate floor: the binary's engine-ratio gate is then the only
    // one that can fire. c432's cells stay well above the 5 ms floor in
    // the test profile.
    use musa::core::{BenchReport, CellInvariants};
    let template = stdout_of(&["bench", "--quick", "--json", "--filter", "c17", "--seed", "7"]);
    let mut synthetic = BenchReport::from_json(&template).unwrap();
    for cell in &mut synthetic.cells {
        cell.bench = "c432".to_string();
        cell.invariants = CellInvariants::default();
        cell.wall.median = match cell.id().as_str() {
            "mutant_exec/c432/scalar/jobs=1" => 1e13,
            "mutant_exec/c432/lanes-opt/jobs=1" => 1e7,
            _ => 0.0,
        };
    }
    let path = std::env::temp_dir().join(format!("musa-cli-ratio-{}.json", std::process::id()));
    std::fs::write(&path, synthetic.to_json()).unwrap();
    let out = musa(&[
        "bench", "--quick", "--filter", "c432", "--seed", "7",
        "--baseline", path.to_str().unwrap(),
    ]);
    std::fs::remove_file(&path).unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let findings: Vec<&str> = stderr.lines().filter(|l| l.starts_with("regression:")).collect();
    assert_eq!(findings.len(), 1, "stderr: {stderr}");
    assert!(
        findings[0].contains("mutant_exec/c432/jobs=1: scalar/lanes speedup ratio fell"),
        "stderr: {stderr}"
    );
}

// ---------------------------------------------------------------------
// `musa lint` contract: exit 0 clean, 1 findings, 2 usage — and the
// `musa.lint.v1` JSON pinned by goldens.
// ---------------------------------------------------------------------

const DIRTY_FIXTURE: &str = "tests/fixtures/lint_dirty.mhdl";

#[test]
fn lint_without_target_exits_2_with_usage() {
    let out = musa(&["lint"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage: musa lint"));
    // `--all` plus a name is equally a usage error.
    let both = musa(&["lint", "--all", "c17"]);
    assert_eq!(both.status.code(), Some(2));
}

#[test]
fn lint_unknown_bench_exits_2_before_analysis() {
    let out = musa(&["lint", "zz99"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown benchmark `zz99`"), "stderr: {stderr}");
    assert!(out.stdout.is_empty(), "no analysis output before the error");
}

#[test]
fn lint_clean_bench_exits_0_with_clean_line() {
    let out = musa(&["lint", "c17"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert_eq!(String::from_utf8_lossy(&out.stdout), "c17.mhdl: clean\n");
}

#[test]
fn lint_all_bundled_benchmarks_are_clean() {
    let out = musa(&["lint", "--all"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 11, "one line per bundled benchmark: {stdout}");
    for line in &lines {
        assert!(line.ends_with(": clean"), "{line}");
    }
}

#[test]
fn lint_dirty_fixture_exits_1_with_file_line_findings() {
    let out = musa(&["lint", DIRTY_FIXTURE]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Every finding is a compiler-style `file:line:col: rule: message`
    // line anchored at the fixture path.
    assert!(!stdout.is_empty());
    for line in stdout.lines() {
        assert!(line.starts_with(&format!("{DIRTY_FIXTURE}:")), "{line}");
    }
    for fragment in [
        ":3:8: unread-signal: ",
        ":7:6: constant-condition: ",
        ":8:5: dead-statement: ",
    ] {
        assert!(stdout.contains(fragment), "missing {fragment}: {stdout}");
    }
}

#[test]
fn lint_json_matches_the_goldens() {
    let dirty = musa(&["lint", DIRTY_FIXTURE, "--json"]);
    assert_eq!(dirty.status.code(), Some(1));
    assert_eq!(
        String::from_utf8_lossy(&dirty.stdout),
        golden("lint_dirty.json"),
        "musa.lint.v1 drifted from the dirty golden"
    );
    assert_eq!(
        stdout_of(&["lint", "c17", "--json"]),
        golden("lint_c17.json"),
        "musa.lint.v1 drifted from the clean golden"
    );
}

#[test]
fn lint_missing_file_exits_2_and_broken_file_exits_1() {
    let out = musa(&["lint", "/nonexistent/x.mhdl"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("/nonexistent/x.mhdl"));

    let dir = std::env::temp_dir().join(format!("musa-cli-lint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.mhdl");
    std::fs::write(&bad, "entity nope").unwrap();
    let out = musa(&["lint", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "parse errors are failures, not usage");
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sample_json_is_identical_across_screen_settings() {
    // The static pre-screen is a work-avoidance knob, not a numbers
    // knob: apart from the fields that *report* the knob and the
    // screened count, the reports must match byte for byte.
    let normalize = |text: String| -> String {
        text.lines()
            .filter(|l| {
                !l.contains("\"wall_ms\":")
                    && !l.contains("\"screen\":")
                    && !l.contains("\"screened\":")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let on = stdout_of(&[
        "sample", "b01", "0.3", "--seed", "7", "--screen", "static", "--json",
    ]);
    assert!(on.contains("\"screen\": \"static\""));
    let off = stdout_of(&[
        "sample", "b01", "0.3", "--seed", "7", "--screen", "off", "--json",
    ]);
    assert!(off.contains("\"screen\": \"off\""));
    assert!(off.contains("\"screened\": 0"));
    assert_eq!(normalize(on), normalize(off));
}

#[test]
fn sample_rejects_bad_screen_value() {
    let out = musa(&["sample", "c17", "--screen", "sometimes"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("static|off"));
}

#[test]
fn missing_file_reports_error_not_panic() {
    let out = musa(&["faultsim", "/nonexistent/x.bench"]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "stderr: {stderr}");
}

#[test]
fn info_requires_file_and_entity() {
    let out = musa(&["info", "only-one-arg"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("expected <file.mhdl> <entity>"));
}
