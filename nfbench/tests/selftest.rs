//! Tiny runs of every workload, untraced and traced: every answer must
//! match its reference, and every metric `BENCHMARK.json` names must be
//! printed with its unit. Run with
//! `cargo test --release --offline --manifest-path nfbench/Cargo.toml`.

use numfuzz::serve::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` list.
fn listed(benchmark: &Json, key: &str) -> Vec<(String, String)> {
    let items = benchmark.get(key).and_then(Json::as_array).expect("metric list");
    items
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

/// The target directory this test was built into: `<target>/<profile>/deps/selftest-*`.
fn target_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable");
    exe.ancestors().nth(3).expect("target directory").to_path_buf()
}

/// Builds the `numfuzz` server binary the serve workload drives, from the
/// repository's own workspace.
fn numfuzz_binary() -> PathBuf {
    let target = target_dir();
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet", "--bin", "numfuzz"])
        .current_dir(root())
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building numfuzz failed");
    target.join("release/numfuzz")
}

#[test]
fn tiny_runs_match_every_reference_and_print_every_metric() {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let benchmark = Json::parse(&text).expect("BENCHMARK.json is JSON");
    let numfuzz = numfuzz_binary();
    let out_dir = target_dir().join("nfbench-selftest");
    let workloads: Vec<String> = benchmark
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name").to_string())
        .collect();
    assert_eq!(workloads, ["verdict", "certify", "optimize", "serve"]);
    for trace in ["0", "1"] {
        let want = listed(&benchmark, if trace == "0" { "end_to_end" } else { "per_layer" });
        for w in &workloads {
            let out = Command::new(env!("CARGO_BIN_EXE_nfbench"))
                .args(["--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace])
                .arg("--tiny")
                .arg("--numfuzz")
                .arg(&numfuzz)
                .arg("--out-dir")
                .arg(&out_dir)
                .current_dir(root())
                .output()
                .expect("run nfbench");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let context =
                format!("{w} trace={trace}\n{stdout}{}", String::from_utf8_lossy(&out.stderr));
            assert!(out.status.success(), "{context}");
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the last line is JSON");
            assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true), "{context}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{context}");
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
            let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("{context}") };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}: {context}");
                    (name.clone(), m.get("unit").and_then(Json::as_str).unwrap_or("").to_string())
                })
                .collect();
            assert_eq!(got, want, "{context}");
            // Each metric is also printed by name, with its unit, above the
            // result line.
            for (name, unit) in &want {
                let printed = stdout.lines().any(|l| {
                    let cols: Vec<&str> = l.split_whitespace().collect();
                    cols.first() == Some(&name.as_str()) && cols.get(2) == Some(&unit.as_str())
                });
                assert!(printed, "{name} [{unit}] not printed: {context}");
            }
            if w == "serve" {
                // The offered rates, op mix and chosen shares the run used
                // are the ones BENCHMARK.json states.
                let why = benchmark.get("workloads").and_then(Json::as_array).expect("workloads")
                    [3]
                .get("why")
                .and_then(Json::as_str)
                .expect("why")
                .to_string();
                let note = stdout.lines().find(|l| l.contains("settings:")).expect("settings note");
                let setting = |key: &str| {
                    note.split_whitespace()
                        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                        .unwrap_or_else(|| panic!("{key} missing from `{note}`"))
                };
                for stated in [
                    format!("light {} req/s", setting("light")),
                    format!("busy {} req/s", setting("busy")),
                    format!("mix {} ", setting("mix")),
                    format!("{}% backward", setting("backward_pct")),
                    format!("{}% repeats", setting("repeat_pct")),
                ] {
                    assert!(why.contains(&stated), "`{stated}` missing from the serve why: {why}");
                }
            }
        }
    }
}
