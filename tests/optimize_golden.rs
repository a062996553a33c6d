//! Golden-file tests for `numfuzz optimize`: the report on stdout is
//! fully deterministic (candidate order is seeded, selection is
//! lexicographic, and wall times go to stderr), so it is pinned byte for
//! byte — no masking. Every Table 1 program is pinned: the three the
//! optimizer strictly improves at the default budget, so the goldens also
//! lock in the improvements themselves, and the other seven at
//! `--budget 16` (the budget `tests/optimize.rs` uses), so their
//! candidate and rejection counts are locked in too.
//!
//! Regenerate after an intentional change with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test optimize_golden
//! ```

use std::process::Command;

fn run_optimize(bench: &str, flags: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_numfuzz"))
        .args(["optimize", &format!("benches/table1/{bench}.nf")])
        .args(flags)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("numfuzz optimize runs");
    assert!(
        out.status.success(),
        "numfuzz optimize {bench} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn check_golden(bench: &str, flags: &[&str]) {
    let got = run_optimize(bench, flags);
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("optimize_{bench}.expected"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(run `UPDATE_GOLDEN=1 cargo test --test optimize_golden` to create)",
            path.display()
        )
    });
    assert_eq!(
        got, expected,
        "optimize {bench} output drifted (if intentional: \
         UPDATE_GOLDEN=1 cargo test --test optimize_golden)"
    );
}

#[test]
fn optimize_verhulst_matches_golden() {
    check_golden("verhulst", &[]);
}

#[test]
fn optimize_predator_prey_matches_golden() {
    check_golden("predatorPrey", &[]);
}

#[test]
fn optimize_one_by_sqrtxx_matches_golden() {
    check_golden("one_by_sqrtxx", &[]);
}

/// The Table 1 programs without a default-budget golden, at `--budget 16`.
const SMALL_BUDGET: &[&str] = &["--budget", "16"];

#[test]
fn optimize_hypot_matches_golden() {
    check_golden("hypot", SMALL_BUDGET);
}

#[test]
fn optimize_i4_matches_golden() {
    check_golden("i4", SMALL_BUDGET);
}

#[test]
fn optimize_nonlin1_matches_golden() {
    check_golden("nonlin1", SMALL_BUDGET);
}

#[test]
fn optimize_sqrt_add_matches_golden() {
    check_golden("sqrt_add", SMALL_BUDGET);
}

#[test]
fn optimize_test02_sum8_matches_golden() {
    check_golden("test02_sum8", SMALL_BUDGET);
}

#[test]
fn optimize_test05_nonlin1_matches_golden() {
    check_golden("test05_nonlin1", SMALL_BUDGET);
}

#[test]
fn optimize_x_by_xy_matches_golden() {
    check_golden("x_by_xy", SMALL_BUDGET);
}
