//! Golden-file tests for the reports whose only non-deterministic parts
//! are wall times: the `numfuzz table1` differential comparison table and
//! the paper's Tables 1, 2, 3 and 5 (`numfuzz paper N`). Grades, both
//! engines' bounds, ratios, tightness and soundness verdicts are pinned
//! with the timing columns masked. Table 4 (seconds of generation and
//! checking) and `numfuzz validate` are left to CI for their run time.
//!
//! Regenerate after an intentional change with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test table1_golden
//! ```

use std::process::Command;

/// Masks the wall-time columns: `numfuzz table1`'s `{:.2}` millisecond
/// fields (`0.25`) become `<ms>`, and the paper tables' durations
/// (`73us`, `1.20ms`, `1.20s`) become `<time>`. Bounds (`5.55e-16`),
/// grades (`5/2*eps`), one-decimal ratios (`1.2`) and bracketed ranges
/// (`[0.1,`) pass through untouched. Rows are re-joined with single
/// spaces so column padding never drifts the golden.
fn canonicalize(out: &str) -> String {
    out.lines()
        .map(|line| {
            line.split_whitespace()
                .map(|tok| {
                    if two_decimals(tok) {
                        "<ms>"
                    } else if duration(tok) {
                        "<time>"
                    } else {
                        tok
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn digits(s: &str) -> bool {
    !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit())
}

/// A `{:.2}` number: `12.34`.
fn two_decimals(tok: &str) -> bool {
    tok.split_once('.').is_some_and(|(int, frac)| digits(int) && frac.len() == 2 && digits(frac))
}

/// A duration as the paper tables print it: `73us`, `1.20ms` or `1.20s`.
fn duration(tok: &str) -> bool {
    tok.strip_suffix("us").is_some_and(digits)
        || tok.strip_suffix("ms").or_else(|| tok.strip_suffix('s')).is_some_and(two_decimals)
}

/// Runs `numfuzz ARGS` from the repository root and compares its masked
/// stdout with `tests/golden/<golden>`.
fn assert_matches_golden(args: &[&str], golden: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_numfuzz"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("numfuzz runs");
    assert!(
        out.status.success(),
        "numfuzz {args:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    let got = canonicalize(&String::from_utf8_lossy(&out.stdout));

    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(golden);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, format!("{got}\n"))
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(run `UPDATE_GOLDEN=1 cargo test --test table1_golden` to create)",
            path.display()
        )
    });
    assert_eq!(
        got,
        expected.trim_end(),
        "numfuzz {args:?} drifted (if intentional: UPDATE_GOLDEN=1 cargo test --test table1_golden)"
    );
}

#[test]
fn table1_output_matches_golden() {
    assert_matches_golden(&["table1"], "table1.expected");
}

#[test]
fn paper_tables_match_golden() {
    for n in ["1", "2", "3", "5"] {
        assert_matches_golden(&["paper", n], &format!("paper{n}.expected"));
    }
}
