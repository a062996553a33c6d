//! `numfuzz batch` on the worker pool: deterministically ordered output
//! for every job count, usage errors (including out-of-range format
//! flags on every command that takes them) exiting 2, and deeply nested
//! input rejected as a syntax error on worker and main threads alike.

use std::process::Command;

/// Runs the built `numfuzz` binary (Cargo exposes the path to
/// integration tests).
fn numfuzz_bin(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_numfuzz"))
        .args(args)
        .output()
        .expect("numfuzz binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

#[test]
fn numfuzz_batch_orders_diagnostics_deterministically() {
    let dir = std::env::temp_dir().join(format!("numfuzz-batch-test-{}", std::process::id()));
    let sub = dir.join("nested");
    std::fs::create_dir_all(&sub).expect("mkdir");
    std::fs::write(dir.join("a_ok.nf"), "rnd 1.5\n").expect("write");
    std::fs::write(dir.join("b_bad.nf"), "x\n").expect("write");
    std::fs::write(dir.join("c_bad.nf"), "2 3\n").expect("write");
    std::fs::write(sub.join("d_ok.nf"), "ret ()\n").expect("write");

    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let (first_out, first_err, code) = numfuzz_bin(&["batch", dir_arg, "--jobs", "4"]);
    assert_eq!(code, Some(1), "failing programs exit 1; stderr: {first_err}");
    assert!(first_out.contains("4 programs: 2 ok, 2 failed"), "{first_out}");

    // Diagnostics appear in sorted-path order, interleaved with the ok
    // lines, not grouped by completion time.
    let a = first_out.find("a_ok.nf").expect("a present");
    let b = first_out.find("b_bad.nf").expect("b present");
    let c = first_out.find("c_bad.nf").expect("c present");
    let d = first_out.find("d_ok.nf").expect("d present");
    assert!(a < b && b < c && c < d, "sorted-path order:\n{first_out}");
    assert!(first_out.contains("error[E0002]"), "{first_out}");
    assert!(first_out.contains("error[E0102]"), "{first_out}");

    // Byte-identical across job counts and repeated runs.
    for jobs in ["1", "2", "8"] {
        let (out, _, code) = numfuzz_bin(&["batch", dir_arg, "--jobs", jobs]);
        assert_eq!(code, Some(1));
        assert_eq!(out, first_out, "jobs={jobs}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// `s = mul ((…2…), 3); rnd s` with `levels` nested parentheses.
fn deeply_nested(levels: usize) -> String {
    format!("s = mul ({}2{}, 3); rnd s\n", "(".repeat(levels), ")".repeat(levels))
}

#[test]
fn deeply_nested_file_fails_its_batch_entry_without_aborting() {
    // Pool workers run on 2 MiB stacks, which 2,000 nested parentheses
    // used to overflow.
    let dir = std::env::temp_dir().join(format!("numfuzz-batch-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("a_deep.nf"), deeply_nested(2000)).expect("write");
    std::fs::write(dir.join("b_ok.nf"), "rnd 1.5\n").expect("write");

    let dir_arg = dir.to_str().expect("utf-8 temp path");
    let (serial, stderr, code) = numfuzz_bin(&["batch", dir_arg, "--jobs", "1"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert!(serial.contains("error[E0001]: nesting deeper than 256 levels"), "{serial}");
    assert!(serial.contains("2 programs: 1 ok, 1 failed"), "{serial}");
    let (parallel, stderr, code) = numfuzz_bin(&["batch", dir_arg, "--jobs", "2"]);
    assert_eq!(code, Some(1), "stderr: {stderr}");
    assert_eq!(parallel, serial);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn deeply_nested_file_is_a_syntax_error_on_the_cli() {
    let dir = std::env::temp_dir().join(format!("numfuzz-check-deep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("deep.nf");
    std::fs::write(&file, deeply_nested(20_000)).expect("write");

    let (_, stderr, code) = numfuzz_bin(&["check", file.to_str().expect("utf-8")]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("error[E0001]: nesting deeper than 256 levels"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn numfuzz_batch_usage_errors_exit_2() {
    let (_, stderr, code) = numfuzz_bin(&["batch", "/nonexistent-numfuzz-dir"]);
    assert_eq!(code, Some(2), "{stderr}");
    let (_, stderr, code) = numfuzz_bin(&["batch"]);
    assert_eq!(code, Some(2), "{stderr}");
}

#[test]
fn out_of_range_format_flags_exit_2() {
    let dir = std::env::temp_dir().join(format!("numfuzz-format-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let file = dir.join("ok.nf");
    std::fs::write(&file, "rnd 1.5\n").expect("write");
    let (dir_arg, file_arg) = (dir.to_str().expect("utf-8"), file.to_str().expect("utf-8"));

    let commands: [&[&str]; 8] = [
        &["check", file_arg],
        &["bound", file_arg],
        &["run", file_arg],
        &["batch", dir_arg],
        &["watch", file_arg, "--iterations", "1"],
        &["serve"],
        &["table1"],
        &["optimize", file_arg],
    ];
    let bad: [&[&str]; 4] =
        [&["--prec", "1"], &["--prec", "238"], &["--emax", "0"], &["--emax", "262144"]];
    for command in commands {
        for flags in bad {
            let args = [command, flags].concat();
            let (_, stderr, code) = numfuzz_bin(&args);
            assert_eq!(code, Some(2), "{args:?}: {stderr}");
            assert!(stderr.contains("out of range"), "{args:?}: {stderr}");
        }
    }
    // Values that would otherwise allocate ~2^60 bytes or run without bound.
    for args in [
        ["run", file_arg, "--emax", "9223372036854775807"],
        ["bound", file_arg, "--prec", "4294967295"],
    ] {
        let (_, stderr, code) = numfuzz_bin(&args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
    }
    // The widest accepted format (binary256) still works.
    let (stdout, stderr, code) =
        numfuzz_bin(&["run", file_arg, "--prec", "237", "--emax", "262143"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("bound holds"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}
