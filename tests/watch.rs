//! End-to-end tests of `numfuzz watch`: each recheck prints what
//! `check` and then `bound` print, in either mode, and the change
//! detector catches a rewrite that preserves both the file's mtime and
//! its length (an atomic rename-over with a restored timestamp — what
//! editors and build tools do), because the change key hashes the
//! content rather than trusting stat output.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_numfuzz");

#[test]
fn watch_rechecks_a_rewrite_that_preserves_mtime_and_length() {
    let dir = std::env::temp_dir().join(format!("numfuzz-watch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("w.nf");
    // Same byte length as the replacement below, so (mtime, length)
    // cannot distinguish them.
    std::fs::write(&file, "rnd 1.5").unwrap();
    let original_mtime = std::fs::metadata(&file).unwrap().modified().unwrap();

    let mut child = Command::new(BIN)
        .args(["watch", file.to_str().unwrap(), "--poll-ms", "30", "--iterations", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn numfuzz watch");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());

    // Wait for the initial recheck banner, then drain its report lines
    // until the reuse summary (the last line of a recheck block).
    let read_block = |stdout: &mut BufReader<std::process::ChildStdout>, n: u32| {
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read banner");
        assert!(
            banner.contains(&format!("(recheck {n})")),
            "expected recheck {n} banner, got {banner:?}"
        );
        let mut block = String::new();
        loop {
            let mut line = String::new();
            assert_ne!(stdout.read_line(&mut line).expect("read report"), 0, "watch exited early");
            block.push_str(&line);
            if line.starts_with("judgments:") {
                return block;
            }
        }
    };
    let first = read_block(&mut stdout, 1);
    assert!(first.contains("program : M[eps]num"), "{first}");

    // The adversarial rewrite: stage the new content in a sibling file,
    // pin its mtime to the watched file's, and rename it over. The
    // watched path now has different bytes behind an identical
    // (mtime, length) stat signature.
    let staged = dir.join("w.nf.tmp");
    std::fs::write(&staged, "rnd 2.5").unwrap();
    let handle = std::fs::OpenOptions::new().append(true).open(&staged).unwrap();
    handle.set_modified(original_mtime).unwrap();
    drop(handle);
    std::fs::rename(&staged, &file).unwrap();
    let after = std::fs::metadata(&file).unwrap();
    assert_eq!(after.modified().unwrap(), original_mtime, "the rewrite must not move mtime");
    assert_eq!(after.len(), 7, "the rewrite must not change the length");

    let second = read_block(&mut stdout, 2);
    assert!(second.contains("program : M[eps]num"), "{second}");

    // --iterations 2 ends the watch after that recheck.
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            panic!("watch did not exit after --iterations 2");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "clean exit: {status:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_recheck_prints_check_then_bound_then_the_judgment_line_in_both_modes() {
    let dir = std::env::temp_dir().join(format!("numfuzz-watch-modes-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("defs.nf");
    // Definitions only, so the backward judgment accepts it too.
    std::fs::write(&file, "function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }")
        .unwrap();
    let path = file.to_str().unwrap();
    for flags in [&[][..], &["--backward"][..]] {
        let stdout = |args: &[&str]| {
            let out = Command::new(BIN).args(args).args(flags).output().expect("run numfuzz");
            assert!(out.status.success(), "{args:?} {flags:?}: {out:?}");
            String::from_utf8(out.stdout).expect("utf-8 stdout")
        };
        let watched = stdout(&["watch", path, "--iterations", "1"]);
        let (check, bound) = (stdout(&["check", path]), stdout(&["bound", path]));
        let report = watched
            .strip_prefix(&format!("--- {path} (recheck 1) ---\n"))
            .unwrap_or_else(|| panic!("{flags:?}: no recheck banner in {watched:?}"));
        let rest = report
            .strip_prefix(&format!("{check}{bound}"))
            .unwrap_or_else(|| panic!("{flags:?}: {report:?} is not {check:?} + {bound:?}"));
        assert!(
            rest.starts_with("judgments: 0 reused, ") && rest.lines().count() == 1,
            "{flags:?}: the recheck ends with one judgments line, got {rest:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
