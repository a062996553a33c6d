//! Keeps the docs honest: every fenced snippet `docs/language.md`
//! annotates with "infers `TYPE`" is parsed and checked through the real
//! pipeline, and the inferred type must match the quoted one exactly; and
//! README's `## CLI` block is the output of `numfuzz --help` verbatim.

use numfuzz::prelude::*;

/// Extracts `(snippet, expected_type)` pairs: each ```text fenced block
/// whose following non-empty line contains ``infers `TYPE` ``.
fn snippets(md: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut lines = md.lines().peekable();
    while let Some(line) = lines.next() {
        if line.trim() != "```text" {
            continue;
        }
        let mut body = String::new();
        for inner in lines.by_ref() {
            if inner.trim() == "```" {
                break;
            }
            body.push_str(inner);
            body.push('\n');
        }
        // The annotation sits within a couple of lines after the fence.
        let mut after = String::new();
        while let Some(next) = lines.peek() {
            if !after.is_empty() && next.trim().is_empty() {
                break;
            }
            after.push_str(lines.next().expect("peeked"));
            after.push(' ');
            if after.contains("infers `") {
                break;
            }
        }
        if let Some(at) = after.find("infers `") {
            let rest = &after[at + "infers `".len()..];
            if let Some(end) = rest.find('`') {
                out.push((body, rest[..end].to_string()));
            }
        }
    }
    out
}

#[test]
fn language_reference_snippets_check_with_quoted_types() {
    let md = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/language.md"))
        .expect("docs/language.md exists");
    let found = snippets(&md);
    assert!(
        found.len() >= 10,
        "expected the language reference to annotate at least 10 snippets, found {}",
        found.len()
    );
    let analyzer = Analyzer::new();
    for (snippet, expected) in found {
        let program = analyzer
            .parse(&snippet)
            .unwrap_or_else(|e| panic!("doc snippet fails to parse:\n{snippet}\n{e}"));
        let typed = analyzer
            .check(&program)
            .unwrap_or_else(|e| panic!("doc snippet fails to check:\n{snippet}\n{e}"));
        assert_eq!(
            typed.ty().to_string(),
            expected,
            "doc snippet infers a different type than documented:\n{snippet}"
        );
    }
}

/// The first ```text block after README's `## CLI` heading.
fn readme_cli_block(readme: &str) -> String {
    let section = readme.split("\n## CLI\n").nth(1).expect("README has a `## CLI` section");
    let body = section.split("```text\n").nth(1).expect("the CLI section has a text block");
    body.split("```").next().expect("split yields a first piece").to_string()
}

#[test]
fn readme_cli_block_lists_every_command_and_flag() {
    // The help text is printed from the CLI's command and flag tables, so
    // README's block lists every command and flag exactly when it is that
    // text verbatim.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_numfuzz"))
        .arg("--help")
        .output()
        .expect("run numfuzz --help");
    assert!(out.status.success(), "numfuzz --help exits 0");
    let help = String::from_utf8(out.stdout).expect("utf-8 help");
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md exists");
    assert_eq!(
        readme_cli_block(&readme),
        help,
        "README's `## CLI` block must be the output of `numfuzz --help` verbatim"
    );
}
