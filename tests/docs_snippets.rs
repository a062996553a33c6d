//! Keeps the docs honest: every fenced snippet `docs/language.md`
//! annotates with "infers `TYPE`" is parsed and checked through the real
//! pipeline, and the inferred type must match the quoted one exactly; and
//! README's `## CLI` block names every command and flag `numfuzz --help`
//! prints.

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

/// Whether `needle` occurs in `text` as a whole token: not followed by a
/// word character or `-`, so `--gate` is not satisfied by
/// `--gate-incremental`.
fn contains_token(text: &str, needle: &str) -> bool {
    text.match_indices(needle).any(|(at, _)| {
        !text[at + needle.len()..]
            .starts_with(|c: char| c.is_alphanumeric() || c == '-' || c == '_')
    })
}

#[test]
fn readme_cli_block_lists_every_command_and_flag() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_numfuzz"))
        .arg("--help")
        .output()
        .expect("run numfuzz --help");
    assert!(out.status.success(), "numfuzz --help exits 0");
    let help = String::from_utf8(out.stdout).expect("utf-8 help");
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md exists");
    let block = readme_cli_block(&readme);

    let mut named = Vec::new();
    for line in help.lines() {
        // Each usage line reads `numfuzz CMD ...` or `numfuzz <CMD|CMD> ...`.
        let Some(rest) = line.split("numfuzz ").nth(1) else { continue };
        let commands = rest.split_whitespace().next().unwrap_or_default();
        for command in commands.trim_matches(|c| c == '<' || c == '>').split('|') {
            named.push(format!("numfuzz {command}"));
        }
        let flags = line.split(|c: char| c.is_whitespace() || c == '[' || c == ']');
        named.extend(flags.filter(|t| t.starts_with("--")).map(String::from));
    }
    assert!(named.len() > 20, "the help text names the commands and flags: {help}");
    let mut missing: Vec<String> =
        named.into_iter().filter(|name| !contains_token(&block, name)).collect();
    missing.sort();
    missing.dedup();
    assert!(missing.is_empty(), "README's `## CLI` block does not mention {missing:?}");
}
