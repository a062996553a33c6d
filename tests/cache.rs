//! The content-addressed result cache, end to end: hit/miss accounting,
//! key sensitivity to program content and analyzer configuration, LRU
//! eviction under a byte budget, caching as session policy (`check` on a
//! session built with a cache answers through it, `optimize` included),
//! and — the soundness property — byte identity between cached and
//! uncached analysis, including serve `batch` requests on the worker pool
//! at every job count.

use numfuzz::prelude::*;
use numfuzz::serve::{Json, Service};

/// The lines `numfuzz batch` prints for `sources` in `mode`, from an
/// uncached session.
fn batch_lines(sources: &[(&str, &str)], mode: AnalysisMode) -> Vec<String> {
    let plain = Analyzer::new();
    let line = |(name, src): &(&str, &str)| match plain
        .parse_named(name, src)
        .and_then(|p| plain.analyze(&p, mode))
    {
        Ok(analysis) => analysis.batch_line(&plain, name),
        Err(d) => d.render(),
    };
    sources.iter().map(line).collect()
}

fn cached_analyzer(budget: usize) -> (Analyzer, AnalysisCache) {
    let cache = AnalysisCache::with_budget(budget);
    (Analyzer::builder().cache(cache.clone()).build(), cache)
}

/// Sends one serve `batch` request (`mode` is `"forward"` or
/// `"backward"`) and returns each result's `line`, in request order.
fn serve_batch(service: &Service, sources: &[(&str, &str)], mode: &str) -> Vec<String> {
    let programs = sources
        .iter()
        .map(|(name, src)| Json::obj(vec![("name", Json::str(*name)), ("src", Json::str(*src))]))
        .collect();
    let request = Json::obj(vec![
        ("id", Json::int(1)),
        ("op", Json::str("batch")),
        ("mode", Json::str(mode)),
        ("programs", Json::Arr(programs)),
    ]);
    let reply = service.handle_line(service.analyzer(), &request.to_string());
    let reply = Json::parse(&reply.json).expect("the reply is JSON");
    let results = reply.get("results").and_then(Json::as_array).expect("batch results");
    results.iter().map(|r| r.get("line").and_then(Json::as_str).expect("line").into()).collect()
}

#[test]
fn hit_and_miss_accounting() {
    let (analyzer, cache) = cached_analyzer(1 << 20);
    let program = analyzer.parse("rnd 1.5").unwrap();

    analyzer.check(&program).unwrap();
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.insertions), (0, 1, 1));

    analyzer.check(&program).unwrap();
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (1, 1));

    // A bound is read off the checked program, never cached on its own:
    // bounding a replayed check is one hit and adds no entry.
    analyzer.bound(&analyzer.check(&program).unwrap()).unwrap();
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.insertions, s.entries), (2, 1, 1, 1));
}

#[test]
fn content_addressing_ignores_names_and_binder_names() {
    let (analyzer, cache) = cached_analyzer(1 << 20);
    // Same content under different file names: one analysis.
    let a = analyzer.parse_named("a.nf", "s = mul (2, 2); rnd s").unwrap();
    let b = analyzer.parse_named("b.nf", "s = mul (2, 2); rnd s").unwrap();
    // Alpha-renamed binder: still the same content address.
    let c = analyzer.parse_named("c.nf", "t = mul (2, 2); rnd t").unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint());
    assert_eq!(a.fingerprint(), c.fingerprint());

    analyzer.check(&a).unwrap();
    analyzer.check(&b).unwrap();
    analyzer.check(&c).unwrap();
    let s = cache.stats();
    assert_eq!((s.hits, s.misses), (2, 1), "one analysis served all three");
}

#[test]
fn function_names_are_content_not_presentation() {
    // FnReport.name (and therefore check/bound output) carries the
    // `function` binder's spelling — renamed functions may not share a
    // cache entry.
    let (analyzer, cache) = cached_analyzer(1 << 20);
    let f = analyzer.parse("function f (x: num) : M[eps]num { rnd x }\nf 2").unwrap();
    let g = analyzer.parse("function g (x: num) : M[eps]num { rnd x }\ng 2").unwrap();
    assert_ne!(f.fingerprint(), g.fingerprint());
    let tf = analyzer.check(&f).unwrap();
    let tg = analyzer.check(&g).unwrap();
    assert_eq!(tf.functions()[0].name, "f");
    assert_eq!(tg.functions()[0].name, "g", "g must not replay f's report");
    assert_eq!(cache.stats().hits, 0);
    // But each replays itself.
    assert_eq!(analyzer.check(&g).unwrap().functions()[0].name, "g");
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn alpha_renamed_errors_render_their_own_source() {
    // Structurally identical ill-typed programs whose *sources* differ
    // (renamed let binder) share a structural fingerprint, but the
    // diagnostic quotes the source — the Err outcome may not be
    // replayed across them.
    let (analyzer, cache) = cached_analyzer(1 << 20);
    let a = analyzer.parse("s = mul (true, 2); rnd s").unwrap();
    let b = analyzer.parse("t = mul (true, 2); rnd t").unwrap();
    assert_eq!(a.fingerprint(), b.fingerprint(), "alpha-equivalent content");
    assert_ne!(a.display_fingerprint(), b.display_fingerprint(), "different rendering");
    let da = analyzer.check(&a).unwrap_err();
    let db = analyzer.check(&b).unwrap_err();
    assert!(da.snippet.as_deref().unwrap().contains("rnd s"), "{da:?}");
    assert!(db.snippet.as_deref().unwrap().contains("rnd t"), "b must not replay a's snippet");
    assert_eq!(cache.stats().hits, 0, "display mismatch is a miss, not a hit");
    // Identical source still replays.
    let b2 = analyzer.parse("t = mul (true, 2); rnd t").unwrap();
    let db2 = analyzer.check(&b2).unwrap_err();
    assert_eq!(db2.snippet, db.snippet);
    assert_eq!(cache.stats().hits, 1);

    // The same guard holds for a serve batch on a shared cache, cold and
    // warm: `b` is analyzed on its own, never replaying a's rendering.
    let batch = [
        ("a.nf", "s = mul (true, 2); rnd s"),
        ("b.nf", "t = mul (true, 2); rnd t"),
        ("a-again.nf", "s = mul (true, 2); rnd s"),
    ];
    let expected = batch_lines(&batch, AnalysisMode::Forward);
    for jobs in [1, 2] {
        let service = Service::new(cached_analyzer(1 << 20).0, jobs);
        for pass in ["cold", "warm"] {
            let lines = serve_batch(&service, &batch, "forward");
            assert_eq!(lines, expected, "{pass} batch, jobs={jobs}");
            assert!(lines[0].contains("rnd s"), "{pass}, jobs={jobs}");
            assert!(lines[1].contains("rnd t"), "{pass}, jobs={jobs}: own source, not a's");
            assert!(lines[2].contains("rnd s"), "{pass}, jobs={jobs}");
        }
    }
}

#[test]
fn cached_diagnostics_carry_each_programs_own_name() {
    let (analyzer, cache) = cached_analyzer(1 << 20);
    let a = analyzer.parse_named("first.nf", "2 3").unwrap();
    let b = analyzer.parse_named("second.nf", "2 3").unwrap();
    let da = analyzer.check(&a).unwrap_err();
    let db = analyzer.check(&b).unwrap_err();
    assert_eq!(cache.stats().hits, 1, "identical ill-typed program replays from cache");
    assert_eq!(da.file.as_deref(), Some("first.nf"));
    assert_eq!(db.file.as_deref(), Some("second.nf"), "replayed diagnostic is re-localized");
    assert_eq!(da.code, db.code);
    assert_eq!(da.message, db.message);
}

#[test]
fn key_is_sensitive_to_rounding_mode_format_and_instantiation() {
    let cache = AnalysisCache::with_budget(1 << 20);
    let base = Analyzer::builder().cache(cache.clone()).build();
    let rd = Analyzer::builder().mode(RoundingMode::TowardNegative).cache(cache.clone()).build();
    let b32 = Analyzer::builder().format(Format::BINARY32).cache(cache.clone()).build();
    let abs =
        Analyzer::builder().signature(Instantiation::AbsoluteError).cache(cache.clone()).build();

    let src = "rnd 1.5";
    let program = base.parse(src).unwrap();
    base.check(&program).unwrap();
    let after_base = cache.stats();

    // Same source under round-toward−∞: must miss (the bound read off the
    // result differs — RN/RD halve vs. full unit roundoff is mode-specific).
    rd.check(&rd.parse(src).unwrap()).unwrap();
    let s = cache.stats();
    assert_eq!(s.hits, after_base.hits, "different mode may not hit");
    assert!(s.misses > after_base.misses);

    // Same source in binary32: must miss.
    let before = cache.stats();
    b32.check(&b32.parse(src).unwrap()).unwrap();
    let s = cache.stats();
    assert_eq!(s.hits, before.hits, "different format may not hit");

    // Same source under the absolute-error instantiation: must miss.
    let before = cache.stats();
    abs.check(&abs.parse(src).unwrap()).unwrap();
    let s = cache.stats();
    assert_eq!(s.hits, before.hits, "different instantiation may not hit");

    // And each configuration hits itself on replay.
    let before = cache.stats();
    rd.check(&rd.parse(src).unwrap()).unwrap();
    b32.check(&b32.parse(src).unwrap()).unwrap();
    assert_eq!(cache.stats().hits, before.hits + 2);
}

#[test]
fn lru_eviction_under_a_tiny_budget() {
    // A budget big enough for roughly one entry: every new program evicts
    // the previous one.
    let (analyzer, cache) = cached_analyzer(400);
    let sources: Vec<String> = (1..=6).map(|i| format!("rnd {i}.5")).collect();
    for src in &sources {
        analyzer.check(&analyzer.parse(src).unwrap()).unwrap();
    }
    let s = cache.stats();
    assert_eq!(s.misses, 6);
    assert!(s.evictions >= 5, "tiny budget must evict: {s:?}");
    assert!(s.bytes <= s.budget, "residency respects the budget: {s:?}");
    assert!(s.entries <= 2, "at most a couple of entries fit: {s:?}");

    // The earliest program was evicted — checking it again misses.
    let before = cache.stats();
    analyzer.check(&analyzer.parse(&sources[0]).unwrap()).unwrap();
    let s = cache.stats();
    assert_eq!(s.hits, before.hits);
    assert_eq!(s.misses, before.misses + 1);
}

#[test]
fn cached_and_uncached_batches_are_byte_identical_across_jobs() {
    // A corpus with well-typed programs, ill-typed programs, and
    // duplicates (same content, different names).
    let sources = [
        ("a.nf", "s = mul (2, 2); rnd s"),
        ("bad1.nf", "2 3"),
        ("b.nf", "function f (x: num) : M[eps]num { rnd x }\nf 2"),
        ("dup-of-a.nf", "s = mul (2, 2); rnd s"),
        ("bad2.nf", "2 3"),
        ("c.nf", "rnd (|1, 2|)"),
        ("dup-of-a-again.nf", "s = mul (2, 2); rnd s"),
    ];
    let expected = batch_lines(&sources, AnalysisMode::Forward);
    // Uncached diagnostics name each program's own file.
    assert!(expected[1].contains("bad1.nf"), "{}", expected[1]);
    assert!(expected[4].contains("bad2.nf"), "{}", expected[4]);

    for jobs in [1, 2, 4] {
        let (analyzer, cache) = cached_analyzer(1 << 20);
        let service = Service::new(analyzer, jobs);
        let cold = serve_batch(&service, &sources, "forward");
        assert_eq!(cold, expected, "cold cached batch, jobs={jobs}");
        assert!(cold[3].starts_with("dup-of-a.nf: "), "duplicate keeps its name, jobs={jobs}");
        let s = cache.stats();
        // With more than one worker, two duplicates may both miss before
        // either inserts, so the exact count holds serially only.
        if jobs == 1 {
            assert_eq!(s.insertions, 4, "4 distinct contents analyzed once each");
        }
        let warm = serve_batch(&service, &sources, "forward");
        assert_eq!(warm, expected, "warm cached batch, jobs={jobs}");
        let s2 = cache.stats();
        assert_eq!(s2.insertions, s.insertions, "warm batch recomputes nothing, jobs={jobs}");
        assert_eq!(s2.hits, s.hits + 7, "warm batch hits once per input, jobs={jobs}");
    }
}

#[test]
fn forward_and_backward_results_never_replay_each_other() {
    // The analysis mode is part of the config fingerprint: a warm
    // forward entry must miss for the backward judgment and vice versa,
    // even for byte-identical programs under one session.
    let (analyzer, cache) = cached_analyzer(1 << 20);
    // A defs-only program both judgments accept (the backward checker
    // rejects mains that round over constants — no linear carrier).
    let src = "function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }";
    let program = analyzer.parse(src).unwrap();

    analyzer.check(&program).unwrap();
    let warm_forward = cache.stats();

    let bwd = analyzer.check_backward(&program).unwrap();
    let s = cache.stats();
    assert_eq!(s.hits, warm_forward.hits, "backward check replayed a forward entry");
    assert!(s.misses > warm_forward.misses);
    let f = bwd.function("mulfp").expect("backward report for mulfp");
    assert_eq!(f.inputs.len(), 1);
    assert_eq!((f.inputs[0].0.as_str(), f.inputs[0].1.to_string().as_str()), ("xy", "eps"));

    // Each mode hits itself on replay, and the replay is byte-identical.
    let before = cache.stats();
    analyzer.check(&program).unwrap();
    let replayed = analyzer.check_backward(&program).unwrap();
    assert_eq!(cache.stats().hits, before.hits + 2);
    assert_eq!(format!("{replayed:?}"), format!("{bwd:?}"), "cached backward replay drifted");

    // The other direction: warmed backward-first, the forward judgment
    // must still miss.
    let (analyzer, cache) = cached_analyzer(1 << 20);
    let program = analyzer.parse(src).unwrap();
    analyzer.check_backward(&program).unwrap();
    let warm_backward = cache.stats();
    analyzer.check(&program).unwrap();
    let s = cache.stats();
    assert_eq!(s.hits, warm_backward.hits, "forward check replayed a backward entry");

    // A backward bound is read off the backward check: its only replay is
    // the warm backward-*check* entry (one hit, never a forward entry),
    // and it adds no entry of its own.
    let before = cache.stats();
    let backward_bound = analyzer.bound_backward(&analyzer.check_backward(&program).unwrap());
    let s = cache.stats();
    assert_eq!(s.hits, before.hits + 1, "backward bound replays only its mode's check entry");
    assert_eq!((s.misses, s.entries), (before.misses, before.entries));
    let alpha = backward_bound.unwrap().function("mulfp").unwrap().inputs[0].alpha.clone();
    assert!(alpha.is_some(), "eps resolves to the unit roundoff");
}

#[test]
fn backward_batches_are_byte_identical_across_jobs_and_cache_state() {
    let sources = [
        ("ok.nf", "function f (x: num) : M[eps]num { rnd x }\nf 2"),
        ("linear.nf", "function g (x: num) : M[eps]num { rnd (mul (x, x)) }\ng 2"),
        ("dup.nf", "function f (x: num) : M[eps]num { rnd x }\nf 2"),
        ("nocarrier.nf", "rnd 1.5"),
    ];
    let expected = batch_lines(&sources, AnalysisMode::Backward);
    assert!(expected[1].contains("E0502"), "{:?}", expected[1]);
    assert!(expected[3].contains("E0504"), "{:?}", expected[3]);

    for jobs in [1, 2, 4] {
        let (analyzer, cache) = cached_analyzer(1 << 20);
        let service = Service::new(analyzer, jobs);
        let cold = serve_batch(&service, &sources, "backward");
        assert_eq!(cold, expected, "cold backward batch, jobs={jobs}");
        assert!(cold[2].contains("--> dup.nf"), "duplicate names its own file, jobs={jobs}");
        let inserted = cache.stats().insertions;
        if jobs == 1 {
            assert_eq!(inserted, 3, "3 distinct contents analyzed once each");
        }
        let warm = serve_batch(&service, &sources, "backward");
        assert_eq!(warm, expected, "warm backward batch, jobs={jobs}");
        assert_eq!(
            cache.stats().insertions,
            inserted,
            "warm batch recomputes nothing, jobs={jobs}"
        );
    }
}

#[test]
fn check_uses_the_session_cache() {
    let (analyzer, cache) = cached_analyzer(1 << 20);
    let program = analyzer.parse("rnd 1.5").unwrap();
    analyzer.check(&program).unwrap();
    analyzer.check(&program).unwrap();
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.insertions), (1, 1, 1), "check answers through the cache");
    // Without a judgment memo the incremental entry point is a truthful
    // from-scratch pass: it never replays from the result cache.
    let (_, counts) = analyzer.analyze_incremental(&program, AnalysisMode::Forward).unwrap();
    assert_eq!((counts.reused, counts.recomputed), (0, counts.total));
    assert_eq!(cache.stats(), s, "analyze_incremental leaves the result cache alone");
}

#[test]
fn optimize_candidates_fill_the_session_cache() {
    // Every candidate `optimize` certifies is checked on the session (or
    // a fork sharing its cache), so the emitted program is already warm.
    let (analyzer, cache) = cached_analyzer(64 << 20);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/benches/table1/verhulst.nf");
    let src = std::fs::read_to_string(path).expect("verhulst.nf is committed");
    let program = analyzer.parse_named("verhulst.nf", &src).unwrap();
    let cfg = numfuzz::optimize::OptimizeConfig { budget: 8, ..Default::default() };
    let outcome = analyzer.optimize(&program, &cfg).unwrap();
    let before = cache.stats();
    assert!(before.insertions > 0, "optimize checked through the session cache: {before:?}");
    analyzer.check(&analyzer.parse(&outcome.rewritten).unwrap()).unwrap();
    let s = cache.stats();
    assert_eq!(s.hits, before.hits + 1, "the emitted program replays its certification");
    assert_eq!(s.misses, before.misses);
}
