//! Soundness tests for judgment-level memoization: incremental rechecks
//! through a shared [`JudgmentCache`] must be byte-identical to
//! from-scratch passes, and a judgment memoized under one environment
//! must never replay under a different one.

use numfuzz_core::{
    compile, infer, infer_backward, infer_backward_memoized, infer_memoized, AnalysisMode,
    ConfigFingerprint, JudgmentCache, Signature,
};

const BUDGET: usize = 4 << 20;

fn config(mode: AnalysisMode) -> u64 {
    ConfigFingerprint::new(mode).finish()
}

/// Forward-checks `src` both plainly and through `cache`, asserts the
/// results render identically, and returns the reuse counts.
fn check_both(
    src: &str,
    sig: &Signature,
    cache: &mut JudgmentCache,
) -> numfuzz_core::JudgmentCounts {
    let lowered = compile(src, sig).expect("compiles");
    let plain = infer(&lowered.store, sig, lowered.root, &[]).expect("forward-types");
    let (memo, counts) = infer_memoized(
        &lowered.store,
        sig,
        lowered.root,
        &[],
        cache,
        config(AnalysisMode::Forward),
    )
    .expect("forward-types memoized");
    assert_eq!(format!("{plain:?}"), format!("{memo:?}"), "memoized output diverged");
    assert_eq!(counts.reused + counts.recomputed, counts.total);
    counts
}

/// Backward twin of [`check_both`].
fn backward_both(
    src: &str,
    sig: &Signature,
    cache: &mut JudgmentCache,
) -> numfuzz_core::JudgmentCounts {
    let lowered = compile(src, sig).expect("compiles");
    let plain = infer_backward(&lowered.store, sig, lowered.root, &[]).expect("backward-types");
    let (memo, counts) = infer_backward_memoized(
        &lowered.store,
        sig,
        lowered.root,
        &[],
        cache,
        config(AnalysisMode::Backward),
    )
    .expect("backward-types memoized");
    assert_eq!(format!("{plain:?}"), format!("{memo:?}"), "memoized output diverged");
    assert_eq!(counts.reused + counts.recomputed, counts.total);
    counts
}

const PIPELINE: &str = r#"
    function mulfp (xy: (num, num)) : M[eps]num { s = mul xy; rnd s }
    function addfp (xy: <num, num>) : M[eps]num { s = add xy; rnd s }
    function ma (x: num) (y: num) (z: num) : M[2*eps]num {
        s = mulfp (x, y);
        let a = s;
        addfp (|a, z|)
    }
"#;

#[test]
fn identical_recheck_replays_everything_forward() {
    let sig = Signature::relative_precision();
    let mut cache = JudgmentCache::new(BUDGET);
    let cold = check_both(PIPELINE, &sig, &mut cache);
    assert_eq!(cold.reused, 0, "cold pass found entries in an empty cache");
    assert!(cold.total > 0);
    // Re-parsing makes fresh TermIds and a fresh arena; content
    // fingerprints must still address every judgment.
    let warm = check_both(PIPELINE, &sig, &mut cache);
    assert_eq!(warm.recomputed, 0, "identical program recomputed judgments: {warm:?}");
    assert_eq!(warm.reused, warm.total);
}

#[test]
fn identical_recheck_replays_everything_backward() {
    let sig = Signature::relative_precision();
    let mut cache = JudgmentCache::new(BUDGET);
    let cold = backward_both(PIPELINE, &sig, &mut cache);
    assert_eq!(cold.reused, 0);
    let warm = backward_both(PIPELINE, &sig, &mut cache);
    assert_eq!(warm.recomputed, 0, "identical program recomputed judgments: {warm:?}");
    assert_eq!(warm.reused, warm.total);
}

#[test]
fn leaf_edit_recomputes_only_the_spine() {
    let sig = Signature::relative_precision();
    let mut cache = JudgmentCache::new(BUDGET);
    let cold = check_both(PIPELINE, &sig, &mut cache);
    // Swap one pair's components in `ma`: everything outside the spine
    // from that site to the root (both helper functions in particular)
    // stays replayable.
    let simple = PIPELINE.replace("(|a, z|)", "(|z, a|)");
    let warm = check_both(&simple, &sig, &mut cache);
    assert!(warm.reused > 0, "edited program reused nothing: {warm:?}");
    assert!(
        warm.recomputed < cold.total,
        "edited program recomputed everything: {warm:?} vs cold {cold:?}"
    );
}

#[test]
fn same_subterm_under_different_binder_type_does_not_replay() {
    // The body `ret x` has the same content fingerprint in both
    // programs (lambda parameter names and types are outside the body's
    // own hash), but `x`'s type differs — the scope-chain fingerprint
    // must keep the judgments apart.
    let sig = Signature::relative_precision();
    let mut cache = JudgmentCache::new(BUDGET);
    let p1 = r#"
        function f (x: num) : M[0]num { ret x }
        ret 1
    "#;
    let p2 = r#"
        function f (x: (num, num)) : M[0](num, num) { ret x }
        ret 1
    "#;
    check_both(p1, &sig, &mut cache);
    // check_both asserts byte-identity against the from-scratch pass, so
    // a wrong replay (p1's judgment under p2's binder type) fails here.
    check_both(p2, &sig, &mut cache);
}

#[test]
fn same_subterm_under_different_free_interface_does_not_replay() {
    // Same program text, different free-variable types: the seed scope
    // folds the interface, so nothing from the first check may replay
    // into the second.
    use numfuzz_core::Ty;
    let sig = Signature::relative_precision();
    let mut cache = JudgmentCache::new(BUDGET);
    let lowered =
        compile("function f (x: num) : num { mul (x, 2) }\nret 1", &sig).expect("compiles");
    let store = &lowered.store;
    // Pretend an interface: no free vars vs. one phantom free var typed
    // num. The two seeds differ even though the term is identical.
    let free: &[(numfuzz_core::VarId, Ty)] = &[];
    let (first, c1) =
        infer_memoized(store, &sig, lowered.root, free, &mut cache, config(AnalysisMode::Forward))
            .expect("types");
    assert_eq!(c1.reused, 0);
    // A different config fingerprint simulates a different environment
    // seed; the same program must now recompute everything.
    let mut other = ConfigFingerprint::new(AnalysisMode::Forward);
    other.write_str("different-signature");
    let (second, c2) =
        infer_memoized(store, &sig, lowered.root, free, &mut cache, other.finish()).expect("types");
    assert_eq!(c2.reused, 0, "judgments leaked across config fingerprints");
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
}

#[test]
fn same_call_under_a_different_function_demand_does_not_replay() {
    // `h`'s body `g y` fingerprints identically in both programs, and `g`
    // has the same type in both, but its demand on `x` differs (`sqrt`
    // doubles it). Backward judgments replay a function's demands at its
    // call sites, so the scope chain must fold them in: a replay of the
    // first `g y` into the second program would report `y <= eps`.
    let sig = Signature::relative_precision();
    let mut cache = JudgmentCache::new(BUDGET);
    let h = "function h (y: num) : M[eps]num { g y }";
    let p1 = format!("function g (x: num) : M[eps]num {{ rnd (mul (x, 2)) }}\n{h}");
    let p2 = format!("function g (x: num) : M[eps]num {{ r = sqrt x; rnd r }}\n{h}");
    backward_both(&p1, &sig, &mut cache);
    // backward_both asserts byte-identity against the from-scratch pass.
    backward_both(&p2, &sig, &mut cache);
}

#[test]
fn forward_and_backward_share_a_cache_without_collisions() {
    let sig = Signature::relative_precision();
    let mut cache = JudgmentCache::new(BUDGET);
    check_both(PIPELINE, &sig, &mut cache);
    // Backward entries live under a different mode fingerprint: the
    // forward entries must not replay (variant mismatch would corrupt
    // the judgment), and byte-identity is still enforced.
    let bwd = backward_both(PIPELINE, &sig, &mut cache);
    assert_eq!(bwd.reused, 0, "backward pass replayed forward judgments");
}

#[test]
fn alpha_renamed_parameter_replays_with_fresh_names() {
    // Lambda parameter names are presentation, not content: renaming one
    // leaves every fingerprint unchanged, so the whole program replays —
    // and the replayed function reports must carry the *new* name.
    let sig = Signature::relative_precision();
    let mut cache = JudgmentCache::new(BUDGET);
    let p1 = "function f (x: num) : M[eps]num { rnd (mul (x, 2)) }\nret 0";
    let p2 = "function f (y: num) : M[eps]num { rnd (mul (y, 2)) }\nret 0";
    backward_both(p1, &sig, &mut cache);
    let warm = backward_both(p2, &sig, &mut cache);
    assert_eq!(warm.recomputed, 0, "alpha-renaming invalidated fingerprints: {warm:?}");
    // And explicitly: the replayed report names the new parameter.
    let lowered = compile(p2, &sig).expect("compiles");
    let (memo, _) = infer_backward_memoized(
        &lowered.store,
        &sig,
        lowered.root,
        &[],
        &mut cache,
        config(AnalysisMode::Backward),
    )
    .expect("types");
    let report = memo.fn_report("f").expect("report for f");
    assert_eq!(report.inputs[0].0, "y");
}

#[test]
fn errors_are_not_cached_and_recheck_identically() {
    let sig = Signature::relative_precision();
    let mut cache = JudgmentCache::new(BUDGET);
    let bad = "function f (x: num) : num { 2 }";
    let lowered = compile(bad, &sig).expect("compiles");
    let plain = infer_backward(&lowered.store, &sig, lowered.root, &[]).unwrap_err();
    for _ in 0..2 {
        let memo_err = infer_backward_memoized(
            &lowered.store,
            &sig,
            lowered.root,
            &[],
            &mut cache,
            config(AnalysisMode::Backward),
        )
        .unwrap_err();
        assert_eq!(plain, memo_err);
    }
}

#[test]
fn tiny_budget_still_checks_correctly() {
    // With an absurdly small byte budget the cache thrashes, but output
    // must stay byte-identical (eviction only costs reuse, never
    // soundness).
    let sig = Signature::relative_precision();
    let mut cache = JudgmentCache::new(64);
    check_both(PIPELINE, &sig, &mut cache);
    let warm = check_both(PIPELINE, &sig, &mut cache);
    assert!(warm.recomputed > 0, "64-byte budget cannot hold every judgment");
}

#[test]
fn cold_pass_memory_is_linear_in_function_definitions() {
    // Each `function` node's subtree emits the reports of every later
    // definition, so entries that each copied their subtree's reports
    // would hold N²/2 of them; sharing one frozen report list per pass
    // keeps the judgment cache linear in N.
    let sig = Signature::relative_precision();
    let bytes = |n: usize| {
        let src: String =
            (0..n).map(|i| format!("function f_{i} (x: num) : M[eps]num {{ rnd x }}\n")).collect();
        let mut cache = JudgmentCache::new(1 << 30);
        check_both(&src, &sig, &mut cache);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 0);
        stats.bytes
    };
    let (single, double) = (bytes(200), bytes(400));
    assert!(
        double * 2 <= single * 5,
        "doubling the definitions grew the cache from {single} to {double} bytes"
    );
}
