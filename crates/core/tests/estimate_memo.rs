//! The per-context estimate memo: every memoized penalty distribution
//! is bit-identical to a fresh computation, the memo keys on every input
//! that changes the distribution, and it stays bounded.

use std::sync::Arc;

use pwcet_core::{
    AnalysisConfig, AnalysisContext, Protection, PwcetAnalyzer, PwcetEstimate, ReusePlane,
    ESTIMATE_MEMO_CAPACITY,
};
use pwcet_progen::Program;

const PFAILS: [f64; 3] = [1e-5, 1e-4, 1e-3];

fn suite_program(name: &str) -> Program {
    pwcet_benchsuite::by_name(name)
        .expect("suite program")
        .program
}

/// An analyzer over its own plane, so the plane's memo counters count
/// exactly this test's lookups.
fn plane_analyzer(config: AnalysisConfig) -> (PwcetAnalyzer, Arc<ReusePlane>) {
    let plane = Arc::new(ReusePlane::in_memory());
    let analyzer = PwcetAnalyzer::new(config).with_reuse_plane(Arc::clone(&plane));
    (analyzer, plane)
}

fn counts(plane: &ReusePlane) -> (u64, u64) {
    let metrics = plane.metrics();
    (
        metrics.counter("estimate_memo_hits").get(),
        metrics.counter("estimate_memo_misses").get(),
    )
}

/// An estimate computed on a brand-new context: nothing memoized.
fn fresh_estimate(
    config: AnalysisConfig,
    program: &Program,
    protection: Protection,
) -> PwcetEstimate {
    let analyzer = PwcetAnalyzer::new(config);
    let context = analyzer.build_context(program).expect("builds");
    analyzer
        .analyze_with_context(&context)
        .expect("analyzes")
        .estimate(protection)
}

/// Penalty points and tail, the pWCET at 1e-15 and the exceedance curve,
/// with every probability compared by its bits.
fn assert_bit_identical(memo: &PwcetEstimate, fresh: &PwcetEstimate, what: &str) {
    let bits = |e: &PwcetEstimate| -> Vec<(u64, u64)> {
        e.penalty_distribution()
            .points()
            .iter()
            .map(|&(v, p)| (v, p.to_bits()))
            .collect()
    };
    assert_eq!(bits(memo), bits(fresh), "{what}: penalty points");
    assert_eq!(
        memo.penalty_distribution().tail_mass().to_bits(),
        fresh.penalty_distribution().tail_mass().to_bits(),
        "{what}: tail"
    );
    assert_eq!(memo.pwcet_at(1e-15), fresh.pwcet_at(1e-15), "{what}: pWCET");
    let curve = |e: &PwcetEstimate| -> Vec<(u64, u64)> {
        e.exceedance_curve()
            .iter()
            .map(|point| (point.value, point.exceedance.to_bits()))
            .collect()
    };
    assert_eq!(curve(memo), curve(fresh), "{what}: exceedance curve");
}

#[test]
fn memo_hits_are_bit_identical_to_fresh_computations() {
    for name in ["bs", "crc", "fir"] {
        let program = suite_program(name);
        for pfail in PFAILS {
            let config = AnalysisConfig::paper_default().with_pfail(pfail).unwrap();
            let (analyzer, plane) = plane_analyzer(config);
            let analysis = analyzer.analyze(&program).expect("analyzes");
            for protection in Protection::all() {
                let first = analysis.estimate(protection);
                let before = counts(&plane);
                // A re-analysis reaches the same context through the
                // memory tier and must hit.
                let again = analyzer.analyze(&program).expect("analyzes");
                let hit = again.estimate(protection);
                let after = counts(&plane);
                assert_eq!(
                    after,
                    (before.0 + 1, before.1),
                    "{name} {pfail} {protection}"
                );
                let fresh = fresh_estimate(config, &program, protection);
                let what = format!("{name} pfail={pfail} {protection}");
                assert_bit_identical(&hit, &fresh, &what);
                assert_bit_identical(&first, &fresh, &what);
            }
            assert_eq!(counts(&plane), (3, 3), "{name} {pfail}");
        }
    }
}

#[test]
fn every_distribution_input_is_part_of_the_key() {
    let program = suite_program("bs");
    let base = AnalysisConfig::paper_default();
    let context = PwcetAnalyzer::new(base)
        .build_context(&program)
        .expect("builds");
    let estimate_under = |config: AnalysisConfig| {
        PwcetAnalyzer::new(config)
            .analyze_with_context(&context)
            .expect("analyzes")
            .estimate(Protection::None)
    };

    estimate_under(base);
    assert_eq!(context.memoized_penalties(), 1);
    estimate_under(base);
    assert_eq!(context.memoized_penalties(), 1, "same inputs must hit");

    let mut variants = vec![base.with_pfail(2e-4).unwrap()];
    let mut pruned = base;
    pruned.convolution.prune_epsilon *= 10.0;
    variants.push(pruned);
    let mut capped = base;
    capped.convolution.max_support /= 2;
    variants.push(capped);
    for (i, config) in variants.into_iter().enumerate() {
        let memoized = estimate_under(config);
        assert_eq!(context.memoized_penalties(), 2 + i, "variant {i} must miss");
        assert_bit_identical(
            &memoized,
            &fresh_estimate(config, &program, Protection::None),
            &format!("variant {i}"),
        );
    }
}

#[test]
fn a_long_pfail_sweep_stays_bounded_and_matches_the_oracle() {
    let program = suite_program("bs");
    let base = AnalysisConfig::paper_default();
    let context: AnalysisContext = PwcetAnalyzer::new(base)
        .build_context(&program)
        .expect("builds");
    let pfails: Vec<f64> = (0..64)
        .map(|i| 10f64.powf(-6.0 + 3.0 * f64::from(i) / 63.0))
        .collect();
    let row = |analyzer: &PwcetAnalyzer, context: &AnalysisContext| -> Vec<u64> {
        let analysis = analyzer.analyze_with_context(context).expect("analyzes");
        Protection::all()
            .iter()
            .map(|&p| analysis.estimate(p).pwcet_at(1e-15))
            .collect()
    };

    let mut rows = Vec::new();
    for &pfail in &pfails {
        rows.push(row(
            &PwcetAnalyzer::new(base.with_pfail(pfail).unwrap()),
            &context,
        ));
        assert!(context.memoized_penalties() <= ESTIMATE_MEMO_CAPACITY);
    }
    assert_eq!(context.memoized_penalties(), ESTIMATE_MEMO_CAPACITY);
    // Early points were evicted: asking again recomputes them, and the
    // memo stays at its cap.
    let again = row(
        &PwcetAnalyzer::new(base.with_pfail(pfails[0]).unwrap()),
        &context,
    );
    assert_eq!(again, rows[0]);
    assert_eq!(context.memoized_penalties(), ESTIMATE_MEMO_CAPACITY);

    for (&pfail, memoized) in pfails.iter().zip(&rows) {
        let analyzer = PwcetAnalyzer::new(base.with_pfail(pfail).unwrap());
        let oracle_context = analyzer.build_context(&program).expect("builds");
        assert_eq!(&row(&analyzer, &oracle_context), memoized, "pfail {pfail}");
    }
}
