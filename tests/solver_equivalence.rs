//! Differential suite: the sparse warm-started solver stack is
//! bound-identical to the frozen dense reference.
//!
//! The production ILP path (sparse bounded-variable revised simplex +
//! clone-free warm-started branch and bound + per-context
//! `IpetTemplate` objective fan-out) must reproduce, bit for bit, every
//! bound the original dense tableau + clone-per-node solver computed:
//! fault-free WCETs, every fault-miss-map cell, every SRB column, and
//! therefore every pWCET quantile. `AnalysisConfig.ipet.solver =
//! SolverBackend::DenseReference` re-runs the pipeline on the frozen
//! reference (`crates/ilp/src/reference.rs`); this suite compares the
//! two end to end, on a category-spanning subset and on the complete
//! 25-benchmark suite (a few seconds under the optimized test profile).
//! The solver-level random-instance equivalence lives in
//! `crates/ilp/tests/properties.rs`.

use std::sync::Arc;

use fault_aware_pwcet::benchsuite;
use fault_aware_pwcet::core::{
    AnalysisConfig, Parallelism, ProgramAnalysis, Protection, PwcetAnalyzer, ReusePlane,
    SolverBackend,
};

const TARGET_PROBABILITIES: [f64; 3] = [1e-6, 1e-15, 1.0];

/// The category-spanning subset the always-on tests use (same population
/// as `incremental_equivalence.rs`).
const SPAN: [&str; 6] = ["bs", "crc", "fibcall", "fir", "matmult", "ud"];

fn sparse_config() -> AnalysisConfig {
    AnalysisConfig::paper_default().with_parallelism(Parallelism::Sequential)
}

fn reference_config() -> AnalysisConfig {
    let mut config = sparse_config();
    config.ipet.solver = SolverBackend::DenseReference;
    config
}

fn assert_bounds_identical(name: &str, sparse: &ProgramAnalysis, dense: &ProgramAnalysis) {
    assert_eq!(
        sparse.fault_free_wcet(),
        dense.fault_free_wcet(),
        "{name}: fault-free WCET"
    );
    assert_eq!(sparse.fmm(), dense.fmm(), "{name}: fault miss map");
    assert_eq!(
        sparse.srb_last_column(),
        dense.srb_last_column(),
        "{name}: SRB columns"
    );
    for protection in Protection::all() {
        for p in TARGET_PROBABILITIES {
            assert_eq!(
                sparse.estimate(protection).pwcet_at(p),
                dense.estimate(protection).pwcet_at(p),
                "{name}/{protection}: quantile at {p}"
            );
        }
    }
}

fn assert_benchmark_equivalent(name: &str) {
    let bench = benchsuite::by_name(name).expect("benchmark exists");
    let sparse = PwcetAnalyzer::new(sparse_config())
        .analyze(&bench.program)
        .expect("sparse analysis");
    let dense = PwcetAnalyzer::new(reference_config())
        .analyze(&bench.program)
        .expect("reference analysis");
    assert_bounds_identical(name, &sparse, &dense);
}

#[test]
fn sparse_bounds_match_dense_reference_on_spanning_subset() {
    for name in SPAN {
        assert_benchmark_equivalent(name);
    }
}

#[test]
fn parallel_sparse_pipeline_matches_dense_reference() {
    // The fan-out workers share the factored template (pooled warm
    // bases) and the WCET instance may split branch-and-bound subtrees:
    // neither may change a single bound.
    let bench = benchsuite::by_name("crc").expect("benchmark exists");
    let parallel = PwcetAnalyzer::new(sparse_config().with_parallelism(Parallelism::threads(4)))
        .analyze(&bench.program)
        .expect("parallel sparse analysis");
    let dense = PwcetAnalyzer::new(reference_config())
        .analyze(&bench.program)
        .expect("reference analysis");
    assert_bounds_identical("crc(parallel)", &parallel, &dense);
}

#[test]
fn solve_stage_records_template_warm_starts() {
    // The per-(set, fault) fan-out must actually hit the factored
    // basis: one cold start (the first solve binds the template), warm
    // starts for the rest, all observable through the plane the service
    // reports from.
    let plane = Arc::new(ReusePlane::in_memory());
    let analyzer = PwcetAnalyzer::new(sparse_config()).with_reuse_plane(Arc::clone(&plane));
    let bench = benchsuite::by_name("crc").expect("benchmark exists");
    analyzer.analyze(&bench.program).expect("analysis");
    let stats = plane.ilp_stats();
    assert!(stats.bb_nodes > 0, "solve stage ran ILPs");
    // One cold start builds the factored basis; branching nodes may add
    // cold vertex probes, so the claim is "warm dominates", not an
    // exact cold count.
    assert!(stats.cold_starts >= 1, "the first solve builds the basis");
    assert!(
        stats.warm_starts > stats.cold_starts,
        "the delta fan-out warm-starts from the template basis \
         (warm {} vs cold {})",
        stats.warm_starts,
        stats.cold_starts
    );

    // A second analysis of the same program reuses the memoized solve
    // artifacts entirely: no new solver work may be recorded.
    analyzer.analyze(&bench.program).expect("memoized analysis");
    assert_eq!(
        plane.ilp_stats(),
        stats,
        "memoized re-request solves nothing"
    );
}

#[test]
fn derived_geometry_sweep_matches_dense_reference_per_point() {
    // A widest-first associativity sweep over one shared plane: every
    // narrower sibling derives its classification from the widest point
    // and re-solves its ILP objectives against the *shared*
    // cross-geometry template (same registry key, warm basis pool,
    // objective memo). Each point's bounds must still be bit-identical
    // to an isolated dense-reference analysis of that geometry — the
    // sibling path may share solver state, never solver answers that
    // differ.
    use fault_aware_pwcet::cache::GeometryLattice;

    let bench = benchsuite::by_name("crc").expect("benchmark exists");
    let lattice = GeometryLattice::paper_default();
    let plane = Arc::new(ReusePlane::in_memory());
    for geometry in lattice.members() {
        let mut point = sparse_config();
        point.geometry = geometry;
        let derived = PwcetAnalyzer::new(point)
            .with_reuse_plane(Arc::clone(&plane))
            .analyze(&bench.program)
            .expect("derived-sweep analysis");
        let mut reference = reference_config();
        reference.geometry = geometry;
        let dense = PwcetAnalyzer::new(reference)
            .analyze(&bench.program)
            .expect("reference analysis");
        assert_bounds_identical(&format!("crc@{}ways", geometry.ways()), &derived, &dense);
    }
    // The comparison must have exercised the shared-template path, not
    // a per-point cold rebuild.
    let stats = plane.stats();
    assert_eq!(
        stats.derived as usize,
        lattice.len() - 1,
        "every narrower point derives from the widest"
    );
    assert!(
        stats.template_hits >= (lattice.len() - 1) as u64,
        "every sibling re-solves against the shared template \
         (got {} hits)",
        stats.template_hits
    );
    assert!(
        stats.objective_hits > 0,
        "coinciding per-set classifications must answer from the \
         objective memo"
    );
}

#[test]
fn sparse_bounds_match_dense_reference_across_the_entire_suite() {
    for bench in benchsuite::all() {
        assert_benchmark_equivalent(bench.name);
    }
}
