//! Property tests: branch-and-bound agrees with exhaustive enumeration on
//! small random integer programs, the degenerate failure modes —
//! empty feasible regions, unbounded objectives, tied optima — are
//! reported instead of mis-solved, and the sparse warm-started solver is
//! equivalent to the dense reference (same feasibility class, objectives
//! within 1e-6) across random LPs and ILPs with mixed constraint
//! operators and variable bounds.

use proptest::prelude::*;
use pwcet_ilp::{BranchAndBoundOptions, ConstraintOp, IlpError, LpWorkspace, Model};

#[derive(Debug, Clone)]
struct SmallIlp {
    /// Objective coefficients (up to 3 variables).
    objective: Vec<i32>,
    /// Each constraint: coefficients (same arity) and a rhs; all `<=`.
    constraints: Vec<(Vec<i32>, i32)>,
    /// Upper bound per variable (small, so enumeration is cheap).
    upper: Vec<u8>,
}

fn arb_ilp() -> impl Strategy<Value = SmallIlp> {
    (2usize..4)
        .prop_flat_map(|n| {
            let objective = proptest::collection::vec(-5i32..10, n..=n);
            let constraint =
                (proptest::collection::vec(-3i32..6, n..=n), 0i32..30).prop_map(|(c, r)| (c, r));
            let constraints = proptest::collection::vec(constraint, 1..4);
            let upper = proptest::collection::vec(1u8..6, n..=n);
            (objective, constraints, upper)
        })
        .prop_map(|(objective, constraints, upper)| SmallIlp {
            objective,
            constraints,
            upper,
        })
}

/// Exhaustive optimum over the integer grid, or `None` if infeasible.
fn brute_force(ilp: &SmallIlp) -> Option<i64> {
    let n = ilp.objective.len();
    let mut best: Option<i64> = None;
    let mut assignment = vec![0i64; n];
    fn recurse(ilp: &SmallIlp, idx: usize, assignment: &mut Vec<i64>, best: &mut Option<i64>) {
        if idx == assignment.len() {
            for (coeffs, rhs) in &ilp.constraints {
                let lhs: i64 = coeffs
                    .iter()
                    .zip(assignment.iter())
                    .map(|(&c, &x)| i64::from(c) * x)
                    .sum();
                if lhs > i64::from(*rhs) {
                    return;
                }
            }
            let value: i64 = ilp
                .objective
                .iter()
                .zip(assignment.iter())
                .map(|(&c, &x)| i64::from(c) * x)
                .sum();
            if best.is_none() || value > best.unwrap() {
                *best = Some(value);
            }
            return;
        }
        for v in 0..=i64::from(ilp.upper[idx]) {
            assignment[idx] = v;
            recurse(ilp, idx + 1, assignment, best);
        }
    }
    recurse(ilp, 0, &mut assignment, &mut best);
    best
}

fn to_model(ilp: &SmallIlp) -> Model {
    let mut m = Model::new();
    let vars: Vec<_> = ilp
        .objective
        .iter()
        .enumerate()
        .map(|(i, &c)| m.add_var(format!("x{i}"), f64::from(c)))
        .collect();
    for (i, &ub) in ilp.upper.iter().enumerate() {
        m.set_upper(vars[i], f64::from(ub));
        m.mark_integer(vars[i]);
    }
    for (coeffs, rhs) in &ilp.constraints {
        m.add_constraint(
            coeffs
                .iter()
                .enumerate()
                .map(|(i, &c)| (vars[i], f64::from(c))),
            ConstraintOp::Le,
            f64::from(*rhs),
        );
    }
    m
}

#[test]
fn empty_feasible_region_is_infeasible_not_mis_solved() {
    // x1 + x2 ≤ −1 with x ≥ 0 admits no point at all.
    let mut m = Model::new();
    let x1 = m.add_var("x1", 1.0);
    let x2 = m.add_var("x2", 2.0);
    m.add_constraint([(x1, 1.0), (x2, 1.0)], ConstraintOp::Le, -1.0);
    assert_eq!(m.solve_lp().unwrap_err(), IlpError::Infeasible);
    m.mark_integer(x1);
    m.mark_integer(x2);
    assert_eq!(m.solve_ilp().unwrap_err(), IlpError::Infeasible);
}

#[test]
fn contradictory_bounds_are_infeasible() {
    // x ≥ 5 (constraint) against x ≤ 3 (upper bound).
    let mut m = Model::new();
    let x = m.add_var("x", 1.0);
    m.set_upper(x, 3.0);
    m.add_constraint([(x, 1.0)], ConstraintOp::Ge, 5.0);
    assert_eq!(m.solve_lp().unwrap_err(), IlpError::Infeasible);
    m.mark_integer(x);
    assert_eq!(m.solve_ilp().unwrap_err(), IlpError::Infeasible);
}

#[test]
fn lp_feasible_but_integer_infeasible_is_reported() {
    // 2x = 1 with integral 0 ≤ x ≤ 1: the relaxation has x = ½, but no
    // integer point exists — branch and bound must prove it, not return
    // a rounded "solution".
    let mut m = Model::new();
    let x = m.add_var("x", 1.0);
    m.set_upper(x, 1.0);
    m.mark_integer(x);
    m.add_constraint([(x, 2.0)], ConstraintOp::Eq, 1.0);
    assert!(m.solve_lp().is_ok(), "the relaxation is feasible");
    assert_eq!(m.solve_ilp().unwrap_err(), IlpError::Infeasible);
}

#[test]
fn unbounded_objective_is_reported() {
    // Maximize x with no upper bound and no constraint: unbounded above.
    let mut m = Model::new();
    let x = m.add_var("x", 1.0);
    let _y = m.add_var("y", 0.0);
    assert_eq!(m.solve_lp().unwrap_err(), IlpError::Unbounded);
    m.mark_integer(x);
    assert_eq!(m.solve_ilp().unwrap_err(), IlpError::Unbounded);
}

#[test]
fn unbounded_despite_constraints_is_reported() {
    // One binding direction, one free ray: x1 ≤ 4 but x2 unconstrained.
    let mut m = Model::new();
    let x1 = m.add_var("x1", 1.0);
    let x2 = m.add_var("x2", 3.0);
    m.add_constraint([(x1, 1.0)], ConstraintOp::Le, 4.0);
    m.add_constraint([(x1, 1.0), (x2, -1.0)], ConstraintOp::Le, 10.0);
    assert_eq!(m.solve_lp().unwrap_err(), IlpError::Unbounded);
}

#[test]
fn tied_optima_agree_on_the_objective() {
    // Maximize x1 + x2 under x1 + x2 ≤ 5: every lattice point on the
    // face is optimal. Whatever vertex the pivoting lands on, the
    // objective must be exactly 5 and the report must be a true optimum.
    let mut m = Model::new();
    let x1 = m.add_var("x1", 1.0);
    let x2 = m.add_var("x2", 1.0);
    for x in [x1, x2] {
        m.set_upper(x, 5.0);
        m.mark_integer(x);
    }
    m.add_constraint([(x1, 1.0), (x2, 1.0)], ConstraintOp::Le, 5.0);
    let s = m.solve_ilp().unwrap();
    assert!((s.objective - 5.0).abs() < 1e-6);
    assert!((s.value(x1) + s.value(x2) - 5.0).abs() < 1e-6);
}

#[test]
fn duplicate_and_zero_constraints_are_harmless() {
    // Degenerate rows: the same constraint twice and an all-zero row
    // (0 ≤ 0) must not confuse the pivoting.
    let mut m = Model::new();
    let x = m.add_var("x", 2.0);
    m.set_upper(x, 9.0);
    m.mark_integer(x);
    m.add_constraint([(x, 1.0)], ConstraintOp::Le, 7.0);
    m.add_constraint([(x, 1.0)], ConstraintOp::Le, 7.0);
    m.add_constraint([(x, 0.0)], ConstraintOp::Le, 0.0);
    let s = m.solve_ilp().unwrap();
    assert!((s.objective - 14.0).abs() < 1e-6);
}

#[test]
fn zero_objective_reports_any_feasible_point() {
    let mut m = Model::new();
    let x = m.add_var("x", 0.0);
    m.set_upper(x, 3.0);
    m.mark_integer(x);
    m.add_constraint([(x, 1.0)], ConstraintOp::Le, 2.0);
    let s = m.solve_ilp().unwrap();
    assert!(s.objective.abs() < 1e-9);
    assert!(s.value(x) >= -1e-9 && s.value(x) <= 2.0 + 1e-9);
}

/// ILPs whose objectives are built from few distinct coefficients, so
/// tied optima and degenerate pivots are the common case rather than the
/// exception.
fn arb_tied_ilp() -> impl Strategy<Value = SmallIlp> {
    (2usize..4)
        .prop_flat_map(|n| {
            let coeff = prop_oneof![Just(0i32), Just(1), Just(2)];
            let objective = proptest::collection::vec(coeff, n..=n);
            let constraint = (
                proptest::collection::vec(prop_oneof![Just(0i32), Just(1)], n..=n),
                0i32..12,
            )
                .prop_map(|(c, r)| (c, r));
            let constraints = proptest::collection::vec(constraint, 1..4);
            let upper = proptest::collection::vec(1u8..5, n..=n);
            (objective, constraints, upper)
        })
        .prop_map(|(objective, constraints, upper)| SmallIlp {
            objective,
            constraints,
            upper,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn tied_ilps_match_brute_force(ilp in arb_tied_ilp()) {
        let expected = brute_force(&ilp).expect("x = 0 is always feasible here");
        let solution = to_model(&ilp).solve_ilp().expect("bounded and feasible");
        prop_assert!(
            (solution.objective - expected as f64).abs() < 1e-6,
            "solver found {} but brute force found {}",
            solution.objective,
            expected
        );
    }
}

// ---------------------------------------------------------------------------
// Dense-reference vs. sparse equivalence
// ---------------------------------------------------------------------------

/// A general model exercising everything the sparse solver handles
/// structurally differently from the dense reference: mixed `≤`/`=`/`≥`
/// operators, raised lower bounds, optional upper bounds, negative
/// right-hand sides.
#[derive(Debug, Clone)]
struct GeneralModel {
    objective: Vec<i32>,
    constraints: Vec<(Vec<i32>, u8, i32)>, // (coeffs, op tag, rhs)
    lower: Vec<u8>,
    upper: Vec<Option<u8>>, // None = unbounded above
    integral: bool,
}

fn arb_general(integral: bool) -> impl Strategy<Value = GeneralModel> {
    (2usize..4)
        .prop_flat_map(move |n| {
            let objective = proptest::collection::vec(-5i32..8, n..=n);
            let constraint = (
                proptest::collection::vec(-3i32..5, n..=n),
                0u8..3,
                -8i32..25,
            );
            let constraints = proptest::collection::vec(constraint, 1..4);
            let lower = proptest::collection::vec(0u8..3, n..=n);
            let upper = proptest::collection::vec(proptest::option::of(1u8..8), n..=n);
            (objective, constraints, lower, upper)
        })
        .prop_map(move |(objective, constraints, lower, upper)| GeneralModel {
            objective,
            constraints,
            lower,
            upper,
            integral,
        })
}

fn general_to_model(g: &GeneralModel) -> Model {
    general_to_model_with_vars(g).0
}

fn general_to_model_with_vars(g: &GeneralModel) -> (Model, Vec<pwcet_ilp::VarId>) {
    let mut m = Model::new();
    let vars: Vec<_> = g
        .objective
        .iter()
        .enumerate()
        .map(|(i, &c)| m.add_var(format!("x{i}"), f64::from(c)))
        .collect();
    for (i, v) in vars.iter().enumerate() {
        m.set_lower(*v, f64::from(g.lower[i]));
        if let Some(ub) = g.upper[i] {
            // Keep lb ≤ ub so instances differ in interesting ways, not
            // by trivial bound crossovers (covered by unit tests).
            m.set_upper(*v, f64::from(ub.max(g.lower[i])));
        }
        if g.integral {
            m.mark_integer(*v);
        }
    }
    for (coeffs, op, rhs) in &g.constraints {
        let op = match op {
            0 => ConstraintOp::Le,
            1 => ConstraintOp::Eq,
            _ => ConstraintOp::Ge,
        };
        m.add_constraint(
            coeffs
                .iter()
                .enumerate()
                .map(|(i, &c)| (vars[i], f64::from(c))),
            op,
            f64::from(*rhs),
        );
    }
    (m, vars)
}

/// Reduces a solve outcome to the feasibility class + objective the two
/// backends must agree on.
fn outcome_class(result: &Result<pwcet_ilp::Solution, IlpError>) -> Result<f64, IlpError> {
    result.as_ref().map(|s| s.objective).map_err(|e| *e)
}

/// Node/iteration limits are resource exhaustion, not an answer: how
/// many nodes a search needs is path-dependent, so the two backends may
/// legitimately give up at different points on adversarial random
/// instances (e.g. objective-blind unbounded directions that make
/// depth-first diving fruitless). Equivalence is asserted whenever both
/// sides produce a definite outcome.
fn resource_limited(outcome: &Result<f64, IlpError>) -> bool {
    matches!(outcome, Err(IlpError::NodeLimit | IlpError::IterationLimit))
}

/// The bounded node budget both backends run under in the random
/// equivalence suite (keeps adversarial dives cheap).
fn equivalence_options() -> BranchAndBoundOptions {
    BranchAndBoundOptions {
        max_nodes: 2_000,
        ..Default::default()
    }
}

fn assert_equivalent(sparse: Result<f64, IlpError>, dense: Result<f64, IlpError>) {
    if resource_limited(&sparse) || resource_limited(&dense) {
        return;
    }
    match (sparse, dense) {
        (Ok(a), Ok(b)) => assert!(
            (a - b).abs() < 1e-6,
            "objectives diverge: sparse {a} vs dense {b}"
        ),
        (a, b) => assert_eq!(a, b, "feasibility class diverges"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Random LPs: the sparse bounded-variable simplex and the dense
    /// reference agree on feasibility class and optimum.
    #[test]
    fn sparse_lp_matches_dense_reference(g in arb_general(false)) {
        let m = general_to_model(&g);
        assert_equivalent(
            outcome_class(&m.solve_lp()),
            outcome_class(&m.solve_lp_reference()),
        );
    }

    /// Random ILPs: clone-free warm-started branch and bound matches
    /// the clone-per-node dense reference.
    #[test]
    fn sparse_ilp_matches_dense_reference(g in arb_general(true)) {
        let m = general_to_model(&g);
        let options = equivalence_options();
        assert_equivalent(
            outcome_class(&m.solve_ilp_with(&options)),
            outcome_class(&pwcet_ilp::reference::solve_ilp_dense(&m, &options)),
        );
    }

    /// Parallel subtree exploration returns the same optimum as the
    /// sequential drain (and therefore as the dense reference).
    #[test]
    fn parallel_bb_matches_sequential(g in arb_general(true)) {
        let m = general_to_model(&g);
        let sequential = m.solve_ilp_with(&equivalence_options());
        let parallel = m.solve_ilp_with(&BranchAndBoundOptions {
            workers: 4,
            ..equivalence_options()
        });
        assert_equivalent(
            outcome_class(&parallel),
            outcome_class(&sequential),
        );
    }
}

/// One solve of a mixed warm sequence through a single workspace. Every
/// kind keeps the constraint matrix (and so the workspace fingerprint),
/// so each one takes the warm path.
#[derive(Debug, Clone)]
enum WarmStep {
    /// A new objective (the `IpetTemplate` fan-out shape).
    Objective(Vec<i32>),
    /// New variable bounds of the same matrix.
    Bounds {
        lower: Vec<u8>,
        upper: Vec<Option<u8>>,
    },
    /// `max_nodes: 0`, which fails with `NodeLimit` past a solved root.
    NodeLimit,
    /// Lower bound above the upper bound on one variable: `Infeasible`.
    CrossedBounds(usize),
}

fn arb_warm_step() -> impl Strategy<Value = WarmStep> {
    prop_oneof![
        proptest::collection::vec(-5i32..8, 3).prop_map(WarmStep::Objective),
        (
            proptest::collection::vec(0u8..3, 3),
            proptest::collection::vec(proptest::option::of(1u8..8), 3),
        )
            .prop_map(|(lower, upper)| WarmStep::Bounds { lower, upper }),
        Just(WarmStep::NodeLimit),
        (0usize..3).prop_map(WarmStep::CrossedBounds),
    ]
}

/// Applies `step` to `g` (which accumulates objective and bound changes
/// across the sequence). Returns the warm model, which keeps
/// `base_objective` so that the accumulated objective must come from the
/// override; the cold oracle, with that objective built in; and the
/// options.
fn warm_step_models(
    g: &mut GeneralModel,
    base_objective: &[i32],
    step: &WarmStep,
) -> (Model, Model, BranchAndBoundOptions) {
    let n = g.objective.len();
    let mut options = equivalence_options();
    match step {
        WarmStep::Objective(objective) => g.objective = objective[..n].to_vec(),
        WarmStep::Bounds { lower, upper } => {
            g.lower = lower[..n].to_vec();
            g.upper = upper[..n].to_vec();
        }
        WarmStep::NodeLimit => options.max_nodes = 0,
        WarmStep::CrossedBounds(_) => {}
    }
    let build = |g: &GeneralModel| {
        let (mut m, vars) = general_to_model_with_vars(g);
        if let WarmStep::CrossedBounds(i) = step {
            m.set_upper(vars[i % n], 1.0);
            m.set_lower(vars[i % n], 2.0);
        }
        m
    };
    let warm = build(&GeneralModel {
        objective: base_objective.to_vec(),
        ..g.clone()
    });
    (warm, build(g), options)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Warm path: one workspace through a mix of objective variants (the
    /// `IpetTemplate` shape: the model keeps its first objective and the
    /// variant comes only as an override), bound variants of the same
    /// matrix and failing solves. Every outcome,
    /// including those right after a failure, matches a cold solve of
    /// the same model. Failures are compared exactly; they are
    /// deterministic (`NodeLimit` at `max_nodes: 0` needs only a solved
    /// root, crossed bounds are caught before any simplex work).
    #[test]
    fn mixed_warm_sequence_matches_cold_solves(
        g in arb_general(true),
        steps in proptest::collection::vec(arb_warm_step(), 1..8),
        lp in any::<bool>(),
    ) {
        let mut g = g;
        let base_objective = g.objective.clone();
        let mut ws = LpWorkspace::new();
        for step in &steps {
            let (m, oracle, options) = warm_step_models(&mut g, &base_objective, step);
            let objective: Vec<f64> = g.objective.iter().map(|&c| f64::from(c)).collect();
            let (warm, cold) = if lp {
                (
                    m.solve_lp_in(Some(&objective), &mut ws).map(|(s, _)| s),
                    oracle.solve_lp(),
                )
            } else {
                (
                    m.solve_ilp_in(Some(&objective), &mut ws, &options)
                        .map(|(s, _)| s),
                    oracle.solve_ilp_with(&options),
                )
            };
            let (warm, cold) = (outcome_class(&warm), outcome_class(&cold));
            match step {
                WarmStep::CrossedBounds(_) => {
                    prop_assert_eq!(warm, Err(IlpError::Infeasible));
                    prop_assert_eq!(cold, Err(IlpError::Infeasible));
                }
                WarmStep::NodeLimit if !lp => prop_assert_eq!(warm, cold),
                _ => assert_equivalent(warm, cold),
            }
        }
    }
}

/// The first solve of a hydrated workspace equals a cold solve, and is
/// warm.
#[test]
fn first_solve_of_a_hydrated_workspace_matches_a_cold_solve() {
    let mut m = Model::new();
    let x = m.add_var("x", 0.0);
    let y = m.add_var("y", 0.0);
    let z = m.add_var("z", 0.0);
    m.set_upper(z, 4.0);
    m.set_lower(y, 1.0);
    m.add_constraint([(x, 1.0), (y, 2.0), (z, 1.0)], ConstraintOp::Le, 14.0);
    m.add_constraint([(x, 3.0), (y, 1.0)], ConstraintOp::Le, 15.0);
    m.add_constraint([(x, 1.0), (z, -1.0)], ConstraintOp::Ge, -2.0);
    m.add_constraint([(y, 1.0), (z, 1.0)], ConstraintOp::Eq, 5.0);
    for v in [x, y, z] {
        m.mark_integer(v);
    }
    let options = BranchAndBoundOptions::default();
    let mut donor = LpWorkspace::new();
    m.solve_ilp_in(Some(&[1.0, 1.0, 1.0]), &mut donor, &options)
        .expect("feasible");
    let snapshot = donor.snapshot().expect("a solved workspace is warm");
    for objective in [[1.0, 1.0, 1.0], [2.0, -1.0, 3.0], [0.0, 1.0, 0.0]] {
        let mut hydrated = LpWorkspace::new();
        assert!(hydrated.hydrate(&m, &snapshot), "snapshot hydrates");
        let (warm, stats) = m
            .solve_ilp_in(Some(&objective), &mut hydrated, &options)
            .expect("feasible");
        let mut variant = m.clone();
        variant.set_objective_vector(&objective);
        let cold = variant.solve_ilp_with(&options).expect("feasible");
        assert_eq!(warm.objective, cold.objective, "objective {objective:?}");
        assert_eq!(stats.cold_starts, 0, "a hydrated basis is warm");
        assert!(stats.warm_starts >= 1, "the root solve is warm");
        let mut hydrated = LpWorkspace::new();
        assert!(hydrated.hydrate(&m, &snapshot));
        let (lp_warm, _) = m
            .solve_lp_in(Some(&objective), &mut hydrated)
            .expect("feasible");
        let lp_cold = variant.solve_lp().expect("feasible");
        assert_eq!(
            lp_warm.objective, lp_cold.objective,
            "LP objective {objective:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn branch_and_bound_matches_brute_force(ilp in arb_ilp()) {
        let expected = brute_force(&ilp).expect("x = 0 is always feasible here");
        let model = to_model(&ilp);
        let solution = model.solve_ilp().expect("bounded and feasible");
        prop_assert!(
            (solution.objective - expected as f64).abs() < 1e-6,
            "solver found {} but brute force found {}",
            solution.objective,
            expected
        );
    }

    #[test]
    fn lp_relaxation_dominates_ilp(ilp in arb_ilp()) {
        let model = to_model(&ilp);
        let lp = model.solve_lp().expect("feasible");
        let ilp_solution = model.solve_ilp().expect("feasible");
        prop_assert!(lp.objective >= ilp_solution.objective - 1e-6);
    }

    #[test]
    fn solutions_satisfy_constraints(ilp in arb_ilp()) {
        let model = to_model(&ilp);
        let s = model.solve_ilp().expect("feasible");
        for (coeffs, rhs) in &ilp.constraints {
            let lhs: f64 = coeffs
                .iter()
                .zip(&s.values)
                .map(|(&c, &x)| f64::from(c) * x)
                .sum();
            prop_assert!(lhs <= f64::from(*rhs) + 1e-6);
        }
        for (i, &ub) in ilp.upper.iter().enumerate() {
            prop_assert!(s.values[i] <= f64::from(ub) + 1e-6);
            prop_assert!(s.values[i] >= -1e-9);
            prop_assert!((s.values[i] - s.values[i].round()).abs() < 1e-6);
        }
    }
}
