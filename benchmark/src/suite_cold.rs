//! `suite_cold`: the Figure 4 population, analyzed cold in-process by one
//! closed-loop caller.
//!
//! An op is `PwcetAnalyzer::analyze` with no reuse plane followed by the
//! three protection-level pWCETs, cycling a seeded permutation of the 25
//! programs. The traced run splits each op into the public calls it is
//! made of: compile → `AnalysisContext::build` → `prewarm` →
//! `analyze_with_context` → `estimate`×3.

use std::collections::BTreeMap;
use std::time::Instant;

use pwcet_core::{AnalysisConfig, AnalysisContext, PwcetAnalyzer};
use pwcet_progen::Program;

use crate::oracle::{Checker, Oracle, Row};
use crate::util::{mean, process_cpu_s, timed, SplitMix, Steal, Yardstick};
use crate::{
    attribute, end_to_end, per_layer, set_up_repeatedly, settle_counts, OpTimes, Options, Report,
    Values, YARDSTICK_EVERY,
};

/// Solver work counters. With a parallel fan-out the warm-start basis a
/// solve inherits depends on which worker ran the previous solve, so
/// these may differ between cycles; they are reported as drifting rather
/// than failing the run. Every other count must repeat exactly.
const ILP_WORK: [&str; 4] = [
    "ilp.pivots",
    "ilp.bb_nodes",
    "ilp.warm_starts",
    "ilp.cold_starts",
];

/// Share of op latency the traced split must attribute to a layer.
const MIN_ATTRIBUTED: f64 = 0.9;

struct Setup {
    names: Vec<&'static str>,
    programs: Vec<Program>,
    oracle: Oracle,
    order: Vec<usize>,
}

fn set_up(options: &Options) -> Result<Setup, String> {
    let suite = pwcet_benchsuite::all();
    let names: Vec<&'static str> = suite.iter().map(|b| b.name).collect();
    let programs: Vec<Program> = suite.into_iter().map(|b| b.program).collect();
    let pfail = AnalysisConfig::paper_default().fault_model.pfail();
    let mut oracle = Oracle::build(&programs, &[pfail])?;
    if options.tamper_reference {
        oracle.tamper();
    }
    let order = SplitMix::new(options.seed, 1).permutation(programs.len());
    Ok(Setup {
        names,
        programs,
        oracle,
        order,
    })
}

/// Ops of the untraced path: whole cycles until `seconds` have passed
/// and at least `min_ops` ops were answered. Returns the per-op times and
/// the wall seconds of the loop. Measures `yardstick` between ops.
fn untraced(
    setup: &Setup,
    seconds: f64,
    min_ops: usize,
    yardstick: &mut Yardstick,
    report: &mut Report,
    checker: &mut Checker,
) -> (OpTimes, f64) {
    let analyzer = PwcetAnalyzer::new(AnalysisConfig::paper_default());
    let mut times = OpTimes::default();
    let start = Instant::now();
    loop {
        for &p in &setup.order {
            report.attempted += 1;
            let cpu_start = process_cpu_s();
            let (result, us) = timed(|| {
                analyzer
                    .analyze(&setup.programs[p])
                    .map(|a| Row::of_analysis(&a))
            });
            let cpu_us = (process_cpu_s() - cpu_start) * 1e6;
            match result {
                Ok(row) => {
                    report.succeeded += 1;
                    times.push(p, us, cpu_us);
                    checker.check(&setup.oracle, &setup.names, p, 0, row);
                }
                Err(e) => {
                    report.failed += 1;
                    note_failure(report, setup.names[p], &e);
                }
            }
            yardstick.tick();
        }
        if start.elapsed().as_secs_f64() >= seconds && times.len() >= min_ops {
            return (times, start.elapsed().as_secs_f64());
        }
    }
}

fn note_failure(report: &mut Report, name: &str, error: &dyn std::fmt::Display) {
    if report.notes.len() < 8 {
        report.notes.push(format!("# op on {name} failed: {error}"));
    }
}

/// Per-op layer times of the traced path, summed over a phase.
#[derive(Default)]
struct Split {
    compile: Vec<f64>,
    expand: Vec<f64>,
    classify: Vec<f64>,
    solve: Vec<f64>,
    convolve: Vec<f64>,
    total: Vec<f64>,
}

/// One traced cycle: every program once, split call by call. Returns
/// the cycle's exact counts.
fn traced_cycle(
    setup: &Setup,
    split: &mut Split,
    report: &mut Report,
    checker: &mut Checker,
) -> Result<BTreeMap<String, u64>, String> {
    let config = AnalysisConfig::paper_default();
    let analyzer = PwcetAnalyzer::new(config);
    let mut counts = BTreeMap::<String, u64>::new();
    for &p in &setup.order {
        report.attempted += 1;
        let name = setup.names[p];
        let fail = |e: &dyn std::fmt::Display| format!("traced op on {name}: {e}");
        let op_start = Instant::now();
        let (compiled, compile_us) = timed(|| setup.programs[p].compile(config.code_base));
        let compiled = compiled.map_err(|e| fail(&e))?;
        let (context, expand_us) = timed(|| {
            AnalysisContext::build_with_mode(&compiled, config.geometry, config.classification)
        });
        let context = context.map_err(|e| fail(&e))?;
        let ((), classify_us) = timed(|| context.prewarm(config.parallelism));
        let (analysis, solve_us) = timed(|| analyzer.analyze_with_context(&context));
        let analysis = analysis.map_err(|e| fail(&e))?;
        let (row, convolve_us) = timed(|| Row::of_analysis(&analysis));
        let total_us = crate::util::micros_since(op_start);
        report.succeeded += 1;
        checker.check(&setup.oracle, &setup.names, p, 0, row);

        split.compile.push(compile_us);
        split.expand.push(expand_us);
        split.classify.push(classify_us);
        split.solve.push(solve_us);
        split.convolve.push(convolve_us);
        split.total.push(total_us);

        let kernel = context.kernel_stats();
        let ilp = context.ilp_stats();
        for (key, value) in [
            ("analysis.passes", kernel.passes),
            ("analysis.words_touched", kernel.words_touched),
            ("ilp.pivots", ilp.pivots),
            ("ilp.bb_nodes", ilp.bb_nodes),
            ("ilp.warm_starts", ilp.warm_starts),
            ("ilp.cold_starts", ilp.cold_starts),
            ("core.tier.cold", 1),
            ("ops.cycle", 1),
        ] {
            *counts.entry(key.to_string()).or_default() += value;
        }
    }
    Ok(counts)
}

pub(crate) fn run(options: &Options) -> Result<Report, String> {
    let (setup, setup_s) = set_up_repeatedly(options, || set_up(options))?;

    let mut report = Report::default();
    let mut checker = Checker::default();
    if !options.trace {
        let mut steal = Steal::start();
        let mut yardstick = Yardstick::new(YARDSTICK_EVERY);
        let (times, wall_s) = untraced(
            &setup,
            options.seconds,
            options.min_ops,
            &mut yardstick,
            &mut report,
            &mut checker,
        );
        steal.stop();
        report.metrics = end_to_end(
            setup_s,
            &times,
            setup.programs.len(),
            wall_s,
            &steal,
            yardstick,
            &mut report.notes,
        )?;
        report.checker = checker;
        return Ok(report);
    }

    // Traced run: half the time on the untraced path (the overhead
    // baseline), half split call by call, in at least two whole cycles
    // whose counts must agree.
    let (baseline, baseline_wall_s) = untraced(
        &setup,
        options.seconds / 2.0,
        0,
        &mut Yardstick::new(YARDSTICK_EVERY),
        &mut report,
        &mut checker,
    );
    let baseline_ops_per_s = baseline.len() as f64 / baseline_wall_s;
    let mut split = Split::default();
    let mut cycles = Vec::new();
    let traced_start = Instant::now();
    while cycles.len() < 2 || traced_start.elapsed().as_secs_f64() < options.seconds / 2.0 {
        cycles.push(traced_cycle(&setup, &mut split, &mut report, &mut checker)?);
    }
    let traced_ops_per_s = split.total.len() as f64 / traced_start.elapsed().as_secs_f64();

    let mut values = Values::from([
        ("progen.compile_us", mean(&split.compile)),
        ("cfg.expand_us", mean(&split.expand)),
        ("analysis.classify_us", mean(&split.classify)),
        ("ilp.solve_us", mean(&split.solve)),
        ("prob.convolve_us", mean(&split.convolve)),
        (
            "trace_overhead_frac",
            1.0 - traced_ops_per_s / baseline_ops_per_s,
        ),
    ]);
    settle_counts(
        "suite_cold",
        options.seed,
        &cycles,
        &ILP_WORK,
        &mut report,
        &mut values,
    )?;
    attribute(
        &mut values,
        mean(&split.total),
        &[
            "progen.compile_us",
            "cfg.expand_us",
            "analysis.classify_us",
            "ilp.solve_us",
            "prob.convolve_us",
        ],
        &mut report.notes,
    );
    let attributed = values["attributed_frac"];
    if attributed < MIN_ATTRIBUTED {
        return Err(format!(
            "suite_cold attributes only {:.1}% of op latency (needs {:.0}%)",
            100.0 * attributed,
            100.0 * MIN_ATTRIBUTED
        ));
    }
    report.metrics = per_layer(values)?;
    report.checker = checker;
    Ok(report)
}
