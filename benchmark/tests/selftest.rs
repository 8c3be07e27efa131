//! Self-tests of the benchmark: short runs of every workload emit every
//! named metric with its unit, a tampered reference row fails the run,
//! a refused request counts as a failure, and the exact counts repeat
//! across runs of one seed.

use pwcet_benchmark::{run, Options, Report, END_TO_END, PER_LAYER, WORKLOADS};

fn short(workload: &str, trace: bool) -> Options {
    let mut options = Options::new(workload, 7, 0.3, trace);
    options.setup_reps = 1;
    options.min_ops = 0;
    options
}

fn run_ok(options: &Options) -> Report {
    run(options).unwrap_or_else(|e| panic!("{} failed: {e}", options.workload))
}

fn assert_emits(report: &Report, spec: &[(&str, &str)]) {
    let emitted: Vec<(&str, &str)> = report.metrics.iter().map(|&(n, u, _)| (n, u)).collect();
    assert_eq!(emitted, spec, "metrics and units in contract order");
    let json = report.json();
    for (name, unit) in spec {
        assert!(
            json.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing from {json}"
        );
        assert!(
            json.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} missing"
        );
    }
    assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    for workload in WORKLOADS {
        let report = run_ok(&short(workload, false));
        assert_emits(&report, &END_TO_END);
        assert_eq!(report.wrong_answers(), 0, "{workload}");
        assert_eq!(report.failed_frac(), 0.0, "{workload}");
        for (name, _, value) in &report.metrics {
            assert!(*value > 0.0, "{workload}: {name} reads {value}");
        }
    }
}

#[test]
fn every_workload_emits_every_per_layer_metric() {
    for workload in WORKLOADS {
        let report = run_ok(&short(workload, true));
        assert_emits(&report, &PER_LAYER);
        assert_eq!(report.wrong_answers(), 0, "{workload}");
        assert!(report.metric("op.latency_us").unwrap() > 0.0);
        assert!(report.metric("ops.cycle").unwrap() > 0.0);
    }
}

#[test]
fn suite_cold_attributes_nine_tenths_of_op_latency() {
    let report = run_ok(&short("suite_cold", true));
    assert!(report.metric("attributed_frac").unwrap() >= 0.9);
}

#[test]
fn a_tampered_reference_row_fails_the_run() {
    for workload in WORKLOADS {
        let mut options = short(workload, false);
        options.tamper_reference = true;
        let report = run_ok(&options);
        assert!(
            report.wrong_answers() > 0,
            "{workload} missed the tampered row"
        );
        assert!(report.json().starts_with("{\"correct\": false"));
    }
}

#[test]
fn a_refused_request_counts_as_failed() {
    // One shard with a one-job queue and more callers than it can hold:
    // some submissions find the queue full and are refused, not retried.
    let mut options = short("serve_warm", false);
    options.shards = 1;
    options.queue_capacity = 1;
    options.connections = 4;
    options.seconds = 1.0;
    let report = run_ok(&options);
    assert!(report.refused > 0, "no request was refused");
    assert!(report.failed_frac() > 0.0);
    assert_eq!(report.wrong_answers(), 0);
    assert!(report
        .json()
        .contains(&format!("\"failed\": {}", report.refused + report.failed)));
}

#[test]
fn exact_counts_repeat_across_runs_of_a_seed() {
    for workload in WORKLOADS {
        let counts = |report: Report| -> Vec<(String, u64)> {
            report
                .counts
                .into_iter()
                // suite_cold's solver work counters depend on how its
                // parallel fan-out is scheduled; they are reported as
                // drifting, not held to repeat.
                .filter(|(key, _)| workload != "suite_cold" || !key.starts_with("ilp."))
                .collect()
        };
        let first = counts(run_ok(&short(workload, true)));
        let second = counts(run_ok(&short(workload, true)));
        assert!(
            first.iter().any(|(key, _)| key == "analysis.passes"),
            "{workload}: {first:?}"
        );
        assert_eq!(first, second, "{workload}");
    }
}

#[test]
fn benchmark_json_lists_the_same_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for workload in WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{workload}\"")),
            "{workload}"
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    assert_eq!(
        text.matches("\"name\": ").count(),
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json names exactly the workloads and metrics the benchmark emits"
    );
}
