//! The benchmark of record for the fault-aware pWCET workspace.
//!
//! Three workloads drive the system from outside, through its public
//! APIs only — `PwcetAnalyzer`/`AnalysisContext`/`ProgramAnalysis`/
//! `ReusePlane` in-process, and `pwcet_serve::{Server, Client}` over
//! loopback TCP:
//!
//! * `suite_cold` — the paper's Figure 4 computation, cold, in-process;
//! * `serve_warm` — repeated queries against a warmed server;
//! * `serve_churn` — fresh nodes whose first touches come from the disk
//!   tier, a fleet peer, or a cold build.
//!
//! An untraced run (`trace = false`) reports the end-to-end metrics; a
//! separate traced run reports the per-layer split, timed around the
//! calls into each layer. Every answer is checked against the oracle
//! rows of [`oracle`]. See `README.md` beside this crate for the metric
//! definitions and the layer → end-to-end map.

pub mod oracle;
pub mod util;

mod serve;
mod serve_churn;
mod serve_warm;
mod suite_cold;

use std::collections::BTreeMap;
use std::fmt::Write as _;

use oracle::Checker;

/// The workloads, in the order the doc page lists them.
pub const WORKLOADS: [&str; 3] = ["suite_cold", "serve_warm", "serve_churn"];

/// End-to-end metrics of an untraced run: `(name, unit)`. An op's cost
/// is the process CPU time spent while it ran, in units of the CPU time
/// of a fixed reference computation measured beside it
/// ([`util::Yardstick`]), so neither the host's CPU steal nor its load on
/// shared cores moves it. The raw CPU time, the wall-clock figures and
/// the memory high-water mark, which all follow the host's load or the
/// allocator's timing too much to gate on, are printed on `#` lines.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_cost_mean", "ref"),
    ("op_cost_mid_mean", "ref"),
    ("op_cost_top1_mean", "ref"),
];

/// Per-layer metrics of a traced run: `(name, unit)`. Times are means
/// per op unless the doc page says per call; counts are per cycle of the
/// workload's fixed unit of work.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("progen.compile_us", "us"),
    ("core.key_us", "us"),
    ("cfg.expand_us", "us"),
    ("analysis.classify_us", "us"),
    ("analysis.passes", "count"),
    ("analysis.words_touched", "count"),
    ("ilp.solve_us", "us"),
    ("ilp.pivots", "count"),
    ("ilp.bb_nodes", "count"),
    ("ilp.warm_starts", "count"),
    ("ilp.cold_starts", "count"),
    ("prob.convolve_us", "us"),
    ("core.decode_stage_us", "us"),
    ("core.disk_load_us", "us"),
    ("core.encode_us", "us"),
    ("core.entry_bytes", "bytes"),
    ("core.tier.memory", "count"),
    ("core.tier.disk", "count"),
    ("core.tier.network", "count"),
    ("core.tier.cold", "count"),
    ("core.reuse_rate", "ratio"),
    ("serve.rtt_us", "us"),
    ("serve.server_us", "us"),
    ("serve.conn_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.service_us_p50", "us"),
    ("serve.service_us_p99", "us"),
    ("peer.fetch_us", "us"),
    ("peer.fetch_stage_us", "us"),
    ("peer.network_hits", "count"),
    ("peer.offers", "count"),
    ("op.latency_us", "us"),
    ("unattributed_us", "us"),
    ("attributed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("ops.cycle", "count"),
    ("counts.drifting", "count"),
];

/// How one run is configured. [`Options::new`] gives the settings of
/// record; the other fields exist for the self-tests.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    /// Timed seconds of the run (whole cycles are completed past it).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// How many times set-up runs; `setup_s` is the median.
    pub setup_reps: usize,
    /// Ops an untraced `suite_cold` run answers at least, past `seconds`
    /// if need be, so each kind of op has 40 samples for its median.
    pub min_ops: usize,
    /// Closed-loop client connections of the serve workloads. With one,
    /// the process CPU time spent during a request is that request's.
    pub connections: usize,
    /// Shard queue capacity of the serve workloads' nodes.
    pub queue_capacity: usize,
    /// Shards of the serve workloads' nodes.
    pub shards: usize,
    /// Corrupt one reference row before the timed loop.
    pub tamper_reference: bool,
}

impl Options {
    /// The settings of record for `workload`.
    pub fn new(workload: &str, seed: u64, seconds: f64, trace: bool) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            setup_reps: 7,
            min_ops: 1000,
            connections: 1,
            queue_capacity: pwcet_serve::ServerConfig::default().queue_capacity,
            shards: 2,
            tamper_reference: false,
        }
    }
}

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops started in the measured phases.
    pub attempted: u64,
    /// Ops answered with a row.
    pub succeeded: u64,
    /// Ops that errored (refusals excluded).
    pub failed: u64,
    /// Ops the service refused (overload).
    pub refused: u64,
    /// Rows that differ from the oracle.
    pub checker: Checker,
    /// The reported metrics, in contract order: [`END_TO_END`] for an
    /// untraced run, [`PER_LAYER`] for a traced one.
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Counts that must repeat exactly across cycles and runs of a seed.
    pub counts: BTreeMap<String, u64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Failed plus refused ops over attempted ones.
    pub fn failed_frac(&self) -> f64 {
        (self.failed + self.refused) as f64 / self.attempted.max(1) as f64
    }

    /// Rows that differed from the oracle.
    pub fn wrong_answers(&self) -> u64 {
        self.checker.count()
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, _, v)| v)
    }

    /// The result object: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, on one line.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.wrong_answers() == 0,
            self.attempted.max(1),
            self.failed + self.refused
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Orders `values` into the contract list `spec`, failing on a missing
/// or non-finite value.
fn collect(
    spec: &[(&'static str, &'static str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    spec.iter()
        .map(|&(name, unit)| match values.get(name) {
            Some(v) if v.is_finite() => Ok((name, unit, *v)),
            Some(v) => Err(format!("metric {name} is not finite ({v})")),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload, a set-up failure, or a broken invariant of the
/// measurement itself (counts that do not repeat, too little attributed
/// time). Wrong answers are not errors: they are counted in the report.
pub fn run(options: &Options) -> Result<Report, String> {
    let mut report = match options.workload.as_str() {
        "suite_cold" => suite_cold::run(options)?,
        "serve_warm" => serve_warm::run(options)?,
        "serve_churn" => serve_churn::run(options)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (expected one of {WORKLOADS:?})"
            ))
        }
    };
    if report.attempted == 0 {
        return Err("the run attempted no ops".to_string());
    }
    report.notes.insert(
        0,
        format!(
            "# workload={} seed={} trace={} seconds={} nproc={} profile={} rev={}",
            options.workload,
            options.seed,
            u8::from(options.trace),
            options.seconds,
            util::nproc(),
            util::build_profile(),
            util::git_revision()
        ),
    );
    report.notes.insert(
        1,
        format!(
            "# ops attempted={} succeeded={} failed={} refused={} failed_frac={} wrong_answers={}",
            report.attempted,
            report.succeeded,
            report.failed,
            report.refused,
            report.failed_frac(),
            report.wrong_answers()
        ),
    );
    Ok(report)
}

/// How often the timed loops measure the yardstick (wall time).
pub(crate) const YARDSTICK_EVERY: std::time::Duration = std::time::Duration::from_millis(250);

/// Metric values measured by a workload, before ordering.
pub(crate) type Values = BTreeMap<&'static str, f64>;

/// Per-op times of a timed loop, in op order, with each op's kind: the
/// workload's ops come in cycles holding every kind once.
#[derive(Debug, Default)]
pub(crate) struct OpTimes {
    /// Kind of each answered op, in `0..kinds`.
    pub kind: Vec<usize>,
    /// Wall-clock latency of each answered op, in µs.
    pub wall_us: Vec<f64>,
    /// Process CPU time spent during each answered op, in µs.
    pub cpu_us: Vec<f64>,
}

impl OpTimes {
    pub fn push(&mut self, kind: usize, wall_us: f64, cpu_us: f64) {
        self.kind.push(kind);
        self.wall_us.push(wall_us);
        self.cpu_us.push(cpu_us);
    }

    pub fn extend(&mut self, other: OpTimes) {
        self.kind.extend(other.kind);
        self.wall_us.extend(other.wall_us);
        self.cpu_us.extend(other.cpu_us);
    }

    pub fn len(&self) -> usize {
        self.cpu_us.len()
    }

    /// The median cycle: each of the `kinds` kinds' median CPU time in
    /// µs, over all its ops of the run.
    fn median_cycle(&self, kinds: usize) -> Result<Vec<f64>, String> {
        let mut by_kind = vec![Vec::new(); kinds];
        for (&kind, &us) in self.kind.iter().zip(&self.cpu_us) {
            by_kind
                .get_mut(kind)
                .ok_or_else(|| format!("op kind {kind} out of 0..{kinds}"))?
                .push(us);
        }
        by_kind
            .iter()
            .enumerate()
            .map(|(kind, samples)| match samples.is_empty() {
                true => Err(format!("no answered op of kind {kind}")),
                false => Ok(util::median(samples)),
            })
            .collect()
    }
}

/// The end-to-end metrics of an untraced run whose cycles hold each of
/// `kinds` kinds of op once, in units of `yardstick`. They are read off
/// the median cycle — every kind at its median cost over the run — so a
/// burst of load on the host, which raises a few ops of each kind, moves
/// none of them:
///
/// * `op_cost_mean` — the mean op;
/// * `op_cost_mid_mean` — the mean of the middle half of the ops (the
///   interquartile mean), the typical op;
/// * `op_cost_top1_mean` — the mean of the costliest 1% of the ops, the
///   tail (with 25 kinds, the costliest kind).
///
/// The kinds' costs lie far apart, so a single order statistic (p50, p99)
/// would jump from one kind to the next with noise; the band means move
/// smoothly. The raw CPU times, the pooled p50 and p99, and the
/// wall-clock figures (`wall_s` of timed loop, with the host's CPU steal
/// over it) go to `#` lines in `notes`.
pub(crate) fn end_to_end(
    setup_s: f64,
    times: &OpTimes,
    kinds: usize,
    wall_s: f64,
    steal: &util::Steal,
    yardstick: util::Yardstick,
    notes: &mut Vec<String>,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let (reference_us, references) = yardstick.finish();
    let cycle = times.median_cycle(kinds)?;
    let mean_us = util::mean(&cycle);
    let mid_us = util::band_mean(&cycle, 0.25, 0.75);
    let top_us = util::band_mean(&cycle, 0.99, 1.0);
    notes.push(format!(
        "# cpu time of the median cycle ({kinds} kinds, {} ops): mean {mean_us:.1} us, \
         mid mean {mid_us:.1} us, top-1% mean {top_us:.1} us; pooled p50 {:.1} us, \
         p99 {:.1} us; reference {reference_us:.1} us (median of {references})",
        times.len(),
        util::quantile(&times.cpu_us, 0.5),
        util::quantile(&times.cpu_us, 0.99),
    ));
    notes.push(format!(
        "# not gated: ops_per_s={:.1} latency_p50_us={:.1} latency_p99_us={:.1} \
         (wall clock over {:.1} s, host cpu steal {:.1}%) peak_rss_mb={:.1}",
        times.len() as f64 / wall_s.max(f64::MIN_POSITIVE),
        util::quantile(&times.wall_us, 0.5),
        util::quantile(&times.wall_us, 0.99),
        wall_s,
        100.0 * steal.fraction(),
        util::peak_rss_mib(),
    ));
    let values = Values::from([
        ("setup_s", setup_s),
        ("op_cost_mean", mean_us / reference_us),
        ("op_cost_mid_mean", mid_us / reference_us),
        ("op_cost_top1_mean", top_us / reference_us),
    ]);
    collect(&END_TO_END, &values)
}

/// The per-layer metrics of a traced run: every [`PER_LAYER`] name not
/// in `values` is a layer the workload bypasses and reads 0.
pub(crate) fn per_layer(
    mut values: Values,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    for (name, _) in PER_LAYER {
        values.entry(name).or_insert(0.0);
    }
    collect(&PER_LAYER, &values)
}

/// Runs `build` `options.setup_reps` times, dropping each result before
/// the next build starts. Returns the last result and the median process
/// CPU time of a build in seconds (`setup_s`).
pub(crate) fn set_up_repeatedly<T>(
    options: &Options,
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut cpu = Vec::new();
    let mut wall = Vec::new();
    let mut last = None;
    for _ in 0..options.setup_reps.max(1) {
        drop(last.take());
        let cpu_start = util::process_cpu_s();
        let (built, us) = util::timed(&mut build);
        cpu.push(util::process_cpu_s() - cpu_start);
        wall.push(us / 1e6);
        last = Some(built?);
    }
    let last = last.expect("at least one set-up ran");
    eprintln!("# set-up cpu (s): {cpu:?}");
    eprintln!("# set-up wall (s): {wall:?}");
    Ok((last, util::median(&cpu)))
}

/// Fills `op.latency_us`, `unattributed_us` and `attributed_frac` from
/// the attributed layer means `parts` (each a key of `values`), and
/// prints the attribution table.
pub(crate) fn attribute(
    values: &mut Values,
    op_us: f64,
    parts: &[&'static str],
    notes: &mut Vec<String>,
) {
    let attributed: f64 = parts
        .iter()
        .map(|p| values.get(p).copied().unwrap_or(0.0))
        .sum();
    let unattributed = op_us - attributed;
    values.insert("op.latency_us", op_us);
    values.insert("unattributed_us", unattributed);
    values.insert("attributed_frac", attributed / op_us.max(f64::MIN_POSITIVE));
    let share = |us: f64| 100.0 * us / op_us.max(f64::MIN_POSITIVE);
    notes.push(format!(
        "# {:<26} {:>12} {:>7}",
        "layer (mean per op)", "us", "share"
    ));
    for part in parts {
        let us = values.get(part).copied().unwrap_or(0.0);
        notes.push(format!("# {part:<26} {us:>12.1} {:>6.1}%", share(us)));
    }
    notes.push(format!(
        "# {:<26} {unattributed:>12.1} {:>6.1}%",
        "unattributed_us",
        share(unattributed)
    ));
    notes.push(format!(
        "# {:<26} {op_us:>12.1} {:>6.1}%",
        "op.latency_us", 100.0
    ));
}

/// Settles the exact counts of a traced run's cycles: every key must
/// read the same in every cycle, except the `tolerated` ones, which are
/// reported as drifting instead of failing the run. The per-cycle
/// medians land in `report.counts` and, for per-layer names, in
/// `values`, with the number of drifting keys as `counts.drifting`.
pub(crate) fn settle_counts(
    workload: &str,
    seed: u64,
    cycles: &[BTreeMap<String, u64>],
    tolerated: &[&str],
    report: &mut Report,
    values: &mut Values,
) -> Result<(), String> {
    let keys: std::collections::BTreeSet<&String> = cycles.iter().flat_map(|c| c.keys()).collect();
    let mut drifting = 0u64;
    for key in keys {
        let mut per_cycle: Vec<u64> = cycles
            .iter()
            .map(|c| c.get(key).copied().unwrap_or(0))
            .collect();
        if per_cycle.iter().any(|&v| v != per_cycle[0]) {
            if !tolerated.contains(&key.as_str()) {
                return Err(format!(
                    "{workload} count {key} differs between cycles of seed {seed}: {per_cycle:?}"
                ));
            }
            drifting += 1;
            report
                .notes
                .push(format!("# COUNT DRIFT {key} per cycle: {per_cycle:?}"));
        }
        per_cycle.sort_unstable();
        let median = per_cycle[(per_cycle.len() - 1) / 2];
        report.counts.insert(key.clone(), median);
        if let Some(&(name, _)) = PER_LAYER.iter().find(|(n, _)| n == key) {
            values.insert(name, median as f64);
        }
    }
    values.insert("counts.drifting", drifting as f64);
    Ok(())
}
