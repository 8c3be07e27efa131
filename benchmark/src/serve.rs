//! The client side shared by the serve workloads: prebuilt request
//! streams, closed-loop connections, and folding the responses into rows,
//! tiers and per-layer times.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

use pwcet_core::ContextCache;
use pwcet_obs::Stage;
use pwcet_progen::{CompiledProgram, Program};
use pwcet_serve::{Client, ErrorCode, Request, Response, ServedFrom, StageTiming};

use crate::oracle::{Checker, Oracle, Row, TARGET_P};
use crate::util::{mean, micros_since, process_cpu_s, quantile, timed, Yardstick};
use crate::{OpTimes, Report, Values};

/// The layers a served op's round trip is attributed to: the wire
/// (`serve.conn_us`), the connection thread's compile and key hashing
/// (replayed in-process), the shard queue, and the pipeline stages the
/// response reports. What is left — the worker's own time around the
/// stages, the submit and the reply hand-off — is unattributed.
pub(crate) const ATTRIBUTED: [&str; 10] = [
    "serve.conn_us",
    "progen.compile_us",
    "core.key_us",
    "serve.queue_wait_us",
    "cfg.expand_us",
    "analysis.classify_us",
    "ilp.solve_us",
    "core.decode_stage_us",
    "peer.fetch_stage_us",
    "prob.convolve_us",
];

/// One request, built during set-up so the timed loop only sends it.
pub(crate) struct Prepared {
    pub program: usize,
    pub pfail: usize,
    /// The op's kind (see `OpTimes`).
    pub kind: usize,
    pub request: Request,
}

impl Prepared {
    /// An `Analyze` request for `programs[program]` at `pfails[pfail]`
    /// under trace ID `trace` (0 = untraced), of kind `program`.
    pub fn analyze(
        programs: &[Program],
        pfails: &[f64],
        program: usize,
        pfail: usize,
        trace: u64,
    ) -> Self {
        Self {
            program,
            pfail,
            kind: program,
            request: Request::Analyze {
                program: programs[program].clone(),
                pfail: pfails[pfail],
                target_p: TARGET_P,
                trace,
            },
        }
    }
}

/// How a request ended.
pub(crate) enum Answer {
    Row {
        row: Row,
        tier: ServedFrom,
        micros: u64,
        stages: Vec<StageTiming>,
    },
    /// The service refused it (`Overloaded`); not retried.
    Refused,
    Failed(String),
}

/// One request's outcome with its client-timed round trip and the
/// process CPU time spent while it was out.
pub(crate) struct Sample {
    pub program: usize,
    pub pfail: usize,
    pub kind: usize,
    pub rtt_us: f64,
    pub cpu_us: f64,
    pub answer: Answer,
}

pub(crate) fn classify(response: Result<Response, pwcet_serve::WireError>) -> Answer {
    match response {
        Ok(Response::Analysis {
            row,
            micros,
            stages,
            ..
        }) => Answer::Row {
            tier: row.served_from,
            row: Row::of_wire(&row),
            micros,
            stages,
        },
        Ok(Response::Error {
            code: ErrorCode::Overloaded,
            ..
        }) => Answer::Refused,
        Ok(Response::Error { code, message, .. }) => Answer::Failed(format!("{code:?}: {message}")),
        Ok(other) => Answer::Failed(format!("unexpected response {other:?}")),
        Err(e) => Answer::Failed(format!("wire: {e}")),
    }
}

/// How long a connection keeps cycling its stream: at least
/// `min_passes` whole passes, and more until `seconds` have passed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Passes {
    pub min_passes: usize,
    pub seconds: f64,
}

impl Passes {
    /// Exactly one pass.
    pub const ONCE: Passes = Passes {
        min_passes: 1,
        seconds: 0.0,
    };
}

/// One closed-loop connection: sends `stream` in order and waits for
/// each reply, repeating whole passes as `passes` says, and measures
/// `yardstick` between requests. Returns the samples grouped by pass.
fn connection(
    addr: SocketAddr,
    stream: &[Prepared],
    passes: Passes,
    start: Instant,
    mut yardstick: Option<&mut Yardstick>,
) -> Result<ByPass, String> {
    let connect = || Client::connect(addr).map_err(|e| format!("connect to {addr}: {e}"));
    let mut client = connect()?;
    let mut done = Vec::new();
    loop {
        let mut samples = Vec::with_capacity(stream.len());
        for prepared in stream {
            let cpu_start = process_cpu_s();
            let sent = Instant::now();
            let response = client.request(&prepared.request);
            let rtt_us = micros_since(sent);
            let cpu_us = (process_cpu_s() - cpu_start) * 1e6;
            let answer = classify(response);
            if let Answer::Failed(_) = answer {
                // A failed exchange may have closed the connection; the
                // next request gets a fresh one.
                client = connect()?;
            }
            samples.push(Sample {
                program: prepared.program,
                pfail: prepared.pfail,
                kind: prepared.kind,
                rtt_us,
                cpu_us,
                answer,
            });
            if let Some(yardstick) = yardstick.as_deref_mut() {
                yardstick.tick();
            }
        }
        done.push(samples);
        if done.len() >= passes.min_passes && start.elapsed().as_secs_f64() >= passes.seconds {
            return Ok(done);
        }
    }
}

/// One connection's samples, grouped by pass over its stream.
pub(crate) type ByPass = Vec<Vec<Sample>>;

/// Drives one closed-loop connection per stream, concurrently; the
/// first one measures `yardstick` between its requests. Returns each
/// connection's passes and the wall time until the last finished.
pub(crate) fn drive(
    addr: SocketAddr,
    streams: &[Vec<Prepared>],
    passes: Passes,
    mut yardstick: Option<&mut Yardstick>,
) -> Result<(Vec<ByPass>, f64), String> {
    let start = Instant::now();
    let results: Vec<Result<ByPass, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, stream)| {
                let yardstick = if c == 0 { yardstick.take() } else { None };
                scope.spawn(move || connection(addr, stream, passes, start, yardstick))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".to_string()))
            })
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    Ok((results.into_iter().collect::<Result<_, _>>()?, wall_s))
}

/// Counts `samples` into `report`, checks every row against `oracle`,
/// and returns the times of the answered ops.
pub(crate) fn tally<'a>(
    samples: impl IntoIterator<Item = &'a Sample>,
    oracle: &Oracle,
    names: &[&str],
    report: &mut Report,
    checker: &mut Checker,
) -> OpTimes {
    let mut times = OpTimes::default();
    for sample in samples {
        report.attempted += 1;
        match &sample.answer {
            Answer::Row { row, .. } => {
                report.succeeded += 1;
                times.push(sample.kind, sample.rtt_us, sample.cpu_us);
                checker.check(oracle, names, sample.program, sample.pfail, *row);
            }
            Answer::Refused => report.refused += 1,
            Answer::Failed(e) => {
                report.failed += 1;
                if report.notes.len() < 8 {
                    report.notes.push(format!(
                        "# request for {} failed: {e}",
                        names[sample.program]
                    ));
                }
            }
        }
    }
    times
}

/// The tier label of an answered sample.
pub(crate) fn tier_of(sample: &Sample) -> Option<ServedFrom> {
    match &sample.answer {
        Answer::Row { tier, .. } => Some(*tier),
        _ => None,
    }
}

/// Adds one count per answered sample under `core.tier.<label>`.
pub(crate) fn count_tiers<'a>(
    samples: impl IntoIterator<Item = &'a Sample>,
    counts: &mut BTreeMap<String, u64>,
) {
    for sample in samples {
        if let Some(tier) = tier_of(sample) {
            *counts
                .entry(format!("core.tier.{}", tier.label()))
                .or_default() += 1;
        }
        *counts.entry("ops.cycle".to_string()).or_default() += 1;
    }
}

fn stage_us(stages: &[StageTiming], stage: Stage) -> f64 {
    stages
        .iter()
        .filter(|t| t.stage == stage)
        .fold(0.0, |sum, t| sum + t.micros as f64)
}

/// Folds the traced samples' round trips, server latencies and stage
/// timings into per-layer means (per op) and quantiles.
pub(crate) fn fold_stages<'a>(samples: impl IntoIterator<Item = &'a Sample>, values: &mut Values) {
    let mut rtt = Vec::new();
    let mut server = Vec::new();
    let mut conn = Vec::new();
    let mut per_stage: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for sample in samples {
        let Answer::Row { micros, stages, .. } = &sample.answer else {
            continue;
        };
        rtt.push(sample.rtt_us);
        server.push(*micros as f64);
        conn.push(sample.rtt_us - *micros as f64);
        for (name, stage) in [
            ("cfg.expand_us", Stage::CfgExpand),
            ("analysis.classify_us", Stage::Classify),
            ("ilp.solve_us", Stage::IlpSolve),
            ("prob.convolve_us", Stage::Convolve),
            ("core.decode_stage_us", Stage::CodecDecode),
            ("peer.fetch_stage_us", Stage::PeerFetch),
            ("serve.queue_wait_us", Stage::QueueWait),
            ("service", Stage::Service),
        ] {
            per_stage
                .entry(name)
                .or_default()
                .push(stage_us(stages, stage));
        }
    }
    values.insert("serve.rtt_us", mean(&rtt));
    values.insert("serve.server_us", mean(&server));
    values.insert("serve.conn_us", mean(&conn));
    let queue = per_stage.remove("serve.queue_wait_us").unwrap_or_default();
    let service = per_stage.remove("service").unwrap_or_default();
    values.insert("serve.queue_wait_us", mean(&queue));
    values.insert("serve.queue_wait_us_p50", quantile(&queue, 0.5));
    values.insert("serve.queue_wait_us_p99", quantile(&queue, 0.99));
    values.insert("serve.service_us_p50", quantile(&service, 0.5));
    values.insert("serve.service_us_p99", quantile(&service, 0.99));
    for (name, samples) in per_stage {
        values.insert(name, mean(&samples));
    }
}

/// Replays, in-process, the connection thread's compile and the content
/// key hashing for each traced op's program, to size that share of the
/// server latency: `progen.compile_us` and `core.key_us`, per op.
pub(crate) fn replay_compile_and_keys<'a>(
    programs: &[Program],
    samples: impl IntoIterator<Item = &'a Sample>,
    values: &mut Values,
) -> Result<(), String> {
    let config = pwcet_core::AnalysisConfig::paper_default();
    let mut compile = Vec::new();
    let mut keys = Vec::new();
    for sample in samples {
        let (compiled, us) = timed(|| programs[sample.program].compile(config.code_base));
        let compiled = compiled.map_err(|e| format!("replay compile: {e}"))?;
        compile.push(us);
        let ((key, family), us) = timed(|| {
            (
                ContextCache::key_of(&compiled, config.geometry, config.classification),
                ContextCache::family_key_of(&compiled, config.geometry, config.classification),
            )
        });
        std::hint::black_box((key, family));
        keys.push(us);
    }
    values.insert("progen.compile_us", mean(&compile));
    values.insert("core.key_us", mean(&keys));
    Ok(())
}

/// The node's metrics table (the `Metrics` verb), by name.
pub(crate) fn scrape(addr: SocketAddr) -> Result<BTreeMap<String, u64>, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect to {addr}: {e}"))?;
    let table = client
        .metrics()
        .map_err(|e| format!("metrics scrape of {addr}: {e}"))?;
    Ok(table.into_iter().collect())
}

/// Per-layer counts read from a scrape (the delta `after − before`):
/// solver and classifier work, peer traffic, tier lookups.
pub(crate) fn scraped_counts(
    before: &BTreeMap<String, u64>,
    after: &BTreeMap<String, u64>,
) -> BTreeMap<String, u64> {
    let delta = |name: &str| {
        after
            .get(name)
            .copied()
            .unwrap_or(0)
            .saturating_sub(before.get(name).copied().unwrap_or(0))
    };
    [
        ("analysis.passes", "classify_passes"),
        ("analysis.words_touched", "classify_words_touched"),
        ("ilp.pivots", "ilp_pivots"),
        ("ilp.bb_nodes", "ilp_bb_nodes"),
        ("ilp.warm_starts", "ilp_warm_starts"),
        ("ilp.cold_starts", "ilp_cold_starts"),
        ("peer.network_hits", "network_hits"),
        ("peer.offers", "network_offers"),
        ("scrape.lookups", "memory_hits"),
        ("scrape.lookups", "memory_misses"),
        ("scrape.cold_builds", "cold_builds"),
    ]
    .into_iter()
    .fold(BTreeMap::new(), |mut counts, (key, metric)| {
        *counts.entry(key.to_string()).or_default() += delta(metric);
        counts
    })
}

/// Useful lookups over all lookups: `1 − cold builds / lookups`.
pub(crate) fn reuse_rate(counts: &BTreeMap<String, u64>) -> f64 {
    let lookups = counts.get("scrape.lookups").copied().unwrap_or(0);
    let cold = counts.get("scrape.cold_builds").copied().unwrap_or(0);
    if lookups == 0 {
        0.0
    } else {
        1.0 - cold as f64 / lookups as f64
    }
}

/// Compiles every program once (for probes that key or load contexts).
pub(crate) fn compile_all(programs: &[Program]) -> Result<Vec<CompiledProgram>, String> {
    let base = pwcet_core::AnalysisConfig::paper_default().code_base;
    programs
        .iter()
        .map(|p| {
            p.compile(base)
                .map_err(|e| format!("compile {}: {e}", p.name()))
        })
        .collect()
}

/// The content key a node files `compiled` under.
pub(crate) fn key_of(compiled: &CompiledProgram) -> u64 {
    let config = pwcet_core::AnalysisConfig::paper_default();
    ContextCache::key_of(compiled, config.geometry, config.classification)
}
