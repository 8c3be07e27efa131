//! `serve_warm`: the repeated-query hot path.
//!
//! An in-process `Server` (default configuration, two shards) is warmed
//! with all 25 programs during set-up. A closed-loop `Client` connection
//! (one in the settings of record) then cycles a seeded stream of
//! permutations of the suite at the shipped fault rate: every op is a
//! memory-tier hit that still compiles, hashes, crosses the wire, queues
//! and convolves.

use pwcet_core::AnalysisConfig;
use pwcet_progen::Program;
use pwcet_serve::{Client, Server, ServerConfig};

use crate::oracle::{Checker, Oracle};
use crate::serve::{
    classify, count_tiers, drive, fold_stages, replay_compile_and_keys, reuse_rate, scrape,
    scraped_counts, tally, Answer, Passes, Prepared, ATTRIBUTED,
};
use crate::util::{SplitMix, Steal, Yardstick};
use crate::{
    attribute, end_to_end, per_layer, set_up_repeatedly, settle_counts, Options, Report, Values,
    YARDSTICK_EVERY,
};

/// Permutations of the suite in the first connection's stream.
const PERMUTATIONS: usize = 16;

struct Setup {
    names: Vec<&'static str>,
    programs: Vec<Program>,
    oracle: Oracle,
    server: Server,
    /// One untraced stream per connection.
    streams: Vec<Vec<Prepared>>,
    /// The same streams with non-zero trace IDs.
    traced: Vec<Vec<Prepared>>,
    /// Findings of the warm-up requests.
    warm_checker: Checker,
}

fn set_up(options: &Options) -> Result<Setup, String> {
    let suite = pwcet_benchsuite::all();
    let names: Vec<&'static str> = suite.iter().map(|b| b.name).collect();
    let programs: Vec<Program> = suite.into_iter().map(|b| b.program).collect();
    let pfails = [AnalysisConfig::paper_default().fault_model.pfail()];
    let mut oracle = Oracle::build(&programs, &pfails)?;
    if options.tamper_reference {
        oracle.tamper();
    }
    let server = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            shards: options.shards,
            queue_capacity: options.queue_capacity,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("bind server: {e}"))?;

    let mut warm_checker = Checker::default();
    let mut client =
        Client::connect(server.local_addr()).map_err(|e| format!("connect for warm-up: {e}"))?;
    for p in 0..programs.len() {
        let prepared = Prepared::analyze(&programs, &pfails, p, 0, 0);
        match classify(client.request(&prepared.request)) {
            Answer::Row { row, .. } => warm_checker.check(&oracle, &names, p, 0, row),
            Answer::Refused => return Err(format!("warm-up of {} was refused", names[p])),
            Answer::Failed(e) => return Err(format!("warm-up of {}: {e}", names[p])),
        }
    }

    // Connection c cycles `PERMUTATIONS + c` fresh permutations, so
    // which programs meet on the shards keeps changing instead of
    // repeating one seed-specific pairing.
    let stream = |c: usize, trace: bool| -> Vec<Prepared> {
        let mut rng = SplitMix::new(options.seed, 10 + c as u64);
        (0..PERMUTATIONS + c)
            .flat_map(|_| rng.permutation(programs.len()))
            .enumerate()
            .map(|(i, p)| {
                let id = if trace {
                    ((c as u64 + 1) << 32) | (i as u64 + 1)
                } else {
                    0
                };
                Prepared::analyze(&programs, &pfails, p, 0, id)
            })
            .collect()
    };
    let connections = options.connections.max(1);
    Ok(Setup {
        streams: (0..connections).map(|c| stream(c, false)).collect(),
        traced: (0..connections).map(|c| stream(c, true)).collect(),
        names,
        programs,
        oracle,
        server,
        warm_checker,
    })
}

pub(crate) fn run(options: &Options) -> Result<Report, String> {
    // Dropping a repetition's server drains it before the next binds.
    let (setup, setup_s) = set_up_repeatedly(options, || set_up(options))?;
    let addr = setup.server.local_addr();

    let mut report = Report::default();
    let mut checker = Checker::default();
    let result = if options.trace {
        traced(options, &setup, &mut report, &mut checker)
    } else {
        let passes = Passes {
            min_passes: 1,
            seconds: options.seconds,
        };
        let mut steal = Steal::start();
        let mut yardstick = Yardstick::new(YARDSTICK_EVERY);
        drive(addr, &setup.streams, passes, Some(&mut yardstick)).and_then(|(samples, wall_s)| {
            steal.stop();
            let times = tally(
                samples.iter().flatten().flatten(),
                &setup.oracle,
                &setup.names,
                &mut report,
                &mut checker,
            );
            report.metrics = end_to_end(
                setup_s,
                &times,
                setup.programs.len(),
                wall_s,
                &steal,
                yardstick,
                &mut report.notes,
            )?;
            Ok(())
        })
    };
    let Setup {
        server,
        warm_checker,
        ..
    } = setup;
    server.shutdown();
    result?;
    checker.merge(warm_checker);
    report.checker = checker;
    Ok(report)
}

/// The traced run: an untraced baseline for half the time, then traced
/// passes (at least two per connection) for the other half.
fn traced(
    options: &Options,
    setup: &Setup,
    report: &mut Report,
    checker: &mut Checker,
) -> Result<(), String> {
    let addr = setup.server.local_addr();
    let half = Passes {
        min_passes: 1,
        seconds: options.seconds / 2.0,
    };
    let (baseline, baseline_wall_s) = drive(addr, &setup.streams, half, None)?;
    let baseline_ok = tally(
        baseline.iter().flatten().flatten(),
        &setup.oracle,
        &setup.names,
        report,
        checker,
    )
    .len();

    let before = scrape(addr)?;
    let (samples, wall_s) = drive(
        addr,
        &setup.traced,
        Passes {
            min_passes: 2,
            ..half
        },
        None,
    )?;
    let after = scrape(addr)?;
    let traced_ok = tally(
        samples.iter().flatten().flatten(),
        &setup.oracle,
        &setup.names,
        report,
        checker,
    )
    .len();

    // A cycle is pass i of every connection; only passes every
    // connection completed count.
    let common = samples.iter().map(Vec::len).min().unwrap_or(0);
    let mut cycles: Vec<_> = (0..common)
        .map(|i| {
            let mut counts = std::collections::BTreeMap::new();
            count_tiers(samples.iter().flat_map(|conn| &conn[i]), &mut counts);
            counts
        })
        .collect();

    let mut values = Values::new();
    fold_stages(samples.iter().flatten().flatten(), &mut values);
    replay_compile_and_keys(
        &setup.programs,
        samples.iter().flatten().flatten(),
        &mut values,
    )?;
    let scraped = scraped_counts(&before, &after);
    values.insert("core.reuse_rate", reuse_rate(&scraped));
    // The warm path promises no cold-path work: over the whole traced
    // phase every classifier, solver and peer count and every cold build
    // reads 0, so each reads 0 per cycle too.
    for (name, &value) in &scraped {
        if name == "scrape.lookups" {
            continue;
        }
        if value != 0 {
            return Err(format!(
                "serve_warm did cold-path work on the warm path (seed {}): {name} = {value}",
                options.seed
            ));
        }
        if !name.starts_with("scrape.") {
            for cycle in &mut cycles {
                cycle.insert(name.clone(), 0);
            }
        }
    }
    values.insert(
        "trace_overhead_frac",
        1.0 - (traced_ok as f64 / wall_s) / (baseline_ok as f64 / baseline_wall_s),
    );
    settle_counts(
        "serve_warm",
        options.seed,
        &cycles,
        &[],
        report,
        &mut values,
    )?;
    let rtt = values["serve.rtt_us"];
    attribute(&mut values, rtt, &ATTRIBUTED, &mut report.notes);
    report.metrics = per_layer(values)?;
    Ok(())
}
