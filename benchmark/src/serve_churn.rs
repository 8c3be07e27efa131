//! `serve_churn`: reads beside writes, across every reuse tier.
//!
//! Each epoch starts a fresh node and a fresh warm peer over fresh copies
//! of stores pre-seeded during set-up. The seed splits the suite into
//! three classes; in epoch `e` class `e mod 3` sits in the node's disk
//! tier, the next class on the peer, and the last is cold, so over three
//! epochs (one cycle) every program takes every path once. As a
//! design-stage user re-queries the same programs at other fault rates,
//! each epoch asks for every program once at each of the three rates
//! {1e-5, 1e-4, 1e-3}, in a seeded order dealt over the closed-loop
//! connections (one in the settings of record): 75 requests, 25 first
//! touches and 50 re-queries. A
//! program's first touch is a disk read and PWCX decode, a peer fetch, or
//! a cold build followed by PWCX encode, disk write and peer offer; its
//! re-queries are memory hits that still need a fresh estimate.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pwcet_core::{AnalysisConfig, PwcetAnalyzer, ReusePlane, ReuseTier};
use pwcet_progen::{CompiledProgram, Program};
use pwcet_serve::{Client, FleetConfig, Server, ServerConfig};

use crate::oracle::{Checker, Oracle};
use crate::serve::{
    compile_all, count_tiers, drive, fold_stages, key_of, replay_compile_and_keys, reuse_rate,
    scrape, scraped_counts, tally, tier_of, Passes, Prepared, ATTRIBUTED,
};
use crate::util::{mean, timed, SplitMix, Steal, Yardstick};
use crate::{
    attribute, end_to_end, per_layer, set_up_repeatedly, settle_counts, OpTimes, Options, Report,
    Values, YARDSTICK_EVERY,
};

/// The fault rates each program is queried at, once each per epoch.
const PFAILS: [f64; 3] = [1e-5, 1e-4, 1e-3];

/// Epochs per cycle: one per rotation of the three classes.
const EPOCHS_PER_CYCLE: usize = 3;

/// The node's own ring address. It is not in the node's peer list, so
/// the ring holds only the peer and every fetch and every offer goes to
/// it whatever ports the two bind — which keeps the counts exact.
const NODE_RING_ADDR: &str = "127.0.0.1:1";

/// Distinguishes the working directories of runs sharing a process.
static RUNS: AtomicU64 = AtomicU64::new(0);

/// A scratch directory inside the benchmark's own tree, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<Self, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!(
                "run-{}-{}",
                std::process::id(),
                RUNS.fetch_add(1, Ordering::Relaxed)
            ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let fail = |e: std::io::Error| format!("copy {} to {}: {e}", from.display(), to.display());
    std::fs::create_dir_all(to).map_err(fail)?;
    for entry in std::fs::read_dir(from).map_err(fail)? {
        let entry = entry.map_err(fail)?;
        if entry.file_type().map_err(fail)?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(fail)?;
        }
    }
    Ok(())
}

struct Setup {
    names: Vec<&'static str>,
    programs: Vec<Program>,
    compiled: Vec<CompiledProgram>,
    oracle: Oracle,
    /// The seeded class (0..3) of each program.
    class_of: Vec<usize>,
    /// One pre-seeded store per class.
    seed_dirs: Vec<PathBuf>,
    work: WorkDir,
}

impl Setup {
    /// The tier program `p` must be first served from in `epoch`.
    fn expected_tier(&self, epoch: usize, p: usize) -> ReuseTier {
        match (self.class_of[p] + EPOCHS_PER_CYCLE - epoch % EPOCHS_PER_CYCLE) % EPOCHS_PER_CYCLE {
            0 => ReuseTier::Disk,
            1 => ReuseTier::Network,
            _ => ReuseTier::Cold,
        }
    }

    /// The programs of the class served from `tier` in `epoch`.
    fn class_in(&self, epoch: usize, tier: ReuseTier) -> Vec<usize> {
        (0..self.programs.len())
            .filter(|&p| self.expected_tier(epoch, p) == tier)
            .collect()
    }
}

fn set_up(options: &Options) -> Result<Setup, String> {
    let suite = pwcet_benchsuite::all();
    let names: Vec<&'static str> = suite.iter().map(|b| b.name).collect();
    let programs: Vec<Program> = suite.into_iter().map(|b| b.program).collect();
    let compiled = compile_all(&programs)?;
    let mut oracle = Oracle::build(&programs, &PFAILS)?;
    if options.tamper_reference {
        oracle.tamper();
    }
    let mut class_of = vec![0; programs.len()];
    for (position, p) in SplitMix::new(options.seed, 2)
        .permutation(programs.len())
        .into_iter()
        .enumerate()
    {
        class_of[p] = position % EPOCHS_PER_CYCLE;
    }

    // Pre-seed one store per class through a disk-backed plane, as a
    // node that had served those programs before would have left it.
    let work = WorkDir::new()?;
    let mut seed_dirs = Vec::new();
    for class in 0..EPOCHS_PER_CYCLE {
        let dir = work.0.join(format!("seed-{class}"));
        let plane = Arc::new(
            ReusePlane::in_memory()
                .with_disk_tier(&dir)
                .map_err(|e| format!("seed store {}: {e}", dir.display()))?,
        );
        let analyzer = PwcetAnalyzer::new(AnalysisConfig::paper_default())
            .with_reuse_plane(Arc::clone(&plane));
        for p in (0..programs.len()).filter(|&p| class_of[p] == class) {
            analyzer
                .analyze_compiled(&compiled[p])
                .map_err(|e| format!("seeding {}: {e}", names[p]))?;
        }
        plane.flush();
        seed_dirs.push(dir);
    }
    Ok(Setup {
        names,
        programs,
        compiled,
        oracle,
        class_of,
        seed_dirs,
        work,
    })
}

/// One epoch's fresh node and peer, and its prebuilt streams.
struct Epoch {
    index: usize,
    node: Server,
    peer: Server,
    streams: Vec<Vec<Prepared>>,
    dir: PathBuf,
}

fn start_epoch(
    options: &Options,
    setup: &Setup,
    index: usize,
    trace: bool,
) -> Result<Epoch, String> {
    let rotation = index % EPOCHS_PER_CYCLE;
    let dir = setup.work.0.join(format!("epoch-{index}"));
    let node_dir = dir.join("node");
    let peer_dir = dir.join("peer");
    copy_dir(&setup.seed_dirs[rotation], &node_dir)?;
    copy_dir(
        &setup.seed_dirs[(rotation + 1) % EPOCHS_PER_CYCLE],
        &peer_dir,
    )?;
    let config = |disk: &Path| ServerConfig {
        shards: options.shards,
        queue_capacity: options.queue_capacity,
        disk_dir: Some(disk.to_path_buf()),
        ..ServerConfig::default()
    };
    let peer =
        Server::bind("127.0.0.1:0", config(&peer_dir)).map_err(|e| format!("bind peer: {e}"))?;
    let node = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            fleet: Some(FleetConfig::new(
                NODE_RING_ADDR,
                [peer.local_addr().to_string()],
            )),
            ..config(&node_dir)
        },
    )
    .map_err(|e| format!("bind node: {e}"))?;

    let connections = options.connections.max(1);
    let order = SplitMix::new(options.seed, 100 + index as u64)
        .permutation(setup.programs.len() * PFAILS.len());
    let mut streams: Vec<Vec<Prepared>> = (0..connections).map(|_| Vec::new()).collect();
    let mut sent = vec![0; setup.programs.len()];
    for (i, pair) in order.into_iter().enumerate() {
        let (p, pfail) = (pair / PFAILS.len(), pair % PFAILS.len());
        let id = if trace {
            ((index as u64 + 1) << 32) | (i as u64 + 1)
        } else {
            0
        };
        let mut prepared = Prepared::analyze(&setup.programs, &PFAILS, p, pfail, id);
        // A kind per rotation, program and place among the program's
        // requests of the epoch (the first is its first touch).
        prepared.kind = (rotation * setup.programs.len() + p) * PFAILS.len() + sent[p];
        sent[p] += 1;
        streams[i % connections].push(prepared);
    }
    Ok(Epoch {
        index,
        node,
        peer,
        streams,
        dir,
    })
}

fn end_epoch(epoch: Epoch) {
    epoch.node.shutdown();
    epoch.peer.shutdown();
    let _ = std::fs::remove_dir_all(&epoch.dir);
}

/// Per-call means of the probes a traced epoch runs after its stream.
#[derive(Default)]
struct Probes {
    disk_load: Vec<f64>,
    encode: Vec<f64>,
    entry_bytes: Vec<f64>,
    fetch: Vec<f64>,
}

/// Times the disk-tier load (`get_or_build_traced` on a fresh plane over
/// a copy of the epoch's seeded store), the PWCX encode of what it
/// loaded (`export_entry`), and a peer fetch (`Client::fetch_entry`) of
/// each of the peer's keys.
fn probe(
    setup: &Setup,
    epoch: &Epoch,
    probes: &mut Probes,
    checker: &mut Checker,
) -> Result<(), String> {
    let config = AnalysisConfig::paper_default();
    let rotation = epoch.index % EPOCHS_PER_CYCLE;
    let store = epoch.dir.join("probe");
    copy_dir(&setup.seed_dirs[rotation], &store)?;
    let plane = ReusePlane::in_memory()
        .with_disk_tier(&store)
        .map_err(|e| format!("probe store: {e}"))?;
    for p in setup.class_in(epoch.index, ReuseTier::Disk) {
        let (loaded, us) = timed(|| {
            plane.get_or_build_traced(&setup.compiled[p], config.geometry, config.classification)
        });
        let (_, tier) = loaded.map_err(|e| format!("probe load of {}: {e}", setup.names[p]))?;
        if tier != ReuseTier::Disk {
            checker.wrong(format!(
                "probe load of {} came from {tier}, not disk",
                setup.names[p]
            ));
        }
        probes.disk_load.push(us);
        let (entry, us) = timed(|| plane.export_entry(key_of(&setup.compiled[p])));
        let entry = entry.ok_or_else(|| format!("no entry to export for {}", setup.names[p]))?;
        probes.encode.push(us);
        probes.entry_bytes.push(entry.len() as f64);
    }
    let mut client =
        Client::connect(epoch.peer.local_addr()).map_err(|e| format!("connect to peer: {e}"))?;
    for p in setup.class_in(epoch.index, ReuseTier::Network) {
        let key = key_of(&setup.compiled[p]);
        let (fetched, us) = timed(|| client.fetch_entry(key, key | 1));
        match fetched.map_err(|e| format!("peer fetch of {}: {e}", setup.names[p]))? {
            Some(_) => probes.fetch.push(us),
            None => checker.wrong(format!("the peer has no entry for {}", setup.names[p])),
        }
    }
    Ok(())
}

/// Checks that every program's first touch in `epoch` came from its
/// seeded tier and every later touch from memory.
fn check_tiers(
    setup: &Setup,
    epoch: usize,
    samples: &[&crate::serve::Sample],
    checker: &mut Checker,
) {
    for p in 0..setup.programs.len() {
        let tiers: Vec<ReuseTier> = samples
            .iter()
            .filter(|s| s.program == p)
            .filter_map(|s| tier_of(s))
            .collect();
        if tiers.is_empty() {
            // Every request for it failed or was refused; those are
            // counted as failures, not as wrong answers.
            continue;
        }
        let first: Vec<ReuseTier> = tiers
            .iter()
            .copied()
            .filter(|&t| t != ReuseTier::Memory)
            .collect();
        let expected = setup.expected_tier(epoch, p);
        if first != [expected] {
            checker.wrong(format!(
                "{} in epoch {epoch}: non-memory tiers {first:?}, expected one {expected}",
                setup.names[p]
            ));
        }
    }
}

/// What the epochs of one phase measured.
#[derive(Default)]
struct Phase {
    times: OpTimes,
    /// Measured between the requests of untraced phases.
    yardstick: Option<Yardstick>,
    /// Wall seconds of the streams alone.
    wall_s: f64,
    succeeded: usize,
    cycles: Vec<BTreeMap<String, u64>>,
    scraped: BTreeMap<String, u64>,
    values: Values,
    probes: Probes,
}

/// Runs whole cycles of epochs, starting with `first` (already started),
/// until `seconds` have passed and at least `min_cycles` ran. Epoch
/// starts and ends count toward `seconds` but not toward the streams'
/// times. Returns the phase and the next epoch index.
#[allow(clippy::too_many_arguments)]
fn phase(
    options: &Options,
    setup: &Setup,
    mut next: Option<Epoch>,
    mut index: usize,
    seconds: f64,
    min_cycles: usize,
    trace: bool,
    report: &mut Report,
    checker: &mut Checker,
) -> Result<(Phase, usize), String> {
    let mut phase = Phase {
        yardstick: (!trace).then(|| Yardstick::new(YARDSTICK_EVERY)),
        ..Phase::default()
    };
    let mut traced_samples = Vec::new();
    let start = std::time::Instant::now();
    loop {
        let mut cycle = BTreeMap::new();
        for _ in 0..EPOCHS_PER_CYCLE {
            let epoch = match next.take() {
                Some(epoch) => epoch,
                None => start_epoch(options, setup, index, trace)?,
            };
            index += 1;
            let outcome = run_epoch(
                setup, &epoch, trace, &mut phase, &mut cycle, report, checker,
            );
            end_epoch(epoch);
            traced_samples.extend(outcome?);
        }
        phase.cycles.push(cycle);
        if phase.cycles.len() >= min_cycles && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if trace {
        fold_stages(traced_samples.iter(), &mut phase.values);
        replay_compile_and_keys(&setup.programs, traced_samples.iter(), &mut phase.values)?;
    }
    Ok((phase, index))
}

/// Drives one epoch's stream, checks it, scrapes the node and, traced,
/// runs the probes. Returns the epoch's samples when traced.
fn run_epoch(
    setup: &Setup,
    epoch: &Epoch,
    trace: bool,
    phase: &mut Phase,
    cycle: &mut BTreeMap<String, u64>,
    report: &mut Report,
    checker: &mut Checker,
) -> Result<Vec<crate::serve::Sample>, String> {
    let node = epoch.node.local_addr();
    let before = scrape(node)?;
    let (samples, wall_s) = drive(node, &epoch.streams, Passes::ONCE, phase.yardstick.as_mut())?;
    phase.wall_s += wall_s;
    let after = scrape(node)?;
    let flat: Vec<&crate::serve::Sample> = samples.iter().flatten().flatten().collect();
    let times = tally(
        flat.iter().copied(),
        &setup.oracle,
        &setup.names,
        report,
        checker,
    );
    phase.succeeded += times.len();
    phase.times.extend(times);
    check_tiers(setup, epoch.index, &flat, checker);
    count_tiers(flat.iter().copied(), cycle);
    for (name, value) in scraped_counts(&before, &after) {
        *phase.scraped.entry(name.clone()).or_default() += value;
        if !name.starts_with("scrape.") {
            *cycle.entry(name).or_default() += value;
        }
    }
    if !trace {
        return Ok(Vec::new());
    }
    probe(setup, epoch, &mut phase.probes, checker)?;
    Ok(samples.into_iter().flatten().flatten().collect())
}

pub(crate) fn run(options: &Options) -> Result<Report, String> {
    // Set-up includes starting the first epoch. A dropped repetition's
    // epoch drains its servers before its set-up removes the stores.
    let ((first, setup), setup_s) = set_up_repeatedly(options, || {
        let setup = set_up(options)?;
        let epoch = start_epoch(options, &setup, 0, false)?;
        Ok((epoch, setup))
    })?;

    let mut report = Report::default();
    let mut checker = Checker::default();
    if !options.trace {
        let mut steal = Steal::start();
        let (phase, _) = phase(
            options,
            &setup,
            Some(first),
            0,
            options.seconds,
            1,
            false,
            &mut report,
            &mut checker,
        )?;
        steal.stop();
        let yardstick = phase
            .yardstick
            .expect("an untraced phase measures the yardstick");
        report.metrics = end_to_end(
            setup_s,
            &phase.times,
            EPOCHS_PER_CYCLE * setup.programs.len() * PFAILS.len(),
            phase.wall_s,
            &steal,
            yardstick,
            &mut report.notes,
        )?;
        report.checker = checker;
        return Ok(report);
    }

    let (baseline, next) = phase(
        options,
        &setup,
        Some(first),
        0,
        options.seconds / 2.0,
        1,
        false,
        &mut report,
        &mut checker,
    )?;
    let (traced, _) = phase(
        options,
        &setup,
        None,
        next,
        options.seconds / 2.0,
        2,
        true,
        &mut report,
        &mut checker,
    )?;
    let mut values = traced.values;
    values.insert("core.reuse_rate", reuse_rate(&traced.scraped));
    values.insert("core.disk_load_us", mean(&traced.probes.disk_load));
    values.insert("core.encode_us", mean(&traced.probes.encode));
    values.insert("core.entry_bytes", mean(&traced.probes.entry_bytes));
    values.insert("peer.fetch_us", mean(&traced.probes.fetch));
    values.insert(
        "trace_overhead_frac",
        1.0 - (traced.succeeded as f64 / traced.wall_s)
            / (baseline.succeeded as f64 / baseline.wall_s),
    );
    settle_counts(
        "serve_churn",
        options.seed,
        &traced.cycles,
        &[],
        &mut report,
        &mut values,
    )?;
    let rtt = values["serve.rtt_us"];
    attribute(&mut values, rtt, &ATTRIBUTED, &mut report.notes);
    report.metrics = per_layer(values)?;
    report.checker = checker;
    Ok(report)
}
