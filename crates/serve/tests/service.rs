//! End-to-end service tests: tier provenance across clients and
//! restarts, bit-identical warm answers, deterministic backpressure, and
//! draining shutdown.

use std::collections::BTreeMap;
use std::thread;

use pwcet_core::{AnalysisConfig, Protection, PwcetAnalyzer, ReuseTier};
use pwcet_progen::{stmt, Program};
use pwcet_serve::protocol::{ErrorCode, Request, Response};
use pwcet_serve::{AnalysisRow, Client, Server, ServerConfig};

fn bench(name: &str) -> Program {
    pwcet_benchsuite::by_name(name)
        .expect("benchmark exists")
        .program
}

fn server_with(shards: usize, queue: usize) -> Server {
    let config = ServerConfig {
        shards,
        queue_capacity: queue,
        ..ServerConfig::default()
    };
    Server::bind("127.0.0.1:0", config).expect("ephemeral bind")
}

/// A metrics table (a scrape or a shutdown's final table), by name.
fn by_name(table: Vec<(String, u64)>) -> BTreeMap<String, u64> {
    table.into_iter().collect()
}

/// Every name of the metrics table, as emitted by a fleet node that has
/// served cold, memory, disk and network requests — captured once from
/// the build whose fixed-layout stats verb fed the table, so scrapers
/// written against those names keep working.
const METRIC_NAMES: [&str; 85] = [
    "basis_rejects",
    "basis_restores",
    "classify_passes",
    "classify_sets_skipped",
    "classify_words_touched",
    "cold_builds",
    "compile_memo_entries",
    "compile_memo_hits",
    "compile_memo_misses",
    "connections",
    "derived",
    "disk_corrupt",
    "disk_gc_evictions",
    "disk_hits",
    "disk_misses",
    "disk_writes",
    "estimate_memo_hits",
    "estimate_memo_misses",
    "fleet_fetch_errors",
    "fleet_fetch_hits",
    "fleet_fetch_misses",
    "fleet_offers_dropped",
    "fleet_offers_failed",
    "fleet_offers_sent",
    "ilp_bb_nodes",
    "ilp_bound_flips",
    "ilp_cold_probes",
    "ilp_cold_starts",
    "ilp_dual_pivots",
    "ilp_pivots",
    "ilp_trivial_prunes",
    "ilp_warm_starts",
    "memory_capacity",
    "memory_evictions",
    "memory_hits",
    "memory_len",
    "memory_misses",
    "network_corrupt",
    "network_hits",
    "network_misses",
    "network_offers",
    "objective_hits",
    "overloads",
    "peer_fetches_served",
    "peer_offers_stored",
    "peers",
    "peers_unhealthy",
    "protocol_errors",
    "queue_capacity",
    "queue_wait_us_count",
    "queue_wait_us_max",
    "queue_wait_us_mean",
    "queue_wait_us_p50",
    "queue_wait_us_p95",
    "queue_wait_us_p99",
    "queue_wait_us_sum",
    "queued",
    "request_latency_us_count",
    "request_latency_us_max",
    "request_latency_us_mean",
    "request_latency_us_p50",
    "request_latency_us_p95",
    "request_latency_us_p99",
    "request_latency_us_sum",
    "requests",
    "response_write_failures",
    "served",
    "served_cold",
    "served_derived",
    "served_disk",
    "served_memory",
    "served_network",
    "service_us_count",
    "service_us_max",
    "service_us_mean",
    "service_us_p50",
    "service_us_p95",
    "service_us_p99",
    "service_us_sum",
    "shards",
    "store_bytes",
    "template_builds",
    "template_hits",
    "trace_spans_dropped",
    "worker_panics",
];

fn analyze(client: &mut Client, program: Program) -> (AnalysisRow, u64) {
    match client
        .analyze(program, 1e-4, 1e-15)
        .expect("request succeeds")
    {
        Response::Analysis { row, micros, .. } => (row, micros),
        other => panic!("expected an analysis response, got {other:?}"),
    }
}

#[test]
fn second_client_is_served_bit_identically_from_the_memory_tier() {
    let server = server_with(2, 16);

    let mut first = Client::connect(server.local_addr()).expect("connect");
    let (cold_row, _) = analyze(&mut first, bench("crc"));
    assert_eq!(cold_row.served_from, ReuseTier::Cold);

    // A *different* client connection requesting the same program must be
    // answered from the reuse plane's memory tier, bit-identically.
    let mut second = Client::connect(server.local_addr()).expect("connect");
    let (warm_row, _) = analyze(&mut second, bench("crc"));
    assert_eq!(warm_row.served_from, ReuseTier::Memory);
    assert_eq!(
        warm_row,
        AnalysisRow {
            served_from: ReuseTier::Memory,
            ..cold_row.clone()
        }
    );

    // And the rows match a direct in-process analysis exactly.
    let analysis = PwcetAnalyzer::new(AnalysisConfig::paper_default())
        .analyze(&bench("crc"))
        .expect("direct analysis");
    assert_eq!(warm_row.fault_free_wcet, analysis.fault_free_wcet());
    assert_eq!(
        warm_row.pwcet_none,
        analysis.estimate(Protection::None).pwcet_at(1e-15)
    );
    assert_eq!(
        warm_row.pwcet_rw,
        analysis.estimate(Protection::ReliableWay).pwcet_at(1e-15)
    );

    let stats = by_name(server.shutdown());
    assert_eq!(stats["served"], 2);
    assert_eq!(stats["served_cold"], 1);
    assert_eq!(stats["served_memory"], 1);
    // The cold analysis ran the ILP stage through the plane, so the
    // metrics table reports solver behavior; the memory-tier duplicate
    // reused its memoized artifacts and added nothing.
    assert!(
        stats["ilp_bb_nodes"] > 0,
        "solver counters reach the service"
    );
    assert!(
        stats["ilp_warm_starts"] > 0,
        "the per-(set, fault) fan-out reuses the factored template basis"
    );
    assert!(stats["ilp_pivots"] > 0);
}

#[test]
fn concurrent_duplicates_serialize_on_one_shard() {
    // Two clients race the same program: whatever the interleaving, the
    // shard serializes them — exactly one cold build, the other answered
    // from the memory tier, both bit-identical.
    let server = server_with(4, 16);
    let addr = server.local_addr();
    let rows: Vec<AnalysisRow> = thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    analyze(&mut client, bench("fir")).0
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let tiers: Vec<ReuseTier> = rows.iter().map(|r| r.served_from).collect();
    assert!(
        tiers.contains(&ReuseTier::Cold) && tiers.contains(&ReuseTier::Memory),
        "expected one cold and one memory-tier answer, got {tiers:?}"
    );
    assert_eq!(rows[0].pwcet_none, rows[1].pwcet_none);
    assert_eq!(rows[0].fault_free_wcet, rows[1].fault_free_wcet);
    server.shutdown();
}

#[test]
fn restarted_server_answers_from_the_disk_tier() {
    let dir = std::env::temp_dir().join(format!("pwcet-serve-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let config = ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    }
    .with_disk_dir(&dir);
    let server = Server::bind("127.0.0.1:0", config.clone()).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let (cold_row, _) = analyze(&mut client, bench("bs"));
    assert_eq!(cold_row.served_from, ReuseTier::Cold);
    drop(client);
    let stats = by_name(server.shutdown());
    assert!(
        stats["disk_writes"] > 0,
        "write-through must persist the context"
    );

    // A brand-new server over the same store answers without a cold
    // build — the disk tier survives the restart.
    let reborn = Server::bind("127.0.0.1:0", config).expect("rebind");
    let mut client = Client::connect(reborn.local_addr()).expect("connect");
    let (warm_row, _) = analyze(&mut client, bench("bs"));
    assert_eq!(warm_row.served_from, ReuseTier::Disk);
    assert_eq!(
        warm_row,
        AnalysisRow {
            served_from: ReuseTier::Disk,
            ..cold_row
        }
    );
    drop(client);
    reborn.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn batch_and_sweeps_answer_with_provenance() {
    let server = server_with(2, 16);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let programs = vec![bench("bs"), bench("fibcall"), bench("bs")];
    let response = client
        .request(&Request::Batch {
            programs,
            pfail: 1e-4,
            target_p: 1e-15,
            trace: 0,
        })
        .expect("batch");
    let Response::Batch { rows, .. } = response else {
        panic!("expected a batch response, got {response:?}");
    };
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].name, "bs");
    assert_eq!(rows[1].name, "fibcall");
    // The duplicate inside the batch serializes behind the first copy on
    // its shard and is answered from the memory tier.
    assert_eq!(rows[2].served_from, ReuseTier::Memory);
    assert_eq!(rows[2].pwcet_none, rows[0].pwcet_none);

    // A pfail sweep over an already-analyzed program reuses its context.
    let response = client
        .request(&Request::SweepPfail {
            program: bench("bs"),
            pfails: vec![1e-5, 1e-4, 1e-3],
            target_p: 1e-15,
            trace: 0,
        })
        .expect("sweep");
    let Response::PfailSweep {
        served_from, rows, ..
    } = response
    else {
        panic!("expected a pfail sweep, got {response:?}");
    };
    assert_eq!(served_from, ReuseTier::Memory);
    assert_eq!(rows.len(), 3);
    assert!(
        rows[0].pwcet_none <= rows[2].pwcet_none,
        "pWCET grows with pfail"
    );

    // A geometry sweep derives narrower points from the widest.
    let response = client
        .request(&Request::SweepGeometry {
            program: bench("bs"),
            sets: 16,
            block_bytes: 16,
            way_counts: vec![4, 2, 1],
            target_p: 1e-15,
            trace: 0,
        })
        .expect("geometry sweep");
    let Response::GeometrySweep { rows, .. } = response else {
        panic!("expected a geometry sweep, got {response:?}");
    };
    assert_eq!(rows.len(), 3);
    assert_eq!(rows[0].ways, 4, "widest first");
    assert!(
        rows[2].pwcet_none >= rows[0].pwcet_none,
        "fewer ways never shrink pWCET"
    );

    let plane_stats = server.reuse_plane().stats();
    assert!(
        plane_stats.derived >= 2,
        "narrow points are derived, not rebuilt"
    );
    server.shutdown();
}

#[test]
fn invalid_requests_are_refused_not_crashed() {
    let server = server_with(1, 4);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // A program with no main does not build.
    let bad = Program::new("nomain").with_function("helper", stmt::compute(4));
    let response = client.analyze(bad, 1e-4, 1e-15).expect("transport ok");
    let Response::Error { code, .. } = response else {
        panic!("expected a refusal, got {response:?}");
    };
    assert_eq!(code, ErrorCode::InvalidRequest);

    // Out-of-range probabilities.
    let response = client
        .analyze(bench("bs"), 2.0, 1e-15)
        .expect("transport ok");
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::InvalidRequest,
            ..
        }
    ));
    let response = client
        .analyze(bench("bs"), 1e-4, 0.0)
        .expect("transport ok");
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::InvalidRequest,
            ..
        }
    ));

    // An empty sweep and a non-power-of-two set count.
    let response = client
        .request(&Request::SweepPfail {
            program: bench("bs"),
            pfails: vec![],
            target_p: 1e-15,
            trace: 0,
        })
        .expect("transport ok");
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::InvalidRequest,
            ..
        }
    ));
    let response = client
        .request(&Request::SweepGeometry {
            program: bench("bs"),
            sets: 15,
            block_bytes: 16,
            way_counts: vec![4],
            target_p: 1e-15,
            trace: 0,
        })
        .expect("transport ok");
    assert!(matches!(
        response,
        Response::Error {
            code: ErrorCode::InvalidRequest,
            ..
        }
    ));

    // The connection survived every refusal; a valid request still works.
    let (row, _) = analyze(&mut client, bench("bs"));
    assert_eq!(row.served_from, ReuseTier::Cold);
    server.shutdown();
}

#[test]
fn full_shard_queue_answers_overloaded() {
    // One shard, queue capacity 1, and a burst of six concurrent heavy
    // requests: at most one runs and one queues, so at least one client
    // must be told to back off — and every client gets *some* answer.
    let server = server_with(1, 1);
    let addr = server.local_addr();
    let programs = ["adpcm", "compress", "edn", "ndes", "statemate", "ud"];
    let outcomes: Vec<Response> = thread::scope(|scope| {
        let handles: Vec<_> = programs
            .iter()
            .map(|name| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client
                        .analyze(bench(name), 1e-4, 1e-15)
                        .expect("transport ok")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let overloaded = outcomes
        .iter()
        .filter(|r| {
            matches!(
                r,
                Response::Error {
                    code: ErrorCode::Overloaded,
                    ..
                }
            )
        })
        .count();
    let answered = outcomes
        .iter()
        .filter(|r| matches!(r, Response::Analysis { .. }))
        .count();
    assert_eq!(overloaded + answered, programs.len(), "no request vanished");
    assert!(
        overloaded >= 1,
        "a 1-deep queue under a 6-burst must shed load"
    );
    assert!(answered >= 1, "the worker still made progress");

    let stats = by_name(server.shutdown());
    assert_eq!(stats["overloads"] as usize, overloaded);
}

#[test]
fn shutdown_drains_in_flight_work() {
    // Fire a heavy request, wait until the server has demonstrably
    // started on it (its context-cache miss is visible in the metrics),
    // then ask for shutdown from another client: the in-flight request
    // must still get its real answer.
    let server = server_with(2, 16);
    let addr = server.local_addr();
    let worker = thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .analyze(bench("nsichneu"), 1e-4, 1e-15)
            .expect("transport")
    });

    let mut controller = Client::connect(addr).expect("connect");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    loop {
        let stats = by_name(controller.metrics().expect("metrics"));
        if stats["memory_misses"] > 0 || stats["queued"] > 0 || stats["served"] > 0 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "request never started"
        );
        thread::sleep(std::time::Duration::from_millis(2));
    }
    controller.shutdown_server().expect("shutdown ack");

    match worker.join().expect("worker finished cleanly") {
        Response::Analysis { row, .. } => assert_eq!(row.name, "nsichneu"),
        other => panic!("in-flight request lost to shutdown: {other:?}"),
    }
    let stats = by_name(server.shutdown());
    assert_eq!(stats["queued"], 0, "nothing left behind");
    assert!(stats["served"] >= 1);
}

#[test]
fn metrics_table_covers_legacy_stats_and_exact_quantiles() {
    let server = server_with(2, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Two traced requests: one cold, one warm — both feed the latency
    // and queue/service histograms.
    let trace = pwcet_obs::TraceId::mint();
    let response = client
        .analyze_traced(bench("fibcall"), 1e-4, 1e-15, trace.0)
        .expect("traced analyze");
    let Response::Analysis {
        micros,
        trace: echoed,
        stages,
        ..
    } = response
    else {
        panic!("expected an analysis response");
    };
    assert_eq!(echoed, trace.0);
    analyze(&mut client, bench("fibcall"));

    // For a single Analyze, the leaf stages plus queue wait are
    // disjoint slices of the request, so their sum is bounded by the
    // wall-clock latency; `service` is their parent, not a sibling.
    assert!(!stages.is_empty(), "cold analyze must report stages");
    let leaf_sum: u64 = stages
        .iter()
        .filter(|t| t.stage != pwcet_obs::Stage::Service)
        .map(|t| t.micros)
        .sum();
    assert!(
        leaf_sum <= micros,
        "stage sum {leaf_sum}us exceeds latency {micros}us: {stages:?}"
    );
    // The shard layer splits waiting from working.
    assert!(stages
        .iter()
        .any(|t| t.stage == pwcet_obs::Stage::QueueWait));
    assert!(stages.iter().any(|t| t.stage == pwcet_obs::Stage::Service));

    let table = client.metrics().expect("metrics verb");
    let names: std::collections::BTreeMap<&str, u64> =
        table.iter().map(|(n, v)| (n.as_str(), *v)).collect();

    // Every stable name appears (the `fleet_*` transport rows need a
    // fleet, which this server does not have).
    for name in METRIC_NAMES.iter().filter(|n| !n.starts_with("fleet_")) {
        assert!(
            names.contains_key(name),
            "metrics table is missing {name:?}"
        );
    }
    assert_eq!(names["served"], 2);

    // Histogram-backed instruments expose exact quantile rows, and two
    // requests really landed in them.
    for instrument in ["request_latency_us", "queue_wait_us", "service_us"] {
        for suffix in ["count", "sum", "mean", "p50", "p95", "p99", "max"] {
            assert!(
                names.contains_key(format!("{instrument}_{suffix}").as_str()),
                "missing histogram row {instrument}_{suffix}"
            );
        }
    }
    assert_eq!(names["request_latency_us_count"], 2);
    assert_eq!(names["queue_wait_us_count"], 2);
    assert_eq!(names["service_us_count"], 2);
    assert!(names["request_latency_us_p99"] >= names["request_latency_us_p50"]);
    assert!(names["request_latency_us_max"] >= names["request_latency_us_p99"]);

    server.shutdown();
}

#[test]
fn stats_expose_tier_hit_counts() {
    let server = server_with(2, 8);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let before = by_name(client.metrics().expect("metrics"));
    assert_eq!(before["served"], 0);
    analyze(&mut client, bench("fibcall"));
    analyze(&mut client, bench("fibcall"));
    let after = by_name(client.metrics().expect("metrics"));
    assert_eq!(after["served"], 2);
    assert_eq!(after["served_cold"], 1);
    assert_eq!(after["served_memory"], 1);
    assert!(after["memory_hits"] >= 1);
    assert_eq!(after["shards"], 2);
    assert_eq!(after["queue_capacity"], 8);
    assert!(after["connections"] >= 1);
    server.shutdown();
}

fn metric(client: &mut Client, name: &str) -> u64 {
    client
        .metrics()
        .expect("metrics scrape")
        .into_iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("metrics table lacks {name}"))
        .1
}

/// The row a server must answer for `program`, computed in-process.
fn direct_row(program: &Program) -> (String, u64, u64, u64, u64) {
    let analysis = PwcetAnalyzer::new(AnalysisConfig::paper_default())
        .analyze(program)
        .expect("direct analysis");
    (
        program.name().to_string(),
        analysis.fault_free_wcet(),
        analysis.estimate(Protection::None).pwcet_at(1e-15),
        analysis
            .estimate(Protection::SharedReliableBuffer)
            .pwcet_at(1e-15),
        analysis.estimate(Protection::ReliableWay).pwcet_at(1e-15),
    )
}

fn served_row(row: &AnalysisRow) -> (String, u64, u64, u64, u64) {
    (
        row.name.clone(),
        row.fault_free_wcet,
        row.pwcet_none,
        row.pwcet_srb,
        row.pwcet_rw,
    )
}

#[test]
fn same_name_different_bodies_are_compiled_apart() {
    let server = server_with(2, 16);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let small = Program::new("twin").with_function("main", stmt::loop_(10, stmt::compute(8)));
    let large = Program::new("twin").with_function(
        "main",
        stmt::loop_(
            40,
            stmt::seq([stmt::compute(300), stmt::loop_(4, stmt::compute(90))]),
        ),
    );
    let expected = [direct_row(&small), direct_row(&large)];
    assert_ne!(expected[0], expected[1], "the bodies must analyze apart");
    for round in 0..2 {
        for (program, expected) in [&small, &large].into_iter().zip(&expected) {
            let (row, _) = analyze(&mut client, program.clone());
            assert_eq!(&served_row(&row), expected, "round {round}");
        }
    }
    assert_eq!(metric(&mut client, "compile_memo_misses"), 2);
    assert_eq!(metric(&mut client, "compile_memo_hits"), 2);
    assert_eq!(metric(&mut client, "compile_memo_entries"), 2);
    // The repeats were memory-tier hits whose three estimates came from
    // the estimate memo.
    assert_eq!(metric(&mut client, "estimate_memo_misses"), 6);
    assert_eq!(metric(&mut client, "estimate_memo_hits"), 6);
    server.shutdown();
}

#[test]
fn same_body_under_two_names_reports_each_callers_name() {
    let server = server_with(2, 16);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let body = stmt::loop_(
        12,
        stmt::seq([stmt::compute(40), stmt::loop_(3, stmt::compute(20))]),
    );
    let alpha = Program::new("alpha").with_function("main", body.clone());
    let beta = Program::new("beta").with_function("main", body);
    let (_, wcet, none, srb, rw) = direct_row(&alpha);
    for round in 0..2 {
        for program in [&alpha, &beta] {
            let (row, _) = analyze(&mut client, program.clone());
            assert_eq!(
                served_row(&row),
                (program.name().to_string(), wcet, none, srb, rw),
                "round {round}"
            );
        }
    }
    assert_eq!(metric(&mut client, "compile_memo_hits"), 2);
    server.shutdown();
}

#[test]
fn streaming_more_programs_than_the_cap_keeps_the_compile_memo_bounded() {
    let server = server_with(2, 16);
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let programs: Vec<Program> = (0..pwcet_serve::COMPILE_MEMO_CAPACITY as u32 + 8)
        .map(|i| {
            Program::new(format!("stream{i}"))
                .with_function("main", stmt::loop_(2 + i % 7, stmt::compute(5 + i)))
        })
        .collect();
    // Two passes: the second re-requests programs the first pass evicted.
    for pass in 0..2 {
        for program in &programs {
            let (row, _) = analyze(&mut client, program.clone());
            assert_eq!(served_row(&row), direct_row(program), "pass {pass}");
            assert!(
                metric(&mut client, "compile_memo_entries")
                    <= pwcet_serve::COMPILE_MEMO_CAPACITY as u64
            );
        }
    }
    assert_eq!(
        metric(&mut client, "compile_memo_entries"),
        pwcet_serve::COMPILE_MEMO_CAPACITY as u64
    );
    // FIFO over a cyclic stream longer than the cap never hits.
    assert_eq!(metric(&mut client, "compile_memo_hits"), 0);
    assert_eq!(
        metric(&mut client, "compile_memo_misses"),
        2 * programs.len() as u64
    );
    server.shutdown();
}

/// The table of a node that has served every tier names exactly
/// [`METRIC_NAMES`], once each — no name is lost, none appears twice
/// (two sources writing one name would surface as a duplicate row) —
/// and the tier and memo counters read what this request sequence
/// produces.
#[test]
fn metrics_table_names_are_stable_and_single_sourced() {
    let program = |name: &str, iterations: u32| {
        Program::new(name).with_function(
            "main",
            stmt::seq(vec![
                stmt::loop_(iterations, stmt::compute(16)),
                stmt::if_else(stmt::compute(9), stmt::loop_(12, stmt::compute(5))),
            ]),
        )
    };
    let dir = std::env::temp_dir().join(format!("pwcet-serve-names-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || {
        ServerConfig {
            shards: 2,
            queue_capacity: 8,
            ..ServerConfig::default()
        }
        .with_disk_dir(&dir)
    };

    // p1 lands on disk; the peer holds p2.
    let seeder = Server::bind("127.0.0.1:0", config()).expect("bind seeder");
    analyze(
        &mut Client::connect(seeder.local_addr()).expect("connect"),
        program("p1", 40),
    );
    seeder.shutdown();
    let peer = server_with(2, 8);
    analyze(
        &mut Client::connect(peer.local_addr()).expect("connect"),
        program("p2", 50),
    );

    let node = Server::bind(
        "127.0.0.1:0",
        ServerConfig {
            fleet: Some(pwcet_serve::FleetConfig::new(
                "127.0.0.1:1", // placeholder self entry, never dialed
                [peer.local_addr().to_string()],
            )),
            ..config()
        },
    )
    .expect("bind node");
    let mut client = Client::connect(node.local_addr()).expect("connect");
    let tiers: Vec<ReuseTier> = [("p1", 40), ("p1", 40), ("p2", 50), ("p3", 60)]
        .into_iter()
        .map(|(name, iterations)| {
            analyze(&mut client, program(name, iterations))
                .0
                .served_from
        })
        .collect();
    assert_eq!(
        tiers,
        [
            ReuseTier::Disk,
            ReuseTier::Memory,
            ReuseTier::Network,
            ReuseTier::Cold
        ]
    );

    let table = client.metrics().expect("metrics");
    let names: Vec<&str> = table.iter().map(|(n, _)| n.as_str()).collect();
    let mut expected = METRIC_NAMES.to_vec();
    expected.sort_unstable();
    assert_eq!(
        names, expected,
        "the table is sorted and names each row once"
    );
    let table = by_name(table);
    for (name, value) in [
        ("served", 4),
        ("served_disk", 1),
        ("served_memory", 1),
        ("served_network", 1),
        ("served_cold", 1),
        ("disk_hits", 1),
        ("disk_misses", 2),
        ("disk_writes", 2),
        ("network_hits", 1),
        ("network_misses", 1),
        ("network_offers", 1),
        ("cold_builds", 1),
        ("memory_hits", 1),
        ("memory_misses", 3),
        ("memory_len", 3),
        ("compile_memo_hits", 1),
        ("compile_memo_misses", 3),
        ("estimate_memo_hits", 3),
        ("estimate_memo_misses", 9),
        ("peers", 1),
        ("shards", 2),
        ("queue_capacity", 8),
    ] {
        assert_eq!(table[name], value, "{name}");
    }
    drop(client);
    node.shutdown();
    peer.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
