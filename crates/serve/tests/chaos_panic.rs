//! Regression: an injected panic inside a shard job is contained — the
//! client gets an error *response* (not a dropped connection), the
//! panic is counted, and the very same shard serves the next request.
//!
//! Separate test binary from the chaos suite because a fault plan is
//! process-global and install-once; this one fires only the
//! `shard_panic` point.

#![cfg(feature = "chaos")]

use std::sync::Arc;

use pwcet_chaos::{FaultPlan, FaultPoint};
use pwcet_progen::{stmt, Program};
use pwcet_serve::{Client, ErrorCode, Response, Server, ServerConfig};

/// Panic on the first shard job, then stay quiet for a comfortable run
/// of follow-ups. The firing stream is deterministic in (seed, call
/// index), so the seed is *searched* rather than hoped for — any rate
/// would do, the pattern is what's pinned.
const PANIC_RATE: u32 = 2_500;
const QUIET_CALLS: u64 = 8;

fn probe(seed: u64) -> bool {
    let plan = FaultPlan::new(seed).with_rate(FaultPoint::ShardPanic, PANIC_RATE);
    if plan.roll(FaultPoint::ShardPanic).is_none() {
        return false; // call 0 must fire
    }
    (1..=QUIET_CALLS).all(|_| plan.roll(FaultPoint::ShardPanic).is_none())
}

#[test]
fn injected_shard_panic_answers_an_error_and_the_shard_survives() {
    let seed = (0..20_000u64)
        .find(|&s| probe(s))
        .expect("a fire-then-quiet seed exists well inside 20k candidates");
    let plan = Arc::new(FaultPlan::new(seed).with_rate(FaultPoint::ShardPanic, PANIC_RATE));
    assert!(
        pwcet_chaos::install(Arc::clone(&plan)),
        "this binary must own the process-global plan"
    );

    // One shard: whatever panics and whatever comes next share a worker.
    let config = ServerConfig {
        shards: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", config).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let program = Program::new("panic-probe").with_function(
        "main",
        stmt::seq(vec![
            stmt::loop_(24, stmt::compute(10)),
            stmt::if_else(stmt::compute(6), stmt::loop_(8, stmt::compute(4))),
        ]),
    );

    // First job: the worker panics mid-analysis. The contract is a
    // clean error response on the same connection — the panic never
    // escapes the shard, never kills the worker thread pool, never
    // tears the socket.
    let first = client
        .analyze(program.clone(), 1e-4, 1e-15)
        .expect("transport survives the panic");
    match first {
        Response::Error { code, message, .. } => {
            assert_eq!(code, ErrorCode::Analysis, "panic surfaces as {message:?}");
            assert!(
                message.contains("panic"),
                "the refusal should say what happened: {message:?}"
            );
        }
        other => panic!("expected an error response, got {other:?}"),
    }
    assert_eq!(plan.fired(FaultPoint::ShardPanic), 1, "exactly one fire");

    // Same connection, same shard, quiet seed window: the next requests
    // all succeed, and repeats agree bit-for-bit (the panicked job left
    // no partial state behind).
    let mut rows = Vec::new();
    for _ in 0..3 {
        match client
            .analyze(program.clone(), 1e-4, 1e-15)
            .expect("transport ok")
        {
            Response::Analysis { row, .. } => rows.push(row),
            other => panic!("expected analysis after the panic, got {other:?}"),
        }
    }
    assert!(
        rows.windows(2).all(|w| {
            let normalized = pwcet_serve::AnalysisRow {
                served_from: w[0].served_from,
                ..w[1].clone()
            };
            w[0] == normalized
        }),
        "post-panic repeats must agree: {rows:?}"
    );

    // The panic is a first-class counter, visible over the wire.
    let metrics = client.metrics().expect("metrics");
    let worker_panics = metrics
        .iter()
        .find(|(name, _)| name == "worker_panics")
        .map(|(_, value)| *value)
        .expect("worker_panics row");
    assert_eq!(worker_panics, 1);

    let stats: std::collections::BTreeMap<String, u64> = server.shutdown().into_iter().collect();
    assert_eq!(stats["queued"], 0, "clean drain");
    assert!(
        stats["served"] >= 3,
        "the shard kept serving after the panic"
    );
}
