//! Seeded mutation fuzzing of the `PWCQ` frame decoders
//! (`decode_request` / `decode_response`): no mutant may panic a
//! decoder, every `Ok` must re-encode byte-identically, and no single
//! allocation during a decode may exceed [`FRAME_ALLOC_PER_BYTE`] times
//! the frame's length. The harness is shared with the `PWCX` entry
//! fuzz test of `pwcet-core`.

#[path = "../crates/core/tests/common/fuzz.rs"]
mod fuzz;

use std::mem::size_of;
use std::ops::Range;

use fault_aware_pwcet::core::bytes::HEADER_LEN;
use fault_aware_pwcet::core::ReuseTier;
use fault_aware_pwcet::obs::Stage;
use fault_aware_pwcet::progen::{stmt, Function, Program, Stmt};
use fault_aware_pwcet::serve::protocol::{
    self, decode_request, decode_response, encode_request, encode_response, AnalysisRow, ErrorCode,
    GeometryRow, PfailRow, Request, Response, StageTiming,
};

/// The largest decode allocation per frame byte the fuzzer allows,
/// derived from the decoders' `seq_len` call sites: a site admits `n`
/// elements only when `n × min_elem_bytes` bytes remain, and then
/// allocates `n × size_of::<T>()` (a push-grown list at most twice
/// that), so no allocation exceeds the largest `size_of::<T>() /
/// min_elem_bytes` over the sites per input byte. The largest is a
/// statement sequence, `Vec<Stmt>`: 32 bytes per element under a
/// 1-byte minimum (every ratio is checked in [`fuzz_frames`]).
const FRAME_ALLOC_PER_BYTE: usize = 32;

fn program() -> Program {
    Program::new("fuzzed")
        .with_function(
            "main",
            stmt::seq([
                stmt::compute(8),
                stmt::loop_(40, stmt::if_else(stmt::compute(4), stmt::call("leaf"))),
            ]),
        )
        .with_function("leaf", stmt::compute(12))
}

fn requests() -> Vec<Request> {
    vec![
        Request::Analyze {
            program: program(),
            pfail: 1e-4,
            target_p: 1e-15,
            trace: 7,
        },
        Request::Batch {
            programs: vec![program(), Program::new("empty")],
            pfail: 1e-5,
            target_p: 1e-12,
            trace: 0,
        },
        Request::SweepPfail {
            program: program(),
            pfails: vec![1e-6, 1e-4, 1e-3],
            target_p: 1e-15,
            trace: 1,
        },
        Request::SweepGeometry {
            program: program(),
            sets: 16,
            block_bytes: 16,
            way_counts: vec![4, 2, 1],
            target_p: 1e-15,
            trace: 2,
        },
        Request::Shutdown,
        Request::Metrics,
        Request::FetchEntry { key: 42, trace: 3 },
        Request::OfferEntry {
            key: 9,
            entry: b"PWCX entry bytes".to_vec(),
        },
    ]
}

fn responses() -> Vec<Response> {
    let row = AnalysisRow {
        name: "crc".into(),
        fault_free_wcet: 1000,
        pwcet_none: 2000,
        pwcet_srb: 1500,
        pwcet_rw: 1100,
        served_from: ReuseTier::Disk,
    };
    let stages = vec![
        StageTiming {
            stage: Stage::QueueWait,
            micros: 12,
            count: 1,
        },
        StageTiming {
            stage: Stage::Convolve,
            micros: 9,
            count: 3,
        },
    ];
    vec![
        Response::Analysis {
            row: row.clone(),
            micros: 412,
            trace: 5,
            stages: stages.clone(),
        },
        Response::Batch {
            rows: vec![row.clone(), row],
            micros: 999,
            trace: 0,
            stages: stages.clone(),
        },
        Response::PfailSweep {
            name: "crc".into(),
            served_from: ReuseTier::Memory,
            rows: vec![PfailRow {
                pfail: 1e-4,
                pwcet_none: 2000,
                pwcet_srb: 1500,
                pwcet_rw: 1100,
            }],
            micros: 10,
            trace: 3,
            stages: stages.clone(),
        },
        Response::GeometrySweep {
            name: "crc".into(),
            served_from: ReuseTier::Derived,
            rows: vec![GeometryRow {
                ways: 4,
                pwcet_none: 2000,
                pwcet_srb: 1500,
                pwcet_rw: 1100,
            }],
            micros: 10,
            trace: 4,
            stages,
        },
        Response::Error {
            code: ErrorCode::Overloaded,
            message: "shard 1 queue full".into(),
            retry_after_ms: Some(320),
        },
        Response::Error {
            code: ErrorCode::Malformed,
            message: "bad tag".into(),
            retry_after_ms: None,
        },
        Response::ShutdownStarted,
        Response::Entry {
            key: 1,
            entry: Some(vec![1, 2, 3, 4]),
        },
        Response::Entry {
            key: 2,
            entry: None,
        },
        Response::OfferAck { stored: true },
        Response::Metrics {
            entries: vec![("served".into(), 4), ("cold_builds".into(), 1)],
        },
    ]
}

fn payloads(frames: impl IntoIterator<Item = Vec<u8>>) -> Vec<Vec<u8>> {
    frames
        .into_iter()
        .map(|frame| frame[HEADER_LEN..].to_vec())
        .collect()
}

fn fuzz_frames(seeds: Range<u64>, mutants: usize) {
    for (elem, min) in [
        (size_of::<Stmt>(), 1),
        (2 * size_of::<Function>(), 9),
        (size_of::<Program>(), 9),
        (size_of::<AnalysisRow>(), 13),
        (size_of::<PfailRow>(), 32),
        (size_of::<GeometryRow>(), 28),
        (size_of::<StageTiming>(), 13),
        (size_of::<(String, u64)>(), 16),
        (size_of::<f64>(), 8),
        (size_of::<u32>(), 4),
    ] {
        assert!(elem / min <= FRAME_ALLOC_PER_BYTE, "{elem}/{min}");
    }
    let request_corpus = payloads(requests().iter().map(encode_request));
    let response_corpus = payloads(responses().iter().map(encode_response));
    let (mut requests_decoded, mut responses_decoded) = (0, 0);
    for seed in seeds {
        requests_decoded += fuzz::fuzz(
            seed,
            mutants,
            &request_corpus,
            FRAME_ALLOC_PER_BYTE,
            |payload| protocol::FRAME.seal(payload),
            decode_request,
            encode_request,
        )
        .decoded;
        responses_decoded += fuzz::fuzz(
            seed,
            mutants,
            &response_corpus,
            FRAME_ALLOC_PER_BYTE,
            |payload| protocol::FRAME.seal(payload),
            decode_response,
            encode_response,
        )
        .decoded;
    }
    // Resealed mutants reach the payload decoders: some decode.
    assert!(requests_decoded > 0 && responses_decoded > 0);
}

#[test]
fn mutated_frames_never_panic_overallocate_or_decode_non_canonically() {
    fuzz_frames(0..4, 4_000);
}

/// The deep variant, run by the nightly `--include-ignored` job.
#[test]
#[ignore]
fn mutated_frames_deep() {
    fuzz_frames(0..64, 20_000);
}
