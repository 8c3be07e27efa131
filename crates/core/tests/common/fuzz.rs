//! Seeded mutation fuzzing of the workspace's binary decoders, shared by
//! the `PWCX` entry fuzz test (`pwcet-core`'s codec unit tests) and the
//! `PWCQ` frame fuzz test (the workspace root's `tests/decoder_fuzz.rs`).
//!
//! Every mutant is derived from a valid sealed buffer by one to four
//! stacked mutations of its payload — bit flips, truncations, splices
//! from another corpus payload, and forged `u64` length fields — and is
//! then resealed with a correct length and FNV checksum, so the payload
//! decoders really run instead of the checksum rejecting nearly every
//! mutant. For each mutant [`fuzz`] asserts that the decoder does not
//! panic, that an `Ok` decode re-encodes to exactly the mutant's bytes,
//! and that no single allocation during the decode exceeds a fixed
//! multiple of the mutant's length (measured by [`CountingAlloc`], which
//! this module installs as the including test binary's global
//! allocator). The random stream is `pwcet-chaos`'s splitmix64, so a
//! failure replays from its printed seed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use pwcet_chaos::{splitmix64, SPLITMIX64_INCREMENT};

/// The system allocator, plus a per-thread record of the largest single
/// allocation made while a [`largest_allocation`] scope is open.
pub struct CountingAlloc;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn
    // down at thread exit.
    let _ = ARMED.try_with(|armed| {
        if armed.get() {
            LARGEST.with(|largest| largest.set(largest.get().max(size)));
        }
    });
}

// SAFETY: every call forwards to `System` with the caller's arguments;
// the bookkeeping touches only const-initialized thread-local cells and
// never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Runs `f`, returning its result and the largest single allocation it
/// made on this thread.
pub fn largest_allocation<R>(f: impl FnOnce() -> R) -> (R, usize) {
    LARGEST.with(|largest| largest.set(0));
    ARMED.with(|armed| armed.set(true));
    let result = f();
    ARMED.with(|armed| armed.set(false));
    (result, LARGEST.with(Cell::get))
}

/// A splitmix64 stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(SPLITMIX64_INCREMENT);
        out
    }

    /// Uniform-ish in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A value a forged length field takes: the boundaries a bounds check
/// can get wrong, plus noise.
fn forged_length(stream: &mut Stream, payload_len: usize) -> u64 {
    match stream.below(8) {
        0 => 0,
        1 => 1,
        2 => payload_len as u64,
        3 => payload_len as u64 + 1,
        4 => u64::MAX,
        5 => 1 << 60,
        6 => stream.next() % 256,
        _ => stream.next(),
    }
}

/// One mutant of `payload`: one to four stacked mutations.
fn mutate(payload: &[u8], corpus: &[&[u8]], stream: &mut Stream) -> Vec<u8> {
    let mut bytes = payload.to_vec();
    for _ in 0..=stream.below(4) {
        match stream.below(4) {
            0 if !bytes.is_empty() => {
                let at = stream.below(bytes.len());
                bytes[at] ^= 1 << stream.below(8);
            }
            1 if !bytes.is_empty() => {
                let keep = stream.below(bytes.len());
                bytes.truncate(keep);
            }
            2 => {
                let donor = corpus[stream.below(corpus.len())];
                let from = stream.below(donor.len() + 1);
                let len = stream.below(donor.len() - from + 1);
                let at = stream.below(bytes.len() + 1);
                let cut = stream.below(bytes.len() - at + 1);
                bytes.splice(at..at + cut, donor[from..from + len].iter().copied());
            }
            _ if bytes.len() >= 8 => {
                let at = stream.below(bytes.len() - 7);
                let forged = forged_length(stream, bytes.len());
                bytes[at..at + 8].copy_from_slice(&forged.to_le_bytes());
            }
            _ => {}
        }
    }
    bytes
}

/// What a fuzz run exercised.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Mutants decoded.
    pub mutants: usize,
    /// Mutants that decoded `Ok` (and re-encoded identically).
    pub decoded: usize,
}

/// Fuzzes one decoder from a corpus of valid payloads (the bytes after
/// the header). `seal` wraps a payload in a correct header, `decode` is
/// the decoder under test and `encode` its inverse. `alloc_per_byte` is
/// the bound on any single decode allocation per byte of the sealed
/// mutant.
///
/// # Panics
///
/// On a decoder panic, a non-canonical `Ok`, or an allocation over the
/// bound, naming the seed and mutant index.
pub fn fuzz<T, E: Debug>(
    seed: u64,
    mutants: usize,
    corpus: &[Vec<u8>],
    alloc_per_byte: usize,
    seal: impl Fn(&[u8]) -> Vec<u8>,
    decode: impl Fn(&[u8]) -> Result<T, E>,
    encode: impl Fn(&T) -> Vec<u8>,
) -> Outcome {
    let payloads: Vec<&[u8]> = corpus.iter().map(Vec::as_slice).collect();
    let mut stream = Stream(seed);
    let mut outcome = Outcome::default();
    for index in 0..mutants {
        let base = payloads[stream.below(payloads.len())];
        let sealed = seal(&mutate(base, &payloads, &mut stream));
        let (decoded, largest) =
            largest_allocation(|| catch_unwind(AssertUnwindSafe(|| decode(&sealed))));
        let Ok(decoded) = decoded else {
            panic!("seed {seed:#x} mutant {index}: the decoder panicked on {sealed:02x?}");
        };
        assert!(
            largest <= alloc_per_byte * sealed.len(),
            "seed {seed:#x} mutant {index}: a {largest}-byte allocation decoding \
             {} bytes exceeds {alloc_per_byte}× the input",
            sealed.len()
        );
        outcome.mutants += 1;
        if let Ok(value) = decoded {
            assert!(
                encode(&value) == sealed,
                "seed {seed:#x} mutant {index}: an Ok decode re-encodes differently"
            );
            outcome.decoded += 1;
        }
    }
    outcome
}
