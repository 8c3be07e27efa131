//! The server's bounded memo of compiled request programs.
//!
//! Design-stage clients re-query the same programs, and every request
//! carries its program as a DSL tree. Compiling that tree again on each
//! request costs more than the warm analysis it leads to, so each
//! server keeps the most recent distinct programs compiled. Entries are
//! found by a fingerprint of the program and confirmed by full equality
//! with the stored program, so a fingerprint collision can only cost a
//! recompile, never hand back another program's image. The compiled
//! program also memoizes its content digest, so a hit skips the
//! content-key hashing as well.

use std::collections::hash_map::DefaultHasher;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use pwcet_obs::{Counter, Gauge, Registry};
use pwcet_progen::{CompiledProgram, ProgenError, Program};

/// Distinct programs a server keeps compiled; the oldest is evicted
/// first.
pub const COMPILE_MEMO_CAPACITY: usize = 64;

type Entry = (u64, Program, Arc<CompiledProgram>);

/// Compiled programs at one code base, with hit/miss/entry instruments
/// (`compile_memo_hits`, `compile_memo_misses`, `compile_memo_entries`).
pub(crate) struct CompileMemo {
    code_base: u32,
    entries: Mutex<VecDeque<Entry>>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    resident: Arc<Gauge>,
}

impl CompileMemo {
    pub(crate) fn new(code_base: u32, registry: &Registry) -> Self {
        Self {
            code_base,
            entries: Mutex::new(VecDeque::with_capacity(COMPILE_MEMO_CAPACITY)),
            hits: registry.counter("compile_memo_hits"),
            misses: registry.counter("compile_memo_misses"),
            resident: registry.gauge("compile_memo_entries"),
        }
    }

    /// `program` compiled at the memo's code base, compiling on a miss.
    /// Failures are not memoized.
    pub(crate) fn get_or_compile(
        &self,
        program: &Program,
    ) -> Result<Arc<CompiledProgram>, ProgenError> {
        let fingerprint = fingerprint(program);
        if let Some(compiled) = self.find(fingerprint, program) {
            self.hits.inc();
            return Ok(compiled);
        }
        self.misses.inc();
        let compiled = Arc::new(program.compile(self.code_base)?);
        let mut entries = self.entries.lock().expect("compile memo lock");
        if !entries
            .iter()
            .any(|(fp, stored, _)| *fp == fingerprint && stored == program)
        {
            if entries.len() == COMPILE_MEMO_CAPACITY {
                entries.pop_front();
            }
            entries.push_back((fingerprint, program.clone(), Arc::clone(&compiled)));
            self.resident.set(entries.len() as u64);
        }
        Ok(compiled)
    }

    fn find(&self, fingerprint: u64, program: &Program) -> Option<Arc<CompiledProgram>> {
        let entries = self.entries.lock().expect("compile memo lock");
        entries
            .iter()
            .find(|(fp, stored, _)| *fp == fingerprint && stored == program)
            .map(|(_, _, compiled)| Arc::clone(compiled))
    }
}

fn fingerprint(program: &Program) -> u64 {
    let mut hasher = DefaultHasher::new();
    program.hash(&mut hasher);
    hasher.finish()
}
