//! Reference rows and the answer check.
//!
//! The oracle is the analysis itself run the plainest way the public API
//! allows: a `Parallelism::Sequential` analyzer with no reuse plane, one
//! context per program shared across the fault rates a workload uses.
//! Every op's row must equal its reference row bit for bit and keep the
//! protection ordering `fault_free ≤ rw ≤ srb ≤ none`.

use pwcet_core::PwcetAnalyzer;
use pwcet_core::{AnalysisConfig, AnalysisContext, Parallelism, ProgramAnalysis, Protection};
use pwcet_progen::Program;
use pwcet_serve::AnalysisRow;

/// The exceedance probability every pWCET is read at.
pub const TARGET_P: f64 = 1e-15;

/// How many mismatches are kept verbatim for the failure message.
const KEPT_DETAILS: usize = 8;

/// One answer: the fault-free WCET and the pWCET of each protection level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    pub fault_free: u64,
    pub none: u64,
    pub srb: u64,
    pub rw: u64,
}

impl Row {
    /// The row of an in-process analysis: three estimates read at
    /// [`TARGET_P`].
    pub fn of_analysis(analysis: &ProgramAnalysis) -> Self {
        Self {
            fault_free: analysis.fault_free_wcet(),
            none: analysis.estimate(Protection::None).pwcet_at(TARGET_P),
            srb: analysis
                .estimate(Protection::SharedReliableBuffer)
                .pwcet_at(TARGET_P),
            rw: analysis
                .estimate(Protection::ReliableWay)
                .pwcet_at(TARGET_P),
        }
    }

    /// The row a server answered.
    pub fn of_wire(row: &AnalysisRow) -> Self {
        Self {
            fault_free: row.fault_free_wcet,
            none: row.pwcet_none,
            srb: row.pwcet_srb,
            rw: row.pwcet_rw,
        }
    }

    /// Whether the protection ordering holds.
    pub fn ordered(&self) -> bool {
        self.fault_free <= self.rw && self.rw <= self.srb && self.srb <= self.none
    }
}

/// Reference rows for every (program, pfail) pair a workload uses.
#[derive(Debug, Clone)]
pub struct Oracle {
    pfails: Vec<f64>,
    /// `rows[program][pfail index]`.
    rows: Vec<Vec<Row>>,
}

impl Oracle {
    /// Computes the reference rows of `programs` at each of `pfails`.
    ///
    /// # Errors
    ///
    /// A message naming the program whose reference analysis failed.
    pub fn build(programs: &[Program], pfails: &[f64]) -> Result<Self, String> {
        let base = AnalysisConfig::paper_default().with_parallelism(Parallelism::Sequential);
        let mut rows = Vec::with_capacity(programs.len());
        for program in programs {
            let fail = |e: &dyn std::fmt::Display| format!("oracle for {}: {e}", program.name());
            let compiled = program.compile(base.code_base).map_err(|e| fail(&e))?;
            let context =
                AnalysisContext::build_with_mode(&compiled, base.geometry, base.classification)
                    .map_err(|e| fail(&e))?;
            let mut per_pfail = Vec::with_capacity(pfails.len());
            for &pfail in pfails {
                let config = base.with_pfail(pfail).map_err(|e| fail(&e))?;
                let analysis = PwcetAnalyzer::new(config)
                    .analyze_with_context(&context)
                    .map_err(|e| fail(&e))?;
                per_pfail.push(Row::of_analysis(&analysis));
            }
            rows.push(per_pfail);
        }
        Ok(Self {
            pfails: pfails.to_vec(),
            rows,
        })
    }

    /// The fault rates, in index order.
    pub fn pfails(&self) -> &[f64] {
        &self.pfails
    }

    /// The reference row of `program` at pfail index `pfail`.
    pub fn expected(&self, program: usize, pfail: usize) -> Row {
        self.rows[program][pfail]
    }

    /// Corrupts the first program's reference rows, so a test can check
    /// that the comparison catches a wrong answer.
    pub fn tamper(&mut self) {
        for row in &mut self.rows[0] {
            row.none += 1;
        }
    }
}

/// Counts the rows that differ from the oracle or break the ordering.
#[derive(Debug, Default)]
pub struct Checker {
    wrong: u64,
    details: Vec<String>,
}

impl Checker {
    /// Records one mismatch described by `detail`.
    pub fn wrong(&mut self, detail: String) {
        self.wrong += 1;
        if self.details.len() < KEPT_DETAILS {
            self.details.push(detail);
        }
    }

    /// Compares `got` for `names[program]` at pfail index `pfail`.
    pub fn check(
        &mut self,
        oracle: &Oracle,
        names: &[&str],
        program: usize,
        pfail: usize,
        got: Row,
    ) {
        let expected = oracle.expected(program, pfail);
        if got != expected || !got.ordered() {
            self.wrong(format!(
                "{} at pfail {:e}: got {got:?}, expected {expected:?}",
                names[program],
                oracle.pfails()[pfail]
            ));
        }
    }

    /// Adds another checker's findings.
    pub fn merge(&mut self, other: Checker) {
        self.wrong += other.wrong;
        for detail in other.details {
            if self.details.len() < KEPT_DETAILS {
                self.details.push(detail);
            }
        }
    }

    /// Mismatches so far.
    pub fn count(&self) -> u64 {
        self.wrong
    }

    /// The first few mismatches, verbatim.
    pub fn details(&self) -> &[String] {
        &self.details
    }
}
