//! Per-context memo of fault-penalty distributions.
//!
//! Once a context's solve artifacts are fixed (geometry, timing, IPET
//! options — and with them the fault miss map and the SRB column), a
//! penalty distribution depends only on the fault model's `pfail`, the
//! protection level, and the convolution parameters. Re-queries of the
//! same program at the same fault rate are the common case of
//! design-stage use, so each distribution is computed once and shared
//! as an [`Arc`]: a hit costs a refcount bump, no convolution and no
//! copy.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use pwcet_obs::{Counter, Registry};
use pwcet_prob::{ConvolutionParams, DiscreteDistribution};

use crate::estimate::Protection;

/// Penalty distributions memoized per solve configuration of a context
/// (three protection levels × eight fault-model/convolution settings);
/// the oldest entry is evicted first. At the paper's geometry a whole
/// suite at one `pfail` holds about 40k support points, so the cap keeps
/// every context's memo small.
pub const ESTIMATE_MEMO_CAPACITY: usize = 3 * 8;

/// Everything a penalty distribution depends on beyond the solve
/// artifacts it is computed from. Floats are keyed by their bits, so
/// only bit-identical inputs share an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PenaltyKey {
    pfail_bits: u64,
    protection: Protection,
    prune_epsilon_bits: u64,
    max_support: usize,
}

impl PenaltyKey {
    pub(crate) fn new(pfail: f64, protection: Protection, params: &ConvolutionParams) -> Self {
        Self {
            pfail_bits: pfail.to_bits(),
            protection,
            prune_epsilon_bits: params.prune_epsilon.to_bits(),
            max_support: params.max_support,
        }
    }
}

/// A bounded FIFO of computed penalty distributions.
#[derive(Debug, Default)]
pub(crate) struct PenaltyMemo {
    entries: Mutex<VecDeque<(PenaltyKey, Arc<DiscreteDistribution>)>>,
}

impl PenaltyMemo {
    /// The distribution for `key`, running `compute` on a miss. The
    /// convolution runs outside the lock; when two threads race on one
    /// key the first insert wins and the loser adopts it. The flag is
    /// `true` on a hit.
    pub(crate) fn get_or_compute(
        &self,
        key: PenaltyKey,
        compute: impl FnOnce() -> DiscreteDistribution,
    ) -> (Arc<DiscreteDistribution>, bool) {
        if let Some(found) = self.find(key) {
            return (found, true);
        }
        let computed = Arc::new(compute());
        let mut entries = self.entries.lock().expect("penalty memo lock");
        if let Some((_, existing)) = entries.iter().find(|(k, _)| *k == key) {
            return (Arc::clone(existing), false);
        }
        if entries.len() == ESTIMATE_MEMO_CAPACITY {
            entries.pop_front();
        }
        entries.push_back((key, Arc::clone(&computed)));
        (computed, false)
    }

    fn find(&self, key: PenaltyKey) -> Option<Arc<DiscreteDistribution>> {
        let entries = self.entries.lock().expect("penalty memo lock");
        entries
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, penalty)| Arc::clone(penalty))
    }

    /// Number of resident distributions.
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().expect("penalty memo lock").len()
    }
}

/// The `estimate_memo_hits` / `estimate_memo_misses` counters of a
/// reuse plane's metrics registry.
#[derive(Debug)]
pub(crate) struct MemoCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl MemoCounters {
    pub(crate) fn register(registry: &Registry) -> Self {
        Self {
            hits: registry.counter("estimate_memo_hits"),
            misses: registry.counter("estimate_memo_misses"),
        }
    }

    pub(crate) fn record(&self, hit: bool) {
        if hit {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
    }
}
