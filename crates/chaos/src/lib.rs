//! Deterministic seeded fault injection.
//!
//! A [`FaultPlan`] is built from one `u64` seed and drives named
//! [`FaultPoint`]s planted across the serving stack (wire framing, the
//! PWCX disk store, the peer fleet, shard execution). Whether a given
//! visit to a point fires depends only on `(seed, point, per-point call
//! index)` through a splitmix64 mix — never on thread interleaving
//! across points, wall-clock time, or an external RNG — so a failing
//! chaos run replays exactly from its printed seed.
//!
//! Every firing increments a per-point counter; [`FaultPlan::entries`]
//! exposes them as `chaos_fired_*` rows for the service's metrics
//! table, so tests can reconcile injected faults against the matching
//! degradation counters.
//!
//! The crate always compiles (it is `std`-only, like `pwcet-obs`); the
//! *call sites* in `pwcet-core` and `pwcet-serve` are compiled out
//! unless their `chaos` cargo feature is on, so production builds carry
//! no injection code at all.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The golden-ratio increment of the splitmix64 stream.
pub const SPLITMIX64_INCREMENT: u64 = 0x9e37_79b9_7f4a_7c15;

/// Finalize one splitmix64 output from a raw state word: fed `seed + k
/// × SPLITMIX64_INCREMENT` for `k = 0, 1, …` it yields the standard
/// splitmix64 stream of `seed`.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(SPLITMIX64_INCREMENT);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mix a plan seed, a fault-point id, and that point's call index into
/// one decision word. Point and call index enter through distinct
/// multiplies so streams for different points never coincide.
fn decision(seed: u64, point: u64, call: u64) -> u64 {
    splitmix64(
        seed.wrapping_add(point.wrapping_add(1).wrapping_mul(SPLITMIX64_INCREMENT))
            .wrapping_add(call.wrapping_mul(0x94d0_49bb_1331_11eb)),
    )
}

/// Named injection sites. Each maps to one planted call site (or one
/// tight family of sites) in the serving stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultPoint {
    /// Wire: cut a connection partway through reading a request frame.
    WireTornRead,
    /// Wire: delay a response write (latency fault, not a loss).
    WireDelayedWrite,
    /// Wire: drop the connection instead of writing the response.
    WireDisconnect,
    /// Disk: truncate an entry's bytes before the atomic write.
    DiskShortWrite,
    /// Disk: flip one byte of an entry after reading it back.
    DiskBitFlip,
    /// Disk: fail the entry write outright (ENOSPC-style).
    DiskWriteError,
    /// Peer: a fetch exchange times out.
    PeerTimeout,
    /// Peer: a fetched entry arrives corrupted.
    PeerCorruptEntry,
    /// Peer: a write-back offer is dropped before it is sent.
    PeerOfferDrop,
    /// Peer: dialing the peer is refused.
    PeerDialRefusal,
    /// Shard: the analysis job panics inside the worker.
    ShardPanic,
}

impl FaultPoint {
    /// Every point, in counter/display order.
    pub const ALL: [FaultPoint; 11] = [
        FaultPoint::WireTornRead,
        FaultPoint::WireDelayedWrite,
        FaultPoint::WireDisconnect,
        FaultPoint::DiskShortWrite,
        FaultPoint::DiskBitFlip,
        FaultPoint::DiskWriteError,
        FaultPoint::PeerTimeout,
        FaultPoint::PeerCorruptEntry,
        FaultPoint::PeerOfferDrop,
        FaultPoint::PeerDialRefusal,
        FaultPoint::ShardPanic,
    ];

    const COUNT: usize = Self::ALL.len();

    /// This point's position in [`ALL`](Self::ALL) — the index of its
    /// counter slots.
    pub fn index(self) -> usize {
        Self::ALL
            .iter()
            .position(|p| *p == self)
            .expect("every point is in ALL")
    }

    /// The stable snake_case name used in counter rows and logs.
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::WireTornRead => "wire_torn_read",
            FaultPoint::WireDelayedWrite => "wire_delayed_write",
            FaultPoint::WireDisconnect => "wire_disconnect",
            FaultPoint::DiskShortWrite => "disk_short_write",
            FaultPoint::DiskBitFlip => "disk_bit_flip",
            FaultPoint::DiskWriteError => "disk_write_error",
            FaultPoint::PeerTimeout => "peer_timeout",
            FaultPoint::PeerCorruptEntry => "peer_corrupt_entry",
            FaultPoint::PeerOfferDrop => "peer_offer_drop",
            FaultPoint::PeerDialRefusal => "peer_dial_refusal",
            FaultPoint::ShardPanic => "shard_panic",
        }
    }
}

/// Firing rates are expressed per [`RATE_SCALE`] visits (basis points
/// of probability): `rate = 500` fires ~5% of visits.
pub const RATE_SCALE: u32 = 10_000;

/// A seeded, deterministic fault plan: per-point firing rates plus the
/// per-point call and fired counters.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    rates: [u32; FaultPoint::COUNT],
    calls: [AtomicU64; FaultPoint::COUNT],
    fired: [AtomicU64; FaultPoint::COUNT],
}

impl FaultPlan {
    /// A plan with every rate at zero (no point ever fires).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rates: [0; FaultPoint::COUNT],
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
            fired: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Builder: set one point's firing rate (clamped to [`RATE_SCALE`]).
    pub fn with_rate(mut self, point: FaultPoint, per_10_000: u32) -> Self {
        self.rates[point.index()] = per_10_000.min(RATE_SCALE);
        self
    }

    /// Builder: set every point's firing rate at once.
    pub fn with_all_rates(mut self, per_10_000: u32) -> Self {
        self.rates = [per_10_000.min(RATE_SCALE); FaultPoint::COUNT];
        self
    }

    /// The seed the plan was built from (print this on failure).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured rate of one point.
    pub fn rate(&self, point: FaultPoint) -> u32 {
        self.rates[point.index()]
    }

    /// Visit a point: consume one call index and decide whether the
    /// fault fires. On a firing, returns `Some(entropy)` — a
    /// deterministic auxiliary word the site can use to shape the
    /// fault (which byte to flip, how long to delay) — and increments
    /// the point's fired counter.
    pub fn roll(&self, point: FaultPoint) -> Option<u64> {
        let i = point.index();
        let rate = self.rates[i];
        let call = self.calls[i].fetch_add(1, Ordering::Relaxed);
        if rate == 0 {
            return None;
        }
        let word = decision(self.seed, i as u64, call);
        if (word % RATE_SCALE as u64) < rate as u64 {
            self.fired[i].fetch_add(1, Ordering::Relaxed);
            // Re-mix so the entropy word is independent of the
            // threshold comparison's low bits.
            Some(splitmix64(word))
        } else {
            None
        }
    }

    /// Visit a point and report only whether it fired.
    pub fn should_fire(&self, point: FaultPoint) -> bool {
        self.roll(point).is_some()
    }

    /// How many times a point has fired.
    pub fn fired(&self, point: FaultPoint) -> u64 {
        self.fired[point.index()].load(Ordering::Relaxed)
    }

    /// How many times a point has been visited.
    pub fn calls(&self, point: FaultPoint) -> u64 {
        self.calls[point.index()].load(Ordering::Relaxed)
    }

    /// Total firings across all points.
    pub fn total_fired(&self) -> u64 {
        FaultPoint::ALL.iter().map(|p| self.fired(*p)).sum()
    }

    /// One `(name, value)` row per point — `chaos_fired_<point>` — for
    /// the service's self-describing metrics table.
    pub fn entries(&self) -> Vec<(String, u64)> {
        FaultPoint::ALL
            .iter()
            .map(|p| (format!("chaos_fired_{}", p.name()), self.fired(*p)))
            .collect()
    }
}

/// The process-wide active plan. Installed once (typically by a chaos
/// test before starting its servers); every planted call site consults
/// it through [`roll`]/[`should_fire`], which are no-ops while nothing
/// is installed.
static ACTIVE: OnceLock<Arc<FaultPlan>> = OnceLock::new();

/// Install the process-wide plan. Returns `false` (and leaves the
/// existing plan in place) if one was already installed.
pub fn install(plan: Arc<FaultPlan>) -> bool {
    ACTIVE.set(plan).is_ok()
}

/// The installed plan, if any.
pub fn active() -> Option<&'static Arc<FaultPlan>> {
    ACTIVE.get()
}

/// Visit a point on the installed plan; `None` when no plan is
/// installed or the point does not fire.
pub fn roll(point: FaultPoint) -> Option<u64> {
    active().and_then(|plan| plan.roll(point))
}

/// Visit a point on the installed plan; `false` when no plan is
/// installed or the point does not fire.
pub fn should_fire(point: FaultPoint) -> bool {
    roll(point).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_never_fires_but_counts_calls() {
        let plan = FaultPlan::new(42);
        for _ in 0..1000 {
            assert!(plan.roll(FaultPoint::DiskBitFlip).is_none());
        }
        assert_eq!(plan.calls(FaultPoint::DiskBitFlip), 1000);
        assert_eq!(plan.fired(FaultPoint::DiskBitFlip), 0);
        assert_eq!(plan.total_fired(), 0);
    }

    #[test]
    fn full_rate_always_fires() {
        let plan = FaultPlan::new(7).with_rate(FaultPoint::ShardPanic, RATE_SCALE);
        for _ in 0..100 {
            assert!(plan.roll(FaultPoint::ShardPanic).is_some());
        }
        assert_eq!(plan.fired(FaultPoint::ShardPanic), 100);
    }

    #[test]
    fn same_seed_same_firing_pattern() {
        let a = FaultPlan::new(0xdead_beef).with_all_rates(2_500);
        let b = FaultPlan::new(0xdead_beef).with_all_rates(2_500);
        for point in FaultPoint::ALL {
            let pattern_a: Vec<bool> = (0..256).map(|_| a.should_fire(point)).collect();
            let pattern_b: Vec<bool> = (0..256).map(|_| b.should_fire(point)).collect();
            assert_eq!(pattern_a, pattern_b, "point {} diverged", point.name());
            assert_eq!(a.fired(point), b.fired(point));
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlan::new(1).with_all_rates(5_000);
        let b = FaultPlan::new(2).with_all_rates(5_000);
        let pattern_a: Vec<bool> = (0..256)
            .map(|_| a.should_fire(FaultPoint::WireTornRead))
            .collect();
        let pattern_b: Vec<bool> = (0..256)
            .map(|_| b.should_fire(FaultPoint::WireTornRead))
            .collect();
        assert_ne!(
            pattern_a, pattern_b,
            "256 rolls at 50% should not coincide across seeds"
        );
    }

    #[test]
    fn firing_depends_only_on_call_index_not_interleaving() {
        // Interleave visits to two points in different orders: each
        // point's own firing sequence must be identical either way.
        let ab = FaultPlan::new(99).with_all_rates(3_000);
        let ba = FaultPlan::new(99).with_all_rates(3_000);
        let mut seq_ab = (Vec::new(), Vec::new());
        let mut seq_ba = (Vec::new(), Vec::new());
        for _ in 0..128 {
            seq_ab.0.push(ab.should_fire(FaultPoint::PeerTimeout));
            seq_ab.1.push(ab.should_fire(FaultPoint::DiskBitFlip));
        }
        for _ in 0..128 {
            seq_ba.1.push(ba.should_fire(FaultPoint::DiskBitFlip));
            seq_ba.0.push(ba.should_fire(FaultPoint::PeerTimeout));
        }
        assert_eq!(seq_ab, seq_ba);
    }

    #[test]
    fn rate_is_roughly_honored() {
        let plan = FaultPlan::new(123).with_rate(FaultPoint::PeerOfferDrop, 1_000); // 10%
        for _ in 0..10_000 {
            plan.roll(FaultPoint::PeerOfferDrop);
        }
        let fired = plan.fired(FaultPoint::PeerOfferDrop);
        assert!(
            (600..=1_400).contains(&fired),
            "10% of 10k visits should fire ~1000 times, got {fired}"
        );
    }

    #[test]
    fn entries_cover_every_point_with_stable_names() {
        let plan = FaultPlan::new(5).with_rate(FaultPoint::WireDisconnect, RATE_SCALE);
        plan.roll(FaultPoint::WireDisconnect);
        let entries = plan.entries();
        assert_eq!(entries.len(), FaultPoint::ALL.len());
        for (point, (name, _)) in FaultPoint::ALL.iter().zip(&entries) {
            assert_eq!(name, &format!("chaos_fired_{}", point.name()));
        }
        let fired = entries
            .iter()
            .find(|(name, _)| name == "chaos_fired_wire_disconnect")
            .expect("row present");
        assert_eq!(fired.1, 1);
    }

    #[test]
    fn global_install_is_once() {
        assert!(roll(FaultPoint::WireTornRead).is_none(), "no plan yet");
        let first = Arc::new(FaultPlan::new(1).with_all_rates(RATE_SCALE));
        assert!(install(Arc::clone(&first)));
        assert!(
            !install(Arc::new(FaultPlan::new(2))),
            "second install refused"
        );
        assert!(should_fire(FaultPoint::WireTornRead));
        assert_eq!(active().expect("installed").seed(), 1);
    }
}
