//! Regression tests for [`ContextCache`] key construction.
//!
//! The cache key must separate every knob that alters the CFG or the
//! CHMC classification (geometry — including the number of usable ways —
//! image content, CFG metadata, classification mode) while *sharing*
//! entries across knobs that don't (the fault model / `pfail`, the
//! protection level read off the finished analysis, parallelism).

use std::sync::Arc;

use pwcet_analysis::ClassificationMode;
use pwcet_cache::CacheGeometry;
use pwcet_core::{AnalysisConfig, ContextCache, Protection, PwcetAnalyzer};
use pwcet_progen::{stmt, CompiledProgram, Program};

fn program() -> Program {
    Program::new("keys").with_function("main", stmt::loop_(25, stmt::compute(30)))
}

fn compiled() -> CompiledProgram {
    program().compile(0x0040_0000).unwrap()
}

#[test]
fn reliable_way_count_changes_the_key() {
    // The regression this file exists for: protecting ways changes the
    // number of *usable* ways and with it every CHMC input. Two
    // geometries that differ only in the way count — same sets, same
    // block size, same image — must never share a context.
    let compiled = compiled();
    let mode = ClassificationMode::Incremental;
    let four_way = CacheGeometry::new(16, 4, 16);
    let three_way = CacheGeometry::new(16, 3, 16);
    let two_way = CacheGeometry::new(16, 2, 16);
    let keys = [
        ContextCache::key_of(&compiled, four_way, mode),
        ContextCache::key_of(&compiled, three_way, mode),
        ContextCache::key_of(&compiled, two_way, mode),
    ];
    assert_ne!(keys[0], keys[1]);
    assert_ne!(keys[0], keys[2]);
    assert_ne!(keys[1], keys[2]);

    let cache = ContextCache::new(8);
    cache.get_or_build(&compiled, four_way, mode).unwrap();
    cache.get_or_build(&compiled, two_way, mode).unwrap();
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.len),
        (0, 2, 2),
        "distinct way counts must occupy distinct entries"
    );
}

#[test]
fn geometry_sets_and_block_size_change_the_key() {
    let compiled = compiled();
    let mode = ClassificationMode::Incremental;
    let base = CacheGeometry::new(16, 4, 16);
    let more_sets = CacheGeometry::new(32, 4, 16);
    let bigger_blocks = CacheGeometry::new(16, 4, 32);
    assert_ne!(
        ContextCache::key_of(&compiled, base, mode),
        ContextCache::key_of(&compiled, more_sets, mode)
    );
    assert_ne!(
        ContextCache::key_of(&compiled, base, mode),
        ContextCache::key_of(&compiled, bigger_blocks, mode)
    );
}

#[test]
fn classification_mode_changes_the_key() {
    let compiled = compiled();
    let geometry = CacheGeometry::paper_default();
    assert_ne!(
        ContextCache::key_of(&compiled, geometry, ClassificationMode::Cold),
        ContextCache::key_of(&compiled, geometry, ClassificationMode::Incremental)
    );
}

#[test]
fn pfail_sweep_shares_one_entry() {
    // The fault model feeds the penalty distributions, not the CFG or
    // the CHMC — a pfail sweep must be answered by a single cached
    // context.
    let cache = Arc::new(ContextCache::new(8));
    let program = program();
    let base = AnalysisConfig::paper_default();
    let mut quantiles = Vec::new();
    for pfail in [1e-6, 1e-5, 1e-4, 1e-3] {
        let config = base.with_pfail(pfail).unwrap();
        let analyzer = PwcetAnalyzer::new(config).with_cache(Arc::clone(&cache));
        let analysis = analyzer.analyze(&program).unwrap();
        quantiles.push(analysis.estimate(Protection::None).pwcet_at(1e-15));
    }
    let stats = cache.stats();
    assert_eq!(
        (stats.hits, stats.misses, stats.len),
        (3, 1, 1),
        "four pfail points must share one context"
    );
    // Sanity: the shared context did not collapse the sweep itself.
    assert!(quantiles.windows(2).all(|w| w[0] <= w[1]));
}

#[test]
fn cache_hit_reports_the_callers_program_name() {
    // Content addressing is name-blind, so two identically-shaped
    // programs share one context — but each analysis must still carry
    // its own program's name.
    let cache = Arc::new(ContextCache::new(4));
    let analyzer =
        PwcetAnalyzer::new(AnalysisConfig::paper_default()).with_cache(Arc::clone(&cache));
    let shape = stmt::loop_(25, stmt::compute(30));
    let first = Program::new("first").with_function("main", shape.clone());
    let second = Program::new("second").with_function("main", shape);
    let a = analyzer.analyze(&first).unwrap();
    let b = analyzer.analyze(&second).unwrap();
    assert_eq!(cache.stats().hits, 1, "the second analysis must hit");
    assert_eq!(a.name(), "first");
    assert_eq!(b.name(), "second");
}

#[test]
fn different_images_get_different_entries() {
    let cache = ContextCache::new(8);
    let mode = ClassificationMode::Incremental;
    let geometry = CacheGeometry::paper_default();
    let a = compiled();
    let b = Program::new("keys")
        .with_function("main", stmt::loop_(26, stmt::compute(30)))
        .compile(0x0040_0000)
        .unwrap();
    let c = program().compile(0x0050_0000).unwrap(); // same code, new base
    cache.get_or_build(&a, geometry, mode).unwrap();
    cache.get_or_build(&b, geometry, mode).unwrap();
    cache.get_or_build(&c, geometry, mode).unwrap();
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.misses, stats.len), (0, 3, 3));
}

#[test]
fn content_keys_are_pinned_across_the_one_pass_hash() {
    // Values of the original two-pass `key_of` / `family_key_of`, which
    // hashed the image on every call. The digest-continuing hash must
    // reproduce them exactly: they name disk-tier files and route fleet
    // peers.
    let pinned: [(&str, CacheGeometry, ClassificationMode, u64, u64); 8] = [
        (
            "bs",
            CacheGeometry::paper_default(),
            ClassificationMode::Incremental,
            0x3968_987e_81a0_203c,
            0xbc0a_a91c_7c99_2a78,
        ),
        (
            "bs",
            CacheGeometry::new(16, 2, 16),
            ClassificationMode::Cold,
            0x186e_0776_e023_f13b,
            0x5c05_5524_d2ce_e709,
        ),
        (
            "crc",
            CacheGeometry::paper_default(),
            ClassificationMode::Incremental,
            0xa1c8_1435_ddf9_918a,
            0xfa95_6d93_9916_65ee,
        ),
        (
            "crc",
            CacheGeometry::new(16, 2, 16),
            ClassificationMode::Cold,
            0x00b8_334f_9554_54cd,
            0x9a90_199b_ef4c_227f,
        ),
        (
            "nsichneu",
            CacheGeometry::paper_default(),
            ClassificationMode::Incremental,
            0x9ea2_68fe_2561_1998,
            0x9363_10dd_0646_ac1c,
        ),
        (
            "nsichneu",
            CacheGeometry::new(16, 2, 16),
            ClassificationMode::Cold,
            0x7d7d_3839_3592_cf1f,
            0x335d_bce5_5c7c_68ad,
        ),
        (
            "adpcm",
            CacheGeometry::paper_default(),
            ClassificationMode::Incremental,
            0xbe41_d5d6_6362_f927,
            0xf991_ca36_22f3_1633,
        ),
        (
            "adpcm",
            CacheGeometry::new(16, 2, 16),
            ClassificationMode::Cold,
            0xdf67_069b_5331_43a0,
            0x5997_1e2d_ccbd_59a2,
        ),
    ];
    for (name, geometry, mode, key, family) in pinned {
        let compiled = pwcet_benchsuite::by_name(name)
            .expect("suite program")
            .program
            .compile(0x0040_0000)
            .unwrap();
        // Twice: the second call answers from the memoized digest.
        for _ in 0..2 {
            assert_eq!(
                ContextCache::key_of(&compiled, geometry, mode),
                key,
                "{name}"
            );
            assert_eq!(
                ContextCache::family_key_of(&compiled, geometry, mode),
                family,
                "{name}"
            );
        }
        // A clone carries the digest along and agrees.
        assert_eq!(ContextCache::key_of(&compiled.clone(), geometry, mode), key);
    }
}
