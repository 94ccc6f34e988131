//! A process-wide cache of computed slices, keyed by (program fingerprint,
//! slicer fingerprint, variable address).
//!
//! Eval and ablation runs slice the same binaries over and over — once per
//! slicer sweep, once per model sweep, once per scale point. Slicing is pure
//! (a function of the program, the slicer configuration, and the criterion
//! address), so repeated work is cached here. The cache is sharded over
//! several mutex-guarded maps so that parallel slicing workers rarely
//! contend on the same lock.
//!
//! The cache is enabled by default; benchmarks that want to *measure*
//! slicing throughput should call [`set_enabled`]`(false)` (or [`clear`])
//! around the measured region.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use tiara_container::{fnv1a64, FNV_OFFSET};
use tiara_ir::{Program, VarAddr};
use tiara_slice::{Slice, ValueSet};

use crate::dataset::Slicer;

/// Number of independently locked shards. Power of two; 16 keeps contention
/// negligible at any realistic `--threads` setting.
const SHARDS: usize = 16;

type Key = (u64, u64, VarAddr);

struct CacheInner {
    shards: Vec<Mutex<HashMap<Key, Arc<Slice>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    enabled: AtomicBool,
}

fn cache() -> &'static CacheInner {
    static CACHE: OnceLock<CacheInner> = OnceLock::new();
    CACHE.get_or_init(|| CacheInner {
        shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        hits: AtomicU64::new(0),
        misses: AtomicU64::new(0),
        enabled: AtomicBool::new(true),
    })
}

/// Cache usage counters (see [`stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the slicer.
    pub misses: u64,
    /// Slices currently stored.
    pub entries: usize,
}

/// A stable fingerprint of a program, derived from its assembled image.
///
/// Computed once per binary and reused for every address, so the hash cost
/// is amortized over the whole debug-info table.
pub fn program_fingerprint(prog: &Program) -> u64 {
    let mut h = DefaultHasher::new();
    tiara_ir::assemble(prog).hash(&mut h);
    h.finish()
}

/// A fingerprint of a slicer configuration (algorithm + every knob), so
/// different `TsliceConfig`s never share cache entries: FNV-1a over the
/// slicer's `.tc` encoding, so the key is stable across builds and
/// toolchains and persisted cache shards stay valid.
///
/// The value-set cap ([`ValueSet::CAP`]) changes slices but is a constant,
/// not a knob, so the `.tc` encoding does not carry it; it is hashed in
/// after the encoding. A build with another cap therefore never answers
/// from shards sliced under the old one.
pub fn slicer_fingerprint(slicer: &Slicer) -> u64 {
    let h = fnv1a64(FNV_OFFSET, &crate::container::encode_slicer(slicer));
    fnv1a64(h, &(ValueSet::CAP as u64).to_le_bytes())
}

fn shard_of(key: &Key) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

/// Returns the cached slice for `(program_fp, slicer_fp, addr)`, running
/// `compute` and storing the result on a miss.
///
/// When the cache is disabled, `compute` always runs and nothing is stored.
pub fn get_or_slice<F>(program_fp: u64, slicer_fp: u64, addr: VarAddr, compute: F) -> Arc<Slice>
where
    F: FnOnce() -> Slice,
{
    let c = cache();
    if !c.enabled.load(Ordering::Relaxed) {
        return Arc::new(compute());
    }
    let key = (program_fp, slicer_fp, addr);
    let shard = &c.shards[shard_of(&key)];
    if let Some(hit) = shard.lock().unwrap_or_else(PoisonError::into_inner).get(&key).cloned() {
        c.hits.fetch_add(1, Ordering::Relaxed);
        return hit;
    }
    // Compute outside the lock: other addresses (almost always other keys)
    // proceed concurrently. A racing duplicate computation of the *same* key
    // is harmless — slicing is pure — and the last write wins.
    let slice = Arc::new(compute());
    c.misses.fetch_add(1, Ordering::Relaxed);
    shard.lock().unwrap_or_else(PoisonError::into_inner).insert(key, Arc::clone(&slice));
    slice
}

/// Current hit/miss/entry counters.
pub fn stats() -> CacheStats {
    let c = cache();
    CacheStats {
        hits: c.hits.load(Ordering::Relaxed),
        misses: c.misses.load(Ordering::Relaxed),
        entries: c
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum(),
    }
}

/// Drops every cached slice and resets the counters.
pub fn clear() {
    let c = cache();
    for s in &c.shards {
        s.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }
    c.hits.store(0, Ordering::Relaxed);
    c.misses.store(0, Ordering::Relaxed);
}

/// Turns the cache on or off process-wide (on by default). Disabling does
/// not drop existing entries; pair with [`clear`] for measurements.
pub fn set_enabled(enabled: bool) {
    cache().enabled.store(enabled, Ordering::Relaxed);
}

/// One persistable cache entry: the key triple plus the computed slice.
pub(crate) type SnapshotEntry = (u64, u64, VarAddr, Arc<Slice>);

/// A deterministic per-shard snapshot of every cached slice: entry `i` of
/// the result holds shard `i`'s entries sorted by key, so two snapshots of
/// equal cache contents are byte-for-byte identical once encoded.
pub(crate) fn snapshot() -> Vec<Vec<SnapshotEntry>> {
    let c = cache();
    let mut out: Vec<Vec<SnapshotEntry>> = Vec::with_capacity(SHARDS);
    for shard in &c.shards {
        let mut entries: Vec<SnapshotEntry> = shard
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .map(|((p, s, a), slice)| (*p, *s, *a, Arc::clone(slice)))
            .collect();
        entries.sort_by(|a, b| (a.0, a.1, format!("{}", a.2)).cmp(&(b.0, b.1, format!("{}", b.2))));
        out.push(entries);
    }
    out
}

/// Re-inserts persisted entries into their shards without touching the
/// hit/miss counters (a restore is neither). Entries are routed by key, so
/// a snapshot written with a different shard count still lands correctly.
pub(crate) fn restore(entries: impl IntoIterator<Item = SnapshotEntry>) {
    let c = cache();
    for (program_fp, slicer_fp, addr, slice) in entries {
        let key = (program_fp, slicer_fp, addr);
        let shard = &c.shards[shard_of(&key)];
        shard.lock().unwrap_or_else(PoisonError::into_inner).insert(key, slice);
    }
}

/// The default slicer's key in builds whose fingerprint covered only the
/// `.tc` slicer encoding (value-set cap 48). Shards persisted under it must
/// load as misses.
#[cfg(test)]
pub(crate) const PRE_CAP_DEFAULT_KEY: u64 = 0xbee4_772b_0457_6058;

/// Serializes tests (here and in [`crate::pipeline`]) that clear the cache,
/// toggle [`set_enabled`], or assert on the global counters. Other core
/// tests use the cache too, but only ever with it enabled, which every
/// assertion under this lock tolerates.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiara_ir::FuncId;
    use tiara_synth::{generate, ProjectSpec, TypeCounts};

    fn empty_slice(criterion: VarAddr) -> Slice {
        Slice { criterion, nodes: Vec::new(), edges: Vec::new(), explored: 0, steps: 0 }
    }

    #[test]
    fn cache_hits_on_repeat_and_distinguishes_slicers() {
        let _guard = test_lock();
        let bin = generate(&ProjectSpec {
            name: "cache".into(),
            index: 0,
            seed: 11,
            counts: TypeCounts { vector: 1, primitive: 1, ..Default::default() },
        });
        let prog_fp = program_fingerprint(&bin.program);
        let tslice_fp = slicer_fingerprint(&Slicer::default());
        let sslice_fp = slicer_fingerprint(&Slicer::Sslice);
        assert_ne!(tslice_fp, sslice_fp);

        let addr = bin.debug.vars[0].addr;
        let before = stats();
        let a =
            get_or_slice(prog_fp, tslice_fp, addr, || Slicer::default().run(&bin.program, addr));
        let b = get_or_slice(prog_fp, tslice_fp, addr, || panic!("must be cached"));
        assert_eq!(a.num_nodes(), b.num_nodes());
        let after = stats();
        assert!(after.misses > before.misses);
        assert!(after.hits > before.hits);
        assert!(after.entries >= 1);

        // A different slicer fingerprint is a different entry.
        let c = get_or_slice(prog_fp, sslice_fp, addr, || Slicer::Sslice.run(&bin.program, addr));
        assert!(c.num_nodes() >= a.num_nodes());
    }

    #[test]
    fn slicer_fingerprint_is_pinned_and_tracks_every_knob() {
        use tiara_slice::{DecayFunction, TsliceConfig};
        // The key of every persisted cache shard: a change here orphans the
        // shards saved by earlier builds, so it must be deliberate.
        let default = slicer_fingerprint(&Slicer::default());
        assert_eq!(default, 0x164a_d5f2_dbca_8a50, "default slicer fingerprint moved");
        assert_ne!(default, PRE_CAP_DEFAULT_KEY, "the value-set cap is part of the key");
        let knobs = [
            Slicer::Sslice,
            Slicer::Tslice(TsliceConfig::with_call_summaries()),
            Slicer::Tslice(TsliceConfig::with_trace()),
            Slicer::Tslice(TsliceConfig { decay_default: 0.002, ..TsliceConfig::default() }),
            Slicer::Tslice(TsliceConfig {
                decay_function: DecayFunction::Exponential { scale: 2.0, floor: 0.01 },
                ..TsliceConfig::default()
            }),
            Slicer::Tslice(TsliceConfig { max_steps: 10, ..TsliceConfig::default() }),
            Slicer::Tslice(TsliceConfig { criterion_window: 8, ..TsliceConfig::default() }),
        ];
        let mut seen = vec![default];
        for slicer in &knobs {
            let fp = slicer_fingerprint(slicer);
            assert!(!seen.contains(&fp), "{slicer:?} shares a fingerprint");
            seen.push(fp);
        }
    }

    #[test]
    fn disabled_cache_always_computes_and_stores_nothing() {
        let _guard = test_lock();
        // A key no real program can produce (fingerprints are hashes of
        // nonempty images), so concurrent tests never collide with it.
        let addr = VarAddr::Stack { func: FuncId(u32::MAX), offset: -9999 };
        let mut runs = 0;
        set_enabled(false);
        for _ in 0..2 {
            let _ = get_or_slice(1, 2, addr, || {
                runs += 1;
                empty_slice(addr)
            });
        }
        set_enabled(true);
        assert_eq!(runs, 2, "a disabled cache computes every time");
        // Nothing was stored while disabled: the next enabled lookup misses.
        let _ = get_or_slice(1, 2, addr, || {
            runs += 1;
            empty_slice(addr)
        });
        assert_eq!(runs, 3);
        // ... and now it is cached.
        let _ = get_or_slice(1, 2, addr, || panic!("must be cached"));
        // `clear` drops it again.
        clear();
        let _ = get_or_slice(1, 2, addr, || {
            runs += 1;
            empty_slice(addr)
        });
        assert_eq!(runs, 4, "clear drops entries");
    }

    #[test]
    fn snapshot_restore_round_trips_without_counting() {
        let _guard = test_lock();
        clear();
        let addr = VarAddr::Stack { func: FuncId(u32::MAX - 1), offset: -1234 };
        let _ = get_or_slice(7, 8, addr, || empty_slice(addr));
        let snap = snapshot();
        assert_eq!(snap.len(), SHARDS);
        assert_eq!(snap.iter().map(Vec::len).sum::<usize>(), 1);
        clear();
        assert_eq!(stats().entries, 0);
        restore(snap.into_iter().flatten());
        let restored = stats();
        assert_eq!(restored.entries, 1, "entry came back");
        assert_eq!((restored.hits, restored.misses), (0, 0), "a restore is not a lookup");
        let _ = get_or_slice(7, 8, addr, || panic!("restored entry must hit"));
        assert_eq!(stats().hits, 1, "fresh process hits persisted shards");
        clear();
    }
}
