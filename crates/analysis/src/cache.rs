//! A content-addressed cache of [`HandlerAnalysis`] results.
//!
//! Every [`analyze`] call re-runs the whole static
//! pipeline — Unit Graph, liveness, DDG, points-to, the target-path DAG,
//! and ConvexCut — even when the handler text has not changed. That is the
//! right default for a single session, but a multi-session runtime (see
//! `ARCHITECTURE.md` §"Throughput layer") serves many concurrent sessions
//! of the *same* handler, and the analysis is pure: its output depends
//! only on the program text, the handler name, and the cost model.
//! [`AnalysisCache`] keys on exactly those inputs (a
//! 64-bit FNV-1a content hash of the canonical pretty-printed program, so
//! structurally-identical programs parsed from different files still hit)
//! and shares one immutable [`HandlerAnalysis`] per distinct handler via
//! `Arc` across every session that needs it.
//!
//! The cache is a capacity-bounded LRU guarded by a mutex — analysis
//! results are a few kilobytes each, lookups are rare (once per session
//! open, not per message), and the critical section is a vector scan, so
//! contention is not a concern. Hit/miss/eviction counts are plain
//! atomics; runtimes that own an observability hub (e.g.
//! `mpart::session::SessionManager`) mirror them into gauges.
//!
//! ```
//! use mpart_analysis::cache::AnalysisCache;
//! use mpart_analysis::cost::InterCountEstimator;
//! use mpart_ir::parse::parse_program;
//!
//! let program = parse_program("fn f(x) {\n  y = x + 1\n  return y\n}\n").unwrap();
//! let cache = AnalysisCache::new(8);
//! let first = cache.get_or_analyze(&program, "f", "inter-count", &InterCountEstimator).unwrap();
//! let second = cache.get_or_analyze(&program, "f", "inter-count", &InterCountEstimator).unwrap();
//! // The second lookup is a hit and shares the same allocation.
//! assert!(std::sync::Arc::ptr_eq(&first, &second));
//! assert_eq!((cache.hits(), cache.misses()), (1, 1));
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mpart_ir::pretty::program_to_string;
use mpart_ir::{IrError, Program};

use crate::{analyze, EdgeCostEstimator, HandlerAnalysis};

/// Default number of distinct (program, handler, model) analyses
/// retained.
pub const DEFAULT_CACHE_CAPACITY: usize = 64;

/// A capacity-bounded, content-addressed LRU of shared
/// [`HandlerAnalysis`] results. See the [module docs](self) for the
/// keying rules.
#[derive(Debug)]
pub struct AnalysisCache {
    capacity: usize,
    /// Cached analyses, least-recently-used first.
    entries: Mutex<Vec<CacheEntry>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// One cached analysis under its content key.
#[derive(Debug)]
struct CacheEntry {
    key: u64,
    analysis: Arc<HandlerAnalysis>,
}

impl AnalysisCache {
    /// Creates a cache retaining at most `capacity` analyses (minimum 1).
    pub fn new(capacity: usize) -> Self {
        AnalysisCache {
            capacity: capacity.max(1),
            entries: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// An entry's key: FNV-1a over the canonical pretty-printed program
    /// (whole program, not just the handler — stop-node and inlining
    /// decisions depend on callees and class declarations), the handler
    /// name and the model key.
    fn key(program: &Program, func_name: &str, model_key: &str) -> u64 {
        let mut hash = fnv1a(0xCBF2_9CE4_8422_2325, program_to_string(program).as_bytes());
        hash = fnv1a(fnv1a(hash, &[0xFF]), func_name.as_bytes());
        fnv1a(fnv1a(hash, &[0xFE]), model_key.as_bytes())
    }

    /// Returns the cached analysis for this (program, handler, model)
    /// combination, running [`analyze`] on a miss. `model_key`
    /// must identify the estimator's *pricing behavior* — cost models
    /// expose a stable `cache_key()` for exactly this purpose (the bare
    /// `name()` is not enough for parameterized models).
    ///
    /// # Errors
    ///
    /// Propagates analysis failures; failed analyses are not cached.
    pub fn get_or_analyze(
        &self,
        program: &Program,
        func_name: &str,
        model_key: &str,
        estimator: &dyn EdgeCostEstimator,
    ) -> Result<Arc<HandlerAnalysis>, IrError> {
        let key = Self::key(program, func_name, model_key);
        if let Some(found) = self.lookup(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(found);
        }
        // Analyze outside the lock: a slow analysis must not serialize
        // unrelated sessions. Two racing sessions may both compute the
        // same analysis; the second insert wins and the loser's Arc stays
        // valid — correctness is unaffected because the result is pure.
        self.misses.fetch_add(1, Ordering::Relaxed);
        let analysis = Arc::new(analyze(program, func_name, estimator)?);
        self.insert(key, Arc::clone(&analysis));
        Ok(analysis)
    }

    /// Finds `key`, refreshing its recency.
    fn lookup(&self, key: u64) -> Option<Arc<HandlerAnalysis>> {
        let mut entries = self.entries.lock().expect("analysis cache poisoned");
        let idx = entries.iter().position(|e| e.key == key)?;
        // Refresh recency: move the entry to the back.
        let entry = entries.remove(idx);
        let found = Arc::clone(&entry.analysis);
        entries.push(entry);
        Some(found)
    }

    fn insert(&self, key: u64, analysis: Arc<HandlerAnalysis>) {
        let mut entries = self.entries.lock().expect("analysis cache poisoned");
        entries.retain(|e| e.key != key);
        entries.push(CacheEntry { key, analysis });
        while entries.len() > self.capacity {
            entries.remove(0);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran a fresh analysis.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries displaced by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from the cache (0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Analyses currently retained.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("analysis cache poisoned").len()
    }

    /// Whether the cache holds no analyses.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// 64-bit FNV-1a over `bytes`, continuing from `state`.
fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut hash = state;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::InterCountEstimator;
    use mpart_ir::parse::parse_program;

    const SRC_A: &str = "fn f(x) {\n  a = x + 1\n  native out(a)\n  return a\n}\n";
    const SRC_B: &str = "fn f(x) {\n  a = x * 2\n  native out(a)\n  return a\n}\n";

    #[test]
    fn hit_shares_the_same_arc() {
        let program = parse_program(SRC_A).unwrap();
        let cache = AnalysisCache::new(4);
        let a = cache.get_or_analyze(&program, "f", "m", &InterCountEstimator).unwrap();
        let b = cache.get_or_analyze(&program, "f", "m", &InterCountEstimator).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        assert!((cache.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn distinct_text_and_model_all_miss() {
        let a = parse_program(SRC_A).unwrap();
        let b = parse_program(SRC_B).unwrap();
        let cache = AnalysisCache::new(8);
        cache.get_or_analyze(&a, "f", "m", &InterCountEstimator).unwrap();
        cache.get_or_analyze(&b, "f", "m", &InterCountEstimator).unwrap();
        cache.get_or_analyze(&a, "f", "other-model", &InterCountEstimator).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
    }

    #[test]
    fn reparsed_identical_text_hits() {
        // Content addressing, not pointer identity: a fresh parse of the
        // same source maps to the same key.
        let first = parse_program(SRC_A).unwrap();
        let second = parse_program(SRC_A).unwrap();
        let cache = AnalysisCache::new(4);
        let a = cache.get_or_analyze(&first, "f", "m", &InterCountEstimator).unwrap();
        let b = cache.get_or_analyze(&second, "f", "m", &InterCountEstimator).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let programs: Vec<_> = (0..3)
            .map(|i| {
                parse_program(&format!("fn f(x) {{\n  a = x + {i}\n  return a\n}}\n")).unwrap()
            })
            .collect();
        let cache = AnalysisCache::new(2);
        cache.get_or_analyze(&programs[0], "f", "m", &InterCountEstimator).unwrap();
        cache.get_or_analyze(&programs[1], "f", "m", &InterCountEstimator).unwrap();
        // Touch 0 so 1 becomes the LRU victim.
        cache.get_or_analyze(&programs[0], "f", "m", &InterCountEstimator).unwrap();
        cache.get_or_analyze(&programs[2], "f", "m", &InterCountEstimator).unwrap();
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 2);
        // 0 survived (hit), 1 was evicted (miss).
        cache.get_or_analyze(&programs[0], "f", "m", &InterCountEstimator).unwrap();
        let misses_before = cache.misses();
        cache.get_or_analyze(&programs[1], "f", "m", &InterCountEstimator).unwrap();
        assert_eq!(cache.misses(), misses_before + 1);
    }

    #[test]
    fn failed_analyses_are_not_cached() {
        let program = parse_program(SRC_A).unwrap();
        let cache = AnalysisCache::new(4);
        assert!(cache.get_or_analyze(&program, "missing", "m", &InterCountEstimator).is_err());
        assert!(cache.is_empty());
    }
}
