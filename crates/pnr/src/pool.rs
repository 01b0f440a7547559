//! Warm incremental-SAT session pooling across P&R scans.
//!
//! An [`crate::incremental::IncrementalCnf`] session is expensive to
//! build (the shared clause set of a netlist is re-encoded from
//! nothing) and valuable to keep (learned clauses, branching
//! activities, saved phases). Within one exact P&R call — hexagonal
//! ([`crate::exact_pnr`]) or Cartesian ([`crate::cartesian_exact_pnr`])
//! — the portfolio already keeps one session per worker; this module
//! extends the reuse *across calls*: a long-lived host (the design
//! server) installs a [`SessionPool`], and every scan checks its
//! sessions out at start and parks them back when the scan ends.
//!
//! Sessions are keyed by a fingerprint of everything that shapes the
//! shared clause set — the floor-plan topology, the netlist structure,
//! the tile blacklist, and the area bound (which fixes the candidate
//! union the session's variable universe spans). One pool can serve
//! both engines: a hexagonal session is never handed to a Cartesian
//! scan, because the topology is part of the key. A checkout for a
//! different key misses and starts cold; parking is skipped for
//! sessions abandoned mid-probe (a panicking worker), whose activation
//! literal was never retired.
//!
//! Pooling is a pure solver-work optimization with the same guarantee
//! as [`crate::ExactOptions::incremental`] itself: the winning ratio is
//! always re-solved on a fresh scratch solver, so the extracted layout
//! is byte-identical whether the session was cold, warm from this scan,
//! or warm from a previous one.

use crate::exact::VarKey;
use crate::incremental::IncrementalCnf;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Parked sessions kept per problem key; the portfolio never runs more
/// workers than candidates, and scans beyond a few workers hit
/// diminishing returns, so a small cap bounds memory without starving
/// checkouts.
const SESSIONS_PER_KEY: usize = 4;

/// Distinct problem keys retained before the oldest key's sessions are
/// dropped (FIFO) — a long-lived server seeing an unbounded stream of
/// distinct netlists must not grow without bound.
const KEYS_RETAINED: usize = 32;

/// A shareable pool of warm incremental SAT sessions.
///
/// Cloning is cheap (an `Arc`); clones share the same store. The
/// intended deployment is one pool per *server worker*, so sessions
/// never migrate between concurrently running scans and the reuse
/// pattern matches the sequential engine's.
#[derive(Debug, Clone, Default)]
pub struct SessionPool {
    inner: Arc<Mutex<PoolState>>,
    hits: Arc<AtomicU64>,
    misses: Arc<AtomicU64>,
}

#[derive(Debug, Default)]
struct PoolState {
    sessions: HashMap<u64, Vec<IncrementalCnf<VarKey>>>,
    /// Keys in first-parked order, for FIFO eviction.
    order: Vec<u64>,
}

impl SessionPool {
    /// An empty pool.
    pub fn new() -> Self {
        SessionPool::default()
    }

    /// Number of warm sessions currently parked (over all keys).
    pub fn warm_sessions(&self) -> usize {
        self.lock().sessions.values().map(Vec::len).sum()
    }

    /// Checkouts that found a warm session for their key.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Checkouts that started cold.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Takes a warm session for `key`, if one is parked.
    pub(crate) fn checkout(&self, key: u64) -> Option<IncrementalCnf<VarKey>> {
        let taken = self
            .lock()
            .sessions
            .get_mut(&key)
            .and_then(|list| list.pop());
        match taken.is_some() {
            true => self.hits.fetch_add(1, Ordering::Relaxed),
            false => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        taken
    }

    /// Parks a session back for `key`, evicting the oldest key when the
    /// pool is full of other keys and dropping the session when its own
    /// key is already at capacity.
    pub(crate) fn park(&self, key: u64, session: IncrementalCnf<VarKey>) {
        let mut state = self.lock();
        if !state.sessions.contains_key(&key) {
            if state.order.len() >= KEYS_RETAINED {
                let evicted = state.order.remove(0);
                state.sessions.remove(&evicted);
            }
            state.order.push(key);
        }
        let list = state.sessions.entry(key).or_default();
        if list.len() < SESSIONS_PER_KEY {
            list.push(session);
        }
    }

    /// The store, recovering from lock poisoning: sessions are parked
    /// whole, so a panicked holder leaves the map structurally intact.
    fn lock(&self) -> std::sync::MutexGuard<'_, PoolState> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A worker's probe context: an incremental session that returns itself
/// to its home pool when the scan ends. Sessions abandoned mid-probe
/// (the worker panicked between `begin_probe` and `end_probe`) are
/// dropped instead — their activation literal was never retired, so
/// their guarded state would leak into the next scan.
pub(crate) struct PooledSession {
    session: Option<IncrementalCnf<VarKey>>,
    home: Option<(SessionPool, u64)>,
}

impl PooledSession {
    /// A session with no home pool (the non-pooled path).
    pub(crate) fn fresh() -> Self {
        PooledSession {
            session: Some(IncrementalCnf::new()),
            home: None,
        }
    }

    /// Checks a session out of `pool` for `key`, cold on a miss.
    pub(crate) fn checkout(pool: &SessionPool, key: u64) -> Self {
        let session = pool.checkout(key).unwrap_or_default();
        PooledSession {
            session: Some(session),
            home: Some((pool.clone(), key)),
        }
    }

    /// The session itself.
    pub(crate) fn get_mut(&mut self) -> &mut IncrementalCnf<VarKey> {
        self.session.as_mut().expect("session present until drop")
    }
}

impl Drop for PooledSession {
    fn drop(&mut self) {
        if let (Some(session), Some((pool, key))) = (self.session.take(), self.home.take()) {
            if !session.mid_probe() {
                pool.park(key, session);
            }
        }
    }
}

/// FNV-1a, the session-key hasher. Not `DefaultHasher`, whose output
/// may change between Rust releases — pool keys only need to be stable
/// within a process, but a fixed algorithm keeps scans comparable
/// across runs when debugging.
#[derive(Debug)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    pub(crate) fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub(crate) fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub(crate) fn i64(&mut self, v: i64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> IncrementalCnf<VarKey> {
        IncrementalCnf::new()
    }

    #[test]
    fn checkout_miss_then_park_then_hit() {
        let pool = SessionPool::new();
        assert!(pool.checkout(7).is_none());
        assert_eq!(pool.misses(), 1);
        pool.park(7, session());
        assert_eq!(pool.warm_sessions(), 1);
        assert!(pool.checkout(7).is_some());
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.warm_sessions(), 0);
        // A different key misses even with sessions parked elsewhere.
        pool.park(7, session());
        assert!(pool.checkout(8).is_none());
    }

    #[test]
    fn per_key_capacity_bounds_parked_sessions() {
        let pool = SessionPool::new();
        for _ in 0..SESSIONS_PER_KEY + 3 {
            pool.park(1, session());
        }
        assert_eq!(pool.warm_sessions(), SESSIONS_PER_KEY);
    }

    #[test]
    fn oldest_key_is_evicted_when_full() {
        let pool = SessionPool::new();
        for key in 0..(KEYS_RETAINED + 1) as u64 {
            pool.park(key, session());
        }
        // Key 0 was evicted; the newest key is present.
        assert!(pool.checkout(0).is_none());
        assert!(pool.checkout(KEYS_RETAINED as u64).is_some());
    }

    #[test]
    fn mid_probe_sessions_are_not_parked() {
        let pool = SessionPool::new();
        {
            let mut ps = PooledSession::checkout(&pool, 3);
            ps.get_mut().begin_probe(); // never retired
        }
        assert_eq!(pool.warm_sessions(), 0, "poisoned session dropped");
        {
            let mut ps = PooledSession::checkout(&pool, 3);
            ps.get_mut().begin_probe();
            ps.get_mut().end_probe();
        }
        assert_eq!(pool.warm_sessions(), 1, "clean session parked");
    }

    #[test]
    fn fnv_is_order_sensitive_and_stable() {
        let a = Fnv64::new().u64(1).u64(2).finish();
        let b = Fnv64::new().u64(2).u64(1).finish();
        assert_ne!(a, b);
        assert_eq!(
            Fnv64::new().bytes(b"abc").finish(),
            Fnv64::new().bytes(b"abc").finish()
        );
    }
}
