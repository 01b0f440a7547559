//! A content-addressed simulation cache.
//!
//! Gate-library validation, operational-domain sweeps, and designer
//! search all re-simulate the same few dozen layouts over and over —
//! the same tile body under the same input pattern appears once per
//! library validation, once per domain grid point, and hundreds of
//! times during a designer search. [`SimCache`] memoizes
//! [`crate::engine::simulate_with`] results behind a key that
//! canonicalizes the layout (translation-invariant site list) together
//! with every physical and engine parameter that can change the answer.
//!
//! The key includes the run's step cap (`max_steps`): a spectrum that
//! cap truncated is served, still marked truncated, only to runs with
//! the same cap. Runs under a deadline read the cache, but their
//! truncated results are never stored, since where a deadline cuts a
//! search depends on the wall clock; a search that finished under a
//! deadline is exactly the search without one. Nor is a truncated
//! result computed while a fault plan is installed on the thread, as an
//! injected `exhaust` may have cut it short.
//!
//! The cache hosts the `sidb.cache` fault-injection point: any injected
//! fault (a poisoned store, a panic mid-lookup) makes the cache behave
//! as absent — lookups miss and stores are skipped — so a broken cache
//! costs time, never correctness.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use crate::engine::{SimEngine, SimParams};
use crate::exgs::SimulatedState;
use crate::layout::SidbLayout;

/// The engine-selection part of a cache key. `ThreeState` stands for
/// the physical three-state flag, which overrides the engine selection;
/// annealing keys carry the full `AnnealParams` (bits of the floats)
/// because the result depends on them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum EngineKey {
    Exhaustive,
    QuickExact,
    Anneal {
        instances: usize,
        sweeps: usize,
        temperature_bits: u64,
        cooling_bits: u64,
        seed: u64,
    },
    ThreeState,
}

/// What identifies a simulation result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimKey {
    /// Sites translated so the minimal `x`/`y` is zero — simulation is
    /// translation-invariant, so translated copies share an entry.
    sites: Vec<(i32, i32, u8)>,
    /// `PhysicalParams` as exact bit patterns.
    physical_bits: [u64; 4],
    engine: EngineKey,
    k: usize,
    /// The run's step cap.
    max_steps: Option<u64>,
}

impl SimKey {
    /// The key identifying `simulate_with(layout, params)`.
    pub(crate) fn for_simulation(layout: &SidbLayout, params: &SimParams) -> SimKey {
        let (min_x, min_y) = layout
            .sites()
            .iter()
            .fold((i32::MAX, i32::MAX), |(x, y), s| (x.min(s.x), y.min(s.y)));
        let sites = layout
            .sites()
            .iter()
            .map(|s| {
                if layout.is_empty() {
                    (s.x, s.y, s.b)
                } else {
                    (s.x - min_x, s.y - min_y, s.b)
                }
            })
            .collect();
        let p = &params.physical;
        let engine = if p.three_state {
            EngineKey::ThreeState
        } else {
            match params.engine {
                SimEngine::Exhaustive => EngineKey::Exhaustive,
                SimEngine::QuickExact => EngineKey::QuickExact,
                SimEngine::Anneal(a) => EngineKey::Anneal {
                    instances: a.instances,
                    sweeps: a.sweeps,
                    temperature_bits: a.initial_temperature.to_bits(),
                    cooling_bits: a.cooling.to_bits(),
                    seed: a.seed,
                },
            }
        };
        SimKey {
            sites,
            physical_bits: [
                p.mu_minus.to_bits(),
                p.epsilon_r.to_bits(),
                p.lambda_tf_nm.to_bits(),
                p.interaction_cutoff_ev.to_bits(),
            ],
            engine,
            k: params.k,
            max_steps: params.budget.max_steps,
        }
    }
}

/// A stored spectrum.
#[derive(Debug, Clone)]
struct Stored {
    states: Vec<SimulatedState>,
    truncated: bool,
}

/// A shareable content-addressed store of simulation results.
///
/// Cloning is cheap (an `Arc`); clones share the same store, so one
/// cache can serve a whole gate-library validation or designer search.
#[derive(Debug, Clone, Default)]
pub struct SimCache {
    store: Arc<Mutex<HashMap<SimKey, Stored>>>,
}

impl SimCache {
    /// An empty cache.
    pub fn new() -> Self {
        SimCache::default()
    }

    /// Reads the `SIM_CACHE` environment knob: `Some(cache)` unless the
    /// variable is set to `0`, `false`, `off`, or `no`. Caching is on
    /// by default.
    pub fn from_env() -> Option<SimCache> {
        match std::env::var("SIM_CACHE") {
            Ok(v)
                if matches!(
                    v.trim().to_ascii_lowercase().as_str(),
                    "0" | "false" | "off" | "no"
                ) =>
            {
                None
            }
            _ => Some(SimCache::new()),
        }
    }

    /// Number of cached spectra.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all entries.
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Looks up a stored spectrum. `None` on a miss or when the
    /// `sidb.cache` fault point reports the cache unavailable.
    pub(crate) fn lookup(&self, key: &SimKey) -> Option<(Vec<SimulatedState>, bool)> {
        if !Self::available() {
            return None;
        }
        self.lock()
            .get(key)
            .map(|s| (s.states.clone(), s.truncated))
    }

    /// Stores a spectrum (skipped when the fault point reports the
    /// cache unavailable).
    pub(crate) fn store(&self, key: SimKey, states: &[SimulatedState], truncated: bool) {
        if !Self::available() {
            return;
        }
        self.lock().insert(
            key,
            Stored {
                states: states.to_vec(),
                truncated,
            },
        );
    }

    /// Evaluates the `sidb.cache` fault point: any injected fault
    /// (panic, exhaust, …) makes the cache act absent for this access.
    fn available() -> bool {
        matches!(
            catch_unwind(AssertUnwindSafe(|| fcn_budget::fault::check("sidb.cache"))),
            Ok(None)
        )
    }

    /// The store, recovering from lock poisoning (a panicked holder
    /// cannot corrupt the map — writes are single `insert` calls).
    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<SimKey, Stored>> {
        self.store.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PhysicalParams;

    fn params() -> SimParams {
        SimParams::new(PhysicalParams::default())
    }

    #[test]
    fn translated_layouts_share_a_key() {
        let a = SidbLayout::from_sites([(0, 0, 0), (3, 1, 1)]);
        let b = a.translated(11, -4);
        assert_eq!(
            SimKey::for_simulation(&a, &params()),
            SimKey::for_simulation(&b, &params())
        );
    }

    #[test]
    fn physical_params_change_the_key() {
        let l = SidbLayout::from_sites([(0, 0, 0), (3, 1, 1)]);
        let base = SimKey::for_simulation(&l, &params());
        let shifted = SimKey::for_simulation(
            &l,
            &SimParams::new(PhysicalParams::default().with_mu_minus(-0.28)),
        );
        assert_ne!(base, shifted);
        let more = SimKey::for_simulation(&l, &params().with_k(3));
        assert_ne!(base, more);
    }

    #[test]
    fn auto_and_quickexact_share_a_key() {
        let l = SidbLayout::from_sites([(0, 0, 0), (3, 1, 1)]);
        assert_eq!(
            SimKey::for_simulation(&l, &params()),
            SimKey::for_simulation(&l, &params().with_engine(SimEngine::QuickExact))
        );
        assert_ne!(
            SimKey::for_simulation(&l, &params()),
            SimKey::for_simulation(&l, &params().with_engine(SimEngine::Exhaustive))
        );
    }

    #[test]
    fn injected_cache_fault_disables_the_store() {
        use fcn_budget::fault::{install, Fault, FaultPlan};
        let cache = SimCache::new();
        let l = SidbLayout::from_sites([(0, 0, 0)]);
        let key = SimKey::for_simulation(&l, &params());
        cache.store(key.clone(), &[], false);
        assert_eq!(cache.len(), 1);
        let plan = Arc::new(FaultPlan::single("sidb.cache", Fault::Panic));
        let _scope = install(plan.clone());
        assert!(cache.lookup(&key).is_none(), "faulted lookup must miss");
        cache.store(key.clone(), &[], true);
        drop(_scope);
        assert!(plan.hits("sidb.cache") >= 2);
        // The original entry is intact and visible again.
        let (states, truncated) = cache.lookup(&key).expect("entry survived");
        assert!(states.is_empty());
        assert!(!truncated);
    }
}
