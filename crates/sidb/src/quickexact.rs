//! Branch-and-bound exact ground-state search ("QuickExact"-style).
//!
//! The plain exhaustive sweep ([`crate::exgs`]) visits all `2^n`
//! configurations; for the structured layouts of BDL logic that is
//! enormously wasteful, because population stability kills almost every
//! branch early. This engine performs a depth-first search over the sites
//! (ordered by surface position) and prunes with two monotonicity
//! arguments — assigning further sites can only *lower* local potentials,
//! so
//!
//! * an already-assigned **negative** site whose potential has dropped
//!   below `μ−` can never recover → prune;
//! * an already-assigned **neutral** site whose potential cannot reach
//!   `μ−` even if every remaining site were negative → prune.
//!
//! For gate-sized BDL structures this reduces the effective search to a
//! few hundred branches, making exact validation cheap enough to sit in
//! the inner loop of the automated gate designer.
//!
//! The search works in *position* space. Each cluster's interaction
//! matrix is permuted once into the order the search assigns sites in,
//! and the potentials, the assigned charges (a `bool` mask) and the
//! remaining-interaction table (transposed: one row per depth) are
//! indexed by position, so every per-node loop streams a contiguous
//! slice. Each potential gets the same float operations in the same
//! order as a site-indexed search would give it (the permuted diagonal
//! adds an exact zero), so node counts and spectra do not depend on the
//! layout of the search state.
//!
//! Under an interaction cutoff the layout may decompose into independent
//! clusters; each cluster is an independent partition unit solved across
//! the ordered executor, and the per-cluster spectra are merged
//! best-first. Callers reach this engine through
//! [`crate::engine::simulate_with`] with
//! [`SimEngine::QuickExact`](crate::engine::SimEngine).
//!
//! Every expanded node is charged to the run's
//! [`SimParams::budget`](crate::engine::SimParams) through one meter
//! per cluster, so each cluster may expand up to `max_steps` nodes.
//! When a meter refuses a node the search unwinds with the best states
//! found so far (the greedy incumbent guarantees at least one) and the
//! result is marked truncated.

use crate::charge::{ChargeConfiguration, ChargeState, InteractionMatrix};
use crate::engine::{self, Meter, SimResult, SimStats};
use crate::exgs::SimulatedState;
use crate::layout::SidbLayout;
use crate::model::PhysicalParams;
use fcn_budget::StepBudget;

/// The engine core: exact k-best search, decomposing into connected
/// clusters of the interaction graph and solving them as partition
/// units. `matrix`, when given, must be the interaction matrix of
/// `layout` under `params` (shared by gate validation across input
/// patterns).
pub(crate) fn low_energy_core(
    layout: &SidbLayout,
    params: &PhysicalParams,
    k: usize,
    budget: &StepBudget,
    matrix: Option<&InteractionMatrix>,
) -> SimResult {
    assert!(
        !params.three_state,
        "quick-exact implements the two-state model"
    );
    let n = layout.num_sites();
    if n == 0 || k == 0 {
        return SimResult::default();
    }
    let owned;
    let m = match matrix {
        Some(m) if m.num_sites() == n => m,
        _ => {
            owned = InteractionMatrix::new(layout, params);
            &owned
        }
    };

    // Under an interaction cutoff the layout may decompose into
    // independent clusters; solve each exactly and combine (energies add,
    // validity is per-cluster).
    let components = connected_components(m);
    if components.len() == 1 {
        return solve_connected(layout, params, k, budget, Some(m));
    }
    let run = engine::run_units(components.len(), |ci| {
        let sub = SidbLayout::from_sites(components[ci].iter().map(|&i| layout.sites()[i]));
        if m.has_external() {
            // External potentials are per-site, so they restrict to the
            // component without coupling clusters together.
            let ext: Vec<f64> = components[ci].iter().map(|&i| m.external(i)).collect();
            let sub_m = InteractionMatrix::new(&sub, params).with_external(ext);
            solve_connected(&sub, params, k, budget, Some(&sub_m))
        } else {
            solve_connected(&sub, params, k, budget, None)
        }
    });
    let truncated = run.results.iter().any(|r| r.truncated);
    let mut stats = SimStats {
        recovered: run.recovered,
        ..SimStats::default()
    };
    for r in &run.results {
        stats.merge(&r.stats);
    }
    stats.truncated = u64::from(truncated);
    // A cluster with no valid state (never for n > 0) empties the
    // combined spectrum.
    let states = if run.results.iter().any(|r| r.states.is_empty()) {
        Vec::new()
    } else {
        let per_cluster: Vec<Vec<SimulatedState>> =
            run.results.into_iter().map(|r| r.states).collect();
        combine_clusters(layout, k, &components, &per_cluster)
    };
    SimResult {
        states,
        truncated,
        stats,
    }
}

/// Exact k-best search over one connected cluster, charging every
/// expanded node to its own [`Meter`] on `budget`.
fn solve_connected(
    layout: &SidbLayout,
    params: &PhysicalParams,
    k: usize,
    budget: &StepBudget,
    matrix: Option<&InteractionMatrix>,
) -> SimResult {
    let n = layout.num_sites();
    let owned;
    let m = match matrix {
        Some(m) => m,
        None => {
            owned = InteractionMatrix::new(layout, params);
            &owned
        }
    };

    // Decide physically close sites together — that is what makes the
    // bounds bite. A Prim-style proximity order (grow a connected blob,
    // always appending the unvisited site closest to the blob) keeps the
    // search local even for layouts with several independent chains,
    // where a naive row-major order would multiply their branchings.
    let order: Vec<usize> = {
        let start = (0..n)
            .min_by_key(|&i| {
                let s = layout.sites()[i];
                (s.y, s.x, s.b)
            })
            .expect("n > 0");
        let mut order = vec![start];
        let mut dist: Vec<f64> = (0..n)
            .map(|i| {
                if i == start {
                    f64::INFINITY
                } else {
                    layout.distance_angstrom(start, i)
                }
            })
            .collect();
        let mut visited = vec![false; n];
        visited[start] = true;
        for _ in 1..n {
            let next = (0..n)
                .filter(|&i| !visited[i])
                .min_by(|&a, &b| dist[a].partial_cmp(&dist[b]).expect("finite"))
                .expect("unvisited site remains");
            visited[next] = true;
            order.push(next);
            for i in 0..n {
                if !visited[i] {
                    dist[i] = dist[i].min(layout.distance_angstrom(next, i));
                }
            }
        }
        order
    };

    // The search runs in position space: position `a` holds site
    // `order[a]`, and every per-node loop streams a contiguous slice.
    // w[a·n + b] = v(order[a], order[b]) (zero diagonal).
    let w: Vec<f64> = order
        .iter()
        .flat_map(|&i| order.iter().map(move |&j| m.interaction(i, j)))
        .collect();
    // rem[d·n + a] = Σ_{t ≥ d} w[a·n + t]: the maximum additional
    // (negative) potential position a can still receive from undecided
    // positions at depth d — one row per depth.
    let mut rem = vec![0.0f64; n * (n + 1)];
    for d in (0..n).rev() {
        for a in 0..n {
            rem[d * n + a] = rem[(d + 1) * n + a] + w[a * n + d];
        }
    }

    struct Search<'a> {
        m: &'a InteractionMatrix,
        mu: f64,
        order: &'a [usize],
        w: &'a [f64],
        rem: &'a [f64],
        n: usize,
        /// Per position: is the assigned site negative? (`false` from
        /// `depth` on.)
        negative: Vec<bool>,
        /// Per position: the local potential.
        potentials: Vec<f64>,
        energy: f64,
        num_negative: usize,
        best: Vec<SimulatedState>,
        k: usize,
        meter: Meter,
        bound_prunes: u64,
        viability_prunes: u64,
    }

    impl Search<'_> {
        /// Branch-and-bound cut: a lower bound on the free energy of any
        /// completion of the current partial assignment. Adding a negative
        /// at undecided site `j` changes `F` by at least `μ − V_j`
        /// (interactions among added electrons only increase `F`), so
        /// undecided sites contribute at least `min(0, μ − V_j)` each.
        fn free_energy_lower_bound(&self, depth: usize) -> f64 {
            let mut lb = self.energy + self.mu * self.num_negative as f64;
            for &v in &self.potentials[depth..] {
                let gain = self.mu - v;
                if gain < 0.0 {
                    lb += gain;
                }
            }
            lb
        }

        /// The pruning threshold: the k-th best free energy found so far.
        fn bound(&self) -> f64 {
            if self.best.len() == self.k {
                self.best.last().expect("k > 0").free_energy + 1e-12
            } else {
                f64::INFINITY
            }
        }

        /// Inserts a valid state into the k-best list (deduplicated, so
        /// the seeding incumbent is not double-counted when the search
        /// rediscovers it).
        fn record(&mut self, state: SimulatedState) {
            if self.best.iter().any(|s| s.config == state.config) {
                return;
            }
            engine::insert_state(&mut self.best, state, self.k);
        }

        /// Checks whether the partial assignment can still extend to a
        /// population-stable configuration: no assigned negative below
        /// `μ−`, no assigned neutral that cannot reach it.
        fn viable(&self, depth: usize) -> bool {
            const EPS: f64 = 1e-9;
            let (lo, hi) = (self.mu - EPS, self.mu + EPS);
            let rem = &self.rem[depth * self.n..][..depth];
            self.potentials[..depth]
                .iter()
                .zip(&self.negative[..depth])
                .zip(rem)
                .fold(true, |ok, ((&v, &neg), &r)| {
                    ok & if neg { v >= lo } else { v - r <= hi }
                })
        }

        fn recurse(&mut self, depth: usize) {
            const EPS: f64 = 1e-9;
            if !self.meter.charge() {
                // Budget exhausted: unwind with the best states found
                // so far (the greedy incumbent guarantees at least one).
                return;
            }
            if self.free_energy_lower_bound(depth) > self.bound() {
                self.bound_prunes += 1;
                return;
            }
            if depth == self.n {
                let mut states = vec![ChargeState::Neutral; self.n];
                for (&site, &neg) in self.order.iter().zip(&self.negative) {
                    if neg {
                        states[site] = ChargeState::Negative;
                    }
                }
                let config = ChargeConfiguration::from_states(states);
                if !config.is_configuration_stable(self.m) {
                    return;
                }
                let free = self.energy + self.mu * self.num_negative as f64;
                self.record(SimulatedState {
                    config,
                    electrostatic_energy: self.energy,
                    free_energy: free,
                });
                return;
            }
            let row = &self.w[depth * self.n..][..self.n];
            // Branch 1: negative (viable only if the site's potential can
            // stay above μ−, i.e. is above it right now).
            if self.potentials[depth] >= self.mu - EPS {
                self.negative[depth] = true;
                self.energy -= self.potentials[depth];
                self.num_negative += 1;
                for (v, &w) in self.potentials.iter_mut().zip(row) {
                    *v -= w;
                }
                if self.viable(depth + 1) {
                    self.recurse(depth + 1);
                } else {
                    self.viability_prunes += 1;
                }
                for (v, &w) in self.potentials.iter_mut().zip(row) {
                    *v += w;
                }
                self.num_negative -= 1;
                self.energy += self.potentials[depth];
                self.negative[depth] = false;
            }
            // Branch 2: neutral (viable only if remaining sites can still
            // push the potential below μ−).
            if self.potentials[depth] - self.rem[(depth + 1) * self.n + depth] <= self.mu + EPS {
                if self.viable(depth + 1) {
                    self.recurse(depth + 1);
                } else {
                    self.viability_prunes += 1;
                }
            }
        }
    }

    let mut search = Search {
        m,
        mu: params.mu_minus,
        order: &order,
        w: &w,
        rem: &rem,
        n,
        negative: vec![false; n],
        potentials: match m.external_slice() {
            Some(ext) => order.iter().map(|&i| ext[i]).collect(),
            None => vec![0.0; n],
        },
        energy: 0.0,
        num_negative: 0,
        best: Vec::new(),
        k,
        meter: Meter::new(budget, 0),
        bound_prunes: 0,
        viability_prunes: 0,
    };
    // Seed the incumbent with a greedy descent: a local minimum of the
    // free energy under single flips and hops is exactly a physically
    // valid configuration, giving the branch-and-bound a strong initial
    // bound that usually *is* the ground state.
    let incumbent = greedy_descent(m, params, n);
    search.record(SimulatedState {
        electrostatic_energy: incumbent.electrostatic_energy(m),
        free_energy: incumbent.free_energy(m),
        config: incumbent,
    });
    search.recurse(0);
    let pruned = search.bound_prunes + search.viability_prunes;
    search.meter.result(search.best, pruned)
}

/// Connected components of the (possibly cutoff) interaction graph.
fn connected_components(m: &InteractionMatrix) -> Vec<Vec<usize>> {
    let n = m.num_sites();
    let mut component = vec![usize::MAX; n];
    let mut count = 0;
    for start in 0..n {
        if component[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        component[start] = count;
        while let Some(i) = stack.pop() {
            for (j, c) in component.iter_mut().enumerate() {
                if *c == usize::MAX && m.interaction(i, j) > 0.0 {
                    *c = count;
                    stack.push(j);
                }
            }
        }
        count += 1;
    }
    let mut groups = vec![Vec::new(); count];
    for (i, &c) in component.iter().enumerate() {
        groups[c].push(i);
    }
    groups
}

/// Combines per-cluster k-best lists into global k-best states by
/// best-first enumeration of index tuples (free energies add across
/// clusters). Cluster counts are small (k per cluster), so a bounded
/// product is fine.
fn combine_clusters(
    layout: &SidbLayout,
    k: usize,
    components: &[Vec<usize>],
    per_cluster: &[Vec<SimulatedState>],
) -> Vec<SimulatedState> {
    let mut combos: Vec<(f64, Vec<usize>)> = vec![(
        per_cluster.iter().map(|c| c[0].free_energy).sum(),
        vec![0; per_cluster.len()],
    )];
    let mut results: Vec<SimulatedState> = Vec::new();
    let mut seen: std::collections::HashSet<Vec<usize>> = std::collections::HashSet::new();
    seen.insert(combos[0].1.clone());
    while results.len() < k && !combos.is_empty() {
        // Pop the lowest-energy combination.
        let best_idx = combos
            .iter()
            .enumerate()
            .min_by(|a, b| a.1 .0.partial_cmp(&b.1 .0).expect("finite"))
            .map(|(i, _)| i)
            .expect("non-empty");
        let (free, choice) = combos.swap_remove(best_idx);
        // Materialize the combined configuration.
        let mut config = ChargeConfiguration::neutral(layout.num_sites());
        let mut energy = 0.0;
        for (ci, comp) in components.iter().enumerate() {
            let state = &per_cluster[ci][choice[ci]];
            energy += state.electrostatic_energy;
            for (local, &global) in comp.iter().enumerate() {
                config.set_state(global, state.config.state(local));
            }
        }
        results.push(SimulatedState {
            config,
            electrostatic_energy: energy,
            free_energy: free,
        });
        // Successors: advance one cluster's index.
        for ci in 0..per_cluster.len() {
            if choice[ci] + 1 < per_cluster[ci].len() {
                let mut next = choice.clone();
                next[ci] += 1;
                if seen.insert(next.clone()) {
                    let f = free - per_cluster[ci][choice[ci]].free_energy
                        + per_cluster[ci][next[ci]].free_energy;
                    combos.push((f, next));
                }
            }
        }
    }
    results
}

/// Greedy descent from the all-neutral configuration to a local minimum
/// of the grand-potential free energy (= a physically valid state).
fn greedy_descent(m: &InteractionMatrix, params: &PhysicalParams, n: usize) -> ChargeConfiguration {
    const EPS: f64 = 1e-12;
    let mut config = ChargeConfiguration::neutral(n);
    let mut potentials = match m.external_slice() {
        Some(ext) => ext.to_vec(),
        None => vec![0.0f64; n],
    };
    let mu = params.mu_minus;
    loop {
        let mut improved = false;
        for i in 0..n {
            let delta = match config.state(i) {
                ChargeState::Neutral => mu - potentials[i],
                ChargeState::Negative => potentials[i] - mu,
                ChargeState::Positive => unreachable!("two-state descent"),
            };
            if delta < -EPS {
                let dn = if config.state(i) == ChargeState::Neutral {
                    -1.0
                } else {
                    1.0
                };
                config.set_state(
                    i,
                    if dn < 0.0 {
                        ChargeState::Negative
                    } else {
                        ChargeState::Neutral
                    },
                );
                for (j, p) in potentials.iter_mut().enumerate() {
                    if j != i {
                        *p += dn * m.interaction(i, j);
                    }
                }
                improved = true;
            }
        }
        for i in 0..n {
            if config.state(i) != ChargeState::Negative {
                continue;
            }
            for j in 0..n {
                if config.state(j) != ChargeState::Neutral {
                    continue;
                }
                if potentials[i] - potentials[j] - m.interaction(i, j) < -EPS {
                    config.set_state(i, ChargeState::Neutral);
                    config.set_state(j, ChargeState::Negative);
                    for (t, p) in potentials.iter_mut().enumerate() {
                        if t != i {
                            *p += m.interaction(i, t);
                        }
                        if t != j {
                            *p -= m.interaction(j, t);
                        }
                    }
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            return config;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{simulate_with, SimEngine, SimParams};
    use fcn_budget::exec::with_width;

    fn low_energy(
        layout: &SidbLayout,
        params: &PhysicalParams,
        k: usize,
        engine: SimEngine,
    ) -> Vec<SimulatedState> {
        simulate_with(
            layout,
            &SimParams::new(*params).with_engine(engine).with_k(k),
        )
        .states
    }

    fn exhaustive_low_energy(
        layout: &SidbLayout,
        params: &PhysicalParams,
        k: usize,
    ) -> Vec<SimulatedState> {
        low_energy(layout, params, k, SimEngine::Exhaustive)
    }

    fn quick_exact_low_energy(
        layout: &SidbLayout,
        params: &PhysicalParams,
        k: usize,
    ) -> Vec<SimulatedState> {
        low_energy(layout, params, k, SimEngine::QuickExact)
    }

    fn quick_exact_ground_state(
        layout: &SidbLayout,
        params: &PhysicalParams,
    ) -> Option<ChargeConfiguration> {
        quick_exact_low_energy(layout, params, 1)
            .pop()
            .map(|s| s.config)
    }

    fn random_layout(seed: u64, n: usize) -> SidbLayout {
        let mut s = seed;
        let mut rand = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut layout = SidbLayout::new();
        while layout.num_sites() < n {
            let x = (rand() % 12) as i32;
            let y = (rand() % 12) as i32;
            let b = (rand() % 2) as u8;
            layout.add_site((x, y, b));
        }
        layout
    }

    #[test]
    fn agrees_with_gray_code_sweep_on_random_layouts() {
        let params = PhysicalParams::default();
        for seed in 1..12u64 {
            let layout = random_layout(seed * 7919, 8);
            let slow = exhaustive_low_energy(&layout, &params, 3);
            let fast = quick_exact_low_energy(&layout, &params, 3);
            assert_eq!(slow.len(), fast.len(), "seed {seed}");
            for (a, b) in slow.iter().zip(&fast) {
                assert!(
                    (a.free_energy - b.free_energy).abs() < 1e-9,
                    "seed {seed}: {} vs {}",
                    a.free_energy,
                    b.free_energy
                );
            }
        }
    }

    #[test]
    fn agrees_with_gray_code_sweep_under_external_potentials() {
        // Per-site external potentials enter the search permuted into
        // its position order; every state of the k-best spectrum must
        // match the exhaustive sweep's.
        let params = PhysicalParams::default();
        let mut multi_state = 0;
        for seed in 1..40u64 {
            let mut s = seed;
            let mut rand = move || {
                s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                s >> 11
            };
            let mut layout = SidbLayout::new();
            while layout.num_sites() < 10 {
                layout.add_site((
                    (rand() % 10) as i32,
                    (rand() % 6) as i32,
                    (rand() % 2) as u8,
                ));
            }
            let ext: Vec<f64> = (0..layout.num_sites())
                .map(|_| (rand() as f64 / (1u64 << 53) as f64 - 0.5) * 0.1)
                .collect();
            let m = InteractionMatrix::new(&layout, &params).with_external(ext);
            let run = |engine| {
                let sim = SimParams::new(params).with_engine(engine).with_k(3);
                engine::simulate_with_matrix(&layout, &sim, Some(&m)).states
            };
            let slow = run(SimEngine::Exhaustive);
            let fast = run(SimEngine::QuickExact);
            assert_eq!(slow.len(), fast.len(), "seed {seed}");
            multi_state += usize::from(slow.len() > 1);
            for (a, b) in slow.iter().zip(&fast) {
                assert_eq!(a.config, b.config, "seed {seed}");
                assert!(
                    (a.free_energy - b.free_energy).abs() < 1e-9,
                    "seed {seed}: {} vs {}",
                    a.free_energy,
                    b.free_energy
                );
            }
        }
        assert!(multi_state > 0, "no seed exercises k > 1");
    }

    #[test]
    fn wire_pattern_search_is_pinned() {
        // Figure 5 WIRE (NW→SW) under input pattern 1, perturbers
        // included. The node counts pin the branch-and-bound's exact
        // node sequence: a kernel change that reorders or re-prunes
        // the search fails here.
        let layout = SidbLayout::from_sites([
            (14, -2, 1),
            (14, 1, 0),
            (14, 4, 0),
            (14, 7, 0),
            (14, 10, 0),
            (14, 13, 0),
            (14, 16, 0),
            (14, 19, 0),
            (14, 22, 0),
            (15, 25, 0),
            (16, 1, 0),
            (16, 4, 0),
            (16, 7, 0),
            (16, 10, 0),
            (16, 13, 0),
            (16, 16, 0),
            (16, 19, 0),
            (16, 22, 0),
        ]);
        let result = simulate_with(&layout, &SimParams::new(PhysicalParams::default()));
        assert!(!result.truncated);
        assert_eq!((result.stats.visited, result.stats.pruned), (900, 251));
    }

    #[test]
    fn agrees_on_bdl_wire() {
        let params = PhysicalParams::default();
        let mut layout = SidbLayout::new();
        for k in 0..4 {
            layout.add_site((0, 4 * k, 0));
            layout.add_site((0, 4 * k + 1, 0));
        }
        layout.add_site((0, -3, 0));
        let slow = exhaustive_low_energy(&layout, &params, 1);
        let fast = quick_exact_low_energy(&layout, &params, 1);
        assert_eq!(slow[0].config, fast[0].config);
    }

    #[test]
    fn handles_single_site() {
        let layout = SidbLayout::from_sites([(0, 0, 0)]);
        let gs = quick_exact_ground_state(&layout, &PhysicalParams::default()).expect("ok");
        assert_eq!(gs.state(0), ChargeState::Negative);
    }

    #[test]
    fn scales_to_gate_sized_layouts() {
        // 24 sites: a 12-pair chain — far beyond comfortable 2^24 sweeps,
        // instant with branch and bound.
        let params = PhysicalParams::default();
        let mut layout = SidbLayout::new();
        for k in 0..12 {
            layout.add_site((0, 4 * k, 0));
            layout.add_site((0, 4 * k + 1, 0));
        }
        let gs = quick_exact_ground_state(&layout, &params).expect("ok");
        let m = InteractionMatrix::new(&layout, &params);
        assert!(gs.is_physically_valid(&m));
        // Every pair holds at least one electron.
        for k in 0..12usize {
            let a = layout.index_of((0, 4 * k as i32, 0)).expect("site");
            let b = layout.index_of((0, 4 * k as i32 + 1, 0)).expect("site");
            assert!(
                gs.state(a) == ChargeState::Negative || gs.state(b) == ChargeState::Negative,
                "pair {k} lost its electron"
            );
        }
    }

    #[test]
    fn empty_layout() {
        assert!(quick_exact_ground_state(&SidbLayout::new(), &PhysicalParams::default()).is_none());
    }

    #[test]
    fn clustered_layouts_agree_across_thread_counts() {
        // A 2 meV cutoff decomposes three far-apart pairs into clusters;
        // the component partition must merge identically at any width.
        let params = PhysicalParams::default().with_cutoff(0.002);
        let mut layout = SidbLayout::new();
        for c in 0..3 {
            layout.add_site((40 * c, 0, 0));
            layout.add_site((40 * c + 2, 0, 0));
        }
        let budget = StepBudget::unbounded();
        let serial = with_width(1, || low_energy_core(&layout, &params, 4, &budget, None));
        let wide = with_width(4, || low_energy_core(&layout, &params, 4, &budget, None));
        assert_eq!(serial, wide);
        assert!(!serial.states.is_empty());
    }
}
