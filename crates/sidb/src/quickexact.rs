//! Branch-and-bound exact ground-state search ("QuickExact"-style).
//!
//! The plain exhaustive sweep ([`crate::exgs`]) visits all `2^n`
//! configurations; for the structured layouts of BDL logic that is
//! enormously wasteful, because population stability kills almost every
//! branch early. This engine performs a depth-first search over the sites
//! (ordered by surface position), prunes with three arguments and
//! forces what population stability decides ahead of the walk. Two
//! are monotonicity arguments — assigning further sites can only *lower*
//! local potentials, so
//!
//! * an already-assigned **negative** site whose potential has dropped
//!   below `μ−` can never recover → prune;
//! * an already-assigned **neutral** site whose potential cannot reach
//!   `μ−` even if every remaining site were negative → prune.
//!
//! The third is a branch-and-bound cut on the free energy: a subtree
//! whose lower bound exceeds the k-th best free energy found so far is
//! pruned. The bound is *pair-aware*. Once per cluster the positions
//! are paired by a greedy maximum-interaction matching (the
//! strongest-coupled sites first, so the close dots of a BDL pair
//! pair up). With `g_a = μ − V_a` the free-energy change
//! of making undecided position `a` negative, every undecided pair
//! contributes `min(0, g_a, g_b, g_a + g_b + w_ab)` and every other
//! undecided position `min(0, g_a)`. Making a set `S` negative changes
//! `F` by exactly `Σ_S g_a + Σ_{a<b ∈ S} w_ab`; every screened-Coulomb
//! `w_ab` is `≥ 0` (a cutoff only zeroes entries; external potentials
//! are per site and sit in `V`), so dropping the interactions between
//! pairs leaves a valid lower bound. Against the per-site bound
//! (`min(0, g_a)` for every position) it cuts the nodes of the Figure 5
//! two-input tiles by a quarter to a third and of the half adder by
//! 37 %, at the same cost per node.
//!
//! A forcing lookahead runs at every node. An undecided position `a`
//! whose potential stays above `μ−` even with every undecided site
//! negative, `V_a + P_a − rem_a > μ− + ε`, is negative in every
//! population-stable completion (`P_a` is what the positions forced so
//! far have taken off `V_a`, which `rem_a` counts as well). The search
//! charges it at once and undoes the charge on backtracking through a
//! trail, so the bound and the viability tests see its electron from
//! this node on; a forced position whose potential drops below `μ−` is
//! forced both ways and prunes the node, and when the walk reaches a
//! forced position it only descends. Only a neutral decision raises an
//! undecided position's `V − rem` (a negative one lowers `V` and `rem`
//! alike), so the scan runs after neutral decisions and at the root.
//!
//! How far that leaves the search from `2^n` depends on the gate.
//! Summed over every input pattern of a Figure 5 design at nominal
//! parameters (`BENCH_sim.json`), the search expands 127 nodes for the
//! Huff-style OR (4 patterns), 100,941 for INV (NW→SE) (2 patterns) and
//! 10.2M for the half adder (4 patterns); without the lookahead it
//! expanded 244, 312,465 and 32.0M. CROSS needs about 52M nodes per
//! pattern (about 106M without the lookahead) and stops at the 20M
//! default cap on every one.
//!
//! The per-node loops are compiled twice from one source: the macro
//! `search_kernel!` stamps out a baseline instance of the recursive
//! search and, on x86_64, an instance built with AVX2, and each call
//! picks the AVX2 instance when the CPU reports the feature. Both
//! expand the same nodes in the same order and return bit-identical
//! results. Rust never contracts `a * b + c` into a fused multiply-add,
//! the vectorised loops are element-wise, and the bound's sum stays
//! sequential, so every float operation rounds the same way in both.
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
//! Every returned state carries *canonical* energies: a leaf, the
//! greedy incumbent and a merged multi-cluster state all recompute
//! `E` and `F` from their configuration
//! ([`ChargeConfiguration::electrostatic_energy`],
//! [`ChargeConfiguration::free_energy`]) instead of keeping the sum the
//! search accumulated on its way down. A spectrum is then a function
//! of its set of configurations alone, bit for bit, whatever path,
//! bound or order found them.
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
        Some(m) => m,
        None => {
            owned = InteractionMatrix::new(layout, params);
            &owned
        }
    };

    // Under an interaction cutoff the layout may decompose into
    // independent clusters; solve each exactly and combine (energies add,
    // validity is per-cluster).
    let components = connected_components(m);
    let kernel = Kernel::detect();
    if components.len() == 1 {
        return solve_connected(layout, params, k, budget, Some(m), kernel);
    }
    let run = engine::run_units(components.len(), |ci| {
        let sub = SidbLayout::from_sites(components[ci].iter().map(|&i| layout.sites()[i]));
        if m.has_external() {
            // External potentials are per-site, so they restrict to the
            // component without coupling clusters together.
            let ext: Vec<f64> = components[ci].iter().map(|&i| m.external(i)).collect();
            let sub_m = InteractionMatrix::new(&sub, params).with_external(ext);
            solve_connected(&sub, params, k, budget, Some(&sub_m), kernel)
        } else {
            solve_connected(&sub, params, k, budget, None, kernel)
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
        combine_clusters(m, k, &components, &per_cluster)
    };
    SimResult {
        states,
        truncated,
        stats,
    }
}

/// The compiled instances of the search kernel. Both expand the same
/// nodes in the same order and return bit-identical results; they
/// differ only in the instructions the compiler may use.
#[derive(Clone, Copy)]
enum Kernel {
    Baseline,
    /// Built with AVX2 enabled, for CPUs that report AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Kernel {
    /// The fastest instance this CPU can run.
    fn detect() -> Kernel {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Kernel::Avx2;
        }
        Kernel::Baseline
    }
}

/// Exact k-best search over one connected cluster on the `kernel`
/// instance, charging every expanded node to its own [`Meter`] on
/// `budget`.
fn solve_connected(
    layout: &SidbLayout,
    params: &PhysicalParams,
    k: usize,
    budget: &StepBudget,
    matrix: Option<&InteractionMatrix>,
    kernel: Kernel,
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
    // The pair bound is sound only if no interaction is negative:
    // screened Coulomb repulsion is positive, a cutoff only zeroes
    // entries, and external potentials are per site, outside `w`.
    debug_assert!(
        w.iter().all(|&v| v >= 0.0),
        "negative interaction in the permuted matrix"
    );
    let partner = max_interaction_matching(&w, n);
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
        /// Per position: its partner in the bound's matching, or the
        /// position itself when unpaired.
        partner: &'a [usize],
        n: usize,
        /// Per position: is the site negative? Below `depth` that is
        /// the assignment; from `depth` on it marks the forced positions.
        negative: Vec<bool>,
        /// Per position: the local potential.
        potentials: Vec<f64>,
        /// Per position: how far the forced positions (undecided, but
        /// charged already) have lowered its potential — the part of
        /// `rem` that `potentials` holds already.
        forced_drop: Vec<f64>,
        /// The forced positions, in the order they were charged.
        trail: Vec<usize>,
        energy: f64,
        num_negative: usize,
        best: Vec<SimulatedState>,
        k: usize,
        meter: Meter,
        bound_prunes: u64,
        viability_prunes: u64,
    }

    /// Stamps out one instance of the search kernel, `$name`, from this
    /// one body. Each instance recurses into itself, so the whole
    /// depth-first search runs inside the code its attributes compiled;
    /// the helpers it calls per node are `#[inline(always)]` and are
    /// compiled into each instance with it.
    macro_rules! search_kernel {
        ($(#[$attr:meta])* fn $name:ident) => {
            $(#[$attr])*
            fn $name(&mut self, depth: usize) {
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
                    // Canonical energies, recomputed from the configuration
                    // like the greedy incumbent's: a spectrum then depends
                    // on its set of states, not on the path that found them.
                    self.record(SimulatedState {
                        electrostatic_energy: config.electrostatic_energy(self.m),
                        free_energy: config.free_energy(self.m),
                        config,
                    });
                    return;
                }
                let row = &self.w[depth * self.n..][..self.n];
                if self.negative[depth] {
                    // Forced negative: its electron is applied already, so
                    // the walk only descends, and the position leaves the
                    // forced set `forced_drop` sums over.
                    for (p, &w) in self.forced_drop.iter_mut().zip(row) {
                        *p -= w;
                    }
                    self.$name(depth + 1);
                    for (p, &w) in self.forced_drop.iter_mut().zip(row) {
                        *p += w;
                    }
                    return;
                }
                // Branch 1: negative (viable only if the site's potential can
                // stay above μ−, i.e. is above it right now). The electron
                // lowers every potential but leaves each `V − rem` alone, so
                // only the negatives need a new look.
                if self.potentials[depth] >= self.mu - EPS {
                    self.negative[depth] = true;
                    self.energy -= self.potentials[depth];
                    self.num_negative += 1;
                    if self.charge_row(row) {
                        self.$name(depth + 1);
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
                // push the potential below μ−). Only this decision raises
                // `V − rem`, so only it needs the neutrals checked and the
                // forcing scan run.
                if self.potentials[depth] + self.forced_drop[depth]
                    - self.rem[(depth + 1) * self.n + depth]
                    <= self.mu + EPS
                {
                    if self.neutrals_viable(depth + 1) {
                        let mark = self.trail.len();
                        if self.force(depth + 1) {
                            self.$name(depth + 1);
                        } else {
                            self.viability_prunes += 1;
                        }
                        self.unforce(mark);
                    } else {
                        self.viability_prunes += 1;
                    }
                }
            }
        };
    }

    impl Search<'_> {
        /// Branch-and-bound cut: a lower bound on the free energy of any
        /// completion of the current partial assignment. Making the
        /// undecided positions `S` negative changes `F` by exactly
        /// `Σ_{a∈S} g_a + Σ_{a<b∈S} w_ab` with `g_a = μ − V_a`. Every
        /// `w_ab ≥ 0`, so dropping all interactions except those inside
        /// the matched pairs keeps a lower bound, which then splits into
        /// independent terms: `min(0, g_a, g_b, g_a + g_b + w_ab)` per
        /// undecided pair, `min(0, g_a)` per undecided position whose
        /// partner is decided or that has none.
        #[inline(always)]
        fn free_energy_lower_bound(&self, depth: usize) -> f64 {
            let mut lb = self.energy + self.mu * self.num_negative as f64;
            // A forced position is decided: its `g` is +∞, so it adds
            // nothing and leaves its partner's term `min(0, g)`.
            let g = |a: usize| {
                if self.negative[a] {
                    f64::INFINITY
                } else {
                    self.mu - self.potentials[a]
                }
            };
            for a in depth..self.n {
                let ga = g(a);
                let b = self.partner[a];
                if b > a {
                    let gb = g(b);
                    let both = ga + gb + self.w[a * self.n + b];
                    lb += ga.min(gb).min(both).min(0.0);
                } else if b == a || b < depth {
                    lb += ga.min(0.0);
                }
                // Otherwise `a`'s undecided partner `b < a` counted
                // the pair.
            }
            lb
        }

        /// The pruning threshold: the k-th best free energy found so far.
        #[inline(always)]
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

        /// Subtracts `row` from the potentials and checks that every
        /// negative, assigned or forced, stays at or above `μ−`: the
        /// potentials only fall from here, so one that is below can
        /// never recover.
        #[inline(always)]
        fn charge_row(&mut self, row: &[f64]) -> bool {
            const EPS: f64 = 1e-9;
            let lo = self.mu - EPS;
            self.potentials
                .iter_mut()
                .zip(&self.negative)
                .zip(row)
                .fold(true, |ok, ((v, &neg), &w)| {
                    *v -= w;
                    ok & (!neg | (*v >= lo))
                })
        }

        /// Checks that every assigned neutral in `..depth` can still
        /// reach `μ−`: its lowest reachable potential, `V + P − rem`
        /// with `P = forced_drop`, is at or below it. Adding `P` back
        /// keeps the forced rows, which `V` holds already and `rem`
        /// counts too, from being subtracted twice.
        #[inline(always)]
        fn neutrals_viable(&self, depth: usize) -> bool {
            const EPS: f64 = 1e-9;
            let hi = self.mu + EPS;
            let rem = &self.rem[depth * self.n..][..depth];
            self.potentials[..depth]
                .iter()
                .zip(&self.negative[..depth])
                .zip(&self.forced_drop[..depth])
                .zip(rem)
                .fold(true, |ok, (((&v, &neg), &p), &r)| {
                    ok & (neg | (v + p - r <= hi))
                })
        }

        /// The forcing lookahead. An undecided position `a ≥ from` whose
        /// lowest reachable potential stays above `μ−`, `V_a + P_a −
        /// rem_a(from) > μ− + ε`, is negative in every population-stable
        /// completion, so it is charged now and pushed on the trail.
        /// Charging `a` lowers `V` and raises `P` by the same row, so one
        /// pass finds every position the current node forces. Returns
        /// whether every negative, assigned or forced, is still at or
        /// above `μ−`; a forced one that is not is forced both ways.
        #[inline(always)]
        fn force(&mut self, from: usize) -> bool {
            const EPS: f64 = 1e-9;
            let hi = self.mu + EPS;
            let rem = &self.rem[from * self.n..][..self.n];
            let any = self.potentials[from..]
                .iter()
                .zip(&self.forced_drop[from..])
                .zip(&self.negative[from..])
                .zip(&rem[from..])
                .fold(false, |any, (((&v, &p), &neg), &r)| {
                    any | (!neg & (v + p - r > hi))
                });
            if !any {
                return true;
            }
            let mut ok = true;
            for (a, &r) in rem.iter().enumerate().skip(from) {
                if self.negative[a] || self.potentials[a] + self.forced_drop[a] - r <= hi {
                    continue;
                }
                let row = &self.w[a * self.n..][..self.n];
                self.negative[a] = true;
                self.energy -= self.potentials[a];
                self.num_negative += 1;
                self.trail.push(a);
                for (p, &w) in self.forced_drop.iter_mut().zip(row) {
                    *p += w;
                }
                ok &= self.charge_row(row);
            }
            ok
        }

        /// Undoes the forcing back to trail length `mark`, last first.
        #[inline(always)]
        fn unforce(&mut self, mark: usize) {
            while self.trail.len() > mark {
                let a = self.trail.pop().expect("trail longer than mark");
                let row = &self.w[a * self.n..][..self.n];
                for ((v, p), &w) in self
                    .potentials
                    .iter_mut()
                    .zip(&mut self.forced_drop)
                    .zip(row)
                {
                    *v += w;
                    *p -= w;
                }
                self.num_negative -= 1;
                self.energy += self.potentials[a];
                self.negative[a] = false;
            }
        }

        search_kernel!(fn recurse);
        #[cfg(target_arch = "x86_64")]
        search_kernel!(#[target_feature(enable = "avx2")] fn recurse_avx2);
    }

    let mut search = Search {
        m,
        mu: params.mu_minus,
        order: &order,
        w: &w,
        rem: &rem,
        partner: &partner,
        n,
        negative: vec![false; n],
        potentials: match m.external_slice() {
            Some(ext) => order.iter().map(|&i| ext[i]).collect(),
            None => vec![0.0; n],
        },
        forced_drop: vec![0.0; n],
        trail: Vec::new(),
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
    // The root's own forcing: positions whose potential stays above μ−
    // with every other site negative.
    if !search.force(0) {
        search.viability_prunes += 1;
    } else {
        match kernel {
            Kernel::Baseline => search.recurse(0),
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => {
                assert!(
                    std::arch::is_x86_feature_detected!("avx2"),
                    "the AVX2 kernel instance needs a CPU with AVX2"
                );
                // SAFETY: the CPU reports AVX2, checked just above.
                unsafe { search.recurse_avx2(0) }
            }
        }
    }
    let pruned = search.bound_prunes + search.viability_prunes;
    search.meter.result(search.best, pruned)
}

/// A greedy maximum-interaction matching of the `n` positions of the
/// permuted matrix `w`: the two unmatched positions with the strongest
/// interaction pair up, strongest first, ties in position order.
/// `partner[a]` is `a`'s partner, or `a` itself when it stays unpaired.
fn max_interaction_matching(w: &[f64], n: usize) -> Vec<usize> {
    let mut edges: Vec<(usize, usize)> = (0..n)
        .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
        .filter(|&(a, b)| w[a * n + b] > 0.0)
        .collect();
    // A stable sort, so equal interactions keep their position order.
    edges.sort_by(|&(a, b), &(c, d)| w[c * n + d].total_cmp(&w[a * n + b]));
    let mut partner: Vec<usize> = (0..n).collect();
    for (a, b) in edges {
        if partner[a] == a && partner[b] == b {
            partner[a] = b;
            partner[b] = a;
        }
    }
    partner
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
/// product is fine. Each combined state carries the canonical energies
/// of its configuration under the whole layout's matrix `m`.
fn combine_clusters(
    m: &InteractionMatrix,
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
        let mut config = ChargeConfiguration::neutral(m.num_sites());
        for (ci, comp) in components.iter().enumerate() {
            let state = &per_cluster[ci][choice[ci]];
            for (local, &global) in comp.iter().enumerate() {
                config.set_state(global, state.config.state(local));
            }
        }
        results.push(SimulatedState {
            electrostatic_energy: config.electrostatic_energy(m),
            free_energy: config.free_energy(m),
            config,
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

    /// A random 10-site layout with random per-site external
    /// potentials of up to ±50 mV, and its interaction matrix.
    fn external_potential_layout(
        seed: u64,
        params: &PhysicalParams,
    ) -> (SidbLayout, InteractionMatrix) {
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
        let m = InteractionMatrix::new(&layout, params).with_external(ext);
        (layout, m)
    }

    /// Runs one search on the baseline instance and, where the CPU
    /// reports AVX2, on the AVX2 instance too, and asserts that both
    /// return the same result bit for bit: the same states in the same
    /// order, the same energy bits, and the same `visited`, `pruned`
    /// and truncation. Returns the baseline result.
    fn assert_instances_agree(
        layout: &SidbLayout,
        m: &InteractionMatrix,
        k: usize,
        budget: &StepBudget,
    ) -> SimResult {
        let run = |kernel| solve_connected(layout, m.params(), k, budget, Some(m), kernel);
        let base = run(Kernel::Baseline);
        match Kernel::detect() {
            Kernel::Baseline => {
                eprintln!("AVX2 instance skipped: this CPU does not report AVX2");
            }
            #[cfg(target_arch = "x86_64")]
            fast @ Kernel::Avx2 => {
                let other = run(fast);
                assert_eq!(base, other);
                for (a, b) in base.states.iter().zip(&other.states) {
                    assert_eq!(
                        a.electrostatic_energy.to_bits(),
                        b.electrostatic_energy.to_bits()
                    );
                    assert_eq!(a.free_energy.to_bits(), b.free_energy.to_bits());
                }
            }
        }
        base
    }

    #[test]
    fn kernel_instances_agree_bit_for_bit() {
        let params = PhysicalParams::default();
        let unbounded = StepBudget::unbounded();
        for layout in [wire_pattern_layout(), inverter_pattern_layout()] {
            let m = InteractionMatrix::new(&layout, &params);
            assert!(!assert_instances_agree(&layout, &m, 1, &unbounded).truncated);
        }
        for seed in 1..12u64 {
            let layout = random_layout(seed * 7919, 10);
            let m = InteractionMatrix::new(&layout, &params);
            assert_instances_agree(&layout, &m, 3, &unbounded);
        }
        for seed in 1..40u64 {
            let (layout, m) = external_potential_layout(seed, &params);
            assert_instances_agree(&layout, &m, 3, &unbounded);
        }
        // Under the 2 meV cutoff of `validation_params()`, each
        // cluster is searched on its own, as `low_energy_core` splits it;
        // isolated dots there are forced at the root.
        let cut = PhysicalParams::default().with_cutoff(0.002);
        for layout in [
            wire_pattern_layout(),
            inverter_pattern_layout(),
            with_isolated_dots(random_layout(7919, 8), 3),
        ] {
            assert_clusters_agree(&layout, &cut, 3, &unbounded);
        }
        // A cap of a few hundred nodes stops the inverter search early,
        // so both instances must also stop at the same node.
        let layout = inverter_pattern_layout();
        let m = InteractionMatrix::new(&layout, &params);
        let capped = StepBudget::unbounded().with_max_steps(300);
        let result = assert_instances_agree(&layout, &m, 1, &capped);
        assert!(result.truncated);
        assert_eq!(result.stats.visited, 300);
    }

    /// [`assert_instances_agree`] on each connected cluster of `layout`
    /// under `params`, split the way `low_energy_core` splits it.
    fn assert_clusters_agree(
        layout: &SidbLayout,
        params: &PhysicalParams,
        k: usize,
        budget: &StepBudget,
    ) {
        let m = InteractionMatrix::new(layout, params);
        for component in connected_components(&m) {
            let sub = SidbLayout::from_sites(component.iter().map(|&i| layout.sites()[i]));
            let sub_m = InteractionMatrix::new(&sub, params);
            assert_instances_agree(&sub, &sub_m, k, budget);
        }
    }

    #[test]
    #[ignore = "every Figure 5 pattern on both instances, both models: about a minute in release"]
    fn kernel_instances_agree_on_every_figure5_pattern() {
        // The default step cap, as in `bench_sim`: CROSS stops at it on
        // every pattern, under the full model and under the 2 meV cutoff
        // flow step 7 validates with.
        let cut = PhysicalParams::default().with_cutoff(0.002);
        for physical in [PhysicalParams::default(), cut] {
            let sim = SimParams::new(physical);
            for design in bestagon_lib::tiles::figure5_designs() {
                for pattern in 0..design.num_patterns() {
                    let sites = design.layout_for_pattern(pattern).sites().to_vec();
                    let layout = SidbLayout::from_sites(sites);
                    assert_clusters_agree(&layout, &sim.physical, sim.k, &sim.budget);
                }
            }
        }
    }

    #[test]
    fn agrees_with_gray_code_sweep_on_random_layouts() {
        // Random 8-site layouts, and random 7-site clusters beside three
        // isolated dots, which the forcing lookahead charges at the root.
        // Under the 2 meV cutoff each dot is a one-site cluster of its
        // own, forced at that search's root. Every state of the spectrum
        // must be the exhaustive sweep's, at k = 1 and k = 3.
        let cut = PhysicalParams::default().with_cutoff(0.002);
        for params in [PhysicalParams::default(), cut] {
            for seed in 1..12u64 {
                let isolated = with_isolated_dots(random_layout(seed * 7919, 7), 3);
                for layout in [random_layout(seed * 7919, 8), isolated] {
                    for k in [1, 3] {
                        let slow = exhaustive_low_energy(&layout, &params, k);
                        let fast = quick_exact_low_energy(&layout, &params, k);
                        assert_eq!(slow.len(), fast.len(), "seed {seed}, k {k}");
                        for (a, b) in slow.iter().zip(&fast) {
                            assert_eq!(a.config, b.config, "seed {seed}, k {k}");
                            assert!(
                                (a.free_energy - b.free_energy).abs() < 1e-9,
                                "seed {seed}, k {k}: {} vs {}",
                                a.free_energy,
                                b.free_energy
                            );
                        }
                    }
                }
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
            let (layout, m) = external_potential_layout(seed, &params);
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

    /// `layout` with `count` dots added far from it and from each
    /// other: no completion can leave such a dot neutral, so the
    /// forcing lookahead charges it at the root.
    fn with_isolated_dots(mut layout: SidbLayout, count: i32) -> SidbLayout {
        for i in 0..count {
            layout.add_site((100 + 60 * i, 40 * (i % 2), 0));
        }
        layout
    }

    #[test]
    fn isolated_dots_are_forced_at_the_root() {
        // Four isolated dots: the root scan charges all of them, so the
        // search only descends through the forced positions to its one
        // leaf: one node per depth, nothing pruned, no branching.
        let layout = with_isolated_dots(SidbLayout::new(), 4);
        let result = simulate_with(&layout, &SimParams::new(PhysicalParams::default()));
        assert_eq!((result.stats.visited, result.stats.pruned), (5, 0));
        assert_eq!(result.states.len(), 1);
        assert!((0..4).all(|i| result.states[0].config.state(i) == ChargeState::Negative));
    }

    #[test]
    fn states_carry_the_canonical_energies_of_their_configurations() {
        // Whether a state comes from a search leaf, the greedy incumbent
        // or the merge of split clusters, its energies are bit-equal to
        // the ones its configuration yields under the layout's matrix.
        let check = |layout: &SidbLayout, m: &InteractionMatrix| {
            let sim = SimParams::new(*m.params()).with_k(4);
            let states = engine::simulate_with_matrix(layout, &sim, Some(m)).states;
            assert!(!states.is_empty());
            for s in &states {
                assert_eq!(
                    s.electrostatic_energy.to_bits(),
                    s.config.electrostatic_energy(m).to_bits()
                );
                assert_eq!(s.free_energy.to_bits(), s.config.free_energy(m).to_bits());
            }
        };
        let external = |n: usize, seed: u64| -> Vec<f64> {
            let mut s = seed;
            (0..n)
                .map(|_| {
                    s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                    ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.1
                })
                .collect()
        };
        let params = PhysicalParams::default();
        for seed in 1..12u64 {
            let layout = random_layout(seed * 7919, 10);
            let m = InteractionMatrix::new(&layout, &params);
            check(&layout, &m);
            // A loaded surface: per-site external potentials.
            check(&layout, &m.with_external(external(10, seed)));
        }
        // A 2 meV cutoff splits three far-apart pairs into clusters.
        let cut = PhysicalParams::default().with_cutoff(0.002);
        let mut layout = SidbLayout::new();
        for c in 0..3 {
            layout.add_site((40 * c, 0, 0));
            layout.add_site((40 * c + 2, 0, 0));
        }
        let m = InteractionMatrix::new(&layout, &cut);
        assert_eq!(connected_components(&m).len(), 3);
        check(&layout, &m);
        check(&layout, &m.with_external(external(6, 5)));
    }

    /// Figure 5 WIRE (NW→SW) under input pattern 1, perturbers included.
    fn wire_pattern_layout() -> SidbLayout {
        SidbLayout::from_sites([
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
        ])
    }

    #[test]
    fn wire_pattern_search_is_pinned() {
        // Figure 5 WIRE (NW→SW) under input pattern 1, perturbers
        // included. The node counts pin the branch-and-bound's exact
        // node sequence: a kernel change that reorders or re-prunes
        // the search fails here.
        let layout = wire_pattern_layout();
        let result = simulate_with(&layout, &SimParams::new(PhysicalParams::default()));
        assert!(!result.truncated);
        assert_eq!((result.stats.visited, result.stats.pruned), (407, 128));
    }

    /// Figure 5 INV (NW→SE) under input pattern 0, perturbers included.
    fn inverter_pattern_layout() -> SidbLayout {
        SidbLayout::from_sites([
            (8, 10, 0),
            (14, 1, 0),
            (14, 4, 0),
            (14, 7, 0),
            (14, 10, 0),
            (16, -2, 1),
            (16, 1, 0),
            (16, 4, 0),
            (16, 7, 0),
            (16, 10, 0),
            (18, 15, 0),
            (21, 11, 1),
            (22, 10, 0),
            (22, 18, 0),
            (24, 10, 0),
            (30, 10, 0),
            (32, 10, 0),
            (37, 10, 0),
            (39, 10, 0),
            (40, 9, 0),
            (44, 10, 0),
            (44, 12, 0),
            (44, 14, 0),
            (44, 17, 0),
            (44, 19, 0),
            (44, 22, 0),
            (45, 25, 0),
            (46, 10, 0),
            (46, 12, 0),
            (46, 14, 0),
            (46, 17, 0),
            (46, 19, 0),
            (46, 22, 0),
            (52, 10, 0),
        ])
    }

    #[test]
    fn inverter_pattern_search_is_pinned() {
        // Figure 5 INV (NW→SE) under input pattern 0, perturbers
        // included. Unlike the straight wire above, this search is one
        // the pair bound cuts by about a third and the forcing lookahead
        // by two thirds more, so a change to the bound, the forcing or
        // the search order fails here.
        let layout = inverter_pattern_layout();
        let result = simulate_with(&layout, &SimParams::new(PhysicalParams::default()));
        assert!(!result.truncated);
        assert_eq!(
            (result.stats.visited, result.stats.pruned),
            (53_409, 25_273)
        );
    }

    #[test]
    fn max_interaction_matching_pairs_the_strongest_first() {
        // Two close pairs far from each other and a fifth site farther
        // still: the matching recovers the pairs and leaves the odd site
        // unpaired.
        let params = PhysicalParams::default();
        let layout =
            SidbLayout::from_sites([(0, 0, 0), (0, 1, 0), (20, 0, 0), (20, 1, 0), (40, 0, 0)]);
        let m = InteractionMatrix::new(&layout, &params);
        let w: Vec<f64> = (0..5)
            .flat_map(|i| (0..5).map(move |j| (i, j)))
            .map(|(i, j)| m.interaction(i, j))
            .collect();
        assert_eq!(max_interaction_matching(&w, 5), vec![1, 0, 3, 2, 4]);
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
