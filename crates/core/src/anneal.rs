//! Simulated-annealing refinement of the core placement.
//!
//! "Once the initial mapping step is performed, the solution space can be
//! explored further by considering swapping of vertices using simulated
//! annealing or tabu search, as performed in \[19\]." — Section 5.
//!
//! A move swaps the NIs of two cores (or moves a core to a free NI); all
//! paths and slot tables are rebuilt with the placement fixed. Moves that
//! lower the bandwidth-weighted hop cost ([`MappingSolution::comm_cost`])
//! are always accepted; uphill moves are accepted with the Metropolis
//! probability under a geometrically cooling temperature.
//!
//! With [`AnnealConfig::chains`] > 1, that search runs as several
//! **independent chains in parallel** (via [`noc_par`]), each seeded
//! deterministically from `(seed, chain index)`; the winner is picked by
//! `(cost, chain index)`, so results are bit-identical at any thread
//! count and `chains = 1` reproduces the historical single-chain walk
//! exactly.
//!
//! # Delta evaluation
//!
//! A swap move relocates at most two cores, and with placement fixed
//! each group's configuration is a pure function of its own cores' NIs
//! (see [`reroute_preset_groups`]). The inner loop therefore re-routes
//! **only the groups whose traffic touches a moved core**, splices the
//! rest from the current solution, and rolls a rejected move back in
//! place — no full re-route, no per-iteration clone of the core mapping
//! or re-collection of the core list. Each chain owns a [`RouteCache`]
//! seeded from the starting solution, so a move whose affected groups
//! revisit an already-seen placement signature splices the memoized
//! configs instead of re-routing them (`route_cache_hits` /
//! `route_cache_misses` in [`crate::perf`]). The walk (RNG stream,
//! accepted solutions, final winner) is byte-identical to the
//! historical full-re-route implementation; `tests/perf_counters.rs`
//! pins the op counts, the goldens pin the bytes.

use noc_obs::{count, Counter};
use noc_usecase::spec::SocSpec;
use noc_usecase::UseCaseGroups;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::error::MapError;
use crate::mapper::{preset_twin, reroute_preset_groups, MapperOptions, RouteCache};
use crate::merge::merged_group_flows;
use crate::result::MappingSolution;
use crate::seat::{groups_touching, swap};

/// Annealing schedule parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnnealConfig {
    /// Number of proposed moves.
    pub iterations: usize,
    /// Initial temperature, in cost units (comm-cost is MB/s·hops, so a
    /// temperature of e.g. 500 accepts early uphill moves of a few
    /// hundred MB/s·hops).
    pub initial_temperature: f64,
    /// Geometric cooling factor per iteration, in `(0, 1)`.
    pub cooling: f64,
    /// RNG seed (annealing is deterministic given the seed).
    pub seed: u64,
    /// Number of independent chains to run (in parallel when the
    /// effective `noc-par` thread count allows). Chain `i` walks with
    /// seed `chain_seed(seed, i)` where chain 0 reuses `seed` itself, so
    /// the default of 1 is exactly the historical behavior.
    pub chains: usize,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            iterations: 200,
            initial_temperature: 500.0,
            cooling: 0.97,
            seed: 1,
            chains: 1,
        }
    }
}

/// The RNG seed of chain `chain` under base seed `seed`: chain 0 keeps
/// the base seed, later chains stride by the 64-bit golden ratio (the
/// splitmix64 increment), which cannot collide for chain counts below
/// 2^64.
pub fn chain_seed(seed: u64, chain: usize) -> u64 {
    seed.wrapping_add((chain as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Refines `initial` by annealing over core swaps, returning the best
/// verified solution found (which is `initial` itself if no move helps).
///
/// # Errors
///
/// Propagates mapper errors only for the *initial* re-route sanity pass;
/// failed candidate moves are simply rejected.
pub fn refine(
    soc: &SocSpec,
    groups: &UseCaseGroups,
    options: &MapperOptions,
    initial: &MappingSolution,
    config: &AnnealConfig,
) -> Result<MappingSolution, MapError> {
    assert!(
        config.cooling > 0.0 && config.cooling < 1.0,
        "cooling must be in (0, 1)"
    );
    // Re-route the initial placement so current/best are produced by the
    // same pipeline as every candidate (comparable costs).
    let rerouted_start = preset_twin(soc, groups, options, initial)?;
    let initial_wins = initial.comm_cost() <= rerouted_start.comm_cost();
    let start = if initial_wins {
        initial.clone()
    } else {
        rerouted_start.clone()
    };
    let nis = initial.topology().nis().to_vec();

    // Hoisted out of the walk: the core list never changes (moves only
    // re-place existing cores), and neither does which groups a core's
    // traffic touches.
    let cores: Vec<_> = start.core_mapping().keys().copied().collect();
    let merged = merged_group_flows(soc, groups);
    let touched: std::collections::BTreeMap<_, Vec<bool>> = cores
        .iter()
        .map(|&core| (core, groups_touching(&merged, |c| c == core)))
        .collect();

    let run_chain = |chain: usize| -> MappingSolution {
        let span = noc_obs::span("anneal-chain");
        span.attr("chain", chain);
        span.attr("iterations", config.iterations as u64);
        let mut moves: u64 = 0;
        let mut accepts: u64 = 0;
        let mut rng = SmallRng::seed_from_u64(chain_seed(config.seed, chain));
        // Per-chain cache (schedule-independent hit/miss counts), seeded
        // with the preset-pure start so moves revisiting the starting
        // signature of a group hit immediately.
        let mut cache = RouteCache::new(&merged);
        cache.seed(&rerouted_start);
        let mut current = start.clone();
        // The splice base for delta re-routes must be a solution whose
        // per-group configs equal a full preset re-route of its own
        // placement. `current` qualifies — except when it starts as
        // `initial` (whose configs the unified placement pass produced),
        // in which case `shadow` carries the preset-pure twin until the
        // first accepted move makes `current` preset-pure itself.
        let mut shadow: Option<MappingSolution> = initial_wins.then(|| rerouted_start.clone());
        let mut best = current.clone();
        let mut mapping = current.core_mapping().clone();
        let mut temperature = config.initial_temperature;

        for _ in 0..config.iterations {
            if cores.is_empty() || nis.len() < 2 {
                break;
            }
            // Propose: swap two cores, or move one core to a free NI.
            let a = cores[rng.gen_range(0..cores.len())];
            let ni_a = mapping[&a];
            let target_ni = nis[rng.gen_range(0..nis.len())];
            if target_ni == ni_a {
                temperature *= config.cooling;
                continue;
            }
            count(Counter::AnnealMoves, 1);
            moves += 1;
            let b = swap(&mut mapping, a, target_ni);
            let mut affected = touched[&a].clone();
            if let Some(b) = b {
                for (affected, &t) in affected.iter_mut().zip(&touched[&b]) {
                    *affected |= t;
                }
            }

            let mut accepted = false;
            let base = shadow.as_ref().unwrap_or(&current);
            let candidate = reroute_preset_groups(
                soc, groups, base, options, &mapping, &affected, &merged, &mut cache,
            );
            if let Ok(candidate) = candidate {
                let delta = candidate.comm_cost() - current.comm_cost();
                let accept = delta <= 0.0
                    || rng.gen_bool((-delta / temperature.max(1e-9)).exp().clamp(0.0, 1.0));
                if accept {
                    count(Counter::AnnealAccepts, 1);
                    accepts += 1;
                    accepted = true;
                    shadow = None;
                    current = candidate;
                    if current.comm_cost() < best.comm_cost() {
                        best = current.clone();
                    }
                }
            }
            if !accepted {
                // Roll the rejected move back in place.
                swap(&mut mapping, a, ni_a);
            }
            temperature *= config.cooling;
        }
        // Per-chain RNG seeding makes these deterministic at any width.
        span.attr("moves", moves);
        span.attr("accepts", accepts);
        span.attr("temperature", temperature);
        best
    };

    // Independent chains; the winner is picked by (exact integer cost,
    // chain index), so ties always resolve to the earliest chain and the
    // result is identical at any thread count.
    let chains = config.chains.max(1);
    let bests = noc_par::par_map((0..chains).collect(), |_, chain| run_chain(chain));
    Ok(bests
        .into_iter()
        .min_by_key(MappingSolution::comm_cost_bytes_hops)
        .expect("at least one chain"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapper::{map_multi_usecase, Placement};
    use noc_tdma::TdmaSpec;
    use noc_topology::units::{Bandwidth, Latency};
    use noc_topology::MeshBuilder;
    use noc_usecase::spec::{CoreId, UseCaseBuilder};

    fn c(i: u32) -> CoreId {
        CoreId::new(i)
    }

    fn chatty_soc() -> SocSpec {
        // Pairs (0,1) and (2,3) are hot; a placement that separates them
        // pays extra hops.
        let mut soc = SocSpec::new("chatty");
        soc.add_use_case(
            UseCaseBuilder::new("u")
                .flow(
                    c(0),
                    c(1),
                    Bandwidth::from_mbps(500),
                    Latency::UNCONSTRAINED,
                )
                .unwrap()
                .flow(
                    c(2),
                    c(3),
                    Bandwidth::from_mbps(500),
                    Latency::UNCONSTRAINED,
                )
                .unwrap()
                .flow(c(0), c(2), Bandwidth::from_mbps(5), Latency::UNCONSTRAINED)
                .unwrap()
                .build(),
        );
        soc
    }

    #[test]
    fn refine_never_worsens() {
        let soc = chatty_soc();
        let groups = UseCaseGroups::singletons(1);
        let opts = MapperOptions::default();
        let mesh = MeshBuilder::new(2, 2).nis_per_switch(1).build().unwrap();
        let initial = map_multi_usecase(
            &soc,
            &groups,
            mesh.topology(),
            TdmaSpec::paper_default(),
            &opts,
        )
        .unwrap();
        let refined = refine(&soc, &groups, &opts, &initial, &AnnealConfig::default()).unwrap();
        assert!(refined.comm_cost() <= initial.comm_cost());
        refined.verify(&soc, &groups).unwrap();
    }

    #[test]
    fn refine_fixes_bad_round_robin_placement() {
        let soc = chatty_soc();
        let groups = UseCaseGroups::singletons(1);
        let mesh = MeshBuilder::new(2, 2).nis_per_switch(1).build().unwrap();
        // Deliberately poor start: round-robin ignores affinity.
        let rr_opts = MapperOptions {
            placement: Placement::RoundRobin,
            ..Default::default()
        };
        let initial = map_multi_usecase(
            &soc,
            &groups,
            mesh.topology(),
            TdmaSpec::paper_default(),
            &rr_opts,
        )
        .unwrap();
        let opts = MapperOptions::default();
        let cfg = AnnealConfig {
            iterations: 300,
            ..Default::default()
        };
        let refined = refine(&soc, &groups, &opts, &initial, &cfg).unwrap();
        assert!(
            refined.comm_cost() <= initial.comm_cost(),
            "refined {} vs initial {}",
            refined.comm_cost(),
            initial.comm_cost()
        );
        refined.verify(&soc, &groups).unwrap();
    }

    #[test]
    fn deterministic_given_seed() {
        let soc = chatty_soc();
        let groups = UseCaseGroups::singletons(1);
        let opts = MapperOptions::default();
        let mesh = MeshBuilder::new(2, 2).nis_per_switch(1).build().unwrap();
        let initial = map_multi_usecase(
            &soc,
            &groups,
            mesh.topology(),
            TdmaSpec::paper_default(),
            &opts,
        )
        .unwrap();
        let cfg = AnnealConfig {
            iterations: 50,
            seed: 9,
            ..Default::default()
        };
        let a = refine(&soc, &groups, &opts, &initial, &cfg).unwrap();
        let b = refine(&soc, &groups, &opts, &initial, &cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "cooling")]
    fn cooling_validated() {
        let soc = chatty_soc();
        let groups = UseCaseGroups::singletons(1);
        let opts = MapperOptions::default();
        let mesh = MeshBuilder::new(2, 2).nis_per_switch(1).build().unwrap();
        let initial = map_multi_usecase(
            &soc,
            &groups,
            mesh.topology(),
            TdmaSpec::paper_default(),
            &opts,
        )
        .unwrap();
        let cfg = AnnealConfig {
            cooling: 1.5,
            ..Default::default()
        };
        let _ = refine(&soc, &groups, &opts, &initial, &cfg);
    }
}
