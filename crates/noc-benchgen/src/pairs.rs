//! Shared helpers for sampling communicating core pairs.

use noc_usecase::spec::CoreId;
use rand::seq::SliceRandom;
use rand::Rng;

use crate::clusters::{TrafficClass, TrafficMix};

/// A fixed pool of candidate pairs shared by all use-cases of a design.
///
/// Real SoCs wire a stable set of physical connections; use-cases select
/// subsets of them (with different bandwidths). Sampling each use-case's
/// flows from a common pool keeps the worst-case *union* of pairs bounded
/// — which is why the WC baseline stays feasible on the D1–D4 designs
/// while still being over-provisioned. Purely synthetic Sp/Bot benchmarks
/// skip the pool to maximize cross-use-case variation instead.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PairPool {
    pairs: Vec<(CoreId, CoreId)>,
    /// The traffic class of each pair, where fixed. A physical
    /// connection's class (HD stream, control port, …) is usually a
    /// property of the wiring: use-cases vary the *rate* within the
    /// class, not the kind of traffic. This keeps the worst-case union
    /// realistic — without it, every pair eventually draws the heaviest
    /// class in some use-case and the WC spec becomes uniformly maximal,
    /// which no real SoC is. `None` marks a *versatile* connection whose
    /// class is re-drawn per use-case (a DSP port carrying HD video in
    /// one mode and audio in another); these are what makes the WC union
    /// degrade as use-cases accumulate.
    classes: Vec<Option<TrafficClass>>,
}

impl PairPool {
    /// Draws a master pool of `size` distinct pairs.
    ///
    /// Hub-free pools are degree-balanced: no core's in- or out-degree
    /// exceeds the average by more than one, mirroring how streaming
    /// pipelines spread connections evenly. (A lopsided pool would make
    /// the worst core's NI link infeasible for the WC baseline at *any*
    /// topology size, which is not how the paper's designs behave.)
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn master<R: Rng + ?Sized>(
        rng: &mut R,
        cores: u32,
        size: usize,
        hubs: &[CoreId],
        hub_fraction: f64,
        hub_mix: &TrafficMix,
        side_mix: &TrafficMix,
        versatile_fraction: f64,
    ) -> Self {
        let pairs = if hubs.is_empty() {
            balanced_pairs(rng, cores, size)
        } else {
            sample_pairs(rng, cores, size, hubs, hub_fraction)
        };
        // Assign every pair a fixed class from the appropriate mix, drawn
        // from a shuffled weight-proportional deck so class shares match
        // the mix exactly; a `versatile_fraction` of pairs stay
        // class-free (re-drawn per use-case).
        let hub_pair = |p: &(CoreId, CoreId)| hubs.contains(&p.0) || hubs.contains(&p.1);
        let hub_count = pairs.iter().filter(|p| hub_pair(p)).count();
        let mut hub_deck = class_deck(rng, hub_mix, hub_count);
        let mut side_deck = class_deck(rng, side_mix, pairs.len() - hub_count);
        let classes = pairs
            .iter()
            .map(|p| {
                let class = if hub_pair(p) {
                    hub_deck.pop().expect("deck sized to hub pairs")
                } else {
                    side_deck.pop().expect("deck sized to side pairs")
                };
                if rng.gen_bool(versatile_fraction.clamp(0.0, 1.0)) {
                    None
                } else {
                    Some(class)
                }
            })
            .collect();
        PairPool { pairs, classes }
    }

    /// Samples `count` distinct pairs from the pool (clamped to the pool
    /// size) with each pair's class: its fixed class, or `None` for
    /// versatile pairs (caller draws from its mix per use-case).
    pub(crate) fn sample<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
    ) -> Vec<((CoreId, CoreId), Option<TrafficClass>)> {
        let mut indexed: Vec<usize> = (0..self.pairs.len()).collect();
        indexed.shuffle(rng);
        indexed.truncate(count.min(self.pairs.len()));
        indexed
            .into_iter()
            .map(|i| (self.pairs[i], self.classes[i].clone()))
            .collect()
    }
}

/// A shuffled deck of `size` classes in proportion to the mix weights
/// (largest-remainder apportionment).
fn class_deck<R: Rng + ?Sized>(rng: &mut R, mix: &TrafficMix, size: usize) -> Vec<TrafficClass> {
    let total: f64 = mix.classes().iter().map(|c| c.weight).sum();
    let mut deck: Vec<TrafficClass> = Vec::with_capacity(size);
    let mut remainders: Vec<(f64, usize)> = Vec::new();
    for (i, class) in mix.classes().iter().enumerate() {
        let exact = size as f64 * class.weight / total;
        let whole = exact.floor() as usize;
        deck.extend(std::iter::repeat_with(|| class.clone()).take(whole));
        remainders.push((exact - whole as f64, i));
    }
    remainders.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut ri = 0;
    while deck.len() < size {
        let class = &mix.classes()[remainders[ri % remainders.len()].1];
        deck.push(class.clone());
        ri += 1;
    }
    deck.shuffle(rng);
    deck
}

/// Degree-balanced distinct pairs: no core's in- or out-degree exceeds
/// the average by more than one.
fn balanced_pairs<R: Rng + ?Sized>(rng: &mut R, cores: u32, size: usize) -> Vec<(CoreId, CoreId)> {
    let max_pairs = cores as usize * (cores as usize - 1);
    let size = size.min(max_pairs);
    let cap = size.div_ceil(cores as usize) + 1;
    let mut all: Vec<(u32, u32)> = (0..cores)
        .flat_map(|a| (0..cores).filter(move |&b| b != a).map(move |b| (a, b)))
        .collect();
    all.shuffle(rng);
    let mut out_deg = vec![0usize; cores as usize];
    let mut in_deg = vec![0usize; cores as usize];
    let mut taken = vec![false; all.len()];
    let mut pairs = Vec::with_capacity(size);
    // Two passes: strict caps first, then top up if the caps were too
    // tight to reach `size`.
    for pass in 0..2 {
        for (i, &(a, b)) in all.iter().enumerate() {
            if pairs.len() >= size {
                break;
            }
            if taken[i] {
                continue;
            }
            let within = out_deg[a as usize] < cap && in_deg[b as usize] < cap;
            if pass == 1 || within {
                taken[i] = true;
                out_deg[a as usize] += 1;
                in_deg[b as usize] += 1;
                pairs.push((CoreId::new(a), CoreId::new(b)));
            }
        }
    }
    pairs
}

/// Samples `count` distinct directed pairs over `cores` cores, optionally
/// biased so that roughly `hub_fraction` of pairs touch one of the `hubs`.
///
/// Pairs are distinct within one call (one flow per pair per use-case).
/// `count` is clamped to the number of available distinct pairs.
pub(crate) fn sample_pairs<R: Rng + ?Sized>(
    rng: &mut R,
    cores: u32,
    count: usize,
    hubs: &[CoreId],
    hub_fraction: f64,
) -> Vec<(CoreId, CoreId)> {
    assert!(cores >= 2, "need at least two cores to form pairs");
    let max_pairs = cores as usize * (cores as usize - 1);
    let count = count.min(max_pairs);
    let mut chosen = std::collections::BTreeSet::new();
    let hub_target = (count as f64 * hub_fraction).round() as usize;

    // Hub-touching pairs first (direction alternates to exercise both
    // request and response traffic).
    let mut non_hub: Vec<u32> = (0..cores)
        .filter(|c| !hubs.iter().any(|h| h.raw() == *c))
        .collect();
    non_hub.shuffle(rng);
    if !hubs.is_empty() {
        let mut i = 0;
        while chosen.len() < hub_target && i < 4 * hub_target {
            i += 1;
            let hub = hubs[rng.gen_range(0..hubs.len())];
            let other = match non_hub.choose(rng) {
                Some(&o) => CoreId::new(o),
                None => break,
            };
            let pair = if rng.gen_bool(0.5) {
                (other, hub)
            } else {
                (hub, other)
            };
            chosen.insert(pair);
        }
    }

    // Fill the rest with uniform random distinct pairs.
    let mut guard = 0;
    while chosen.len() < count && guard < 100 * max_pairs {
        guard += 1;
        let a = rng.gen_range(0..cores);
        let b = rng.gen_range(0..cores);
        if a != b {
            chosen.insert((CoreId::new(a), CoreId::new(b)));
        }
    }
    let mut pairs: Vec<_> = chosen.into_iter().collect();
    pairs.shuffle(rng);
    pairs.truncate(count);
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn pairs_are_distinct_and_not_self() {
        let mut rng = SmallRng::seed_from_u64(1);
        let pairs = sample_pairs(&mut rng, 20, 80, &[], 0.0);
        assert_eq!(pairs.len(), 80);
        let set: std::collections::BTreeSet<_> = pairs.iter().collect();
        assert_eq!(set.len(), 80);
        assert!(pairs.iter().all(|(a, b)| a != b));
    }

    #[test]
    fn hub_fraction_biases_pairs() {
        let mut rng = SmallRng::seed_from_u64(2);
        let hub = CoreId::new(0);
        let pairs = sample_pairs(&mut rng, 20, 36, &[hub], 0.7);
        let hub_pairs = pairs.iter().filter(|(a, b)| *a == hub || *b == hub).count();
        assert!(
            hub_pairs >= 18,
            "expected most pairs to touch the hub, got {hub_pairs}/36"
        );
    }

    #[test]
    fn count_clamped_to_available_pairs() {
        let mut rng = SmallRng::seed_from_u64(3);
        let pairs = sample_pairs(&mut rng, 3, 100, &[], 0.0);
        assert_eq!(pairs.len(), 6); // 3 * 2 directed pairs
    }

    #[test]
    fn deterministic_for_seed() {
        let a = sample_pairs(&mut SmallRng::seed_from_u64(9), 20, 50, &[], 0.0);
        let b = sample_pairs(&mut SmallRng::seed_from_u64(9), 20, 50, &[], 0.0);
        assert_eq!(a, b);
    }

    mod pool {
        use super::*;
        use crate::clusters::TrafficMix;

        fn mk_pool(size: usize, versatile: f64) -> PairPool {
            let mut rng = SmallRng::seed_from_u64(5);
            PairPool::master(
                &mut rng,
                20,
                size,
                &[],
                0.0,
                &TrafficMix::video_soc(),
                &TrafficMix::video_soc(),
                versatile,
            )
        }

        #[test]
        fn balanced_pool_caps_degrees() {
            let pool = mk_pool(200, 0.0);
            assert_eq!(pool.pairs.len(), 200);
            let mut out = vec![0usize; 20];
            let mut inn = vec![0usize; 20];
            for &(a, b) in &pool.pairs {
                out[a.index()] += 1;
                inn[b.index()] += 1;
            }
            let cap = 200usize.div_ceil(20) + 1;
            assert!(out.iter().all(|&d| d <= cap), "out degrees {out:?}");
            assert!(inn.iter().all(|&d| d <= cap), "in degrees {inn:?}");
        }

        #[test]
        fn class_shares_match_mix_weights() {
            let pool = mk_pool(300, 0.0);
            let mix = TrafficMix::video_soc();
            let total_w: f64 = mix.classes().iter().map(|c| c.weight).sum();
            for class in mix.classes() {
                let count = pool
                    .classes
                    .iter()
                    .filter(|c| c.as_ref().is_some_and(|c| c.name == class.name))
                    .count();
                let expected = 300.0 * class.weight / total_w;
                assert!(
                    (count as f64 - expected).abs() <= 1.0,
                    "{}: {count} vs expected {expected:.1}",
                    class.name
                );
            }
        }

        #[test]
        fn versatile_fraction_zero_and_one() {
            assert!(mk_pool(100, 0.0).classes.iter().all(Option::is_some));
            assert!(mk_pool(100, 1.0).classes.iter().all(Option::is_none));
            let half = mk_pool(400, 0.5);
            let versatile = half.classes.iter().filter(|c| c.is_none()).count();
            assert!((120..=280).contains(&versatile), "got {versatile} of 400");
        }

        #[test]
        fn sample_returns_distinct_pool_pairs() {
            let pool = mk_pool(150, 0.3);
            let mut rng = SmallRng::seed_from_u64(6);
            let sampled = pool.sample(&mut rng, 80);
            assert_eq!(sampled.len(), 80);
            let distinct: std::collections::BTreeSet<_> = sampled.iter().map(|(p, _)| *p).collect();
            assert_eq!(distinct.len(), 80);
            for (p, _) in &sampled {
                assert!(pool.pairs.contains(p));
            }
            // Oversampling clamps to the pool.
            assert_eq!(pool.sample(&mut rng, 10_000).len(), 150);
        }

        #[test]
        fn hub_pools_use_hub_mix_classes() {
            let mut rng = SmallRng::seed_from_u64(7);
            let hub = CoreId::new(0);
            let pool = PairPool::master(
                &mut rng,
                20,
                60,
                &[hub],
                0.6,
                &TrafficMix::memory_hub(),
                &TrafficMix::video_soc(),
                0.0,
            );
            let hub_names: Vec<String> = TrafficMix::memory_hub()
                .classes()
                .iter()
                .map(|c| c.name.clone())
                .collect();
            for (pair, class) in pool.pairs.iter().zip(&pool.classes) {
                let class = class.as_ref().expect("versatile 0");
                let is_hub_pair = pair.0 == hub || pair.1 == hub;
                let from_hub_mix = hub_names.contains(&class.name);
                assert_eq!(
                    is_hub_pair, from_hub_mix,
                    "pair {pair:?} class {}",
                    class.name
                );
            }
        }
    }
}
