//! Dynamic voltage and frequency scaling across use-cases (Section 6.4,
//! Figure 7(b)).
//!
//! When the SoC switches use-cases (and the switching time allows
//! reconfiguration), the NoC's frequency — and, via `V² ∝ f`, its supply
//! voltage — can be lowered to the minimum that still satisfies the
//! incoming use-case's constraints on the **fixed** topology and core
//! mapping. Power then drops quadratically relative to running every
//! use-case at the design frequency.

use noc_tdma::TdmaSpec;
use noc_topology::units::Frequency;
use noc_topology::DvsModel;
use noc_usecase::spec::{SocSpec, UseCaseId};
use noc_usecase::UseCaseGroups;

use crate::design::{lowest_feasible, min_frequency};
use crate::error::MapError;
use crate::mapper::{reroute_preset_groups, MapperOptions, Placement, RouteCache};
use crate::merge::merged_group_flows;
use crate::result::MappingSolution;

/// Per-use-case DVS/DFS outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DvsReport {
    /// The design frequency used as the no-DVS baseline: the minimum
    /// frequency at which **every** use-case is feasible on the fixed
    /// mesh and mapping. (A NoC without DVS must run at this frequency
    /// all the time; comparing against an over-provisioned clock would
    /// inflate the savings.)
    pub design_frequency: Frequency,
    /// Minimum feasible frequency per use-case, in use-case order.
    pub per_use_case: Vec<(UseCaseId, Frequency)>,
    /// Mean power at the scaled operating points relative to running at
    /// the design frequency (assuming use-cases are active for equal
    /// time shares).
    pub relative_power: f64,
}

impl DvsReport {
    /// Power saving fraction, `1 - relative_power` (the quantity plotted
    /// in Figure 7(b)).
    pub fn savings_fraction(&self) -> f64 {
        1.0 - self.relative_power
    }
}

/// Computes the DVS/DFS saving for a finished design.
///
/// For every use-case, the minimum feasible NoC frequency is found by
/// bisection on the design's **fixed mesh and core mapping** (paths and
/// slot tables may be rebuilt — exactly the reconfiguration the paper
/// permits during use-case switching); power is then averaged with the
/// DVS rule. A probe re-routes only the use-case's own group
/// ([`reroute_preset_groups`]) against the design's merged flows, so
/// the group's pairs are routed in the design's order; at the design
/// frequency that route is the one the design's preset map found, so no
/// use-case needs more than the design frequency.
///
/// # Errors
///
/// Any [`MapError`] from the design-frequency search (among them
/// [`MapError::NoFeasibleFrequency`] when `floor` is above the
/// solution's clock), or [`MapError::NoFeasibleFrequency`] for a
/// use-case that is infeasible even at the design frequency (which
/// would indicate a broken input solution).
pub fn dvs_savings(
    soc: &SocSpec,
    groups: &UseCaseGroups,
    solution: &MappingSolution,
    options: &MapperOptions,
    dvs: &DvsModel,
    floor: Frequency,
) -> Result<DvsReport, MapError> {
    // The no-DVS baseline: the slowest clock at which the whole design
    // (all use-cases, same mesh and mapping) remains feasible.
    let preset = MapperOptions {
        placement: Placement::Preset(solution.core_mapping().clone()),
        ..options.clone()
    };
    let (design_frequency, _) = min_frequency(
        soc,
        groups,
        solution.topology(),
        solution.spec(),
        &preset,
        floor,
        solution.spec().frequency(),
    )?;

    // A route cache's key holds no frequency, so each probe gets a fresh
    // cache.
    let merged = merged_group_flows(soc, groups);
    let group_min = |group: usize| {
        let mut active = vec![false; groups.group_count()];
        active[group] = true;
        lowest_feasible(floor, design_frequency, |f| {
            reroute_preset_groups(
                soc,
                groups,
                solution.topology(),
                solution.spec().at_frequency(f),
                options,
                solution.core_mapping(),
                &active,
                &merged,
                &mut RouteCache::new(&merged),
            )
        })
        .map(|(f, _)| f)
    };
    let per_group = (0..groups.group_count())
        .map(group_min)
        .collect::<Result<Vec<_>, _>>()?;

    let mut per_use_case = Vec::with_capacity(soc.use_case_count());
    let mut rel_sum = 0.0;
    for uc_id in soc.use_case_ids() {
        let f_min = per_group[groups.group_of(uc_id)];
        rel_sum += dvs.relative_power(f_min, design_frequency);
        per_use_case.push((uc_id, f_min));
    }
    let n = per_use_case.len().max(1);
    Ok(DvsReport {
        design_frequency,
        per_use_case,
        relative_power: rel_sum / n as f64,
    })
}

/// Re-derives the *design* frequency for running `k` use-cases in
/// parallel (Figure 7(c)): the minimum frequency at which the compound
/// mode of every combination... — the paper sweeps one representative
/// compound per `k`, which is what this helper does: it merges the first
/// `k` use-cases of `soc` into a compound mode and finds its minimum
/// feasible frequency on `mesh`.
///
/// # Errors
///
/// [`MapError::NoFeasibleFrequency`] when even `hi` cannot support the
/// compound mode on this mesh; other [`MapError`]s on malformed input.
///
/// # Panics
///
/// Panics if `k` is zero or exceeds the spec's use-case count.
pub fn parallel_min_frequency(
    soc: &SocSpec,
    k: usize,
    topo: &noc_topology::Topology,
    base_spec: TdmaSpec,
    options: &MapperOptions,
    lo: Frequency,
    hi: Frequency,
) -> Result<(Frequency, MappingSolution), MapError> {
    assert!(
        k >= 1 && k <= soc.use_case_count(),
        "k must be in 1..=use_case_count"
    );
    let compound = noc_usecase::compound_mode(format!("par{k}"), soc.use_cases().iter().take(k));
    let mut solo = SocSpec::new(format!("{}-par{k}", soc.name()));
    solo.add_use_case(compound);
    min_frequency(
        &solo,
        &UseCaseGroups::singletons(1),
        topo,
        base_spec,
        options,
        lo,
        hi,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::design_smallest_mesh;
    use noc_topology::units::{Bandwidth, Latency};
    use noc_usecase::spec::{CoreId, UseCaseBuilder};

    fn c(i: u32) -> CoreId {
        CoreId::new(i)
    }

    fn bw(m: u64) -> Bandwidth {
        Bandwidth::from_mbps(m)
    }

    /// One heavy use-case, one light one: the light one should scale far
    /// down.
    fn skewed_soc() -> SocSpec {
        let mut soc = SocSpec::new("skew");
        soc.add_use_case(
            UseCaseBuilder::new("heavy")
                .flow(c(0), c(1), bw(1000), Latency::UNCONSTRAINED)
                .unwrap()
                .flow(c(2), c(3), bw(800), Latency::UNCONSTRAINED)
                .unwrap()
                .build(),
        );
        soc.add_use_case(
            UseCaseBuilder::new("light")
                .flow(c(0), c(1), bw(20), Latency::UNCONSTRAINED)
                .unwrap()
                .build(),
        );
        soc
    }

    #[test]
    fn light_use_cases_scale_down() {
        let soc = skewed_soc();
        let groups = UseCaseGroups::singletons(2);
        let opts = MapperOptions::default();
        let spec = TdmaSpec::paper_default();
        let sol = design_smallest_mesh(&soc, &groups, spec, &opts, 100).unwrap();
        let report = dvs_savings(
            &soc,
            &groups,
            &sol,
            &opts,
            &DvsModel::cmos130(),
            Frequency::from_mhz(1),
        )
        .unwrap();
        assert!(report.design_frequency <= Frequency::from_mhz(500));
        assert_eq!(report.per_use_case.len(), 2);
        let f_heavy = report.per_use_case[0].1;
        let f_light = report.per_use_case[1].1;
        assert!(
            f_light < f_heavy,
            "light {f_light} should scale below heavy {f_heavy}"
        );
        assert!(report.savings_fraction() > 0.0);
        assert!(report.savings_fraction() < 1.0);
    }

    /// Use-cases that share a group share its configuration, so they
    /// share its minimum frequency, and no minimum exceeds the design
    /// frequency.
    #[test]
    fn grouped_use_cases_share_their_groups_minimum() {
        let mut soc = skewed_soc();
        soc.add_use_case(
            UseCaseBuilder::new("idle")
                .flow(c(2), c(3), bw(10), Latency::UNCONSTRAINED)
                .unwrap()
                .build(),
        );
        let mut switching = noc_usecase::SwitchingGraph::new(3);
        switching.add_smooth_pair(UseCaseId::new(0), UseCaseId::new(1));
        let groups = switching.group();
        assert_eq!(groups.group_count(), 2);
        let opts = MapperOptions::default();
        let spec = TdmaSpec::paper_default();
        let sol = design_smallest_mesh(&soc, &groups, spec, &opts, 100).unwrap();
        let report = dvs_savings(
            &soc,
            &groups,
            &sol,
            &opts,
            &DvsModel::cmos130(),
            Frequency::from_mhz(1),
        )
        .unwrap();
        let f: Vec<Frequency> = report.per_use_case.iter().map(|&(_, f)| f).collect();
        assert_eq!(f[0], f[1], "heavy and light share a group");
        assert!(f[2] < f[0], "idle {} should scale below {}", f[2], f[0]);
        assert!(f.iter().all(|&f| f <= report.design_frequency));
    }

    #[test]
    fn savings_zero_when_everything_needs_design_frequency() {
        // A single use-case that needs nearly the whole link keeps the
        // frequency pinned near the design point.
        let mut soc = SocSpec::new("pinned");
        soc.add_use_case(
            UseCaseBuilder::new("u")
                .flow(c(0), c(1), bw(1990), Latency::UNCONSTRAINED)
                .unwrap()
                .build(),
        );
        let groups = UseCaseGroups::singletons(1);
        let opts = MapperOptions::default();
        let sol =
            design_smallest_mesh(&soc, &groups, TdmaSpec::paper_default(), &opts, 100).unwrap();
        let report = dvs_savings(
            &soc,
            &groups,
            &sol,
            &opts,
            &DvsModel::cmos130(),
            Frequency::from_mhz(1),
        )
        .unwrap();
        // With one use-case the baseline IS that use-case's minimum:
        // savings must be (near) zero.
        assert!(
            report.savings_fraction() < 0.05,
            "{}",
            report.savings_fraction()
        );
    }

    /// A floor above the design's clock has no feasible frequency: the
    /// study fails instead of reporting the floor at no saving.
    #[test]
    fn a_floor_above_the_design_clock_fails() {
        let soc = skewed_soc();
        let groups = UseCaseGroups::singletons(2);
        let opts = MapperOptions::default();
        let sol =
            design_smallest_mesh(&soc, &groups, TdmaSpec::paper_default(), &opts, 100).unwrap();
        let floor = Frequency::from_hz(sol.spec().frequency().as_hz() + 1_000_000);
        let err = dvs_savings(&soc, &groups, &sol, &opts, &DvsModel::cmos130(), floor);
        assert_eq!(err, Err(MapError::NoFeasibleFrequency));
    }

    #[test]
    fn parallel_frequency_grows_with_k() {
        let mut soc = SocSpec::new("par");
        for u in 0..4u32 {
            soc.add_use_case(
                UseCaseBuilder::new(format!("u{u}"))
                    .flow(c(0), c(1), bw(300), Latency::UNCONSTRAINED)
                    .unwrap()
                    .flow(c(2), c(3), bw(200), Latency::UNCONSTRAINED)
                    .unwrap()
                    .build(),
            );
        }
        let groups = UseCaseGroups::singletons(4);
        let opts = MapperOptions::default();
        let spec = TdmaSpec::paper_default();
        let sol = design_smallest_mesh(&soc, &groups, spec, &opts, 100).unwrap();
        let mut prev = Frequency::ZERO;
        for k in 1..=4 {
            let (f, _) = parallel_min_frequency(
                &soc,
                k,
                sol.topology(),
                spec,
                &opts,
                Frequency::from_mhz(1),
                Frequency::from_ghz(4),
            )
            .unwrap();
            assert!(
                f >= prev,
                "frequency must not drop as k grows: {f} < {prev}"
            );
            prev = f;
        }
        // 4 parallel copies of a 300 MB/s flow need ~4x the frequency of 1.
        assert!(prev >= Frequency::from_mhz(300));
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn parallel_k_validated() {
        let soc = skewed_soc();
        let mesh = noc_topology::MeshBuilder::new(1, 1)
            .nis_per_switch(4)
            .build()
            .unwrap();
        let _ = parallel_min_frequency(
            &soc,
            0,
            mesh.topology(),
            TdmaSpec::paper_default(),
            &MapperOptions::default(),
            Frequency::from_mhz(1),
            Frequency::from_mhz(500),
        );
    }
}
