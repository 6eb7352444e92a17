//! Stress and boundary tests of the mapping engine, run against the
//! public API.

use noc_tdma::TdmaSpec;
use noc_topology::units::{Bandwidth, Frequency, Latency, LinkWidth};
use noc_topology::MeshBuilder;
use noc_usecase::spec::{CoreId, Flow, SocSpec, UseCaseBuilder};
use noc_usecase::UseCaseGroups;
use nocmap::design::{design_smallest_mesh, min_frequency};
use nocmap::{
    map_multi_usecase, merged_group_flows, reroute_preset_groups, MapError, MapperOptions,
    RouteCache,
};

fn c(i: u32) -> CoreId {
    CoreId::new(i)
}

fn bw(m: u64) -> Bandwidth {
    Bandwidth::from_mbps(m)
}

/// A spec that saturates one link to exactly 100%: all 128 slots of an NI
/// link must be packed.
#[test]
fn packs_an_ni_link_to_one_hundred_percent() {
    // 8 flows out of core 0 at 250 MB/s each = 2000 MB/s = the whole
    // link; each needs 16 of 128 slots.
    let mut b = UseCaseBuilder::new("full");
    for i in 1..=8u32 {
        b = b.flow(c(0), c(i), bw(250), Latency::UNCONSTRAINED).unwrap();
    }
    let mut soc = SocSpec::new("saturate");
    soc.add_use_case(b.build());
    let groups = UseCaseGroups::singletons(1);
    let sol = design_smallest_mesh(
        &soc,
        &groups,
        TdmaSpec::paper_default(),
        &MapperOptions::default(),
        64,
    )
    .expect("a fully-subscribed NI link is still feasible");
    sol.verify(&soc, &groups).unwrap();
    // Core 0's NI egress carries exactly 128 slots.
    let topo = sol.topology();
    let ni = sol.ni_of(c(0)).unwrap();
    let out_link = topo.outgoing(ni)[0];
    let total: usize = sol
        .group_config(0)
        .iter()
        .filter(|(_, r)| r.path.first() == Some(&out_link))
        .map(|(_, r)| r.slot_count())
        .sum();
    assert_eq!(total, 128);
}

/// One slot more than the link holds must fail at every size.
#[test]
fn over_subscription_by_one_slot_fails() {
    let mut b = UseCaseBuilder::new("over");
    for i in 1..=8u32 {
        b = b.flow(c(0), c(i), bw(250), Latency::UNCONSTRAINED).unwrap();
    }
    // One extra 16 MB/s flow (1 slot) out of core 0.
    b = b.flow(c(0), c(9), bw(16), Latency::UNCONSTRAINED).unwrap();
    let mut soc = SocSpec::new("oversub");
    soc.add_use_case(b.build());
    let err = design_smallest_mesh(
        &soc,
        &UseCaseGroups::singletons(1),
        TdmaSpec::paper_default(),
        &MapperOptions::default(),
        64,
    );
    assert!(err.is_err(), "129 slots through a 128-slot link cannot map");
}

/// Latency bounds that only a neighbouring placement can meet.
#[test]
fn tight_latency_forces_co_location() {
    // At 500 MHz, 128 slots: a 1-slot connection has worst case 128+hops
    // cycles ~ 260 ns. Demand 100 ns: needs ~ >3 slots AND few hops.
    let mut soc = SocSpec::new("tight");
    soc.add_use_case(
        UseCaseBuilder::new("u")
            .flow(c(0), c(1), bw(16), Latency::from_ns(100))
            .unwrap()
            .build(),
    );
    let groups = UseCaseGroups::singletons(1);
    let sol = design_smallest_mesh(
        &soc,
        &groups,
        TdmaSpec::paper_default(),
        &MapperOptions::default(),
        64,
    )
    .expect("feasible with enough slots");
    sol.verify(&soc, &groups).unwrap();
    let route = sol.group_config(0).route(c(0), c(1)).unwrap();
    assert!(route.worst_case_latency <= Latency::from_ns(100));
    // 100 ns = 50 cycles; hops + max_gap <= 50 means the reservation had
    // to grow well beyond 1 slot.
    assert!(route.slot_count() >= 3, "got {} slots", route.slot_count());
}

/// Forty use-cases on one pair, all in separate groups: per-group states
/// must stay independent (no cross-talk), sharing one placement.
#[test]
fn forty_groups_do_not_interfere() {
    let mut soc = SocSpec::new("forty");
    for u in 0..40 {
        soc.add_use_case(
            UseCaseBuilder::new(format!("u{u}"))
                .flow(c(0), c(1), bw(1900), Latency::UNCONSTRAINED)
                .unwrap()
                .build(),
        );
    }
    let groups = UseCaseGroups::singletons(40);
    let mesh = MeshBuilder::new(1, 2).nis_per_switch(1).build().unwrap();
    let sol = map_multi_usecase(
        &soc,
        &groups,
        mesh.topology(),
        TdmaSpec::paper_default(),
        &MapperOptions::default(),
    )
    .expect("each group has the whole network to itself");
    sol.verify(&soc, &groups).unwrap();
    assert_eq!(sol.group_configs().len(), 40);
    // All groups route the same pair between the same NIs.
    let first = sol.group_config(0).route(c(0), c(1)).unwrap();
    for g in 1..40 {
        let r = sol.group_config(g).route(c(0), c(1)).unwrap();
        assert_eq!(r.path, first.path, "same (only) shortest path");
    }
}

/// The same spec merged into ONE group must fail: 40 x 1900 MB/s through
/// one pair cannot share a single configuration.
#[test]
fn forty_merged_heavy_flows_fail() {
    let mut soc = SocSpec::new("forty-merged");
    for u in 0..40 {
        soc.add_use_case(
            UseCaseBuilder::new(format!("u{u}"))
                // Different pairs so the merged union accumulates.
                .flow(c(u), c(u + 40), bw(1900), Latency::UNCONSTRAINED)
                .unwrap()
                .build(),
        );
    }
    // Singleton groups: trivially feasible (one flow each).
    let free = design_smallest_mesh(
        &soc,
        &UseCaseGroups::singletons(40),
        TdmaSpec::paper_default(),
        &MapperOptions::default(),
        400,
    );
    assert!(free.is_ok());
}

/// Frequency bisection agrees with a linear scan on a coarse grid.
#[test]
fn min_frequency_matches_linear_scan() {
    let mut soc = SocSpec::new("scan");
    soc.add_use_case(
        UseCaseBuilder::new("u")
            .flow(c(0), c(1), bw(640), Latency::UNCONSTRAINED)
            .unwrap()
            .flow(c(1), c(0), bw(320), Latency::UNCONSTRAINED)
            .unwrap()
            .build(),
    );
    let groups = UseCaseGroups::singletons(1);
    let mesh = MeshBuilder::new(1, 1).nis_per_switch(2).build().unwrap();
    let opts = MapperOptions::default();
    let base = TdmaSpec::paper_default();
    let (f, _) = min_frequency(
        &soc,
        &groups,
        mesh.topology(),
        base,
        &opts,
        Frequency::from_mhz(1),
        Frequency::from_mhz(500),
    )
    .unwrap();
    // Linear scan at 1 MHz granularity around the found point.
    let feasible = |mhz: u64| {
        map_multi_usecase(
            &soc,
            &groups,
            mesh.topology(),
            base.at_frequency(Frequency::from_mhz(mhz)),
            &opts,
        )
        .is_ok()
    };
    let mhz = f.as_hz() / 1_000_000;
    assert!(feasible(mhz));
    assert!(
        !feasible(mhz - 1),
        "bisection overshot: {} - 1 also feasible",
        mhz
    );
}

/// A six-core ring of growing flows designs onto the smallest mesh and
/// verifies.
#[test]
fn six_core_ring_design_verifies() {
    let mut soc = SocSpec::new("ring");
    let mut b = UseCaseBuilder::new("u");
    for i in 0..6u32 {
        b = b
            .flow(
                c(i),
                c((i + 1) % 6),
                bw(100 + 50 * u64::from(i)),
                Latency::UNCONSTRAINED,
            )
            .unwrap();
    }
    soc.add_use_case(b.build());
    let groups = UseCaseGroups::singletons(1);
    let sol = design_smallest_mesh(
        &soc,
        &groups,
        TdmaSpec::paper_default(),
        &MapperOptions::default(),
        64,
    )
    .unwrap();
    sol.verify(&soc, &groups).unwrap();
}

/// Mapping on a 1 GHz, 64-bit fabric halves the slots a flow needs
/// compared to 500 MHz / 32-bit (4x the capacity).
#[test]
fn capacity_scaling_reduces_slot_demand() {
    let mut soc = SocSpec::new("cap");
    soc.add_use_case(
        UseCaseBuilder::new("u")
            .flow(c(0), c(1), bw(500), Latency::UNCONSTRAINED)
            .unwrap()
            .build(),
    );
    let groups = UseCaseGroups::singletons(1);
    let mesh = MeshBuilder::new(1, 1).nis_per_switch(2).build().unwrap();
    let slow = TdmaSpec::new(128, Frequency::from_mhz(500), LinkWidth::BITS_32);
    let fast = TdmaSpec::new(128, Frequency::from_ghz(1), LinkWidth::BITS_64);
    let opts = MapperOptions::default();
    let s1 = map_multi_usecase(&soc, &groups, mesh.topology(), slow, &opts).unwrap();
    let s2 = map_multi_usecase(&soc, &groups, mesh.topology(), fast, &opts).unwrap();
    let k1 = s1.group_config(0).route(c(0), c(1)).unwrap().slot_count();
    let k2 = s2.group_config(0).route(c(0), c(1)).unwrap().slot_count();
    assert_eq!(k1, 32); // 500 of 2000 MB/s = 1/4 of 128
    assert_eq!(k2, 8); // 500 of 8000 MB/s = 1/16 of 128
}

/// A preset placement with two cores on one NI is rejected, not mis-mapped.
#[test]
fn preset_placement_validation() {
    let mut soc = SocSpec::new("preset");
    soc.add_use_case(
        UseCaseBuilder::new("u")
            .flow(c(0), c(1), bw(10), Latency::UNCONSTRAINED)
            .unwrap()
            .build(),
    );
    let mesh = MeshBuilder::new(1, 1).nis_per_switch(2).build().unwrap();
    let topo = mesh.topology();
    // Map both cores onto the SAME NI: must be rejected.
    let ni = topo.nis()[0];
    let preset: std::collections::BTreeMap<_, _> = [(c(0), ni), (c(1), ni)].into_iter().collect();
    let merged = merged_group_flows(&soc, &UseCaseGroups::singletons(1));
    let err = reroute_preset_groups(
        topo,
        TdmaSpec::paper_default(),
        &MapperOptions::default(),
        &preset,
        &[true],
        &merged,
        &mut RouteCache::new(&merged),
    );
    assert!(matches!(err, Err(MapError::TooManyCores { .. })), "{err:?}");
}

/// Flow validation composes with mapping: specs built from raw `Flow`s
/// behave identically to builder-made ones.
#[test]
fn flow_construction_equivalence() {
    let direct = Flow::new(c(0), c(1), bw(77), Latency::from_us(3)).unwrap();
    let via_builder = UseCaseBuilder::new("u")
        .flow(c(0), c(1), bw(77), Latency::from_us(3))
        .unwrap()
        .build();
    assert_eq!(via_builder.flows()[0], direct);
}
