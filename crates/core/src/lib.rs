//! `nocmap` — the primary contribution of Murali et al., DATE 2006: a
//! unified mapping, path-selection and TDMA-configuration flow for NoCs
//! that must support **multiple use-cases**, including compound modes
//! (use-cases running in parallel) and dynamic reconfiguration between
//! use-case groups.
//!
//! # The algorithm (paper Algorithm 2)
//!
//! 1. Start from the smallest mesh (one switch) and grow until a valid
//!    mapping exists ([`design::design_smallest_mesh`]).
//! 2. Sort all flows of all use-cases by decreasing bandwidth; repeatedly
//!    pick the largest unmapped flow, preferring flows whose endpoints are
//!    already placed.
//! 3. Select a least-cost path that satisfies the flow's bandwidth and
//!    latency constraints; if the endpoints are unmapped, place them on
//!    the NIs at the ends of the chosen path; reserve TDMA slots.
//! 4. Route the same source/destination pair in every other use-case,
//!    each in its **own** resource state — this is the key difference from
//!    the worst-case method of [ASPDAC'06], which merges all use-cases
//!    into one over-specified spec ([`wc`] implements that baseline).
//! 5. Use-cases grouped by the switching graph (phase 2) share one
//!    configuration; the reservation is sized for the group's largest
//!    same-pair flow.
//!
//! # Quick example
//!
//! ```
//! use noc_tdma::TdmaSpec;
//! use noc_topology::units::{Bandwidth, Latency};
//! use noc_usecase::{spec::{CoreId, SocSpec, UseCaseBuilder}, UseCaseGroups};
//! use nocmap::{design::design_smallest_mesh, MapperOptions};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut soc = SocSpec::new("demo");
//! soc.add_use_case(
//!     UseCaseBuilder::new("u0")
//!         .flow(CoreId::new(0), CoreId::new(1), Bandwidth::from_mbps(100), Latency::UNCONSTRAINED)?
//!         .build(),
//! );
//! let groups = UseCaseGroups::singletons(1);
//! let solution = design_smallest_mesh(
//!     &soc,
//!     &groups,
//!     TdmaSpec::paper_default(),
//!     &MapperOptions::default(),
//!     64,
//! )?;
//! assert_eq!(solution.switch_count(), 1);
//! solution.verify(&soc, &groups)?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admit;
pub mod anneal;
pub mod design;
pub mod dvs;
pub mod emit;
pub mod heal;
pub mod mapper;
pub mod merge;
pub mod path;
pub mod perf;
pub mod remap;
pub mod report;
pub mod result;
pub mod strategy;
pub mod verify;
pub mod wc;

mod error;
mod seat;

pub use admit::{admit_group, Admission, NiDirection, RejectReason};
pub use error::MapError;
pub use heal::{heal, HealOutcome};
pub use mapper::{
    map_multi_usecase, reroute_preset_groups, CachedGroup, MapperOptions, Placement, RouteCache,
};
pub use merge::{merged_flows, merged_group_flows};
pub use result::{GroupConfig, MappingSolution, Route, SolutionDelta};
pub use strategy::{design_with_strategy, StrategyKind, StrategyOutcome};
pub use verify::VerifyError;
