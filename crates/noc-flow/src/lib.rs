//! `noc-flow` — the paper's staged methodology as a **composable
//! pipeline API**.
//!
//! The methodology of Murali et al. is a design flow: map the
//! multi-use-case spec onto the smallest feasible mesh, refine the
//! placement (annealing, per-group remapping), verify the TDMA
//! configuration analytically, then replay it on the cycle-level
//! simulator. Before this crate, every caller re-wired those phases by
//! hand from free functions; here each phase is a [`StageConfig`] that
//! runs itself on a [`FlowContext`], a [`FlowConfig`] lists the stages
//! of one design flow, and whole evaluation sweeps (benchmark × axis ×
//! traffic model) are declared as data — an [`ExperimentSpec`] executed
//! by one generic runner ([`run_spec`]).
//!
//! # Layers
//!
//! * [`stage`] — [`StageConfig::run`] (map / worst-case / anneal /
//!   remap / verify / simulate, one trace span each) over a
//!   [`FlowContext`], and [`FlowConfig::run`]: TDMA parameters, growth
//!   cap and `noc-par` thread pin applied once.
//! * [`config`] — [`StageConfig`] / [`FlowConfig`] / [`ExperimentSpec`]
//!   documents with a line-oriented text format (`to_text` /
//!   `from_text`).
//! * [`registry`] — every figure/table of the paper's evaluation
//!   re-expressed as a named [`ExperimentSpec`].
//! * [`runner`] — the generic executor: every suite returns one
//!   [`Table`] of typed columns.
//! * [`render`] / [`perf_json`] — the one text renderer and the one
//!   `BENCH_nocmap.json` record writer over a [`Table`].
//! * [`cli`] — the argument and output helpers of the `nocmap_cli`
//!   binary.
//!
//! # Determinism contract
//!
//! A flow inherits the `noc-par` contract (see `crates/noc-par`):
//! ordered reduction, per-unit seeds derived from `(seed, index)`, no
//! order-sensitive float accumulation in compared quantities. Running
//! the same spec at any thread count yields byte-identical renderings;
//! `tests/flow_goldens.rs` at the workspace root pins every registry
//! entry against pre-redesign goldens at 1 and 4 workers.
//!
//! # Quick example
//!
//! ```
//! use noc_flow::{FlowConfig, StageConfig};
//! use noc_topology::units::{Bandwidth, Latency};
//! use noc_usecase::{spec::{CoreId, SocSpec, UseCaseBuilder}, UseCaseGroups};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut soc = SocSpec::new("demo");
//! soc.add_use_case(
//!     UseCaseBuilder::new("u0")
//!         .flow(CoreId::new(0), CoreId::new(1), Bandwidth::from_mbps(100), Latency::UNCONSTRAINED)?
//!         .build(),
//! );
//! let groups = UseCaseGroups::singletons(1);
//! let flow = FlowConfig {
//!     max_switches: 64,
//!     stages: vec![
//!         StageConfig::map(),
//!         StageConfig::Verify,
//!         StageConfig::Simulate { cycles: 1024 },
//!     ],
//!     ..FlowConfig::design_defaults()
//! };
//! let outcome = flow.run(&soc, &groups)?;
//! assert_eq!(outcome.solution()?.switch_count(), 1);
//! assert_eq!(outcome.sim_reports.len(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod config;
pub mod perf_json;
pub mod registry;
pub mod render;
pub mod runner;
pub mod stage;
pub mod table;

mod error;

pub use config::{
    AblationVariant, BenchmarkSpec, BurstModel, ExperimentKind, ExperimentSpec, FlowConfig,
    LabeledBench, StageConfig,
};
pub use error::FlowError;
pub use runner::run_spec;
pub use stage::FlowContext;
pub use table::{Cell, Column, Table};
