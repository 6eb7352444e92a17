//! The [`Stage`] trait and the built-in pipeline stages.
//!
//! A stage is one phase of the paper's methodology operating on a
//! [`FlowContext`]: it reads the inputs earlier stages produced (spec,
//! solution, …), performs its work, and writes its outputs back. The
//! typed accessors ([`FlowContext::solution`], …) turn a mis-ordered
//! pipeline into a [`FlowError::MissingInput`] instead of a panic.

use noc_sim::{SimConfig, SimReport};
use noc_tdma::TdmaSpec;
use noc_usecase::spec::SocSpec;
use noc_usecase::UseCaseGroups;
use nocmap::anneal::{refine, AnnealConfig};
use nocmap::design::{design_smallest_fabric, FabricKind};
use nocmap::remap::{refine_with_remap, RemapConfig, RemappedDesign};
use nocmap::strategy::{design_with_strategy, StrategyKind};
use nocmap::wc::design_worst_case;
use nocmap::{MapError, MapperOptions, MappingSolution};

use crate::FlowError;

/// The state a [`DesignFlow`](crate::DesignFlow) threads through its
/// stages: the problem (spec, groups, TDMA parameters, mapper options)
/// plus every artifact produced so far.
#[derive(Debug, Clone)]
pub struct FlowContext {
    /// The multi-use-case communication spec being designed for.
    pub soc: SocSpec,
    /// The use-case partition (which use-cases share a configuration).
    pub groups: UseCaseGroups,
    /// TDMA wheel parameters (slots, frequency, link width).
    pub spec: TdmaSpec,
    /// Mapper heuristic options, shared by every mapping stage.
    pub options: MapperOptions,
    /// Topology growth cap (switch count).
    pub max_switches: usize,
    /// Base RNG seed stages derive their per-unit seeds from.
    pub seed: u64,
    /// The current mapped solution (set by the map stage, refined in
    /// place by the anneal stage).
    pub solution: Option<MappingSolution>,
    /// Outcome of the worst-case baseline stage, if it ran. The baseline
    /// failing to map is a *result* (the paper reports exactly that for
    /// large suites), not a flow failure, hence the nested `Result`.
    pub wc: Option<Result<MappingSolution, MapError>>,
    /// Per-group remapping refinement, if the remap stage ran.
    pub remapped: Option<RemappedDesign>,
    /// Cycle-level reports, one per use-case, if the simulate stage ran.
    pub sim_reports: Vec<SimReport>,
    /// Names of the stages executed, in order.
    pub trace: Vec<&'static str>,
}

impl FlowContext {
    /// A fresh context with no artifacts.
    pub fn new(
        soc: SocSpec,
        groups: UseCaseGroups,
        spec: TdmaSpec,
        options: MapperOptions,
        max_switches: usize,
        seed: u64,
    ) -> Self {
        FlowContext {
            soc,
            groups,
            spec,
            options,
            max_switches,
            seed,
            solution: None,
            wc: None,
            remapped: None,
            sim_reports: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// The mapped solution, or [`FlowError::MissingInput`] when no map
    /// stage has run yet.
    ///
    /// # Errors
    ///
    /// [`FlowError::MissingInput`] when the pipeline has no solution.
    pub fn solution(&self) -> Result<&MappingSolution, FlowError> {
        self.solution.as_ref().ok_or(FlowError::MissingInput {
            stage: "flow",
            needs: "a mapped solution",
        })
    }

    /// Borrows the mapped solution on behalf of `stage` (no clone —
    /// refining stages read through this and assign their result back).
    fn stage_solution(&self, stage: &'static str) -> Result<&MappingSolution, FlowError> {
        self.solution.as_ref().ok_or(FlowError::MissingInput {
            stage,
            needs: "a mapped solution",
        })
    }
}

/// One phase of the design flow.
///
/// Implementations must be deterministic given the context (derive any
/// randomness from [`FlowContext::seed`]) and must not depend on the
/// ambient thread count — the contract every built-in stage inherits
/// from `noc-par`.
pub trait Stage {
    /// Short stable name, used in traces and error messages.
    fn name(&self) -> &'static str;

    /// A stable digest of the stage's configuration, attached to the
    /// stage's trace span so two traces can be told apart by the exact
    /// settings they ran with. The built-in stages hash their `Debug`
    /// rendering ([`noc_obs::fnv1a`]); the default is 0 ("no digest").
    fn config_digest(&self) -> u64 {
        0
    }

    /// Executes the stage, reading and writing `ctx`.
    ///
    /// # Errors
    ///
    /// [`FlowError`] when the stage cannot produce its output (mapping
    /// infeasible, missing input, …).
    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError>;
}

/// Map stage: smallest feasible fabric for the whole multi-use-case
/// spec (the paper's outer growth loop + Algorithm 2), optionally
/// refined by an alternative search strategy from the portfolio
/// (`nocmap::strategy`). The default ([`StrategyKind::Greedy`]) is
/// byte- and op-identical to the historical plain greedy stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct MapStage {
    /// Fabric family to grow (mesh by default).
    pub fabric: FabricKind,
    /// Mapping strategy (greedy by default; `displacement` refines the
    /// greedy design on its own fabric).
    pub strategy: StrategyKind,
}

impl Stage for MapStage {
    fn name(&self) -> &'static str {
        "map"
    }

    fn config_digest(&self) -> u64 {
        noc_obs::fnv1a(format!("{self:?}").as_bytes())
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let sol = match self.strategy {
            // Call the plain design entry point directly so the default
            // path stays op-identical to the pre-portfolio stage.
            StrategyKind::Greedy => design_smallest_fabric(
                &ctx.soc,
                &ctx.groups,
                ctx.spec,
                &ctx.options,
                ctx.max_switches,
                self.fabric,
            )?,
            strategy => {
                design_with_strategy(
                    &ctx.soc,
                    &ctx.groups,
                    ctx.spec,
                    &ctx.options,
                    ctx.max_switches,
                    self.fabric,
                    strategy,
                )?
                .solution
            }
        };
        ctx.solution = Some(sol);
        Ok(())
    }
}

/// Worst-case baseline stage: the ASPDAC'06 method (merge all use-cases
/// into one over-specified spec). Its failure is recorded, not raised —
/// "WC fails even onto a 20 × 20 mesh" is a reportable outcome.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorstCaseStage;

impl Stage for WorstCaseStage {
    fn name(&self) -> &'static str {
        "worst-case"
    }

    fn config_digest(&self) -> u64 {
        noc_obs::fnv1a(format!("{self:?}").as_bytes())
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ctx.wc = Some(design_worst_case(
            &ctx.soc,
            ctx.spec,
            &ctx.options,
            ctx.max_switches,
        ));
        Ok(())
    }
}

/// Anneal stage: multi-chain simulated-annealing refinement of the
/// mapped solution (in place).
#[derive(Debug, Clone, Copy)]
pub struct AnnealStage(
    /// Annealing schedule (chains, iterations, seed).
    pub AnnealConfig,
);

impl Stage for AnnealStage {
    fn name(&self) -> &'static str {
        "anneal"
    }

    fn config_digest(&self) -> u64 {
        noc_obs::fnv1a(format!("{self:?}").as_bytes())
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let base = ctx.stage_solution(self.name())?;
        let refined = refine(&ctx.soc, &ctx.groups, &ctx.options, base, &self.0)?;
        ctx.solution = Some(refined);
        Ok(())
    }
}

/// Remap stage: limited per-group placement reconfiguration on top of
/// the shared base solution.
#[derive(Debug, Clone, Copy)]
pub struct RemapStage(
    /// Remapping search parameters.
    pub RemapConfig,
);

impl Stage for RemapStage {
    fn name(&self) -> &'static str {
        "remap"
    }

    fn config_digest(&self) -> u64 {
        noc_obs::fnv1a(format!("{self:?}").as_bytes())
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let base = ctx.stage_solution(self.name())?;
        let remapped = refine_with_remap(&ctx.soc, &ctx.groups, &ctx.options, base, &self.0)?;
        ctx.remapped = Some(remapped);
        Ok(())
    }
}

/// Verify stage: the analytical phase-4 check (slot-table consistency,
/// bandwidth and latency bounds) over every use-case.
#[derive(Debug, Clone, Copy, Default)]
pub struct VerifyStage;

impl Stage for VerifyStage {
    fn name(&self) -> &'static str {
        "verify"
    }

    fn config_digest(&self) -> u64 {
        noc_obs::fnv1a(format!("{self:?}").as_bytes())
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        ctx.stage_solution(self.name())?
            .verify(&ctx.soc, &ctx.groups)
            .map_err(MapError::Inconsistent)?;
        Ok(())
    }
}

/// Simulate stage: replay every use-case on the cycle-level simulator
/// (the `noc-sim` sim-stage adapter, use-cases in parallel).
#[derive(Debug, Clone, Copy)]
pub struct SimulateStage {
    /// Cycles to simulate per use-case.
    pub cycles: u64,
}

impl Stage for SimulateStage {
    fn name(&self) -> &'static str {
        "simulate"
    }

    fn config_digest(&self) -> u64 {
        noc_obs::fnv1a(format!("{self:?}").as_bytes())
    }

    fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let reports = noc_sim::simulate_solution(
            ctx.stage_solution(self.name())?,
            &ctx.soc,
            &ctx.groups,
            &SimConfig {
                cycles: self.cycles,
                ..Default::default()
            },
        );
        ctx.sim_reports = reports;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starved_stage_reports_missing_input() {
        let soc = {
            use noc_topology::units::{Bandwidth, Latency};
            use noc_usecase::spec::{CoreId, UseCaseBuilder};
            let mut soc = SocSpec::new("t");
            soc.add_use_case(
                UseCaseBuilder::new("u0")
                    .flow(
                        CoreId::new(0),
                        CoreId::new(1),
                        Bandwidth::from_mbps(100),
                        Latency::UNCONSTRAINED,
                    )
                    .unwrap()
                    .build(),
            );
            soc
        };
        let mut ctx = FlowContext::new(
            soc,
            UseCaseGroups::singletons(1),
            TdmaSpec::paper_default(),
            MapperOptions::default(),
            16,
            2006,
        );
        let err = VerifyStage.run(&mut ctx).unwrap_err();
        assert_eq!(
            err,
            FlowError::MissingInput {
                stage: "verify",
                needs: "a mapped solution",
            }
        );
        assert!(matches!(
            ctx.solution().unwrap_err(),
            FlowError::MissingInput { .. }
        ));
    }
}
