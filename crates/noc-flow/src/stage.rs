//! Running a design flow: [`StageConfig::run`] executes one stage on a
//! [`FlowContext`], and [`FlowConfig::run`] runs a config's stage list
//! on a fresh one.
//!
//! A stage is one phase of the paper's methodology: it reads the inputs
//! earlier stages produced (spec, solution, …), performs its work, and
//! writes its outputs back into the context. The typed accessors
//! ([`FlowContext::solution`], …) turn a mis-ordered pipeline into a
//! [`FlowError::MissingInput`] instead of a panic.

use noc_sim::{SimConfig, SimReport};
use noc_tdma::TdmaSpec;
use noc_topology::units::{Frequency, LinkWidth};
use noc_usecase::spec::SocSpec;
use noc_usecase::UseCaseGroups;
use nocmap::anneal::refine;
use nocmap::design::FabricKind;
use nocmap::remap::{refine_with_remap, RemappedDesign};
use nocmap::strategy::design_with_strategy;
use nocmap::wc::design_worst_case;
use nocmap::{MapError, MapperOptions, MappingSolution};

use crate::config::{FlowConfig, StageConfig};
use crate::FlowError;

/// The state a flow threads through its stages: the problem (spec,
/// groups, TDMA parameters, mapper options) plus every artifact
/// produced so far.
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
}

impl FlowContext {
    /// A fresh context with no artifacts.
    pub fn new(
        soc: SocSpec,
        groups: UseCaseGroups,
        spec: TdmaSpec,
        options: MapperOptions,
        max_switches: usize,
    ) -> Self {
        FlowContext {
            soc,
            groups,
            spec,
            options,
            max_switches,
            solution: None,
            wc: None,
            remapped: None,
            sim_reports: Vec::new(),
        }
    }

    /// The mapped solution, or [`FlowError::MissingInput`] when no map
    /// stage has run yet.
    ///
    /// # Errors
    ///
    /// [`FlowError::MissingInput`] when the pipeline has no solution.
    pub fn solution(&self) -> Result<&MappingSolution, FlowError> {
        self.stage_solution("flow")
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

impl StageConfig {
    /// Short stable name, used in traces and error messages.
    pub fn name(&self) -> &'static str {
        match self {
            StageConfig::Map { .. } => "map",
            StageConfig::WorstCase => "worst-case",
            StageConfig::Anneal(_) => "anneal",
            StageConfig::Remap(_) => "remap",
            StageConfig::Verify => "verify",
            StageConfig::Simulate { .. } => "simulate",
        }
    }

    /// Runs the stage on `ctx`, inside a trace span named after it. The
    /// span's `config` attribute is a digest of the stage's `Debug`
    /// text ([`noc_obs::fnv1a`]), so two traces tell apart the exact
    /// settings they ran with. The outcome depends only on `ctx` and the
    /// stage, not on the `noc-par` thread count.
    ///
    /// * map: the smallest feasible mesh (the paper's growth loop and
    ///   Algorithm 2), refined on that mesh when the strategy is
    ///   displacement;
    /// * worst-case: the ASPDAC'06 merged baseline, its failure recorded
    ///   in [`FlowContext::wc`] rather than raised;
    /// * anneal: multi-chain annealing of the solution, in place;
    /// * remap: per-group placement refinement on the shared solution;
    /// * verify: the analytical phase-4 check of every use-case;
    /// * simulate: every use-case replayed on the cycle-level simulator.
    ///
    /// # Errors
    ///
    /// [`FlowError`] when the stage cannot produce its output: mapping
    /// infeasible, verification failed, or no solution from an earlier
    /// stage ([`FlowError::MissingInput`]).
    pub fn run(&self, ctx: &mut FlowContext) -> Result<(), FlowError> {
        let name = self.name();
        let span = noc_obs::span(name);
        span.attr(
            "config",
            format!("{:016x}", noc_obs::fnv1a(format!("{self:?}").as_bytes())),
        );
        match self {
            StageConfig::Map { strategy } => {
                let outcome = design_with_strategy(
                    &ctx.soc,
                    &ctx.groups,
                    ctx.spec,
                    &ctx.options,
                    ctx.max_switches,
                    FabricKind::Mesh,
                    *strategy,
                )?;
                ctx.solution = Some(outcome.solution);
            }
            StageConfig::WorstCase => {
                ctx.wc = Some(design_worst_case(
                    &ctx.soc,
                    ctx.spec,
                    &ctx.options,
                    ctx.max_switches,
                ));
            }
            StageConfig::Anneal(config) => {
                let base = ctx.stage_solution(name)?;
                let refined = refine(&ctx.soc, &ctx.groups, &ctx.options, base, config)?;
                ctx.solution = Some(refined);
            }
            StageConfig::Remap(config) => {
                let base = ctx.stage_solution(name)?;
                let remapped =
                    refine_with_remap(&ctx.soc, &ctx.groups, &ctx.options, base, config)?;
                ctx.remapped = Some(remapped);
            }
            StageConfig::Verify => {
                ctx.stage_solution(name)?
                    .verify(&ctx.soc, &ctx.groups)
                    .map_err(MapError::Inconsistent)?;
            }
            StageConfig::Simulate { cycles } => {
                ctx.sim_reports = noc_sim::simulate_solution(
                    ctx.stage_solution(name)?,
                    &ctx.soc,
                    &ctx.groups,
                    &SimConfig {
                        cycles: *cycles,
                        ..Default::default()
                    },
                );
            }
        }
        Ok(())
    }
}

impl FlowConfig {
    /// Runs every stage in order on a fresh context for `soc`: `slots`
    /// slots at `freq_mhz` on 32-bit links, default mapper options, the
    /// config's growth cap, under its `threads` pin.
    ///
    /// # Errors
    ///
    /// The first stage failure, as a [`FlowError`]; the partial context
    /// is dropped.
    pub fn run(&self, soc: &SocSpec, groups: &UseCaseGroups) -> Result<FlowContext, FlowError> {
        let spec = TdmaSpec::new(
            self.slots,
            Frequency::from_mhz(self.freq_mhz),
            LinkWidth::BITS_32,
        );
        let execute = || {
            let mut ctx = FlowContext::new(
                soc.clone(),
                groups.clone(),
                spec,
                MapperOptions::default(),
                self.max_switches,
            );
            for stage in &self.stages {
                stage.run(&mut ctx)?;
            }
            Ok(ctx)
        };
        match self.threads {
            Some(n) => noc_par::with_threads(n, execute),
            None => execute(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::units::{Bandwidth, Latency};
    use noc_usecase::spec::{CoreId, UseCaseBuilder};
    use nocmap::anneal::AnnealConfig;
    use nocmap::remap::RemapConfig;

    /// `use_cases` use-cases of one 0 → 1 flow each, at 100, 150, …
    /// MB/s.
    fn tiny_soc(use_cases: usize) -> SocSpec {
        let mut soc = SocSpec::new("tiny");
        for uc in 0..use_cases {
            soc.add_use_case(
                UseCaseBuilder::new(format!("u{uc}"))
                    .flow(
                        CoreId::new(0),
                        CoreId::new(1),
                        Bandwidth::from_mbps(100 + 50 * uc as u64),
                        Latency::UNCONSTRAINED,
                    )
                    .unwrap()
                    .build(),
            );
        }
        soc
    }

    #[test]
    fn starved_stage_reports_missing_input() {
        let mut ctx = FlowContext::new(
            tiny_soc(1),
            UseCaseGroups::singletons(1),
            TdmaSpec::paper_default(),
            MapperOptions::default(),
            16,
        );
        let err = StageConfig::Verify.run(&mut ctx).unwrap_err();
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

    #[test]
    fn full_pipeline_runs_in_order() {
        let soc = tiny_soc(2);
        let groups = UseCaseGroups::singletons(2);
        let config = FlowConfig {
            max_switches: 16,
            stages: vec![
                StageConfig::map(),
                StageConfig::WorstCase,
                StageConfig::Anneal(AnnealConfig {
                    iterations: 10,
                    ..Default::default()
                }),
                StageConfig::Remap(RemapConfig::default()),
                StageConfig::Verify,
                StageConfig::Simulate { cycles: 512 },
            ],
            ..FlowConfig::design_defaults()
        };
        let names: Vec<_> = config.stages.iter().map(StageConfig::name).collect();
        assert_eq!(
            names,
            ["map", "worst-case", "anneal", "remap", "verify", "simulate"]
        );
        let ctx = config.run(&soc, &groups).unwrap();
        assert!(ctx.solution().is_ok());
        assert!(ctx.wc.as_ref().unwrap().is_ok());
        assert!(ctx.remapped.is_some());
        assert_eq!(ctx.sim_reports.len(), 2);
        for r in &ctx.sim_reports {
            assert_eq!(r.contention_violations, 0);
        }
    }

    #[test]
    fn thread_policy_does_not_change_the_outcome() {
        let soc = tiny_soc(2);
        let groups = UseCaseGroups::singletons(2);
        let run = |threads| {
            FlowConfig {
                max_switches: 16,
                threads,
                ..FlowConfig::design_defaults()
            }
            .run(&soc, &groups)
            .unwrap()
        };
        assert_eq!(run(Some(1)).solution, run(Some(4)).solution);
    }
}
