//! The `nocd` admission engine: streaming use-case admission with
//! incremental remapping and request batching.
//!
//! The engine owns the running mapping state (admitted use-cases, the
//! preset-pure per-group configs, the core → NI placement) and applies
//! a stream of [`Command`]s. Mutations (`add` / `modify` / `remove`)
//! are **queued** and applied together at the next *reconfiguration
//! point* — when the batch fills, on an explicit `flush`, or before any
//! `stats` / `snapshot` / `shutdown` — mirroring how a deployed NoC
//! reconfigures between use-case groups rather than per request.
//!
//! Admission ([`AdmitMode::Incremental`], the default) goes through
//! [`nocmap::admit_group`]: greedy placement on free NIs, one group
//! route (everything else spliced from the running solution), and
//! displacement under the eviction budget on conflict. The per-use-case
//! route store re-seeds each admission's [`RouteCache`] with every
//! signature routed since that use-case was admitted, so repeated
//! displacement probes across the stream hit the cache.
//! [`AdmitMode::Resolve`] is the from-scratch baseline: every applied
//! add/modify re-runs the full batch mapper over all admitted use-cases
//! — the `pr9` perf record contrasts the two on identical traces.
//!
//! # Faults and self-healing
//!
//! `fault link|ni <idx>…` requests are queued like mutations; at the
//! reconfiguration point that applies one, the engine adds the named
//! resources to [`MapperOptions::faults`], drops its route store (those
//! configs were routed on the pre-fault fabric and must not be spliced
//! or cache-seeded again), and runs [`nocmap::heal()`] over the running
//! solution. Groups the heal cannot service are *parked*: their
//! configs are emptied, their exclusive cores unplaced, and their ids
//! reported `degraded` by `health` until an explicit `heal` request
//! re-admits them through the normal admission path (now fault-aware,
//! so re-placement avoids failed NIs and re-routes avoid failed
//! links).
//!
//! # Flush-then-read contract
//!
//! Every read (`stats` / `snapshot` / `heal` / `health` / `shutdown`)
//! flushes the pending batch *first* and reports the post-flush state:
//! a read never observes a half-applied batch, and interleaving reads
//! with queued mutations changes *when* reconfiguration points occur
//! but never the state a read reports for a given request prefix.
//!
//! Everything is a pure function of the request stream — responses
//! (and therefore replay transcripts) are byte-identical at any
//! `noc-par` width.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

use noc_obs::Counter;
use noc_tdma::TdmaSpec;
use noc_topology::units::{Bandwidth, Frequency, Latency, LinkWidth};
use noc_topology::{FaultSet, MeshBuilder, NodeId, Topology};
use noc_usecase::spec::{CoreId, SocSpec, UseCase, UseCaseBuilder};
use noc_usecase::UseCaseGroups;
use nocmap::remap::RemapConfig;
use nocmap::strategy::displacement_eviction_budget;
use nocmap::{
    admit_group, map_multi_usecase, merged_group_flows, GroupConfig, HealOutcome, MapperOptions,
    MappingSolution, RouteCache,
};

use crate::protocol::{parse_command, Command, FaultTarget, FlowSpec, TERMINATOR};

/// How applied mutations reach a new mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmitMode {
    /// Incremental admission via [`nocmap::admit_group`] (greedy fast
    /// path, displacement on conflict, route-cache reuse).
    #[default]
    Incremental,
    /// From-scratch baseline: re-run the full batch mapper on every
    /// applied add/modify.
    Resolve,
}

impl AdmitMode {
    /// CLI/flags token.
    pub fn token(self) -> &'static str {
        match self {
            AdmitMode::Incremental => "incremental",
            AdmitMode::Resolve => "resolve",
        }
    }

    /// Parses a [`Self::token`].
    pub fn parse(token: &str) -> Option<AdmitMode> {
        [AdmitMode::Incremental, AdmitMode::Resolve]
            .into_iter()
            .find(|m| m.token() == token)
    }
}

/// Engine construction parameters (the daemon's fixed fabric plus
/// admission policy).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Mesh rows.
    pub rows: u16,
    /// Mesh columns.
    pub cols: u16,
    /// NIs per switch.
    pub nis_per_switch: u16,
    /// TDMA slots per table.
    pub slots: usize,
    /// NoC frequency in MHz.
    pub freq_mhz: u64,
    /// Mutations applied together per reconfiguration point.
    pub batch: usize,
    /// Displacement eviction budget per admission.
    pub budget: u64,
    /// Admission mode.
    pub mode: AdmitMode,
}

impl Default for EngineConfig {
    /// A 4×4 mesh (16 NIs) at the paper's TDMA operating point, batch
    /// of 4, and the [`displacement_eviction_budget`] the strategy
    /// portfolio uses.
    fn default() -> Self {
        EngineConfig {
            rows: 4,
            cols: 4,
            nis_per_switch: 1,
            slots: 128,
            freq_mhz: 500,
            batch: 4,
            budget: displacement_eviction_budget(),
            mode: AdmitMode::Incremental,
        }
    }
}

/// Cumulative admission-control metrics (all counters monotonic over
/// the engine's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Commands received (parse errors included, blank/comment lines
    /// not).
    pub requests: u64,
    /// `add` requests queued.
    pub adds: u64,
    /// `modify` requests queued.
    pub modifies: u64,
    /// `remove` requests queued.
    pub removes: u64,
    /// Parse errors plus apply-time id/spec errors.
    pub errors: u64,
    /// Admissions accepted (adds and modifies).
    pub admitted: u64,
    /// Admissions rejected by capacity (NI exhaustion or unroutable).
    pub rejected: u64,
    /// Admissions that displaced at least one pre-existing core.
    pub displaced: u64,
    /// Cumulative pre-existing cores moved — the reconfiguration cost.
    pub evictions: u64,
    /// Non-empty batches applied at reconfiguration points.
    pub flushes: u64,
    /// `fault` requests queued.
    pub faults: u64,
    /// Links newly failed by applied `fault` requests.
    pub links_failed: u64,
    /// NIs newly failed by applied `fault` requests.
    pub nis_failed: u64,
    /// Explicit `heal` requests served.
    pub heals: u64,
    /// Degraded use-cases revived by explicit `heal` requests.
    pub healed: u64,
    /// Use-cases parked as degraded (cumulative; a use-case degraded
    /// twice counts twice).
    pub degraded: u64,
}

impl ServiceStats {
    /// Blocking probability: rejected / (admitted + rejected), `0` with
    /// no capacity decisions yet. Id/spec errors are not admission
    /// attempts and do not count.
    pub fn blocking(&self) -> f64 {
        let attempts = self.admitted + self.rejected;
        if attempts == 0 {
            return 0.0;
        }
        self.rejected as f64 / attempts as f64
    }
}

/// The admission engine. See the module docs; the socket layer
/// ([`crate::net`]) is a thin transport over [`Engine::submit_line`].
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    topo: Topology,
    spec: TdmaSpec,
    options: MapperOptions,
    /// Admitted use-cases in admission order (a modify re-admits at the
    /// back).
    ucs: Vec<(String, UseCase)>,
    /// Preset-pure per-group configs, parallel to `ucs`.
    configs: Vec<GroupConfig>,
    /// Core → NI placement of every referenced core.
    placement: BTreeMap<CoreId, NodeId>,
    /// Per use-case id: every `signature → config` routed while the
    /// use-case's flows were live (invalidated on modify/remove).
    store: BTreeMap<String, BTreeMap<Vec<NodeId>, GroupConfig>>,
    /// Ids of parked (degraded) use-cases: admitted but unserviced
    /// until an explicit `heal` re-admits them.
    parked: BTreeSet<String>,
    pending: VecDeque<(u64, Command)>,
    seq: u64,
    stats: ServiceStats,
    shutdown: bool,
}

impl Engine {
    /// Builds an engine over a fresh, empty mesh.
    ///
    /// # Errors
    ///
    /// A message when the mesh dimensions are invalid.
    pub fn new(cfg: EngineConfig) -> Result<Engine, String> {
        let topo = MeshBuilder::new(cfg.rows, cfg.cols)
            .nis_per_switch(cfg.nis_per_switch)
            .build()
            .map_err(|e| e.to_string())?
            .into_topology();
        let spec = TdmaSpec::new(
            cfg.slots,
            Frequency::from_mhz(cfg.freq_mhz),
            LinkWidth::BITS_32,
        );
        Ok(Engine {
            cfg,
            topo,
            spec,
            options: MapperOptions::default(),
            ucs: Vec::new(),
            configs: Vec::new(),
            placement: BTreeMap::new(),
            store: BTreeMap::new(),
            parked: BTreeSet::new(),
            pending: VecDeque::new(),
            seq: 0,
            stats: ServiceStats::default(),
            shutdown: false,
        })
    }

    /// Whether a `shutdown` command has been applied.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// The cumulative admission-control metrics.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// The current total communication cost (exact bytes/s·hops).
    pub fn comm_cost(&self) -> u128 {
        self.configs
            .iter()
            .flat_map(|g| g.iter())
            .map(|(_, r)| r.bandwidth.as_bytes_per_sec() as u128 * r.hops() as u128)
            .sum()
    }

    /// Admitted use-case count.
    pub fn use_case_count(&self) -> usize {
        self.ucs.len()
    }

    /// The active fault set.
    pub fn faults(&self) -> &FaultSet {
        &self.options.faults
    }

    /// Currently degraded (parked) use-case count.
    pub fn degraded_count(&self) -> usize {
        self.parked.len()
    }

    /// Handles one request line and returns the full framed response
    /// (status line, detail lines, `.` terminator).
    pub fn submit_line(&mut self, line: &str) -> String {
        match parse_command(line) {
            Ok(None) => format!("ok\n{TERMINATOR}\n"),
            Ok(Some(cmd)) => self.submit(cmd),
            Err(e) => {
                self.stats.requests += 1;
                self.stats.errors += 1;
                format!("err {}: {e}\n{TERMINATOR}\n", e.kind())
            }
        }
    }

    fn submit(&mut self, cmd: Command) -> String {
        self.stats.requests += 1;
        let mut out = String::new();
        match cmd {
            cmd @ (Command::Add { .. }
            | Command::Modify { .. }
            | Command::Remove { .. }
            | Command::Fault { .. }) => {
                self.seq += 1;
                match &cmd {
                    Command::Add { .. } => self.stats.adds += 1,
                    Command::Modify { .. } => self.stats.modifies += 1,
                    Command::Fault { .. } => self.stats.faults += 1,
                    _ => self.stats.removes += 1,
                }
                self.pending.push_back((self.seq, cmd));
                if self.pending.len() >= self.cfg.batch {
                    self.write_applied(&mut out);
                } else {
                    let _ = writeln!(
                        out,
                        "ok queued seq={} pending={}/{}",
                        self.seq,
                        self.pending.len(),
                        self.cfg.batch
                    );
                }
            }
            Command::Flush => self.write_applied(&mut out),
            Command::Stats => {
                let events = self.flush();
                out.push_str("ok stats\n");
                for e in &events {
                    out.push_str(e);
                    out.push('\n');
                }
                let s = &self.stats;
                let _ = writeln!(
                    out,
                    "requests={} adds={} modifies={} removes={} errors={}",
                    s.requests, s.adds, s.modifies, s.removes, s.errors
                );
                let _ = writeln!(
                    out,
                    "admitted={} rejected={} blocking={:.4}",
                    s.admitted,
                    s.rejected,
                    s.blocking()
                );
                let _ = writeln!(
                    out,
                    "displaced={} evictions={} flushes={}",
                    s.displaced, s.evictions, s.flushes
                );
                let _ = writeln!(
                    out,
                    "use_cases={} cores={} free_nis={} comm_cost={}",
                    self.ucs.len(),
                    self.placement.len(),
                    self.free_ni_count(),
                    self.comm_cost()
                );
                // The fault line only appears once a fault exists, so
                // fault-free transcripts are byte-identical to the
                // pre-fault protocol.
                if !self.options.faults.is_empty() {
                    let s = &self.stats;
                    let _ = writeln!(
                        out,
                        "faults={} links_failed={} nis_failed={} heals={} healed={} degraded={}",
                        s.faults,
                        s.links_failed,
                        s.nis_failed,
                        s.heals,
                        s.healed,
                        self.parked.len()
                    );
                }
            }
            Command::Snapshot => {
                let events = self.flush();
                let _ = writeln!(
                    out,
                    "ok snapshot use_cases={} cores={}",
                    self.ucs.len(),
                    self.placement.len()
                );
                for e in &events {
                    out.push_str(e);
                    out.push('\n');
                }
                for (id, uc) in &self.ucs {
                    // `.get()`, not indexing: a parked use-case's cores
                    // are legitimately unplaced.
                    let seats: Vec<String> = uc
                        .cores()
                        .iter()
                        .map(|c| match self.placement.get(c) {
                            Some(ni) => format!("{c}->{ni}"),
                            None => format!("{c}->?"),
                        })
                        .collect();
                    let mark = if self.parked.contains(id) {
                        " [degraded]"
                    } else {
                        ""
                    };
                    let _ = writeln!(out, "uc {id}: {}{mark}", seats.join(" "));
                }
            }
            Command::Heal => {
                let events = self.flush();
                self.stats.heals += 1;
                let (lines, revived) = self.reheal();
                let _ = writeln!(
                    out,
                    "ok heal attempted={} healed={} degraded={}",
                    lines.len(),
                    revived,
                    self.parked.len()
                );
                for e in &events {
                    out.push_str(e);
                    out.push('\n');
                }
                for l in &lines {
                    out.push_str(l);
                    out.push('\n');
                }
            }
            Command::Health => {
                let events = self.flush();
                let f = &self.options.faults;
                let _ = writeln!(
                    out,
                    "ok health use_cases={} degraded={} links_failed={} nis_failed={}",
                    self.ucs.len(),
                    self.parked.len(),
                    f.failed_link_count(),
                    f.failed_ni_count()
                );
                for e in &events {
                    out.push_str(e);
                    out.push('\n');
                }
                for (id, _) in &self.ucs {
                    let state = if self.parked.contains(id) {
                        "degraded"
                    } else {
                        "healthy"
                    };
                    let _ = writeln!(out, "uc {id}: {state}");
                }
            }
            Command::Shutdown => {
                let events = self.flush();
                out.push_str("ok shutdown\n");
                for e in &events {
                    out.push_str(e);
                    out.push('\n');
                }
                self.shutdown = true;
            }
        }
        out.push_str(TERMINATOR);
        out.push('\n');
        out
    }

    fn write_applied(&mut self, out: &mut String) {
        let events = self.flush();
        let _ = writeln!(out, "ok applied n={}", events.len());
        for e in &events {
            out.push_str(e);
            out.push('\n');
        }
    }

    /// Applies every queued mutation (one reconfiguration point) and
    /// returns the per-request event lines.
    fn flush(&mut self) -> Vec<String> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        self.stats.flushes += 1;
        noc_obs::count(Counter::BatchFlushes, 1);
        let batch: Vec<(u64, Command)> = self.pending.drain(..).collect();
        batch
            .into_iter()
            .map(|(seq, cmd)| self.apply(seq, cmd))
            .collect()
    }

    fn apply(&mut self, seq: u64, cmd: Command) -> String {
        match cmd {
            Command::Add { id, flows } => {
                if self.index_of(&id).is_some() {
                    self.stats.errors += 1;
                    return format!("#{seq} add {id}: error duplicate-id");
                }
                self.admit(seq, "add", id, &flows, None)
            }
            Command::Modify { id, flows } => {
                let Some(at) = self.index_of(&id) else {
                    self.stats.errors += 1;
                    return format!("#{seq} modify {id}: error unknown-id");
                };
                self.admit(seq, "modify", id, &flows, Some(at))
            }
            Command::Remove { id } => {
                let Some(at) = self.index_of(&id) else {
                    self.stats.errors += 1;
                    return format!("#{seq} remove {id}: error unknown-id");
                };
                let (_, uc) = self.ucs.remove(at);
                self.configs.remove(at);
                self.store.remove(&id);
                self.parked.remove(&id);
                let freed = self.prune_placement(&uc);
                format!("#{seq} remove {id}: removed freed={freed}")
            }
            Command::Fault { target, indices } => self.apply_fault(seq, target, &indices),
            _ => unreachable!("only mutations are queued"),
        }
    }

    /// Applies one `fault` request: injects the named failures, then
    /// auto-heals the running mapping around them.
    fn apply_fault(&mut self, seq: u64, target: FaultTarget, indices: &[usize]) -> String {
        let available = match target {
            FaultTarget::Link => self.topo.link_count(),
            FaultTarget::Ni => self.topo.ni_count(),
        };
        // Atomic: one out-of-range index rejects the whole request.
        if let Some(&bad) = indices.iter().find(|&&i| i >= available) {
            self.stats.errors += 1;
            return format!(
                "#{seq} fault {}: error index {bad} out of range (fabric has {available})",
                target.token()
            );
        }
        let mut injected = 0u64;
        for &i in indices {
            let newly = match target {
                FaultTarget::Link => self.options.faults.fail_link(self.topo.links()[i].id()),
                FaultTarget::Ni => self.options.faults.fail_ni(self.topo.nis()[i]),
            };
            if newly {
                injected += 1;
                match target {
                    FaultTarget::Link => self.stats.links_failed += 1,
                    FaultTarget::Ni => self.stats.nis_failed += 1,
                }
            }
        }
        noc_obs::count(Counter::FaultsInjected, injected);
        let head = format!(
            "#{seq} fault {}: injected={injected} links_failed={} nis_failed={}",
            target.token(),
            self.options.faults.failed_link_count(),
            self.options.faults.failed_ni_count()
        );
        if injected == 0 {
            return format!("{head} (already failed)");
        }
        // Every stored config was routed on the pre-fault fabric; none
        // may be spliced or cache-seeded again.
        self.store.clear();
        if self.ucs.is_empty() {
            return head;
        }
        let (soc, groups) = self.soc_current();
        let base = MappingSolution::new(
            self.topo.clone(),
            format!("{}sw", self.topo.switch_count()),
            self.spec,
            self.placement.clone(),
            self.configs.clone(),
        );
        match nocmap::heal(&soc, &groups, &base, &self.options, &RemapConfig::default()) {
            HealOutcome::Healed {
                solution,
                rerouted,
                moved,
            } => {
                self.placement = solution.core_mapping().clone();
                self.configs = solution.group_configs().to_vec();
                format!("{head} healed rerouted={rerouted} moved={}", moved.len())
            }
            HealOutcome::Degraded {
                solution,
                groups: dead,
                rerouted,
                moved,
            } => {
                self.placement = solution.core_mapping().clone();
                self.configs = solution.group_configs().to_vec();
                let ids: Vec<String> = dead.iter().map(|&g| self.ucs[g].0.clone()).collect();
                for id in &ids {
                    self.park(id);
                }
                format!(
                    "{head} degraded={} rerouted={rerouted} moved={} [{}]",
                    ids.len(),
                    moved.len(),
                    ids.join(" ")
                )
            }
            HealOutcome::Infeasible { error } => {
                // No repaired solution exists: park everything rather
                // than keep routes that may cross failed resources.
                let ids: Vec<String> = self.ucs.iter().map(|(id, _)| id.clone()).collect();
                for id in &ids {
                    self.park(id);
                }
                format!("{head} infeasible: {error} parked={}", ids.len())
            }
        }
    }

    /// Parks a use-case as degraded: empties its config and unplaces
    /// the cores no live (non-parked) use-case still references.
    fn park(&mut self, id: &str) {
        if !self.parked.insert(id.to_string()) {
            return;
        }
        self.stats.degraded += 1;
        let Some(at) = self.index_of(id) else {
            return;
        };
        self.configs[at] = GroupConfig::new();
        let uc = self.ucs[at].1.clone();
        let live: BTreeSet<CoreId> = self
            .ucs
            .iter()
            .filter(|(uid, _)| !self.parked.contains(uid))
            .flat_map(|(_, u)| u.cores())
            .collect();
        for core in uc.cores() {
            if !live.contains(&core) {
                self.placement.remove(&core);
            }
        }
    }

    /// Re-attempts admission of every parked use-case (ascending id
    /// order) through the fault-aware admission path. Returns the
    /// per-use-case event lines and how many were revived.
    fn reheal(&mut self) -> (Vec<String>, u64) {
        let ids: Vec<String> = self.parked.iter().cloned().collect();
        let mut lines = Vec::with_capacity(ids.len());
        let mut revived = 0u64;
        for id in ids {
            noc_obs::count(Counter::HealsAttempted, 1);
            let Some(at) = self.index_of(&id) else {
                continue;
            };
            let (_, uc) = self.ucs.remove(at);
            let cfg = self.configs.remove(at);
            let saved_placement = self.placement.clone();
            self.prune_placement(&uc);
            match self.admit_incremental(&id, &uc) {
                Ok((cost, placed, moved)) => {
                    self.parked.remove(&id);
                    self.stats.healed += 1;
                    revived += 1;
                    lines.push(format!(
                        "uc {id}: healed cost={cost} placed={placed} moved={moved}"
                    ));
                }
                Err(reason) => {
                    self.placement = saved_placement;
                    self.ucs.insert(at, (id.clone(), uc));
                    self.configs.insert(at, cfg);
                    lines.push(format!("uc {id}: degraded {reason}"));
                }
            }
        }
        (lines, revived)
    }

    /// NIs that are neither occupied nor failed.
    fn free_ni_count(&self) -> usize {
        let usable = self.topo.ni_count() - self.options.faults.failed_ni_count();
        usable.saturating_sub(self.placement.len())
    }

    /// The running spec as singleton groups (no extra use-case).
    fn soc_current(&self) -> (SocSpec, UseCaseGroups) {
        let mut soc = SocSpec::new("nocd");
        for (_, existing) in &self.ucs {
            soc.add_use_case(existing.clone());
        }
        let groups = UseCaseGroups::singletons(soc.use_case_count());
        (soc, groups)
    }

    /// Admits (or, with `replace_at`, atomically re-admits) a use-case.
    fn admit(
        &mut self,
        seq: u64,
        op: &str,
        id: String,
        flows: &[FlowSpec],
        replace_at: Option<usize>,
    ) -> String {
        let uc = match build_use_case(&id, flows) {
            Ok(uc) => uc,
            Err(e) => {
                self.stats.errors += 1;
                return format!("#{seq} {op} {id}: error bad-flows: {e}");
            }
        };
        let span = noc_obs::span("admission");
        span.attr("op", op);
        span.attr("id", id.as_str());
        span.attr("seq", seq);

        // A modify re-admits against the state without its old version;
        // the removal is rolled back wholesale if the new version is
        // rejected, so a failed modify leaves the engine untouched
        // (minus the old version's now-stale route-store entry).
        let mut old: Option<(
            usize,
            String,
            UseCase,
            GroupConfig,
            BTreeMap<CoreId, NodeId>,
        )> = None;
        if let Some(at) = replace_at {
            let (oid, ouc) = self.ucs.remove(at);
            let ocfg = self.configs.remove(at);
            self.store.remove(&oid);
            let saved_placement = self.placement.clone();
            self.prune_placement(&ouc);
            old = Some((at, oid, ouc, ocfg, saved_placement));
        }

        let outcome = match self.cfg.mode {
            AdmitMode::Incremental => self.admit_incremental(&id, &uc),
            AdmitMode::Resolve => self.admit_resolve(&id, &uc),
        };
        match outcome {
            Ok((cost, placed, moved)) => {
                self.stats.admitted += 1;
                // A re-admitted (modified) use-case is serviced again.
                self.parked.remove(&id);
                if moved > 0 {
                    self.stats.displaced += 1;
                    self.stats.evictions += moved;
                }
                span.attr("admitted", 1u64);
                span.attr("moved", moved);
                format!(
                    "#{seq} {op} {id}: admitted cost={cost} placed={placed} \
                     moved={moved} evictions={moved}"
                )
            }
            Err(reason) => {
                self.stats.rejected += 1;
                if let Some((at, oid, ouc, ocfg, saved_placement)) = old {
                    self.placement = saved_placement;
                    self.ucs.insert(at, (oid, ouc));
                    self.configs.insert(at, ocfg);
                }
                span.attr("admitted", 0u64);
                format!("#{seq} {op} {id}: rejected {reason}")
            }
        }
    }

    fn admit_incremental(&mut self, id: &str, uc: &UseCase) -> Result<(u128, usize, u64), String> {
        let (soc, groups) = self.soc_with(uc);
        let group = groups.group_count() - 1;
        let merged = merged_group_flows(&soc, &groups);
        let mut base_configs = self.configs.clone();
        base_configs.push(GroupConfig::new());
        let base = MappingSolution::new(
            self.topo.clone(),
            format!("{}sw", self.topo.switch_count()),
            self.spec,
            self.placement.clone(),
            base_configs,
        );
        let mut cache = RouteCache::new(&merged);
        for (g, (gid, _)) in self.ucs.iter().enumerate() {
            if let Some(entries) = self.store.get(gid) {
                for (sig, config) in entries {
                    cache.insert(g, sig.clone(), config.clone());
                }
            }
        }
        match admit_group(
            &soc,
            &groups,
            &base,
            &self.options,
            group,
            self.cfg.budget,
            &merged,
            &mut cache,
        ) {
            Ok(adm) => {
                self.ucs.push((id.to_string(), uc.clone()));
                self.placement = adm.solution.core_mapping().clone();
                self.configs = adm.solution.group_configs().to_vec();
                for (g, (gid, _)) in self.ucs.iter().enumerate() {
                    let entries = self.store.entry(gid.clone()).or_default();
                    for (sig, config) in cache.group_entries(g) {
                        entries.entry(sig.clone()).or_insert_with(|| config.clone());
                    }
                }
                Ok((
                    adm.solution.comm_cost_bytes_hops(),
                    adm.placed.len(),
                    adm.evictions,
                ))
            }
            Err(reason) => Err(reason.to_string()),
        }
    }

    fn admit_resolve(&mut self, id: &str, uc: &UseCase) -> Result<(u128, usize, u64), String> {
        let (soc, groups) = self.soc_with(uc);
        match map_multi_usecase(&soc, &groups, &self.topo, self.spec, &self.options) {
            Ok(sol) => {
                let placed = uc
                    .cores()
                    .iter()
                    .filter(|c| !self.placement.contains_key(c))
                    .count();
                let moved = self
                    .placement
                    .iter()
                    .filter(|(c, ni)| sol.core_mapping().get(c).is_some_and(|n| n != *ni))
                    .count() as u64;
                self.ucs.push((id.to_string(), uc.clone()));
                self.placement = sol.core_mapping().clone();
                self.configs = sol.group_configs().to_vec();
                noc_obs::count(Counter::Admissions, 1);
                noc_obs::count(Counter::DisplacementEvictions, moved);
                Ok((sol.comm_cost_bytes_hops(), placed, moved))
            }
            Err(e) => {
                noc_obs::count(Counter::Rejections, 1);
                Err(format!("unroutable: {e}"))
            }
        }
    }

    /// The running spec plus one more use-case, as singleton groups.
    fn soc_with(&self, uc: &UseCase) -> (SocSpec, UseCaseGroups) {
        let mut soc = SocSpec::new("nocd");
        for (_, existing) in &self.ucs {
            soc.add_use_case(existing.clone());
        }
        soc.add_use_case(uc.clone());
        let groups = UseCaseGroups::singletons(soc.use_case_count());
        (soc, groups)
    }

    fn index_of(&self, id: &str) -> Option<usize> {
        self.ucs.iter().position(|(uid, _)| uid == id)
    }

    /// Drops placement entries for cores of `removed` that no remaining
    /// use-case references; returns how many were freed.
    fn prune_placement(&mut self, removed: &UseCase) -> usize {
        let live: BTreeSet<CoreId> = self.ucs.iter().flat_map(|(_, uc)| uc.cores()).collect();
        let mut freed = 0;
        for core in removed.cores() {
            if !live.contains(&core) && self.placement.remove(&core).is_some() {
                freed += 1;
            }
        }
        freed
    }
}

/// Builds a [`UseCase`] named `id` from protocol flow specs.
fn build_use_case(id: &str, flows: &[FlowSpec]) -> Result<UseCase, String> {
    let mut b = UseCaseBuilder::new(id);
    for f in flows {
        let latency = match f.lat_us {
            Some(us) => Latency::from_us(us),
            None => Latency::UNCONSTRAINED,
        };
        b = b
            .flow(
                CoreId::new(f.src),
                CoreId::new(f.dst),
                Bandwidth::from_mbps(f.mbps),
                latency,
            )
            .map_err(|e| e.to_string())?;
    }
    Ok(b.build())
}
