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
//! Admission goes through [`nocmap::admit_group`]: greedy placement on
//! free NIs, one group route (every other group keeps its config), and
//! displacement under the eviction budget on conflict. The admission's
//! delta is spliced into the running solution in place. The engine
//! keeps its state — the admitted use-cases, their merged flows, one
//! [`RouteCache`] row per use-case and the running solution — alive
//! across requests and edits it one use-case at a time, so an admission
//! costs the groups it touches. A cache row keeps every signature routed
//! since its use-case was admitted, so repeated displacement probes
//! across the stream hit the cache.
//!
//! # Faults and self-healing
//!
//! `fault link|ni <idx>…` requests are queued like mutations; at the
//! reconfiguration point that applies one, the engine adds the named
//! resources to [`MapperOptions::faults`], empties its route cache
//! (those configs were routed on the pre-fault fabric and must not be
//! spliced again), and runs [`nocmap::heal()`] over the running
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
use noc_topology::{FaultSet, MeshBuilder, NodeId};
use noc_usecase::spec::{CoreId, SocSpec, UseCase, UseCaseBuilder, UseCaseId};
use noc_usecase::UseCaseGroups;
use nocmap::merge::MergedFlow;
use nocmap::remap::RemapConfig;
use nocmap::strategy::displacement_eviction_budget;
use nocmap::{
    admit_group, merged_flows, CachedGroup, GroupConfig, HealOutcome, MapperOptions,
    MappingSolution, RouteCache,
};

use crate::protocol::{parse_command, Command, FaultTarget, FlowSpec, ProtocolError, TERMINATOR};

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
///
/// Use-case `i` of `soc` is group `i` of the mapping (singleton groups),
/// and `merged`, the cache rows and the solution's configs are indexed
/// the same way: every edit inserts or removes at one index in all four.
#[derive(Debug)]
pub struct Engine {
    cfg: EngineConfig,
    options: MapperOptions,
    /// Admitted use-cases in admission order (a modify re-admits at the
    /// back), each named by its request id.
    soc: SocSpec,
    /// The merged flows of each use-case's group.
    merged: Vec<BTreeMap<(CoreId, CoreId), MergedFlow>>,
    /// Per use-case: every `signature → config` a successful admission
    /// routed while the use-case's flows were live (dropped on modify,
    /// remove and on a fault that fails a new resource).
    cache: RouteCache,
    /// The running mapping: the placement of every referenced core and
    /// one preset-pure config per use-case.
    solution: MappingSolution,
    /// Ids of parked (degraded) use-cases: admitted but unserviced
    /// until an explicit `heal` re-admits them.
    parked: BTreeSet<String>,
    pending: VecDeque<(u64, Command)>,
    seq: u64,
    stats: ServiceStats,
    shutdown: bool,
}

/// A use-case taken out of the engine's per-use-case state, with what
/// putting it back needs.
struct Taken {
    uc: UseCase,
    flows: BTreeMap<(CoreId, CoreId), MergedFlow>,
    row: CachedGroup,
    config: GroupConfig,
    /// Its cores no remaining use-case references, with the NIs they
    /// were unseated from.
    unseated: Vec<(CoreId, NodeId)>,
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
        let label = format!("{}sw", topo.switch_count());
        Ok(Engine {
            cfg,
            options: MapperOptions::default(),
            soc: SocSpec::new("nocd"),
            merged: Vec::new(),
            cache: RouteCache::new(&[]),
            solution: MappingSolution::new(topo, label, spec, BTreeMap::new(), Vec::new()),
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
        self.solution.comm_cost_bytes_hops()
    }

    /// Admitted use-case count.
    pub fn use_case_count(&self) -> usize {
        self.soc.use_case_count()
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
            Err(e) => self.refuse(&e),
        }
    }

    /// Answers a request refused with `e` — by [`Self::submit_line`], or
    /// by the daemon for a line past the cap before it ends — as one
    /// errored request, with the framed `err <kind>: …` response.
    pub(crate) fn refuse(&mut self, e: &ProtocolError) -> String {
        self.stats.requests += 1;
        self.stats.errors += 1;
        format!("err {}: {e}\n{TERMINATOR}\n", e.kind())
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
                    self.soc.use_case_count(),
                    self.solution.core_mapping().len(),
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
                    self.soc.use_case_count(),
                    self.solution.core_mapping().len()
                );
                for e in &events {
                    out.push_str(e);
                    out.push('\n');
                }
                for uc in self.soc.use_cases() {
                    let id = uc.name();
                    // `.get()`, not indexing: a parked use-case's cores
                    // are legitimately unplaced.
                    let seats: Vec<String> = uc
                        .cores()
                        .iter()
                        .map(|c| match self.solution.core_mapping().get(c) {
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
                    self.soc.use_case_count(),
                    self.parked.len(),
                    f.failed_link_count(),
                    f.failed_ni_count()
                );
                for e in &events {
                    out.push_str(e);
                    out.push('\n');
                }
                for uc in self.soc.use_cases() {
                    let id = uc.name();
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
                let freed = self.take(at).unseated.len();
                self.parked.remove(&id);
                format!("#{seq} remove {id}: removed freed={freed}")
            }
            Command::Fault { target, indices } => self.apply_fault(seq, target, &indices),
            _ => unreachable!("only mutations are queued"),
        }
    }

    /// Applies one `fault` request: injects the named failures, then
    /// auto-heals the running mapping around them.
    fn apply_fault(&mut self, seq: u64, target: FaultTarget, indices: &[usize]) -> String {
        let topo = self.solution.topology();
        let available = match target {
            FaultTarget::Link => topo.link_count(),
            FaultTarget::Ni => topo.ni_count(),
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
                FaultTarget::Link => self.options.faults.fail_link(topo.links()[i].id()),
                FaultTarget::Ni => self.options.faults.fail_ni(topo.nis()[i]),
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
        // Every cached config was routed on the pre-fault fabric; none
        // may be spliced again.
        self.cache.clear();
        if self.soc.use_case_count() == 0 {
            return head;
        }
        let groups = UseCaseGroups::singletons(self.soc.use_case_count());
        match nocmap::heal(
            &self.soc,
            &groups,
            &self.solution,
            &self.options,
            &RemapConfig::default(),
        ) {
            HealOutcome::Healed {
                solution,
                rerouted,
                moved,
            } => {
                self.solution = solution;
                format!("{head} healed rerouted={rerouted} moved={}", moved.len())
            }
            HealOutcome::Degraded {
                solution,
                groups: dead,
                rerouted,
                moved,
            } => {
                self.solution = solution;
                let ids: Vec<String> = dead.iter().map(|&g| self.id_at(g).to_string()).collect();
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
                let ids: Vec<String> = self
                    .soc
                    .use_cases()
                    .iter()
                    .map(|uc| uc.name().to_string())
                    .collect();
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
        self.solution.group_configs_mut()[at] = GroupConfig::new();
        let live: BTreeSet<CoreId> = self
            .soc
            .use_cases()
            .iter()
            .filter(|uc| !self.parked.contains(uc.name()))
            .flat_map(UseCase::cores)
            .collect();
        let placement = self.solution.core_mapping_mut();
        for core in self.soc.use_cases()[at].cores() {
            if !live.contains(&core) {
                placement.remove(&core);
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
            let mut old = self.take(at);
            match self.admit_incremental(old.uc.clone()) {
                Ok((cost, placed, moved)) => {
                    // The revived use-case keeps the configs cached
                    // before it was parked over new ones.
                    let rows = self.cache.groups_mut();
                    let newer = rows.pop().expect("the admitted use-case has a row");
                    old.row.keep_over(newer);
                    rows.push(old.row);
                    self.parked.remove(&id);
                    self.stats.healed += 1;
                    revived += 1;
                    lines.push(format!(
                        "uc {id}: healed cost={cost} placed={placed} moved={moved}"
                    ));
                }
                Err(reason) => {
                    self.put_back(at, old);
                    lines.push(format!("uc {id}: degraded {reason}"));
                }
            }
        }
        (lines, revived)
    }

    /// NIs that are neither occupied nor failed.
    fn free_ni_count(&self) -> usize {
        let usable = self.solution.topology().ni_count() - self.options.faults.failed_ni_count();
        usable.saturating_sub(self.solution.core_mapping().len())
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
        // the removal is rolled back if the new version is rejected, so
        // a failed modify leaves the engine as it was, minus the old
        // version's now-stale cached configs.
        let old = replace_at.map(|at| (at, self.take(at)));

        match self.admit_incremental(uc) {
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
                if let Some((at, mut old)) = old {
                    old.row = CachedGroup::new(&old.flows);
                    self.put_back(at, old);
                }
                span.attr("admitted", 0u64);
                format!("#{seq} {op} {id}: rejected {reason}")
            }
        }
    }

    /// Admits `uc` as the last group through [`admit_group`]; a rejected
    /// use-case leaves no trace.
    fn admit_incremental(&mut self, uc: UseCase) -> Result<(u128, usize, u64), String> {
        self.push(uc);
        let group = self.soc.use_case_count() - 1;
        let groups = UseCaseGroups::singletons(group + 1);
        match admit_group(
            &self.soc,
            &groups,
            &self.solution,
            &self.options,
            group,
            self.cfg.budget,
            &self.merged,
            &mut self.cache,
        ) {
            Ok(adm) => {
                self.solution.splice(adm.delta);
                Ok((
                    self.solution.comm_cost_bytes_hops(),
                    adm.placed.len(),
                    adm.evictions,
                ))
            }
            Err(reason) => {
                self.pop();
                Err(reason.to_string())
            }
        }
    }

    fn index_of(&self, id: &str) -> Option<usize> {
        self.soc.use_cases().iter().position(|uc| uc.name() == id)
    }

    fn id_at(&self, at: usize) -> &str {
        self.soc.use_cases()[at].name()
    }

    /// Appends `uc` as a new group with no config and no cached routes.
    fn push(&mut self, uc: UseCase) {
        let flows = merged_flows([&uc]);
        self.cache.groups_mut().push(CachedGroup::new(&flows));
        self.merged.push(flows);
        self.soc.add_use_case(uc);
        self.solution.group_configs_mut().push(GroupConfig::new());
    }

    /// Undoes [`Self::push`].
    fn pop(&mut self) {
        let last = self.soc.use_case_count() - 1;
        self.soc.remove_use_case(UseCaseId::new(last as u32));
        self.merged.pop();
        self.cache.groups_mut().pop();
        self.solution.group_configs_mut().pop();
    }

    /// Takes use-case `at` out of every per-use-case structure and
    /// unseats its cores that no remaining use-case references.
    fn take(&mut self, at: usize) -> Taken {
        let uc = self.soc.remove_use_case(UseCaseId::new(at as u32));
        let placement = self.solution.core_mapping_mut();
        let unseated = uc
            .cores()
            .into_iter()
            .filter(|&c| !self.soc.has_core(c))
            .filter_map(|c| placement.remove(&c).map(|ni| (c, ni)))
            .collect();
        Taken {
            uc,
            flows: self.merged.remove(at),
            row: self.cache.groups_mut().remove(at),
            config: self.solution.group_configs_mut().remove(at),
            unseated,
        }
    }

    /// Puts a [`Taken`] use-case back at `at`, reseating its cores.
    fn put_back(&mut self, at: usize, taken: Taken) {
        self.soc
            .insert_use_case(UseCaseId::new(at as u32), taken.uc);
        self.merged.insert(at, taken.flows);
        self.cache.groups_mut().insert(at, taken.row);
        self.solution.group_configs_mut().insert(at, taken.config);
        self.solution.core_mapping_mut().extend(taken.unseated);
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

#[cfg(test)]
mod tests {
    use super::*;
    use nocmap::merged_group_flows;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// What the responses say is admitted: `(id, flows)` in engine
    /// order, plus the parked ids.
    #[derive(Default)]
    struct Model {
        admitted: Vec<(String, Vec<FlowSpec>)>,
        parked: BTreeSet<String>,
        /// Queued mutations by sequence number.
        queued: BTreeMap<u64, Command>,
        seq: u64,
        /// Ids whose cached configs the last line may drop (modified or
        /// removed), and whether it failed a new resource (drops all).
        dropped: BTreeSet<String>,
        fabric_changed: bool,
        /// Refused modifies, parkings and revivals seen.
        rollbacks: u64,
        parkings: u64,
        revivals: u64,
    }

    impl Model {
        fn position(&self, id: &str) -> Option<usize> {
            self.admitted.iter().position(|(uid, _)| uid == id)
        }

        fn move_to_back(&mut self, id: &str, flows: Option<Vec<FlowSpec>>) {
            let at = self.position(id).expect("moved ids are admitted");
            let (id, old) = self.admitted.remove(at);
            self.admitted.push((id, flows.unwrap_or(old)));
        }

        /// Reads one request and its response.
        fn observe(&mut self, line: &str, response: &str) {
            let cmd = parse_command(line).expect("generated lines parse");
            let heal = matches!(cmd, Some(Command::Heal));
            self.dropped.clear();
            self.fabric_changed = false;
            if let Some(
                cmd @ (Command::Add { .. }
                | Command::Modify { .. }
                | Command::Remove { .. }
                | Command::Fault { .. }),
            ) = cmd
            {
                self.seq += 1;
                self.queued.insert(self.seq, cmd);
            }
            for event in response.lines() {
                if let Some(rest) = event.strip_prefix('#') {
                    let (seq, outcome) = rest.split_once(' ').expect("events carry a sequence");
                    let seq: u64 = seq.parse().expect("numeric sequence");
                    let cmd = self
                        .queued
                        .remove(&seq)
                        .expect("one event per queued mutation");
                    self.apply(cmd, outcome);
                } else if let Some(rest) = event.strip_prefix("uc ").filter(|_| heal) {
                    let (id, outcome) = rest.split_once(": ").expect("heal lines name an id");
                    if outcome.starts_with("healed") {
                        self.move_to_back(id, None);
                        self.parked.remove(id);
                        self.revivals += 1;
                    }
                }
            }
        }

        fn apply(&mut self, cmd: Command, outcome: &str) {
            let (_, result) = outcome.split_once(": ").expect("events carry an outcome");
            match &cmd {
                Command::Modify { id, .. } | Command::Remove { id }
                    if !result.starts_with("error") =>
                {
                    self.dropped.insert(id.clone());
                }
                Command::Fault { .. } => {
                    self.fabric_changed |= !result.starts_with("injected=0 ");
                }
                _ => {}
            }
            match cmd {
                Command::Add { id, flows } if result.starts_with("admitted") => {
                    self.admitted.push((id, flows));
                }
                Command::Modify { id, flows } if result.starts_with("admitted") => {
                    self.move_to_back(&id, Some(flows));
                    self.parked.remove(&id);
                }
                Command::Modify { .. } if result.starts_with("rejected") => self.rollbacks += 1,
                Command::Remove { id } if result.starts_with("removed") => {
                    let at = self.position(&id).expect("removed ids are admitted");
                    self.admitted.remove(at);
                    self.parked.remove(&id);
                }
                Command::Fault { .. } => {
                    if result.contains(" infeasible: ") {
                        let all: Vec<String> =
                            self.admitted.iter().map(|(id, _)| id.clone()).collect();
                        self.parkings += all.len() as u64;
                        self.parked.extend(all);
                    } else if result.contains(" degraded=") {
                        let ids = result.rsplit_once('[').expect("degraded ids are listed").1;
                        for id in ids.trim_end_matches(']').split(' ') {
                            self.parkings += 1;
                            self.parked.insert(id.to_string());
                        }
                    }
                }
                _ => {}
            }
        }
    }

    impl Engine {
        /// Every use-case's cached signatures, by id.
        fn cached_signatures(&self) -> BTreeMap<String, BTreeSet<Vec<NodeId>>> {
            let ids = self.soc.use_cases().iter().map(|uc| uc.name().to_string());
            let rows = self.cache.groups().iter();
            ids.zip(rows.map(|row| row.iter().map(|(sig, _)| sig.to_vec()).collect()))
                .collect()
        }

        /// Requires the persistent per-use-case state to equal a rebuild
        /// from the admitted use-cases and the engine's placement, and
        /// the running solution to be valid. Returns whether a serviced
        /// use-case was verified.
        fn assert_rebuilds(&self, model: &Model, context: &str) -> bool {
            let mut soc = SocSpec::new("nocd");
            for (id, flows) in &model.admitted {
                soc.add_use_case(build_use_case(id, flows).expect("admitted flows are valid"));
            }
            assert_eq!(self.soc, soc, "{context}: use-cases");
            assert_eq!(self.parked, model.parked, "{context}: parked ids");
            let n = soc.use_case_count();
            let merged = merged_group_flows(&soc, &UseCaseGroups::singletons(n));
            assert_eq!(self.merged, merged, "{context}: merged flows");

            assert_eq!(self.soc.cores(), soc.cores(), "{context}: referenced cores");

            // Cache rows: one per use-case, aligned to it — each row's
            // signature covers exactly its use-case's cores, and every
            // cached config configures exactly its pairs.
            let rows = self.cache.groups();
            assert_eq!(rows.len(), n, "{context}: cache rows");
            for (g, (row, flows)) in rows.iter().zip(&merged).enumerate() {
                let id = soc.use_cases()[g].name();
                assert_eq!(
                    row.cores(),
                    CachedGroup::new(flows).cores(),
                    "{context}: row of {id}"
                );
                for (sig, config) in row.iter() {
                    assert_eq!(sig.len(), row.cores().len(), "{context}: signature of {id}");
                    assert!(
                        config.iter().map(|(p, _)| p).eq(flows.keys()),
                        "{context}: cached config of {id}"
                    );
                }
            }

            // The solution: one config per use-case, complete when
            // serviced and empty when parked; every core of a serviced
            // use-case seated, on a distinct surviving NI; nothing else
            // seated.
            let sol = &self.solution;
            assert_eq!(sol.group_configs().len(), n, "{context}: configs");
            let placement = sol.core_mapping();
            for (g, (config, flows)) in sol.group_configs().iter().zip(&merged).enumerate() {
                let id = soc.use_cases()[g].name();
                if self.parked.contains(id) {
                    assert!(config.is_empty(), "{context}: parked {id} has routes");
                } else {
                    let complete = config.iter().map(|(p, _)| p).eq(flows.keys());
                    assert!(complete, "{context}: serviced {id} lacks routes");
                    for core in soc.use_cases()[g].cores() {
                        assert!(
                            placement.contains_key(&core),
                            "{context}: {id} core {core} unseated"
                        );
                    }
                }
            }
            assert!(
                placement.keys().all(|&c| soc.has_core(c)),
                "{context}: stray core"
            );
            let nis: BTreeSet<NodeId> = placement.values().copied().collect();
            assert_eq!(nis.len(), placement.len(), "{context}: NI shared");
            assert!(
                nis.iter().all(|&ni| !self.options.faults.ni_failed(ni)),
                "{context}: failed NI"
            );

            // No route crosses a failed link or a link of a failed NI.
            let banned = self.options.faults.banned_links(sol.topology());
            for (g, config) in sol.group_configs().iter().enumerate() {
                let id = soc.use_cases()[g].name();
                assert!(
                    config
                        .iter()
                        .all(|(_, r)| !r.path.iter().any(|l| banned.contains(l))),
                    "{context}: {id} routes over a failed resource"
                );
            }

            // The serviced use-cases with their configs are a valid
            // mapping (`verify` reads only their own cores' seats).
            let serviced: Vec<usize> = (0..n)
                .filter(|&g| !self.parked.contains(soc.use_cases()[g].name()))
                .collect();
            if serviced.is_empty() {
                return false;
            }
            let mut live = SocSpec::new("serviced");
            for &g in &serviced {
                live.add_use_case(soc.use_cases()[g].clone());
            }
            let restricted = MappingSolution::new(
                sol.topology().clone(),
                sol.label(),
                sol.spec(),
                placement.clone(),
                serviced
                    .iter()
                    .map(|&g| sol.group_configs()[g].clone())
                    .collect(),
            );
            let groups = UseCaseGroups::singletons(serviced.len());
            if let Err(e) = restricted.verify(&live, &groups) {
                panic!("{context}: the serviced use-cases' mapping is invalid: {e}");
            }
            true
        }
    }

    fn random_flows(rng: &mut SmallRng) -> String {
        let mut pairs = BTreeSet::new();
        let mut clauses = Vec::new();
        while clauses.len() < rng.gen_range(1..=3usize) {
            let (src, dst) = (rng.gen_range(0..10u32), rng.gen_range(0..10u32));
            if src == dst || !pairs.insert((src, dst)) {
                continue;
            }
            let mbps = match rng.gen_range(0..20) {
                0 => 5000,
                1..=4 => rng.gen_range(1100..=1900u64),
                _ => rng.gen_range(50..=600u64),
            };
            let lat = if rng.gen_bool(0.1) { " 1" } else { "" };
            clauses.push(format!("flow {src} {dst} {mbps}{lat}"));
        }
        clauses.join(" ; ")
    }

    fn random_line(rng: &mut SmallRng, links: usize, nis: usize) -> String {
        let id = format!("u{}", rng.gen_range(0..8));
        match rng.gen_range(0..100) {
            0..=39 => format!("add {id} {}", random_flows(rng)),
            40..=59 => format!("modify {id} {}", random_flows(rng)),
            60..=74 => format!("remove {id}"),
            75..=76 => format!("fault link {}", rng.gen_range(0..links)),
            77 => format!("fault ni {}", rng.gen_range(0..nis)),
            78..=86 => "heal".to_string(),
            87..=90 => "flush".to_string(),
            91..=94 => "stats".to_string(),
            95..=97 => "snapshot".to_string(),
            _ => "health".to_string(),
        }
    }

    /// Random add, modify, remove, fault and heal streams on small
    /// meshes: after every line the per-use-case state the engine edits
    /// in place must equal a rebuild from what its responses admitted.
    #[test]
    fn persistent_state_matches_a_rebuild_after_every_line() {
        let (mut totals, mut verified) = (Model::default(), 0);
        for seed in 0..16 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let cfg = EngineConfig {
                rows: rng.gen_range(1..=3u16),
                cols: rng.gen_range(2..=3u16),
                nis_per_switch: rng.gen_range(1..=2u16),
                batch: rng.gen_range(1..=4usize),
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(cfg).expect("valid mesh");
            let topo = engine.solution.topology();
            let (links, nis) = (topo.link_count(), topo.ni_count());
            let mut model = Model::default();
            let mut cached = BTreeMap::new();
            for step in 0..160 {
                let line = random_line(&mut rng, links, nis);
                let response = engine.submit_line(&line);
                model.observe(&line, &response);
                let context = format!("seed {seed} line {step} `{line}`");
                verified += engine.assert_rebuilds(&model, &context) as u64;
                // Cached configs are only ever added, except for a
                // modified or removed id and on a fabric change.
                let now = engine.cached_signatures();
                if !model.fabric_changed {
                    for (id, before) in &cached {
                        if let Some(after) = now.get(id).filter(|_| !model.dropped.contains(id)) {
                            assert!(
                                after.is_superset(before),
                                "{context}: {id} lost cached configs"
                            );
                        }
                    }
                }
                cached = now;
            }
            totals.rollbacks += model.rollbacks;
            totals.parkings += model.parkings;
            totals.revivals += model.revivals;
        }
        assert!(totals.rollbacks > 0, "no refused modify was rolled back");
        assert!(totals.parkings > 0, "no use-case was parked");
        assert!(totals.revivals > 0, "no parked use-case was revived");
        assert!(verified > 0, "no serviced solution was verified");
    }

    /// A bandwidth or latency the unit constructors would overflow is
    /// refused at the edge: a parse error, nothing queued, one error
    /// counted.
    #[test]
    fn out_of_range_flows_are_refused_as_parse_errors() {
        let mut engine = Engine::new(EngineConfig::default()).expect("valid mesh");
        for (i, line) in [
            "add u0 flow 0 1 18446744073710",
            "add u0 flow 0 1 100 18446744073709552",
        ]
        .into_iter()
        .enumerate()
        {
            let response = engine.submit_line(line);
            assert!(response.starts_with("err parse: "), "{line}: {response}");
            assert!(engine.pending.is_empty(), "{line} was queued");
            assert_eq!(engine.stats().errors, i as u64 + 1, "{line}");
        }
        assert_eq!(engine.stats().adds, 0);
        assert_eq!(engine.submit_line("flush"), "ok applied n=0\n.\n");
    }
}
