//! Core, flow and use-case specifications (Definition 2 of the paper).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::OnceLock;

use noc_topology::units::{Bandwidth, Latency};

use crate::error::SpecError;

/// Identifier of a SoC core (processor, memory, accelerator, peripheral).
///
/// Core ids are global to the SoC: the same core appears in several
/// use-cases under the same id, which is what lets the mapper share one
/// core→NI mapping across all use-cases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(u32);

impl CoreId {
    /// Creates a core id.
    pub const fn new(raw: u32) -> Self {
        CoreId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The dense index of this core.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Identifier of a use-case within a [`SocSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UseCaseId(u32);

impl UseCaseId {
    /// Creates a use-case id from a dense index.
    pub const fn new(raw: u32) -> Self {
        UseCaseId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The dense index of this use-case.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UseCaseId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "U{}", self.0)
    }
}

/// Identifier of a flow within one use-case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(u32);

impl FlowId {
    /// Creates a flow id from a dense index.
    pub const fn new(raw: u32) -> Self {
        FlowId(raw)
    }

    /// The raw id.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The dense index of this flow.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A directed traffic flow between two cores with its design constraints:
/// a maximum traffic rate (`bandwidth`, written `bw_{i,j}` in the paper)
/// and a worst-case packet-delay bound (`latency`, `lat_{i,j}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flow {
    src: CoreId,
    dst: CoreId,
    bandwidth: Bandwidth,
    latency: Latency,
}

impl Flow {
    /// Creates a flow.
    ///
    /// # Errors
    ///
    /// [`SpecError::SelfFlow`] when `src == dst`;
    /// [`SpecError::ZeroBandwidth`] for an empty flow.
    pub fn new(
        src: CoreId,
        dst: CoreId,
        bandwidth: Bandwidth,
        latency: Latency,
    ) -> Result<Self, SpecError> {
        if src == dst {
            return Err(SpecError::SelfFlow { core: src });
        }
        if bandwidth.is_zero() {
            return Err(SpecError::ZeroBandwidth { src, dst });
        }
        Ok(Flow {
            src,
            dst,
            bandwidth,
            latency,
        })
    }

    /// Producer core.
    pub const fn src(&self) -> CoreId {
        self.src
    }

    /// Consumer core.
    pub const fn dst(&self) -> CoreId {
        self.dst
    }

    /// Maximum traffic rate of the flow.
    pub const fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Worst-case latency bound of the flow.
    pub const fn latency(&self) -> Latency {
        self.latency
    }

    /// The `(src, dst)` pair.
    pub const fn endpoints(&self) -> (CoreId, CoreId) {
        (self.src, self.dst)
    }
}

impl fmt::Display for Flow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} @ {}", self.src, self.dst, self.bandwidth)
    }
}

/// One use-case: a named set of flows (the set `F_i` of Definition 2).
///
/// At most one flow exists per directed `(src, dst)` pair — the paper's
/// compound-mode arithmetic and step 5 of Algorithm 2 ("choose the flow
/// that has the same source and destination vertices") both rely on that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseCase {
    name: String,
    flows: Vec<Flow>,
    by_pair: BTreeMap<(CoreId, CoreId), FlowId>,
}

impl UseCase {
    pub(crate) fn from_parts(name: String, flows: Vec<Flow>) -> Self {
        let by_pair = flows
            .iter()
            .enumerate()
            .map(|(i, f)| (f.endpoints(), FlowId::new(i as u32)))
            .collect();
        UseCase {
            name,
            flows,
            by_pair,
        }
    }

    /// The use-case's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All flows, in insertion order (`FlowId` order).
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Number of flows.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Flow lookup by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn flow(&self, id: FlowId) -> &Flow {
        &self.flows[id.index()]
    }

    /// The flow between `src` and `dst`, if the use-case has one.
    pub fn flow_between(&self, src: CoreId, dst: CoreId) -> Option<&Flow> {
        self.flow_id_between(src, dst).map(|id| self.flow(id))
    }

    /// The id of the flow between `src` and `dst`, if any.
    pub fn flow_id_between(&self, src: CoreId, dst: CoreId) -> Option<FlowId> {
        self.by_pair.get(&(src, dst)).copied()
    }

    /// Every core referenced by this use-case.
    pub fn cores(&self) -> BTreeSet<CoreId> {
        self.flows.iter().flat_map(|f| [f.src(), f.dst()]).collect()
    }

    /// Sum of all flow bandwidths.
    pub fn total_bandwidth(&self) -> Bandwidth {
        self.flows.iter().map(|f| f.bandwidth()).sum()
    }

    /// The largest single flow bandwidth, or zero for an empty use-case.
    pub fn max_flow_bandwidth(&self) -> Bandwidth {
        self.flows
            .iter()
            .map(|f| f.bandwidth())
            .max()
            .unwrap_or(Bandwidth::ZERO)
    }
}

/// Builder for [`UseCase`]; rejects duplicate `(src, dst)` pairs.
#[derive(Debug, Clone)]
pub struct UseCaseBuilder {
    name: String,
    flows: Vec<Flow>,
    pairs: BTreeSet<(CoreId, CoreId)>,
}

impl UseCaseBuilder {
    /// Starts a use-case named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        UseCaseBuilder {
            name: name.into(),
            flows: Vec::new(),
            pairs: BTreeSet::new(),
        }
    }

    /// Adds a flow.
    ///
    /// # Errors
    ///
    /// All [`Flow::new`] errors, plus [`SpecError::DuplicateFlow`] when the
    /// `(src, dst)` pair already has a flow in this use-case.
    pub fn flow(
        mut self,
        src: CoreId,
        dst: CoreId,
        bandwidth: Bandwidth,
        latency: Latency,
    ) -> Result<Self, SpecError> {
        self.add_flow(Flow::new(src, dst, bandwidth, latency)?)?;
        Ok(self)
    }

    /// Adds a pre-constructed flow (non-consuming form for loops).
    ///
    /// # Errors
    ///
    /// [`SpecError::DuplicateFlow`] when the pair already has a flow.
    pub fn add_flow(&mut self, flow: Flow) -> Result<&mut Self, SpecError> {
        if !self.pairs.insert(flow.endpoints()) {
            return Err(SpecError::DuplicateFlow {
                src: flow.src(),
                dst: flow.dst(),
            });
        }
        self.flows.push(flow);
        Ok(self)
    }

    /// Finishes the use-case.
    pub fn build(self) -> UseCase {
        UseCase::from_parts(self.name, self.flows)
    }
}

/// A complete multi-use-case SoC specification: the input `U1 … Un` of the
/// design methodology (Figure 3).
///
/// ```
/// use noc_usecase::spec::{CoreId, SocSpec, UseCaseBuilder};
/// use noc_topology::units::{Bandwidth, Latency};
///
/// # fn main() -> Result<(), noc_usecase::SpecError> {
/// let mut soc = SocSpec::new("example");
/// let uc = UseCaseBuilder::new("uc0")
///     .flow(CoreId::new(0), CoreId::new(1), Bandwidth::from_mbps(100), Latency::UNCONSTRAINED)?
///     .build();
/// let id = soc.add_use_case(uc);
/// assert_eq!(soc.use_case(id).name(), "uc0");
/// assert_eq!(soc.core_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SocSpec {
    name: String,
    use_cases: Vec<UseCase>,
    /// Flow endpoints per referenced core, over all use-cases. Counted
    /// on first use, so parsing a spec pays nothing for it, and then
    /// kept up to date by every insert and remove.
    core_refs: OnceLock<BTreeMap<CoreId, usize>>,
}

/// Equal name and use-cases (the core counts follow from them).
impl PartialEq for SocSpec {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.use_cases == other.use_cases
    }
}

impl Eq for SocSpec {}

fn endpoints(uc: &UseCase) -> impl Iterator<Item = CoreId> + '_ {
    uc.flows().iter().flat_map(|f| [f.src(), f.dst()])
}

impl SocSpec {
    /// Creates an empty spec named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        SocSpec {
            name: name.into(),
            use_cases: Vec::new(),
            core_refs: OnceLock::new(),
        }
    }

    /// The SoC's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a use-case and returns its id.
    pub fn add_use_case(&mut self, uc: UseCase) -> UseCaseId {
        let id = UseCaseId::new(self.use_cases.len() as u32);
        self.insert_use_case(id, uc);
        id
    }

    /// Inserts a use-case as `id`, shifting the use-cases from `id` on
    /// one id up.
    ///
    /// # Panics
    ///
    /// Panics if `id` is beyond [`Self::use_case_count`].
    pub fn insert_use_case(&mut self, id: UseCaseId, uc: UseCase) {
        if let Some(refs) = self.core_refs.get_mut() {
            for core in endpoints(&uc) {
                *refs.entry(core).or_default() += 1;
            }
        }
        self.use_cases.insert(id.index(), uc);
    }

    /// Removes use-case `id` and returns it, shifting the later
    /// use-cases one id down.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn remove_use_case(&mut self, id: UseCaseId) -> UseCase {
        let uc = self.use_cases.remove(id.index());
        if let Some(refs) = self.core_refs.get_mut() {
            for core in endpoints(&uc) {
                let count = refs.get_mut(&core).expect("flow endpoints are counted");
                *count -= 1;
                if *count == 0 {
                    refs.remove(&core);
                }
            }
        }
        uc
    }

    /// All use-cases in id order.
    pub fn use_cases(&self) -> &[UseCase] {
        &self.use_cases
    }

    /// Number of use-cases.
    pub fn use_case_count(&self) -> usize {
        self.use_cases.len()
    }

    /// Use-case lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn use_case(&self, id: UseCaseId) -> &UseCase {
        &self.use_cases[id.index()]
    }

    /// Ids of all use-cases.
    pub fn use_case_ids(&self) -> impl Iterator<Item = UseCaseId> + '_ {
        (0..self.use_cases.len()).map(|i| UseCaseId::new(i as u32))
    }

    /// The union of cores over all use-cases, sorted by id.
    pub fn cores(&self) -> Vec<CoreId> {
        self.core_refs().keys().copied().collect()
    }

    /// Number of distinct cores.
    pub fn core_count(&self) -> usize {
        self.core_refs().len()
    }

    /// Whether any use-case references `core`.
    pub fn has_core(&self, core: CoreId) -> bool {
        self.core_refs().contains_key(&core)
    }

    fn core_refs(&self) -> &BTreeMap<CoreId, usize> {
        self.core_refs.get_or_init(|| {
            let mut refs = BTreeMap::new();
            for core in self.use_cases.iter().flat_map(endpoints) {
                *refs.entry(core).or_default() += 1;
            }
            refs
        })
    }

    /// Total number of flows across all use-cases.
    pub fn total_flow_count(&self) -> usize {
        self.use_cases.iter().map(|u| u.flow_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bw(m: u64) -> Bandwidth {
        Bandwidth::from_mbps(m)
    }

    #[test]
    fn flow_validation() {
        let c0 = CoreId::new(0);
        let c1 = CoreId::new(1);
        assert!(Flow::new(c0, c1, bw(10), Latency::UNCONSTRAINED).is_ok());
        assert!(matches!(
            Flow::new(c0, c0, bw(10), Latency::UNCONSTRAINED),
            Err(SpecError::SelfFlow { .. })
        ));
        assert!(matches!(
            Flow::new(c0, c1, Bandwidth::ZERO, Latency::UNCONSTRAINED),
            Err(SpecError::ZeroBandwidth { .. })
        ));
    }

    #[test]
    fn builder_rejects_duplicate_pairs() {
        let c0 = CoreId::new(0);
        let c1 = CoreId::new(1);
        let res = UseCaseBuilder::new("u")
            .flow(c0, c1, bw(10), Latency::UNCONSTRAINED)
            .unwrap()
            .flow(c0, c1, bw(20), Latency::UNCONSTRAINED);
        assert!(matches!(res, Err(SpecError::DuplicateFlow { .. })));
        // Opposite direction is a different flow.
        let ok = UseCaseBuilder::new("u")
            .flow(c0, c1, bw(10), Latency::UNCONSTRAINED)
            .unwrap()
            .flow(c1, c0, bw(20), Latency::UNCONSTRAINED);
        assert!(ok.is_ok());
    }

    #[test]
    fn use_case_lookups() {
        let c = |i| CoreId::new(i);
        let uc = UseCaseBuilder::new("figure2a")
            .flow(c(0), c(1), bw(100), Latency::UNCONSTRAINED)
            .unwrap()
            .flow(c(1), c(2), bw(50), Latency::from_us(3))
            .unwrap()
            .flow(c(2), c(0), bw(200), Latency::UNCONSTRAINED)
            .unwrap()
            .build();
        assert_eq!(uc.flow_count(), 3);
        assert_eq!(
            uc.flow_between(c(1), c(2)).unwrap().latency(),
            Latency::from_us(3)
        );
        assert!(uc.flow_between(c(2), c(1)).is_none());
        assert_eq!(uc.cores().len(), 3);
        assert_eq!(uc.total_bandwidth(), bw(350));
        assert_eq!(uc.max_flow_bandwidth(), bw(200));
        assert_eq!(uc.flow(FlowId::new(2)).bandwidth(), bw(200));
    }

    #[test]
    fn empty_use_case_stats() {
        let uc = UseCaseBuilder::new("empty").build();
        assert_eq!(uc.flow_count(), 0);
        assert_eq!(uc.total_bandwidth(), Bandwidth::ZERO);
        assert_eq!(uc.max_flow_bandwidth(), Bandwidth::ZERO);
        assert!(uc.cores().is_empty());
    }

    #[test]
    fn soc_spec_aggregates() {
        let c = |i| CoreId::new(i);
        let mut soc = SocSpec::new("s");
        let u0 = UseCaseBuilder::new("u0")
            .flow(c(0), c(1), bw(10), Latency::UNCONSTRAINED)
            .unwrap()
            .build();
        let u1 = UseCaseBuilder::new("u1")
            .flow(c(1), c(2), bw(10), Latency::UNCONSTRAINED)
            .unwrap()
            .flow(c(2), c(3), bw(10), Latency::UNCONSTRAINED)
            .unwrap()
            .build();
        let id0 = soc.add_use_case(u0);
        let id1 = soc.add_use_case(u1);
        assert_eq!(id0.index(), 0);
        assert_eq!(id1.index(), 1);
        assert_eq!(soc.use_case_count(), 2);
        assert_eq!(soc.core_count(), 4);
        assert_eq!(soc.total_flow_count(), 3);
        assert_eq!(soc.cores(), vec![c(0), c(1), c(2), c(3)]);
        let ids: Vec<UseCaseId> = soc.use_case_ids().collect();
        assert_eq!(ids, vec![id0, id1]);
    }

    #[test]
    fn display_impls() {
        assert_eq!(format!("{}", CoreId::new(3)), "core3");
        assert_eq!(format!("{}", UseCaseId::new(2)), "U2");
        assert_eq!(format!("{}", FlowId::new(1)), "f1");
        let f = Flow::new(
            CoreId::new(0),
            CoreId::new(1),
            bw(100),
            Latency::UNCONSTRAINED,
        )
        .unwrap();
        assert_eq!(format!("{f}"), "core0 -> core1 @ 100 MB/s");
    }
}
