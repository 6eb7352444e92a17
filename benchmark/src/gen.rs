//! Seeded input generators. Every input the program sees is produced
//! here as text: spec files for the design flow and request lines for
//! `nocd`. Each generator is a pure function of its arguments.
//!
//! The spec generator is a frozen copy of the shapes `noc-benchgen`
//! draws (its Sp, Bot and D1–D4 cluster tables), not a call into it:
//! the benchmark's inputs must not change when that crate does, or a
//! later change would move every metric at once. The copy's `D1`–`D4`
//! are its own fixed SoCs of the same kind, not the repository's
//! `SocDesign::D1`–`D4`.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, salt)`.
    pub fn derive(seed: u64, salt: u64) -> Rng {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }
}

// ---------------------------------------------------------------------
// Spec texts for the design flow.
// ---------------------------------------------------------------------

/// One traffic cluster: nominal MB/s, relative deviation (per mille),
/// optional latency bound, and sampling weight.
#[derive(Debug, Clone, Copy)]
struct Class {
    mbps: u64,
    dev_permille: u64,
    lat_us: Option<u64>,
    weight: u64,
}

const fn class(mbps: u64, dev_permille: u64, lat_us: Option<u64>, weight: u64) -> Class {
    Class {
        mbps,
        dev_permille,
        lat_us,
        weight,
    }
}

/// The paper's video-SoC clusters (HD, SD, audio, latency-critical
/// control).
const VIDEO: [Class; 4] = [
    class(200, 250, None, 4),
    class(12, 400, None, 40),
    class(3, 500, None, 25),
    class(2, 500, Some(10), 30),
];
/// TV-processor streaming: more and heavier SD streams.
const TV: [Class; 4] = [
    class(200, 250, None, 8),
    class(30, 400, None, 40),
    class(3, 500, None, 20),
    class(2, 500, Some(10), 20),
];
/// Shared-memory traffic at a hub: many small transactions.
const HUB: [Class; 3] = [
    class(64, 300, None, 20),
    class(24, 400, None, 40),
    class(3, 500, Some(10), 30),
];

/// Slots of the paper's TDMA table (128 slots of a 2000 MB/s link).
const SLOTS: u64 = 128;
const LINK_MBPS: u64 = 2000;
/// Per core and direction, a use-case may reserve at most this many
/// slots, so every generated spec fits the NI links and maps on some
/// mesh.
const NI_SLOT_CAP: u64 = 96;

/// The kinds of SoC the design and refine workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocKind {
    /// D1–D4 shapes: set-top boxes (hub) at 4 and 20 use-cases, TV
    /// processors (spread) at 8 and 20.
    D(u8),
    /// Spread traffic (Sp) with the given use-case count.
    Sp(usize),
    /// Bottleneck traffic (Bot) with the given use-case count.
    Bot(usize),
    /// Spread traffic on a 10-core SoC with 15–30 flows per use-case.
    SpMini(usize),
    /// Bottleneck traffic on a 10-core SoC with 15–30 flows per use-case.
    BotMini(usize),
}

struct Shape {
    cores: u64,
    use_cases: usize,
    flows: (u64, u64),
    hubs: u64,
    hub_permille: u64,
    pool: Option<usize>,
    side: &'static [Class],
}

impl SocKind {
    pub fn label(self) -> String {
        match self {
            SocKind::D(n) => format!("d{n}"),
            SocKind::Sp(n) => format!("sp{n}"),
            SocKind::Bot(n) => format!("bot{n}"),
            SocKind::SpMini(n) => format!("spmini{n}"),
            SocKind::BotMini(n) => format!("botmini{n}"),
        }
    }

    fn shape(self) -> Shape {
        match self {
            SocKind::D(n) => {
                let hub = n <= 2;
                Shape {
                    cores: if hub { 26 } else { 25 },
                    use_cases: match n {
                        1 => 4,
                        3 => 8,
                        _ => 20,
                    },
                    flows: (50, 150),
                    hubs: u64::from(hub),
                    hub_permille: if hub { 650 } else { 0 },
                    pool: Some(if hub { 220 } else { 300 }),
                    side: &TV,
                }
            }
            SocKind::Sp(n) => Shape {
                cores: 20,
                use_cases: n,
                flows: (60, 100),
                hubs: 0,
                hub_permille: 0,
                pool: None,
                side: &VIDEO,
            },
            SocKind::Bot(n) => Shape {
                cores: 20,
                use_cases: n,
                flows: (60, 100),
                hubs: 2,
                hub_permille: 700,
                pool: None,
                side: &VIDEO,
            },
            SocKind::SpMini(n) => Shape {
                cores: 12,
                flows: (10, 20),
                ..SocKind::Sp(n).shape()
            },
            SocKind::BotMini(n) => Shape {
                cores: 12,
                flows: (10, 20),
                hubs: 1,
                ..SocKind::Bot(n).shape()
            },
        }
    }
}

fn sample_class(rng: &mut Rng, classes: &[Class]) -> Class {
    let total: u64 = classes.iter().map(|c| c.weight).sum();
    let mut pick = rng.below(total);
    for c in classes {
        if pick < c.weight {
            return *c;
        }
        pick -= c.weight;
    }
    unreachable!("pick < total weight")
}

fn sample_mbps(rng: &mut Rng, c: Class) -> u64 {
    let off = rng.range(0, 2 * c.dev_permille);
    (c.mbps * (1000 + off - c.dev_permille) / 1000).max(1)
}

/// A random ordered pair of distinct cores; with a hub share, one end
/// is one of the first `hubs` cores.
fn sample_pair(rng: &mut Rng, s: &Shape) -> (u64, u64) {
    loop {
        let (a, b) = if s.hubs > 0 && rng.chance(s.hub_permille, 1000) {
            let hub = rng.below(s.hubs);
            let other = s.hubs + rng.below(s.cores - s.hubs);
            if rng.chance(1, 2) {
                (hub, other)
            } else {
                (other, hub)
            }
        } else {
            let lo = s.hubs;
            (lo + rng.below(s.cores - lo), lo + rng.below(s.cores - lo))
        };
        if a != b {
            return (a, b);
        }
    }
}

fn slots_for(mbps: u64) -> u64 {
    (mbps * SLOTS).div_ceil(LINK_MBPS)
}

/// The spec text of one SoC of `kind`, generated from `seed`.
pub fn spec_text(kind: SocKind, seed: u64) -> String {
    let s = kind.shape();
    let mut rng = Rng::derive(seed, 0x5EC);
    let max_pairs = (s.cores * (s.cores - 1)) as usize;
    let pool: Option<Vec<(u64, u64)>> = s.pool.map(|n| {
        let mut pool = Vec::with_capacity(n);
        while pool.len() < n.min(max_pairs) {
            let p = sample_pair(&mut rng, &s);
            if !pool.contains(&p) {
                pool.push(p);
            }
        }
        pool
    });
    let mut out = String::new();
    let _ = writeln!(out, "soc {}-s{seed}", kind.label());
    for u in 0..s.use_cases {
        let _ = writeln!(out, "usecase uc{u}");
        let want = rng.range(s.flows.0, s.flows.1) as usize;
        let mut pairs: Vec<(u64, u64)> = Vec::with_capacity(want);
        match &pool {
            Some(pool) => {
                // Partial Fisher-Yates over the pool.
                let mut idx: Vec<usize> = (0..pool.len()).collect();
                for i in 0..want.min(idx.len()) {
                    let j = i + rng.below((idx.len() - i) as u64) as usize;
                    idx.swap(i, j);
                    pairs.push(pool[idx[i]]);
                }
            }
            None => {
                while pairs.len() < want.min(max_pairs) {
                    let p = sample_pair(&mut rng, &s);
                    if !pairs.contains(&p) {
                        pairs.push(p);
                    }
                }
            }
        }
        let mut out_slots = vec![0u64; s.cores as usize];
        let mut in_slots = vec![0u64; s.cores as usize];
        for (a, b) in pairs {
            let hub_flow = a < s.hubs || b < s.hubs;
            let c = sample_class(&mut rng, if hub_flow { &HUB } else { s.side });
            let mbps = sample_mbps(&mut rng, c);
            let need = slots_for(mbps);
            if out_slots[a as usize] + need > NI_SLOT_CAP
                || in_slots[b as usize] + need > NI_SLOT_CAP
            {
                continue;
            }
            out_slots[a as usize] += need;
            in_slots[b as usize] += need;
            match c.lat_us {
                Some(lat) => {
                    let _ = writeln!(out, "flow {a} {b} {mbps} {lat}");
                }
                None => {
                    let _ = writeln!(out, "flow {a} {b} {mbps}");
                }
            }
        }
    }
    out
}

/// Seed of the fixed inputs: the D1–D4 shapes (fixed SoCs, as the
/// paper's four designs are) and fixed `nocd` warm-ups.
const DESIGN_SEED: u64 = 2006;

/// A kind of seeded SoC, given its use-case count.
type Family = fn(usize) -> SocKind;

/// A workload's job list: the `fixed` kinds once, generated from
/// [`DESIGN_SEED`], then passes over `seeded`, every SoC from its own
/// seed.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub fixed: &'static [SocKind],
    /// Per pass, one SoC of each entry: its family and the range its
    /// use-case count is drawn from, uniformly.
    pub seeded: &'static [(Family, usize, usize)],
}

/// The design workload: D1–D4, then passes of four Sp and four Bot
/// SoCs with 2 to 20 use-cases each. Job sizes form a continuum from
/// the smallest to the largest, so no percentile sits in a gap between
/// clusters, or inside the spread of one job run again and again: there
/// it would jump with the host's speed level rather than move with the
/// program.
pub const DESIGN_MIX: Mix = Mix {
    fixed: &[SocKind::D(1), SocKind::D(2), SocKind::D(3), SocKind::D(4)],
    seeded: &[
        (SocKind::Sp, 2, 20),
        (SocKind::Sp, 2, 20),
        (SocKind::Sp, 2, 20),
        (SocKind::Sp, 2, 20),
        (SocKind::Bot, 2, 20),
        (SocKind::Bot, 2, 20),
        (SocKind::Bot, 2, 20),
        (SocKind::Bot, 2, 20),
    ],
};

/// The refine workload: D1 and D3 (D2 and D4 take seconds per
/// displacement run), then small Sp and Bot SoCs, which take tens of
/// milliseconds each, so that seed-to-seed differences average out.
pub const REFINE_MIX: Mix = Mix {
    fixed: &[SocKind::D(1), SocKind::D(3)],
    seeded: &[
        (SocKind::SpMini, 2, 2),
        (SocKind::BotMini, 2, 2),
        (SocKind::SpMini, 3, 3),
        (SocKind::BotMini, 3, 3),
    ],
};

/// One job: the SoC whose spec text the program is given. The text is
/// generated when the job runs, so a run never holds more than one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub kind: SocKind,
    pub seed: u64,
}

impl Job {
    pub fn text(&self) -> String {
        spec_text(self.kind, self.seed)
    }
}

/// The jobs of `passes` passes over `mix`, after its fixed kinds.
pub fn jobs(mix: Mix, passes: usize, seed: u64) -> Vec<Job> {
    let mut out: Vec<Job> = mix
        .fixed
        .iter()
        .map(|&kind| Job {
            kind,
            seed: DESIGN_SEED,
        })
        .collect();
    for pass in 0..passes {
        let mut rng = Rng::derive(seed, 0xBA55 + pass as u64);
        let pass_seed = rng.next_u64();
        for (i, &(family, lo, hi)) in mix.seeded.iter().enumerate() {
            let use_cases = if lo == hi {
                lo
            } else {
                rng.range(lo as u64, hi as u64) as usize
            };
            out.push(Job {
                kind: family(use_cases),
                seed: pass_seed.wrapping_add(i as u64),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------
// Request lines for nocd.
// ---------------------------------------------------------------------

/// The daemon's fabric and the session's shape.
#[derive(Debug, Clone, Copy)]
pub struct Session {
    pub rows: u16,
    pub cols: u16,
    /// Cores the use-cases draw their endpoints from.
    pub core_pool: u64,
    /// Live use-cases the warm-up builds.
    pub warm_live: usize,
    /// Timed request lines.
    pub timed_lines: usize,
    /// A read every `read_every` lines on average, drawn from `reads`.
    pub read_every: u64,
    pub reads: &'static [&'static str],
    /// Faults spread evenly through the timed phase.
    pub faults: usize,
    /// Timed mutations follow the cycle add, remove, modify, modify, so
    /// that every four in a row, and so every full batch, make the same
    /// number of admission attempts; otherwise they are a random mix.
    /// With a random mix a batch makes 0 to 4 attempts, and the median
    /// time to outcome sat between the 2- and the 3-attempt batches.
    pub cycle: bool,
    /// The warm-up is a fixed deployment, generated from
    /// [`DESIGN_SEED`] as the D shapes are; only the timed lines follow
    /// the session's seed. Where every admission rebuilds state for the
    /// whole population, a seeded population moved the cost of every
    /// request with it.
    pub fixed_warmup: bool,
}

impl Session {
    /// Switches of the daemon's mesh.
    pub fn switches(&self) -> usize {
        usize::from(self.rows) * usize::from(self.cols)
    }

    /// Directed links of the daemon's mesh with one NI per switch:
    /// inter-switch links in both directions plus each NI's two.
    pub fn link_count(&self) -> usize {
        let (r, c) = (usize::from(self.rows), usize::from(self.cols));
        2 * (r * (c - 1) + c * (r - 1)) + 2 * r * c
    }
}

/// The generated session: warm-up lines, then timed lines.
#[derive(Debug, Clone)]
pub struct Requests {
    pub warmup: Vec<String>,
    pub timed: Vec<String>,
}

/// Every `HEAVY_EVERY`th add carries two heavy flows from one source:
/// they fit its NI link together but contend for it and the first hops.
const HEAVY_EVERY: u64 = 5;
/// Every `OVERFLOW_EVERY`th add carries two heavier flows from one
/// source, more than its NI link carries: no placement can admit it, so
/// the daemon must reject it, however long it searches. A fixed share
/// keeps the slow rejections a steady part of the latency tail.
const OVERFLOW_EVERY: u64 = 9;
/// Every `OVER_EVERY`th add asks for more than any link carries.
const OVER_EVERY: u64 = 13;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AddKind {
    /// 1–3 flows of 50–400 MB/s, a fifth with a latency bound.
    Normal,
    /// Two flows from one source that fit its NI link together.
    Heavy,
    /// Two flows from one source that do not.
    Overflow,
    /// A flow no link carries.
    OverCapacity,
}

struct LineGen {
    rng: Rng,
    s: Session,
    next_id: u64,
    adds: u64,
    /// Ids the generator expects to be live: it never expects a refused
    /// kind of add to be; other refusals are found by the checker.
    live: Vec<String>,
}

impl LineGen {
    fn flows(&mut self, kind: AddKind) -> String {
        let pair = matches!(kind, AddKind::Heavy | AddKind::Overflow);
        let count = if pair { 2 } else { self.rng.range(1, 3) };
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        let mut clauses = Vec::new();
        // Paired flows share their source, so they contend for its NI
        // link and first hops.
        let src0 = self.rng.below(self.s.core_pool);
        for i in 0..count {
            let (a, b) = loop {
                let a = if pair {
                    src0
                } else {
                    self.rng.below(self.s.core_pool)
                };
                let b = self.rng.below(self.s.core_pool);
                if a != b && !pairs.contains(&(a, b)) {
                    break (a, b);
                }
            };
            pairs.push((a, b));
            let mbps = match kind {
                AddKind::OverCapacity if i == 0 => 5000,
                AddKind::Heavy => self.rng.range(600, 900),
                AddKind::Overflow => self.rng.range(1100, 1400),
                _ => self.rng.range(50, 400),
            };
            let mut clause = format!("flow {a} {b} {mbps}");
            if !pair && self.rng.chance(1, 5) {
                let _ = write!(clause, " {}", self.rng.range(20, 80));
            }
            clauses.push(clause);
        }
        clauses.join(" ; ")
    }

    /// An add; the warm-up (`rejectable` false) only builds the
    /// population, so it asks for nothing the daemon must refuse.
    fn add(&mut self, rejectable: bool) -> String {
        self.adds += 1;
        let id = format!("u{}", self.next_id);
        self.next_id += 1;
        let kind = if rejectable && self.adds.is_multiple_of(OVER_EVERY) {
            AddKind::OverCapacity
        } else if rejectable && self.adds.is_multiple_of(OVERFLOW_EVERY) {
            AddKind::Overflow
        } else if self.adds.is_multiple_of(HEAVY_EVERY) {
            AddKind::Heavy
        } else {
            AddKind::Normal
        };
        let flows = self.flows(kind);
        if matches!(kind, AddKind::Normal | AddKind::Heavy) {
            self.live.push(id.clone());
        }
        format!("add {id} {flows}")
    }

    fn remove(&mut self) -> String {
        let at = self.rng.below(self.live.len() as u64) as usize;
        let id = self.live.swap_remove(at);
        format!("remove {id}")
    }

    fn modify(&mut self) -> String {
        let at = self.rng.below(self.live.len() as u64) as usize;
        let id = self.live[at].clone();
        let flows = self.flows(AddKind::Normal);
        format!("modify {id} {flows}")
    }

    fn fault(&mut self, k: usize) -> String {
        // Alternate links and NIs; at most two NIs ever fail.
        if k % 3 == 1 && k < 6 {
            let nis = self.s.switches() as u64;
            format!("fault ni {}", self.rng.below(nis))
        } else {
            format!("fault link {}", self.rng.below(self.s.link_count() as u64))
        }
    }
}

/// The request lines of a `session`, generated from `seed`.
///
/// Warm-up: adds (with a few removes) until the generator expects
/// `warm_live` use-cases live. Timed: a stationary mix — adds and
/// removes in balance around `warm_live`, modifies, a read every
/// `read_every` lines on average, and `faults` faults at evenly spread
/// positions.
pub fn requests(s: Session, seed: u64) -> Requests {
    let warmup_seed = if s.fixed_warmup { DESIGN_SEED } else { seed };
    let mut g = LineGen {
        rng: Rng::derive(warmup_seed, 0x0CD),
        s,
        next_id: 0,
        adds: 0,
        live: Vec::new(),
    };
    let mut warmup = Vec::new();
    while g.live.len() < s.warm_live {
        if g.live.len() > 8 && g.rng.chance(1, 10) {
            warmup.push(g.remove());
        } else {
            warmup.push(g.add(false));
        }
    }
    if s.fixed_warmup {
        g.rng = Rng::derive(seed, 0x71ED);
    }
    let fault_at: Vec<usize> = (1..=s.faults)
        .map(|k| k * s.timed_lines / (s.faults + 1))
        .collect();
    let mut timed = Vec::with_capacity(s.timed_lines);
    let (mut faults, mut mutations) = (0, 0);
    for i in 0..s.timed_lines {
        if fault_at.contains(&i) {
            faults += 1;
            timed.push(g.fault(faults));
            continue;
        }
        if g.rng.chance(1, s.read_every) {
            let read = s.reads[g.rng.below(s.reads.len() as u64) as usize];
            timed.push(read.to_string());
            continue;
        }
        // Adds and removes balance around the warm-up population. In the
        // cycle, a remove while the population is short (refused adds
        // never join it) becomes a modify.
        let roll = g.rng.below(10);
        let line = if s.cycle {
            mutations += 1;
            match mutations % 4 {
                1 => g.add(true),
                2 if g.live.len() >= s.warm_live => g.remove(),
                _ => g.modify(),
            }
        } else if roll < 2 {
            g.modify()
        } else if g.live.len() < s.warm_live || (g.live.len() == s.warm_live && roll < 6) {
            g.add(true)
        } else {
            g.remove()
        };
        timed.push(line);
    }
    Requests { warmup, timed }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_service::{parse_command, Command, FaultTarget};

    fn small() -> Session {
        Session {
            rows: 4,
            cols: 4,
            core_pool: 12,
            warm_live: 20,
            timed_lines: 3000,
            read_every: 4,
            reads: &["stats", "health", "heal"],
            faults: 6,
            cycle: false,
            fixed_warmup: false,
        }
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(jobs(DESIGN_MIX, 2, 7).len(), 4 + 16);
        assert_eq!(jobs(REFINE_MIX, 3, 7).len(), 2 + 12);
        assert_eq!(jobs(DESIGN_MIX, 2, 7), jobs(DESIGN_MIX, 2, 7));
        let (a, c) = (jobs(DESIGN_MIX, 2, 7), jobs(DESIGN_MIX, 2, 8));
        // The D shapes are fixed designs; every other SoC follows the seed.
        for (i, (x, y)) in a.iter().zip(&c).enumerate() {
            assert_eq!(x == y, i < 4, "job {i}");
        }
        // Design draws use-case counts over the whole range.
        let counts: std::collections::BTreeSet<usize> = jobs(DESIGN_MIX, 40, 7)
            .iter()
            .filter_map(|j| match j.kind {
                SocKind::Sp(n) | SocKind::Bot(n) => Some(n),
                _ => None,
            })
            .collect();
        assert_eq!(counts, (2..=20).collect());
        let (r1, r2, r3) = (
            requests(small(), 3),
            requests(small(), 3),
            requests(small(), 4),
        );
        assert_eq!((&r1.warmup, &r1.timed), (&r2.warmup, &r2.timed));
        assert_ne!(r1.timed, r3.timed);
        assert_ne!(r1.warmup, r3.warmup);
        // A fixed warm-up does not follow the seed; the timed lines do.
        let fixed = Session {
            fixed_warmup: true,
            ..small()
        };
        let (f3, f4) = (requests(fixed, 3), requests(fixed, 4));
        assert_eq!(f3.warmup, f4.warmup);
        assert_ne!(f3.timed, f4.timed);
    }

    #[test]
    fn spec_texts_parse() {
        for job in jobs(DESIGN_MIX, 1, 11)
            .into_iter()
            .chain(jobs(REFINE_MIX, 1, 11))
        {
            let text = job.text();
            assert_eq!(text, job.text(), "a job's text is a function of the job");
            let soc = noc_usecase::from_text(&text).expect("generated spec parses");
            assert!(soc.use_case_count() >= 2, "{text}");
        }
    }

    #[test]
    fn request_lines_are_valid_for_the_fabric() {
        for s in [
            small(),
            Session {
                rows: 8,
                cols: 8,
                core_pool: 64,
                warm_live: 50,
                cycle: true,
                fixed_warmup: true,
                ..small()
            },
        ] {
            let r = requests(s, 5);
            let mut ids = std::collections::BTreeSet::new();
            let mut faults = 0;
            if s.cycle {
                // Every fourth timed mutation, and only it, is an add.
                let verbs: Vec<&str> = r
                    .timed
                    .iter()
                    .filter_map(|l| l.split_whitespace().next())
                    .filter(|v| matches!(*v, "add" | "remove" | "modify"))
                    .collect();
                for (i, v) in verbs.iter().enumerate() {
                    assert_eq!(*v == "add", i % 4 == 0, "mutation {i} is {v}");
                }
            }
            for line in r.warmup.iter().chain(&r.timed) {
                let cmd = parse_command(line)
                    .expect("well-formed")
                    .expect("not blank");
                match cmd {
                    Command::Add { id, flows } => {
                        assert!(ids.insert(id), "fresh id per add");
                        for f in &flows {
                            assert!(
                                u64::from(f.src) < s.core_pool && u64::from(f.dst) < s.core_pool
                            );
                            assert_ne!(f.src, f.dst);
                        }
                        let mut pairs: Vec<_> = flows.iter().map(|f| (f.src, f.dst)).collect();
                        pairs.sort_unstable();
                        pairs.dedup();
                        assert_eq!(pairs.len(), flows.len(), "no duplicate pair in {line}");
                    }
                    Command::Modify { id, .. } | Command::Remove { id } => {
                        assert!(ids.contains(&id), "{line} names an id added before");
                    }
                    Command::Fault { target, indices } => {
                        faults += 1;
                        let limit = match target {
                            FaultTarget::Link => s.link_count(),
                            FaultTarget::Ni => s.switches(),
                        };
                        assert!(indices.iter().all(|&i| i < limit), "{line}");
                    }
                    _ => {}
                }
            }
            assert_eq!(faults, s.faults);
        }
    }

    #[test]
    fn link_count_matches_the_daemons_fabric() {
        // An out-of-range index is reported by the engine; the highest
        // generated index must be accepted.
        let s = small();
        let mut engine = noc_service::Engine::new(noc_service::EngineConfig {
            rows: s.rows,
            cols: s.cols,
            ..noc_service::EngineConfig::default()
        })
        .expect("valid fabric");
        let ok = engine.submit_line(&format!("fault link {}", s.link_count() - 1));
        let ok = ok + &engine.submit_line("flush");
        assert!(!ok.contains("out of range"), "{ok}");
        let bad = engine.submit_line(&format!("fault link {}", s.link_count()));
        let bad = bad + &engine.submit_line("flush");
        assert!(bad.contains("out of range"), "{bad}");
    }
}
