//! The `nocd` workloads: the daemon on a thread of this process, driven
//! by one client over TCP in a closed loop (each request waits for its
//! reply).

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use noc_service::{parse_command, Engine, EngineConfig, Server};

use crate::clock::Clock;
use crate::gen::{self, Requests, Session};
use crate::report::{Metric, Run};
use crate::spans::{self, NoTrace, Recorder, Trace};
use crate::stats;

/// Bound on one response read: a hung daemon fails the run instead of
/// hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 8×8 mesh, ~400 live use-cases, full batches.
    Large,
    /// 4×4 mesh, tens of live use-cases, faults, frequent reads.
    Small,
}

impl Kind {
    /// Independent sessions per run. `nocd-large` has one: its warm-up
    /// takes seconds, and every rep repeats it.
    fn sessions(self) -> usize {
        match self {
            Kind::Large => 1,
            Kind::Small => 10,
        }
    }
}

/// The daemon's fabric and traffic for `--seconds`, with the timed
/// lines of the whole run, sized on a 2-vCPU host so that their
/// [`REPS`] runs last about that long in the host's slower phases, and
/// never fewer than 1000 (each line yields one outcome; p99 needs
/// 1000).
pub fn session(kind: Kind, seconds: u64) -> Session {
    match kind {
        Kind::Large => Session {
            rows: 8,
            cols: 8,
            core_pool: 64,
            warm_live: 400,
            timed_lines: (50 * seconds as usize).max(1000),
            read_every: 100,
            reads: &["stats"],
            faults: 0,
            cycle: true,
            fixed_warmup: true,
        },
        Kind::Small => Session {
            rows: 4,
            cols: 4,
            core_pool: 12,
            warm_live: 24,
            timed_lines: (1000 * seconds as usize).max(1000),
            read_every: 4,
            reads: &["stats", "stats", "health", "heal"],
            faults: 6,
            cycle: false,
            fixed_warmup: false,
        },
    }
}

fn config(s: &Session) -> EngineConfig {
    EngineConfig {
        rows: s.rows,
        cols: s.cols,
        ..EngineConfig::default()
    }
}

// ---------------------------------------------------------------------
// Transport.
// ---------------------------------------------------------------------

/// Why a request got no framed response.
#[derive(Debug)]
pub enum WireError {
    Transport(std::io::Error),
    /// The daemon closed before the `.` terminator.
    Unframed,
    /// Not sent: an earlier request lost the connection.
    Broken,
}

/// The load generator's connection. Each request line goes out in a
/// single `write`: `noc_service::Client::send` writes the line and its
/// newline separately, which with Nagle's algorithm and delayed ACKs
/// stalls every request by tens of milliseconds.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
}

impl Conn {
    pub fn connect(port: u16) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            out: Vec::new(),
        })
    }

    /// Sends one line and reads its framed response.
    pub fn request(&mut self, line: &str) -> Result<String, WireError> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.stream
            .write_all(&self.out)
            .map_err(WireError::Transport)?;
        let mut response = String::new();
        loop {
            let start = response.len();
            let n = self
                .reader
                .read_line(&mut response)
                .map_err(WireError::Transport)?;
            if n == 0 {
                return Err(WireError::Unframed);
            }
            if &response[start..] == ".\n" {
                return Ok(response);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Checking responses and attributing time to outcome.
// ---------------------------------------------------------------------

struct Pending {
    sent: f64,
    op: String,
    id: String,
    /// Index among the timed lines, when sent in the timed phase.
    timed: Option<usize>,
}

/// Follows a session's responses: checks every one against the state
/// its own events imply, and records each request's time to outcome.
///
/// A read's outcome is its own response. A queued mutation's outcome is
/// its `#seq` event line, which arrives with the response that closes
/// its batch (the mutation that fills the batch, or a read).
#[derive(Default)]
pub struct Tracker {
    next_seq: u64,
    pending: BTreeMap<u64, Pending>,
    live: BTreeSet<String>,
    admitted: u64,
    rejected: u64,
    /// Whether requests sent now are in the timed phase.
    pub timing: bool,
    /// Timed lines seen so far.
    timed_seen: usize,
    /// Time to outcome of timed requests: (index among the timed
    /// lines, seconds).
    pub latencies: Vec<(usize, f64)>,
    pub failures: u64,
    pub problems: Vec<String>,
    /// The `key=value` fields of the last `stats` response.
    pub stats: BTreeMap<String, String>,
    /// `comm_cost` of every `stats` response in the timed phase.
    pub costs: Vec<f64>,
    /// Distinct NIs that host placed cores in the last `snapshot`: with
    /// one NI per switch, the switches the mapping uses.
    pub switches_used: usize,
}

fn verb(line: &str) -> &str {
    line.split_whitespace().next().unwrap_or("")
}

fn is_mutation(line: &str) -> bool {
    matches!(verb(line), "add" | "modify" | "remove" | "fault")
}

impl Tracker {
    fn fail(&mut self, why: String) {
        self.failures += 1;
        if self.problems.len() < 5 {
            self.problems.push(why);
        }
    }

    /// The index of the line now sent among the timed lines.
    fn next_index(&mut self) -> Option<usize> {
        let index = self.timing.then_some(self.timed_seen);
        self.timed_seen += usize::from(self.timing);
        index
    }

    /// A request that got no framed response.
    pub fn lost(&mut self, line: &str, err: &WireError) {
        self.next_index();
        let why = match err {
            WireError::Transport(e) => format!("transport error: {e}"),
            WireError::Unframed => "closed before the terminator".to_string(),
            WireError::Broken => "not sent, connection lost".to_string(),
        };
        self.fail(format!("{line:?}: {why}"));
    }

    /// Checks `response` to `line`, sent at `sent` and complete at
    /// `done` (seconds).
    pub fn on_response(&mut self, line: &str, sent: f64, response: &str, done: f64) {
        let index = self.next_index();
        let failures = self.failures;
        let status = response.lines().next().unwrap_or("");
        if !response.ends_with("\n.\n") {
            self.fail(format!("{line:?}: unframed response {response:?}"));
        } else if status.starts_with("err") {
            self.fail(format!("{line:?}: {status}"));
        } else if !status.starts_with("ok") {
            self.fail(format!("{line:?}: corrupt status {status:?}"));
        }
        if self.failures > failures {
            return;
        }
        if is_mutation(line) {
            self.next_seq += 1;
            let mut words = line.split_whitespace();
            let op = words.next().unwrap_or("").to_string();
            let id = words.next().unwrap_or("").to_string();
            self.pending.insert(
                self.next_seq,
                Pending {
                    sent,
                    op,
                    id,
                    timed: index,
                },
            );
            if let Some(rest) = status.strip_prefix("ok queued seq=") {
                let seq = rest.split_whitespace().next().and_then(|s| s.parse().ok());
                if seq != Some(self.next_seq) {
                    self.fail(format!(
                        "{line:?}: expected seq {} in {status:?}",
                        self.next_seq
                    ));
                }
            } else if !status.starts_with("ok applied") {
                self.fail(format!("{line:?}: unexpected status {status:?}"));
            }
        } else if let Some(i) = index {
            self.latencies.push((i, done - sent));
        }
        let events: Vec<&str> = response.lines().filter(|l| l.starts_with('#')).collect();
        if let Some(n) = status.strip_prefix("ok applied n=") {
            if n.parse::<usize>().ok() != Some(events.len()) {
                self.fail(format!("{line:?}: {status:?} with {} events", events.len()));
            }
        }
        for e in events {
            self.event(e, done);
        }
        if status == "ok stats" {
            self.check_stats(response);
        } else if status.starts_with("ok snapshot ") {
            self.check_snapshot(response);
        }
    }

    fn event(&mut self, event: &str, done: f64) {
        let parsed = event[1..].split_once(' ').and_then(|(seq, rest)| {
            let (head, outcome) = rest.split_once(": ")?;
            let (op, id) = head.split_once(' ')?;
            Some((seq.parse::<u64>().ok()?, op, id, outcome))
        });
        let Some((seq, op, id, outcome)) = parsed else {
            return self.fail(format!("malformed event {event:?}"));
        };
        let Some(p) = self.pending.remove(&seq) else {
            return self.fail(format!("event for no pending request: {event:?}"));
        };
        if let Some(i) = p.timed {
            self.latencies.push((i, done - p.sent));
        }
        if p.op != op || p.id != id {
            return self.fail(format!("event {event:?} answers '{} {}'", p.op, p.id));
        }
        let live = self.live.contains(id);
        let ok = match (op, live) {
            ("add", false) if outcome.starts_with("admitted ") => {
                self.live.insert(id.to_string());
                self.admitted += 1;
                true
            }
            ("add", false) | ("modify", true) if outcome.starts_with("rejected ") => {
                self.rejected += 1;
                true
            }
            ("modify", true) if outcome.starts_with("admitted ") => {
                self.admitted += 1;
                true
            }
            ("remove", true) if outcome.starts_with("removed ") => {
                self.live.remove(id);
                true
            }
            ("modify" | "remove", false) => outcome == "error unknown-id",
            ("fault", _) => outcome.starts_with("injected="),
            _ => false,
        };
        if !ok {
            self.fail(format!("wrong outcome {event:?} (live={live})"));
        }
    }

    /// The engine's cumulative counts must match the events seen.
    fn check_stats(&mut self, response: &str) {
        self.stats = response
            .lines()
            .flat_map(str::split_whitespace)
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let want = [
            ("admitted", self.admitted),
            ("rejected", self.rejected),
            ("use_cases", self.live.len() as u64),
        ];
        for (key, value) in want {
            let got = self.stats.get(key).and_then(|v| v.parse::<u64>().ok());
            if got != Some(value) {
                self.fail(format!("stats {key}={got:?}, events imply {value}"));
            }
        }
        if self.timing {
            self.costs.push(self.stat("comm_cost"));
        }
    }

    /// The snapshot must list exactly the live use-cases; records the
    /// NIs their placed cores sit on (`core->ni`, `?` when unplaced).
    fn check_snapshot(&mut self, response: &str) {
        let mut ids = BTreeSet::new();
        let mut nis = BTreeSet::new();
        for rest in response.lines().filter_map(|l| l.strip_prefix("uc ")) {
            let Some((id, seats)) = rest.split_once(": ") else {
                return self.fail(format!("malformed snapshot line {rest:?}"));
            };
            ids.insert(id.to_string());
            for seat in seats.split_whitespace() {
                match seat.split_once("->") {
                    Some((_, "?")) => {}
                    Some((_, ni)) => {
                        nis.insert(ni.to_string());
                    }
                    None if seat == "[degraded]" => {}
                    None => return self.fail(format!("malformed seat {seat:?}")),
                }
            }
        }
        if ids != self.live {
            self.fail(format!(
                "snapshot lists {} use-cases, events imply {}",
                ids.len(),
                self.live.len()
            ));
        }
        self.switches_used = nis.len();
    }

    /// Requests whose outcome never arrived.
    pub fn finish(&mut self) {
        let open = std::mem::take(&mut self.pending);
        for (seq, p) in open {
            self.fail(format!("no outcome for #{seq} {} {}", p.op, p.id));
        }
    }

    pub fn stat(&self, key: &str) -> f64 {
        self.stats
            .get(key)
            .and_then(|v| v.parse().ok())
            .unwrap_or(f64::NAN)
    }
}

// ---------------------------------------------------------------------
// A daemon and its client.
// ---------------------------------------------------------------------

/// The lines that close every session, after its timed phase.
const CLOSING: [&str; 3] = ["snapshot", "stats", "shutdown"];

struct Daemon<'c> {
    port: u16,
    conn: Conn,
    server: Option<JoinHandle<std::io::Result<()>>>,
    tracker: Tracker,
    /// The run's clock; it calibrates only between request lines, while
    /// the daemon waits for the next one.
    clock: &'c mut Clock,
    attempted: u64,
    broken: bool,
    /// Every response, in order, when kept.
    transcript: Option<String>,
    /// FNV-1a over every response, in order.
    digest: u64,
    /// Per timed request: seconds from send to response.
    line_secs: Vec<f64>,
}

impl<'c> Daemon<'c> {
    fn start(cfg: EngineConfig, clock: &'c mut Clock, keep: bool) -> std::io::Result<Daemon<'c>> {
        let server = Server::bind(cfg, 0)?;
        let port = server.port()?;
        let server = Some(std::thread::spawn(move || server.run()));
        let conn = Conn::connect(port)?;
        Ok(Daemon {
            port,
            conn,
            server,
            tracker: Tracker::default(),
            clock,
            attempted: 0,
            broken: false,
            transcript: keep.then(String::new),
            digest: 0xcbf2_9ce4_8422_2325,
            line_secs: Vec::new(),
        })
    }

    fn send(&mut self, line: &str) {
        self.attempted += 1;
        if self.broken {
            self.tracker.lost(line, &WireError::Broken);
            return;
        }
        self.clock.tick();
        let sent = self.clock.now();
        let response = self.conn.request(line);
        let done = self.clock.now();
        match response {
            Ok(r) => {
                if self.tracker.timing {
                    self.line_secs.push(done - sent);
                }
                self.tracker.on_response(line, sent, &r, done);
                for b in r.bytes() {
                    self.digest = (self.digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
                if let Some(t) = &mut self.transcript {
                    t.push_str(&r);
                }
            }
            Err(e) => {
                self.tracker.lost(line, &e);
                self.broken = true;
            }
        }
    }

    /// Sends the closing reads, shuts the daemon down and joins its
    /// thread.
    fn stop(mut self) -> TcpSession {
        self.tracker.timing = false;
        for line in CLOSING {
            self.send(line);
        }
        self.tracker.finish();
        if self.broken {
            // The daemon went back to `accept`; a fresh connection can
            // still stop it. If even that fails, leave its thread to
            // end with the process rather than hang here.
            let stopped = Conn::connect(self.port).and_then(|mut c| {
                c.request("shutdown")
                    .map_err(|_| std::io::ErrorKind::ConnectionAborted.into())
            });
            if stopped.is_err() {
                self.tracker.fail("daemon did not stop".to_string());
                return self.into_session();
            }
        }
        match self.server.take().map(JoinHandle::join) {
            Some(Ok(Ok(()))) | None => {}
            Some(Ok(Err(e))) => self.tracker.fail(format!("daemon: {e}")),
            Some(Err(_)) => self.tracker.fail("daemon thread panicked".to_string()),
        }
        self.into_session()
    }

    fn into_session(self) -> TcpSession {
        TcpSession {
            tracker: self.tracker,
            attempted: self.attempted,
            transcript: self.transcript,
            digest: self.digest,
            setup_s: 0.0,
            timed_s: 0.0,
            line_secs: self.line_secs,
        }
    }
}

/// Times each session runs, each time on a fresh daemon. A line's time
/// to outcome is the median of its runs, which are a whole pass over
/// the run's sessions apart: the host switches between speed levels,
/// often within a run, and the median of three reads the level that
/// holds for most of them.
pub const REPS: usize = 3;

/// The run's sessions: independent daemons, each with its own seed.
/// Several sessions average out what one seed's faults and population
/// happen to cost. A session's lines are generated when it starts.
fn plan(kind: Kind, seed: u64, seconds: u64) -> (Session, Vec<u64>) {
    let mut s = session(kind, seconds);
    let n = kind.sessions();
    s.timed_lines = s.timed_lines.div_ceil(n);
    let seeds = (0..n)
        .map(|i| gen::Rng::derive(seed, i as u64).next_u64())
        .collect();
    (s, seeds)
}

/// One session over TCP.
struct TcpSession {
    tracker: Tracker,
    attempted: u64,
    /// Every response, in order, when kept.
    transcript: Option<String>,
    /// FNV-1a over every response, in order.
    digest: u64,
    /// Binding the daemon and serving the warm-up.
    setup_s: f64,
    timed_s: f64,
    /// Per timed line: seconds from send to response.
    line_secs: Vec<f64>,
}

/// A fresh daemon: warm-up, timed lines, closing reads, shutdown.
/// Times are in seconds of `clock`.
fn tcp_session(cfg: &EngineConfig, reqs: &Requests, keep: bool, clock: &mut Clock) -> TcpSession {
    let t0 = clock.now();
    let mut d = Daemon::start(cfg.clone(), clock, keep).expect("daemon binds to loopback");
    for line in &reqs.warmup {
        d.send(line);
    }
    let setup_s = d.clock.now() - t0;
    d.tracker.timing = true;
    let t = d.clock.now();
    for line in &reqs.timed {
        d.send(line);
    }
    let timed_s = d.clock.now() - t;
    TcpSession {
        setup_s,
        timed_s,
        ..d.stop()
    }
}

/// Admission decisions summed over sessions, from each one's final
/// `stats`.
#[derive(Default)]
struct Decisions {
    admitted: f64,
    rejected: f64,
    evictions: f64,
}

impl Decisions {
    fn add(&mut self, t: &Tracker) {
        self.admitted += t.stat("admitted");
        self.rejected += t.stat("rejected");
        self.evictions += t.stat("evictions");
    }

    fn blocking(&self) -> f64 {
        stats::ratio(self.rejected, self.admitted + self.rejected)
    }
}

/// The untraced run: end-to-end metrics over TCP. Every session runs
/// [`REPS`] times, the sessions in turn.
pub fn run(kind: Kind, seed: u64, seconds: u64) -> Run {
    let (s, seeds) = plan(kind, seed, seconds);
    let cfg = config(&s);
    let mut clock = Clock::calibrated();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut setup, mut costs, mut notes) = (Vec::new(), Vec::new(), Vec::new());
    // Per session: each rep's time to outcome and round trip per timed
    // line, timed wall time, and response digest.
    let mut per_line = vec![Vec::new(); seeds.len()];
    let mut trips = vec![Vec::new(); seeds.len()];
    let mut walls = vec![Vec::new(); seeds.len()];
    let mut digests = vec![Vec::new(); seeds.len()];
    let (mut switches, mut warmup, mut timed) = (0usize, 0usize, 0usize);
    let mut decisions = Decisions::default();
    for rep in 0..REPS {
        for (k, &session_seed) in seeds.iter().enumerate() {
            let reqs = gen::requests(s, session_seed);
            let out = tcp_session(&cfg, &reqs, false, &mut clock);
            let t = out.tracker;
            setup.push(out.setup_s);
            walls[k].push(out.timed_s);
            trips[k].push(out.line_secs);
            digests[k].push(out.digest);
            let mut secs = vec![f64::NAN; reqs.timed.len()];
            for &(i, x) in &t.latencies {
                secs[i] = x;
            }
            per_line[k].push(secs);
            attempted += out.attempted;
            failed += t.failures;
            notes.extend(t.problems.iter().cloned());
            if rep == 0 {
                // Outcomes repeat exactly between reps (the digests
                // below check it), so one rep's figures are the run's.
                decisions.add(&t);
                switches += t.switches_used;
                costs.extend_from_slice(&t.costs);
                warmup = reqs.warmup.len();
                timed += reqs.timed.len();
            }
        }
    }
    for (k, d) in digests.iter().enumerate() {
        if d.iter().any(|&x| x != d[0]) {
            failed += 1;
            notes.push(format!("session {k}: responses differ between reps"));
        }
    }
    // A line without an outcome is already a failure; it has no sample.
    let latencies: Vec<f64> = per_line
        .iter()
        .flat_map(|reps| {
            (0..reps[0].len()).filter_map(move |i| {
                let v: Vec<f64> = reps.iter().map(|r| r[i]).filter(|x| !x.is_nan()).collect();
                (!v.is_empty()).then(|| stats::median(&v))
            })
        })
        .collect();
    let wall: f64 = walls.iter().map(|w| stats::median(w)).sum();
    // The timed phase as the daemon served it: each line's round trip,
    // median of its reps, summed. Like a job's median in the offline
    // workloads, this drops a hiccup that hit one rep of a line, and it
    // leaves out the benchmark's own work between lines.
    let busy: f64 = trips
        .iter()
        .map(|reps| {
            (0..reps.iter().map(Vec::len).min().unwrap_or(0))
                .map(|i| stats::median(&reps.iter().map(|r| r[i]).collect::<Vec<_>>()))
                .sum::<f64>()
        })
        .sum();
    let rss = crate::report::peak_rss_mb();
    let l = stats::latency(latencies);
    let mut run = Run::new(attempted, failed);
    run.notes = notes;
    run.note(clock.note());
    run.note(format!(
        "sessions={}x{REPS} warmup_lines={warmup} timed_lines={timed} samples={} beyond_p99={} timed_s={wall:.3} round_trips_s={busy:.3}",
        seeds.len(),
        l.samples,
        l.beyond_p99
    ));
    run.note(format!(
        "blocking_ratio={:.4} (ratio) evictions={} (count)",
        decisions.blocking(),
        decisions.evictions
    ));
    run.metrics = vec![
        Metric::new("setup_s", stats::median(&setup), "s"),
        Metric::new("throughput_rps", timed as f64 / busy, "1/s"),
        Metric::new("latency_p50_ms", l.p50_ms, "ms"),
        Metric::new("latency_p99_ms", l.p99_ms, "ms"),
        Metric::new("peak_rss_mb", rss, "MB"),
        // Summed over sessions: the switches each final mapping uses.
        Metric::new("switches", switches as f64, "count"),
        // What the operator pays over the run: the live mapping's cost
        // averaged over the timed `stats` reads.
        Metric::new("comm_cost", stats::mean(&costs) / 1e6, "MB/s-hops"),
    ];
    run
}

/// Every line of a session in order: warm-up, timed, and the closing
/// reads and `shutdown`.
fn all_lines(reqs: &Requests) -> Vec<&str> {
    reqs.warmup
        .iter()
        .chain(&reqs.timed)
        .map(String::as_str)
        .chain(CLOSING)
        .collect()
}

/// One in-process pass over a session's lines.
#[derive(Default)]
struct InProcess {
    transcript: String,
    /// Wall time of the timed lines.
    wall: f64,
    /// Per timed line: seconds in `submit_line` (and, traced, the
    /// benchmark's own parse).
    line_secs: Vec<f64>,
    /// Timed lines that apply a fault (auto-heal) or serve `heal`.
    heal_ms: Vec<f64>,
    /// Counter deltas over the timed lines.
    counters: BTreeMap<String, u64>,
    /// Live use-cases when the timed lines end.
    live: f64,
}

/// Feeds a session's lines to an in-process `Engine::submit_line`, as
/// the daemon does for each line it reads. Traced, each line's parse
/// and engine call get spans of their own.
fn in_process<R: Trace>(
    cfg: &EngineConfig,
    lines: &[&str],
    timed: &std::ops::Range<usize>,
    rec: &mut R,
) -> InProcess {
    let mut engine = Engine::new(cfg.clone()).expect("valid fabric");
    let mut out = InProcess::default();
    let (mut before, mut t_timed) = (BTreeMap::new(), Instant::now());
    for (i, line) in lines.iter().enumerate() {
        if i == timed.start {
            before = spans::counters();
            t_timed = Instant::now();
        }
        let req = i as u64;
        let t = Instant::now();
        let response = rec.span("request", req, |rec| {
            if R::ON {
                rec.span("protocol.parse", req, |_| {
                    std::hint::black_box(parse_command(line)).is_ok()
                });
            }
            let r = rec.span("engine.submit", req, |_| engine.submit_line(line));
            let queued = r.starts_with("ok queued");
            rec.relabel_last(if queued { "engine.ack" } else { "engine.flush" });
            r
        });
        let secs = t.elapsed().as_secs_f64();
        if timed.contains(&i) {
            out.line_secs.push(secs);
            if *line == "heal" || response.contains(" fault ") {
                out.heal_ms.push(secs * 1e3);
            }
        }
        out.transcript.push_str(&response);
        if i + 1 == timed.end {
            out.wall = t_timed.elapsed().as_secs_f64();
            out.counters = spans::delta(&before, &spans::counters());
            out.live = engine.use_case_count() as f64;
        }
    }
    out
}

/// The traced run: per-layer metrics from the run's first session,
/// taken three times: over TCP, then in process without and with spans.
/// All three transcripts must match byte for byte.
pub fn run_traced(
    kind: Kind,
    seed: u64,
    seconds: u64,
) -> (Run, Recorder, BTreeMap<&'static str, f64>) {
    // Half a session of the untraced run: the traced run passes over
    // it three times, and reports no p99.
    let (mut s, seeds) = plan(kind, seed, seconds);
    s.timed_lines = s.timed_lines.div_ceil(2);
    let cfg = config(&s);
    let reqs = gen::requests(s, seeds[0]);
    let lines = all_lines(&reqs);
    let timed = reqs.warmup.len()..reqs.warmup.len() + reqs.timed.len();

    let tcp = tcp_session(&cfg, &reqs, true, &mut Clock::wall());
    let mut decisions = Decisions::default();
    decisions.add(&tcp.tracker);
    let mut failed = tcp.tracker.failures;
    let mut notes = tcp.tracker.problems;

    // The in-process passes run on a thread of their own, as the
    // daemon's engine does: the allocator gives each thread its own
    // arena, and the main thread's is not comparable. Nothing else runs
    // in the process meanwhile, so the counters are the passes' own.
    let mut rec = Recorder::default();
    let (plain, traced) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let plain = in_process(&cfg, &lines, &timed, &mut NoTrace);
                (plain, in_process(&cfg, &lines, &timed, &mut rec))
            })
            .join()
            .expect("in-process passes do not panic")
    });
    let tcp_transcript = tcp.transcript.unwrap_or_default();
    for (name, pass) in [("untraced", &plain), ("traced", &traced)] {
        if pass.transcript != tcp_transcript {
            failed += 1;
            notes.push(format!("in-process {name} transcript differs from TCP"));
        }
    }

    // Per line, TCP time minus in-process time. The median line only
    // queues, so this is the transport's share; a mean would mix in how
    // fast each pass's engine ran.
    let rtt: Vec<f64> = tcp
        .line_secs
        .iter()
        .zip(&plain.line_secs)
        .map(|(tcp, inproc)| (tcp - inproc) * 1e6)
        .collect();
    let mut values = spans::counter_metrics(&traced.counters);
    values.extend([
        ("engine.flush_ms", rec.mean_ms("engine.flush")),
        ("engine.ack_us", rec.mean_ms("engine.ack") * 1e3),
        ("engine.live_use_cases", traced.live),
        ("heal.ms", stats::mean(&plain.heal_ms)),
        ("protocol.parse_us", rec.mean_ms("protocol.parse") * 1e3),
        (
            "net.rtt_us",
            if rtt.is_empty() {
                0.0
            } else {
                stats::median(&rtt)
            },
        ),
        ("nocd.blocking_ratio", decisions.blocking()),
        ("nocd.evictions", decisions.evictions),
        ("trace.overhead", traced.wall / plain.wall),
    ]);
    let mut run = Run::new(tcp.attempted + 2 * lines.len() as u64, failed);
    run.notes = notes;
    run.note(format!(
        "traced sessions=1 of {} timed_lines={} tcp_s={:.3} inproc_s={:.3} inproc_traced_s={:.3}",
        seeds.len(),
        tcp.line_secs.len(),
        tcp.timed_s,
        plain.wall,
        traced.wall
    ));
    (run, rec, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const QUEUED: [&str; 3] = [
        "ok queued seq=1 pending=1/4\n.\n",
        "ok queued seq=2 pending=2/4\n.\n",
        "ok queued seq=3 pending=3/4\n.\n",
    ];

    fn add(id: &str) -> String {
        format!("add {id} flow 0 1 100")
    }

    fn admitted(seq: u64, id: &str) -> String {
        format!("#{seq} add {id}: admitted cost=1 placed=2 moved=0 evictions=0")
    }

    #[test]
    fn batch_of_four_closes_at_the_fourth_response() {
        let mut t = Tracker {
            timing: true,
            ..Tracker::default()
        };
        for (i, r) in QUEUED.iter().enumerate() {
            t.on_response(&add(&format!("u{i}")), i as f64, r, i as f64 + 0.5);
        }
        assert!(t.latencies.is_empty(), "queued acks are not outcomes");
        let applied = format!(
            "ok applied n=4\n{}\n{}\n{}\n{}\n.\n",
            admitted(1, "u0"),
            admitted(2, "u1"),
            admitted(3, "u2"),
            admitted(4, "u3")
        );
        t.on_response(&add("u3"), 3.0, &applied, 3.25);
        assert_eq!(t.failures, 0, "{:?}", t.problems);
        assert_eq!(
            t.latencies,
            vec![(0, 3.25), (1, 2.25), (2, 1.25), (3, 0.25)]
        );
    }

    #[test]
    fn a_read_that_flushes_early_carries_the_outcomes() {
        let mut t = Tracker {
            timing: true,
            ..Tracker::default()
        };
        t.on_response(&add("u0"), 0.0, QUEUED[0], 0.1);
        t.on_response(&add("u1"), 1.0, QUEUED[1], 1.1);
        let stats = format!(
            "ok stats\n{}\n#2 add u1: rejected unroutable\nrequests=3 adds=2 modifies=0 removes=0 errors=0\n\
             admitted=1 rejected=1 blocking=0.5000\ndisplaced=0 evictions=0 flushes=1\n\
             use_cases=1 cores=2 free_nis=14 comm_cost=100\n.\n",
            admitted(1, "u0")
        );
        t.on_response("stats", 2.0, &stats, 2.5);
        assert_eq!(t.failures, 0, "{:?}", t.problems);
        // The read's own outcome first, then the two it flushed.
        assert_eq!(t.latencies, vec![(2, 0.5), (0, 2.5), (1, 1.5)]);
        assert_eq!(t.stat("comm_cost"), 100.0);
        // Only u0 is live: removing u1 must be refused, removing u0 not.
        t.on_response("remove u1", 3.0, "ok queued seq=3 pending=1/4\n.\n", 3.1);
        t.on_response("remove u0", 3.0, "ok queued seq=4 pending=2/4\n.\n", 3.1);
        t.on_response(
            "flush",
            4.0,
            "ok applied n=2\n#3 remove u1: error unknown-id\n#4 remove u0: removed freed=2\n.\n",
            4.5,
        );
        t.finish();
        assert_eq!(t.failures, 0, "{:?}", t.problems);
    }

    #[test]
    fn wrong_outcomes_and_stats_are_failures() {
        let mut t = Tracker::default();
        t.on_response(
            "remove u9",
            0.0,
            "ok applied n=1\n#1 remove u9: removed freed=0\n.\n",
            0.1,
        );
        assert_eq!(t.failures, 1, "removing an id never admitted");
        t.on_response(
            "stats",
            0.0,
            "ok stats\nadmitted=5 rejected=0 use_cases=0\n.\n",
            0.1,
        );
        assert_eq!(t.failures, 2, "stats disagree with the events");
        t.on_response(&add("u1"), 0.0, "ok queued seq=2 pending=1/4\n.\n", 0.1);
        t.finish();
        assert_eq!(t.failures, 3, "an outcome that never arrived");
    }

    /// A one-connection server that answers every line with `reply`.
    fn fake_daemon(reply: &'static str) -> (u16, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let port = listener.local_addr().unwrap().port();
        let h = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut w = stream.try_clone().unwrap();
            let mut line = String::new();
            let _ = BufReader::new(stream).read_line(&mut line);
            let _ = w.write_all(reply.as_bytes());
        });
        (port, h)
    }

    #[test]
    fn corrupted_tcp_responses_are_failures() {
        for (reply, lost) in [
            ("ok queued seq=1 pen", true),       // closed before the terminator
            ("ok queu\u{0}d seq=1\n.\n", false), // framed, but not the ack
            ("garbage\n.\n", false),             // framed, unknown status
            ("err syntax: bad\n.\n", false),     // an error to a valid line
        ] {
            let (port, h) = fake_daemon(reply);
            let mut conn = Conn::connect(port).unwrap();
            let mut t = Tracker::default();
            match conn.request(&add("u0")) {
                Ok(r) => {
                    assert!(!lost, "{reply:?}");
                    t.on_response(&add("u0"), 0.0, &r, 0.1);
                }
                Err(e) => {
                    assert!(lost, "{reply:?}");
                    t.lost(&add("u0"), &e);
                }
            }
            h.join().unwrap();
            assert!(t.failures >= 1, "{reply:?} was not counted");
        }
    }

    #[test]
    fn daemon_session_over_tcp_checks_out() {
        let s = Session {
            timed_lines: 200,
            ..session(Kind::Small, 1)
        };
        let reqs = gen::requests(s, 9);
        let mut clock = Clock::wall();
        let mut d = Daemon::start(config(&s), &mut clock, true).unwrap();
        for line in reqs.warmup.iter().chain(&reqs.timed) {
            d.send(line);
        }
        let out = d.stop();
        let (t, n, transcript) = (out.tracker, out.attempted, out.transcript);
        assert_eq!(t.failures, 0, "{:?}", t.problems);
        assert_eq!(
            n as usize,
            reqs.warmup.len() + reqs.timed.len() + CLOSING.len()
        );
        // The closing snapshot places cores on at most the core pool's
        // worth of the mesh's switches.
        assert!((1..=s.core_pool as usize).contains(&t.switches_used));
        let mut engine = Engine::new(config(&s)).unwrap();
        let inproc: String = all_lines(&reqs)
            .iter()
            .map(|l| engine.submit_line(l))
            .collect();
        assert_eq!(transcript.unwrap(), inproc);
    }
}
