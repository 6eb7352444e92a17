//! Recording side: the global collector, per-thread event buffers,
//! span guards, and the [`TaskSet`] lane protocol.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::counter::{count, ops, Counter};
use crate::{trace, TraceMode};

/// One typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float (finite values only — exporters emit it verbatim as JSON).
    F64(f64),
    /// Text.
    Str(String),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}
impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::F64(v) => write!(f, "{v:?}"),
            AttrValue::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One recorded event. Buffers are flat event lists; the tree is built
/// at finalize time.
#[derive(Debug)]
pub(crate) enum Event {
    /// Span opened: name plus both clock readings at entry.
    Begin {
        /// Span name (static so recording never allocates for it).
        name: &'static str,
        /// Wall reading at entry (0 in ops mode).
        wall_ns: u64,
        /// Op-clock reading at entry.
        ops: u64,
    },
    /// Attribute attached to the innermost open span.
    Attr {
        /// Attribute key.
        key: &'static str,
        /// Attribute value.
        value: AttrValue,
        /// Schedule-class (dropped from ops-mode exports).
        schedule: bool,
    },
    /// Innermost open span closed, with both clock readings at exit.
    End {
        /// Wall reading at exit (0 in ops mode).
        wall_ns: u64,
        /// Op-clock reading at exit.
        ops: u64,
    },
    /// A [`TaskSet`] was created here: splice its lanes under the span
    /// open at this position.
    Tasks {
        /// Index of the lane set in [`Shared::lanes`].
        id: usize,
    },
}

/// State shared by every buffer of one collector session.
pub(crate) struct Shared {
    pub(crate) mode: TraceMode,
    pub(crate) start: Instant,
    /// Lane buffers by task-set id (the index here); slot `i` holds lane
    /// `i`'s events plus the lane's op-clock delta (so lane work outside
    /// any span still counts toward the enclosing span's total).
    pub(crate) lanes: Mutex<trace::LaneMap>,
}

/// A per-thread recording cursor: the buffer events go into, plus the
/// session it belongs to.
pub(crate) struct Cursor {
    pub(crate) shared: Arc<Shared>,
    pub(crate) buf: Vec<Event>,
}

impl Cursor {
    fn new(shared: Arc<Shared>) -> Self {
        Cursor {
            shared,
            buf: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        match self.shared.mode {
            TraceMode::Ops => 0,
            TraceMode::Wall => self.shared.start.elapsed().as_nanos() as u64,
        }
    }
}

thread_local! {
    static CURSOR: RefCell<Option<Cursor>> = const { RefCell::new(None) };
}

/// The installed collector, if any. The root buffer lives in the
/// installing thread's [`CURSOR`]; [`finish`] must run on that thread.
static COLLECTOR: Mutex<Option<Arc<Shared>>> = Mutex::new(None);

/// Installs a collector and makes the calling thread the root recording
/// thread. Returns `false` (and changes nothing) if a collector is
/// already installed.
pub fn install(mode: TraceMode) -> bool {
    let mut slot = COLLECTOR.lock().unwrap();
    if slot.is_some() {
        return false;
    }
    let shared = Arc::new(Shared {
        mode,
        start: Instant::now(),
        lanes: Mutex::new(Vec::new()),
    });
    CURSOR.with(|c| *c.borrow_mut() = Some(Cursor::new(Arc::clone(&shared))));
    *slot = Some(shared);
    true
}

/// Uninstalls the collector and finalizes the recorded events into a
/// [`crate::Trace`]. Must be called on the thread that called
/// [`install`] (the root buffer is thread-local); returns `None` when no
/// collector is installed.
pub fn finish() -> Option<crate::Trace> {
    let shared = COLLECTOR.lock().unwrap().take()?;
    let root = CURSOR.with(|c| c.borrow_mut().take());
    let root_events = root.map(|c| c.buf).unwrap_or_default();
    let lanes = std::mem::take(&mut *shared.lanes.lock().unwrap());
    Some(trace::finalize(shared.mode, root_events, lanes))
}

/// `true` while a collector is installed (process-wide).
pub fn active() -> bool {
    COLLECTOR.lock().unwrap().is_some()
}

/// `true` when spans opened on the *calling thread* right now would be
/// recorded (a collector is installed and this thread holds a buffer).
pub fn recording() -> bool {
    CURSOR.with(|c| c.borrow().is_some())
}

fn with_cursor(f: impl FnOnce(&mut Cursor)) {
    CURSOR.with(|c| {
        if let Some(cur) = c.borrow_mut().as_mut() {
            f(cur);
        }
    });
}

/// A scoped span guard: records `Begin` on creation and `End` on drop.
/// Inert (every method a no-op) when the creating thread was not
/// recording.
///
/// Contract: a `Span` must be dropped on the thread and in the buffer
/// scope it was created in (plain lexical scoping guarantees this); do
/// not carry one across a [`TaskSet::run`] lane boundary.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    armed: bool,
}

/// Opens a span named `name` on the calling thread. See [`Span`].
pub fn span(name: &'static str) -> Span {
    let mut armed = false;
    with_cursor(|cur| {
        let wall_ns = cur.now_ns();
        cur.buf.push(Event::Begin {
            name,
            wall_ns,
            ops: ops(),
        });
        count(Counter::TraceSpans, 1);
        armed = true;
    });
    Span { armed }
}

impl Span {
    /// Attaches a deterministic attribute (exported in every mode).
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        self.push_attr(key, value.into(), false);
    }

    /// Attaches a schedule-class attribute (thread counts, queue waits,
    /// …): exported in [`TraceMode::Wall`] only, so ops-mode traces stay
    /// byte-identical across schedules.
    pub fn sched_attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        self.push_attr(key, value.into(), true);
    }

    fn push_attr(&self, key: &'static str, value: AttrValue, schedule: bool) {
        if !self.armed {
            return;
        }
        with_cursor(|cur| {
            cur.buf.push(Event::Attr {
                key,
                value,
                schedule,
            });
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        with_cursor(|cur| {
            let wall_ns = cur.now_ns();
            cur.buf.push(Event::End {
                wall_ns,
                ops: ops(),
            });
        });
    }
}

/// A deterministic splice point for the lanes of one parallel region.
///
/// Created (on a recording thread) with [`task_set`]; each task then
/// runs under [`TaskSet::run`]`(index, …)` — on *any* thread — and its
/// events land in lane `index`. At [`finish`] the lanes are spliced
/// under the span that was open at creation, in index order.
pub struct TaskSet(Option<TaskSetInner>);

struct TaskSetInner {
    shared: Arc<Shared>,
    id: usize,
}

/// Creates a [`TaskSet`] with `lanes` lanes at the current buffer
/// position. Inert when the calling thread is not recording.
pub fn task_set(lanes: usize) -> TaskSet {
    let mut inner = None;
    with_cursor(|cur| {
        let shared = Arc::clone(&cur.shared);
        let id = {
            let mut sets = shared.lanes.lock().unwrap();
            sets.push((0..lanes).map(|_| None).collect());
            sets.len() - 1
        };
        cur.buf.push(Event::Tasks { id });
        inner = Some(TaskSetInner { shared, id });
    });
    TaskSet(inner)
}

/// Restores the previous cursor when a lane exits, on both the return
/// and unwind paths; a lane's buffer is committed to its slot only on
/// clean return.
struct LaneGuard {
    prev: Option<Cursor>,
    /// Op clock at lane entry.
    start_ops: u64,
    /// `Some((shared, id, lane))` once the lane should commit its buffer.
    commit: Option<(Arc<Shared>, usize, usize)>,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        let lane_cursor = CURSOR.with(|c| {
            let mut slot = c.borrow_mut();
            std::mem::replace(&mut *slot, self.prev.take())
        });
        let lane_ops = ops().wrapping_sub(self.start_ops);
        if let (Some((shared, id, lane)), Some(cursor)) = (self.commit.take(), lane_cursor) {
            let mut sets = shared.lanes.lock().unwrap();
            if let Some(slot) = sets.get_mut(id).and_then(|set| set.get_mut(lane)) {
                *slot = Some((cursor.buf, lane_ops));
            }
        }
    }
}

impl TaskSet {
    /// Runs `f` as lane `lane`: its events are recorded into a private
    /// buffer committed to slot `lane`, together with the op-clock work
    /// the lane did. Inert task sets just call `f`.
    pub fn run<R>(&self, lane: usize, f: impl FnOnce() -> R) -> R {
        let Some(inner) = &self.0 else {
            return f();
        };
        let prev = CURSOR.with(|c| {
            c.borrow_mut()
                .replace(Cursor::new(Arc::clone(&inner.shared)))
        });
        let mut guard = LaneGuard {
            prev,
            start_ops: ops(),
            commit: None,
        };
        let result = f();
        guard.commit = Some((Arc::clone(&inner.shared), inner.id, lane));
        result
    }
}
