//! The control-point core shared by the MiniC and RISC-V engines.
//!
//! The paper's four control points — line and function breakpoints
//! (with `maxdepth`), function tracking, and watchpoints — mean the same
//! on every inferior, so they are decided once, here. An engine is an
//! [`Inferior`] adapter: it maps what its VM or CPU did onto the
//! normalized [`Event`] stream, resolves names to its own ids, and builds
//! state. [`Core`] owns the control-point table, the matcher with the
//! step / next / finish modes, and the run driver: fuel slices, step and
//! heap budgets, the exec span, and the commands no inferior serves.
//!
//! A *point* is what the inferior reports before it runs on: one MiniC
//! event, or the events at one RISC-V pc. Its triggers come one per
//! pause in `ReplayTracker`'s rank order (below), then the mode; `Resume`,
//! `Next` and `Finish` first re-examine the current event for later ranks.

use crate::protocol::{Command, ResourceKind, Response};
use crate::server::SliceOutcome;
use state::{ExitStatus, PauseReason, SourceLocation};
use std::fmt::{Debug, Display};

/// One normalized inferior event. `F` is the adapter's function id, `V`
/// a return value; depths of calls and returns count from 0.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event<F, V> {
    /// The start of source line `line`, with `depth` live frames.
    Line { line: u32, depth: usize },
    /// `function` was entered, its arguments bound.
    Call { function: F, depth: u32 },
    /// `function` is about to return `value`, its frame still intact.
    Return {
        function: F,
        depth: u32,
        value: Option<V>,
    },
    /// State may have changed away from a line start: watches only.
    Store,
}

type EventOf<I> = Event<<I as Inferior>::Func, <I as Inferior>::Value>;

/// What one [`Inferior::advance`] produced.
pub(crate) enum Next<F, V> {
    Event(Event<F, V>),
    /// Progress with nothing to match; budgets are still checked.
    Quiet,
    /// A pause the inferior decides itself (exit, sanitizer trap), boxed
    /// to keep the per-event value small.
    Stop(Box<PauseReason>),
    /// The inferior faulted; the message is appended to its output.
    Crash(String),
    /// The slice's fuel ran out before the next unit of work.
    OutOfFuel,
}

/// An inferior as the core drives it.
pub(crate) trait Inferior {
    type Func: Copy + PartialEq + Debug;
    type Value: Copy + Display + Debug;
    /// A resolved watch target.
    type Target: Debug;
    /// Name of the span timing each run burst.
    const SPAN: &'static str;
    /// Whether `Start` runs to the first line, or the inferior already
    /// waits before its entry instruction.
    const START_RUNS: bool;

    /// Runs to the next event, checking `*fuel == 0` before each unit of
    /// work and decrementing it after.
    fn advance(&mut self, fuel: &mut u64) -> Next<Self::Func, Self::Value>;
    /// Whether the last event's point has more events to come.
    fn point_continues(&self) -> bool {
        false
    }
    /// Current line and number of live frames.
    fn position(&self) -> (u32, usize);
    /// Work done, for the step budget, and live heap bytes, `None`
    /// without an allocator.
    fn usage(&self) -> (u64, Option<u64>);
    fn exit_code(&self) -> Option<i64>;
    fn output(&self) -> &str;
    fn registry(&self) -> Option<&obs::Registry>;
    /// Publishes execution gauges after every burst.
    fn publish_stats(&self);
    /// File name and source text.
    fn source(&self) -> (&str, &str);
    /// The lines that hold code, ascending.
    fn breakable_lines(&self) -> Vec<u32>;
    fn resolve_function(&self, name: &str) -> Result<Self::Func, String>;
    fn function_name(&self, function: Self::Func) -> String;
    /// The line a function breakpoint on `function` reports.
    fn entry_line(&self, function: Self::Func) -> u32;
    fn resolve_watch(&self, spec: &str) -> Result<Self::Target, String>;
    /// Renders a watch target, `None` while it is not readable.
    fn eval_watch(&self, target: &Self::Target) -> Option<String>;
    /// Told whether any watch is armed, after every arm and delete.
    fn set_watching(&mut self, on: bool);
    /// Serves the commands the core does not: inspection and extras.
    fn serve(&mut self, command: Command, started: bool, last_reason: &PauseReason) -> Response;
}

// Trigger ranks: the order in which coinciding triggers are delivered.
const FUNC_BP: u8 = 0;
const CALL: u8 = 1;
const WATCH: u8 = 2;
const LINE_BP: u8 = 3;
const RETURN: u8 = 4;

/// A control point, with `maxdepth` or a watch's name, target and value.
#[derive(Debug)]
enum Kind<F, W> {
    Line(u32),
    Func(F, Option<u32>),
    Track(F, Option<u32>),
    Watch(String, W, Option<String>),
}

#[derive(Debug)]
struct Point<F, W> {
    id: u64,
    kind: Kind<F, W>,
}

/// A control command in flight, with the line and frame count it started
/// at; a fuel yield carries it to the resume.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Start,
    Resume,
    Step { line: u32, depth: usize },
    Next { line: u32, depth: usize },
    Finish { depth: usize },
}

/// The control-point table and run driver around one inferior (see the
/// [module docs](self)).
#[derive(Debug)]
pub(crate) struct Core<I: Inferior> {
    pub(crate) inferior: I,
    points: Vec<Point<I::Func, I::Target>>,
    next_id: u64,
    started: bool,
    last_reason: PauseReason,
    /// The event of the last trigger pause and the rank delivered there.
    current: Option<(EventOf<I>, u8)>,
    /// A command that yielded on fuel, waiting for `resume_sliced`.
    pending: Option<Mode>,
    max_steps: Option<u64>,
    max_heap_bytes: Option<u64>,
    /// Set once a hard budget trips; terminal — later control commands
    /// repeat the verdict instead of running the inferior.
    exhausted: Option<(ResourceKind, u64, u64)>,
    /// The fault message, and whether `GetOutput` has reported it.
    crashed: Option<(String, bool)>,
    output_cursor: usize,
}

impl<I: Inferior> Core<I> {
    pub(crate) fn new(inferior: I) -> Self {
        Core {
            inferior,
            points: Vec::new(),
            next_id: 1,
            started: false,
            last_reason: PauseReason::NotStarted,
            current: None,
            pending: None,
            max_steps: None,
            max_heap_bytes: None,
            exhausted: None,
            crashed: None,
            output_cursor: 0,
        }
    }

    pub(crate) fn handle(&mut self, command: Command) -> Response {
        match self.handle_sliced(command, None) {
            SliceOutcome::Done(resp) => resp,
            SliceOutcome::Yielded => unreachable!("unfueled run cannot yield"),
        }
    }

    /// Handles one command; control commands run at most `fuel` units.
    pub(crate) fn handle_sliced(&mut self, command: Command, fuel: Option<u64>) -> SliceOutcome {
        let (line, depth) = self.inferior.position();
        let mode = match command {
            Command::Start if self.started => return error("inferior already started"),
            Command::Start => {
                self.started = true;
                if !I::START_RUNS {
                    self.last_reason = PauseReason::Started;
                    return SliceOutcome::Done(Response::Paused(PauseReason::Started));
                }
                Mode::Start
            }
            Command::Resume => Mode::Resume,
            Command::Step => {
                // A step moves on: it drops the current event's undelivered
                // triggers, like `ReplayTracker::step`.
                self.current = None;
                Mode::Step { line, depth }
            }
            Command::Next => Mode::Next { line, depth },
            Command::Finish if depth <= 1 => return error("cannot finish the outermost frame"),
            Command::Finish => Mode::Finish { depth },
            other => return SliceOutcome::Done(self.serve(other)),
        };
        if !self.started {
            return error("inferior not started (call start first)");
        }
        self.burst(mode, fuel)
    }

    pub(crate) fn resume_sliced(&mut self, fuel: u64) -> SliceOutcome {
        match self.pending {
            Some(mode) => self.burst(mode, Some(fuel)),
            None => error("no sliced command pending"),
        }
    }

    fn serve(&mut self, command: Command) -> Response {
        let inf = &self.inferior;
        match command {
            // Like GDB: slide to the next line that really holds code.
            Command::SetBreakLine { line } => {
                let actual = inf.breakable_lines().into_iter().find(|&l| l >= line);
                let missing = || format!("no code at or after line {line}");
                self.arm(actual.map(Kind::Line).ok_or_else(missing))
            }
            Command::SetBreakFunc { function, maxdepth } => {
                let function = inf.resolve_function(&function);
                self.arm(function.map(|f| Kind::Func(f, maxdepth)))
            }
            Command::TrackFunction { function, maxdepth } => {
                let function = inf.resolve_function(&function);
                self.arm(function.map(|f| Kind::Track(f, maxdepth)))
            }
            Command::Watch { variable } => {
                let target = inf.resolve_watch(&variable);
                let watch = target.map(|t| {
                    let last = inf.eval_watch(&t);
                    Kind::Watch(variable, t, last)
                });
                self.arm(watch)
            }
            Command::Delete { id } => {
                let before = self.points.len();
                self.points.retain(|p| p.id != id);
                self.inferior.set_watching(self.watching());
                if self.points.len() == before {
                    Response::Error {
                        message: format!("no breakpoint or watchpoint {id}"),
                    }
                } else {
                    Response::Ok
                }
            }
            Command::GetOutput => {
                let all = inf.output();
                let mut out = all[self.output_cursor.min(all.len())..].to_owned();
                self.output_cursor = all.len();
                if let Some((message, reported @ false)) = &mut self.crashed {
                    *reported = true;
                    out.push_str(message);
                    out.push('\n');
                }
                Response::Output(out)
            }
            Command::GetSource => {
                let (file, text) = inf.source();
                let (file, text) = (file.to_owned(), text.to_owned());
                Response::Source { file, text }
            }
            Command::GetBreakableLines => Response::Lines(inf.breakable_lines()),
            Command::GetExitCode => {
                Response::ExitCode(self.crashed.as_ref().map_or(inf.exit_code(), |_| Some(-1)))
            }
            Command::SetLimits {
                max_steps,
                max_heap_bytes,
                ..
            } => {
                // Steps and heap are enforced here; wall time and queue
                // depth are the host's job. `None` clears.
                self.max_steps = max_steps;
                self.max_heap_bytes = max_heap_bytes;
                Response::Ok
            }
            // The serve loop answers Ping and Telemetry itself; answering
            // here keeps `handle` total for engines driven directly.
            Command::Ping => Response::Pong {
                now_us: inf.registry().map_or(0, obs::Registry::now_us),
            },
            Command::Telemetry { since } => {
                // No export ring at this layer: metrics only.
                let frame = match inf.registry() {
                    Some(reg) => obs::telemetry::collect_frame(reg, None, since),
                    None => obs::TelemetryFrame::default(),
                };
                Response::Telemetry(Box::new(frame))
            }
            Command::Terminate => Response::Ok,
            Command::OpenSession { .. }
            | Command::CloseSession { .. }
            | Command::OpenReplay { .. } => Response::Error {
                message: "session commands are handled by the host, not an engine".into(),
            },
            // Served by the RecordingEngine wrapper every spawned session
            // carries, never by a bare engine.
            Command::Record { .. }
            | Command::Seek { .. }
            | Command::QueryHistory { .. }
            | Command::TraceStats
            | Command::PublishTrace { .. } => Response::Error {
                message: "trace commands are handled by the recording wrapper".into(),
            },
            other => self.inferior.serve(other, self.started, &self.last_reason),
        }
    }

    fn arm(&mut self, kind: Result<Kind<I::Func, I::Target>, String>) -> Response {
        match kind {
            Ok(kind) => {
                let id = self.next_id;
                self.next_id += 1;
                self.points.push(Point { id, kind });
                self.inferior.set_watching(self.watching());
                Response::Created { id }
            }
            Err(message) => Response::Error { message },
        }
    }

    fn watching(&self) -> bool {
        self.points
            .iter()
            .any(|p| matches!(p.kind, Kind::Watch(..)))
    }

    /// One run burst, shared by fresh commands and slice resumes. The span
    /// is telemetry only, so slicing stays invisible on the protocol.
    fn burst(&mut self, mode: Mode, fuel: Option<u64>) -> SliceOutcome {
        if self.exhausted.is_none() {
            self.pending = None;
            // Times the burst this command caused; joins the tracker's
            // trace when the command frame carried a context.
            let span = self.inferior.registry().map(|reg| {
                let mut span = reg.span(I::SPAN);
                span.category("vm");
                span
            });
            let paused = self.run(mode, fuel);
            if let Some(mut span) = span {
                let tag = match (&paused, self.exhausted) {
                    (Some(reason), _) => reason.to_string(),
                    (None, Some((which, ..))) => format!("exhausted:{which}"),
                    (None, None) => "slice".to_owned(),
                };
                span.tag("pause_reason", tag);
                span.finish();
            }
            self.inferior.publish_stats();
            if let Some(reason) = paused {
                self.last_reason = reason.clone();
                return SliceOutcome::Done(Response::Paused(reason));
            }
        }
        let Some((which, used, limit)) = self.exhausted else {
            return SliceOutcome::Yielded;
        };
        SliceOutcome::Done(Response::ResourceExhausted { which, used, limit })
    }

    /// Runs to a pause; `None` when the fuel ran out (`pending` holds the
    /// command) or a budget tripped (`exhausted` holds the verdict).
    fn run(&mut self, mode: Mode, fuel: Option<u64>) -> Option<PauseReason> {
        if let Some(code) = self.inferior.exit_code() {
            return Some(PauseReason::Exited(ExitStatus::Exited(code)));
        }
        if self.crashed.is_some() {
            return Some(PauseReason::Exited(ExitStatus::Crashed));
        }
        if let Some((event, delivered)) = self.current.take() {
            if let Some(reason) = self.trigger(event, delivered + 1) {
                return Some(reason);
            }
        }
        let mut fuel = fuel.unwrap_or(u64::MAX);
        // A mode stop waiting for the rest of its point.
        let mut held = None;
        loop {
            let event = match self.inferior.advance(&mut fuel) {
                Next::Event(event) => Some(event),
                Next::Quiet => None,
                Next::Stop(reason) => return self.within_budget().then_some(*reason),
                Next::Crash(message) => {
                    self.crashed = Some((message, false));
                    return Some(PauseReason::Exited(ExitStatus::Crashed));
                }
                Next::OutOfFuel => {
                    self.pending = Some(mode);
                    return None;
                }
            };
            if !self.within_budget() {
                return None;
            }
            let Some(event) = event else { continue };
            if let Some(reason) = self.trigger(event, FUNC_BP) {
                return Some(reason);
            }
            let stop = mode_stop(event, mode).or_else(|| held.take());
            if stop.is_some() {
                if !self.inferior.point_continues() {
                    return stop;
                }
                held = stop;
            }
        }
    }

    /// Checks the step and heap budgets; a tripped one is recorded in
    /// `exhausted`.
    fn within_budget(&mut self) -> bool {
        if self.max_steps.is_none() && self.max_heap_bytes.is_none() {
            return true;
        }
        let (steps, heap) = self.inferior.usage();
        let steps = (ResourceKind::Steps, Some(steps), self.max_steps);
        let heap = (ResourceKind::HeapBytes, heap, self.max_heap_bytes);
        let over = |(which, used, limit)| Some((which, used?, limit?)).filter(|t| t.1 > t.2);
        self.exhausted = over(steps).or_else(|| over(heap));
        self.exhausted.is_none()
    }

    /// The first trigger `event` fires at rank `min` or later, remembered
    /// as the current event's delivered rank.
    fn trigger(&mut self, event: EventOf<I>, min: u8) -> Option<PauseReason> {
        let (rank, reason) = self.rank(event, min)?;
        self.current = Some((event, rank));
        Some(reason)
    }

    fn rank(&mut self, event: EventOf<I>, min: u8) -> Option<(u8, PauseReason)> {
        let inf = &self.inferior;
        match event {
            Event::Call { function, depth } => {
                let bp = self.armed(function, depth, false);
                if let Some(id) = bp.filter(|_| min == FUNC_BP) {
                    let location = self.location(inf.entry_line(function));
                    return Some((FUNC_BP, PauseReason::Breakpoint { id, location }));
                }
                self.armed(function, depth, true).filter(|_| min <= CALL)?;
                let function = inf.function_name(function);
                Some((CALL, PauseReason::FunctionCall { function, depth }))
            }
            Event::Line { line, .. } => {
                if let Some(hit) = self.check_watches(min) {
                    return Some(hit);
                }
                let mut bps = self.points.iter();
                let bp = bps.find(|p| matches!(p.kind, Kind::Line(l) if l == line));
                let id = bp.filter(|_| min <= LINE_BP)?.id;
                let location = self.location(line);
                Some((LINE_BP, PauseReason::Breakpoint { id, location }))
            }
            Event::Store => self.check_watches(min),
            Event::Return {
                function,
                depth,
                value,
            } => {
                let tracked = self.armed(function, depth, true);
                tracked.filter(|_| min <= RETURN)?;
                let function = inf.function_name(function);
                let return_value = value.map(|v| v.to_string());
                let reason = PauseReason::FunctionReturn {
                    function,
                    depth,
                    return_value,
                };
                Some((RETURN, reason))
            }
        }
    }

    fn location(&self, line: u32) -> SourceLocation {
        SourceLocation::new(self.inferior.source().0, line)
    }

    /// The first function breakpoint (or, with `track`, tracked function)
    /// armed for `function` at `depth`.
    fn armed(&self, function: I::Func, depth: u32, track: bool) -> Option<u64> {
        let within = |f, m: Option<u32>| f == function && m.is_none_or(|m| depth <= m);
        let hit = self.points.iter().find(|p| match p.kind {
            Kind::Func(f, m) => !track && within(f, m),
            Kind::Track(f, m) => track && within(f, m),
            Kind::Line(_) | Kind::Watch(..) => false,
        });
        hit.map(|p| p.id)
    }

    /// Re-evaluates every watch when rank `min` admits them; reports the
    /// first that changed. A target becoming readable (a C variable
    /// entering scope) is not a change.
    fn check_watches(&mut self, min: u8) -> Option<(u8, PauseReason)> {
        if min > WATCH || !self.watching() {
            return None;
        }
        let mut hit = None;
        for p in &mut self.points {
            let Kind::Watch(name, target, last) = &mut p.kind else {
                continue;
            };
            let current = self.inferior.eval_watch(target);
            if let (None, Some(old), Some(new)) = (&hit, &*last, &current) {
                if old != new {
                    hit = Some(PauseReason::Watchpoint {
                        id: p.id,
                        variable: name.clone(),
                        old: Some(old.clone()),
                        new: new.clone(),
                    });
                }
            }
            if current.is_some() {
                *last = current;
            }
        }
        hit.map(|reason| (WATCH, reason))
    }
}

/// The stop the command's mode asks for at `event`, once no trigger fired.
///
/// `Finish` goes by depth, like `ReplayTracker::finish`: it stops at the
/// first line out of the finished frame. It does not wait for the frame's
/// `Return` event, which a pause at the `ret` may already have used.
fn mode_stop<F, V>(event: Event<F, V>, mode: Mode) -> Option<PauseReason> {
    let Event::Line { line, depth } = event else {
        return None;
    };
    let stop = match mode {
        Mode::Start => return Some(PauseReason::Started),
        Mode::Resume => false,
        Mode::Step { line: l, depth: d } => line != l || depth != d,
        Mode::Next { line: l, depth: d } => depth < d || (depth == d && line != l),
        Mode::Finish { depth: d } => depth < d,
    };
    stop.then_some(PauseReason::Step)
}

fn error(message: &str) -> SliceOutcome {
    SliceOutcome::Done(Response::Error {
        message: message.into(),
    })
}
