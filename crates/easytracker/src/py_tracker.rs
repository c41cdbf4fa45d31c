//! The thread-based MiniPy tracker (paper Fig. 5).
//!
//! The inferior runs on a dedicated thread executing the MiniPy
//! interpreter; EasyTracker's control logic runs *inside the trace
//! function* on that thread, exactly as the paper's `sys.settrace`-based
//! tracker does. When a pause condition is met, the trace function builds
//! a full serializable snapshot, sends it to the tool thread, and blocks
//! until the tool issues the next control command — the tool thread's
//! control call blocks symmetrically, so control functions "return only
//! when the inferior is paused", the paper's core contract.
//!
//! Because watchpoints are checked before every line, resuming with
//! watchpoints set degrades to single-stepping — the slowdown the paper
//! reports for its Python tracker, reproduced by design and measured in
//! the benches. A corollary of per-line checking (shared with the paper's
//! `sys.settrace` tracker): a modification performed by the program's
//! *final* statement has no following line event and is therefore not
//! observed as a watchpoint hit; it is still visible in the terminal
//! snapshot.

use crate::{ControlPointId, Result, Tracker, TrackerError};
use crossbeam::channel::{bounded, Receiver, Sender};
use minipy::{Interp, TraceAction, TraceCtx, TraceEvent, Tracer};
use state::{ExitStatus, Frame, PauseReason, ProgramState, SourceLocation, Variable};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

#[derive(Debug, Clone, Copy)]
enum RunMode {
    Start,
    Resume,
    Step { line: u32, depth: usize },
    Next { line: u32, depth: usize },
    Finish { depth: usize },
}

impl RunMode {
    /// Stable short name used as the metric-name suffix
    /// (`tracker.control.<kind>`), matching the MI command vocabulary.
    fn kind(&self) -> &'static str {
        match self {
            RunMode::Start => "Start",
            RunMode::Resume => "Resume",
            RunMode::Step { .. } => "Step",
            RunMode::Next { .. } => "Next",
            RunMode::Finish { .. } => "Finish",
        }
    }
}

#[derive(Debug)]
enum Go {
    Mode(RunMode),
    Terminate,
}

#[derive(Debug)]
struct PauseMsg {
    reason: PauseReason,
    state: ProgramState,
    exit: Option<i64>,
}

#[derive(Debug, Clone)]
enum CpKind {
    LineBp(u32),
    FuncBp {
        function: String,
        maxdepth: Option<u32>,
    },
    Track {
        function: String,
        maxdepth: Option<u32>,
    },
    Watch {
        variable: String,
    },
}

#[derive(Debug)]
struct ControlPoint {
    id: u64,
    kind: CpKind,
    /// Watch bookkeeping: last rendered value (primed at creation when
    /// the variable already exists).
    last: Option<String>,
}

#[derive(Debug, Default)]
struct Shared {
    points: Vec<ControlPoint>,
    output: String,
}

/// The trace function: EasyTracker's brain on the inferior thread.
struct ControlTracer {
    shared: Arc<Mutex<Shared>>,
    go_rx: Receiver<Go>,
    pause_tx: Sender<PauseMsg>,
    mode: RunMode,
    finish_fired: bool,
    file: String,
    /// Live count of trace-hook invocations (`vm.minipy.trace_hooks`);
    /// a cheap atomic bump per event, readable from the tool thread.
    hook_counter: obs::Counter,
    /// In-process profiler cell, shared with the tool thread. `None`
    /// until [`PyTracker::set_profile`] arms it; the tool only locks it
    /// while the inferior is paused, so the per-event lock is
    /// uncontended.
    prof: Arc<Mutex<Option<obs::Profiler>>>,
}

impl ControlTracer {
    fn pause(&mut self, reason: PauseReason, ctx: &TraceCtx<'_>) -> TraceAction {
        let state = ProgramState::new(
            minipy::inspect::current_frame(ctx, &self.file),
            minipy::inspect::global_variables(ctx),
            reason.clone(),
        );
        if self
            .pause_tx
            .send(PauseMsg {
                reason,
                state,
                exit: None,
            })
            .is_err()
        {
            return TraceAction::Stop;
        }
        match self.go_rx.recv() {
            Ok(Go::Mode(mode)) => {
                self.mode = mode;
                self.finish_fired = false;
                TraceAction::Continue
            }
            Ok(Go::Terminate) | Err(_) => TraceAction::Stop,
        }
    }

    /// Evaluates watchpoints; returns the first trigger.
    fn check_watches(&mut self, ctx: &TraceCtx<'_>) -> Option<PauseReason> {
        let mut shared = self.shared.lock().expect("tracker poisoned");
        let mut hit = None;
        for cp in shared.points.iter_mut() {
            let CpKind::Watch { variable } = &cp.kind else {
                continue;
            };
            // Render through the abstract model so the tool-side priming
            // (which only has the snapshot) produces identical strings.
            let current = ctx
                .lookup(variable)
                .map(|obj| state::render_value(&ctx.heap.to_abstract(obj)));
            if current.is_none() {
                continue;
            }
            if cp.last != current && hit.is_none() {
                hit = Some(PauseReason::Watchpoint {
                    id: cp.id,
                    variable: variable.clone(),
                    old: cp.last.clone(),
                    new: current.clone().expect("checked above"),
                });
            }
            cp.last = current;
        }
        hit
    }

    fn decide(&mut self, event: &TraceEvent, ctx: &TraceCtx<'_>) -> Option<PauseReason> {
        match event {
            TraceEvent::Line { line } => {
                {
                    let shared = self.shared.lock().expect("tracker poisoned");
                    if let Some(cp) = shared
                        .points
                        .iter()
                        .find(|cp| matches!(cp.kind, CpKind::LineBp(l) if l == *line))
                    {
                        return Some(PauseReason::Breakpoint {
                            id: cp.id,
                            location: SourceLocation::new(self.file.clone(), *line),
                        });
                    }
                }
                if self.finish_fired {
                    return Some(PauseReason::Step);
                }
                let depth = ctx.frames.len();
                match self.mode {
                    RunMode::Start => Some(PauseReason::Started),
                    RunMode::Step {
                        line: from,
                        depth: d,
                    } => (*line != from || depth != d).then_some(PauseReason::Step),
                    RunMode::Next {
                        line: from,
                        depth: d,
                    } => (depth < d || (depth == d && *line != from)).then_some(PauseReason::Step),
                    RunMode::Resume | RunMode::Finish { .. } => None,
                }
            }
            TraceEvent::Call {
                function,
                line,
                depth,
            } => {
                let shared = self.shared.lock().expect("tracker poisoned");
                for cp in &shared.points {
                    match &cp.kind {
                        CpKind::FuncBp {
                            function: f,
                            maxdepth,
                        } if f == function && maxdepth.is_none_or(|m| *depth <= m) => {
                            return Some(PauseReason::Breakpoint {
                                id: cp.id,
                                location: SourceLocation::new(self.file.clone(), *line),
                            });
                        }
                        CpKind::Track {
                            function: f,
                            maxdepth,
                        } if f == function && maxdepth.is_none_or(|m| *depth <= m) => {
                            return Some(PauseReason::FunctionCall {
                                function: function.clone(),
                                depth: *depth,
                            });
                        }
                        _ => {}
                    }
                }
                None
            }
            TraceEvent::Return {
                function,
                depth,
                value,
                ..
            } => {
                let tracked = {
                    let shared = self.shared.lock().expect("tracker poisoned");
                    shared.points.iter().any(|cp| {
                        matches!(
                            &cp.kind,
                            CpKind::Track { function: f, maxdepth }
                                if f == function && maxdepth.is_none_or(|m| *depth <= m)
                        )
                    })
                };
                if tracked {
                    return Some(PauseReason::FunctionReturn {
                        function: function.clone(),
                        depth: *depth,
                        return_value: Some(ctx.heap.repr(*value)),
                    });
                }
                if let RunMode::Finish { depth: d } = self.mode {
                    // Return events use 0-based depth; the mode records the
                    // frame count, hence the +1.
                    if *depth as usize + 1 == d {
                        self.finish_fired = true;
                    }
                }
                None
            }
            TraceEvent::Output { .. } => None,
        }
    }
}

impl Tracer for ControlTracer {
    fn trace(&mut self, event: &TraceEvent, ctx: &TraceCtx<'_>) -> TraceAction {
        self.hook_counter.inc();
        if let Some(p) = self.prof.lock().expect("profiler poisoned").as_mut() {
            match event {
                // A line event is the MiniPy step unit.
                TraceEvent::Line { line } => {
                    p.tick();
                    p.line(*line);
                }
                TraceEvent::Call { function, .. } => {
                    let id = p.intern(function);
                    p.enter(id);
                }
                TraceEvent::Return { .. } => p.exit(),
                TraceEvent::Output { .. } => {}
            }
        }
        if let TraceEvent::Output { text } = event {
            self.shared
                .lock()
                .expect("tracker poisoned")
                .output
                .push_str(text);
            return TraceAction::Continue;
        }
        // One Line event can carry several triggers (a store on the
        // previous line trips a watchpoint *and* this line holds a
        // breakpoint). Deliver each as its own pause, like the MiniC
        // engine where watch checks ride separate store events; dropping
        // the rest of the event on the first pause would silently eat
        // breakpoints.
        if matches!(event, TraceEvent::Line { .. }) {
            if let Some(reason) = self.check_watches(ctx) {
                let act = self.pause(reason, ctx);
                if !matches!(act, TraceAction::Continue) {
                    return act;
                }
            }
        }
        match self.decide(event, ctx) {
            Some(reason) => self.pause(reason, ctx),
            None => TraceAction::Continue,
        }
    }
}

/// The tool-thread side of the MiniPy tracker.
#[derive(Debug)]
pub struct PyTracker {
    go_tx: Sender<Go>,
    pause_rx: Receiver<PauseMsg>,
    shared: Arc<Mutex<Shared>>,
    handle: Option<JoinHandle<()>>,
    started: bool,
    last_reason: PauseReason,
    last_state: Option<ProgramState>,
    exit: Option<i64>,
    next_id: u64,
    output_cursor: usize,
    file: String,
    source: String,
    breakable: Vec<u32>,
    obs: obs::Registry,
    prof: Arc<Mutex<Option<obs::Profiler>>>,
}

impl PyTracker {
    /// Parses MiniPy source and spawns the inferior thread (blocked until
    /// [`Tracker::start`]).
    ///
    /// # Errors
    ///
    /// Returns [`TrackerError::Load`] for parse errors.
    pub fn load(file: &str, source: &str) -> Result<Self> {
        Self::load_with_registry(file, source, obs::Registry::new())
    }

    /// Like [`PyTracker::load`], with control-call latencies, inspection
    /// counters, and `vm.minipy.*` interpreter stats reported into
    /// `registry`.
    ///
    /// # Errors
    ///
    /// Returns [`TrackerError::Load`] for parse errors.
    pub fn load_with_registry(file: &str, source: &str, registry: obs::Registry) -> Result<Self> {
        let module =
            minipy::parser::parse(source).map_err(|e| TrackerError::Load(e.to_string()))?;
        let breakable = collect_lines(&module.body);
        let shared = Arc::new(Mutex::new(Shared::default()));
        let (go_tx, go_rx) = bounded::<Go>(1);
        let (pause_tx, pause_rx) = bounded::<PauseMsg>(1);
        let tracer_shared = Arc::clone(&shared);
        let file_name = file.to_owned();
        let inferior_reg = registry.clone();
        let prof = Arc::new(Mutex::new(None));
        let tracer_prof = Arc::clone(&prof);
        let handle = std::thread::Builder::new()
            .name("easytracker-py-inferior".into())
            // MiniPy frames cost deep Rust recursion; give the inferior a
            // roomy stack like CPython's main thread.
            .stack_size(64 * 1024 * 1024)
            .spawn(move || {
                // Block until the tool calls start() (first Go message).
                let first = match go_rx.recv() {
                    Ok(Go::Mode(m)) => m,
                    Ok(Go::Terminate) | Err(_) => return,
                };
                let mut tracer = ControlTracer {
                    shared: tracer_shared,
                    go_rx,
                    pause_tx: pause_tx.clone(),
                    mode: first,
                    finish_fired: false,
                    file: file_name.clone(),
                    hook_counter: inferior_reg.counter("vm.minipy.trace_hooks"),
                    prof: tracer_prof,
                };
                let mut interp = Interp::new(module);
                interp.set_max_depth(500);
                let run_outcome = interp.run(&mut tracer);
                inferior_reg.set_gauge("vm.minipy.steps", interp.steps());
                let (reason, exit) = match run_outcome {
                    Ok(outcome) => (
                        PauseReason::Exited(ExitStatus::Exited(outcome.exit_code)),
                        Some(outcome.exit_code),
                    ),
                    Err(minipy::Error::Stopped) => return,
                    Err(e) => {
                        tracer
                            .shared
                            .lock()
                            .expect("tracker poisoned")
                            .output
                            .push_str(&format!("{e}\n"));
                        (PauseReason::Exited(ExitStatus::Crashed), Some(-1))
                    }
                };
                // Final snapshot: the module frame (with its final
                // bindings) survives the run, so tools can render the
                // terminal state of the program.
                let ctx = TraceCtx {
                    heap: interp.heap(),
                    frames: interp.frames(),
                };
                let state = if ctx.frames.is_empty() {
                    ProgramState::new(
                        Frame::new("<module>", 0, SourceLocation::new(file_name, 0)),
                        Vec::new(),
                        reason.clone(),
                    )
                } else {
                    ProgramState::new(
                        minipy::inspect::current_frame(&ctx, &file_name),
                        minipy::inspect::global_variables(&ctx),
                        reason.clone(),
                    )
                };
                let _ = pause_tx.send(PauseMsg {
                    reason,
                    state,
                    exit,
                });
            })
            .map_err(|e| TrackerError::Load(format!("cannot spawn inferior thread: {e}")))?;
        Ok(PyTracker {
            go_tx,
            pause_rx,
            shared,
            handle: Some(handle),
            started: false,
            last_reason: PauseReason::NotStarted,
            last_state: None,
            exit: None,
            next_id: 1,
            output_cursor: 0,
            file: file.to_owned(),
            source: source.to_owned(),
            breakable,
            obs: registry,
            prof,
        })
    }

    /// The registry this tracker reports into.
    pub fn registry(&self) -> &obs::Registry {
        &self.obs
    }

    fn control(&mut self, mode: RunMode) -> Result<PauseReason> {
        if !self.started {
            return Err(TrackerError::NotStarted);
        }
        let mut span = self.obs.span(format!("tracker.control.{}", mode.kind()));
        span.category("tracker");
        if let Some(code) = self.exit {
            let status = ExitStatus::from_code(code);
            span.tag("pause_reason", PauseReason::Exited(status).tag());
            return Ok(PauseReason::Exited(status));
        }
        self.go_tx
            .send(Go::Mode(mode))
            .map_err(|_| TrackerError::Engine("inferior thread is gone".into()))?;
        let msg = self
            .pause_rx
            .recv()
            .map_err(|_| TrackerError::Engine("inferior thread is gone".into()))?;
        span.tag("pause_reason", msg.reason.tag());
        self.last_reason = msg.reason.clone();
        self.last_state = Some(msg.state);
        self.exit = msg.exit;
        Ok(msg.reason)
    }

    fn count_inspect(&self, kind: &str) {
        self.obs.inc(&format!("tracker.inspect.{kind}"));
    }

    fn position(&self) -> (u32, usize) {
        match &self.last_state {
            Some(st) => (st.frame.location().line(), st.stack_depth()),
            None => (0, 1),
        }
    }

    fn add_point(&mut self, kind: CpKind) -> ControlPointId {
        // Counter names mirror the MI command vocabulary so Py and Mi
        // tracker snapshots line up column for column.
        let name = match &kind {
            CpKind::LineBp(_) => "SetBreakLine",
            CpKind::FuncBp { .. } => "SetBreakFunc",
            CpKind::Track { .. } => "TrackFunction",
            CpKind::Watch { .. } => "Watch",
        };
        self.obs.inc(&format!("tracker.control_point.{name}"));
        let id = self.next_id;
        self.next_id += 1;
        self.shared
            .lock()
            .expect("tracker poisoned")
            .points
            .push(ControlPoint {
                id,
                kind,
                last: None,
            });
        id
    }
}

impl Tracker for PyTracker {
    fn start(&mut self) -> Result<PauseReason> {
        if self.started {
            return Err(TrackerError::Engine("inferior already started".into()));
        }
        self.started = true;
        self.control(RunMode::Start)
    }

    fn resume(&mut self) -> Result<PauseReason> {
        self.control(RunMode::Resume)
    }

    fn step(&mut self) -> Result<PauseReason> {
        let (line, depth) = self.position();
        self.control(RunMode::Step { line, depth })
    }

    fn next(&mut self) -> Result<PauseReason> {
        let (line, depth) = self.position();
        self.control(RunMode::Next { line, depth })
    }

    fn finish(&mut self) -> Result<PauseReason> {
        let (_, depth) = self.position();
        if depth <= 1 {
            return Err(TrackerError::Engine(
                "cannot finish the outermost frame".into(),
            ));
        }
        self.control(RunMode::Finish { depth })
    }

    fn break_before_line(&mut self, line: u32) -> Result<ControlPointId> {
        let Some(&actual) = self.breakable.iter().find(|&&l| l >= line) else {
            return Err(TrackerError::Engine(format!(
                "no code at or after line {line}"
            )));
        };
        Ok(self.add_point(CpKind::LineBp(actual)))
    }

    fn break_before_func(
        &mut self,
        function: &str,
        maxdepth: Option<u32>,
    ) -> Result<ControlPointId> {
        Ok(self.add_point(CpKind::FuncBp {
            function: function.to_owned(),
            maxdepth,
        }))
    }

    fn track_function(&mut self, function: &str, maxdepth: Option<u32>) -> Result<ControlPointId> {
        Ok(self.add_point(CpKind::Track {
            function: function.to_owned(),
            maxdepth,
        }))
    }

    fn watch(&mut self, variable: &str) -> Result<ControlPointId> {
        // Prime from the current snapshot so a pre-existing value does not
        // immediately "change"; a variable that does not exist yet triggers
        // on its first binding (a binding is a modification in Python).
        let initial = self.get_variable(variable).ok().flatten().map(|v| {
            // Bindings are REF wrappers around the abstract object value;
            // render the target, matching the tracer's rendering.
            match v.value().content() {
                state::Content::Ref(target) => state::render_value(target),
                _ => state::render_value(v.value()),
            }
        });
        let id = self.add_point(CpKind::Watch {
            variable: variable.to_owned(),
        });
        if let Some(init) = initial {
            let mut shared = self.shared.lock().expect("tracker poisoned");
            if let Some(cp) = shared.points.iter_mut().find(|cp| cp.id == id) {
                cp.last = Some(init);
            }
        }
        Ok(id)
    }

    fn remove(&mut self, id: ControlPointId) -> Result<()> {
        let mut shared = self.shared.lock().expect("tracker poisoned");
        let before = shared.points.len();
        shared.points.retain(|cp| cp.id != id);
        if shared.points.len() == before {
            return Err(TrackerError::Engine(format!("no control point {id}")));
        }
        Ok(())
    }

    fn terminate(&mut self) {
        let _ = self.go_tx.send(Go::Terminate);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }

    fn pause_reason(&self) -> PauseReason {
        self.last_reason.clone()
    }

    fn get_current_frame(&mut self) -> Result<Frame> {
        self.count_inspect("GetState");
        self.last_state
            .as_ref()
            .map(|st| st.frame.clone())
            .ok_or(TrackerError::NotStarted)
    }

    fn get_state(&mut self) -> Result<ProgramState> {
        self.count_inspect("GetState");
        self.last_state.clone().ok_or(TrackerError::NotStarted)
    }

    fn get_global_variables(&mut self) -> Result<Vec<Variable>> {
        self.count_inspect("GetGlobals");
        Ok(self
            .last_state
            .as_ref()
            .map(|st| st.globals.clone())
            .unwrap_or_default())
    }

    fn get_variable(&mut self, name: &str) -> Result<Option<Variable>> {
        self.count_inspect("GetVariable");
        let Some(st) = &self.last_state else {
            return Ok(None);
        };
        let (frame_filter, var) = match name.split_once("::") {
            Some((f, v)) => (Some(f), v),
            None => (None, name),
        };
        for frame in st.frame.chain() {
            if let Some(f) = frame_filter {
                if frame.name() != f {
                    continue;
                }
            }
            if let Some(v) = frame.variable(var) {
                return Ok(Some(v.clone()));
            }
            if frame_filter.is_none() {
                break;
            }
        }
        if frame_filter.is_none() {
            return Ok(st.globals.iter().find(|g| g.name() == var).cloned());
        }
        Ok(None)
    }

    fn get_exit_code(&mut self) -> Option<i64> {
        self.count_inspect("GetExitCode");
        self.exit
    }

    fn get_output(&mut self) -> Result<String> {
        self.count_inspect("GetOutput");
        let shared = self.shared.lock().expect("tracker poisoned");
        let all = &shared.output;
        let new = all[self.output_cursor.min(all.len())..].to_owned();
        self.output_cursor = all.len();
        Ok(new)
    }

    fn get_source(&mut self) -> Result<(String, String)> {
        self.count_inspect("GetSource");
        Ok((self.file.clone(), self.source.clone()))
    }

    fn breakable_lines(&mut self) -> Result<Vec<u32>> {
        self.count_inspect("GetBreakableLines");
        Ok(self.breakable.clone())
    }

    fn set_profile(&mut self, mode: obs::ProfileMode, period: u64) -> Result<()> {
        if self.started {
            return Err(TrackerError::Engine(
                "profiling must be armed before start".into(),
            ));
        }
        let mut slot = self.prof.lock().expect("profiler poisoned");
        if mode == obs::ProfileMode::Off {
            *slot = None;
        } else {
            let mut p = obs::Profiler::new(mode, period);
            // The module frame is live from the first statement but never
            // raises a Call event; seed it like the VMs seed `main`.
            let id = p.intern("<module>");
            p.enter(id);
            *slot = Some(p);
        }
        Ok(())
    }

    fn profile(&mut self) -> Result<obs::ProfileReport> {
        Ok(self
            .prof
            .lock()
            .expect("profiler poisoned")
            .as_ref()
            .map(obs::Profiler::report)
            .unwrap_or_default())
    }

    fn stats(&self) -> obs::Snapshot {
        self.obs.snapshot()
    }
}

impl Drop for PyTracker {
    fn drop(&mut self) {
        self.terminate();
    }
}

/// Collects every line holding a statement (breakpoint targets).
fn collect_lines(stmts: &[minipy::ast::Stmt]) -> Vec<u32> {
    fn walk(stmts: &[minipy::ast::Stmt], out: &mut Vec<u32>) {
        use minipy::ast::StmtKind::*;
        for s in stmts {
            out.push(s.line);
            match &s.kind {
                If { body, orelse, .. } => {
                    walk(body, out);
                    walk(orelse, out);
                }
                While { body, .. } | For { body, .. } | Def { body, .. } => walk(body, out),
                Class { methods, .. } => walk(methods, out),
                _ => {}
            }
        }
    }
    let mut lines = Vec::new();
    walk(stmts, &mut lines);
    lines.sort_unstable();
    lines.dedup();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracker;
    use state::{AbstractType, Content, Prim};

    const PY_PROG: &str =
        "def square(x):\n    return x * x\ns = 0\nfor i in range(1, 4):\n    s = s + square(i)\n";

    #[test]
    fn full_session() {
        let mut t = PyTracker::load("p.py", PY_PROG).unwrap();
        assert_eq!(t.start().unwrap(), PauseReason::Started);
        t.track_function("square", None).unwrap();
        let mut calls = 0;
        let mut returns = Vec::new();
        loop {
            match t.resume().unwrap() {
                PauseReason::FunctionCall { function, .. } => {
                    assert_eq!(function, "square");
                    calls += 1;
                    let frame = t.get_current_frame().unwrap();
                    assert_eq!(frame.name(), "square");
                    let x = frame.variable("x").unwrap();
                    assert_eq!(x.value().abstract_type(), AbstractType::Ref);
                }
                PauseReason::FunctionReturn { return_value, .. } => {
                    returns.push(return_value.unwrap());
                }
                PauseReason::Exited(ExitStatus::Exited(0)) => break,
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(calls, 3);
        assert_eq!(returns, ["1", "4", "9"]);
        assert_eq!(t.get_exit_code(), Some(0));
        t.terminate();
    }

    #[test]
    fn stepping_and_state() {
        let mut t = PyTracker::load("p.py", "a = 1\nb = 2\nc = a + b\n").unwrap();
        t.start().unwrap();
        assert_eq!(t.current_line(), Some(1));
        t.step().unwrap();
        assert_eq!(t.current_line(), Some(2));
        let frame = t.get_current_frame().unwrap();
        // `a` is bound, `b` not yet.
        assert!(frame.variable("a").is_some());
        assert!(frame.variable("b").is_none());
        t.step().unwrap();
        t.step().unwrap();
        let frame = t.get_current_frame().unwrap();
        match frame.variable("c").unwrap().value().deref_fully().content() {
            Content::Primitive(Prim::Int(3)) => {}
            other => panic!("unexpected {other:?}"),
        }
        let r = t.step().unwrap();
        assert!(matches!(r, PauseReason::Exited(_)));
    }

    #[test]
    fn watchpoints_single_step_under_the_hood() {
        let mut t = PyTracker::load("p.py", "x = 0\nwhile x < 3:\n    x = x + 1\ny = x\n").unwrap();
        t.start().unwrap();
        t.watch("x").unwrap();
        let mut changes = Vec::new();
        loop {
            match t.resume().unwrap() {
                PauseReason::Watchpoint { old, new, .. } => changes.push((old, new)),
                PauseReason::Exited(_) => break,
                other => panic!("unexpected {other}"),
            }
        }
        // The first binding of `x` counts as a modification (Python
        // variables spring into existence), then each increment.
        assert_eq!(
            changes,
            vec![
                (None, "0".into()),
                (Some("0".into()), "1".into()),
                (Some("1".into()), "2".into()),
                (Some("2".into()), "3".into()),
            ]
        );
    }

    #[test]
    fn line_breakpoints() {
        let mut t = PyTracker::load("p.py", "a = 1\nb = 2\nc = 3\n").unwrap();
        let id = t.break_before_line(2).unwrap();
        t.start().unwrap();
        match t.resume().unwrap() {
            PauseReason::Breakpoint { id: hit, location } => {
                assert_eq!(hit, id);
                assert_eq!(location.line(), 2);
            }
            other => panic!("unexpected {other}"),
        }
        let frame = t.get_current_frame().unwrap();
        assert!(frame.variable("a").is_some());
        assert!(frame.variable("b").is_none());
    }

    #[test]
    fn next_and_finish() {
        let src = "def f(x):\n    y = x + 1\n    return y\na = f(1)\nb = f(2)\n";
        let mut t = PyTracker::load("p.py", src).unwrap();
        t.start().unwrap(); // at line 1 (def) — step to line 4
        t.step().unwrap();
        assert_eq!(t.current_line(), Some(4));
        t.next().unwrap(); // steps over f
        assert_eq!(t.current_line(), Some(5));
        assert_eq!(t.get_current_frame().unwrap().name(), "<module>");
        // step into f, then finish.
        t.step().unwrap();
        assert_eq!(t.get_current_frame().unwrap().name(), "f");
        t.finish().unwrap();
        assert_eq!(t.get_current_frame().unwrap().name(), "<module>");
    }

    #[test]
    fn output_collection() {
        let mut t = PyTracker::load("p.py", "print('a')\nprint('b')\n").unwrap();
        t.start().unwrap();
        t.step().unwrap();
        assert_eq!(t.get_output().unwrap(), "a\n");
        t.resume().unwrap();
        assert_eq!(t.get_output().unwrap(), "b\n");
        assert_eq!(t.get_output().unwrap(), "");
    }

    #[test]
    fn crash_reports_crashed_status() {
        let mut t = PyTracker::load("p.py", "x = 1\ny = x / 0\n").unwrap();
        t.start().unwrap();
        let r = t.resume().unwrap();
        assert_eq!(r, PauseReason::Exited(ExitStatus::Crashed));
        assert!(t.get_output().unwrap().contains("ZeroDivision"));
        assert_eq!(t.get_exit_code(), Some(-1));
    }

    #[test]
    fn qualified_variable_lookup() {
        let src = "g = 10\ndef f(x):\n    local = x * 2\n    return local\nf(5)\n";
        let mut t = PyTracker::load("p.py", src).unwrap();
        t.break_before_line(4).unwrap();
        t.start().unwrap();
        t.resume().unwrap();
        let local = t.get_variable("f::local").unwrap().unwrap();
        assert_eq!(state::render_value(local.value().deref_fully()), "10");
        let g = t.get_variable("g").unwrap().unwrap();
        assert_eq!(state::render_value(g.value().deref_fully()), "10");
        assert!(t.get_variable("nonexistent").unwrap().is_none());
    }

    #[test]
    fn terminate_mid_run_stops_inferior() {
        let mut t = PyTracker::load("p.py", "i = 0\nwhile True:\n    i = i + 1\n").unwrap();
        t.start().unwrap();
        t.step().unwrap();
        t.terminate(); // must not hang
    }

    #[test]
    fn control_before_start_fails() {
        let mut t = PyTracker::load("p.py", "a = 1\n").unwrap();
        assert!(matches!(t.resume(), Err(TrackerError::NotStarted)));
    }

    #[test]
    fn load_error() {
        assert!(matches!(
            PyTracker::load("p.py", "def ("),
            Err(TrackerError::Load(_))
        ));
    }
}
