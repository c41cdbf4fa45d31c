//! The MiniC debugger engine: the MI command set over the MiniC VM,
//! adapted to the shared control core ([`crate::control`]).
//!
//! The VM's events map one-to-one onto the core's, and fuel counts them.
//! `Return` events come while the returning frame is still intact,
//! reproducing the paper's breakpoint-on-`retq` trick. `Store` events
//! re-check watchpoints; the VM emits them only while a watch is armed, so
//! the paper's "watchpoints slow execution down a lot" is measurable. A
//! variable coming into scope is not a change. What stays here is MiniC's
//! own: variable lookup, state building, and the analyzer, verifier,
//! sanitizer and optimizer hooks.

use crate::control::{Core, Event, Inferior, Next};
use crate::protocol::{Command, Response};
use crate::server::{Engine, SliceOutcome};
use minic::inspect::{self, InspectOptions};
use minic::vm::{Event as VmEvent, RtVal, Vm};
use minic::Program;
use state::{ExitStatus, PauseReason, Prim, ProgramState, Value, Variable};

/// The MiniC engine (see the [module docs](self)).
#[derive(Debug)]
pub struct MinicEngine(Core<Minic>);

/// The VM as the control core drives it.
#[derive(Debug)]
struct Minic {
    vm: Vm,
    registry: Option<obs::Registry>,
    /// VM events seen by the control loop (published as `vm.minic.events`).
    events_seen: u64,
    /// When the VM runs an *optimized* program, the original unoptimized
    /// one, kept for `Analyze`: static diagnostics are part of the
    /// observable surface and must not shift when dead code is deleted.
    /// `None` when the VM's program is the compiler's output unchanged.
    analysis_program: Option<Box<Program>>,
}

impl MinicEngine {
    /// Creates an engine with the program loaded but not started.
    pub fn new(program: &Program) -> Self {
        analysis::verify::debug_verify(program);
        MinicEngine(Core::new(Minic {
            vm: Vm::new(program),
            registry: None,
            events_seen: 0,
            analysis_program: None,
        }))
    }

    /// Creates an engine running `program` optimized at `opt` (0 = run it
    /// unchanged). The optimizer verifies before and after every pass;
    /// any failure surfaces here instead of producing a VM panic later.
    /// `Analyze` keeps answering from the unoptimized program, so the
    /// static-diagnostic surface is identical at every level.
    ///
    /// # Errors
    ///
    /// Returns the verifier's findings when the program (or any pass's
    /// output) fails verification.
    pub fn with_opt(program: &Program, opt: u8) -> Result<Self, String> {
        if opt == 0 {
            return Ok(Self::new(program));
        }
        let (optimized, _report) = analysis::opt::optimize(program, opt)?;
        let mut engine = Self::new(&optimized);
        engine.0.inferior.analysis_program = Some(Box::new(program.clone()));
        Ok(engine)
    }

    /// Publishes `vm.minic.*` execution stats into `registry` after every
    /// control command: ops executed, events seen, heap allocs/frees, and
    /// live heap bytes.
    pub fn set_registry(&mut self, registry: obs::Registry) {
        self.0.inferior.registry = Some(registry);
    }

    /// Read access to the VM (used by in-process tools and benches).
    pub fn vm(&self) -> &Vm {
        &self.0.inferior.vm
    }
}

impl Minic {
    /// Resolves `var` / `function::var` against the live frames, then the
    /// globals.
    fn lookup_variable(&self, name: &str) -> Option<Variable> {
        if self.vm.frames().is_empty() {
            return None;
        }
        let opts = InspectOptions::default();
        let program = self.vm.program();
        let (func_filter, var) = match name.split_once("::") {
            Some((f, v)) => (Some(f), v),
            None => (None, name),
        };
        // Innermost matching frame first.
        for fi in self.vm.frames().iter().rev() {
            let meta = &program.functions[fi.function];
            if let Some(f) = func_filter {
                if meta.name != f {
                    continue;
                }
            }
            if let Some(local) = meta
                .locals
                .iter()
                .find(|l| l.name == var && (l.is_param || l.decl_line <= fi.line))
            {
                let addr = fi.base + local.offset;
                let value = inspect::read_value(&self.vm, addr, &local.ty, opts)
                    .with_location(state::Location::Stack)
                    .with_address(addr);
                let scope = if local.is_param {
                    state::Scope::Parameter
                } else {
                    state::Scope::Local
                };
                return Some(Variable::new(local.name.clone(), scope, value));
            }
            if func_filter.is_none() {
                // Unqualified names only look at the innermost frame
                // before falling back to globals, like a debugger.
                break;
            }
        }
        if func_filter.is_none() {
            if let Some(g) = program.globals.iter().find(|g| g.name == var) {
                let value = inspect::read_value(&self.vm, g.addr, &g.ty, opts)
                    .with_location(state::Location::Global)
                    .with_address(g.addr);
                return Some(Variable::new(g.name.clone(), state::Scope::Global, value));
            }
            // Function symbols are inspectable as FUNCTION values (the
            // paper's abstract type for C function designators).
            if let Some((idx, f)) = program.function(var) {
                let value = Value::function(f.name.clone(), "function")
                    .with_location(state::Location::Global)
                    .with_address(idx as u64);
                return Some(Variable::new(f.name.clone(), state::Scope::Global, value));
            }
        }
        None
    }
}

impl Inferior for Minic {
    type Func = usize;
    type Value = RtVal;
    type Target = String;
    const SPAN: &'static str = "vm.minic.exec";
    const START_RUNS: bool = true;

    // Inlined into the core's run loop: this is the per-event path.
    #[inline]
    fn advance(&mut self, fuel: &mut u64) -> Next<usize, RtVal> {
        if *fuel == 0 {
            return Next::OutOfFuel;
        }
        *fuel -= 1;
        let event = match self.vm.step() {
            Ok(event) => event,
            Err(e) => return Next::Crash(e.to_string()),
        };
        self.events_seen += 1;
        let depth = self.vm.frames().len();
        Next::Event(match event {
            VmEvent::Line(line) => Event::Line { line, depth },
            VmEvent::Call { function, depth } => Event::Call { function, depth },
            VmEvent::Return {
                function,
                depth,
                value,
            } => Event::Return {
                function,
                depth,
                value,
            },
            VmEvent::Store { .. } => Event::Store,
            VmEvent::Output(_) => return Next::Quiet,
            VmEvent::SanitizerTrap(diagnostic) => {
                if let Some(reg) = &self.registry {
                    reg.add("sanitizer.traps", 1);
                }
                return Next::Stop(Box::new(PauseReason::Sanitizer { diagnostic }));
            }
            VmEvent::Exited(code) => {
                return Next::Stop(Box::new(PauseReason::Exited(ExitStatus::Exited(code))))
            }
        })
    }

    fn position(&self) -> (u32, usize) {
        let line = self.vm.frames().last().map_or(0, |f| f.line);
        (line, self.vm.frames().len())
    }

    fn usage(&self) -> (u64, Option<u64>) {
        let heap = self.vm.allocator().live_bytes();
        (self.vm.ops_executed(), Some(heap))
    }

    fn exit_code(&self) -> Option<i64> {
        self.vm.exit_code()
    }

    fn output(&self) -> &str {
        self.vm.output()
    }

    fn registry(&self) -> Option<&obs::Registry> {
        self.registry.as_ref()
    }

    fn publish_stats(&self) {
        let Some(reg) = &self.registry else {
            return;
        };
        // Absolute readings of cumulative VM totals: gauges, not
        // counters, so a merged cross-process snapshot never adds two
        // reports of the same total.
        reg.set_gauge("vm.minic.ops", self.vm.ops_executed());
        reg.set_gauge("vm.minic.events", self.events_seen);
        let alloc = self.vm.allocator();
        reg.set_gauge("vm.minic.heap.allocs", alloc.total_allocs());
        reg.set_gauge("vm.minic.heap.frees", alloc.total_frees());
        reg.set_gauge("vm.minic.heap.live_bytes", alloc.live_bytes());
    }

    fn source(&self) -> (&str, &str) {
        (&self.vm.program().file, &self.vm.program().source)
    }

    fn breakable_lines(&self) -> Vec<u32> {
        self.vm.program().breakable_lines().into_iter().collect()
    }

    fn resolve_function(&self, name: &str) -> Result<usize, String> {
        let found = self.vm.program().function(name).map(|(idx, _)| idx);
        found.ok_or_else(|| format!("unknown function `{name}`"))
    }

    fn function_name(&self, function: usize) -> String {
        self.vm.program().functions[function].name.clone()
    }

    fn entry_line(&self, function: usize) -> u32 {
        self.vm.program().functions[function].line
    }

    fn resolve_watch(&self, spec: &str) -> Result<String, String> {
        Ok(spec.to_owned())
    }

    fn eval_watch(&self, name: &String) -> Option<String> {
        self.lookup_variable(name)
            .map(|v| state::render_value(v.value()))
    }

    fn set_watching(&mut self, on: bool) {
        // Watchpoints need store events: the expensive mode the paper
        // warns about.
        self.vm.set_store_events(on);
    }

    fn serve(&mut self, command: Command, started: bool, last_reason: &PauseReason) -> Response {
        match command {
            Command::GetState => {
                if !started || self.vm.frames().is_empty() {
                    return Response::Error {
                        message: "no frames to inspect".into(),
                    };
                }
                let frame = inspect::current_frame(&self.vm);
                let globals = inspect::global_variables(&self.vm);
                Response::State(Box::new(ProgramState::new(
                    frame,
                    globals,
                    last_reason.clone(),
                )))
            }
            Command::GetGlobals => Response::Globals(inspect::global_variables(&self.vm)),
            Command::GetVariable { name } => Response::Variable(self.lookup_variable(&name)),
            Command::GetRegisters => {
                // Pseudo-registers of the C VM: stack pointer and current
                // line (the paper's Fig. 7 registers come from the
                // assembly engine; these are still useful for tools).
                let sp = self.vm.stack_pointer();
                let (line, depth) = self.position();
                Response::Registers(vec![
                    Variable::new(
                        "sp",
                        state::Scope::Register,
                        Value::primitive(Prim::Int(sp as i64), "u64")
                            .with_location(state::Location::Register),
                    ),
                    Variable::new(
                        "line",
                        state::Scope::Register,
                        Value::primitive(Prim::Int(line as i64), "u32")
                            .with_location(state::Location::Register),
                    ),
                    Variable::new(
                        "depth",
                        state::Scope::Register,
                        Value::primitive(Prim::Int(depth as i64), "u32")
                            .with_location(state::Location::Register),
                    ),
                ])
            }
            Command::ReadMemory { addr, len } => {
                match self.vm.memory().read_bytes(addr, len.min(64 * 1024)) {
                    Ok(bytes) => Response::Memory(bytes.to_vec()),
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    },
                }
            }
            Command::Analyze => {
                // Diagnose the program the user wrote, not the one the
                // optimizer produced: dead-code deletion must not change
                // the static findings.
                let program = self
                    .analysis_program
                    .as_deref()
                    .unwrap_or_else(|| self.vm.program());
                let diags = match &self.registry {
                    Some(reg) => analysis::analyze_with_registry(program, reg),
                    None => analysis::analyze(program),
                };
                Response::Diagnostics(diags)
            }
            Command::Verify => {
                // The program the VM actually executes — for optimized
                // sessions this re-checks the optimizer's output on
                // demand.
                let findings = analysis::verify::verify(self.vm.program())
                    .iter()
                    .map(ToString::to_string)
                    .collect();
                Response::Verified { findings }
            }
            Command::SetSanitizer { on } => {
                if started {
                    return Response::Error {
                        message: "sanitizer mode must be set before start".into(),
                    };
                }
                self.vm.set_sanitizer(on);
                Response::Ok
            }
            Command::SetProfile { mode, period } => {
                if started && mode != obs::ProfileMode::Off {
                    return Response::Error {
                        message: "profiling must be armed before start".into(),
                    };
                }
                self.vm.set_profile(mode, period);
                Response::Ok
            }
            Command::ProfileReport { .. } => Response::Profile(Box::new(self.vm.profile_report())),
            other => unreachable!("{} is served by the control core", other.kind()),
        }
    }
}

impl Engine for MinicEngine {
    fn handle(&mut self, command: Command) -> Response {
        self.0.handle(command)
    }

    fn handle_sliced(&mut self, command: Command, fuel: u64) -> SliceOutcome {
        self.0.handle_sliced(command, Some(fuel))
    }

    fn resume_sliced(&mut self, fuel: u64) -> SliceOutcome {
        self.0.resume_sliced(fuel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minic::compile;

    fn engine(src: &str) -> MinicEngine {
        MinicEngine::new(&compile("t.c", src).unwrap())
    }

    fn paused(r: Response) -> PauseReason {
        match r {
            Response::Paused(p) => p,
            other => panic!("expected Paused, got {other:?}"),
        }
    }

    const COUNT: &str = "int main() {\nint i = 0;\nwhile (i < 5) {\ni = i + 1;\n}\nreturn i;\n}";

    #[test]
    fn start_pauses_before_first_line() {
        let mut e = engine(COUNT);
        let r = paused(e.handle(Command::Start));
        assert_eq!(r, PauseReason::Started);
        // Inspect: i not yet visible or zero; frame is main.
        match e.handle(Command::GetState) {
            Response::State(st) => {
                assert_eq!(st.frame.name(), "main");
                assert_eq!(st.frame.location().line(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn step_moves_line_by_line() {
        let mut e = engine(COUNT);
        e.handle(Command::Start);
        let mut lines = Vec::new();
        loop {
            match paused(e.handle(Command::Step)) {
                PauseReason::Step => {
                    if let Response::State(st) = e.handle(Command::GetState) {
                        lines.push(st.frame.location().line());
                    }
                }
                PauseReason::Exited(ExitStatus::Exited(code)) => {
                    assert_eq!(code, 5);
                    break;
                }
                other => panic!("unexpected {other}"),
            }
        }
        // 3,4 repeated five times, then 6.
        assert_eq!(lines[0], 3);
        assert_eq!(*lines.last().unwrap(), 6);
        assert_eq!(lines.iter().filter(|&&l| l == 4).count(), 5);
    }

    #[test]
    fn line_breakpoints_slide_and_hit() {
        let mut e = engine(COUNT);
        let id = match e.handle(Command::SetBreakLine { line: 4 }) {
            Response::Created { id } => id,
            other => panic!("unexpected {other:?}"),
        };
        e.handle(Command::Start);
        let r = paused(e.handle(Command::Resume));
        match r {
            PauseReason::Breakpoint { id: hit, location } => {
                assert_eq!(hit, id);
                assert_eq!(location.line(), 4);
            }
            other => panic!("unexpected {other}"),
        }
        // Hits again each iteration.
        let r = paused(e.handle(Command::Resume));
        assert!(matches!(r, PauseReason::Breakpoint { .. }));
        // Delete, then run to exit.
        assert_eq!(e.handle(Command::Delete { id }), Response::Ok);
        let r = paused(e.handle(Command::Resume));
        assert_eq!(r, PauseReason::Exited(ExitStatus::Exited(5)));
    }

    const REC: &str = "int fact(int n) {\nif (n <= 1) { return 1; }\nreturn n * fact(n - 1);\n}\nint main() {\nreturn fact(4);\n}";

    #[test]
    fn function_breakpoint_with_maxdepth() {
        let mut e = engine(REC);
        e.handle(Command::SetBreakFunc {
            function: "fact".into(),
            maxdepth: Some(2),
        });
        e.handle(Command::Start);
        let mut hits = 0;
        loop {
            match paused(e.handle(Command::Resume)) {
                PauseReason::Breakpoint { .. } => {
                    hits += 1;
                    // Arguments are bound at the pause.
                    match e.handle(Command::GetVariable { name: "n".into() }) {
                        Response::Variable(Some(v)) => {
                            assert_eq!(v.scope(), state::Scope::Parameter);
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
                PauseReason::Exited(_) => break,
                other => panic!("unexpected {other}"),
            }
        }
        // Depths are 1 and 2 only (of 4 recursive activations).
        assert_eq!(hits, 2);
    }

    #[test]
    fn track_function_pairs_calls_and_returns() {
        let mut e = engine(REC);
        e.handle(Command::TrackFunction {
            function: "fact".into(),
            maxdepth: None,
        });
        e.handle(Command::Start);
        let mut calls = 0;
        let mut returns = Vec::new();
        loop {
            match paused(e.handle(Command::Resume)) {
                PauseReason::FunctionCall { function, .. } => {
                    assert_eq!(function, "fact");
                    calls += 1;
                }
                PauseReason::FunctionReturn {
                    function,
                    return_value,
                    ..
                } => {
                    assert_eq!(function, "fact");
                    // Frame still live: n is inspectable.
                    match e.handle(Command::GetVariable { name: "n".into() }) {
                        Response::Variable(Some(_)) => {}
                        other => panic!("unexpected {other:?}"),
                    }
                    returns.push(return_value.unwrap());
                }
                PauseReason::Exited(ExitStatus::Exited(code)) => {
                    assert_eq!(code, 24);
                    break;
                }
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(calls, 4);
        assert_eq!(returns, vec!["1", "2", "6", "24"]);
    }

    #[test]
    fn watchpoint_reports_old_and_new() {
        let mut e = engine(COUNT);
        e.handle(Command::Start);
        e.handle(Command::Watch {
            variable: "i".into(),
        });
        let mut transitions = Vec::new();
        loop {
            match paused(e.handle(Command::Resume)) {
                PauseReason::Watchpoint {
                    old, new, variable, ..
                } => {
                    assert_eq!(variable, "i");
                    transitions.push((old, new));
                }
                PauseReason::Exited(_) => break,
                other => panic!("unexpected {other}"),
            }
        }
        // The fresh stack slot already reads 0 when the watch is created,
        // so only the five increments 1..=5 trigger.
        assert_eq!(transitions.len(), 5);
        assert_eq!(transitions[0], (Some("0".into()), "1".into()));
        assert_eq!(transitions[4], (Some("4".into()), "5".into()));
    }

    #[test]
    fn next_steps_over_calls() {
        let src = "int f(int x) {\nint y = x * 2;\nreturn y;\n}\nint main() {\nint a = f(3);\nreturn a;\n}";
        let mut e = engine(src);
        e.handle(Command::Start); // paused at line 6
        let r = paused(e.handle(Command::Next));
        assert_eq!(r, PauseReason::Step);
        if let Response::State(st) = e.handle(Command::GetState) {
            assert_eq!(st.frame.name(), "main");
            assert_eq!(st.frame.location().line(), 7);
        } else {
            panic!("no state");
        }
        // Whereas step enters.
        let mut e = engine(src);
        e.handle(Command::Start);
        paused(e.handle(Command::Step));
        if let Response::State(st) = e.handle(Command::GetState) {
            assert_eq!(st.frame.name(), "f");
        } else {
            panic!("no state");
        }
    }

    #[test]
    fn finish_returns_to_caller() {
        let src = "int f(int x) {\nint y = x * 2;\nreturn y;\n}\nint main() {\nint a = f(3);\nreturn a;\n}";
        let mut e = engine(src);
        e.handle(Command::Start);
        paused(e.handle(Command::Step)); // inside f
        let r = paused(e.handle(Command::Finish));
        assert_eq!(r, PauseReason::Step);
        if let Response::State(st) = e.handle(Command::GetState) {
            assert_eq!(st.frame.name(), "main");
        } else {
            panic!("no state");
        }
    }

    #[test]
    fn output_and_exit_code() {
        let mut e = engine("int main() {\nprintf(\"hi %d\\n\", 3);\nreturn 9;\n}");
        e.handle(Command::Start);
        assert_eq!(e.handle(Command::GetExitCode), Response::ExitCode(None));
        paused(e.handle(Command::Resume));
        assert_eq!(e.handle(Command::GetExitCode), Response::ExitCode(Some(9)));
        assert_eq!(
            e.handle(Command::GetOutput),
            Response::Output("hi 3\n".into())
        );
        // Cursor advanced: second read is empty.
        assert_eq!(
            e.handle(Command::GetOutput),
            Response::Output(String::new())
        );
    }

    #[test]
    fn crash_reported_as_crashed() {
        let mut e = engine("int main() {\nint* p = NULL;\nreturn *p;\n}");
        e.handle(Command::Start);
        let r = paused(e.handle(Command::Resume));
        assert_eq!(r, PauseReason::Exited(ExitStatus::Crashed));
        assert_eq!(e.handle(Command::GetExitCode), Response::ExitCode(Some(-1)));
        match e.handle(Command::GetOutput) {
            Response::Output(o) => assert!(o.contains("invalid memory")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn control_before_start_rejected() {
        let mut e = engine(COUNT);
        assert!(matches!(e.handle(Command::Resume), Response::Error { .. }));
        assert!(matches!(
            e.handle(Command::GetState),
            Response::Error { .. }
        ));
    }

    #[test]
    fn errors_for_unknown_targets() {
        let mut e = engine(COUNT);
        assert!(matches!(
            e.handle(Command::SetBreakFunc {
                function: "nope".into(),
                maxdepth: None
            }),
            Response::Error { .. }
        ));
        assert!(matches!(
            e.handle(Command::SetBreakLine { line: 999 }),
            Response::Error { .. }
        ));
        assert!(matches!(
            e.handle(Command::Delete { id: 42 }),
            Response::Error { .. }
        ));
    }

    #[test]
    fn memory_and_registers() {
        let mut e = engine("int g = 258;\nint main() {\nreturn g;\n}");
        e.handle(Command::Start);
        let g_addr = e.vm().program().global("g").unwrap().addr;
        match e.handle(Command::ReadMemory {
            addr: g_addr,
            len: 4,
        }) {
            Response::Memory(bytes) => assert_eq!(bytes, 258i32.to_le_bytes()),
            other => panic!("unexpected {other:?}"),
        }
        match e.handle(Command::GetRegisters) {
            Response::Registers(regs) => {
                assert!(regs.iter().any(|r| r.name() == "sp"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod sanitizer_tests {
    use super::*;
    use minic::compile;
    use state::DiagnosticKind;

    const UAF: &str =
        "int main() {\nint* p = malloc(4);\n*p = 7;\nfree(p);\nint x = *p;\nreturn x;\n}";

    fn engine(src: &str) -> MinicEngine {
        MinicEngine::new(&compile("t.c", src).unwrap())
    }

    fn paused(r: Response) -> PauseReason {
        match r {
            Response::Paused(p) => p,
            other => panic!("expected Paused, got {other:?}"),
        }
    }

    #[test]
    fn sanitizer_trap_pauses_with_the_diagnostic() {
        let mut e = engine(UAF);
        assert_eq!(e.handle(Command::SetSanitizer { on: true }), Response::Ok);
        e.handle(Command::Start);
        match paused(e.handle(Command::Resume)) {
            PauseReason::Sanitizer { diagnostic } => {
                assert_eq!(diagnostic.kind, DiagnosticKind::UseAfterFree);
                assert_eq!(diagnostic.span, 5);
                assert_eq!(diagnostic.function, "main");
            }
            other => panic!("unexpected {other}"),
        }
        // The trap is an observation, not a fault: the inferior still
        // runs to completion (quarantined memory retains its value).
        let r = paused(e.handle(Command::Resume));
        assert_eq!(r, PauseReason::Exited(ExitStatus::Exited(7)));
    }

    #[test]
    fn state_is_inspectable_at_a_sanitizer_pause() {
        let mut e = engine(UAF);
        e.handle(Command::SetSanitizer { on: true });
        e.handle(Command::Start);
        paused(e.handle(Command::Resume)); // the UAF trap
        match e.handle(Command::GetState) {
            Response::State(st) => {
                assert_eq!(st.frame.name(), "main");
                assert!(matches!(st.reason, PauseReason::Sanitizer { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sanitizer_traps_counter_is_published() {
        let reg = obs::Registry::new();
        let mut e = engine(UAF);
        e.set_registry(reg.clone());
        e.handle(Command::SetSanitizer { on: true });
        e.handle(Command::Start);
        loop {
            if let PauseReason::Exited(_) = paused(e.handle(Command::Resume)) {
                break;
            }
        }
        assert_eq!(reg.snapshot().counter("sanitizer.traps"), 1);
    }

    #[test]
    fn set_sanitizer_rejected_after_start() {
        let mut e = engine(UAF);
        e.handle(Command::Start);
        assert!(matches!(
            e.handle(Command::SetSanitizer { on: true }),
            Response::Error { .. }
        ));
    }

    #[test]
    fn analyze_reports_without_running() {
        let mut e = engine(UAF);
        // No Start: the analysis is compile-time only.
        match e.handle(Command::Analyze) {
            Response::Diagnostics(diags) => {
                assert!(diags
                    .iter()
                    .any(|d| d.kind == DiagnosticKind::UseAfterFree && d.span == 5));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.handle(Command::GetExitCode), Response::ExitCode(None));
    }

    #[test]
    fn analyze_is_clean_on_a_safe_program() {
        let mut e = engine("int main() {\nint x = 1;\nreturn x;\n}");
        match e.handle(Command::Analyze) {
            Response::Diagnostics(diags) => assert!(diags.is_empty(), "{diags:?}"),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod function_symbol_tests {
    use super::*;
    use minic::compile;

    #[test]
    fn function_symbols_are_function_values() {
        let mut e = MinicEngine::new(
            &compile(
                "t.c",
                "int helper(int x) { return x; }\nint main() { return helper(1); }",
            )
            .unwrap(),
        );
        e.handle(Command::Start);
        match e.handle(Command::GetVariable {
            name: "helper".into(),
        }) {
            Response::Variable(Some(v)) => {
                assert_eq!(v.value().abstract_type(), state::AbstractType::Function);
                assert_eq!(state::render_value(v.value()), "<fn helper>");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
