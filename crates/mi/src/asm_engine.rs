//! The RISC-V debugger engine: the MI command set over the simulator,
//! adapted to the shared control core ([`crate::control`]).
//!
//! Like a hardware debugger it stops *before* the instruction at the
//! paused pc, after checking the slice's fuel (retired instructions).
//! There it reports a `Call` event when the pc is a label's address (a
//! function breakpoint fires at the label address), a `Line` event at the
//! first word of a source line or a watch-only `Store` event at any other,
//! and a `Return` event before a `ret` — the analogue of the paper's
//! scan-for-`retq` trick. Tracking keeps a shadow call stack keyed by
//! `jal ra` / `jalr zero, 0(ra)` control transfers.
//!
//! Watchable things: registers by name (`a0`, `sp`, ...) and raw memory
//! ranges written `*0xADDR:LEN`.

use crate::control::{Core, Event, Inferior, Next};
use crate::protocol::{Command, Response};
use crate::server::{Engine, SliceOutcome};
use miniasm::asm::AsmProgram;
use miniasm::isa::{decode, parse_reg, reg_name, Inst};
use miniasm::sim::{Control, Cpu};
use state::{
    ExitStatus, Frame, PauseReason, Prim, ProgramState, Scope, SourceLocation, Value, Variable,
};

#[derive(Debug)]
enum WatchKind {
    Reg(u8),
    Mem { addr: u32, len: u32 },
}

#[derive(Debug)]
struct ShadowFrame {
    /// The function's entry address, which is its id.
    entry: u32,
    call_line: u32,
}

/// `ret`, that is `jalr zero, 0(ra)`.
const RET: Inst = Inst::Jalr {
    rd: 0,
    rs1: 1,
    imm: 0,
};

/// What the adapter does next at the paused pc.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Call,
    Line,
    Return,
    Exec,
}

/// The RISC-V engine (see the [module docs](self)).
#[derive(Debug)]
pub struct AsmEngine(Core<Asm>);

/// The simulator as the control core drives it.
#[derive(Debug)]
struct Asm {
    cpu: Cpu,
    shadow: Vec<ShadowFrame>,
    phase: Phase,
    registry: Option<obs::Registry>,
    /// In-engine profiler; lives here (not in the CPU) because function
    /// identity comes from the shadow call stack.
    prof: Option<Box<obs::Profiler>>,
}

/// Coarse instruction class for per-class retirement counts.
fn inst_class(inst: &Inst) -> &'static str {
    match inst {
        Inst::R { .. } | Inst::I { .. } | Inst::Lui { .. } | Inst::Auipc { .. } => "alu",
        Inst::Load { .. } => "load",
        Inst::Store { .. } => "store",
        Inst::Branch { .. } => "branch",
        Inst::Jal { .. } | Inst::Jalr { .. } => "jump",
        Inst::Ecall => "ecall",
    }
}

impl AsmEngine {
    /// Creates an engine with the program loaded, paused at the entry.
    pub fn new(program: &AsmProgram) -> Self {
        AsmEngine(Core::new(Asm {
            cpu: Cpu::new(program),
            shadow: vec![ShadowFrame {
                entry: program.entry,
                call_line: 0,
            }],
            // Nothing is reported at the entry pc: `Start` pauses there.
            phase: Phase::Exec,
            registry: None,
            prof: None,
        }))
    }

    /// Publishes `vm.miniasm.*` execution stats into `registry` after
    /// every control command: retired instructions and shadow-stack depth.
    pub fn set_registry(&mut self, registry: obs::Registry) {
        self.0.inferior.registry = Some(registry);
    }

    /// Read access to the CPU.
    pub fn cpu(&self) -> &Cpu {
        &self.0.inferior.cpu
    }
}

impl Asm {
    fn location(&self, line: u32) -> SourceLocation {
        SourceLocation::new(self.cpu.program().file.clone(), line)
    }

    /// Whether `pc` is the first instruction word of its source line
    /// (multi-word pseudo-instructions only trigger line breakpoints once).
    fn is_line_start(&self, pc: u32) -> bool {
        let p = self.cpu.program();
        match p.line_at(pc) {
            Some(line) => pc < 4 || p.line_at(pc - 4) != Some(line),
            None => false,
        }
    }

    /// Name of the function entered at `entry`.
    fn function_label(&self, entry: u32) -> &str {
        let p = self.cpu.program();
        let entry_name = (entry == p.entry).then_some("main");
        p.label_at(entry).or(entry_name).unwrap_or("<anonymous>")
    }

    /// Builds the frame chain from the shadow stack; the innermost frame
    /// carries the register file as its variables.
    fn build_state(&self, last_reason: &PauseReason) -> ProgramState {
        let mut result: Option<Frame> = None;
        let n = self.shadow.len();
        for (depth, sf) in self.shadow.iter().enumerate() {
            let line = if depth + 1 == n {
                self.cpu.current_line()
            } else {
                // Parent frames show their call site.
                self.shadow
                    .get(depth + 1)
                    .map(|child| child.call_line)
                    .unwrap_or(0)
            };
            let name = self.function_label(sf.entry).to_owned();
            let mut frame = Frame::new(name, depth as u32, self.location(line));
            if depth + 1 == n {
                for var in self.cpu.register_variables() {
                    frame.insert_variable(var);
                }
            }
            if let Some(parent) = result.take() {
                frame.set_parent(parent);
            }
            result = Some(frame);
        }
        ProgramState::new(
            result.expect("shadow stack never empty"),
            self.data_globals(),
            last_reason.clone(),
        )
    }

    /// Data-segment labels as global variables (word values).
    fn data_globals(&self) -> Vec<Variable> {
        let p = self.cpu.program();
        p.labels
            .iter()
            .filter(|(_, a)| *a >= p.data_base)
            .map(|(name, addr)| {
                let word = self.cpu.read_word(*addr).unwrap_or(0);
                Variable::new(
                    name.clone(),
                    Scope::Global,
                    Value::primitive(Prim::Int(word as i32 as i64), "word")
                        .with_location(state::Location::Global)
                        .with_address(*addr as u64),
                )
            })
            .collect()
    }
}

impl Inferior for Asm {
    type Func = u32;
    type Value = i32;
    type Target = WatchKind;
    const SPAN: &'static str = "vm.miniasm.exec";
    const START_RUNS: bool = false;

    fn advance(&mut self, fuel: &mut u64) -> Next<u32, i32> {
        loop {
            let pc = self.cpu.pc();
            let depth = self.shadow.len();
            match self.phase {
                Phase::Call if *fuel == 0 => return Next::OutOfFuel,
                Phase::Call => {
                    self.phase = Phase::Line;
                    if self.cpu.program().labels.iter().any(|&(_, a)| a == pc) {
                        let (function, depth) = (pc, depth as u32 - 1);
                        return Next::Event(Event::Call { function, depth });
                    }
                }
                Phase::Line => {
                    let is_ret = self.cpu.read_word(pc).and_then(decode) == Some(RET);
                    self.phase = if is_ret { Phase::Return } else { Phase::Exec };
                    return Next::Event(if self.is_line_start(pc) {
                        let line = self.cpu.current_line();
                        Event::Line { line, depth }
                    } else {
                        Event::Store
                    });
                }
                Phase::Return => {
                    self.phase = Phase::Exec;
                    return Next::Event(Event::Return {
                        function: self.shadow[depth - 1].entry,
                        depth: depth as u32 - 1,
                        value: Some(self.cpu.reg(10) as i32),
                    });
                }
                Phase::Exec => {
                    *fuel = fuel.saturating_sub(1);
                    let info = match self.cpu.step() {
                        Ok(info) => info,
                        Err(e) => return Next::Crash(e.to_string()),
                    };
                    self.phase = Phase::Call;
                    // Retired-instruction hooks, before the control
                    // transfer is applied: a `jal` is charged to its caller.
                    if let Some(p) = self.prof.as_deref_mut() {
                        p.tick();
                        p.line(info.line);
                        p.inst_class(inst_class(&info.inst));
                    }
                    if let Some(code) = info.exit {
                        return Next::Stop(Box::new(PauseReason::Exited(ExitStatus::Exited(code))));
                    }
                    match info.control {
                        Some(Control::Call { target }) => {
                            if let Some(p) = self.prof.as_deref_mut() {
                                let name = self.cpu.program().label_at(target);
                                let id = p.intern(name.unwrap_or("<anonymous>"));
                                p.enter(id);
                            }
                            self.shadow.push(ShadowFrame {
                                entry: target,
                                call_line: info.line,
                            });
                        }
                        Some(Control::Return) if self.shadow.len() > 1 => {
                            self.shadow.pop();
                            if let Some(p) = self.prof.as_deref_mut() {
                                p.exit();
                            }
                        }
                        Some(Control::Return) | None => {}
                    }
                    return Next::Quiet;
                }
            }
        }
    }

    fn point_continues(&self) -> bool {
        // A `ret` reports its `Return` at the same pc, after the line.
        matches!(self.phase, Phase::Return)
    }

    fn position(&self) -> (u32, usize) {
        (self.cpu.current_line(), self.shadow.len())
    }

    fn usage(&self) -> (u64, Option<u64>) {
        // The simulator has no allocator: the heap budget does not apply.
        (self.cpu.instret(), None)
    }

    fn exit_code(&self) -> Option<i64> {
        self.cpu.exit_code()
    }

    fn output(&self) -> &str {
        self.cpu.output()
    }

    fn registry(&self) -> Option<&obs::Registry> {
        self.registry.as_ref()
    }

    fn publish_stats(&self) {
        let Some(reg) = &self.registry else {
            return;
        };
        // Absolute readings: gauges, so merged snapshots never double-add.
        reg.set_gauge("vm.miniasm.instret", self.cpu.instret());
        reg.set_gauge("vm.miniasm.shadow_depth", self.shadow.len() as u64);
    }

    fn set_watching(&mut self, _: bool) {}

    fn source(&self) -> (&str, &str) {
        (&self.cpu.program().file, &self.cpu.program().source)
    }

    fn breakable_lines(&self) -> Vec<u32> {
        self.cpu.program().breakable_lines()
    }

    fn resolve_function(&self, name: &str) -> Result<u32, String> {
        self.cpu
            .program()
            .label(name)
            .ok_or_else(|| format!("unknown label `{name}`"))
    }

    fn function_name(&self, function: u32) -> String {
        self.function_label(function).to_owned()
    }

    fn entry_line(&self, function: u32) -> u32 {
        self.cpu.program().line_at(function).unwrap_or(0)
    }

    fn resolve_watch(&self, spec: &str) -> Result<WatchKind, String> {
        if let Some(r) = parse_reg(spec) {
            Ok(WatchKind::Reg(r))
        } else if let Some(range) = spec.strip_prefix('*') {
            let (addr_s, len_s) = range.split_once(':').unwrap_or((range, "4"));
            let addr = parse_u32(addr_s);
            let len = parse_u32(len_s);
            match (addr, len) {
                (Some(addr), Some(len)) if len > 0 && len <= 256 => {
                    Ok(WatchKind::Mem { addr, len })
                }
                _ => Err(format!("bad memory watch `{spec}`")),
            }
        } else if let Some(addr) = self.cpu.program().label(spec) {
            Ok(WatchKind::Mem { addr, len: 4 })
        } else {
            Err(format!(
                "cannot watch `{spec}` (register, label or *0xADDR:LEN)"
            ))
        }
    }

    fn eval_watch(&self, kind: &WatchKind) -> Option<String> {
        match kind {
            WatchKind::Reg(r) => Some((self.cpu.reg(*r) as i32).to_string()),
            WatchKind::Mem { addr, len } => self
                .cpu
                .read_mem(*addr, *len)
                .map(|bytes| format!("{bytes:02x?}")),
        }
    }

    fn serve(&mut self, command: Command, started: bool, last_reason: &PauseReason) -> Response {
        match command {
            Command::GetState => {
                if !started {
                    return Response::Error {
                        message: "inferior not started".into(),
                    };
                }
                Response::State(Box::new(self.build_state(last_reason)))
            }
            Command::GetGlobals => Response::Globals(self.data_globals()),
            Command::GetVariable { name } => {
                // Registers by name, then data labels as words, then text
                // labels as FUNCTION values.
                let var = if let Some(r) = parse_reg(&name) {
                    Some(Variable::new(
                        reg_name(r),
                        Scope::Register,
                        Value::primitive(Prim::Int(self.cpu.reg(r) as i32 as i64), "u32")
                            .with_location(state::Location::Register),
                    ))
                } else if let Some(addr) = self.cpu.program().label(&name) {
                    if addr >= self.cpu.program().data_base {
                        let word = self.cpu.read_word(addr).unwrap_or(0);
                        Some(Variable::new(
                            name,
                            Scope::Global,
                            Value::primitive(Prim::Int(word as i32 as i64), "word")
                                .with_location(state::Location::Global)
                                .with_address(addr as u64),
                        ))
                    } else {
                        Some(Variable::new(
                            name.clone(),
                            Scope::Global,
                            Value::function(name, "label")
                                .with_location(state::Location::Global)
                                .with_address(addr as u64),
                        ))
                    }
                } else {
                    None
                };
                Response::Variable(var)
            }
            Command::GetRegisters => Response::Registers(self.cpu.register_variables()),
            Command::ReadMemory { addr, len } => {
                match self.cpu.read_mem(addr as u32, len.min(64 * 1024) as u32) {
                    Some(bytes) => Response::Memory(bytes.to_vec()),
                    None => Response::Error {
                        message: format!("memory range {addr:#x}+{len} out of bounds"),
                    },
                }
            }
            // The dataflow analysis and the sanitizer are defined over
            // MiniC bytecode; assembly programs have neither.
            Command::Analyze => Response::Error {
                message: "static analysis is not supported for assembly programs".into(),
            },
            Command::Verify => Response::Error {
                message: "bytecode verification is not supported for assembly programs".into(),
            },
            Command::SetSanitizer { .. } => Response::Error {
                message: "sanitizer mode is not supported for assembly programs".into(),
            },
            Command::SetProfile { mode, period } => {
                if started && mode != obs::ProfileMode::Off {
                    return Response::Error {
                        message: "profiling must be armed before start".into(),
                    };
                }
                if mode == obs::ProfileMode::Off {
                    self.prof = None;
                } else {
                    let mut p = Box::new(obs::Profiler::new(mode, period));
                    // Frames alive at arm time (the entry label) enter the
                    // profile now, like the MiniC VM's seeding.
                    for sf in &self.shadow {
                        let id = p.intern(self.function_label(sf.entry));
                        p.enter(id);
                    }
                    self.prof = Some(p);
                }
                Response::Ok
            }
            Command::ProfileReport { .. } => Response::Profile(Box::new(
                self.prof
                    .as_deref()
                    .map(obs::Profiler::report)
                    .unwrap_or_default(),
            )),
            other => unreachable!("{} is served by the control core", other.kind()),
        }
    }
}

impl Engine for AsmEngine {
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

fn parse_u32(s: &str) -> Option<u32> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miniasm::asm::assemble;

    fn engine(src: &str) -> AsmEngine {
        AsmEngine::new(&assemble("t.s", src).unwrap())
    }

    fn paused(r: Response) -> PauseReason {
        match r {
            Response::Paused(p) => p,
            other => panic!("expected Paused, got {other:?}"),
        }
    }

    const SUM: &str = "main:\n    li t0, 0\n    li t1, 1\nloop:\n    li t2, 5\n    bgt t1, t2, done\n    add t0, t0, t1\n    addi t1, t1, 1\n    j loop\ndone:\n    mv a0, t0\n    li a7, 93\n    ecall";

    #[test]
    fn resume_runs_to_exit() {
        let mut e = engine(SUM);
        assert_eq!(paused(e.handle(Command::Start)), PauseReason::Started);
        let r = paused(e.handle(Command::Resume));
        assert_eq!(r, PauseReason::Exited(ExitStatus::Exited(15)));
        assert_eq!(e.handle(Command::GetExitCode), Response::ExitCode(Some(15)));
    }

    #[test]
    fn stepping_by_source_line() {
        let mut e = engine(SUM);
        e.handle(Command::Start);
        paused(e.handle(Command::Step)); // past li t0
        paused(e.handle(Command::Step));
        match e.handle(Command::GetRegisters) {
            Response::Registers(regs) => {
                let t0 = regs.iter().find(|r| r.name() == "t0").unwrap();
                assert_eq!(state::render_value(t0.value()), "0");
                let t1 = regs.iter().find(|r| r.name() == "t1").unwrap();
                assert_eq!(state::render_value(t1.value()), "1");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn line_breakpoint_hits_once_per_pass() {
        let mut e = engine(SUM);
        e.handle(Command::SetBreakLine { line: 7 }); // the add
        e.handle(Command::Start);
        let mut hits = 0;
        loop {
            match paused(e.handle(Command::Resume)) {
                PauseReason::Breakpoint { location, .. } => {
                    assert_eq!(location.line(), 7);
                    hits += 1;
                }
                PauseReason::Exited(_) => break,
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(hits, 5);
    }

    const CALLPROG: &str = "main:\n    li a0, 3\n    call double\n    li a7, 93\n    ecall\ndouble:\n    add a0, a0, a0\n    ret";

    #[test]
    fn function_breakpoint_and_tracking() {
        let mut e = engine(CALLPROG);
        e.handle(Command::TrackFunction {
            function: "double".into(),
            maxdepth: None,
        });
        e.handle(Command::Start);
        let r = paused(e.handle(Command::Resume));
        match r {
            PauseReason::FunctionCall { function, depth } => {
                assert_eq!(function, "double");
                assert_eq!(depth, 1);
            }
            other => panic!("unexpected {other}"),
        }
        // a0 holds the argument at entry.
        match e.handle(Command::GetVariable { name: "a0".into() }) {
            Response::Variable(Some(v)) => assert_eq!(state::render_value(v.value()), "3"),
            other => panic!("unexpected {other:?}"),
        }
        let r = paused(e.handle(Command::Resume));
        match r {
            PauseReason::FunctionReturn {
                function,
                return_value,
                ..
            } => {
                assert_eq!(function, "double");
                assert_eq!(return_value.as_deref(), Some("6"));
            }
            other => panic!("unexpected {other}"),
        }
        let r = paused(e.handle(Command::Resume));
        assert_eq!(r, PauseReason::Exited(ExitStatus::Exited(6)));
    }

    #[test]
    fn shadow_stack_frames_in_state() {
        let mut e = engine(CALLPROG);
        e.handle(Command::SetBreakFunc {
            function: "double".into(),
            maxdepth: None,
        });
        e.handle(Command::Start);
        paused(e.handle(Command::Resume));
        match e.handle(Command::GetState) {
            Response::State(st) => {
                let names: Vec<_> = st.frame.chain().map(|f| f.name().to_owned()).collect();
                assert_eq!(names, ["double", "main"]);
                assert!(st.frame.variable("a0").is_some());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn register_watchpoint() {
        let mut e = engine(SUM);
        e.handle(Command::Start);
        e.handle(Command::Watch {
            variable: "t1".into(),
        });
        let mut changes = Vec::new();
        for _ in 0..3 {
            match paused(e.handle(Command::Resume)) {
                PauseReason::Watchpoint { variable, new, .. } => {
                    assert_eq!(variable, "t1");
                    changes.push(new);
                }
                PauseReason::Exited(_) => break,
                other => panic!("unexpected {other}"),
            }
        }
        assert_eq!(changes, ["1", "2", "3"]);
    }

    #[test]
    fn memory_watch_on_data_label() {
        let src = ".data\ncounter: .word 0\n.text\nmain:\n    la t0, counter\n    li t1, 7\n    sw t1, 0(t0)\n    li a7, 10\n    ecall";
        let mut e = engine(src);
        e.handle(Command::Start);
        e.handle(Command::Watch {
            variable: "counter".into(),
        });
        let r = paused(e.handle(Command::Resume));
        assert!(matches!(r, PauseReason::Watchpoint { .. }));
    }

    #[test]
    fn next_steps_over_call() {
        let mut e = engine(CALLPROG);
        e.handle(Command::Start);
        paused(e.handle(Command::Step)); // li a0 done, at call line
        let r = paused(e.handle(Command::Next)); // steps over double
        assert_eq!(r, PauseReason::Step);
        match e.handle(Command::GetState) {
            Response::State(st) => {
                assert_eq!(st.frame.name(), "main");
                assert_eq!(st.frame.location().line(), 4); // li a7, 93
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// `finish` goes by depth: a step onto the `ret` has already passed
    /// the frame's `Return` event, and `finish` must still stop in main.
    #[test]
    fn finish_from_the_ret_stops_in_the_caller() {
        let mut e = engine(CALLPROG);
        e.handle(Command::Start);
        paused(e.handle(Command::Step)); // at the call
        paused(e.handle(Command::Step)); // into double, line 7
        assert_eq!(paused(e.handle(Command::Step)), PauseReason::Step);
        assert_eq!(e.cpu().current_line(), 8); // ret
        assert_eq!(paused(e.handle(Command::Finish)), PauseReason::Step);
        assert_eq!(e.cpu().current_line(), 4); // li a7, 93 in main
    }

    #[test]
    fn read_memory_and_globals() {
        let src = ".data\nvalue: .word 1234\n.text\nmain:\n    li a7, 10\n    ecall";
        let mut e = engine(src);
        e.handle(Command::Start);
        match e.handle(Command::GetGlobals) {
            Response::Globals(gs) => {
                let v = gs.iter().find(|g| g.name() == "value").unwrap();
                assert_eq!(state::render_value(v.value()), "1234");
            }
            other => panic!("unexpected {other:?}"),
        }
        let addr = e.cpu().program().label("value").unwrap();
        match e.handle(Command::ReadMemory {
            addr: addr as u64,
            len: 4,
        }) {
            Response::Memory(bytes) => assert_eq!(bytes, 1234i32.to_le_bytes()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn output_collected() {
        let src = ".data\nmsg: .asciz \"ok\"\n.text\nmain:\n    la a0, msg\n    li a7, 4\n    ecall\n    li a7, 10\n    ecall";
        let mut e = engine(src);
        e.handle(Command::Start);
        paused(e.handle(Command::Resume));
        assert_eq!(e.handle(Command::GetOutput), Response::Output("ok".into()));
    }

    #[test]
    fn crash_reported() {
        let src = "main:\n    li t0, 0x20000\n    lw t1, 0(t0)";
        let mut e = engine(src);
        e.handle(Command::Start);
        let r = paused(e.handle(Command::Resume));
        assert_eq!(r, PauseReason::Exited(ExitStatus::Crashed));
        match e.handle(Command::GetOutput) {
            Response::Output(o) => assert!(o.contains("out of range")),
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod label_lookup_tests {
    use super::*;
    use miniasm::asm::assemble;

    #[test]
    fn labels_resolve_as_variables() {
        let src = ".data\ncount: .word 7\n.text\nmain:\n    li a7, 10\n    ecall\nhelper:\n    ret";
        let mut e = AsmEngine::new(&assemble("t.s", src).unwrap());
        e.handle(Command::Start);
        match e.handle(Command::GetVariable {
            name: "count".into(),
        }) {
            Response::Variable(Some(v)) => {
                assert_eq!(state::render_value(v.value()), "7");
            }
            other => panic!("unexpected {other:?}"),
        }
        match e.handle(Command::GetVariable {
            name: "helper".into(),
        }) {
            Response::Variable(Some(v)) => {
                assert_eq!(v.value().abstract_type(), state::AbstractType::Function);
            }
            other => panic!("unexpected {other:?}"),
        }
        match e.handle(Command::GetVariable {
            name: "nonesuch".into(),
        }) {
            Response::Variable(None) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
