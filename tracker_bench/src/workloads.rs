//! The four workloads. Each builds its inputs and its output oracle from
//! the seed once, then runs *rounds*: set-up (compile, spawn the engine
//! or host, open the sessions, arm the control points), a drive phase
//! that is the tool-writer's session, an output check, and teardown.

use crate::meter::{await_exit, nanos, peak_rss_kb, Meter, Roundtrip};
use conformance::rng::Rng;
use easytracker::{
    Content, ExitStatus, MiTracker, PauseReason, Prim, ProgramSpec, ProgramState, Supervision,
    Tracker, Value,
};
use mi::HostHandle;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What the workloads need from the command line and the machine.
pub struct Env {
    pub server: PathBuf,
    pub seed: u64,
    /// Driver threads for multi-session workloads (at most `nproc`).
    pub drivers: usize,
}

/// One session's program and its captured roundtrips, kept by traced
/// rounds for the codec, engine and VM replays.
pub struct Replay {
    pub asm: bool,
    pub file: String,
    pub source: String,
    pub log: Vec<Roundtrip>,
}

/// Everything one round measured.
pub struct Round {
    /// Set-up times, ns: one per round, or one per session where a round
    /// sets up several sessions one after another.
    pub setups: Vec<u64>,
    pub drive: Duration,
    /// Drive wall time summed over driver threads (equals `drive` for
    /// single-threaded workloads): the denominator of `explained_frac`.
    pub thread_drive: Duration,
    pub meter: Meter,
    /// Peak RSS of the largest engine or host child, KiB.
    pub child_rss_kb: u64,
    /// First failed call or output check.
    pub error: Option<String>,
    pub replays: Vec<Replay>,
    /// `HostHandle` session opens, ns.
    pub opens: Vec<u64>,
    pub sessions: usize,
    /// Wall time of the recording (step) phases, ns.
    pub record_ns: u64,
    pub trace_keyframes: u64,
    pub trace_bytes: u64,
}

impl Round {
    fn new(traced: bool) -> Self {
        Round {
            setups: Vec::new(),
            drive: Duration::ZERO,
            thread_drive: Duration::ZERO,
            meter: Meter::new(traced),
            child_rss_kb: 0,
            error: None,
            replays: Vec::new(),
            opens: Vec::new(),
            sessions: 0,
            record_ns: 0,
            trace_keyframes: 0,
            trace_bytes: 0,
        }
    }

    fn fail(&mut self, e: String) {
        self.error.get_or_insert(e);
    }

    /// Folds a finished session, whose program is `(asm, file, source)`,
    /// into the round.
    fn close(&mut self, mut meter: Meter, tracker: &MiTracker, program: (bool, &str, &str)) {
        meter.set_drive(false);
        // A respawn is a failure the supervisor papered over.
        meter.failed += u64::from(tracker.respawns());
        let log = meter.take_log();
        if !log.is_empty() {
            let (asm, file, source) = program;
            self.replays.push(Replay {
                asm,
                file: file.to_owned(),
                source: source.to_owned(),
                log,
            });
        }
        self.meter.absorb(meter);
        self.sessions += 1;
    }
}

pub trait Workload: Sync {
    fn round(&self, env: &Env, traced: bool) -> Round;
}

pub const NAMES: [&str; 4] = [
    "inspect_every_call",
    "filtered_breakpoints",
    "hosted_classroom",
    "record_and_scrub",
];

/// Builds workload `name`'s inputs and oracle from `env.seed`.
pub fn build(name: &str, env: &Env) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "inspect_every_call" => Box::new(InspectEveryCall {
            fib: Fib::from_seed(13, env.seed),
        }),
        "filtered_breakpoints" => {
            Box::new(FilteredBreakpoints::new(Fib::from_seed(29, env.seed), 10))
        }
        "hosted_classroom" => Box::new(HostedClassroom::new(env.seed)?),
        "record_and_scrub" => Box::new(RecordAndScrub::new(env.seed)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

fn load(spec: ProgramSpec, meter: &mut Meter) -> Result<MiTracker, String> {
    let wrapper = meter.wrapper();
    meter.call("load", || {
        MiTracker::load_spec(spec, obs::Registry::new(), Supervision::default(), wrapper)
    })
}

fn int_of(value: &Value) -> Option<i64> {
    match value.content() {
        Content::Primitive(Prim::Int(v)) => Some(*v),
        _ => None,
    }
}

/// `bench::c_fib(n)` with its two base values drawn from the seed, so
/// every return value and the exit code depend on the seed while the
/// call tree (the work) does not.
struct Fib {
    n: u32,
    /// `fib(k)` for `k` in `0..=n`.
    table: Vec<i64>,
    source: String,
}

impl Fib {
    fn from_seed(n: u32, seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let base = rng.range(0, 5);
        let slope = rng.range(1, 5);
        let mut table = vec![base, base + slope];
        for k in 2..=n as usize {
            table.push(table[k - 1] + table[k - 2]);
        }
        table.truncate(n as usize + 1);
        let source = format!(
            "int fib(int n) {{\nif (n < 2) {{ return n * {slope} + {base}; }}\nreturn fib(n - 1) + fib(n - 2);\n}}\nint main() {{\nreturn fib({n});\n}}"
        );
        Fib { n, table, source }
    }

    fn value(&self, k: i64) -> Option<i64> {
        usize::try_from(k)
            .ok()
            .and_then(|k| self.table.get(k).copied())
    }

    /// Calls made by `fib(n)`: 2·F(n+1) − 1 with the standard F.
    fn calls(&self) -> u64 {
        let (mut a, mut b) = (0u64, 1u64);
        for _ in 0..=self.n {
            (a, b) = (b, a + b);
        }
        2 * a - 1
    }

    fn check_exit(&self, reason: &PauseReason) -> Result<(), String> {
        let want = self.table[self.n as usize];
        match reason {
            PauseReason::Exited(ExitStatus::Exited(code)) if *code == want => Ok(()),
            other => Err(format!("fib({}) should exit {want}, got {other:?}", self.n)),
        }
    }
}

/// The paper's canonical session over an `mi-server` child: track `fib`,
/// pause at every call and return, `get_state` at every pause.
struct InspectEveryCall {
    fib: Fib,
}

impl Workload for InspectEveryCall {
    fn round(&self, env: &Env, traced: bool) -> Round {
        let spec = ProgramSpec::c("fib.c", &self.fib.source).via_server(&env.server);
        fib_round(
            spec,
            &self.fib,
            traced,
            |t, meter| {
                meter
                    .call("track_function", || t.track_function("fib", None))
                    .map(drop)
            },
            |t, meter| self.drive(t, meter),
        )
    }
}

impl InspectEveryCall {
    /// Every pause gets a `get_state`, the return pauses too: with
    /// inspections at calls only, half the actions would be bare resumes
    /// and the median action would sit in the gap between the two kinds.
    fn drive(&self, t: &mut MiTracker, meter: &mut Meter) -> Result<(), String> {
        meter.call("start", || t.start())?;
        let (mut calls, mut returns) = (0u64, 0u64);
        let mut args = Vec::new();
        loop {
            let begin = Instant::now();
            let reason = meter.call("resume", || t.resume())?;
            if let PauseReason::Exited(_) = reason {
                meter.action(begin);
                self.fib.check_exit(&reason)?;
                break;
            }
            let state = meter.call("get_state", || t.get_state())?;
            meter.action(begin);
            let n = state.frame.variable("n").and_then(|v| int_of(v.value()));
            let n = n.ok_or("pause without an integer `n`")?;
            match &reason {
                PauseReason::FunctionCall { .. } => {
                    calls += 1;
                    args.push(n);
                }
                PauseReason::FunctionReturn { return_value, .. } => {
                    returns += 1;
                    if args.pop() != Some(n) {
                        return Err(format!("return pause of fib({n}) without a matching call"));
                    }
                    let got = return_value.as_deref().and_then(|v| v.parse::<i64>().ok());
                    if got.is_none() || got != self.fib.value(n) {
                        return Err(format!("fib({n}) returned {return_value:?}"));
                    }
                }
                other => return Err(format!("unexpected pause {other:?}")),
            }
        }
        let want = self.fib.calls();
        if calls != want || returns != want {
            return Err(format!(
                "fib({}) made {calls} call and {returns} return pauses, expected {want}",
                self.fib.n
            ));
        }
        Ok(())
    }
}

/// Times `Ping` roundtrips before the session (traced rounds only).
fn ping(t: &mut MiTracker, meter: &mut Meter) -> Result<(), String> {
    for _ in 0..4 {
        meter.call("heartbeat", || t.heartbeat())?;
    }
    Ok(())
}

/// A much larger fib in-process, paused only at calls no deeper than
/// `maxdepth`, with one `get_variable("n")` per pause.
struct FilteredBreakpoints {
    fib: Fib,
    maxdepth: u32,
    /// The `n` of every call at depth ≤ `maxdepth`, in call order.
    expected: Vec<i64>,
}

impl FilteredBreakpoints {
    fn new(fib: Fib, maxdepth: u32) -> Self {
        fn walk(n: i64, depth: u32, maxdepth: u32, out: &mut Vec<i64>) {
            if depth > maxdepth {
                return;
            }
            out.push(n);
            if n >= 2 {
                walk(n - 1, depth + 1, maxdepth, out);
                walk(n - 2, depth + 1, maxdepth, out);
            }
        }
        let mut expected = Vec::new();
        walk(i64::from(fib.n), 1, maxdepth, &mut expected);
        FilteredBreakpoints {
            fib,
            maxdepth,
            expected,
        }
    }

    fn drive(&self, t: &mut MiTracker, meter: &mut Meter) -> Result<(), String> {
        meter.call("start", || t.start())?;
        let mut seen = Vec::with_capacity(self.expected.len());
        loop {
            let begin = Instant::now();
            let reason = meter.call("resume", || t.resume())?;
            match &reason {
                PauseReason::Breakpoint { .. } => {
                    let n = meter.call("get_variable", || t.get_variable("n"))?;
                    meter.action(begin);
                    seen.push(
                        n.and_then(|v| int_of(v.value()))
                            .ok_or("pause without `n`")?,
                    );
                }
                PauseReason::Exited(_) => {
                    meter.action(begin);
                    self.fib.check_exit(&reason)?;
                    break;
                }
                other => return Err(format!("unexpected pause {other:?}")),
            }
        }
        if seen != self.expected {
            return Err(format!(
                "breakpoint pauses saw n = {seen:?}, expected {:?}",
                self.expected
            ));
        }
        Ok(())
    }
}

impl Workload for FilteredBreakpoints {
    fn round(&self, _env: &Env, traced: bool) -> Round {
        let spec = ProgramSpec::c("fib.c", &self.fib.source);
        fib_round(
            spec,
            &self.fib,
            traced,
            |t, meter| {
                let arm = || t.break_before_func("fib", Some(self.maxdepth));
                meter.call("break_before_func", arm).map(drop)
            },
            |t, meter| self.drive(t, meter),
        )
    }
}

/// One fib session as a round: load, arm, drive and check, tear down.
fn fib_round(
    spec: ProgramSpec,
    fib: &Fib,
    traced: bool,
    arm: impl FnOnce(&mut MiTracker, &mut Meter) -> Result<(), String>,
    drive: impl FnOnce(&mut MiTracker, &mut Meter) -> Result<(), String>,
) -> Round {
    let mut round = Round::new(traced);
    let mut meter = Meter::new(traced);
    let begin = Instant::now();
    let mut t = match load(spec, &mut meter) {
        Ok(t) => t,
        Err(e) => {
            round.fail(e);
            round.meter.absorb(meter);
            return round;
        }
    };
    let outcome = (|| {
        if traced {
            ping(&mut t, &mut meter)?;
        }
        arm(&mut t, &mut meter)?;
        round.setups.push(nanos(begin.elapsed()));
        meter.set_drive(true);
        let begin = Instant::now();
        let checked = drive(&mut t, &mut meter);
        round.drive = begin.elapsed();
        round.thread_drive = round.drive;
        checked
    })();
    if let Err(e) = outcome {
        round.fail(e);
    }
    round.child_rss_kb = t
        .engine_pid()
        .and_then(|p| peak_rss_kb(Some(p)))
        .unwrap_or(0);
    round.close(meter, &t, (false, "fib.c", &fib.source));
    round
}

/// What a hosted lesson does at each pause.
#[derive(Clone, Copy, Debug)]
enum Script {
    /// Step through the whole program.
    Step,
    /// Step `n` times, then resume to the end.
    StepThenResume(u32),
    /// A line breakpoint, resumed to the end.
    Breakpoint(u32),
    /// Track `f0`, resumed to the end.
    Track,
}

/// One observation of a lesson; a lesson's transcript must equal that of
/// a solo in-process session of the same program and script.
#[derive(Debug, PartialEq)]
enum Seen {
    Pause(PauseReason),
    State(Box<ProgramState>),
    Exit(Option<i64>),
    Output(String),
}

struct Lesson {
    asm: bool,
    file: String,
    source: String,
    script: Script,
    oracle: Vec<Seen>,
}

/// A lesson in progress.
struct LessonRun {
    lesson: usize,
    tracker: MiTracker,
    meter: Meter,
    /// How much of the oracle transcript this run has matched.
    checked: usize,
    controls: u32,
    done: bool,
    error: Option<String>,
}

impl LessonRun {
    /// One user action: a control call, then `get_state` at a live
    /// pause or the exit code and output at the end. The first, `start`,
    /// launches the program and is not timed as a pause. Returns what
    /// the action observed.
    fn act(&mut self, script: Script) -> Result<Vec<Seen>, String> {
        let begin = Instant::now();
        let launch = self.controls == 0;
        let (t, meter) = (&mut self.tracker, &mut self.meter);
        let reason = match (self.controls, script) {
            (0, _) => meter.call("start", || t.start())?,
            (_, Script::Step) => meter.call("step", || t.step())?,
            (k, Script::StepThenResume(n)) if k <= n => meter.call("step", || t.step())?,
            _ => meter.call("resume", || t.resume())?,
        };
        self.controls += 1;
        let seen = if reason.is_alive() {
            let state = meter.call("get_state", || t.get_state())?;
            vec![Seen::Pause(reason), Seen::State(Box::new(state))]
        } else {
            let code = meter.call("get_exit_code", || Ok(t.get_exit_code()))?;
            let output = meter.call("get_output", || t.get_output())?;
            self.done = true;
            vec![Seen::Pause(reason), Seen::Exit(code), Seen::Output(output)]
        };
        if !launch {
            meter.action(begin);
        }
        Ok(seen)
    }

    /// One action, checked against `lesson`'s oracle as it goes, so no
    /// transcript is kept.
    fn act_checked(&mut self, lesson: &Lesson) -> Result<(), String> {
        let seen = self.act(lesson.script)?;
        let end = self.checked + seen.len();
        if lesson.oracle.get(self.checked..end) != Some(&seen[..]) {
            return Err(format!(
                "{:?} diverged from its solo in-process oracle",
                lesson.script
            ));
        }
        self.checked = end;
        Ok(())
    }
}

/// Many seeded MiniC and MiniAsm lessons in one `mi-server --host` child
/// with two workers, driven round-robin by at most `nproc` threads.
struct HostedClassroom {
    lessons: Vec<Lesson>,
}

const HOST_WORKERS: usize = 2;
const LESSONS: usize = 96;
/// Lessons run programs of this many steps, so that every seed gives
/// rounds of about the same size.
const LESSON_STEPS: std::ops::RangeInclusive<u32> = 25..=45;

impl HostedClassroom {
    fn new(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let mut lessons = Vec::new();
        while lessons.len() < LESSONS {
            let i = lessons.len();
            let sub = rng.next_u64();
            // A quarter of the class writes assembly.
            let asm = i % 4 == 3;
            let (file, source) = if asm {
                let spec = conformance::gen::gen_asm(sub);
                (format!("lesson{i}.s"), conformance::gen::render_asm(&spec))
            } else {
                let program = conformance::gen::gen_program(sub);
                (format!("lesson{i}.c"), conformance::gen::render_c(&program))
            };
            let mut lesson = Lesson {
                asm,
                file,
                source,
                script: Script::Step,
                oracle: Vec::new(),
            };
            let mut probe = Meter::new(false);
            let mut t = load(lesson.spec(), &mut probe)?;
            let mut steps = 0;
            let mut reason = probe.call("start", || t.start())?;
            while reason.is_alive() {
                steps += 1;
                reason = probe.call("step", || t.step())?;
            }
            if !LESSON_STEPS.contains(&steps) {
                continue;
            }
            // The script kinds take turns, so every seed gets the same mix.
            lesson.script = match (i / 4) % if asm { 3 } else { 4 } {
                0 => Script::Step,
                1 => Script::StepThenResume(1 + rng.below(8) as u32),
                2 => {
                    let lines = probe.call("breakable_lines", || t.breakable_lines())?;
                    Script::Breakpoint(lines[rng.below(lines.len() as u64) as usize])
                }
                _ => Script::Track,
            };
            drop(t);
            let mut run = lesson.open(lesson.spec(), i, Meter::new(false))?;
            while !run.done {
                let seen = run.act(lesson.script)?;
                lesson.oracle.extend(seen);
            }
            lessons.push(lesson);
        }
        Ok(HostedClassroom { lessons })
    }
}

impl Lesson {
    fn spec(&self) -> ProgramSpec {
        if self.asm {
            ProgramSpec::asm(&self.file, &self.source)
        } else {
            ProgramSpec::c(&self.file, &self.source)
        }
    }

    fn open(&self, spec: ProgramSpec, index: usize, mut meter: Meter) -> Result<LessonRun, String> {
        let mut t = load(spec, &mut meter)?;
        if meter.traced() {
            ping(&mut t, &mut meter)?;
        }
        match self.script {
            Script::Breakpoint(line) => {
                meter.call("break_before_line", || t.break_before_line(line))?;
            }
            Script::Track => {
                meter.call("track_function", || t.track_function("f0", None))?;
            }
            Script::Step | Script::StepThenResume(_) => {}
        }
        Ok(LessonRun {
            lesson: index,
            tracker: t,
            meter,
            checked: 0,
            controls: 0,
            done: false,
            error: None,
        })
    }
}

impl Workload for HostedClassroom {
    fn round(&self, env: &Env, traced: bool) -> Round {
        let mut round = Round::new(traced);
        let begin = Instant::now();
        let host = match HostHandle::spawn_process(&env.server, HOST_WORKERS) {
            Ok(host) => host,
            Err(e) => {
                round.fail(format!("cannot spawn the host: {e}"));
                return round;
            }
        };
        let host_pid = host.host_pid();
        let mut runs = Vec::new();
        for (i, lesson) in self.lessons.iter().enumerate() {
            let open = Instant::now();
            match lesson.open(lesson.spec().via_host(&host), i, Meter::new(traced)) {
                Ok(run) => runs.push(run),
                Err(e) => round.fail(e),
            }
            round.opens.push(nanos(open.elapsed()));
        }
        round.setups.push(nanos(begin.elapsed()));

        let drivers = env.drivers.clamp(1, runs.len().max(1));
        let mut chunks: Vec<Vec<LessonRun>> = (0..drivers).map(|_| Vec::new()).collect();
        for (i, mut run) in runs.into_iter().enumerate() {
            run.meter.set_drive(true);
            chunks[i % drivers].push(run);
        }
        let drive = Instant::now();
        let lessons = &self.lessons;
        let driven: Vec<(Vec<LessonRun>, Duration)> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .into_iter()
                .map(|mut chunk| {
                    scope.spawn(move || {
                        let begin = Instant::now();
                        // One action per live lesson per pass: every lesson
                        // stays open in the host while a few are in flight.
                        while chunk.iter().any(|r| !r.done) {
                            for run in chunk.iter_mut().filter(|r| !r.done) {
                                if let Err(e) = run.act_checked(&lessons[run.lesson]) {
                                    run.error = Some(e);
                                    run.done = true;
                                }
                            }
                        }
                        (chunk, begin.elapsed())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("driver thread"))
                .collect()
        });
        round.drive = drive.elapsed();

        for (chunk, busy) in driven {
            round.thread_drive += busy;
            for run in chunk {
                let lesson = &self.lessons[run.lesson];
                if let Some(e) = run.error {
                    round.fail(format!("{}: {e}", lesson.file));
                } else if run.checked != lesson.oracle.len() {
                    round.fail(format!("{} ended before its oracle did", lesson.file));
                }
                round.close(
                    run.meter,
                    &run.tracker,
                    (lesson.asm, &lesson.file, &lesson.source),
                );
            }
        }
        round.child_rss_kb = peak_rss_kb(host_pid).unwrap_or(0);
        round.meter.failed += host.respawns();
        drop(host);
        if let Some(pid) = host_pid {
            await_exit(pid, Duration::from_secs(10));
        }
        round
    }
}

/// Seeded generated MiniC programs, each recorded while stepped to exit
/// and then scrubbed: random seeks and a backward walk, each followed by
/// `get_state`.
struct RecordAndScrub {
    programs: Vec<Scrubbed>,
}

struct Scrubbed {
    file: String,
    source: String,
    /// The state at every pause of a live, unrecorded session.
    live: Vec<ProgramState>,
    /// Seek targets: random pauses, then every pause from last to first.
    seeks: Vec<u64>,
}

const KEYFRAME_EVERY: u32 = 8;
const SCRUB_PROGRAMS: usize = 16;
/// Scrubbed programs pause this many times, so that every seed gives
/// rounds of about the same size.
const SCRUB_PAUSES: std::ops::RangeInclusive<usize> = 40..=52;

impl RecordAndScrub {
    fn new(seed: u64) -> Result<Self, String> {
        let mut rng = Rng::new(seed);
        let mut programs: Vec<Scrubbed> = Vec::new();
        while programs.len() < SCRUB_PROGRAMS {
            let file = format!("scrub{}.c", programs.len());
            let source = conformance::gen::render_c(&conformance::gen::gen_program(rng.next_u64()));
            let mut meter = Meter::new(false);
            let mut t = load(ProgramSpec::c(&file, &source), &mut meter)?;
            let mut live = Vec::new();
            let mut reason = meter.call("start", || t.start())?;
            while reason.is_alive() {
                live.push(meter.call("get_state", || t.get_state())?);
                reason = meter.call("step", || t.step())?;
            }
            if !SCRUB_PAUSES.contains(&live.len()) {
                continue;
            }
            let pauses = live.len() as u64;
            let mut seeks: Vec<u64> = (0..pauses).map(|_| rng.below(pauses)).collect();
            seeks.extend((0..pauses).rev());
            programs.push(Scrubbed {
                file,
                source,
                live,
                seeks,
            });
        }
        Ok(RecordAndScrub { programs })
    }
}

impl Scrubbed {
    fn drive(&self, t: &mut MiTracker, meter: &mut Meter, round: &mut Round) -> Result<(), String> {
        let write = Instant::now();
        let mut reason = meter.call("start", || t.start())?;
        let mut pauses = 0;
        while reason.is_alive() {
            pauses += 1;
            let begin = Instant::now();
            reason = meter.call("step", || t.step())?;
            meter.action(begin);
        }
        round.record_ns += nanos(write.elapsed());
        if pauses != self.live.len() {
            return Err(format!(
                "{}: {pauses} live pauses, expected {}",
                self.file,
                self.live.len()
            ));
        }
        for &pause in &self.seeks {
            let begin = Instant::now();
            let reason = meter.call("seek", || t.seek(pause))?;
            let state = meter.call("get_state", || t.get_state())?;
            meter.action(begin);
            let live = &self.live[pause as usize];
            if reason != live.reason || state != *live {
                return Err(format!(
                    "{}: scrubbed pause {pause} differs from the live one",
                    self.file
                ));
            }
        }
        Ok(())
    }
}

impl Workload for RecordAndScrub {
    fn round(&self, _env: &Env, traced: bool) -> Round {
        let mut round = Round::new(traced);
        for p in &self.programs {
            let mut meter = Meter::new(traced);
            let begin = Instant::now();
            let mut t = match load(ProgramSpec::c(&p.file, &p.source), &mut meter) {
                Ok(t) => t,
                Err(e) => {
                    round.fail(e);
                    round.meter.absorb(meter);
                    continue;
                }
            };
            let outcome = (|| {
                meter.call("record", || t.record(KEYFRAME_EVERY))?;
                if traced {
                    ping(&mut t, &mut meter)?;
                }
                round.setups.push(nanos(begin.elapsed()));
                meter.set_drive(true);
                let drive = Instant::now();
                let checked = p.drive(&mut t, &mut meter, &mut round);
                round.drive += drive.elapsed();
                meter.set_drive(false);
                checked?;
                let (_, keyframes, bytes) = meter.call("trace_stats", || t.trace_stats())?;
                round.trace_keyframes += keyframes;
                round.trace_bytes += bytes;
                Ok::<(), String>(())
            })();
            if let Err(e) = outcome {
                round.fail(e);
            }
            round.close(meter, &t, (false, &p.file, &p.source));
        }
        round.thread_drive = round.drive;
        round
    }
}
