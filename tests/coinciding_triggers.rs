//! Several control points can trigger on one event: a function
//! breakpoint and a tracked call on the same entry, a watch and a line
//! breakpoint on the same line, a line breakpoint on a tracked function's
//! entry or `ret` line. Every one of them is delivered, one per pause, in
//! the order `ReplayTracker` ranks them: function breakpoint, tracked
//! call, watch, line breakpoint, tracked return. Each case drives the
//! live tracker and a replay of a recording of the same program, and the
//! two pause sequences must be equal.

use easytracker::{init_tracker, PauseReason, Recording, ReplayTracker, Tracker};

/// A pause with the payload both legs agree on: a replay recovers no
/// return values, and reports a function breakpoint at the first line of
/// the body where the live C engine names the declaration line.
fn describe(r: &PauseReason) -> String {
    match r {
        PauseReason::Breakpoint { id, .. } => format!("breakpoint {id}"),
        PauseReason::Watchpoint {
            variable, old, new, ..
        } => format!("watch {variable}: {old:?} -> {new}"),
        PauseReason::FunctionCall { function, .. } => format!("call {function}"),
        PauseReason::FunctionReturn { function, .. } => format!("return {function}"),
        other => other.tag().to_string(),
    }
}

fn drive(t: &mut dyn Tracker, arm: fn(&mut dyn Tracker)) -> Vec<String> {
    arm(t);
    let mut seen = vec![describe(&t.start().unwrap())];
    for _ in 0..100 {
        let r = t.resume().unwrap();
        seen.push(describe(&r));
        if let PauseReason::Exited(_) = r {
            return seen;
        }
    }
    panic!("no exit after 100 pauses: {seen:?}");
}

/// Drives `arm` live and on a replay; returns the live sequence after
/// checking the replay produced the same one.
fn live_equals_replay(file: &str, src: &str, arm: fn(&mut dyn Tracker)) -> Vec<String> {
    let mut live = init_tracker(file, src).unwrap();
    let live_seen = drive(live.as_mut(), arm);
    live.terminate();
    let mut source = init_tracker(file, src).unwrap();
    let rec = Recording::capture(source.as_mut()).unwrap();
    source.terminate();
    let replay_seen = drive(&mut ReplayTracker::new(rec), arm);
    assert_eq!(live_seen, replay_seen, "{file}: live vs replay");
    live_seen
}

const C_SQUARES: &str = "\
int sq(int x) {
return x * x;
}
int main() {
int s = sq(2);
s = s + sq(3);
return s;
}
";

const ASM_DOUBLE: &str = "\
main:
    li a0, 3
    call double
    li a7, 93
    ecall
double:
    add a0, a0, a0
    ret
";

fn break_and_track(t: &mut dyn Tracker, function: &str) {
    t.break_before_func(function, None).unwrap();
    t.track_function(function, None).unwrap();
}

#[test]
fn function_breakpoint_and_tracked_call_on_one_entry() {
    let seen = live_equals_replay("p.c", C_SQUARES, |t| break_and_track(t, "sq"));
    let per_call = ["breakpoint 1", "call sq", "return sq"];
    let expected: Vec<_> = ["Started"]
        .into_iter()
        .chain(per_call)
        .chain(per_call)
        .chain(["Exited"])
        .collect();
    assert_eq!(seen, expected);

    let seen = live_equals_replay("p.s", ASM_DOUBLE, |t| break_and_track(t, "double"));
    assert_eq!(
        seen,
        [
            "Started",
            "breakpoint 1",
            "call double",
            "return double",
            "Exited"
        ]
    );
}

#[test]
fn watch_and_line_breakpoint_on_a_shadowing_parameter() {
    const SRC: &str = "\
int f(int x) {
return x + 1;
}
int main() {
int x = 5;
int y = f(7);
return y + x;
}
";
    let seen = live_equals_replay("p.c", SRC, |t| {
        t.watch("x").unwrap();
        t.break_before_line(2).unwrap();
    });
    let at_entry = seen
        .iter()
        .position(|s| s == "watch x: Some(\"5\") -> 7")
        .expect("the parameter shadows the caller's x");
    assert_eq!(seen[at_entry + 1], "breakpoint 2");
}

#[test]
fn line_breakpoint_on_a_tracked_entry_line() {
    let seen = live_equals_replay("p.s", ASM_DOUBLE, |t| {
        t.track_function("double", None).unwrap();
        t.break_before_line(7).unwrap();
    });
    assert_eq!(
        seen,
        [
            "Started",
            "call double",
            "breakpoint 2",
            "return double",
            "Exited"
        ]
    );
}

#[test]
fn line_breakpoint_on_a_tracked_ret_line() {
    let seen = live_equals_replay("p.s", ASM_DOUBLE, |t| {
        t.track_function("double", None).unwrap();
        t.break_before_line(8).unwrap();
    });
    assert_eq!(
        seen,
        [
            "Started",
            "call double",
            "breakpoint 2",
            "return double",
            "Exited"
        ]
    );
}

/// The one ordering the two legs cannot share. A MiniC `return` line runs
/// its code before the VM reports the return, so a `next` that lands on
/// it completes there, and the return comes at the next resume. A replay
/// sees lines, not instructions: it ranks the return into the landing
/// line and reports it in place of the step. (On RISC-V the `ret` is the
/// line's own instruction, and both legs report the return.)
#[test]
fn next_onto_a_tracked_return_line_is_finer_live_than_replayed() {
    const SRC: &str = "\
int f(int x) {
int y = x + 1;
return y;
}
int main() {
int a = f(1);
return a;
}
";
    fn drive(t: &mut dyn Tracker) -> Vec<String> {
        t.track_function("f", None).unwrap();
        t.break_before_line(2).unwrap();
        let mut seen = vec![describe(&t.start().unwrap())];
        seen.push(describe(&t.resume().unwrap()));
        seen.push(describe(&t.resume().unwrap()));
        seen.push(describe(&t.next().unwrap()));
        while seen.last().is_none_or(|s| s != "Exited") {
            seen.push(describe(&t.resume().unwrap()));
        }
        seen
    }
    let mut live = init_tracker("p.c", SRC).unwrap();
    assert_eq!(
        drive(live.as_mut()),
        [
            "Started",
            "call f",
            "breakpoint 2",
            "Step",
            "return f",
            "Exited"
        ]
    );
    live.terminate();
    let mut source = init_tracker("p.c", SRC).unwrap();
    let rec = Recording::capture(source.as_mut()).unwrap();
    assert_eq!(
        drive(&mut ReplayTracker::new(rec)),
        ["Started", "call f", "breakpoint 2", "return f", "Exited"]
    );
}

#[test]
fn next_onto_a_tracked_ret_reports_the_return() {
    fn drive(t: &mut dyn Tracker) -> Vec<String> {
        t.track_function("double", None).unwrap();
        t.break_before_line(7).unwrap();
        t.start().unwrap();
        let mut seen = vec![describe(&t.resume().unwrap())];
        seen.push(describe(&t.resume().unwrap()));
        seen.push(describe(&t.next().unwrap()));
        seen.push(describe(&t.resume().unwrap()));
        seen
    }
    let expected = ["call double", "breakpoint 2", "return double", "Exited"];
    let mut live = init_tracker("p.s", ASM_DOUBLE).unwrap();
    assert_eq!(drive(live.as_mut()), expected);
    live.terminate();
    let mut source = init_tracker("p.s", ASM_DOUBLE).unwrap();
    let rec = Recording::capture(source.as_mut()).unwrap();
    assert_eq!(drive(&mut ReplayTracker::new(rec)), expected);
}

/// `finish` from a tracked-return pause, which has already delivered the
/// frame's return, still stops in the caller.
#[test]
fn finish_after_the_return_was_delivered_stops_in_the_caller() {
    fn drive(t: &mut dyn Tracker) -> Vec<String> {
        t.track_function("double", None).unwrap();
        t.start().unwrap();
        let mut seen = vec![describe(&t.resume().unwrap())];
        seen.push(describe(&t.resume().unwrap()));
        seen.push(describe(&t.finish().unwrap()));
        seen.push(format!("{:?}", t.current_line()));
        seen.push(describe(&t.resume().unwrap()));
        seen
    }
    let expected = ["call double", "return double", "Step", "Some(4)", "Exited"];
    let mut live = init_tracker("p.s", ASM_DOUBLE).unwrap();
    assert_eq!(drive(live.as_mut()), expected);
    live.terminate();
    let mut source = init_tracker("p.s", ASM_DOUBLE).unwrap();
    let rec = Recording::capture(source.as_mut()).unwrap();
    assert_eq!(drive(&mut ReplayTracker::new(rec)), expected);
}
