//! Pause reasons and source locations reported by the control interface.

use crate::diag::Diagnostic;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A position in the inferior's source code.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SourceLocation {
    file: String,
    line: u32,
}

impl SourceLocation {
    /// Creates a location from a file name and a 1-based line number.
    pub fn new(file: impl Into<String>, line: u32) -> Self {
        SourceLocation {
            file: file.into(),
            line,
        }
    }

    /// The source file name as given to `load_program`.
    pub fn file(&self) -> &str {
        &self.file
    }

    /// The 1-based line number.
    pub fn line(&self) -> u32 {
        self.line
    }
}

impl fmt::Display for SourceLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.file, self.line)
    }
}

/// How the inferior terminated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExitStatus {
    /// Normal termination with the given exit code.
    Exited(i64),
    /// The inferior's runtime raised an unrecoverable error.
    Crashed,
}

impl ExitStatus {
    /// Decodes an engine's exit code, where `-1` reports a crash (the
    /// code `GetExitCode` answers after a runtime error).
    pub fn from_code(code: i64) -> Self {
        if code == -1 {
            ExitStatus::Crashed
        } else {
            ExitStatus::Exited(code)
        }
    }

    /// The exit code for a normal exit, `None` for a crash.
    pub fn code(&self) -> Option<i64> {
        match self {
            ExitStatus::Exited(c) => Some(*c),
            ExitStatus::Crashed => None,
        }
    }
}

/// Why a control-interface call returned, i.e. why the inferior is paused.
///
/// This mirrors the paper's `pause_reason` (§II-B1): execution pauses
/// because (1) the program exited, (2) a watched variable changed, (3) a
/// tracked function was entered or exited, (4) a breakpoint was hit, or
/// (5) a single-stepping command finished.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PauseReason {
    /// `load_program` succeeded but `start` has not run yet.
    NotStarted,
    /// `start` completed: the inferior is paused before its first line.
    Started,
    /// A line or function breakpoint was hit.
    Breakpoint {
        /// Identifier returned when the breakpoint was created.
        id: u64,
        /// Where the inferior is paused.
        location: SourceLocation,
    },
    /// A watched variable changed value.
    Watchpoint {
        /// Identifier returned by `watch`.
        id: u64,
        /// The watched variable's name (qualified, e.g. `main::x`).
        variable: String,
        /// Rendering of the value before the write, if known.
        old: Option<String>,
        /// Rendering of the value after the write.
        new: String,
    },
    /// A tracked function was entered (paused after entry, arguments bound).
    FunctionCall {
        /// The tracked function's name.
        function: String,
        /// Call depth of the new frame.
        depth: u32,
    },
    /// A tracked function is about to return (frame still inspectable).
    FunctionReturn {
        /// The tracked function's name.
        function: String,
        /// Call depth of the returning frame.
        depth: u32,
        /// Rendering of the return value, if any.
        return_value: Option<String>,
    },
    /// A `step`, `next` or `finish` command completed.
    Step,
    /// The runtime sanitizer trapped on a memory-safety violation. The
    /// offending operation has already completed (benignly, against
    /// quarantined or shadow-tracked memory), so the inferior is still
    /// alive and resumable.
    Sanitizer {
        /// What the sanitizer detected.
        diagnostic: Diagnostic,
    },
    /// The inferior terminated.
    Exited(ExitStatus),
}

impl PauseReason {
    /// Whether the inferior is still alive (can be resumed).
    pub fn is_alive(&self) -> bool {
        !matches!(self, PauseReason::Exited(_) | PauseReason::NotStarted)
    }

    /// Stable short name of the variant, without its payload — used as a
    /// span tag in observability output.
    pub fn tag(&self) -> &'static str {
        match self {
            PauseReason::NotStarted => "NotStarted",
            PauseReason::Started => "Started",
            PauseReason::Breakpoint { .. } => "Breakpoint",
            PauseReason::Watchpoint { .. } => "Watchpoint",
            PauseReason::FunctionCall { .. } => "FunctionCall",
            PauseReason::FunctionReturn { .. } => "FunctionReturn",
            PauseReason::Step => "Step",
            PauseReason::Sanitizer { .. } => "Sanitizer",
            PauseReason::Exited(_) => "Exited",
        }
    }

    /// Whether this reason reports a tracked-function event.
    pub fn is_function_event(&self) -> bool {
        matches!(
            self,
            PauseReason::FunctionCall { .. } | PauseReason::FunctionReturn { .. }
        )
    }
}

impl fmt::Display for PauseReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PauseReason::NotStarted => write!(f, "not started"),
            PauseReason::Started => write!(f, "started"),
            PauseReason::Breakpoint { id, location } => {
                write!(f, "breakpoint {id} at {location}")
            }
            PauseReason::Watchpoint {
                variable, old, new, ..
            } => match old {
                Some(old) => write!(f, "watch {variable}: {old} -> {new}"),
                None => write!(f, "watch {variable}: -> {new}"),
            },
            PauseReason::FunctionCall { function, depth } => {
                write!(f, "call {function} (depth {depth})")
            }
            PauseReason::FunctionReturn {
                function,
                depth,
                return_value,
            } => match return_value {
                Some(rv) => write!(f, "return {function} (depth {depth}) -> {rv}"),
                None => write!(f, "return {function} (depth {depth})"),
            },
            PauseReason::Step => write!(f, "step"),
            PauseReason::Sanitizer { diagnostic } => write!(f, "sanitizer: {diagnostic}"),
            PauseReason::Exited(ExitStatus::Exited(c)) => write!(f, "exited ({c})"),
            PauseReason::Exited(ExitStatus::Crashed) => write!(f, "crashed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alive_classification() {
        assert!(!PauseReason::NotStarted.is_alive());
        assert!(PauseReason::Started.is_alive());
        assert!(PauseReason::Step.is_alive());
        assert!(PauseReason::Sanitizer {
            diagnostic: crate::Diagnostic::new(
                crate::DiagnosticKind::DoubleFree,
                3,
                "main",
                "freed twice"
            ),
        }
        .is_alive());
        assert!(!PauseReason::Exited(ExitStatus::Exited(0)).is_alive());
        assert!(!PauseReason::Exited(ExitStatus::Crashed).is_alive());
    }

    #[test]
    fn function_event_classification() {
        assert!(PauseReason::FunctionCall {
            function: "f".into(),
            depth: 1
        }
        .is_function_event());
        assert!(PauseReason::FunctionReturn {
            function: "f".into(),
            depth: 1,
            return_value: None
        }
        .is_function_event());
        assert!(!PauseReason::Step.is_function_event());
    }

    #[test]
    fn display_forms() {
        let loc = SourceLocation::new("a.py", 12);
        assert_eq!(loc.to_string(), "a.py:12");
        let bp = PauseReason::Breakpoint {
            id: 3,
            location: loc,
        };
        assert_eq!(bp.to_string(), "breakpoint 3 at a.py:12");
        let w = PauseReason::Watchpoint {
            id: 1,
            variable: "main::x".into(),
            old: Some("1".into()),
            new: "2".into(),
        };
        assert_eq!(w.to_string(), "watch main::x: 1 -> 2");
    }

    #[test]
    fn exit_status_code() {
        assert_eq!(ExitStatus::Exited(3).code(), Some(3));
        assert_eq!(ExitStatus::Crashed.code(), None);
    }

    #[test]
    fn pause_reason_serde_roundtrip() {
        let reasons = vec![
            PauseReason::NotStarted,
            PauseReason::Started,
            PauseReason::Step,
            PauseReason::Exited(ExitStatus::Exited(42)),
            PauseReason::Watchpoint {
                id: 7,
                variable: "g".into(),
                old: None,
                new: "[1, 2]".into(),
            },
            PauseReason::Sanitizer {
                diagnostic: crate::Diagnostic::new(
                    crate::DiagnosticKind::UseAfterFree,
                    9,
                    "main",
                    "load from freed block",
                ),
            },
        ];
        for r in reasons {
            let json = serde_json::to_string(&r).unwrap();
            let back: PauseReason = serde_json::from_str(&json).unwrap();
            assert_eq!(r, back);
        }
    }
}
