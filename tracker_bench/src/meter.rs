//! Measurement primitives: per-session call accounting, the port tap a
//! traced run interposes under every tracker, sample statistics, and
//! peak-RSS reads from `/proc`.

use easytracker::{PortWrapper, TrackerError};
use mi::transport::TransportCounters;
use mi::{Command, CommandPort, MiError, Response};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed tracker call of a drive phase.
pub struct CallRec {
    pub method: &'static str,
    pub ns: u64,
}

/// One MI roundtrip as the tap saw it.
pub struct Roundtrip {
    pub cmd: Command,
    pub resp: Result<Response, MiError>,
    pub ns: u64,
    /// Sent during the drive phase (as opposed to set-up or teardown).
    pub drive: bool,
}

type TapLog = Arc<Mutex<Vec<Roundtrip>>>;

/// Times every roundtrip between the tracker's supervisor and the real
/// port, in all three deployments.
struct TapPort {
    inner: Box<dyn CommandPort>,
    log: TapLog,
    drive: Arc<AtomicBool>,
}

impl CommandPort for TapPort {
    fn call(&mut self, command: Command) -> Result<Response, MiError> {
        self.call_deadline(command, None)
    }

    fn call_deadline(
        &mut self,
        command: Command,
        deadline: Option<Duration>,
    ) -> Result<Response, MiError> {
        let begin = Instant::now();
        let resp = self.inner.call_deadline(command.clone(), deadline);
        let ns = nanos(begin.elapsed());
        self.log.lock().expect("tap log").push(Roundtrip {
            cmd: command,
            resp: resp.clone(),
            ns,
            drive: self.drive.load(Ordering::Relaxed),
        });
        resp
    }

    fn counters(&self) -> TransportCounters {
        self.inner.counters()
    }
}

/// Accounting for one tracker session: every call attempted and failed,
/// the latency of every user action, and — in a traced run only — the
/// time of every drive-phase call and the tap's roundtrip log.
pub struct Meter {
    traced: bool,
    drive: Arc<AtomicBool>,
    tap: Option<TapLog>,
    pub attempted: u64,
    pub failed: u64,
    pub calls: Vec<CallRec>,
    /// Nanoseconds per user action: a control call plus the inspections
    /// that follow it, until the answer is in hand.
    pub actions: Vec<u64>,
}

impl Meter {
    pub fn new(traced: bool) -> Self {
        Meter {
            traced,
            drive: Arc::new(AtomicBool::new(false)),
            tap: None,
            attempted: 0,
            failed: 0,
            calls: Vec::new(),
            actions: Vec::new(),
        }
    }

    pub fn traced(&self) -> bool {
        self.traced
    }

    /// The port wrapper for the next tracker, when tracing.
    pub fn wrapper(&mut self) -> Option<PortWrapper> {
        if !self.traced {
            return None;
        }
        let log = TapLog::default();
        self.tap = Some(log.clone());
        let drive = self.drive.clone();
        Some(Box::new(move |inner| {
            Box::new(TapPort {
                inner,
                log: log.clone(),
                drive: drive.clone(),
            })
        }))
    }

    /// Runs one tracker call, counting it and timing it when traced.
    pub fn call<T>(
        &mut self,
        method: &'static str,
        f: impl FnOnce() -> Result<T, TrackerError>,
    ) -> Result<T, String> {
        self.attempted += 1;
        let timed = self.traced && self.drive.load(Ordering::Relaxed);
        let begin = Instant::now();
        let result = f();
        if timed {
            self.calls.push(CallRec {
                method,
                ns: nanos(begin.elapsed()),
            });
        }
        result.map_err(|e| {
            self.failed += 1;
            format!("{method} failed: {e}")
        })
    }

    /// Records one user action that began at `begin`.
    pub fn action(&mut self, begin: Instant) {
        self.actions.push(nanos(begin.elapsed()));
    }

    pub fn set_drive(&mut self, on: bool) {
        self.drive.store(on, Ordering::Relaxed);
    }

    /// The tap's roundtrips so far (empty when not traced).
    pub fn take_log(&mut self) -> Vec<Roundtrip> {
        self.tap.as_ref().map_or_else(Vec::new, |log| {
            std::mem::take(&mut *log.lock().expect("tap log"))
        })
    }

    /// Folds `other`'s counts and samples into this meter.
    pub fn absorb(&mut self, other: Meter) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.calls.extend(other.calls);
        self.actions.extend(other.actions);
    }
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Quantile `q` of ascending `sorted`, interpolating between ranks.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let frac = pos - lo as f64;
            sorted[lo] as f64 * (1.0 - frac) + sorted[hi] as f64 * frac
        }
    }
}

pub fn median(values: &[u64]) -> f64 {
    median_f64(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Peak resident set size (`VmHWM`) in KiB of `pid`, or of this process.
pub fn peak_rss_kb(pid: Option<u32>) -> Option<u64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_owned(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Waits until process `pid` has ended (gone or a zombie awaiting its
/// reaper), killing it if it outlives `patience`.
pub fn await_exit(pid: u32, patience: Duration) {
    let stat = format!("/proc/{pid}/stat");
    let ended = || match std::fs::read_to_string(&stat) {
        // The state letter follows the parenthesised command name.
        Ok(s) => s
            .rsplit(')')
            .next()
            .is_some_and(|r| r.trim_start().starts_with('Z')),
        Err(_) => true,
    };
    let begin = Instant::now();
    while !ended() {
        if begin.elapsed() > patience {
            let _ = std::process::Command::new("kill")
                .args(["-9", &pid.to_string()])
                .status();
            while !ended() {
                std::thread::sleep(Duration::from_millis(5));
            }
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}
