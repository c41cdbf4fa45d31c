//! The per-layer report of a traced run, measured from outside the
//! program: tracker calls and tap roundtrips timed live, then the
//! captured frames replayed through the JSON codec, the captured command
//! sequences replayed into fresh engines (whose responses must match the
//! live ones), and each MiniC program run on a bare VM.

use crate::meter::{median, nanos, quantile, Roundtrip};
use crate::workloads::{Replay, Round};
use mi::asm_engine::AsmEngine;
use mi::minic_engine::MinicEngine;
use mi::{Command, CommandFrame, Engine, RecordingEngine, Response, ResponseFrame};
use std::collections::BTreeMap;
use std::time::Instant;

/// Tracker methods reported one by one.
const METHODS: [&str; 5] = ["resume", "step", "seek", "get_state", "get_variable"];
/// MI command kinds reported one by one.
const KINDS: [&str; 5] = ["Resume", "Step", "Seek", "GetState", "GetVariable"];
/// Kinds that run the inferior.
const CONTROL: [&str; 5] = ["Start", "Resume", "Step", "Next", "Finish"];

/// Named values in report order.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// p50, p99 (µs), total (µs per round) and count (per round) of `ns`.
    fn spread(&mut self, prefix: &str, mut ns: Vec<u64>, rounds: f64) {
        ns.sort_unstable();
        self.put(format!("{prefix}.p50"), quantile(&ns, 0.5) / 1e3, "us");
        self.put(format!("{prefix}.p99"), quantile(&ns, 0.99) / 1e3, "us");
        self.put(format!("{prefix}.total"), sum(&ns) / 1e3 / rounds, "us");
        self.put(format!("{prefix}.count"), ns.len() as f64 / rounds, "count");
    }
}

fn sum(ns: &[u64]) -> f64 {
    ns.iter().fold(0.0, |acc, &v| acc + v as f64)
}

/// Codec, engine and VM time re-measured from one session's capture.
#[derive(Default)]
struct Replayed {
    encode_ns: u64,
    decode_ns: u64,
    /// Encode plus decode, by command kind.
    codec_ns: BTreeMap<&'static str, u64>,
    bytes_sent: u64,
    bytes_received: u64,
    states: u64,
    state_bytes: u64,
    state_frames: u64,
    state_vars: u64,
    engine_ns: BTreeMap<&'static str, u64>,
    vm_ns: u64,
    vm_ops: u64,
}

/// Drive-phase roundtrips that the engine serves (not the serve loop's
/// `Ping`, not the teardown `Terminate`).
fn served(rt: &Roundtrip) -> bool {
    !matches!(
        rt.cmd,
        Command::Ping | Command::Terminate | Command::Telemetry { .. }
    )
}

fn replay_codec(log: &[Roundtrip], out: &mut Replayed) {
    for (seq, rt) in log.iter().enumerate() {
        let Ok(resp) = &rt.resp else { continue };
        if !rt.drive || !served(rt) {
            continue;
        }
        let command = CommandFrame {
            seq: seq as u64,
            cmd: rt.cmd.clone(),
            trace: None,
            session: None,
        };
        let response = ResponseFrame {
            seq: seq as u64,
            resp: resp.clone(),
            session: None,
        };
        let begin = Instant::now();
        let cmd_bytes = serde_json::to_vec(&command).expect("commands serialize");
        let resp_bytes = serde_json::to_vec(&response).expect("responses serialize");
        let encode = nanos(begin.elapsed());
        let begin = Instant::now();
        let decoded_cmd: CommandFrame =
            serde_json::from_slice(&cmd_bytes).expect("commands decode");
        let decoded_resp: ResponseFrame =
            serde_json::from_slice(&resp_bytes).expect("responses decode");
        let decode = nanos(begin.elapsed());
        std::hint::black_box((decoded_cmd, decoded_resp));
        out.encode_ns += encode;
        out.decode_ns += decode;
        *out.codec_ns.entry(rt.cmd.kind()).or_default() += encode + decode;
        out.bytes_sent += cmd_bytes.len() as u64;
        out.bytes_received += resp_bytes.len() as u64;
        if let Response::State(state) = resp {
            out.states += 1;
            out.state_bytes += serde_json::to_vec(state).expect("states serialize").len() as u64;
            let mut frames = 0;
            let mut vars = state.globals.len() as u64;
            let mut frame = Some(&state.frame);
            while let Some(f) = frame {
                frames += 1;
                vars += f.len() as u64;
                frame = f.parent();
            }
            out.state_frames += frames;
            out.state_vars += vars;
        }
    }
}

/// Feeds the captured commands into a fresh engine, timing the
/// drive-phase ones; every response must equal the live one.
fn replay_engine(replay: &Replay, out: &mut Replayed) -> Result<(), String> {
    let registry = obs::Registry::new();
    let mut engine: Box<dyn Engine> = if replay.asm {
        let program =
            miniasm::asm::assemble(&replay.file, &replay.source).map_err(|e| e.to_string())?;
        let mut e = AsmEngine::new(&program);
        e.set_registry(registry);
        Box::new(RecordingEngine::new(e))
    } else {
        let program = minic::compile(&replay.file, &replay.source).map_err(|e| e.to_string())?;
        let mut e = MinicEngine::new(&program);
        e.set_registry(registry);
        Box::new(RecordingEngine::new(e))
    };
    for rt in replay.log.iter().filter(|rt| served(rt)) {
        let Ok(live) = &rt.resp else {
            return Err(format!("{}: live `{}` failed", replay.file, rt.cmd.kind()));
        };
        let kind = rt.cmd.kind();
        let begin = Instant::now();
        let resp = engine.handle(rt.cmd.clone());
        let ns = nanos(begin.elapsed());
        if rt.drive {
            *out.engine_ns.entry(kind).or_default() += ns;
        }
        if resp != *live {
            return Err(format!(
                "{}: engine replay of `{kind}` answered {} where the live session got {}",
                replay.file,
                resp.summary(),
                live.summary()
            ));
        }
    }
    Ok(())
}

/// The same MiniC program on a bare VM, with no engine around it.
fn replay_vm(replay: &Replay, out: &mut Replayed) -> Result<(), String> {
    if replay.asm {
        return Ok(());
    }
    let program = minic::compile(&replay.file, &replay.source).map_err(|e| e.to_string())?;
    let mut vm = minic::vm::Vm::new(&program);
    let begin = Instant::now();
    let code = vm.run_to_completion().map_err(|e| e.to_string())?;
    out.vm_ns += nanos(begin.elapsed());
    std::hint::black_box(code);
    out.vm_ops += vm.ops_executed();
    Ok(())
}

/// Builds the layer report from the traced rounds, with the untraced
/// rounds of the same run as the tracing-overhead baseline.
pub fn analyse(traced: &[Round], untraced: &[Round]) -> Result<Report, String> {
    let rounds = traced.len().max(1) as f64;
    let mut report = Report::default();
    let mut out = Replayed::default();
    let replays: Vec<&Replay> = traced.iter().flat_map(|r| &r.replays).collect();
    for replay in &replays {
        replay_codec(&replay.log, &mut out);
        replay_engine(replay, &mut out)?;
        replay_vm(replay, &mut out)?;
    }
    let per_round = |ns: u64| ns as f64 / 1e3 / rounds;

    // easytracker: every drive-phase tracker call.
    let calls: Vec<_> = traced.iter().flat_map(|r| &r.meter.calls).collect();
    let call_ns: u64 = calls.iter().map(|c| c.ns).sum();
    for method in METHODS {
        let ns = calls
            .iter()
            .filter(|c| c.method == method)
            .map(|c| c.ns)
            .collect();
        report.spread(&format!("easytracker.call_us.{method}"), ns, rounds);
    }
    report.put("easytracker.call_us.total", per_round(call_ns), "us");

    // mi.port: the tap's roundtrips under the supervisor.
    let rts: Vec<&Roundtrip> = replays.iter().flat_map(|r| &r.log).collect();
    let drive_rts: Vec<_> = rts.iter().filter(|rt| rt.drive && served(rt)).collect();
    let rt_ns: u64 = drive_rts.iter().map(|rt| rt.ns).sum();
    for kind in KINDS {
        let ns = drive_rts
            .iter()
            .filter(|rt| rt.cmd.kind() == kind)
            .map(|rt| rt.ns)
            .collect();
        report.spread(&format!("mi.port.roundtrip_us.{kind}"), ns, rounds);
    }
    report.put("mi.port.roundtrip_us.total", per_round(rt_ns), "us");
    let self_ns = call_ns.saturating_sub(rt_ns);
    report.put("easytracker.self_us", per_round(self_ns), "us");

    // mi.protocol: the captured frames through serde_json again.
    let codec_ns = out.encode_ns + out.decode_ns;
    report.put("mi.protocol.encode_us", per_round(out.encode_ns), "us");
    report.put("mi.protocol.decode_us", per_round(out.decode_ns), "us");
    for kind in KINDS {
        let ns = out.codec_ns.get(kind).copied().unwrap_or(0);
        report.put(format!("mi.protocol.codec_us.{kind}"), per_round(ns), "us");
    }
    report.put(
        "mi.protocol.bytes_sent",
        out.bytes_sent as f64 / rounds,
        "bytes",
    );
    report.put(
        "mi.protocol.bytes_received",
        out.bytes_received as f64 / rounds,
        "bytes",
    );
    let per_state = |v: u64| {
        if out.states == 0 {
            0.0
        } else {
            v as f64 / out.states as f64
        }
    };
    report.put("state.bytes_per_state", per_state(out.state_bytes), "bytes");
    report.put(
        "state.frames_per_state",
        per_state(out.state_frames),
        "count",
    );
    report.put("state.vars_per_state", per_state(out.state_vars), "count");

    // mi.engine and minic.vm: the replays.
    let engine_ns: u64 = out.engine_ns.values().sum();
    for kind in KINDS {
        let ns = out.engine_ns.get(kind).copied().unwrap_or(0);
        report.put(format!("mi.engine.handle_us.{kind}"), per_round(ns), "us");
    }
    report.put("mi.engine.handle_us.total", per_round(engine_ns), "us");
    report.put("minic.vm.run_us", per_round(out.vm_ns), "us");
    report.put("minic.vm.ops", out.vm_ops as f64 / rounds, "count");
    let control_ns: u64 = CONTROL.iter().filter_map(|k| out.engine_ns.get(k)).sum();
    let overhead = if control_ns == 0 {
        0.0
    } else {
        (control_ns as f64 - out.vm_ns as f64) / control_ns as f64
    };
    report.put("mi.engine.control_overhead_frac", overhead, "frac");

    // mi.transport: what the roundtrip spends outside engine and codec.
    let other_ns = rt_ns as f64 - engine_ns as f64 - codec_ns as f64;
    report.put("mi.transport.other_us", other_ns / 1e3 / rounds, "us");
    let mut pings: Vec<u64> = rts
        .iter()
        .filter(|rt| matches!(rt.cmd, Command::Ping))
        .map(|rt| rt.ns)
        .collect();
    pings.sort_unstable();
    report.put("mi.transport.ping_us", quantile(&pings, 0.5) / 1e3, "us");

    // mi.host: session opens and the host child.
    let opens: Vec<u64> = traced
        .iter()
        .flat_map(|r| r.opens.iter().copied())
        .collect();
    let hosted = !opens.is_empty();
    report.put("mi.host.open_us", median(&opens) / 1e3, "us");
    let sessions: usize = traced.iter().map(|r| r.sessions).sum();
    report.put(
        "mi.host.sessions",
        if hosted {
            sessions as f64 / rounds
        } else {
            0.0
        },
        "count",
    );
    let host_kb = traced.iter().map(|r| r.child_rss_kb).max().unwrap_or(0);
    report.put(
        "mi.host.rss_mb",
        if hosted { host_kb as f64 / 1024.0 } else { 0.0 },
        "MB",
    );

    // trace: recording phases, seeks, and the stores they built.
    let record_ns: u64 = traced.iter().map(|r| r.record_ns).sum();
    report.put("trace.record_us", per_round(record_ns), "us");
    let mut seeks: Vec<u64> = calls
        .iter()
        .filter(|c| c.method == "seek")
        .map(|c| c.ns)
        .collect();
    seeks.sort_unstable();
    report.put("trace.seek_us.p50", quantile(&seeks, 0.5) / 1e3, "us");
    report.put("trace.seek_us.p99", quantile(&seeks, 0.99) / 1e3, "us");
    let bytes: u64 = traced.iter().map(|r| r.trace_bytes).sum();
    let keyframes: u64 = traced.iter().map(|r| r.trace_keyframes).sum();
    report.put("trace.bytes", bytes as f64 / rounds, "bytes");
    report.put("trace.keyframes", keyframes as f64 / rounds, "count");

    // Where the drive phase went, as shares of the timed tracker calls.
    let share = |ns: f64| {
        if call_ns == 0 {
            0.0
        } else {
            ns / call_ns as f64
        }
    };
    report.put("split.tracker_frac", share(self_ns as f64), "frac");
    report.put("split.engine_frac", share(engine_ns as f64), "frac");
    report.put("split.protocol_frac", share(codec_ns as f64), "frac");
    report.put("split.transport_frac", share(other_ns), "frac");

    // Benchmark health.
    let thread_ns: u64 = traced.iter().map(|r| nanos(r.thread_drive)).sum();
    let explained = if thread_ns == 0 {
        0.0
    } else {
        call_ns as f64 / thread_ns as f64
    };
    report.put("explained_frac", explained, "frac");
    let drive = |rs: &[Round]| median(&rs.iter().map(|r| nanos(r.drive)).collect::<Vec<_>>());
    let base = drive(untraced);
    let overhead = if base == 0.0 {
        0.0
    } else {
        drive(traced) / base
    };
    report.put("tracing_overhead_frac", overhead, "frac");
    Ok(report)
}
