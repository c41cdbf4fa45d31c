//! Differential fuzz runs.
//!
//! `fuzz_quick` runs on every `cargo test`. The `#[ignore]`d `fuzz_smoke`
//! tests are the bounded CI fuzz job (deterministic seed ranges, ≥200
//! generated programs per language pair):
//!
//! ```text
//! cargo test -p conformance -- --include-ignored fuzz_smoke
//! ```
//!
//! On divergence, the failure message carries the seed; the shrinker in
//! `conformance::shrink` turns the seed into a minimized corpus entry.

use conformance::Driver;

fn assert_conformant(driver: &Driver, seeds: std::ops::Range<u64>) {
    let mut failures = Vec::new();
    for seed in seeds {
        for d in driver.check_seed(seed) {
            failures.push(d.to_string());
        }
    }
    assert!(
        failures.is_empty(),
        "{} divergence(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn fuzz_quick() {
    let driver = Driver::new();
    assert_conformant(&driver, 0..25);
    let snap = driver.registry().snapshot();
    assert_eq!(snap.counter("conformance.programs_generated"), 50);
    assert_eq!(snap.counter("conformance.divergences"), 0);
    assert_eq!(snap.counter("conformance.pair.c_channel_vs_replay"), 25);
    assert_eq!(snap.counter("conformance.pair.c_unopt_vs_opt"), 25);
    assert_eq!(snap.counter("conformance.pair.py_live_vs_replay"), 25);
    assert_eq!(snap.counter("conformance.pair.c_vs_py_output"), 25);
    assert_eq!(snap.counter("conformance.pair.asm_channel_vs_replay"), 25);
}

#[test]
fn fuzz_quick_control_points() {
    let driver = Driver::new();
    let mut failures = Vec::new();
    for seed in 0..10 {
        let (div, _) = driver.check_control_points_c(seed);
        failures.extend(div.iter().map(|d| d.to_string()));
        let (div, _) = driver.check_control_points_py(seed);
        failures.extend(div.iter().map(|d| d.to_string()));
    }
    assert!(
        failures.is_empty(),
        "{} divergence(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The CI fuzz budget: 200 programs through every in-process pair.
#[test]
#[ignore = "bounded CI fuzz job; run with --include-ignored"]
fn fuzz_smoke() {
    let driver = Driver::new();
    assert_conformant(&driver, 0..200);
    let snap = driver.registry().snapshot();
    assert!(snap.counter("conformance.programs_generated") >= 400);
    assert_eq!(snap.counter("conformance.divergences"), 0);
    for pair in [
        "c_channel_vs_replay",
        "c_unopt_vs_opt",
        "py_live_vs_replay",
        "c_vs_py_output",
        "asm_channel_vs_replay",
    ] {
        assert_eq!(snap.counter(&format!("conformance.pair.{pair}")), 200);
    }
}

/// Control-point reason sequences, live vs replay, across the CI budget.
#[test]
#[ignore = "bounded CI fuzz job; run with --include-ignored"]
fn fuzz_smoke_control_points() {
    let driver = Driver::new();
    let mut failures = Vec::new();
    for seed in 0..50 {
        let (div, _) = driver.check_control_points_c(seed);
        failures.extend(div.iter().map(|d| d.to_string()));
        let (div, _) = driver.check_control_points_py(seed);
        failures.extend(div.iter().map(|d| d.to_string()));
    }
    assert!(
        failures.is_empty(),
        "{} divergence(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The RISC-V control-point oracle across the CI budget: live reason
/// sequences against a replay of the same program's recording.
#[test]
#[ignore = "bounded CI fuzz job; run with --include-ignored"]
fn fuzz_smoke_control_points_asm() {
    let driver = Driver::new();
    let mut failures = Vec::new();
    for seed in 0..200 {
        let (div, _) = driver.check_control_points_asm(seed);
        failures.extend(div.iter().map(|d| d.to_string()));
    }
    assert!(
        failures.is_empty(),
        "{} divergence(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
    let snap = driver.registry().snapshot();
    assert_eq!(
        snap.counter("conformance.pair.asm_control_points_vs_replay"),
        200
    );
}

/// The real-process leg: `mi-server` children over stdio pipes must
/// produce byte-identical serialized states to the in-process channel.
#[test]
#[ignore = "spawns child processes; run with --include-ignored"]
fn fuzz_smoke_process() {
    let server = conformance::mi_server_bin().expect("mi_server binary buildable");
    let driver = Driver::new();
    let mut failures = Vec::new();
    for seed in 0..12 {
        let program = conformance::gen::gen_program(seed);
        let c = conformance::gen::render_c(&program);
        failures.extend(
            driver
                .diff_c_channel_vs_process(seed, &c, &server)
                .iter()
                .map(|d| d.to_string()),
        );
        let asm = conformance::gen::render_asm(&conformance::gen::gen_asm(seed));
        failures.extend(
            driver
                .diff_asm_channel_vs_process(seed, &asm, &server)
                .iter()
                .map(|d| d.to_string()),
        );
    }
    assert!(
        failures.is_empty(),
        "{} divergence(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}
