//! The flat phase's top-k readout works on the active array: with qubits
//! held out it must not build the full-width state. The process's peak RSS
//! is the witness, so this binary holds one test.

use flatdd::{ConversionPolicy, FlatDdConfig, FlatDdSimulator, GovernorConfig, Phase, RunContext};
use qcircuit::{generators, Circuit};

/// Peak resident set (`VmHWM`) in bytes, where `/proc` has it.
fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib << 10)
}

#[test]
fn top_amplitudes_of_a_narrow_state_stay_within_the_active_array() {
    // `supremacy:10,14` re-declared over 22 qubits: 10 active at
    // conversion, 12 held out, so the full state would be 64 MiB.
    let (n, narrow) = (22, generators::supremacy_n(10, 14, 42));
    let mut c = Circuit::new(n);
    for gate in narrow.iter() {
        c.push(gate.clone());
    }
    let cfg = FlatDdConfig {
        threads: 1,
        conversion: ConversionPolicy::AtGate(narrow.num_gates() / 2),
        // The conversion asks the budget for the 2^22-amplitude buffer it
        // reserves; an inherited budget must not refuse it.
        governor: GovernorConfig::default(),
        ..Default::default()
    };
    let mut sim = FlatDdSimulator::try_new_with(n, cfg, RunContext::isolated()).unwrap();
    sim.run(&c).unwrap();
    assert_eq!(sim.phase(), Phase::Dmav);
    let active = sim.context().metrics().gauge("sim.active_qubits").get();
    assert_eq!(active, 10.0);

    let Some(before) = peak_rss_bytes() else {
        return;
    };
    let top = sim.top_amplitudes(8);
    let grown = peak_rss_bytes().unwrap() - before;
    assert_eq!(top.len(), 8);
    for &(i, a) in &top {
        assert_eq!(a, sim.amplitude(i));
    }
    assert!(
        grown < 8 << 20,
        "top_amplitudes(8) raised VmHWM by {grown} bytes"
    );
}
