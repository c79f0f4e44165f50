//! A seeded property runner for the test suites of this workspace.
//!
//! ```
//! use qcircuit::prop;
//! prop::check(16, |g| {
//!     let c = g.circuit(4, 1..20);
//!     assert_eq!(c.dagger().num_gates(), c.num_gates());
//! });
//! ```
//!
//! [`check`] runs the property on `cases` inputs drawn from a fixed seed
//! sequence, so every run of a test binary sees the same cases. A case that
//! panics is run again from the same seed with every generated circuit's
//! length halved, again and again while it keeps failing; the test then
//! fails with the panic of the smallest failing case and the line
//!
//! ```text
//! property failed; replay with FLATDD_PROP_SEED=<seed>/<halvings>
//! ```
//!
//! Setting that variable makes every `check` run exactly that one case
//! (select the property with the test filter).

use crate::circuit::Circuit;
use crate::gate::{Control, Gate, GateKind};
use crate::rng::{Rng, SplitMix64};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// First state of the case-seed sequence.
const BASE_SEED: u64 = 0xF1A7_DD5E_ED00_0001;

/// The replay variable (test runs only; the engines never read it).
const REPLAY_VAR: &str = "FLATDD_PROP_SEED";

/// One case of a property: a seeded source of inputs.
pub struct Gen {
    /// Scalar draws: `g.rng.range(1..4)`, `g.rng.f64_in(-1.0..1.0)`, ...
    pub rng: Rng,
    halvings: u32,
    /// Whether a further halving would still make some length smaller.
    can_shrink: bool,
}

impl Gen {
    /// A length in `range`; the part above `range.start` is what shrinking
    /// halves.
    fn len(&mut self, range: Range<usize>) -> usize {
        let excess = (self.rng.range(range.clone()) - range.start) >> self.halvings;
        self.can_shrink |= excess > 0;
        range.start + excess
    }

    /// One gate of [`Gen::circuit`].
    fn gate(&mut self, n: usize) -> Gate {
        use GateKind::*;
        const FIXED: [GateKind; 14] = [
            Id, X, Y, Z, H, S, Sdg, T, Tdg, SqrtX, SqrtXdg, SqrtY, SqrtYdg, SqrtW,
        ];
        let angle = |g: &mut Gen| g.rng.f64_in(-3.2..3.2);
        let kind = match self.rng.range(0..19) {
            14 => RX(angle(self)),
            15 => RY(angle(self)),
            16 => RZ(angle(self)),
            17 => Phase(angle(self)),
            18 => U(angle(self), angle(self), angle(self)),
            k => FIXED[k],
        };
        let target = self.rng.range(0..n);
        let mut controls: Vec<Control> = Vec::new();
        for _ in 0..self.rng.range(0..3) {
            let (qubit, positive) = (self.rng.range(0..n), self.rng.bool(0.5));
            if qubit != target && controls.iter().all(|c| c.qubit != qubit) {
                controls.push(Control { qubit, positive });
            }
        }
        Gate::controlled(kind, target, controls)
    }

    /// A random circuit on `n` qubits with a gate count in `gates`, drawn
    /// gate by gate: any named single-qubit kind (angles in `-3.2..3.2`)
    /// under zero to two controls of either polarity. A shrunk case keeps a
    /// prefix.
    pub fn circuit(&mut self, n: usize, gates: Range<usize>) -> Circuit {
        let mut c = Circuit::new(n);
        for _ in 0..self.len(gates) {
            c.push(self.gate(n));
        }
        c
    }
}

/// A failing case: how to draw it again, whether a further halving could
/// make it smaller, and what it panicked with.
struct Failure {
    seed: u64,
    halvings: u32,
    can_shrink: bool,
    payload: Box<dyn std::any::Any + Send>,
}

/// Parses `<seed>[/<halvings>]`.
fn parse_replay(s: &str) -> Option<(u64, u32)> {
    let (seed, halvings) = s.split_once('/').unwrap_or((s, "0"));
    Some((seed.trim().parse().ok()?, halvings.trim().parse().ok()?))
}

fn run_case(seed: u64, halvings: u32, prop: &mut impl FnMut(&mut Gen)) -> Result<(), Failure> {
    let mut g = Gen {
        rng: Rng::seed_from_u64(seed),
        halvings,
        can_shrink: false,
    };
    catch_unwind(AssertUnwindSafe(|| prop(&mut g))).map_err(|payload| Failure {
        seed,
        halvings,
        can_shrink: g.can_shrink,
        payload,
    })
}

/// The replayed case alone, or `cases` cases with the first failure shrunk.
fn run(
    cases: usize,
    replay: Option<(u64, u32)>,
    mut prop: impl FnMut(&mut Gen),
) -> Result<(), Failure> {
    if let Some((seed, halvings)) = replay {
        return run_case(seed, halvings, &mut prop);
    }
    let mut seeds = SplitMix64::new(BASE_SEED);
    for _ in 0..cases {
        let seed = seeds.next_u64();
        let Err(mut smallest) = run_case(seed, 0, &mut prop) else {
            continue;
        };
        while smallest.can_shrink {
            match run_case(seed, smallest.halvings + 1, &mut prop) {
                Ok(()) => break,
                Err(smaller) => smallest = smaller,
            }
        }
        return Err(smallest);
    }
    Ok(())
}

/// Checks `prop` on `cases` generated cases (see the module docs). The
/// property states its claims with plain `assert!`s.
pub fn check(cases: usize, prop: impl FnMut(&mut Gen)) {
    let replay = std::env::var(REPLAY_VAR).ok().map(|s| {
        parse_replay(&s).unwrap_or_else(|| panic!("{REPLAY_VAR}={s}: want <seed>[/<halvings>]"))
    });
    if let Err(f) = run(cases, replay, prop) {
        eprintln!(
            "property failed; replay with {REPLAY_VAR}={}/{}",
            f.seed, f.halvings
        );
        resume_unwind(f.payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_planted_failure_shrinks_and_its_handle_replays_it() {
        // Fails on every circuit of five gates or more.
        let planted = |seen: &mut Vec<Circuit>, g: &mut Gen| {
            let c = g.circuit(4, 1..40);
            seen.push(c.clone());
            assert!(c.num_gates() < 5, "planted: {} gates", c.num_gates());
        };
        let mut seen = Vec::new();
        let f = run(64, None, |g| planted(&mut seen, g)).expect_err("the plant must be found");
        // Halving the excess over one gate stops at the last length that
        // still fails: the next, 1 + (len - 1) / 2, is below five.
        let [.., shrunk, passed] = &seen[..] else {
            panic!("{seen:?}")
        };
        assert!(passed.num_gates() < 5 && (5..=8).contains(&shrunk.num_gates()));
        assert!(f.halvings > 0);
        let first_failing = &seen[seen.len() - 2 - f.halvings as usize];
        assert_eq!(shrunk.gates(), &first_failing.gates()[..shrunk.num_gates()]);

        let handle = format!("{}/{}", f.seed, f.halvings);
        let mut replayed = Vec::new();
        assert!(run(64, parse_replay(&handle), |g| planted(&mut replayed, g)).is_err());
        assert_eq!(replayed, std::slice::from_ref(shrunk));
        assert_eq!(parse_replay("17"), Some((17, 0)));
        assert_eq!(parse_replay("x/1"), None);
    }

    #[test]
    fn a_passing_property_runs_every_case_over_the_whole_alphabet() {
        let mut seen: Vec<Circuit> = Vec::new();
        check(50, |g| seen.push(g.circuit(4, 2..60)));
        assert_eq!(seen.len(), 50);
        assert!(seen.iter().all(|c| (2..60).contains(&c.num_gates())));
        seen.dedup();
        assert_eq!(seen.len(), 50, "cases must differ");
        let gates: Vec<&Gate> = seen.iter().flat_map(|c| c.iter()).collect();
        let mut names: Vec<_> = gates.iter().map(|g| g.kind.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 19, "{names:?}");
        assert!(gates.iter().any(|g| g.controls.iter().any(|c| !c.positive)));
        assert_eq!(gates.iter().map(|g| g.num_controls()).max(), Some(2));
    }
}
