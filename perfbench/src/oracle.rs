//! Correctness oracles that do not depend on the code under test: the
//! coupling map, layout bijectivity, and statevector simulation of each
//! output against its input.

use mirage_circuit::sim::{run, State};
use mirage_circuit::{Circuit, Gate};
use mirage_core::Layout;
use mirage_math::{Complex64, Rng};
use mirage_topology::CouplingMap;
use std::collections::BTreeMap;

/// Widest logical input the statevector oracle simulates.
pub const SIM_MAX_LOGICAL: usize = 12;
/// Widest compacted physical register the statevector oracle simulates.
pub const SIM_MAX_PHYSICAL: usize = 20;

/// Pass counts per oracle plus every failure seen.
#[derive(Debug, Default)]
pub struct Checks {
    passed: BTreeMap<&'static str, u64>,
    skipped: BTreeMap<&'static str, u64>,
    failures: Vec<String>,
}

impl Checks {
    /// Record one oracle verdict.
    pub fn check(&mut self, oracle: &'static str, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            *self.passed.entry(oracle).or_default() += 1;
        } else {
            self.failures.push(format!("{oracle}: {}", what()));
        }
    }

    /// Record an output an oracle could not judge (and why it is allowed
    /// to skip it).
    pub fn skip(&mut self, oracle: &'static str) {
        *self.skipped.entry(oracle).or_default() += 1;
    }

    /// Record a failure that is not tied to one oracle.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    /// Passes recorded for `oracle`.
    pub fn passed(&self, oracle: &str) -> u64 {
        self.passed.get(oracle).copied().unwrap_or(0)
    }

    /// True when nothing failed and every oracle in `required` passed at
    /// least once.
    pub fn ok(&self, required: &[&str]) -> bool {
        self.failures.is_empty() && required.iter().all(|o| self.passed(o) > 0)
    }

    /// One line per oracle with its counts, then the first failures.
    pub fn summary(&self) -> Vec<String> {
        let mut out = Vec::new();
        let names: std::collections::BTreeSet<&str> = self
            .passed
            .keys()
            .chain(self.skipped.keys())
            .copied()
            .collect();
        for name in names {
            let skipped = self.skipped.get(name).copied().unwrap_or(0);
            out.push(format!(
                "  {name:<22} {:>7} passed{}",
                self.passed(name),
                if skipped > 0 {
                    format!(", {skipped} not applicable")
                } else {
                    String::new()
                }
            ));
        }
        for f in self.failures.iter().take(20) {
            out.push(format!("  FAILED {f}"));
        }
        if self.failures.len() > 20 {
            out.push(format!("  ... {} failures in all", self.failures.len()));
        }
        out
    }
}

/// Every multi-qubit gate of `c` sits on a coupled pair of `topo`, and
/// `c` is exactly as wide as the device.
pub fn coupling_ok(c: &Circuit, topo: &CouplingMap) -> bool {
    c.n_qubits == topo.n_qubits()
        && c.instructions.iter().all(|i| match i.qubits.len() {
            1 => true,
            2 => topo.are_adjacent(i.qubits[0], i.qubits[1]),
            _ => false,
        })
}

/// Statevector equivalence of a routed output with its input.
///
/// Logical qubit `l` starts on physical `initial.phys(l)` and ends on
/// `final_.phys(l)`. Both circuits are run from the same random product
/// state (a seeded Ry·Rz on every logical qubit, so controls are not all
/// `|0⟩`), on a register compacted to the physical qubits the output
/// touches. `None` when the input is wider than [`SIM_MAX_LOGICAL`] or
/// the compacted register wider than [`SIM_MAX_PHYSICAL`].
pub fn statevector_ok(
    input: &Circuit,
    output: &Circuit,
    initial: &Layout,
    final_: &Layout,
    seed: u64,
) -> Option<bool> {
    let n_log = input.n_qubits;
    if n_log > SIM_MAX_LOGICAL {
        return None;
    }
    let mut used: std::collections::BTreeSet<usize> = output
        .instructions
        .iter()
        .flat_map(|i| i.qubits.iter().copied())
        .collect();
    for l in 0..n_log {
        used.insert(initial.phys(l));
        used.insert(final_.phys(l));
    }
    if used.len() > SIM_MAX_PHYSICAL {
        return None;
    }
    let compact: BTreeMap<usize, usize> = used.iter().enumerate().map(|(i, &p)| (p, i)).collect();

    let mut rng = Rng::new(seed);
    let prep: Vec<(f64, f64)> = (0..n_log)
        .map(|_| (rng.uniform_range(0.1, 3.0), rng.uniform_range(-3.0, 3.0)))
        .collect();

    let mut logical = Circuit::new(n_log);
    for (l, &(ry, rz)) in prep.iter().enumerate() {
        logical.ry(ry, l).rz(rz, l);
    }
    logical.extend(input);

    let mut physical = Circuit::new(used.len());
    for (l, &(ry, rz)) in prep.iter().enumerate() {
        let q = compact[&initial.phys(l)];
        physical.push(Gate::Ry(ry), &[q]).push(Gate::Rz(rz), &[q]);
    }
    for instr in &output.instructions {
        let qs: Vec<usize> = instr.qubits.iter().map(|q| compact[q]).collect();
        physical.push(instr.gate.clone(), &qs);
    }

    let s_log = run(&logical);
    let s_phys = run(&physical);
    let mut expected = vec![Complex64::ZERO; 1 << used.len()];
    for (s, &amp) in s_log.amps.iter().enumerate() {
        let mut t = 0usize;
        for l in 0..n_log {
            if s & (1 << l) != 0 {
                t |= 1 << compact[&final_.phys(l)];
            }
        }
        expected[t] = amp;
    }
    let expected = State {
        n: used.len(),
        amps: expected,
    };
    Some(s_phys.fidelity(&expected) > 1.0 - 1e-7)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statevector_oracle_accepts_a_correct_routing_and_rejects_a_wrong_one() {
        // Logical cx(0, 2) on a 3-line: route it with a swap of physical
        // 1 and 2, so logical 2 ends on physical 1.
        let mut input = Circuit::new(2);
        input.h(0).cx(0, 1);
        let initial = Layout::from_assignment(&[0, 2], 3);
        let mut routed = Circuit::new(3);
        routed.h(0).swap(1, 2).cx(0, 1);
        let final_ = Layout::from_assignment(&[0, 1], 3);
        assert_eq!(
            statevector_ok(&input, &routed, &initial, &final_, 1),
            Some(true)
        );
        // Claiming the logical qubit stayed on physical 2 is wrong.
        assert_eq!(
            statevector_ok(&input, &routed, &initial, &initial, 1),
            Some(false)
        );
        let topo = CouplingMap::line(3);
        assert!(coupling_ok(&routed, &topo));
        let mut bad = Circuit::new(3);
        bad.cx(0, 2);
        assert!(!coupling_ok(&bad, &topo));
    }

    #[test]
    fn checks_require_every_named_oracle() {
        let mut c = Checks::default();
        c.check("a", true, String::new);
        assert!(c.ok(&["a"]));
        assert!(!c.ok(&["a", "b"]));
        c.check("b", false, || "mismatch".to_owned());
        assert!(!c.ok(&["a"]));
    }
}
