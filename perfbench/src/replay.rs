//! The traced replay of `mirage_core::transpile`.
//!
//! `transpile` runs its layers inside private engine methods, so the
//! benchmark cannot put spans inside it. Instead this module calls the
//! same public functions in the same order — input cleaning, the trial
//! engine's VF2 pre-pass, the DAG/Weyl precompute, layout proposals,
//! SABRE refinement and routing trials drawn from the engine's
//! `SeedSchedule`, mirror absorption, post-selection, and the winner's
//! metrics — with a span around each layer call. A replay that does not
//! reproduce `transpile`'s output exactly is reported as a failure by the
//! caller, never as layer numbers for a different program.

use crate::trace::Tracer;
use mirage_circuit::consolidate::consolidate;
use mirage_circuit::{passes, Circuit, Dag};
use mirage_core::pipeline::Metrics;
use mirage_core::placement::{apply_layout, StrategyKind};
use mirage_core::router::{absorb_adjacent_swaps, node_coords, route_with_scratch, RouterScratch};
use mirage_core::trials::{aggression_for_trial, SeedSchedule};
use mirage_core::{
    Aggression, Layout, Metric, RoutedCircuit, RouterConfig, Target, TranspileOptions,
    TranspiledCircuit, TrialEngine,
};
use mirage_math::Rng;

/// Work counted during replays (summed over every replay it is passed
/// to).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Gates left after input cleaning and consolidation.
    pub gates_out: u64,
    /// Jobs the VF2 pre-pass embedded without routing.
    pub vf2_embedded: u64,
    /// `route_with_scratch` calls made by layout refinement.
    pub refine_routes: u64,
    /// `route_with_scratch` calls made by routing trials.
    pub route_routes: u64,
    /// SWAPs inserted by routing trials (before absorption).
    pub route_swaps: u64,
    /// Mirror gates the routing trials accepted.
    pub route_mirrors: u64,
    /// Two-qubit gates the routing trials offered to the mirror layer.
    pub route_mirror_candidates: u64,
    /// SWAPs folded into mirror blocks by absorption.
    pub absorb_fused: u64,
    /// Metric evaluations made by post-selection.
    pub score_calls: u64,
    /// Routed candidates post-selection chose among.
    pub score_candidates: u64,
}

impl Counts {
    /// Add another replay's counts to these.
    pub fn add(&mut self, c: &Counts) {
        self.gates_out += c.gates_out;
        self.vf2_embedded += c.vf2_embedded;
        self.refine_routes += c.refine_routes;
        self.route_routes += c.route_routes;
        self.route_swaps += c.route_swaps;
        self.route_mirrors += c.route_mirrors;
        self.route_mirror_candidates += c.route_mirror_candidates;
        self.absorb_fused += c.absorb_fused;
        self.score_calls += c.score_calls;
        self.score_candidates += c.score_candidates;
    }
}

/// Layer span names, in pipeline order.
pub const LAYERS: &[&str] = &[
    "frontend",
    "placement",
    "vf2",
    "precompute",
    "refine",
    "route",
    "absorb",
    "score",
    "metrics",
];

/// Replay `transpile(circuit, target, opts)` with a span around each
/// layer call. The caller has already checked the inputs `transpile`
/// validates (trial mixes, width, connectivity).
pub fn replay(
    circuit: &Circuit,
    target: &Target,
    opts: &TranspileOptions,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> TranspiledCircuit {
    let topo = target.topology();
    let (consolidated, wire_perm) = tr.span("frontend", || {
        let cleaned = passes::clean(circuit);
        let (elided, wire_perm) = passes::elide_swaps(&cleaned);
        (consolidate(&elided), wire_perm)
    });
    counts.gates_out += consolidated.gate_count() as u64;

    let engine = tr.span("placement", || {
        TrialEngine::new(&consolidated, target).with_vf2_budget(opts.vf2_budget)
    });

    if opts.use_vf2 {
        if let Some(layout) = tr.span("vf2", || engine.vf2_layout()) {
            counts.vf2_embedded += 1;
            return tr.span("metrics", || {
                let placed = apply_layout(&consolidated, &layout);
                let final_assignment: Vec<usize> = (0..circuit.n_qubits)
                    .map(|w| layout.phys(wire_perm[w]))
                    .collect();
                let final_layout = Layout::from_assignment(&final_assignment, topo.n_qubits());
                let metrics = Metrics {
                    depth_estimate: target.depth_estimate(&placed),
                    total_gate_cost: target.total_gate_cost(&placed),
                    two_qubit_gates: placed.two_qubit_gate_count(),
                    swaps_inserted: 0,
                    mirrors_accepted: 0,
                    mirror_candidates: 0,
                    mirror_rate: 0.0,
                    estimated_success: target
                        .estimated_success(&placed, final_layout.real_assignment()),
                };
                TranspiledCircuit {
                    circuit: placed,
                    initial_layout: layout,
                    final_layout,
                    metrics,
                    used_vf2: true,
                }
            });
        }
    }

    let (dag_fwd, dag_bwd, coords_fwd, coords_bwd) = tr.span("precompute", || {
        let dag_fwd = Dag::from_circuit(&consolidated);
        let dag_bwd = Dag::from_circuit(&consolidated.reversed());
        let coords_fwd = node_coords(&dag_fwd);
        let coords_bwd = node_coords(&dag_bwd);
        (dag_fwd, dag_bwd, coords_fwd, coords_bwd)
    });

    // The engine's serial trial loop: one scratch for every trial.
    let trials = &opts.trials;
    let mirage = opts.router.uses_mirrors();
    let mut scratch = RouterScratch::new();
    let mut candidates: Vec<RoutedCircuit> = Vec::new();
    for trial in 0..trials.layout_trials {
        let mut rng = Rng::new(SeedSchedule::new(trials.seed).trial_seed(trial));
        let kind = StrategyKind::for_trial(trial, trials.layout_trials, &trials.strategy_mix);
        let layout = tr.span("placement", || {
            let proposed = if kind == StrategyKind::Vf2Embed {
                engine.vf2_layout()
            } else {
                kind.strategy().propose(engine.context(), &mut rng)
            };
            proposed.unwrap_or_else(|| {
                let ctx = engine.context();
                Layout::random(ctx.n_logical(), ctx.n_physical(), &mut rng)
            })
        });

        let mut refine = |config: &RouterConfig, mut layout: Layout| {
            for _ in 0..trials.fwd_bwd_iters {
                let fwd = route_with_scratch(
                    &dag_fwd,
                    &coords_fwd,
                    target,
                    layout,
                    config,
                    &mut rng,
                    &mut scratch,
                );
                let bwd = route_with_scratch(
                    &dag_bwd,
                    &coords_bwd,
                    target,
                    fwd.final_layout,
                    config,
                    &mut rng,
                    &mut scratch,
                );
                counts.refine_routes += 2;
                layout = bwd.final_layout;
            }
            layout
        };
        let plain = tr.span("refine", || {
            refine(&RouterConfig::default(), layout.clone())
        });
        let mirrored = if mirage {
            let config = RouterConfig {
                aggression: Some(Aggression::A1),
                ..RouterConfig::default()
            };
            tr.span("refine", || refine(&config, layout))
        } else {
            plain.clone()
        };

        for t in 0..trials.routing_trials {
            let aggression = if mirage {
                Some(aggression_for_trial(
                    t,
                    trials.routing_trials,
                    &trials.aggression_mix,
                ))
            } else {
                None
            };
            let mut config = RouterConfig {
                aggression,
                ..RouterConfig::default()
            };
            if let Some(lambda) = trials.mirror_lambda {
                config.mirror_heuristic_weight = lambda;
            }
            let mut trial_rng = rng.spawn();
            let start = if aggression == Some(Aggression::A0) || t % 2 == 0 {
                plain.clone()
            } else {
                mirrored.clone()
            };
            let mut routed = tr.span("route", || {
                route_with_scratch(
                    &dag_fwd,
                    &coords_fwd,
                    target,
                    start,
                    &config,
                    &mut trial_rng,
                    &mut scratch,
                )
            });
            counts.route_routes += 1;
            counts.route_swaps += routed.swaps_inserted as u64;
            counts.route_mirrors += routed.mirrors_accepted as u64;
            counts.route_mirror_candidates += routed.mirror_candidates as u64;
            if mirage && aggression != Some(Aggression::A0) {
                let (fused_circuit, fused) =
                    tr.span("absorb", || absorb_adjacent_swaps(&routed.circuit));
                routed.circuit = fused_circuit;
                routed.swaps_inserted -= fused;
                routed.mirrors_accepted += fused;
                routed.mirror_candidates += fused;
                counts.absorb_fused += fused as u64;
            }
            candidates.push(routed);
        }
    }

    counts.score_candidates += candidates.len() as u64;
    let mut score_calls = 0u64;
    let mut best = tr.span("score", || {
        let mut score = |r: &RoutedCircuit| {
            score_calls += 1;
            match trials.metric {
                Metric::SwapCount => r.swaps_inserted as f64,
                Metric::Depth => target.depth_estimate(&r.circuit),
                Metric::EstimatedSuccess => -r.log_success(target),
            }
        };
        candidates
            .into_iter()
            .min_by(|a, b| score(a).total_cmp(&score(b)))
            .expect("at least one routing trial ran")
    });
    counts.score_calls += score_calls;

    tr.span("metrics", || {
        let adjusted: Vec<usize> = (0..circuit.n_qubits)
            .map(|w| best.final_layout.phys(wire_perm[w]))
            .collect();
        best.final_layout = Layout::from_assignment(&adjusted, topo.n_qubits());
        let metrics = Metrics {
            depth_estimate: target.depth_estimate(&best.circuit),
            total_gate_cost: target.total_gate_cost(&best.circuit),
            two_qubit_gates: best.circuit.two_qubit_gate_count(),
            swaps_inserted: best.swaps_inserted,
            mirrors_accepted: best.mirrors_accepted,
            mirror_candidates: best.mirror_candidates,
            mirror_rate: best.mirror_rate(),
            estimated_success: best.estimated_success(target),
        };
        TranspiledCircuit {
            circuit: best.circuit,
            initial_layout: best.initial_layout,
            final_layout: best.final_layout,
            metrics,
            used_vf2: false,
        }
    })
}

/// Why a replay differs from `transpile`'s result, if it does.
pub fn mismatch(replayed: &TranspiledCircuit, reference: &TranspiledCircuit) -> Option<String> {
    let (a, b) = (replayed, reference);
    if a.circuit.fingerprint() != b.circuit.fingerprint() {
        return Some(format!(
            "fingerprint {:016X} != transpile() {:016X}",
            a.circuit.fingerprint(),
            b.circuit.fingerprint()
        ));
    }
    if a.initial_layout != b.initial_layout || a.final_layout != b.final_layout {
        return Some("layouts differ from transpile()".to_owned());
    }
    if a.used_vf2 != b.used_vf2
        || a.metrics.depth_estimate.to_bits() != b.metrics.depth_estimate.to_bits()
        || a.metrics.swaps_inserted != b.metrics.swaps_inserted
        || a.metrics.mirrors_accepted != b.metrics.mirrors_accepted
    {
        return Some("metrics differ from transpile()".to_owned());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_circuit::generators::{ghz, qft, two_local_full};
    use mirage_core::{transpile, RouterKind};
    use mirage_topology::CouplingMap;

    #[test]
    fn replay_reproduces_transpile_on_routed_and_embedded_jobs() {
        let target = Target::sqrt_iswap(CouplingMap::line(6));
        let cases = [
            (qft(6, false), RouterKind::Mirage),
            (two_local_full(5, 1, 3), RouterKind::Sabre),
            (ghz(5), RouterKind::Mirage),
        ];
        for (seed, (circuit, router)) in cases.iter().enumerate() {
            let opts = TranspileOptions::quick(*router, seed as u64 + 1);
            let reference = transpile(circuit, &target, &opts).expect("transpiles");
            let mut tr = Tracer::new();
            let mut counts = Counts::default();
            let replayed = replay(circuit, &target, &opts, &mut tr, &mut counts);
            assert_eq!(mismatch(&replayed, &reference), None, "case {seed}");
        }
    }
}
