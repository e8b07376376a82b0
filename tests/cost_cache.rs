//! The target's shared cost cache holds calibration-free class costs only.
//!
//! Per-coupler prices are a class cost times the coupler's duration factor,
//! computed from a calibration snapshot each time they are needed, so the
//! cache needs no calibration epochs and its size is bounded by the number
//! of coordinate classes, not classes × couplers. These tests pin both
//! halves: a warm target serves a repeated job mix without a single miss,
//! and a target warmed under one calibration then hot-swapped transpiles
//! exactly like a fresh target built with the new calibration.

use mirage::circuit::generators::{portfolio_qaoa, qft, quantum_volume, two_local_full};
use mirage::circuit::Circuit;
use mirage::core::pipeline::Metrics;
use mirage::core::trials::Metric;
use mirage::core::{transpile, Calibration, RouterKind, Target, TranspileOptions};
use mirage::math::Rng;
use mirage::topology::CouplingMap;
use std::sync::Arc;

/// A routing-bound job mix on heavy-hex-5 (the `transpile-route` device):
/// random SU(4) blocks and generic two-local blocks give hundreds of
/// distinct classes, each executed on many couplers.
fn job_mix() -> Vec<Circuit> {
    let mut rng = Rng::new(0xCAC4E);
    vec![
        quantum_volume(20, 4, rng.next_u64()),
        two_local_full(16, 1, rng.next_u64()),
        portfolio_qaoa(16, 1, rng.next_u64()),
        qft(24, false),
    ]
}

#[test]
fn warm_target_serves_a_repeated_job_mix_without_misses() {
    let target = Target::sqrt_iswap(CouplingMap::heavy_hex(5));
    let jobs = job_mix();
    let run_mix = || {
        for circuit in &jobs {
            for seed in [1, 2] {
                let out = transpile(
                    circuit,
                    &target,
                    &TranspileOptions::quick(RouterKind::Mirage, seed),
                )
                .unwrap();
                assert!(!out.used_vf2, "the mix must route");
            }
        }
    };
    run_mix();
    let (hits_warm, misses_warm) = target.cache_stats();
    assert!(misses_warm > 0);
    run_mix();
    let (hits, misses) = target.cache_stats();
    assert!(hits > hits_warm, "the second pass must query the cache");
    assert_eq!(
        misses - misses_warm,
        0,
        "a warm target must not evict and re-miss the classes it holds"
    );
}

/// Every metric of `m`, as bits.
fn metric_bits(m: &Metrics) -> [u64; 8] {
    [
        m.depth_estimate.to_bits(),
        m.total_gate_cost.to_bits(),
        m.two_qubit_gates as u64,
        m.swaps_inserted as u64,
        m.mirrors_accepted as u64,
        m.mirror_candidates as u64,
        m.mirror_rate.to_bits(),
        m.estimated_success.to_bits(),
    ]
}

#[test]
fn swapped_target_transpiles_like_a_fresh_target() {
    let cases = [
        (CouplingMap::line(8), qft(8, false)),
        (CouplingMap::grid(3, 3), qft(8, true)),
        (CouplingMap::heavy_hex(3), two_local_full(10, 1, 0xC7)),
    ];
    for (topo, circuit) in cases {
        let skewed = |seed: u64| {
            Calibration::skewed(&topo, &mut Rng::new(seed), 3e-3, 0.25, 10.0)
                .expect("skewed covers the map")
        };
        let (c1, c2) = (skewed(0xC1), skewed(0xC2));
        let mut opts =
            TranspileOptions::quick(RouterKind::Mirage, 7).with_metric(Metric::EstimatedSuccess);
        opts.use_vf2 = false;

        // Warm a target under c1, then hot-swap c2 into it.
        let warmed = Target::sqrt_iswap(topo.clone())
            .with_calibration(c1)
            .unwrap();
        let before = transpile(&circuit, &warmed, &opts).unwrap();
        warmed.swap_calibration(Arc::new(c2.clone())).unwrap();
        let swapped = transpile(&circuit, &warmed, &opts).unwrap();

        let fresh_target = Target::sqrt_iswap(topo.clone())
            .with_calibration(c2)
            .unwrap();
        let fresh = transpile(&circuit, &fresh_target, &opts).unwrap();

        let name = topo.name();
        assert_ne!(
            metric_bits(&before.metrics),
            metric_bits(&swapped.metrics),
            "{name}: the two calibrations must price differently"
        );
        assert_eq!(
            swapped.circuit.fingerprint(),
            fresh.circuit.fingerprint(),
            "{name}"
        );
        assert_eq!(swapped.circuit, fresh.circuit, "{name}");
        assert_eq!(swapped.initial_layout, fresh.initial_layout, "{name}");
        assert_eq!(swapped.final_layout, fresh.final_layout, "{name}");
        assert_eq!(
            metric_bits(&swapped.metrics),
            metric_bits(&fresh.metrics),
            "{name}: {:?} vs {:?}",
            swapped.metrics,
            fresh.metrics
        );
    }
}
