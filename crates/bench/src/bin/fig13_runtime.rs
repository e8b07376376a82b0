//! Regenerates **Figure 13b**: transpiler runtime scaling on QFT circuits
//! (n = 16 … 64).
//!
//! Substitution note (DESIGN.md): the paper compares its Python MIRAGE
//! against Python Qiskit and reports a 47.9% speedup at QFT-64 thanks to
//! the caching of Fig. 13a. Both sides here are Rust, so we report the
//! reproducible part of the claim — the effect of the coordinate cache —
//! plus MIRAGE vs the SABRE baseline at equal trial counts. A MIRAGE route
//! queries the cache only to price its DAG: each two-qubit node's class
//! and mirror class, once per call; the mirror decisions then multiply
//! those prices by coupler factors. The "cold cache" column routes on a
//! target whose shared cache holds a single coordinate class in total, so
//! that pricing pays a polytope scan on effectively every node, and the
//! hit rate counts those per-node lookups.

use mirage_circuit::consolidate::consolidate;
use mirage_circuit::generators::qft;
use mirage_circuit::Dag;
use mirage_core::layout::Layout;
use mirage_core::router::{node_coords, route, Aggression, RouterConfig};
use mirage_core::Target;
use mirage_coverage::set::{BasisGate, CoverageOptions, CoverageSet};
use mirage_math::Rng;
use mirage_topology::CouplingMap;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    println!("Figure 13b — QFT routing runtime (single trial, line topology)\n");
    let cov = Arc::new(CoverageSet::build(
        BasisGate::iswap_root(2),
        &CoverageOptions {
            max_k: 3,
            samples_per_k: 2500,
            inflation: 0.012,
            mirrors: false,
            seed: 0x13B,
        },
    ));

    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>10}",
        "n", "sabre (ms)", "mirage (ms)", "cold-cache", "hit-rate"
    );
    for &n in &[16usize, 24, 32, 48, 64] {
        let circ = consolidate(&qft(n, false));
        let dag = Dag::from_circuit(&circ);
        let coords = node_coords(&dag);

        let time_router = |aggression: Option<Aggression>, cache_cap: usize| {
            let target = Target::with_coverage(CouplingMap::line(n), cov.clone())
                .with_cache_capacity(cache_cap);
            let config = RouterConfig {
                aggression,
                ..RouterConfig::default()
            };
            let mut rng = Rng::new(0x1313);
            let t0 = Instant::now();
            let r = route(
                &dag,
                &coords,
                &target,
                Layout::trivial(n, n),
                &config,
                &mut rng,
            );
            (
                t0.elapsed().as_secs_f64() * 1e3,
                target.cache().hit_rate(),
                r,
            )
        };

        let (t_sabre, _, _) = time_router(None, 8192);
        let (t_mirage, hit, _) = time_router(Some(Aggression::A2), 8192);
        // "Cold cache": a single-entry cache thrashes on every new class —
        // the pre-Fig.13a behaviour.
        let (t_cold, _, _) = time_router(Some(Aggression::A2), 1);
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>12.1} {:>9.1}%",
            n,
            t_sabre,
            t_mirage,
            t_cold,
            100.0 * hit
        );
    }
    println!("\nPaper: MIRAGE (with caching) ran 47.9% faster than Python Qiskit at QFT-64;");
    println!("here the cache benefit shows as cold-cache vs warm-cache MIRAGE time.");
}
