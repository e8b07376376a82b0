//! The `transpile-route` workload: an in-process closed loop with one
//! caller, calling `mirage_core::transpile` on routing-bound programs.
//!
//! Why: router refinement, routing trials and post-selection scoring do
//! nearly all of the work here, while the frontend, VF2 and the wire do
//! almost none — this is the workload a router or scoring change must
//! move. The second device uses the paper's other basis (∜iSWAP), the
//! only place the seven-level coverage build and cold cost-cache misses
//! show up.

use crate::oracle::{self, Checks};
use crate::pace::Pace;
use crate::replay::{self, Counts};
use crate::stats::{geomean, mean, median, ms, tail_at};
use crate::trace::Tracer;
use crate::{layer_metrics, Args, Layers, Outcome};
use mirage_circuit::generators::{
    cuccaro_adder, multiplier, portfolio_qaoa, qft, quantum_volume, two_local_full,
};
use mirage_circuit::Circuit;
use mirage_core::{transpile, RouterKind, Target, TranspileOptions, TranspiledCircuit};
use mirage_math::Rng;
use mirage_topology::CouplingMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups timed per run; `setup_s` is their median, each scaled to
/// reference speed by the probes nearest it. The first builds the targets
/// the loop uses; the others are spread evenly over the timed window (and
/// left out of its wall time).
const SETUP_SAMPLES: usize = 5;

/// Probes timed back to back after the first set-up, so that it and the
/// first calls have probes near them.
const FIRST_PROBES: usize = 8;

/// Per-call latency limit for `slo_met_frac`. The metric matters on the
/// open loop of `serve-recal`; every workload must report every
/// end-to-end metric, and here it stays 1 unless calls fail (a failed
/// call counts as a miss) or a call stalls for a whole second.
const SLO_MS: f64 = 1000.0;

/// Trial seeds per program and device. A trial seed moves a result's
/// depth by tens of percent, so the output geomeans average over this many.
const TRIAL_SEEDS: usize = 2;

/// `job_ms.tail` percentile, fixed so that runs compare: it keeps ten
/// calls beyond it down to 500 calls a run (a 45 s run makes about 1500).
const TAIL_PCT: f64 = 98.0;

struct Job {
    name: String,
    device: usize,
    circuit: Circuit,
    opts: TranspileOptions,
}

struct Setup {
    devices: Vec<(&'static str, Target)>,
    jobs: Vec<Job>,
    coverage_build: Duration,
}

/// The programs: a fixed (family, width) grid spanning 12–24 qubits. The
/// seed draws the random instances (TwoLocal angles, QAOA weights,
/// quantum-volume blocks), the [`TRIAL_SEEDS`] trial seeds of each
/// program on each device, and the order the loop visits jobs in —
/// widths stay fixed so that seeds compare like for like.
fn programs(rng: &mut Rng) -> Vec<(String, Circuit)> {
    vec![
        ("qft-12".to_owned(), qft(12, false)),
        ("qft-24".to_owned(), qft(24, false)),
        (
            "two_local_full-16".to_owned(),
            two_local_full(16, 1, rng.next_u64()),
        ),
        (
            "portfolio_qaoa-16".to_owned(),
            portfolio_qaoa(16, 1, rng.next_u64()),
        ),
        (
            "quantum_volume-20".to_owned(),
            quantum_volume(20, 4, rng.next_u64()),
        ),
        ("cuccaro_adder-12".to_owned(), cuccaro_adder(5)),
        ("cuccaro_adder-20".to_owned(), cuccaro_adder(9)),
        ("multiplier-15".to_owned(), multiplier(3)),
    ]
}

fn setup(seed: u64) -> Setup {
    // heavy-hex-5 with √iSWAP loads its coverage from the stock atlas.
    let heavy_hex = Target::sqrt_iswap(CouplingMap::heavy_hex(5));
    heavy_hex.coverage();
    // grid-6×6 with ∜iSWAP: the seven-level coverage set of the paper's
    // Fig. 5, built from scratch.
    let t0 = Instant::now();
    let fourth_root = Arc::new(mirage_bench::coverage_for(4, false, 7));
    let coverage_build = t0.elapsed();
    let grid = Target::with_coverage(CouplingMap::grid(6, 6), fourth_root);

    let mut rng = Rng::new(seed ^ 0x7A4E_5EED);
    let mut jobs = Vec::new();
    for (name, circuit) in programs(&mut rng) {
        for device in 0..2 {
            for k in 0..TRIAL_SEEDS {
                let opts = TranspileOptions::quick(RouterKind::Mirage, rng.next_u64());
                jobs.push(Job {
                    name: format!("{name}#{k}"),
                    device,
                    circuit: circuit.clone(),
                    opts,
                });
            }
        }
    }
    rng.shuffle(&mut jobs);
    Setup {
        devices: vec![
            ("heavy-hex-5/sqrt_iswap", heavy_hex),
            ("grid-6x6/iswap^1/4", grid),
        ],
        jobs,
        coverage_build,
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    // When each set-up started, and how long it took.
    let mut setup_times: Vec<(Instant, Duration)> = Vec::new();
    let mut coverage_times = Vec::new();
    let mut timed_setup = || {
        let t0 = Instant::now();
        let built = setup(args.seed);
        let took = t0.elapsed();
        setup_times.push((t0, took));
        coverage_times.push(ms(built.coverage_build));
        (built, took)
    };
    let (s, _) = timed_setup();
    let mut pace = Pace::new();
    pace.burst(FIRST_PROBES);
    let jobs = &s.jobs;
    let target = |j: &Job| &s.devices[j.device].1;

    // Cold pass: every job once on the freshly built targets. It fills
    // the cost caches (whose deltas here are exact counts: one thread,
    // fixed order) and yields the reference output of every job.
    let cache_before: Vec<(u64, u64, u64)> = s.devices.iter().map(|(_, t)| cache_of(t)).collect();
    let mut refs: Vec<TranspiledCircuit> = Vec::new();
    for j in jobs {
        match transpile(&j.circuit, target(j), &j.opts) {
            Ok(r) => refs.push(r),
            Err(e) => {
                out.lines
                    .push(format!("{} on {}: {e}", j.name, s.devices[j.device].0));
                out.attempted += 1;
                out.failed += 1;
                out.checks
                    .fail(format!("{} failed to transpile: {e}", j.name));
                return out;
            }
        }
    }
    let cold_cache: Vec<(u64, u64, u64)> = s
        .devices
        .iter()
        .zip(&cache_before)
        .map(|((_, t), b)| {
            let a = cache_of(t);
            (a.0 - b.0, a.1 - b.1, a.2 - b.2)
        })
        .collect();

    // Timed closed loop: visit the jobs in the seeded order until the
    // run's time is up; every result must equal the cold-pass one. Each
    // untraced call is followed by one host-speed probe. A traced run
    // alternates an untraced pass over every job with a traced replay
    // pass, so replays meet the caches as the untraced calls do.
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    // Every untraced call: job, start, raw ms.
    let mut calls: Vec<(usize, Instant, f64)> = Vec::new();
    let mut replay_ms: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut all = Vec::new();
    let mut tracer = Tracer::new();
    let mut counts = Counts::default();
    let deadline = Duration::from_secs(args.seconds);
    let mut in_setup = Duration::ZERO;
    let mut setups_done = 1;
    let t_start = Instant::now();
    'outer: loop {
        for traced_pass in [false, true] {
            if traced_pass && !args.trace {
                continue;
            }
            for (i, j) in jobs.iter().enumerate() {
                let elapsed = t_start.elapsed();
                if elapsed >= deadline {
                    break 'outer;
                }
                if setups_done < SETUP_SAMPLES
                    && elapsed >= deadline.mul_f64(setups_done as f64 / SETUP_SAMPLES as f64)
                {
                    in_setup += timed_setup().1;
                    setups_done += 1;
                }
                if traced_pass {
                    tracer.set_job(i as u64);
                    let mut job_counts = Counts::default();
                    let t0 = Instant::now();
                    let root = tracer.open();
                    let replayed = replay::replay(
                        &j.circuit,
                        target(j),
                        &j.opts,
                        &mut tracer,
                        &mut job_counts,
                    );
                    tracer.close("transpile", root);
                    replay_ms[i].push(ms(t0.elapsed()));
                    if let Some(why) = replay::mismatch(&replayed, &refs[i]) {
                        out.checks.fail(format!(
                            "traced replay of {} on {} diverged: {why}",
                            j.name, s.devices[j.device].0
                        ));
                        break 'outer;
                    }
                    out.checks.check("replay_identical", true, String::new);
                    if replay_ms[i].len() == 1 {
                        counts.add(&job_counts);
                    }
                    continue;
                }
                let t0 = Instant::now();
                let r = transpile(&j.circuit, target(j), &j.opts);
                let dt = t0.elapsed();
                pace.probe();
                out.attempted += 1;
                let r = match r {
                    Ok(r) => r,
                    Err(e) => {
                        out.failed += 1;
                        out.checks.fail(format!("{}: {e}", j.name));
                        continue;
                    }
                };
                samples[i].push(ms(dt));
                all.push(ms(dt));
                calls.push((i, t0, ms(dt)));
                out.checks.check(
                    "repeat_identical",
                    r.circuit.fingerprint() == refs[i].circuit.fingerprint(),
                    || format!("{} changed between calls", j.name),
                );
            }
        }
    }
    let wall = (t_start.elapsed() - in_setup).as_secs_f64();
    // Read before the oracles, whose simulations would dominate it.
    let peak_rss = crate::peak_rss_mb();
    check_outputs(jobs, &refs, &s, &mut out.checks);

    // The end-to-end timings at reference speed.
    let mut scaled: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut scaled_all = Vec::with_capacity(calls.len());
    for &(i, t0, raw) in &calls {
        let x = raw * pace.scale_at(t0);
        scaled[i].push(x);
        scaled_all.push(x);
    }
    let scaled_setups: Vec<f64> = setup_times
        .iter()
        .map(|&(t0, took)| took.as_secs_f64() * pace.scale_at(t0 + took / 2))
        .collect();
    let raw_setups: Vec<f64> = setup_times.iter().map(|s| s.1.as_secs_f64()).collect();
    let per_job: Vec<f64> = scaled.iter().filter_map(|v| median(v)).collect();
    let compile = geomean(&per_job).unwrap_or(f64::NAN);
    let raw_per_job: Vec<f64> = samples.iter().filter_map(|v| median(v)).collect();
    let depth: Vec<f64> = refs.iter().map(|r| r.metrics.depth_estimate).collect();
    let twoq: Vec<f64> = refs
        .iter()
        .map(|r| r.metrics.two_qubit_gates as f64)
        .collect();
    let tail_ms = tail_at(&scaled_all, TAIL_PCT);

    out.lines.push(format!(
        "devices: {}",
        s.devices.iter().map(|d| d.0).collect::<Vec<_>>().join(", ")
    ));
    out.lines.push(format!(
        "closed loop, 1 caller, TranspileOptions::quick(Mirage): {} calls in {wall:.2} s (probes included)",
        all.len()
    ));
    out.lines.push(format!(
        "routed share: {}/{} jobs routed (not VF2-embedded)",
        refs.iter().filter(|r| !r.used_vf2).count(),
        refs.len()
    ));
    for (i, j) in jobs.iter().enumerate() {
        out.lines.push(format!(
            "  {:<20} {:<24} median {:>8.3} ms ({:>8.3} raw) over {:>3} calls  depth {:>7.1}  2q {:>4}  swaps {:>3}",
            j.name,
            s.devices[j.device].0,
            median(&scaled[i]).unwrap_or(f64::NAN),
            median(&samples[i]).unwrap_or(f64::NAN),
            samples[i].len(),
            refs[i].metrics.depth_estimate,
            refs[i].metrics.two_qubit_gates,
            refs[i].metrics.swaps_inserted
        ));
    }
    if let Some(t) = tail_ms {
        out.lines.push(format!(
            "job_ms.tail is p{:.2} of {} calls ({} beyond it)",
            t.percentile, t.samples, t.beyond
        ));
    }
    for ((name, _), c) in s.devices.iter().zip(&cold_cache) {
        out.lines.push(format!(
            "cold-pass cost cache on {name}: {} hits, {} misses, {} contended",
            c.0, c.1, c.2
        ));
    }
    out.lines.push(format!(
        "coverage build (iswap^1/4, max_k 7): median {:.1} ms over {} set-ups",
        median(&coverage_times).unwrap_or(f64::NAN),
        coverage_times.len()
    ));
    out.lines.push(format!(
        "set-up times {raw_setups:.3?} s raw, {scaled_setups:.3?} s at reference speed; the first before the loop"
    ));
    out.lines.push(format!(
        "host-speed probe: {} probes, median {:.3} ms (reference {} ms); raw compile_ms.geomean {:.3}, raw job_ms.p50 {:.3}",
        pace.len(),
        pace.median_ms(),
        crate::pace::NOMINAL_MS,
        geomean(&raw_per_job).unwrap_or(f64::NAN),
        median(&all).unwrap_or(f64::NAN)
    ));

    if args.trace {
        let n_replays = replay_ms.iter().map(Vec::len).sum::<usize>() as f64;
        let cold_jobs = jobs.len() as f64;
        let totals: (u64, u64, u64) = cold_cache
            .iter()
            .fold((0, 0, 0), |a, c| (a.0 + c.0, a.1 + c.1, a.2 + c.2));
        // Per-job means, summed over the jobs both passes reached.
        let (mut untraced, mut traced) = (0.0, 0.0);
        for (u, t) in samples.iter().zip(&replay_ms) {
            if let (Some(u), Some(t)) = (mean(u), mean(t)) {
                untraced += u;
                traced += t;
            }
        }
        let layers = Layers {
            tracer: &tracer,
            replays: n_replays,
            counts,
            overhead: traced / untraced,
            coverage_build_ms: median(&coverage_times).unwrap_or(f64::NAN),
            cache_per_job: (
                totals.0 as f64 / cold_jobs,
                totals.1 as f64 / cold_jobs,
                totals.2 as f64 / cold_jobs,
            ),
            serve: None,
        };
        out.metrics = layer_metrics(&layers, &mut out.lines);
        out.tracer = Some(tracer);
    } else {
        let slo_met = all.iter().filter(|&&t| t <= SLO_MS).count() as f64;
        let busy_s = scaled_all.iter().sum::<f64>() / 1e3;
        out.metrics = vec![
            ("setup_s", median(&scaled_setups).unwrap_or(f64::NAN)),
            ("compile_ms.geomean", compile),
            ("jobs_per_s", scaled_all.len() as f64 / busy_s),
            ("job_ms.p50", median(&scaled_all).unwrap_or(f64::NAN)),
            ("job_ms.tail", tail_ms.map_or(f64::NAN, |t| t.value)),
            ("slo_met_frac", slo_met / out.attempted.max(1) as f64),
            (
                "ok_frac",
                (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
            ),
            ("out_depth.geomean", geomean(&depth).unwrap_or(f64::NAN)),
            ("out_2q.geomean", geomean(&twoq).unwrap_or(f64::NAN)),
            ("peak_rss_mb", peak_rss),
        ];
    }
    out.required = vec![
        "coupling",
        "layout_bijective",
        "statevector",
        "repeat_identical",
    ];
    if args.trace {
        out.required.push("replay_identical");
    }
    out
}

fn cache_of(t: &Target) -> (u64, u64, u64) {
    let (hits, misses) = t.cache_stats();
    (hits, misses, t.cache().contention())
}

/// The independent oracles on every reference output.
fn check_outputs(jobs: &[Job], refs: &[TranspiledCircuit], s: &Setup, checks: &mut Checks) {
    for (i, (j, r)) in jobs.iter().zip(refs).enumerate() {
        let (dev, t) = &s.devices[j.device];
        checks.check(
            "coupling",
            oracle::coupling_ok(&r.circuit, t.topology()),
            || format!("{} on {dev} breaks the coupling map", j.name),
        );
        checks.check(
            "layout_bijective",
            r.initial_layout.is_bijective() && r.final_layout.is_bijective(),
            || format!("{} on {dev}: layout is not a bijection", j.name),
        );
        match oracle::statevector_ok(
            &j.circuit,
            &r.circuit,
            &r.initial_layout,
            &r.final_layout,
            i as u64,
        ) {
            Some(ok) => checks.check("statevector", ok, || {
                format!("{} on {dev} is not equivalent to its input", j.name)
            }),
            None => checks.skip("statevector"),
        }
    }
}
