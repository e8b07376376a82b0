//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <transpile-route|serve-recal> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Everything is measured from outside the program, by timing calls into
//! public functions of `mirage_circuit`, `mirage_core`, `mirage_coverage`
//! and `mirage_serve`. The seed makes every input; the same seed gives the
//! same inputs. With `--trace 0` the run reports the end-to-end metrics;
//! with `--trace 1` it replays the transpile pipeline with a span around
//! each layer call and reports the per-layer metrics (spans are written
//! to `perfbench/traces/` when the run ends). End-to-end timings are
//! given at a reference host speed: each is scaled by a reference kernel
//! timed between the workload's calls (see `pace`), and the raw times are
//! printed beside them. Every run checks its
//! outputs with independent oracles; any failure makes `correct` false.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod oracle;
mod pace;
mod replay;
mod route;
mod serve;
mod stats;
mod trace;

use oracle::Checks;
use replay::Counts;
use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;

/// End-to-end metrics, reported on every workload with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("compile_ms.geomean", "ms"),
    ("jobs_per_s", "1/s"),
    ("job_ms.p50", "ms"),
    ("job_ms.tail", "ms"),
    ("slo_met_frac", "frac"),
    ("ok_frac", "frac"),
    ("out_depth.geomean", "iSWAP"),
    ("out_2q.geomean", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported on every workload with `--trace 1`. A
/// layer the workload's jobs do not reach reads 0. `*.ms` and `*_us` are
/// per replayed job; counts marked exact are summed over one replay of
/// each distinct job and repeat exactly for a given commit and seed.
const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.ms", "ms"),
    ("frontend.gates_out", "count"), // exact
    ("vf2.ms", "ms"),
    ("vf2.embedded", "count"), // exact
    ("precompute.ms", "ms"),
    ("placement.ms", "ms"),
    ("refine.ms", "ms"),
    ("refine.routes", "count"), // exact
    ("route.ms", "ms"),
    ("route.routes", "count"), // exact
    ("route.swaps", "count"),  // exact
    ("route.mirror_rate", "frac"),
    ("absorb.ms", "ms"),
    ("absorb.fused", "count"), // exact
    ("score.ms", "ms"),
    ("score.calls", "count"),      // exact
    ("score.candidates", "count"), // exact
    ("metrics.ms", "ms"),
    ("coverage.build_ms", "ms"),
    ("cost_cache.hits", "count/job"),
    ("cost_cache.misses", "count/job"), // exact on transpile-route
    ("cost_cache.contention", "count/job"),
    ("qasm.print_us", "us"),
    ("qasm.parse_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.bytes", "bytes"),
    ("net_overhead_ms.p50", "ms"),
    ("queue_wait_ms.p50", "ms"),
    ("queue_wait_ms.tail", "ms"),
    ("server_run_ms.p50", "ms"),
    ("recal.swap_ms", "ms"),
    ("recal.generations", "count"),
    ("gen.late_ms.max", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.layer_share", "frac"),
];

const WORKLOADS: &[&str] = &["transpile-route", "serve-recal"];

/// Longest `--seconds` accepted, so that a run stays well within 180 s.
const MAX_SECONDS: u64 = 60;

/// Hard limit on a run of `seconds`: the timed window, the open loop's
/// wait for stragglers, and a margin for set-up, oracles and replays. A
/// hung run exits nonzero instead of stalling.
fn watchdog(seconds: u64) -> Duration {
    Duration::from_secs(seconds) + serve::DRAIN + Duration::from_secs(60)
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1..=MAX_SECONDS).contains(&seconds) {
        return Err(format!("--seconds must be in 1..={MAX_SECONDS}"));
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    attempted: u64,
    failed: u64,
    checks: Checks,
    /// Oracles that must have passed at least once.
    required: Vec<&'static str>,
    metrics: Vec<(&'static str, f64)>,
    lines: Vec<String>,
    tracer: Option<Tracer>,
}

/// Service-side numbers of a traced serve run (all 0 in process).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeLayers {
    qasm_print_us: f64,
    qasm_parse_us: f64,
    wire_encode_us: f64,
    wire_decode_us: f64,
    wire_bytes: f64,
    net_overhead_ms_p50: f64,
    queue_wait_ms_p50: f64,
    queue_wait_ms_tail: f64,
    server_run_ms_p50: f64,
    recal_swap_ms: f64,
    recal_generations: f64,
    late_ms_max: f64,
}

/// Inputs to the per-layer metrics of a traced run.
pub struct Layers<'a> {
    tracer: &'a Tracer,
    /// Traced replays recorded in `tracer`.
    replays: f64,
    /// Counts over one replay of each distinct job.
    counts: Counts,
    /// Traced replay time over untraced `transpile` time, for the same
    /// jobs under the same cache conditions.
    overhead: f64,
    coverage_build_ms: f64,
    cache_per_job: (f64, f64, f64),
    serve: Option<ServeLayers>,
}

/// The per-layer metrics, in [`PER_LAYER`] order, plus a human-readable
/// breakdown of time per layer.
pub fn layer_metrics(l: &Layers<'_>, lines: &mut Vec<String>) -> Vec<(&'static str, f64)> {
    let totals = l.tracer.totals();
    let per_job = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |(d, _)| d.as_secs_f64() * 1e3 / l.replays.max(1.0))
    };
    let root = per_job("transpile");
    let layer_sum: f64 = replay::LAYERS.iter().map(|n| per_job(n)).sum();
    let selfs = l.tracer.self_times();
    lines.push(format!(
        "traced replays: {} ({:.3} ms per job)",
        l.replays, root
    ));
    for name in replay::LAYERS {
        let share = if root > 0.0 {
            per_job(name) / root * 100.0
        } else {
            0.0
        };
        lines.push(format!(
            "  {name:<11} {:>9.4} ms/job  {share:>5.1}% of the traced job",
            per_job(name)
        ));
    }
    if let Some(d) = selfs.get("transpile") {
        lines.push(format!(
            "  (outside any layer span: {:.4} ms/job)",
            d.as_secs_f64() * 1e3 / l.replays.max(1.0)
        ));
    }
    let c = &l.counts;
    let s = l.serve.unwrap_or_default();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        ("frontend.ms", per_job("frontend")),
        ("frontend.gates_out", c.gates_out as f64),
        ("vf2.ms", per_job("vf2")),
        ("vf2.embedded", c.vf2_embedded as f64),
        ("precompute.ms", per_job("precompute")),
        ("placement.ms", per_job("placement")),
        ("refine.ms", per_job("refine")),
        ("refine.routes", c.refine_routes as f64),
        ("route.ms", per_job("route")),
        ("route.routes", c.route_routes as f64),
        ("route.swaps", c.route_swaps as f64),
        (
            "route.mirror_rate",
            ratio(c.route_mirrors as f64, c.route_mirror_candidates as f64),
        ),
        ("absorb.ms", per_job("absorb")),
        ("absorb.fused", c.absorb_fused as f64),
        ("score.ms", per_job("score")),
        ("score.calls", c.score_calls as f64),
        ("score.candidates", c.score_candidates as f64),
        ("metrics.ms", per_job("metrics")),
        ("coverage.build_ms", l.coverage_build_ms),
        ("cost_cache.hits", l.cache_per_job.0),
        ("cost_cache.misses", l.cache_per_job.1),
        ("cost_cache.contention", l.cache_per_job.2),
        ("qasm.print_us", s.qasm_print_us),
        ("qasm.parse_us", s.qasm_parse_us),
        ("wire.encode_us", s.wire_encode_us),
        ("wire.decode_us", s.wire_decode_us),
        ("wire.bytes", s.wire_bytes),
        ("net_overhead_ms.p50", s.net_overhead_ms_p50),
        ("queue_wait_ms.p50", s.queue_wait_ms_p50),
        ("queue_wait_ms.tail", s.queue_wait_ms_tail),
        ("server_run_ms.p50", s.server_run_ms_p50),
        ("recal.swap_ms", s.recal_swap_ms),
        ("recal.generations", s.recal_generations),
        ("gen.late_ms.max", s.late_ms_max),
        ("trace.overhead", l.overhead),
        ("trace.layer_share", ratio(layer_sum, root)),
    ]
}

/// Peak resident set size of this process so far, in MB (`VmHWM`); NaN
/// where the kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    let kb = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        });
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_owned())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let limit = watchdog(args.seconds);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {} s, aborting", limit.as_secs());
        std::process::exit(3);
    });

    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "perfbench {} seed={} seconds={} trace={} nproc={nproc} commit={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_commit()
    );

    let mut out = match args.workload.as_str() {
        "transpile-route" => route::run(&args),
        "serve-recal" => serve::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    if out.attempted == 0 {
        out.checks.fail("no jobs were attempted".to_owned());
    }

    for line in &out.lines {
        println!("{line}");
    }
    println!("oracles:");
    for line in out.checks.summary() {
        println!("{line}");
    }

    if let Some(tracer) = &out.tracer {
        let path = PathBuf::from(format!(
            "perfbench/traces/{}-seed{}.tsv",
            args.workload, args.seed
        ));
        match tracer.write_tsv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => out.checks.fail(format!("writing {}: {e}", path.display())),
        }
    }

    let expected = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in expected {
        let Some(&(_, value)) = out.metrics.iter().find(|(n, _)| *n == name) else {
            out.checks.fail(format!("metric {name} was not measured"));
            continue;
        };
        if !value.is_finite() {
            out.checks.fail(format!("metric {name} is {value}"));
            continue;
        }
        println!("{name:<22} {value:>14.6} {unit}");
        // Names and units are plain identifiers: no JSON escaping needed.
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = out.checks.ok(&out.required) && fields.len() == expected.len();
    if !correct {
        eprintln!("perfbench: correctness checks failed");
        for line in out.checks.summary() {
            eprintln!("{line}");
        }
    }
    if fields.len() != expected.len() {
        // Without every metric there is no result to report.
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
}
