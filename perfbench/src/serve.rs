//! The `serve-recal` workload: a loopback `NetServer` with a pool of 2
//! workers, driven by an open loop at a fixed offered rate. One generator
//! thread writes `Submit` frames on a schedule to one pipelined
//! connection and one reader thread reads the replies. Mid-size routing
//! circuits are post-selected by estimated success on a skewed
//! calibration, and every few jobs a drifted calibration is swapped in.
//! The only workload whose jobs arrive on a schedule and can queue, and
//! where calibration swaps make the cost cache miss and refill while the
//! service runs.

use crate::oracle::{self, Checks};
use crate::pace::Pace;
use crate::replay::{self, Counts};
use crate::stats::{geomean, median, ms, since_ms, tail_at, Schedule};
use crate::trace::Tracer;
use crate::{layer_metrics, Args, Layers, Outcome, ServeLayers};
use mirage_circuit::generators::{
    cuccaro_adder, portfolio_qaoa, qft, quantum_volume, two_local_full,
};
use mirage_circuit::qasm::{from_qasm, to_qasm};
use mirage_circuit::Circuit;
use mirage_core::calibration::Calibration;
use mirage_core::{transpile, Metric, RouterKind, Target, TranspiledCircuit};
use mirage_coverage::set::CoverageSet;
use mirage_math::Rng;
use mirage_serve::net::frame::{read_frame, write_frame};
use mirage_serve::net::{
    JobDone, NetServer, Request, Response, ServeConfig, SubmitRequest, WireOptions,
    DEFAULT_MAX_PAYLOAD,
};
use mirage_serve::Lane;
use mirage_topology::CouplingMap;
use std::collections::BTreeMap;
use std::io::Read;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker threads in the server pool.
const WORKERS: usize = 2;
/// Offered rate of `serve-recal`, jobs per second: about a tenth of the
/// 2-worker pool's capacity. On a shared host the CPU slows by up to 1.6×
/// for minutes at a time; at 40/s that pushed the pool near saturation,
/// and at 20/s queueing and contention between the two busy workers still
/// stretched the tail past a 25% run-to-run spread in slow stretches.
const RECAL_RATE: f64 = 10.0;
/// A drifted calibration is swapped in after every this many jobs (every
/// 3 s at the offered rate).
const SWAP_EVERY: usize = 30;
/// Instances of each of the five program families. Trial seeds move a
/// result's depth by tens of percent, so the geomeans average over this
/// many. With an odd number of families of equal count the median job
/// lies inside one family's spread; with four it fell in the gap between
/// two, and `job_ms.p50` jumped between them from seed to seed.
const INSTANCES: usize = 8;
/// Latency limit for `slo_met_frac`: about 5× the open loop's median.
const SLO_MS: f64 = 100.0;
/// `job_ms.tail` percentile, fixed so that runs compare: well inside what
/// a 45 s run supports (22 jobs beyond p95 of 450), since the most
/// extreme supported percentile swings with single scheduler stalls.
const TAIL_PCT: f64 = 95.0;
/// Set-ups are timed in blocks: one before the open loop, and one at each
/// calibration swap, while no job is in flight. `setup_s` is the median
/// over blocks of a block's mean. One set-up takes a few milliseconds,
/// and its connect waits either ~0.2 ms or a whole 2 ms accept poll of
/// the server, depending on which thread runs first, so a block's mean
/// averages the two modes; spreading the blocks over the run averages
/// the host's CPU speed, which moves within seconds, as the timed jobs
/// see it.
const SETUP_BLOCK_LEN: usize = 4;
/// Probes timed back to back after the first set-up block, so that it and
/// the first jobs have probes near them.
const FIRST_PROBES: usize = 8;
/// The generator times one host-speed probe this long before each send,
/// when no job is in flight (a job takes a fraction of the 100 ms gap).
const PROBE_LEAD: Duration = Duration::from_millis(20);
/// Probes per gap: the first after the idle wait runs on a cold core, so
/// a short burst lets most of them see the core as a running job does.
const PROBES_PER_GAP: usize = 3;
/// How long after the last send the reader waits for stragglers.
pub const DRAIN: Duration = Duration::from_secs(30);

/// One distinct request: the generated circuit, its submission, and the
/// circuit the server transpiles (the submission's QASM, parsed — QASM
/// export rewrites some gates, e.g. a controlled-RY into RY and CX).
struct Req {
    name: String,
    circuit: Circuit,
    input: Circuit,
    submit: SubmitRequest,
}

fn requests(seed: u64) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ 0x5E4E_5EED);
    let mut out: Vec<(String, Circuit)> = Vec::new();
    for _ in 0..INSTANCES {
        out.push(("qft-12".to_owned(), qft(12, false)));
        out.push((
            "portfolio_qaoa-12".to_owned(),
            portfolio_qaoa(12, 1, rng.next_u64()),
        ));
        out.push((
            "quantum_volume-10".to_owned(),
            quantum_volume(10, 4, rng.next_u64()),
        ));
        out.push(("cuccaro_adder-12".to_owned(), cuccaro_adder(5)));
        out.push((
            "two_local_full-10".to_owned(),
            two_local_full(10, 1, rng.next_u64()),
        ));
    }
    let mut options = WireOptions::quick(RouterKind::Mirage);
    options.metric = Some(Metric::EstimatedSuccess);
    let mut reqs: Vec<Req> = out
        .into_iter()
        .enumerate()
        .map(|(i, (name, circuit))| {
            let qasm = to_qasm(&circuit);
            Req {
                input: from_qasm(&qasm).expect("exported QASM parses"),
                submit: SubmitRequest {
                    label: format!("{name}/{i}"),
                    qasm,
                    seed: rng.next_u64(),
                    lane: Lane::Batch,
                    deadline_ms: None,
                    options: options.clone(),
                    fault: None,
                },
                name,
                circuit,
            }
        })
        .collect();
    rng.shuffle(&mut reqs);
    reqs
}

fn topology() -> CouplingMap {
    CouplingMap::heavy_hex(3)
}

/// The boot calibration: 0.5% error per application, a
/// quarter of the couplers 4× worse. One fixed device for every seed
/// (which couplers are bad moves every result, so a seeded choice would
/// make seeds incomparable).
fn boot_calibration() -> Calibration {
    Calibration::skewed(&topology(), &mut Rng::new(0xB007), 5e-3, 0.25, 4.0)
        .expect("the skew parameters are in range")
}

/// Calibration generation `g ≥ 1`: the boot calibration drifted ±15%.
/// The drift sequence is part of the fixed device, like the boot
/// calibration: drifted durations move every job's `depth_estimate`, and
/// seeded drifts moved `out_depth.geomean` by up to 20% between seeds.
fn drifted_calibration(boot: &Calibration, g: u64) -> Calibration {
    boot.drifted(&mut Rng::new(0xD21F7 + g), 0.15)
}

/// A stock √iSWAP target on heavy-hex-3 over a given coverage set.
fn target(coverage: &Arc<CoverageSet>, cal: &Calibration) -> Target {
    Target::with_coverage(topology(), Arc::clone(coverage))
        .with_calibration(cal.clone())
        .expect("the calibration covers heavy-hex-3")
}

struct Setup {
    server: NetServer,
    /// A raw framed socket, so that the arrival of every status frame
    /// can be timed.
    conn: TcpStream,
    reqs: Vec<Req>,
    coverage: Arc<CoverageSet>,
    boot: Calibration,
    atlas_load: Duration,
}

fn setup(seed: u64) -> Result<Setup, String> {
    // The stock atlas is decoded here rather than through the process-wide
    // cache of `Target::sqrt_iswap`, so every set-up pays what a fresh
    // server process pays.
    let t0 = Instant::now();
    let coverage = Arc::new(mirage_coverage::atlas::stock_set("sqrt_iswap"));
    let atlas_load = t0.elapsed();
    let boot = boot_calibration();
    let served = target(&coverage, &boot);
    served.coverage();
    let reqs = requests(seed);
    let server = NetServer::bind(Arc::new(served), "127.0.0.1:0", &ServeConfig::new(WORKERS))
        .map_err(|e| format!("bind: {e}"))?;
    let conn = raw_connect(server.local_addr())?;
    Ok(Setup {
        server,
        conn,
        reqs,
        coverage,
        boot,
        atlas_load,
    })
}

/// Connect a raw framed socket and complete one ping round trip.
fn raw_connect(addr: SocketAddr) -> Result<TcpStream, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    write_frame(&mut s, &Request::Ping.encode()).map_err(|e| format!("ping: {e}"))?;
    match read_response(&mut s)? {
        Response::Pong { .. } => Ok(s),
        other => Err(format!("ping answered with {other:?}")),
    }
}

fn read_response(s: &mut impl Read) -> Result<Response, String> {
    let payload = read_frame(s, DEFAULT_MAX_PAYLOAD).map_err(|e| format!("read: {e}"))?;
    Response::decode(&payload).map_err(|e| format!("decode: {e}"))
}

fn shutdown(s: Setup) {
    drop(s.conn);
    s.server.shutdown();
}

/// A timed block of set-ups: when it started, and the mean time of one.
type SetupTime = (Instant, Duration);

/// One block of [`SETUP_BLOCK_LEN`] timed set-ups, and the last one built,
/// still serving. Shutting a server down is not part of a set-up.
fn setup_block(seed: u64, atlas_ms: &mut Vec<f64>) -> Result<(SetupTime, Setup), String> {
    let start = Instant::now();
    let mut block = Duration::ZERO;
    let mut last = None;
    for _ in 0..SETUP_BLOCK_LEN {
        let t0 = Instant::now();
        let built = setup(seed)?;
        block += t0.elapsed();
        atlas_ms.push(ms(built.atlas_load));
        if let Some(prev) = last.replace(built) {
            shutdown(prev);
        }
    }
    let mean = block / SETUP_BLOCK_LEN as u32;
    Ok(((start, mean), last.expect("a block has set-ups")))
}

/// The client-side timeline of one job while it is in flight.
#[derive(Debug, Clone)]
struct Trip {
    req: usize,
    /// When the job was due on the open loop's schedule.
    due: Instant,
    sent: Instant,
    queued: Option<Instant>,
    running: Option<Instant>,
    done_at: Option<Instant>,
    done: Option<JobDone>,
    error: Option<String>,
}

impl Trip {
    fn new(req: usize, due: Instant, sent: Instant) -> Trip {
        Trip {
            req,
            due,
            sent,
            queued: None,
            running: None,
            done_at: None,
            done: None,
            error: None,
        }
    }

    /// The compact record the statistics are made from; `pace` gives the
    /// host speed when the job was due.
    fn sample(&self, origin: Instant, pace: &Pace) -> Sample {
        let mut s = Sample {
            req: self.req as u32,
            scale: pace.scale_at(self.due) as f32,
            done: false,
            fingerprint: 0,
            generation: 0,
            elapsed_ms: 0.0,
            depth: 0.0,
            twoq: 0,
            swaps: 0,
            latency_ms: 0.0,
            queue_wait_ms: None,
            net_ms: None,
            done_s: 0.0,
        };
        let (Some(done), Some(done_at)) = (&self.done, self.done_at) else {
            return s;
        };
        let elapsed_ms = done.elapsed_us as f64 / 1e3;
        // Client-observed queue wait: `Queued` to `Running` frame arrival.
        let queue_wait = match (self.queued, self.running) {
            (Some(q), Some(r)) => Some(since_ms(q, r)),
            _ => None,
        };
        s.done = true;
        s.fingerprint = done.fingerprint;
        s.generation = done.generation as u32;
        s.elapsed_ms = elapsed_ms as f32;
        s.depth = done.metrics.depth_estimate as f32;
        s.twoq = done.metrics.two_qubit_gates;
        s.swaps = done.metrics.swaps;
        s.latency_ms = since_ms(self.due, done_at) as f32;
        s.queue_wait_ms = queue_wait.map(|q| q as f32);
        // The part of the latency from the send that is neither queue
        // wait nor server run time: wire, parsing, threads.
        s.net_ms = queue_wait.map(|q| (since_ms(self.sent, done_at) - q - elapsed_ms) as f32);
        s.done_s = done_at.saturating_duration_since(origin).as_secs_f32();
        s
    }
}

/// What the statistics need of one served job.
#[derive(Debug, Clone, Copy)]
struct Sample {
    req: u32,
    /// Factor to reference host speed when the job was due.
    scale: f32,
    done: bool,
    fingerprint: u64,
    generation: u32,
    elapsed_ms: f32,
    depth: f32,
    twoq: u32,
    swaps: u32,
    latency_ms: f32,
    queue_wait_ms: Option<f32>,
    net_ms: Option<f32>,
    /// When the result arrived, in seconds from the run's start.
    done_s: f32,
}

/// One submission over a raw socket, waiting for its result and recording
/// the arrival of each status frame.
fn raw_submit(s: &mut TcpStream, req: usize, submit: &SubmitRequest) -> Trip {
    let sent = Instant::now();
    let mut rec = Trip::new(req, sent, sent);
    if let Err(e) = write_frame(s, &Request::Submit(submit.clone()).encode()) {
        rec.error = Some(format!("send: {e}"));
        return rec;
    }
    loop {
        let resp = match read_response(s) {
            Ok(r) => r,
            Err(e) => {
                rec.error = Some(e);
                return rec;
            }
        };
        let now = Instant::now();
        match resp {
            Response::Queued { .. } => rec.queued = Some(now),
            Response::Running { .. } => rec.running = Some(now),
            Response::Done(done) => {
                rec.done_at = Some(now);
                rec.done = Some(done);
                return rec;
            }
            other => {
                rec.error = Some(format!("{other:?}"));
                return rec;
            }
        }
    }
}

/// The first few failure messages, for the report.
const KEEP_ERRORS: usize = 5;

/// What the open loop's generator measured.
struct Generator {
    late_ms: Vec<f64>,
    swap_ms: Vec<f64>,
    /// Installed calibrations by generation (index 0 is the boot one).
    calibrations: Vec<Arc<Calibration>>,
    /// Set-up blocks timed at the swaps.
    setups: Vec<SetupTime>,
    /// Host-speed probes, from before the open loop to its last send.
    pace: Pace,
    atlas_ms: Vec<f64>,
    setup_errors: Vec<String>,
}

/// What the open loop recorded.
struct OpenLoop {
    samples: Vec<Sample>,
    errors: Vec<String>,
    /// The first QASM text served for each output fingerprint.
    texts: BTreeMap<u64, String>,
    generator: Generator,
    /// Seconds from the first due time to the last result.
    wall: f64,
}

/// A socket reader that rides out read timeouts until `stop` says every
/// job is resolved or `give_up` passes.
struct Patient<'a> {
    s: &'a mut TcpStream,
    stop: &'a dyn Fn() -> bool,
    give_up: Instant,
}

impl Read for Patient<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.s.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if (self.stop)() || Instant::now() >= self.give_up {
                        return Err(e);
                    }
                }
                other => return other,
            }
        }
    }
}

/// The open loop: the generator sends on schedule and swaps
/// calibrations, the reader records every status frame.
fn open_loop(
    stream: TcpStream,
    server_target: &Target,
    reqs: &[Req],
    boot: &Calibration,
    pace: Pace,
    args: &Args,
) -> Result<OpenLoop, String> {
    let mut writer = stream;
    let mut reader = writer
        .try_clone()
        .map_err(|e| format!("clone socket: {e}"))?;
    reader
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| format!("read timeout: {e}"))?;
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now() + Duration::from_millis(20);
    let schedule = Schedule::new(start, RECAL_RATE);
    let n_jobs = (window.as_secs_f64() * RECAL_RATE).floor() as usize;
    let sent_count = AtomicUsize::new(0);
    let generator_done = AtomicBool::new(false);
    let resolved = AtomicUsize::new(0);
    let give_up = start + window + DRAIN;

    let (sent, generator, arrivals) = std::thread::scope(|scope| {
        let gen = scope.spawn(|| {
            let mut g = Generator {
                late_ms: Vec::with_capacity(n_jobs),
                swap_ms: Vec::new(),
                calibrations: vec![Arc::new(boot.clone())],
                setups: Vec::new(),
                pace,
                atlas_ms: Vec::new(),
                setup_errors: Vec::new(),
            };
            let mut sent = Vec::with_capacity(n_jobs);
            'send: for i in 0..n_jobs {
                let due = schedule.due(i);
                // Probe the host's speed ahead of the send while no job
                // is in flight; skip it when there is no time left.
                let ahead = due.saturating_duration_since(Instant::now());
                if let Some(wait) = ahead.checked_sub(PROBE_LEAD) {
                    std::thread::sleep(wait);
                }
                if due.saturating_duration_since(Instant::now()) >= PROBE_LEAD / 2
                    && resolved.load(Ordering::SeqCst) >= i
                {
                    g.pace.burst(PROBES_PER_GAP);
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let req = i % reqs.len();
                let mut submit = reqs[req].submit.clone();
                submit.label = format!("{}#{i}", submit.label);
                let t = Instant::now();
                if let Err(e) = write_frame(&mut writer, &Request::Submit(submit).encode()) {
                    let mut trip = Trip::new(req, due, t);
                    trip.error = Some(format!("send: {e}"));
                    sent.push(trip);
                    break;
                }
                g.late_ms.push(schedule.late_ms(i, t));
                sent.push(Trip::new(req, due, t));
                sent_count.store(i + 1, Ordering::SeqCst);
                if (i + 1) % SWAP_EVERY == 0 && i + 1 < n_jobs {
                    // Swap only while no job is in flight, so that every
                    // job runs under one calibration — the one its result
                    // reports — and can be checked bit for bit. A job
                    // takes a fraction of the gap to the next due time.
                    while resolved.load(Ordering::SeqCst) < i + 1 {
                        if Instant::now() >= give_up {
                            break 'send;
                        }
                        std::thread::sleep(Duration::from_micros(500));
                    }
                    match setup_block(args.seed, &mut g.atlas_ms) {
                        Ok((timed, built)) => {
                            g.setups.push(timed);
                            shutdown(built);
                        }
                        Err(e) => g.setup_errors.push(e),
                    }
                    let generation = g.calibrations.len() as u64;
                    let cal = Arc::new(drifted_calibration(boot, generation));
                    let t0 = Instant::now();
                    let installed = server_target
                        .swap_calibration(Arc::clone(&cal))
                        .expect("a drifted calibration covers the topology");
                    g.swap_ms.push(ms(t0.elapsed()));
                    assert_eq!(installed, generation, "only the benchmark swaps");
                    g.calibrations.push(cal);
                }
            }
            generator_done.store(true, Ordering::SeqCst);
            (sent, g)
        });

        let read = scope.spawn(|| {
            // Job index (the label's `#` suffix) → its status arrivals.
            let mut arrivals: BTreeMap<usize, Trip> = BTreeMap::new();
            let mut by_job_id: BTreeMap<u64, usize> = BTreeMap::new();
            let stop = || {
                generator_done.load(Ordering::SeqCst)
                    && resolved.load(Ordering::SeqCst) >= sent_count.load(Ordering::SeqCst)
            };
            let index = |label: &str| -> Option<usize> {
                label.rsplit('#').next().and_then(|s| s.parse().ok())
            };
            while !stop() {
                let mut patient = Patient {
                    s: &mut reader,
                    stop: &stop,
                    give_up,
                };
                let resp = match read_response(&mut patient) {
                    Ok(r) => r,
                    Err(_) => break,
                };
                let now = Instant::now();
                match resp {
                    Response::Queued { job_id, label, .. } => {
                        if let Some(i) = index(&label) {
                            by_job_id.insert(job_id, i);
                            let e = arrivals.entry(i).or_insert_with(|| Trip::new(0, now, now));
                            e.queued = Some(now);
                        }
                    }
                    Response::Running { job_id, .. } => {
                        if let Some(&i) = by_job_id.get(&job_id) {
                            if let Some(e) = arrivals.get_mut(&i) {
                                e.running = Some(now);
                            }
                        }
                    }
                    Response::Done(done) => {
                        if let Some(i) = index(&done.label) {
                            let e = arrivals.entry(i).or_insert_with(|| Trip::new(0, now, now));
                            e.done_at = Some(now);
                            e.done = Some(done);
                            resolved.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    Response::Failed { label, message, .. } => {
                        if let Some(i) = index(&label) {
                            let e = arrivals.entry(i).or_insert_with(|| Trip::new(0, now, now));
                            e.error = Some(message);
                            resolved.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    // Refusals carry no label; the job stays without a
                    // terminal response and is counted failed below.
                    _ => {
                        resolved.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            arrivals
        });
        let (sent, g) = gen.join().expect("generator thread panicked");
        let arrivals = read.join().expect("reader thread panicked");
        (sent, g, arrivals)
    });
    let mut arrivals = arrivals;
    let mut out = OpenLoop {
        samples: Vec::with_capacity(sent.len()),
        errors: Vec::new(),
        texts: BTreeMap::new(),
        generator,
        wall: 0.0,
    };
    let mut last_done = start;
    for (i, mut trip) in sent.into_iter().enumerate() {
        if let Some(a) = arrivals.remove(&i) {
            trip.queued = a.queued;
            trip.running = a.running;
            trip.done_at = a.done_at;
            trip.done = a.done;
            trip.error = trip.error.or(a.error);
        }
        if trip.done.is_none() && trip.error.is_none() {
            trip.error = Some("no terminal response".to_owned());
        }
        if let Some(e) = &trip.error {
            if out.errors.len() < KEEP_ERRORS {
                out.errors.push(e.clone());
            }
        }
        if let (Some(done), Some(at)) = (&trip.done, trip.done_at) {
            last_done = last_done.max(at);
            out.texts
                .entry(done.fingerprint)
                .or_insert_with(|| done.qasm.clone());
        }
        out.samples.push(trip.sample(start, &out.generator.pace));
    }
    out.wall = last_done.saturating_duration_since(start).as_secs_f64();
    Ok(out)
}

/// In-process references by `(request, calibration generation)`.
struct References<'a> {
    reqs: &'a [Req],
    coverage: &'a Arc<CoverageSet>,
    calibrations: Vec<Arc<Calibration>>,
    targets: BTreeMap<u64, Target>,
    outputs: BTreeMap<(usize, u64), Result<(TranspiledCircuit, String), String>>,
}

impl References<'_> {
    fn get(&mut self, req: usize, generation: u64) -> &Result<(TranspiledCircuit, String), String> {
        let key = (req, generation);
        if !self.outputs.contains_key(&key) {
            let r = &self.reqs[req];
            let out = match self.calibrations.get(generation as usize) {
                None => Err(format!("no calibration generation {generation}")),
                Some(cal) => {
                    let coverage = self.coverage;
                    let t = self
                        .targets
                        .entry(generation)
                        .or_insert_with(|| target(coverage, cal));
                    let opts = r.submit.options.to_options(r.submit.seed);
                    transpile(&r.input, t, &opts)
                        .map(|t| {
                            let q = to_qasm(&t.circuit);
                            (t, q)
                        })
                        .map_err(|e| e.to_string())
                }
            };
            self.outputs.insert(key, out);
        }
        &self.outputs[&key]
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut atlas_times = Vec::new();
    let (first_setup, s) = match setup_block(args.seed, &mut atlas_times) {
        Ok(b) => b,
        Err(e) => {
            out.checks.fail(format!("set-up failed: {e}"));
            return out;
        }
    };
    let Setup {
        server,
        conn,
        reqs,
        coverage,
        boot,
        ..
    } = s;
    let server_target = server.target();
    let mut pace = Pace::new();
    pace.burst(FIRST_PROBES);

    // Warm the server: every distinct request once, untimed.
    match raw_connect(server.local_addr()) {
        Ok(mut warm) => {
            for (i, r) in reqs.iter().enumerate() {
                let rec = raw_submit(&mut warm, i, &r.submit);
                if let Some(e) = rec.error {
                    out.checks.fail(format!("warm-up of {}: {e}", r.name));
                }
            }
        }
        Err(e) => out.checks.fail(format!("warm-up connect: {e}")),
    }

    let cache_before = cache_of(&server_target);
    let (samples, errors, texts, wall, generator) =
        match open_loop(conn, &server_target, &reqs, &boot, pace, args) {
            Ok(o) => (o.samples, o.errors, o.texts, o.wall, o.generator),
            Err(e) => {
                out.checks.fail(e);
                return out;
            }
        };
    let cache_after = cache_of(&server_target);
    let mut setup_times = vec![first_setup];
    setup_times.extend(&generator.setups);
    let pace = &generator.pace;
    let scaled_setups: Vec<f64> = setup_times
        .iter()
        .map(|&(t0, mean)| mean.as_secs_f64() * pace.scale_at(t0))
        .collect();
    atlas_times.extend(&generator.atlas_ms);
    for e in &generator.setup_errors {
        out.checks
            .fail(format!("set-up during the run failed: {e}"));
    }
    // Read before the oracles below, whose simulations would dominate it.
    let peak_rss = crate::peak_rss_mb();
    drop(server_target);
    server.shutdown();

    out.attempted = samples.len() as u64;
    out.failed = samples.iter().filter(|s| !s.done).count() as u64;
    for e in &errors {
        out.lines.push(format!("failed: {e}"));
    }

    // Oracles: every served result against the in-process reference under
    // the calibration of its reported generation. No job runs across a
    // swap, so each result has exactly one reference.
    let mut refs = References {
        reqs: &reqs,
        coverage: &coverage,
        calibrations: generator.calibrations.clone(),
        targets: BTreeMap::new(),
        outputs: BTreeMap::new(),
    };
    let mut verified: BTreeMap<(usize, u64), ()> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.done) {
        let (req, g) = (s.req as usize, u64::from(s.generation));
        let identical = match refs.get(req, g) {
            Ok((t, q)) => {
                t.circuit.fingerprint() == s.fingerprint
                    && texts.get(&s.fingerprint).is_some_and(|text| text == q)
            }
            Err(_) => false,
        };
        out.checks.check("served_identical", identical, || {
            format!(
                "{} (generation {g}) differs from the in-process transpile",
                reqs[req].name
            )
        });
        verified.insert((req, g), ());
    }
    let mut sim_seen: BTreeMap<u64, ()> = BTreeMap::new();
    let topo = topology();
    for &(req, g) in verified.keys() {
        let r = &reqs[req];
        let (t, q) = match refs.get(req, g) {
            Ok(x) => x,
            Err(e) => {
                out.checks.fail(format!("{}: {e}", r.name));
                continue;
            }
        };
        out.checks
            .check("coupling", oracle::coupling_ok(&t.circuit, &topo), || {
                format!("{} breaks the coupling map", r.name)
            });
        out.checks.check(
            "layout_bijective",
            t.initial_layout.is_bijective() && t.final_layout.is_bijective(),
            || format!("{}: layout is not a bijection", r.name),
        );
        let parsed = match from_qasm(q) {
            Ok(p) => p,
            Err(e) => {
                out.checks
                    .fail(format!("{}: served QASM does not parse: {e}", r.name));
                continue;
            }
        };
        out.checks
            .check("qasm_coupling", oracle::coupling_ok(&parsed, &topo), || {
                format!("{}: served QASM breaks the coupling map", r.name)
            });
        // Simulate each distinct output once, as printed and as built,
        // against the generated (not the parsed) input circuit.
        if sim_seen.insert(t.circuit.fingerprint(), ()).is_some() {
            continue;
        }
        for (oracle_name, circuit) in [("statevector", &t.circuit), ("qasm_statevector", &parsed)] {
            match oracle::statevector_ok(
                &r.circuit,
                circuit,
                &t.initial_layout,
                &t.final_layout,
                req as u64,
            ) {
                Some(ok) => out.checks.check(oracle_name, ok, || {
                    format!("{} is not equivalent to its input", r.name)
                }),
                None => out.checks.skip(oracle_name),
            }
        }
    }

    // End-to-end numbers.
    let done: Vec<&Sample> = samples.iter().filter(|s| s.done).collect();
    let latencies: Vec<f64> = done.iter().map(|s| f64::from(s.latency_ms)).collect();
    // Timings at reference speed, each scaled by the host speed when its
    // job was due.
    let scaled_latencies: Vec<f64> = done
        .iter()
        .map(|s| f64::from(s.latency_ms * s.scale))
        .collect();
    let mut elapsed_by_req: Vec<Vec<f64>> = vec![Vec::new(); reqs.len()];
    let mut scaled_by_req: Vec<Vec<f64>> = vec![Vec::new(); reqs.len()];
    for s in &done {
        elapsed_by_req[s.req as usize].push(f64::from(s.elapsed_ms));
        scaled_by_req[s.req as usize].push(f64::from(s.elapsed_ms * s.scale));
    }
    let per_req: Vec<f64> = scaled_by_req.iter().filter_map(|v| median(v)).collect();
    let raw_per_req: Vec<f64> = elapsed_by_req.iter().filter_map(|v| median(v)).collect();
    let depth: Vec<f64> = done.iter().map(|s| f64::from(s.depth)).collect();
    let twoq: Vec<f64> = done.iter().map(|s| f64::from(s.twoq)).collect();
    let slo_met = latencies.iter().filter(|&&l| l <= SLO_MS).count() as f64;
    let attempted = out.attempted.max(1) as f64;
    let tail_ms = tail_at(&scaled_latencies, TAIL_PCT);

    // The workload's distinguishing property, measured on its jobs.
    let embedded = done.iter().filter(|s| s.swaps == 0).count();
    let swapped = done.iter().filter(|s| s.generation > 0).count();
    out.lines.push(format!(
        "heavy-hex-3/sqrt_iswap, {WORKERS} workers; open loop at {RECAL_RATE} jobs/s offered, \
         calibration swap every {SWAP_EVERY} jobs"
    ));
    out.lines.push(format!(
        "{} jobs attempted, {} done, {} failed in {wall:.2} s; {} distinct requests",
        out.attempted,
        done.len(),
        out.failed,
        reqs.len()
    ));
    out.lines.push(format!(
        "property share: {swapped}/{} jobs run under a swapped calibration, \
         {embedded}/{} without SWAPs (VF2-embedded)",
        done.len(),
        done.len()
    ));
    if let Some(t) = tail_ms {
        out.lines.push(format!(
            "job_ms.tail is p{:.2} of {} jobs ({} beyond it)",
            t.percentile, t.samples, t.beyond
        ));
    }
    let mut depth_by_req: Vec<Vec<f64>> = vec![Vec::new(); reqs.len()];
    for s in &done {
        depth_by_req[s.req as usize].push(f64::from(s.depth));
    }
    for (i, r) in reqs.iter().enumerate() {
        out.lines.push(format!(
            "  {:<24} server median {:>8.3} ms ({:>8.3} raw) over {:>5} jobs  depth geomean {:>7.2}",
            r.submit.label,
            median(&scaled_by_req[i]).unwrap_or(f64::NAN),
            median(&elapsed_by_req[i]).unwrap_or(f64::NAN),
            elapsed_by_req[i].len(),
            geomean(&depth_by_req[i]).unwrap_or(f64::NAN)
        ));
    }
    out.lines.push(format!(
        "set-up: {} blocks of {SETUP_BLOCK_LEN}, block means {:.3?} ms raw, {:.3?} ms at reference speed",
        setup_times.len(),
        setup_times.iter().map(|t| ms(t.1)).collect::<Vec<_>>(),
        scaled_setups.iter().map(|t| t * 1e3).collect::<Vec<_>>()
    ));
    out.lines.push(format!(
        "host-speed probe: {} probes, median {:.3} ms (reference {} ms); raw compile_ms.geomean {:.3}, raw job_ms.p50 {:.3}",
        pace.len(),
        pace.median_ms(),
        crate::pace::NOMINAL_MS,
        geomean(&raw_per_req).unwrap_or(f64::NAN),
        median(&latencies).unwrap_or(f64::NAN)
    ));
    let g = &generator;
    let late_max = g.late_ms.iter().copied().fold(0.0, f64::max);
    out.lines.push(format!(
        "generator: {} sends, late by at most {late_max:.3} ms (median {:.3} ms); {} calibration swaps",
        g.late_ms.len(),
        median(&g.late_ms).unwrap_or(f64::NAN),
        g.swap_ms.len()
    ));
    let mut per_sec = vec![0usize; args.seconds as usize + 1];
    for s in &done {
        let last = per_sec.len() - 1;
        per_sec[(s.done_s as usize).min(last)] += 1;
    }
    out.lines
        .push(format!("jobs done per second of the run: {per_sec:?}"));
    let failed_frac = out.failed as f64 / attempted;
    out.lines.push(format!("failed_frac: {failed_frac}"));

    if args.trace {
        let completed = done.len().max(1) as f64;
        let queue_waits: Vec<f64> = done
            .iter()
            .filter_map(|s| s.queue_wait_ms.map(f64::from))
            .collect();
        let net: Vec<f64> = done
            .iter()
            .filter_map(|s| s.net_ms.map(f64::from))
            .collect();
        let server_run: Vec<f64> = elapsed_by_req.iter().flatten().copied().collect();
        let mut tracer = Tracer::new();
        let traced = replay_distinct(&reqs, &coverage, &boot, &mut tracer, &mut out.checks);
        let serve = ServeLayers {
            qasm_print_us: traced.print_us,
            qasm_parse_us: traced.parse_us,
            wire_encode_us: traced.encode_us,
            wire_decode_us: traced.decode_us,
            wire_bytes: traced.bytes,
            net_overhead_ms_p50: median(&net).unwrap_or(f64::NAN),
            queue_wait_ms_p50: median(&queue_waits).unwrap_or(f64::NAN),
            queue_wait_ms_tail: tail_at(&queue_waits, TAIL_PCT).map_or(f64::NAN, |t| t.value),
            server_run_ms_p50: median(&server_run).unwrap_or(f64::NAN),
            recal_swap_ms: median(&g.swap_ms).unwrap_or(0.0),
            recal_generations: g.swap_ms.len() as f64,
            late_ms_max: late_max,
        };
        let layers = Layers {
            tracer: &tracer,
            replays: traced.replays,
            counts: traced.counts,
            overhead: traced.traced_wall.as_secs_f64() / traced.untraced_wall.as_secs_f64(),
            coverage_build_ms: median(&atlas_times).unwrap_or(f64::NAN),
            cache_per_job: (
                (cache_after.0 - cache_before.0) as f64 / completed,
                (cache_after.1 - cache_before.1) as f64 / completed,
                (cache_after.2 - cache_before.2) as f64 / completed,
            ),
            serve: Some(serve),
        };
        out.metrics = layer_metrics(&layers, &mut out.lines);
        out.tracer = Some(tracer);
        out.required = vec!["replay_identical"];
    } else {
        out.metrics = vec![
            ("setup_s", median(&scaled_setups).unwrap_or(f64::NAN)),
            ("compile_ms.geomean", geomean(&per_req).unwrap_or(f64::NAN)),
            ("jobs_per_s", done.len() as f64 / wall),
            ("job_ms.p50", median(&scaled_latencies).unwrap_or(f64::NAN)),
            ("job_ms.tail", tail_ms.map_or(f64::NAN, |t| t.value)),
            ("slo_met_frac", slo_met / attempted),
            ("ok_frac", done.len() as f64 / attempted),
            ("out_depth.geomean", geomean(&depth).unwrap_or(f64::NAN)),
            ("out_2q.geomean", geomean(&twoq).unwrap_or(f64::NAN)),
            ("peak_rss_mb", peak_rss),
        ];
    }
    out.required.extend([
        "served_identical",
        "coupling",
        "layout_bijective",
        "qasm_coupling",
        "statevector",
        "qasm_statevector",
    ]);
    out
}

fn cache_of(t: &Target) -> (u64, u64, u64) {
    let (hits, misses) = t.cache_stats();
    (hits, misses, t.cache().contention())
}

/// Passes of the traced run's in-process replay over the distinct
/// requests.
const REPLAY_REPS: usize = 3;

/// What the in-process replay of the distinct requests measured.
struct Traced {
    replays: f64,
    counts: Counts,
    untraced_wall: Duration,
    traced_wall: Duration,
    print_us: f64,
    parse_us: f64,
    encode_us: f64,
    decode_us: f64,
    bytes: f64,
}

/// The server-side split of each distinct job, replayed in process: QASM
/// parse, the traced transpile replay (checked against `transpile`),
/// QASM print, and the wire encode/decode of its request and result.
///
/// Each repetition runs one untraced `transpile` pass over every request,
/// then one traced replay pass. A replay thus meets the cost cache as the
/// server's jobs do, after the other requests ran — not right after an
/// untraced run of the same job, which would have warmed the cache for it.
fn replay_distinct(
    reqs: &[Req],
    coverage: &Arc<CoverageSet>,
    boot: &Calibration,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Traced {
    let t = target(coverage, boot);
    let mut traced = Traced {
        replays: 0.0,
        counts: Counts::default(),
        untraced_wall: Duration::ZERO,
        traced_wall: Duration::ZERO,
        print_us: 0.0,
        parse_us: 0.0,
        encode_us: 0.0,
        decode_us: 0.0,
        bytes: 0.0,
    };
    let (mut print, mut parse, mut encode, mut decode) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let mut bytes = 0usize;
    let mut inputs = Vec::with_capacity(reqs.len());
    for r in reqs {
        match from_qasm(&r.submit.qasm) {
            Ok(c) => inputs.push(c),
            Err(e) => {
                checks.fail(format!("{}: request QASM does not parse: {e}", r.name));
                return traced;
            }
        }
    }
    for rep in 0..REPLAY_REPS {
        let mut references = Vec::with_capacity(reqs.len());
        for (r, circuit) in reqs.iter().zip(&inputs) {
            let opts = r.submit.options.to_options(r.submit.seed);
            let t0 = Instant::now();
            let reference = transpile(circuit, &t, &opts);
            traced.untraced_wall += t0.elapsed();
            references.push(reference);
        }
        for (i, (r, reference)) in reqs.iter().zip(references).enumerate() {
            let Ok(reference) = reference else {
                checks.fail(format!("{}: does not transpile", r.name));
                continue;
            };
            let opts = r.submit.options.to_options(r.submit.seed);
            let request = Request::Submit(r.submit.clone());
            let t0 = Instant::now();
            let req_bytes = request.encode();
            encode += t0.elapsed();
            let t0 = Instant::now();
            let decoded = Request::decode(&req_bytes);
            decode += t0.elapsed();
            if decoded.as_ref() != Ok(&request) {
                checks.fail(format!("{}: request does not survive the wire", r.name));
            }
            let t0 = Instant::now();
            let circuit = from_qasm(&r.submit.qasm);
            parse += t0.elapsed();
            let Ok(circuit) = circuit else {
                continue;
            };
            tracer.set_job(i as u64);
            let mut counts = Counts::default();
            let t0 = Instant::now();
            let root = tracer.open();
            let replayed = replay::replay(&circuit, &t, &opts, tracer, &mut counts);
            tracer.close("transpile", root);
            traced.traced_wall += t0.elapsed();
            traced.replays += 1.0;
            match replay::mismatch(&replayed, &reference) {
                None => checks.check("replay_identical", true, String::new),
                Some(why) => {
                    checks.fail(format!("traced replay of {} diverged: {why}", r.name));
                    continue;
                }
            }
            if rep == 0 {
                traced.counts.add(&counts);
            }
            let t0 = Instant::now();
            let qasm = to_qasm(&replayed.circuit);
            print += t0.elapsed();
            let response = Response::Done(JobDone {
                job_id: i as u64,
                label: r.submit.label.clone(),
                qasm,
                fingerprint: replayed.circuit.fingerprint(),
                generation: 0,
                elapsed_us: 0,
                metrics: mirage_serve::net::WireMetrics::from_metrics(&replayed.metrics),
            });
            let t0 = Instant::now();
            let resp_bytes = response.encode();
            encode += t0.elapsed();
            let t0 = Instant::now();
            let back = Response::decode(&resp_bytes);
            decode += t0.elapsed();
            if back.as_ref() != Ok(&response) {
                checks.fail(format!("{}: result does not survive the wire", r.name));
            }
            bytes += req_bytes.len() + resp_bytes.len();
        }
    }
    let jobs = (REPLAY_REPS * reqs.len()).max(1) as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6 / jobs;
    traced.print_us = us(print);
    traced.parse_us = us(parse);
    traced.encode_us = us(encode);
    traced.decode_us = us(decode);
    traced.bytes = bytes as f64 / jobs;
    traced
}
