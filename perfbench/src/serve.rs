//! The two serving workloads.
//!
//! `serve_mlp_tcp` serves the `bsnn_server --demo-model` MLP over the
//! framed TCP front-end on loopback; the engine needs only ~85 µs per
//! request, so the front-end, admission and batching linger dominate its
//! latency. `serve_vgg_inproc` submits vgg_tiny requests through
//! admission control straight into the runtime, so the lockstep engine,
//! batch formation and early exit do the work and the front-end does
//! none. Each runs rounds of a light and a busy open-loop window and a
//! fixed-window capacity window.

use crate::layers::{self, OVERHEAD_OF};
use crate::load::{run_inproc, run_tcp, Answer, PhaseSpec, RunLog, Shape, Traffic};
use crate::models::{self, Recipe, SetupTimes};
use crate::stats::{
    self, failed_share, frontend_residual_us, median, percentile_us, quantile, Outcome,
};
use crate::trace::SpanLog;
use crate::Report;
use bsnn_core::autotune::AutotuneConfig;
use bsnn_core::batch::{BatchedNetwork, DispatchMode, DispatchPolicy};
use bsnn_core::ProfileSink;
use bsnn_serve::net::{decode_request, encode_response_ok};
use bsnn_serve::{
    run_batch_with_policies_each, run_with_policy, AdmissionControl, ExitPolicy, ExitReason,
    InferRequest, InferResponse, ModelEntry, ModelRegistry, NetConfig, NetServer, NetServerHandle,
    ResponseHandle, ServeConfig, ServeRuntime, ShedConfig, TraceConfig,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One serving workload's fixed shape.
#[derive(Debug)]
pub struct ServeWorkload {
    pub name: &'static str,
    pub recipe: Recipe,
    /// Over the TCP front-end (else in process through admission).
    pub tcp: bool,
    pub max_batch: usize,
    pub light_rps: f64,
    pub busy_rps: f64,
    /// Distinct test images the seed picks from the 2000-image split.
    pub pool: usize,
}

pub const MLP_TCP: ServeWorkload = ServeWorkload {
    name: "serve_mlp_tcp",
    recipe: Recipe::DemoMlp,
    tcp: true,
    max_batch: 8,
    light_rps: 4_000.0,
    busy_rps: 12_000.0,
    pool: 1792,
};

pub const VGG_INPROC: ServeWorkload = ServeWorkload {
    name: "serve_vgg_inproc",
    recipe: Recipe::VggTiny,
    tcp: false,
    max_batch: 16,
    light_rps: 800.0,
    busy_rps: 1_500.0,
    pool: 1792,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Requests in flight during the capacity windows.
const WINDOW: usize = 32;
/// Hard step horizon of every request (`ExitPolicy::recommended(96)`).
const HORIZON: usize = 96;
/// Worker threads: one per core of the 2-vCPU machine the benchmark is
/// sized for, fixed so that the figures do not depend on the host.
const WORKERS: usize = 2;
/// 1 in this many requests is traced, by the runtime and by our spans.
const SAMPLE_EVERY: u32 = 64;
/// Calls timed by each admission/submission replay.
const REPLAY_CALLS: usize = 512;
/// Window kinds, as indices into each round.
const LIGHT: usize = 0;
const BUSY: usize = 1;
const CAPACITY: usize = 2;

/// The serving stack of one set-up. Fields drop in order: the front-end
/// stops before admission and the runtime shut down.
struct Stack {
    server: Option<NetServerHandle>,
    admission: AdmissionControl,
    runtime: Arc<ServeRuntime>,
}

impl Stack {
    fn start(
        w: &ServeWorkload,
        registry: Arc<ModelRegistry>,
        traced: bool,
    ) -> Result<Stack, String> {
        let cfg = ServeConfig {
            workers: WORKERS,
            max_batch: w.max_batch,
            profile: traced,
            trace: TraceConfig {
                sample_every: if traced { SAMPLE_EVERY } else { 0 },
                ..TraceConfig::default()
            },
            ..ServeConfig::default()
        };
        let runtime = Arc::new(ServeRuntime::start(cfg, registry).map_err(|e| e.to_string())?);
        let admission = AdmissionControl::new(Arc::clone(&runtime), &ShedConfig::default());
        let server = if w.tcp {
            let server = NetServer::bind("127.0.0.1:0", Arc::clone(&runtime), NetConfig::default())
                .map_err(|e| e.to_string())?;
            Some(server.spawn().map_err(|e| e.to_string())?)
        } else {
            None
        };
        Ok(Stack {
            server,
            admission,
            runtime,
        })
    }

    fn run(
        &self,
        traffic: Traffic<'_>,
        spec: PhaseSpec,
        first_seq: u64,
        capture: bool,
    ) -> Result<RunLog, String> {
        match &self.server {
            Some(server) => run_tcp(server.addr(), traffic, spec, first_seq, capture),
            None => run_inproc(&self.admission, traffic, spec, first_seq),
        }
        .map_err(|e| format!("{} window: {e}", spec.name))
    }

    /// A burst that makes every worker build its engine.
    fn warm_up(&self, traffic: Traffic<'_>) -> Result<(), String> {
        let spec = PhaseSpec {
            name: "warmup",
            shape: Shape::Window { in_flight: WINDOW },
            duration: Duration::from_secs(60),
            limit: 4 * WINDOW as u64,
        };
        let log = self.run(traffic, spec, 0, false)?;
        let ok = log
            .replies
            .iter()
            .filter(|r| matches!(r.answer, Answer::Ok(_)))
            .count();
        if ok == log.phase.sent.len() {
            Ok(())
        } else {
            Err(format!(
                "warm-up: {ok} of {} requests served",
                log.phase.sent.len()
            ))
        }
    }
}

/// The scalar reference outcome of one image: (prediction, steps, spikes).
type Expected = (usize, usize, u64);

/// What a traced run keeps of one served request.
#[derive(Debug, Clone, Copy)]
struct Served {
    latency_us: f64,
    queue_us: u64,
    service_us: u64,
    batch_size: usize,
}

/// One window's attempts scored against the oracle. Only counts and
/// latencies are kept (per-request detail in traced runs), so the
/// benchmark's own memory does not grow with the program's throughput.
#[derive(Debug, Default)]
struct Scored {
    attempted: u64,
    /// Latency outcomes; capacity windows keep none.
    outcomes: Vec<Outcome>,
    /// Served correctly, and of those answered before the window closed.
    served: u64,
    on_time: u64,
    early: u64,
    lane_steps: u64,
    failed: u64,
    mismatches: u64,
    shed: u64,
    undecodable: u64,
    lag_us: Vec<f64>,
    /// Traced runs only.
    detail: Vec<Served>,
    /// Host CPU steal share while the window ran.
    steal: f64,
}

/// Scores one window; marks each pool image served correctly in `seen`.
fn score(log: &RunLog, oracle: &[Expected], detail: bool, seen: &mut [bool]) -> Scored {
    let replies: HashMap<u64, (&Answer, Instant)> = log
        .replies
        .iter()
        .map(|r| (r.seq, (&r.answer, r.at)))
        .collect();
    let open = matches!(log.phase.spec.shape, Shape::Open { .. });
    let end = log.phase.end();
    let mut s = Scored {
        attempted: log.phase.sent.len() as u64,
        undecodable: log.protocol_errors,
        ..Scored::default()
    };
    for sent in &log.phase.sent {
        if open {
            s.lag_us
                .push(sent.at.saturating_duration_since(sent.due).as_secs_f64() * 1e6);
        }
        let idx = (sent.seq % oracle.len() as u64) as usize;
        let outcome = match replies.get(&sent.seq) {
            Some((Answer::Ok(resp), at)) => {
                if (resp.prediction, resp.steps, resp.spikes) == oracle[idx] {
                    let us = at.saturating_duration_since(sent.due).as_secs_f64() * 1e6;
                    seen[idx] = true;
                    s.served += 1;
                    s.on_time += u64::from(*at <= end);
                    s.early += u64::from(resp.exit != ExitReason::HorizonReached);
                    s.lane_steps += resp.steps as u64;
                    if detail {
                        s.detail.push(Served {
                            latency_us: us,
                            queue_us: resp.queue_micros,
                            service_us: resp.service_micros,
                            batch_size: resp.batch_size,
                        });
                    }
                    Outcome::Done(us)
                } else {
                    s.mismatches += 1;
                    Outcome::Failed
                }
            }
            Some((Answer::Shed, _)) => {
                s.shed += 1;
                Outcome::Failed
            }
            // Deadline, error, or no reply at all (dropped or undecodable).
            _ => Outcome::Failed,
        };
        if outcome == Outcome::Failed {
            s.failed += 1;
        }
        if open {
            s.outcomes.push(outcome);
        }
    }
    s
}

/// Every window of a measurement, in the order run: light, busy and
/// capacity windows in turn.
struct Measured {
    windows: Vec<(PhaseSpec, Scored)>,
    /// Windows of each kind that timings are taken from.
    keep: usize,
    /// Request frames sent in the traced TCP windows, for the codec replay.
    request_frames: Vec<Vec<u8>>,
    /// Responses of the traced TCP windows, for the codec replay.
    responses: Vec<InferResponse>,
}

impl Measured {
    fn of(&self, kind: usize) -> impl Iterator<Item = &Scored> {
        self.windows.iter().skip(kind).step_by(3).map(|(_, s)| s)
    }

    fn all(&self) -> impl Iterator<Item = &Scored> {
        self.windows.iter().map(|(_, s)| s)
    }

    /// The median of a per-window figure over the `keep` calmest of
    /// `kind`'s windows (see [`stats::calmest`]).
    fn window_median(&self, kind: usize, f: impl Fn(&PhaseSpec, &Scored) -> f64) -> f64 {
        let windows: Vec<&(PhaseSpec, Scored)> =
            self.windows.iter().skip(kind).step_by(3).collect();
        let calm = stats::calmest(
            &windows.iter().map(|(_, s)| s.steal).collect::<Vec<_>>(),
            self.keep,
        );
        let values: Vec<f64> = windows
            .iter()
            .zip(calm)
            .filter(|(_, calm)| *calm)
            .map(|((spec, s), _)| f(spec, s))
            .collect();
        median(&values)
    }

    fn print(&self, tag: &str) {
        for (kind, name) in ["light", "busy", "capacity"].into_iter().enumerate() {
            let outcomes: Vec<Outcome> = self
                .of(kind)
                .flat_map(|s| s.outcomes.iter().copied())
                .collect();
            let lag: Vec<f64> = self
                .of(kind)
                .flat_map(|s| s.lag_us.iter().copied())
                .collect();
            let sum = |f: fn(&Scored) -> u64| self.of(kind).map(f).sum::<u64>();
            let n = outcomes.len();
            let p = |q| percentile_us(&outcomes, q).unwrap_or(0.0);
            let beyond_p99 = n - ((0.99 * n as f64).ceil() as usize).min(n);
            let steal: Vec<String> = self.of(kind).map(|s| format!("{:.2}", s.steal)).collect();
            if kind == CAPACITY {
                println!(
                    "# {tag} {name}: {} windows, steal {} | attempted {} failed {} mismatched {} undecodable {} | answered in window {}",
                    steal.len(),
                    steal.join(" "),
                    sum(|s| s.attempted),
                    sum(|s| s.failed),
                    sum(|s| s.mismatches),
                    sum(|s| s.undecodable),
                    sum(|s| s.on_time),
                );
                continue;
            }
            println!(
                "# {tag} {name}: {} windows, steal {} | attempted {} failed {} mismatched {} undecodable {} | pooled p50 {:.0} us p95 {:.0} us p99 {:.0} us ({beyond_p99} of {n} beyond) | send lag p99 {:.0} us",
                steal.len(),
                steal.join(" "),
                sum(|s| s.attempted),
                sum(|s| s.failed),
                sum(|s| s.mismatches),
                sum(|s| s.undecodable),
                p(0.5),
                p(0.95),
                p(0.99),
                quantile(&lag, 0.99),
            );
        }
    }
}

/// The light, busy and capacity windows of one round; `rounds` rounds
/// make a `seconds`-long measurement.
fn windows(w: &ServeWorkload, seconds: f64, rounds: usize) -> [PhaseSpec; 3] {
    let span = |share: f64| Duration::from_secs_f64(seconds * share / rounds as f64);
    [
        PhaseSpec {
            name: "light",
            shape: Shape::Open { rps: w.light_rps },
            duration: span(0.35),
            limit: u64::MAX,
        },
        PhaseSpec {
            name: "busy",
            shape: Shape::Open { rps: w.busy_rps },
            duration: span(0.35),
            limit: u64::MAX,
        },
        PhaseSpec {
            name: "capacity",
            shape: Shape::Window { in_flight: WINDOW },
            duration: span(0.30),
            limit: u64::MAX,
        },
    ]
}

/// What one measurement records besides its windows.
struct Observe<'a> {
    traced: bool,
    seen: &'a mut [bool],
    spans: &'a mut SpanLog,
    parent: u64,
}

/// Runs rounds of the three windows, calling `after_window` after each.
/// It runs `rounds` rounds, and up to half as many again while fewer
/// than half of some kind's windows ran on a calm host; timings then come
/// from the calmest half of `rounds` windows of each kind.
fn measure(
    stack: &Stack,
    traffic: Traffic<'_>,
    specs: &[PhaseSpec; 3],
    rounds: usize,
    oracle: &[Expected],
    obs: Observe<'_>,
    mut after_window: impl FnMut(),
) -> Result<Measured, String> {
    // Numbered past the warm-up's requests, in the same order every time.
    let mut seq = 1_000_000;
    let mut m = Measured {
        windows: Vec::new(),
        keep: rounds.div_ceil(2),
        request_frames: Vec::new(),
        responses: Vec::new(),
    };
    for round in 0..rounds + rounds / 2 {
        let calm_enough = (0..3).all(|kind| {
            let steal: Vec<f64> = m.of(kind).map(|s| s.steal).collect();
            stats::enough_calm(&steal, m.keep)
        });
        if round >= rounds && calm_enough {
            break;
        }
        for &spec in specs {
            let before = stats::read_proc_stat();
            let mut log = stack.run(traffic, spec, seq, obs.traced)?;
            seq += log.phase.sent.len() as u64;
            let mut scored = score(&log, oracle, obs.traced, obs.seen);
            if let (Some(before), Some(after)) = (before, stats::read_proc_stat()) {
                scored.steal = stats::steal_share(before, after);
            }
            after_window();
            if obs.traced {
                record_spans(obs.spans, obs.parent, &log);
                m.request_frames.append(&mut log.request_frames);
                if stack.server.is_some() {
                    let ok = log.replies.iter().filter_map(|r| match &r.answer {
                        Answer::Ok(resp) => Some(resp.clone()),
                        _ => None,
                    });
                    m.responses.extend(ok.take(1024));
                }
            }
            m.windows.push((spec, scored));
        }
    }
    Ok(m)
}

/// Our spans for 1 in `SAMPLE_EVERY` requests: the request from its due
/// time to its reply, with the server's queue and service time as
/// children; the request's self time is the front-end residual.
fn record_spans(spans: &mut SpanLog, parent: u64, log: &RunLog) {
    let window = spans.record(
        log.phase.spec.name,
        parent,
        0,
        spans.micros(log.phase.start),
        spans.micros(log.phase.end()),
    );
    let due: HashMap<u64, Instant> = log.phase.sent.iter().map(|x| (x.seq, x.due)).collect();
    for reply in log
        .replies
        .iter()
        .filter(|r| r.seq % SAMPLE_EVERY as u64 == 0)
    {
        let (Some(due), Answer::Ok(resp)) = (due.get(&reply.seq), &reply.answer) else {
            continue;
        };
        let end = spans.micros(reply.at);
        let id = spans.record("request", window, reply.seq, spans.micros(*due), end);
        let service = resp.service_micros as f64;
        let queue = resp.queue_micros as f64;
        spans.record("queue", id, reply.seq, end - service - queue, end - service);
        spans.record("service", id, reply.seq, end - service, end);
    }
}

/// The latency and capacity metrics of one measurement, under `prefix`.
fn put_timings(report: &mut Report, prefix: &str, m: &Measured) {
    for (name, kind, q) in [
        ("p50_us.light", LIGHT, 0.5),
        ("p95_us.light", LIGHT, 0.95),
        ("p50_us.busy", BUSY, 0.5),
        ("p95_us.busy", BUSY, 0.95),
    ] {
        let value = m.window_median(kind, |_, s| {
            percentile_us(&s.outcomes, q).unwrap_or(stats::BEYOND_LIMIT_US)
        });
        report.set(&format!("{prefix}{name}"), value);
    }
    let capacity = m.window_median(CAPACITY, |spec, s| {
        s.on_time as f64 / spec.duration.as_secs_f64()
    });
    report.set(&format!("{prefix}capacity_rps"), capacity);
}

/// Counts, failures, and the quality of the served outputs. Quality is
/// averaged over the distinct pool images served (each checked equal to
/// its oracle outcome), so it is a property of the seed's pool, not of
/// how many requests fit the run.
fn put_outputs(
    report: &mut Report,
    m: &Measured,
    seen: &[bool],
    oracle: &[Expected],
    labels: &[usize],
) {
    let attempted: u64 = m.all().map(|s| s.attempted).sum();
    let failed: u64 = m.all().map(|s| s.failed).sum();
    report.attempted += attempted;
    report.failed += failed;
    report.mismatches += m.all().map(|s| s.mismatches).sum::<u64>();
    report.set("served_share", 1.0 - failed_share(attempted, failed));
    let distinct: Vec<usize> = (0..seen.len()).filter(|&i| seen[i]).collect();
    let n = distinct.len().max(1) as f64;
    let correct = distinct
        .iter()
        .filter(|&&i| oracle[i].0 == labels[i])
        .count();
    report.set("accuracy", correct as f64 / n);
    report.set(
        "steps_per_inference",
        distinct.iter().map(|&i| oracle[i].1 as f64).sum::<f64>() / n,
    );
    report.set(
        "spikes_per_inference",
        distinct.iter().map(|&i| oracle[i].2 as f64).sum::<f64>() / n,
    );
    println!(
        "# distinct images served {} of pool {}",
        distinct.len(),
        seen.len()
    );
}

/// Median `submit`-path call time over bursts of 16 requests, waiting for
/// each burst; `call` returns the handle or `None` if refused.
fn time_calls(
    traffic: Traffic<'_>,
    mut call: impl FnMut(InferRequest) -> Option<ResponseHandle>,
) -> f64 {
    let mut ns = Vec::with_capacity(REPLAY_CALLS);
    let mut handles = Vec::new();
    for i in 0..REPLAY_CALLS {
        let request = InferRequest::new(
            traffic.image(i as u64).to_vec(),
            traffic.model,
            traffic.policy.clone(),
        );
        let t = Instant::now();
        let handle = call(request);
        ns.push(t.elapsed().as_secs_f64() * 1e9);
        handles.extend(handle);
        if handles.len() == 16 {
            for h in handles.drain(..) {
                let _ = h.wait();
            }
        }
    }
    for h in handles {
        let _ = h.wait();
    }
    median(&ns)
}

/// The share of `run_batch_with_policies_each` time spent outside engine
/// steps, replaying the traced busy windows' batch widths on a standalone
/// engine built as a worker builds it.
fn exit_self_share(
    entry: &ModelEntry,
    max_batch: usize,
    widths: &[usize],
    traffic: Traffic<'_>,
) -> f64 {
    let sink = Arc::new(ProfileSink::new(entry.network().layers().len() + 1));
    let mut engine =
        BatchedNetwork::new(entry.network().clone(), max_batch).expect("max_batch > 0");
    engine.set_dispatch(DispatchPolicy {
        mode: DispatchMode::Auto,
        thresholds: entry.density_thresholds().to_vec(),
        packed_thresholds: entry.packed_thresholds().to_vec(),
        quant_thresholds: entry.quant_thresholds().to_vec(),
        quant_eligible: entry.quant_eligible().to_vec(),
    });
    engine.set_profile_sink(Some(Arc::clone(&sink)));
    let mut wall = 0.0;
    let mut next = 0u64;
    for &width in widths {
        let images: Vec<&[f32]> = (0..width as u64).map(|i| traffic.image(next + i)).collect();
        next += width as u64;
        let policies = vec![traffic.policy.clone(); width];
        let t = Instant::now();
        run_batch_with_policies_each(&mut engine, &images, entry, &policies, |_, _| {})
            .expect("replaying a served batch");
        wall += t.elapsed().as_secs_f64();
    }
    1.0 - sink.snapshot().step_nanos as f64 / 1e9 / wall.max(1e-9)
}

/// Batch widths behind `served`: each width `w` answered `n` requests in
/// about `n / w` batches. At most 256, evenly thinned.
fn batch_widths(served: &[Served]) -> Vec<usize> {
    let mut lanes: BTreeMap<usize, usize> = BTreeMap::new();
    for s in served {
        *lanes.entry(s.batch_size.max(1)).or_default() += 1;
    }
    let all: Vec<usize> = lanes
        .iter()
        .flat_map(|(&w, &n)| std::iter::repeat_n(w, n.div_ceil(w)))
        .collect();
    let stride = all.len().div_ceil(256).max(1);
    all.into_iter().step_by(stride).collect()
}

/// Mean time of `decode_request` over the captured request frames and of
/// `encode_response_ok` over the captured responses, in ns.
fn codec_ns(frames: &[Vec<u8>], responses: &[InferResponse]) -> (f64, f64) {
    let t = Instant::now();
    for f in frames {
        std::hint::black_box(decode_request(f).expect("a frame we encoded"));
    }
    let decode = t.elapsed().as_secs_f64() * 1e9 / frames.len().max(1) as f64;
    let mut buf = Vec::with_capacity(64);
    let t = Instant::now();
    for (i, r) in responses.iter().enumerate() {
        buf.clear();
        encode_response_ok(&mut buf, i as u64, r);
        std::hint::black_box(&buf);
    }
    let encode = t.elapsed().as_secs_f64() * 1e9 / responses.len().max(1) as f64;
    (decode, encode)
}

pub fn run(w: &ServeWorkload, seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let mut spans = SpanLog::new(traced);
    let run_span = spans.open("run", 0);
    let policy = ExitPolicy::recommended(HORIZON);
    let model = w.recipe.model_name();

    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        // The previous set-up is torn down first, so set-ups never share
        // the machine.
        drop(kept.take());
        let setup_span = spans.open("setup", run_span);
        let mut times = SetupTimes::default();
        let installed = models::install(w.recipe, &mut times, &mut spans, setup_span);
        let (pool, labels) = models::pool(&installed.test, w.pool, seed);
        let t = Instant::now();
        let stack = Stack::start(w, Arc::clone(&installed.registry), false)?;
        times.start_s = t.elapsed().as_secs_f64();
        spans.since("runtime.start", setup_span, t);
        let t = Instant::now();
        stack.warm_up(Traffic {
            model,
            policy: &policy,
            pool: &pool,
        })?;
        times.warmup_s = t.elapsed().as_secs_f64();
        spans.since("warmup", setup_span, t);
        spans.close(setup_span);
        setups.push(times);
        kept = Some((installed, stack, pool, labels));
    }
    let (installed, stack, pool, labels) = kept.expect("at least one set-up");
    report.set(
        "setup_s",
        median(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>()),
    );
    let traffic = Traffic {
        model,
        policy: &policy,
        pool: &pool,
    };

    // The oracle: the scalar engine, documented identical to each
    // lockstep lane, on every distinct image. Not part of set-up time.
    let entry = installed.entry();
    let mut scalar = entry.network().clone();
    let oracle: Vec<Expected> = pool
        .iter()
        .map(|image| {
            let o =
                run_with_policy(&mut scalar, image, &entry, &policy).expect("scalar oracle run");
            (o.prediction, o.steps, o.spikes)
        })
        .collect();

    // Short interleaved windows: host noise lands on a few windows of
    // every kind instead of on one whole phase.
    let rounds = (seconds / 1.5).round().max(1.0) as usize;
    let specs = windows(w, seconds, rounds);
    let steal_before = stats::read_proc_stat();
    let mut seen = vec![false; pool.len()];
    let untraced = measure(
        &stack,
        traffic,
        &specs,
        rounds,
        &oracle,
        Observe {
            traced: false,
            seen: &mut seen,
            spans: &mut spans,
            parent: run_span,
        },
        || {},
    )?;
    untraced.print("untraced");
    put_timings(&mut report, "", &untraced);
    put_outputs(&mut report, &untraced, &seen, &oracle, &labels);
    drop(stack);
    let mut lag: Vec<f64> = untraced
        .all()
        .flat_map(|s| s.lag_us.iter().copied())
        .collect();
    let mut refused: u64 = untraced.all().map(|s| s.shed).sum();

    if traced {
        let stack = Stack::start(w, installed.reinstall(), true)?;
        stack.warm_up(traffic)?;
        let entry = stack.runtime.registry().get(model).expect("reinstalled");
        let profile = entry.profile();
        profile.reset();
        let mut batches_at = vec![0];
        let mut seen = vec![false; pool.len()];
        let runs = measure(
            &stack,
            traffic,
            &specs,
            rounds,
            &oracle,
            Observe {
                traced: true,
                seen: &mut seen,
                spans: &mut spans,
                parent: run_span,
            },
            || batches_at.push(profile.snapshot().batches),
        )?;
        runs.print("traced");
        put_timings(&mut report, "traced.", &runs);
        report.mismatches += runs.all().map(|s| s.mismatches).sum::<u64>();
        lag.extend(runs.all().flat_map(|s| s.lag_us.iter().copied()));
        refused += runs.all().map(|s| s.shed).sum::<u64>();
        for m in OVERHEAD_OF {
            report.set(
                &format!("obs.overhead.{m}"),
                report.get(&format!("traced.{m}")) - report.get(m),
            );
        }

        // Where each answered request's time went: the server's queue and
        // service time, and the front-end residual. p50s describe the
        // light windows and p95s the busy ones, the windows of the
        // end-to-end metrics they explain.
        let light: Vec<Served> = runs
            .of(LIGHT)
            .flat_map(|s| s.detail.iter().copied())
            .collect();
        let busy: Vec<Served> = runs
            .of(BUSY)
            .flat_map(|s| s.detail.iter().copied())
            .collect();
        let q = |v: &[Served], f: fn(&Served) -> f64, p| {
            quantile(&v.iter().map(f).collect::<Vec<_>>(), p)
        };
        let residual = |s: &Served| frontend_residual_us(s.latency_us, s.queue_us, s.service_us);
        report.set("net.frontend_us.p50", q(&light, residual, 0.5));
        report.set("net.frontend_us.p95", q(&busy, residual, 0.95));
        report.set("queue.wait_us.p50", q(&light, |s| s.queue_us as f64, 0.5));
        report.set("queue.wait_us.p95", q(&busy, |s| s.queue_us as f64, 0.95));
        report.set(
            "exit.service_us.p50",
            q(&light, |s| s.service_us as f64, 0.5),
        );
        report.set(
            "exit.service_us.p95",
            q(&busy, |s| s.service_us as f64, 0.95),
        );
        let served: u64 = runs.all().map(|s| s.served).sum();
        report.set(
            "exit.early_share",
            runs.all().map(|s| s.early).sum::<u64>() as f64 / served.max(1) as f64,
        );
        // Lockstep batches per busy window, from the profile's batch
        // counter read after every window.
        let busy_batches: u64 = (BUSY..batches_at.len() - 1)
            .step_by(3)
            .map(|i| batches_at[i + 1] - batches_at[i])
            .sum();
        report.set(
            "worker.width.mean",
            busy.len() as f64 / busy_batches.max(1) as f64,
        );
        report.set(
            "worker.batches",
            *batches_at.last().expect("nonempty") as f64,
        );
        let lane_steps: u64 = runs.all().map(|s| s.lane_steps).sum();
        layers::put_profile(&mut report, &profile.snapshot(), lane_steps as f64);

        // Replays that time one layer's public functions.
        if let Some(server) = &stack.server {
            let net = server.stats();
            report.set(
                "net.bytes_per_req",
                (net.bytes_in + net.bytes_out) as f64 / net.frames_in.max(1) as f64,
            );
            let (decode, encode) = codec_ns(&runs.request_frames, &runs.responses);
            report.set("net.decode_request_ns", decode);
            report.set("net.encode_response_ns", encode);
        }
        let t = Instant::now();
        report.set(
            "runtime.submit_ns",
            time_calls(traffic, |r| stack.runtime.submit(r).ok()),
        );
        report.set(
            "shed.admit_ns",
            time_calls(traffic, |r| stack.admission.try_admit(r).ok()),
        );
        spans.since("replay.submit_admit", run_span, t);
        let t = Instant::now();
        report.set(
            "exit.self_share",
            exit_self_share(&entry, w.max_batch, &batch_widths(&busy), traffic),
        );
        spans.since("replay.exit", run_span, t);
        report.set(
            "batch.engine_new_us",
            layers::engine_new_us(entry.network(), w.max_batch),
        );
        let images: Vec<&[f32]> = pool.iter().take(64).map(Vec::as_slice).collect();
        report.set(
            "encoder.step_ns",
            layers::encoder_step_ns(w.recipe.scheme().input, &images, HORIZON),
        );
        let t = Instant::now();
        let probe_cfg = AutotuneConfig {
            phase_period: models::PHASE_PERIOD,
            ..AutotuneConfig::default()
        };
        layers::put_autotune(
            &mut report,
            entry.network(),
            w.recipe.scheme(),
            &probe_cfg,
            3,
        );
        spans.since("replay.autotune", run_span, t);
        spans.close(run_span);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{}-seed{seed}.json", w.name));
        spans
            .write(&path, &stack.runtime.tracer().export_chrome())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }
    report.set("shed.refused", refused as f64);
    layers::put_setup(&mut report, &setups);
    report.set("gen.lag_us.p99", quantile(&lag, 0.99));
    if let (Some(before), Some(after)) = (steal_before, stats::read_proc_stat()) {
        let steal = stats::steal_share(before, after);
        println!("# host steal share over the measurement {steal:.3}");
        report.set("host.steal_share", steal);
    }
    report.set("peak_rss_mb", stats::peak_rss_mib().unwrap_or(0.0));
    Ok(report)
}
