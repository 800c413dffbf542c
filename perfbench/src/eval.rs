//! The offline evaluation workload: `exp_table1`'s quick-profile
//! VGG-small, rate-burst at vth 0.125, evaluated by
//! `evaluate_dataset_batched_with_dispatch` at a fixed 64-step horizon,
//! width 16.
//!
//! It runs the engine differently from serving: full width, full
//! horizon, no early exit and no serving layers, and the aperiodic rate
//! input means the stage-0 PSP cache never hits and the encoder runs
//! every step. One 16-image chunk takes ~2 s on a 2-vCPU machine, so a
//! run evaluates a fixed 64-image set: the light phase evaluates single
//! chunks on one thread (one chunk in flight), the busy phase evaluates
//! chunk pairs on two threads (32 images in flight), which is also the
//! capacity measurement. An image's latency is the duration of the call
//! that evaluated it: every lane of a fixed-horizon chunk finishes
//! together. Timings come from the calmest half of each phase's calls
//! (see [`stats::calmest`]).

use crate::layers::{self, OVERHEAD_OF};
use crate::models::{self, Recipe, SetupTimes};
use crate::stats::{self, median, quantile};
use crate::trace::SpanLog;
use crate::Report;
use bsnn_core::batch::{BatchedNetwork, BatchedStepwiseInference, DispatchPolicy};
use bsnn_core::simulator::{
    evaluate_dataset, evaluate_dataset_batched_with_dispatch, EvalConfig, EvalResult,
};
use bsnn_core::{ProfileSink, SpikingNetwork};
use bsnn_data::ImageDataset;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run (each trains VGG-small for ~20 s); `setup_s` is their
/// median.
const SETUPS: usize = 2;
const WIDTH: usize = 16;
const THREADS: usize = 2;
const STEPS: usize = 64;
/// Chunks in the evaluation set: the first 64 images of `exp_table1`'s
/// test split, which the seed orders into chunks.
const CHUNKS: usize = 4;

/// An evaluation's integer totals: images, correct at the horizon,
/// spikes, and per-layer spike counts.
#[derive(Debug, Clone, PartialEq, Default)]
struct Totals {
    images: usize,
    correct: u64,
    spikes: u64,
    layer_counts: Vec<u64>,
}

impl Totals {
    fn of(r: &EvalResult) -> Totals {
        let n = r.num_images as f64;
        Totals {
            images: r.num_images,
            correct: (r.final_accuracy() * n).round() as u64,
            spikes: (r.final_mean_spikes() * n).round() as u64,
            layer_counts: r.layer_counts.clone(),
        }
    }

    /// Totals of two disjoint evaluations (layer counts add up lane by
    /// lane; against an empty default they drop out).
    fn plus(&self, other: &Totals) -> Totals {
        Totals {
            images: self.images + other.images,
            correct: self.correct + other.correct,
            spikes: self.spikes + other.spikes,
            layer_counts: self
                .layer_counts
                .iter()
                .zip(&other.layer_counts)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }
}

fn subset(test: &ImageDataset, indices: &[usize]) -> ImageDataset {
    ImageDataset::new(
        test.name(),
        indices
            .iter()
            .flat_map(|&i| test.image(i).to_vec())
            .collect(),
        indices.iter().map(|&i| test.label(i)).collect(),
        test.channels(),
        test.height(),
        test.width(),
        test.num_classes(),
    )
}

/// One timed evaluation call.
#[derive(Debug, Clone, Copy)]
struct Call {
    images: usize,
    secs: f64,
    /// Host CPU steal share during the call.
    steal: f64,
}

fn timed_eval(
    net: &SpikingNetwork,
    data: &ImageDataset,
    cfg: &EvalConfig,
    threads: usize,
) -> Result<(Totals, Call), String> {
    let before = stats::read_proc_stat();
    let t = Instant::now();
    let r = evaluate_dataset_batched_with_dispatch(
        net,
        data,
        cfg,
        threads,
        WIDTH,
        &DispatchPolicy::default(),
    )
    .map_err(|e| e.to_string())?;
    let secs = t.elapsed().as_secs_f64();
    let steal = match (before, stats::read_proc_stat()) {
        (Some(before), Some(after)) => stats::steal_share(before, after),
        _ => 0.0,
    };
    let call = Call {
        images: r.num_images,
        secs,
        steal,
    };
    Ok((Totals::of(&r), call))
}

/// The `keep` calmest of `calls`.
fn calm_calls(calls: &[Call], keep: usize) -> Vec<Call> {
    let calm = stats::calmest(&calls.iter().map(|c| c.steal).collect::<Vec<_>>(), keep);
    calls
        .iter()
        .zip(calm)
        .filter(|(_, calm)| *calm)
        .map(|(c, _)| *c)
        .collect()
}

/// Per-image latencies, µs: each image waits for its whole call.
fn latencies_us(calls: &[Call]) -> Vec<f64> {
    calls
        .iter()
        .flat_map(|c| std::iter::repeat_n(c.secs * 1e6, c.images))
        .collect()
}

/// The lockstep loop `evaluate_dataset_batched_with_dispatch` runs for
/// one chunk, on an engine reporting into `sink`: the traced replay.
fn profiled_chunk(
    net: &SpikingNetwork,
    data: &ImageDataset,
    cfg: &EvalConfig,
    sink: &Arc<ProfileSink>,
) -> Totals {
    let mut engine = BatchedNetwork::new(net.clone(), WIDTH).expect("width is nonzero");
    engine.set_dispatch(DispatchPolicy::default());
    engine.set_profile_sink(Some(Arc::clone(sink)));
    let images: Vec<&[f32]> = (0..data.len()).map(|i| data.image(i)).collect();
    let mut run =
        BatchedStepwiseInference::new_padded(&mut engine, &images, cfg).expect("valid chunk");
    while run.advance().expect("simulation step") {}
    let mut t = Totals {
        images: data.len(),
        layer_counts: vec![0; net.spiking_layer_sizes().len()],
        ..Totals::default()
    };
    for lane in 0..data.len() {
        t.correct += u64::from(run.prediction(lane) == data.label(lane));
        t.spikes += run.total_spikes(lane);
        for (a, b) in t.layer_counts.iter_mut().zip(run.layer_counts(lane)) {
            *a += b;
        }
    }
    t
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let recipe = Recipe::VggSmallRate;
    let scheme = recipe.scheme();
    let mut report = Report::default();
    let mut spans = SpanLog::new(traced);
    let run_span = spans.open("run", 0);

    let mut setups = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let setup_span = spans.open("setup", run_span);
        let mut times = SetupTimes::default();
        let installed = models::install(recipe, &mut times, &mut spans, setup_span);
        // Warm-up: both threads build their engines and touch every
        // buffer, over a short horizon.
        let t = Instant::now();
        let warm = subset(&installed.test, &(0..THREADS * WIDTH).collect::<Vec<_>>());
        timed_eval(
            installed.entry().network(),
            &warm,
            &EvalConfig::new(scheme, 4),
            THREADS,
        )?;
        times.warmup_s = t.elapsed().as_secs_f64();
        spans.since("warmup", setup_span, t);
        spans.close(setup_span);
        setups.push(times);
        kept = Some(installed);
    }
    let installed = kept.expect("at least one set-up");
    report.set(
        "setup_s",
        median(&setups.iter().map(SetupTimes::total_s).collect::<Vec<_>>()),
    );
    let entry = installed.entry();
    let net = entry.network();
    let cfg = EvalConfig::new(scheme, STEPS);

    let order = models::seeded_pick(CHUNKS * WIDTH, CHUNKS * WIDTH, seed);
    let chunks: Vec<ImageDataset> = order
        .chunks(WIDTH)
        .map(|c| subset(&installed.test, c))
        .collect();
    let pair = |k: usize| {
        let (a, b) = (2 * k % CHUNKS, (2 * k + 1) % CHUNKS);
        let idx: Vec<usize> = order[a * WIDTH..(a + 1) * WIDTH]
            .iter()
            .chain(&order[b * WIDTH..(b + 1) * WIDTH])
            .copied()
            .collect();
        ((a, b), subset(&installed.test, &idx))
    };

    // The oracle: the sequential scalar evaluator on the first chunk.
    // Not part of set-up time.
    let oracle = Totals::of(
        &evaluate_dataset(&mut net.clone(), &chunks[0], &cfg).map_err(|e| e.to_string())?,
    );

    // Five calls of each kind per 15 s; four single-chunk calls cover the
    // whole set.
    let calls = ((seconds / 3.0).round() as usize).max(1);
    // Timings come from the calmest half of `calls` calls of each kind;
    // up to half as many calls again are made while fewer than that ran
    // on a calm host.
    let keep = calls.div_ceil(2);
    let more = |made: &[Call]| {
        let steal: Vec<f64> = made.iter().map(|c| c.steal).collect();
        made.len() < calls || (made.len() < calls + calls / 2 && !stats::enough_calm(&steal, keep))
    };
    let steal_before = stats::read_proc_stat();
    // Each chunk's totals from its first single-chunk evaluation (the
    // first chunk's from the oracle); every later evaluation of a chunk,
    // alone or in a pair, must reproduce them exactly.
    let mut known: Vec<Option<Totals>> = vec![None; CHUNKS];
    known[0] = Some(oracle.clone());
    let check = |report: &mut Report, expected: Option<&Totals>, got: &Totals| {
        if expected.is_some_and(|e| e != got) {
            report.mismatches += got.images as u64;
        }
    };

    let mut light = Vec::new();
    while more(&light) {
        let c = light.len() % CHUNKS;
        let (totals, call) = timed_eval(net, &chunks[c], &cfg, 1)?;
        check(&mut report, known[c].as_ref(), &totals);
        known[c].get_or_insert(totals);
        light.push(call);
    }
    let mut busy = Vec::new();
    while more(&busy) {
        let ((a, b), data) = pair(busy.len());
        let (totals, call) = timed_eval(net, &data, &cfg, THREADS)?;
        if let (Some(x), Some(y)) = (&known[a], &known[b]) {
            check(&mut report, Some(&x.plus(y)), &totals);
        }
        busy.push(call);
    }
    report.attempted = light.iter().chain(&busy).map(|c| c.images as u64).sum();
    // Quality over the distinct images evaluated alone: with four or
    // more calls, the whole set, whatever order the seed gave it.
    let distinct = known
        .iter()
        .flatten()
        .fold(Totals::default(), |acc, t| acc.plus(t));
    let n = distinct.images.max(1) as f64;
    report.set("accuracy", distinct.correct as f64 / n);
    report.set("spikes_per_inference", distinct.spikes as f64 / n);
    report.set("steps_per_inference", STEPS as f64);
    let (light_calm, busy_calm) = (calm_calls(&light, keep), calm_calls(&busy, keep));
    let (light_us, busy_us) = (latencies_us(&light_calm), latencies_us(&busy_calm));
    report.set("p50_us.light", quantile(&light_us, 0.5));
    report.set("p95_us.light", quantile(&light_us, 0.95));
    report.set("p50_us.busy", quantile(&busy_us, 0.5));
    report.set("p95_us.busy", quantile(&busy_us, 0.95));
    report.set(
        "capacity_rps",
        busy_calm.iter().map(|c| c.images).sum::<usize>() as f64
            / busy_calm.iter().map(|c| c.secs).sum::<f64>().max(1e-9),
    );
    for (name, calls) in [("light", &light), ("busy", &busy)] {
        let show: Vec<String> = calls
            .iter()
            .map(|c| format!("{:.2} s (steal {:.2})", c.secs, c.steal))
            .collect();
        println!(
            "# {name}: {} calls of {} images: {}",
            calls.len(),
            calls[0].images,
            show.join(", ")
        );
    }
    println!("# distinct images evaluated {}", distinct.images);

    if traced {
        // The same calls with a profile sink on every engine.
        let sink = Arc::new(ProfileSink::new(net.layers().len() + 1));
        let t = Instant::now();
        let light_replay = profiled_chunk(net, &chunks[0], &cfg, &sink);
        let light_secs = t.elapsed().as_secs_f64();
        spans.since("traced.light", run_span, t);
        check(&mut report, Some(&oracle), &light_replay);
        let ((a, b), _) = pair(0);
        let t = Instant::now();
        let busy_replay = std::thread::scope(|scope| {
            let handles: Vec<_> = [a, b]
                .into_iter()
                .map(|c| {
                    let (chunk, sink, cfg) = (&chunks[c], &sink, &cfg);
                    scope.spawn(move || profiled_chunk(net, chunk, cfg, sink))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("profiled chunk thread panicked"))
                .collect::<Vec<_>>()
        });
        let busy_secs = t.elapsed().as_secs_f64();
        spans.since("traced.busy", run_span, t);
        check(&mut report, known[a].as_ref(), &busy_replay[0]);
        check(&mut report, known[b].as_ref(), &busy_replay[1]);
        report.set("traced.p50_us.light", light_secs * 1e6);
        report.set("traced.p95_us.light", light_secs * 1e6);
        report.set("traced.p50_us.busy", busy_secs * 1e6);
        report.set("traced.p95_us.busy", busy_secs * 1e6);
        report.set("traced.capacity_rps", (THREADS * WIDTH) as f64 / busy_secs);
        for m in OVERHEAD_OF {
            report.set(
                &format!("obs.overhead.{m}"),
                report.get(&format!("traced.{m}")) - report.get(m),
            );
        }
        let lane_steps = (3 * WIDTH * STEPS) as f64;
        layers::put_profile(&mut report, &sink.snapshot(), lane_steps);
        report.set("batch.engine_new_us", layers::engine_new_us(net, WIDTH));
        let images: Vec<&[f32]> = (0..WIDTH).map(|i| chunks[0].image(i)).collect();
        report.set(
            "encoder.step_ns",
            layers::encoder_step_ns(scheme.input, &images, STEPS),
        );
        // `autotune_batch` is not probed here: one default probe of
        // VGG-small takes ~90 s on two vCPUs, past a run's time limit.
        spans.close(run_span);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("eval_vggsmall_rate-seed{seed}.json"));
        spans
            .write(&path, "[]")
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# spans written to {}", path.display());
    }
    layers::put_setup(&mut report, &setups);
    if let (Some(before), Some(after)) = (steal_before, stats::read_proc_stat()) {
        let steal = stats::steal_share(before, after);
        println!("# host steal share over the measurement {steal:.3}");
        report.set("host.steal_share", steal);
    }
    report.failed = report.mismatches;
    report.set(
        "served_share",
        1.0 - stats::failed_share(report.attempted, report.failed),
    );
    report.set("peak_rss_mb", stats::peak_rss_mib().unwrap_or(0.0));
    Ok(report)
}
