//! The per-layer metrics shared by every workload: the engine profile,
//! set-up steps, and the replays that time one layer's public functions.

use crate::models::{SetupTimes, PHASE_PERIOD};
use crate::stats::median;
use crate::Report;
use bsnn_core::autotune::{autotune_batch, AutotuneConfig, BatchPolicy};
use bsnn_core::batch::BatchedNetwork;
use bsnn_core::coding::{CodingScheme, InputCoding};
use bsnn_core::encoder::InputEncoder;
use bsnn_core::{ProfileSnapshot, SpikingNetwork};
use std::time::Instant;

/// Engine stages reported per workload; VGG-small has the most (seven
/// spiking layers plus the output synapse). A model with fewer stages
/// reports 0 for the rest.
pub const STAGES: usize = 8;

/// End-to-end metrics, in output order, with units.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("capacity_rps", "1/s"),
    ("p50_us.light", "us"),
    ("p95_us.light", "us"),
    ("p50_us.busy", "us"),
    ("p95_us.busy", "us"),
    ("served_share", "share"),
    ("accuracy", "share"),
    ("steps_per_inference", "steps"),
    ("spikes_per_inference", "spikes"),
];

/// End-to-end metrics whose traced − untraced difference is reported as
/// the tracing overhead.
pub const OVERHEAD_OF: [&str; 5] = [
    "capacity_rps",
    "p50_us.light",
    "p95_us.light",
    "p50_us.busy",
    "p95_us.busy",
];

const STAGE_METRICS: [(&str, &str); 8] = [
    ("time_share", "share"),
    ("us_per_step", "us"),
    ("density", "share"),
    ("dense_share", "share"),
    ("packed_share", "share"),
    ("sparse_share", "share"),
    ("quant_share", "share"),
    ("cached_share", "share"),
];

/// Per-layer metrics, in output order, with units. Layers a workload
/// does not run (the network front-end in process, the serving layers
/// on the evaluator) report 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut table: Vec<(String, &'static str)> = [
        ("net.frontend_us.p50", "us"),
        ("net.frontend_us.p95", "us"),
        ("net.decode_request_ns", "ns"),
        ("net.encode_response_ns", "ns"),
        ("net.bytes_per_req", "bytes"),
        ("shed.admit_ns", "ns"),
        ("shed.refused", "count"),
        ("runtime.submit_ns", "ns"),
        ("queue.wait_us.p50", "us"),
        ("queue.wait_us.p95", "us"),
        ("worker.width.mean", "lanes"),
        ("worker.batches", "count"),
        ("exit.service_us.p50", "us"),
        ("exit.service_us.p95", "us"),
        ("exit.early_share", "share"),
        ("exit.self_share", "share"),
        ("batch.step_us", "us"),
        ("batch.engine_new_us", "us"),
        ("batch.stage_share", "share"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for k in 0..STAGES {
        for (m, unit) in STAGE_METRICS {
            table.push((format!("batch.s{k}.{m}"), unit));
        }
    }
    for (n, u) in [
        ("encoder.step_ns", "ns"),
        ("encoder.skipped_share", "share"),
        ("simulator.lane_steps_per_s", "1/s"),
        ("data.generate_s", "s"),
        ("dnn.train_s", "s"),
        ("convert.s", "s"),
        ("snapshot.save_us", "us"),
        ("registry.install_us", "us"),
        ("runtime.start_s", "s"),
        ("warmup.s", "s"),
        ("autotune.probe_s", "s"),
        ("autotune.agreement", "share"),
    ] {
        table.push((n.to_string(), u));
    }
    for m in OVERHEAD_OF {
        let unit = END_TO_END.iter().find(|(n, _)| *n == m).map_or("", |e| e.1);
        table.push((format!("obs.overhead.{m}"), unit));
    }
    table.push(("gen.lag_us.p99".to_string(), "us"));
    table.push(("host.steal_share".to_string(), "share"));
    table
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The engine profile of a traced window: step time, each stage's share
/// of it and kernel mix, the stage-0 replay share, and lane-steps per
/// engine-second (`lane_steps` simulated in the window).
pub fn put_profile(report: &mut Report, profile: &ProfileSnapshot, lane_steps: f64) {
    let stage_nanos: u64 = profile.stages.iter().map(|s| s.kernel_nanos).sum();
    report.set(
        "batch.step_us",
        profile.step_nanos as f64 / 1e3 / profile.steps.max(1) as f64,
    );
    report.set("batch.stage_share", share(stage_nanos, profile.step_nanos));
    for (k, stage) in profile.stages.iter().enumerate().take(STAGES) {
        let steps = stage.total_steps();
        let s = |m: &str| format!("batch.s{k}.{m}");
        report.set(
            &s("time_share"),
            share(stage.kernel_nanos, profile.step_nanos),
        );
        report.set(
            &s("us_per_step"),
            stage.kernel_nanos as f64 / 1e3 / steps.max(1) as f64,
        );
        report.set(&s("density"), stage.mean_density);
        report.set(&s("dense_share"), share(stage.dense_steps, steps));
        report.set(&s("packed_share"), share(stage.packed_steps, steps));
        report.set(&s("sparse_share"), share(stage.sparse_steps, steps));
        report.set(&s("quant_share"), share(stage.quant_steps, steps));
        report.set(&s("cached_share"), share(stage.cached_steps, steps));
    }
    if let Some(s0) = profile.stages.first() {
        report.set(
            "encoder.skipped_share",
            share(s0.cached_steps, s0.total_steps()),
        );
    }
    report.set(
        "simulator.lane_steps_per_s",
        lane_steps / (profile.step_nanos.max(1) as f64 / 1e9),
    );
}

/// Median of each set-up step over the run's set-ups.
pub fn put_setup(report: &mut Report, setups: &[SetupTimes]) {
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    report.set("data.generate_s", med(|t| t.data_s));
    report.set("dnn.train_s", med(|t| t.train_s));
    report.set("convert.s", med(|t| t.convert_s));
    report.set("snapshot.save_us", med(|t| t.save_s) * 1e6);
    report.set("registry.install_us", med(|t| t.install_s) * 1e6);
    report.set("runtime.start_s", med(|t| t.start_s));
    report.set("warmup.s", med(|t| t.warmup_s));
}

/// Median time of `BatchedNetwork::new` (which builds the eager int8
/// tables) at `width`, over five constructions.
pub fn engine_new_us(net: &SpikingNetwork, width: usize) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let template = net.clone();
            let t = Instant::now();
            let engine = BatchedNetwork::new(template, width).expect("width is nonzero");
            let us = t.elapsed().as_secs_f64() * 1e6;
            drop(std::hint::black_box(engine));
            us
        })
        .collect();
    median(&samples)
}

/// Mean time of one `InputEncoder::step` over `steps` steps of each image.
pub fn encoder_step_ns(coding: InputCoding, images: &[&[f32]], steps: usize) -> f64 {
    let mut total = 0.0;
    for image in images {
        let mut encoder = InputEncoder::new(coding, image, PHASE_PERIOD).expect("nonempty image");
        let mut buf = vec![0.0f32; encoder.len()];
        let t = Instant::now();
        for step in 0..steps as u64 {
            std::hint::black_box(encoder.step(step, &mut buf));
        }
        total += t.elapsed().as_secs_f64();
    }
    total * 1e9 / (images.len() * steps).max(1) as f64
}

fn same_decision(a: &BatchPolicy, b: &BatchPolicy) -> bool {
    a.preferred_batch == b.preferred_batch
        && a.density_thresholds == b.density_thresholds
        && a.packed_thresholds == b.packed_thresholds
        && a.quant_thresholds == b.quant_thresholds
        && a.quant_eligible == b.quant_eligible
}

/// Probes `autotune_batch` `probes` times: the median probe time, and the
/// share of probes whose decision (width, crossovers, int8 eligibility)
/// matches the first probe's.
pub fn put_autotune(
    report: &mut Report,
    net: &SpikingNetwork,
    scheme: CodingScheme,
    cfg: &AutotuneConfig,
    probes: usize,
) {
    let mut times = Vec::new();
    let mut policies = Vec::new();
    for _ in 0..probes {
        let t = Instant::now();
        policies.push(autotune_batch(net, scheme, cfg).expect("autotune probe"));
        times.push(t.elapsed().as_secs_f64());
    }
    let agree = policies
        .iter()
        .filter(|p| same_decision(p, &policies[0]))
        .count();
    for (i, p) in policies.iter().enumerate() {
        println!(
            "# autotune probe {i}: width {} quant eligible {:?}",
            p.preferred_batch, p.quant_eligible
        );
    }
    report.set("autotune.probe_s", median(&times));
    report.set("autotune.agreement", agree as f64 / probes.max(1) as f64);
}
