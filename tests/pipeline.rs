//! End-to-end integration tests spanning every crate in the workspace:
//! dataset generation → DNN training → DNN→SNN conversion → clock-driven
//! simulation → spike-train analysis.

use burst_snn::analysis::{burst_composition, population_firing, IsiHistogram};
use burst_snn::core::coding::{CodingScheme, HiddenCoding, InputCoding};
use burst_snn::core::convert::{convert, ConversionConfig, Normalization};
use burst_snn::core::simulator::{
    evaluate_dataset, evaluate_dataset_batched, record_spike_trains, EvalConfig,
};
use burst_snn::data::SynthSpec;
use burst_snn::dnn::models;
use burst_snn::dnn::train::{evaluate, TrainConfig, Trainer};

struct Pipeline {
    dnn: burst_snn::dnn::Sequential,
    train: burst_snn::data::ImageDataset,
    test: burst_snn::data::ImageDataset,
    dnn_accuracy: f64,
}

fn trained_pipeline() -> Pipeline {
    let (train, test) = SynthSpec::digits().with_counts(40, 10).generate();
    let mut dnn = models::cnn_digits(1, 12, 12, 10, 3).expect("model");
    let report = Trainer::new(TrainConfig {
        epochs: 5,
        batch_size: 32,
        lr: 1.5e-3,
        ..TrainConfig::default()
    })
    .fit(&mut dnn, &train, &test)
    .expect("training");
    Pipeline {
        dnn_accuracy: report.test_accuracy,
        dnn,
        train,
        test,
    }
}

fn convert_with(p: &mut Pipeline, scheme: CodingScheme) -> burst_snn::core::SpikingNetwork {
    let (norm, _) = p.train.batch(&(0..40).collect::<Vec<_>>());
    convert(
        &mut p.dnn,
        &norm,
        &ConversionConfig::new(scheme).with_vth(0.125),
    )
    .expect("conversion")
}

#[test]
fn dnn_trains_above_chance() {
    let p = trained_pipeline();
    assert!(
        p.dnn_accuracy > 0.5,
        "DNN accuracy {} too low for a meaningful conversion test",
        p.dnn_accuracy
    );
}

#[test]
fn every_scheme_approaches_dnn_accuracy() {
    let mut p = trained_pipeline();
    let dnn_acc = p.dnn_accuracy;
    for scheme in CodingScheme::all() {
        // Phase input operates per-period (k× slower drive), rate input
        // needs integration time: give slower schemes a longer horizon.
        let steps = match scheme.input {
            InputCoding::Real => 160,
            InputCoding::Rate => 256,
            InputCoding::Phase | InputCoding::Ttfs => 384,
        };
        let mut snn = convert_with(&mut p, scheme);
        let eval = evaluate_dataset(
            &mut snn,
            &p.test,
            &EvalConfig::new(scheme, steps).with_max_images(40),
        )
        .expect("evaluation");
        assert!(
            eval.final_accuracy() >= dnn_acc - 0.10,
            "{scheme}: SNN {:.3} vs DNN {:.3}",
            eval.final_accuracy(),
            dnn_acc
        );
    }
}

#[test]
fn snn_agrees_with_dnn_predictions() {
    let mut p = trained_pipeline();
    let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
    let mut snn = convert_with(&mut p, scheme);
    let n = 30usize;
    let mut agree = 0usize;
    for i in 0..n {
        let (batch, _) = p.test.batch(&[i]);
        let dnn_pred = p.dnn.predict(&batch).expect("dnn predict")[0];
        let result = burst_snn::core::simulator::infer_image(
            &mut snn,
            p.test.image(i),
            &EvalConfig::new(scheme, 200),
        )
        .expect("snn inference");
        if result.predictions[0] == dnn_pred {
            agree += 1;
        }
    }
    assert!(
        agree as f64 / n as f64 >= 0.85,
        "SNN agrees with DNN on only {agree}/{n} images"
    );
}

#[test]
fn burst_converges_faster_than_rate_hidden_under_phase_input() {
    // The paper's headline: burst hidden coding transmits bursty phase
    // packets quickly; rate hidden coding is drive-rate limited.
    let mut p = trained_pipeline();
    let target = p.dnn_accuracy - 0.05;
    let mut latency = std::collections::HashMap::new();
    for hidden in [HiddenCoding::Rate, HiddenCoding::Burst] {
        let scheme = CodingScheme::new(InputCoding::Phase, hidden);
        let mut snn = convert_with(&mut p, scheme);
        let eval = evaluate_dataset(
            &mut snn,
            &p.test,
            &EvalConfig::new(scheme, 384)
                .with_checkpoint_every(16)
                .with_max_images(40),
        )
        .expect("evaluation");
        latency.insert(
            hidden,
            eval.latency_to(target).map_or(usize::MAX, |(t, _)| t),
        );
    }
    assert!(
        latency[&HiddenCoding::Burst] <= latency[&HiddenCoding::Rate],
        "burst latency {:?} should not exceed rate latency {:?}",
        latency[&HiddenCoding::Burst],
        latency[&HiddenCoding::Rate]
    );
}

#[test]
fn burst_coding_produces_burst_spikes_rate_does_not() {
    let mut p = trained_pipeline();
    let mut fractions = Vec::new();
    for hidden in [HiddenCoding::Rate, HiddenCoding::Burst] {
        let scheme = CodingScheme::new(InputCoding::Phase, hidden);
        let mut snn = convert_with(&mut p, scheme);
        let trains =
            record_spike_trains(&mut snn, p.test.image(0), scheme, 256, 0.5, 9).expect("recording");
        let hidden_trains: Vec<_> = trains.into_iter().filter(|t| t.neuron.layer > 0).collect();
        fractions.push(burst_composition(&hidden_trains).burst_fraction());
    }
    // Burst coding must produce a clearly higher consecutive-spike
    // fraction than a fixed unit threshold.
    assert!(
        fractions[1] > fractions[0],
        "burst fraction {:.3} should exceed rate fraction {:.3}",
        fractions[1],
        fractions[0]
    );
}

#[test]
fn smaller_vth_means_more_spikes_and_more_bursts() {
    let mut p = trained_pipeline();
    let scheme = CodingScheme::recommended();
    let (norm, _) = p.train.batch(&(0..40).collect::<Vec<_>>());
    let mut prev_spikes = 0u64;
    let mut prev_burst_frac = -1.0f64;
    for vth in [0.5f32, 0.125, 0.03125] {
        let cfg = ConversionConfig::new(scheme).with_vth(vth);
        let mut snn = convert(&mut p.dnn, &norm, &cfg).expect("conversion");
        let trains =
            record_spike_trains(&mut snn, p.test.image(0), scheme, 256, 1.0, 5).expect("recording");
        let hidden_trains: Vec<_> = trains.into_iter().filter(|t| t.neuron.layer > 0).collect();
        let stats = burst_composition(&hidden_trains);
        assert!(
            stats.total_spikes > prev_spikes,
            "vth={vth}: spikes {} should exceed {}",
            stats.total_spikes,
            prev_spikes
        );
        assert!(
            stats.burst_fraction() >= prev_burst_frac,
            "vth={vth}: burst fraction should not decrease"
        );
        prev_spikes = stats.total_spikes;
        prev_burst_frac = stats.burst_fraction();
    }
}

#[test]
fn isi_histogram_of_burst_is_short_isi_heavy() {
    let mut p = trained_pipeline();
    let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Burst);
    let mut snn = convert_with(&mut p, scheme);
    let trains =
        record_spike_trains(&mut snn, p.test.image(1), scheme, 256, 0.5, 3).expect("recording");
    let hidden_trains: Vec<_> = trains.into_iter().filter(|t| t.neuron.layer > 0).collect();
    let hist = IsiHistogram::from_trains(&hidden_trains, 16);
    assert!(
        hist.short_isi_fraction(2) > 0.5,
        "burst coding short-ISI fraction {:.3} should dominate",
        hist.short_isi_fraction(2)
    );
}

#[test]
fn phase_hidden_fires_faster_than_rate_hidden() {
    // Fig. 5 cluster structure: phase hidden → high firing rate.
    let mut p = trained_pipeline();
    let mut rates = Vec::new();
    for hidden in [HiddenCoding::Rate, HiddenCoding::Phase] {
        let scheme = CodingScheme::new(InputCoding::Real, hidden);
        let mut snn = convert_with(&mut p, scheme);
        let trains =
            record_spike_trains(&mut snn, p.test.image(2), scheme, 512, 0.3, 1).expect("recording");
        let hidden_trains: Vec<_> = trains.into_iter().filter(|t| t.neuron.layer > 0).collect();
        rates.push(population_firing(&hidden_trains).mean_log_rate);
    }
    assert!(
        rates[1] > rates[0],
        "phase <log λ> {:.3} should exceed rate <log λ> {:.3}",
        rates[1],
        rates[0]
    );
}

#[test]
fn normalization_methods_both_convert_successfully() {
    let mut p = trained_pipeline();
    let scheme = CodingScheme::new(InputCoding::Real, HiddenCoding::Rate);
    let (norm, _) = p.train.batch(&(0..40).collect::<Vec<_>>());
    for method in [Normalization::Max, Normalization::Percentile(99.9)] {
        let cfg = ConversionConfig::new(scheme).with_normalization(method);
        let mut snn = convert(&mut p.dnn, &norm, &cfg).expect("conversion");
        let eval = evaluate_dataset(
            &mut snn,
            &p.test,
            &EvalConfig::new(scheme, 160).with_max_images(30),
        )
        .expect("evaluation");
        assert!(
            eval.final_accuracy() >= p.dnn_accuracy - 0.12,
            "{method:?}: accuracy {:.3}",
            eval.final_accuracy()
        );
    }
}

#[test]
fn dnn_evaluation_is_stable_after_conversion() {
    // Conversion must not mutate the source DNN's parameters.
    let mut p = trained_pipeline();
    let before = evaluate(&mut p.dnn, &p.test, 32).expect("eval");
    let _ = convert_with(&mut p, CodingScheme::recommended());
    let after = evaluate(&mut p.dnn, &p.test, 32).expect("eval");
    assert_eq!(before, after);
}

#[test]
fn parallel_evaluation_matches_sequential_for_all_thread_counts() {
    // The parallel evaluator must be bit-identical to the sequential one
    // regardless of how the image range is partitioned.
    let mut p = trained_pipeline();
    let scheme = CodingScheme::recommended();
    let snn = convert_with(&mut p, scheme);
    let cfg = EvalConfig::new(scheme, 96)
        .with_checkpoint_every(32)
        .with_max_images(24);
    let mut seq = snn.clone();
    let sequential = evaluate_dataset(&mut seq, &p.test, &cfg).expect("sequential");
    for threads in [1, 2, 3, 8] {
        let parallel = evaluate_dataset_batched(&snn, &p.test, &cfg, threads, 1).expect("parallel");
        assert_eq!(
            sequential.accuracy_at, parallel.accuracy_at,
            "accuracy curve diverged at {threads} threads"
        );
        assert_eq!(
            sequential.mean_spikes_at, parallel.mean_spikes_at,
            "spike curve diverged at {threads} threads"
        );
        assert_eq!(
            sequential.layer_counts, parallel.layer_counts,
            "layer counts diverged at {threads} threads"
        );
    }
}
