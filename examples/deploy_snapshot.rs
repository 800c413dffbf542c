//! Deployment workflow: convert once, snapshot the spiking network to a
//! file, reload it (e.g. on the edge device), verify bit-identical
//! behaviour, and print a per-layer activity report showing where the
//! spike budget goes.
//!
//! Run with: `cargo run --release --example deploy_snapshot`

use burst_snn::analysis::ActivityReport;
use burst_snn::core::coding::CodingScheme;
use burst_snn::core::convert::{convert, ConversionConfig};
use burst_snn::core::simulator::{infer_image, record_spike_trains, EvalConfig};
use burst_snn::core::{load_network, save_network_to_path};
use burst_snn::data::SynthSpec;
use burst_snn::dnn::models;
use burst_snn::dnn::train::{TrainConfig, Trainer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (train, test) = SynthSpec::digits().with_counts(40, 8).generate();
    let mut dnn = models::cnn_digits(1, 12, 12, 10, 7)?;
    Trainer::new(TrainConfig {
        epochs: 5,
        batch_size: 32,
        lr: 1.5e-3,
        ..TrainConfig::default()
    })
    .fit(&mut dnn, &train, &test)?;

    // Convert once with the paper's recommended scheme...
    let scheme = CodingScheme::recommended();
    let norm = train.batch(&(0..40).collect::<Vec<_>>()).0;
    let mut snn = convert(
        &mut dnn,
        &norm,
        &ConversionConfig::new(scheme).with_vth(0.125),
    )?;

    // ...snapshot to disk (atomic temp-file + rename, so a watcher or a
    // crashed writer can never observe a half-written snapshot)...
    let path = std::env::temp_dir().join("burst-snn-quickstart.bsnn");
    save_network_to_path(&snn, &path)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!("snapshot written: {} ({bytes} bytes)", path.display());

    // ...reload and verify identical behaviour.
    let mut restored = load_network(std::fs::File::open(&path)?)?;
    let cfg = EvalConfig::new(scheme, 128);
    let a = infer_image(&mut snn, test.image(0), &cfg)?;
    let b = infer_image(&mut restored, test.image(0), &cfg)?;
    assert_eq!(a.predictions, b.predictions);
    assert_eq!(a.cum_spikes, b.cum_spikes);
    println!(
        "restored network verified: prediction {}, {} spikes over {} steps",
        b.predictions[0], b.cum_spikes[0], cfg.steps
    );

    // Where does the spike budget go? Per-layer activity report.
    let trains = record_spike_trains(&mut restored, test.image(0), scheme, 128, 0.25, 7)?;
    let result = infer_image(&mut restored, test.image(0), &cfg)?;
    let report = ActivityReport::new(
        result.record.layer_counts(),
        &restored.spiking_layer_sizes(),
        128,
        &trains,
    );
    println!(
        "\nper-layer activity (layer 0 = input):\n{}",
        report.to_table()
    );
    if let Some(hot) = report.hottest_layer() {
        println!(
            "hottest layer: {} (density {:.4} spikes/neuron/step)",
            hot.layer, hot.density
        );
    }
    std::fs::remove_file(&path)?;
    Ok(())
}
