//! Table 1 — accuracy / latency / spike counts for all nine input×hidden
//! coding combinations on the CIFAR-10 stand-in with the VGG-style CNN.
//!
//! Paper shape criteria: rate input fails to reach the DNN's accuracy
//! within the horizon; real/phase inputs reach it; burst hidden coding
//! attains the highest accuracy for every input coding; phase hidden
//! coding generates the most spikes; phase-burst reaches DNN accuracy
//! with fewer steps than the horizon.

use bsnn_bench::{evaluate_lockstep, prepare_task, print_table, Profile};
use bsnn_core::coding::CodingScheme;
use bsnn_core::convert::{convert, ConversionConfig};
use bsnn_core::simulator::EvalConfig;
use bsnn_data::SyntheticTask;

fn main() {
    let profile = Profile::from_env();
    let mut setup = prepare_task(SyntheticTask::Cifar10, &profile);
    println!(
        "Table 1 reproduction — {} / VGG-small (profile: {}, DNN accuracy: {:.2}%)",
        setup.task.name(),
        profile.name,
        setup.dnn_accuracy * 100.0
    );
    println!(
        "horizon: {} steps, eval images: {}, vth=0.125, beta=2, k=8\n",
        profile.steps, profile.eval_images
    );

    let norm = setup.norm_batch(64);
    let target = setup.dnn_accuracy - 0.005; // "reaches DNN accuracy"
    let mut rows = Vec::new();
    for scheme in CodingScheme::all() {
        let cfg = ConversionConfig::new(scheme).with_vth(0.125);
        let snn = convert(&mut setup.dnn, &norm, &cfg).expect("conversion");
        let eval_cfg = EvalConfig::new(scheme, profile.steps)
            .with_checkpoint_every((profile.steps / 16).max(1))
            .with_max_images(profile.eval_images);
        let eval = evaluate_lockstep(&snn, &setup.test, &eval_cfg);
        let (latency, spikes_at) = match eval.latency_to(target) {
            Some((t, s)) => (format!("{t}"), s),
            None => (format!(">{}", profile.steps), eval.final_mean_spikes()),
        };
        rows.push(vec![
            scheme.input.to_string(),
            scheme.hidden.to_string(),
            format!("{:.2}", eval.final_accuracy() * 100.0),
            latency,
            format!("{:.0}", spikes_at),
            format!("{:.0}", eval.final_mean_spikes()),
        ]);
    }
    print_table(
        &["Input", "Hidden", "Acc(%)", "Latency", "Spk@lat", "Spk@end"],
        &rows,
    );
    println!("\n(Spk = mean spikes per image; Latency = first checkpoint reaching DNN-0.5%)");
}
