//! Fig. 4 — inference curves (accuracy vs time step) for all nine coding
//! schemes.
//!
//! Paper shape criteria: rate input converges slowest; burst hidden
//! coding converges fastest; rate-phase is the worst curve; phase-burst
//! and real-burst track the DNN ceiling earliest.

use bsnn_bench::{evaluate_lockstep, prepare_task, print_table, Profile};
use bsnn_core::coding::CodingScheme;
use bsnn_core::convert::{convert, ConversionConfig};
use bsnn_core::simulator::EvalConfig;
use bsnn_data::SyntheticTask;

fn main() {
    let profile = Profile::from_env();
    let mut setup = prepare_task(SyntheticTask::Cifar10, &profile);
    let norm = setup.norm_batch(64);
    println!(
        "Fig. 4 reproduction — accuracy vs time step ({}, DNN {:.2}%)\n",
        setup.task.name(),
        setup.dnn_accuracy * 100.0
    );

    let every = (profile.steps / 12).max(1);
    let mut headers: Vec<String> = vec!["Scheme".into()];
    let mut rows = Vec::new();
    for scheme in CodingScheme::all() {
        let cfg = ConversionConfig::new(scheme).with_vth(0.125);
        let snn = convert(&mut setup.dnn, &norm, &cfg).expect("conversion");
        let eval_cfg = EvalConfig::new(scheme, profile.steps)
            .with_checkpoint_every(every)
            .with_max_images(profile.eval_images);
        let eval = evaluate_lockstep(&snn, &setup.test, &eval_cfg);
        if headers.len() == 1 {
            headers.extend(eval.checkpoints.iter().map(|c| format!("t={c}")));
        }
        let mut row = vec![scheme.to_string()];
        row.extend(eval.accuracy_at.iter().map(|a| format!("{:.1}", a * 100.0)));
        rows.push(row);
    }
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(&headers_ref, &rows);
    println!("\n(accuracy % at each checkpoint — each row is one curve of Fig. 4)");
}
