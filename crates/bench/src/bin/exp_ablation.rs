//! Ablations called out in DESIGN.md §5:
//!
//! * burst constant β sweep (β = 1 degenerates into rate coding with a
//!   low threshold; larger β drains backlogs faster),
//! * max versus outlier-robust percentile weight normalization,
//! * phase period k sweep.

use bsnn_bench::{evaluate_lockstep, prepare_task, print_table, Profile};
use bsnn_core::coding::CodingScheme;
use bsnn_core::convert::{convert, ConversionConfig, Normalization};
use bsnn_core::simulator::EvalConfig;
use bsnn_core::ResetMode;
use bsnn_data::SyntheticTask;

fn main() {
    let profile = Profile::from_env();
    let mut setup = prepare_task(SyntheticTask::Cifar10, &profile);
    let norm = setup.norm_batch(64);
    let scheme = CodingScheme::recommended();
    let target = setup.dnn_accuracy - 0.005;
    println!(
        "Ablations — {} / {} (DNN {:.2}%, horizon {})",
        setup.task.name(),
        scheme,
        setup.dnn_accuracy * 100.0,
        profile.steps
    );

    let run = |setup: &mut bsnn_bench::TaskSetup, cfg: &ConversionConfig, scheme: CodingScheme| {
        let snn = convert(&mut setup.dnn, &norm, cfg).expect("conversion");
        let eval_cfg = EvalConfig::new(scheme, profile.steps)
            .with_checkpoint_every((profile.steps / 16).max(1))
            .with_max_images(profile.eval_images)
            .with_phase_period(cfg.phase_period);
        evaluate_lockstep(&snn, &setup.test, &eval_cfg)
    };
    let fmt_row = |label: String, eval: &bsnn_core::simulator::EvalResult| {
        let (latency, spikes) = match eval.latency_to(target) {
            Some((t, s)) => (format!("{t}"), s),
            None => (format!(">{}", profile.steps), eval.final_mean_spikes()),
        };
        vec![
            label,
            format!("{:.2}", eval.final_accuracy() * 100.0),
            latency,
            format!("{:.0}", spikes),
            format!("{:.4}", eval.final_spiking_density()),
        ]
    };
    let headers = ["Config", "Acc(%)", "Latency", "Spikes", "Density"];

    println!("\n[A] Burst constant β (phase-burst, v_th = 0.125):");
    let mut rows = Vec::new();
    for beta in [1.0f32, 1.5, 2.0, 4.0] {
        let cfg = ConversionConfig::new(scheme)
            .with_vth(0.125)
            .with_beta(beta);
        let eval = run(&mut setup, &cfg, scheme);
        rows.push(fmt_row(format!("beta={beta}"), &eval));
    }
    print_table(&headers, &rows);
    println!("(beta=1 reduces the burst function to a constant threshold — rate coding at v_th)");

    println!("\n[B] Weight normalization (phase-burst):");
    let mut rows = Vec::new();
    for (label, method) in [
        ("max (Diehl'15)", Normalization::Max),
        ("p99.9 (Rueckauer'16)", Normalization::Percentile(99.9)),
        ("p99", Normalization::Percentile(99.0)),
    ] {
        let cfg = ConversionConfig::new(scheme).with_normalization(method);
        let eval = run(&mut setup, &cfg, scheme);
        rows.push(fmt_row(label.to_string(), &eval));
    }
    print_table(&headers, &rows);

    println!("\n[C] Phase period k (phase-burst):");
    let mut rows = Vec::new();
    for k in [4u32, 8, 12] {
        let cfg = ConversionConfig::new(scheme).with_phase_period(k);
        let eval = run(&mut setup, &cfg, scheme);
        rows.push(fmt_row(format!("k={k}"), &eval));
    }
    print_table(&headers, &rows);
    println!("(small k = coarse input quantization; large k = slower drive rate)");

    println!("\n[D] Membrane reset rule (phase-burst):");
    let mut rows = Vec::new();
    for (label, reset) in [
        ("subtraction (Eq. 4)", ResetMode::Subtraction),
        ("to-zero (Eq. 3)", ResetMode::Zero),
    ] {
        let cfg = ConversionConfig::new(scheme).with_reset_mode(reset);
        let eval = run(&mut setup, &cfg, scheme);
        rows.push(fmt_row(label.to_string(), &eval));
    }
    print_table(&headers, &rows);
    println!(
        "(reset-to-zero discards supra-threshold residuals — the information loss Eq. 4 fixes)"
    );

    println!("\n[E] Extension input codings (burst hidden):");
    let mut rows = Vec::new();
    for input in ["real", "phase", "ttfs"] {
        let s: CodingScheme = format!("{input}-burst").parse().expect("valid scheme");
        let cfg = ConversionConfig::new(s).with_vth(0.125);
        let eval = run(&mut setup, &cfg, s);
        rows.push(fmt_row(s.to_string(), &eval));
    }
    print_table(&headers, &rows);
    println!(
        "(ttfs = time-to-first-spike input, one value-magnitude spike per window — Thorpe [22])"
    );
}
