//! Fig. 5 — firing rate ⟨log λ⟩ vs firing regularity ⟨κ⟩ for the nine
//! coding schemes (spike-pattern analysis of Section 5).
//!
//! Spike trains are measured from a random 10% sample of neurons in every
//! layer over a long horizon, as in the paper. Paper shape criteria:
//! phase hidden coding clusters at the highest firing rate regardless of
//! input coding (low flexibility); burst hidden coding shows the widest
//! spread across input codings (high flexibility / adaptability); rate
//! hidden coding sits at low firing rates.

use bsnn_analysis::population_firing;
use bsnn_bench::{prepare_task, print_table, Profile};
use bsnn_core::coding::{CodingScheme, HiddenCoding};
use bsnn_core::convert::{convert, ConversionConfig};
use bsnn_core::simulator::record_spike_trains;
use bsnn_data::SyntheticTask;

fn main() {
    let profile = Profile::from_env();
    let mut setup = prepare_task(SyntheticTask::Cifar10, &profile);
    let norm = setup.norm_batch(64);
    let steps = (profile.steps * 4).max(512); // long horizon, as in the paper
    println!(
        "Fig. 5 reproduction — firing rate vs regularity ({}, {} steps, 10% sample)\n",
        setup.task.name(),
        steps
    );

    let mut rows = Vec::new();
    let mut log_rates: Vec<(HiddenCoding, f64)> = Vec::new();
    for scheme in CodingScheme::all() {
        let cfg = ConversionConfig::new(scheme).with_vth(0.125);
        let mut snn = convert(&mut setup.dnn, &norm, &cfg).expect("conversion");
        let mut all_trains = Vec::new();
        for i in 0..2usize {
            let trains = record_spike_trains(
                &mut snn,
                setup.test.image(i),
                scheme,
                steps,
                0.10,
                99 + i as u64,
            )
            .expect("recording");
            all_trains.extend(trains.into_iter().filter(|t| t.neuron.layer > 0));
        }
        let pop = population_firing(&all_trains);
        log_rates.push((scheme.hidden, pop.mean_log_rate));
        rows.push(vec![
            scheme.to_string(),
            format!("{:.3}", pop.mean_log_rate),
            format!("{:.3}", pop.mean_regularity),
            format!("{}", pop.neurons),
        ]);
    }
    print_table(&["Scheme", "<log λ>", "<κ>", "neurons"], &rows);

    println!("\nPer-hidden-coding spread of <log λ> across input codings (flexibility):");
    for hidden in HiddenCoding::ALL {
        let rates = log_rates
            .iter()
            .filter(|(h, _)| *h == hidden)
            .map(|(_, r)| *r);
        let min = rates.clone().fold(f64::INFINITY, f64::min);
        let max = rates.fold(f64::NEG_INFINITY, f64::max);
        println!("  {:>6}: spread {:.3}", hidden.name(), max - min);
    }
}
