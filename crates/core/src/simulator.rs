//! Clock-driven inference: per-image runs, dataset evaluation with
//! accuracy-versus-time-step checkpoints, and latency-to-target queries.
//!
//! Dataset evaluation composes two orthogonal speedups: **threads**
//! (shard the dataset, one network clone per worker) and **lockstep
//! batch** (step several images through one network simultaneously via
//! [`BatchedStepwiseInference`], SIMD over the contiguous lane axis).
//! [`evaluate_dataset_batched`] exposes both knobs; every path produces
//! results bit-identical to the scalar reference.
//!
//! The scalar reference is [`StepwiseInference`] over
//! [`SpikingNetwork::step`]: a cache-free transcription of the paper's
//! dynamics that recomputes every stage every step. [`infer_image`] and
//! [`evaluate_dataset`] run it image by image. It is what the lockstep
//! engine is checked against, and the only engine that records spike
//! trains ([`RecordLevel::Trains`]); use [`evaluate_dataset_batched`] for
//! speed.

use crate::batch::{BatchedNetwork, BatchedStepwiseInference, DispatchPolicy};
use crate::coding::{CodingScheme, InputCoding};
use crate::encoder::InputEncoder;
use crate::network::SpikingNetwork;
use crate::recorder::{RecordLevel, SpikeRecord, SpikeTrainRec};
use crate::SnnError;
use bsnn_data::ImageDataset;

/// Parameters of a simulation run.
#[derive(Debug, Clone)]
pub struct EvalConfig {
    /// The hybrid coding scheme (input coding drives the encoder; the
    /// hidden coding must match what the network was converted with —
    /// it is carried here for reporting).
    pub scheme: CodingScheme,
    /// Simulation horizon in time steps.
    pub steps: usize,
    /// Time steps (1-based) at which predictions and cumulative spike
    /// counts are sampled. Must be increasing; the last entry should be
    /// `steps`.
    pub checkpoints: Vec<usize>,
    /// Phase period `k` for phase input coding.
    pub phase_period: u32,
    /// Recording detail.
    pub record: RecordLevel,
    /// Evaluate at most this many images of the dataset.
    pub max_images: Option<usize>,
}

impl EvalConfig {
    /// A config sampling only at the final step.
    pub fn new(scheme: CodingScheme, steps: usize) -> Self {
        EvalConfig {
            scheme,
            steps,
            checkpoints: vec![steps],
            phase_period: 8,
            record: RecordLevel::Counts,
            max_images: None,
        }
    }

    /// Samples every `every` steps (and at the final step).
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        let every = every.max(1);
        let mut cps: Vec<usize> = (every..=self.steps).step_by(every).collect();
        if cps.last() != Some(&self.steps) {
            cps.push(self.steps);
        }
        self.checkpoints = cps;
        self
    }

    /// Caps the number of evaluated images.
    pub fn with_max_images(mut self, n: usize) -> Self {
        self.max_images = Some(n);
        self
    }

    /// Sets the recording level.
    pub fn with_record(mut self, record: RecordLevel) -> Self {
        self.record = record;
        self
    }

    /// Sets the input phase period.
    pub fn with_phase_period(mut self, k: u32) -> Self {
        self.phase_period = k;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), SnnError> {
        if self.steps == 0 {
            return Err(SnnError::InvalidConfig("steps must be nonzero".into()));
        }
        if self.checkpoints.is_empty() {
            return Err(SnnError::InvalidConfig("no checkpoints".into()));
        }
        if self.checkpoints.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SnnError::InvalidConfig(
                "checkpoints must be strictly increasing".into(),
            ));
        }
        if *self.checkpoints.last().expect("nonempty") > self.steps {
            return Err(SnnError::InvalidConfig(
                "checkpoint beyond simulation horizon".into(),
            ));
        }
        Ok(())
    }
}

/// Result of presenting one image.
#[derive(Debug, Clone)]
pub struct ImageResult {
    /// The sampled time steps (copied from the config).
    pub checkpoints: Vec<usize>,
    /// Predicted class at each checkpoint.
    pub predictions: Vec<usize>,
    /// Cumulative spike count (all layers) at each checkpoint.
    pub cum_spikes: Vec<u64>,
    /// Full spike record of the run.
    pub record: SpikeRecord,
}

/// Incremental single-image inference: the inner loop of [`infer_image`]
/// exposed one time step at a time.
///
/// Constructing a `StepwiseInference` resets the network and prepares the
/// input encoder; each [`advance`](StepwiseInference::advance) call then
/// presents one time step. Between steps the caller can inspect the
/// running prediction, the output confidence margin, and the cumulative
/// spike count — the hooks an *anytime* consumer (e.g. the `burst-serve`
/// runtime) needs to stop a run as soon as its answer is good enough,
/// which is exactly the latency/accuracy trade-off the paper's
/// accuracy-versus-time-step curves quantify.
///
/// Driving `advance` until it returns `Ok(false)` reproduces
/// [`infer_image`] step for step; `infer_image` itself is implemented on
/// top of this type.
///
/// ```no_run
/// # use bsnn_core::coding::CodingScheme;
/// # use bsnn_core::simulator::{EvalConfig, StepwiseInference};
/// # fn demo(net: &mut bsnn_core::SpikingNetwork, image: &[f32]) -> Result<(), bsnn_core::SnnError> {
/// let cfg = EvalConfig::new(CodingScheme::recommended(), 256);
/// let mut run = StepwiseInference::new(net, image, &cfg)?;
/// while run.advance()? {
///     if run.confidence_margin() > 4.0 {
///         break; // anytime early exit
///     }
/// }
/// let answer = run.prediction();
/// # let _ = answer;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StepwiseInference<'net> {
    net: &'net mut SpikingNetwork,
    encoder: InputEncoder,
    record: SpikeRecord,
    buf: Vec<f32>,
    steps: usize,
    t: u64,
    record_input_trains: bool,
    input_is_spiking: bool,
}

impl<'net> StepwiseInference<'net> {
    /// Starts an incremental run: validates `cfg`, resets the network's
    /// dynamic state in place, and builds the per-image input encoder.
    ///
    /// # Errors
    ///
    /// Returns configuration and size-mismatch errors.
    pub fn new(
        net: &'net mut SpikingNetwork,
        image: &[f32],
        cfg: &EvalConfig,
    ) -> Result<Self, SnnError> {
        cfg.validate()?;
        if image.len() != net.input_len() {
            return Err(SnnError::InputSizeMismatch {
                expected: net.input_len(),
                actual: image.len(),
            });
        }
        net.reset_state();
        let encoder = InputEncoder::new(cfg.scheme.input, image, cfg.phase_period)?;
        let record = SpikeRecord::new(&net.spiking_layer_sizes(), cfg.record);
        let record_input_trains = matches!(cfg.record, RecordLevel::Trains { .. })
            && cfg.scheme.input != InputCoding::Real;
        let input_is_spiking = cfg.scheme.input != InputCoding::Real;
        let buf = vec![0.0f32; net.input_len()];
        Ok(StepwiseInference {
            net,
            encoder,
            record,
            buf,
            steps: cfg.steps,
            t: 0,
            record_input_trains,
            input_is_spiking,
        })
    }

    /// Presents one time step. Returns `Ok(false)` once the configured
    /// horizon has been reached (the network state is left as of the last
    /// executed step).
    ///
    /// # Errors
    ///
    /// Propagates simulation errors.
    pub fn advance(&mut self) -> Result<bool, SnnError> {
        if self.t as usize >= self.steps {
            return Ok(false);
        }
        let t = self.t;
        let n_in = self.encoder.step(t, &mut self.buf);
        if self.record_input_trains {
            self.record.observe_layer(0, t, &self.buf);
        } else if self.input_is_spiking {
            self.record.add_count(0, n_in as u64);
        }
        self.net.step(&self.buf, t, &mut self.record)?;
        self.record.end_step();
        self.t += 1;
        Ok(true)
    }

    /// Number of time steps executed so far.
    pub fn steps_taken(&self) -> usize {
        self.t as usize
    }

    /// The configured simulation horizon.
    pub fn horizon(&self) -> usize {
        self.steps
    }

    /// Whether the horizon has been reached.
    pub fn is_done(&self) -> bool {
        self.t as usize >= self.steps
    }

    /// The running argmax prediction over the output potentials.
    pub fn prediction(&self) -> usize {
        self.net.prediction()
    }

    /// The output accumulator's membrane potentials (class scores).
    pub fn output_potentials(&self) -> &[f32] {
        self.net.output_potentials()
    }

    /// Cumulative spikes across all layers so far.
    pub fn total_spikes(&self) -> u64 {
        self.record.total_spikes()
    }

    /// Raw confidence margin: the gap between the top and runner-up
    /// output potentials. Grows roughly linearly with elapsed steps on a
    /// confidently classified input, so anytime consumers typically
    /// normalize it by [`steps_taken`](Self::steps_taken). Returns
    /// `f32::INFINITY` for single-class networks.
    pub fn confidence_margin(&self) -> f32 {
        crate::network::top2_margin(self.net.output_potentials().iter().copied())
    }

    /// Read-only view of the spike record accumulated so far.
    pub fn record(&self) -> &SpikeRecord {
        &self.record
    }

    /// Finishes the run, returning the accumulated spike record.
    pub fn into_record(self) -> SpikeRecord {
        self.record
    }
}

/// Presents a single image to the network for `cfg.steps` steps.
///
/// The network is reset first; afterwards its output potentials reflect
/// the full run. Implemented on [`StepwiseInference`]; the results are
/// step-for-step identical to driving that API manually.
///
/// # Errors
///
/// Returns configuration and size-mismatch errors.
pub fn infer_image(
    net: &mut SpikingNetwork,
    image: &[f32],
    cfg: &EvalConfig,
) -> Result<ImageResult, SnnError> {
    let mut run = StepwiseInference::new(net, image, cfg)?;
    let mut predictions = Vec::with_capacity(cfg.checkpoints.len());
    let mut cum_spikes = Vec::with_capacity(cfg.checkpoints.len());
    let mut next_cp = 0usize;
    while run.advance()? {
        if next_cp < cfg.checkpoints.len() && run.steps_taken() == cfg.checkpoints[next_cp] {
            predictions.push(run.prediction());
            cum_spikes.push(run.total_spikes());
            next_cp += 1;
        }
    }
    Ok(ImageResult {
        checkpoints: cfg.checkpoints.clone(),
        predictions,
        cum_spikes,
        record: run.into_record(),
    })
}

/// Aggregate result of evaluating a dataset.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// The coding scheme evaluated (for reporting).
    pub scheme: CodingScheme,
    /// Sampled time steps.
    pub checkpoints: Vec<usize>,
    /// Classification accuracy at each checkpoint.
    pub accuracy_at: Vec<f64>,
    /// Mean cumulative spikes per image at each checkpoint.
    pub mean_spikes_at: Vec<f64>,
    /// Number of images evaluated.
    pub num_images: usize,
    /// Total neurons in the network (input + hidden + output).
    pub num_neurons: usize,
    /// Total spikes per layer, summed over all images, full horizon.
    pub layer_counts: Vec<u64>,
}

impl EvalResult {
    /// Accuracy at the final checkpoint.
    pub fn final_accuracy(&self) -> f64 {
        *self.accuracy_at.last().unwrap_or(&0.0)
    }

    /// Mean spikes per image at the final checkpoint.
    pub fn final_mean_spikes(&self) -> f64 {
        *self.mean_spikes_at.last().unwrap_or(&0.0)
    }

    /// The first checkpoint whose accuracy reaches `target`, with the
    /// mean spikes per image accumulated by then. `None` if never
    /// reached.
    pub fn latency_to(&self, target: f64) -> Option<(usize, f64)> {
        self.accuracy_at
            .iter()
            .position(|&a| a >= target)
            .map(|i| (self.checkpoints[i], self.mean_spikes_at[i]))
    }

    /// Spiking density at a checkpoint index: mean spikes per image per
    /// neuron per time step (the paper's Table 2 metric).
    pub fn spiking_density_at(&self, checkpoint_index: usize) -> f64 {
        let t = self.checkpoints[checkpoint_index] as f64;
        self.mean_spikes_at[checkpoint_index] / (self.num_neurons as f64 * t)
    }

    /// Spiking density at the final checkpoint.
    pub fn final_spiking_density(&self) -> f64 {
        self.spiking_density_at(self.checkpoints.len() - 1)
    }
}

/// Number of images a dataset evaluation covers, after validating `cfg`.
fn image_count(dataset: &ImageDataset, cfg: &EvalConfig) -> Result<usize, SnnError> {
    cfg.validate()?;
    let n_images = cfg
        .max_images
        .map_or(dataset.len(), |m| m.min(dataset.len()));
    if n_images == 0 {
        return Err(SnnError::InvalidConfig("no images to evaluate".into()));
    }
    Ok(n_images)
}

/// Per-image outcomes summed over a range of images: correct
/// predictions and cumulative spikes at each checkpoint, and per-layer
/// spike counts over the full horizon.
struct Tally {
    correct: Vec<usize>,
    spikes: Vec<u64>,
    layer_counts: Vec<u64>,
}

impl Tally {
    fn new(net: &SpikingNetwork, cfg: &EvalConfig) -> Self {
        Tally {
            correct: vec![0; cfg.checkpoints.len()],
            spikes: vec![0; cfg.checkpoints.len()],
            layer_counts: vec![0; net.spiking_layer_sizes().len()],
        }
    }

    fn merge(&mut self, other: &Tally) {
        for (a, b) in self.correct.iter_mut().zip(&other.correct) {
            *a += b;
        }
        for (a, b) in self.spikes.iter_mut().zip(&other.spikes) {
            *a += b;
        }
        for (a, b) in self.layer_counts.iter_mut().zip(&other.layer_counts) {
            *a += b;
        }
    }

    fn into_result(self, net: &SpikingNetwork, cfg: &EvalConfig, n_images: usize) -> EvalResult {
        let mean = |x: f64| x / n_images as f64;
        EvalResult {
            scheme: cfg.scheme,
            checkpoints: cfg.checkpoints.clone(),
            accuracy_at: self.correct.iter().map(|&c| mean(c as f64)).collect(),
            mean_spikes_at: self.spikes.iter().map(|&s| mean(s as f64)).collect(),
            num_images: n_images,
            num_neurons: net.num_neurons(),
            layer_counts: self.layer_counts,
        }
    }
}

/// Runs images `lo..hi` one at a time through the scalar reference
/// ([`infer_image`]) and tallies them.
fn scalar_range(
    net: &mut SpikingNetwork,
    dataset: &ImageDataset,
    cfg: &EvalConfig,
    lo: usize,
    hi: usize,
) -> Result<Tally, SnnError> {
    let mut tally = Tally::new(net, cfg);
    for i in lo..hi {
        let result = infer_image(net, dataset.image(i), cfg)?;
        let label = dataset.label(i);
        for (c, &p) in result.predictions.iter().enumerate() {
            if p == label {
                tally.correct[c] += 1;
            }
        }
        for (s, &cs) in result.cum_spikes.iter().enumerate() {
            tally.spikes[s] += cs;
        }
        for (lc, &c) in tally
            .layer_counts
            .iter_mut()
            .zip(result.record.layer_counts())
        {
            *lc += c;
        }
    }
    Ok(tally)
}

/// Evaluates the network over (a prefix of) a dataset, one image at a
/// time, with the scalar reference engine. This is the reference the
/// lockstep paths are checked against, not a fast path: it recomputes
/// every stage every step. [`evaluate_dataset_batched`] gives
/// bit-identical results faster.
///
/// # Errors
///
/// Propagates per-image simulation errors.
pub fn evaluate_dataset(
    net: &mut SpikingNetwork,
    dataset: &ImageDataset,
    cfg: &EvalConfig,
) -> Result<EvalResult, SnnError> {
    let n_images = image_count(dataset, cfg)?;
    let tally = scalar_range(net, dataset, cfg, 0, n_images)?;
    Ok(tally.into_result(net, cfg, n_images))
}

/// Evaluates images `lo..hi` against `net`, accumulating checkpointed
/// partial sums — the shared body of every dataset-evaluation path.
///
/// Every width (including 1) drives a [`BatchedStepwiseInference`] in
/// lockstep chunks of up to `batch` lanes. Spike-train recording is only supported by the scalar engine, so
/// [`RecordLevel::Trains`] configs run the scalar reference instead
/// (`EvalResult` carries counts either way, and per-lane lockstep
/// results are bit-identical to scalar runs, so the choice never
/// changes the outcome — only the wall-clock).
fn eval_range(
    net: &SpikingNetwork,
    dataset: &ImageDataset,
    cfg: &EvalConfig,
    lo: usize,
    hi: usize,
    batch: usize,
) -> Result<Tally, SnnError> {
    if matches!(cfg.record, RecordLevel::Trains { .. }) {
        return scalar_range(&mut net.clone(), dataset, cfg, lo, hi);
    }
    let mut tally = Tally::new(net, cfg);
    let batch = batch.max(1);
    // The engine is sized for the *padded* width so ragged tail chunks
    // (and ragged user-chosen widths) can run the fixed-width kernels
    // with dead lanes instead of the slower dynamic dense path.
    let mut engine =
        BatchedNetwork::new(net.clone(), crate::batch::padded_width(batch.min(hi - lo)))?;
    let mut start = lo;
    while start < hi {
        let width = batch.min(hi - start);
        let images: Vec<&[f32]> = (start..start + width).map(|i| dataset.image(i)).collect();
        let mut run = BatchedStepwiseInference::new_padded(&mut engine, &images, cfg)?;
        // No lane retires, so every lane hits each checkpoint together.
        let mut next_cp = 0usize;
        while run.advance()? {
            if next_cp < cfg.checkpoints.len()
                && run.steps_taken_global() == cfg.checkpoints[next_cp]
            {
                for lane in 0..width {
                    if run.prediction(lane) == dataset.label(start + lane) {
                        tally.correct[next_cp] += 1;
                    }
                    tally.spikes[next_cp] += run.total_spikes(lane);
                }
                next_cp += 1;
            }
        }
        for lane in 0..width {
            for (lc, c) in tally.layer_counts.iter_mut().zip(run.layer_counts(lane)) {
                *lc += c;
            }
        }
        start += width;
    }
    Ok(tally)
}

/// Evaluates the network over (a prefix of) a dataset with `threads`
/// workers, each stepping lockstep batches of up to `batch` images
/// through its own [`BatchedNetwork`] — the `threads × batch`
/// composition of the two dataset-evaluation speedups. Results are
/// **bit-identical** to the scalar reference [`evaluate_dataset`]
/// (per-image lockstep simulation is bit-exact versus the reference,
/// and images are independent).
///
/// `threads <= 1` evaluates on the calling thread; `batch <= 1` runs
/// the lockstep engine at width 1.
/// Ragged widths — a non-{1, 2, 4, 8, 16} `batch`, or the tail chunk of
/// a shard — are padded to the next fixed lane width with dead lanes
/// ([`BatchedStepwiseInference::new_padded`]), which beats the dynamic
/// dense path those widths would otherwise take; results are unchanged.
/// On a 2-vCPU x86-64 host, widths 8 and 16 ran level with each other
/// on both the MLP 144-32-10 and `vgg_tiny`, and width 1 was the
/// slowest (0.34–0.65× width 8 in 9 of 10 timed rounds).
///
/// # Errors
///
/// Propagates configuration and simulation errors from any worker.
pub fn evaluate_dataset_batched(
    net: &SpikingNetwork,
    dataset: &ImageDataset,
    cfg: &EvalConfig,
    threads: usize,
    batch: usize,
) -> Result<EvalResult, SnnError> {
    let n_images = image_count(dataset, cfg)?;
    let threads = threads.clamp(1, n_images);
    let results: Vec<Result<Tally, SnnError>> = if threads == 1 {
        vec![eval_range(net, dataset, cfg, 0, n_images, batch)]
    } else {
        let chunk = n_images.div_ceil(threads);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for w in 0..threads {
                let lo = w * chunk;
                let hi = ((w + 1) * chunk).min(n_images);
                if lo >= hi {
                    break;
                }
                handles.push(scope.spawn(move || eval_range(net, dataset, cfg, lo, hi, batch)));
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        })
    };

    let mut total = Tally::new(net, cfg);
    for r in results {
        total.merge(&r?);
    }
    Ok(total.into_result(net, cfg, n_images))
}

/// Inert: [`evaluate_dataset_batched`], ignoring `dispatch` (the engine
/// has one kernel). Kept so existing callers such as the `perfbench`
/// harness still build.
///
/// # Errors
///
/// As [`evaluate_dataset_batched`].
pub fn evaluate_dataset_batched_with_dispatch(
    net: &SpikingNetwork,
    dataset: &ImageDataset,
    cfg: &EvalConfig,
    threads: usize,
    batch: usize,
    _dispatch: &DispatchPolicy,
) -> Result<EvalResult, SnnError> {
    evaluate_dataset_batched(net, dataset, cfg, threads, batch)
}

/// Runs one image with full spike-train recording — the data source for
/// ISI histograms (Fig. 1-C) and the firing rate/regularity analysis
/// (Fig. 5). Samples `fraction` of the neurons in every layer, as in the
/// paper's Section 5 protocol (they sample 10%).
///
/// # Errors
///
/// Propagates simulation errors.
pub fn record_spike_trains(
    net: &mut SpikingNetwork,
    image: &[f32],
    scheme: CodingScheme,
    steps: usize,
    fraction: f64,
    seed: u64,
) -> Result<Vec<SpikeTrainRec>, SnnError> {
    let cfg = EvalConfig::new(scheme, steps).with_record(RecordLevel::Trains { fraction, seed });
    let result = infer_image(net, image, &cfg)?;
    Ok(result.record.into_trains())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::HiddenCoding;
    use crate::convert::{convert, ConversionConfig};
    use bsnn_data::SynthSpec;
    use bsnn_dnn::models;
    use bsnn_dnn::train::{TrainConfig, Trainer};

    fn trained_setup() -> (
        bsnn_dnn::Sequential,
        bsnn_data::ImageDataset,
        bsnn_data::ImageDataset,
    ) {
        let (train, test) = SynthSpec::digits().with_counts(30, 6).generate();
        let mut dnn = models::mlp(144, &[32], 10, 5).unwrap();
        let cfg = TrainConfig {
            epochs: 8,
            batch_size: 30,
            lr: 2e-3,
            ..TrainConfig::default()
        };
        Trainer::new(cfg).fit(&mut dnn, &train, &test).unwrap();
        (dnn, train, test)
    }

    fn snn_for(
        dnn: &mut bsnn_dnn::Sequential,
        train: &bsnn_data::ImageDataset,
        scheme: CodingScheme,
    ) -> crate::SpikingNetwork {
        let idx: Vec<usize> = (0..20.min(train.len())).collect();
        let (batch, _) = train.batch(&idx);
        convert(dnn, &batch, &ConversionConfig::new(scheme)).unwrap()
    }

    #[test]
    fn rate_snn_approaches_dnn_accuracy() {
        let (mut dnn, train, test) = trained_setup();
        let dnn_acc = bsnn_dnn::train::evaluate(&mut dnn, &test, 32).unwrap();
        let mut snn = snn_for(
            &mut dnn,
            &train,
            CodingScheme::new(InputCoding::Real, HiddenCoding::Rate),
        );
        let cfg = EvalConfig::new(
            CodingScheme::new(InputCoding::Real, HiddenCoding::Rate),
            300,
        )
        .with_max_images(40);
        let eval = evaluate_dataset(&mut snn, &test, &cfg).unwrap();
        assert!(
            eval.final_accuracy() >= dnn_acc - 0.15,
            "snn {:.3} vs dnn {:.3}",
            eval.final_accuracy(),
            dnn_acc
        );
    }

    #[test]
    fn burst_snn_matches_dnn_quickly() {
        let (mut dnn, train, test) = trained_setup();
        let dnn_acc = bsnn_dnn::train::evaluate(&mut dnn, &test, 32).unwrap();
        let mut snn = snn_for(&mut dnn, &train, CodingScheme::recommended());
        let cfg = EvalConfig::new(CodingScheme::recommended(), 64).with_max_images(40);
        let eval = evaluate_dataset(&mut snn, &test, &cfg).unwrap();
        assert!(
            eval.final_accuracy() >= dnn_acc - 0.15,
            "snn {:.3} vs dnn {:.3}",
            eval.final_accuracy(),
            dnn_acc
        );
    }

    #[test]
    fn checkpoints_accumulate_monotonically() {
        let (mut dnn, train, test) = trained_setup();
        let mut snn = snn_for(&mut dnn, &train, CodingScheme::recommended());
        let cfg = EvalConfig::new(CodingScheme::recommended(), 60)
            .with_checkpoint_every(15)
            .with_max_images(5);
        let eval = evaluate_dataset(&mut snn, &test, &cfg).unwrap();
        assert_eq!(eval.checkpoints, vec![15, 30, 45, 60]);
        for w in eval.mean_spikes_at.windows(2) {
            assert!(w[0] <= w[1], "spike counts must be cumulative");
        }
    }

    #[test]
    fn latency_to_returns_first_checkpoint() {
        let r = EvalResult {
            scheme: CodingScheme::recommended(),
            checkpoints: vec![10, 20, 30],
            accuracy_at: vec![0.2, 0.8, 0.9],
            mean_spikes_at: vec![5.0, 9.0, 12.0],
            num_images: 1,
            num_neurons: 100,
            layer_counts: vec![],
        };
        assert_eq!(r.latency_to(0.75), Some((20, 9.0)));
        assert_eq!(r.latency_to(0.95), None);
        assert!((r.final_spiking_density() - 12.0 / 3000.0).abs() < 1e-12);
    }

    #[test]
    fn stepwise_exposes_anytime_signals() {
        let (mut dnn, train, test) = trained_setup();
        let scheme = CodingScheme::recommended();
        let mut snn = snn_for(&mut dnn, &train, scheme);
        let cfg = EvalConfig::new(scheme, 32);
        let mut run = StepwiseInference::new(&mut snn, test.image(0), &cfg).unwrap();
        assert_eq!(run.steps_taken(), 0);
        assert_eq!(run.horizon(), 32);
        assert!(!run.is_done());
        let mut spikes_last = 0u64;
        while run.advance().unwrap() {
            assert!(run.total_spikes() >= spikes_last, "spikes are cumulative");
            spikes_last = run.total_spikes();
            let m = run.confidence_margin();
            assert!(m >= 0.0, "margin is a nonnegative gap, got {m}");
        }
        assert!(run.is_done());
        assert_eq!(run.steps_taken(), 32);
        assert!(!run.advance().unwrap(), "advance past horizon is a no-op");
        assert_eq!(run.record().steps(), 32);
        let pred = run.prediction();
        assert!(pred < 10);
    }

    #[test]
    fn latency_to_edge_cases() {
        let base = EvalResult {
            scheme: CodingScheme::recommended(),
            checkpoints: vec![10, 20, 30],
            accuracy_at: vec![0.2, 0.5, 0.9],
            mean_spikes_at: vec![5.0, 9.0, 12.0],
            num_images: 1,
            num_neurons: 100,
            layer_counts: vec![],
        };
        // Target above the final accuracy: never reached.
        assert_eq!(base.latency_to(0.91), None);
        // Target hit exactly at the last checkpoint (>= comparison).
        assert_eq!(base.latency_to(0.9), Some((30, 12.0)));
        // Empty checkpoint list: no checkpoint can satisfy any target.
        let empty = EvalResult {
            checkpoints: vec![],
            accuracy_at: vec![],
            mean_spikes_at: vec![],
            ..base
        };
        assert_eq!(empty.latency_to(0.0), None);
        assert_eq!(empty.final_accuracy(), 0.0);
        assert_eq!(empty.final_mean_spikes(), 0.0);
    }

    #[test]
    fn record_spike_trains_samples_all_layers() {
        let (mut dnn, train, test) = trained_setup();
        let mut snn = snn_for(&mut dnn, &train, CodingScheme::recommended());
        let trains = record_spike_trains(
            &mut snn,
            test.image(0),
            CodingScheme::recommended(),
            50,
            1.0,
            0,
        )
        .unwrap();
        // input layer (144) + hidden (32) all sampled
        assert_eq!(trains.len(), 144 + 32);
        assert!(trains.iter().any(|t| !t.times.is_empty()));
    }

    #[test]
    fn ttfs_input_reaches_dnn_accuracy() {
        let (mut dnn, train, test) = trained_setup();
        let dnn_acc = bsnn_dnn::train::evaluate(&mut dnn, &test, 32).unwrap();
        let scheme = CodingScheme::new(InputCoding::Ttfs, crate::coding::HiddenCoding::Burst);
        let mut snn = snn_for(&mut dnn, &train, scheme);
        let cfg = EvalConfig::new(scheme, 256).with_max_images(40);
        let eval = evaluate_dataset(&mut snn, &test, &cfg).unwrap();
        assert!(
            eval.final_accuracy() >= dnn_acc - 0.15,
            "ttfs-burst {:.3} vs dnn {:.3}",
            eval.final_accuracy(),
            dnn_acc
        );
    }

    #[test]
    fn reset_to_zero_degrades_accuracy() {
        let (mut dnn, train, test) = trained_setup();
        let scheme = CodingScheme::recommended();
        let idx: Vec<usize> = (0..20).collect();
        let (batch, _) = train.batch(&idx);
        let mut sub = convert(&mut dnn, &batch, &ConversionConfig::new(scheme)).unwrap();
        let mut zero = convert(
            &mut dnn,
            &batch,
            &ConversionConfig::new(scheme).with_reset_mode(crate::ResetMode::Zero),
        )
        .unwrap();
        let cfg = EvalConfig::new(scheme, 192).with_max_images(40);
        let acc_sub = evaluate_dataset(&mut sub, &test, &cfg)
            .unwrap()
            .final_accuracy();
        let acc_zero = evaluate_dataset(&mut zero, &test, &cfg)
            .unwrap()
            .final_accuracy();
        assert!(
            acc_sub > acc_zero,
            "subtraction {acc_sub:.3} should beat reset-to-zero {acc_zero:.3}"
        );
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let (mut dnn, train, test) = trained_setup();
        let mut snn = snn_for(&mut dnn, &train, CodingScheme::recommended());
        let cfg = EvalConfig::new(CodingScheme::recommended(), 48)
            .with_checkpoint_every(16)
            .with_max_images(17); // odd count exercises uneven chunks
        let seq = evaluate_dataset(&mut snn, &test, &cfg).unwrap();
        let par = super::evaluate_dataset_batched(&snn, &test, &cfg, 4, 1).unwrap();
        assert_eq!(seq.accuracy_at, par.accuracy_at);
        assert_eq!(seq.mean_spikes_at, par.mean_spikes_at);
        assert_eq!(seq.layer_counts, par.layer_counts);
        // threads = 1 falls back to the sequential path
        let one = super::evaluate_dataset_batched(&snn, &test, &cfg, 1, 1).unwrap();
        assert_eq!(seq.accuracy_at, one.accuracy_at);
    }

    #[test]
    fn invalid_configs_rejected() {
        let (mut dnn, train, test) = trained_setup();
        let mut snn = snn_for(
            &mut dnn,
            &train,
            CodingScheme::new(InputCoding::Real, HiddenCoding::Rate),
        );
        let mut cfg = EvalConfig::new(CodingScheme::recommended(), 10);
        cfg.checkpoints = vec![5, 20];
        assert!(evaluate_dataset(&mut snn, &test, &cfg).is_err());
        let mut cfg = EvalConfig::new(CodingScheme::recommended(), 0);
        cfg.steps = 0;
        assert!(evaluate_dataset(&mut snn, &test, &cfg).is_err());
    }
}
