#![warn(missing_docs)]
//! # bsnn-core
//!
//! The core contribution of *"Fast and Efficient Information Transmission
//! with Burst Spikes in Deep Spiking Neural Networks"* (Park et al., DAC
//! 2019), implemented as a clock-driven spiking-neural-network simulator:
//!
//! * **Integrate-and-fire neurons with reset-by-subtraction** and weighted
//!   post-synaptic potentials (paper Eqs. 4–5): every spike carries a
//!   *magnitude* equal to the emitting neuron's threshold at fire time, so
//!   the effective synaptic weight is `w·V_th(t)` exactly as in Eq. 5.
//! * **Threshold policies** implementing the three hidden-layer codings:
//!   fixed threshold (rate coding), the phase oscillation of Eq. 6–7
//!   (`Π(t)=2^-(1+t mod k)`, Kim et al. 2018), and the paper's **burst
//!   function** of Eqs. 8–9 (`g(t)=β·g(t−1)` after a spike, else `1`).
//! * **Input encoders** for real, rate, and phase input coding.
//! * **Hybrid coding schemes** combining any input coding with any hidden
//!   coding (`phase-burst` is the paper's best configuration).
//! * **DNN→SNN conversion** with data-based weight normalization (max or
//!   outlier-robust percentile, Rueckauer et al.) consuming trained
//!   [`bsnn_dnn::Sequential`] models.
//! * A **simulator** producing accuracy-versus-time-step curves, latency
//!   to target accuracy, spike counts, and optionally full per-neuron
//!   spike trains for the analysis crate.
//!
//! ## On the burst constant β
//!
//! The paper defines `g(t) = β·g(t−1)` if the neuron spiked at `t−1`,
//! else `g(t) = 1` (Eq. 8), and `V_th(t) = g(t)·v_th` (Eq. 9). We use
//! **β > 1 (default 2.0)**: successive spikes in a burst then carry
//! geometrically growing payloads (`v_th, β·v_th, β²·v_th, …`), which is
//! what Fig. 1-B3 depicts (PSP growing during a burst, i.e. dynamic
//! synaptic potentiation), realizes the paper's claim that burst coding
//! can "dynamically determine the capacity of the transmission in an
//! unbounded range", and reproduces Fig. 2 (smaller `v_th` → more and
//! longer bursts, because the same activation needs more threshold units).
//! Setting β = 1 makes burst coding degenerate exactly into rate coding —
//! used as an ablation in the bench crate.
//!
//! ## Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use bsnn_core::{
//!     convert::{convert, ConversionConfig},
//!     coding::{CodingScheme, HiddenCoding, InputCoding},
//!     simulator::{evaluate_dataset, EvalConfig},
//! };
//! use bsnn_data::SynthSpec;
//! use bsnn_dnn::models;
//!
//! let (train, test) = SynthSpec::digits().with_counts(8, 2).generate();
//! let mut dnn = models::vgg_tiny(1, 12, 12, 10, 0)?;
//! let (norm_batch, _) = train.batch(&[0, 1, 2, 3]);
//! let scheme = CodingScheme::new(InputCoding::Phase, HiddenCoding::Burst);
//! let cfg = ConversionConfig::new(scheme).with_vth(0.125);
//! let mut snn = convert(&mut dnn, &norm_batch, &cfg)?;
//! let eval = evaluate_dataset(&mut snn, &test, &EvalConfig::new(scheme, 32))?;
//! assert!(eval.final_accuracy() >= 0.0);
//! # Ok(())
//! # }
//! ```

pub mod autotune;
pub mod batch;
pub mod coding;
pub mod convert;
pub mod encoder;
pub mod error;
pub mod layer;
pub mod network;
pub mod recorder;
pub mod simulator;
pub mod snapshot;
pub mod synapse;

pub use batch::{
    BatchedNetwork, BatchedStepwiseInference, KernelKind, ProfileSink, ProfileSnapshot,
    StageProfileSnapshot,
};
pub use coding::{CodingScheme, HiddenCoding, InputCoding};
pub use convert::{convert, ConversionConfig, Normalization};
pub use encoder::InputEncoder;
pub use error::SnnError;
pub use layer::{ResetMode, SpikingLayer, ThresholdPolicy};
pub use network::SpikingNetwork;
pub use recorder::{NeuronId, RecordLevel, SpikeRecord, SpikeTrainRec};
pub use simulator::{
    evaluate_dataset, evaluate_dataset_batched, infer_image, EvalConfig, EvalResult, ImageResult,
    StepwiseInference,
};
pub use snapshot::{load_network, save_network, save_network_to_path, SnapshotError};
