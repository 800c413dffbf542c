//! The converted spiking network: a chain of [`SpikingLayer`] stages plus
//! a non-spiking output accumulator.

use crate::layer::SpikingLayer;
use crate::recorder::SpikeRecord;
use crate::synapse::Synapse;
use crate::SnnError;

/// A feed-forward spiking network produced by [`crate::convert::convert`].
///
/// Layer 0 (the input layer) is virtual: its spikes come from an
/// [`crate::InputEncoder`] driven by the simulator. The hidden stages are
/// [`SpikingLayer`]s; the output stage integrates PSPs into membrane
/// potentials without ever firing (standard practice — class scores are
/// the accumulated potentials).
#[derive(Debug, Clone)]
pub struct SpikingNetwork {
    input_len: usize,
    layers: Vec<SpikingLayer>,
    output_synapse: Synapse,
    output_bias: Option<Vec<f32>>,
    output_vmem: Vec<f32>,
    /// Scratch buffer holding the current layer input.
    scratch: Vec<f32>,
    /// Scratch buffer for the output stage's per-step PSP (preallocated
    /// so stepping never allocates).
    output_psp: Vec<f32>,
}

impl SpikingNetwork {
    /// Assembles a network from converted stages.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] when consecutive stage sizes
    /// disagree, when a conv or pool output synapse's shapes disagree
    /// with its geometry, or when the output bias length is wrong.
    pub fn new(
        input_len: usize,
        layers: Vec<SpikingLayer>,
        output_synapse: Synapse,
        output_bias: Option<Vec<f32>>,
    ) -> Result<Self, SnnError> {
        output_synapse.validate()?;
        let mut prev = input_len;
        for (i, l) in layers.iter().enumerate() {
            if l.input_len() != prev {
                return Err(SnnError::InvalidConfig(format!(
                    "stage {i} expects {} inputs but receives {prev}",
                    l.input_len()
                )));
            }
            prev = l.len();
        }
        if output_synapse.input_len() != prev {
            return Err(SnnError::InvalidConfig(format!(
                "output stage expects {} inputs but receives {prev}",
                output_synapse.input_len()
            )));
        }
        let out_len = output_synapse.output_len();
        if let Some(b) = &output_bias {
            if b.len() != out_len {
                return Err(SnnError::InvalidConfig(format!(
                    "output bias length {} does not match {out_len} classes",
                    b.len()
                )));
            }
        }
        Ok(SpikingNetwork {
            input_len,
            layers,
            output_synapse,
            output_bias,
            output_vmem: vec![0.0; out_len],
            scratch: Vec::new(),
            output_psp: vec![0.0; out_len],
        })
    }

    /// Number of input neurons (pixels).
    pub fn input_len(&self) -> usize {
        self.input_len
    }

    /// Number of output classes.
    pub fn output_len(&self) -> usize {
        self.output_vmem.len()
    }

    /// The hidden spiking stages.
    pub fn layers(&self) -> &[SpikingLayer] {
        &self.layers
    }

    /// Mutable access to the hidden stages (e.g. to set reset modes).
    pub fn layers_mut(&mut self) -> &mut [SpikingLayer] {
        &mut self.layers
    }

    /// The output stage's synaptic weights.
    pub fn output_synapse(&self) -> &Synapse {
        &self.output_synapse
    }

    /// The output stage's bias currents, if any.
    pub fn output_bias(&self) -> Option<&[f32]> {
        self.output_bias.as_deref()
    }

    /// Total neuron count: input + hidden + output (the paper's
    /// "# of neurons" column counts all of them).
    pub fn num_neurons(&self) -> usize {
        self.input_len + self.layers.iter().map(|l| l.len()).sum::<usize>() + self.output_len()
    }

    /// Sizes of all spike-emitting layers: the input layer followed by
    /// every hidden stage (the output accumulator never spikes).
    pub fn spiking_layer_sizes(&self) -> Vec<usize> {
        let mut sizes = Vec::with_capacity(1 + self.layers.len());
        sizes.push(self.input_len);
        sizes.extend(self.layers.iter().map(|l| l.len()));
        sizes
    }

    /// Clears all dynamic state in place for a new image presentation:
    /// membrane potentials, burst functions `g`, and the output
    /// accumulator. No layer buffer is reallocated, so one network can
    /// present an unbounded stream of images without per-image
    /// allocation; [`crate::StepwiseInference`] calls this before every
    /// run. After `reset_state()` the network behaves exactly like a
    /// fresh clone of its pristine self.
    pub fn reset_state(&mut self) {
        for l in &mut self.layers {
            l.reset();
        }
        self.output_vmem.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Advances the whole network one time step.
    ///
    /// `input` is the input layer's spike-magnitude (or analog) buffer for
    /// this step. Hidden-layer spikes are observed into `record` at layer
    /// indices `1..` (index 0 is reserved for the input layer, which the
    /// simulator records from the encoder).
    ///
    /// # Errors
    ///
    /// Returns size-mismatch errors if `input` has the wrong length.
    pub fn step(
        &mut self,
        input: &[f32],
        t: u64,
        record: &mut SpikeRecord,
    ) -> Result<(), SnnError> {
        if input.len() != self.input_len {
            return Err(SnnError::InputSizeMismatch {
                expected: self.input_len,
                actual: input.len(),
            });
        }
        self.scratch.clear();
        self.scratch.extend_from_slice(input);
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let out = layer.step(&self.scratch, t)?;
            record.observe_layer(i + 1, t, out);
            self.scratch.clear();
            self.scratch.extend_from_slice(out);
        }
        // Output accumulator: integrate, never fire.
        self.output_psp.iter_mut().for_each(|p| *p = 0.0);
        self.output_synapse
            .accumulate(&self.scratch, &mut self.output_psp)?;
        for (v, p) in self.output_vmem.iter_mut().zip(&self.output_psp) {
            *v += p;
        }
        if let Some(b) = &self.output_bias {
            for (v, bb) in self.output_vmem.iter_mut().zip(b) {
                *v += bb;
            }
        }
        Ok(())
    }

    /// The output accumulator's membrane potentials (class scores).
    pub fn output_potentials(&self) -> &[f32] {
        &self.output_vmem
    }

    /// Argmax over the output potentials.
    pub fn prediction(&self) -> usize {
        argmax_last(self.output_vmem.iter().copied())
    }
}

/// Argmax with the exact tie-breaking of the scalar inference path
/// (`Iterator::max_by`: the *last* maximum wins; incomparable values
/// count as equal). Shared with the batched engine so per-lane
/// predictions are bit-for-bit identical.
pub(crate) fn argmax_last(values: impl Iterator<Item = f32>) -> usize {
    values
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Gap between the top and runner-up values (`f32::INFINITY` for fewer
/// than two values) — the raw confidence margin, shared between the
/// scalar and batched inference paths.
pub(crate) fn top2_margin(values: impl Iterator<Item = f32>) -> f32 {
    let mut top = f32::NEG_INFINITY;
    let mut second = f32::NEG_INFINITY;
    for v in values {
        if v > top {
            second = top;
            top = v;
        } else if v > second {
            second = v;
        }
    }
    if second == f32::NEG_INFINITY {
        f32::INFINITY
    } else {
        top - second
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::ThresholdPolicy;
    use crate::recorder::RecordLevel;
    use bsnn_tensor::Tensor;

    fn identity_synapse(n: usize) -> Synapse {
        let mut w = vec![0.0f32; n * n];
        for i in 0..n {
            w[i * n + i] = 1.0;
        }
        Synapse::Dense {
            weight: Tensor::from_vec(w, &[n, n]).unwrap(),
        }
    }

    fn tiny_network() -> SpikingNetwork {
        let hidden = SpikingLayer::new(
            identity_synapse(2),
            None,
            ThresholdPolicy::Fixed { vth: 0.5 },
        )
        .unwrap();
        SpikingNetwork::new(2, vec![hidden], identity_synapse(2), None).unwrap()
    }

    #[test]
    fn step_accumulates_output_potentials() {
        let mut net = tiny_network();
        let mut rec = SpikeRecord::new(&net.spiking_layer_sizes(), RecordLevel::Counts);
        for t in 0..10 {
            net.step(&[1.0, 0.0], t, &mut rec).unwrap();
            rec.end_step();
        }
        // neuron 0 fires 0.5-magnitude spikes every step (drive 1.0,
        // vth 0.5): hmm — drive 1.0, one spike of 0.5 per step, membrane
        // grows. Output accumulates those 0.5 spikes.
        assert!(net.output_potentials()[0] > 0.0);
        assert_eq!(net.output_potentials()[1], 0.0);
        assert_eq!(net.prediction(), 0);
        assert!(rec.layer_counts()[1] > 0);
    }

    #[test]
    fn reset_restores_initial_state() {
        let mut net = tiny_network();
        let mut rec = SpikeRecord::new(&net.spiking_layer_sizes(), RecordLevel::Counts);
        net.step(&[1.0, 1.0], 0, &mut rec).unwrap();
        net.reset_state();
        assert!(net.output_potentials().iter().all(|&v| v == 0.0));
        assert!(net.layers()[0].potentials().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn num_neurons_counts_all_layers() {
        let net = tiny_network();
        assert_eq!(net.num_neurons(), 2 + 2 + 2);
        assert_eq!(net.spiking_layer_sizes(), vec![2, 2]);
    }

    #[test]
    fn rejects_mismatched_stages() {
        let hidden = SpikingLayer::new(
            identity_synapse(2),
            None,
            ThresholdPolicy::Fixed { vth: 0.5 },
        )
        .unwrap();
        // input_len 3 but stage expects 2
        assert!(SpikingNetwork::new(3, vec![hidden], identity_synapse(2), None).is_err());
    }

    #[test]
    fn rejects_wrong_input_length_at_step() {
        let mut net = tiny_network();
        let mut rec = SpikeRecord::new(&net.spiking_layer_sizes(), RecordLevel::Counts);
        assert!(net.step(&[1.0], 0, &mut rec).is_err());
    }
}
