//! Snapshot-backed model registry with epoch-counted hot swap.
//!
//! Models are installed under a name, either from an in-memory
//! [`SpikingNetwork`] or straight from a `BSNN` snapshot stream
//! ([`bsnn_core::snapshot::load_network`]). Re-installing under an
//! existing name *hot-swaps* the model: the registry publishes a new
//! [`ModelEntry`] with a higher epoch behind an `Arc`, so workers that
//! already resolved the old entry finish their in-flight requests on the
//! network they started with, and pick up the new epoch on their next
//! request.

use crate::error::ServeError;
use bsnn_core::coding::CodingScheme;
use bsnn_core::snapshot;
use bsnn_core::{ProfileSink, SpikingNetwork};
use std::collections::HashMap;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// An immutable installed model: a pristine network template plus the
/// coding parameters requests against it must use.
#[derive(Debug)]
pub struct ModelEntry {
    name: String,
    epoch: u64,
    network: SpikingNetwork,
    scheme: CodingScheme,
    phase_period: u32,
    profile: Arc<ProfileSink>,
}

impl ModelEntry {
    /// Registry name of the model.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Monotonic install epoch (increases on every install/hot-swap
    /// across the whole registry).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The pristine network template. Workers clone it once per epoch
    /// and reset the clone's state between requests.
    pub fn network(&self) -> &SpikingNetwork {
        &self.network
    }

    /// The coding scheme the network was converted with.
    pub fn scheme(&self) -> CodingScheme {
        self.scheme
    }

    /// Input phase period `k` for phase-coded inputs.
    pub fn phase_period(&self) -> u32 {
        self.phase_period
    }

    /// Inert: always empty (the removed sparse kernel's crossovers);
    /// kept so existing readers such as the `perfbench` harness still
    /// build.
    pub fn density_thresholds(&self) -> &[f32] {
        &[]
    }

    /// Inert: always empty (the removed packed kernel's crossovers);
    /// kept so existing readers such as the `perfbench` harness still
    /// build.
    pub fn packed_thresholds(&self) -> &[f32] {
        &[]
    }

    /// Inert: always empty (the removed int8 kernel's crossovers); kept
    /// so existing readers such as the `perfbench` harness still build.
    pub fn quant_thresholds(&self) -> &[f32] {
        &[]
    }

    /// Inert: always empty (the removed int8 kernel's accuracy-gate
    /// verdicts); kept so existing readers such as the `perfbench`
    /// harness still build.
    pub fn quant_eligible(&self) -> &[bool] {
        &[]
    }

    /// The entry's kernel-profile sink (one cell per stage, hidden
    /// layers + output). Workers with profiling enabled attach it to
    /// their lockstep engines; it accumulates across all of them and
    /// surfaces through [`crate::obs::MetricsHub`]. Inert (all zeros)
    /// unless the runtime was started with
    /// [`crate::ServeConfig::profile`] — or something else attaches it.
    pub fn profile(&self) -> &Arc<ProfileSink> {
        &self.profile
    }
}

/// Thread-safe named model store.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<HashMap<String, Arc<ModelEntry>>>,
    next_epoch: AtomicU64,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or hot-swaps) `network` under `name`; returns the new
    /// entry's epoch. In-flight requests on a replaced model finish on
    /// the old entry, which stays alive for as long as any worker holds
    /// its `Arc`.
    pub fn install(
        &self,
        name: impl Into<String>,
        network: SpikingNetwork,
        scheme: CodingScheme,
        phase_period: u32,
    ) -> u64 {
        let name = name.into();
        let epoch = self.next_epoch.fetch_add(1, Ordering::Relaxed) + 1;
        // One profile cell per lockstep stage: hidden layers + output.
        let profile = Arc::new(ProfileSink::new(network.layers().len() + 1));
        let entry = Arc::new(ModelEntry {
            name: name.clone(),
            epoch,
            network,
            scheme,
            phase_period,
            profile,
        });
        self.models
            .write()
            .expect("registry poisoned")
            .insert(name, entry);
        epoch
    }

    /// Installs a model from a `BSNN` snapshot stream (the format
    /// written by [`bsnn_core::snapshot::save_network`]). Only the
    /// network is kept: a lockstep width recorded by an older writer is
    /// discarded, like the rest of the stream's metadata.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Snapshot`] when the stream is corrupt or
    /// decodes to an inconsistent network, and the more specific
    /// [`ServeError::SnapshotChecksum`] when a v5 stream's checksum
    /// trailer does not match its content (bit rot or truncation caught
    /// before any decode error could misattribute it).
    pub fn install_snapshot<R: Read>(
        &self,
        name: impl Into<String>,
        reader: R,
        scheme: CodingScheme,
        phase_period: u32,
    ) -> Result<u64, ServeError> {
        let network = snapshot::load_network(reader).map_err(|e| match e {
            snapshot::SnapshotError::Checksum { .. } => ServeError::SnapshotChecksum(e.to_string()),
            other => ServeError::Snapshot(other.to_string()),
        })?;
        Ok(self.install(name, network, scheme, phase_period))
    }

    /// Resolves a model by name.
    pub fn get(&self, name: &str) -> Option<Arc<ModelEntry>> {
        self.models
            .read()
            .expect("registry poisoned")
            .get(name)
            .cloned()
    }

    /// Removes a model; returns whether it existed. In-flight requests
    /// still finish on entries workers already hold.
    pub fn remove(&self, name: &str) -> bool {
        self.models
            .write()
            .expect("registry poisoned")
            .remove(name)
            .is_some()
    }

    /// Names of all installed models, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .models
            .read()
            .expect("registry poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of installed models.
    pub fn len(&self) -> usize {
        self.models.read().expect("registry poisoned").len()
    }

    /// Whether no model is installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsnn_core::layer::{SpikingLayer, ThresholdPolicy};
    use bsnn_core::synapse::Synapse;
    use bsnn_tensor::Tensor;

    fn tiny_network(weight: f32) -> SpikingNetwork {
        let dense = |w: f32| Synapse::Dense {
            weight: Tensor::from_vec(vec![w, 0.0, 0.0, w], &[2, 2]).unwrap(),
        };
        let hidden =
            SpikingLayer::new(dense(weight), None, ThresholdPolicy::Fixed { vth: 0.5 }).unwrap();
        SpikingNetwork::new(2, vec![hidden], dense(1.0), None).unwrap()
    }

    #[test]
    fn install_get_remove_roundtrip() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let e1 = reg.install("digits", tiny_network(1.0), CodingScheme::recommended(), 8);
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.names(), vec!["digits".to_string()]);
        let entry = reg.get("digits").unwrap();
        assert_eq!(entry.epoch(), e1);
        assert_eq!(entry.name(), "digits");
        assert_eq!(entry.phase_period(), 8);
        assert!(reg.get("missing").is_none());
        assert!(reg.remove("digits"));
        assert!(!reg.remove("digits"));
        assert!(reg.is_empty());
    }

    #[test]
    fn hot_swap_bumps_epoch_and_keeps_old_entry_alive() {
        let reg = ModelRegistry::new();
        let e1 = reg.install("m", tiny_network(1.0), CodingScheme::recommended(), 8);
        let held = reg.get("m").unwrap(); // a worker mid-request
        let e2 = reg.install("m", tiny_network(2.0), CodingScheme::recommended(), 8);
        assert!(e2 > e1, "epochs are monotonic");
        // The worker's held entry is untouched by the swap...
        assert_eq!(held.epoch(), e1);
        // ...while new resolutions see the new model.
        assert_eq!(reg.get("m").unwrap().epoch(), e2);
    }

    #[test]
    fn snapshot_install_roundtrip() {
        let net = tiny_network(1.0);
        let mut buf = Vec::new();
        bsnn_core::snapshot::save_network(&net, &mut buf).unwrap();
        let reg = ModelRegistry::new();
        let epoch = reg
            .install_snapshot("snap", buf.as_slice(), CodingScheme::recommended(), 8)
            .unwrap();
        let entry = reg.get("snap").unwrap();
        assert_eq!(entry.epoch(), epoch);
        assert_eq!(entry.network().input_len(), 2);
        // Corrupt stream surfaces as a snapshot error.
        let err = reg
            .install_snapshot("bad", &b"NOPE"[..], CodingScheme::recommended(), 8)
            .unwrap_err();
        assert!(matches!(err, ServeError::Snapshot(_)));
    }

    #[test]
    fn bit_flipped_snapshot_is_a_typed_checksum_error() {
        let net = tiny_network(1.0);
        let mut buf = Vec::new();
        bsnn_core::snapshot::save_network(&net, &mut buf).unwrap();
        // Flip one bit inside the last weight value (the stream tail is
        // weights + bias tag (4) + checksum trailer (8)), which decodes
        // structurally fine — only the checksum can catch it.
        let at = buf.len() - 16;
        buf[at] ^= 0x10;
        let reg = ModelRegistry::new();
        let err = reg
            .install_snapshot("rot", buf.as_slice(), CodingScheme::recommended(), 8)
            .unwrap_err();
        assert!(
            matches!(err, ServeError::SnapshotChecksum(_)),
            "expected the typed checksum error, got {err:?}"
        );
        assert!(reg.is_empty(), "nothing installed from a corrupt stream");
    }
}
