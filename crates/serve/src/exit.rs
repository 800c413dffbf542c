//! The anytime early-exit engine: drives the lockstep engine
//! ([`BatchedStepwiseInference`], which serving workers run) or the
//! scalar reference ([`StepwiseInference`]) under an [`ExitPolicy`].
//!
//! The paper's accuracy-versus-time-step curves show most images are
//! classified correctly long before the simulation horizon; the margin
//! policy exploits this per request by watching the gap between the top
//! two output potentials. Potentials accumulate roughly linearly in time,
//! so the gap is normalized by the elapsed steps to make one threshold
//! meaningful at every checkpoint.

use crate::error::ServeError;
use crate::registry::ModelEntry;
use crate::request::{ExitPolicy, ExitReason};
use bsnn_core::batch::{BatchedNetwork, BatchedStepwiseInference};
use bsnn_core::simulator::{EvalConfig, StepwiseInference};
use bsnn_core::SpikingNetwork;

/// What the engine observed when a run stopped.
#[derive(Debug, Clone, PartialEq)]
pub struct ExitOutcome {
    /// Predicted class at exit.
    pub prediction: usize,
    /// Time steps simulated.
    pub steps: usize,
    /// Spikes emitted across all layers.
    pub spikes: u64,
    /// Per-step normalized confidence margin at exit.
    pub margin: f32,
    /// Why the run stopped.
    pub reason: ExitReason,
}

/// Runs one image on `net` (which must be a clone of `entry`'s template)
/// until `policy` says stop.
///
/// # Errors
///
/// Returns [`ServeError::InvalidPolicy`] for malformed policies and
/// propagates simulation errors.
pub fn run_with_policy(
    net: &mut SpikingNetwork,
    image: &[f32],
    entry: &ModelEntry,
    policy: &ExitPolicy,
) -> Result<ExitOutcome, ServeError> {
    policy.validate()?;
    let cfg =
        EvalConfig::new(entry.scheme(), policy.max_steps()).with_phase_period(entry.phase_period());
    let mut run = StepwiseInference::new(net, image, &cfg)?;
    let mut ctrl = LaneController::new(policy.clone());
    let mut reason = ExitReason::HorizonReached;
    while run.advance()? {
        if let Some(r) = ctrl.observe(run.steps_taken(), &ScalarProbe(&run)) {
            reason = r;
            break;
        }
    }
    let steps = run.steps_taken();
    Ok(ExitOutcome {
        prediction: run.prediction(),
        steps,
        spikes: run.total_spikes(),
        margin: run.confidence_margin() / steps.max(1) as f32,
        reason,
    })
}

/// Read-only view of one run's anytime signals, so the scalar and
/// lockstep engines can share one exit-policy state machine.
trait ExitProbe {
    fn prediction(&self) -> usize;
    fn confidence_margin(&self) -> f32;
    fn total_spikes(&self) -> u64;
}

struct ScalarProbe<'a, 'net>(&'a StepwiseInference<'net>);

impl ExitProbe for ScalarProbe<'_, '_> {
    fn prediction(&self) -> usize {
        self.0.prediction()
    }
    fn confidence_margin(&self) -> f32 {
        self.0.confidence_margin()
    }
    fn total_spikes(&self) -> u64 {
        self.0.total_spikes()
    }
}

struct LaneProbe<'a, 'net>(&'a BatchedStepwiseInference<'net>, usize);

impl ExitProbe for LaneProbe<'_, '_> {
    fn prediction(&self) -> usize {
        self.0.prediction(self.1)
    }
    fn confidence_margin(&self) -> f32 {
        self.0.confidence_margin(self.1)
    }
    fn total_spikes(&self) -> u64 {
        self.0.total_spikes(self.1)
    }
}

/// The per-run exit-policy state machine, evaluated once after every
/// executed step — the **single** implementation behind both
/// [`run_with_policy`] and the lockstep batch loop, so the two paths
/// cannot drift. Convergence/budget conditions are tested at every step
/// (including the run's last), and the hard horizon only applies when no
/// other condition fired — a run that converges on its final step
/// reports [`ExitReason::Converged`].
#[derive(Debug)]
struct LaneController {
    policy: ExitPolicy,
    stable: usize,
    last_pred: usize,
}

impl LaneController {
    fn new(policy: ExitPolicy) -> Self {
        LaneController {
            policy,
            stable: 0,
            last_pred: usize::MAX,
        }
    }

    /// Decides whether the run should stop after its `t`-th step.
    fn observe(&mut self, t: usize, probe: &impl ExitProbe) -> Option<ExitReason> {
        match self.policy {
            ExitPolicy::Fixed { steps } => (t >= steps).then_some(ExitReason::HorizonReached),
            ExitPolicy::ConfidenceMargin {
                margin,
                patience,
                check_every,
                max_steps,
            } => {
                if t.is_multiple_of(check_every) {
                    let pred = probe.prediction();
                    let normalized = probe.confidence_margin() / t as f32;
                    if pred == self.last_pred && normalized >= margin {
                        self.stable += 1;
                        if self.stable >= patience {
                            return Some(ExitReason::Converged);
                        }
                    } else {
                        self.stable = 0;
                    }
                    self.last_pred = pred;
                }
                (t >= max_steps).then_some(ExitReason::HorizonReached)
            }
            ExitPolicy::SpikeBudget {
                max_spikes,
                max_steps,
            } => {
                if probe.total_spikes() >= max_spikes {
                    Some(ExitReason::BudgetExhausted)
                } else {
                    (t >= max_steps).then_some(ExitReason::HorizonReached)
                }
            }
        }
    }
}

/// Runs a lockstep batch of images on `engine` (whose template must be a
/// clone of `entry`'s network), each lane under its own [`ExitPolicy`],
/// delivering each lane's [`ExitOutcome`] through `on_exit` the moment
/// the lane retires.
///
/// All lanes advance together; after every time step each live lane's
/// policy is evaluated and satisfied lanes *retire*: their outcome is
/// reported immediately (anytime serving — a converged request never
/// waits for a straggler in its batch) and their column is compacted
/// out, so the rest of the batch continues at reduced cost. The run
/// ends when every lane has retired (each policy's hard horizon
/// guarantees this). Ragged widths are padded to the next fixed lane
/// width with dead lanes
/// ([`BatchedStepwiseInference::new_padded`]) — dead lanes carry no
/// policy, report nothing, and never hold the run open. Per-lane
/// outcomes are identical to running each image alone through
/// [`run_with_policy`].
///
/// # Errors
///
/// Returns [`ServeError::InvalidPolicy`] for malformed policies,
/// [`ServeError::InvalidConfig`] when `images` and `policies` disagree
/// in length or exceed the engine's width, and propagates simulation
/// errors (which fail the whole batch — pre-validate per-lane inputs to
/// isolate bad requests). On error, lanes already reported through
/// `on_exit` keep their outcomes.
pub fn run_batch_with_policies_each(
    engine: &mut BatchedNetwork,
    images: &[&[f32]],
    entry: &ModelEntry,
    policies: &[ExitPolicy],
    mut on_exit: impl FnMut(usize, ExitOutcome),
) -> Result<(), ServeError> {
    if images.len() != policies.len() {
        return Err(ServeError::InvalidConfig(format!(
            "{} images vs {} policies",
            images.len(),
            policies.len()
        )));
    }
    for policy in policies {
        policy.validate()?;
    }
    let horizon = policies.iter().map(|p| p.max_steps()).max().unwrap_or(0);
    if horizon == 0 {
        return Err(ServeError::InvalidConfig("empty lockstep batch".into()));
    }
    let cfg = EvalConfig::new(entry.scheme(), horizon).with_phase_period(entry.phase_period());
    let mut run = BatchedStepwiseInference::new_padded(engine, images, &cfg)?;
    let mut controllers: Vec<LaneController> =
        policies.iter().cloned().map(LaneController::new).collect();
    while run.advance()? {
        for (lane, ctrl) in controllers.iter_mut().enumerate() {
            if !run.is_active(lane) {
                continue;
            }
            if let Some(reason) = ctrl.observe(run.steps_taken(lane), &LaneProbe(&run, lane)) {
                run.retire(lane);
                let steps = run.steps_taken(lane);
                on_exit(
                    lane,
                    ExitOutcome {
                        prediction: run.prediction(lane),
                        steps,
                        spikes: run.total_spikes(lane),
                        margin: run.confidence_margin(lane) / steps.max(1) as f32,
                        reason,
                    },
                );
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use bsnn_core::coding::CodingScheme;
    use bsnn_core::layer::{SpikingLayer, ThresholdPolicy};
    use bsnn_core::synapse::Synapse;
    use bsnn_tensor::Tensor;

    /// A 2-input, 2-class toy whose class-0 potential runs away — an
    /// easy early-exit target with deterministic spike counts.
    fn toy_entry() -> std::sync::Arc<ModelEntry> {
        let diag = |a: f32, b: f32| Synapse::Dense {
            weight: Tensor::from_vec(vec![a, 0.0, 0.0, b], &[2, 2]).unwrap(),
        };
        let hidden =
            SpikingLayer::new(diag(1.0, 1.0), None, ThresholdPolicy::Fixed { vth: 0.25 }).unwrap();
        let net = SpikingNetwork::new(2, vec![hidden], diag(1.0, 1.0), None).unwrap();
        let reg = ModelRegistry::new();
        reg.install(
            "toy",
            net,
            CodingScheme::new(
                bsnn_core::coding::InputCoding::Real,
                bsnn_core::coding::HiddenCoding::Rate,
            ),
            8,
        );
        reg.get("toy").unwrap()
    }

    #[test]
    fn fixed_policy_runs_to_horizon() {
        let entry = toy_entry();
        let mut net = entry.network().clone();
        let out = run_with_policy(
            &mut net,
            &[0.9, 0.1],
            &entry,
            &ExitPolicy::Fixed { steps: 40 },
        )
        .unwrap();
        assert_eq!(out.steps, 40);
        assert_eq!(out.reason, ExitReason::HorizonReached);
        assert_eq!(out.prediction, 0);
        assert!(out.spikes > 0);
        assert!(out.margin > 0.0);
    }

    #[test]
    fn margin_policy_exits_early_on_confident_input() {
        let entry = toy_entry();
        let mut net = entry.network().clone();
        let policy = ExitPolicy::ConfidenceMargin {
            margin: 0.1,
            patience: 2,
            check_every: 4,
            max_steps: 400,
        };
        let out = run_with_policy(&mut net, &[0.9, 0.1], &entry, &policy).unwrap();
        assert_eq!(out.reason, ExitReason::Converged);
        assert!(
            out.steps < 400,
            "confident input must exit early, took {}",
            out.steps
        );
        // check_every 4, patience 2: the checkpoint at t=4 only
        // establishes last_pred, t=8 is the first stable check, t=12 the
        // second ⇒ the earliest possible exit is step 12.
        assert!(out.steps >= 12);
        assert_eq!(out.prediction, 0);
    }

    #[test]
    fn margin_policy_falls_back_to_horizon_on_ambiguous_input() {
        let entry = toy_entry();
        let mut net = entry.network().clone();
        // Symmetric drive: the top-2 gap stays ~0, margin never clears.
        let policy = ExitPolicy::ConfidenceMargin {
            margin: 0.1,
            patience: 2,
            check_every: 4,
            max_steps: 32,
        };
        let out = run_with_policy(&mut net, &[0.5, 0.5], &entry, &policy).unwrap();
        assert_eq!(out.reason, ExitReason::HorizonReached);
        assert_eq!(out.steps, 32);
    }

    #[test]
    fn spike_budget_policy_stops_at_budget() {
        let entry = toy_entry();
        let mut net = entry.network().clone();
        let budget = 10u64;
        let out = run_with_policy(
            &mut net,
            &[0.9, 0.9],
            &entry,
            &ExitPolicy::SpikeBudget {
                max_spikes: budget,
                max_steps: 400,
            },
        )
        .unwrap();
        assert_eq!(out.reason, ExitReason::BudgetExhausted);
        assert!(out.spikes >= budget);
        // Both toy neurons spike nearly every step, so the budget is hit
        // within budget steps.
        assert!(out.steps <= budget as usize + 1);
    }

    #[test]
    fn invalid_policy_is_rejected_before_simulation() {
        let entry = toy_entry();
        let mut net = entry.network().clone();
        let err = run_with_policy(
            &mut net,
            &[0.5, 0.5],
            &entry,
            &ExitPolicy::Fixed { steps: 0 },
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::InvalidPolicy(_)));
    }

    /// Runs [`run_batch_with_policies_each`] and returns the outcomes in
    /// lane order, asserting every lane was reported exactly once.
    fn run_each(
        engine: &mut BatchedNetwork,
        images: &[&[f32]],
        entry: &ModelEntry,
        policies: &[ExitPolicy],
    ) -> Result<Vec<ExitOutcome>, ServeError> {
        let mut outcomes: Vec<Option<ExitOutcome>> = vec![None; images.len()];
        run_batch_with_policies_each(engine, images, entry, policies, |lane, outcome| {
            assert!(outcomes[lane].is_none(), "lane {lane} reported twice");
            outcomes[lane] = Some(outcome);
        })?;
        Ok(outcomes
            .into_iter()
            .enumerate()
            .map(|(lane, o)| o.unwrap_or_else(|| panic!("lane {lane} never reported")))
            .collect())
    }

    #[test]
    fn lockstep_batch_matches_scalar_per_lane() {
        // Mixed per-lane policies (different horizons, different exit
        // conditions) through one lockstep run must reproduce the scalar
        // engine outcome for every lane — outputs AND exit reasons.
        let entry = toy_entry();
        let images: Vec<Vec<f32>> = vec![
            vec![0.9, 0.1], // confident → margin converges early
            vec![0.5, 0.5], // ambiguous → margin runs to horizon
            vec![0.9, 0.9], // busy → spike budget trips
            vec![0.3, 0.6], // fixed horizon, shorter than the others
        ];
        let policies = vec![
            ExitPolicy::ConfidenceMargin {
                margin: 0.1,
                patience: 2,
                check_every: 4,
                max_steps: 400,
            },
            ExitPolicy::ConfidenceMargin {
                margin: 0.1,
                patience: 2,
                check_every: 4,
                max_steps: 32,
            },
            ExitPolicy::SpikeBudget {
                max_spikes: 10,
                max_steps: 400,
            },
            ExitPolicy::Fixed { steps: 17 },
        ];
        let mut engine =
            bsnn_core::batch::BatchedNetwork::new(entry.network().clone(), images.len()).unwrap();
        let refs: Vec<&[f32]> = images.iter().map(|i| i.as_slice()).collect();
        let batched = run_each(&mut engine, &refs, &entry, &policies).unwrap();
        for (lane, (image, policy)) in images.iter().zip(&policies).enumerate() {
            let mut net = entry.network().clone();
            let solo = run_with_policy(&mut net, image, &entry, policy).unwrap();
            assert_eq!(batched[lane], solo, "lane {lane} diverged from scalar");
        }
        assert_eq!(batched[0].reason, ExitReason::Converged);
        assert_eq!(batched[1].reason, ExitReason::HorizonReached);
        assert_eq!(batched[2].reason, ExitReason::BudgetExhausted);
        assert_eq!(batched[3].reason, ExitReason::HorizonReached);
        assert_eq!(batched[3].steps, 17);
    }

    #[test]
    fn lockstep_batch_rejects_malformed_input() {
        let entry = toy_entry();
        let mut engine = bsnn_core::batch::BatchedNetwork::new(entry.network().clone(), 2).unwrap();
        let img: &[f32] = &[0.5, 0.5];
        // Length mismatch between images and policies.
        let err = run_each(
            &mut engine,
            &[img],
            &entry,
            &[
                ExitPolicy::Fixed { steps: 4 },
                ExitPolicy::Fixed { steps: 4 },
            ],
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)));
        // Invalid policy rejected before simulation.
        let err = run_each(
            &mut engine,
            &[img],
            &entry,
            &[ExitPolicy::Fixed { steps: 0 }],
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::InvalidPolicy(_)));
        // Empty batch.
        let err = run_each(&mut engine, &[], &entry, &[]).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)));
    }
}
