//! Closed-loop variational driving: a deterministic optimizer for QAOA
//! angles.
//!
//! Variational workloads are *interactive*: each optimizer iteration submits
//! a circuit evaluation, waits for the measured objective, and only then
//! chooses the next angles. That submit → await → re-submit loop is exactly
//! the traffic pattern the service's latency class exists for — one
//! straggling evaluation stalls the whole optimization, so queue wait is on
//! the critical path.
//!
//! [`PatternSearch`] is the driver half of that loop: a derivative-free
//! coordinate pattern search over one QAOA layer's `(γ, β)`. It proposes one
//! angle pair at a time ([`next_angles`](PatternSearch::next_angles)), the
//! caller evaluates it however it likes (typically by submitting a bound
//! bundle to a running [`QmlService`] and awaiting the result) and reports
//! the measured objective back ([`observe`](PatternSearch::observe)).
//!
//! The search is **fully deterministic**: no randomness, no clocks — given
//! the same sequence of observed objective values it proposes the same
//! sequence of angles. That makes closed-loop runs reproducible end to end
//! (seeded simulator + deterministic driver ⇒ bit-identical trajectories,
//! loaded service or idle), which is what the integration tests pin.
//!
//! [`QmlService`]: ../../qml_service/struct.QmlService.html

use crate::qaoa::QaoaAngles;

/// A deterministic derivative-free maximizer over one QAOA layer's
/// `(γ, β)`.
///
/// Classic coordinate pattern search: evaluate the center, then the four
/// axial probes `γ ± step` and `β ± step`. If the best probe improves on the
/// center, the center moves there (same step); otherwise the step halves.
/// The search converges when the step would shrink below `min_step`.
///
/// Drive it as a pull loop:
///
/// ```
/// use qml_algorithms::{PatternSearch, QaoaAngles};
///
/// let mut search = PatternSearch::new(
///     QaoaAngles { gamma: 0.2, beta: 0.8 },
///     0.4,   // initial step (radians)
///     0.05,  // convergence threshold
/// );
/// while let Some(angles) = search.next_angles() {
///     // Submit a bound evaluation and await its measured objective here;
///     // this example uses a synthetic concave stand-in.
///     let value = -(angles.gamma - 0.4f64).powi(2) - (angles.beta - 0.6f64).powi(2);
///     search.observe(value);
/// }
/// let (best, value) = search.best();
/// assert!(search.converged());
/// assert!((best.gamma - 0.4).abs() < 0.1 && (best.beta - 0.6).abs() < 0.1);
/// assert!(value > -0.01);
/// ```
#[derive(Debug, Clone)]
pub struct PatternSearch {
    center: QaoaAngles,
    /// Objective at the center; `None` until the first observation.
    center_value: Option<f64>,
    step: f64,
    min_step: f64,
    /// Axial probes still to evaluate this round, in fixed order.
    pending: Vec<QaoaAngles>,
    /// Best `(angles, value)` among this round's observed probes.
    best_probe: Option<(QaoaAngles, f64)>,
    /// The proposal handed out by `next_angles` and not yet observed.
    outstanding: Option<QaoaAngles>,
    /// Every `(angles, observed value)` in evaluation order.
    trajectory: Vec<(QaoaAngles, f64)>,
    converged: bool,
}

impl PatternSearch {
    /// A search centered on `init`, probing at `step` radians until the step
    /// would fall below `min_step`. Non-positive steps are clamped to a tiny
    /// positive value, and `min_step` is clamped to at most `step` so the
    /// search always evaluates at least one full round.
    pub fn new(init: QaoaAngles, step: f64, min_step: f64) -> Self {
        let step = if step > 0.0 { step } else { f64::EPSILON };
        let min_step = min_step.clamp(f64::EPSILON, step);
        PatternSearch {
            center: init,
            center_value: None,
            step,
            min_step,
            pending: Vec::new(),
            best_probe: None,
            outstanding: None,
            trajectory: Vec::new(),
            converged: false,
        }
    }

    /// The next angles to evaluate, or `None` once the search has converged.
    /// Calling again before [`observe`](PatternSearch::observe) returns the
    /// same proposal — a crashed evaluation can simply be retried.
    pub fn next_angles(&mut self) -> Option<QaoaAngles> {
        if self.converged {
            return None;
        }
        if let Some(angles) = self.outstanding {
            return Some(angles);
        }
        let next = if self.center_value.is_none() {
            self.center
        } else {
            // `refill` keeps `pending` non-empty between rounds until
            // convergence, so an empty list here is unreachable.
            self.pending.remove(0)
        };
        self.outstanding = Some(next);
        Some(next)
    }

    /// Report the measured objective (to **maximize**) for the angles the
    /// last [`next_angles`](PatternSearch::next_angles) proposed.
    ///
    /// # Panics
    ///
    /// Panics when no proposal is outstanding.
    pub fn observe(&mut self, value: f64) {
        // A caller error, documented above: an observation with no
        // outstanding proposal has no angles to belong to.
        #[allow(clippy::expect_used)]
        let angles = self
            .outstanding
            .take()
            .expect("observe() without a preceding next_angles()");
        self.trajectory.push((angles, value));
        let Some(center_value) = self.center_value else {
            self.center_value = Some(value);
            self.refill();
            return;
        };
        if self.best_probe.is_none_or(|(_, best)| value > best) {
            self.best_probe = Some((angles, value));
        }
        if !self.pending.is_empty() {
            return;
        }
        // Round complete: move the center to a strictly improving probe,
        // otherwise halve the step (converging once it falls below the
        // threshold). NaN objectives never improve, so a broken evaluation
        // cannot drag the center off the best point seen.
        match self.best_probe.take() {
            Some((best, value)) if value > center_value => {
                self.center = best;
                self.center_value = Some(value);
            }
            _ => {
                self.step /= 2.0;
                if self.step < self.min_step {
                    self.converged = true;
                    return;
                }
            }
        }
        self.refill();
    }

    /// Queue the four axial probes around the current center.
    fn refill(&mut self) {
        let QaoaAngles { gamma, beta } = self.center;
        let step = self.step;
        self.pending = vec![
            QaoaAngles {
                gamma: gamma + step,
                beta,
            },
            QaoaAngles {
                gamma: gamma - step,
                beta,
            },
            QaoaAngles {
                gamma,
                beta: beta + step,
            },
            QaoaAngles {
                gamma,
                beta: beta - step,
            },
        ];
    }

    /// The best angles seen so far and their objective value (the initial
    /// center with value `-inf` before the first observation).
    pub fn best(&self) -> (QaoaAngles, f64) {
        (self.center, self.center_value.unwrap_or(f64::NEG_INFINITY))
    }

    /// True once the step has shrunk below the convergence threshold.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Evaluations observed so far.
    pub fn evaluations(&self) -> usize {
        self.trajectory.len()
    }

    /// Every `(angles, observed value)` in evaluation order. Two runs fed
    /// identical observations produce identical trajectories.
    pub fn trajectory(&self) -> &[(QaoaAngles, f64)] {
        &self.trajectory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn concave(angles: QaoaAngles) -> f64 {
        -(angles.gamma - 0.3).powi(2) - (angles.beta - 0.5).powi(2)
    }

    fn run(mut search: PatternSearch) -> PatternSearch {
        while let Some(angles) = search.next_angles() {
            search.observe(concave(angles));
        }
        search
    }

    #[test]
    fn converges_to_the_maximum_of_a_concave_objective() {
        let search = run(PatternSearch::new(
            QaoaAngles {
                gamma: 1.5,
                beta: -0.7,
            },
            0.5,
            1e-3,
        ));
        assert!(search.converged());
        let (best, value) = search.best();
        assert!((best.gamma - 0.3).abs() < 5e-3, "gamma={}", best.gamma);
        assert!((best.beta - 0.5).abs() < 5e-3, "beta={}", best.beta);
        assert!(value > -1e-4);
    }

    #[test]
    fn identical_observations_produce_identical_trajectories() {
        let a = run(PatternSearch::new(
            QaoaAngles {
                gamma: 0.1,
                beta: 0.9,
            },
            0.4,
            1e-2,
        ));
        let b = run(PatternSearch::new(
            QaoaAngles {
                gamma: 0.1,
                beta: 0.9,
            },
            0.4,
            1e-2,
        ));
        assert_eq!(a.evaluations(), b.evaluations());
        for (x, y) in a.trajectory().iter().zip(b.trajectory()) {
            assert_eq!(x.0.gamma.to_bits(), y.0.gamma.to_bits());
            assert_eq!(x.0.beta.to_bits(), y.0.beta.to_bits());
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }

    #[test]
    fn unobserved_proposals_are_stable_across_repeated_polls() {
        let mut search = PatternSearch::new(
            QaoaAngles {
                gamma: 0.0,
                beta: 0.0,
            },
            0.25,
            1e-2,
        );
        let first = search.next_angles().unwrap();
        let again = search.next_angles().unwrap();
        assert_eq!(first, again, "retryable until observed");
        search.observe(0.0);
        assert_ne!(search.next_angles().unwrap(), first);
    }

    #[test]
    fn a_flat_objective_converges_by_halving_without_moving() {
        let mut search = PatternSearch::new(
            QaoaAngles {
                gamma: 0.2,
                beta: 0.4,
            },
            0.4,
            0.1,
        );
        while let Some(_angles) = search.next_angles() {
            search.observe(1.0);
        }
        let (best, value) = search.best();
        assert_eq!(best.gamma, 0.2);
        assert_eq!(best.beta, 0.4);
        assert_eq!(value, 1.0);
        // Center + 3 rounds of 4 probes (0.4 → 0.2 → 0.1 → below 0.1).
        assert_eq!(search.evaluations(), 13);
    }

    #[test]
    fn nan_observations_never_capture_the_center() {
        let mut search = PatternSearch::new(
            QaoaAngles {
                gamma: 0.2,
                beta: 0.4,
            },
            0.4,
            0.2,
        );
        while let Some(_angles) = search.next_angles() {
            search.observe(f64::NAN);
        }
        assert!(search.converged());
        let (best, _) = search.best();
        assert_eq!((best.gamma, best.beta), (0.2, 0.4), "center never moved");
    }
}
