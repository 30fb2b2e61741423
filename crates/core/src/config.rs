//! Quorum configuration. There is no engine setting: the execution mode
//! and the register width pick the scoring engine
//! ([`crate::engine::resolve`]).

use crate::error::QuorumError;
use qsim::NoiseModel;

/// How SWAP-test probabilities are obtained.
#[derive(Debug, Clone, PartialEq, Default)]
#[non_exhaustive]
pub enum ExecutionMode {
    /// Exact probabilities from the branching statevector backend — the
    /// infinite-shot limit. Fastest and noise-free; the default.
    #[default]
    Exact,
    /// Shot-sampled probabilities (the paper uses 4,096 shots per circuit).
    Sampled {
        /// Shots per circuit.
        shots: u64,
    },
    /// Density-matrix simulation with a hardware noise model; when `shots`
    /// is `Some`, measurement statistics are additionally shot-sampled.
    Noisy {
        /// The noise model (e.g. [`NoiseModel::brisbane`]).
        noise: NoiseModel,
        /// Optional shot sampling on top of the noisy probabilities.
        shots: Option<u64>,
    },
}

/// Below this register width, Noisy execution scores on the dense
/// [`crate::engine::DensityEngine`]; at or above it, on the structured
/// [`crate::engine::StructuredDensityEngine`] (see
/// [`crate::engine::resolve`], the one place that applies it).
///
/// The crossover follows the **cold** cost. Warm, the dense engine
/// scores each (sample, level) as one dot product over the
/// `m(m+1)/2`-entry packed readout form (`m = 2^n(2^n+1)/2`), and it
/// still beats the structured channel walk at `n = 5`: 0.52 against
/// 0.68 ms per sample on 1 group × 24 samples × 2 levels (medians of
/// three runs on a 2-vCPU AVX-512 host, `benches/engine_comparison.rs`,
/// which also tracks the warm ratio at `n = 3` and `4`).
/// But each form costs a channel-program walk over `m` columns plus an
/// `m × m` contraction, so the first pass over a fresh group at `n = 5`
/// costs ~50× the structured engine's (0.34 s against 7 ms on the same
/// host), with the caches every group shares already built, and about
/// `16×` worse per extra qubit. A detector that scores a batch once pays
/// that build on every group, so wide registers go structured. Below
/// `n = 5` a one-shot pass costs about the same on both engines at
/// `n = 3` and ~7× more on the dense engine at `n = 4`, while a warm
/// (frozen, serving) dense engine is 4–6× faster at both; the rule stays
/// at 5, since moving it would change which engine scores those widths
/// and move noisy scores at the 1e-9 level.
pub const STRUCTURED_AUTO_MIN_QUBITS: usize = 5;

/// The most shots a configuration may declare, for Sampled execution and
/// for Noisy execution with shot sampling. Shot sampling draws once per
/// shot (about 2.4 ns each), so a served row costs about
/// `shots × groups × levels × 2.4 ns`: ~10 ms at this bound for a
/// 30-group, two-level detector, and hours at a hostile artifact's 2^40.
/// 2^16 is 16× the paper's 4,096 and above every count the experiments
/// use (16,384 in the shot ablation).
pub const MAX_SHOTS: u64 = 1 << 16;

/// Which feature normalisation feeds the amplitude embedding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Normalization {
    /// The paper's §IV-A formula: `raw / (max · M)`. Faithful default.
    #[default]
    RangeMax,
    /// Min–max rescaling `(raw − min) / ((max − min) · M)` — an extension
    /// that restores contrast for offset-heavy features (see the
    /// `ablation_normalization` experiment).
    MinMax,
}

/// Full configuration for a [`crate::detector::QuorumDetector`].
///
/// Construct with [`QuorumConfig::default`] and override via the `with_*`
/// methods:
///
/// ```
/// use quorum_core::config::QuorumConfig;
///
/// let config = QuorumConfig::default()
///     .with_ensemble_groups(200)
///     .with_bucket_probability(0.95)
///     .with_seed(7);
/// assert_eq!(config.ensemble_groups, 200);
/// config.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuorumConfig {
    /// Qubits per data register; circuits use `2n + 1` qubits total. The
    /// paper's experiments use 3 (7-qubit circuits).
    pub data_qubits: usize,
    /// Number of independent ensemble groups (the paper runs 1,000; shapes
    /// stabilise far earlier, see EXPERIMENTS.md).
    pub ensemble_groups: usize,
    /// Layers in the random encoder ansatz (Fig. 5 uses 2).
    pub ansatz_layers: usize,
    /// Compression levels to run per group, each given as the number of
    /// qubits reset in the bottleneck. Empty means "all levels"
    /// (`1..=data_qubits-1`), matching §IV-E.
    pub compression_levels: Vec<usize>,
    /// Target probability that a bucket contains at least one anomaly
    /// (Table I's rightmost column).
    pub bucket_probability: f64,
    /// Estimated anomaly rate used for bucket sizing. Quorum is
    /// unsupervised: this is a prior, not a label. When `None`, the
    /// detector falls back to 5%.
    pub anomaly_rate_estimate: Option<f64>,
    /// Execution mode (exact, shot-sampled, or noisy). Together with
    /// `data_qubits` it also picks the scoring engine
    /// ([`crate::engine::resolve`]).
    pub execution: ExecutionMode,
    /// Feature normalisation strategy (paper-faithful by default).
    pub normalization: Normalization,
    /// Master RNG seed; every ensemble group derives its own stream.
    pub seed: u64,
    /// Worker threads for the embarrassingly parallel ensemble loop.
    /// 0 means "use all available cores".
    pub threads: usize,
}

impl Default for QuorumConfig {
    fn default() -> Self {
        QuorumConfig {
            data_qubits: 3,
            ensemble_groups: 100,
            ansatz_layers: 2,
            compression_levels: Vec::new(),
            bucket_probability: 0.75,
            anomaly_rate_estimate: None,
            execution: ExecutionMode::Exact,
            normalization: Normalization::RangeMax,
            seed: 0xC0FFEE,
            threads: 0,
        }
    }
}

impl QuorumConfig {
    /// Sets the number of data qubits.
    pub fn with_data_qubits(mut self, n: usize) -> Self {
        self.data_qubits = n;
        self
    }

    /// Sets the ensemble-group count.
    pub fn with_ensemble_groups(mut self, n: usize) -> Self {
        self.ensemble_groups = n;
        self
    }

    /// Sets the number of ansatz layers.
    pub fn with_ansatz_layers(mut self, n: usize) -> Self {
        self.ansatz_layers = n;
        self
    }

    /// Restricts the compression levels (numbers of reset qubits).
    pub fn with_compression_levels(mut self, levels: Vec<usize>) -> Self {
        self.compression_levels = levels;
        self
    }

    /// Sets the bucket anomaly-probability target.
    pub fn with_bucket_probability(mut self, p: f64) -> Self {
        self.bucket_probability = p;
        self
    }

    /// Sets the anomaly-rate prior for bucket sizing.
    pub fn with_anomaly_rate_estimate(mut self, r: f64) -> Self {
        self.anomaly_rate_estimate = Some(r);
        self
    }

    /// Sets the execution mode.
    pub fn with_execution(mut self, mode: ExecutionMode) -> Self {
        self.execution = mode;
        self
    }

    /// Sets the normalisation strategy.
    pub fn with_normalization(mut self, normalization: Normalization) -> Self {
        self.normalization = normalization;
        self
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count (0 = all cores).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker-thread count that will actually run, with 0 resolved to
    /// the machine's available parallelism (probed once per process, the
    /// figure the resident worker pool is sized from). The single source
    /// of truth for every fan-out site (detector, analysis, engine
    /// kernels).
    pub fn effective_threads(&self) -> usize {
        if self.threads == 0 {
            qsim::parallel::available_cores()
        } else {
            self.threads
        }
    }

    /// The number of features embedded per circuit: `2^n − 1`, leaving one
    /// amplitude for the overflow state (§IV-C).
    pub fn features_per_circuit(&self) -> usize {
        (1 << self.data_qubits) - 1
    }

    /// The compression levels that will actually run: the configured list,
    /// or `1..=n-1` when empty.
    pub fn effective_compression_levels(&self) -> Vec<usize> {
        if self.compression_levels.is_empty() {
            (1..self.data_qubits).collect()
        } else {
            self.compression_levels.clone()
        }
    }

    /// Total circuit width: two data registers plus the SWAP-test ancilla.
    pub fn total_qubits(&self) -> usize {
        2 * self.data_qubits + 1
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError::InvalidConfig`] with an explanation.
    pub fn validate(&self) -> Result<(), QuorumError> {
        if self.data_qubits < 2 {
            return Err(QuorumError::InvalidConfig(
                "at least 2 data qubits are required (compression needs a qubit to reset and one to keep)".into(),
            ));
        }
        if self.data_qubits > 10 {
            return Err(QuorumError::InvalidConfig(
                "more than 10 data qubits would exceed simulator limits".into(),
            ));
        }
        if self.ensemble_groups == 0 {
            return Err(QuorumError::InvalidConfig(
                "at least one ensemble group is required".into(),
            ));
        }
        if self.ansatz_layers == 0 {
            return Err(QuorumError::InvalidConfig(
                "at least one ansatz layer is required".into(),
            ));
        }
        if !(0.0 < self.bucket_probability && self.bucket_probability < 1.0) {
            return Err(QuorumError::InvalidConfig(
                "bucket probability must lie strictly between 0 and 1".into(),
            ));
        }
        if let Some(r) = self.anomaly_rate_estimate {
            if !(0.0 < r && r < 1.0) {
                return Err(QuorumError::InvalidConfig(
                    "anomaly rate estimate must lie strictly between 0 and 1".into(),
                ));
            }
        }
        for &l in &self.compression_levels {
            if l == 0 || l >= self.data_qubits {
                return Err(QuorumError::InvalidConfig(format!(
                    "compression level {l} must reset between 1 and {} qubits",
                    self.data_qubits - 1
                )));
            }
        }
        let shots = match &self.execution {
            ExecutionMode::Sampled { shots } => Some(*shots),
            ExecutionMode::Noisy { noise, shots } => {
                noise
                    .validate()
                    .map_err(|e| QuorumError::InvalidConfig(e.to_string()))?;
                *shots
            }
            ExecutionMode::Exact => None,
        };
        match shots {
            Some(0) => Err(QuorumError::InvalidConfig("shots must be positive".into())),
            Some(k) if k > MAX_SHOTS => Err(QuorumError::InvalidConfig(format!(
                "{k} shots exceed the limit of {MAX_SHOTS} (MAX_SHOTS)"
            ))),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_paper() {
        let c = QuorumConfig::default();
        c.validate().unwrap();
        assert_eq!(c.data_qubits, 3);
        assert_eq!(c.total_qubits(), 7); // the paper's 7-qubit circuits
        assert_eq!(c.features_per_circuit(), 7); // m = 2^n − 1
        assert_eq!(c.effective_compression_levels(), vec![1, 2]);
    }

    #[test]
    fn builder_chains() {
        let c = QuorumConfig::default()
            .with_data_qubits(4)
            .with_ensemble_groups(5)
            .with_ansatz_layers(3)
            .with_compression_levels(vec![2])
            .with_bucket_probability(0.6)
            .with_anomaly_rate_estimate(0.1)
            .with_seed(99)
            .with_threads(2);
        c.validate().unwrap();
        assert_eq!(c.features_per_circuit(), 15);
        assert_eq!(c.effective_compression_levels(), vec![2]);
        assert_eq!(c.total_qubits(), 9);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(QuorumConfig::default()
            .with_data_qubits(1)
            .validate()
            .is_err());
        assert!(QuorumConfig::default()
            .with_data_qubits(11)
            .validate()
            .is_err());
        assert!(QuorumConfig::default()
            .with_ensemble_groups(0)
            .validate()
            .is_err());
        assert!(QuorumConfig::default()
            .with_ansatz_layers(0)
            .validate()
            .is_err());
        assert!(QuorumConfig::default()
            .with_bucket_probability(1.0)
            .validate()
            .is_err());
        assert!(QuorumConfig::default()
            .with_bucket_probability(0.0)
            .validate()
            .is_err());
        assert!(QuorumConfig::default()
            .with_anomaly_rate_estimate(0.0)
            .validate()
            .is_err());
        assert!(QuorumConfig::default()
            .with_compression_levels(vec![0])
            .validate()
            .is_err());
        assert!(QuorumConfig::default()
            .with_compression_levels(vec![3])
            .validate()
            .is_err());
        assert!(QuorumConfig::default()
            .with_execution(ExecutionMode::Sampled { shots: 0 })
            .validate()
            .is_err());
    }

    #[test]
    fn shot_counts_are_bounded() {
        use qsim::NoiseModel;
        let noisy = |shots| ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: Some(shots),
        };
        for mode in [
            ExecutionMode::Sampled { shots: MAX_SHOTS },
            noisy(MAX_SHOTS),
        ] {
            QuorumConfig::default()
                .with_execution(mode)
                .validate()
                .unwrap();
        }
        for mode in [
            ExecutionMode::Sampled {
                shots: MAX_SHOTS + 1,
            },
            noisy(MAX_SHOTS + 1),
            noisy(1 << 40),
        ] {
            match QuorumConfig::default().with_execution(mode).validate() {
                Err(QuorumError::InvalidConfig(msg)) => {
                    assert!(msg.contains(&MAX_SHOTS.to_string()), "{msg}")
                }
                other => panic!("an oversized shot count validated: {other:?}"),
            }
        }
    }

    #[test]
    fn noisy_mode_validates_shots_and_every_width() {
        use qsim::NoiseModel;
        for shots in [None, Some(4096)] {
            for noise in [NoiseModel::brisbane(), NoiseModel::ideal()] {
                QuorumConfig::default()
                    .with_execution(ExecutionMode::Noisy { noise, shots })
                    .validate()
                    .unwrap();
            }
        }
        let bad = QuorumConfig::default().with_execution(ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: Some(0),
        });
        assert!(bad.validate().is_err());
        // Wide noisy registers score on the structured engine, which has
        // no width cap below the configuration's own.
        for n in 2..=10 {
            QuorumConfig::default()
                .with_data_qubits(n)
                .with_execution(ExecutionMode::Noisy {
                    noise: NoiseModel::brisbane(),
                    shots: None,
                })
                .validate()
                .unwrap();
        }
    }

    #[test]
    fn noisy_mode_validates_the_noise_model() {
        use qsim::NoiseModel;
        type Spoil = fn(&mut NoiseModel);
        let spoiled = |spoil: Spoil| {
            let mut noise = NoiseModel::brisbane();
            spoil(&mut noise);
            QuorumConfig::default().with_execution(ExecutionMode::Noisy { noise, shots: None })
        };
        let cases: [(&str, Spoil); 7] = [
            ("t1", |n| n.t1 = 0.0),
            ("t2", |n| n.t2 = -1e-6),
            ("gate_time_1q", |n| n.gate_time_1q = f64::INFINITY),
            ("gate_time_2q", |n| n.gate_time_2q = -1e-9),
            ("error_1q", |n| n.error_1q = 1.5),
            ("error_2q", |n| n.error_2q = -0.1),
            ("readout_error", |n| n.readout_error = f64::NAN),
        ];
        for (field, spoil) in cases {
            match spoiled(spoil).validate() {
                Err(QuorumError::InvalidConfig(msg)) => assert!(msg.contains(field), "{msg}"),
                other => panic!("bad {field} validated: {other:?}"),
            }
        }
        // NaN fails the time checks too.
        assert!(spoiled(|n| n.t1 = f64::NAN).validate().is_err());
        assert!(spoiled(|n| n.gate_time_1q = f64::NAN).validate().is_err());
    }
}
