//! Quorum configuration.

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

/// Below this register width, `Auto` under Noisy execution picks the
/// dense [`EngineKind::Density`] engine; at or above it, the structured
/// [`EngineKind::DensityStructured`] engine.
///
/// The crossover follows the **cold** cost. Warm, the dense engine
/// scores each (sample, level) as one dot product over the
/// `m(m+1)/2`-entry packed readout form (`m = 2^n(2^n+1)/2`), and it
/// still beats the structured channel walk at `n = 5`: 0.52 against
/// 0.68 ms per sample on 1 group × 24 samples × 2 levels (medians of
/// three runs on a 2-vCPU AVX-512 host, `benches/engine_comparison.rs`).
/// But each form starts from a fused `16^n` superoperator, so the first
/// pass over a fresh group at `n = 5` costs 1.5–1.6 s against 13–20 ms
/// for the structured lowering — 80–110×, with the caches every group
/// shares already built, and `16×` worse per extra qubit. A detector
/// that scores a batch once pays that build on every group, so wide
/// registers go structured.
pub const STRUCTURED_AUTO_MIN_QUBITS: usize = 5;

/// Which scoring engine evaluates the per-sample deviations.
///
/// See [`crate::engine`] for the implementations. `Auto` picks the
/// batched analytic engine whenever the execution mode allows it (Exact
/// and Sampled) and an analytic density engine for Noisy runs, which
/// need mixed-state evolution — the dense one at the paper's widths,
/// the structured one from [`STRUCTURED_AUTO_MIN_QUBITS`] data qubits
/// up. The paper-literal `Circuit` engine stays selectable as the
/// cross-check oracle. The per-sample reference engines
/// ([`crate::engine::AnalyticEngine`],
/// [`crate::engine::SampleDensityEngine`]) are test oracles with no
/// variant here; tests run them through
/// [`crate::detector::QuorumDetector::score_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum EngineKind {
    /// Batched analytic for Exact/Sampled execution; for Noisy, the
    /// dense density engine below [`STRUCTURED_AUTO_MIN_QUBITS`] data
    /// qubits and the structured density engine at or above it.
    /// Default.
    #[default]
    Auto,
    /// Force the batched analytic engine
    /// ([`crate::engine::BatchedAnalyticEngine`]): whole-group GEMM
    /// scoring with the per-group fused-unitary cache. Invalid with Noisy
    /// execution.
    Batched,
    /// Force the batched analytic density engine
    /// ([`crate::engine::DensityEngine`]): whole-group `vec(ρ)` scoring —
    /// all samples prepared in lockstep as one real `4^n × S` panel, each
    /// level read as one quadratic form per sample against the group's
    /// cached readout form. Requires Noisy execution. Rejects registers
    /// wider than 6 data qubits — the fused `16^n` objects the forms are
    /// built from hit the mixed-state simulator's memory budget there.
    Density,
    /// Force the structured density engine
    /// ([`crate::engine::StructuredDensityEngine`]): the same lockstep
    /// `4^n × S` panel preparation, but each level applied as a cached
    /// per-gate *channel program* and the readout folded into a bond-4
    /// matrix-product sweep — no `16^n` object is ever materialised, so
    /// wide registers (`n ≥ 5`, up to the configuration cap) stay
    /// tractable. Requires Noisy execution. Matches the dense engine to
    /// ≤ 1e-9 where both run.
    DensityStructured,
    /// Force the gate-level circuit engine
    /// ([`crate::engine::CircuitEngine`]) — the paper-literal Fig. 2
    /// simulation, kept as the cross-check oracle for every execution
    /// mode, noisy ones included.
    Circuit,
}

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
    /// Execution mode (exact, shot-sampled, or noisy).
    pub execution: ExecutionMode,
    /// Scoring engine selection (see [`EngineKind`]).
    pub engine: EngineKind,
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
            engine: EngineKind::Auto,
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

    /// Sets the scoring-engine selection.
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// The engine that will actually run, with `Auto` resolved against the
    /// execution mode.
    pub fn effective_engine(&self) -> EngineKind {
        match self.engine {
            EngineKind::Auto => match self.execution {
                ExecutionMode::Noisy { .. } => {
                    if self.data_qubits >= STRUCTURED_AUTO_MIN_QUBITS {
                        EngineKind::DensityStructured
                    } else {
                        EngineKind::Density
                    }
                }
                _ => EngineKind::Batched,
            },
            kind => kind,
        }
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
        match &self.execution {
            ExecutionMode::Sampled { shots } if *shots == 0 => {
                return Err(QuorumError::InvalidConfig("shots must be positive".into()))
            }
            ExecutionMode::Noisy { shots: Some(0), .. } => {
                return Err(QuorumError::InvalidConfig("shots must be positive".into()))
            }
            _ => {}
        }
        // Engine resolution enforces engine/execution compatibility
        // (e.g. a forced batched analytic engine under noisy execution).
        crate::engine::resolve(self)?;
        Ok(())
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
    fn auto_engine_resolves_by_execution_mode() {
        use qsim::NoiseModel;
        let c = QuorumConfig::default();
        assert_eq!(c.engine, EngineKind::Auto);
        assert_eq!(c.effective_engine(), EngineKind::Batched);
        let sampled = c
            .clone()
            .with_execution(ExecutionMode::Sampled { shots: 128 });
        assert_eq!(sampled.effective_engine(), EngineKind::Batched);
        // Noisy runs resolve to the analytic density engine, for every
        // shots setting and noise model.
        for shots in [None, Some(4096)] {
            for noise in [NoiseModel::brisbane(), NoiseModel::ideal()] {
                let noisy = c
                    .clone()
                    .with_execution(ExecutionMode::Noisy { noise, shots });
                assert_eq!(noisy.effective_engine(), EngineKind::Density);
                noisy.validate().unwrap();
            }
        }
        let forced = c.with_engine(EngineKind::Circuit);
        assert_eq!(forced.effective_engine(), EngineKind::Circuit);
    }

    #[test]
    fn batched_engine_rejects_noisy_execution() {
        use qsim::NoiseModel;
        let bad = QuorumConfig::default()
            .with_engine(EngineKind::Batched)
            .with_execution(ExecutionMode::Noisy {
                noise: NoiseModel::brisbane(),
                shots: None,
            });
        assert!(bad.validate().is_err(), "Batched must reject Noisy");
        // Auto silently resolves to the density engine instead.
        let ok = QuorumConfig::default().with_execution(ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: None,
        });
        ok.validate().unwrap();
    }

    #[test]
    fn density_engine_requires_noisy_execution() {
        use qsim::NoiseModel;
        let forced = QuorumConfig::default().with_engine(EngineKind::Density);
        assert!(forced.validate().is_err(), "Density must reject Exact");
        let sampled = QuorumConfig::default()
            .with_engine(EngineKind::Density)
            .with_execution(ExecutionMode::Sampled { shots: 512 });
        assert!(sampled.validate().is_err(), "Density must reject Sampled");
        let ok = QuorumConfig::default()
            .with_engine(EngineKind::Density)
            .with_execution(ExecutionMode::Noisy {
                noise: NoiseModel::brisbane(),
                shots: Some(1024),
            });
        ok.validate().unwrap();
        // The circuit oracle still accepts Noisy execution when forced.
        let oracle = QuorumConfig::default()
            .with_engine(EngineKind::Circuit)
            .with_execution(ExecutionMode::Noisy {
                noise: NoiseModel::brisbane(),
                shots: None,
            });
        oracle.validate().unwrap();
    }

    #[test]
    fn noisy_engine_selection_respects_register_width() {
        use qsim::NoiseModel;
        // 7 data qubits would need a 15-qubit mixed-state observable on
        // the dense path: a forced dense engine must fail at validation
        // rather than on a huge allocation…
        let forced = QuorumConfig::default()
            .with_data_qubits(7)
            .with_engine(EngineKind::Density)
            .with_execution(ExecutionMode::Noisy {
                noise: NoiseModel::brisbane(),
                shots: None,
            });
        assert!(forced.validate().is_err());
        // …but Auto resolves wide noisy registers to the structured
        // engine, which never materialises a 16^n object, so the same
        // width validates (up to the global configuration cap).
        for n in [5, 7, 10] {
            let auto =
                QuorumConfig::default()
                    .with_data_qubits(n)
                    .with_execution(ExecutionMode::Noisy {
                        noise: NoiseModel::brisbane(),
                        shots: None,
                    });
            auto.validate().unwrap();
            assert_eq!(auto.effective_engine(), EngineKind::DensityStructured);
        }
        // Below the crossover Auto keeps the dense engine, and the
        // widest dense-supported register still validates when forced.
        let narrow = QuorumConfig::default().with_execution(ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: None,
        });
        assert_eq!(narrow.effective_engine(), EngineKind::Density);
        let ok = QuorumConfig::default()
            .with_data_qubits(6)
            .with_engine(EngineKind::Density)
            .with_execution(ExecutionMode::Noisy {
                noise: NoiseModel::brisbane(),
                shots: None,
            });
        ok.validate().unwrap();
        // The structured engine still requires Noisy execution.
        let pure = QuorumConfig::default().with_engine(EngineKind::DensityStructured);
        assert!(pure.validate().is_err());
    }

    #[test]
    fn noisy_mode_validates_shots() {
        use qsim::NoiseModel;
        let ok = QuorumConfig::default().with_execution(ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: Some(4096),
        });
        ok.validate().unwrap();
        let bad = QuorumConfig::default().with_execution(ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: Some(0),
        });
        assert!(bad.validate().is_err());
    }
}
