//! The resident frozen detector: freeze a generated ensemble into an
//! artifact, thaw it into a long-lived scorer, and score either full
//! reference datasets (bit-identical to the in-process pipeline) or
//! streamed sample batches (the serving path).

use crate::artifact::{FrozenArtifact, FrozenGroup, FrozenNormalizer, LevelStats};
use crate::error::ServeError;
use qdata::{Dataset, SamplePanel};
use qmetrics::stats;
use qsim::parallel::map_indexed;
use quorum_core::ansatz::AnsatzParams;
use quorum_core::bucket::BucketPlan;
use quorum_core::config::ExecutionMode;
use quorum_core::engine::{
    self, sampled_deviation, shot_seed, DensityEngine, ScoringEngine, TrianglePanel,
};
use quorum_core::ensemble::EnsembleGroup;
use quorum_core::features::FeatureSelection;
use quorum_core::{QuorumConfig, QuorumError, ScoreReport};
use std::any::Any;
use std::cell::RefCell;
use std::fmt::Display;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// Sample ids contribute their low 32 bits to the per-measurement shot
/// seed (see [`quorum_core::engine::shot_seed`]); a server that outlives
/// 2^32 samples recycles measurement randomness, never data.
const SAMPLE_ID_MASK: u64 = 0xFFFF_FFFF;

/// How many times [`FrozenDetector::score_samples`] re-runs a stage that
/// panicked — a group's scoring job, or the shared preparation stage of a
/// dense noisy panel — before it fails the panel with
/// [`ServeError::Faulted`]. Each stage gets `1 + GROUP_RETRIES` attempts.
pub const GROUP_RETRIES: u32 = 2;

/// One normalized streamed panel in pooled flat storage: row-major
/// `samples × features`, reused across batches so the steady-state
/// request path never allocates per-row vectors. Borrow it as a
/// [`SamplePanel`] to hand to the engines.
#[derive(Debug, Default)]
struct NormalizedPanel {
    data: Vec<f64>,
    features: usize,
}

impl NormalizedPanel {
    /// Borrows the flat storage as an engine-facing panel view.
    ///
    /// # Panics
    ///
    /// Panics on an unfilled panel (zero feature width) — callers fill
    /// via [`FrozenDetector::normalize_rows_into`] first.
    fn as_panel(&self) -> SamplePanel<'_> {
        SamplePanel::new(&self.data, self.features)
    }
}

/// The resident buffers of one streamed panel: the normalised rows and,
/// on the dense noisy engine, every (group, row) column's prepared upper
/// triangle (270 KiB for a 32-row panel over 30 groups at n = 3).
#[derive(Debug, Default)]
struct StreamScratch {
    panel: NormalizedPanel,
    triangles: TrianglePanel,
}

thread_local! {
    /// Per-thread pooled buffers for the streaming entry points. Each
    /// serving thread normalises and prepares into its own resident
    /// buffers; the per-group jobs borrow them read-only for the
    /// duration of the batch.
    static STREAM_PANEL: RefCell<StreamScratch> = RefCell::default();
}

/// A detector frozen against one reference dataset and held resident for
/// serving.
///
/// Two scoring entry points with different semantics:
///
/// * [`FrozenDetector::score_dataset`] replays the full in-process
///   pipeline over the (whole) reference-shaped dataset — per-bucket
///   z-scores, bit-identical to [`quorum_core::QuorumDetector::score`]
///   under the same configuration.
/// * [`FrozenDetector::score_samples`] scores **streamed** samples that
///   were never part of the reference set: each sample's deviations are
///   z-scored against the frozen pooled reference statistics, so every
///   sample is scored independently and coalescing requests into bigger
///   panels can never change any individual result.
pub struct FrozenDetector {
    config: QuorumConfig,
    normalizer: FrozenNormalizer,
    num_features: usize,
    reference_samples: usize,
    groups: Vec<EnsembleGroup>,
    stats: Vec<Vec<LevelStats>>,
    /// The engine the configuration picks. Stripping shots never changes
    /// what [`engine::resolve`] returns, so the streaming path scores
    /// through it too.
    engine: &'static dyn ScoringEngine,
    /// The same configuration with shot sampling stripped — the
    /// streaming path scores exactly, then re-applies the binomial draw
    /// per sample under its request-assigned id.
    exact_config: QuorumConfig,
    stream_shots: Option<u64>,
    /// Caught group-job panics, see [`FrozenDetector::group_panics`].
    group_panics: AtomicU64,
}

impl std::fmt::Debug for FrozenDetector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrozenDetector")
            .field("num_features", &self.num_features)
            .field("reference_samples", &self.reference_samples)
            .field("groups", &self.groups.len())
            .field("engine", &self.engine.name())
            .field("stream_shots", &self.stream_shots)
            .field("group_panics", &self.group_panics())
            .finish_non_exhaustive()
    }
}

impl FrozenDetector {
    /// Freezes a detector: fits the normaliser on `reference`, draws
    /// every ensemble group, fuses their encoders, and pools the
    /// per-(group, level) reference deviation statistics the streaming
    /// path z-scores against.
    ///
    /// # Errors
    ///
    /// Invalid configurations and unusable datasets surface as
    /// [`ServeError::Quorum`]; simulation failures propagate.
    pub fn freeze(config: QuorumConfig, reference: &Dataset) -> Result<Self, ServeError> {
        config.validate().map_err(ServeError::Quorum)?;
        if reference.num_samples() < 4 {
            return Err(ServeError::Quorum(QuorumError::InvalidData(
                "need at least 4 reference samples to form deviation statistics".into(),
            )));
        }
        if reference.num_features() == 0 {
            return Err(ServeError::Quorum(QuorumError::InvalidData(
                "reference dataset has no features".into(),
            )));
        }
        let unlabeled = reference.strip_labels();
        let normalizer = FrozenNormalizer::fit(config.normalization, &unlabeled)?;
        let normalized = normalizer.apply(&unlabeled);
        let rate = config.anomaly_rate_estimate.unwrap_or(0.05);
        let plan =
            BucketPlan::from_target(normalized.num_samples(), rate, config.bucket_probability);
        let engine = engine::resolve(&config);
        let levels = config.effective_compression_levels();
        let threads = config.effective_threads();
        let config_ref = &config;
        let levels_ref = &levels;
        // Flatten once; every group scores the same borrowed panel.
        let results = engine::with_panel(&normalized, |panel| {
            Ok(map_indexed(config.ensemble_groups, threads, move |g| {
                let group = EnsembleGroup::generate(g, config_ref, panel.num_features(), &plan);
                let per_level =
                    engine.deviations_all_levels_panel(&group, panel, config_ref, levels_ref)?;
                let group_stats = per_level
                    .iter()
                    .map(|devs| LevelStats {
                        mean: stats::mean(devs),
                        std: stats::population_std(devs),
                    })
                    .collect();
                // Fuse now so the frozen artifact carries the encoder and
                // a thawed server never pays the fusion at request time.
                group.fused_encoder()?;
                Ok::<_, QuorumError>((group, group_stats))
            }))
        })?;
        let mut groups = Vec::with_capacity(results.len());
        let mut frozen_stats = Vec::with_capacity(results.len());
        for result in results {
            let (group, group_stats) = result?;
            groups.push(group);
            frozen_stats.push(group_stats);
        }
        Self::assemble(
            config,
            normalizer,
            reference.num_features(),
            reference.num_samples(),
            groups,
            frozen_stats,
        )
    }

    /// Thaws an artifact back into a resident detector: reassembles every
    /// group from its stored draw, seats the stored fused encoders, and
    /// pre-warms the noisy per-(noise, level) caches so the first request
    /// pays no fusion or lowering.
    ///
    /// # Errors
    ///
    /// [`ServeError::Artifact`] for internally inconsistent artifacts;
    /// [`ServeError::Quorum`] for invalid configurations.
    pub fn thaw(artifact: FrozenArtifact) -> Result<Self, ServeError> {
        let FrozenArtifact {
            config,
            normalizer,
            num_features,
            reference_samples,
            groups: frozen_groups,
            stats: frozen_stats,
        } = artifact;
        config.validate().map_err(ServeError::Quorum)?;
        if frozen_groups.len() != config.ensemble_groups {
            return Err(ServeError::Artifact(format!(
                "artifact holds {} groups but the configuration expects {}",
                frozen_groups.len(),
                config.ensemble_groups
            )));
        }
        if frozen_stats.len() != frozen_groups.len() {
            return Err(ServeError::Artifact(
                "per-group statistics count does not match the group count".into(),
            ));
        }
        // `freeze` rejects zero-width data; a served panel needs a column.
        if num_features == 0 {
            return Err(ServeError::Artifact("artifact declares no features".into()));
        }
        if normalizer.num_features() != num_features {
            return Err(ServeError::Artifact(
                "normaliser width does not match the declared feature count".into(),
            ));
        }
        let levels = config.effective_compression_levels();
        if frozen_stats.iter().any(|s| s.len() != levels.len()) {
            return Err(ServeError::Artifact(format!(
                "statistics must cover all {} compression levels",
                levels.len()
            )));
        }
        let mut groups = Vec::with_capacity(frozen_groups.len());
        for frozen in frozen_groups {
            groups.push(thaw_group(
                frozen,
                &config,
                num_features,
                reference_samples,
            )?);
        }
        Self::assemble(
            config,
            normalizer,
            num_features,
            reference_samples,
            groups,
            frozen_stats,
        )
    }

    /// Serializes via [`FrozenDetector::to_artifact`].
    ///
    /// # Errors
    ///
    /// Propagates artifact-encoding failures.
    pub fn to_bytes(&self) -> Result<Vec<u8>, ServeError> {
        self.to_artifact()?.to_bytes()
    }

    /// Deserializes and thaws in one step.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FrozenArtifact::from_bytes`] and
    /// [`FrozenDetector::thaw`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ServeError> {
        Self::thaw(FrozenArtifact::from_bytes(bytes)?)
    }

    /// Extracts the plain-data artifact (fusing any encoder not yet
    /// fused).
    ///
    /// # Errors
    ///
    /// Propagates encoder-fusion failures (effectively infallible).
    pub fn to_artifact(&self) -> Result<FrozenArtifact, ServeError> {
        let mut frozen_groups = Vec::with_capacity(self.groups.len());
        for group in &self.groups {
            frozen_groups.push(FrozenGroup {
                index: group.index(),
                num_qubits: group.ansatz().num_qubits(),
                layers: group.ansatz().layers().to_vec(),
                feature_columns: group.features().columns().to_vec(),
                buckets: group.buckets().to_vec(),
                encoder: group.fused_encoder().map_err(ServeError::Quorum)?.clone(),
            });
        }
        Ok(FrozenArtifact {
            config: self.config.clone(),
            normalizer: self.normalizer.clone(),
            num_features: self.num_features,
            reference_samples: self.reference_samples,
            groups: frozen_groups,
            stats: self.stats.clone(),
        })
    }

    /// The configuration the detector was frozen under.
    pub fn config(&self) -> &QuorumConfig {
        &self.config
    }

    /// Feature width every scored row must match.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Number of samples in the frozen reference set.
    pub fn reference_samples(&self) -> usize {
        self.reference_samples
    }

    /// The resident ensemble groups (cache counters included — the
    /// pre-warming regression tests read their fusion counts).
    pub fn groups(&self) -> &[EnsembleGroup] {
        &self.groups
    }

    /// Scores a full reference-shaped dataset with the in-process
    /// semantics: per-bucket z-scores over the frozen bucket partitions.
    /// Bit-identical to [`quorum_core::QuorumDetector::score`] on the
    /// reference data under the frozen configuration.
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] when the dataset's shape does not match
    /// the frozen reference (buckets index reference positions);
    /// simulation failures propagate.
    pub fn score_dataset(&self, data: &Dataset) -> Result<ScoreReport, ServeError> {
        if data.num_samples() != self.reference_samples {
            return Err(ServeError::Request(format!(
                "bucket partitions index {} reference samples, got {}; use score_samples for streamed data",
                self.reference_samples,
                data.num_samples()
            )));
        }
        if data.num_features() != self.num_features {
            return Err(ServeError::Request(format!(
                "expected {} features, got {}",
                self.num_features,
                data.num_features()
            )));
        }
        let normalized = self.normalizer.apply(&data.strip_labels());
        let threads = self.config.effective_threads();
        // Flatten once; every group scores the same borrowed panel.
        let totals = engine::with_panel(&normalized, |panel| {
            let partials = map_indexed(self.groups.len(), threads, |g| {
                self.groups[g].run_with(self.engine, panel, &self.config)
            });
            let mut totals = vec![0.0; panel.num_samples()];
            for partial in partials {
                for (t, p) in totals.iter_mut().zip(partial?) {
                    *t += p;
                }
            }
            Ok(totals)
        })?;
        Ok(ScoreReport::new(
            data.name(),
            totals,
            self.groups.len(),
            self.config.effective_compression_levels(),
        ))
    }

    /// Scores streamed samples — the serving path. Rows are normalised by
    /// the **frozen** reference statistics, deviations are evaluated
    /// exactly (shots stripped) over the whole coalesced panel, shot
    /// sampling is re-applied per sample under its stable id
    /// `first_sample_id + position`, and each deviation is z-scored
    /// against the frozen pooled reference moments.
    ///
    /// On the dense noisy engine ([`engine::scores_from_triangles`]) the
    /// panel is prepared once for every group: a prep stage evolves all
    /// (group, row) columns as one lockstep panel in fixed column blocks
    /// over the worker pool ([`DensityEngine::prepare_triangles`]), and
    /// each group then scores its own slice of the prepared upper
    /// triangles. Every other engine prepares and scores inside its
    /// group's job, one engine pass per group.
    ///
    /// Every per-sample quantity depends only on the sample's row and its
    /// id — never on what else shares the panel, a prep block or a worker
    /// — so any coalescing of concurrent requests returns bit-identical
    /// scores to scoring each sample alone. The groups run as jobs on the
    /// resident worker pool and their partial vectors are summed in
    /// ascending group order, so the scores are also bit-identical for
    /// every thread count.
    ///
    /// The prep stage and each group's job run under `catch_unwind`. A
    /// stage that panics is counted in [`FrozenDetector::group_panics`]
    /// and re-run in place, up to [`GROUP_RETRIES`] times; its output
    /// depends only on the groups, the rows and the ids, so a retried
    /// stage scores exactly as an uninterrupted one.
    ///
    /// # Errors
    ///
    /// [`ServeError::Request`] for rows of the wrong width or with
    /// non-finite values; [`ServeError::Faulted`] when the prep stage or
    /// a group panics on every attempt; simulation failures propagate.
    /// When several groups fail, the lowest-indexed group's error is
    /// reported.
    pub fn score_samples(
        &self,
        rows: &[Vec<f64>],
        first_sample_id: u64,
    ) -> Result<Vec<f64>, ServeError> {
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        STREAM_PANEL.with(|cell| {
            let StreamScratch { panel, triangles } = &mut *cell.borrow_mut();
            self.normalize_rows_into(rows, panel)?;
            let levels = self.config.effective_compression_levels();
            let threads = self.config.effective_threads();
            let panel = panel.as_panel();
            let prepared = if engine::scores_from_triangles(&self.exact_config) {
                self.supervised(&"the prep stage", || self.prepare(&panel, triangles))?;
                Some(&*triangles)
            } else {
                None
            };
            let panel_ref = &panel;
            let levels_ref = &levels;
            let partials: Vec<Result<Vec<f64>, ServeError>> =
                map_indexed(self.groups.len(), threads, move |g| {
                    self.supervised(&format_args!("group {g}"), || {
                        self.group_scores(g, panel_ref, prepared, levels_ref, first_sample_id)
                    })
                });
            let mut totals = vec![0.0; rows.len()];
            for partial in partials {
                for (t, p) in totals.iter_mut().zip(partial?) {
                    *t += p;
                }
            }
            Ok(totals)
        })
    }

    /// Scoring attempts that panicked since this detector was built: a
    /// group's job, or the shared prep stage of a dense noisy panel. Each
    /// caught panic counts once, whether its retry succeeded or the stage
    /// ran out of attempts.
    pub fn group_panics(&self) -> u64 {
        self.group_panics.load(Ordering::Relaxed)
    }

    /// Validates streamed rows (width, finiteness) and applies the frozen
    /// normaliser directly into pooled flat storage. The per-element
    /// arithmetic is the normaliser's own `transform` (plus
    /// `absolute_features` for the range-max scheme) fused into the pack
    /// loop, so the result is bit-identical to materialising an
    /// intermediate [`Dataset`] while allocating nothing per batch in
    /// steady state. Error precedence and texts match the dataset-backed
    /// validation exactly.
    fn normalize_rows_into(
        &self,
        rows: &[Vec<f64>],
        panel: &mut NormalizedPanel,
    ) -> Result<(), ServeError> {
        if let Some(bad) = rows.iter().find(|r| r.len() != self.num_features) {
            return Err(ServeError::Request(format!(
                "expected {} features, got {}",
                self.num_features,
                bad.len()
            )));
        }
        if rows.is_empty() {
            return Err(ServeError::Request(format!(
                "unusable rows: {}",
                qdata::DataError::Empty
            )));
        }
        for (row, r) in rows.iter().enumerate() {
            for (col, &v) in r.iter().enumerate() {
                if !v.is_finite() {
                    return Err(ServeError::Request(format!(
                        "unusable rows: {}",
                        qdata::DataError::NonFiniteValue { row, col }
                    )));
                }
            }
        }
        let m = self.num_features as f64;
        let bound = 1.0 / m;
        panel.features = self.num_features;
        panel.data.clear();
        panel.data.reserve(rows.len() * self.num_features);
        match &self.normalizer {
            FrozenNormalizer::RangeMax(norm) => {
                let maxima = norm.maxima();
                for r in rows {
                    panel.data.extend(r.iter().zip(maxima).map(|(&v, &mx)| {
                        let t = if mx == 0.0 {
                            0.0
                        } else {
                            (v / (mx * m)).clamp(-bound, bound)
                        };
                        t.abs()
                    }));
                }
            }
            FrozenNormalizer::MinMax(norm) => {
                let mins = norm.mins();
                let ranges = norm.ranges();
                for r in rows {
                    panel.data.extend(r.iter().zip(mins.iter().zip(ranges)).map(
                        |(&v, (&lo, &range))| {
                            if range <= 0.0 {
                                0.0
                            } else {
                                ((v - lo) / (range * m)).clamp(0.0, bound)
                            }
                        },
                    ));
                }
            }
        }
        Ok(())
    }

    /// One stage of a panel — the prep stage, or a group's job — under
    /// `catch_unwind`, re-run in place after a panic up to
    /// [`GROUP_RETRIES`] times. Every caught panic bumps
    /// [`FrozenDetector::group_panics`]; a stage that panics on every
    /// attempt fails the panel with [`ServeError::Faulted`], naming the
    /// stage, the attempt count and the last panic's message.
    fn supervised<T>(
        &self,
        stage: &dyn Display,
        mut job: impl FnMut() -> Result<T, QuorumError>,
    ) -> Result<T, ServeError> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            match catch_unwind(AssertUnwindSafe(&mut job)) {
                Ok(result) => return result.map_err(ServeError::Quorum),
                Err(payload) => {
                    self.group_panics.fetch_add(1, Ordering::Relaxed);
                    if attempts > GROUP_RETRIES {
                        return Err(ServeError::Faulted(format!(
                            "{stage} panicked on all {attempts} attempts; last panic: {}",
                            panic_message(payload.as_ref())
                        )));
                    }
                }
            }
        }
    }

    /// The prep stage of a dense noisy panel: every (group, row) column's
    /// upper triangle, group `g`'s rows at columns `g·S..(g+1)·S`.
    ///
    /// The `"frozen::prep"` failpoint fires here, once per attempt: a
    /// panic or a delay.
    fn prepare(
        &self,
        panel: &SamplePanel<'_>,
        triangles: &mut TrianglePanel,
    ) -> Result<(), QuorumError> {
        #[cfg(any(test, feature = "failpoints"))]
        crate::fault::act("frozen::prep");
        DensityEngine::prepare_triangles(&self.groups, panel, &self.exact_config, triangles)
    }

    /// One group's additive streamed-score contribution. The engine only
    /// evaluates the exact deviations — from the group's slice of the
    /// `prepared` triangles when the prep stage ran, otherwise in one
    /// engine pass over the panel; shot sampling and z-scoring run off
    /// the frozen configuration and statistics.
    ///
    /// The `"frozen::group"` failpoint fires here, once per attempt: a
    /// panic, a delay, or poisoned per-group derived caches (which the
    /// byte-bounded caches must absorb).
    fn group_scores(
        &self,
        g: usize,
        panel: &SamplePanel<'_>,
        prepared: Option<&TrianglePanel>,
        levels: &[usize],
        first_sample_id: u64,
    ) -> Result<Vec<f64>, QuorumError> {
        #[cfg(any(test, feature = "failpoints"))]
        match crate::fault::check("frozen::group") {
            Some(crate::fault::FaultAction::Panic) => {
                panic!("failpoint \"frozen::group\" injected a panic")
            }
            Some(crate::fault::FaultAction::Delay(d)) => std::thread::sleep(d),
            Some(crate::fault::FaultAction::PoisonCaches) => {
                // The poison hooks live behind core's `failpoints`
                // feature, which serve's forwards to.
                #[cfg(feature = "failpoints")]
                self.groups[g].poison_derived_caches();
            }
            _ => {}
        }
        let group = &self.groups[g];
        let samples = panel.num_samples();
        let per_level = match prepared {
            Some(triangles) => DensityEngine::score_triangles(
                group,
                triangles,
                g * samples..(g + 1) * samples,
                &self.exact_config,
                levels,
            )?,
            None => {
                self.engine
                    .deviations_all_levels_panel(group, panel, &self.exact_config, levels)?
            }
        };
        let mut out = vec![0.0; samples];
        for ((deviations, &level), level_stats) in per_level.iter().zip(levels).zip(&self.stats[g])
        {
            for (j, &exact) in deviations.iter().enumerate() {
                let deviation = match self.stream_shots {
                    Some(shots) => {
                        let id = (first_sample_id.wrapping_add(j as u64) & SAMPLE_ID_MASK) as usize;
                        let seed = shot_seed(&self.config, group.index(), level, id);
                        sampled_deviation(exact, shots, seed)
                    }
                    None => exact,
                };
                out[j] += stats::zscore(deviation, level_stats.mean, level_stats.std).abs();
            }
        }
        Ok(out)
    }

    /// Shared tail of freeze and thaw: resolves the engine, derives the
    /// shot-stripped streaming configuration and pre-warms the noisy
    /// caches.
    fn assemble(
        config: QuorumConfig,
        normalizer: FrozenNormalizer,
        num_features: usize,
        reference_samples: usize,
        groups: Vec<EnsembleGroup>,
        stats: Vec<Vec<LevelStats>>,
    ) -> Result<Self, ServeError> {
        let engine = engine::resolve(&config);
        let (stripped_execution, stream_shots) = match &config.execution {
            ExecutionMode::Exact => (ExecutionMode::Exact, None),
            ExecutionMode::Sampled { shots } => (ExecutionMode::Exact, Some(*shots)),
            ExecutionMode::Noisy { noise, shots } => (
                ExecutionMode::Noisy {
                    noise: noise.clone(),
                    shots: None,
                },
                *shots,
            ),
            other => {
                return Err(ServeError::Artifact(format!(
                    "execution mode {other:?} is not servable by this version"
                )))
            }
        };
        let exact_config = config.clone().with_execution(stripped_execution);
        let detector = FrozenDetector {
            config,
            normalizer,
            num_features,
            reference_samples,
            groups,
            stats,
            engine,
            exact_config,
            stream_shots,
            group_panics: AtomicU64::new(0),
        };
        detector.prewarm()?;
        Ok(detector)
    }

    /// Builds every per-(group, level) object the engine will need
    /// ([`engine::prewarm`]), so a thawed server's first request hits
    /// only warm caches. The builds fan out over the worker pool: each is
    /// deterministic and runs outside its cache's lock, so the warmed
    /// entries do not depend on the schedule.
    fn prewarm(&self) -> Result<(), ServeError> {
        let levels = self.config.effective_compression_levels();
        let builds = map_indexed(
            self.groups.len() * levels.len(),
            self.config.effective_threads(),
            |i| {
                let group = &self.groups[i / levels.len()];
                engine::prewarm(group, &self.config, levels[i % levels.len()])
            },
        );
        builds
            .into_iter()
            .collect::<Result<(), _>>()
            .map_err(ServeError::Quorum)
    }
}

/// The message a caught panic carried: its `&str` or `String` payload,
/// or a placeholder for any other payload type.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Validates and reassembles one frozen group.
fn thaw_group(
    frozen: FrozenGroup,
    config: &QuorumConfig,
    num_features: usize,
    reference_samples: usize,
) -> Result<EnsembleGroup, ServeError> {
    if frozen.num_qubits != config.data_qubits {
        return Err(ServeError::Artifact(format!(
            "group {} was drawn for {} data qubits, configuration says {}",
            frozen.index, frozen.num_qubits, config.data_qubits
        )));
    }
    if frozen.layers.len() != config.ansatz_layers {
        return Err(ServeError::Artifact(format!(
            "group {} has {} ansatz layers, configuration says {}",
            frozen.index,
            frozen.layers.len(),
            config.ansatz_layers
        )));
    }
    // Groups select every column of a dataset narrower than a circuit.
    let expected_columns = config.features_per_circuit().min(num_features);
    if frozen.feature_columns.len() != expected_columns {
        return Err(ServeError::Artifact(format!(
            "group {} selects {} feature columns, expected {expected_columns}",
            frozen.index,
            frozen.feature_columns.len(),
        )));
    }
    for (i, &c) in frozen.feature_columns.iter().enumerate() {
        if c >= num_features || frozen.feature_columns[..i].contains(&c) {
            return Err(ServeError::Artifact(format!(
                "group {} has an out-of-range or duplicate feature column {c}",
                frozen.index
            )));
        }
    }
    if frozen
        .buckets
        .iter()
        .flatten()
        .any(|&i| i >= reference_samples)
    {
        return Err(ServeError::Artifact(format!(
            "group {} has a bucket index beyond the {} reference samples",
            frozen.index, reference_samples
        )));
    }
    let ansatz = AnsatzParams::from_layers(frozen.num_qubits, frozen.layers);
    let features = FeatureSelection::from_columns(frozen.feature_columns);
    let group = EnsembleGroup::from_parts(frozen.index, ansatz, features, frozen.buckets);
    group.prime_fused_encoder(frozen.encoder);
    Ok(group)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_message_keeps_str_and_string_payloads() {
        let payload = catch_unwind(|| panic!("static text")).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "static text");
        let payload = catch_unwind(|| panic!("formatted {}", 7)).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "formatted 7");
        let payload = catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert_eq!(panic_message(payload.as_ref()), "non-string panic payload");
    }
}
