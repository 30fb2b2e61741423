//! Ensemble groups: one complete randomized pass of Quorum over the
//! dataset (paper §IV-E).
//!
//! A group owns a fresh bucket partition, feature subset and ansatz draw.
//! It evaluates every sample's SWAP-test deviation at every compression
//! level and converts them to per-bucket absolute z-scores. Groups are
//! independent — the detector fans them out across threads.

use crate::ansatz::AnsatzParams;
use crate::bucket::BucketPlan;
use crate::cache::ByteBounded;
use crate::config::QuorumConfig;
use crate::engine::{self, ReadoutForm, ScoringEngine};
use crate::error::QuorumError;
use crate::features::FeatureSelection;
use qdata::SamplePanel;
use qmetrics::stats;
use qsim::channel::ChannelProgram;
use qsim::matrix::CMatrix;
use qsim::NoiseModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// SplitMix64: deterministic per-index seed derivation from a master seed.
pub(crate) fn derive_seed(master: u64, index: u64) -> u64 {
    let mut z = master ^ index.wrapping_mul(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Lazily fused encoder unitary, computed at most once per group and
/// shared by every compression level (and engine) that scores the group.
/// The fusion counter backs the cache regression tests.
#[derive(Debug, Default)]
struct EncoderCache {
    fused: OnceLock<CMatrix>,
    fusions: AtomicUsize,
}

impl Clone for EncoderCache {
    /// Clones start cold: the cache is derived state, and sharing it would
    /// entangle otherwise independent group copies.
    fn clone(&self) -> Self {
        EncoderCache::default()
    }
}

/// Bytes one group's superoperator cache may retain. Every level of
/// the supported widths up to `n = 5` fits (a `4^n × 4^n` entry is
/// ~1 MiB at n = 4, ~16 MiB at n = 5); the n = 6 extreme (~268 MiB
/// per entry) is rebuilt per scoring pass instead of pinned, which
/// keeps a wide multi-group ensemble from retaining hundreds of
/// gigabytes.
const NOISY_SUPEROP_CACHE_BYTES: usize = 64 << 20;

/// Bytes one group's readout-form cache may retain. A form is
/// `m(m+1)/2` reals for `m = 2^n(2^n+1)/2` — 5 KiB at n = 3, ~73 KiB at
/// n = 4, ~1.1 MiB at n = 5 — so every level of every width up to n = 5
/// fits many times over; at the n = 6 extreme (~17 MiB per form) three
/// levels stay resident and the rest are rebuilt.
const READOUT_FORM_CACHE_BYTES: usize = 64 << 20;

/// Bytes one group's program cache may retain — programs are a
/// few KiB, so this holds hundreds of `(model, level)` pairs.
const CHANNEL_PROGRAM_CACHE_BYTES: usize = 1 << 20;

/// One randomized ensemble group: buckets, feature subset and ansatz.
///
/// The four per-group caches — the fused encoder, the dense engine's
/// readout forms, the fused noisy superoperators (the per-sample
/// oracle's) and the lowered channel programs — live on the group
/// itself, so a **resident** group (the serving runtime keeps thawed
/// groups alive for the process lifetime) amortises every fusion across
/// all requests that score through it. The three keyed caches share one
/// poison-recovering, oldest-first-evicting byte-bounded store.
#[derive(Debug, Clone)]
pub struct EnsembleGroup {
    index: usize,
    ansatz: AnsatzParams,
    features: FeatureSelection,
    buckets: Vec<Vec<usize>>,
    encoder_cache: EncoderCache,
    readout_form_cache: ByteBounded<(NoiseModel, usize), ReadoutForm>,
    noisy_superop_cache: ByteBounded<(NoiseModel, usize), CMatrix>,
    channel_program_cache: ByteBounded<(NoiseModel, usize), ChannelProgram>,
}

impl EnsembleGroup {
    /// Draws the group's random state deterministically from the config's
    /// master seed and the group index.
    pub fn generate(
        index: usize,
        config: &QuorumConfig,
        num_features: usize,
        plan: &BucketPlan,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(derive_seed(config.seed, index as u64));
        let buckets = plan.assign(&mut rng);
        let features =
            FeatureSelection::random(num_features, config.features_per_circuit(), &mut rng);
        let ansatz = AnsatzParams::random(config.data_qubits, config.ansatz_layers, &mut rng);
        Self::from_parts(index, ansatz, features, buckets)
    }

    /// Reassembles a group from explicitly given parts — the thaw half
    /// of the serving runtime's freeze/thaw round trip, and the seam for
    /// any caller that stores a group's random draw externally instead
    /// of re-deriving it from a seed. All caches start cold;
    /// [`EnsembleGroup::prime_fused_encoder`] can re-seat a stored
    /// encoder without paying (or counting) a fusion.
    pub fn from_parts(
        index: usize,
        ansatz: AnsatzParams,
        features: FeatureSelection,
        buckets: Vec<Vec<usize>>,
    ) -> Self {
        EnsembleGroup {
            index,
            ansatz,
            features,
            buckets,
            encoder_cache: EncoderCache::default(),
            readout_form_cache: ByteBounded::new(),
            noisy_superop_cache: ByteBounded::new(),
            channel_program_cache: ByteBounded::new(),
        }
    }

    /// The group index within the ensemble.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The group's bucket partition (sample indices).
    pub fn buckets(&self) -> &[Vec<usize>] {
        &self.buckets
    }

    /// The group's feature subset.
    pub fn features(&self) -> &FeatureSelection {
        &self.features
    }

    /// The group's random ansatz.
    pub fn ansatz(&self) -> &AnsatzParams {
        &self.ansatz
    }

    /// The group's encoder circuit fused into a dense `2^n × 2^n` unitary,
    /// computed on first use and cached for the group's lifetime — every
    /// compression level of a scoring pass reuses the same matrix instead
    /// of re-fusing per reset count.
    ///
    /// # Errors
    ///
    /// Propagates [`qsim::circuit::Circuit::to_unitary`] failures (the
    /// encoder is purely unitary, so this is effectively infallible).
    pub fn fused_encoder(&self) -> Result<&CMatrix, QuorumError> {
        if let Some(u) = self.encoder_cache.fused.get() {
            return Ok(u);
        }
        let u = self.ansatz.encoder().to_unitary()?;
        self.encoder_cache.fusions.fetch_add(1, Ordering::Relaxed);
        // Under a (harmless) race the first writer wins; both fused the
        // same deterministic matrix.
        let _ = self.encoder_cache.fused.set(u);
        Ok(self
            .encoder_cache
            .fused
            .get()
            .expect("cache was just populated"))
    }

    /// How many times this group actually fused its encoder circuit — the
    /// observable behind the unitary-cache regression tests. Stays at most
    /// 1 for any sequential scoring pass.
    pub fn encoder_fusions(&self) -> usize {
        self.encoder_cache.fusions.load(Ordering::Relaxed)
    }

    /// Seats an externally stored fused encoder (e.g. one thawed from a
    /// frozen serving artifact) without paying or counting a fusion.
    /// No-op when the cache is already populated; the caller is
    /// responsible for the matrix actually being this group's encoder
    /// (the serving artifact's checksum guards the stored copy).
    pub fn prime_fused_encoder(&self, encoder: CMatrix) {
        let _ = self.encoder_cache.fused.set(encoder);
    }

    /// The dense density engine's [`ReadoutForm`] for this group at one
    /// `(noise model, compression level)`: the noisy segment and the
    /// SWAP-test readout folded into one real quadratic form over the
    /// upper triangle of a prepared state, built at most once per pair
    /// and cached for the group's lifetime — a noisy scoring pass then
    /// costs one dot product per (sample, level). The build lowers the
    /// level's channel program, walks it over the fold's columns and
    /// drops it, and reads the process-wide SWAP-test image; it goes
    /// through (and counts in) neither the program cache nor the
    /// superoperator cache.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::engine`] construction failures (effectively
    /// infallible for valid ansätze).
    pub fn readout_form(
        &self,
        noise: &NoiseModel,
        reset_count: usize,
    ) -> Result<Arc<ReadoutForm>, QuorumError> {
        self.readout_form_bounded(noise, reset_count, READOUT_FORM_CACHE_BYTES)
    }

    /// [`EnsembleGroup::readout_form`] with an explicit byte budget (the
    /// eviction-test seam). Like the other keyed caches, the build runs
    /// **outside** the cache lock — racing duplicates are counted and the
    /// first insert wins — and an overflowing insert evicts oldest-first.
    pub(crate) fn readout_form_bounded(
        &self,
        noise: &NoiseModel,
        reset_count: usize,
        budget: usize,
    ) -> Result<Arc<ReadoutForm>, QuorumError> {
        self.readout_form_cache.get_or_try_build(
            &(noise.clone(), reset_count),
            budget,
            ReadoutForm::approx_bytes,
            || engine::build_readout_form(&self.ansatz, noise, reset_count),
        )
    }

    /// How many readout forms this group actually built — the observable
    /// behind the dense engine's cache regression tests. Stays at the
    /// number of distinct `(noise model, compression level)` pairs scored,
    /// however many samples and passes ran; racing builders each count.
    pub fn readout_form_builds(&self) -> usize {
        self.readout_form_cache.builds()
    }

    /// The group's bottlenecked autoencoder segment (encoder, `reset_count`
    /// resets, decoder) fused into a `4^n × 4^n` noisy superoperator over
    /// `vec(ρ)`, built at most once per `(noise model, compression level)`
    /// and cached for the group's lifetime. It is the per-sample oracle's
    /// object ([`crate::engine::SampleDensityEngine`] applies it to every
    /// sample's `vec(ρ)` as a matvec) and the operand of the repository
    /// benchmark's 64×64 GEMM probe; no production scoring path builds it.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::engine`] superoperator-construction failures
    /// (effectively infallible for valid ansätze).
    pub fn fused_noisy_superop(
        &self,
        noise: &NoiseModel,
        reset_count: usize,
    ) -> Result<Arc<CMatrix>, QuorumError> {
        self.fused_noisy_superop_bounded(noise, reset_count, NOISY_SUPEROP_CACHE_BYTES)
    }

    /// [`EnsembleGroup::fused_noisy_superop`] with an explicit byte
    /// budget, so the eviction-policy regression tests can overflow the
    /// cache without building gigabytes of superoperators. The fusion
    /// happens **outside** the cache lock — concurrent scorers of the
    /// same group never serialise behind a multi-ms build (racing
    /// duplicates are counted and the first insert wins) — and an
    /// overflowing insert evicts oldest-first, never the hot entries.
    pub(crate) fn fused_noisy_superop_bounded(
        &self,
        noise: &NoiseModel,
        reset_count: usize,
        budget: usize,
    ) -> Result<Arc<CMatrix>, QuorumError> {
        let superop_bytes = |m: &CMatrix| m.rows() * m.cols() * std::mem::size_of::<qsim::C64>();
        self.noisy_superop_cache.get_or_try_build(
            &(noise.clone(), reset_count),
            budget,
            superop_bytes,
            || engine::build_noisy_superop(&self.ansatz, noise, reset_count),
        )
    }

    /// The group's bottlenecked autoencoder segment lowered into a
    /// structured per-gate [`ChannelProgram`], built at most once per
    /// `(noise model, compression level)` and cached for the group's
    /// lifetime — the structured density engine's `O(gates)` analogue of
    /// [`EnsembleGroup::fused_noisy_superop`], applied op by op over the
    /// whole packed panel instead of as one `16^n` GEMM.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::engine`] lowering failures (effectively
    /// infallible for valid ansätze).
    pub fn channel_program(
        &self,
        noise: &NoiseModel,
        reset_count: usize,
    ) -> Result<Arc<ChannelProgram>, QuorumError> {
        self.channel_program_bounded(noise, reset_count, CHANNEL_PROGRAM_CACHE_BYTES)
    }

    /// [`EnsembleGroup::channel_program`] with an explicit byte budget
    /// (the eviction-test seam). The lowering runs **outside** the cache
    /// lock: a multi-ms build must not serialise the other scorer
    /// threads of a long-lived server behind the mutex — racing builders
    /// duplicate the work (each counted) and the first insert wins.
    pub(crate) fn channel_program_bounded(
        &self,
        noise: &NoiseModel,
        reset_count: usize,
        budget: usize,
    ) -> Result<Arc<ChannelProgram>, QuorumError> {
        self.channel_program_cache.get_or_try_build(
            &(noise.clone(), reset_count),
            budget,
            ChannelProgram::approx_bytes,
            || engine::build_channel_program(&self.ansatz, noise, reset_count),
        )
    }

    /// How many channel programs this group actually lowered — the
    /// observable behind the structured engine's cache regression tests,
    /// mirroring [`EnsembleGroup::noisy_superop_fusions`]. Sequential
    /// passes count exactly the distinct live `(noise model, level)`
    /// pairs; racing scorers may briefly duplicate a lowering (built
    /// outside the lock) and every duplicate is counted.
    pub fn channel_program_fusions(&self) -> usize {
        self.channel_program_cache.builds()
    }

    /// How many noisy superoperators this group fused into its
    /// superoperator cache — the observable behind the per-sample density
    /// oracle's cache regression tests (readout-form builds fuse none and
    /// are counted by [`EnsembleGroup::readout_form_builds`]). Stays at
    /// the number of distinct `(noise model, compression level)` pairs
    /// scored —
    /// however many samples and passes ran — as long as the entries fit
    /// the cache's byte bound (always true at the paper's widths; only the
    /// n = 6 extreme re-fuses per pass). Like
    /// [`EnsembleGroup::channel_program_fusions`], racing builders each
    /// count.
    pub fn noisy_superop_fusions(&self) -> usize {
        self.noisy_superop_cache.builds()
    }

    /// Deliberately poisons every keyed derived-object cache by
    /// panicking threads that hold their mutexes — the chaos-suite
    /// fault-injection hook. Scoring through a poisoned cache must keep
    /// working (guards are recovered via `PoisonError::into_inner`), so
    /// this models a scorer thread that crashed while holding a cache
    /// lock, not data corruption: entries are write-once-valid.
    #[cfg(any(test, feature = "failpoints"))]
    pub fn poison_derived_caches(&self) {
        self.readout_form_cache.poison_for_test();
        self.noisy_superop_cache.poison_for_test();
        self.channel_program_cache.poison_for_test();
    }

    /// Runs the full group with an explicitly chosen engine: all
    /// compression levels, bucket statistics, and absolute z-score
    /// accumulation. Returns this group's additive contribution to every
    /// sample's anomaly score (Fig. 7). Callers resolve the engine and
    /// flatten the normalised dataset once per pass, then share both
    /// across every group.
    ///
    /// # Errors
    ///
    /// Propagates embedding and simulation failures.
    pub fn run_with(
        &self,
        engine: &dyn ScoringEngine,
        panel: &SamplePanel<'_>,
        config: &QuorumConfig,
    ) -> Result<Vec<f64>, QuorumError> {
        let mut scores = vec![0.0; panel.num_samples()];
        // One engine call for the whole level sweep lets batched engines
        // amortise packing and the encoder product across levels.
        let levels = config.effective_compression_levels();
        let per_level = engine.deviations_all_levels_panel(self, panel, config, &levels)?;
        let mut values = Vec::new();
        for deviations in &per_level {
            for bucket in &self.buckets {
                values.clear();
                values.extend(bucket.iter().map(|&i| deviations[i]));
                let mu = stats::mean(&values);
                let sigma = stats::population_std(&values);
                for &i in bucket {
                    scores[i] += stats::zscore(deviations[i], mu, sigma).abs();
                }
            }
        }
        Ok(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecutionMode;
    use qdata::Dataset;

    fn tiny_dataset() -> Dataset {
        // 12 samples, 7 features, already in the normalised range
        // [0, 1/7]; sample 11 is a gross outlier direction.
        let mut rows = Vec::new();
        for i in 0..11 {
            let base = 0.06 + 0.002 * (i as f64);
            rows.push(vec![
                base,
                base * 0.9,
                base * 1.1,
                base,
                base * 0.95,
                base,
                base * 1.05,
            ]);
        }
        rows.push(vec![0.14, 0.0, 0.14, 0.0, 0.14, 0.0, 0.14]);
        Dataset::from_rows("tiny", rows, None).unwrap()
    }

    fn config() -> QuorumConfig {
        QuorumConfig::default()
            .with_ensemble_groups(4)
            .with_anomaly_rate_estimate(0.1)
            .with_seed(11)
    }

    /// A full group pass over `ds` through `engine`.
    fn run_with(
        group: &EnsembleGroup,
        engine: &dyn ScoringEngine,
        ds: &Dataset,
        cfg: &QuorumConfig,
    ) -> Vec<f64> {
        engine::with_panel(ds, |panel| group.run_with(engine, panel, cfg)).unwrap()
    }

    /// A full group pass over `ds` through the configured engine.
    fn run(group: &EnsembleGroup, ds: &Dataset, cfg: &QuorumConfig) -> Vec<f64> {
        run_with(group, engine::resolve(cfg), ds, cfg)
    }

    #[test]
    fn generation_is_deterministic_per_index() {
        let ds = tiny_dataset();
        let cfg = config();
        let plan = BucketPlan::from_target(ds.num_samples(), 0.1, cfg.bucket_probability);
        let a = EnsembleGroup::generate(3, &cfg, ds.num_features(), &plan);
        let b = EnsembleGroup::generate(3, &cfg, ds.num_features(), &plan);
        assert_eq!(a.buckets(), b.buckets());
        assert_eq!(a.features(), b.features());
        assert_eq!(a.ansatz(), b.ansatz());
        let c = EnsembleGroup::generate(4, &cfg, ds.num_features(), &plan);
        assert_ne!(a.buckets(), c.buckets());
    }

    #[test]
    fn deviations_are_valid_probabilities() {
        let ds = tiny_dataset();
        let cfg = config();
        let plan = BucketPlan::from_target(ds.num_samples(), 0.1, cfg.bucket_probability);
        let group = EnsembleGroup::generate(0, &cfg, ds.num_features(), &plan);
        let dev = engine::resolve(&cfg)
            .deviations(&group, &ds, &cfg, 1)
            .unwrap();
        assert_eq!(dev.len(), ds.num_samples());
        for &p in &dev {
            assert!((0.0..=0.5 + 1e-9).contains(&p), "deviation {p}");
        }
    }

    #[test]
    fn group_scores_are_nonnegative_and_finite() {
        let ds = tiny_dataset();
        let cfg = config();
        let plan = BucketPlan::from_target(ds.num_samples(), 0.1, cfg.bucket_probability);
        let group = EnsembleGroup::generate(1, &cfg, ds.num_features(), &plan);
        let scores = run(&group, &ds, &cfg);
        assert_eq!(scores.len(), ds.num_samples());
        for &s in &scores {
            assert!(s.is_finite() && s >= 0.0);
        }
        // Somebody must deviate from the bucket mean.
        assert!(scores.iter().any(|&s| s > 0.0));
    }

    #[test]
    fn sampled_mode_approaches_exact_with_many_shots() {
        let ds = tiny_dataset();
        let cfg_exact = config();
        let cfg_shots = config().with_execution(ExecutionMode::Sampled { shots: 60_000 });
        let plan = BucketPlan::from_target(ds.num_samples(), 0.1, 0.75);
        let group = EnsembleGroup::generate(0, &cfg_exact, ds.num_features(), &plan);
        let exact = engine::resolve(&cfg_exact)
            .deviations(&group, &ds, &cfg_exact, 1)
            .unwrap();
        let sampled = engine::resolve(&cfg_shots)
            .deviations(&group, &ds, &cfg_shots, 1)
            .unwrap();
        for (e, s) in exact.iter().zip(&sampled) {
            assert!((e - s).abs() < 0.02, "exact {e} vs sampled {s}");
        }
    }

    #[test]
    fn sampled_mode_is_seed_deterministic() {
        let ds = tiny_dataset();
        let cfg = config().with_execution(ExecutionMode::Sampled { shots: 256 });
        let plan = BucketPlan::from_target(ds.num_samples(), 0.1, 0.75);
        let group = EnsembleGroup::generate(2, &cfg, ds.num_features(), &plan);
        let a = engine::resolve(&cfg)
            .deviations(&group, &ds, &cfg, 1)
            .unwrap();
        let b = engine::resolve(&cfg)
            .deviations(&group, &ds, &cfg, 1)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fused_encoder_is_cached_and_correct() {
        let ds = tiny_dataset();
        let cfg = config();
        let plan = BucketPlan::from_target(ds.num_samples(), 0.1, cfg.bucket_probability);
        let group = EnsembleGroup::generate(0, &cfg, ds.num_features(), &plan);
        assert_eq!(group.encoder_fusions(), 0);
        let direct = group.ansatz().encoder().to_unitary().unwrap();
        let cached = group.fused_encoder().unwrap().clone();
        assert!(cached.approx_eq(&direct, 1e-12));
        // Repeated access hits the cache instead of re-fusing.
        let again = group.fused_encoder().unwrap();
        assert!(again.approx_eq(&direct, 1e-12));
        assert_eq!(group.encoder_fusions(), 1);
    }

    #[test]
    fn from_parts_reassembles_an_identical_group() {
        let ds = tiny_dataset();
        let cfg = config();
        let plan = BucketPlan::from_target(ds.num_samples(), 0.1, cfg.bucket_probability);
        let generated = EnsembleGroup::generate(2, &cfg, ds.num_features(), &plan);
        let rebuilt = EnsembleGroup::from_parts(
            generated.index(),
            generated.ansatz().clone(),
            generated.features().clone(),
            generated.buckets().to_vec(),
        );
        assert_eq!(rebuilt.index(), generated.index());
        assert_eq!(rebuilt.encoder_fusions(), 0);
        let a = run(&generated, &ds, &cfg);
        let b = run(&rebuilt, &ds, &cfg);
        assert_eq!(a, b, "a reassembled group must score bit-identically");
    }

    #[test]
    fn primed_encoder_is_used_without_a_fusion() {
        let ds = tiny_dataset();
        let cfg = config();
        let plan = BucketPlan::from_target(ds.num_samples(), 0.1, cfg.bucket_probability);
        let group = EnsembleGroup::generate(0, &cfg, ds.num_features(), &plan);
        let encoder = group.ansatz().encoder().to_unitary().unwrap();
        group.prime_fused_encoder(encoder.clone());
        let cached = group.fused_encoder().unwrap();
        assert!(
            cached.approx_eq(&encoder, 0.0),
            "the primed matrix is served"
        );
        assert_eq!(
            group.encoder_fusions(),
            0,
            "priming must not count a fusion"
        );
    }

    #[test]
    fn scoring_survives_poisoned_group_caches() {
        // The long-lived-server regression: a scorer thread that panics
        // while holding a cache mutex must not wedge every later request
        // on that group. Poison every keyed cache, then score again and
        // expect identical results.
        let ds = tiny_dataset();
        let noise = NoiseModel::brisbane();
        let cfg = config().with_execution(crate::config::ExecutionMode::Noisy {
            noise: noise.clone(),
            shots: None,
        });
        let plan = BucketPlan::from_target(ds.num_samples(), 0.1, cfg.bucket_probability);
        let group = EnsembleGroup::generate(1, &cfg, ds.num_features(), &plan);
        let before_dense = run_with(&group, &engine::DensityEngine, &ds, &cfg);
        let before_structured = run_with(&group, &engine::StructuredDensityEngine, &ds, &cfg);
        group.poison_derived_caches();
        let after_dense = run_with(&group, &engine::DensityEngine, &ds, &cfg);
        let after_structured = run_with(&group, &engine::StructuredDensityEngine, &ds, &cfg);
        assert_eq!(before_dense, after_dense);
        assert_eq!(before_structured, after_structured);
        // The pre-poison entries survived: no rebuild was needed, and
        // neither engine touched the per-sample oracle's superoperators.
        let levels = cfg.effective_compression_levels().len();
        assert_eq!(group.readout_form_builds(), levels);
        assert_eq!(group.channel_program_fusions(), levels);
        assert_eq!(group.noisy_superop_fusions(), 0);
    }

    #[test]
    fn superop_overflow_evicts_oldest_and_spares_the_hot_entry() {
        // The eviction-policy pin: an n = 3 superoperator is
        // 64·64·16 B = 64 KiB, so a 150 KB budget holds two entries.
        // Fill with (brisbane, 1) and (brisbane, 2), touch level 1 to
        // make it hot, then overflow with a third model: level 2 (the
        // oldest) must be the only casualty.
        let ds = tiny_dataset();
        let cfg = config();
        let plan = BucketPlan::from_target(ds.num_samples(), 0.1, cfg.bucket_probability);
        let group = EnsembleGroup::generate(0, &cfg, ds.num_features(), &plan);
        let budget = 150_000;
        let brisbane = NoiseModel::brisbane();
        let scaled = NoiseModel::brisbane().scaled(2.0);
        group
            .fused_noisy_superop_bounded(&brisbane, 1, budget)
            .unwrap();
        group
            .fused_noisy_superop_bounded(&brisbane, 2, budget)
            .unwrap();
        assert_eq!(group.noisy_superop_fusions(), 2);
        group
            .fused_noisy_superop_bounded(&brisbane, 1, budget)
            .unwrap();
        group
            .fused_noisy_superop_bounded(&scaled, 1, budget)
            .unwrap();
        assert_eq!(group.noisy_superop_fusions(), 3);
        group
            .fused_noisy_superop_bounded(&brisbane, 1, budget)
            .unwrap();
        assert_eq!(
            group.noisy_superop_fusions(),
            3,
            "the hot (brisbane, 1) entry must survive the overflow insert"
        );
        group
            .fused_noisy_superop_bounded(&brisbane, 2, budget)
            .unwrap();
        assert_eq!(
            group.noisy_superop_fusions(),
            4,
            "the oldest (brisbane, 2) entry is the one evicted"
        );
    }

    #[test]
    fn readout_form_overflow_evicts_oldest_and_spares_the_hot_entry() {
        // Same pin for the readout-form cache, with the budget derived
        // from a measured form size (every n = 3 form is the same size).
        let ds = tiny_dataset();
        let cfg = config();
        let plan = BucketPlan::from_target(ds.num_samples(), 0.1, cfg.bucket_probability);
        let group = EnsembleGroup::generate(0, &cfg, ds.num_features(), &plan);
        let brisbane = NoiseModel::brisbane();
        let scaled = NoiseModel::brisbane().scaled(2.0);
        let probe = group.readout_form(&brisbane, 1).unwrap();
        // Room for two form-sized entries, not three.
        let budget = probe.approx_bytes() * 5 / 2;
        let fresh = group.clone();
        fresh.readout_form_bounded(&brisbane, 1, budget).unwrap();
        fresh.readout_form_bounded(&brisbane, 2, budget).unwrap();
        fresh.readout_form_bounded(&brisbane, 1, budget).unwrap();
        fresh.readout_form_bounded(&scaled, 1, budget).unwrap();
        assert_eq!(fresh.readout_form_builds(), 3);
        fresh.readout_form_bounded(&brisbane, 1, budget).unwrap();
        assert_eq!(fresh.readout_form_builds(), 3, "hot entry survived");
        fresh.readout_form_bounded(&brisbane, 2, budget).unwrap();
        assert_eq!(fresh.readout_form_builds(), 4, "oldest entry evicted");
    }

    #[test]
    fn program_overflow_evicts_oldest_and_spares_the_hot_entry() {
        // Same pin for the channel-program cache, with the budget
        // derived from a measured program size.
        let ds = tiny_dataset();
        let cfg = config();
        let plan = BucketPlan::from_target(ds.num_samples(), 0.1, cfg.bucket_probability);
        let group = EnsembleGroup::generate(0, &cfg, ds.num_features(), &plan);
        let brisbane = NoiseModel::brisbane();
        let scaled = NoiseModel::brisbane().scaled(2.0);
        let probe = group.channel_program(&brisbane, 1).unwrap();
        // Room for two program-sized entries, not three.
        let budget = probe.approx_bytes() * 5 / 2;
        let fresh = group.clone();
        fresh.channel_program_bounded(&brisbane, 1, budget).unwrap();
        fresh.channel_program_bounded(&brisbane, 2, budget).unwrap();
        fresh.channel_program_bounded(&brisbane, 1, budget).unwrap();
        fresh.channel_program_bounded(&scaled, 1, budget).unwrap();
        assert_eq!(fresh.channel_program_fusions(), 3);
        fresh.channel_program_bounded(&brisbane, 1, budget).unwrap();
        assert_eq!(fresh.channel_program_fusions(), 3, "hot entry survived");
        fresh.channel_program_bounded(&brisbane, 2, budget).unwrap();
        assert_eq!(fresh.channel_program_fusions(), 4, "oldest entry evicted");
    }

    #[test]
    fn derive_seed_spreads_indices() {
        let s: Vec<u64> = (0..8).map(|i| derive_seed(42, i)).collect();
        for i in 0..s.len() {
            for j in (i + 1)..s.len() {
                assert_ne!(s[i], s[j]);
            }
        }
        assert_ne!(derive_seed(42, 0), derive_seed(43, 0));
    }
}
