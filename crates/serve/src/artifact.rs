//! The frozen-detector artifact: a versioned, checksummed, fully
//! self-describing binary encoding of everything a server needs to score
//! requests — configuration, fitted normaliser, every ensemble group's
//! random draw and fused encoder, and the reference deviation statistics.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   8 B   b"QUORUMFZ"
//! version 4 B   u32, currently 2 (1 carried an engine tag in the config)
//! length  8 B   u64 payload byte count
//! check   8 B   u64 FNV-1a of the payload
//! payload …     see the field-by-field encoders below
//! ```
//!
//! The payload is pure data — no pointers, no platform-dependent sizes,
//! `f64`s stored by bit pattern — so a thawed detector reproduces the
//! freezing process's scores bit for bit on any machine.

use crate::error::ServeError;
use crate::wire::{fnv1a64, Reader, Writer};
use qdata::preprocess::{MinMaxNormalizer, RangeNormalizer};
use qdata::Dataset;
use qsim::complex::C64;
use qsim::matrix::CMatrix;
use qsim::NoiseModel;
use quorum_core::config::{ExecutionMode, Normalization};
use quorum_core::QuorumConfig;

/// The artifact's leading magic bytes.
pub const MAGIC: [u8; 8] = *b"QUORUMFZ";

/// The artifact format version this build writes and reads.
pub const VERSION: u32 = 2;

/// The fitted feature normaliser frozen alongside the detector, so
/// streamed samples are mapped into amplitude space by the **reference**
/// data's statistics rather than their own batch's — the property that
/// makes served scores independent of how requests are coalesced.
#[derive(Debug, Clone, PartialEq)]
pub enum FrozenNormalizer {
    /// The paper's `raw / (max · M)` arm; scoring also folds features to
    /// absolute values (see [`quorum_core::detector::normalize_for_scoring`]).
    RangeMax(RangeNormalizer),
    /// The min–max extension arm.
    MinMax(MinMaxNormalizer),
}

impl FrozenNormalizer {
    /// Fits the arm matching `normalization` on (label-stripped)
    /// reference data.
    pub fn fit(normalization: Normalization, unlabeled: &Dataset) -> Result<Self, ServeError> {
        match normalization {
            Normalization::RangeMax => {
                Ok(FrozenNormalizer::RangeMax(RangeNormalizer::fit(unlabeled)))
            }
            Normalization::MinMax => Ok(FrozenNormalizer::MinMax(MinMaxNormalizer::fit(unlabeled))),
            other => Err(ServeError::Artifact(format!(
                "normalization {other:?} is not freezable by this version"
            ))),
        }
    }

    /// Applies the frozen transform exactly as the in-process pipeline
    /// would: range-max additionally folds to absolute values, because
    /// amplitude embedding needs non-negative reals.
    pub fn apply(&self, unlabeled: &Dataset) -> Dataset {
        match self {
            FrozenNormalizer::RangeMax(norm) => {
                quorum_core::detector::absolute_features(&norm.transform(unlabeled))
            }
            FrozenNormalizer::MinMax(norm) => norm.transform(unlabeled),
        }
    }

    /// The feature width the normaliser was fitted on.
    pub fn num_features(&self) -> usize {
        match self {
            FrozenNormalizer::RangeMax(norm) => norm.maxima().len(),
            FrozenNormalizer::MinMax(norm) => norm.mins().len(),
        }
    }

    fn encode(&self, w: &mut Writer) {
        match self {
            FrozenNormalizer::RangeMax(norm) => {
                w.u8(0);
                w.f64s(norm.maxima());
            }
            FrozenNormalizer::MinMax(norm) => {
                w.u8(1);
                w.f64s(norm.mins());
                w.f64s(norm.ranges());
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, ServeError> {
        match r.u8()? {
            0 => Ok(FrozenNormalizer::RangeMax(RangeNormalizer::from_maxima(
                r.f64s()?,
            ))),
            1 => {
                let mins = r.f64s()?;
                let ranges = r.f64s()?;
                if mins.len() != ranges.len() {
                    return Err(ServeError::Artifact(
                        "min-max normaliser mins/ranges length mismatch".into(),
                    ));
                }
                Ok(FrozenNormalizer::MinMax(MinMaxNormalizer::from_parts(
                    mins, ranges,
                )))
            }
            tag => Err(ServeError::Artifact(format!(
                "unknown normaliser tag {tag}"
            ))),
        }
    }
}

/// Pooled reference deviation statistics for one `(group, level)` pair:
/// the population mean and standard deviation of every reference
/// sample's SWAP-test deviation. Streamed samples are z-scored against
/// these frozen moments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelStats {
    /// Mean reference deviation.
    pub mean: f64,
    /// Population standard deviation of the reference deviations.
    pub std: f64,
}

/// One ensemble group's complete random draw, plus its fused encoder so
/// a thawed server never re-fuses what the freezer already paid for.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenGroup {
    /// The group's index within the ensemble (feeds the shot-seed
    /// derivation, so it must survive the round trip).
    pub index: usize,
    /// Data-register width of the ansatz.
    pub num_qubits: usize,
    /// Per-layer `(rx_angles, rz_angles)` of the random ansatz.
    pub layers: Vec<(Vec<f64>, Vec<f64>)>,
    /// The group's random feature-column subset.
    pub feature_columns: Vec<usize>,
    /// The group's bucket partition over reference sample indices.
    pub buckets: Vec<Vec<usize>>,
    /// The encoder circuit fused to a dense `2^n × 2^n` unitary.
    pub encoder: CMatrix,
}

/// The full frozen detector, as plain data.
///
/// [`crate::FrozenDetector::thaw`] turns this into a resident, scoring
/// detector; [`crate::FrozenDetector::freeze`] produces it from a
/// configuration plus reference dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct FrozenArtifact {
    /// The exact configuration the detector was frozen under.
    pub config: QuorumConfig,
    /// The normaliser fitted on the reference data.
    pub normalizer: FrozenNormalizer,
    /// Feature width every request must match.
    pub num_features: usize,
    /// Reference sample count (bucket indices point into it).
    pub reference_samples: usize,
    /// Every ensemble group's frozen draw.
    pub groups: Vec<FrozenGroup>,
    /// `stats[g][l]`: pooled reference statistics of group `g` at the
    /// `l`-th effective compression level.
    pub stats: Vec<Vec<LevelStats>>,
}

impl FrozenArtifact {
    /// Encodes the artifact: header, checksum, payload.
    pub fn to_bytes(&self) -> Result<Vec<u8>, ServeError> {
        let mut p = Writer::new();
        encode_config(&self.config, &mut p)?;
        self.normalizer.encode(&mut p);
        p.usize(self.num_features);
        p.usize(self.reference_samples);
        p.usize(self.groups.len());
        for g in &self.groups {
            encode_group(g, &mut p);
        }
        p.usize(self.stats.len());
        for per_level in &self.stats {
            p.usize(per_level.len());
            for s in per_level {
                p.f64(s.mean);
                p.f64(s.std);
            }
        }
        Ok(seal(&p.into_bytes()))
    }

    /// Decodes and integrity-checks an artifact.
    ///
    /// # Errors
    ///
    /// [`ServeError::Artifact`] on bad magic, unsupported version,
    /// length/checksum mismatch, or any malformed field.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ServeError> {
        let mut r = Reader::new(bytes);
        let mut magic = [0u8; 8];
        for b in &mut magic {
            *b = r.u8()?;
        }
        if magic != MAGIC {
            return Err(ServeError::Artifact("bad magic bytes".into()));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(ServeError::Artifact(format!(
                "unsupported artifact version {version} (this build reads {VERSION})"
            )));
        }
        let length = r.usize()?;
        let checksum = r.u64()?;
        let payload = bytes
            .get(HEADER_BYTES..)
            .filter(|p| p.len() == length)
            .ok_or_else(|| {
                ServeError::Artifact(format!(
                    "payload length mismatch: header says {length}, got {}",
                    bytes.len().saturating_sub(HEADER_BYTES)
                ))
            })?;
        if fnv1a64(payload) != checksum {
            return Err(ServeError::Artifact("checksum mismatch".into()));
        }
        let mut r = Reader::new(payload);
        let config = decode_config(&mut r)?;
        let normalizer = FrozenNormalizer::decode(&mut r)?;
        let num_features = r.usize()?;
        let reference_samples = r.usize()?;
        let num_groups = r.len_prefix(1)?;
        let groups = (0..num_groups)
            .map(|_| decode_group(&mut r))
            .collect::<Result<Vec<_>, _>>()?;
        let num_stats = r.len_prefix(1)?;
        let mut stats = Vec::with_capacity(num_stats);
        for _ in 0..num_stats {
            let levels = r.len_prefix(16)?;
            let mut per_level = Vec::with_capacity(levels);
            for _ in 0..levels {
                per_level.push(LevelStats {
                    mean: r.f64()?,
                    std: r.f64()?,
                });
            }
            stats.push(per_level);
        }
        if !r.is_exhausted() {
            return Err(ServeError::Artifact("trailing bytes after payload".into()));
        }
        Ok(FrozenArtifact {
            config,
            normalizer,
            num_features,
            reference_samples,
            groups,
            stats,
        })
    }
}

/// Magic, version, payload length and checksum.
const HEADER_BYTES: usize = 8 + 4 + 8 + 8;

/// Prefixes `payload` with the header: magic, version, its length and
/// its FNV-1a checksum.
fn seal(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    for b in MAGIC {
        w.u8(b);
    }
    w.u32(VERSION);
    w.u64(payload.len() as u64);
    w.u64(fnv1a64(payload));
    let mut bytes = w.into_bytes();
    bytes.extend_from_slice(payload);
    bytes
}

fn encode_config(config: &QuorumConfig, w: &mut Writer) -> Result<(), ServeError> {
    w.usize(config.data_qubits);
    w.usize(config.ensemble_groups);
    w.usize(config.ansatz_layers);
    w.usizes(&config.compression_levels);
    w.f64(config.bucket_probability);
    match config.anomaly_rate_estimate {
        Some(r) => {
            w.u8(1);
            w.f64(r);
        }
        None => w.u8(0),
    }
    match &config.execution {
        ExecutionMode::Exact => w.u8(0),
        ExecutionMode::Sampled { shots } => {
            w.u8(1);
            w.u64(*shots);
        }
        ExecutionMode::Noisy { noise, shots } => {
            w.u8(2);
            encode_noise(noise, w);
            match shots {
                Some(s) => {
                    w.u8(1);
                    w.u64(*s);
                }
                None => w.u8(0),
            }
        }
        other => {
            return Err(ServeError::Artifact(format!(
                "execution mode {other:?} is not freezable by this version"
            )))
        }
    }
    let norm_tag = match config.normalization {
        Normalization::RangeMax => 0u8,
        Normalization::MinMax => 1,
        other => {
            return Err(ServeError::Artifact(format!(
                "normalization {other:?} is not freezable by this version"
            )))
        }
    };
    w.u8(norm_tag);
    w.u64(config.seed);
    w.usize(config.threads);
    Ok(())
}

fn decode_config(r: &mut Reader<'_>) -> Result<QuorumConfig, ServeError> {
    let data_qubits = r.usize()?;
    let ensemble_groups = r.usize()?;
    let ansatz_layers = r.usize()?;
    let compression_levels = r.usizes()?;
    let bucket_probability = r.f64()?;
    let anomaly_rate_estimate = match r.u8()? {
        0 => None,
        1 => Some(r.f64()?),
        tag => return Err(ServeError::Artifact(format!("unknown rate tag {tag}"))),
    };
    let execution = match r.u8()? {
        0 => ExecutionMode::Exact,
        1 => ExecutionMode::Sampled { shots: r.u64()? },
        2 => {
            let noise = decode_noise(r)?;
            let shots = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                tag => return Err(ServeError::Artifact(format!("unknown shots tag {tag}"))),
            };
            ExecutionMode::Noisy { noise, shots }
        }
        tag => return Err(ServeError::Artifact(format!("unknown execution tag {tag}"))),
    };
    let normalization = match r.u8()? {
        0 => Normalization::RangeMax,
        1 => Normalization::MinMax,
        tag => {
            return Err(ServeError::Artifact(format!(
                "unknown normalization tag {tag}"
            )))
        }
    };
    let seed = r.u64()?;
    let threads = r.usize()?;
    Ok(QuorumConfig {
        data_qubits,
        ensemble_groups,
        ansatz_layers,
        compression_levels,
        bucket_probability,
        anomaly_rate_estimate,
        execution,
        normalization,
        seed,
        threads,
    })
}

fn encode_noise(noise: &NoiseModel, w: &mut Writer) {
    w.f64(noise.t1);
    w.f64(noise.t2);
    w.f64(noise.error_1q);
    w.f64(noise.error_2q);
    w.f64(noise.gate_time_1q);
    w.f64(noise.gate_time_2q);
    w.f64(noise.readout_error);
}

fn decode_noise(r: &mut Reader<'_>) -> Result<NoiseModel, ServeError> {
    Ok(NoiseModel {
        t1: r.f64()?,
        t2: r.f64()?,
        error_1q: r.f64()?,
        error_2q: r.f64()?,
        gate_time_1q: r.f64()?,
        gate_time_2q: r.f64()?,
        readout_error: r.f64()?,
    })
}

fn encode_group(g: &FrozenGroup, w: &mut Writer) {
    w.usize(g.index);
    w.usize(g.num_qubits);
    w.usize(g.layers.len());
    for (rx, rz) in &g.layers {
        w.f64s(rx);
        w.f64s(rz);
    }
    w.usizes(&g.feature_columns);
    w.usize(g.buckets.len());
    for bucket in &g.buckets {
        w.usizes(bucket);
    }
    w.usize(g.encoder.rows());
    for v in g.encoder.as_slice() {
        w.f64(v.re);
        w.f64(v.im);
    }
}

fn decode_group(r: &mut Reader<'_>) -> Result<FrozenGroup, ServeError> {
    let index = r.usize()?;
    let num_qubits = r.usize()?;
    let num_layers = r.len_prefix(16)?;
    let mut layers = Vec::with_capacity(num_layers);
    for _ in 0..num_layers {
        let rx = r.f64s()?;
        let rz = r.f64s()?;
        if rx.len() != num_qubits || rz.len() != num_qubits {
            return Err(ServeError::Artifact(
                "ansatz layer angle count does not match the register width".into(),
            ));
        }
        layers.push((rx, rz));
    }
    let feature_columns = r.usizes()?;
    let num_buckets = r.len_prefix(8)?;
    let buckets = (0..num_buckets)
        .map(|_| r.usizes())
        .collect::<Result<Vec<_>, _>>()?;
    let dim = r.usize()?;
    if num_qubits >= usize::BITS as usize || dim != 1usize << num_qubits {
        return Err(ServeError::Artifact(format!(
            "encoder dimension {dim} does not match {num_qubits} qubits"
        )));
    }
    let entries = dim
        .checked_mul(dim)
        .ok_or_else(|| ServeError::Artifact(format!("encoder dimension {dim} overflows")))?;
    r.ensure_holds(entries, 16)?;
    let mut flat = Vec::with_capacity(entries);
    for _ in 0..entries {
        let re = r.f64()?;
        let im = r.f64()?;
        flat.push(C64 { re, im });
    }
    let encoder = CMatrix::from_flat(&flat)
        .map_err(|e| ServeError::Artifact(format!("encoder matrix: {e}")))?;
    Ok(FrozenGroup {
        index,
        num_qubits,
        layers,
        feature_columns,
        buckets,
        encoder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quorum_core::config::MAX_SHOTS;
    use quorum_core::QuorumError;

    fn sample_artifact() -> FrozenArtifact {
        let config = QuorumConfig::default()
            .with_ensemble_groups(2)
            .with_execution(ExecutionMode::Noisy {
                noise: NoiseModel::brisbane(),
                shots: Some(1024),
            })
            .with_seed(99);
        let encoder = CMatrix::identity(8);
        let group = FrozenGroup {
            index: 1,
            num_qubits: 3,
            layers: vec![(vec![0.1, 0.2, 0.3], vec![0.4, 0.5, 0.6])],
            feature_columns: vec![0, 2, 4, 1, 6, 5, 3],
            buckets: vec![vec![0, 3], vec![1, 2, 4]],
            encoder,
        };
        FrozenArtifact {
            config,
            normalizer: FrozenNormalizer::RangeMax(RangeNormalizer::from_maxima(vec![
                1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
            ])),
            num_features: 7,
            reference_samples: 5,
            groups: vec![group.clone(), FrozenGroup { index: 0, ..group }],
            stats: vec![
                vec![
                    LevelStats {
                        mean: 0.1,
                        std: 0.01
                    };
                    2
                ],
                vec![
                    LevelStats {
                        mean: 0.2,
                        std: 0.02
                    };
                    2
                ],
            ],
        }
    }

    #[test]
    fn round_trips_bit_exactly() {
        let artifact = sample_artifact();
        let bytes = artifact.to_bytes().unwrap();
        let thawed = FrozenArtifact::from_bytes(&bytes).unwrap();
        assert_eq!(thawed, artifact);
    }

    #[test]
    fn rejects_bad_magic_version_and_corruption() {
        let bytes = sample_artifact().to_bytes().unwrap();
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            FrozenArtifact::from_bytes(&bad),
            Err(ServeError::Artifact(msg)) if msg.contains("magic")
        ));
        // Version 1 carried an engine tag this build no longer reads.
        for version in [1u8, 0xFE] {
            let mut bad = bytes.clone();
            bad[8] = version;
            assert!(matches!(
                FrozenArtifact::from_bytes(&bad),
                Err(ServeError::Artifact(msg)) if msg.contains("version")
            ));
        }
        // Flip one payload byte: the checksum must catch it.
        let mut bad = bytes.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            FrozenArtifact::from_bytes(&bad),
            Err(ServeError::Artifact(msg)) if msg.contains("checksum")
        ));
        // Truncation is a length mismatch, not a panic.
        assert!(FrozenArtifact::from_bytes(&bytes[..bytes.len() - 3]).is_err());
        assert!(FrozenArtifact::from_bytes(&[]).is_err());
    }

    /// A sealed artifact whose one group declares a `2^num_qubits`-wide
    /// encoder and then ends, carrying no entries.
    fn entryless_encoder_artifact(num_qubits: usize) -> Vec<u8> {
        let artifact = sample_artifact();
        let mut p = Writer::new();
        encode_config(&artifact.config, &mut p).unwrap();
        artifact.normalizer.encode(&mut p);
        p.usize(artifact.num_features);
        p.usize(artifact.reference_samples);
        p.usize(1); // groups
        p.usize(0); // index
        p.usize(num_qubits);
        p.usize(0); // layers
        p.usizes(&[]); // feature columns
        p.usize(0); // buckets
        p.usize(1 << num_qubits);
        seal(&p.into_bytes())
    }

    #[test]
    fn encoder_size_is_bounded_by_the_payload_before_allocating() {
        for num_qubits in [13, 29, 30, 32, 63] {
            match FrozenArtifact::from_bytes(&entryless_encoder_artifact(num_qubits)) {
                Err(ServeError::Artifact(msg)) => assert!(
                    msg.contains("implausible") || msg.contains("overflows"),
                    "{num_qubits} qubits: {msg}"
                ),
                other => panic!("{num_qubits} qubits decoded to {other:?}"),
            }
        }
    }

    /// The next value of a SplitMix64 stream: the mutation schedule's
    /// deterministic randomness.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// What 8-byte overwrites plant: all ones (NaN as an `f64`), counts
    /// far past any payload, widths around the decoders' limits, and
    /// out-of-range values for the probability and time fields.
    const PLANTED: [u64; 10] = [
        u64::MAX,
        1 << 40,
        1 << 20,
        64,
        63,
        31,
        29,
        0,
        1.5f64.to_bits(),
        (-1.0f64).to_bits(),
    ];

    /// One mutant of `payload` — a bit flip, a truncation or an 8-byte
    /// overwrite — resealed so it passes the length and checksum checks
    /// and reaches the field decoders.
    fn mutant(payload: &[u8], rng: &mut u64) -> Vec<u8> {
        let mut p = payload.to_vec();
        let mut draw = |bound: usize| (splitmix(rng) % bound as u64) as usize;
        match draw(3) {
            0 => {
                let bit = draw(p.len() * 8);
                p[bit / 8] ^= 1 << (bit % 8);
            }
            1 => p.truncate(draw(p.len())),
            _ => {
                let value = PLANTED[draw(PLANTED.len())];
                // Half the overwrites land among the config, normaliser
                // and group headers ahead of the bulky encoder entries.
                let span = if draw(2) == 0 {
                    p.len().min(256)
                } else {
                    p.len()
                };
                let at = draw(span - 7);
                p[at..at + 8].copy_from_slice(&value.to_le_bytes());
            }
        }
        seal(&p)
    }

    /// A small 7-feature reference set and the Exact and Noisy (with
    /// shots) configurations the trust-boundary tests freeze on it.
    fn trust_boundary_setup() -> (Dataset, [QuorumConfig; 2]) {
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|i| {
                (0..7)
                    .map(|j| ((i * 7 + j) as f64 * 0.37).sin() + 1.5)
                    .collect()
            })
            .collect();
        let reference = Dataset::from_rows("mutation-ref", rows, None).unwrap();
        let exact = QuorumConfig::default()
            .with_ensemble_groups(2)
            .with_compression_levels(vec![1])
            .with_threads(1);
        let noisy = exact.clone().with_execution(ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: Some(64),
        });
        (reference, [exact, noisy])
    }

    #[test]
    fn zero_width_artifacts_do_not_thaw() {
        let (reference, [exact, _]) = trust_boundary_setup();
        let mut artifact = crate::FrozenDetector::freeze(exact, &reference)
            .unwrap()
            .to_artifact()
            .unwrap();
        artifact.num_features = 0;
        artifact.normalizer = FrozenNormalizer::RangeMax(RangeNormalizer::from_maxima(Vec::new()));
        for group in &mut artifact.groups {
            group.feature_columns.clear();
        }
        match crate::FrozenDetector::from_bytes(&artifact.to_bytes().unwrap()) {
            Err(ServeError::Artifact(msg)) => assert!(msg.contains("no features"), "{msg}"),
            other => panic!("a zero-width artifact thawed to {other:?}"),
        }
    }

    #[test]
    fn oversized_shot_counts_do_not_thaw() {
        // Shot sampling draws once per shot: an artifact declaring 2^40
        // shots would make every row it serves run for hours.
        let (reference, [_, noisy]) = trust_boundary_setup();
        let mut artifact = crate::FrozenDetector::freeze(noisy, &reference)
            .unwrap()
            .to_artifact()
            .unwrap();
        artifact.config.execution = ExecutionMode::Noisy {
            noise: NoiseModel::brisbane(),
            shots: Some(1 << 40),
        };
        match crate::FrozenDetector::from_bytes(&artifact.to_bytes().unwrap()) {
            Err(ServeError::Quorum(QuorumError::InvalidConfig(msg))) => {
                assert!(msg.contains(&MAX_SHOTS.to_string()), "{msg}")
            }
            other => panic!("a 2^40-shot artifact thawed to {other:?}"),
        }
    }

    /// Whether thawing `bytes` panics, or — when it thaws — scoring one
    /// row on the result does, counting group panics the scorer's own
    /// supervision absorbs into a typed error. Validation bounds the
    /// shot count ([`MAX_SHOTS`]), so every mutant that thaws scores in
    /// milliseconds.
    fn panics_on_thaw_or_score(bytes: &[u8]) -> bool {
        std::panic::catch_unwind(|| {
            let Ok(detector) = crate::FrozenDetector::from_bytes(bytes) else {
                return false;
            };
            let row = vec![0.5; detector.num_features()];
            let _ = detector.score_samples(&[row], 0);
            detector.group_panics() > 0
        })
        .unwrap_or(true)
    }

    /// Freezes one Exact and one Noisy detector and thaws `cases`
    /// mutants of each payload per seed: each must thaw or fail with a
    /// typed error, and a thawed one must score a row, never panicking
    /// (an abort fails the whole run).
    fn assert_mutants_never_panic(seeds: &[u64], cases: usize) {
        let (reference, configs) = trust_boundary_setup();
        for config in configs {
            let bytes = crate::FrozenDetector::freeze(config.clone(), &reference)
                .unwrap()
                .to_bytes()
                .unwrap();
            let payload = &bytes[HEADER_BYTES..];
            for &seed in seeds {
                let mut rng = seed;
                let panicked: Vec<usize> = (0..cases)
                    .filter(|_| panics_on_thaw_or_score(&mutant(payload, &mut rng)))
                    .collect();
                assert!(
                    panicked.is_empty(),
                    "{:?} mutants {panicked:?} of seed {seed} panicked",
                    config.execution
                );
            }
        }
    }

    #[test]
    fn mutated_artifacts_thaw_or_fail_typed() {
        assert_mutants_never_panic(&[0x5EED], 100);
    }

    #[test]
    #[ignore = "exhaustive; run explicitly or in CI's --ignored pass"]
    fn mutated_artifacts_thaw_or_fail_typed_exhaustive() {
        assert_mutants_never_panic(&[1, 2, 3], 1_000);
    }

    #[test]
    fn normalizer_applies_like_the_pipeline() {
        let ds = Dataset::from_rows("t", vec![vec![-2.0, 4.0], vec![2.0, -4.0]], None).unwrap();
        let frozen = FrozenNormalizer::fit(Normalization::RangeMax, &ds).unwrap();
        let out = frozen.apply(&ds);
        // Range-max folds to absolute values after normalising.
        assert!(out.rows().iter().flatten().all(|&v| v >= 0.0));
        assert_eq!(frozen.num_features(), 2);
        let frozen = FrozenNormalizer::fit(Normalization::MinMax, &ds).unwrap();
        assert_eq!(frozen.num_features(), 2);
    }
}
