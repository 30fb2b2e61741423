//! The frozen-detector artifact: a versioned, checksummed, fully
//! self-describing binary encoding of everything a server needs to score
//! requests — configuration, fitted normaliser, every ensemble group's
//! random draw and fused encoder, and the reference deviation statistics.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic   8 B   b"QUORUMFZ"
//! version 4 B   u32, currently 1
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
use quorum_core::config::{EngineKind, ExecutionMode, Normalization};
use quorum_core::QuorumConfig;

/// The artifact's leading magic bytes.
pub const MAGIC: [u8; 8] = *b"QUORUMFZ";

/// The artifact format version this build writes and reads.
pub const VERSION: u32 = 1;

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
        let payload = p.into_bytes();
        let mut w = Writer::new();
        for b in MAGIC {
            w.u8(b);
        }
        w.u32(VERSION);
        w.u64(payload.len() as u64);
        w.u64(fnv1a64(&payload));
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&payload);
        Ok(bytes)
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
        let header = 8 + 4 + 8 + 8;
        let payload = bytes
            .get(header..)
            .filter(|p| p.len() == length)
            .ok_or_else(|| {
                ServeError::Artifact(format!(
                    "payload length mismatch: header says {length}, got {}",
                    bytes.len().saturating_sub(header)
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
    // Tags 2 and 5 named the per-sample oracle engines, which are no
    // longer selectable; they stay retired rather than reused.
    let engine_tag = match config.engine {
        EngineKind::Auto => 0u8,
        EngineKind::Batched => 1,
        EngineKind::Density => 3,
        EngineKind::DensityStructured => 4,
        EngineKind::Circuit => 6,
        other => {
            return Err(ServeError::Artifact(format!(
                "engine kind {other:?} is not freezable by this version"
            )))
        }
    };
    w.u8(engine_tag);
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
    let engine = match r.u8()? {
        0 => EngineKind::Auto,
        1 => EngineKind::Batched,
        3 => EngineKind::Density,
        4 => EngineKind::DensityStructured,
        6 => EngineKind::Circuit,
        tag => return Err(ServeError::Artifact(format!("unknown engine tag {tag}"))),
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
        engine,
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
    let mut flat = Vec::with_capacity(dim * dim);
    for _ in 0..dim * dim {
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
        let mut bad = bytes.clone();
        bad[8] = 0xFE; // version field
        assert!(matches!(
            FrozenArtifact::from_bytes(&bad),
            Err(ServeError::Artifact(msg)) if msg.contains("version")
        ));
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

    /// The encoded config of `sample_artifact` under `engine`.
    fn encoded_config(engine: EngineKind) -> Vec<u8> {
        let config = sample_artifact().config.with_engine(engine);
        let mut w = Writer::new();
        encode_config(&config, &mut w).unwrap();
        w.into_bytes()
    }

    #[test]
    fn engine_tags_are_pinned() {
        let kept = [
            (EngineKind::Auto, 0u8),
            (EngineKind::Batched, 1),
            (EngineKind::Density, 3),
            (EngineKind::DensityStructured, 4),
            (EngineKind::Circuit, 6),
        ];
        // The engine tag is the one byte where two encodings differ.
        let auto = encoded_config(EngineKind::Auto);
        let circuit = encoded_config(EngineKind::Circuit);
        let at = (0..auto.len()).find(|&i| auto[i] != circuit[i]).unwrap();
        for (kind, tag) in kept {
            let bytes = encoded_config(kind);
            assert_eq!(bytes[at], tag, "{kind:?}");
            let decoded = decode_config(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(decoded, sample_artifact().config.with_engine(kind));
        }
        // The retired per-sample oracle tags and the first unused tag
        // are typed errors that name the tag.
        for tag in [2u8, 5, 7] {
            let mut bytes = auto.clone();
            bytes[at] = tag;
            match decode_config(&mut Reader::new(&bytes)) {
                Err(ServeError::Artifact(msg)) => {
                    assert!(msg.contains(&format!("engine tag {tag}")), "{msg}")
                }
                other => panic!("tag {tag} decoded to {other:?}"),
            }
        }
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
