//! The dataset container used across the reproduction.

use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;

/// A tabular dataset of `f64` features with optional anomaly labels.
///
/// Labels are kept *separate* from features and are only consulted at
/// evaluation time, mirroring the paper's protocol ("All datasets have
/// labels stripped for all operations until the evaluation is performed").
///
/// # Examples
///
/// ```
/// use qdata::dataset::Dataset;
///
/// let ds = Dataset::from_rows(
///     "toy",
///     vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![100.0, -3.0]],
///     Some(vec![false, false, true]),
/// ).unwrap();
/// assert_eq!(ds.num_samples(), 3);
/// assert_eq!(ds.num_features(), 2);
/// assert_eq!(ds.anomaly_count(), Some(1));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    name: String,
    /// Row-major samples: `features[sample][feature]`.
    features: Vec<Vec<f64>>,
    /// `true` marks an anomaly. `None` after label stripping.
    labels: Option<Vec<bool>>,
    feature_names: Vec<String>,
}

/// Errors from dataset construction and manipulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DataError {
    /// Rows had differing numbers of features.
    RaggedRows {
        /// Row where the mismatch was detected.
        row: usize,
        /// Expected width (from the first row).
        expected: usize,
        /// Actual width.
        actual: usize,
    },
    /// Label vector length differed from the number of samples.
    LabelLengthMismatch {
        /// Number of samples.
        samples: usize,
        /// Number of labels provided.
        labels: usize,
    },
    /// The dataset had no samples.
    Empty,
    /// A feature value was NaN or infinite.
    NonFiniteValue {
        /// Sample row.
        row: usize,
        /// Feature column.
        col: usize,
    },
    /// Parse failure in CSV input.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Explanation.
        message: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::RaggedRows {
                row,
                expected,
                actual,
            } => write!(f, "row {row} has {actual} features, expected {expected}"),
            DataError::LabelLengthMismatch { samples, labels } => {
                write!(f, "{labels} labels for {samples} samples")
            }
            DataError::Empty => write!(f, "dataset has no samples"),
            DataError::NonFiniteValue { row, col } => {
                write!(f, "non-finite value at row {row}, column {col}")
            }
            DataError::Parse { line, message } => write!(f, "line {line}: {message}"),
        }
    }
}

impl std::error::Error for DataError {}

/// A borrowed, flat row-major view of `samples × features` values — the
/// allocation-free counterpart of [`Dataset`] for streaming hot paths.
///
/// Serving runtimes decode wire rows into one pooled flat buffer and hand
/// engines a `SamplePanel` over it, instead of materialising a [`Dataset`]
/// (a `Vec<Vec<f64>>` plus name/feature-name strings) per request batch.
/// The view carries no labels and no names: streamed samples never have
/// either.
#[derive(Debug, Clone, Copy)]
pub struct SamplePanel<'a> {
    data: &'a [f64],
    features: usize,
}

impl<'a> SamplePanel<'a> {
    /// Wraps a flat row-major buffer holding `data.len() / features`
    /// samples of `features` values each.
    ///
    /// # Panics
    ///
    /// Panics if `features == 0` or `data.len()` is not a multiple of
    /// `features` — a panel cannot represent ragged or zero-width rows.
    pub fn new(data: &'a [f64], features: usize) -> Self {
        assert!(features > 0, "a sample panel needs at least one feature");
        assert_eq!(
            data.len() % features,
            0,
            "panel length must be a whole number of rows"
        );
        SamplePanel { data, features }
    }

    /// Number of samples (rows).
    pub fn num_samples(&self) -> usize {
        self.data.len() / self.features
    }

    /// Number of features (columns).
    pub fn num_features(&self) -> usize {
        self.features
    }

    /// One sample's feature slice.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.num_samples()`.
    pub fn row(&self, idx: usize) -> &'a [f64] {
        &self.data[idx * self.features..(idx + 1) * self.features]
    }

    /// Iterates the rows in order, each as one contiguous slice.
    pub fn rows(&self) -> std::slice::ChunksExact<'a, f64> {
        self.data.chunks_exact(self.features)
    }

    /// The flat row-major backing slice.
    pub fn as_slice(&self) -> &'a [f64] {
        self.data
    }
}

impl Dataset {
    /// Builds a dataset from row-major features and optional labels.
    ///
    /// # Errors
    ///
    /// Returns [`DataError`] on ragged rows, label-length mismatch, empty
    /// input, or non-finite values.
    pub fn from_rows(
        name: impl Into<String>,
        features: Vec<Vec<f64>>,
        labels: Option<Vec<bool>>,
    ) -> Result<Self, DataError> {
        if features.is_empty() {
            return Err(DataError::Empty);
        }
        let width = features[0].len();
        for (row, r) in features.iter().enumerate() {
            if r.len() != width {
                return Err(DataError::RaggedRows {
                    row,
                    expected: width,
                    actual: r.len(),
                });
            }
            for (col, v) in r.iter().enumerate() {
                if !v.is_finite() {
                    return Err(DataError::NonFiniteValue { row, col });
                }
            }
        }
        if let Some(l) = &labels {
            if l.len() != features.len() {
                return Err(DataError::LabelLengthMismatch {
                    samples: features.len(),
                    labels: l.len(),
                });
            }
        }
        let feature_names = (0..width).map(|i| format!("f{i}")).collect();
        Ok(Dataset {
            name: name.into(),
            features,
            labels,
            feature_names,
        })
    }

    /// Replaces the auto-generated feature names.
    ///
    /// # Panics
    ///
    /// Panics if `names.len() != self.num_features()`.
    pub fn with_feature_names(mut self, names: Vec<String>) -> Self {
        assert_eq!(names.len(), self.num_features(), "feature-name count");
        self.feature_names = names;
        self
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of samples (rows).
    pub fn num_samples(&self) -> usize {
        self.features.len()
    }

    /// Number of features (columns).
    pub fn num_features(&self) -> usize {
        self.features.first().map_or(0, |r| r.len())
    }

    /// One sample's feature slice.
    pub fn sample(&self, idx: usize) -> &[f64] {
        &self.features[idx]
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<f64>] {
        &self.features
    }

    /// Feature names.
    pub fn feature_names(&self) -> &[String] {
        &self.feature_names
    }

    /// The label vector, if labels are attached.
    pub fn labels(&self) -> Option<&[bool]> {
        self.labels.as_deref()
    }

    /// Number of labelled anomalies, if labels are attached.
    pub fn anomaly_count(&self) -> Option<usize> {
        self.labels
            .as_ref()
            .map(|l| l.iter().filter(|&&x| x).count())
    }

    /// Fraction of anomalies, if labels are attached.
    pub fn anomaly_rate(&self) -> Option<f64> {
        self.anomaly_count()
            .map(|c| c as f64 / self.num_samples() as f64)
    }

    /// Returns a copy with labels removed — the form handed to detectors.
    pub fn strip_labels(&self) -> Dataset {
        Dataset {
            name: self.name.clone(),
            features: self.features.clone(),
            labels: None,
            feature_names: self.feature_names.clone(),
        }
    }

    /// One feature column as a vector.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.num_features()`.
    pub fn column(&self, col: usize) -> Vec<f64> {
        assert!(col < self.num_features(), "column out of range");
        self.features.iter().map(|r| r[col]).collect()
    }

    /// Per-column maxima of absolute values (used by the paper's
    /// range normalisation).
    pub fn column_abs_max(&self) -> Vec<f64> {
        let m = self.num_features();
        let mut maxima = vec![0.0f64; m];
        for row in &self.features {
            for (j, &v) in row.iter().enumerate() {
                maxima[j] = maxima[j].max(v.abs());
            }
        }
        maxima
    }

    /// Shuffles samples (and labels) in place with the given RNG.
    pub fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let n = self.num_samples();
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(rng);
        let features = order.iter().map(|&i| self.features[i].clone()).collect();
        let labels = self
            .labels
            .as_ref()
            .map(|l| order.iter().map(|&i| l[i]).collect());
        self.features = features;
        self.labels = labels;
    }

    /// Splits into `(train, test)` with the first `train_fraction` of
    /// samples in train. Shuffle first for a random split.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_fraction < 1`.
    pub fn split(&self, train_fraction: f64) -> (Dataset, Dataset) {
        assert!(
            train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction in (0,1)"
        );
        let n_train = ((self.num_samples() as f64) * train_fraction).round() as usize;
        let n_train = n_train.clamp(1, self.num_samples() - 1);
        let make = |range: std::ops::Range<usize>, suffix: &str| Dataset {
            name: format!("{}-{suffix}", self.name),
            features: self.features[range.clone()].to_vec(),
            labels: self.labels.as_ref().map(|l| l[range].to_vec()),
            feature_names: self.feature_names.clone(),
        };
        (
            make(0..n_train, "train"),
            make(n_train..self.num_samples(), "test"),
        )
    }

    /// Returns a copy containing only the selected feature columns, in the
    /// given order.
    ///
    /// # Panics
    ///
    /// Panics if any column index is out of range.
    pub fn select_columns(&self, cols: &[usize]) -> Dataset {
        for &c in cols {
            assert!(c < self.num_features(), "column {c} out of range");
        }
        Dataset {
            name: self.name.clone(),
            features: self
                .features
                .iter()
                .map(|r| cols.iter().map(|&c| r[c]).collect())
                .collect(),
            labels: self.labels.clone(),
            feature_names: cols
                .iter()
                .map(|&c| self.feature_names[c].clone())
                .collect(),
        }
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} samples × {} features",
            self.name,
            self.num_samples(),
            self.num_features()
        )?;
        if let Some(c) = self.anomaly_count() {
            write!(f, " ({c} anomalies)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> Dataset {
        Dataset::from_rows(
            "toy",
            vec![
                vec![1.0, -2.0],
                vec![3.0, 4.0],
                vec![5.0, 0.5],
                vec![-9.0, 1.0],
            ],
            Some(vec![false, false, false, true]),
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let ds = toy();
        assert_eq!(ds.num_samples(), 4);
        assert_eq!(ds.num_features(), 2);
        assert_eq!(ds.sample(1), &[3.0, 4.0]);
        assert_eq!(ds.anomaly_count(), Some(1));
        assert!((ds.anomaly_rate().unwrap() - 0.25).abs() < 1e-12);
        assert_eq!(ds.column(0), vec![1.0, 3.0, 5.0, -9.0]);
        assert_eq!(ds.feature_names(), &["f0", "f1"]);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            Dataset::from_rows("x", vec![], None),
            Err(DataError::Empty)
        ));
        assert!(matches!(
            Dataset::from_rows("x", vec![vec![1.0], vec![1.0, 2.0]], None),
            Err(DataError::RaggedRows { row: 1, .. })
        ));
        assert!(matches!(
            Dataset::from_rows("x", vec![vec![1.0]], Some(vec![true, false])),
            Err(DataError::LabelLengthMismatch { .. })
        ));
        assert!(matches!(
            Dataset::from_rows("x", vec![vec![f64::NAN]], None),
            Err(DataError::NonFiniteValue { row: 0, col: 0 })
        ));
    }

    #[test]
    fn strip_labels_removes_evaluation_data() {
        let ds = toy().strip_labels();
        assert!(ds.labels().is_none());
        assert!(ds.anomaly_count().is_none());
        assert_eq!(ds.num_samples(), 4);
    }

    #[test]
    fn column_abs_max() {
        let ds = toy();
        assert_eq!(ds.column_abs_max(), vec![9.0, 4.0]);
    }

    #[test]
    fn shuffle_permutes_consistently() {
        let mut ds = toy();
        let mut rng = StdRng::seed_from_u64(5);
        ds.shuffle(&mut rng);
        assert_eq!(ds.num_samples(), 4);
        // The anomalous sample [-9, 1] must keep its label through the
        // shuffle.
        let labels = ds.labels().unwrap();
        for (i, &label) in labels.iter().enumerate() {
            let is_anom_row = ds.sample(i)[0] == -9.0;
            assert_eq!(label, is_anom_row);
        }
    }

    #[test]
    fn split_partitions_rows_and_labels() {
        let ds = toy();
        let (train, test) = ds.split(0.5);
        assert_eq!(train.num_samples(), 2);
        assert_eq!(test.num_samples(), 2);
        assert_eq!(train.labels().unwrap(), &[false, false]);
        assert_eq!(test.labels().unwrap(), &[false, true]);
        assert!(train.name().ends_with("train"));
    }

    #[test]
    #[should_panic(expected = "train fraction")]
    fn split_rejects_bad_fraction() {
        toy().split(1.5);
    }

    #[test]
    fn select_columns_projects() {
        let ds = toy().with_feature_names(vec!["a".into(), "b".into()]);
        let sel = ds.select_columns(&[1]);
        assert_eq!(sel.num_features(), 1);
        assert_eq!(sel.sample(0), &[-2.0]);
        assert_eq!(sel.feature_names(), &["b"]);
        assert_eq!(sel.labels().unwrap().len(), 4);
    }

    #[test]
    fn display_summarises() {
        let text = toy().to_string();
        assert!(text.contains("4 samples"));
        assert!(text.contains("1 anomalies"));
    }
}
