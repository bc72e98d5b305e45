use std::error::Error;
use std::fmt;

/// Error type for CART model building and evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum CartError {
    /// The dataset had no rows.
    EmptyDataset,
    /// A referenced column does not exist or has the wrong kind.
    Telemetry(rainshine_telemetry::TelemetryError),
    /// The target column kind does not match the tree kind.
    TargetKind {
        /// What the constructor required.
        expected: &'static str,
    },
    /// The feature list was empty.
    NoFeatures,
    /// The target column was listed among the features.
    TargetIsFeature {
        /// The offending column name.
        name: String,
    },
    /// A hyper-parameter was out of its valid range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A prediction was requested against a table missing a feature used by
    /// the fitted tree.
    MissingFeature {
        /// Feature name used by the tree.
        name: String,
    },
    /// A prediction table carries a feature whose kind differs from the
    /// kind the fitted split rule was trained on (e.g. a column that was
    /// continuous at fit time arrives nominal at predict time).
    ColumnKindMismatch {
        /// Feature name tested by the split rule.
        feature: String,
        /// Column kind the rule expects.
        expected: &'static str,
        /// Column kind the table provided.
        found: &'static str,
    },
}

impl fmt::Display for CartError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CartError::EmptyDataset => write!(f, "dataset has no rows"),
            CartError::Telemetry(e) => write!(f, "dataset error: {e}"),
            CartError::TargetKind { expected } => {
                write!(f, "target column must be {expected}")
            }
            CartError::NoFeatures => write!(f, "feature list is empty"),
            CartError::TargetIsFeature { name } => {
                write!(f, "target column `{name}` also listed as a feature")
            }
            CartError::InvalidParameter { name, value } => {
                write!(f, "parameter `{name}` has invalid value {value}")
            }
            CartError::MissingFeature { name } => {
                write!(f, "prediction table lacks feature `{name}`")
            }
            CartError::ColumnKindMismatch { feature, expected, found } => {
                write!(f, "feature `{feature}` is {found} but the fitted rule expects {expected}")
            }
        }
    }
}

impl Error for CartError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CartError::Telemetry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rainshine_telemetry::TelemetryError> for CartError {
    fn from(e: rainshine_telemetry::TelemetryError) -> Self {
        CartError::Telemetry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_descriptive() {
        assert!(CartError::EmptyDataset.to_string().contains("no rows"));
        assert!(CartError::TargetIsFeature { name: "y".into() }.to_string().contains("y"));
    }
}
