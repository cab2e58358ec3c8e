//! Error type shared across the `idldp-core` public API.

/// Errors returned by validating constructors and audits.
#[derive(Clone, Debug, PartialEq)]
pub enum Error {
    /// A privacy budget was non-positive, NaN, or infinite.
    InvalidEpsilon {
        /// The offending value.
        value: f64,
    },
    /// A probability parameter was outside its valid open interval.
    InvalidProbability {
        /// Human-readable name of the parameter (`"a[2]"`, `"q"`, ...).
        name: String,
        /// The offending value.
        value: f64,
    },
    /// Perturbation parameters violate the required ordering (e.g. `a <= b`).
    ParameterOrdering {
        /// Description of the violated ordering.
        detail: String,
    },
    /// Structural mismatch between two collections that must align.
    DimensionMismatch {
        /// What was being matched.
        what: String,
        /// Expected size.
        expected: usize,
        /// Actual size.
        actual: usize,
    },
    /// An item or level index was out of range.
    IndexOutOfRange {
        /// What kind of index.
        what: String,
        /// The offending index.
        index: usize,
        /// Valid exclusive upper bound.
        bound: usize,
    },
    /// A mechanism fails the privacy constraints of a notion.
    PrivacyViolation {
        /// Worst observed log-ratio.
        observed: f64,
        /// Allowed bound at the violating pair.
        allowed: f64,
        /// The violating pair of (level or item) indices.
        pair: (usize, usize),
    },
    /// Empty input where at least one element is required.
    Empty {
        /// What was empty.
        what: String,
    },
    /// A report arrived in another wire shape than the one negotiated.
    ShapeMismatch {
        /// The negotiated shape.
        expected: crate::report::ReportShape,
        /// The kind of report that arrived (`"item-set"`, …).
        got: &'static str,
    },
    /// One report of a batch is malformed.
    Report {
        /// The report's position in its batch.
        index: usize,
        /// What is wrong with it.
        source: Box<Error>,
    },
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidEpsilon { value } => {
                write!(f, "privacy budget must be positive and finite, got {value}")
            }
            Error::InvalidProbability { name, value } => {
                write!(f, "probability {name} must lie in (0, 1), got {value}")
            }
            Error::ParameterOrdering { detail } => write!(f, "parameter ordering violated: {detail}"),
            Error::DimensionMismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what}: expected length {expected}, got {actual}"),
            Error::IndexOutOfRange { what, index, bound } => {
                write!(f, "{what} index {index} out of range (bound {bound})")
            }
            Error::PrivacyViolation {
                observed,
                allowed,
                pair,
            } => write!(
                f,
                "privacy constraint violated at pair {pair:?}: log-ratio {observed:.6} > allowed {allowed:.6}"
            ),
            Error::Empty { what } => write!(f, "{what} must not be empty"),
            Error::ShapeMismatch { expected, got } => write!(
                f,
                "report shape mismatch: expected {}, got a {got} report",
                expected.label()
            ),
            Error::Report { index, source } => write!(f, "report {index}: {source}"),
        }
    }
}

impl std::error::Error for Error {}

/// Convenient alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = Error::InvalidEpsilon { value: -1.0 };
        assert!(e.to_string().contains("-1"));
        let e = Error::InvalidProbability {
            name: "a[0]".into(),
            value: 1.5,
        };
        assert!(e.to_string().contains("a[0]"));
        let e = Error::DimensionMismatch {
            what: "budgets".into(),
            expected: 3,
            actual: 2,
        };
        assert!(e.to_string().contains("expected length 3"));
        let e = Error::PrivacyViolation {
            observed: 1.0,
            allowed: 0.5,
            pair: (0, 1),
        };
        assert!(e.to_string().contains("(0, 1)"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&Error::Empty { what: "x".into() });
    }
}
