//! Engine-build errors.

use std::fmt;

use jetsim_dnn::GraphError;

/// Errors returned by [`crate::EngineBuilder::build`].
///
/// Marked `#[non_exhaustive]`: future build-failure modes add variants
/// without breaking downstream matches.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum BuildError {
    /// The model graph failed structural validation.
    InvalidModel(GraphError),
    /// Batch size zero was requested.
    ZeroBatch,
    /// The batch size exceeds what the builder supports.
    BatchTooLarge {
        /// The requested batch size.
        requested: u32,
        /// The builder's limit.
        limit: u32,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::InvalidModel(e) => write!(f, "invalid model graph: {e}"),
            BuildError::ZeroBatch => f.write_str("batch size must be at least 1"),
            BuildError::BatchTooLarge { requested, limit } => {
                write!(f, "batch size {requested} exceeds builder limit {limit}")
            }
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::InvalidModel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GraphError> for BuildError {
    fn from(e: GraphError) -> Self {
        BuildError::InvalidModel(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_specific() {
        assert!(BuildError::ZeroBatch.to_string().contains("at least 1"));
        let e = BuildError::BatchTooLarge {
            requested: 512,
            limit: 256,
        };
        assert!(e.to_string().contains("512") && e.to_string().contains("256"));
    }

    #[test]
    fn graph_error_converts_and_chains() {
        use std::error::Error;
        let e: BuildError = GraphError::Empty.into();
        assert!(matches!(e, BuildError::InvalidModel(_)));
        assert!(e.source().is_some());
    }
}
