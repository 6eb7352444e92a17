use std::error::Error;
use std::fmt;

use nocmap::MapError;

/// Unified error type of the design-flow layer and the CLI.
///
/// Wraps the mapper's [`MapError`], I/O failures, spec-file parse
/// errors, and CLI usage mistakes, so binaries report every failure
/// through one `error: {e}` path instead of ad-hoc `format!` strings.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FlowError {
    /// The mapping flow failed.
    Map(MapError),
    /// Reading or writing a file failed.
    Io {
        /// Path involved.
        path: String,
        /// The OS error rendered as text (keeps `FlowError: Clone + Eq`).
        message: String,
    },
    /// A spec / config text file could not be parsed.
    Parse {
        /// 1-based line number (0 when the error is not line-specific).
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A stage ran before the stage that produces its input.
    MissingInput {
        /// The stage that was starved.
        stage: &'static str,
        /// What it needed (e.g. "a mapped solution").
        needs: &'static str,
    },
    /// No registry entry with this name.
    UnknownExperiment(String),
    /// A command-line argument was malformed or missing.
    Usage(String),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Transparent: callers historically printed the MapError text
            // directly ("fig7b failed: {e}"), so wrapping must not change
            // a single byte of that output.
            FlowError::Map(e) => write!(f, "{e}"),
            FlowError::Io { path, message } => write!(f, "{path}: {message}"),
            FlowError::Parse { line: 0, message } => write!(f, "{message}"),
            FlowError::Parse { line, message } => write!(f, "line {line}: {message}"),
            FlowError::MissingInput { stage, needs } => {
                write!(f, "stage '{stage}' needs {needs} from an earlier stage")
            }
            FlowError::UnknownExperiment(name) => write!(f, "unknown experiment '{name}'"),
            FlowError::Usage(msg) => write!(f, "{msg}"),
        }
    }
}

impl Error for FlowError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlowError::Map(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MapError> for FlowError {
    fn from(e: MapError) -> Self {
        FlowError::Map(e)
    }
}

impl FlowError {
    /// Wraps an I/O error with the path it concerned.
    pub fn io(path: impl Into<String>, e: &std::io::Error) -> Self {
        FlowError::Io {
            path: path.into(),
            message: e.to_string(),
        }
    }

    /// A parse error at a 1-based line.
    pub fn parse(line: usize, message: impl Into<String>) -> Self {
        FlowError::Parse {
            line,
            message: message.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_trait_bounds() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<FlowError>();
    }

    #[test]
    fn map_error_display_is_transparent() {
        let e = FlowError::from(MapError::NoFeasibleFrequency);
        assert_eq!(
            e.to_string(),
            MapError::NoFeasibleFrequency.to_string(),
            "wrapping must not change the printed text"
        );
        assert!(e.source().is_some());
    }

    #[test]
    fn parse_line_zero_omits_prefix() {
        assert_eq!(FlowError::parse(0, "boom").to_string(), "boom");
        assert_eq!(FlowError::parse(3, "boom").to_string(), "line 3: boom");
    }
}
