//! Error types for the ledger engine.

use std::fmt;
use std::path::PathBuf;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors surfaced by ledger operations.
#[derive(Debug)]
pub enum Error {
    /// Failure in one of the ledger's two key-value stores.
    Store {
        /// Which store failed: `"index"` or `"state"`.
        store: &'static str,
        /// The underlying error.
        source: fabric_kvstore::Error,
    },
    /// An underlying I/O operation failed.
    Io {
        /// What the ledger was doing when the failure occurred.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// Persistent ledger data failed a checksum, hash-chain or structural
    /// validation.
    Corruption {
        /// File in which the corruption was detected.
        file: PathBuf,
        /// What failed to validate.
        detail: String,
    },
    /// The caller passed an argument the ledger cannot honour.
    InvalidArgument(String),
    /// A requested block or transaction does not exist.
    NotFound(String),
}

impl Error {
    pub(crate) fn io(context: impl Into<String>, source: std::io::Error) -> Self {
        Error::Io {
            context: context.into(),
            source,
        }
    }

    pub(crate) fn corruption(file: impl Into<PathBuf>, detail: impl Into<String>) -> Self {
        Error::Corruption {
            file: file.into(),
            detail: detail.into(),
        }
    }

    /// A failure of the index store (block locations, history, tx ids).
    pub(crate) fn index_store(source: fabric_kvstore::Error) -> Self {
        Error::Store {
            store: "index",
            source,
        }
    }

    /// A failure of the state store (current value of every key).
    pub(crate) fn state_store(source: fabric_kvstore::Error) -> Self {
        Error::Store {
            store: "state",
            source,
        }
    }
}

/// For callers outside the ledger that reach a store directly and convert
/// its error with `?`; the ledger's own code names the store instead.
impl From<fabric_kvstore::Error> for Error {
    fn from(source: fabric_kvstore::Error) -> Self {
        Error::Store {
            store: "key-value",
            source,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Store { store, source } => write!(f, "{store} store error: {source}"),
            Error::Io { context, source } => write!(f, "i/o error while {context}: {source}"),
            Error::Corruption { file, detail } => {
                write!(f, "ledger corruption in {}: {detail}", file.display())
            }
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::NotFound(what) => write!(f, "not found: {what}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Store { source, .. } => Some(source),
            Error::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_errors_convert() {
        let inner = || fabric_kvstore::Error::InvalidArgument("x".into());
        let err: Error = inner().into();
        assert!(matches!(
            err,
            Error::Store {
                store: "key-value",
                ..
            }
        ));
        assert!(err.to_string().starts_with("key-value store error: "));
        let err = Error::state_store(inner());
        assert!(matches!(err, Error::Store { store: "state", .. }));
        assert!(err.to_string().starts_with("state store error: "));
        let err = Error::index_store(inner());
        assert!(err.to_string().starts_with("index store error: "));
    }

    #[test]
    fn not_found_displays_subject() {
        let err = Error::NotFound("block 42".into());
        assert!(err.to_string().contains("block 42"));
    }
}
