//! Error type for the social layer.

use dosn_crypto::CryptoError;
use std::error::Error;
use std::fmt;

/// Errors produced by the DOSN social layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DosnError {
    /// A cryptographic operation failed.
    Crypto(CryptoError),
    /// The named user does not exist.
    UnknownUser(String),
    /// The name is already registered.
    NameTaken(String),
    /// The named group does not exist.
    UnknownGroup(String),
    /// The caller is not authorized for the operation.
    NotAuthorized(String),
    /// An integrity check failed (tampering, forgery, reordering).
    IntegrityViolation(String),
    /// A stored record could not be parsed as a signed envelope
    /// (truncated, bad framing, or an unsupported wire format).
    MalformedEnvelope(String),
    /// Two parties discovered inconsistent (forked) histories.
    ForkDetected(String),
    /// The requested content does not exist or is unreachable.
    ContentUnavailable(String),
    /// A search or routing operation failed.
    Search(String),
    /// An invalid argument (a self-edge, an out-of-range trust, a non-friend).
    InvalidArgument(String),
}

impl fmt::Display for DosnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DosnError::Crypto(e) => write!(f, "crypto failure: {e}"),
            DosnError::UnknownUser(u) => write!(f, "unknown user {u:?}"),
            DosnError::NameTaken(u) => write!(f, "name {u:?} is already registered"),
            DosnError::UnknownGroup(g) => write!(f, "unknown group {g:?}"),
            DosnError::NotAuthorized(what) => write!(f, "not authorized: {what}"),
            DosnError::IntegrityViolation(what) => write!(f, "integrity violation: {what}"),
            DosnError::MalformedEnvelope(what) => write!(f, "malformed envelope: {what}"),
            DosnError::ForkDetected(what) => write!(f, "fork detected: {what}"),
            DosnError::ContentUnavailable(what) => write!(f, "content unavailable: {what}"),
            DosnError::Search(what) => write!(f, "search failed: {what}"),
            DosnError::InvalidArgument(what) => write!(f, "invalid argument: {what}"),
        }
    }
}

impl Error for DosnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DosnError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for DosnError {
    fn from(e: CryptoError) -> Self {
        DosnError::Crypto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = DosnError::from(CryptoError::InvalidSignature);
        assert!(e.to_string().contains("crypto failure"));
        assert!(e.source().is_some());
        assert!(DosnError::UnknownUser("x".into()).source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Error + Send + Sync + 'static>() {}
        assert_bounds::<DosnError>();
    }
}
