//! Error type for communicator operations.

use std::fmt;

/// Errors produced by point-to-point or collective operations.
#[derive(Debug)]
pub enum CommError {
    /// The peer's endpoint has been dropped (its rank body returned early or
    /// panicked), so the message can never be delivered or received.
    Disconnected {
        /// Rank of the unreachable peer.
        peer: usize,
    },
    /// A rank index outside `0..size` was supplied.
    InvalidRank {
        /// The offending rank.
        rank: usize,
        /// The communicator size.
        size: usize,
    },
    /// A blocking receive exceeded its deadline. On a network backend this is
    /// how a dead or wedged peer is detected (the read deadline doubles as a
    /// failure detector).
    Timeout {
        /// Rank of the unresponsive peer.
        peer: usize,
    },
    /// A frame arrived malformed: bad magic, an oversized length prefix, or a
    /// payload that does not decode as the expected shape.
    Protocol {
        /// Rank of the peer that sent the offending frame.
        peer: usize,
        /// Human-readable description of the violation.
        detail: String,
    },
    /// A transport-level I/O failure outside any single peer conversation
    /// (bind, accept, connect exhausting its retry budget).
    Io(String),
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Disconnected { peer } => {
                write!(f, "peer rank {peer} disconnected")
            }
            CommError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            CommError::Timeout { peer } => {
                write!(f, "timed out waiting for peer rank {peer}")
            }
            CommError::Protocol { peer, detail } => {
                write!(f, "protocol violation from peer rank {peer}: {detail}")
            }
            CommError::Io(detail) => write!(f, "transport I/O error: {detail}"),
        }
    }
}

impl std::error::Error for CommError {}

/// Result alias for communicator operations.
pub type CommResult<T> = Result<T, CommError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats_are_informative() {
        let d = CommError::Disconnected { peer: 3 };
        assert!(d.to_string().contains("rank 3"));
        let t = CommError::Protocol {
            peer: 1,
            detail: "frame length 42 exceeds cap".into(),
        };
        assert!(t.to_string().contains("rank 1"));
        assert!(t.to_string().contains("42"));
        let r = CommError::InvalidRank { rank: 9, size: 4 };
        assert!(r.to_string().contains('9'));
        assert!(r.to_string().contains('4'));
    }

    #[test]
    fn error_trait_object_is_constructible() {
        let e: Box<dyn std::error::Error> = Box::new(CommError::Disconnected { peer: 0 });
        assert!(e.source().is_none());
    }
}
