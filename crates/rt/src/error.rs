//! Typed errors for the real-UDP runtime.

use std::fmt;
use std::io;

/// Everything that can go wrong inside the real-UDP runtime.
///
/// Every public fallible function in `adamant-rt` returns this instead of
/// a bare [`io::Error`], so callers can tell a failed bind from a dead
/// socket from a crashed worker without string-matching. The underlying
/// [`io::Error`] (where there is one) is preserved as the
/// [`source`](std::error::Error::source).
#[derive(Debug)]
#[non_exhaustive]
pub enum RtError {
    /// Binding the UDP socket failed.
    Bind(io::Error),
    /// Reading the socket's bound address failed.
    Addr(io::Error),
    /// Writing a datagram failed with a hard error (anything other than
    /// flow-control or ICMP-unreachable noise, which the runtime absorbs).
    Send(io::Error),
    /// Reading from the socket failed with a hard error.
    Recv(io::Error),
    /// A cluster worker thread panicked; the endpoints of that shard and
    /// their reports are lost.
    ShardPanicked {
        /// Index of the worker that panicked (0-based).
        shard: usize,
    },
    /// A cluster endpoint id did not resolve to a live endpoint (out of
    /// range, or its shard was lost to a panic).
    UnknownEndpoint {
        /// The index that failed to resolve.
        index: usize,
    },
    /// An endpoint was refused: the cluster holds as many as an index can
    /// number.
    TooManyEndpoints {
        /// Most endpoints one cluster holds.
        max: usize,
    },
    /// An I/O error outside the bind/send/recv paths (catch-all used by
    /// the blanket [`From<io::Error>`] conversion).
    Io(io::Error),
}

impl fmt::Display for RtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtError::Bind(e) => write!(f, "binding UDP socket: {e}"),
            RtError::Addr(e) => write!(f, "reading bound socket address: {e}"),
            RtError::Send(e) => write!(f, "sending datagram: {e}"),
            RtError::Recv(e) => write!(f, "receiving datagram: {e}"),
            RtError::ShardPanicked { shard } => {
                write!(f, "cluster worker {shard} panicked; its shard is lost")
            }
            RtError::UnknownEndpoint { index } => {
                write!(f, "no live endpoint at index {index}")
            }
            RtError::TooManyEndpoints { max } => {
                write!(f, "a cluster holds at most {max} endpoints")
            }
            RtError::Io(e) => write!(f, "runtime I/O: {e}"),
        }
    }
}

impl std::error::Error for RtError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RtError::Bind(e)
            | RtError::Addr(e)
            | RtError::Send(e)
            | RtError::Recv(e)
            | RtError::Io(e) => Some(e),
            RtError::ShardPanicked { .. }
            | RtError::UnknownEndpoint { .. }
            | RtError::TooManyEndpoints { .. } => None,
        }
    }
}

impl From<io::Error> for RtError {
    fn from(e: io::Error) -> Self {
        RtError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn displays_carry_context_and_sources() {
        let e = RtError::Bind(io::Error::new(io::ErrorKind::AddrInUse, "taken"));
        assert!(e.to_string().contains("binding"));
        assert!(e.source().is_some());
        let p = RtError::ShardPanicked { shard: 3 };
        assert!(p.to_string().contains("worker 3"));
        assert!(p.source().is_none());
    }

    #[test]
    fn io_errors_convert_via_from() {
        let e: RtError = io::Error::other("x").into();
        assert!(matches!(e, RtError::Io(_)));
    }
}
