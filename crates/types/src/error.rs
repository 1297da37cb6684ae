//! The workspace-wide error type.

use crate::ids::{DocId, PageId, TermId};
use std::fmt;

/// Convenient alias used across the workspace.
pub type IrResult<T> = Result<T, IrError>;

/// Errors surfaced by the buffir crates.
///
/// The simulator is in-memory so there are no I/O errors; everything
/// here is a logic-level condition a caller can act on (unknown term,
/// out-of-range page, a buffer pool of zero frames, malformed
/// compressed data).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IrError {
    /// A term id that is not in the lexicon.
    UnknownTerm(TermId),
    /// A term string that is not in the lexicon (e.g. query-time lookup).
    UnknownTermString(String),
    /// A document id outside the collection.
    UnknownDoc(DocId),
    /// A page address past the end of its inverted list.
    PageOutOfRange {
        /// The offending address.
        page: PageId,
        /// Number of pages the list actually has.
        list_len: u32,
    },
    /// The buffer pool was configured with zero frames.
    EmptyBufferPool,
    /// Compressed posting data failed to decode.
    CorruptPage {
        /// The page whose payload failed to decode.
        page: PageId,
        /// Human-readable decoder diagnostic.
        reason: String,
    },
    /// A configuration combination the engine cannot honour.
    InvalidConfig(String),
    /// A page read failed for a reason that may not recur (a fault
    /// injector's transient error, a flaky device): retrying the same
    /// read can succeed.
    TransientRead {
        /// The page whose read failed.
        page: PageId,
        /// Human-readable failure diagnostic.
        reason: String,
    },
    /// A page arrived whose content does not match its checksum (a
    /// torn read); the copy on disk is assumed good, so a re-read can
    /// succeed.
    TornPage {
        /// The page whose delivered image failed verification.
        page: PageId,
    },
    /// A session panicked; carries the panic payload when it was a
    /// string.
    SessionPanicked(String),
}

impl IrError {
    /// Is this a failure a bounded retry of the same operation can
    /// clear? True for [`TransientRead`](IrError::TransientRead) and
    /// [`TornPage`](IrError::TornPage); every other variant is a
    /// deterministic logic condition retrying cannot change.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            IrError::TransientRead { .. } | IrError::TornPage { .. }
        )
    }
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::UnknownTerm(t) => write!(f, "unknown term {t}"),
            IrError::UnknownTermString(s) => write!(f, "term {s:?} not in lexicon"),
            IrError::UnknownDoc(d) => write!(f, "unknown document {d}"),
            IrError::PageOutOfRange { page, list_len } => {
                write!(f, "page {page} out of range (list has {list_len} pages)")
            }
            IrError::EmptyBufferPool => write!(f, "buffer pool must have at least one frame"),
            IrError::CorruptPage { page, reason } => {
                write!(f, "corrupt page {page}: {reason}")
            }
            IrError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            IrError::TransientRead { page, reason } => {
                write!(f, "transient read failure on page {page}: {reason}")
            }
            IrError::TornPage { page } => {
                write!(f, "torn page {page}: content does not match checksum")
            }
            IrError::SessionPanicked(msg) => write!(f, "session panicked: {msg}"),
        }
    }
}

impl std::error::Error for IrError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PageId, TermId};

    #[test]
    fn display_is_informative() {
        let e = IrError::PageOutOfRange {
            page: PageId::new(TermId(3), 9),
            list_len: 4,
        };
        let s = e.to_string();
        assert!(s.contains("t3:p9"));
        assert!(s.contains("4 pages"));
    }

    #[test]
    fn error_trait_object_usable() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&IrError::EmptyBufferPool);
    }

    #[test]
    fn transience_splits_retryable_from_terminal() {
        let page = PageId::new(TermId(1), 2);
        assert!(IrError::TransientRead {
            page,
            reason: "injected".into()
        }
        .is_transient());
        assert!(IrError::TornPage { page }.is_transient());
        assert!(!IrError::EmptyBufferPool.is_transient());
        assert!(!IrError::UnknownTerm(TermId(0)).is_transient());
        assert!(!IrError::SessionPanicked("boom".into()).is_transient());
    }
}
