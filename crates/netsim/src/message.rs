//! Protocol message kinds and their wire sizes.
//!
//! Network load (Figures 8, 9) is measured in bytes actually moved, so every
//! protocol step must have a defensible wire size: small fixed-size control
//! messages, and body-sized transfers for documents and update deliveries.

use cachecloud_types::ByteSize;

/// Fixed overhead of any protocol message (headers, ids, version).
pub const CONTROL_BYTES: u64 = 256;

/// The messages exchanged by the lookup and update protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Cache → beacon point: "who holds document d?".
    LookupRequest,
    /// Beacon point → cache: the holder list.
    LookupResponse,
    /// A document body moving between caches or from the origin.
    DocTransfer,
    /// Origin → beacon point: an update notice carrying the new body.
    UpdateNotice,
    /// Beacon point → holder: update delivery carrying the new body.
    UpdateDelivery,
    /// Beacon directory records moving after a sub-range handoff.
    DirectoryHandoff,
    /// Cache → beacon point: placement bookkeeping (copy stored/dropped).
    DirectoryRegister,
}

impl MessageKind {
    /// Wire size of this message given the size of the document body it
    /// carries (ignored for control messages).
    pub fn wire_size(self, body: ByteSize) -> ByteSize {
        let control = ByteSize::from_bytes(CONTROL_BYTES);
        match self {
            MessageKind::LookupRequest
            | MessageKind::LookupResponse
            | MessageKind::DirectoryRegister => control,
            MessageKind::DocTransfer | MessageKind::UpdateNotice | MessageKind::UpdateDelivery => {
                control.saturating_add(body)
            }
            MessageKind::DirectoryHandoff => control,
        }
    }

    /// True for messages whose size depends on the document body.
    pub fn carries_body(self) -> bool {
        matches!(
            self,
            MessageKind::DocTransfer | MessageKind::UpdateNotice | MessageKind::UpdateDelivery
        )
    }

    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            MessageKind::LookupRequest => "lookup_request",
            MessageKind::LookupResponse => "lookup_response",
            MessageKind::DocTransfer => "doc_transfer",
            MessageKind::UpdateNotice => "update_notice",
            MessageKind::UpdateDelivery => "update_delivery",
            MessageKind::DirectoryHandoff => "directory_handoff",
            MessageKind::DirectoryRegister => "directory_register",
        }
    }

    /// Number of message kinds.
    pub const COUNT: usize = 7;

    /// This kind's position in [`MessageKind::all`], for per-kind arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// All message kinds, for exhaustive reports.
    pub fn all() -> [MessageKind; Self::COUNT] {
        [
            MessageKind::LookupRequest,
            MessageKind::LookupResponse,
            MessageKind::DocTransfer,
            MessageKind::UpdateNotice,
            MessageKind::UpdateDelivery,
            MessageKind::DirectoryHandoff,
            MessageKind::DirectoryRegister,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_messages_ignore_body() {
        let body = ByteSize::from_mib(1);
        assert_eq!(
            MessageKind::LookupRequest.wire_size(body),
            ByteSize::from_bytes(CONTROL_BYTES)
        );
        assert_eq!(
            MessageKind::DirectoryRegister.wire_size(body),
            ByteSize::from_bytes(CONTROL_BYTES)
        );
    }

    #[test]
    fn transfers_include_body() {
        let body = ByteSize::from_kib(10);
        for kind in [
            MessageKind::DocTransfer,
            MessageKind::UpdateNotice,
            MessageKind::UpdateDelivery,
        ] {
            assert_eq!(
                kind.wire_size(body),
                ByteSize::from_bytes(CONTROL_BYTES + 10 * 1024)
            );
            assert!(kind.carries_body());
        }
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, kind) in MessageKind::all().into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            MessageKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), MessageKind::all().len());
    }
}
