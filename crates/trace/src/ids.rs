//! Hashed identifiers.
//!
//! The released dataset hashes every identifier (pod, function, user,
//! request) for privacy. We mirror that: identifiers are opaque 64-bit
//! values, read from the dataset's hashed columns or assigned directly
//! (synthetic traces).

use serde::{Deserialize, Serialize};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
        )]
        pub struct $name(u64);

        impl $name {
            /// Wraps a raw 64-bit identifier.
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw 64-bit value.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{:016x}", self.0)
            }
        }
    };
}

id_type!(
    /// Hashed function identifier.
    FunctionId
);
id_type!(
    /// Hashed pod identifier.
    PodId
);
id_type!(
    /// Hashed user (function owner) identifier.
    UserId
);
id_type!(
    /// Hashed request identifier.
    RequestId
);

/// Data-center region identifier (R1..R5 in the paper; arbitrary count here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RegionId(u16);

impl RegionId {
    /// Creates a region identifier (1-based, matching the paper's R1..R5).
    pub const fn new(index: u16) -> Self {
        Self(index)
    }

    /// Returns the numeric index.
    pub const fn index(self) -> u16 {
        self.0
    }

    /// Returns the paper-style label, e.g. `"R1"`.
    pub fn label(self) -> String {
        format!("R{}", self.0)
    }
}

impl std::fmt::Display for RegionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// Cluster index within a region (each region has four clusters in the
/// paper's platform).
pub type ClusterId = u8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_roundtrip_and_display() {
        let id = PodId::new(0xdead_beef);
        assert_eq!(id.raw(), 0xdead_beef);
        assert_eq!(id.to_string(), "00000000deadbeef");
        let r = RegionId::new(3);
        assert_eq!(r.index(), 3);
        assert_eq!(r.label(), "R3");
        assert_eq!(r.to_string(), "R3");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(UserId::new(1));
        set.insert(UserId::new(1));
        set.insert(UserId::new(2));
        assert_eq!(set.len(), 2);
        assert!(RequestId::new(1) < RequestId::new(2));
    }
}
