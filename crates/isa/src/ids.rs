//! Identifier newtypes used across the GPUMech crates.
//!
//! These provide static distinction between the various integer indices that
//! flow through the simulators (C-NEWTYPE): a warp index can never be passed
//! where a core index is expected.

use std::fmt;

use serde::{Deserialize, Serialize};

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default,
            Serialize, Deserialize,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Creates the identifier from a raw index.
            #[must_use]
            pub fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw index.
            #[must_use]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> u32 {
                id.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_newtype!(
    /// Index of a warp within a kernel launch (grid-global, not per-core).
    WarpId,
    "w"
);
id_newtype!(
    /// Index of a thread block within the launch grid.
    BlockId,
    "b"
);

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_display() {
        let w = WarpId::new(7);
        assert_eq!(w.index(), 7);
        assert_eq!(u32::from(w), 7);
        assert_eq!(WarpId::from(7), w);
        assert_eq!(w.to_string(), "w7");
        assert_eq!(BlockId::new(11).to_string(), "b11");
    }

    #[test]
    fn ordering_follows_raw_index() {
        assert!(WarpId::new(1) < WarpId::new(2));
        assert_eq!(WarpId::default(), WarpId::new(0));
    }
}
