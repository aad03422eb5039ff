//! Dense index newtypes used across the IR and all downstream analyses.
//!
//! Every entity (class, method, field, local variable, statement) is
//! identified by a `u32`-backed newtype. Dense indices keep downstream data
//! structures (CFG adjacency, fact matrices, GPU buffers) flat and
//! allocation-free, which is the property the paper's MAT optimization
//! depends on.

use std::fmt;

/// Declares a `u32`-backed dense index newtype with the common conversions.
macro_rules! index_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name(pub u32);

        impl $name {
            /// Creates an index from a raw `usize`, panicking on overflow.
            #[inline]
            pub fn new(raw: usize) -> Self {
                debug_assert!(raw <= u32::MAX as usize, "index overflow");
                Self(raw as u32)
            }

            /// Returns the raw index as a `usize`, suitable for slice indexing.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u32 {
            #[inline]
            fn from(idx: $name) -> u32 {
                idx.0
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(idx: $name) -> usize {
                idx.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

index_type!(
    /// Identifies a class within a [`crate::Program`].
    ClassId,
    "C"
);
index_type!(
    /// Identifies a method within a [`crate::Program`].
    MethodId,
    "M"
);
index_type!(
    /// Identifies a field declaration within a [`crate::Program`].
    FieldId,
    "F"
);
index_type!(
    /// Identifies a local variable (or parameter) within one method body.
    VarId,
    "v"
);
index_type!(
    /// Identifies a statement within one method body (its position).
    StmtIdx,
    "L"
);
index_type!(
    /// An interned string. Symbols are only meaningful relative to the
    /// [`crate::Interner`] that produced them.
    Symbol,
    "s"
);

/// A strongly typed, growable vector indexed by one of the dense index types.
///
/// This is a thin wrapper over `Vec<T>` that only accepts the matching index
/// newtype, preventing cross-entity index mixups at compile time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndexVec<I, T> {
    raw: Vec<T>,
    _marker: std::marker::PhantomData<fn(I)>,
}

impl<I, T> Default for IndexVec<I, T> {
    fn default() -> Self {
        Self { raw: Vec::new(), _marker: std::marker::PhantomData }
    }
}

impl<I: Into<usize> + From<u32> + Copy + 'static, T> IndexVec<I, T> {
    /// Creates an empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty vector with space reserved for `cap` elements.
    pub fn with_capacity(cap: usize) -> Self {
        Self { raw: Vec::with_capacity(cap), _marker: std::marker::PhantomData }
    }

    /// Appends an element and returns its index.
    pub fn push(&mut self, value: T) -> I {
        let idx = I::from(self.raw.len() as u32);
        self.raw.push(value);
        idx
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Immutable access by typed index.
    pub fn get(&self, idx: I) -> Option<&T> {
        self.raw.get(idx.into())
    }

    /// Iterates over `(index, element)` pairs.
    pub fn iter_enumerated(&self) -> impl Iterator<Item = (I, &T)> {
        self.raw.iter().enumerate().map(|(i, t)| (I::from(i as u32), t))
    }

    /// Iterates over elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.raw.iter()
    }

    /// Iterates over all valid indices.
    pub fn indices(&self) -> impl Iterator<Item = I> + 'static {
        (0..self.raw.len() as u32).map(I::from)
    }

    /// Returns the underlying slice.
    pub fn as_slice(&self) -> &[T] {
        &self.raw
    }
}

impl<I: Into<usize> + From<u32> + Copy, T> std::ops::Index<I> for IndexVec<I, T> {
    type Output = T;

    #[inline]
    fn index(&self, idx: I) -> &T {
        &self.raw[idx.into()]
    }
}

impl<I: Into<usize> + From<u32> + Copy, T> std::ops::IndexMut<I> for IndexVec<I, T> {
    #[inline]
    fn index_mut(&mut self, idx: I) -> &mut T {
        &mut self.raw[idx.into()]
    }
}

impl<I, T> FromIterator<T> for IndexVec<I, T> {
    fn from_iter<It: IntoIterator<Item = T>>(iter: It) -> Self {
        Self { raw: iter.into_iter().collect(), _marker: std::marker::PhantomData }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let idx = StmtIdx::new(42);
        assert_eq!(idx.index(), 42);
        assert_eq!(u32::from(idx), 42);
        assert_eq!(StmtIdx::from(42u32), idx);
    }

    #[test]
    fn index_display_uses_prefix() {
        assert_eq!(format!("{}", StmtIdx(7)), "L7");
        assert_eq!(format!("{}", MethodId(3)), "M3");
        assert_eq!(format!("{:?}", VarId(0)), "v0");
    }

    #[test]
    fn index_vec_push_and_lookup() {
        let mut v: IndexVec<VarId, &str> = IndexVec::new();
        let a = v.push("a");
        let b = v.push("b");
        assert_eq!(v[a], "a");
        assert_eq!(v[b], "b");
        assert_eq!(v.len(), 2);
        let collected: Vec<_> = v.iter_enumerated().map(|(i, t)| (i.index(), *t)).collect();
        assert_eq!(collected, vec![(0, "a"), (1, "b")]);
    }

    #[test]
    fn index_vec_indices_iterate_in_order() {
        let v: IndexVec<StmtIdx, i32> = (0..5).collect();
        let idxs: Vec<usize> = v.indices().map(|i| i.index()).collect();
        assert_eq!(idxs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ordering_matches_raw() {
        assert!(StmtIdx(1) < StmtIdx(2));
        assert_eq!(StmtIdx::default(), StmtIdx(0));
    }
}
