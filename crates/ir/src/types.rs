//! Java/Dalvik-style types carried by the IR.
//!
//! The analysis is type-assisted rather than type-driven: types decide which
//! slots an expression can touch (object vs. primitive) and how call targets
//! resolve through the class hierarchy.

use crate::idx::Symbol;
use std::fmt;

/// A Java-like type as it appears in Dalvik descriptors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JType {
    /// `void` — only valid as a return type.
    Void,
    /// `boolean`
    Boolean,
    /// `byte`
    Byte,
    /// `char`
    Char,
    /// `short`
    Short,
    /// `int`
    Int,
    /// `long`
    Long,
    /// `float`
    Float,
    /// `double`
    Double,
    /// A class or interface type, by interned fully-qualified name.
    Object(Symbol),
    /// A one-dimensional array of the element type.
    ///
    /// Element types are restricted to non-array types so that `JType` stays
    /// `Copy`; multi-dimensional arrays are modeled as arrays of `Object`
    /// wrapper classes by the generator, which is faithful enough for
    /// points-to purposes.
    Array(ArrayElem),
}

/// The element type of an array — a flattened subset of [`JType`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ArrayElem {
    /// Array of primitives (`int[]`, `byte[]`, …).
    Prim(PrimKind),
    /// Array of objects (`Ljava/lang/String;[]`, …).
    Object(Symbol),
}

/// Primitive kinds, used inside [`ArrayElem`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrimKind {
    /// `boolean`
    Boolean,
    /// `byte`
    Byte,
    /// `char`
    Char,
    /// `short`
    Short,
    /// `int`
    Int,
    /// `long`
    Long,
    /// `float`
    Float,
    /// `double`
    Double,
}

impl JType {
    /// Whether values of this type live on the heap (objects and arrays).
    ///
    /// Only reference-typed slots participate in points-to facts; primitive
    /// assignments are identity transfers for the IDFG.
    #[inline]
    pub fn is_reference(&self) -> bool {
        matches!(self, JType::Object(_) | JType::Array(_))
    }

    /// Whether this is a primitive (non-void, non-reference) type.
    #[inline]
    pub fn is_primitive(&self) -> bool {
        !self.is_reference() && !matches!(self, JType::Void)
    }

    /// Object type constructor from an interned class name.
    #[inline]
    pub fn object(name: Symbol) -> Self {
        JType::Object(name)
    }

    /// Object-array type constructor from an interned class name.
    #[inline]
    pub fn object_array(name: Symbol) -> Self {
        JType::Array(ArrayElem::Object(name))
    }

    /// The class name if this is an object type (not an array).
    #[inline]
    pub fn class_name(&self) -> Option<Symbol> {
        match self {
            JType::Object(s) => Some(*s),
            _ => None,
        }
    }

    /// The Dalvik-style one-character descriptor for primitives, or `None`.
    pub fn descriptor_char(&self) -> Option<char> {
        Some(match self {
            JType::Void => 'V',
            JType::Boolean => 'Z',
            JType::Byte => 'B',
            JType::Char => 'C',
            JType::Short => 'S',
            JType::Int => 'I',
            JType::Long => 'J',
            JType::Float => 'F',
            JType::Double => 'D',
            _ => return None,
        })
    }
}

impl fmt::Display for JType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JType::Object(s) => write!(f, "L{s};"),
            JType::Array(ArrayElem::Object(s)) => write!(f, "[L{s};"),
            JType::Array(ArrayElem::Prim(p)) => write!(f, "[{}", prim_char(*p)),
            other => write!(f, "{}", other.descriptor_char().unwrap()),
        }
    }
}

fn prim_char(p: PrimKind) -> char {
    match p {
        PrimKind::Boolean => 'Z',
        PrimKind::Byte => 'B',
        PrimKind::Char => 'C',
        PrimKind::Short => 'S',
        PrimKind::Int => 'I',
        PrimKind::Long => 'J',
        PrimKind::Float => 'F',
        PrimKind::Double => 'D',
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_classification() {
        assert!(JType::Object(Symbol(0)).is_reference());
        assert!(JType::Array(ArrayElem::Prim(PrimKind::Int)).is_reference());
        assert!(!JType::Int.is_reference());
        assert!(!JType::Void.is_reference());
        assert!(JType::Int.is_primitive());
        assert!(!JType::Void.is_primitive());
        assert!(!JType::Object(Symbol(0)).is_primitive());
    }

    #[test]
    fn descriptor_chars() {
        let prims = [
            (JType::Void, 'V'),
            (JType::Boolean, 'Z'),
            (JType::Byte, 'B'),
            (JType::Char, 'C'),
            (JType::Short, 'S'),
            (JType::Int, 'I'),
            (JType::Long, 'J'),
            (JType::Float, 'F'),
            (JType::Double, 'D'),
        ];
        for (t, c) in prims {
            assert_eq!(t.descriptor_char(), Some(c));
        }
        assert_eq!(JType::Object(Symbol(0)).descriptor_char(), None);
    }

    #[test]
    fn display_forms() {
        assert_eq!(JType::Int.to_string(), "I");
        assert_eq!(JType::Object(Symbol(3)).to_string(), "Ls3;");
        assert_eq!(JType::Array(ArrayElem::Prim(PrimKind::Int)).to_string(), "[I");
    }

    #[test]
    fn class_name_extraction() {
        assert_eq!(JType::Object(Symbol(5)).class_name(), Some(Symbol(5)));
        assert_eq!(JType::Int.class_name(), None);
        assert_eq!(JType::object_array(Symbol(5)).class_name(), None);
    }
}
