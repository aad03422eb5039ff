//! Textual serialization of the IR: the `.jil` format.
//!
//! `.jil` (*Jawa-like Intermediate Language*) is a line-oriented, keyword-
//! delimited format designed so that generated corpora can be stored on disk,
//! diffed, and inspected. The grammar (informal):
//!
//! ```text
//! program   := { class }
//! class     := ".class" path [":" path] ["interface"]
//!              { field } { method } ".endclass"
//! field     := ".field" ident type ("static" | "instance")
//! method    := ".method" ident "(" { type } ")" type kind vis
//!              { ".var" ident type } { stmt } ".end"
//! kind      := "instance" | "static" | "ctor" | "lifecycle" | "environment"
//! vis       := "public" | "protected" | "private"
//! type      := "int" | "long" | "float" | "double" | "bool" | "byte"
//!            | "char" | "short" | "void" | "obj" path | "arr" elem
//! stmt      := "nop" | "monitor" ("enter"|"exit") var | "throw" var
//!            | "goto" int | "if" var "goto" int
//!            | "return" (var | "_")
//!            | "switch" var "(" { int } ")" "default" int
//!            | "call" callkind path ident "(" { type } ")" type
//!              "args" "(" { var } ")" "ret" (var | "_")
//!            | lhs "=" expr
//! lhs       := var | var "." fieldref | var "[" var "]" | fieldref
//! fieldref  := "{" path ident "}"
//! expr      := "new" type | "null" | "constclass" type | "lit" literal
//!            | "cast" type var | "instanceof" var type | "length" var
//!            | "neg" var | "not" var | "exception" | "callrhs" var
//!            | "tuple" "(" { var } ")"
//!            | ("cmp"|"cmpl"|"cmpg") var var
//!            | var [ binop var | "." fieldref | "[" var "]" ]
//!            | fieldref
//! ```
//!
//! Statement jump targets are absolute statement indices within the method.
//! The printer and parser round-trip: `parse(print(p)) == p` structurally
//! (verified by property tests).

mod lexer;
mod parser;
mod printer;

pub use lexer::LexError;
pub use parser::{parse_program, ParseError};
pub use printer::{print_program, print_program_into};
