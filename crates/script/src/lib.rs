//! # escudo-script
//!
//! A small but real ECMAScript-subset interpreter used as the scripting engine of the
//! ESCUDO browser reproduction (standing in for Rhino inside the Lobo prototype).
//!
//! The language subset covers what the paper's principals do: declare variables and
//! functions, manipulate the DOM through `document`, read and write `document.cookie`,
//! issue AJAX requests with `new XMLHttpRequest()`, and poke at `history`. All of those
//! effects go through the [`Host`] trait; the browser implements `Host` and interposes
//! the ESCUDO Reference Monitor on **every** call, so a script's privileges are exactly
//! the privileges of its ring. A denied host call surfaces as a script exception (and
//! aborts the script, since the subset has no `try`/`catch`), mirroring how the
//! prototype's embedded checks stop an unauthorized access.
//!
//! # Pipeline
//!
//! [`Interpreter::run`] does work in proportion to a script's tokens and
//! operations:
//!
//! 1. [`lexer`] scans the source by byte offset; identifiers and strings
//!    without escapes borrow from it.
//! 2. [`parser`] moves tokens into the tree, records each function's frame
//!    layout (parameters, `this`, declared names), and refuses trees taller
//!    than [`interp::MAX_NESTING`].
//! 3. A resolver pass gives every identifier its candidate frame slots and its
//!    global slot, so the evaluator never hashes a name.
//! 4. [`interp`] walks the tree. Strings are shared (`Rc<str>`), call frames
//!    return to a free list unless a closure captured them, and every limit
//!    (steps, bytes, nesting, call depth) fails closed with a typed
//!    [`ScriptError`]; the module docs describe the slot model and the limits.
//!
//! # Example
//!
//! ```
//! use escudo_script::{Interpreter, MockHost};
//!
//! let mut host = MockHost::new();
//! host.add_element("greeting", "div", "hello");
//! let mut interp = Interpreter::new(&mut host);
//! let value = interp
//!     .run("var el = document.getElementById('greeting'); el.innerHTML = 'updated'; el.innerHTML;")
//!     .unwrap();
//! assert_eq!(value.as_str(), Some("updated"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ast;
pub mod error;
pub mod host;
pub mod interp;
pub mod lexer;
pub mod parser;
mod resolve;
pub mod value;

pub use error::ScriptError;
pub use host::{Host, HostError, HostNodeId, HostXhrId, MockHost, XhrOutcome};
pub use interp::Interpreter;
pub use value::Value;
