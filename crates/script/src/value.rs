//! Runtime values and the object heap.

use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::ast::Function;

/// A handle to a heap object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjId(pub(crate) usize);

/// A runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `undefined`
    Undefined,
    /// `null`
    Null,
    /// Boolean.
    Bool(bool),
    /// IEEE-754 double, like JavaScript numbers.
    Number(f64),
    /// String, shared: copying a string value is a refcount bump.
    Str(Rc<str>),
    /// Reference to a heap object (plain object, array, function, or native object).
    Object(ObjId),
}

impl Value {
    /// JavaScript truthiness.
    #[must_use]
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Undefined | Value::Null => false,
            Value::Bool(b) => *b,
            Value::Number(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Object(_) => true,
        }
    }

    /// The string slice when this is a string value.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value when this is a number.
    #[must_use]
    pub fn as_number(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The `typeof` string for this value.
    #[must_use]
    pub fn type_of(&self) -> &'static str {
        match self {
            Value::Undefined => "undefined",
            Value::Null => "object",
            Value::Bool(_) => "boolean",
            Value::Number(_) => "number",
            Value::Str(_) => "string",
            Value::Object(_) => "object",
        }
    }

    /// Numeric coercion (JavaScript-ish: booleans become 0/1, numeric strings parse,
    /// everything else is NaN).
    #[must_use]
    pub fn to_number(&self) -> f64 {
        match self {
            Value::Undefined => f64::NAN,
            Value::Null => 0.0,
            Value::Bool(true) => 1.0,
            Value::Bool(false) => 0.0,
            Value::Number(n) => *n,
            Value::Str(s) => {
                let trimmed = s.trim();
                if trimmed.is_empty() {
                    0.0
                } else {
                    trimmed.parse().unwrap_or(f64::NAN)
                }
            }
            Value::Object(_) => f64::NAN,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Undefined => f.write_str("undefined"),
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Number(n) => {
                if n.fract() == 0.0 && n.is_finite() && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => f.write_str(s),
            Value::Object(_) => f.write_str("[object Object]"),
        }
    }
}

/// A native (browser-provided) object the interpreter knows about. The payload is an
/// opaque handle owned by the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeTag {
    /// The global `document` object.
    Document,
    /// A DOM node handle.
    Node(u64),
    /// An `XMLHttpRequest` instance.
    Xhr(u64),
    /// The `history` object (browser state).
    History,
    /// The `console` object.
    Console,
    /// The `window` object.
    Window,
}

/// Built-in (native) functions. Each is dispatched by the interpreter with its bound
/// `this` value and routed to the [`Host`](crate::Host).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeFn {
    /// `document.getElementById(id)`
    GetElementById,
    /// `document.getElementsByTagName(tag)`
    GetElementsByTagName,
    /// `document.createElement(tag)`
    CreateElement,
    /// `document.createTextNode(text)`
    CreateTextNode,
    /// `document.write(html)`
    DocumentWrite,
    /// `node.appendChild(child)`
    AppendChild,
    /// `node.removeChild(child)`
    RemoveChild,
    /// `node.setAttribute(name, value)`
    SetAttribute,
    /// `node.getAttribute(name)`
    GetAttribute,
    /// `new XMLHttpRequest()`
    XhrConstructor,
    /// `xhr.open(method, url)`
    XhrOpen,
    /// `xhr.setRequestHeader(name, value)`
    XhrSetRequestHeader,
    /// `xhr.send(body)`
    XhrSend,
    /// `history.back()`
    HistoryBack,
    /// `alert(message)`
    Alert,
    /// `console.log(...)`
    ConsoleLog,
    /// `array.push(value)`
    ArrayPush,
    /// `string/array.indexOf(needle)`
    IndexOf,
}

/// What a function object runs when called.
#[derive(Debug, Clone)]
pub enum Callable {
    /// A user-defined function (closure over the frame `scope`).
    User {
        /// The function's parameters, body and frame layout.
        function: Rc<Function>,
        /// The frame the function closes over.
        scope: u32,
    },
    /// A built-in function.
    Native(NativeFn),
}

/// A heap object: properties, optional array storage, optional callable, optional
/// native identity.
#[derive(Debug, Clone, Default)]
pub struct Obj {
    /// Named properties.
    pub props: HashMap<Rc<str>, Value>,
    /// Dense array elements (for array objects).
    pub elements: Option<Vec<Value>>,
    /// What calling this object does, if it is callable.
    pub callable: Option<Callable>,
    /// The native identity, if this object is provided by the browser.
    pub native: Option<NativeTag>,
}

impl Obj {
    /// A plain object.
    #[must_use]
    pub fn plain() -> Self {
        Obj::default()
    }

    /// An array object with the given elements.
    #[must_use]
    pub fn array(elements: Vec<Value>) -> Self {
        Obj {
            elements: Some(elements),
            ..Obj::default()
        }
    }

    /// A native object with the given tag.
    #[must_use]
    pub fn native(tag: NativeTag) -> Self {
        Obj {
            native: Some(tag),
            ..Obj::default()
        }
    }

    /// A native function.
    #[must_use]
    pub fn native_fn(function: NativeFn) -> Self {
        Obj {
            callable: Some(Callable::Native(function)),
            ..Obj::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness_matches_javascript() {
        assert!(!Value::Undefined.is_truthy());
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Number(0.0).is_truthy());
        assert!(!Value::Number(f64::NAN).is_truthy());
        assert!(!Value::Str("".into()).is_truthy());
        assert!(Value::Bool(true).is_truthy());
        assert!(Value::Number(-1.5).is_truthy());
        assert!(Value::Str("0".into()).is_truthy());
        assert!(Value::Object(ObjId(0)).is_truthy());
    }

    #[test]
    fn numeric_coercion() {
        assert_eq!(Value::Null.to_number(), 0.0);
        assert_eq!(Value::Bool(true).to_number(), 1.0);
        assert_eq!(Value::Str(" 42 ".into()).to_number(), 42.0);
        assert_eq!(Value::Str("".into()).to_number(), 0.0);
        assert!(Value::Str("abc".into()).to_number().is_nan());
        assert!(Value::Undefined.to_number().is_nan());
    }

    #[test]
    fn display_formats_integers_without_fraction() {
        assert_eq!(Value::Number(3.0).to_string(), "3");
        assert_eq!(Value::Number(3.25).to_string(), "3.25");
        assert_eq!(Value::Str("x".into()).to_string(), "x");
        assert_eq!(Value::Undefined.to_string(), "undefined");
    }

    #[test]
    fn typeof_strings() {
        assert_eq!(Value::Undefined.type_of(), "undefined");
        assert_eq!(Value::Null.type_of(), "object");
        assert_eq!(Value::Number(1.0).type_of(), "number");
        assert_eq!(Value::Str("s".into()).type_of(), "string");
        assert_eq!(Value::Bool(true).type_of(), "boolean");
        assert_eq!(Value::Object(ObjId(3)).type_of(), "object");
    }

    #[test]
    fn object_constructors() {
        let arr = Obj::array(vec![Value::Number(1.0)]);
        assert_eq!(arr.elements.as_ref().unwrap().len(), 1);
        let doc = Obj::native(NativeTag::Document);
        assert_eq!(doc.native, Some(NativeTag::Document));
        let f = Obj::native_fn(NativeFn::Alert);
        assert!(matches!(
            f.callable,
            Some(Callable::Native(NativeFn::Alert))
        ));
    }
}
