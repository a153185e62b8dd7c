//! The abstract syntax tree for the ECMAScript subset.
//!
//! Names are shared strings, so evaluating a literal or a static property key
//! is a refcount bump. Every identifier carries the [`Binding`] the resolver
//! gave it: the frame slots it may live in, innermost first, and its global
//! slot.
//!
//! Runs of left-associative operators and `else if` chains are flat nodes
//! (`Expr::Chain`, `Stmt::If`), so the height of a tree, which bounds every
//! recursive walk over it, grows only with real nesting.

use std::collections::HashMap;
use std::rc::Rc;

/// Binary arithmetic / comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+` (numeric addition or string concatenation)
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `==` (loose)
    Eq,
    /// `!=` (loose)
    NotEq,
    /// `===`
    StrictEq,
    /// `!==`
    StrictNotEq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
}

/// Short-circuiting logical operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicalOp {
    /// `&&`
    And,
    /// `||`
    Or,
}

/// An operator of an [`Expr::Chain`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operator {
    /// An arithmetic or comparison operator.
    Binary(BinOp),
    /// A short-circuiting logical operator.
    Logical(LogicalOp),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// `-`
    Neg,
    /// `!`
    Not,
    /// `typeof`
    Typeof,
    /// unary `+`
    Plus,
}

/// Compound-assignment flavours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    /// `=`
    Assign,
    /// `+=`
    Add,
    /// `-=`
    Sub,
}

/// `++` / `--`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// `++`
    Increment,
    /// `--`
    Decrement,
}

/// A slot in a function's frame, `hops` frames up the closure chain from the
/// frame an identifier is evaluated in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Frames to walk up: 0 is the current function's frame.
    pub hops: u32,
    /// Index into that frame's slots.
    pub index: u32,
}

/// Where an identifier may live, decided once after parsing.
///
/// `locals` lists the slots of every enclosing function that declares the
/// name, innermost first. A slot counts only once its declaration has run
/// (parameters and `this` are declared on entry), so a lookup takes the first
/// declared candidate and otherwise falls through to `global`, the name's slot
/// in the interpreter's global table.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Binding {
    /// Candidate frame slots, innermost first.
    pub locals: Box<[Slot]>,
    /// The global slot, used when no candidate is declared.
    pub global: u32,
}

/// An identifier and its binding.
#[derive(Debug, Clone, PartialEq)]
pub struct Var {
    /// The name as written.
    pub name: Rc<str>,
    /// Filled in by the resolver.
    pub binding: Binding,
}

impl Var {
    /// An identifier the resolver has not seen yet.
    #[must_use]
    pub fn new(name: Rc<str>) -> Self {
        Var {
            name,
            binding: Binding::default(),
        }
    }
}

/// A property key in a member expression.
#[derive(Debug, Clone, PartialEq)]
pub enum MemberKey {
    /// `obj.name`
    Static(Rc<str>),
    /// `obj[expr]`
    Computed(Box<Expr>),
}

/// A function literal or declaration: its body and frame layout.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Body statements.
    pub body: Vec<Stmt>,
    /// The frame layout: every name the function declares and its slot, the
    /// slots numbered from 0 in declaration order. Parameters come first (a
    /// repeated name shares one slot), then `this`, then every `var` and
    /// function declared in the body outside nested functions.
    pub slots: HashMap<Rc<str>, u32>,
    /// The slot of each parameter, in order.
    pub param_slots: Vec<u32>,
    /// The slot of `this`.
    pub this_slot: u32,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Numeric literal.
    Number(f64),
    /// String literal.
    Str(Rc<str>),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// `undefined`.
    Undefined,
    /// Identifier reference.
    Ident(Var),
    /// Assignment to an identifier or member expression.
    Assign {
        /// The assignment target (identifier or member expression).
        target: Box<Expr>,
        /// The flavour (`=`, `+=`, `-=`).
        op: AssignOp,
        /// The right-hand side.
        value: Box<Expr>,
    },
    /// A run of left-associative binary and logical operators,
    /// `first op1 e1 op2 e2 …`, which groups as `((first op1 e1) op2 e2) …`
    /// and is evaluated left to right in a loop.
    Chain {
        /// The leftmost operand.
        first: Box<Expr>,
        /// Each operator with its right operand, in source order.
        rest: Vec<(Operator, Expr)>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `++x`, `x++`, `--x`, `x--`.
    Update {
        /// `++` or `--`.
        op: UpdateOp,
        /// `true` for the prefix form.
        prefix: bool,
        /// The target (identifier or member expression).
        target: Box<Expr>,
    },
    /// Function call.
    Call {
        /// The callee expression (identifier or member expression).
        callee: Box<Expr>,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// `new Callee(args)`.
    New {
        /// The constructor expression.
        callee: Box<Expr>,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Member access.
    Member {
        /// The object expression.
        object: Box<Expr>,
        /// The property key.
        property: MemberKey,
    },
    /// `cond ? then : else`.
    Conditional {
        /// Condition.
        cond: Box<Expr>,
        /// Value when truthy.
        then: Box<Expr>,
        /// Value when falsy.
        otherwise: Box<Expr>,
    },
    /// Array literal.
    Array(Vec<Expr>),
    /// Object literal (`{key: value, …}`).
    Object(Vec<(Rc<str>, Expr)>),
    /// Function expression (shared so closures are cheap to create).
    Function(Rc<Function>),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// An expression evaluated for its effects.
    Expr(Expr),
    /// `var` / `let` / `const` declaration (all treated as function-scoped `var`).
    VarDecl {
        /// Variable name.
        name: Var,
        /// Optional initializer.
        init: Option<Expr>,
    },
    /// Named function declaration.
    FunctionDecl {
        /// Function name.
        name: Var,
        /// The function.
        function: Rc<Function>,
    },
    /// `return` with an optional value.
    Return(Option<Expr>),
    /// `if (c1) … else if (c2) … else …`: the body of the first arm whose
    /// condition is truthy runs, else `otherwise`.
    If {
        /// Each arm's condition and body, in source order.
        arms: Vec<(Expr, Vec<Stmt>)>,
        /// Optional final `else` body.
        otherwise: Option<Vec<Stmt>>,
    },
    /// `while` loop.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Vec<Stmt>,
    },
    /// Classic `for (init; cond; update)` loop.
    For {
        /// Initializer statement.
        init: Option<Box<Stmt>>,
        /// Loop condition (defaults to true when omitted).
        cond: Option<Expr>,
        /// Update expression.
        update: Option<Expr>,
        /// Body.
        body: Vec<Stmt>,
    },
    /// A `{ … }` block.
    Block(Vec<Stmt>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// An empty statement (`;`).
    Empty,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ast_nodes_are_cloneable_and_comparable() {
        let expr = Expr::Chain {
            first: Box::new(Expr::Number(1.0)),
            rest: vec![(Operator::Binary(BinOp::Add), Expr::Str("x".into()))],
        };
        assert_eq!(expr.clone(), expr);
        let stmt = Stmt::Return(Some(expr));
        assert_eq!(stmt.clone(), stmt);
    }

    #[test]
    fn function_bodies_are_shared() {
        let function = Rc::new(Function {
            body: vec![Stmt::Return(None)],
            slots: HashMap::from([("a".into(), 0), ("this".into(), 1)]),
            param_slots: vec![0],
            this_slot: 1,
        });
        let f1 = Expr::Function(Rc::clone(&function));
        let f2 = f1.clone();
        match (&f1, &f2) {
            (Expr::Function(b1), Expr::Function(b2)) => assert!(Rc::ptr_eq(b1, b2)),
            _ => unreachable!(),
        }
    }
}
