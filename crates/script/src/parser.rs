//! The recursive-descent / Pratt parser for the ECMAScript subset.
//!
//! Tokens are moved out of the token vector, never cloned. While parsing a
//! function the parser records every name the function declares (parameters,
//! `this`, `var`s and nested function declarations) in the function's frame
//! layout, which the resolver later turns into slot indices.
//!
//! One bound, [`MAX_NESTING`], limits both the parser's recursion (nested
//! parentheses, brackets, braces, unary chains, right-associative assignment
//! and conditional chains, nested blocks and function bodies) and the height
//! of every tree it builds. The evaluator and the resolver recurse once per
//! tree level, so the same bound limits their recursion per call. Runs of
//! left-associative operators and `else if` chains are flat nodes that every
//! walk handles in a loop, so they add one level however long they are;
//! member and call chains (`a.b[c](d)`) nest, one level per link.

use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::{
    AssignOp, BinOp, Expr, Function, LogicalOp, MemberKey, Operator, Stmt, UnOp, UpdateOp, Var,
};
use crate::error::ScriptError;
use crate::interp::MAX_NESTING;
use crate::lexer::{tokenize, Tok};

/// Parses a complete program into a list of statements. Identifiers are not
/// resolved yet; [`Interpreter::run`](crate::Interpreter::run) resolves them.
///
/// # Errors
///
/// Returns [`ScriptError::Lex`] or [`ScriptError::Parse`] for malformed input,
/// and [`ScriptError::NestingLimitExceeded`] for input nested deeper than
/// [`MAX_NESTING`].
pub fn parse_program(source: &str) -> Result<Vec<Stmt>, ScriptError> {
    let tokens = tokenize(source)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
        functions: Vec::new(),
    };
    let mut statements = Vec::new();
    while !parser.check(&Tok::Eof) {
        statements.push(parser.statement()?.0);
    }
    Ok(statements)
}

/// An expression or statement and the height of its tree.
type Parsed<T> = Result<(T, u32), ScriptError>;

/// The frame layout of a function being parsed: each declared name and its
/// slot (see [`Function::slots`]).
type Layout = HashMap<Rc<str>, u32>;

/// The slot of `name` in `layout`, declaring it in the next free slot if it
/// is new.
fn declare(layout: &mut Layout, name: &Rc<str>) -> u32 {
    if let Some(&slot) = layout.get(name) {
        return slot;
    }
    let slot = layout.len() as u32;
    layout.insert(Rc::clone(name), slot);
    slot
}

struct Parser<'a> {
    tokens: Vec<Tok<'a>>,
    pos: usize,
    /// Nesting of recursive parse calls in progress.
    depth: u32,
    /// Layouts of the functions being parsed, innermost last.
    functions: Vec<Layout>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok<'a> {
        self.tokens.get(self.pos).unwrap_or(&Tok::Eof)
    }

    fn advance(&mut self) -> Tok<'a> {
        match self.tokens.get_mut(self.pos) {
            Some(token) => {
                self.pos += 1;
                std::mem::replace(token, Tok::Eof)
            }
            None => Tok::Eof,
        }
    }

    fn check(&self, expected: &Tok<'_>) -> bool {
        self.peek() == expected
    }

    fn eat(&mut self, expected: &Tok<'_>) -> bool {
        if self.check(expected) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, expected: &Tok<'_>, context: &str) -> Result<(), ScriptError> {
        if self.eat(expected) {
            Ok(())
        } else {
            Err(self.error(format!(
                "expected {expected:?} {context}, found {:?}",
                self.peek()
            )))
        }
    }

    fn error(&self, message: String) -> ScriptError {
        ScriptError::Parse {
            message,
            position: self.pos,
        }
    }

    fn ident(&mut self, context: &str) -> Result<&'a str, ScriptError> {
        match self.advance() {
            Tok::Ident(name) => Ok(name),
            other => Err(self.error(format!("expected identifier {context}, found {other:?}"))),
        }
    }

    /// Enters one level of parser recursion.
    fn enter(&mut self) -> Result<(), ScriptError> {
        self.depth += 1;
        if self.depth > MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(())
    }

    fn leave(&mut self) {
        self.depth -= 1;
    }

    /// The height of a new node over children of height `below`.
    fn node(&self, below: u32) -> Result<u32, ScriptError> {
        if below >= MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(below + 1)
    }

    fn too_deep(&self) -> ScriptError {
        ScriptError::NestingLimitExceeded { position: self.pos }
    }

    /// A declaration of `name` in the innermost function being parsed (at the
    /// top level, declarations are globals and need no slot).
    fn declaration(&mut self, name: &'a str) -> Var {
        let shared: Rc<str> = Rc::from(name);
        if let Some(layout) = self.functions.last_mut() {
            declare(layout, &shared);
        }
        Var::new(shared)
    }

    // -------------------------------------------------------------- statements

    fn statement(&mut self) -> Parsed<Stmt> {
        self.enter()?;
        let parsed = self.statement_inner();
        self.leave();
        parsed
    }

    fn statement_inner(&mut self) -> Parsed<Stmt> {
        match self.peek() {
            Tok::Semi => {
                self.advance();
                Ok((Stmt::Empty, 1))
            }
            Tok::Var | Tok::Let | Tok::Const => {
                self.advance();
                let stmt = self.var_declaration()?;
                self.eat(&Tok::Semi);
                Ok(stmt)
            }
            Tok::Function => {
                self.advance();
                let name = self.ident("after `function`")?;
                let name = self.declaration(name);
                let (function, height) = self.function_rest()?;
                Ok((
                    Stmt::FunctionDecl {
                        name,
                        function: Rc::new(function),
                    },
                    self.node(height)?,
                ))
            }
            Tok::Return => {
                self.advance();
                if self.eat(&Tok::Semi) || self.check(&Tok::RBrace) || self.check(&Tok::Eof) {
                    return Ok((Stmt::Return(None), 1));
                }
                let (value, height) = self.expression()?;
                self.eat(&Tok::Semi);
                Ok((Stmt::Return(Some(value)), self.node(height)?))
            }
            Tok::If => {
                // `else if` arms are read in this loop, not by recursion.
                let mut arms = Vec::new();
                let mut below = 0;
                let mut otherwise = None;
                while self.eat(&Tok::If) {
                    self.expect(&Tok::LParen, "after `if`")?;
                    let (cond, cond_height) = self.expression()?;
                    self.expect(&Tok::RParen, "after if condition")?;
                    let (body, body_height) = self.block_or_single()?;
                    arms.push((cond, body));
                    below = below.max(cond_height).max(body_height);
                    if !self.eat(&Tok::Else) {
                        break;
                    }
                    if !self.check(&Tok::If) {
                        let (body, body_height) = self.block_or_single()?;
                        otherwise = Some(body);
                        below = below.max(body_height);
                        break;
                    }
                }
                Ok((Stmt::If { arms, otherwise }, self.node(below)?))
            }
            Tok::While => {
                self.advance();
                self.expect(&Tok::LParen, "after `while`")?;
                let (cond, cond_height) = self.expression()?;
                self.expect(&Tok::RParen, "after while condition")?;
                let (body, body_height) = self.block_or_single()?;
                let height = self.node(cond_height.max(body_height))?;
                Ok((Stmt::While { cond, body }, height))
            }
            Tok::For => {
                self.advance();
                self.expect(&Tok::LParen, "after `for`")?;
                let mut below = 0;
                let init = if self.eat(&Tok::Semi) {
                    None
                } else {
                    let (stmt, height) = if matches!(self.peek(), Tok::Var | Tok::Let | Tok::Const)
                    {
                        self.advance();
                        self.var_declaration()?
                    } else {
                        let (expr, height) = self.expression()?;
                        (Stmt::Expr(expr), self.node(height)?)
                    };
                    self.expect(&Tok::Semi, "after for-loop initializer")?;
                    below = height;
                    Some(Box::new(stmt))
                };
                let cond = if self.check(&Tok::Semi) {
                    None
                } else {
                    let (cond, height) = self.expression()?;
                    below = below.max(height);
                    Some(cond)
                };
                self.expect(&Tok::Semi, "after for-loop condition")?;
                let update = if self.check(&Tok::RParen) {
                    None
                } else {
                    let (update, height) = self.expression()?;
                    below = below.max(height);
                    Some(update)
                };
                self.expect(&Tok::RParen, "after for-loop clauses")?;
                let (body, body_height) = self.block_or_single()?;
                let height = self.node(below.max(body_height))?;
                Ok((
                    Stmt::For {
                        init,
                        cond,
                        update,
                        body,
                    },
                    height,
                ))
            }
            Tok::Break => {
                self.advance();
                self.eat(&Tok::Semi);
                Ok((Stmt::Break, 1))
            }
            Tok::Continue => {
                self.advance();
                self.eat(&Tok::Semi);
                Ok((Stmt::Continue, 1))
            }
            Tok::LBrace => {
                let (block, height) = self.block()?;
                Ok((Stmt::Block(block), self.node(height)?))
            }
            _ => {
                let (expr, height) = self.expression()?;
                self.eat(&Tok::Semi);
                Ok((Stmt::Expr(expr), self.node(height)?))
            }
        }
    }

    fn var_declaration(&mut self) -> Parsed<Stmt> {
        let name = self.ident("in variable declaration")?;
        let name = self.declaration(name);
        let (init, height) = if self.eat(&Tok::Assign) {
            let (init, height) = self.expression()?;
            (Some(init), height)
        } else {
            (None, 0)
        };
        Ok((Stmt::VarDecl { name, init }, self.node(height)?))
    }

    /// A braced statement list and the height of its tallest statement.
    fn block(&mut self) -> Parsed<Vec<Stmt>> {
        self.expect(&Tok::LBrace, "to open a block")?;
        let mut statements = Vec::new();
        let mut height = 0;
        while !self.check(&Tok::RBrace) && !self.check(&Tok::Eof) {
            let (stmt, stmt_height) = self.statement()?;
            statements.push(stmt);
            height = height.max(stmt_height);
        }
        self.expect(&Tok::RBrace, "to close a block")?;
        Ok((statements, height))
    }

    fn block_or_single(&mut self) -> Parsed<Vec<Stmt>> {
        if self.check(&Tok::LBrace) {
            self.block()
        } else {
            let (stmt, height) = self.statement()?;
            Ok((vec![stmt], height))
        }
    }

    /// Parameters and body; the height is the body's.
    fn function_rest(&mut self) -> Parsed<Function> {
        self.expect(&Tok::LParen, "to open the parameter list")?;
        let mut layout = Layout::new();
        let mut param_slots = Vec::new();
        if !self.check(&Tok::RParen) {
            loop {
                let name = self.ident("in parameter list")?;
                param_slots.push(declare(&mut layout, &Rc::from(name)));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        let this_slot = declare(&mut layout, &Rc::from("this"));
        self.expect(&Tok::RParen, "to close the parameter list")?;
        self.functions.push(layout);
        let body = self.block();
        let layout = self.functions.pop().expect("pushed above");
        let (body, height) = body?;
        Ok((
            Function {
                body,
                slots: layout,
                param_slots,
                this_slot,
            },
            height,
        ))
    }

    // -------------------------------------------------------------- expressions

    fn expression(&mut self) -> Parsed<Expr> {
        self.assignment()
    }

    fn assignment(&mut self) -> Parsed<Expr> {
        self.enter()?;
        let parsed = self.assignment_inner();
        self.leave();
        parsed
    }

    fn assignment_inner(&mut self) -> Parsed<Expr> {
        let (target, target_height) = self.conditional()?;
        let op = match self.peek() {
            Tok::Assign => Some(AssignOp::Assign),
            Tok::PlusAssign => Some(AssignOp::Add),
            Tok::MinusAssign => Some(AssignOp::Sub),
            _ => None,
        };
        let Some(op) = op else {
            return Ok((target, target_height));
        };
        if !matches!(target, Expr::Ident(_) | Expr::Member { .. }) {
            return Err(self.error("invalid assignment target".to_string()));
        }
        self.advance();
        let (value, value_height) = self.assignment()?;
        let height = self.node(target_height.max(value_height))?;
        Ok((
            Expr::Assign {
                target: Box::new(target),
                op,
                value: Box::new(value),
            },
            height,
        ))
    }

    fn conditional(&mut self) -> Parsed<Expr> {
        let (cond, cond_height) = self.binary(1)?;
        if !self.eat(&Tok::Question) {
            return Ok((cond, cond_height));
        }
        let (then, then_height) = self.assignment()?;
        self.expect(&Tok::Colon, "in conditional expression")?;
        let (otherwise, else_height) = self.assignment()?;
        let height = self.node(cond_height.max(then_height).max(else_height))?;
        Ok((
            Expr::Conditional {
                cond: Box::new(cond),
                then: Box::new(then),
                otherwise: Box::new(otherwise),
            },
            height,
        ))
    }

    /// Left-associative binary and logical operators binding at least as
    /// tightly as `min_precedence`, by precedence climbing, as one flat
    /// [`Expr::Chain`]. The recursion is at most one level per precedence
    /// level.
    fn binary(&mut self, min_precedence: u8) -> Parsed<Expr> {
        let (first, mut below) = self.unary()?;
        let mut rest = Vec::new();
        while let Some((precedence, op)) = operator(self.peek()) {
            if precedence < min_precedence {
                break;
            }
            self.advance();
            let (right, right_height) = self.binary(precedence + 1)?;
            below = below.max(right_height);
            rest.push((op, right));
        }
        if rest.is_empty() {
            return Ok((first, below));
        }
        let first = Box::new(first);
        Ok((Expr::Chain { first, rest }, self.node(below)?))
    }

    fn unary(&mut self) -> Parsed<Expr> {
        let op = match self.peek() {
            Tok::Minus => Some(UnOp::Neg),
            Tok::Plus => Some(UnOp::Plus),
            Tok::Not => Some(UnOp::Not),
            Tok::Typeof => Some(UnOp::Typeof),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let (expr, height) = self.prefixed()?;
            return Ok((
                Expr::Unary {
                    op,
                    expr: Box::new(expr),
                },
                self.node(height)?,
            ));
        }
        if matches!(self.peek(), Tok::PlusPlus | Tok::MinusMinus) {
            let op = if self.advance() == Tok::PlusPlus {
                UpdateOp::Increment
            } else {
                UpdateOp::Decrement
            };
            let (target, height) = self.prefixed()?;
            return Ok((
                Expr::Update {
                    op,
                    prefix: true,
                    target: Box::new(target),
                },
                self.node(height)?,
            ));
        }
        self.postfix()
    }

    /// The operand of a prefix operator: one more level of recursion.
    fn prefixed(&mut self) -> Parsed<Expr> {
        self.enter()?;
        let parsed = self.unary();
        self.leave();
        parsed
    }

    fn postfix(&mut self) -> Parsed<Expr> {
        let (expr, height) = self.call_member()?;
        let op = match self.peek() {
            Tok::PlusPlus => UpdateOp::Increment,
            Tok::MinusMinus => UpdateOp::Decrement,
            _ => return Ok((expr, height)),
        };
        self.advance();
        Ok((
            Expr::Update {
                op,
                prefix: false,
                target: Box::new(expr),
            },
            self.node(height)?,
        ))
    }

    fn call_member(&mut self) -> Parsed<Expr> {
        let (mut expr, mut height) = if self.eat(&Tok::New) {
            let (callee, callee_height) = self.primary()?;
            let (args, args_height) = if self.check(&Tok::LParen) {
                self.arguments()?
            } else {
                (Vec::new(), 0)
            };
            let height = self.node(callee_height.max(args_height))?;
            (
                Expr::New {
                    callee: Box::new(callee),
                    args,
                },
                height,
            )
        } else {
            self.primary()?
        };

        loop {
            match self.peek() {
                Tok::Dot => {
                    self.advance();
                    let name = self.ident("after `.`")?;
                    height = self.node(height)?;
                    expr = Expr::Member {
                        object: Box::new(expr),
                        property: MemberKey::Static(Rc::from(name)),
                    };
                }
                Tok::LBracket => {
                    self.advance();
                    let (key, key_height) = self.expression()?;
                    self.expect(&Tok::RBracket, "to close computed member access")?;
                    height = self.node(height.max(key_height))?;
                    expr = Expr::Member {
                        object: Box::new(expr),
                        property: MemberKey::Computed(Box::new(key)),
                    };
                }
                Tok::LParen => {
                    let (args, args_height) = self.arguments()?;
                    height = self.node(height.max(args_height))?;
                    expr = Expr::Call {
                        callee: Box::new(expr),
                        args,
                    };
                }
                _ => break,
            }
        }
        Ok((expr, height))
    }

    /// An argument list and the height of its tallest argument.
    fn arguments(&mut self) -> Parsed<Vec<Expr>> {
        self.expect(&Tok::LParen, "to open an argument list")?;
        let mut args = Vec::new();
        let mut height = 0;
        if !self.check(&Tok::RParen) {
            loop {
                let (arg, arg_height) = self.assignment()?;
                args.push(arg);
                height = height.max(arg_height);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen, "to close an argument list")?;
        Ok((args, height))
    }

    fn primary(&mut self) -> Parsed<Expr> {
        let expr = match self.advance() {
            Tok::Number(n) => Expr::Number(n),
            Tok::Str(s) => Expr::Str(Rc::from(s)),
            Tok::True => Expr::Bool(true),
            Tok::False => Expr::Bool(false),
            Tok::Null => Expr::Null,
            Tok::Undefined => Expr::Undefined,
            Tok::Ident(name) => Expr::Ident(Var::new(Rc::from(name))),
            Tok::LParen => {
                let parsed = self.expression()?;
                self.expect(&Tok::RParen, "to close a parenthesized expression")?;
                return Ok(parsed);
            }
            Tok::LBracket => {
                let mut elements = Vec::new();
                let mut height = 0;
                if !self.check(&Tok::RBracket) {
                    loop {
                        let (element, element_height) = self.assignment()?;
                        elements.push(element);
                        height = height.max(element_height);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBracket, "to close an array literal")?;
                return Ok((Expr::Array(elements), self.node(height)?));
            }
            Tok::LBrace => {
                let mut properties = Vec::new();
                let mut height = 0;
                if !self.check(&Tok::RBrace) {
                    loop {
                        let key: Rc<str> = match self.advance() {
                            Tok::Ident(name) => Rc::from(name),
                            Tok::Str(s) => Rc::from(s),
                            Tok::Number(n) => Rc::from(n.to_string()),
                            other => {
                                return Err(self.error(format!(
                                    "expected property name in object literal, found {other:?}"
                                )))
                            }
                        };
                        self.expect(&Tok::Colon, "after object-literal property name")?;
                        let (value, value_height) = self.assignment()?;
                        properties.push((key, value));
                        height = height.max(value_height);
                        if !self.eat(&Tok::Comma) {
                            break;
                        }
                    }
                }
                self.expect(&Tok::RBrace, "to close an object literal")?;
                return Ok((Expr::Object(properties), self.node(height)?));
            }
            Tok::Function => {
                let (function, height) = self.function_rest()?;
                return Ok((Expr::Function(Rc::new(function)), self.node(height)?));
            }
            other => return Err(self.error(format!("unexpected token {other:?} in expression"))),
        };
        Ok((expr, 1))
    }
}

/// The precedence (1 binds loosest) and meaning of a binary operator token.
fn operator(tok: &Tok<'_>) -> Option<(u8, Operator)> {
    use Operator::{Binary, Logical};
    Some(match tok {
        Tok::OrOr => (1, Logical(LogicalOp::Or)),
        Tok::AndAnd => (2, Logical(LogicalOp::And)),
        Tok::EqEq => (3, Binary(BinOp::Eq)),
        Tok::NotEq => (3, Binary(BinOp::NotEq)),
        Tok::EqEqEq => (3, Binary(BinOp::StrictEq)),
        Tok::NotEqEq => (3, Binary(BinOp::StrictNotEq)),
        Tok::Lt => (4, Binary(BinOp::Lt)),
        Tok::Gt => (4, Binary(BinOp::Gt)),
        Tok::Le => (4, Binary(BinOp::Le)),
        Tok::Ge => (4, Binary(BinOp::Ge)),
        Tok::Plus => (5, Binary(BinOp::Add)),
        Tok::Minus => (5, Binary(BinOp::Sub)),
        Tok::Star => (6, Binary(BinOp::Mul)),
        Tok::Slash => (6, Binary(BinOp::Div)),
        Tok::Percent => (6, Binary(BinOp::Rem)),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_variable_declarations_and_calls() {
        let program =
            parse_program("var el = document.getElementById('x'); el.setAttribute('a', 1);")
                .unwrap();
        assert_eq!(program.len(), 2);
        assert!(matches!(&program[0], Stmt::VarDecl { name, .. } if &*name.name == "el"));
        assert!(matches!(&program[1], Stmt::Expr(Expr::Call { .. })));
    }

    #[test]
    fn operator_precedence() {
        let program = parse_program("1 + 2 * 3;").unwrap();
        let Stmt::Expr(Expr::Chain { rest, .. }) = &program[0] else {
            panic!("expected an operator chain at the top");
        };
        let [(Operator::Binary(BinOp::Add), right)] = rest.as_slice() else {
            panic!("expected one addition at the top");
        };
        assert!(matches!(right, Expr::Chain { rest, .. }
            if rest[0].0 == Operator::Binary(BinOp::Mul)));
    }

    #[test]
    fn parses_control_flow() {
        let src = r#"
            function f(n) {
                var total = 0;
                for (var i = 0; i < n; i++) {
                    if (i % 2 == 0) { total += i; } else { total -= 1; }
                }
                while (total > 100) { total = total / 2; }
                return total;
            }
        "#;
        let program = parse_program(src).unwrap();
        assert_eq!(program.len(), 1);
        let Stmt::FunctionDecl { name, function } = &program[0] else {
            panic!("expected a function declaration");
        };
        assert_eq!(&*name.name, "f");
        assert_eq!(function.slots.get("n"), Some(&0));
        assert_eq!(function.param_slots, [0]);
        assert!(function.body.len() >= 4);
    }

    #[test]
    fn a_function_lays_out_parameters_this_and_its_declarations() {
        let program = parse_program(
            "function f(a, b, a) { var x = 1; if (a) { var y; function g(z) { var w; } } var x; }",
        )
        .unwrap();
        let Stmt::FunctionDecl { function, .. } = &program[0] else {
            panic!("expected a function declaration");
        };
        let mut names: Vec<(&str, u32)> = function.slots.iter().map(|(s, &i)| (&**s, i)).collect();
        names.sort_by_key(|&(_, slot)| slot);
        let names: Vec<&str> = names.into_iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["a", "b", "this", "x", "y", "g"]);
        assert_eq!(function.param_slots, [0, 1, 0]);
        assert_eq!(function.this_slot, 2);
    }

    #[test]
    fn parses_member_chains_new_and_literals() {
        let src = "var xhr = new XMLHttpRequest(); xhr.open('POST', '/api'); var cfg = {a: 1, 'b': [1,2,3]}; cfg.a = cfg['b'][0];";
        let program = parse_program(src).unwrap();
        assert_eq!(program.len(), 4);
        assert!(matches!(
            &program[0],
            Stmt::VarDecl {
                init: Some(Expr::New { .. }),
                ..
            }
        ));
    }

    #[test]
    fn parses_conditional_and_logical_operators() {
        let program = parse_program("var x = a && b || c ? 'yes' : 'no';").unwrap();
        assert!(matches!(
            &program[0],
            Stmt::VarDecl {
                init: Some(Expr::Conditional { .. }),
                ..
            }
        ));
    }

    #[test]
    fn parses_function_expressions_and_typeof() {
        let program = parse_program("var cb = function(e) { return typeof e; }; cb(1);").unwrap();
        assert_eq!(program.len(), 2);
        assert!(matches!(
            &program[0],
            Stmt::VarDecl {
                init: Some(Expr::Function(_)),
                ..
            }
        ));
    }

    #[test]
    fn rejects_malformed_programs() {
        assert!(parse_program("var = 3;").is_err());
        assert!(parse_program("if (x { }").is_err());
        assert!(parse_program("function () {}").is_err());
        assert!(parse_program("1 +").is_err());
        assert!(parse_program("foo(1,").is_err());
        assert!(parse_program("3 = x;").is_err());
    }

    #[test]
    fn postfix_and_prefix_updates() {
        let program = parse_program("i++; ++j; k--;").unwrap();
        assert!(matches!(
            &program[0],
            Stmt::Expr(Expr::Update {
                prefix: false,
                op: UpdateOp::Increment,
                ..
            })
        ));
        assert!(matches!(
            &program[1],
            Stmt::Expr(Expr::Update {
                prefix: true,
                op: UpdateOp::Increment,
                ..
            })
        ));
        assert!(matches!(
            &program[2],
            Stmt::Expr(Expr::Update {
                prefix: false,
                op: UpdateOp::Decrement,
                ..
            })
        ));
    }

    #[test]
    fn empty_statements_and_blocks() {
        let program = parse_program(";;{ var a = 1; };").unwrap();
        assert!(program.iter().any(|s| matches!(s, Stmt::Block(_))));
        assert!(program.iter().any(|s| matches!(s, Stmt::Empty)));
    }
}
