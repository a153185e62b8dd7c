//! Resolves every identifier to frame slots, once, after parsing.
//!
//! Functions are the only scopes (blocks share their function's frame), so
//! the functions enclosing an identifier decide where it can live: each one
//! that declares the name contributes a candidate slot, innermost first, and
//! the name's global slot comes last. The evaluator then reads and writes
//! variables by index instead of hashing names up a scope chain.
//!
//! Candidates are kept in order rather than collapsed to the innermost one
//! because a `var` counts only once its declaration has run: before that a
//! read falls through to the enclosing function or the global. A parameter or
//! `this` is declared as soon as its frame exists, so no candidate past one is
//! ever consulted and the list stops there.

use std::collections::HashMap;
use std::rc::Rc;

use crate::ast::{Binding, Expr, Function, MemberKey, Slot, Stmt, Var};

/// The host objects every interpreter starts with, in global-slot order.
pub(crate) const HOST_GLOBALS: [&str; 6] = [
    "document",
    "history",
    "console",
    "window",
    "alert",
    "XMLHttpRequest",
];

/// The global slot of `document`, read through `window.document`.
pub(crate) const DOCUMENT_SLOT: usize = 0;
/// The global slot of `history`, read through `window.history`.
pub(crate) const HISTORY_SLOT: usize = 1;
/// The global slot of `alert`, read through `window.alert`.
pub(crate) const ALERT_SLOT: usize = 4;

/// An interpreter's global names: the host objects in fixed slots, then every
/// other name in the order scripts first mentioned it. Successive runs on one
/// interpreter share this table, and so share their globals.
#[derive(Debug, Default)]
pub(crate) struct GlobalNames {
    names: HashMap<Rc<str>, u32>,
}

impl GlobalNames {
    /// The number of global slots.
    pub(crate) fn len(&self) -> usize {
        HOST_GLOBALS.len() + self.names.len()
    }

    fn slot(&mut self, name: &Rc<str>) -> u32 {
        if let Some(host) = HOST_GLOBALS.iter().position(|host| **host == **name) {
            return host as u32;
        }
        if let Some(&slot) = self.names.get(&**name) {
            return slot;
        }
        let slot = self.len() as u32;
        self.names.insert(Rc::clone(name), slot);
        slot
    }
}

/// One enclosing function: its layout, lent by the function while its body
/// is walked, and the slots of its always-declared names.
struct Scope {
    slots: HashMap<Rc<str>, u32>,
    /// Parameters and `this` occupy slots `0..=this_slot`.
    this_slot: u32,
}

struct Resolver<'g> {
    globals: &'g mut GlobalNames,
    /// Enclosing functions, innermost last.
    scopes: Vec<Scope>,
}

/// Fills in the binding of every identifier in `program`, adding the globals
/// it names to `globals`. The tree's height is bounded by the parser's nesting
/// bound, which bounds this walk's recursion too.
pub(crate) fn resolve(program: &mut [Stmt], globals: &mut GlobalNames) {
    let mut resolver = Resolver {
        globals,
        scopes: Vec::new(),
    };
    resolver.stmts(program);
}

impl Resolver<'_> {
    fn var(&mut self, var: &mut Var) {
        let mut locals = Vec::new();
        for (hops, scope) in self.scopes.iter().rev().enumerate() {
            if let Some(&index) = scope.slots.get(&*var.name) {
                locals.push(Slot {
                    hops: hops as u32,
                    index,
                });
                if index <= scope.this_slot {
                    break;
                }
            }
        }
        var.binding = Binding {
            locals: locals.into_boxed_slice(),
            global: self.globals.slot(&var.name),
        };
    }

    fn function(&mut self, function: &mut Rc<Function>) {
        let function = Rc::get_mut(function).expect("a parsed function is unshared");
        self.scopes.push(Scope {
            slots: std::mem::take(&mut function.slots),
            this_slot: function.this_slot,
        });
        self.stmts(&mut function.body);
        function.slots = self.scopes.pop().expect("pushed above").slots;
    }

    fn stmts(&mut self, stmts: &mut [Stmt]) {
        for stmt in stmts {
            self.stmt(stmt);
        }
    }

    fn stmt(&mut self, stmt: &mut Stmt) {
        match stmt {
            Stmt::Expr(expr) => self.expr(expr),
            Stmt::VarDecl { name, init } => {
                self.var(name);
                if let Some(init) = init {
                    self.expr(init);
                }
            }
            Stmt::FunctionDecl { name, function } => {
                self.var(name);
                self.function(function);
            }
            Stmt::Return(value) => {
                if let Some(value) = value {
                    self.expr(value);
                }
            }
            Stmt::If { arms, otherwise } => {
                for (cond, body) in arms {
                    self.expr(cond);
                    self.stmts(body);
                }
                if let Some(otherwise) = otherwise {
                    self.stmts(otherwise);
                }
            }
            Stmt::While { cond, body } => {
                self.expr(cond);
                self.stmts(body);
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(init) = init {
                    self.stmt(init);
                }
                if let Some(cond) = cond {
                    self.expr(cond);
                }
                if let Some(update) = update {
                    self.expr(update);
                }
                self.stmts(body);
            }
            Stmt::Block(body) => self.stmts(body),
            Stmt::Break | Stmt::Continue | Stmt::Empty => {}
        }
    }

    fn expr(&mut self, expr: &mut Expr) {
        match expr {
            Expr::Number(_) | Expr::Str(_) | Expr::Bool(_) | Expr::Null | Expr::Undefined => {}
            Expr::Ident(var) => self.var(var),
            Expr::Assign { target, value, .. } => {
                self.expr(target);
                self.expr(value);
            }
            Expr::Chain { first, rest } => {
                self.expr(first);
                for (_, operand) in rest {
                    self.expr(operand);
                }
            }
            Expr::Unary { expr, .. } => self.expr(expr),
            Expr::Update { target, .. } => self.expr(target),
            Expr::Call { callee, args } | Expr::New { callee, args } => {
                self.expr(callee);
                for arg in args {
                    self.expr(arg);
                }
            }
            Expr::Member { object, property } => {
                self.expr(object);
                if let MemberKey::Computed(key) = property {
                    self.expr(key);
                }
            }
            Expr::Conditional {
                cond,
                then,
                otherwise,
            } => {
                self.expr(cond);
                self.expr(then);
                self.expr(otherwise);
            }
            Expr::Array(elements) => {
                for element in elements {
                    self.expr(element);
                }
            }
            Expr::Object(properties) => {
                for (_, value) in properties {
                    self.expr(value);
                }
            }
            Expr::Function(function) => self.function(function),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn binding_of(program: &[Stmt], path: &str) -> Binding {
        // The first `return <ident>` found along nested function declarations.
        fn find(stmts: &[Stmt]) -> Option<Binding> {
            stmts.iter().find_map(|stmt| match stmt {
                Stmt::Return(Some(Expr::Ident(var))) => Some(var.binding.clone()),
                Stmt::FunctionDecl { function, .. } => find(&function.body),
                _ => None,
            })
        }
        find(program).unwrap_or_else(|| panic!("no return in {path}"))
    }

    fn resolved(source: &str) -> (Vec<Stmt>, GlobalNames) {
        let mut program = parse_program(source).unwrap();
        let mut globals = GlobalNames::default();
        resolve(&mut program, &mut globals);
        (program, globals)
    }

    #[test]
    fn host_objects_have_fixed_global_slots() {
        let (program, globals) = resolved("document; window; XMLHttpRequest; other;");
        let slots: Vec<u32> = program
            .iter()
            .map(|stmt| match stmt {
                Stmt::Expr(Expr::Ident(var)) => var.binding.global,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(slots, [0, 3, 5, 6]);
        assert_eq!(globals.len(), 7);
    }

    #[test]
    fn candidates_run_innermost_first_and_stop_at_a_parameter() {
        let (program, _) = resolved(
            "function outer(p) { var v; function inner() { var v; function leaf() { return v; } } }",
        );
        let binding = binding_of(&program, "v");
        assert_eq!(
            &*binding.locals,
            [Slot { hops: 1, index: 1 }, Slot { hops: 2, index: 2 }]
        );

        let (program, _) = resolved("function f(v) { function g() { var v; return v; } var v; }");
        let binding = binding_of(&program, "v");
        assert_eq!(
            &*binding.locals,
            [Slot { hops: 0, index: 1 }, Slot { hops: 1, index: 0 }]
        );
    }

    #[test]
    fn successive_programs_share_one_global_table() {
        let mut globals = GlobalNames::default();
        let mut first = parse_program("var shared = 1; var a = 2;").unwrap();
        resolve(&mut first, &mut globals);
        let mut second = parse_program("shared;").unwrap();
        resolve(&mut second, &mut globals);
        let Stmt::Expr(Expr::Ident(var)) = &second[0] else {
            unreachable!()
        };
        assert_eq!(var.binding.global, 6);
        assert_eq!(globals.len(), 8);
    }
}
