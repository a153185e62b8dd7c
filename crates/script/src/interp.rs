//! The tree-walking interpreter.

use std::collections::HashMap;

use crate::ast::{AssignOp, BinOp, Expr, LogicalOp, MemberKey, Stmt, UnOp, UpdateOp};
use crate::error::ScriptError;
use crate::host::Host;
use crate::parser::parse_program;
use crate::value::{Callable, NativeFn, NativeTag, Obj, ObjId, Value};

/// Default number of evaluation steps a script may take before it is aborted.
pub const DEFAULT_STEP_LIMIT: u64 = 2_000_000;

/// Bound on nested user-function calls. The interpreter walks the tree
/// recursively, so each JS call costs several Rust frames; the step budget does
/// not bound that, and `function f(n){ return f(n+1); }` would otherwise abort
/// the whole process with a stack overflow. In the debug profile one call level
/// costs about 14 KiB of stack, or about 40 KiB when its `return` nests three
/// operators around the call, so 32 levels stay well inside a 2 MiB thread
/// stack.
pub const MAX_CALL_DEPTH: usize = 32;

#[derive(Debug)]
struct Scope {
    vars: HashMap<String, Value>,
    parent: Option<usize>,
}

/// How a statement finished.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// The script interpreter. One interpreter instance executes one script (or a series
/// of scripts sharing globals) against a single [`Host`].
pub struct Interpreter<'h> {
    host: &'h mut dyn Host,
    heap: Vec<Obj>,
    scopes: Vec<Scope>,
    steps_remaining: u64,
    /// User-function calls currently on the interpreter's stack.
    call_depth: usize,
    /// Value of the most recent expression statement; `run` returns it so callers and
    /// tests can observe a script's "result" without a return statement.
    last_expression_value: Option<Value>,
}

impl std::fmt::Debug for Interpreter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interpreter")
            .field("heap_objects", &self.heap.len())
            .field("scopes", &self.scopes.len())
            .field("steps_remaining", &self.steps_remaining)
            .finish()
    }
}

impl<'h> Interpreter<'h> {
    /// Creates an interpreter whose effectful operations go to `host`.
    pub fn new(host: &'h mut dyn Host) -> Self {
        let mut interp = Interpreter {
            host,
            heap: Vec::new(),
            scopes: vec![Scope {
                vars: HashMap::new(),
                parent: None,
            }],
            steps_remaining: DEFAULT_STEP_LIMIT,
            call_depth: 0,
            last_expression_value: None,
        };
        interp.install_globals();
        interp
    }

    /// Replaces the step budget (builder style). Scripts exceeding the budget abort
    /// with [`ScriptError::StepLimitExceeded`].
    #[must_use]
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.steps_remaining = limit;
        self
    }

    /// Parses and runs a script. Returns the value of the last expression statement
    /// (useful for tests and examples), or `undefined`.
    ///
    /// # Errors
    ///
    /// Propagates lexer/parser errors, runtime errors, host failures and — crucially
    /// for ESCUDO — [`ScriptError::AccessDenied`] when the reference monitor rejects a
    /// host call made by the script.
    pub fn run(&mut self, source: &str) -> Result<Value, ScriptError> {
        let program = parse_program(source)?;
        self.run_program(&program)
    }

    /// Runs an already-parsed program.
    ///
    /// # Errors
    ///
    /// See [`Interpreter::run`].
    pub fn run_program(&mut self, program: &[Stmt]) -> Result<Value, ScriptError> {
        let mut last = Value::Undefined;
        for stmt in program {
            match self.exec(stmt, 0)? {
                Flow::Return(value) => return Ok(value),
                Flow::Normal => {
                    if let Stmt::Expr(_) = stmt {
                        last = self
                            .last_expression_value
                            .take()
                            .unwrap_or(Value::Undefined);
                    }
                }
                Flow::Break | Flow::Continue => {}
            }
        }
        Ok(last)
    }

    // ------------------------------------------------------------- bookkeeping

    fn charge(&mut self) -> Result<(), ScriptError> {
        if self.steps_remaining == 0 {
            return Err(ScriptError::StepLimitExceeded);
        }
        self.steps_remaining -= 1;
        Ok(())
    }

    fn alloc(&mut self, obj: Obj) -> Value {
        self.heap.push(obj);
        Value::Object(ObjId(self.heap.len() - 1))
    }

    fn obj(&self, id: ObjId) -> &Obj {
        &self.heap[id.0]
    }

    fn obj_mut(&mut self, id: ObjId) -> &mut Obj {
        &mut self.heap[id.0]
    }

    fn install_globals(&mut self) {
        let document = self.alloc(Obj::native(NativeTag::Document));
        let history = self.alloc(Obj::native(NativeTag::History));
        let console = self.alloc(Obj::native(NativeTag::Console));
        let window = self.alloc(Obj::native(NativeTag::Window));
        let alert = self.alloc(Obj::native_fn(NativeFn::Alert));
        let xhr_ctor = self.alloc(Obj::native_fn(NativeFn::XhrConstructor));
        let globals = &mut self.scopes[0].vars;
        globals.insert("document".to_string(), document);
        globals.insert("history".to_string(), history);
        globals.insert("console".to_string(), console);
        globals.insert("window".to_string(), window);
        globals.insert("alert".to_string(), alert);
        globals.insert("XMLHttpRequest".to_string(), xhr_ctor);
    }

    // ------------------------------------------------------------- scopes

    fn lookup(&self, scope: usize, name: &str) -> Option<Value> {
        let mut current = Some(scope);
        while let Some(idx) = current {
            if let Some(value) = self.scopes[idx].vars.get(name) {
                return Some(value.clone());
            }
            current = self.scopes[idx].parent;
        }
        None
    }

    fn assign_existing(&mut self, scope: usize, name: &str, value: Value) -> bool {
        let mut current = Some(scope);
        while let Some(idx) = current {
            if self.scopes[idx].vars.contains_key(name) {
                self.scopes[idx].vars.insert(name.to_string(), value);
                return true;
            }
            current = self.scopes[idx].parent;
        }
        false
    }

    fn declare(&mut self, scope: usize, name: &str, value: Value) {
        self.scopes[scope].vars.insert(name.to_string(), value);
    }

    // ------------------------------------------------------------- statements

    fn exec(&mut self, stmt: &Stmt, scope: usize) -> Result<Flow, ScriptError> {
        self.charge()?;
        match stmt {
            Stmt::Empty => Ok(Flow::Normal),
            Stmt::Expr(expr) => {
                let value = self.eval(expr, scope)?;
                self.last_expression_value = Some(value);
                Ok(Flow::Normal)
            }
            Stmt::VarDecl { name, init } => {
                let value = match init {
                    Some(expr) => self.eval(expr, scope)?,
                    None => Value::Undefined,
                };
                self.declare(scope, name, value);
                Ok(Flow::Normal)
            }
            Stmt::FunctionDecl { name, params, body } => {
                let function = self.alloc(Obj {
                    callable: Some(Callable::User {
                        params: params.clone(),
                        body: body.clone(),
                        scope,
                    }),
                    ..Obj::default()
                });
                self.declare(scope, name, function);
                Ok(Flow::Normal)
            }
            Stmt::Return(expr) => {
                let value = match expr {
                    Some(expr) => self.eval(expr, scope)?,
                    None => Value::Undefined,
                };
                Ok(Flow::Return(value))
            }
            Stmt::Block(statements) => self.exec_block(statements, scope),
            Stmt::If {
                cond,
                then,
                otherwise,
            } => {
                if self.eval(cond, scope)?.is_truthy() {
                    self.exec_block(then, scope)
                } else if let Some(otherwise) = otherwise {
                    self.exec_block(otherwise, scope)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body } => {
                while self.eval(cond, scope)?.is_truthy() {
                    match self.exec_block(body, scope)? {
                        Flow::Return(value) => return Ok(Flow::Return(value)),
                        Flow::Break => break,
                        Flow::Continue | Flow::Normal => {}
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
            } => {
                if let Some(init) = init {
                    self.exec(init, scope)?;
                }
                loop {
                    let keep_going = match cond {
                        Some(cond) => self.eval(cond, scope)?.is_truthy(),
                        None => true,
                    };
                    if !keep_going {
                        break;
                    }
                    match self.exec_block(body, scope)? {
                        Flow::Return(value) => return Ok(Flow::Return(value)),
                        Flow::Break => break,
                        Flow::Continue | Flow::Normal => {}
                    }
                    if let Some(update) = update {
                        self.eval(update, scope)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    fn exec_block(&mut self, statements: &[Stmt], scope: usize) -> Result<Flow, ScriptError> {
        for stmt in statements {
            match self.exec(stmt, scope)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    // ------------------------------------------------------------- expressions

    fn eval(&mut self, expr: &Expr, scope: usize) -> Result<Value, ScriptError> {
        self.charge()?;
        match expr {
            Expr::Number(n) => Ok(Value::Number(*n)),
            Expr::Str(s) => Ok(Value::Str(s.clone())),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Null => Ok(Value::Null),
            Expr::Undefined => Ok(Value::Undefined),
            Expr::Ident(name) => self
                .lookup(scope, name)
                .ok_or_else(|| ScriptError::Runtime(format!("`{name}` is not defined"))),
            Expr::Array(elements) => {
                let mut values = Vec::with_capacity(elements.len());
                for element in elements {
                    values.push(self.eval(element, scope)?);
                }
                Ok(self.alloc(Obj::array(values)))
            }
            Expr::Object(properties) => {
                let mut obj = Obj::plain();
                for (key, value_expr) in properties {
                    let value = self.eval(value_expr, scope)?;
                    obj.props.insert(key.clone(), value);
                }
                Ok(self.alloc(obj))
            }
            Expr::Function { params, body } => Ok(self.alloc(Obj {
                callable: Some(Callable::User {
                    params: params.clone(),
                    body: body.clone(),
                    scope,
                }),
                ..Obj::default()
            })),
            Expr::Unary { op, expr } => {
                let value = self.eval(expr, scope)?;
                Ok(match op {
                    UnOp::Neg => Value::Number(-value.to_number()),
                    UnOp::Plus => Value::Number(value.to_number()),
                    UnOp::Not => Value::Bool(!value.is_truthy()),
                    UnOp::Typeof => {
                        let name = if matches!(&value, Value::Object(id) if self.obj(*id).callable.is_some())
                        {
                            "function"
                        } else {
                            value.type_of()
                        };
                        Value::Str(name.to_string())
                    }
                })
            }
            Expr::Binary { op, left, right } => {
                let left = self.eval(left, scope)?;
                let right = self.eval(right, scope)?;
                self.binary(*op, left, right)
            }
            Expr::Logical { op, left, right } => {
                let left = self.eval(left, scope)?;
                match op {
                    LogicalOp::And => {
                        if left.is_truthy() {
                            self.eval(right, scope)
                        } else {
                            Ok(left)
                        }
                    }
                    LogicalOp::Or => {
                        if left.is_truthy() {
                            Ok(left)
                        } else {
                            self.eval(right, scope)
                        }
                    }
                }
            }
            Expr::Conditional {
                cond,
                then,
                otherwise,
            } => {
                if self.eval(cond, scope)?.is_truthy() {
                    self.eval(then, scope)
                } else {
                    self.eval(otherwise, scope)
                }
            }
            Expr::Assign { target, op, value } => {
                let rhs = self.eval(value, scope)?;
                let new_value = match op {
                    AssignOp::Assign => rhs,
                    AssignOp::Add => {
                        let current = self.eval(target, scope)?;
                        self.binary(BinOp::Add, current, rhs)?
                    }
                    AssignOp::Sub => {
                        let current = self.eval(target, scope)?;
                        self.binary(BinOp::Sub, current, rhs)?
                    }
                };
                self.assign(target, new_value.clone(), scope)?;
                Ok(new_value)
            }
            Expr::Update { op, prefix, target } => {
                let current = self.eval(target, scope)?.to_number();
                let delta = match op {
                    UpdateOp::Increment => 1.0,
                    UpdateOp::Decrement => -1.0,
                };
                let updated = Value::Number(current + delta);
                self.assign(target, updated.clone(), scope)?;
                Ok(if *prefix {
                    updated
                } else {
                    Value::Number(current)
                })
            }
            Expr::Member { object, property } => {
                let object_value = self.eval(object, scope)?;
                let key = self.member_key(property, scope)?;
                self.get_member(object_value, &key)
            }
            Expr::Call { callee, args } => {
                let (function, this) = match callee.as_ref() {
                    Expr::Member { object, property } => {
                        let this = self.eval(object, scope)?;
                        let key = self.member_key(property, scope)?;
                        let function = self.get_member(this.clone(), &key)?;
                        (function, this)
                    }
                    other => (self.eval(other, scope)?, Value::Undefined),
                };
                let mut arg_values = Vec::with_capacity(args.len());
                for arg in args {
                    arg_values.push(self.eval(arg, scope)?);
                }
                self.call(function, this, arg_values)
            }
            Expr::New { callee, args } => {
                let function = self.eval(callee, scope)?;
                let mut arg_values = Vec::with_capacity(args.len());
                for arg in args {
                    arg_values.push(self.eval(arg, scope)?);
                }
                self.construct(function, arg_values)
            }
        }
    }

    fn member_key(&mut self, property: &MemberKey, scope: usize) -> Result<String, ScriptError> {
        match property {
            MemberKey::Static(name) => Ok(name.clone()),
            MemberKey::Computed(expr) => {
                let value = self.eval(expr, scope)?;
                Ok(value.to_string())
            }
        }
    }

    // ------------------------------------------------------------- operators

    fn binary(&mut self, op: BinOp, left: Value, right: Value) -> Result<Value, ScriptError> {
        use BinOp::*;
        let value = match op {
            Add => {
                if matches!(left, Value::Str(_)) || matches!(right, Value::Str(_)) {
                    Value::Str(format!("{left}{right}"))
                } else {
                    Value::Number(left.to_number() + right.to_number())
                }
            }
            Sub => Value::Number(left.to_number() - right.to_number()),
            Mul => Value::Number(left.to_number() * right.to_number()),
            Div => Value::Number(left.to_number() / right.to_number()),
            Rem => Value::Number(left.to_number() % right.to_number()),
            Lt => Value::Bool(self.compare(&left, &right, |o| o == std::cmp::Ordering::Less)),
            Gt => Value::Bool(self.compare(&left, &right, |o| o == std::cmp::Ordering::Greater)),
            Le => Value::Bool(self.compare(&left, &right, |o| o != std::cmp::Ordering::Greater)),
            Ge => Value::Bool(self.compare(&left, &right, |o| o != std::cmp::Ordering::Less)),
            StrictEq => Value::Bool(strict_eq(&left, &right)),
            StrictNotEq => Value::Bool(!strict_eq(&left, &right)),
            Eq => Value::Bool(loose_eq(&left, &right)),
            NotEq => Value::Bool(!loose_eq(&left, &right)),
        };
        Ok(value)
    }

    fn compare<F: Fn(std::cmp::Ordering) -> bool>(
        &self,
        left: &Value,
        right: &Value,
        check: F,
    ) -> bool {
        if let (Value::Str(a), Value::Str(b)) = (left, right) {
            return check(a.cmp(b));
        }
        let (a, b) = (left.to_number(), right.to_number());
        match a.partial_cmp(&b) {
            Some(ordering) => check(ordering),
            None => false,
        }
    }

    // ------------------------------------------------------------- assignment

    fn assign(&mut self, target: &Expr, value: Value, scope: usize) -> Result<(), ScriptError> {
        match target {
            Expr::Ident(name) => {
                if !self.assign_existing(scope, name, value.clone()) {
                    // Implicit global, like sloppy-mode JavaScript.
                    self.declare(0, name, value);
                }
                Ok(())
            }
            Expr::Member { object, property } => {
                let object_value = self.eval(object, scope)?;
                let key = self.member_key(property, scope)?;
                self.set_member(object_value, &key, value)
            }
            _ => Err(ScriptError::Runtime("invalid assignment target".into())),
        }
    }

    // ------------------------------------------------------------- member access

    fn get_member(&mut self, object: Value, key: &str) -> Result<Value, ScriptError> {
        match object {
            Value::Str(s) => match key {
                "length" => Ok(Value::Number(s.chars().count() as f64)),
                "indexOf" => {
                    let bound = self.alloc(Obj {
                        callable: Some(Callable::Native(NativeFn::IndexOf)),
                        ..Obj::default()
                    });
                    if let Value::Object(id) = bound {
                        self.obj_mut(id)
                            .props
                            .insert("__this".into(), Value::Str(s));
                    }
                    Ok(bound)
                }
                _ => Ok(Value::Undefined),
            },
            Value::Object(id) => {
                if let Some(tag) = self.obj(id).native {
                    if let Some(value) = self.native_get(tag, key)? {
                        return Ok(value);
                    }
                }
                if let Some(elements) = &self.obj(id).elements {
                    if key == "length" {
                        return Ok(Value::Number(elements.len() as f64));
                    }
                    if key == "push" {
                        return Ok(self.alloc(Obj::native_fn(NativeFn::ArrayPush)));
                    }
                    if let Ok(index) = key.parse::<usize>() {
                        return Ok(elements.get(index).cloned().unwrap_or(Value::Undefined));
                    }
                }
                Ok(self
                    .obj(id)
                    .props
                    .get(key)
                    .cloned()
                    .unwrap_or(Value::Undefined))
            }
            Value::Undefined | Value::Null => Err(ScriptError::Runtime(format!(
                "cannot read property `{key}` of {object}"
            ))),
            _ => Ok(Value::Undefined),
        }
    }

    fn set_member(&mut self, object: Value, key: &str, value: Value) -> Result<(), ScriptError> {
        match object {
            Value::Object(id) => {
                if let Some(tag) = self.obj(id).native {
                    if self.native_set(tag, key, &value)? {
                        return Ok(());
                    }
                }
                if let Some(elements) = &mut self.obj_mut(id).elements {
                    if let Ok(index) = key.parse::<usize>() {
                        if index >= elements.len() {
                            elements.resize(index + 1, Value::Undefined);
                        }
                        elements[index] = value;
                        return Ok(());
                    }
                }
                self.obj_mut(id).props.insert(key.to_string(), value);
                Ok(())
            }
            other => Err(ScriptError::Runtime(format!(
                "cannot set property `{key}` on {other}"
            ))),
        }
    }

    // ------------------------------------------------------------- calls

    fn call(
        &mut self,
        function: Value,
        this: Value,
        args: Vec<Value>,
    ) -> Result<Value, ScriptError> {
        let Value::Object(id) = function else {
            return Err(ScriptError::Runtime(format!(
                "{function} is not a function"
            )));
        };
        let callable = self
            .obj(id)
            .callable
            .clone()
            .ok_or_else(|| ScriptError::Runtime("value is not callable".into()))?;
        match callable {
            Callable::User {
                params,
                body,
                scope,
            } => {
                if self.call_depth >= MAX_CALL_DEPTH {
                    return Err(ScriptError::CallDepthExceeded);
                }
                let call_scope = self.scopes.len();
                self.scopes.push(Scope {
                    vars: HashMap::new(),
                    parent: Some(scope),
                });
                for (index, param) in params.iter().enumerate() {
                    let value = args.get(index).cloned().unwrap_or(Value::Undefined);
                    self.declare(call_scope, param, value);
                }
                self.declare(call_scope, "this", this);
                self.call_depth += 1;
                let flow = self.exec_block(&body, call_scope);
                self.call_depth -= 1;
                Ok(match flow? {
                    Flow::Return(value) => value,
                    _ => Value::Undefined,
                })
            }
            Callable::Native(native) => self.call_native(native, id, this, args),
        }
    }

    fn construct(&mut self, function: Value, args: Vec<Value>) -> Result<Value, ScriptError> {
        let Value::Object(id) = function else {
            return Err(ScriptError::Runtime(format!(
                "{function} is not a constructor"
            )));
        };
        match self.obj(id).callable.clone() {
            Some(Callable::Native(NativeFn::XhrConstructor)) => {
                let handle = self.host.xhr_create()?;
                Ok(self.alloc(Obj::native(NativeTag::Xhr(handle))))
            }
            Some(Callable::User { .. }) => {
                let instance = self.alloc(Obj::plain());
                self.call(function, instance.clone(), args)?;
                Ok(instance)
            }
            _ => Err(ScriptError::Runtime("value is not a constructor".into())),
        }
    }

    // ------------------------------------------------------------- native objects

    fn wrap_node(&mut self, node: u64) -> Value {
        self.alloc(Obj::native(NativeTag::Node(node)))
    }

    fn expect_node(&self, value: &Value, what: &str) -> Result<u64, ScriptError> {
        if let Value::Object(id) = value {
            if let Some(NativeTag::Node(node)) = self.obj(*id).native {
                return Ok(node);
            }
        }
        Err(ScriptError::Runtime(format!("{what} expects a DOM node")))
    }

    fn native_get(&mut self, tag: NativeTag, key: &str) -> Result<Option<Value>, ScriptError> {
        let make_fn = |interp: &mut Self, f: NativeFn| Some(interp.alloc(Obj::native_fn(f)));
        let value = match (tag, key) {
            (NativeTag::Document, "getElementById") => make_fn(self, NativeFn::GetElementById),
            (NativeTag::Document, "getElementsByTagName") => {
                make_fn(self, NativeFn::GetElementsByTagName)
            }
            (NativeTag::Document, "createElement") => make_fn(self, NativeFn::CreateElement),
            (NativeTag::Document, "createTextNode") => make_fn(self, NativeFn::CreateTextNode),
            (NativeTag::Document, "write") => make_fn(self, NativeFn::DocumentWrite),
            (NativeTag::Document, "cookie") => Some(Value::Str(self.host.cookie_get()?)),
            (NativeTag::Document, "body") => match self.host.document_body()? {
                Some(node) => Some(self.wrap_node(node)),
                None => Some(Value::Null),
            },
            (NativeTag::Node(_), "appendChild") => make_fn(self, NativeFn::AppendChild),
            (NativeTag::Node(_), "removeChild") => make_fn(self, NativeFn::RemoveChild),
            (NativeTag::Node(_), "setAttribute") => make_fn(self, NativeFn::SetAttribute),
            (NativeTag::Node(_), "getAttribute") => make_fn(self, NativeFn::GetAttribute),
            (NativeTag::Node(node), "innerHTML") => {
                Some(Value::Str(self.host.get_inner_html(node)?))
            }
            (NativeTag::Node(node), "textContent") => {
                Some(Value::Str(self.host.get_text_content(node)?))
            }
            (NativeTag::Node(node), "tagName") => Some(Value::Str(self.host.tag_name(node)?)),
            (NativeTag::Node(node), "id") => Some(Value::Str(
                self.host.get_attribute(node, "id")?.unwrap_or_default(),
            )),
            (NativeTag::Xhr(_), "open") => make_fn(self, NativeFn::XhrOpen),
            (NativeTag::Xhr(_), "send") => make_fn(self, NativeFn::XhrSend),
            (NativeTag::Xhr(_), "setRequestHeader") => make_fn(self, NativeFn::XhrSetRequestHeader),
            (NativeTag::History, "length") => {
                Some(Value::Number(self.host.history_length()? as f64))
            }
            (NativeTag::History, "back") => make_fn(self, NativeFn::HistoryBack),
            (NativeTag::Console, "log") => make_fn(self, NativeFn::ConsoleLog),
            (NativeTag::Window, "document") => self.lookup(0, "document"),
            (NativeTag::Window, "history") => self.lookup(0, "history"),
            (NativeTag::Window, "alert") => self.lookup(0, "alert"),
            _ => None,
        };
        Ok(value)
    }

    fn native_set(
        &mut self,
        tag: NativeTag,
        key: &str,
        value: &Value,
    ) -> Result<bool, ScriptError> {
        match (tag, key) {
            (NativeTag::Document, "cookie") => {
                self.host.cookie_set(&value.to_string())?;
                Ok(true)
            }
            (NativeTag::Node(node), "innerHTML") => {
                self.host.set_inner_html(node, &value.to_string())?;
                Ok(true)
            }
            (NativeTag::Node(node), "textContent") => {
                self.host.set_inner_html(node, &value.to_string())?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    fn call_native(
        &mut self,
        native: NativeFn,
        function_obj: ObjId,
        this: Value,
        args: Vec<Value>,
    ) -> Result<Value, ScriptError> {
        let arg = |index: usize| args.get(index).cloned().unwrap_or(Value::Undefined);
        match native {
            NativeFn::GetElementById => {
                let id = arg(0).to_string();
                match self.host.get_element_by_id(&id)? {
                    Some(node) => Ok(self.wrap_node(node)),
                    None => Ok(Value::Null),
                }
            }
            NativeFn::GetElementsByTagName => {
                let tag = arg(0).to_string();
                let nodes = self.host.get_elements_by_tag_name(&tag)?;
                let wrapped: Vec<Value> = nodes.into_iter().map(|n| self.wrap_node(n)).collect();
                Ok(self.alloc(Obj::array(wrapped)))
            }
            NativeFn::CreateElement => {
                let tag = arg(0).to_string();
                let node = self.host.create_element(&tag)?;
                Ok(self.wrap_node(node))
            }
            NativeFn::CreateTextNode => {
                let text = arg(0).to_string();
                let node = self.host.create_text_node(&text)?;
                Ok(self.wrap_node(node))
            }
            NativeFn::DocumentWrite => {
                self.host.document_write(&arg(0).to_string())?;
                Ok(Value::Undefined)
            }
            NativeFn::AppendChild => {
                let parent = self.expect_node(&this, "appendChild")?;
                let child = self.expect_node(&arg(0), "appendChild")?;
                self.host.append_child(parent, child)?;
                Ok(arg(0))
            }
            NativeFn::RemoveChild => {
                let parent = self.expect_node(&this, "removeChild")?;
                let child = self.expect_node(&arg(0), "removeChild")?;
                self.host.remove_child(parent, child)?;
                Ok(arg(0))
            }
            NativeFn::SetAttribute => {
                let node = self.expect_node(&this, "setAttribute")?;
                self.host
                    .set_attribute(node, &arg(0).to_string(), &arg(1).to_string())?;
                Ok(Value::Undefined)
            }
            NativeFn::GetAttribute => {
                let node = self.expect_node(&this, "getAttribute")?;
                match self.host.get_attribute(node, &arg(0).to_string())? {
                    Some(value) => Ok(Value::Str(value)),
                    None => Ok(Value::Null),
                }
            }
            NativeFn::XhrConstructor => {
                let handle = self.host.xhr_create()?;
                Ok(self.alloc(Obj::native(NativeTag::Xhr(handle))))
            }
            NativeFn::XhrOpen => {
                let xhr = self.expect_xhr(&this)?;
                self.host
                    .xhr_open(xhr, &arg(0).to_string(), &arg(1).to_string())?;
                Ok(Value::Undefined)
            }
            NativeFn::XhrSetRequestHeader => {
                let xhr = self.expect_xhr(&this)?;
                self.host
                    .xhr_set_request_header(xhr, &arg(0).to_string(), &arg(1).to_string())?;
                Ok(Value::Undefined)
            }
            NativeFn::XhrSend => {
                let xhr = self.expect_xhr(&this)?;
                let body = if args.is_empty() {
                    String::new()
                } else {
                    arg(0).to_string()
                };
                let outcome = self.host.xhr_send(xhr, &body)?;
                // Record the response on the XHR object so scripts can read
                // `xhr.status` and `xhr.responseText`.
                if let Value::Object(id) = &this {
                    let obj = self.obj_mut(*id);
                    obj.props.insert(
                        "status".to_string(),
                        Value::Number(f64::from(outcome.status)),
                    );
                    obj.props
                        .insert("responseText".to_string(), Value::Str(outcome.body));
                }
                Ok(Value::Undefined)
            }
            NativeFn::HistoryBack => {
                self.host.history_back()?;
                Ok(Value::Undefined)
            }
            NativeFn::Alert => {
                self.host.alert(&arg(0).to_string());
                Ok(Value::Undefined)
            }
            NativeFn::ConsoleLog => {
                let message = args
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(" ");
                self.host.log(&message);
                Ok(Value::Undefined)
            }
            NativeFn::ArrayPush => {
                if let Value::Object(id) = &this {
                    let value = arg(0);
                    if let Some(elements) = &mut self.obj_mut(*id).elements {
                        elements.push(value);
                        return Ok(Value::Number(elements.len() as f64));
                    }
                }
                Err(ScriptError::Runtime("push called on a non-array".into()))
            }
            NativeFn::IndexOf => {
                // The receiver string was recorded on the bound function object.
                let receiver = self
                    .obj(function_obj)
                    .props
                    .get("__this")
                    .cloned()
                    .unwrap_or(this);
                let haystack = receiver.to_string();
                let needle = arg(0).to_string();
                let index = haystack
                    .find(&needle)
                    .map(|byte| haystack[..byte].chars().count() as f64)
                    .unwrap_or(-1.0);
                Ok(Value::Number(index))
            }
        }
    }

    fn expect_xhr(&self, value: &Value) -> Result<u64, ScriptError> {
        if let Value::Object(id) = value {
            if let Some(NativeTag::Xhr(handle)) = self.obj(*id).native {
                return Ok(handle);
            }
        }
        Err(ScriptError::Runtime(
            "method must be called on an XMLHttpRequest".into(),
        ))
    }
}

fn strict_eq(left: &Value, right: &Value) -> bool {
    match (left, right) {
        (Value::Undefined, Value::Undefined) | (Value::Null, Value::Null) => true,
        (Value::Bool(a), Value::Bool(b)) => a == b,
        (Value::Number(a), Value::Number(b)) => a == b,
        (Value::Str(a), Value::Str(b)) => a == b,
        (Value::Object(a), Value::Object(b)) => a == b,
        _ => false,
    }
}

fn loose_eq(left: &Value, right: &Value) -> bool {
    match (left, right) {
        (Value::Undefined | Value::Null, Value::Undefined | Value::Null) => true,
        (Value::Number(_), Value::Str(_))
        | (Value::Str(_), Value::Number(_))
        | (Value::Bool(_), _)
        | (_, Value::Bool(_)) => left.to_number() == right.to_number(),
        _ => strict_eq(left, right),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::MockHost;

    fn run(source: &str) -> Value {
        let mut host = MockHost::new();
        Interpreter::new(&mut host).run(source).unwrap()
    }

    fn run_with(host: &mut MockHost, source: &str) -> Result<Value, ScriptError> {
        Interpreter::new(host).run(source)
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(run("1 + 2 * 3;"), Value::Number(7.0));
        assert_eq!(run("(1 + 2) * 3;"), Value::Number(9.0));
        assert_eq!(run("10 % 3;"), Value::Number(1.0));
        assert_eq!(run("7 / 2;"), Value::Number(3.5));
        assert_eq!(run("-3 + +2;"), Value::Number(-1.0));
    }

    #[test]
    fn string_concatenation_and_comparison() {
        assert_eq!(run("'a' + 'b' + 1;"), Value::Str("ab1".into()));
        assert_eq!(run("1 + '2';"), Value::Str("12".into()));
        assert_eq!(run("'abc'.length;"), Value::Number(3.0));
        assert_eq!(run("'hello'.indexOf('ll');"), Value::Number(2.0));
        assert_eq!(run("'hello'.indexOf('z');"), Value::Number(-1.0));
        assert_eq!(run("'a' < 'b';"), Value::Bool(true));
    }

    #[test]
    fn equality_semantics() {
        assert_eq!(run("1 == '1';"), Value::Bool(true));
        assert_eq!(run("1 === '1';"), Value::Bool(false));
        assert_eq!(run("null == undefined;"), Value::Bool(true));
        assert_eq!(run("null === undefined;"), Value::Bool(false));
        assert_eq!(run("2 !== 3;"), Value::Bool(true));
    }

    #[test]
    fn variables_functions_and_closures() {
        let source = r#"
            function makeCounter(start) {
                var count = start;
                return function() { count += 1; return count; };
            }
            var next = makeCounter(10);
            next();
            next();
        "#;
        assert_eq!(run(source), Value::Number(12.0));
    }

    #[test]
    fn control_flow_loops() {
        let source = r#"
            var total = 0;
            for (var i = 1; i <= 10; i++) {
                if (i % 2 === 0) { continue; }
                total += i;
            }
            var n = 0;
            while (true) { n++; if (n >= 3) { break; } }
            total + n;
        "#;
        assert_eq!(run(source), Value::Number(28.0));
    }

    #[test]
    fn objects_and_arrays() {
        let source = r#"
            var cfg = {name: 'escudo', rings: [0, 1, 2, 3]};
            cfg.rings.push(4);
            cfg.count = cfg.rings.length;
            cfg.name + ':' + cfg.count + ':' + cfg.rings[4];
        "#;
        assert_eq!(run(source), Value::Str("escudo:5:4".into()));
    }

    #[test]
    fn typeof_and_ternary() {
        assert_eq!(run("typeof 3;"), Value::Str("number".into()));
        assert_eq!(run("typeof 'x';"), Value::Str("string".into()));
        assert_eq!(run("typeof alert;"), Value::Str("function".into()));
        assert_eq!(run("1 < 2 ? 'yes' : 'no';"), Value::Str("yes".into()));
    }

    #[test]
    fn dom_access_via_the_host() {
        let mut host = MockHost::new();
        host.add_element("msg", "div", "old");
        let value = run_with(
            &mut host,
            "var el = document.getElementById('msg'); el.innerHTML = el.innerHTML + '!'; el.innerHTML;",
        )
        .unwrap();
        assert_eq!(value, Value::Str("old!".into()));
        assert_eq!(host.inner_html_of("msg"), Some("old!"));
    }

    #[test]
    fn dom_creation_and_attributes() {
        let mut host = MockHost::new();
        host.add_element("body", "body", "");
        let source = r#"
            var p = document.createElement('p');
            p.setAttribute('id', 'new');
            document.body.appendChild(p);
            p.getAttribute('id');
        "#;
        assert_eq!(
            run_with(&mut host, source).unwrap(),
            Value::Str("new".into())
        );
    }

    #[test]
    fn cookie_read_and_write() {
        let mut host = MockHost::new();
        host.set_cookie_string("sid=abc");
        let value = run_with(
            &mut host,
            "document.cookie = 'theme=dark'; document.cookie;",
        )
        .unwrap();
        assert_eq!(value, Value::Str("sid=abc; theme=dark".into()));
    }

    #[test]
    fn xhr_roundtrip() {
        let mut host = MockHost::new();
        host.xhr_response = "server says hi".to_string();
        let source = r#"
            var xhr = new XMLHttpRequest();
            xhr.open('POST', 'http://app.example/api');
            xhr.send('payload');
            xhr.status + ':' + xhr.responseText;
        "#;
        assert_eq!(
            run_with(&mut host, source).unwrap(),
            Value::Str("200:server says hi".into())
        );
    }

    #[test]
    fn access_denied_from_the_host_aborts_the_script() {
        struct DenyingHost(MockHost);
        impl Host for DenyingHost {
            fn get_element_by_id(
                &mut self,
                id: &str,
            ) -> Result<Option<crate::host::HostNodeId>, crate::host::HostError> {
                self.0.get_element_by_id(id)
            }
            fn get_elements_by_tag_name(
                &mut self,
                tag: &str,
            ) -> Result<Vec<crate::host::HostNodeId>, crate::host::HostError> {
                self.0.get_elements_by_tag_name(tag)
            }
            fn create_element(
                &mut self,
                tag: &str,
            ) -> Result<crate::host::HostNodeId, crate::host::HostError> {
                self.0.create_element(tag)
            }
            fn create_text_node(
                &mut self,
                text: &str,
            ) -> Result<crate::host::HostNodeId, crate::host::HostError> {
                self.0.create_text_node(text)
            }
            fn document_body(
                &mut self,
            ) -> Result<Option<crate::host::HostNodeId>, crate::host::HostError> {
                self.0.document_body()
            }
            fn document_write(&mut self, html: &str) -> Result<(), crate::host::HostError> {
                self.0.document_write(html)
            }
            fn append_child(
                &mut self,
                parent: crate::host::HostNodeId,
                child: crate::host::HostNodeId,
            ) -> Result<(), crate::host::HostError> {
                self.0.append_child(parent, child)
            }
            fn remove_child(
                &mut self,
                parent: crate::host::HostNodeId,
                child: crate::host::HostNodeId,
            ) -> Result<(), crate::host::HostError> {
                self.0.remove_child(parent, child)
            }
            fn set_attribute(
                &mut self,
                node: crate::host::HostNodeId,
                name: &str,
                value: &str,
            ) -> Result<(), crate::host::HostError> {
                self.0.set_attribute(node, name, value)
            }
            fn get_attribute(
                &mut self,
                node: crate::host::HostNodeId,
                name: &str,
            ) -> Result<Option<String>, crate::host::HostError> {
                self.0.get_attribute(node, name)
            }
            fn get_inner_html(
                &mut self,
                node: crate::host::HostNodeId,
            ) -> Result<String, crate::host::HostError> {
                self.0.get_inner_html(node)
            }
            fn set_inner_html(
                &mut self,
                node: crate::host::HostNodeId,
                html: &str,
            ) -> Result<(), crate::host::HostError> {
                self.0.set_inner_html(node, html)
            }
            fn get_text_content(
                &mut self,
                node: crate::host::HostNodeId,
            ) -> Result<String, crate::host::HostError> {
                self.0.get_text_content(node)
            }
            fn tag_name(
                &mut self,
                node: crate::host::HostNodeId,
            ) -> Result<String, crate::host::HostError> {
                self.0.tag_name(node)
            }
            fn cookie_get(&mut self) -> Result<String, crate::host::HostError> {
                Err(crate::host::HostError::AccessDenied(
                    "ring rule: principal ring 3 is outside cookie ring 1".into(),
                ))
            }
            fn cookie_set(&mut self, cookie: &str) -> Result<(), crate::host::HostError> {
                self.0.cookie_set(cookie)
            }
            fn xhr_create(&mut self) -> Result<crate::host::HostXhrId, crate::host::HostError> {
                self.0.xhr_create()
            }
            fn xhr_open(
                &mut self,
                xhr: crate::host::HostXhrId,
                method: &str,
                url: &str,
            ) -> Result<(), crate::host::HostError> {
                self.0.xhr_open(xhr, method, url)
            }
            fn xhr_set_request_header(
                &mut self,
                xhr: crate::host::HostXhrId,
                name: &str,
                value: &str,
            ) -> Result<(), crate::host::HostError> {
                self.0.xhr_set_request_header(xhr, name, value)
            }
            fn xhr_send(
                &mut self,
                xhr: crate::host::HostXhrId,
                body: &str,
            ) -> Result<crate::host::XhrOutcome, crate::host::HostError> {
                self.0.xhr_send(xhr, body)
            }
            fn history_length(&mut self) -> Result<usize, crate::host::HostError> {
                self.0.history_length()
            }
            fn history_back(&mut self) -> Result<(), crate::host::HostError> {
                self.0.history_back()
            }
            fn log(&mut self, message: &str) {
                self.0.log(message);
            }
            fn alert(&mut self, message: &str) {
                self.0.alert(message);
            }
        }

        let mut host = DenyingHost(MockHost::new());
        let err = Interpreter::new(&mut host)
            .run("var stolen = document.cookie; alert(stolen);")
            .unwrap_err();
        assert!(err.is_access_denied());
        // The alert never ran: the script aborted at the denial.
        assert!(host.0.messages.is_empty());
    }

    #[test]
    fn runtime_errors_are_reported() {
        let mut host = MockHost::new();
        assert!(matches!(
            run_with(&mut host, "missing();"),
            Err(ScriptError::Runtime(_))
        ));
        assert!(matches!(
            run_with(&mut host, "var x = 3; x();"),
            Err(ScriptError::Runtime(_))
        ));
        assert!(matches!(
            run_with(&mut host, "undefinedVariable + 1;"),
            Err(ScriptError::Runtime(_))
        ));
        assert!(matches!(
            run_with(&mut host, "null.property;"),
            Err(ScriptError::Runtime(_))
        ));
    }

    #[test]
    fn infinite_loops_hit_the_step_limit() {
        let mut host = MockHost::new();
        let err = Interpreter::new(&mut host)
            .with_step_limit(10_000)
            .run("while (true) { var x = 1; }")
            .unwrap_err();
        assert_eq!(err, ScriptError::StepLimitExceeded);
    }

    #[test]
    fn a_recursion_bomb_fails_closed_instead_of_overflowing_the_stack() {
        // An explicit 2 MiB stack, the size test and worker threads get by
        // default: without the call-depth bound this aborts the process.
        let outcome = std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(|| {
                let mut host = MockHost::new();
                let mut interp = Interpreter::new(&mut host);
                let bomb = interp.run("function f(n) { return f(n + 1); } f(0);");
                let wide = interp.run("function g(n) { return 1 + (n * (2 - g(n + 1))); } g(0);");
                // The depth counter unwinds with the error: the same
                // interpreter still runs recursion up to the bound.
                let bounded = interp.run(&format!(
                    "function h(n) {{ if (n == 0) {{ return 0; }} return 1 + h(n - 1); }} h({});",
                    MAX_CALL_DEPTH - 1
                ));
                (bomb, wide, bounded)
            })
            .expect("spawn test thread")
            .join()
            .expect("the bomb must not take the thread down");
        assert_eq!(outcome.0, Err(ScriptError::CallDepthExceeded));
        assert_eq!(outcome.1, Err(ScriptError::CallDepthExceeded));
        assert_eq!(outcome.2, Ok(Value::Number((MAX_CALL_DEPTH - 1) as f64)));
    }

    #[test]
    fn console_log_and_alert_reach_the_host() {
        let mut host = MockHost::new();
        run_with(&mut host, "console.log('a', 1); alert('danger');").unwrap();
        assert_eq!(
            host.messages,
            vec!["a 1".to_string(), "alert: danger".to_string()]
        );
    }

    #[test]
    fn document_write_reaches_the_host() {
        let mut host = MockHost::new();
        run_with(&mut host, "document.write('<p>injected</p>');").unwrap();
        assert_eq!(host.written, vec!["<p>injected</p>".to_string()]);
    }

    #[test]
    fn update_expressions() {
        assert_eq!(run("var i = 5; i++; i;"), Value::Number(6.0));
        assert_eq!(run("var i = 5; var j = i++; j;"), Value::Number(5.0));
        assert_eq!(run("var i = 5; var j = ++i; j;"), Value::Number(6.0));
        assert_eq!(run("var i = 5; i--; --i; i;"), Value::Number(3.0));
    }

    #[test]
    fn implicit_globals_are_created_on_assignment() {
        assert_eq!(run("function f() { g = 7; } f(); g;"), Value::Number(7.0));
    }

    #[test]
    fn history_is_reachable() {
        assert_eq!(run("history.length;"), Value::Number(1.0));
        assert_eq!(run("window.history.length;"), Value::Number(1.0));
    }
}
