//! The tree-walking interpreter.
//!
//! # Frames and slots
//!
//! Functions are the only scopes; blocks share their function's frame. After
//! parsing, the resolver gives every identifier an ordered list of candidate
//! slots, one per enclosing function that declares the name, plus a global
//! slot (see the `resolve` module). A frame is a vector of optional values: a
//! slot is `None` until its declaration runs, so a read takes the first
//! declared candidate, walking `hops` frames up the closure chain, and
//! otherwise the global. An assignment to a name no candidate has declared
//! creates the global (sloppy-mode implicit globals). Reading a variable is a
//! few index operations and a refcount bump; nothing hashes a name or
//! allocates.
//!
//! Globals live in one vector indexed by the interpreter's global-name table,
//! which successive [`Interpreter::run`] calls share. The six host objects
//! (`document`, `history`, `console`, `window`, `alert`, `XMLHttpRequest`)
//! hold fixed slots, so creating an interpreter installs no names.
//!
//! A call takes a frame from a free list and returns it when the call
//! returns, unless a function created while the call ran captured it.
//!
//! # Limits
//!
//! Every limit fails closed with a typed [`ScriptError`]:
//!
//! - **Steps.** Each statement and expression costs one step, a call also
//!   costs one step per slot of its frame (parameters, `this` and locals) and
//!   per argument, and a concatenation one step per [`COPY_BYTES_PER_STEP`]
//!   bytes it copies, so set-up and copying work is paid for. Past the budget
//!   ([`DEFAULT_STEP_LIMIT`] unless [`Interpreter::with_step_limit`] says
//!   otherwise) the script fails with [`ScriptError::StepLimitExceeded`]. The
//!   step budget also bounds every allocation of bounded size per step: an
//!   object, a property, a pushed element, a frame.
//! - **Bytes.** The sites where one step can allocate without bound are
//!   charged against [`BYTE_BUDGET`]: string concatenation, array growth
//!   through an index, and wrapping the nodes `getElementsByTagName` returns.
//!   Arrays and wrappers live as long as the interpreter, so their charge
//!   stays. A concatenation's result is charged while any value still holds
//!   it: when a charge would overrun the budget, the charges of strings no
//!   longer held are given back first, so an append loop pays for the string
//!   it builds, not for every copy on the way. Past the budget the script
//!   fails with [`ScriptError::ByteBudgetExceeded`] before the allocation is
//!   made.
//! - **Nesting.** The parser refuses trees taller than [`MAX_NESTING`]
//!   ([`ScriptError::NestingLimitExceeded`]), and at most [`MAX_CALL_DEPTH`]
//!   user calls nest ([`ScriptError::CallDepthExceeded`]). The evaluator
//!   recurses once per tree level (operator runs and `else if` chains are
//!   flat nodes it walks in a loop), so together they bound its stack.

use std::fmt::Write as _;
use std::rc::{Rc, Weak};

use crate::ast::{
    AssignOp, BinOp, Binding, Expr, Function, LogicalOp, MemberKey, Operator, Stmt, UnOp, UpdateOp,
    Var,
};
use crate::error::ScriptError;
use crate::host::Host;
use crate::parser::parse_program;
use crate::resolve::{resolve, GlobalNames, ALERT_SLOT, DOCUMENT_SLOT, HISTORY_SLOT};
use crate::value::{Callable, NativeFn, NativeTag, Obj, ObjId, Value};

/// Default number of evaluation steps a script may take before it is aborted.
pub const DEFAULT_STEP_LIMIT: u64 = 2_000_000;

/// Bound on nested user-function calls. The step budget does not bound the
/// evaluator's recursion, and `function f(n){ return f(n+1); }` would
/// otherwise abort the whole process with a stack overflow.
pub const MAX_CALL_DEPTH: usize = 32;

/// Bound on the height of a parsed tree and on the parser's recursion. The
/// evaluator recurses once per tree level, so one call level costs at most
/// this many evaluation levels. Sized so that the deepest tree inside
/// [`MAX_CALL_DEPTH`] nested calls fits a 2 MiB thread stack in the debug
/// profile, where frames are largest: the worst shape measured (a call chain
/// `f(n + 1)()()…` in every call) takes about 1.1 MiB there. The Figure-4,
/// forum and application scripts parse with a bound of 6.
pub const MAX_NESTING: u32 = 24;

/// Bytes one interpreter may hold at the sites where one step can allocate
/// without bound (see the module docs): live concatenation results, array
/// growth through an index and node wrappers. 16 MiB is far above any script
/// of the Figure-4, forum or application workloads (the largest holds 50
/// bytes, from one concatenation), lets an append loop build a string of
/// several MiB, and holds a doubling loop to a string of at most 8 MiB.
pub const BYTE_BUDGET: usize = 16 << 20;

/// Bytes a concatenation copies per step it is charged. About what one step
/// of other work costs in time, so copying cannot stall a script its step
/// budget would have stopped.
pub const COPY_BYTES_PER_STEP: usize = 1024;

/// The byte charge of a concatenation beyond its length: the string's
/// reference counts and its entry in the interpreter's list of built strings.
const STRING_OVERHEAD: usize =
    2 * std::mem::size_of::<usize>() + std::mem::size_of::<(Weak<str>, usize)>();

/// Entries of the built-string list one step pays for when the list is swept.
const SWEPT_PER_STEP: usize = 16;

/// The frame id of the global scope, which has no frame of its own.
const GLOBAL: u32 = u32::MAX;

/// One function activation.
#[derive(Debug)]
struct Frame {
    /// One entry per name in the function's layout; `None` until declared.
    slots: Vec<Option<Value>>,
    /// The frame the function closed over.
    parent: u32,
    /// A function created during the activation holds this frame.
    captured: bool,
}

/// How a statement finished.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// A property key: a name, or an array index computed from a number.
enum Key {
    Name(Rc<str>),
    Index(usize),
}

impl Key {
    fn name(&self) -> Rc<str> {
        match self {
            Key::Name(name) => Rc::clone(name),
            Key::Index(index) => Rc::from(index.to_string()),
        }
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Key::Name(name) => f.write_str(name),
            Key::Index(index) => write!(f, "{index}"),
        }
    }
}

/// The script interpreter. One interpreter instance executes one script (or a series
/// of scripts sharing globals) against a single [`Host`].
pub struct Interpreter<'h> {
    host: &'h mut dyn Host,
    heap: Vec<Obj>,
    /// Global slots, indexed by `names`.
    globals: Vec<Option<Value>>,
    names: GlobalNames,
    frames: Vec<Frame>,
    /// Frames returned by finished calls, ready for reuse.
    free_frames: Vec<u32>,
    steps_remaining: u64,
    bytes_remaining: usize,
    /// Every string built by concatenation since the last sweep, with its
    /// byte charge; the charge comes back once no value holds the string.
    built: Vec<(Weak<str>, usize)>,
    /// User-function calls currently on the interpreter's stack.
    call_depth: usize,
    /// Value of the most recent expression statement; `run` returns it so callers and
    /// tests can observe a script's "result" without a return statement.
    last_expression_value: Option<Value>,
    /// Reused buffer for building concatenations.
    scratch: String,
}

impl std::fmt::Debug for Interpreter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interpreter")
            .field("heap_objects", &self.heap.len())
            .field("globals", &self.globals.len())
            .field("frames", &self.live_frames())
            .field("steps_remaining", &self.steps_remaining)
            .field("bytes_remaining", &self.bytes_remaining)
            .finish()
    }
}

impl<'h> Interpreter<'h> {
    /// Creates an interpreter whose effectful operations go to `host`.
    pub fn new(host: &'h mut dyn Host) -> Self {
        // The host objects, in the fixed order of `resolve::HOST_GLOBALS`.
        let heap = vec![
            Obj::native(NativeTag::Document),
            Obj::native(NativeTag::History),
            Obj::native(NativeTag::Console),
            Obj::native(NativeTag::Window),
            Obj::native_fn(NativeFn::Alert),
            Obj::native_fn(NativeFn::XhrConstructor),
        ];
        let globals = (0..heap.len())
            .map(|id| Some(Value::Object(ObjId(id))))
            .collect();
        Interpreter {
            host,
            heap,
            globals,
            names: GlobalNames::default(),
            frames: Vec::new(),
            free_frames: Vec::new(),
            steps_remaining: DEFAULT_STEP_LIMIT,
            bytes_remaining: BYTE_BUDGET,
            built: Vec::new(),
            call_depth: 0,
            last_expression_value: None,
            scratch: String::new(),
        }
    }

    /// Replaces the step budget (builder style). Scripts exceeding the budget abort
    /// with [`ScriptError::StepLimitExceeded`].
    #[must_use]
    pub fn with_step_limit(mut self, limit: u64) -> Self {
        self.steps_remaining = limit;
        self
    }

    /// Parses and runs a script. Returns the value of the last expression statement
    /// (useful for tests and examples), or `undefined`. Successive runs share
    /// their globals.
    ///
    /// # Errors
    ///
    /// Propagates lexer/parser errors, runtime errors, host failures and — crucially
    /// for ESCUDO — [`ScriptError::AccessDenied`] when the reference monitor rejects a
    /// host call made by the script.
    pub fn run(&mut self, source: &str) -> Result<Value, ScriptError> {
        let mut program = parse_program(source)?;
        resolve(&mut program, &mut self.names);
        self.globals.resize(self.names.len(), None);
        let mut last = Value::Undefined;
        for stmt in &program {
            match self.exec(stmt, GLOBAL)? {
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

    /// Frames alive now: the global scope plus every call in progress and
    /// every frame a closure captured.
    pub(crate) fn live_frames(&self) -> usize {
        1 + self.frames.len() - self.free_frames.len()
    }

    // ------------------------------------------------------------- bookkeeping

    fn charge(&mut self, steps: u64) -> Result<(), ScriptError> {
        if self.steps_remaining < steps {
            self.steps_remaining = 0;
            return Err(ScriptError::StepLimitExceeded);
        }
        self.steps_remaining -= steps;
        Ok(())
    }

    /// Charges `bytes` against the byte budget, before they are allocated.
    /// If they do not fit, built strings no value holds any more give their
    /// charge back first.
    fn spend(&mut self, bytes: usize) -> Result<(), ScriptError> {
        if bytes > self.bytes_remaining {
            self.sweep_built()?;
            if bytes > self.bytes_remaining {
                return Err(ScriptError::ByteBudgetExceeded);
            }
        }
        self.bytes_remaining -= bytes;
        Ok(())
    }

    /// Drops the built strings no value holds from the list and returns their
    /// charge. The walk is paid for in steps, so it cannot stall a script
    /// that keeps its budget nearly full.
    fn sweep_built(&mut self) -> Result<(), ScriptError> {
        self.charge((self.built.len() / SWEPT_PER_STEP) as u64)?;
        let mut freed = 0;
        self.built.retain(|(string, charge)| {
            let held = string.strong_count() > 0;
            if !held {
                freed += charge;
            }
            held
        });
        self.bytes_remaining += freed;
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

    // ------------------------------------------------------------- frames

    fn push_frame(&mut self, parent: u32, size: usize) -> u32 {
        match self.free_frames.pop() {
            Some(id) => {
                let frame = &mut self.frames[id as usize];
                frame.slots.resize(size, None);
                frame.parent = parent;
                frame.captured = false;
                id
            }
            None => {
                self.frames.push(Frame {
                    slots: vec![None; size],
                    parent,
                    captured: false,
                });
                (self.frames.len() - 1) as u32
            }
        }
    }

    fn pop_frame(&mut self, id: u32) {
        let frame = &mut self.frames[id as usize];
        if !frame.captured {
            frame.slots.clear();
            self.free_frames.push(id);
        }
    }

    /// The declared local slot `binding` names from `frame`, as (frame, slot).
    fn local(&self, binding: &Binding, frame: u32) -> Option<(usize, usize)> {
        let mut current = frame;
        let mut hops = 0;
        for slot in binding.locals.iter() {
            while hops < slot.hops {
                current = self.frames[current as usize].parent;
                hops += 1;
            }
            let index = slot.index as usize;
            if self.frames[current as usize].slots[index].is_some() {
                return Some((current as usize, index));
            }
        }
        None
    }

    fn read(&self, var: &Var, frame: u32) -> Result<Value, ScriptError> {
        let value = match self.local(&var.binding, frame) {
            Some((frame, slot)) => &self.frames[frame].slots[slot],
            None => &self.globals[var.binding.global as usize],
        };
        value
            .clone()
            .ok_or_else(|| ScriptError::Runtime(format!("`{}` is not defined", var.name)))
    }

    /// Assigns to the first declared candidate, else to the global (creating
    /// it, like sloppy-mode JavaScript).
    fn write(&mut self, var: &Var, frame: u32, value: Value) {
        let slot = match self.local(&var.binding, frame) {
            Some((frame, slot)) => &mut self.frames[frame].slots[slot],
            None => &mut self.globals[var.binding.global as usize],
        };
        *slot = Some(value);
    }

    /// Runs a declaration: the name's slot in the current function's frame, or
    /// the global at the top level.
    fn declare(&mut self, var: &Var, frame: u32, value: Value) {
        let slot = match var.binding.locals.first() {
            Some(slot) => &mut self.frames[frame as usize].slots[slot.index as usize],
            None => &mut self.globals[var.binding.global as usize],
        };
        *slot = Some(value);
    }

    /// A function object closing over `frame`, which stays alive from now on.
    fn closure(&mut self, function: &Rc<Function>, frame: u32) -> Value {
        if frame != GLOBAL {
            self.frames[frame as usize].captured = true;
        }
        self.alloc(Obj {
            callable: Some(Callable::User {
                function: Rc::clone(function),
                scope: frame,
            }),
            ..Obj::default()
        })
    }

    // ------------------------------------------------------------- statements
    //
    // `exec` and `eval` recurse once per tree level, and `MAX_NESTING` levels
    // run inside each of `MAX_CALL_DEPTH` calls. To keep a level's stack small
    // in every build profile, the two dispatchers bind as little as they can:
    // most arms hand the whole node to a helper that destructures it, and work
    // that does not recurse sits in helpers off the recursive path.

    fn exec(&mut self, stmt: &Stmt, frame: u32) -> Result<Flow, ScriptError> {
        self.charge(1)?;
        match stmt {
            Stmt::Empty => Ok(Flow::Normal),
            Stmt::Expr(_) => self.exec_expr(stmt, frame),
            Stmt::VarDecl { .. } => self.exec_var(stmt, frame),
            Stmt::FunctionDecl { .. } => self.exec_function(stmt, frame),
            Stmt::Return(_) => self.exec_return(stmt, frame),
            Stmt::Block(_) | Stmt::If { .. } => self.exec_branch(stmt, frame),
            Stmt::While { .. } => self.exec_while(stmt, frame),
            Stmt::For { .. } => self.exec_for(stmt, frame),
            Stmt::Break => Ok(Flow::Break),
            Stmt::Continue => Ok(Flow::Continue),
        }
    }

    fn exec_expr(&mut self, stmt: &Stmt, frame: u32) -> Result<Flow, ScriptError> {
        let Stmt::Expr(expr) = stmt else {
            unreachable!("dispatched on Stmt::Expr")
        };
        self.last_expression_value = Some(self.eval(expr, frame)?);
        Ok(Flow::Normal)
    }

    fn exec_var(&mut self, stmt: &Stmt, frame: u32) -> Result<Flow, ScriptError> {
        let Stmt::VarDecl { name, init } = stmt else {
            unreachable!("dispatched on Stmt::VarDecl")
        };
        let value = match init {
            Some(expr) => self.eval(expr, frame)?,
            None => Value::Undefined,
        };
        self.declare(name, frame, value);
        Ok(Flow::Normal)
    }

    fn exec_function(&mut self, stmt: &Stmt, frame: u32) -> Result<Flow, ScriptError> {
        let Stmt::FunctionDecl { name, function } = stmt else {
            unreachable!("dispatched on Stmt::FunctionDecl")
        };
        let value = self.closure(function, frame);
        self.declare(name, frame, value);
        Ok(Flow::Normal)
    }

    fn exec_return(&mut self, stmt: &Stmt, frame: u32) -> Result<Flow, ScriptError> {
        let Stmt::Return(expr) = stmt else {
            unreachable!("dispatched on Stmt::Return")
        };
        Ok(Flow::Return(match expr {
            Some(expr) => self.eval(expr, frame)?,
            None => Value::Undefined,
        }))
    }

    /// A block, or the body of the `if` arm whose condition holds. Each arm
    /// after the first costs a step, as the `if` statement it stands for.
    fn exec_branch(&mut self, stmt: &Stmt, frame: u32) -> Result<Flow, ScriptError> {
        let branch = match stmt {
            Stmt::Block(statements) => Some(statements),
            Stmt::If { arms, otherwise } => self.pick_arm(arms, frame)?.or(otherwise.as_ref()),
            _ => unreachable!("dispatched on Stmt::Block or Stmt::If"),
        };
        match branch {
            Some(statements) => self.exec_block(statements, frame),
            None => Ok(Flow::Normal),
        }
    }

    fn pick_arm<'s>(
        &mut self,
        arms: &'s [(Expr, Vec<Stmt>)],
        frame: u32,
    ) -> Result<Option<&'s Vec<Stmt>>, ScriptError> {
        for (index, (cond, body)) in arms.iter().enumerate() {
            if index > 0 {
                self.charge(1)?;
            }
            if self.eval(cond, frame)?.is_truthy() {
                return Ok(Some(body));
            }
        }
        Ok(None)
    }

    fn exec_while(&mut self, stmt: &Stmt, frame: u32) -> Result<Flow, ScriptError> {
        let Stmt::While { cond, body } = stmt else {
            unreachable!("dispatched on Stmt::While")
        };
        while self.eval(cond, frame)?.is_truthy() {
            match self.exec_block(body, frame)? {
                Flow::Return(value) => return Ok(Flow::Return(value)),
                Flow::Break => break,
                Flow::Continue | Flow::Normal => {}
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_for(&mut self, stmt: &Stmt, frame: u32) -> Result<Flow, ScriptError> {
        let Stmt::For {
            init,
            cond,
            update,
            body,
        } = stmt
        else {
            unreachable!("dispatched on Stmt::For")
        };
        if let Some(init) = init {
            self.exec(init, frame)?;
        }
        loop {
            if let Some(cond) = cond {
                if !self.eval(cond, frame)?.is_truthy() {
                    break;
                }
            }
            match self.exec_block(body, frame)? {
                Flow::Return(value) => return Ok(Flow::Return(value)),
                Flow::Break => break,
                Flow::Continue | Flow::Normal => {}
            }
            if let Some(update) = update {
                self.eval(update, frame)?;
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_block(&mut self, statements: &[Stmt], frame: u32) -> Result<Flow, ScriptError> {
        for stmt in statements {
            match self.exec(stmt, frame)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    // ------------------------------------------------------------- expressions

    fn eval(&mut self, expr: &Expr, frame: u32) -> Result<Value, ScriptError> {
        self.charge(1)?;
        match expr {
            Expr::Ident(var) => self.read(var, frame),
            Expr::Number(_)
            | Expr::Str(_)
            | Expr::Bool(_)
            | Expr::Null
            | Expr::Undefined
            | Expr::Function(_) => Ok(self.literal(expr, frame)),
            Expr::Array(elements) => self.eval_array(elements, frame),
            Expr::Object(_) => self.eval_object(expr, frame),
            Expr::Unary { .. } => self.eval_unary(expr, frame),
            Expr::Chain { .. } => self.eval_chain(expr, frame),
            Expr::Conditional { .. } => self.eval_conditional(expr, frame),
            Expr::Assign { .. } => self.eval_assign(expr, frame),
            Expr::Update { .. } => self.eval_update(expr, frame),
            Expr::Member { .. } => self.eval_member(expr, frame),
            Expr::Call { .. } => self.eval_call(expr, frame),
            Expr::New { .. } => self.eval_new(expr, frame),
        }
    }

    fn literal(&mut self, expr: &Expr, frame: u32) -> Value {
        match expr {
            Expr::Number(n) => Value::Number(*n),
            Expr::Str(s) => Value::Str(Rc::clone(s)),
            Expr::Bool(b) => Value::Bool(*b),
            Expr::Null => Value::Null,
            Expr::Function(function) => self.closure(function, frame),
            _ => Value::Undefined,
        }
    }

    fn eval_args(&mut self, args: &[Expr], frame: u32) -> Result<Vec<Value>, ScriptError> {
        let mut values = Vec::with_capacity(args.len());
        for arg in args {
            values.push(self.eval(arg, frame)?);
        }
        Ok(values)
    }

    fn eval_array(&mut self, elements: &[Expr], frame: u32) -> Result<Value, ScriptError> {
        let elements = self.eval_args(elements, frame)?;
        Ok(self.alloc(Obj::array(elements)))
    }

    fn eval_object(&mut self, expr: &Expr, frame: u32) -> Result<Value, ScriptError> {
        let Expr::Object(properties) = expr else {
            unreachable!("dispatched on Expr::Object")
        };
        let mut obj = Obj::plain();
        for (key, value) in properties {
            let value = self.eval(value, frame)?;
            obj.props.insert(Rc::clone(key), value);
        }
        Ok(self.alloc(obj))
    }

    fn eval_unary(&mut self, expr: &Expr, frame: u32) -> Result<Value, ScriptError> {
        let Expr::Unary { op, expr } = expr else {
            unreachable!("dispatched on Expr::Unary")
        };
        let value = self.eval(expr, frame)?;
        Ok(self.unary(*op, &value))
    }

    fn unary(&self, op: UnOp, value: &Value) -> Value {
        match op {
            UnOp::Neg => Value::Number(-value.to_number()),
            UnOp::Plus => Value::Number(value.to_number()),
            UnOp::Not => Value::Bool(!value.is_truthy()),
            UnOp::Typeof => {
                let name = if matches!(value, Value::Object(id) if self.obj(*id).callable.is_some())
                {
                    "function"
                } else {
                    value.type_of()
                };
                Value::Str(Rc::from(name))
            }
        }
    }

    /// A run of binary and short-circuiting logical operators, left to
    /// right. Each operator after the first costs a step, as the node it
    /// stands for in the grouped tree.
    fn eval_chain(&mut self, expr: &Expr, frame: u32) -> Result<Value, ScriptError> {
        let Expr::Chain { first, rest } = expr else {
            unreachable!("dispatched on Expr::Chain")
        };
        let mut value = self.eval(first, frame)?;
        for (index, (op, operand)) in rest.iter().enumerate() {
            if index > 0 {
                self.charge(1)?;
            }
            value = match *op {
                Operator::Binary(op) => {
                    let right = self.eval(operand, frame)?;
                    self.binary(op, &value, &right)?
                }
                Operator::Logical(LogicalOp::And) if !value.is_truthy() => value,
                Operator::Logical(LogicalOp::Or) if value.is_truthy() => value,
                Operator::Logical(_) => self.eval(operand, frame)?,
            };
        }
        Ok(value)
    }

    fn eval_conditional(&mut self, expr: &Expr, frame: u32) -> Result<Value, ScriptError> {
        let Expr::Conditional {
            cond,
            then,
            otherwise,
        } = expr
        else {
            unreachable!("dispatched on Expr::Conditional")
        };
        let branch = if self.eval(cond, frame)?.is_truthy() {
            then
        } else {
            otherwise
        };
        self.eval(branch, frame)
    }

    fn eval_assign(&mut self, expr: &Expr, frame: u32) -> Result<Value, ScriptError> {
        let Expr::Assign { target, op, value } = expr else {
            unreachable!("dispatched on Expr::Assign")
        };
        let rhs = self.eval(value, frame)?;
        self.store(target, *op, rhs, frame)
    }

    /// Completes `target op= rhs` once `rhs` is known; returns the stored value.
    fn store(
        &mut self,
        target: &Expr,
        op: AssignOp,
        rhs: Value,
        frame: u32,
    ) -> Result<Value, ScriptError> {
        let value = match op {
            AssignOp::Assign => rhs,
            AssignOp::Add => {
                let current = self.eval(target, frame)?;
                self.binary(BinOp::Add, &current, &rhs)?
            }
            AssignOp::Sub => {
                let current = self.eval(target, frame)?;
                self.binary(BinOp::Sub, &current, &rhs)?
            }
        };
        self.assign(target, value.clone(), frame)?;
        Ok(value)
    }

    fn eval_update(&mut self, expr: &Expr, frame: u32) -> Result<Value, ScriptError> {
        let Expr::Update { op, prefix, target } = expr else {
            unreachable!("dispatched on Expr::Update")
        };
        let current = self.eval(target, frame)?.to_number();
        let updated = match op {
            UpdateOp::Increment => current + 1.0,
            UpdateOp::Decrement => current - 1.0,
        };
        self.assign(target, Value::Number(updated), frame)?;
        Ok(Value::Number(if *prefix { updated } else { current }))
    }

    fn eval_member(&mut self, expr: &Expr, frame: u32) -> Result<Value, ScriptError> {
        let Expr::Member { object, property } = expr else {
            unreachable!("dispatched on Expr::Member")
        };
        let object = self.eval(object, frame)?;
        let key = self.member_key(property, frame)?;
        self.get_member(object, &key)
    }

    fn eval_call(&mut self, expr: &Expr, frame: u32) -> Result<Value, ScriptError> {
        let Expr::Call { callee, args } = expr else {
            unreachable!("dispatched on Expr::Call")
        };
        let (function, this) = self.callee(callee, frame)?;
        let args = self.eval_args(args, frame)?;
        self.call(function, this, args)
    }

    /// The function a call expression calls and the `this` it is called on:
    /// the object of a method call, otherwise `undefined`.
    fn callee(&mut self, callee: &Expr, frame: u32) -> Result<(Value, Value), ScriptError> {
        match callee {
            Expr::Member { object, property } => {
                let this = self.eval(object, frame)?;
                self.method(this, property, frame)
            }
            _ => Ok((self.eval(callee, frame)?, Value::Undefined)),
        }
    }

    /// The method `this[property]`, paired with `this`.
    fn method(
        &mut self,
        this: Value,
        property: &MemberKey,
        frame: u32,
    ) -> Result<(Value, Value), ScriptError> {
        let key = self.member_key(property, frame)?;
        let function = self.get_member(this.clone(), &key)?;
        Ok((function, this))
    }

    fn eval_new(&mut self, expr: &Expr, frame: u32) -> Result<Value, ScriptError> {
        let Expr::New { callee, args } = expr else {
            unreachable!("dispatched on Expr::New")
        };
        let function = self.eval(callee, frame)?;
        let args = self.eval_args(args, frame)?;
        self.construct(function, args)
    }

    fn member_key(&mut self, property: &MemberKey, frame: u32) -> Result<Key, ScriptError> {
        match property {
            MemberKey::Static(name) => Ok(Key::Name(Rc::clone(name))),
            MemberKey::Computed(expr) => {
                let value = self.eval(expr, frame)?;
                Ok(key_of(value))
            }
        }
    }

    // ------------------------------------------------------------- operators

    fn binary(&mut self, op: BinOp, left: &Value, right: &Value) -> Result<Value, ScriptError> {
        use BinOp::*;
        let value = match op {
            Add => {
                if matches!(left, Value::Str(_)) || matches!(right, Value::Str(_)) {
                    return self.concat(left, right);
                }
                Value::Number(left.to_number() + right.to_number())
            }
            Sub => Value::Number(left.to_number() - right.to_number()),
            Mul => Value::Number(left.to_number() * right.to_number()),
            Div => Value::Number(left.to_number() / right.to_number()),
            Rem => Value::Number(left.to_number() % right.to_number()),
            Lt => Value::Bool(compare(left, right, |o| o == std::cmp::Ordering::Less)),
            Gt => Value::Bool(compare(left, right, |o| o == std::cmp::Ordering::Greater)),
            Le => Value::Bool(compare(left, right, |o| o != std::cmp::Ordering::Greater)),
            Ge => Value::Bool(compare(left, right, |o| o != std::cmp::Ordering::Less)),
            StrictEq => Value::Bool(strict_eq(left, right)),
            StrictNotEq => Value::Bool(!strict_eq(left, right)),
            Eq => Value::Bool(loose_eq(left, right)),
            NotEq => Value::Bool(!loose_eq(left, right)),
        };
        Ok(value)
    }

    /// String concatenation, charged before the result is built: string
    /// operands by their length (in bytes and in copying steps), the printed
    /// form of any other operand (a few dozen bytes at most) once it is
    /// written. The result joins the list of built strings.
    fn concat(&mut self, left: &Value, right: &Value) -> Result<Value, ScriptError> {
        let known = left.as_str().map_or(0, str::len) + right.as_str().map_or(0, str::len);
        self.charge((known / COPY_BYTES_PER_STEP) as u64)?;
        self.spend(known + STRING_OVERHEAD)?;
        let mut text = std::mem::take(&mut self.scratch);
        text.clear();
        write!(text, "{left}{right}").expect("writing to a String cannot fail");
        let value = self.spend(text.len() - known).map(|()| {
            let string: Rc<str> = Rc::from(text.as_str());
            let charge = text.len() + STRING_OVERHEAD;
            self.built.push((Rc::downgrade(&string), charge));
            Value::Str(string)
        });
        self.scratch = text;
        value
    }

    // ------------------------------------------------------------- assignment

    fn assign(&mut self, target: &Expr, value: Value, frame: u32) -> Result<(), ScriptError> {
        match target {
            Expr::Ident(var) => {
                self.write(var, frame, value);
                Ok(())
            }
            Expr::Member { object, property } => {
                let object_value = self.eval(object, frame)?;
                let key = self.member_key(property, frame)?;
                self.set_member(object_value, &key, value)
            }
            _ => Err(ScriptError::Runtime("invalid assignment target".into())),
        }
    }

    // ------------------------------------------------------------- member access

    fn get_member(&mut self, object: Value, key: &Key) -> Result<Value, ScriptError> {
        match object {
            Value::Str(s) => match key {
                Key::Name(name) if &**name == "length" => {
                    Ok(Value::Number(s.chars().count() as f64))
                }
                Key::Name(name) if &**name == "indexOf" => {
                    let bound = self.alloc(Obj::native_fn(NativeFn::IndexOf));
                    if let Value::Object(id) = bound {
                        self.obj_mut(id)
                            .props
                            .insert(Rc::from("__this"), Value::Str(s));
                    }
                    Ok(bound)
                }
                _ => Ok(Value::Undefined),
            },
            Value::Object(id) => {
                if let (Some(tag), Key::Name(name)) = (self.obj(id).native, key) {
                    if let Some(value) = self.native_get(tag, name)? {
                        return Ok(value);
                    }
                }
                let obj = self.obj(id);
                if let Some(elements) = &obj.elements {
                    let index = match key {
                        Key::Index(index) => Some(*index),
                        Key::Name(name) if &**name == "length" => {
                            return Ok(Value::Number(elements.len() as f64));
                        }
                        Key::Name(name) if &**name == "push" => {
                            return Ok(self.alloc(Obj::native_fn(NativeFn::ArrayPush)));
                        }
                        Key::Name(name) => name.parse::<usize>().ok(),
                    };
                    if let Some(index) = index {
                        return Ok(elements.get(index).cloned().unwrap_or(Value::Undefined));
                    }
                }
                let value = match key {
                    Key::Name(name) => obj.props.get(&**name),
                    Key::Index(index) => obj.props.get(index.to_string().as_str()),
                };
                Ok(value.cloned().unwrap_or(Value::Undefined))
            }
            Value::Undefined | Value::Null => Err(ScriptError::Runtime(format!(
                "cannot read property `{key}` of {object}"
            ))),
            _ => Ok(Value::Undefined),
        }
    }

    fn set_member(&mut self, object: Value, key: &Key, value: Value) -> Result<(), ScriptError> {
        let Value::Object(id) = object else {
            return Err(ScriptError::Runtime(format!(
                "cannot set property `{key}` on {object}"
            )));
        };
        if let (Some(tag), Key::Name(name)) = (self.obj(id).native, key) {
            if self.native_set(tag, name, &value)? {
                return Ok(());
            }
        }
        if let Some(elements) = &self.obj(id).elements {
            let index = match key {
                Key::Index(index) => Some(*index),
                Key::Name(name) => name.parse::<usize>().ok(),
            };
            if let Some(index) = index {
                let len = elements.len();
                if index >= len {
                    let growth = (index - len).saturating_add(1);
                    self.spend(growth.saturating_mul(std::mem::size_of::<Value>()))?;
                }
                let elements = self.obj_mut(id).elements.as_mut().expect("an array");
                if index >= len {
                    elements.resize(index + 1, Value::Undefined);
                }
                elements[index] = value;
                return Ok(());
            }
        }
        self.obj_mut(id).props.insert(key.name(), value);
        Ok(())
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
        let (function, scope) = match &self.obj(id).callable {
            Some(Callable::User { function, scope }) => (Rc::clone(function), *scope),
            Some(Callable::Native(native)) => {
                let native = *native;
                return self.call_native(native, id, this, args);
            }
            None => return Err(ScriptError::Runtime("value is not callable".into())),
        };
        if self.call_depth >= MAX_CALL_DEPTH {
            return Err(ScriptError::CallDepthExceeded);
        }
        self.charge((function.slots.len() + args.len()) as u64)?;
        let frame = self.push_frame(scope, function.slots.len());
        let slots = &mut self.frames[frame as usize].slots;
        let mut args = args.into_iter();
        for &slot in &function.param_slots {
            slots[slot as usize] = Some(args.next().unwrap_or(Value::Undefined));
        }
        slots[function.this_slot as usize] = Some(this);
        self.call_depth += 1;
        let flow = self.exec_block(&function.body, frame);
        self.call_depth -= 1;
        self.pop_frame(frame);
        Ok(match flow? {
            Flow::Return(value) => value,
            _ => Value::Undefined,
        })
    }

    fn construct(&mut self, function: Value, args: Vec<Value>) -> Result<Value, ScriptError> {
        let Value::Object(id) = function else {
            return Err(ScriptError::Runtime(format!(
                "{function} is not a constructor"
            )));
        };
        match &self.obj(id).callable {
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
        let function = match (tag, key) {
            (NativeTag::Document, "getElementById") => NativeFn::GetElementById,
            (NativeTag::Document, "getElementsByTagName") => NativeFn::GetElementsByTagName,
            (NativeTag::Document, "createElement") => NativeFn::CreateElement,
            (NativeTag::Document, "createTextNode") => NativeFn::CreateTextNode,
            (NativeTag::Document, "write") => NativeFn::DocumentWrite,
            (NativeTag::Node(_), "appendChild") => NativeFn::AppendChild,
            (NativeTag::Node(_), "removeChild") => NativeFn::RemoveChild,
            (NativeTag::Node(_), "setAttribute") => NativeFn::SetAttribute,
            (NativeTag::Node(_), "getAttribute") => NativeFn::GetAttribute,
            (NativeTag::Xhr(_), "open") => NativeFn::XhrOpen,
            (NativeTag::Xhr(_), "send") => NativeFn::XhrSend,
            (NativeTag::Xhr(_), "setRequestHeader") => NativeFn::XhrSetRequestHeader,
            (NativeTag::History, "back") => NativeFn::HistoryBack,
            (NativeTag::Console, "log") => NativeFn::ConsoleLog,
            _ => return self.native_property(tag, key),
        };
        Ok(Some(self.alloc(Obj::native_fn(function))))
    }

    fn native_property(&mut self, tag: NativeTag, key: &str) -> Result<Option<Value>, ScriptError> {
        let text = |text: String| Some(Value::Str(Rc::from(text)));
        let value = match (tag, key) {
            (NativeTag::Document, "cookie") => text(self.host.cookie_get()?),
            (NativeTag::Document, "body") => match self.host.document_body()? {
                Some(node) => Some(self.wrap_node(node)),
                None => Some(Value::Null),
            },
            (NativeTag::Node(node), "innerHTML") => text(self.host.get_inner_html(node)?),
            (NativeTag::Node(node), "textContent") => text(self.host.get_text_content(node)?),
            (NativeTag::Node(node), "tagName") => text(self.host.tag_name(node)?),
            (NativeTag::Node(node), "id") => {
                text(self.host.get_attribute(node, "id")?.unwrap_or_default())
            }
            (NativeTag::History, "length") => {
                Some(Value::Number(self.host.history_length()? as f64))
            }
            (NativeTag::Window, "document") => self.globals[DOCUMENT_SLOT].clone(),
            (NativeTag::Window, "history") => self.globals[HISTORY_SLOT].clone(),
            (NativeTag::Window, "alert") => self.globals[ALERT_SLOT].clone(),
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
                self.host.cookie_set(&text(value))?;
                Ok(true)
            }
            (NativeTag::Node(node), "innerHTML" | "textContent") => {
                self.host.set_inner_html(node, &text(value))?;
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
        let undefined = Value::Undefined;
        let arg = |index: usize| args.get(index).unwrap_or(&undefined);
        match native {
            NativeFn::GetElementById => match self.host.get_element_by_id(&text(arg(0)))? {
                Some(node) => Ok(self.wrap_node(node)),
                None => Ok(Value::Null),
            },
            NativeFn::GetElementsByTagName => {
                let nodes = self.host.get_elements_by_tag_name(&text(arg(0)))?;
                let per_node = std::mem::size_of::<Obj>() + std::mem::size_of::<Value>();
                self.spend(nodes.len().saturating_mul(per_node))?;
                let wrapped = nodes.into_iter().map(|n| self.wrap_node(n)).collect();
                Ok(self.alloc(Obj::array(wrapped)))
            }
            NativeFn::CreateElement => {
                let node = self.host.create_element(&text(arg(0)))?;
                Ok(self.wrap_node(node))
            }
            NativeFn::CreateTextNode => {
                let node = self.host.create_text_node(&text(arg(0)))?;
                Ok(self.wrap_node(node))
            }
            NativeFn::DocumentWrite => {
                self.host.document_write(&text(arg(0)))?;
                Ok(Value::Undefined)
            }
            NativeFn::AppendChild => {
                let parent = self.expect_node(&this, "appendChild")?;
                let child = self.expect_node(arg(0), "appendChild")?;
                self.host.append_child(parent, child)?;
                Ok(arg(0).clone())
            }
            NativeFn::RemoveChild => {
                let parent = self.expect_node(&this, "removeChild")?;
                let child = self.expect_node(arg(0), "removeChild")?;
                self.host.remove_child(parent, child)?;
                Ok(arg(0).clone())
            }
            NativeFn::SetAttribute => {
                let node = self.expect_node(&this, "setAttribute")?;
                self.host
                    .set_attribute(node, &text(arg(0)), &text(arg(1)))?;
                Ok(Value::Undefined)
            }
            NativeFn::GetAttribute => {
                let node = self.expect_node(&this, "getAttribute")?;
                match self.host.get_attribute(node, &text(arg(0)))? {
                    Some(value) => Ok(Value::Str(Rc::from(value))),
                    None => Ok(Value::Null),
                }
            }
            NativeFn::XhrConstructor => {
                let handle = self.host.xhr_create()?;
                Ok(self.alloc(Obj::native(NativeTag::Xhr(handle))))
            }
            NativeFn::XhrOpen => {
                let xhr = self.expect_xhr(&this)?;
                self.host.xhr_open(xhr, &text(arg(0)), &text(arg(1)))?;
                Ok(Value::Undefined)
            }
            NativeFn::XhrSetRequestHeader => {
                let xhr = self.expect_xhr(&this)?;
                self.host
                    .xhr_set_request_header(xhr, &text(arg(0)), &text(arg(1)))?;
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
                    obj.props
                        .insert(Rc::from("status"), Value::Number(f64::from(outcome.status)));
                    obj.props
                        .insert(Rc::from("responseText"), Value::Str(Rc::from(outcome.body)));
                }
                Ok(Value::Undefined)
            }
            NativeFn::HistoryBack => {
                self.host.history_back()?;
                Ok(Value::Undefined)
            }
            NativeFn::Alert => {
                self.host.alert(&text(arg(0)));
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
                    let value = arg(0).clone();
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
                let haystack = text(&receiver);
                let needle = text(arg(0));
                let index = haystack
                    .find(&*needle)
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

/// The property key a computed member access uses.
fn key_of(value: Value) -> Key {
    match value {
        // The index a whole number's decimal text parses to.
        Value::Number(n) if n >= 0.0 && n.fract() == 0.0 && n < 1e15 => Key::Index(n as usize),
        Value::Str(s) => Key::Name(s),
        other => Key::Name(Rc::from(other.to_string())),
    }
}

/// A value's string form, borrowed when it is a string.
fn text(value: &Value) -> std::borrow::Cow<'_, str> {
    match value {
        Value::Str(s) => std::borrow::Cow::Borrowed(s),
        other => std::borrow::Cow::Owned(other.to_string()),
    }
}

fn compare(left: &Value, right: &Value, check: impl Fn(std::cmp::Ordering) -> bool) -> bool {
    if let (Value::Str(a), Value::Str(b)) = (left, right) {
        return check(a.cmp(b));
    }
    let (a, b) = (left.to_number(), right.to_number());
    match a.partial_cmp(&b) {
        Some(ordering) => check(ordering),
        None => false,
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
                [bomb, wide, bounded].map(|outcome| outcome.map(|value| value.to_string()))
            })
            .expect("spawn test thread")
            .join()
            .expect("the bomb must not take the thread down");
        assert_eq!(outcome[0], Err(ScriptError::CallDepthExceeded));
        assert_eq!(outcome[1], Err(ScriptError::CallDepthExceeded));
        assert_eq!(outcome[2], Ok((MAX_CALL_DEPTH - 1).to_string()));
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

    /// Runs `probe` on a thread with an explicit 2 MiB stack, the size test
    /// and worker threads get by default.
    fn on_small_stack<T: Send + 'static>(probe: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 * 1024 * 1024)
            .spawn(probe)
            .expect("spawn probe thread")
            .join()
            .expect("the probe must not take the thread down")
    }

    #[test]
    fn call_frames_are_freed_on_return_unless_captured() {
        let mut host = MockHost::new();
        let mut interp = Interpreter::new(&mut host);
        interp
            .run("function f(a) { var b = a; return b; } for (var i = 0; i < 10000; i++) { f(i); }")
            .unwrap();
        assert_eq!(interp.live_frames(), 1, "only the global scope is left");

        // Each call of `mk` creates a closure over its frame, so those stay.
        let value = interp
            .run(
                "function mk(n) { return function() { return n; }; } \
                 var kept = []; for (var j = 0; j < 10000; j++) { f(j); if (j % 1000 == 0) { kept.push(mk(j)); } } \
                 kept[3]();",
            )
            .unwrap();
        assert_eq!(value, Value::Number(3000.0));
        assert_eq!(interp.live_frames(), 1 + 10);
    }

    #[test]
    fn a_call_is_charged_per_parameter_and_argument() {
        let params: Vec<String> = (0..100).map(|i| format!("p{i}")).collect();
        let source = format!(
            "function f({}) {{ return p0; }} for (;;) {{ f({}); console.log('call'); }}",
            params.join(", "),
            params.join(", ").replace('p', ""),
        );
        let limit = 100_000;
        let mut host = MockHost::new();
        let err = Interpreter::new(&mut host)
            .with_step_limit(limit)
            .run(&source)
            .unwrap_err();
        assert_eq!(err, ScriptError::StepLimitExceeded);
        let calls = host.messages.len() as u64;
        assert!(calls > 0);
        assert!(
            calls <= limit / 100,
            "{calls} calls of a 100-parameter function under a {limit}-step limit"
        );
    }

    /// A source text with its nesting depth as the parameter.
    type Shape = fn(usize) -> String;

    /// The largest `k` whose `shape(k)` still parses, and the error one level
    /// deeper.
    fn deepest(shape: &dyn Fn(usize) -> String) -> (usize, ScriptError) {
        let mut k = 1;
        loop {
            if let Err(error) = parse_program(&shape(k + 1)) {
                return (k, error);
            }
            k += 1;
        }
    }

    #[test]
    fn every_nesting_shape_stops_at_one_bound_with_a_typed_error() {
        let shapes: Vec<(&str, Shape)> = vec![
            ("parentheses", |k| {
                format!("{}1{};", "(".repeat(k), ")".repeat(k))
            }),
            ("brackets", |k| {
                format!("{}1{};", "[".repeat(k), "]".repeat(k))
            }),
            ("objects", |k| {
                format!("x = {}1{};", "{a: ".repeat(k), "}".repeat(k))
            }),
            ("blocks", |k| format!("{}{}", "{".repeat(k), "}".repeat(k))),
            ("ifs", |k| format!("{}x;", "if (1) ".repeat(k))),
            ("unary", |k| format!("{}1;", "!".repeat(k))),
            ("assignments", |k| format!("{}1;", "x = ".repeat(k))),
            ("conditionals", |k| {
                format!("{}1{};", "1 ? ".repeat(k), " : 0".repeat(k))
            }),
            ("grouped sums", |k| {
                format!("{}1{};", "1 + (".repeat(k), ")".repeat(k))
            }),
            ("members", |k| format!("x{};", ".y".repeat(k))),
            ("calls", |k| format!("f{};", "()".repeat(k))),
            ("functions", |k| {
                format!("{}{}", "function f() { ".repeat(k), "}".repeat(k))
            }),
        ];
        for (name, shape) in shapes {
            let (k, error) = deepest(&shape);
            assert!(
                matches!(error, ScriptError::NestingLimitExceeded { .. }),
                "{name}: {error}"
            );
            assert!(k >= (MAX_NESTING / 4) as usize, "{name} stops at {k}");
            // Far past the bound, on a small stack: a typed error, no abort.
            let bomb = shape(100_000);
            let outcome = on_small_stack(move || parse_program(&bomb).map(|_| ()));
            assert!(
                matches!(outcome, Err(ScriptError::NestingLimitExceeded { .. })),
                "{name}: {outcome:?}"
            );
        }
    }

    #[test]
    fn the_deepest_tree_in_every_nested_call_fits_a_small_stack() {
        // Each shape puts the recursive call at the bottom of the tallest tree
        // the parser accepts, so every one of the MAX_CALL_DEPTH call levels
        // recurses through a full tree before it calls the next.
        let shapes: Vec<(&str, Shape)> = vec![
            ("sums", |k| {
                format!("return {}f(n + 1){};", "1 + (".repeat(k), ")".repeat(k))
            }),
            ("unary", |k| format!("return {}f(n + 1);", "- ".repeat(k))),
            ("logical", |k| {
                format!("return {}f(n + 1){};", "1 && (".repeat(k), ")".repeat(k))
            }),
            ("arguments", |k| {
                format!(
                    "return {}f(n + 1){};",
                    "console.log(".repeat(k),
                    ")".repeat(k)
                )
            }),
            ("call chains", |k| {
                format!("return f(n + 1){};", "()".repeat(k))
            }),
            ("arrays", |k| {
                format!("return {}f(n + 1){};", "[".repeat(k), "]".repeat(k))
            }),
            ("members", |k| {
                format!("return {}f(n + 1){};", "o[".repeat(k), "]".repeat(k))
            }),
            ("conditionals", |k| {
                format!("return {}f(n + 1){};", "1 ? ".repeat(k), " : 0".repeat(k))
            }),
            ("assignments", |k| {
                format!("return {}f(n + 1);", "o.x = ".repeat(k))
            }),
            ("ifs", |k| {
                format!("{}return f(n + 1);", "if (1) ".repeat(k))
            }),
            ("blocks", |k| {
                format!("{}return f(n + 1);{}", "{".repeat(k), "}".repeat(k))
            }),
        ];
        for (name, body) in shapes {
            let program = |k: usize| format!("var o = {{}}; function f(n) {{ {} }} f(0);", body(k));
            let (k, _) = deepest(&program);
            let source = program(k);
            let outcome = on_small_stack(move || {
                let mut host = MockHost::new();
                Interpreter::new(&mut host).run(&source).map(|_| ())
            });
            assert_eq!(
                outcome,
                Err(ScriptError::CallDepthExceeded),
                "{name} at {k}"
            );
        }
    }

    #[test]
    fn operator_runs_and_else_if_chains_do_not_count_toward_the_nesting_bound() {
        // As page scripts write them: a 200-operand concatenation and a
        // 50-arm `else if` chain.
        let operands: Vec<String> = (0..200).map(|i| format!("'{i}'")).collect();
        let expected: String = (0..200).map(|i| i.to_string()).collect();
        assert_eq!(
            run(&format!("var html = {}; html;", operands.join(" + "))),
            Value::Str(expected.into())
        );
        let chain = |arms: usize, x: usize| {
            let arms: Vec<String> = (0..arms)
                .map(|i| format!("if (x == {i}) {{ out = {i}; }}"))
                .collect();
            format!(
                "var x = {x}; var out; {} else {{ out = -1; }} out;",
                arms.join(" else ")
            )
        };
        assert_eq!(run(&chain(50, 37)), Value::Number(37.0));
        assert_eq!(run(&chain(50, 99)), Value::Number(-1.0));

        // Far longer runs cost no recursion in the parser, the resolver, the
        // evaluator or the tree's drop: they run on a small stack.
        let sum = format!("1{};", " + 1".repeat(100_000));
        let logical = format!("0{} || 'last';", " || 0".repeat(100_000));
        let arms = chain(100_000, 99_999);
        let outcome = on_small_stack(move || {
            let mut host = MockHost::new();
            [sum, logical, arms].map(|source| {
                Interpreter::new(&mut host)
                    .run(&source)
                    .map(|value| value.to_string())
            })
        });
        assert_eq!(
            outcome,
            [
                Ok("100001".to_string()),
                Ok("last".to_string()),
                Ok("99999".to_string())
            ]
        );
    }

    #[test]
    fn an_append_loop_pays_for_the_string_it_builds_not_for_every_copy() {
        // 4,000 appends of 50-byte fragments copy about 400 MB in all, far
        // past the byte budget; the string they build is 200 KB.
        let source = format!(
            "var html = ''; for (var i = 0; i < 4000; i++) {{ html += '<li>' + (i % 10) + '{}</li>'; }} html.length;",
            "y".repeat(40)
        );
        assert_eq!(run(&source), Value::Number(200_000.0));

        // Strings that stay held are charged for as long as they are held.
        let mut host = MockHost::new();
        let kept = run_with(
            &mut host,
            "var s = 'xxxxxxxx'; for (var k = 0; k < 7; k++) { s = s + s; } \
             var kept = []; for (;;) { kept.push(s + '!'); }",
        );
        assert_eq!(kept, Err(ScriptError::ByteBudgetExceeded));
    }

    #[test]
    fn a_string_doubling_bomb_fails_closed_on_its_byte_budget() {
        let outcome = on_small_stack(|| {
            let mut host = MockHost::new();
            Interpreter::new(&mut host)
                .run("var s = 'xxxxxxxx'; for (;;) { s = s + s; }")
                .map(|_| ())
        });
        assert_eq!(outcome, Err(ScriptError::ByteBudgetExceeded));
    }

    #[test]
    fn an_array_index_bomb_fails_closed_on_its_byte_budget() {
        let outcome = on_small_stack(|| {
            let mut host = MockHost::new();
            let bomb = Interpreter::new(&mut host)
                .run("var a = []; a[30000000] = 1;")
                .map(|_| ());
            // Growth within the budget still works, holes read undefined.
            let fine = Interpreter::new(&mut host)
                .run("var b = []; b[1000] = 'end'; b.length + ':' + b[999] + ':' + b[1000];")
                .map(|value| value.to_string());
            (bomb, fine)
        });
        assert_eq!(outcome.0, Err(ScriptError::ByteBudgetExceeded));
        assert_eq!(outcome.1, Ok("1001:undefined:end".to_string()));
    }

    #[test]
    fn reads_before_a_declaration_fall_through_to_the_enclosing_scope() {
        let source = "var x = 'g'; function f() { var out = ''; \
                      for (var i = 0; i < 3; i++) { out += x; var x = 'l' + i; } return out; } f();";
        assert_eq!(run(source), Value::Str("gl0l1".into()));
        // A function declaration is not hoisted either.
        let mut host = MockHost::new();
        assert_eq!(
            run_with(&mut host, "f(); function f() { return 1; }"),
            Err(ScriptError::Runtime("`f` is not defined".into()))
        );
    }

    #[test]
    fn successive_runs_share_globals_and_window_reads_them() {
        let mut host = MockHost::new();
        let mut interp = Interpreter::new(&mut host);
        interp
            .run("var a = 1; function inc() { a++; b = 'implicit'; return a; }")
            .unwrap();
        assert_eq!(interp.run("inc(); inc();").unwrap(), Value::Number(3.0));
        assert_eq!(
            interp.run("a + b;").unwrap(),
            Value::Str("3implicit".into())
        );
        assert_eq!(
            interp.run("document = 5; window.document;").unwrap(),
            Value::Number(5.0)
        );
    }
}
