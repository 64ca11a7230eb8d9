//! Install-time compilation of a checked codelet to native closures.
//!
//! [`Native::build`] turns the parsed statements of a codelet that
//! [`crate::compile`] accepted into a tree of Rust closures, once, when the
//! plug-in is installed. Slots resolve to indices and builtins to
//! specialised closures at build time, so a run does no name lookups and
//! no bytecode dispatch.
//!
//! Two build-time specialisations remove per-element boxing from the
//! column kernels plug-ins are made of:
//!
//! * **Column slots.** A variable whose only assignment is
//!   `let v = get_f64("field")` and which is only ever indexed, measured
//!   (`len`/`sum`) or emitted borrows the input array instead of copying it.
//! * **Column loops.** `for i in a..b { [let x = v[i];] .. }` whose body
//!   is float accumulator updates (`lo = min(lo, v[i]);`) and at most one
//!   `[if P] push(out, E);`, with pure numeric expressions of `x`, `i`,
//!   `v[i]`, the accumulators and literals, compiles to a typed loop
//!   straight over the `&[f64]`. It is guarded at loop entry on the
//!   runtime types of `v`, `out`, the accumulators and the bounds; a
//!   failed guard runs the general closure loop instead. The `push` must
//!   come last and is branch-free, and the loop is instantiated per
//!   predicate shape: `x op k` and `x op k1 && x op k2` compile into the
//!   loop itself, anything else calls its closure tree per element.
//!
//! Emits whose array can no longer change (no `push` or index store
//! follows them in the source, and they are not inside a loop) hand the
//! array itself to the output record instead of a copy.
//!
//! **Budget.** Each statement charges, up front, the bytecode instructions
//! the interpreter always runs for it; a short-circuit right-hand side is
//! charged when it runs, and loops charge per iteration and check the
//! budget on every back-edge, where the count is exact. So is the count
//! at the end of a run. An error raised with the count still within the
//! budget is exactly the interpreter's result; one raised after an
//! upfront charge crossed the budget is ambiguous (the interpreter may
//! have stopped first), and the caller reruns the stateless codelet in
//! the interpreter. Every `(program, input, budget)` thus gives the same
//! `Result` as [`crate::vm::execute`], which stays in the crate as the
//! oracle the tests compare against.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use evpath::{FieldValue, Record};

use crate::ast::{BinOp, Expr, Stmt, UnOp};
use crate::compile::Instr;
use crate::value::{values_equal, Value};
use crate::vm::{arith, builtin_index, numeric_pair, RunError, BUILTINS};

type R<T> = Result<T, Box<RunError>>;
type ExprFn = Box<dyn for<'a> Fn(&mut Frame<'a>) -> R<Value> + Send + Sync>;
type StmtFn = Box<dyn for<'a> Fn(&mut Frame<'a>) -> R<Flow> + Send + Sync>;

/// Where a run reads its input fields from.
#[derive(Clone, Copy)]
pub(crate) enum Input<'a> {
    /// A whole input record.
    Record(&'a Record),
    /// A single borrowed `f64` column, as if it were the only field of a
    /// record.
    Column {
        /// Field name.
        name: &'a str,
        /// Elements.
        data: &'a [f64],
    },
}

impl<'a> Input<'a> {
    fn f64_array(self, name: &str) -> Option<&'a [f64]> {
        match self {
            Input::Record(r) => r.get_f64_array(name),
            Input::Column { name: n, data } => (n == name).then_some(data),
        }
    }

    fn record(self) -> Option<&'a Record> {
        match self {
            Input::Record(r) => Some(r),
            Input::Column { .. } => None,
        }
    }

    fn has(self, name: &str) -> bool {
        match self {
            Input::Record(r) => r.get(name).is_some(),
            Input::Column { name: n, .. } => n == name,
        }
    }
}

/// Box an error: the engine's results stay two words wide, so closures
/// return them in registers.
fn err<T>(e: RunError) -> R<T> {
    Err(Box::new(e))
}

/// Control flow out of a statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Flow {
    Next,
    Return,
}

/// One emitted output field. Arrays emitted where they can no longer
/// change stay shared until the run ends and are then moved out.
enum Out {
    Field(FieldValue),
    F64(Rc<RefCell<Vec<f64>>>),
    I64(Rc<RefCell<Vec<i64>>>),
}

struct Frame<'a> {
    slots: Vec<Value>,
    /// Bound column slots (see module docs); `None` reads the slot.
    cols: Vec<Option<&'a [f64]>>,
    out: Vec<(String, Out)>,
    input: Input<'a>,
    /// Instructions the interpreter would have executed so far.
    used: u64,
    budget: u64,
}

impl Frame<'_> {
    fn emit(&mut self, name: String, value: Out) {
        match self.out.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.out.push((name, value)),
        }
    }

    /// A back-edge: every charged instruction has run, so exceeding the
    /// budget here is exactly where the interpreter would have stopped.
    fn back_edge(&self) -> R<()> {
        if self.used > self.budget {
            err(RunError::BudgetExceeded)
        } else {
            Ok(())
        }
    }
}

/// A codelet compiled to closures.
pub(crate) struct Native {
    body: Vec<StmtFn>,
    num_slots: usize,
}

impl std::fmt::Debug for Native {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Native")
            .field("statements", &self.body.len())
            .field("slots", &self.num_slots)
            .finish()
    }
}

impl Native {
    /// Compile statements that [`crate::compile::compile_ast`] accepted.
    pub(crate) fn build(stmts: &[Stmt]) -> Native {
        let mut b = Builder::default();
        b.analyze(stmts);
        let body = b.block(stmts);
        Native { body, num_slots: b.slots.len() }
    }

    /// Run against `input`. `None` means a run-time error surfaced inside a
    /// statement whose upfront charge crossed the budget: the count alone
    /// cannot tell whether the interpreter would have reached the error,
    /// so the caller reruns the (stateless) codelet in the interpreter.
    pub(crate) fn run(&self, input: Input<'_>, budget: u64) -> Option<Result<Record, RunError>> {
        let mut f = Frame {
            slots: vec![Value::Int(0); self.num_slots],
            cols: vec![None; self.num_slots],
            out: Vec::new(),
            input,
            used: 0,
            budget,
        };
        match run_block(&self.body, &mut f).map_err(|e| *e) {
            Ok(flow) => {
                if flow == Flow::Next {
                    f.used += 1; // the trailing `Halt`
                }
                // Every charged statement ran to completion: exact.
                if f.used > f.budget {
                    return Some(Err(RunError::BudgetExceeded));
                }
            }
            // Raised at a back-edge, where the count is exact.
            Err(RunError::BudgetExceeded) => return Some(Err(RunError::BudgetExceeded)),
            // The error's instruction was charged, so it lies within budget.
            Err(e) if f.used <= f.budget => return Some(Err(e)),
            Err(_) => return None,
        }
        // Drop the slots first so shared emitted arrays become unique.
        f.slots.clear();
        let mut record = Record::new();
        for (name, value) in f.out {
            let value = match value {
                Out::Field(v) => v,
                Out::F64(a) => FieldValue::F64Array(unwrap_shared(a)),
                Out::I64(a) => FieldValue::I64Array(unwrap_shared(a)),
            };
            record.set(&name, value);
        }
        Some(Ok(record))
    }
}

fn unwrap_shared<T: Clone>(a: Rc<RefCell<Vec<T>>>) -> Vec<T> {
    Rc::try_unwrap(a).map(RefCell::into_inner).unwrap_or_else(|a| a.borrow().clone())
}

fn run_block(body: &[StmtFn], f: &mut Frame<'_>) -> R<Flow> {
    for s in body {
        if s(f)? == Flow::Return {
            return Ok(Flow::Return);
        }
    }
    Ok(Flow::Next)
}

fn bool_cond(v: &Value) -> Result<bool, RunError> {
    v.as_bool()
        .ok_or_else(|| RunError::Type(format!("condition must be bool, got {}", v.type_name())))
}

fn index_int(idx: &Value) -> Result<i64, RunError> {
    idx.as_i64()
        .ok_or_else(|| RunError::Type(format!("index must be int, got {}", idx.type_name())))
}

fn checked<T: Copy>(a: &[T], i: i64) -> Result<T, RunError> {
    if i < 0 || i as usize >= a.len() {
        return Err(RunError::IndexOutOfBounds { index: i, len: a.len() });
    }
    Ok(a[i as usize])
}

fn index_value(arr: &Value, idx: &Value) -> Result<Value, RunError> {
    let i = index_int(idx)?;
    match arr {
        Value::FloatArr(a) => checked(&a.borrow(), i).map(Value::Float),
        Value::IntArr(a) => checked(&a.borrow(), i).map(Value::Int),
        other => Err(RunError::Type(format!("cannot index {}", other.type_name()))),
    }
}

fn need_f64(name: &str, v: &Value) -> Result<f64, RunError> {
    v.as_f64()
        .ok_or_else(|| RunError::Type(format!("`{name}` needs a number, got {}", v.type_name())))
}

fn need_str(name: &str, v: &Value) -> Result<String, RunError> {
    match v {
        Value::Str(s) => Ok(s.as_str().to_string()),
        other => Err(RunError::Type(format!("`{name}` needs a string, got {}", other.type_name()))),
    }
}

/// A numeric comparison with the float/float case inline; anything else
/// widens (or fails) as the interpreter does.
macro_rules! vcmp {
    ($l:ident, $r:ident, $op:tt) => {
        Box::new(move |f| {
            let a = $l(f)?;
            let b = $r(f)?;
            Ok(Value::Bool(match (&a, &b) {
                (Value::Float(x), Value::Float(y)) => x $op y,
                _ => {
                    let (x, y) = numeric_pair(&a, &b)?;
                    x $op y
                }
            }))
        })
    };
}

/// `+`, `-`, `*` with the same-type cases inline (int stays int, wrapping).
macro_rules! varith {
    ($l:ident, $r:ident, $instr:ident, $op:tt, $wrapping:ident) => {
        Box::new(move |f| {
            let a = $l(f)?;
            let b = $r(f)?;
            match (&a, &b) {
                (Value::Float(x), Value::Float(y)) => Ok(Value::Float(x $op y)),
                (Value::Int(x), Value::Int(y)) => Ok(Value::Int(x.$wrapping(*y))),
                _ => Ok(arith(Instr::$instr, &a, &b)?),
            }
        })
    };
}

/// Compiles statements to closures. Statement positions are counted in
/// pre-order, the same way [`Usage`] counts them, so an emit can tell
/// whether any array mutation follows it.
#[derive(Default)]
struct Builder {
    slots: HashMap<String, usize>,
    /// Slots that borrow an input column.
    col_slots: HashSet<usize>,
    /// Pre-order position of the last statement that can mutate an array.
    last_mutation: Option<usize>,
    /// Pre-order position of the statement being compiled.
    pos: usize,
    loop_depth: usize,
}

impl Builder {
    fn slot(&mut self, name: &str) -> usize {
        let next = self.slots.len();
        *self.slots.entry(name.to_string()).or_insert(next)
    }

    // ---- analysis -------------------------------------------------------

    fn analyze(&mut self, stmts: &[Stmt]) {
        let mut usage = Usage::default();
        let mut pos = 0;
        usage.block(stmts, &mut pos);
        self.last_mutation = usage.last_mutation;
        for (name, u) in &usage.vars {
            if u.assignments == 1 && u.column_let && !u.escapes {
                let s = self.slot(name);
                self.col_slots.insert(s);
            }
        }
    }

    // ---- statements -----------------------------------------------------

    fn block(&mut self, stmts: &[Stmt]) -> Vec<StmtFn> {
        stmts.iter().map(|s| self.statement(s)).collect()
    }

    fn statement(&mut self, stmt: &Stmt) -> StmtFn {
        let pos = self.pos;
        self.pos += 1;
        match stmt {
            Stmt::Let { name, value } | Stmt::Assign { name, value } => {
                let k = self.slot(name);
                let charge = cost(value) + 1; // + StoreVar
                if self.col_slots.contains(&k) {
                    let Expr::Call { args, .. } = value else { unreachable!("column let") };
                    let field = self.expr(&args[0]);
                    return Box::new(move |f| {
                        f.used += charge;
                        let field = field(f)?;
                        let field = need_str("get_f64", &field)?;
                        let data =
                            f.input.f64_array(&field).ok_or(RunError::MissingField(field))?;
                        f.cols[k] = Some(data);
                        Ok(Flow::Next)
                    });
                }
                let e = self.expr(value);
                Box::new(move |f| {
                    f.used += charge;
                    let v = e(f)?;
                    f.slots[k] = v;
                    Ok(Flow::Next)
                })
            }
            Stmt::IndexAssign { array, index, value } => {
                let k = self.slot(array);
                let charge = cost(index) + cost(value) + 2; // + LoadVar, IndexStore
                let (ie, ve) = (self.expr(index), self.expr(value));
                Box::new(move |f| {
                    f.used += charge;
                    let arr = f.slots[k].clone();
                    let idx = ie(f)?;
                    let value = ve(f)?;
                    let i = index_int(&idx)?;
                    let check = |len: usize| {
                        if i < 0 || i as usize >= len {
                            err(RunError::IndexOutOfBounds { index: i, len })
                        } else {
                            Ok(i as usize)
                        }
                    };
                    match &arr {
                        Value::FloatArr(a) => {
                            let mut a = a.borrow_mut();
                            let i = check(a.len())?;
                            a[i] = value.as_f64().ok_or_else(|| {
                                RunError::Type("float[] element must be numeric".to_string())
                            })?;
                        }
                        Value::IntArr(a) => {
                            let mut a = a.borrow_mut();
                            let i = check(a.len())?;
                            a[i] = value.as_i64().ok_or_else(|| {
                                RunError::Type("int[] element must be int".to_string())
                            })?;
                        }
                        other => {
                            return err(RunError::Type(format!(
                                "cannot index-assign {}",
                                other.type_name()
                            )))
                        }
                    }
                    Ok(Flow::Next)
                })
            }
            Stmt::Expr(e) => {
                let charge = cost(e) + 1; // + Pop
                let movable = self.loop_depth == 0 && self.last_mutation.is_none_or(|m| m < pos);
                let e = match e {
                    Expr::Call { name, args } if movable && is_array_emit(name, args) => {
                        self.emit_array(name == "emit_i64", args, true)
                    }
                    e => self.expr(e),
                };
                Box::new(move |f| {
                    f.used += charge;
                    e(f)?;
                    Ok(Flow::Next)
                })
            }
            Stmt::If { cond, then_block, else_block } => {
                let charge = cost(cond) + 1; // + JumpIfFalse
                let c = self.expr(cond);
                let t = self.block(then_block);
                // The then-branch ends with a `Jump` over a non-empty else.
                let jump = u64::from(!else_block.is_empty());
                let e = self.block(else_block);
                Box::new(move |f| {
                    f.used += charge;
                    let v = c(f)?;
                    if bool_cond(&v)? {
                        if run_block(&t, f)? == Flow::Return {
                            return Ok(Flow::Return);
                        }
                        f.used += jump;
                        Ok(Flow::Next)
                    } else {
                        run_block(&e, f)
                    }
                })
            }
            Stmt::While { cond, body } => {
                let charge = cost(cond) + 1; // + JumpIfFalse
                let c = self.expr(cond);
                self.loop_depth += 1;
                let body = self.block(body);
                self.loop_depth -= 1;
                Box::new(move |f| loop {
                    f.used += charge;
                    let v = c(f)?;
                    if !bool_cond(&v)? {
                        return Ok(Flow::Next);
                    }
                    if run_block(&body, f)? == Flow::Return {
                        return Ok(Flow::Return);
                    }
                    f.used += 1; // Jump
                    f.back_edge()?;
                })
            }
            Stmt::For { var, start, end, body } => {
                // `i = start; END = end;` then per iteration the test
                // `LoadVar i, LoadVar END, Lt, JumpIfFalse` and, after the
                // body, `LoadVar i, PushConst 1, Add, StoreVar i, Jump`.
                let setup = cost(start) + cost(end) + 2;
                let (se, ee) = (self.expr(start), self.expr(end));
                let i = self.slot(var);
                let kernel = self.column_loop(i, body);
                self.loop_depth += 1;
                let body = self.block(body);
                self.loop_depth -= 1;
                Box::new(move |f| {
                    f.used += setup;
                    let s = se(f)?;
                    f.slots[i] = s;
                    let end = ee(f)?;
                    if let Some(k) = &kernel {
                        if let Some(flow) = k.run(f, i, &end)? {
                            return Ok(flow);
                        }
                    }
                    loop {
                        f.used += 4;
                        let more = match (&f.slots[i], &end) {
                            // The interpreter compares widened to float.
                            (Value::Int(a), Value::Int(b)) => (*a as f64) < (*b as f64),
                            (a, b) => {
                                let (a, b) = numeric_pair(a, b)?;
                                a < b
                            }
                        };
                        if !more {
                            return Ok(Flow::Next);
                        }
                        if run_block(&body, f)? == Flow::Return {
                            return Ok(Flow::Return);
                        }
                        f.used += 5;
                        let next = match f.slots[i] {
                            Value::Int(a) => Value::Int(a.wrapping_add(1)),
                            ref v => arith(Instr::Add, v, &Value::Int(1))?,
                        };
                        f.slots[i] = next;
                        f.back_edge()?;
                    }
                })
            }
            Stmt::Return => Box::new(|f| {
                f.used += 1; // Halt
                Ok(Flow::Return)
            }),
        }
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self, expr: &Expr) -> ExprFn {
        match expr {
            Expr::Int(v) => {
                let v = *v;
                Box::new(move |_| Ok(Value::Int(v)))
            }
            Expr::Float(v) => {
                let v = *v;
                Box::new(move |_| Ok(Value::Float(v)))
            }
            Expr::Bool(v) => {
                let v = *v;
                Box::new(move |_| Ok(Value::Bool(v)))
            }
            Expr::Str(s) => {
                let s = s.clone();
                Box::new(move |_| Ok(Value::str(s.as_str())))
            }
            Expr::Var(name) => {
                let k = self.slot(name);
                // Any other read of a column slot would have disqualified it.
                debug_assert!(!self.col_slots.contains(&k), "bare read of column slot `{name}`");
                Box::new(move |f| Ok(f.slots[k].clone()))
            }
            Expr::Binary { op: op @ (BinOp::And | BinOp::Or), lhs, rhs } => {
                let (l, r) = (self.expr(lhs), self.expr(rhs));
                // `lhs; Dup; JumpIfFalse/JumpIfTrue end; Pop; rhs; end:` —
                // the enclosing statement charged up to the jump; the `Pop`
                // and the right-hand side are charged when they run.
                let taken = 1 + cost(rhs);
                let short_on = *op == BinOp::Or;
                Box::new(move |f| {
                    let a = l(f)?;
                    if bool_cond(&a)? == short_on {
                        return Ok(a);
                    }
                    f.used += taken;
                    r(f)
                })
            }
            Expr::Binary { op, lhs, rhs } => {
                let (l, r) = (self.expr(lhs), self.expr(rhs));
                match op {
                    BinOp::Eq | BinOp::Ne => {
                        let ne = *op == BinOp::Ne;
                        Box::new(move |f| {
                            let a = l(f)?;
                            let b = r(f)?;
                            let eq = values_equal(&a, &b).ok_or_else(|| {
                                RunError::Type(format!(
                                    "cannot compare {} with {}",
                                    a.type_name(),
                                    b.type_name()
                                ))
                            })?;
                            Ok(Value::Bool(eq != ne))
                        })
                    }
                    BinOp::Lt => vcmp!(l, r, <),
                    BinOp::Le => vcmp!(l, r, <=),
                    BinOp::Gt => vcmp!(l, r, >),
                    BinOp::Ge => vcmp!(l, r, >=),
                    BinOp::Add => varith!(l, r, Add, +, wrapping_add),
                    BinOp::Sub => varith!(l, r, Sub, -, wrapping_sub),
                    BinOp::Mul => varith!(l, r, Mul, *, wrapping_mul),
                    _ => {
                        // Division and remainder: floats inline, ints via
                        // `arith`, which checks for a zero divisor.
                        let div = *op == BinOp::Div;
                        let instr = if div { Instr::Div } else { Instr::Rem };
                        Box::new(move |f| {
                            let a = l(f)?;
                            let b = r(f)?;
                            match (&a, &b) {
                                (Value::Float(x), Value::Float(y)) => {
                                    Ok(Value::Float(if div { x / y } else { x % y }))
                                }
                                _ => Ok(arith(instr, &a, &b)?),
                            }
                        })
                    }
                }
            }
            Expr::Unary { op: UnOp::Not, expr } => {
                let e = self.expr(expr);
                Box::new(move |f| {
                    let v = e(f)?;
                    let b = v.as_bool().ok_or_else(|| {
                        RunError::Type(format!("`!` needs bool, got {}", v.type_name()))
                    })?;
                    Ok(Value::Bool(!b))
                })
            }
            Expr::Unary { op: UnOp::Neg, expr } => {
                let e = self.expr(expr);
                Box::new(move |f| {
                    let v = e(f)?;
                    match v {
                        Value::Int(i) => Ok(Value::Int(i.wrapping_neg())),
                        Value::Float(x) => Ok(Value::Float(-x)),
                        other => err(RunError::Type(format!(
                            "`-` needs a number, got {}",
                            other.type_name()
                        ))),
                    }
                })
            }
            Expr::Index { array, index } => {
                let ie = self.expr(index);
                if let Some(k) = self.col_var(array) {
                    return Box::new(move |f| {
                        let idx = ie(f)?;
                        match f.cols[k] {
                            Some(data) => Ok(Value::Float(checked(data, index_int(&idx)?)?)),
                            None => Ok(index_value(&f.slots[k], &idx)?),
                        }
                    });
                }
                let ae = self.expr(array);
                Box::new(move |f| {
                    let arr = ae(f)?;
                    let idx = ie(f)?;
                    Ok(index_value(&arr, &idx)?)
                })
            }
            Expr::Call { name, args } => self.call(name, args),
        }
    }

    /// The column slot `e` names, if it is a bare column-slot variable.
    fn col_var(&mut self, e: &Expr) -> Option<usize> {
        match e {
            Expr::Var(name) => Some(self.slot(name)).filter(|k| self.col_slots.contains(k)),
            _ => None,
        }
    }

    fn call(&mut self, name: &str, args: &[Expr]) -> ExprFn {
        let id = builtin_index(name).expect("compile-checked builtin") as usize;
        let bname: &'static str = BUILTINS[id];
        let es = |b: &mut Self| -> Vec<ExprFn> { args.iter().map(|a| b.expr(a)).collect() };
        if bname == "noop" {
            // Any arity: evaluate and swallow.
            let es = es(self);
            return Box::new(move |f| {
                for e in &es {
                    e(f)?;
                }
                Ok(Value::Bool(true))
            });
        }
        let expected = match bname {
            "array" | "int_array" => 0,
            "push" | "min" | "max" | "pow" | "emit_f64" | "emit_i64" | "emit_int"
            | "emit_float" | "emit_str" => 2,
            _ => 1,
        };
        if args.len() != expected {
            let es = es(self);
            let got = args.len();
            return Box::new(move |f| {
                for e in &es {
                    e(f)?;
                }
                err(RunError::Arity { name: bname, expected, got })
            });
        }
        // Column-slot fast paths: read the borrowed input directly.
        if matches!(bname, "len" | "sum") {
            if let Some(k) = self.col_var(&args[0]) {
                let is_len = bname == "len";
                let generic = builtin1(bname);
                return Box::new(move |f| match f.cols[k] {
                    Some(d) if is_len => Ok(Value::Int(d.len() as i64)),
                    Some(d) => Ok(Value::Float(d.iter().sum())),
                    None => {
                        let v = f.slots[k].clone();
                        generic(f, v)
                    }
                });
            }
        }
        if matches!(bname, "emit_f64" | "emit_i64") {
            return self.emit_array(bname == "emit_i64", args, false);
        }
        match expected {
            0 => {
                let int = bname == "int_array";
                Box::new(move |_| {
                    Ok(if int { Value::int_arr(Vec::new()) } else { Value::float_arr(Vec::new()) })
                })
            }
            1 => {
                let a = self.expr(&args[0]);
                let op = builtin1(bname);
                Box::new(move |f| {
                    let v = a(f)?;
                    op(f, v)
                })
            }
            _ => {
                let (a, b) = (self.expr(&args[0]), self.expr(&args[1]));
                let op = builtin2(bname);
                Box::new(move |f| {
                    let x = a(f)?;
                    let y = b(f)?;
                    op(f, x, y)
                })
            }
        }
    }

    /// `emit_f64`/`emit_i64(name, array)`. `movable` emits share the array
    /// with the output (it cannot change any more) instead of copying it.
    fn emit_array(&mut self, int: bool, args: &[Expr], movable: bool) -> ExprFn {
        let bname = if int { "emit_i64" } else { "emit_f64" };
        let ne = self.expr(&args[0]);
        // (`emit_i64` of a column slot would have disqualified it.)
        if let Some(k) = self.col_var(&args[1]) {
            return Box::new(move |f| {
                let name = ne(f)?;
                let name = need_str(bname, &name)?;
                let value = match f.cols[k] {
                    Some(d) => FieldValue::F64Array(d.to_vec()),
                    None => {
                        let v = f.slots[k].clone();
                        return emit_array_value(f, int, name, v, false);
                    }
                };
                f.emit(name, Out::Field(value));
                Ok(Value::Bool(true))
            });
        }
        let ae = self.expr(&args[1]);
        Box::new(move |f| {
            let name = ne(f)?;
            let arr = ae(f)?;
            let name = need_str(bname, &name)?;
            emit_array_value(f, int, name, arr, movable)
        })
    }
}

fn builtin1(bname: &'static str) -> fn(&mut Frame<'_>, Value) -> R<Value> {
    match bname {
        "len" => |_, v| match &v {
            Value::FloatArr(a) => Ok(Value::Int(a.borrow().len() as i64)),
            Value::IntArr(a) => Ok(Value::Int(a.borrow().len() as i64)),
            Value::Str(s) => Ok(Value::Int(s.len() as i64)),
            other => {
                err(RunError::Type(format!("`len` needs array or str, got {}", other.type_name())))
            }
        },
        "abs" => |_, v| match v {
            Value::Int(i) => Ok(Value::Int(i.wrapping_abs())),
            other => Ok(Value::Float(need_f64("abs", &other)?.abs())),
        },
        "sqrt" => |_, v| Ok(Value::Float(need_f64("sqrt", &v)?.sqrt())),
        "floor" => |_, v| Ok(Value::Float(need_f64("floor", &v)?.floor())),
        "sum" => |_, v| match &v {
            Value::FloatArr(a) => Ok(Value::Float(a.borrow().iter().sum())),
            Value::IntArr(a) => {
                Ok(Value::Int(a.borrow().iter().fold(0, |s, &x| s.wrapping_add(x))))
            }
            other => {
                err(RunError::Type(format!("`sum` needs an array, got {}", other.type_name())))
            }
        },
        "int" => |_, v| Ok(Value::Int(need_f64("int", &v)? as i64)),
        "float" => |_, v| Ok(Value::Float(need_f64("float", &v)?)),
        "get_f64" => |f, v| {
            let field = need_str("get_f64", &v)?;
            let data = f.input.f64_array(&field).ok_or(RunError::MissingField(field))?;
            Ok(Value::float_arr(data.to_vec()))
        },
        "get_i64" => |f, v| {
            let field = need_str("get_i64", &v)?;
            match f.input.record().and_then(|r| r.get(&field)) {
                Some(FieldValue::I64Array(a)) => Ok(Value::int_arr(a.clone())),
                Some(FieldValue::U64Array(a)) => {
                    Ok(Value::int_arr(a.iter().map(|&x| x as i64).collect()))
                }
                _ => err(RunError::MissingField(field)),
            }
        },
        "get_int" => |f, v| {
            let field = need_str("get_int", &v)?;
            f.input
                .record()
                .and_then(|r| r.get_i64(&field))
                .map(Value::Int)
                .ok_or_else(|| Box::new(RunError::MissingField(field)))
        },
        "get_float" => |f, v| {
            let field = need_str("get_float", &v)?;
            f.input
                .record()
                .and_then(|r| r.get_f64(&field))
                .map(Value::Float)
                .ok_or_else(|| Box::new(RunError::MissingField(field)))
        },
        "get_str" => |f, v| {
            let field = need_str("get_str", &v)?;
            match f.input.record().and_then(|r| r.get_str(&field)) {
                Some(s) => Ok(Value::str(s)),
                None => err(RunError::MissingField(field)),
            }
        },
        "has" => |f, v| Ok(Value::Bool(f.input.has(&need_str("has", &v)?))),
        other => unreachable!("`{other}` is not a one-argument builtin"),
    }
}

fn builtin2(bname: &'static str) -> fn(&mut Frame<'_>, Value, Value) -> R<Value> {
    match bname {
        "push" => {
            |_, a, x| {
                match &a {
                    Value::FloatArr(a) => a.borrow_mut().push(need_f64("push", &x)?),
                    Value::IntArr(a) => a.borrow_mut().push(x.as_i64().ok_or_else(|| {
                        RunError::Type("`push` into int[] needs an int".to_string())
                    })?),
                    other => {
                        return err(RunError::Type(format!(
                            "`push` needs an array, got {}",
                            other.type_name()
                        )))
                    }
                }
                Ok(Value::Bool(true))
            }
        }
        "pow" => |_, a, b| Ok(Value::Float(need_f64("pow", &a)?.powf(need_f64("pow", &b)?))),
        "min" | "max" => {
            fn pick(name: &str, a: Value, b: Value, min: bool) -> R<Value> {
                let (x, y) = (need_f64(name, &a)?, need_f64(name, &b)?);
                let v = if min { x.min(y) } else { x.max(y) };
                // Preserve int-ness when both inputs were ints.
                Ok(match (a, b) {
                    (Value::Int(_), Value::Int(_)) => Value::Int(v as i64),
                    _ => Value::Float(v),
                })
            }
            if bname == "min" {
                |_, a, b| pick("min", a, b, true)
            } else {
                |_, a, b| pick("max", a, b, false)
            }
        }
        "emit_int" => |f, n, v| {
            let name = need_str("emit_int", &n)?;
            let v =
                v.as_i64().ok_or_else(|| RunError::Type("`emit_int` needs an int".to_string()))?;
            f.emit(name, Out::Field(FieldValue::I64(v)));
            Ok(Value::Bool(true))
        },
        "emit_float" => |f, n, v| {
            let name = need_str("emit_float", &n)?;
            f.emit(name, Out::Field(FieldValue::F64(need_f64("emit_float", &v)?)));
            Ok(Value::Bool(true))
        },
        "emit_str" => |f, n, v| {
            let name = need_str("emit_str", &n)?;
            let s = need_str("emit_str", &v)?;
            f.emit(name, Out::Field(FieldValue::Str(s)));
            Ok(Value::Bool(true))
        },
        other => unreachable!("`{other}` is not a two-argument builtin"),
    }
}

fn emit_array_value(
    f: &mut Frame<'_>,
    int: bool,
    name: String,
    arr: Value,
    movable: bool,
) -> R<Value> {
    let out = match (&arr, int) {
        (Value::FloatArr(a), false) if movable => Out::F64(a.clone()),
        (Value::FloatArr(a), false) => Out::Field(FieldValue::F64Array(a.borrow().clone())),
        (Value::IntArr(a), true) if movable => Out::I64(a.clone()),
        (Value::IntArr(a), true) => Out::Field(FieldValue::I64Array(a.borrow().clone())),
        (other, _) => {
            let (bname, want) = if int { ("emit_i64", "int[]") } else { ("emit_f64", "float[]") };
            return err(RunError::Type(format!(
                "`{bname}` needs {want}, got {}",
                other.type_name()
            )));
        }
    };
    f.emit(name, out);
    Ok(Value::Bool(true))
}

/// Bytecode instructions an expression always executes — everything but
/// the right-hand sides of `&&`/`||`, which are charged when they run.
fn cost(e: &Expr) -> u64 {
    match e {
        Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::Str(_) | Expr::Var(_) => 1,
        Expr::Binary { op: BinOp::And | BinOp::Or, lhs, .. } => cost(lhs) + 2,
        Expr::Binary { lhs, rhs, .. } => cost(lhs) + cost(rhs) + 1,
        Expr::Unary { expr, .. } => cost(expr) + 1,
        Expr::Index { array, index } => cost(array) + cost(index) + 1,
        Expr::Call { args, .. } => args.iter().map(cost).sum::<u64>() + 1,
    }
}

fn is_array_emit(name: &str, args: &[Expr]) -> bool {
    matches!(name, "emit_f64" | "emit_i64") && args.len() == 2
}

// ---- source analysis ----------------------------------------------------

#[derive(Default)]
struct VarUsage {
    /// `let`/assignment/`for` bindings of the name.
    assignments: usize,
    /// Some binding is `let v = get_f64("literal")`.
    column_let: bool,
    /// Used anywhere other than `v[..]`, `len(v)`, `sum(v)` or
    /// `emit_f64(.., v)` — a use that could alias or mutate it.
    escapes: bool,
}

#[derive(Default)]
struct Usage {
    vars: HashMap<String, VarUsage>,
    last_mutation: Option<usize>,
}

impl Usage {
    fn block(&mut self, stmts: &[Stmt], pos: &mut usize) {
        for s in stmts {
            self.statement(s, pos);
        }
    }

    fn bind(&mut self, name: &str) -> &mut VarUsage {
        let u = self.vars.entry(name.to_string()).or_default();
        u.assignments += 1;
        u
    }

    fn escape(&mut self, name: &str) {
        self.vars.entry(name.to_string()).or_default().escapes = true;
    }

    fn statement(&mut self, stmt: &Stmt, pos: &mut usize) {
        let here = *pos;
        *pos += 1;
        match stmt {
            Stmt::Let { name, value } | Stmt::Assign { name, value } => {
                let column = matches!(stmt, Stmt::Let { .. })
                    && matches!(value, Expr::Call { name: f, args }
                        if f == "get_f64" && matches!(args.as_slice(), [Expr::Str(_)]));
                self.bind(name).column_let |= column;
                self.expr(value, here);
            }
            Stmt::IndexAssign { array, index, value } => {
                self.escape(array);
                self.last_mutation = Some(here);
                self.expr(index, here);
                self.expr(value, here);
            }
            Stmt::Expr(e) => self.expr(e, here),
            Stmt::If { cond, then_block, else_block } => {
                self.expr(cond, here);
                self.block(then_block, pos);
                self.block(else_block, pos);
            }
            Stmt::While { cond, body } => {
                self.expr(cond, here);
                self.block(body, pos);
            }
            Stmt::For { var, start, end, body } => {
                self.expr(start, here);
                self.expr(end, here);
                self.bind(var);
                self.block(body, pos);
            }
            Stmt::Return => {}
        }
    }

    fn expr(&mut self, e: &Expr, here: usize) {
        match e {
            Expr::Var(name) => self.escape(name),
            Expr::Index { array, index } => {
                if !matches!(**array, Expr::Var(_)) {
                    self.expr(array, here);
                }
                self.expr(index, here);
            }
            Expr::Call { name, args } => {
                if name == "push" {
                    self.last_mutation = Some(here);
                }
                let borrowed_at = match (name.as_str(), args.len()) {
                    ("len" | "sum", 1) => Some(0),
                    ("emit_f64", 2) => Some(1),
                    _ => None,
                };
                for (i, a) in args.iter().enumerate() {
                    if Some(i) == borrowed_at && matches!(a, Expr::Var(_)) {
                        continue;
                    }
                    self.expr(a, here);
                }
            }
            Expr::Binary { lhs, rhs, .. } => {
                self.expr(lhs, here);
                self.expr(rhs, here);
            }
            Expr::Unary { expr, .. } => self.expr(expr, here),
            Expr::Int(_) | Expr::Float(_) | Expr::Bool(_) | Expr::Str(_) => {}
        }
    }
}

// ---- column loops -------------------------------------------------------

/// Float accumulators a column loop may carry (`lo = min(lo, v[i])`).
const MAX_ACC: usize = 4;

/// What a column-loop expression can read in one iteration: `x` is
/// `v[i]` (and the loop's `let x = v[i]` binding), `i` the loop index,
/// `acc` the accumulators' current values.
#[derive(Clone, Copy)]
struct Env {
    x: f64,
    i: i64,
    acc: [f64; MAX_ACC],
}

/// A typed column-loop closure. Besides its value it returns the
/// instructions its short-circuit right-hand sides added beyond the
/// expression's static cost (in a register, not through memory, so the
/// count never serializes the loop).
type KFn<T> = Box<dyn Fn(&Env) -> (T, u64) + Send + Sync>;

/// A unary node: evaluate `a`, map its value.
macro_rules! kmap {
    ($k:path, $a:ident, |$x:ident| $body:expr) => {
        $k(Box::new(move |e| {
            let ($x, c) = $a.eval(e);
            ($body, c)
        }))
    };
}

/// A binary node with both operands always evaluated.
macro_rules! kmap2 {
    ($k:path, $a:ident, $b:ident, |$x:ident, $y:ident| $body:expr) => {
        $k(Box::new(move |e| {
            let ($x, c1) = $a.eval(e);
            let ($y, c2) = $b.eval(e);
            ($body, c1 + c2)
        }))
    };
}

enum KF {
    X,
    Acc(usize),
    Const(f64),
    Dyn(KFn<f64>),
}

impl KF {
    #[inline]
    fn eval(&self, e: &Env) -> (f64, u64) {
        match self {
            KF::X => (e.x, 0),
            KF::Acc(k) => (e.acc[*k], 0),
            KF::Const(k) => (*k, 0),
            KF::Dyn(f) => f(e),
        }
    }
}

enum KI {
    I,
    Const(i64),
    Dyn(KFn<i64>),
}

impl KI {
    #[inline]
    fn eval(&self, e: &Env) -> (i64, u64) {
        match self {
            KI::I => (e.i, 0),
            KI::Const(k) => (*k, 0),
            KI::Dyn(f) => f(e),
        }
    }
}

/// A typed predicate. Comparisons of `x` against a literal, and ranges of
/// two such, are plain data evaluated in line; anything else is a closure.
enum KB {
    /// `x op k`.
    XCmp(BinOp, f64),
    /// `(x op1 k1) && (x op2 k2)`, where the right-hand side adds `taken`
    /// instructions when it runs.
    Range(BinOp, f64, BinOp, f64, u64),
    Dyn(KFn<bool>),
}

impl KB {
    #[inline]
    fn eval(&self, e: &Env) -> (bool, u64) {
        match *self {
            KB::XCmp(op, k) => (cmp(op, e.x, k), 0),
            KB::Range(op1, k1, op2, k2, taken) => {
                let a = cmp(op1, e.x, k1);
                (a & cmp(op2, e.x, k2), u64::from(a) * taken)
            }
            KB::Dyn(ref f) => f(e),
        }
    }
}

#[inline]
fn cmp(op: BinOp, x: f64, y: f64) -> bool {
    match op {
        BinOp::Lt => x < y,
        BinOp::Le => x <= y,
        BinOp::Gt => x > y,
        BinOp::Ge => x >= y,
        BinOp::Eq => x == y,
        _ => x != y,
    }
}

/// `k op x` as `x op' k` (exact for NaN too: both sides are false).
fn flip(op: BinOp) -> BinOp {
    match op {
        BinOp::Lt => BinOp::Gt,
        BinOp::Le => BinOp::Ge,
        BinOp::Gt => BinOp::Lt,
        BinOp::Ge => BinOp::Le,
        other => other,
    }
}

enum KT {
    F(KF),
    I(KI),
    B(KB),
}

/// A typed expression and the instructions it always executes.
struct KExpr {
    t: KT,
    cost: u64,
}

impl KT {
    /// Numeric widening, as the interpreter's `as_f64`.
    fn float(self) -> Option<KF> {
        Some(match self {
            KT::F(f) => f,
            KT::I(KI::Const(k)) => KF::Const(k as f64),
            KT::I(i) => kmap!(KF::Dyn, i, |v| v as f64),
            KT::B(_) => return None,
        })
    }

    fn boolean(self) -> Option<KB> {
        match self {
            KT::B(b) => Some(b),
            _ => None,
        }
    }
}

/// Slots a column-loop body may read.
struct KCtx {
    i: usize,
    x: Option<usize>,
    src: Option<usize>,
    /// Accumulator slots, by accumulator index.
    accs: Vec<usize>,
}

/// A `for` loop compiled to a typed loop over one `f64` column.
struct ColumnLoop {
    /// Slot of the array read as `v[i]`.
    src: usize,
    /// `src` is a column slot (borrowed input) rather than a `float[]`.
    col: bool,
    /// Slot of the `float[]` pushed to, if the body pushes.
    out: Option<usize>,
    /// Slot of `let x = v[i]`, when the body binds one.
    x: Option<usize>,
    /// Accumulator slots; each must hold a float on entry.
    accs: Vec<usize>,
    body: LoopBody,
}

impl ColumnLoop {
    /// Run the loop if the runtime values fit the compiled types; `None`
    /// leaves the frame untouched for the general loop.
    fn run(&self, f: &mut Frame<'_>, i: usize, end: &Value) -> R<Option<Flow>> {
        let (&Value::Int(s), &Value::Int(e)) = (&f.slots[i], end) else { return Ok(None) };
        let out = match self.out.map(|k| &f.slots[k]) {
            None => None,
            Some(Value::FloatArr(out)) => Some(out.clone()),
            Some(_) => return Ok(None),
        };
        let mut acc = [0.0; MAX_ACC];
        for (a, &k) in acc.iter_mut().zip(&self.accs) {
            let Value::Float(v) = f.slots[k] else { return Ok(None) };
            *a = v;
        }
        let src_rc = if self.col {
            None
        } else {
            match &f.slots[self.src] {
                Value::FloatArr(a) if !out.as_ref().is_some_and(|o| Rc::ptr_eq(a, o)) => {
                    Some(a.clone())
                }
                _ => return Ok(None),
            }
        };
        let src_guard = src_rc.as_ref().map(|a| a.borrow());
        let src: &[f64] = match &src_guard {
            Some(g) => g,
            None => match f.cols[self.src] {
                Some(d) => d,
                None => return Ok(None),
            },
        };
        if s < e && (s < 0 || e as usize > src.len()) {
            return Ok(None);
        }
        if s < e {
            let mut scratch = Vec::new();
            let mut dst = out.as_ref().map(|o| o.borrow_mut());
            let mut io = LoopIo {
                src: &src[s as usize..e as usize],
                first: s,
                dst: dst.as_deref_mut().unwrap_or(&mut scratch),
                acc,
                used: f.used,
                budget: f.budget,
            };
            let within = (self.body)(&mut io);
            f.used = io.used;
            if !within {
                return err(RunError::BudgetExceeded);
            }
            acc = io.acc;
            if let Some(dst) = dst.as_mut().filter(|d| d.capacity() > 2 * d.len()) {
                dst.shrink_to_fit();
            }
            if let Some(x) = self.x {
                f.slots[x] = Value::Float(src[(e - 1) as usize]);
            }
            f.slots[i] = Value::Int(e);
            for (&a, &k) in acc.iter().zip(&self.accs) {
                f.slots[k] = Value::Float(a);
            }
        }
        f.used += 4; // the failing test: LoadVar, LoadVar, Lt, JumpIfFalse
        Ok(Some(Flow::Next))
    }
}

impl Builder {
    /// Match `[let x = v[i];]` followed by float accumulator updates
    /// (`acc = E;`) and at most one trailing `[if P] push(out, E);`, over
    /// the loop slot `i`.
    fn column_loop(&mut self, i: usize, body: &[Stmt]) -> Option<ColumnLoop> {
        let mut cx = KCtx { i, x: None, src: None, accs: Vec::new() };
        let mut rest = body;
        if let [Stmt::Let { name, value } | Stmt::Assign { name, value }, tail @ ..] = body {
            if let Expr::Index { array, index } = value {
                if let (Expr::Var(a), Expr::Var(ix)) = (&**array, &**index) {
                    if self.slot(ix) == i {
                        cx.src = Some(self.slot(a));
                        cx.x = Some(self.slot(name));
                        rest = tail;
                    }
                }
            }
        }
        // Accumulators are every other assigned variable; collect them
        // first so expressions anywhere in the body can read them.
        for s in rest {
            if let Stmt::Let { name, .. } | Stmt::Assign { name, .. } = s {
                let k = self.slot(name);
                if !cx.accs.contains(&k) {
                    cx.accs.push(k);
                }
            }
        }
        if rest.is_empty() || cx.accs.len() > MAX_ACC {
            return None;
        }
        let mut iter_cost = 9 + if cx.x.is_some() { 4 } else { 0 };
        let (mut updates, mut push, mut out, mut push_cost) = (Vec::new(), None, None, 0);
        for s in rest {
            if push.is_some() {
                return None; // the push must come last
            }
            match s {
                Stmt::Let { name, value } | Stmt::Assign { name, value } => {
                    let k = self.slot(name);
                    let e = self.kexpr(value, &mut cx)?;
                    // The accumulator must stay a float: no widening.
                    let KT::F(v) = e.t else { return None };
                    let idx = cx.accs.iter().position(|&a| a == k)?;
                    updates.push((idx, v, e.cost + 1));
                }
                _ => {
                    let (cond, call) = match s {
                        Stmt::If { cond, then_block, else_block } if else_block.is_empty() => {
                            match then_block.as_slice() {
                                [Stmt::Expr(call)] => (Some(cond), call),
                                _ => return None,
                            }
                        }
                        Stmt::Expr(call) => (None, call),
                        _ => return None,
                    };
                    let Expr::Call { name, args } = call else { return None };
                    let [Expr::Var(o), value] = args.as_slice() else { return None };
                    if name != "push" {
                        return None;
                    }
                    out = Some(self.slot(o));
                    let pred = match cond {
                        Some(c) => {
                            let p = self.kexpr(c, &mut cx)?;
                            iter_cost += p.cost + 1;
                            Some(p.t.boolean()?)
                        }
                        None => None,
                    };
                    let val = self.kexpr(value, &mut cx)?;
                    // A taken push runs `LoadVar out, E, Call, Pop`.
                    push_cost = 3 + val.cost;
                    push = Some((pred, val.t.float()?));
                }
            }
        }
        let src = cx.src?;
        let mut distinct = vec![i, src];
        distinct.extend(cx.x);
        distinct.extend(out);
        distinct.extend(&cx.accs);
        let n = distinct.len();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.len() != n {
            return None;
        }
        let body = with_push(updates, push, Costs { iter: iter_cost, push: push_cost });
        Some(ColumnLoop {
            src,
            col: self.col_slots.contains(&src),
            out,
            x: cx.x,
            accs: cx.accs,
            body,
        })
    }

    /// Compile a column-loop expression to a typed closure, or `None` when
    /// it could raise an error or read anything but `x`, `i` and `v[i]`.
    fn kexpr(&mut self, e: &Expr, cx: &mut KCtx) -> Option<KExpr> {
        let leaf = |t| Some(KExpr { t, cost: 1 });
        match e {
            Expr::Int(v) => leaf(KT::I(KI::Const(*v))),
            Expr::Float(v) => leaf(KT::F(KF::Const(*v))),
            Expr::Bool(v) => {
                let v = *v;
                leaf(KT::B(KB::Dyn(Box::new(move |_| (v, 0)))))
            }
            Expr::Str(_) => None,
            Expr::Var(name) => {
                let k = self.slot(name);
                if k == cx.i {
                    leaf(KT::I(KI::I))
                } else if Some(k) == cx.x {
                    leaf(KT::F(KF::X))
                } else {
                    let idx = cx.accs.iter().position(|&a| a == k)?;
                    leaf(KT::F(KF::Acc(idx)))
                }
            }
            Expr::Index { array, index } => {
                let (Expr::Var(a), Expr::Var(ix)) = (&**array, &**index) else { return None };
                let (a, ix) = (self.slot(a), self.slot(ix));
                if ix != cx.i || *cx.src.get_or_insert(a) != a {
                    return None;
                }
                Some(KExpr { t: KT::F(KF::X), cost: 3 })
            }
            Expr::Unary { op, expr } => {
                let inner = self.kexpr(expr, cx)?;
                let t = match (op, inner.t) {
                    (UnOp::Not, KT::B(b)) => KT::B(kmap!(KB::Dyn, b, |v| !v)),
                    (UnOp::Neg, KT::I(KI::Const(k))) => KT::I(KI::Const(k.wrapping_neg())),
                    (UnOp::Neg, KT::I(i)) => KT::I(kmap!(KI::Dyn, i, |v| v.wrapping_neg())),
                    (UnOp::Neg, KT::F(KF::Const(k))) => KT::F(KF::Const(-k)),
                    (UnOp::Neg, KT::F(f)) => KT::F(kmap!(KF::Dyn, f, |v| -v)),
                    _ => return None,
                };
                Some(KExpr { t, cost: inner.cost + 1 })
            }
            Expr::Binary { op: op @ (BinOp::And | BinOp::Or), lhs, rhs } => {
                let (l, r) = (self.kexpr(lhs, cx)?, self.kexpr(rhs, cx)?);
                let cost = l.cost + 2;
                // `Pop` plus the right-hand side, when it runs.
                let taken = 1 + r.cost;
                let (lb, rb) = (l.t.boolean()?, r.t.boolean()?);
                // Both sides are pure and cannot fail, so the right-hand side
                // runs unconditionally (no data-dependent branch); only its
                // instructions are charged as the short circuit would.
                let b = if let (BinOp::And, KB::XCmp(o1, k1), KB::XCmp(o2, k2)) = (op, &lb, &rb) {
                    KB::Range(*o1, *k1, *o2, *k2, taken)
                } else if *op == BinOp::And {
                    KB::Dyn(Box::new(move |e| {
                        let ((a, c1), (b, c2)) = (lb.eval(e), rb.eval(e));
                        (a & b, c1 + u64::from(a) * (taken + c2))
                    }))
                } else {
                    KB::Dyn(Box::new(move |e| {
                        let ((a, c1), (b, c2)) = (lb.eval(e), rb.eval(e));
                        (a | b, c1 + u64::from(!a) * (taken + c2))
                    }))
                };
                Some(KExpr { t: KT::B(b), cost })
            }
            Expr::Binary { op, lhs, rhs } => {
                let (l, r) = (self.kexpr(lhs, cx)?, self.kexpr(rhs, cx)?);
                let cost = l.cost + r.cost + 1;
                let t = match op {
                    BinOp::Eq | BinOp::Ne => match (l.t, r.t) {
                        (KT::B(a), KT::B(b)) => {
                            let ne = *op == BinOp::Ne;
                            KT::B(kmap2!(KB::Dyn, a, b, |x, y| (x == y) != ne))
                        }
                        (KT::B(_), _) | (_, KT::B(_)) => return None,
                        (a, b) => kcmp(*op, a.float()?, b.float()?),
                    },
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        kcmp(*op, l.t.float()?, r.t.float()?)
                    }
                    _ => karith(*op, l.t, r.t)?,
                };
                Some(KExpr { t, cost })
            }
            Expr::Call { name, args } => {
                let mut ks = Vec::with_capacity(args.len());
                for a in args {
                    ks.push(self.kexpr(a, cx)?);
                }
                let cost = ks.iter().map(|k| k.cost).sum::<u64>() + 1;
                let mut ts = ks.into_iter().map(|k| k.t);
                let t = match (name.as_str(), args.len()) {
                    ("abs", 1) => match ts.next()? {
                        KT::I(i) => KT::I(kmap!(KI::Dyn, i, |v| v.wrapping_abs())),
                        t => {
                            let f = t.float()?;
                            KT::F(kmap!(KF::Dyn, f, |v| v.abs()))
                        }
                    },
                    ("sqrt", 1) => {
                        let f = ts.next()?.float()?;
                        KT::F(kmap!(KF::Dyn, f, |v| v.sqrt()))
                    }
                    ("floor", 1) => {
                        let f = ts.next()?.float()?;
                        KT::F(kmap!(KF::Dyn, f, |v| v.floor()))
                    }
                    ("int", 1) => {
                        let f = ts.next()?.float()?;
                        KT::I(kmap!(KI::Dyn, f, |v| v as i64))
                    }
                    ("float", 1) => KT::F(ts.next()?.float()?),
                    ("pow", 2) => {
                        let (a, b) = (ts.next()?.float()?, ts.next()?.float()?);
                        KT::F(kmap2!(KF::Dyn, a, b, |x, y| x.powf(y)))
                    }
                    (m @ ("min" | "max"), 2) => {
                        let (a, b) = (ts.next()?, ts.next()?);
                        let ints = matches!((&a, &b), (KT::I(_), KT::I(_)));
                        let (a, b) = (a.float()?, b.float()?);
                        // Both widen to float first, as the interpreter does.
                        let f = if m == "min" {
                            kmap2!(KF::Dyn, a, b, |x, y| x.min(y))
                        } else {
                            kmap2!(KF::Dyn, a, b, |x, y| x.max(y))
                        };
                        if ints {
                            KT::I(kmap!(KI::Dyn, f, |v| v as i64))
                        } else {
                            KT::F(f)
                        }
                    }
                    _ => return None,
                };
                Some(KExpr { t, cost })
            }
        }
    }
}

/// What a column loop reads and updates.
struct LoopIo<'a> {
    /// The elements `v[first..]` the loop visits.
    src: &'a [f64],
    first: i64,
    /// `out`'s storage (an unused scratch vector without a push).
    dst: &'a mut Vec<f64>,
    acc: [f64; MAX_ACC],
    used: u64,
    budget: u64,
}

/// The per-element loop. Returns `false` at the back-edge where the count
/// passed the budget.
type LoopBody = Box<dyn Fn(&mut LoopIo<'_>) -> bool + Send + Sync>;

/// An accumulator update `acc[k] = E`: accumulator index, value, and the
/// instructions it always runs.
type Update = (usize, KF, u64);

/// Instructions per iteration (test, binding, predicate, increment) and
/// per taken `push`.
#[derive(Clone, Copy)]
struct Costs {
    iter: u64,
    push: u64,
}

/// Pick the loop instantiation for the push's shape: a lone comparison of
/// `x` against a literal, or a range of two, compiles into the loop (its
/// operator is loop-invariant, so the branch on it is always predicted);
/// any other predicate or value calls its closure tree once per element.
fn with_push(updates: Vec<Update>, push: Option<(Option<KB>, KF)>, cost: Costs) -> LoopBody {
    let Some((pred, val)) = push else {
        return column_body(updates, false, |_: &Env| (false, 0), |_: &Env| (0.0, 0), cost);
    };
    macro_rules! with_val {
        ($pred:expr) => {
            match val {
                KF::X => column_body(updates, true, $pred, |e: &Env| (e.x, 0), cost),
                v => column_body(updates, true, $pred, move |e: &Env| v.eval(e), cost),
            }
        };
    }
    match pred {
        None => with_val!(|_: &Env| (true, 0)),
        Some(KB::XCmp(op, k)) => with_val!(move |e: &Env| (cmp(op, e.x, k), 0)),
        Some(KB::Range(op1, k1, op2, k2, taken)) => with_val!(move |e: &Env| {
            let a = cmp(op1, e.x, k1);
            (a & cmp(op2, e.x, k2), u64::from(a) * taken)
        }),
        Some(KB::Dyn(p)) => with_val!(move |e: &Env| p(e)),
    }
}

/// The per-element loop: the accumulator updates in order, then, if the
/// body `pushes`, `[if pred] push(out, val)`.
fn column_body<P, V>(updates: Vec<Update>, pushes: bool, pred: P, val: V, cost: Costs) -> LoopBody
where
    P: Fn(&Env) -> (bool, u64) + Send + Sync + 'static,
    V: Fn(&Env) -> (f64, u64) + Send + Sync + 'static,
{
    Box::new(move |io| {
        // Branch-free selection: the body pushes at most once per element,
        // so every element is written at the end of `dst`, which only
        // advances past the kept ones (the value is pure, so computing it
        // for a dropped element is unobservable).
        let dst = &mut *io.dst;
        let mut len = dst.len();
        dst.resize(len + if pushes { io.src.len() } else { 0 }, 0.0);
        let (mut env, mut used) = (Env { x: 0.0, i: 0, acc: io.acc }, io.used);
        for (&x, i) in io.src.iter().zip(io.first..) {
            (env.x, env.i) = (x, i);
            used += cost.iter;
            for (k, e, c) in &updates {
                let (v, extra) = e.eval(&env);
                env.acc[*k] = v;
                used += c + extra;
            }
            if pushes {
                let (keep, p_extra) = pred(&env);
                let (v, v_extra) = val(&env);
                dst[len] = v;
                len += usize::from(keep);
                used += p_extra + u64::from(keep) * (cost.push + v_extra);
            }
            if used > io.budget {
                break;
            }
        }
        dst.truncate(len);
        (io.used, io.acc) = (used, env.acc);
        used <= io.budget
    })
}

/// Typed arithmetic: int op int stays int (division only by a nonzero
/// literal, so it cannot fail); anything else widens to float.
fn karith(op: BinOp, l: KT, r: KT) -> Option<KT> {
    if let (KT::I(_), KT::I(b)) = (&l, &r) {
        let nonzero = matches!(b, KI::Const(k) if *k != 0);
        let (KT::I(a), KT::I(b)) = (l, r) else { unreachable!("matched above") };
        return Some(KT::I(match op {
            BinOp::Add => kmap2!(KI::Dyn, a, b, |x, y| x.wrapping_add(y)),
            BinOp::Sub => kmap2!(KI::Dyn, a, b, |x, y| x.wrapping_sub(y)),
            BinOp::Mul => kmap2!(KI::Dyn, a, b, |x, y| x.wrapping_mul(y)),
            BinOp::Div if nonzero => kmap2!(KI::Dyn, a, b, |x, y| x.wrapping_div(y)),
            BinOp::Rem if nonzero => kmap2!(KI::Dyn, a, b, |x, y| x.wrapping_rem(y)),
            _ => return None,
        }));
    }
    let (a, b) = (l.float()?, r.float()?);
    Some(KT::F(match op {
        BinOp::Add => kmap2!(KF::Dyn, a, b, |x, y| x + y),
        BinOp::Sub => kmap2!(KF::Dyn, a, b, |x, y| x - y),
        BinOp::Mul => kmap2!(KF::Dyn, a, b, |x, y| x * y),
        BinOp::Div => kmap2!(KF::Dyn, a, b, |x, y| x / y),
        _ => kmap2!(KF::Dyn, a, b, |x, y| x % y),
    }))
}

/// A float comparison (ints widen first, as in the interpreter).
fn kcmp(op: BinOp, a: KF, b: KF) -> KT {
    KT::B(match (a, b) {
        (KF::X, KF::Const(k)) => KB::XCmp(op, k),
        (KF::Const(k), KF::X) => KB::XCmp(flip(op), k),
        (a, b) => match op {
            BinOp::Lt => kmap2!(KB::Dyn, a, b, |x, y| x < y),
            BinOp::Le => kmap2!(KB::Dyn, a, b, |x, y| x <= y),
            BinOp::Gt => kmap2!(KB::Dyn, a, b, |x, y| x > y),
            BinOp::Ge => kmap2!(KB::Dyn, a, b, |x, y| x >= y),
            BinOp::Eq => kmap2!(KB::Dyn, a, b, |x, y| x == y),
            _ => kmap2!(KB::Dyn, a, b, |x, y| x != y),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    /// Which top-level `for` loops compile to typed column loops, and
    /// which variables borrow the input.
    fn shape(src: &str) -> (Vec<bool>, Vec<String>) {
        let stmts = parse(src).unwrap();
        let mut b = Builder::default();
        b.analyze(&stmts);
        let loops = stmts
            .iter()
            .filter_map(|s| match s {
                Stmt::For { var, body, .. } => {
                    let i = b.slot(var);
                    Some(b.column_loop(i, body).is_some())
                }
                _ => None,
            })
            .collect();
        let mut cols: Vec<String> = b
            .slots
            .iter()
            .filter(|(_, k)| b.col_slots.contains(k))
            .map(|(n, _)| n.clone())
            .collect();
        cols.sort();
        (loops, cols)
    }

    #[test]
    fn stock_column_kernels_compile_to_typed_loops() {
        let v = vec!["v".to_string()];
        assert_eq!(shape(&crate::plugins::bounding_box("v", 0.5, 2.0)), (vec![true], v.clone()));
        assert_eq!(shape(&crate::plugins::sampling("v", 3)), (vec![true], v.clone()));
        assert_eq!(shape(&crate::plugins::unit_conversion("v", 2.0)), (vec![true], v.clone()));
        // The pushdown planner's filter shape (`let x = v[i]` binding).
        let pushdown = r#"let v = get_f64("v"); let n = len(v); let out = array();
            for i in 0..n { let x = v[i]; if ((x * 2.0) > (-1.5) || !(x == 3.0)) { push(out, x); } }
            emit_f64("v", out); emit_int("q_rows_in", n);"#;
        assert_eq!(shape(pushdown), (vec![true], v.clone()));
        // Reductions carry float accumulators through the typed loop.
        assert_eq!(shape(&crate::plugins::summarize("v")), (vec![true], v.clone()));
        // Straight-line kernels still borrow their column.
        assert_eq!(shape(&crate::plugins::annotate("v", "t")), (vec![], v));
    }

    #[test]
    fn errors_past_an_upfront_charge_defer_to_the_interpreter() {
        // `PushConst 1, PushConst 0, Div, StoreVar`: the statement charges
        // 4 up front; the division fails at instruction 3.
        let src = "let x = 1 / 0;";
        let native = Native::build(&parse(src).unwrap());
        let input = Record::new();
        let run = |budget| native.run(Input::Record(&input), budget);
        assert_eq!(run(4), Some(Err(RunError::DivisionByZero)), "charge within budget: exact");
        assert_eq!(run(3), None, "charge past the budget: ambiguous");
        assert_eq!(run(2), None);
        // The codelet resolves the ambiguity exactly.
        let code = crate::Codelet::compile(src).unwrap();
        assert_eq!(code.run_budgeted(&input, 3), Err(RunError::DivisionByZero));
        assert_eq!(code.run_budgeted(&input, 2), Err(RunError::BudgetExceeded));
    }

    #[test]
    fn loops_that_could_fail_or_alias_stay_general() {
        // Integer division by a variable could raise DivisionByZero.
        let src = r#"let v = get_f64("v"); let out = array(); let k = 0;
            for i in 0..len(v) { push(out, i / k); }"#;
        assert_eq!(shape(src).0, vec![false]);
        // A bool pushed into a float[] is a type error.
        let src = r#"let v = get_f64("v"); let out = array();
            for i in 0..len(v) { push(out, v[i] > 0.0); }"#;
        assert_eq!(shape(src).0, vec![false]);
        // The typed loop runs the push last.
        let src = r#"let v = get_f64("v"); let out = array(); let s = 0.0;
            for i in 0..len(v) { push(out, v[i]); s = s + v[i]; }"#;
        assert_eq!(shape(src).0, vec![false]);
        // An aliased input array is copied, not borrowed.
        let src = r#"let v = get_f64("v"); let w = v; push(w, 1.0); emit_f64("v", v);"#;
        assert_eq!(shape(src).1, Vec::<String>::new());
    }
}
