//! AST → bytecode compiler.
//!
//! The compiled [`Program`] is the artifact FlexIO "installs" into a
//! process. Variables resolve to numbered slots at compile time; builtin
//! calls resolve to table indices; `&&`/`||` compile to short-circuit
//! jumps (plug-ins routinely guard indexing with `i < len(v) && v[i] > t`).

use std::collections::HashMap;

use crate::ast::{BinOp, Expr, Stmt, UnOp};
use crate::parser::{parse, ParseError};
use crate::vm::builtin_index;

/// Literal constants referenced by the bytecode.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Boolean literal.
    Bool(bool),
    /// String literal.
    Str(String),
}

/// One bytecode instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Instr {
    /// Push constant-pool entry.
    PushConst(u16),
    /// Push a variable slot's value.
    LoadVar(u16),
    /// Pop into a variable slot.
    StoreVar(u16),
    /// Binary arithmetic/comparison ops pop two, push one.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Rem,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical not.
    Not,
    /// Arithmetic negation.
    Neg,
    /// `array[index]` — pops index then array, pushes element.
    Index,
    /// `array[index] = value` — pops value, index, array.
    IndexStore,
    /// Call builtin `id` with `argc` stack arguments.
    Call {
        /// Builtin table index.
        id: u16,
        /// Argument count.
        argc: u8,
    },
    /// Unconditional jump to instruction index.
    Jump(u32),
    /// Pop a bool; jump if false.
    JumpIfFalse(u32),
    /// Pop a bool; jump if true.
    JumpIfTrue(u32),
    /// Duplicate top of stack.
    Dup,
    /// Discard top of stack.
    Pop,
    /// Stop execution.
    Halt,
}

/// A compiled codelet program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Bytecode.
    pub instructions: Vec<Instr>,
    /// Constant pool.
    pub constants: Vec<Const>,
    /// Number of variable slots to allocate.
    pub num_slots: usize,
}

/// Compilation error.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// Reference to a variable never `let`-bound.
    UndefinedVariable(String),
    /// Call to a function not in the builtin table.
    UnknownFunction(String),
    /// More than 65k constants/variables (plug-ins are "lightweight").
    TooLarge(&'static str),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Parse(e) => write!(f, "{e}"),
            CompileError::UndefinedVariable(n) => write!(f, "undefined variable `{n}`"),
            CompileError::UnknownFunction(n) => write!(f, "unknown function `{n}`"),
            CompileError::TooLarge(what) => write!(f, "codelet too large: too many {what}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<ParseError> for CompileError {
    fn from(e: ParseError) -> Self {
        CompileError::Parse(e)
    }
}

/// Compile source to a [`Program`].
pub fn compile(source: &str) -> Result<Program, CompileError> {
    compile_ast(&parse(source)?)
}

/// Compile an already-parsed statement list to a [`Program`].
pub fn compile_ast(stmts: &[Stmt]) -> Result<Program, CompileError> {
    let mut c = Compiler::default();
    c.block(stmts)?;
    c.emit(Instr::Halt);
    Ok(Program {
        instructions: c.instructions,
        constants: c.constants,
        num_slots: c.slots.len() + c.hidden_slots,
    })
}

#[derive(Default)]
struct Compiler {
    instructions: Vec<Instr>,
    constants: Vec<Const>,
    slots: HashMap<String, u16>,
    hidden_slots: usize,
}

impl Compiler {
    fn emit(&mut self, i: Instr) -> usize {
        self.instructions.push(i);
        self.instructions.len() - 1
    }

    fn here(&self) -> u32 {
        self.instructions.len() as u32
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.instructions[at] {
            Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) => *t = target,
            other => unreachable!("patching non-jump {other:?}"),
        }
    }

    fn constant(&mut self, c: Const) -> Result<u16, CompileError> {
        if let Some(idx) = self.constants.iter().position(|k| k == &c) {
            return Ok(idx as u16);
        }
        if self.constants.len() >= u16::MAX as usize {
            return Err(CompileError::TooLarge("constants"));
        }
        self.constants.push(c);
        Ok((self.constants.len() - 1) as u16)
    }

    fn slot(&mut self, name: &str, define: bool) -> Result<u16, CompileError> {
        if let Some(&s) = self.slots.get(name) {
            return Ok(s);
        }
        if !define {
            return Err(CompileError::UndefinedVariable(name.to_string()));
        }
        if self.slots.len() + self.hidden_slots >= u16::MAX as usize {
            return Err(CompileError::TooLarge("variables"));
        }
        let s = (self.slots.len() + self.hidden_slots) as u16;
        self.slots.insert(name.to_string(), s);
        Ok(s)
    }

    fn hidden_slot(&mut self) -> Result<u16, CompileError> {
        if self.slots.len() + self.hidden_slots >= u16::MAX as usize {
            return Err(CompileError::TooLarge("variables"));
        }
        let s = (self.slots.len() + self.hidden_slots) as u16;
        self.hidden_slots += 1;
        Ok(s)
    }

    fn block(&mut self, stmts: &[Stmt]) -> Result<(), CompileError> {
        for s in stmts {
            self.statement(s)?;
        }
        Ok(())
    }

    fn statement(&mut self, stmt: &Stmt) -> Result<(), CompileError> {
        match stmt {
            Stmt::Let { name, value } => {
                self.expr(value)?;
                let slot = self.slot(name, true)?;
                self.emit(Instr::StoreVar(slot));
            }
            Stmt::Assign { name, value } => {
                self.expr(value)?;
                let slot = self.slot(name, false)?;
                self.emit(Instr::StoreVar(slot));
            }
            Stmt::IndexAssign { array, index, value } => {
                let slot = self.slot(array, false)?;
                self.emit(Instr::LoadVar(slot));
                self.expr(index)?;
                self.expr(value)?;
                self.emit(Instr::IndexStore);
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
                self.emit(Instr::Pop);
            }
            Stmt::If { cond, then_block, else_block } => {
                self.expr(cond)?;
                let jf = self.emit(Instr::JumpIfFalse(0));
                self.block(then_block)?;
                if else_block.is_empty() {
                    let end = self.here();
                    self.patch(jf, end);
                } else {
                    let jend = self.emit(Instr::Jump(0));
                    let else_start = self.here();
                    self.patch(jf, else_start);
                    self.block(else_block)?;
                    let end = self.here();
                    self.patch(jend, end);
                }
            }
            Stmt::While { cond, body } => {
                let top = self.here();
                self.expr(cond)?;
                let jf = self.emit(Instr::JumpIfFalse(0));
                self.block(body)?;
                self.emit(Instr::Jump(top));
                let end = self.here();
                self.patch(jf, end);
            }
            Stmt::For { var, start, end, body } => {
                // i = start; END = end; while i < END { body; i = i + 1; }
                self.expr(start)?;
                let i_slot = self.slot(var, true)?;
                self.emit(Instr::StoreVar(i_slot));
                self.expr(end)?;
                let end_slot = self.hidden_slot()?;
                self.emit(Instr::StoreVar(end_slot));
                let top = self.here();
                self.emit(Instr::LoadVar(i_slot));
                self.emit(Instr::LoadVar(end_slot));
                self.emit(Instr::Lt);
                let jf = self.emit(Instr::JumpIfFalse(0));
                self.block(body)?;
                self.emit(Instr::LoadVar(i_slot));
                let one = self.constant(Const::Int(1))?;
                self.emit(Instr::PushConst(one));
                self.emit(Instr::Add);
                self.emit(Instr::StoreVar(i_slot));
                self.emit(Instr::Jump(top));
                let endp = self.here();
                self.patch(jf, endp);
            }
            Stmt::Return => {
                self.emit(Instr::Halt);
            }
        }
        Ok(())
    }

    fn expr(&mut self, expr: &Expr) -> Result<(), CompileError> {
        match expr {
            Expr::Int(v) => {
                let c = self.constant(Const::Int(*v))?;
                self.emit(Instr::PushConst(c));
            }
            Expr::Float(v) => {
                let c = self.constant(Const::Float(*v))?;
                self.emit(Instr::PushConst(c));
            }
            Expr::Bool(v) => {
                let c = self.constant(Const::Bool(*v))?;
                self.emit(Instr::PushConst(c));
            }
            Expr::Str(s) => {
                let c = self.constant(Const::Str(s.clone()))?;
                self.emit(Instr::PushConst(c));
            }
            Expr::Var(name) => {
                let slot = self.slot(name, false)?;
                self.emit(Instr::LoadVar(slot));
            }
            Expr::Binary { op: BinOp::And, lhs, rhs } => {
                // lhs; Dup; JumpIfFalse end; Pop; rhs; end:
                self.expr(lhs)?;
                self.emit(Instr::Dup);
                let jf = self.emit(Instr::JumpIfFalse(0));
                self.emit(Instr::Pop);
                self.expr(rhs)?;
                let end = self.here();
                self.patch(jf, end);
            }
            Expr::Binary { op: BinOp::Or, lhs, rhs } => {
                self.expr(lhs)?;
                self.emit(Instr::Dup);
                let jt = self.emit(Instr::JumpIfTrue(0));
                self.emit(Instr::Pop);
                self.expr(rhs)?;
                let end = self.here();
                self.patch(jt, end);
            }
            Expr::Binary { op, lhs, rhs } => {
                self.expr(lhs)?;
                self.expr(rhs)?;
                self.emit(match op {
                    BinOp::Add => Instr::Add,
                    BinOp::Sub => Instr::Sub,
                    BinOp::Mul => Instr::Mul,
                    BinOp::Div => Instr::Div,
                    BinOp::Rem => Instr::Rem,
                    BinOp::Eq => Instr::Eq,
                    BinOp::Ne => Instr::Ne,
                    BinOp::Lt => Instr::Lt,
                    BinOp::Le => Instr::Le,
                    BinOp::Gt => Instr::Gt,
                    BinOp::Ge => Instr::Ge,
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                });
            }
            Expr::Unary { op, expr } => {
                self.expr(expr)?;
                self.emit(match op {
                    UnOp::Neg => Instr::Neg,
                    UnOp::Not => Instr::Not,
                });
            }
            Expr::Index { array, index } => {
                self.expr(array)?;
                self.expr(index)?;
                self.emit(Instr::Index);
            }
            Expr::Call { name, args } => {
                let id = builtin_index(name)
                    .ok_or_else(|| CompileError::UnknownFunction(name.clone()))?;
                for a in args {
                    self.expr(a)?;
                }
                self.emit(Instr::Call { id, argc: args.len() as u8 });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_straight_line_code() {
        let p = compile("let x = 1 + 2.5;").unwrap();
        assert!(p.instructions.len() >= 4);
        assert!(matches!(p.instructions.last(), Some(Instr::Halt)));
        assert_eq!(p.num_slots, 1);
    }

    #[test]
    fn undefined_variable_rejected() {
        assert_eq!(compile("x = 3;"), Err(CompileError::UndefinedVariable("x".to_string())));
        assert!(matches!(compile("let y = z;"), Err(CompileError::UndefinedVariable(_))));
    }

    #[test]
    fn unknown_function_rejected() {
        assert_eq!(
            compile("let x = frobnicate(1);"),
            Err(CompileError::UnknownFunction("frobnicate".to_string()))
        );
    }

    #[test]
    fn constants_are_deduplicated() {
        let p = compile("let a = 1; let b = 1; let c = 1;").unwrap();
        let ints = p.constants.iter().filter(|c| matches!(c, Const::Int(1))).count();
        assert_eq!(ints, 1);
    }

    #[test]
    fn for_loop_allocates_hidden_slot() {
        let p = compile("let s = 0; for i in 0..10 { s = s + i; }").unwrap();
        // s, i, hidden end-bound.
        assert_eq!(p.num_slots, 3);
    }

    #[test]
    fn jumps_are_patched_in_bounds() {
        let p =
            compile("let x = 0; if x < 5 { x = 1; } else { x = 2; } while x > 0 { x = x - 1; }")
                .unwrap();
        for (idx, i) in p.instructions.iter().enumerate() {
            if let Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) = i {
                assert!((*t as usize) <= p.instructions.len(), "instr {idx} jumps to {t}");
            }
        }
    }
}
