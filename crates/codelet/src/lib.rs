//! `codelet` — the language Data Conditioning plug-ins are written in.
//!
//! Paper §II.F: "Data Conditioning Plug-ins are stateless codelets
//! created on the reader side (e.g., analytics) to customize writer-side
//! outputs on the fly. [...] They are typically lightweight in terms of
//! compute and memory usage, and are easily programmed with the subset of C
//! offered by the C-on-demand (CoD) \[11\]. [...] Their code strings are
//! compiled and installed in the appropriate process address space through
//! the dynamic binary code generation offered by CoD."
//!
//! CoD generates machine code from the string; this crate keeps every
//! property FlexIO relies on — code-as-string shipped between address
//! spaces, compiled at install time, stateless per-chunk execution,
//! bounded cost — and compiles to **native Rust closures** instead of
//! emitting instructions:
//!
//! * [`lex`]/[`parser`] — a small C-like expression/statement language:
//!   `let`, assignment, `if`/`else`, `while`, `for i in a..b`, arithmetic,
//!   comparison, logic, indexing, calls;
//! * [`compile`] — name resolution and checking, producing the stack
//!   bytecode [`Program`] that defines the language's semantics and its
//!   instruction count;
//! * `native` — the install-time pass [`Codelet::compile`] runs after
//!   checking: the statements become a tree of closures with builtins bound
//!   at build time, input columns borrowed rather than copied, and column
//!   kernels (`for i in 0..len(v)` filters, maps and reductions) running
//!   as typed loops over the `&[f64]`. It charges the same instruction
//!   budget the bytecode would use, so a plug-in still cannot stall the
//!   I/O path;
//! * [`vm`] — the bytecode interpreter, kept as the oracle the compiled
//!   engine is tested against (`tests/compiled_vs_interp.rs`);
//! * [`plugins`] — the canned Data Conditioning plug-ins the paper lists
//!   (sampling, bounding box, unit conversion, data markup/annotation,
//!   selection) as ready-to-deploy source strings.
//!
//! A codelet runs against an input [`evpath::Record`] and produces an
//! output `Record` — exactly how FlexIO hands a chunk of variables to a
//! plug-in and forwards the conditioned result.
//!
//! ```
//! use codelet::Codelet;
//! use evpath::{FieldValue, Record};
//!
//! let plugin = Codelet::compile(r#"
//!     let v = get_f64("values");
//!     let out = array();
//!     for i in 0..len(v) {
//!         if v[i] >= 10.0 { push(out, v[i]); }
//!     }
//!     emit_f64("selected", out);
//! "#).unwrap();
//! let input = Record::new().with("values", FieldValue::F64Array(vec![1.0, 50.0, 3.0, 99.0]));
//! let output = plugin.run(&input).unwrap();
//! assert_eq!(output.get_f64_array("selected"), Some(&[50.0, 99.0][..]));
//! ```

pub mod ast;
pub mod compile;
pub mod lex;
mod native;
pub mod parser;
pub mod plugins;
pub mod value;
pub mod vm;

use std::sync::Arc;

use evpath::{FieldValue, Record};

use native::{Input, Native};

pub use compile::{CompileError, Program};
pub use value::Value;
pub use vm::{RunError, DEFAULT_INSTRUCTION_BUDGET};

/// A compiled, deployable codelet: the unit FlexIO installs into a process.
#[derive(Debug, Clone)]
pub struct Codelet {
    /// Original source, kept so the codelet can be re-shipped ("migrated")
    /// to another address space and re-compiled there.
    source: String,
    program: Program,
    native: Arc<Native>,
}

impl Codelet {
    /// Check and compile a source string to native closures (the
    /// "install" step).
    pub fn compile(source: &str) -> Result<Codelet, CompileError> {
        let stmts = parser::parse(source)?;
        let program = compile::compile_ast(&stmts)?;
        let native = Arc::new(Native::build(&stmts));
        Ok(Codelet { source: source.to_string(), program, native })
    }

    /// Execute against an input record with the default instruction budget.
    pub fn run(&self, input: &Record) -> Result<Record, RunError> {
        self.run_budgeted(input, DEFAULT_INSTRUCTION_BUDGET)
    }

    /// Execute with an explicit instruction budget.
    pub fn run_budgeted(&self, input: &Record, budget: u64) -> Result<Record, RunError> {
        self.native
            .run(Input::Record(input), budget)
            .unwrap_or_else(|| vm::execute(&self.program, input, budget))
    }

    /// Execute against a single borrowed `f64` column, exactly as [`run`]
    /// would against a record holding only `name` → `data`, without
    /// copying `data` into one.
    ///
    /// [`run`]: Codelet::run
    pub fn run_column(&self, name: &str, data: &[f64]) -> Result<Record, RunError> {
        self.run_column_budgeted(name, data, DEFAULT_INSTRUCTION_BUDGET)
    }

    /// [`run_column`](Codelet::run_column) with an explicit instruction
    /// budget.
    pub fn run_column_budgeted(
        &self,
        name: &str,
        data: &[f64],
        budget: u64,
    ) -> Result<Record, RunError> {
        self.native.run(Input::Column { name, data }, budget).unwrap_or_else(|| {
            let input = Record::new().with(name, FieldValue::F64Array(data.to_vec()));
            vm::execute(&self.program, &input, budget)
        })
    }

    /// The source string (what migrates between address spaces).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The checked bytecode: what [`vm::execute`] interprets, and the
    /// definition of the instruction budget every run is charged against.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Number of bytecode instructions (a proxy for install cost).
    pub fn code_len(&self) -> usize {
        self.program.instructions.len()
    }
}
