//! Differential battery: the install-time compiled engine behind
//! `Codelet::run*` against the bytecode interpreter `vm::execute`, the
//! language's oracle. Every case must give the same
//! `Result<Record, RunError>` — output bits, error variant and message —
//! and the budget sweep pins the exhaustion boundary: at budget 0, 1,
//! exact−1 and exact instruction count the two engines must agree.
//!
//! Four case families: random programs over the whole language, random
//! inputs with NaN/±0/±inf/empty arrays, every stock plug-in source, and
//! the `flexio-query` pushdown lowering of random filter plans.

use codelet::{vm, Codelet, RunError};
use evpath::{FieldValue, Record};
use proptest::prelude::*;

/// Budget for the main comparison: ample for the generated programs, small
/// enough that runaway loops stop quickly.
const BUDGET: u64 = 20_000;

/// splitmix64: the generators below draw many small decisions per case.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }

    fn special_f64(&mut self) -> f64 {
        const SPECIAL: [f64; 10] =
            [f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.0, -1.5, 2.5, 1e300, 0.1];
        if self.one_in(3) {
            SPECIAL[self.below(SPECIAL.len())]
        } else {
            (self.below(2001) as f64 - 1000.0) / 16.0
        }
    }

    fn f64s(&mut self, max_len: usize) -> Vec<f64> {
        let n = if self.one_in(5) { 0 } else { self.below(max_len + 1) };
        (0..n).map(|_| self.special_f64()).collect()
    }
}

/// Floats compare by bits (so `-0.0` ≠ `0.0`), except that any NaN
/// matches any NaN: Rust leaves the sign and payload of a NaN produced by
/// arithmetic unspecified, and the optimiser may commute operands.
fn same_f64(x: f64, y: f64) -> bool {
    (x.is_nan() && y.is_nan()) || x.to_bits() == y.to_bits()
}

fn same_field(a: &FieldValue, b: &FieldValue) -> bool {
    match (a, b) {
        (FieldValue::F64(x), FieldValue::F64(y)) => same_f64(*x, *y),
        (FieldValue::F64Array(x), FieldValue::F64Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(&x, &y)| same_f64(x, y))
        }
        _ => a == b,
    }
}

fn same(a: &Result<Record, RunError>, b: &Result<Record, RunError>) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => {
            x.len() == y.len()
                && x.iter().zip(y.iter()).all(|((n, u), (m, v))| n == m && same_field(u, v))
        }
        (Err(x), Err(y)) => x == y,
        _ => false,
    }
}

/// Compare both engines on one input at the main budget, then sweep the
/// exhaustion boundary. Returns the exact instruction count (when the run
/// finishes within `BUDGET`).
fn check(code: &Codelet, input: &Record, src: &str) -> Option<u64> {
    let (oracle, used) = vm::execute_counted(code.program(), input, BUDGET);
    let compiled = code.run_budgeted(input, BUDGET);
    assert!(
        same(&compiled, &oracle),
        "engines disagree at budget {BUDGET}\nsource:\n{src}\ninput: {input:?}\n\
         compiled: {compiled:?}\noracle:   {oracle:?}"
    );
    // A lone f64 column also runs through the borrowed-column entry point.
    if let [(name, FieldValue::F64Array(data))] = input.iter().collect::<Vec<_>>().as_slice() {
        let column = code.run_column_budgeted(name, data, BUDGET);
        assert!(same(&column, &oracle), "run_column disagrees\nsource:\n{src}\n{column:?}");
    }
    if oracle == Err(RunError::BudgetExceeded) {
        return None;
    }
    for budget in [0, 1, used.saturating_sub(1), used] {
        let oracle = vm::execute(code.program(), input, budget);
        let compiled = code.run_budgeted(input, budget);
        assert!(
            same(&compiled, &oracle),
            "engines disagree at budget {budget} (exact {used})\nsource:\n{src}\n\
             input: {input:?}\ncompiled: {compiled:?}\noracle:   {oracle:?}"
        );
    }
    // Every run ends in a `Halt` or an error, so `used >= 1`.
    assert_eq!(
        code.run_budgeted(input, used - 1),
        Err(RunError::BudgetExceeded),
        "exact−1 must exhaust\nsource:\n{src}"
    );
    Some(used)
}

// ---- random programs ------------------------------------------------------

const SCALARS: &[&str] = &["a", "b", "c", "i", "j", "x"];
const ARRAYS: &[&str] = &["xs", "fo", "io"];
const FIELDS: &[&str] = &["\"xs\"", "\"ys\"", "\"n\"", "\"k\"", "\"s\"", "\"nope\""];
const BUILTINS: &[(&str, usize)] = &[
    ("array", 0),
    ("int_array", 0),
    ("len", 1),
    ("push", 2),
    ("abs", 1),
    ("sqrt", 1),
    ("floor", 1),
    ("min", 2),
    ("max", 2),
    ("sum", 1),
    ("int", 1),
    ("float", 1),
    ("get_f64", 1),
    ("get_i64", 1),
    ("get_int", 1),
    ("get_float", 1),
    ("get_str", 1),
    ("has", 1),
    ("emit_f64", 2),
    ("emit_i64", 2),
    ("emit_int", 2),
    ("emit_float", 2),
    ("emit_str", 2),
    ("noop", 1),
    ("pow", 2),
];
const BINOPS: &[&str] = &["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">=", "&&", "||"];

fn lit(g: &mut Gen) -> String {
    match g.below(9) {
        0 => format!("{}", g.below(12)),
        1 => "9223372036854775807".to_string(),
        2 => ["0.0", "1.5", "2.5", "0.25", "1.0e300"][g.below(5)].to_string(),
        3 => "(0.0 / 0.0)".to_string(),
        4 => "(1.0 / 0.0)".to_string(),
        5 => "(-0.0)".to_string(),
        6 => ["true", "false"][g.below(2)].to_string(),
        7 => g.pick(FIELDS).to_string(),
        _ => format!("{}", g.below(4)),
    }
}

fn expr(g: &mut Gen, depth: usize) -> String {
    if depth == 0 {
        return match g.below(3) {
            0 => lit(g),
            1 => g.pick(SCALARS).to_string(),
            _ => g.pick(ARRAYS).to_string(),
        };
    }
    let d = depth - 1;
    match g.below(8) {
        0 => lit(g),
        1 => g.pick(SCALARS).to_string(),
        2 | 3 => format!("({} {} {})", expr(g, d), g.pick(BINOPS), expr(g, d)),
        4 => format!("({}{})", ["-", "!"][g.below(2)], expr(g, d)),
        5 => {
            let arr = if g.one_in(6) { g.pick(SCALARS) } else { g.pick(ARRAYS) };
            format!("{arr}[{}]", expr(g, d))
        }
        _ => call(g, d),
    }
}

fn call(g: &mut Gen, depth: usize) -> String {
    let (name, arity) = BUILTINS[g.below(BUILTINS.len())];
    let arity = if g.one_in(10) { g.below(3) } else { arity };
    let args: Vec<String> = (0..arity)
        .map(|k| {
            // Names and arrays where the builtin wants them, mostly.
            let wants_name = name.starts_with("get_") || name.starts_with("emit_") || name == "has";
            let wants_array = matches!(name, "len" | "sum" | "push") && k == 0
                || matches!(name, "emit_f64" | "emit_i64") && k == 1;
            if k == 0 && wants_name && !g.one_in(8) {
                g.pick(FIELDS).to_string()
            } else if wants_array && !g.one_in(8) {
                g.pick(ARRAYS).to_string()
            } else {
                expr(g, depth)
            }
        })
        .collect();
    format!("{name}({})", args.join(", "))
}

/// A predicate/value over the column loop's `x`, `i` and `xs[i]`.
fn column_expr(g: &mut Gen, depth: usize, boolean: bool) -> String {
    if boolean {
        return match g.below(if depth == 0 { 2 } else { 5 }) {
            0 | 1 => format!(
                "({} {} {})",
                column_expr(g, depth.saturating_sub(1), false),
                g.pick(&["<", "<=", ">", ">=", "==", "!="]),
                column_expr(g, depth.saturating_sub(1), false)
            ),
            2 => format!(
                "({} && {})",
                column_expr(g, depth - 1, true),
                column_expr(g, depth - 1, true)
            ),
            3 => format!(
                "({} || {})",
                column_expr(g, depth - 1, true),
                column_expr(g, depth - 1, true)
            ),
            _ => format!("(!{})", column_expr(g, depth - 1, true)),
        };
    }
    if depth == 0 || g.one_in(3) {
        return match g.below(6) {
            0 => "x".to_string(),
            1 => "i".to_string(),
            2 => "xs[i]".to_string(),
            3 => format!("{}", g.below(5)),
            4 => format!("{}.5", g.below(5)),
            // Accumulators, and occasionally something the typed loop
            // must refuse.
            _ => ["b", "b", "true", "a", "fo[i]", "(0.0 / 0.0)"][g.below(6)].to_string(),
        };
    }
    let d = depth - 1;
    match g.below(5) {
        0 | 1 => format!(
            "({} {} {})",
            column_expr(g, d, false),
            g.pick(&["+", "-", "*", "/", "%"]),
            column_expr(g, d, false)
        ),
        2 => format!("(-{})", column_expr(g, d, false)),
        3 => {
            let f = g.pick(&["abs", "sqrt", "floor", "int", "float"]);
            format!("{f}({})", column_expr(g, d, false))
        }
        _ => {
            let f = g.pick(&["min", "max", "pow"]);
            format!("{f}({}, {})", column_expr(g, d, false), column_expr(g, d, false))
        }
    }
}

/// A loop in (or deliberately near) the typed column-loop shape.
fn column_loop(g: &mut Gen) -> String {
    let start = ["0", "0", "1", "(0 - 1)", "0.5", "len(xs)"][g.below(6)];
    let end = ["len(xs)", "len(xs)", "len(xs) + 1", "2", "len(fo)", "true"][g.below(6)];
    let src = if g.one_in(6) { "fo" } else { "xs" };
    let out = ["fo", "fo", "fo", "io", "xs", "a"][g.below(6)];
    let bind = if g.one_in(2) { format!("let x = {src}[i]; ") } else { String::new() };
    let value = column_expr(g, 2, false).replace("xs[", &format!("{src}["));
    let push = if g.one_in(3) {
        format!("push({out}, {value});")
    } else {
        let pred = column_expr(g, 2, true).replace("xs[", &format!("{src}["));
        format!("if {pred} {{ push({out}, {value}); }}")
    };
    // Reductions: float accumulators updated before and/or after the push
    // (`b` starts as a float; `a` and `c` do not, so they must fall back).
    let mut body = vec![push];
    for _ in 0..g.below(3) {
        let acc = ["b", "b", "b", "a", "c"][g.below(5)];
        let update = format!("{acc} = {};", column_expr(g, 2, false));
        if g.one_in(2) {
            body.insert(0, update);
        } else {
            body.push(update);
        }
    }
    if g.one_in(4) {
        body.retain(|s| !s.contains("push("));
    }
    format!("for i in {start}..{end} {{ {bind}{} }}", body.join(" "))
}

fn block(g: &mut Gen, depth: usize, len: usize) -> String {
    (0..len).map(|_| stmt(g, depth)).collect::<Vec<_>>().join("\n")
}

fn stmt(g: &mut Gen, depth: usize) -> String {
    let d = depth.saturating_sub(1);
    let choice = if depth == 0 { g.below(4) } else { g.below(10) };
    match choice {
        0 => format!("{} = {};", g.pick(SCALARS), expr(g, 2)),
        1 => {
            let arr = if g.one_in(6) { g.pick(SCALARS) } else { g.pick(&["fo", "io", "xs"]) };
            format!("{arr}[{}] = {};", expr(g, 1), expr(g, 2))
        }
        2 => format!("{};", call(g, 1)),
        3 => format!("let {} = {};", g.pick(SCALARS), expr(g, 2)),
        4 => {
            let els =
                if g.one_in(2) { format!(" else {{ {} }}", block(g, d, 2)) } else { String::new() };
            format!("if {} {{ {} }}{els}", expr(g, 2), block(g, d, 2))
        }
        5 => format!("while {} {{ {} j = j + 1; }}", expr(g, 2), block(g, d, 2)),
        6 => format!("for i in {}..{} {{ {} }}", expr(g, 1), expr(g, 1), block(g, d, 2)),
        7 | 8 => column_loop(g),
        _ => {
            if g.one_in(3) {
                "return;".to_string()
            } else {
                format!("push({}, {});", g.pick(ARRAYS), expr(g, 1))
            }
        }
    }
}

fn program(g: &mut Gen) -> String {
    let prelude = "let a = 1; let b = 2.5; let c = true; let i = 0; let j = 0; let x = 0.0;\n\
                   let xs = get_f64(\"xs\"); let fo = array(); let io = int_array();\n";
    let len = 1 + g.below(6);
    let body = block(g, 2, len);
    let tail = match g.below(3) {
        0 => "emit_f64(\"fo\", fo); emit_i64(\"io\", io); emit_int(\"n_out\", len(fo));",
        1 => "emit_f64(\"xs\", xs); emit_float(\"b\", float(b));",
        _ => "",
    };
    format!("{prelude}{body}\n{tail}")
}

fn input(g: &mut Gen) -> Record {
    let mut r = Record::new();
    if !g.one_in(10) {
        r.set("xs", FieldValue::F64Array(g.f64s(12)));
    }
    if g.one_in(2) {
        let ys: Vec<i64> = (0..g.below(6)).map(|_| g.below(20) as i64 - 5).collect();
        if g.one_in(2) {
            r.set("ys", FieldValue::I64Array(ys));
        } else {
            r.set("ys", FieldValue::U64Array(ys.iter().map(|&v| v as u64).collect()));
        }
    }
    if g.one_in(2) {
        r.set("n", if g.one_in(2) { FieldValue::I64(-3) } else { FieldValue::U64(u64::MAX) });
    }
    if g.one_in(2) {
        r.set("k", FieldValue::F64(g.special_f64()));
    }
    if g.one_in(3) {
        r.set("s", FieldValue::Str("tag".into()));
    }
    r
}

proptest! {
    /// Random programs over the whole language, on random inputs.
    #[test]
    fn random_programs_match_the_interpreter(seed in any::<u64>()) {
        let mut g = Gen(seed);
        for _ in 0..24 {
            let src = program(&mut g);
            let code = Codelet::compile(&src)
                .unwrap_or_else(|e| panic!("generated source must compile: {e}\n{src}"));
            for _ in 0..3 {
                check(&code, &input(&mut g), &src);
            }
            // A lone column also exercises the borrowed-column entry point.
            check(&code, &Record::new().with("xs", FieldValue::F64Array(g.f64s(20))), &src);
        }
    }

    /// Every stock plug-in, on random columns including the IEEE specials.
    #[test]
    fn stock_plugins_match_the_interpreter(seed in any::<u64>()) {
        let mut g = Gen(seed);
        // Plug-in parameters are spliced in with `Display`, so keep them
        // to values that print as float literals.
        let mut param = || (g.below(2001) as f64 - 1000.0) / 16.0 + 0.5;
        let (lo, hi) = (param(), param());
        let sources = [
            codelet::plugins::sampling("v", 1 + g.below(5)),
            codelet::plugins::bounding_box("v", lo.min(hi), lo.max(hi)),
            codelet::plugins::unit_conversion("v", [0.5, -2.0, 100.0, 0.0][g.below(4)]),
            codelet::plugins::annotate("v", "run-7"),
            codelet::plugins::summarize("v"),
        ];
        for src in &sources {
            let code = Codelet::compile(src).expect("stock plug-in compiles");
            let data = g.f64s(40);
            let used = check(&code, &Record::new().with("v", FieldValue::F64Array(data)), src);
            prop_assert!(used.is_some(), "stock plug-ins finish within the budget");
            // Wrong dtype and absent column fail identically too.
            check(&code, &Record::new().with("v", FieldValue::U64Array(vec![1, 2])), src);
            check(&code, &Record::new(), src);
        }
    }

    /// The pushdown planner's lowered filters over random plans.
    #[test]
    fn pushdown_filters_match_the_interpreter(seed in any::<u64>()) {
        use flexio_query::{lower_pushdown, Expr, Plan};
        fn num(g: &mut Gen, depth: usize) -> Expr {
            if depth == 0 || g.one_in(3) {
                return if g.one_in(2) {
                    Expr::col("v")
                } else {
                    Expr::lit((g.below(401) as f64 - 200.0) / 20.0)
                };
            }
            let (a, b) = (num(g, depth - 1), num(g, depth - 1));
            match g.below(4) {
                0 => a.add(b),
                1 => a.sub(b),
                2 => a.mul(b),
                _ => a.div(b),
            }
        }
        fn pred(g: &mut Gen, depth: usize) -> Expr {
            if depth == 0 || g.one_in(3) {
                let (a, b) = (num(g, 2), num(g, 2));
                return match g.below(6) {
                    0 => a.lt(b),
                    1 => a.le(b),
                    2 => a.gt(b),
                    3 => a.ge(b),
                    4 => a.eq(b),
                    _ => a.ne(b),
                };
            }
            match g.below(3) {
                0 => pred(g, depth - 1).and(pred(g, depth - 1)),
                1 => pred(g, depth - 1).or(pred(g, depth - 1)),
                _ => pred(g, depth - 1).not(),
            }
        }
        let mut g = Gen(seed);
        for _ in 0..8 {
            let plan = Plan::select(&["v"]).filter(pred(&mut g, 3));
            let lowered = lower_pushdown(&plan).expect("single-variable finite filter lowers");
            let code = Codelet::compile(&lowered.source).expect("lowered source compiles");
            let data = g.f64s(40);
            let used =
                check(&code, &Record::new().with("v", FieldValue::F64Array(data)), &lowered.source);
            prop_assert!(used.is_some(), "pushdown filters finish within the budget");
        }
    }
}

#[test]
fn budget_sweep_covers_every_boundary_of_a_column_kernel() {
    // Exhaustively, not just at the four sweep points: every budget from 0
    // to one past the exact count must agree, which pins the per-iteration
    // charge of the typed loop (including short-circuit right-hand sides).
    let code = Codelet::compile(&codelet::plugins::bounding_box("v", 0.0, 1.0)).unwrap();
    let input = Record::new()
        .with("v", FieldValue::F64Array(vec![0.5, -1.0, f64::NAN, 2.0, 1.0, -0.0, 0.25]));
    let (_, used) = vm::execute_counted(code.program(), &input, u64::MAX);
    for budget in 0..=used + 1 {
        let oracle = vm::execute(code.program(), &input, budget);
        assert!(same(&code.run_budgeted(&input, budget), &oracle), "budget {budget}");
    }
}
