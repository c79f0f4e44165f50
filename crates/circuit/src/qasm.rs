//! OpenQASM 2.0 parser.
//!
//! Parses the subset of OpenQASM 2.0 used by QASMBench and MQT Bench into a
//! [`Circuit`]: register declarations, the built-in `U`/`CX` operations, the
//! `qelib1.inc` standard gates, user `gate` definitions (expanded inline),
//! register broadcasting, and constant parameter expressions. `measure`,
//! `barrier`, and `reset` are accepted and ignored (the simulators in this
//! workspace are strong/full-state simulators); `if` statements are rejected.

use crate::circuit::Circuit;
use crate::gate::{Gate, GateKind};
use std::collections::HashMap;
use std::fmt;

/// Parse error with 1-based line information.
#[derive(Debug, Clone, PartialEq)]
pub struct QasmError {
    /// What went wrong.
    pub message: String,
    /// 1-based source line.
    pub line: usize,
}

impl fmt::Display for QasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "QASM error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for QasmError {}

type Result<T> = std::result::Result<T, QasmError>;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Number(f64),
    Str(String),
    Sym(char),
    Arrow, // ->
    Eq,    // ==
}

#[derive(Debug, Clone)]
struct SpannedTok {
    tok: Tok,
    line: usize,
}

fn lex(src: &str) -> Result<Vec<SpannedTok>> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '/' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '*' => {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == '*' && bytes[i + 1] == '/') {
                    if bytes[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i = (i + 2).min(bytes.len());
            }
            '"' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] != '"' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(QasmError {
                        message: "unterminated string".into(),
                        line,
                    });
                }
                toks.push(SpannedTok {
                    tok: Tok::Str(bytes[start..j].iter().collect()),
                    line,
                });
                i = j + 1;
            }
            '-' if i + 1 < bytes.len() && bytes[i + 1] == '>' => {
                toks.push(SpannedTok {
                    tok: Tok::Arrow,
                    line,
                });
                i += 2;
            }
            '=' if i + 1 < bytes.len() && bytes[i + 1] == '=' => {
                toks.push(SpannedTok { tok: Tok::Eq, line });
                i += 2;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                toks.push(SpannedTok {
                    tok: Tok::Ident(bytes[start..i].iter().collect()),
                    line,
                });
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == '.'
                        || bytes[i] == 'e'
                        || bytes[i] == 'E'
                        || ((bytes[i] == '+' || bytes[i] == '-')
                            && (bytes[i - 1] == 'e' || bytes[i - 1] == 'E')))
                {
                    i += 1;
                }
                let text: String = bytes[start..i].iter().collect();
                let v: f64 = text.parse().map_err(|_| QasmError {
                    message: format!("bad number `{text}`"),
                    line,
                })?;
                toks.push(SpannedTok {
                    tok: Tok::Number(v),
                    line,
                });
            }
            '{' | '}' | '(' | ')' | '[' | ']' | ';' | ',' | '+' | '-' | '*' | '/' | '^' => {
                toks.push(SpannedTok {
                    tok: Tok::Sym(c),
                    line,
                });
                i += 1;
            }
            other => {
                return Err(QasmError {
                    message: format!("unexpected character `{other}`"),
                    line,
                })
            }
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

/// A constant arithmetic expression over gate parameters.
#[derive(Debug, Clone, PartialEq)]
enum Expr {
    Num(f64),
    Pi,
    Param(String),
    Neg(Box<Expr>),
    Bin(char, Box<Expr>, Box<Expr>),
    Fun(String, Box<Expr>),
}

impl Expr {
    /// The value of a gate parameter: [`Self::eval`], refused unless it is
    /// finite (an infinity on the way that ends finite, as in `1/(1/0)`,
    /// is fine). A NaN angle builds a NaN gate matrix, which the engines
    /// would carry into every amplitude.
    fn eval_param(&self, env: &HashMap<String, f64>, line: usize) -> Result<f64> {
        match self.eval(env, line)? {
            v if v.is_finite() => Ok(v),
            v => Err(QasmError {
                message: format!("gate parameter evaluates to {v}"),
                line,
            }),
        }
    }

    fn eval(&self, env: &HashMap<String, f64>, line: usize) -> Result<f64> {
        Ok(match self {
            Expr::Num(v) => *v,
            Expr::Pi => std::f64::consts::PI,
            Expr::Param(name) => *env.get(name).ok_or_else(|| QasmError {
                message: format!("unknown parameter `{name}`"),
                line,
            })?,
            Expr::Neg(e) => -e.eval(env, line)?,
            Expr::Bin(op, a, b) => {
                let (a, b) = (a.eval(env, line)?, b.eval(env, line)?);
                match op {
                    '+' => a + b,
                    '-' => a - b,
                    '*' => a * b,
                    '/' => a / b,
                    '^' => a.powf(b),
                    _ => unreachable!(),
                }
            }
            Expr::Fun(name, e) => {
                let v = e.eval(env, line)?;
                match name.as_str() {
                    "sin" => v.sin(),
                    "cos" => v.cos(),
                    "tan" => v.tan(),
                    "exp" => v.exp(),
                    "ln" => v.ln(),
                    "sqrt" => v.sqrt(),
                    other => {
                        return Err(QasmError {
                            message: format!("unknown function `{other}`"),
                            line,
                        })
                    }
                }
            }
        })
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// A user-defined gate macro.
#[derive(Debug, Clone)]
struct GateDef {
    params: Vec<String>,
    qargs: Vec<String>,
    body: Vec<GateCall>,
}

/// One statement inside a gate body or the main program.
#[derive(Debug, Clone)]
struct GateCall {
    name: String,
    params: Vec<Expr>,
    /// Operands: symbolic (inside gate bodies) or concrete register refs.
    args: Vec<Operand>,
    line: usize,
}

#[derive(Debug, Clone)]
enum Operand {
    /// `name` (whole register, or a gate-body formal argument).
    Name(String),
    /// `name[idx]`.
    Indexed(String, usize),
}

/// Maximum recursion frames while parsing one parameter expression. The
/// expression grammar is recursive-descent; without a cap, a file like
/// `(((((...1...)))))` recurses per paren and overflows the stack instead
/// of returning a `QasmError`. Each nesting level costs ~3 frames
/// (expr -> pow -> unary), so 1024 frames ≈ 340 parens — far beyond any
/// angle expression seen in practice, far below stack exhaustion.
const MAX_EXPR_DEPTH: usize = 1024;

struct Parser {
    toks: Vec<SpannedTok>,
    pos: usize,
    expr_depth: usize,
}

impl Parser {
    fn line(&self) -> usize {
        self.toks
            .get(self.pos)
            .map(|t| t.line)
            .unwrap_or_else(|| self.toks.last().map(|t| t.line).unwrap_or(1))
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.tok.clone());
        self.pos += 1;
        t
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T> {
        Err(QasmError {
            message: msg.into(),
            line: self.line(),
        })
    }

    fn expect_sym(&mut self, c: char) -> Result<()> {
        match self.next() {
            Some(Tok::Sym(s)) if s == c => Ok(()),
            other => {
                self.pos -= 1;
                self.err(format!("expected `{c}`, found {other:?}"))
            }
        }
    }

    fn expect_ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => {
                self.pos -= 1;
                self.err(format!("expected identifier, found {other:?}"))
            }
        }
    }

    fn eat_sym(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Sym(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Bumps the expression-recursion depth, erroring out (rather than
    /// overflowing the stack) on pathologically nested input. Every
    /// recursive production pairs this with a `leave_expr`.
    fn enter_expr(&mut self) -> Result<()> {
        if self.expr_depth >= MAX_EXPR_DEPTH {
            return self.err("parameter expression nested too deeply");
        }
        self.expr_depth += 1;
        Ok(())
    }

    fn leave_expr(&mut self) {
        self.expr_depth -= 1;
    }

    // expr := term (('+'|'-') term)*
    fn parse_expr(&mut self) -> Result<Expr> {
        self.enter_expr()?;
        let r = self.parse_expr_inner();
        self.leave_expr();
        r
    }

    fn parse_expr_inner(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_term()?;
        loop {
            if self.eat_sym('+') {
                lhs = Expr::Bin('+', Box::new(lhs), Box::new(self.parse_term()?));
            } else if self.eat_sym('-') {
                lhs = Expr::Bin('-', Box::new(lhs), Box::new(self.parse_term()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    // term := factor (('*'|'/') factor)*
    fn parse_term(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_pow()?;
        loop {
            if self.eat_sym('*') {
                lhs = Expr::Bin('*', Box::new(lhs), Box::new(self.parse_pow()?));
            } else if self.eat_sym('/') {
                lhs = Expr::Bin('/', Box::new(lhs), Box::new(self.parse_pow()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    // pow := unary ('^' pow)?   (right associative)
    fn parse_pow(&mut self) -> Result<Expr> {
        self.enter_expr()?;
        let r = self.parse_pow_inner();
        self.leave_expr();
        r
    }

    fn parse_pow_inner(&mut self) -> Result<Expr> {
        let base = self.parse_unary()?;
        if self.eat_sym('^') {
            Ok(Expr::Bin('^', Box::new(base), Box::new(self.parse_pow()?)))
        } else {
            Ok(base)
        }
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        self.enter_expr()?;
        let r = self.parse_unary_inner();
        self.leave_expr();
        r
    }

    fn parse_unary_inner(&mut self) -> Result<Expr> {
        if self.eat_sym('-') {
            return Ok(Expr::Neg(Box::new(self.parse_unary()?)));
        }
        if self.eat_sym('+') {
            return self.parse_unary();
        }
        match self.next() {
            Some(Tok::Number(v)) => Ok(Expr::Num(v)),
            Some(Tok::Ident(name)) => {
                if name == "pi" {
                    Ok(Expr::Pi)
                } else if self.eat_sym('(') {
                    let inner = self.parse_expr()?;
                    self.expect_sym(')')?;
                    Ok(Expr::Fun(name, Box::new(inner)))
                } else {
                    Ok(Expr::Param(name))
                }
            }
            Some(Tok::Sym('(')) => {
                let inner = self.parse_expr()?;
                self.expect_sym(')')?;
                Ok(inner)
            }
            other => {
                self.pos -= 1;
                self.err(format!("expected expression, found {other:?}"))
            }
        }
    }

    fn parse_operand(&mut self) -> Result<Operand> {
        let name = self.expect_ident()?;
        if self.eat_sym('[') {
            let idx = match self.next() {
                Some(Tok::Number(v)) if v >= 0.0 && v.fract() == 0.0 => v as usize,
                other => {
                    self.pos -= 1;
                    return self.err(format!("expected index, found {other:?}"));
                }
            };
            self.expect_sym(']')?;
            Ok(Operand::Indexed(name, idx))
        } else {
            Ok(Operand::Name(name))
        }
    }

    /// Parses `name(params?) arg (, arg)* ;`.
    fn parse_gate_call(&mut self, name: String) -> Result<GateCall> {
        let line = self.line();
        let mut params = Vec::new();
        if self.eat_sym('(') && !self.eat_sym(')') {
            loop {
                params.push(self.parse_expr()?);
                if self.eat_sym(')') {
                    break;
                }
                self.expect_sym(',')?;
            }
        }
        let mut args = vec![self.parse_operand()?];
        while self.eat_sym(',') {
            args.push(self.parse_operand()?);
        }
        self.expect_sym(';')?;
        Ok(GateCall {
            name,
            params,
            args,
            line,
        })
    }
}

// ---------------------------------------------------------------------------
// Builder: expand calls into primitive gates
// ---------------------------------------------------------------------------

struct Builder {
    circuit: Circuit,
    /// register name -> (offset, size)
    qregs: HashMap<String, (usize, usize)>,
    qreg_order: Vec<String>,
    gate_defs: HashMap<String, GateDef>,
    /// Count of (ignored) measurement statements, for diagnostics.
    measurements: usize,
}

impl Builder {
    /// Resolves a main-program operand to concrete qubit indices.
    fn resolve(&self, op: &Operand, line: usize) -> Result<Vec<usize>> {
        match op {
            Operand::Name(name) => {
                let &(off, size) = self.qregs.get(name).ok_or_else(|| QasmError {
                    message: format!("unknown quantum register `{name}`"),
                    line,
                })?;
                Ok((off..off + size).collect())
            }
            Operand::Indexed(name, idx) => {
                let &(off, size) = self.qregs.get(name).ok_or_else(|| QasmError {
                    message: format!("unknown quantum register `{name}`"),
                    line,
                })?;
                if *idx >= size {
                    return Err(QasmError {
                        message: format!("index {idx} out of range for `{name}[{size}]`"),
                        line,
                    });
                }
                Ok(vec![off + idx])
            }
        }
    }

    /// Emits a standard-library gate on concrete qubits.
    fn emit_builtin(
        &mut self,
        name: &str,
        params: &[f64],
        qubits: &[usize],
        line: usize,
    ) -> Result<bool> {
        let c = &mut self.circuit;
        let p = |k: usize| params.get(k).copied().unwrap_or(0.0);
        let need = |n_params: usize, n_qubits: usize| -> Result<()> {
            if params.len() != n_params || qubits.len() != n_qubits {
                Err(QasmError {
                    message: format!(
                        "`{name}` expects {n_params} params / {n_qubits} qubits, got {} / {}",
                        params.len(),
                        qubits.len()
                    ),
                    line,
                })
            } else {
                Ok(())
            }
        };
        match name {
            "U" | "u3" | "u" => {
                need(3, 1)?;
                c.u3(p(0), p(1), p(2), qubits[0]);
            }
            "u2" => {
                need(2, 1)?;
                c.u3(std::f64::consts::FRAC_PI_2, p(0), p(1), qubits[0]);
            }
            "u1" | "p" | "phase" => {
                need(1, 1)?;
                c.p(p(0), qubits[0]);
            }
            "u0" => {
                need(1, 1)?; // explicit idle: no-op
            }
            "CX" | "cx" | "cnot" => {
                need(0, 2)?;
                c.cx(qubits[0], qubits[1]);
            }
            "id" => {
                need(0, 1)?;
                c.push(Gate::new(GateKind::Id, qubits[0]));
            }
            "x" => {
                need(0, 1)?;
                c.x(qubits[0]);
            }
            "y" => {
                need(0, 1)?;
                c.y(qubits[0]);
            }
            "z" => {
                need(0, 1)?;
                c.z(qubits[0]);
            }
            "h" => {
                need(0, 1)?;
                c.h(qubits[0]);
            }
            "s" => {
                need(0, 1)?;
                c.s(qubits[0]);
            }
            "sdg" => {
                need(0, 1)?;
                c.sdg(qubits[0]);
            }
            "t" => {
                need(0, 1)?;
                c.t(qubits[0]);
            }
            "tdg" => {
                need(0, 1)?;
                c.tdg(qubits[0]);
            }
            "sx" => {
                need(0, 1)?;
                c.sx(qubits[0]);
            }
            "sxdg" => {
                need(0, 1)?;
                c.push(Gate::new(GateKind::SqrtXdg, qubits[0]));
            }
            "rx" => {
                need(1, 1)?;
                c.rx(p(0), qubits[0]);
            }
            "ry" => {
                need(1, 1)?;
                c.ry(p(0), qubits[0]);
            }
            "rz" => {
                need(1, 1)?;
                c.rz(p(0), qubits[0]);
            }
            "cy" => {
                need(0, 2)?;
                c.cy(qubits[0], qubits[1]);
            }
            "cz" => {
                need(0, 2)?;
                c.cz(qubits[0], qubits[1]);
            }
            "ch" => {
                need(0, 2)?;
                c.ch(qubits[0], qubits[1]);
            }
            "crx" => {
                need(1, 2)?;
                c.crx(p(0), qubits[0], qubits[1]);
            }
            "cry" => {
                need(1, 2)?;
                c.cry(p(0), qubits[0], qubits[1]);
            }
            "crz" => {
                need(1, 2)?;
                c.crz(p(0), qubits[0], qubits[1]);
            }
            "cu1" | "cp" => {
                need(1, 2)?;
                c.cp(p(0), qubits[0], qubits[1]);
            }
            "cu3" => {
                need(3, 2)?;
                c.cu3(p(0), p(1), p(2), qubits[0], qubits[1]);
            }
            "ccx" | "toffoli" => {
                need(0, 3)?;
                c.ccx(qubits[0], qubits[1], qubits[2]);
            }
            "ccz" => {
                need(0, 3)?;
                c.ccz(qubits[0], qubits[1], qubits[2]);
            }
            "swap" => {
                need(0, 2)?;
                c.swap(qubits[0], qubits[1]);
            }
            "cswap" | "fredkin" => {
                need(0, 3)?;
                c.cswap(qubits[0], qubits[1], qubits[2]);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Expands a gate call with concrete qubits (recursing through user
    /// definitions).
    fn expand(
        &mut self,
        name: &str,
        params: &[f64],
        qubits: &[usize],
        line: usize,
        depth: usize,
    ) -> Result<()> {
        if depth > 64 {
            return Err(QasmError {
                message: "gate expansion too deep (cycle?)".into(),
                line,
            });
        }
        // User definitions shadow the standard library, matching the spec:
        // a file that defines `gate h ...` means that definition.
        if let Some(def) = self.gate_defs.get(name).cloned() {
            if def.params.len() != params.len() || def.qargs.len() != qubits.len() {
                return Err(QasmError {
                    message: format!("arity mismatch calling gate `{name}`"),
                    line,
                });
            }
            let env: HashMap<String, f64> = def
                .params
                .iter()
                .cloned()
                .zip(params.iter().copied())
                .collect();
            let qmap: HashMap<String, usize> = def
                .qargs
                .iter()
                .cloned()
                .zip(qubits.iter().copied())
                .collect();
            for call in &def.body {
                let sub_params: Vec<f64> = call
                    .params
                    .iter()
                    .map(|e| e.eval_param(&env, call.line))
                    .collect::<Result<_>>()?;
                let sub_qubits: Vec<usize> = call
                    .args
                    .iter()
                    .map(|a| match a {
                        Operand::Name(nm) => qmap.get(nm).copied().ok_or_else(|| QasmError {
                            message: format!("unknown qubit argument `{nm}` in gate `{name}`"),
                            line: call.line,
                        }),
                        Operand::Indexed(..) => Err(QasmError {
                            message: "indexed operands are not allowed inside gate bodies".into(),
                            line: call.line,
                        }),
                    })
                    .collect::<Result<_>>()?;
                self.expand(&call.name, &sub_params, &sub_qubits, call.line, depth + 1)?;
            }
            return Ok(());
        }
        if self.emit_builtin(name, params, qubits, line)? {
            return Ok(());
        }
        Err(QasmError {
            message: format!("unknown gate `{name}`"),
            line,
        })
    }
}

/// Parses OpenQASM 2.0 source into a [`Circuit`].
///
/// Returns the circuit and the number of (ignored) `measure` statements.
pub fn parse_qasm(src: &str) -> std::result::Result<Circuit, QasmError> {
    parse_qasm_full(src).map(|(c, _)| c)
}

/// Like [`parse_qasm`] but also reports the ignored measurement count.
pub fn parse_qasm_full(src: &str) -> std::result::Result<(Circuit, usize), QasmError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        expr_depth: 0,
    };
    // First pass: collect register declarations and gate defs while building.
    let mut calls: Vec<GateCall> = Vec::new();
    let mut b = Builder {
        circuit: Circuit::new(0),
        qregs: HashMap::new(),
        qreg_order: Vec::new(),
        gate_defs: HashMap::new(),
        measurements: 0,
    };
    let mut total_qubits = 0usize;

    while let Some(tok) = p.peek().cloned() {
        match tok {
            Tok::Ident(kw) if kw == "OPENQASM" => {
                p.next();
                match p.next() {
                    Some(Tok::Number(_)) => {}
                    _ => {
                        return Err(QasmError {
                            message: "bad OPENQASM header".into(),
                            line: p.line(),
                        })
                    }
                }
                p.expect_sym(';')?;
            }
            Tok::Ident(kw) if kw == "include" => {
                p.next();
                match p.next() {
                    Some(Tok::Str(_)) => {}
                    _ => {
                        return Err(QasmError {
                            message: "include expects a string".into(),
                            line: p.line(),
                        })
                    }
                }
                p.expect_sym(';')?;
            }
            Tok::Ident(kw) if kw == "qreg" || kw == "creg" => {
                p.next();
                let name = p.expect_ident()?;
                p.expect_sym('[')?;
                let size = match p.next() {
                    Some(Tok::Number(v)) if v >= 1.0 && v.fract() == 0.0 => v as usize,
                    _ => {
                        return Err(QasmError {
                            message: "register size must be a positive integer".into(),
                            line: p.line(),
                        })
                    }
                };
                p.expect_sym(']')?;
                p.expect_sym(';')?;
                if kw == "qreg" {
                    if b.qregs.contains_key(&name) {
                        return Err(QasmError {
                            message: format!("duplicate register `{name}`"),
                            line: p.line(),
                        });
                    }
                    b.qregs.insert(name.clone(), (total_qubits, size));
                    b.qreg_order.push(name);
                    total_qubits += size;
                }
                // cregs are parsed and dropped: measurement results are not
                // modelled by a strong simulator.
            }
            Tok::Ident(kw) if kw == "gate" => {
                p.next();
                let name = p.expect_ident()?;
                let mut params = Vec::new();
                if p.eat_sym('(') && !p.eat_sym(')') {
                    loop {
                        params.push(p.expect_ident()?);
                        if p.eat_sym(')') {
                            break;
                        }
                        p.expect_sym(',')?;
                    }
                }
                let mut qargs = vec![p.expect_ident()?];
                while p.eat_sym(',') {
                    qargs.push(p.expect_ident()?);
                }
                p.expect_sym('{')?;
                let mut body = Vec::new();
                loop {
                    match p.peek() {
                        Some(Tok::Sym('}')) => {
                            p.next();
                            break;
                        }
                        Some(Tok::Ident(id)) if id == "barrier" => {
                            // skip to `;`
                            while p.next().map(|t| t != Tok::Sym(';')).unwrap_or(false) {}
                        }
                        Some(Tok::Ident(_)) => {
                            let gname = p.expect_ident()?;
                            body.push(p.parse_gate_call(gname)?);
                        }
                        other => {
                            return Err(QasmError {
                                message: format!("unexpected token in gate body: {other:?}"),
                                line: p.line(),
                            })
                        }
                    }
                }
                b.gate_defs.insert(
                    name,
                    GateDef {
                        params,
                        qargs,
                        body,
                    },
                );
            }
            Tok::Ident(kw) if kw == "opaque" => {
                return Err(QasmError {
                    message: "opaque gates are not supported".into(),
                    line: p.line(),
                });
            }
            Tok::Ident(kw) if kw == "measure" => {
                p.next();
                let _q = p.parse_operand()?;
                match p.next() {
                    Some(Tok::Arrow) => {}
                    _ => {
                        return Err(QasmError {
                            message: "measure expects `->`".into(),
                            line: p.line(),
                        })
                    }
                }
                let _c = p.parse_operand()?;
                p.expect_sym(';')?;
                b.measurements += 1;
            }
            Tok::Ident(kw) if kw == "barrier" || kw == "reset" => {
                p.next();
                // consume operands up to `;`
                while p.peek().is_some() && !p.eat_sym(';') {
                    p.next();
                }
            }
            Tok::Ident(kw) if kw == "if" => {
                return Err(QasmError {
                    message: "classically controlled operations (`if`) are not supported".into(),
                    line: p.line(),
                });
            }
            Tok::Ident(_) => {
                let name = p.expect_ident()?;
                calls.push(p.parse_gate_call(name)?);
            }
            other => {
                return Err(QasmError {
                    message: format!("unexpected token {other:?}"),
                    line: p.line(),
                })
            }
        }
    }

    b.circuit = Circuit::new(total_qubits);
    let empty_env = HashMap::new();
    for call in calls {
        let params: Vec<f64> = call
            .params
            .iter()
            .map(|e| e.eval_param(&empty_env, call.line))
            .collect::<Result<_>>()?;
        // Resolve operands; broadcast whole registers.
        let resolved: Vec<Vec<usize>> = call
            .args
            .iter()
            .map(|a| b.resolve(a, call.line))
            .collect::<Result<_>>()?;
        let broadcast = resolved.iter().map(|v| v.len()).max().unwrap_or(1);
        for rep in 0..broadcast {
            let qubits: Vec<usize> = resolved
                .iter()
                .map(|v| if v.len() == 1 { v[0] } else { v[rep] })
                .collect();
            // Validate broadcast shapes.
            for v in &resolved {
                if v.len() != 1 && v.len() != broadcast {
                    return Err(QasmError {
                        message: "mismatched register sizes in broadcast".into(),
                        line: call.line,
                    });
                }
            }
            b.expand(&call.name, &params, &qubits, call.line, 0)?;
        }
    }

    Ok((b.circuit, b.measurements))
}

/// A gate [`to_qasm`] cannot write exactly, up to global phase, in the
/// OpenQASM 2.0 this module parses: a negative control, more controls than
/// `ccx` / `ccz` take, a controlled gate with no controlled form, or an
/// explicit `Unitary` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct UnwritableGate {
    /// Index of the gate in the circuit.
    pub index: usize,
    /// The gate, as [`Gate`]'s `Display` writes it.
    pub gate: String,
}

impl fmt::Display for UnwritableGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gate {} (`{}`) has no exact OpenQASM 2.0 form",
            self.index, self.gate
        )
    }
}

impl std::error::Error for UnwritableGate {}

/// Serializes a circuit to OpenQASM 2.0 that [`parse_qasm`] reads back as
/// the same state, up to global phase: an uncontrolled gate may be written
/// as another that differs from it by a phase (`sy` as `ry(pi/2)`), a
/// controlled one only as itself. Refuses the whole circuit at the first
/// gate it cannot write that way.
pub fn to_qasm(c: &Circuit) -> std::result::Result<String, UnwritableGate> {
    use std::fmt::Write;
    let mut s = String::new();
    let _ = writeln!(s, "OPENQASM 2.0;");
    let _ = writeln!(s, "include \"qelib1.inc\";");
    let _ = writeln!(s, "qreg q[{}];", c.num_qubits());
    for (index, g) in c.iter().enumerate() {
        let unwritable = || UnwritableGate {
            index,
            gate: g.to_string(),
        };
        if g.controls.iter().any(|x| !x.positive) {
            return Err(unwritable());
        }
        let tgt = g.target;
        let ctl: Vec<usize> = g.controls.iter().map(|x| x.qubit).collect();
        let line = match (g.kind, ctl.len()) {
            (GateKind::X, 0) => format!("x q[{tgt}];"),
            (GateKind::X, 1) => format!("cx q[{}],q[{tgt}];", ctl[0]),
            (GateKind::X, 2) => format!("ccx q[{}],q[{}],q[{tgt}];", ctl[0], ctl[1]),
            (GateKind::Y, 0) => format!("y q[{tgt}];"),
            (GateKind::Y, 1) => format!("cy q[{}],q[{tgt}];", ctl[0]),
            (GateKind::Z, 0) => format!("z q[{tgt}];"),
            (GateKind::Z, 1) => format!("cz q[{}],q[{tgt}];", ctl[0]),
            (GateKind::Z, 2) => format!("ccz q[{}],q[{}],q[{tgt}];", ctl[0], ctl[1]),
            (GateKind::H, 0) => format!("h q[{tgt}];"),
            (GateKind::H, 1) => format!("ch q[{}],q[{tgt}];", ctl[0]),
            (GateKind::S, 0) => format!("s q[{tgt}];"),
            (GateKind::Sdg, 0) => format!("sdg q[{tgt}];"),
            (GateKind::T, 0) => format!("t q[{tgt}];"),
            (GateKind::Tdg, 0) => format!("tdg q[{tgt}];"),
            (GateKind::SqrtX, 0) => format!("sx q[{tgt}];"),
            (GateKind::SqrtXdg, 0) => format!("sxdg q[{tgt}];"),
            // e^{i pi/4} RY(pi/2), e^{-i pi/4} RY(-pi/2), e^{i pi/4} U3.
            (GateKind::SqrtY, 0) => format!("ry(pi/2) q[{tgt}];"),
            (GateKind::SqrtYdg, 0) => format!("ry(-pi/2) q[{tgt}];"),
            (GateKind::SqrtW, 0) => format!("u3(pi/2,-pi/4,pi/4) q[{tgt}];"),
            (GateKind::RX(t), 0) => format!("rx({t}) q[{tgt}];"),
            (GateKind::RY(t), 0) => format!("ry({t}) q[{tgt}];"),
            (GateKind::RZ(t), 0) => format!("rz({t}) q[{tgt}];"),
            (GateKind::RX(t), 1) => format!("crx({t}) q[{}],q[{tgt}];", ctl[0]),
            (GateKind::RY(t), 1) => format!("cry({t}) q[{}],q[{tgt}];", ctl[0]),
            (GateKind::RZ(t), 1) => format!("crz({t}) q[{}],q[{tgt}];", ctl[0]),
            (GateKind::Phase(l), 0) => format!("u1({l}) q[{tgt}];"),
            (GateKind::Phase(l), 1) => format!("cu1({l}) q[{}],q[{tgt}];", ctl[0]),
            (GateKind::U(a, bb, cc), 0) => format!("u3({a},{bb},{cc}) q[{tgt}];"),
            (GateKind::U(a, bb, cc), 1) => {
                format!("cu3({a},{bb},{cc}) q[{}],q[{tgt}];", ctl[0])
            }
            (GateKind::Id, 0) => format!("id q[{tgt}];"),
            _ => return Err(unwritable()),
        };
        let _ = writeln!(s, "{line}");
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::state_distance_up_to_phase;
    use crate::dense::simulate;
    use crate::generators;

    #[test]
    fn parses_bell_pair() {
        let src = r#"
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[2];
            creg c[2];
            h q[0];
            cx q[0],q[1];
            measure q[0] -> c[0];
            measure q[1] -> c[1];
        "#;
        let (c, measures) = parse_qasm_full(src).unwrap();
        assert_eq!(c.num_qubits(), 2);
        assert_eq!(c.num_gates(), 2);
        assert_eq!(measures, 2);
    }

    #[test]
    fn register_broadcast() {
        let src = "qreg q[3]; h q;";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.num_gates(), 3);
    }

    #[test]
    fn two_register_layout() {
        let src = "qreg a[2]; qreg b[2]; cx a[1],b[0];";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.num_qubits(), 4);
        let g = &c.gates()[0];
        assert_eq!(g.controls[0].qubit, 1);
        assert_eq!(g.target, 2);
    }

    #[test]
    fn parameter_expressions() {
        let src = "qreg q[1]; rz(pi/2) q[0]; rx(-pi) q[0]; ry(2*pi/4 + 0.5) q[0]; u1(pi^2) q[0];";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.num_gates(), 4);
        match c.gates()[0].kind {
            GateKind::RZ(t) => assert!((t - std::f64::consts::FRAC_PI_2).abs() < 1e-14),
            ref k => panic!("wrong kind {k:?}"),
        }
        match c.gates()[2].kind {
            GateKind::RY(t) => assert!((t - (std::f64::consts::FRAC_PI_2 + 0.5)).abs() < 1e-14),
            ref k => panic!("wrong kind {k:?}"),
        }
        match c.gates()[3].kind {
            GateKind::Phase(t) => {
                assert!((t - std::f64::consts::PI * std::f64::consts::PI).abs() < 1e-12)
            }
            ref k => panic!("wrong kind {k:?}"),
        }
    }

    #[test]
    fn custom_gate_definition_expands() {
        let src = r#"
            OPENQASM 2.0;
            qreg q[2];
            gate bell a, b { h a; cx a, b; }
            bell q[0], q[1];
        "#;
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.gates()[0].kind, GateKind::H);
    }

    #[test]
    fn parameterized_custom_gate() {
        let src = r#"
            qreg q[1];
            gate wiggle(theta) a { ry(theta/2) a; rz(-theta) a; }
            wiggle(pi) q[0];
        "#;
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.num_gates(), 2);
        match c.gates()[0].kind {
            GateKind::RY(t) => assert!((t - std::f64::consts::FRAC_PI_2).abs() < 1e-14),
            ref k => panic!("{k:?}"),
        }
    }

    #[test]
    fn nested_custom_gates() {
        let src = r#"
            qreg q[2];
            gate inner a { h a; }
            gate outer a, b { inner a; cx a, b; inner b; }
            outer q[0], q[1];
        "#;
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.num_gates(), 3);
    }

    #[test]
    fn comments_and_whitespace() {
        let src = "// leading\nqreg q[1]; /* block\ncomment */ x q[0]; // trailing";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.num_gates(), 1);
    }

    #[test]
    fn barrier_and_reset_are_ignored() {
        let src = "qreg q[2]; h q[0]; barrier q; reset q[1]; x q[1];";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.num_gates(), 2);
    }

    #[test]
    fn error_reports_line() {
        let src = "qreg q[1];\nx q[5];";
        let err = parse_qasm(src).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn unknown_gate_is_an_error() {
        let err = parse_qasm("qreg q[1]; frobnicate q[0];").unwrap_err();
        assert!(err.message.contains("unknown gate"));
    }

    #[test]
    fn if_is_rejected() {
        let err = parse_qasm("qreg q[1]; creg c[1]; if (c==1) x q[0];").unwrap_err();
        assert!(err.message.contains("not supported"));
    }

    #[test]
    fn ccx_swap_cswap() {
        let src = "qreg q[3]; ccx q[0],q[1],q[2]; swap q[0],q[1]; cswap q[2],q[0],q[1];";
        let c = parse_qasm(src).unwrap();
        // ccx = 1 gate, swap = 3 CX, cswap = 3 gates
        assert_eq!(c.num_gates(), 1 + 3 + 3);
    }

    #[test]
    fn round_trip_ghz_through_qasm() {
        let orig = generators::ghz(5);
        let qasm = to_qasm(&orig).unwrap();
        let parsed = parse_qasm(&qasm).unwrap();
        let a = simulate(&orig);
        let b = simulate(&parsed);
        assert!(state_distance_up_to_phase(&a, &b) < 1e-10);
    }

    #[test]
    fn every_written_kind_round_trips_up_to_global_phase() {
        use crate::gate::Control;
        use GateKind::*;
        for kind in [
            Id,
            X,
            Y,
            Z,
            H,
            S,
            Sdg,
            T,
            Tdg,
            SqrtX,
            SqrtXdg,
            SqrtY,
            SqrtYdg,
            SqrtW,
            RX(0.3),
            RY(0.7),
            RZ(1.1),
            Phase(0.9),
            U(0.4, 0.5, 0.6),
        ] {
            // On a state with every amplitude non-zero, so a phase error
            // anywhere in the matrix shows.
            let mut c = Circuit::new(2);
            c.ry(0.4, 0).t(0).ry(1.3, 1).s(1);
            c.push(Gate::new(kind, 0));
            let parsed = parse_qasm(&to_qasm(&c).unwrap()).unwrap();
            let d = state_distance_up_to_phase(&simulate(&c), &simulate(&parsed));
            assert!(d < 1e-12, "{kind:?}: {d:e}");
        }
        // A negative control has no line; the error names the gate.
        let mut c = Circuit::new(2);
        c.h(0).push(Gate::controlled(X, 1, vec![Control::neg(0)]));
        let e = to_qasm(&c).unwrap_err();
        assert_eq!(e.index, 1, "{e}");
    }

    #[test]
    fn round_trip_random_circuit_through_qasm() {
        let orig = generators::random_circuit(5, 60, 99);
        let qasm = to_qasm(&orig).unwrap();
        let parsed = parse_qasm(&qasm).unwrap();
        let a = simulate(&orig);
        let b = simulate(&parsed);
        assert!(state_distance_up_to_phase(&a, &b) < 1e-9);
    }

    #[test]
    fn u2_matches_definition() {
        let src = "qreg q[1]; u2(0, pi) q[0];"; // u2(0,pi) = H
        let c = parse_qasm(src).unwrap();
        let v = simulate(&c);
        assert!((v[0].re - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn scientific_notation_numbers() {
        let src = "qreg q[1]; rz(1.5e-3) q[0]; rx(2E2) q[0];";
        let c = parse_qasm(src).unwrap();
        match c.gates()[0].kind {
            GateKind::RZ(t) => assert!((t - 1.5e-3).abs() < 1e-18),
            ref k => panic!("{k:?}"),
        }
        match c.gates()[1].kind {
            GateKind::RX(t) => assert!((t - 200.0).abs() < 1e-12),
            ref k => panic!("{k:?}"),
        }
    }

    #[test]
    fn functions_in_expressions() {
        let src = "qreg q[1]; rz(cos(0)) q[0]; ry(sqrt(4)) q[0];";
        let c = parse_qasm(src).unwrap();
        match c.gates()[0].kind {
            GateKind::RZ(t) => assert!((t - 1.0).abs() < 1e-14),
            ref k => panic!("{k:?}"),
        }
        match c.gates()[1].kind {
            GateKind::RY(t) => assert!((t - 2.0).abs() < 1e-14),
            ref k => panic!("{k:?}"),
        }
    }
}
