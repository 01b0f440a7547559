//! A parser for a small structural/behavioural Verilog subset.
//!
//! The paper's flow starts from "specifications at the logic level, e.g.,
//! provided by gate-level Verilog or similar files" (Section 4.2). This
//! module accepts the combinational subset needed for such specifications:
//!
//! ```verilog
//! module mux21 (a, b, s, f);
//!   input a, b, s;
//!   output f;
//!   wire t;
//!   assign t = s ? b : a;
//!   assign f = t | (a & b);
//! endmodule
//! ```
//!
//! Supported expression operators, loosest binding first: `?:`, `|`, `^`,
//! `&`, unary `~`, parentheses, identifiers, and the constants `1'b0` /
//! `1'b1`. Wires may be assigned in any order as long as the definitions
//! are acyclic.

use crate::network::{Signal, Xag};
use std::collections::HashMap;

/// An error encountered while parsing a Verilog specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseVerilogError {
    /// Human-readable description.
    pub(crate) message: String,
}

impl ParseVerilogError {
    fn new(message: impl Into<String>) -> Self {
        ParseVerilogError {
            message: message.into(),
        }
    }
}

impl core::fmt::Display for ParseVerilogError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "verilog parse error: {}", self.message)
    }
}

impl std::error::Error for ParseVerilogError {}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    Ident(String),
    Const(bool),
    Symbol(char),
    Keyword(&'static str),
}

const KEYWORDS: [&str; 7] = [
    "module",
    "endmodule",
    "input",
    "output",
    "wire",
    "assign",
    "inout",
];

fn tokenize(src: &str) -> Result<Vec<Token>, ParseVerilogError> {
    let mut tokens = Vec::new();
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            c if c.is_whitespace() => {
                chars.next();
            }
            '/' => {
                chars.next();
                match chars.peek() {
                    Some('/') => {
                        for c in chars.by_ref() {
                            if c == '\n' {
                                break;
                            }
                        }
                    }
                    Some('*') => {
                        chars.next();
                        let mut prev = ' ';
                        loop {
                            match chars.next() {
                                Some('/') if prev == '*' => break,
                                Some(c) => prev = c,
                                None => {
                                    return Err(ParseVerilogError::new(
                                        "unterminated block comment",
                                    ))
                                }
                            }
                        }
                    }
                    _ => return Err(ParseVerilogError::new("stray '/'")),
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' || c == '\\' => {
                let escaped = c == '\\';
                if escaped {
                    chars.next();
                }
                let mut ident = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric()
                        || c == '_'
                        || c == '$'
                        || (escaped && !c.is_whitespace())
                    {
                        ident.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if let Some(&kw) = KEYWORDS.iter().find(|&&k| k == ident) {
                    tokens.push(Token::Keyword(kw));
                } else {
                    tokens.push(Token::Ident(ident));
                }
            }
            '1' | '0' => {
                // Expect 1'b0 / 1'b1 (or bare 0/1 as an extension).
                chars.next();
                if chars.peek() == Some(&'\'') {
                    chars.next();
                    match chars.next() {
                        Some('b') | Some('B') => {}
                        _ => return Err(ParseVerilogError::new("expected 'b' in constant")),
                    }
                    match chars.next() {
                        Some('0') => tokens.push(Token::Const(false)),
                        Some('1') => tokens.push(Token::Const(true)),
                        _ => return Err(ParseVerilogError::new("expected 0 or 1 in constant")),
                    }
                } else {
                    tokens.push(Token::Const(c == '1'));
                }
            }
            '(' | ')' | ',' | ';' | '=' | '&' | '|' | '^' | '~' | '?' | ':' => {
                chars.next();
                tokens.push(Token::Symbol(c));
            }
            other => {
                return Err(ParseVerilogError::new(format!(
                    "unexpected character '{other}'"
                )))
            }
        }
    }
    Ok(tokens)
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Expr {
    Ident(String),
    Const(bool),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Mux(Box<Expr>, Box<Expr>, Box<Expr>),
}

// The derived drop glue recurses once per tree level, so a long operator
// chain — parsed iteratively into a left-deep tree — would overflow the
// stack on drop. Detach children onto an explicit worklist instead.
impl Drop for Expr {
    fn drop(&mut self) {
        fn detach(e: &mut Expr, stack: &mut Vec<Expr>) {
            let mut take =
                |slot: &mut Box<Expr>| stack.push(std::mem::replace(slot, Expr::Const(false)));
            match e {
                Expr::Ident(_) | Expr::Const(_) => {}
                Expr::Not(a) => take(a),
                Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => {
                    take(a);
                    take(b);
                }
                Expr::Mux(a, b, c) => {
                    take(a);
                    take(b);
                    take(c);
                }
            }
        }
        let mut stack = Vec::new();
        detach(self, &mut stack);
        while let Some(mut e) = stack.pop() {
            // `e` drops at the end of this iteration with only leaf
            // children left, so the recursive glue bottoms out at once.
            detach(&mut e, &mut stack);
        }
    }
}

/// Maximum *nesting* depth of an expression — parentheses, ternaries,
/// and `~` chains. Binary operator chains associate iteratively and are
/// not limited by this. Keeps adversarial input (`((((…` or `~~~~…`)
/// from overflowing the parser stack; elaboration itself is iterative
/// and has no depth limit.
const MAX_EXPR_DEPTH: usize = 256;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Token, ParseVerilogError> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| ParseVerilogError::new("unexpected end of input"))?;
        self.pos += 1;
        Ok(t)
    }

    fn expect_symbol(&mut self, c: char) -> Result<(), ParseVerilogError> {
        match self.next()? {
            Token::Symbol(s) if s == c => Ok(()),
            other => Err(ParseVerilogError::new(format!(
                "expected '{c}', found {other:?}"
            ))),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseVerilogError> {
        match self.next()? {
            Token::Keyword(k) if k == kw => Ok(()),
            other => Err(ParseVerilogError::new(format!(
                "expected '{kw}', found {other:?}"
            ))),
        }
    }

    fn ident(&mut self) -> Result<String, ParseVerilogError> {
        match self.next()? {
            Token::Ident(s) => Ok(s),
            other => Err(ParseVerilogError::new(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn ident_list(&mut self) -> Result<Vec<String>, ParseVerilogError> {
        let mut names = vec![self.ident()?];
        while self.peek() == Some(&Token::Symbol(',')) {
            self.pos += 1;
            names.push(self.ident()?);
        }
        self.expect_symbol(';')?;
        Ok(names)
    }

    fn descend(&mut self) -> Result<(), ParseVerilogError> {
        self.depth += 1;
        if self.depth > MAX_EXPR_DEPTH {
            return Err(ParseVerilogError::new("expression nesting too deep"));
        }
        Ok(())
    }

    // Expression grammar: mux > or > xor > and > unary.
    fn expr(&mut self) -> Result<Expr, ParseVerilogError> {
        self.descend()?;
        let result = self.expr_inner();
        self.depth -= 1;
        result
    }

    fn expr_inner(&mut self) -> Result<Expr, ParseVerilogError> {
        let cond = self.or_expr()?;
        if self.peek() == Some(&Token::Symbol('?')) {
            self.pos += 1;
            let then_e = self.expr()?;
            self.expect_symbol(':')?;
            let else_e = self.expr()?;
            Ok(Expr::Mux(
                Box::new(cond),
                Box::new(then_e),
                Box::new(else_e),
            ))
        } else {
            Ok(cond)
        }
    }

    fn or_expr(&mut self) -> Result<Expr, ParseVerilogError> {
        let mut lhs = self.xor_expr()?;
        while self.peek() == Some(&Token::Symbol('|')) {
            self.pos += 1;
            let rhs = self.xor_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn xor_expr(&mut self) -> Result<Expr, ParseVerilogError> {
        let mut lhs = self.and_expr()?;
        while self.peek() == Some(&Token::Symbol('^')) {
            self.pos += 1;
            let rhs = self.and_expr()?;
            lhs = Expr::Xor(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseVerilogError> {
        let mut lhs = self.unary_expr()?;
        while self.peek() == Some(&Token::Symbol('&')) {
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseVerilogError> {
        self.descend()?;
        let result = self.unary_expr_inner();
        self.depth -= 1;
        result
    }

    fn unary_expr_inner(&mut self) -> Result<Expr, ParseVerilogError> {
        match self.next()? {
            Token::Symbol('~') => Ok(Expr::Not(Box::new(self.unary_expr()?))),
            Token::Symbol('(') => {
                let e = self.expr()?;
                self.expect_symbol(')')?;
                Ok(e)
            }
            Token::Ident(name) => Ok(Expr::Ident(name)),
            Token::Const(b) => Ok(Expr::Const(b)),
            other => Err(ParseVerilogError::new(format!(
                "unexpected token {other:?} in expression"
            ))),
        }
    }
}

/// A parsed module prior to elaboration.
#[derive(Debug, Clone)]
struct Module {
    name: String,
    inputs: Vec<String>,
    outputs: Vec<String>,
    assigns: Vec<(String, Expr)>,
}

fn parse_module(tokens: Vec<Token>) -> Result<Module, ParseVerilogError> {
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    p.expect_keyword("module")?;
    let name = p.ident()?;
    // Port list (names are re-declared by input/output statements).
    if p.peek() == Some(&Token::Symbol('(')) {
        p.pos += 1;
        loop {
            match p.next()? {
                Token::Symbol(')') => break,
                Token::Symbol(',')
                | Token::Ident(_)
                | Token::Keyword("input")
                | Token::Keyword("output") => {}
                other => {
                    return Err(ParseVerilogError::new(format!(
                        "unexpected token {other:?} in port list"
                    )))
                }
            }
        }
    }
    p.expect_symbol(';')?;

    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut assigns = Vec::new();
    loop {
        match p.next()? {
            Token::Keyword("endmodule") => break,
            Token::Keyword("input") => inputs.extend(p.ident_list()?),
            Token::Keyword("output") => outputs.extend(p.ident_list()?),
            Token::Keyword("wire") => {
                let _ = p.ident_list()?;
            }
            Token::Keyword("assign") => {
                let target = p.ident()?;
                p.expect_symbol('=')?;
                let e = p.expr()?;
                p.expect_symbol(';')?;
                assigns.push((target, e));
            }
            other => {
                return Err(ParseVerilogError::new(format!(
                    "unexpected token {other:?} in module body"
                )))
            }
        }
    }
    Ok(Module {
        name,
        inputs,
        outputs,
        assigns,
    })
}

/// Parses a Verilog specification into an [`Xag`].
///
/// # Errors
///
/// Returns a [`ParseVerilogError`] on malformed input, references to
/// undefined signals, multiply-driven signals, or cyclic definitions.
///
/// # Examples
///
/// ```
/// use fcn_logic::verilog::parse_verilog;
///
/// let src = "module and2 (a, b, f); input a, b; output f; assign f = a & b; endmodule";
/// let (name, xag) = parse_verilog(src)?;
/// assert_eq!(name, "and2");
/// assert_eq!(xag.num_gates(), 1);
/// # Ok::<(), fcn_logic::verilog::ParseVerilogError>(())
/// ```
pub fn parse_verilog(src: &str) -> Result<(String, Xag), ParseVerilogError> {
    let module = parse_module(tokenize(src)?)?;

    let mut xag = Xag::new();
    let mut env: HashMap<String, Signal> = HashMap::new();
    for input in &module.inputs {
        let s = xag.primary_input(input.clone());
        if env.insert(input.clone(), s).is_some() {
            return Err(ParseVerilogError::new(format!(
                "signal '{input}' declared twice"
            )));
        }
    }

    let mut defs: HashMap<String, &Expr> = HashMap::new();
    for (target, expr) in &module.assigns {
        if module.inputs.contains(target) {
            return Err(ParseVerilogError::new(format!(
                "input '{target}' cannot be assigned"
            )));
        }
        if defs.insert(target.clone(), expr).is_some() {
            return Err(ParseVerilogError::new(format!(
                "signal '{target}' driven twice"
            )));
        }
    }

    // Elaborate assignments on demand. The walk is iterative — an
    // explicit work stack plus an operand stack — so that neither deep
    // expression trees (left-deep operator chains) nor long wire-
    // definition chains can overflow the call stack.
    enum Step<'a> {
        /// Evaluate an expression, pushing its value on the operand
        /// stack (possibly via further steps).
        Eval(&'a Expr),
        /// Combine already-evaluated operands of this expression.
        Apply(&'a Expr),
        /// Record the operand-stack top as the value of a named signal.
        Bind(String),
    }

    fn elaborate(
        name: &str,
        xag: &mut Xag,
        env: &mut HashMap<String, Signal>,
        defs: &HashMap<String, &Expr>,
    ) -> Result<Signal, ParseVerilogError> {
        use std::collections::HashSet;
        if let Some(&s) = env.get(name) {
            return Ok(s);
        }
        let underflow = || ParseVerilogError::new("internal: operand stack underflow");
        let mut visiting: HashSet<String> = HashSet::new();
        let mut values: Vec<Signal> = Vec::new();
        let root = *defs
            .get(name)
            .ok_or_else(|| ParseVerilogError::new(format!("signal '{name}' is never driven")))?;
        visiting.insert(name.to_owned());
        let mut work = vec![Step::Bind(name.to_owned()), Step::Eval(root)];
        while let Some(step) = work.pop() {
            match step {
                Step::Eval(e) => match e {
                    Expr::Ident(n) => {
                        if let Some(&s) = env.get(n) {
                            values.push(s);
                            continue;
                        }
                        if !visiting.insert(n.clone()) {
                            return Err(ParseVerilogError::new(format!(
                                "combinational cycle through '{n}'"
                            )));
                        }
                        let expr = *defs.get(n).ok_or_else(|| {
                            ParseVerilogError::new(format!("signal '{n}' is never driven"))
                        })?;
                        work.push(Step::Bind(n.clone()));
                        work.push(Step::Eval(expr));
                    }
                    Expr::Const(true) => values.push(xag.constant_true()),
                    Expr::Const(false) => values.push(xag.constant_false()),
                    Expr::Not(a) => {
                        work.push(Step::Apply(e));
                        work.push(Step::Eval(a));
                    }
                    Expr::And(a, b) | Expr::Or(a, b) | Expr::Xor(a, b) => {
                        work.push(Step::Apply(e));
                        work.push(Step::Eval(b));
                        work.push(Step::Eval(a));
                    }
                    Expr::Mux(s, t, f) => {
                        work.push(Step::Apply(e));
                        work.push(Step::Eval(f));
                        work.push(Step::Eval(t));
                        work.push(Step::Eval(s));
                    }
                },
                Step::Apply(e) => {
                    let result = match e {
                        Expr::Not(_) => !values.pop().ok_or_else(underflow)?,
                        Expr::And(..) | Expr::Or(..) | Expr::Xor(..) => {
                            let b = values.pop().ok_or_else(underflow)?;
                            let a = values.pop().ok_or_else(underflow)?;
                            match e {
                                Expr::And(..) => xag.and(a, b),
                                Expr::Or(..) => xag.or(a, b),
                                _ => xag.xor(a, b),
                            }
                        }
                        Expr::Mux(..) => {
                            let f = values.pop().ok_or_else(underflow)?;
                            let t = values.pop().ok_or_else(underflow)?;
                            let s = values.pop().ok_or_else(underflow)?;
                            xag.mux(s, t, f)
                        }
                        _ => return Err(underflow()),
                    };
                    values.push(result);
                }
                Step::Bind(n) => {
                    // The expression evaluated for this binding left its
                    // value on top; it stays there as the value of the
                    // identifier that triggered the binding.
                    let s = *values.last().ok_or_else(underflow)?;
                    visiting.remove(&n);
                    env.insert(n, s);
                }
            }
        }
        values.pop().ok_or_else(underflow)
    }

    for output in &module.outputs {
        let s = elaborate(output, &mut xag, &mut env, &defs)?;
        xag.primary_output(output.clone(), s);
    }

    Ok((module.name, xag))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and2() {
        let (name, xag) = parse_verilog(
            "module and2 (a, b, f); input a, b; output f; assign f = a & b; endmodule",
        )
        .expect("valid");
        assert_eq!(name, "and2");
        assert_eq!(xag.num_pis(), 2);
        assert_eq!(xag.num_pos(), 1);
        assert_eq!(xag.simulate(&[true, true]), vec![true]);
        assert_eq!(xag.simulate(&[true, false]), vec![false]);
    }

    #[test]
    fn operator_precedence() {
        // f = a | b & c  must parse as  a | (b & c).
        let (_, xag) = parse_verilog(
            "module p (a, b, c, f); input a, b, c; output f; assign f = a | b & c; endmodule",
        )
        .expect("valid");
        assert_eq!(xag.simulate(&[true, false, false]), vec![true]);
        assert_eq!(xag.simulate(&[false, true, false]), vec![false]);
        assert_eq!(xag.simulate(&[false, true, true]), vec![true]);
    }

    #[test]
    fn ternary_and_parentheses() {
        let (_, xag) = parse_verilog(
            "module mux21 (a, b, s, f); input a, b, s; output f; assign f = s ? b : (a ^ 1'b0); endmodule",
        )
        .expect("valid");
        for row in 0..8u32 {
            let (a, b, s) = (row & 1 == 1, row & 2 != 0, row & 4 != 0);
            let expect = if s { b } else { a };
            assert_eq!(xag.simulate(&[a, b, s]), vec![expect], "row {row}");
        }
    }

    #[test]
    fn wires_resolve_out_of_order() {
        let (_, xag) = parse_verilog(
            "module t (a, b, f); input a, b; output f; wire w;
             assign f = w ^ a; assign w = a & b; endmodule",
        )
        .expect("valid");
        assert_eq!(xag.simulate(&[true, true]), vec![false]);
        assert_eq!(xag.simulate(&[true, false]), vec![true]);
    }

    #[test]
    fn comments_are_skipped() {
        let (_, xag) = parse_verilog(
            "// parity\nmodule p (a, b, f); /* 2-input */ input a, b; output f;
             assign f = a ^ b; // xor\nendmodule",
        )
        .expect("valid");
        assert_eq!(xag.num_gates(), 1);
    }

    #[test]
    fn undriven_signal_is_an_error() {
        let err =
            parse_verilog("module t (a, f); input a; output f; assign f = a & ghost; endmodule")
                .expect_err("ghost is undriven");
        assert!(err.message.contains("ghost"));
    }

    #[test]
    fn double_drive_is_an_error() {
        let err = parse_verilog(
            "module t (a, f); input a; output f; assign f = a; assign f = ~a; endmodule",
        )
        .expect_err("double drive");
        assert!(err.message.contains("driven twice"));
    }

    #[test]
    fn cycle_is_an_error() {
        let err = parse_verilog(
            "module t (a, f); input a; output f; wire x; wire y;
             assign x = y & a; assign y = x | a; assign f = x; endmodule",
        )
        .expect_err("cycle");
        assert!(err.message.contains("cycle"));
    }

    #[test]
    fn assigning_an_input_is_an_error() {
        let err = parse_verilog("module t (a, f); input a; output f; assign a = f; endmodule")
            .expect_err("inputs are not assignable");
        assert!(err.message.contains("cannot be assigned"));
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing() {
        // A tower of ~ and a tower of ( both stress the recursive
        // descent; each must fail gracefully past the depth cap.
        let nots = "~".repeat(100_000);
        let err = parse_verilog(&format!(
            "module t (a, f); input a; output f; assign f = {nots}a; endmodule"
        ))
        .expect_err("not-tower exceeds the nesting cap");
        assert!(err.message.contains("too deep"));

        let opens = "(".repeat(100_000);
        assert!(parse_verilog(&format!(
            "module t (a, f); input a; output f; assign f = {opens}a; endmodule"
        ))
        .is_err());
    }

    #[test]
    fn long_operator_chains_elaborate_without_overflowing() {
        // Binary chains parse iteratively into a left-deep tree; the
        // iterative elaborator must walk it without recursing per term.
        let mut chain = String::from("a");
        for _ in 0..100_000 {
            chain.push_str(" ^ a");
        }
        let (_, xag) = parse_verilog(&format!(
            "module t (a, f); input a; output f; assign f = {chain}; endmodule"
        ))
        .expect("long chains are legal");
        // XOR of an odd number (100_001) of copies of `a` is `a`.
        assert_eq!(xag.simulate(&[true]), vec![true]);
        assert_eq!(xag.simulate(&[false]), vec![false]);
    }

    #[test]
    fn full_adder_round_trip() {
        let src = "module fa (a, b, cin, sum, cout);
            input a, b, cin; output sum, cout; wire t;
            assign t = a ^ b;
            assign sum = t ^ cin;
            assign cout = (a & b) | (t & cin);
        endmodule";
        let (_, xag) = parse_verilog(src).expect("valid");
        for row in 0..8u32 {
            let inputs = [(row & 1) == 1, (row & 2) != 0, (row & 4) != 0];
            let total = inputs.iter().filter(|&&x| x).count();
            let out = xag.simulate(&inputs);
            assert_eq!(out[0], total % 2 == 1);
            assert_eq!(out[1], total >= 2);
        }
    }
}

/// Serializes an [`Xag`] back into the Verilog subset this module parses,
/// using one `assign` per gate. Useful for exporting optimized networks
/// to other tools (and for round-trip testing of the parser).
///
/// # Examples
///
/// ```
/// use fcn_logic::network::Xag;
/// use fcn_logic::verilog::{parse_verilog, write_verilog};
///
/// let mut xag = Xag::new();
/// let a = xag.primary_input("a");
/// let b = xag.primary_input("b");
/// let f = xag.xor(a, b);
/// xag.primary_output("f", f);
/// let src = write_verilog("xor2", &xag);
/// let (name, parsed) = parse_verilog(&src)?;
/// assert_eq!(name, "xor2");
/// assert_eq!(parsed.num_gates(), 1);
/// # Ok::<(), fcn_logic::verilog::ParseVerilogError>(())
/// ```
pub fn write_verilog(module_name: &str, xag: &Xag) -> String {
    use crate::network::NodeKind;
    use std::fmt::Write as _;

    let mut ports: Vec<String> = (0..xag.num_pis())
        .map(|i| xag.pi_name(i).to_owned())
        .collect();
    ports.extend(xag.primary_outputs().iter().map(|(n, _)| n.clone()));
    let mut out = String::new();
    let _ = writeln!(out, "module {module_name} ({});", ports.join(", "));
    if xag.num_pis() > 0 {
        let inputs: Vec<String> = (0..xag.num_pis())
            .map(|i| xag.pi_name(i).to_owned())
            .collect();
        let _ = writeln!(out, "  input {};", inputs.join(", "));
    }
    let outputs: Vec<String> = xag
        .primary_outputs()
        .iter()
        .map(|(n, _)| n.clone())
        .collect();
    let _ = writeln!(out, "  output {};", outputs.join(", "));

    // Name every node: PIs by their names, gates as w<k>.
    let mut names: Vec<String> = vec!["1'b0".to_owned(); xag.num_nodes()];
    let mut pi = 0usize;
    let mut wires = Vec::new();
    for id in xag.node_ids() {
        match xag.node(id) {
            NodeKind::Constant => {}
            NodeKind::Input => {
                names[id.index()] = xag.pi_name(pi).to_owned();
                pi += 1;
            }
            _ => {
                let w = format!("w{}", id.index());
                wires.push(w.clone());
                names[id.index()] = w;
            }
        }
    }
    if !wires.is_empty() {
        let _ = writeln!(out, "  wire {};", wires.join(", "));
    }
    let literal = |names: &[String], s: Signal| -> String {
        let base = &names[s.node().index()];
        if s.is_complemented() {
            if base == "1'b0" {
                "1'b1".to_owned()
            } else {
                format!("~{base}")
            }
        } else {
            base.clone()
        }
    };
    for id in xag.node_ids() {
        match xag.node(id) {
            NodeKind::And(a, b) => {
                let _ = writeln!(
                    out,
                    "  assign {} = {} & {};",
                    names[id.index()],
                    literal(&names, a),
                    literal(&names, b)
                );
            }
            NodeKind::Xor(a, b) => {
                let _ = writeln!(
                    out,
                    "  assign {} = {} ^ {};",
                    names[id.index()],
                    literal(&names, a),
                    literal(&names, b)
                );
            }
            _ => {}
        }
    }
    for (name, s) in xag.primary_outputs() {
        let _ = writeln!(out, "  assign {name} = {};", literal(&names, *s));
    }
    out.push_str("endmodule\n");
    out
}

#[cfg(test)]
mod writer_tests {
    use super::*;

    fn round_trip(xag: &Xag) -> Xag {
        let src = write_verilog("rt", xag);
        let (_, parsed) = parse_verilog(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        parsed
    }

    #[test]
    fn round_trips_full_adder() {
        let src = "module fa (a, b, cin, sum, cout);
            input a, b, cin; output sum, cout; wire t;
            assign t = a ^ b;
            assign sum = t ^ cin;
            assign cout = (a & b) | (t & cin);
        endmodule";
        let (_, xag) = parse_verilog(src).expect("valid");
        let back = round_trip(&xag);
        for row in 0..8u32 {
            let inputs: Vec<bool> = (0..3).map(|i| (row >> i) & 1 == 1).collect();
            assert_eq!(xag.simulate(&inputs), back.simulate(&inputs), "row {row}");
        }
    }

    #[test]
    fn complemented_outputs_survive() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        let b = xag.primary_input("b");
        let f = xag.and(a, b);
        xag.primary_output("f", !f);
        let back = round_trip(&xag);
        for row in 0..4u32 {
            let inputs = [(row & 1) == 1, (row & 2) != 0];
            assert_eq!(xag.simulate(&inputs), back.simulate(&inputs));
        }
    }

    #[test]
    fn constant_outputs_are_expressible() {
        let mut xag = Xag::new();
        let a = xag.primary_input("a");
        xag.primary_output("t", xag.constant_true());
        xag.primary_output("p", a);
        let src = write_verilog("consts", &xag);
        assert!(src.contains("assign t = 1'b1;"));
        let (_, back) = parse_verilog(&src).expect("parses");
        assert_eq!(back.simulate(&[false]), vec![true, false]);
    }
}
