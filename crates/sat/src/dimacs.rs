//! DIMACS CNF import/export.
//!
//! The standard interchange format of the SAT community, provided so that
//! encodings produced by this crate can be cross-checked against external
//! solvers (and external instances replayed against [`crate::Solver`]).

use crate::solver::Solver;
use crate::types::{Lit, Var};

/// An error while parsing DIMACS input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// 1-based line number of the offending input line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl core::fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "DIMACS line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseDimacsError {}

/// Parses a DIMACS CNF document into a fresh [`Solver`].
///
/// Comment lines (`c …`) are skipped; the `p cnf` header is validated;
/// clauses may span lines and are terminated by `0`.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] on malformed input or literals exceeding
/// the declared variable count.
///
/// # Examples
///
/// ```
/// use msat::dimacs::parse_dimacs;
/// use msat::SolveParams;
///
/// let mut solver = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n")?;
/// assert!(solver.solve_with(&SolveParams::new()).is_sat());
/// # Ok::<(), msat::dimacs::ParseDimacsError>(())
/// ```
pub fn parse_dimacs(input: &str) -> Result<Solver, ParseDimacsError> {
    let mut solver = Solver::new();
    let mut declared_vars: Option<usize> = None;
    let mut clause: Vec<Lit> = Vec::new();

    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            let mut parts = rest.split_whitespace();
            if parts.next() != Some("cnf") {
                return Err(ParseDimacsError {
                    line: line_no,
                    message: "expected 'p cnf <vars> <clauses>'".into(),
                });
            }
            let vars: usize =
                parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| ParseDimacsError {
                        line: line_no,
                        message: "missing variable count".into(),
                    })?;
            declared_vars = Some(vars);
            for _ in 0..vars {
                solver.new_var();
            }
            continue;
        }
        let vars = declared_vars.ok_or_else(|| ParseDimacsError {
            line: line_no,
            message: "clause before 'p cnf' header".into(),
        })?;
        for token in line.split_whitespace() {
            let value: i64 = token.parse().map_err(|_| ParseDimacsError {
                line: line_no,
                message: format!("invalid literal '{token}'"),
            })?;
            if value == 0 {
                solver.add_clause(clause.drain(..));
            } else {
                let index = value.unsigned_abs() as usize - 1;
                if index >= vars {
                    return Err(ParseDimacsError {
                        line: line_no,
                        message: format!("literal {value} exceeds declared {vars} variables"),
                    });
                }
                let var = Var(index as u32);
                clause.push(if value > 0 {
                    Lit::pos(var)
                } else {
                    Lit::neg(var)
                });
            }
        }
    }
    if !clause.is_empty() {
        solver.add_clause(clause.drain(..));
    }
    Ok(solver)
}

/// Serializes clauses into DIMACS CNF text.
///
/// `num_vars` is the declared variable count; every literal must refer to
/// a variable below it.
///
/// # Panics
///
/// Panics if a clause mentions a variable `>= num_vars`.
pub fn to_dimacs<'a, I, C>(num_vars: usize, clauses: I) -> String
where
    I: IntoIterator<Item = C>,
    C: IntoIterator<Item = &'a Lit>,
{
    let mut body = String::new();
    let mut count = 0usize;
    for clause in clauses {
        for lit in clause {
            assert!(
                lit.var().index() < num_vars,
                "literal out of declared range"
            );
            let v = lit.var().index() as i64 + 1;
            let signed = if lit.is_negative() { -v } else { v };
            body.push_str(&signed.to_string());
            body.push(' ');
        }
        body.push_str("0\n");
        count += 1;
    }
    format!("p cnf {num_vars} {count}\n{body}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::tests::sat_model;
    use crate::solver::{BoundedResult, SolveParams};

    #[test]
    fn parses_and_solves_sat_instance() {
        let mut s =
            parse_dimacs("c a comment\np cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n").expect("valid input");
        assert!(s.solve_with(&SolveParams::new()).is_sat());
    }

    #[test]
    fn parses_unsat_instance() {
        let mut s = parse_dimacs("p cnf 1 2\n1 0\n-1 0\n").expect("valid input");
        assert_eq!(s.solve_with(&SolveParams::new()), BoundedResult::Unsat);
    }

    #[test]
    fn multi_line_clauses_are_joined() {
        let mut s = parse_dimacs("p cnf 2 1\n1\n2 0\n").expect("valid input");
        assert!(s.solve_with(&SolveParams::new()).is_sat());
        assert_eq!(s.num_clauses(), 1);
    }

    #[test]
    fn missing_header_is_an_error() {
        let err = parse_dimacs("1 2 0\n").expect_err("no header");
        assert!(err.message.contains("header"));
    }

    #[test]
    fn out_of_range_literal_is_an_error() {
        let err = parse_dimacs("p cnf 2 1\n3 0\n").expect_err("range");
        assert!(err.message.contains("exceeds"));
    }

    #[test]
    fn round_trip_through_text() {
        let clauses = [
            vec![Lit::pos(Var(0)), Lit::neg(Var(1))],
            vec![Lit::pos(Var(2))],
        ];
        let text = to_dimacs(3, clauses.iter().map(|c| c.iter()));
        assert!(text.starts_with("p cnf 3 2\n"));
        let mut s = parse_dimacs(&text).expect("round trip");
        let m = sat_model(s.solve_with(&SolveParams::new()));
        assert!(m.value(Var(2)));
    }
}
