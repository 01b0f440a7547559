//! A parser for the combinational subset of Berkeley's BLIF format.
//!
//! BLIF (Berkeley Logic Interchange Format) is the other specification
//! format common in the FCN design-automation community (the benchmark
//! suites of the paper's refs [13, 43] circulate as BLIF). Supported:
//! `.model`, `.inputs`, `.outputs`, `.names` with single-output cover
//! lines, and `.end`. Latches and hierarchies are out of scope — the
//! Bestagon flow is combinational.
//!
//! ```text
//! .model xor2
//! .inputs a b
//! .outputs f
//! .names a b f
//! 10 1
//! 01 1
//! .end
//! ```

use crate::network::{Signal, Xag};
use std::collections::HashMap;

/// An error encountered while parsing BLIF input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBlifError {
    /// 1-based line number.
    pub(crate) line: usize,
    /// Description of the problem.
    pub(crate) message: String,
}

impl ParseBlifError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseBlifError {
            line,
            message: message.into(),
        }
    }
}

impl core::fmt::Display for ParseBlifError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "BLIF line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseBlifError {}

/// One `.names` block: inputs, output, and its single-output cover.
#[derive(Debug, Clone)]
struct Names {
    line: usize,
    inputs: Vec<String>,
    output: String,
    /// Cover rows: `(input pattern, output value)`; pattern chars are
    /// `'0' | '1' | '-'`.
    cover: Vec<(String, bool)>,
}

/// Parses a BLIF document into an [`Xag`].
///
/// # Errors
///
/// Returns [`ParseBlifError`] on malformed input, references to
/// undefined signals, or cyclic definitions.
///
/// # Examples
///
/// ```
/// use fcn_logic::blif::parse_blif;
///
/// let src = ".model and2\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n";
/// let (name, xag) = parse_blif(src)?;
/// assert_eq!(name, "and2");
/// assert_eq!(xag.simulate(&[true, true]), vec![true]);
/// # Ok::<(), fcn_logic::blif::ParseBlifError>(())
/// ```
pub fn parse_blif(src: &str) -> Result<(String, Xag), ParseBlifError> {
    let mut model = String::new();
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut names_blocks: Vec<Names> = Vec::new();

    // Join continuation lines (trailing backslash).
    let mut logical_lines: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (idx, raw) in src.lines().enumerate() {
        let line_no = idx + 1;
        let without_comment = raw.split('#').next().unwrap_or("").trim_end();
        let (target_no, mut text) = pending.take().unwrap_or((line_no, String::new()));
        if !text.is_empty() {
            text.push(' ');
        }
        if let Some(stripped) = without_comment.strip_suffix('\\') {
            text.push_str(stripped.trim());
            pending = Some((target_no, text));
            continue;
        }
        text.push_str(without_comment.trim());
        if !text.trim().is_empty() {
            logical_lines.push((target_no, text.trim().to_owned()));
        }
    }

    let mut current: Option<Names> = None;
    for (line_no, line) in logical_lines {
        let mut parts = line.split_whitespace();
        // Logical lines are non-empty by construction, but skipping a
        // blank defensively is cheaper than trusting that invariant
        // against every future edit of the joining loop above.
        let Some(head) = parts.next() else { continue };
        if head.starts_with('.') {
            if let Some(block) = current.take() {
                names_blocks.push(block);
            }
        }
        match head {
            ".model" => model = parts.next().unwrap_or("top").to_owned(),
            ".inputs" => inputs.extend(parts.map(str::to_owned)),
            ".outputs" => outputs.extend(parts.map(str::to_owned)),
            ".names" => {
                let mut signals: Vec<String> = parts.map(str::to_owned).collect();
                let output = signals.pop().ok_or_else(|| {
                    ParseBlifError::new(line_no, ".names needs at least an output")
                })?;
                current = Some(Names {
                    line: line_no,
                    inputs: signals,
                    output,
                    cover: Vec::new(),
                });
            }
            ".end" => {}
            ".latch" | ".subckt" | ".gate" => {
                return Err(ParseBlifError::new(
                    line_no,
                    format!("unsupported construct '{head}' (combinational subset only)"),
                ))
            }
            _ if head.starts_with('.') => {
                return Err(ParseBlifError::new(
                    line_no,
                    format!("unknown directive '{head}'"),
                ))
            }
            pattern => {
                let block = current.as_mut().ok_or_else(|| {
                    ParseBlifError::new(line_no, "cover line outside a .names block")
                })?;
                let value = match parts.next() {
                    Some("1") => true,
                    Some("0") => false,
                    None if block.inputs.is_empty() => {
                        // Constant block: a single `1` or `0` line.
                        match pattern {
                            "1" => {
                                block.cover.push((String::new(), true));
                                continue;
                            }
                            "0" => {
                                block.cover.push((String::new(), false));
                                continue;
                            }
                            _ => {
                                return Err(ParseBlifError::new(line_no, "bad constant cover"));
                            }
                        }
                    }
                    other => {
                        return Err(ParseBlifError::new(
                            line_no,
                            format!("expected output value 0/1, found {other:?}"),
                        ))
                    }
                };
                if pattern.len() != block.inputs.len()
                    || !pattern.chars().all(|c| matches!(c, '0' | '1' | '-'))
                {
                    return Err(ParseBlifError::new(
                        line_no,
                        format!("bad cover row '{pattern}'"),
                    ));
                }
                block.cover.push((pattern.to_owned(), value));
            }
        }
    }
    if let Some(block) = current.take() {
        names_blocks.push(block);
    }

    // Elaborate: resolve blocks on demand, detecting cycles.
    let mut xag = Xag::new();
    let mut env: HashMap<String, Signal> = HashMap::new();
    for input in &inputs {
        let s = xag.primary_input(input.clone());
        env.insert(input.clone(), s);
    }
    let by_output: HashMap<String, Names> = names_blocks
        .into_iter()
        .map(|b| (b.output.clone(), b))
        .collect();

    /// One step of the iterative resolver: visit a signal's definition
    /// (pushing its unresolved fanins first) or build its cover once
    /// every fanin is available. An explicit work stack instead of
    /// recursion keeps arbitrarily deep definition chains from
    /// overflowing the call stack.
    enum Step {
        Visit(String),
        Build(String),
    }

    fn resolve(
        name: &str,
        xag: &mut Xag,
        env: &mut HashMap<String, Signal>,
        defs: &HashMap<String, Names>,
    ) -> Result<Signal, ParseBlifError> {
        use std::collections::HashSet;
        let mut visiting: HashSet<String> = HashSet::new();
        let mut work = vec![Step::Visit(name.to_owned())];
        while let Some(step) = work.pop() {
            match step {
                Step::Visit(n) => {
                    if env.contains_key(&n) {
                        continue;
                    }
                    if !visiting.insert(n.clone()) {
                        return Err(ParseBlifError::new(
                            0,
                            format!("combinational cycle through '{n}'"),
                        ));
                    }
                    let block = defs.get(&n).ok_or_else(|| {
                        ParseBlifError::new(0, format!("signal '{n}' is never defined"))
                    })?;
                    let fanins = block.inputs.clone();
                    work.push(Step::Build(n));
                    for i in fanins {
                        if env.contains_key(&i) {
                            continue;
                        }
                        if visiting.contains(&i) {
                            return Err(ParseBlifError::new(
                                0,
                                format!("combinational cycle through '{i}'"),
                            ));
                        }
                        work.push(Step::Visit(i));
                    }
                }
                Step::Build(n) => {
                    let block = &defs[&n];
                    // Every fanin's Visit ran (and completed) before
                    // this Build was popped, so lookups cannot miss.
                    let fanins: Vec<Signal> =
                        block.inputs.iter().map(|i| env[i.as_str()]).collect();

                    // Sum-of-products over the cover rows. The single-
                    // output cover's rows are ON-set rows when the
                    // output value is 1 (the common case); OFF-set
                    // covers (value 0) are complemented.
                    let on_set = block.cover.first().map(|(_, v)| *v).unwrap_or(true);
                    if block.cover.iter().any(|(_, v)| *v != on_set) {
                        return Err(ParseBlifError::new(
                            block.line,
                            "mixed ON/OFF cover rows are not valid BLIF",
                        ));
                    }
                    let mut sum = xag.constant_false();
                    for (pattern, _) in &block.cover {
                        let mut product = xag.constant_true();
                        for (i, c) in pattern.chars().enumerate() {
                            let lit = match c {
                                '1' => fanins[i],
                                '0' => !fanins[i],
                                _ => continue,
                            };
                            product = xag.and(product, lit);
                        }
                        sum = xag.or(sum, product);
                    }
                    let signal = if on_set { sum } else { !sum };
                    visiting.remove(&n);
                    env.insert(n, signal);
                }
            }
        }
        Ok(env[name])
    }

    for output in &outputs {
        let s = resolve(output, &mut xag, &mut env, &by_output)?;
        xag.primary_output(output.clone(), s);
    }
    Ok((
        if model.is_empty() {
            "top".to_owned()
        } else {
            model
        },
        xag,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and2() {
        let (name, xag) =
            parse_blif(".model and2\n.inputs a b\n.outputs f\n.names a b f\n11 1\n.end\n")
                .expect("valid");
        assert_eq!(name, "and2");
        assert_eq!(xag.simulate(&[true, true]), vec![true]);
        assert_eq!(xag.simulate(&[true, false]), vec![false]);
    }

    #[test]
    fn parses_xor_cover() {
        let (_, xag) =
            parse_blif(".model x\n.inputs a b\n.outputs f\n.names a b f\n10 1\n01 1\n.end\n")
                .expect("valid");
        for row in 0..4u32 {
            let a = row & 1 == 1;
            let b = row & 2 != 0;
            assert_eq!(xag.simulate(&[a, b]), vec![a ^ b]);
        }
    }

    #[test]
    fn dont_cares_expand() {
        // f = a (b is don't-care).
        let (_, xag) = parse_blif(".model d\n.inputs a b\n.outputs f\n.names a b f\n1- 1\n.end\n")
            .expect("valid");
        for row in 0..4u32 {
            let a = row & 1 == 1;
            let b = row & 2 != 0;
            assert_eq!(xag.simulate(&[a, b]), vec![a]);
        }
    }

    #[test]
    fn off_set_covers_complement() {
        // f defined by its OFF-set: f = 0 when a=1,b=1 → f = NAND.
        let (_, xag) = parse_blif(".model n\n.inputs a b\n.outputs f\n.names a b f\n11 0\n.end\n")
            .expect("valid");
        for row in 0..4u32 {
            let a = row & 1 == 1;
            let b = row & 2 != 0;
            assert_eq!(xag.simulate(&[a, b]), vec![!(a && b)]);
        }
    }

    #[test]
    fn intermediate_names_chain() {
        let src = ".model chain\n.inputs a b c\n.outputs f\n\
                   .names a b t\n11 1\n.names t c f\n10 1\n01 1\n.end\n";
        let (_, xag) = parse_blif(src).expect("valid");
        for row in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|i| (row >> i) & 1 == 1).collect();
            let expect = (v[0] && v[1]) ^ v[2];
            assert_eq!(xag.simulate(&v), vec![expect], "row {row}");
        }
    }

    #[test]
    fn constants_and_continuations() {
        let src = ".model k\n.inputs a\n.outputs f g\n.names one\n1\n\
                   .names a one \\\nf\n11 1\n.names g\n.end\n";
        let (_, xag) = parse_blif(src).expect("valid");
        // f = a AND 1 = a; g is an empty cover = constant 0.
        assert_eq!(xag.simulate(&[true]), vec![true, false]);
        assert_eq!(xag.simulate(&[false]), vec![false, false]);
    }

    #[test]
    fn latches_are_rejected() {
        let err = parse_blif(".model l\n.inputs a\n.outputs q\n.latch a q re clk 0\n.end\n")
            .expect_err("sequential");
        assert!(err.message.contains("unsupported"));
    }

    #[test]
    fn undefined_signal_is_an_error() {
        let err = parse_blif(".model u\n.inputs a\n.outputs f\n.names a ghost f\n11 1\n.end\n")
            .expect_err("ghost undefined");
        assert!(err.message.contains("ghost"));
    }

    #[test]
    fn cycles_are_detected() {
        let src = ".model c\n.inputs a\n.outputs f\n.names f a x\n11 1\n.names x a f\n11 1\n.end\n";
        let err = parse_blif(src).expect_err("cycle");
        assert!(err.message.contains("cycle"));
    }

    #[test]
    fn deep_definition_chains_do_not_overflow_the_stack() {
        // 3000 chained buffers: the iterative resolver must handle the
        // chain without recursing once per link.
        let mut src = String::from(".model deep\n.inputs a\n.outputs f\n");
        src.push_str(".names a w0\n1 1\n");
        for i in 1..3000 {
            src.push_str(&format!(".names w{} w{}\n1 1\n", i - 1, i));
        }
        src.push_str(".names w2999 f\n1 1\n.end\n");
        let (_, xag) = parse_blif(&src).expect("deep chains are legal");
        assert_eq!(xag.simulate(&[true]), vec![true]);
        assert_eq!(xag.simulate(&[false]), vec![false]);
    }
}
