//! Variables and literals.

/// A propositional variable, identified by a dense non-negative index.
///
/// Variables are created through `Solver::new_var` or
/// `CnfBuilder::new_var`; constructing one by index is allowed for
/// interop with external encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// The variable's dense index.
    #[inline]
    pub(crate) const fn index(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for Var {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
///
/// Encoded as `2·var + sign` so that a literal and its negation differ only
/// in the lowest bit — the usual MiniSat-style packing.
///
/// # Examples
///
/// ```
/// use msat::CnfBuilder;
///
/// let mut cnf = CnfBuilder::new();
/// let x = cnf.new_lit();
/// assert_ne!(x.negated(), x);
/// assert_eq!(x.negated().negated(), x);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The positive literal of `var`.
    #[inline]
    pub(crate) const fn pos(var: Var) -> Self {
        Lit(var.0 << 1)
    }

    /// The negative literal of `var`.
    #[inline]
    pub(crate) const fn neg(var: Var) -> Self {
        Lit((var.0 << 1) | 1)
    }

    /// A literal of `var` whose polarity is positive iff `value` is true.
    #[inline]
    pub(crate) const fn with_value(var: Var, value: bool) -> Self {
        if value {
            Lit::pos(var)
        } else {
            Lit::neg(var)
        }
    }

    /// The underlying variable.
    #[inline]
    pub(crate) const fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// True if this is a negated literal.
    #[inline]
    pub(crate) const fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }

    /// True if this is a positive literal.
    #[inline]
    pub(crate) const fn is_positive(self) -> bool {
        !self.is_negative()
    }

    /// The literal of the same variable with opposite polarity.
    #[inline]
    pub const fn negated(self) -> Self {
        Lit(self.0 ^ 1)
    }

    /// The packed code `2·var + sign`, usable as a dense array index.
    #[inline]
    pub(crate) const fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from its packed code.
    #[inline]
    pub(crate) const fn from_code(code: usize) -> Self {
        Lit(code as u32)
    }
}

impl core::ops::Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        self.negated()
    }
}

impl core::fmt::Display for Lit {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_negative() {
            write!(f, "¬x{}", self.var().0)
        } else {
            write!(f, "x{}", self.var().0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing_round_trips() {
        for i in 0..100 {
            let v = Var(i);
            assert_eq!(Lit::pos(v).var(), v);
            assert_eq!(Lit::neg(v).var(), v);
            assert!(Lit::pos(v).is_positive());
            assert!(Lit::neg(v).is_negative());
            assert_eq!(Lit::from_code(Lit::pos(v).code()), Lit::pos(v));
        }
    }

    #[test]
    fn negation_is_involutive() {
        let l = Lit::neg(Var(7));
        assert_eq!(!!l, l);
        assert_ne!(!l, l);
        assert_eq!((!l).var(), l.var());
    }

    #[test]
    fn with_value_selects_polarity() {
        let v = Var(4);
        assert_eq!(Lit::with_value(v, true), Lit::pos(v));
        assert_eq!(Lit::with_value(v, false), Lit::neg(v));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Lit::pos(Var(2)).to_string(), "x2");
        assert_eq!(Lit::neg(Var(2)).to_string(), "¬x2");
        assert_eq!(Var(9).to_string(), "x9");
    }
}
