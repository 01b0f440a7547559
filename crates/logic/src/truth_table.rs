//! Bit-packed truth tables for Boolean functions of up to six variables.
//!
//! A function of `n ≤ 6` variables is stored in the low `2^n` bits of a
//! `u64`. Bit `i` holds `f(i₀, …, i_{n−1})` where `i_k` is the `k`-th bit of
//! the row index `i` — i.e. variable 0 toggles fastest, matching the
//! convention of the EPFL logic-synthesis libraries the paper builds on.

/// A truth table of a Boolean function with up to six inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct TruthTable {
    num_vars: u8,
    bits: u64,
}

/// Masks selecting the rows where variable `k` is 1, for `k = 0..6`.
const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

impl TruthTable {
    /// The maximum number of variables supported.
    pub(crate) const MAX_VARS: u8 = 6;

    /// Builds a truth table from raw bits.
    ///
    /// Bits above row `2^num_vars` are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 6`.
    pub(crate) fn from_bits(num_vars: u8, bits: u64) -> Self {
        assert!(num_vars <= Self::MAX_VARS, "at most 6 variables supported");
        TruthTable {
            num_vars,
            bits: bits & Self::full_mask(num_vars),
        }
    }

    fn full_mask(num_vars: u8) -> u64 {
        if num_vars == 6 {
            u64::MAX
        } else {
            (1u64 << (1u64 << num_vars)) - 1
        }
    }

    /// The projection onto variable `var` (`f = x_var`).
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub(crate) fn projection(num_vars: u8, var: u8) -> Self {
        assert!(var < num_vars, "projection variable out of range");
        Self::from_bits(num_vars, VAR_MASKS[var as usize])
    }

    /// Number of variables.
    pub(crate) fn num_vars(self) -> u8 {
        self.num_vars
    }

    /// The raw bit representation (low `2^n` bits).
    pub(crate) fn bits(self) -> u64 {
        self.bits
    }

    /// Number of rows (`2^n`).
    pub(crate) fn num_rows(self) -> u32 {
        1 << self.num_vars
    }

    /// Evaluates the function on the assignment encoded in `row`.
    pub(crate) fn value_at(self, row: u32) -> bool {
        debug_assert!(row < self.num_rows());
        (self.bits >> row) & 1 == 1
    }

    /// Bitwise AND of two functions over the same variables.
    ///
    /// # Panics
    ///
    /// Panics if variable counts differ.
    pub(crate) fn and(self, other: TruthTable) -> TruthTable {
        self.binary_op(other, |a, b| a & b)
    }

    /// Bitwise XOR.
    pub(crate) fn xor(self, other: TruthTable) -> TruthTable {
        self.binary_op(other, |a, b| a ^ b)
    }

    /// Complement. (Named like the other bitwise ops; `!tt` would hide
    /// that this masks to `num_vars` rows via `from_bits`.)
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn not(self) -> TruthTable {
        TruthTable::from_bits(self.num_vars, !self.bits)
    }

    fn binary_op(self, other: TruthTable, op: impl Fn(u64, u64) -> u64) -> TruthTable {
        assert_eq!(self.num_vars, other.num_vars, "variable counts must match");
        TruthTable::from_bits(self.num_vars, op(self.bits, other.bits))
    }
}

impl core::fmt::Display for TruthTable {
    /// Hexadecimal truth-table display, most significant row first, e.g.
    /// `0x8` for 2-input AND.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let digits = self.num_rows().div_ceil(4).max(1);
        write!(f, "0x{:0width$x}", self.bits, width = digits as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projections_and_gates() {
        let a = TruthTable::projection(2, 0);
        let b = TruthTable::projection(2, 1);
        assert_eq!(a.bits(), 0b1010);
        assert_eq!(b.bits(), 0b1100);
        assert_eq!(a.and(b).bits(), 0b1000);
        assert_eq!(a.xor(b).bits(), 0b0110);
        assert_eq!(a.not().bits(), 0b0101);
    }

    #[test]
    fn value_at_agrees_with_semantics() {
        let a = TruthTable::projection(3, 0);
        let c = TruthTable::projection(3, 2);
        let f = a.and(c.not());
        for row in 0..8u32 {
            let a_val = row & 1 == 1;
            let c_val = (row >> 2) & 1 == 1;
            assert_eq!(f.value_at(row), a_val && !c_val);
        }
    }

    #[test]
    fn six_variable_support() {
        let f = TruthTable::projection(6, 5);
        assert_eq!(f.bits(), 0xFFFF_FFFF_0000_0000);
    }

    #[test]
    fn display_is_hex() {
        let a = TruthTable::projection(2, 0);
        let b = TruthTable::projection(2, 1);
        assert_eq!(a.and(b).to_string(), "0x8");
        assert_eq!(a.xor(b).to_string(), "0x6");
        assert_eq!(TruthTable::from_bits(4, u64::MAX).to_string(), "0xffff");
    }

    #[test]
    #[should_panic(expected = "at most 6 variables")]
    fn too_many_vars_panics() {
        let _ = TruthTable::from_bits(7, 0);
    }
}
