//! The evaluation benchmark suite (paper Table 1).
//!
//! The paper evaluates on "established QCA benchmarks from
//! [Trindade et al., SBCCI 2016] and [Fontes et al., ISCAS 2018]". The
//! well-documented functions (xor2, xnor2, par_gen, par_check, mux21,
//! c17, majority, the xor5 variants) are reconstructed exactly; for `t`,
//! `t_5`, `cm82a_5`, and `newtag` the source netlists are not public in
//! the paper, so functionally plausible substitutes with the same PI/PO
//! counts and similar gate counts stand in (see `DESIGN.md` §3.4). Each
//! benchmark is specified as gate-level Verilog and parsed through
//! [`fcn_logic::verilog`] — the same entry point the flow offers users.

use fcn_logic::network::Xag;
use fcn_logic::verilog::parse_verilog;

/// A named benchmark circuit.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// The parsed specification.
    pub xag: Xag,
    /// Layout size reported in the paper's Table 1, when listed there
    /// (`(w, h, sidbs, area_nm2)`).
    pub paper_result: Option<(u32, u32, u32, f64)>,
}

/// Verilog sources for every benchmark.
fn source(name: &str) -> Option<&'static str> {
    Some(match name {
        "xor2" => "module xor2 (a, b, f); input a, b; output f; assign f = a ^ b; endmodule",
        "xnor2" => "module xnor2 (a, b, f); input a, b; output f; assign f = ~(a ^ b); endmodule",
        "par_gen" => {
            "module par_gen (a, b, c, p); input a, b, c; output p;
             assign p = a ^ b ^ c; endmodule"
        }
        "mux21" => {
            "module mux21 (a, b, s, f); input a, b, s; output f;
             assign f = s ? b : a; endmodule"
        }
        "par_check" => {
            "module par_check (a, b, c, d, e); input a, b, c, d; output e;
             assign e = (a ^ b) ^ (c ^ d); endmodule"
        }
        "xor5_r1" => {
            "module xor5_r1 (a, b, c, d, e, f); input a, b, c, d, e; output f;
             assign f = (a ^ b) ^ (c ^ d) ^ e; endmodule"
        }
        // XOR5 decomposed majority-style (deeper structure, same function).
        "xor5_majority" => {
            "module xor5_majority (a, b, c, d, e, f); input a, b, c, d, e; output f;
             wire ab, cd, abcd;
             assign ab = (a & ~b) | (~a & b);
             assign cd = (c & ~d) | (~c & d);
             assign abcd = (ab & ~cd) | (~ab & cd);
             assign f = (abcd & ~e) | (~abcd & e); endmodule"
        }
        // Substitute netlist (original unavailable): 5-in/2-out mixed logic.
        "t" => {
            "module t (a, b, c, d, e, s, u); input a, b, c, d, e; output s, u;
             wire w1, w2;
             assign w1 = (a & b) ^ (c | d);
             assign w2 = (c | d) & ~e;
             assign s = w1 | w2;
             assign u = w1 ^ (b & e); endmodule"
        }
        // Substitute netlist: a denser variant of `t` (chosen among
        // equally plausible candidates for routability in the paper's
        // size regime).
        "t_5" => {
            "module t_5 (a, b, c, d, e, s, u); input a, b, c, d, e; output s, u;
             wire w1, w2;
             assign w1 = (a & b) ^ (c & d);
             assign w2 = (b | c) & e;
             assign s = w1 ^ w2;
             assign u = w1 | (d & e); endmodule"
        }
        // ISCAS-85 c17 (exact NAND netlist).
        "c17" => {
            "module c17 (in1, in2, in3, in6, in7, out22, out23);
             input in1, in2, in3, in6, in7; output out22, out23;
             wire n10, n11, n16, n19;
             assign n10 = ~(in1 & in3);
             assign n11 = ~(in3 & in6);
             assign n16 = ~(in2 & n11);
             assign n19 = ~(n11 & in7);
             assign out22 = ~(n10 & n16);
             assign out23 = ~(n16 & n19); endmodule"
        }
        "majority" => {
            "module majority (a, b, c, m); input a, b, c; output m;
             assign m = (a & b) | (a & c) | (b & c); endmodule"
        }
        // 5-input majority via bit counting: a full adder over (a,b,c) and
        // a half adder over (d,e); the count is at least 3 iff both
        // carries are set, or any carry accompanies any sum bit.
        "majority_5_r1" => {
            "module majority_5_r1 (a, b, c, d, e, m); input a, b, c, d, e; output m;
             wire s1, c1, s2, c2;
             assign s1 = a ^ b ^ c;
             assign c1 = (a & b) | (a & c) | (b & c);
             assign s2 = d ^ e;
             assign c2 = d & e;
             assign m = (c1 & c2) | ((c1 | c2) & (s1 | s2)); endmodule"
        }
        // Substitute netlist: a 2-bit ripple adder (5 in, 3 out) matching
        // cm82a's interface and arithmetic flavour.
        "cm82a_5" => {
            "module cm82a_5 (a0, a1, b0, b1, cin, s0, s1, cout);
             input a0, a1, b0, b1, cin; output s0, s1, cout;
             wire t0, c0, t1;
             assign t0 = a0 ^ b0;
             assign s0 = t0 ^ cin;
             assign c0 = (a0 & b0) | (t0 & cin);
             assign t1 = a1 ^ b1;
             assign s1 = t1 ^ c0;
             assign cout = (a1 & b1) | (t1 & c0); endmodule"
        }
        // Substitute netlist: 8-in/1-out AND-OR tree (original unavailable).
        "newtag" => {
            "module newtag (i0, i1, i2, i3, i4, i5, i6, i7, f);
             input i0, i1, i2, i3, i4, i5, i6, i7; output f;
             wire g0, g1, g2, g3;
             assign g0 = i0 & i1 & i2;
             assign g1 = i3 & (i4 | i5);
             assign g2 = (i6 ^ i7) & i0;
             assign g3 = (i4 & i7) | (i1 ^ i5);
             assign f = g0 | (g1 & g2) | (g2 ^ g3); endmodule"
        }
        _ => return None,
    })
}

/// Layout results the paper reports in Table 1: `(w, h, sidbs, nm²)`.
fn paper_row(name: &str) -> Option<(u32, u32, u32, f64)> {
    Some(match name {
        "xor2" => (2, 3, 58, 2403.98),
        "xnor2" => (2, 3, 58, 2403.98),
        "par_gen" => (3, 4, 103, 4830.22),
        "mux21" => (3, 6, 196, 7258.52),
        "par_check" => (4, 7, 284, 11312.68),
        "xor5_r1" => (5, 6, 232, 12124.57),
        "xor5_majority" => (5, 6, 244, 12124.57),
        "t" => (5, 8, 426, 16180.79),
        "t_5" => (5, 8, 448, 16180.79),
        "c17" => (5, 8, 396, 16180.79),
        "majority" => (5, 11, 651, 22265.12),
        "majority_5_r1" => (5, 12, 737, 24293.23),
        "cm82a_5" => (5, 15, 1211, 30377.56),
        "newtag" => (8, 10, 651, 32419.82),
        _ => return None,
    })
}

/// Names of all Table 1 benchmarks, in the paper's order.
pub fn benchmark_names() -> Vec<&'static str> {
    vec![
        "xor2",
        "xnor2",
        "par_gen",
        "mux21",
        "par_check",
        "xor5_r1",
        "xor5_majority",
        "t",
        "t_5",
        "c17",
        "majority",
        "majority_5_r1",
        "cm82a_5",
        "newtag",
    ]
}

/// Loads a benchmark by name.
///
/// # Panics
///
/// Panics on unknown names; the embedded sources are guaranteed to parse.
pub fn benchmark(name: &str) -> Benchmark {
    let src = source(name).unwrap_or_else(|| panic!("unknown benchmark '{name}'"));
    let (_, xag) = parse_verilog(src).expect("embedded benchmark sources parse");
    Benchmark {
        xag,
        paper_result: paper_row(name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_parse() {
        for name in benchmark_names() {
            let b = benchmark(name);
            assert!(b.xag.num_pis() > 0, "{name}");
            assert!(b.xag.num_pos() > 0, "{name}");
            assert!(b.xag.num_gates() > 0, "{name}");
        }
    }

    #[test]
    fn xor2_and_xnor2_are_complements() {
        let x = benchmark("xor2").xag;
        let n = benchmark("xnor2").xag;
        for row in 0..4u32 {
            let inputs = [(row & 1) == 1, (row & 2) != 0];
            assert_eq!(x.simulate(&inputs)[0], !n.simulate(&inputs)[0]);
        }
    }

    #[test]
    fn parity_benchmarks_compute_parity() {
        for (name, n) in [
            ("par_gen", 3usize),
            ("par_check", 4),
            ("xor5_r1", 5),
            ("xor5_majority", 5),
        ] {
            let b = benchmark(name);
            assert_eq!(b.xag.num_pis(), n, "{name}");
            for row in 0..(1u32 << n) {
                let inputs: Vec<bool> = (0..n).map(|i| (row >> i) & 1 == 1).collect();
                let expected = inputs.iter().filter(|&&v| v).count() % 2 == 1;
                assert_eq!(b.xag.simulate(&inputs)[0], expected, "{name} row {row}");
            }
        }
    }

    #[test]
    fn c17_matches_reference_nands() {
        let b = benchmark("c17");
        assert_eq!(b.xag.num_pis(), 5);
        assert_eq!(b.xag.num_pos(), 2);
        for row in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|i| (row >> i) & 1 == 1).collect();
            let (in1, in2, in3, in6, in7) = (v[0], v[1], v[2], v[3], v[4]);
            let n10 = !(in1 && in3);
            let n11 = !(in3 && in6);
            let n16 = !(in2 && n11);
            let n19 = !(n11 && in7);
            let out22 = !(n10 && n16);
            let out23 = !(n16 && n19);
            assert_eq!(b.xag.simulate(&v), vec![out22, out23], "row {row}");
        }
    }

    #[test]
    fn majority_benchmarks_compute_majority() {
        let m3 = benchmark("majority");
        for row in 0..8u32 {
            let inputs: Vec<bool> = (0..3).map(|i| (row >> i) & 1 == 1).collect();
            let expected = inputs.iter().filter(|&&v| v).count() >= 2;
            assert_eq!(m3.xag.simulate(&inputs)[0], expected);
        }
        let m5 = benchmark("majority_5_r1");
        for row in 0..32u32 {
            let inputs: Vec<bool> = (0..5).map(|i| (row >> i) & 1 == 1).collect();
            let expected = inputs.iter().filter(|&&v| v).count() >= 3;
            assert_eq!(m5.xag.simulate(&inputs)[0], expected, "row {row}");
        }
    }

    #[test]
    fn cm82a_adds_two_bit_numbers() {
        let b = benchmark("cm82a_5");
        for row in 0..32u32 {
            let v: Vec<bool> = (0..5).map(|i| (row >> i) & 1 == 1).collect();
            let a = v[0] as u32 + 2 * (v[1] as u32);
            let bn = v[2] as u32 + 2 * (v[3] as u32);
            let cin = v[4] as u32;
            let sum = a + bn + cin;
            let out = b.xag.simulate(&v);
            let got = out[0] as u32 + 2 * (out[1] as u32) + 4 * (out[2] as u32);
            assert_eq!(got, sum, "row {row}");
        }
    }

    #[test]
    fn paper_rows_cover_listed_benchmarks() {
        // All except mux21-missing entries have Table 1 rows.
        for name in benchmark_names() {
            assert!(benchmark(name).paper_result.is_some(), "{name}");
        }
    }
}
