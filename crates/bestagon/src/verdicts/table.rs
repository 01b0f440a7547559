//! The nominal verdict rows (see the parent module), generated: when a
//! library design changes, `cargo test --release --test
//! library_validation nominal_verdicts -- --include-ignored` prints this
//! file's replacement.

use super::{NominalVerdict, Verdict};

/// One row per library design, in `BestagonLibrary::designs` order.
pub static NOMINAL_VERDICTS: &[NominalVerdict] = &[
    NominalVerdict {
        name: "WIRE (NW→SE)",
        hash: 0x02c9_5f73_2da2_ccb1,
        verdict: Verdict::Operational,
        visited: 16_064,
    },
    NominalVerdict {
        name: "WIRE (NW→SW)",
        hash: 0x2faf_9f81_abd0_1a45,
        verdict: Verdict::Operational,
        visited: 799,
    },
    NominalVerdict {
        name: "WIRE (NE→SE)",
        hash: 0xbe47_c2a8_ef43_b337,
        verdict: Verdict::Operational,
        visited: 799,
    },
    NominalVerdict {
        name: "WIRE (NE→SW)",
        hash: 0xc205_7224_e8e6_79eb,
        verdict: Verdict::Operational,
        visited: 16_250,
    },
    NominalVerdict {
        name: "INV (NW→SE)",
        hash: 0x7c65_e555_79e0_1110,
        verdict: Verdict::Operational,
        visited: 100_941,
    },
    NominalVerdict {
        name: "INV (NW→SW)",
        hash: 0x740b_a57c_398c_f113,
        verdict: Verdict::Operational,
        visited: 3_134,
    },
    NominalVerdict {
        name: "INV (NE→SE)",
        hash: 0xbdc9_b25d_a819_1e35,
        verdict: Verdict::Operational,
        visited: 3_134,
    },
    NominalVerdict {
        name: "INV (NE→SW)",
        hash: 0x3622_37cb_96b6_b522,
        verdict: Verdict::Operational,
        visited: 94_194,
    },
    NominalVerdict {
        name: "AND",
        hash: 0x67f5_718b_ca46_a92b,
        verdict: Verdict::Operational,
        visited: 935_793,
    },
    NominalVerdict {
        name: "AND (NW+NE→SW)",
        hash: 0x355f_dc98_b738_8319,
        verdict: Verdict::Operational,
        visited: 922_458,
    },
    NominalVerdict {
        name: "NAND",
        hash: 0xbb27_c449_806d_0abd,
        verdict: Verdict::NonOperational {
            pattern: 3,
            observed: &[Some(true)],
            expected: &[false],
        },
        visited: 2_569_179,
    },
    NominalVerdict {
        name: "NAND (NW+NE→SW)",
        hash: 0xcab1_2694_450b_3fe7,
        verdict: Verdict::NonOperational {
            pattern: 3,
            observed: &[Some(true)],
            expected: &[false],
        },
        visited: 2_578_481,
    },
    NominalVerdict {
        name: "OR",
        hash: 0xb340_8664_1f26_d1ca,
        verdict: Verdict::Operational,
        visited: 1_412_064,
    },
    NominalVerdict {
        name: "OR (NW+NE→SW)",
        hash: 0x2a76_a724_39cc_bfaa,
        verdict: Verdict::Operational,
        visited: 1_384_261,
    },
    NominalVerdict {
        name: "NOR",
        hash: 0x2a47_52a5_ab6b_70d3,
        verdict: Verdict::Operational,
        visited: 709_752,
    },
    NominalVerdict {
        name: "NOR (NW+NE→SW)",
        hash: 0x2185_6b15_ca07_e41b,
        verdict: Verdict::Operational,
        visited: 697_528,
    },
    NominalVerdict {
        name: "XOR",
        hash: 0xa586_1cce_89c2_3103,
        verdict: Verdict::NonOperational {
            pattern: 0,
            observed: &[Some(true)],
            expected: &[false],
        },
        visited: 349_597,
    },
    NominalVerdict {
        name: "XOR (NW+NE→SW)",
        hash: 0x6ab3_5011_bd73_864f,
        verdict: Verdict::NonOperational {
            pattern: 0,
            observed: &[Some(true)],
            expected: &[false],
        },
        visited: 346_612,
    },
    NominalVerdict {
        name: "XNOR",
        hash: 0x5556_20a5_7d85_1b3c,
        verdict: Verdict::NonOperational {
            pattern: 0,
            observed: &[Some(false)],
            expected: &[true],
        },
        visited: 315_018,
    },
    NominalVerdict {
        name: "XNOR (NW+NE→SW)",
        hash: 0x8bfe_362e_8e15_3480,
        verdict: Verdict::NonOperational {
            pattern: 0,
            observed: &[Some(false)],
            expected: &[true],
        },
        visited: 312_432,
    },
    NominalVerdict {
        name: "FANOUT (NW→SW+SE)",
        hash: 0x1b77_fa81_c46b_afc2,
        verdict: Verdict::Operational,
        visited: 267_863,
    },
    NominalVerdict {
        name: "FANOUT (NE)",
        hash: 0x2f75_d524_1d2a_c1f2,
        verdict: Verdict::Operational,
        visited: 224_478,
    },
    NominalVerdict {
        name: "HALF ADDER (NW+NE→SE+SW)",
        hash: 0xba7e_d577_bf98_bf39,
        verdict: Verdict::NonOperational {
            pattern: 0,
            observed: &[Some(true), Some(false)],
            expected: &[false, false],
        },
        visited: 3_566_560,
    },
    NominalVerdict {
        name: "HALF ADDER",
        hash: 0x4cfb_e3ef_6f0b_30e9,
        verdict: Verdict::NonOperational {
            pattern: 0,
            observed: &[Some(true), Some(false)],
            expected: &[false, false],
        },
        visited: 2_533_538,
    },
    NominalVerdict {
        name: "CROSS",
        hash: 0x86db_a767_601d_bbc7,
        verdict: Verdict::Unknown { pattern: 0 },
        visited: 20_000_000,
    },
];
