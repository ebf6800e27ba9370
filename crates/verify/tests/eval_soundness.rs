//! Soundness of the interval domain against the ISA's value semantics
//! (DESIGN.md §9.1): for every register op, `Opcode::eval` over
//! [`Interval`]s must cover `Opcode::eval` over `u32` of every member of
//! those intervals. The lane interpreter runs the `u32` instance, and
//! the abstract interpreter's transfer function runs the interval one.

use udp_isa::{Opcode, ValueDomain};
use udp_verify::Interval;

/// SplitMix64: a fixed-seed generator, so a failure reproduces.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn word(&mut self) -> u32 {
        self.next() as u32
    }

    /// An interval of one of the shapes the analysis meets: exact, a
    /// small range, one that straddles a wrap or the sign bit, a wide
    /// range, or ⊤.
    fn interval(&mut self) -> Interval {
        let small = self.below(64) as u32;
        match self.below(7) {
            0 => Interval::exact(self.word()),
            1 => Interval::exact(self.below(40) as u32),
            2 => {
                let lo = self.below(300) as u32;
                Interval::of(lo, lo + small)
            }
            3 => Interval::of(u32::MAX - small, u32::MAX),
            4 => Interval::of((1 << 31) - 1 - small, (1 << 31) + small),
            5 => {
                let (a, b) = (self.word(), self.word());
                Interval::of(a.min(b), a.max(b))
            }
            _ => Interval::TOP,
        }
    }

    /// A member of `v`, favouring its bounds.
    fn member(&mut self, v: Interval) -> u32 {
        match self.below(4) {
            0 => v.lo,
            1 => v.hi,
            _ => v.lo + (self.next() % (u64::from(v.hi - v.lo) + 1)) as u32,
        }
    }

    /// An immediate field, with the edge values of the shift, hash and
    /// sign-extension rules among them.
    fn imm(&mut self) -> u16 {
        const EDGES: [u16; 8] = [0, 1, 7, 31, 32, 0x7FFF, 0x8000, 0xFFFF];
        if self.below(2) == 0 {
            EDGES[self.below(EDGES.len() as u64) as usize]
        } else {
            self.next() as u16
        }
    }
}

#[test]
fn interval_eval_covers_concrete_eval_for_every_register_op() {
    let mut rng = Rng(0x5EED_0E7A1);
    let ops: Vec<Opcode> = Opcode::ALL
        .iter()
        .copied()
        .filter(|op| op.is_register_op())
        .collect();
    assert_eq!(ops.len(), 37, "register ops");
    for &op in &ops {
        for _ in 0..2_000 {
            let (d, s, r) = (rng.interval(), rng.interval(), rng.interval());
            let (imm, imm1) = (rng.imm(), rng.below(16) as u8);
            let abs = op.eval(d, s, r, imm, imm1);
            assert!(abs.lo <= abs.hi, "{op}: malformed {abs:?}");
            if d.is_exact() && s.is_exact() && r.is_exact() {
                assert!(abs.is_exact(), "{op}: exact operands gave {abs:?}");
            }
            for _ in 0..8 {
                let (dv, sv, rv) = (rng.member(d), rng.member(s), rng.member(r));
                let v = op.eval(dv, sv, rv, imm, imm1);
                assert!(
                    abs.lo <= v && v <= abs.hi,
                    "{op} imm={imm:#x} imm1={imm1}: d={dv:#x} in {d:?}, src={sv:#x} in {s:?}, \
                     ref={rv:#x} in {r:?} gives {v:#x}, outside {abs:?}"
                );
            }
        }
    }
}

#[test]
fn immediate_forms_keep_their_precision() {
    let k = Interval::exact;
    // A decrement of a small range stays a range (the immediate is
    // sign-extended, so this adds 2^32 - 1 and wraps as a whole).
    let dec = Opcode::AddI.eval(k(0), Interval::of(5, 9), k(0), 0xFFFF, 0);
    assert_eq!(dec, Interval::of(4, 8));
    // A range that wraps as a whole stays a range.
    let wrap = Opcode::SubI.eval(k(0), Interval::of(0, 3), k(0), 4, 0);
    assert_eq!(wrap, Interval::of(u32::MAX - 3, u32::MAX));
    // Loading a high half over an unknown low half.
    let hi = Opcode::MovIH.eval(Interval::TOP, k(0), k(0), 0x1234, 0);
    assert_eq!(hi, Interval::of(0x1234_0000, 0x1234_FFFF));
    // A masked field and a truncated hash are bounded by their width.
    let field = Opcode::Extract.eval(k(0), Interval::TOP, k(0), 5, 3);
    assert_eq!(field, Interval::of(0, 31));
    let hash = Opcode::Hash.eval(k(0), Interval::TOP, k(0), 10, 0);
    assert_eq!(hash, Interval::of(0, 1023));
    // A conditional move with a known condition picks its side.
    let sel = Opcode::Sel.eval(k(7), k(9), Interval::of(1, 5), 0, 0);
    assert_eq!(sel, k(9));
    assert_eq!(
        Opcode::Sel.eval(k(7), k(9), Interval::of(0, 5), 0, 0),
        Interval::of(7, 9)
    );
    assert_eq!(<Interval as ValueDomain>::exact(3), k(3));
}
