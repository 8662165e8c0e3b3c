//! Arithmetic flags and branch condition codes.

use std::fmt;
use std::str::FromStr;

use crate::IsaError;

/// The four arithmetic flags produced by ALU and compare instructions.
///
/// They follow x86 semantics: `zf` (zero), `sf` (sign), `cf` (carry,
/// unsigned overflow) and `of` (signed overflow).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Flags {
    /// Zero flag: result was zero.
    pub zf: bool,
    /// Sign flag: result was negative when interpreted as signed.
    pub sf: bool,
    /// Carry flag: unsigned overflow / borrow.
    pub cf: bool,
    /// Overflow flag: signed overflow.
    pub of: bool,
}

impl Flags {
    /// Computes the flags of a subtraction `a - b`, which is also the flag
    /// semantics of `cmp b, a` in gas operand order (`cmp src, dst` compares
    /// `dst` with `src`).
    pub fn from_sub(a: u64, b: u64) -> Flags {
        let (res, borrow) = a.overflowing_sub(b);
        let (signed_res, signed_overflow) = (a as i64).overflowing_sub(b as i64);
        debug_assert_eq!(signed_res as u64, res);
        Flags {
            zf: res == 0,
            sf: (res as i64) < 0,
            cf: borrow,
            of: signed_overflow,
        }
    }

    /// Computes the flags of an addition `a + b`.
    pub fn from_add(a: u64, b: u64) -> Flags {
        let (res, carry) = a.overflowing_add(b);
        let (_, signed_overflow) = (a as i64).overflowing_add(b as i64);
        Flags {
            zf: res == 0,
            sf: (res as i64) < 0,
            cf: carry,
            of: signed_overflow,
        }
    }

    /// Computes the flags of a logical result (`and`, `or`, `xor`, `test`,
    /// shifts): carry and overflow are cleared.
    pub fn from_logic(res: u64) -> Flags {
        Flags {
            zf: res == 0,
            sf: (res as i64) < 0,
            cf: false,
            of: false,
        }
    }
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[zf={} sf={} cf={} of={}]",
            self.zf as u8, self.sf as u8, self.cf as u8, self.of as u8
        )
    }
}

/// Branch condition codes, as used by `jcc` instructions.
///
/// The names follow the x86 mnemonics: `A`/`Ae`/`B`/`Be` are unsigned
/// comparisons, `G`/`Ge`/`L`/`Le` are signed comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Cond {
    /// Equal (`je`): ZF.
    E,
    /// Not equal (`jne`): !ZF.
    Ne,
    /// Unsigned above (`ja`): !CF && !ZF.
    A,
    /// Unsigned above or equal (`jae`): !CF.
    Ae,
    /// Unsigned below (`jb`): CF.
    B,
    /// Unsigned below or equal (`jbe`): CF || ZF.
    Be,
    /// Signed greater (`jg`): !ZF && SF == OF.
    G,
    /// Signed greater or equal (`jge`): SF == OF.
    Ge,
    /// Signed less (`jl`): SF != OF.
    L,
    /// Signed less or equal (`jle`): ZF || SF != OF.
    Le,
    /// Sign set (`js`): SF.
    S,
    /// Sign clear (`jns`): !SF.
    Ns,
}

impl Cond {
    /// All condition codes.
    pub const ALL: [Cond; 12] = [
        Cond::E,
        Cond::Ne,
        Cond::A,
        Cond::Ae,
        Cond::B,
        Cond::Be,
        Cond::G,
        Cond::Ge,
        Cond::L,
        Cond::Le,
        Cond::S,
        Cond::Ns,
    ];

    /// Evaluates the condition against a set of flags.
    pub fn eval(self, f: Flags) -> bool {
        match self {
            Cond::E => f.zf,
            Cond::Ne => !f.zf,
            Cond::A => !f.cf && !f.zf,
            Cond::Ae => !f.cf,
            Cond::B => f.cf,
            Cond::Be => f.cf || f.zf,
            Cond::G => !f.zf && (f.sf == f.of),
            Cond::Ge => f.sf == f.of,
            Cond::L => f.sf != f.of,
            Cond::Le => f.zf || (f.sf != f.of),
            Cond::S => f.sf,
            Cond::Ns => !f.sf,
        }
    }

    /// Suffix used in the mnemonic (e.g. `"ne"` for `jne`).
    pub fn suffix(self) -> &'static str {
        match self {
            Cond::E => "e",
            Cond::Ne => "ne",
            Cond::A => "a",
            Cond::Ae => "ae",
            Cond::B => "b",
            Cond::Be => "be",
            Cond::G => "g",
            Cond::Ge => "ge",
            Cond::L => "l",
            Cond::Le => "le",
            Cond::S => "s",
            Cond::Ns => "ns",
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.suffix())
    }
}

impl FromStr for Cond {
    type Err = IsaError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Cond::ALL
            .iter()
            .copied()
            .find(|c| c.suffix() == s)
            .ok_or_else(|| IsaError::UnknownCondition(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_flags_match_comparisons() {
        let cases: [(u64, u64); 8] = [
            (0, 0),
            (1, 2),
            (2, 1),
            (5, 5),
            (u64::MAX, 1),
            (1, u64::MAX),
            (i64::MIN as u64, 1),
            (i64::MAX as u64, u64::MAX),
        ];
        for (a, b) in cases {
            let f = Flags::from_sub(a, b);
            assert_eq!(Cond::E.eval(f), a == b, "eq {a} {b}");
            assert_eq!(Cond::Ne.eval(f), a != b, "ne {a} {b}");
            assert_eq!(Cond::A.eval(f), a > b, "above {a} {b}");
            assert_eq!(Cond::Ae.eval(f), a >= b, "above-eq {a} {b}");
            assert_eq!(Cond::B.eval(f), a < b, "below {a} {b}");
            assert_eq!(Cond::Be.eval(f), a <= b, "below-eq {a} {b}");
            assert_eq!(Cond::G.eval(f), (a as i64) > (b as i64), "greater {a} {b}");
            assert_eq!(
                Cond::Ge.eval(f),
                (a as i64) >= (b as i64),
                "greater-eq {a} {b}"
            );
            assert_eq!(Cond::L.eval(f), (a as i64) < (b as i64), "less {a} {b}");
            assert_eq!(
                Cond::Le.eval(f),
                (a as i64) <= (b as i64),
                "less-eq {a} {b}"
            );
            let negative = (a.wrapping_sub(b) as i64) < 0;
            assert_eq!(Cond::S.eval(f), negative, "sign {a} {b}");
            assert_eq!(Cond::Ns.eval(f), !negative, "no-sign {a} {b}");
        }
    }

    #[test]
    fn complementary_conditions_are_exclusive() {
        let flag_values = [
            Flags::default(),
            Flags {
                zf: true,
                ..Flags::default()
            },
            Flags {
                sf: true,
                ..Flags::default()
            },
            Flags {
                cf: true,
                ..Flags::default()
            },
            Flags {
                of: true,
                ..Flags::default()
            },
            Flags {
                sf: true,
                of: true,
                ..Flags::default()
            },
            Flags {
                zf: true,
                cf: true,
                sf: true,
                of: true,
            },
        ];
        let pairs = [
            (Cond::E, Cond::Ne),
            (Cond::A, Cond::Be),
            (Cond::Ae, Cond::B),
            (Cond::G, Cond::Le),
            (Cond::Ge, Cond::L),
            (Cond::S, Cond::Ns),
        ];
        for f in flag_values {
            assert_eq!(Cond::S.eval(f), f.sf, "s with {f}");
            assert_eq!(Cond::Ns.eval(f), !f.sf, "ns with {f}");
            for (c, complement) in pairs {
                assert_ne!(
                    c.eval(f),
                    complement.eval(f),
                    "{c:?}/{complement:?} with {f}"
                );
            }
        }
    }

    #[test]
    fn cond_suffix_roundtrip() {
        for c in Cond::ALL {
            assert_eq!(c.suffix().parse::<Cond>().unwrap(), c);
        }
    }

    #[test]
    fn add_and_logic_flags() {
        let f = Flags::from_add(u64::MAX, 1);
        assert!(f.zf && f.cf && !f.of);
        let f = Flags::from_add(i64::MAX as u64, 1);
        assert!(f.of && f.sf);
        let f = Flags::from_logic(0);
        assert!(f.zf && !f.cf && !f.of && !f.sf);
        let f = Flags::from_logic(u64::MAX);
        assert!(f.sf && !f.zf);
    }
}
