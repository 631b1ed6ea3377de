//! Robustness properties of the RC front end: the compiler must never
//! panic — any input is either accepted or rejected with a diagnostic —
//! and accepted programs must run deterministically.
//!
//! The randomness is a hand-rolled SplitMix64 over fixed seeds (the build
//! environment is offline, so no proptest): every failure reproduces by
//! seed, and every run covers exactly the same cases.

use rc_lang::interp::{prepare, run, Outcome};
use rc_lang::RunConfig;

/// SplitMix64: tiny, well-distributed, and deterministic across platforms.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_add(0x9E37_79B9_7F4A_7C15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo)
    }
}

/// Arbitrary byte soup never panics the lexer/parser/sema pipeline.
#[test]
fn compiler_never_panics_on_garbage() {
    for seed in 0..256u64 {
        let mut rng = Rng::new(seed);
        let len = rng.below(201);
        // A mix of printable ASCII, exotic unicode and raw control bytes.
        let src: String = (0..len)
            .map(|_| match rng.below(8) {
                0..=4 => (0x20 + rng.below(0x5F) as u8) as char,
                5 => char::from_u32(rng.next() as u32 % 0xD800).unwrap_or('\u{fffd}'),
                6 => (rng.below(0x20) as u8) as char,
                _ => ['λ', '∀', '🦀', '\u{202e}', '\0', '\t', '\n'][rng.below(7)],
            })
            .collect();
        let _ = rc_lang::compile(&src);
    }
}

/// Token-shaped soup (keywords, punctuation, idents) never panics.
#[test]
fn compiler_never_panics_on_token_soup() {
    const TOKS: &[&str] = &[
        "struct",
        "int",
        "region",
        "if",
        "while",
        "return",
        "deletes",
        "null",
        "sameregion",
        "parentptr",
        "traditional",
        "ralloc",
        "newregion",
        "deleteregion",
        "{",
        "}",
        "(",
        ")",
        ";",
        "*",
        "=",
        "==",
        "->",
        "[",
        "]",
        ",",
        "x",
        "main",
        "7",
    ];
    for seed in 0..256u64 {
        let mut rng = Rng::new(0x70C5 ^ seed);
        let n = rng.below(60);
        let src = (0..n).map(|_| TOKS[rng.below(TOKS.len())]).collect::<Vec<_>>().join(" ");
        let _ = rc_lang::compile(&src);
    }
}

/// A generated family of straight-line list programs: compile, run under
/// RC and under lea, and agree on the exit code.
#[test]
fn generated_list_programs_agree_across_backends() {
    for seed in 0..32u64 {
        let mut rng = Rng::new(0x1157 ^ seed);
        let n = rng.range(1, 40);
        let vals: Vec<i64> = (0..rng.range(1, 8)).map(|_| rng.below(100) as i64).collect();
        let stores: String = vals
            .iter()
            .enumerate()
            .map(|(i, v)| format!("n->v = n->v + {v} * {};\n", i + 1))
            .collect();
        let src = format!(
            r#"
            struct cell {{ int v; struct cell *sameregion next; }};
            int main() deletes {{
                region r = newregion();
                struct cell *list = null;
                int i;
                for (i = 0; i < {n}; i = i + 1) {{
                    struct cell *n = ralloc(r, struct cell);
                    n->v = i;
                    {stores}
                    n->next = list;
                    list = n;
                }}
                int sum = 0;
                while (list != null) {{ sum = (sum + list->v) % 65536; list = list->next; }}
                deleteregion(r);
                return sum;
            }}
            "#
        );
        let c = prepare(&src).expect("generated program compiles");
        let rc = run(&c, &RunConfig::rc_inf());
        let lea = run(&c, &RunConfig::lea());
        let (Outcome::Exit(a), Outcome::Exit(b)) = (&rc.outcome, &lea.outcome) else {
            panic!("seed {seed}: runs did not exit: {:?} / {:?}", rc.outcome, lea.outcome);
        };
        assert_eq!(a, b, "seed {seed}: backends disagree");
        // Everything was in one region: all sameregion checks eliminated.
        assert_eq!(rc.stats.checks_sameregion, 0, "seed {seed}");
    }
}

/// Run determinism: the same compiled program under the same config
/// produces identical stats.
#[test]
fn runs_are_deterministic() {
    for seed in 0..16u64 {
        let mut rng = Rng::new(0xDE7E ^ seed);
        let n = rng.range(1, 30);
        let src = format!(
            r#"
            struct t {{ int x; struct t *next; }};
            int main() deletes {{
                region a = newregion();
                region b = newregion();
                struct t *p = ralloc(a, struct t);
                int i;
                for (i = 0; i < {n}; i = i + 1) {{
                    struct t *q = ralloc(b, struct t);
                    p->next = q;
                    q->x = i;
                }}
                p->next = null;
                p = null;
                deleteregion(b);
                deleteregion(a);
                return 0;
            }}
            "#
        );
        let c = prepare(&src).expect("compiles");
        let r1 = run(&c, &RunConfig::rc_inf());
        let r2 = run(&c, &RunConfig::rc_inf());
        assert_eq!(r1.outcome, r2.outcome, "seed {seed}");
        assert_eq!(r1.stats, r2.stats, "seed {seed}");
        assert_eq!(r1.cycles, r2.cycles, "seed {seed}");
    }
}
