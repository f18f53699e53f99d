//! The parsers of external input — SWF job logs, `--faults`, `--slo` and
//! `--recovery` — never panic, whatever they are handed.
//!
//! Valid seeds of each format are mutated a few thousand times by an
//! in-repo LCG: a byte deleted, inserted or replaced, a run of digits long
//! enough to overflow any integer spliced in, or the text cut short. Every
//! mutation must parse or return `Err` without panicking (test builds keep
//! integer overflow checks on, so an unchecked multiplication panics
//! here). Each parser must also both accept and reject some mutations, or
//! the edits never reached the code that decides.

use interstitial::policy::RecoveryPolicy;
use machine::FaultSpec;
use obs::SloSpec;
use std::panic::{catch_unwind, AssertUnwindSafe};
use workload::swf;

/// A parser, reduced to whether it accepted its input.
type Parse = fn(&str) -> bool;

const SWF: &str = "; Computer: Ross\n; MaxProcs: 1436\n\
1 0 5 3600 32 -1 -1 32 7200 -1 1 7 2 -1 -1 -1 -1 -1\n\
2 60 0 120 -1 -1 -1 4 600 -1 1 8 3 -1 -1 -1 -1 -1\n";

/// The same log plus a cancelled job (`-1` runtime), which only
/// `skip_invalid` accepts.
const SWF_CANCELLED: &str = "; Computer: Ross\n; MaxProcs: 1436\n\
1 0 5 3600 32 -1 -1 32 7200 -1 1 7 2 -1 -1 -1 -1 -1\n\
3 90 -1 -1 16 -1 -1 16 900 -1 0 9 3 -1 -1 -1 -1 -1\n\
2 60 0 120 -1 -1 -1 4 600 -1 1 8 3 -1 -1 -1 -1 -1\n";

/// Each parser with the valid inputs its mutations start from.
fn parsers() -> [(&'static str, Parse, &'static [&'static str]); 5] {
    [
        ("swf strict", |t| swf::parse(t, false).is_ok(), &[SWF]),
        (
            "swf skip_invalid",
            |t| swf::parse(t, true).is_ok(),
            &[SWF, SWF_CANCELLED],
        ),
        (
            "--faults",
            |t| FaultSpec::parse(t).is_ok(),
            &[
                "mtbf=172800,mttr=7200,nodes=16,seed=5",
                "nodes=4,mttr=60,mtbf=600",
            ],
        ),
        (
            "--slo",
            |t| SloSpec::parse(t).is_ok(),
            &[
                "native_p99_wait<=3600,util>=0.85",
                "frag<=0.1,queue_depth<=40",
            ],
        ),
        (
            "--recovery",
            |t| RecoveryPolicy::parse(t).is_ok(),
            &["ckpt=300", "suspend", "kill"],
        ),
    ]
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// What the random edits insert or write: each format's punctuation,
/// digits, signs, letters, whitespace, a multi-byte character and numbers
/// past `u64::MAX`.
const ALPHABET: [&str; 22] = [
    "=",
    ",",
    "<",
    ">",
    "<=",
    ">=",
    ".",
    "-",
    ";",
    "0",
    "1",
    "9",
    "x",
    " ",
    "\n",
    "\t",
    "µ",
    "ckpt=",
    "util>=",
    "18446744073709551616",
    "99999999999999999999999",
    "18446744073709551",
];

/// The byte offsets of `text` that start a character.
fn boundaries(text: &str) -> Vec<usize> {
    (0..=text.len())
        .filter(|&i| text.is_char_boundary(i))
        .collect()
}

#[test]
fn random_edits_never_panic() {
    for (name, parse, seeds) in parsers() {
        let mut rng = Lcg(0x9e37_79b9_7f4a_7c15);
        let (mut accepted, mut rejected) = (0, 0);
        for seed in seeds {
            assert!(parse(seed), "{name}: seed {seed:?} must parse");
            let cuts = boundaries(seed);
            for _ in 0..2_000 {
                let at = cuts[rng.below(cuts.len() - 1)];
                let next = cuts[cuts.partition_point(|&c| c <= at)];
                let piece = ALPHABET[rng.below(ALPHABET.len())];
                let mutated = match rng.below(4) {
                    0 => format!("{}{}", &seed[..at], &seed[next..]),
                    1 => format!("{}{piece}{}", &seed[..at], &seed[at..]),
                    2 => format!("{}{piece}{}", &seed[..at], &seed[next..]),
                    _ => seed[..at].to_string(),
                };
                let ok = catch_unwind(AssertUnwindSafe(|| parse(&mutated)))
                    .unwrap_or_else(|_| panic!("{name} parser panicked on {mutated:?}"));
                if ok {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            }
        }
        assert!(
            accepted > 0 && rejected > 0,
            "{name}: {accepted} accepted, {rejected} rejected"
        );
    }
}

#[test]
fn out_of_range_numbers_are_errors() {
    let huge = "18446744073709551616";
    assert!(FaultSpec::parse(&format!("mtbf={huge},mttr=1,nodes=2")).is_err());
    assert!(FaultSpec::parse("mtbf=1,mttr=1,nodes=4294967296").is_err());
    assert!(RecoveryPolicy::parse(&format!("ckpt={huge}")).is_err());
    assert!(SloSpec::parse(&format!("queue_depth<={huge}")).is_err());
    for limit in ["18446744073709551615", "18446744073709551", "1.0001", "2"] {
        let err = SloSpec::parse(&format!("util>={limit}")).unwrap_err();
        assert!(err.contains("wants a fraction in [0,1]"), "{limit}: {err}");
    }
    let line = format!("1 {huge} 0 10 4 -1 -1 4 10 -1 1 1 1 -1 -1 -1 -1 -1\n");
    for skip_invalid in [false, true] {
        assert!(swf::parse(&line, skip_invalid).is_err());
    }
}
