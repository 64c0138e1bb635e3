//! Seeded mutants of a text file, shared by the parser robustness
//! tests: `tests/artifact.rs` (LUT artifacts, recorded traces) and
//! `bench_gate` (gate files) include this file as a module.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// JSON-significant bytes the mutants substitute in.
const SUBSTITUTES: &[u8] = b"-09.e,]}[\" ";

/// Seeded multi-byte mutants [`for_each_mutation`] draws per text.
const MULTI_BYTE_MUTANTS: usize = 2_000;

/// Hands `check` every proper prefix of `text`, every variant with one
/// byte replaced by one of [`SUBSTITUTES`], then
/// [`MULTI_BYTE_MUTANTS`] fixed-seed multi-byte mutants: half carry two
/// such substitutions at distinct positions, the rest are splices that
/// delete one byte range or duplicate it in place (ranges up to 2 KiB,
/// short ones favoured). Variants that are not UTF-8 are skipped.
pub fn for_each_mutation(text: &str, mut check: impl FnMut(&str)) {
    for end in (0..text.len()).filter(|&end| text.is_char_boundary(end)) {
        check(&text[..end]);
    }
    let original = text.as_bytes();
    let mut bytes = original.to_vec();
    for i in 0..bytes.len() {
        for &b in SUBSTITUTES {
            bytes[i] = b;
            if let Ok(mutant) = std::str::from_utf8(&bytes) {
                check(mutant);
            }
        }
        bytes[i] = original[i];
    }

    let len = original.len();
    let mut rng = StdRng::seed_from_u64(0x6d75_7461_6e74);
    let substitute = |rng: &mut StdRng| SUBSTITUTES[rng.gen_range(0..SUBSTITUTES.len())];
    for _ in 0..MULTI_BYTE_MUTANTS {
        let mut bytes = original.to_vec();
        let kind = rng.gen_range(0..4);
        if kind < 2 {
            let i = rng.gen_range(0..len);
            let j = (i + rng.gen_range(1..len)) % len;
            bytes[i] = substitute(&mut rng);
            bytes[j] = substitute(&mut rng);
        } else {
            let start = rng.gen_range(0..len);
            let longest = (1usize << rng.gen_range(0..=11u32)).min(len - start);
            let end = start + rng.gen_range(1..=longest);
            if kind == 2 {
                bytes.drain(start..end);
            } else {
                bytes.splice(end..end, original[start..end].iter().copied());
            }
        }
        if let Ok(mutant) = std::str::from_utf8(&bytes) {
            check(mutant);
        }
    }
}
