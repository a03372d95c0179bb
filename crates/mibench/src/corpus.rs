//! Constant data shared between the assembly benchmarks and their Rust
//! oracles: the stringsearch corpus and the FFT twiddle table.
//!
//! Keeping one definition on the Rust side (the harness pokes the corpus
//! into the benchmark's reserved buffer before each run, exactly like
//! benchmark input) guarantees the oracle and the simulated program see
//! identical bytes.

/// Q13 sine table with 64 entries: `round(8191 * sin(2*pi*i/64))`.
/// The FFT assembly carries the same 64 words in its data section.
pub const SINTAB_Q13: [i16; 64] = [
    0, 803, 1598, 2378, 3135, 3861, 4551, 5196, 5792, 6332, 6811, 7224, 7567, 7838, 8034, 8152,
    8191, 8152, 8034, 7838, 7567, 7224, 6811, 6332, 5792, 5196, 4551, 3861, 3135, 2378, 1598,
    803, 0, -803, -1598, -2378, -3135, -3861, -4551, -5196, -5792, -6332, -6811, -7224, -7567,
    -7838, -8034, -8152, -8191, -8152, -8034, -7838, -7567, -7224, -6811, -6332, -5792, -5196,
    -4551, -3861, -3135, -2378, -1598, -803,
];

/// 2048-byte search corpus for the stringsearch benchmark: deterministic
/// pseudo-English built by tiling a phrase list (so patterns repeat and
/// Boyer–Moore–Horspool gets realistic skip behaviour).
pub fn text() -> &'static [u8] {
    &TEXT_BYTES
}

/// The corpus length (fixed; the assembly hard-codes it).
pub const TEXT_LEN: usize = 2048;

/// See [`text`].
pub static TEXT_BYTES: [u8; TEXT_LEN] = build_text();

const PHRASES: &[u8] = b"the quick brown fox jumps over the lazy dog while embedded systems \
sense the world and nonvolatile memories retain program state across power failures so that \
intermittent computation can resume where it stopped and software caches move hot functions \
into fast sram to hide the latency of ferroelectric ram arrays on tiny microcontrollers ";

const fn build_text() -> [u8; TEXT_LEN] {
    let mut out = [0u8; TEXT_LEN];
    let mut i = 0;
    while i < TEXT_LEN {
        out[i] = PHRASES[i % PHRASES.len()];
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sintab_is_odd_symmetric() {
        for i in 1..32 {
            assert_eq!(SINTAB_Q13[i], -SINTAB_Q13[i + 32], "entry {i}");
        }
        assert_eq!(SINTAB_Q13[16], 8191, "sin(pi/2) in Q13");
    }

    #[test]
    fn corpus_has_expected_shape() {
        assert_eq!(text().len(), TEXT_LEN);
        assert!(text().iter().all(|b| b.is_ascii()));
        // Repeating phrases => real repeated substrings for BMH.
        let t = text();
        assert_eq!(&t[..3], b"the");
    }
}
