//! Byte pins for the legacy generator: an FNV-1a digest of each corpus's
//! JSON form, for three smoke seeds and the default preset.
//!
//! Every sweep, serving replay and benchmark set-up starts from one of
//! these corpora, so a generator change that is meant to keep every draw
//! and every float must leave these constants as they are. A change that
//! moves the corpus on purpose re-records them and says why.

use pmr_sim::{generate_corpus, ScalePreset, SimConfig};

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn corpora_match_pinned_digests() {
    let cases = [
        (ScalePreset::Smoke, 42, 0xc0ab_f726_1b3e_5dee),
        (ScalePreset::Smoke, 7, 0x7586_fc93_c567_6a80),
        (ScalePreset::Smoke, 1, 0x4a34_c2a5_23e4_18e1),
        (ScalePreset::Default, 42, 0x6749_aea2_d952_3324),
    ];
    let mut mismatches = Vec::new();
    for (scale, seed, want) in cases {
        let corpus = generate_corpus(&SimConfig::preset(scale, seed));
        let json = serde_json::to_string(&corpus).expect("a corpus serializes");
        let got = fnv1a(json.as_bytes());
        if got != want {
            mismatches.push(format!("{scale:?} seed {seed}: {got:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "corpora moved:\n{}", mismatches.join("\n"));
}
