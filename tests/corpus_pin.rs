//! Tier-1 pin of the generated corpus: the generator's *host* code may be
//! rewritten for speed, but the apps it emits may not move by a byte.
//!
//! `app_content_hash` (FNV-1a over the printed program plus the manifest
//! text — what `save_bundle` writes) of the first six paper-corpus apps
//! under five generator profiles is compared against constants captured
//! from the commit before the Zipf draws became table lookups (DESIGN.md
//! §21; the fifth row from the commit before the generator's one `Scope`).
//! Every figure, golden and cache key in the repository hangs off these
//! bytes, so a drifting hash fails `cargo test`, not only
//! `ci/check.sh`'s bench-drift gate. Regenerate a row only in a change
//! that *means* to move the corpus — and say so in EXPERIMENTS.md.

use gdroid::apk::{Corpus, GenConfig};
use gdroid::serve::app_content_hash;

const APPS: usize = 6;

fn hashes(config: GenConfig) -> [u64; APPS] {
    let corpus = Corpus { config, ..Corpus::paper_sized(APPS) };
    std::array::from_fn(|i| app_content_hash(&corpus.generate(i)))
}

fn half_scale() -> GenConfig {
    GenConfig { scale: 0.5, ..GenConfig::default() }
}

#[test]
fn generated_apps_equal_the_pinned_content_hashes() {
    let pins: [(&str, GenConfig, [u64; APPS]); 5] = [
        (
            "default",
            GenConfig::default(),
            [
                0x5cbf12f651790952,
                0x4695d604f69ac136,
                0xee50bb5383a877cf,
                0xfd33b63c53c80e0d,
                0xb13dc620efd030c7,
                0xd9d626eeb040dcb6,
            ],
        ),
        (
            "scale 0.5",
            half_scale(),
            [
                0x9bdda183ab8a94cf,
                0x19ae5e9d1b65f497,
                0x2e44616d80dcb712,
                0x97a0d3671fca0976,
                0xe96f3e89e96fed47,
                0xf24471d518f0a5f5,
            ],
        ),
        (
            "scale 0.5 + libraries(12, 24)",
            half_scale().with_libraries(12, 24),
            [
                0xea945174e68e1a5a,
                0xed8752be76116f8a,
                0xcfebd50bf1aa6671,
                0x42c018e4ad8baa6a,
                0x88c0964e0fe50095,
                0x2f3abeb3597219d5,
            ],
        ),
        (
            "tiny",
            GenConfig::tiny(),
            [
                0x0e7eaf3639e5f96d,
                0x1ccf146984da63cc,
                0x2b43863d6f912f04,
                0xf9b30ce6e6accbcb,
                0x13ea317c9f601286,
                0xa95f8fd684714001,
            ],
        ),
        (
            // The plan and incremental tests' recursion-heavy profile, plus
            // libraries and a leak in every app: same-layer calls, the leak
            // plant and the library path all at high rates.
            "tiny + libraries(2, 3), recursion 0.5, leak 1.0",
            GenConfig {
                recursion_prob: 0.5,
                leak_prob: 1.0,
                ..GenConfig::tiny().with_libraries(2, 3)
            },
            [
                0x18b486f4ca664a77,
                0xf383d9e775807b06,
                0x1f8c2ea5a8ae9b98,
                0xeee65a50f800443f,
                0x60f638bc68ebeff3,
                0x171a60253cef9144,
            ],
        ),
    ];
    let moved: Vec<String> = pins
        .into_iter()
        .filter_map(|(profile, config, want)| {
            let got = hashes(config);
            (got != want).then(|| format!("`{profile}`: got {got:#018x?}"))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "a generated app is no longer byte-identical under {}",
        moved.join("\n")
    );
}
