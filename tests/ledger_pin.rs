//! Tier-1 pin of the modeled ledger: the simulator's *host* code may be
//! rewritten for speed, but what it charges may not move.
//!
//! Three tiny apps × the optimization ladder are run on the modeled P40 and their cycles, transactions, divergence
//! passes, coalescing and end-to-end time compared against constants
//! captured from the commit before the lane accounting was rewritten
//! (ROADMAP item 1). A drifting modeled number then fails `cargo test`,
//! not only `ci/check.sh`'s bench-drift gate. Regenerate a row only in a
//! change that *means* to move the model — and say so in EXPERIMENTS.md.

use gdroid::apk::{generate_app, GenConfig};
use gdroid::core::{gpu_analyze_app_on, AppInput, OptConfig};
use gdroid::gpusim::{Device, DeviceConfig};
use gdroid::icfg::prepare_app;
use gdroid::ir::MethodId;
use gdroid::trace::{ArgValue, Tracer};

/// What one run charged: `(cycles, transactions, divergence_passes,
/// coalescing_bits, total_ns_bits)` — Σ makespan cycles over launches,
/// Σ global-memory transactions and Σ
/// serialized divergence passes over blocks, and the bits of
/// `ideal_transactions / transactions` and of the end-to-end modeled ns.
type Ledger = (u64, u64, u64, u64, u64);

const SEEDS: [u64; 3] = [9001, 9002, 9003];

fn ledger(seed: u64, opts: OptConfig) -> Ledger {
    let mut app = generate_app(0, seed, &GenConfig::tiny());
    let (envs, cg) = prepare_app(&mut app);
    let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
    let mut device = Device::new(DeviceConfig::tesla_p40());
    device.set_tracer(Tracer::enabled_new());
    let run = gpu_analyze_app_on(&mut device, &AppInput::new(&app.program, &cg, &roots), opts)
        .expect("a fresh device has no fault plan");

    let sum = |span: &dyn Fn(&str) -> bool, arg: &str| -> u64 {
        device
            .tracer()
            .events()
            .iter()
            .filter(|e| e.cat == "gpusim" && span(&e.name))
            .flat_map(|e| e.args.iter())
            .filter_map(|(name, value)| match value {
                ArgValue::U64(v) if *name == arg => Some(*v),
                _ => None,
            })
            .sum()
    };
    let launch = |name: &str| name.starts_with("launch #");
    let block = |name: &str| name.starts_with("block ");
    (
        sum(&launch, "makespan_cycles"),
        sum(&block, "transactions"),
        sum(&block, "divergence_passes"),
        run.stats.coalescing.to_bits(),
        run.stats.total_ns.to_bits(),
    )
}

#[test]
fn modeled_ledger_equals_the_pinned_constants() {
    let mut actual = Vec::new();
    for seed in SEEDS {
        for opts in OptConfig::ladder() {
            actual.push(ledger(seed, opts));
        }
    }
    if actual != PINNED {
        // Print the whole table in source form so a deliberate model
        // change can paste it back.
        for (cycles, transactions, passes, coalescing, total_ns) in &actual {
            eprintln!("    ({cycles}, {transactions}, {passes}, {coalescing:#x}, {total_ns:#x}),");
        }
        panic!("the modeled ledger moved (rows above: seed-major, then ladder rung)");
    }
}

/// One [`Ledger`] per run: seed-major over [`SEEDS`], then
/// `OptConfig::ladder()`.
#[rustfmt::skip]
const PINNED: [Ledger; 12] = [
    (11084227, 11793, 1663, 0x3fe02c1c385a7a63, 0x41605ed29e88dfb7),
    (276606, 23868, 1663, 0x3fe42b6aded6158a, 0x41129afce0a15dfb),
    (237235, 10803, 869, 0x3ff0000000000000, 0x41101096f574c4bc),
    (230009, 10807, 857, 0x3ff0000000000000, 0x410f7887b44b2eb2),
    (3683711, 3741, 1005, 0x3fdf602539f60254, 0x41460a468d323b14),
    (59896, 5206, 1005, 0x3fc98bc0a9f208da, 0x40fb872f2198a82e),
    (98267, 3792, 736, 0x3fd1892e727f75bd, 0x41010b4bd0313f97),
    (98147, 3792, 736, 0x3fd1078fa99624ba, 0x4101086b0d4b60fd),
    (33905058, 664649, 8926, 0x3fe50533d2a8eae1, 0x4178dd53e42144d6),
    (16280302, 1664136, 8926, 0x3ff0000000000000, 0x416831924b4a7648),
    (3972085, 300217, 1717, 0x3ff0000000000000, 0x4148aa9f58c79cfc),
    (2210073, 177334, 1259, 0x3ff0000000000000, 0x413cb43b52aa248a),
];
