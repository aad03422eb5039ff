//! Property-based tests over the core data structures and invariants,
//! spanning crates.

use gdroid::analysis::{Fact, FactStore, Geometry, MatrixStore, NodeFacts};
use gdroid::apk::{generate_app, GenConfig, Rng};
use gdroid::gpusim::{transactions, BlockCtx, Device, DeviceConfig, LaneWork};
use gdroid::icfg::{CallGraph, CallLayers, Cfg};
use gdroid::ir::text::{parse_program, print_program};
use gdroid::ir::{validate_program, MethodId};
use proptest::prelude::*;

/// A generated app is valid IR, and its `.jil` round trip preserves every
/// method body.
fn assert_jil_roundtrip(seed: u64, config: &GenConfig) {
    let app = generate_app(0, seed, config);
    assert!(validate_program(&app.program).is_empty());
    // Symbol ids are interner-order dependent, so equality is checked on
    // the canonical printed form: print ∘ parse ∘ print = print.
    let text = print_program(&app.program);
    let reparsed = parse_program(&text).expect("reparse");
    assert!(validate_program(&reparsed).is_empty());
    assert_eq!(app.program.methods.len(), reparsed.methods.len());
    assert!(print_program(&reparsed) == text, "seed {seed}: print ∘ parse ∘ print != print");
}

/// The paper profile at scale 0.1, with and without the library pool.
#[test]
fn paper_apps_roundtrip_through_jil() {
    let paper = GenConfig { scale: 0.1, ..GenConfig::default() };
    for config in [paper.clone(), paper.with_libraries(12, 24)] {
        for seed in 0..3 {
            assert_jil_roundtrip(seed, &config);
        }
    }
}

proptest! {
    #[test]
    fn generated_apps_roundtrip_through_jil(seed in 0u64..500) {
        assert_jil_roundtrip(seed, &GenConfig::tiny());
    }

    /// Bitmap set/get/count/row/clear_row invariants under arbitrary fact
    /// sequences; rows span up to three words.
    #[test]
    fn nodefacts_bitmap_invariants(
        slots in 1usize..40,
        insts in 1usize..150,
        ops in prop::collection::vec((0u16..40, 0u16..150), 0..200),
        probe in 0usize..40,
    ) {
        let g = Geometry { slots, insts };
        let mut bm = NodeFacts::empty(g);
        let mut reference = std::collections::BTreeSet::new();
        for (s, i) in ops {
            let fact = Fact { slot: s % slots as u16, instance: i % insts as u16 };
            let fresh = bm.set(fact);
            prop_assert_eq!(fresh, reference.insert(fact.pack()));
        }
        prop_assert_eq!(bm.count(), reference.len());
        let iterated: std::collections::BTreeSet<u32> = bm.iter().map(Fact::pack).collect();
        prop_assert_eq!(&iterated, &reference);

        // A row is its slot's instances, ascending; clearing it removes
        // exactly those facts.
        let slot = (probe % slots) as u16;
        let in_row = |f: &Fact| f.slot == slot;
        let row: Vec<u16> = bm.row(slot).collect();
        let expected: Vec<u16> =
            reference.iter().map(|&p| Fact::unpack(p)).filter(in_row).map(|f| f.instance).collect();
        prop_assert_eq!(&row, &expected);
        bm.clear_row(slot);
        let kept: std::collections::BTreeSet<u32> = bm.iter().map(Fact::pack).collect();
        reference.retain(|&p| !in_row(&Fact::unpack(p)));
        prop_assert_eq!(kept, reference);
    }

    /// `MatrixStore::union_into` reports the popcount delta and whether
    /// the node grew, ORs the words in, and touches no neighbouring node
    /// of the flat store.
    #[test]
    fn matrix_union_into_reports_the_count_delta(
        slots in 1usize..40,
        insts in 1usize..40,
        a_bits in prop::collection::vec((0u16..40, 0u16..40), 0..120),
        b_bits in prop::collection::vec((0u16..40, 0u16..40), 0..120),
    ) {
        let g = Geometry { slots, insts };
        let fact =
            |&(s, i): &(u16, u16)| Fact { slot: s % slots as u16, instance: i % insts as u16 };
        let a: Vec<Fact> = a_bits.iter().map(fact).collect();
        let mut b = NodeFacts::empty(g);
        for f in b_bits.iter().map(fact) {
            b.set(f);
        }
        let mut store = MatrixStore::new(g, 3);
        for node in 0..3 {
            store.seed(node, &a);
        }
        let before = store.node(1).to_owned();
        let outcome = store.union_into(1, &b);
        let after = store.fact_count(1);
        prop_assert_eq!(outcome.inserted, after - before.count());
        prop_assert_eq!(outcome.changed, after != before.count());
        prop_assert_eq!(outcome.reallocations, 0);
        let mut merged = before.clone();
        merged.union(&b);
        prop_assert_eq!(store.node(1).words(), merged.words());
        prop_assert_eq!(store.node(0).words(), before.words());
        prop_assert_eq!(store.node(2).words(), before.words());

        // The flat form round-trips and is length-checked.
        let flat = store.flat_words();
        let back = MatrixStore::from_flat_words(g, 3, &flat).expect("same shape");
        prop_assert_eq!(back.flat_words(), flat.clone());
        if g.words() > 0 {
            prop_assert!(MatrixStore::from_flat_words(g, 2, &flat).is_none());
        }
    }

    /// Stored words that set a padding bit — at or above `geometry.bits()`
    /// in a node's last word — are refused: such a bit is no fact, yet
    /// every popcount over the node would count it. A full matrix without
    /// padding bits is accepted and counts exactly `bits()` facts per node.
    #[test]
    fn from_flat_words_refuses_padding_bits(
        slots in 1usize..12,
        insts in 1usize..12,
        nodes in 1usize..4,
        node in 0usize..4,
        offset in any::<u64>(),
    ) {
        let g = Geometry { slots, insts };
        let per = g.words();
        let used = g.bits() % 64;
        let mut words = vec![!0u64; nodes * per];
        if used != 0 {
            for last in words.iter_mut().skip(per - 1).step_by(per) {
                *last = (1 << used) - 1;
            }
        }
        let full = MatrixStore::from_flat_words(g, nodes, &words).expect("no padding bit set");
        prop_assert!((0..nodes).all(|n| full.fact_count(n) == g.bits()));
        if used != 0 {
            let bit = used + (offset % (64 - used) as u64) as usize;
            words[(node % nodes) * per + per - 1] |= 1 << bit;
            prop_assert!(MatrixStore::from_flat_words(g, nodes, &words).is_none());
        }
    }

    /// The coalescing model's one segment counter equals the set
    /// definition — distinct `addr / transaction_bytes` — on empty,
    /// all-equal, compact, heap-scattered (past `1 << 40`) and mixed
    /// address lists, both called directly and through `warp_process`,
    /// whose scratch the device reuses from step to step.
    #[test]
    fn segment_counting_matches_a_btreeset(
        shape in 0u8..4,
        raw in prop::collection::vec(any::<u64>(), 0..300),
        partitions in prop::collection::vec(0u32..4, 1..33),
        bytes_pick in 0usize..4,
    ) {
        let transaction_bytes = [32, 96, 128, 1000][bytes_pick];
        let config = DeviceConfig { transaction_bytes, ..DeviceConfig::tesla_p40() };
        let addrs: Vec<u64> = raw
            .iter()
            .map(|&r| match shape {
                0 => 0x4000,
                1 => 0x4000 + r % 4096,
                2 => (1 << 40) + r % (1 << 44),
                _ if r % 2 == 0 => 0x4000 + (r >> 1) % 512,
                _ => (1 << 40) + (r >> 1) % (1 << 44),
            })
            .collect();
        let distinct = |addrs: &mut dyn Iterator<Item = u64>| {
            let segments: std::collections::BTreeSet<u64> =
                addrs.map(|a| a / transaction_bytes).collect();
            segments.len() as u64
        };
        prop_assert_eq!(transactions(&config, &addrs), distinct(&mut addrs.iter().copied()));

        // Deal the addresses to the lanes: reads round-robin, writes the
        // other way round.
        let mut lanes: Vec<LaneWork> = partitions
            .iter()
            .map(|&partition| LaneWork { partition, ..Default::default() })
            .collect();
        let n = lanes.len();
        for (k, &addr) in addrs.iter().enumerate() {
            lanes[k % n].reads.push(addr);
            lanes[n - 1 - k % n].writes.push(addr);
        }
        let groups: std::collections::BTreeSet<u32> = partitions.iter().copied().collect();
        let expected: u64 = groups
            .iter()
            .map(|&p| {
                let group = || lanes.iter().filter(move |l| l.partition == p);
                distinct(&mut group().flat_map(|l| l.reads.iter().copied()))
                    + distinct(&mut group().flat_map(|l| l.writes.iter().copied()))
            })
            .sum();
        const STEPS: u64 = 3;
        let stats = Device::new(config).launch(vec![|ctx: &mut BlockCtx<'_>| {
            for _ in 0..STEPS {
                ctx.warp_process(&lanes);
            }
        }]);
        prop_assert_eq!(stats.transactions, STEPS * expected);
        prop_assert_eq!(stats.divergence_passes, STEPS * groups.len() as u64);
    }

    /// Union is idempotent, commutative in effect, and monotone.
    #[test]
    fn union_laws(
        a_bits in prop::collection::vec((0u16..20, 0u16..20), 0..60),
        b_bits in prop::collection::vec((0u16..20, 0u16..20), 0..60),
    ) {
        let g = Geometry { slots: 20, insts: 20 };
        let mut a = NodeFacts::empty(g);
        for (s, i) in &a_bits {
            a.set(Fact { slot: *s, instance: *i });
        }
        let mut b = NodeFacts::empty(g);
        for (s, i) in &b_bits {
            b.set(Fact { slot: *s, instance: *i });
        }
        // a ∪ b ⊇ a and ⊇ b.
        let mut ab = a.clone();
        ab.union(&b);
        for f in a.iter() {
            prop_assert!(ab.get(f));
        }
        for f in b.iter() {
            prop_assert!(ab.get(f));
        }
        // Idempotence.
        let mut ab2 = ab.clone();
        prop_assert!(!ab2.union(&b), "second union must be a no-op");
        prop_assert_eq!(ab2.count(), ab.count());
        // Commutativity of the result.
        let mut ba = b.clone();
        ba.union(&a);
        prop_assert_eq!(ba.count(), ab.count());
    }

    /// SBDA layering: every internal callee is on a layer ≤ its caller's,
    /// with equality only inside the same SCC.
    #[test]
    fn sbda_layering_is_bottom_up(seed in 0u64..60) {
        let mut app = generate_app(0, seed, &GenConfig::tiny());
        let (envs, cg) = gdroid::icfg::prepare_app(&mut app);
        let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
        let layers = CallLayers::compute(&cg, &roots);
        for (&m, _) in layers.scc_of.iter() {
            let ml = layers.layer_of(m).unwrap();
            for &callee in cg.callees_of(m) {
                let Some(cl) = layers.layer_of(callee) else { continue };
                prop_assert!(
                    cl < ml || layers.scc_of[&callee] == layers.scc_of[&m],
                    "callee above caller"
                );
            }
        }
    }

    /// CFG structural invariants on arbitrary generated methods: preds
    /// mirror succs, entry reaches the body, terminators do not fall
    /// through.
    #[test]
    fn cfg_invariants(seed in 0u64..100) {
        let app = generate_app(0, seed, &GenConfig::tiny());
        for m in app.program.methods.iter() {
            let cfg = Cfg::build(m);
            for from in 0..cfg.len() as u32 {
                for &to in cfg.succ(from) {
                    prop_assert!(cfg.pred(to).contains(&from));
                }
            }
            prop_assert!(cfg.reachable_count() >= 2);
            prop_assert!(cfg.succ(cfg.exit()).is_empty());
        }
    }

    /// The deterministic PRNG's uniform range never leaves its bounds and
    /// derivation streams are independent of order.
    #[test]
    fn rng_bounds(seed: u64, lo in 0usize..50, span in 1usize..50) {
        let mut rng = Rng::new(seed);
        for _ in 0..50 {
            let v = rng.range(lo, lo + span);
            prop_assert!((lo..=lo + span).contains(&v));
        }
        let parent = Rng::new(seed);
        let mut c1 = parent.derive(1);
        let mut c2 = parent.derive(2);
        let mut c1_again = parent.derive(1);
        prop_assert_eq!(c1.next_u64(), c1_again.next_u64());
        let _ = c2.next_u64();
    }
}

/// Call-graph reachability is a fixed point: expanding the reachable set
/// by one more step adds nothing.
#[test]
fn reachability_is_closed() {
    let mut app = generate_app(0, 77, &GenConfig::tiny());
    let (envs, cg) = gdroid::icfg::prepare_app(&mut app);
    let roots: Vec<MethodId> = envs.iter().map(|e| e.method).collect();
    let reach = cg.reachable_from(&roots);
    let set: std::collections::HashSet<_> = reach.iter().copied().collect();
    for &m in &reach {
        for &c in cg.callees_of(m) {
            assert!(set.contains(&c), "reachable set not closed under calls");
        }
    }
    // And it equals reachability computed from a rebuilt call graph.
    let cg2 = CallGraph::build(&app.program);
    let reach2 = cg2.reachable_from(&roots);
    assert_eq!(reach.len(), reach2.len());
}

/// Canonical hashes for every method, rooted at the whole program.
fn canonical_hashes_of(program: &gdroid::ir::Program) -> std::collections::HashMap<MethodId, u128> {
    let cg = CallGraph::build(program);
    let roots: Vec<MethodId> = (0..program.methods.len() as u32).map(MethodId).collect();
    gdroid::sumstore::canonical_hashes(program, &cg, &roots)
}

proptest! {
    /// The summary store's canonical method hash is position-independent:
    /// shuffling the method table (i.e. reordering unrelated code) leaves
    /// every method's hash unchanged.
    #[test]
    fn canonical_hashes_ignore_method_order(seed in 0u64..200, shuffle_seed: u64) {
        let app = generate_app(0, seed, &GenConfig::tiny());
        let base = canonical_hashes_of(&app.program);

        // Seeded Fisher-Yates: perm[new] = old, inv[old] = new.
        let n = app.program.methods.len();
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut rng = Rng::new(shuffle_seed);
        for i in (1..n).rev() {
            let j = rng.range(0, i);
            perm.swap(i, j);
        }
        let mut inv = vec![0u32; n];
        for (new, &old) in perm.iter().enumerate() {
            inv[old as usize] = new as u32;
        }

        let mut permuted = app.program.clone();
        permuted.methods =
            perm.iter().map(|&old| app.program.methods[MethodId(old)].clone()).collect();
        // Calls reference signatures, not method ids, so only the class
        // rosters need remapping.
        for cid in permuted.classes.indices() {
            for m in &mut permuted.classes[cid].methods {
                *m = MethodId(inv[m.0 as usize]);
            }
        }
        permuted.rebuild_lookups();
        prop_assert!(validate_program(&permuted).is_empty());

        let shuffled = canonical_hashes_of(&permuted);
        prop_assert_eq!(base.len(), shuffled.len());
        for (old, h) in &base {
            let new = MethodId(inv[old.0 as usize]);
            prop_assert_eq!(shuffled[&new], *h, "hash moved with method {:?}", old);
        }
    }

    /// Backward-slice soundness: every reachable method from which a sink
    /// call site is transitively reachable over the call graph is a
    /// member of the vetting slice. (The converse — members that cannot
    /// reach a sink — is allowed: the slice over-approximates.)
    #[test]
    fn backward_slice_contains_every_sink_reaching_method(seed in 0u64..40) {
        use gdroid::ir::Stmt;
        use gdroid::vetting::{compute_vetting_slice, prepare_vetting, SourceSinkRegistry};
        let prep = prepare_vetting(generate_app(0, seed, &GenConfig::tiny()));
        let program = &prep.app.program;
        let registry = SourceSinkRegistry::for_program(program);
        let slice = compute_vetting_slice(&prep);
        let reachable: std::collections::HashSet<MethodId> =
            prep.cg.reachable_from(&prep.roots).into_iter().collect();

        // Sink methods recomputed independently of the slicer.
        let mut worklist: Vec<MethodId> = reachable
            .iter()
            .copied()
            .filter(|&m| {
                program.methods[m].body.iter().any(|stmt| {
                    matches!(stmt, Stmt::Call { sig, .. } if registry.sink_of(sig).is_some())
                })
            })
            .collect();

        // Ancestor closure over the reachable call graph.
        let mut callers: std::collections::HashMap<MethodId, Vec<MethodId>> = Default::default();
        for &m in &reachable {
            for &c in prep.cg.callees_of(m) {
                callers.entry(c).or_default().push(m);
            }
        }
        let mut must: std::collections::HashSet<MethodId> = worklist.iter().copied().collect();
        while let Some(m) = worklist.pop() {
            for &caller in callers.get(&m).map(Vec::as_slice).unwrap_or(&[]) {
                if must.insert(caller) {
                    worklist.push(caller);
                }
            }
        }
        for m in &must {
            prop_assert!(
                slice.members.contains(m),
                "sink-reaching method {:?} missing from slice", m
            );
        }
    }

    /// Alpha-renaming every local leaves the canonical hashes untouched:
    /// the hash folds variable *indices*, never their display names.
    #[test]
    fn canonical_hashes_ignore_local_names(seed in 0u64..200) {
        use gdroid::ir::VarId;
        let app = generate_app(0, seed, &GenConfig::tiny());
        let base = canonical_hashes_of(&app.program);

        let mut renamed = app.program.clone();
        let mut counter = 0usize;
        for mid in renamed.methods.indices() {
            for v in 0..renamed.methods[mid].vars.len() {
                let fresh = renamed.interner.intern(&format!("alpha_{counter}"));
                counter += 1;
                renamed.methods[mid].vars[VarId(v as u32)].name = fresh;
            }
        }
        prop_assert!(validate_program(&renamed).is_empty());
        prop_assert_eq!(canonical_hashes_of(&renamed), base);
    }
}

/// A store file as `SumStore::save` writes it: every method of one tiny
/// library-sharing app, from a real run.
fn store_file_bytes() -> &'static [u8] {
    use gdroid::vetting::{prepare_vetting, summary_store, vet_prepared, ExecPlan};
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(|| {
        let config = GenConfig::tiny().with_libraries(2, 2);
        let prep = prepare_vetting(generate_app(0, 77, &config));
        let store = summary_store(&prep, &vet_prepared(&prep, ExecPlan::default()).analysis);
        assert!(store.len() > 1, "the run must have solved several methods");
        let dir = hostile_store_dir("seed");
        store.save(&dir).unwrap();
        let bytes = std::fs::read(dir.join(gdroid::sumstore::persist::STORE_FILE)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        bytes
    })
}

fn hostile_store_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("gdroid-hostile-store-{}-{tag}", std::process::id()))
}

proptest! {
    /// ROADMAP 4b for the summary-store file: flip, truncate, splice or
    /// 0xFF-fill (a count field reading `u64::MAX`) anywhere in the body.
    /// With the checksum left stale the loader refuses the file; re-sealed,
    /// the edit reaches the field readers — entry count, string and vector
    /// lengths, `slots`/`insts`/`nodes`, word counts — and they answer
    /// `Ok` or `Err`, never a panic, through `decode` and `SumStore::open`
    /// alike.
    #[test]
    fn hostile_store_bytes_never_panic_the_loader(
        op in 0usize..4,
        a: usize,
        b: usize,
        byte: u8,
    ) {
        use gdroid::sumstore::{fnv1a, persist, SumStore};
        let good = store_file_bytes();
        let (good_body, good_crc) = good.split_at(good.len() - 8);
        let at = |i: usize| i % good_body.len();
        let mut body = good_body.to_vec();
        match op {
            0 => body[at(a)] ^= byte | 1,
            1 => body.truncate(at(a)),
            2 => {
                let (from, to) = (at(a), at(b));
                let end = (from + 1 + usize::from(byte)).min(good_body.len());
                body.splice(to..to, good_body[from..end].iter().copied());
            }
            _ => {
                let end = (at(a) + 1 + usize::from(byte % 16)).min(good_body.len());
                body[at(a)..end].fill(0xFF);
            }
        }
        if body != good_body {
            let stale = [&body[..], good_crc].concat();
            prop_assert!(persist::decode(&stale).is_err(), "op {op}: a stale checksum passed");
        }
        let resealed = [&body[..], &fnv1a(&body).to_le_bytes()[..]].concat();
        let decoded = persist::decode(&resealed);
        let dir = hostile_store_dir("case");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(persist::STORE_FILE), &resealed).unwrap();
        let opened = SumStore::open(&dir);
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(opened.map(|s| s.len()).ok(), decoded.map(|e| e.len()).ok());
    }
}
