//! The fact store: the MAT bitmask matrix that replaces the original
//! algorithm's growing hash sets, and a replay of those sets' growth.
//!
//! * [`MatrixStore`] — one fixed-size bitmap per ICFG node of a method over
//!   the `slots × instances` matrix of its pre-determined pools. Equivalent
//!   to the paper's per-cell statement bitmasks (bit `(s,i)` of node `n` ⇔
//!   cell `(s,i)` has bit `n` set); all updates are word-wise OR, no
//!   allocation ever. Every engine solves into it.
//! * [`SetGrowth`] — the paper's baseline kept one hash set of facts per
//!   node, growing dynamically: every growth step is a (re)allocation,
//!   which is cheap on the CPU and catastrophic on the GPU. The sets would
//!   hold the same facts as the bitmaps, so only their growth is replayed,
//!   from the bitmaps, for the Amandroid baselines' counters.
//!
//! [`Geometry`] fixes the matrix dimensions; both types report the memory
//! accounting behind the paper's Fig. 10.

use crate::fact::{Fact, InstanceIdx, MethodSpace, SlotIdx};

/// Matrix geometry of one method: rows × columns and derived word counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Geometry {
    /// Slot count (rows).
    pub slots: usize,
    /// Instance count (columns).
    pub insts: usize,
}

impl Geometry {
    /// Geometry of a method space.
    pub fn of(space: &MethodSpace) -> Geometry {
        Geometry { slots: space.slot_count(), insts: space.instance_count() }
    }

    /// Bits per node bitmap.
    #[inline]
    pub fn bits(&self) -> usize {
        self.slots * self.insts
    }

    /// `u64` words per node bitmap.
    #[inline]
    pub fn words(&self) -> usize {
        self.bits().div_ceil(64)
    }

    /// Flat bit position of a fact.
    #[inline]
    pub fn bit_of(&self, fact: Fact) -> usize {
        usize::from(fact.slot) * self.insts + usize::from(fact.instance)
    }
}

/// A word whose lowest `n` bits are set (all of them from 64 on).
#[inline]
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        !0
    } else {
        (1 << n) - 1
    }
}

/// Bit indices set in `words[start..end)`, ascending; all-zero words cost
/// one test each.
fn set_bits(words: &[u64], start: usize, end: usize) -> impl Iterator<Item = usize> + '_ {
    let mut wi = start / 64;
    let mut cur = if start < end { words[wi] & (!0 << (start % 64)) } else { 0 };
    std::iter::from_fn(move || loop {
        if cur != 0 {
            let bit = wi * 64 + cur.trailing_zeros() as usize;
            cur &= cur - 1;
            // Bits ascend, so the first one past `end` ends the walk.
            return (bit < end).then_some(bit);
        }
        wi += 1;
        if wi * 64 >= end {
            return None;
        }
        cur = words[wi];
    })
}

/// A borrowed node bitmap: what [`MatrixStore::node`] lends and what every
/// read of a [`NodeFacts`] goes through.
#[derive(Clone, Copy, Debug)]
pub struct NodeView<'a> {
    geometry: Geometry,
    words: &'a [u64],
}

impl<'a> NodeView<'a> {
    /// Raw words (for GPU buffer transfer).
    #[inline]
    pub fn words(self) -> &'a [u64] {
        self.words
    }

    /// Tests a fact.
    #[inline]
    pub fn get(self, fact: Fact) -> bool {
        let bit = self.geometry.bit_of(fact);
        self.words[bit / 64] & (1 << (bit % 64)) != 0
    }

    /// Iterates the instances present in a slot row.
    pub fn row(self, slot: SlotIdx) -> impl Iterator<Item = InstanceIdx> + 'a {
        let start = usize::from(slot) * self.geometry.insts;
        set_bits(self.words, start, start + self.geometry.insts)
            .map(move |bit| (bit - start) as InstanceIdx)
    }

    /// Instances `first..first + 64` of a slot row as one word (bit `j` =
    /// instance `first + j`), zero past the row's end.
    #[inline]
    pub fn row_word(self, slot: SlotIdx, first: usize) -> u64 {
        let insts = self.geometry.insts;
        let (bit, width) = (usize::from(slot) * insts + first, insts.saturating_sub(first));
        let (w, shift) = (bit / 64, bit % 64);
        let mut word = self.words.get(w).map_or(0, |&x| x >> shift);
        if shift != 0 {
            word |= self.words.get(w + 1).map_or(0, |&x| x << (64 - shift));
        }
        word & low_bits(width)
    }

    /// Number of facts set.
    pub fn count(self) -> usize {
        // Most words of a sparse bitmap are zero; skip their popcount.
        self.words.iter().filter(|&&w| w != 0).map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the flat bit positions ([`Geometry::bit_of`]) of all facts
    /// set, ascending.
    pub fn bits(self) -> impl Iterator<Item = usize> + 'a {
        set_bits(self.words, 0, self.geometry.bits())
    }

    /// Iterates all facts set.
    pub fn iter(self) -> impl Iterator<Item = Fact> + 'a {
        let insts = self.geometry.insts;
        self.bits().map(move |bit| Fact {
            slot: (bit / insts) as SlotIdx,
            instance: (bit % insts) as InstanceIdx,
        })
    }

    /// Copies the bitmap out.
    pub fn to_owned(self) -> NodeFacts {
        NodeFacts { geometry: self.geometry, words: self.words.to_vec() }
    }
}

/// One node's facts as a fixed-size bitmap — the unit the transfer
/// functions operate on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeFacts {
    geometry: Geometry,
    words: Vec<u64>,
}

impl NodeFacts {
    /// An empty bitmap for the geometry.
    pub fn empty(geometry: Geometry) -> NodeFacts {
        NodeFacts { geometry, words: vec![0; geometry.words()] }
    }

    /// The read-only view every query below goes through.
    #[inline]
    pub fn view(&self) -> NodeView<'_> {
        NodeView { geometry: self.geometry, words: &self.words }
    }

    /// Overwrites this bitmap with `src`, keeping the allocation.
    pub fn assign(&mut self, src: NodeView<'_>) {
        self.geometry = src.geometry;
        self.words.clear();
        self.words.extend_from_slice(src.words);
    }

    /// Overwrites this bitmap with `a | b`, keeping the allocation, and
    /// returns the facts in `a` and in `b` — one pass for the three.
    pub fn assign_union(&mut self, a: NodeView<'_>, b: NodeView<'_>) -> (usize, usize) {
        debug_assert_eq!(a.geometry, b.geometry);
        self.geometry = a.geometry;
        self.words.resize(a.words.len(), 0);
        let (mut in_a, mut in_b) = (0, 0);
        for ((w, &x), &y) in self.words.iter_mut().zip(a.words).zip(b.words) {
            *w = x | y;
            // Most words of a sparse bitmap are zero; skip their popcount.
            if *w != 0 {
                in_a += x.count_ones() as usize;
                in_b += y.count_ones() as usize;
            }
        }
        (in_a, in_b)
    }

    /// The geometry.
    #[inline]
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Raw words (for GPU buffer transfer).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Sets a fact; returns whether it was newly set.
    #[inline]
    pub fn set(&mut self, fact: Fact) -> bool {
        let bit = self.geometry.bit_of(fact);
        let w = &mut self.words[bit / 64];
        let mask = 1u64 << (bit % 64);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Tests a fact.
    #[inline]
    pub fn get(&self, fact: Fact) -> bool {
        self.view().get(fact)
    }

    /// Clears an entire slot row (strong update / kill).
    pub fn clear_row(&mut self, slot: SlotIdx) {
        let insts = self.geometry.insts;
        if insts == 0 {
            return;
        }
        let start = usize::from(slot) * insts;
        let last = start + insts - 1;
        let (first_word, last_word) = (start / 64, last / 64);
        let head = !0u64 << (start % 64);
        let tail = !0u64 >> (63 - last % 64);
        if first_word == last_word {
            self.words[first_word] &= !(head & tail);
        } else {
            self.words[first_word] &= !head;
            self.words[first_word + 1..last_word].fill(0);
            self.words[last_word] &= !tail;
        }
    }

    /// Iterates the instances present in a slot row.
    pub fn row(&self, slot: SlotIdx) -> impl Iterator<Item = InstanceIdx> + '_ {
        self.view().row(slot)
    }

    /// ORs `word` into instances `first..first + 64` of a slot row — the
    /// inverse of [`NodeView::row_word`]; bits past the row's end are
    /// dropped.
    #[inline]
    pub fn or_row_word(&mut self, slot: SlotIdx, first: usize, word: u64) {
        let insts = self.geometry.insts;
        let word = word & low_bits(insts.saturating_sub(first));
        if word == 0 {
            return;
        }
        let bit = usize::from(slot) * insts + first;
        let (w, shift) = (bit / 64, bit % 64);
        self.words[w] |= word << shift;
        if shift != 0 && word >> (64 - shift) != 0 {
            self.words[w + 1] |= word >> (64 - shift);
        }
    }

    /// Unions another bitmap in; returns whether anything changed.
    pub fn union(&mut self, other: &NodeFacts) -> bool {
        debug_assert_eq!(self.geometry, other.geometry);
        let mut changed = false;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let merged = *w | o;
            changed |= merged != *w;
            *w = merged;
        }
        changed
    }

    /// Number of facts set.
    pub fn count(&self) -> usize {
        self.view().count()
    }

    /// Iterates all facts set.
    pub fn iter(&self) -> impl Iterator<Item = Fact> + '_ {
        self.view().iter()
    }
}

/// Outcome of merging an out-set into a node's stored facts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UnionOutcome {
    /// Whether the node's bitmap gained a bit.
    pub changed: bool,
    /// How many facts were newly inserted: the popcount delta.
    pub inserted: usize,
}

/// The MAT bitmask-matrix store.
#[derive(Clone, Debug)]
pub struct MatrixStore {
    geometry: Geometry,
    nodes: usize,
    /// Every node's bitmap back to back, `geometry.words()` words each.
    words: Vec<u64>,
}

impl MatrixStore {
    /// Creates a store for `nodes` nodes — one fixed allocation, up front.
    pub fn new(geometry: Geometry, nodes: usize) -> MatrixStore {
        MatrixStore { geometry, nodes, words: vec![0; nodes * geometry.words()] }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Matrix geometry.
    pub fn geometry(&self) -> Geometry {
        self.geometry
    }

    /// Direct read access to a node's bitmap (no copy).
    #[inline]
    pub fn node(&self, node: usize) -> NodeView<'_> {
        let per = self.geometry.words();
        NodeView { geometry: self.geometry, words: &self.words[node * per..(node + 1) * per] }
    }

    /// Copies a node's bitmap out (the transfer input).
    pub fn snapshot(&self, node: usize) -> NodeFacts {
        self.node(node).to_owned()
    }

    /// ORs a bitmap into a node's facts.
    pub fn union_into(&mut self, node: usize, facts: &NodeFacts) -> UnionOutcome {
        debug_assert_eq!(self.geometry, facts.geometry);
        let per = self.geometry.words();
        let mut inserted = 0;
        for (w, &o) in self.words[node * per..(node + 1) * per].iter_mut().zip(&facts.words) {
            let fresh = o & !*w;
            // Most words bring nothing new; skip their popcount.
            if fresh != 0 {
                inserted += fresh.count_ones() as usize;
                *w |= o;
            }
        }
        UnionOutcome { changed: inserted > 0, inserted }
    }

    /// Sets facts directly (seeding entry facts).
    pub fn seed(&mut self, node: usize, facts: &[Fact]) {
        let base = node * self.geometry.words();
        for &f in facts {
            let bit = self.geometry.bit_of(f);
            self.words[base + bit / 64] |= 1 << (bit % 64);
        }
    }

    /// Facts currently stored at a node.
    pub fn fact_count(&self, node: usize) -> usize {
        self.node(node).count()
    }

    /// Bytes held — Fig. 10's MAT footprint, fixed at construction.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Every node bitmap in one row-major word vector — the relocatable
    /// form the summary store persists (bit positions are purely
    /// positional, so no translation is needed across programs with
    /// structurally identical bodies).
    pub fn flat_words(&self) -> Vec<u64> {
        self.words.clone()
    }

    /// Inverse of [`MatrixStore::flat_words`]: rebuilds a store from
    /// flattened words. `None` when the word count does not match
    /// `nodes × geometry.words()`, or when a node's last word sets a bit at
    /// or above `geometry.bits()` — such a bit is no fact, yet every
    /// popcount and bit walk over the node would count it.
    pub fn from_flat_words(geometry: Geometry, nodes: usize, words: &[u64]) -> Option<MatrixStore> {
        let per = geometry.words();
        if words.len() != nodes * per {
            return None;
        }
        let used = geometry.bits() % 64;
        if used != 0 {
            let padding = !0u64 << used;
            if words.chunks_exact(per).any(|node| node[per - 1] & padding != 0) {
                return None;
            }
        }
        Some(MatrixStore { geometry, nodes, words: words.to_vec() })
    }
}

/// The original algorithm's per-node hash sets, replayed over a matrix
/// solve: each node's length and the capacity std's `HashSet` reaches
/// when the same facts are inserted one attempt at a time (a seed's in
/// slice order, a union's in ascending bit order). A set only grows, so
/// the sets themselves are never built.
#[derive(Clone, Debug)]
pub struct SetGrowth {
    /// Per node: (facts held, capacity).
    sets: Vec<(usize, usize)>,
}

impl SetGrowth {
    /// `nodes` empty sets, none allocated yet.
    pub fn new(nodes: usize) -> SetGrowth {
        SetGrowth { sets: vec![(0, 0); nodes] }
    }

    /// std's `HashSet` capacity one growth step after `cap`: 0 → 3 → 7,
    /// then doubling (power-of-two bucket counts at a 7/8 load factor).
    fn grown(cap: usize) -> usize {
        match cap {
            0 => 3,
            3 => 7,
            cap => 2 * cap,
        }
    }

    /// One insert attempt at `node`; returns whether the set grew. std
    /// reserves room before it looks the value up, so an attempt on a
    /// full set grows it whether or not the fact is new.
    fn attempt(&mut self, node: usize, fresh: bool) -> bool {
        let (len, cap) = &mut self.sets[node];
        let grew = *len == *cap;
        if grew {
            *cap = SetGrowth::grown(*cap);
        }
        *len += usize::from(fresh);
        grew
    }

    /// Replays [`MatrixStore::seed`] of `facts`, which hold no repeats
    /// (entry facts do not), into `stored` (read before the seed). A seed
    /// counts no reallocation.
    pub fn seed(&mut self, node: usize, stored: NodeView<'_>, facts: &[Fact]) {
        for &fact in facts {
            self.attempt(node, !stored.get(fact));
        }
    }

    /// Replays [`MatrixStore::union_into`] of `out` into `stored` (read
    /// before the union); returns the reallocations the baseline counts.
    ///
    /// Only a growth on a new fact counts: a growth on a duplicate goes
    /// uncounted, and the next new fact then finds room, so that growth is
    /// never charged. The rule is kept for bit-equality with the committed
    /// figures, which were measured on real `HashSet`s. Unless the new
    /// facts can fill the set, no attempt grows it, and the bits are not
    /// walked.
    pub fn union(&mut self, node: usize, stored: NodeView<'_>, out: NodeView<'_>) -> usize {
        let new_bits = |(o, s): (&u64, &u64)| (o & !s).count_ones() as usize;
        let new: usize = out.words.iter().zip(stored.words).map(new_bits).sum();
        let (len, cap) = &mut self.sets[node];
        if new < *cap - *len {
            *len += new;
            return 0;
        }
        out.bits()
            .filter(|&bit| {
                let fresh = stored.words[bit / 64] & (1 << (bit % 64)) == 0;
                self.attempt(node, fresh) && fresh
            })
            .count()
    }

    /// Bytes the sets hold — Fig. 10's baseline footprint. The Scala
    /// original boxes `(slot, instance)` tuples: object header (16 B) +
    /// tuple (24 B) + table entry (~8 B) per element of *capacity*, plus
    /// per-set table overhead.
    pub fn memory_bytes(&self) -> usize {
        self.sets.iter().map(|&(_, cap)| 640 + 64 * cap).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo() -> Geometry {
        Geometry { slots: 10, insts: 7 }
    }

    #[test]
    fn geometry_word_math() {
        let g = geo();
        assert_eq!(g.bits(), 70);
        assert_eq!(g.words(), 2);
        assert_eq!(g.bit_of(Fact { slot: 0, instance: 0 }), 0);
        assert_eq!(g.bit_of(Fact { slot: 1, instance: 0 }), 7);
        assert_eq!(g.bit_of(Fact { slot: 9, instance: 6 }), 69);
    }

    #[test]
    fn bitmap_set_get_clear() {
        let mut bm = NodeFacts::empty(geo());
        let f = Fact { slot: 3, instance: 2 };
        assert!(!bm.get(f));
        assert!(bm.set(f));
        assert!(!bm.set(f), "second set is not fresh");
        assert!(bm.get(f));
        assert_eq!(bm.count(), 1);
        bm.clear_row(3);
        assert!(!bm.get(f));
        assert_eq!(bm.count(), 0);
    }

    #[test]
    fn bitmap_row_iteration() {
        let mut bm = NodeFacts::empty(geo());
        bm.set(Fact { slot: 2, instance: 1 });
        bm.set(Fact { slot: 2, instance: 5 });
        bm.set(Fact { slot: 3, instance: 0 });
        assert_eq!(bm.row(2).collect::<Vec<_>>(), [1, 5]);
        assert_eq!(bm.row(3).collect::<Vec<_>>(), [0]);
        assert_eq!(bm.row(4).count(), 0);
    }

    #[test]
    fn bitmap_iter_matches_sets() {
        let mut bm = NodeFacts::empty(geo());
        let facts = [
            Fact { slot: 0, instance: 0 },
            Fact { slot: 6, instance: 6 },
            Fact { slot: 9, instance: 1 },
        ];
        for f in facts {
            bm.set(f);
        }
        let mut collected: Vec<Fact> = bm.iter().collect();
        collected.sort();
        let mut expected = facts.to_vec();
        expected.sort();
        assert_eq!(collected, expected);
    }

    /// Row words read and write exactly a row's instances, for rows that
    /// straddle words and rows wider than one word.
    #[test]
    fn row_words_match_the_row_iterator() {
        for geometry in [geo(), Geometry { slots: 5, insts: 150 }, Geometry { slots: 3, insts: 64 }]
        {
            let insts = geometry.insts;
            let mut bm = NodeFacts::empty(geometry);
            for bit in (0..geometry.bits()).filter(|b| b % 3 == 0 || b % 7 == 1) {
                bm.set(Fact { slot: (bit / insts) as u16, instance: (bit % insts) as u16 });
            }
            for slot in 0..geometry.slots as u16 {
                let mut copy = NodeFacts::empty(geometry);
                for first in (0..insts).step_by(64) {
                    let width = (insts - first).min(64);
                    let expected = (0..width)
                        .filter(|&j| bm.get(Fact { slot, instance: (first + j) as u16 }))
                        .fold(0u64, |w, j| w | 1 << j);
                    let word = bm.view().row_word(slot, first);
                    assert_eq!(word, expected, "{geometry:?} row {slot} from {first}");
                    // Bits past the row's end are dropped.
                    let past_end = if width < 64 { !0 << width } else { 0 };
                    copy.or_row_word(slot, first, word | past_end);
                }
                for s in 0..geometry.slots as u16 {
                    let want: Vec<_> = if s == slot { bm.row(s).collect() } else { Vec::new() };
                    assert_eq!(copy.row(s).collect::<Vec<_>>(), want, "{geometry:?} row {slot}");
                }
            }
        }
    }

    #[test]
    fn union_detects_change() {
        let mut a = NodeFacts::empty(geo());
        let mut b = NodeFacts::empty(geo());
        b.set(Fact { slot: 1, instance: 1 });
        assert!(a.union(&b));
        assert!(!a.union(&b), "second union is a no-op");
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn matrix_store_contract() {
        let mut store = MatrixStore::new(geo(), 4);
        let bytes = store.memory_bytes();
        let seedf = [Fact { slot: 0, instance: 0 }];
        store.seed(0, &seedf);
        assert_eq!(store.fact_count(0), 1);

        let mut incoming = NodeFacts::empty(store.geometry());
        incoming.set(Fact { slot: 1, instance: 2 });
        incoming.set(Fact { slot: 0, instance: 0 }); // already there
        let out = store.union_into(0, &incoming);
        assert_eq!(out, UnionOutcome { changed: true, inserted: 1 });
        assert_eq!(store.fact_count(0), 2);
        assert_eq!(store.union_into(0, &incoming), UnionOutcome::default());

        // Snapshot reflects everything.
        let snap = store.snapshot(0);
        assert!(snap.get(Fact { slot: 0, instance: 0 }));
        assert!(snap.get(Fact { slot: 1, instance: 2 }));
        assert_eq!(snap.count(), 2);

        // Matrix memory does not change with content.
        assert_eq!(store.memory_bytes(), bytes);
        assert_eq!(bytes, 4 * 2 * 8);
    }

    /// Facts at flat bits `bits` of [`geo`].
    fn facts(bits: &[usize]) -> Vec<Fact> {
        bits.iter()
            .map(|&b| Fact { slot: (b / 7) as SlotIdx, instance: (b % 7) as InstanceIdx })
            .collect()
    }

    /// A matrix store and its replayed sets, driven the way the solver
    /// drives them: replay against the bits stored before each write.
    struct Replayed {
        store: MatrixStore,
        growth: SetGrowth,
    }

    impl Replayed {
        fn new() -> Replayed {
            Replayed { store: MatrixStore::new(geo(), 1), growth: SetGrowth::new(1) }
        }

        fn seed(&mut self, bits: &[usize]) {
            self.growth.seed(0, self.store.node(0), &facts(bits));
            self.store.seed(0, &facts(bits));
        }

        /// Returns the counted reallocations.
        fn union(&mut self, bits: &[usize]) -> usize {
            let mut out = NodeFacts::empty(geo());
            for f in facts(bits) {
                out.set(f);
            }
            let counted = self.growth.union(0, self.store.node(0), out.view());
            self.store.union_into(0, &out);
            counted
        }

        /// (facts held, capacity).
        fn set(&self) -> (usize, usize) {
            assert_eq!(self.growth.sets[0].0, self.store.fact_count(0), "length drifted");
            self.growth.sets[0]
        }
    }

    #[test]
    fn set_growth_follows_the_std_schedule() {
        let caps: Vec<usize> =
            std::iter::successors(Some(0), |&c| Some(SetGrowth::grown(c))).take(7).collect();
        assert_eq!(caps, [0, 3, 7, 14, 28, 56, 112]);

        // New facts one union at a time: each growth is counted.
        let mut r = Replayed::new();
        let counted: Vec<usize> = (0..30).map(|bit| r.union(&[bit])).collect();
        let grew: Vec<usize> = (0..30).filter(|&i| counted[i] == 1).collect();
        assert_eq!(grew, [0, 3, 7, 14, 28]);
        assert_eq!(r.set(), (30, 56));
        assert_eq!(r.growth.memory_bytes(), 640 + 64 * 56);

        // All of them in one union: the same growths, the same capacity.
        let mut once = Replayed::new();
        assert_eq!(once.union(&(0..30).collect::<Vec<_>>()), 5);
        assert_eq!(once.set(), (30, 56));
    }

    #[test]
    fn a_duplicate_into_a_full_set_grows_it_uncounted() {
        let mut r = Replayed::new();
        r.seed(&[0, 1, 2]);
        assert_eq!(r.set(), (3, 3));
        // Bit 0 is a duplicate and comes first: it grows the full set, and
        // the new bit 5 then finds room. Neither growth is counted.
        assert_eq!(r.union(&[0, 5]), 0);
        assert_eq!(r.set(), (4, 7));
        // Had the new bit come first, its growth would have counted.
        let mut r = Replayed::new();
        r.seed(&[1, 2, 3]);
        assert_eq!(r.union(&[0, 1]), 1);
        assert_eq!(r.set(), (4, 7));
    }

    #[test]
    fn seeding_grows_sets_and_counts_nothing() {
        let mut r = Replayed::new();
        r.seed(&[4, 9, 11]);
        assert_eq!(r.set(), (3, 3));
        // A duplicate seed into the full set still grows it.
        r.seed(&[4]);
        assert_eq!(r.set(), (3, 7));
        r.seed(&[20, 21, 22, 23]);
        assert_eq!(r.set(), (7, 7));
        assert_eq!(r.union(&[30]), 1);
        assert_eq!(r.set(), (8, 14));
    }

    #[test]
    fn filling_a_set_exactly_lets_a_trailing_duplicate_grow_it() {
        let mut r = Replayed::new();
        r.seed(&[10, 11, 12, 13]);
        assert_eq!(r.set(), (4, 7));
        // Three new bits fill the set exactly (new == cap - len); the
        // duplicate bit 13 after them grows it, uncounted.
        assert_eq!(r.union(&[0, 1, 2, 13]), 0);
        assert_eq!(r.set(), (7, 14));
        // So the next new fact finds room.
        assert_eq!(r.union(&[3]), 0);
        assert_eq!(r.set(), (8, 14));
        // Without the trailing duplicate the set stays full, and the next
        // new fact's growth counts.
        let mut r = Replayed::new();
        r.seed(&[10, 11, 12, 13]);
        assert_eq!(r.union(&[0, 1, 2]), 0);
        assert_eq!(r.set(), (7, 7));
        assert_eq!(r.union(&[3]), 1);
        assert_eq!(r.set(), (8, 14));
    }
}
