//! Fact stores: the set-based structure of the original algorithm and the
//! MAT bitmask matrix that replaces it.
//!
//! Both stores hold, for every ICFG node of a method, the node's data-fact
//! set over the method's pre-determined pools. They are functionally
//! interchangeable (verified by tests and by the GPU/CPU cross-check); they
//! differ in representation:
//!
//! * [`SetStore`] — one hash set of packed facts per node, growing
//!   dynamically. This is the paper's baseline: every growth step is a
//!   (re)allocation, which is cheap on the CPU and catastrophic on the GPU.
//! * [`MatrixStore`] — one fixed-size bitmap per node over the
//!   `slots × instances` matrix. Equivalent to the paper's per-cell
//!   statement bitmasks (bit `(s,i)` of node `n` ⇔ cell `(s,i)` has bit `n`
//!   set); all updates are word-wise OR, no allocation ever.
//!
//! [`Geometry`] fixes the matrix dimensions; both stores report the memory
//! accounting behind the paper's Fig. 10.

use crate::fact::{Fact, InstanceIdx, MethodSpace, SlotIdx};
use std::collections::HashSet;

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

    /// Number of facts set.
    pub fn count(self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
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
    /// Whether the node's set grew.
    pub changed: bool,
    /// How many facts were newly inserted (set store: actual inserts;
    /// matrix store: popcount delta).
    pub inserted: usize,
    /// How many capacity growth events (reallocations) occurred — the
    /// dynamic-allocation driver of the paper's first bottleneck. Always 0
    /// for the matrix store.
    pub reallocations: usize,
}

/// Common interface of the two stores.
pub trait FactStore {
    /// Number of nodes.
    fn node_count(&self) -> usize;
    /// Matrix geometry.
    fn geometry(&self) -> Geometry;
    /// Materializes a node's facts as a bitmap (the transfer input).
    fn snapshot(&self, node: usize) -> NodeFacts;
    /// Unions a bitmap into a node's facts.
    fn union_into(&mut self, node: usize, facts: &NodeFacts) -> UnionOutcome;
    /// Inserts facts directly (seeding entry facts).
    fn seed(&mut self, node: usize, facts: &[Fact]);
    /// Facts currently stored at a node.
    fn fact_count(&self, node: usize) -> usize;
    /// Bytes of memory currently held — Fig. 10's metric.
    fn memory_bytes(&self) -> usize;
}

/// The original dynamically-growing set-based store.
#[derive(Clone, Debug, Default)]
pub struct SetStore {
    geometry: Geometry,
    sets: Vec<HashSet<u32>>,
    /// Cumulative reallocation events across the store's lifetime.
    pub total_reallocations: usize,
}

impl SetStore {
    /// Creates a store for `nodes` nodes.
    pub fn new(geometry: Geometry, nodes: usize) -> SetStore {
        SetStore { geometry, sets: vec![HashSet::new(); nodes], total_reallocations: 0 }
    }
}

impl FactStore for SetStore {
    fn node_count(&self) -> usize {
        self.sets.len()
    }

    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn snapshot(&self, node: usize) -> NodeFacts {
        let mut bm = NodeFacts::empty(self.geometry);
        for &raw in &self.sets[node] {
            bm.set(Fact::unpack(raw));
        }
        bm
    }

    fn union_into(&mut self, node: usize, facts: &NodeFacts) -> UnionOutcome {
        let set = &mut self.sets[node];
        let mut outcome = UnionOutcome::default();
        for fact in facts.iter() {
            let cap_before = set.capacity();
            if set.insert(fact.pack()) {
                outcome.inserted += 1;
                outcome.changed = true;
                if set.capacity() != cap_before {
                    outcome.reallocations += 1;
                }
            }
        }
        self.total_reallocations += outcome.reallocations;
        outcome
    }

    fn seed(&mut self, node: usize, facts: &[Fact]) {
        for &f in facts {
            self.sets[node].insert(f.pack());
        }
    }

    fn fact_count(&self, node: usize) -> usize {
        self.sets[node].len()
    }

    fn memory_bytes(&self) -> usize {
        // We charge the Amandroid-equivalent footprint: the Scala original
        // stores boxed `(slot, instance)` tuples in a `HashSet` — object
        // header (16 B) + tuple (24 B) + hash-table entry (~8 B) per
        // element of *capacity* (power-of-two growth leaves slack), plus
        // per-set table overhead.
        self.sets.iter().map(|s| 640 + s.capacity().max(s.len()) * 64).sum()
    }
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

    /// Direct read access to a node's bitmap (no copy).
    #[inline]
    pub fn node(&self, node: usize) -> NodeView<'_> {
        let per = self.geometry.words();
        NodeView { geometry: self.geometry, words: &self.words[node * per..(node + 1) * per] }
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
    /// `nodes × geometry.words()`.
    pub fn from_flat_words(geometry: Geometry, nodes: usize, words: &[u64]) -> Option<MatrixStore> {
        (words.len() == nodes * geometry.words()).then(|| MatrixStore {
            geometry,
            nodes,
            words: words.to_vec(),
        })
    }
}

impl FactStore for MatrixStore {
    fn node_count(&self) -> usize {
        self.nodes
    }

    fn geometry(&self) -> Geometry {
        self.geometry
    }

    fn snapshot(&self, node: usize) -> NodeFacts {
        self.node(node).to_owned()
    }

    fn union_into(&mut self, node: usize, facts: &NodeFacts) -> UnionOutcome {
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
        UnionOutcome { changed: inserted > 0, inserted, reallocations: 0 }
    }

    fn seed(&mut self, node: usize, facts: &[Fact]) {
        let base = node * self.geometry.words();
        for &f in facts {
            let bit = self.geometry.bit_of(f);
            self.words[base + bit / 64] |= 1 << (bit % 64);
        }
    }

    fn fact_count(&self, node: usize) -> usize {
        self.node(node).count()
    }

    fn memory_bytes(&self) -> usize {
        self.words.len() * 8
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

    #[test]
    fn union_detects_change() {
        let mut a = NodeFacts::empty(geo());
        let mut b = NodeFacts::empty(geo());
        b.set(Fact { slot: 1, instance: 1 });
        assert!(a.union(&b));
        assert!(!a.union(&b), "second union is a no-op");
        assert_eq!(a.count(), 1);
    }

    fn store_contract(mut store: impl FactStore) {
        let g = store.geometry();
        let seedf = [Fact { slot: 0, instance: 0 }];
        store.seed(0, &seedf);
        assert_eq!(store.fact_count(0), 1);

        let mut incoming = NodeFacts::empty(g);
        incoming.set(Fact { slot: 1, instance: 2 });
        incoming.set(Fact { slot: 0, instance: 0 }); // already there
        let out = store.union_into(0, &incoming);
        assert!(out.changed);
        assert_eq!(out.inserted, 1);
        assert_eq!(store.fact_count(0), 2);

        let out2 = store.union_into(0, &incoming);
        assert!(!out2.changed);
        assert_eq!(out2.inserted, 0);

        // Snapshot reflects everything.
        let snap = store.snapshot(0);
        assert!(snap.get(Fact { slot: 0, instance: 0 }));
        assert!(snap.get(Fact { slot: 1, instance: 2 }));
        assert_eq!(snap.count(), 2);

        assert!(store.memory_bytes() > 0);
    }

    #[test]
    fn set_store_contract() {
        store_contract(SetStore::new(geo(), 4));
    }

    #[test]
    fn matrix_store_contract() {
        store_contract(MatrixStore::new(geo(), 4));
    }

    #[test]
    fn stores_agree_after_identical_operations() {
        let g = geo();
        let mut set = SetStore::new(g, 3);
        let mut mat = MatrixStore::new(g, 3);
        let seeds = [Fact { slot: 2, instance: 2 }];
        set.seed(1, &seeds);
        mat.seed(1, &seeds);
        let mut inc = NodeFacts::empty(g);
        inc.set(Fact { slot: 7, instance: 3 });
        inc.set(Fact { slot: 2, instance: 2 });
        let o1 = set.union_into(1, &inc);
        let o2 = mat.union_into(1, &inc);
        assert_eq!(o1.changed, o2.changed);
        assert_eq!(o1.inserted, o2.inserted);
        let s1: Vec<Fact> = {
            let mut v: Vec<Fact> = set.snapshot(1).iter().collect();
            v.sort();
            v
        };
        let s2: Vec<Fact> = {
            let mut v: Vec<Fact> = mat.snapshot(1).iter().collect();
            v.sort();
            v
        };
        assert_eq!(s1, s2);
    }

    #[test]
    fn matrix_memory_is_fixed_set_memory_grows() {
        let g = Geometry { slots: 50, insts: 20 };
        let mut set = SetStore::new(g, 10);
        let mat = MatrixStore::new(g, 10);
        let mat_bytes = mat.memory_bytes();
        let set_bytes_empty = set.memory_bytes();
        // Fill one node's set heavily.
        let mut inc = NodeFacts::empty(g);
        for s in 0..50u16 {
            for i in 0..20u16 {
                inc.set(Fact { slot: s, instance: i });
            }
        }
        set.union_into(0, &inc);
        assert!(set.memory_bytes() > set_bytes_empty);
        assert!(set.total_reallocations > 0, "hash set growth should reallocate");
        // Matrix memory does not change with content.
        assert_eq!(mat.memory_bytes(), mat_bytes);
    }
}
