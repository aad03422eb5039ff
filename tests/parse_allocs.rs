//! Host-cost pin for the `.jil` reader: parsing allocates per statement at
//! most, never per token. A counting global allocator makes it a count,
//! so the check needs no quiet machine. Kept in its own test binary: the
//! counter sees every allocation of the process.

use gdroid::apk::{Corpus, GenConfig, PAPER_MASTER_SEED};
use gdroid::ir::text::{parse_program, print_program};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Paper app 0 at scale 0.5 (the `serve_mixed` pool's first app): fewer
/// allocations than statements. A reader that builds a `String` per
/// identifier makes about two per token, seventeen times the bound.
#[test]
fn parsing_allocates_less_than_once_per_statement() {
    let corpus = Corpus {
        master_seed: PAPER_MASTER_SEED,
        size: 1,
        config: GenConfig { scale: 0.5, ..GenConfig::default() },
    };
    let app = corpus.generate(0);
    let stmts: usize = app.program.methods.iter().map(|m| m.len()).sum();
    let text = print_program(&app.program);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let parsed = parse_program(&text).expect("printed app parses");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(parsed.methods.len(), app.program.methods.len());
    assert!(
        allocations < stmts as u64,
        "parse_program made {allocations} allocations for {stmts} statements"
    );
    eprintln!("parse_program: {allocations} allocations, {stmts} statements");
}
