//! The compiler's allocation count: a deterministic cost counter beside
//! the benchmark's wall clock. One sweep compiles the ten Figure-9 apps
//! stage by stage — parse, check, elaborate, layout, P4, verified O2
//! bytecode — and counts the heap allocations each stage makes on this
//! test's thread. The count is a pure function of the compiler and the
//! sources, identical on every run, so a stage that starts copying what
//! an earlier stage already built shows here even when the host is too
//! noisy for `compile_apps` to tell.
//!
//! `cargo test -p lucid-tests --test compile_allocations -- --nocapture`
//! prints the per-stage table. The ceiling is today's count plus a
//! small margin; raise it only with a reason recorded next to it.
//!
//! The one test lives alone in this binary: the counting allocator is
//! process-wide, and although it counts only on the thread that switched
//! it on, a second test here would have no reason to pay for it.

use lucid_core::interp::CompiledProg;
use lucid_core::{Compiler, OptLevel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting every allocation and reallocation (and the bytes
/// asked for) made on a thread that has switched counting on.
struct Counting;

fn note(size: usize) {
    // `try_with`: an allocation during thread teardown must not panic.
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes made on this thread while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a0, b0) = (ALLOCS.with(Cell::get), BYTES.with(Cell::get));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get) - a0, BYTES.with(Cell::get) - b0)
}

const STAGES: [&str; 6] = ["parse", "check", "elaborate", "layout", "p4", "bytecode"];

/// Allocations one sweep of the ten apps may make: the 16 915 it makes,
/// plus 3 %. Copying a stage's input instead of reading it in place (a
/// token per `bump`, the AST per check) costs hundreds to thousands.
const MAX_ALLOCS: u64 = 17_400;

#[test]
fn one_compile_sweep_stays_under_its_allocation_ceiling() {
    let compiler = Compiler::new();
    let mut allocs = [0u64; STAGES.len()];
    let mut bytes = [0u64; STAGES.len()];
    for app in lucid_apps::all() {
        let mut tally = |stage: usize, (ok, a, b): (bool, u64, u64)| {
            assert!(ok, "{}: the {} stage failed", app.key, STAGES[stage]);
            allocs[stage] += a;
            bytes[stage] += b;
        };
        // Opening the session copies the source and indexes its lines:
        // front-end work, counted with parse.
        let (mut build, a, b) = counted(|| compiler.build(app.key, app.source));
        let (ok, a2, b2) = counted(|| build.ast().is_ok());
        tally(0, (ok, a + a2, b + b2));
        tally(1, counted(|| build.checked().is_ok()));
        tally(2, counted(|| build.handlers().is_ok()));
        tally(3, counted(|| build.layout().is_ok()));
        tally(4, counted(|| build.p4().is_ok()));
        let prog = build.checked().expect("checked above");
        tally(
            5,
            counted(|| CompiledProg::compile_verified(prog, OptLevel::O2).is_ok()),
        );
    }
    println!("{:<10} {:>8} {:>10}", "stage", "allocs", "bytes");
    for (i, stage) in STAGES.iter().enumerate() {
        println!("{stage:<10} {:>8} {:>10}", allocs[i], bytes[i]);
    }
    let total: u64 = allocs.iter().sum();
    println!(
        "{:<10} {total:>8} {:>10}",
        "total",
        bytes.iter().sum::<u64>()
    );
    assert!(
        total <= MAX_ALLOCS,
        "one sweep of the ten apps made {total} allocations, over the ceiling of \
         {MAX_ALLOCS}: a stage has started copying what an earlier one built"
    );
}
