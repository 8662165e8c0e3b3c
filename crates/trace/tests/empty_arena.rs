//! The empty arena is well-formed however it is built.

use parsecs_check::check_arena;
use parsecs_trace::TraceArena;

#[test]
fn the_default_arena_is_the_empty_arena_and_passes_validation() {
    let arena = TraceArena::default();
    assert_eq!(arena, TraceArena::new());
    assert!(arena.is_empty());
    let report = check_arena(&arena);
    assert!(report.is_clean(), "{:?}", report.first_violation());
}
