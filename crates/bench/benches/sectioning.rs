//! Throughput of the functional front-end: instructions sectioned per
//! second, comparing the streaming arena pipeline (machine → sectioner →
//! arena, one pass) against replaying an already-materialised trace
//! through the sectioner.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use parsecs_core::TraceArena;
use parsecs_machine::Machine;
use parsecs_workloads::scale;

fn bench_sectioning(c: &mut Criterion) {
    let mut group = c.benchmark_group("sectioning");
    let elements = 20_000;
    let fuel = scale::chain_sum_fuel(elements);
    let program = scale::chain_sum_program(elements, 7);
    let (outcome, trace) = Machine::load(&program)
        .expect("loads")
        .run_traced(fuel)
        .expect("halts");
    group.throughput(Throughput::Elements(trace.len() as u64));

    group.bench_with_input(
        BenchmarkId::new("streaming_from_program", elements),
        &program,
        |b, p| b.iter(|| TraceArena::from_program(p, fuel).unwrap()),
    );
    group.bench_with_input(
        BenchmarkId::new("sectioner_replay", elements),
        &trace,
        |b, t| b.iter(|| TraceArena::from_trace(t, outcome.outputs.clone())),
    );
    group.finish();
}

criterion_group!(benches, bench_sectioning);
criterion_main!(benches);
