//! Microbenchmarks of the runtime substrate: scheduler queues, the
//! symbolic tracker, the event queue, the processor-sharing resource, and
//! whole-engine task throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dcsim::{EventQueue, PsResource};
use parsec_rt::sched::ReadyQueue;
use parsec_rt::{NativeRuntime, SchedPolicy};
use ptg::{Activity, Dep, GraphCtx, Payload, PlainCtx, TaskClass, TaskGraph, TaskKey};
use std::hint::black_box;
use std::sync::Arc;

fn bench_ready_queue(c: &mut Criterion) {
    let n = 10_000u64;
    let mut g = c.benchmark_group("ready_queue");
    g.throughput(Throughput::Elements(n));
    g.bench_function("push_pop_10k_prio", |b| {
        b.iter(|| {
            let mut q = ReadyQueue::new(SchedPolicy::PriorityFifo);
            for i in 0..n {
                q.push(TaskKey::new(0, &[i as i64]), (i % 100) as i64);
            }
            while let Some(k) = q.pop() {
                black_box(k);
            }
        })
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let n = 10_000u64;
    let mut g = c.benchmark_group("event_queue");
    g.throughput(Throughput::Elements(n));
    g.bench_function("post_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.post(i * 7 % 1000, i);
            }
            while let Some(e) = q.pop() {
                black_box(e);
            }
        })
    });
    g.finish();
}

fn bench_ps_resource(c: &mut Criterion) {
    let n = 1_000u64;
    let mut g = c.benchmark_group("ps_resource");
    g.throughput(Throughput::Elements(n));
    g.bench_function("submit_drain_1k", |b| {
        b.iter(|| {
            let mut ps = PsResource::new(8.0);
            for i in 0..n {
                ps.submit(i, 100.0 + i as f64);
            }
            while let Some((t, gen)) = ps.poll() {
                black_box(ps.tick(t, gen));
            }
        })
    });
    g.finish();
}

/// A wide fan-out graph of trivial tasks: measures pure dispatch overhead
/// of the native engine (tasks/second).
struct Trivial {
    n: i64,
}
impl TaskClass for Trivial {
    fn name(&self) -> &str {
        "T"
    }
    fn num_flows(&self) -> usize {
        1
    }
    fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
        for i in 0..self.n {
            out.push(TaskKey::new(0, &[i]));
        }
    }
    fn num_inputs(&self, _k: TaskKey, _c: &dyn GraphCtx) -> usize {
        0
    }
    fn successors(&self, _k: TaskKey, _c: &dyn GraphCtx, _out: &mut Vec<Dep>) {}
    fn execute(
        &self,
        k: TaskKey,
        _c: &dyn GraphCtx,
        _i: &mut [Option<Payload>],
    ) -> Vec<Option<Payload>> {
        black_box(k.params[0]);
        vec![None]
    }
    fn activity(&self) -> Activity {
        Activity::Compute
    }
}

fn bench_native_dispatch(c: &mut Criterion) {
    let n = 5_000i64;
    let mut g = c.benchmark_group("native_engine");
    g.sample_size(20);
    g.throughput(Throughput::Elements(n as u64));
    g.bench_function("dispatch_5k_tasks_2_threads", |b| {
        b.iter(|| {
            let graph = TaskGraph::new(
                vec![Arc::new(Trivial { n })],
                Arc::new(PlainCtx { nodes: 1 }),
            );
            let rep = NativeRuntime::new(2).run(&graph);
            black_box(rep.tasks)
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ready_queue,
    bench_event_queue,
    bench_ps_resource,
    bench_native_dispatch,
);
criterion_main!(benches);
