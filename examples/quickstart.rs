//! Quickstart: define a Parameterized Task Graph in the textual DSL and
//! execute it on the native threaded runtime.
//!
//! The graph is the paper's Figure 1 in miniature: `size_L1` parallel
//! chains of `size_L2` serially-dependent GEMM tasks, fed by reader
//! tasks, each chain ending in a SORT. Bodies here are toy 2x2 matrix
//! multiplies so the whole example runs in milliseconds.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use parsec_rt::NativeRuntime;
use ptg::dsl::DslBuilder;
use ptg::{Payload, PlainCtx};
use std::sync::{Arc, Mutex};

const SRC: &str = r#"
    // Readers pull the operands "from memory" (a host data provider).
    READ_A(L1, L2)
    L1 = 0 .. size_L1 - 1
    L2 = 0 .. size_L2 - 1
    WRITE A <- input_a(L1, L2) -> A GEMM(L1, L2)
    ; size_L1 - L1 + 5 * P
    BODY reader

    READ_B(L1, L2)
    L1 = 0 .. size_L1 - 1
    L2 = 0 .. size_L2 - 1
    WRITE B <- input_b(L1, L2) -> B GEMM(L1, L2)
    ; size_L1 - L1 + 5 * P
    BODY reader

    DFILL(L1)
    L1 = 0 .. size_L1 - 1
    WRITE C -> C GEMM(L1, 0)
    ; size_L1 - L1
    BODY dfill

    GEMM(L1, L2)
    L1 = 0 .. size_L1 - 1
    L2 = 0 .. size_L2 - 1
    READ A <- A READ_A(L1, L2)
    READ B <- B READ_B(L1, L2)
    RW C <- (L2 == 0) ? C DFILL(L1)
         <- (L2 != 0) ? C GEMM(L1, L2 - 1)
         -> (L2 < size_L2 - 1) ? C GEMM(L1, L2 + 1)
         -> (L2 == size_L2 - 1) ? C SORT(L1)
    ; size_L1 - L1 + 1 * P
    BODY gemm

    SORT(L1)
    L1 = 0 .. size_L1 - 1
    READ C <- C GEMM(L1, size_L2 - 1)
    BODY sort
"#;

fn main() {
    let (chains, links) = (4i64, 3i64);

    let results: Arc<Mutex<Vec<(i64, f64)>>> = Default::default();
    let results_sink = results.clone();

    let graph = DslBuilder::new(SRC)
        .global("size_L1", chains)
        .global("size_L2", links)
        // Memory inputs: 2x2 matrices whose entries depend on (L1, L2).
        .data("input_a", |args| {
            Payload::from(vec![1.0, 0.0, 0.0, 1.0 + args[1] as f64])
        })
        .data("input_b", |args| {
            Payload::from(vec![args[0] as f64 + 1.0, 0.5, 0.5, 1.0])
        })
        .body("dfill", |_k, _inputs| {
            vec![Some(Payload::from(vec![0.0; 4]))]
        })
        .body("gemm", |_k, inputs| {
            let a = inputs[0].take().expect("A");
            let b = inputs[1].take().expect("B");
            let mut c = inputs[2].take().expect("C").to_vec();
            tensor_kernels::dgemm(
                tensor_kernels::Trans::N,
                tensor_kernels::Trans::N,
                2,
                2,
                2,
                1.0,
                &a,
                &b,
                1.0,
                &mut c,
            );
            vec![None, None, Some(Payload::from(c))]
        })
        .body("sort", move |k, inputs| {
            let c = inputs[0].take().expect("C");
            results_sink
                .lock()
                .unwrap()
                .push((k.params[0], c.iter().sum()));
            vec![None]
        })
        .compile(Arc::new(PlainCtx { nodes: 1 }))
        .expect("DSL compiles");

    let report = NativeRuntime::new(2).run(&graph);

    let mut sums = results.lock().unwrap().clone();
    sums.sort_by_key(|&(l1, _)| l1);
    println!(
        "executed {} tasks on 2 worker threads in {:?}",
        report.tasks, report.wall
    );
    for (l1, sum) in &sums {
        println!("chain {l1}: sum of accumulated C = {sum:.3}");
    }
    assert_eq!(sums.len(), chains as usize);

    // The whole point of the PTG: no DAG was ever materialized — the
    // runtime discovered 4 chains x (2 readers + 1 gemm) x 3 + dfill +
    // sort symbolically, task by task.
    let expected = chains * (3 * links) + 2 * chains;
    assert_eq!(report.tasks, expected as u64);
    println!("ok: {} tasks discovered symbolically", report.tasks);
}
