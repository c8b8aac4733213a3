//! Symbolic dependency tracking for the simulator.
//!
//! The defining property of the PTG execution model — emphasized by the
//! paper against "Dynamic Task Discovery" runtimes — is that the DAG is
//! never built in memory. This tracker holds state only for tasks that
//! have been *discovered* (received at least one input, or registered as
//! roots) and not yet run: a map from task to its remaining input count.
//! Everything else is recomputed symbolically from the task classes.
//!
//! [`crate::simengine::SimEngine`] drives it from its one event loop. The
//! native engine keeps the same frontier, concurrently: a sharded map
//! from task to its missing-input count *and* the inputs delivered so far
//! (see [`crate::native`]), so delivering an edge is one lock.

use ptg::{TaskGraph, TaskKey};
use std::collections::HashMap;

/// Dependence state of the in-flight frontier.
#[derive(Debug, Default)]
pub struct Tracker {
    /// Discovered-but-not-ready tasks -> missing input count.
    missing: HashMap<TaskKey, usize>,
    /// Tasks discovered (ready or running) and not yet completed.
    live: u64,
    /// Totals for reporting.
    discovered: u64,
    completed: u64,
}

impl Tracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a root task (zero task inputs). Returns the key, ready.
    pub fn add_root(&mut self, key: TaskKey) -> TaskKey {
        self.live += 1;
        self.discovered += 1;
        key
    }

    /// Deliver one input to `dst`. Returns `Some(dst)` when this delivery
    /// makes it ready.
    ///
    /// Note: once a task becomes ready its entry is discarded, so a sender
    /// that delivers *after* readiness re-discovers the task — an
    /// inconsistent PTG therefore shows up as a duplicate execution or a
    /// non-quiescent exit rather than a panic here. The exhaustive
    /// `ptg::validate::audit` catches such graphs in tests.
    pub fn deliver(&mut self, graph: &TaskGraph, dst: TaskKey) -> Option<TaskKey> {
        let entry = self.missing.entry(dst).or_insert_with(|| {
            self.live += 1;
            self.discovered += 1;
            let n = graph.class_of(dst).num_inputs(dst, graph.ctx());
            debug_assert!(
                n > 0,
                "task {} received an input but declares none",
                graph.display(dst)
            );
            n
        });
        debug_assert!(*entry > 0, "over-delivery to {}", graph.display(dst));
        *entry -= 1;
        if *entry == 0 {
            self.missing.remove(&dst);
            Some(dst)
        } else {
            None
        }
    }

    /// Mark a task completed.
    pub fn complete(&mut self, _key: TaskKey) {
        debug_assert!(self.live > 0, "completion without a live task");
        self.live -= 1;
        self.completed += 1;
    }

    /// No live tasks remain. If the frontier map is non-empty at
    /// quiescence, the graph declared inputs that never arrived.
    pub fn is_quiescent(&self) -> bool {
        self.live == 0
    }

    /// Tasks discovered so far.
    pub fn discovered(&self) -> u64 {
        self.discovered
    }

    /// Tasks completed so far.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Tasks that were discovered but still wait for inputs.
    pub fn starved(&self) -> usize {
        self.missing.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptg::{Activity, Dep, GraphCtx, Payload, PlainCtx, TaskClass};
    use std::sync::Arc;

    /// DIAMOND: A -> B, A -> C, {B, C} -> D.
    struct Diamond;
    impl TaskClass for Diamond {
        fn name(&self) -> &str {
            "D"
        }
        fn num_flows(&self) -> usize {
            1
        }
        fn roots(&self, _ctx: &dyn GraphCtx, out: &mut Vec<TaskKey>) {
            out.push(TaskKey::new(0, &[0]));
        }
        fn num_inputs(&self, key: TaskKey, _ctx: &dyn GraphCtx) -> usize {
            match key.params[0] {
                0 => 0,
                1 | 2 => 1,
                3 => 2,
                _ => unreachable!(),
            }
        }
        fn successors(&self, key: TaskKey, _ctx: &dyn GraphCtx, out: &mut Vec<Dep>) {
            let dep = |i| Dep {
                src_flow: 0,
                dst: TaskKey::new(0, &[i]),
                dst_flow: 0,
            };
            match key.params[0] {
                0 => {
                    out.push(dep(1));
                    out.push(dep(2));
                }
                1 | 2 => out.push(dep(3)),
                _ => {}
            }
        }
        fn execute(
            &self,
            _key: TaskKey,
            _ctx: &dyn GraphCtx,
            _inputs: &mut [Option<Payload>],
        ) -> Vec<Option<Payload>> {
            vec![None]
        }
        fn activity(&self) -> Activity {
            Activity::Compute
        }
    }

    fn diamond() -> TaskGraph {
        TaskGraph::new(vec![Arc::new(Diamond)], Arc::new(PlainCtx { nodes: 1 }))
    }

    #[test]
    fn diamond_discovery() {
        let g = diamond();
        let mut t = Tracker::new();
        let a = t.add_root(TaskKey::new(0, &[0]));
        assert!(!t.is_quiescent());

        // A completes, delivering to B and C.
        let b = t.deliver(&g, TaskKey::new(0, &[1])).expect("B ready");
        let c = t.deliver(&g, TaskKey::new(0, &[2])).expect("C ready");
        t.complete(a);

        // B completes: D has 1 of 2 inputs.
        assert!(t.deliver(&g, TaskKey::new(0, &[3])).is_none());
        t.complete(b);
        assert_eq!(t.starved(), 1);

        // C completes: D ready.
        let d = t.deliver(&g, TaskKey::new(0, &[3])).expect("D ready");
        t.complete(c);
        t.complete(d);
        assert!(t.is_quiescent());
        assert_eq!(t.discovered(), 4);
        assert_eq!(t.completed(), 4);
        assert_eq!(t.starved(), 0);
    }

    #[test]
    fn counts_discovery_and_completion() {
        let _g = diamond();
        let mut t = Tracker::new();
        let a = t.add_root(TaskKey::new(0, &[0]));
        assert_eq!(t.discovered(), 1);
        t.complete(a);
        assert_eq!(t.completed(), 1);
        assert!(t.is_quiescent());
    }
}
