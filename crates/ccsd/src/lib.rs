//! CCSD `icsd_t2_7` over the PaRSEC-like runtime.
//!
//! This crate is the application layer of the reproduction: it turns the
//! inspection metadata of the `tce` crate into executable task graphs —
//! the paper's five algorithmic variants — and provides the legacy
//! execution model they are compared against:
//!
//! * [`ctx`] — the shared graph context (inspection arrays, chain-to-node
//!   round-robin map, the priority scheme `max_L1 - L1 + offset * P`);
//! * [`variants`] — the PTG task classes (READ_A/READ_B, DFILL, GEMM,
//!   REDUCE, SORT, WRITE_C) and the five wirings v1..v5 of Section IV-A;
//! * [`dist`] — one rank of a *real* multi-rank execution: GA shards
//!   served by the `comm` crate's one-sided progress engine, rank-local
//!   chain subsets, and the priority-driven prefetch pipeline;
//! * [`steal`] — locality-aware cross-rank work stealing: the per-rank
//!   chain ledger, the `WorkSource` that feeds the fused engine, and
//!   the `StealRequest` donation handler (DESIGN.md §4.7);
//! * [`baseline`] — the original NWChem Coarse-Grain-Parallelism model:
//!   ranks, seven barrier-separated work levels, global NXTVAL work
//!   stealing, blocking `GET_HASH_BLOCK`s (Figures 12-13), simulated on
//!   the same hardware model as the PaRSEC variants;
//! * [`verify`] — agreement checks: every variant, on every engine, must
//!   reproduce the serial reference energy ("matched up to the 14th
//!   digit").

pub mod baseline;
pub mod ctx;
pub mod dist;
pub mod steal;
pub mod variants;
pub mod verify;

pub use baseline::{simulate_baseline, BaselineCfg, BaselineReport};
pub use ctx::{CcsdCtx, VariantCfg, ACC_RMW_FACTOR, SORT_STRIDE_FACTOR};
pub use dist::{DistRank, DistRun};
pub use steal::{ChainLedger, ChainSource, StealConfig, StealSummary};
pub use variants::{build_graph, build_graph_external, build_graph_pooled};
