//! The harness latency histogram: the shared pagestore type.
//!
//! [`blink_pagestore::hist`] holds the one histogram implementation:
//! `HistSnapshot` is the single-threaded recording/merging form (`record`,
//! `merge`, `percentile`, `mean`, `min`/`max`) the harness and benches
//! record into, and `WaitHist` is its lock-free atomic sibling the store's
//! hot paths record into.

pub use blink_pagestore::hist::{fmt_ns, HistSnapshot, WaitHist};
