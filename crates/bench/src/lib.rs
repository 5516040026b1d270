//! Experiment drivers reproducing the paper's evaluation (Chapter 5 and
//! Appendix B).
//!
//! Every figure and table has a driver that regenerates its data series:
//! the same BLACs, the same size sweeps, the same competitor set, measured
//! with the same protocol — on the microarchitecture simulator instead of
//! silicon. Run them via the `experiments` binary:
//!
//! ```text
//! cargo run -p lgen-bench --release --bin experiments -- list
//! cargo run -p lgen-bench --release --bin experiments -- fig-5.1
//! cargo run -p lgen-bench --release --bin experiments -- all
//! ```

pub mod drivers;
pub mod figures;
pub mod series;

pub use drivers::{measure_competitor, measure_lgen};
pub use series::Series;
