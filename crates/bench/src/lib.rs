//! The `gsim` front end's table/figure harness and the micro-benchmarks'
//! timing harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod repro;
pub mod tinybench;
