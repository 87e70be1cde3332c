//! The `gsim` front end's table/figure harness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod repro;
