//! On-chip and inter-chiplet network models for GPU scale-model simulation.
//!
//! The paper's target systems use a crossbar network-on-chip between the SMs
//! and the LLC slices, characterised by its *bisection bandwidth* (Table I:
//! 2.7 TB/s for the 128-SM target, scaled proportionally in the scale
//! models), and — for the multi-chip-module case study (Table V) — an
//! inter-chiplet "fly" topology with 900 GB/s per chiplet.
//!
//! What matters for scaling studies is bandwidth occupancy and the queueing
//! it induces, not per-flit routing, so the models here are work-conserving
//! bandwidth servers:
//!
//! * [`BandwidthLink`] — a single shared channel with a service rate in
//!   bytes per cycle; transfers occupy it back-to-back, producing queueing
//!   delay under load.
//! * [`Crossbar`] — the SM↔LLC crossbar: a bisection-bandwidth link plus a
//!   fixed per-hop latency.
//! * [`ChipletInterconnect`] — one link per chiplet plus a fixed
//!   chiplet-crossing latency, for the MCM case study. It lives next to
//!   [`ChipletConfig`](crate::ChipletConfig), which it serves.

pub use crate::chiplet::ChipletInterconnect;
pub use crate::crossbar::Crossbar;
pub use crate::link::{BandwidthLink, LinkStats};
