//! TDMA slot tables and contention-free reservation for Æthereal-style
//! NoCs.
//!
//! Æthereal provides guaranteed-throughput (GT) connections via slotted
//! time-division multiplexing: every link has a slot table of `S` slots; a
//! connection that owns slot `s` on the first link of its path owns slot
//! `(s + 1) mod S` on the second, `(s + 2) mod S` on the third and so on —
//! data advances one link per slot, so two GT connections can never collide
//! (contention-free routing). Reserving `k` of the `S` base slots gives a
//! connection `k/S` of the raw link bandwidth.
//!
//! This crate supplies:
//!
//! * [`SlotMask`] / [`OccupancyMask`] — bit-packed slot sets (`u64`-word
//!   conflict tests, rotate-by-offset wraparound probes, popcount free
//!   counts),
//! * [`SlotTable`] — one link's slot table: mask-backed occupancy plus a
//!   slot-sorted ownership side index,
//! * [`NetworkSlots`] — the per-use-case resource state over all links of a
//!   topology (Algorithm 2 of the paper keeps one of these per use-case),
//! * slot search over a path with [`NetworkSlots::find_base_slots`] and the
//!   reservation/release pair,
//! * bandwidth⇄slot conversions and worst-case latency bounds for GT
//!   connections.
//!
//! Every combined-occupancy fold counts its work in the calling
//! thread's `noc-obs` counters ([`noc_obs::Counter::ConflictWordTests`]).
//!
//! # Example
//!
//! ```
//! use noc_topology::{MeshBuilder, units::{Bandwidth, Frequency, LinkWidth}};
//! use noc_tdma::{ConnId, NetworkSlots, SlotPolicy, TdmaSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mesh = MeshBuilder::new(1, 2).nis_per_switch(1).build()?;
//! let topo = mesh.topology();
//! let spec = TdmaSpec::new(8, Frequency::from_mhz(500), LinkWidth::BITS_32);
//!
//! // Route from NI0 through both switches to NI1.
//! let ni0 = topo.nis()[0];
//! let ni1 = topo.nis()[1];
//! let s0 = topo.ni_switch(ni0).unwrap();
//! let s1 = topo.ni_switch(ni1).unwrap();
//! let path = vec![
//!     topo.link_between(ni0, s0).unwrap(),
//!     topo.link_between(s0, s1).unwrap(),
//!     topo.link_between(s1, ni1).unwrap(),
//! ];
//!
//! let mut slots = NetworkSlots::new(topo, &spec);
//! let need = spec.slots_for_bandwidth(Bandwidth::from_mbps(500)); // 2 of 8 slots
//! assert_eq!(need, 2);
//! let base = slots
//!     .find_base_slots(&path, need, SlotPolicy::Spread)
//!     .expect("empty network has room");
//! slots.reserve(&path, &base, ConnId::new(7))?;
//! assert_eq!(slots.free_slot_count(path[1]), 6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod mask;
mod network;
mod spec;
mod table;

pub use error::TdmaError;
pub use mask::{OccupancyMask, SlotMask};
pub use network::{NetworkSlots, SlotPolicy};
pub use spec::TdmaSpec;
pub use table::{ConnId, SlotError, SlotTable};
