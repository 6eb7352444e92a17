//! Umbrella crate: re-exports the full multi-use-case NoC mapping stack.
pub use noc_benchgen as benchgen;
pub use noc_flow as flow;
pub use noc_obs as obs;
pub use noc_par as par;
pub use noc_service as service;
pub use noc_sim as sim;
pub use noc_tdma as tdma;
pub use noc_topology as topology;
pub use noc_usecase as usecase;
pub use nocmap as map;
